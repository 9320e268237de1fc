//! The benchmark's metric registry and its output formats.
//!
//! Every metric the benchmark can print is declared here once, with
//! its unit, its direction and, for ratios, the base it is a share of.
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! keeps the two in step.

use std::collections::BTreeMap;

/// Whether a larger value is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, faults, bytes).
    Lower,
    /// Larger is better (throughput, accuracy).
    Higher,
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`, unique).
    pub name: &'static str,
    /// Unit: `s`/`ms`/`us` are host time, `sim_s`/`sim_ms` virtual time.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// For ratios: the metric (or `attempted`) the ratio is taken over,
    /// printed next to it so a share is never read without its size.
    pub base: Option<&'static str>,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        base: None,
    }
}

const fn r(name: &'static str, unit: &'static str, better: Better, base: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        base: Some(base),
    }
}

use Better::{Higher, Lower};

/// Metrics printed by an untraced run (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    m("norm_kernels_per_s", "1/s", Higher),
    m("setup_s", "s", Lower),
    m("peak_rss_mb", "MB", Lower),
    r("ok_share", "share", Higher, "attempted"),
    m("sim_iter_s", "sim_s", Lower),
    r("sim_speedup_vs_um", "x", Higher, "sim_iter_s"),
    m("faults_per_iter", "count", Lower),
    m("serve_p99_ms", "sim_ms", Lower),
    r("serve_on_time_share", "share", Higher, "serve.requests"),
    m("mt_makespan_s", "sim_s", Lower),
];

/// Metrics printed by a traced run (`--trace 1`).
pub const PER_LAYER: &[Metric] = &[
    m("core.handle_faults.s", "s", Lower),
    m("core.handle_faults.calls", "count", Lower),
    m("core.handle_faults.p50_us", "us", Lower),
    m("core.handle_faults.pmax_us", "us", Lower),
    m("core.overlap_compute.s", "s", Lower),
    m("core.overlap_compute.calls", "count", Lower),
    m("core.overlap_compute.p50_us", "us", Lower),
    m("core.overlap_compute.pmax_us", "us", Lower),
    m("core.on_kernel_launch.s", "s", Lower),
    m("core.on_kernel_launch.calls", "count", Lower),
    m("core.on_kernel_launch.p50_us", "us", Lower),
    m("core.on_kernel_launch.pmax_us", "us", Lower),
    m("core.on_pt_block_state.s", "s", Lower),
    m("core.on_pt_block_state.calls", "count", Lower),
    m("core.on_pt_block_state.p50_us", "us", Lower),
    m("core.on_pt_block_state.pmax_us", "us", Lower),
    m("core.kernel_finished.s", "s", Lower),
    m("core.kernel_finished.calls", "count", Lower),
    m("core.kernel_finished.p50_us", "us", Lower),
    m("core.kernel_finished.pmax_us", "us", Lower),
    m("core.touch.s", "s", Lower),
    m("core.touch.calls", "count", Lower),
    m("core.touch.p50_us", "us", Lower),
    m("core.touch.pmax_us", "us", Lower),
    r("core.share", "share", Lower, "baselines.deepum_run_s"),
    m("core.chain_walks", "count", Lower),
    m("core.block_table_lookups", "count", Lower),
    m("core.block_table_updates", "count", Lower),
    r("core.lookups_per_walk", "ratio", Lower, "core.chain_walks"),
    m("core.pages_prefetched", "count", Higher),
    m("core.prefetch_hits", "count", Higher),
    r(
        "core.prefetch_accuracy",
        "share",
        Higher,
        "core.pages_prefetched",
    ),
    m("core.prefetch_wasted", "count", Lower),
    m("core.prefetch_dropped", "count", Lower),
    m("core.exec_predictions", "count", Higher),
    r(
        "core.exec_mispredict_share",
        "share",
        Lower,
        "core.exec_predictions",
    ),
    m("um.handle_faults.s", "s", Lower),
    m("um.handle_faults.calls", "count", Lower),
    m("um.handle_faults.pmax_us", "us", Lower),
    m("um.fault_batches", "count", Lower),
    m("um.pages_faulted_in", "count", Lower),
    m("um.pages_evicted_demand", "count", Lower),
    m("um.pages_preevicted", "count", Lower),
    m("um.pages_invalidated", "count", Higher),
    m("um.bytes_h2d", "bytes", Lower),
    m("um.bytes_d2h", "bytes", Lower),
    m("baselines.um_run_s", "s", Lower),
    m("baselines.deepum_run_s", "s", Lower),
    m("gpu.replay_self_s", "s", Lower),
    r("gpu.um_replay_share", "share", Lower, "baselines.um_run_s"),
    m("gpu.kernels", "count", Higher),
    m("gpu.page_faults", "count", Lower),
    m("gpu.resident_miss_calls", "count", Lower),
    m("gpu.sim_steady_ms", "sim_ms", Lower),
    r("gpu.sim_stall_share", "share", Lower, "gpu.sim_steady_ms"),
    m("torch.build_s", "s", Lower),
    m("sched.run_s", "s", Lower),
    m("sched.tenants", "count", Higher),
    m("sched.evictions_charged", "count", Lower),
    m("sched.refaults", "count", Lower),
    m("sched.reclaim_debt_ms", "sim_ms", Lower),
    r("sched.tenant_spread", "ratio", Lower, "sched.tenants"),
    m("serve.run_s", "s", Lower),
    m("serve.requests", "count", Higher),
    m("serve.missed", "count", Lower),
    m("serve.shed", "count", Lower),
    m("serve.retries", "count", Lower),
    m("serve.escalations", "count", Lower),
    m("serve.deescalations", "count", Higher),
    m("bench.untraced_pass_s", "s", Lower),
    r(
        "bench.trace_overhead_share",
        "share",
        Lower,
        "bench.untraced_pass_s",
    ),
    m("bench.raw_kernels_per_s", "1/s", Higher),
];

/// True for host-time units, which the probe scales to nominal host
/// speed; virtual `sim_*` times are left alone.
pub fn is_host_time(unit: &str) -> bool {
    matches!(unit, "s" | "ms" | "us")
}

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// One human-readable line per metric of `list`, ratios followed by
/// their base (`core.prefetch_accuracy 0.48 share (of core.pages_prefetched = 64.6e6)`).
pub fn render_lines(list: &[Metric], values: &Values, attempted: u64) -> Vec<String> {
    list.iter()
        .map(|m| {
            let v = values.get(m.name).copied().unwrap_or(0.0);
            let mut line = format!("{:<34} {:>18} {}", m.name, fmt_num(v), m.unit);
            if let Some(base) = m.base {
                let bv = if base == "attempted" {
                    Some(attempted as f64)
                } else {
                    values.get(base).copied()
                };
                match bv {
                    Some(bv) => line.push_str(&format!("  (of {base} = {})", fmt_num(bv))),
                    None => line.push_str(&format!("  (of {base})")),
                }
            }
            line
        })
        .collect()
}

/// The final result line: one JSON object with exactly `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_json(
    list: &[Metric],
    values: &Values,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    let metrics: Vec<String> = list
        .iter()
        .map(|m| {
            let v = values.get(m.name).copied().unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_num(v),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// Full-precision number rendering that is always valid JSON.
pub fn fmt_num(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Units that mark a metric as a ratio, which must declare a base.
    const RATIO_UNITS: [&str; 3] = ["share", "ratio", "x"];

    /// Most end-to-end metrics `BENCHMARK.json` may declare.
    const MAX_END_TO_END: usize = 16;

    /// Most per-layer metrics `BENCHMARK.json` may declare.
    const MAX_PER_LAYER: usize = 128;

    /// Looks a metric up in either list.
    fn find(name: &str) -> Option<&'static Metric> {
        END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
    }

    /// True when `name` matches `[A-Za-z0-9_.-]+`, starts with a letter or
    /// digit and is at most 64 characters long.
    fn valid_name(name: &str) -> bool {
        let first_ok = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_follow_the_grammar_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad name {}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {}",
                m.unit
            );
        }
        assert!(!valid_name("a b"));
        assert!(!valid_name(".lead"));
        assert!(!valid_name(""));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name("core.touch.p50_us"));
    }

    #[test]
    fn lists_respect_the_caps() {
        assert!((1..=MAX_END_TO_END).contains(&END_TO_END.len()));
        assert!((1..=MAX_PER_LAYER).contains(&PER_LAYER.len()));
        let setup = find("setup_s").expect("setup_s is declared");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
    }

    #[test]
    fn every_ratio_is_printed_with_its_base() {
        let mut values = Values::new();
        for (i, m) in END_TO_END.iter().chain(PER_LAYER).enumerate() {
            values.insert(m.name, i as f64 + 0.5);
        }
        for list in [END_TO_END, PER_LAYER] {
            let lines = render_lines(list, &values, 7);
            for (m, line) in list.iter().zip(&lines) {
                if !RATIO_UNITS.contains(&m.unit) {
                    continue;
                }
                let base = m
                    .base
                    .unwrap_or_else(|| panic!("{} is a ratio without a base", m.name));
                assert!(
                    base == "attempted" || find(base).is_some(),
                    "{}: unknown base {base}",
                    m.name
                );
                let bv = if base == "attempted" {
                    "7".to_string()
                } else {
                    fmt_num(values[base])
                };
                assert!(line.contains(&format!("(of {base} = {bv})")), "{line}");
            }
        }
        let line = &render_lines(PER_LAYER, &values, 0)[PER_LAYER
            .iter()
            .position(|m| m.name == "core.prefetch_accuracy")
            .unwrap()];
        assert!(line.contains("core.pages_prefetched"), "{line}");
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut values = Values::new();
        values.insert("setup_s", 0.25);
        let json = result_json(END_TO_END, &values, true, 3, 0);
        assert!(
            json.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(json.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert_eq!(json.matches("\"value\"").count(), END_TO_END.len());
    }

    #[test]
    fn numbers_render_as_json() {
        assert_eq!(fmt_num(3.0), "3");
        assert_eq!(fmt_num(0.125), "0.125");
        assert_eq!(fmt_num(f64::NAN), "0");
        assert_eq!(fmt_num(1e20), "100000000000000000000");
    }
}
