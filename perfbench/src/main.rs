//! The benchmark command.
//!
//! ```text
//! deepum-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one workload on one thread for about `S` seconds of passes and
//! prints, last, one JSON line: `correct`, `attempted`, `failed` and
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics from
//! the timing adapter (`--trace 1`). Host times are scaled to nominal
//! host speed by the probe (`probe.rs`). Run it from the repository
//! root: it reads the blessed cell digests from `ci/bench-baseline.json`.

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use deepum_bench::suite::SUITE_SEED;
use deepum_perfbench::host;
use deepum_perfbench::metrics::{self, Values, END_TO_END, PER_LAYER};
use deepum_perfbench::probe::{Probe, Speed};
use deepum_perfbench::workloads::{self, Blessed, Kind, Pass};

/// Host seconds of back-to-back set-ups timed after each pass;
/// `setup_s` is the median over all of them. Windows spread over the
/// run average the host's speed swings, and always following a pass
/// keeps the allocator in the same state for every sample.
const SETUP_WINDOW_S: f64 = 0.1;
/// Set-ups per window, at least and at most.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 20_000;

/// A pass with the probe-clock interval it ran in.
struct TimedPass {
    pass: Pass,
    from_s: f64,
    to_s: f64,
}

impl TimedPass {
    /// The pass's factor to nominal host speed, net of the probe's own
    /// share of the core.
    fn factor(&self, speed: &Speed) -> f64 {
        speed.factor(self.from_s, self.to_s) * (1.0 - speed.busy_share(self.from_s, self.to_s))
    }
}

/// Per-layer self times, which never overlap within a pass.
const SELF_TIMES: [&str; 10] = [
    "core.handle_faults.s",
    "core.overlap_compute.s",
    "core.on_kernel_launch.s",
    "core.on_pt_block_state.s",
    "core.kernel_finished.s",
    "core.touch.s",
    "um.handle_faults.s",
    "gpu.replay_self_s",
    "sched.run_s",
    "serve.run_s",
];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = SUITE_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {value} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = parse_u64(&value).ok_or("--seed expects an integer")?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or("--seconds expects a positive number")?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let baseline = match std::fs::read_to_string("ci/bench-baseline.json") {
        Ok(text) => Blessed::parse(&text),
        Err(e) => {
            eprintln!(
                "perfbench: cannot read ci/bench-baseline.json (run from the repository root): {e}"
            );
            return ExitCode::from(2);
        }
    };
    let load_before = host::loadavg();
    let kind = args.kind;
    let probe = Probe::start();

    // Raw set-up and build times with the probe-clock interval of the
    // window they were timed in.
    let mut windows: Vec<(f64, f64, Vec<f64>, Vec<f64>)> = Vec::new();
    let mut time_setups = || {
        let from = probe.now();
        let window = Instant::now();
        let (mut setup_s, mut build_s) = (Vec::new(), Vec::new());
        for n in 0..MAX_SETUPS {
            if n >= MIN_SETUPS && window.elapsed().as_secs_f64() >= SETUP_WINDOW_S {
                break;
            }
            let built = workloads::setup(kind, args.seed);
            setup_s.push(built.setup_s);
            build_s.push(built.build_s);
        }
        windows.push((from, probe.now(), setup_s, build_s));
    };

    // Timed passes; a traced run alternates untraced and traced passes
    // so the adapter's overhead is measured on the same host state.
    let started = Instant::now();
    let mut untraced: Vec<TimedPass> = Vec::new();
    let mut traced: Vec<TimedPass> = Vec::new();
    // A round starts only if at least half of one more of the same
    // length fits in the budget, so a run ends near `--seconds` on
    // average instead of overrunning it by a whole pass.
    let mut round_s = 0.0;
    let mut peak_rss_mb = 0.0;
    while untraced.is_empty() || started.elapsed().as_secs_f64() + round_s / 2.0 <= args.seconds {
        let round = Instant::now();
        let modes: &[bool] = if args.trace { &[false, true] } else { &[false] };
        for &t in modes {
            let built = workloads::setup(kind, args.seed);
            let from_s = probe.now();
            let pass = workloads::run_pass(built, args.seed, t, &baseline);
            let to_s = probe.now();
            println!(
                "# pass traced={} wall_s={:.3} kernels={}",
                u8::from(t),
                pass.wall_s,
                pass.kernels
            );
            for f in &pass.failures {
                eprintln!("perfbench: FAILED {f}");
            }
            time_setups();
            let pass = TimedPass { pass, from_s, to_s };
            if t {
                traced.push(pass);
            } else {
                if untraced.is_empty() {
                    // Later passes only add allocator fragmentation,
                    // whose amount depends on how many fit the budget.
                    peak_rss_mb = host::peak_rss_mb();
                }
                untraced.push(pass);
            }
        }
        round_s = round.elapsed().as_secs_f64();
    }
    let speed = probe.finish();

    // Every pass must produce the same simulated output, traced or not,
    // and its layer self times must fit inside its wall time. Each pass
    // counts these two checks as one more operation.
    let mut attempted = 0;
    let mut failed = 0;
    let reference = untraced[0].pass.digests.clone();
    for (i, TimedPass { pass, .. }) in untraced.iter().chain(&traced).enumerate() {
        attempted += pass.attempted + 1;
        failed += pass.failed;
        let self_s: f64 = SELF_TIMES
            .iter()
            .map(|k| pass.layer.get(k).copied().unwrap_or(0.0))
            .sum();
        if pass.digests != reference {
            failed += 1;
            eprintln!(
                "perfbench: FAILED pass {i} digests {:?} != {:?}",
                pass.digests, reference
            );
        } else if self_s > pass.wall_s {
            failed += 1;
            eprintln!(
                "perfbench: FAILED pass {i} layer self time {self_s} > wall {}",
                pass.wall_s
            );
        }
    }
    for (label, d) in &reference {
        println!("# digest {label} {d}");
    }

    // Every host time below is scaled to nominal host speed by the
    // factor of the interval it was measured in.
    let scaled = |v: &mut Vec<f64>, raw: &[f64], f: f64| v.extend(raw.iter().map(|x| x * f));
    let (mut setup_s, mut build_s) = (Vec::new(), Vec::new());
    for (from, to, setups, builds) in &windows {
        let f = speed.factor(*from, *to);
        scaled(&mut setup_s, setups, f);
        scaled(&mut build_s, builds, f);
    }
    let factors: Vec<f64> = untraced.iter().map(|p| p.factor(&speed)).collect();

    let mut e2e: Values = untraced[0].pass.sim.clone();
    // Pooled over the run (total kernels over total scaled pass time),
    // so every pass weighs by its length.
    let kernels: u64 = untraced.iter().map(|p| p.pass.kernels).sum();
    let raw_s: f64 = untraced.iter().map(|p| p.pass.wall_s).sum();
    let pass_s: f64 = untraced
        .iter()
        .zip(&factors)
        .map(|(p, f)| p.pass.wall_s * f)
        .sum();
    e2e.insert("norm_kernels_per_s", kernels as f64 / pass_s);
    e2e.insert("setup_s", median(setup_s));
    e2e.insert("peak_rss_mb", peak_rss_mb);
    let ok = 1.0 - failed as f64 / attempted.max(1) as f64;
    e2e.insert("ok_share", ok);

    let mut layer = Values::new();
    if args.trace {
        for m in PER_LAYER {
            let f = |p: &TimedPass| {
                let v = p.pass.layer.get(m.name).copied().unwrap_or(0.0);
                if metrics::is_host_time(m.unit) {
                    v * p.factor(&speed)
                } else {
                    v
                }
            };
            layer.insert(m.name, median(traced.iter().map(f).collect()));
        }
        layer.insert("torch.build_s", median(build_s));
        let wall = |p: &TimedPass| p.pass.wall_s * p.factor(&speed);
        let plain = median(untraced.iter().map(wall).collect());
        let timed = median(traced.iter().map(wall).collect());
        layer.insert("bench.untraced_pass_s", plain);
        layer.insert("bench.trace_overhead_share", timed / plain - 1.0);
        layer.insert("bench.raw_kernels_per_s", kernels as f64 / raw_s);
    }
    // Bases of end-to-end ratios live in the layer counts.
    let mut shown = e2e.clone();
    for (k, v) in &untraced[0].pass.layer {
        shown.entry(k).or_insert(*v);
    }

    println!(
        "# workload {} seed {} passes {}+{} traced",
        kind.name(),
        args.seed,
        untraced.len(),
        traced.len()
    );
    let (list, values) = if args.trace {
        (PER_LAYER, &layer)
    } else {
        (END_TO_END, &shown)
    };
    for line in metrics::render_lines(list, values, attempted) {
        println!("{line}");
    }
    let shown_factors: Vec<String> = factors.iter().map(|f| format!("{f:.3}")).collect();
    println!(
        "# probe bursts={} median_burst_ms={:.4} pass_factors={} raw_kernels_per_s={:.1}",
        speed.bursts(),
        speed.median_burst_s() * 1e3,
        shown_factors.join(","),
        kernels as f64 / raw_s
    );
    println!(
        "# host nproc={} cpus_online={} load_before=\"{}\" load_after=\"{}\" profile={} commit={}",
        host::nproc(),
        host::cpus_online(),
        load_before,
        host::loadavg(),
        host::profile(),
        host::commit(Path::new("."))
    );
    let correct = failed == 0;
    println!(
        "{}",
        metrics::result_json(
            list,
            if args.trace { &layer } else { &e2e },
            correct,
            attempted,
            failed
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
