//! Figure 10: effects of prefetching and the fault-handling
//! optimizations.
//!
//! Reads each transformer at its middle batch under naive UM and the
//! three DeepUM ablation levels — Prefetching, Prefetching+Preeviction,
//! and Prefetching+Preeviction+Invalidate — and reports execution time
//! normalized to UM (the paper reports average reductions of 45.6%,
//! 63.7%, and 66.7%).

use deepum_baselines::report::RunReport;
use deepum_core::config::DeepumConfig;
use deepum_torch::models::ModelKind;

use crate::grids::middle_batch;
use crate::suite::{grid_key, Reports};
use crate::systems::System;
use crate::table::Table;

/// The models the ablation sweeps, in row order.
pub const MODELS: &[ModelKind] = &[ModelKind::BertLarge, ModelKind::Gpt2Xl, ModelKind::Gpt2L];

/// The two partial levels as (cell tag, config); the third level is
/// full DeepUM, whose cell Fig. 9 already runs.
pub fn ablations() -> [(&'static str, DeepumConfig); 2] {
    [
        ("abl-prefetch", DeepumConfig::prefetch_only()),
        ("abl-preevict", DeepumConfig::prefetch_preevict()),
    ]
}

/// Normalized runtimes for one model.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Model label.
    pub model: String,
    /// Batch size.
    pub batch: usize,
    /// Runtime with correlation prefetching only / UM.
    pub prefetch: Option<f64>,
    /// + page pre-eviction.
    pub preevict: Option<f64>,
    /// + inactive-PT-block invalidation (full DeepUM).
    pub invalidate: Option<f64>,
}

/// The ablation rows, looked up in the suite's reports.
pub fn rows(reports: &Reports) -> Vec<AblationRow> {
    MODELS
        .iter()
        .map(|&model| {
            let batch = middle_batch(model);
            let run = |tag: &str| reports.get(&grid_key("", model, batch, tag)).as_ref().ok();
            let um = run(System::Um.label());
            let norm = |r: Option<&RunReport>| match (r, um) {
                (Some(sys), Some(um)) => {
                    let base = um.steady_iter_time().as_nanos() as f64;
                    if base > 0.0 {
                        Some(sys.steady_iter_time().as_nanos() as f64 / base)
                    } else {
                        None
                    }
                }
                _ => None,
            };
            let [(prefetch, _), (preevict, _)] = ablations();
            AblationRow {
                model: model.label().into(),
                batch,
                prefetch: norm(run(prefetch)),
                preevict: norm(run(preevict)),
                invalidate: norm(run(System::deepum().label())),
            }
        })
        .collect()
}

/// Renders the ablation table (normalized runtime, lower is better).
pub fn table(rows: &[AblationRow]) -> Table {
    let mut t = Table::new(
        "Fig 10: runtime normalized to naive UM (lower is better)",
        &["model", "batch", "prefetch", "+preevict", "+invalidate"],
    );
    let fmt = |v: Option<f64>| v.map(|x| format!("{x:.3}")).unwrap_or_else(|| "-".into());
    let mut sums = (0.0, 0.0, 0.0, 0usize);
    for r in rows {
        if let (Some(a), Some(b), Some(c)) = (r.prefetch, r.preevict, r.invalidate) {
            sums.0 += a;
            sums.1 += b;
            sums.2 += c;
            sums.3 += 1;
        }
        t.row([
            r.model.clone(),
            r.batch.to_string(),
            fmt(r.prefetch),
            fmt(r.preevict),
            fmt(r.invalidate),
        ]);
    }
    if sums.3 > 0 {
        let n = sums.3 as f64;
        t.row([
            "MEAN".into(),
            "-".into(),
            format!("{:.3}", sums.0 / n),
            format!("{:.3}", sums.1 / n),
            format!("{:.3}", sums.2 / n),
        ]);
    }
    t
}
