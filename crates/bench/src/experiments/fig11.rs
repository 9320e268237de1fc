//! Figure 11: sensitivity to the degree of prefetching (N).
//!
//! Sweeps the chaining look-ahead N and reports, at the model's middle
//! batch, the speedup and total-energy ratio relative to N = 8 — the
//! paper's normalization point. The paper observes a sweet spot at
//! N = 32 where speedup is highest and energy lowest.

use deepum_torch::models::ModelKind;

use crate::grids::middle_batch;
use crate::suite::{grid_key, Reports};
use crate::table::Table;

/// The swept model.
pub const MODEL: ModelKind = ModelKind::Gpt2L;

/// The swept look-ahead degrees.
pub const DEGREES: &[usize] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512];

/// Cell tag of the degree-`n` run.
pub fn tag(n: usize) -> String {
    format!("deepum-N{n}")
}

/// Results of the sweep for one model.
#[derive(Debug, Clone)]
pub struct DegreeRow {
    /// Model label.
    pub model: String,
    /// Batch size.
    pub batch: usize,
    /// Per-degree steady iteration time (ns) and energy (J), indexed
    /// like [`DEGREES`]; `None` marks failed runs.
    pub per_degree: Vec<Option<(u64, f64)>>,
}

/// The sweep rows, looked up in the suite's reports.
pub fn rows(reports: &Reports) -> Vec<DegreeRow> {
    let batch = middle_batch(MODEL);
    let per_degree = DEGREES
        .iter()
        .map(|&n| {
            reports
                .get(&grid_key("", MODEL, batch, &tag(n)))
                .as_ref()
                .ok()
                .map(|r| (r.steady_iter_time().as_nanos(), r.steady_iter_energy()))
        })
        .collect();
    vec![DegreeRow {
        model: MODEL.label().into(),
        batch,
        per_degree,
    }]
}

/// Speedup of each degree over N = 8 (steady iteration time), indexed
/// like [`DEGREES`]; `None` where either run failed.
pub fn speedups(row: &DegreeRow) -> Vec<Option<f64>> {
    relative(row, |x| x.0 as f64, true)
}

fn relative(row: &DegreeRow, pick: fn(&(u64, f64)) -> f64, invert: bool) -> Vec<Option<f64>> {
    let base_idx = DEGREES.iter().position(|&n| n == 8).expect("8 in sweep");
    let base = row.per_degree[base_idx].as_ref().map(pick);
    row.per_degree
        .iter()
        .map(|d| match (d.as_ref().map(pick), base) {
            (Some(v), Some(b)) if v > 0.0 && b > 0.0 => Some(if invert { b / v } else { v / b }),
            _ => None,
        })
        .collect()
}

fn normalized(rows: &[DegreeRow], pick: fn(&(u64, f64)) -> f64, invert: bool) -> Table {
    let metric = if invert { "speedup" } else { "energy ratio" };
    let headers: Vec<String> = std::iter::once("model".to_string())
        .chain(DEGREES.iter().map(|n| format!("N={n}")))
        .collect();
    let hdr_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        format!("Fig 11: {metric} relative to N=8 (per model, middle batch)"),
        &hdr_refs,
    );
    for r in rows {
        let cells = relative(r, pick, invert)
            .into_iter()
            .map(|v| v.map_or_else(|| "-".into(), |v| format!("{v:.3}")));
        t.row(std::iter::once(r.model.clone()).chain(cells));
    }
    t
}

/// Fig. 11(a): speedup over the N=8 configuration.
pub fn table_speedup(rows: &[DegreeRow]) -> Table {
    normalized(rows, |x| x.0 as f64, true)
}

/// Fig. 11(b): energy ratio over the N=8 configuration (lower better).
pub fn table_energy(rows: &[DegreeRow]) -> Table {
    normalized(rows, |x| x.1, false)
}
