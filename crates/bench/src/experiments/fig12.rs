//! Table 6 + Figure 12: UM-block correlation-table geometry sweep.
//!
//! Reads the thirteen (Assoc, NumSuccs, NumRows) configurations of
//! Table 6 at the model's middle batch, reporting speedup over Config0.
//! The paper finds Config9 (2048 rows, 2-way, 4 successors) best on
//! average.

use deepum_torch::models::ModelKind;

use crate::grids::middle_batch;
use crate::suite::{grid_key, Reports};
use crate::table::Table;

/// The swept model.
pub const MODEL: ModelKind = ModelKind::BertLarge;

/// The Table 6 configurations: `(Assoc, NumSuccs, NumRows)`.
pub const CONFIGS: &[(usize, usize, usize)] = &[
    (2, 4, 128),
    (2, 8, 128),
    (4, 4, 128),
    (2, 4, 512),
    (2, 8, 512),
    (4, 4, 512),
    (2, 4, 1024),
    (2, 8, 1024),
    (4, 4, 1024),
    (2, 4, 2048),
    (2, 8, 2048),
    (4, 4, 2048),
    (2, 4, 4096),
];

/// Cell tag of the run with configuration `CONFIGS[i]`.
pub fn tag(i: usize) -> String {
    format!("deepum-cfg{i}")
}

/// Sweep results for one model.
#[derive(Debug, Clone)]
pub struct ConfigRow {
    /// Model label.
    pub model: String,
    /// Batch size.
    pub batch: usize,
    /// Steady iteration time (ns) per configuration, [`CONFIGS`] order.
    pub per_config: Vec<Option<u64>>,
}

/// The sweep rows, looked up in the suite's reports.
pub fn rows(reports: &Reports) -> Vec<ConfigRow> {
    let batch = middle_batch(MODEL);
    let per_config = (0..CONFIGS.len())
        .map(|i| {
            reports
                .get(&grid_key("", MODEL, batch, &tag(i)))
                .as_ref()
                .ok()
                .map(|r| r.steady_iter_time().as_nanos())
        })
        .collect();
    vec![ConfigRow {
        model: MODEL.label().into(),
        batch,
        per_config,
    }]
}

/// Renders Fig. 12: speedup of each configuration over Config0.
pub fn table(rows: &[ConfigRow]) -> Table {
    let headers: Vec<String> = std::iter::once("model".to_string())
        .chain((0..CONFIGS.len()).map(|i| format!("cfg{i}")))
        .collect();
    let hdr_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "Fig 12 / Table 6: speedup of each block-table configuration over Config0",
        &hdr_refs,
    );
    let mut logsums = vec![0.0f64; CONFIGS.len()];
    let mut counts = vec![0usize; CONFIGS.len()];
    for r in rows {
        let base = r.per_config[0];
        let mut cells = vec![r.model.clone()];
        for (i, c) in r.per_config.iter().enumerate() {
            let cell = match (c, base) {
                (Some(v), Some(b)) if *v > 0 => {
                    let s = b as f64 / *v as f64;
                    logsums[i] += s.ln();
                    counts[i] += 1;
                    format!("{s:.3}")
                }
                _ => "-".into(),
            };
            cells.push(cell);
        }
        t.row(cells);
    }
    let mut gmean = vec!["GMEAN".to_string()];
    for (ls, n) in logsums.iter().zip(&counts) {
        gmean.push(if *n > 0 {
            format!("{:.3}", (ls / *n as f64).exp())
        } else {
            "-".into()
        });
    }
    t.row(gmean);
    t
}

/// Renders Table 6 itself (the configuration list).
pub fn table_configs() -> Table {
    let mut t = Table::new(
        "Table 6: UM block correlation table configurations",
        &["name", "Assoc", "NumSuccs", "NumRows"],
    );
    for (i, &(a, s, r)) in CONFIGS.iter().enumerate() {
        t.row([
            format!("Config{i}"),
            a.to_string(),
            s.to_string(),
            r.to_string(),
        ]);
    }
    t
}
