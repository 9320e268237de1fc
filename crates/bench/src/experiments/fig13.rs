//! Figure 13: comparison with the TensorFlow-based approaches on the
//! V100 16 GB.
//!
//! Reads vDNN, AutoTM, SwapAdvisor, Capuchin, Sentinel, DeepUM, and
//! Ideal on the Section 6.4 workloads (ResNet-200/CIFAR-10,
//! BERT-Large/CoLA, DCGAN/celebA, MobileNet/CIFAR-100) and reports
//! speedups over naive UM. The paper's headline: DeepUM is faster than
//! everything except Sentinel, to which it is comparable — while being
//! the only fully transparent system.

use deepum_baselines::report::{RunError, RunReport};

use crate::grids::FIG13_GRID;
use crate::suite::{grid_key, Reports};
use crate::systems::System;
use crate::table::{ratio, Table};

/// Cell-key prefix of the 16 GB platform's cells.
pub const KEY_PREFIX: &str = "16g-";

/// The Fig. 13 systems, in presentation order.
pub fn systems() -> Vec<System> {
    vec![
        System::Vdnn,
        System::AutoTm,
        System::SwapAdvisor,
        System::Capuchin,
        System::Sentinel,
        System::deepum(),
        System::Ideal,
    ]
}

/// Results for one workload.
#[derive(Debug, Clone)]
pub struct CompareRow {
    /// Model label.
    pub model: String,
    /// Batch size.
    pub batch: usize,
    /// Baseline UM run.
    pub um: Result<RunReport, RunError>,
    /// Per-system runs, in [`systems`] order.
    pub runs: Vec<Result<RunReport, RunError>>,
}

/// The comparison rows, looked up in the suite's reports.
pub fn rows(reports: &Reports) -> Vec<CompareRow> {
    FIG13_GRID
        .iter()
        .map(|&(model, batch)| {
            let run = |system: &System| {
                reports
                    .get(&grid_key(KEY_PREFIX, model, batch, system.label()))
                    .clone()
            };
            CompareRow {
                model: model.label().into(),
                batch,
                um: run(&System::Um),
                runs: systems().iter().map(run).collect(),
            }
        })
        .collect()
}

/// Renders the speedup table.
pub fn table(rows: &[CompareRow]) -> Table {
    let headers: Vec<String> = ["model", "batch"]
        .iter()
        .map(|s| s.to_string())
        .chain(systems().iter().map(|s| s.label().to_string()))
        .collect();
    let hdr_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "Fig 13: speedup over naive UM (V100 16GB, TF-based comparison)",
        &hdr_refs,
    );
    for r in rows {
        let mut cells = vec![r.model.clone(), r.batch.to_string()];
        for run in &r.runs {
            let s = match (run, &r.um) {
                (Ok(sys), Ok(um)) => Some(sys.speedup_over(um)),
                _ => None,
            };
            cells.push(ratio(s));
        }
        t.row(cells);
    }
    t
}
