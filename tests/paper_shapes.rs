//! The paper's shape checks, the renderers' cell lookups, and the real
//! Table 3/8 outcomes.
//!
//! `deepum_suite` evaluates every shape check on the full grid and fails
//! when an outcome leaves its pin. These tests keep the predicates
//! honest on hand-built rows (each one both holding and not holding),
//! prove every renderer lookup names a suite cell, and evaluate the two
//! checks that need no grid pass — Table 3's max-batch search and
//! Table 8's capability matrix — against their pins.

use deepum_baselines::report::{IterStats, RunError, RunReport};
use deepum_bench::experiments::fig09::Cell;
use deepum_bench::experiments::fig10::AblationRow;
use deepum_bench::experiments::fig11::{DegreeRow, DEGREES};
use deepum_bench::experiments::table03::{self, MaxBatchRow};
use deepum_bench::experiments::table08;
use deepum_bench::paper::{self, EXPERIMENTS_MD};
use deepum_bench::shape::{self, Check, PAPER_TABLE8, PINNED};
use deepum_bench::suite::{suite_cells, Reports};
use deepum_sim::metrics::Counters;
use deepum_sim::time::Ns;

fn pinned(id: &str) -> bool {
    PINNED
        .iter()
        .find(|(p, _)| *p == id)
        .unwrap_or_else(|| panic!("{id} is not pinned"))
        .1
}

/// A two-iteration report whose steady iteration takes `iter_ms`, with
/// `faults` page faults per iteration and `evicted` demand evictions.
fn report(iter_ms: u64, faults: u64, evicted: u64) -> RunReport {
    let iter = IterStats {
        elapsed: Ns::from_millis(iter_ms),
        compute: Ns::from_millis(iter_ms),
        stall: Ns::ZERO,
        counters: Counters {
            gpu_page_faults: faults,
            ..Counters::default()
        },
    };
    RunReport {
        workload: "w".into(),
        system: "s".into(),
        iters: vec![iter, iter],
        total: Ns::from_millis(2 * iter_ms),
        energy_joules: 1.0,
        counters: Counters {
            pages_evicted_demand: evicted,
            ..Counters::default()
        },
        table_bytes: None,
        health: None,
        recovery: None,
        trace: None,
        pressure: None,
        tenants: None,
        serving: None,
        wear: None,
    }
}

fn oom() -> Result<RunReport, RunError> {
    Err(RunError::OutOfMemory("hand-built".into()))
}

fn cell(model: &str, um: RunReport, deepum: RunReport) -> Cell {
    Cell {
        model: model.into(),
        batch: 1,
        um: Ok(um),
        lms: oom(),
        lms_mod: oom(),
        deepum: Ok(deepum),
        ideal: oom(),
    }
}

fn exceptions(check: &Check) -> String {
    check.exceptions.join("; ")
}

#[test]
fn fig09_check_judges_only_cells_where_um_evicts() {
    let faster = cell("gpt2-xl", report(100, 10, 5), report(40, 4, 0));
    let idle = cell("bert-base", report(100, 0, 0), report(100, 0, 0));
    let check = shape::fig09_deepum_beats_um(&[faster.clone(), idle.clone()]);
    assert!(check.holds(), "{}", exceptions(&check));

    let tied = cell("dlrm", report(100, 10, 5), report(100, 10, 0));
    let check = shape::fig09_deepum_beats_um(&[faster, tied]);
    assert!(!check.holds());
    assert_eq!(exceptions(&check), "dlrm/b1 (speedup 1.000)");

    // No evicting cell leaves nothing to judge: that is not a pass.
    assert!(!shape::fig09_deepum_beats_um(&[idle]).holds());
}

#[test]
fn table03_check_wants_a_strictly_larger_deepum_batch() {
    let row = |model: &str, lms, deepum| MaxBatchRow {
        model: model.into(),
        lms,
        deepum,
    };
    let check = shape::table03_deepum_exceeds_lms(&[row("bert-large", 261, 287)]);
    assert!(check.holds());
    let check =
        shape::table03_deepum_exceeds_lms(&[row("bert-large", 261, 287), row("gpt2-l", 51, 51)]);
    assert!(!check.holds());
    assert_eq!(exceptions(&check), "gpt2-l (lms 51, deepum 51)");
}

#[test]
fn table05_check_wants_dlrm_to_keep_the_most_faults() {
    let gpt = cell("gpt2-xl", report(100, 1000, 5), report(50, 300, 0));
    let dlrm = cell("dlrm", report(100, 1000, 0), report(100, 1000, 0));
    let check = shape::table05_dlrm_least_reduction(&[gpt, dlrm.clone()]);
    assert!(check.holds(), "{}", exceptions(&check));

    let stubborn = cell("resnet152", report(100, 1000, 5), report(90, 1000, 0));
    let check = shape::table05_dlrm_least_reduction(&[stubborn, dlrm]);
    assert!(!check.holds());
    assert!(exceptions(&check).starts_with("resnet152/b1 keeps 100.0%"));
}

#[test]
fn fig10_check_wants_strictly_improving_transformer_levels() {
    let row = |model: &str, a, b, c| AblationRow {
        model: model.into(),
        batch: 1,
        prefetch: Some(a),
        preevict: Some(b),
        invalidate: Some(c),
    };
    // CNN rows are outside the claim.
    let rows = [
        row("bert-large", 0.5, 0.4, 0.3),
        row("resnet152", 0.3, 0.4, 0.5),
    ];
    assert!(shape::fig10_levels_monotone(&rows).holds());
    let check = shape::fig10_levels_monotone(&[row("gpt2-l", 0.5, 0.5, 0.3)]);
    assert!(!check.holds());
    assert_eq!(exceptions(&check), "gpt2-l (0.500, 0.500, 0.300)");
}

#[test]
fn fig11_check_wants_an_interior_single_peak() {
    // Steady iteration times per degree; speedup is time(N=8) / time.
    let row = |times: [u64; 10]| DegreeRow {
        model: "gpt2-l".into(),
        batch: 5,
        per_degree: times.iter().map(|&t| Some((t, 1.0))).collect(),
    };
    assert_eq!(DEGREES.len(), 10);
    let u = row([90, 80, 70, 60, 50, 40, 50, 60, 70, 80]);
    assert!(shape::fig11_inverted_u(&[u]).holds());

    let rising = row([90, 80, 70, 60, 50, 40, 30, 20, 10, 5]);
    let check = shape::fig11_inverted_u(&[rising]);
    assert!(!check.holds());
    assert_eq!(exceptions(&check), "gpt2-l peaks at the sweep's end, N=512");

    let w = row([90, 80, 70, 60, 50, 40, 50, 45, 70, 80]);
    let check = shape::fig11_inverted_u(&[w]);
    assert!(!check.holds());
    assert_eq!(
        exceptions(&check),
        "gpt2-l peaks at N=32 but turns at N=128"
    );
}

#[test]
fn table08_check_compares_with_the_paper_matrix() {
    assert!(shape::table08_capability_matrix(&PAPER_TABLE8).holds());
    let mut rows = PAPER_TABLE8.to_vec();
    rows[6].user_script_modification = true;
    rows.remove(0);
    let check = shape::table08_capability_matrix(&rows);
    assert_eq!(
        exceptions(&check),
        "deepum differs from the paper; vdnn missing"
    );
}

#[test]
fn flips_report_outcomes_that_leave_their_pins() {
    let as_pinned: Vec<Check> = PINNED
        .iter()
        .map(|&(id, holds)| Check {
            id,
            claim: "",
            exceptions: if holds { vec![] } else { vec!["x".into()] },
        })
        .collect();
    assert!(shape::flips(&as_pinned).is_empty());
    let mut flipped = as_pinned.clone();
    flipped[0].exceptions = if PINNED[0].1 {
        vec!["x".into()]
    } else {
        vec![]
    };
    flipped.pop();
    let flips = shape::flips(&flipped);
    assert_eq!(flips.len(), 2, "{flips:?}");
    assert!(flips[0].starts_with(PINNED[0].0));
    assert!(flips[1].ends_with("not evaluated"));
}

/// Every suite cell, each recorded as a typed error (no simulation).
fn failed_suite() -> Reports {
    let mut reports = Reports::default();
    for c in suite_cells() {
        reports.insert(c.key, oom());
    }
    reports
}

#[test]
fn every_renderer_lookup_is_a_suite_cell_and_every_block_is_marked() {
    // `Reports::get` panics on a key outside the grid, so rendering over
    // exactly the suite's keys proves every lookup resolves.
    let artifacts = paper::render_with(&failed_suite(), &[], &[]);
    assert_eq!(artifacts.checks.len(), PINNED.len());
    // Failed cells render as `-`, never as numbers.
    let fig13 = &artifacts
        .tables
        .iter()
        .find(|(n, _)| *n == "fig13")
        .unwrap()
        .1;
    assert!(fig13.rows.iter().all(|r| r[2..].iter().all(|c| c == "-")));
    // The committed document marks exactly the rendered blocks.
    let doc = std::fs::read_to_string(EXPERIMENTS_MD).expect("read EXPERIMENTS.md");
    paper::splice(&doc, &artifacts.blocks());
}

#[test]
#[should_panic(expected = "no suite cell bert-large-b16-abl-preevict-i2")]
fn a_missing_cell_panics_with_its_key() {
    let mut reports = Reports::default();
    for c in suite_cells() {
        if c.key != "bert-large-b16-abl-preevict-i2" {
            reports.insert(c.key, oom());
        }
    }
    paper::render_with(&reports, &[], &[]);
}

#[test]
fn real_table03_outcome_matches_its_pin() {
    let check = shape::table03_deepum_exceeds_lms(&table03::rows());
    assert_eq!(check.holds(), pinned("table03-deepum-exceeds-lms"));
    assert_eq!(
        exceptions(&check),
        "gpt2-xl (lms 30, deepum 30); gpt2-l (lms 51, deepum 51)"
    );
}

#[test]
fn real_table08_outcome_matches_its_pin() {
    let check = shape::table08_capability_matrix(&table08::rows());
    assert_eq!(check.holds(), pinned("table08-capability-matrix"));
    assert!(check.holds(), "{}", exceptions(&check));
}
