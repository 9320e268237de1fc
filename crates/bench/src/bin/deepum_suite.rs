//! Suite bench and paper renderer: the evaluation grid, serial vs
//! rayon-parallel, with an asserted byte-identity contract, a ratcheted
//! perf baseline, and every paper table rendered from the serial pass.
//!
//! Runs every suite cell (see `deepum_bench::suite`) once on the calling
//! thread and once on the rayon pool, asserts the two passes produce
//! identical report digests cell by cell, and writes `BENCH_suite.json`
//! with suite wall-clock and simulated-kernels/sec for both drivers —
//! the perf-trajectory datapoints next to `BENCH_multitenant.json` and
//! `BENCH_serving.json`.
//!
//! With `--baseline FILE` (CI passes `ci/bench-baseline.json`) the run
//! is gated like the tidy ratchet: a missing file is recorded, an
//! existing one fails the run if any cell's report digest changed (the
//! simulation's output is load-bearing; digests only change with an
//! intentional behaviour change and a re-bless) or if serial suite
//! wall-clock regressed more than 25% over the recorded value.
//!
//! After the gate, every figure and table of the paper's evaluation is
//! rendered from the serial pass's reports (`deepum_bench::paper`), the
//! paper's shape checks are evaluated and compared with their pinned
//! outcomes (a flip fails the run like a hash change), and the marked
//! blocks of EXPERIMENTS.md are rewritten in place.
//!
//! Usage: `deepum_suite [--serial-only] [--out FILE] [--baseline FILE]
//! [--pre-pr-wall SECS]`. `--pre-pr-wall` seeds the pre-rewrite anchor
//! when first recording a baseline; afterwards the anchor is carried in
//! the baseline file itself.

use std::path::{Path, PathBuf};
use std::time::Instant;

use deepum_bench::paper::{self, EXPERIMENTS_MD};
use deepum_bench::shape;
use deepum_bench::suite::{run_cell_report, suite_cells, CellOutcome, Reports, SUITE_ITERS};
use serde::{Deserialize, Serialize};

#[derive(Debug, Serialize, Deserialize)]
struct SuiteBench {
    version: u32,
    iters: usize,
    cells: usize,
    threads: usize,
    serial_wall_secs: f64,
    parallel_wall_secs: Option<f64>,
    /// Serial suite wall-clock before the flat-table hot-path rewrite
    /// (the perf-trajectory anchor), carried from the baseline file.
    pre_pr_serial_wall_secs: Option<f64>,
    speedup_serial_vs_pre_pr: Option<f64>,
    speedup_parallel_vs_pre_pr: Option<f64>,
    simulated_kernels: u64,
    sim_kernels_per_sec_serial: f64,
    sim_kernels_per_sec_parallel: Option<f64>,
    entries: Vec<CellOutcome>,
}

#[derive(Debug, Serialize, Deserialize)]
struct BaselineCell {
    key: String,
    hash: String,
}

#[derive(Debug, Serialize, Deserialize)]
struct SuiteBaseline {
    version: u32,
    pre_pr_serial_wall_secs: f64,
    serial_wall_secs: f64,
    cells: Vec<BaselineCell>,
}

/// Wall-clock regression tolerance over the recorded baseline.
const WALL_REGRESSION_LIMIT: f64 = 1.25;

struct SuiteOpts {
    serial_only: bool,
    out: PathBuf,
    baseline: Option<PathBuf>,
    pre_pr_wall: Option<f64>,
}

fn parse_opts() -> SuiteOpts {
    let mut opts = SuiteOpts {
        serial_only: false,
        out: PathBuf::from("BENCH_suite.json"),
        baseline: None,
        pre_pr_wall: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--serial-only" => opts.serial_only = true,
            "--out" => opts.out = PathBuf::from(value("--out")),
            "--baseline" => opts.baseline = Some(PathBuf::from(value("--baseline"))),
            "--pre-pr-wall" => {
                opts.pre_pr_wall = Some(
                    value("--pre-pr-wall")
                        .parse()
                        .expect("--pre-pr-wall: seconds as float"),
                )
            }
            "--help" | "-h" => {
                eprintln!(
                    "options: --serial-only  --out FILE  --baseline FILE  --pre-pr-wall SECS"
                );
                std::process::exit(0);
            }
            other => panic!("unknown option: {other}"),
        }
    }
    opts
}

fn write_json(path: &Path, body: &str) {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output dir");
        }
    }
    std::fs::write(path, format!("{body}\n")).unwrap_or_else(|e| {
        panic!("write {}: {e}", path.display());
    });
}

fn main() {
    let opts = parse_opts();
    let cells = suite_cells();
    let threads = rayon::current_num_threads();
    println!(
        "deepum_suite: {} cells (iters={SUITE_ITERS}), {} rayon threads",
        cells.len(),
        threads
    );

    // Serial pass, with per-cell progress (the heavy cells take a while);
    // it keeps every report for the paper artifacts.
    let serial_started = Instant::now();
    let mut serial: Vec<CellOutcome> = Vec::with_capacity(cells.len());
    let mut reports = Reports::default();
    for (i, cell) in cells.iter().enumerate() {
        let (outcome, result) = run_cell_report(cell);
        reports.insert(cell.key.clone(), result);
        println!(
            "[serial {}/{}] {} {:.2}s{}",
            i + 1,
            cells.len(),
            outcome.key,
            outcome.wall_secs,
            if outcome.ok { "" } else { " (typed error)" }
        );
        serial.push(outcome);
    }
    let serial_wall = serial_started.elapsed().as_secs_f64();
    let kernels: u64 = serial.iter().map(|o| o.kernels).sum();
    println!(
        "serial: {serial_wall:.1}s wall, {kernels} simulated kernels ({:.0} kernels/s)",
        kernels as f64 / serial_wall.max(1e-9)
    );

    // Parallel pass over the same cells; every digest must match.
    let mut parallel_wall = None;
    if !opts.serial_only {
        let parallel_started = Instant::now();
        let parallel = deepum_bench::suite::run_parallel(&cells);
        let wall = parallel_started.elapsed().as_secs_f64();
        parallel_wall = Some(wall);
        println!(
            "parallel: {wall:.1}s wall on {threads} threads ({:.0} kernels/s)",
            kernels as f64 / wall.max(1e-9)
        );
        let mut mismatches = 0u32;
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.key, p.key, "drivers enumerated different cells");
            if s.hash != p.hash {
                eprintln!(
                    "BYTE-IDENTITY VIOLATION: {} serial={} parallel={}",
                    s.key, s.hash, p.hash
                );
                mismatches += 1;
            }
        }
        if mismatches > 0 {
            eprintln!("{mismatches} cells diverged between serial and parallel drivers");
            std::process::exit(1);
        }
        println!("byte-identity: all {} cell digests match", cells.len());
    }

    // Ratchet gate against the committed baseline.
    let mut pre_pr_wall = opts.pre_pr_wall;
    if let Some(baseline_path) = &opts.baseline {
        match std::fs::read_to_string(baseline_path) {
            Ok(body) => {
                let baseline: SuiteBaseline =
                    serde_json::from_str(&body).expect("parse bench baseline");
                pre_pr_wall = Some(baseline.pre_pr_serial_wall_secs);
                let mut failures = 0u32;
                if baseline.cells.len() != serial.len() {
                    eprintln!(
                        "bench baseline covers {} cells but the suite ran {}; re-bless {}",
                        baseline.cells.len(),
                        serial.len(),
                        baseline_path.display()
                    );
                    failures += 1;
                }
                for (b, s) in baseline.cells.iter().zip(&serial) {
                    if b.key != s.key {
                        eprintln!("baseline cell {} vs suite cell {}", b.key, s.key);
                        failures += 1;
                    } else if b.hash != s.hash {
                        eprintln!(
                            "REPORT HASH CHANGED: {} {} -> {} (intentional changes need a re-bless of {})",
                            s.key,
                            b.hash,
                            s.hash,
                            baseline_path.display()
                        );
                        failures += 1;
                    }
                }
                let limit = baseline.serial_wall_secs * WALL_REGRESSION_LIMIT;
                if serial_wall > limit {
                    eprintln!(
                        "suite wall-clock regressed: {serial_wall:.1}s > {limit:.1}s \
                         (baseline {:.1}s + 25%)",
                        baseline.serial_wall_secs
                    );
                    failures += 1;
                }
                if failures > 0 {
                    std::process::exit(1);
                }
                println!(
                    "baseline: hashes unchanged, wall {serial_wall:.1}s within {limit:.1}s budget"
                );
            }
            Err(_) => {
                let baseline = SuiteBaseline {
                    version: 1,
                    pre_pr_serial_wall_secs: pre_pr_wall.unwrap_or(serial_wall),
                    serial_wall_secs: serial_wall,
                    cells: serial
                        .iter()
                        .map(|o| BaselineCell {
                            key: o.key.clone(),
                            hash: o.hash.clone(),
                        })
                        .collect(),
                };
                write_json(
                    baseline_path,
                    &serde_json::to_string_pretty(&baseline).expect("serialize baseline"),
                );
                println!("baseline recorded in {}", baseline_path.display());
            }
        }
    }

    // The paper artifacts, rendered from the serial pass.
    let artifacts = paper::render(&reports);
    for (_, table) in &artifacts.tables {
        table.print();
    }
    for check in &artifacts.checks {
        println!("{}", check.line());
    }
    let flips = shape::flips(&artifacts.checks);
    if !flips.is_empty() {
        for flip in &flips {
            eprintln!("SHAPE CHECK FLIPPED: {flip} (a deliberate change updates shape::PINNED)");
        }
        std::process::exit(1);
    }
    let doc_path = Path::new(EXPERIMENTS_MD);
    let doc = std::fs::read_to_string(doc_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", doc_path.display()));
    std::fs::write(doc_path, paper::splice(&doc, &artifacts.blocks()))
        .unwrap_or_else(|e| panic!("write {}: {e}", doc_path.display()));
    println!(
        "shape checks match their pins; rewrote {}",
        doc_path.display()
    );

    let bench = SuiteBench {
        version: 1,
        iters: SUITE_ITERS,
        cells: cells.len(),
        threads,
        serial_wall_secs: serial_wall,
        parallel_wall_secs: parallel_wall,
        pre_pr_serial_wall_secs: pre_pr_wall,
        speedup_serial_vs_pre_pr: pre_pr_wall.map(|p| p / serial_wall.max(1e-9)),
        speedup_parallel_vs_pre_pr: match (pre_pr_wall, parallel_wall) {
            (Some(p), Some(w)) => Some(p / w.max(1e-9)),
            _ => None,
        },
        simulated_kernels: kernels,
        sim_kernels_per_sec_serial: kernels as f64 / serial_wall.max(1e-9),
        sim_kernels_per_sec_parallel: parallel_wall.map(|w| kernels as f64 / w.max(1e-9)),
        entries: serial,
    };
    write_json(
        &opts.out,
        &serde_json::to_string_pretty(&bench).expect("serialize suite bench"),
    );
    println!("wrote {}", opts.out.display());
}
