//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (Section 6) from one pass over the suite grid.
//!
//! `deepum_suite` runs every grid cell (`suite`), gates the report
//! digests against `ci/bench-baseline.json`, and renders each paper
//! artifact from the kept reports by cell key (`paper`), rewriting the
//! marked blocks of EXPERIMENTS.md:
//!
//! | Module                  | Paper artifact                             |
//! |-------------------------|--------------------------------------------|
//! | `experiments::fig09`    | Fig. 9(a) speedups, 9(b) elapsed times, 9(c) energy; Tables 4 and 5 |
//! | `experiments::table03`  | Table 3 maximum batch sizes (LMS vs DeepUM) |
//! | `experiments::fig10`    | Fig. 10 optimization ablation               |
//! | `experiments::fig11`    | Fig. 11 prefetch-degree sensitivity         |
//! | `experiments::fig12`    | Table 6 + Fig. 12 block-table geometry      |
//! | `experiments::fig13`    | Fig. 13 TensorFlow-based comparison         |
//! | `experiments::table07`  | Table 7 max batches vs TF-based systems     |
//! | `experiments::table08`  | Table 8 qualitative capability matrix       |
//!
//! The paper's shape claims are checked predicates over the rendered
//! rows (`shape`), pinned so that a flipped outcome fails the suite.
//!
//! Criterion microbenchmarks (`benches/`) cover the hot data structures:
//! correlation-table updates and chaining, the classic pair-based
//! prefetcher, SPSC queue throughput, fault grouping, page-mask algebra,
//! and the caching allocator's alloc/free churn.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod grids;
pub mod paper;
pub mod shape;
pub mod suite;
pub mod systems;
pub mod table;

pub use systems::System;
pub use table::Table;
