//! The paper's shape claims as checked predicates over rendered rows.
//!
//! Each check states one claim the way the paper makes it and lists the
//! rows where it does not hold; it holds when that list is empty. The
//! suite evaluates every check on its full pass and fails if any outcome
//! differs from [`PINNED`], the same way it fails on a changed cell
//! hash. A check that does not hold stays pinned as `false` with its
//! exceptions in EXPERIMENTS.md; it is never reworded until it passes.

use deepum_baselines::strategies::Capabilities;

use crate::experiments::fig09::Cell;
use crate::experiments::fig10::AblationRow;
use crate::experiments::fig11::{self, DegreeRow, DEGREES};
use crate::experiments::table03::MaxBatchRow;

/// Every check's expected outcome, by id, in document order.
pub const PINNED: &[(&str, bool)] = &[
    ("fig09-deepum-beats-um", true),
    ("table03-deepum-exceeds-lms", false),
    ("table05-dlrm-least-reduction", true),
    ("fig10-levels-monotone", true),
    ("fig11-inverted-u", false),
    ("table08-capability-matrix", true),
];

/// One evaluated claim.
#[derive(Debug, Clone)]
pub struct Check {
    /// Stable id, as in [`PINNED`].
    pub id: &'static str,
    /// The claim, as the paper states it.
    pub claim: &'static str,
    /// The rows where the claim does not hold.
    pub exceptions: Vec<String>,
}

impl Check {
    /// A check over `judged` rows; one with no row to judge fails
    /// rather than holding vacuously.
    fn over(id: &'static str, claim: &'static str, judged: usize, exceptions: Vec<String>) -> Self {
        let exceptions = if judged == 0 {
            vec!["no row to judge".into()]
        } else {
            exceptions
        };
        Check {
            id,
            claim,
            exceptions,
        }
    }

    /// True when no row contradicts the claim.
    pub fn holds(&self) -> bool {
        self.exceptions.is_empty()
    }

    /// The verdict line EXPERIMENTS.md carries.
    pub fn line(&self) -> String {
        if self.holds() {
            format!("**Checked:** {} — holds.", self.claim)
        } else {
            format!(
                "**Checked:** {} — does not hold: {}.",
                self.claim,
                self.exceptions.join("; ")
            )
        }
    }
}

/// Ids whose outcome differs from [`PINNED`] (or that are missing from
/// either side), each with the outcome found.
pub fn flips(checks: &[Check]) -> Vec<String> {
    let mut out: Vec<String> = checks
        .iter()
        .filter(|c| {
            PINNED
                .iter()
                .all(|&(id, want)| id != c.id || want != c.holds())
        })
        .map(|c| format!("{}: holds={}", c.id, c.holds()))
        .collect();
    for &(id, _) in PINNED {
        if !checks.iter().any(|c| c.id == id) {
            out.push(format!("{id}: not evaluated"));
        }
    }
    out
}

/// Fig. 9: DeepUM is faster than naive UM on every cell where UM evicts
/// (the oversubscribed cells).
pub fn fig09_deepum_beats_um(cells: &[Cell]) -> Check {
    let mut judged = 0;
    let mut exceptions = Vec::new();
    for c in cells {
        let Ok(um) = &c.um else { continue };
        if um.counters.pages_evicted_demand == 0 {
            continue;
        }
        judged += 1;
        match &c.deepum {
            Ok(d) if d.speedup_over(um) > 1.0 => {}
            Ok(d) => exceptions.push(format!(
                "{}/b{} (speedup {:.3})",
                c.model,
                c.batch,
                d.speedup_over(um)
            )),
            Err(_) => exceptions.push(format!("{}/b{} (deepum failed)", c.model, c.batch)),
        }
    }
    Check::over(
        "fig09-deepum-beats-um",
        "DeepUM beats naive UM on every Fig. 9 cell where UM evicts",
        judged,
        exceptions,
    )
}

/// Table 3: DeepUM's maximum batch exceeds LMS's on every model.
pub fn table03_deepum_exceeds_lms(rows: &[MaxBatchRow]) -> Check {
    let exceptions = rows
        .iter()
        .filter(|r| r.deepum <= r.lms)
        .map(|r| format!("{} (lms {}, deepum {})", r.model, r.lms, r.deepum))
        .collect();
    Check::over(
        "table03-deepum-exceeds-lms",
        "DeepUM's maximum batch exceeds LMS's on every model",
        rows.len(),
        exceptions,
    )
}

/// Table 5: DLRM keeps the largest share of UM's faults, i.e. every
/// DLRM row's fault reduction is smaller than every other row's.
pub fn table05_dlrm_least_reduction(cells: &[Cell]) -> Check {
    // Share of UM's steady faults DeepUM keeps, per row where UM faults.
    let kept: Vec<(&Cell, f64)> = cells
        .iter()
        .filter_map(|c| match (&c.um, &c.deepum) {
            (Ok(u), Ok(d)) if u.steady_faults_per_iter() > 0 => Some((
                c,
                d.steady_faults_per_iter() as f64 / u.steady_faults_per_iter() as f64,
            )),
            _ => None,
        })
        .collect();
    let is_dlrm = |c: &Cell| c.model == "dlrm";
    let dlrm_min = kept
        .iter()
        .filter(|(c, _)| is_dlrm(c))
        .map(|&(_, k)| k)
        .fold(f64::INFINITY, f64::min);
    let dlrm_rows = kept.iter().filter(|(c, _)| is_dlrm(c)).count();
    let exceptions = kept
        .iter()
        .filter(|&&(c, k)| !is_dlrm(c) && k >= dlrm_min)
        .map(|(c, k)| {
            format!(
                "{}/b{} keeps {:.1}% (dlrm keeps at least {:.1}%)",
                c.model,
                c.batch,
                100.0 * k,
                100.0 * dlrm_min
            )
        })
        .collect();
    Check::over(
        "table05-dlrm-least-reduction",
        "DLRM has the smallest fault reduction",
        dlrm_rows,
        exceptions,
    )
}

/// Fig. 10: on the transformer rows, each added optimization level is
/// faster than the one before (prefetch > +preevict > +invalidate in
/// normalized runtime).
pub fn fig10_levels_monotone(rows: &[AblationRow]) -> Check {
    let transformers: Vec<&AblationRow> = rows
        .iter()
        .filter(|r| r.model.starts_with("gpt2") || r.model.starts_with("bert"))
        .collect();
    let exceptions = transformers
        .iter()
        .filter_map(|r| match (r.prefetch, r.preevict, r.invalidate) {
            (Some(a), Some(b), Some(c)) if a > b && b > c => None,
            (Some(a), Some(b), Some(c)) => Some(format!("{} ({a:.3}, {b:.3}, {c:.3})", r.model)),
            _ => Some(format!("{} (a level failed)", r.model)),
        })
        .collect();
    Check::over(
        "fig10-levels-monotone",
        "each Fig. 10 level improves on the one before on every transformer",
        transformers.len(),
        exceptions,
    )
}

/// Fig. 11: speedup over N forms an inverted U: it rises to a peak at
/// an interior degree and falls after it.
pub fn fig11_inverted_u(rows: &[DegreeRow]) -> Check {
    let mut exceptions = Vec::new();
    for r in rows {
        let Some(s) = fig11::speedups(r).into_iter().collect::<Option<Vec<f64>>>() else {
            exceptions.push(format!("{} (a degree failed)", r.model));
            continue;
        };
        let peak = (0..s.len()).fold(0, |p, i| if s[i] > s[p] { i } else { p });
        if peak == 0 || peak == s.len() - 1 {
            exceptions.push(format!(
                "{} peaks at the sweep's end, N={}",
                r.model, DEGREES[peak]
            ));
        }
        let breaks: Vec<String> = (1..s.len())
            .filter(|&i| {
                if i <= peak {
                    s[i] < s[i - 1]
                } else {
                    s[i] > s[i - 1]
                }
            })
            .map(|i| format!("N={}", DEGREES[i]))
            .collect();
        if !breaks.is_empty() {
            exceptions.push(format!(
                "{} peaks at N={} but turns at {}",
                r.model,
                DEGREES[peak],
                breaks.join(", ")
            ));
        }
    }
    Check::over(
        "fig11-inverted-u",
        "speedup over N forms an inverted U with an interior peak",
        rows.len(),
        exceptions,
    )
}

/// Table 8 as the paper prints it: base framework (empty = built from
/// the ground up), framework modification, user-script modification,
/// runtime profiling.
pub const PAPER_TABLE8: [Capabilities; 7] = [
    caps("vdnn", "", true, true, false),
    caps("lms", "PyTorch", true, false, true),
    caps("autotm", "nGraph", true, false, false),
    caps("capuchin", "TensorFlow", true, false, true),
    caps("swapadvisor", "MXNet", true, true, false),
    caps("sentinel", "TensorFlow", true, true, true),
    caps("deepum", "PyTorch", true, false, true),
];

const fn caps(
    name: &'static str,
    base_framework: &'static str,
    framework_modification: bool,
    user_script_modification: bool,
    runtime_profiling: bool,
) -> Capabilities {
    Capabilities {
        name,
        base_framework,
        framework_modification,
        user_script_modification,
        runtime_profiling,
    }
}

/// Table 8: the rendered capability rows equal the paper's matrix.
pub fn table08_capability_matrix(rows: &[Capabilities]) -> Check {
    let mut exceptions: Vec<String> = rows
        .iter()
        .filter(|r| !PAPER_TABLE8.contains(r))
        .map(|r| format!("{} differs from the paper", r.name))
        .collect();
    exceptions.extend(
        PAPER_TABLE8
            .iter()
            .filter(|p| !rows.iter().any(|r| r.name == p.name))
            .map(|p| format!("{} missing", p.name)),
    );
    Check::over(
        "table08-capability-matrix",
        "Table 8 equals the paper's capability matrix",
        rows.len(),
        exceptions,
    )
}
