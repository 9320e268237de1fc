//! The paper's evaluation, rendered from one suite pass into the marked
//! blocks of EXPERIMENTS.md.
//!
//! Every table and shape check has a block named after it, delimited in
//! the document by `<!-- suite:NAME -->` and `<!-- /suite:NAME -->`
//! lines. [`splice`] rewrites only what lies between those lines, so the
//! prose around them is hand-written and the numbers never are.

use crate::experiments::{fig09, fig10, fig11, fig12, fig13, table03, table07, table08};
use crate::shape::{self, Check};
use crate::suite::Reports;
use crate::table::Table;

/// Path of the document the suite rewrites.
pub const EXPERIMENTS_MD: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");

/// Every rendered table and evaluated check of one suite pass.
#[derive(Debug)]
pub struct Artifacts {
    /// Tables by block name, in document order.
    pub tables: Vec<(&'static str, Table)>,
    /// Shape checks, in [`shape::PINNED`] order.
    pub checks: Vec<Check>,
}

impl Artifacts {
    /// The document blocks: `(name, body)`, tables as `text` fences and
    /// checks as their verdict line under `check:ID`.
    pub fn blocks(&self) -> Vec<(String, String)> {
        let tables = self
            .tables
            .iter()
            .map(|(name, t)| (name.to_string(), format!("```text\n{}```\n", t.render())));
        let checks = self
            .checks
            .iter()
            .map(|c| (format!("check:{}", c.id), format!("{}\n", c.line())));
        tables.chain(checks).collect()
    }
}

/// Renders everything: the grid artifacts from `reports`, plus the
/// Table 3/7 max-batch searches, which simulate their own probes.
pub fn render(reports: &Reports) -> Artifacts {
    render_with(reports, &table03::rows(), &table07::rows())
}

/// [`render`] with the max-batch rows supplied by the caller.
pub fn render_with(
    reports: &Reports,
    t3: &[table03::MaxBatchRow],
    t7: &[table07::TfMaxBatchRow],
) -> Artifacts {
    let f9 = fig09::cells(reports);
    let f10 = fig10::rows(reports);
    let f11 = fig11::rows(reports);
    let f12 = fig12::rows(reports);
    let f13 = fig13::rows(reports);
    Artifacts {
        tables: vec![
            ("fig09a", fig09::table_speedup(&f9)),
            ("fig09b", fig09::table_elapsed(&f9)),
            ("fig09c", fig09::table_energy(&f9)),
            ("table03", table03::table(t3)),
            ("table04", fig09::table_table_size(&f9)),
            ("table05", fig09::table_faults(&f9)),
            ("fig10", fig10::table(&f10)),
            ("fig11a", fig11::table_speedup(&f11)),
            ("fig11b", fig11::table_energy(&f11)),
            ("table06", fig12::table_configs()),
            ("fig12", fig12::table(&f12)),
            ("fig13", fig13::table(&f13)),
            ("table07", table07::table(t7)),
            ("table08", table08::table()),
        ],
        checks: vec![
            shape::fig09_deepum_beats_um(&f9),
            shape::table03_deepum_exceeds_lms(t3),
            shape::table05_dlrm_least_reduction(&f9),
            shape::fig10_levels_monotone(&f10),
            shape::fig11_inverted_u(&f11),
            shape::table08_capability_matrix(&table08::rows()),
        ],
    }
}

/// Replaces the body of every named block in `doc`.
///
/// # Panics
///
/// Panics when a block's markers are missing or repeated, or when the
/// document marks a block that `blocks` does not render: a stale marker
/// would otherwise keep stale numbers.
pub fn splice(doc: &str, blocks: &[(String, String)]) -> String {
    let mut out = doc.to_string();
    for (name, body) in blocks {
        let open = format!("<!-- suite:{name} -->\n");
        let close = format!("<!-- /suite:{name} -->");
        assert_eq!(out.matches(&open).count(), 1, "marker {open:?}");
        assert_eq!(out.matches(&close).count(), 1, "marker {close:?}");
        let start = out.find(&open).expect("counted above") + open.len();
        let end = out.find(&close).expect("counted above");
        assert!(start <= end, "block {name} closes before it opens");
        out.replace_range(start..end, body);
    }
    assert_eq!(
        out.matches("<!-- suite:").count(),
        blocks.len(),
        "the document marks a block the suite does not render"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(name: &str, body: &str) -> (String, String) {
        (name.to_string(), body.to_string())
    }

    #[test]
    fn splice_rewrites_only_marked_bodies() {
        let doc = "intro\n<!-- suite:a -->\nold\n<!-- /suite:a -->\nprose\n";
        let out = splice(doc, &[block("a", "new\n")]);
        assert_eq!(
            out,
            "intro\n<!-- suite:a -->\nnew\n<!-- /suite:a -->\nprose\n"
        );
        assert_eq!(splice(&out, &[block("a", "new\n")]), out);
    }

    #[test]
    #[should_panic(expected = "suite:b")]
    fn splice_rejects_a_missing_block() {
        splice("<!-- suite:a -->\n<!-- /suite:a -->\n", &[block("b", "")]);
    }

    #[test]
    #[should_panic(expected = "does not render")]
    fn splice_rejects_a_stale_marker() {
        let doc = "<!-- suite:a -->\n<!-- /suite:a -->\n<!-- suite:b -->\n<!-- /suite:b -->\n";
        splice(doc, &[block("a", "")]);
    }
}
