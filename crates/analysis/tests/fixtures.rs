//! Fixture round-trip: every lint must catch its `fail/` fixture and
//! stay quiet on the matching `pass/` fixture — and the live workspace
//! must be clean.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use deepum_analysis::baseline::Baseline;
use deepum_analysis::{
    analyze_source, analyze_tree, analyze_workspace, Config, InputFile, Violation, WorkspaceInput,
};

fn fixture(kind: &str, name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(kind)
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn lints_hit(violations: &[Violation]) -> BTreeSet<String> {
    violations.iter().map(|v| v.lint.clone()).collect()
}

/// (fixture stem, synthetic workspace path it is analyzed as, lint that
/// the fail fixture must trigger).
///
/// The synthetic paths put each fixture in a crate/file where its lint
/// is in scope; `pass/` twins are analyzed at the same path.
const CASES: &[(&str, &str, &str)] = &[
    (
        "determinism_container.rs",
        "crates/core/src/fixture.rs",
        "determinism-container",
    ),
    (
        "determinism_wallclock.rs",
        "crates/sim/src/fixture.rs",
        "determinism-wallclock",
    ),
    ("panic_safety.rs", "crates/um/src/driver.rs", "panic-safety"),
    (
        "snapshot_panic.rs",
        "crates/um/src/snapshot.rs",
        "panic-safety",
    ),
    (
        "recovery_panic.rs",
        "crates/core/src/recovery.rs",
        "panic-safety",
    ),
    ("ckpt_panic.rs", "crates/core/src/ckpt.rs", "panic-safety"),
    (
        "ckpt_container.rs",
        "crates/core/src/ckpt.rs",
        "determinism-container",
    ),
    ("wear_panic.rs", "crates/um/src/wear.rs", "panic-safety"),
    (
        "wear_hot_alloc.rs",
        "crates/um/src/wear.rs",
        "hot-path-alloc",
    ),
    (
        "pressure_panic.rs",
        "crates/um/src/pressure.rs",
        "panic-safety",
    ),
    (
        "sched_panic.rs",
        "crates/sched/src/scheduler.rs",
        "panic-safety",
    ),
    (
        "sched_container.rs",
        "crates/sched/src/fixture.rs",
        "determinism-container",
    ),
    (
        "serve_panic.rs",
        "crates/serve/src/endpoint.rs",
        "panic-safety",
    ),
    (
        "serve_container.rs",
        "crates/serve/src/fixture.rs",
        "determinism-container",
    ),
    ("cast_safety.rs", "crates/mem/src/fixture.rs", "cast-safety"),
    (
        "trace_determinism.rs",
        "crates/trace/src/fixture.rs",
        "trace-determinism",
    ),
    ("unsafe_attr.rs", "crates/um/src/lib.rs", "unsafe-attr"),
    (
        "suppression_hygiene.rs",
        "crates/runtime/src/fixture.rs",
        "suppression-hygiene",
    ),
    (
        "result_discard.rs",
        "crates/core/src/fixture.rs",
        "result-discard",
    ),
    (
        "hot_path_alloc.rs",
        "crates/gpu/src/engine.rs",
        "hot-path-alloc",
    ),
];

/// Workspace-pass fixtures: analyzed through [`analyze_workspace`] with
/// one committed golden trace covering the `KernelRetire` event, since
/// these lints look across files rather than at single lines.
const WORKSPACE_CASES: &[(&str, &str, &str)] = &[
    (
        "schema_version.rs",
        "crates/um/src/snapshot.rs",
        "schema-version-discipline",
    ),
    (
        "event_vocabulary.rs",
        "crates/trace/src/event.rs",
        "event-vocabulary-coverage",
    ),
    (
        "report_section.rs",
        "crates/baselines/src/report.rs",
        "report-section-convention",
    ),
];

fn analyze_fixture_workspace(
    kind: &str,
    file: &str,
    as_path: &str,
    cfg: &Config,
) -> Vec<Violation> {
    let input = WorkspaceInput {
        files: vec![InputFile {
            rel_path: as_path.to_string(),
            source: fixture(kind, file),
        }],
        golden_traces: vec![InputFile {
            rel_path: "tests/golden/fixture.jsonl".to_string(),
            source: "{\"t\":0,\"event\":{\"kind\":\"KernelRetire\",\"seq\":1}}\n".to_string(),
        }],
    };
    analyze_workspace(&input, cfg)
}

#[test]
fn fail_fixtures_are_caught() {
    let cfg = Config::all();
    for (file, as_path, lint) in CASES {
        let src = fixture("fail", file);
        let violations = analyze_source(as_path, &src, &cfg);
        assert!(
            lints_hit(&violations).contains(*lint),
            "fail/{file} analyzed as {as_path} should trigger {lint}, got: {violations:?}"
        );
    }
}

#[test]
fn pass_fixtures_are_clean() {
    let cfg = Config::all();
    for (file, as_path, _lint) in CASES {
        let src = fixture("pass", file);
        let violations = analyze_source(as_path, &src, &cfg);
        assert!(
            violations.is_empty(),
            "pass/{file} analyzed as {as_path} should be clean, got: {violations:?}"
        );
    }
}

#[test]
fn fail_fixtures_are_quiet_when_their_lint_is_skipped() {
    for (file, as_path, lint) in CASES {
        // suppression-hygiene violations in this fixture set stem from
        // suppressions of *other* lints, so skipping has no effect there.
        if *lint == "suppression-hygiene" {
            continue;
        }
        let cfg = Config::all()
            .skip(&[(*lint).to_string()])
            .expect("known lint id");
        let src = fixture("fail", file);
        let violations = analyze_source(as_path, &src, &cfg);
        assert!(
            !lints_hit(&violations).contains(*lint),
            "fail/{file} with {lint} skipped should not report it, got: {violations:?}"
        );
    }
}

#[test]
fn workspace_fail_fixtures_are_caught() {
    let cfg = Config::all();
    for (file, as_path, lint) in WORKSPACE_CASES {
        let violations = analyze_fixture_workspace("fail", file, as_path, &cfg);
        assert!(
            lints_hit(&violations).contains(*lint),
            "fail/{file} analyzed as {as_path} should trigger {lint}, got: {violations:?}"
        );
    }
}

#[test]
fn workspace_pass_fixtures_are_clean() {
    let cfg = Config::all();
    for (file, as_path, _lint) in WORKSPACE_CASES {
        let violations = analyze_fixture_workspace("pass", file, as_path, &cfg);
        assert!(
            violations.is_empty(),
            "pass/{file} analyzed as {as_path} should be clean, got: {violations:?}"
        );
    }
}

#[test]
fn workspace_fail_fixtures_are_quiet_when_their_lint_is_skipped() {
    for (file, as_path, lint) in WORKSPACE_CASES {
        let cfg = Config::all()
            .skip(&[(*lint).to_string()])
            .expect("known lint id");
        let violations = analyze_fixture_workspace("fail", file, as_path, &cfg);
        assert!(
            !lints_hit(&violations).contains(*lint),
            "fail/{file} with {lint} skipped should not report it, got: {violations:?}"
        );
    }
}

/// The wall-clock exemption follows the package: `Instant::now` in the
/// standalone `perfbench` package passes, and the same line in a
/// simulation crate still fails.
#[test]
fn wallclock_exemption_covers_perfbench() {
    let cfg = Config::all();
    let file = "perfbench_wallclock.rs";
    let as_path = "perfbench/src/fixture.rs";
    let violations = analyze_source(as_path, &fixture("pass", file), &cfg);
    assert!(
        violations.is_empty(),
        "pass/{file} analyzed as {as_path} should be clean, got: {violations:?}"
    );
    let as_path = "crates/sched/src/fixture.rs";
    let violations = analyze_source(as_path, &fixture("fail", file), &cfg);
    assert!(
        lints_hit(&violations).contains("determinism-wallclock"),
        "fail/{file} analyzed as {as_path} should trigger determinism-wallclock, got: {violations:?}"
    );
}

/// The live workspace must be clean modulo the committed ratchet
/// baseline — and the baseline itself must be tight: a stale entry
/// (fixed violations still grandfathered) fails here too, enforcing the
/// ratchet in both directions from tier-1.
#[test]
fn live_workspace_is_clean_modulo_baseline() {
    let root: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let violations = analyze_tree(&root, &Config::all()).expect("workspace scan succeeds");
    let baseline_path = root.join("ci/tidy-baseline.json");
    let baseline_src = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", baseline_path.display()));
    let baseline = Baseline::parse(&baseline_src).expect("committed baseline parses");
    let violations = baseline.apply(violations);
    assert!(
        violations.is_empty(),
        "the workspace must be deepum-tidy clean modulo ci/tidy-baseline.json:\n{}",
        deepum_analysis::render_human(&violations)
    );
}
