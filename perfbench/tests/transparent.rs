//! The timing adapter must be invisible to the simulation: a run through
//! `Timed<B>` produces the same report bytes as `run_system`, including
//! the sections that only appear through defaulted trait methods
//! (health, recovery, pressure, wear).

use deepum_baselines::executor::um::{run_um, UmRunConfig};
use deepum_baselines::naive::NaiveUm;
use deepum_baselines::suite::{run_system, RunParams, System};
use deepum_bench::suite::report_json;
use deepum_core::config::DeepumConfig;
use deepum_core::driver::DeepumDriver;
use deepum_perfbench::adapter::Timed;
use deepum_sim::costs::CostModel;
use deepum_sim::faultinject::InjectionPlan;
use deepum_torch::models::ModelKind;
use deepum_torch::perf::PerfModel;

fn params(plan: InjectionPlan, checkpoint_every: Option<u64>) -> RunParams {
    RunParams {
        costs: CostModel::v100_32gb()
            .with_device_memory(48 << 20)
            .with_host_memory(8 << 30),
        perf: PerfModel::v100(),
        iters: 2,
        seed: 0x5eed,
        plan,
        checkpoint_every,
        tracer: None,
    }
}

/// The `UmRunConfig` `run_system` builds from `params`.
fn cfg(p: &RunParams) -> UmRunConfig {
    UmRunConfig {
        iterations: p.iters,
        costs: p.costs.clone(),
        perf: p.perf.clone(),
        seed: p.seed,
        plan: p.plan.clone(),
        validate_after_drain: false,
        checkpoint_every: p.checkpoint_every,
        tracer: None,
    }
}

fn assert_transparent(p: &RunParams, dcfg: DeepumConfig) {
    let w = ModelKind::MobileNet.build(48);

    let bare = report_json(&run_system(&System::Um, &w, p));
    let mut um = Timed::new(NaiveUm::new(p.costs.clone()));
    let timed = report_json(&run_um(&w, &mut um, "um", &cfg(p), |b| {
        b.inner().counters()
    }));
    assert_eq!(bare, timed, "UM report changed behind the adapter");
    assert!(um.span(0).calls() > 0, "handle_faults was not timed");

    let bare = report_json(&run_system(&System::DeepUm(dcfg.clone()), &w, p));
    let mut dm = Timed::new(DeepumDriver::new(p.costs.clone(), dcfg));
    let mut result = run_um(&w, &mut dm, "deepum", &cfg(p), |b| b.inner().counters());
    if let Ok(r) = &mut result {
        r.table_bytes = Some(dm.inner().table_memory_bytes() as u64);
    }
    assert_eq!(
        bare,
        report_json(&result),
        "DeepUM report changed behind the adapter"
    );
    assert!(dm.resident_miss_calls() > 0);
    for i in 0..deepum_perfbench::adapter::METHODS.len() {
        assert!(
            dm.span(i).calls() > 0,
            "{} was not timed",
            deepum_perfbench::adapter::METHODS[i]
        );
    }
    assert!(dm.backend_ns() > 0);
}

#[test]
fn clean_mobilenet_reports_are_byte_identical() {
    assert_transparent(
        &params(InjectionPlan::default(), None),
        DeepumConfig::default(),
    );
}

#[test]
fn chaos_sections_survive_the_adapter() {
    // Injected faults and the watchdog (health), hard faults with
    // checkpoints (snapshot, restore, resident pages), page retirement
    // (wear) and the pressure governor (pressure) each surface through a
    // defaulted method.
    let plan = InjectionPlan {
        seed: 13,
        dma_h2d_fail_rate: 0.05,
        device_reset_at: vec![7],
        driver_crash_at: vec![23],
        retire_pages_at: vec![5, 9],
        ..InjectionPlan::default()
    };
    let p = params(plan, Some(8));
    let w = ModelKind::MobileNet.build(48);
    let dcfg = DeepumConfig::default()
        .with_pressure_governor(8, 4, 5, 15)
        .with_watchdog(2, 1, 60, 2);
    let report = run_system(&System::DeepUm(dcfg.clone()), &w, &p).expect("chaos run completes");
    let health = report
        .health
        .as_ref()
        .expect("plan produces a health section");
    assert!(
        !health.backend.watchdog_transitions.is_empty(),
        "the watchdog must act, so a dropped health() shows"
    );
    assert!(
        report.recovery.is_some(),
        "plan produces a recovery section"
    );
    assert!(
        report.pressure.is_some(),
        "governor produces a pressure section"
    );
    assert!(report.wear.is_some(), "retirement produces a wear section");
    assert_transparent(&p, dcfg);
}
