//! The four benchmark workloads: set-up, one timed pass, and the checks
//! on every simulated output.
//!
//! A pass is one user-visible run: both systems of a training cell, one
//! whole multi-tenant simulation, or one serving simulation per request
//! stream. Set-up (building programs, specs and drivers) is timed
//! separately and kept out of the pass, so work moved from one into the
//! other shows.

use std::collections::BTreeMap;
use std::time::Instant;

use deepum_baselines::executor::um::{run_um, UmRunConfig};
use deepum_baselines::naive::NaiveUm;
use deepum_baselines::report::{RunError, RunReport};
use deepum_bench::suite::{digest, report_json, SUITE_ITERS, SUITE_SEED};
use deepum_core::config::DeepumConfig;
use deepum_core::driver::DeepumDriver;
use deepum_gpu::engine::UmBackend;
use deepum_runtime::interpose::LaunchObserver;
use deepum_sched::scheduler::MultiTenant;
use deepum_sched::spec::{JobKind, TenantSpec};
use deepum_serve::{EndpointSpec, LadderConfig, LoadCurve, ServeSim, ServeSpec};
use deepum_sim::costs::CostModel;
use deepum_sim::metrics::Counters;
use deepum_sim::time::Ns;
use deepum_torch::models::ModelKind;
use deepum_torch::perf::PerfModel;
use deepum_torch::step::Workload as Program;

use crate::adapter::{Timed, METHODS};
use crate::metrics::Values;

/// Serving cycles of `serve-colocated`.
pub const SERVE_CYCLES: u64 = 1024;
/// Request streams (seeds) `serve-colocated` serves per pass. Request
/// lengths decide which ladder regime a run settles into, so one
/// stream's simulated and host figures move 10-20% from seed to seed;
/// a pass averages several.
pub const SERVE_STREAMS: u64 = 4;
/// Endpoints of `serve-colocated`.
pub const SERVE_ENDPOINTS: usize = 4;
/// Tenants of `tenants8-train`.
pub const TENANTS: usize = 8;
/// Training iterations per tenant of `tenants8-train`.
pub const TENANT_ITERS: usize = 48;

/// Value reported for an end-to-end metric a workload does not define,
/// so that no metric is ever 0 (see `NOTES.md`).
pub const NOT_APPLICABLE: f64 = 1.0;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// GPT-2 XL b5 on V100-32GB under UM, then DeepUM.
    Gpt2xlOversub,
    /// DLRM b128000 under UM, then DeepUM.
    DlrmFit,
    /// Four serving endpoints plus a training bystander, ladder on.
    ServeColocated,
    /// Eight MobileNet training tenants with floors.
    Tenants8Train,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [
        Kind::Gpt2xlOversub,
        Kind::DlrmFit,
        Kind::ServeColocated,
        Kind::Tenants8Train,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Gpt2xlOversub => "gpt2xl-oversub",
            Kind::DlrmFit => "dlrm-fit",
            Kind::ServeColocated => "serve-colocated",
            Kind::Tenants8Train => "tenants8-train",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Model and batch of a training cell.
    fn cell(self) -> Option<(ModelKind, usize)> {
        match self {
            Kind::Gpt2xlOversub => Some((ModelKind::Gpt2Xl, 5)),
            Kind::DlrmFit => Some((ModelKind::Dlrm, 128_000)),
            _ => None,
        }
    }
}

/// Suite-cell key of a training cell under `system` (the hash key in
/// `ci/bench-baseline.json`).
fn cell_key(model: ModelKind, batch: usize, system: &str) -> String {
    format!("{}-b{batch}-{system}-i{SUITE_ITERS}", model.label())
}

/// Everything a pass needs, built before the pass is timed. Only one
/// exists at a time, so the large training variant is not boxed.
#[allow(clippy::large_enum_variant)]
pub enum Setup {
    /// A training cell: one program, both drivers.
    Training {
        /// The step program both systems replay.
        program: Program,
        /// Run configuration (the suite's, at the workload seed).
        cfg: UmRunConfig,
        /// Naive UM driver.
        um: NaiveUm,
        /// DeepUM driver.
        deepum: DeepumDriver,
        /// Cell keys `(um, deepum)`.
        keys: (String, String),
    },
    /// One serving simulation per request stream.
    Serve(Vec<ServeSim>),
    /// A multi-tenant schedule.
    Tenants(MultiTenant),
}

/// A built set-up and how long its parts took.
pub struct Built {
    /// The inputs of one pass.
    pub setup: Setup,
    /// Host seconds for the whole set-up.
    pub setup_s: f64,
    /// Host seconds spent building model programs inside it.
    pub build_s: f64,
}

fn costs_for(device_bytes: u64) -> CostModel {
    CostModel::v100_32gb()
        .with_device_memory(device_bytes)
        .with_host_memory(8 << 30)
}

fn mobilenet_peak_pages(build_s: &mut f64) -> u64 {
    let t = Instant::now();
    let peak = ModelKind::MobileNet.build(4).peak_bytes();
    *build_s += t.elapsed().as_secs_f64();
    peak.div_ceil(deepum_mem::PAGE_SIZE as u64)
}

/// The `deepum_mtbench --serve` endpoint spec on a 48 MB device, plus a
/// floorless training bystander, serving the request stream `seed`.
fn serve_sim(seed: u64) -> ServeSim {
    let mut spec = ServeSpec::new()
        .cycles(SERVE_CYCLES)
        .load(LoadCurve::new(4).period(8).burst(8, 8, 2))
        .seed(seed)
        .ladder(Some(LadderConfig::default()))
        .bystander(
            TenantSpec::new(
                "bystander",
                JobKind::Training {
                    model: ModelKind::MobileNet,
                    batch: 4,
                    iterations: 2,
                },
            )
            .seed(seed),
        );
    for idx in 0..SERVE_ENDPOINTS {
        spec = spec.endpoint(
            EndpointSpec::new(format!("ep-{idx}"))
                .weights(16 << 20)
                .layers(4)
                .kv_per_token(128 << 10)
                .tokens(4, 12)
                .deadline(Ns::from_millis(10)),
        );
    }
    ServeSim::new(costs_for(48 << 20), PerfModel::v100(), spec)
}

/// Builds the inputs of one pass of `kind` at `seed`.
pub fn setup(kind: Kind, seed: u64) -> Built {
    let started = Instant::now();
    let mut build_s = 0.0;
    let setup = match kind {
        Kind::Gpt2xlOversub | Kind::DlrmFit => {
            let (model, batch) = kind.cell().expect("training workload");
            let t = Instant::now();
            let program = model.build(batch);
            build_s += t.elapsed().as_secs_f64();
            let mut cfg = UmRunConfig::new(SUITE_ITERS);
            cfg.seed = seed;
            let um = NaiveUm::new(cfg.costs.clone());
            let deepum = DeepumDriver::new(cfg.costs.clone(), DeepumConfig::default());
            Setup::Training {
                program,
                cfg,
                um,
                deepum,
                keys: (
                    cell_key(model, batch, "um"),
                    cell_key(model, batch, "deepum"),
                ),
            }
        }
        Kind::ServeColocated => Setup::Serve(
            (0..SERVE_STREAMS)
                .map(|k| serve_sim(seed.wrapping_mul(SERVE_STREAMS).wrapping_add(k)))
                .collect(),
        ),
        Kind::Tenants8Train => {
            // The `deepum_mtbench` tenant mix: every floor fits, the
            // combined working set does not.
            let peak = mobilenet_peak_pages(&mut build_s);
            let floor = peak / 4;
            let device = (floor * TENANTS as u64 + peak / 2) * deepum_mem::PAGE_SIZE as u64;
            let mut mt = MultiTenant::new(costs_for(device), PerfModel::v100());
            for idx in 0..TENANTS {
                mt = mt.tenant(
                    TenantSpec::new(
                        format!("bench-t{idx}"),
                        JobKind::Training {
                            model: ModelKind::MobileNet,
                            batch: 4,
                            iterations: TENANT_ITERS,
                        },
                    )
                    .floor_pages(floor)
                    .seed(seed.wrapping_add(idx as u64)),
                );
            }
            Setup::Tenants(mt)
        }
    };
    Built {
        setup,
        setup_s: started.elapsed().as_secs_f64(),
        build_s,
    }
}

/// The outcome of one timed pass.
#[derive(Default)]
pub struct Pass {
    /// Host seconds of the pass (set-up excluded).
    pub wall_s: f64,
    /// Simulated kernels launched in the pass.
    pub kernels: u64,
    /// Report digest per simulated run, keyed by label.
    pub digests: BTreeMap<String, String>,
    /// Checked operations: simulated runs, tenants and requests.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// What failed, for the log.
    pub failures: Vec<String>,
    /// End-to-end simulated metrics (host metrics are added by the
    /// caller).
    pub sim: Values,
    /// Per-layer metrics.
    pub layer: Values,
}

impl Pass {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }
}

/// Checks the blessed digests are met when they apply.
pub struct Blessed {
    /// `(cell key, hash)` pairs from `ci/bench-baseline.json`.
    hashes: Vec<(String, String)>,
}

impl Blessed {
    /// Extracts every `key`/`hash` pair from the baseline file's text.
    pub fn parse(text: &str) -> Blessed {
        let mut hashes = Vec::new();
        let mut rest = text;
        while let Some(at) = rest.find("\"key\"") {
            rest = &rest[at + 5..];
            let Some(key) = next_string(rest) else { break };
            let Some(h) = rest.find("\"hash\"") else {
                break;
            };
            let Some(hash) = next_string(&rest[h + 6..]) else {
                break;
            };
            hashes.push((key.to_string(), hash.to_string()));
        }
        Blessed { hashes }
    }

    /// The blessed hash of `key`, if any.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.hashes
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, h)| h.as_str())
    }
}

/// The first JSON string after a `:` in `s`.
fn next_string(s: &str) -> Option<&str> {
    let colon = s.find(':')?;
    let s = &s[colon + 1..];
    let open = s.find('"')?;
    let s = &s[open + 1..];
    let close = s.find('"')?;
    Some(&s[..close])
}

/// Adds `v` to `values[key]`.
fn add(values: &mut Values, key: &'static str, v: f64) {
    *values.entry(key).or_insert(0.0) += v;
}

/// Runs one pass of `built`. `traced` wraps the training backends in
/// the timing adapter; the simulated output must not change.
pub fn run_pass(built: Built, seed: u64, traced: bool, blessed: &Blessed) -> Pass {
    let mut pass = Pass::default();
    add(&mut pass.layer, "torch.build_s", built.build_s);
    match built.setup {
        Setup::Training {
            program,
            cfg,
            um,
            deepum,
            keys,
        } => {
            let (um_run, dm_run) = if traced {
                let mut um = Timed::new(um);
                let um_run = run_checked(&program, &mut um, "um", &cfg, |b| b.inner().counters());
                let mut dm = Timed::new(deepum);
                let mut dm_run =
                    run_checked(&program, &mut dm, "deepum", &cfg, |b| b.inner().counters());
                set_table_bytes(&mut dm_run, dm.inner());
                record_spans(&mut pass.layer, &um, &dm, &um_run, &dm_run);
                (um_run, dm_run)
            } else {
                let mut um = um;
                let um_run = run_checked(&program, &mut um, "um", &cfg, NaiveUm::counters);
                let mut dm = deepum;
                let mut dm_run =
                    run_checked(&program, &mut dm, "deepum", &cfg, DeepumDriver::counters);
                set_table_bytes(&mut dm_run, &dm);
                (um_run, dm_run)
            };
            // The post-run `validate()` is a check, not user work.
            pass.wall_s = um_run.wall_s + dm_run.wall_s;
            // The suite blessed each cell at its own seed only: even
            // GPT-2 draws its embedding gather from the seed.
            let check_blessed = seed == SUITE_SEED;
            for (key, ran) in [(&keys.0, &um_run), (&keys.1, &dm_run)] {
                pass.attempted += 1;
                if let Some(e) = &ran.invariant {
                    pass.fail(format!("{key}: invariant violated: {e}"));
                    continue;
                }
                let d = digest(&report_json(&ran.result));
                if let Err(e) = &ran.result {
                    pass.fail(format!("{key}: run failed: {e}"));
                } else if check_blessed {
                    match blessed.get(key) {
                        Some(h) if h == d => {}
                        Some(h) => pass.fail(format!("{key}: digest {d} != blessed {h}")),
                        None => pass.fail(format!("{key}: no blessed digest")),
                    }
                }
                pass.digests.insert(key.clone(), d);
            }
            if let (Ok(u), Ok(r)) = (&um_run.result, &dm_run.result) {
                training_metrics(&mut pass, u, r);
            }
        }
        Setup::Serve(sims) => {
            let mut counters = Counters::new();
            for (k, sim) in sims.into_iter().enumerate() {
                let started = Instant::now();
                let outcome = sim.run();
                pass.wall_s += started.elapsed().as_secs_f64();
                pass.attempted += 1;
                if let Err(e) = &outcome.validation {
                    pass.fail(format!("serve-{k}: invariant violated: {e}"));
                }
                for (tid, e) in &outcome.errors {
                    pass.fail(format!("serve-{k}: tenant t{tid} failed: {e}"));
                }
                pass.digests.insert(
                    format!("serve-{k}"),
                    digest(&report_json(&Ok(outcome.report.clone()))),
                );
                counters.merge(&outcome.report.counters);
                serve_metrics(&mut pass, &outcome.report);
            }
            add(&mut pass.layer, "serve.run_s", pass.wall_s);
            counter_metrics(&mut pass.layer, &counters);
            add(&mut pass.layer, "gpu.kernels", pass.kernels as f64);
            add(
                &mut pass.layer,
                "gpu.page_faults",
                counters.gpu_page_faults as f64,
            );
        }
        Setup::Tenants(mt) => {
            let started = Instant::now();
            let outcome = mt.run();
            pass.wall_s = started.elapsed().as_secs_f64();
            add(&mut pass.layer, "sched.run_s", pass.wall_s);
            pass.attempted += 1;
            if let Err(e) = &outcome.validation {
                pass.fail(format!("tenants: invariant violated: {e}"));
            }
            for (tid, e) in &outcome.errors {
                pass.fail(format!("tenants: tenant t{tid} failed: {e}"));
            }
            pass.digests.insert(
                "tenants".into(),
                digest(&report_json(&Ok(outcome.report.clone()))),
            );
            tenant_metrics(&mut pass, &outcome.report);
        }
    }
    pass
}

/// A finished `run_um` call.
struct Ran {
    result: Result<RunReport, RunError>,
    /// Host seconds of the call.
    wall_s: f64,
    /// First backend invariant broken at the end of the run.
    invariant: Option<String>,
}

fn run_checked<B: UmBackend + LaunchObserver>(
    program: &Program,
    backend: &mut B,
    system: &str,
    cfg: &UmRunConfig,
    counters: impl Fn(&B) -> Counters,
) -> Ran {
    let t = Instant::now();
    let result = run_um(program, backend, system, cfg, counters);
    let wall_s = t.elapsed().as_secs_f64();
    Ran {
        result,
        wall_s,
        invariant: backend.validate().err(),
    }
}

/// What `run_system` adds to a DeepUM report after `run_um`.
fn set_table_bytes(ran: &mut Ran, driver: &DeepumDriver) {
    if let Ok(r) = &mut ran.result {
        r.table_bytes = Some(driver.table_memory_bytes() as u64);
    }
}

fn record_spans(
    layer: &mut Values,
    um: &Timed<NaiveUm>,
    dm: &Timed<DeepumDriver>,
    um_run: &Ran,
    dm_run: &Ran,
) {
    const NAMES: [[&str; 4]; 6] = [
        [
            "core.handle_faults.s",
            "core.handle_faults.calls",
            "core.handle_faults.p50_us",
            "core.handle_faults.pmax_us",
        ],
        [
            "core.overlap_compute.s",
            "core.overlap_compute.calls",
            "core.overlap_compute.p50_us",
            "core.overlap_compute.pmax_us",
        ],
        [
            "core.on_kernel_launch.s",
            "core.on_kernel_launch.calls",
            "core.on_kernel_launch.p50_us",
            "core.on_kernel_launch.pmax_us",
        ],
        [
            "core.on_pt_block_state.s",
            "core.on_pt_block_state.calls",
            "core.on_pt_block_state.p50_us",
            "core.on_pt_block_state.pmax_us",
        ],
        [
            "core.kernel_finished.s",
            "core.kernel_finished.calls",
            "core.kernel_finished.p50_us",
            "core.kernel_finished.pmax_us",
        ],
        [
            "core.touch.s",
            "core.touch.calls",
            "core.touch.p50_us",
            "core.touch.pmax_us",
        ],
    ];
    let mut core_s = 0.0;
    for (i, [s, calls, p50, pmax]) in NAMES.iter().enumerate() {
        debug_assert!(s.contains(METHODS[i]));
        let span = dm.span(i);
        core_s += span.secs();
        add(layer, s, span.secs());
        add(layer, calls, span.calls() as f64);
        add(layer, p50, span.hist.percentile(50.0) / 1e3);
        add(layer, pmax, span.hist.pmax().value_ns / 1e3);
    }
    add(layer, "core.share", core_s / dm_run.wall_s);
    let hf = um.span(0);
    add(layer, "um.handle_faults.s", hf.secs());
    add(layer, "um.handle_faults.calls", hf.calls() as f64);
    add(
        layer,
        "um.handle_faults.pmax_us",
        hf.hist.pmax().value_ns / 1e3,
    );
    add(layer, "baselines.um_run_s", um_run.wall_s);
    add(layer, "baselines.deepum_run_s", dm_run.wall_s);
    let um_self = um_run.wall_s - um.backend_ns() as f64 / 1e9;
    let dm_self = dm_run.wall_s - dm.backend_ns() as f64 / 1e9;
    add(layer, "gpu.replay_self_s", um_self + dm_self);
    add(layer, "gpu.um_replay_share", um_self / um_run.wall_s);
    add(
        layer,
        "gpu.resident_miss_calls",
        (um.resident_miss_calls() + dm.resident_miss_calls()) as f64,
    );
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Layer counts read from a report's counters: `core` (correlator,
/// chain walk, prefetch) and `um` (fault pipeline, eviction).
fn counter_metrics(layer: &mut Values, c: &Counters) {
    add(layer, "core.chain_walks", c.chain_walks as f64);
    add(
        layer,
        "core.block_table_lookups",
        c.block_table_lookups as f64,
    );
    add(
        layer,
        "core.block_table_updates",
        c.block_table_updates as f64,
    );
    add(
        layer,
        "core.lookups_per_walk",
        ratio(c.block_table_lookups as f64, c.chain_walks as f64),
    );
    add(layer, "core.pages_prefetched", c.pages_prefetched as f64);
    add(layer, "core.prefetch_hits", c.prefetch_hits as f64);
    add(
        layer,
        "core.prefetch_accuracy",
        ratio(c.prefetch_hits as f64, c.pages_prefetched as f64),
    );
    add(layer, "core.prefetch_wasted", c.prefetch_wasted as f64);
    add(layer, "core.prefetch_dropped", c.prefetch_dropped as f64);
    add(layer, "core.exec_predictions", c.exec_predictions as f64);
    add(
        layer,
        "core.exec_mispredict_share",
        ratio(c.exec_mispredictions as f64, c.exec_predictions as f64),
    );
    add(layer, "um.fault_batches", c.fault_batches as f64);
    add(layer, "um.pages_faulted_in", c.pages_faulted_in as f64);
    add(
        layer,
        "um.pages_evicted_demand",
        c.pages_evicted_demand as f64,
    );
    add(layer, "um.pages_preevicted", c.pages_preevicted as f64);
    add(layer, "um.pages_invalidated", c.pages_invalidated as f64);
    add(layer, "um.bytes_h2d", c.bytes_h2d as f64);
    add(layer, "um.bytes_d2h", c.bytes_d2h as f64);
}

fn training_metrics(pass: &mut Pass, um: &RunReport, dm: &RunReport) {
    pass.kernels = um.counters.kernels_launched + dm.counters.kernels_launched;
    let sim = &mut pass.sim;
    sim.insert("sim_iter_s", dm.steady_iter_time().as_secs_f64());
    sim.insert("sim_speedup_vs_um", dm.speedup_over(um));
    sim.insert("faults_per_iter", dm.steady_faults_per_iter() as f64);
    sim.insert("serve_p99_ms", NOT_APPLICABLE);
    // Both runs completed: every job is on time.
    sim.insert("serve_on_time_share", 1.0);
    sim.insert("mt_makespan_s", dm.total.as_secs_f64());

    // `core` and `um` counts describe the DeepUM run, whose iteration
    // time they explain; `gpu` counts cover both runs.
    let layer = &mut pass.layer;
    counter_metrics(layer, &dm.counters);
    add(layer, "gpu.kernels", pass.kernels as f64);
    add(
        layer,
        "gpu.page_faults",
        (um.counters.gpu_page_faults + dm.counters.gpu_page_faults) as f64,
    );
    let steady: Vec<_> = dm.iters.iter().skip(1).collect();
    let elapsed: u64 = steady.iter().map(|i| i.elapsed.as_nanos()).sum();
    let stall: u64 = steady.iter().map(|i| i.stall.as_nanos()).sum();
    add(
        layer,
        "gpu.sim_steady_ms",
        dm.steady_iter_time().as_nanos() as f64 / 1e6,
    );
    add(
        layer,
        "gpu.sim_stall_share",
        ratio(stall as f64, elapsed as f64),
    );
}

/// Adds one request stream's share of the serving metrics; the pass
/// reports the mean over its [`SERVE_STREAMS`] streams.
fn serve_metrics(pass: &mut Pass, report: &RunReport) {
    pass.kernels += report.counters.kernels_launched;
    let Some(serving) = &report.serving else {
        pass.fail("serve: report has no serving section".into());
        return;
    };
    let mut on_time = 0;
    let layer = &mut pass.layer;
    for ep in &serving.endpoints {
        on_time += ep.on_time;
        pass.attempted += ep.requests;
        let lost = ep.requests - ep.completed.min(ep.requests);
        let lost = lost - ep.shed.min(lost);
        if lost > 0 {
            pass.failed += lost;
            pass.failures.push(format!(
                "serve: {}: {lost} requests neither completed nor shed",
                ep.name
            ));
        }
        add(layer, "serve.requests", ep.requests as f64);
        add(layer, "serve.missed", ep.missed as f64);
        add(layer, "serve.shed", ep.shed as f64);
        add(layer, "serve.retries", ep.retries as f64);
        add(layer, "serve.escalations", ep.escalations as f64);
        add(layer, "serve.deescalations", ep.deescalations as f64);
    }
    let p99 = serving
        .endpoints
        .iter()
        .map(|e| e.p99_latency_ns)
        .max()
        .unwrap_or(0);
    let streams = SERVE_STREAMS as f64;
    let cycles = SERVE_CYCLES as f64;
    let total_s = report.total.as_secs_f64();
    let sim = &mut pass.sim;
    add(sim, "sim_iter_s", total_s / cycles / streams);
    sim.insert("sim_speedup_vs_um", NOT_APPLICABLE);
    add(
        sim,
        "faults_per_iter",
        report.counters.gpu_page_faults as f64 / cycles / streams,
    );
    add(sim, "serve_p99_ms", p99 as f64 / 1e6 / streams);
    add(
        sim,
        "serve_on_time_share",
        ratio(on_time as f64, serving.total_requests as f64) / streams,
    );
    add(sim, "mt_makespan_s", total_s / streams);
}

fn tenant_metrics(pass: &mut Pass, report: &RunReport) {
    pass.kernels = report.counters.kernels_launched;
    let Some(tenants) = &report.tenants else {
        pass.fail("tenants: report has no tenants section".into());
        return;
    };
    let completed = tenants.iter().filter(|t| t.completed).count();
    pass.attempted += tenants.len() as u64;
    for t in tenants.iter().filter(|t| !t.completed) {
        pass.fail(format!("tenants: {} did not complete", t.name));
    }
    let layer = &mut pass.layer;
    counter_metrics(layer, &report.counters);
    add(layer, "gpu.kernels", pass.kernels as f64);
    add(
        layer,
        "gpu.page_faults",
        report.counters.gpu_page_faults as f64,
    );
    add(layer, "sched.tenants", tenants.len() as f64);
    for t in tenants {
        add(layer, "sched.evictions_charged", t.evictions_charged as f64);
        add(layer, "sched.refaults", t.refaults as f64);
        add(
            layer,
            "sched.reclaim_debt_ms",
            t.reclaim_debt_ns as f64 / 1e6,
        );
    }
    let slowest = tenants.iter().map(|t| t.elapsed).max().unwrap_or(Ns::ZERO);
    let fastest = tenants.iter().map(|t| t.elapsed).min().unwrap_or(Ns::ZERO);
    add(
        layer,
        "sched.tenant_spread",
        ratio(slowest.as_secs_f64(), fastest.as_secs_f64()),
    );
    let units = (TENANTS * TENANT_ITERS) as f64;
    let sim = &mut pass.sim;
    sim.insert(
        "sim_iter_s",
        report.total.as_secs_f64() / TENANT_ITERS as f64,
    );
    sim.insert("sim_speedup_vs_um", NOT_APPLICABLE);
    sim.insert(
        "faults_per_iter",
        report.counters.gpu_page_faults as f64 / units,
    );
    sim.insert("serve_p99_ms", NOT_APPLICABLE);
    sim.insert(
        "serve_on_time_share",
        ratio(completed as f64, tenants.len() as f64),
    );
    sim.insert("mt_makespan_s", report.total.as_secs_f64());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blessed_hashes_parse_from_the_baseline_format() {
        let text = r#"{
  "version": 1,
  "serial_wall_secs": 493.6,
  "cells": [
    {
      "key": "gpt2-xl-b5-um-i2",
      "hash": "dd26582efd4349d5"
    },
    {"key": "dlrm-b128000-deepum-i2", "hash": "fc9d18430ddaba0f"}
  ]
}"#;
        let b = Blessed::parse(text);
        assert_eq!(b.get("gpt2-xl-b5-um-i2"), Some("dd26582efd4349d5"));
        assert_eq!(b.get("dlrm-b128000-deepum-i2"), Some("fc9d18430ddaba0f"));
        assert_eq!(b.get("gpt2-xl-b5-deepum-i2"), None);
        assert_eq!(
            cell_key(ModelKind::Dlrm, 128_000, "deepum"),
            "dlrm-b128000-deepum-i2"
        );
    }

    #[test]
    fn workload_names_round_trip() {
        for k in Kind::ALL {
            assert_eq!(Kind::parse(k.name()), Some(k));
        }
        assert_eq!(Kind::parse("gpt2"), None);
    }
}
