//! The multi-tenant scheduler: admission, slot interleaving, pressure
//! broadcast, and report aggregation.
//!
//! [`MultiTenant::run`] drives a deterministic cycle loop. Each cycle:
//!
//! 1. **Arrivals** — specs whose `arrival_cycle` matches are admitted
//!    (ledger registered on the shared UM driver) or refused with a
//!    typed [`RunError::AdmissionDenied`] when their guaranteed floor
//!    cannot be met. While the system thrashes, new arrivals are
//!    deferred one cycle at a time (load shedding at the admission
//!    boundary).
//! 2. **Slots** — every active tenant, in tenant-id order, gets one
//!    kernel slot of `priority` consecutive kernels (round robin with
//!    priority). The shared UM driver is swapped into the tenant's
//!    private DeepUM driver for the slot and swapped back out after,
//!    so all existing driver paths route to the right tenant with no
//!    per-site dispatch. Write-back debt charged to the tenant by
//!    fair-share evictions during other tenants' slots is paid (as
//!    virtual time) at the tenant's next slot start.
//! 3. **Pressure** — the worst per-tenant governor level becomes the
//!    system level; changes are broadcast to every active tenant as a
//!    typed [`TraceEvent::PressureSignal`], and elevated-or-worse
//!    levels make every tenant shrink its prefetch look-ahead one
//!    notch (deterministic load shedding).
//!
//! Everything is virtual-time and seeded, so the same spec list always
//! produces the same outcome, byte for byte.

use std::collections::BTreeMap;

use deepum_baselines::report::{RunError, RunReport, TenantReport, WearReport};
use deepum_mem::TenantId;
use deepum_sim::costs::CostModel;
use deepum_sim::metrics::Counters;
use deepum_sim::time::Ns;
use deepum_torch::perf::PerfModel;
use deepum_trace::{PressureLevel, SharedTracer, TraceEvent};
use deepum_um::driver::UmDriver;

use crate::spec::TenantSpec;
use crate::tenant::{StepOutcome, TenantRun};

/// Safety valve: non-kernel work units one slot may perform before the
/// scheduler declares the tenant wedged. Real programs run a handful of
/// allocator steps between kernels; only a bug approaches this.
const MAX_UNITS_PER_SLOT: u64 = 1_000_000;

fn emit(tracer: &Option<SharedTracer>, now: Ns, event: TraceEvent) {
    if let Some(tr) = tracer {
        tr.borrow_mut().emit(now.as_nanos(), event);
    }
}

/// A multi-tenant schedule: N tenant specs time-sharing one device.
#[derive(Debug, Clone)]
pub struct MultiTenant {
    costs: CostModel,
    perf: PerfModel,
    specs: Vec<TenantSpec>,
}

/// What [`MultiTenant::run`] produces.
pub struct ScheduleOutcome {
    /// Aggregate report; `tenants` holds one entry per spec in tenant-id
    /// order (admitted or not).
    pub report: RunReport,
    /// Typed terminal errors, keyed by raw tenant id: admission denials
    /// and per-tenant run failures. Co-tenants keep running.
    pub errors: Vec<(u32, RunError)>,
    /// Tracers of tenants that asked for one, keyed by raw tenant id.
    pub tracers: Vec<(u32, SharedTracer)>,
    /// Raw tenant ids in the order they drained (finished or failed).
    /// Denied tenants never appear. Priority shows up here: more kernel
    /// slots per cycle means an earlier completion cycle.
    pub completion_order: Vec<u32>,
    /// First shared-driver invariant violation observed (checked after
    /// every cycle and once after the drain), or `Ok(())`.
    pub validation: Result<(), String>,
}

impl MultiTenant {
    /// A schedule on the given platform with no tenants yet.
    pub fn new(costs: CostModel, perf: PerfModel) -> Self {
        MultiTenant {
            costs,
            perf,
            specs: Vec::new(),
        }
    }

    /// Adds a tenant. Tenant ids are assigned in call order.
    #[must_use]
    pub fn tenant(mut self, spec: TenantSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Runs every tenant to completion (or typed failure) and returns
    /// the aggregate outcome. Deterministic: the same schedule always
    /// produces the same bytes.
    pub fn run(self) -> ScheduleOutcome {
        self.schedule().0
    }

    /// [`MultiTenant::run`], also handing back every admitted tenant's
    /// stack.
    fn schedule(self) -> (ScheduleOutcome, Vec<Box<TenantRun>>) {
        let mut shared = UmDriver::new(self.costs.clone());
        let mut runs: Vec<Option<Box<TenantRun>>> = Vec::new();
        let mut reports: Vec<Option<TenantReport>> = Vec::new();
        let mut errors: Vec<(u32, RunError)> = Vec::new();
        let mut tracers: Vec<(u32, SharedTracer)> = Vec::new();
        let mut validation: Result<(), String> = Ok(());

        // Arrival queue: cycle -> spec indices, kept in tenant-id order.
        let mut arrivals: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (idx, spec) in self.specs.iter().enumerate() {
            arrivals.entry(spec.arrival_cycle).or_default().push(idx);
            runs.push(None);
            reports.push(None);
        }

        let mut active: Vec<usize> = Vec::new();
        let mut completion_order: Vec<u32> = Vec::new();
        let mut cycle: u64 = 0;
        let mut level = PressureLevel::Normal;

        loop {
            // ---- arrivals -------------------------------------------
            if let Some(idxs) = arrivals.remove(&cycle) {
                if level == PressureLevel::Thrashing && !active.is_empty() {
                    // Shed load at the admission boundary: thrashing
                    // defers this cycle's arrivals wholesale.
                    let deferred = arrivals.entry(cycle + 1).or_default();
                    for idx in idxs {
                        deferred.push(idx);
                    }
                    deferred.sort_unstable();
                } else {
                    for idx in idxs {
                        self.admit(
                            idx,
                            &mut shared,
                            &mut runs,
                            &mut reports,
                            &mut errors,
                            &mut tracers,
                            &mut active,
                        );
                    }
                }
            }

            if active.is_empty() {
                match arrivals.keys().next() {
                    // Idle device: fast-forward to the next arrival.
                    Some(&next) => {
                        cycle = next;
                        continue;
                    }
                    None => break,
                }
            }

            // ---- kernel slots, tenant-id order ----------------------
            let mut finished: Vec<usize> = Vec::new();
            for &idx in &active {
                let Some(run) = runs.get_mut(idx).and_then(Option::as_mut) else {
                    continue;
                };
                // ECC retirement may have shrunk the device past this
                // tenant's guaranteed floor since its last slot; surface
                // the typed error instead of running it on a reservation
                // it no longer holds (never a livelock).
                if shared.floor_lost(run.tid) && !run.run.is_done() {
                    run.run.fail(RunError::FloorLost {
                        tenant: run.tid.raw(),
                        floor_pages: run.spec.floor_pages,
                        capacity_pages: shared.capacity_pages(),
                    });
                    finished.push(idx);
                    continue;
                }
                if Self::slot(run, &mut shared) {
                    finished.push(idx);
                }
            }
            for idx in finished {
                if let Some(run) = runs.get_mut(idx).and_then(Option::as_mut) {
                    let report = finalize(&shared, run);
                    completion_order.push(run.tid.raw());
                    shared.deregister_tenant(run.run.now(), run.tid);
                    if let Some(e) = run.run.error() {
                        errors.push((run.tid.raw(), e.clone()));
                    }
                    if let Some(slot) = reports.get_mut(idx) {
                        *slot = Some(report);
                    }
                }
                active.retain(|&i| i != idx);
            }

            // ---- invariants -----------------------------------------
            if validation.is_ok() {
                validation = shared.validate();
            }

            // ---- pressure signal + load shedding --------------------
            let system = active
                .iter()
                .filter_map(|&idx| runs.get(idx).and_then(Option::as_ref))
                .filter_map(|run| {
                    shared
                        .tenant_ledger(run.tid)
                        .and_then(|l| l.governor.as_ref())
                        .map(|g| g.level())
                })
                .max()
                .unwrap_or(PressureLevel::Normal);
            if system != level {
                level = system;
                for &idx in &active {
                    if let Some(run) = runs.get_mut(idx).and_then(Option::as_mut) {
                        emit(
                            &run.run.tracer(),
                            run.run.now(),
                            TraceEvent::PressureSignal { level },
                        );
                    }
                }
            }
            if level >= PressureLevel::Elevated {
                for &idx in &active {
                    if let Some(run) = runs.get_mut(idx).and_then(Option::as_mut) {
                        run.driver.shed_load();
                    }
                }
            }

            cycle += 1;
        }

        if validation.is_ok() {
            validation = shared.validate();
        }

        // ---- aggregate report ---------------------------------------
        // The shared driver's counters are the global device activity;
        // each tenant's DeepUM-side locals (correlation-table work,
        // prefetch commands) live in its private driver. Ledger counters
        // are per-tenant *splits* of the shared totals, so they are not
        // added again here.
        let mut counters = shared.counters();
        let mut total = Ns::ZERO;
        let mut energy = 0.0;
        for run in runs.iter().flatten() {
            counters.merge(&run.driver.local_counters());
            total = total.max(run.run.now());
            energy += run.run.energy_joules();
        }
        let tenants: Vec<TenantReport> = reports.into_iter().flatten().collect();
        // The wear section appears only when the device actually wore
        // or some tenant's restore fell back past a corrupt checkpoint
        // generation; untouched schedules keep the report byte-identical
        // to pre-wear builds.
        let recovery_generations: u64 = runs
            .iter()
            .flatten()
            .map(|run| run.run.recovery_generations())
            .sum();
        let wear_state = shared.wear();
        let wear = if !wear_state.is_pristine() || recovery_generations > 0 {
            Some(WearReport {
                retired_pages: wear_state.retired_pages(),
                remigrations: wear_state.remigrated_pages(),
                recovery_generations,
            })
        } else {
            None
        };
        let report = RunReport {
            workload: "multitenant".into(),
            system: "deepum-sched".into(),
            iters: Vec::new(),
            total,
            energy_joules: energy,
            counters,
            table_bytes: None,
            health: None,
            recovery: None,
            trace: None,
            pressure: None,
            tenants: Some(tenants),
            serving: None,
            wear,
        };

        let outcome = ScheduleOutcome {
            report,
            errors,
            tracers,
            completion_order,
            validation,
        };
        (outcome, runs.into_iter().flatten().collect())
    }

    /// Admits one spec: builds its private stack and registers its
    /// ledger, or refuses it with a typed admission error.
    #[allow(clippy::too_many_arguments)]
    fn admit(
        &self,
        idx: usize,
        shared: &mut UmDriver,
        runs: &mut [Option<Box<TenantRun>>],
        reports: &mut [Option<TenantReport>],
        errors: &mut Vec<(u32, RunError)>,
        tracers: &mut Vec<(u32, SharedTracer)>,
        active: &mut Vec<usize>,
    ) {
        let Some(spec) = self.specs.get(idx) else {
            return;
        };
        let raw = u32::try_from(idx).unwrap_or(u32::MAX);
        let tid = TenantId(raw);
        let mut run = TenantRun::new(tid, spec.clone(), self.costs.clone(), self.perf.clone());
        // A governor configured on the tenant's job driver moves into
        // its ledger; the slot swap installs it on the shared driver
        // whenever the tenant runs.
        let governor = run.driver.take_pressure_governor();
        if let Some(tr) = run.run.tracer() {
            tracers.push((raw, tr));
        }
        match shared.register_tenant(
            tid,
            spec.floor_pages,
            spec.priority,
            run.driver.protected_set(),
            governor,
            run.run.tracer(),
            run.run.injector(),
        ) {
            Ok(()) => {
                emit(
                    &run.run.tracer(),
                    run.run.now(),
                    TraceEvent::TenantAdmitted {
                        tenant: raw,
                        floor_pages: spec.floor_pages,
                        priority: spec.priority,
                    },
                );
                if let Some(slot) = runs.get_mut(idx) {
                    *slot = Some(Box::new(run));
                }
                active.push(idx);
                active.sort_unstable();
            }
            Err((need, avail)) => {
                emit(
                    &run.run.tracer(),
                    run.run.now(),
                    TraceEvent::TenantDenied {
                        tenant: raw,
                        need,
                        avail,
                    },
                );
                let err = RunError::AdmissionDenied {
                    tenant: raw,
                    need,
                    avail,
                };
                if let Some(slot) = reports.get_mut(idx) {
                    *slot = Some(denied_report(raw, spec, &err));
                }
                errors.push((raw, err));
            }
        }
    }

    /// Runs one kernel slot for `run`: opens the slot on the shared
    /// driver, pays reclaim debt, executes `priority` kernels, and
    /// closes the slot. Returns true when the tenant finished (done or
    /// failed) during the slot.
    fn slot(run: &mut TenantRun, shared: &mut UmDriver) -> bool {
        // Write-back debt charged by fair-share evictions while other
        // tenants were active is paid here, by its cause.
        let (tid, now) = (run.tid, run.run.now());
        let debt = crate::slot::open_slot(shared, &mut run.driver, tid, now);
        run.run.advance_clock(debt);

        let quota = u64::from(run.spec.priority);
        let mut kernels = 0u64;
        let mut units = 0u64;
        let mut finished = false;
        while kernels < quota {
            units += 1;
            if units > MAX_UNITS_PER_SLOT {
                finished = true;
                break;
            }
            match run.step() {
                StepOutcome::Ran { kernel } => {
                    if kernel {
                        kernels += 1;
                    }
                }
                StepOutcome::Done | StepOutcome::Failed => {
                    finished = true;
                    break;
                }
            }
        }

        let now = run.run.now();
        crate::slot::close_slot(shared, &mut run.driver, now);
        finished
    }
}

/// Builds a finished tenant's report. Must run after the tenant's last
/// slot closed (so the ledger holds its final counters) and before
/// `deregister_tenant` (which destroys the ledger).
fn finalize(shared: &UmDriver, run: &TenantRun) -> TenantReport {
    let ledger = shared.tenant_ledger(run.tid);
    let mut c = ledger.map_or_else(Counters::new, |l| l.counters);
    c.merge(&run.driver.local_counters());
    TenantReport {
        tenant: run.tid.raw(),
        name: run.spec.name.clone(),
        priority: run.spec.priority,
        floor_pages: run.spec.floor_pages,
        admitted: true,
        completed: run.run.is_done() && run.run.error().is_none(),
        error: run.run.error().map(std::string::ToString::to_string),
        kernels: c.kernels_launched,
        faults: c.gpu_page_faults,
        pages_migrated: c.pages_faulted_in + c.pages_prefetched,
        pages_evicted: c.pages_evicted_demand + c.pages_preevicted,
        bytes_h2d: c.bytes_h2d,
        bytes_d2h: c.bytes_d2h,
        refaults: ledger
            .and_then(|l| l.governor.as_ref())
            .map_or(0, |g| g.stats().refaults),
        evictions_charged: ledger.map_or(0, |l| l.evictions_charged),
        reclaim_debt_ns: ledger.map_or(0, |l| l.reclaim_debt_total.as_nanos()),
        elapsed: run.run.now(),
    }
}

/// The report of a tenant refused at admission.
fn denied_report(raw: u32, spec: &TenantSpec, err: &RunError) -> TenantReport {
    TenantReport {
        tenant: raw,
        name: spec.name.clone(),
        priority: spec.priority,
        floor_pages: spec.floor_pages,
        admitted: false,
        completed: false,
        error: Some(err.to_string()),
        kernels: 0,
        faults: 0,
        pages_migrated: 0,
        pages_evicted: 0,
        bytes_h2d: 0,
        bytes_d2h: 0,
        refaults: 0,
        evictions_charged: 0,
        reclaim_debt_ns: 0,
        elapsed: Ns::ZERO,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::JobKind;
    use deepum_baselines::executor::um::{run_um, UmRunConfig};
    use deepum_core::config::DeepumConfig;
    use deepum_core::driver::DeepumDriver;
    use deepum_sim::faultinject::InjectionPlan;
    use deepum_torch::models::ModelKind;

    fn costs(device_mb: u64, host_mb: u64) -> CostModel {
        CostModel::v100_32gb()
            .with_device_memory(device_mb << 20)
            .with_host_memory(host_mb << 20)
    }

    fn training(name: &str) -> TenantSpec {
        TenantSpec::new(
            name,
            JobKind::Training {
                model: ModelKind::MobileNet,
                batch: 4,
                iterations: 2,
            },
        )
    }

    fn inference(name: &str) -> TenantSpec {
        TenantSpec::new(
            name,
            JobKind::Inference {
                model: ModelKind::MobileNet,
                batch: 1,
                requests: 2,
            },
        )
    }

    /// A lone tenant 0 (VA base 0) through the scheduler, and the same
    /// job as a solo `run_um` on a private DeepUM driver.
    fn lone_and_solo(plan: InjectionPlan) -> (ScheduleOutcome, Box<TenantRun>, RunReport) {
        // Room for the whole working set: fair-share eviction on the
        // shared driver never has to pick a victim.
        let platform = costs(512, 8192);
        let config = DeepumConfig::default().with_prefetch_degree(16);
        let spec = training("lone").plan(plan.clone()).config(config.clone());
        let (outcome, mut runs) = MultiTenant::new(platform.clone(), PerfModel::v100())
            .tenant(spec.clone())
            .schedule();
        assert!(outcome.errors.is_empty(), "errors: {:?}", outcome.errors);
        assert_eq!(runs.len(), 1, "one admitted tenant");
        let tenant = runs.remove(0);

        let cfg = UmRunConfig {
            costs: platform.clone(),
            seed: spec.seed,
            plan,
            ..UmRunConfig::new(spec.job.repetitions())
        };
        let mut driver = DeepumDriver::new(platform, config);
        let solo = run_um(
            &spec.job.workload(),
            &mut driver,
            "deepum",
            &cfg,
            DeepumDriver::counters,
        )
        .expect("solo run completes");
        (outcome, tenant, solo)
    }

    /// One admitted tenant is a solo run: the scheduler steps the very
    /// executor `run_um` steps.
    #[test]
    fn a_lone_tenant_matches_a_solo_run() {
        let (outcome, tenant, solo) = lone_and_solo(InjectionPlan::default());
        let run = &tenant.run;
        assert_eq!(run.iters(), solo.iters.as_slice());
        assert_eq!(outcome.report.counters, solo.counters);
        assert_eq!(run.now(), solo.total);
        assert_eq!(run.recovery(), None);
        assert_eq!(outcome.report.wear, None);
    }

    /// The same under a device reset whose newest checkpoint is corrupt.
    /// Checkpoints land every 8 launches (ordinals 0, 1, 2 at seq 0, 8,
    /// 16); the reset at seq 20 finds ordinal 2 corrupt, falls back one
    /// generation and replays the 12 launches since seq 8. The ring, the
    /// journal and the replay are the executor's and agree exactly. The
    /// restore itself is the driver's and differs by design: a
    /// tenant-scoped restore spills the tenant's pages to host, so the
    /// first iteration refaults them in band (and the tenant's restored
    /// residency, which the out-of-band refill charges, is zero); a solo
    /// restore brings the resident set back. From the next iteration on the runs agree
    /// again. Which downtime accounting is right is an open ROADMAP
    /// item ("A lone tenant and a solo run part ways in the driver"),
    /// so downtime is only bounded below here.
    #[test]
    fn a_lone_tenant_recovers_like_a_solo_run() {
        let (outcome, tenant, solo) = lone_and_solo(InjectionPlan {
            seed: 0xC0FFEE,
            device_reset_at: vec![20],
            ckpt_corrupt_at: vec![2],
            ..InjectionPlan::default()
        });
        let run = &tenant.run;
        let (lone_rec, solo_rec) = (
            run.recovery().expect("recovery on"),
            solo.recovery.as_ref().expect("recovery on"),
        );
        assert_eq!(lone_rec.checkpoints, solo_rec.checkpoints);
        assert_eq!(lone_rec.restores, 1);
        assert_eq!(solo_rec.restores, 1);
        assert_eq!(lone_rec.replay_kernels, 12);
        assert_eq!(solo_rec.replay_kernels, 12);
        assert_eq!(lone_rec.ecc_poisonings, solo_rec.ecc_poisonings);
        let penalty = InjectionPlan::default().reset_penalty.as_nanos();
        assert!(lone_rec.downtime_ns >= penalty);
        assert!(solo_rec.downtime_ns >= penalty);
        assert_eq!(run.recovery_generations(), 1);
        assert_eq!(outcome.report.wear, solo.wear);

        let (lone, solo) = (run.iters(), solo.iters.as_slice());
        assert_eq!(lone.len(), solo.len());
        for (l, s) in lone.iter().zip(solo) {
            assert_eq!(l.compute, s.compute);
            assert_eq!(l.counters.kernels_launched, s.counters.kernels_launched);
        }
        assert_eq!(lone[1..], solo[1..]);
    }

    #[test]
    fn two_tenants_run_to_completion() {
        let outcome = MultiTenant::new(costs(512, 8192), PerfModel::v100())
            .tenant(training("trainer"))
            .tenant(inference("serving"))
            .run();
        assert!(outcome.errors.is_empty(), "errors: {:?}", outcome.errors);
        outcome.validation.clone().expect("invariants hold");
        let tenants = outcome.report.tenants.as_deref().expect("tenant section");
        assert_eq!(tenants.len(), 2);
        for t in tenants {
            assert!(t.admitted && t.completed, "tenant {t:?}");
            assert!(t.kernels > 0);
        }
        // Both tenants actually interleaved on one device.
        assert!(outcome.report.counters.kernels_launched >= tenants[0].kernels);
    }

    #[test]
    fn over_committed_floor_is_refused_and_others_finish() {
        // 64 MiB device = 16384 pages. Tenant 0 reserves most of it;
        // tenant 1's floor cannot be met.
        let outcome = MultiTenant::new(costs(64, 8192), PerfModel::v100())
            .tenant(training("greedy").floor_pages(15_000))
            .tenant(inference("late").floor_pages(3_000).arrival(1))
            .run();
        assert_eq!(outcome.errors.len(), 1);
        let (tid, err) = &outcome.errors[0];
        assert_eq!(*tid, 1);
        match err {
            RunError::AdmissionDenied {
                tenant,
                need,
                avail,
            } => {
                assert_eq!(*tenant, 1);
                assert_eq!(*need, 3_000);
                assert!(*avail < 3_000, "avail {avail}");
            }
            other => panic!("expected AdmissionDenied, got {other:?}"),
        }
        let tenants = outcome.report.tenants.as_deref().expect("tenant section");
        assert!(tenants[0].admitted && tenants[0].completed);
        assert!(!tenants[1].admitted && !tenants[1].completed);
        outcome.validation.clone().expect("invariants hold");
    }

    #[test]
    fn ecc_retirement_revokes_the_loosest_floor_with_a_typed_error() {
        // 64 MiB device = 16384 pages; the floors commit 16350 of them,
        // so a few dozen single-page retirements shrink the device below
        // the commitment. Tenant 0 wears the device (every one of its
        // fault drains retires a page); the lower-priority tenant 1
        // loses its floor and gets the typed error while tenant 0 keeps
        // running — never a livelock.
        let plan = deepum_sim::faultinject::InjectionPlan {
            ecc_retire_rate: 1.0,
            ..deepum_sim::faultinject::InjectionPlan::default()
        };
        let outcome = MultiTenant::new(costs(64, 8192), PerfModel::v100())
            .tenant(
                training("wearing")
                    .floor_pages(8_100)
                    .priority(2)
                    .plan(plan),
            )
            .tenant(inference("victim").floor_pages(8_250))
            .run();
        outcome.validation.clone().expect("invariants hold");
        let (tid, err) = outcome
            .errors
            .iter()
            .find(|(_, e)| matches!(e, RunError::FloorLost { .. }))
            .expect("a FloorLost error");
        assert_eq!(*tid, 1);
        match err {
            RunError::FloorLost {
                tenant,
                floor_pages,
                capacity_pages,
            } => {
                assert_eq!(*tenant, 1);
                assert_eq!(*floor_pages, 8_250);
                assert!(*capacity_pages < 16_350, "capacity {capacity_pages}");
            }
            other => panic!("expected FloorLost, got {other:?}"),
        }
        let tenants = outcome.report.tenants.as_deref().expect("tenant section");
        assert!(
            tenants[0].admitted && tenants[0].completed,
            "{:?}",
            tenants[0]
        );
        assert!(
            tenants[1].admitted && !tenants[1].completed,
            "{:?}",
            tenants[1]
        );
        let wear = outcome.report.wear.expect("wear section");
        assert!(wear.retired_pages >= 35, "retired {}", wear.retired_pages);
    }

    #[test]
    fn schedules_are_deterministic() {
        let build = || {
            MultiTenant::new(costs(96, 8192), PerfModel::v100())
                .tenant(training("a").priority(2).floor_pages(4096))
                .tenant(inference("b").seed(7).arrival(1))
                .run()
        };
        let (a, b) = (build(), build());
        let ja = serde_json::to_string(&a.report).expect("serialize");
        let jb = serde_json::to_string(&b.report).expect("serialize");
        assert_eq!(ja, jb);
        assert_eq!(a.report.total, b.report.total);
    }

    #[test]
    fn priority_grants_more_kernel_slots_per_cycle() {
        // Same program, but the *later* tenant id has 4x the kernels
        // per cycle — it must drain first. (Within a cycle tenants
        // finish in tid order, so equal priorities would put tenant 0
        // first; only the priority quota can flip the order.)
        let outcome = MultiTenant::new(costs(512, 8192), PerfModel::v100())
            .tenant(training("slow"))
            .tenant(training("fast").priority(4))
            .run();
        assert_eq!(outcome.completion_order, vec![1, 0]);
    }
}
