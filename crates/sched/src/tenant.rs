//! One tenant's private stack.
//!
//! A [`TenantRun`] steps the solo executor
//! ([`deepum_baselines::executor::um::UmRun`]): the scheduler calls
//! [`TenantRun::step`] while the tenant's kernel slot is open (the shared
//! UM driver swapped into the tenant's DeepUM driver), and the executor
//! performs exactly one unit of work. Running the very loop a solo run
//! runs is what makes the tenant-isolation differential test
//! meaningful: a tenant that is never charged by its co-tenants replays
//! the same event sequence it would produce alone.
//!
//! What a tenant adds to the solo run is short: its id and spec, the
//! slot-swapped DeepUM driver, a UM space at the disjoint VA base
//! `tid × 2^40`, its own export tracer, and a [`RunScope`] that reads
//! the tenant's ledger (counters and the resident pages a restore
//! refills) instead of the whole device.

use deepum_baselines::executor::um::{RunScope, UmRun, UmRunConfig};
use deepum_core::driver::DeepumDriver;
use deepum_mem::TenantId;
use deepum_sim::costs::CostModel;
use deepum_sim::metrics::Counters;
use deepum_torch::perf::PerfModel;
use deepum_torch::step::Workload;
use deepum_trace::{shared, Tracer};

use crate::spec::TenantSpec;

pub use deepum_baselines::executor::um::StepOutcome;

/// Each tenant's UM allocations live in a disjoint 1 TiB region of the
/// shared driver's virtual address space, so block numbers never
/// collide across tenants.
const VA_STRIDE: u64 = 1 << 40;

/// The tenant's view of the shared driver: the active slot's counters
/// plus the DeepUM-side locals, and its own ledger's resident pages
/// (co-tenant residency survives a tenant-scoped restore).
struct TenantScope(TenantId);

impl RunScope<DeepumDriver> for TenantScope {
    fn counters(&self, driver: &DeepumDriver) -> Counters {
        let mut c = driver.um().active_counters();
        c.merge(&driver.local_counters());
        c
    }

    fn resident_pages(&self, driver: &DeepumDriver) -> u64 {
        let um = driver.um();
        um.tenant_ledger(self.0)
            .map_or_else(|| um.resident_pages(), |l| l.resident_pages)
    }
}

/// One tenant's private execution stack.
pub struct TenantRun {
    /// The spec this tenant was admitted under.
    pub spec: TenantSpec,
    /// The tenant's identity on the shared driver.
    pub tid: TenantId,
    /// The tenant's DeepUM driver. Between slots it wraps a placeholder
    /// UM driver; during the tenant's slot the scheduler swaps the
    /// shared UM driver in.
    pub driver: DeepumDriver,
    /// The solo executor this tenant steps: its clock, tracer, injector,
    /// outcome and recovery figures.
    pub run: UmRun,
    workload: Workload,
}

impl TenantRun {
    /// Builds the tenant's private stack. No driver work happens here —
    /// every driver-touching operation (including persistent-tensor
    /// allocation) is deferred to [`TenantRun::step`], which only runs
    /// while the shared UM driver is swapped in.
    pub fn new(tid: TenantId, spec: TenantSpec, costs: CostModel, perf: PerfModel) -> Self {
        let mut driver = DeepumDriver::new(costs.clone(), spec.config.clone());
        let cfg = UmRunConfig {
            costs,
            perf,
            seed: spec.seed,
            plan: spec.plan.clone(),
            tracer: spec.traced.then(|| shared(Tracer::export())),
            ..UmRunConfig::new(spec.job.repetitions())
        };
        let run = UmRun::new("deepum", cfg, u64::from(tid.raw()) * VA_STRIDE, &mut driver);
        TenantRun {
            workload: spec.job.workload(),
            spec,
            tid,
            driver,
            run,
        }
    }

    /// Performs one unit of work. Must only be called while the
    /// tenant's slot is open on the shared driver.
    pub fn step(&mut self) -> StepOutcome {
        self.run
            .step(&self.workload, &mut self.driver, &TenantScope(self.tid))
    }
}
