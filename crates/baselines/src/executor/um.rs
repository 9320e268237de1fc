//! The UM execution path: naive UM and DeepUM.
//!
//! Replays a workload's step program against a UM backend:
//!
//! * allocations go through the PyTorch caching allocator whose segments
//!   come from UM space (host-memory bound — oversubscription);
//! * PT-block state changes and segment releases are forwarded to the
//!   driver through the runtime's interposition layer;
//! * every kernel is intercepted (execution-ID assignment + callback)
//!   and executed by the GPU engine, which raises page faults for
//!   non-resident pages and lets the backend overlap prefetch traffic
//!   with compute;
//! * DLRM-style gathers are sampled per iteration with a seeded RNG and
//!   cached per table so forward lookup and backward update touch the
//!   same rows.
//!
//! The pass is one resumable stepper, [`UmRun`], that performs one unit
//! of work (an allocation, a free, a kernel launch, or a restore) per
//! [`UmRun::step`]. [`run_um`] steps it to completion; the multi-tenant
//! scheduler steps one per tenant while that tenant's slot is open.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};

use deepum_core::ckpt::{CheckpointRing, Generation, RecoveryError, DEFAULT_RING_DEPTH};
use deepum_core::recovery::{JournalEntry, LaunchJournal, RecoveryReport};
use deepum_gpu::engine::{BackendError, EngineError, EngineSnapshot, GpuEngine, UmBackend};
use deepum_gpu::fault::AccessKind;
use deepum_gpu::kernel::{BlockAccess, KernelLaunch};
use deepum_mem::{u64_from_usize, BlockNum, ByteRange, PageMask, UmAddr, PAGE_SIZE};
use deepum_runtime::interpose::{CudaRuntime, LaunchObserver};
use deepum_sim::clock::SimClock;
use deepum_sim::costs::CostModel;
use deepum_sim::energy::EnergyMeter;
use deepum_sim::faultinject::{
    BackendHealth, InjectionPlan, SharedInjector, TransientInjectorState,
};
use deepum_sim::metrics::Counters;
use deepum_sim::rng::DetRng;
use deepum_sim::time::Ns;
use deepum_torch::alloc::{AllocError, CachingAllocator, PtBlockId, PtEvent};
use deepum_torch::perf::PerfModel;
use deepum_torch::step::{GatherAccess, KernelStep, Step, TensorId, Workload};
use deepum_trace::{InjectKind, SharedTracer, TraceEvent};
use deepum_um::snapshot::{
    read_counters, write_counters, SnapshotError, SnapshotReader, SnapshotWriter,
};

use crate::report::{HealthReport, IterStats, PressureReport, RunError, RunReport, WearReport};

/// Kernel boundaries the journal holds before a checkpoint is forced.
const JOURNAL_CAPACITY: usize = 256;

/// Restores a run survives before it reports a typed recovery failure.
const MAX_RESTORES: u64 = 64;

/// Default checkpoint cadence (kernel launches) when the plan schedules
/// hard faults but the config does not pick one.
const DEFAULT_CHECKPOINT_EVERY: u64 = 8;

/// Configuration of a UM-path run.
#[derive(Debug, Clone)]
pub struct UmRunConfig {
    /// Training iterations to execute (the first is the cold warm-up).
    pub iterations: usize,
    /// Platform cost model (also defines device/host capacity).
    pub costs: CostModel,
    /// Kernel-time model.
    pub perf: PerfModel,
    /// Seed for the data-dependent gathers.
    pub seed: u64,
    /// Fault-injection plan; the default (empty) plan changes nothing.
    pub plan: InjectionPlan,
    /// Assert the backend's invariants after every fault drain (used by
    /// injection tests; walks the backend's block map, so off by
    /// default).
    pub validate_after_drain: bool,
    /// Checkpoint cadence in kernel launches. `None` enables
    /// checkpointing only when the plan schedules hard faults (at
    /// [`DEFAULT_CHECKPOINT_EVERY`]); `Some(n)` forces a checkpoint
    /// every `n` launches regardless of the plan.
    pub checkpoint_every: Option<u64>,
    /// Structured-event tracer. `None` (the default) leaves every layer
    /// untraced and the report without a trace section — byte-identical
    /// to a build that never heard of tracing.
    pub tracer: Option<SharedTracer>,
}

impl UmRunConfig {
    /// A config on the paper's primary platform.
    pub fn new(iterations: usize) -> Self {
        UmRunConfig {
            iterations,
            costs: CostModel::v100_32gb(),
            perf: PerfModel::v100(),
            seed: 0x5eed,
            plan: InjectionPlan::default(),
            validate_after_drain: false,
            checkpoint_every: None,
            tracer: None,
        }
    }

    /// The effective checkpoint cadence: the configured one, or the
    /// default when the plan makes hard faults possible.
    fn checkpoint_cadence(&self) -> Option<u64> {
        self.checkpoint_every
            .or_else(|| {
                self.plan
                    .has_hard_faults()
                    .then_some(DEFAULT_CHECKPOINT_EVERY)
            })
            .map(|n| n.max(1))
    }
}

/// How a run reads its backend: the counters its iterations and report
/// record, and the resident set a restore refills over PCIe. A plain
/// `Fn(&B) -> Counters` closure is a scope over the whole device.
pub trait RunScope<B> {
    /// The counters the run attributes to itself.
    fn counters(&self, backend: &B) -> Counters;
    /// Pages a device reset wiped that the run must fault back in.
    fn resident_pages(&self, backend: &B) -> u64;
}

impl<B: UmBackend, F: Fn(&B) -> Counters> RunScope<B> for F {
    fn counters(&self, backend: &B) -> Counters {
        self(backend)
    }

    fn resident_pages(&self, backend: &B) -> u64 {
        backend.resident_pages()
    }
}

/// What one [`UmRun::step`] call accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// One unit of work ran; `kernel` is true when it launched a kernel
    /// (the unit the multi-tenant scheduler's priority quota counts).
    Ran {
        /// Whether the unit launched a kernel.
        kernel: bool,
    },
    /// The run already completed every iteration; nothing was done.
    Done,
    /// The run terminated with an error (see [`UmRun::error`]).
    Failed,
}

type TensorMap = BTreeMap<TensorId, (PtBlockId, ByteRange)>;

/// Everything the run loop mutates that lives *outside* the backend,
/// runtime, allocator, and engine. A checkpoint serializes it next to
/// their images; a restore decodes it back.
struct LoopState {
    clock: SimClock,
    energy: EnergyMeter,
    rng: DetRng,
    tensors: TensorMap,
    /// Gather samples are stable within an iteration (forward lookup and
    /// backward update touch the same rows) and resampled across
    /// iterations (fresh minibatch).
    gather_cache: BTreeMap<TensorId, Vec<BlockAccess>>,
    iters: Vec<IterStats>,
    /// Current iteration index.
    iter: usize,
    /// Next step to execute within the iteration.
    step: usize,
    /// Iteration start time.
    t0: Ns,
    /// Counter baseline at iteration start.
    c0: Counters,
    /// Compute time accumulated this iteration.
    compute: Ns,
    /// Stall time accumulated this iteration.
    stall: Ns,
    /// Global kernel-launch sequence number (the next launch's seq).
    kernel_seq: u64,
}

/// Serializes a full checkpoint — the component images plus the loop
/// state — into one self-validating snapshot envelope. This is the
/// durable image a [`CheckpointRing`] generation stores; everything the
/// run needs to resume round-trips through these bytes, so a corruption
/// of the stored image is always caught by the envelope checksum at
/// restore time.
fn encode_checkpoint(
    st: &LoopState,
    backend: &[u8],
    runtime: &[u8],
    allocator: &[u8],
    engine: &EngineSnapshot,
) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.blob(backend);
    w.blob(runtime);
    w.blob(allocator);
    let mut eng = Vec::with_capacity(EngineSnapshot::ENCODED_LEN);
    engine.encode_into(&mut eng);
    w.blob(&eng);
    encode_loop_state(st, &mut w);
    w.finish()
}

/// Appends the loop state — clock, energy accumulators, RNG, tensor
/// map, gather cache, finished iterations, and the run position — to a
/// checkpoint image. The maps iterate in key order, so the image is
/// byte-stable across runs.
fn encode_loop_state(st: &LoopState, w: &mut SnapshotWriter) {
    w.ns(st.clock.now());
    let (joules_bits, times) = st.energy.accum_state();
    w.u64(joules_bits);
    for t in times {
        w.u64(t);
    }
    for word in st.rng.state() {
        w.u64(word);
    }

    w.u64(u64_from_usize(st.tensors.len()));
    for (id, (block, range)) in &st.tensors {
        w.u32(id.0);
        w.u64(block.raw());
        w.u64(range.start().raw());
        w.u64(range.len());
    }

    w.u64(u64_from_usize(st.gather_cache.len()));
    for (id, accesses) in &st.gather_cache {
        w.u32(id.0);
        w.u64(u64_from_usize(accesses.len()));
        for a in accesses {
            w.block(a.block);
            w.mask(&a.pages);
            w.bool(a.kind == AccessKind::Write);
        }
    }

    w.u64(u64_from_usize(st.iters.len()));
    for i in &st.iters {
        w.ns(i.elapsed);
        w.ns(i.compute);
        w.ns(i.stall);
        write_counters(&i.counters, w);
    }

    w.u64(u64_from_usize(st.iter));
    w.u64(u64_from_usize(st.step));
    w.ns(st.t0);
    write_counters(&st.c0, w);
    w.ns(st.compute);
    w.ns(st.stall);
    w.u64(st.kernel_seq);
}

/// Decodes the loop state written by [`encode_loop_state`].
fn decode_loop_state(r: &mut SnapshotReader<'_>) -> Result<LoopState, SnapshotError> {
    let mut clock = SimClock::new();
    clock.advance_to(r.ns()?);
    let mut energy = EnergyMeter::new();
    let joules_bits = r.u64()?;
    let mut times = [0u64; 4];
    for t in &mut times {
        *t = r.u64()?;
    }
    energy.restore_accum(joules_bits, times);
    let mut rng_state = [0u64; 4];
    for word in &mut rng_state {
        *word = r.u64()?;
    }
    let rng = DetRng::from_state(rng_state);

    let num_tensors = r.len_prefix(4 + 8 + 8 + 8)?;
    let mut tensors = TensorMap::new();
    for _ in 0..num_tensors {
        let id = TensorId(r.u32()?);
        let block = PtBlockId::from_raw(r.u64()?);
        let start = UmAddr::new(r.u64()?);
        let len = r.u64()?;
        tensors.insert(id, (block, ByteRange::new(start, len)));
    }

    let num_gathers = r.len_prefix(4 + 8)?;
    let mut gather_cache = BTreeMap::new();
    for _ in 0..num_gathers {
        let id = TensorId(r.u32()?);
        let num_accesses = r.len_prefix(8 + 64 + 1)?;
        let mut accesses = Vec::with_capacity(num_accesses);
        for _ in 0..num_accesses {
            let block = r.block()?;
            let pages = r.mask()?;
            let kind = if r.bool()? {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            accesses.push(BlockAccess::new(block, pages, kind));
        }
        gather_cache.insert(id, accesses);
    }

    let num_iters = r.len_prefix(8 * 3)?;
    let mut iters = Vec::with_capacity(num_iters);
    for _ in 0..num_iters {
        let elapsed = r.ns()?;
        let compute = r.ns()?;
        let stall = r.ns()?;
        let counters = read_counters(r)?;
        iters.push(IterStats {
            elapsed,
            compute,
            stall,
            counters,
        });
    }

    let iter = r.u64()? as usize;
    let step = r.u64()? as usize;
    let t0 = r.ns()?;
    let c0 = read_counters(r)?;
    let compute = r.ns()?;
    let stall = r.ns()?;
    let kernel_seq = r.u64()?;
    Ok(LoopState {
        clock,
        energy,
        rng,
        tensors,
        gather_cache,
        iters,
        iter,
        step,
        t0,
        c0,
        compute,
        stall,
        kernel_seq,
    })
}

/// Restores every run component from one stored checkpoint image. The
/// envelope checksum is verified before anything is mutated, so a
/// corrupt generation fails cleanly and the caller can fall back to an
/// older one.
fn try_restore_image<B: UmBackend>(
    image: &[u8],
    backend: &mut B,
    runtime: &mut CudaRuntime,
    allocator: &mut CachingAllocator,
    engine: &mut GpuEngine,
) -> Result<LoopState, String> {
    let mut r = SnapshotReader::new(image).map_err(|e| e.to_string())?;
    let backend_image = r.blob().map_err(|e| e.to_string())?;
    let runtime_image = r.blob().map_err(|e| e.to_string())?;
    let allocator_image = r.blob().map_err(|e| e.to_string())?;
    let engine_image = r.blob().map_err(|e| e.to_string())?;
    backend
        .restore_state(backend_image)
        .map_err(|e| format!("backend restore failed: {e}"))?;
    runtime
        .restore(runtime_image)
        .map_err(|e| format!("runtime restore failed: {e}"))?;
    allocator
        .restore(allocator_image)
        .map_err(|e| format!("allocator restore failed: {e}"))?;
    let engine_snap = EngineSnapshot::decode_from(engine_image)?;
    engine.restore(&engine_snap);
    let state = decode_loop_state(&mut r).map_err(|e| e.to_string())?;
    r.finish().map_err(|e| e.to_string())?;
    backend
        .validate()
        .map_err(|e| format!("restored backend failed validation: {e}"))?;
    Ok(state)
}

/// Emits one trace event when the run is traced.
fn emit(tracer: &Option<SharedTracer>, now: Ns, event: TraceEvent) {
    if let Some(tr) = tracer {
        tr.borrow_mut().emit(now.as_nanos(), event);
    }
}

/// Maps a caching-allocator failure to the run's typed error; `what`
/// names the allocation in the message.
pub fn alloc_error(e: AllocError, what: &str) -> RunError {
    match e {
        AllocError::OutOfMemory { requested } => RunError::OutOfMemory(format!(
            "{what} of {requested} bytes exceeds the UM backing store"
        )),
        AllocError::ZeroSize => RunError::Unsupported(format!("zero-size {what}")),
    }
}

/// Maps a kernel the engine could not finish to the run's typed error.
/// A kernel pinning more pages than the device holds is terminal: no
/// eviction order fixes that.
pub fn engine_error(e: EngineError) -> RunError {
    match e {
        EngineError::Backend(BackendError::CapacityExceeded {
            needed_pages,
            capacity_pages,
        }) => RunError::WorkingSetExceedsDevice {
            needed_pages,
            capacity_pages,
        },
        e => RunError::Driver(e.to_string()),
    }
}

/// Drains allocator events into driver notifications.
pub fn forward_events<B: LaunchObserver>(
    events: &mut Vec<PtEvent>,
    runtime: &mut CudaRuntime,
    backend: &mut B,
    now: Ns,
) {
    for event in events.drain(..) {
        match event {
            PtEvent::Active(range) => runtime.notify_pt_block(now, range, false, backend),
            PtEvent::Inactive(range) => runtime.notify_pt_block(now, range, true, backend),
            PtEvent::Released(range) => backend.on_um_range_released(now, range),
        }
    }
}

/// A resumable UM-path run: the stack that replays a workload's step
/// program against a backend; the caller passes both to every step.
pub struct UmRun {
    /// Report label, also named by the checkpointing error.
    system: String,
    cfg: UmRunConfig,
    runtime: CudaRuntime,
    allocator: CachingAllocator,
    engine: GpuEngine,
    injector: Option<SharedInjector>,
    st: LoopState,
    events: Vec<PtEvent>,
    /// Checkpoint cadence; `None` leaves the recovery machinery off.
    cadence: Option<u64>,
    recovery: Option<RecoveryReport>,
    ring: CheckpointRing<Option<TransientInjectorState>>,
    checkpoint_due: bool,
    journal: LaunchJournal,
    /// Extra generations consumed by restores skipping corrupt images.
    fallback_generations: u64,
    persistent_done: bool,
    done: bool,
    error: Option<RunError>,
}

impl UmRun {
    /// Builds the run's private stack and installs the plan's injector
    /// and the config's tracer on `backend` and the engine. `va_base`
    /// is where the run's UM space starts allocating. No backend work
    /// happens until the first [`UmRun::step`].
    pub fn new<B: UmBackend>(
        system: &str,
        cfg: UmRunConfig,
        va_base: u64,
        backend: &mut B,
    ) -> Self {
        let runtime = CudaRuntime::with_va_base(
            cfg.costs.host_memory_bytes,
            va_base,
            cfg.costs.launch_intercept_cost,
        );
        let mut engine = GpuEngine::new();
        // An empty plan installs no injector at all, keeping the run
        // bit-identical to one that never heard of fault injection.
        let injector = if cfg.plan.is_empty() {
            None
        } else {
            Some(cfg.plan.build_shared())
        };
        if let Some(inj) = &injector {
            backend.install_injector(inj.clone());
            engine.set_injector(inj.clone());
        }
        engine.set_validate_after_drain(cfg.validate_after_drain);
        if let Some(tr) = &cfg.tracer {
            backend.install_tracer(tr.clone());
            engine.set_tracer(tr.clone());
        }
        // Checkpointing is active when hard faults can happen or the
        // config asked for it; otherwise stepping is behaviorally
        // identical to a plain nested iteration/step walk.
        let cadence = cfg.checkpoint_cadence();
        let st = LoopState {
            clock: SimClock::new(),
            energy: EnergyMeter::new(),
            rng: DetRng::seed(cfg.seed),
            tensors: TensorMap::new(),
            gather_cache: BTreeMap::new(),
            iters: Vec::with_capacity(cfg.iterations),
            iter: 0,
            step: 0,
            t0: Ns::ZERO,
            c0: Counters::new(),
            compute: Ns::ZERO,
            stall: Ns::ZERO,
            kernel_seq: 0,
        };
        UmRun {
            system: system.into(),
            cfg,
            runtime,
            allocator: CachingAllocator::new(),
            engine,
            injector,
            st,
            events: Vec::new(),
            cadence,
            recovery: cadence.map(|_| RecoveryReport::default()),
            ring: CheckpointRing::new(DEFAULT_RING_DEPTH),
            checkpoint_due: cadence.is_some(),
            journal: LaunchJournal::new(JOURNAL_CAPACITY),
            fallback_generations: 0,
            persistent_done: false,
            done: false,
            error: None,
        }
    }

    /// Performs one unit of `workload`'s program against `backend`. A
    /// failed unit records its error and every later call returns
    /// [`StepOutcome::Failed`]. Every call must pass the same workload.
    pub fn step<B, S>(&mut self, workload: &Workload, backend: &mut B, scope: &S) -> StepOutcome
    where
        B: UmBackend + LaunchObserver,
        S: RunScope<B>,
    {
        if self.error.is_some() {
            return StepOutcome::Failed;
        }
        if self.done {
            return StepOutcome::Done;
        }
        match self.advance(workload, backend, scope) {
            Ok(outcome) => outcome,
            Err(e) => {
                self.error = Some(e);
                StepOutcome::Failed
            }
        }
    }

    /// The run's virtual time.
    pub fn now(&self) -> Ns {
        self.st.clock.now()
    }

    /// Advances the run's clock by time spent outside its own steps.
    pub fn advance_clock(&mut self, delta: Ns) {
        self.st.clock.advance(delta);
    }

    /// Whole-stack energy consumed so far, joules.
    pub fn energy_joules(&self) -> f64 {
        self.st.energy.joules()
    }

    /// The run's tracer, if the config installed one.
    pub fn tracer(&self) -> Option<SharedTracer> {
        self.cfg.tracer.clone()
    }

    /// The run's fault injector, if its plan is non-empty.
    pub fn injector(&self) -> Option<SharedInjector> {
        self.injector.clone()
    }

    /// True once every iteration ran to completion.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Terminal error, if the run failed.
    pub fn error(&self) -> Option<&RunError> {
        self.error.as_ref()
    }

    /// Terminates the run with an error observed outside its steps. The
    /// first error wins; a finished run is left alone.
    pub fn fail(&mut self, e: RunError) {
        if self.error.is_none() && !self.done {
            self.error = Some(e);
        }
    }

    /// Per-iteration statistics accumulated so far.
    pub fn iters(&self) -> &[IterStats] {
        &self.st.iters
    }

    /// Checkpoint/restore summary, when the recovery machinery is on.
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Extra checkpoint generations the restores consumed skipping
    /// corrupt images.
    pub fn recovery_generations(&self) -> u64 {
        self.fallback_generations
    }

    /// Builds the report of a run stepped to its end.
    ///
    /// # Errors
    ///
    /// The error the run terminated with.
    pub fn into_report<B, S>(
        self,
        workload: &Workload,
        backend: &B,
        scope: &S,
    ) -> Result<RunReport, RunError>
    where
        B: UmBackend,
        S: RunScope<B>,
    {
        if let Some(e) = self.error {
            return Err(e);
        }

        // The health section appears when anything robustness-related
        // happened: transient faults were injectable, or the backend
        // degraded. A purely hard-fault plan leaves it out so such runs
        // stay byte-identical to plan-free ones (modulo the recovery
        // section).
        let backend_health = backend.health();
        let health = if self.cfg.plan.has_transients() || backend_health != BackendHealth::default()
        {
            Some(HealthReport {
                injected: self
                    .injector
                    .as_ref()
                    .map(|i| *i.borrow().stats())
                    .unwrap_or_default(),
                backend: backend_health,
            })
        } else {
            None
        };

        // The wear section appears when the device actually wore (a page
        // was retired) or a restore fell back past a corrupt generation;
        // otherwise it is omitted and the report stays byte-identical to
        // pre-wear builds.
        let wear_stats = backend.wear();
        let wear = if wear_stats.is_some() || self.fallback_generations > 0 {
            Some(WearReport {
                retired_pages: wear_stats.map_or(0, |w| w.retired_pages),
                remigrations: wear_stats.map_or(0, |w| w.remigrated_pages),
                recovery_generations: self.fallback_generations,
            })
        } else {
            None
        };

        Ok(RunReport {
            workload: workload.name.clone(),
            system: self.system,
            total: self.st.clock.now(),
            energy_joules: self.st.energy.joules(),
            iters: self.st.iters,
            counters: scope.counters(backend),
            table_bytes: None,
            health,
            recovery: self.recovery,
            trace: self.cfg.tracer.as_ref().map(|t| t.borrow_mut().report()),
            pressure: backend.pressure().map(|p| PressureReport {
                final_level: p.level,
                peak_score_pct: p.peak_score_pct,
                refaults: p.refaults,
                cooldown_skips: p.cooldown_skips,
                level_changes: p.level_changes,
                window_resizes: p.window_resizes,
            }),
            tenants: None,
            serving: None,
            wear,
        })
    }

    /// One unit of work: the persistent allocations (first), then one
    /// step of the program, or a restore when a hard fault hits.
    fn advance<B, S>(
        &mut self,
        workload: &Workload,
        backend: &mut B,
        scope: &S,
    ) -> Result<StepOutcome, RunError>
    where
        B: UmBackend + LaunchObserver,
        S: RunScope<B>,
    {
        if !self.persistent_done {
            for spec in &workload.persistent {
                self.alloc_tensor(spec.id, spec.bytes, backend)?;
            }
            self.persistent_done = true;
            self.st.t0 = self.st.clock.now();
            self.st.c0 = scope.counters(backend);
            return Ok(StepOutcome::Ran { kernel: false });
        }
        if self.st.iter >= self.cfg.iterations {
            self.finish();
            return Ok(StepOutcome::Done);
        }
        // Checkpoints land on kernel boundaries: the position (iter,
        // step) plus the component images fully determine the rest of
        // the run.
        if self.checkpoint_due {
            self.take_checkpoint(backend)?;
        }

        let mut kernel = false;
        match workload.steps.get(self.st.step) {
            Some(Step::Alloc(spec)) => self.alloc_tensor(spec.id, spec.bytes, backend)?,
            Some(Step::Free(id)) => {
                let (block, _) = self
                    .st
                    .tensors
                    .remove(id)
                    .ok_or_else(|| RunError::Driver(format!("free of unmapped tensor {id}")))?;
                self.allocator.free(block, &mut self.events);
                forward_events(
                    &mut self.events,
                    &mut self.runtime,
                    backend,
                    self.st.clock.now(),
                );
            }
            Some(Step::Kernel(k)) => {
                if !self.launch(k, backend, scope)? {
                    return Ok(StepOutcome::Ran { kernel: false });
                }
                kernel = true;
            }
            None => {
                return Err(RunError::Driver(format!(
                    "step index {} out of bounds",
                    self.st.step
                )))
            }
        }

        self.st.step += 1;
        if self.st.step == workload.steps.len() {
            let elapsed = self.st.clock.now() - self.st.t0;
            let c = scope.counters(backend);
            self.st.iters.push(IterStats {
                elapsed,
                compute: self.st.compute,
                stall: self.st.stall,
                counters: c.delta_since(&self.st.c0),
            });
            self.st.iter += 1;
            self.st.step = 0;
            self.st.t0 = self.st.clock.now();
            self.st.c0 = c;
            self.st.compute = Ns::ZERO;
            self.st.stall = Ns::ZERO;
            self.st.gather_cache.clear();
            if self.st.iter >= self.cfg.iterations {
                self.finish();
            }
        }
        Ok(StepOutcome::Ran { kernel })
    }

    /// Marks the run complete and records the ECC hits it absorbed.
    fn finish(&mut self) {
        if let (Some(rec), Some(inj)) = (self.recovery.as_mut(), self.injector.as_ref()) {
            rec.ecc_poisonings = inj.borrow().ecc_hits();
        }
        self.done = true;
    }

    /// Emits a trace event stamped with the run's clock.
    fn trace(&self, event: TraceEvent) {
        emit(&self.cfg.tracer, self.st.clock.now(), event);
    }

    /// Launches one kernel. Returns false when a hard fault rewound the
    /// run to a checkpoint instead.
    fn launch<B, S>(&mut self, k: &KernelStep, backend: &mut B, scope: &S) -> Result<bool, RunError>
    where
        B: UmBackend + LaunchObserver,
        S: RunScope<B>,
    {
        // A scheduled device reset fires at this launch's sequence
        // number, before the kernel runs.
        let seq = self.st.kernel_seq;
        let reset = self
            .injector
            .as_ref()
            .is_some_and(|inj| inj.borrow_mut().take_scheduled_reset(seq));
        if reset {
            self.trace(TraceEvent::InjectedFault {
                kind: InjectKind::DeviceReset,
            });
            self.recover("scheduled device reset", backend, scope)?;
            return Ok(false);
        }
        if self.cadence.is_some() {
            let entry = JournalEntry {
                seq,
                iter: self.st.iter as u64,
                step: self.st.step as u64,
            };
            // A full journal means too much un-checkpointed work: force
            // checkpoints until one evicts enough to record the entry.
            // After a full ring of them every generation's mark is this
            // seq, so the journal is empty.
            let mut forced = 0;
            while !self.journal.record(entry) {
                if forced == DEFAULT_RING_DEPTH {
                    return Err(RunError::Driver(
                        "launch journal rejected an entry after a full ring of checkpoints".into(),
                    ));
                }
                self.take_checkpoint(backend)?;
                forced += 1;
            }
        }
        let launch = build_launch(
            k,
            &self.st.tensors,
            &mut self.st.gather_cache,
            &mut self.st.rng,
            &self.cfg.perf,
        )?;
        let (_exec, intercept) = self.runtime.launch(self.st.clock.now(), &launch, backend);
        self.st.clock.advance(intercept);
        if let Some(inj) = &self.injector {
            let delay = inj.borrow_mut().roll_launch_delay();
            if let Some(delay) = delay {
                self.trace(TraceEvent::InjectedFault {
                    kind: InjectKind::LaunchDelay,
                });
                self.st.clock.advance(delay);
            }
        }
        self.trace(TraceEvent::KernelBegin {
            seq,
            name: launch.name.to_string(),
        });
        match self
            .engine
            .execute(&launch, &mut self.st.clock, backend, &mut self.st.energy)
        {
            Ok(stats) => {
                self.st.compute += stats.compute;
                self.st.stall += stats.stall;
                self.trace(TraceEvent::KernelEnd {
                    seq,
                    faults: stats.faults,
                    stall_ns: stats.stall.as_nanos(),
                });
            }
            Err(EngineError::Backend(BackendError::DriverCrash)) => {
                self.trace(TraceEvent::InjectedFault {
                    kind: InjectKind::DriverCrash,
                });
                self.recover("driver crash during fault drain", backend, scope)?;
                return Ok(false);
            }
            Err(e) => return Err(engine_error(e)),
        }
        self.st.kernel_seq += 1;
        if let Some(every) = self.cadence {
            if self.st.kernel_seq.is_multiple_of(every) {
                self.checkpoint_due = true;
            }
        }
        Ok(true)
    }

    fn alloc_tensor<B: LaunchObserver>(
        &mut self,
        id: TensorId,
        bytes: u64,
        backend: &mut B,
    ) -> Result<(), RunError> {
        let (block, range) = self
            .allocator
            .alloc(bytes, &mut self.runtime, &mut self.events)
            .map_err(|e| alloc_error(e, &format!("tensor {id}")))?;
        self.st.tensors.insert(id, (block, range));
        forward_events(
            &mut self.events,
            &mut self.runtime,
            backend,
            self.st.clock.now(),
        );
        Ok(())
    }

    fn take_checkpoint<B: UmBackend>(&mut self, backend: &B) -> Result<(), RunError> {
        self.checkpoint_due = false;
        let backend_image = backend.snapshot_state().ok_or_else(|| {
            RunError::Unsupported(format!(
                "{} backend does not support checkpointing, \
                 required by the hard-fault plan",
                self.system
            ))
        })?;
        let runtime_image = self.runtime.snapshot();
        let allocator_image = self.allocator.snapshot();
        // The reported checkpoint size keeps its pre-ring lens — the
        // component images — so crash-free traces stay byte-stable.
        let section_bytes =
            u64_from_usize(backend_image.len() + runtime_image.len() + allocator_image.len());
        let mut image = encode_checkpoint(
            &self.st,
            &backend_image,
            &runtime_image,
            &allocator_image,
            &self.engine.snapshot(),
        );
        // A scheduled or sampled storage fault damages the image
        // *silently*, like a real torn write; nothing notices until a
        // restore validates the envelope.
        if let Some(inj) = &self.injector {
            let corruption = inj
                .borrow_mut()
                .take_ckpt_corruption(u64_from_usize(image.len()));
            if let Some(c) = corruption {
                c.apply(&mut image);
            }
        }
        self.ring.store(Generation {
            image,
            journal_mark: self.st.kernel_seq,
            extra: self
                .injector
                .as_ref()
                .map(|i| i.borrow().transient_snapshot()),
        });
        if let Some(rec) = self.recovery.as_mut() {
            rec.checkpoints += 1;
            rec.snapshot_bytes = section_bytes;
        }
        self.trace(TraceEvent::Checkpoint {
            bytes: section_bytes,
        });
        // Journal entries older than the oldest retained generation can
        // never be replayed again.
        if let Some(mark) = self.ring.oldest_mark() {
            self.journal.evict_before(mark);
        }
        Ok(())
    }

    /// Rewinds the whole run to the newest restorable checkpoint
    /// generation after a hard fault and charges the downtime (reset
    /// penalty + demand-only refill of the scope's restored resident
    /// set) to the recovery report, out of band of the simulation clock
    /// so recovered runs stay byte-comparable to uninterrupted ones.
    ///
    /// The ring is walked newest-first: a generation whose stored image
    /// fails its envelope checksum (torn write, truncation, bit flip) is
    /// traced as [`TraceEvent::CheckpointCorrupt`] and the next-older one
    /// is tried, replaying a correspondingly longer journal segment.
    /// Every generation failing surfaces the typed
    /// [`RunError::AllCheckpointsCorrupt`].
    fn recover<B, S>(&mut self, reason: &str, backend: &mut B, scope: &S) -> Result<(), RunError>
    where
        B: UmBackend,
        S: RunScope<B>,
    {
        let Some(rec) = self.recovery.as_mut() else {
            return Err(RunError::Recovery(format!(
                "{reason} without checkpointing"
            )));
        };
        rec.restores += 1;
        if rec.restores > MAX_RESTORES {
            return Err(RunError::Recovery(format!(
                "gave up after {MAX_RESTORES} restores (last hard fault: {reason})"
            )));
        }
        // Corrupt-generation events are stamped at crash time; the clock
        // has not been rewound yet.
        let crash_now = self.st.clock.now();
        let UmRun {
            ring,
            runtime,
            allocator,
            engine,
            cfg,
            ..
        } = self;
        let restored = ring.restore_with(
            |generation| {
                try_restore_image(&generation.image, backend, runtime, allocator, engine)
                    .map(|state| (state, generation.journal_mark, generation.extra.clone()))
            },
            |index, _err| {
                emit(
                    &cfg.tracer,
                    crash_now,
                    TraceEvent::CheckpointCorrupt { generation: index },
                );
            },
        );
        let (generation, (state, mark, transient)) = match restored {
            Ok(ok) => ok,
            Err(RecoveryError::NoCheckpoint) => {
                return Err(RunError::Recovery(format!(
                    "{reason} before the first checkpoint"
                )))
            }
            Err(RecoveryError::AllCheckpointsCorrupt { generations }) => {
                return Err(RunError::AllCheckpointsCorrupt { generations })
            }
        };

        let replayed = u64_from_usize(self.journal.since(mark));
        self.journal.truncate_to(mark);
        self.st = state;
        if let (Some(inj), Some(tr)) = (&self.injector, &transient) {
            inj.borrow_mut().restore_transient(tr);
        }
        if generation > 0 {
            self.fallback_generations += generation;
            self.trace(TraceEvent::RecoveryFellBack {
                generations: generation,
                replayed,
            });
        }

        // The reset wiped device memory: every page the checkpoint had
        // resident comes back over PCIe at demand-paging granularity
        // before the replay reaches steady state.
        let refill = self
            .cfg
            .costs
            .transfer_time(scope.resident_pages(backend) * PAGE_SIZE as u64);
        if let Some(rec) = self.recovery.as_mut() {
            rec.replay_kernels += replayed;
            rec.downtime_ns = rec
                .downtime_ns
                .saturating_add(self.cfg.plan.reset_penalty.as_nanos())
                .saturating_add(refill.as_nanos());
        }
        self.trace(TraceEvent::Restored { replayed });
        Ok(())
    }
}

/// Runs `workload` against `backend` (naive UM, DeepUM, or an ablation).
///
/// `system` labels the report. The backend's counters are sampled through
/// the `counters` closure because the trait surface does not expose them.
///
/// # Errors
///
/// [`RunError::OutOfMemory`] when the UM backing store (host memory)
/// cannot hold the workload — the bound probed by Table 3.
pub fn run_um<B, F>(
    workload: &Workload,
    backend: &mut B,
    system: &str,
    cfg: &UmRunConfig,
    counters: F,
) -> Result<RunReport, RunError>
where
    B: UmBackend + LaunchObserver,
    F: Fn(&B) -> Counters,
{
    let mut run = UmRun::new(system, cfg.clone(), 0, backend);
    while let StepOutcome::Ran { .. } = run.step(workload, backend, &counters) {}
    run.into_report(workload, backend, &counters)
}

/// Converts a kernel step into a concrete launch with block accesses.
fn build_launch(
    k: &KernelStep,
    tensors: &TensorMap,
    gather_cache: &mut BTreeMap<TensorId, Vec<BlockAccess>>,
    rng: &mut DetRng,
    perf: &PerfModel,
) -> Result<KernelLaunch, RunError> {
    let mut accesses = Vec::new();
    let mut bytes = 0u64;
    for (ids, kind) in [(&k.reads, AccessKind::Read), (&k.writes, AccessKind::Write)] {
        for id in ids {
            let (_, range) = tensors
                .get(id)
                .ok_or_else(|| RunError::Driver(format!("kernel reads unmapped tensor {id}")))?;
            bytes += range.len();
            for (block, mask) in range.block_footprints() {
                accesses.push(BlockAccess::new(block, mask, kind));
            }
        }
    }
    for g in &k.gathers {
        let sample = match gather_cache.entry(g.table) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(sample_gather(g, tensors, rng)?),
        };
        bytes += sample
            .iter()
            .map(|a| a.pages.count() as u64 * PAGE_SIZE as u64)
            .sum::<u64>();
        accesses.extend(sample.iter().cloned());
    }
    Ok(KernelLaunch::new(
        k.name.clone(),
        &k.args,
        accesses,
        perf.kernel_time(k.flops, bytes),
    ))
}

/// Samples the pages touched by a gather: `lookups` skewed random rows of
/// the table, merged into per-block page masks in block order.
fn sample_gather(
    g: &GatherAccess,
    tensors: &TensorMap,
    rng: &mut DetRng,
) -> Result<Vec<BlockAccess>, RunError> {
    let (_, range) = tensors
        .get(&g.table)
        .ok_or_else(|| RunError::Driver(format!("gather of unmapped table {}", g.table)))?;
    let rows = range.len() / g.row_bytes as u64;
    if rows == 0 {
        return Ok(Vec::new());
    }
    let mut blocks: HashMap<BlockNum, PageMask> = HashMap::new();
    for _ in 0..g.lookups {
        let row = if g.skew > 0.0 {
            rng.zipf_like(rows, g.skew)
        } else {
            rng.below(rows)
        };
        let byte = range.start().raw() + row * g.row_bytes as u64;
        // A row may span two pages; touching its first page captures the
        // access pattern at fault granularity.
        let addr = UmAddr::new(byte);
        blocks
            .entry(addr.block())
            .or_insert_with(PageMask::empty)
            .set(addr.page().index_in_block());
    }
    let mut out: Vec<(BlockNum, PageMask)> = blocks.into_iter().collect();
    out.sort_unstable_by_key(|(b, _)| *b);
    Ok(out
        .into_iter()
        .map(|(b, m)| BlockAccess::new(b, m, AccessKind::Read))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveUm;
    use deepum_core::config::DeepumConfig;
    use deepum_core::driver::DeepumDriver;
    use deepum_mem::BLOCK_SIZE;
    use deepum_torch::models::ModelKind;
    use deepum_torch::step::TensorSpec;

    fn tiny_costs(device_mb: u64, host_mb: u64) -> CostModel {
        CostModel::v100_32gb()
            .with_device_memory(device_mb << 20)
            .with_host_memory(host_mb << 20)
    }

    #[test]
    fn mobilenet_runs_under_naive_um() {
        let w = ModelKind::MobileNet.build(8);
        let cfg = UmRunConfig {
            costs: tiny_costs(2048, 16384),
            seed: 1,
            ..UmRunConfig::new(2)
        };
        let mut backend = NaiveUm::new(cfg.costs.clone());
        let r = run_um(&w, &mut backend, "um", &cfg, |b| b.counters()).unwrap();
        assert_eq!(r.iters.len(), 2);
        assert!(r.counters.gpu_page_faults > 0);
        // Ample device memory: warm iteration has ~no faults.
        assert!(r.iters[1].counters.gpu_page_faults < r.iters[0].counters.gpu_page_faults / 10);
    }

    #[test]
    fn deepum_beats_naive_um_when_oversubscribed() {
        let w = ModelKind::MobileNet.build(48);
        // ~1.4x oversubscription (the paper's typical regime): the
        // MobileNet/b48 working set peaks around 115 MiB.
        let costs = tiny_costs(80, 32768);
        let cfg = UmRunConfig {
            costs: costs.clone(),
            seed: 1,
            ..UmRunConfig::new(3)
        };
        let mut um = NaiveUm::new(costs.clone());
        let um_report = run_um(&w, &mut um, "um", &cfg, |b| b.counters()).unwrap();

        // A modest look-ahead suits this tiny 87-kernel workload; the
        // bandwidth-bound regime punishes over-aggressive prefetching
        // (the paper's Fig. 11 effect).
        let dm_cfg = DeepumConfig::default().with_prefetch_degree(16);
        let mut dm = DeepumDriver::new(costs, dm_cfg);
        let dm_report = run_um(&w, &mut dm, "deepum", &cfg, |b| b.counters()).unwrap();

        assert!(
            dm_report.counters.pages_prefetched > 0,
            "DeepUM should prefetch"
        );
        assert!(
            dm_report.steady_faults_per_iter() < um_report.steady_faults_per_iter(),
            "deepum faults {} vs um faults {}",
            dm_report.steady_faults_per_iter(),
            um_report.steady_faults_per_iter()
        );
        assert!(
            dm_report.steady_iter_time() < um_report.steady_iter_time(),
            "deepum {} vs um {}",
            dm_report.steady_iter_time(),
            um_report.steady_iter_time()
        );
    }

    #[test]
    fn host_capacity_bounds_the_run() {
        let w = ModelKind::MobileNet.build(64);
        let need = w.peak_bytes();
        let cfg = UmRunConfig {
            costs: tiny_costs(64, (need / 4) >> 20),
            seed: 1,
            ..UmRunConfig::new(1)
        };
        let mut backend = NaiveUm::new(cfg.costs.clone());
        let err = run_um(&w, &mut backend, "um", &cfg, |b| b.counters()).unwrap_err();
        assert!(matches!(err, RunError::OutOfMemory(_)));
    }

    #[test]
    fn gather_sampling_is_deterministic() {
        let mut tensors = TensorMap::new();
        let range = ByteRange::new(deepum_mem::UmAddr::new(0), 64 * BLOCK_SIZE as u64);
        tensors.insert(TensorId(0), (Default::default(), range));
        let g = GatherAccess {
            table: TensorId(0),
            lookups: 1000,
            row_bytes: 512,
            skew: 1.05,
        };
        let a = sample_gather(&g, &tensors, &mut DetRng::seed(9)).unwrap();
        let b = sample_gather(&g, &tensors, &mut DetRng::seed(9)).unwrap();
        assert_eq!(a, b);
        assert!(!a.is_empty());
        // Skew concentrates mass near the start of the table.
        assert_eq!(a[0].block, BlockNum::new(0));
    }

    /// One iteration of a hand-built program under naive UM on a small
    /// platform.
    fn run_program(
        persistent: Vec<TensorSpec>,
        steps: Vec<Step>,
        checkpoint_every: Option<u64>,
    ) -> Result<RunReport, RunError> {
        let w = Workload {
            name: "hand-built".into(),
            model: "hand-built".into(),
            batch: 1,
            persistent,
            steps,
        };
        let cfg = UmRunConfig {
            costs: tiny_costs(64, 1024),
            checkpoint_every,
            ..UmRunConfig::new(1)
        };
        let mut backend = NaiveUm::new(cfg.costs.clone());
        run_um(&w, &mut backend, "um", &cfg, |b| b.counters())
    }

    fn weights() -> TensorSpec {
        TensorSpec {
            id: TensorId(0),
            bytes: BLOCK_SIZE as u64,
        }
    }

    fn kernel(name: &str, reads: Vec<TensorId>) -> KernelStep {
        KernelStep {
            name: name.into(),
            args: Vec::new(),
            reads,
            writes: Vec::new(),
            gathers: Vec::new(),
            flops: 1e6,
        }
    }

    /// A cadence longer than the journal: at seq 256 the journal is full
    /// while the ring still holds the generation at seq 0, so one forced
    /// checkpoint evicts nothing and a second (ring now 200, 256, 256)
    /// frees the entries before seq 200. Checkpoints land at seq 0, 200,
    /// 256 and 256.
    #[test]
    fn a_cadence_longer_than_the_journal_completes() {
        let steps = (0..300)
            .map(|_| Step::Kernel(kernel("k", vec![TensorId(0)])))
            .collect();
        let r = run_program(vec![weights()], steps, Some(200)).unwrap();
        assert_eq!(r.counters.kernels_launched, 300);
        assert_eq!(r.recovery.expect("recovery on").checkpoints, 4);
    }

    #[test]
    fn freeing_a_never_allocated_tensor_is_a_typed_error() {
        let err = run_program(Vec::new(), vec![Step::Free(TensorId(7))], None).unwrap_err();
        assert!(matches!(err, RunError::Driver(_)), "{err:?}");
    }

    #[test]
    fn a_kernel_reading_a_never_allocated_tensor_is_a_typed_error() {
        let step = Step::Kernel(kernel("reads-ghost", vec![TensorId(0), TensorId(9)]));
        let err = run_program(vec![weights()], vec![step], None).unwrap_err();
        assert!(matches!(err, RunError::Driver(_)), "{err:?}");
    }
}
