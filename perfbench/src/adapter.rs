//! A transparent timing adapter around any UM backend.
//!
//! [`Timed`] implements [`UmBackend`] and [`LaunchObserver`] by
//! delegating every method, defaulted ones included, to the wrapped
//! backend. A skipped default would silently fall back to the trait's
//! default body and drop a report section (health, pressure, wear), so
//! the wrapped run's report must stay byte-identical to the bare one;
//! `tests/transparent.rs` checks that.
//!
//! The per-call hot methods are timed with a monotonic clock and
//! binned into a [`Hist`]. `resident_miss` runs once per block access
//! and takes `&self`, so it is only counted; its time stays in the
//! caller's self time.

use std::cell::Cell;
use std::time::Instant;

use deepum_gpu::engine::{BackendError, PressureStats, UmBackend, WearStats};
use deepum_gpu::fault::FaultEntry;
use deepum_gpu::kernel::KernelLaunch;
use deepum_mem::{BlockNum, ByteRange, PageMask};
use deepum_runtime::exec_table::ExecId;
use deepum_runtime::interpose::LaunchObserver;
use deepum_sim::faultinject::{BackendHealth, SharedInjector};
use deepum_sim::time::Ns;
use deepum_trace::SharedTracer;
use deepum_um::hints::Advice;

use crate::hist::Hist;

/// The timed methods, in report order.
pub const METHODS: [&str; 6] = [
    "handle_faults",
    "overlap_compute",
    "on_kernel_launch",
    "on_pt_block_state",
    "kernel_finished",
    "touch",
];

const HANDLE_FAULTS: usize = 0;
const OVERLAP_COMPUTE: usize = 1;
const ON_KERNEL_LAUNCH: usize = 2;
const ON_PT_BLOCK_STATE: usize = 3;
const KERNEL_FINISHED: usize = 4;
const TOUCH: usize = 5;
/// Every other delegated call (rare: releases, advice, snapshots).
const OTHER: usize = 6;

/// Host time spent in one backend method.
#[derive(Clone, Default)]
pub struct Span {
    /// Total nanoseconds inside the method.
    pub total_ns: u64,
    /// Per-call durations.
    pub hist: Hist,
}

impl Span {
    /// Calls recorded.
    pub fn calls(&self) -> u64 {
        self.hist.count()
    }

    /// Total seconds inside the method.
    pub fn secs(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }
}

/// A backend wrapped with per-method timing.
pub struct Timed<B> {
    inner: B,
    spans: Vec<Span>,
    resident_miss_calls: Cell<u64>,
}

impl<B> Timed<B> {
    /// Wraps `inner`.
    pub fn new(inner: B) -> Self {
        Timed {
            inner,
            spans: vec![Span::default(); OTHER + 1],
            resident_miss_calls: Cell::new(0),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// The span of `METHODS[i]`.
    pub fn span(&self, i: usize) -> &Span {
        &self.spans[i]
    }

    /// Nanoseconds inside every timed call, hot methods and others.
    pub fn backend_ns(&self) -> u64 {
        self.spans.iter().map(|s| s.total_ns).sum()
    }

    /// Calls to `resident_miss` (counted, not timed).
    pub fn resident_miss_calls(&self) -> u64 {
        self.resident_miss_calls.get()
    }

    fn time<R>(&mut self, slot: usize, f: impl FnOnce(&mut B) -> R) -> R {
        let t = Instant::now();
        let out = f(&mut self.inner);
        let ns = t.elapsed().as_nanos() as u64;
        let span = &mut self.spans[slot];
        span.total_ns += ns;
        span.hist.record(ns);
        out
    }
}

impl<B: UmBackend> UmBackend for Timed<B> {
    fn resident_miss(&self, block: BlockNum, pages: &PageMask) -> PageMask {
        self.resident_miss_calls
            .set(self.resident_miss_calls.get() + 1);
        self.inner.resident_miss(block, pages)
    }

    fn handle_faults(&mut self, now: Ns, faults: &[FaultEntry]) -> Result<Ns, BackendError> {
        self.time(HANDLE_FAULTS, |b| b.handle_faults(now, faults))
    }

    fn touch(&mut self, now: Ns, block: BlockNum, pages: &PageMask) {
        self.time(TOUCH, |b| b.touch(now, block, pages));
    }

    fn overlap_compute(&mut self, now: Ns, dur: Ns) -> Ns {
        self.time(OVERLAP_COMPUTE, |b| b.overlap_compute(now, dur))
    }

    fn kernel_finished(&mut self, now: Ns) {
        self.time(KERNEL_FINISHED, |b| b.kernel_finished(now));
    }

    fn install_injector(&mut self, injector: SharedInjector) {
        self.time(OTHER, |b| b.install_injector(injector));
    }

    fn install_tracer(&mut self, tracer: SharedTracer) {
        self.time(OTHER, |b| b.install_tracer(tracer));
    }

    fn validate(&self) -> Result<(), String> {
        self.inner.validate()
    }

    fn health(&self) -> BackendHealth {
        self.inner.health()
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.time(OTHER, |b| b.restore_state(bytes))
    }

    fn resident_pages(&self) -> u64 {
        self.inner.resident_pages()
    }

    fn pressure(&self) -> Option<PressureStats> {
        self.inner.pressure()
    }

    fn wear(&self) -> Option<WearStats> {
        self.inner.wear()
    }
}

impl<B: LaunchObserver> LaunchObserver for Timed<B> {
    fn on_kernel_launch(&mut self, now: Ns, exec: ExecId, kernel: &KernelLaunch) {
        self.time(ON_KERNEL_LAUNCH, |b| b.on_kernel_launch(now, exec, kernel));
    }

    fn on_pt_block_state(&mut self, now: Ns, range: ByteRange, inactive: bool) {
        self.time(ON_PT_BLOCK_STATE, |b| {
            b.on_pt_block_state(now, range, inactive)
        });
    }

    fn on_um_range_released(&mut self, now: Ns, range: ByteRange) {
        self.time(OTHER, |b| b.on_um_range_released(now, range));
    }

    fn on_mem_advise(&mut self, now: Ns, range: ByteRange, advice: Advice) {
        self.time(OTHER, |b| b.on_mem_advise(now, range, advice));
    }
}
