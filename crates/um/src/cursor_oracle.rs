//! Oracle for the eviction scan's protected-prefix cursor.
//!
//! Two drivers take the same random stream of migrations, touches,
//! demand faults, pre-evictions, protected-set edits, hints, tenant
//! slots and snapshot restores. One drops its cursor before every
//! eviction scan (the scan from the LRU head the cursor must equal);
//! the other keeps it. Their victim streams, counters and snapshots
//! must agree, and both must pass `validate()` after every operation
//! (which checks the cursor's claim itself).

use deepum_gpu::fault::{AccessKind, FaultEntry, SmId};
use deepum_mem::{u64_from_usize, BlockNum, ByteRange, PageMask, TenantId, BLOCK_BYTES};
use deepum_sim::costs::CostModel;
use deepum_sim::time::Ns;
use deepum_trace::{shared, SharedTracer, TraceEvent, Tracer};
use proptest::prelude::*;

use crate::driver::UmDriver;
use crate::evict::SharedBlockSet;
use crate::hints::Advice;
use crate::pressure::PressureConfig;
use crate::snapshot::{restore_driver, snapshot_driver};

/// Device size: a handful of blocks, so demand and pre-eviction fire
/// on most operations.
const CAPACITY_BLOCKS: u64 = 4;
const TENANT: TenantId = TenantId(1);

/// One step of the stream: `(op, block, pages, dt, flag)`.
type Op = (u8, u64, usize, u64, u8);

struct Side {
    d: UmDriver,
    tracer: SharedTracer,
    snapshot: Option<Vec<u8>>,
    /// Whether each fallible call (fault drain, restore) succeeded.
    outcomes: Vec<bool>,
}

impl Side {
    fn new(governed: bool, cursor: bool) -> Self {
        let costs = CostModel::v100_32gb().with_device_memory(CAPACITY_BLOCKS * BLOCK_BYTES);
        let mut d = UmDriver::new(costs);
        d.no_prefix_cursor = !cursor;
        if governed {
            d.install_pressure_governor(PressureConfig::default());
        }
        let tracer = shared(Tracer::export());
        d.set_tracer(tracer.clone());
        Side {
            d,
            tracer,
            snapshot: None,
            outcomes: Vec::new(),
        }
    }

    fn apply(&mut self, now: Ns, (op, block, pages, _, flag): Op) -> Result<(), String> {
        let b = BlockNum::new(block);
        let mask = PageMask::first_n(pages);
        let range = ByteRange::new(b.addr(), BLOCK_BYTES);
        // Inside a tenant slot nothing migrates or evicts. The tenant
        // scan keeps no cursor, so the stream only needs the slot's
        // swap of the protected handle; and a tenant that owns no block
        // keeps its ledger exact when the shared scan evicts between
        // slots (that scan does not update ledgers).
        let in_slot = self.d.active_tenant().is_some();
        // Op weights: evictions and protected-set growth dominate, so
        // the LRU head is often protected and the cursor forms and lives.
        match op {
            0..=7 | 10..=16 if in_slot => {}
            0..=5 => {
                let kind = if flag == 6 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let faults: Vec<FaultEntry> = (0..pages)
                    .map(|i| FaultEntry {
                        page: b.page(i),
                        kind,
                        sm: SmId(0),
                    })
                    .collect();
                // A batch that cannot fit is a typed error on both sides.
                let drained = self.d.handle_faults(now, &faults).is_ok();
                self.outcomes.push(drained);
            }
            6 | 7 => {
                self.d.prefetch_into_gpu(now, b, &mask);
            }
            8 | 9 => self.d.touch(now, b, &mask),
            10..=16 => {
                self.d.preevict(now, u64_from_usize(pages) * 4);
            }
            17..=22 => self.d.protected_set().insert(b),
            23 => self.d.protected_set().remove(b),
            24 => self
                .d
                .protected_set()
                .replace([b, BlockNum::new(block + 1)]),
            25 if flag == 0 => self.d.protected_set().clear(),
            25 => self.d.protected_set().insert(b),
            26 if flag < 2 => {
                self.d.advise(now, range, Advice::ReadMostly);
            }
            26 | 27 => {
                self.d.advise(now, range, Advice::PreferredLocation);
            }
            28 => {
                if in_slot {
                    self.d.end_tenant_slot(now);
                    // The closed slot parks the tracer in the ledger.
                    self.d.set_tracer(self.tracer.clone());
                } else {
                    if self.d.tenant_ledger(TENANT).is_none() {
                        // A whole-driver snapshot does not carry tenant
                        // ledgers, so restores end where tenancy starts.
                        self.snapshot = None;
                        self.d
                            .register_tenant(
                                TENANT,
                                0,
                                1,
                                SharedBlockSet::new(),
                                None,
                                Some(self.tracer.clone()),
                                None,
                            )
                            .map_err(|e| format!("admission: {e:?}"))?;
                    }
                    self.d.set_active_tenant(TENANT, now);
                }
            }
            29 if self.d.tenant_ledger(TENANT).is_none() => {
                self.snapshot = Some(snapshot_driver(&self.d));
            }
            29 => {}
            30 => {
                if let Some(bytes) = &self.snapshot {
                    let restored = restore_driver(&mut self.d, bytes).is_ok();
                    self.outcomes.push(restored);
                }
            }
            _ => self.d.pressure_kernel_tick(now),
        }
        self.d.validate()
    }

    fn victims(&self) -> Vec<(u64, TraceEvent)> {
        self.tracer
            .borrow_mut()
            .records()
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::EvictVictim { .. }))
            .map(|r| (r.t, r.event.clone()))
            .collect()
    }
}

/// Runs `ops` through a cursor-keeping and a cursor-free driver and
/// compares them after every operation.
fn run_pair(ops: &[Op], governed: bool) -> Result<(), String> {
    let mut real = Side::new(governed, true);
    let mut oracle = Side::new(governed, false);
    let mut now = 10u64;
    for (i, &op) in ops.iter().enumerate() {
        // Time never runs backwards (the driver's epoch invariant), but
        // it often stands still: a migration then keys at the cursor's
        // time with a lower block number, below the cursor.
        now += op.3;
        let t = Ns::from_nanos(now);
        let (r1, r2) = (real.apply(t, op), oracle.apply(t, op));
        r1.map_err(|e| format!("op {i} {op:?}: cursor driver: {e} / oracle: {r2:?}"))?;
        r2.map_err(|e| format!("op {i} {op:?}: oracle driver: {e}"))?;
        if real.d.counters() != oracle.d.counters() {
            return Err(format!("op {i} {op:?}: counters differ"));
        }
        if real.snapshot != oracle.snapshot || real.outcomes != oracle.outcomes {
            return Err(format!("op {i} {op:?}: snapshots or call outcomes differ"));
        }
    }
    let (got, want) = (real.victims(), oracle.victims());
    if got != want {
        return Err(format!(
            "victim streams differ:\n cursor: {got:?}\n oracle: {want:?}"
        ));
    }
    Ok(())
}

fn ops_for(ops: &[(u8, u64, usize)]) -> Vec<Op> {
    ops.iter().map(|&(op, b, n)| (op, b, n, 1, 3)).collect()
}

/// Four full blocks, the two oldest protected: a pre-eviction builds the
/// cursor past them. A tenant slot then swaps the protected set for a
/// fresh one, also at shrink epoch 0; the next pre-eviction must take
/// the formerly protected LRU head.
#[test]
fn a_slot_swap_drops_the_cursor() {
    let mut ops = ops_for(&[
        (0, 0, 512),
        (0, 1, 512),
        (0, 2, 512),
        (0, 3, 512),
        (17, 0, 1),
        (17, 1, 1),
        (10, 0, 128),
        (28, 0, 1),
        (28, 0, 1),
        (10, 0, 256),
    ]);
    run_pair(&ops, false).expect("cursor equals the oracle");
    // Same without the slot: the cursor survives and still agrees.
    ops.retain(|op| op.0 != 28);
    run_pair(&ops, false).expect("cursor equals the oracle");
}

/// The first unprotected entry is pinned by the in-flight kernel, so
/// the scan passes it over; once the kernel retires it is the victim.
/// A cursor that claimed it as protected would skip it.
#[test]
fn the_cursor_stops_at_the_first_unprotected_entry() {
    let ops = ops_for(&[
        (0, 0, 512),
        (0, 1, 512),
        (0, 2, 512),
        (0, 3, 512),
        (17, 0, 1),
        (8, 1, 512),
        (10, 0, 128),
        (31, 0, 1),
        (10, 0, 256),
    ]);
    run_pair(&ops, true).expect("cursor equals the oracle");
}

/// Migrations in one drain share a timestamp, so a block with a lower
/// number keys below a cursor built at that time; the cursor must go.
#[test]
fn a_migration_below_the_cursor_drops_it() {
    let at_once = |op: u8, b: u64, n: usize| (op, b, n, 0, 3);
    let ops = [
        at_once(0, 3, 512),
        at_once(17, 3, 1),
        at_once(10, 0, 512),
        at_once(0, 1, 512),
        at_once(10, 0, 512),
    ];
    run_pair(&ops, false).expect("cursor equals the oracle");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Random streams: the cursor never changes a victim, a counter or
    /// a snapshot byte, and its claim holds after every operation.
    #[test]
    fn the_cursor_matches_a_cursor_free_scan(
        ops in prop::collection::vec(
            (0u8..32, 0u64..6, 1usize..513, 0u64..4, 0u8..8),
            1..90,
        ),
        governed in prop::bool::ANY,
    ) {
        run_pair(&ops, governed).map_err(proptest::test_runner::TestCaseError::fail)?;
    }
}
