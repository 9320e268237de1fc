//! Eviction ordering and the DeepUM protection hook.
//!
//! The NVIDIA driver evicts pages that were **least recently migrated**
//! to the GPU (Section 5.1, citing Kim et al.). DeepUM keeps that
//! ordering but additionally skips blocks "expected to be accessed by
//! the currently executing kernel and the next N kernels predicted to
//! execute". The prediction lives in `deepum-core`; this crate only sees
//! it as a shared *protected set* of blocks consulted at victim-selection
//! time.

use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockWriteGuard};

use deepum_mem::{BlockNum, DenseBlockSet};
use deepum_sim::time::Ns;

use crate::hints::HintTable;
use crate::pressure::PressureGovernor;

/// A set of UM blocks the eviction scan must avoid, shared between the
/// DeepUM prefetcher (writer) and the UM driver (reader).
///
/// Backed by a [`DenseBlockSet`] bitset so the membership check the
/// victim scan performs per candidate is two array indexations instead
/// of a `BTreeSet` walk; iteration stays ascending and deterministic. A
/// poisoned lock is recovered by taking the inner set: every mutation
/// below leaves the set valid, so a panic mid-write cannot corrupt it.
///
/// The set also keeps a *shrink epoch*: every call that may drop a
/// member ([`SharedBlockSet::remove`], [`SharedBlockSet::replace`],
/// [`SharedBlockSet::clear`]) bumps it, and inserts never do. A reader
/// that saw the epoch unchanged knows every block it saw in the set is
/// still there — the eviction scan's protected-prefix cursor rests on
/// exactly that.
///
/// # Example
///
/// ```
/// use deepum_um::evict::SharedBlockSet;
/// use deepum_mem::BlockNum;
///
/// let set = SharedBlockSet::new();
/// set.insert(BlockNum::new(3));
/// assert!(set.contains(BlockNum::new(3)));
/// let epoch = set.shrink_epoch();
/// set.clear();
/// assert!(!set.contains(BlockNum::new(3)));
/// assert!(set.shrink_epoch() > epoch);
/// ```
#[derive(Debug, Default, Clone)]
pub struct SharedBlockSet {
    inner: Arc<SharedInner>,
}

#[derive(Debug, Default)]
struct SharedInner {
    set: RwLock<DenseBlockSet>,
    /// Bumped under the write lock by every call that may drop a member.
    shrink_epoch: AtomicU64,
}

impl SharedBlockSet {
    /// Creates an empty shared set.
    pub fn new() -> Self {
        Self::default()
    }

    fn write(&self) -> RwLockWriteGuard<'_, DenseBlockSet> {
        self.inner
            .set
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Bumps the shrink epoch; called with the write lock held.
    fn shrunk(&self) {
        self.inner.shrink_epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds a block to the set.
    pub fn insert(&self, block: BlockNum) {
        self.write().insert(block);
    }

    /// One write lock for a run of inserts. The prefetching thread
    /// protects every block it predicts, tens of millions of times per
    /// run; a lock per insert dominated its profile. The guard can only
    /// add members, so it leaves the shrink epoch alone.
    pub fn inserter(&self) -> SetInserter<'_> {
        SetInserter { set: self.write() }
    }

    /// Removes a block from the set.
    pub fn remove(&self, block: BlockNum) {
        let mut guard = self.write();
        if guard.remove(block) {
            self.shrunk();
        }
    }

    /// Replaces the whole set in one write, reusing the bit storage.
    pub fn replace<I: IntoIterator<Item = BlockNum>>(&self, blocks: I) {
        let mut guard = self.write();
        if !guard.is_empty() {
            self.shrunk();
        }
        guard.clear();
        for block in blocks {
            guard.insert(block);
        }
    }

    /// Empties the set.
    pub fn clear(&self) {
        let mut guard = self.write();
        if !guard.is_empty() {
            self.shrunk();
        }
        guard.clear();
    }

    /// True if `block` is protected from eviction.
    pub fn contains(&self, block: BlockNum) -> bool {
        self.read().contains(block)
    }

    /// One read-lock for a whole scan. The eviction scan checks
    /// membership once per LRU candidate, thousands of times per call;
    /// a lock acquisition per check (not the bitset probe itself)
    /// dominated the suite profile, so scans borrow the underlying set
    /// once and probe it directly.
    pub fn read(&self) -> impl std::ops::Deref<Target = DenseBlockSet> + '_ {
        self.inner
            .set
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The shrink epoch: how many calls so far may have dropped a
    /// member. Stable while a [`SharedBlockSet::read`] guard is held.
    pub fn shrink_epoch(&self) -> u64 {
        self.inner.shrink_epoch.load(Ordering::Relaxed)
    }

    /// True if `self` and `other` are handles to the same set.
    pub(crate) fn same_set(&self, other: &SharedBlockSet) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Number of protected blocks.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// True if nothing is protected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the current contents, ascending. Used by the
    /// checkpoint codec; the set is restored via
    /// [`SharedBlockSet::replace`].
    pub fn to_vec(&self) -> Vec<BlockNum> {
        self.read().to_vec()
    }
}

/// Write guard from [`SharedBlockSet::inserter`]: inserts only.
#[derive(Debug)]
pub struct SetInserter<'a> {
    set: RwLockWriteGuard<'a, DenseBlockSet>,
}

impl SetInserter<'_> {
    /// Adds a block to the set.
    #[inline]
    pub fn insert(&mut self, block: BlockNum) {
        self.set.insert(block);
    }
}

/// Least-recently-migrated ordering over blocks.
///
/// A `BTreeSet<(Ns, BlockNum)>` would also work; this type wraps it so
/// re-keying on migration is a single call and the invariant (key matches
/// the block's `last_migrated`) has one owner.
///
/// It also owns the eviction scan's *protected-prefix cursor*: the
/// claim "every entry up to this key is in that protected set". In a
/// cyclic oversubscribed workload the LRU head is exactly the set of
/// blocks predicted next, so without the cursor every first-pass scan
/// re-probes the same protected prefix (about 1,300 entries per
/// pre-eviction on GPT-2 XL). The claim breaks only when the set loses
/// a member (its shrink epoch moves), when the driver swaps in another
/// set (the cursor holds the handle it was built against), or when an
/// entry is inserted at or below the cursor, which drops it here.
/// Removals never break it.
#[derive(Debug, Default, Clone)]
pub struct LruMigrated {
    order: std::collections::BTreeSet<(Ns, BlockNum)>,
    prefix: Option<ProtectedPrefix>,
}

/// See [`LruMigrated`]: every entry `<= last` is in `set`, for as long
/// as `set`'s shrink epoch is still `epoch`.
#[derive(Debug, Clone)]
struct ProtectedPrefix {
    set: SharedBlockSet,
    epoch: u64,
    last: (Ns, BlockNum),
}

impl LruMigrated {
    /// Creates an empty ordering.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or re-keys `block` at migration time `at`.
    pub fn record_migration(&mut self, block: BlockNum, previous: Option<Ns>, at: Ns) {
        if let Some(prev) = previous {
            self.order.remove(&(prev, block));
        }
        if self.prefix.as_ref().is_some_and(|p| (at, block) <= p.last) {
            self.prefix = None;
        }
        self.order.insert((at, block));
    }

    /// Removes a fully evicted block from the ordering.
    pub fn remove(&mut self, block: BlockNum, keyed_at: Ns) {
        self.order.remove(&(keyed_at, block));
    }

    /// Blocks in least-recently-migrated-first order.
    pub fn iter(&self) -> impl Iterator<Item = (Ns, BlockNum)> + '_ {
        self.order.iter().copied()
    }

    /// Blocks in least-recently-migrated-first order, from `start` on.
    pub(crate) fn iter_from(
        &self,
        start: Bound<(Ns, BlockNum)>,
    ) -> impl Iterator<Item = (Ns, BlockNum)> + '_ {
        self.order.range((start, Bound::Unbounded)).copied()
    }

    /// The last entry of the protected prefix, if the cursor was built
    /// against this very `set` at its current shrink `epoch`: every
    /// entry up to it is in `set`. `None` when there is no valid cursor.
    pub(crate) fn protected_prefix(
        &self,
        set: &SharedBlockSet,
        epoch: u64,
    ) -> Option<(Ns, BlockNum)> {
        self.prefix
            .as_ref()
            .filter(|p| p.epoch == epoch && p.set.same_set(set))
            .map(|p| p.last)
    }

    /// Records that every entry up to `last` is in `set` at shrink
    /// `epoch`. `last` must be an entry the caller reached by a scan
    /// that started past [`LruMigrated::protected_prefix`] (or at the
    /// head) and met only members of `set`.
    pub(crate) fn extend_prefix(&mut self, set: &SharedBlockSet, epoch: u64, last: (Ns, BlockNum)) {
        self.prefix = Some(ProtectedPrefix {
            // deepum-tidy: allow(hot-path-alloc) -- Arc refcount bump, at most once per eviction call; holding the handle keys the cursor on the set's identity
            set: set.clone(),
            epoch,
            last,
        });
    }

    /// Forgets the protected-prefix cursor.
    pub(crate) fn drop_prefix(&mut self) {
        self.prefix = None;
    }

    /// Number of tracked blocks.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True if no block is tracked.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

/// Victim-eligibility policy shared by the eviction scan and
/// `UmDriver::validate()`. One owner for the rules keeps the scan and
/// the invariant checker from drifting apart: a block the scan would
/// skip can never appear on the candidate list validate() inspects.
#[derive(Debug, Clone, Copy)]
pub struct VictimPolicy<'a> {
    /// The DeepUM predicted-window protected set, borrowed once per
    /// scan via [`SharedBlockSet::read`] so each candidate check is a
    /// direct bitset probe, not a lock acquisition.
    pub protected: &'a DenseBlockSet,
    /// The memory-pressure governor, `None` when not installed.
    pub governor: Option<&'a PressureGovernor>,
    /// `cudaMemAdvise`-modeled hint table, `None` when the caller has
    /// no hints (identical to an empty table; both are free).
    pub hints: Option<&'a HintTable>,
}

impl VictimPolicy<'_> {
    /// May `block` be selected by the first (protection-honouring)
    /// eviction pass? Skips protected blocks, PreferredLocation-hinted
    /// blocks, blocks pinned by the in-flight kernel (minimum-resident
    /// guarantee), and blocks inside their refault-cooldown window
    /// (anti-thrash hysteresis).
    pub fn first_pass_eligible(&self, block: BlockNum) -> bool {
        if self.protected.contains(block) {
            return false;
        }
        if self.hints.is_some_and(|h| h.is_preferred(block)) {
            return false;
        }
        match self.governor {
            Some(g) => !g.is_pinned(block) && !g.in_cooldown(block),
            None => true,
        }
    }

    /// May `block` be selected by the demand-only override pass?
    /// Protection and cooldown yield to correctness, but blocks pinned
    /// by the in-flight kernel stay untouchable: evicting them would
    /// refault the kernel's own working set and livelock the replay
    /// loop.
    pub fn override_eligible(&self, block: BlockNum) -> bool {
        match self.governor {
            Some(g) => !g.is_pinned(block),
            None => true,
        }
    }

    /// True when the *only* reason `block` is first-pass ineligible is
    /// its refault cooldown — the case the tracer reports as a
    /// `VictimCooldownSkip`.
    pub fn skipped_for_cooldown(&self, block: BlockNum) -> bool {
        if self.protected.contains(block) {
            return false;
        }
        if self.hints.is_some_and(|h| h.is_preferred(block)) {
            return false;
        }
        match self.governor {
            Some(g) => !g.is_pinned(block) && g.in_cooldown(block),
            None => false,
        }
    }

    /// True when `block` is ReadMostly-duplicated: evicting it is
    /// cheap (no write-back), but it is ordered *after* every
    /// non-duplicated candidate so a hot weight stays resident while
    /// a cooler victim exists.
    pub fn is_read_mostly(&self, block: BlockNum) -> bool {
        self.hints.is_some_and(|h| h.is_read_mostly(block))
    }
}

/// Victim-scan order for the protection-honouring pass:
/// least-recently-migrated order, with ReadMostly-duplicated blocks
/// partitioned to the back (each partition keeps LRU order). With no
/// ReadMostly hints this is exactly the LRU order, so unhinted runs
/// stay byte-identical to pre-hint builds.
///
/// Yielded lazily: the eviction scan usually stops after a handful of
/// victims, so materializing the whole order (the old `Vec` form) paid
/// an O(resident-blocks) allocation and copy per eviction call for a
/// prefix that is almost never consumed. When `no_read_mostly()` the
/// first half passes everything and the second half is empty.
///
/// Both halves begin at `start`: entries before it are ones the caller
/// would skip anyway (the protected prefix of [`LruMigrated`]), so the
/// visited sequence is the same as a scan from the head minus those.
pub fn victim_scan<'a>(
    lru: &'a LruMigrated,
    hints: &'a HintTable,
    start: Bound<(Ns, BlockNum)>,
) -> impl Iterator<Item = (Ns, BlockNum)> + 'a {
    let plain = hints.no_read_mostly();
    lru.iter_from(start)
        .filter(move |e| plain || !hints.is_read_mostly(e.1))
        .chain(
            lru.iter_from(start)
                .take(if plain { 0 } else { usize::MAX })
                .filter(move |e| hints.is_read_mostly(e.1)),
        )
}

/// First-pass demand-eviction candidate list: blocks in
/// least-recently-migrated order that [`VictimPolicy::first_pass_eligible`]
/// admits. `UmDriver::validate()` cross-checks this list against the
/// governor's cooldown set — the two must never intersect.
pub fn demand_candidates(lru: &LruMigrated, policy: &VictimPolicy<'_>) -> Vec<BlockNum> {
    // validate()-only cold path; the hot eviction scan walks
    // `victim_scan` lazily and never materializes this list.
    // deepum-tidy: allow(hot-path-alloc) -- invariant-checker candidate list, built only inside validate()
    let mut candidates: Vec<BlockNum> = Vec::new();
    // ReadMostly-duplicated blocks sort after every non-duplicated
    // candidate (mirrors `victim_scan`): a hot duplicated weight is
    // never the victim while a cooler one exists.
    candidates.extend(
        lru.iter()
            .map(|(_, b)| b)
            .filter(|&b| policy.first_pass_eligible(b) && !policy.is_read_mostly(b)),
    );
    candidates.extend(
        lru.iter()
            .map(|(_, b)| b)
            .filter(|&b| policy.first_pass_eligible(b) && policy.is_read_mostly(b)),
    );
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pressure::PressureConfig;

    #[test]
    fn shared_set_round_trip() {
        let s = SharedBlockSet::new();
        assert!(s.is_empty());
        s.insert(BlockNum::new(1));
        s.insert(BlockNum::new(2));
        assert_eq!(s.len(), 2);
        s.remove(BlockNum::new(1));
        assert!(!s.contains(BlockNum::new(1)));
        s.replace([BlockNum::new(9)]);
        assert_eq!(s.len(), 1);
        assert!(s.contains(BlockNum::new(9)));
    }

    #[test]
    fn shared_set_clones_share_state() {
        let a = SharedBlockSet::new();
        let b = a.clone();
        a.insert(BlockNum::new(5));
        assert!(b.contains(BlockNum::new(5)));
    }

    #[test]
    fn lru_orders_by_migration_time() {
        let mut lru = LruMigrated::new();
        lru.record_migration(BlockNum::new(10), None, Ns::from_nanos(30));
        lru.record_migration(BlockNum::new(20), None, Ns::from_nanos(10));
        lru.record_migration(BlockNum::new(30), None, Ns::from_nanos(20));
        let order: Vec<_> = lru.iter().map(|(_, b)| b.index()).collect();
        assert_eq!(order, vec![20, 30, 10]);
    }

    #[test]
    fn remigration_rekeys() {
        let mut lru = LruMigrated::new();
        lru.record_migration(BlockNum::new(1), None, Ns::from_nanos(1));
        lru.record_migration(BlockNum::new(2), None, Ns::from_nanos(2));
        lru.record_migration(BlockNum::new(1), Some(Ns::from_nanos(1)), Ns::from_nanos(3));
        let order: Vec<_> = lru.iter().map(|(_, b)| b.index()).collect();
        assert_eq!(order, vec![2, 1]);
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn remove_drops_block() {
        let mut lru = LruMigrated::new();
        lru.record_migration(BlockNum::new(1), None, Ns::from_nanos(1));
        lru.remove(BlockNum::new(1), Ns::from_nanos(1));
        assert!(lru.is_empty());
    }

    #[test]
    fn policy_without_governor_only_honours_protection() {
        let protected = SharedBlockSet::new();
        protected.insert(BlockNum::new(1));
        let protected = protected.read();
        let policy = VictimPolicy {
            protected: &protected,
            governor: None,
            hints: None,
        };
        assert!(!policy.first_pass_eligible(BlockNum::new(1)));
        assert!(policy.first_pass_eligible(BlockNum::new(2)));
        assert!(policy.override_eligible(BlockNum::new(1)));
        assert!(!policy.skipped_for_cooldown(BlockNum::new(2)));
    }

    #[test]
    fn policy_with_governor_skips_cooldown_and_pins() {
        let protected = SharedBlockSet::new();
        let mut g = PressureGovernor::new(PressureConfig::default());
        g.note_eviction(BlockNum::new(1));
        assert!(g.note_demand_arrival(BlockNum::new(1))); // refault → cooldown
        g.pin_inflight(BlockNum::new(2));
        let protected = protected.read();
        let policy = VictimPolicy {
            protected: &protected,
            governor: Some(&g),
            hints: None,
        };
        // Block 1: refaulted → cooling down and (this kernel) pinned.
        assert!(!policy.first_pass_eligible(BlockNum::new(1)));
        // Block 2: pinned only — not a cooldown skip, and the override
        // pass must still refuse it.
        assert!(!policy.first_pass_eligible(BlockNum::new(2)));
        assert!(!policy.skipped_for_cooldown(BlockNum::new(2)));
        assert!(!policy.override_eligible(BlockNum::new(2)));
        // Block 3: free to evict everywhere.
        assert!(policy.first_pass_eligible(BlockNum::new(3)));
        assert!(policy.override_eligible(BlockNum::new(3)));
    }

    #[test]
    fn victim_scan_matches_eager_partition() {
        use crate::hints::{Advice, HintTable};
        let mut lru = LruMigrated::new();
        for i in 0..16u64 {
            lru.record_migration(BlockNum::new(i), None, Ns::from_nanos(100 - i));
        }
        // No hints: the scan is exactly the LRU order.
        let plain = HintTable::new();
        let scanned: Vec<_> = victim_scan(&lru, &plain, Bound::Unbounded).collect();
        assert_eq!(scanned, lru.iter().collect::<Vec<_>>());
        // ReadMostly blocks partition to the back, each half LRU-ordered.
        let mut hints = HintTable::new();
        for b in [2u64, 5, 11] {
            hints.advise(BlockNum::new(b), Advice::ReadMostly);
        }
        let mut eager: Vec<(Ns, BlockNum)> = Vec::new();
        eager.extend(lru.iter().filter(|e| !hints.is_read_mostly(e.1)));
        eager.extend(lru.iter().filter(|e| hints.is_read_mostly(e.1)));
        let lazy: Vec<_> = victim_scan(&lru, &hints, Bound::Unbounded).collect();
        assert_eq!(lazy, eager);
        assert_eq!(lazy.len(), lru.len());
    }

    #[test]
    fn demand_candidates_exclude_cooling_blocks() {
        let protected = SharedBlockSet::new();
        let mut lru = LruMigrated::new();
        lru.record_migration(BlockNum::new(1), None, Ns::from_nanos(1));
        lru.record_migration(BlockNum::new(2), None, Ns::from_nanos(2));
        lru.record_migration(BlockNum::new(3), None, Ns::from_nanos(3));
        let mut g = PressureGovernor::new(PressureConfig::default());
        g.note_eviction(BlockNum::new(2));
        assert!(g.note_demand_arrival(BlockNum::new(2)));
        g.end_kernel(); // release the in-flight pin, keep the cooldown
        let protected = protected.read();
        let policy = VictimPolicy {
            protected: &protected,
            governor: Some(&g),
            hints: None,
        };
        assert!(policy.skipped_for_cooldown(BlockNum::new(2)));
        let candidates = demand_candidates(&lru, &policy);
        assert_eq!(
            candidates,
            vec![BlockNum::new(1), BlockNum::new(3)],
            "cooling block must not be a candidate"
        );
    }
}
