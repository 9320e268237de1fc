//! Flat, dense-id per-block table.
//!
//! The driver's per-block bookkeeping used to live in a
//! `BTreeMap<BlockNum, BlockState>`; every fault, migration, and
//! eviction paid a tree walk (and a node allocation per insert) on the
//! hottest paths in the simulator. [`BlockTable`] replaces it with flat
//! vectors keyed by **dense block ids**. The storage, [`DenseBlockMap`],
//! is generic over the per-block value, so DeepUM's learned footprints
//! (`deepum_core::footprint::FootprintMap`, a `DenseBlockMap<PageMask>`)
//! share it:
//!
//! * Block numbers are *almost* dense — within a tenant's VA stripe the
//!   allocator bumps through a small range, but stripes sit 2^40 bytes
//!   apart (2^19 blocks). The table keeps one lazily grown slot array
//!   per touched stripe (a sorted, tiny list), mapping a block's
//!   within-stripe offset to its dense id in O(1).
//! * A dense id is assigned the first time a block is touched and is
//!   **stable for the lifetime of the table**: eviction, release, and
//!   re-fault reuse the same id (and the same `BlockState` storage), so
//!   no pointer-sized state ever moves and scratch buffers sized by id
//!   stay valid across churn. `tests/properties.rs` pins this.
//! * Iteration is in ascending [`BlockNum`] order — stripes ascend, and
//!   a stripe's slot array is indexed by block offset — so every
//!   consumer that used to rely on `BTreeMap`'s ordered iteration
//!   (snapshot encoding, `validate()`, deregistration sweeps) sees the
//!   exact same sequence and stays byte-identical.

use deepum_mem::bitmap::{STRIPE_BLOCK_MASK, STRIPE_BLOCK_SHIFT};
use deepum_mem::{u64_from_usize, BlockNum};

use crate::block::BlockState;

/// Sentinel slot value: the block has never been touched.
const VACANT: u32 = 0;

/// The driver's block-state table.
pub type BlockTable = DenseBlockMap<BlockState>;

/// Flat per-block storage with stable dense ids and ascending
/// iteration. Drop-in replacement for a `BTreeMap<BlockNum, S>`.
#[derive(Debug, Default, Clone)]
pub struct DenseBlockMap<S> {
    /// Per-stripe slot arrays (offset → dense id + 1), sorted by stripe.
    stripes: Vec<StripeSlots>,
    /// Dense id → block state (kept allocated across remove/re-insert).
    states: Vec<S>,
    /// Dense id → currently present in the table.
    live: Vec<bool>,
    /// Number of live entries.
    len: usize,
}

#[derive(Debug, Clone)]
struct StripeSlots {
    id: u64,
    slots: Vec<u32>,
}

#[inline]
fn split(block: BlockNum) -> (u64, usize) {
    let idx = block.index();
    let offset = usize::try_from(idx & STRIPE_BLOCK_MASK).expect("stripe offset fits usize");
    (idx >> STRIPE_BLOCK_SHIFT, offset)
}

#[inline]
fn dense_index(slot: u32) -> Option<usize> {
    let id = slot.checked_sub(1)?;
    Some(usize::try_from(id).expect("dense id fits usize"))
}

impl<S: Default> DenseBlockMap<S> {
    /// An empty table.
    pub fn new() -> Self {
        DenseBlockMap::default()
    }

    #[inline]
    fn slot(&self, block: BlockNum) -> Option<u32> {
        let (stripe, offset) = split(block);
        let i = match self.stripes.binary_search_by_key(&stripe, |s| s.id) {
            Ok(i) => i,
            Err(_) => return None,
        };
        self.stripes[i].slots.get(offset).copied()
    }

    /// The dense id assigned to `block`, if it has ever been touched.
    /// Ids are assigned first-touch in table order and never recycled.
    pub fn dense_id(&self, block: BlockNum) -> Option<u32> {
        self.slot(block).and_then(|s| s.checked_sub(1))
    }

    /// Dense id of the live entry for `block`, assigning one if the
    /// block has never been touched; resurrects dead storage in place.
    fn ensure_id(&mut self, block: BlockNum) -> usize {
        let (stripe, offset) = split(block);
        let si = match self.stripes.binary_search_by_key(&stripe, |s| s.id) {
            Ok(i) => i,
            Err(i) => {
                self.stripes.insert(
                    i,
                    StripeSlots {
                        id: stripe,
                        slots: Vec::new(),
                    },
                );
                i
            }
        };
        let slots = &mut self.stripes[si].slots;
        if slots.len() <= offset {
            slots.resize(offset + 1, VACANT);
        }
        match dense_index(slots[offset]) {
            Some(idx) => {
                if !self.live[idx] {
                    self.live[idx] = true;
                    self.states[idx] = S::default();
                    self.len += 1;
                }
                idx
            }
            None => {
                let idx = self.states.len();
                let id = u32::try_from(idx).expect("dense block ids fit u32");
                slots[offset] = id + 1;
                self.states.push(S::default());
                self.live.push(true);
                self.len += 1;
                idx
            }
        }
    }

    /// The state of `block`, if present.
    #[inline]
    pub fn get(&self, block: BlockNum) -> Option<&S> {
        let idx = dense_index(self.slot(block)?)?;
        self.live[idx].then(|| &self.states[idx])
    }

    /// Mutable state of `block`, if present.
    #[inline]
    pub fn get_mut(&mut self, block: BlockNum) -> Option<&mut S> {
        let idx = dense_index(self.slot(block)?)?;
        self.live[idx].then(|| &mut self.states[idx])
    }

    /// True if `block` is present.
    #[inline]
    pub fn contains_key(&self, block: BlockNum) -> bool {
        self.get(block).is_some()
    }

    /// Mutable state of `block`, inserting a default state if absent —
    /// the `entry(block).or_default()` of the old map.
    #[inline]
    pub fn ensure(&mut self, block: BlockNum) -> &mut S {
        let idx = self.ensure_id(block);
        &mut self.states[idx]
    }

    /// Inserts `state` for `block`, returning the previous state if one
    /// was present.
    pub fn insert(&mut self, block: BlockNum, state: S) -> Option<S> {
        let was_live = self.contains_key(block);
        let idx = self.ensure_id(block);
        let prev = std::mem::replace(&mut self.states[idx], state);
        was_live.then_some(prev)
    }

    /// Removes `block`, returning its state. The dense id and its
    /// storage stay reserved for the block's next appearance.
    pub fn remove(&mut self, block: BlockNum) -> Option<S> {
        let idx = dense_index(self.slot(block)?)?;
        if !self.live[idx] {
            return None;
        }
        self.live[idx] = false;
        self.len -= 1;
        Some(std::mem::take(&mut self.states[idx]))
    }

    /// Number of live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no block is present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Live entries in ascending [`BlockNum`] order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockNum, &S)> + '_ {
        self.stripes.iter().flat_map(move |stripe| {
            let base = stripe.id << STRIPE_BLOCK_SHIFT;
            stripe
                .slots
                .iter()
                .enumerate()
                .filter_map(move |(offset, &slot)| {
                    let idx = dense_index(slot)?;
                    self.live[idx].then(|| {
                        (
                            BlockNum::new(base + u64_from_usize(offset)),
                            &self.states[idx],
                        )
                    })
                })
        })
    }
}

impl<S: Default> std::ops::Index<&BlockNum> for DenseBlockMap<S> {
    type Output = S;

    fn index(&self, block: &BlockNum) -> &S {
        self.get(*block)
            .unwrap_or_else(|| panic!("no state for {block}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepum_sim::time::Ns;

    #[test]
    fn ensure_get_remove_round_trip() {
        let mut t = BlockTable::new();
        assert!(t.is_empty());
        assert!(t.get(BlockNum::new(7)).is_none());
        t.ensure(BlockNum::new(7)).last_migrated = Ns::from_nanos(9);
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.get(BlockNum::new(7)).map(|s| s.last_migrated),
            Some(Ns::from_nanos(9))
        );
        let removed = t.remove(BlockNum::new(7)).expect("present");
        assert_eq!(removed.last_migrated, Ns::from_nanos(9));
        assert!(t.get(BlockNum::new(7)).is_none());
        assert!(t.remove(BlockNum::new(7)).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn dense_ids_are_first_touch_and_stable() {
        let mut t = BlockTable::new();
        t.ensure(BlockNum::new(30));
        t.ensure(BlockNum::new(10));
        t.ensure(BlockNum::new(20));
        assert_eq!(t.dense_id(BlockNum::new(30)), Some(0));
        assert_eq!(t.dense_id(BlockNum::new(10)), Some(1));
        assert_eq!(t.dense_id(BlockNum::new(20)), Some(2));
        // Remove and re-fault: same id, fresh default state.
        t.ensure(BlockNum::new(10)).last_epoch = 5;
        t.remove(BlockNum::new(10));
        assert_eq!(t.dense_id(BlockNum::new(10)), Some(1));
        assert_eq!(t.ensure(BlockNum::new(10)).last_epoch, 0);
        assert_eq!(t.dense_id(BlockNum::new(10)), Some(1));
    }

    #[test]
    fn iterates_ascending_across_stripes() {
        let mut t = BlockTable::new();
        let stripe1 = 1u64 << STRIPE_BLOCK_SHIFT;
        for raw in [stripe1 + 3, 40, stripe1, 2, 700] {
            t.ensure(BlockNum::new(raw));
        }
        t.remove(BlockNum::new(40));
        let got: Vec<u64> = t.iter().map(|(b, _)| b.index()).collect();
        assert_eq!(got, vec![2, 700, stripe1, stripe1 + 3]);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn insert_replaces_and_reports_previous() {
        let mut t = BlockTable::new();
        let s = BlockState {
            last_epoch: 3,
            ..BlockState::default()
        };
        assert!(t.insert(BlockNum::new(1), s.clone()).is_none());
        let prev = t.insert(BlockNum::new(1), BlockState::default());
        assert_eq!(prev.map(|p| p.last_epoch), Some(3));
    }

    #[test]
    #[should_panic(expected = "no state for block#5")]
    fn index_panics_on_absent_block() {
        let t = BlockTable::new();
        let _ = &t[&BlockNum::new(5)];
    }
}
