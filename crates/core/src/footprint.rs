//! Learned per-block page footprints.
//!
//! DeepUM "prefetches all pages in the UM blocks correlated to the
//! faulted UM block" (Section 4.2). The driver only knows which pages a
//! block *uses* from the fault/access stream, so it accumulates a page
//! mask per block and prefetches that mask. For DNN training the
//! footprint stabilizes after the first iteration because the access
//! pattern repeats.

use deepum_mem::{BlockNum, PageMask};
use deepum_um::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use deepum_um::table::DenseBlockMap;

/// Bytes Table 4 charges for the map itself. The accounting was defined
/// over a sorted map (three words: root, height, length) plus one
/// `(block, mask)` pair per tracked block; it models the learned state,
/// not this process's storage layout, so it stays fixed.
const MAP_HEADER_BYTES: usize = 3 * core::mem::size_of::<usize>();

/// Map from UM block to the union of pages ever observed in use.
///
/// Backed by the stripe-keyed [`DenseBlockMap`] the UM driver keeps its
/// block state in: the prefetching thread reads a footprint for
/// every block the chain walk emits, so a lookup is two indexations,
/// not a tree walk. Iteration (and so the checkpoint codec) stays in
/// ascending block order.
///
/// # Example
///
/// ```
/// use deepum_core::footprint::FootprintMap;
/// use deepum_mem::{BlockNum, PageMask};
///
/// let mut fp = FootprintMap::new();
/// fp.record(BlockNum::new(1), &PageMask::first_n(10));
/// fp.record(BlockNum::new(1), &PageMask::from_range(20..30));
/// assert_eq!(fp.get(BlockNum::new(1)).count(), 20);
/// ```
#[derive(Debug, Default, Clone)]
pub struct FootprintMap {
    map: DenseBlockMap<PageMask>,
}

impl FootprintMap {
    /// Creates an empty footprint map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges `pages` into `block`'s footprint. An empty mask still
    /// starts tracking the block.
    pub fn record(&mut self, block: BlockNum, pages: &PageMask) {
        self.map.ensure(block).union_with(pages);
    }

    /// The learned footprint of `block` (empty if never observed).
    pub fn get(&self, block: BlockNum) -> PageMask {
        self.map.get(block).copied().unwrap_or_else(PageMask::empty)
    }

    /// Forgets a block (e.g. after its allocation is freed).
    pub fn forget(&mut self, block: BlockNum) {
        self.map.remove(block);
    }

    /// Number of tracked blocks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Writes the footprint map into a checkpoint payload, ascending by
    /// block.
    pub(crate) fn encode_into(&self, w: &mut SnapshotWriter) {
        w.u64(deepum_mem::u64_from_usize(self.map.len()));
        for (block, mask) in self.map.iter() {
            w.block(block);
            w.mask(mask);
        }
    }

    /// Reads a map written by [`FootprintMap::encode_into`].
    pub(crate) fn decode_from(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let len = r.len_prefix(72)?;
        let mut map = DenseBlockMap::new();
        for _ in 0..len {
            let block = r.block()?;
            let mask = r.mask()?;
            if map.insert(block, mask).is_some() {
                // deepum-tidy: allow(hot-path-alloc) -- decode error message, built once when a checkpoint is corrupt
                return Err(SnapshotError::Corrupt(format!(
                    "{block} appears twice in the footprint map"
                )));
            }
        }
        Ok(FootprintMap { map })
    }

    /// Approximate memory footprint (Table 4 accounting).
    pub fn memory_bytes(&self) -> usize {
        MAP_HEADER_BYTES
            + self.map.len() * (core::mem::size_of::<BlockNum>() + core::mem::size_of::<PageMask>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_unions() {
        let mut fp = FootprintMap::new();
        fp.record(BlockNum::new(0), &PageMask::first_n(5));
        fp.record(BlockNum::new(0), &PageMask::from_range(3..8));
        assert_eq!(fp.get(BlockNum::new(0)).count(), 8);
    }

    #[test]
    fn unknown_block_is_empty() {
        let fp = FootprintMap::new();
        assert!(fp.get(BlockNum::new(99)).is_empty());
    }

    #[test]
    fn forget_removes() {
        let mut fp = FootprintMap::new();
        fp.record(BlockNum::new(1), &PageMask::first_n(1));
        assert_eq!(fp.len(), 1);
        fp.forget(BlockNum::new(1));
        assert!(fp.is_empty());
    }

    fn encoded(fp: &FootprintMap) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        fp.encode_into(&mut w);
        w.finish()
    }

    fn decoded(bytes: &[u8]) -> Result<FootprintMap, SnapshotError> {
        let mut r = SnapshotReader::new(bytes)?;
        let fp = FootprintMap::decode_from(&mut r)?;
        r.finish()?;
        Ok(fp)
    }

    #[test]
    fn duplicate_block_decodes_as_corrupt() {
        let mut w = SnapshotWriter::new();
        w.u64(2);
        for _ in 0..2 {
            w.block(BlockNum::new(4));
            w.mask(&PageMask::first_n(3));
        }
        let err = decoded(&w.finish()).expect_err("a duplicate block is corrupt");
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err:?}");
    }

    mod oracle {
        use std::collections::BTreeMap;

        use deepum_mem::bitmap::STRIPE_BLOCK_SHIFT;
        use proptest::prelude::*;

        use super::*;

        /// The map's former representation, kept as the model.
        type Model = BTreeMap<BlockNum, PageMask>;

        fn model_bytes(model: &Model) -> Vec<u8> {
            let mut w = SnapshotWriter::new();
            w.u64(deepum_mem::u64_from_usize(model.len()));
            for (block, mask) in model {
                w.block(*block);
                w.mask(mask);
            }
            w.finish()
        }

        fn model_memory(model: &Model) -> usize {
            core::mem::size_of::<Model>()
                + model.len()
                    * (core::mem::size_of::<BlockNum>() + core::mem::size_of::<PageMask>())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Random record/forget/get streams over two VA stripes agree
            /// with a `BTreeMap` model on every query, on Table 4's byte
            /// count, and on the checkpoint bytes; the bytes decode back
            /// to the same map.
            #[test]
            fn footprints_match_a_btreemap_model(
                ops in prop::collection::vec(
                    (0u8..4, 0u64..2, 0u64..48, 0usize..40, 0usize..24),
                    1..160,
                ),
            ) {
                let mut fp = FootprintMap::new();
                let mut model = Model::new();
                for (op, stripe, offset, from, len) in ops {
                    let block = BlockNum::new((stripe << STRIPE_BLOCK_SHIFT) + offset);
                    match op {
                        // Record; `len == 0` is an empty mask, which
                        // still starts tracking the block.
                        0 | 1 => {
                            let mask = PageMask::from_range(from..from + len);
                            fp.record(block, &mask);
                            model.entry(block).or_insert_with(PageMask::empty).union_with(&mask);
                        }
                        2 => {
                            fp.forget(block);
                            model.remove(&block);
                        }
                        _ => {}
                    }
                    prop_assert_eq!(
                        fp.get(block),
                        model.get(&block).copied().unwrap_or_else(PageMask::empty)
                    );
                    prop_assert_eq!(fp.len(), model.len());
                    prop_assert_eq!(fp.is_empty(), model.is_empty());
                    prop_assert_eq!(fp.memory_bytes(), model_memory(&model));
                }
                let bytes = encoded(&fp);
                prop_assert_eq!(&bytes, &model_bytes(&model));
                let back = decoded(&bytes)
                    .map_err(|e| proptest::test_runner::TestCaseError::fail(e.to_string()))?;
                prop_assert_eq!(back.len(), model.len());
                for (block, mask) in &model {
                    prop_assert_eq!(back.get(*block), *mask);
                }
                prop_assert_eq!(encoded(&back), bytes);
            }
        }
    }

    #[test]
    fn memory_tracks_entries() {
        let mut fp = FootprintMap::new();
        let before = fp.memory_bytes();
        for i in 0..64 {
            fp.record(BlockNum::new(i), &PageMask::first_n(1));
        }
        assert!(fp.memory_bytes() > before);
    }
}
