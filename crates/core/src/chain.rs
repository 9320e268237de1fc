//! Chaining — the prefetching thread's table walk (paper Section 4.2).
//!
//! "When a page fault occurs, the DeepUM driver prefetches all pages in
//! the UM blocks correlated to the faulted UM block by looking up the UM
//! block correlation table of the currently executing kernel. When the
//! prefetching thread meets the UM block that is the same as the end
//! block [...], it ends prefetching for the kernel and predicts the
//! kernel that will execute next by looking up the execution ID table.
//! Then, it starts prefetching for the predicted kernel, beginning with
//! the start UM block [...]. The chaining ends when a new page fault
//! interrupt signal is raised, or the prefetching thread fails to predict
//! the next kernel to execute. The chaining pauses when the prefetching
//! thread has enqueued all prefetch commands for the next N kernels. The
//! prefetching thread resumes after the currently executing kernel
//! finishes."

use std::collections::VecDeque;

use deepum_mem::{BlockNum, DenseBlockSet};
use deepum_runtime::exec_table::ExecId;
use deepum_um::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};

use crate::correlation::{BlockCorrelationTable, ExecCorrelationTable};
use crate::queues::PrefetchCommand;

/// Outcome of one chaining step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainStep {
    /// A block to enqueue on the prefetch queue.
    Emit(PrefetchCommand),
    /// The walk crossed a kernel boundary: it predicted `predicted` as
    /// the `ahead`-th kernel after the currently executing one.
    Transition {
        /// The execution ID predicted to run next.
        predicted: ExecId,
        /// Look-ahead depth after this transition (1 = the very next
        /// kernel).
        ahead: usize,
    },
    /// Look-ahead window exhausted (`N` kernels ahead); the walk resumes
    /// when the window slides.
    Paused,
    /// The walk cannot continue (frontier exhausted, no end-block match,
    /// or next-kernel prediction failed).
    Ended,
}

/// State of one chaining walk, (re)started at every page-fault batch.
///
/// The driver keeps one walk for the whole run and
/// [`ChainWalk::restart`]s it in place at each fault drain, so the
/// queues and the visited set keep their storage: a restart costs what
/// the previous walk visited, not an allocation.
#[derive(Debug, Clone)]
pub struct ChainWalk {
    exec: ExecId,
    history: [ExecId; 3],
    origin: BlockNum,
    seeded: bool,
    pending_transition: bool,
    paused: bool,
    ended: bool,
    kernels_ahead: usize,
    /// Blocks discovered but not yet handed to the prefetch queue.
    emit_q: VecDeque<BlockNum>,
    /// Blocks whose successors have not been expanded yet.
    frontier: VecDeque<BlockNum>,
    visited: Visited,
}

/// The walk's visited set: a dense bitset for O(1) membership plus the
/// list of inserted blocks, so clearing touches only what was set.
#[derive(Debug, Clone, Default)]
struct Visited {
    set: DenseBlockSet,
    inserted: Vec<BlockNum>,
}

impl Visited {
    /// Inserts `block`; true if it was not already visited.
    fn insert(&mut self, block: BlockNum) -> bool {
        let fresh = self.set.insert(block);
        if fresh {
            self.inserted.push(block);
        }
        fresh
    }

    fn clear(&mut self) {
        for &block in &self.inserted {
            self.set.remove(block);
        }
        self.inserted.clear();
    }
}

impl ChainWalk {
    /// Starts a walk at `fault_block`, the most recently faulted block of
    /// the kernel with execution ID `exec`; `history` is the three
    /// kernels that ran before `exec` (oldest first).
    pub fn new(exec: ExecId, history: [ExecId; 3], fault_block: BlockNum) -> Self {
        let mut walk = ChainWalk {
            exec,
            history,
            origin: fault_block,
            seeded: false,
            pending_transition: false,
            paused: false,
            ended: false,
            kernels_ahead: 0,
            emit_q: VecDeque::new(),
            frontier: VecDeque::new(),
            visited: Visited::default(),
        };
        walk.visited.insert(fault_block);
        walk
    }

    /// Restarts this walk in place: afterwards it is indistinguishable
    /// from `ChainWalk::new(exec, history, fault_block)` (same steps,
    /// same checkpoint bytes) but reuses the queue and visited storage.
    pub fn restart(&mut self, exec: ExecId, history: [ExecId; 3], fault_block: BlockNum) {
        self.exec = exec;
        self.history = history;
        self.origin = fault_block;
        self.seeded = false;
        self.pending_transition = false;
        self.paused = false;
        self.ended = false;
        self.kernels_ahead = 0;
        self.emit_q.clear();
        self.frontier.clear();
        self.visited.clear();
        self.visited.insert(fault_block);
    }

    /// How many kernel transitions the walk has made beyond the currently
    /// executing kernel.
    pub fn kernels_ahead(&self) -> usize {
        self.kernels_ahead
    }

    /// True if the walk hit the look-ahead bound.
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    /// True if the walk can never produce more commands.
    pub fn is_ended(&self) -> bool {
        self.ended
    }

    /// Slides the look-ahead window after a kernel transition on the GPU:
    /// un-pauses the walk and decrements the ahead count.
    pub fn on_kernel_advanced(&mut self) {
        self.kernels_ahead = self.kernels_ahead.saturating_sub(1);
        self.paused = false;
    }

    /// Advances the walk by one step.
    ///
    /// `block_tables` is indexed by execution ID (`None` = table not yet
    /// allocated); `max_ahead` is the prefetch degree `N`.
    pub fn step(
        &mut self,
        block_tables: &[Option<BlockCorrelationTable>],
        exec_table: &ExecCorrelationTable,
        max_ahead: usize,
    ) -> ChainStep {
        if self.ended {
            return ChainStep::Ended;
        }
        if self.paused {
            return ChainStep::Paused;
        }
        loop {
            // Discovered blocks go out first.
            if let Some(block) = self.emit_q.pop_front() {
                return ChainStep::Emit(PrefetchCommand {
                    block,
                    exec: self.exec,
                });
            }
            if self.pending_transition {
                return self.transition(block_tables, exec_table, max_ahead);
            }

            let Some(table) = table_of(block_tables, self.exec) else {
                self.ended = true;
                return ChainStep::Ended;
            };

            // Pick the next block whose successors to expand.
            let block = if !self.seeded {
                self.seeded = true;
                self.origin
            } else {
                match self.frontier.pop_front() {
                    Some(b) => b,
                    None => {
                        // This kernel's recorded pattern is walked out
                        // without meeting the end block (its start/end
                        // anchors were rewritten by a residual-fault
                        // execution). Hop to the predicted next kernel —
                        // the chain only truly ends on prediction failure.
                        self.pending_transition = true;
                        continue;
                    }
                }
            };

            // Expand: every newly met successor is a prefetch candidate.
            // Meeting the end block stops expansion for this kernel — but
            // the successors met so far (including the end block itself)
            // are still prefetched, as in the paper's Fig. 7 walk-through.
            let mut met_end = false;
            for &succ in table.successors(block) {
                if self.visited.insert(succ) {
                    self.emit_q.push_back(succ);
                    if table.end() == Some(succ) {
                        met_end = true;
                    } else {
                        self.frontier.push_back(succ);
                    }
                } else if table.end() == Some(succ) {
                    met_end = true;
                }
            }
            if met_end {
                self.pending_transition = true;
                self.frontier.clear();
            }
        }
    }

    /// Writes the whole walk state into a checkpoint payload; block lists
    /// keep their queue order so a restored walk resumes identically.
    pub(crate) fn encode_into(&self, w: &mut SnapshotWriter) {
        w.u32(self.exec.0);
        for h in self.history {
            w.u32(h.0);
        }
        w.block(self.origin);
        w.bool(self.seeded);
        w.bool(self.pending_transition);
        w.bool(self.paused);
        w.bool(self.ended);
        w.u64(deepum_mem::u64_from_usize(self.kernels_ahead));
        for list in [&self.emit_q, &self.frontier] {
            w.u64(deepum_mem::u64_from_usize(list.len()));
            for &b in list {
                w.block(b);
            }
        }
        // Ascending, whatever the visiting order.
        w.u64(deepum_mem::u64_from_usize(self.visited.set.len()));
        for b in self.visited.set.iter() {
            w.block(b);
        }
    }

    /// Reads a walk written by [`ChainWalk::encode_into`].
    pub(crate) fn decode_from(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let exec = ExecId(r.u32()?);
        let mut history = [ExecId(0); 3];
        for h in &mut history {
            *h = ExecId(r.u32()?);
        }
        let origin = r.block()?;
        let seeded = r.bool()?;
        let pending_transition = r.bool()?;
        let paused = r.bool()?;
        let ended = r.bool()?;
        let kernels_ahead = usize::try_from(r.u64()?)
            .map_err(|_| SnapshotError::Corrupt("kernels_ahead overflows usize".to_string()))?;
        let mut emit_q = VecDeque::new();
        for _ in 0..r.len_prefix(8)? {
            emit_q.push_back(r.block()?);
        }
        let mut frontier = VecDeque::new();
        for _ in 0..r.len_prefix(8)? {
            frontier.push_back(r.block()?);
        }
        let mut visited = Visited::default();
        for _ in 0..r.len_prefix(8)? {
            visited.insert(r.block()?);
        }
        Ok(ChainWalk {
            exec,
            history,
            origin,
            seeded,
            pending_transition,
            paused,
            ended,
            kernels_ahead,
            emit_q,
            frontier,
            visited,
        })
    }

    fn transition(
        &mut self,
        block_tables: &[Option<BlockCorrelationTable>],
        exec_table: &ExecCorrelationTable,
        max_ahead: usize,
    ) -> ChainStep {
        if self.kernels_ahead >= max_ahead {
            self.paused = true;
            return ChainStep::Paused;
        }
        let Some(predicted) = exec_table.predict(self.exec, self.history) else {
            self.ended = true;
            return ChainStep::Ended;
        };
        self.history = [self.history[1], self.history[2], self.exec];
        self.exec = predicted;
        self.kernels_ahead += 1;
        self.pending_transition = false;
        self.seeded = true;
        self.frontier.clear();
        self.emit_q.clear();
        self.visited.clear();

        match table_of(block_tables, predicted).and_then(|t| t.start()) {
            Some(start) => {
                self.visited.insert(start);
                self.emit_q.push_back(start);
                self.frontier.push_back(start);
            }
            None => {
                // The predicted kernel has never faulted (its working
                // set is always resident): nothing to prefetch for it —
                // hop onwards at the next step instead of ending.
                self.pending_transition = true;
            }
        }
        ChainStep::Transition {
            predicted,
            ahead: self.kernels_ahead,
        }
    }
}

fn table_of(
    tables: &[Option<BlockCorrelationTable>],
    exec: ExecId,
) -> Option<&BlockCorrelationTable> {
    tables.get(exec.index()).and_then(Option::as_ref)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u64) -> BlockNum {
        BlockNum::new(i)
    }
    const fn e(i: u32) -> ExecId {
        ExecId(i)
    }

    /// Builds the Fig. 7 tables: exec 0 over blocks a..q, exec 1 starting
    /// at k.
    pub(super) fn fig7() -> (Vec<Option<BlockCorrelationTable>>, ExecCorrelationTable) {
        let (a, bb, c, d, ee, p, q) = (1, 2, 3, 4, 5, 16, 17);
        let mut t0 = BlockCorrelationTable::new(64, 2, 4);
        t0.record_pair(b(a), b(bb));
        t0.record_pair(b(a), b(p));
        t0.record_pair(b(bb), b(ee));
        t0.record_pair(b(bb), b(q));
        t0.record_pair(b(c), b(d));
        t0.set_start(b(a));
        t0.set_end(b(q));

        let (f, g, k, n, tt, u, i) = (6, 7, 11, 14, 20, 21, 9);
        let mut t1 = BlockCorrelationTable::new(64, 2, 4);
        t1.record_pair(b(f), b(ee));
        t1.record_pair(b(f), b(u));
        t1.record_pair(b(g), b(tt));
        t1.record_pair(b(g), b(i));
        t1.record_pair(b(k), b(g));
        t1.record_pair(b(k), b(n));
        t1.set_start(b(k));
        t1.set_end(b(u));

        let mut exec = ExecCorrelationTable::new();
        // After context [10,11,12], exec 0 is followed by exec 1.
        exec.record(e(0), [e(10), e(11), e(12)], e(1));
        (vec![Some(t0), Some(t1)], exec)
    }

    fn drain(
        walk: &mut ChainWalk,
        tables: &[Option<BlockCorrelationTable>],
        exec: &ExecCorrelationTable,
        max_ahead: usize,
        max_steps: usize,
    ) -> Vec<ChainStep> {
        let mut out = Vec::new();
        for _ in 0..max_steps {
            let s = walk.step(tables, exec, max_ahead);
            let stop = matches!(s, ChainStep::Paused | ChainStep::Ended);
            out.push(s);
            if stop {
                break;
            }
        }
        out
    }

    #[test]
    fn walks_successors_then_chains_to_next_kernel() {
        let (tables, exec) = fig7();
        // Fault on block b (=2) while exec 0 runs after [10,11,12].
        let mut walk = ChainWalk::new(e(0), [e(10), e(11), e(12)], b(2));
        let steps = drain(&mut walk, &tables, &exec, 8, 32);

        // Successors of b are e and q; q is exec 0's end block, so after
        // emitting q the walk hops to exec 1 and starts at k.
        let emitted: Vec<u64> = steps
            .iter()
            .filter_map(|s| match s {
                ChainStep::Emit(cmd) => Some(cmd.block.index()),
                _ => None,
            })
            .collect();
        // Successors of b in MRU order: q (most recent), then e; both are
        // prefetched even though q is the end block.
        assert!(emitted.starts_with(&[17, 5, 11]), "emitted: {emitted:?}");
        assert!(
            steps.contains(&ChainStep::Transition {
                predicted: e(1),
                ahead: 1
            }),
            "steps: {steps:?}"
        );
        // After the hop, k then its successors g, n, then g's (t, i).
        assert!(emitted.contains(&11), "k prefetched: {emitted:?}");
        assert!(emitted.contains(&7) && emitted.contains(&14));
    }

    #[test]
    fn prediction_failure_ends_chain() {
        let (tables, exec) = fig7();
        // Unknown context: exec prediction fails at the transition.
        let mut walk = ChainWalk::new(e(0), [e(1), e(2), e(3)], b(2));
        let steps = drain(&mut walk, &tables, &exec, 8, 32);
        assert_eq!(*steps.last().unwrap(), ChainStep::Ended);
        assert!(walk.is_ended());
        assert!(!steps
            .iter()
            .any(|s| matches!(s, ChainStep::Transition { .. })));
    }

    #[test]
    fn pauses_at_look_ahead_bound_and_resumes() {
        let (tables, exec) = fig7();
        let mut walk = ChainWalk::new(e(0), [e(10), e(11), e(12)], b(2));
        // max_ahead = 0: the walk may emit within the current kernel but
        // must pause at the first transition.
        let steps = drain(&mut walk, &tables, &exec, 0, 32);
        assert_eq!(*steps.last().unwrap(), ChainStep::Paused);
        assert!(walk.is_paused());
        assert_eq!(walk.kernels_ahead(), 0);

        // The GPU finishes the kernel: window slides, walk resumes and
        // performs the transition.
        walk.on_kernel_advanced();
        let step = walk.step(&tables, &exec, 1);
        assert!(matches!(step, ChainStep::Transition { predicted, .. } if predicted == e(1)));
    }

    #[test]
    fn missing_table_ends_immediately() {
        let exec = ExecCorrelationTable::new();
        let tables: Vec<Option<BlockCorrelationTable>> = vec![None];
        let mut walk = ChainWalk::new(e(0), [e(0); 3], b(1));
        assert_eq!(walk.step(&tables, &exec, 8), ChainStep::Ended);
    }

    #[test]
    fn origin_is_never_emitted() {
        let (tables, exec) = fig7();
        let mut walk = ChainWalk::new(e(0), [e(10), e(11), e(12)], b(2));
        let steps = drain(&mut walk, &tables, &exec, 8, 64);
        assert!(steps.iter().all(|s| !matches!(
            s,
            ChainStep::Emit(cmd) if cmd.block == b(2) && cmd.exec == e(0)
        )));
    }

    #[test]
    fn fault_on_end_block_transitions_without_emitting() {
        let (tables, exec) = fig7();
        // Fault directly on q, exec 0's end block.
        let mut walk = ChainWalk::new(e(0), [e(10), e(11), e(12)], b(17));
        let first = walk.step(&tables, &exec, 8);
        assert!(matches!(first, ChainStep::Transition { predicted, .. } if predicted == e(1)));
    }

    #[test]
    fn commands_carry_predicted_exec_id() {
        let (tables, exec) = fig7();
        let mut walk = ChainWalk::new(e(0), [e(10), e(11), e(12)], b(2));
        let steps = drain(&mut walk, &tables, &exec, 8, 64);
        let k_cmd = steps
            .iter()
            .find_map(|s| match s {
                ChainStep::Emit(cmd) if cmd.block == b(11) => Some(*cmd),
                _ => None,
            })
            .expect("k prefetched");
        assert_eq!(k_cmd.exec, e(1));
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    fn b(i: u64) -> BlockNum {
        BlockNum::new(i)
    }
    const fn e(i: u32) -> ExecId {
        ExecId(i)
    }

    /// A two-kernel ring: exec 0 walks blocks 0->1->2, exec 1 walks
    /// 10->11, and each predicts the other.
    pub(super) fn ring() -> (Vec<Option<BlockCorrelationTable>>, ExecCorrelationTable) {
        let mut t0 = BlockCorrelationTable::new(64, 2, 4);
        t0.record_pair(b(0), b(1));
        t0.record_pair(b(1), b(2));
        t0.set_start(b(0));
        t0.set_end(b(2));
        let mut t1 = BlockCorrelationTable::new(64, 2, 4);
        t1.record_pair(b(10), b(11));
        t1.set_start(b(10));
        t1.set_end(b(11));
        let mut exec = ExecCorrelationTable::new();
        exec.record(e(0), [e(1), e(0), e(1)], e(1));
        exec.record(e(1), [e(0), e(1), e(0)], e(0));
        (vec![Some(t0), Some(t1)], exec)
    }

    #[test]
    fn ring_walk_is_bounded_by_max_ahead() {
        let (tables, exec) = ring();
        let mut walk = ChainWalk::new(e(0), [e(1), e(0), e(1)], b(0));
        let mut transitions = 0;
        for _ in 0..10_000 {
            match walk.step(&tables, &exec, 6) {
                ChainStep::Transition { .. } => transitions += 1,
                ChainStep::Paused => break,
                ChainStep::Ended => panic!("ring should pause, not end"),
                ChainStep::Emit(_) => {}
            }
        }
        assert_eq!(transitions, 6);
        assert_eq!(walk.kernels_ahead(), 6);
    }

    #[test]
    fn window_slide_resumes_a_paused_ring() {
        let (tables, exec) = ring();
        let mut walk = ChainWalk::new(e(0), [e(1), e(0), e(1)], b(0));
        while !matches!(walk.step(&tables, &exec, 2), ChainStep::Paused) {}
        assert!(walk.is_paused());
        walk.on_kernel_advanced();
        assert!(!walk.is_paused());
        // Progress continues: the next steps transition again.
        let mut advanced = false;
        for _ in 0..100 {
            match walk.step(&tables, &exec, 2) {
                ChainStep::Transition { .. } => {
                    advanced = true;
                    break;
                }
                ChainStep::Paused => break,
                ChainStep::Ended => panic!("ring ended"),
                ChainStep::Emit(_) => {}
            }
        }
        assert!(advanced);
    }

    #[test]
    fn steps_after_end_stay_ended() {
        let exec = ExecCorrelationTable::new();
        let tables: Vec<Option<BlockCorrelationTable>> = vec![None];
        let mut walk = ChainWalk::new(e(0), [e(0); 3], b(1));
        assert_eq!(walk.step(&tables, &exec, 4), ChainStep::Ended);
        assert_eq!(walk.step(&tables, &exec, 4), ChainStep::Ended);
        assert!(walk.is_ended());
    }

    #[test]
    fn zero_max_ahead_stays_within_current_kernel() {
        let (tables, exec) = ring();
        let mut walk = ChainWalk::new(e(0), [e(1), e(0), e(1)], b(0));
        let mut emitted = Vec::new();
        loop {
            match walk.step(&tables, &exec, 0) {
                ChainStep::Emit(cmd) => emitted.push(cmd.block.index()),
                ChainStep::Transition { .. } => panic!("must not cross kernels"),
                ChainStep::Paused | ChainStep::Ended => break,
            }
        }
        assert_eq!(emitted, vec![1, 2]);
    }
}

#[cfg(test)]
mod restart_tests {
    use proptest::prelude::*;

    use super::more_tests::ring;
    use super::tests::fig7;
    use super::*;

    fn b(i: u64) -> BlockNum {
        BlockNum::new(i)
    }
    const fn e(i: u32) -> ExecId {
        ExecId(i)
    }

    type Tables = (Vec<Option<BlockCorrelationTable>>, ExecCorrelationTable);

    fn encoded(walk: &ChainWalk) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        walk.encode_into(&mut w);
        w.finish()
    }

    /// What a walk does from here: its encoded bytes now and after
    /// every step, and the steps, sliding the window at each pause (up
    /// to `slides` times) and stopping at the end or after `max_steps`.
    fn script(
        walk: &mut ChainWalk,
        (tables, exec): &Tables,
        max_ahead: usize,
        slides: usize,
        max_steps: usize,
    ) -> (Vec<ChainStep>, Vec<Vec<u8>>) {
        let mut out = (Vec::new(), vec![encoded(walk)]);
        let mut slides_left = slides;
        for _ in 0..max_steps {
            let step = walk.step(tables, exec, max_ahead);
            out.0.push(step);
            out.1.push(encoded(walk));
            match step {
                ChainStep::Ended => break,
                ChainStep::Paused if slides_left == 0 => break,
                ChainStep::Paused => {
                    slides_left -= 1;
                    walk.on_kernel_advanced();
                }
                ChainStep::Emit(_) | ChainStep::Transition { .. } => {}
            }
        }
        out
    }

    /// Steps `walk` `pre` times (sliding the window at every pause), so
    /// it is left running, paused or ended.
    fn advance(walk: &mut ChainWalk, (tables, exec): &Tables, max_ahead: usize, pre: usize) {
        for _ in 0..pre {
            if walk.step(tables, exec, max_ahead) == ChainStep::Paused && pre.is_multiple_of(2) {
                walk.on_kernel_advanced();
            }
        }
    }

    /// A restarted walk replays exactly what a fresh one does.
    fn check_restart(
        tables: &Tables,
        first: (ExecId, [ExecId; 3], BlockNum),
        pre: usize,
        second: (ExecId, [ExecId; 3], BlockNum),
        max_ahead: usize,
    ) {
        let mut walk = ChainWalk::new(first.0, first.1, first.2);
        advance(&mut walk, tables, max_ahead, pre);
        walk.restart(second.0, second.1, second.2);
        let mut fresh = ChainWalk::new(second.0, second.1, second.2);
        let restarted = script(&mut walk, tables, max_ahead, 3, 400);
        let expected = script(&mut fresh, tables, max_ahead, 3, 400);
        assert_eq!(restarted, expected, "pre = {pre}, first = {first:?}");
    }

    #[test]
    fn restart_matches_new_on_fig7_from_every_point() {
        let tables = fig7();
        let ctx = [e(10), e(11), e(12)];
        for max_ahead in [0, 1, 8] {
            for pre in 0..24 {
                for origin in [2, 17, 11] {
                    check_restart(
                        &tables,
                        (e(0), ctx, b(origin)),
                        pre,
                        (e(0), ctx, b(2)),
                        max_ahead,
                    );
                    check_restart(
                        &tables,
                        (e(0), ctx, b(2)),
                        pre,
                        (e(1), [e(1), e(2), e(3)], b(origin)),
                        max_ahead,
                    );
                }
            }
        }
    }

    #[test]
    fn restart_matches_new_on_the_ring_from_every_point() {
        let tables = ring();
        for max_ahead in [0, 2, 6] {
            for pre in 0..40 {
                check_restart(
                    &tables,
                    (e(0), [e(1), e(0), e(1)], b(0)),
                    pre,
                    (e(1), [e(0), e(1), e(0)], b(10)),
                    max_ahead,
                );
                check_restart(
                    &tables,
                    (e(1), [e(0), e(1), e(0)], b(11)),
                    pre,
                    (e(0), [e(1), e(0), e(1)], b(0)),
                    max_ahead,
                );
            }
        }
    }

    /// The checkpoint lists visited blocks ascending, whatever order the
    /// walk met them in (the order a `BTreeSet` gave, which the
    /// snapshot bytes were defined by).
    #[test]
    fn visited_blocks_encode_ascending() {
        let (tables, exec) = fig7();
        let mut walk = ChainWalk::new(e(0), [e(10), e(11), e(12)], b(2));
        // Fault on b: the walk meets q (17) before e (5).
        for _ in 0..2 {
            walk.step(&tables, &exec, 8);
        }
        assert_eq!(walk.visited.inserted, vec![b(2), b(17), b(5)]);
        let bytes = encoded(&walk);
        let mut r = SnapshotReader::new(&bytes).expect("valid envelope");
        let back = ChainWalk::decode_from(&mut r).expect("decodes");
        assert_eq!(back.visited.inserted, vec![b(2), b(5), b(17)]);
        // The tail of the payload is the visited list: count, then the
        // blocks ascending (the trailer is the 8-byte checksum).
        let mut tail = SnapshotWriter::new();
        tail.u64(3);
        for i in [2, 5, 17] {
            tail.block(b(i));
        }
        let len = tail.payload_len();
        let tail = tail.finish();
        let payload_tail = |bytes: &[u8]| bytes[bytes.len() - 8 - len..bytes.len() - 8].to_vec();
        assert_eq!(payload_tail(&bytes), payload_tail(&tail));
    }

    /// Random block tables over three kernels: pairs, start and end
    /// anchors, and execution-ID successions.
    fn random_tables(
        pairs: &[(u8, u64, u64)],
        anchors: &[(u8, u64, u64)],
        succession: &[(u8, u8)],
    ) -> Tables {
        let mut tables: Vec<Option<BlockCorrelationTable>> = (0..3)
            .map(|_| Some(BlockCorrelationTable::new(16, 2, 3)))
            .collect();
        for &(x, prev, succ) in pairs {
            if let Some(t) = tables[usize::from(x)].as_mut() {
                t.record_pair(b(prev), b(succ));
            }
        }
        for &(x, start, end) in anchors {
            if let Some(t) = tables[usize::from(x)].as_mut() {
                t.set_start(b(start));
                t.set_end(b(end));
            }
        }
        let mut exec = ExecCorrelationTable::new();
        let mut history = [e(0), e(1), e(2)];
        for &(cur, next) in succession {
            let (cur, next) = (e(u32::from(cur)), e(u32::from(next)));
            exec.record(cur, history, next);
            history = [history[1], history[2], cur];
        }
        (tables, exec)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// On random tables, a walk restarted after any number of steps
        /// gives the same steps and the same bytes as a fresh walk.
        #[test]
        fn restart_matches_new_on_random_tables(
            pairs in prop::collection::vec((0u8..3, 0u64..12, 0u64..12), 0..40),
            anchors in prop::collection::vec((0u8..3, 0u64..12, 0u64..12), 0..4),
            succession in prop::collection::vec((0u8..3, 0u8..3), 0..24),
            pre in 0usize..80,
            first in (0u32..3, 0u64..12),
            second in (0u32..3, 0u64..12, 0u32..3),
            max_ahead in 0usize..5,
        ) {
            let tables = random_tables(&pairs, &anchors, &succession);
            let ctx = [e(second.2), e(1), e(2)];
            check_restart(
                &tables,
                (e(first.0), [e(0), e(1), e(2)], b(first.1)),
                pre,
                (e(second.0), ctx, b(second.1)),
                max_ahead,
            );
        }
    }
}
