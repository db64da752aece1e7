//! The online hot-block re-layout controller: closes the paper's SHP
//! placement loop (§4.1) against live traffic.
//!
//! The offline pipeline partitions each table once, from a training
//! trace, and the engine then serves that layout forever — even after
//! the hot set drifts and requests that used to touch one block start
//! straddling several. This controller re-solves placement *online*:
//! shard workers tee a sampled co-access record (the deduplicated
//! block/vector set of each drained request part) onto the metrics bus,
//! the controller accumulates a windowed co-access hypergraph per table,
//! and when the observed blocks-per-request degrades past a threshold
//! of the window's ideal it runs an incremental
//! [`shp::refine`](bandana_partition::refine) restricted to the K blocks
//! with the most *wasted slot reads* — slots a sampled read fetched but
//! the request did not ask for, the only reads a better placement can
//! save. A refinement becomes an [`Action::ApplyLayout`] only if it
//! touches strictly fewer blocks, summed over the window's retained
//! co-access edges, than the current layout does; that accept rule is
//! the churn guard, so a converged layout stops being rewritten even
//! while noisy windows keep clearing the solve bar. Applies run
//! atomically on the owning shard's worker thread between micro-batches;
//! every applied re-layout lands in the audit log together with the
//! blocks-per-request figures that justified it.
//!
//! Windows are scored from sampled vector *ids* against the controller's
//! own layout view, which advances the moment an apply is emitted, so a
//! window that straddles an apply is still scored consistently.

use crate::control::{Action, Controller, EngineSnapshot};
use bandana_partition::{average_fanout, refine, BlockLayout, RefineConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;

/// Per-tick cap on drained samples, mirroring the tuner's and the
/// budget controller's: the bus is shared, so one tick must never wedge
/// it replaying an unbounded backlog.
const MAX_SAMPLES_PER_TICK: usize = 4096;

/// One co-access sample teed off a shard worker: the table, one vector
/// id of the sampled request part, and the group token that stitches
/// the part back together on the bus. The low 8 bits of the group are
/// the shard index; the rest is a per-shard sequence number, so group
/// boundaries survive drain boundaries (samples from one shard arrive
/// in order, and a new group id from the same shard closes the last).
pub(crate) type CoAccessSample = (usize, u32, u64);

/// Tuning of the re-layout controller, set via
/// [`ServeConfig::with_relayout`](crate::ServeConfig::with_relayout).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReLayoutSettings {
    /// Sampled request parts (co-access groups) that must accumulate
    /// per table before the controller evaluates that table's window.
    pub window_requests: u64,
    /// Workers tee one request part in `sample_every` onto the bus.
    /// The stride counts *parts*, and parts arrive with the request
    /// stream's period (one per table a request touches) — pick a
    /// stride co-prime with parts-per-request, or the tap aliases and
    /// some tables are never sampled at all.
    pub sample_every: u32,
    /// A window triggers a solve only when observed blocks-per-request
    /// exceeds `degrade_ratio` times the window's ideal (the fewest
    /// blocks the same requests could touch if perfectly packed).
    pub degrade_ratio: f64,
    /// Working-set bound: the refinement is restricted to at most this
    /// many of the window's blocks, those with the most wasted slot
    /// reads first (a block whose every sampled read used all of its
    /// slots never enters), keeping the solve bounded regardless of
    /// table size.
    pub hot_blocks: usize,
    /// Refinement iterations handed to [`refine`].
    pub iterations: u32,
    /// Cap on retained co-access edges per table per window; groups
    /// past the cap still count toward the degradation measurement but
    /// carry no placement signal.
    pub max_window_edges: usize,
    /// Seed for the refinement's initial splits.
    pub seed: u64,
}

impl Default for ReLayoutSettings {
    fn default() -> Self {
        ReLayoutSettings {
            window_requests: 512,
            sample_every: 1,
            degrade_ratio: 1.25,
            hot_blocks: 256,
            iterations: 8,
            max_window_edges: 8192,
            seed: 0x00ba_11a5,
        }
    }
}

impl ReLayoutSettings {
    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.window_requests == 0 {
            return Err("re-layout window must cover at least one request".into());
        }
        if self.sample_every == 0 {
            return Err("sample_every must be at least 1".into());
        }
        if !self.degrade_ratio.is_finite() || self.degrade_ratio < 1.0 {
            return Err(format!("degrade ratio {} must be finite and >= 1", self.degrade_ratio));
        }
        if self.hot_blocks < 2 {
            return Err("refinement needs a working set of at least 2 blocks".into());
        }
        if self.iterations == 0 {
            return Err("refinement needs at least one iteration".into());
        }
        if self.max_window_edges == 0 {
            return Err("a window must retain at least one edge".into());
        }
        Ok(())
    }
}

/// Everything the control thread needs to build the re-layout
/// controller: the tables with their active layouts, the settings, and
/// the shard sample channel.
pub(crate) struct ReLayoutInputs {
    /// `(table id, active layout)`, table order. Layouts are the
    /// engine's build-time (or snapshot-recovered) placements; the
    /// controller evolves its copies as re-layouts are applied.
    pub tables: Vec<(usize, BlockLayout)>,
    pub settings: ReLayoutSettings,
    pub samples: mpsc::Receiver<CoAccessSample>,
}

/// A blocks-per-request gauge pair, each value stored as
/// [`f64::to_bits`] so the bus can publish it without a lock.
#[derive(Default)]
pub(crate) struct BlocksPerRequestGauge {
    observed: AtomicU64,
    ideal: AtomicU64,
}

impl BlocksPerRequestGauge {
    fn publish(&self, observed: f64, ideal: f64) {
        self.observed.store(observed.to_bits(), Ordering::Relaxed);
        self.ideal.store(ideal.to_bits(), Ordering::Relaxed);
    }

    /// `(observed, ideal)` blocks per request; `(0.0, 0.0)` until a
    /// window completes.
    pub(crate) fn read(&self) -> (f64, f64) {
        (
            f64::from_bits(self.observed.load(Ordering::Relaxed)),
            f64::from_bits(self.ideal.load(Ordering::Relaxed)),
        )
    }
}

/// Per-table window state: the co-access hypergraph accumulated so far
/// and the degradation measurement it will be judged by.
struct TableState {
    table: usize,
    /// The controller's view of the table's active layout; advanced
    /// optimistically when an [`Action::ApplyLayout`] is emitted.
    layout: BlockLayout,
    /// Retained co-access edges (sorted, deduplicated vector-id sets),
    /// capped at [`ReLayoutSettings::max_window_edges`].
    edges: Vec<Vec<u32>>,
    /// Wasted slot reads this window, per block: for every sampled group
    /// that touched the block, its slots minus the group's ids in it.
    waste: Vec<u64>,
    /// Distinct blocks actually touched, summed over the window's groups.
    observed_blocks: u64,
    /// Fewest blocks the same groups could touch if perfectly packed.
    ideal_blocks: u64,
    /// Co-access groups folded into the current window.
    groups: u64,
}

impl TableState {
    /// The refinement working set: up to `limit` blocks with non-zero
    /// waste, most waste first (ties by block id, for determinism).
    fn working_set(&self, limit: usize) -> Vec<u32> {
        let mut blocks: Vec<u32> =
            (0..self.waste.len() as u32).filter(|&b| self.waste[b as usize] > 0).collect();
        blocks.sort_unstable_by_key(|&b| (std::cmp::Reverse(self.waste[b as usize]), b));
        blocks.truncate(limit);
        blocks
    }
}

/// The controller: reassembles teed co-access groups per table, scores
/// each window's observed blocks-per-request against its ideal, and
/// when the layout has demonstrably rotted runs a bounded incremental
/// SHP refinement over the blocks that waste the most slot reads,
/// applying it only if it packs the window tighter.
///
/// Runs on the metrics bus next to the tuner, budget, and SLO
/// controllers; the shared counter and gauge references point into the
/// engine's shared state so solves and the freshest blocks-per-request
/// figures surface in [`EngineMetrics`](crate::EngineMetrics) and the
/// Prometheus gauges.
pub(crate) struct ReLayoutController<'a> {
    settings: ReLayoutSettings,
    samples: mpsc::Receiver<CoAccessSample>,
    states: Vec<TableState>,
    /// Open (not yet finalized) group per shard: `(group, table, ids)`.
    /// A new group id from the same shard finalizes the previous one.
    open: HashMap<u64, (u64, usize, Vec<u32>)>,
    /// [`EngineMetrics::relayout_solves`](crate::EngineMetrics) counter.
    solves: &'a AtomicU64,
    /// The freshest window any table completed.
    latest: &'a BlocksPerRequestGauge,
    /// Each table's freshest completed window, indexed by table id.
    per_table: &'a [BlocksPerRequestGauge],
}

impl<'a> ReLayoutController<'a> {
    /// Builds the controller.
    ///
    /// # Panics
    ///
    /// Panics on invalid settings or an empty table set (the engine
    /// validates both before spawning the bus).
    pub(crate) fn new(
        inputs: ReLayoutInputs,
        solves: &'a AtomicU64,
        latest: &'a BlocksPerRequestGauge,
        per_table: &'a [BlocksPerRequestGauge],
    ) -> Self {
        inputs.settings.validate().expect("invalid re-layout settings");
        assert!(!inputs.tables.is_empty(), "re-layout controller needs at least one table");
        let states = inputs
            .tables
            .into_iter()
            .map(|(table, layout)| {
                let blocks = layout.num_blocks() as usize;
                TableState {
                    table,
                    layout,
                    edges: Vec::new(),
                    waste: vec![0; blocks],
                    observed_blocks: 0,
                    ideal_blocks: 0,
                    groups: 0,
                }
            })
            .collect();
        ReLayoutController {
            settings: inputs.settings,
            samples: inputs.samples,
            states,
            open: HashMap::new(),
            solves,
            latest,
            per_table,
        }
    }

    /// Folds one finalized co-access group into its table's window and,
    /// if that completes the window, evaluates it.
    fn finalize_group(&mut self, table: usize, ids: Vec<u32>) -> Option<Action> {
        let i = self.states.iter().position(|s| s.table == table)?;
        let state = &mut self.states[i];
        let n = state.layout.num_vectors();
        // The tee fires only after a successful lookup, so out-of-range
        // ids should not occur; skip them defensively rather than panic
        // inside `block_of`.
        let mut kept: Vec<u32> = ids.into_iter().filter(|&v| v < n).collect();
        if kept.is_empty() {
            return None;
        }
        // Deduplicated, so no block holds more of the group's ids than
        // it has slots.
        kept.sort_unstable();
        kept.dedup();
        let per_block = state.layout.vectors_per_block();
        let mut blocks: Vec<u32> = kept.iter().map(|&v| state.layout.block_of(v)).collect();
        blocks.sort_unstable();
        for run in blocks.chunk_by(|a, b| a == b) {
            state.waste[run[0] as usize] += (per_block - run.len()) as u64;
            state.observed_blocks += 1;
        }
        state.ideal_blocks += kept.len().div_ceil(per_block) as u64;
        state.groups += 1;
        if kept.len() >= 2 && state.edges.len() < self.settings.max_window_edges {
            state.edges.push(kept);
        }
        if state.groups >= self.settings.window_requests {
            return self.complete_window(i);
        }
        None
    }

    /// Scores table state `i`'s completed window, refining its layout
    /// if the degradation bar is cleared, then resets the window.
    fn complete_window(&mut self, i: usize) -> Option<Action> {
        let state = &mut self.states[i];
        let groups = state.groups as f64;
        let observed = state.observed_blocks as f64 / groups;
        let ideal = state.ideal_blocks as f64 / groups;
        self.latest.publish(observed, ideal);
        if let Some(gauge) = self.per_table.get(state.table) {
            gauge.publish(observed, ideal);
        }

        let mut action = None;
        if observed > self.settings.degrade_ratio * ideal && !state.edges.is_empty() {
            self.solves.fetch_add(1, Ordering::Relaxed);
            let hot = state.working_set(self.settings.hot_blocks);
            let config =
                RefineConfig { iterations: self.settings.iterations, seed: self.settings.seed };
            let refinement =
                refine(&state.layout, &hot, state.edges.iter().map(Vec::as_slice), &config);
            let refined =
                BlockLayout::from_order(refinement.order, state.layout.vectors_per_block());
            // The accept rule: ship only a layout that packs this
            // window's edges into strictly fewer blocks (same edges, so
            // comparing mean fanouts compares the sums). The view
            // advances optimistically; the shard applies the same order
            // between micro-batches.
            let fanout = |layout| average_fanout(layout, state.edges.iter().map(Vec::as_slice));
            if fanout(&refined) < fanout(&state.layout) {
                state.layout = refined;
                action = Some(Action::ApplyLayout {
                    table: state.table,
                    order: state.layout.order().to_vec(),
                    observed_blocks_per_request: observed,
                    ideal_blocks_per_request: ideal,
                });
            }
        }

        state.edges.clear();
        state.waste.fill(0);
        state.observed_blocks = 0;
        state.ideal_blocks = 0;
        state.groups = 0;
        action
    }
}

impl Controller for ReLayoutController<'_> {
    fn name(&self) -> &str {
        "re-layout"
    }

    fn observe(&mut self, _snapshot: &EngineSnapshot) -> Vec<Action> {
        let mut actions = Vec::new();
        // Bounded drain, like the tuner's: a disconnected channel (all
        // workers exited) just yields quiet drains.
        let mut drained = 0usize;
        while drained < MAX_SAMPLES_PER_TICK {
            let Ok((table, id, group)) = self.samples.try_recv() else { break };
            drained += 1;
            let shard = group & 0xff;
            let prev = match self.open.get_mut(&shard) {
                Some(slot) if slot.0 == group => {
                    slot.2.push(id);
                    None
                }
                Some(slot) => Some(std::mem::replace(slot, (group, table, vec![id]))),
                None => {
                    self.open.insert(shard, (group, table, vec![id]));
                    None
                }
            };
            if let Some((_, prev_table, ids)) = prev {
                actions.extend(self.finalize_group(prev_table, ids));
            }
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::sync_channel;
    use std::time::Duration;

    fn snapshot() -> EngineSnapshot {
        EngineSnapshot {
            tick: 0,
            uptime: Duration::from_millis(1),
            window_span: Duration::from_millis(400),
            batch_window: Duration::ZERO,
            shards: Vec::new(),
            tenants: Vec::new(),
            cache_partition: Vec::new(),
        }
    }

    fn harness(
        tables: Vec<(usize, BlockLayout)>,
        settings: ReLayoutSettings,
    ) -> (mpsc::SyncSender<CoAccessSample>, &'static AtomicU64, ReLayoutController<'static>) {
        let (tx, rx) = sync_channel(1 << 16);
        let solves: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0)));
        let latest: &'static BlocksPerRequestGauge = Box::leak(Box::default());
        let num_tables = tables.iter().map(|t| t.0 + 1).max().unwrap_or(0);
        let per_table: &'static [BlocksPerRequestGauge] =
            Box::leak((0..num_tables).map(|_| BlocksPerRequestGauge::default()).collect());
        let inputs = ReLayoutInputs { tables, settings, samples: rx };
        let ctl = ReLayoutController::new(inputs, solves, latest, per_table);
        (tx, solves, ctl)
    }

    /// Sends one co-access group (request part) for `table` from shard
    /// `shard` with sequence number `seq`.
    fn send_group(
        tx: &mpsc::SyncSender<CoAccessSample>,
        table: usize,
        shard: u64,
        seq: u64,
        ids: &[u32],
    ) {
        let group = (seq << 8) | shard;
        for &id in ids {
            tx.send((table, id, group)).unwrap();
        }
    }

    /// A hot set whose groups straddle four blocks each under the
    /// identity layout: group `g` touches ids `{g, 8+g, 16+g, 24+g}`,
    /// one per block for blocks 0..4 (8 vectors per block).
    fn straddling_group(g: u32) -> [u32; 4] {
        [g, 8 + g, 16 + g, 24 + g]
    }

    fn settings() -> ReLayoutSettings {
        ReLayoutSettings { window_requests: 32, hot_blocks: 8, ..ReLayoutSettings::default() }
    }

    /// Sends `n` finalized straddling groups (plus the extra open one
    /// that closes the last) starting at sequence `seq0`.
    fn send_straddling_window(tx: &mpsc::SyncSender<CoAccessSample>, seq0: u64, n: u64) {
        for k in 0..=n {
            send_group(tx, 0, 0, seq0 + k, &straddling_group((k % 8) as u32));
        }
    }

    #[test]
    fn drifted_hot_set_triggers_a_refining_apply_layout() {
        let layout = BlockLayout::identity(64, 8);
        let (tx, solves, mut ctl) = harness(vec![(0, layout.clone())], settings());
        send_straddling_window(&tx, 0, 32);
        let actions = ctl.observe(&snapshot());
        assert_eq!(solves.load(Ordering::Relaxed), 1, "degraded window must solve");
        let Some(Action::ApplyLayout {
            table,
            order,
            observed_blocks_per_request,
            ideal_blocks_per_request,
        }) = actions.first()
        else {
            panic!("expected an ApplyLayout, got {actions:?}");
        };
        assert_eq!(*table, 0);
        assert!((observed_blocks_per_request - 4.0).abs() < 1e-9, "each group straddles 4 blocks");
        assert!((ideal_blocks_per_request - 1.0).abs() < 1e-9, "each group fits one block");
        // The refined order regroups the hot set: the same groups touch
        // strictly fewer blocks than before.
        let new = BlockLayout::from_order(order.clone(), 8);
        let cost = |l: &BlockLayout| -> usize {
            (0..8u32)
                .map(|g| {
                    let mut b: Vec<u32> =
                        straddling_group(g).iter().map(|&v| l.block_of(v)).collect();
                    b.sort_unstable();
                    b.dedup();
                    b.len()
                })
                .sum()
        };
        assert!(cost(&new) < cost(&layout), "refined layout must regroup the hot set");
    }

    #[test]
    fn solves_are_deterministic() {
        let run = || {
            let (tx, _, mut ctl) = harness(vec![(0, BlockLayout::identity(64, 8))], settings());
            send_straddling_window(&tx, 0, 32);
            ctl.observe(&snapshot())
        };
        assert_eq!(run(), run(), "same stream must yield the same actions");
    }

    #[test]
    fn block_aligned_traffic_never_solves_but_publishes_gauges() {
        let (tx, solves, mut ctl) = harness(vec![(0, BlockLayout::identity(64, 8))], settings());
        // Every group sits inside one block: observed == ideal == 1.
        for k in 0..=32u64 {
            let base = ((k % 8) * 8) as u32;
            send_group(&tx, 0, 0, k, &[base, base + 1, base + 2]);
        }
        let actions = ctl.observe(&snapshot());
        assert!(actions.is_empty(), "aligned traffic must not re-layout: {actions:?}");
        assert_eq!(solves.load(Ordering::Relaxed), 0);
        let (observed, ideal) = ctl.latest.read();
        assert!((observed - 1.0).abs() < 1e-9, "observed gauge: {observed}");
        assert!((ideal - 1.0).abs() < 1e-9, "ideal gauge: {ideal}");
    }

    #[test]
    fn each_table_publishes_its_own_gauges() {
        let (tx, _, mut ctl) = harness(
            vec![(0, BlockLayout::identity(64, 8)), (2, BlockLayout::identity(64, 8))],
            ReLayoutSettings { degrade_ratio: 100.0, ..settings() },
        );
        // Table 2's window completes first (aligned: 1 block per group),
        // then table 0's (straddling: 4 blocks per group).
        for k in 0..=32u64 {
            send_group(&tx, 2, 1, k, &[0, 1]);
        }
        send_straddling_window(&tx, 0, 32);
        assert!(ctl.observe(&snapshot()).is_empty());
        assert_eq!(ctl.per_table[0].read(), (4.0, 1.0));
        assert_eq!(ctl.per_table[1].read(), (0.0, 0.0), "table 1 has no controller state");
        assert_eq!(ctl.per_table[2].read(), (1.0, 1.0));
        assert_eq!(ctl.latest.read(), (4.0, 1.0), "the unlabelled pair is the latest window");
    }

    /// Total distinct blocks the multi-id `groups` touch under `layout`,
    /// computed with the partition crate's own fanout measure.
    fn window_fanout(layout: &BlockLayout, groups: &[Vec<u32>]) -> f64 {
        let edges = groups.iter().filter(|g| g.len() >= 2).map(Vec::as_slice);
        let report = bandana_partition::fanout_report(layout, edges);
        report.average_fanout * report.queries as f64
    }

    /// Sends `groups` for table 0 from shard 0, then a one-id group for a
    /// table the controller does not know, which finalizes the last
    /// group without counting toward any window; then ticks until every
    /// sample sent is drained and returns the actions emitted.
    fn feed(
        ctl: &mut ReLayoutController<'static>,
        tx: &mpsc::SyncSender<CoAccessSample>,
        seq: &mut u64,
        groups: &[Vec<u32>],
    ) -> Vec<Action> {
        let mut samples = 1;
        for group in groups {
            send_group(tx, 0, 0, *seq, group);
            *seq += 1;
            samples += group.len();
        }
        send_group(tx, 99, 0, *seq, &[0]);
        *seq += 1;
        (0..=samples.div_ceil(MAX_SAMPLES_PER_TICK))
            .flat_map(|_| ctl.observe(&snapshot()))
            .collect()
    }

    /// Feeds each of `windows` (exactly one controller window of groups
    /// each) in turn, checking every emitted `ApplyLayout` against the
    /// layout the window was scored on: the applied order must touch
    /// strictly fewer blocks over the window's edges. Returns the number
    /// of applies per window.
    fn replay_checking_accept_rule(
        ctl: &mut ReLayoutController<'static>,
        tx: &mpsc::SyncSender<CoAccessSample>,
        mut layout: BlockLayout,
        windows: &[Vec<Vec<u32>>],
    ) -> Vec<usize> {
        let mut seq = 0;
        windows
            .iter()
            .map(|window| {
                let actions = feed(ctl, tx, &mut seq, window);
                for action in &actions {
                    let Action::ApplyLayout { order, .. } = action else {
                        panic!("unexpected action {action:?}")
                    };
                    let refined =
                        BlockLayout::from_order(order.clone(), layout.vectors_per_block());
                    let (before, after) =
                        (window_fanout(&layout, window), window_fanout(&refined, window));
                    assert!(after < before, "applied an order at fanout {after} vs {before}");
                    layout = refined;
                }
                actions.len()
            })
            .collect()
    }

    #[test]
    fn no_apply_ships_an_order_that_fails_to_lower_the_window_fanout() {
        // A scattered window applies; replayed against the layout it
        // packed, the same window no longer clears the bar.
        let (tx, solves, mut ctl) = harness(vec![(0, BlockLayout::identity(64, 8))], settings());
        let straddling: Vec<Vec<u32>> = (0..32).map(|k| straddling_group(k % 8).to_vec()).collect();
        let windows = [straddling.clone(), straddling];
        let applies =
            replay_checking_accept_rule(&mut ctl, &tx, BlockLayout::identity(64, 8), &windows);
        assert_eq!(applies, [1, 0]);
        assert_eq!(solves.load(Ordering::Relaxed), 1);

        // Three five-id groups sharing vector 0 cannot all fit one
        // 8-slot block: 1 + 2 + 2 = 5 blocks is optimal and the identity
        // layout already achieves it. Every window clears the 1.25× bar
        // (5/3 blocks per group against an ideal of 1) and solves, and
        // no refinement may ship.
        let (tx, solves, mut ctl) = harness(vec![(0, BlockLayout::identity(64, 8))], settings());
        let shapes = [vec![0, 1, 2, 3, 4], vec![0, 5, 6, 7, 8], vec![0, 9, 10, 11, 12]];
        let packed: Vec<Vec<u32>> = (0..32).map(|k| shapes[k % 3].clone()).collect();
        let applies = replay_checking_accept_rule(
            &mut ctl,
            &tx,
            BlockLayout::identity(64, 8),
            &[packed.clone(), packed.clone(), packed],
        );
        assert_eq!(applies, [0, 0, 0], "an already-packed layout must never be rewritten");
        assert_eq!(solves.load(Ordering::Relaxed), 3, "each degraded window still solves");
    }

    #[test]
    fn blocks_read_in_full_never_enter_the_working_set() {
        let (tx, _, mut ctl) = harness(
            vec![(0, BlockLayout::identity(64, 8))],
            ReLayoutSettings { degrade_ratio: 100.0, ..settings() },
        );
        // Every group reads all 8 slots of block 0 — the most-touched
        // block — plus one vector each from blocks 1 and 2.
        let groups: Vec<Vec<u32>> =
            (0..16).map(|g| (0..8).chain([8 + g % 8, 16 + g % 8]).collect()).collect();
        assert!(feed(&mut ctl, &tx, &mut 0, &groups).is_empty());
        assert_eq!(ctl.states[0].waste[..3], [0, 16 * 7, 16 * 7], "7 idle slots per group");
        assert_eq!(ctl.states[0].working_set(8), [1, 2], "block 0 wastes no slot reads");
    }

    /// A deterministic 64-bit stream (SplitMix64) for the convergence
    /// workload, so the test needs no RNG crate.
    struct SplitMix(u64);

    impl SplitMix {
        /// Uniform in `[0, 1)`.
        fn next_f64(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    #[test]
    fn default_settings_converge_to_the_packed_bound_then_stop_applying() {
        // 512 fixed co-access groups of 16 (8192 vectors, 16 per block),
        // dealt one member per block: member j of group g is vector
        // g + 512j, so under the identity layout each group's members sit
        // in 16 different blocks, and the working set covers at most half
        // of the table's 512 blocks per solve.
        const GROUPS: u32 = 512;
        const PER_BLOCK: u32 = 16;
        const GROUPS_PER_PART: usize = 4;
        const WINDOWS: usize = 24;
        const CONVERGE_WITHIN: usize = 8;
        let settings = ReLayoutSettings::default();
        let layout = BlockLayout::identity(GROUPS * PER_BLOCK, PER_BLOCK as usize);
        let (tx, _, mut ctl) = harness(vec![(0, layout)], settings);

        // Zipf(1.1) popularity over the groups; each part carries several.
        let weights: Vec<f64> = (1..=GROUPS).map(|r| f64::from(r).powf(-1.1)).collect();
        let total: f64 = weights.iter().sum();
        let mut rng = SplitMix(7);
        let mut part = || -> Vec<u32> {
            (0..GROUPS_PER_PART)
                .flat_map(|_| {
                    let mut u = rng.next_f64() * total;
                    let g = weights
                        .iter()
                        .position(|w| {
                            u -= w;
                            u < 0.0
                        })
                        .unwrap_or(GROUPS as usize - 1) as u32;
                    (0..PER_BLOCK).map(move |j| g + GROUPS * j)
                })
                .collect()
        };

        let mut seq = 0;
        let mut ratios = Vec::new();
        let mut applied = Vec::new();
        for _ in 0..WINDOWS {
            let window: Vec<Vec<u32>> = (0..settings.window_requests).map(|_| part()).collect();
            let applies = feed(&mut ctl, &tx, &mut seq, &window).len();
            applied.push(applied.last().copied().unwrap_or(0) + applies);
            let (observed, ideal) = ctl.per_table[0].read();
            ratios.push(observed / ideal);
        }
        let converged = ratios
            .iter()
            .position(|&r| r <= settings.degrade_ratio)
            .unwrap_or_else(|| panic!("never reached the bar: ratios {ratios:?}"));
        assert!(converged < CONVERGE_WITHIN, "took {converged} windows: ratios {ratios:?}");
        assert!(
            ratios[converged..].iter().all(|&r| r <= settings.degrade_ratio),
            "fell back above the bar: {ratios:?}"
        );
        assert!(
            applied[converged..].iter().all(|&a| a == applied[converged]),
            "applies kept landing after convergence: {applied:?} (ratios {ratios:?})"
        );
    }

    #[test]
    fn groups_interleave_across_shards_and_finalize_on_next_group() {
        // A huge degrade ratio keeps the completed window from solving,
        // isolating the reassembly bookkeeping under test.
        let (tx, _, mut ctl) = harness(
            vec![(0, BlockLayout::identity(64, 8))],
            ReLayoutSettings { window_requests: 2, degrade_ratio: 100.0, ..settings() },
        );
        // Shards 0 and 1 interleave samples of different groups; each
        // shard's next group closes its previous one.
        let g0 = 1u64 << 8;
        let g1 = (1u64 << 8) | 1;
        tx.send((0, 0, g0)).unwrap();
        tx.send((0, 8, g1)).unwrap();
        tx.send((0, 16, g0)).unwrap();
        tx.send((0, 24, g1)).unwrap();
        send_group(&tx, 0, 0, 2, &[1]); // closes g0
        send_group(&tx, 0, 1, 2, &[2]); // closes g1
        assert!(ctl.observe(&snapshot()).is_empty());
        // Both interleaved groups were reassembled intact: 2 groups of
        // 2 distinct blocks each.
        let (observed, _) = ctl.latest.read();
        assert!((observed - 2.0).abs() < 1e-9, "observed gauge: {observed}");
    }

    #[test]
    fn drain_is_bounded_per_tick() {
        let (tx, solves, mut ctl) = harness(
            vec![(0, BlockLayout::identity(64, 8))],
            ReLayoutSettings { window_requests: 5000, ..settings() },
        );
        for k in 0..6000u64 {
            send_group(&tx, 0, 0, k, &[(k % 64) as u32]);
        }
        assert!(ctl.observe(&snapshot()).is_empty());
        assert_eq!(solves.load(Ordering::Relaxed), 0);
        // 4096 samples drained; singleton groups mean 4095 finalized.
        assert_eq!(ctl.states[0].groups, 4095, "one tick drains at most the cap");
        let _ = ctl.observe(&snapshot());
        assert!(ctl.states[0].groups < 4095, "the window completed on the next tick");
    }

    #[test]
    fn unknown_tables_and_disconnected_channels_are_quiet() {
        let (tx, _, mut ctl) = harness(vec![(0, BlockLayout::identity(64, 8))], settings());
        send_group(&tx, 9, 0, 0, &[1, 2]); // unknown table
        send_group(&tx, 9, 0, 1, &[3]); // closes it
        drop(tx);
        assert!(ctl.observe(&snapshot()).is_empty());
        assert_eq!(ctl.states[0].groups, 0, "unknown tables never count toward a window");
        assert!(ctl.observe(&snapshot()).is_empty(), "disconnected channel drains quietly");
    }

    #[test]
    fn settings_validation_rejects_degenerate_values() {
        assert!(ReLayoutSettings::default().validate().is_ok());
        let bad = |f: fn(&mut ReLayoutSettings)| {
            let mut s = ReLayoutSettings::default();
            f(&mut s);
            s.validate()
        };
        assert!(bad(|s| s.window_requests = 0).is_err());
        assert!(bad(|s| s.sample_every = 0).is_err());
        assert!(bad(|s| s.degrade_ratio = 0.5).is_err());
        assert!(bad(|s| s.degrade_ratio = f64::NAN).is_err());
        assert!(bad(|s| s.hot_blocks = 1).is_err());
        assert!(bad(|s| s.iterations = 0).is_err());
        assert!(bad(|s| s.max_window_edges = 0).is_err());
    }
}
