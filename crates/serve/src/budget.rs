//! The online DRAM cache-budget controller: closes the paper's
//! budget-allocation loop (§4.3.3 + Table 2) against live traffic.
//!
//! The offline pipeline solves the DRAM split across embedding tables
//! once, from training-trace hit-rate curves, and the engine then runs
//! that partition forever — even when the hot table migrates. This
//! controller re-solves the split *online*: shard workers tee a sampled
//! slice of each table's cache-probe stream onto the metrics bus, a
//! [`CurveSampler`] per table turns the stream into a fresh
//! [`HitRateCurve`] each window, and
//! [`allocate_dram`] re-divides the fixed
//! total budget — weighted by the [`PriorityClass`](crate::PriorityClass)
//! of the tenants driving each table — into per-table targets, none above
//! the table's vector count ([`cap_at_sizes`]). Targets
//! that differ from the running capacity by more than a hysteresis
//! fraction become [`Action::SetCachePartition`]s, applied on the owning
//! shard's worker thread between micro-batches; every applied move lands
//! in the audit log together with the curve points that justified it.

use crate::control::{Action, Controller, EngineSnapshot, TableCachePartition};
use bandana_cache::{allocate_dram, CurveSampler, HitRateCurve};
use bandana_core::tuner::cap_at_sizes;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};

/// Per-tick cap on drained samples, mirroring the tuner's: the budget
/// controller shares the metrics bus with every other controller, so one
/// tick must never wedge the bus replaying an unbounded backlog.
const MAX_SAMPLES_PER_TICK: usize = 4096;

/// One cache-probe sample teed off a shard worker: the table probed, the
/// vector id, and the runtime index of the tenant whose request drove it.
pub(crate) type BudgetSample = (usize, u32, u32);

/// Tuning of the cache budget controller, set via
/// [`ServeConfig::with_cache_budget`](crate::ServeConfig::with_cache_budget).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheBudgetSettings {
    /// Sampled lookups that must accumulate before the controller
    /// re-solves the partition (one measurement window).
    pub window_lookups: u64,
    /// Ladder rungs in each table's online hit-rate curve.
    pub rungs: usize,
    /// Spatial sampling rate in `(0, 1]` fed to each [`CurveSampler`]
    /// (the miniature caches scale by the same factor).
    pub sampling_rate: f64,
    /// Workers tee one cache probe in `sample_every` onto the bus.
    pub sample_every: u32,
    /// Solver granularity in entries
    /// ([`allocate_dram`]'s step size).
    pub granularity: usize,
    /// Hysteresis: a solved target is applied only when it differs from
    /// the running capacity by more than this fraction of it — small
    /// oscillations in the solve never thrash the caches.
    pub hysteresis: f64,
    /// Weight multiplier per tenant [`PriorityClass`](crate::PriorityClass)
    /// (indexed by [`PriorityClass::index`](crate::PriorityClass::index):
    /// high, normal, low): a table driven by high-class tenants bids more
    /// for the same marginal hit-rate gain.
    pub class_weights: [f64; 3],
    /// Hash salt for the spatial samplers.
    pub salt: u64,
}

impl Default for CacheBudgetSettings {
    fn default() -> Self {
        CacheBudgetSettings {
            window_lookups: 2048,
            rungs: 8,
            sampling_rate: 1.0,
            sample_every: 1,
            granularity: 64,
            hysteresis: 0.05,
            class_weights: [4.0, 2.0, 1.0],
            salt: 0x0bad_b0b5,
        }
    }
}

impl CacheBudgetSettings {
    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.window_lookups == 0 {
            return Err("budget window must cover at least one lookup".into());
        }
        if self.rungs == 0 {
            return Err("need at least one curve rung".into());
        }
        if !(0.0 < self.sampling_rate && self.sampling_rate <= 1.0) {
            return Err(format!("sampling rate {} outside (0, 1]", self.sampling_rate));
        }
        if self.sample_every == 0 {
            return Err("sample_every must be at least 1".into());
        }
        if self.granularity == 0 {
            return Err("solver granularity must be non-zero".into());
        }
        if !(0.0..1.0).contains(&self.hysteresis) {
            return Err(format!("hysteresis {} outside [0, 1)", self.hysteresis));
        }
        if self.class_weights.iter().any(|&w| w <= 0.0 || !w.is_finite()) {
            return Err("class weights must be positive and finite".into());
        }
        Ok(())
    }
}

/// Everything the control thread needs to build the budget controller:
/// the tables with their build-time capacities, the settings, and the
/// shard sample channel.
pub(crate) struct BudgetInputs {
    /// `(table id, build-time cache capacity in entries)`, table order.
    pub tables: Vec<(usize, usize)>,
    /// Each table's vector count, in `tables` order.
    pub sizes: Vec<usize>,
    pub settings: CacheBudgetSettings,
    pub samples: mpsc::Receiver<BudgetSample>,
}

/// The controller: folds sampled per-table access streams into fresh
/// hit-rate curves each window and re-solves the DRAM split against the
/// fixed total budget (the sum of the build-time partition).
///
/// Runs on the metrics bus next to the tuner and SLO controllers; the
/// shared counter/partition references point into the engine's shared
/// state so re-solves and applied moves surface in
/// [`EngineMetrics`](crate::EngineMetrics) and the Prometheus gauges.
pub(crate) struct CacheBudgetController<'a> {
    settings: CacheBudgetSettings,
    samples: mpsc::Receiver<BudgetSample>,
    /// Table ids, in the order `samplers`/`current`/`weights` follow.
    tables: Vec<usize>,
    samplers: Vec<CurveSampler>,
    /// Capacity last applied (starts at the build-time partition).
    current: Vec<usize>,
    /// Each table's vector count: no target goes above it.
    sizes: Vec<usize>,
    /// Class-weighted sampled access mass this window.
    weights: Vec<f64>,
    /// The freshest curve per table: a table idle this window is solved
    /// from its previous curve rather than forgotten.
    last_curves: Vec<Option<HitRateCurve>>,
    /// The fixed total budget in entries.
    total: usize,
    /// Samples folded into the current window.
    window_samples: u64,
    /// [`EngineMetrics::rebudget_solves`](crate::EngineMetrics) counter.
    solves: &'a AtomicU64,
    /// The engine's live partition view (targets are published here).
    partition: &'a Mutex<Vec<TableCachePartition>>,
}

impl<'a> CacheBudgetController<'a> {
    /// Builds the controller.
    ///
    /// # Panics
    ///
    /// Panics on invalid settings or an empty table set (the engine
    /// validates both before spawning the bus).
    pub(crate) fn new(
        inputs: BudgetInputs,
        solves: &'a AtomicU64,
        partition: &'a Mutex<Vec<TableCachePartition>>,
    ) -> Self {
        inputs.settings.validate().expect("invalid cache budget settings");
        assert!(!inputs.tables.is_empty(), "budget controller needs at least one table");
        let settings = inputs.settings;
        let total: usize = inputs.tables.iter().map(|&(_, c)| c).sum::<usize>().max(1);
        let tables: Vec<usize> = inputs.tables.iter().map(|&(t, _)| t).collect();
        let current: Vec<usize> = inputs.tables.iter().map(|&(_, c)| c).collect();
        let samplers = tables
            .iter()
            .map(|_| {
                CurveSampler::new(total, settings.rungs, settings.sampling_rate, settings.salt)
            })
            .collect();
        CacheBudgetController {
            settings,
            samples: inputs.samples,
            last_curves: vec![None; tables.len()],
            weights: vec![0.0; tables.len()],
            samplers,
            current,
            sizes: inputs.sizes,
            tables,
            total,
            window_samples: 0,
            solves,
            partition,
        }
    }

    /// The class weight of tenant runtime index `tenant` under
    /// `snapshot`; a tenant missing from the snapshot (registered after
    /// it was taken) weighs as the normal class.
    fn tenant_weight(&self, snapshot: &EngineSnapshot, tenant: u32) -> f64 {
        snapshot.tenants.get(tenant as usize).map_or(self.settings.class_weights[1], |t| {
            self.settings.class_weights[t.priority_class.index()]
        })
    }

    /// Re-solves the partition from the window's curves and returns the
    /// moves that clear the hysteresis bar.
    fn solve(&mut self) -> Vec<Action> {
        self.solves.fetch_add(1, Ordering::Relaxed);
        let mut curves: Vec<HitRateCurve> = Vec::with_capacity(self.tables.len());
        for (i, sampler) in self.samplers.iter().enumerate() {
            if let Some(curve) = sampler.curve() {
                self.last_curves[i] = Some(curve);
            }
            // Idle since the start: a flat-zero curve bids nothing.
            curves.push(
                self.last_curves[i]
                    .clone()
                    .unwrap_or_else(|| HitRateCurve::new(vec![(self.total, 0.0)])),
            );
        }
        // A window with no weighted mass anywhere would solve from pure
        // tie-breaking; keep the current split instead.
        if self.weights.iter().all(|&w| w <= 0.0) {
            return Vec::new();
        }
        let mut targets =
            allocate_dram(self.total, &curves, &self.weights, self.settings.granularity);
        cap_at_sizes(&mut targets, &self.sizes, &self.weights);
        {
            let mut partition = self.partition.lock().expect("cache partition lock");
            for (i, &table) in self.tables.iter().enumerate() {
                if let Some(p) = partition.iter_mut().find(|p| p.table == table) {
                    p.target_entries = targets[i];
                }
            }
        }
        let mut actions = Vec::new();
        for (i, &table) in self.tables.iter().enumerate() {
            let target = targets[i];
            let current = self.current[i];
            let delta = target.abs_diff(current);
            if delta == 0 || (delta as f64) <= self.settings.hysteresis * current as f64 {
                continue;
            }
            self.current[i] = target;
            actions.push(Action::SetCachePartition {
                table,
                entries: target,
                curve: curves[i].points().to_vec(),
            });
        }
        actions
    }
}

impl Controller for CacheBudgetController<'_> {
    fn name(&self) -> &str {
        "cache-budget"
    }

    fn observe(&mut self, snapshot: &EngineSnapshot) -> Vec<Action> {
        // Bounded drain, like the tuner's: a disconnected channel (all
        // workers exited) just yields quiet drains.
        let mut drained = 0usize;
        while drained < MAX_SAMPLES_PER_TICK {
            let Ok((table, id, tenant)) = self.samples.try_recv() else { break };
            drained += 1;
            let Some(i) = self.tables.iter().position(|&t| t == table) else { continue };
            self.samplers[i].observe(id);
            self.weights[i] += self.tenant_weight(snapshot, tenant);
            self.window_samples += 1;
        }
        if self.window_samples < self.settings.window_lookups {
            return Vec::new();
        }
        let actions = self.solve();
        for sampler in &mut self.samplers {
            sampler.reset_window();
        }
        self.weights.fill(0.0);
        self.window_samples = 0;
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::TenantSnapshot;
    use crate::hist::LatencySummary;
    use crate::tenant::{PriorityClass, ShedBreakdown, TenantId};
    use std::sync::mpsc::sync_channel;
    use std::time::Duration;

    fn tenant(id: u32, class: PriorityClass) -> TenantSnapshot {
        TenantSnapshot {
            id: TenantId(id),
            priority_class: class,
            slo_p99: None,
            outstanding: 0,
            submitted: 0,
            completed: 0,
            queued: 0,
            shed: ShedBreakdown::default(),
            slo_shedding: false,
            recent: LatencySummary::default(),
        }
    }

    fn snapshot(tenants: Vec<TenantSnapshot>) -> EngineSnapshot {
        EngineSnapshot {
            tick: 0,
            uptime: Duration::from_millis(1),
            window_span: Duration::from_millis(400),
            batch_window: Duration::ZERO,
            shards: Vec::new(),
            tenants,
            cache_partition: Vec::new(),
        }
    }

    type Harness = (
        mpsc::SyncSender<BudgetSample>,
        &'static AtomicU64,
        &'static Mutex<Vec<TableCachePartition>>,
        CacheBudgetController<'static>,
    );

    /// A controller over tables too large for any target to reach.
    fn harness(tables: Vec<(usize, usize)>, settings: CacheBudgetSettings) -> Harness {
        let sizes = vec![usize::MAX; tables.len()];
        sized_harness(tables, sizes, settings)
    }

    fn sized_harness(
        tables: Vec<(usize, usize)>,
        sizes: Vec<usize>,
        settings: CacheBudgetSettings,
    ) -> Harness {
        let (tx, rx) = sync_channel(1 << 16);
        let solves: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0)));
        let partition: &'static Mutex<Vec<TableCachePartition>> = Box::leak(Box::new(Mutex::new(
            tables
                .iter()
                .map(|&(table, c)| TableCachePartition {
                    table,
                    capacity_entries: c,
                    target_entries: c,
                })
                .collect(),
        )));
        let inputs = BudgetInputs { tables, sizes, settings, samples: rx };
        let ctl = CacheBudgetController::new(inputs, solves, partition);
        (tx, solves, partition, ctl)
    }

    /// Deterministic pseudo-random key stream: uniform draws give each
    /// table a smoothly rising hit-rate curve (a cyclic scan would give
    /// the LRU pathology — zero hits below the working-set size — which
    /// a greedy marginal-gain allocator cannot climb).
    fn lcg(state: &mut u64, keys: u32) -> u32 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((*state >> 33) as u32) % keys
    }

    #[test]
    fn rebudget_moves_capacity_toward_the_table_that_needs_it() {
        let settings = CacheBudgetSettings {
            window_lookups: 512,
            granularity: 16,
            ..CacheBudgetSettings::default()
        };
        let (tx, solves, partition, mut ctl) = harness(vec![(0, 128), (1, 128)], settings);
        let snap = snapshot(vec![tenant(0, PriorityClass::Normal)]);
        // Table 0 draws uniformly from a working set larger than its
        // 128-entry share; table 1 only ever touches 4 keys. Every entry
        // moved from 1 to 0 buys hit rate, so the solve must shift the
        // split.
        let mut rng = 42u64;
        let mut actions = Vec::new();
        for _ in 0..6u32 {
            for v in 0..200u32 {
                tx.send((0, lcg(&mut rng, 200), 0)).unwrap();
                if v < 4 {
                    tx.send((1, v, 0)).unwrap();
                }
            }
            actions.extend(ctl.observe(&snap));
        }
        assert!(solves.load(Ordering::Relaxed) > 0, "window never filled");
        let grow = actions.iter().find_map(|a| match a {
            Action::SetCachePartition { table: 0, entries, curve } => Some((*entries, curve.len())),
            _ => None,
        });
        let (entries, curve_points) = grow.expect("table 0 must be granted budget: {actions:?}");
        assert!(entries > 128, "hot table must grow, got {entries}");
        assert!(curve_points > 0, "audit evidence must carry the curve");
        // The published targets follow the solve and conserve the budget.
        let p = partition.lock().unwrap();
        assert_eq!(p.iter().map(|t| t.target_entries).sum::<usize>(), 256);
        assert!(p[0].target_entries > p[1].target_entries);
    }

    #[test]
    fn no_target_outgrows_its_table() {
        let settings = CacheBudgetSettings {
            window_lookups: 256,
            granularity: 16,
            ..CacheBudgetSettings::default()
        };
        // 512 entries for 40 + 300 vectors, and both tables see only 4
        // keys: every curve saturates, and the round-robin remainder alone
        // would hand each table 256.
        let (tx, solves, partition, mut ctl) =
            sized_harness(vec![(0, 256), (1, 256)], vec![40, 300], settings);
        let snap = snapshot(vec![tenant(0, PriorityClass::Normal)]);
        for v in 0..200u32 {
            tx.send((0, v % 4, 0)).unwrap();
            tx.send((1, v % 4, 0)).unwrap();
        }
        let actions = ctl.observe(&snap);
        assert_eq!(solves.load(Ordering::Relaxed), 1);
        let p = partition.lock().unwrap();
        assert_eq!(p.iter().map(|t| t.target_entries).collect::<Vec<_>>(), [40, 300]);
        let moved: Vec<(usize, usize)> = actions
            .iter()
            .filter_map(|a| match a {
                Action::SetCachePartition { table, entries, .. } => Some((*table, *entries)),
                _ => None,
            })
            .collect();
        assert_eq!(moved, [(0, 40), (1, 300)]);
    }

    #[test]
    fn hysteresis_suppresses_small_moves_but_solves_still_count() {
        let settings = CacheBudgetSettings {
            window_lookups: 256,
            granularity: 16,
            hysteresis: 0.9,
            ..CacheBudgetSettings::default()
        };
        let (tx, solves, _, mut ctl) = harness(vec![(0, 128), (1, 128)], settings);
        let snap = snapshot(vec![tenant(0, PriorityClass::Normal)]);
        // Identical streams: the solve lands near 50/50, inside the (huge)
        // hysteresis band around the current 128/128 split.
        for v in 0..400u32 {
            tx.send((0, v % 64, 0)).unwrap();
            tx.send((1, v % 64, 0)).unwrap();
        }
        let actions = ctl.observe(&snap);
        assert!(solves.load(Ordering::Relaxed) >= 1, "the window filled, so it must solve");
        assert!(actions.is_empty(), "inside hysteresis, nothing moves: {actions:?}");
    }

    #[test]
    fn class_weighting_biases_the_split_toward_high_priority_traffic() {
        let settings = CacheBudgetSettings {
            window_lookups: 512,
            granularity: 16,
            class_weights: [16.0, 2.0, 1.0],
            ..CacheBudgetSettings::default()
        };
        // Statistically identical traffic per table, but table 0 is
        // driven by a high-class tenant and table 1 by a low-class one.
        let (tx, _, partition, mut ctl) = harness(vec![(0, 64), (1, 64)], settings);
        let snap = snapshot(vec![tenant(0, PriorityClass::High), tenant(1, PriorityClass::Low)]);
        let (mut rng0, mut rng1) = (7u64, 13u64);
        for _ in 0..4u32 {
            for _ in 0..96u32 {
                tx.send((0, lcg(&mut rng0, 120), 0)).unwrap();
                tx.send((1, lcg(&mut rng1, 120), 1)).unwrap();
            }
            ctl.observe(&snap);
        }
        let p = partition.lock().unwrap();
        assert!(p[0].target_entries > p[1].target_entries, "high-class table must out-bid: {p:?}");
    }

    #[test]
    fn drain_is_bounded_per_tick() {
        let settings =
            CacheBudgetSettings { window_lookups: 6000, ..CacheBudgetSettings::default() };
        let (tx, solves, _, mut ctl) = harness(vec![(0, 64)], settings);
        let snap = snapshot(vec![tenant(0, PriorityClass::Normal)]);
        for v in 0..6000u32 {
            tx.send((0, v % 100, 0)).unwrap();
        }
        assert!(ctl.observe(&snap).is_empty());
        assert_eq!(ctl.window_samples, 4096, "one tick drains at most the cap");
        assert_eq!(solves.load(Ordering::Relaxed), 0);
        // The backlog survives to the next tick and completes the window.
        let _ = ctl.observe(&snap);
        assert_eq!(solves.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn disconnected_channel_and_unknown_tables_are_quiet() {
        let settings = CacheBudgetSettings::default();
        let (tx, _, _, mut ctl) = harness(vec![(0, 64)], settings);
        tx.send((99, 1, 0)).unwrap(); // unknown table: ignored
        drop(tx);
        let snap = snapshot(vec![]);
        assert!(ctl.observe(&snap).is_empty());
        assert_eq!(ctl.window_samples, 0, "unknown tables never count toward the window");
        assert!(ctl.observe(&snap).is_empty(), "disconnected channel drains quietly");
    }

    #[test]
    fn settings_validation_rejects_degenerate_values() {
        assert!(CacheBudgetSettings::default().validate().is_ok());
        let bad = |f: fn(&mut CacheBudgetSettings)| {
            let mut s = CacheBudgetSettings::default();
            f(&mut s);
            s.validate()
        };
        assert!(bad(|s| s.window_lookups = 0).is_err());
        assert!(bad(|s| s.rungs = 0).is_err());
        assert!(bad(|s| s.sampling_rate = 0.0).is_err());
        assert!(bad(|s| s.sampling_rate = 1.5).is_err());
        assert!(bad(|s| s.sample_every = 0).is_err());
        assert!(bad(|s| s.granularity = 0).is_err());
        assert!(bad(|s| s.hysteresis = 1.0).is_err());
        assert!(bad(|s| s.class_weights[2] = 0.0).is_err());
    }
}
