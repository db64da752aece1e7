//! The online admission-threshold tuner, re-homed as the first
//! [`Controller`] on the engine's metrics
//! bus.
//!
//! The paper's miniature caches are cheap enough to run *online*
//! (§4.3.3): shadow the live lookup stream through per-table simulators
//! and periodically adopt the best-performing admission threshold. In the
//! control plane this is `TunerController`: shard workers send every
//! `sample_every`-th `(table, vector)` observation over a bounded
//! channel, and each bus tick the controller
//! drains the channel into one [`OnlineTuner`] per table, returning an
//! [`Action::SetPolicy`] per epoch
//! decision. The bus routes the action to the owning shard's command
//! channel, where the worker applies it between micro-batches via
//! [`TableStore::set_policy`](bandana_core::TableStore::set_policy); the
//! first one retires a table's build-time admission set.
//!
//! An observation that finds the channel full is dropped. That is not a
//! sampling rate like the paper's 0.1 %, which is a fixed hash-chosen
//! subset of vectors: drops hit whatever arrives while the controller is
//! behind, so their share grows with load and biases the stream towards
//! quiet periods. Each drop is counted
//! (`bandana_tap_dropped_total{tap="tuner"}`, [`crate::Tap`]).
//!
//! Before the control plane existed this logic ran as a dedicated
//! hard-wired thread; its observable behaviour — one hot-swap per
//! completed epoch per table — is unchanged and pinned by the engine's
//! tuner hot-swap test.

use crate::control::{Action, Controller, EngineSnapshot};
use bandana_cache::AdmissionPolicy;
use bandana_core::{OnlineTuner, OnlineTunerConfig};
use bandana_partition::{AccessFrequency, BlockLayout};
use serde::{Deserialize, Serialize};
use std::sync::mpsc;

/// Configuration of the online tuner controller
/// ([`ServeConfig::with_tuner`](crate::ServeConfig::with_tuner)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineTunerSettings {
    /// Observed (sampled) lookups per tuning epoch, per table.
    pub epoch_lookups: u64,
    /// Shard-side sampling stride: every `sample_every`-th lookup is
    /// forwarded to the tuner (1 = every lookup).
    pub sample_every: u32,
    /// Candidate admission thresholds to race.
    pub candidate_thresholds: Vec<u32>,
    /// Miniature-cache sampling rate inside the tuner.
    pub sampling_rate: f64,
    /// Hash salt.
    pub salt: u64,
}

impl Default for OnlineTunerSettings {
    fn default() -> Self {
        OnlineTunerSettings {
            epoch_lookups: 10_000,
            sample_every: 1,
            candidate_thresholds: vec![1, 2, 5, 10, 20],
            sampling_rate: 0.25,
            salt: 0,
        }
    }
}

impl OnlineTunerSettings {
    /// Validates the settings.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if self.epoch_lookups == 0 {
            return Err("tuner epoch must be non-empty".into());
        }
        if self.sample_every == 0 {
            return Err("sample stride must be at least 1".into());
        }
        if self.candidate_thresholds.is_empty() {
            return Err("tuner needs candidate thresholds".into());
        }
        if !(0.0 < self.sampling_rate && self.sampling_rate <= 1.0) {
            return Err(format!("tuner sampling rate {} outside (0,1]", self.sampling_rate));
        }
        Ok(())
    }
}

/// Per-table inputs harvested from the store before its tables moved into
/// the shard threads; the controller's [`OnlineTuner`]s borrow them for
/// the control thread's lifetime.
#[derive(Debug)]
pub(crate) struct TunerTable {
    pub(crate) table: usize,
    pub(crate) layout: BlockLayout,
    pub(crate) freq: AccessFrequency,
    pub(crate) cache_capacity: usize,
}

/// The paper's online re-tuning loop as a metrics-bus controller: drains
/// the shard sample channel each tick and emits one
/// [`Action::SetPolicy`] per completed tuning epoch per table.
pub(crate) struct TunerController<'a> {
    tuners: Vec<OnlineTuner<'a>>,
    samples: mpsc::Receiver<(usize, u32)>,
    shadow_multiplier: f64,
}

impl<'a> TunerController<'a> {
    pub(crate) fn new(
        tables: &'a [TunerTable],
        settings: &OnlineTunerSettings,
        samples: mpsc::Receiver<(usize, u32)>,
        shadow_multiplier: f64,
    ) -> Self {
        let tuners = tables
            .iter()
            .map(|t| {
                OnlineTuner::new(
                    &t.layout,
                    &t.freq,
                    OnlineTunerConfig {
                        cache_capacity: t.cache_capacity.max(1),
                        sampling_rate: settings.sampling_rate,
                        candidate_thresholds: settings.candidate_thresholds.clone(),
                        epoch_lookups: settings.epoch_lookups,
                        salt: settings.salt.wrapping_add(t.table as u64),
                    },
                )
            })
            .collect();
        TunerController { tuners, samples, shadow_multiplier }
    }

    /// Feeds one sampled lookup to its table's tuner; a completed epoch
    /// becomes a policy hot-swap action. Tables are positioned by id in
    /// the tuner vector (the engine harvests every table in id order).
    fn ingest(&mut self, table: usize, v: u32, actions: &mut Vec<Action>) {
        if let Some(tuner) = self.tuners.get_mut(table) {
            if let Some(decision) = tuner.observe(v) {
                actions.push(Action::SetPolicy {
                    table,
                    policy: AdmissionPolicy::Threshold { t: decision.threshold },
                    shadow_multiplier: self.shadow_multiplier,
                });
            }
        }
    }
}

/// Most samples the tuner absorbs per bus tick. The drain MUST be
/// bounded: under sustained load the shards refill the channel as fast
/// as it drains, and an unbounded `try_recv` loop would never return —
/// wedging the shared control loop (and every controller behind it) for
/// as long as the overload lasts. Whatever exceeds the bound overflows
/// the channel and is dropped, which is fine: the sample stream is lossy
/// by design, exactly like the paper's 0.1% sampling rate.
const MAX_SAMPLES_PER_TICK: usize = 4096;

impl Controller for TunerController<'_> {
    fn name(&self) -> &str {
        "online-tuner"
    }

    fn observe(&mut self, _snapshot: &EngineSnapshot) -> Vec<Action> {
        // Bounded batch-drain of the sample channel. A disconnected
        // channel (all workers exited) just yields empty drains until
        // the bus shuts down.
        let mut actions = Vec::new();
        for _ in 0..MAX_SAMPLES_PER_TICK {
            match self.samples.try_recv() {
                Ok((table, v)) => self.ingest(table, v, &mut actions),
                Err(_) => break,
            }
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::EngineSnapshot;
    use std::time::Duration;

    #[test]
    fn settings_validation() {
        assert!(OnlineTunerSettings::default().validate().is_ok());
        assert!(OnlineTunerSettings { epoch_lookups: 0, ..Default::default() }.validate().is_err());
        assert!(OnlineTunerSettings { sample_every: 0, ..Default::default() }.validate().is_err());
        assert!(OnlineTunerSettings { candidate_thresholds: vec![], ..Default::default() }
            .validate()
            .is_err());
        assert!(OnlineTunerSettings { sampling_rate: 0.0, ..Default::default() }
            .validate()
            .is_err());
    }

    fn empty_snapshot() -> EngineSnapshot {
        EngineSnapshot {
            tick: 0,
            uptime: Duration::ZERO,
            window_span: Duration::from_millis(400),
            batch_window: Duration::ZERO,
            shards: Vec::new(),
            tenants: Vec::new(),
            cache_partition: Vec::new(),
        }
    }

    #[test]
    fn tuner_controller_emits_one_policy_swap_per_epoch() {
        let n = 256u32;
        let layout = BlockLayout::identity(n, 32);
        let hot: Vec<Vec<u32>> = (0..50).map(|_| (0..16u32).collect()).collect();
        let freq = AccessFrequency::from_queries(n, hot.iter().map(|q| q.as_slice()));
        let tables = vec![TunerTable { table: 0, layout, freq, cache_capacity: 64 }];

        let (sample_tx, sample_rx) = mpsc::sync_channel(1024);
        let settings = OnlineTunerSettings {
            epoch_lookups: 100,
            sampling_rate: 1.0,
            candidate_thresholds: vec![2, 1_000],
            ..Default::default()
        };
        let mut controller = TunerController::new(&tables, &settings, sample_rx, 1.5);
        assert_eq!(controller.name(), "online-tuner");

        // Feed a hot scan: two full epochs, in two tick-sized pulses.
        let snapshot = empty_snapshot();
        for i in 0..150u32 {
            sample_tx.send((0, i % 16)).expect("send sample");
        }
        let first = controller.observe(&snapshot);
        assert_eq!(first.len(), 1, "one swap for the one completed epoch: {first:?}");
        for i in 0..50u32 {
            sample_tx.send((0, i % 16)).expect("send sample");
        }
        let second = controller.observe(&snapshot);
        assert_eq!(second.len(), 1, "the second epoch completes on the next drain");
        for action in first.into_iter().chain(second) {
            match action {
                Action::SetPolicy { table, policy, shadow_multiplier } => {
                    assert_eq!(table, 0);
                    assert_eq!(policy, AdmissionPolicy::Threshold { t: 2 });
                    assert!((shadow_multiplier - 1.5).abs() < 1e-12);
                }
                other => panic!("tuner must only emit policy swaps, got {other:?}"),
            }
        }

        // A disconnected channel yields quiet drains, not panics.
        drop(sample_tx);
        assert!(controller.observe(&snapshot).is_empty());

        // Samples for unknown tables are ignored.
        let (tx, rx) = mpsc::sync_channel(16);
        let tables2 = Vec::new();
        let mut empty_controller = TunerController::new(&tables2, &settings, rx, 1.0);
        tx.send((7, 3)).expect("send");
        assert!(empty_controller.observe(&snapshot).is_empty());
    }
}
