//! Ablations of Bandana's design choices (not figures from the paper, but
//! the knobs its design section argues about).
//!
//! * [`shp_iterations`] — placement quality vs SHP refinement iterations:
//!   how much of the win comes from the initial balanced split vs the
//!   gain-driven refinement (the paper fixes 16 iterations).
//! * [`allocation_policies`] — dividing the DRAM budget by hit-rate curves
//!   (the paper's Dynacache-style choice, §4.3.3) vs proportional-to-lookups
//!   vs uniform.

use crate::output::{pct, TextTable};
use crate::scale::Scale;
use bandana_cache::{allocate_with, AdmissionPolicy, AllocationPolicy};
use bandana_core::{
    curve_sizes, divide_dram, effective_bandwidth_sweep, hit_rate_curves, lookup_weights,
};
use bandana_partition::{average_fanout, social_hash_partition, BlockLayout, ShpConfig};
use serde::{Deserialize, Serialize};

/// One row of the SHP-iterations ablation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShpIterRow {
    /// Refinement iterations per bisection.
    pub iterations: u32,
    /// Average query fanout of the resulting table-2 layout (lower is
    /// better).
    pub average_fanout: f64,
}

/// Sweeps SHP refinement iterations on table 2.
pub fn shp_iterations(scale: Scale) -> Vec<ShpIterRow> {
    let w = super::common::workload(scale);
    let t2 = super::common::TABLE2;
    [0u32, 2, 4, 8, 16]
        .iter()
        .map(|&iterations| {
            let cfg = ShpConfig {
                block_capacity: super::common::VECTORS_PER_BLOCK,
                iterations,
                seed: super::common::SEED,
                parallel_depth: 2,
            };
            let order = social_hash_partition(
                w.spec.tables[t2].num_vectors,
                w.train.table_queries(t2),
                &cfg,
            );
            let layout = BlockLayout::from_order(order, super::common::VECTORS_PER_BLOCK);
            ShpIterRow {
                iterations,
                average_fanout: average_fanout(&layout, w.eval.table_queries(t2)),
            }
        })
        .collect()
}

/// One row of the allocation-policy ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AllocRow {
    /// Policy name.
    pub policy: String,
    /// Per-table cache capacities.
    pub capacities: Vec<usize>,
    /// Read-weighted overall effective-bandwidth gain.
    pub overall_gain: f64,
}

/// Compares DRAM division policies end-to-end at the default total cache.
pub fn allocation_policies(scale: Scale) -> Vec<AllocRow> {
    let w = super::common::workload(scale);
    let layouts = super::common::shp_layouts(&w, scale);
    let freqs = super::common::frequencies(&w);
    let weights = lookup_weights(&w.train);
    let total = scale.default_total_cache();
    let tables = w.spec.num_tables();

    // Hit-rate-curve (Dynacache-style) division.
    let curves = hit_rate_curves(&w.train, &curve_sizes(total));
    let hrc = divide_dram(total, &curves, &weights);
    let proportional: Vec<usize> =
        weights.iter().map(|&sh| ((total as f64 * sh) as usize).max(1)).collect();
    let uniform: Vec<usize> = vec![(total / tables).max(1); tables];
    let hill_climb: Vec<usize> =
        allocate_with(AllocationPolicy::HillClimb, total, &curves, &weights, (total / 64).max(1))
            .into_iter()
            .map(|c| c.max(1))
            .collect();

    [
        ("hit-rate curves", hrc),
        ("proportional to lookups", proportional),
        ("uniform", uniform),
        ("hill climb (Cliffhanger)", hill_climb),
    ]
    .into_iter()
    .map(|(name, capacities)| {
        let policies = vec![AdmissionPolicy::Threshold { t: 2 }; tables];
        let gains =
            effective_bandwidth_sweep(&w.eval, &layouts, &freqs, &capacities, &policies, 1.5);
        let policy_reads: u64 = gains.iter().map(|g| g.policy_block_reads).sum();
        let baseline_reads: u64 = gains.iter().map(|g| g.baseline_block_reads).sum();
        AllocRow {
            policy: name.to_string(),
            capacities,
            overall_gain: baseline_reads as f64 / policy_reads.max(1) as f64 - 1.0,
        }
    })
    .collect()
}

/// Renders both ablations.
pub fn render(iters: &[ShpIterRow], allocs: &[AllocRow]) -> String {
    let mut a = TextTable::new(vec!["SHP iterations", "avg fanout (table 2)"]);
    for r in iters {
        a.row(vec![r.iterations.to_string(), format!("{:.2}", r.average_fanout)]);
    }
    let mut b = TextTable::new(vec!["allocation policy", "overall gain", "capacities"]);
    for r in allocs {
        b.row(vec![r.policy.clone(), pct(r.overall_gain), format!("{:?}", r.capacities)]);
    }
    format!(
        "Ablation A: SHP refinement iterations (placement quality)\n{}\n\
         Ablation B: DRAM division across tables (end-to-end gain)\n{}",
        a.render(),
        b.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refinement_improves_fanout() {
        let rows = shp_iterations(Scale::Quick);
        let at = |i: u32| rows.iter().find(|r| r.iterations == i).unwrap().average_fanout;
        // 16 refinement iterations must clearly beat the unrefined split.
        assert!(
            at(16) < at(0) * 0.95,
            "refinement should reduce fanout: 0 iters {} vs 16 iters {}",
            at(0),
            at(16)
        );
        // Fanout is weakly improving across the sweep's endpoints.
        assert!(at(16) <= at(2) + 1e-9);
    }

    #[test]
    fn hrc_allocation_not_worse_than_uniform() {
        let rows = allocation_policies(Scale::Quick);
        assert_eq!(rows.len(), 4);
        let gain = |name: &str| rows.iter().find(|r| r.policy == name).unwrap().overall_gain;
        assert!(
            gain("hit-rate curves") + 0.02 >= gain("uniform"),
            "HRC allocation {} should not lose to uniform {}",
            gain("hit-rate curves"),
            gain("uniform")
        );
        // Budgets are respected.
        for r in &rows {
            let sum: usize = r.capacities.iter().sum();
            assert!(sum <= Scale::Quick.default_total_cache() + r.capacities.len());
        }
    }

    #[test]
    fn render_has_both_sections() {
        let s = render(&shp_iterations(Scale::Quick), &allocation_policies(Scale::Quick));
        assert!(s.contains("Ablation A"));
        assert!(s.contains("Ablation B"));
    }
}
