//! DRAM allocation across embedding tables (paper §4.3.3), and the
//! alternatives to it — an ablation of §4.3.3's choice.
//!
//! Given each table's hit-rate curve and its share of total lookups, divide
//! a fixed DRAM budget to maximize the overall (lookup-weighted) hit rate.
//! Production curves are convex-in-the-caching-sense (diminishing returns),
//! so greedy marginal-gain allocation ([`allocate_dram`]) — the Dynacache
//! approach the paper cites — is optimal; the paper assigns these budgets
//! statically. This module also makes that design decision measurable by
//! providing the alternatives a deployment might reach for instead:
//!
//! * [`AllocationPolicy::Uniform`] — every table gets `total / n`;
//! * [`AllocationPolicy::ProportionalToLookups`] — budget follows each
//!   table's share of lookups (Table 1's "% of total" column), the
//!   heuristic most multi-tenant caches default to;
//! * [`AllocationPolicy::GreedyMarginal`] — the paper's choice
//!   ([`crate::allocate_dram`]);
//! * [`AllocationPolicy::HillClimb`] — Cliffhanger-style local search:
//!   start uniform, repeatedly move one granule from the table that loses
//!   least to the table that gains most. Unlike greedy-from-zero, it
//!   converges to a local optimum even on *non-convex* curves (performance
//!   cliffs), which is exactly the case Cliffhanger was built for.
//!
//! # Example
//!
//! ```
//! use bandana_cache::allocator::{allocate_with, AllocationPolicy};
//! use bandana_cache::HitRateCurve;
//!
//! let hot = HitRateCurve::new(vec![(0, 0.0), (100, 0.9)]);
//! let cold = HitRateCurve::new(vec![(0, 0.0), (100, 0.2)]);
//! let alloc = allocate_with(
//!     AllocationPolicy::HillClimb,
//!     100,
//!     &[hot, cold],
//!     &[0.7, 0.3],
//!     10,
//! );
//! assert!(alloc[0] > alloc[1]);
//! ```

use crate::hrc::HitRateCurve;

/// Divides `total` cache entries across tables by greedy marginal gain.
///
/// * `curves[i]` — table i's hit-rate curve (hit rate vs entries);
/// * `weights[i]` — table i's share of total lookups (Table 1's "% of
///   total"); the objective is `Σ weights[i] · hit_rate_i(size_i)`;
/// * `granularity` — allocation step in entries.
///
/// Returns per-table entry budgets summing to at most `total` (within one
/// granule).
///
/// # Example
///
/// ```
/// use bandana_cache::{allocate_dram, HitRateCurve};
///
/// let hot = HitRateCurve::new(vec![(0, 0.0), (100, 0.9)]);
/// let cold = HitRateCurve::new(vec![(0, 0.0), (100, 0.1)]);
/// let alloc = allocate_dram(100, &[hot, cold], &[0.5, 0.5], 10);
/// assert!(alloc[0] > alloc[1]); // the hot table earns more DRAM
/// ```
///
/// # Panics
///
/// Panics if the slices disagree in length, are empty, or `granularity` is
/// zero.
pub fn allocate_dram(
    total: usize,
    curves: &[HitRateCurve],
    weights: &[f64],
    granularity: usize,
) -> Vec<usize> {
    assert!(!curves.is_empty(), "need at least one table");
    assert_eq!(curves.len(), weights.len(), "curves/weights length mismatch");
    assert!(granularity > 0, "granularity must be non-zero");

    let mut alloc = vec![0usize; curves.len()];
    let mut remaining = total;
    while remaining >= granularity {
        // Pick the table with the highest weighted marginal gain; ties go to
        // the lowest index for determinism.
        let mut best: Option<(f64, usize)> = None;
        for (i, curve) in curves.iter().enumerate() {
            let gain = weights[i] * curve.marginal_gain(alloc[i], granularity);
            if best.is_none_or(|(bg, _)| gain > bg + 1e-15) {
                best = Some((gain, i));
            }
        }
        let (gain, i) = best.expect("non-empty tables");
        if gain <= 0.0 {
            // No table benefits from more DRAM (all curves saturated):
            // spread the remainder round-robin so the budget is not wasted.
            let tables = curves.len();
            let mut i = 0usize;
            while remaining >= granularity {
                alloc[i % tables] += granularity;
                remaining -= granularity;
                i += 1;
            }
            break;
        }
        alloc[i] += granularity;
        remaining -= granularity;
    }
    alloc
}

/// The weighted overall hit rate achieved by an allocation.
pub fn allocation_hit_rate(alloc: &[usize], curves: &[HitRateCurve], weights: &[f64]) -> f64 {
    alloc
        .iter()
        .zip(curves)
        .zip(weights)
        .map(|((&size, curve), &w)| w * curve.hit_rate_at(size))
        .sum()
}

/// How the total DRAM budget is divided across tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocationPolicy {
    /// Equal budget per table, ignoring workloads.
    Uniform,
    /// Budget proportional to each table's lookup share.
    ProportionalToLookups,
    /// Greedy marginal-gain over hit-rate curves (the paper's policy).
    GreedyMarginal,
    /// Cliffhanger-style hill climbing from a uniform start.
    HillClimb,
}

impl AllocationPolicy {
    /// Every policy, in the order ablation tables report them.
    pub const ALL: [AllocationPolicy; 4] = [
        AllocationPolicy::Uniform,
        AllocationPolicy::ProportionalToLookups,
        AllocationPolicy::GreedyMarginal,
        AllocationPolicy::HillClimb,
    ];

    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            AllocationPolicy::Uniform => "uniform",
            AllocationPolicy::ProportionalToLookups => "proportional",
            AllocationPolicy::GreedyMarginal => "greedy-marginal",
            AllocationPolicy::HillClimb => "hill-climb",
        }
    }
}

impl std::fmt::Display for AllocationPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Divides `total` cache entries across tables under `policy`.
///
/// Arguments mirror [`crate::allocate_dram`]; `curves` are ignored by the
/// curve-free policies but must still be of matching length.
///
/// # Panics
///
/// Panics if the slices disagree in length, are empty, or `granularity` is
/// zero.
pub fn allocate_with(
    policy: AllocationPolicy,
    total: usize,
    curves: &[HitRateCurve],
    weights: &[f64],
    granularity: usize,
) -> Vec<usize> {
    assert!(!curves.is_empty(), "need at least one table");
    assert_eq!(curves.len(), weights.len(), "curves/weights length mismatch");
    assert!(granularity > 0, "granularity must be non-zero");
    match policy {
        AllocationPolicy::Uniform => uniform(total, curves.len()),
        AllocationPolicy::ProportionalToLookups => proportional(total, weights),
        AllocationPolicy::GreedyMarginal => allocate_dram(total, curves, weights, granularity),
        AllocationPolicy::HillClimb => hill_climb(total, curves, weights, granularity),
    }
}

fn uniform(total: usize, tables: usize) -> Vec<usize> {
    let base = total / tables;
    let mut alloc = vec![base; tables];
    // Leftover goes to the front tables so the budget is fully used.
    for a in alloc.iter_mut().take(total % tables) {
        *a += 1;
    }
    alloc
}

fn proportional(total: usize, weights: &[f64]) -> Vec<usize> {
    let sum: f64 = weights.iter().sum();
    if sum <= 0.0 {
        return uniform(total, weights.len());
    }
    let mut alloc: Vec<usize> =
        weights.iter().map(|w| (total as f64 * w / sum).floor() as usize).collect();
    // Hand the rounding remainder to the largest weights, deterministically.
    let mut leftover = total - alloc.iter().sum::<usize>();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| weights[b].partial_cmp(&weights[a]).expect("finite weights"));
    let mut cursor = 0usize;
    while leftover > 0 {
        alloc[order[cursor % order.len()]] += 1;
        cursor += 1;
        leftover -= 1;
    }
    alloc
}

/// Cliffhanger-style local search: from a uniform start, repeatedly move a
/// granule from the table whose last granule contributes least to the table
/// whose next granule would contribute most, until no move improves the
/// weighted hit rate.
fn hill_climb(
    total: usize,
    curves: &[HitRateCurve],
    weights: &[f64],
    granularity: usize,
) -> Vec<usize> {
    let tables = curves.len();
    let mut alloc = uniform(total, tables);
    // Bound iterations: each granule can move at most once per sweep and
    // the objective strictly improves, but guard against float plateaus.
    let max_moves = 4 * (total / granularity + tables) + 64;
    for _ in 0..max_moves {
        // Best gainer: largest weighted gain from +granularity.
        let (gainer, gain) = (0..tables)
            .map(|i| (i, weights[i] * curves[i].marginal_gain(alloc[i], granularity)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite gains"))
            .expect("non-empty tables");
        // Best donor: smallest weighted loss from -granularity, excluding
        // the gainer and tables too small to give.
        let donor = (0..tables)
            .filter(|&i| i != gainer && alloc[i] >= granularity)
            .map(|i| {
                let loss =
                    weights[i] * curves[i].marginal_gain(alloc[i] - granularity, granularity);
                (i, loss)
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite losses"));
        let Some((donor, loss)) = donor else { break };
        if gain <= loss + 1e-12 {
            break; // local optimum
        }
        alloc[donor] -= granularity;
        alloc[gainer] += granularity;
    }
    alloc
}

/// Convenience: the weighted hit rate each policy achieves on the same
/// curves — one row per policy, for ablation tables.
pub fn compare_policies(
    total: usize,
    curves: &[HitRateCurve],
    weights: &[f64],
    granularity: usize,
) -> Vec<(AllocationPolicy, f64)> {
    AllocationPolicy::ALL
        .iter()
        .map(|&p| {
            let alloc = allocate_with(p, total, curves, weights, granularity);
            (p, allocation_hit_rate(&alloc, curves, weights))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear(max: usize, top: f64) -> HitRateCurve {
        HitRateCurve::new(vec![(0, 0.0), (max, top)])
    }

    #[test]
    fn budget_is_respected() {
        let curves = vec![linear(100, 0.9), linear(100, 0.5), linear(100, 0.3)];
        let weights = vec![0.4, 0.4, 0.2];
        let alloc = allocate_dram(150, &curves, &weights, 10);
        let sum: usize = alloc.iter().sum();
        assert!(sum <= 150);
        assert!(sum >= 140, "budget underused: {alloc:?}");
    }

    #[test]
    fn hot_tables_get_more() {
        let curves = vec![linear(1000, 0.9), linear(1000, 0.9)];
        // Equal curves but table 0 serves 3x the lookups.
        let alloc = allocate_dram(1000, &curves, &[0.75, 0.25], 50);
        assert!(alloc[0] > alloc[1], "{alloc:?}");
    }

    #[test]
    fn greedy_is_optimal_on_concave_curves() {
        // Two concave curves; compare greedy to brute force over all splits.
        let a = HitRateCurve::new(vec![(0, 0.0), (10, 0.5), (20, 0.7), (40, 0.8)]);
        let b = HitRateCurve::new(vec![(0, 0.0), (10, 0.3), (20, 0.55), (40, 0.75)]);
        assert!(a.has_diminishing_returns() && b.has_diminishing_returns());
        let curves = vec![a, b];
        let weights = vec![0.5, 0.5];
        let total = 40usize;
        let g = 5usize;
        let greedy = allocate_dram(total, &curves, &weights, g);
        let greedy_score = allocation_hit_rate(&greedy, &curves, &weights);
        let mut best = 0.0f64;
        let mut s = 0;
        while s <= total {
            let score = allocation_hit_rate(&[s, total - s], &curves, &weights);
            if score > best {
                best = score;
            }
            s += g;
        }
        assert!(
            greedy_score + 1e-9 >= best,
            "greedy {greedy_score} below brute-force optimum {best} ({greedy:?})"
        );
    }

    #[test]
    fn saturated_curves_spread_remainder() {
        let curves = vec![linear(10, 0.5), linear(10, 0.5)];
        let alloc = allocate_dram(100, &curves, &[0.5, 0.5], 10);
        let sum: usize = alloc.iter().sum();
        assert_eq!(sum, 100, "remainder must still be distributed: {alloc:?}");
    }

    #[test]
    fn single_table_gets_everything() {
        let curves = vec![linear(50, 0.9)];
        let alloc = allocate_dram(80, &curves, &[1.0], 8);
        assert_eq!(alloc.iter().sum::<usize>(), 80);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_inputs_rejected() {
        let _ = allocate_dram(10, &[linear(10, 0.5)], &[0.5, 0.5], 1);
    }

    #[test]
    fn uniform_splits_evenly_with_remainder() {
        let curves = vec![linear(10, 0.5), linear(10, 0.5), linear(10, 0.5)];
        let alloc = allocate_with(AllocationPolicy::Uniform, 10, &curves, &[0.3, 0.3, 0.4], 1);
        assert_eq!(alloc.iter().sum::<usize>(), 10);
        assert_eq!(alloc, vec![4, 3, 3]);
    }

    #[test]
    fn proportional_follows_weights() {
        let curves = vec![linear(100, 0.9), linear(100, 0.9)];
        let alloc =
            allocate_with(AllocationPolicy::ProportionalToLookups, 100, &curves, &[0.8, 0.2], 1);
        assert_eq!(alloc.iter().sum::<usize>(), 100);
        assert_eq!(alloc, vec![80, 20]);
    }

    #[test]
    fn proportional_degenerate_weights_fall_back_to_uniform() {
        let curves = vec![linear(10, 0.5), linear(10, 0.5)];
        let alloc =
            allocate_with(AllocationPolicy::ProportionalToLookups, 10, &curves, &[0.0, 0.0], 1);
        assert_eq!(alloc, vec![5, 5]);
    }

    #[test]
    fn hill_climb_matches_greedy_on_convex_curves() {
        let curves = vec![
            HitRateCurve::new(vec![(0, 0.0), (10, 0.5), (20, 0.7), (40, 0.8)]),
            HitRateCurve::new(vec![(0, 0.0), (10, 0.3), (20, 0.55), (40, 0.75)]),
        ];
        let weights = [0.6, 0.4];
        let greedy = allocate_with(AllocationPolicy::GreedyMarginal, 40, &curves, &weights, 5);
        let climbed = allocate_with(AllocationPolicy::HillClimb, 40, &curves, &weights, 5);
        let hr_greedy = allocation_hit_rate(&greedy, &curves, &weights);
        let hr_climbed = allocation_hit_rate(&climbed, &curves, &weights);
        assert!(
            (hr_greedy - hr_climbed).abs() < 1e-9,
            "on convex curves both reach the optimum: greedy={hr_greedy} climb={hr_climbed}"
        );
    }

    #[test]
    fn hill_climb_escapes_a_cliff() {
        // Table 0 has a performance cliff: nothing until 30 entries, then a
        // jump to 0.9 (think: a tight loop slightly larger than the cache).
        // Greedy-from-zero sees zero marginal gain in its first steps and
        // may starve it; hill climbing from uniform holds enough budget to
        // see across the cliff when moves are coarse.
        let cliff = HitRateCurve::new(vec![(0, 0.0), (29, 0.0), (30, 0.9), (40, 0.92)]);
        let gentle = HitRateCurve::new(vec![(0, 0.0), (10, 0.2), (40, 0.3)]);
        let curves = vec![cliff, gentle];
        let weights = [0.7, 0.3];
        let climbed = allocate_with(AllocationPolicy::HillClimb, 60, &curves, &weights, 30);
        let hr = allocation_hit_rate(&climbed, &curves, &weights);
        // Uniform start is [30, 30] which already crosses the cliff; the
        // climb must not move *off* it.
        assert!(hr >= 0.7 * 0.9, "hill climb abandoned the cliff: {climbed:?} hr={hr}");
    }

    #[test]
    fn all_policies_respect_budget() {
        let curves = vec![linear(50, 0.8), linear(50, 0.4), linear(50, 0.2)];
        let weights = [0.5, 0.3, 0.2];
        for p in AllocationPolicy::ALL {
            let alloc = allocate_with(p, 90, &curves, &weights, 10);
            assert!(alloc.iter().sum::<usize>() <= 90, "{p} overspent: {alloc:?}");
        }
    }

    #[test]
    fn greedy_not_worse_than_naive_policies_on_convex() {
        let curves = vec![
            HitRateCurve::new(vec![(0, 0.0), (20, 0.6), (40, 0.8), (80, 0.9)]),
            HitRateCurve::new(vec![(0, 0.0), (20, 0.2), (40, 0.35), (80, 0.5)]),
            HitRateCurve::new(vec![(0, 0.0), (20, 0.05), (40, 0.1), (80, 0.15)]),
        ];
        let weights = [0.5, 0.35, 0.15];
        let rows = compare_policies(120, &curves, &weights, 10);
        let score = |p: AllocationPolicy| rows.iter().find(|(q, _)| *q == p).expect("present").1;
        assert!(score(AllocationPolicy::GreedyMarginal) + 1e-9 >= score(AllocationPolicy::Uniform));
        assert!(
            score(AllocationPolicy::GreedyMarginal) + 1e-9
                >= score(AllocationPolicy::ProportionalToLookups)
        );
    }

    #[test]
    fn compare_policies_reports_all() {
        let curves = vec![linear(10, 0.5)];
        let rows = compare_policies(10, &curves, &[1.0], 2);
        assert_eq!(rows.len(), AllocationPolicy::ALL.len());
    }

    #[test]
    fn display_names_stable() {
        let names: Vec<&str> = AllocationPolicy::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names, ["uniform", "proportional", "greedy-marginal", "hill-climb"]);
    }
}
