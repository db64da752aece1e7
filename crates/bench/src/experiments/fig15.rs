//! Figure 15: end-to-end gain vs SHP training-set size (limited cache).
//!
//! Like Figure 9 but with the store's full limited-cache recipe: SHP
//! trained on 0.2×, 1×, 5× the base trace, DRAM divided by hit-rate curves,
//! thresholds tuned, gains measured against the baseline on a fixed
//! evaluation trace.
//!
//! **Paper shape:** every table's gain grows (or holds) with more training
//! data; table 2 approaches its Figure 13 ceiling.

use crate::output::{pct, TextTable};
use crate::scale::Scale;
use bandana_core::store::build_layouts_and_freqs;
use bandana_core::{
    curve_sizes, divide_dram, effective_bandwidth_sweep, hit_rate_curves, lookup_weights,
    tune_tables, PartitionerKind,
};
use serde::{Deserialize, Serialize};

/// One sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// 1-based table number.
    pub table: usize,
    /// Training-set size in requests.
    pub train_requests: usize,
    /// Effective-bandwidth increase.
    pub gain: f64,
}

/// Runs the training-size sweep through the store's build recipe.
pub fn run(scale: Scale) -> Vec<Row> {
    let total = scale.default_total_cache();
    let mut rows = Vec::new();
    for &train_requests in &super::fig09::training_sizes(scale) {
        let w = super::common::workload_with_train(scale, train_requests);
        let (layouts, freqs) = build_layouts_and_freqs(
            &w.spec,
            &w.train,
            PartitionerKind::Shp { iterations: scale.shp_iterations() },
            super::common::VECTORS_PER_BLOCK,
            &[],
            super::common::SEED,
        );
        let curves = hit_rate_curves(&w.train, &curve_sizes(total));
        let capacities = divide_dram(total, &curves, &lookup_weights(&w.train));
        let policies = tune_tables(
            &layouts,
            &freqs,
            &w.train,
            &capacities,
            0.25,
            &super::fig12::thresholds(scale),
            |t| super::common::SEED.wrapping_add(t as u64),
        );
        let gains =
            effective_bandwidth_sweep(&w.eval, &layouts, &freqs, &capacities, &policies, 1.5);
        for g in gains {
            rows.push(Row { table: g.table + 1, train_requests, gain: g.gain });
        }
    }
    rows
}

/// Renders the figure artifact.
pub fn render(rows: &[Row]) -> String {
    let mut sizes: Vec<usize> = rows.iter().map(|r| r.train_requests).collect();
    sizes.sort_unstable();
    sizes.dedup();
    let mut header = vec!["table".to_string()];
    header.extend(sizes.iter().map(|s| format!("{s} reqs")));
    let mut t = TextTable::new(header);
    for table in 1..=8usize {
        let mut cells = vec![table.to_string()];
        for &s in &sizes {
            cells.push(
                rows.iter()
                    .find(|r| r.table == table && r.train_requests == s)
                    .map(|r| pct(r.gain))
                    .unwrap_or_default(),
            );
        }
        t.row(cells);
    }
    format!(
        "Figure 15: end-to-end gain vs SHP training size (limited cache, tuned thresholds)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_paper_shape() {
        let rows = run(Scale::Quick);
        let sizes = super::super::fig09::training_sizes(Scale::Quick);
        let gain = |table: usize, s: usize| {
            rows.iter().find(|r| r.table == table && r.train_requests == s).unwrap().gain
        };
        // More training data helps the hot table.
        assert!(
            gain(2, sizes[2]) >= gain(2, sizes[0]),
            "table 2: 5x {} vs 0.2x {}",
            gain(2, sizes[2]),
            gain(2, sizes[0])
        );
        // With the most training data, the overall picture is positive.
        let mean: f64 = (1..=8).map(|t| gain(t, sizes[2])).sum::<f64>() / 8.0;
        assert!(mean > 0.0, "mean gain at 5x training: {mean}");
    }
}
