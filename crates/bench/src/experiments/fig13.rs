//! Figure 13: end-to-end effective-bandwidth increase vs total cache size.
//!
//! The full Bandana configuration — SHP placement, per-table DRAM division
//! by hit-rate curves, miniature-cache-tuned thresholds — swept over total
//! cache sizes (the paper's 1 M–5 M vectors, scaled).
//!
//! **Paper shape:** gains grow with cache size, up to ~5× for table 2;
//! tables with near-random access (8) stay low and flat.

use crate::output::{pct, TextTable};
use crate::scale::Scale;
use bandana_core::{
    curve_sizes, divide_dram, effective_bandwidth_sweep, hit_rate_curves, lookup_weights,
    tune_tables,
};
use serde::{Deserialize, Serialize};

/// One sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// 1-based table number.
    pub table: usize,
    /// Total cache size (vectors, across all tables).
    pub total_cache: usize,
    /// Effective-bandwidth increase over the baseline at the same per-table
    /// cache size.
    pub gain: f64,
}

/// Runs the end-to-end cache-size sweep.
pub fn run(scale: Scale) -> Vec<Row> {
    let w = super::common::workload(scale);
    let layouts = super::common::shp_layouts(&w, scale);
    let freqs = super::common::frequencies(&w);
    let weights = lookup_weights(&w.train);

    // Hit-rate curves from the training trace, reused for every total.
    let max_total = *scale.total_cache_sizes().last().unwrap();
    let curves = hit_rate_curves(&w.train, &curve_sizes(max_total));

    let mut rows = Vec::new();
    for &total in &scale.total_cache_sizes() {
        let capacities = divide_dram(total, &curves, &weights);
        let policies = tune_tables(
            &layouts,
            &freqs,
            &w.train,
            &capacities,
            0.25,
            &super::fig12::thresholds(scale),
            |_| super::common::SEED,
        );
        let gains =
            effective_bandwidth_sweep(&w.eval, &layouts, &freqs, &capacities, &policies, 1.5);
        for g in gains {
            rows.push(Row { table: g.table + 1, total_cache: total, gain: g.gain });
        }
    }
    rows
}

/// Renders the figure artifact.
pub fn render(rows: &[Row]) -> String {
    let mut totals: Vec<usize> = rows.iter().map(|r| r.total_cache).collect();
    totals.sort_unstable();
    totals.dedup();
    let mut header = vec!["table".to_string()];
    header.extend(totals.iter().map(|t| format!("total {t}")));
    let mut t = TextTable::new(header);
    for table in 1..=8usize {
        let mut cells = vec![table.to_string()];
        for &total in &totals {
            cells.push(
                rows.iter()
                    .find(|r| r.table == table && r.total_cache == total)
                    .map(|r| pct(r.gain))
                    .unwrap_or_default(),
            );
        }
        t.row(cells);
    }
    format!(
        "Figure 13: end-to-end effective-bandwidth increase vs total cache size\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_paper_shape() {
        let rows = run(Scale::Quick);
        let totals = Scale::Quick.total_cache_sizes();
        let gain = |table: usize, total: usize| {
            rows.iter().find(|r| r.table == table && r.total_cache == total).unwrap().gain
        };
        // Table 2 is the big winner and grows with cache size.
        let t2_small = gain(2, totals[0]);
        let t2_large = gain(2, *totals.last().unwrap());
        assert!(t2_large > 0.2, "table 2 should gain substantially: {t2_large}");
        assert!(t2_large >= t2_small, "table 2 gain should grow: {t2_small} -> {t2_large}");
        // Table 8 (random-ish) trails table 2 at the largest cache.
        assert!(gain(8, *totals.last().unwrap()) < t2_large);
        // The paper's headline: overall positive effective-bandwidth gains.
        let mean: f64 = rows.iter().map(|r| r.gain).sum::<f64>() / rows.len() as f64;
        assert!(mean > 0.0, "mean gain {mean}");
    }

    #[test]
    fn render_has_eight_tables() {
        let s = render(&run(Scale::Quick));
        assert!(s.lines().count() >= 11);
    }
}
