//! Figure 16: effective-bandwidth increase vs embedding vector size.
//!
//! Smaller vectors pack more per 4 KB block (64 B → 64, 128 B → 32,
//! 256 B → 16), so each block read can prefetch more useful neighbours. The
//! cache still holds the same *number* of vectors (its byte size scales
//! with the vector size, as in the paper).
//!
//! **Paper shape:** gains are highest at 64 B and lowest at 256 B, for
//! every table that benefits from prefetching at all.

use crate::output::{pct, TextTable};
use crate::scale::Scale;
use bandana_core::{
    curve_sizes, divide_dram, effective_bandwidth_sweep, hit_rate_curves, lookup_weights,
    tune_tables,
};
use bandana_partition::BlockLayout;
use serde::{Deserialize, Serialize};

/// Vector sizes swept (bytes).
pub const VECTOR_SIZES: [usize; 3] = [64, 128, 256];

/// One sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// 1-based table number.
    pub table: usize,
    /// Vector size in bytes.
    pub vector_bytes: usize,
    /// Effective-bandwidth increase.
    pub gain: f64,
}

/// Runs the vector-size sweep.
pub fn run(scale: Scale) -> Vec<Row> {
    let w = super::common::workload(scale);
    let freqs = super::common::frequencies(&w);
    let total = scale.default_total_cache();

    // Hit-rate curves and DRAM division are byte-size independent (the
    // cache is sized in vectors).
    let curves = hit_rate_curves(&w.train, &curve_sizes(total));
    let capacities = divide_dram(total, &curves, &lookup_weights(&w.train));

    let mut rows = Vec::new();
    for &vb in &VECTOR_SIZES {
        let vectors_per_block = 4096 / vb;
        let layouts: Vec<BlockLayout> = (0..w.spec.num_tables())
            .map(|t| super::common::shp_layout_with_block(&w, t, scale, vectors_per_block))
            .collect();
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
            rows.push(Row { table: g.table + 1, vector_bytes: vb, gain: g.gain });
        }
    }
    rows
}

/// Renders the figure artifact.
pub fn render(rows: &[Row]) -> String {
    let mut header = vec!["table".to_string()];
    header.extend(VECTOR_SIZES.iter().map(|v| format!("{v} B")));
    let mut t = TextTable::new(header);
    for table in 1..=8usize {
        let mut cells = vec![table.to_string()];
        for &vb in &VECTOR_SIZES {
            cells.push(
                rows.iter()
                    .find(|r| r.table == table && r.vector_bytes == vb)
                    .map(|r| pct(r.gain))
                    .unwrap_or_default(),
            );
        }
        t.row(cells);
    }
    format!("Figure 16: effective-bandwidth increase vs embedding vector size\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_paper_shape() {
        let rows = run(Scale::Quick);
        let gain = |table: usize, vb: usize| {
            rows.iter().find(|r| r.table == table && r.vector_bytes == vb).unwrap().gain
        };
        // Smaller vectors pack more per block: 64 B beats 256 B on the hot
        // table.
        assert!(
            gain(2, 64) > gain(2, 256),
            "table 2: 64 B {} should beat 256 B {}",
            gain(2, 64),
            gain(2, 256)
        );
        // At 64 B the hot table posts a clear positive gain.
        assert!(gain(2, 64) > 0.1, "table 2 @64B: {}", gain(2, 64));
    }

    #[test]
    fn render_lists_sizes() {
        let s = render(&run(Scale::Quick));
        for vb in VECTOR_SIZES {
            assert!(s.contains(&format!("{vb} B")));
        }
    }
}
