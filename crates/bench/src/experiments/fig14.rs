//! Figure 14: tuned gain vs miniature-cache sampling rate, per table.
//!
//! Thresholds are chosen by miniature caches at several sampling rates and
//! by the full-cache oracle; each choice is evaluated at full cache size.
//!
//! **Paper shape:** the bars are nearly identical across sampling rates —
//! even 0.1% sampling matches the oracle almost everywhere.

use crate::output::{pct, TextTable};
use crate::scale::Scale;
use bandana_cache::{AdmissionPolicy, PrefetchCacheSim};
use bandana_core::{
    curve_sizes, divide_dram, hit_rate_curves, lookup_weights, tune_admission, TunerConfig,
};
use serde::{Deserialize, Serialize};

/// One bar: a table tuned at a sampling rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// 1-based table number.
    pub table: usize,
    /// Sampling rate; `1.0` marks the full-cache oracle.
    pub rate: f64,
    /// Full-size gain of the chosen threshold.
    pub gain: f64,
}

/// Runs the sampling-rate study across all tables.
pub fn run(scale: Scale) -> Vec<Row> {
    let w = super::common::workload(scale);
    let layouts = super::common::shp_layouts(&w, scale);
    let freqs = super::common::frequencies(&w);
    let candidates = super::fig12::thresholds(scale);
    let total = scale.default_total_cache();
    let curves = hit_rate_curves(&w.train, &curve_sizes(total));
    let capacities = divide_dram(total, &curves, &lookup_weights(&w.train));

    let mut rows = Vec::new();
    for t in 0..w.spec.num_tables() {
        let stream = w.eval.table_stream(t);
        let full_gain = |tuned: AdmissionPolicy| {
            let reads = |policy: AdmissionPolicy| {
                let mut sim =
                    PrefetchCacheSim::new(&layouts[t], capacities[t], policy, freqs[t].clone());
                for &v in &stream {
                    sim.lookup(v);
                }
                sim.metrics().block_reads
            };
            reads(AdmissionPolicy::None) as f64 / reads(tuned) as f64 - 1.0
        };

        // Oracle column.
        let oracle = candidates
            .iter()
            .map(|&c| full_gain(AdmissionPolicy::Threshold { t: c }))
            .fold(f64::MIN, f64::max);
        rows.push(Row { table: t + 1, rate: 1.0, gain: oracle });

        for &rate in &scale.sampling_rates() {
            let tuned = tune_admission(
                &layouts[t],
                &freqs[t],
                &stream,
                &TunerConfig {
                    cache_capacity: capacities[t],
                    sampling_rate: rate,
                    candidate_thresholds: candidates.clone(),
                    salt: super::common::SEED,
                },
            );
            rows.push(Row { table: t + 1, rate, gain: full_gain(tuned) });
        }
    }
    rows
}

/// Renders the figure artifact.
pub fn render(rows: &[Row]) -> String {
    let mut rates: Vec<f64> = rows.iter().map(|r| r.rate).collect();
    rates.sort_by(|a, b| a.partial_cmp(b).unwrap());
    rates.dedup();
    let mut header = vec!["table".to_string()];
    for &r in &rates {
        header.push(if r >= 1.0 {
            "full cache".to_string()
        } else {
            format!("{:.0}% sampling", r * 100.0)
        });
    }
    let mut t = TextTable::new(header);
    for table in 1..=8usize {
        let mut cells = vec![table.to_string()];
        for &rate in &rates {
            cells.push(
                rows.iter()
                    .find(|r| r.table == table && r.rate == rate)
                    .map(|r| pct(r.gain))
                    .unwrap_or_default(),
            );
        }
        t.row(cells);
    }
    format!(
        "Figure 14: tuned gain vs miniature-cache sampling rate (full cache = oracle)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_paper_shape() {
        let rows = run(Scale::Quick);
        // Sampled tuning tracks the oracle: for every table, the worst
        // sampled gain is within 0.25 absolute of the oracle gain.
        for table in 1..=8usize {
            let oracle = rows.iter().find(|r| r.table == table && r.rate >= 1.0).unwrap().gain;
            for r in rows.iter().filter(|r| r.table == table && r.rate < 1.0) {
                assert!(
                    oracle - r.gain < 0.25,
                    "table {table} rate {}: gain {} far below oracle {oracle}",
                    r.rate,
                    r.gain
                );
            }
        }
        // Table 2 shows a solidly positive oracle gain.
        let t2 = rows.iter().find(|r| r.table == 2 && r.rate >= 1.0).unwrap();
        assert!(t2.gain > 0.1, "table 2 oracle gain {}", t2.gain);
    }

    #[test]
    fn render_lists_rates() {
        let s = render(&run(Scale::Quick));
        assert!(s.contains("full cache"));
        assert!(s.contains("sampling"));
    }
}
