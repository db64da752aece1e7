//! Table 2: miniature-cache threshold selection vs the full-cache oracle.
//!
//! For each cache size, the oracle picks the threshold maximizing the real
//! (full-size) cache's effective bandwidth; miniature caches at several
//! sampling rates pick their own. Both choices are then *evaluated at full
//! size* and compared.
//!
//! **Paper shape:** even 0.1% sampling picks thresholds whose full-cache
//! gain is close to the oracle's; larger caches choose lower thresholds.
//! (Our caches are 1000× smaller, so the sampled rates scale up
//! correspondingly: at the paper's 0.1% a miniature cache of a 40–200
//! vector cache would hold no vector at all.)

use crate::output::{pct, TextTable};
use crate::scale::Scale;
use bandana_cache::{AdmissionPolicy, PrefetchCacheSim};
use bandana_core::{tune_admission, TunerConfig};
use bandana_partition::AccessFrequency;
use serde::{Deserialize, Serialize};

/// One (cache size, sampling rate) cell of the table.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Cache size in vectors.
    pub cache_size: usize,
    /// Sampling rate; `1.0` is the full-cache oracle column.
    pub rate: f64,
    /// Chosen threshold.
    pub threshold: u32,
    /// Full-size-cache effective-bandwidth gain of that threshold.
    pub gain: f64,
}

/// Runs the Table 2 study on table 2.
pub fn run(scale: Scale) -> Vec<Row> {
    let w = super::common::workload(scale);
    let t2 = super::common::TABLE2;
    let layout = super::common::shp_layout(&w, t2, scale);
    let freq =
        AccessFrequency::from_queries(w.spec.tables[t2].num_vectors, w.train.table_queries(t2));
    let stream = w.eval.table_stream(t2);
    let candidates = super::fig12::thresholds(scale);

    // Full-size evaluation of one threshold.
    let full_gain = |cache: usize, t: u32| {
        let reads = |policy: AdmissionPolicy| {
            let mut sim = PrefetchCacheSim::new(&layout, cache, policy, freq.clone());
            for &v in &stream {
                sim.lookup(v);
            }
            sim.metrics().block_reads
        };
        reads(AdmissionPolicy::None) as f64 / reads(AdmissionPolicy::Threshold { t }) as f64 - 1.0
    };

    let mut rows = Vec::new();
    for &cache in &scale.table2_cache_sizes() {
        // Oracle: evaluate every candidate at full size.
        let oracle = candidates
            .iter()
            .map(|&t| (t, full_gain(cache, t)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        rows.push(Row { cache_size: cache, rate: 1.0, threshold: oracle.0, gain: oracle.1 });

        // Miniature caches at each sampling rate.
        for &rate in &scale.sampling_rates() {
            let config = TunerConfig {
                cache_capacity: cache,
                sampling_rate: rate,
                candidate_thresholds: candidates.clone(),
                salt: super::common::SEED,
            };
            let AdmissionPolicy::Threshold { t: chosen } =
                tune_admission(&layout, &freq, &stream, &config)
            else {
                unreachable!("the tuner picks a threshold")
            };
            rows.push(Row {
                cache_size: cache,
                rate,
                threshold: chosen,
                gain: full_gain(cache, chosen),
            });
        }
    }
    rows
}

/// Renders the table artifact.
pub fn render(rows: &[Row]) -> String {
    let mut rates: Vec<f64> = rows.iter().map(|r| r.rate).collect();
    rates.sort_by(|a, b| b.partial_cmp(a).unwrap());
    rates.dedup();
    let mut header = vec!["size".to_string()];
    for &r in &rates {
        let label =
            if r >= 1.0 { "full cache".to_string() } else { format!("{:.0}% sampling", r * 100.0) };
        header.push(format!("{label}: t"));
        header.push("bw gain".to_string());
    }
    let mut t = TextTable::new(header);
    let mut caches: Vec<usize> = rows.iter().map(|r| r.cache_size).collect();
    caches.sort_unstable();
    caches.dedup();
    for &c in &caches {
        let mut cells = vec![c.to_string()];
        for &rate in &rates {
            let row = rows.iter().find(|r| r.cache_size == c && r.rate == rate).unwrap();
            cells.push(row.threshold.to_string());
            cells.push(pct(row.gain));
        }
        t.row(cells);
    }
    format!(
        "Table 2: miniature-cache threshold selection vs full-cache oracle (table 2)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_paper_shape() {
        let rows = run(Scale::Quick);
        let caches = Scale::Quick.table2_cache_sizes();
        for &cache in &caches {
            let oracle = rows.iter().find(|r| r.cache_size == cache && r.rate >= 1.0).unwrap();
            for r in rows.iter().filter(|r| r.cache_size == cache && r.rate < 1.0) {
                // Sampled choices must be near-oracle: within 0.25 absolute
                // gain (the paper's Table 2 shows losses of a few tens of
                // percentage points at worst).
                assert!(
                    oracle.gain - r.gain <= 0.25,
                    "rate {} picked t={} with gain {} vs oracle t={} gain {}",
                    r.rate,
                    r.threshold,
                    r.gain,
                    oracle.threshold,
                    oracle.gain
                );
            }
        }
        // Larger caches pick thresholds <= smaller caches' (oracle column).
        let oracle_t = |cache: usize| {
            rows.iter().find(|r| r.cache_size == cache && r.rate >= 1.0).unwrap().threshold
        };
        assert!(oracle_t(*caches.last().unwrap()) <= oracle_t(caches[0]));
    }

    #[test]
    fn render_has_threshold_columns() {
        let s = render(&run(Scale::Quick));
        assert!(s.contains("full cache"));
        assert!(s.contains("sampling"));
    }
}
