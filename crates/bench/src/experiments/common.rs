//! Shared fixtures: the paper workload, SHP layouts, and evaluation
//! utilities used by several experiments.

use crate::scale::Scale;
use bandana_partition::{social_hash_partition, AccessFrequency, BlockLayout, ShpConfig};
use bandana_trace::{ModelSpec, Trace, TraceGenerator};

/// Master seed shared by all experiments, so that every artifact `repro`
/// prints is exactly reproducible.
pub const SEED: u64 = 0xBA9DA9A;

/// The paper's vectors-per-4KB-block at the default 128 B vector size.
pub const VECTORS_PER_BLOCK: usize = 32;

/// Index of the paper's "table 2" (the most-looked-up table, used by
/// Figures 10–12 and Table 2).
pub const TABLE2: usize = 1;

/// The generated workload: model spec plus disjoint train/eval traces.
#[derive(Debug)]
pub struct Workload {
    /// The 8-table paper model at this scale.
    pub spec: ModelSpec,
    /// Training trace (drives SHP, frequencies, tuning).
    pub train: Trace,
    /// Evaluation trace (all reported numbers come from this).
    pub eval: Trace,
    /// The generator (kept for topic models / embedding synthesis).
    pub generator: TraceGenerator,
}

/// Builds the standard workload for a scale.
pub fn workload(scale: Scale) -> Workload {
    let spec = ModelSpec::paper_scaled(scale.spec_scale());
    let mut generator = TraceGenerator::new(&spec, SEED);
    let train = generator.generate_requests(scale.train_requests());
    let eval = generator.generate_requests(scale.eval_requests());
    Workload { spec, train, eval, generator }
}

/// Builds a workload with a custom-length training trace (Figures 9/15).
pub fn workload_with_train(scale: Scale, train_requests: usize) -> Workload {
    let spec = ModelSpec::paper_scaled(scale.spec_scale());
    let mut generator = TraceGenerator::new(&spec, SEED);
    let train = generator.generate_requests(train_requests);
    let eval = generator.generate_requests(scale.eval_requests());
    Workload { spec, train, eval, generator }
}

/// SHP layout for one table from the training trace.
pub fn shp_layout(w: &Workload, table: usize, scale: Scale) -> BlockLayout {
    shp_layout_with_block(w, table, scale, VECTORS_PER_BLOCK)
}

/// SHP layout with an explicit block capacity (Figure 16 varies it).
pub fn shp_layout_with_block(
    w: &Workload,
    table: usize,
    scale: Scale,
    vectors_per_block: usize,
) -> BlockLayout {
    let cfg = ShpConfig {
        block_capacity: vectors_per_block,
        iterations: scale.shp_iterations(),
        seed: SEED.wrapping_add(table as u64),
        parallel_depth: 3,
    };
    let order =
        social_hash_partition(w.spec.tables[table].num_vectors, w.train.table_queries(table), &cfg);
    BlockLayout::from_order(order, vectors_per_block)
}

/// SHP layouts for every table.
pub fn shp_layouts(w: &Workload, scale: Scale) -> Vec<BlockLayout> {
    (0..w.spec.num_tables()).map(|t| shp_layout(w, t, scale)).collect()
}

/// Training-time access frequencies for every table.
pub fn frequencies(w: &Workload) -> Vec<AccessFrequency> {
    (0..w.spec.num_tables())
        .map(|t| {
            AccessFrequency::from_queries(w.spec.tables[t].num_vectors, w.train.table_queries(t))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic() {
        let a = workload(Scale::Quick);
        let b = workload(Scale::Quick);
        assert_eq!(a.train, b.train);
        assert_eq!(a.eval, b.eval);
    }

    #[test]
    fn shp_layout_is_valid() {
        let w = workload(Scale::Quick);
        let layout = shp_layout(&w, 0, Scale::Quick);
        assert_eq!(layout.num_vectors(), w.spec.tables[0].num_vectors);
        assert_eq!(layout.vectors_per_block(), VECTORS_PER_BLOCK);
    }
}
