//! Shard-local dense rebase: behavioural equivalence with the
//! parent-addressed carve.
//!
//! The serving engine used to hand each shard a [`SparseDevice`] carve at
//! parent block addresses; it now rebases the carve onto a dense
//! zero-based [`RebasedDevice`] and moves the shard's tables' base blocks
//! with it. This property test drives the same lookup stream through both
//! shapes and demands byte-identical payloads, identical block-read
//! counts, and identical cache metrics — the rebase must be invisible to
//! everything except capacity/endurance accounting.

use bandana::cache::AdmissionPolicy;
use bandana::core::{BatchScratch, TableStore};
use bandana::nvm::{BlockBufPool, BlockDevice, NvmConfig, NvmDevice, SparseDevice};
use bandana::partition::{AccessFrequency, BlockLayout};
use bandana::trace::{spec::TableSpec, EmbeddingTable, TopicModel};
use proptest::prelude::*;

/// Vectors per table in the fixture.
const VECTORS: u32 = 96;
/// Vectors per block (32 B vectors in 4 KB blocks would give 128; a
/// smaller fan-out spreads each table over several blocks).
const PER_BLOCK: usize = 16;
/// Blocks per table.
const BLOCKS: u64 = (VECTORS as u64).div_ceil(PER_BLOCK as u64);

/// Builds one table twice — identical state — plus the shared parent
/// device holding three tables' regions; the shard under test owns
/// tables 0 and 2, leaving a hole where table 1 lives so the rebase
/// actually moves table 2.
fn fixture(seed: u64) -> (Vec<TableStore>, Vec<TableStore>, NvmDevice, Vec<EmbeddingTable>) {
    let spec = TableSpec::test_small(VECTORS);
    let mut parent = NvmDevice::new(NvmConfig::optane_375gb().with_capacity_blocks(3 * BLOCKS));
    let mut carve_tables = Vec::new();
    let mut dense_tables = Vec::new();
    let mut embeddings = Vec::new();
    for (i, &table_id) in [0usize, 2].iter().enumerate() {
        let topics = TopicModel::new(&spec, seed ^ table_id as u64);
        let emb = EmbeddingTable::synthesize(VECTORS, 8, &topics, seed.wrapping_add(i as u64));
        let base_block = table_id as u64 * BLOCKS;
        let build = || {
            TableStore::new(
                table_id,
                BlockLayout::identity(VECTORS, PER_BLOCK),
                AccessFrequency::zeros(VECTORS),
                AdmissionPolicy::All { position: 0.3 },
                24,
                1.5,
                base_block,
                32,
            )
        };
        let mut table = build();
        table.write_embeddings(&mut parent, &emb).unwrap();
        carve_tables.push(table);
        dense_tables.push(build());
        embeddings.push(emb);
    }
    parent.reset_counters();
    (carve_tables, dense_tables, parent, embeddings)
}

proptest! {
    /// Rebased dense shards return byte-identical payloads and identical
    /// block-read counts to the parent-addressed carve, over arbitrary
    /// batched lookup streams.
    #[test]
    fn rebased_shard_serves_identically_to_parent_addressed_carve(
        seed in 0u64..32,
        ops in proptest::collection::vec(
            (0usize..2, proptest::collection::vec(0u32..VECTORS, 1..10)),
            1..30,
        ),
    ) {
        let (mut carve_tables, mut dense_tables, parent, embeddings) = fixture(seed);
        let ranges: Vec<(u64, u64)> =
            carve_tables.iter().map(|t| (t.base_block(), t.num_blocks())).collect();
        let mut carve = SparseDevice::carve(&parent, &ranges).unwrap();
        let mut dense = SparseDevice::carve(&parent, &ranges).unwrap().rebase();
        for t in &mut dense_tables {
            let new_base = dense.remap(t.base_block()).expect("table blocks were carved");
            t.rebase(new_base);
        }
        // The shard's dense capacity is exactly its tables' blocks.
        prop_assert_eq!(dense.capacity_blocks(), 2 * BLOCKS);

        let mut scratch = BatchScratch::new();
        let mut carve_pool = BlockBufPool::default();
        let mut dense_pool = BlockBufPool::default();
        for (ti, ids) in &ops {
            carve_tables[*ti]
                .lookup_batch_with(&mut carve, ids, &mut scratch, &mut carve_pool)
                .unwrap();
            // The flat output is only valid until the scratch's next call.
            let carve_out = scratch.out().to_vec();
            dense_tables[*ti]
                .lookup_batch_with(&mut dense, ids, &mut scratch, &mut dense_pool)
                .unwrap();
            prop_assert_eq!(carve_out.as_slice(), scratch.out(), "payloads diverged");
            for (i, &v) in ids.iter().enumerate() {
                // And both match the ground-truth embedding bytes.
                prop_assert_eq!(
                    scratch.payload(i),
                    embeddings[*ti].vector_as_bytes(v).as_slice(),
                    "payload {} corrupt", i
                );
            }
        }

        // Identical device traffic and cache behaviour, not just results.
        prop_assert_eq!(carve.counters().reads, dense.counters().reads);
        prop_assert_eq!(carve.counters().bytes_read, dense.counters().bytes_read);
        for (c, d) in carve_tables.iter().zip(&dense_tables) {
            prop_assert_eq!(c.metrics(), d.metrics());
        }
    }
}
