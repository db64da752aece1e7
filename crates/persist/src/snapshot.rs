//! Versioned snapshots of the engine's warm state, installed atomically.
//!
//! A snapshot captures what a restart would otherwise lose: each table's
//! DRAM cache *contents* (vector ids and demand/prefetch origin bits —
//! not payloads, which the NVM device still holds), the admission policy
//! and shadow multiplier in force per table, and the per-shard
//! endurance counters. It deliberately does **not** capture the table
//! catalog or tenant registry — those are WAL records
//! ([`crate::WalRecord`]), replayed over the snapshot at recovery.
//!
//! # On-disk format (version 3; versions 1 and 2 still decode)
//!
//! All integers little-endian:
//!
//! | field | size | meaning |
//! |-------|------|---------|
//! | magic | 4 bytes | `"BSNP"` |
//! | version | `u32` | `3` (readers accept `1` and `2`) |
//! | `written_at_ms` | `u64` | wall-clock Unix milliseconds at write |
//! | `tick` | `u64` | control-bus tick the snapshot was taken on |
//! | `shards` | `u32` | shard count |
//! | `tables` | `u32` | table count |
//! | per shard | `u64` | endurance `bytes_written` |
//! | per table | see below | |
//! | crc | `u32` | [`crate::crc32`] of everything above |
//!
//! Per table:
//!
//! | field | size | meaning |
//! |-------|------|---------|
//! | `table` | `u32` | table id |
//! | policy tag | `u8` | 0 `None`, 1 `All`, 2 `Shadow`, 3 `ShadowPosition`, 4 `Threshold`, 5 `Set` |
//! | policy arg | `f64` or `u32` | `position` for tags 1/3, `t` for tag 4, absent otherwise |
//! | `shadow_multiplier` | `f64` | shadow-cache size multiplier |
//! | `cache_capacity` | `u32` | **v2 only**: cache capacity in entries (the learned DRAM partition); decoded as `0` (= unknown) from v1 files |
//! | `keys` | `u32` | cached-entry count |
//! | per key | `u32` + `u8` | vector id, origin (0 demand, 1 prefetch), MRU→LRU |
//! | `layout` | `u32` | **v3 only**: placement-order length — `0` means the build-time layout (online re-layout never ran); decoded as `0` from v1/v2 files |
//! | per position | `u32` | **v3 only**: vector id at that physical position |
//!
//! # Atomic install
//!
//! [`write_snapshot`] writes `snapshot-<seq>.bin.tmp`, fsyncs it, renames
//! it to `snapshot-<seq>.bin`, and fsyncs the directory, so a reader
//! never observes a half-written installed snapshot. [`load_latest`]
//! walks installed snapshots newest-first and returns the first one that
//! passes the checksum — a bit-flipped newest snapshot falls back to its
//! predecessor instead of poisoning recovery.

use crate::crc::crc32;
use crate::error::PersistError;
use crate::faults::{CrashPoint, FaultPlan};
use bandana_cache::AdmissionPolicy;
use std::io::Write;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"BSNP";

/// The snapshot format version this build writes.
pub const SNAPSHOT_VERSION: u32 = 3;

/// The oldest snapshot version this build still decodes (version 1
/// predates the per-table `cache_capacity` field, which decodes as 0;
/// versions 1 and 2 predate the per-table `layout_order`, which decodes
/// as empty = build-time layout).
pub const MIN_SNAPSHOT_VERSION: u32 = 1;

/// Where a cached entry came from, carried through snapshots so a
/// rehydrated cache keeps its demand/prefetch split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyOrigin {
    /// Demand-fetched (a miss brought it in).
    Demand,
    /// Prefetched by the admission policy.
    Prefetch,
}

/// One table's warm state.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSnapshot {
    /// Table id.
    pub table: u32,
    /// Admission policy in force (possibly a tuner hot-swap).
    pub policy: AdmissionPolicy,
    /// Shadow-cache size multiplier in force.
    pub shadow_multiplier: f64,
    /// Cache capacity in entries when the snapshot was taken — the
    /// learned DRAM partition, so a warm restart resumes the budget
    /// controller's split rather than the build-time one. `0` means
    /// unknown (decoded from a version-1 file): recovery keeps the
    /// build-time capacity.
    pub cache_capacity: u32,
    /// Cached entries, MRU first: `(vector id, origin)`.
    pub keys: Vec<(u32, KeyOrigin)>,
    /// The learned placement order in force when the snapshot was taken:
    /// `layout_order[position] = vector id`. Empty means the build-time
    /// layout (the online re-layout loop never rewrote this table, or the
    /// file predates version 3) — recovery keeps the layout the build
    /// produced. When non-empty, a warm restart physically re-applies
    /// this order before rehydrating the cache.
    pub layout_order: Vec<u32>,
}

/// A full engine snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotData {
    /// Wall-clock Unix milliseconds when the snapshot was written.
    pub written_at_ms: u64,
    /// Control-bus tick the snapshot was taken on.
    pub tick: u64,
    /// Per-shard endurance counters (`bytes_written`), shard order.
    pub shard_endurance_bytes: Vec<u64>,
    /// Per-table warm state.
    pub tables: Vec<TableSnapshot>,
}

fn encode_policy(out: &mut Vec<u8>, policy: AdmissionPolicy) -> Result<(), PersistError> {
    match policy {
        AdmissionPolicy::None => out.push(0),
        AdmissionPolicy::All { position } => {
            out.push(1);
            out.extend_from_slice(&position.to_le_bytes());
        }
        AdmissionPolicy::Shadow => out.push(2),
        AdmissionPolicy::ShadowPosition { position } => {
            out.push(3);
            out.extend_from_slice(&position.to_le_bytes());
        }
        AdmissionPolicy::Threshold { t } => {
            out.push(4);
            out.extend_from_slice(&t.to_le_bytes());
        }
        // The set's members are not written: the rebuilt store solves the
        // same set from the same inputs.
        AdmissionPolicy::Set => out.push(5),
        // `AdmissionPolicy` is non_exhaustive upstream; refuse to write a
        // snapshot we could not read back.
        other => {
            return Err(PersistError::Corrupt(format!("unencodable admission policy {other:?}")))
        }
    }
    Ok(())
}

fn decode_policy(r: &mut crate::codec::Reader<'_>) -> Option<AdmissionPolicy> {
    Some(match r.u8()? {
        0 => AdmissionPolicy::None,
        1 => AdmissionPolicy::All { position: r.f64()? },
        2 => AdmissionPolicy::Shadow,
        3 => AdmissionPolicy::ShadowPosition { position: r.f64()? },
        4 => AdmissionPolicy::Threshold { t: r.u32()? },
        5 => AdmissionPolicy::Set,
        _ => return None,
    })
}

/// Encodes `data` into the version-1 byte format (checksum included).
pub fn encode(data: &SnapshotData) -> Result<Vec<u8>, PersistError> {
    let mut out = Vec::with_capacity(
        64 + data.shard_endurance_bytes.len() * 8
            + data.tables.iter().map(|t| 32 + t.keys.len() * 5).sum::<usize>(),
    );
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&data.written_at_ms.to_le_bytes());
    out.extend_from_slice(&data.tick.to_le_bytes());
    out.extend_from_slice(&(data.shard_endurance_bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(&(data.tables.len() as u32).to_le_bytes());
    for &bytes in &data.shard_endurance_bytes {
        out.extend_from_slice(&bytes.to_le_bytes());
    }
    for t in &data.tables {
        out.extend_from_slice(&t.table.to_le_bytes());
        encode_policy(&mut out, t.policy)?;
        out.extend_from_slice(&t.shadow_multiplier.to_le_bytes());
        out.extend_from_slice(&t.cache_capacity.to_le_bytes());
        out.extend_from_slice(&(t.keys.len() as u32).to_le_bytes());
        for &(id, origin) in &t.keys {
            out.extend_from_slice(&id.to_le_bytes());
            out.push(match origin {
                KeyOrigin::Demand => 0,
                KeyOrigin::Prefetch => 1,
            });
        }
        out.extend_from_slice(&(t.layout_order.len() as u32).to_le_bytes());
        for &v in &t.layout_order {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(out)
}

/// Decodes and checksum-verifies one snapshot file's bytes.
///
/// # Errors
///
/// [`PersistError::Corrupt`] on a bad magic, unknown version, failed
/// checksum, or short payload.
pub fn decode(data: &[u8]) -> Result<SnapshotData, PersistError> {
    let corrupt = |why: &str| PersistError::Corrupt(format!("snapshot: {why}"));
    if data.len() < MAGIC.len() + 8 {
        return Err(corrupt("too short"));
    }
    let (body, crc_bytes) = data.split_at(data.len() - 4);
    let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
    if crc32(body) != stored {
        return Err(corrupt("checksum mismatch"));
    }
    let mut r = crate::codec::Reader::new(body);
    let mut magic = [0u8; 4];
    for b in &mut magic {
        *b = r.u8().ok_or_else(|| corrupt("short magic"))?;
    }
    if &magic != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = r.u32().ok_or_else(|| corrupt("short version"))?;
    if !(MIN_SNAPSHOT_VERSION..=SNAPSHOT_VERSION).contains(&version) {
        return Err(PersistError::Corrupt(format!(
            "snapshot: unsupported version {version} \
             (this build reads {MIN_SNAPSHOT_VERSION}..={SNAPSHOT_VERSION})"
        )));
    }
    let written_at_ms = r.u64().ok_or_else(|| corrupt("short header"))?;
    let tick = r.u64().ok_or_else(|| corrupt("short header"))?;
    let shards = r.u32().ok_or_else(|| corrupt("short header"))? as usize;
    let tables = r.u32().ok_or_else(|| corrupt("short header"))? as usize;
    if shards > 1 << 16 || tables > 1 << 20 {
        return Err(corrupt("absurd header counts"));
    }
    let mut shard_endurance_bytes = Vec::with_capacity(shards);
    for _ in 0..shards {
        shard_endurance_bytes.push(r.u64().ok_or_else(|| corrupt("short shard section"))?);
    }
    let mut out_tables = Vec::with_capacity(tables);
    for _ in 0..tables {
        let table = r.u32().ok_or_else(|| corrupt("short table header"))?;
        let policy = decode_policy(&mut r).ok_or_else(|| corrupt("bad policy"))?;
        let shadow_multiplier = r.f64().ok_or_else(|| corrupt("short table header"))?;
        // Version 1 predates the learned-partition field.
        let cache_capacity =
            if version >= 2 { r.u32().ok_or_else(|| corrupt("short table header"))? } else { 0 };
        let key_count = r.u32().ok_or_else(|| corrupt("short table header"))? as usize;
        if key_count > 1 << 28 {
            return Err(corrupt("absurd key count"));
        }
        let mut keys = Vec::with_capacity(key_count);
        for _ in 0..key_count {
            let id = r.u32().ok_or_else(|| corrupt("short key section"))?;
            let origin = match r.u8().ok_or_else(|| corrupt("short key section"))? {
                0 => KeyOrigin::Demand,
                1 => KeyOrigin::Prefetch,
                _ => return Err(corrupt("bad key origin")),
            };
            keys.push((id, origin));
        }
        // Versions 1 and 2 predate the learned-layout field.
        let mut layout_order = Vec::new();
        if version >= 3 {
            let order_len = r.u32().ok_or_else(|| corrupt("short layout section"))? as usize;
            if order_len > 1 << 28 {
                return Err(corrupt("absurd layout length"));
            }
            layout_order.reserve(order_len);
            for _ in 0..order_len {
                layout_order.push(r.u32().ok_or_else(|| corrupt("short layout section"))?);
            }
        }
        out_tables.push(TableSnapshot {
            table,
            policy,
            shadow_multiplier,
            cache_capacity,
            keys,
            layout_order,
        });
    }
    if !r.done() {
        return Err(corrupt("trailing bytes"));
    }
    Ok(SnapshotData { written_at_ms, tick, shard_endurance_bytes, tables: out_tables })
}

/// The installed path of snapshot `seq` inside `dir`.
pub fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snapshot-{seq}.bin"))
}

/// Writes `data` as snapshot `seq` in `dir`: temp file, fsync, atomic
/// rename, directory fsync. Returns the installed path.
///
/// # Errors
///
/// Propagates I/O errors; under an armed snapshot [`CrashPoint`] the
/// matching partial state is left behind and
/// [`PersistError::InjectedCrash`] is returned.
pub fn write_snapshot(
    dir: &Path,
    seq: u64,
    data: &SnapshotData,
    faults: &FaultPlan,
) -> Result<PathBuf, PersistError> {
    let bytes = encode(data)?;
    let final_path = snapshot_path(dir, seq);
    let tmp_path = dir.join(format!("snapshot-{seq}.bin.tmp"));
    let mut tmp = std::fs::File::create(&tmp_path)?;
    if faults.fires(CrashPoint::SnapshotMidWrite) {
        tmp.write_all(&bytes[..bytes.len() / 2])?;
        tmp.sync_all()?;
        return Err(PersistError::InjectedCrash(CrashPoint::SnapshotMidWrite));
    }
    tmp.write_all(&bytes)?;
    tmp.sync_all()?;
    drop(tmp);
    if faults.fires(CrashPoint::SnapshotBeforeRename) {
        return Err(PersistError::InjectedCrash(CrashPoint::SnapshotBeforeRename));
    }
    std::fs::rename(&tmp_path, &final_path)?;
    sync_dir(dir)?;
    Ok(final_path)
}

/// Fsyncs a directory so a just-renamed entry is durable (a no-op on
/// platforms where directories cannot be opened for sync).
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    match std::fs::File::open(dir) {
        Ok(f) => f.sync_all(),
        Err(_) => Ok(()),
    }
}

/// Deletes installed snapshots beyond the newest `keep` (clamped to a
/// minimum of 2, so the newest-first corrupt-fallback path always has a
/// predecessor to land on). Temp files and non-snapshot entries are
/// untouched; a snapshot that fails to delete is skipped silently (GC is
/// best-effort — the next install retries). Returns how many files were
/// removed.
pub fn prune_snapshots(dir: &Path, keep: usize) -> usize {
    let keep = keep.max(2);
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    let mut seqs: Vec<u64> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name();
            let name = name.to_str()?;
            let seq = name.strip_prefix("snapshot-")?.strip_suffix(".bin")?;
            seq.parse().ok()
        })
        .collect();
    seqs.sort_unstable_by(|a, b| b.cmp(a));
    seqs.iter()
        .skip(keep)
        .filter(|&&seq| std::fs::remove_file(snapshot_path(dir, seq)).is_ok())
        .count()
}

/// Loads the newest installed snapshot in `dir` that passes validation,
/// with its sequence number. Corrupt or unreadable snapshots are skipped
/// (newest-first fallback); temp files are ignored entirely.
///
/// # Errors
///
/// Propagates directory-listing failures (a missing directory loads as
/// "no snapshot").
pub fn load_latest(dir: &Path) -> Result<Option<(u64, SnapshotData)>, PersistError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(PersistError::Io(e)),
    };
    let mut seqs: Vec<u64> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name();
            let name = name.to_str()?;
            let seq = name.strip_prefix("snapshot-")?.strip_suffix(".bin")?;
            seq.parse().ok()
        })
        .collect();
    seqs.sort_unstable_by(|a, b| b.cmp(a));
    for seq in seqs {
        let Ok(bytes) = std::fs::read(snapshot_path(dir, seq)) else { continue };
        if let Ok(data) = decode(&bytes) {
            return Ok(Some((seq, data)));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::flip_bit;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bandana-snap-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> SnapshotData {
        SnapshotData {
            written_at_ms: 1_700_000_000_123,
            tick: 42,
            shard_endurance_bytes: vec![4096, 0, 12_288],
            tables: vec![
                TableSnapshot {
                    table: 0,
                    policy: AdmissionPolicy::Threshold { t: 10 },
                    shadow_multiplier: 4.0,
                    cache_capacity: 384,
                    keys: vec![(7, KeyOrigin::Demand), (3, KeyOrigin::Prefetch)],
                    layout_order: vec![3, 0, 2, 1],
                },
                TableSnapshot {
                    table: 1,
                    policy: AdmissionPolicy::ShadowPosition { position: 0.5 },
                    shadow_multiplier: 2.0,
                    cache_capacity: 128,
                    keys: vec![],
                    layout_order: vec![],
                },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trip_preserves_everything() {
        let data = sample();
        let bytes = encode(&data).unwrap();
        assert_eq!(decode(&bytes).unwrap(), data);
    }

    #[test]
    fn the_set_policy_round_trips_as_a_bare_tag() {
        let mut data = sample();
        data.tables[1].policy = AdmissionPolicy::Set;
        let bytes = encode(&data).unwrap();
        assert_eq!(decode(&bytes).unwrap(), data);
        let mut tag = Vec::new();
        encode_policy(&mut tag, AdmissionPolicy::Set).unwrap();
        assert_eq!(tag, [5], "tag 5 carries no payload");
    }

    #[test]
    fn version_and_magic_are_enforced() {
        let mut bytes = encode(&sample()).unwrap();
        // Magic damage.
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(decode(&bad_magic), Err(PersistError::Corrupt(_))));
        // Future version with a recomputed checksum still refuses.
        bytes[4] = 0xFE;
        let body_len = bytes.len() - 4;
        let crc = crate::crc::crc32(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("unsupported version"), "{err}");
    }

    /// Hand-encodes `data` in the version-1 layout (no per-table
    /// `cache_capacity`), byte-for-byte what a v1 build wrote.
    fn encode_v1(data: &SnapshotData) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&1u32.to_le_bytes());
        out.extend_from_slice(&data.written_at_ms.to_le_bytes());
        out.extend_from_slice(&data.tick.to_le_bytes());
        out.extend_from_slice(&(data.shard_endurance_bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(&(data.tables.len() as u32).to_le_bytes());
        for &bytes in &data.shard_endurance_bytes {
            out.extend_from_slice(&bytes.to_le_bytes());
        }
        for t in &data.tables {
            out.extend_from_slice(&t.table.to_le_bytes());
            encode_policy(&mut out, t.policy).unwrap();
            out.extend_from_slice(&t.shadow_multiplier.to_le_bytes());
            out.extend_from_slice(&(t.keys.len() as u32).to_le_bytes());
            for &(id, origin) in &t.keys {
                out.extend_from_slice(&id.to_le_bytes());
                out.push(match origin {
                    KeyOrigin::Demand => 0,
                    KeyOrigin::Prefetch => 1,
                });
            }
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    #[test]
    fn version_1_files_still_decode_with_unknown_capacity() {
        let data = sample();
        let decoded = decode(&encode_v1(&data)).unwrap();
        assert_eq!(decoded.tick, data.tick);
        assert_eq!(decoded.shard_endurance_bytes, data.shard_endurance_bytes);
        assert_eq!(decoded.tables.len(), data.tables.len());
        for (got, want) in decoded.tables.iter().zip(&data.tables) {
            assert_eq!(got.table, want.table);
            assert_eq!(got.policy, want.policy);
            assert_eq!(got.shadow_multiplier, want.shadow_multiplier);
            assert_eq!(got.keys, want.keys);
            assert_eq!(got.cache_capacity, 0, "v1 has no capacity: must decode as unknown");
            assert!(got.layout_order.is_empty(), "v1 has no layout: must decode build-time");
        }
    }

    /// Hand-encodes `data` in the version-2 layout (per-table
    /// `cache_capacity` but no `layout_order`), byte-for-byte what a v2
    /// build wrote.
    fn encode_v2(data: &SnapshotData) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&2u32.to_le_bytes());
        out.extend_from_slice(&data.written_at_ms.to_le_bytes());
        out.extend_from_slice(&data.tick.to_le_bytes());
        out.extend_from_slice(&(data.shard_endurance_bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(&(data.tables.len() as u32).to_le_bytes());
        for &bytes in &data.shard_endurance_bytes {
            out.extend_from_slice(&bytes.to_le_bytes());
        }
        for t in &data.tables {
            out.extend_from_slice(&t.table.to_le_bytes());
            encode_policy(&mut out, t.policy).unwrap();
            out.extend_from_slice(&t.shadow_multiplier.to_le_bytes());
            out.extend_from_slice(&t.cache_capacity.to_le_bytes());
            out.extend_from_slice(&(t.keys.len() as u32).to_le_bytes());
            for &(id, origin) in &t.keys {
                out.extend_from_slice(&id.to_le_bytes());
                out.push(match origin {
                    KeyOrigin::Demand => 0,
                    KeyOrigin::Prefetch => 1,
                });
            }
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    #[test]
    fn version_2_files_still_decode_with_build_time_layout() {
        let data = sample();
        let decoded = decode(&encode_v2(&data)).unwrap();
        assert_eq!(decoded.tick, data.tick);
        assert_eq!(decoded.shard_endurance_bytes, data.shard_endurance_bytes);
        assert_eq!(decoded.tables.len(), data.tables.len());
        for (got, want) in decoded.tables.iter().zip(&data.tables) {
            assert_eq!(got.table, want.table);
            assert_eq!(got.policy, want.policy);
            assert_eq!(got.cache_capacity, want.cache_capacity, "v2 carries the capacity");
            assert_eq!(got.keys, want.keys);
            assert!(got.layout_order.is_empty(), "v2 has no layout: must decode build-time");
        }
    }

    #[test]
    fn prune_keeps_the_newest_k_and_never_fewer_than_two() {
        let dir = tmp_dir("prune");
        let faults = FaultPlan::none();
        for seq in 1..=5u64 {
            let mut data = sample();
            data.tick = seq;
            write_snapshot(&dir, seq, &data, &faults).unwrap();
        }
        // An orphaned temp file must never be touched by GC.
        std::fs::write(dir.join("snapshot-9.bin.tmp"), b"partial").unwrap();

        assert_eq!(prune_snapshots(&dir, 3), 2);
        let (seq, data) = load_latest(&dir).unwrap().unwrap();
        assert_eq!((seq, data.tick), (5, 5), "recovery still prefers the newest");
        assert!(!snapshot_path(&dir, 1).exists());
        assert!(!snapshot_path(&dir, 2).exists());
        assert!(snapshot_path(&dir, 3).exists());
        assert!(dir.join("snapshot-9.bin.tmp").exists(), "temp files are not GC'd");

        // keep=0 clamps to 2: the corrupt-newest fallback needs a
        // predecessor on disk.
        assert_eq!(prune_snapshots(&dir, 0), 1);
        assert!(snapshot_path(&dir, 4).exists());
        assert!(snapshot_path(&dir, 5).exists());
        flip_bit(&snapshot_path(&dir, 5), 20, 1).unwrap();
        let (seq, _) = load_latest(&dir).unwrap().unwrap();
        assert_eq!(seq, 4, "after GC the fallback predecessor survives");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn atomic_install_and_latest_selection() {
        let dir = tmp_dir("install");
        let faults = FaultPlan::none();
        let mut first = sample();
        first.tick = 1;
        let mut second = sample();
        second.tick = 2;
        write_snapshot(&dir, 1, &first, &faults).unwrap();
        write_snapshot(&dir, 2, &second, &faults).unwrap();
        let (seq, data) = load_latest(&dir).unwrap().unwrap();
        assert_eq!((seq, data.tick), (2, 2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flipped_newest_snapshot_falls_back_to_predecessor() {
        let dir = tmp_dir("fallback");
        let faults = FaultPlan::none();
        let mut first = sample();
        first.tick = 1;
        let mut second = sample();
        second.tick = 2;
        write_snapshot(&dir, 1, &first, &faults).unwrap();
        let newest = write_snapshot(&dir, 2, &second, &faults).unwrap();
        flip_bit(&newest, 20, 1).unwrap();
        let (seq, data) = load_latest(&dir).unwrap().unwrap();
        assert_eq!((seq, data.tick), (1, 1), "corrupt newest must be skipped");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_points_leave_no_installed_snapshot() {
        for point in [CrashPoint::SnapshotMidWrite, CrashPoint::SnapshotBeforeRename] {
            let dir = tmp_dir(&format!("crash-{point}"));
            let err = write_snapshot(&dir, 1, &sample(), &FaultPlan::crash_at(point)).unwrap_err();
            assert!(matches!(err, PersistError::InjectedCrash(p) if p == point));
            assert!(load_latest(&dir).unwrap().is_none(), "{point}: nothing installed");
            // The orphaned temp file is there (mid-write: partial;
            // before-rename: complete but never installed).
            assert!(dir.join("snapshot-1.bin.tmp").exists(), "{point}: temp file left behind");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn missing_dir_loads_as_no_snapshot() {
        let dir = std::env::temp_dir().join("bandana-snap-never-created");
        assert!(load_latest(&dir).unwrap().is_none());
    }
}
