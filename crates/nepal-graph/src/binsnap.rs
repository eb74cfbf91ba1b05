//! Binary snapshot persistence: the fast-recovery companion to the text
//! [`journal`](crate::journal).
//!
//! The journal is append-friendly and human-auditable but replays one line
//! at a time; at million-entity scale that dominates restart time. The
//! binary snapshot trades appendability for bulk speed:
//!
//! ```text
//! magic "NEPALB1\n"            8 bytes
//! schema fingerprint           u64 LE (FNV-1a over the schema shape)
//! block*                       [len: u32 LE][crc32: u32 LE][payload]
//! ```
//!
//! Each payload holds one or more *single-class, uid-contiguous runs* of
//! entities (entities are never split across blocks), so blocks decode
//! independently and in parallel. Version payloads preserve the store's
//! keyframe/delta representation verbatim — no materialization on save, no
//! re-encoding on load, and per-class byte accounting round-trips exactly.
//! Version spans are chain-delta-coded (see `encode_version`). The final
//! block is a trailer carrying entity/version totals.
//!
//! Recovery mirrors the journal's lenient contract: a torn tail (truncated
//! header, truncated payload, or a checksum mismatch in the *final* block)
//! drops the incomplete suffix and recovers every complete block before
//! it; a checksum mismatch *followed by* intact blocks is interior
//! corruption and always a hard error.
//!
//! Loading is a streamed pipeline: (1) a serial frame scan finds block
//! boundaries (only the final block's CRC is verified here — it alone
//! decides tear-vs-corruption); (2) worker threads CRC, decode, and
//! schema-validate blocks in any order while (3) the consumer thread
//! applies each decoded block to the store the moment its turn in uid
//! order arrives, overlapping the serial apply with the remaining decode.

use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use nepal_schema::codec::{
    decode_value_bin, encode_value_bin, read_ivarint, read_uvarint, write_ivarint, write_uvarint,
};
use nepal_schema::{ClassId, ClassKind, Schema};

use crate::error::{GraphError, Result};
use crate::interval::{Interval, FOREVER};
use crate::store::{
    stored_version_bytes, value_heap_bytes, TemporalGraph, Uid, Version, VersionData, VALUE_SLOT_BYTES, VERSION_BYTES,
};

/// File magic: 8 bytes, trailing newline so `head -c8` shows it cleanly.
pub const BIN_MAGIC: &[u8; 8] = b"NEPALB1\n";

/// Soft payload cap per block; a block closes at the first entity boundary
/// past this. Small enough for good parallel-decode granularity, large
/// enough that framing overhead vanishes.
const BLOCK_TARGET_BYTES: usize = 256 * 1024;

const BLOCK_ENTITIES: u8 = 0x01;
const BLOCK_TRAILER: u8 = 0x02;

const TAG_FULL: u8 = 0x00;
const TAG_DELTA: u8 = 0x01;

/// Process-wide decode counters: versions decoded from full (keyframe)
/// records vs. backward-delta records, across every binary-snapshot load.
/// Exported as `nepal_binsnap_decoded_{full,delta}` gauges so recovery
/// telemetry shows how much of a restore rode the delta encoding.
static DECODED_FULL: AtomicU64 = AtomicU64::new(0);
static DECODED_DELTA: AtomicU64 = AtomicU64::new(0);

/// `(full, delta)` versions decoded by binary-snapshot loads so far.
pub fn decode_stats() -> (u64, u64) {
    (DECODED_FULL.load(Ordering::Relaxed), DECODED_DELTA.load(Ordering::Relaxed))
}

// ----------------------------------------------------------------------
// CRC32 (IEEE 802.3), table built at compile time — no dependencies.
// ----------------------------------------------------------------------

// Slice-by-8: eight derived tables let the hot loop fold 8 bytes per
// iteration (~5-8x over byte-at-a-time), which matters because every
// recovery CRCs the whole snapshot.
const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            tables[t][i] = (tables[t - 1][i] >> 8) ^ tables[0][(tables[t - 1][i] & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

/// CRC32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes(ch[..4].try_into().unwrap()) ^ c;
        let hi = u32::from_le_bytes(ch[4..].try_into().unwrap());
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ----------------------------------------------------------------------
// Schema fingerprint
// ----------------------------------------------------------------------

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a hash over the schema shape (class paths, kinds, field names and
/// types, in class-id order). Snapshots refuse to load under a schema
/// whose fingerprint differs — class ids and field offsets are positional.
pub fn schema_fingerprint(schema: &Schema) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for raw in 0..schema.num_classes() as u32 {
        let class = ClassId(raw);
        h = fnv1a(h, schema.path_name(class).as_bytes());
        h = fnv1a(h, &[schema.kind(class) as u8, 0xFE]);
        for f in schema.all_fields(class) {
            h = fnv1a(h, f.name.as_bytes());
            h = fnv1a(h, format!(":{:?}:{}:{};", f.ty, f.required, f.unique).as_bytes());
        }
        h = fnv1a(h, &[0xFF]);
    }
    h
}

fn io_err(e: std::io::Error) -> GraphError {
    GraphError::BadClass(format!("snapshot io error: {e}"))
}

fn corrupt(offset: usize, msg: &str) -> GraphError {
    GraphError::BadClass(format!("snapshot corrupt at byte {offset}: {msg}"))
}

// ----------------------------------------------------------------------
// Save
// ----------------------------------------------------------------------

fn flush_block<W: Write>(w: &mut W, payload: &mut Vec<u8>) -> Result<()> {
    if payload.is_empty() {
        return Ok(());
    }
    w.write_all(&(payload.len() as u32).to_le_bytes()).map_err(io_err)?;
    w.write_all(&crc32(payload).to_le_bytes()).map_err(io_err)?;
    w.write_all(payload).map_err(io_err)?;
    payload.clear();
    Ok(())
}

/// Encode one version. Spans are delta-coded against the chain: the first
/// version's start is absolute (zigzag), every later start is the unsigned
/// gap from the previous version's close (usually 0 in a contiguous
/// chain), and the close is the unsigned duration with 0 reserved for an
/// open (`FOREVER`) version — `to > from` makes a real zero duration
/// impossible. Epoch-scale timestamps thus cost 1-3 bytes instead of two
/// 9-10 byte absolutes per version.
fn encode_version(payload: &mut Vec<u8>, v: &Version, prev_to: Option<i64>) {
    match prev_to {
        None => write_ivarint(v.span.from, payload),
        Some(pt) => {
            debug_assert!(v.span.from >= pt, "chain spans must be time-ordered");
            write_uvarint((v.span.from - pt) as u64, payload);
        }
    }
    if v.span.to == FOREVER {
        write_uvarint(0, payload);
    } else {
        debug_assert!(v.span.to > v.span.from);
        write_uvarint((v.span.to - v.span.from) as u64, payload);
    }
    match v.data() {
        VersionData::Full(fields) => {
            payload.push(TAG_FULL);
            write_uvarint(fields.len() as u64, payload);
            for f in fields {
                encode_value_bin(f, payload);
            }
        }
        VersionData::Delta(pairs) => {
            payload.push(TAG_DELTA);
            write_uvarint(pairs.len() as u64, payload);
            for (idx, val) in pairs.iter() {
                write_uvarint(*idx as u64, payload);
                encode_value_bin(val, payload);
            }
        }
    }
}

/// Write the complete graph to `w` in the binary snapshot format.
pub fn save_binary<W: Write>(g: &TemporalGraph, w: &mut W) -> Result<()> {
    let schema = g.schema();
    w.write_all(BIN_MAGIC).map_err(io_err)?;
    w.write_all(&schema_fingerprint(schema).to_le_bytes()).map_err(io_err)?;

    let mut payload: Vec<u8> = Vec::with_capacity(BLOCK_TARGET_BYTES + 4096);
    // (class, is_node, start uid, count) of the open run; None when no
    // block is open.
    let mut run: Option<(ClassId, bool, u64, u64)> = None;
    // Patch slot where the run's entity count lives (fixed-width u32 so it
    // can be back-patched after the run closes).
    let mut count_slot = 0usize;

    let close_run = |payload: &mut Vec<u8>, run: &mut Option<(ClassId, bool, u64, u64)>, count_slot: usize| {
        if let Some((_, _, _, count)) = run.take() {
            payload[count_slot..count_slot + 4].copy_from_slice(&(count as u32).to_le_bytes());
        }
    };

    for raw in 0..g.num_entities() as u64 {
        let uid = Uid(raw);
        let class = g.class_of(uid).expect("dense uids");
        let is_node = g.is_node(uid);
        let extend = matches!(run, Some((c, n, start, count)) if c == class && n == is_node && start + count == raw)
            && payload.len() < BLOCK_TARGET_BYTES;
        if !extend {
            close_run(&mut payload, &mut run, count_slot);
            if payload.len() >= BLOCK_TARGET_BYTES {
                flush_block(w, &mut payload)?;
            }
            payload.push(BLOCK_ENTITIES);
            payload.push(is_node as u8);
            let path = schema.path_name(class);
            write_uvarint(path.len() as u64, &mut payload);
            payload.extend_from_slice(path.as_bytes());
            write_uvarint(raw, &mut payload);
            count_slot = payload.len();
            payload.extend_from_slice(&0u32.to_le_bytes());
            run = Some((class, is_node, raw, 0));
        }
        if !is_node {
            let e = g.edge(uid)?;
            write_uvarint(e.src.0, &mut payload);
            write_uvarint(e.dst.0, &mut payload);
        }
        let versions = g.versions(uid);
        write_uvarint(versions.len() as u64, &mut payload);
        let mut prev_to = None;
        for v in versions {
            encode_version(&mut payload, v, prev_to);
            prev_to = Some(v.span.to);
        }
        if let Some((_, _, _, count)) = &mut run {
            *count += 1;
        }
    }
    close_run(&mut payload, &mut run, count_slot);
    flush_block(w, &mut payload)?;

    // Trailer: totals the loader cross-checks after apply.
    payload.push(BLOCK_TRAILER);
    write_uvarint(g.num_entities() as u64, &mut payload);
    write_uvarint(g.num_versions(), &mut payload);
    flush_block(w, &mut payload)?;
    Ok(())
}

/// Exact size in bytes of the snapshot [`save_binary`] would produce.
pub fn binary_snapshot_bytes(g: &TemporalGraph) -> u64 {
    struct CountWriter(u64);
    impl Write for CountWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0 += buf.len() as u64;
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let mut w = CountWriter(0);
    save_binary(g, &mut w).expect("counting writer cannot fail");
    w.0
}

/// Save to a file path.
pub fn save_binary_to_file(g: &TemporalGraph, path: &std::path::Path) -> Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path).map_err(io_err)?);
    save_binary(g, &mut f)?;
    f.flush().map_err(io_err)
}

// ----------------------------------------------------------------------
// Load
// ----------------------------------------------------------------------

/// A torn (partially written) snapshot tail dropped by lenient recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornSnap {
    /// Byte offset where the tear was detected.
    pub offset: u64,
    /// Why the suffix failed to frame or checksum.
    pub reason: String,
    /// Complete blocks recovered before the tear.
    pub recovered_blocks: usize,
    /// Byte length of the intact block prefix. Unlike the journal, this
    /// prefix is not strictly loadable on its own (the trailer is gone);
    /// re-save the recovered graph to repair.
    pub keep_bytes: u64,
}

struct DecodedEntity {
    uid: u64,
    is_node: bool,
    class: ClassId,
    src: u64,
    dst: u64,
    versions: Vec<Version>,
    stored_heap: u64,
    full_heap: u64,
}

/// Thread count for parallel decode: `NEPAL_THREADS` if set, else the
/// host's available parallelism.
pub fn default_threads() -> usize {
    std::env::var("NEPAL_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Load a snapshot written by [`save_binary`], validating against
/// `schema`. `threads` bounds the parallel-decode worker count (1 =
/// fully serial).
pub fn load_binary(schema: Arc<Schema>, bytes: &[u8], threads: usize) -> Result<TemporalGraph> {
    load_inner(schema, bytes, threads, false).map(|(g, _)| g)
}

/// [`load_binary`] tolerating a torn tail, mirroring
/// [`load_graph_lenient`](crate::journal::load_graph_lenient): every
/// complete block before the tear is recovered and the dropped suffix is
/// reported. Interior corruption (a bad block followed by intact ones) is
/// still a hard error.
pub fn load_binary_lenient(
    schema: Arc<Schema>,
    bytes: &[u8],
    threads: usize,
) -> Result<(TemporalGraph, Option<TornSnap>)> {
    load_inner(schema, bytes, threads, true)
}

/// Load from a file path with [`default_threads`].
pub fn load_binary_from_file(schema: Arc<Schema>, path: &std::path::Path) -> Result<TemporalGraph> {
    let bytes = std::fs::read(path).map_err(io_err)?;
    load_binary(schema, &bytes, default_threads())
}

/// Lenient load from a file path with [`default_threads`].
pub fn load_binary_from_file_lenient(
    schema: Arc<Schema>,
    path: &std::path::Path,
) -> Result<(TemporalGraph, Option<TornSnap>)> {
    let bytes = std::fs::read(path).map_err(io_err)?;
    load_binary_lenient(schema, &bytes, default_threads())
}

fn load_inner(
    schema: Arc<Schema>,
    bytes: &[u8],
    threads: usize,
    lenient: bool,
) -> Result<(TemporalGraph, Option<TornSnap>)> {
    let t0 = std::time::Instant::now();
    // ---- Phase 1: serial frame + CRC scan -----------------------------
    if bytes.len() < 16 {
        return Err(corrupt(0, "shorter than header"));
    }
    if &bytes[..8] != BIN_MAGIC {
        return Err(corrupt(0, "bad magic"));
    }
    let fp = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let want = schema_fingerprint(&schema);
    if fp != want {
        return Err(corrupt(8, &format!("schema fingerprint mismatch (file {fp:#018x}, schema {want:#018x})")));
    }

    let mut pos = 16usize;
    let mut blocks: Vec<(usize, &[u8], u32)> = Vec::new(); // (header offset, payload, expected crc)
    let mut trailer: Option<(u64, u64)> = None;
    let mut torn: Option<TornSnap> = None;
    let tear = |offset: usize, reason: String, recovered: usize| -> Result<Option<TornSnap>> {
        if lenient {
            Ok(Some(TornSnap { offset: offset as u64, reason, recovered_blocks: recovered, keep_bytes: offset as u64 }))
        } else {
            Err(corrupt(offset, &reason))
        }
    };
    while pos < bytes.len() {
        if bytes.len() - pos < 8 {
            torn = tear(pos, "truncated block header".into(), blocks.len())?;
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if bytes.len() - pos - 8 < len {
            torn = tear(pos, "truncated block payload".into(), blocks.len())?;
            break;
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        let at_eof = pos + 8 + len == bytes.len();
        // Only the *final* block's checksum decides tear-vs-corruption, so
        // only it is verified here; interior blocks are CRC'd by the
        // parallel decode workers, where a mismatch is interior corruption
        // by definition (intact blocks follow it) and lenient mode must
        // not mask it.
        if at_eof && crc32(payload) != crc {
            // A torn final write: recoverable.
            torn = tear(pos, "checksum mismatch in final block".into(), blocks.len())?;
            break;
        }
        match payload.first() {
            Some(&BLOCK_ENTITIES) => blocks.push((pos, payload, crc)),
            Some(&BLOCK_TRAILER) => {
                if !at_eof {
                    return Err(corrupt(pos, "trailer block is not last"));
                }
                let mut p = 1usize;
                let ents = read_uvarint(payload, &mut p).map_err(|e| corrupt(pos, &format!("bad trailer: {e}")))?;
                let vers = read_uvarint(payload, &mut p).map_err(|e| corrupt(pos, &format!("bad trailer: {e}")))?;
                trailer = Some((ents, vers));
            }
            Some(other) => return Err(corrupt(pos, &format!("unknown block kind {other:#04x}"))),
            None => return Err(corrupt(pos, "empty block")),
        }
        pos += 8 + len;
    }
    if torn.is_none() && trailer.is_none() {
        torn = tear(pos, "missing trailer".into(), blocks.len())?;
    }

    let timing = std::env::var_os("NEPAL_BINSNAP_TIMING").is_some();
    let t_scan = std::time::Instant::now();
    if timing {
        eprintln!("binsnap: scan {:.1}ms", (t_scan - t0).as_secs_f64() * 1e3);
    }
    // ---- Phases 2+3: parallel decode, streamed uid-order apply --------
    // Workers CRC + decode + validate blocks in any order; the consumer
    // (this thread) applies each block to the store the moment its turn
    // in uid order comes up, overlapping the serial apply with the
    // remaining decode work instead of barriering on the full decode.
    // Peak memory holds only the blocks decoded ahead of the consumer.
    let n = blocks.len();
    let check_and_decode = |header: usize, payload: &[u8], crc: u32| -> Result<Vec<DecodedEntity>> {
        if crc32(payload) != crc {
            return Err(corrupt(header, "block checksum mismatch"));
        }
        decode_block(&schema, header + 8, payload)
    };
    let mut g = TemporalGraph::new(schema.clone());
    let apply_block = |g: &mut TemporalGraph, ents: Vec<DecodedEntity>| -> Result<()> {
        for e in ents {
            g.restore_entity_encoded(
                Uid(e.uid),
                e.is_node,
                e.class,
                Uid(e.src),
                Uid(e.dst),
                e.versions,
                e.stored_heap,
                e.full_heap,
            )?;
        }
        Ok(())
    };
    if threads <= 1 || n <= 1 {
        for &(header, payload, crc) in &blocks {
            apply_block(&mut g, check_and_decode(header, payload, crc)?)?;
        }
    } else {
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<Result<Vec<DecodedEntity>>>>> = Mutex::new((0..n).map(|_| None).collect());
        let ready = Condvar::new();
        let workers = threads.min(n);
        std::thread::scope(|s| -> Result<()> {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let (header, payload, crc) = blocks[i];
                    let r = check_and_decode(header, payload, crc);
                    slots.lock().unwrap()[i] = Some(r);
                    ready.notify_all();
                });
            }
            for i in 0..n {
                let block = {
                    let mut st = slots.lock().unwrap();
                    loop {
                        if let Some(r) = st[i].take() {
                            break r;
                        }
                        st = ready.wait(st).unwrap();
                    }
                }?;
                apply_block(&mut g, block)?;
            }
            Ok(())
        })?;
    }

    let t_apply = std::time::Instant::now();
    if timing {
        eprintln!("binsnap: decode+apply {:.1}ms", (t_apply - t_scan).as_secs_f64() * 1e3);
    }
    g.rebuild_unique_index()?;
    if timing {
        eprintln!("binsnap: index {:.1}ms", t_apply.elapsed().as_secs_f64() * 1e3);
    }
    if let Some((ents, vers)) = trailer {
        if ents != g.num_entities() as u64 || vers != g.num_versions() {
            return Err(corrupt(
                bytes.len(),
                &format!(
                    "trailer totals mismatch: file says {ents} entities / {vers} versions, \
                     restored {} / {}",
                    g.num_entities(),
                    g.num_versions()
                ),
            ));
        }
    }
    Ok((g, torn))
}

fn decode_block(schema: &Schema, off: usize, payload: &[u8]) -> Result<Vec<DecodedEntity>> {
    let bad = |p: usize, msg: &str| corrupt(off + p, msg);
    let mut out = Vec::new();
    let mut p = 0usize;
    // A block holds one or more single-class uid-contiguous runs, each
    // introduced by its own run marker (the first doubles as the block
    // kind byte phase 1 dispatched on).
    while p < payload.len() {
        if payload[p] != BLOCK_ENTITIES {
            return Err(bad(p, "bad run marker"));
        }
        p += 1;
        decode_run(schema, off, payload, &mut p, &mut out)?;
    }
    Ok(out)
}

#[allow(clippy::ptr_arg)]
fn decode_run(
    schema: &Schema,
    off: usize,
    payload: &[u8],
    pos: &mut usize,
    out: &mut Vec<DecodedEntity>,
) -> Result<()> {
    let bad = |p: usize, msg: &str| corrupt(off + p, msg);
    let mut p = *pos;
    let is_node = match payload.get(p) {
        Some(0) => false,
        Some(1) => true,
        _ => return Err(bad(p, "bad is_node flag")),
    };
    p += 1;
    let path_len = read_uvarint(payload, &mut p).map_err(|e| bad(p, &e.to_string()))? as usize;
    if payload.len() - p < path_len {
        return Err(bad(p, "class path overruns block"));
    }
    let path = std::str::from_utf8(&payload[p..p + path_len]).map_err(|_| bad(p, "class path not utf-8"))?;
    p += path_len;
    let class = schema.class_by_name(path).ok_or_else(|| bad(p, &format!("unknown class `{path}`")))?;
    let expected_kind = if is_node { ClassKind::Node } else { ClassKind::Edge };
    if schema.kind(class) != expected_kind {
        return Err(bad(p, "class kind mismatch"));
    }
    let n_fields = schema.all_fields(class).len();
    let start_uid = read_uvarint(payload, &mut p).map_err(|e| bad(p, &e.to_string()))?;
    if payload.len() - p < 4 {
        return Err(bad(p, "missing entity count"));
    }
    let count = u32::from_le_bytes(payload[p..p + 4].try_into().unwrap()) as u64;
    p += 4;

    out.reserve(count as usize);
    let (mut full_seen, mut delta_seen) = (0u64, 0u64);
    for k in 0..count {
        let uid = start_uid + k;
        let (src, dst) = if is_node {
            (0, 0)
        } else {
            let s = read_uvarint(payload, &mut p).map_err(|e| bad(p, &e.to_string()))?;
            let d = read_uvarint(payload, &mut p).map_err(|e| bad(p, &e.to_string()))?;
            (s, d)
        };
        let n_versions = read_uvarint(payload, &mut p).map_err(|e| bad(p, &e.to_string()))? as usize;
        let mut versions: Vec<Version> = Vec::with_capacity(n_versions);
        let mut prev_to: Option<i64> = None;
        for _ in 0..n_versions {
            // Spans are chain-delta-coded (see `encode_version`); the
            // unsigned gap/duration representation makes time-ordering
            // structural — only overflow can produce an invalid span.
            let from = match prev_to {
                None => read_ivarint(payload, &mut p).map_err(|e| bad(p, &e.to_string()))?,
                Some(pt) => {
                    let gap = read_uvarint(payload, &mut p).map_err(|e| bad(p, &e.to_string()))?;
                    pt.checked_add_unsigned(gap)
                        .ok_or_else(|| bad(p, &format!("version start overflows for uid {uid}")))?
                }
            };
            let dur = read_uvarint(payload, &mut p).map_err(|e| bad(p, &e.to_string()))?;
            let to = if dur == 0 {
                FOREVER
            } else {
                from.checked_add_unsigned(dur)
                    .ok_or_else(|| bad(p, &format!("version close overflows for uid {uid}")))?
            };
            if from >= to {
                return Err(bad(p, &format!("version span [{from},{to}) invalid for uid {uid}")));
            }
            prev_to = Some(to);
            let tag = *payload.get(p).ok_or_else(|| bad(p, "missing version tag"))?;
            p += 1;
            let data = match tag {
                TAG_FULL => {
                    full_seen += 1;
                    let nf = read_uvarint(payload, &mut p).map_err(|e| bad(p, &e.to_string()))? as usize;
                    if nf != n_fields {
                        return Err(bad(p, &format!("field count {nf} != schema's {n_fields}")));
                    }
                    let mut fields = Vec::with_capacity(nf);
                    for _ in 0..nf {
                        fields.push(decode_value_bin(payload, &mut p).map_err(|e| bad(p, &e.to_string()))?);
                    }
                    VersionData::Full(fields)
                }
                TAG_DELTA => {
                    delta_seen += 1;
                    let np = read_uvarint(payload, &mut p).map_err(|e| bad(p, &e.to_string()))? as usize;
                    if np >= n_fields.max(1) {
                        // A delta at least as wide as the record would have
                        // been stored full; reject rather than under-account.
                        return Err(bad(p, &format!("delta width {np} >= field count {n_fields}")));
                    }
                    let mut pairs = Vec::with_capacity(np);
                    for _ in 0..np {
                        let idx = read_uvarint(payload, &mut p).map_err(|e| bad(p, &e.to_string()))? as usize;
                        if idx >= n_fields {
                            return Err(bad(p, &format!("delta field index {idx} out of range")));
                        }
                        let val = decode_value_bin(payload, &mut p).map_err(|e| bad(p, &e.to_string()))?;
                        pairs.push((idx as u32, val));
                    }
                    VersionData::Delta(pairs.into_boxed_slice())
                }
                other => return Err(bad(p, &format!("unknown version tag {other:#04x}"))),
            };
            versions.push(Version { data, span: Interval::new(from, to) });
        }
        if versions.last().is_some_and(|v| v.is_delta()) {
            return Err(bad(p, &format!("uid {uid} chain head is not a full version")));
        }
        // Validate every version against the schema and tally the byte
        // accounting — this is the parallel half of what the journal's
        // `restore_entity` does serially, and the hot loop of recovery.
        // A backward delta patches its slots over the next-newer record,
        // so walking newest -> oldest needs only the per-slot heap sizes
        // of the working record (not the values themselves) to price each
        // materialized version — no per-version reconstruction, no value
        // clones. Full versions are validated whole; a delta only
        // re-validates the slots it patches.
        let mut stored_heap = 0u64;
        let mut full_heap = 0u64;
        let layout = schema.all_fields(class);
        let mut slot_heap: Vec<u64> = Vec::new();
        let mut cur_heap = 0u64;
        for i in (0..versions.len()).rev() {
            let v = &versions[i];
            stored_heap += stored_version_bytes(v);
            match v.data() {
                VersionData::Full(fields) => {
                    schema.validate_record(class, fields)?;
                    slot_heap.clear();
                    slot_heap.extend(fields.iter().map(value_heap_bytes));
                    cur_heap = slot_heap.iter().sum();
                }
                VersionData::Delta(pairs) => {
                    for (idx, val) in pairs.iter() {
                        let fd = &layout[*idx as usize];
                        if val.is_null() {
                            if fd.required {
                                return Err(bad(p, &format!("null in required field `{}` of uid {uid}", fd.name)));
                            }
                        } else {
                            schema.data_types().validate_value(&fd.ty, val)?;
                        }
                        let h = value_heap_bytes(val);
                        cur_heap += h;
                        cur_heap -= std::mem::replace(&mut slot_heap[*idx as usize], h);
                    }
                }
            }
            full_heap += VERSION_BYTES + n_fields as u64 * VALUE_SLOT_BYTES + cur_heap;
        }
        out.push(DecodedEntity { uid, is_node, class, src, dst, versions, stored_heap, full_heap });
    }
    DECODED_FULL.fetch_add(full_seen, Ordering::Relaxed);
    DECODED_DELTA.fetch_add(delta_seen, Ordering::Relaxed);
    *pos = p;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nepal_schema::dsl::parse_schema;
    use nepal_schema::Value;

    fn fixture() -> TemporalGraph {
        let s = Arc::new(
            parse_schema(
                r#"
                data geo { region: str }
                node VM { vm_id: int unique, status: str, loc: geo optional }
                node Host { host_id: int unique }
                edge HostedOn { }
                "#,
            )
            .unwrap(),
        );
        let mut g = TemporalGraph::new(s.clone());
        let vm = s.class_by_name("VM").unwrap();
        let host = s.class_by_name("Host").unwrap();
        let ho = s.class_by_name("HostedOn").unwrap();
        let v1 = g
            .insert_node(
                vm,
                vec![Value::Int(1), Value::Str("Green".into()), Value::Composite(vec![Value::Str("east".into())])],
                100,
            )
            .unwrap();
        let h1 = g.insert_node(host, vec![Value::Int(7)], 100).unwrap();
        let e = g.insert_edge(ho, v1, h1, vec![], 110).unwrap();
        // Deep chain so keyframes and deltas both appear on disk.
        for t in 0..40i64 {
            g.update(v1, &[(1, Value::Str(format!("s{t}")))], 200 + t).unwrap();
        }
        g.delete(e, 300).unwrap();
        let v2 = g.insert_node(vm, vec![Value::Int(2), Value::Str("Green".into()), Value::Null], 150).unwrap();
        g.delete(v2, 400).unwrap();
        g
    }

    fn snap(g: &TemporalGraph) -> Vec<u8> {
        let mut buf = Vec::new();
        save_binary(g, &mut buf).unwrap();
        buf
    }

    #[test]
    fn round_trip_preserves_chains_deltas_and_accounting() {
        let g = fixture();
        let buf = snap(&g);
        for threads in [1, 4] {
            let g2 = load_binary(g.schema().clone(), &buf, threads).unwrap();
            assert_eq!(g.num_entities(), g2.num_entities());
            assert_eq!(g.num_versions(), g2.num_versions());
            for raw in 0..g.num_entities() as u64 {
                let uid = Uid(raw);
                assert_eq!(g.class_of(uid), g2.class_of(uid));
                let (va, vb) = (g.versions(uid), g2.versions(uid));
                assert_eq!(va.len(), vb.len());
                for (i, (a, b)) in va.iter().zip(vb).enumerate() {
                    assert_eq!(a.span, b.span);
                    // The on-disk form preserves the exact representation.
                    assert_eq!(a.is_delta(), b.is_delta(), "uid {raw} version {i}");
                    assert_eq!(g.fields_of(uid, i), g2.fields_of(uid, i));
                }
            }
            // Byte accounting round-trips exactly, not just approximately.
            assert_eq!(g.memory_report(), g2.memory_report());
            assert_eq!(g2.memory_report(), g2.memory_recount());
        }
    }

    #[test]
    fn wrong_schema_fingerprint_is_rejected() {
        let g = fixture();
        let buf = snap(&g);
        let other = Arc::new(parse_schema("node VM { vm_id: int unique, status: str }").unwrap());
        let err = load_binary(other, &buf, 1).map(|_| ()).unwrap_err().to_string();
        assert!(err.contains("fingerprint"), "{err}");
    }

    #[test]
    fn torn_tail_recovers_complete_prefix() {
        let g = fixture();
        let buf = snap(&g);
        // Cut mid-trailer and mid-entity-block: strict fails, lenient
        // recovers every complete block.
        for cut in [1usize, 9, 24] {
            let torn_bytes = &buf[..buf.len() - cut];
            assert!(load_binary(g.schema().clone(), torn_bytes, 1).is_err());
            let (g2, torn) = load_binary_lenient(g.schema().clone(), torn_bytes, 2).unwrap();
            let torn = torn.expect("tear must be reported");
            assert!(torn.keep_bytes <= torn_bytes.len() as u64);
            assert!(g2.num_entities() <= g.num_entities());
            for raw in 0..g2.num_entities() as u64 {
                let uid = Uid(raw);
                assert_eq!(g.class_of(uid), g2.class_of(uid));
                assert_eq!(g.versions(uid).len(), g2.versions(uid).len());
            }
            assert_eq!(g2.memory_report(), g2.memory_recount());
        }
    }

    #[test]
    fn interior_corruption_is_always_rejected() {
        let g = fixture();
        let mut buf = snap(&g);
        // Flip a byte inside the FIRST block's payload (a later intact
        // block follows, so this must be a hard error in both modes).
        let first_len = u32::from_le_bytes(buf[16..20].try_into().unwrap()) as usize;
        assert!(16 + 8 + first_len < buf.len(), "fixture must span multiple blocks");
        buf[16 + 8 + first_len / 2] ^= 0xA5;
        assert!(load_binary(g.schema().clone(), &buf, 1).is_err());
        let err = load_binary_lenient(g.schema().clone(), &buf, 1).map(|_| ()).unwrap_err().to_string();
        assert!(err.contains("checksum"), "{err}");
    }

    #[test]
    fn unique_index_rebuilt_after_load() {
        let g = fixture();
        let buf = snap(&g);
        let mut g2 = load_binary(g.schema().clone(), &buf, 1).unwrap();
        let vm = g.schema().class_by_name("VM").unwrap();
        // vm_id=1 is still alive → duplicate rejected; vm_id=2 died → free.
        assert!(g2.insert_node(vm, vec![Value::Int(1), Value::Str("x".into()), Value::Null], 500).is_err());
        assert!(g2.insert_node(vm, vec![Value::Int(2), Value::Str("x".into()), Value::Null], 500).is_ok());
    }

    #[test]
    fn file_round_trip() {
        let g = fixture();
        let dir = std::env::temp_dir().join(format!("nepal-binsnap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("graph.nbs");
        save_binary_to_file(&g, &path).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), binary_snapshot_bytes(&g));
        let g2 = load_binary_from_file(g.schema().clone(), &path).unwrap();
        assert_eq!(g.num_versions(), g2.num_versions());
        std::fs::remove_dir_all(&dir).ok();
    }
}
