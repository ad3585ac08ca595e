//! Versioned, checksummed binary format for relations and index snapshots.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic    8 bytes   "DRTOPK\x00\x01" (kind byte + version byte at the end)
//! length   8 bytes   payload byte count
//! payload  ...       section-encoded body
//! crc32    4 bytes   CRC-32 (IEEE) over the payload
//! ```
//!
//! The payload is a sequence of length-prefixed primitive vectors; the
//! decoder validates every length against the remaining buffer, so
//! truncated or bit-flipped files fail loudly instead of producing a
//! corrupt index.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use drtopk_common::Relation;
use drtopk_core::{DualLayerIndex, DynamicState, IndexSnapshot};
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::Path;

const MAGIC_RELATION: &[u8; 8] = b"DRTOPK\x01\x01";
// Index/dynamic payload version 2: appends the traversal-order node
// permutation after the zero-layer section.
const MAGIC_INDEX: &[u8; 8] = b"DRTOPK\x02\x02";
const MAGIC_DYNAMIC: &[u8; 8] = b"DRTOPK\x03\x02";

/// Failpoint: the data an atomic write is about to place in its temp file.
/// Mangling models a crash mid-write — the temp file holds torn bytes and
/// the rename never happens, so the destination is untouched.
pub const FP_WRITE_DATA: &str = "storage::write_atomic::data";
/// Failpoint: the rename step of an atomic write.
pub const FP_WRITE_RENAME: &str = "storage::write_atomic::rename";
/// Failpoint: the read syscall of any storage load. Firing models EIO.
pub const FP_READ_IO: &str = "storage::read::io";
/// Failpoint: bytes just read from disk. Mangling models at-rest
/// corruption — the damaged bytes flow on to the checksumming decoder.
pub const FP_READ_DATA: &str = "storage::read::data";

/// Errors raised while reading or writing index files.
#[derive(Debug)]
pub enum FormatError {
    Io(std::io::Error),
    /// Wrong magic bytes or version.
    BadMagic,
    /// Payload shorter/longer than the header claims.
    Truncated,
    /// CRC mismatch: the file is corrupt.
    Checksum {
        expected: u32,
        got: u32,
    },
    /// Structurally invalid content (e.g. layer partition broken).
    Invalid(String),
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::Io(e) => write!(f, "io error: {e}"),
            FormatError::BadMagic => write!(f, "not a drtopk file (bad magic/version)"),
            FormatError::Truncated => write!(f, "file truncated"),
            FormatError::Checksum { expected, got } => {
                write!(
                    f,
                    "checksum mismatch: expected {expected:08x}, got {got:08x}"
                )
            }
            FormatError::Invalid(msg) => write!(f, "invalid content: {msg}"),
        }
    }
}

impl std::error::Error for FormatError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FormatError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FormatError {
    fn from(e: std::io::Error) -> Self {
        FormatError::Io(e)
    }
}

impl From<drtopk_failpoints::Injected> for FormatError {
    fn from(e: drtopk_failpoints::Injected) -> Self {
        FormatError::Io(std::io::Error::other(e))
    }
}

impl From<FormatError> for drtopk_common::Error {
    fn from(e: FormatError) -> Self {
        use drtopk_common::Error;
        match e {
            FormatError::Io(io) => Error::Io(io.to_string()),
            FormatError::Invalid(msg) => Error::Invalid(msg),
            // BadMagic / Truncated / Checksum all mean the bytes on disk
            // cannot be trusted; their Display carries the specifics.
            other => Error::Corrupt(other.to_string()),
        }
    }
}

/// CRC-32 (IEEE 802.3); the lookup table is built once per process.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        const POLY: u32 = 0xEDB8_8320;
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        table
    });
    let mut crc = !0u32;
    for &b in data {
        crc = table[((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

fn put_f64s(buf: &mut BytesMut, v: &[f64]) {
    buf.put_u64_le(v.len() as u64);
    for &x in v {
        buf.put_f64_le(x);
    }
}

fn put_u32s(buf: &mut BytesMut, v: &[u32]) {
    buf.put_u64_le(v.len() as u64);
    for &x in v {
        buf.put_u32_le(x);
    }
}

fn put_u64s(buf: &mut BytesMut, v: &[u64]) {
    buf.put_u64_le(v.len() as u64);
    for &x in v {
        buf.put_u64_le(x);
    }
}

fn get_len(buf: &mut Bytes, elem: usize) -> Result<usize, FormatError> {
    if buf.remaining() < 8 {
        return Err(FormatError::Truncated);
    }
    let len = buf.get_u64_le() as usize;
    if buf.remaining() < len.checked_mul(elem).ok_or(FormatError::Truncated)? {
        return Err(FormatError::Truncated);
    }
    Ok(len)
}

fn get_f64s(buf: &mut Bytes) -> Result<Vec<f64>, FormatError> {
    let len = get_len(buf, 8)?;
    let mut v = Vec::with_capacity(len);
    for _ in 0..len {
        let x = buf.get_f64_le();
        if x.is_nan() {
            return Err(FormatError::Invalid("NaN payload value".into()));
        }
        v.push(x);
    }
    Ok(v)
}

fn get_u32s(buf: &mut Bytes) -> Result<Vec<u32>, FormatError> {
    let len = get_len(buf, 4)?;
    let mut v = Vec::with_capacity(len);
    for _ in 0..len {
        v.push(buf.get_u32_le());
    }
    Ok(v)
}

fn get_u64s(buf: &mut Bytes) -> Result<Vec<u64>, FormatError> {
    let len = get_len(buf, 8)?;
    let mut v = Vec::with_capacity(len);
    for _ in 0..len {
        v.push(buf.get_u64_le());
    }
    Ok(v)
}

fn frame(magic: &[u8; 8], payload: BytesMut) -> BytesMut {
    let mut out = BytesMut::with_capacity(payload.len() + 20);
    out.put_slice(magic);
    out.put_u64_le(payload.len() as u64);
    let crc = crc32(&payload);
    out.put_slice(&payload);
    out.put_u32_le(crc);
    out
}

fn unframe(magic: &[u8; 8], data: &[u8]) -> Result<Bytes, FormatError> {
    if data.len() < 20 {
        return Err(FormatError::Truncated);
    }
    if &data[..8] != magic {
        return Err(FormatError::BadMagic);
    }
    let len = u64::from_le_bytes(data[8..16].try_into().unwrap()) as usize;
    // checked_add guards a forged length header near usize::MAX from
    // wrapping (release) or panicking (debug) in the comparison below.
    let framed = len.checked_add(20).ok_or(FormatError::Truncated)?;
    if data.len() != framed {
        return Err(FormatError::Truncated);
    }
    let payload = &data[16..16 + len];
    let expected = u32::from_le_bytes(data[16 + len..].try_into().unwrap());
    let got = crc32(payload);
    if expected != got {
        return Err(FormatError::Checksum { expected, got });
    }
    Ok(Bytes::copy_from_slice(payload))
}

/// Serializes a relation to bytes.
pub fn relation_to_bytes(rel: &Relation) -> Vec<u8> {
    let mut payload = BytesMut::new();
    payload.put_u64_le(rel.dims() as u64);
    put_f64s(&mut payload, rel.flat());
    frame(MAGIC_RELATION, payload).to_vec()
}

/// Deserializes a relation from bytes.
pub fn relation_from_bytes(data: &[u8]) -> Result<Relation, FormatError> {
    let mut buf = unframe(MAGIC_RELATION, data)?;
    if buf.remaining() < 8 {
        return Err(FormatError::Truncated);
    }
    let dims = buf.get_u64_le() as usize;
    if dims == 0 {
        return Err(FormatError::Invalid("zero dimensionality".into()));
    }
    let flat = get_f64s(&mut buf)?;
    if flat.len() % dims != 0 {
        return Err(FormatError::Invalid(
            "payload not a multiple of dims".into(),
        ));
    }
    // Checked constructor: a file that passes CRC can still carry
    // out-of-range or non-finite coordinates (e.g. written by another
    // tool); reject those instead of handing them to the traversal.
    Relation::from_flat(dims, flat).map_err(|e| FormatError::Invalid(e.to_string()))
}

/// Serializes an index snapshot to bytes.
pub fn index_to_bytes(snap: &IndexSnapshot) -> Vec<u8> {
    let mut p = BytesMut::new();
    encode_index_payload(snap, &mut p);
    frame(MAGIC_INDEX, p).to_vec()
}

fn encode_index_payload(snap: &IndexSnapshot, p: &mut BytesMut) {
    p.put_u64_le(snap.dims as u64);
    p.put_u8(u8::from(snap.split_fine));
    p.put_u64_le(snap.max_fine_layers as u64);
    put_f64s(p, &snap.data);
    // Fine layers.
    p.put_u64_le(snap.fine_layers.len() as u64);
    for (ci, fi, members) in &snap.fine_layers {
        p.put_u32_le(*ci);
        p.put_u32_le(*fi);
        put_u32s(p, members);
    }
    // Edges.
    for edges in [&snap.forall_edges, &snap.exists_edges] {
        p.put_u64_le(edges.len() as u64);
        for &(s, t) in edges.iter() {
            p.put_u32_le(s);
            p.put_u32_le(t);
        }
    }
    put_f64s(p, &snap.pseudo);
    p.put_u64_le(snap.pseudo_fine.len() as u64);
    for group in &snap.pseudo_fine {
        put_u32s(p, group);
    }
    match &snap.zero2d_chain {
        Some(chain) => {
            p.put_u8(1);
            put_u32s(p, chain);
            put_f64s(p, &snap.zero2d_breakpoints);
        }
        None => p.put_u8(0),
    }
    put_u32s(p, &snap.node_perm);
}

/// Deserializes an index snapshot from bytes.
pub fn index_from_bytes(data: &[u8]) -> Result<IndexSnapshot, FormatError> {
    let mut b = unframe(MAGIC_INDEX, data)?;
    let snap = decode_index_payload(&mut b)?;
    if b.has_remaining() {
        return Err(FormatError::Invalid("trailing bytes".into()));
    }
    Ok(snap)
}

fn decode_index_payload(b: &mut Bytes) -> Result<IndexSnapshot, FormatError> {
    if b.remaining() < 17 {
        return Err(FormatError::Truncated);
    }
    let dims = b.get_u64_le() as usize;
    let split_fine = b.get_u8() != 0;
    let max_fine_layers = b.get_u64_le() as usize;
    let payload = get_f64s(b)?;
    let n_fine = get_len(b, 8)?;
    let mut fine_layers = Vec::with_capacity(n_fine);
    for _ in 0..n_fine {
        if b.remaining() < 8 {
            return Err(FormatError::Truncated);
        }
        let ci = b.get_u32_le();
        let fi = b.get_u32_le();
        let members = get_u32s(b)?;
        fine_layers.push((ci, fi, members));
    }
    let read_edges = |b: &mut Bytes| -> Result<Vec<(u32, u32)>, FormatError> {
        let len = get_len(b, 8)?;
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push((b.get_u32_le(), b.get_u32_le()));
        }
        Ok(v)
    };
    let forall_edges = read_edges(b)?;
    let exists_edges = read_edges(b)?;
    let pseudo = get_f64s(b)?;
    let n_groups = get_len(b, 8)?;
    let mut pseudo_fine = Vec::with_capacity(n_groups);
    for _ in 0..n_groups {
        pseudo_fine.push(get_u32s(b)?);
    }
    if b.remaining() < 1 {
        return Err(FormatError::Truncated);
    }
    let (zero2d_chain, zero2d_breakpoints) = if b.get_u8() != 0 {
        (Some(get_u32s(b)?), get_f64s(b)?)
    } else {
        (None, Vec::new())
    };
    let node_perm = get_u32s(b)?;
    Ok(IndexSnapshot {
        dims,
        data: payload,
        fine_layers,
        forall_edges,
        exists_edges,
        pseudo,
        pseudo_fine,
        zero2d_chain,
        zero2d_breakpoints,
        split_fine,
        max_fine_layers,
        node_perm,
    })
}

/// Serializes a dynamic-index state (plus its WAL generation) to bytes.
pub fn dynamic_state_to_bytes(state: &DynamicState, generation: u64) -> Vec<u8> {
    let mut p = BytesMut::new();
    p.put_u64_le(generation);
    encode_index_payload(&state.index, &mut p);
    put_u64s(&mut p, &state.indexed_handles);
    p.put_u64_le(state.buffer.len() as u64);
    for (h, row) in &state.buffer {
        p.put_u64_le(*h);
        put_f64s(&mut p, row);
    }
    put_u64s(&mut p, &state.tombstones);
    p.put_u64_le(state.next_handle);
    frame(MAGIC_DYNAMIC, p).to_vec()
}

/// Deserializes a dynamic-index state and its WAL generation from bytes.
///
/// Byte-level checks only (framing, CRC, section lengths); the semantic
/// invariants are enforced by `DynamicIndex::from_state` on load.
pub fn dynamic_state_from_bytes(data: &[u8]) -> Result<(DynamicState, u64), FormatError> {
    let mut b = unframe(MAGIC_DYNAMIC, data)?;
    if b.remaining() < 8 {
        return Err(FormatError::Truncated);
    }
    let generation = b.get_u64_le();
    let index = decode_index_payload(&mut b)?;
    let indexed_handles = get_u64s(&mut b)?;
    let n_buf = get_len(&mut b, 8)?;
    let mut buffer = Vec::with_capacity(n_buf);
    for _ in 0..n_buf {
        if b.remaining() < 8 {
            return Err(FormatError::Truncated);
        }
        let h = b.get_u64_le();
        buffer.push((h, get_f64s(&mut b)?));
    }
    let tombstones = get_u64s(&mut b)?;
    if b.remaining() != 8 {
        return Err(FormatError::Truncated);
    }
    let next_handle = b.get_u64_le();
    Ok((
        DynamicState {
            index,
            indexed_handles,
            buffer,
            tombstones,
            next_handle,
        },
        generation,
    ))
}

/// Writes a relation to `path` atomically (temp file + rename).
pub fn save_relation(rel: &Relation, path: &Path) -> Result<(), FormatError> {
    write_atomic(path, relation_to_bytes(rel))
}

/// Reads a relation from `path`.
pub fn load_relation(path: &Path) -> Result<Relation, FormatError> {
    relation_from_bytes(&read_file(path)?)
}

/// Writes a built index to `path` atomically.
pub fn save_index(idx: &DualLayerIndex, path: &Path) -> Result<(), FormatError> {
    write_atomic(path, index_to_bytes(&idx.to_snapshot()))
}

/// Reads and reconstructs an index from `path`, validating structure.
pub fn load_index(path: &Path) -> Result<DualLayerIndex, FormatError> {
    let snap = index_from_bytes(&read_file(path)?)?;
    DualLayerIndex::from_snapshot(&snap).map_err(|e| match e {
        drtopk_common::Error::Invalid(msg) => FormatError::Invalid(msg),
        other => FormatError::Invalid(other.to_string()),
    })
}

/// Writes a dynamic-index state to `path` atomically.
pub fn save_dynamic_state(
    state: &DynamicState,
    generation: u64,
    path: &Path,
) -> Result<(), FormatError> {
    write_atomic(path, dynamic_state_to_bytes(state, generation))
}

/// Reads a dynamic-index state (and its WAL generation) from `path`.
pub fn load_dynamic_state(path: &Path) -> Result<(DynamicState, u64), FormatError> {
    dynamic_state_from_bytes(&read_file(path)?)
}

/// Reads a whole file, passing through the read-side failpoints so chaos
/// tests can model I/O errors and at-rest corruption.
pub(crate) fn read_file(path: &Path) -> Result<Vec<u8>, FormatError> {
    drtopk_failpoints::hit(FP_READ_IO)?;
    let mut data = fs::read(path)?;
    // A fired read-side mangle models at-rest corruption: the damaged
    // bytes flow on to the checksumming decoder rather than erroring here.
    let _ = drtopk_failpoints::mangle(FP_READ_DATA, &mut data);
    Ok(data)
}

/// Writes `data` to `path` atomically: temp file, fsync, rename. Readers
/// either see the old content or the complete new content, never a mix.
pub(crate) fn write_atomic(path: &Path, mut data: Vec<u8>) -> Result<(), FormatError> {
    let mut tmp_name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    // A fired mangle models a crash mid-write: the torn bytes land in the
    // temp file and the rename below never runs, leaving `path` untouched.
    let fault = drtopk_failpoints::mangle(FP_WRITE_DATA, &mut data);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&data)?;
        f.sync_all()?;
    }
    fault?;
    drtopk_failpoints::hit(FP_WRITE_RENAME)?;
    fs::rename(&tmp, path)?;
    // Make the rename itself durable; best-effort on filesystems that
    // refuse to fsync directories.
    if let Some(parent) = path.parent() {
        if let Ok(d) = fs::File::open(parent) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtopk_common::{Distribution, Weights, WorkloadSpec};
    use drtopk_core::DlOptions;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn relation_roundtrip() {
        let rel = WorkloadSpec::new(Distribution::AntiCorrelated, 4, 200, 9).generate();
        let bytes = relation_to_bytes(&rel);
        let back = relation_from_bytes(&bytes).unwrap();
        assert_eq!(back, rel);
    }

    #[test]
    fn relation_decode_rejects_out_of_range_values() {
        // A well-framed file (valid CRC) whose payload carries coordinates
        // the engine's invariants forbid must fail to decode.
        for bad in [-0.5, 1.5, f64::NAN, f64::INFINITY] {
            let rel = Relation::from_flat_unchecked(2, vec![0.2, 0.8, bad, 0.5]);
            let bytes = relation_to_bytes(&rel);
            assert!(
                matches!(relation_from_bytes(&bytes), Err(FormatError::Invalid(_))),
                "value {bad} must be rejected"
            );
        }
    }

    #[test]
    fn index_roundtrip_bytes() {
        for d in [2, 3] {
            let rel = WorkloadSpec::new(Distribution::Independent, d, 150, 4).generate();
            for opts in [DlOptions::dl(), DlOptions::dl_plus()] {
                let idx = DualLayerIndex::build(&rel, opts);
                let snap = idx.to_snapshot();
                let bytes = index_to_bytes(&snap);
                let back = index_from_bytes(&bytes).unwrap();
                assert_eq!(back, snap);
                let rebuilt = DualLayerIndex::from_snapshot(&back).unwrap();
                let w = Weights::uniform(d);
                assert_eq!(rebuilt.topk(&w, 10).ids, idx.topk(&w, 10).ids);
            }
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("drtopk_storage_test");
        std::fs::create_dir_all(&dir).unwrap();
        let rel = WorkloadSpec::new(Distribution::Independent, 3, 120, 6).generate();
        let idx = DualLayerIndex::build(&rel, DlOptions::dl_plus());

        let rpath = dir.join("rel.drt");
        save_relation(&rel, &rpath).unwrap();
        assert_eq!(load_relation(&rpath).unwrap(), rel);

        let ipath = dir.join("index.drt");
        save_index(&idx, &ipath).unwrap();
        let back = load_index(&ipath).unwrap();
        let w = Weights::uniform(3);
        assert_eq!(back.topk(&w, 15).ids, idx.topk(&w, 15).ids);
        assert_eq!(back.topk(&w, 15).cost, idx.topk(&w, 15).cost);
    }

    #[test]
    fn detects_corruption() {
        let rel = WorkloadSpec::new(Distribution::Independent, 2, 50, 2).generate();
        let mut bytes = relation_to_bytes(&rel);
        // Flip a payload bit.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        assert!(matches!(
            relation_from_bytes(&bytes),
            Err(FormatError::Checksum { .. })
        ));
        // Truncate.
        let bytes2 = relation_to_bytes(&rel);
        assert!(matches!(
            relation_from_bytes(&bytes2[..bytes2.len() - 3]),
            Err(FormatError::Truncated)
        ));
        // Wrong magic.
        let mut bytes3 = relation_to_bytes(&rel);
        bytes3[0] = b'X';
        assert!(matches!(
            relation_from_bytes(&bytes3),
            Err(FormatError::BadMagic)
        ));
    }

    #[test]
    fn rejects_semantic_garbage() {
        let rel = WorkloadSpec::new(Distribution::Independent, 2, 40, 3).generate();
        let idx = DualLayerIndex::build(&rel, DlOptions::dl());
        let mut snap = idx.to_snapshot();
        snap.forall_edges.push((40_000, 2));
        let bytes = index_to_bytes(&snap);
        // Byte-level decode succeeds; reconstruction must reject it.
        let decoded = index_from_bytes(&bytes).unwrap();
        assert!(DualLayerIndex::from_snapshot(&decoded).is_err());
    }
}
