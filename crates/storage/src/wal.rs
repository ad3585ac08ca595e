//! Write-ahead log for dynamic-index mutations.
//!
//! One log file per snapshot generation. Layout (integers little-endian):
//!
//! ```text
//! header   16 bytes  "DRTOPKW\x01" magic + generation u64
//! record   ...       len u32 | crc32 u32 | payload (repeated)
//! ```
//!
//! Each record is independently checksummed, so a crash mid-append leaves
//! a *torn tail* that the reader detects and stops at: replay recovers the
//! longest valid prefix, never an interior subset. Payloads are tagged
//! operations — insert (handle + row) or delete (handle).

use crate::format::{crc32, FormatError};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use drtopk_core::Handle;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

const WAL_MAGIC: &[u8; 8] = b"DRTOPKW\x01";
const HEADER_LEN: u64 = 16;

/// Upper bound on a single record's payload. A torn length field can
/// claim anything; capping it keeps the reader from trusting garbage.
pub const MAX_WAL_RECORD: usize = 1 << 20;

/// Failpoint: WAL file creation (header write). Firing models a crash
/// before the new log exists.
pub const FP_WAL_CREATE: &str = "wal::create";
/// Failpoint: an append, before any byte is written. Firing models an I/O
/// error with nothing on disk.
pub const FP_WAL_APPEND: &str = "wal::append";
/// Failpoint: the encoded record bytes of an append. Mangling models a
/// crash mid-append — the torn bytes land on disk and the append errors.
pub const FP_WAL_APPEND_DATA: &str = "wal::append::data";
/// Failpoint: the fsync after an append. Firing models a sync failure
/// after the bytes (durably or not) left the process.
pub const FP_WAL_SYNC: &str = "wal::sync";

/// One logged mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// An insert, with the handle the store assigned to it.
    Insert {
        /// The assigned handle.
        handle: Handle,
        /// The tuple's attribute values.
        row: Vec<f64>,
    },
    /// A delete of a live handle.
    Delete {
        /// The deleted handle.
        handle: Handle,
    },
}

const TAG_INSERT: u8 = 1;
const TAG_DELETE: u8 = 2;

fn encode_payload(rec: &WalRecord) -> Vec<u8> {
    let mut p = BytesMut::new();
    match rec {
        WalRecord::Insert { handle, row } => {
            p.put_u8(TAG_INSERT);
            p.put_u64_le(*handle);
            p.put_u64_le(row.len() as u64);
            for &x in row {
                p.put_f64_le(x);
            }
        }
        WalRecord::Delete { handle } => {
            p.put_u8(TAG_DELETE);
            p.put_u64_le(*handle);
        }
    }
    p.to_vec()
}

fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    let mut b = Bytes::copy_from_slice(payload);
    if b.remaining() < 9 {
        return None;
    }
    let tag = b.get_u8();
    let handle = b.get_u64_le();
    match tag {
        TAG_INSERT => {
            if b.remaining() < 8 {
                return None;
            }
            let len = b.get_u64_le() as usize;
            if b.remaining() != len.checked_mul(8)? {
                return None;
            }
            let mut row = Vec::with_capacity(len);
            for _ in 0..len {
                row.push(b.get_f64_le());
            }
            Some(WalRecord::Insert { handle, row })
        }
        TAG_DELETE => {
            if b.has_remaining() {
                return None;
            }
            Some(WalRecord::Delete { handle })
        }
        _ => None,
    }
}

/// Appends checksummed records to a generation's log file.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    generation: u64,
}

impl WalWriter {
    /// Creates (truncating) the log for `generation` and writes its header.
    pub fn create(path: &Path, generation: u64) -> Result<WalWriter, FormatError> {
        drtopk_failpoints::hit(FP_WAL_CREATE)?;
        let mut file = File::create(path)?;
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(WAL_MAGIC);
        header.extend_from_slice(&generation.to_le_bytes());
        file.write_all(&header)?;
        file.sync_all()?;
        Ok(WalWriter { file, generation })
    }

    /// Reopens an existing log for appending, first truncating it to
    /// `valid_bytes` — the byte offset [`read_wal`] reported after the
    /// last valid record — so a torn tail is physically discarded.
    pub fn open_append(
        path: &Path,
        generation: u64,
        valid_bytes: u64,
    ) -> Result<WalWriter, FormatError> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        if file.metadata()?.len() < HEADER_LEN {
            // Torn header (crash during create): set_len would zero-pad the
            // partial bytes into a bogus header, so rewrite it whole.
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            let mut header = Vec::with_capacity(HEADER_LEN as usize);
            header.extend_from_slice(WAL_MAGIC);
            header.extend_from_slice(&generation.to_le_bytes());
            file.write_all(&header)?;
        } else {
            file.set_len(valid_bytes.max(HEADER_LEN))?;
        }
        file.sync_all()?;
        file.seek(SeekFrom::End(0))?;
        Ok(WalWriter { file, generation })
    }

    /// The generation this log belongs to.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Appends one record (no fsync; see [`WalWriter::sync`]).
    ///
    /// On error the file may hold a torn partial record at its tail —
    /// exactly the state a crash mid-append leaves — which [`read_wal`]
    /// detects and [`WalWriter::open_append`] truncates.
    pub fn append(&mut self, rec: &WalRecord) -> Result<(), FormatError> {
        drtopk_failpoints::hit(FP_WAL_APPEND)?;
        let payload = encode_payload(rec);
        debug_assert!(payload.len() <= MAX_WAL_RECORD);
        let mut framed = Vec::with_capacity(payload.len() + 8);
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(&crc32(&payload).to_le_bytes());
        framed.extend_from_slice(&payload);
        // A fired mangle tears the record *and* reports failure, like a
        // crash mid-write: the damaged bytes still land on disk.
        let fault = drtopk_failpoints::mangle(FP_WAL_APPEND_DATA, &mut framed);
        self.file.write_all(&framed)?;
        fault?;
        Ok(())
    }

    /// Forces appended records to stable storage.
    pub fn sync(&mut self) -> Result<(), FormatError> {
        drtopk_failpoints::hit(FP_WAL_SYNC)?;
        self.file.sync_all()?;
        Ok(())
    }
}

/// The result of scanning a log file.
#[derive(Debug, Clone, PartialEq)]
pub struct WalReplay {
    /// Decoded records, in append order (the longest valid prefix).
    pub records: Vec<WalRecord>,
    /// Whether trailing bytes after the last valid record were discarded
    /// (a torn append, or at-rest corruption from that point on).
    pub torn: bool,
    /// Byte offset just past the last valid record — pass to
    /// [`WalWriter::open_append`] to drop the torn tail.
    pub valid_bytes: u64,
}

/// Reads a generation's log, stopping at the first invalid record.
///
/// A file shorter than its header is reported as empty-and-torn (a crash
/// during creation): recoverable when it is the newest log, since records
/// are only ever acknowledged after a complete header exists. A present
/// header with the wrong magic or generation is an error — that log can
/// not be trusted at all.
pub fn read_wal(path: &Path, expected_generation: u64) -> Result<WalReplay, FormatError> {
    let data = crate::format::read_file(path)?;
    if data.len() < HEADER_LEN as usize {
        return Ok(WalReplay {
            records: Vec::new(),
            torn: true,
            valid_bytes: HEADER_LEN,
        });
    }
    if &data[..8] != WAL_MAGIC {
        return Err(FormatError::BadMagic);
    }
    let generation = u64::from_le_bytes(data[8..16].try_into().unwrap());
    if generation != expected_generation {
        return Err(FormatError::Invalid(format!(
            "wal header generation {generation} does not match file name generation \
             {expected_generation}"
        )));
    }
    let mut records = Vec::new();
    let mut pos = HEADER_LEN as usize;
    let mut torn = false;
    while pos < data.len() {
        let rest = &data[pos..];
        if rest.len() < 8 {
            torn = true;
            break;
        }
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        if len == 0 || len > MAX_WAL_RECORD || rest.len() - 8 < len {
            torn = true;
            break;
        }
        let expected_crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        let payload = &rest[8..8 + len];
        if crc32(payload) != expected_crc {
            torn = true;
            break;
        }
        let Some(rec) = decode_payload(payload) else {
            torn = true;
            break;
        };
        records.push(rec);
        pos += 8 + len;
    }
    Ok(WalReplay {
        records,
        torn,
        valid_bytes: pos as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("drtopk_wal_{name}"));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Insert {
                handle: 7,
                row: vec![0.25, 0.5, 0.75],
            },
            WalRecord::Delete { handle: 3 },
            WalRecord::Insert {
                handle: 8,
                row: vec![0.1, 0.9, 0.4],
            },
        ]
    }

    #[test]
    fn roundtrip_preserves_records() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, 5).unwrap();
        for rec in sample_records() {
            w.append(&rec).unwrap();
        }
        w.sync().unwrap();
        let replay = read_wal(&path, 5).unwrap();
        assert_eq!(replay.records, sample_records());
        assert!(!replay.torn);
        assert_eq!(replay.valid_bytes, fs::metadata(&path).unwrap().len());
    }

    #[test]
    fn torn_tail_at_every_byte_replays_longest_valid_prefix() {
        let dir = tmpdir("torn");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, 1).unwrap();
        for rec in sample_records() {
            w.append(&rec).unwrap();
        }
        w.sync().unwrap();
        let full = fs::read(&path).unwrap();

        // Record boundaries: offsets where a truncation is *clean*.
        let mut boundaries = vec![HEADER_LEN as usize];
        let mut pos = HEADER_LEN as usize;
        while pos < full.len() {
            let len = u32::from_le_bytes(full[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 8 + len;
            boundaries.push(pos);
        }

        for cut in 0..full.len() {
            let torn_path = dir.join(format!("torn_{cut}.log"));
            fs::write(&torn_path, &full[..cut]).unwrap();
            if cut < HEADER_LEN as usize {
                let r = read_wal(&torn_path, 1).unwrap();
                assert!(r.torn);
                assert!(r.records.is_empty(), "cut {cut}: header torn, no records");
                continue;
            }
            let replay = read_wal(&torn_path, 1).unwrap();
            // How many full records survive the cut?
            let complete = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(
                replay.records,
                &sample_records()[..complete],
                "cut at byte {cut}"
            );
            let clean = boundaries.contains(&cut);
            assert_eq!(replay.torn, !clean, "cut at byte {cut}");
            // Reopening truncates the torn tail and appends cleanly after.
            let mut w2 = WalWriter::open_append(&torn_path, 1, replay.valid_bytes).unwrap();
            w2.append(&WalRecord::Delete { handle: 99 }).unwrap();
            w2.sync().unwrap();
            let again = read_wal(&torn_path, 1).unwrap();
            assert!(!again.torn);
            assert_eq!(again.records.len(), complete + 1);
            assert_eq!(again.records[complete], WalRecord::Delete { handle: 99 });
        }
    }

    #[test]
    fn bit_flips_stop_replay_without_panicking() {
        let dir = tmpdir("flip");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, 2).unwrap();
        for rec in sample_records() {
            w.append(&rec).unwrap();
        }
        w.sync().unwrap();
        let full = fs::read(&path).unwrap();
        for pos in HEADER_LEN as usize..full.len() {
            let mut bytes = full.clone();
            bytes[pos] ^= 0x04;
            let flip_path = dir.join("flip.log");
            fs::write(&flip_path, &bytes).unwrap();
            let replay = read_wal(&flip_path, 2).unwrap();
            assert!(
                replay.records.len() < sample_records().len(),
                "flip at {pos} must drop at least the damaged record"
            );
            // Whatever survives must be a true prefix.
            assert_eq!(replay.records, &sample_records()[..replay.records.len()]);
        }
        // Header flips are fatal, not torn.
        for pos in 0..HEADER_LEN as usize {
            let mut bytes = full.clone();
            bytes[pos] ^= 0x04;
            let flip_path = dir.join("hflip.log");
            fs::write(&flip_path, &bytes).unwrap();
            assert!(read_wal(&flip_path, 2).is_err(), "header flip at {pos}");
        }
    }

    #[test]
    fn wrong_generation_is_rejected() {
        let dir = tmpdir("gen");
        let path = dir.join("wal.log");
        WalWriter::create(&path, 4).unwrap();
        assert!(read_wal(&path, 4).is_ok());
        assert!(matches!(read_wal(&path, 5), Err(FormatError::Invalid(_))));
    }

    #[test]
    fn forged_length_fields_are_bounded() {
        let dir = tmpdir("forged");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, 0).unwrap();
        w.append(&WalRecord::Delete { handle: 1 }).unwrap();
        w.sync().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let rec_at = HEADER_LEN as usize;
        // Oversized length: must stop, not allocate or scan past the end.
        bytes[rec_at..rec_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let replay = read_wal(&path, 0).unwrap();
        assert!(replay.torn && replay.records.is_empty());
        // Zero length: likewise.
        bytes[rec_at..rec_at + 4].copy_from_slice(&0u32.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let replay = read_wal(&path, 0).unwrap();
        assert!(replay.torn && replay.records.is_empty());
    }
}
