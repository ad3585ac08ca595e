//! Crash-safe persistence for [`DynamicIndex`]: WAL + atomic snapshots.
//!
//! A [`DurableDynamicIndex`] wraps a [`DynamicIndex`] with the classic
//! append-before-apply discipline. Each directory holds generation-
//! numbered pairs:
//!
//! ```text
//! snapshot.0000000000000007.drt   full dynamic state at generation 7
//! wal.0000000000000007.log        every mutation after that snapshot
//! ```
//!
//! * **Mutations** are validated, appended to the current WAL and fsynced,
//!   and only then applied in memory. An acknowledged operation is
//!   therefore always on stable storage before the caller sees it succeed.
//! * **Checkpoints** rotate generations: create `wal.(g+1)` first, then
//!   write `snapshot.(g+1)` via temp-file + fsync + rename — the rename is
//!   the commit point — then prune generations below `g`, keeping the
//!   previous pair as a fallback against silent at-rest corruption.
//! * **Recovery** ([`DurableDynamicIndex::open`]) picks the newest
//!   snapshot that loads and validates, then replays every WAL with a
//!   generation at or above it, in order. A torn tail on the *newest* WAL
//!   is expected (a crash mid-append) and truncated; a torn *interior* WAL
//!   means acknowledged operations are missing and is an error.
//! * **Failure poisons the store**: once an append or sync errors, the
//!   in-memory state may be ahead of or behind the log, so every further
//!   mutation is refused until the directory is reopened (queries still
//!   work). Recovery — not in-place repair — is the only exit, exactly as
//!   if the process had crashed.

use crate::format::{self, FormatError};
use crate::wal::{self, WalRecord, WalWriter};
use drtopk_common::{Cost, Error, Relation, Weights};
use drtopk_core::{DlOptions, DynamicIndex, Handle, ResultCache};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Every failpoint site the durable store and its storage layer visit,
/// for chaos suites to enumerate.
pub mod failpoint_sites {
    pub use crate::format::{FP_READ_DATA, FP_READ_IO, FP_WRITE_DATA, FP_WRITE_RENAME};
    pub use crate::wal::{FP_WAL_APPEND, FP_WAL_APPEND_DATA, FP_WAL_CREATE, FP_WAL_SYNC};
}

/// Configuration of a durable dynamic index.
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// Index construction options (must match persisted snapshots).
    pub opts: DlOptions,
    /// Pending-update fraction that triggers an in-memory rebuild.
    pub rebuild_fraction: f64,
    /// Append count that triggers an automatic checkpoint (0 = never; use
    /// [`DurableDynamicIndex::checkpoint`] manually).
    pub checkpoint_every: u64,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            opts: DlOptions::default(),
            rebuild_fraction: 0.2,
            checkpoint_every: 0,
        }
    }
}

/// What [`DurableDynamicIndex::open`] had to do to get back to a
/// consistent state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The generation that served as the recovery base.
    pub generation: u64,
    /// WAL records replayed over the base snapshot.
    pub replayed: usize,
    /// Whether any active (unsealed) WAL carried a torn tail; the torn
    /// bytes held no acknowledged operations and were truncated away.
    pub torn_tail: bool,
    /// Newer snapshots that failed to load (at-rest corruption) and were
    /// skipped in favour of an older generation.
    pub snapshots_skipped: usize,
}

/// A crash-safe [`DynamicIndex`]: all mutations go through a WAL, full
/// state is checkpointed to atomic snapshots.
#[derive(Debug)]
pub struct DurableDynamicIndex {
    dir: PathBuf,
    inner: DynamicIndex,
    wal: WalWriter,
    generation: u64,
    /// Appends since the last checkpoint (replayed records count after a
    /// recovery).
    appends_since_checkpoint: u64,
    poisoned: Option<String>,
    options: DurableOptions,
}

fn snapshot_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snapshot.{generation:016}.drt"))
}

fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("wal.{generation:016}.log"))
}

/// The WAL files of the store in `dir`: each `wal.<generation>.log` it
/// holds, as `(generation, path)` pairs in ascending order.
pub fn wal_files(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    generation_files(dir, "wal.", ".log")
}

/// Scans a directory for generation-numbered files with `prefix.`…`.suffix`
/// names, returning `(generation, path)` pairs in ascending order.
fn generation_files(dir: &Path, prefix: &str, suffix: &str) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut files = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix(prefix) else {
            continue;
        };
        let Some(middle) = rest.strip_suffix(suffix) else {
            continue;
        };
        if let Ok(g) = middle.parse::<u64>() {
            files.push((g, entry.path()));
        }
    }
    files.sort_unstable();
    Ok(files)
}

/// The generations of [`generation_files`], ascending.
fn list_generations(dir: &Path, prefix: &str, suffix: &str) -> Result<Vec<u64>, FormatError> {
    let files = generation_files(dir, prefix, suffix)?;
    Ok(files.into_iter().map(|(g, _)| g).collect())
}

impl DurableDynamicIndex {
    /// Creates a fresh store over an initial relation in `dir` (created if
    /// missing; must not already hold a store).
    pub fn create(dir: &Path, rel: &Relation, options: DurableOptions) -> Result<Self, Error> {
        let handles = (0..rel.len() as Handle).collect();
        DurableDynamicIndex::create_with_handles(dir, rel, handles, options)
    }

    /// Creates a fresh store whose tuples carry *caller-assigned* global
    /// handles (see [`DynamicIndex::with_handles`]) — the shard-deployment
    /// entry point: each shard persists its partition under the global ids
    /// the router merges on, and WAL records (which carry handles) replay
    /// into the same global id space on recovery.
    pub fn create_with_handles(
        dir: &Path,
        rel: &Relation,
        handles: Vec<Handle>,
        options: DurableOptions,
    ) -> Result<Self, Error> {
        fs::create_dir_all(dir).map_err(|e| Error::Io(e.to_string()))?;
        if !list_generations(dir, "snapshot.", ".drt")
            .map_err(Error::from)?
            .is_empty()
        {
            return Err(Error::Invalid(format!(
                "directory {} already holds a durable index; use open()",
                dir.display()
            )));
        }
        let inner = DynamicIndex::with_handles(
            rel,
            handles,
            options.opts.clone(),
            options.rebuild_fraction,
        )?;
        // WAL first, snapshot second: the snapshot's appearance is the
        // commit point, and a committed snapshot must have its WAL ready.
        let wal = WalWriter::create(&wal_path(dir, 0), 0).map_err(Error::from)?;
        format::save_dynamic_state(&inner.to_state(), 0, &snapshot_path(dir, 0))
            .map_err(Error::from)?;
        Ok(DurableDynamicIndex {
            dir: dir.to_path_buf(),
            inner,
            wal,
            generation: 0,
            appends_since_checkpoint: 0,
            poisoned: None,
            options,
        })
    }

    /// Opens an existing store, recovering from whatever a crash left.
    pub fn open(dir: &Path, options: DurableOptions) -> Result<(Self, RecoveryReport), Error> {
        let snap_gens = list_generations(dir, "snapshot.", ".drt").map_err(Error::from)?;
        if snap_gens.is_empty() {
            return Err(Error::Invalid(format!(
                "no snapshot found in {}",
                dir.display()
            )));
        }
        // Newest snapshot that both decodes and validates wins; corrupt
        // ones are skipped in favour of the previous generation.
        let mut base: Option<(u64, DynamicIndex)> = None;
        let mut snapshots_skipped = 0usize;
        let mut last_err: Option<Error> = None;
        for &g in snap_gens.iter().rev() {
            let loaded = format::load_dynamic_state(&snapshot_path(dir, g))
                .map_err(Error::from)
                .and_then(|(state, file_gen)| {
                    if file_gen != g {
                        return Err(Error::Corrupt(format!(
                            "snapshot generation {file_gen} does not match file name \
                             generation {g}"
                        )));
                    }
                    DynamicIndex::from_state(&state, options.opts.clone(), options.rebuild_fraction)
                });
            match loaded {
                Ok(inner) => {
                    base = Some((g, inner));
                    break;
                }
                Err(e) => {
                    snapshots_skipped += 1;
                    last_err = Some(e);
                }
            }
        }
        let Some((base_gen, mut inner)) = base else {
            return Err(last_err.unwrap_or_else(|| {
                Error::Corrupt(format!("no loadable snapshot in {}", dir.display()))
            }));
        };

        // Replay every WAL at or above the base generation, in order. WALs
        // below it are already baked into the snapshot.
        //
        // A WAL is *sealed* once a snapshot of a newer generation exists on
        // disk — that snapshot's committed rename is what switches appends
        // to the next log, and committing requires every append before it
        // to have succeeded. A torn tail in a sealed WAL therefore means
        // acknowledged operations are gone: fatal. WALs at or above the
        // newest snapshot present (commit marker, loadable or not) are
        // still active — a failed checkpoint can leave a pre-created empty
        // `wal.(g+1)` while appends continue on `wal.g` — so a torn tail
        // there is the expected crash-mid-append and is truncated away.
        let commit_gen = *snap_gens.last().expect("checked non-empty");
        let wal_gens: Vec<u64> = list_generations(dir, "wal.", ".log")
            .map_err(Error::from)?
            .into_iter()
            .filter(|&g| g >= base_gen)
            .collect();
        let newest_wal = wal_gens.last().copied().unwrap_or(base_gen);
        let mut replayed = 0usize;
        let mut torn_tail = false;
        let mut newest_valid_bytes = None;
        for &g in &wal_gens {
            let replay = wal::read_wal(&wal_path(dir, g), g).map_err(Error::from)?;
            if replay.torn && g < commit_gen {
                return Err(Error::Corrupt(format!(
                    "wal generation {g} is torn but sealed by snapshot generation \
                     {commit_gen}: acknowledged operations are missing"
                )));
            }
            torn_tail |= replay.torn;
            for rec in &replay.records {
                match rec {
                    WalRecord::Insert { handle, row } => inner.replay_insert(*handle, row)?,
                    WalRecord::Delete { handle } => {
                        inner.delete(*handle);
                    }
                }
                replayed += 1;
            }
            if g == newest_wal {
                newest_valid_bytes = Some(replay.valid_bytes);
            }
        }

        // Continue appending to the newest WAL, truncating any torn tail.
        // If the newest WAL file is missing entirely (crash between prune
        // and nothing, or manual deletion), recreate it empty.
        let newest_path = wal_path(dir, newest_wal);
        let wal = match newest_valid_bytes {
            Some(valid) => {
                WalWriter::open_append(&newest_path, newest_wal, valid).map_err(Error::from)?
            }
            None => WalWriter::create(&newest_path, newest_wal).map_err(Error::from)?,
        };

        let mut store = DurableDynamicIndex {
            dir: dir.to_path_buf(),
            inner,
            wal,
            generation: newest_wal,
            appends_since_checkpoint: replayed as u64,
            poisoned: None,
            options,
        };
        let report = RecoveryReport {
            generation: base_gen,
            replayed,
            torn_tail,
            snapshots_skipped,
        };
        // A skipped snapshot means the newest generation's state file is
        // bad on disk; re-establish a clean generation now rather than
        // leaving the corrupt file as the apparent newest.
        if snapshots_skipped > 0 {
            store.checkpoint()?;
        }
        Ok((store, report))
    }

    /// Read access to the wrapped index (queries, stats, lookups).
    pub fn index(&self) -> &DynamicIndex {
        &self.inner
    }

    /// Attaches a weight-space result cache to the query path (invalidated
    /// on attachment and by every mutation — see
    /// [`DynamicIndex::attach_cache`]). In a sharded deployment each shard
    /// owns its own cache, so one shard's churn or recovery invalidates
    /// only that shard's entries.
    pub fn attach_cache(&mut self, cache: Arc<ResultCache>) {
        self.inner.attach_cache(cache);
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether no live tuples remain.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// The current WAL generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Why mutations are refused, if a WAL failure poisoned the store.
    pub fn poisoned(&self) -> Option<&str> {
        self.poisoned.as_deref()
    }

    fn check_usable(&self) -> Result<(), Error> {
        match &self.poisoned {
            Some(msg) => Err(Error::Io(format!(
                "store is poisoned by an earlier write failure ({msg}); reopen to recover"
            ))),
            None => Ok(()),
        }
    }

    /// Appends to the WAL and fsyncs it, poisoning the store on failure:
    /// after an error it is unknowable how much of the record reached the
    /// disk, so the only safe continuation is recovery from the log itself.
    fn log(&mut self, rec: &WalRecord) -> Result<(), Error> {
        if let Err(e) = self.wal.append(rec).and_then(|()| self.wal.sync()) {
            let msg = e.to_string();
            self.poisoned = Some(msg.clone());
            return Err(Error::Io(format!("wal append failed: {msg}")));
        }
        self.appends_since_checkpoint += 1;
        Ok(())
    }

    /// Inserts a tuple under a caller-assigned handle (shard discipline:
    /// a shard only assigns handles congruent to its id): WAL append
    /// first, then the in-memory apply. `h` must be at or above the next
    /// unassigned handle.
    pub fn insert_with_handle(&mut self, h: Handle, row: &[f64]) -> Result<(), Error> {
        self.check_usable()?;
        // Validate before logging so a rejected row never reaches the WAL.
        self.inner.check_row(row)?;
        if h < self.inner.next_handle() {
            return Err(Error::Invalid(format!(
                "handle {h} below next handle {}",
                self.inner.next_handle()
            )));
        }
        self.log(&WalRecord::Insert {
            handle: h,
            row: row.to_vec(),
        })?;
        self.inner
            .replay_insert(h, row)
            .expect("handle and row validated above");
        self.maybe_checkpoint();
        Ok(())
    }

    /// Inserts a tuple under the next unassigned handle and returns it
    /// (see [`DurableDynamicIndex::insert_with_handle`]).
    pub fn insert(&mut self, row: &[f64]) -> Result<Handle, Error> {
        let handle = self.inner.next_handle();
        self.insert_with_handle(handle, row)?;
        Ok(handle)
    }

    /// Deletes a handle; returns whether it was live. Dead handles are not
    /// logged.
    pub fn delete(&mut self, h: Handle) -> Result<bool, Error> {
        self.check_usable()?;
        if self.inner.get(h).is_none() {
            return Ok(false);
        }
        self.log(&WalRecord::Delete { handle: h })?;
        let was_live = self.inner.delete(h);
        debug_assert!(was_live);
        self.maybe_checkpoint();
        Ok(true)
    }

    /// Answers a top-k query over the live tuples (always allowed, even
    /// when poisoned — reads never touch the log).
    pub fn topk(&self, w: &Weights, k: usize) -> (Vec<Handle>, Cost) {
        self.inner.topk(w, k)
    }

    fn maybe_checkpoint(&mut self) {
        if self.options.checkpoint_every > 0
            && self.appends_since_checkpoint >= self.options.checkpoint_every
        {
            // Best-effort: a failed background checkpoint leaves the
            // current generation fully functional.
            let _ = self.checkpoint();
        }
    }

    /// Rotates to a new generation: new WAL, then snapshot (the commit
    /// point), then pruning — keeping the previous generation as a
    /// fallback against at-rest corruption of the new snapshot.
    ///
    /// Checkpoint failure does *not* poison the store: the current
    /// generation's WAL is untouched, so acknowledged state is still
    /// consistent; the caller may retry.
    pub fn checkpoint(&mut self) -> Result<u64, Error> {
        self.check_usable()?;
        let next = self.generation + 1;
        // 1. The next WAL must exist before the snapshot that refers to
        //    it commits, otherwise a crash in between would leave a
        //    snapshot whose operations have nowhere durable to go.
        let new_wal = WalWriter::create(&wal_path(&self.dir, next), next).map_err(Error::from)?;
        // 2. Snapshot write; the rename inside is the commit point. If it
        //    fails, drop the pre-created WAL again — recovery tolerates
        //    the stray, but leaving it around is pointless disk noise.
        if let Err(e) = format::save_dynamic_state(
            &self.inner.to_state(),
            next,
            &snapshot_path(&self.dir, next),
        ) {
            drop(new_wal);
            let _ = fs::remove_file(wal_path(&self.dir, next));
            return Err(e.into());
        }
        // 3. Switch appends to the new generation.
        let old = self.generation;
        self.wal = new_wal;
        self.generation = next;
        self.appends_since_checkpoint = 0;
        // 4. Prune generations below the previous one (best-effort; stray
        //    files only cost disk and are handled by recovery).
        for (gens, to_path) in [
            (
                list_generations(&self.dir, "snapshot.", ".drt"),
                snapshot_path as fn(&Path, u64) -> PathBuf,
            ),
            (list_generations(&self.dir, "wal.", ".log"), wal_path),
        ] {
            if let Ok(gens) = gens {
                for g in gens.into_iter().filter(|&g| g < old) {
                    let _ = fs::remove_file(to_path(&self.dir, g));
                }
            }
        }
        Ok(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtopk_common::{Distribution, WorkloadSpec};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("drtopk_durable_{name}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn opts() -> DurableOptions {
        DurableOptions {
            rebuild_fraction: 0.5,
            ..DurableOptions::default()
        }
    }

    #[test]
    fn create_mutate_reopen_matches_live_state() {
        let dir = tmpdir("reopen");
        let d = 3;
        let rel = WorkloadSpec::new(Distribution::Independent, d, 120, 21).generate();
        let mut store = DurableDynamicIndex::create(&dir, &rel, opts()).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let row: Vec<f64> = (0..d).map(|_| rng.gen_range(0.001..0.999)).collect();
            store.insert(&row).unwrap();
        }
        for h in [0u64, 5, 121, 140] {
            assert!(store.delete(h).unwrap());
        }
        assert!(!store.delete(121).unwrap(), "double delete");
        // Ids and costs: recovery rebuilds the same buffer forest, so a
        // read scores the same buffered rows.
        let weights: Vec<Weights> = (0..10).map(|_| Weights::random(d, &mut rng)).collect();
        let live_answers: Vec<_> = weights.iter().map(|w| store.topk(w, 12)).collect();

        let (reopened, report) = DurableDynamicIndex::open(&dir, opts()).unwrap();
        assert_eq!(report.generation, 0);
        assert_eq!(report.replayed, 54, "50 inserts + 4 live deletes");
        assert!(!report.torn_tail);
        assert_eq!(report.snapshots_skipped, 0);
        assert_eq!(reopened.len(), store.len());
        for (i, (w, expect)) in weights.iter().zip(&live_answers).enumerate() {
            assert_eq!(&reopened.topk(w, 12), expect, "query {i} after WAL replay");
        }

        // A snapshot carrying buffered rows and tombstones, then more
        // buffered inserts and deletes in the new WAL.
        assert_eq!(store.checkpoint().unwrap(), 1);
        for _ in 0..5 {
            let row: Vec<f64> = (0..d).map(|_| rng.gen_range(0.001..0.999)).collect();
            store.insert(&row).unwrap();
        }
        // A buffered row from the snapshot, one from the WAL, an indexed
        // row; 62 pending updates stay under the rebuild threshold.
        for h in [122u64, 171, 9] {
            assert!(store.delete(h).unwrap());
        }
        assert_eq!(store.index().rebuilds(), 0);
        let live_answers: Vec<_> = weights.iter().map(|w| store.topk(w, 12)).collect();
        let (reopened, report) = DurableDynamicIndex::open(&dir, opts()).unwrap();
        assert_eq!(report.generation, 1);
        assert_eq!(report.replayed, 8, "5 inserts + 3 deletes");
        assert_eq!(reopened.len(), store.len());
        for (i, (w, expect)) in weights.iter().zip(&live_answers).enumerate() {
            assert_eq!(
                &reopened.topk(w, 12),
                expect,
                "query {i} after snapshot and WAL recovery"
            );
        }
    }

    #[test]
    fn checkpoint_rotates_and_prunes() {
        let dir = tmpdir("checkpoint");
        let rel = WorkloadSpec::new(Distribution::Independent, 2, 40, 2).generate();
        let mut store = DurableDynamicIndex::create(&dir, &rel, opts()).unwrap();
        store.insert(&[0.3, 0.3]).unwrap();
        assert_eq!(store.checkpoint().unwrap(), 1);
        store.insert(&[0.6, 0.6]).unwrap();
        assert_eq!(store.checkpoint().unwrap(), 2);
        // Generation 0 pruned, 1 kept as fallback, 2 current.
        assert!(!snapshot_path(&dir, 0).exists());
        assert!(snapshot_path(&dir, 1).exists());
        assert!(snapshot_path(&dir, 2).exists());
        assert!(!wal_path(&dir, 0).exists());
        assert!(wal_path(&dir, 1).exists());
        assert!(wal_path(&dir, 2).exists());

        store.insert(&[0.9, 0.1]).unwrap();
        let expect = store.topk(&Weights::uniform(2), 43).0;
        let (reopened, report) = DurableDynamicIndex::open(&dir, opts()).unwrap();
        assert_eq!(report.generation, 2);
        assert_eq!(report.replayed, 1, "only the post-checkpoint insert");
        assert_eq!(reopened.topk(&Weights::uniform(2), 43).0, expect);
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_a_generation() {
        let dir = tmpdir("fallback");
        let rel = WorkloadSpec::new(Distribution::Independent, 2, 30, 8).generate();
        let mut store = DurableDynamicIndex::create(&dir, &rel, opts()).unwrap();
        store.insert(&[0.2, 0.8]).unwrap();
        store.checkpoint().unwrap();
        store.insert(&[0.7, 0.7]).unwrap();
        let expect = store.topk(&Weights::uniform(2), 32).0;
        drop(store);
        // Flip a payload byte in the newest snapshot.
        let path = snapshot_path(&dir, 1);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        fs::write(&path, &bytes).unwrap();

        let (reopened, report) = DurableDynamicIndex::open(&dir, opts()).unwrap();
        assert_eq!(report.generation, 0, "fell back to the previous snapshot");
        assert_eq!(report.snapshots_skipped, 1);
        assert_eq!(
            report.replayed, 2,
            "replays wal.0 (1 insert) then wal.1 (1 insert)"
        );
        assert_eq!(reopened.topk(&Weights::uniform(2), 32).0, expect);
        // Recovery re-checkpointed: the bad snapshot is no longer newest.
        assert!(reopened.generation() > 1);
    }

    #[test]
    fn torn_wal_tail_is_truncated_and_interior_tears_are_fatal() {
        let dir = tmpdir("torn");
        let rel = WorkloadSpec::new(Distribution::Independent, 2, 20, 3).generate();
        let mut store = DurableDynamicIndex::create(&dir, &rel, opts()).unwrap();
        store.insert(&[0.4, 0.4]).unwrap();
        store.insert(&[0.5, 0.5]).unwrap();
        let before_third = store.topk(&Weights::uniform(2), 25).0;
        store.insert(&[0.6, 0.6]).unwrap();
        drop(store);
        // Tear the last record: chop 3 bytes off the WAL tail.
        let path = wal_path(&dir, 0);
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 3]).unwrap();

        let (reopened, report) = DurableDynamicIndex::open(&dir, opts()).unwrap();
        assert!(report.torn_tail);
        assert_eq!(report.replayed, 2, "third insert was torn away");
        assert_eq!(reopened.topk(&Weights::uniform(2), 25).0, before_third);
        drop(reopened);

        // An interior torn WAL (not the newest) must refuse to open.
        let dir2 = tmpdir("torn_interior");
        let mut store = DurableDynamicIndex::create(&dir2, &rel, opts()).unwrap();
        store.insert(&[0.1, 0.9]).unwrap();
        store.checkpoint().unwrap();
        drop(store);
        // Corrupt snapshot.1 so recovery must fall back to generation 0 and
        // replay wal.0 — which we tear.
        let snap1 = snapshot_path(&dir2, 1);
        let mut bytes = fs::read(&snap1).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        fs::write(&snap1, &bytes).unwrap();
        let wal0 = wal_path(&dir2, 0);
        let full = fs::read(&wal0).unwrap();
        fs::write(&wal0, &full[..full.len() - 2]).unwrap();
        assert!(matches!(
            DurableDynamicIndex::open(&dir2, opts()),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn create_refuses_existing_store_and_open_refuses_empty_dir() {
        let dir = tmpdir("refuse");
        let rel = WorkloadSpec::new(Distribution::Independent, 2, 10, 1).generate();
        DurableDynamicIndex::create(&dir, &rel, opts()).unwrap();
        assert!(matches!(
            DurableDynamicIndex::create(&dir, &rel, opts()),
            Err(Error::Invalid(_))
        ));
        let empty = tmpdir("refuse_empty");
        fs::create_dir_all(&empty).unwrap();
        assert!(matches!(
            DurableDynamicIndex::open(&empty, opts()),
            Err(Error::Invalid(_))
        ));
    }

    #[test]
    fn open_rejects_incompatible_options() {
        let dir = tmpdir("incompatible");
        let rel = WorkloadSpec::new(Distribution::Independent, 2, 25, 6).generate();
        DurableDynamicIndex::create(&dir, &rel, opts()).unwrap();
        let other = DurableOptions {
            opts: DlOptions::dg(),
            ..opts()
        };
        assert!(matches!(
            DurableDynamicIndex::open(&dir, other),
            Err(Error::Invalid(_))
        ));
    }

    #[test]
    fn automatic_checkpointing_bounds_the_backlog() {
        let dir = tmpdir("auto");
        let rel = WorkloadSpec::new(Distribution::Independent, 2, 15, 4).generate();
        let auto = DurableOptions {
            checkpoint_every: 8,
            ..opts()
        };
        let mut store = DurableDynamicIndex::create(&dir, &rel, auto).unwrap();
        for i in 0..30 {
            store.insert(&[0.2 + 0.01 * (i % 10) as f64, 0.5]).unwrap();
            assert!(
                store.appends_since_checkpoint < 8,
                "backlog bounded by checkpoints"
            );
        }
        assert!(store.generation() >= 3);
    }
}
