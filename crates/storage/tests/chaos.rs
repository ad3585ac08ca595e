//! Seeded chaos suite: deterministic fault injection at every storage and
//! execution boundary, asserting the recovery invariants against an
//! acked-operations oracle.
//!
//! Requires `--features failpoints`. The failpoint registry is process
//! global, so every test serializes on [`LOCK`] and resets the registry
//! on entry and exit.
#![cfg(feature = "failpoints")]

use drtopk_common::{Distribution, Weights, WorkloadSpec};
use drtopk_core::{BatchExecutor, DlOptions, DualLayerIndex, Handle, QueryBudget};
use drtopk_failpoints::{arm, reset, FailAction};
use drtopk_storage::durable::failpoint_sites as fp;
use drtopk_storage::{DurableDynamicIndex, DurableOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

/// Serializes the test and guarantees a clean registry on entry.
fn guard() -> MutexGuard<'static, ()> {
    let g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    reset();
    g
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("drtopk_chaos_{name}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn opts() -> DurableOptions {
    DurableOptions {
        rebuild_fraction: 0.5,
        ..DurableOptions::default()
    }
}

/// The acked-operations oracle: a plain map of live handles to rows.
/// Recovery must reproduce exactly this multiset (plus, after a sync
/// failure, possibly the single in-flight operation — see the sync test).
struct Oracle {
    live: HashMap<Handle, Vec<f64>>,
}

impl Oracle {
    fn from_initial(rel: &drtopk_common::Relation) -> Oracle {
        Oracle {
            live: rel
                .iter()
                .map(|(t, row)| (t as Handle, row.to_vec()))
                .collect(),
        }
    }

    fn topk(&self, w: &Weights, k: usize) -> Vec<Handle> {
        let mut v: Vec<(f64, Handle)> = self
            .live
            .iter()
            .map(|(&h, row)| (w.score(row), h))
            .collect();
        v.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        v.truncate(k);
        v.into_iter().map(|(_, h)| h).collect()
    }
}

/// Asserts the recovered store answers bit-identically to the oracle.
fn assert_matches_oracle(store: &DurableDynamicIndex, oracle: &Oracle, d: usize, seed: u64) {
    assert_eq!(store.len(), oracle.live.len(), "live tuple count");
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..12 {
        let w = Weights::random(d, &mut rng);
        let k = rng.gen_range(1..=20);
        assert_eq!(
            store.topk(&w, k).0,
            oracle.topk(&w, k),
            "query {i} after recovery"
        );
    }
}

fn fresh_store(name: &str, d: usize, n: usize) -> (PathBuf, DurableDynamicIndex, Oracle) {
    let dir = tmpdir(name);
    let rel = WorkloadSpec::new(Distribution::Independent, d, n, 7).generate();
    let store = DurableDynamicIndex::create(&dir, &rel, opts()).unwrap();
    let oracle = Oracle::from_initial(&rel);
    (dir, store, oracle)
}

#[test]
fn append_error_loses_only_the_unacked_op_and_poisons_the_store() {
    let _g = guard();
    let (dir, mut store, mut oracle) = fresh_store("append_err", 3, 40);
    let row = vec![0.5, 0.5, 0.5];
    let h = store.insert(&row).unwrap();
    oracle.live.insert(h, row);

    // The next append fails before any byte reaches the disk.
    arm(fp::FP_WAL_APPEND, 0, FailAction::Error);
    assert!(store.insert(&[0.1, 0.2, 0.3]).is_err());
    assert!(store.poisoned().is_some());
    // Every further mutation is refused; queries still work.
    assert!(store.insert(&[0.6, 0.6, 0.6]).is_err());
    assert!(store.delete(h).is_err());
    assert_eq!(store.topk(&Weights::uniform(3), 5).0.len(), 5);
    drop(store);

    let (recovered, report) = DurableDynamicIndex::open(&dir, opts()).unwrap();
    assert!(!report.torn_tail, "nothing was written, nothing is torn");
    assert_eq!(report.replayed, 1, "only the acked insert");
    assert_matches_oracle(&recovered, &oracle, 3, 11);
    reset();
}

#[test]
fn torn_and_bitflipped_appends_recover_the_acked_prefix() {
    let _g = guard();
    for (case, action) in [
        ("torn_1b", FailAction::Truncate(1)),
        ("torn_5b", FailAction::Truncate(5)),
        ("torn_9b", FailAction::Truncate(9)),
        (
            "flip_len",
            FailAction::BitFlip {
                offset: 1,
                mask: 0x10,
            },
        ),
        (
            "flip_crc",
            FailAction::BitFlip {
                offset: 5,
                mask: 0x01,
            },
        ),
        (
            "flip_payload",
            FailAction::BitFlip {
                offset: 12,
                mask: 0x80,
            },
        ),
    ] {
        let (dir, mut store, mut oracle) = fresh_store(&format!("tear_{case}"), 3, 30);
        for i in 0..3 {
            let row = vec![0.1 * (i + 1) as f64, 0.5, 0.5];
            let h = store.insert(&row).unwrap();
            oracle.live.insert(h, row);
        }
        // The 4th append is torn mid-write: damaged bytes land on disk
        // and the operation errors.
        arm(fp::FP_WAL_APPEND_DATA, 0, action.clone());
        assert!(store.insert(&[0.9, 0.9, 0.9]).is_err(), "{case}");
        assert!(store.poisoned().is_some(), "{case}");
        drop(store);

        let (recovered, report) = DurableDynamicIndex::open(&dir, opts()).unwrap();
        assert!(report.torn_tail, "{case}: the tail must be detected");
        assert_eq!(report.replayed, 3, "{case}: acked prefix only");
        assert_matches_oracle(&recovered, &oracle, 3, 13);
        reset();
    }
}

#[test]
fn sync_failure_poisons_but_the_durable_record_resurfaces() {
    let _g = guard();
    let (dir, mut store, mut oracle) = fresh_store("sync_err", 2, 25);
    let row_acked = vec![0.3, 0.7];
    let h = store.insert(&row_acked).unwrap();
    oracle.live.insert(h, row_acked);

    // The record is fully written, then the fsync fails: the caller gets
    // an error (the op is NOT acknowledged) but the bytes are on disk, so
    // recovery replays it — the documented may-resurface contract for
    // in-flight operations.
    arm(fp::FP_WAL_SYNC, 0, FailAction::Error);
    let in_flight = vec![0.8, 0.2];
    let next = store.index().next_handle();
    assert!(store.insert(&in_flight).is_err());
    assert!(store.poisoned().is_some());
    drop(store);

    let (recovered, report) = DurableDynamicIndex::open(&dir, opts()).unwrap();
    assert_eq!(report.replayed, 2, "acked insert + resurfaced in-flight");
    oracle.live.insert(next, in_flight);
    assert_matches_oracle(&recovered, &oracle, 2, 17);
    reset();
}

#[test]
fn checkpoint_faults_leave_the_current_generation_fully_functional() {
    let _g = guard();
    for (case, site, action) in [
        ("wal_create", fp::FP_WAL_CREATE, FailAction::Error),
        ("snap_torn", fp::FP_WRITE_DATA, FailAction::Truncate(10)),
        (
            "snap_flip",
            fp::FP_WRITE_DATA,
            FailAction::BitFlip {
                offset: 100,
                mask: 0x04,
            },
        ),
        ("snap_rename", fp::FP_WRITE_RENAME, FailAction::Error),
    ] {
        let (dir, mut store, mut oracle) = fresh_store(&format!("ckpt_{case}"), 2, 20);
        let row = vec![0.4, 0.6];
        let h = store.insert(&row).unwrap();
        oracle.live.insert(h, row);

        arm(site, 0, action);
        assert!(store.checkpoint().is_err(), "{case}");
        assert!(
            store.poisoned().is_none(),
            "{case}: a failed checkpoint must not poison the store"
        );
        assert_eq!(store.generation(), 0, "{case}: generation unchanged");

        // The store keeps working on the old generation.
        let row2 = vec![0.15, 0.85];
        let h2 = store.insert(&row2).unwrap();
        oracle.live.insert(h2, row2);
        drop(store);

        let (recovered, report) = DurableDynamicIndex::open(&dir, opts()).unwrap();
        assert_eq!(report.generation, 0, "{case}");
        assert_matches_oracle(&recovered, &oracle, 2, 19);
        // And the mangled snapshot temp file, if any, never became
        // visible as a real snapshot.
        assert!(
            !dir.join(format!("snapshot.{:016}.drt", 1)).exists() || case == "wal_create",
            "{case}: torn snapshot must not commit"
        );
        reset();
    }
}

#[test]
fn read_faults_on_open_fall_back_to_the_previous_generation() {
    let _g = guard();
    for (case, action) in [
        ("io_error", FailAction::Error),
        ("short_read", FailAction::Truncate(40)),
        (
            "bit_rot",
            FailAction::BitFlip {
                offset: 200,
                mask: 0x02,
            },
        ),
    ] {
        let site = if case == "io_error" {
            fp::FP_READ_IO
        } else {
            fp::FP_READ_DATA
        };
        let (dir, mut store, mut oracle) = fresh_store(&format!("read_{case}"), 2, 30);
        let row = vec![0.25, 0.75];
        let h = store.insert(&row).unwrap();
        oracle.live.insert(h, row);
        store.checkpoint().unwrap();
        let row2 = vec![0.65, 0.35];
        let h2 = store.insert(&row2).unwrap();
        oracle.live.insert(h2, row2);
        drop(store);

        // The first read in open() is the newest snapshot (generation 1):
        // fail it, forcing fallback to generation 0 + full WAL replay.
        arm(site, 0, action);
        let (recovered, report) = DurableDynamicIndex::open(&dir, opts()).unwrap();
        assert_eq!(report.generation, 0, "{case}: fell back");
        assert_eq!(report.snapshots_skipped, 1, "{case}");
        assert_eq!(report.replayed, 2, "{case}: wal.0 then wal.1");
        assert_matches_oracle(&recovered, &oracle, 2, 23);
        reset();
    }
}

#[test]
fn worker_panic_is_isolated_to_its_request() {
    let _g = guard();
    let d = 3;
    let rel = WorkloadSpec::new(Distribution::AntiCorrelated, d, 400, 31).generate();
    let idx = DualLayerIndex::build(&rel, DlOptions::dl_plus());
    let mut rng = StdRng::seed_from_u64(41);
    let requests: Vec<(Weights, usize, QueryBudget)> = (0..24)
        .map(|_| {
            let w = Weights::random(d, &mut rng);
            (w, rng.gen_range(1..=15), QueryBudget::unlimited())
        })
        .collect();
    // Single worker thread: request i is the i-th visit to the failpoint.
    let exec = BatchExecutor::with_threads(&idx, 1);
    let clean = exec.run_guarded_each(&requests);
    assert!(clean.iter().all(|r| r.is_ok()));

    let victim = 17;
    arm(
        drtopk_core::batch::WORKER_FAILPOINT,
        victim as u64,
        FailAction::Panic,
    );
    let faulted = exec.run_guarded_each(&requests);
    reset();
    for (i, (clean_r, faulted_r)) in clean.iter().zip(&faulted).enumerate() {
        if i == victim {
            let err = faulted_r.as_ref().expect_err("victim must fail");
            assert!(
                err.message.contains("failpoint panic"),
                "panic payload surfaced: {}",
                err.message
            );
        } else {
            assert_eq!(
                faulted_r.as_ref().unwrap(),
                clean_r.as_ref().unwrap(),
                "request {i} must be bit-identical despite the panicked neighbour"
            );
        }
    }
}

/// The acceptance gate: a seeded storm of random operations with random
/// faults armed at random sites, recovering after every failure, always
/// converging to exactly the acked-operation state.
#[test]
fn seeded_chaos_storm_always_recovers_the_acked_state() {
    let _g = guard();
    let d = 2;
    let dir = tmpdir("storm");
    let rel = WorkloadSpec::new(Distribution::Independent, d, 50, 3).generate();
    let mut store = Some(DurableDynamicIndex::create(&dir, &rel, opts()).unwrap());
    let mut oracle = Oracle::from_initial(&rel);
    let mut rng = StdRng::seed_from_u64(0xC4A05);
    let mut known: Vec<Handle> = oracle.live.keys().copied().collect();
    let mut recoveries = 0usize;

    for round in 0..60 {
        // Arm one random fault somewhere in the mutation path.
        let (site, action) = match rng.gen_range(0..5) {
            0 => (fp::FP_WAL_APPEND, FailAction::Error),
            1 => (
                fp::FP_WAL_APPEND_DATA,
                FailAction::Truncate(rng.gen_range(0..12)),
            ),
            2 => (
                fp::FP_WAL_APPEND_DATA,
                FailAction::BitFlip {
                    offset: rng.gen_range(0..64),
                    mask: 1 << rng.gen_range(0..8),
                },
            ),
            3 => (fp::FP_WAL_CREATE, FailAction::Error),
            _ => (
                fp::FP_WRITE_DATA,
                FailAction::Truncate(rng.gen_range(0..30)),
            ),
        };
        arm(site, rng.gen_range(0..6), action);

        let s = store.as_mut().unwrap();
        for _ in 0..8 {
            match rng.gen_range(0..10) {
                0..=5 => {
                    let row: Vec<f64> = (0..d).map(|_| rng.gen_range(0.001..0.999)).collect();
                    match s.insert(&row) {
                        Ok(h) => {
                            oracle.live.insert(h, row);
                            known.push(h);
                        }
                        Err(_) => break,
                    }
                }
                6..=7 => {
                    if known.is_empty() {
                        continue;
                    }
                    let h = known[rng.gen_range(0..known.len())];
                    match s.delete(h) {
                        Ok(was_live) => {
                            assert_eq!(was_live, oracle.live.remove(&h).is_some());
                        }
                        Err(_) => break,
                    }
                }
                _ => {
                    let _ = s.checkpoint();
                }
            }
        }
        reset();
        if store.as_ref().unwrap().poisoned().is_some() {
            // Crash-and-recover. Nothing was armed during recovery.
            drop(store.take());
            let (recovered, _report) = DurableDynamicIndex::open(&dir, opts()).unwrap();
            recoveries += 1;
            assert_matches_oracle(&recovered, &oracle, d, 100 + round);
            store = Some(recovered);
        }
    }
    assert!(
        recoveries >= 5,
        "the storm must actually trigger recoveries"
    );
    // Final recovery from a clean shutdown.
    drop(store.take());
    let (recovered, _) = DurableDynamicIndex::open(&dir, opts()).unwrap();
    assert_matches_oracle(&recovered, &oracle, d, 999);
    // And the recovered state is itself bit-identical to a fresh replay
    // (recover twice, compare).
    drop(recovered);
    let (again, _) = DurableDynamicIndex::open(&dir, opts()).unwrap();
    assert_matches_oracle(&again, &oracle, d, 1000);
}
