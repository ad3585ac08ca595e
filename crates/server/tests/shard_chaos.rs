//! Sharded-serving chaos matrix: every single-shard failure mode the
//! router promises to survive, injected deterministically, checked
//! against partition oracles.
//!
//! The contract under test (DESIGN.md §9):
//! * a failing shard degrades *coverage*, never availability — requests
//!   complete with ids bit-identical to the exact top-k over the
//!   surviving partitions, and the reply names the skipped shard;
//! * the failed shard recovers from its own WAL/snapshot directory
//!   without its peers' files changing by a single byte;
//! * after rejoin, answers are bit-identical to the full unsharded
//!   oracle — no stale (pre-recovery) answers survive.
//!
//! Requires `--features failpoints`. The failpoint registry is process
//! global, so tests serialize on [`LOCK`] and reset the registry on
//! entry.
#![cfg(feature = "failpoints")]

use drtopk_common::{Distribution, Relation, Weights, WorkloadSpec};
use drtopk_core::shard::shard_of;
use drtopk_core::{
    DlOptions, DynamicIndex, Handle, QueryBudget, ResultCache, RetryPolicy, RouterConfig,
    ShardHealth, ShardRouter,
};
use drtopk_failpoints::{arm, reset, shard_site, shard_step_site, visits, FailAction};
use drtopk_server::{Client, ServedShard, Server, ServerConfig};
use drtopk_storage::{create_sharded, shards::shard_dir, DurableDynamicIndex, DurableOptions};
use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

static LOCK: Mutex<()> = Mutex::new(());

fn guard() -> MutexGuard<'static, ()> {
    let g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    reset();
    g
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("drtopk_shard_chaos_{name}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn opts() -> DurableOptions {
    DurableOptions {
        rebuild_fraction: 0.5,
        ..DurableOptions::default()
    }
}

/// The exact top-k oracle over the partitions that are *not* dead: an
/// unsharded dynamic index over the surviving tuples, keeping global
/// handles.
fn survivor_oracle(rel: &Relation, shards: usize, dead: &[usize]) -> DynamicIndex {
    let dims = rel.dims();
    let mut flat = Vec::new();
    let mut handles = Vec::new();
    for (t, row) in rel.iter() {
        if !dead.contains(&shard_of(t as Handle, shards)) {
            flat.extend_from_slice(row);
            handles.push(t as Handle);
        }
    }
    DynamicIndex::with_handles(
        &Relation::from_flat_unchecked(dims, flat),
        handles,
        DlOptions::default(),
        0.5,
    )
    .unwrap()
}

/// A router config that fails fast and deterministically: no retries, a
/// single failure takes the shard Down, probes time out quickly.
fn chaos_config() -> RouterConfig {
    RouterConfig {
        retry: RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        },
        probe_timeout: Some(Duration::from_millis(20)),
        down_after: 1,
    }
}

/// The tentpole matrix: inject a panic, an I/O error, and a stall (which
/// trips the carved probe timeout) at one shard's probe site, and a
/// panic at its step site in the middle of the router's merge, mid-load,
/// through the full server + wire protocol. Each mode must yield a
/// complete reply with exact survivor-oracle ids and explicit degraded
/// coverage — zero protocol errors — and the shard must rejoin from its
/// own directory afterwards with answers restored to the full oracle.
#[test]
fn injected_failure_matrix_degrades_then_recovers() {
    let p = 3;
    let dead = 1usize;
    let modes: [(&str, &'static str, FailAction); 4] = [
        ("io", shard_site(dead), FailAction::Error),
        ("panic", shard_site(dead), FailAction::Panic),
        ("stall", shard_site(dead), FailAction::Sleep(200)),
        ("mid-merge panic", shard_step_site(dead), FailAction::Panic),
    ];
    for (name, site, action) in modes {
        let _g = guard();
        let rel = WorkloadSpec::new(Distribution::Independent, 2, 150, 23).generate();
        let root = tmpdir(&format!("matrix_{name}"));
        let stores = create_sharded(&root, &rel, p, &opts()).unwrap();
        let shards: Vec<ServedShard> = stores
            .into_iter()
            .enumerate()
            .map(|(s, st)| ServedShard::new(s, st))
            .collect();
        let router = Arc::new(ShardRouter::new(shards, chaos_config()).unwrap());
        let handle = Server::start_sharded(
            Arc::clone(&router),
            ServerConfig::new().addr("127.0.0.1:0").workers(2),
        )
        .unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();

        let w = vec![0.4, 0.6];
        let k = 12;
        let full = survivor_oracle(&rel, p, &[]);
        let weights = Weights::new(w.clone()).unwrap();
        let full_ids = full.topk(&weights, k).0;

        // Healthy baseline: full coverage, bit-identical to the oracle.
        let reply = client.query(&w, k as u32, 0, 0).unwrap();
        assert_eq!(reply.ids, full_ids, "{name}: healthy baseline");
        assert!(reply.is_full_coverage(), "{name}: baseline coverage");

        // Inject the fault at shard 1's site and query mid-load. The
        // mid-merge panic fires at the shard's last step of the query the
        // baseline ran, after its earlier rows entered the merge: they
        // must leave it.
        let nth = if site == shard_step_site(dead) {
            assert!(full_ids.iter().any(|&h| shard_of(h, p) == dead));
            visits(site) - 1
        } else {
            0
        };
        arm(site, nth, action.clone());
        let survivors = survivor_oracle(&rel, p, &[dead]);
        let reply = client.query(&w, k as u32, 0, 0).unwrap();
        assert_eq!(
            reply.ids,
            survivors.topk(&weights, k).0,
            "{name}: degraded ids must be the exact survivor-partition top-k"
        );
        assert_eq!(reply.truncated, None, "{name}: degraded is not truncated");
        let cov = reply.coverage.expect("degraded reply carries coverage");
        assert_eq!(cov.total(), p, "{name}");
        assert_eq!(
            cov.skipped(),
            vec![dead],
            "{name}: coverage names the shard"
        );
        assert_eq!(
            router.health()[dead],
            ShardHealth::Down,
            "{name}: one failure past the (zero) retry budget takes it Down"
        );

        // While Down the shard is neither lent nor stepped: degraded
        // replies are free.
        let before = (visits(shard_site(dead)), visits(shard_step_site(dead)));
        let reply = client.query(&w, k as u32, 0, 0).unwrap();
        assert_eq!(
            reply.coverage.expect("still degraded").skipped(),
            vec![dead]
        );
        assert_eq!(
            (visits(shard_site(dead)), visits(shard_step_site(dead))),
            before,
            "{name}: a Down shard must be skipped, not probed"
        );

        // Recovery: reopen the shard from its own directory (the faults
        // above are transient — its WAL/snapshot are intact), swap it in,
        // and mark it Up. Answers return to the full oracle bit-for-bit.
        let (store, report) = DurableDynamicIndex::open(&shard_dir(&root, dead), opts()).unwrap();
        assert!(!report.torn_tail, "{name}: clean shard recovery");
        router.shard(dead).replace(store);
        router.mark_up(dead);
        let reply = client.query(&w, k as u32, 0, 0).unwrap();
        assert_eq!(reply.ids, full_ids, "{name}: post-recovery bit-identity");
        assert!(reply.is_full_coverage(), "{name}: post-recovery coverage");

        handle.shutdown();
    }
}

/// At-rest corruption: a shard whose newest snapshot rots recovers from
/// its previous generation + WAL — its *own* directory only; the peers'
/// files must not change by one byte. A shard trashed beyond recovery
/// is quarantined behind an unavailable slot and the deployment serves
/// degraded around it.
#[test]
fn corrupt_snapshot_quarantines_to_one_shard() {
    let _g = guard();
    let p = 3;
    let rel = WorkloadSpec::new(Distribution::Independent, 2, 120, 5).generate();
    let root = tmpdir("corrupt");
    let mut stores = create_sharded(&root, &rel, p, &opts()).unwrap();

    // Give shard 1 history: a checkpoint (generation 1) plus a WAL tail,
    // so recovery has a previous generation to fall back to.
    let extra: Handle = {
        let s1 = &mut stores[1];
        s1.checkpoint().unwrap();
        let h = s1.index().next_handle();
        // Round up to the next handle ≡ 1 (mod p): shard 1's id class.
        let h = h + (1 + p as u64 - h % p as u64) % p as u64;
        s1.insert_with_handle(h, &[0.0, 0.0]).unwrap();
        h
    };
    assert_eq!(shard_of(extra, p), 1);
    drop(stores);

    // Rot the newest snapshot of shard 1; leave its WAL alone.
    let dir1 = shard_dir(&root, 1);
    let newest_snap = {
        let mut snaps: Vec<PathBuf> = fs::read_dir(&dir1)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|f| {
                f.file_name()
                    .unwrap()
                    .to_str()
                    .unwrap()
                    .starts_with("snapshot.")
            })
            .collect();
        snaps.sort();
        snaps.pop().unwrap()
    };
    let mut bytes = fs::read(&newest_snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(&newest_snap, &bytes).unwrap();

    // Fingerprint the peers before shard 1's recovery runs.
    let fingerprint = |s: usize| -> Vec<(PathBuf, Vec<u8>)> {
        let mut files: Vec<PathBuf> = fs::read_dir(shard_dir(&root, s))
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        files
            .into_iter()
            .map(|f| (f.clone(), fs::read(&f).unwrap()))
            .collect()
    };
    let peers_before = (fingerprint(0), fingerprint(2));

    // Shard 1 recovers by skipping the rotten snapshot; the acked insert
    // survives via the WAL.
    let (store1, report) = DurableDynamicIndex::open(&dir1, opts()).unwrap();
    assert!(report.snapshots_skipped > 0, "rotten snapshot was skipped");
    assert!(store1.index().get(extra).is_some(), "acked insert survives");
    assert_eq!(
        peers_before,
        (fingerprint(0), fingerprint(2)),
        "peer shard files must be byte-identical after shard 1's recovery"
    );

    // Served answers post-recovery: bit-identical to an oracle over the
    // full relation plus the extra tuple.
    let reopen = |s: usize| {
        DurableDynamicIndex::open(&shard_dir(&root, s), opts())
            .unwrap()
            .0
    };
    let shards = vec![
        ServedShard::new(0, reopen(0)),
        ServedShard::new(1, store1),
        ServedShard::new(2, reopen(2)),
    ];
    let router = ShardRouter::new(shards, chaos_config()).unwrap();
    let weights = Weights::new(vec![0.5, 0.5]).unwrap();
    let routed = router.topk(&weights, 10, &QueryBudget::unlimited());
    assert!(routed.coverage.is_full());
    // The [0, 0] tuple minimizes every weighting: it must lead.
    assert_eq!(routed.ids.first(), Some(&extra));

    // Beyond-recovery damage: trash the whole directory. The slot goes
    // unavailable, the deployment serves degraded around it.
    for entry in fs::read_dir(&dir1).unwrap() {
        fs::write(entry.unwrap().path(), b"garbage").unwrap();
    }
    let err = DurableDynamicIndex::open(&dir1, opts()).unwrap_err();
    let shards = vec![
        ServedShard::new(0, reopen(0)),
        ServedShard::unavailable(1, 2, err.to_string()),
        ServedShard::new(2, reopen(2)),
    ];
    let router = ShardRouter::new(shards, chaos_config()).unwrap();
    router.cordon(1);
    let survivors = survivor_oracle(&rel, p, &[1]);
    let routed = router.topk(&weights, 10, &QueryBudget::unlimited());
    assert_eq!(routed.coverage.skipped(), vec![1]);
    assert_eq!(routed.ids, survivors.topk(&weights, 10).0);
}

/// Rejoin serves no stale answers: a result cache filled before the
/// shard died must not leak pre-recovery answers after the shard comes
/// back with *more* data (replayed from its WAL). The generation stamp
/// on every cache entry is what enforces this.
#[test]
fn rejoin_serves_no_stale_cached_answers() {
    let _g = guard();
    let p = 2;
    let rel = WorkloadSpec::new(Distribution::Independent, 2, 80, 13).generate();
    let root = tmpdir("stale");
    let mut stores = create_sharded(&root, &rel, p, &opts()).unwrap();
    // One cache per shard: the key space has no shard identity in it, so
    // sharing a cache across shard indexes would cross answers.
    for st in &mut stores {
        st.attach_cache(Arc::new(ResultCache::default()));
    }
    let shards: Vec<ServedShard> = stores
        .into_iter()
        .enumerate()
        .map(|(s, st)| ServedShard::new(s, st))
        .collect();
    let router = ShardRouter::new(shards, chaos_config()).unwrap();
    let weights = Weights::new(vec![0.3, 0.7]).unwrap();

    // Warm the cache with the pre-mutation answer.
    let before = router.topk(&weights, 8, &QueryBudget::unlimited());
    assert!(before.coverage.is_full());

    // Mutate shard 0's directory the way an operator tool in another
    // process would: open it, insert a tuple that dominates everything,
    // logged to its WAL (acked), then crash (drop without checkpoint).
    // The served store never sees the insert until it is recovered from
    // disk.
    let (mut writer, _) = DurableDynamicIndex::open(&shard_dir(&root, 0), opts()).unwrap();
    let h = writer.index().next_handle();
    let h = h + (p as u64 - h % p as u64) % p as u64;
    writer.insert_with_handle(h, &[0.0, 0.0]).unwrap();
    drop(writer);
    assert_eq!(shard_of(h, p), 0);
    let (recovered, report) = DurableDynamicIndex::open(&shard_dir(&root, 0), opts()).unwrap();
    assert!(report.replayed > 0, "the insert must come back via the WAL");
    router.shard(0).replace(recovered);
    router.mark_up(0);

    // Same weights, same k: the answer must now lead with the new
    // tuple — a stale cache hit would reproduce `before` instead.
    let after = router.topk(&weights, 8, &QueryBudget::unlimited());
    assert!(after.coverage.is_full());
    assert_eq!(after.ids.first(), Some(&h), "new tuple leads post-rejoin");
    assert_ne!(
        after.ids, before.ids,
        "pre-recovery answer must not survive"
    );
}
