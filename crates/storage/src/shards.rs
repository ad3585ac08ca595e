//! On-disk layout of a sharded durable deployment.
//!
//! A sharded deployment is a root directory holding one subdirectory per
//! shard, each a fully independent [`DurableDynamicIndex`] store (its own
//! WAL + snapshot generations):
//!
//! ```text
//! root/
//!   shard.0000/   snapshot.*.drt, wal.*.log   (tuples with h % P == 0)
//!   shard.0001/   ...                         (tuples with h % P == 1)
//!   ...
//! ```
//!
//! Independence is the point: a crash, torn WAL, or at-rest corruption in
//! one shard's directory quarantines to that shard — its peers' files are
//! never read, written, or pruned by its recovery. A serving path lists
//! the shards with [`list_shard_dirs`] and opens each with
//! [`DurableDynamicIndex::open`], so it can bring the healthy shards up
//! and leave a damaged one Down for `drtopk recover --shard N`.

use crate::durable::{DurableDynamicIndex, DurableOptions};
use drtopk_common::{Error, Relation};
use drtopk_core::shard::{partition_relation, MAX_SHARDS};
use std::fs;
use std::path::{Path, PathBuf};

/// Directory name of shard `s` (`shard.0000` … zero-padded so listings
/// sort numerically).
pub fn shard_dir_name(s: usize) -> String {
    format!("shard.{s:04}")
}

/// Path of shard `s` under a deployment root.
pub fn shard_dir(root: &Path, s: usize) -> PathBuf {
    root.join(shard_dir_name(s))
}

/// Lists the shard directories under `root`, ascending by shard id.
/// Errors if the ids are not exactly `0..P` for some `P` (a gap means a
/// shard's directory is missing — losing a partition silently is not an
/// option).
pub fn list_shard_dirs(root: &Path) -> Result<Vec<PathBuf>, Error> {
    let mut ids = Vec::new();
    let entries = fs::read_dir(root).map_err(|e| Error::Io(e.to_string()))?;
    for entry in entries {
        let entry = entry.map_err(|e| Error::Io(e.to_string()))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(id) = name.strip_prefix("shard.") else {
            continue;
        };
        if let Ok(s) = id.parse::<usize>() {
            ids.push(s);
        }
    }
    ids.sort_unstable();
    for (expect, &got) in ids.iter().enumerate() {
        if got != expect {
            return Err(Error::Invalid(format!(
                "shard directories under {} are not contiguous: expected shard {expect}, \
                 found shard {got}",
                root.display()
            )));
        }
    }
    Ok(ids.into_iter().map(|s| shard_dir(root, s)).collect())
}

/// Creates a `P`-way sharded deployment under `root` from an initial
/// relation: partitions by tuple id (shard `s` holds global handles
/// `h % P == s`, see [`partition_relation`]) and creates one durable
/// store per shard. `root` must not already hold shards.
pub fn create_sharded(
    root: &Path,
    rel: &Relation,
    shards: usize,
    options: &DurableOptions,
) -> Result<Vec<DurableDynamicIndex>, Error> {
    if shards == 0 || shards > MAX_SHARDS {
        return Err(Error::Invalid(format!(
            "shard count {shards} outside 1..={MAX_SHARDS}"
        )));
    }
    fs::create_dir_all(root).map_err(|e| Error::Io(e.to_string()))?;
    if !list_shard_dirs(root)?.is_empty() {
        return Err(Error::Invalid(format!(
            "{} already holds a sharded deployment; open it instead",
            root.display()
        )));
    }
    let parts = partition_relation(rel, shards)?;
    let mut stores = Vec::with_capacity(shards);
    for (s, (shard_rel, handles)) in parts.into_iter().enumerate() {
        let dir = shard_dir(root, s);
        stores.push(DurableDynamicIndex::create_with_handles(
            &dir,
            &shard_rel,
            handles,
            options.clone(),
        )?);
    }
    Ok(stores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtopk_common::{Distribution, Weights, WorkloadSpec};
    use drtopk_core::shard::{RouterConfig, ShardRouter};
    use drtopk_core::{DlOptions, DynamicIndex, QueryBudget};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("drtopk_shards_{name}"));
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
    fn create_open_roundtrip_matches_unsharded_oracle() {
        let root = tmpdir("roundtrip");
        let d = 3;
        let rel = WorkloadSpec::new(Distribution::Independent, d, 250, 41).generate();
        let stores = create_sharded(&root, &rel, 4, &opts()).unwrap();
        assert_eq!(stores.len(), 4);
        assert_eq!(stores.iter().map(|s| s.len()).sum::<usize>(), rel.len());
        drop(stores);

        let reopened: Vec<_> = list_shard_dirs(&root)
            .unwrap()
            .iter()
            .map(|dir| DurableDynamicIndex::open(dir, opts()).unwrap())
            .collect();
        assert_eq!(reopened.len(), 4);
        for (_, report) in &reopened {
            assert_eq!(report.replayed, 0);
            assert!(!report.torn_tail);
        }
        let shards: Vec<DynamicIndex> = reopened
            .into_iter()
            .map(|(s, _)| s.index().clone())
            .collect();
        let router = ShardRouter::new(shards, RouterConfig::default()).unwrap();
        let oracle = DynamicIndex::new(&rel, DlOptions::default(), 0.5);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10 {
            let w = Weights::random(d, &mut rng);
            let k = rng.gen_range(1..=30);
            let routed = router.topk(&w, k, &QueryBudget::unlimited());
            assert_eq!(routed.ids, oracle.topk(&w, k).0);
            assert!(routed.coverage.is_full());
        }
    }

    #[test]
    fn one_corrupt_shard_quarantines_to_itself() {
        let root = tmpdir("quarantine");
        let rel = WorkloadSpec::new(Distribution::Independent, 2, 90, 7).generate();
        let mut stores = create_sharded(&root, &rel, 3, &opts()).unwrap();
        for (i, store) in stores.iter_mut().enumerate() {
            // One mutation per shard so every WAL is non-trivial. Handles
            // keep the global stride: next global handle ≡ shard id (mod 3)
            // is not guaranteed after max+1, so use insert_with_handle.
            let h = store.index().next_handle();
            let h = h + ((3 - (h as usize + 3 - i) % 3) % 3) as u64;
            store.insert_with_handle(h, &[0.5, 0.5]).unwrap();
        }
        drop(stores);

        // Trash shard 1's snapshot *and* WAL beyond repair.
        let bad = shard_dir(&root, 1);
        for entry in fs::read_dir(&bad).unwrap() {
            let p = entry.unwrap().path();
            fs::write(&p, b"garbage").unwrap();
        }
        // Record the peers' bytes to prove their files are never touched.
        let fingerprint = |s: usize| -> Vec<(PathBuf, Vec<u8>)> {
            let mut files: Vec<_> = fs::read_dir(shard_dir(&root, s))
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            files.sort();
            files
                .into_iter()
                .map(|p| (p.clone(), fs::read(&p).unwrap()))
                .collect()
        };
        let before = (fingerprint(0), fingerprint(2));

        let dirs = list_shard_dirs(&root).unwrap();
        assert_eq!(dirs.len(), 3);
        let results: Vec<Result<_, _>> = dirs
            .iter()
            .map(|d| DurableDynamicIndex::open(d, opts()))
            .collect();
        assert!(results[0].is_ok());
        assert!(results[1].is_err(), "shard 1 is damaged");
        assert!(results[2].is_ok());
        assert_eq!(
            before,
            (fingerprint(0), fingerprint(2)),
            "peer shard files must be untouched by shard 1's failed recovery"
        );
    }

    #[test]
    fn layout_validation_rejects_gaps_and_double_create() {
        let root = tmpdir("layout");
        let rel = WorkloadSpec::new(Distribution::Independent, 2, 30, 2).generate();
        create_sharded(&root, &rel, 2, &opts()).unwrap();
        assert!(
            create_sharded(&root, &rel, 2, &opts()).is_err(),
            "double create refused"
        );
        assert!(create_sharded(&tmpdir("layout0"), &rel, 0, &opts()).is_err());
        fs::rename(shard_dir(&root, 0), root.join("shard.0007")).unwrap();
        assert!(
            list_shard_dirs(&root).is_err(),
            "non-contiguous shard ids are a discovery error"
        );
    }
}
