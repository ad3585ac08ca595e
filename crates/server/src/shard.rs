//! The served form of one shard: a durable store behind a lock, probed
//! through the core router's [`ShardProbe`] trait.
//!
//! [`ServedShard`] is what [`crate::Server::start_sharded`] hands to the
//! [`ShardRouter`](drtopk_core::ShardRouter): each shard wraps its own
//! [`DurableDynamicIndex`] (own WAL + snapshot directory, see
//! `drtopk_storage::shards`) in an `RwLock`, so queries share read access
//! while recovery swaps a rebuilt store in with a write lock. A shard
//! whose store failed to open still gets a slot
//! ([`ServedShard::unavailable`]) so the deployment serves degraded
//! around it; `drtopk recover --shard N` plus [`ServedShard::replace`]
//! brings it back without restarting peers. The router's frontier reads
//! a shard through [`ShardProbe::lend`], a shard node through
//! [`ShardProbe::probe`]; both make the same checks first: they visit
//! the shard's named failpoint — the chaos suite injects I/O errors,
//! panics, and stalls there to exercise every failure mode the router
//! has to survive — then take the read lock and refuse an unavailable
//! or poisoned store. A lent store stays read-locked until the router's
//! merge ends, so [`ServedShard::replace`] waits it out.

use drtopk_common::Weights;
use drtopk_core::shard::{Lent, ShardAnswer, ShardError, ShardProbe};
use drtopk_core::{DynamicIndex, QueryBudget};
use drtopk_storage::DurableDynamicIndex;
use std::ops::Deref;
use std::sync::{RwLock, RwLockReadGuard};

/// One shard as the server holds it.
#[derive(Debug)]
pub struct ServedShard {
    id: usize,
    /// This shard's failpoint site, interned once here: resolving it
    /// takes a process-wide lock, which no probe should pay.
    site: &'static str,
    dims: usize,
    /// `Err` carries the reason the store is unavailable (failed
    /// recovery at startup); such a shard answers every probe with
    /// [`ShardError::Unavailable`] until [`ServedShard::replace`].
    store: RwLock<Result<DurableDynamicIndex, String>>,
}

impl ServedShard {
    /// Wraps a recovered (or freshly created) durable store as shard `id`.
    pub fn new(id: usize, store: DurableDynamicIndex) -> Self {
        ServedShard {
            id,
            site: drtopk_failpoints::shard_site(id),
            dims: store.index().dims(),
            store: RwLock::new(Ok(store)),
        }
    }

    /// A slot for a shard whose store could not be opened (corrupt
    /// directory, failed recovery): the deployment serves around it with
    /// degraded coverage. `dims` must match the healthy shards'.
    pub fn unavailable(id: usize, dims: usize, reason: impl Into<String>) -> Self {
        ServedShard {
            id,
            site: drtopk_failpoints::shard_site(id),
            dims,
            store: RwLock::new(Err(reason.into())),
        }
    }

    /// This shard's id (its index in the router, and its `h % P` class).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Runs `f` under the read lock if the store is available (metrics,
    /// stats, checkpointing decisions). A lock poisoned by a panicked
    /// probe is still readable: probes never leave the store mid-mutation.
    pub fn with_store<T>(&self, f: impl FnOnce(&DurableDynamicIndex) -> T) -> Option<T> {
        let guard = self.store.read().unwrap_or_else(|e| e.into_inner());
        guard.as_ref().ok().map(f)
    }

    /// Swaps in a re-recovered store (the rejoin path after `drtopk
    /// recover --shard N`): takes the write lock, so it waits out
    /// in-flight probes and every later probe sees the new store.
    pub fn replace(&self, store: DurableDynamicIndex) {
        let mut guard = self.store.write().unwrap_or_else(|e| e.into_inner());
        *guard = Ok(store);
    }
}

impl ServedShard {
    /// The checks every read of this shard makes first: the chaos suite's
    /// failpoint, the read lock, and a store that is there and sound.
    fn read(&self) -> Result<StoreRead<'_>, ShardError> {
        // The chaos suite's injection point: one named site per shard.
        if let Err(e) = drtopk_failpoints::hit(self.site) {
            return Err(ShardError::Io(e.to_string()));
        }
        let guard = self.store.read().unwrap_or_else(|e| e.into_inner());
        match guard.as_ref() {
            Err(reason) => Err(ShardError::Unavailable(reason.clone())),
            // A store poisoned by a write failure still serves reads, but
            // its durability story is broken — surface it so the router
            // marks the shard Down and an operator recovers it.
            Ok(store) => match store.poisoned() {
                Some(msg) => Err(ShardError::Unavailable(format!("store poisoned: {msg}"))),
                None => Ok(StoreRead(guard)),
            },
        }
    }
}

/// A read-locked store that [`ServedShard::read`] found available.
struct StoreRead<'a>(RwLockReadGuard<'a, Result<DurableDynamicIndex, String>>);

impl Deref for StoreRead<'_> {
    type Target = DynamicIndex;

    fn deref(&self) -> &DynamicIndex {
        self.0
            .as_ref()
            .expect("a read holds an available store")
            .index()
    }
}

impl ShardProbe for ServedShard {
    fn lend(&self) -> Option<Result<Lent<'_>, ShardError>> {
        Some(self.read().map(Lent::new))
    }

    fn probe(
        &self,
        w: &Weights,
        k: usize,
        budget: &QueryBudget,
    ) -> Result<ShardAnswer, ShardError> {
        self.read()?.probe(w, k, budget)
    }

    fn dims(&self) -> usize {
        self.dims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtopk_common::{Distribution, WorkloadSpec};
    use drtopk_core::shard::{RouterConfig, ShardRouter};
    use drtopk_core::{DlOptions, DynamicIndex};
    use drtopk_storage::{create_sharded, DurableOptions};
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("drtopk_served_shard_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn served_shards_route_bit_identically() {
        let rel = WorkloadSpec::new(Distribution::Independent, 2, 120, 3).generate();
        let stores = create_sharded(&tmpdir("route"), &rel, 3, &DurableOptions::default()).unwrap();
        let shards: Vec<ServedShard> = stores
            .into_iter()
            .enumerate()
            .map(|(s, st)| ServedShard::new(s, st))
            .collect();
        let router = ShardRouter::new(shards, RouterConfig::default()).unwrap();
        let oracle = DynamicIndex::new(&rel, DlOptions::default(), 0.2);
        let w = Weights::new(vec![0.3, 0.7]).unwrap();
        let routed = router.topk(&w, 10, &QueryBudget::unlimited());
        assert_eq!(routed.ids, oracle.topk(&w, 10).0);
        assert!(routed.coverage.is_full());
    }

    #[test]
    fn unavailable_slot_serves_degraded_until_replaced() {
        let rel = WorkloadSpec::new(Distribution::Independent, 2, 100, 9).generate();
        let root = tmpdir("unavailable");
        let mut stores = create_sharded(&root, &rel, 2, &DurableOptions::default()).unwrap();
        let shard1 = stores.pop().unwrap();
        let shard0 = stores.pop().unwrap();
        let shards = vec![
            ServedShard::new(0, shard0),
            ServedShard::unavailable(1, 2, "recovery failed in the test"),
        ];
        let router = ShardRouter::new(
            shards,
            RouterConfig {
                retry: drtopk_core::RetryPolicy {
                    max_retries: 0,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap();
        let w = Weights::new(vec![0.6, 0.4]).unwrap();
        let routed = router.topk(&w, 8, &QueryBudget::unlimited());
        assert!(routed.coverage.degraded());
        assert_eq!(routed.coverage.skipped(), vec![1]);

        router.shard(1).replace(shard1);
        router.mark_up(1);
        let oracle = DynamicIndex::new(&rel, DlOptions::default(), 0.2);
        let healed = router.topk(&w, 8, &QueryBudget::unlimited());
        assert!(healed.coverage.is_full());
        assert_eq!(healed.ids, oracle.topk(&w, 8).0);
    }
}
