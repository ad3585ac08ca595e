//! Differential suite for dynamic reads.
//!
//! A [`DynamicIndex`] read merges the static index's best-first cursor,
//! which skips tombstoned handles, with the sorted live buffer. The
//! oracle is a brute-force sort of the live set by `(score, handle)`.
//! Two properties are pinned: a delete outside the answer costs a read
//! nothing, and a read capped anywhere from cost 0 to its full cost
//! returns a true prefix of the oracle's answer, marked truncated exactly
//! when it is short.

use drtopk::common::{topk_bruteforce, Distribution, Weights, WorkloadSpec};
use drtopk::core::{DlOptions, DynamicIndex, Handle, QueryBudget, TruncateReason};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The live set's top-k by `(score, handle)`.
fn oracle(index: &DynamicIndex, w: &Weights, k: usize) -> Vec<Handle> {
    let mut live: Vec<(f64, Handle)> = (0..index.next_handle())
        .filter_map(|h| index.get(h).map(|row| (w.score(row), h)))
        .collect();
    live.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
    live.into_iter().take(k).map(|(_, h)| h).collect()
}

/// Deleting tuples that no read would return must not make the read pop
/// them: ids match the oracle and the cost equals the undeleted twin's.
#[test]
fn deletes_outside_the_answer_do_not_raise_its_cost() {
    const N: usize = 3_000;
    const DELETES: usize = 150;
    let rel = WorkloadSpec::new(Distribution::Independent, 3, N, 23).generate();
    let twin = DynamicIndex::new(&rel, DlOptions::dl_plus(), 0.5);
    let mut rng = StdRng::seed_from_u64(0xDE1E7E);
    for q in 0..12 {
        let w = Weights::random(3, &mut rng);
        let k = [1, 10, 25][q % 3];
        // Handles are positions here, so the static oracle names them.
        let keep = topk_bruteforce(&rel, &w, k + 1);
        // Half the deletes sit just behind the answer, half anywhere.
        let ranked = topk_bruteforce(&rel, &w, k + 1 + DELETES);
        let mut doomed: Vec<Handle> = ranked[k + 1..][..DELETES / 2]
            .iter()
            .map(|&t| Handle::from(t))
            .collect();
        while doomed.len() < DELETES {
            let h = rng.gen_range(0..N as Handle);
            if !keep.contains(&(h as u32)) && !doomed.contains(&h) {
                doomed.push(h);
            }
        }
        let mut dynamic = twin.clone();
        for &h in &doomed {
            assert!(dynamic.delete(h), "handle {h} is live");
        }
        assert_eq!(dynamic.rebuilds(), 0, "tombstones stay pending");
        let ctx = format!("q={q} k={k}");
        let (ids, cost) = dynamic.topk(&w, k);
        assert_eq!(ids, oracle(&dynamic, &w, k), "{ctx}");
        assert_eq!(
            cost,
            twin.topk(&w, k).1,
            "{ctx}: tombstones raised the cost"
        );
    }
}

/// Every cost cap from 0 to past the full cost, with buffered rows that
/// win answers and tombstones inside the answer: each capped read is a
/// true prefix, it is truncated exactly when short, and it never gets
/// shorter as the cap grows.
#[test]
fn capped_dynamic_reads_are_true_prefixes() {
    let d = 3;
    let rel = WorkloadSpec::new(Distribution::AntiCorrelated, d, 2_000, 41).generate();
    let mut dynamic = DynamicIndex::new(&rel, DlOptions::dl_plus(), 0.5);
    let mut rng = StdRng::seed_from_u64(0xCA9);
    for i in 0..40 {
        // Half the inserts score low enough to reach the answers.
        let hi = if i % 2 == 0 { 0.3 } else { 0.999 };
        let row: Vec<f64> = (0..d).map(|_| rng.gen_range(0.001..hi)).collect();
        dynamic.insert(&row).unwrap();
    }
    // Half the tombstones fall in the uniform weight's top 60.
    let mut doomed = oracle(&dynamic, &Weights::uniform(d), 60);
    doomed.retain(|&h| h < rel.len() as Handle);
    doomed.truncate(30);
    while doomed.len() < 60 {
        let h = rng.gen_range(0..rel.len() as Handle);
        if !doomed.contains(&h) {
            doomed.push(h);
        }
    }
    for &h in &doomed {
        assert!(dynamic.delete(h), "handle {h} is live");
    }
    assert_eq!(dynamic.pending(), 100);
    assert_eq!(dynamic.rebuilds(), 0, "buffer and tombstones stay pending");

    let mut midway = 0;
    let weights = std::iter::once(Weights::uniform(d))
        .chain((0..5).map(|_| Weights::random(d, &mut rng)))
        .collect::<Vec<_>>();
    for (q, w) in weights.iter().enumerate() {
        for k in [1, 10, 40] {
            let ctx = format!("q={q} k={k}");
            let want = oracle(&dynamic, w, k);
            let full = dynamic.topk_guarded(w, k, &QueryBudget::unlimited());
            assert_eq!((&full.ids, full.truncated), (&want, None), "{ctx}");
            let mut prev_len = 0;
            for cap in 0..=full.cost.total() + 2 {
                let budget = QueryBudget::unlimited().with_max_cost(cap);
                let got = dynamic.topk_guarded(w, k, &budget);
                let ctx = format!("{ctx} cap={cap}");
                assert!(want.starts_with(&got.ids), "{ctx}: not a true prefix");
                assert_eq!(got.truncated.is_none(), got.ids == want, "{ctx}");
                if let Some(reason) = got.truncated {
                    assert_eq!(reason, TruncateReason::CostExceeded, "{ctx}");
                    midway += usize::from(!got.ids.is_empty());
                }
                assert!(
                    got.ids.len() >= prev_len,
                    "{ctx}: a larger cap lost answers"
                );
                prev_len = got.ids.len();
                if cap >= full.cost.total() {
                    assert_eq!(got, full, "{ctx}: a cap the read fits in never trips");
                }
            }
        }
    }
    assert!(
        midway > 0,
        "some cap must trip a read after it found answers"
    );
}
