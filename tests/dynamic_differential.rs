//! Differential suite for dynamic reads.
//!
//! A [`DynamicIndex`] read merges the static index's best-first cursor,
//! which skips tombstoned handles, with the live buffered rows, which it
//! scores only as it reaches them through their dominance forest. The
//! oracle is a brute-force sort of the live set by `(score, handle)`.
//! Four properties are pinned: a delete outside the answer costs a read
//! nothing; a read capped anywhere from cost 0 to its full cost returns
//! a true prefix of the oracle's answer, marked truncated exactly when it
//! is short; any interleaving of inserts, deletes and rebuilds answers
//! like the oracle and never costs more than scoring every live buffered
//! row did; and buffered rows behind a dominator the read never reaches
//! cost it nothing.

use drtopk::common::{dominates, topk_bruteforce, Distribution, Weights, WorkloadSpec};
use drtopk::core::{DlOptions, DynamicIndex, DynamicState, Handle, QueryBudget, TruncateReason};
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

/// The static index under `index`, with nothing buffered or deleted.
fn static_twin(index: &DynamicIndex, fraction: f64) -> DynamicIndex {
    let state = DynamicState {
        buffer: Vec::new(),
        tombstones: Vec::new(),
        ..index.to_state()
    };
    DynamicIndex::from_state(&state, DlOptions::dl_plus(), fraction).unwrap()
}

/// The live buffered handles that are some other live buffered row's
/// parent: its oldest older dominator.
fn parents(index: &DynamicIndex, buffered: &[Handle]) -> Vec<Handle> {
    let row = |h: Handle| index.get(h).expect("live");
    let mut parents: Vec<Handle> = buffered
        .iter()
        .enumerate()
        .filter_map(|(i, &c)| {
            let older = buffered[..i].iter();
            older.copied().find(|&p| dominates(row(p), row(c)))
        })
        .collect();
    parents.sort_unstable();
    parents.dedup();
    parents
}

/// Seeded interleavings of inserts, deletes and rebuilds: dominated
/// chains, exact duplicates, newer rows dominating older ones, deletes of
/// buffered parents, of other buffered rows and of indexed rows. Every
/// read matches the oracle at k in {1, 10, 50, len}, and costs at most
/// what scoring every live buffered row cost before: the static index's
/// own top-k cost, with one more answer per deleted indexed row, plus the
/// live buffered rows. A state round trip rebuilds the forest with the
/// same answers and costs.
#[test]
fn seeded_interleavings_match_the_oracle_within_the_buffer_scan_cost() {
    const D: usize = 3;
    const FRACTION: f64 = 0.1;
    let rel = WorkloadSpec::new(Distribution::Independent, D, 1_500, 61).generate();
    let mut dynamic = DynamicIndex::new(&rel, DlOptions::dl_plus(), FRACTION);
    let mut twin = static_twin(&dynamic, FRACTION);
    let mut rng = StdRng::seed_from_u64(0xF0_2E57);
    // Live buffered handles, ascending, and indexed rows deleted since
    // the last rebuild.
    let mut buffered: Vec<Handle> = Vec::new();
    let mut deleted_indexed = 0usize;
    let (mut rebuilds, mut compactions) = (0, 0);
    // Cases seen: chain, duplicate, newer dominator, parent delete,
    // other buffered delete, indexed delete, round trip.
    let mut seen = [0usize; 7];
    let jitter = |rng: &mut StdRng| rng.gen_range(0.001..0.05);
    for step in 0..1_500 {
        let ctx = format!("step {step}");
        let op = rng.gen_range(0..12);
        let pick = |rng: &mut StdRng, from: &[Handle]| from[rng.gen_range(0..from.len())];
        let mut row: Option<Vec<f64>> = None;
        match op {
            0 | 1 => {
                // Half the fresh rows score low enough to reach answers.
                let hi = if op == 0 { 0.3 } else { 0.999 };
                row = Some((0..D).map(|_| rng.gen_range(0.0..hi)).collect());
            }
            2 if !buffered.is_empty() => {
                // A chain: each row dominated by the newest buffered one.
                let base = dynamic.get(*buffered.last().unwrap()).unwrap();
                let r: Vec<f64> = base
                    .iter()
                    .map(|&x| (x + jitter(&mut rng)).min(1.0))
                    .collect();
                row = Some(r);
                seen[0] += 1;
            }
            3 => {
                let live: Vec<Handle> = (0..dynamic.next_handle())
                    .filter(|&h| dynamic.get(h).is_some())
                    .collect();
                row = Some(dynamic.get(pick(&mut rng, &live)).unwrap().to_vec());
                seen[1] += 1;
            }
            4 if !buffered.is_empty() => {
                let base = dynamic.get(pick(&mut rng, &buffered)).unwrap();
                let r: Vec<f64> = base
                    .iter()
                    .map(|&x| (x - jitter(&mut rng)).max(0.0))
                    .collect();
                row = Some(r);
                seen[2] += 1;
            }
            5 => {
                let parents = parents(&dynamic, &buffered);
                if !parents.is_empty() {
                    let h = pick(&mut rng, &parents);
                    assert!(dynamic.delete(h), "{ctx}: parent {h} is live");
                    buffered.retain(|&b| b != h);
                    seen[3] += 1;
                }
            }
            6 if !buffered.is_empty() => {
                let h = pick(&mut rng, &buffered);
                assert!(dynamic.delete(h), "{ctx}: buffered {h} is live");
                buffered.retain(|&b| b != h);
                seen[4] += 1;
            }
            7 => {
                let h = rng.gen_range(0..dynamic.next_handle());
                if buffered.binary_search(&h).is_err() && dynamic.delete(h) {
                    deleted_indexed += 1;
                    seen[5] += 1;
                }
            }
            _ => {
                let w = Weights::random(D, &mut rng);
                let len = dynamic.len();
                for k in [1, 10, 50, len] {
                    let ctx = format!("{ctx} k={k}");
                    let (ids, cost) = dynamic.topk(&w, k);
                    assert_eq!(ids, oracle(&dynamic, &w, k), "{ctx}");
                    let reach = (k + deleted_indexed).min(twin.len());
                    let scan = twin.topk(&w, reach).1.total() + buffered.len() as u64;
                    assert!(cost.total() <= scan, "{ctx}: cost {cost:?} above {scan}");
                }
            }
        }
        if let Some(row) = row {
            let h = dynamic.insert(&row).unwrap();
            buffered.push(h);
        }
        if dynamic.rebuilds() != rebuilds {
            rebuilds = dynamic.rebuilds();
            compactions += 1;
            buffered.clear();
            deleted_indexed = 0;
            twin = static_twin(&dynamic, FRACTION);
        }
        if step % 100 == 99 {
            let back =
                DynamicIndex::from_state(&dynamic.to_state(), DlOptions::dl_plus(), FRACTION)
                    .unwrap();
            for _ in 0..4 {
                let w = Weights::random(D, &mut rng);
                let k = rng.gen_range(1..=60);
                assert_eq!(back.topk(&w, k), dynamic.topk(&w, k), "{ctx}: round trip");
            }
            dynamic = back;
            rebuilds = dynamic.rebuilds();
            seen[6] += 1;
        }
    }
    assert!(compactions > 0, "the run must rebuild");
    assert!(
        seen.iter().all(|&n| n > 0),
        "every case must occur: {seen:?}"
    );
}

/// 200 buffered rows all dominated by one older buffered row that scores
/// above the k-th answer: the read scores that row and none of the 200.
#[test]
fn rows_behind_an_unreached_dominator_cost_nothing() {
    const D: usize = 3;
    let rel = WorkloadSpec::new(Distribution::Independent, D, 2_000, 73).generate();
    let twin = DynamicIndex::new(&rel, DlOptions::dl_plus(), 5.0);
    let mut dynamic = twin.clone();
    let gate = vec![0.5; D];
    dynamic.insert(&gate).unwrap();
    let mut rng = StdRng::seed_from_u64(0x6A7E);
    for _ in 0..200 {
        let row: Vec<f64> = (0..D).map(|_| rng.gen_range(0.51..0.999)).collect();
        dynamic.insert(&row).unwrap();
    }
    assert_eq!(dynamic.rebuilds(), 0, "the rows stay buffered");
    for q in 0..10 {
        let w = Weights::random(D, &mut rng);
        let k = [1, 10, 50][q % 3];
        let ctx = format!("q={q} k={k}");
        let kth = dynamic.get(oracle(&dynamic, &w, k)[k - 1]).unwrap();
        assert!(
            w.score(kth) < w.score(&gate),
            "{ctx}: the gate is not reached"
        );
        let (ids, cost) = dynamic.topk(&w, k);
        assert_eq!(ids, oracle(&dynamic, &w, k), "{ctx}");
        let (_, static_cost) = twin.topk(&w, k);
        assert_eq!(cost.evaluated, static_cost.evaluated + 1, "{ctx}");
        assert_eq!(cost.pseudo_evaluated, static_cost.pseudo_evaluated, "{ctx}");
    }
    // A read of everything reaches the gate and then every row behind it.
    let w = Weights::uniform(D);
    let (ids, cost) = dynamic.topk(&w, dynamic.len());
    assert_eq!(ids, oracle(&dynamic, &w, dynamic.len()));
    let (_, full) = twin.topk(&w, twin.len());
    assert_eq!(cost.evaluated, full.evaluated + 201);
}
