//! Locks the public facade API: everything README advertises must work
//! through `drtopk::` paths — persistence, dynamic updates, monotone and
//! threshold queries, batches and the streaming cursor, the list-based
//! baselines, ingestion.

use drtopk::common::{
    relation_from_csv, topk_bruteforce, ColumnSpec, Direction, Distribution, TupleId, Weights,
    WorkloadSpec,
};
use drtopk::core::{
    BatchExecutor, DlOptions, DualLayerIndex, DynamicIndex, QueryBudget, QueryScratch, TopkCursor,
    TruncateReason, WeightedPower, ZeroMode,
};
use drtopk::lists::{nra_topk, ta_topk};
use drtopk::storage::{
    blocks::{query_accesses, BlockLayout, Placement},
    load_index, save_index,
};

#[test]
fn end_to_end_service_lifecycle() {
    let data = WorkloadSpec::new(Distribution::AntiCorrelated, 3, 800, 5).generate();
    let index = DualLayerIndex::build(&data, DlOptions::default());
    let w = Weights::new(vec![0.2, 0.5, 0.3]).unwrap();
    let want = topk_bruteforce(&data, &w, 12);
    assert_eq!(index.topk(&w, 12).ids, want);

    // Persist / reload.
    let dir = std::env::temp_dir().join("drtopk_api_surface");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("idx.drt");
    save_index(&index, &path).unwrap();
    let reloaded = load_index(&path).unwrap();
    assert_eq!(reloaded.topk(&w, 12).ids, want);
    assert_eq!(reloaded.topk(&w, 12).cost, index.topk(&w, 12).cost);

    // Scratch reuse, monotone, threshold.
    let mut scratch = QueryScratch::for_index(&reloaded);
    assert_eq!(reloaded.topk_with_scratch(&w, 12, &mut scratch).ids, want);
    let f = WeightedPower {
        weights: vec![0.2, 0.5, 0.3],
        power: 2.0,
    };
    let mono = reloaded.topk_monotone(&f, 5);
    assert_eq!(mono.ids.len(), 5);
    let bound = w.score(data.tuple(want[4]));
    let range = reloaded.range_by_score(&w, bound);
    assert_eq!(&range.ids[..5], &want[..5]);

    // Block I/O accounting.
    let acc = query_accesses(&reloaded, &w, 12);
    let layout = BlockLayout::new(&reloaded, Placement::LayerClustered, 16);
    assert!(layout.blocks_touched(&acc) >= 1);
    assert!(layout.blocks_touched(&acc) <= acc.len());

    // Dynamic updates.
    let mut dynamic = DynamicIndex::new(&data, DlOptions::default(), 0.25);
    let h = dynamic.insert(&[0.001, 0.001, 0.001]).unwrap();
    assert_eq!(dynamic.topk(&w, 1).0, vec![h]);
    assert!(dynamic.delete(h));
}

#[test]
fn batch_and_streaming_cursor_through_facade() {
    let data = WorkloadSpec::new(Distribution::AntiCorrelated, 3, 600, 17).generate();
    let index = DualLayerIndex::build(&data, DlOptions::default());
    let weights = [
        Weights::new(vec![0.2, 0.5, 0.3]).unwrap(),
        Weights::new(vec![0.6, 0.1, 0.3]).unwrap(),
        Weights::uniform(3),
    ];

    // A batch answers each request as a sequential `topk` would, at two
    // values of k; the last request's cost cap trips mid-traversal.
    let mut requests: Vec<(Weights, usize, QueryBudget)> = Vec::new();
    for k in [1, 25] {
        for w in &weights {
            requests.push((w.clone(), k, QueryBudget::unlimited()));
        }
    }
    let capped = QueryBudget::unlimited().with_max_cost(8);
    requests.push((weights[0].clone(), 25, capped));
    let out = BatchExecutor::with_threads(&index, 2).run_guarded_each(&requests);
    assert_eq!(out.len(), requests.len());
    let (last, complete) = out.split_last().unwrap();
    for ((w, k, _), got) in requests.iter().zip(complete) {
        let got = got.as_ref().expect("no request fails");
        assert!(got.is_complete());
        assert_eq!(got, &index.topk(w, *k), "k={k}");
    }
    let last = last.as_ref().expect("a tripped budget is not an error");
    assert_eq!(last.truncated, Some(TruncateReason::CostExceeded));
    let full = index.topk(&weights[0], 25);
    assert!(last.ids.len() < full.ids.len());
    assert_eq!(last.ids, full.ids[..last.ids.len()], "a true prefix");

    // The streaming cursor yields the same answers, in order, on the
    // caller's scratch.
    let mut scratch = QueryScratch::for_index(&index);
    for w in &weights {
        for k in [1, 25] {
            let cursor = TopkCursor::new(&index, w, &mut scratch, None);
            let streamed: Vec<TupleId> = cursor.take(k).map(|(t, _)| t).collect();
            assert_eq!(streamed, index.topk(w, k).ids, "k={k}");
        }
    }
}

#[test]
fn list_algorithms_through_facade() {
    let data = WorkloadSpec::new(Distribution::Independent, 3, 400, 9).generate();
    let w = Weights::uniform(3);
    let want = topk_bruteforce(&data, &w, 8);
    assert_eq!(ta_topk(&data, &w, 8).0, want);
    assert_eq!(nra_topk(&data, &w, 8).0, want);
}

#[test]
fn csv_to_index_pipeline() {
    let csv = "a,b\n0.9,10\n0.5,20\n0.1,30\n";
    let specs = [
        ColumnSpec {
            column: 0,
            direction: Direction::LowerIsBetter,
        },
        ColumnSpec {
            column: 1,
            direction: Direction::HigherIsBetter,
        },
    ];
    let (rel, norm) = relation_from_csv(csv.as_bytes(), &specs).unwrap();
    assert_eq!(rel.len(), 3);
    let idx = DualLayerIndex::build(
        &rel,
        DlOptions {
            zero: ZeroMode::None,
            ..DlOptions::default()
        },
    );
    // Row 2 (0.1, 30) is best on both axes after normalization.
    let res = idx.topk(&Weights::uniform(2), 1);
    assert_eq!(res.ids, vec![2]);
    let raw = norm.denormalize(rel.tuple(2)).unwrap();
    assert!((raw[0] - 0.1).abs() < 1e-9 && (raw[1] - 30.0).abs() < 1e-6);
}
