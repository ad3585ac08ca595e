//! A miniature "service" lifecycle: build once, persist to disk, reload,
//! serve queries with reusable scratch, absorb live inserts/deletes with
//! the dynamic wrapper, and account block I/O under the paper's
//! layer-clustered disk layout.
//!
//! Run with: `cargo run --release --example persistent_service`

use drtopk::common::{Distribution, Weights, WorkloadSpec};
use drtopk::core::{DlOptions, DualLayerIndex, DynamicIndex, QueryScratch};
use drtopk::storage::{
    blocks::{query_accesses, BlockLayout, Placement},
    load_index, save_index,
};
use std::time::Instant;

fn main() {
    let dir = std::env::temp_dir().join("drtopk_service");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("catalog.drtopk");

    // Build once, persist.
    let data = WorkloadSpec::new(Distribution::AntiCorrelated, 4, 20_000, 7).generate();
    let t0 = Instant::now();
    let index = DualLayerIndex::build(&data, DlOptions::default());
    println!(
        "built in {:.2?} ({} ∃-edges)",
        t0.elapsed(),
        index.stats().exists_edges
    );
    save_index(&index, &path).expect("persist index");
    println!(
        "persisted to {} ({} KiB)",
        path.display(),
        std::fs::metadata(&path).unwrap().len() / 1024
    );

    // A later process: reload instead of rebuilding.
    let t0 = Instant::now();
    let index = load_index(&path).expect("reload index");
    println!("reloaded in {:.2?}", t0.elapsed());

    // Serve a query burst with reusable scratch.
    let weights: Vec<Weights> = {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        (0..1000).map(|_| Weights::random(4, &mut rng)).collect()
    };
    let mut scratch = QueryScratch::for_index(&index);
    let t0 = Instant::now();
    let mut total_cost = 0u64;
    for w in &weights {
        total_cost += index.topk_with_scratch(w, 10, &mut scratch).cost.total();
    }
    println!(
        "1000 top-10 queries in {:.2?} (mean {:.1} tuples evaluated)",
        t0.elapsed(),
        total_cost as f64 / weights.len() as f64
    );

    // I/O accounting under the paper's disk-based layout note.
    let w = Weights::uniform(4);
    let accesses = query_accesses(&index, &w, 10);
    let clustered = BlockLayout::new(&index, Placement::LayerClustered, 64);
    let heap_file = BlockLayout::new(&index, Placement::InsertionOrder, 64);
    println!(
        "one top-10 query touches {} tuples => {} blocks layer-clustered vs {} heap-file (of {})",
        accesses.len(),
        clustered.blocks_touched(&accesses),
        heap_file.blocks_touched(&accesses),
        clustered.blocks()
    );

    // Live updates via the dynamic wrapper.
    let mut live = DynamicIndex::new(&data, DlOptions::default(), 0.15);
    let before = live.topk(&w, 3).0;
    let killer = live
        .insert(&[0.001, 0.001, 0.001, 0.001])
        .expect("valid row");
    let after = live.topk(&w, 3).0;
    assert_eq!(
        after[0], killer,
        "a dominating insert takes rank 1 immediately"
    );
    live.delete(killer);
    assert_eq!(
        live.topk(&w, 3).0,
        before,
        "delete restores the original answer"
    );
    println!(
        "dynamic wrapper: insert/delete round-trip OK ({} live tuples, {} rebuilds)",
        live.len(),
        live.rebuilds()
    );
}
