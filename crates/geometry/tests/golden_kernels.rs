//! Golden digests of the geometry kernels' exact output.
//!
//! The index build is byte-deterministic only while QuickHull emits the
//! same facets in the same order with the same normal and offset bits, and
//! while the simplex decides every ∃-dominance test the same way
//! (`EdsPolicy::FirstFacet` keeps the first qualifying facet in hull
//! enumeration order). These tests pin that output on seeded inputs,
//! including quantized and near-duplicate point sets where tolerance
//! decisions are close calls. A kernel change that moves a digest changes
//! built indexes; the failure message prints the new table.

use drtopk_common::{Relation, TupleId};
use drtopk_geometry::facet_is_eds;
use drtopk_geometry::hulldd::quickhull;
use drtopk_geometry::lp::{Cmp, LpOutcome, Simplex};
use drtopk_geometry::GEOM_EPS;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Incremental FNV-1a 64.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
}

fn check(what: &str, got: &[(String, u64)], golden: &[(&str, u64)]) {
    let want: Vec<(String, u64)> = golden.iter().map(|&(l, h)| (l.to_string(), h)).collect();
    if got != want.as_slice() {
        let table: String = got
            .iter()
            .map(|(l, h)| format!("        (\"{l}\", 0x{h:016x}),\n"))
            .collect();
        panic!("{what} digests moved; this run's table:\n{table}");
    }
}

/// Seeded point clouds of one shape, `dims` columns, with the apex
/// sentinel `(3, …, 3)` appended the way the convex-skyline extraction
/// calls QuickHull.
fn cloud(shape: &str, dims: usize, n: usize, rng: &mut StdRng) -> Vec<f64> {
    let mut pts = Vec::with_capacity((n + 1) * dims);
    match shape {
        "uniform" => {
            for _ in 0..n * dims {
                pts.push(rng.gen::<f64>());
            }
        }
        // Close to the plane Σx = dims/2: most points are hull vertices.
        "anti" => {
            for _ in 0..n {
                let row: Vec<f64> = (0..dims).map(|_| rng.gen::<f64>()).collect();
                let s: f64 = row.iter().sum();
                for x in row {
                    let v = x * (dims as f64 * 0.5) / s + 0.01 * (rng.gen::<f64>() - 0.5);
                    pts.push(v.clamp(0.0, 1.0));
                }
            }
        }
        // A 1/8 grid: exact duplicates and coplanar runs everywhere.
        "quantized" => {
            for _ in 0..n * dims {
                pts.push((rng.gen::<f64>() * 8.0).round() / 8.0);
            }
        }
        // Nine clusters of points within 1e-7 of their centre.
        "near-dup" => {
            let centres: Vec<f64> = (0..9 * dims).map(|_| rng.gen_range(0.05..0.95)).collect();
            for i in 0..n {
                let c = &centres[(i % 9) * dims..(i % 9 + 1) * dims];
                for &x in c {
                    pts.push((x + 1e-7 * rng.gen::<f64>()).clamp(0.0, 1.0));
                }
            }
        }
        _ => unreachable!("unknown shape {shape}"),
    }
    pts.extend(std::iter::repeat_n(3.0, dims));
    pts
}

#[test]
fn quickhull_output_matches_golden_digests() {
    const GOLDEN: &[(&str, u64)] = &[
        ("uniform d=2", 0x1c91defb6cd44e9f),
        ("uniform d=3", 0x601cf82a18854b3c),
        ("uniform d=4", 0x8461356cd4ef510c),
        ("uniform d=5", 0xc3608fc426dbe62f),
        ("anti d=2", 0x379c38dfc54d93da),
        ("anti d=3", 0xa6a5784f3e2e9efa),
        ("anti d=4", 0x8e82eff53bea8c4c),
        ("anti d=5", 0x32567652a48c80ee),
        ("quantized d=2", 0x3507f22537d04016),
        ("quantized d=3", 0x8620cb69d9929b12),
        ("quantized d=4", 0xdc8ef40a85861f6f),
        ("quantized d=5", 0xc6e37517df6704cd),
        ("near-dup d=2", 0x224d2e9d64007337),
        ("near-dup d=3", 0xb0dfcc6d5677dae0),
        ("near-dup d=4", 0x020302864af77b11),
        ("near-dup d=5", 0x99199ad8eefe582d),
    ];
    let mut got = Vec::new();
    for shape in ["uniform", "anti", "quantized", "near-dup"] {
        for dims in 2..=5 {
            let mut rng = StdRng::seed_from_u64(0x4811 + dims as u64);
            let mut h = Fnv::new();
            // The 5-d near-duplicate digest covers the clouds of up to 30
            // points, the table it was recorded with; the larger ones have
            // their own digest and time bound in
            // `near_duplicate_5d_hulls_end_within_their_budget`.
            let sizes: &[usize] = if shape == "near-dup" && dims == 5 {
                SMALL_SIZES
            } else {
                &[6, 12, 30, 60, 120, 180]
            };
            for &n in sizes {
                for _ in 0..4 {
                    let pts = cloud(shape, dims, n, &mut rng);
                    hash_hull(&mut h, &pts, dims);
                }
            }
            got.push((format!("{shape} d={dims}"), h.0));
        }
    }
    check("quickhull", &got, GOLDEN);
}

/// Cloud sizes the 5-d near-duplicate row of the QuickHull table covers.
const SMALL_SIZES: &[usize] = &[6, 12, 30];

/// Hashes QuickHull's output on `pts`: vertex ids, then facet vertex ids,
/// normal and offset bits in enumeration order, or the error.
fn hash_hull(h: &mut Fnv, pts: &[f64], dims: usize) {
    match quickhull(pts, dims, GEOM_EPS) {
        Ok(hull) => {
            h.u64(hull.vertices.len() as u64);
            for &v in &hull.vertices {
                h.u64(u64::from(v));
            }
            h.u64(hull.facets.len() as u64);
            for f in &hull.facets {
                for &v in &f.vertices {
                    h.u64(u64::from(v));
                }
                for &c in &f.normal {
                    h.f64(c);
                }
                h.f64(f.offset);
            }
        }
        Err(e) => h.bytes(format!("{e:?}").as_bytes()),
    }
}

/// The 5-d near-duplicate sequence continued past its 30-point clouds:
/// four clouds each of 60, 120 and 180 points. QuickHull ends these
/// quickly only because it bounds its cone-adjacency links: without that
/// bound five of the twelve run for more than a minute each. Each hull
/// must end within `PER_HULL`, and the outputs keep their digest.
#[test]
fn near_duplicate_5d_hulls_end_within_their_budget() {
    const GOLDEN: u64 = 0xaf93dbb05fea9231;
    const PER_HULL: Duration = Duration::from_secs(10);
    let dims = 5;
    let mut rng = StdRng::seed_from_u64(0x4811 + dims as u64);
    for &n in SMALL_SIZES {
        for _ in 0..4 {
            cloud("near-dup", dims, n, &mut rng);
        }
    }
    let mut h = Fnv::new();
    for n in [60, 120, 180] {
        for i in 0..4 {
            let pts = cloud("near-dup", dims, n, &mut rng);
            let start = Instant::now();
            hash_hull(&mut h, &pts, dims);
            let took = start.elapsed();
            assert!(
                took < PER_HULL,
                "{n}-point cloud {i} took {took:?}, over {PER_HULL:?}"
            );
        }
    }
    check(
        "5-d near-duplicate quickhull",
        &[("near-dup d=5, n = 60..180".to_string(), h.0)],
        &[("near-dup d=5, n = 60..180", GOLDEN)],
    );
}

/// Seeded ∃-dominance tests: random facets of 1..=d members and targets
/// placed near a virtual point of each facet, so decisions sit close to
/// the boundary and most tests reach the simplex.
#[test]
fn facet_is_eds_decisions_match_golden_digests() {
    const GOLDEN: &[(&str, u64)] = &[
        ("uniform d=2", 0xd2249d26f75c99e4),
        ("uniform d=3", 0x6cd871f7ebbb129f),
        ("uniform d=4", 0x140ce409e8c0eed7),
        ("uniform d=5", 0x1caecbc8573a5b53),
        ("quantized d=2", 0x1207440f0d8507ec),
        ("quantized d=3", 0x821aa1d81312dd4a),
        ("quantized d=4", 0x8e0e39f35e0adccd),
        ("quantized d=5", 0x6bf350a9bc045489),
    ];
    let mut got = Vec::new();
    for quantized in [false, true] {
        for dims in 2..=5 {
            let mut rng = StdRng::seed_from_u64(0xED5 + dims as u64);
            let mut rows: Vec<Vec<f64>> = Vec::new();
            let mut cases: Vec<(Vec<TupleId>, TupleId)> = Vec::new();
            let snap = |x: f64| {
                if quantized {
                    (x * 16.0).round() / 16.0
                } else {
                    x
                }
            };
            for _ in 0..1_500 {
                let m = rng.gen_range(1..=dims);
                let first = rows.len() as TupleId;
                let mut lambda: Vec<f64> = (0..m).map(|_| rng.gen::<f64>()).collect();
                let total: f64 = lambda.iter().sum();
                for l in &mut lambda {
                    *l /= total;
                }
                let mut virt = vec![0.0; dims];
                for l in &lambda {
                    let row: Vec<f64> = (0..dims).map(|_| snap(rng.gen::<f64>())).collect();
                    for (v, x) in virt.iter_mut().zip(&row) {
                        *v += l * x;
                    }
                    rows.push(row);
                }
                let target: Vec<f64> = virt
                    .iter()
                    .map(|&v| snap((v + rng.gen_range(-0.05..0.15)).clamp(0.0, 1.0)))
                    .collect();
                rows.push(target);
                let facet: Vec<TupleId> = (first..first + m as TupleId).collect();
                cases.push((facet, first + m as TupleId));
            }
            let rel = Relation::from_rows(dims, &rows).unwrap();
            let mut h = Fnv::new();
            let mut yes = 0;
            for (facet, target) in &cases {
                let eds = facet_is_eds(&rel, facet, *target);
                yes += usize::from(eds);
                h.bytes(&[u8::from(eds)]);
            }
            assert!(
                yes > cases.len() / 10 && yes < cases.len() * 9 / 10,
                "d={dims}: {yes} of {} tests were EDS; the cases test nothing",
                cases.len()
            );
            let label = if quantized { "quantized" } else { "uniform" };
            got.push((format!("{label} d={dims}"), h.0));
        }
    }
    check("facet_is_eds", &got, GOLDEN);
}

/// Seeded linear programs over every constraint kind, including negative
/// right-hand sides (row normalization), redundant equalities (artificials
/// left basic after phase 1) and infeasible or unbounded programs.
#[test]
fn simplex_outcomes_match_golden_digests() {
    const GOLDEN: &[(&str, u64)] = &[
        ("vars=1", 0x87ef3bf7e4daa70c),
        ("vars=2", 0x834ae1c393ed6ab2),
        ("vars=3", 0xfbbecf7bf2eab2cf),
        ("vars=4", 0xe1dff3350df1dd38),
        ("vars=5", 0x0b79f7ecf8f9c8b5),
        ("vars=6", 0xa95b7435e6f324bf),
    ];
    let mut got = Vec::new();
    for vars in 1..=6 {
        let mut rng = StdRng::seed_from_u64(0x51A + vars as u64);
        let mut h = Fnv::new();
        for _ in 0..400 {
            let obj: Vec<f64> = (0..vars).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let mut s = Simplex::maximize(obj);
            let mut prev: Option<(Vec<f64>, f64)> = None;
            for _ in 0..rng.gen_range(1..=vars + 2) {
                let (coeffs, rhs) = match prev.take() {
                    // Repeat the last row scaled by two: a redundant row.
                    Some((c, b)) if rng.gen_range(0..6) == 0 => {
                        (c.iter().map(|x| 2.0 * x).collect(), 2.0 * b)
                    }
                    _ => (
                        (0..vars)
                            .map(|_| (rng.gen_range(-3.0..3.0f64) * 4.0).round() / 4.0)
                            .collect::<Vec<f64>>(),
                        rng.gen_range(-2.0..5.0),
                    ),
                };
                let cmp = match rng.gen_range(0..4) {
                    0 | 1 => Cmp::Le,
                    2 => Cmp::Ge,
                    _ => Cmp::Eq,
                };
                s.constraint(&coeffs, cmp, rhs);
                prev = Some((coeffs, rhs));
            }
            match s.solve() {
                LpOutcome::Optimal { x, value } => {
                    h.bytes(b"O");
                    for xi in x {
                        h.f64(xi);
                    }
                    h.f64(value);
                }
                LpOutcome::Infeasible => h.bytes(b"I"),
                LpOutcome::Unbounded => h.bytes(b"U"),
            }
        }
        got.push((format!("vars={vars}"), h.0));
    }
    check("simplex", &got, GOLDEN);
}
