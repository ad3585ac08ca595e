//! General d-dimensional convex hull (QuickHull with conflict lists).
//!
//! Produces the hull's vertex set and facets (d vertices, outward unit
//! normal, offset) with facet adjacency maintained during construction —
//! the beneath–beyond structure QuickHull needs to walk horizons.
//!
//! The kernel keeps facets in flat stride-d arrays and marks the facets a
//! step visits with epoch stamps, so a step allocates nothing once its
//! buffers have grown. Its output is bit-stable: the index build takes
//! the first qualifying facet in this enumeration order, so facet order,
//! normals and offsets are part of every built index (DESIGN.md §4).
//!
//! The convex-skyline extraction in [`crate::csky`] consumes only the
//! *origin-facing* facets (outward normal strictly negative in every
//! component); per the soundness argument in DESIGN.md, downstream index
//! correctness never depends on this hull being exact, so near-coplanar
//! points may be conservatively classified as non-vertices.

/// One hull facet: `d` vertex indices into the input point array, plus the
/// supporting hyperplane `normal · x = offset` with `normal` the outward
/// unit vector (`normal · interior < offset`).
#[derive(Debug, Clone)]
pub struct Facet {
    pub vertices: Vec<u32>,
    pub normal: Vec<f64>,
    pub offset: f64,
}

/// Convex hull output: vertex indices (sorted, deduplicated) and facets.
#[derive(Debug, Clone)]
pub struct Hull {
    pub vertices: Vec<u32>,
    pub facets: Vec<Facet>,
}

/// Why a hull could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HullError {
    /// Fewer than d+1 points, or all points within `eps` of a common
    /// affine subspace of dimension < d.
    Degenerate,
    /// Dimensionality below 2 (1-d "hulls" are just min/max).
    BadDimension,
}

/// QuickHull's working state. Facet `f` owns `verts[f*d..(f+1)*d]`,
/// `normals[f*d..(f+1)*d]` and `offsets[f]`; facets are numbered in
/// creation order and never move. Every buffer survives between builds,
/// so a caller that builds many hulls (a convex-layer peel) allocates only
/// when a hull outgrows the ones before it.
#[derive(Debug, Default)]
pub(crate) struct HullScratch {
    dims: usize,
    verts: Vec<u32>,
    normals: Vec<f64>,
    offsets: Vec<f64>,
    alive: Vec<bool>,
    neighbors: Vec<Vec<u32>>,
    conflicts: Vec<Vec<u32>>,
    /// Emptied neighbor and conflict lists of dead facets, for new ones.
    spare: Vec<Vec<u32>>,
    /// `seen[f] == epoch`: the current visibility walk has reached `f`.
    seen: Vec<u32>,
    /// `visible_at[f] == epoch`: `f` is visible from the current point.
    visible_at: Vec<u32>,
    epoch: u32,
    pending: Vec<u32>,
    visible: Vec<u32>,
    stack: Vec<u32>,
    /// Horizon ridge `h` is `ridges[h*(d-1)..(h+1)*(d-1)]`, shared with the
    /// non-visible facet `horizon[h]`.
    horizon: Vec<u32>,
    ridges: Vec<u32>,
    orphans: Vec<u32>,
    interior: Vec<f64>,
    simplex: Vec<u32>,
    plane: PlaneScratch,
}

/// Buffers of [`plane_through`] and [`initial_simplex`].
#[derive(Debug, Default)]
struct PlaneScratch {
    /// Row-major `(d-1) × d` elimination matrix.
    rows: Vec<f64>,
    pivot_cols: Vec<usize>,
    /// Row-major orthonormal basis of the initial simplex's span.
    basis: Vec<f64>,
    v: Vec<f64>,
}

/// Computes the convex hull of `points` (flat row-major, `dims` columns).
///
/// `eps` is the visibility tolerance: a point within `eps` of a facet's
/// plane is treated as on/below it. [`crate::GEOM_EPS`] is a good default for
/// unit-scale data.
pub fn quickhull(points: &[f64], dims: usize, eps: f64) -> Result<Hull, HullError> {
    let mut scratch = HullScratch::default();
    scratch.build(points, dims, eps)?;
    Ok(scratch.to_hull())
}

impl HullScratch {
    /// Builds the hull of `points` as [`quickhull`] does; read it with
    /// [`HullScratch::facets`].
    ///
    /// Every choice that fixes the output happens in a fixed order, so the
    /// facets come out in the same order with the same bits on every run:
    /// the furthest conflict point is the first strict maximum in conflict
    /// order, the visibility walk is a stack, the horizon lists visible
    /// facets as found (each one's neighbors in list order, ridge vertices
    /// in that facet's order), cone facets are created in horizon order, a
    /// neighbor patch replaces the first visible slot, and an orphan goes
    /// to the first new facet it is above.
    #[allow(clippy::needless_range_loop)] // a facet id indexes several parallel arrays
    pub(crate) fn build(&mut self, points: &[f64], dims: usize, eps: f64) -> Result<(), HullError> {
        self.reset(dims);
        if dims < 2 {
            return Err(HullError::BadDimension);
        }
        let n = points.len() / dims;
        debug_assert_eq!(points.len(), n * dims);
        if n < dims + 1 {
            return Err(HullError::Degenerate);
        }
        let HullScratch {
            verts,
            normals,
            offsets,
            alive,
            neighbors,
            conflicts,
            spare,
            seen,
            visible_at,
            epoch,
            pending,
            visible,
            stack,
            horizon,
            ridges,
            orphans,
            interior,
            simplex,
            plane,
            ..
        } = self;
        let pt = |i: u32| -> &[f64] { &points[i as usize * dims..(i as usize + 1) * dims] };

        if !initial_simplex(points, dims, eps, simplex, plane) {
            return Err(HullError::Degenerate);
        }

        // Interior reference point: simplex centroid.
        interior.resize(dims, 0.0);
        for &v in simplex.iter() {
            for (acc, &x) in interior.iter_mut().zip(pt(v)) {
                *acc += x;
            }
        }
        for x in interior.iter_mut() {
            *x /= (dims + 1) as f64;
        }

        // The d+1 simplex facets: leave one vertex out each. They are
        // mutually adjacent.
        for leave in 0..=dims {
            let f = alive.len();
            verts.extend(
                simplex
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != leave)
                    .map(|(_, &v)| v),
            );
            normals.resize((f + 1) * dims, 0.0);
            let offset = plane_through(
                points,
                dims,
                &verts[f * dims..],
                interior,
                plane,
                &mut normals[f * dims..],
            )
            .ok_or(HullError::Degenerate)?;
            offsets.push(offset);
            alive.push(true);
            seen.push(0);
            visible_at.push(0);
            let mut adjacent = spare.pop().unwrap_or_default();
            adjacent.extend((0..=dims as u32).filter(|&j| j as usize != leave));
            neighbors.push(adjacent);
            conflicts.push(spare.pop().unwrap_or_default());
        }

        // Initial conflict assignment: each outside point goes to the first
        // facet it is above; interior points are dropped.
        for i in 0..n as u32 {
            if simplex.contains(&i) {
                continue;
            }
            let p = pt(i);
            for f in 0..alive.len() {
                if dist(normals, offsets, f, p) > eps {
                    conflicts[f].push(i);
                    if conflicts[f].len() == 1 {
                        pending.push(f as u32);
                    }
                    break;
                }
            }
        }

        // Main loop: expand the hull by the furthest conflict point of some
        // facet, replacing the visible region with a cone of new facets.
        //
        // Near-duplicate point clusters can drive eps-inconsistent horizon
        // walks into combinatorial facet blow-up (or non-termination). A hull
        // of n points in general position has far fewer than `n^(d/2) + 16n·d`
        // facets; crossing that budget means the geometry is degenerate
        // beyond what this tolerance-based algorithm can handle, so we bail
        // to the callers' sound fallbacks instead of hanging.
        let facet_budget = ((n as f64).powf(dims as f64 / 2.0) as usize)
            .saturating_add(16 * n * dims)
            .saturating_add(1024);
        // The same clusters can also make one cone link tens of millions
        // of facet pairs before the facet count is checked again: a real
        // hull gives each facet d neighbors, so more than `facet_budget ×
        // d` links in one build is that blow-up, and bails the same way.
        let link_budget = facet_budget.saturating_mul(dims);
        let mut links = 0usize;
        while let Some(fi) = pending.pop() {
            if alive.len() > facet_budget {
                return Err(HullError::Degenerate);
            }
            let fi = fi as usize;
            if !alive[fi] || conflicts[fi].is_empty() {
                continue;
            }
            // Furthest conflict point (QuickHull's choice aids robustness).
            let mut p_idx = conflicts[fi][0];
            let mut p_dist = dist(normals, offsets, fi, pt(p_idx));
            for &c in &conflicts[fi][1..] {
                let d = dist(normals, offsets, fi, pt(c));
                if d > p_dist {
                    p_idx = c;
                    p_dist = d;
                }
            }
            let p = pt(p_idx);

            if *epoch == u32::MAX {
                seen.fill(0);
                visible_at.fill(0);
                *epoch = 0;
            }
            *epoch += 1;
            let now = *epoch;

            // Walk the facets visible from p.
            visible.clear();
            stack.clear();
            stack.push(fi as u32);
            seen[fi] = now;
            while let Some(g) = stack.pop() {
                let g = g as usize;
                if !alive[g] || dist(normals, offsets, g, p) <= eps {
                    continue;
                }
                visible_at[g] = now;
                visible.push(g as u32);
                for &nb in &neighbors[g] {
                    if seen[nb as usize] != now {
                        seen[nb as usize] = now;
                        stack.push(nb);
                    }
                }
            }
            if visible.is_empty() {
                continue;
            }

            // Horizon ridges: the vertices a visible facet shares with a
            // live, non-visible neighbor. The walk reached every neighbor
            // of a visible facet, so `visible_at` is exact here.
            horizon.clear();
            ridges.clear();
            for &g in visible.iter() {
                let g = g as usize;
                let g_verts = &verts[g * dims..(g + 1) * dims];
                for &nb in &neighbors[g] {
                    let nb = nb as usize;
                    if !alive[nb] || visible_at[nb] == now {
                        continue;
                    }
                    let nb_verts = &verts[nb * dims..(nb + 1) * dims];
                    let start = ridges.len();
                    ridges.extend(g_verts.iter().filter(|v| nb_verts.contains(v)));
                    if ridges.len() - start == dims - 1 {
                        horizon.push(nb as u32);
                    } else {
                        ridges.truncate(start);
                    }
                }
            }

            // Collect orphaned conflict points, retire visible facets and
            // keep their lists for the cone.
            orphans.clear();
            for &g in visible.iter() {
                let g = g as usize;
                alive[g] = false;
                orphans.append(&mut conflicts[g]);
                for list in [&mut conflicts[g], &mut neighbors[g]] {
                    if list.capacity() > 0 {
                        let mut list = std::mem::take(list);
                        list.clear();
                        spare.push(list);
                    }
                }
            }
            orphans.retain(|&c| c != p_idx);

            // Build the cone: one new facet per horizon ridge.
            let first_new = alive.len();
            for (h, &outside) in horizon.iter().enumerate() {
                let id = alive.len();
                verts.extend_from_slice(&ridges[h * (dims - 1)..(h + 1) * (dims - 1)]);
                verts.push(p_idx);
                normals.resize((id + 1) * dims, 0.0);
                let offset = plane_through(
                    points,
                    dims,
                    &verts[id * dims..],
                    interior,
                    plane,
                    &mut normals[id * dims..],
                )
                .ok_or(HullError::Degenerate)?;
                offsets.push(offset);
                alive.push(true);
                seen.push(0);
                visible_at.push(0);
                let mut adjacent = spare.pop().unwrap_or_default();
                adjacent.push(outside);
                neighbors.push(adjacent);
                conflicts.push(spare.pop().unwrap_or_default());
                // Patch the outside facet: replace its first dead (visible)
                // neighbor with us.
                let slots = &mut neighbors[outside as usize];
                match slots.iter_mut().find(|s| visible_at[**s as usize] == now) {
                    Some(slot) => *slot = id as u32,
                    None => slots.push(id as u32),
                }
            }
            let end = alive.len();

            // Adjacency among new facets: two cone facets are neighbors iff
            // they share d-1 vertices (their ridges both contain p).
            for a in first_new..end {
                for b in (a + 1)..end {
                    let vb = &verts[b * dims..(b + 1) * dims];
                    let shared = verts[a * dims..(a + 1) * dims]
                        .iter()
                        .filter(|v| vb.contains(v))
                        .count();
                    if shared == dims - 1 {
                        links += 1;
                        if links > link_budget {
                            return Err(HullError::Degenerate);
                        }
                        neighbors[a].push(b as u32);
                        neighbors[b].push(a as u32);
                    }
                }
            }

            // Reassign orphans to the new facets.
            for &c in orphans.iter() {
                let q = pt(c);
                for nf in first_new..end {
                    if dist(normals, offsets, nf, q) > eps {
                        conflicts[nf].push(c);
                        break;
                    }
                }
            }
            for nf in first_new..end {
                if !conflicts[nf].is_empty() {
                    pending.push(nf as u32);
                }
            }
        }
        Ok(())
    }

    /// Empties every buffer for a hull in `dims` dimensions, keeping the
    /// allocations.
    fn reset(&mut self, dims: usize) {
        self.dims = dims;
        self.verts.clear();
        self.normals.clear();
        self.offsets.clear();
        self.alive.clear();
        for mut list in self.neighbors.drain(..).chain(self.conflicts.drain(..)) {
            if list.capacity() > 0 {
                list.clear();
                self.spare.push(list);
            }
        }
        self.seen.clear();
        self.visible_at.clear();
        self.epoch = 0;
        self.pending.clear();
        self.interior.clear();
    }

    /// The last built hull's live facets in creation order, as
    /// `(vertices, outward unit normal, offset)`.
    pub(crate) fn facets(&self) -> impl Iterator<Item = (&[u32], &[f64], f64)> + '_ {
        let d = self.dims;
        (0..self.alive.len())
            .filter(|&f| self.alive[f])
            .map(move |f| {
                (
                    &self.verts[f * d..(f + 1) * d],
                    &self.normals[f * d..(f + 1) * d],
                    self.offsets[f],
                )
            })
    }

    fn to_hull(&self) -> Hull {
        let mut facets = Vec::new();
        let mut vertices: Vec<u32> = Vec::new();
        for (verts, normal, offset) in self.facets() {
            vertices.extend_from_slice(verts);
            facets.push(Facet {
                vertices: verts.to_vec(),
                normal: normal.to_vec(),
                offset,
            });
        }
        vertices.sort_unstable();
        vertices.dedup();
        Hull { vertices, facets }
    }
}

/// Signed distance of `p` above facet `f`'s plane.
#[inline]
fn dist(normals: &[f64], offsets: &[f64], f: usize, p: &[f64]) -> f64 {
    let d = p.len();
    dot(&normals[f * d..(f + 1) * d], p) - offsets[f]
}

/// The one dot product every plane test uses: left to right, no
/// reassociation, so results are bit-stable.
#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Writes `q - origin`, projected off the orthonormal rows of `basis`,
/// into `v`.
fn residual(q: &[f64], origin: &[f64], basis: &[f64], v: &mut [f64]) {
    for ((x, a), b) in v.iter_mut().zip(q).zip(origin) {
        *x = a - b;
    }
    for b in basis.chunks_exact(v.len()) {
        let proj = dot(v, b);
        for (x, y) in v.iter_mut().zip(b) {
            *x -= proj * y;
        }
    }
}

/// Finds d+1 affinely independent points into `simplex`, greedily
/// maximizing spread; `false` when the points span less than d dimensions.
fn initial_simplex(
    points: &[f64],
    dims: usize,
    eps: f64,
    simplex: &mut Vec<u32>,
    scratch: &mut PlaneScratch,
) -> bool {
    let n = points.len() / dims;
    let pt = |i: usize| -> &[f64] { &points[i * dims..(i + 1) * dims] };

    // Seed pair: extremes along the coordinate with the largest spread.
    let mut best: Option<(usize, usize, f64)> = None;
    for d in 0..dims {
        let (mut lo, mut hi) = (0usize, 0usize);
        for i in 1..n {
            if pt(i)[d] < pt(lo)[d] {
                lo = i;
            }
            if pt(i)[d] > pt(hi)[d] {
                hi = i;
            }
        }
        let spread = pt(hi)[d] - pt(lo)[d];
        if best.is_none_or(|(_, _, s)| spread > s) {
            best = Some((lo, hi, spread));
        }
    }
    let Some((lo, hi, spread)) = best else {
        return false;
    };
    if spread <= eps {
        return false;
    }
    simplex.clear();
    simplex.extend([lo as u32, hi as u32]);

    // Orthonormal basis of the current affine span (Gram–Schmidt).
    let PlaneScratch { basis, v, .. } = scratch;
    basis.clear();
    v.clear();
    v.resize(dims, 0.0);
    let origin = pt(lo);
    let add_basis = |basis: &mut Vec<f64>, v: &mut [f64], q: &[f64]| -> bool {
        residual(q, origin, basis, v);
        let norm = dot(v, v).sqrt();
        if norm <= eps {
            return false;
        }
        for x in v.iter_mut() {
            *x /= norm;
        }
        basis.extend_from_slice(v);
        true
    };
    assert!(add_basis(basis, v, pt(hi)));

    while simplex.len() < dims + 1 {
        // Farthest point from the current affine span.
        let mut far: Option<(usize, f64)> = None;
        for i in 0..n {
            if simplex.contains(&(i as u32)) {
                continue;
            }
            residual(pt(i), origin, basis, v);
            let d2 = dot(v, v);
            if far.is_none_or(|(_, bd)| d2 > bd) {
                far = Some((i, d2));
            }
        }
        let Some((i, d2)) = far else {
            return false;
        };
        if d2.sqrt() <= eps {
            return false;
        }
        if !add_basis(basis, v, pt(i)) {
            return false;
        }
        simplex.push(i as u32);
    }
    true
}

/// Writes the unit normal of the hyperplane through `verts` (d points)
/// into `normal`, oriented so that `interior` lies strictly below it, and
/// returns the plane's offset. Returns `None` when the points are
/// affinely dependent (normal collapses).
#[allow(clippy::needless_range_loop)] // Gaussian elimination reads clearest with indices
fn plane_through(
    points: &[f64],
    dims: usize,
    verts: &[u32],
    interior: &[f64],
    scratch: &mut PlaneScratch,
    normal: &mut [f64],
) -> Option<f64> {
    debug_assert_eq!(verts.len(), dims);
    let pt = |i: u32| -> &[f64] { &points[i as usize * dims..(i as usize + 1) * dims] };
    let p0 = pt(verts[0]);
    // Rows: p_i - p_0, i = 1..d-1. The normal spans their null space.
    let PlaneScratch {
        rows: m,
        pivot_cols,
        ..
    } = scratch;
    m.clear();
    for &v in &verts[1..] {
        m.extend(pt(v).iter().zip(p0).map(|(a, b)| a - b));
    }
    let at = |i: usize, j: usize| i * dims + j;
    // Gaussian elimination with partial pivoting to row-echelon form.
    let rows = dims - 1;
    pivot_cols.clear();
    let mut r = 0;
    for c in 0..dims {
        if r == rows {
            break;
        }
        // Find pivot.
        let mut best = r;
        for i in (r + 1)..rows {
            if m[at(i, c)].abs() > m[at(best, c)].abs() {
                best = i;
            }
        }
        if m[at(best, c)].abs() < 1e-13 {
            continue;
        }
        if best != r {
            for j in 0..dims {
                m.swap(at(r, j), at(best, j));
            }
        }
        let piv = m[at(r, c)];
        for x in &mut m[at(r, 0)..at(r + 1, 0)] {
            *x /= piv;
        }
        for i in 0..rows {
            if i != r {
                let f = m[at(i, c)];
                if f != 0.0 {
                    for j in 0..dims {
                        m[at(i, j)] -= f * m[at(r, j)];
                    }
                }
            }
        }
        pivot_cols.push(c);
        r += 1;
        if r == rows {
            break;
        }
    }
    if r < rows {
        return None; // affinely dependent: no unique normal
    }
    // Free column -> null vector.
    let free = (0..dims).find(|c| !pivot_cols.contains(c))?;
    normal.fill(0.0);
    normal[free] = 1.0;
    for (row, &pc) in pivot_cols.iter().enumerate() {
        normal[pc] = -m[at(row, free)];
    }
    let len = dot(normal, normal).sqrt();
    if len < 1e-13 {
        return None;
    }
    for x in normal.iter_mut() {
        *x /= len;
    }
    let mut offset = dot(normal, p0);
    if dot(normal, interior) > offset {
        for x in normal.iter_mut() {
            *x = -*x;
        }
        offset = -offset;
    }
    Some(offset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GEOM_EPS;

    fn flat(pts: &[Vec<f64>]) -> Vec<f64> {
        pts.iter().flatten().copied().collect()
    }

    #[test]
    fn cube_3d() {
        // Unit cube corners plus an interior point.
        let mut pts = Vec::new();
        for x in [0.0, 1.0] {
            for y in [0.0, 1.0] {
                for z in [0.0, 1.0] {
                    pts.push(vec![x, y, z]);
                }
            }
        }
        pts.push(vec![0.5, 0.5, 0.5]);
        let h = quickhull(&flat(&pts), 3, GEOM_EPS).unwrap();
        assert_eq!(h.vertices, (0..8).collect::<Vec<u32>>());
        // A triangulated cube has 12 facets.
        assert_eq!(h.facets.len(), 12);
        for f in &h.facets {
            // All points on or below each facet plane.
            for p in &pts {
                assert!(dot(&f.normal, p) <= f.offset + 1e-7);
            }
        }
    }

    #[test]
    fn square_2d() {
        let pts = vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
            vec![0.0, 1.0],
            vec![0.5, 0.5],
        ];
        let h = quickhull(&flat(&pts), 2, GEOM_EPS).unwrap();
        assert_eq!(h.vertices, vec![0, 1, 2, 3]);
        assert_eq!(h.facets.len(), 4);
    }

    #[test]
    fn degenerate_flat_points() {
        // Collinear points in 2-d.
        let pts = vec![vec![0.0, 0.0], vec![0.5, 0.5], vec![1.0, 1.0]];
        assert!(matches!(
            quickhull(&flat(&pts), 2, GEOM_EPS),
            Err(HullError::Degenerate)
        ));
        // Coplanar points in 3-d.
        let pts3 = vec![
            vec![0.0, 0.0, 0.5],
            vec![1.0, 0.0, 0.5],
            vec![0.0, 1.0, 0.5],
            vec![1.0, 1.0, 0.5],
        ];
        assert!(matches!(
            quickhull(&flat(&pts3), 3, GEOM_EPS),
            Err(HullError::Degenerate)
        ));
    }

    #[test]
    fn too_few_points() {
        let pts = vec![vec![0.0, 0.0, 0.0], vec![1.0, 1.0, 1.0]];
        assert!(matches!(
            quickhull(&flat(&pts), 3, GEOM_EPS),
            Err(HullError::Degenerate)
        ));
    }

    #[test]
    fn random_points_all_inside_hull() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for dims in 2..=5 {
            let n = 120;
            let pts: Vec<f64> = (0..n * dims).map(|_| rng.gen::<f64>()).collect();
            let h = quickhull(&pts, dims, GEOM_EPS).unwrap();
            assert!(!h.facets.is_empty());
            for i in 0..n {
                let p = &pts[i * dims..(i + 1) * dims];
                for f in &h.facets {
                    assert!(
                        dot(&f.normal, p) <= f.offset + 1e-6,
                        "point {i} above a facet in dims {dims}"
                    );
                }
            }
            // Every facet has exactly d vertices and all are hull vertices.
            for f in &h.facets {
                assert_eq!(f.vertices.len(), dims);
                for v in &f.vertices {
                    assert!(h.vertices.contains(v));
                }
            }
        }
    }

    #[test]
    fn hull_vertices_are_extreme() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let dims = 3;
        let n = 60;
        let pts: Vec<f64> = (0..n * dims).map(|_| rng.gen::<f64>()).collect();
        let h = quickhull(&pts, dims, GEOM_EPS).unwrap();
        // A vertex must be strictly outside the hull of the others: verify
        // via the facet planes it lies on (it is the unique max in the
        // outward normal direction among... cheaper check: for each vertex,
        // some facet contains it, and no other point is above that plane).
        for &v in &h.vertices {
            assert!(h.facets.iter().any(|f| f.vertices.contains(&v)));
        }
    }
}
