//! A small dense two-phase simplex solver.
//!
//! The workspace needs linear programming in two places, both tiny:
//!
//! * the ∃-dominance-set feasibility test (≤ d+1 constraints, ≤ d
//!   variables) run many times during index construction;
//! * definitional convex-skyline membership tests used as a fallback for
//!   degenerate point sets and as a test oracle.
//!
//! Problems are stated as `maximize c·x` subject to `A x (≤ | = | ≥) b`
//! with `x ≥ 0`. The solver uses the standard two-phase method with
//! Bland's anti-cycling rule; with at most a few dozen variables, the dense
//! tableau is the fastest and simplest representation.

/// Relation of one linear constraint row to its right-hand side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    Le,
    Eq,
    Ge,
}

/// Result of solving a linear program.
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// An optimal solution was found.
    Optimal { x: Vec<f64>, value: f64 },
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded above on the feasible region.
    Unbounded,
}

impl LpOutcome {
    /// The optimal objective value, if any.
    pub fn value(&self) -> Option<f64> {
        match self {
            LpOutcome::Optimal { value, .. } => Some(*value),
            _ => None,
        }
    }
}

const EPS: f64 = 1e-9;

impl Cmp {
    /// The relation after both sides are negated.
    fn flipped(self) -> Cmp {
        match self {
            Cmp::Le => Cmp::Ge,
            Cmp::Ge => Cmp::Le,
            Cmp::Eq => Cmp::Eq,
        }
    }
}

/// A linear program under construction.
#[derive(Debug, Clone)]
pub struct Simplex {
    n: usize,
    objective: Vec<f64>,
    /// Row-major constraint coefficients, `n` per row.
    coeffs: Vec<f64>,
    cmps: Vec<Cmp>,
    rhs: Vec<f64>,
}

impl Simplex {
    /// Starts a problem with `n` non-negative variables maximizing
    /// `objective · x`.
    pub fn maximize(objective: Vec<f64>) -> Self {
        let n = objective.len();
        Simplex {
            n,
            objective,
            coeffs: Vec::new(),
            cmps: Vec::new(),
            rhs: Vec::new(),
        }
    }

    /// Adds the constraint `coeffs · x (cmp) rhs`.
    ///
    /// # Panics
    /// Panics if `coeffs.len()` differs from the variable count.
    pub fn constraint(&mut self, coeffs: &[f64], cmp: Cmp, rhs: f64) -> &mut Self {
        assert_eq!(coeffs.len(), self.n, "constraint arity mismatch");
        self.coeffs.extend_from_slice(coeffs);
        self.cmps.push(cmp);
        self.rhs.push(rhs);
        self
    }

    /// Solves the program.
    pub fn solve(&self) -> LpOutcome {
        let mut t = Tableau::default();
        // A row with a negative right-hand side is negated (b >= 0).
        t.layout(
            self.n,
            self.cmps
                .iter()
                .zip(&self.rhs)
                .map(|(&c, &b)| if b < 0.0 { c.flipped() } else { c }),
        );
        t.objective_mut().copy_from_slice(&self.objective);
        for (i, &b) in self.rhs.iter().enumerate() {
            let row = &self.coeffs[i * self.n..(i + 1) * self.n];
            t.row_mut(i).copy_from_slice(row);
            t.set_rhs(i, b);
        }
        match t.solve() {
            Status::Optimal => LpOutcome::Optimal {
                x: t.solution(),
                value: t.value(),
            },
            Status::Infeasible => LpOutcome::Infeasible,
            Status::Unbounded => LpOutcome::Unbounded,
        }
    }
}

/// How [`Tableau::solve`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    Optimal,
    Infeasible,
    Unbounded,
}

/// Dense simplex tableau in one row-major buffer, with explicit basis
/// bookkeeping. It keeps its buffers between programs, so a caller that
/// solves many small programs allocates only for the largest.
///
/// To state a program: [`Tableau::layout`] fixes its shape, then
/// [`Tableau::objective_mut`], [`Tableau::row_mut`] and
/// [`Tableau::set_rhs`] fill it in.
#[derive(Debug, Default)]
pub(crate) struct Tableau {
    /// `m × stride` matrix; column `stride - 1` is the RHS.
    a: Vec<f64>,
    stride: usize,
    /// Basic variable of each row.
    basis: Vec<usize>,
    /// Total structural + slack variables (artificials live past this).
    width: usize,
    /// Original variable count.
    n: usize,
    /// Artificial variable columns (phase 1 only).
    artificial: Vec<usize>,
    /// Original objective padded with zeros to every column.
    obj: Vec<f64>,
    /// Phase-1 objective: -1 on artificial columns.
    phase1: Vec<f64>,
}

impl Tableau {
    /// Shapes the tableau for `n` variables and one row per entry of
    /// `cmps`, each already normalized to a non-negative right-hand side.
    /// Zeroes every coefficient, the objective and every right-hand side;
    /// places the slack and artificial columns.
    pub(crate) fn layout(&mut self, n: usize, cmps: impl Iterator<Item = Cmp> + Clone) {
        let m = cmps.clone().count();
        let n_slack = cmps.clone().filter(|c| !matches!(c, Cmp::Eq)).count();
        let width = n + n_slack;
        let n_art = cmps.clone().filter(|c| !matches!(c, Cmp::Le)).count();
        let total = width + n_art;
        self.n = n;
        self.width = width;
        self.stride = total + 1;
        self.a.clear();
        self.a.resize(m * self.stride, 0.0);
        self.basis.clear();
        self.basis.resize(m, usize::MAX);
        self.artificial.clear();
        self.obj.clear();
        self.obj.resize(total, 0.0);
        let mut slack_col = n;
        let mut art_col = width;
        for (i, cmp) in cmps.enumerate() {
            let row = &mut self.a[i * self.stride..(i + 1) * self.stride];
            match cmp {
                Cmp::Le => {
                    row[slack_col] = 1.0;
                    self.basis[i] = slack_col;
                    slack_col += 1;
                }
                Cmp::Ge => {
                    row[slack_col] = -1.0;
                    slack_col += 1;
                    row[art_col] = 1.0;
                    self.basis[i] = art_col;
                    self.artificial.push(art_col);
                    art_col += 1;
                }
                Cmp::Eq => {
                    row[art_col] = 1.0;
                    self.basis[i] = art_col;
                    self.artificial.push(art_col);
                    art_col += 1;
                }
            }
        }
    }

    /// The objective's coefficients on the `n` original variables.
    pub(crate) fn objective_mut(&mut self) -> &mut [f64] {
        &mut self.obj[..self.n]
    }

    /// Row `i`'s coefficients on the `n` original variables.
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.a[i * self.stride..i * self.stride + self.n]
    }

    /// Sets row `i`'s right-hand side to `b`. A negative `b` negates the
    /// row's original coefficients (already written) and `b`; the row's
    /// relation passed to [`Tableau::layout`] must be the flipped one.
    pub(crate) fn set_rhs(&mut self, i: usize, b: f64) {
        let rhs = if b < 0.0 {
            for v in self.row_mut(i) {
                *v = -*v;
            }
            -b
        } else {
            b
        };
        self.a[(i + 1) * self.stride - 1] = rhs;
    }

    fn rows(&self) -> usize {
        self.basis.len()
    }

    fn at(&self, i: usize, j: usize) -> f64 {
        self.a[i * self.stride + j]
    }

    /// Runs both phases on the program laid out in the tableau.
    pub(crate) fn solve(&mut self) -> Status {
        let total = self.width + self.artificial.len();
        let mut phase1 = std::mem::take(&mut self.phase1);
        let mut status = Status::Optimal;
        if !self.artificial.is_empty() {
            // Phase 1: minimize the sum of artificials, i.e. maximize the
            // negated sum. Reduced costs are computed per pivot scan, so we
            // only need the objective vector.
            phase1.clear();
            phase1.resize(total, 0.0);
            for &c in &self.artificial {
                phase1[c] = -1.0;
            }
            if self.optimize(&phase1, total).is_none() {
                status = Status::Unbounded; // cannot happen: bounded below by 0
            } else if self.objective_value(&phase1) < -1e-7 {
                status = Status::Infeasible;
            } else {
                // Pivot any artificial still in the basis out (degenerate
                // rows), or drop its row if it is all-zero over structural
                // columns.
                for i in 0..self.rows() {
                    if self.basis[i] >= self.width {
                        let piv = (0..self.width).find(|&j| self.at(i, j).abs() > EPS);
                        if let Some(j) = piv {
                            self.pivot(i, j);
                        }
                        // If no structural pivot exists the row is
                        // redundant; its artificial stays basic at value 0,
                        // which is harmless for phase 2 because artificial
                        // columns are excluded from entering.
                    }
                }
            }
        }
        self.phase1 = phase1;
        if status != Status::Optimal {
            return status;
        }
        // Phase 2 over structural columns only.
        let obj = std::mem::take(&mut self.obj);
        let bounded = self.optimize(&obj, self.width).is_some();
        self.obj = obj;
        if bounded {
            Status::Optimal
        } else {
            Status::Unbounded
        }
    }

    /// The optimal objective value after [`Tableau::solve`] returned
    /// [`Status::Optimal`].
    pub(crate) fn value(&self) -> f64 {
        self.objective_value(&self.obj)
    }

    /// The optimal point after [`Tableau::solve`] returned
    /// [`Status::Optimal`].
    fn solution(&self) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        for (i, &b) in self.basis.iter().enumerate() {
            if b < self.n {
                x[b] = self.at(i, self.stride - 1);
            }
        }
        x
    }

    fn objective_value(&self, obj: &[f64]) -> f64 {
        let rhs = self.stride - 1;
        self.basis
            .iter()
            .enumerate()
            .map(|(i, &b)| obj.get(b).copied().unwrap_or(0.0) * self.at(i, rhs))
            .sum()
    }

    /// Runs primal simplex with Bland's rule; entering columns are limited
    /// to `[0, col_limit)`. Returns `None` on unboundedness.
    fn optimize(&mut self, obj: &[f64], col_limit: usize) -> Option<()> {
        let rhs = self.stride - 1;
        loop {
            // Reduced costs: rc_j = obj_j - obj_B · B^{-1} A_j. The tableau
            // is kept in canonical form, so rc_j = obj_j - Σ_i obj[basis_i]·a[i][j].
            let mut entering = None;
            for j in 0..col_limit {
                if self.basis.contains(&j) {
                    continue;
                }
                let mut rc = obj.get(j).copied().unwrap_or(0.0);
                for (i, &b) in self.basis.iter().enumerate() {
                    let cb = obj.get(b).copied().unwrap_or(0.0);
                    if cb != 0.0 {
                        rc -= cb * self.at(i, j);
                    }
                }
                if rc > EPS {
                    entering = Some(j); // Bland: first improving column
                    break;
                }
            }
            let Some(j) = entering else { return Some(()) };
            // Ratio test with Bland tie-break on the basic variable index.
            let mut leave: Option<(usize, f64)> = None;
            for i in 0..self.rows() {
                let aij = self.at(i, j);
                if aij > EPS {
                    let ratio = self.at(i, rhs) / aij;
                    match leave {
                        None => leave = Some((i, ratio)),
                        Some((li, lr)) => {
                            if ratio < lr - EPS
                                || (ratio < lr + EPS && self.basis[i] < self.basis[li])
                            {
                                leave = Some((i, ratio));
                            }
                        }
                    }
                }
            }
            let (i, _) = leave?;
            self.pivot(i, j);
        }
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let stride = self.stride;
        let p = self.at(row, col);
        debug_assert!(p.abs() > EPS, "pivot on near-zero element");
        for v in &mut self.a[row * stride..(row + 1) * stride] {
            *v /= p;
        }
        for i in 0..self.rows() {
            if i != row {
                let f = self.at(i, col);
                if f != 0.0 {
                    for j in 0..stride {
                        self.a[i * stride + j] -= f * self.a[row * stride + j];
                    }
                }
            }
        }
        self.basis[row] = col;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve_opt(s: &Simplex) -> (Vec<f64>, f64) {
        match s.solve() {
            LpOutcome::Optimal { x, value } => (x, value),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn basic_le() {
        // max x + y st x <= 2, y <= 3, x + y <= 4 -> (1,3) or (2,2), value 4.
        let mut s = Simplex::maximize(vec![1.0, 1.0]);
        s.constraint(&[1.0, 0.0], Cmp::Le, 2.0)
            .constraint(&[0.0, 1.0], Cmp::Le, 3.0)
            .constraint(&[1.0, 1.0], Cmp::Le, 4.0);
        let (_, v) = solve_opt(&s);
        assert!((v - 4.0).abs() < 1e-8);
    }

    #[test]
    fn with_equality() {
        // max 2x + 3y st x + y = 1 -> (0,1), value 3.
        let mut s = Simplex::maximize(vec![2.0, 3.0]);
        s.constraint(&[1.0, 1.0], Cmp::Eq, 1.0);
        let (x, v) = solve_opt(&s);
        assert!((v - 3.0).abs() < 1e-8);
        assert!((x[0]).abs() < 1e-8 && (x[1] - 1.0).abs() < 1e-8);
    }

    #[test]
    fn with_ge() {
        // max -x st x >= 2 -> value -2.
        let mut s = Simplex::maximize(vec![-1.0]);
        s.constraint(&[1.0], Cmp::Ge, 2.0);
        let (x, v) = solve_opt(&s);
        assert!((v + 2.0).abs() < 1e-8);
        assert!((x[0] - 2.0).abs() < 1e-8);
    }

    #[test]
    fn infeasible() {
        let mut s = Simplex::maximize(vec![1.0]);
        s.constraint(&[1.0], Cmp::Le, 1.0)
            .constraint(&[1.0], Cmp::Ge, 2.0);
        assert_eq!(s.solve(), LpOutcome::Infeasible);
    }

    #[test]
    fn unbounded() {
        let mut s = Simplex::maximize(vec![1.0, 0.0]);
        s.constraint(&[0.0, 1.0], Cmp::Le, 1.0);
        assert!(matches!(s.solve(), LpOutcome::Unbounded));
    }

    #[test]
    fn negative_rhs_normalization() {
        // max x st -x <= -2, x <= 5 -> x in [2,5], value 5.
        let mut s = Simplex::maximize(vec![1.0]);
        s.constraint(&[-1.0], Cmp::Le, -2.0)
            .constraint(&[1.0], Cmp::Le, 5.0);
        let (x, v) = solve_opt(&s);
        assert!((v - 5.0).abs() < 1e-8);
        assert!((x[0] - 5.0).abs() < 1e-8);
    }

    #[test]
    fn degenerate_equalities() {
        // Redundant constraints must not break phase 1.
        let mut s = Simplex::maximize(vec![1.0, 1.0]);
        s.constraint(&[1.0, 1.0], Cmp::Eq, 1.0)
            .constraint(&[2.0, 2.0], Cmp::Eq, 2.0)
            .constraint(&[1.0, 0.0], Cmp::Le, 0.7);
        let (_, v) = solve_opt(&s);
        assert!((v - 1.0).abs() < 1e-8);
    }

    #[test]
    fn convex_combination_feasibility() {
        // Is there a convex combination of (0.2, 0.8) and (0.8, 0.2)
        // dominating (0.6, 0.6)? lambda=(0.5,0.5) gives (0.5,0.5) <= (0.6,0.6).
        let mut s = Simplex::maximize(vec![0.0, 0.0]);
        s.constraint(&[1.0, 1.0], Cmp::Eq, 1.0)
            .constraint(&[0.2, 0.8], Cmp::Le, 0.6)
            .constraint(&[0.8, 0.2], Cmp::Le, 0.6);
        assert!(matches!(s.solve(), LpOutcome::Optimal { .. }));
        // ...but nothing on that segment dominates (0.3, 0.3).
        let mut s2 = Simplex::maximize(vec![0.0, 0.0]);
        s2.constraint(&[1.0, 1.0], Cmp::Eq, 1.0)
            .constraint(&[0.2, 0.8], Cmp::Le, 0.3)
            .constraint(&[0.8, 0.2], Cmp::Le, 0.3);
        assert_eq!(s2.solve(), LpOutcome::Infeasible);
    }
}
