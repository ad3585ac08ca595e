//! Dominance predicates (Definition 2 of the paper).
//!
//! All structures in this workspace use the *minimization* convention:
//! smaller attribute values are better, and top-k queries return the k
//! tuples with the smallest scores.

/// Returns `true` iff `t` dominates `t'`: `t_i <= t'_i` for all `i` and
/// `t_j < t'_j` for some `j` (Definition 2).
#[inline]
pub fn dominates(t: &[f64], u: &[f64]) -> bool {
    debug_assert_eq!(t.len(), u.len());
    let mut strict = false;
    for (a, b) in t.iter().zip(u) {
        if a > b {
            return false;
        }
        if a < b {
            strict = true;
        }
    }
    strict
}

/// Returns `true` iff `t_i <= t'_i` for all `i` (weak dominance; equal
/// tuples weakly dominate each other).
#[inline]
pub fn dominates_eq(t: &[f64], u: &[f64]) -> bool {
    debug_assert_eq!(t.len(), u.len());
    t.iter().zip(u).all(|(a, b)| a <= b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_dominance() {
        assert!(dominates(&[0.1, 0.2], &[0.1, 0.3]));
        assert!(dominates(&[0.1, 0.2], &[0.2, 0.3]));
        assert!(
            !dominates(&[0.1, 0.2], &[0.1, 0.2]),
            "equal tuples do not dominate"
        );
        assert!(!dominates(&[0.1, 0.4], &[0.2, 0.3]), "incomparable");
        assert!(!dominates(&[0.2, 0.3], &[0.1, 0.4]));
    }

    #[test]
    fn weak_dominance() {
        assert!(dominates_eq(&[0.1, 0.2], &[0.1, 0.2]));
        assert!(dominates_eq(&[0.1, 0.2], &[0.1, 0.3]));
        assert!(!dominates_eq(&[0.1, 0.4], &[0.2, 0.3]));
    }

    #[test]
    fn dominance_is_irreflexive_and_antisymmetric() {
        let t = [0.3, 0.7, 0.1];
        assert!(!dominates(&t, &t));
        let u = [0.4, 0.8, 0.2];
        assert!(dominates(&t, &u));
        assert!(!dominates(&u, &t));
    }
}
