//! Per-phase construction profiling.
//!
//! A [`BuildProfile`] records, for every phase of
//! [`DualLayerIndex::build_with_profile`], the wall-clock seconds spent
//! and the number of dominance tests performed — the `Cost`-style counter
//! that makes pruning effectiveness observable independently of machine
//! speed. A "dominance test" is one unit of pairwise work:
//!
//! * in the coarse peel, one staircase probe (d = 2 and 3) or one member
//!   compared against the tuple (d ≥ 4);
//! * in the ∀ phase, one source tested against a target in a kd-tree
//!   leaf, or in a node whose max-corner the target weakly dominates;
//! * in the ∃ phases, one `facet_is_eds` evaluation.
//!
//! Work avoided by sorting and pruning simply never shows up in the
//! counters, which is exactly the point.
//!
//! [`DualLayerIndex::build_with_profile`]: crate::DualLayerIndex::build_with_profile

/// Seconds and dominance tests for one construction phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseProfile {
    /// Wall-clock seconds spent in the phase.
    pub seconds: f64,
    /// Dominance tests performed (0 for phases that do none, e.g. the
    /// convex fine split, whose work is geometric rather than pairwise).
    pub dominance_tests: u64,
}

/// Full construction profile, one entry per build phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BuildProfile {
    /// Phase 1 — coarse skyline-layer peeling.
    pub coarse_peel: PhaseProfile,
    /// Phase 2 — convex fine-sublayer splitting (no dominance tests).
    pub fine_split: PhaseProfile,
    /// Phase 3 — ∀-dominance edges between adjacent coarse layers.
    pub forall_edges: PhaseProfile,
    /// Phase 4 — ∃-dominance edges between adjacent fine sublayers
    /// (tests are `facet_is_eds` evaluations).
    pub exists_edges: PhaseProfile,
    /// Phase 5 — zero layer (clustering plus its own peel/edge work).
    pub zero_layer: PhaseProfile,
    /// CSR assembly and seed computation.
    pub assemble_seconds: f64,
    /// End-to-end build seconds.
    pub total_seconds: f64,
}

impl BuildProfile {
    /// Total dominance tests across every phase.
    pub fn dominance_tests(&self) -> u64 {
        self.coarse_peel.dominance_tests
            + self.fine_split.dominance_tests
            + self.forall_edges.dominance_tests
            + self.exists_edges.dominance_tests
            + self.zero_layer.dominance_tests
    }
}

impl std::fmt::Display for BuildProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "phase          seconds   dominance tests")?;
        for (name, p) in [
            ("coarse peel", &self.coarse_peel),
            ("fine split", &self.fine_split),
            ("forall edges", &self.forall_edges),
            ("exists edges", &self.exists_edges),
            ("zero layer", &self.zero_layer),
        ] {
            writeln!(
                f,
                "{name:<14} {:>8.3}   {:>15}",
                p.seconds, p.dominance_tests
            )?;
        }
        writeln!(f, "{:<14} {:>8.3}", "assemble", self.assemble_seconds)?;
        write!(
            f,
            "{:<14} {:>8.3}   {:>15}",
            "total",
            self.total_seconds,
            self.dominance_tests()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_display() {
        let p = BuildProfile {
            coarse_peel: PhaseProfile {
                seconds: 0.5,
                dominance_tests: 100,
            },
            forall_edges: PhaseProfile {
                seconds: 0.25,
                dominance_tests: 40,
            },
            total_seconds: 0.9,
            ..Default::default()
        };
        assert_eq!(p.dominance_tests(), 140);
        let s = p.to_string();
        assert!(s.contains("coarse peel"));
        assert!(s.contains("total"));
        assert!(s.contains("140"));
    }
}
