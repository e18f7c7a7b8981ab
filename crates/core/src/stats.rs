//! Per-query statistics: phase timings, memory accounting and work counters.
//!
//! The paper's evaluation reports not only end-to-end latency (Figure 8) but
//! also the per-phase breakdown (Figure 10(c)), peak space (Figures 9 and
//! 10(a)) and the tightness of the upper bound (Table 3). [`EveStats`]
//! aggregates everything the benchmark harness needs to regenerate those
//! artefacts, and is attached to every [`crate::SimplePathGraph`] answer.

use std::time::Duration;

use spg_graph::SearchSpaceStats;

/// Work counters for one propagation run (one direction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PropagationStats {
    /// Number of adjacency entries scanned.
    pub edge_scans: usize,
    /// Number of visits skipped by the forward-looking pruning rule.
    pub pruned_visits: usize,
    /// Number of essential-vertex sets materialised (changed levels only).
    pub sets_stored: usize,
    /// Number of levels actually expanded before the frontier emptied.
    pub levels_run: u32,
}

/// Counters describing one labeling pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LabelingStats {
    /// Edges examined (= edges inside the bidirectional search space).
    pub edges_examined: usize,
    /// Edges labeled failing.
    pub failing: usize,
    /// Edges labeled undetermined.
    pub undetermined: usize,
    /// Edges labeled definite.
    pub definite: usize,
}

/// Work counters for the verification phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerificationStats {
    /// Number of undetermined edges that required a DFS-oriented search.
    pub searches: usize,
    /// Undetermined edges confirmed to be part of `SPG_k`.
    pub confirmed: usize,
    /// Undetermined edges rejected (the redundant edges of Table 3).
    pub rejected: usize,
    /// Undetermined edges confirmed for free because an earlier witness path
    /// already covered them.
    pub covered_by_witness: usize,
    /// DFS expansions performed across all searches.
    pub dfs_steps: usize,
}

/// Wall-clock time spent in each EVE phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Distance computation (adaptive bidirectional search).
    pub distance: Duration,
    /// Forward + backward essential-vertex propagation.
    pub propagation: Duration,
    /// Edge labeling / upper-bound graph construction.
    pub labeling: Duration,
    /// Undetermined-edge verification (including search ordering).
    pub verification: Duration,
}

impl PhaseTimings {
    /// Total time across all phases.
    pub fn total(&self) -> Duration {
        self.distance + self.propagation + self.labeling + self.verification
    }

    /// Time of the paper's "phase (1): propagation for essential vertices",
    /// which includes the distance computation it depends on.
    pub fn phase1_propagation(&self) -> Duration {
        self.distance + self.propagation
    }

    /// Time of the paper's "phase (2): computing upper-bound graph".
    pub fn phase2_upper_bound(&self) -> Duration {
        self.labeling
    }

    /// Time of the paper's "phase (3): verifying undetermined edges".
    pub fn phase3_verification(&self) -> Duration {
        self.verification
    }
}

/// Analytic estimate of the bytes held by each phase's dominant data
/// structures (see DESIGN.md §2.3 for why this stands in for RSS
/// measurements).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryEstimate {
    /// Distance search (the vertices each side discovered, with their
    /// distances) plus the dense search-space CSR.
    pub distance_bytes: usize,
    /// Essential-vertex sets of both propagations.
    pub propagation_bytes: usize,
    /// Upper-bound graph adjacency, labels, departures and arrivals.
    pub upper_bound_bytes: usize,
    /// Verification result set and stacks.
    pub verification_bytes: usize,
    /// Buffer capacity retained by the reusable [`crate::QueryWorkspace`]
    /// after the query — the steady-state footprint a warm workspace keeps
    /// so that subsequent queries are allocation-free. Not part of
    /// [`MemoryEstimate::peak_bytes`]: the live per-phase bytes above already
    /// account for the portions in use, and capacity is amortised across the
    /// whole batch rather than attributable to one query.
    pub workspace_arena_bytes: usize,
}

impl MemoryEstimate {
    /// Sum over all phases: EVE keeps the earlier structures alive until the
    /// answer is produced, so the peak equals the total.
    pub fn peak_bytes(&self) -> usize {
        self.distance_bytes
            + self.propagation_bytes
            + self.upper_bound_bytes
            + self.verification_bytes
    }

    /// Records the verification phase's footprint: the answer edge list plus
    /// the two DFS stacks (bounded by `k + 2` entries each, Theorem 5.6).
    pub fn record_verification(&mut self, answer_edges: usize, k: u32) {
        self.verification_bytes = answer_edges * std::mem::size_of::<(u32, u32)>()
            + (k as usize + 2) * 2 * std::mem::size_of::<u32>();
    }

    /// Field-wise maximum merge. Batch executors fold the per-query estimates
    /// of one worker (and then the per-worker results) through this to report
    /// the worst single-query footprint observed anywhere in the batch — a
    /// max, not a sum, because queries on one workspace run one at a time and
    /// the workspace's retained capacity converges to the largest query's
    /// demand.
    pub fn merge_max(&mut self, other: &MemoryEstimate) {
        self.distance_bytes = self.distance_bytes.max(other.distance_bytes);
        self.propagation_bytes = self.propagation_bytes.max(other.propagation_bytes);
        self.upper_bound_bytes = self.upper_bound_bytes.max(other.upper_bound_bytes);
        self.verification_bytes = self.verification_bytes.max(other.verification_bytes);
        self.workspace_arena_bytes = self.workspace_arena_bytes.max(other.workspace_arena_bytes);
    }
}

/// All statistics collected while answering one query.
#[derive(Debug, Clone, Copy, Default)]
pub struct EveStats {
    /// Wall-clock time per phase.
    pub timings: PhaseTimings,
    /// Estimated bytes per phase.
    pub memory: MemoryEstimate,
    /// Counters from the distance phase.
    pub search_space: SearchSpaceStats,
    /// Counters from the forward propagation.
    pub forward_propagation: PropagationStats,
    /// Counters from the backward propagation.
    pub backward_propagation: PropagationStats,
    /// Counters from edge labeling.
    pub labeling: LabelingStats,
    /// Counters from verification.
    pub verification: VerificationStats,
    /// Number of edges in the upper-bound graph `SPGᵘ_k` (definite +
    /// undetermined), used for the redundant ratio of Table 3.
    pub upper_bound_edges: usize,
}

impl EveStats {
    /// Redundant ratio `r_D = (|E(SPGᵘ_k)| − |E(SPG_k)|) / |E(SPG_k)|`
    /// (§6.6), given the final answer size. Returns `None` when the answer is
    /// empty.
    pub fn redundant_ratio(&self, answer_edges: usize) -> Option<f64> {
        if answer_edges == 0 {
            return None;
        }
        Some((self.upper_bound_edges as f64 - answer_edges as f64) / answer_edges as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_add_up() {
        let t = PhaseTimings {
            distance: Duration::from_millis(1),
            propagation: Duration::from_millis(2),
            labeling: Duration::from_millis(3),
            verification: Duration::from_millis(4),
        };
        assert_eq!(t.total(), Duration::from_millis(10));
        assert_eq!(t.phase1_propagation(), Duration::from_millis(3));
        assert_eq!(t.phase2_upper_bound(), Duration::from_millis(3));
        assert_eq!(t.phase3_verification(), Duration::from_millis(4));
    }

    #[test]
    fn memory_peak_is_sum_of_phases() {
        let m = MemoryEstimate {
            distance_bytes: 10,
            propagation_bytes: 20,
            upper_bound_bytes: 30,
            verification_bytes: 40,
            // Retained workspace capacity is reported but never double
            // counted into the per-query peak.
            workspace_arena_bytes: 1000,
        };
        assert_eq!(m.peak_bytes(), 100);
    }

    #[test]
    fn record_verification_formula() {
        let mut m = MemoryEstimate::default();
        m.record_verification(5, 6);
        assert_eq!(
            m.verification_bytes,
            5 * std::mem::size_of::<(u32, u32)>() + 8 * 2 * std::mem::size_of::<u32>()
        );
    }

    #[test]
    fn merge_max_is_field_wise() {
        let mut a = MemoryEstimate {
            distance_bytes: 10,
            propagation_bytes: 200,
            upper_bound_bytes: 3,
            verification_bytes: 40,
            workspace_arena_bytes: 500,
        };
        let b = MemoryEstimate {
            distance_bytes: 100,
            propagation_bytes: 20,
            upper_bound_bytes: 30,
            verification_bytes: 4,
            workspace_arena_bytes: 5000,
        };
        a.merge_max(&b);
        assert_eq!(a.distance_bytes, 100);
        assert_eq!(a.propagation_bytes, 200);
        assert_eq!(a.upper_bound_bytes, 30);
        assert_eq!(a.verification_bytes, 40);
        assert_eq!(a.workspace_arena_bytes, 5000);
        // Merging with an empty estimate is the identity.
        let before = a;
        a.merge_max(&MemoryEstimate::default());
        assert_eq!(a, before);
    }

    #[test]
    fn redundant_ratio_formula() {
        let stats = EveStats {
            upper_bound_edges: 105,
            ..Default::default()
        };
        let r = stats.redundant_ratio(100).unwrap();
        assert!((r - 0.05).abs() < 1e-12);
        assert_eq!(stats.redundant_ratio(0), None);
    }
}
