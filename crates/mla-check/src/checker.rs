//! The polynomial saturation check.
//!
//! Per communication-graph cluster ([`communication_clusters`]), grow
//! the coherent closure of the recorded dependency order to fixpoint
//! (`mla-core`'s [`CoherentClosure`](mla_core::closure::CoherentClosure)
//! frontier saturation — the polynomial side of dbcop's split) and
//! apply Theorem 2: acyclic means correctable, and Lemma 1's
//! constructive extension (`mla-core::extend`) yields the witness — an
//! equivalent multilevel-atomic total order. A cycle means the history
//! violates multilevel atomicity, and the cycle itself, mapped back to
//! the recorded step indices, is the diagnostic.
//!
//! Per-cluster witnesses are concatenated into one global witness:
//! clusters share no entities, so the concatenation is equivalent to
//! the recorded execution, and transactions of different clusters do
//! not interleave in it — an arrangement every breakpoint description
//! permits.

use mla_core::decompose::communication_clusters;
use mla_core::theorem::{decide, Correctability, StepRef};
use mla_model::{Execution, Step, TxnId};

use crate::history::History;

/// Why a history fails: a coherent-closure cycle, located.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The communication cluster (transactions) containing the cycle.
    pub cluster: Vec<TxnId>,
    /// The cycle: each step is related before the next, the last before
    /// the first. `global` indexes the *recorded* execution.
    pub cycle: Vec<StepRef>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "coherent-closure cycle")?;
        for s in &self.cycle {
            write!(f, " {}#{}(@{})", s.txn, s.seq, s.global)?;
        }
        write!(f, " in cluster {{")?;
        for (i, t) in self.cluster.iter().enumerate() {
            write!(f, "{}{t}", if i == 0 { "" } else { " " })?;
        }
        write!(f, "}}")
    }
}

/// The checker's verdict on one history.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// Correctable: `witness` is an equivalent multilevel-atomic
    /// execution, assembled from `clusters` independent components.
    Pass {
        /// Lemma 1's witness total order.
        witness: Execution,
        /// How many communication clusters were checked.
        clusters: usize,
    },
    /// Not correctable.
    Fail {
        /// The located cycle.
        violation: Violation,
    },
}

impl Verdict {
    /// Whether the history passed.
    pub fn passed(&self) -> bool {
        matches!(self, Verdict::Pass { .. })
    }

    /// One-line human rendering.
    pub fn render(&self) -> String {
        match self {
            Verdict::Pass { witness, clusters } => format!(
                "pass: witness total order over {} steps ({clusters} cluster{})",
                witness.len(),
                if *clusters == 1 { "" } else { "s" }
            ),
            Verdict::Fail { violation } => format!("FAIL: {violation}"),
        }
    }

    /// Machine-readable rendering (one JSON object, no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            Verdict::Pass { witness, clusters } => {
                let order: Vec<String> = witness
                    .steps()
                    .iter()
                    .map(|s| format!("{{\"txn\":{},\"seq\":{}}}", s.txn.0, s.seq))
                    .collect();
                format!(
                    "{{\"verdict\":\"pass\",\"clusters\":{clusters},\"witness\":[{}]}}",
                    order.join(",")
                )
            }
            Verdict::Fail { violation } => {
                let cycle: Vec<String> = violation
                    .cycle
                    .iter()
                    .map(|s| {
                        format!(
                            "{{\"txn\":{},\"seq\":{},\"global\":{}}}",
                            s.txn.0, s.seq, s.global
                        )
                    })
                    .collect();
                let cluster: Vec<String> =
                    violation.cluster.iter().map(|t| t.0.to_string()).collect();
                format!(
                    "{{\"verdict\":\"fail\",\"cluster\":[{}],\"cycle\":[{}]}}",
                    cluster.join(","),
                    cycle.join(",")
                )
            }
        }
    }
}

/// Checks a recorded history for multilevel atomicity (Theorem 2),
/// cluster by cluster. Returns the first violating cluster's cycle, or
/// the concatenated witness.
pub fn check(h: &History) -> Verdict {
    let clusters = communication_clusters(h.exec());
    let mut witness_steps: Vec<Step> = Vec::with_capacity(h.exec().len());
    for (c, proj) in clusters.executions(h.exec()).iter().enumerate() {
        let verdict =
            decide(proj, h.nest(), h).expect("History validation guarantees a well-formed context");
        match verdict {
            Correctability::Correctable { witness } => witness_steps.extend(witness.steps()),
            Correctability::NotCorrectable { cycle } => {
                let cycle = cycle
                    .steps
                    .into_iter()
                    .map(|s| StepRef {
                        global: clusters.step_indices[c][s.global],
                        ..s
                    })
                    .collect();
                return Verdict::Fail {
                    violation: Violation {
                        cluster: clusters.members[c].clone(),
                        cycle,
                    },
                };
            }
        }
    }
    Verdict::Pass {
        witness: Execution::new(witness_steps)
            .expect("concatenating disjoint-transaction witnesses preserves step order"),
        clusters: clusters.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mla_core::atomicity::is_multilevel_atomic;
    use mla_core::nest::Nest;
    use mla_model::EntityId;

    fn step(t: u32, seq: u32, e: u32) -> Step {
        Step {
            txn: TxnId(t),
            seq,
            entity: EntityId(e),
            observed: 0,
            wrote: 0,
        }
    }

    fn history(
        k: usize,
        paths: Vec<Vec<u32>>,
        marks: Vec<Vec<Vec<usize>>>,
        steps: Vec<Step>,
    ) -> History {
        History::new(
            Nest::new(k, paths).unwrap(),
            marks,
            vec![],
            Execution::new(steps).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn serial_weave_passes_with_atomic_witness() {
        let h = history(
            2,
            vec![vec![], vec![]],
            vec![],
            vec![step(0, 0, 0), step(1, 0, 0), step(0, 1, 1), step(1, 1, 1)],
        );
        match check(&h) {
            Verdict::Pass { witness, clusters } => {
                assert_eq!(clusters, 1);
                assert!(witness.equivalent(h.exec()));
                assert!(is_multilevel_atomic(&witness, h.nest(), &h).unwrap());
            }
            v => panic!("expected pass, got {}", v.render()),
        }
    }

    #[test]
    fn crossed_weave_fails_with_located_cycle() {
        let h = history(
            2,
            vec![vec![], vec![]],
            vec![],
            vec![step(0, 0, 0), step(1, 0, 0), step(1, 1, 1), step(0, 1, 1)],
        );
        match check(&h) {
            Verdict::Fail { violation } => {
                assert!(violation.cycle.len() >= 2);
                let mut txns: Vec<TxnId> = violation.cycle.iter().map(|s| s.txn).collect();
                txns.sort_unstable();
                txns.dedup();
                assert!(txns.len() >= 2, "a closure cycle spans transactions");
                for s in &violation.cycle {
                    assert_eq!(h.exec().steps()[s.global].txn, s.txn);
                    assert_eq!(h.exec().steps()[s.global].seq, s.seq);
                }
            }
            v => panic!("expected fail, got {}", v.render()),
        }
    }

    #[test]
    fn violation_is_located_in_the_right_cluster() {
        // Cluster {t0,t1} on x0/x1 is clean; cluster {t2,t3} on x2/x3
        // carries the crossed weave. Globals must point at the latter.
        let h = history(
            2,
            vec![vec![]; 4],
            vec![],
            vec![
                step(0, 0, 0),
                step(2, 0, 2),
                step(1, 0, 0),
                step(3, 0, 2),
                step(3, 1, 3),
                step(2, 1, 3),
                step(0, 1, 1),
                step(1, 1, 1),
            ],
        );
        match check(&h) {
            Verdict::Fail { violation } => {
                assert_eq!(violation.cluster, vec![TxnId(2), TxnId(3)]);
                for s in &violation.cycle {
                    assert!(matches!(s.txn, TxnId(2) | TxnId(3)));
                    assert_eq!(h.exec().steps()[s.global].txn, s.txn);
                }
            }
            v => panic!("expected fail, got {}", v.render()),
        }
    }

    #[test]
    fn empty_history_passes() {
        let h = History::new(
            Nest::new(2, vec![]).unwrap(),
            vec![],
            vec![],
            Execution::empty(),
        )
        .unwrap();
        assert!(check(&h).passed());
    }
}
