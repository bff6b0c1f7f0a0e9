//! The constrained-linearization fallback.
//!
//! The saturation pass in [`checker`](crate::checker) trusts the
//! recorded interleaving: the per-entity access sequences *are* the
//! dependency order, and Theorem 2 is graph-polynomial. A black-box
//! checker is not always handed that much — often only the *values*
//! each step observed and wrote are trustworthy, and the recorded order
//! is an artifact of logging. Checking against that
//! weaker-than-recorded dependency information asks: **is there any
//! global ordering, consistent with per-transaction program order and
//! with every observed value, whose coherent closure is acyclic?** That
//! is dbcop's NP-complete side (reads pin writers, but the version
//! order must be *searched*), and this module mirrors its
//! constrained-linearization approach: a budgeted backtracking search
//! over linear extensions of program order, placing a step only when
//! the entity currently holds the value it observed, and pruning any
//! prefix whose coherent closure is already cyclic.
//!
//! The prune is sound: the closure of a prefix (with each
//! transaction's breakpoint marks restricted to the steps in the
//! prefix, which [`History`]'s `describe` does) embeds in the closure
//! of every completion — extending an execution only ever adds related
//! pairs and never removes condition-(b) lift obligations already
//! incurred — so a cyclic prefix cannot complete to an acyclic order.
//!
//! Clusters ([`communication_clusters`]) are searched independently
//! (each with the full node budget): values never cross entities, so a
//! cluster-wise realization concatenates exactly as witnesses do.

use std::collections::HashMap;

use mla_core::decompose::communication_clusters;
use mla_core::theorem::is_correctable;
use mla_model::{EntityId, Execution, Step, TxnId, Value};

use crate::history::History;

/// The weak-mode verdict.
#[derive(Clone, Debug)]
pub enum WeakVerdict {
    /// Some value-consistent ordering is correctable; here is one.
    Realizable {
        /// A program-order- and value-consistent execution whose
        /// coherent closure is acyclic.
        order: Execution,
    },
    /// No value-consistent ordering is correctable.
    Unrealizable,
    /// The search hit the node budget before deciding.
    BudgetExhausted,
}

impl WeakVerdict {
    /// Whether a realization was found.
    pub fn realizable(&self) -> bool {
        matches!(self, WeakVerdict::Realizable { .. })
    }

    /// One-line human rendering.
    pub fn render(&self) -> String {
        match self {
            WeakVerdict::Realizable { order } => {
                format!("pass (weak): realizable in {} steps", order.len())
            }
            WeakVerdict::Unrealizable => {
                "FAIL (weak): no value-consistent ordering is correctable".to_string()
            }
            WeakVerdict::BudgetExhausted => "UNDECIDED (weak): node budget exhausted".to_string(),
        }
    }
}

enum SearchOutcome {
    Found(Vec<Step>),
    NotFound,
    Exhausted,
}

struct Search<'a> {
    h: &'a History,
    /// Steps of each cluster transaction, in program order.
    programs: Vec<Vec<Step>>,
    initial: &'a HashMap<EntityId, Value>,
    nodes: usize,
    budget: usize,
}

impl Search<'_> {
    fn run(&mut self) -> SearchOutcome {
        let total: usize = self.programs.iter().map(Vec::len).sum();
        let mut next = vec![0usize; self.programs.len()];
        let mut placed: Vec<Step> = Vec::with_capacity(total);
        let mut store: HashMap<EntityId, Value> = HashMap::new();
        self.dfs(total, &mut next, &mut placed, &mut store)
    }

    fn dfs(
        &mut self,
        total: usize,
        next: &mut Vec<usize>,
        placed: &mut Vec<Step>,
        store: &mut HashMap<EntityId, Value>,
    ) -> SearchOutcome {
        if placed.len() == total {
            return SearchOutcome::Found(placed.clone());
        }
        for i in 0..self.programs.len() {
            let seq = next[i];
            if seq >= self.programs[i].len() {
                continue;
            }
            let s = self.programs[i][seq];
            let cur = store
                .get(&s.entity)
                .or_else(|| self.initial.get(&s.entity))
                .copied()
                .unwrap_or_default();
            if cur != s.observed {
                continue;
            }
            self.nodes += 1;
            if self.nodes > self.budget {
                return SearchOutcome::Exhausted;
            }
            let prev = store.insert(s.entity, s.wrote);
            next[i] += 1;
            placed.push(s);
            if self.prefix_acyclic(placed) {
                match self.dfs(total, next, placed, store) {
                    SearchOutcome::NotFound => {}
                    found_or_exhausted => return found_or_exhausted,
                }
            }
            placed.pop();
            next[i] -= 1;
            match prev {
                Some(v) => {
                    store.insert(s.entity, v);
                }
                None => {
                    store.remove(&s.entity);
                }
            }
        }
        SearchOutcome::NotFound
    }

    fn prefix_acyclic(&self, placed: &[Step]) -> bool {
        let exec =
            Execution::new(placed.to_vec()).expect("placements respect per-transaction step order");
        is_correctable(&exec, self.h.nest(), self.h)
            .expect("History validation guarantees a well-formed context")
    }
}

/// Initial value of every entity, as the recorded history implies it:
/// what the first recorded access observed.
fn initial_values(exec: &Execution) -> HashMap<EntityId, Value> {
    let mut initial = HashMap::new();
    for s in exec.steps() {
        initial.entry(s.entity).or_insert(s.observed);
    }
    initial
}

/// Decides whether *some* program-order- and value-consistent ordering
/// of the recorded steps is correctable, searching each communication
/// cluster independently with `budget` backtracking nodes.
pub fn check_weak(h: &History, budget: usize) -> WeakVerdict {
    let initial = initial_values(h.exec());
    let clusters = communication_clusters(h.exec());
    let mut realized: Vec<Step> = Vec::with_capacity(h.exec().len());
    let mut exhausted = false;
    for (members, indices) in clusters.members.iter().zip(&clusters.step_indices) {
        let mut by_txn: HashMap<TxnId, usize> = HashMap::new();
        let mut programs: Vec<Vec<Step>> = Vec::with_capacity(members.len());
        for (li, &t) in members.iter().enumerate() {
            by_txn.insert(t, li);
            programs.push(Vec::new());
        }
        for &i in indices {
            let s = h.exec().steps()[i];
            programs[by_txn[&s.txn]].push(s);
        }
        let mut search = Search {
            h,
            programs,
            initial: &initial,
            nodes: 0,
            budget,
        };
        match search.run() {
            SearchOutcome::Found(order) => realized.extend(order),
            SearchOutcome::NotFound => return WeakVerdict::Unrealizable,
            SearchOutcome::Exhausted => exhausted = true,
        }
    }
    if exhausted {
        WeakVerdict::BudgetExhausted
    } else {
        WeakVerdict::Realizable {
            order: Execution::new(realized)
                .expect("cluster realizations concatenate in program order"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check;
    use mla_core::nest::Nest;

    fn step(t: u32, seq: u32, e: u32, observed: Value, wrote: Value) -> Step {
        Step {
            txn: TxnId(t),
            seq,
            entity: EntityId(e),
            observed,
            wrote,
        }
    }

    fn history(steps: Vec<Step>, txns: usize) -> History {
        History::new(
            Nest::new(2, vec![vec![]; txns]).unwrap(),
            vec![],
            vec![],
            Execution::new(steps).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn recorded_correctable_history_is_realizable() {
        let h = history(
            vec![
                step(0, 0, 0, 0, 1),
                step(1, 0, 0, 1, 2),
                step(0, 1, 1, 0, 1),
                step(1, 1, 1, 1, 2),
            ],
            2,
        );
        assert!(check(&h).passed());
        match check_weak(&h, 10_000) {
            WeakVerdict::Realizable { order } => {
                let back = History::new(h.nest().clone(), vec![], vec![], order).unwrap();
                assert!(check(&back).passed());
            }
            v => panic!("expected realizable, got {}", v.render()),
        }
    }

    #[test]
    fn value_pinned_cycle_is_unrealizable() {
        // Values force t0 < t1 on x0 and t1 < t0 on x1: no consistent
        // ordering is acyclic, whatever the interleaving.
        let h = history(
            vec![
                step(0, 0, 0, 0, 1),
                step(1, 0, 0, 1, 2),
                step(1, 1, 1, 0, 1),
                step(0, 1, 1, 1, 2),
            ],
            2,
        );
        assert!(!check(&h).passed());
        assert!(matches!(check_weak(&h, 10_000), WeakVerdict::Unrealizable));
    }

    #[test]
    fn duplicate_values_admit_a_reordering_the_record_lacks() {
        // The recorded interleaving is the crossed (non-correctable)
        // weave, but every step observes and writes 0, so the serial
        // order is value-consistent: weak mode realizes what the
        // strong check rightly rejects.
        let h = history(
            vec![
                step(0, 0, 0, 0, 0),
                step(1, 0, 0, 0, 0),
                step(1, 1, 1, 0, 0),
                step(0, 1, 1, 0, 0),
            ],
            2,
        );
        assert!(!check(&h).passed());
        assert!(check_weak(&h, 10_000).realizable());
    }

    #[test]
    fn zero_budget_reports_exhaustion() {
        let h = history(vec![step(0, 0, 0, 0, 1)], 1);
        assert!(matches!(check_weak(&h, 0), WeakVerdict::BudgetExhausted));
    }

    #[test]
    fn empty_history_is_trivially_realizable() {
        let h = History::new(
            Nest::new(2, vec![]).unwrap(),
            vec![],
            vec![],
            Execution::empty(),
        )
        .unwrap();
        assert!(check_weak(&h, 0).realizable());
    }
}
