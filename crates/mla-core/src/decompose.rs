//! Communication-graph decomposition.
//!
//! Two transactions constrain each other in the coherent closure only
//! through chains of shared entities: every generator of `<=_e` is
//! either a program-order edge (within one transaction) or an
//! entity-access edge (between steps on one entity), and condition-(b)
//! lifts only ever connect steps already related. So the *communication
//! graph* — transactions as nodes, an edge when two transactions touch
//! a common entity — splits the history into connected components that
//! can be checked independently: each entity's whole access sequence
//! lives inside exactly one component, hence the closure of the full
//! history is the disjoint union of the component closures. The split
//! is exact, not only sound: the full closure is acyclic iff every
//! component's is, which is how [`is_correctable`] decides Theorem 2.
//! Concatenating per-component witnesses also yields a witness for the
//! whole history (transactions of different components never interleave
//! in it, which every breakpoint description permits).
//!
//! This is the decomposition dbcop applies before its saturation pass
//! (Biswas & Enea, PAPERS.md 1908.04509).
//!
//! [`is_correctable`]: crate::theorem::is_correctable

use std::collections::HashMap;

use mla_model::{EntityId, Execution, TxnId};

/// The connected components of a history's communication graph, in
/// order of first step appearance.
#[derive(Clone, Debug)]
pub struct Clusters {
    /// Member transactions per cluster, in order of first appearance.
    pub members: Vec<Vec<TxnId>>,
    /// Original step indices per cluster, ascending.
    pub step_indices: Vec<Vec<usize>>,
}

impl Clusters {
    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the history had no steps at all.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Each cluster's sub-execution: `exec` restricted to its steps.
    pub fn executions(&self, exec: &Execution) -> Vec<Execution> {
        self.step_indices
            .iter()
            .map(|indices| {
                Execution::new(indices.iter().map(|&i| exec.steps()[i]).collect())
                    .expect("a cluster keeps whole transactions in order")
            })
            .collect()
    }
}

/// Disjoint sets over `0..n` with path compression.
pub struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    /// The representative of `i`'s set.
    pub fn find(&mut self, i: usize) -> usize {
        let mut root = i;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = i;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets of `a` and `b`.
    pub fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[rb] = ra;
        }
    }
}

/// Computes the communication-graph components of `exec`. Transactions
/// with no steps do not appear.
pub fn communication_clusters(exec: &Execution) -> Clusters {
    // Local ids for the transactions present, in first-appearance order.
    let mut local: HashMap<TxnId, usize> = HashMap::new();
    let mut txns: Vec<TxnId> = Vec::new();
    for s in exec.steps() {
        local.entry(s.txn).or_insert_with(|| {
            txns.push(s.txn);
            txns.len() - 1
        });
    }
    let mut uf = UnionFind::new(txns.len());
    let mut entity_owner: HashMap<EntityId, usize> = HashMap::new();
    for s in exec.steps() {
        let lt = local[&s.txn];
        match entity_owner.get(&s.entity) {
            Some(&owner) => uf.union(owner, lt),
            None => {
                entity_owner.insert(s.entity, lt);
            }
        }
    }
    // Clusters keyed by root, ordered by the root class's first step.
    let mut cluster_of_root: HashMap<usize, usize> = HashMap::new();
    let mut members: Vec<Vec<TxnId>> = Vec::new();
    let mut step_indices: Vec<Vec<usize>> = Vec::new();
    let mut seen_txn: Vec<bool> = vec![false; txns.len()];
    for (i, s) in exec.steps().iter().enumerate() {
        let lt = local[&s.txn];
        let root = uf.find(lt);
        let c = *cluster_of_root.entry(root).or_insert_with(|| {
            members.push(Vec::new());
            step_indices.push(Vec::new());
            members.len() - 1
        });
        if !seen_txn[lt] {
            seen_txn[lt] = true;
            members[c].push(s.txn);
        }
        step_indices[c].push(i);
    }
    Clusters {
        members,
        step_indices,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mla_model::Step;

    fn step(t: u32, seq: u32, e: u32) -> Step {
        Step {
            txn: TxnId(t),
            seq,
            entity: EntityId(e),
            observed: 0,
            wrote: 0,
        }
    }

    #[test]
    fn splits_disjoint_entity_sets() {
        // t0,t2 share x0; t1 alone on x1; t3 bridges x1 and x2 with t4.
        let exec = Execution::new(vec![
            step(0, 0, 0),
            step(1, 0, 1),
            step(2, 0, 0),
            step(3, 0, 1),
            step(3, 1, 2),
            step(4, 0, 2),
        ])
        .unwrap();
        let c = communication_clusters(&exec);
        assert_eq!(c.len(), 2);
        assert_eq!(c.members[0], vec![TxnId(0), TxnId(2)]);
        assert_eq!(c.members[1], vec![TxnId(1), TxnId(3), TxnId(4)]);
        assert_eq!(c.step_indices[0], vec![0, 2]);
        assert_eq!(c.step_indices[1], vec![1, 3, 4, 5]);
    }

    #[test]
    fn empty_execution_has_no_clusters() {
        assert!(communication_clusters(&Execution::empty()).is_empty());
    }
}
