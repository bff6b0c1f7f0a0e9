//! Auditing service histories against the theory.
//!
//! A drained run's history is a ticket-ordered [`Execution`] of the
//! committed transactions; Theorem 2's offline decision procedure
//! applies to it directly. `is_correctable` decides each communication
//! component (transactions joined by shared entities) on its own, so a
//! pass costs the sum over components of steps × transactions ×
//! fixpoint rounds: linear in the number of components, quadratic-ish
//! only in the size of the largest one. Sessions on private entities
//! stay cheap however long the history; one contended ring is a single
//! component, quadratic-ish in its length. For long runs the audit also
//! supports *windowed sampling*: slice the history, project each slice
//! onto the transactions **fully contained** in it, and check each
//! projection.
//!
//! Projection is sound: the coherent closure of a projected suborder is
//! contained in the projection of the closure (dropping whole
//! transactions removes order pairs and conflict edges, never adds
//! them), so a correctable full history projects to correctable windows
//! — a window violation therefore always implicates the scheduler. It is
//! deliberately *not* complete (a cross-window cycle can escape
//! sampling); the tier-1 differential test audits full histories, the
//! smoke job samples.

use mla_core::nest::Nest;
use mla_core::theorem::is_correctable;
use mla_model::{Execution, Step, TxnId};
use mla_txn::RuntimeSpec;

/// Result of an audit pass.
#[derive(Clone, Debug)]
pub struct AuditReport {
    /// Windows (or the single full pass) checked.
    pub windows: usize,
    /// Windows whose projection failed Theorem 2.
    pub violations: usize,
    /// Steps covered by at least one checked projection.
    pub steps_covered: usize,
}

impl AuditReport {
    /// Whether every checked window was correctable.
    pub fn passed(&self) -> bool {
        self.violations == 0
    }
}

/// Audits the full history in one Theorem 2 pass.
pub fn audit_full(history: &[Step], nest: &Nest, spec: &RuntimeSpec) -> AuditReport {
    let exec = Execution::new(history.to_vec()).expect("service histories are seq-contiguous");
    let ok = is_correctable(&exec, nest, spec).expect("history matches nest and spec");
    AuditReport {
        windows: 1,
        violations: usize::from(!ok),
        steps_covered: history.len(),
    }
}

/// Audits `history` in windows of `window` steps (the tail partial
/// window included), each projected onto its fully-contained
/// transactions. Falls back to a single full pass when the history fits
/// in one window.
pub fn audit_windowed(
    history: &[Step],
    nest: &Nest,
    spec: &RuntimeSpec,
    window: usize,
) -> AuditReport {
    assert!(window > 0, "window must be positive");
    if history.len() <= window {
        return audit_full(history, nest, spec);
    }
    // Span of each transaction in the (single-incarnation) committed
    // history: fully contained in a chunk iff its whole span is.
    let mut spans: std::collections::HashMap<TxnId, (usize, usize)> =
        std::collections::HashMap::new();
    for (i, s) in history.iter().enumerate() {
        let span = spans.entry(s.txn).or_insert((i, i));
        span.1 = i;
    }
    let mut windows = 0;
    let mut violations = 0;
    let mut steps_covered = 0;
    for (c, chunk) in history.chunks(window).enumerate() {
        let lo = c * window;
        let hi = lo + chunk.len();
        let projected: Vec<Step> = chunk
            .iter()
            .filter(|s| {
                let (first, last) = spans[&s.txn];
                first >= lo && last < hi
            })
            .copied()
            .collect();
        if projected.is_empty() {
            continue;
        }
        steps_covered += projected.len();
        let exec = Execution::new(projected).expect("full transactions are seq-contiguous");
        let ok = is_correctable(&exec, nest, spec).expect("history matches nest and spec");
        windows += 1;
        violations += usize::from(!ok);
    }
    AuditReport {
        windows,
        violations,
        steps_covered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mla_model::EntityId;
    use mla_txn::{NoBreakpoints, RuntimeSpec};
    use std::sync::Arc;

    fn step(t: u32, seq: u32, e: u32) -> Step {
        Step {
            txn: TxnId(t),
            seq,
            entity: EntityId(e),
            observed: 0,
            wrote: 0,
        }
    }

    fn atomic_spec(n: usize) -> RuntimeSpec {
        let mut spec = RuntimeSpec::new(2);
        for t in 0..n {
            spec.insert(TxnId(t as u32), Arc::new(NoBreakpoints { k: 2 }));
        }
        spec
    }

    #[test]
    fn serial_history_audits_clean() {
        let history = vec![step(0, 0, 0), step(0, 1, 1), step(1, 0, 0), step(1, 1, 1)];
        let nest = Nest::flat(2);
        let spec = atomic_spec(2);
        assert!(audit_full(&history, &nest, &spec).passed());
        let windowed = audit_windowed(&history, &nest, &spec, 2);
        assert!(windowed.passed());
        assert_eq!(windowed.windows, 2);
        assert_eq!(windowed.steps_covered, 4);
    }

    #[test]
    fn interleaved_atomic_pair_fails_the_audit() {
        // t0 and t1 interleave on two entities with no breakpoints under
        // a flat nest: the textbook non-serializable weave.
        let history = vec![step(0, 0, 0), step(1, 0, 0), step(1, 1, 1), step(0, 1, 1)];
        let nest = Nest::flat(2);
        let spec = atomic_spec(2);
        assert!(!audit_full(&history, &nest, &spec).passed());
    }

    #[test]
    fn windowed_audit_skips_straddling_transactions() {
        // t1's steps straddle the window boundary; each window projects
        // onto its fully-contained transactions only.
        let history = vec![
            step(0, 0, 0),
            step(0, 1, 1),
            step(1, 0, 2),
            step(1, 1, 3),
            step(2, 0, 4),
            step(2, 1, 5),
        ];
        let nest = Nest::flat(3);
        let spec = atomic_spec(3);
        let report = audit_windowed(&history, &nest, &spec, 3);
        assert!(report.passed());
        // t1 straddles chunks [0..3) and [3..6): only t0 and t2 covered.
        assert_eq!(report.steps_covered, 4);
    }
}
