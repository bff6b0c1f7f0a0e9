//! Single-threaded replay of a drained history through fresh storage.
//!
//! Each step of the ticket-ordered history is replayed through a new
//! `LatchTree` (acquire and release the step's exclusive entity latch),
//! a new `MvccStore` (install the version the step wrote at its ticket,
//! then read the head back and the version back at its ticket) and a
//! new `EpochRegistry` (a pin held across the snapshot reads), then the
//! store is folded with `gc_before`. Each operation kind runs as one
//! timed loop over the history, so the per-operation figures carry no
//! per-call timer cost. The replay also checks what it rebuilt.

use std::hint::black_box;
use std::time::Instant;

use mla_model::{EntityId, Step, Value};
use mla_storage::{EpochRegistry, LatchMode, LatchTree, MvccStore};

use crate::live::final_values;

/// Store shards, as `mla-serve` configures them by default.
const STORE_SHARDS: usize = 16;

/// Per-operation replay costs.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayCost {
    /// Mean `install` time, nanoseconds.
    pub install_ns: f64,
    /// Mean `latest` time, nanoseconds.
    pub latest_ns: f64,
    /// Mean `read_at` time, nanoseconds.
    pub read_at_ns: f64,
    /// Mean exclusive point-latch acquire and release, nanoseconds.
    pub latch_acquire_ns: f64,
    /// The final `gc_before` fold, milliseconds.
    pub gc_before_ms: f64,
}

fn per_op_ns(started: Instant, ops: usize) -> f64 {
    started.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// Replays `history` over `initial` values. `ring` names entities whose
/// summed value must equal `ring_total` afterwards (empty: no check).
pub fn replay(
    history: &[Step],
    initial: &[(EntityId, Value)],
    ring: &[EntityId],
    ring_total: Value,
) -> Result<ReplayCost, String> {
    let latches = LatchTree::new();
    let store = MvccStore::new(STORE_SHARDS, initial.iter().copied());
    let epochs = EpochRegistry::new(1);
    let ticket = |i: usize| i as u64 + 1;
    let next_ticket = ticket(history.len());
    let mut cost = ReplayCost::default();

    let started = Instant::now();
    for s in history {
        drop(black_box(
            latches.acquire_point(s.entity, LatchMode::Exclusive),
        ));
    }
    cost.latch_acquire_ns = per_op_ns(started, history.len());

    let started = Instant::now();
    for (i, s) in history.iter().enumerate() {
        store.install(s.entity, ticket(i), s.txn, s.wrote);
    }
    cost.install_ns = per_op_ns(started, history.len());

    let started = Instant::now();
    for s in history {
        black_box(store.latest(black_box(s.entity)));
    }
    cost.latest_ns = per_op_ns(started, history.len());

    {
        let _pin = epochs.pin(1);
        let started = Instant::now();
        let mut mismatches = 0usize;
        for (i, s) in history.iter().enumerate() {
            if store.read_at(s.entity, ticket(i)) != s.wrote {
                mismatches += 1;
            }
        }
        cost.read_at_ns = per_op_ns(started, history.len());
        if mismatches > 0 {
            return Err(format!(
                "{mismatches} snapshot reads missed their own version"
            ));
        }
    }

    // The last value written to each entity, and every entity the store
    // holds a chain for (written, or initially nonzero).
    let last = final_values(history, initial);
    let chains = initial
        .iter()
        .filter(|&&(_, v)| v != 0)
        .map(|&(e, _)| e)
        .chain(history.iter().map(|s| s.entity))
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    let check_values = |when: &str| -> Result<(), String> {
        for (&e, &v) in &last {
            let (_, got) = store.latest(e);
            if got != v {
                return Err(format!("{when}: {e:?} reads {got}, last write was {v}"));
            }
        }
        if !ring.is_empty() && store.total(ring.iter().copied()) != ring_total {
            return Err(format!(
                "{when}: ring total {} != {ring_total}",
                store.total(ring.iter().copied())
            ));
        }
        Ok(())
    };
    check_values("before gc")?;

    let frontier = epochs.frontier(next_ticket);
    let started = Instant::now();
    let folded = store.gc_before(frontier);
    cost.gc_before_ms = started.elapsed().as_secs_f64() * 1e3;
    check_values("after gc")?;
    // Folding below the next ticket leaves every chain at exactly one
    // version, its base.
    if folded != history.len() || store.version_count() != 0 || store.entity_count() != chains {
        return Err(format!(
            "gc left {} unfolded versions over {} chains (folded {folded} of {}, expected {chains} chains)",
            store.version_count(),
            store.entity_count(),
            history.len()
        ));
    }
    Ok(cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mla_serve::{contended_load, run, ServeConfig};
    use std::time::Duration;

    fn drained(load: &mla_serve::ServeLoad) -> Vec<Step> {
        let config = ServeConfig {
            workers: 1,
            snapshot_readers: 1,
            deadline: Duration::from_secs(60),
            ..ServeConfig::default()
        };
        let report = run(load, &config);
        assert!(report.clean);
        assert_eq!(report.committed as usize, load.txn_count());
        report.history
    }

    #[test]
    fn replay_rebuilds_a_contended_drain() {
        let load = contended_load(6, 10, 8, 4);
        let history = drained(&load);
        let initial = &load.workload.initial;
        let ring: Vec<EntityId> = initial.iter().map(|&(e, _)| e).collect();
        let cost = replay(&history, initial, &ring, load.initial_total).expect("replay checks");
        assert!(cost.install_ns > 0.0 && cost.gc_before_ms >= 0.0);
    }

    #[test]
    fn replay_rejects_a_broken_ring() {
        let load = contended_load(6, 10, 8, 4);
        let mut history = drained(&load);
        let initial = &load.workload.initial;
        let ring: Vec<EntityId> = initial.iter().map(|&(e, _)| e).collect();
        // A unit minted by the final write breaks conservation.
        history.last_mut().expect("a drained step").wrote += 1;
        assert!(replay(&history, initial, &ring, load.initial_total).is_err());
    }

    #[test]
    fn replay_leaves_last_writes_and_one_version_per_entity() {
        let e = EntityId;
        let t = mla_model::TxnId;
        let step = |txn: u32, seq: u32, entity: u32, wrote: Value| Step {
            txn: t(txn),
            seq,
            entity: e(entity),
            observed: 0,
            wrote,
        };
        let history = vec![step(0, 0, 1, 5), step(0, 1, 2, 7), step(1, 0, 1, 9)];
        assert!(replay(&history, &[(e(3), 4)], &[], 0).is_ok());
        // Wrong ring total is caught.
        assert!(replay(&history, &[(e(3), 4)], &[e(1), e(3)], 0).is_err());
        assert!(replay(&history, &[(e(3), 4)], &[e(1), e(3)], 13).is_ok());
    }
}
