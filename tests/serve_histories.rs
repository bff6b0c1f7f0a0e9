//! Differential audit of the live service: every history `mla-serve`
//! records — real threads, MVCC storage, admission gated by MlaDetect or
//! MlaPrevent — must pass the Theorem 2 oracle, exactly like the
//! simulator's histories do.
//!
//! The service runs are nondeterministic (OS scheduling), so these tests
//! assert *universally quantified* properties: correctability of the
//! recorded history, per-entity ticket monotonicity, conservation of the
//! transferred totals, and full-commit drains.

use std::collections::HashMap;
use std::time::Duration;

use multilevel_atomicity::core::decompose::communication_clusters;
use multilevel_atomicity::model::{Execution, Step, TxnId};
use multilevel_atomicity::serve::{
    audit_full, audit_windowed, contended_load, partitioned_load, run, SchedKind, ServeConfig,
    ServeLoad,
};

fn config(sched: SchedKind) -> ServeConfig {
    ServeConfig {
        sched,
        workers: 3,
        deadline: Duration::from_secs(120),
        ..Default::default()
    }
}

/// Drains `load` under `config` and runs the full battery of
/// history-level checks. Returns the committed count.
fn drain_and_audit(load: &ServeLoad, config: &ServeConfig) -> u64 {
    let report = run(load, config);
    assert!(report.clean, "drain must complete before the deadline");
    assert_eq!(report.snapshot_violations, 0, "snapshot probes must hold");
    assert_eq!(
        report.committed,
        load.txn_count() as u64,
        "every submitted transaction must commit"
    );

    // The theorem oracle: the recorded history is correctable.
    let audit = audit_full(&report.history, &load.workload.nest, &load.workload.spec());
    assert!(audit.passed(), "recorded history must be correctable");
    // The windowed variant agrees on a projection of the same history.
    let windowed = audit_windowed(
        &report.history,
        &load.workload.nest,
        &load.workload.spec(),
        64,
    );
    assert!(windowed.passed(), "windowed audit must concur");

    // Histories come out in global admission-ticket order, which must be
    // per-session (= per-transaction) program order: seq values of each
    // transaction appear contiguous ascending.
    let mut seqs: HashMap<u32, u32> = HashMap::new();
    for step in &report.history {
        let next = seqs.entry(step.txn.0).or_insert(0);
        assert_eq!(
            step.seq, *next,
            "txn {} steps out of program order",
            step.txn.0
        );
        *next += 1;
    }
    report.committed
}

#[test]
fn partitioned_histories_pass_the_oracle_under_both_schedulers() {
    let load = partitioned_load(8, 4);
    for sched in [SchedKind::Detect, SchedKind::Prevent] {
        assert_eq!(drain_and_audit(&load, &config(sched)), 32);
    }
}

#[test]
fn certified_partitioned_history_passes_the_oracle() {
    let load = partitioned_load(6, 8);
    let mut cfg = config(SchedKind::Prevent);
    cfg.certified = true;
    assert_eq!(drain_and_audit(&load, &cfg), 48);
}

#[test]
fn contended_histories_pass_the_oracle_and_conserve_money() {
    // Transfers race atomic audits over one shared account ring: the
    // shape that actually defers, waits, and cascades.
    let load = contended_load(6, 6, 4, 3);
    for sched in [SchedKind::Detect, SchedKind::Prevent] {
        let report = run(&load, &config(sched));
        assert!(report.clean);
        assert_eq!(report.committed, 36);
        let audit = audit_full(&report.history, &load.workload.nest, &load.workload.spec());
        assert!(audit.passed(), "contended history must be correctable");

        // Conservation: replaying the last write per entity sums to the
        // initial ring total.
        let mut last: HashMap<u32, i64> = HashMap::new();
        for step in &report.history {
            last.insert(step.entity.0, step.wrote);
        }
        let total: i64 = (0..4u32)
            .map(|a| last.get(&a).copied().unwrap_or(100))
            .sum();
        assert_eq!(total, load.initial_total, "ring total must be conserved");
    }
}

#[test]
fn sharded_admission_histories_still_pass_the_oracle() {
    // The sharded closure engine and partitioned wait queues behind the
    // same gate: history-level guarantees must be layout-independent.
    let load = contended_load(4, 6, 4, 0);
    let mut cfg = config(SchedKind::Prevent);
    cfg.shards = 4;
    cfg.wait_shards = 4;
    let report = run(&load, &cfg);
    assert!(report.clean);
    assert_eq!(report.committed, 24);
    let audit = audit_full(&report.history, &load.workload.nest, &load.workload.spec());
    assert!(audit.passed());
}

#[test]
fn windowed_audit_catches_a_violation_planted_in_one_window() {
    // Sessions of the partitioned load share no entity, so each audit
    // window splits into several communication components and the audit
    // decides them one by one. A crossed weave planted in one window
    // must still be caught there, and only there.
    let load = partitioned_load(8, 50);
    let (nest, spec) = (&load.workload.nest, load.workload.spec());
    let report = run(&load, &config(SchedKind::Prevent));
    assert!(report.clean);
    let window = 64;
    let before = audit_windowed(&report.history, nest, &spec, window);
    assert!(before.passed(), "the drained history audits clean");

    // Positions of each transaction's two steps.
    let mut at: HashMap<TxnId, Vec<usize>> = HashMap::new();
    for (i, s) in report.history.iter().enumerate() {
        at.entry(s.txn).or_default().push(i);
    }
    let session = |t: TxnId| t.0 / 50;
    // Two transactions wholly inside one window. Within a session the
    // level-2 breakpoint licenses any weave, so the pair comes from two
    // sessions, which are atomic to each other at level 1.
    let (w, a, b) = (0..report.history.len() / window)
        .find_map(|w| {
            let inside: Vec<TxnId> = report.history[w * window..(w + 1) * window]
                .iter()
                .map(|s| s.txn)
                .filter(|t| at[t].iter().all(|&i| i / window == w))
                .collect();
            let a = *inside.first()?;
            let b = *inside.iter().find(|&&t| session(t) != session(a))?;
            Some((w, a, b))
        })
        .expect("some window holds whole transactions of two sessions");

    // Rewrite the pair's four slots as a0 b0 b1 a1 with b on a's
    // entities: a before b on the first, b before a on the second.
    let mut history = report.history.clone();
    let mut slots: Vec<usize> = at[&a].iter().chain(&at[&b]).copied().collect();
    slots.sort_unstable();
    let (a0, a1) = (history[at[&a][0]], history[at[&a][1]]);
    let (b0, b1) = (history[at[&b][0]], history[at[&b][1]]);
    let woven = [
        a0,
        Step {
            entity: a0.entity,
            ..b0
        },
        Step {
            entity: a1.entity,
            ..b1
        },
        a1,
    ];
    for (slot, step) in slots.into_iter().zip(woven) {
        history[slot] = step;
    }
    let planted: Vec<Step> = history[w * window..(w + 1) * window]
        .iter()
        .filter(|s| at[&s.txn].iter().all(|&i| i / window == w))
        .copied()
        .collect();
    let planted = Execution::new(planted).unwrap();
    assert!(
        communication_clusters(&planted).len() > 1,
        "the planted window is decided component by component"
    );
    assert!(!audit_full(&history, nest, &spec).passed());
    let after = audit_windowed(&history, nest, &spec, window);
    assert_eq!(after.violations, 1, "exactly the planted window fails");
    assert_eq!(after.windows, before.windows);
    assert_eq!(after.steps_covered, before.steps_covered);
}
