//! A `Control` wrapper that times every call into the scheduler.
//!
//! It forwards every trait method to the wrapped control unchanged, so a
//! wrapped run makes the same decisions and reports the same counters
//! as an unwrapped one (the tests below check this byte for byte). The
//! four callbacks the simulator drives per step are timed; their
//! durations are the control-call spans of the traced run, kept as
//! per-method samples rather than one span each (a prevent run makes
//! hundreds of thousands of decisions).

use std::time::Instant;

use mla_core::{EngineCounters, ParallelStats};
use mla_model::TxnId;
use mla_sim::{Control, Decision, World};
use mla_storage::StepRecord;

/// Wall time spent in each control callback.
#[derive(Clone, Debug, Default)]
pub struct CallTimes {
    /// One sample per `decide` call, nanoseconds.
    pub decide_ns: Vec<u64>,
    /// `decide` calls answered `Grant`.
    pub grants: u64,
    /// Summed `performed` time, nanoseconds.
    pub performed_ns: u64,
    /// Summed `committed` time, nanoseconds.
    pub committed_ns: u64,
    /// Summed `aborted` time, nanoseconds.
    pub aborted_ns: u64,
}

impl CallTimes {
    /// Summed time of every timed callback, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.decide_ns.iter().sum::<u64>() + self.performed_ns + self.committed_ns + self.aborted_ns
    }
}

/// Times the callbacks of the wrapped control.
pub struct Timed {
    inner: Box<dyn Control>,
    times: CallTimes,
}

impl Timed {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Control>) -> Self {
        Timed {
            inner,
            times: CallTimes::default(),
        }
    }

    /// The recorded call times.
    pub fn into_times(self) -> CallTimes {
        self.times
    }
}

fn elapsed_ns(started: Instant) -> u64 {
    started.elapsed().as_nanos() as u64
}

impl Control for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, txn: TxnId, world: &World) -> Decision {
        let started = Instant::now();
        let decision = self.inner.decide(txn, world);
        self.times.decide_ns.push(elapsed_ns(started));
        if decision == Decision::Grant {
            self.times.grants += 1;
        }
        decision
    }

    fn performed(&mut self, record: &StepRecord, world: &World) {
        let started = Instant::now();
        self.inner.performed(record, world);
        self.times.performed_ns += elapsed_ns(started);
    }

    fn committed(&mut self, txn: TxnId, world: &World) {
        let started = Instant::now();
        self.inner.committed(txn, world);
        self.times.committed_ns += elapsed_ns(started);
    }

    fn aborted(&mut self, txn: TxnId, world: &World) {
        let started = Instant::now();
        self.inner.aborted(txn, world);
        self.times.aborted_ns += elapsed_ns(started);
    }

    fn decision_cost(&self) -> Option<EngineCounters> {
        self.inner.decision_cost()
    }

    fn shard_decision_cost(&self) -> Vec<EngineCounters> {
        self.inner.shard_decision_cost()
    }

    fn parallel_stats(&self) -> Option<ParallelStats> {
        self.inner.parallel_stats()
    }

    fn certified_skips(&self) -> u64 {
        self.inner.certified_skips()
    }

    fn certified_skips_per_universe(&self) -> Vec<u64> {
        self.inner.certified_skips_per_universe()
    }

    fn cert_re_arms(&self) -> u64 {
        self.inner.cert_re_arms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{new_control, Sched};
    use crate::workloads::Spec;
    use mla_sim::{run, SimConfig, SimOutcome};

    fn simulate(wl: &mla_workload::Workload, seed: u64, control: &mut dyn Control) -> SimOutcome {
        run(
            wl.nest.clone(),
            wl.instances(),
            wl.initial.iter().copied(),
            &wl.arrivals,
            &SimConfig::seeded(seed),
            control,
        )
    }

    /// Everything a run reports except wall-clock fields: the history,
    /// the store journal, attempts, and every `Metrics` counter.
    fn fingerprint(out: &SimOutcome) -> String {
        format!(
            "{:?}\n{:?}\n{:?}\n{:?}",
            out.execution,
            out.attempts,
            out.store.journal(),
            out.metrics
        )
    }

    #[test]
    fn wrapper_forwards_every_method() {
        let loads = [
            Spec::SimSynthetic.sim_load(11),
            Spec::ServeContended.sim_load(11),
        ];
        let mut aborts = 0;
        for wl in &loads {
            for sched in [Sched::Detect, Sched::Prevent] {
                let mut plain = new_control(sched, wl);
                let bare = simulate(wl, 11, plain.as_mut());
                let mut timed = Timed::new(new_control(sched, wl));
                let wrapped = simulate(wl, 11, &mut timed);
                assert_eq!(
                    fingerprint(&bare),
                    fingerprint(&wrapped),
                    "{sched:?}: the wrapped run must match the bare run byte for byte"
                );
                assert!(
                    bare.metrics.decision_cost.steps_applied > 0,
                    "decision_cost must be forwarded"
                );
                let times = timed.into_times();
                assert!(times.decide_ns.len() as u64 >= bare.metrics.steps_performed);
                assert_eq!(times.grants, bare.metrics.steps_performed);
                aborts += bare.metrics.aborts;
            }
        }
        assert!(aborts > 0, "the rollback path must be exercised");
    }

    #[test]
    fn wrapper_forwards_certificate_counters() {
        let load = mla_serve::partitioned_load(4, 6);
        let wl = &load.workload;
        let cert = load.certify().expect("partitioned sessions certify");
        let make = || {
            mla_cc::MlaPrevent::new(wl.txn_count(), wl.spec(), mla_cc::VictimPolicy::FewestSteps)
                .with_static_cert(cert.clone())
        };
        let bare = simulate(wl, 5, &mut make());
        let mut timed = Timed::new(Box::new(make()));
        let wrapped = simulate(wl, 5, &mut timed);
        assert!(bare.metrics.certified_skips > 0, "the fast path must fire");
        assert_eq!(fingerprint(&bare), fingerprint(&wrapped));
    }
}
