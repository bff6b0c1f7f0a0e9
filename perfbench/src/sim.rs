//! Simulator runs: `mla-detect` and `mla-prevent` over one instance.
//!
//! The untraced pass goes through `mla_bench::runner::run_cell`, which
//! times the run and then checks the history against Theorem 2 outside
//! the timer. The traced pass builds the same control, wraps it in
//! [`Timed`], and applies the same oracle.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use mla_bench::runner::{run_cell, ControlKind};
use mla_cc::{oracle, MlaDetect, MlaPrevent, VictimPolicy};
use mla_sim::{Control, Metrics, SimConfig};
use mla_workload::Workload;

use crate::live::panic_text;
use crate::timed::{CallTimes, Timed};

/// Victim policy of both schedulers (the one `mla-serve` uses).
const POLICY: VictimPolicy = VictimPolicy::FewestSteps;

/// The two §6 schedulers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sched {
    /// Cycle detection with rollback.
    Detect,
    /// Cycle prevention by delay.
    Prevent,
}

impl Sched {
    /// Both schedulers.
    pub const BOTH: [Sched; 2] = [Sched::Detect, Sched::Prevent];

    /// Metric-name stem.
    pub fn stem(self) -> &'static str {
        match self {
            Sched::Detect => "detect",
            Sched::Prevent => "prevent",
        }
    }

    fn kind(self) -> ControlKind {
        match self {
            Sched::Detect => ControlKind::MlaDetect(POLICY),
            Sched::Prevent => ControlKind::MlaPrevent(POLICY),
        }
    }
}

/// The control `run_cell` builds for `sched`.
pub fn new_control(sched: Sched, wl: &Workload) -> Box<dyn Control> {
    match sched {
        Sched::Detect => Box::new(MlaDetect::new(wl.spec(), POLICY)),
        Sched::Prevent => Box::new(MlaPrevent::new(wl.txn_count(), wl.spec(), POLICY)),
    }
}

/// One checked simulator run.
pub struct SimRun {
    /// Wall time of the run, verification excluded.
    pub wall_ms: f64,
    /// The simulator's counters.
    pub metrics: Metrics,
    /// Control-call times (traced runs only).
    pub calls: Option<CallTimes>,
}

fn check_all_committed(wl: &Workload, run: SimRun) -> Result<SimRun, String> {
    if run.metrics.committed as usize != wl.txn_count() {
        return Err(format!(
            "{} of {} transactions committed",
            run.metrics.committed,
            wl.txn_count()
        ));
    }
    Ok(run)
}

/// Runs `sched` on `wl` through `run_cell` (which panics on a timed-out
/// run or a history that fails Theorem 2; the panic becomes an error).
pub fn run_plain(wl: &Workload, sched: Sched, seed: u64) -> Result<SimRun, String> {
    let cell =
        catch_unwind(AssertUnwindSafe(|| run_cell(wl, sched.kind(), seed))).map_err(panic_text)?;
    check_all_committed(
        wl,
        SimRun {
            wall_ms: cell.wall_seconds * 1e3,
            metrics: cell.outcome.metrics,
            calls: None,
        },
    )
}

/// Runs `sched` on `wl` under the [`Timed`] wrapper, with the checks of
/// `run_cell`.
pub fn run_timed(wl: &Workload, sched: Sched, seed: u64) -> Result<SimRun, String> {
    let mut control = Timed::new(new_control(sched, wl));
    let started = Instant::now();
    let outcome = mla_sim::run(
        wl.nest.clone(),
        wl.instances(),
        wl.initial.iter().copied(),
        &wl.arrivals,
        &SimConfig::seeded(seed),
        &mut control,
    );
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    if outcome.metrics.timed_out {
        return Err(format!("{} timed out", sched.stem()));
    }
    if !oracle::is_correctable_outcome(&outcome, &wl.nest, &wl.spec()) {
        return Err(format!("{} history violates Theorem 2", sched.stem()));
    }
    check_all_committed(
        wl,
        SimRun {
            wall_ms,
            metrics: outcome.metrics,
            calls: Some(control.into_times()),
        },
    )
}
