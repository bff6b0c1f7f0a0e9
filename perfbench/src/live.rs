//! Live drains: `mla_serve::run` on worker threads, every drain checked
//! and its history audited against Theorem 2.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use mla_core::nest::Nest;
use mla_model::{EntityId, Execution, Step, TxnId, Value};
use mla_serve::{audit_full, audit_windowed, run, ServeConfig, ServeLoad, ServeReport};
use mla_txn::RuntimeSpec;

use crate::trace::Tracer;
use crate::workloads::Spec;

/// Steps per audit window, fixed for every run. The audit is strongly
/// superlinear in window size: on a 51k-step partitioned drain a
/// 1024-step window audits in about 0.3 s, a 4096-step one in about
/// 4 s (see `NOTES.md`).
pub const AUDIT_WINDOW: usize = 1024;

/// One checked drain.
pub struct Drain {
    /// The service's report (its history included).
    pub report: ServeReport,
    /// Load generation, milliseconds.
    pub gen_ms: f64,
    /// Steps the audit covered.
    pub audit_steps: usize,
    /// Audit wall time, seconds.
    pub audit_s: f64,
    /// Transactions offered.
    pub offered: usize,
    /// The seed the load was generated from.
    pub seed: u64,
}

impl Drain {
    /// Set-up time: load generation plus certification, seconds.
    pub fn setup_s(&self) -> f64 {
        self.gen_ms / 1e3 + self.report.cert_wall.as_secs_f64()
    }
}

/// The final value of every entity the history or the initial values
/// name: the last write wins.
pub fn final_values(history: &[Step], initial: &[(EntityId, Value)]) -> BTreeMap<EntityId, Value> {
    let mut values: BTreeMap<EntityId, Value> = initial.iter().copied().collect();
    for s in history {
        values.insert(s.entity, s.wrote);
    }
    values
}

/// Checks a drain's report: finished before the deadline, committed
/// every offered transaction, no snapshot violation, and (for the
/// account ring) conserved the initial total.
pub fn check_report(load: &ServeLoad, report: &ServeReport, conserve: bool) -> Result<(), String> {
    if !report.clean {
        return Err("drain hit its deadline".into());
    }
    if report.committed as usize != load.txn_count() {
        return Err(format!(
            "{} of {} transactions committed",
            report.committed,
            load.txn_count()
        ));
    }
    if report.snapshot_violations > 0 {
        return Err(format!(
            "{} snapshot violations",
            report.snapshot_violations
        ));
    }
    if conserve {
        let initial = &load.workload.initial;
        let values = final_values(&report.history, initial);
        let total: Value = initial.iter().map(|(e, _)| values[e]).sum();
        if total != load.initial_total {
            return Err(format!(
                "ring total {total} != initial {}",
                load.initial_total
            ));
        }
    }
    Ok(())
}

/// The window projections `audit_windowed` checks: the history cut into
/// `window`-step chunks, each projected onto the transactions wholly
/// inside it (empty projections dropped); the whole history when it
/// fits in one window.
pub fn window_projections(history: &[Step], window: usize) -> Vec<Vec<Step>> {
    if history.len() <= window {
        return vec![history.to_vec()];
    }
    let mut spans: HashMap<TxnId, (usize, usize)> = HashMap::new();
    for (i, s) in history.iter().enumerate() {
        spans.entry(s.txn).or_insert((i, i)).1 = i;
    }
    history
        .chunks(window)
        .enumerate()
        .filter_map(|(c, chunk)| {
            let (lo, hi) = (c * window, c * window + chunk.len());
            let inside: HashSet<TxnId> = chunk
                .iter()
                .map(|s| s.txn)
                .filter(|t| {
                    let (first, last) = spans[t];
                    first >= lo && last < hi
                })
                .collect();
            let projected: Vec<Step> = chunk
                .iter()
                .filter(|s| inside.contains(&s.txn))
                .copied()
                .collect();
            (!projected.is_empty()).then_some(projected)
        })
        .collect()
}

/// Audits `history` window by window. Untraced, this is one call to
/// `audit_windowed`; traced, each window projection is audited with
/// `audit_full` inside its own span. Returns the steps covered.
fn audit(
    history: &[Step],
    nest: &Nest,
    spec: &RuntimeSpec,
    tracer: &Tracer,
    traced: bool,
) -> Result<usize, String> {
    let _span = tracer.span("core.audit");
    let (violations, covered) = if traced {
        let mut violations = 0;
        let mut covered = 0;
        for projected in window_projections(history, AUDIT_WINDOW) {
            let _window = tracer.span("core.audit_window");
            let report = audit_full(&projected, nest, spec);
            violations += report.violations;
            covered += report.steps_covered;
        }
        (violations, covered)
    } else {
        let report = audit_windowed(history, nest, spec, AUDIT_WINDOW);
        (report.violations, report.steps_covered)
    };
    if violations > 0 {
        return Err(format!("{violations} audit windows violate Theorem 2"));
    }
    Ok(covered)
}

/// The message of a caught panic.
pub fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

/// Generates the workload's load for `seed`, drains it under `config`,
/// checks the report and audits the history. `Err` carries the reason
/// and the number of transactions offered.
pub fn drain(
    spec: Spec,
    config: &ServeConfig,
    seed: u64,
    tracer: &Tracer,
    traced: bool,
) -> Result<Drain, (String, usize)> {
    let _span = tracer.span("serve.iteration");
    let started = Instant::now();
    let load = {
        let _gen = tracer.span("workload.gen");
        spec.live_load(seed)
    };
    let gen_ms = started.elapsed().as_secs_f64() * 1e3;
    let offered = load.txn_count();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let report = {
            let _run = tracer.span("serve.run");
            let run_started = Instant::now();
            let report = run(&load, config);
            // Certification runs first inside `run`, which times it.
            tracer.record("lint.certify", run_started, run_started + report.cert_wall);
            report
        };
        check_report(&load, &report, spec.conserves())?;
        let (nest, rspec) = (&load.workload.nest, load.workload.spec());
        let audit_started = Instant::now();
        let audit_steps = audit(&report.history, nest, &rspec, tracer, traced)?;
        let audit_s = audit_started.elapsed().as_secs_f64();
        Ok(Drain {
            report,
            gen_ms,
            audit_steps,
            audit_s,
            offered,
            seed,
        })
    }));
    match outcome {
        Ok(Ok(drain)) => Ok(drain),
        Ok(Err(reason)) => Err((reason, offered)),
        Err(payload) => Err((panic_text(payload), offered)),
    }
}

/// Runs `mla_check::check` on the window projections of a drained
/// history. Returns `(steps checked per second, mean clusters per
/// window)`.
pub fn check_windows(
    load: &ServeLoad,
    history: &[Step],
    tracer: &Tracer,
) -> Result<(f64, f64), String> {
    let nest = &load.workload.nest;
    let spec = load.workload.spec();
    let mut steps = 0usize;
    let mut clusters = 0usize;
    let mut windows = 0usize;
    let mut busy_s = 0.0;
    for projected in window_projections(history, AUDIT_WINDOW) {
        let exec = Execution::new(projected).map_err(|e| format!("{e:?}"))?;
        let h =
            mla_check::History::from_execution(&exec, nest, &spec).map_err(|e| format!("{e:?}"))?;
        let _span = tracer.span("check.window");
        let started = Instant::now();
        let verdict = mla_check::check(&h);
        busy_s += started.elapsed().as_secs_f64();
        match verdict {
            mla_check::Verdict::Pass { clusters: c, .. } => clusters += c,
            mla_check::Verdict::Fail { violation } => {
                return Err(format!("mla-check rejects a window: {violation}"))
            }
        }
        steps += exec.len();
        windows += 1;
    }
    Ok((
        steps as f64 / busy_s.max(1e-9),
        clusters as f64 / windows.max(1) as f64,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mla_serve::contended_load;

    #[test]
    fn projections_match_audit_windowed() {
        let load = contended_load(8, 12, 8, 4);
        let config = ServeConfig {
            workers: 1,
            snapshot_readers: 0,
            ..Spec::ServeContended.live_config()
        };
        let report = run(&load, &config);
        check_report(&load, &report, true).expect("clean contended drain");
        let nest = &load.workload.nest;
        let spec = load.workload.spec();
        for window in [16, 64, 100_000] {
            let windowed = audit_windowed(&report.history, nest, &spec, window);
            let projections = window_projections(&report.history, window);
            assert_eq!(projections.len(), windowed.windows, "window {window}");
            let covered: usize = projections.iter().map(Vec::len).sum();
            assert_eq!(covered, windowed.steps_covered, "window {window}");
        }
    }

    #[test]
    fn conservation_check_catches_a_minted_unit() {
        let load = contended_load(4, 6, 4, 3);
        let config = ServeConfig {
            workers: 1,
            snapshot_readers: 0,
            ..Spec::ServeContended.live_config()
        };
        let mut report = run(&load, &config);
        check_report(&load, &report, true).expect("clean drain");
        report.history.last_mut().expect("steps").wrote += 1;
        assert!(check_report(&load, &report, true).is_err());
        report.committed -= 1;
        assert!(check_report(&load, &report, false).is_err());
    }
}
