//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see `workloads.rs` and `NOTES.md`) for `--seconds`
//! of measuring, checks every output, prints a table, and ends with one
//! JSON result line. The measuring is split over [`CHILDREN`] child
//! processes of this binary (`--child-of`), whose samples are pooled.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` first makes
//! the same untraced run, then measures again in-process with spans
//! recorded, prints both sets of end-to-end figures side by side, writes
//! the trace under `perfbench/trace/`, and reports the per-layer
//! metrics. Exits 1 after the result line if any check failed, 2 on bad
//! arguments.

mod live;
mod metrics;
mod replay;
mod samples;
mod sim;
mod stats;
mod timed;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use live::Drain;
use metrics::{result_line, Values, END_TO_END, PER_LAYER};
use samples::{DrainSample, InstanceSample, Samples, SimSample};
use sim::{Sched, SimRun};
use stats::{median, percentile, ratio};
use trace::Tracer;
use workloads::{sub_seed, Spec};

/// Drains and simulator instances each process measures at least,
/// whatever the time.
const MIN_DRAINS: u64 = 1;
const MIN_INSTANCES: u64 = 1;

/// Child processes an untraced run is split over. Processes differ in
/// speed on the same input by up to 60 % here (see `NOTES.md`);
/// pooling the samples of many averages that out.
const CHILDREN: u64 = 16;

/// Reference drains per variant in the traced run.
const REFERENCE_DRAINS: usize = 3;

/// Separate streams of derived seeds.
const SIM_STREAM: u64 = 0x5349_4D00;
const CHILD_STREAM: u64 = 0x4348_0000;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in a child process: measure `seconds / n` and print samples.
    child_of: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut child_of = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Spec::from_name(&value).ok_or_else(|| {
                    format!(
                        "unknown workload {value}; one of {}",
                        workloads::NAMES.join(", ")
                    )
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            "--child-of" => {
                child_of = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("bad --child-of {value}"))?,
                )
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        spec: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        child_of,
    })
}

/// One simulator instance, run under both schedulers.
struct Instance {
    gen_ms: f64,
    detect: SimRun,
    prevent: SimRun,
}

impl Instance {
    fn run(&self, sched: Sched) -> &SimRun {
        match sched {
            Sched::Detect => &self.detect,
            Sched::Prevent => &self.prevent,
        }
    }
}

/// Everything one in-process measuring pass produced.
#[derive(Default)]
struct Pass {
    drains: Vec<Drain>,
    instances: Vec<Instance>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Pass {
    fn fail(&mut self, what: String, txns: usize) {
        self.failed += txns as u64;
        self.failures.push(what);
    }

    fn live<F: Fn(&Drain) -> f64>(&self, f: F) -> Vec<f64> {
        self.drains.iter().map(f).collect()
    }

    /// The end-to-end figures of every drain and instance.
    fn samples(&self) -> Samples {
        let sim = |r: &SimRun| SimSample {
            wall_ms: r.wall_ms,
            attempts_per_commit: (r.metrics.committed + r.metrics.aborts) as f64
                / r.metrics.committed as f64,
            commits_per_kt: r.metrics.throughput_per_kilotick(),
        };
        Samples {
            drains: self
                .drains
                .iter()
                .map(|d| DrainSample {
                    tps: d.report.committed as f64 / d.report.wall.as_secs_f64(),
                    p50_us: d.report.p50_us as f64,
                    p99_us: d.report.p99_us as f64,
                    audit_steps_per_s: d.audit_steps as f64 / d.audit_s,
                    setup_s: d.setup_s(),
                })
                .collect(),
            instances: self
                .instances
                .iter()
                .map(|i| InstanceSample {
                    gen_ms: i.gen_ms,
                    detect: sim(&i.detect),
                    prevent: sim(&i.prevent),
                })
                .collect(),
            attempted: self.attempted,
            failed: self.failed,
            failures: self.failures.clone(),
        }
    }
}

/// Simulator instances first (in a fresh heap), then live drains, for
/// the workload's shares of `seconds`.
fn measure(spec: Spec, seed: u64, seconds: f64, tracer: &Tracer, traced: bool) -> Pass {
    let config = spec.live_config();
    let started = Instant::now();
    let mut pass = Pass::default();
    let mut j = 0;
    while j < MIN_INSTANCES || started.elapsed().as_secs_f64() < seconds * (1.0 - spec.live_share())
    {
        let s = sub_seed(seed ^ SIM_STREAM, j);
        let _span = tracer.span("sim.instance");
        let gen_started = Instant::now();
        let wl = {
            let _gen = tracer.span("workload.gen");
            spec.sim_load(s)
        };
        let gen_ms = gen_started.elapsed().as_secs_f64() * 1e3;
        let mut runs = Vec::with_capacity(2);
        for sched in Sched::BOTH {
            let _run = tracer.span(match sched {
                Sched::Detect => "sim.detect",
                Sched::Prevent => "sim.prevent",
            });
            pass.attempted += wl.txn_count() as u64;
            let result = if traced {
                sim::run_timed(&wl, sched, s)
            } else {
                sim::run_plain(&wl, sched, s)
            };
            match result {
                Ok(run) => runs.push(run),
                Err(reason) => pass.fail(
                    format!("sim instance {j} ({}): {reason}", sched.stem()),
                    wl.txn_count(),
                ),
            }
        }
        if let (Some(prevent), Some(detect)) = (runs.pop(), runs.pop()) {
            pass.instances.push(Instance {
                gen_ms,
                detect,
                prevent,
            });
        }
        j += 1;
    }
    let mut i = 0;
    while i < MIN_DRAINS || started.elapsed().as_secs_f64() < seconds {
        match live::drain(spec, &config, sub_seed(seed, i), tracer, traced) {
            Ok(drain) => {
                pass.attempted += drain.offered as u64;
                pass.drains.push(drain);
            }
            Err((reason, offered)) => {
                pass.attempted += offered as u64;
                pass.fail(format!("drain {i}: {reason}"), offered);
            }
        }
        i += 1;
    }
    pass
}

/// The untraced run: [`CHILDREN`] child processes one after another,
/// each measuring its share of `seconds`; their samples are pooled. A
/// child that crashes or prints no samples counts as one failure.
fn run_children(spec: Spec, seed: u64, seconds: u64) -> Samples {
    let exe = std::env::current_exe().expect("the running binary's path");
    let mut pooled = Samples::default();
    for k in 0..CHILDREN {
        let child_seed = sub_seed(seed, CHILD_STREAM + k).to_string();
        let output = std::process::Command::new(&exe)
            .args(["--workload", spec.name(), "--seed", &child_seed])
            .args(["--seconds", &seconds.to_string(), "--trace", "0"])
            .args(["--child-of", &CHILDREN.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output();
        let parsed = match output {
            Ok(out) if out.status.success() => {
                Samples::parse(&String::from_utf8_lossy(&out.stdout))
            }
            Ok(out) => Err(format!("exited with {}", out.status)),
            Err(e) => Err(format!("did not start: {e}")),
        };
        match parsed {
            Ok(samples) => pooled.merge(samples),
            Err(reason) => {
                pooled.attempted += 1;
                pooled.failed += 1;
                pooled.failures.push(format!("child {k}: {reason}"));
            }
        }
    }
    pooled
}

/// What the traced run measures beyond its pass.
struct Extras {
    two_worker_tps: f64,
    no_gc_wall_s: f64,
    replays: Vec<replay::ReplayCost>,
    check: (f64, f64),
}

fn per_layer(pass: &Pass, extras: &Extras, tracer: &Tracer) -> Values {
    let mut v = Values::new();
    let mut put = |name: &str, value: f64| {
        v.insert(name.to_string(), value);
    };
    let steps = |d: &Drain| d.report.history.len() as f64;
    put("workload.gen_ms", median(&pass.live(|d| d.gen_ms)));
    put(
        "lint.certify_ms",
        median(&pass.live(|d| d.report.cert_wall.as_secs_f64() * 1e3)),
    );
    put(
        "serve.drain_ms",
        median(&pass.live(|d| d.report.wall.as_secs_f64() * 1e3)),
    );
    put(
        "serve.defers_per_commit",
        median(&pass.live(|d| ratio(d.report.defers as f64, d.report.committed as f64))),
    );
    put(
        "serve.commit_hazards",
        median(&pass.live(|d| d.report.commit_hazards as f64)),
    );
    put(
        "serve.stall_breaks",
        median(&pass.live(|d| d.report.stall_breaks as f64)),
    );
    put(
        "serve.certified_skips_per_step",
        median(&pass.live(|d| ratio(d.report.certified_skips as f64, steps(d)))),
    );
    put(
        "serve.worker_scaling",
        ratio(
            extras.two_worker_tps,
            median(&pass.live(|d| d.report.throughput)),
        ),
    );
    let gc_wall_s = median(&pass.live(|d| d.report.wall.as_secs_f64()));
    put(
        "serve.gc_share",
        1.0 - ratio(extras.no_gc_wall_s, gc_wall_s),
    );
    put(
        "storage.latch_wait_share",
        median(&pass.live(|d| {
            ratio(
                d.report.latch_waits as f64,
                d.report.latch_acquisitions as f64,
            )
        })),
    );
    put(
        "storage.gc_fold_share",
        median(&pass.live(|d| ratio(d.report.gc_folded as f64, steps(d)))),
    );
    put(
        "storage.gc_passes",
        median(&pass.live(|d| d.report.gc_passes as f64)),
    );
    put(
        "storage.live_versions",
        median(&pass.live(|d| d.report.live_versions as f64)),
    );
    put(
        "storage.snapshot_checks_per_s",
        median(&pass.live(|d| d.report.snapshot_checks as f64 / d.report.wall.as_secs_f64())),
    );
    let replayed = |f: fn(&replay::ReplayCost) -> f64| {
        median(&extras.replays.iter().map(f).collect::<Vec<_>>())
    };
    put("storage.install_ns", replayed(|c| c.install_ns));
    put("storage.latest_ns", replayed(|c| c.latest_ns));
    put("storage.read_at_ns", replayed(|c| c.read_at_ns));
    put("storage.latch_acquire_ns", replayed(|c| c.latch_acquire_ns));
    put("storage.gc_before_ms", replayed(|c| c.gc_before_ms));

    for sched in Sched::BOTH {
        let stem = sched.stem();
        let runs: Vec<&SimRun> = pass.instances.iter().map(|i| i.run(sched)).collect();
        let calls: Vec<&timed::CallTimes> = runs.iter().filter_map(|r| r.calls.as_ref()).collect();
        let decide_us: Vec<f64> = calls
            .iter()
            .flat_map(|c| c.decide_ns.iter().map(|&ns| ns as f64 / 1e3))
            .collect();
        let decides: f64 = calls.iter().map(|c| c.decide_ns.len() as f64).sum();
        let decide_s: f64 = decide_us.iter().sum::<f64>() / 1e6;
        let control_s: f64 = calls.iter().map(|c| c.total_ns() as f64 / 1e9).sum();
        let wall_s: f64 = runs.iter().map(|r| r.wall_ms / 1e3).sum();
        let sum = |f: fn(&SimRun) -> u64| runs.iter().map(|r| f(r) as f64).sum::<f64>();
        let med = |f: fn(&SimRun) -> f64| median(&runs.iter().map(|r| f(r)).collect::<Vec<_>>());
        put(
            &format!("cc.{stem}.decide_us.p50"),
            percentile(&decide_us, 0.5),
        );
        put(
            &format!("cc.{stem}.decide_us.p99"),
            percentile(&decide_us, 0.99),
        );
        put(
            &format!("cc.{stem}.decide_calls"),
            median(
                &calls
                    .iter()
                    .map(|c| c.decide_ns.len() as f64)
                    .collect::<Vec<_>>(),
            ),
        );
        put(&format!("cc.{stem}.decide_share"), ratio(decide_s, wall_s));
        put(
            &format!("cc.{stem}.grant_share"),
            ratio(calls.iter().map(|c| c.grants as f64).sum(), decides),
        );
        put(
            &format!("cc.{stem}.aborted_us"),
            median(
                &calls
                    .iter()
                    .map(|c| c.aborted_ns as f64 / 1e3)
                    .collect::<Vec<_>>(),
            ),
        );
        put(
            &format!("core.{stem}.rows_touched_per_decide"),
            ratio(sum(|r| r.metrics.decision_cost.rows_touched), decides),
        );
        put(
            &format!("core.{stem}.edges_per_step"),
            ratio(
                sum(|r| r.metrics.decision_cost.edges_inserted),
                sum(|r| r.metrics.decision_cost.steps_applied),
            ),
        );
        put(
            &format!("core.{stem}.rebuilds"),
            med(|r| r.metrics.decision_cost.rebuilds as f64),
        );
        put(
            &format!("core.{stem}.engine_rollbacks"),
            med(|r| r.metrics.decision_cost.rollbacks as f64),
        );
        put(
            &format!("sim.{stem}.self_share"),
            1.0 - ratio(control_s, wall_s),
        );
        put(
            &format!("sim.{stem}.max_cascade"),
            runs.iter()
                .map(|r| r.metrics.max_cascade() as f64)
                .fold(0.0, f64::max),
        );
        put(
            &format!("sim.{stem}.wasted_work"),
            med(|r| r.metrics.wasted_work()),
        );
        put(
            &format!("sim.{stem}.commit_rollbacks"),
            med(|r| r.metrics.commit_rollbacks as f64),
        );
        put(
            &format!("sim.{stem}.rollbacks_per_commit"),
            med(|r| r.metrics.aborts as f64 / r.metrics.committed as f64),
        );
    }
    put(
        "core.audit_window_ms",
        median(&tracer.durations_ms("core.audit_window")),
    );
    put(
        "core.audit_coverage",
        median(&pass.live(|d| ratio(d.audit_steps as f64, steps(d)))),
    );
    put("check.steps_per_s", extras.check.0);
    put("check.clusters", extras.check.1);
    v
}

/// The traced run's additional measurements: reference drains (two
/// workers; GC off), a storage replay of every drained history, and
/// `mla-check` over the first drain's audit windows.
fn extras(spec: Spec, seed: u64, pass: &mut Pass, tracer: &Tracer) -> Extras {
    let base = spec.live_config();
    let mut reference = |name: &'static str, config: mla_serve::ServeConfig| -> Vec<Drain> {
        let _span = tracer.span(name);
        let mut drains = Vec::new();
        for i in 0..REFERENCE_DRAINS as u64 {
            match live::drain(spec, &config, sub_seed(seed, i), tracer, false) {
                Ok(d) => {
                    pass.attempted += d.offered as u64;
                    drains.push(d);
                }
                Err((reason, offered)) => {
                    pass.attempted += offered as u64;
                    pass.fail(format!("{name} drain {i}: {reason}"), offered);
                }
            }
        }
        drains
    };
    let two_workers = reference(
        "serve.reference_two_workers",
        mla_serve::ServeConfig {
            workers: 2,
            ..base.clone()
        },
    );
    let no_gc = reference(
        "serve.reference_no_gc",
        mla_serve::ServeConfig {
            gc_interval: None,
            ..base
        },
    );
    let two_worker_tps = median(
        &two_workers
            .iter()
            .map(|d| d.report.committed as f64 / d.report.wall.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    let no_gc_wall_s = median(
        &no_gc
            .iter()
            .map(|d| d.report.wall.as_secs_f64())
            .collect::<Vec<_>>(),
    );

    let mut replays = Vec::new();
    let mut replay_failures = Vec::new();
    for (i, d) in pass.drains.iter().enumerate() {
        let load = spec.live_load(d.seed);
        let initial = &load.workload.initial;
        let ring: Vec<mla_model::EntityId> = if spec.conserves() {
            initial.iter().map(|&(e, _)| e).collect()
        } else {
            Vec::new()
        };
        let _span = tracer.span("storage.replay");
        match replay::replay(&d.report.history, initial, &ring, load.initial_total) {
            Ok(cost) => replays.push(cost),
            Err(reason) => {
                replay_failures.push((format!("replay of drain {i}: {reason}"), d.offered))
            }
        }
    }
    let mut check = (0.0, 0.0);
    if let Some(first) = pass.drains.first() {
        let load = spec.live_load(first.seed);
        match live::check_windows(&load, &first.report.history, tracer) {
            Ok(result) => check = result,
            Err(reason) => {
                replay_failures.push((format!("mla-check of drain 0: {reason}"), first.offered))
            }
        }
    }
    for (what, txns) in replay_failures {
        pass.fail(what, txns);
    }
    Extras {
        two_worker_tps,
        no_gc_wall_s,
        replays,
        check,
    }
}

fn summary(label: &str, samples: &Samples) {
    println!(
        "{label}: {} drains, {} simulator instances; {} of {} transactions failed (failed_share {})",
        samples.drains.len(),
        samples.instances.len(),
        samples.failed,
        samples.attempted,
        ratio(samples.failed as f64, samples.attempted as f64),
    );
    for f in &samples.failures {
        println!("FAILED: {f}");
    }
}

fn write_trace(spec: Spec, seed: u64, tracer: &Tracer, pass: &Pass) {
    let mut extra = Vec::new();
    for sched in Sched::BOTH {
        let calls: Vec<&timed::CallTimes> = pass
            .instances
            .iter()
            .filter_map(|i| i.run(sched).calls.as_ref())
            .collect();
        let total = |f: fn(&timed::CallTimes) -> u64| calls.iter().map(|c| f(c)).sum::<u64>();
        extra.push((
            format!("control_calls.{}", sched.stem()),
            format!(
                "{{\"decide\":{{\"count\":{},\"total_ns\":{}}},\"performed_ns\":{},\"committed_ns\":{},\"aborted_ns\":{}}}",
                total(|c| c.decide_ns.len() as u64),
                total(|c| c.decide_ns.iter().sum()),
                total(|c| c.performed_ns),
                total(|c| c.committed_ns),
                total(|c| c.aborted_ns),
            ),
        ));
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/trace");
    let path = format!("{dir}/{}-seed{seed}.json", spec.name());
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, tracer.to_json(spec.name(), seed, &extra)));
    match written {
        Ok(()) => println!("trace: {} spans written to {path}", tracer.len()),
        Err(e) => eprintln!("trace: cannot write {path}: {e}"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Args {
        spec,
        seed,
        seconds,
        trace,
        child_of,
    } = args;
    if let Some(n) = child_of {
        let pass = measure(
            spec,
            seed,
            seconds as f64 / n as f64,
            &Tracer::new(false),
            false,
        );
        print!("{}", pass.samples().to_lines());
        return ExitCode::SUCCESS;
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench: workload {}, seed {seed}, {seconds} s over {CHILDREN} processes, {threads} hardware threads",
        spec.name()
    );

    let untraced = run_children(spec, seed, seconds);
    summary("untraced", &untraced);
    let e2e = untraced.end_to_end();

    let (line, failed) = if trace {
        let tracer = Tracer::new(true);
        let mut traced = {
            let _root = tracer.span("perfbench.traced_pass");
            measure(spec, seed, seconds as f64, &tracer, true)
        };
        let e2e_traced = traced.samples().end_to_end();
        let extras = {
            let _root = tracer.span("perfbench.extras");
            extras(spec, seed, &mut traced, &tracer)
        };
        summary("traced (one process)", &traced.samples());
        println!(
            "{:<30} {:>16} {:>16} {:>9}",
            "end-to-end", "untraced", "traced", "change"
        );
        for (name, unit) in END_TO_END {
            let (a, b) = (e2e[name], e2e_traced[name]);
            println!(
                "{name:<30} {a:>16.3} {b:>16.3} {:>8.1}%  {unit}",
                100.0 * ratio(b - a, a)
            );
        }
        let layers = per_layer(&traced, &extras, &tracer);
        for (name, unit) in PER_LAYER {
            println!("{name:<40} {:>16.4} {unit}", layers[name]);
        }
        write_trace(spec, seed, &tracer, &traced);
        let failed = untraced.failed + traced.failed;
        let attempted = untraced.attempted + traced.attempted;
        (
            result_line(failed == 0, attempted, failed, &PER_LAYER, &layers),
            failed,
        )
    } else {
        for (name, unit) in END_TO_END {
            println!("{name:<30} {:>16.3} {unit}", e2e[name]);
        }
        (
            result_line(
                untraced.failed == 0,
                untraced.attempted,
                untraced.failed,
                &END_TO_END,
                &e2e,
            ),
            untraced.failed,
        )
    };
    println!("{line}");
    if failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
