//! The end-to-end figures of single drains and simulator instances.
//!
//! The untraced pass runs in several child processes (the same binary);
//! each prints its samples as `sample ...` lines and the parent pools
//! them, so one process's hash seeds and memory layout do not set a
//! whole run's figures. End-to-end metrics are computed from the pooled
//! samples.

use crate::metrics::Values;
use crate::stats::interquartile_mean;

/// One checked drain.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DrainSample {
    /// Commits per second of drain wall time.
    pub tps: f64,
    /// The drain's p50 commit latency, whole microseconds.
    pub p50_us: f64,
    /// The drain's p99 commit latency, whole microseconds.
    pub p99_us: f64,
    /// Steps the windowed audit covered per second of audit wall time.
    pub audit_steps_per_s: f64,
    /// Load generation plus certification, seconds.
    pub setup_s: f64,
}

/// One checked simulator run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimSample {
    /// Run wall time, verification excluded.
    pub wall_ms: f64,
    /// (commits + rollbacks) / commits.
    pub attempts_per_commit: f64,
    /// Commits per 1000 simulated ticks.
    pub commits_per_kt: f64,
}

/// One simulator instance under both schedulers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InstanceSample {
    /// Instance generation, milliseconds.
    pub gen_ms: f64,
    /// `mla-detect`.
    pub detect: SimSample,
    /// `mla-prevent`.
    pub prevent: SimSample,
}

/// Samples of one or more passes, with their failure accounting.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Samples {
    /// Checked drains.
    pub drains: Vec<DrainSample>,
    /// Checked simulator instances.
    pub instances: Vec<InstanceSample>,
    /// Transactions offered.
    pub attempted: u64,
    /// Transactions of failed drains and runs.
    pub failed: u64,
    /// Why each failure failed.
    pub failures: Vec<String>,
}

fn numbers(fields: &[&str]) -> Result<Vec<f64>, String> {
    fields
        .iter()
        .map(|f| f.parse::<f64>().map_err(|_| format!("bad number {f:?}")))
        .collect()
}

impl Samples {
    /// Adds `other`'s samples and accounting.
    pub fn merge(&mut self, other: Samples) {
        self.drains.extend(other.drains);
        self.instances.extend(other.instances);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }

    /// The `sample ...` lines a child process prints.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for d in &self.drains {
            out += &format!(
                "sample drain {} {} {} {} {}\n",
                d.tps, d.p50_us, d.p99_us, d.audit_steps_per_s, d.setup_s
            );
        }
        for i in &self.instances {
            let (d, p) = (i.detect, i.prevent);
            out += &format!(
                "sample instance {} {} {} {} {} {} {}\n",
                i.gen_ms,
                d.wall_ms,
                d.attempts_per_commit,
                d.commits_per_kt,
                p.wall_ms,
                p.attempts_per_commit,
                p.commits_per_kt
            );
        }
        out += &format!("sample count {} {}\n", self.attempted, self.failed);
        for f in &self.failures {
            out += &format!("sample failure {}\n", f.replace('\n', " "));
        }
        out
    }

    /// Parses the `sample ...` lines of `text`, ignoring other lines.
    pub fn parse(text: &str) -> Result<Samples, String> {
        let mut s = Samples::default();
        let mut counted = false;
        for line in text.lines() {
            let Some(rest) = line.strip_prefix("sample ") else {
                continue;
            };
            let (kind, body) = rest.split_once(' ').unwrap_or((rest, ""));
            if kind == "failure" {
                s.failures.push(body.to_string());
                continue;
            }
            let fields: Vec<&str> = body.split_whitespace().collect();
            let v = numbers(&fields)?;
            match (kind, v.as_slice()) {
                ("drain", &[tps, p50_us, p99_us, audit_steps_per_s, setup_s]) => {
                    s.drains.push(DrainSample {
                        tps,
                        p50_us,
                        p99_us,
                        audit_steps_per_s,
                        setup_s,
                    })
                }
                ("instance", &[gen_ms, dw, da, dk, pw, pa, pk]) => {
                    s.instances.push(InstanceSample {
                        gen_ms,
                        detect: SimSample {
                            wall_ms: dw,
                            attempts_per_commit: da,
                            commits_per_kt: dk,
                        },
                        prevent: SimSample {
                            wall_ms: pw,
                            attempts_per_commit: pa,
                            commits_per_kt: pk,
                        },
                    })
                }
                ("count", &[attempted, failed]) => {
                    s.attempted = attempted as u64;
                    s.failed = failed as u64;
                    counted = true;
                }
                _ => return Err(format!("bad sample line {line:?}")),
            }
        }
        if !counted {
            return Err("no sample count line".into());
        }
        Ok(s)
    }

    /// The end-to-end metrics of the pooled samples: each is the
    /// interquartile mean over drains or instances (the mean of the
    /// middle half). Processes differ in speed (one ran the same
    /// simulator instances at 10.5 ms and another at 16.9 ms), so the
    /// pooled samples fall into modes; a median jumps between modes as
    /// their mix shifts, the interquartile mean follows the mix
    /// smoothly. Per-drain latency percentiles are also whole
    /// microseconds, which the mean resolves below.
    pub fn end_to_end(&self) -> Values {
        let mut v = Values::new();
        let drains = |f: fn(&DrainSample) -> f64| {
            interquartile_mean(&self.drains.iter().map(f).collect::<Vec<_>>())
        };
        v.insert("commit_tps".into(), drains(|d| d.tps));
        v.insert("commit_p50_us".into(), drains(|d| d.p50_us));
        v.insert("commit_p99_us".into(), drains(|d| d.p99_us));
        v.insert("audit_steps_per_s".into(), drains(|d| d.audit_steps_per_s));
        let gen_s =
            interquartile_mean(&self.instances.iter().map(|i| i.gen_ms).collect::<Vec<_>>()) / 1e3;
        v.insert("setup_s".into(), drains(|d| d.setup_s) + gen_s);
        for (stem, pick) in [
            (
                "detect",
                (|i: &InstanceSample| i.detect) as fn(&InstanceSample) -> SimSample,
            ),
            ("prevent", |i: &InstanceSample| i.prevent),
        ] {
            let runs: Vec<SimSample> = self.instances.iter().map(pick).collect();
            let col = |f: fn(&SimSample) -> f64| {
                interquartile_mean(&runs.iter().map(f).collect::<Vec<_>>())
            };
            v.insert(format!("{stem}_run_ms"), col(|r| r.wall_ms));
            v.insert(
                format!("{stem}_attempts_per_commit"),
                col(|r| r.attempts_per_commit),
            );
            v.insert(format!("{stem}_commits_per_kt"), col(|r| r.commits_per_kt));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::END_TO_END;

    #[test]
    fn lines_round_trip_and_cover_the_catalogue() {
        let sim = |x: f64| SimSample {
            wall_ms: x,
            attempts_per_commit: 1.0 + x / 100.0,
            commits_per_kt: 300.0 + x,
        };
        let samples = Samples {
            drains: vec![DrainSample {
                tps: 12345.678,
                p50_us: 9.0,
                p99_us: 45000.0,
                audit_steps_per_s: 1e5,
                setup_s: 0.25,
            }],
            instances: vec![InstanceSample {
                gen_ms: 1.5,
                detect: sim(11.25),
                prevent: sim(12.5),
            }],
            attempted: 800,
            failed: 400,
            failures: vec!["drain 3: audit\nfailed".into()],
        };
        let parsed = Samples::parse(&format!("noise\n{}", samples.to_lines())).expect("parses");
        assert_eq!(parsed.drains, samples.drains);
        assert_eq!(parsed.instances, samples.instances);
        assert_eq!((parsed.attempted, parsed.failed), (800, 400));
        assert_eq!(parsed.failures, vec!["drain 3: audit failed".to_string()]);
        let e2e = parsed.end_to_end();
        for (name, _) in END_TO_END {
            assert!(e2e.contains_key(name), "{name}");
        }
        assert_eq!(e2e["setup_s"], 0.25 + 0.0015);
        assert!(Samples::parse("sample drain 1 2\n").is_err());
        assert!(Samples::parse("").is_err());
    }
}
