//! The metric catalogue (it must match `BENCHMARK.json`) and the result
//! line.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. Every workload reports each one.
pub const END_TO_END: [(&str, &str); 11] = [
    ("commit_tps", "txn/s"),
    ("commit_p50_us", "us"),
    ("commit_p99_us", "us"),
    ("audit_steps_per_s", "steps/s"),
    ("setup_s", "s"),
    ("detect_run_ms", "ms"),
    ("prevent_run_ms", "ms"),
    ("detect_attempts_per_commit", "ratio"),
    ("prevent_attempts_per_commit", "ratio"),
    ("detect_commits_per_kt", "txn/ktick"),
    ("prevent_commits_per_kt", "txn/ktick"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("workload.gen_ms", "ms"),
    ("lint.certify_ms", "ms"),
    ("serve.drain_ms", "ms"),
    ("serve.defers_per_commit", "ratio"),
    ("serve.commit_hazards", "count"),
    ("serve.stall_breaks", "count"),
    ("serve.certified_skips_per_step", "ratio"),
    ("serve.worker_scaling", "ratio"),
    ("serve.gc_share", "ratio"),
    ("storage.latch_wait_share", "ratio"),
    ("storage.gc_fold_share", "ratio"),
    ("storage.gc_passes", "count"),
    ("storage.live_versions", "count"),
    ("storage.snapshot_checks_per_s", "1/s"),
    ("storage.install_ns", "ns"),
    ("storage.latest_ns", "ns"),
    ("storage.read_at_ns", "ns"),
    ("storage.latch_acquire_ns", "ns"),
    ("storage.gc_before_ms", "ms"),
    ("cc.detect.decide_us.p50", "us"),
    ("cc.detect.decide_us.p99", "us"),
    ("cc.detect.decide_calls", "count"),
    ("cc.detect.decide_share", "ratio"),
    ("cc.detect.grant_share", "ratio"),
    ("cc.detect.aborted_us", "us"),
    ("cc.prevent.decide_us.p50", "us"),
    ("cc.prevent.decide_us.p99", "us"),
    ("cc.prevent.decide_calls", "count"),
    ("cc.prevent.decide_share", "ratio"),
    ("cc.prevent.grant_share", "ratio"),
    ("cc.prevent.aborted_us", "us"),
    ("core.detect.rows_touched_per_decide", "ratio"),
    ("core.detect.edges_per_step", "ratio"),
    ("core.detect.rebuilds", "count"),
    ("core.detect.engine_rollbacks", "count"),
    ("core.prevent.rows_touched_per_decide", "ratio"),
    ("core.prevent.edges_per_step", "ratio"),
    ("core.prevent.rebuilds", "count"),
    ("core.prevent.engine_rollbacks", "count"),
    ("core.audit_window_ms", "ms"),
    ("core.audit_coverage", "ratio"),
    ("sim.detect.self_share", "ratio"),
    ("sim.detect.max_cascade", "count"),
    ("sim.detect.wasted_work", "ratio"),
    ("sim.detect.commit_rollbacks", "count"),
    ("sim.detect.rollbacks_per_commit", "ratio"),
    ("sim.prevent.self_share", "ratio"),
    ("sim.prevent.max_cascade", "count"),
    ("sim.prevent.wasted_work", "ratio"),
    ("sim.prevent.commit_rollbacks", "count"),
    ("sim.prevent.rollbacks_per_commit", "ratio"),
    ("check.steps_per_s", "steps/s"),
    ("check.clusters", "count"),
];

/// Named metric values.
pub type Values = BTreeMap<String, f64>;

/// The result line: exactly the metrics of `catalogue`, in its order.
/// Panics if a metric is missing or not finite (a benchmark bug, not a
/// measurement).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[(&str, &str)],
    values: &Values,
) -> String {
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|&(name, unit)| {
            let v = *values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert!(v.is_finite(), "metric {name} is {v}");
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;

    /// Every `"name": "..."` and `"unit": "..."` value in the file, in order.
    fn field_values(text: &str, field: &str) -> Vec<String> {
        let key = format!("\"{field}\": \"");
        text.match_indices(&key)
            .map(|(i, _)| {
                let rest = &text[i + key.len()..];
                rest[..rest.find('"').expect("closing quote")].to_string()
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let mut expected: Vec<String> = NAMES.iter().map(|s| s.to_string()).collect();
        expected.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
        expected.extend(PER_LAYER.iter().map(|(n, _)| n.to_string()));
        assert_eq!(field_values(&text, "name"), expected);
        let units: Vec<String> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(_, u)| u.to_string())
            .collect();
        assert_eq!(field_values(&text, "unit"), units);
    }

    #[test]
    fn result_line_lists_the_catalogue() {
        let values: Values = END_TO_END
            .iter()
            .map(|(n, _)| (n.to_string(), 1.25))
            .collect();
        let line = result_line(true, 3, 0, &END_TO_END, &values);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
    }
}
