//! Metric names and units, and the result line the run ends with.

use crate::probes::{DEVICES, KERNEL_PROBES};

/// End-to-end metrics (untraced runs), with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("events_per_s", "1/s"),
    ("cells_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("paper_error_pct", "%"),
];

/// Simulated-time occupancy counters each kernel probe reports.
pub const SIM_COUNTERS: [&str; 8] = [
    "isr_ns",
    "softirq_ns",
    "tick_ns",
    "spin_ns",
    "irq_thread_ns",
    "irqs",
    "switches",
    "ticks_elided",
];

/// Per-layer metrics (traced runs), with their units, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| m.push((name, unit));
    for name in [
        "wheel.push_pop_ns",
        "wheel.cancel_ns",
        "rng.fill_ns",
        "dist.pareto_batch_ns",
    ] {
        add(format!("simcore.{name}"), "ns");
    }
    for probe in KERNEL_PROBES {
        add(format!("kernel.ns_per_event.{probe}"), "ns");
    }
    add("kernel.flight_armed_pct".into(), "%");
    for name in ["build_us", "checkpoint_us", "restore_us", "reseed_us"] {
        add(format!("kernel.{name}"), "us");
    }
    add("core.shield_apply_us".into(), "us");
    add("experiments.sweep.cell_overhead_pct".into(), "%");
    add("metrics.histogram.record_ns".into(), "ns");
    add("metrics.histogram.merge_us".into(), "us");
    add("fleet.dispatch_ns".into(), "ns");
    add("fleet.busy_share".into(), "ratio");
    add("fleet.reorder_wait_ms".into(), "ms");
    for fig in 1..=7 {
        add(format!("experiments.figure_s.fig{fig}"), "s");
    }
    add("trace.coverage".into(), "ratio");
    add("trace.overhead_pct".into(), "%");
    // Exact counters: they repeat run to run, and a change meant only for
    // speed must leave every one of them unchanged.
    add("kernel.events".into(), "count");
    add("fleet.jobs".into(), "count");
    for name in ["warm_hits", "warm_misses"] {
        add(format!("experiments.sweep.{name}"), "count");
    }
    add("experiments.sweep.sample_yield".into(), "ratio");
    add("experiments.band_misses".into(), "count");
    for probe in KERNEL_PROBES {
        add(format!("kernel.events_per_sim_ms.{probe}"), "count");
        for counter in SIM_COUNTERS {
            add(format!("kernel.sim.{probe}.{counter}"), "count");
        }
        add(format!("kernel.lock.contended.{probe}"), "count");
    }
    for device in DEVICES {
        add(format!("devices.irqs.{device}"), "count");
    }
    add("inject.storm.irqs".into(), "count");
    m
}

/// A metric name is letters, digits, `_`, `.` and `-`, at most 64 long,
/// and starts with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The run's last line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(valid_name(name), "invalid metric name {name:?}");
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

/// JSON has no NaN or infinity; a value that is not finite is a bug here.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric names");
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn invalid_names_are_rejected() {
        for bad in ["", ".x", "a b", "a/b", "kernel.ns{per}", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    /// BENCHMARK.json at the repository root lists exactly these metrics.
    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let listed = |section: &str| -> Vec<String> {
            let start = json
                .find(&format!("\"{section}\""))
                .expect("section present");
            let end = json[start..].find(']').expect("section closes") + start;
            json[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("name closes")].to_string())
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layer: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(listed("per_layer"), layer);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_line(3, 1, &[("wall_s".into(), 1.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \
             \"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
