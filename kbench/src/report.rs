//! Metric names and units, the run manifest, and the result line.

use std::collections::BTreeMap;
use std::path::Path;

use crate::spans::escape;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of
/// them, each over its own unit of work: a request (`cnn-serve`), a
/// priced cell (`farm-sweep`) or a KTRC event (`trace-capture`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
    ("host_items_per_s", "1/s"),
    ("modeled_gflops", "GFlop/s"),
];

/// Engine families the kernels are grouped into.
pub const FAMILIES: [&str; 5] = ["special", "general", "implicit_gemm", "systolic", "half2"];

/// Bottleneck labels of `Timing::bottleneck`, with spaces as `_`.
pub const BOUNDS: [&str; 4] = ["compute", "shared_memory", "global_memory", "latency"];

/// Names of the farm corpus captures, in corpus order.
pub const CORPUS: [&str; 15] = [
    "special-3x3",
    "special-5x5",
    "special-7x7",
    "general-3x3",
    "general-5x5",
    "general-7x7",
    "general-3x3-strided",
    "implicit-gemm-3x3",
    "special-3x3-fp16",
    "special-3x3-int8",
    "special-3x3-n1",
    "special-3x3-half2",
    "systolic-3x3-d2",
    "systolic-3x3-strided",
    "systolic-3x3-depthwise",
];

/// Per-layer metrics of the traced run: `(name, unit)`. Every workload
/// reports all of them; a layer the workload never enters reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| v.push((name.to_string(), unit));
    for (n, u) in [
        ("serve.self_s", "s"),
        ("serve.batch_mean", "count"),
        ("serve.plan_hits", "count"),
        ("serve.plan_misses", "count"),
        ("serve.shed", "count"),
        ("serve.wait_mean_ms", "ms"),
        ("serve.wait_tail_ms", "ms"),
        ("serve.modeled_p50_ms", "ms"),
        ("serve.modeled_tail_ms", "ms"),
        ("serve.slo_frac", "frac"),
        ("serve.capacity_rps", "1/s"),
        ("apps.plan_s", "s"),
        ("apps.post_s", "s"),
        ("apps.post_modeled_ms", "ms"),
        ("apps.forward_modeled_ms", "ms"),
    ] {
        add(n, u);
    }
    for f in FAMILIES {
        add(&format!("kernel.{f}.host_s"), "s");
        add(&format!("kernel.{f}.modeled_ms"), "ms");
        add(&format!("kernel.{f}.gflops"), "GFlop/s");
    }
    for (n, u) in [
        ("sim.mem_ops", "count"),
        ("sim.mem_ops_per_s", "1/s"),
        ("sim.threads_speedup", "x"),
        ("sim.gm_efficiency", "frac"),
        ("sim.ro_hit_rate", "frac"),
        ("sim.sm_conflict_factor", "x"),
        ("sim.bar_syncs", "count"),
        ("timing.t_compute_ms", "ms"),
        ("timing.t_smem_ms", "ms"),
        ("timing.t_gm_ms", "ms"),
        ("timing.t_barrier_ms", "ms"),
        ("timing.t_latency_ms", "ms"),
    ] {
        add(n, u);
    }
    for (n, u) in [
        ("trace.encode_s", "s"),
        ("trace.encode_mb_per_s", "MB/s"),
        ("trace.bytes_per_event", "B"),
        ("trace.decode_s", "s"),
        ("trace.decode_mb_per_s", "MB/s"),
        ("replay.price_s", "s"),
        ("replay.events_per_s", "1/s"),
        ("replay.sweep_s", "s"),
        ("replay.pool_efficiency", "frac"),
    ] {
        add(n, u);
    }
    for t in CORPUS {
        add(&format!("replay.price_share.{t}"), "frac");
    }
    for (n, u) in [
        ("setup.inputs_s", "s"),
        ("setup.capture_s", "s"),
        ("bench.op_s", "s"),
        ("bench.unattributed_s", "s"),
        ("trace_overhead_frac", "frac"),
    ] {
        add(n, u);
    }
    v
}

fn unit_of(name: &str) -> &'static str {
    if let Some(&(_, u)) = END_TO_END.iter().find(|(n, _)| *n == name) {
        return u;
    }
    per_layer()
        .into_iter()
        .find(|(n, _)| n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

/// The metrics of one run. An untraced run keeps only end-to-end metrics
/// and a traced run only per-layer ones, so a workload can report
/// everything it computed.
#[derive(Debug, Default)]
pub struct Metrics {
    traced: bool,
    items: Vec<(String, f64)>,
}

impl Metrics {
    /// Metrics of a traced (per-layer) or untraced (end-to-end) run.
    pub fn new(traced: bool) -> Self {
        Metrics {
            traced,
            items: Vec::new(),
        }
    }

    /// Reports `name` (which must be declared above) if it is of this
    /// run's kind.
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        unit_of(&name);
        let e2e = END_TO_END.iter().any(|(n, _)| *n == name);
        if e2e == self.traced {
            return;
        }
        assert!(
            self.items.iter().all(|(n, _)| *n != name),
            "metric {name} reported twice"
        );
        self.items.push((name, value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.items.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// End-to-end metrics an untraced run has not reported. Every workload
    /// must report all of them.
    pub fn missing(&self) -> Vec<&'static str> {
        if self.traced {
            return Vec::new();
        }
        END_TO_END
            .iter()
            .map(|&(n, _)| n)
            .filter(|n| self.get(n).is_none())
            .collect()
    }

    /// Names of reported metrics whose value is not a finite number.
    pub fn non_finite(&self) -> Vec<&str> {
        self.items
            .iter()
            .filter(|(_, v)| !v.is_finite())
            .map(|(n, _)| n.as_str())
            .collect()
    }

    /// The `metrics` object of the result line, in declaration order. A
    /// traced run lists every per-layer metric, with 0 for a layer the
    /// workload never entered.
    pub fn json(&self) -> String {
        let declared: Vec<(String, &str)> = if self.traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let fields: Vec<String> = declared
            .iter()
            .filter_map(|(n, u)| {
                let v = self.get(n).or(self.traced.then_some(0.0))?;
                Some(format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{u}\"}}",
                    escape(n)
                ))
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Units of work attempted in the measured ops.
    pub attempted: u64,
    /// ... of which failed.
    pub failed: u64,
    /// Every metric of the run.
    pub metrics: Metrics,
    /// Facts about how the run was made, beyond the common manifest.
    pub notes: BTreeMap<String, String>,
}

/// The result line the command prints last.
pub fn result_line(correct: bool, out: &Outcome) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        out.metrics.json()
    )
}

/// A JSON object of string values.
pub fn json_object(map: &BTreeMap<String, String>) -> String {
    let fields: Vec<String> = map
        .iter()
        .map(|(k, v)| format!("\"{}\": \"{}\"", escape(k), escape(v)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The process's peak resident set, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The commit the checkout is at, read from `.git` beside the benchmark;
/// `unknown` outside a git checkout.
pub fn git_rev(repo: &Path) -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let git = repo.join(".git");
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&git.join(reference)) {
        return rev.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric the code can report is declared in `BENCHMARK.json`
    /// with the same unit, and nothing else is.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let all: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(per_layer())
            .collect();
        for (n, u) in &all {
            let entry = format!("\"name\": \"{n}\", \"unit\": \"{u}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(json.matches("\"unit\":").count(), all.len());
        assert_eq!(
            CORPUS.to_vec(),
            kconv_bench::farm::corpus()
                .iter()
                .map(|e| e.name)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.metrics.put("setup_s", 0.25);
        out.metrics.put("ok_frac", 1.0);
        out.metrics.put("bench.op_s", 2.0);
        let line = result_line(true, &out);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"ok_frac\": {\"value\": 1, \"unit\": \"frac\"}}}"
        );
    }

    #[test]
    fn a_run_keeps_only_its_kind_of_metric() {
        let mut m = Metrics::new(true);
        m.put("setup_s", 1.0);
        m.put("bench.op_s", 2.0);
        let json = m.json();
        assert!(!json.contains("setup_s"));
        assert!(json.contains("\"bench.op_s\": {\"value\": 2, \"unit\": \"s\"}"));
    }

    /// A traced run lists every per-layer metric, 0 where the workload
    /// never entered the layer; an untraced run names what it left out.
    #[test]
    fn every_declared_metric_is_listed_or_missing() {
        let mut traced = Metrics::new(true);
        traced.put("replay.sweep_s", 0.5);
        let json = traced.json();
        for (n, u) in per_layer() {
            assert!(json.contains(&format!("\"{n}\": {{\"value\"")), "{n}");
            assert!(json.contains(&format!("\"unit\": \"{u}\"")), "{n}");
        }
        assert!(json.contains("\"serve.self_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert!(traced.missing().is_empty());

        let mut plain = Metrics::new(false);
        plain.put("setup_s", 0.1);
        plain.put("ok_frac", 1.0);
        assert_eq!(
            plain.missing(),
            vec!["peak_rss_mb", "host_items_per_s", "modeled_gflops"]
        );
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_is_a_bug() {
        Metrics::default().put("nope", 1.0);
    }
}
