//! Metric names and units, and the result line the driver reads.
//!
//! The two tables below are the same lists `BENCHMARK.json` carries; a
//! test holds them together.

use crate::estimators::Summary;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the system sees; reported by a run with `--trace 0`.
/// The tail is not among them: a run prints `query_p99_us`, but across
/// same-code runs on this host its spread reached 39 %, past any bound
/// the contract allows, so nothing is gated on it (see README.md).
pub const END_TO_END: &[MetricDef] = &[
    def("throughput_ops_s", "1/s"),
    def("query_p50_us", "us"),
    def("cpu_us_per_op", "us"),
    def("setup_s", "s"),
    def("index_mib", "MiB"),
    def("resident_mib", "MiB"),
];

/// Single layers, by this repository's modules; reported by a run with
/// `--trace 1`. A layer that is not on a workload's path reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    def("synth.venue_gen_s", "s"),
    def("build.tree_s", "s"),
    def("build.leaf_grid_s", "s"),
    def("build.objects_attach_s", "s"),
    def("build.keywords_s", "s"),
    def("build.nodes", "count"),
    def("build.leaves", "count"),
    def("tree.knn_us", "us"),
    def("tree.range_us", "us"),
    def("tree.sd_us", "us"),
    def("tree.sp_us", "us"),
    def("keywords.knn_us", "us"),
    def("tree.nodes_pushed_per_q", "count"),
    def("tree.prune_rate", "ratio"),
    def("tree.slab_rows_per_q", "count"),
    def("tree.kbest_updates_per_q", "count"),
    def("tree.descent_share", "ratio"),
    def("tree.leaf_fold_share", "ratio"),
    def("tree.heap_share", "ratio"),
    def("engine.execute_us", "us"),
    def("engine.self_us", "us"),
    def("service.miss_us", "us"),
    def("service.hit_us", "us"),
    def("service.self_us", "us"),
    def("service.query_p99_us", "us"),
    def("service.batch1_us", "us"),
    def("service.batch8_us_per_req", "us"),
    def("service.cache_hit_rate", "ratio"),
    def("service.cache_evictions", "count"),
    def("service.cache_probe_us", "us"),
    def("service.admission_wait_us", "us"),
    def("service.shed", "count"),
    def("objects.update_us_per_batch", "us"),
    def("objects.leaf_touches_per_delta", "count"),
    def("objects.leaf_builds", "count"),
    def("objects.compactions", "count"),
    def("keywords.update_us_per_batch", "us"),
    def("persist.self_us_per_batch", "us"),
    def("persist.wal_append_us", "us"),
    def("persist.wal_appends", "count"),
    def("persist.wal_bytes_per_delta", "B"),
    def("persist.snapshot_s", "s"),
    def("persist.snapshot_bytes", "B"),
    def("persist.replayed_records", "count"),
    def("persist.update_p50_us", "us"),
    def("persist.update_p99_us", "us"),
    def("persist.recover_s", "s"),
    def("persist.snapshot_stall_ratio", "ratio"),
    def("frames.encode_query_us", "us"),
    def("frames.decode_query_us", "us"),
    def("frames.encode_answer_us", "us"),
    def("frames.decode_answer_us", "us"),
    def("frames.bytes_per_query", "B"),
    def("frames.bytes_per_answer", "B"),
    def("net.rtt_ping_us", "us"),
    def("net.rtt_query_c1d1_us", "us"),
    def("net.rtt_query_c1d1_p99_us", "us"),
    def("net.self_us", "us"),
    def("net.open3k_p50_us", "us"),
    def("net.open3k_late_p99_us", "us"),
    def("host.ref_kernel_us", "us"),
    def("trace.overhead_ratio", "ratio"),
];

/// The metrics of one run, the operations it attempted, and everything
/// that went wrong.
pub struct Report {
    defs: &'static [MetricDef],
    values: Vec<Option<f64>>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks other than wrong answers: a stream that is not the
    /// pinned one, a workload that no longer loads its layer.
    pub problems: Vec<String>,
}

impl Report {
    pub fn new(defs: &'static [MetricDef]) -> Report {
        Report {
            defs,
            values: vec![None; defs.len()],
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Record and print one metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let at = self.index(name);
        println!("{name} = {value:.4} {}", self.defs[at].unit);
        self.store(at, value);
    }

    /// Record one metric from its per-slice summary and print it with
    /// its quartiles and sample count.
    pub fn set_summary(&mut self, name: &str, summary: Summary) {
        let at = self.index(name);
        println!("{name} = {summary} {}", self.defs[at].unit);
        self.store(at, summary.median);
    }

    fn index(&self, name: &str) -> usize {
        self.defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"))
    }

    fn store(&mut self, at: usize, value: f64) {
        if !value.is_finite() {
            self.problem(format!("metric {} is not a number", self.defs[at].name));
        }
        self.values[at] = Some(value);
    }

    pub fn problem(&mut self, what: String) {
        eprintln!("CHECK FAILED: {what}");
        self.problems.push(what);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`. Metrics never set read 0.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed + self.problems.len() as u64,
        );
        for (i, (d, v)) in self.defs.iter().zip(&self.values).enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let v = v.filter(|v| v.is_finite()).unwrap_or(0.0);
            out.push_str(&format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            ));
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indoor_model::json::{self, Json};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect("string").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let doc = benchmark_json();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let ours: Vec<(String, String)> = defs
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect();
            assert_eq!(listed(&doc, key), ours, "{key}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS as f64)
        );
    }

    #[test]
    fn setup_has_the_largest_bound_and_none_exceeds_a_quarter() {
        let doc = benchmark_json();
        let bound = |m: &Json| m.get("bound").and_then(Json::as_f64).unwrap();
        let metrics = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        let setup = metrics
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
            .expect("setup_s is an end-to-end metric");
        for m in metrics {
            assert!(bound(m) <= bound(setup) && bound(m) <= 0.25, "{m:?}");
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut r = Report::new(END_TO_END);
        r.attempted = 1000;
        r.set("query_p50_us", 1.25);
        let doc = json::parse(&r.json_line()).expect("result line parses");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(1000.0));
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("metrics object");
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        let p50 = doc.get("metrics").unwrap().get("query_p50_us").unwrap();
        assert_eq!(p50.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(p50.get("unit").and_then(Json::as_str), Some("us"));

        r.problem("hit rate left its band".into());
        let doc = json::parse(&r.json_line()).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(1.0));
    }
}
