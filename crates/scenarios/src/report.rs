//! Machine- and human-readable outputs of a matrix run.
//!
//! [`render_json`] emits the document `scenario_bench --out` writes:
//!
//! ```json
//! {
//!   "suite": "scenario-matrix",
//!   "seed": 42,
//!   "host_cores": 1,
//!   "workers": 4,
//!   "profiles": [ {"name": "...", "fingerprint": "0x...", ...} ],
//!   "results":  [ {"profile": "...", "index": "...", "p50_us": ...} ]
//! }
//! ```
//!
//! Fingerprints are hex **strings**, not numbers — a u64 does not
//! round-trip through f64 JSON parsing. [`crossover_matrix`] renders the
//! comparative table (which index wins where, what each index costs to
//! build and hold, and what overload did to the service cells).

use crate::run::CellMetrics;
use std::fmt::Write as _;
use std::time::Duration;

/// Identity of one compiled profile stream: size plus the order- and
/// content-sensitive fingerprint (pinned at seed 42 by
/// [`crate::matrix::PINNED_FINGERPRINTS`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileDigest {
    pub name: String,
    pub fingerprint: u64,
    pub ticks: u32,
    pub queries: usize,
    pub deltas: usize,
}

/// Render the JSON document.
pub fn render_json(
    seed: u64,
    workers: usize,
    digests: &[ProfileDigest],
    cells: &[CellMetrics],
) -> String {
    let host_cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"suite\": \"scenario-matrix\",");
    let _ = writeln!(s, "  \"seed\": {seed},");
    let _ = writeln!(s, "  \"host_cores\": {host_cores},");
    let _ = writeln!(s, "  \"workers\": {workers},");
    s.push_str("  \"profiles\": [\n");
    for (i, d) in digests.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"name\": \"{}\", \"fingerprint\": \"0x{:016x}\", \"ticks\": {}, \"queries\": {}, \"deltas\": {}}}",
            d.name, d.fingerprint, d.ticks, d.queries, d.deltas
        );
        s.push_str(if i + 1 < digests.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"profile\": \"{}\", \"index\": \"{}\", \"requests\": {}, \"answered\": {}, \
             \"dropped\": {}, \"shed\": {}, \"timeouts\": {}, \"p50_us\": {:.3}, \
             \"p99_us\": {:.3}, \"p999_us\": {:.3}, \"max_us\": {:.3}, \"qps\": {:.1}, \
             \"cache_hit_rate\": {:.4}, \"deltas\": {}, \"deltas_per_sec\": {:.1}, \
             \"wall_ms\": {:.2}, \"phase_descent_us\": {:.3}, \"phase_leaf_fold_us\": {:.3}, \
             \"phase_heap_us\": {:.3}}}",
            c.profile,
            c.index,
            c.requests,
            c.answered,
            c.dropped,
            c.shed,
            c.timeouts,
            c.p50_us,
            c.p99_us,
            c.p999_us,
            c.max_us,
            c.qps,
            c.cache_hit_rate,
            c.deltas,
            c.deltas_per_sec,
            c.wall_ms,
            c.phase_descent_us,
            c.phase_leaf_fold_us,
            c.phase_heap_us
        );
        s.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Size and construction time of one bare index of the matrix's suite.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexCost {
    pub index: String,
    /// `index_size_bytes` as replayed: objects attached, every leaf grid
    /// built.
    pub bytes: usize,
    /// Construction wall time, leaf grids excluded.
    pub build: Duration,
}

/// Render the human-readable crossover matrix: p50 latency per
/// (profile × index) with the per-profile winner starred (`n/a` for a
/// cell that timed nothing, never starred), each index's size and build
/// time (when `costs` is non-empty), then the service-cell detail lines
/// (throughput, overload, cache, churn).
pub fn crossover_matrix(cells: &[CellMetrics], costs: &[IndexCost]) -> String {
    let mut profiles: Vec<&str> = Vec::new();
    let mut indexes: Vec<&str> = Vec::new();
    for c in cells {
        if !profiles.contains(&c.profile.as_str()) {
            profiles.push(&c.profile);
        }
        if !indexes.contains(&c.index.as_str()) {
            indexes.push(&c.index);
        }
    }
    let cell = |p: &str, ix: &str| cells.iter().find(|c| c.profile == p && c.index == ix);

    let mut s = String::new();
    s.push_str("Crossover matrix — p50 us per request (* = fastest for the profile)\n\n");
    let _ = write!(s, "{:<16}", "profile");
    for ix in &indexes {
        let _ = write!(s, "{ix:>12}");
    }
    s.push('\n');
    for p in &profiles {
        let best = indexes
            .iter()
            .filter_map(|ix| cell(p, ix))
            .filter(|c| c.answered > 0)
            .map(|c| c.p50_us)
            .fold(f64::INFINITY, f64::min);
        let _ = write!(s, "{p:<16}");
        for ix in &indexes {
            let text = match cell(p, ix) {
                None => "-".to_string(),
                Some(c) if c.answered == 0 => "n/a".to_string(),
                Some(c) => {
                    let star = if c.p50_us == best { "*" } else { "" };
                    format!("{:.1}{star}", c.p50_us)
                }
            };
            let _ = write!(s, "{text:>12}");
        }
        s.push('\n');
    }

    if !costs.is_empty() {
        s.push_str(
            "\nIndex cost — slot-0 venue as replayed (objects attached, leaf grids \
             built; build excludes the grids)\n\n",
        );
        let cost_row = |s: &mut String, label: &str, value: &dyn Fn(&IndexCost) -> String| {
            let _ = write!(s, "{label:<16}");
            for ix in &indexes {
                let text = costs
                    .iter()
                    .find(|c| c.index == *ix)
                    .map_or_else(|| "-".to_string(), value);
                let _ = write!(s, "{text:>12}");
            }
            s.push('\n');
        };
        cost_row(&mut s, "size KiB", &|c| {
            format!("{:.1}", c.bytes as f64 / 1024.0)
        });
        cost_row(&mut s, "build ms", &|c| {
            format!("{:.2}", c.build.as_secs_f64() * 1e3)
        });
    }

    s.push_str("\nService cells (end-to-end: admission + cache + churn)\n\n");
    let _ = writeln!(
        s,
        "{:<16} {:>9} {:>8} {:>9} {:>9} {:>8} {:>8} {:>8} {:>9} {:>11}",
        "profile",
        "qps",
        "p99 us",
        "p999 us",
        "max us",
        "shed",
        "timeout",
        "dropped",
        "hit rate",
        "deltas/s"
    );
    for c in cells.iter().filter(|c| c.index == "SVC") {
        let _ = writeln!(
            s,
            "{:<16} {:>9.0} {:>8.1} {:>9.1} {:>9.1} {:>8} {:>8} {:>8} {:>8.1}% {:>11.0}",
            c.profile,
            c.qps,
            c.p99_us,
            c.p999_us,
            c.max_us,
            c.shed,
            c.timeouts,
            c.dropped,
            c.cache_hit_rate * 100.0,
            c.deltas_per_sec
        );
    }

    // Phase attribution: where traced queries spent their time, per
    // service cell — the flash-crowd vs churn-storm comparison the
    // sampled engine traces exist to answer.
    s.push_str("\nPhase attribution — mean sampled engine-phase time (us)\n\n");
    let _ = writeln!(
        s,
        "{:<16} {:>10} {:>10} {:>10}",
        "profile", "descent", "leaf fold", "heap"
    );
    for c in cells.iter().filter(|c| c.index == "SVC") {
        let _ = writeln!(
            s,
            "{:<16} {:>10.2} {:>10.2} {:>10.2}",
            c.profile, c.phase_descent_us, c.phase_leaf_fold_us, c.phase_heap_us
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use indoor_model::json::{self, Json};

    fn cell(profile: &str, index: &str, p50: f64) -> CellMetrics {
        CellMetrics {
            profile: profile.into(),
            index: index.into(),
            requests: 10,
            answered: 10,
            dropped: 0,
            shed: 1,
            timeouts: 2,
            p50_us: p50,
            p99_us: p50 * 3.0,
            p999_us: p50 * 9.0,
            max_us: p50 * 20.0,
            qps: 1000.0,
            cache_hit_rate: 0.25,
            deltas: 5,
            deltas_per_sec: 50.0,
            wall_ms: 10.0,
            phase_descent_us: 4.5,
            phase_leaf_fold_us: 1.25,
            phase_heap_us: 0.5,
        }
    }

    #[test]
    fn json_round_trips_through_the_vendored_parser() {
        let digests = [ProfileDigest {
            name: "diurnal".into(),
            fingerprint: 0xdead_beef_cafe_f00d,
            ticks: 32,
            queries: 1536,
            deltas: 0,
        }];
        let cells = [cell("diurnal", "SVC", 21.5), cell("diurnal", "VIP", 14.0)];
        let text = render_json(42, 4, &digests, &cells);
        let doc = json::parse(&text).expect("parses");
        assert_eq!(doc.get("seed").and_then(Json::as_usize), Some(42));
        let profiles = doc.get("profiles").and_then(Json::as_arr).unwrap();
        assert_eq!(
            profiles[0].get("fingerprint").and_then(Json::as_str),
            Some("0xdeadbeefcafef00d")
        );
        let results = doc.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[1].get("index").and_then(Json::as_str), Some("VIP"));
        assert!(results[0].get("p50_us").and_then(Json::as_f64).unwrap() > 21.0);
    }

    #[test]
    fn crossover_stars_the_winner_and_details_service_cells() {
        let cells = [
            cell("diurnal", "SVC", 21.5),
            cell("diurnal", "VIP", 14.0),
            cell("diurnal", "GT", 19.0),
        ];
        let costs = [IndexCost {
            index: "VIP".into(),
            bytes: 2048,
            build: Duration::from_micros(1500),
        }];
        let m = crossover_matrix(&cells, &costs);
        assert!(m.contains("14.0*"), "winner starred:\n{m}");
        assert!(!m.contains("19.0*"), "loser unstarred:\n{m}");
        let row = |label: &str| m.lines().find(|l| l.starts_with(label)).unwrap();
        assert_eq!(
            row("size KiB").split_whitespace().collect::<Vec<_>>(),
            ["size", "KiB", "-", "2.0", "-"],
            "{m}"
        );
        assert!(row("build ms").ends_with("1.50           -"), "{m}");
        assert!(m.contains("Service cells"), "{m}");
        assert!(m.contains("25.0%"), "hit rate rendered:\n{m}");
    }
}
