//! The human-readable output of a matrix run: [`crossover_matrix`]
//! renders one row per profile's service cell (latency, throughput,
//! overload, cache, churn) and the phase attribution of its sampled
//! engine traces. `scenario_bench --matrix-out` writes it; the committed
//! copy is `BENCH_scenarios_matrix.txt`.

use crate::run::CellMetrics;
use std::fmt::Write as _;

/// Render the matrix: the service-cell table, then the phase
/// attribution.
pub fn crossover_matrix(cells: &[CellMetrics]) -> String {
    let mut s = String::new();
    s.push_str("Service cells — end-to-end: admission + cache + churn (latency in us)\n\n");
    let _ = writeln!(
        s,
        "{:<16} {:>9} {:>8} {:>8} {:>9} {:>9} {:>8} {:>8} {:>8} {:>9} {:>11}",
        "profile",
        "qps",
        "p50 us",
        "p99 us",
        "p999 us",
        "max us",
        "shed",
        "timeout",
        "dropped",
        "hit rate",
        "deltas/s"
    );
    for c in cells {
        let _ = writeln!(
            s,
            "{:<16} {:>9.0} {:>8.1} {:>8.1} {:>9.1} {:>9.1} {:>8} {:>8} {:>8} {:>8.1}% {:>11.0}",
            c.profile,
            c.qps,
            c.p50_us,
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
    for c in cells {
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

    fn cell(profile: &str, p50: f64) -> CellMetrics {
        CellMetrics {
            profile: profile.into(),
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
            deltas_per_sec: 50.0,
            phase_descent_us: 4.5,
            phase_leaf_fold_us: 1.25,
            phase_heap_us: 0.5,
        }
    }

    #[test]
    fn crossover_stars_the_winner_and_details_service_cells() {
        let m = crossover_matrix(&[cell("diurnal", 21.5), cell("flash_crowd", 14.0)]);
        let rows: Vec<&str> = m.lines().filter(|l| l.starts_with("diurnal")).collect();
        assert_eq!(rows.len(), 2, "one service row and one phase row:\n{m}");
        assert_eq!(
            rows[0].split_whitespace().collect::<Vec<_>>(),
            ["diurnal", "1000", "21.5", "64.5", "193.5", "430.0", "1", "2", "0", "25.0%", "50"],
            "{m}"
        );
        assert_eq!(
            rows[1].split_whitespace().collect::<Vec<_>>(),
            ["diurnal", "4.50", "1.25", "0.50"],
            "{m}"
        );
        let flash = m.lines().find(|l| l.starts_with("flash_crowd")).unwrap();
        assert_eq!(flash.split_whitespace().nth(2), Some("14.0"), "{m}");
    }
}
