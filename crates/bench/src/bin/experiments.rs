//! Regenerates every table and figure of the paper's evaluation (§4).
//!
//! ```text
//! experiments --experiment <id> [--scale small|paper] [--pairs N] [--queries N]
//!   ids: table1 table2 fig7 fig8 fig9a fig9b fig10a fig10b
//!        fig11a fig11b fig11c fig11d all
//! ```
//!
//! `--scale small` (default) runs MC, MC-2, Men, Men-2 and the reduced
//! CL-lite campuses; `--scale paper` swaps in the full 71-building Clayton
//! venues. Absolute numbers differ from the paper's 2016 C++/PC testbed —
//! the *shape* (orderings, gaps, crossovers) is what EXPERIMENTS.md
//! compares.

use indoor_bench::{
    build_suite, datasets, fmt_bytes, fmt_us, force_leaf_grid, time_queries, AnyIndex, Scale,
    SuiteOptions,
};
use indoor_model::{IndoorPoint, QueryStats};
use indoor_synth::{presets, workload};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vip_tree::{IpTree, TreeStats, VipTree, VipTreeConfig};

struct Args {
    experiment: String,
    scale: Scale,
    pairs: usize,
    queries: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        experiment: "all".to_string(),
        scale: Scale::Small,
        pairs: 2_000,
        queries: 500,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--experiment" | "-e" => args.experiment = it.next().expect("missing experiment id"),
            "--scale" => {
                args.scale = match it.next().expect("missing scale").as_str() {
                    "paper" => Scale::Paper,
                    _ => Scale::Small,
                }
            }
            "--pairs" => args.pairs = it.next().unwrap().parse().expect("bad --pairs"),
            "--queries" => args.queries = it.next().unwrap().parse().expect("bad --queries"),
            "--help" | "-h" => {
                println!(
                    "usage: experiments --experiment <table1|table2|fig7|fig8|fig9a|fig9b|\
                     fig10a|fig10b|fig11a|fig11b|fig11c|fig11d|all> [--scale small|paper] \
                     [--pairs N] [--queries N]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument {other}"),
        }
    }
    args
}

const BUDGET: Duration = Duration::from_secs(5);

fn main() {
    let args = parse_args();
    let run = |id: &str| args.experiment == id || args.experiment == "all";

    if run("table2") {
        table2(args.scale);
    }
    if run("table1") {
        table1(args.scale);
    }
    if run("fig7") {
        fig7(&args);
    }
    if run("fig8") {
        fig8(&args);
    }
    if run("fig9a") {
        fig9a(&args);
    }
    if run("fig9b") {
        figure_query_times(
            &args,
            Kind::Distance,
            "Fig 9(b): shortest distance query time",
        );
    }
    if run("fig10a") {
        figure_query_times(&args, Kind::Path, "Fig 10(a): shortest path query time");
    }
    if run("fig10b") {
        fig10b(&args);
    }
    if run("fig11a") {
        fig11a(&args);
    }
    if run("fig11b") {
        fig11b(&args);
    }
    if run("fig11c") {
        fig11_venues(&args, ObjKind::Knn, "Fig 11(c): kNN query time per venue");
    }
    if run("fig11d") {
        fig11_venues(
            &args,
            ObjKind::Range,
            "Fig 11(d): range query time per venue",
        );
    }
}

// ---------------------------------------------------------------- Table 2

fn table2(scale: Scale) {
    println!("\n== Table 2: indoor venues (generated; paper values in EXPERIMENTS.md) ==");
    println!(
        "{:<10} {:>8} {:>8} {:>12} {:>8} {:>8}",
        "dataset", "#doors", "#rooms", "#edges", "maxdeg", "#levels"
    );
    for (name, spec) in datasets(scale) {
        let v = spec.build();
        let s = v.stats();
        println!(
            "{:<10} {:>8} {:>8} {:>12} {:>8} {:>8}",
            name, s.doors, s.partitions, s.d2d_edges, s.max_out_degree, s.levels
        );
    }
}

// ---------------------------------------------------------------- Table 1

fn table1(scale: Scale) {
    println!("\n== Table 1: measured complexity parameters (rho, f, M, D, alpha) ==");
    println!(
        "{:<10} {:>6} {:>6} {:>7} {:>8} {:>7} {:>7} {:>8} {:>10} {:>10} {:>10}",
        "dataset",
        "rho",
        "f",
        "M",
        "D",
        "alpha",
        "height",
        "max_sup",
        "IP tree",
        "VIP tree",
        "grid"
    );
    for (name, spec) in datasets(scale) {
        let venue = Arc::new(spec.build());
        let cfg = VipTreeConfig::default();
        let ip = IpTree::build(venue.clone(), &cfg).unwrap();
        let vip = VipTree::build(venue.clone(), &cfg).unwrap();
        // Tree bytes are read before the grid exists; both trees have the
        // same leaves, so one grid column serves both.
        let (ip_tree, vip_tree) = (ip.size_bytes(), vip.size_bytes());
        let grid = force_leaf_grid(&ip);
        let s = TreeStats::compute(&ip);
        println!(
            "{:<10} {:>6.2} {:>6.2} {:>7} {:>8} {:>7.2} {:>7} {:>8} {} {} {}",
            name,
            s.avg_access_doors,
            s.avg_fanout,
            s.num_leaves,
            s.num_doors,
            s.avg_superior_doors,
            s.height,
            s.max_superior_doors,
            fmt_bytes(ip_tree),
            fmt_bytes(vip_tree),
            fmt_bytes(grid),
        );
    }
}

// ---------------------------------------------------------------- Fig 7

fn fig7(args: &Args) {
    println!("\n== Fig 7: effect of minimum degree t on VIP-tree (CL campus) ==");
    let spec = match args.scale {
        Scale::Paper => presets::clayton(),
        Scale::Small => presets::clayton_lite(),
    };
    let venue = Arc::new(spec.build());
    let pairs = workload::query_pairs(&venue, args.pairs, 11);
    let objects = workload::place_objects(&venue, 50, 12);
    let points = workload::query_points(&venue, args.queries, 13);
    println!(
        "{:<6} {:>12} {:>12} {:>12} {:>14} {:>12}",
        "t", "tree", "grid", "build time", "SD query", "kNN query"
    );
    for t in [2usize, 10, 20, 60, 100] {
        let cfg = VipTreeConfig {
            min_degree: t,
            ..Default::default()
        };
        let t0 = Instant::now();
        let vip = VipTree::build(venue.clone(), &cfg).unwrap();
        let build = t0.elapsed();
        let tree = vip.size_bytes();
        let grid = force_leaf_grid(vip.ip_tree());
        vip.attach_objects(&objects);
        let (sd_us, _) = time_queries(&pairs, args.pairs, BUDGET, |(s, t)| {
            std::hint::black_box(vip.shortest_distance_points(s, t));
        });
        let (knn_us, _) = time_queries(&points, args.queries, BUDGET, |q| {
            std::hint::black_box(vip.knn(q, 5));
        });
        println!(
            "{:<6} {:>12} {:>12} {:>12} {:>14} {:>12}",
            t,
            fmt_bytes(tree),
            fmt_bytes(grid),
            format!("{:.1?}", build),
            fmt_us(sd_us),
            fmt_us(knn_us)
        );
    }
}

// ---------------------------------------------------------------- Fig 8

fn fig8(args: &Args) {
    println!("\n== Fig 8: indexing cost (construction time / index size) ==");
    for (name, spec) in datasets(args.scale) {
        let venue = Arc::new(spec.build());
        let suite = build_suite(&venue, &SuiteOptions::default());
        println!("-- {name} ({} doors)", venue.num_doors());
        println!(
            "{:<10} {:>14} {:>14} {:>12}",
            "index", "build time", "size w/o grid", "grid"
        );
        for (ix, build, grid) in &suite {
            println!(
                "{:<10} {:>14} {:>14} {:>12}",
                ix.name(),
                format!("{:.1?}", build),
                fmt_bytes(ix.index_size_bytes() - grid),
                if *grid == 0 {
                    "-".to_string()
                } else {
                    fmt_bytes(*grid)
                }
            );
        }
    }
}

// ---------------------------------------------------------------- Fig 9(a)

fn fig9a(args: &Args) {
    println!("\n== Fig 9(a): mean door pairs considered per SD query ==");
    println!(
        "{:<10} {:>10} {:>10} {:>10}",
        "dataset", "DistMx", "DistMx--", "VIP-Tree"
    );
    for (name, spec) in datasets(args.scale) {
        let venue = Arc::new(spec.build());
        if venue.num_doors() > indoor_bench::DISTMX_MAX_DOORS {
            // Matrix not buildable (paper behaviour); VIP numbers alone.
            let vip = VipTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
            let pairs = workload::query_pairs(&venue, args.pairs, 17);
            let mut st = QueryStats::default();
            for (s, t) in &pairs {
                vip.shortest_distance_with_stats(s, t, &mut st);
            }
            println!(
                "{:<10} {:>10} {:>10} {:>10.2}",
                name,
                "-",
                "-",
                st.mean_door_pairs()
            );
            continue;
        }
        let suite = build_suite(
            &venue,
            &SuiteOptions {
                with_unoptimised_mx: true,
                ..Default::default()
            },
        );
        let pairs = workload::query_pairs(&venue, args.pairs, 17);
        let (mut mx, mut mxu, mut vip) = (0.0, 0.0, 0.0);
        for (ix, ..) in &suite {
            let mut st = QueryStats::default();
            match ix {
                AnyIndex::Mx(m) => {
                    for (s, t) in &pairs {
                        m.shortest_distance_with_stats(s, t, &mut st);
                    }
                    mx = st.mean_door_pairs();
                }
                AnyIndex::MxUnopt(m) => {
                    for (s, t) in &pairs {
                        m.shortest_distance_with_stats(s, t, &mut st);
                    }
                    mxu = st.mean_door_pairs();
                }
                AnyIndex::Vip(v) => {
                    for (s, t) in &pairs {
                        v.shortest_distance_with_stats(s, t, &mut st);
                    }
                    vip = st.mean_door_pairs();
                }
                _ => {}
            }
        }
        println!("{name:<10} {mx:>10.2} {mxu:>10.2} {vip:>10.2}");
    }
}

// ------------------------------------------------- Fig 9(b) / Fig 10(a)

#[derive(Clone, Copy)]
enum Kind {
    Distance,
    Path,
}

fn figure_query_times(args: &Args, kind: Kind, title: &str) {
    println!("\n== {title} ==");
    for (name, spec) in datasets(args.scale) {
        let venue = Arc::new(spec.build());
        let suite = build_suite(&venue, &SuiteOptions::default());
        let pairs = workload::query_pairs(&venue, args.pairs, 19);
        print!("{name:<10}");
        let mut cols = String::new();
        for (ix, ..) in &suite {
            let (us, ran) = match kind {
                Kind::Distance => time_queries(&pairs, args.pairs, BUDGET, |(s, t)| {
                    std::hint::black_box(ix.shortest_distance(s, t));
                }),
                Kind::Path => time_queries(&pairs, args.pairs, BUDGET, |(s, t)| {
                    std::hint::black_box(ix.shortest_path(s, t));
                }),
            };
            cols.push_str(&format!(" {}={} (n={})", ix.name(), fmt_us(us).trim(), ran));
        }
        println!("{cols}");
    }
}

// ---------------------------------------------------------------- Fig 10(b)

fn fig10b(args: &Args) {
    println!("\n== Fig 10(b): SP query time vs distance quintile (Men-2) ==");
    let venue = Arc::new(presets::menzies_2().build());
    let oracle = VipTree::build(venue.clone(), &VipTreeConfig::default()).unwrap();
    let buckets = workload::distance_quintile_pairs(&venue, args.pairs / 5 + 1, 23, |s, t| {
        oracle.shortest_distance_points(s, t)
    });
    let suite = build_suite(&venue, &SuiteOptions::default());
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "index", "Q1", "Q2", "Q3", "Q4", "Q5"
    );
    for (ix, ..) in &suite {
        let mut row = format!("{:<10}", ix.name());
        for bucket in &buckets {
            if bucket.is_empty() {
                row.push_str(&format!("{:>12}", "-"));
                continue;
            }
            let (us, _) = time_queries(bucket, bucket.len(), BUDGET, |(s, t)| {
                std::hint::black_box(ix.shortest_path(s, t));
            });
            row.push_str(&format!("{:>12}", fmt_us(us).trim()));
        }
        println!("{row}");
    }
}

// ---------------------------------------------------------------- Fig 11

fn object_suite(
    venue: &Arc<indoor_model::Venue>,
    objects: Vec<IndoorPoint>,
) -> Vec<(AnyIndex, Duration, usize)> {
    build_suite(
        venue,
        &SuiteOptions {
            with_distaw_plus: true,
            objects: Some(objects),
            ..Default::default()
        },
    )
}

fn fig11a(args: &Args) {
    println!("\n== Fig 11(a): kNN query time vs k (Men-2, 50 objects) ==");
    let venue = Arc::new(presets::menzies_2().build());
    let suite = object_suite(&venue, workload::place_objects(&venue, 50, 29));
    let points = workload::query_points(&venue, args.queries, 31);
    println!("{:<10} {:>12} {:>12} {:>12}", "index", "k=1", "k=5", "k=10");
    for (ix, ..) in &suite {
        let mut row = format!("{:<10}", ix.name());
        for k in [1usize, 5, 10] {
            let (us, _) = time_queries(&points, args.queries, BUDGET, |q| {
                std::hint::black_box(ix.knn(q, k));
            });
            row.push_str(&format!("{:>12}", fmt_us(us).trim()));
        }
        println!("{row}");
    }
}

fn fig11b(args: &Args) {
    println!("\n== Fig 11(b): kNN query time vs object count (Men-2, k=5) ==");
    let venue = Arc::new(presets::menzies_2().build());
    let points = workload::query_points(&venue, args.queries, 37);
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>12}",
        "index", "|O|=10", "|O|=50", "|O|=100", "|O|=500"
    );
    let mut rows: std::collections::BTreeMap<&'static str, String> = Default::default();
    for n_obj in [10usize, 50, 100, 500] {
        let suite = object_suite(&venue, workload::place_objects(&venue, n_obj, 41));
        for (ix, ..) in &suite {
            let (us, _) = time_queries(&points, args.queries, BUDGET, |q| {
                std::hint::black_box(ix.knn(q, 5));
            });
            rows.entry(ix.name())
                .or_default()
                .push_str(&format!("{:>12}", fmt_us(us).trim()));
        }
    }
    for (name, cols) in rows {
        println!("{name:<10} {cols}");
    }
}

#[derive(Clone, Copy)]
enum ObjKind {
    Knn,
    Range,
}

fn fig11_venues(args: &Args, kind: ObjKind, title: &str) {
    println!("\n== {title} (k=5 / r=100m, 50 objects) ==");
    for (name, spec) in datasets(args.scale) {
        let venue = Arc::new(spec.build());
        let suite = object_suite(&venue, workload::place_objects(&venue, 50, 43));
        let points = workload::query_points(&venue, args.queries, 47);
        let mut cols = String::new();
        for (ix, ..) in &suite {
            let (us, _) = match kind {
                ObjKind::Knn => time_queries(&points, args.queries, BUDGET, |q| {
                    std::hint::black_box(ix.knn(q, 5));
                }),
                ObjKind::Range => time_queries(&points, args.queries, BUDGET, |q| {
                    std::hint::black_box(ix.range(q, 100.0));
                }),
            };
            cols.push_str(&format!(" {}={}", ix.name(), fmt_us(us).trim()));
        }
        println!("{name:<10}{cols}");
    }
}
