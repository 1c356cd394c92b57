//! Shared harness for regenerating the paper's tables and figures.
//!
//! The binary `experiments` prints paper-style rows, driven by the
//! helpers here: dataset selection ([`datasets`]), a uniform handle over
//! all seven competitors ([`AnyIndex`]), and time-budgeted median-of-reps
//! query loops ([`time_queries`]).

pub mod gate;

use indoor_baselines::{DistAw, DistAwPlus, DistMx};
use indoor_model::{
    AnswerRequest, IndoorIndex, IndoorPath, IndoorPoint, ObjectId, ObjectQueries, QueryRequest,
    QueryResponse, Venue,
};
use indoor_synth::presets;
use indoor_synth::CampusSpec;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vip_tree::{IpTree, VipTree, VipTreeConfig};

/// Paper-faithful limit: "The distance matrix used by the state-of-the-art
/// indoor technique cannot be built on the venues larger than Men-2"
/// (§4.1). Men-2 has 2,738 doors; we cut off a little above.
pub const DISTMX_MAX_DOORS: usize = 3_000;

/// Which dataset suite to run (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// MC, MC-2, Men, Men-2 plus the reduced CL-lite campuses — finishes
    /// everywhere in minutes.
    Small,
    /// The full Table 2 list including the 71-building Clayton campus.
    Paper,
}

/// `(name, spec)` pairs for the chosen scale.
pub fn datasets(scale: Scale) -> Vec<(&'static str, CampusSpec)> {
    match scale {
        Scale::Small => presets::small_scale_datasets(),
        Scale::Paper => presets::table2_datasets(),
    }
}

/// A uniform handle over every competitor.
pub enum AnyIndex {
    Vip(VipTree),
    Ip(IpTree),
    Mx(Arc<DistMx>),
    MxUnopt(DistMx),
    Aw(DistAw),
    AwPlus(DistAwPlus),
    G(gtree::GTree),
    R(road::Road),
}

impl AnyIndex {
    pub fn name(&self) -> &'static str {
        match self {
            AnyIndex::Vip(x) => x.name(),
            AnyIndex::Ip(x) => x.name(),
            AnyIndex::Mx(x) => x.name(),
            AnyIndex::MxUnopt(x) => x.name(),
            AnyIndex::Aw(x) => x.name(),
            AnyIndex::AwPlus(x) => x.name(),
            AnyIndex::G(x) => x.name(),
            AnyIndex::R(x) => x.name(),
        }
    }

    pub fn shortest_distance(&self, s: &IndoorPoint, t: &IndoorPoint) -> Option<f64> {
        match self {
            AnyIndex::Vip(x) => x.shortest_distance(s, t),
            AnyIndex::Ip(x) => x.shortest_distance(s, t),
            AnyIndex::Mx(x) => x.shortest_distance(s, t),
            AnyIndex::MxUnopt(x) => x.shortest_distance(s, t),
            AnyIndex::Aw(x) => x.shortest_distance(s, t),
            AnyIndex::AwPlus(x) => x.shortest_distance(s, t),
            AnyIndex::G(x) => x.shortest_distance(s, t),
            AnyIndex::R(x) => x.shortest_distance(s, t),
        }
    }

    pub fn shortest_path(&self, s: &IndoorPoint, t: &IndoorPoint) -> Option<IndoorPath> {
        match self {
            AnyIndex::Vip(x) => x.shortest_path(s, t),
            AnyIndex::Ip(x) => x.shortest_path(s, t),
            AnyIndex::Mx(x) => x.shortest_path(s, t),
            AnyIndex::MxUnopt(x) => x.shortest_path(s, t),
            AnyIndex::Aw(x) => x.shortest_path(s, t),
            AnyIndex::AwPlus(x) => x.shortest_path(s, t),
            AnyIndex::G(x) => x.shortest_path(s, t),
            AnyIndex::R(x) => x.shortest_path(s, t),
        }
    }

    pub fn knn(&self, q: &IndoorPoint, k: usize) -> Vec<(ObjectId, f64)> {
        match self {
            AnyIndex::Vip(x) => ObjectQueries::knn(x, q, k),
            AnyIndex::Ip(x) => ObjectQueries::knn(x, q, k),
            AnyIndex::Mx(x) => ObjectQueries::knn(&**x, q, k),
            AnyIndex::MxUnopt(x) => ObjectQueries::knn(x, q, k),
            AnyIndex::Aw(x) => ObjectQueries::knn(x, q, k),
            AnyIndex::AwPlus(x) => ObjectQueries::knn(x, q, k),
            AnyIndex::G(x) => ObjectQueries::knn(x, q, k),
            AnyIndex::R(x) => ObjectQueries::knn(x, q, k),
        }
    }

    pub fn range(&self, q: &IndoorPoint, radius: f64) -> Vec<(ObjectId, f64)> {
        match self {
            AnyIndex::Vip(x) => ObjectQueries::range(x, q, radius),
            AnyIndex::Ip(x) => ObjectQueries::range(x, q, radius),
            AnyIndex::Mx(x) => ObjectQueries::range(&**x, q, radius),
            AnyIndex::MxUnopt(x) => ObjectQueries::range(x, q, radius),
            AnyIndex::Aw(x) => ObjectQueries::range(x, q, radius),
            AnyIndex::AwPlus(x) => ObjectQueries::range(x, q, radius),
            AnyIndex::G(x) => ObjectQueries::range(x, q, radius),
            AnyIndex::R(x) => ObjectQueries::range(x, q, radius),
        }
    }

    /// Answer one typed request through the [`AnswerRequest`] surface —
    /// the uniform entry point the scenario lab replays event streams
    /// through. Plain indexes answer `KnnKeyword` with an empty result
    /// (only the service's keyword shard carries labels).
    pub fn answer(&self, req: &QueryRequest) -> QueryResponse {
        match self {
            AnyIndex::Vip(x) => x.answer(req),
            AnyIndex::Ip(x) => x.answer(req),
            AnyIndex::Mx(x) => (**x).answer(req),
            AnyIndex::MxUnopt(x) => x.answer(req),
            AnyIndex::Aw(x) => x.answer(req),
            AnyIndex::AwPlus(x) => x.answer(req),
            AnyIndex::G(x) => x.answer(req),
            AnyIndex::R(x) => x.answer(req),
        }
    }

    pub fn index_size_bytes(&self) -> usize {
        match self {
            AnyIndex::Vip(x) => x.index_size_bytes(),
            AnyIndex::Ip(x) => x.index_size_bytes(),
            AnyIndex::Mx(x) => x.index_size_bytes(),
            AnyIndex::MxUnopt(x) => x.index_size_bytes(),
            AnyIndex::Aw(x) => x.index_size_bytes(),
            AnyIndex::AwPlus(x) => x.index_size_bytes(),
            AnyIndex::G(x) => x.index_size_bytes(),
            AnyIndex::R(x) => x.index_size_bytes(),
        }
    }
}

/// Options for [`build_suite`]. DistMx (and DistAw++, which depends on it)
/// is skipped beyond [`DISTMX_MAX_DOORS`].
#[derive(Default)]
pub struct SuiteOptions {
    pub with_unoptimised_mx: bool,
    pub with_distaw_plus: bool,
    pub objects: Option<Vec<IndoorPoint>>,
}

/// Build every leaf door grid of `tree` now and return the bytes they
/// added: the served index is the tree plus every grid, so sizes read
/// after this are honest and no first-touch grid build lands inside a
/// timed query loop.
pub fn force_leaf_grid(tree: &IpTree) -> usize {
    let before = tree.size_bytes();
    tree.build_leaf_grid();
    tree.size_bytes() - before
}

/// Build every applicable competitor for `venue`, returning
/// `(index, build_time, grid_bytes)`. The VIP- and IP-trees come back
/// with their leaf grids forced ([`force_leaf_grid`]); `build_time`
/// excludes the grid, `grid_bytes` is its size (0 for the other indexes).
pub fn build_suite(venue: &Arc<Venue>, opts: &SuiteOptions) -> Vec<(AnyIndex, Duration, usize)> {
    let mut out: Vec<(AnyIndex, Duration, usize)> = Vec::new();
    let cfg = VipTreeConfig::default();

    let t0 = Instant::now();
    let vip = VipTree::build(venue.clone(), &cfg).expect("vip build");
    let t_vip = t0.elapsed();
    let g_vip = force_leaf_grid(vip.ip_tree());

    let t0 = Instant::now();
    let ip = IpTree::build(venue.clone(), &cfg).expect("ip build");
    let t_ip = t0.elapsed();
    let g_ip = force_leaf_grid(&ip);

    let t0 = Instant::now();
    let mut aw = DistAw::new(venue.clone());
    let t_aw = t0.elapsed();

    let t0 = Instant::now();
    let mut g = gtree::GTree::build(venue.clone(), &gtree::GTreeConfig::default());
    let t_g = t0.elapsed();

    let t0 = Instant::now();
    let mut r = road::Road::build(venue.clone(), &road::RoadConfig::default());
    let t_r = t0.elapsed();

    let mx = if venue.num_doors() <= DISTMX_MAX_DOORS {
        let t0 = Instant::now();
        let mut mx = DistMx::build(venue.clone());
        if let Some(objs) = &opts.objects {
            mx.attach_objects(objs);
        }
        Some((Arc::new(mx), t0.elapsed()))
    } else {
        None
    };

    if let Some(objs) = &opts.objects {
        vip.attach_objects(objs);
        ip.attach_objects(objs);
        aw.attach_objects(objs);
        g.attach_objects(objs);
        r.attach_objects(objs);
    }

    out.push((AnyIndex::Vip(vip), t_vip, g_vip));
    out.push((AnyIndex::Ip(ip), t_ip, g_ip));
    out.push((AnyIndex::Aw(aw), t_aw, 0));
    out.push((AnyIndex::G(g), t_g, 0));
    out.push((AnyIndex::R(r), t_r, 0));
    if let Some((mx, t_mx)) = mx {
        if opts.with_distaw_plus {
            let t0 = Instant::now();
            let mut awp = DistAwPlus::new(venue.clone(), mx.clone());
            if let Some(objs) = &opts.objects {
                awp.attach_objects(objs);
            }
            out.push((AnyIndex::AwPlus(awp), t_mx + t0.elapsed(), 0));
        }
        if opts.with_unoptimised_mx {
            let t0 = Instant::now();
            let mut mxu = DistMx::build(venue.clone()).without_optimisation();
            if let Some(objs) = &opts.objects {
                mxu.attach_objects(objs);
            }
            out.push((AnyIndex::MxUnopt(mxu), t0.elapsed(), 0));
        }
        out.push((AnyIndex::Mx(mx), t_mx, 0));
    }
    out
}

/// Timed passes per [`time_queries`] cell; the median is reported.
const TIME_REPS: usize = 5;

/// Median over five timed passes of the mean microseconds per call of
/// `f` over up to `n` workload items, as `query_bench` does. An untimed
/// warm-up pass goes first and fixes the item count: it stops early once
/// it has run at least 10 items past its share of `budget`, so slow
/// baselines cannot stall a figure, and every timed pass then runs the
/// same items. Returns `(median_us, executed)`, `executed` per pass.
pub fn time_queries<T>(
    items: &[T],
    n: usize,
    budget: Duration,
    mut f: impl FnMut(&T),
) -> (f64, usize) {
    let n = n.min(items.len()).max(1);
    let share = budget / (TIME_REPS as u32 + 1);
    let start = Instant::now();
    let mut executed = 0usize;
    for item in items.iter().take(n) {
        f(item);
        executed += 1;
        if start.elapsed() > share && executed >= 10 {
            break;
        }
    }
    let mut samples: Vec<f64> = (0..TIME_REPS)
        .map(|_| {
            let t0 = Instant::now();
            items.iter().take(executed).for_each(&mut f);
            t0.elapsed().as_secs_f64() * 1e6 / executed as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    (samples[TIME_REPS / 2], executed)
}

/// Pretty-print helpers for harness tables.
pub fn fmt_us(us: f64) -> String {
    if us >= 1e6 {
        format!("{:>10.2}s", us / 1e6)
    } else if us >= 1e3 {
        format!("{:>9.1}ms", us / 1e3)
    } else {
        format!("{:>9.1}us", us)
    }
}

pub fn fmt_bytes(b: usize) -> String {
    if b >= 1 << 30 {
        format!("{:>8.2}GB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:>8.1}MB", b as f64 / (1u64 << 20) as f64)
    } else {
        format!("{:>8.1}KB", b as f64 / (1u64 << 10) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indoor_synth::{random_venue, workload};

    #[test]
    fn suite_builds_and_agrees_on_small_venue() {
        let venue = Arc::new(random_venue(77));
        let objects = workload::place_objects(&venue, 10, 3);
        let suite = build_suite(
            &venue,
            &SuiteOptions {
                with_unoptimised_mx: true,
                with_distaw_plus: true,
                objects: Some(objects),
            },
        );
        assert!(
            suite.len() >= 7,
            "expected all competitors, got {}",
            suite.len()
        );
        let pairs = workload::query_pairs(&venue, 10, 5);
        for (s, t) in &pairs {
            let dists: Vec<Option<f64>> = suite
                .iter()
                .map(|(ix, ..)| ix.shortest_distance(s, t))
                .collect();
            for w in dists.windows(2) {
                match (w[0], w[1]) {
                    (Some(a), Some(b)) => {
                        assert!((a - b).abs() < 1e-6 * a.max(1.0), "disagreement: {dists:?}")
                    }
                    (None, None) => {}
                    _ => panic!("reachability disagreement: {dists:?}"),
                }
            }
        }
        // kNN agreement across all indexes.
        for q in workload::query_points(&venue, 5, 6) {
            let results: Vec<Vec<(indoor_model::ObjectId, f64)>> =
                suite.iter().map(|(ix, ..)| ix.knn(&q, 3)).collect();
            for w in results.windows(2) {
                assert_eq!(w[0].len(), w[1].len());
                for (a, b) in w[0].iter().zip(&w[1]) {
                    assert!((a.1 - b.1).abs() < 1e-6 * a.1.max(1.0));
                }
            }
        }
    }

    /// The trees come back as served — every leaf grid built, its bytes
    /// reported — so no timed loop pays a first-touch grid build.
    #[test]
    fn suite_trees_come_back_with_every_leaf_grid_built() {
        fn check(tree: &IpTree, grid: usize) {
            assert_eq!(tree.leaf_grid_builds(), tree.num_leaves() as u64);
            assert!(grid > 0);
            assert_eq!(force_leaf_grid(tree), 0, "forcing twice adds nothing");
        }
        let venue = Arc::new(random_venue(41));
        for (ix, _, grid) in build_suite(&venue, &SuiteOptions::default()) {
            match &ix {
                AnyIndex::Vip(t) => check(t.ip_tree(), grid),
                AnyIndex::Ip(t) => check(t, grid),
                _ => assert_eq!(grid, 0, "{} has no leaf grid", ix.name()),
            }
        }
    }

    /// The warm-up pass fixes the item count, and every timed pass runs
    /// exactly those items; a zero budget still runs ten.
    #[test]
    fn time_queries_repeats_the_warm_up_items() {
        let items: Vec<usize> = (0..40).collect();
        let mut calls = vec![0usize; items.len()];
        let (_, ran) = time_queries(&items, 25, Duration::from_secs(60), |&i| calls[i] += 1);
        assert_eq!(ran, 25);
        assert!(calls[..25].iter().all(|&c| c == TIME_REPS + 1));
        assert!(calls[25..].iter().all(|&c| c == 0));

        let tick = |_: &usize| std::thread::sleep(Duration::from_micros(1));
        let (us, ran) = time_queries(&items, 40, Duration::ZERO, tick);
        assert_eq!(ran, 10);
        assert!(us.is_finite() && us >= 0.0);
    }

    #[test]
    fn fmt_helpers() {
        assert!(fmt_us(12.3).contains("us"));
        assert!(fmt_us(12_300.0).contains("ms"));
        assert!(fmt_us(12_300_000.0).contains('s'));
        assert!(fmt_bytes(500).contains("KB"));
        assert!(fmt_bytes(5 << 20).contains("MB"));
    }
}
