//! Standalone server binary.
//!
//! ```sh
//! # Durable: recover (or create) a service under DIR and serve it.
//! indoor_serve --addr 127.0.0.1:7171 --data-dir DIR
//!
//! # Volatile, with synthesised venues for smoke tests and benches:
//! indoor_serve --addr 127.0.0.1:0 --venues 2 --objects 16 --seed 42
//! ```
//!
//! Prints `listening on <addr>` (the resolved address — port 0 picks an
//! ephemeral one) on stdout, then serves until stdin closes or a line
//! reading `stop` arrives — the shutdown idiom that needs no signal
//! handling and works the same under CI, a terminal, and a pipe.
//! Replication followers point `indoor_serve --follow LEADER_ADDR` at a
//! durable leader: every venue the leader carries is subscribed from LSN
//! 0 and tailed live, and this process serves the replicas read-only
//! over its own listener.

use indoor_net::{follower, NetServer};
use indoor_synth::{random_venue, workload};
use std::io::BufRead;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use vip_tree::{AdmissionConfig, IndoorService, OverloadPolicy, ShardConfig, SyncPolicy, VenueId};

struct Args {
    addr: String,
    data_dir: Option<String>,
    follow: Option<String>,
    venues: usize,
    objects: usize,
    seed: u64,
    max_in_flight: usize,
    policy: OverloadPolicy,
    sync: SyncPolicy,
    /// `--metrics SECS`: dump the telemetry exposition page to stderr
    /// every SECS seconds (0 = off). The same page a `Metrics` frame
    /// fetches over the wire.
    metrics_every: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:7171".into(),
        data_dir: None,
        follow: None,
        venues: 0,
        objects: 16,
        seed: 42,
        max_in_flight: 0,
        policy: OverloadPolicy::Shed,
        sync: SyncPolicy::Never,
        metrics_every: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value after {a}"))
        };
        match a.as_str() {
            "--addr" => args.addr = val(),
            "--data-dir" => args.data_dir = Some(val()),
            "--follow" => args.follow = Some(val()),
            "--venues" => args.venues = val().parse().expect("bad --venues"),
            "--objects" => args.objects = val().parse().expect("bad --objects"),
            "--seed" => args.seed = val().parse().expect("bad --seed"),
            "--max-in-flight" => args.max_in_flight = val().parse().expect("bad --max-in-flight"),
            "--metrics" => args.metrics_every = val().parse().expect("bad --metrics"),
            "--policy" => {
                args.policy = match val().as_str() {
                    "shed" => OverloadPolicy::Shed,
                    "block" => OverloadPolicy::Block {
                        timeout: Duration::from_millis(50),
                    },
                    other => panic!("--policy must be shed or block, got {other}"),
                }
            }
            "--sync" => {
                let v = val();
                args.sync = match v.as_str() {
                    "never" => SyncPolicy::Never,
                    "per-append" => SyncPolicy::PerAppend,
                    other => match other.split_once(':') {
                        Some(("group-commit", ms)) => SyncPolicy::GroupCommit {
                            max_delay: Duration::from_millis(ms.parse().expect("bad delay")),
                        },
                        Some(("every", n)) => SyncPolicy::EveryN {
                            n: n.parse().expect("bad count"),
                        },
                        _ => panic!(
                            "--sync must be never, per-append, group-commit:MS or every:N, \
                             got {other}"
                        ),
                    },
                };
            }
            "--help" | "-h" => {
                println!(
                    "usage: indoor_serve [--addr A] [--data-dir DIR | --follow LEADER] \
                     [--venues N --objects M --seed S] [--max-in-flight K --policy shed|block] \
                     [--sync never|per-append|group-commit:MS|every:N] [--metrics SECS]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument {other} (try --help)"),
        }
    }
    args
}

fn synthesize(service: &IndoorService, args: &Args) {
    for i in 0..args.venues {
        let seed = args.seed + i as u64;
        let venue = Arc::new(random_venue(seed));
        let objects = workload::place_objects(&venue, args.objects, seed);
        let keywords = workload::cycling_labels(&objects, "atm");
        let id = service
            .add_venue(
                venue,
                ShardConfig {
                    objects,
                    keywords,
                    admission: AdmissionConfig {
                        max_in_flight: args.max_in_flight,
                        policy: args.policy,
                    },
                    sync: args.sync,
                    ..ShardConfig::default()
                },
            )
            .expect("synthesised venue builds");
        eprintln!("venue {} ready (seed {seed})", id.index());
    }
}

fn main() {
    let args = parse_args();
    let service = Arc::new(match &args.data_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir).expect("create data dir");
            IndoorService::open(dir).expect("recover service from data dir")
        }
        None => IndoorService::new(),
    });
    if service.venue_count() == 0 && args.venues > 0 {
        synthesize(&service, &args);
    }

    // Follower mode: subscribe to every venue the leader carries and
    // tail them on background threads while serving the replicas.
    let stop = Arc::new(AtomicBool::new(false));
    let mut tails = Vec::new();
    if let Some(leader) = &args.follow {
        assert!(
            args.data_dir.is_none(),
            "--follow requires a volatile service (followers must not re-journal)"
        );
        // The leader's venues: one `indoor_shard_epoch{venue="N"}` sample
        // each on its metrics page.
        let mut probe = indoor_net::NetClient::connect(leader).expect("connect to leader");
        let page = probe.metrics().expect("leader metrics page");
        drop(probe);
        let venues = page.lines().filter_map(|l| {
            let rest = l.strip_prefix("indoor_shard_epoch{venue=\"")?;
            rest.split('"').next()?.parse::<u32>().ok()
        });
        for venue in venues {
            let venue = VenueId::from(venue);
            let mut rs =
                follower::subscribe(leader, venue, 0).expect("leader serves suffix from LSN 0");
            let report = rs.catch_up(&service).expect("catch-up applies cleanly");
            eprintln!(
                "venue {} caught up: applied {}, version {} (head {})",
                venue.index(),
                report.applied,
                report.version,
                report.head
            );
            let service = service.clone();
            let stop = stop.clone();
            tails.push(std::thread::spawn(move || {
                let _ = rs.tail(&service, &stop);
            }));
        }
    }

    // Periodic telemetry dump: the same exposition page a `Metrics`
    // frame fetches, to stderr so the stdout protocol line stays clean.
    let mut dumper = None;
    if args.metrics_every > 0 {
        let service = service.clone();
        let stop = stop.clone();
        let every = Duration::from_secs(args.metrics_every);
        dumper = Some(std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                std::thread::sleep(every);
                if stop.load(Ordering::Acquire) {
                    break;
                }
                eprintln!(
                    "{}",
                    indoor_model::metrics::encode_text(&service.metrics_snapshot())
                );
            }
        }));
    }

    let mut server = NetServer::bind(service, args.addr.as_str()).expect("bind listener");
    println!("listening on {}", server.local_addr());

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(l) if l.trim() == "stop" => break,
            Ok(_) => continue,
            Err(_) => break,
        }
    }
    stop.store(true, Ordering::Release);
    for t in tails {
        let _ = t.join();
    }
    if let Some(t) = dumper {
        let _ = t.join();
    }
    server.stop();
}
