//! Benchmark of the indoor query service: four workloads, measured end
//! to end (`--trace 0`) and layer by layer (`--trace 1`). See README.md.

mod e2e;
mod estimators;
mod host;
mod oracle;
mod phase;
mod report;
mod run;
mod trace;
mod workloads;

use workloads::{Workload, DEFAULT_SEED};

/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 20;

const USAGE: &str =
    "usage: indoor-benchmark [--workload] <campus_cold|kiosk_hot|churn_durable|wire_closed> \
[--seed N] [--seconds 1..60] [--trace [0|1]]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, DEFAULT_SECONDS, false);
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{what} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                // Bare `--trace` means 1.
                trace = match it.next_if(|v| matches!(v.as_str(), "0" | "1")) {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            name if !name.starts_with('-') && workload.is_none() => workload = Some(name.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let name = workload.ok_or("no workload named")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload {name}"))?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=60"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let report = if args.trace {
        trace::run(args.workload, args.seed, args.seconds)
    } else {
        e2e::run(args.workload, args.seed, args.seconds)
    };
    println!("{}", report.json_line());
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn the_driver_form_parses() {
        let a = parse("--workload wire_closed --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::WireClosed);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20, true));
        let a = parse("--workload kiosk_hot --seed 7 --seconds 5 --trace 0").unwrap();
        assert!(!a.trace);
    }

    #[test]
    fn the_short_form_parses() {
        let a = parse("campus_cold --seed 43").unwrap();
        assert_eq!(a.workload, Workload::CampusCold);
        assert_eq!((a.seed, a.seconds, a.trace), (43, DEFAULT_SECONDS, false));
        assert!(parse("churn_durable --trace").unwrap().trace);
        assert!(parse("churn_durable --trace --seed 3").unwrap().trace);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse("").is_err());
        assert!(parse("engine_cold").is_err());
        assert!(parse("kiosk_hot --seconds 0").is_err());
        assert!(parse("kiosk_hot --seconds 61").is_err());
        assert!(parse("kiosk_hot --seed").is_err());
        assert!(parse("kiosk_hot --fast").is_err());
    }
}
