//! `perfbench <workload> --seed N --seconds S --trace 0|1`
//!
//! Runs one workload in this process and prints one JSON line for
//! `run.py`: counts, every metric with its samples, output digests
//! and, when traced, the per-layer span table. Exits 1 when any output
//! differs from its reference, 2 on bad arguments.

mod digest;
mod report;
mod serve;
mod spans;
mod sweeps;

use report::Report;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let workload = it.next().ok_or("missing workload")?;
    let mut args = Args {
        workload,
        seed: digest::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err(bad(&"must be in (0, 120]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench sweep|lds_observed|serve --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let rep: Report = match args.workload.as_str() {
        "sweep" => sweeps::run(sweeps::Which::Sweep, args.seed, args.seconds, args.trace),
        "lds_observed" => sweeps::run(
            sweeps::Which::LdsObserved,
            args.seed,
            args.seconds,
            args.trace,
        ),
        "serve" => serve::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other:?}; expected sweep|lds_observed|serve");
            std::process::exit(2);
        }
    };
    for f in &rep.failures {
        eprintln!("perfbench: output check failed: {f}");
    }
    println!("{}", rep.to_json(&args.workload, args.seed, args.trace));
    if rep.failed > 0 {
        std::process::exit(1);
    }
}
