//! Wall-clock benchmark of the `Real` execution path.
//!
//! ```text
//! cargo run --release --manifest-path realbench/Cargo.toml -- \
//!     --workload <solo-pipeinfer|batch-iterative|batch-shared-prefix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics,
//! with `--trace 1` the per-layer metrics.  See `README.md`.

mod e2e;
mod models;
mod reference;
mod report;
mod serving;
mod traced;
mod workloads;

use workloads::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    if let Some(name) = e2e::set_up_child_workload() {
        let Some(workload) = Workload::parse(&name) else {
            eprintln!("realbench: unknown workload {name}");
            std::process::exit(2);
        };
        e2e::set_up_child(workload);
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("realbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "{}",
        report::run_line(args.workload.name(), args.seed, args.seconds, args.trace)
    );
    let outcome = if args.trace {
        traced::run(args.workload, args.seed, args.seconds)
    } else {
        e2e::run(args.workload, args.seed, args.seconds)
    };
    println!(
        "{}",
        report::result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
}
