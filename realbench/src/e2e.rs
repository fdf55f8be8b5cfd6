//! The untraced run: serves whole rounds for the run's duration and reports
//! the end-to-end metrics.

use crate::report::{self, metric, Metric};
use crate::serving::{check_round, set_up};
use crate::workloads::{Workload, N_GENERATE};
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// The flag that makes the benchmark binary a set-up child: it sets the
/// named workload up, prints `ready` and exits.
const SET_UP_FLAG: &str = "--set-up-only";
const READY: &str = "ready";

pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

/// Whether request `i` of round `round` is compared with the reference:
/// one request in `check_stride()`, rotating with the round.
pub fn is_checked(workload: Workload, round: u64, i: usize) -> bool {
    let stride = workload.check_stride();
    i % stride == (round as usize) % stride
}

/// The workload a set-up child is asked to set up, if this process is one.
pub fn set_up_child_workload() -> Option<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [flag, name] if flag == SET_UP_FLAG => Some(name.clone()),
        _ => None,
    }
}

/// The set-up child's work: set up, then tell the parent it is ready.
pub fn set_up_child(workload: Workload) {
    let (_ready, _) = set_up(workload, workload.strategy());
    let mut out = std::io::stdout().lock();
    writeln!(out, "{READY}").expect("write to the parent");
    out.flush().expect("flush to the parent");
}

/// Seconds from starting a fresh process of this binary to its being ready
/// to serve `workload`: process start, model build, prepare, warm-up.
fn cold_set_up(workload: Workload) -> f64 {
    let exe = std::env::current_exe().expect("path of the benchmark binary");
    let start = Instant::now();
    let mut child = Command::new(exe)
        .args([SET_UP_FLAG, workload.name()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .expect("start a set-up child");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("child stdout"))
        .read_line(&mut line)
        .expect("read from the set-up child");
    let seconds = start.elapsed().as_secs_f64();
    let status = child.wait().expect("wait for the set-up child");
    assert!(
        status.success() && line.trim() == READY,
        "set-up child failed: {status}"
    );
    seconds
}

pub fn run(workload: Workload, seed: u64, seconds: u64) -> Outcome {
    let setups: Vec<f64> = (0..SETUP_REPS).map(|_| cold_set_up(workload)).collect();
    let (ready, _) = set_up(workload, workload.strategy());

    // The measured phase is the entry-point calls; the output checks run
    // between them and are not counted.
    let budget = seconds as f64;
    let mut serving = 0.0;
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let mut round_tok_s = Vec::new();
    let (mut ttft, mut tpot, mut gaps) = (Vec::new(), Vec::new(), Vec::new());
    let mut round = 0u64;
    while serving < budget {
        let requests = workload.round(seed, round);
        let handed_over = requests.len();
        let served = ready.serve(requests);
        serving += served.wall_s;
        let mut delivered = 0;
        let (t0, p0, g0) = (ttft.len(), tpot.len(), gaps.len());
        for r in &served.requests {
            let Some(times) = r.wall_times.get(..N_GENERATE) else {
                continue;
            };
            delivered += N_GENERATE;
            ttft.push(times[0]);
            tpot.push((times[N_GENERATE - 1] - times[0]) / (N_GENERATE - 1) as f64);
            gaps.extend(report::delivery_gaps(times));
        }
        // Per-round throughput; the run reports the median round, which a
        // few seconds of contention on the host do not move.
        round_tok_s.push(delivered as f64 / served.wall_s);
        eprintln!(
            "round {round}: tok_s {:.2} ttft_p50_ms {:.3} tpot_p50_ms {:.4} itl_p50_ms {:.4} itl_p90_ms {:.4}",
            delivered as f64 / served.wall_s,
            1e3 * report::median(&ttft[t0..]),
            1e3 * report::median(&tpot[p0..]),
            1e3 * report::quantile(&gaps[g0..], 0.5),
            1e3 * report::quantile(&gaps[g0..], 0.9),
        );
        let checked = check_round(&ready.target, &served, handed_over, |i| {
            is_checked(workload, round, i)
        });
        attempted += handed_over;
        failed += checked.failed;
        correct &= checked.correct;
        round += 1;
    }

    let metrics = vec![
        metric("setup_s", "s", report::median(&setups)),
        metric("tok_s", "tok/s", report::median(&round_tok_s)),
        metric("ttft_p50_ms", "ms", 1e3 * report::median(&ttft)),
        metric("tpot_p50_ms", "ms", 1e3 * report::median(&tpot)),
        metric("itl_p50_ms", "ms", 1e3 * report::quantile(&gaps, 0.5)),
        metric("itl_p90_ms", "ms", 1e3 * report::quantile(&gaps, 0.9)),
        metric("rss_peak_mb", "MiB", report::rss_peak_mib()),
    ];
    eprintln!(
        "{}: {round} rounds, {attempted} requests, {} deliveries",
        workload.name(),
        gaps.len() + ttft.len()
    );
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
    }
}
