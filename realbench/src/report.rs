//! Summary statistics and the result lines the benchmark prints.

use std::fmt::Write as _;
use std::path::Path;

/// Successive token acceptances closer together than this are one delivery:
/// the head accepts every token of one verification in a single pass, a
/// few microseconds apart, while separate verifications are at least one
/// target forward pass (milliseconds) apart.
pub const DELIVERY_GAP_S: f64 = 100e-6;

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (sorted here).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let h = q * (v.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (h - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Index of the first token of every delivery in one request's token times.
pub fn delivery_starts(times: &[f64]) -> Vec<usize> {
    (0..times.len())
        .filter(|&i| i == 0 || times[i] - times[i - 1] >= DELIVERY_GAP_S)
        .collect()
}

/// Gaps between successive deliveries of one request's token times.
pub fn delivery_gaps(times: &[f64]) -> Vec<f64> {
    delivery_starts(times)
        .windows(2)
        .map(|w| times[w[1]] - times[w[0]])
        .collect()
}

/// One named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        write!(
            body,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("write to string");
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The run-description line printed before the result: git revision, host,
/// active SIMD kernel set and thread settings.
pub fn run_line(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let env_threads = std::env::var("PIPEINFER_THREADS").unwrap_or_default();
    format!(
        "{{\"run\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {trace}, \"rev\": \"{}\", \"host\": \"{}\", \"isa\": \"{}\", \
         \"available_parallelism\": {threads}, \"PIPEINFER_THREADS\": \"{env_threads}\", \
         \"ranks\": {}}}}}",
        git_rev(),
        host(),
        pipeinfer::tensor::simd::active_isa(),
        crate::workloads::RANKS,
    )
}

/// The checkout's commit, read from `.git` without running git; `unknown`
/// outside a git checkout.
fn git_rev() -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let git = Path::new(".git");
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&git.join(reference)) {
        return rev;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn host() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}
