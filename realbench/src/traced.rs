//! The traced run: per-layer metrics, measured from the benchmark's own
//! files around calls into each layer's public functions, plus the counters
//! the program already exposes.  Nothing here instruments the program.
//!
//! * serve: the benchmark drives `StepSession` call by call (`admit`,
//!   `step_cohort`, `take_output`) the way `Server::serve_stepped` does, and
//!   times each call.
//! * drafter: on the cluster path a delegating `Strategy` swaps a timing
//!   `Drafter` into `HeadParts::drafter`; the step loop builds its drafters
//!   internally, so there the recorded contexts are replayed through
//!   `RealDrafter::draft`.
//! * spec / core / cluster: `GenerationRecord`, `NodeStats` and
//!   `BubbleReport` over `run_traced`.
//! * model / kv / tensor: direct timed calls at the workload's shapes.

use crate::e2e::{is_checked, Outcome};
use crate::reference;
use crate::report::{self, metric, Metric};
use crate::serving::{check_request, rows_add_up, set_up};
use crate::workloads::{Workload, CUTOFF, KV_CAPACITY, MAX_DRAFT, N_GENERATE, RANKS};
use pipeinfer::cluster::NodeBehavior;
use pipeinfer::model::{Batch, KvCache, KvPoolStats, Pos, ScratchArena, TokenTree};
use pipeinfer::prelude::*;
use pipeinfer::spec::{Drafter, PipeMsg, PipelineRoute, RealDrafter, StepProfile};
use pipeinfer::tensor::{ops, Tensor};
use std::collections::VecDeque;
use std::hint::black_box;
use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Share of `--seconds` spent serving traced rounds; the rest goes to the
/// drafter replay, the cluster request and the direct layer calls.
const SERVE_SHARE: f64 = 0.6;
/// Share of `--seconds` the step-loop drafter replay may take.
const REPLAY_SHARE: f64 = 0.1;
/// Requests of the workload's shape sent through the cluster path on the
/// step-loop workloads, and through the step loop on `solo-pipeinfer`.
const CROSS_REQUESTS: usize = 2;
/// Repetitions of each direct layer call (the median is reported).
const LAYER_REPS: usize = 31;

// ---------------------------------------------------------------- drafter

#[derive(Debug, Default)]
struct DraftLog {
    calls: u64,
    seconds: f64,
    proposed: u64,
    context_tokens: u64,
}

type SharedLog = Arc<Mutex<DraftLog>>;

impl DraftLog {
    fn add(log: &SharedLog, seconds: f64, proposed: usize, context_tokens: usize) {
        let mut log = log.lock().expect("draft log lock");
        log.calls += 1;
        log.seconds += seconds;
        log.proposed += proposed as u64;
        log.context_tokens += context_tokens as u64;
    }
}

/// Times every call into the drafter it wraps.
struct TimedDrafter {
    inner: Box<dyn Drafter>,
    log: SharedLog,
}

impl Drafter for TimedDrafter {
    fn draft(
        &mut self,
        context: &[Token],
        extra: &[Token],
        max_tokens: usize,
        cutoff: f32,
    ) -> (Vec<(Token, f32)>, f64) {
        let start = Instant::now();
        let out = self.inner.draft(context, extra, max_tokens, cutoff);
        let s = start.elapsed().as_secs_f64();
        DraftLog::add(&self.log, s, out.0.len(), context.len() + extra.len());
        out
    }

    fn draft_tree(
        &mut self,
        context: &[Token],
        extra: &[Token],
        width: usize,
        depth: usize,
        cutoff: f32,
    ) -> (TokenTree, f64) {
        let start = Instant::now();
        let out = self.inner.draft_tree(context, extra, width, depth, cutoff);
        let s = start.elapsed().as_secs_f64();
        DraftLog::add(&self.log, s, out.0.len(), context.len() + extra.len());
        out
    }
}

/// Delegates everything to `inner`, but hands its head a timing drafter.
struct TimedStrategy {
    inner: Box<dyn Strategy>,
    log: SharedLog,
}

impl Strategy for TimedStrategy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn min_nodes(&self) -> usize {
        self.inner.min_nodes()
    }
    fn needs_drafter(&self) -> bool {
        self.inner.needs_drafter()
    }
    fn route(&self, n_nodes: usize) -> PipelineRoute {
        self.inner.route(n_nodes)
    }
    fn split_layers(&self, n_layers: usize, route: &PipelineRoute) -> Vec<Range<usize>> {
        self.inner.split_layers(n_layers, route)
    }
    fn step_profile(&self) -> StepProfile {
        self.inner.step_profile()
    }
    fn build_head(&self, mut parts: HeadParts) -> Box<dyn NodeBehavior<PipeMsg>> {
        if let Some(inner) = parts.drafter.take() {
            parts.drafter = Some(Box::new(TimedDrafter {
                inner,
                log: Arc::clone(&self.log),
            }));
        }
        self.inner.build_head(parts)
    }
    fn build_auxiliary(
        &self,
        mode: &ExecutionMode,
        n_nodes: usize,
        route: &PipelineRoute,
        gen_config: &GenConfig,
    ) -> Vec<(usize, Box<dyn NodeBehavior<PipeMsg>>)> {
        self.inner.build_auxiliary(mode, n_nodes, route, gen_config)
    }
}

// ---------------------------------------------------------- accumulation

/// Counts summed over the requests of the traced serving phase.
#[derive(Debug, Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    correct: bool,
    requests: u64,
    tokens: u64,
    drafted: u64,
    accepted: u64,
    runs_launched: u64,
    runs_cancelled: u64,
    runs_rescued: u64,
    overshoot: u64,
    cancellations_saved: u64,
    serve_s: f64,
}

impl Tally {
    fn new() -> Self {
        Self {
            correct: true,
            ..Self::default()
        }
    }

    /// Checks and counts one request's output.
    fn add(&mut self, target: &Model, gen: &GenConfig, out: &RunOutput, compare: bool) {
        self.attempted += 1;
        match check_request(target, gen, out, compare) {
            None => {
                self.failed += 1;
                return;
            }
            Some(same) => self.correct &= same,
        }
        let rec = &out.record;
        self.requests += 1;
        self.tokens += rec.tokens.len() as u64;
        self.drafted += rec.drafted as u64;
        self.accepted += rec.accepted_drafts as u64;
        self.runs_launched += rec.runs_launched as u64;
        self.runs_cancelled += rec.runs_cancelled as u64;
        self.runs_rescued += rec.runs_rescued as u64;
        self.overshoot += (rec.tokens.len() - N_GENERATE) as u64;
        self.cancellations_saved += out.stats.total_cancellations_saved();
    }

    fn per_request(&self, n: u64) -> f64 {
        ratio(n as f64, self.requests as f64)
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

// ------------------------------------------------------------ step loop

/// What driving one batch through a `StepSession` call by call measured.
struct Drive {
    outputs: Vec<(usize, RunOutput)>,
    admit_s: Vec<f64>,
    step_s: Vec<f64>,
    /// Wall time of the whole drive minus the session clock's makespan.
    unclocked_s: f64,
    stats: SessionStats,
}

/// Serves `requests` (all handed over at once) the way
/// `Server::serve_stepped` does: admit in order while the window has room,
/// step the cohort, collect finished requests.
fn drive(prepared: &PreparedDeployment, requests: &[Request], window: usize) -> Drive {
    let start = Instant::now();
    let mut session = prepared.begin_session();
    let mut waiting: VecDeque<usize> = (0..requests.len()).collect();
    let mut live: Vec<(u64, usize)> = Vec::new();
    let mut d = Drive {
        outputs: Vec::with_capacity(requests.len()),
        admit_s: Vec::new(),
        step_s: Vec::new(),
        unclocked_s: 0.0,
        stats: SessionStats::default(),
    };
    loop {
        while live.len() < window {
            let Some(idx) = waiting.pop_front() else {
                break;
            };
            let t = Instant::now();
            let sid = session.admit(&requests[idx].gen);
            d.admit_s.push(t.elapsed().as_secs_f64());
            live.push((sid, idx));
        }
        if session.active() == 0 {
            break;
        }
        let t = Instant::now();
        let step = session.step_cohort();
        d.step_s.push(t.elapsed().as_secs_f64());
        for sid in step.finished {
            let pos = live
                .iter()
                .position(|&(s, _)| s == sid)
                .expect("finished request is live");
            let (_, idx) = live.remove(pos);
            d.outputs
                .push((idx, session.take_output(sid).expect("finished output")));
        }
    }
    d.unclocked_s = start.elapsed().as_secs_f64() - session.now();
    d.stats = session.stats();
    d
}

/// Serve-layer metrics over a set of drives.
fn serve_metrics(drives: &[Drive], metrics: &mut Vec<Metric>) {
    let admit: Vec<f64> = drives
        .iter()
        .flat_map(|d| d.admit_s.iter().copied())
        .collect();
    let step: Vec<f64> = drives
        .iter()
        .flat_map(|d| d.step_s.iter().copied())
        .collect();
    let (steps, widths, rows) = drives.iter().fold((0, 0, 0), |(s, w, r), d| {
        (
            s + d.stats.cohort_steps,
            w + d.stats.cohort_width_sum,
            r + d.stats.batched_rows,
        )
    });
    let unclocked: Vec<f64> = drives.iter().map(|d| d.unclocked_s).collect();
    metrics.push(metric("serve.admit_ms", "ms", 1e3 * report::mean(&admit)));
    metrics.push(metric("serve.step_ms", "ms", 1e3 * report::mean(&step)));
    metrics.push(metric(
        "serve.cohort_width",
        "req/step",
        ratio(widths as f64, steps as f64),
    ));
    metrics.push(metric(
        "serve.rows_per_step",
        "rows/step",
        ratio(rows as f64, steps as f64),
    ));
    metrics.push(metric(
        "serve.unclocked_ms",
        "ms/batch",
        1e3 * report::mean(&unclocked),
    ));
}

/// Replays the draft calls the step loop made for one finished request:
/// before each delivery the loop drafted from the accepted context with the
/// pending token as `extra`.
fn replay_drafts(
    drafter: &mut RealDrafter,
    first: Token,
    gen: &GenConfig,
    out: &RunOutput,
    log: &SharedLog,
) {
    let rec = &out.record;
    let mut full: Vec<Token> = gen.prompt.clone();
    full.push(first);
    let mut done = 0;
    for start in report::delivery_starts(&rec.accept_times) {
        full.extend_from_slice(&rec.tokens[done..start]);
        done = start;
        let (context, extra) = full.split_at(full.len() - 1);
        let t = Instant::now();
        let (chain, _) = drafter.draft(black_box(context), extra, MAX_DRAFT, CUTOFF);
        DraftLog::add(log, t.elapsed().as_secs_f64(), chain.len(), full.len());
    }
}

// ------------------------------------------------------------- the run

pub fn run(workload: Workload, seed: u64, seconds: u64) -> Outcome {
    let run_start = Instant::now();
    let budget = Duration::from_secs_f64(seconds as f64 * SERVE_SHARE);
    let log: SharedLog = Arc::default();
    let strategy = TimedStrategy {
        inner: workload.strategy(),
        log: Arc::clone(&log),
    };
    let (ready, _) = set_up(workload, Box::new(strategy));
    *log.lock().expect("draft log lock") = DraftLog::default();
    let prepared = ready.front.prepared();
    let target = &ready.target;

    let mut tally = Tally::new();
    let mut metrics = Vec::new();
    let mut cluster = ClusterTally::default();
    let mut drives = Vec::new();
    let pool_before = prepared.kv_pool().map(|p| p.stats());
    let mut drafter_calls = 0u64;
    let mut replay_pool: Vec<(GenConfig, RunOutput)> = Vec::new();

    let start = Instant::now();
    let mut round = 0u64;
    while start.elapsed() < budget {
        let requests = workload.round(seed, round);
        if workload.stepped() {
            let t = Instant::now();
            let d = drive(prepared, &requests, workload.window());
            tally.serve_s += t.elapsed().as_secs_f64();
            tally.correct &= rows_add_up(&d.stats, d.outputs.iter().map(|(_, o)| o));
            for (idx, out) in &d.outputs {
                let gen = &requests[*idx].gen;
                let compare = is_checked(workload, round, *idx);
                tally.add(target, gen, out, compare);
                if workload.speculative() {
                    drafter_calls += out.record.runs_launched.saturating_sub(1) as u64;
                }
                if compare && workload.speculative() {
                    replay_pool.push((gen.clone(), out.clone()));
                }
            }
            tally.attempted += requests.len() - d.outputs.len();
            tally.failed += requests.len() - d.outputs.len();
            drives.push(d);
        } else {
            for req in &requests {
                let t = Instant::now();
                let out = prepared.run_traced(&req.gen, TraceConfig::default());
                tally.serve_s += t.elapsed().as_secs_f64();
                tally.add(target, &req.gen, &out, true);
                cluster.add(&out);
            }
        }
        round += 1;
    }
    let pool_stats = prepared
        .kv_pool()
        .map(|p| p.stats())
        .zip(pool_before)
        .map(|(after, before)| pool_delta(&before, &after));
    if let Some(pool) = &pool_stats {
        tally.failed += pool.refusals as usize;
    }

    // The other path at this workload's request shape.
    let cross = workload.round(seed, u64::MAX);
    if workload.stepped() {
        let mode = prepared.mode().clone();
        let solo = Deployment::from_boxed(workload.strategy()).prepare(&mode, RANKS);
        for req in cross.iter().take(CROSS_REQUESTS) {
            cluster.add(&solo.run_traced(&req.gen, TraceConfig::default()));
        }
    } else {
        let cross: Vec<Request> = cross
            .into_iter()
            .chain(workload.round(seed, u64::MAX - 1))
            .collect();
        drives.push(drive(prepared, &cross[..CROSS_REQUESTS], CROSS_REQUESTS));
    }

    // Drafter: measured on the cluster path, replayed on the step loop
    // where it drafts (`batch-iterative` never calls a drafter).
    if workload.stepped() && workload.speculative() {
        let mut drafter = RealDrafter::new((*ready.draft).clone(), KV_CAPACITY);
        let replay_budget = Duration::from_secs_f64(seconds as f64 * REPLAY_SHARE);
        let t = Instant::now();
        for (gen, out) in &replay_pool {
            let (first, _) = reference::greedy(target, &gen.prompt, 0);
            replay_drafts(&mut drafter, first, gen, out, &log);
            if t.elapsed() >= replay_budget {
                break;
            }
        }
    } else if !workload.stepped() {
        drafter_calls = log.lock().expect("draft log lock").calls;
    }

    serve_metrics(&drives, &mut metrics);
    let draft = log.lock().expect("draft log lock");
    let per_req = |n: u64| tally.per_request(n);
    for (name, unit, value) in [
        ("drafter.calls", "calls/req", per_req(drafter_calls)),
        (
            "drafter.call_ms",
            "ms",
            1e3 * ratio(draft.seconds, draft.calls as f64),
        ),
        (
            "drafter.ms_per_token",
            "ms/tok",
            1e3 * ratio(draft.seconds, draft.proposed as f64),
        ),
        (
            "drafter.context_tokens",
            "tok",
            ratio(draft.context_tokens as f64, draft.calls as f64),
        ),
        (
            "spec.accept_rate",
            "ratio",
            ratio(tally.accepted as f64, tally.drafted as f64),
        ),
        (
            "spec.tokens_per_run",
            "tok/run",
            ratio(tally.tokens as f64, tally.runs_launched as f64),
        ),
        ("spec.overshoot_tokens", "tok/req", per_req(tally.overshoot)),
        (
            "core.runs_launched",
            "runs/req",
            per_req(tally.runs_launched),
        ),
        (
            "core.runs_cancelled",
            "runs/req",
            per_req(tally.runs_cancelled),
        ),
        ("core.runs_rescued", "runs/req", per_req(tally.runs_rescued)),
        (
            "core.cancellations_saved",
            "count/req",
            per_req(tally.cancellations_saved),
        ),
    ] {
        metrics.push(metric(name, unit, value));
    }
    cluster.metrics(&mut metrics);
    layer_metrics(workload, &ready.target, &mut metrics);
    let pool = pool_stats.unwrap_or_default();
    let requests = pool.requests as f64;
    let requested = (tally.requests as usize * N_GENERATE) as f64;
    for (name, unit, value) in [
        (
            "kv_pool.hit_rate",
            "ratio",
            ratio(pool.share_hits as f64, requests),
        ),
        (
            "kv_pool.shared_tokens",
            "tok/req",
            ratio(pool.shared_tokens as f64, requests),
        ),
        ("kv_pool.pages_peak", "pages", pool.peak_pages_in_use as f64),
        (
            "kv_pool.evictions",
            "count/req",
            ratio(pool.evictions as f64, requests),
        ),
        ("traced.tok_s", "tok/s", ratio(requested, tally.serve_s)),
    ] {
        metrics.push(metric(name, unit, value));
    }
    eprintln!(
        "{} traced: {round} rounds, {} requests, {:.1} s",
        workload.name(),
        tally.attempted,
        run_start.elapsed().as_secs_f64()
    );
    Outcome {
        correct: tally.correct,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    }
}

/// Pool counters accumulated between two snapshots (the peak is the
/// high-water mark at the end).
fn pool_delta(before: &KvPoolStats, after: &KvPoolStats) -> KvPoolStats {
    KvPoolStats {
        requests: after.requests - before.requests,
        share_hits: after.share_hits - before.share_hits,
        shared_tokens: after.shared_tokens - before.shared_tokens,
        evictions: after.evictions - before.evictions,
        refusals: after.refusals - before.refusals,
        ..*after
    }
}

// --------------------------------------------------------------- cluster

/// Threaded-driver counters over traced cluster runs.
#[derive(Debug, Default)]
struct ClusterTally {
    runs: u64,
    head_busy_s: f64,
    stage_busy_s: f64,
    bubble: f64,
    bytes: u64,
    tokens: u64,
}

impl ClusterTally {
    fn add(&mut self, out: &RunOutput) {
        self.runs += 1;
        self.head_busy_s += out.stats.nodes[0].busy_time;
        self.stage_busy_s += out.stats.nodes[1..]
            .iter()
            .map(|n| n.busy_time)
            .sum::<f64>();
        if let Some(trace) = &out.trace {
            self.bubble += BubbleReport::analyze(trace).mean_bubble_fraction();
        }
        self.bytes += out.stats.total_bytes();
        self.tokens += out.record.tokens.len() as u64;
    }

    fn metrics(&self, metrics: &mut Vec<Metric>) {
        let runs = self.runs as f64;
        metrics.push(metric(
            "cluster.head_busy_s",
            "s/req",
            ratio(self.head_busy_s, runs),
        ));
        metrics.push(metric(
            "cluster.stage_busy_s",
            "s/req",
            ratio(self.stage_busy_s, runs),
        ));
        metrics.push(metric(
            "cluster.bubble_fraction",
            "ratio",
            ratio(self.bubble, runs),
        ));
        metrics.push(metric(
            "cluster.bytes_per_token",
            "B/tok",
            ratio(self.bytes as f64, self.tokens as f64),
        ));
    }
}

// ----------------------------------------------------- direct layer calls

/// Median wall seconds of `LAYER_REPS` calls of `f`, which times its own
/// measured part and returns it.
fn median_of(mut f: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..LAYER_REPS).map(|_| f()).collect();
    report::median(&samples)
}

/// A cache over every target layer holding `ctx` prompt tokens.
fn prefilled(target: &Model, ctx: usize, scratch: &mut ScratchArena) -> KvCache {
    let layers = 0..target.config().n_layers;
    let mut cache = target.new_cache_for_layers(&layers, KV_CAPACITY);
    let tokens: Vec<Token> = (0..ctx as Token)
        .map(|t| t % target.config().vocab_size as Token)
        .collect();
    let batch = Batch::prompt(&tokens, 0, 0);
    let cells = Model::alloc_cells_multi(&batch, &mut [&mut cache]).expect("prefill cells");
    let hidden = target.embed(&batch);
    target
        .forward_layer_range_multi(&batch, &hidden, layers, &mut [&mut cache], &cells, scratch)
        .expect("prefill");
    cache
}

/// Times one decode step of `lanes` × `rows` rows at context `ctx`, in
/// seconds per step; returns the step's output hidden state too.
fn time_decode(
    target: &Model,
    base: &KvCache,
    lanes: usize,
    rows: usize,
    ctx: usize,
    scratch: &mut ScratchArena,
) -> (f64, Tensor) {
    let layers = 0..target.config().n_layers;
    let mut caches: Vec<KvCache> = (0..lanes).map(|_| base.clone()).collect();
    let mut forest = Batch::new();
    for lane in 0..lanes {
        let mut sub = Batch::new();
        for r in 0..rows {
            sub.push((lane + r) as Token, (ctx + r) as Pos, vec![0], true);
        }
        forest.append_lane(&sub, lane);
    }
    let mut last = Tensor::zeros(&[forest.len(), target.config().d_model]);
    let s = median_of(|| {
        let mut refs: Vec<&mut KvCache> = caches.iter_mut().collect();
        let cells = Model::alloc_cells_multi(&forest, &mut refs).expect("decode cells");
        let hidden = target.embed(&forest);
        let t = Instant::now();
        last = target
            .forward_layer_range_multi(
                &forest,
                black_box(&hidden),
                layers.clone(),
                &mut refs,
                &cells,
                scratch,
            )
            .expect("decode step");
        let s = t.elapsed().as_secs_f64();
        for cache in refs {
            cache.seq_rm(0, ctx as Pos, Pos::MAX);
        }
        s
    });
    (s, last)
}

fn layer_metrics(workload: Workload, target: &Arc<Model>, metrics: &mut Vec<Metric>) {
    let cfg = target.config();
    let (lanes, rows) = workload.cohort_shape();
    let prompt = workload.mean_prompt();
    let ctx = prompt + N_GENERATE / 2;
    let mut scratch = ScratchArena::for_config(cfg);
    let base = prefilled(target, ctx, &mut scratch);

    let (m1, _) = time_decode(target, &base, 1, 1, ctx, &mut scratch);
    let (cohort, hidden) = time_decode(target, &base, lanes, rows, ctx, &mut scratch);
    let prefill = median_of(|| {
        let t = Instant::now();
        black_box(prefilled(target, prompt, &mut scratch));
        t.elapsed().as_secs_f64()
    });
    let logits = median_of(|| {
        let t = Instant::now();
        black_box(target.logits(black_box(&hidden)));
        t.elapsed().as_secs_f64()
    });
    let layers = 0..cfg.n_layers;
    let alloc = median_of(|| {
        let t = Instant::now();
        black_box(target.new_cache_for_layers(&layers, KV_CAPACITY));
        t.elapsed().as_secs_f64()
    });
    // The largest projection of the target: the FFN up-projection.
    let w = &target.weights().layers[0].w_up;
    let matmul = |m: usize| {
        let x = Tensor::full(&[m, cfg.d_model], 0.5);
        median_of(|| {
            let t = Instant::now();
            black_box(ops::matmul_t(black_box(&x), w).expect("matmul shape"));
            t.elapsed().as_secs_f64()
        })
    };
    metrics.push(metric("model.decode_row_us.m1", "us/row", 1e6 * m1));
    metrics.push(metric(
        "model.decode_row_us.cohort",
        "us/row",
        1e6 * cohort / (lanes * rows) as f64,
    ));
    metrics.push(metric(
        "model.prefill_token_us",
        "us/tok",
        1e6 * prefill / prompt as f64,
    ));
    metrics.push(metric("model.logits_us", "us", 1e6 * logits));
    metrics.push(metric("kv.cache_alloc_ms", "ms", 1e3 * alloc));
    metrics.push(metric("tensor.matmul_us.m1", "us", 1e6 * matmul(1)));
    metrics.push(metric(
        "tensor.matmul_us.cohort",
        "us",
        1e6 * matmul(lanes * rows),
    ));
}
