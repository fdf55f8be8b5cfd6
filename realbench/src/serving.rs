//! Set-up and the two public entry points the workloads are served through:
//! `PreparedDeployment::run` on the threaded cluster driver and
//! `Server::serve_stepped` on the fused step loop.

use crate::models;
use crate::reference;
use crate::workloads::{Workload, N_GENERATE};
use pipeinfer::model::KvPoolStats;
use pipeinfer::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// A served workload, ready for measured rounds.
pub struct Ready {
    pub target: Arc<Model>,
    pub draft: Arc<Model>,
    pub front: Front,
}

/// The entry point a workload is served through.
pub enum Front {
    /// One `PreparedDeployment::run` per request (closed loop).
    Solo(PreparedDeployment),
    /// `Server::serve_stepped` over a whole batch.
    Stepped(Server),
}

impl Front {
    pub fn prepared(&self) -> &PreparedDeployment {
        match self {
            Front::Solo(p) => p,
            Front::Stepped(s) => s.prepared(),
        }
    }
}

/// Process start to ready: builds both models from the seed, prepares the
/// deployment (and pool), and serves one untimed warm-up request.
pub fn set_up(workload: Workload, strategy: Box<dyn Strategy>) -> (Ready, f64) {
    let start = Instant::now();
    let (target, draft) = models::build_pair();
    let mode = ExecutionMode::Real {
        target: Arc::clone(&target),
        draft: Arc::clone(&draft),
    };
    let prepared = workload.prepare(strategy, &mode);
    let front = if workload.stepped() {
        Front::Stepped(Server::new(
            prepared,
            ServerConfig {
                max_in_flight: workload.window(),
            },
        ))
    } else {
        Front::Solo(prepared)
    };
    let ready = Ready {
        target,
        draft,
        front,
    };
    let warm = ready.serve(workload.warmup());
    assert!(
        warm.requests.iter().all(|r| r.output.completed),
        "warm-up request did not complete"
    );
    (ready, start.elapsed().as_secs_f64())
}

/// One request's output, with its token deliveries placed on the
/// benchmark's wall clock (seconds since the round was handed over).
pub struct Served {
    pub gen: GenConfig,
    pub output: RunOutput,
    pub wall_times: Vec<f64>,
}

/// One round: its requests in submission order and the wall seconds the
/// entry point took.
pub struct Round {
    pub requests: Vec<Served>,
    pub wall_s: f64,
    /// Step-loop accounting (`serve_stepped` only).
    pub session: Option<SessionStats>,
    /// Pool counters before and after the round (`serve_stepped` only).
    pub pool: Option<(KvPoolStats, KvPoolStats)>,
}

impl Ready {
    /// Serves `requests`, all handed over at once.
    pub fn serve(&self, requests: Vec<Request>) -> Round {
        match &self.front {
            Front::Solo(prepared) => {
                let mut served = Vec::with_capacity(requests.len());
                let mut wall_s = 0.0;
                for req in requests {
                    let start = Instant::now();
                    let output = prepared.run(&req.gen);
                    let w = start.elapsed().as_secs_f64();
                    wall_s += w;
                    // The record's times count from the driver's start; the
                    // driver ends `total_time` after it, just before `run`
                    // returns, so its start lies `w - total_time` after the
                    // hand-over.
                    let offset = (w - output.stats.total_time).max(0.0);
                    let wall_times = output
                        .record
                        .accept_times
                        .iter()
                        .map(|t| offset + t)
                        .collect();
                    served.push(Served {
                        gen: req.gen,
                        output,
                        wall_times,
                    });
                }
                Round {
                    requests: served,
                    wall_s,
                    session: None,
                    pool: None,
                }
            }
            Front::Stepped(server) => {
                let pool_before = server.prepared().kv_pool().map(|p| p.stats());
                let start = Instant::now();
                let report = server.serve_stepped(requests.clone());
                let wall_s = start.elapsed().as_secs_f64();
                // The session clock sums the measured step times and misses
                // the work between steps (admission, output collection), so
                // it is stretched uniformly onto the call's wall time.
                let makespan = report
                    .completions()
                    .iter()
                    .map(|c| c.timing.finished)
                    .fold(0.0, f64::max);
                let scale = if makespan > 0.0 {
                    wall_s / makespan
                } else {
                    1.0
                };
                let mut served = Vec::with_capacity(requests.len());
                for req in requests {
                    let Some(done) = report.completion(req.id) else {
                        continue;
                    };
                    let output = done.output.clone();
                    let wall_times = output
                        .record
                        .accept_times
                        .iter()
                        .map(|t| t * scale)
                        .collect();
                    served.push(Served {
                        gen: req.gen,
                        output,
                        wall_times,
                    });
                }
                Round {
                    requests: served,
                    wall_s,
                    session: report.cohort_stats().copied(),
                    pool: pool_before.zip(report.kv_pool_stats().copied()),
                }
            }
        }
    }
}

/// What the output checks of one round found.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checked {
    /// Requests that did not complete, emitted too few tokens, or were
    /// refused by the pool.
    pub failed: usize,
    /// Whether every request that did not fail is correct, and the round's
    /// accounting adds up.
    pub correct: bool,
}

/// Checks one request's output: `None` when it failed (did not complete or
/// emitted fewer than `n_generate` tokens), else whether its first
/// `n_generate` tokens equal the reference (not compared: `true`).
pub fn check_request(
    target: &Model,
    gen: &GenConfig,
    out: &RunOutput,
    compare: bool,
) -> Option<bool> {
    let tokens = &out.record.tokens;
    if !out.completed || tokens.len() < N_GENERATE {
        return None;
    }
    if !compare {
        return Some(true);
    }
    let (_, truth) = reference::greedy(target, &gen.prompt, N_GENERATE);
    let same = tokens[..N_GENERATE] == truth[..];
    if !same {
        eprintln!("tokens differ from the greedy reference");
    }
    Some(same)
}

/// Whether the session's batched rows equal the sum of its requests' own.
pub fn rows_add_up<'a>(
    session: &SessionStats,
    outputs: impl Iterator<Item = &'a RunOutput>,
) -> bool {
    let own_rows: u64 = outputs.map(|o| o.stats.total_batched_rows()).sum();
    if own_rows != session.batched_rows {
        eprintln!(
            "batched rows {} differ from the requests' own rows {own_rows}",
            session.batched_rows
        );
    }
    own_rows == session.batched_rows
}

/// Checks one round against the independent reference and the serving
/// invariants.  `checked(i)` selects the requests compared token by token.
pub fn check_round(
    target: &Model,
    round: &Round,
    handed_over: usize,
    checked: impl Fn(usize) -> bool,
) -> Checked {
    let mut out = Checked {
        failed: handed_over - round.requests.len(),
        correct: true,
    };
    for (i, r) in round.requests.iter().enumerate() {
        match check_request(target, &r.gen, &r.output, checked(i)) {
            None => out.failed += 1,
            Some(same) => out.correct &= same,
        }
    }
    if let Some((before, after)) = round.pool {
        // Refused admissions silently fall back to unpooled caches, so the
        // pool's counter is the only place a refusal shows.
        out.failed += (after.refusals - before.refusals) as usize;
    }
    if let Some(session) = &round.session {
        out.correct &= rows_add_up(session, round.requests.iter().map(|r| &r.output));
    }
    out
}
