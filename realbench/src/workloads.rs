//! The three workloads: their request shapes, their seeded inputs and the
//! deployment each is served on.
//!
//! Every input is a pure function of the run's `--seed` and the round
//! index, so the same seed gives the same requests.  A *round* is the unit
//! of work a run repeats until its time is up: one request for the closed
//! loop, one offline batch for the step-loop workloads.

use crate::models;
use pipeinfer::core::PipeInferStrategy;
use pipeinfer::model::KvPoolConfig;
use pipeinfer::prelude::*;
use pipeinfer::serve::workload::SharedPrefixWorkload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tokens every request asks for.
pub const N_GENERATE: usize = 64;
/// Draft tokens per speculation round.
pub const MAX_DRAFT: usize = 4;
/// Draft confidence cutoff.
pub const CUTOFF: f32 = 0.3;
/// KV cells per stage: the longest prompt plus generation plus the step
/// loop's overshoot, with room to spare.
pub const KV_CAPACITY: usize = 512;
/// Ranks of the threaded cluster: no more than the host's two cores.
pub const RANKS: usize = 2;
/// Tokens per KV page of the pool.
pub const PAGE_TOKENS: usize = 16;
/// Pages in the pool: a full window of the longest requests plus room for
/// one more round's committed system prompt, so older prefixes get evicted
/// but no admission is ever refused.
pub const POOL_PAGES: usize = 64;

/// Prompt length of `solo-pipeinfer` (the paper's 128-token prompts).
pub const SOLO_PROMPT: usize = 128;
/// Requests per `batch-iterative` round and their prompt lengths: shorter
/// than one page, so no two requests can share a full page.  Four and a
/// half windows, so the median request sits inside a wave rather than on
/// the boundary between two.
pub const ITER_BATCH: usize = 36;
pub const ITER_PROMPT: (usize, usize) = (8, 15);
/// Requests per `batch-shared-prefix` round, the system-prompt length and
/// the unique suffix lengths.  The first window of a round misses the
/// prefix cache (nothing is committed yet); the majority after it hits.
pub const SHARED_BATCH: usize = 10;
pub const SHARED_PREFIX: usize = 96;
pub const SHARED_SUFFIX: (usize, usize) = (8, 16);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SoloPipeInfer,
    BatchIterative,
    BatchSharedPrefix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SoloPipeInfer,
        Workload::BatchIterative,
        Workload::BatchSharedPrefix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SoloPipeInfer => "solo-pipeinfer",
            Workload::BatchIterative => "batch-iterative",
            Workload::BatchSharedPrefix => "batch-shared-prefix",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload is served by the step loop (`serve_stepped`)
    /// rather than by one `PreparedDeployment::run` per request.
    pub fn stepped(self) -> bool {
        self != Workload::SoloPipeInfer
    }

    /// Requests decoded together by the step loop (1 on the closed loop).
    pub fn window(self) -> usize {
        match self {
            Workload::SoloPipeInfer => 1,
            Workload::BatchIterative => 8,
            Workload::BatchSharedPrefix => 4,
        }
    }

    /// One request in this many per round is compared with the reference,
    /// rotating with the round, so every batch position has been compared
    /// once a run has served this many rounds.  The reference decodes one
    /// row per step: it costs more than a request's share of a fused
    /// `batch-iterative` round and about 40 % of one on
    /// `batch-shared-prefix`, so the batches compare a subset to keep the
    /// run short.
    pub fn check_stride(self) -> usize {
        match self {
            Workload::SoloPipeInfer => 1,
            Workload::BatchIterative => 6,
            Workload::BatchSharedPrefix => 2,
        }
    }

    /// Whether the workload's strategy drafts.
    pub fn speculative(self) -> bool {
        self != Workload::BatchIterative
    }

    /// The strategy the workload deploys.
    pub fn strategy(self) -> Box<dyn Strategy> {
        if self.speculative() {
            Box::new(PipeInferStrategy::default())
        } else {
            Box::new(IterativeStrategy)
        }
    }

    /// Prepares the workload's deployment over `mode`, with the page pool
    /// attached on the step-loop workloads.
    pub fn prepare(self, strategy: Box<dyn Strategy>, mode: &ExecutionMode) -> PreparedDeployment {
        let prepared = Deployment::from_boxed(strategy).prepare(mode, RANKS);
        if self.stepped() {
            prepared.with_kv_pool(KvPagePool::new(KvPoolConfig {
                tokens_per_page: PAGE_TOKENS,
                n_pages: POOL_PAGES,
            }))
        } else {
            prepared
        }
    }

    /// The requests of round `round` under `seed`, all handed over at once.
    pub fn round(self, seed: u64, round: u64) -> Vec<Request> {
        let mut rng = StdRng::seed_from_u64(mix(seed, round));
        let prompts: Vec<Vec<Token>> = match self {
            Workload::SoloPipeInfer => vec![draw(&mut rng, SOLO_PROMPT)],
            Workload::BatchIterative => (0..ITER_BATCH)
                .map(|_| {
                    let len = rng.gen_range(ITER_PROMPT.0..=ITER_PROMPT.1);
                    draw(&mut rng, len)
                })
                .collect(),
            Workload::BatchSharedPrefix => {
                let stream = SharedPrefixWorkload {
                    base: gen_config(vocabulary()),
                    n_requests: SHARED_BATCH,
                    mean_interarrival: 0.0,
                    shared_fraction: 1.0,
                    prefix_len: (SHARED_PREFIX, SHARED_PREFIX),
                    suffix_len: SHARED_SUFFIX,
                    seed: mix(seed, round),
                };
                stream
                    .generate()
                    .into_iter()
                    .map(|r| r.gen.prompt)
                    .collect()
            }
        };
        prompts
            .into_iter()
            .enumerate()
            .map(|(i, p)| Request::new(i as u64, gen_config(p), 0.0))
            .collect()
    }

    /// The untimed warm-up request served during set-up: the workload's
    /// request shape, a quarter of the generation length.
    pub fn warmup(self) -> Vec<Request> {
        let mut req = self.round(u64::MAX, 0).swap_remove(0);
        req.gen.n_generate = N_GENERATE / 4;
        vec![req]
    }

    /// Lanes and rows per lane of one decode step at this workload's shape
    /// (used by the traced run's direct model and kernel calls).
    pub fn cohort_shape(self) -> (usize, usize) {
        match self {
            Workload::BatchIterative => (self.window(), 1),
            _ => (self.window(), 1 + MAX_DRAFT),
        }
    }

    /// Mean prompt length of the workload's requests.
    pub fn mean_prompt(self) -> usize {
        match self {
            Workload::SoloPipeInfer => SOLO_PROMPT,
            Workload::BatchIterative => (ITER_PROMPT.0 + ITER_PROMPT.1) / 2,
            Workload::BatchSharedPrefix => SHARED_PREFIX + (SHARED_SUFFIX.0 + SHARED_SUFFIX.1) / 2,
        }
    }
}

/// The generation parameters every request shares.
pub fn gen_config(prompt: Vec<Token>) -> GenConfig {
    GenConfig {
        prompt,
        n_generate: N_GENERATE,
        max_draft: MAX_DRAFT,
        confidence_cutoff: CUTOFF,
        kv_capacity: KV_CAPACITY,
    }
}

/// Every token id of the models' vocabulary (the prompt alphabet).
fn vocabulary() -> Vec<Token> {
    (0..models::VOCAB as Token).collect()
}

fn draw(rng: &mut StdRng, len: usize) -> Vec<Token> {
    (0..len)
        .map(|_| rng.gen_range(0..models::VOCAB as Token))
        .collect()
}

/// Folds the round index into the seed (SplitMix64 finaliser), so rounds of
/// one run and runs of neighbouring seeds draw unrelated inputs.
fn mix(seed: u64, round: u64) -> u64 {
    let mut z = seed ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
