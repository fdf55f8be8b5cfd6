//! The independent output reference: greedy decoding by a plain
//! single-sequence `Model::forward_full` loop, sharing no code with the
//! serving, pipelining or speculation paths.

use pipeinfer::model::{Batch, KvCache, Model, Pos, Sampler, Token};

/// Greedy continuation of `prompt`.
///
/// Returns the token sampled from prompt processing, which no serving path
/// records as output, followed by the `n` tokens every path must emit.
pub fn greedy(model: &Model, prompt: &[Token], n: usize) -> (Token, Vec<Token>) {
    let cfg = model.config();
    let mut cache = KvCache::new(cfg.n_layers, cfg.kv_dim(), prompt.len() + n + 1);
    let logits = model
        .forward_full(&Batch::prompt(prompt, 0, 0), &mut cache)
        .expect("reference prompt evaluation");
    let first = Sampler::Greedy.sample(logits.row(prompt.len() - 1).expect("last prompt row"));
    let mut tok = first;
    let mut out = Vec::with_capacity(n);
    for pos in prompt.len()..prompt.len() + n {
        let logits = model
            .forward_full(&Batch::single(tok, pos as Pos, 0), &mut cache)
            .expect("reference decode step");
        tok = Sampler::Greedy.sample(logits.row(0).expect("decode row"));
        out.push(tok);
    }
    (first, out)
}
