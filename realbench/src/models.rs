//! The seeded draft/target pair every workload serves.
//!
//! Both models come from one `ModelWeights::random` draw.  Two gains turn
//! that draw into a pair whose speculation behaves like a trained one:
//!
//! * `HEAD_GAIN` sharpens the output distribution (it is the final-norm
//!   weight), so the draft's top token often clears the 0.3 confidence
//!   cutoff.  Untouched random weights give a top probability near
//!   1/vocab, and nothing is ever drafted.
//! * `DEEP_GAIN` scales the residual writes (`wo`, `w_down`) of every layer
//!   past the draft's depth, which sets how far the target's deep layers
//!   move the residual stream away from what the draft sees.  It therefore
//!   sets draft/target agreement.
//!
//! The draft is the target's first `DRAFT_LAYERS` layers with the shared
//! embedding, norm and head (`ModelWeights::truncated`).

use pipeinfer::model::{Activation, Model, ModelConfig, ModelWeights};
use std::sync::Arc;

/// Seed of the single weight draw both models are cut from.
pub const MODEL_SEED: u64 = 0x5eed_0001;
/// Decoder layers of the target.
pub const TARGET_LAYERS: usize = 8;
/// Decoder layers of the draft: a quarter of the target's depth.
pub const DRAFT_LAYERS: usize = 2;
/// Final-norm weight of both models (output sharpness).
pub const HEAD_GAIN: f32 = 12.0;
/// Gain on the residual writes of target layers past `DRAFT_LAYERS`.
pub const DEEP_GAIN: f32 = 0.045;
/// Vocabulary size; prompts draw from the whole vocabulary.
pub const VOCAB: usize = 512;

/// The target architecture: d256, 8 layers, SwiGLU, about 5.5 M
/// parameters (22 MiB of f32 weights, well beyond a 4 MiB L2).
pub fn target_config() -> ModelConfig {
    ModelConfig {
        name: "bench-target-d256".to_string(),
        vocab_size: VOCAB,
        d_model: 256,
        n_layers: TARGET_LAYERS,
        n_heads: 8,
        n_kv_heads: 8,
        d_ff: 640,
        max_seq_len: 2048,
        rope_theta: 10000.0,
        norm_eps: 1e-5,
        activation: Activation::SwiGlu,
    }
}

/// Builds the (target, draft) pair from `MODEL_SEED`.
pub fn build_pair() -> (Arc<Model>, Arc<Model>) {
    let cfg = target_config();
    let mut weights = ModelWeights::random(&cfg, MODEL_SEED);
    weights.final_norm.data_mut().fill(HEAD_GAIN);
    for layer in &mut weights.layers[DRAFT_LAYERS..] {
        for v in layer
            .wo
            .data_mut()
            .iter_mut()
            .chain(layer.w_down.data_mut())
        {
            *v *= DEEP_GAIN;
        }
    }
    let (draft_cfg, draft_weights) = weights.truncated(&cfg, DRAFT_LAYERS);
    (
        Arc::new(Model::new(cfg, weights)),
        Arc::new(Model::new(draft_cfg, draft_weights)),
    )
}
