//! Training a tiny transformer from scratch (manual backprop + Adam).
//!
//! The paper's accuracy results (Fig. 21: accuracy loss vs. token/head
//! pruning ratio) require a model whose attention genuinely concentrates on
//! informative tokens. Pretrained checkpoints are unavailable here, so we
//! *train* one: a synthetic classification task plants a few keyword tokens
//! (whose class determines the label) among many filler tokens — the same
//! redundancy structure the paper exploits in natural language. After
//! training, cascade token pruning should be able to discard most fillers
//! with no accuracy loss, reproducing the shape of Fig. 21.
//!
//! The trainer re-implements the forward pass of [`Model`] with cached
//! intermediates and derives gradients for every parameter (embeddings,
//! positional table, attention projections, FFN, layer norms, classifier).

use crate::matrix::Matrix;
use crate::model::Model;
use crate::observer::AttentionObserver;
use crate::ops::{argmax, cross_entropy_with_grad, gelu, gelu_grad};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const LN_EPS: f32 = 1e-5;

// ---------------------------------------------------------------------------
// Synthetic task
// ---------------------------------------------------------------------------

/// The planted-keyword classification task.
///
/// Vocabulary layout: ids `0..n_classes*keywords_per_class` are keywords
/// (`id / keywords_per_class` is their class); the rest are fillers. Each
/// example plants `keywords_per_example` keywords of the label class and
/// `distractors_per_example` keywords of one other class — the label is the
/// *majority* keyword class, so a model (or a pruner) that loses keyword
/// tokens loses the vote and the accuracy cliff of Fig. 21 appears.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyntheticTask {
    /// Total vocabulary size (must exceed the keyword block).
    pub vocab: usize,
    /// Number of classes.
    pub n_classes: usize,
    /// Distinct keyword tokens per class.
    pub keywords_per_class: usize,
    /// Sequence length of every example.
    pub seq_len: usize,
    /// Majority-class keywords planted per example.
    pub keywords_per_example: usize,
    /// Opposing-class keywords planted per example (must be fewer).
    pub distractors_per_example: usize,
}

impl SyntheticTask {
    /// First filler token id.
    pub fn filler_start(&self) -> usize {
        self.n_classes * self.keywords_per_class
    }

    /// Whether a token id is a keyword.
    pub fn is_keyword(&self, token: usize) -> bool {
        token < self.filler_start()
    }

    /// Samples one `(tokens, label)` example.
    ///
    /// # Panics
    ///
    /// Panics if the vocabulary cannot hold keywords + at least one filler,
    /// or if distractors would outvote the label keywords.
    pub fn sample(&self, rng: &mut StdRng) -> (Vec<usize>, usize) {
        assert!(self.filler_start() < self.vocab, "vocab too small for task");
        assert!(
            self.distractors_per_example < self.keywords_per_example,
            "distractors must stay a minority"
        );
        let label = rng.gen_range(0..self.n_classes);
        let other = (label + 1 + rng.gen_range(0..self.n_classes - 1)) % self.n_classes;
        let mut tokens: Vec<usize> = (0..self.seq_len)
            .map(|_| rng.gen_range(self.filler_start()..self.vocab))
            .collect();
        let mut positions: Vec<usize> = (0..self.seq_len).collect();
        let planted = self.keywords_per_example + self.distractors_per_example;
        for i in 0..planted.min(self.seq_len) {
            let pick = rng.gen_range(i..positions.len());
            positions.swap(i, pick);
            let class = if i < self.keywords_per_example {
                label
            } else {
                other
            };
            let kw = class * self.keywords_per_class + rng.gen_range(0..self.keywords_per_class);
            tokens[positions[i]] = kw;
        }
        (tokens, label)
    }

    /// Samples a whole dataset.
    pub fn sample_many(&self, n: usize, seed: u64) -> Vec<(Vec<usize>, usize)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| self.sample(&mut rng)).collect()
    }
}

// ---------------------------------------------------------------------------
// Gradient bookkeeping
// ---------------------------------------------------------------------------

/// Gradients matching [`Model::trainable_params_mut`] order: matrices are
/// `[embed, (per block: wq wk wv wo w1 w2), classifier]`, vectors are
/// `[(per block: b1 b2), classifier_bias]`.
#[derive(Debug, Clone)]
struct Grads {
    mats: Vec<Matrix>,
    vecs: Vec<Vec<f32>>,
}

impl Grads {
    fn zeros_like(model: &mut Model) -> Self {
        let (mats, vecs) = model.trainable_params_mut();
        Self {
            mats: mats
                .iter()
                .map(|m| Matrix::zeros(m.rows(), m.cols()))
                .collect(),
            vecs: vecs.iter().map(|v| vec![0.0; v.len()]).collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// Forward with cached intermediates + backward
// ---------------------------------------------------------------------------

struct LayerNormCache {
    xhat: Matrix,
    inv_std: Vec<f32>,
}

fn layer_norm_cached(x: &Matrix) -> (Matrix, LayerNormCache) {
    let mut xhat = Matrix::zeros(x.rows(), x.cols());
    let mut inv_std = Vec::with_capacity(x.rows());
    for r in 0..x.rows() {
        let row = x.row(r);
        let n = row.len() as f32;
        let mean = row.iter().sum::<f32>() / n;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
        let istd = 1.0 / (var + LN_EPS).sqrt();
        inv_std.push(istd);
        for (c, &v) in row.iter().enumerate() {
            xhat.set(r, c, (v - mean) * istd);
        }
    }
    (xhat.clone(), LayerNormCache { xhat, inv_std })
}

/// Backward through unit-affine layer norm (γ=1, β=0 are kept frozen in the
/// trainer; they contribute little for tiny models and keep the parameter
/// bookkeeping small).
fn layer_norm_backward(dy: &Matrix, cache: &LayerNormCache) -> Matrix {
    let n = dy.cols() as f32;
    let mut dx = Matrix::zeros(dy.rows(), dy.cols());
    for r in 0..dy.rows() {
        let dyr = dy.row(r);
        let xh = cache.xhat.row(r);
        let mean_dy: f32 = dyr.iter().sum::<f32>() / n;
        let mean_dy_xhat: f32 = dyr.iter().zip(xh).map(|(a, b)| a * b).sum::<f32>() / n;
        let istd = cache.inv_std[r];
        for c in 0..dy.cols() {
            dx.set(r, c, istd * (dyr[c] - mean_dy - xh[c] * mean_dy_xhat));
        }
    }
    dx
}

struct BlockCache {
    x: Matrix,
    q: Matrix,
    k: Matrix,
    v: Matrix,
    probs: Vec<Matrix>, // per head
    concat: Matrix,
    ln1: LayerNormCache,
    mid: Matrix,
    ffn_pre: Matrix,
    ffn_act: Matrix,
    ln2: LayerNormCache,
}

struct ForwardCache {
    tokens: Vec<usize>,
    x0: Matrix,
    blocks: Vec<BlockCache>,
    pooled: Vec<f32>,
    final_x: Matrix,
}

fn forward_cached(model: &Model, tokens: &[usize]) -> (Vec<f32>, ForwardCache) {
    let cfg = model.config();
    let heads = cfg.heads;
    let d = cfg.head_dim();
    let scale = 1.0 / (d as f32).sqrt();

    let mut x = model.embed_tokens(tokens);
    let x0 = x.clone();
    let mut blocks = Vec::with_capacity(model.blocks().len());

    for block in model.blocks() {
        let (wq, wk, wv, wo) = block.attention().weights();
        let q = x.matmul(wq);
        let k = x.matmul(wk);
        let v = x.matmul(wv);
        let mut concat = Matrix::zeros(x.rows(), cfg.hidden);
        let mut probs = Vec::with_capacity(heads);
        for h in 0..heads {
            let qh = q.slice_cols(h * d, d);
            let kh = k.slice_cols(h * d, d);
            let vh = v.slice_cols(h * d, d);
            let mut s = qh.matmul_nt(&kh);
            s.scale_assign(scale);
            crate::ops::softmax_rows(&mut s, false, 0);
            let e = s.matmul(&vh);
            concat.write_cols(h * d, &e);
            probs.push(s);
        }
        let attn_out = concat.matmul(wo);
        let mut mid_pre = attn_out;
        mid_pre.add_assign(&x);
        let (mid, ln1) = layer_norm_cached(&mid_pre);

        let (w1, b1, w2, b2) = block.ffn_weights_ref();
        let mut ffn_pre = mid.matmul(w1);
        ffn_pre.add_bias_assign(b1);
        let mut ffn_act = ffn_pre.clone();
        for val in ffn_act.data_mut() {
            *val = gelu(*val);
        }
        let mut ffn_out = ffn_act.matmul(w2);
        ffn_out.add_bias_assign(b2);
        ffn_out.add_assign(&mid);
        let (out, ln2) = layer_norm_cached(&ffn_out);

        blocks.push(BlockCache {
            x: x.clone(),
            q,
            k,
            v,
            probs,
            concat,
            ln1,
            mid,
            ffn_pre,
            ffn_act,
            ln2,
        });
        x = out;
    }

    // Mean pool + classifier.
    let mut pooled = vec![0.0f32; cfg.hidden];
    for r in 0..x.rows() {
        for (p, v) in pooled.iter_mut().zip(x.row(r)) {
            *p += v;
        }
    }
    for p in &mut pooled {
        *p /= x.rows() as f32;
    }
    let logits = classifier_logits(model, &pooled);

    (
        logits,
        ForwardCache {
            tokens: tokens.to_vec(),
            x0,
            blocks,
            pooled,
            final_x: x,
        },
    )
}

fn classifier_logits(model: &Model, pooled: &[f32]) -> Vec<f32> {
    let h = Matrix::from_vec(1, pooled.len(), pooled.to_vec());
    let m = model_classifier_ref(model);
    let mut out = h.matmul(m.0);
    out.add_bias_assign(m.1);
    out.row(0).to_vec()
}

fn model_classifier_ref(model: &Model) -> (&Matrix, &Vec<f32>) {
    model
        .classifier_ref()
        .expect("trainer needs a classifier model")
}

/// Softmax-row backward: `ds = p ⊙ (dp − (dp·p))` per row.
fn softmax_backward(dp: &Matrix, p: &Matrix) -> Matrix {
    let mut ds = Matrix::zeros(p.rows(), p.cols());
    for r in 0..p.rows() {
        let dot: f32 = dp.row(r).iter().zip(p.row(r)).map(|(a, b)| a * b).sum();
        for c in 0..p.cols() {
            ds.set(r, c, p.get(r, c) * (dp.get(r, c) - dot));
        }
    }
    ds
}

// ---------------------------------------------------------------------------
// Trainer
// ---------------------------------------------------------------------------

/// Adam optimizer state + training loop for classifier models.
#[derive(Debug)]
pub struct Trainer {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    step: u64,
    m_mats: Vec<Matrix>,
    v_mats: Vec<Matrix>,
    m_vecs: Vec<Vec<f32>>,
    v_vecs: Vec<Vec<f32>>,
}

impl Trainer {
    /// New Adam trainer with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            step: 0,
            m_mats: Vec::new(),
            v_mats: Vec::new(),
            m_vecs: Vec::new(),
            v_vecs: Vec::new(),
        }
    }

    /// Runs one minibatch (forward + backward + Adam update) and returns the
    /// mean loss.
    pub fn train_batch(&mut self, model: &mut Model, batch: &[(Vec<usize>, usize)]) -> f32 {
        assert!(!batch.is_empty(), "empty batch");
        let mut total_loss = 0.0f32;

        // Accumulate gradients over the batch.
        let mut grads = Grads::zeros_like(model);
        for (tokens, label) in batch {
            let (logits, cache) = forward_cached(model, tokens);
            let (loss, dlogits) = cross_entropy_with_grad(&logits, *label);
            total_loss += loss;
            backward(model, &cache, &dlogits, &mut grads);
        }
        let scale = 1.0 / batch.len() as f32;
        for g in &mut grads.mats {
            g.scale_assign(scale);
        }
        for g in &mut grads.vecs {
            for v in g {
                *v *= scale;
            }
        }

        // Adam update.
        self.step += 1;
        let (mut mats, mut vecs) = model.trainable_params_mut();
        if self.m_mats.is_empty() {
            self.m_mats = mats
                .iter()
                .map(|m| Matrix::zeros(m.rows(), m.cols()))
                .collect();
            self.v_mats = self.m_mats.clone();
            self.m_vecs = vecs.iter().map(|v| vec![0.0; v.len()]).collect();
            self.v_vecs = self.m_vecs.clone();
        }
        let bc1 = 1.0 - self.beta1.powi(self.step as i32);
        let bc2 = 1.0 - self.beta2.powi(self.step as i32);
        for ((p, g), (m, v)) in mats
            .iter_mut()
            .zip(&grads.mats)
            .zip(self.m_mats.iter_mut().zip(self.v_mats.iter_mut()))
        {
            for i in 0..p.data().len() {
                let gi = g.data()[i];
                m.data_mut()[i] = self.beta1 * m.data()[i] + (1.0 - self.beta1) * gi;
                v.data_mut()[i] = self.beta2 * v.data()[i] + (1.0 - self.beta2) * gi * gi;
                let mhat = m.data()[i] / bc1;
                let vhat = v.data()[i] / bc2;
                p.data_mut()[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
        for ((p, g), (m, v)) in vecs
            .iter_mut()
            .zip(&grads.vecs)
            .zip(self.m_vecs.iter_mut().zip(self.v_vecs.iter_mut()))
        {
            for i in 0..p.len() {
                let gi = g[i];
                m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * gi;
                v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * gi * gi;
                let mhat = m[i] / bc1;
                let vhat = v[i] / bc2;
                p[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
        total_loss / batch.len() as f32
    }
}

/// Backward pass accumulating into `grads` (must match the parameter
/// order: embedding, then per block [wq wk wv wo w1 w2] mats and [b1 b2]
/// vecs, then classifier mat + bias vec).
fn backward(model: &Model, cache: &ForwardCache, dlogits: &[f32], grads: &mut Grads) {
    let cfg = model.config();
    let heads = cfg.heads;
    let d = cfg.head_dim();
    let scale = 1.0 / (d as f32).sqrt();
    let n_blocks = model.blocks().len();
    let rows = cache.final_x.rows();

    // Gradient index layout.
    let mat_idx_embed = 0usize;
    let mat_idx_block = |b: usize| 1 + b * 6; // wq wk wv wo w1 w2
    let mat_idx_cls = 1 + n_blocks * 6;
    let vec_idx_block = |b: usize| b * 2; // b1 b2
    let vec_idx_cls = n_blocks * 2;

    // Classifier.
    let (cls_w, _cls_b) = model_classifier_ref(model);
    let pooled = Matrix::from_vec(1, cfg.hidden, cache.pooled.clone());
    let dl = Matrix::from_vec(1, dlogits.len(), dlogits.to_vec());
    grads.mats[mat_idx_cls].add_assign(&pooled.matmul_tn(&dl));
    for (g, &dv) in grads.vecs[vec_idx_cls].iter_mut().zip(dlogits) {
        *g += dv;
    }
    let dpooled = dl.matmul_nt(cls_w); // 1 × hidden

    // Mean pool backward: every row receives dpooled / rows.
    let mut dx = Matrix::zeros(rows, cfg.hidden);
    for r in 0..rows {
        for c in 0..cfg.hidden {
            dx.set(r, c, dpooled.get(0, c) / rows as f32);
        }
    }

    // Blocks in reverse.
    for b in (0..n_blocks).rev() {
        let bc = &cache.blocks[b];
        let block = &model.blocks()[b];
        let (wq, wk, wv, wo) = block.attention().weights();
        let (w1, _b1, w2, _b2) = block.ffn_weights_ref();

        // ln2 backward.
        let d_ffn_residual = layer_norm_backward(&dx, &bc.ln2);
        // residual: d_mid gets a copy; FFN path gets the same.
        let mut d_mid = d_ffn_residual.clone();

        // FFN backward: ffn_out = gelu(mid·w1 + b1)·w2 + b2.
        let d_ffn_out = &d_ffn_residual;
        grads.mats[mat_idx_block(b) + 5].add_assign(&bc.ffn_act.matmul_tn(d_ffn_out)); // w2
        for c in 0..cfg.hidden {
            let mut s = 0.0;
            for r in 0..rows {
                s += d_ffn_out.get(r, c);
            }
            grads.vecs[vec_idx_block(b) + 1][c] += s; // b2
        }
        let mut d_act = d_ffn_out.matmul_nt(w2);
        for (i, v) in d_act.data_mut().iter_mut().enumerate() {
            *v *= gelu_grad(bc.ffn_pre.data()[i]);
        }
        grads.mats[mat_idx_block(b) + 4].add_assign(&bc.mid.matmul_tn(&d_act)); // w1
        for c in 0..cfg.ffn {
            let mut s = 0.0;
            for r in 0..rows {
                s += d_act.get(r, c);
            }
            grads.vecs[vec_idx_block(b)][c] += s; // b1
        }
        d_mid.add_assign(&d_act.matmul_nt(w1));

        // ln1 backward.
        let d_attn_residual = layer_norm_backward(&d_mid, &bc.ln1);
        let mut dx_block = d_attn_residual.clone(); // residual into x

        // attn_out = concat · wo.
        grads.mats[mat_idx_block(b) + 3].add_assign(&bc.concat.matmul_tn(&d_attn_residual)); // wo
        let d_concat = d_attn_residual.matmul_nt(wo);

        // Per-head attention backward.
        let mut dq = Matrix::zeros(rows, cfg.hidden);
        let mut dk = Matrix::zeros(rows, cfg.hidden);
        let mut dv = Matrix::zeros(rows, cfg.hidden);
        for h in 0..heads {
            let de = d_concat.slice_cols(h * d, d);
            let p = &bc.probs[h];
            let vh = bc.v.slice_cols(h * d, d);
            let kh = bc.k.slice_cols(h * d, d);
            let qh = bc.q.slice_cols(h * d, d);

            // e = p · vh
            let dp = de.matmul_nt(&vh);
            let dvh = p.matmul_tn(&de);
            let mut ds = softmax_backward(&dp, p);
            ds.scale_assign(scale);
            // s = qh · khᵀ
            let dqh = ds.matmul(&kh);
            let dkh = ds.matmul_tn(&qh);
            dq.write_cols(h * d, &dqh);
            dk.write_cols(h * d, &dkh);
            dv.write_cols(h * d, &dvh);
        }

        // q = x·wq etc.
        grads.mats[mat_idx_block(b)].add_assign(&bc.x.matmul_tn(&dq)); // wq
        grads.mats[mat_idx_block(b) + 1].add_assign(&bc.x.matmul_tn(&dk)); // wk
        grads.mats[mat_idx_block(b) + 2].add_assign(&bc.x.matmul_tn(&dv)); // wv
        dx_block.add_assign(&dq.matmul_nt(wq));
        dx_block.add_assign(&dk.matmul_nt(wk));
        dx_block.add_assign(&dv.matmul_nt(wv));

        dx = dx_block;
    }

    // Embedding rows (token + position share dx; positions are frozen).
    let _ = &cache.x0;
    for (r, &tok) in cache.tokens.iter().enumerate() {
        for c in 0..cfg.hidden {
            let cur = grads.mats[mat_idx_embed].get(tok, c) + dx.get(r, c);
            grads.mats[mat_idx_embed].set(tok, c, cur);
        }
    }
}

/// Classification accuracy of `model` on `dataset`, running each example
/// through `make_observer()` (pass a pruning observer to measure pruned
/// accuracy, or [`crate::observer::NoPruning`] for the dense baseline).
pub fn evaluate<O, F>(model: &Model, dataset: &[(Vec<usize>, usize)], mut make_observer: F) -> f32
where
    O: AttentionObserver,
    F: FnMut() -> O,
{
    assert!(!dataset.is_empty(), "empty dataset");
    let mut correct = 0usize;
    for (tokens, label) in dataset {
        let mut obs = make_observer();
        let out = model.forward(tokens, &mut obs);
        if argmax(&out.logits) == *label {
            correct += 1;
        }
    }
    correct as f32 / dataset.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModelConfig, ModelKind};
    use crate::observer::NoPruning;

    fn tiny_setup() -> (Model, SyntheticTask) {
        let cfg = ModelConfig::tiny(ModelKind::Bert).with_vocab(32);
        let task = SyntheticTask {
            vocab: 32,
            n_classes: 2,
            keywords_per_class: 3,
            seq_len: 12,
            keywords_per_example: 2,
            distractors_per_example: 0,
        };
        let model = Model::new_classifier(cfg, 64, task.n_classes, 9);
        (model, task)
    }

    #[test]
    fn task_plants_requested_keywords() {
        let (_, task) = tiny_setup();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let (tokens, label) = task.sample(&mut rng);
            assert_eq!(tokens.len(), task.seq_len);
            let kws: Vec<usize> = tokens
                .iter()
                .copied()
                .filter(|&t| task.is_keyword(t))
                .collect();
            assert_eq!(kws.len(), task.keywords_per_example);
            for kw in kws {
                assert_eq!(kw / task.keywords_per_class, label);
            }
        }
    }

    #[test]
    fn training_reduces_loss() {
        let (mut model, task) = tiny_setup();
        let data = task.sample_many(64, 11);
        let mut trainer = Trainer::new(3e-3);
        let first = trainer.train_batch(&mut model, &data[..16]);
        let mut last = first;
        for epoch in 0..30 {
            for chunk in data.chunks(16) {
                last = trainer.train_batch(&mut model, chunk);
            }
            let _ = epoch;
        }
        assert!(
            last < first * 0.7,
            "loss did not fall: first {first}, last {last}"
        );
    }

    #[test]
    fn trained_model_beats_chance() {
        let (mut model, task) = tiny_setup();
        let train = task.sample_many(256, 21);
        let test = task.sample_many(128, 22);
        let mut trainer = Trainer::new(3e-3);
        for _ in 0..12 {
            for chunk in train.chunks(16) {
                trainer.train_batch(&mut model, chunk);
            }
        }
        let acc = evaluate(&model, &test, || NoPruning);
        assert!(acc > 0.8, "accuracy only {acc}");
    }

    #[test]
    fn gradient_matches_finite_difference_on_classifier() {
        let (mut model, task) = tiny_setup();
        let mut rng = StdRng::seed_from_u64(33);
        let (tokens, label) = task.sample(&mut rng);

        // Analytic gradient of the classifier weight (0,0).
        let (logits, cache) = forward_cached(&model, &tokens);
        let (_, dlogits) = cross_entropy_with_grad(&logits, label);
        let mut grads = Grads::zeros_like(&mut model);
        backward(&model, &cache, &dlogits, &mut grads);
        let analytic = *grads.mats.last().unwrap().data().first().unwrap();

        // Finite difference.
        let h = 5e-3f32;
        let loss_at = |m: &Model| {
            let (lg, _) = forward_cached(m, &tokens);
            cross_entropy_with_grad(&lg, label).0
        };
        let mut mp = model.clone();
        if let Some((c, _)) = mp.classifier_mut() {
            let v = c.get(0, 0);
            c.set(0, 0, v + h);
        }
        let lp = loss_at(&mp);
        let mut mm = model.clone();
        if let Some((c, _)) = mm.classifier_mut() {
            let v = c.get(0, 0);
            c.set(0, 0, v - h);
        }
        let lm = loss_at(&mm);
        let fd = (lp - lm) / (2.0 * h);
        assert!(
            (analytic - fd).abs() < 0.05 * fd.abs().max(1e-2),
            "analytic {analytic} vs fd {fd}"
        );
    }

    #[test]
    fn gradient_matches_finite_difference_on_attention_weight() {
        let (mut model, task) = tiny_setup();
        let mut rng = StdRng::seed_from_u64(44);
        let (tokens, label) = task.sample(&mut rng);

        let (logits, cache) = forward_cached(&model, &tokens);
        let (_, dlogits) = cross_entropy_with_grad(&logits, label);
        let mut grads = Grads::zeros_like(&mut model);
        backward(&model, &cache, &dlogits, &mut grads);
        let analytic = grads.mats[1].get(1, 1); // block 0 wq

        let h = 5e-3f32;
        let loss_with_wq = |model: &Model, delta: f32| {
            let mut m = model.clone();
            let (wq, _, _, _) = m.blocks_mut()[0].attention_mut().weights_mut();
            let v = wq.get(1, 1);
            wq.set(1, 1, v + delta);
            let (lg, _) = forward_cached(&m, &tokens);
            cross_entropy_with_grad(&lg, label).0
        };
        let fd = (loss_with_wq(&model, h) - loss_with_wq(&model, -h)) / (2.0 * h);
        assert!(
            (analytic - fd).abs() < 0.1 * fd.abs().max(1e-2),
            "analytic {analytic} vs fd {fd}"
        );
    }
}
