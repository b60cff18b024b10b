//! Per-layer tracing from outside the program.
//!
//! [`Traced`] decorates the engine's public seams — the [`FleetCost`]
//! oracle and the routing, admission, batching and preemption policies —
//! and the benchmark passes the decorated values to `FleetEngine::new`.
//! Every decorated call, and every engine call the benchmark makes
//! itself, opens a span on one shared [`Tracer`]. A span's *self time* is
//! its duration minus the spans opened inside it: a router that prices
//! jobs through the cost oracle is charged for routing only, and the
//! engine's `inject`/`step` spans keep what is left once every seam and
//! cost call is removed — the event heap, dispatch, the KV pager and the
//! handoff path.
//!
//! Every span is counted, but reading the clock costs tens of
//! nanoseconds and the hot seams run millions of times, so seam and cost
//! spans are timed on a deterministic random sample. The outermost seam
//! or cost span inside an engine span is timed with probability
//! 1 / [`SAMPLE_EVERY`], and the spans nested in it follow its draw, so
//! the self time of a timed span is exact. Each timed span stands for
//! the spans it represents (its time is weighted by the inverse of its
//! sampling probability), which keeps every self-time total unbiased.
//! Engine and report spans, and every cost call that misses the memo,
//! are always timed. What tracing itself costs — a timed span inside
//! its own window and outside it in its parent's, an untimed span in its
//! parent's — is measured on empty spans whenever a tracer is made, and
//! taken off the enclosing spans before any duration is scaled up. A
//! layer whose calls last about as long as a clock read (tens of
//! nanoseconds: memo hits, admission checks) is then at the clock's
//! resolution, and its self time can read a little below zero.
//!
//! Cost calls are matched against the memo keys `CostModel` forms
//! (chip-configuration shard, workload class, bucketed length), so the
//! first call per key — a memo miss on a cold oracle — is counted and
//! timed apart. The tracer's own bookkeeping lands in the calling span's
//! self time; `tracing.overhead_frac` reports what it costs in total.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::time::Instant;

use spatten_core::{SpAttenConfig, StepCost};
use spatten_serve::{
    Admission, AdmissionPolicy, BatchPolicy, CfgKey, ChipCapacity, ChipLoad, ClassKey, FleetCost,
    Job, PendingQueue, PreemptionPolicy, ResidentView, RoundStep, RoutingPolicy, VictimView,
    CTX_BUCKET,
};
use spatten_workloads::Workload;

/// The layers a span is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `FleetEngine::inject` / `step_until` / `step` / `load_closed`.
    Engine,
    /// `RoutingPolicy::route`.
    Route,
    /// `AdmissionPolicy::admit`.
    Admit,
    /// `BatchPolicy::plan`.
    Batch,
    /// `PreemptionPolicy::victims`.
    Preempt,
    /// Every `FleetCost` method.
    Cost,
    /// `FleetEngine::drain` once no events remain: building the report.
    Report,
}

const LAYERS: usize = 7;

/// Seam and cost spans are timed with probability `1 / SAMPLE_EVERY`.
pub const SAMPLE_EVERY: u64 = 8;

impl Layer {
    /// Whether this layer's spans are sampled rather than all timed.
    fn sampled(self) -> bool {
        !matches!(self, Layer::Engine | Layer::Report)
    }
}

/// The `FleetCost` methods `CostModel` implements itself. The composite
/// methods (`job_serial_on`, `first_token_on`, `job_footprint_on`,
/// `handoff_cycles_on`) keep their trait defaults in [`Traced`], exactly
/// as in `CostModel`, so each of their memo lookups is seen here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    Prefill,
    Decode,
    Footprint,
    Budget,
    Swap,
    RawKv,
    SwapBytes,
    WeightLoad,
    NoteBatch,
}

impl Method {
    /// Every method, in report order.
    pub const ALL: [Method; 9] = [
        Method::Prefill,
        Method::Decode,
        Method::Footprint,
        Method::Budget,
        Method::Swap,
        Method::RawKv,
        Method::SwapBytes,
        Method::WeightLoad,
        Method::NoteBatch,
    ];

    /// The trait method's name.
    pub fn name(self) -> &'static str {
        match self {
            Method::Prefill => "prefill_on",
            Method::Decode => "decode_on",
            Method::Footprint => "footprint_on",
            Method::Budget => "budget_on",
            Method::Swap => "swap_cycles_on",
            Method::RawKv => "raw_kv_bytes_on",
            Method::SwapBytes => "swap_bytes_cycles_on",
            Method::WeightLoad => "weight_load_cycles_on",
            Method::NoteBatch => "note_batch",
        }
    }
}

/// The length index `CostModel` memoizes `method` under for a length
/// argument `len` (prefill: `seq_len`; decode: context; footprint: the
/// maximum context; swap and raw KV: tokens), or `None` where the call is
/// not memoized.
pub fn memo_index(method: Method, len: usize) -> Option<u64> {
    let len64 = len as u64;
    match method {
        Method::Prefill | Method::Footprint => Some(len64),
        Method::Decode => Some(len.max(1).div_ceil(CTX_BUCKET) as u64),
        Method::Swap => (len > 0).then(|| len.div_ceil(CTX_BUCKET) as u64),
        Method::RawKv => (len > 0).then_some(len64),
        Method::WeightLoad => Some(0),
        Method::Budget | Method::SwapBytes | Method::NoteBatch => None,
    }
}

/// Whether `a` and `b` share a [`ClassKey`], without building one: the
/// same fields, floats compared by bit pattern.
fn same_class(a: &Workload, b: &Workload) -> bool {
    let (p, q) = (&a.pruning, &b.pruning);
    p.token_avg_keep.to_bits() == q.token_avg_keep.to_bits()
        && p.head_avg_keep.to_bits() == q.head_avg_keep.to_bits()
        && p.token_front_frac.to_bits() == q.token_front_frac.to_bits()
        && p.head_front_frac.to_bits() == q.head_front_frac.to_bits()
        && p.local_value_keep.to_bits() == q.local_value_keep.to_bits()
        && a.quant.scheme == b.quant.scheme
        && a.quant.progressive == b.quant.progressive
        && a.quant.lsb_threshold.to_bits() == b.quant.lsb_threshold.to_bits()
        && a.model == b.model
        && a.name == b.name
}

/// Dense ids for workload classes. Identity is [`ClassKey::of`];
/// [`same_class`] only spares the allocation on repeat lookups.
#[derive(Default)]
struct Classes {
    exemplars: Vec<Workload>,
    keys: Vec<ClassKey>,
    last: usize,
}

impl Classes {
    fn id(&mut self, w: &Workload) -> u32 {
        if !self
            .exemplars
            .get(self.last)
            .is_some_and(|e| same_class(e, w))
        {
            self.last = match self.exemplars.iter().position(|e| same_class(e, w)) {
                Some(i) => i,
                None => {
                    let key = ClassKey::of(w);
                    self.keys.iter().position(|k| *k == key).unwrap_or_else(|| {
                        self.keys.push(key);
                        self.exemplars.push(w.clone());
                        self.keys.len() - 1
                    })
                }
            };
        }
        self.last as u32
    }
}

/// Totals of one traced run. Counts are exact and must repeat across
/// runs of the same inputs; times are wall nanoseconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    /// Spans closed, per [`Layer`].
    pub calls: [u64; LAYERS],
    /// Estimated self time, per [`Layer`].
    pub self_ns: [f64; LAYERS],
    /// Cost calls, per [`Method`].
    pub cost_calls: [u64; 9],
    /// Cost calls `CostModel` answers from its memo (or fills it on).
    pub memo_calls: u64,
    /// Memoized calls that were the first for their key.
    pub cold_calls: u64,
    /// Wall time of those first calls.
    pub cold_ns: f64,
}

impl Ledger {
    /// Spans closed in `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Self seconds of `layer`.
    pub fn self_s(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] * 1e-9
    }

    /// The counts alone, for exact comparison across runs.
    pub fn counts(&self) -> (Vec<u64>, u64, u64) {
        let mut calls = self.calls.to_vec();
        calls.extend_from_slice(&self.cost_calls);
        (calls, self.memo_calls, self.cold_calls)
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Ledger) {
        for i in 0..LAYERS {
            self.calls[i] += other.calls[i];
            self.self_ns[i] += other.self_ns[i];
        }
        for (a, b) in self.cost_calls.iter_mut().zip(other.cost_calls) {
            *a += b;
        }
        self.memo_calls += other.memo_calls;
        self.cold_calls += other.cold_calls;
        self.cold_ns += other.cold_ns;
    }
}

/// An open span, timed if `start` is set. `weight` is the inverse of
/// the probability it was timed; `up` scales its work into its parent's
/// estimate of child work, `child_ns`, which the parent's self time
/// excludes. `overhead_ns` is what tracing the spans nested in it cost
/// inside its window. `sampled` spans pass their draw on to nested spans.
struct Frame {
    start: Option<Instant>,
    weight: f64,
    up: f64,
    child_ns: f64,
    overhead_ns: f64,
    sampled: bool,
}

/// Memo keys touched so far: one row of length slots per (class,
/// method, shard), grown on demand like `CostModel`'s own tables.
#[derive(Default)]
struct Seen {
    rows: Vec<Vec<bool>>,
}

impl Seen {
    /// Marks a key; `true` if it was not marked before.
    fn insert(&mut self, row: usize, idx: u64) -> bool {
        if self.rows.len() <= row {
            self.rows.resize_with(row + 1, Vec::new);
        }
        let slots = &mut self.rows[row];
        let idx = idx as usize;
        if slots.len() <= idx {
            slots.resize(idx + 1, false);
        }
        !std::mem::replace(&mut slots[idx], true)
    }
}

struct State {
    stack: Vec<Frame>,
    ledger: Ledger,
    chip_shard: Vec<u32>,
    shards: u32,
    classes: Classes,
    seen: Seen,
    /// xorshift64 state of the sampler; fixed, so the same inputs time
    /// the same spans.
    rng: u64,
    /// Whether sampled spans may be timed at all (off only to measure
    /// what an untimed span costs).
    sampling: bool,
}

impl State {
    /// Draws whether the next sampled span is timed.
    fn sample(&mut self) -> bool {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.sampling && self.rng.is_multiple_of(SAMPLE_EVERY)
    }

    /// Records a memoized call's key; `true` if it is the first.
    fn first_touch(&mut self, method: Method, chip: usize, w: &Workload, idx: u64) -> bool {
        // A single-configuration oracle prices every chip index alike.
        let shard = self.chip_shard.get(chip).copied().unwrap_or(0);
        let class = self.classes.id(w);
        self.seen.insert(self.row(class, method, shard), idx)
    }

    fn row(&self, class: u32, method: Method, shard: u32) -> usize {
        (class as usize * Method::ALL.len() + method as usize) * self.shards as usize
            + shard as usize
    }
}

/// The span stack and ledger shared by every decorator of one engine.
pub struct Tracer {
    state: RefCell<State>,
    cost: SpanCost,
}

/// Nanoseconds tracing adds to the measurement: a timed span inside its
/// own window and outside it in its parent's, and an untimed span in its
/// parent's.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanCost {
    pub inside_ns: f64,
    pub outside_ns: f64,
    pub untimed_ns: f64,
}

impl SpanCost {
    /// The best of a few batches of empty spans in a timed parent.
    fn measure() -> Self {
        {
            const SPANS: usize = 5_000;
            let per_span = |t: &Tracer, layer: Layer| {
                t.span(Layer::Engine, || {
                    for _ in 0..SPANS {
                        t.span(layer, || ());
                    }
                });
                let l = t.ledger();
                let ns = |layer: Layer| l.self_ns[layer as usize] / SPANS as f64;
                (ns(layer), ns(Layer::Engine))
            };
            let mut best = [f64::INFINITY; 3];
            for _ in 0..3 {
                let timed = per_span(&Tracer::with_cost(&[], SpanCost::default()), Layer::Report);
                let t = Tracer::with_cost(&[], SpanCost::default());
                t.state.borrow_mut().sampling = false;
                let (_, untimed) = per_span(&t, Layer::Route);
                for (b, v) in best.iter_mut().zip([timed.0, timed.1, untimed]) {
                    *b = b.min(v);
                }
            }
            SpanCost {
                inside_ns: best[0],
                outside_ns: best[1],
                untimed_ns: best[2],
            }
        }
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer").finish_non_exhaustive()
    }
}

impl Tracer {
    /// A tracer for an oracle over `chip_cfgs` (one entry per chip, or a
    /// single entry pricing every chip). Chips with identical
    /// configurations share memo keys, as they share `CostModel` shards.
    pub fn new(chip_cfgs: &[SpAttenConfig]) -> Rc<Self> {
        Rc::new(Self::with_cost(chip_cfgs, SpanCost::measure()))
    }

    /// What tracing was measured to cost when this tracer was made.
    pub fn span_cost(&self) -> SpanCost {
        self.cost
    }

    fn with_cost(chip_cfgs: &[SpAttenConfig], cost: SpanCost) -> Self {
        let mut shard_keys: Vec<CfgKey> = Vec::new();
        let chip_shard = chip_cfgs
            .iter()
            .map(|cfg| {
                let key = CfgKey::of(cfg);
                let shard = shard_keys
                    .iter()
                    .position(|k| *k == key)
                    .unwrap_or_else(|| {
                        shard_keys.push(key);
                        shard_keys.len() - 1
                    });
                shard as u32
            })
            .collect();
        Self {
            state: RefCell::new(State {
                stack: Vec::new(),
                ledger: Ledger::default(),
                chip_shard,
                shards: shard_keys.len() as u32,
                classes: Classes::default(),
                seen: Seen::default(),
                rng: 0x9E37_79B9_7F4A_7C15,
                sampling: true,
            }),
            cost,
        }
    }

    /// Marks the memo keys `CostModel::prewarm` fills for `jobs` as
    /// already touched: every shard's prefill at each `seq_len`, and each
    /// decode bucket a job's generation range reaches.
    pub fn mark_prewarmed<'a>(&self, jobs: impl Iterator<Item = &'a Workload>) {
        let mut s = self.state.borrow_mut();
        let s = &mut *s;
        for w in jobs {
            let class = s.classes.id(w);
            for shard in 0..s.shards {
                let row = s.row(class, Method::Prefill, shard);
                s.seen.insert(row, w.seq_len as u64);
                let row = s.row(class, Method::Decode, shard);
                for ctx in w.seq_len..=w.seq_len + w.gen_steps {
                    let idx = memo_index(Method::Decode, ctx).expect("decode is memoized");
                    s.seen.insert(row, idx);
                }
            }
        }
    }

    /// Runs `f` inside a span charged to `layer`.
    pub fn span<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        self.open(layer, false);
        let r = f();
        self.close(layer);
        r
    }

    /// Runs the cost call `f` inside a [`Layer::Cost`] span. `memo` names
    /// the chip, workload and length the call is memoized under.
    fn cost<R>(
        &self,
        method: Method,
        memo: Option<(usize, &Workload, usize)>,
        f: impl FnOnce() -> R,
    ) -> R {
        let first = {
            let mut s = self.state.borrow_mut();
            s.ledger.cost_calls[method as usize] += 1;
            match memo.and_then(|(chip, w, len)| Some((chip, w, memo_index(method, len)?))) {
                Some((chip, w, idx)) => {
                    s.ledger.memo_calls += 1;
                    s.first_touch(method, chip, w, idx)
                }
                None => false,
            }
        };
        self.open(Layer::Cost, first);
        let r = f();
        let work = self.close(Layer::Cost);
        if first {
            let mut s = self.state.borrow_mut();
            s.ledger.cold_calls += 1;
            s.ledger.cold_ns += work.expect("cold calls are timed");
        }
        r
    }

    /// Opens a span of `layer`. Engine and report spans, and `always`
    /// spans, are timed; a sampled span nested in another follows its
    /// parent's draw; any other sampled span draws.
    fn open(&self, layer: Layer, always: bool) {
        let mut s = self.state.borrow_mut();
        let parent = s
            .stack
            .last()
            .filter(|p| p.sampled)
            .map(|p| (p.start.is_some(), p.weight));
        let (timed, weight, up) = match parent {
            _ if always || !layer.sampled() => (true, 1.0, 1.0),
            Some((timed, weight)) => (timed, weight, 1.0),
            None if s.sample() => (true, SAMPLE_EVERY as f64, SAMPLE_EVERY as f64),
            None => (false, 0.0, 0.0),
        };
        s.stack.push(Frame {
            start: timed.then(Instant::now),
            weight,
            up,
            child_ns: 0.0,
            overhead_ns: 0.0,
            sampled: layer.sampled(),
        });
    }

    /// Closes the innermost span; returns the nanoseconds of work it
    /// timed (its duration less the span's own cost), if it was timed.
    fn close(&self, layer: Layer) -> Option<f64> {
        let mut s = self.state.borrow_mut();
        let frame = s.stack.pop().expect("a span is open");
        s.ledger.calls[layer as usize] += 1;
        let c = self.cost;
        let Some(start) = frame.start else {
            if let Some(parent) = s.stack.last_mut() {
                parent.overhead_ns += frame.overhead_ns + c.untimed_ns;
            }
            return None;
        };
        let work = start.elapsed().as_nanos() as f64 - c.inside_ns - frame.overhead_ns;
        s.ledger.self_ns[layer as usize] += (work - frame.child_ns) * frame.weight;
        if let Some(parent) = s.stack.last_mut() {
            parent.child_ns += work * frame.up;
            parent.overhead_ns += frame.overhead_ns + c.inside_ns + c.outside_ns;
        }
        Some(work)
    }

    /// The totals so far.
    pub fn ledger(&self) -> Ledger {
        self.state.borrow().ledger.clone()
    }
}

/// Runs `f` in a span when tracing, directly otherwise.
pub fn within<R>(tracer: Option<&Tracer>, layer: Layer, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(layer, f),
        None => f(),
    }
}

/// A seam decorated with spans on a shared [`Tracer`]. Forwards every
/// call unchanged, so a traced engine's report equals the untraced one.
#[derive(Debug)]
pub struct Traced<T> {
    inner: T,
    tracer: Rc<Tracer>,
}

impl<T> Traced<T> {
    /// Decorates `inner`.
    pub fn new(inner: T, tracer: &Rc<Tracer>) -> Self {
        Self {
            inner,
            tracer: Rc::clone(tracer),
        }
    }
}

impl<T: RoutingPolicy> RoutingPolicy for Traced<T> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn routes(&self) -> bool {
        self.inner.routes()
    }

    fn route(
        &mut self,
        job: &Job,
        cost: &mut dyn FleetCost,
        loads: &[ChipLoad],
        now: u64,
    ) -> Option<usize> {
        let inner = &mut self.inner;
        self.tracer
            .span(Layer::Route, || inner.route(job, cost, loads, now))
    }
}

impl<T: AdmissionPolicy> AdmissionPolicy for Traced<T> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn admit(
        &mut self,
        queue: &mut PendingQueue,
        cost: &mut dyn FleetCost,
        chip: usize,
        cap: ChipCapacity,
        now: u64,
    ) -> Admission {
        let inner = &mut self.inner;
        self.tracer
            .span(Layer::Admit, || inner.admit(queue, cost, chip, cap, now))
    }
}

impl<T: BatchPolicy> BatchPolicy for Traced<T> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan(&mut self, residents: &[ResidentView]) -> Vec<RoundStep> {
        let inner = &mut self.inner;
        self.tracer.span(Layer::Batch, || inner.plan(residents))
    }

    fn run_to_completion(&self) -> bool {
        self.inner.run_to_completion()
    }
}

impl<T: PreemptionPolicy> PreemptionPolicy for Traced<T> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn may_preempt(&self) -> bool {
        self.inner.may_preempt()
    }

    fn victims(
        &mut self,
        queued: &[&Job],
        residents: &[VictimView],
        cost: &mut dyn FleetCost,
        chip: usize,
        cap: ChipCapacity,
        now: u64,
    ) -> Vec<usize> {
        let inner = &mut self.inner;
        self.tracer.span(Layer::Preempt, || {
            inner.victims(queued, residents, cost, chip, cap, now)
        })
    }
}

impl<C: FleetCost> FleetCost for Traced<C> {
    fn prefill_on(&mut self, chip: usize, w: &Workload) -> StepCost {
        let inner = &mut self.inner;
        self.tracer
            .cost(Method::Prefill, Some((chip, w, w.seq_len)), || {
                inner.prefill_on(chip, w)
            })
    }

    fn decode_on(&mut self, chip: usize, w: &Workload, context: usize) -> StepCost {
        let inner = &mut self.inner;
        self.tracer
            .cost(Method::Decode, Some((chip, w, context)), || {
                inner.decode_on(chip, w, context)
            })
    }

    fn footprint_on(&mut self, chip: usize, w: &Workload) -> u64 {
        let inner = &mut self.inner;
        let max_ctx = w.seq_len + w.gen_steps;
        self.tracer
            .cost(Method::Footprint, Some((chip, w, max_ctx)), || {
                inner.footprint_on(chip, w)
            })
    }

    fn budget_on(&self, chip: usize) -> u64 {
        self.tracer
            .cost(Method::Budget, None, || self.inner.budget_on(chip))
    }

    fn swap_cycles_on(&mut self, chip: usize, w: &Workload, tokens: usize) -> u64 {
        let inner = &mut self.inner;
        self.tracer.cost(Method::Swap, Some((chip, w, tokens)), || {
            inner.swap_cycles_on(chip, w, tokens)
        })
    }

    fn raw_kv_bytes_on(&mut self, chip: usize, w: &Workload, tokens: usize) -> u64 {
        let inner = &mut self.inner;
        self.tracer
            .cost(Method::RawKv, Some((chip, w, tokens)), || {
                inner.raw_kv_bytes_on(chip, w, tokens)
            })
    }

    fn swap_bytes_cycles_on(&mut self, chip: usize, w: &Workload, bytes: u64) -> u64 {
        let inner = &mut self.inner;
        self.tracer.cost(Method::SwapBytes, None, || {
            inner.swap_bytes_cycles_on(chip, w, bytes)
        })
    }

    fn weight_load_cycles_on(&mut self, chip: usize, w: &Workload) -> u64 {
        let inner = &mut self.inner;
        self.tracer
            .cost(Method::WeightLoad, Some((chip, w, 0)), || {
                inner.weight_load_cycles_on(chip, w)
            })
    }

    fn note_batch(&mut self, chip: usize, resident: usize) {
        let inner = &mut self.inner;
        self.tracer
            .cost(Method::NoteBatch, None, || inner.note_batch(chip, resident))
    }

    fn prewarm(&mut self, jobs: &mut dyn Iterator<Item = &Workload>, threads: usize) {
        self.inner.prewarm(jobs, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatten_serve::CostModel;
    use spatten_workloads::spec::PruningSpec;
    use spatten_workloads::Benchmark;

    #[test]
    fn memo_index_buckets_like_the_cost_model() {
        // Decode contexts share a bucket within CTX_BUCKET tokens; the
        // zero context is priced as one token.
        assert_eq!(CTX_BUCKET, 16);
        assert_eq!(memo_index(Method::Decode, 0), memo_index(Method::Decode, 1));
        assert_eq!(
            memo_index(Method::Decode, 1),
            memo_index(Method::Decode, 16)
        );
        assert_ne!(
            memo_index(Method::Decode, 16),
            memo_index(Method::Decode, 17)
        );
        assert_eq!(memo_index(Method::Swap, 17), memo_index(Method::Swap, 32));
        // Prefill, footprint and raw KV are keyed by exact length.
        assert_ne!(
            memo_index(Method::Prefill, 64),
            memo_index(Method::Prefill, 65)
        );
        assert_ne!(memo_index(Method::RawKv, 64), memo_index(Method::RawKv, 65));
        // Zero-token swaps and raw-KV queries return early, unmemoized.
        assert_eq!(memo_index(Method::Swap, 0), None);
        assert_eq!(memo_index(Method::RawKv, 0), None);
        assert_eq!(memo_index(Method::WeightLoad, 999), Some(0));
        assert_eq!(memo_index(Method::Budget, 1), None);
    }

    #[test]
    fn same_bucket_means_same_price() {
        // The bucketing above is the one the oracle prices by: contexts
        // sharing an index get the memoized price of the first.
        let mut cost = CostModel::end_to_end(SpAttenConfig::default(), 8);
        let w = Benchmark::gpt2_small_wikitext2().workload();
        assert_eq!(cost.decode_on(0, &w, 97), cost.decode_on(0, &w, 112));
        assert_ne!(cost.decode_on(0, &w, 112), cost.decode_on(0, &w, 113));
    }

    #[test]
    fn class_identity_follows_class_key() {
        let base = Benchmark::gpt2_small_wikitext2().workload();
        let mut longer = base.clone();
        longer.seq_len += 100;
        longer.seed ^= 1;
        let mut dense = base.clone();
        dense.pruning = PruningSpec::dense();
        let bert = Benchmark::bert_base_sst2().workload();
        for (a, b) in [
            (&base, &longer),
            (&base, &dense),
            (&base, &bert),
            (&dense, &bert),
        ] {
            assert_eq!(same_class(a, b), ClassKey::of(a) == ClassKey::of(b));
        }
        let mut classes = Classes::default();
        let ids: Vec<u32> = [&base, &dense, &longer, &bert, &dense]
            .into_iter()
            .map(|w| classes.id(w))
            .collect();
        assert_eq!(ids, vec![0, 1, 0, 2, 1]);
    }

    #[test]
    fn first_touch_is_per_shard_class_and_bucket() {
        // Two identical Table-I chips share a shard; the eighth-scale
        // chip has its own.
        let cfgs = [
            SpAttenConfig::default(),
            SpAttenConfig::default(),
            SpAttenConfig::eighth(),
        ];
        let tracer = Tracer::new(&cfgs);
        let mut cost = Traced::new(CostModel::heterogeneous(cfgs.to_vec(), Some(8)), &tracer);
        let w = Benchmark::gpt2_small_wikitext2().workload();
        cost.decode_on(0, &w, 100);
        cost.decode_on(1, &w, 110); // same shard, same bucket
        cost.decode_on(2, &w, 100); // new shard
        cost.decode_on(0, &w, 130); // new bucket
        cost.budget_on(0); // not memoized
        let l = tracer.ledger();
        assert_eq!(l.cost_calls[Method::Decode as usize], 4);
        assert_eq!(l.cost_calls[Method::Budget as usize], 1);
        assert_eq!((l.memo_calls, l.cold_calls), (4, 3));
        assert_eq!(l.calls(Layer::Cost), 5);
    }

    #[test]
    fn prewarmed_keys_are_not_cold() {
        let cfg = [SpAttenConfig::default()];
        let tracer = Tracer::new(&cfg);
        let mut w = Benchmark::gpt2_small_wikitext2().workload();
        w.seq_len = 100;
        w.gen_steps = 20;
        tracer.mark_prewarmed(std::iter::once(&w));
        let mut cost = Traced::new(CostModel::end_to_end(cfg[0], 8), &tracer);
        cost.prefill_on(3, &w);
        cost.decode_on(0, &w, 120);
        cost.decode_on(0, &w, 121); // bucket 8 holds 113..=128: warm
        cost.decode_on(0, &w, 129); // beyond the generation range
        assert_eq!(tracer.ledger().cold_calls, 1);
    }

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed() < std::time::Duration::from_micros(us) {}
    }

    #[test]
    fn self_time_excludes_child_spans() {
        let tracer = Tracer::new(&[SpAttenConfig::default()]);
        tracer.span(Layer::Engine, || {
            spin(2_000);
            tracer.span(Layer::Report, || spin(20_000));
        });
        let l = tracer.ledger();
        assert_eq!((l.calls(Layer::Engine), l.calls(Layer::Report)), (1, 1));
        assert!(l.self_s(Layer::Report) >= 0.020);
        assert!(
            l.self_s(Layer::Engine) < 0.015,
            "{}",
            l.self_s(Layer::Engine)
        );
    }

    #[test]
    fn nested_spans_follow_their_parents_draw() {
        // Routing that is all cost calls has (almost) no self time, and
        // sampling must not make it negative.
        let tracer = Tracer::new(&[SpAttenConfig::default()]);
        let mut cost = Traced::new(CostModel::end_to_end(SpAttenConfig::default(), 8), &tracer);
        let w = Benchmark::gpt2_small_wikitext2().workload();
        tracer.span(Layer::Engine, || {
            for _ in 0..2000 {
                tracer.span(Layer::Route, || {
                    for ctx in [64, 80, 96] {
                        cost.decode_on(0, &w, ctx);
                    }
                });
            }
        });
        let l = tracer.ledger();
        assert_eq!((l.calls(Layer::Route), l.calls(Layer::Cost)), (2000, 6000));
        // 2000 spans, each off by at most a few nanoseconds of noise.
        assert!(
            l.self_s(Layer::Route) > -50e-6,
            "{}",
            l.self_s(Layer::Route)
        );
        assert!(l.self_s(Layer::Cost) > 0.0);
    }

    #[test]
    fn sampled_spans_estimate_their_total() {
        // 4000 routing spans of at least 10 µs each: about one in
        // SAMPLE_EVERY is timed, weighted up to stand for the rest, and
        // the engine keeps only its own time.
        let tracer = Tracer::new(&[SpAttenConfig::default()]);
        let t = Instant::now();
        tracer.span(Layer::Engine, || {
            for _ in 0..4000 {
                tracer.span(Layer::Route, || spin(10));
            }
        });
        let wall = t.elapsed().as_secs_f64();
        let l = tracer.ledger();
        assert_eq!(l.calls(Layer::Route), 4000);
        let route = l.self_s(Layer::Route);
        assert!(
            route > 0.8 * 0.040 && route < 1.2 * wall,
            "route {route}, wall {wall}"
        );
        assert!(l.self_s(Layer::Engine).abs() < 0.3 * wall);
    }
}
