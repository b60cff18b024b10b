//! Paged KV allocation with copy-on-write prefix sharing and
//! pruning-aware page reclaim.
//!
//! The contiguous resource model every scheduler layer used until now —
//! one scalar footprint per job, charged against `2 × kv_sram_bytes` —
//! over-reserves twice. First, jobs of the same request class repeat the
//! same system-prompt prefix, and contiguous accounting charges that
//! prefix once *per job*. Second, cascade token pruning retires KV
//! entries as decode proceeds, but a contiguous reservation can never
//! shrink mid-stream. [`KvPager`] fixes both: each chip's KV SRAM budget
//! is carved into fixed-size blocks, each resident job holds a page
//! table, the per-class shared prefix is a single refcounted block run
//! mapped copy-on-write into every sharer's table, and pruning returns
//! whole blocks to the allocator while the job is still decoding.
//!
//! ## The per-job block curve
//!
//! Cascade pruning scores *all* prompt tokens before discarding any, so
//! prefill materializes the **raw** (unpruned) prompt KV; the per-layer
//! cascade then retires non-survivors progressively over early decode
//! steps. [`JobKvNeed::held_bytes`] models this as a curve that starts
//! at the raw prompt working set and ramps linearly down to the pruned
//! final working set (the same [`FleetCost::footprint_on`] value the
//! contiguous model charges) over `min(gen_steps, layers)` decode steps.
//! Admission charges the *peak* of the curve, so a resident job's page
//! count is monotonically non-increasing by construction — there is no
//! mid-stream growth path and therefore no mid-stream OOM path. The
//! capacity win comes from the two releases: shared prefix blocks are
//! charged once per class per chip, and retired blocks return to the
//! free pool while the job still runs.
//!
//! ## The prefix cache
//!
//! A prefix entry is keyed by `(class, shared_prefix_tokens)` and holds
//! the **raw** KV of the shared prompt head (the head is shared *before*
//! pruning individualizes the survivor set). While any sharer is
//! resident the entry is pinned by its refcount; when the last sharer
//! leaves, the entry *persists* as a scored cache line (hits ×
//! last-use), so a later arrival of the same class re-maps it for free.
//! Under memory pressure the allocator evicts cached entries
//! lowest-score-first at block granularity, trimming from the **tail**
//! — a prefix of a prefix is still a valid prefix, and a later hit
//! refills only the missing tail blocks.
//!
//! ## One store per chip
//!
//! Each chip owns a [`ChipKv`]: the contiguous ledger (one
//! [`FleetCost::footprint_on`] reservation per resident job) or a
//! [`KvPager`]. It is the only code that matches on the layout. The chip
//! maps, reclaims and unmaps through it; the engine asks it for free
//! bytes, a handoff target's cold prefix bytes, stats and the drain
//! check; and the seams that price a fit (admission, preemption,
//! stealing) see [`ChipKv::fit_bytes`] as
//! [`FleetCost::job_footprint_on`]. Paged, the fit charge is the job's
//! **admission charge** ([`KvPager::admission_bytes`] — the blocks that
//! would leave the available pool if the job mapped now), and a swap or
//! handoff moves its **unique bytes** (the resident's footprint — shared
//! prefix blocks stay resident). Both are exact block multiples, so
//! admission against [`KvPager::available_bytes`] can never
//! over-commit.
//!
//! ## Residents own their page tables
//!
//! The pager keeps no per-job state. A resident's page table is the
//! [`JobKvNeed`] it was mapped with (the curve in its [`Job::kv_need`]
//! memo, priced for the chip it sits on) plus its unique bytes (the
//! footprint the chip keeps per resident), and [`KvPager::reclaim`] and
//! [`KvPager::unmap_job`] take both. The pager holds only the free pool
//! and the prefix entries, so only the chip can check that residents'
//! unique blocks, prefix blocks and free blocks add up to the total
//! ([`ChipKv::assert_balanced`]).

use crate::cost::FleetCost;
use crate::request::{Job, ResumeState};
use spatten_workloads::Workload;
use std::cell::Cell;

/// The paged allocator's block size: 16 KiB — fine enough that the
/// pruning ramp frees blocks every few decode steps on the default GPT-2
/// class, coarse enough that a page table stays tens of entries long.
pub const KV_BLOCK_BYTES: u64 = 16 * 1024;

/// How a chip's KV SRAM budget is carved up — the `SchedKnobs` knob
/// selecting the layout of every chip's [`ChipKv`]: one contiguous
/// reservation per job (the default), or the paged allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KvSpec {
    /// One contiguous reservation per job (the historical model).
    #[default]
    Contiguous,
    /// Paged allocation in [`KV_BLOCK_BYTES`] blocks with prefix sharing
    /// and pruning-aware reclaim.
    Paged,
}

impl KvSpec {
    /// The paged layout, [`KvSpec::Paged`].
    pub fn paged() -> Self {
        KvSpec::Paged
    }

    /// Report label.
    pub fn name(&self) -> &'static str {
        match self {
            KvSpec::Contiguous => "contiguous",
            KvSpec::Paged => "paged",
        }
    }

    /// Block size in bytes, `None` for the contiguous model.
    pub fn block_bytes(&self) -> Option<u64> {
        match self {
            KvSpec::Contiguous => None,
            KvSpec::Paged => Some(KV_BLOCK_BYTES),
        }
    }
}

/// A prefix cache key: `(request class, effective shared-prefix tokens)`.
///
/// The effective length is `min(shared_prefix_tokens, seq_len)` — a
/// request shorter than its class prefix shares only what it has — so
/// equal keys always describe byte-identical prefixes.
pub type PrefixKey = (usize, usize);

/// The KV demand curve of one job, priced once at admission by the
/// [`FleetCost`] oracle and then evaluated purely per decode step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobKvNeed {
    /// Peak working set: the raw (unpruned) prompt KV, floored at
    /// `final_bytes` (a generation-heavy job's pruned survivor set can
    /// outgrow its raw prompt).
    pub raw_bytes: u64,
    /// Pruned working set at maximum context — the contiguous model's
    /// [`FleetCost::footprint_on`] charge, the curve's floor.
    pub final_bytes: u64,
    /// Raw KV bytes of the effective shared prefix (head of
    /// `raw_bytes`, shared before pruning individualizes survivors).
    pub shared_bytes: u64,
    /// Decode steps the job will run (0 = single-pass).
    pub gen_steps: u64,
    /// Decode steps over which the cascade retires the raw-to-final
    /// overhang: `min(gen_steps, layers)`, at least 1.
    pub horizon: u64,
    /// Prefix cache key, `None` when the job shares nothing.
    pub prefix: Option<PrefixKey>,
}

impl JobKvNeed {
    /// Prices `job`'s curve on `chip` through the cost oracle.
    pub fn of(cost: &mut dyn FleetCost, chip: usize, job: &Job) -> Self {
        let w = &job.workload;
        let final_bytes = cost.footprint_on(chip, w);
        let raw = cost.raw_kv_bytes_on(chip, w, w.seq_len);
        let eff = job.shared_prefix_tokens.min(w.seq_len);
        let shared_bytes = if eff == 0 {
            0
        } else {
            cost.raw_kv_bytes_on(chip, w, eff)
        };
        let prefix = (eff > 0).then_some((job.class, eff));
        if w.gen_steps == 0 {
            // Single-pass jobs stream the prompt once: no decode steps
            // means no retirement ramp, so the charge is flat at the
            // pruned working set (exactly the contiguous charge).
            return Self {
                raw_bytes: final_bytes,
                final_bytes,
                shared_bytes: shared_bytes.min(final_bytes),
                gen_steps: 0,
                horizon: 1,
                prefix,
            };
        }
        let raw_bytes = raw.max(final_bytes);
        Self {
            raw_bytes,
            final_bytes,
            shared_bytes: shared_bytes.min(raw_bytes),
            gen_steps: w.gen_steps as u64,
            horizon: (w.gen_steps.min(w.model.layers) as u64).max(1),
            prefix,
        }
    }

    /// [`JobKvNeed::of`], priced once per job and chip: the need is a
    /// pure function of the chip's oracle and the job's class, workload
    /// and shared-prefix length, none of which change while the job
    /// lives, so it is kept in [`Job::kv_need`] and re-read — a blocked
    /// queue head is fit-checked at every round end of its chip. The
    /// memo holds one chip; a job priced on another chip (a handoff
    /// target, a heterogeneous peer) is priced afresh there.
    pub(crate) fn memoized(cost: &mut dyn FleetCost, chip: usize, job: &Job) -> Self {
        if let Some((memo_chip, need)) = job.kv_need.0.get() {
            if memo_chip == chip {
                debug_assert_eq!(need, Self::of(cost, chip, job), "stale KV need memo");
                return need;
            }
        }
        let need = Self::of(cost, chip, job);
        job.kv_need.0.set(Some((chip, need)));
        need
    }

    /// The curve paged resident `job` was mapped with on `chip`: mapping
    /// prices through the memo ([`JobKvNeed::memoized`]), and nothing
    /// prices a resident on another chip while it stays.
    ///
    /// # Panics
    ///
    /// Panics if the job's memo holds no price for `chip`.
    fn mapped(job: &Job, chip: usize) -> Self {
        match job.kv_need.0.get() {
            Some((memo_chip, need)) if memo_chip == chip => need,
            _ => panic!(
                "job {} holds pages on chip {chip} it was not priced for",
                job.id
            ),
        }
    }

    /// Bytes held after `steps_done` decode steps: starts at
    /// `raw_bytes`, ramps linearly to `final_bytes` over `horizon`
    /// steps, then stays flat. Monotonically non-increasing in
    /// `steps_done` by construction.
    pub fn held_bytes(&self, steps_done: u64) -> u64 {
        let overhang = self.raw_bytes.saturating_sub(self.final_bytes);
        let t = steps_done.min(self.horizon);
        let retired = overhang.saturating_mul(t) / self.horizon;
        (self.raw_bytes - retired).max(self.final_bytes)
    }
}

/// A job's [`JobKvNeed`] as the engine last priced it, and the chip it
/// was priced for; empty (`Default`) until the job's first paged fit
/// check, and opaque outside this crate. It travels with the job and its
/// clones, and takes no part in equality: two jobs are equal whatever
/// they have been priced on.
#[derive(Debug, Clone, Default)]
pub struct KvNeedMemo(Cell<Option<(usize, JobKvNeed)>>);

impl PartialEq for KvNeedMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// One cached (or live) shared prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PrefixEntry {
    key: PrefixKey,
    /// Blocks currently resident (tail-trimming can shrink this below
    /// the full prefix; a later hit refills).
    blocks: u64,
    /// Resident sharers. 0 = cached, reclaimable.
    refcount: u64,
    /// Times a mapping job found this entry resident.
    hits: u64,
    /// Cycle timestamp of the last map/unmap touch (cache score
    /// tiebreak).
    last_use: u64,
}

/// Cumulative page-accounting counters, reported per chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KvStats {
    /// Blocks handed out (job unique + prefix fills).
    pub blocks_allocated: u64,
    /// Blocks returned to the free pool (retire + evict + reclaim +
    /// cache eviction + drain flush).
    pub blocks_freed: u64,
    /// Blocks returned *mid-stream* by the pruning ramp — the subset of
    /// `blocks_freed` no contiguous model could ever release.
    pub blocks_reclaimed: u64,
    /// Prefix map requests served by a resident entry (live or cached).
    pub shared_hits: u64,
    /// Blocks trimmed off cached prefixes under memory pressure.
    pub cache_evicted_blocks: u64,
}

/// Fixed-block KV allocator for one chip: the free pool, refcounted
/// copy-on-write prefix sharing, a scored persistent prefix cache, and
/// pruning-curve reclaim. Residents hold their own page tables (see the
/// module docs).
#[derive(Debug, Clone)]
pub struct KvPager {
    total_blocks: u64,
    free_blocks: u64,
    /// Prefix entries, unordered: a chip holds one per class it has
    /// seen, so a linear scan finds one faster than a hash would.
    prefixes: Vec<PrefixEntry>,
    /// Blocks held by refcount-0 entries of `prefixes`, updated wherever
    /// a refcount crosses zero or the cache is trimmed — every fit check
    /// reads it, so it is kept rather than summed per call.
    cached_blocks: u64,
    /// Cumulative counters.
    pub stats: KvStats,
}

impl KvPager {
    /// A pager over `capacity_bytes` of KV SRAM carved into
    /// [`KV_BLOCK_BYTES`] blocks (at least one block).
    pub fn new(capacity_bytes: u64) -> Self {
        let total_blocks = (capacity_bytes / KV_BLOCK_BYTES).max(1);
        Self {
            total_blocks,
            free_blocks: total_blocks,
            prefixes: Vec::new(),
            cached_blocks: 0,
            stats: KvStats::default(),
        }
    }

    /// Blocks neither mapped by a job nor held by a prefix.
    pub fn free_blocks(&self) -> u64 {
        self.free_blocks
    }

    /// Blocks held by refcount-0 (cached) prefixes — resident but
    /// reclaimable under pressure.
    pub fn cached_blocks(&self) -> u64 {
        debug_assert_eq!(
            self.cached_blocks,
            self.prefixes
                .iter()
                .filter(|e| e.refcount == 0)
                .map(|e| e.blocks)
                .sum::<u64>(),
            "cached-block count out of step with the prefix map"
        );
        self.cached_blocks
    }

    /// Bytes an admission fit-check may assume: the free pool plus
    /// everything the cache would surrender under pressure.
    pub fn available_bytes(&self) -> u64 {
        (self.free_blocks + self.cached_blocks()) * KV_BLOCK_BYTES
    }

    /// Bytes resident (job pages + live and cached prefixes).
    pub fn used_bytes(&self) -> u64 {
        (self.total_blocks - self.free_blocks) * KV_BLOCK_BYTES
    }

    /// Bytes pinned by resident jobs and live prefixes — `used_bytes`
    /// minus the reclaimable refcount-0 cache. This is the chip's
    /// `kv_in_use` under paging: cached prefixes are *not* in use, they
    /// are opportunistically resident.
    pub fn pinned_bytes(&self) -> u64 {
        self.used_bytes() - self.cached_blocks() * KV_BLOCK_BYTES
    }

    /// The entry for prefix `key`, if resident.
    fn entry(&self, key: PrefixKey) -> Option<&PrefixEntry> {
        self.prefixes.iter().find(|e| e.key == key)
    }

    /// Whether residents holding `unique_blocks` unique blocks in all,
    /// the prefix entries and the free pool add up to the pager's total.
    fn balances(&self, unique_blocks: u64) -> bool {
        let prefix: u64 = self.prefixes.iter().map(|e| e.blocks).sum();
        unique_blocks + prefix + self.free_blocks == self.total_blocks
    }

    /// Full-size block count of `need`'s prefix, clamped to capacity.
    fn prefix_blocks(&self, need: &JobKvNeed) -> u64 {
        if need.prefix.is_none() {
            return 0;
        }
        blocks_of(need.shared_bytes).min(self.total_blocks)
    }

    /// How much of `need`'s class prefix is already materialized on this
    /// chip, as `(warm_blocks, total_prefix_blocks)`. Warm blocks hold
    /// KV an earlier sharer (or a persisted cache entry) computed — a
    /// job mapping onto them skips that slice of its prefill pass.
    /// Cache eviction trims entries from the tail, so a partially-warm
    /// prefix covers its *head*: exactly the tokens prefill would
    /// otherwise recompute first.
    pub fn warm_prefix_blocks(&self, need: &JobKvNeed) -> (u64, u64) {
        let total = self.prefix_blocks(need);
        let warm = need
            .prefix
            .and_then(|key| self.entry(key))
            .map_or(0, |e| e.blocks.min(total));
        (warm, total)
    }

    /// Unique blocks `need` holds after `steps_done`, clamped so that
    /// prefix plus unique always fits an empty pager (the contiguous model
    /// clamps footprints to the budget for the same admittability
    /// guarantee).
    fn unique_blocks_at(&self, need: &JobKvNeed, steps_done: u64) -> u64 {
        let prefix = self.prefix_blocks(need);
        blocks_of(need.held_bytes(steps_done))
            .saturating_sub(prefix)
            .min(self.total_blocks - prefix)
    }

    /// The admission charge: blocks that would leave the available pool
    /// if this job mapped now, in bytes. Counts the full prefix when the
    /// entry is absent, only the trimmed tail when it is resident but
    /// shrunk, and nothing when it is resident in full; a cached
    /// (refcount-0) entry's resident blocks are charged too — mapping
    /// pins them, removing them from [`Self::available_bytes`].
    ///
    /// `steps_done` positions a resumed victim on its retirement curve
    /// so re-admission charges what eviction swapped out, not the peak.
    pub fn admission_bytes(&self, need: &JobKvNeed, steps_done: u64) -> u64 {
        let unique = self.unique_blocks_at(need, steps_done);
        let prefix = self.prefix_blocks(need);
        let new_prefix = match need.prefix.and_then(|k| self.entry(k)) {
            // Live entry: sharers pin it already, pay only a missing tail.
            Some(e) if e.refcount > 0 => prefix.saturating_sub(e.blocks),
            // Cached entry: its resident blocks leave the reclaimable
            // pool on map, so the charge against `available_bytes` is
            // the full prefix (resident part re-pinned + tail refilled).
            Some(_) => prefix,
            None => prefix,
        };
        (unique + new_prefix) * KV_BLOCK_BYTES
    }

    /// Frees `n` blocks for allocation, evicting cached prefixes
    /// lowest-score-first (fewest hits, then oldest touch), trimming
    /// from each victim's tail at block granularity. `protect` is never
    /// evicted — a job must not reclaim its own prefix to admit itself.
    ///
    /// # Panics
    ///
    /// Panics if the pager cannot supply `n` blocks — the admission
    /// charge is exact, so this is an accounting bug, not load.
    fn alloc(&mut self, n: u64, protect: Option<PrefixKey>) {
        while self.free_blocks < n {
            // `(hits, last_use, key)` is a total order (keys are unique),
            // so the victim does not depend on the entries' order.
            let victim = self
                .prefixes
                .iter()
                .enumerate()
                .filter(|(_, e)| e.refcount == 0 && e.blocks > 0 && Some(e.key) != protect)
                .min_by_key(|(_, e)| (e.hits, e.last_use, e.key))
                .map(|(i, _)| i);
            let Some(i) = victim else {
                panic!(
                    "KvPager over-committed: need {n} blocks, {} free, nothing cached",
                    self.free_blocks
                );
            };
            let entry = &mut self.prefixes[i];
            let trim = entry.blocks.min(n - self.free_blocks);
            entry.blocks -= trim;
            if entry.blocks == 0 {
                self.prefixes.swap_remove(i);
            }
            self.cached_blocks -= trim;
            self.free_blocks += trim;
            self.stats.blocks_freed += trim;
            self.stats.cache_evicted_blocks += trim;
        }
        self.free_blocks -= n;
        self.stats.blocks_allocated += n;
    }

    /// Maps a job with curve `need` at curve position `steps_done`: pins
    /// (and tail-refills) or creates its shared prefix entry, allocates
    /// its unique blocks, and returns its unique bytes — the number the
    /// chip records as the resident footprint, the number preemption
    /// would swap, and the other half of the job's page table.
    ///
    /// # Panics
    ///
    /// Panics if the charge was never fit-checked (see `Self::alloc`).
    pub fn map_job(&mut self, need: &JobKvNeed, steps_done: u64, now: u64) -> u64 {
        let prefix = self.prefix_blocks(need);
        let unique = self.unique_blocks_at(need, steps_done);
        if let Some(key) = need.prefix {
            let missing = prefix.saturating_sub(self.entry(key).map_or(0, |e| e.blocks));
            if missing > 0 {
                self.alloc(missing, Some(key));
            }
            // Looked up after `alloc`: eviction may move entries.
            let i = match self.prefixes.iter().position(|e| e.key == key) {
                Some(i) => i,
                None => {
                    self.prefixes.push(PrefixEntry {
                        key,
                        blocks: 0,
                        refcount: 0,
                        hits: 0,
                        // One extra hit below would miscount creation as a hit.
                        last_use: now,
                    });
                    self.prefixes.len() - 1
                }
            };
            let entry = &mut self.prefixes[i];
            if entry.refcount > 0 || entry.blocks > 0 {
                entry.hits += 1;
                self.stats.shared_hits += 1;
            }
            if entry.refcount == 0 {
                // Pinning a cached entry takes its blocks out of the cache.
                self.cached_blocks -= entry.blocks;
            }
            entry.blocks += missing;
            entry.refcount += 1;
            entry.last_use = now;
        }
        self.alloc(unique, need.prefix);
        unique * KV_BLOCK_BYTES
    }

    /// Advances a job with curve `need` holding `unique_bytes` to curve
    /// position `steps_done`, returning freed blocks to the pool
    /// (pruning-aware reclaim). Returns the job's unique bytes after
    /// reclaim. Page count is monotonically non-increasing: the curve
    /// never rises and growth is never allocated here. Past the curve's
    /// `horizon` it is flat, so the step before freed all that this one
    /// could, and this returns `unique_bytes` at once.
    pub fn reclaim(&mut self, need: &JobKvNeed, unique_bytes: u64, steps_done: u64) -> u64 {
        if steps_done > need.horizon {
            return unique_bytes;
        }
        let held = unique_bytes / KV_BLOCK_BYTES;
        let target = self.unique_blocks_at(need, steps_done);
        if target >= held {
            return unique_bytes;
        }
        let freed = held - target;
        self.free_blocks += freed;
        self.stats.blocks_freed += freed;
        self.stats.blocks_reclaimed += freed;
        target * KV_BLOCK_BYTES
    }

    /// Releases the pages of a job with curve `need` holding
    /// `unique_bytes`: unique blocks return to the pool, the prefix
    /// refcount drops — at zero the entry *stays resident* as a scored
    /// cache line for the next sharer.
    ///
    /// # Panics
    ///
    /// Panics if the job's prefix entry is not resident or not pinned.
    pub fn unmap_job(&mut self, need: &JobKvNeed, unique_bytes: u64, now: u64) {
        let unique = unique_bytes / KV_BLOCK_BYTES;
        self.free_blocks += unique;
        self.stats.blocks_freed += unique;
        if let Some(key) = need.prefix {
            let entry = self
                .prefixes
                .iter_mut()
                .find(|e| e.key == key)
                .expect("prefix entry resident");
            assert!(entry.refcount > 0, "prefix refcount underflow");
            entry.refcount -= 1;
            entry.last_use = now;
            if entry.refcount == 0 {
                self.cached_blocks += entry.blocks;
            }
        }
    }

    /// End-of-run accounting check: every shared prefix's refcount
    /// reached zero, and after flushing the cache the block ledger
    /// closes exactly (`allocated == freed`, all blocks free — a job that
    /// never unmapped leaves its unique blocks out of the pool).
    ///
    /// # Panics
    ///
    /// Panics on any leak.
    pub fn assert_drained(&mut self) {
        for e in &self.prefixes {
            assert_eq!(
                e.refcount, 0,
                "prefix {:?} drained with refcount {}",
                e.key, e.refcount
            );
        }
        let cached: u64 = self.prefixes.iter().map(|e| e.blocks).sum();
        self.stats.blocks_freed += cached;
        self.free_blocks += cached;
        self.prefixes.clear();
        self.cached_blocks = 0;
        assert_eq!(
            self.free_blocks, self.total_blocks,
            "pager drained with blocks still held"
        );
        assert_eq!(
            self.stats.blocks_allocated, self.stats.blocks_freed,
            "block ledger leak: {} allocated vs {} freed",
            self.stats.blocks_allocated, self.stats.blocks_freed
        );
    }
}

/// One chip's KV store: the contiguous reservation ledger or the paged
/// allocator, chosen once from [`KvSpec`] and owned by the chip. This is
/// the only type that knows which layout a chip runs; the chip, the
/// engine and every seam ask it the same questions either way.
#[derive(Debug)]
pub enum ChipKv {
    /// One contiguous reservation per job: each resident pins its whole
    /// [`FleetCost::footprint_on`] working set until it leaves.
    Contiguous {
        /// The chip's KV budget ([`FleetCost::budget_on`]).
        budget: u64,
        /// Bytes reserved by resident jobs.
        in_use: u64,
    },
    /// Fixed-size pages with prefix sharing and pruning-aware reclaim.
    Paged(KvPager),
}

impl ChipKv {
    /// An empty store of layout `spec` over `budget` bytes.
    pub fn new(spec: KvSpec, budget: u64) -> Self {
        match spec.block_bytes() {
            None => ChipKv::Contiguous { budget, in_use: 0 },
            Some(_) => ChipKv::Paged(KvPager::new(budget)),
        }
    }

    /// Bytes pinned by resident jobs (and, paged, their live prefixes;
    /// cached prefixes are resident but not in use).
    pub fn in_use(&self) -> u64 {
        match self {
            ChipKv::Contiguous { in_use, .. } => *in_use,
            ChipKv::Paged(p) => p.pinned_bytes(),
        }
    }

    /// Bytes an admission fit check may assume — paged, whole blocks
    /// only: a budget's sub-block remainder is never handed out.
    pub fn free_bytes(&self) -> u64 {
        match self {
            ChipKv::Contiguous { budget, in_use } => budget.saturating_sub(*in_use),
            ChipKv::Paged(p) => p.available_bytes(),
        }
    }

    /// What mapping `job` here would take out of [`ChipKv::free_bytes`]:
    /// its working set, or paged, its [`KvPager::admission_bytes`] (shared
    /// prefix blocks charged once per chip, a resumed victim at its
    /// position on the retirement curve).
    pub fn fit_bytes<C: FleetCost>(&self, cost: &mut C, chip: usize, job: &Job) -> u64 {
        match self {
            ChipKv::Contiguous { .. } => cost.footprint_on(chip, &job.workload),
            ChipKv::Paged(p) => {
                let need = JobKvNeed::memoized(cost, chip, job);
                p.admission_bytes(&need, resume_steps(job))
            }
        }
    }

    /// Maps `job` onto chip `chip` at `now`. Returns its resident
    /// footprint (paged: its unique bytes) and the prefill cycles a
    /// **warm** shared prefix lets it skip — KV an earlier sharer already
    /// computed. The skip stops a cycle short of the whole pass, so a
    /// fully cached prompt still runs one chunk.
    pub fn map<C: FleetCost>(
        &mut self,
        cost: &mut C,
        chip: usize,
        job: &Job,
        now: u64,
    ) -> (u64, u64) {
        match self {
            ChipKv::Contiguous { in_use, .. } => {
                let footprint = cost.footprint_on(chip, &job.workload);
                *in_use += footprint;
                (footprint, 0)
            }
            ChipKv::Paged(p) => {
                let need = JobKvNeed::memoized(cost, chip, job);
                let (warm, prefix_total) = p.warm_prefix_blocks(&need);
                let mut skip = 0;
                if warm > 0 {
                    let w = &job.workload;
                    let total = cost.prefill_on(chip, w).serial_cycles;
                    let warm_tokens =
                        job.shared_prefix_tokens.min(w.seq_len) as u64 * warm / prefix_total;
                    skip = (total * warm_tokens / w.seq_len.max(1) as u64)
                        .min(total.saturating_sub(1));
                }
                (p.map_job(&need, resume_steps(job), now), skip)
            }
        }
    }

    /// Advances `job`, resident on chip `chip` with `footprint`, to
    /// `steps_done` decode steps and returns its footprint: paged, the
    /// pruning curve frees whole blocks mid-stream; a contiguous
    /// reservation never shrinks.
    pub fn reclaim(&mut self, chip: usize, job: &Job, steps_done: u64, footprint: u64) -> u64 {
        match self {
            ChipKv::Contiguous { .. } => footprint,
            ChipKv::Paged(p) => p.reclaim(&JobKvNeed::mapped(job, chip), footprint, steps_done),
        }
    }

    /// Releases `job`, resident on chip `chip` with `footprint`, at
    /// `now`. The footprint is also what a swap-out or handoff moves: the
    /// whole reservation, or paged, only the unique pages (shared prefix
    /// blocks stay).
    pub fn unmap(&mut self, chip: usize, job: &Job, footprint: u64, now: u64) {
        match self {
            ChipKv::Contiguous { in_use, .. } => *in_use -= footprint,
            ChipKv::Paged(p) => p.unmap_job(&JobKvNeed::mapped(job, chip), footprint, now),
        }
    }

    /// Checks that the residents' footprints, summing to
    /// `resident_bytes`, account for the store exactly: contiguous, they
    /// are the bytes in use; paged, their unique blocks plus the prefix
    /// entries' blocks plus the free pool are the pager's total. The
    /// chip runs it once a round in debug builds.
    ///
    /// # Panics
    ///
    /// Panics if the residents and the store disagree.
    pub fn assert_balanced(&self, resident_bytes: u64) {
        match self {
            ChipKv::Contiguous { in_use, .. } => assert_eq!(
                *in_use, resident_bytes,
                "contiguous KV out of step with its residents"
            ),
            ChipKv::Paged(p) => assert!(
                p.balances(resident_bytes / KV_BLOCK_BYTES),
                "paged KV out of step with its residents ({resident_bytes} resident bytes)"
            ),
        }
    }

    /// One-way HBM cycles to swap `w`'s KV at `resume`'s progress:
    /// contiguous, the tokens seen so far ([`FleetCost::swap_cycles_on`]);
    /// paged, the `bytes` a map or unmap moved.
    pub fn swap_cycles<C: FleetCost>(
        &self,
        cost: &mut C,
        chip: usize,
        w: &Workload,
        resume: &ResumeState,
        bytes: u64,
    ) -> u64 {
        match self {
            ChipKv::Contiguous { .. } => {
                let tokens = resume.kv_tokens(w, cost.prefill_on(chip, w).serial_cycles);
                cost.swap_cycles_on(chip, w, tokens)
            }
            ChipKv::Paged(_) => cost.swap_bytes_cycles_on(chip, w, bytes),
        }
    }

    /// Bytes of `job`'s shared prefix a handoff must carry to this chip:
    /// paged, the prefix blocks not already warm here; contiguous KV has
    /// no block ledger, so the footprint the source ships covers it all.
    pub fn cold_prefix_bytes<C: FleetCost>(&self, cost: &mut C, chip: usize, job: &Job) -> u64 {
        match self {
            ChipKv::Contiguous { .. } => 0,
            ChipKv::Paged(p) => {
                let need = JobKvNeed::memoized(cost, chip, job);
                let (warm, total) = p.warm_prefix_blocks(&need);
                (total - warm) * KV_BLOCK_BYTES
            }
        }
    }

    /// Cumulative page counters (all zero for contiguous KV).
    pub fn stats(&self) -> KvStats {
        match self {
            ChipKv::Contiguous { .. } => KvStats::default(),
            ChipKv::Paged(p) => p.stats,
        }
    }

    /// End-of-run check: every reservation was released (paged: see
    /// [`KvPager::assert_drained`]).
    ///
    /// # Panics
    ///
    /// Panics on any leak.
    pub fn assert_drained(&mut self) {
        match self {
            ChipKv::Contiguous { in_use, .. } => assert_eq!(
                *in_use, 0,
                "contiguous KV drained with {in_use} bytes still reserved"
            ),
            ChipKv::Paged(p) => p.assert_drained(),
        }
    }
}

/// Whole blocks covering `bytes`.
fn blocks_of(bytes: u64) -> u64 {
    bytes.div_ceil(KV_BLOCK_BYTES)
}

/// Decode steps a resumed job already ran (0 for a fresh arrival): its
/// position on the retirement curve.
fn resume_steps(job: &Job) -> u64 {
    job.resume.map_or(0, |r| r.steps_done as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BLOCK: u64 = KV_BLOCK_BYTES;

    fn need(raw: u64, fin: u64, shared: u64, gen: u64) -> JobKvNeed {
        JobKvNeed {
            raw_bytes: raw.max(fin),
            final_bytes: fin,
            shared_bytes: shared,
            gen_steps: gen,
            horizon: gen.clamp(1, 12),
            prefix: (shared > 0).then_some((0, shared as usize)),
        }
    }

    #[test]
    fn held_bytes_is_monotone_non_increasing_and_hits_the_floor() {
        let n = need(100 * BLOCK, 40 * BLOCK, 0, 64);
        let mut prev = u64::MAX;
        for t in 0..=80 {
            let h = n.held_bytes(t);
            assert!(h <= prev, "held grew at step {t}: {h} > {prev}");
            assert!(h >= n.final_bytes);
            prev = h;
        }
        assert_eq!(n.held_bytes(0), n.raw_bytes);
        assert_eq!(n.held_bytes(n.horizon), n.final_bytes);
        // Single-pass jobs are flat at the contiguous charge.
        let flat = need(0, 7 * BLOCK, 0, 0);
        assert_eq!(flat.held_bytes(0), flat.held_bytes(100));
    }

    #[test]
    fn prefix_is_charged_once_and_cached_after_the_last_sharer_leaves() {
        let mut p = KvPager::new(64 * BLOCK);
        let n = need(20 * BLOCK, 20 * BLOCK, 8 * BLOCK, 4);
        // First sharer pays prefix + unique; the second pays unique only.
        assert_eq!(p.admission_bytes(&n, 0), 20 * BLOCK);
        let first = p.map_job(&n, 0, 10);
        assert_eq!(p.admission_bytes(&n, 0), 12 * BLOCK);
        let unique = p.map_job(&n, 0, 11);
        assert_eq!(unique, 12 * BLOCK);
        assert_eq!(first, unique);
        assert_eq!(p.stats.shared_hits, 1);
        assert_eq!(p.used_bytes(), (8 + 12 + 12) * BLOCK);
        assert!(p.balances(24));
        // Both leave: the prefix persists as cache, still charged when a
        // newcomer would pin it, still counted available for eviction.
        p.unmap_job(&n, first, 20);
        p.unmap_job(&n, unique, 21);
        assert_eq!(p.cached_blocks(), 8);
        assert_eq!(p.pinned_bytes(), 0);
        assert_eq!(p.available_bytes(), 64 * BLOCK);
        assert_eq!(p.admission_bytes(&n, 0), 20 * BLOCK);
        // A third sharer hits the cache without allocating prefix blocks.
        let before = p.stats.blocks_allocated;
        let third = p.map_job(&n, 0, 30);
        assert_eq!(p.stats.blocks_allocated - before, 12);
        assert_eq!(p.stats.shared_hits, 2);
        p.unmap_job(&n, third, 31);
    }

    #[test]
    fn pruning_reclaim_returns_blocks_mid_stream_monotonically() {
        let mut p = KvPager::new(256 * BLOCK);
        let n = need(60 * BLOCK, 24 * BLOCK, 10 * BLOCK, 32);
        let mut unique = p.map_job(&n, 0, 0);
        assert_eq!(unique, 50 * BLOCK);
        let mut reclaimed_total = 0;
        for t in 1..=40 {
            let next = p.reclaim(&n, unique, t);
            assert!(next <= unique, "page count grew at step {t}");
            reclaimed_total += (unique - next) / BLOCK;
            unique = next;
            assert!(p.balances(unique / BLOCK), "step {t}");
        }
        assert_eq!(unique, 14 * BLOCK);
        assert_eq!(p.stats.blocks_reclaimed, reclaimed_total);
        assert_eq!(p.stats.blocks_reclaimed, 36);
        // Past the horizon the flat curve frees nothing, however far.
        for t in [n.horizon + 1, 1_000, u64::MAX] {
            assert_eq!(p.reclaim(&n, unique, t), unique, "step {t}");
        }
        assert_eq!(p.stats.blocks_reclaimed, 36);
        assert!(p.balances(unique / BLOCK));
        p.unmap_job(&n, unique, 50);
        p.assert_drained();
    }

    #[test]
    fn cache_eviction_trims_lowest_scored_tails_and_refills_on_hit() {
        let mut p = KvPager::new(32 * BLOCK);
        let cold = JobKvNeed {
            prefix: Some((0, 100)),
            ..need(10 * BLOCK, 10 * BLOCK, 6 * BLOCK, 2)
        };
        let hot = JobKvNeed {
            prefix: Some((1, 100)),
            ..need(10 * BLOCK, 10 * BLOCK, 6 * BLOCK, 2)
        };
        let u1 = p.map_job(&cold, 0, 0);
        p.unmap_job(&cold, u1, 1);
        let u2 = p.map_job(&hot, 0, 2);
        let u3 = p.map_job(&hot, 0, 3); // hot entry scores a hit
        p.unmap_job(&hot, u2, 4);
        p.unmap_job(&hot, u3, 5);
        // 12 cached + 20 free. A 24-block demand must trim 4 cached
        // blocks — from the cold (0-hit) entry's tail, not the hot one.
        let big = need(24 * BLOCK, 24 * BLOCK, 0, 2);
        assert_eq!(p.admission_bytes(&big, 0), 24 * BLOCK);
        let u4 = p.map_job(&big, 0, 10);
        assert_eq!(p.stats.cache_evicted_blocks, 4);
        assert_eq!(p.cached_blocks(), 8); // cold trimmed 6 -> 2, hot intact
        assert!(p.balances(u4 / BLOCK));
        p.unmap_job(&big, u4, 11);
        // A returning cold-class sharer pays only the trimmed tail.
        assert_eq!(p.admission_bytes(&cold, 0), (4 + 4 + 2) * BLOCK);
        let u5 = p.map_job(&cold, 0, 20);
        assert_eq!(u5, 4 * BLOCK);
        p.unmap_job(&cold, u5, 21);
    }

    #[test]
    fn drain_closes_the_block_ledger() {
        let mut p = KvPager::new(128 * BLOCK);
        let a = need(30 * BLOCK, 12 * BLOCK, 8 * BLOCK, 16);
        let b = need(20 * BLOCK, 20 * BLOCK, 8 * BLOCK, 0);
        let ua = p.map_job(&a, 0, 0);
        let ub = p.map_job(&b, 0, 1);
        let ua = p.reclaim(&a, ua, 9);
        p.unmap_job(&a, ua, 5);
        p.unmap_job(&b, ub, 6);
        p.assert_drained();
        assert_eq!(p.stats.blocks_allocated, p.stats.blocks_freed);
        assert_eq!(p.free_blocks(), 128);
    }

    /// A 256-token GPT-2 job generating 32 tokens, sharing the first
    /// `shared` prompt tokens with its class.
    fn gpt2_job(id: u64, shared: usize) -> Job {
        let mut workload = spatten_workloads::Benchmark::gpt2_small_wikitext2().workload();
        workload.seq_len = 256;
        workload.gen_steps = 32;
        Job {
            id,
            class: 0,
            priority: 0,
            client: None,
            arrival_cycles: 0,
            deadline_cycles: None,
            preemptions: 0,
            resume: None,
            shared_prefix_tokens: shared,
            revoked: false,
            workload,
            kv_need: Default::default(),
        }
    }

    fn cost() -> crate::cost::CostModel {
        crate::cost::CostModel::end_to_end(spatten_core::SpAttenConfig::default(), 8)
    }

    #[test]
    fn fit_bytes_charges_a_shared_prefix_once_per_chip() {
        let mut cost = cost();
        let budget = cost.budget_on(0);
        // Contiguous: the plain working set, shared prefix or not.
        let contiguous = ChipKv::new(KvSpec::Contiguous, budget);
        let first = gpt2_job(1, 128);
        assert_eq!(
            contiguous.fit_bytes(&mut cost, 0, &first),
            cost.footprint_on(0, &first.workload)
        );
        // Paged: the first sharer pays prefix plus unique bytes...
        let mut kv = ChipKv::new(KvSpec::paged(), budget);
        let block = KvSpec::paged().block_bytes().expect("paged");
        let prefix = JobKvNeed::of(&mut cost, 0, &first)
            .shared_bytes
            .div_ceil(block)
            * block;
        assert!(prefix > 0);
        let charge = kv.fit_bytes(&mut cost, 0, &first);
        let (unique, skip) = kv.map(&mut cost, 0, &first, 0);
        assert_eq!(charge, prefix + unique);
        assert_eq!(skip, 0, "a cold prefix skips no prefill");
        // ...and once it is resident, the second pays unique only and
        // maps onto the warm prefix, skipping the head of its prefill.
        let second = gpt2_job(2, 128);
        assert_eq!(kv.fit_bytes(&mut cost, 0, &second), unique);
        let (unique2, skip2) = kv.map(&mut cost, 0, &second, 1);
        assert_eq!(unique2, unique);
        assert!(skip2 > 0, "a warm prefix skips the head of prefill");
        assert_eq!(kv.cold_prefix_bytes(&mut cost, 0, &second), 0);
        kv.unmap(0, &first, unique, 2);
        kv.unmap(0, &second, unique2, 3);
        assert_eq!(kv.stats().shared_hits, 1);
        kv.assert_drained();
    }

    #[test]
    fn kv_need_is_priced_per_chip_on_a_heterogeneous_fleet() {
        use spatten_core::SpAttenConfig;
        // A long job on an eighth-scale chip with an eighth of the KV
        // SRAM: its working set is clamped to the smaller budget there,
        // so the two chips need different curves.
        let table_i = SpAttenConfig::default();
        let eighth = SpAttenConfig {
            kv_sram_bytes: table_i.kv_sram_bytes / 8,
            ..SpAttenConfig::eighth()
        };
        let mut cost = crate::cost::CostModel::heterogeneous(vec![table_i, eighth], Some(8));
        let long_job = || {
            let mut job = gpt2_job(1, 128);
            job.workload.seq_len = 1024;
            job.workload.gen_steps = 256;
            job
        };
        let job = long_job();
        let needs = [
            JobKvNeed::of(&mut cost, 0, &job),
            JobKvNeed::of(&mut cost, 1, &job),
        ];
        assert_ne!(needs[0], needs[1], "the two chips price the job apart");
        let stores = [
            ChipKv::new(KvSpec::paged(), cost.budget_on(0)),
            ChipKv::new(KvSpec::paged(), cost.budget_on(1)),
        ];
        // Table-I, then eighth-scale, then Table-I again: every fit check
        // gets its own chip's price, never the other chip's memo.
        for chip in [0, 1, 0, 0] {
            let ChipKv::Paged(pager) = &stores[chip] else {
                unreachable!("paged store")
            };
            assert_eq!(
                stores[chip].fit_bytes(&mut cost, chip, &job),
                pager.admission_bytes(&needs[chip], 0),
                "chip {chip}"
            );
            assert_eq!(job.kv_need.0.get(), Some((chip, needs[chip])));
        }
        // The memo rides along with clones but takes no part in `==`.
        assert_eq!(job.clone().kv_need.0.get(), Some((0, needs[0])));
        assert_eq!(job, long_job());
    }

    #[test]
    fn contiguous_store_reserves_whole_working_sets_until_unmapped() {
        let mut cost = cost();
        let budget = cost.budget_on(0);
        let mut kv = ChipKv::new(KvSpec::Contiguous, budget);
        assert_eq!(kv.free_bytes(), budget);
        let a = gpt2_job(1, 128);
        let (fa, skip) = kv.map(&mut cost, 0, &a, 0);
        assert_eq!(fa, cost.footprint_on(0, &a.workload));
        assert_eq!(skip, 0, "contiguous KV keeps no prefix to skip");
        let b = gpt2_job(2, 0);
        let (fb, _) = kv.map(&mut cost, 0, &b, 1);
        assert_eq!(kv.in_use(), fa + fb);
        assert_eq!(kv.free_bytes(), budget - fa - fb);
        // Decode never shrinks a contiguous reservation.
        assert_eq!(kv.reclaim(0, &a, 40, fa), fa);
        assert_eq!(kv.in_use(), fa + fb);
        kv.assert_balanced(fa + fb);
        // Unmapping releases the whole reservation: what a swap moves.
        kv.unmap(0, &a, fa, 2);
        assert_eq!(kv.free_bytes(), budget - fb);
        assert_eq!(kv.cold_prefix_bytes(&mut cost, 0, &a), 0);
        kv.unmap(0, &b, fb, 3);
        assert_eq!(kv.in_use(), 0);
        assert_eq!(kv.stats(), KvStats::default());
        kv.assert_drained();
    }

    #[test]
    #[should_panic(expected = "still reserved")]
    fn contiguous_drain_check_catches_a_leaked_reservation() {
        let mut cost = cost();
        let mut kv = ChipKv::new(KvSpec::Contiguous, cost.budget_on(0));
        kv.map(&mut cost, 0, &gpt2_job(1, 0), 0);
        kv.assert_drained();
    }

    #[test]
    #[should_panic(expected = "over-committed")]
    fn over_commit_panics_rather_than_corrupting_the_ledger() {
        let mut p = KvPager::new(8 * BLOCK);
        p.map_job(&need(16 * BLOCK, 16 * BLOCK, 0, 2), 0, 0);
        // The clamp caps a single job at capacity; a second job of any
        // size must trip the allocator's over-commit assert.
        p.map_job(&need(BLOCK, BLOCK, 0, 2), 0, 1);
    }
}
