//! The whole HBM stack: the channels and the row stripe that feeds them.

use crate::address::AddressMap;
use crate::channel::Channel;

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// DRAM → chip.
    Read,
    /// Chip → DRAM.
    Write,
}

/// One memory request (a contiguous byte range).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Start byte address.
    pub addr: u64,
    /// Length in bytes.
    pub bytes: u64,
    /// Read or write.
    pub kind: RequestKind,
}

/// HBM stack configuration (Table I defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HbmConfig {
    /// Number of channels.
    pub channels: usize,
    /// Bytes per cycle per channel (128-bit channel @ accelerator clock).
    pub bytes_per_cycle: u64,
    /// Channel interleave granularity in bytes.
    pub interleave_bytes: u64,
    /// DRAM row (page) size in bytes.
    pub row_bytes: u64,
    /// Activate+precharge penalty in accelerator cycles.
    pub activation_cycles: u64,
    /// Clock frequency in GHz (for bandwidth conversion).
    pub clock_ghz: f64,
}

impl HbmConfig {
    /// Peak bandwidth in GB/s.
    pub fn peak_bandwidth_gbps(&self) -> f64 {
        self.channels as f64 * self.bytes_per_cycle as f64 * self.clock_ghz
    }
}

impl Default for HbmConfig {
    /// HBM2 as in Table I: 16 channels × 128 bit @ 2 GHz = 32 GB/s each,
    /// 512 GB/s total.
    fn default() -> Self {
        Self {
            channels: 16,
            bytes_per_cycle: 16,
            interleave_bytes: 32,
            row_bytes: 1024,
            activation_cycles: 28, // tRAS+tRP class penalty at 2 GHz
            clock_ghz: 2.0,
        }
    }
}

/// Result of draining one batch of requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainStats {
    /// Cycles until the slowest channel finished (the batch's latency when
    /// perfectly overlapped with compute).
    pub cycles: u64,
    /// Sum of per-channel busy cycles (for utilization accounting).
    pub total_channel_busy: u64,
    /// Row activations in this batch.
    pub activations: u64,
    /// Bytes read in this batch.
    pub read_bytes: u64,
    /// Bytes written in this batch.
    pub write_bytes: u64,
}

/// The HBM stack: every channel's row buffer and counters, the row
/// stripe being filled, and the run of requests not yet placed.
#[derive(Debug, Clone)]
pub struct Hbm {
    config: HbmConfig,
    map: AddressMap,
    channels: Vec<Channel>,
    /// Contiguous bytes of one kind that later requests may still extend.
    run: Option<Run>,
    /// Whole blocks of one row stripe not yet folded into the channels.
    stripe: StripeBlocks,
    lifetime_activations: u64,
    lifetime_read_bytes: u64,
    lifetime_write_bytes: u64,
}

/// `[start, end)`, requested as one or more back-to-back requests.
#[derive(Debug, Clone, Copy)]
struct Run {
    start: u64,
    end: u64,
    is_write: bool,
}

/// Per-channel counts of whole, interleave-aligned blocks of one kind in
/// one row stripe (`channels × row_bytes` bytes), all of which land on
/// row `stripe` of their channel.
#[derive(Debug, Clone)]
struct StripeBlocks {
    /// Interleave blocks per row stripe.
    per_stripe: u64,
    /// The stripe counted, if any block is.
    stripe: Option<u64>,
    is_write: bool,
    /// Difference array (`channels + 1` slots) of each channel's blocks:
    /// a channel holds the sum of the slots up to its own.
    blocks: Vec<i64>,
}

impl Hbm {
    /// A fresh stack.
    pub fn new(config: HbmConfig) -> Self {
        let map = AddressMap::new(config.channels, config.interleave_bytes, config.row_bytes);
        Self {
            config,
            map,
            channels: vec![Channel::new(); config.channels],
            run: None,
            stripe: StripeBlocks {
                per_stripe: config.channels as u64 * (config.row_bytes / config.interleave_bytes),
                stripe: None,
                is_write: false,
                blocks: vec![0; config.channels + 1],
            },
            lifetime_activations: 0,
            lifetime_read_bytes: 0,
            lifetime_write_bytes: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> HbmConfig {
        self.config
    }

    /// The address map.
    pub fn address_map(&self) -> AddressMap {
        self.map
    }

    /// Adds a request to the current window.
    ///
    /// The reference semantics are per chunk: a request splits into
    /// interleave chunks, and each chunk is one access to its channel — a
    /// row activation if the channel has another row open, then
    /// `ceil(bytes / bytes_per_cycle)` beats. [`DrainStats`] depend only
    /// on each chunk's beats, which add up, and on each channel's
    /// sequence of rows, so the same stats come out without queueing a
    /// chunk:
    ///
    /// * A request that starts where the previous one ended, with the
    ///   same kind, on an interleave boundary, extends it into one run:
    ///   two requests whose shared boundary is interleave-aligned split
    ///   into exactly the chunks of their union.
    /// * Every chunk of a row stripe (`channels × row_bytes` bytes) lands
    ///   on the same row of its channel, row `addr / (channels ×
    ///   row_bytes)`, because [`AddressMap`] makes `row_bytes` a multiple
    ///   of the interleave. So the order of a stripe's chunks cannot
    ///   matter. A run's whole blocks are only counted per channel, O(1)
    ///   in a difference array, and fold into the channels (one access
    ///   each) before anything of another stripe reaches them, before
    ///   blocks of another kind are counted, and at [`Hbm::drain`]. Its
    ///   partial head and tail chunks are accessed at once.
    /// * The stripes a run covers whole are added in closed form: each
    ///   channel opens their rows in turn, moving
    ///   `row_bytes / interleave × ceil(interleave / bytes_per_cycle)`
    ///   beats on each.
    #[inline]
    pub fn enqueue(&mut self, req: Request) {
        if req.bytes == 0 {
            return;
        }
        let is_write = req.kind == RequestKind::Write;
        let end = req.addr + req.bytes;
        if let Some(run) = &mut self.run {
            if run.end == req.addr
                && run.is_write == is_write
                && crate::address::fast_mod(req.addr, self.config.interleave_bytes) == 0
            {
                run.end = end;
                return;
            }
        }
        let next = Run {
            start: req.addr,
            end,
            is_write,
        };
        if let Some(run) = self.run.replace(next) {
            self.place(run);
        }
    }

    /// Accesses a run's partial head and tail chunks and counts its whole
    /// blocks.
    fn place(&mut self, run: Run) {
        use crate::address::{fast_div, fast_mod};
        let (mut addr, end, is_write) = (run.start, run.end, run.is_write);
        let interleave = self.config.interleave_bytes;
        let within = fast_mod(addr, interleave);
        if within != 0 {
            let head = (interleave - within).min(end - addr);
            self.access_chunk(addr, head, is_write);
            addr += head;
        }
        let blocks = fast_div(end - addr, interleave);
        if blocks > 0 {
            self.count_blocks(fast_div(addr, interleave), blocks, is_write);
            addr += blocks * interleave;
        }
        if addr < end {
            self.access_chunk(addr, end - addr, is_write);
        }
    }

    /// Accesses one chunk of less than a block, after folding the counted
    /// blocks if they lie in another stripe.
    fn access_chunk(&mut self, addr: u64, bytes: u64, is_write: bool) {
        use crate::address::{fast_div, fast_mod};
        let block = fast_div(addr, self.config.interleave_bytes);
        let stripe = fast_div(block, self.stripe.per_stripe);
        if self.stripe.stripe.is_some_and(|s| s != stripe) {
            self.fold_stripe();
        }
        let channel = fast_mod(block, self.config.channels as u64) as usize;
        self.channels[channel].access(
            stripe,
            bytes,
            is_write,
            self.config.bytes_per_cycle,
            self.config.activation_cycles,
        );
    }

    /// Counts `n` whole blocks from global block index `block`: the
    /// stripes they cover whole in closed form, the rest per stripe.
    fn count_blocks(&mut self, mut block: u64, mut n: u64, is_write: bool) {
        use crate::address::{fast_div, fast_mod};
        let per_stripe = self.stripe.per_stripe;
        let channels = self.config.channels as u64;
        while n > 0 {
            let stripe = fast_div(block, per_stripe);
            let offset = fast_mod(block, per_stripe);
            if offset == 0 && n >= per_stripe {
                let rows = fast_div(n, per_stripe);
                self.fold_stripe();
                let blocks_per_row = self.config.row_bytes / self.config.interleave_bytes;
                let beats = blocks_per_row * self.block_beats();
                for channel in &mut self.channels {
                    channel.stream(
                        stripe,
                        rows,
                        beats,
                        self.config.row_bytes,
                        is_write,
                        self.config.activation_cycles,
                    );
                }
                block += rows * per_stripe;
                n -= rows * per_stripe;
                continue;
            }
            let run = n.min(per_stripe - offset);
            if self.stripe.stripe != Some(stripe) || self.stripe.is_write != is_write {
                self.fold_stripe();
            }
            self.stripe.stripe = Some(stripe);
            self.stripe.is_write = is_write;
            // Every channel gets `run / channels` blocks, and the cyclic
            // range of `run % channels` channels from `first` one more.
            let slots = &mut self.stripe.blocks;
            slots[0] += fast_div(run, channels) as i64;
            let first = fast_mod(block, channels) as usize;
            let last = first + fast_mod(run, channels) as usize;
            if last > first {
                slots[first] += 1;
                if last <= channels as usize {
                    slots[last] -= 1;
                } else {
                    slots[0] += 1;
                    slots[last - channels as usize] -= 1;
                }
            }
            block += run;
            n -= run;
        }
    }

    /// Beats one whole interleave block takes.
    fn block_beats(&self) -> u64 {
        self.config
            .interleave_bytes
            .div_ceil(self.config.bytes_per_cycle)
    }

    /// Moves the counted blocks into the channels: one access per channel
    /// that holds any.
    fn fold_stripe(&mut self) {
        let Some(row) = self.stripe.stripe.take() else {
            return;
        };
        let (block_beats, interleave) = (self.block_beats(), self.config.interleave_bytes);
        let mut blocks = 0i64;
        for (channel, slot) in self.channels.iter_mut().zip(&mut self.stripe.blocks) {
            blocks += std::mem::take(slot);
            if blocks > 0 {
                let blocks = blocks as u64;
                channel.stream(
                    row,
                    1,
                    blocks * block_beats,
                    blocks * interleave,
                    self.stripe.is_write,
                    self.config.activation_cycles,
                );
            }
        }
        *self.stripe.blocks.last_mut().expect("channels + 1 slots") = 0;
    }

    /// Ends the window: places what is still pending and returns the
    /// window's statistics.
    ///
    /// The batch latency is the busy time of the slowest channel — the
    /// datapath overlaps DRAM access with compute, so this is the number the
    /// pipeline model needs.
    pub fn drain(&mut self) -> DrainStats {
        if let Some(run) = self.run.take() {
            self.place(run);
        }
        self.fold_stripe();
        let mut stats = DrainStats {
            cycles: 0,
            total_channel_busy: 0,
            activations: 0,
            read_bytes: 0,
            write_bytes: 0,
        };
        for ch in &mut self.channels {
            stats.cycles = stats.cycles.max(ch.busy_cycles());
            stats.total_channel_busy += ch.busy_cycles();
            stats.activations += ch.activations();
            stats.read_bytes += ch.read_bytes();
            stats.write_bytes += ch.write_bytes();
            ch.start_window();
        }
        // The channels count over their lifetime; this window is what
        // they added since the last drain.
        stats.activations -= self.lifetime_activations;
        stats.read_bytes -= self.lifetime_read_bytes;
        stats.write_bytes -= self.lifetime_write_bytes;
        self.lifetime_activations += stats.activations;
        self.lifetime_read_bytes += stats.read_bytes;
        self.lifetime_write_bytes += stats.write_bytes;
        stats
    }

    /// Convenience: enqueue one contiguous read at `addr` and drain.
    pub fn read(&mut self, addr: u64, bytes: u64) -> DrainStats {
        self.enqueue(Request {
            addr,
            bytes,
            kind: RequestKind::Read,
        });
        self.drain()
    }

    /// Lifetime row activations.
    pub fn lifetime_activations(&self) -> u64 {
        self.lifetime_activations
    }

    /// Lifetime bytes read.
    pub fn lifetime_read_bytes(&self) -> u64 {
        self.lifetime_read_bytes
    }

    /// Lifetime bytes written.
    pub fn lifetime_write_bytes(&self) -> u64 {
        self.lifetime_write_bytes
    }

    /// Ideal (fully interleaved, row-hit) cycles to move `bytes`.
    pub fn ideal_cycles(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.config.bytes_per_cycle * self.config.channels as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hbm() -> Hbm {
        Hbm::new(HbmConfig::default())
    }

    #[test]
    fn sequential_stream_saturates_all_channels() {
        let mut h = hbm();
        // 64 KiB sequential: perfectly interleaved over 16 channels.
        let stats = h.read(0, 65536);
        let ideal = h.ideal_cycles(65536);
        // Each channel streams 4 KiB = 4 rows, so 4 activations on top of
        // pure transfer time.
        let cfg = HbmConfig::default();
        let rows_per_channel = 65536 / cfg.channels as u64 / cfg.row_bytes;
        assert_eq!(
            stats.cycles,
            ideal + rows_per_channel * cfg.activation_cycles,
            "cycles {} vs ideal {}",
            stats.cycles,
            ideal
        );
        assert_eq!(stats.read_bytes, 65536);
    }

    #[test]
    fn single_channel_hotspot_is_16x_slower() {
        let cfg = HbmConfig::default();
        let mut h = Hbm::new(cfg);
        // Only touch channel 0 blocks: addresses k * (interleave*channels).
        let stride = cfg.interleave_bytes * cfg.channels as u64;
        for k in 0..512u64 {
            h.enqueue(Request {
                addr: k * stride,
                bytes: cfg.interleave_bytes,
                kind: RequestKind::Read,
            });
        }
        let hot = h.drain();
        let mut h2 = Hbm::new(cfg);
        let seq = h2.read(0, 512 * cfg.interleave_bytes);
        assert!(
            hot.cycles > seq.cycles * 8,
            "hotspot {} vs sequential {}",
            hot.cycles,
            seq.cycles
        );
    }

    #[test]
    fn random_rows_cost_activations() {
        let cfg = HbmConfig::default();
        let mut h = Hbm::new(cfg);
        // Touch one block in each of 64 different rows of channel 0.
        let row_stride = cfg.row_bytes * cfg.channels as u64;
        for k in 0..64u64 {
            h.enqueue(Request {
                addr: k * row_stride,
                bytes: 32,
                kind: RequestKind::Read,
            });
        }
        let stats = h.drain();
        assert_eq!(stats.activations, 64);
        assert!(stats.cycles >= 64 * cfg.activation_cycles);
    }

    #[test]
    fn writes_are_counted_separately() {
        let mut h = hbm();
        h.enqueue(Request {
            addr: 0,
            bytes: 4096,
            kind: RequestKind::Write,
        });
        let stats = h.drain();
        assert_eq!(stats.write_bytes, 4096);
        assert_eq!(stats.read_bytes, 0);
        assert_eq!(h.lifetime_write_bytes(), 4096);
    }

    #[test]
    fn drain_is_idempotent_when_empty() {
        let mut h = hbm();
        let first = h.read(0, 1024);
        let empty = h.drain();
        assert!(first.cycles > 0);
        assert_eq!(empty.cycles, 0);
        assert_eq!(empty.read_bytes, 0);
    }

    #[test]
    fn peak_bandwidth_matches_table1() {
        let cfg = HbmConfig::default();
        assert!((cfg.peak_bandwidth_gbps() - 512.0).abs() < 1e-9);
    }

    /// The old per-chunk model, kept as the oracle for the coalesced
    /// fast path: one queue entry and one row-buffer access per
    /// interleave chunk, addresses decoded one by one.
    struct RefHbm {
        cfg: HbmConfig,
        map: AddressMap,
        open: Vec<Option<u64>>,
        queues: Vec<Vec<(u64, u64, bool)>>,
    }

    impl RefHbm {
        fn new(cfg: HbmConfig) -> Self {
            Self {
                cfg,
                map: AddressMap::new(cfg.channels, cfg.interleave_bytes, cfg.row_bytes),
                open: vec![None; cfg.channels],
                queues: vec![Vec::new(); cfg.channels],
            }
        }

        fn enqueue(&mut self, req: Request) {
            let is_write = req.kind == RequestKind::Write;
            let mut addr = req.addr;
            let mut remaining = req.bytes;
            while remaining > 0 {
                let within = addr % self.cfg.interleave_bytes;
                let chunk = (self.cfg.interleave_bytes - within).min(remaining);
                let d = self.map.decode(addr);
                self.queues[d.channel].push((d.row, chunk, is_write));
                addr += chunk;
                remaining -= chunk;
            }
        }

        fn drain(&mut self) -> DrainStats {
            let mut stats = DrainStats {
                cycles: 0,
                total_channel_busy: 0,
                activations: 0,
                read_bytes: 0,
                write_bytes: 0,
            };
            for (c, queue) in self.queues.iter_mut().enumerate() {
                let mut busy = 0u64;
                for &(row, bytes, is_write) in queue.iter() {
                    if self.open[c] != Some(row) {
                        self.open[c] = Some(row);
                        stats.activations += 1;
                        busy += self.cfg.activation_cycles;
                    }
                    busy += bytes.div_ceil(self.cfg.bytes_per_cycle);
                    if is_write {
                        stats.write_bytes += bytes;
                    } else {
                        stats.read_bytes += bytes;
                    }
                }
                queue.clear();
                stats.cycles = stats.cycles.max(busy);
                stats.total_channel_busy += busy;
            }
            stats
        }
    }

    /// Configs the property runs on: the default stack, the Table-I chip's
    /// 32-byte-beat stack and its two-channel 1/8 variant, and an odd
    /// stack whose beat does not divide the interleave, so a whole block
    /// takes a partial last beat.
    fn property_configs() -> [HbmConfig; 4] {
        let table1 = HbmConfig {
            bytes_per_cycle: 32,
            activation_cycles: 14,
            clock_ghz: 1.0,
            ..HbmConfig::default()
        };
        let eighth = HbmConfig {
            channels: 2,
            ..table1
        };
        let odd = HbmConfig {
            channels: 12,
            bytes_per_cycle: 10,
            interleave_bytes: 24,
            row_bytes: 120,
            activation_cycles: 7,
            clock_ghz: 1.5,
        };
        [HbmConfig::default(), table1, eighth, odd]
    }

    /// Token-row sizes: 528 bytes is GPT-2-small's 6-bit MSB plane with
    /// 11 surviving heads (unaligned at one end on a 32-byte interleave);
    /// the others are aligned planes, ragged sizes and sub-block rows.
    const ROW_BYTES: [u64; 8] = [528, 576, 480, 352, 768, 24, 33, 100];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Run coalescing, the stripe block counts and the closed-form
        /// whole stripes drain to exactly what accessing every interleave
        /// chunk on its own gives, draining after every op that asks for
        /// it and at the end, on every config — lifetime counters
        /// included.
        #[test]
        fn coalesced_enqueue_matches_per_chunk_reference(
            ops in prop::collection::vec((0u8..9, 0u64..4096, 0u64..64, 0u64..4096), 1..48),
        ) {
            for cfg in property_configs() {
                let mut fast = Hbm::new(cfg);
                let mut slow = RefHbm::new(cfg);
                let stripe = cfg.channels as u64 * cfg.row_bytes;
                let mut cursor = 0u64;
                let mut sums = [0u64; 3];
                let mut reqs = Vec::new();
                for (i, &(op, a, b, c)) in ops.iter().enumerate() {
                    let kind = if b % 2 == 0 { RequestKind::Read } else { RequestKind::Write };
                    reqs.clear();
                    match op {
                        // Gapped token rows: `tokens` survivors scattered
                        // over `span` slots, as the cost model's K/V planes.
                        0 | 1 => {
                            let bpt = ROW_BYTES[(a % 8) as usize];
                            let tokens = b + 1;
                            let span = tokens + c % 96;
                            for t in 0..tokens {
                                let addr = cursor + (t * span / tokens) * bpt;
                                reqs.push(Request { addr, bytes: bpt, kind: RequestKind::Read });
                            }
                            cursor += span * bpt;
                        }
                        // One request with an unaligned head and tail.
                        2 => {
                            reqs.push(Request { addr: cursor + a % 97, bytes: c + 1, kind });
                            cursor += a % 97 + c + 1;
                        }
                        // Backwards: re-touch rows behind the cursor.
                        3 => {
                            let addr = cursor.saturating_sub(a * 7);
                            reqs.push(Request { addr, bytes: c % 2048 + 1, kind });
                        }
                        // Straddle a row-stripe boundary.
                        4 => {
                            let edge = (cursor / stripe + 1) * stripe;
                            let back = (a % 3).min(edge / 32) * 32 + b % 3;
                            reqs.push(Request { addr: edge - back, bytes: back + c + 1, kind });
                            cursor = edge + c + 1;
                        }
                        // A write interleaved between two aligned reads.
                        5 => {
                            let bpt = ROW_BYTES[(a % 5) as usize];
                            for (j, kind) in [RequestKind::Read, RequestKind::Write, RequestKind::Read]
                                .into_iter()
                                .enumerate()
                            {
                                reqs.push(Request { addr: cursor + j as u64 * bpt, bytes: bpt, kind });
                            }
                            cursor += 3 * bpt;
                        }
                        // A long aligned run across many stripes, or nothing.
                        6 => {
                            let bytes = if c % 8 == 0 { 0 } else { c * 32 };
                            reqs.push(Request { addr: cursor / 32 * 32, bytes, kind });
                            cursor += bytes;
                        }
                        // Back-to-back token rows of every size, as an
                        // unpruned plane: runs of requests that coalesce
                        // on interleave boundaries, broken by a gap or
                        // ended by an adjoining write.
                        7 => {
                            let tokens = b + 1;
                            for bpt in ROW_BYTES {
                                for t in 0..tokens {
                                    if a % 2 == 1 && t == tokens / 2 {
                                        cursor += c % 97 + 1;
                                    }
                                    reqs.push(Request { addr: cursor, bytes: bpt, kind: RequestKind::Read });
                                    cursor += bpt;
                                }
                                if a % 3 == 0 {
                                    reqs.push(Request { addr: cursor, bytes: bpt, kind: RequestKind::Write });
                                    cursor += bpt;
                                }
                            }
                        }
                        // Drain mid-stream.
                        _ => {}
                    }
                    for &req in &reqs {
                        fast.enqueue(req);
                        slow.enqueue(req);
                    }
                    if op == 8 || i + 1 == ops.len() {
                        let got = fast.drain();
                        let want = slow.drain();
                        prop_assert_eq!(got, want);
                        sums[0] += want.activations;
                        sums[1] += want.read_bytes;
                        sums[2] += want.write_bytes;
                    }
                }
                prop_assert_eq!(
                    [
                        fast.lifetime_activations(),
                        fast.lifetime_read_bytes(),
                        fast.lifetime_write_bytes(),
                    ],
                    sums
                );
            }
        }
    }

    #[test]
    fn lifetime_counters_accumulate() {
        let mut h = hbm();
        h.read(0, 1000);
        h.read(100_000, 2000);
        assert_eq!(h.lifetime_read_bytes(), 3000);
        assert!(h.lifetime_activations() >= 2);
    }
}
