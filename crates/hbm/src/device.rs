//! The whole HBM stack: request queues over all channels.

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

/// The HBM stack: per-channel queues + lifetime counters.
#[derive(Debug, Clone)]
pub struct Hbm {
    config: HbmConfig,
    map: AddressMap,
    channels: Vec<Channel>,
    pending: Vec<Vec<(u64, u64, bool)>>, // per channel: (row, bytes, is_write)
    /// Whole aligned interleave blocks not yet placed in `pending`; `None`
    /// when the channel width does not divide the interleave granularity,
    /// so every chunk is walked.
    stripe: Option<StripeBlocks>,
    lifetime_activations: u64,
    lifetime_read_bytes: u64,
    lifetime_write_bytes: u64,
}

/// Per-channel counts of whole, interleave-aligned blocks of one kind
/// that all fall in one row stripe (`channels × row_bytes` bytes), and
/// so on row `stripe` of every channel they touch.
///
/// Every such block is a same-row, same-kind follow-up whose byte count
/// is a multiple of the channel width, so the per-chunk merge rule
/// would fold all of a channel's blocks into one queue entry: the counts
/// are all [`StripeBlocks::flush`] needs to reproduce the queues exactly.
#[derive(Debug, Clone)]
struct StripeBlocks {
    /// Interleave blocks per row stripe.
    per_stripe: u64,
    /// Row stripe index — the row every counted block lands on.
    stripe: u64,
    is_write: bool,
    /// Any block counted since the last flush.
    any: bool,
    /// Blocks every channel holds.
    all: u64,
    /// Difference array (`channels + 1` slots) of the extra block that a
    /// run's last `n % channels` blocks put on a cyclic channel range.
    extra: Vec<i64>,
}

impl StripeBlocks {
    /// The accumulator for `config`, if its channel width divides its
    /// interleave granularity (so every whole block is beat-aligned).
    fn new(config: &HbmConfig) -> Option<Self> {
        config
            .interleave_bytes
            .is_multiple_of(config.bytes_per_cycle)
            .then(|| Self {
                per_stripe: config.channels as u64 * (config.row_bytes / config.interleave_bytes),
                stripe: 0,
                is_write: false,
                any: false,
                all: 0,
                extra: vec![0; config.channels + 1],
            })
    }

    /// Counts `n` whole interleave blocks starting at global block index
    /// `block`, one row stripe at a time, flushing into `pending` first
    /// whenever the stripe or the kind changes.
    fn count(
        &mut self,
        pending: &mut [Vec<(u64, u64, bool)>],
        config: &HbmConfig,
        mut block: u64,
        mut n: u64,
        is_write: bool,
    ) {
        use crate::address::{fast_div, fast_mod};
        let channels = config.channels as u64;
        while n > 0 {
            let stripe = fast_div(block, self.per_stripe);
            let run = n.min(self.per_stripe - fast_mod(block, self.per_stripe));
            if self.any && (self.stripe != stripe || self.is_write != is_write) {
                self.flush(pending, config);
            }
            self.stripe = stripe;
            self.is_write = is_write;
            self.any = true;
            self.all += fast_div(run, channels);
            let first = fast_mod(block, channels) as usize;
            let last = first + fast_mod(run, channels) as usize;
            if last > first {
                self.extra[first] += 1;
                if last <= channels as usize {
                    self.extra[last] -= 1;
                } else {
                    self.extra[channels as usize] -= 1;
                    self.extra[0] += 1;
                    self.extra[last - channels as usize] -= 1;
                }
            }
            block += run;
            n -= run;
        }
    }

    /// Moves the counted blocks into the channel queues: one entry or
    /// merge per channel that holds any.
    fn flush(&mut self, pending: &mut [Vec<(u64, u64, bool)>], config: &HbmConfig) {
        if !self.any {
            return;
        }
        let mut extra = 0i64;
        for (queue, slot) in pending.iter_mut().zip(self.extra.iter_mut()) {
            extra += std::mem::take(slot);
            let blocks = self.all + extra as u64;
            if blocks > 0 {
                let bytes = blocks * config.interleave_bytes;
                push_merged(
                    queue,
                    self.stripe,
                    bytes,
                    self.is_write,
                    config.bytes_per_cycle,
                );
            }
        }
        *self.extra.last_mut().expect("channels + 1 slots") = 0;
        self.all = 0;
        self.any = false;
    }
}

/// Appends `bytes` on `row` to a channel queue, folding them into the
/// tail entry when it is a same-row, same-kind entry whose byte count is
/// a multiple of the channel width `width`.
#[inline]
fn push_merged(
    queue: &mut Vec<(u64, u64, bool)>,
    row: u64,
    bytes: u64,
    is_write: bool,
    width: u64,
) {
    match queue.last_mut() {
        Some(tail)
            if tail.0 == row
                && tail.2 == is_write
                && crate::address::fast_mod(tail.1, width) == 0 =>
        {
            tail.1 += bytes;
        }
        _ => queue.push((row, bytes, is_write)),
    }
}

impl Hbm {
    /// A fresh stack.
    pub fn new(config: HbmConfig) -> Self {
        let map = AddressMap::new(config.channels, config.interleave_bytes, config.row_bytes);
        Self {
            config,
            map,
            channels: (0..config.channels).map(|_| Channel::new()).collect(),
            pending: vec![Vec::new(); config.channels],
            stripe: StripeBlocks::new(&config),
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

    /// Queues a request, splitting it into per-channel interleave blocks.
    ///
    /// The resulting [`DrainStats`] are exactly those of queueing every
    /// interleave chunk as its own entry and draining them one by one;
    /// three exact shortcuts get there with far less work:
    ///
    /// * A chunk landing on the same row as its channel's queue tail is
    ///   merged into that entry when the tail's byte count is a multiple
    ///   of the channel width: `ceil((a+b)/w) = a/w + ceil(b/w)` when
    ///   `w | a`, and a same-row follow-up is a guaranteed row hit, so
    ///   the merged entry drains to identical cycles, activations and
    ///   byte counters as the split one.
    /// * When the channel width divides the interleave granularity, the
    ///   request's whole, aligned interleave blocks are not walked at
    ///   all. Within one row stripe (`channels × row_bytes` bytes) every
    ///   such block lands on the same row of its channel and, by the rule
    ///   above, merges with the channel's previous block of the stripe.
    ///   So a run of `n` blocks only adds `n / channels` blocks to every
    ///   channel and one more to a cyclic range of `n % channels`
    ///   channels — O(1) per request in a difference array. The counts
    ///   flush into the queues, one entry or merge per channel, when the
    ///   stripe or the kind changes, before any chunk is walked, and at
    ///   [`Hbm::drain`], so no queue ever sees its entries reordered.
    /// * Chunks that are walked — the partial head and tail blocks of an
    ///   unaligned request, and every chunk when the width does not
    ///   divide the interleave — carry their (channel, row) incrementally:
    ///   channels rotate by one per block and the channel-local block
    ///   index bumps when the rotation wraps, so the walk does no address
    ///   division per chunk.
    pub fn enqueue(&mut self, req: Request) {
        use crate::address::{fast_div, fast_mod};
        let is_write = req.kind == RequestKind::Write;
        let interleave = self.config.interleave_bytes;
        if req.bytes == 0 {
            return;
        }
        if self.stripe.is_none() {
            self.walk_chunks(req.addr, req.bytes, is_write);
            return;
        }
        let end = req.addr + req.bytes;
        let mut addr = req.addr;
        let within = fast_mod(addr, interleave);
        if within != 0 {
            let head = (interleave - within).min(req.bytes);
            self.walk_chunks(addr, head, is_write);
            addr += head;
        }
        let blocks = fast_div(end - addr, interleave);
        if blocks > 0 {
            if let Some(acc) = &mut self.stripe {
                let first = fast_div(addr, interleave);
                acc.count(&mut self.pending, &self.config, first, blocks, is_write);
            }
            addr += blocks * interleave;
        }
        if addr < end {
            self.walk_chunks(addr, end - addr, is_write);
        }
    }

    /// Queues `[addr, addr + bytes)` chunk by chunk, one interleave chunk
    /// at a time, after flushing any counted stripe blocks ahead of it.
    fn walk_chunks(&mut self, mut addr: u64, bytes: u64, is_write: bool) {
        use crate::address::{fast_div, fast_mod};
        self.flush_stripe();
        let interleave = self.config.interleave_bytes;
        let channels = self.config.channels as u64;
        let width = self.config.bytes_per_cycle;
        let mut remaining = bytes;
        let block = fast_div(addr, interleave);
        let mut channel = fast_mod(block, channels) as usize;
        // `channel_block * interleave` for the current block; advances a
        // full interleave stripe each time the channel rotation wraps.
        let mut channel_base = fast_div(block, channels) * interleave;
        loop {
            let within = fast_mod(addr, interleave);
            let chunk = (interleave - within).min(remaining);
            let row = fast_div(channel_base + within, self.config.row_bytes);
            push_merged(&mut self.pending[channel], row, chunk, is_write, width);
            remaining -= chunk;
            if remaining == 0 {
                break;
            }
            addr += chunk;
            channel += 1;
            if channel == channels as usize {
                channel = 0;
                channel_base += interleave;
            }
        }
    }

    /// Moves any counted stripe blocks into the channel queues.
    fn flush_stripe(&mut self) {
        if let Some(acc) = &mut self.stripe {
            acc.flush(&mut self.pending, &self.config);
        }
    }

    /// Drains all queued requests, returning the batch statistics.
    ///
    /// The batch latency is the busy time of the slowest channel — the
    /// datapath overlaps DRAM access with compute, so this is the number the
    /// pipeline model needs.
    pub fn drain(&mut self) -> DrainStats {
        self.flush_stripe();
        let mut stats = DrainStats {
            cycles: 0,
            total_channel_busy: 0,
            activations: 0,
            read_bytes: 0,
            write_bytes: 0,
        };
        for (ch, queue) in self.channels.iter_mut().zip(&mut self.pending) {
            ch.start_window();
            let act_before = ch.activations();
            let rd_before = ch.read_bytes();
            let wr_before = ch.write_bytes();
            for &(row, bytes, is_write) in queue.iter() {
                ch.access(
                    row,
                    bytes,
                    is_write,
                    self.config.bytes_per_cycle,
                    self.config.activation_cycles,
                );
            }
            queue.clear();
            stats.cycles = stats.cycles.max(ch.busy_cycles());
            stats.total_channel_busy += ch.busy_cycles();
            stats.activations += ch.activations() - act_before;
            stats.read_bytes += ch.read_bytes() - rd_before;
            stats.write_bytes += ch.write_bytes() - wr_before;
        }
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
    /// 32-byte-beat stack and its two-channel 1/8 variant (both take the
    /// whole-block path), and an odd stack whose beat does not divide the
    /// interleave (every chunk walked).
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

        /// The whole-block stripe counts and the carried per-chunk walk
        /// drain to exactly what queueing every interleave chunk on its
        /// own gives, draining after every op that asks for it and at the
        /// end, on every config — lifetime counters included.
        #[test]
        fn coalesced_enqueue_matches_per_chunk_reference(
            ops in prop::collection::vec((0u8..8, 0u64..4096, 0u64..64, 0u64..4096), 1..48),
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
                        // Drain mid-stream.
                        _ => {}
                    }
                    for &req in &reqs {
                        fast.enqueue(req);
                        slow.enqueue(req);
                    }
                    if op == 7 || i + 1 == ops.len() {
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
