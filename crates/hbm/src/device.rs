//! The whole HBM stack: the channels and the planes of token rows that
//! feed them.

use crate::address::{AddressMap, Divisor};
use crate::channel::Channel;

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// DRAM → chip.
    Read,
    /// Chip → DRAM.
    Write,
}

/// One tensor plane's token rows: `rows` rows of `row_bytes` bytes, row
/// `i` at `base + ⌊i·span/rows⌋·row_bytes`. Cascade token pruning leaves
/// a layer's surviving rows spread over the `span` slots of the unpruned
/// plane; with `span == rows` the rows are one contiguous range, and a
/// plain request is a one-row plane ([`Plane::range`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plane {
    /// Address of slot 0.
    pub base: u64,
    /// Rows placed.
    pub rows: u64,
    /// Slots the rows are spread over; less than `rows` counts as `rows`.
    pub span: u64,
    /// Bytes per row.
    pub row_bytes: u64,
    /// Read or write.
    pub kind: RequestKind,
}

impl Plane {
    /// One contiguous range of `bytes` bytes at `addr`.
    pub fn range(addr: u64, bytes: u64, kind: RequestKind) -> Self {
        Self {
            base: addr,
            rows: 1,
            span: 1,
            row_bytes: bytes,
            kind,
        }
    }
}

/// HBM stack configuration (Table I defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HbmConfig {
    /// Number of channels, at most 64.
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

/// The HBM stack: every channel's row buffer and counters.
#[derive(Debug, Clone)]
pub struct Hbm {
    config: HbmConfig,
    channels: Vec<Channel>,
    /// Apart from the walk, which borrows it shared, so the row loop
    /// keeps the divisors in registers.
    geometry: Geometry,
    /// Work space of one [`Hbm::enqueue`]; empty between calls.
    walk: Walk,
    lifetime_activations: u64,
    lifetime_read_bytes: u64,
    lifetime_write_bytes: u64,
}

impl Hbm {
    /// A fresh stack.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has more than 64 channels, or if
    /// [`AddressMap::new`] rejects it.
    pub fn new(config: HbmConfig) -> Self {
        // Only the config check: `Geometry` and `Walk` place the rows.
        AddressMap::new(config.channels, config.interleave_bytes, config.row_bytes);
        assert!(config.channels <= 64, "at most 64 HBM channels");
        Self {
            config,
            channels: vec![Channel::new(); config.channels],
            geometry: Geometry::new(&config),
            walk: Walk::new(&config),
            lifetime_activations: 0,
            lifetime_read_bytes: 0,
            lifetime_write_bytes: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> HbmConfig {
        self.config
    }

    /// Places a plane's rows in the current window.
    ///
    /// The reference semantics are per chunk: each row splits into
    /// interleave chunks, and each chunk is one access to its channel — a
    /// row activation if the channel has another row open, then
    /// `ceil(bytes / bytes_per_cycle)` beats. Every chunk of a row stripe
    /// (`channels × row_bytes` bytes) lands on the same row of its
    /// channel, row `addr / (channels × row_bytes)`, because
    /// [`AddressMap`] makes `row_bytes` a multiple of the interleave. A
    /// plane's addresses only increase, so each channel opens each stripe
    /// it touches once, in stripe order (the first one not at all if its
    /// row is already open), and beats and bytes are sums whose order
    /// cannot matter. So the same [`DrainStats`] come out of one walk
    /// over the rows that gathers, and then lands on the channels once:
    ///
    /// * per stripe, the mask of channels it touches — a row that
    ///   straddles stripes marks its piece of each — and per channel,
    ///   how many stripes it touched, the first and the last;
    /// * the rows counted per key (offset within the interleave block,
    ///   first channel): rows with one key and one size split into the
    ///   same chunks on the same channels, so each key's chunks are added
    ///   once, times its count;
    /// * rows in adjacent slots taken as one range when their boundaries
    ///   are interleave-aligned, since such rows split into exactly the
    ///   chunks of their union, whole blocks that a difference array
    ///   counts per channel in O(1) per range.
    ///
    /// Nothing is left pending for a later call or for [`Hbm::drain`].
    pub fn enqueue(&mut self, plane: Plane) {
        let Plane {
            base,
            rows,
            row_bytes,
            kind,
            ..
        } = plane;
        if rows == 0 || row_bytes == 0 {
            return;
        }
        let span = plane.span.max(rows);
        let (g, walk) = (&self.geometry, &mut self.walk);
        // Row `i` sits at slot `⌊i·span / rows⌋`: `span / rows` slots
        // after row `i - 1`, plus one each time the remainders
        // `i·span mod rows` wrap around.
        let (step, rem) = (span / rows, span % rows);
        if step == 1 && g.interleave.rem(base) == 0 && g.interleave.rem(row_bytes) == 0 {
            // Rows in adjacent slots meet on interleave boundaries, so each
            // run of them goes as one range: from remainder `carry`, the
            // next wrap comes after `⌈(rows - carry) / rem⌉` rows.
            let (mut row, mut slot, mut carry) = (0, 0, 0);
            while row < rows {
                let run = match rem {
                    0 => rows,
                    _ => (rows - carry).div_ceil(rem),
                }
                .min(rows - row);
                walk.run(g, base + slot * row_bytes, run, row_bytes);
                row += run;
                slot += run + 1;
                carry = (carry + run * rem).wrapping_sub(rows);
            }
        } else {
            let (mut addr, mut carry) = (base, 0);
            for _ in 0..rows {
                walk.row(g, addr, row_bytes);
                addr += step * row_bytes;
                carry += rem;
                if carry >= rows {
                    carry -= rows;
                    addr += row_bytes;
                }
            }
        }
        walk.land(g, &mut self.channels, row_bytes, kind == RequestKind::Write);
    }

    /// Ends the window and returns its statistics.
    ///
    /// The batch latency is the busy time of the slowest channel — the
    /// datapath overlaps DRAM access with compute, so this is the number the
    /// pipeline model needs.
    pub fn drain(&mut self) -> DrainStats {
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
        self.enqueue(Plane::range(addr, bytes, RequestKind::Read));
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

/// What a plane's rows owe the channels, gathered in one walk over the
/// rows in address order and landed on the channels once at its end.
#[derive(Debug, Clone)]
struct Walk {
    /// Rows per key `offset × channels + channel`: rows that start
    /// `offset` bytes into an interleave block of `channel`.
    rows: Vec<u64>,
    /// The keys `rows` holds a count for.
    keys: Vec<usize>,
    /// Difference array (`channels + 1` slots) of each channel's whole
    /// blocks: a channel holds the sum of the slots up to its own.
    blocks: Vec<i64>,
    /// The stripe the walk is in, and the channels it marked there.
    stripe: u64,
    mask: u64,
    /// The stripes behind the walk that every channel touched.
    full: Stripes,
    /// Per channel, the other stripes behind the walk it touched.
    partial: Vec<Stripes>,
}

/// Some of a plane's row stripes, in increasing order: how many, the
/// first and the last.
#[derive(Debug, Clone, Copy, Default)]
struct Stripes {
    count: u64,
    first: u64,
    last: u64,
}

impl Stripes {
    fn add(&mut self, stripe: u64) {
        if self.count == 0 {
            self.first = stripe;
        }
        self.count += 1;
        self.last = stripe;
    }

    /// The union of two disjoint sets.
    fn union(self, other: Stripes) -> Stripes {
        match (self.count, other.count) {
            (0, _) => other,
            (_, 0) => self,
            _ => Stripes {
                count: self.count + other.count,
                first: self.first.min(other.first),
                last: self.last.max(other.last),
            },
        }
    }
}

/// The configuration as the walk reads it: divisors for what it divides
/// by per row.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    interleave: Divisor,
    channels: Divisor,
    /// Interleave blocks per row stripe.
    stripe_blocks: Divisor,
    bytes_per_cycle: u64,
    activation_cycles: u64,
}

impl Geometry {
    fn new(config: &HbmConfig) -> Self {
        let channels = config.channels as u64;
        Self {
            interleave: Divisor::new(config.interleave_bytes),
            channels: Divisor::new(channels),
            stripe_blocks: Divisor::new(channels * (config.row_bytes / config.interleave_bytes)),
            bytes_per_cycle: config.bytes_per_cycle,
            activation_cycles: config.activation_cycles,
        }
    }

    /// The channels `blocks` consecutive blocks from global block
    /// `first` land on.
    #[inline(always)]
    fn channel_mask(&self, first: u64, blocks: u64) -> u64 {
        let (all, channels) = (self.all(), self.channels.get());
        if blocks >= channels {
            return all;
        }
        let run = ((1u128 << blocks) - 1) << self.channels.rem(first);
        (run | run >> channels) as u64 & all
    }

    /// The mask of every channel.
    fn all(&self) -> u64 {
        u64::MAX >> (64 - self.channels.get())
    }
}

impl Walk {
    fn new(config: &HbmConfig) -> Self {
        Self {
            rows: vec![0; config.interleave_bytes as usize * config.channels],
            keys: Vec::new(),
            blocks: vec![0; config.channels + 1],
            stripe: 0,
            mask: 0,
            full: Stripes::default(),
            partial: vec![Stripes::default(); config.channels],
        }
    }

    /// Counts one row of `bytes` bytes at `addr` under its key and marks
    /// its channels.
    #[inline(always)]
    fn row(&mut self, g: &Geometry, addr: u64, bytes: u64) {
        let block = g.interleave.div(addr);
        let key = g.interleave.rem(addr) * g.channels.get() + g.channels.rem(block);
        let count = &mut self.rows[key as usize];
        if *count == 0 {
            self.keys.push(key as usize);
        }
        *count += 1;
        self.mark(g, block, g.interleave.div(addr + bytes - 1));
    }

    /// Places `rows` adjacent, interleave-aligned rows from `start`: one
    /// row by key, more as whole blocks.
    fn run(&mut self, g: &Geometry, start: u64, rows: u64, row_bytes: u64) {
        if rows == 1 {
            self.row(g, start, row_bytes);
            return;
        }
        let block = g.interleave.div(start);
        let blocks = g.interleave.div(rows * row_bytes);
        self.count_blocks(g, g.channels.rem(block), blocks, 1);
        self.mark(g, block, block + blocks - 1);
    }

    /// Counts `times` copies of `blocks` whole blocks from `channel` on.
    fn count_blocks(&mut self, g: &Geometry, channel: u64, blocks: u64, times: u64) {
        // Every channel gets `blocks / channels` blocks, and the cyclic
        // range of `blocks % channels` channels from `channel` one more.
        let (slots, times) = (&mut self.blocks, times as i64);
        slots[0] += times * g.channels.div(blocks) as i64;
        let (first, channels) = (channel as usize, g.channels.get() as usize);
        let last = first + g.channels.rem(blocks) as usize;
        if last > first {
            slots[first] += times;
            if last <= channels {
                slots[last] -= times;
            } else {
                slots[0] += times;
                slots[last - channels] -= times;
            }
        }
    }

    /// Marks the channels of blocks `first..=last` in the stripes that
    /// hold them.
    #[inline(always)]
    fn mark(&mut self, g: &Geometry, first: u64, last: u64) {
        let (from, to) = (g.stripe_blocks.div(first), g.stripe_blocks.div(last));
        let per_stripe = g.stripe_blocks.get();
        if from != self.stripe {
            self.close(g);
            self.stripe = from;
        }
        if from == to {
            self.mask |= g.channel_mask(first, last - first + 1);
            return;
        }
        self.mask |= g.channel_mask(first, (from + 1) * per_stripe - first);
        for stripe in from + 1..=to {
            self.close(g);
            self.stripe = stripe;
            self.mask = g.channel_mask(stripe * per_stripe, last + 1 - stripe * per_stripe);
        }
    }

    /// Records the current stripe for the channels it marked.
    fn close(&mut self, g: &Geometry) {
        let mut mask = std::mem::take(&mut self.mask);
        if mask == g.all() {
            self.full.add(self.stripe);
            return;
        }
        while mask != 0 {
            let channel = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            self.partial[channel].add(self.stripe);
        }
    }

    /// Adds `times` copies of the chunks of `bytes` bytes that start
    /// `offset` bytes into a block of `channel`: a first chunk to the
    /// block's end, whole blocks, and a partial last chunk.
    fn add_chunks(
        &mut self,
        g: &Geometry,
        channels: &mut [Channel],
        (offset, channel): (u64, u64),
        bytes: u64,
        times: u64,
        is_write: bool,
    ) {
        let beats = |bytes: u64| times * bytes.div_ceil(g.bytes_per_cycle);
        let interleave = g.interleave.get();
        let head = (interleave - offset).min(bytes);
        channels[channel as usize].transfer(beats(head), times * head, is_write);
        let blocks = (bytes - head) / interleave;
        let tail = bytes - head - blocks * interleave;
        if tail > 0 {
            let last = g.channels.rem(channel + 1 + blocks) as usize;
            channels[last].transfer(beats(tail), times * tail, is_write);
        }
        if blocks > 0 {
            self.count_blocks(g, g.channels.rem(channel + 1), blocks, times);
        }
    }

    /// Opens each channel's stripes, adds every counted chunk and block
    /// to the channels, and empties the walk.
    fn land(&mut self, g: &Geometry, channels: &mut [Channel], row_bytes: u64, is_write: bool) {
        self.close(g);
        let full = std::mem::take(&mut self.full);
        for (channel, partial) in channels.iter_mut().zip(&mut self.partial) {
            let stripes = std::mem::take(partial).union(full);
            if stripes.count > 0 {
                channel.open_rows(
                    stripes.first,
                    stripes.last,
                    stripes.count,
                    g.activation_cycles,
                );
            }
        }
        let keys = std::mem::take(&mut self.keys);
        for &key in &keys {
            let times = std::mem::take(&mut self.rows[key]);
            let key = (g.channels.div(key as u64), g.channels.rem(key as u64));
            self.add_chunks(g, channels, key, row_bytes, times, is_write);
        }
        self.keys = keys;
        self.keys.clear();
        let interleave = g.interleave.get();
        let block_beats = interleave.div_ceil(g.bytes_per_cycle);
        let mut blocks = 0i64;
        for (channel, slot) in channels.iter_mut().zip(&mut self.blocks) {
            blocks += std::mem::take(slot);
            if blocks > 0 {
                let blocks = blocks as u64;
                channel.transfer(blocks * block_beats, blocks * interleave, is_write);
            }
        }
        *self.blocks.last_mut().expect("channels + 1 slots") = 0;
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
        // Only touch channel 0 blocks: one block in every `channels`.
        h.enqueue(Plane {
            base: 0,
            rows: 512,
            span: 512 * cfg.channels as u64,
            row_bytes: cfg.interleave_bytes,
            kind: RequestKind::Read,
        });
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
        let blocks_per_stripe = cfg.row_bytes / 32 * cfg.channels as u64;
        h.enqueue(Plane {
            base: 0,
            rows: 64,
            span: 64 * blocks_per_stripe,
            row_bytes: 32,
            kind: RequestKind::Read,
        });
        let stats = h.drain();
        assert_eq!(stats.activations, 64);
        assert!(stats.cycles >= 64 * cfg.activation_cycles);
    }

    #[test]
    fn writes_are_counted_separately() {
        let mut h = hbm();
        h.enqueue(Plane::range(0, 4096, RequestKind::Write));
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

    /// The per-chunk model, kept as the oracle for the plane path: every
    /// row placed on its own at `base + ⌊i·span/rows⌋·row_bytes`, one
    /// queue entry and one row-buffer access per interleave chunk,
    /// addresses decoded one by one.
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

        fn enqueue(&mut self, plane: Plane) {
            let is_write = plane.kind == RequestKind::Write;
            let span = plane.span.max(plane.rows);
            for i in 0..plane.rows {
                let mut addr = plane.base + i * span / plane.rows * plane.row_bytes;
                let mut remaining = plane.row_bytes;
                while remaining > 0 {
                    let within = addr % self.cfg.interleave_bytes;
                    let chunk = (self.cfg.interleave_bytes - within).min(remaining);
                    let d = self.map.decode(addr);
                    self.queues[d.channel].push((d.row, chunk, is_write));
                    addr += chunk;
                    remaining -= chunk;
                }
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

        /// Planes drain to exactly what accessing every interleave chunk
        /// of every row on its own gives, mixed with one-row requests of
        /// every shape, draining after every op that asks for it and at
        /// the end, on every config — lifetime counters included.
        #[test]
        fn coalesced_enqueue_matches_per_chunk_reference(
            ops in prop::collection::vec((0u8..10, 0u64..4096, 0u64..64, 0u64..4096), 1..48),
        ) {
            for cfg in property_configs() {
                let mut fast = Hbm::new(cfg);
                let mut slow = RefHbm::new(cfg);
                let stripe = cfg.channels as u64 * cfg.row_bytes;
                let mut cursor = 0u64;
                let mut sums = [0u64; 3];
                let mut planes = Vec::new();
                for (i, &(op, a, b, c)) in ops.iter().enumerate() {
                    let kind = if b % 2 == 0 { RequestKind::Read } else { RequestKind::Write };
                    let range = |addr, bytes, kind| Plane::range(addr, bytes, kind);
                    planes.clear();
                    match op {
                        // Gapped token rows, one request each: `tokens`
                        // survivors scattered over `span` slots.
                        0 | 1 => {
                            let bpt = ROW_BYTES[(a % 8) as usize];
                            let tokens = b + 1;
                            let span = tokens + c % 96;
                            for t in 0..tokens {
                                let addr = cursor + (t * span / tokens) * bpt;
                                planes.push(range(addr, bpt, RequestKind::Read));
                            }
                            cursor += span * bpt;
                        }
                        // One request with an unaligned head and tail.
                        2 => {
                            planes.push(range(cursor + a % 97, c + 1, kind));
                            cursor += a % 97 + c + 1;
                        }
                        // Backwards: re-touch rows behind the cursor.
                        3 => {
                            let addr = cursor.saturating_sub(a * 7);
                            planes.push(range(addr, c % 2048 + 1, kind));
                        }
                        // Straddle a row-stripe boundary.
                        4 => {
                            let edge = (cursor / stripe + 1) * stripe;
                            let back = (a % 3).min(edge / 32) * 32 + b % 3;
                            planes.push(range(edge - back, back + c + 1, kind));
                            cursor = edge + c + 1;
                        }
                        // A write between two aligned reads.
                        5 => {
                            let bpt = ROW_BYTES[(a % 5) as usize];
                            for (j, kind) in [RequestKind::Read, RequestKind::Write, RequestKind::Read]
                                .into_iter()
                                .enumerate()
                            {
                                planes.push(range(cursor + j as u64 * bpt, bpt, kind));
                            }
                            cursor += 3 * bpt;
                        }
                        // A long aligned run across many stripes, or nothing.
                        6 => {
                            let bytes = if c % 8 == 0 { 0 } else { c * 32 };
                            planes.push(range(cursor / 32 * 32, bytes, kind));
                            cursor += bytes;
                        }
                        // Back-to-back token rows of every size, one
                        // request each, broken by a gap or ended by an
                        // adjoining write.
                        7 => {
                            let tokens = b + 1;
                            for bpt in ROW_BYTES {
                                for t in 0..tokens {
                                    if a % 2 == 1 && t == tokens / 2 {
                                        cursor += c % 97 + 1;
                                    }
                                    planes.push(range(cursor, bpt, RequestKind::Read));
                                    cursor += bpt;
                                }
                                if a % 3 == 0 {
                                    planes.push(range(cursor, bpt, RequestKind::Write));
                                    cursor += bpt;
                                }
                            }
                        }
                        // A plane: 1–400 rows of any size from a base on
                        // both interleaves (24 and 32 bytes) or off them,
                        // back to back, with gaps of one row, or with
                        // gaps of many.
                        8 => {
                            let row_bytes = ROW_BYTES[(a % 8) as usize];
                            let skew = if a / 8 % 2 == 0 { 0 } else { a / 16 % 97 };
                            let base = cursor.div_ceil(96) * 96 + skew;
                            let rows = c % 400 + 1;
                            let span = match c / 400 % 3 {
                                0 => rows,
                                1 => rows + rows / (b % 8 + 1),
                                _ => rows * (b % 6 + 2) + b,
                            };
                            let kind = if a / 2048 == 0 { RequestKind::Read } else { RequestKind::Write };
                            planes.push(Plane { base, rows, span, row_bytes, kind });
                            cursor = base + span * row_bytes;
                        }
                        // Drain mid-stream.
                        _ => {}
                    }
                    for &plane in &planes {
                        fast.enqueue(plane);
                        slow.enqueue(plane);
                    }
                    if op == 9 || i + 1 == ops.len() {
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
