//! Physical address decomposition.
//!
//! SpAtten interleaves Q/K/V across all 16 HBM channels so the Q-K-V
//! fetcher can keep every channel busy (§IV-D). The interleaving
//! granularity is one 32-byte access (two 16-byte pseudo-channel beats).

/// A divisor fixed for the life of a stack, divided by with a shift when
/// it is a power of two. Channel counts, interleave granularities and row
/// sizes are powers of two in every real HBM part, and the plane walk
/// divides by them per token row: a shift is an order of magnitude cheaper
/// than a 64-bit division, and the branch predicts perfectly.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Divisor {
    value: u64,
    shift: Option<u32>,
}

impl Divisor {
    pub(crate) fn new(value: u64) -> Self {
        Self {
            value,
            shift: value.is_power_of_two().then(|| value.trailing_zeros()),
        }
    }

    /// The divisor itself.
    pub(crate) fn get(self) -> u64 {
        self.value
    }

    #[inline(always)]
    pub(crate) fn div(self, x: u64) -> u64 {
        match self.shift {
            Some(shift) => x >> shift,
            None => x / self.value,
        }
    }

    #[inline(always)]
    pub(crate) fn rem(self, x: u64) -> u64 {
        match self.shift {
            Some(_) => x & (self.value - 1),
            None => x % self.value,
        }
    }
}

/// A decoded physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecodedAddress {
    /// HBM channel index.
    pub channel: usize,
    /// DRAM row within the channel.
    pub row: u64,
    /// Byte offset within the row.
    pub column: u64,
}

/// Address → (channel, row, column) mapping with channel interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMap {
    channels: usize,
    interleave_bytes: u64,
    row_bytes: u64,
}

impl AddressMap {
    /// Creates a map.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or `row_bytes` is not a multiple of
    /// `interleave_bytes`.
    pub fn new(channels: usize, interleave_bytes: u64, row_bytes: u64) -> Self {
        assert!(channels > 0, "need at least one channel");
        assert!(
            interleave_bytes > 0,
            "interleave granularity must be positive"
        );
        assert!(
            row_bytes > 0 && row_bytes.is_multiple_of(interleave_bytes),
            "row size must be a positive multiple of the interleave granularity"
        );
        Self {
            channels,
            interleave_bytes,
            row_bytes,
        }
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Interleave granularity in bytes.
    pub fn interleave_bytes(&self) -> u64 {
        self.interleave_bytes
    }

    /// Row size in bytes.
    pub fn row_bytes(&self) -> u64 {
        self.row_bytes
    }

    /// Decodes an address: consecutive `interleave_bytes` blocks rotate
    /// through channels; within a channel, blocks fill rows sequentially.
    pub fn decode(&self, addr: u64) -> DecodedAddress {
        let block = addr / self.interleave_bytes;
        let channel = (block % self.channels as u64) as usize;
        let channel_block = block / self.channels as u64;
        let channel_byte = channel_block * self.interleave_bytes + addr % self.interleave_bytes;
        DecodedAddress {
            channel,
            row: channel_byte / self.row_bytes,
            column: channel_byte % self.row_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> AddressMap {
        AddressMap::new(16, 32, 1024)
    }

    #[test]
    fn consecutive_blocks_rotate_channels() {
        let m = map();
        for i in 0..32u64 {
            assert_eq!(m.decode(i * 32).channel, (i % 16) as usize);
        }
    }

    #[test]
    fn same_block_same_channel() {
        let m = map();
        let a = m.decode(64);
        let b = m.decode(95);
        assert_eq!(a.channel, b.channel);
        assert_eq!(a.row, b.row);
    }

    #[test]
    fn rows_advance_after_row_bytes_per_channel() {
        let m = map();
        // Channel 0 sees blocks 0, 16, 32, ... Each row holds 1024/32 = 32
        // blocks, so block index 16*32 = 512 (addr 512*32) starts row 1.
        let first_of_row1 = m.decode(512 * 32);
        assert_eq!(first_of_row1.channel, 0);
        assert_eq!(first_of_row1.row, 1);
        assert_eq!(first_of_row1.column, 0);
    }

    #[test]
    fn column_tracks_offset_within_row() {
        let m = map();
        let d = m.decode(32 * 16 + 7); // second block of channel 0
        assert_eq!(d.channel, 0);
        assert_eq!(d.row, 0);
        assert_eq!(d.column, 32 + 7);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn misaligned_row_size_rejected() {
        let _ = AddressMap::new(16, 48, 1024);
    }
}
