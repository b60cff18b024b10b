//! On-chip SRAMs (the 196 KB Key and Value buffers of Table I).
//!
//! The size is chosen as `2 × 1024 tokens × 64 dims × 12 bits`: double
//! buffering for a 1024-token context at head dimension 64. The simulator
//! tracks accesses for energy accounting and answers capacity questions for
//! the design-space exploration (Fig. 19b).

/// A sized SRAM with access counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sram {
    name: &'static str,
    bytes: u64,
    line_bytes: u64,
    double_buffered: bool,
    reads: u64,
    writes: u64,
}

impl Sram {
    /// A new SRAM of `bytes` total capacity with `line_bytes` access width.
    ///
    /// # Panics
    ///
    /// Panics if sizes are zero or the line exceeds the capacity.
    pub fn new(name: &'static str, bytes: u64, line_bytes: u64, double_buffered: bool) -> Self {
        assert!(bytes > 0 && line_bytes > 0, "sizes must be positive");
        assert!(line_bytes <= bytes, "line exceeds capacity");
        Self {
            name,
            bytes,
            line_bytes,
            double_buffered,
            reads: 0,
            writes: 0,
        }
    }

    /// The 196 KB Key/Value SRAM of Table I (line = 512 × 12 bit = 768 B).
    pub fn spatten_kv(name: &'static str) -> Self {
        Self::new(name, 196 * 1024, 768, true)
    }

    /// Name for reports.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Total capacity in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Usable capacity per buffer (half when double-buffered).
    pub fn usable_bytes(&self) -> u64 {
        if self.double_buffered {
            self.bytes / 2
        } else {
            self.bytes
        }
    }

    /// Whether `payload_bytes` fits in one buffer.
    pub fn fits(&self, payload_bytes: u64) -> bool {
        payload_bytes <= self.usable_bytes()
    }

    /// Max token rows that fit, given `bits_per_token` storage per row.
    pub fn token_capacity(&self, bits_per_token: u64) -> u64 {
        self.usable_bytes() * 8 / bits_per_token
    }

    /// Books `n` line reads.
    pub fn read_lines(&mut self, n: u64) {
        self.reads += n;
    }

    /// Books `n` line writes.
    pub fn write_lines(&mut self, n: u64) {
        self.writes += n;
    }

    /// Line reads so far.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Line writes so far.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Bytes moved (reads + writes) for energy accounting.
    pub fn bytes_moved(&self) -> u64 {
        (self.reads + self.writes) * self.line_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_kv_sram_holds_1024_tokens_double_buffered() {
        let s = Sram::spatten_kv("key");
        // 1024 tokens × 64 dims × 12 bits = 98 304 B per buffer.
        assert!(s.fits(1024 * 64 * 12 / 8));
        assert!(!s.fits(2 * 1024 * 64 * 12 / 8));
        assert_eq!(s.token_capacity(64 * 12), 1024 * 196 / 192); // ≈ 1045
    }

    #[test]
    fn access_counters_accumulate() {
        let mut s = Sram::new("t", 1024, 64, false);
        s.read_lines(3);
        s.write_lines(2);
        assert_eq!(s.reads(), 3);
        assert_eq!(s.writes(), 2);
        assert_eq!(s.bytes_moved(), 5 * 64);
    }

    #[test]
    fn single_buffered_uses_full_capacity() {
        let s = Sram::new("t", 1024, 64, false);
        assert_eq!(s.usable_bytes(), 1024);
        let d = Sram::new("t", 1024, 64, true);
        assert_eq!(d.usable_bytes(), 512);
    }

    #[test]
    #[should_panic(expected = "line exceeds capacity")]
    fn oversized_line_rejected() {
        let _ = Sram::new("t", 64, 128, false);
    }
}
