//! The bitwidth converter (paper §IV-D).
//!
//! DRAM stores 4/6/8/10/12-bit MSB planes and 4-bit LSB planes; the on-chip
//! datapath is fixed 12-bit. The converter widens fetched MSBs (and splices
//! in LSBs when progressive quantization fetched them) using MUXes and a
//! shifter for unaligned reads. It is fully pipelined (one line per cycle),
//! so its contribution to timing is a fixed latency; what matters is the
//! functional widening and the conversion count for energy.

use spatten_quant::SplitQuantized;

/// Pipeline latency of the converter in cycles.
const CONVERT_LATENCY: u64 = 2;

/// The DRAM-to-on-chip bitwidth converter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitwidthConverter {
    conversions: u64,
}

impl BitwidthConverter {
    /// A fresh converter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fixed pipeline latency.
    pub fn latency_cycles(&self) -> u64 {
        CONVERT_LATENCY
    }

    /// Lifetime elements converted.
    pub fn conversions(&self) -> u64 {
        self.conversions
    }

    /// Widens the MSB plane of `tensor` to on-chip values (LSBs read as
    /// zero), booking the conversions.
    pub fn widen_msb_only(&mut self, tensor: &SplitQuantized) -> Vec<f32> {
        self.conversions += tensor.len() as u64;
        tensor.dequantize_msb_only()
    }

    /// Splices MSB and LSB planes into full-precision on-chip values.
    pub fn widen_full(&mut self, tensor: &SplitQuantized) -> Vec<f32> {
        self.conversions += tensor.len() as u64;
        tensor.dequantize_full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatten_quant::BitwidthScheme;

    #[test]
    fn widen_matches_split_quantized_semantics() {
        let data = [0.4f32, -0.8, 0.05, 0.9];
        let sq = SplitQuantized::from_f32(&data, BitwidthScheme::Msb8Lsb4);
        let mut conv = BitwidthConverter::new();
        assert_eq!(conv.widen_msb_only(&sq), sq.dequantize_msb_only());
        assert_eq!(conv.widen_full(&sq), sq.dequantize_full());
        assert_eq!(conv.conversions(), 8);
    }

    #[test]
    fn latency_is_constant() {
        let conv = BitwidthConverter::new();
        assert_eq!(conv.latency_cycles(), 2);
    }
}
