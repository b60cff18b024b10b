//! Property-based tests for the quantization substrate.

use proptest::prelude::*;
use spatten_quant::{
    max_abs_error, softmax, BitwidthScheme, Fixed, LinearQuantizer, SplitQuantized,
};

fn finite_f32() -> impl Strategy<Value = f32> {
    (-1000.0f32..1000.0).prop_filter("finite", |v| v.is_finite())
}

proptest! {
    #[test]
    fn softmax_always_sums_to_one(scores in prop::collection::vec(-30.0f32..30.0, 1..256)) {
        let p = softmax(&scores);
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|&x| (0.0..=1.0 + 1e-6).contains(&x)));
    }

    #[test]
    fn softmax_preserves_order(scores in prop::collection::vec(-10.0f32..10.0, 2..64)) {
        let p = softmax(&scores);
        for i in 0..scores.len() {
            for j in 0..scores.len() {
                if scores[i] > scores[j] {
                    prop_assert!(p[i] >= p[j] - 1e-6);
                }
            }
        }
    }

    #[test]
    fn quantizer_roundtrip_bounded_by_half_step(
        data in prop::collection::vec(finite_f32(), 1..128),
        bits in 3u32..16,
    ) {
        let q = LinearQuantizer::fit(&data, bits);
        let back = q.quantize(&data).dequantize();
        let half_step = q.max_rounding_error();
        prop_assert!(max_abs_error(&data, &back) <= half_step * (1.0 + 1e-3) + 1e-5);
    }

    #[test]
    fn quantize_is_idempotent(
        data in prop::collection::vec(finite_f32(), 1..64),
        bits in 3u32..14,
    ) {
        // Quantizing already-quantized data with the same quantizer is exact.
        let q = LinearQuantizer::fit(&data, bits);
        let once = q.quantize(&data).dequantize();
        let twice = q.quantize(&once).dequantize();
        prop_assert!(max_abs_error(&once, &twice) < 1e-5);
    }

    #[test]
    fn split_full_recovers_at_least_msb_accuracy(
        data in prop::collection::vec(-4.0f32..4.0, 1..128),
    ) {
        for scheme in BitwidthScheme::ALL {
            let sq = SplitQuantized::from_f32(&data, scheme);
            let full = sq.dequantize_full();
            let msb = sq.dequantize_msb_only();
            let full_err: f32 = data.iter().zip(&full).map(|(a, b)| (a - b).abs()).sum();
            let msb_err: f32 = data.iter().zip(&msb).map(|(a, b)| (a - b).abs()).sum();
            prop_assert!(full_err <= msb_err + 1e-4);
        }
    }

    #[test]
    fn fixed_add_matches_float(
        a in -100.0f32..100.0,
        b in -100.0f32..100.0,
    ) {
        let fa = Fixed::from_f32(a, 12);
        let fb = Fixed::from_f32(b, 12);
        let sum = fa.add(fb).to_f32();
        prop_assert!((sum - (a + b)).abs() < 2.0 / 4096.0);
    }

    #[test]
    fn fixed_rescale_roundtrip_widening_is_exact(raw in -10_000i64..10_000) {
        let fx = Fixed::from_raw(raw, 4);
        let wide = fx.rescale(12);
        let back = wide.rescale(4);
        prop_assert_eq!(back.raw(), raw);
    }
}
