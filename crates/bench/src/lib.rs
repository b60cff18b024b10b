//! Shared helpers for the per-table/figure harness binaries.
//!
//! Every `fig*`, `table*` and `headline` binary in `src/bin/` regenerates
//! one table or figure of the paper's evaluation section and prints the
//! same rows/series the paper reports, alongside the paper's own numbers
//! where available so the reader can compare shapes directly; their
//! stdout is snapshotted under `snapshots/`. The `gates` binary is the
//! serving layer's regression gate table (see its module doc).

use spatten_core::{Accelerator, RunReport, SpAttenConfig};
use spatten_workloads::Benchmark;

/// Geometric mean of a non-empty slice.
///
/// # Panics
///
/// Panics on an empty slice or non-positive entries.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing");
    assert!(values.iter().all(|&v| v > 0.0), "geomean needs positives");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Prints a header row followed by a separator sized to it.
pub fn print_header(title: &str, columns: &str) {
    println!("\n=== {title} ===");
    println!("{columns}");
    println!("{}", "-".repeat(columns.len().min(120)));
}

/// Runs the default-configuration accelerator on one benchmark.
pub fn run_spatten(bench: &Benchmark) -> RunReport {
    Accelerator::new(SpAttenConfig::default()).run(&bench.workload())
}

/// Formats a speedup-style factor compactly.
pub fn fmt_x(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}x")
    } else if v >= 10.0 {
        format!("{v:.1}x")
    } else {
        format!("{v:.2}x")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn fmt_x_ranges() {
        assert_eq!(fmt_x(162.4), "162x");
        assert_eq!(fmt_x(35.2), "35.2x");
        assert_eq!(fmt_x(1.61), "1.61x");
    }

    #[test]
    #[should_panic(expected = "geomean of nothing")]
    fn geomean_rejects_empty() {
        let _ = geomean(&[]);
    }
}
