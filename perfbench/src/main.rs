//! The repository benchmark: three workloads over the SpAtten serving
//! stack, each checked for correct output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim-steady|sim-sweep|live-stream> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The line before
//! it carries the run's detail: the workload's count fingerprint, which
//! percentile the tail is, and, for a traced `live-stream`, every
//! request's spans. `perfbench/README.md` explains each number.

use std::process::ExitCode;

mod live;
mod report;
mod sim;
mod stats;
mod tracer;

/// Command-line arguments; all four are required.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad(&"must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "sim-steady" => sim::steady(&args),
        "sim-sweep" => sim::sweep(&args),
        "live-stream" => match live::stream(&args) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: live-stream: {e}");
                return ExitCode::FAILURE;
            }
        },
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let names: &[(&str, &str)] = if args.trace {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    };
    let result = outcome.result_line(names);
    let detail = outcome
        .detail
        .str("workload", &args.workload)
        .u64("seed", args.seed)
        .bool("trace", args.trace)
        .build();
    println!("{detail}");
    println!("{result}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn every_flag_is_required_and_checked() {
        let a = parse("--workload sim-sweep --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("sim-sweep", 7, 10.0, true)
        );
        assert!(parse("--workload sim-sweep --seed 7 --seconds 10").is_err());
        assert!(parse("--workload x --seed -1 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload x --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload x --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload x --seed 1 --seconds 1 --trace 0 --extra 1").is_err());
    }
}
