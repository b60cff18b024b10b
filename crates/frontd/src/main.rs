//! `spatten-frontd` — serve the SpAtten fleet simulator over live HTTP.
//!
//! ```text
//! spatten-frontd [--bind ADDR] [--chips N] [--max-batch N]
//!                [--time-scale X] [--workers N]
//!                [--drain CHIP@MS]... [--revoke CHIP@MS:GRACE_MS]...
//!                [--join MS]...
//!                [--selftest [--requests N] [--metrics-out FILE]]
//! ```
//!
//! Without `--selftest` the server runs until killed. With it, the
//! loopback smoke swarm runs in-process, the combined metrics artifact
//! is written to `--metrics-out` (or stdout), and the exit code reports
//! whether every exchange was well-formed.

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

use spatten_frontd::{selftest, Server, ServerConfig};
use spatten_serve::{ChipJoin, ChipLeave, LeaveMode};

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!(
        "usage: spatten-frontd [--bind ADDR] [--chips N] [--max-batch N] \
         [--time-scale X] [--workers N] [--drain CHIP@MS]... \
         [--revoke CHIP@MS:GRACE_MS]... [--join MS]... \
         [--selftest [--requests N] [--metrics-out FILE]]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut cfg = ServerConfig::default();
    let mut bind = "127.0.0.1:8000".to_string();
    let mut run_selftest = false;
    let mut requests = 200usize;
    let mut metrics_out: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let parsed = match flag.as_str() {
            "--bind" => value(&mut args, &flag).map(|v| bind = v),
            "--chips" => value(&mut args, &flag).map(|v| cfg.chips = v),
            "--max-batch" => value(&mut args, &flag).map(|v| cfg.max_batch = v),
            "--time-scale" => value(&mut args, &flag).map(|v| cfg.time_scale = v),
            "--workers" => value(&mut args, &flag).map(|v| cfg.workers = v),
            "--drain" => value(&mut args, &flag)
                .and_then(|v: String| parse_chip_at(&v))
                .map(|(chip, at_ns)| {
                    cfg.events.leaves.push(ChipLeave {
                        chip,
                        at_ns,
                        mode: LeaveMode::Drain,
                    })
                }),
            "--revoke" => value(&mut args, &flag)
                .and_then(|v: String| parse_revoke(&v))
                .map(|leave| cfg.events.leaves.push(leave)),
            "--join" => value(&mut args, &flag)
                .and_then(|v: String| parse_ms(&v))
                .map(|at_ns| {
                    cfg.events.joins.push(ChipJoin {
                        chip_config: spatten_core::SpAttenConfig::default(),
                        at_ns,
                    })
                }),
            "--selftest" => {
                run_selftest = true;
                Ok(())
            }
            "--requests" => value(&mut args, &flag).map(|v| requests = v),
            "--metrics-out" => value(&mut args, &flag).map(|v| metrics_out = Some(v)),
            other => Err(format!("unknown flag {other}")),
        };
        if let Err(e) = parsed {
            return usage(&e);
        }
    }

    if let Err(e) = cfg.validate() {
        return usage(&e.to_string());
    }

    if run_selftest {
        // The smoke wants throughput, not realtime: compress the wall
        // clock unless the caller tuned it themselves.
        if cfg.time_scale == 1.0 {
            cfg.time_scale = 8.0;
        }
        let report = selftest::run(requests, cfg);
        let artifact = report.artifact_json();
        match &metrics_out {
            Some(path) => {
                if let Err(e) = std::fs::write(path, &artifact) {
                    eprintln!("error: writing {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("metrics artifact written to {path}");
            }
            None => println!("{artifact}"),
        }
        let broken = report.broken();
        eprintln!(
            "selftest: {} streamed, {} rejected, {} broken of {requests}",
            report.streamed(),
            report.rejected(),
            broken.len()
        );
        if !broken.is_empty() {
            for b in &broken {
                eprintln!("  {b:?}");
            }
            return ExitCode::FAILURE;
        }
        if report.streamed() + report.rejected() != requests {
            eprintln!("error: {} exchanges unaccounted for", requests);
            return ExitCode::FAILURE;
        }
        if report.rejected() == 0 {
            eprintln!("error: the unmeetable-SLO clients were not shed by live admission");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    match Server::start(cfg, &bind) {
        Ok(server) => {
            eprintln!("spatten-frontd listening on http://{}", server.addr());
            eprintln!(
                "  POST /v1/generate  {{\"prompt_tokens\":128,\"gen_tokens\":32,\"slo_ms\":250}}"
            );
            eprintln!("  GET  /metrics      live snapshot");
            eprintln!("  GET  /healthz      liveness");
            // Serve until the process is killed; the acceptors and the
            // engine thread do all the work.
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
        Err(e) => {
            eprintln!("error: binding {bind}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The value after `flag` on the command line, parsed as a `T`.
fn value<T: FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<T, String>
where
    T::Err: Display,
{
    let v = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().map_err(|e| format!("bad {flag} {v}: {e}"))
}

/// `CHIP@MS` → (chip index, virtual ns).
fn parse_chip_at(v: &str) -> Result<(usize, u64), String> {
    let (chip, ms) = v
        .split_once('@')
        .ok_or_else(|| format!("expected CHIP@MS, got {v}"))?;
    Ok((
        chip.parse().map_err(|e| format!("bad chip in {v}: {e}"))?,
        parse_ms(ms)?,
    ))
}

/// `CHIP@MS:GRACE_MS` → a revocation leave.
fn parse_revoke(v: &str) -> Result<ChipLeave, String> {
    let (chip_at, grace) = v
        .split_once(':')
        .ok_or_else(|| format!("expected CHIP@MS:GRACE_MS, got {v}"))?;
    let (chip, at_ns) = parse_chip_at(chip_at)?;
    Ok(ChipLeave {
        chip,
        at_ns,
        mode: LeaveMode::Revoke {
            grace_ns: parse_ms(grace)?,
        },
    })
}

/// Milliseconds (fractional ok) → nanoseconds.
fn parse_ms(v: &str) -> Result<u64, String> {
    let ms: f64 = v.parse().map_err(|e| format!("bad ms in {v}: {e}"))?;
    if !ms.is_finite() || ms < 0.0 {
        return Err(format!("ms must be non-negative and finite, got {v}"));
    }
    Ok((ms * 1e6) as u64)
}
