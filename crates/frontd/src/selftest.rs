//! Loopback smoke test: a swarm of hand-rolled HTTP clients against an
//! in-process server. CI runs this through `spatten-frontd --selftest`
//! with ~200 concurrent requests; the library tests run a smaller swarm.
//!
//! Every client either streams its full token count (200 + chunked
//! `accepted … tokens … done` records whose counts add up) or gets a
//! well-formed SLO rejection (429 with a JSON `error`, or a terminal
//! `rejected` record mid-stream). Anything else is a failure.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;

use spatten_serve::json::{self, JsonObject, JsonValue};

use crate::{Server, ServerConfig};

/// What one client observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientOutcome {
    /// 200 and a complete stream of `total` tokens.
    Streamed {
        /// Tokens the `done` record reported (validated against the
        /// per-record sum).
        total: u64,
    },
    /// A well-formed 429 SLO rejection.
    Rejected,
    /// A well-formed terminal `rejected` record after streaming began.
    RejectedMidStream,
    /// Anything malformed, with a description.
    Broken(String),
}

/// Aggregate of one smoke run.
#[derive(Debug)]
pub struct SmokeReport {
    /// Per-client outcomes, request-index order.
    pub outcomes: Vec<ClientOutcome>,
    /// The `/metrics` snapshot JSON taken after all clients finished.
    pub snapshot_json: String,
    /// The engine's final post-mortem report JSON (after shutdown).
    pub report_json: String,
}

impl SmokeReport {
    /// Clients that streamed to completion.
    pub fn streamed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, ClientOutcome::Streamed { .. }))
            .count()
    }

    /// Clients rejected by live admission (either shape).
    pub fn rejected(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    ClientOutcome::Rejected | ClientOutcome::RejectedMidStream
                )
            })
            .count()
    }

    /// Malformed exchanges (must be zero for the smoke to pass).
    pub fn broken(&self) -> Vec<&ClientOutcome> {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, ClientOutcome::Broken(_)))
            .collect()
    }

    /// The combined metrics artifact CI uploads: live snapshot plus
    /// final report under one object.
    pub fn artifact_json(&self) -> String {
        JsonObject::new()
            .u64("requests", self.outcomes.len() as u64)
            .u64("streamed", self.streamed() as u64)
            .u64("rejected", self.rejected() as u64)
            .u64("broken", self.broken().len() as u64)
            .raw("live_snapshot", &self.snapshot_json)
            .raw("final_report", &self.report_json)
            .build()
    }
}

/// Runs the loopback smoke: starts a server, fires `requests` concurrent
/// clients at it (every eighth with an unmeetable SLO to exercise live
/// rejection), snapshots `/metrics`, shuts down, and returns everything
/// observed. Panics on nothing — callers assert on the report.
pub fn run(requests: usize, cfg: ServerConfig) -> SmokeReport {
    let server = Server::start(cfg, "127.0.0.1:0").expect("bind loopback");
    let addr = server.addr();
    let clients: Vec<_> = (0..requests)
        .map(|i| {
            thread::Builder::new()
                .name(format!("client-{i}"))
                .spawn(move || client_once(addr, i))
                .expect("spawn client")
        })
        .collect();
    let outcomes = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();
    let snapshot_json = match simple_get(addr, "/metrics") {
        Ok((200, body)) => body,
        other => format!("{{\"error\":\"metrics fetch failed: {other:?}\"}}"),
    };
    let report = server.shutdown();
    SmokeReport {
        outcomes,
        snapshot_json,
        report_json: report.to_json(),
    }
}

/// One client exchange. Every eighth request asks for an SLO no
/// scheduler can meet (sub-microsecond end-to-end), so live admission
/// must shed it; the rest are generous.
fn client_once(addr: SocketAddr, index: usize) -> ClientOutcome {
    let body = if index % 8 == 7 {
        JsonObject::new()
            .u64("prompt_tokens", 192)
            .u64("gen_tokens", 24)
            .f64("slo_ms", 0.0001)
            .build()
    } else {
        JsonObject::new()
            .u64("prompt_tokens", 64 + (index as u64 % 5) * 32)
            .u64("gen_tokens", 8 + (index as u64 % 4) * 8)
            .f64("slo_ms", 60_000.0)
            .build()
    };
    let response = match request(addr, "POST", "/v1/generate", &body) {
        Ok(r) => r,
        Err(e) => return ClientOutcome::Broken(format!("transport: {e}")),
    };
    let (status, payload) = response;
    match status {
        200 => parse_stream(&payload),
        429 => match json::parse(&payload) {
            Ok(doc) if doc.get("error").and_then(JsonValue::as_str).is_some() => {
                ClientOutcome::Rejected
            }
            _ => ClientOutcome::Broken(format!("429 with malformed body: {payload}")),
        },
        other => ClientOutcome::Broken(format!("unexpected status {other}: {payload}")),
    }
}

/// Validates a chunk-decoded JSON-lines stream: `accepted` first, token
/// counts that add up to the `done` total, or a terminal `rejected`.
fn parse_stream(payload: &str) -> ClientOutcome {
    let mut lines = payload.lines();
    match lines.next().map(json::parse) {
        Some(Ok(doc)) if doc.get("event").and_then(JsonValue::as_str) == Some("accepted") => {}
        other => {
            return ClientOutcome::Broken(format!("stream must open with accepted: {other:?}"))
        }
    }
    let mut summed: u64 = 0;
    for line in lines {
        let Ok(doc) = json::parse(line) else {
            return ClientOutcome::Broken(format!("unparseable stream record: {line}"));
        };
        match doc.get("event").and_then(JsonValue::as_str) {
            Some("tokens") => {
                let Some(count) = doc.get("count").and_then(JsonValue::as_u64) else {
                    return ClientOutcome::Broken(format!("tokens record without count: {line}"));
                };
                summed += count;
            }
            Some("done") => {
                let total = doc.get("total_tokens").and_then(JsonValue::as_u64);
                return if total == Some(summed) {
                    ClientOutcome::Streamed { total: summed }
                } else {
                    ClientOutcome::Broken(format!(
                        "done total {total:?} disagrees with summed {summed}"
                    ))
                };
            }
            Some("rejected") => return ClientOutcome::RejectedMidStream,
            other => return ClientOutcome::Broken(format!("unknown stream event {other:?}")),
        }
    }
    ClientOutcome::Broken("stream ended without a terminal record".into())
}

/// Sends one HTTP request and returns `(status, decoded body)`.
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), String> {
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    exchange(addr, raw.as_bytes())
}

/// Sends `request` as is and returns `(status, decoded body)`. Retries
/// the connect a few times — a cold accept queue under a 200-client
/// stampede may bounce the first SYN.
fn exchange(addr: SocketAddr, request: &[u8]) -> Result<(u16, String), String> {
    let mut last_err = String::new();
    for attempt in 0..20 {
        match TcpStream::connect_timeout(&addr.to_owned(), Duration::from_secs(2)) {
            Ok(mut stream) => {
                stream
                    .set_read_timeout(Some(Duration::from_secs(120)))
                    .map_err(|e| e.to_string())?;
                let _ = stream.set_nodelay(true);
                stream.write_all(request).map_err(|e| e.to_string())?;
                let mut raw = Vec::new();
                stream.read_to_end(&mut raw).map_err(|e| e.to_string())?;
                return decode_response(&raw);
            }
            Err(e) => {
                last_err = e.to_string();
                thread::sleep(Duration::from_millis(25 * (attempt + 1)));
            }
        }
    }
    Err(format!("connect failed after retries: {last_err}"))
}

/// GET helper for `/metrics` and friends.
pub fn simple_get(addr: SocketAddr, path: &str) -> Result<(u16, String), String> {
    request(addr, "GET", path, "")
}

/// POST helper (JSON body).
pub fn simple_post(addr: SocketAddr, path: &str, body: &str) -> Result<(u16, String), String> {
    request(addr, "POST", path, body)
}

/// Splits status/headers/body and de-chunks when the response used
/// chunked transfer encoding.
fn decode_response(raw: &[u8]) -> Result<(u16, String), String> {
    let text = String::from_utf8_lossy(raw);
    let Some((head, body)) = text.split_once("\r\n\r\n") else {
        return Err(format!("no header terminator in: {text}"));
    };
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line: {head}"))?;
    let chunked = head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked");
    let body = if chunked {
        dechunk(body)?
    } else {
        body.to_string()
    };
    Ok((status, body))
}

/// Decodes a chunked body (sizes in hex, CRLF framing, 0-chunk end).
fn dechunk(body: &str) -> Result<String, String> {
    let mut out = String::new();
    let mut rest = body;
    loop {
        let Some((size_line, after)) = rest.split_once("\r\n") else {
            return Err(format!("missing chunk size in: {body}"));
        };
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| format!("bad chunk size {size_line:?}"))?;
        if size == 0 {
            return Ok(out);
        }
        if after.len() < size + 2 {
            return Err("truncated chunk".into());
        }
        out.push_str(&after[..size]);
        rest = &after[size + 2..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatten_serve::{ChipLeave, FleetEvents, LeaveMode};

    fn generate_body(gen_tokens: u64) -> String {
        JsonObject::new()
            .u64("prompt_tokens", 32)
            .u64("gen_tokens", gen_tokens)
            .build()
    }

    /// Opens a `POST /v1/generate` for `gen_tokens` and returns its
    /// socket with the first bytes of the answer.
    fn open_stream(addr: SocketAddr, gen_tokens: u64) -> (TcpStream, Vec<u8>) {
        let body = generate_body(gen_tokens);
        let mut socket = TcpStream::connect(addr).expect("connect");
        socket
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        write!(
            socket,
            "POST /v1/generate HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("send request");
        let mut first = vec![0u8; 4096];
        let n = socket.read(&mut first).expect("first bytes");
        assert!(n > 0, "the server closed before answering");
        first.truncate(n);
        (socket, first)
    }

    #[test]
    fn loopback_swarm_streams_or_rejects_every_request() {
        let report = run(
            48,
            ServerConfig {
                chips: 4,
                time_scale: 8.0,
                workers: 8,
                ..ServerConfig::default()
            },
        );
        assert_eq!(
            report.broken().len(),
            0,
            "malformed exchanges: {:?}",
            report.broken()
        );
        assert_eq!(report.streamed() + report.rejected(), 48);
        // The unmeetable-SLO clients (every eighth) must actually be
        // shed by live admission, and the generous ones must stream.
        assert!(report.rejected() >= 6, "rejected {}", report.rejected());
        assert!(
            report.streamed() >= 42 - 6,
            "streamed {}",
            report.streamed()
        );
        // The artifact parses and carries both halves.
        let artifact = json::parse(&report.artifact_json()).expect("artifact JSON");
        assert!(artifact.get("live_snapshot").is_some());
        assert!(
            artifact
                .get("final_report")
                .and_then(|r| r.get("completed"))
                .and_then(JsonValue::as_u64)
                .is_some(),
            "final report embeds the fleet post-mortem"
        );
    }

    #[test]
    fn health_metrics_and_errors_speak_http() {
        let server = Server::start(
            ServerConfig {
                chips: 2,
                time_scale: 4.0,
                workers: 2,
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .expect("bind");
        let addr = server.addr();
        assert_eq!(simple_get(addr, "/healthz").map(|r| r.0), Ok(200));
        let (code, body) = simple_get(addr, "/metrics").expect("metrics");
        assert_eq!(code, 200);
        let snap = json::parse(&body).expect("snapshot JSON");
        for key in [
            "accepted",
            "rejected",
            "completed",
            "tokens_streamed",
            "in_flight",
            "backlog",
            "vtime_cycles",
            "wall_elapsed_ns",
            "online_chips",
            "total_chips",
        ] {
            assert!(
                snap.get(key).and_then(JsonValue::as_u64).is_some(),
                "/metrics lacks {key}: {body}"
            );
        }
        assert_eq!(
            snap.get("online_chips").and_then(JsonValue::as_u64),
            Some(2)
        );
        assert_eq!(simple_get(addr, "/nope").map(|r| r.0), Ok(404));
        let (code, body) = simple_post(addr, "/v1/generate", "{not json").expect("post");
        assert_eq!(code, 400);
        assert!(json::parse(&body)
            .expect("error JSON")
            .get("error")
            .is_some());
        // A length no chip could serve is refused before it reaches the
        // engine, and the server keeps serving afterwards.
        let huge = JsonObject::new()
            .u64("prompt_tokens", 2_000_000_000)
            .u64("gen_tokens", 4)
            .build();
        let (code, body) = simple_post(addr, "/v1/generate", &huge).expect("oversized post");
        assert_eq!(code, 400);
        assert!(json::parse(&body)
            .expect("error JSON")
            .get("error")
            .is_some());
        let normal = JsonObject::new()
            .u64("prompt_tokens", 32)
            .u64("gen_tokens", 4)
            .build();
        assert_eq!(
            simple_post(addr, "/v1/generate", &normal).map(|r| r.0),
            Ok(200)
        );
        let report = server.shutdown();
        assert_eq!(report.completed, 1);
    }

    #[test]
    fn oversized_and_malformed_requests_are_refused_and_serving_continues() {
        use crate::{MAX_BODY_BYTES, MAX_HEADERS, MAX_LINE_BYTES};
        use spatten_serve::json::MAX_DEPTH;
        let server = Server::start(
            ServerConfig {
                chips: 1,
                time_scale: 4.0,
                workers: 2,
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .expect("bind");
        let addr = server.addr();
        let long = "a".repeat(MAX_LINE_BYTES);
        let headers = |n: usize| -> String { (0..n).map(|i| format!("X-{i}: v\r\n")).collect() };
        let deep = "[".repeat(20_000);
        let too_deep = format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}");
        let refused = [
            (
                format!("GET /{long} HTTP/1.1\r\n\r\n"),
                431,
                "request line over 8 KiB",
            ),
            (
                format!("GET /healthz HTTP/1.1\r\nX-Long: {long}\r\n\r\n"),
                431,
                "header line over 8 KiB",
            ),
            (
                format!("GET /healthz HTTP/1.1\r\n{}\r\n", headers(MAX_HEADERS + 1)),
                431,
                "more than 100 headers",
            ),
            (
                "GET /healthz HTTP/1.1\r\nContent-Length: ten\r\n\r\n".to_string(),
                400,
                "bad Content-Length",
            ),
            (
                format!(
                    "POST /v1/generate HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                    MAX_BODY_BYTES + 1
                ),
                413,
                "body over 1 MiB",
            ),
            (
                format!(
                    "POST /v1/generate HTTP/1.1\r\nContent-Length: {}\r\n\r\n{deep}",
                    deep.len()
                ),
                400,
                too_deep.as_str(),
            ),
        ];
        for (raw, code, error) in &refused {
            let (got, body) = exchange(addr, raw.as_bytes()).expect("refusal");
            assert_eq!(got, *code, "{error}");
            let doc = json::parse(&body).expect("error JSON");
            assert_eq!(doc.get("error").and_then(JsonValue::as_str), Some(*error));
        }
        // Exactly at the header cap is still a request.
        let at_cap = format!("GET /healthz HTTP/1.1\r\n{}\r\n", headers(MAX_HEADERS));
        assert_eq!(exchange(addr, at_cap.as_bytes()).map(|r| r.0), Ok(200));
        // The refusals left the server serving: a normal POST streams.
        let normal = JsonObject::new()
            .u64("prompt_tokens", 32)
            .u64("gen_tokens", 4)
            .build();
        let (code, payload) = simple_post(addr, "/v1/generate", &normal).expect("post");
        assert_eq!(code, 200);
        assert_eq!(parse_stream(&payload), ClientOutcome::Streamed { total: 4 });
        assert_eq!(server.shutdown().completed, 1);
    }

    #[test]
    fn elastic_leave_shows_up_as_live_capacity_loss() {
        // A drain scheduled at virtual t=0 takes one of three chips out
        // as soon as the engine primes; /metrics must see it offline
        // once a request has started the timeline.
        let server = Server::start(
            ServerConfig {
                chips: 3,
                time_scale: 16.0,
                workers: 2,
                events: FleetEvents {
                    leaves: vec![ChipLeave {
                        chip: 2,
                        at_ns: 0,
                        mode: LeaveMode::Drain,
                    }],
                    joins: vec![],
                },
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .expect("bind");
        let addr = server.addr();
        let body = JsonObject::new()
            .u64("prompt_tokens", 32)
            .u64("gen_tokens", 4)
            .build();
        let (code, _) = simple_post(addr, "/v1/generate", &body).expect("generate");
        assert_eq!(code, 200);
        let (_, snap) = simple_get(addr, "/metrics").expect("metrics");
        let snap = json::parse(&snap).expect("snapshot JSON");
        assert_eq!(
            snap.get("online_chips").and_then(JsonValue::as_u64),
            Some(2)
        );
        assert_eq!(snap.get("total_chips").and_then(JsonValue::as_u64), Some(3));
        let report = server.shutdown();
        assert_eq!(report.completed, 1);
    }

    #[test]
    fn a_timed_drain_fires_with_no_traffic() {
        // No request ever reaches this server, so only the engine's own
        // wake at the drain's bridge-mapped time (or the step before a
        // snapshot) can take the chip out.
        let drain_ns = 50_000_000;
        let time_scale = 4.0;
        let server = Server::start(
            ServerConfig {
                chips: 3,
                time_scale,
                workers: 2,
                events: FleetEvents {
                    leaves: vec![ChipLeave {
                        chip: 2,
                        at_ns: drain_ns,
                        mode: LeaveMode::Drain,
                    }],
                    joins: vec![],
                },
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .expect("bind");
        thread::sleep(Duration::from_nanos(drain_ns / time_scale as u64) * 2);
        let (code, snap) = simple_get(server.addr(), "/metrics").expect("metrics");
        assert_eq!(code, 200);
        let snap = json::parse(&snap).expect("snapshot JSON");
        assert_eq!(
            snap.get("online_chips").and_then(JsonValue::as_u64),
            Some(2)
        );
        assert_eq!(server.shutdown().completed, 0);
    }

    #[test]
    fn a_server_that_never_served_shuts_down() {
        // Every acceptor is blocked in accept; shutdown must wake each.
        let server = Server::start(
            ServerConfig {
                workers: 4,
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .expect("bind");
        assert_eq!(server.shutdown().completed, 0);
    }

    #[test]
    fn a_stream_does_not_hold_an_acceptor() {
        // One acceptor: while a long stream runs, a short request must
        // still be read, served and finished.
        let server = Server::start(
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .expect("bind");
        let addr = server.addr();
        // A cold cost memo prices a request's whole decode span before
        // its first token, which in a debug build outlasts the stream
        // itself; an abandoned stream of the same shape warms it.
        drop(open_stream(addr, 2_000));
        let (mut long, mut raw) = open_stream(addr, 2_000);
        let (code, short) = simple_post(addr, "/v1/generate", &generate_body(4)).expect("post");
        assert_eq!(code, 200);
        assert_eq!(parse_stream(&short), ClientOutcome::Streamed { total: 4 });
        // The long stream has not ended yet: what it has sent so far
        // holds no done record.
        long.set_nonblocking(true).expect("nonblocking");
        let mut chunk = [0u8; 65536];
        while let Ok(n @ 1..) = long.read(&mut chunk) {
            raw.extend_from_slice(&chunk[..n]);
        }
        assert!(
            !String::from_utf8_lossy(&raw).contains("\"done\""),
            "the short request waited for the long stream"
        );
        long.set_nonblocking(false).expect("blocking");
        long.read_to_end(&mut raw).expect("long stream");
        let (code, payload) = decode_response(&raw).expect("long response");
        assert_eq!(code, 200);
        assert_eq!(
            parse_stream(&payload),
            ClientOutcome::Streamed { total: 2_000 }
        );
        assert_eq!(server.shutdown().completed, 3);
    }

    /// Runs a one-acceptor server and a client that sends its headers a
    /// byte every 200 ms — every byte would restart a per-read timeout —
    /// then a `/healthz` 1 s later. The trickler stops once answered, or
    /// with `keep_dripping` goes on until the server hangs up. Returns the
    /// start of the trickler's answer and how long the `/healthz` waited.
    fn trickle_ahead_of_healthz(keep_dripping: bool) -> (String, Duration) {
        use crate::REQUEST_DEADLINE;
        use std::net::Shutdown;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        use std::time::Instant;

        let server = Server::start(
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .expect("bind");
        let addr = server.addr();
        let mut trickler = TcpStream::connect(addr).expect("connect");
        trickler
            .write_all(b"GET /healthz HTTP/1.1\r\n")
            .expect("request line");
        let stop = Arc::new(AtomicBool::new(false));
        let drip = {
            let mut socket = trickler.try_clone().expect("clone");
            let stop = stop.clone();
            // Bounded, so the test ends even if the server never answers.
            thread::spawn(move || {
                for _ in 0..100 {
                    if stop.load(Ordering::SeqCst) || socket.write_all(b"X").is_err() {
                        break;
                    }
                    thread::sleep(Duration::from_millis(200));
                }
            })
        };
        // A request sent behind it waits only for the deadline.
        thread::sleep(Duration::from_secs(1));
        let behind = thread::spawn(move || {
            let sent = Instant::now();
            (simple_get(addr, "/healthz").map(|r| r.0), sent.elapsed())
        });
        trickler
            .set_read_timeout(Some(REQUEST_DEADLINE + Duration::from_secs(5)))
            .expect("read timeout");
        let mut head = [0u8; 64];
        let n = trickler.read(&mut head).expect("the trickler is answered");
        if !keep_dripping {
            stop.store(true, Ordering::SeqCst);
            trickler.shutdown(Shutdown::Write).expect("hang up");
        }
        let (code, waited) = behind.join().expect("request behind");
        assert_eq!(code, Ok(200));
        stop.store(true, Ordering::SeqCst);
        drip.join().expect("drip");
        assert_eq!(server.shutdown().completed, 0);
        (String::from_utf8_lossy(&head[..n]).into_owned(), waited)
    }

    #[test]
    fn a_trickling_client_gets_408_and_frees_its_acceptor() {
        let (head, waited) = trickle_ahead_of_healthz(false);
        assert!(head.starts_with("HTTP/1.1 408 "), "{head}");
        assert!(
            waited <= crate::REQUEST_DEADLINE + Duration::from_secs(2),
            "/healthz waited {waited:?} behind the trickler"
        );
    }

    #[test]
    fn a_client_trickling_past_its_408_frees_its_acceptor_at_the_deadline() {
        // The `/healthz` went out 1 s after the trickler connected, so it
        // waits the 4 s of the trickler's deadline left, not its linger.
        let (head, waited) = trickle_ahead_of_healthz(true);
        assert!(head.starts_with("HTTP/1.1 408 "), "{head}");
        assert!(
            waited <= Duration::from_millis(4_500),
            "/healthz waited {waited:?} behind the trickler"
        );
    }

    #[test]
    fn a_client_that_hangs_up_mid_stream_costs_only_its_stream() {
        let server = Server::start(
            ServerConfig {
                chips: 1,
                time_scale: 4.0,
                workers: 1,
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .expect("bind");
        let addr = server.addr();
        drop(open_stream(addr, 400));
        let (code, payload) = simple_post(addr, "/v1/generate", &generate_body(4)).expect("post");
        assert_eq!(code, 200);
        assert_eq!(parse_stream(&payload), ClientOutcome::Streamed { total: 4 });
        // The abandoned job decoded on to completion.
        assert_eq!(server.shutdown().completed, 2);
    }

    #[test]
    fn a_revoked_chip_hands_its_streams_on_whole() {
        // Chip 0 is revoked with no grace while two streams decode, one
        // without an SLO and one with a generous one. A revoked resident
        // re-queues with its progress, so every token still arrives. At a
        // quarter of wall speed the revocation lands 160 ms in: after
        // both requests arrive, before either stream ends.
        let server = Server::start(
            ServerConfig {
                chips: 2,
                time_scale: 0.25,
                workers: 2,
                events: FleetEvents {
                    leaves: vec![ChipLeave {
                        chip: 0,
                        at_ns: 40_000_000,
                        mode: LeaveMode::Revoke { grace_ns: 0 },
                    }],
                    joins: vec![],
                },
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .expect("bind");
        let addr = server.addr();
        let clients: Vec<_> = [None, Some(60_000.0)]
            .into_iter()
            .map(|slo_ms| {
                let mut body = JsonObject::new()
                    .u64("prompt_tokens", 32)
                    .u64("gen_tokens", 400);
                if let Some(ms) = slo_ms {
                    body = body.f64("slo_ms", ms);
                }
                let body = body.build();
                thread::spawn(move || simple_post(addr, "/v1/generate", &body))
            })
            .collect();
        for client in clients {
            let (code, payload) = client.join().expect("client").expect("post");
            assert_eq!(code, 200);
            assert_eq!(
                parse_stream(&payload),
                ClientOutcome::Streamed { total: 400 }
            );
        }
        let report = server.shutdown();
        assert_eq!(report.completed, 2);
        let revoked: u64 = report
            .chip_stats
            .iter()
            .map(|c| c.elastic.revoked_jobs)
            .sum();
        assert!(revoked >= 1, "the revocation found no stream on chip 0");
    }

    #[test]
    fn stream_events_are_plain_data() {
        // The client outcome stays Send + 'static so client threads can
        // hand it back; this is a compile-time check.
        fn assert_send<T: Send + 'static>() {}
        assert_send::<ClientOutcome>();
    }
}
