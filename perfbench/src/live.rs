//! The live workload: an in-process `frontd` server streaming GPT-2
//! generations to an open-loop HTTP load generator, with `/metrics`
//! scrapes beside the streams.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use spatten_frontd::{selftest, Server, ServerConfig};
use spatten_serve::json::{self, JsonObject, JsonValue};
use spatten_serve::FleetReport;
use spatten_workloads::{ArrivalSpec, Benchmark, RequestClass, Trace, TraceSpec};

use crate::report::{rss_peak_mb, EndToEnd, Layers, Outcome};
use crate::sim::cycle_model_us;
use crate::stats::{median, p50, sorted, tail};
use crate::Args;

/// Offered generation requests per second (open loop, Poisson).
const REQUESTS_PER_S: f64 = 20.0;
/// `GET /metrics` scrapes per second, evenly spaced.
const SCRAPES_PER_S: f64 = 10.0;
/// Prompt and generation lengths, drawn per request from the seed.
const PROMPT_TOKENS: (usize, usize) = (64, 256);
const GEN_TOKENS: (usize, usize) = (8, 32);
/// The SLO each request carries: generous, so admission never sheds.
const REQUEST_SLO_MS: f64 = 10_000.0;
/// A stream meets its SLO when it completes within both limits.
const TTFT_LIMIT_MS: f64 = 50.0;
const TPOT_LIMIT_MS: f64 = 5.0;
/// Sequential requests that warm a fresh server up before timing.
const WARMUP_REQUESTS: usize = 4;
/// Server start-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// How long a client waits on a silent socket before giving up.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// The request stream, from the seed: arrival offsets and lengths.
fn spec(seed: u64, requests: usize) -> TraceSpec {
    TraceSpec {
        classes: vec![RequestClass::gpt2(
            &Benchmark::gpt2_small_wikitext2(),
            PROMPT_TOKENS,
            GEN_TOKENS,
            1.0,
        )],
        arrival: ArrivalSpec::OpenPoisson {
            rate_rps: REQUESTS_PER_S,
            requests,
        },
        seed,
        fleet: None,
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Generate { prompt: usize, gen: usize },
    Scrape,
}

/// One scheduled operation, due `due` after the load starts.
#[derive(Debug, Clone, Copy)]
struct Item {
    due: Duration,
    op: Op,
}

/// The operations of one session: the trace's requests, their Poisson
/// offsets scaled so the last is due at the end of the window, and
/// evenly spaced scrapes.
fn schedule(trace: &Trace, seconds: f64) -> Vec<Item> {
    let Trace::Open { requests } = trace else {
        unreachable!("the live stream is open-loop")
    };
    let last_ns = requests.last().map_or(1, |r| r.arrival_ns.max(1)) as f64;
    let scale = seconds * 1e9 / last_ns;
    let mut items: Vec<Item> = requests
        .iter()
        .map(|r| Item {
            due: Duration::from_nanos((r.arrival_ns as f64 * scale) as u64),
            op: Op::Generate {
                prompt: r.workload.seq_len,
                gen: r.workload.gen_steps,
            },
        })
        .collect();
    let scrapes = (seconds * SCRAPES_PER_S).round() as u32;
    items.extend((0..scrapes).map(|k| Item {
        due: Duration::from_secs_f64(f64::from(k) / SCRAPES_PER_S),
        op: Op::Scrape,
    }));
    items.sort_by_key(|i| i.due);
    items
}

/// Incremental decoder of a chunked (`Transfer-Encoding: chunked`)
/// body that carries JSON lines, as `frontd` streams them. Lines may span
/// chunks and a chunk may hold several lines.
#[derive(Debug, Default)]
pub struct ChunkedLines {
    input: Vec<u8>,
    line: Vec<u8>,
    state: ChunkState,
}

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum ChunkState {
    /// Expecting a chunk-size line.
    #[default]
    Size,
    /// Inside a chunk with this many payload bytes left.
    Data(usize),
    /// Expecting the CRLF that closes a chunk's payload.
    DataEnd,
    /// After the zero-size chunk: trailer lines until an empty one.
    Trailer,
    /// The body is complete.
    Done,
}

impl ChunkedLines {
    /// Feeds received bytes; returns every line they complete.
    pub fn push(&mut self, bytes: &[u8]) -> Result<Vec<String>, String> {
        self.input.extend_from_slice(bytes);
        let mut lines = Vec::new();
        let mut at = 0;
        loop {
            let rest = &self.input[at..];
            match self.state {
                ChunkState::Size | ChunkState::Trailer => {
                    let Some(end) = rest.windows(2).position(|w| w == b"\r\n") else {
                        break;
                    };
                    let text = std::str::from_utf8(&rest[..end])
                        .map_err(|_| "chunk header is not UTF-8".to_string())?;
                    at += end + 2;
                    if self.state == ChunkState::Trailer {
                        if text.is_empty() {
                            self.state = ChunkState::Done;
                        }
                        continue;
                    }
                    let hex = text.split(';').next().unwrap_or("").trim();
                    let size = usize::from_str_radix(hex, 16)
                        .map_err(|_| format!("bad chunk size {hex:?}"))?;
                    self.state = if size == 0 {
                        ChunkState::Trailer
                    } else {
                        ChunkState::Data(size)
                    };
                }
                ChunkState::Data(left) => {
                    if rest.is_empty() {
                        break;
                    }
                    let take = left.min(rest.len());
                    for &b in &rest[..take] {
                        if b == b'\n' {
                            let line = String::from_utf8(std::mem::take(&mut self.line))
                                .map_err(|_| "line is not UTF-8".to_string())?;
                            lines.push(line);
                        } else {
                            self.line.push(b);
                        }
                    }
                    at += take;
                    self.state = if take == left {
                        ChunkState::DataEnd
                    } else {
                        ChunkState::Data(left - take)
                    };
                }
                ChunkState::DataEnd => {
                    if rest.len() < 2 {
                        break;
                    }
                    if &rest[..2] != b"\r\n" {
                        return Err("chunk payload not followed by CRLF".into());
                    }
                    at += 2;
                    self.state = ChunkState::Size;
                }
                ChunkState::Done => {
                    if !rest.is_empty() {
                        return Err("bytes after the last chunk".into());
                    }
                    break;
                }
            }
        }
        self.input.drain(..at);
        Ok(lines)
    }

    /// Whether the terminal chunk has been read.
    pub fn done(&self) -> bool {
        self.state == ChunkState::Done
    }
}

/// A response head: status code, whether the body is chunked, and the
/// body bytes read along with the head.
struct Head {
    status: u16,
    chunked: bool,
    rest: Vec<u8>,
}

fn read_head(stream: &mut TcpStream) -> io::Result<Head> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let end = loop {
        if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break i;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "no response head",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let text = String::from_utf8_lossy(&buf[..end]).into_owned();
    let mut lines = text.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let chunked = lines.any(|line| {
        line.split_once(':').is_some_and(|(name, value)| {
            name.eq_ignore_ascii_case("transfer-encoding")
                && value.trim().eq_ignore_ascii_case("chunked")
        })
    });
    Ok(Head {
        status,
        chunked,
        rest: buf[end + 4..].to_vec(),
    })
}

fn connect(addr: SocketAddr, request: &str) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    stream.write_all(request.as_bytes())?;
    Ok(stream)
}

/// What one generation request saw, in wall instants.
#[derive(Debug)]
struct Stream {
    gen: usize,
    id: Option<u64>,
    first_token: Option<Instant>,
    done: Option<Instant>,
    tokens: u64,
    /// Why the exchange is not a well-formed stream, if it is not.
    broken: Option<String>,
    /// Admission shed the request (429, or a terminal `rejected`).
    rejected: bool,
}

impl Stream {
    fn finished(&self) -> bool {
        self.done.is_some() && self.broken.is_none()
    }
}

/// Sends one `POST /v1/generate` and reads its stream to the end,
/// timestamping each record as it arrives.
fn generate(addr: SocketAddr, prompt: usize, gen: usize) -> Stream {
    let mut s = Stream {
        gen,
        id: None,
        first_token: None,
        done: None,
        tokens: 0,
        broken: None,
        rejected: false,
    };
    if let Err(e) = stream_into(addr, prompt, gen, &mut s) {
        s.broken.get_or_insert(e.to_string());
    }
    s
}

fn stream_into(addr: SocketAddr, prompt: usize, gen: usize, s: &mut Stream) -> io::Result<()> {
    let body = JsonObject::new()
        .u64("prompt_tokens", prompt as u64)
        .u64("gen_tokens", gen as u64)
        .f64("slo_ms", REQUEST_SLO_MS)
        .build();
    let request = format!(
        "POST /v1/generate HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut stream = connect(addr, &request)?;
    let head = read_head(&mut stream)?;
    if head.status == 429 {
        s.rejected = true;
        return Ok(());
    }
    if head.status != 200 || !head.chunked {
        s.broken = Some(format!(
            "status {} (chunked: {})",
            head.status, head.chunked
        ));
        return Ok(());
    }
    let bad = |m: String| io::Error::new(io::ErrorKind::InvalidData, m);
    let mut decoder = ChunkedLines::default();
    let mut pending = head.rest;
    let mut buf = [0u8; 4096];
    loop {
        let now = Instant::now();
        for line in decoder.push(&pending).map_err(bad)? {
            let rec = json::parse(&line).map_err(bad)?;
            let field = |k| rec.get(k).and_then(JsonValue::as_u64);
            match rec.get("event").and_then(JsonValue::as_str) {
                Some("accepted") if s.id.is_none() => s.id = field("id"),
                Some("tokens") => {
                    let (first, count) = (field("first"), field("count"));
                    if first != Some(s.tokens) || count.unwrap_or(0) == 0 {
                        s.broken = Some(format!("token record out of order: {line}"));
                    }
                    s.tokens += count.unwrap_or(0);
                    s.first_token.get_or_insert(now);
                }
                Some("done") => {
                    if field("id") != s.id || field("total_tokens") != Some(s.tokens) {
                        s.broken = Some(format!("done record disagrees: {line}"));
                    }
                    s.done = Some(now);
                }
                Some("rejected") => s.rejected = true,
                _ => s.broken = Some(format!("unexpected record: {line}")),
            }
        }
        if decoder.done() {
            break;
        }
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(bad("stream closed before its last chunk".into()));
        }
        pending = buf[..n].to_vec();
    }
    if s.done.is_some() && s.tokens != s.gen as u64 {
        s.broken = Some(format!("streamed {} tokens of {} asked", s.tokens, s.gen));
    }
    Ok(())
}

/// Sends one `GET /metrics`; returns the server's `completed` count.
fn scrape(addr: SocketAddr) -> Result<u64, String> {
    let (status, body) = selftest::simple_get(addr, "/metrics")?;
    json::parse(&body)
        .ok()
        .filter(|_| status == 200)
        .and_then(|v| v.get("completed").and_then(JsonValue::as_u64))
        .ok_or_else(|| format!("bad /metrics ({status}): {body}"))
}

/// One operation's record.
enum Record {
    Stream(Stream),
    /// Scrape latency, or the reason it failed.
    Scrape(Result<Duration, String>),
}

struct Done {
    due: Instant,
    sent: Instant,
    record: Record,
}

/// Runs the open-loop schedule from `start` on `workers` threads: each
/// takes the next operation, sleeps until it is due, and performs it.
/// An operation due while every worker is busy goes out late; its
/// latency still counts from when it was due.
fn load(addr: SocketAddr, items: &[Item], start: Instant, workers: usize) -> Vec<Done> {
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, Done)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        let due = start + item.due;
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let record = match item.op {
                            Op::Generate { prompt, gen } => {
                                Record::Stream(generate(addr, prompt, gen))
                            }
                            Op::Scrape => Record::Scrape(scrape(addr).map(|_| sent.elapsed())),
                        };
                        out.push((i, Done { due, sent, record }));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load worker panicked"))
            .collect()
    });
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, d)| d).collect()
}

/// Seconds from `from` to `to`, negative when `to` is earlier.
fn secs(from: Instant, to: Instant) -> f64 {
    match to.checked_duration_since(from) {
        Some(d) => d.as_secs_f64(),
        None => -from.duration_since(to).as_secs_f64(),
    }
}

/// A started server, with the wall window its time bridge's epoch was
/// taken in.
struct Started {
    server: Server,
    before: Instant,
    after: Instant,
    /// Warm-up streams that finished.
    warm_done: u64,
    failed: u64,
}

fn start_server(workers: usize) -> io::Result<Started> {
    let cfg = ServerConfig {
        workers,
        ..ServerConfig::default()
    };
    let before = Instant::now();
    let server = Server::start(cfg, "127.0.0.1:0")?;
    let after = Instant::now();
    let mut started = Started {
        server,
        before,
        after,
        warm_done: 0,
        failed: 0,
    };
    let addr = started.server.addr();
    for _ in 0..WARMUP_REQUESTS {
        let s = generate(addr, PROMPT_TOKENS.0, GEN_TOKENS.0);
        started.warm_done += u64::from(s.finished());
        started.failed += u64::from(s.broken.is_some());
    }
    started.failed += u64::from(scrape(addr).is_err());
    Ok(started)
}

/// `live-stream`: an in-process `frontd` server with the default
/// configuration (time scale 1.0, SLO-aware admission, contiguous KV)
/// and one acceptor per core, under an open-loop generator that keeps
/// at most one operation in flight per core.
pub fn stream(args: &Args) -> io::Result<Outcome> {
    let workers = thread::available_parallelism().map_or(2, usize::from);
    let requests = ((REQUESTS_PER_S * args.seconds).round() as usize).max(1);
    let g = Instant::now();
    let spec = spec(args.seed, requests);
    let trace = spec.generate();
    let generate_s = g.elapsed().as_secs_f64();
    let items = schedule(&trace, args.seconds);

    let mut setup = Vec::new();
    let mut failed = 0;
    let mut started = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let s = start_server(workers)?;
        setup.push(t.elapsed().as_secs_f64());
        failed += s.failed;
        if rep + 1 < SETUP_REPS {
            s.server.shutdown();
        } else {
            started = Some(s);
        }
    }
    let Started {
        server,
        before,
        after,
        warm_done,
        failed: warm_failed,
    } = started.expect("at least one set-up");
    failed += warm_failed;
    let addr = server.addr();
    let load_start = Instant::now();
    let done = load(addr, &items, load_start, workers);
    let report = server.shutdown();
    let load_end = Instant::now();

    let epoch = before + after.duration_since(before) / 2;
    let mut live = Live::default();
    for d in &done {
        live.add(d, epoch, &report);
    }
    failed += live.failed;
    let finished = warm_done + live.finished;
    if report.completed as u64 != finished {
        eprintln!(
            "check: server completed {} requests, clients finished {finished}",
            report.completed
        );
        failed += 1;
    }
    let wall_s = secs(load_start, live.last_done.unwrap_or(load_end)).max(f64::MIN_POSITIVE);
    let streams = live.sent.max(1) as f64;
    let ttft = sorted(live.ttft_ms.clone());
    let mut detail = JsonObject::new()
        .u64("requests", live.sent)
        .u64("scrapes", live.scrapes)
        .u64("finished", live.finished)
        .u64("rejected", live.rejected)
        .u64("slo_ok", live.slo_ok)
        .f64("ttft_limit_ms", TTFT_LIMIT_MS)
        .f64("tpot_limit_ms", TPOT_LIMIT_MS)
        .u64("workers", workers as u64)
        .f64(
            "epoch_uncertainty_ms",
            after.duration_since(before).as_secs_f64() * 1e3,
        )
        .str(
            "throughput",
            "streams completed within both limits per wall second",
        )
        .str(
            "latency",
            "time to first token, from when the request was due",
        )
        .raw(
            "fingerprint",
            &JsonObject::new()
                .u64("requests", live.sent)
                .u64("tokens_asked", live.tokens_asked)
                .u64("tokens_streamed", live.tokens_streamed)
                .u64("server_completed", report.completed as u64)
                .u64("server_rejected", report.rejected as u64)
                .build(),
        );
    let metrics = if args.trace {
        let tpot = sorted(live.tpot_ms.clone());
        let late = sorted(live.late_ms.clone());
        let late_tail = tail(&late);
        let mut layers = Layers {
            generate_s,
            ingress_lag_ms: median(&live.ingress_ms),
            egress_lag_ms: median(&live.egress_ms),
            egress_done_lag_ms: median(&live.egress_done_ms),
            model_ttft_ms: median(&live.model_ttft_ms),
            model_queue_ms: median(&live.model_queue_ms),
            tpot_p50_ms: p50(&tpot),
            tpot_tail_ms: tail(&tpot).value,
            slo_ok_frac: live.slo_ok as f64 / streams,
            scrape_p50_ms: p50(&sorted(live.scrape_ms.clone())),
            late_tail_ms: late_tail.value,
            ..Layers::default()
        };
        (layers.cycle_prefill_us, layers.cycle_decode_us) = cycle_model_us(&spec);
        detail = detail
            .f64("loadgen_late_percentile", late_tail.percentile)
            .f64("tpot_tail_percentile", tail(&tpot).percentile)
            .raw("spans", &json::array(live.spans));
        layers.metrics()
    } else {
        EndToEnd {
            throughput_per_s: live.slo_ok as f64 / wall_s,
            latency_p50_ms: p50(&ttft),
            latency_tail_ms: tail(&ttft),
            setup_s: median(&setup),
            rss_peak_mb: rss_peak_mb(),
        }
        .metrics(&mut detail)
    };
    Ok(Outcome {
        attempted: live.sent + live.scrapes,
        failed,
        metrics,
        detail,
    })
}

/// Per-request figures of one session.
#[derive(Default)]
struct Live {
    sent: u64,
    scrapes: u64,
    finished: u64,
    rejected: u64,
    slo_ok: u64,
    failed: u64,
    tokens_asked: u64,
    tokens_streamed: u64,
    last_done: Option<Instant>,
    ttft_ms: Vec<f64>,
    tpot_ms: Vec<f64>,
    late_ms: Vec<f64>,
    scrape_ms: Vec<f64>,
    ingress_ms: Vec<f64>,
    egress_ms: Vec<f64>,
    egress_done_ms: Vec<f64>,
    model_ttft_ms: Vec<f64>,
    model_queue_ms: Vec<f64>,
    spans: Vec<String>,
}

impl Live {
    fn add(&mut self, d: &Done, epoch: Instant, report: &FleetReport) {
        self.late_ms.push(secs(d.due, d.sent) * 1e3);
        let s = match &d.record {
            Record::Scrape(r) => {
                self.scrapes += 1;
                match r {
                    Ok(lat) => self.scrape_ms.push(lat.as_secs_f64() * 1e3),
                    Err(e) => {
                        eprintln!("check: scrape failed: {e}");
                        self.failed += 1;
                    }
                }
                return;
            }
            Record::Stream(s) => s,
        };
        self.sent += 1;
        self.tokens_asked += s.gen as u64;
        self.tokens_streamed += s.tokens;
        self.rejected += u64::from(s.rejected);
        if let Some(why) = &s.broken {
            eprintln!("check: broken stream: {why}");
            self.failed += 1;
            return;
        }
        let (Some(first), Some(done)) = (s.first_token, s.done) else {
            return;
        };
        self.finished += 1;
        self.last_done = self.last_done.max(Some(done));
        let ttft = secs(d.due, first) * 1e3;
        let tpot = (s.tokens > 1).then(|| secs(first, done) * 1e3 / (s.tokens - 1) as f64);
        self.ttft_ms.push(ttft);
        self.tpot_ms.extend(tpot);
        if ttft <= TTFT_LIMIT_MS && tpot.is_none_or(|t| t <= TPOT_LIMIT_MS) {
            self.slo_ok += 1;
        }
        // The server's view of the same request, mapped to wall time
        // through the bridge: virtual ns = wall ns × time scale (1.0).
        let Some(c) =
            s.id.and_then(|id| report.completions.iter().find(|c| c.id == id))
        else {
            eprintln!(
                "check: finished stream {:?} missing from the server report",
                s.id
            );
            self.failed += 1;
            return;
        };
        let ms = |cycles: u64| cycles as f64 / report.clock_ghz * 1e-6;
        let at =
            |cycles: u64| epoch + Duration::from_nanos((cycles as f64 / report.clock_ghz) as u64);
        self.ingress_ms
            .push(secs(d.sent, at(c.arrival_cycles)) * 1e3);
        self.egress_ms
            .push(secs(at(c.first_token_cycles), first) * 1e3);
        self.egress_done_ms
            .push(secs(at(c.finish_cycles), done) * 1e3);
        self.model_ttft_ms
            .push(ms(c.first_token_cycles - c.arrival_cycles));
        self.model_queue_ms
            .push(ms(c.start_cycles - c.arrival_cycles));
        let rel = |t: Instant| secs(epoch, t) * 1e3;
        self.spans.push(
            JsonObject::new()
                .u64("id", c.id)
                .u64("tokens", s.tokens)
                .f64("due_ms", rel(d.due))
                .f64("sent_ms", rel(d.sent))
                .f64("first_token_ms", rel(first))
                .f64("done_ms", rel(done))
                .f64("v_arrival_ms", ms(c.arrival_cycles))
                .f64("v_start_ms", ms(c.start_cycles))
                .f64("v_first_token_ms", ms(c.first_token_cycles))
                .f64("v_finish_ms", ms(c.finish_cycles))
                .build(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(payload: &str) -> String {
        format!("{:x}\r\n{payload}\r\n", payload.len())
    }

    #[test]
    fn decodes_one_record_per_chunk_fed_byte_by_byte() {
        let body = chunk("{\"event\":\"accepted\",\"id\":3}\n")
            + &chunk("{\"event\":\"tokens\",\"first\":0,\"count\":2}\n")
            + "0\r\n\r\n";
        let mut d = ChunkedLines::default();
        let mut lines = Vec::new();
        for b in body.as_bytes() {
            assert!(!d.done());
            lines.extend(d.push(&[*b]).expect("valid chunked body"));
        }
        assert!(d.done());
        assert_eq!(
            lines,
            vec![
                "{\"event\":\"accepted\",\"id\":3}",
                "{\"event\":\"tokens\",\"first\":0,\"count\":2}"
            ]
        );
    }

    #[test]
    fn lines_may_span_chunks_and_chunks_may_hold_several_lines() {
        let body = chunk("a\nb") + &chunk("c\nd\n") + "0;ext=1\r\nTrailer: x\r\n\r\n";
        let mut d = ChunkedLines::default();
        let lines = d.push(body.as_bytes()).expect("valid");
        assert_eq!(lines, vec!["a", "bc", "d"]);
        assert!(d.done());
    }

    #[test]
    fn malformed_bodies_are_errors() {
        assert!(ChunkedLines::default().push(b"zz\r\n").is_err());
        assert!(ChunkedLines::default().push(b"2\r\nabXY").is_err());
        let mut d = ChunkedLines::default();
        d.push(b"0\r\n\r\n").expect("empty body");
        assert!(d.push(b"junk").is_err());
        // An incomplete body is not an error, only unfinished.
        let mut d = ChunkedLines::default();
        assert_eq!(d.push(b"5\r\nab").expect("partial"), Vec::<String>::new());
        assert!(!d.done());
    }

    #[test]
    fn schedule_merges_streams_and_scrapes_in_due_order() {
        let trace = spec(7, 30).generate();
        let items = schedule(&trace, 2.0);
        let scrapes = items.iter().filter(|i| matches!(i.op, Op::Scrape)).count();
        assert_eq!((items.len(), scrapes), (50, 20));
        assert!(items.windows(2).all(|w| w[0].due <= w[1].due));
        // Same seed, same inputs.
        let again = schedule(&spec(7, 30).generate(), 2.0);
        let key = |i: &Item| (i.due, format!("{:?}", i.op));
        assert_eq!(
            items.iter().map(key).collect::<Vec<_>>(),
            again.iter().map(key).collect::<Vec<_>>()
        );
    }
}
