//! # spatten-frontd — a live HTTP front-end over the fleet simulator
//!
//! Everything below this crate is trace-driven: a
//! [`FleetEngine`](spatten_serve::FleetEngine) replays pre-drawn
//! arrivals through virtual time and reports a post-mortem.
//! This crate turns that same engine into a **live server**: a
//! hand-rolled thread-per-core `std::net` HTTP front-end whose requests
//! arrive on the wall clock, get mapped onto virtual cycles through a
//! time bridge, flow through SLO-aware admission control, and stream
//! their per-token completions back chunk by chunk as the engine's
//! [`TokenSink`] surfaces them.
//!
//! ## Architecture
//!
//! ```text
//!   client ──HTTP──▶ acceptor thread (one per core, shared listener)
//!                         │  parse request, build Submit command
//!                         ▼
//!                    mpsc command queue
//!                         │                    ┌─ virtual-time bridge ─┐
//!                         ▼                    │ vns = wall_ns × scale │
//!                    engine thread ◀──────────┤ cycles = vns × GHz    │
//!                    owns FleetEngine          └───────────────────────┘
//!                      inject(request)  ◀─ Submit
//!                      step_until(bridge now)  every ≤1 ms
//!                         │ TokenSink events (tokens / rejection)
//!                         ▼
//!                    per-request mpsc stream ──▶ chunked HTTP response
//! ```
//!
//! One thread owns the engine; acceptor threads never touch it. A
//! `Submit` injects the request at the bridge's current virtual time and
//! hands back a private stream channel; the engine thread then keeps
//! stepping virtual time forward to chase the wall clock, and the
//! installed [`TokenSink`] forwards every retired token to the right
//! stream as it happens. The handler holds the HTTP status line until
//! the admission verdict: the first stream event after acceptance is
//! either tokens (→ `200` + chunked body) or an SLO rejection (→ `429`).
//!
//! Elastic fleet events ([`FleetEvents`]) are scheduled in **virtual**
//! nanoseconds: as the bridge advances past a leave or join, live
//! capacity changes mid-serving exactly as it would mid-trace, and
//! `GET /metrics` exposes the online-chip count as it moves.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use spatten_serve::json::{self, JsonObject, JsonValue};
use spatten_serve::{
    fleet_engine, ns_to_cycles, ElasticSpec, FleetConfig, FleetEvents, FleetReport, LiveSnapshot,
    Policy, Rejection, SchedKnobs, TokenEvent, TokenSink,
};
use spatten_workloads::{Benchmark, TraceRequest};

pub mod selftest;

/// Serving-fleet shape and bridge tuning for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Base fleet size (Table-I chips).
    pub chips: usize,
    /// Resident-batch cap per chip.
    pub max_batch: usize,
    /// Scheduling policy; the default is [`Policy::SloAware`], which
    /// turns the admission seam into live SLO-based rejection.
    pub policy: Policy,
    /// Scheduler knobs (routing, stealing, preemption, KV layout).
    pub sched: SchedKnobs,
    /// Virtual nanoseconds per wall nanosecond: 2.0 serves a simulated
    /// fleet at twice wall speed. Must be positive and finite.
    pub time_scale: f64,
    /// Elastic membership events, scheduled in *virtual* nanoseconds
    /// from the server's start.
    pub events: FleetEvents,
    /// Acceptor threads sharing the listener (thread-per-core; 0 means
    /// one per available core).
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            chips: 4,
            max_batch: 8,
            policy: Policy::SloAware,
            sched: SchedKnobs::default(),
            time_scale: 1.0,
            events: FleetEvents::default(),
            workers: 0,
        }
    }
}

/// Maps wall instants to virtual nanoseconds. The epoch is the server's
/// start; scale stretches or compresses simulated time against the wall
/// clock.
#[derive(Debug, Clone, Copy)]
struct TimeBridge {
    epoch: Instant,
    scale: f64,
}

impl TimeBridge {
    fn virtual_ns(&self) -> u64 {
        (self.epoch.elapsed().as_nanos() as f64 * self.scale) as u64
    }

    fn wall_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// One event on a request's private stream channel.
#[derive(Debug, Clone)]
pub enum StreamEvent {
    /// The engine queued the request (admission decides later).
    Accepted {
        /// Server-assigned request id.
        id: u64,
    },
    /// A round retired tokens for this request.
    Tokens {
        /// Stream offset of the first token in this batch.
        first: usize,
        /// Tokens retired this round (0 only on a terminal event).
        count: usize,
        /// Whether the request is complete.
        done: bool,
    },
    /// Live SLO admission shed the request.
    Rejected {
        /// Server-assigned request id.
        id: u64,
    },
}

/// Commands the HTTP side sends the engine thread.
enum Command {
    Submit {
        prompt: usize,
        gen: usize,
        slo_ns: Option<u64>,
        priority: u8,
        reply: Sender<StreamEvent>,
    },
    Snapshot {
        reply: Sender<LiveSnapshot>,
    },
    Shutdown,
}

type Streams = Rc<RefCell<HashMap<u64, Sender<StreamEvent>>>>;

/// The engine-side half of the seam: forwards every token event to its
/// request's stream and counts what it forwarded for `/metrics`.
struct StreamSink {
    streams: Streams,
    tokens: Rc<Cell<u64>>,
}

impl TokenSink for StreamSink {
    fn on_tokens(&mut self, ev: &TokenEvent) {
        self.tokens.set(self.tokens.get() + ev.count as u64);
        let mut streams = self.streams.borrow_mut();
        if let Some(tx) = streams.get(&ev.id) {
            let _ = tx.send(StreamEvent::Tokens {
                first: ev.first,
                count: ev.count,
                done: ev.done,
            });
            if ev.done {
                streams.remove(&ev.id);
            }
        }
    }

    fn on_rejection(&mut self, r: &Rejection) {
        if let Some(tx) = self.streams.borrow_mut().remove(&r.id) {
            let _ = tx.send(StreamEvent::Rejected { id: r.id });
        }
    }
}

/// The engine thread: owns the [`FleetEngine`](spatten_serve::FleetEngine),
/// drains the command
/// queue, and keeps virtual time chasing the bridge. Returns the final
/// post-mortem report once shut down (remaining accepted work drains to
/// completion first, so every accepted stream terminates).
fn engine_thread(cfg: ServerConfig, bridge: TimeBridge, rx: Receiver<Command>) -> FleetReport {
    let fleet = FleetConfig {
        max_batch: cfg.max_batch,
        sched: cfg.sched,
        elastic: Some(ElasticSpec {
            events: cfg.events,
            ..ElasticSpec::default()
        }),
        ..FleetConfig::new(cfg.chips, cfg.policy)
    };
    let mut engine = fleet_engine(&fleet);
    let streams: Streams = Rc::new(RefCell::new(HashMap::new()));
    let tokens = Rc::new(Cell::new(0u64));
    engine.set_sink(Box::new(StreamSink {
        streams: streams.clone(),
        tokens: tokens.clone(),
    }));
    let template = Benchmark::gpt2_small_wikitext2().workload();
    // A join can fire before the first request; price it off the
    // serving model rather than leaving the weight reference unset.
    engine.set_weight_ref(template.clone());
    let clock = engine.clock_ghz();
    let mut accepted: u64 = 0;
    loop {
        match rx.recv_timeout(Duration::from_millis(1)) {
            Ok(Command::Submit {
                prompt,
                gen,
                slo_ns,
                priority,
                reply,
            }) => {
                let id = accepted;
                accepted += 1;
                let mut workload = template.clone();
                workload.seq_len = prompt.max(1);
                workload.gen_steps = gen;
                workload.seed = id;
                let req = TraceRequest {
                    id,
                    class: 0,
                    arrival_ns: bridge.virtual_ns(),
                    slo_ns,
                    priority,
                    shared_prefix_tokens: 0,
                    workload,
                };
                streams.borrow_mut().insert(id, reply.clone());
                engine.inject(&req);
                let _ = reply.send(StreamEvent::Accepted { id });
            }
            Ok(Command::Snapshot { reply }) => {
                let completed = engine.completed() as u64;
                let rejected = engine.rejected() as u64;
                let _ = reply.send(LiveSnapshot {
                    accepted,
                    rejected,
                    completed,
                    tokens_streamed: tokens.get(),
                    in_flight: accepted.saturating_sub(completed + rejected),
                    backlog: engine.backlog() as u64,
                    vtime_cycles: engine.now(),
                    wall_elapsed_ns: bridge.wall_ns(),
                    online_chips: engine.online_chips() as u64,
                    total_chips: engine.chips() as u64,
                });
            }
            Ok(Command::Shutdown) | Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {}
        }
        engine.step_until(ns_to_cycles(clock, bridge.virtual_ns()));
    }
    engine.drain()
}

/// A running front-end: engine thread plus acceptor pool.
pub struct Server {
    addr: SocketAddr,
    cmd: Sender<Command>,
    stop: Arc<AtomicBool>,
    engine: Option<JoinHandle<FleetReport>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `bind` (e.g. `"127.0.0.1:0"` for an ephemeral loopback
    /// port), starts the engine thread and the acceptor pool, and
    /// returns the running server.
    pub fn start(cfg: ServerConfig, bind: &str) -> io::Result<Server> {
        assert!(
            cfg.time_scale.is_finite() && cfg.time_scale > 0.0,
            "time_scale must be positive and finite"
        );
        let listener = TcpListener::bind(bind)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let worker_count = if cfg.workers == 0 {
            thread::available_parallelism().map_or(4, usize::from)
        } else {
            cfg.workers
        };
        let bridge = TimeBridge {
            epoch: Instant::now(),
            scale: cfg.time_scale,
        };
        let (cmd, cmd_rx) = mpsc::channel();
        let engine = thread::Builder::new()
            .name("frontd-engine".into())
            .spawn(move || engine_thread(cfg, bridge, cmd_rx))?;
        let stop = Arc::new(AtomicBool::new(false));
        let mut workers = Vec::with_capacity(worker_count);
        for i in 0..worker_count {
            let listener = listener.try_clone()?;
            let cmd = cmd.clone();
            let stop = stop.clone();
            workers.push(
                thread::Builder::new()
                    .name(format!("frontd-http-{i}"))
                    .spawn(move || accept_loop(listener, cmd, stop))?,
            );
        }
        Ok(Server {
            addr,
            cmd,
            stop,
            engine: Some(engine),
            workers,
        })
    }

    /// The bound socket address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains the engine (accepted streams run to
    /// completion), and returns the final post-mortem report.
    pub fn shutdown(mut self) -> FleetReport {
        self.stop.store(true, Ordering::SeqCst);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let _ = self.cmd.send(Command::Shutdown);
        self.engine
            .take()
            .expect("engine runs until shutdown")
            .join()
            .expect("engine thread never panics")
    }
}

/// One acceptor: polls the shared non-blocking listener and serves each
/// accepted connection to completion on this thread (thread-per-core —
/// a streaming response occupies its core until the stream ends).
fn accept_loop(listener: TcpListener, cmd: Sender<Command>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = handle_connection(stream, &cmd);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => thread::sleep(Duration::from_millis(2)),
        }
    }
}

struct HttpRequest {
    method: String,
    path: String,
    body: Vec<u8>,
}

/// Reads one HTTP/1.1 request (request line, headers, `Content-Length`
/// body). Returns `None` on an immediately closed connection.
fn read_request(stream: &mut TcpStream) -> io::Result<Option<HttpRequest>> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Ok(None);
    };
    let (method, path) = (method.to_string(), path.to_string());
    let mut content_length: usize = 0;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            break;
        }
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap_or(0);
            }
        }
    }
    // 1 MiB cap: request bodies here are tiny JSON objects.
    let mut body = vec![0u8; content_length.min(1 << 20)];
    reader.read_exact(&mut body)?;
    Ok(Some(HttpRequest { method, path, body }))
}

fn handle_connection(mut stream: TcpStream, cmd: &Sender<Command>) -> io::Result<()> {
    // Accepted sockets may inherit the listener's non-blocking mode on
    // some platforms; handlers want plain blocking reads with a bound.
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_nodelay(true)?;
    let Some(req) = read_request(&mut stream)? else {
        return Ok(());
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/generate") => handle_generate(stream, cmd, &req.body),
        ("GET", "/metrics") => handle_metrics(stream, cmd),
        ("GET", "/healthz") => respond_json(
            stream,
            200,
            "OK",
            &JsonObject::new().bool("ok", true).build(),
        ),
        _ => respond_json(
            stream,
            404,
            "Not Found",
            &JsonObject::new().str("error", "no such route").build(),
        ),
    }
}

fn handle_generate(stream: TcpStream, cmd: &Sender<Command>, body: &[u8]) -> io::Result<()> {
    let parsed = std::str::from_utf8(body)
        .map_err(|_| "body is not UTF-8".to_string())
        .and_then(json::parse);
    let doc = match parsed {
        Ok(doc) => doc,
        Err(e) => {
            return respond_json(
                stream,
                400,
                "Bad Request",
                &JsonObject::new().str("error", &e).build(),
            );
        }
    };
    let prompt = doc
        .get("prompt_tokens")
        .and_then(JsonValue::as_u64)
        .unwrap_or(128) as usize;
    let gen = doc
        .get("gen_tokens")
        .and_then(JsonValue::as_u64)
        .unwrap_or(32) as usize;
    let slo_ns = doc
        .get("slo_ms")
        .and_then(JsonValue::as_f64)
        .map(|ms| (ms * 1e6) as u64);
    let priority = doc
        .get("priority")
        .and_then(JsonValue::as_u64)
        .unwrap_or(0)
        .min(u8::MAX as u64) as u8;
    let (reply, events) = mpsc::channel();
    if cmd
        .send(Command::Submit {
            prompt,
            gen,
            slo_ns,
            priority,
            reply,
        })
        .is_err()
    {
        return respond_json(
            stream,
            503,
            "Service Unavailable",
            &JsonObject::new()
                .str("error", "server shutting down")
                .build(),
        );
    }
    let id = match events.recv() {
        Ok(StreamEvent::Accepted { id }) => id,
        _ => {
            return respond_json(
                stream,
                503,
                "Service Unavailable",
                &JsonObject::new().str("error", "engine unavailable").build(),
            );
        }
    };
    // Hold the status line until the admission verdict: the next event
    // is either the first retired tokens or an SLO rejection.
    match events.recv() {
        Ok(StreamEvent::Rejected { .. }) => respond_json(
            stream,
            429,
            "Too Many Requests",
            &JsonObject::new()
                .u64("id", id)
                .str("error", "rejected by slo admission")
                .build(),
        ),
        Ok(first @ StreamEvent::Tokens { .. }) => stream_tokens(stream, id, first, events),
        Ok(StreamEvent::Accepted { .. }) | Err(_) => respond_json(
            stream,
            500,
            "Internal Server Error",
            &JsonObject::new()
                .str("error", "stream broke before verdict")
                .build(),
        ),
    }
}

/// Streams token events as one chunk per engine round, JSON-lines
/// framed, until the terminal `done` (or a mid-stream rejection, which
/// closes the stream with a terminal `rejected` record).
fn stream_tokens(
    mut stream: TcpStream,
    id: u64,
    first: StreamEvent,
    events: Receiver<StreamEvent>,
) -> io::Result<()> {
    stream.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/jsonl\r\n\
          Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
    )?;
    send_chunk(
        &mut stream,
        &JsonObject::new()
            .str("event", "accepted")
            .u64("id", id)
            .build(),
    )?;
    let mut ev = first;
    let mut total: u64 = 0;
    loop {
        match ev {
            StreamEvent::Tokens { first, count, done } => {
                if count > 0 {
                    total += count as u64;
                    send_chunk(
                        &mut stream,
                        &JsonObject::new()
                            .str("event", "tokens")
                            .u64("first", first as u64)
                            .u64("count", count as u64)
                            .build(),
                    )?;
                }
                if done {
                    send_chunk(
                        &mut stream,
                        &JsonObject::new()
                            .str("event", "done")
                            .u64("id", id)
                            .u64("total_tokens", total)
                            .build(),
                    )?;
                    break;
                }
            }
            StreamEvent::Rejected { .. } => {
                send_chunk(
                    &mut stream,
                    &JsonObject::new()
                        .str("event", "rejected")
                        .u64("id", id)
                        .build(),
                )?;
                break;
            }
            StreamEvent::Accepted { .. } => {}
        }
        ev = match events.recv() {
            Ok(ev) => ev,
            Err(_) => {
                // Engine gone without a terminal event — only possible
                // on a panic; tell the client the stream aborted.
                send_chunk(
                    &mut stream,
                    &JsonObject::new()
                        .str("event", "aborted")
                        .u64("id", id)
                        .build(),
                )?;
                break;
            }
        };
    }
    stream.write_all(b"0\r\n\r\n")
}

fn send_chunk(stream: &mut TcpStream, record: &str) -> io::Result<()> {
    write!(stream, "{:x}\r\n{record}\n\r\n", record.len() + 1)
}

fn handle_metrics(stream: TcpStream, cmd: &Sender<Command>) -> io::Result<()> {
    let (reply, snap_rx) = mpsc::channel();
    if cmd.send(Command::Snapshot { reply }).is_ok() {
        if let Ok(snap) = snap_rx.recv_timeout(Duration::from_secs(5)) {
            return respond_json(stream, 200, "OK", &snap.to_json());
        }
    }
    respond_json(
        stream,
        503,
        "Service Unavailable",
        &JsonObject::new().str("error", "engine unavailable").build(),
    )
}

fn respond_json(mut stream: TcpStream, code: u16, reason: &str, body: &str) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {code} {reason}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}
