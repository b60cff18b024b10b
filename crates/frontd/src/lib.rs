//! # spatten-frontd — a live HTTP front-end over the fleet simulator
//!
//! Everything below this crate is trace-driven: a [`FleetEngine`]
//! replays pre-drawn arrivals through virtual time and reports a
//! post-mortem.
//! This crate turns that same engine into a **live server**: a
//! hand-rolled `std::net` HTTP front-end whose requests arrive on the
//! wall clock, get mapped onto virtual cycles through a time bridge,
//! flow through SLO-aware admission control, and stream their per-token
//! completions back chunk by chunk as the engine's [`TokenSink`]
//! surfaces them.
//!
//! ## Architecture
//!
//! ```text
//!   client ──HTTP──▶ acceptor threads (shared blocking listener)
//!                         │  read and bound the request, then hand its
//!                         │  socket over in a Submit or Snapshot command
//!                         ▼
//!                    mpsc command queue
//!                         │                    ┌─ virtual-time bridge ─┐
//!                         ▼                    │ vns = wall_ns × scale │
//!                    engine thread ◀──────────┤ cycles = vns × GHz    │
//!                    owns FleetEngine          └───────────────────────┘
//!                      inject(request)  ◀─ Submit
//!                      step_until(bridge now)  on each command, and at
//!                        the wall instant of the next engine event
//!                         │ TokenSink events (tokens / rejection)
//!                         ▼
//!                    StreamSink writes each event to its request's
//!                    non-blocking socket ──▶ chunked HTTP response
//! ```
//!
//! One thread owns the engine and writes every response that needs it;
//! acceptor threads never touch it. An acceptor reads a request, makes
//! its socket non-blocking, hands it to the engine thread with the
//! command and goes straight back to `accept`, so no stream holds an
//! acceptor. A `Submit` injects the request at the bridge's current
//! virtual time. Between commands the engine thread sleeps until the
//! wall instant the bridge maps the engine's next event to
//! ([`FleetEngine::next_event_time`]), then steps virtual time up to the
//! wall clock, and the installed [`TokenSink`] writes every retired token
//! to its request's socket as it happens. With no event pending it sleeps
//! until the next command, and acceptors block in `accept`: nothing
//! polls, so an idle server uses no CPU. The status line waits for the
//! admission verdict: a request's first event is either tokens (→ `200`
//! and a chunked body) or an SLO rejection (→ `429`). A write never
//! blocks the engine: one that fails, because the client closed or
//! stopped reading, drops that stream, and its job decodes on.
//!
//! Elastic fleet events ([`FleetEvents`]) are scheduled in **virtual**
//! nanoseconds: as the bridge advances past a leave or join, live
//! capacity changes mid-serving exactly as it would mid-trace, and
//! `GET /metrics` exposes the online-chip count as it moves.
//!
//! [`FleetEngine`]: spatten_serve::FleetEngine
//! [`FleetEngine::next_event_time`]: spatten_serve::FleetEngine::next_event_time

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SendError, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use spatten_serve::json::{self, JsonObject, JsonValue};
use spatten_serve::{
    fleet_engine, ns_to_cycles, ElasticSpec, FleetConfig, FleetEvents, FleetReport, Policy,
    Rejection, TokenEvent, TokenSink,
};
use spatten_workloads::{Benchmark, TraceRequest};

pub mod selftest;

/// The most tokens (`prompt_tokens + gen_tokens`) one request may ask
/// for. The cost memo keeps a dense row per request class indexed by
/// sequence length, so an unbounded length is an unbounded allocation
/// on the engine thread; longer requests get `400` before they reach
/// the engine.
pub const MAX_REQUEST_TOKENS: u64 = 8192;

/// The longest request line or header line an acceptor reads, CRLF
/// included; a longer one is answered `431`.
const MAX_LINE_BYTES: usize = 8 * 1024;

/// The most header lines one request may carry; more are answered `431`.
const MAX_HEADERS: usize = 100;

/// The largest request body; a longer `Content-Length` is answered `413`.
const MAX_BODY_BYTES: usize = 1 << 20;

/// How long an acceptor waits for a whole request — request line,
/// headers and body — from the moment it accepts the connection. A
/// client still sending when it passes is answered `408`.
const REQUEST_DEADLINE: Duration = Duration::from_secs(5);

/// How long a refused connection lingers to read what the client is
/// still sending, so the refusal is not lost to a connection reset.
const REFUSAL_LINGER: Duration = Duration::from_secs(1);

/// How long a `408` lingers instead: its client has had the whole
/// [`REQUEST_DEADLINE`], and must not hold the acceptor much past it.
const TIMEOUT_LINGER: Duration = Duration::from_millis(100);

/// Serving-fleet shape and bridge tuning for one server instance. The
/// fleet serves [`Policy::SloAware`] with the default scheduler knobs,
/// which turns the admission seam into live SLO-based rejection.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Base fleet size (Table-I chips).
    pub chips: usize,
    /// Resident-batch cap per chip.
    pub max_batch: usize,
    /// Virtual nanoseconds per wall nanosecond: 2.0 serves a simulated
    /// fleet at twice wall speed. Must be positive and finite.
    pub time_scale: f64,
    /// Elastic membership events, scheduled in *virtual* nanoseconds
    /// from the server's start.
    pub events: FleetEvents,
    /// Acceptor threads sharing the listener (0 means one per available
    /// core). An acceptor holds a connection only while it reads the
    /// request; the engine thread writes every stream, so this does not
    /// bound how many stream at once.
    pub workers: usize,
}

impl ServerConfig {
    /// Checks that this configuration describes a fleet the engine can
    /// build, naming the field that does not: at least one chip, a
    /// positive batch cap, a positive finite time scale, leaves that name
    /// a chip of the roster (`chips` plus the joins) and spare at least
    /// one base chip, and joins clocked like the fleet. [`Server::start`]
    /// calls it before binding.
    pub fn validate(&self) -> io::Result<()> {
        let invalid = |msg: String| Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        if self.chips == 0 {
            return invalid("chips must be at least 1".into());
        }
        if self.max_batch == 0 {
            return invalid("max_batch must be at least 1".into());
        }
        if !(self.time_scale.is_finite() && self.time_scale > 0.0) {
            return invalid(format!(
                "time_scale must be positive and finite, got {}",
                self.time_scale
            ));
        }
        let roster = self.chips + self.events.joins.len();
        if let Some(leave) = self.events.leaves.iter().find(|l| l.chip >= roster) {
            return invalid(format!(
                "events: a leave targets chip {} of a {roster}-chip roster",
                leave.chip
            ));
        }
        // The engine re-routes displaced work to an online chip, so one
        // must stay: a fleet that loses every base chip never answers.
        if (0..self.chips).all(|chip| self.events.leaves.iter().any(|l| l.chip == chip)) {
            return invalid("events: every base chip leaves; one must stay online".into());
        }
        let clock = self.fleet().accel.clock_ghz;
        if let Some(join) = self
            .events
            .joins
            .iter()
            .find(|j| j.chip_config.clock_ghz.to_bits() != clock.to_bits())
        {
            return invalid(format!(
                "events: a join is clocked at {} GHz, the fleet at {clock} GHz",
                join.chip_config.clock_ghz
            ));
        }
        Ok(())
    }

    /// The fleet this configuration serves.
    fn fleet(&self) -> FleetConfig {
        FleetConfig {
            max_batch: self.max_batch,
            elastic: Some(ElasticSpec {
                events: self.events.clone(),
                ..ElasticSpec::default()
            }),
            ..FleetConfig::new(self.chips, Policy::SloAware)
        }
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            chips: 4,
            max_batch: 8,
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
    /// The virtual nanosecond `wall_ns` after the epoch maps to.
    fn virtual_at(&self, wall_ns: u64) -> u64 {
        (wall_ns as f64 * self.scale) as u64
    }

    fn virtual_ns(&self) -> u64 {
        self.virtual_at(self.wall_ns())
    }

    fn wall_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The virtual time now, in cycles of a `clock_ghz` clock.
    fn cycles(&self, clock_ghz: f64) -> u64 {
        ns_to_cycles(clock_ghz, self.virtual_ns())
    }

    /// The wall nanosecond after the epoch at which the bridge reaches
    /// virtual cycle `cycle`: `ceil(cycle / clock_ghz) / scale`, rounded
    /// up and then past any float shortfall, so it is never early (a
    /// wake before an event only spins) and at most a few nanoseconds
    /// late.
    fn wall_ns_at(&self, cycle: u64, clock_ghz: f64) -> u64 {
        let virtual_ns = (cycle as f64 / clock_ghz).ceil();
        let mut wall = (virtual_ns / self.scale).ceil() as u64;
        while wall < u64::MAX && ns_to_cycles(clock_ghz, self.virtual_at(wall)) < cycle {
            wall += 1;
        }
        wall
    }

    /// How long from now until the bridge reaches virtual cycle `cycle`.
    fn until(&self, cycle: u64, clock_ghz: f64) -> Duration {
        Duration::from_nanos(self.wall_ns_at(cycle, clock_ghz)).saturating_sub(self.epoch.elapsed())
    }
}

/// Commands the HTTP side sends the engine thread. A request that needs
/// the engine carries its client's non-blocking socket, and the engine
/// thread writes the response on it.
enum Command {
    Submit {
        prompt: usize,
        gen: usize,
        slo_ns: Option<u64>,
        priority: u8,
        socket: TcpStream,
    },
    Snapshot {
        socket: TcpStream,
    },
    Shutdown,
}

/// A generation response the engine thread is writing: the client's
/// socket and the tokens sent on it. Every event but a request's last
/// carries a token, so none sent means the status line has not gone out.
struct Response {
    socket: TcpStream,
    sent: u64,
}

/// The open responses by request id, and every token the engine retired
/// (for `/metrics`).
#[derive(Default)]
struct Streams {
    open: HashMap<u64, Response>,
    tokens: u64,
}

/// The head of a streamed generation response.
const STREAM_HEAD: &str = "HTTP/1.1 200 OK\r\nContent-Type: application/jsonl\r\n\
                           Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n";

/// The chunk that ends a streamed response.
const LAST_CHUNK: &str = "0\r\n\r\n";

/// The engine-side half of the seam: writes each token event or
/// rejection to its request's socket as one buffer, as the engine emits
/// it. A failed write (a closed peer, or `WouldBlock` from a client that
/// stopped reading until its socket buffers filled) drops that stream;
/// its job decodes on.
struct StreamSink(Rc<RefCell<Streams>>);

impl TokenSink for StreamSink {
    fn on_tokens(&mut self, ev: &TokenEvent) {
        let streams = &mut *self.0.borrow_mut();
        streams.tokens += ev.count as u64;
        let Some(r) = streams.open.get_mut(&ev.id) else {
            return;
        };
        let mut out = String::new();
        if r.sent == 0 {
            out.push_str(STREAM_HEAD);
            push_chunk(&mut out, &record("accepted").u64("id", ev.id).build());
        }
        if ev.count > 0 {
            r.sent += ev.count as u64;
            push_chunk(
                &mut out,
                &record("tokens")
                    .u64("first", ev.first as u64)
                    .u64("count", ev.count as u64)
                    .build(),
            );
        }
        if ev.done {
            push_chunk(
                &mut out,
                &record("done")
                    .u64("id", ev.id)
                    .u64("total_tokens", r.sent)
                    .build(),
            );
            out.push_str(LAST_CHUNK);
        }
        if r.socket.write_all(out.as_bytes()).is_err() || ev.done {
            streams.open.remove(&ev.id);
        }
    }

    fn on_rejection(&mut self, rejection: &Rejection) {
        let Some(mut r) = self.0.borrow_mut().open.remove(&rejection.id) else {
            return;
        };
        let out = if r.sent == 0 {
            let body = JsonObject::new()
                .u64("id", rejection.id)
                .str("error", "rejected by slo admission")
                .build();
            json_response(429, "Too Many Requests", &body)
        } else {
            let mut out = String::new();
            push_chunk(
                &mut out,
                &record("rejected").u64("id", rejection.id).build(),
            );
            out + LAST_CHUNK
        };
        let _ = r.socket.write_all(out.as_bytes());
    }
}

/// A stream record: a JSON object that opens with its `event` name.
fn record(event: &str) -> JsonObject {
    JsonObject::new().str("event", event)
}

/// Appends `record` and its newline to `out` as one HTTP chunk.
fn push_chunk(out: &mut String, record: &str) {
    let _ = write!(out, "{:x}\r\n{record}\n\r\n", record.len() + 1);
}

/// The engine thread: owns the [`FleetEngine`], serves the command
/// queue, and keeps virtual time chasing the bridge. It sleeps until the
/// next command or the wall instant of the engine's next event, then
/// steps to the bridge's now. Returns the final post-mortem report once
/// shut down (remaining accepted work drains to completion first, and
/// every open stream is written to its end at once).
fn engine_thread(cfg: ServerConfig, bridge: TimeBridge, rx: Receiver<Command>) -> FleetReport {
    let mut engine = fleet_engine(&cfg.fleet());
    let streams = Rc::new(RefCell::new(Streams::default()));
    engine.set_sink(Box::new(StreamSink(streams.clone())));
    let template = Benchmark::gpt2_small_wikitext2().workload();
    // A join can fire before the first request; price it off the
    // serving model rather than leaving the weight reference unset.
    engine.set_weight_ref(template.clone());
    let clock = engine.clock_ghz();
    let mut accepted: u64 = 0;
    loop {
        let woke = match engine.next_event_time() {
            Some(t) => rx.recv_timeout(bridge.until(t, clock)),
            None => rx.recv().map_err(RecvTimeoutError::from),
        };
        match woke {
            Ok(Command::Submit {
                prompt,
                gen,
                slo_ns,
                priority,
                socket,
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
                streams
                    .borrow_mut()
                    .open
                    .insert(id, Response { socket, sent: 0 });
                engine.inject(&req);
            }
            Ok(Command::Snapshot { mut socket }) => {
                // Never report state from before an event already due.
                engine.step_until(bridge.cycles(clock));
                let completed = engine.completed() as u64;
                let rejected = engine.rejected() as u64;
                let body = JsonObject::new()
                    .u64("accepted", accepted)
                    .u64("rejected", rejected)
                    .u64("completed", completed)
                    .u64("tokens_streamed", streams.borrow().tokens)
                    .u64("in_flight", accepted.saturating_sub(completed + rejected))
                    .u64("backlog", engine.backlog() as u64)
                    .u64("vtime_cycles", engine.now())
                    .u64("wall_elapsed_ns", bridge.wall_ns())
                    .u64("online_chips", engine.online_chips() as u64)
                    .u64("total_chips", engine.chips() as u64)
                    .build();
                let _ = socket.write_all(json_response(200, "OK", &body).as_bytes());
            }
            Ok(Command::Shutdown) | Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {}
        }
        engine.step_until(bridge.cycles(clock));
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
    ///
    /// Fails with [`io::ErrorKind::InvalidInput`] before binding if
    /// [`ServerConfig::validate`] rejects `cfg`.
    pub fn start(cfg: ServerConfig, bind: &str) -> io::Result<Server> {
        cfg.validate()?;
        let listener = TcpListener::bind(bind)?;
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

    /// Stops accepting, drains the engine (accepted jobs run to
    /// completion, and each open stream is written to its end at once),
    /// and returns the final post-mortem report. Each acceptor blocked in
    /// `accept` is woken by one loopback connection.
    pub fn shutdown(mut self) -> FleetReport {
        self.stop.store(true, Ordering::SeqCst);
        let wake = wake_addr(self.addr);
        for _ in &self.workers {
            let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
        }
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

/// Where [`Server::shutdown`] connects to wake a blocked acceptor: the
/// bound address, with an unspecified IP replaced by the loopback of
/// the same family.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => addr.set_ip(Ipv4Addr::LOCALHOST.into()),
        IpAddr::V6(ip) if ip.is_unspecified() => addr.set_ip(Ipv6Addr::LOCALHOST.into()),
        _ => {}
    }
    addr
}

/// One acceptor: blocks in `accept` on the shared listener, reads and
/// routes each connection's request, and goes straight back to `accept`.
/// A request the engine answers leaves with its socket, so no stream
/// holds an acceptor. It checks `stop` after every accept, so the
/// connection [`Server::shutdown`] makes ends it.
fn accept_loop(listener: TcpListener, cmd: Sender<Command>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let _ = handle_connection(stream, &cmd);
            }
            // A real accept error (EMFILE, say) may recur at once: back
            // off so the loop cannot spin.
            Err(_) => thread::sleep(Duration::from_millis(2)),
        }
    }
}

struct HttpRequest {
    method: String,
    path: String,
    body: Vec<u8>,
}

/// What an acceptor made of a connection's first bytes.
enum Incoming {
    /// A complete request to route.
    Request(HttpRequest),
    /// A request refused before routing: status, reason phrase, error.
    Refused(u16, &'static str, &'static str),
    /// The client closed, or sent no request line: nothing to answer.
    Closed,
}

/// A connection's reads, all ending by one deadline: each read blocks
/// only for the time left, and a read the deadline cuts short fails with
/// [`io::ErrorKind::TimedOut`].
struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        match self.stream.read(buf) {
            // A timed-out blocking read fails `WouldBlock` on Unix.
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Err(io::ErrorKind::TimedOut.into()),
            read => read,
        }
    }
}

/// Reads one HTTP/1.1 request (request line, headers, `Content-Length`
/// body) by `deadline`. Every read is bounded — [`MAX_LINE_BYTES`] per
/// line, [`MAX_HEADERS`] lines, [`MAX_BODY_BYTES`] of body — so no client
/// can make an acceptor hold more than that, and none can hold it past
/// `deadline`, however slowly it sends.
fn read_request(stream: &TcpStream, deadline: Instant) -> io::Result<Incoming> {
    const TOO_LARGE: &str = "Request Header Fields Too Large";
    let mut reader = BufReader::new(DeadlineReader { stream, deadline });
    let mut line = String::new();
    if !read_line(&mut reader, &mut line)? {
        return Ok(Incoming::Refused(431, TOO_LARGE, "request line over 8 KiB"));
    }
    let mut parts = line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Ok(Incoming::Closed);
    };
    let (method, path) = (method.to_string(), path.to_string());
    let mut content_length = 0;
    let mut headers = 0;
    loop {
        if !read_line(&mut reader, &mut line)? {
            return Ok(Incoming::Refused(431, TOO_LARGE, "header line over 8 KiB"));
        }
        let header = line.trim();
        if header.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Ok(Incoming::Refused(431, TOO_LARGE, "more than 100 headers"));
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                let Ok(len) = value.trim().parse() else {
                    return Ok(Incoming::Refused(400, "Bad Request", "bad Content-Length"));
                };
                if len > MAX_BODY_BYTES {
                    return Ok(Incoming::Refused(
                        413,
                        "Payload Too Large",
                        "body over 1 MiB",
                    ));
                }
                content_length = len;
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Incoming::Request(HttpRequest { method, path, body }))
}

/// Reads one line of at most [`MAX_LINE_BYTES`] into `line` (cleared
/// first; empty at end of stream). Returns `false` if the line is longer.
fn read_line(reader: &mut impl BufRead, line: &mut String) -> io::Result<bool> {
    line.clear();
    let n = reader
        .by_ref()
        .take(MAX_LINE_BYTES as u64)
        .read_line(line)?;
    Ok(n < MAX_LINE_BYTES || line.ends_with('\n'))
}

/// Answers a refused request, then lingers for at most `linger`, reading
/// and dropping whatever the client is still sending: closing with those
/// bytes unread would reset the connection before the client reads the
/// answer.
fn refuse(
    stream: TcpStream,
    code: u16,
    reason: &str,
    error: &str,
    linger: Duration,
) -> io::Result<()> {
    let body = JsonObject::new().str("error", error).build();
    respond_json(stream.try_clone()?, code, reason, &body)?;
    stream.shutdown(Shutdown::Write)?;
    let deadline = Instant::now() + linger;
    let mut scratch = [0u8; 4096];
    while let Some(left) = deadline.checked_duration_since(Instant::now()) {
        stream.set_read_timeout(Some(left.max(Duration::from_millis(1))))?;
        if matches!((&stream).read(&mut scratch), Ok(0) | Err(_)) {
            break;
        }
    }
    Ok(())
}

fn handle_connection(stream: TcpStream, cmd: &Sender<Command>) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let req = match read_request(&stream, Instant::now() + REQUEST_DEADLINE) {
        Ok(Incoming::Request(req)) => req,
        Ok(Incoming::Refused(code, reason, error)) => {
            return refuse(stream, code, reason, error, REFUSAL_LINGER)
        }
        Ok(Incoming::Closed) => return Ok(()),
        Err(e) if e.kind() == io::ErrorKind::TimedOut => {
            let error = "request not received within 5 s";
            return refuse(stream, 408, "Request Timeout", error, TIMEOUT_LINGER);
        }
        Err(e) => return Err(e),
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
        .unwrap_or(128);
    let gen = doc
        .get("gen_tokens")
        .and_then(JsonValue::as_u64)
        .unwrap_or(32);
    if prompt.saturating_add(gen) > MAX_REQUEST_TOKENS {
        return respond_json(
            stream,
            400,
            "Bad Request",
            &JsonObject::new()
                .str(
                    "error",
                    &format!("prompt_tokens + gen_tokens exceeds {MAX_REQUEST_TOKENS}"),
                )
                .build(),
        );
    }
    let (prompt, gen) = (prompt as usize, gen as usize);
    let slo_ns = doc
        .get("slo_ms")
        .and_then(JsonValue::as_f64)
        .map(|ms| (ms * 1e6) as u64);
    let priority = doc
        .get("priority")
        .and_then(JsonValue::as_u64)
        .unwrap_or(0)
        .min(u8::MAX as u64) as u8;
    stream.set_nonblocking(true)?;
    let submit = Command::Submit {
        prompt,
        gen,
        slo_ns,
        priority,
        socket: stream,
    };
    hand_over(cmd, submit, "server shutting down")
}

fn handle_metrics(stream: TcpStream, cmd: &Sender<Command>) -> io::Result<()> {
    stream.set_nonblocking(true)?;
    hand_over(
        cmd,
        Command::Snapshot { socket: stream },
        "engine unavailable",
    )
}

/// Sends a request and its socket to the engine thread, which answers
/// it. If that thread is gone, the command comes back with the socket
/// and the client gets `503` with `error` at once.
fn hand_over(cmd: &Sender<Command>, command: Command, error: &str) -> io::Result<()> {
    match cmd.send(command) {
        Err(SendError(Command::Submit { socket, .. } | Command::Snapshot { socket })) => {
            let body = JsonObject::new().str("error", error).build();
            respond_json(socket, 503, "Service Unavailable", &body)
        }
        _ => Ok(()),
    }
}

/// A complete JSON response, as one buffer.
fn json_response(code: u16, reason: &str, body: &str) -> String {
    format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

fn respond_json(mut stream: TcpStream, code: u16, reason: &str, body: &str) -> io::Result<()> {
    stream.write_all(json_response(code, reason, body).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatten_core::SpAttenConfig;
    use spatten_serve::{ChipJoin, ChipLeave, LeaveMode};

    #[test]
    fn invalid_configs_are_refused_before_binding() {
        fn leave(chip: usize) -> ChipLeave {
            ChipLeave {
                chip,
                at_ns: 10_000_000,
                mode: LeaveMode::Drain,
            }
        }
        fn revoke(chip: usize) -> ChipLeave {
            ChipLeave {
                mode: LeaveMode::Revoke { grace_ns: 0 },
                ..leave(chip)
            }
        }
        fn join(clock_ghz: f64) -> ChipJoin {
            ChipJoin {
                chip_config: SpAttenConfig {
                    clock_ghz,
                    ..SpAttenConfig::default()
                },
                at_ns: 10_000_000,
            }
        }
        // Each edit of the default 4-chip config, and the field its error
        // must name.
        type Edit = fn(&mut ServerConfig);
        let cases: [(&str, Edit); 11] = [
            ("chips", |c| c.chips = 0),
            ("max_batch", |c| c.max_batch = 0),
            ("time_scale", |c| c.time_scale = 0.0),
            ("time_scale", |c| c.time_scale = -1.0),
            ("time_scale", |c| c.time_scale = f64::NAN),
            ("time_scale", |c| c.time_scale = f64::INFINITY),
            ("leave", |c| c.events.leaves.push(leave(4))),
            ("leave", |c| {
                c.events
                    .joins
                    .push(join(SpAttenConfig::default().clock_ghz));
                c.events.leaves.push(leave(5));
            }),
            // No base chip survives.
            ("leave", |c| {
                c.chips = 1;
                c.events.leaves.push(leave(0));
            }),
            ("leave", |c| {
                c.chips = 2;
                c.events.leaves.extend([leave(0), revoke(1)]);
            }),
            ("join", |c| {
                c.events
                    .joins
                    .push(join(2.0 * SpAttenConfig::default().clock_ghz));
            }),
        ];
        for (field, edit) in cases {
            let mut cfg = ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            };
            edit(&mut cfg);
            let err = cfg.validate().expect_err(field);
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{field}");
            assert!(err.to_string().contains(field), "{field}: {err}");
            let started = Server::start(cfg, "127.0.0.1:0").err().map(|e| e.kind());
            assert_eq!(started, Some(io::ErrorKind::InvalidInput), "{field}");
        }
        // A leave may name a joined chip.
        let mut joined = ServerConfig::default();
        joined
            .events
            .joins
            .push(join(SpAttenConfig::default().clock_ghz));
        joined.events.leaves.push(leave(4));
        assert!(joined.validate().is_ok());
        // One surviving base chip is enough.
        let mut survivor = ServerConfig {
            chips: 2,
            ..ServerConfig::default()
        };
        survivor.events.leaves.push(revoke(0));
        assert!(survivor.validate().is_ok());
        assert!(ServerConfig::default().validate().is_ok());
    }

    #[test]
    fn the_bridge_wakes_at_an_event_never_early_and_at_most_1us_late() {
        for clock in [SpAttenConfig::default().clock_ghz, 1.37] {
            for scale in [0.5, 1.0, 3.0, 8.0, 16.0] {
                let bridge = TimeBridge {
                    epoch: Instant::now(),
                    scale,
                };
                for cycle in [0, 1, 7, 1_000_000, 1_000_000_000_003] {
                    let wall = bridge.wall_ns_at(cycle, clock);
                    let reached = ns_to_cycles(clock, bridge.virtual_at(wall));
                    assert!(
                        reached >= cycle,
                        "{clock} GHz × {scale}: woke at cycle {reached} for {cycle}"
                    );
                    let exact = cycle as f64 / clock / scale;
                    assert!(
                        wall as f64 - exact <= 1_000.0,
                        "{clock} GHz × {scale}: woke at {wall} ns for {exact} ns"
                    );
                }
            }
        }
    }

    #[test]
    fn wake_connections_go_to_the_loopback_of_the_bound_family() {
        let wake = |a: &str| wake_addr(a.parse().unwrap());
        assert_eq!(wake("0.0.0.0:8000"), "127.0.0.1:8000".parse().unwrap());
        assert_eq!(wake("[::]:8000"), "[::1]:8000".parse().unwrap());
        assert_eq!(wake("127.0.0.1:9"), "127.0.0.1:9".parse().unwrap());
        assert_eq!(wake("10.1.2.3:80"), "10.1.2.3:80".parse().unwrap());
    }
}
