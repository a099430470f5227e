//! Minimal HTTP/1.1 plumbing over `std::net` — enough protocol for a
//! localhost experiment service, and nothing more.
//!
//! Server side: [`Server::bind`] + [`Server::run`], a non-blocking
//! event loop. One reactor thread owns every socket: it blocks in
//! `poll(2)` on the listener, every connection it owes I/O and a wake
//! pipe, and advances per-connection state machines (reading-head →
//! reading-body → handling → writing, see [`ConnState`]) only when their
//! socket is ready, so a slowloris peer trickling one byte at a time
//! costs an idle state machine instead of a wedged thread, an idle
//! server never wakes, and one process can hold thousands of open
//! connections. Complete requests are handed to a fixed pool of
//! `--workers` handler threads through the scheduler's two-lane queue
//! (`scheduler::Lanes`, one request per pickup): interactive traffic
//! (cell lookups, probes, small sweeps — see [`classify_lane`]) is
//! dispatched before bulk full-grid work, and bulk passed over
//! [`AGING_ROUNDS`](crate::scheduler::AGING_ROUNDS) consecutive pickups
//! is promoted, so bulk is never starved. A request that sends
//! `Connection: keep-alive` keeps its connection open for the next one
//! (requests pipelined behind it are answered in order); any other
//! request gets `Connection: close`. Bodies are framed by
//! `Content-Length` only: a request carrying `Transfer-Encoding` is
//! answered 400 and closed. Header and body sizes are bounded,
//! and every connection the reactor owes I/O has an idle-progress
//! deadline. Client side: [`request`] and friends, used by `harness
//! submit`, the router's shard fan-out and the end-to-end tests. They
//! send `Connection: keep-alive` and keep idle connections in a small
//! process-wide pool keyed by address, so a stream of requests to one
//! server reuses one socket.
//!
//! The client can also carry a deterministic network [`FaultPlan`]
//! ([`request_with_chaos`]): connect refusal, recorded (never slept)
//! stalls, truncated responses and garbage status lines are rolled as
//! pure functions of the request *content* and attempt number, so a
//! chaotic routed sweep makes identical fault decisions at any
//! `SIM_THREADS` and across runs with ephemeral ports.

use crate::key::fnv1a64;
use crate::panic_message;
use crate::scheduler::{Lane, Lanes};
use sim_faults::{FaultPlan, FaultSite};
use std::collections::VecDeque;
use std::ffi::{c_int, c_short, c_ulong};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use telemetry::LatencyHistogram;

/// Maximum accepted size of the request head (request line + headers).
const MAX_HEAD: usize = 16 * 1024;
/// Maximum accepted request body size.
const MAX_BODY: usize = 16 * 1024 * 1024;

// ---- timeout defaults ----
//
// Every timeout the serving stack uses defaults here, in one place; the
// CLI's `--timeout-ms` overrides the per-request one.

/// Default client request timeout (ms): a full-grid sweep simulates many
/// cells, so the data-plane default is generous.
pub const DEFAULT_TIMEOUT_MS: u64 = 600_000;
/// Default timeout (ms) for cheap control-plane probes (`/healthz`).
pub const DEFAULT_PROBE_TIMEOUT_MS: u64 = 10_000;
/// Default per-connection server socket timeout (ms): a connection that
/// makes no byte progress for this long while reading or writing is
/// closed (connections parked in a handler are exempt — the scheduler's
/// wait deadline covers those).
pub const DEFAULT_IO_TIMEOUT_MS: u64 = 30_000;

// ---- event-loop tuning ----

/// Default number of handler worker threads (`--workers`).
pub const DEFAULT_WORKERS: usize = 4;
/// Default interactive-lane budget (`--priority-cells`): sweep bodies
/// naming at most this many cells ride the interactive lane.
pub const DEFAULT_PRIORITY_CELLS: usize = 8;

// ---- poll(2) shim: std has no readiness wait, but links libc's ----

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x1;
const POLLOUT: c_short = 0x4;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Block until an entry of `fds` is ready or `timeout` (rounded up to
/// whole ms; `None` = forever) passes. A signal interrupts the wait with
/// every `revents` left zero: a spurious wake.
fn poll_fds(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<()> {
    let ms = timeout.map_or(-1, |t| {
        c_int::try_from(t.as_micros().div_ceil(1000)).unwrap_or(c_int::MAX)
    });
    // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)` pollfd
    // structs, and `nfds` is its length, so the kernel writes only into it.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, ms) };
    let err = io::Error::last_os_error();
    if rc < 0 && err.kind() != io::ErrorKind::Interrupted {
        return Err(err);
    }
    Ok(())
}

/// Nudge the reactor out of `poll`. A full pipe already holds a wake-up,
/// so a failed write loses nothing.
fn wake(tx: &UnixStream) {
    let _ = (&*tx).write(&[1]);
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Path with query string, verbatim (e.g. `/v1/cell/abc123`).
    pub path: String,
    /// Header names lowercased.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// The dispatch lane the reactor classified this request into
    /// ([`classify_lane`]); handlers reuse it rather than classifying
    /// again, so a request rides one lane end to end.
    pub lane: Lane,
}

impl Request {
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// One response to send.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Vec<u8>,
    /// Extra headers (e.g. `Retry-After` on 429).
    pub extra_headers: Vec<(String, String)>,
}

impl Response {
    pub fn new(status: u16, content_type: &'static str, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type,
            body: body.into(),
            extra_headers: Vec::new(),
        }
    }

    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response::new(status, "text/plain; charset=utf-8", body)
    }

    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response::new(status, "application/json", body)
    }

    pub fn jsonl(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response::new(status, "application/jsonl", body)
    }

    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.extra_headers.push((name.into(), value.into()));
        self
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }
}

/// Why the request parser could not produce a request — each variant
/// maps to a different answer on the wire.
#[derive(Debug)]
pub enum ReadError {
    /// Head or declared body exceeds the configured caps → 413.
    TooLarge(String),
    /// Syntactically broken request → 400.
    Malformed(String),
    /// Transport failure (peer gone, timeout): nothing left to answer.
    Io(io::Error),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::TooLarge(m) | ReadError::Malformed(m) => f.write_str(m),
            ReadError::Io(e) => e.fmt(f),
        }
    }
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> ReadError {
        ReadError::Io(e)
    }
}

/// Resolve `Content-Length` strictly: absent is `None`, repeated but
/// *equal* values collapse to one (proxies re-stamp the header), and
/// conflicting duplicates are an error — the classic request-smuggling
/// ambiguity, where "take the first match" silently picks a side. Used
/// by the server-side parser (answers 400) and the client-side
/// [`parse_response`] alike.
fn content_length_of(headers: &[(String, String)]) -> Result<Option<usize>, String> {
    let mut declared: Option<usize> = None;
    for (k, v) in headers {
        if k != "content-length" {
            continue;
        }
        let n: usize = v
            .trim()
            .parse()
            .map_err(|_| "bad content-length".to_string())?;
        match declared {
            Some(prev) if prev != n => {
                return Err(format!("conflicting content-length headers: {prev} vs {n}"));
            }
            _ => declared = Some(n),
        }
    }
    Ok(declared)
}

/// Parse the request head (request line + headers); the body is read
/// separately by the connection state machine.
fn parse_head(head: &[u8]) -> Result<Request, ReadError> {
    let bad = |m: &str| ReadError::Malformed(m.to_string());
    let head = std::str::from_utf8(head).map_err(|_| bad("non-UTF8 head"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or_else(|| bad("empty request"))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .ok_or_else(|| bad("bad request line"))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| bad("bad request line"))?
        .to_string();
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (k, v) = line.split_once(':').ok_or_else(|| bad("bad header"))?;
        headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
    }
    Ok(Request {
        method,
        path,
        headers,
        body: Vec::new(),
        lane: Lane::default(),
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Does a `Connection` header value carry `token`? The value is a
/// comma-separated, case-insensitive token list.
fn has_connection_token(value: Option<&str>, token: &str) -> bool {
    value.is_some_and(|v| v.split(',').any(|t| t.trim().eq_ignore_ascii_case(token)))
}

/// Serialize one response to its wire bytes; `keep` says whether the
/// connection stays open for another request.
fn encode_response(resp: &Response, keep: bool) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        resp.status,
        resp.reason(),
        resp.content_type,
        resp.body.len(),
        if keep { "keep-alive" } else { "close" }
    );
    for (k, v) in &resp.extra_headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(&resp.body);
    out
}

// ---- priority lanes ----

/// Classify a request into a dispatch [`Lane`]. Only the sweep endpoints
/// can be bulk: a body asking for the full grid (`"cells":"all"`, however
/// the JSON is spaced) or naming more than `priority_cells` cells rides
/// the bulk lane behind interactive traffic. Everything else —
/// `/v1/cell`, health and metrics probes, small sweeps — is interactive.
/// The cell count is a cheap syntactic estimate (occurrences of the
/// `"bench"` key), deliberately computed without a JSON parse so
/// classification is O(body) on the reactor thread; handlers still parse
/// and validate for real. The reactor stores the result in
/// [`Request::lane`], the one lane decision a request gets.
pub fn classify_lane(req: &Request, priority_cells: usize) -> Lane {
    if req.method != "POST" || !matches!(req.path.as_str(), "/v1/sweep" | "/v1/cells") {
        return Lane::Interactive;
    }
    // JSON whitespace is insignificant: `"cells" : "all"` is the full grid.
    let compact: Vec<u8> = req
        .body
        .iter()
        .copied()
        .filter(|b| !b.is_ascii_whitespace())
        .collect();
    if count_occurrences(&compact, b"\"cells\":\"all\"") > 0
        || count_occurrences(&req.body, b"\"bench\"") > priority_cells
    {
        Lane::Bulk
    } else {
        Lane::Interactive
    }
}

fn count_occurrences(hay: &[u8], needle: &[u8]) -> usize {
    hay.windows(needle.len()).filter(|w| *w == needle).count()
}

/// The worker dispatch queue with its per-lane telemetry, and the
/// accepted-connection count, shared between the reactor (accept,
/// enqueue), the workers (dispatch) and the `/metrics` page (snapshot,
/// whose depth gauges read the queue itself).
#[derive(Default)]
pub struct LaneMetrics {
    inner: Mutex<Dispatch>,
    /// Signalled on every enqueue, and on stop.
    ready: Condvar,
    connections: AtomicU64,
}

#[derive(Default)]
struct Dispatch {
    queue: Lanes<PendingJob>,
    /// The reactor has exited: workers return once the queue is empty.
    stop: bool,
    dispatched: [u64; 2],
    promoted_bulk: u64,
    wait: [LatencyHistogram; 2],
}

/// Point-in-time copy of [`LaneMetrics`] for rendering.
#[derive(Clone, Debug, Default)]
pub struct LaneSnapshot {
    pub interactive_depth: u64,
    pub bulk_depth: u64,
    pub dispatched_interactive: u64,
    pub dispatched_bulk: u64,
    pub promoted_bulk: u64,
    pub wait_interactive: LatencyHistogram,
    pub wait_bulk: LatencyHistogram,
    /// TCP connections accepted so far.
    pub connections: u64,
}

impl LaneMetrics {
    fn lock(&self) -> MutexGuard<'_, Dispatch> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn enqueue(&self, job: PendingJob) {
        self.lock().queue.push(job.req.lane, job);
        self.ready.notify_one();
    }

    fn stop_workers(&self) {
        self.lock().stop = true;
        self.ready.notify_all();
    }

    /// Block until a job is queued, then take it by the lane rule and
    /// record its dispatch; `None` once stopped with an empty queue.
    fn next_job(&self) -> Option<PendingJob> {
        let mut c = self.lock();
        let (job, promoted) = loop {
            if let Some(picked) = c.queue.pickup() {
                break picked;
            }
            if c.stop {
                return None;
            }
            c = self.ready.wait(c).unwrap_or_else(|e| e.into_inner());
        };
        let i = job.req.lane.index();
        c.dispatched[i] += 1;
        c.promoted_bulk += u64::from(promoted);
        c.wait[i].record_us(u64::try_from(job.enqueued.elapsed().as_micros()).unwrap_or(u64::MAX));
        Some(job)
    }

    pub fn snapshot(&self) -> LaneSnapshot {
        let c = self.lock();
        LaneSnapshot {
            interactive_depth: c.queue.depth(Lane::Interactive) as u64,
            bulk_depth: c.queue.depth(Lane::Bulk) as u64,
            dispatched_interactive: c.dispatched[Lane::Interactive.index()],
            dispatched_bulk: c.dispatched[Lane::Bulk.index()],
            promoted_bulk: c.promoted_bulk,
            wait_interactive: c.wait[Lane::Interactive.index()].clone(),
            wait_bulk: c.wait[Lane::Bulk.index()].clone(),
            connections: self.connections.load(Ordering::Relaxed),
        }
    }
}

/// A complete request waiting for a worker.
struct PendingJob {
    /// Connection slot to deliver the response to.
    token: usize,
    req: Request,
    enqueued: Instant,
}

fn worker_loop<H>(
    completions: &Mutex<Vec<(usize, Response)>>,
    wake_tx: &UnixStream,
    lanes: &LaneMetrics,
    handler: &H,
) where
    H: Fn(&Request) -> Response + Send + Sync,
{
    while let Some(job) = lanes.next_job() {
        // A panicking handler must cost one request, not the whole pool:
        // a panic out of a scoped worker would propagate from
        // `thread::scope` and kill the server.
        let resp = match std::panic::catch_unwind(AssertUnwindSafe(|| handler(&job.req))) {
            Ok(resp) => resp,
            Err(payload) => {
                telemetry::log::debug(&format!(
                    "handler panicked on {} {}: {}",
                    job.req.method,
                    job.req.path,
                    panic_message(payload.as_ref())
                ));
                Response::text(500, "internal error: handler panicked\n")
            }
        };
        completions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((job.token, resp));
        wake(wake_tx);
    }
}

// ---- connection state machine ----

/// Per-connection state. `Reading` waits until a full request parses
/// out of the connection buffer; `Handling` means a worker owns the
/// request and the reactor leaves the socket alone; `Writing` drains the
/// encoded response, then either closes or, on a kept connection, goes
/// back to `Reading` for the next request (which may already be
/// buffered, pipelined behind the last one).
enum ConnState {
    Reading {
        head: Option<PartialHead>,
    },
    Handling {
        /// The request asked for `Connection: keep-alive`.
        keep_alive: bool,
    },
    Writing {
        buf: Vec<u8>,
        off: usize,
        /// Read the next request once this response is out.
        keep: bool,
    },
}

/// A parsed head whose declared body has not fully arrived yet.
struct PartialHead {
    req: Request,
    /// Offset of the first body byte in the connection buffer.
    body_start: usize,
    /// Total request size: head + CRLFCRLF + declared body.
    total: usize,
}

struct Conn {
    stream: TcpStream,
    state: ConnState,
    /// Bytes read but not yet consumed: the request being read, and any
    /// requests the peer pipelined behind it.
    inbuf: Vec<u8>,
    /// Last byte progress on this socket — the idle deadline clock.
    last_activity: Instant,
}

/// Outcome of advancing one connection by one poll.
enum IoStep {
    /// Nothing readable/writable right now.
    Idle,
    /// Bytes moved or state changed, but the request/response is not
    /// done.
    Progress,
    /// A complete request parsed out; hand it to the dispatch queue.
    Dispatch(Request),
    /// Connection finished (response fully written without keep-alive,
    /// peer gone, or a transport error).
    Close,
}

/// Try to complete a request from buffered bytes: parse the head once
/// the terminator arrives, then wait for the declared body. Bytes past
/// the request stay in `buf`: they are the next pipelined request. Pure
/// — no I/O.
fn advance_parse(
    buf: &mut Vec<u8>,
    head: &mut Option<PartialHead>,
) -> Result<Option<Request>, ReadError> {
    if head.is_none() {
        let Some(end) = find_head_end(buf) else {
            if buf.len() > MAX_HEAD {
                return Err(ReadError::TooLarge("request head too large".into()));
            }
            return Ok(None);
        };
        if end > MAX_HEAD {
            return Err(ReadError::TooLarge("request head too large".into()));
        }
        let req = parse_head(&buf[..end])?;
        // Bodies are framed by Content-Length alone. A chunked body read
        // as empty would leave its chunks to parse as the next pipelined
        // request, so any transfer coding is refused (and the
        // connection closed) rather than guessed at.
        if req.header("transfer-encoding").is_some() {
            return Err(ReadError::Malformed(
                "transfer-encoding is not supported".into(),
            ));
        }
        let len = content_length_of(&req.headers)
            .map_err(ReadError::Malformed)?
            .unwrap_or(0);
        if len > MAX_BODY {
            return Err(ReadError::TooLarge("request body too large".into()));
        }
        *head = Some(PartialHead {
            req,
            body_start: end + 4,
            total: end + 4 + len,
        });
    }
    let total = head.as_ref().map(|h| h.total).unwrap_or(0);
    if buf.len() < total {
        return Ok(None);
    }
    let ph = head.take().expect("head parsed above");
    let rest = buf.split_off(ph.total);
    let body = std::mem::replace(buf, rest).split_off(ph.body_start);
    Ok(Some(Request { body, ..ph.req }))
}

/// Advance the parser over buffered bytes, then drain readable bytes
/// into the connection buffer until a request completes.
/// Oversized/malformed requests flip the connection straight to writing
/// a 413/400, after which it closes.
fn step_reading(conn: &mut Conn) -> IoStep {
    let mut chunk = [0u8; 4096];
    let mut moved = false;
    loop {
        let ConnState::Reading { head } = &mut conn.state else {
            return IoStep::Progress;
        };
        let refusal = match advance_parse(&mut conn.inbuf, head) {
            Ok(Some(req)) => return IoStep::Dispatch(req),
            Ok(None) => None,
            Err(ReadError::TooLarge(m)) => {
                telemetry::log::debug(&format!("oversized request: {m}"));
                Some(Response::text(413, format!("{m}\n")))
            }
            Err(ReadError::Malformed(m)) => {
                telemetry::log::debug(&format!("bad request: {m}"));
                Some(Response::text(400, format!("bad request: {m}\n")))
            }
            Err(ReadError::Io(_)) => unreachable!("advance_parse does no I/O"),
        };
        if let Some(resp) = refusal {
            conn.state = ConnState::Writing {
                buf: encode_response(&resp, false),
                off: 0,
                keep: false,
            };
            return IoStep::Progress;
        }
        match conn.stream.read(&mut chunk) {
            Ok(0) => return IoStep::Close, // peer closed before a full request
            Ok(n) => {
                moved = true;
                conn.inbuf.extend_from_slice(&chunk[..n]);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                return if moved {
                    IoStep::Progress
                } else {
                    IoStep::Idle
                };
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                telemetry::log::debug(&format!("read failed: {e}"));
                return IoStep::Close;
            }
        }
    }
}

/// Push response bytes out. On completion a kept connection goes back
/// to reading (answering any request already buffered behind this one);
/// any other closes politely (shut down our write side and swallow any
/// bytes the peer still had in flight, so the close is an orderly FIN
/// rather than an RST racing the response).
fn step_writing(conn: &mut Conn) -> IoStep {
    let mut moved = false;
    loop {
        let ConnState::Writing { buf, off, keep } = &mut conn.state else {
            return IoStep::Progress;
        };
        if *off >= buf.len() {
            if *keep {
                conn.state = ConnState::Reading { head: None };
                return match step_reading(conn) {
                    IoStep::Idle => IoStep::Progress,
                    step => step,
                };
            }
            let _ = conn.stream.flush();
            let _ = conn.stream.shutdown(Shutdown::Write);
            let mut sink = [0u8; 1024];
            while matches!(conn.stream.read(&mut sink), Ok(n) if n > 0) {}
            return IoStep::Close;
        }
        match conn.stream.write(&buf[*off..]) {
            Ok(0) => return IoStep::Close,
            Ok(n) => {
                *off += n;
                moved = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                return if moved {
                    IoStep::Progress
                } else {
                    IoStep::Idle
                };
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                telemetry::log::debug(&format!("write failed: {e}"));
                return IoStep::Close;
            }
        }
    }
}

/// Handle to stop a running [`Server`] from another thread (or from a
/// handler, e.g. a shutdown endpoint).
#[derive(Clone)]
pub struct StopHandle {
    stop: Arc<AtomicBool>,
    wake_tx: Arc<UnixStream>,
}

impl StopHandle {
    /// Request shutdown. Idempotent; wakes the reactor.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        wake(&self.wake_tx);
    }
}

/// A bound listener plus its stop flag, wake pipe and event-loop tuning.
pub struct Server {
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    /// Wake pipe: workers (after posting a completion) and the stop
    /// handle write to `wake_tx`; the reactor polls `wake_rx`.
    wake_rx: UnixStream,
    wake_tx: Arc<UnixStream>,
    io_timeout: Duration,
    workers: usize,
    priority_cells: usize,
    lanes: Arc<LaneMetrics>,
}

impl Server {
    /// Bind (use port 0 for an ephemeral port; read it back with
    /// [`local_addr`](Self::local_addr)).
    pub fn bind(addr: &str) -> io::Result<Server> {
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            stop: Arc::new(AtomicBool::new(false)),
            wake_rx,
            wake_tx: Arc::new(wake_tx),
            io_timeout: Duration::from_millis(DEFAULT_IO_TIMEOUT_MS),
            workers: DEFAULT_WORKERS,
            priority_cells: DEFAULT_PRIORITY_CELLS,
            lanes: Arc::new(LaneMetrics::default()),
        })
    }

    /// Override the per-connection idle-progress deadline
    /// (`--timeout-ms`).
    pub fn set_io_timeout(&mut self, timeout: Duration) {
        self.io_timeout = timeout;
    }

    /// Override the handler worker-pool size (`--workers`); clamped to
    /// at least one.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// Override the interactive-lane cell budget (`--priority-cells`).
    pub fn set_priority_cells(&mut self, cells: usize) {
        self.priority_cells = cells;
    }

    /// Shared per-lane dispatch telemetry, for a `/metrics` page.
    pub fn lane_metrics(&self) -> Arc<LaneMetrics> {
        self.lanes.clone()
    }

    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    pub fn stop_handle(&self) -> StopHandle {
        StopHandle {
            stop: self.stop.clone(),
            wake_tx: self.wake_tx.clone(),
        }
    }

    /// Run the event loop until the stop handle fires: a reactor thread
    /// waits on every socket and a fixed pool of worker threads runs the
    /// handler (scoped, so the handler may borrow the engine). Handler
    /// panics become 500s; oversized requests get 413, malformed ones
    /// 400, and both close; connection I/O errors are logged and dropped
    /// (the peer is gone anyway). On stop, idle connections are dropped
    /// and in-flight requests drain, each closing its connection, before
    /// return.
    pub fn run<H>(&self, handler: H) -> io::Result<()>
    where
        H: Fn(&Request) -> Response + Send + Sync,
    {
        self.listener.set_nonblocking(true)?;
        let completions: Mutex<Vec<(usize, Response)>> = Mutex::new(Vec::new());
        let handler = &handler;
        let completions = &completions;
        std::thread::scope(|scope| {
            for _ in 0..self.workers.max(1) {
                let lanes = &*self.lanes;
                let wake_tx = &*self.wake_tx;
                scope.spawn(move || worker_loop(completions, wake_tx, lanes, handler));
            }
            let result = self.reactor(completions);
            // Reactor exited ⇒ every dispatched request has completed (or
            // `poll` failed); release the workers.
            self.lanes.stop_workers();
            result
        })
    }

    /// The event loop. Owns all connection state; sleeps in `poll` until a
    /// socket it owes I/O is ready, the wake pipe fires (completion or
    /// stop) or the nearest idle deadline passes, then steps just those.
    fn reactor(&self, completions: &Mutex<Vec<(usize, Response)>>) -> io::Result<()> {
        let mut conns: Vec<Option<Conn>> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        // Connections currently owned by a worker; their tokens stay
        // reserved until the response comes back, so slot reuse can
        // never misdeliver a completion.
        let mut handling: usize = 0;
        let mut draining = false;
        // Poll set: wake pipe, listener, then one entry per connection in
        // Reading/Writing; `polled[k]` is the slab token of entry `k + 2`.
        let mut fds: Vec<PollFd> = Vec::new();
        let mut polled: Vec<usize> = Vec::new();
        let entry = |fd: &dyn AsRawFd, events| PollFd {
            fd: fd.as_raw_fd(),
            events,
            revents: 0,
        };
        loop {
            fds.clear();
            polled.clear();
            fds.push(entry(&self.wake_rx, POLLIN));
            fds.push(entry(&self.listener, if draining { 0 } else { POLLIN }));
            let mut timeout: Option<Duration> = None;
            let now = Instant::now();
            for (i, slot) in conns.iter_mut().enumerate() {
                let Some(conn) = slot else { continue };
                let events = match conn.state {
                    ConnState::Reading { .. } => POLLIN,
                    ConnState::Writing { .. } => POLLOUT,
                    ConnState::Handling { .. } => continue,
                };
                // Idle deadline: sockets we owe I/O on (not worker-owned),
                // kept connections waiting for their next request included.
                let left = self
                    .io_timeout
                    .saturating_sub(now.duration_since(conn.last_activity));
                if left.is_zero() {
                    *slot = None;
                    free.push(i);
                    continue;
                }
                fds.push(entry(&conn.stream, events));
                polled.push(i);
                timeout = Some(timeout.map_or(left, |t| t.min(left)));
            }
            if draining && handling == 0 && polled.is_empty() {
                return Ok(());
            }
            poll_fds(&mut fds, timeout)?;
            let now = Instant::now();
            if fds[0].revents != 0 {
                let mut sink = [0u8; 64];
                while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
            }

            if !draining && self.stop.load(Ordering::SeqCst) {
                draining = true;
                // Connections without a complete request yet (idle kept
                // ones included) are dropped; ones being handled or
                // written drain below and then close, kept or not. A
                // response already being written keeps the `Connection`
                // header it was encoded with.
                for (i, slot) in conns.iter_mut().enumerate() {
                    let Some(conn) = slot else { continue };
                    match &mut conn.state {
                        ConnState::Reading { .. } => {
                            *slot = None;
                            free.push(i);
                        }
                        ConnState::Writing { keep, .. } => *keep = false,
                        ConnState::Handling { .. } => {}
                    }
                }
            }

            let done = {
                let mut c = completions.lock().unwrap_or_else(|e| e.into_inner());
                std::mem::take(&mut *c)
            };
            for (token, resp) in done {
                handling = handling.saturating_sub(1);
                if let Some(conn) = conns.get_mut(token).and_then(Option::as_mut) {
                    let keep =
                        matches!(conn.state, ConnState::Handling { keep_alive: true }) && !draining;
                    conn.state = ConnState::Writing {
                        buf: encode_response(&resp, keep),
                        off: 0,
                        keep,
                    };
                    conn.last_activity = now;
                }
            }

            for (&i, fd) in polled.iter().zip(&fds[2..]) {
                let Some(conn) = conns[i].as_mut().filter(|_| fd.revents != 0) else {
                    continue;
                };
                let step = match conn.state {
                    ConnState::Reading { .. } => step_reading(conn),
                    ConnState::Writing { .. } => step_writing(conn),
                    ConnState::Handling { .. } => continue,
                };
                match step {
                    IoStep::Idle => {}
                    IoStep::Progress => conn.last_activity = now,
                    IoStep::Dispatch(mut req) => {
                        conn.last_activity = now;
                        conn.state = ConnState::Handling {
                            keep_alive: has_connection_token(
                                req.header("connection"),
                                "keep-alive",
                            ),
                        };
                        handling += 1;
                        req.lane = classify_lane(&req, self.priority_cells);
                        self.lanes.enqueue(PendingJob {
                            token: i,
                            req,
                            enqueued: Instant::now(),
                        });
                    }
                    IoStep::Close => {
                        conns[i] = None;
                        free.push(i);
                    }
                }
            }

            if !draining && fds[1].revents != 0 {
                loop {
                    match self.listener.accept() {
                        Ok((stream, _)) => {
                            self.lanes.connections.fetch_add(1, Ordering::Relaxed);
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            // Each response is one buffer, so Nagle only
                            // ever delays the tail of a large one.
                            let _ = stream.set_nodelay(true);
                            let conn = Conn {
                                stream,
                                state: ConnState::Reading { head: None },
                                inbuf: Vec::new(),
                                last_activity: now,
                            };
                            match free.pop() {
                                Some(i) => conns[i] = Some(conn),
                                None => conns.push(Some(conn)),
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) => {
                            telemetry::log::debug(&format!("accept error: {e}"));
                            break;
                        }
                    }
                }
            }
        }
    }
}

/// HTTP client: send one request on a pooled connection to `addr` (see
/// [`request_with_chaos`]) and read its response. Returns
/// `(status, body)`.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
) -> io::Result<(u16, Vec<u8>)> {
    let (status, _, body) = request_full(addr, method, path, body, timeout)?;
    Ok((status, body))
}

/// A full client-side response: status, headers (names lowercased),
/// body.
pub type FullResponse = (u16, Vec<(String, String)>, Vec<u8>);

/// [`request`], but also returning the response headers (names
/// lowercased) — the router reads `Retry-After` off backend 429s.
pub fn request_full(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
) -> io::Result<FullResponse> {
    request_with(addr, method, path, &[], body, timeout)
}

/// [`request_full`] with extra request headers — the router stamps
/// `X-Sim-Trace-Id` onto shard sub-requests so one trace id follows a
/// sweep across the whole fleet. Header names/values must be single-line
/// ASCII; callers own that.
pub fn request_with(
    addr: &str,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
    timeout: Duration,
) -> io::Result<FullResponse> {
    request_with_chaos(addr, method, path, headers, body, timeout, None)
}

// ---- deterministic network chaos ----

/// Total milliseconds of injected socket stall *recorded* by the client
/// (never slept, like the cell retry backoff — chaos runs stay fast).
static NET_STALL_RECORDED_MS: AtomicU64 = AtomicU64::new(0);

pub fn net_stall_recorded_ms_total() -> u64 {
    NET_STALL_RECORDED_MS.load(Ordering::Relaxed)
}

/// Scope a network fault plan to one attempt of one request. Rolls are
/// keyed on the request *content* (method, path, body hash) and the
/// attempt number — never on socket addresses or timing — so the chaos a
/// sweep sees is a pure function of the sweep itself: identical at any
/// `SIM_THREADS`, across runs, and across ephemeral-port restarts.
pub fn chaos_attempt_plan(
    base: &FaultPlan,
    method: &str,
    path: &str,
    body: &[u8],
    attempt: u32,
) -> FaultPlan {
    base.derive(&format!("{method} {path}"))
        .derive_u64(fnv1a64(body))
        .derive_u64(attempt as u64 + 1)
}

// ---- client connection pool ----

/// Idle connections kept, over all addresses; the oldest is dropped
/// first. Per address the pool never holds more than the peak number of
/// calls in flight to it, so this one bound only caps descriptors in a
/// process that talks to many servers.
const POOL_TOTAL: usize = 64;

/// Idle keep-alive connections, oldest first, each with the address it
/// was opened to.
static POOL: Mutex<VecDeque<(String, TcpStream)>> = Mutex::new(VecDeque::new());

fn pool() -> MutexGuard<'static, VecDeque<(String, TcpStream)>> {
    POOL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The most recently parked idle connection to `addr` that still looks
/// open. An idle socket that polls readable holds either the server's
/// close (EOF or reset) or bytes nobody asked for; it is dropped.
fn pool_take(addr: &str) -> Option<TcpStream> {
    loop {
        let stream = {
            let mut idle = pool();
            let i = idle.iter().rposition(|(a, _)| a == addr)?;
            idle.remove(i)?.1
        };
        let mut fd = [PollFd {
            fd: stream.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        }];
        if poll_fds(&mut fd, Some(Duration::ZERO)).is_ok() && fd[0].revents == 0 {
            return Some(stream);
        }
    }
}

/// Park a connection whose last response was read cleanly and in full.
fn pool_put(addr: &str, stream: TcpStream) {
    let mut idle = pool();
    if idle.len() >= POOL_TOTAL {
        idle.pop_front();
    }
    idle.push_back((addr.to_string(), stream));
}

fn connect(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let sock_addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unresolvable address"))?;
    let stream = TcpStream::connect_timeout(&sock_addr, timeout)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Why one request/response exchange on a connection failed.
struct ExchangeError {
    error: io::Error,
    /// The connection closed or reset before any response byte came
    /// back, so the server cannot have answered: on a reused connection
    /// this is the server having idle-closed it (or restarted), and the
    /// request may be sent again on a fresh one.
    unanswered: bool,
}

/// Write `msg` (one whole request) on `stream` and read one response:
/// the head, then exactly `Content-Length` body bytes, or everything up
/// to EOF when the head declares no length. A stream that ends early
/// returns the bytes so far, for [`parse_response`] to reject. Returns
/// the raw bytes and whether the connection may carry another request:
/// it ended cleanly on a declared length and the server did not say
/// `Connection: close`.
fn exchange(
    stream: &mut TcpStream,
    msg: &[u8],
    timeout: Duration,
) -> Result<(Vec<u8>, bool), ExchangeError> {
    let unanswered = |error: io::Error| {
        let closed = matches!(
            error.kind(),
            io::ErrorKind::UnexpectedEof
                | io::ErrorKind::ConnectionReset
                | io::ErrorKind::ConnectionAborted
                | io::ErrorKind::BrokenPipe
        );
        ExchangeError {
            error,
            unanswered: closed,
        }
    };
    let answered = |error| ExchangeError {
        error,
        unanswered: false,
    };
    stream.set_read_timeout(Some(timeout)).map_err(answered)?;
    stream.set_write_timeout(Some(timeout)).map_err(answered)?;
    stream.write_all(msg).map_err(unanswered)?;
    let mut raw = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    // Response size once the head is in: `None` until then, `Some(None)`
    // when the head declares no length (read to EOF).
    let mut expect: Option<Option<usize>> = None;
    let mut keep = false;
    loop {
        if let Some(Some(total)) = expect {
            if raw.len() >= total {
                raw.truncate(total);
                return Ok((raw, keep));
            }
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) if raw.is_empty() => {
                return Err(unanswered(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before the response",
                )))
            }
            Ok(0) => return Ok((raw, false)),
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if raw.is_empty() => return Err(unanswered(e)),
            Err(e) => return Err(answered(e)),
        };
        raw.extend_from_slice(&chunk[..n]);
        if expect.is_none() {
            if let Some(end) = find_head_end(&raw) {
                // A head that does not parse leaves the length unknown:
                // read to EOF and let `parse_response` report it.
                let headers = parse_response_head(&raw[..end])
                    .map(|(_, h)| h)
                    .unwrap_or_default();
                let conn = headers.iter().find(|(k, _)| k == "connection");
                keep = !has_connection_token(conn.map(|(_, v)| v.as_str()), "close");
                let declared = content_length_of(&headers).ok().flatten();
                expect = Some(declared.map(|len| end + 4 + len));
            }
        }
    }
}

/// [`request_with`], optionally under a network fault plan already scoped
/// to this attempt (see [`chaos_attempt_plan`]). Injected failures carry
/// the [`sim_faults::TAG`] marker so retry policies can skip real backoff
/// sleeps for them.
///
/// The request goes out as one buffer with `Connection: keep-alive`, on
/// an idle pooled connection to `addr` when there is one. If a reused
/// connection turns out closed before any response byte arrives, the
/// request is sent once more on a fresh connection; a connection that
/// fails after part of a response is never replayed. A connection goes
/// back to the pool only after a clean, fully read response that did not
/// say `Connection: close` and was not corrupted by an injected fault.
pub fn request_with_chaos(
    addr: &str,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
    timeout: Duration,
    chaos: Option<&FaultPlan>,
) -> io::Result<FullResponse> {
    if let Some(plan) = chaos {
        if plan.roll(FaultSite::NetConnectRefused, 0) {
            sim_faults::note(FaultSite::NetConnectRefused);
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("{} connect to {addr} refused", sim_faults::TAG),
            ));
        }
        if plan.roll(FaultSite::NetStall, 0) {
            sim_faults::note(FaultSite::NetStall);
            let ms = plan.uniform(FaultSite::NetStall, 0, 5.0, 80.0) as u64;
            NET_STALL_RECORDED_MS.fetch_add(ms, Ordering::Relaxed);
        }
    }
    let mut msg = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nContent-Type: application/json\r\nConnection: keep-alive\r\n",
        body.len()
    );
    for (k, v) in headers {
        msg.push_str(&format!("{k}: {v}\r\n"));
    }
    msg.push_str("\r\n");
    let mut msg = msg.into_bytes();
    msg.extend_from_slice(body);

    let (mut stream, reused) = match pool_take(addr) {
        Some(stream) => (stream, true),
        None => (connect(addr, timeout)?, false),
    };
    let (mut raw, keep) = match exchange(&mut stream, &msg, timeout) {
        Ok(done) => done,
        Err(e) if reused && e.unanswered => {
            stream = connect(addr, timeout)?;
            exchange(&mut stream, &msg, timeout).map_err(|e| e.error)?
        }
        Err(e) => return Err(e.error),
    };
    let mut corrupted = false;
    if let Some(plan) = chaos {
        if plan.roll(FaultSite::NetGarbageStatus, 0) {
            sim_faults::note(FaultSite::NetGarbageStatus);
            let n = raw.len().min(12);
            raw[..n].fill(b'#');
            corrupted = true;
        } else if plan.roll(FaultSite::NetTruncatedResponse, 0) && !raw.is_empty() {
            sim_faults::note(FaultSite::NetTruncatedResponse);
            // Cut the stream at a seeded point, always losing at least one
            // byte so the cut never goes unnoticed.
            let frac = plan.uniform(FaultSite::NetTruncatedResponse, 0, 0.0, 0.95);
            let keep = ((raw.len() as f64 * frac) as usize).min(raw.len() - 1);
            raw.truncate(keep);
            corrupted = true;
        }
    }
    match parse_response(&raw) {
        Ok(resp) => {
            if keep && !corrupted {
                pool_put(addr, stream);
            }
            Ok(resp)
        }
        Err(e) if corrupted => Err(io::Error::new(e.kind(), format!("{} {e}", sim_faults::TAG))),
        Err(e) => Err(e),
    }
}

/// Parse a response head (status line + headers, names lowercased).
fn parse_response_head(head: &[u8]) -> io::Result<(u16, Vec<(String, String)>)> {
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    let head = std::str::from_utf8(head).map_err(|_| bad("non-UTF8 head"))?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (k, v) = line.split_once(':').ok_or_else(|| bad("bad header"))?;
        headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
    }
    Ok((status, headers))
}

/// Parse a raw HTTP/1.1 response: status line, headers (names
/// lowercased), body. The body is validated against `Content-Length` when
/// the header is present — a short read (peer died mid-stream) is an
/// error here rather than a silently partial payload downstream, and
/// conflicting duplicate declarations are rejected outright.
fn parse_response(raw: &[u8]) -> io::Result<FullResponse> {
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    let head_end = find_head_end(raw).ok_or_else(|| bad("truncated response head"))?;
    let (status, headers) = parse_response_head(&raw[..head_end])?;
    let mut body = raw[head_end + 4..].to_vec();
    if let Some(declared) = content_length_of(&headers).map_err(|m| bad(&m))? {
        if body.len() < declared {
            return Err(bad(&format!(
                "truncated response body: got {} of {declared} bytes",
                body.len()
            )));
        }
        body.truncate(declared);
    }
    Ok((status, headers, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_round_trip() {
        let server = Server::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let stop = server.stop_handle();
        let t = std::thread::spawn(move || {
            server.run(|req| match (req.method.as_str(), req.path.as_str()) {
                ("GET", "/healthz") => Response::text(200, "ok\n"),
                ("POST", "/echo") => Response::jsonl(200, req.body.clone()),
                ("GET", "/busy") => Response::text(429, "busy\n").with_header("Retry-After", "1"),
                _ => Response::text(404, "no such route\n"),
            })
        });

        let (st, body) = request(&addr, "GET", "/healthz", b"", Duration::from_secs(5)).unwrap();
        assert_eq!((st, body.as_slice()), (200, b"ok\n".as_slice()));

        let payload = b"{\"x\":1}\n{\"y\":2}\n";
        let (st, body) = request(&addr, "POST", "/echo", payload, Duration::from_secs(5)).unwrap();
        assert_eq!(st, 200);
        assert_eq!(body, payload);

        let (st, _) = request(&addr, "GET", "/busy", b"", Duration::from_secs(5)).unwrap();
        assert_eq!(st, 429);

        let (st, _) = request(&addr, "GET", "/nope", b"", Duration::from_secs(5)).unwrap();
        assert_eq!(st, 404);

        stop.stop();
        t.join().unwrap().unwrap();
    }

    /// `request_with` delivers extra headers to the handler (the trace-id
    /// propagation path).
    #[test]
    fn request_with_sends_extra_headers() {
        let server = Server::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let stop = server.stop_handle();
        let t = std::thread::spawn(move || {
            server.run(|req| {
                let id = req.header("X-Sim-Trace-Id").unwrap_or("absent");
                Response::text(200, format!("{id}\n"))
            })
        });
        let (st, _, body) = request_with(
            &addr,
            "GET",
            "/",
            &[("X-Sim-Trace-Id", "00000000deadbeef")],
            b"",
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(st, 200);
        assert_eq!(body, b"00000000deadbeef\n");
        let (st, _, body) = request_full(&addr, "GET", "/", b"", Duration::from_secs(5)).unwrap();
        assert_eq!(st, 200);
        assert_eq!(body, b"absent\n");
        stop.stop();
        t.join().unwrap().unwrap();
    }

    /// A panicking handler answers 500 on that one connection and the
    /// server keeps serving — a worker catches the panic instead of
    /// letting it propagate out of `thread::scope` and kill the server.
    #[test]
    fn handler_panic_answers_500_and_server_survives() {
        let server = Server::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let stop = server.stop_handle();
        let t = std::thread::spawn(move || {
            server.run(|req| match req.path.as_str() {
                "/boom" => panic!("handler exploded"),
                _ => Response::text(200, "ok\n"),
            })
        });

        for _ in 0..3 {
            let (st, body) = request(&addr, "GET", "/boom", b"", Duration::from_secs(5)).unwrap();
            assert_eq!(st, 500);
            assert!(
                String::from_utf8_lossy(&body).contains("handler panicked"),
                "{body:?}"
            );
            let (st, _) = request(&addr, "GET", "/fine", b"", Duration::from_secs(5)).unwrap();
            assert_eq!(st, 200, "server must survive a handler panic");
        }

        stop.stop();
        t.join().unwrap().unwrap();
    }

    /// Oversized requests are a 413 (distinct from malformed 400): a
    /// declared body over the cap is refused from the Content-Length
    /// header alone, and a head over the cap is refused mid-read.
    #[test]
    fn oversized_requests_get_413_and_malformed_get_400() {
        let server = Server::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let stop = server.stop_handle();
        let t = std::thread::spawn(move || server.run(|_| Response::text(200, "ok\n")));

        let raw = |payload: &[u8]| -> (u16, String) {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            s.write_all(payload).unwrap();
            let mut out = Vec::new();
            s.read_to_end(&mut out).unwrap();
            let text = String::from_utf8_lossy(&out).into_owned();
            let status = text
                .split(' ')
                .nth(1)
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            (status, text)
        };

        // Declared body over MAX_BODY: refused before any body is read.
        let huge = format!(
            "POST /v1/sweep HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let (st, text) = raw(huge.as_bytes());
        assert_eq!(st, 413, "{text}");
        assert!(text.contains("request body too large"), "{text}");

        // Head over MAX_HEAD without a terminating blank line.
        let mut long_head = b"GET / HTTP/1.1\r\n".to_vec();
        long_head.resize(long_head.len() + MAX_HEAD + 16, b'x');
        let (st, text) = raw(&long_head);
        assert_eq!(st, 413, "{text}");
        assert!(text.contains("request head too large"), "{text}");

        // Genuinely malformed requests keep their 400.
        let (st, text) = raw(b"NONSENSE\r\n\r\n");
        assert_eq!(st, 400, "{text}");
        let (st, text) = raw(b"POST / HTTP/1.1\r\nContent-Length: lots\r\n\r\n");
        assert_eq!(st, 400, "{text}");

        // And the server still answers a well-formed request afterwards.
        let a = addr.to_string();
        let (st, _) = request(&a, "GET", "/", b"", Duration::from_secs(5)).unwrap();
        assert_eq!(st, 200);

        stop.stop();
        t.join().unwrap().unwrap();
    }

    /// Duplicate `Content-Length` headers: equal repeats collapse, but
    /// conflicting values are refused with 400 instead of silently
    /// picking the first — the request-smuggling ambiguity.
    #[test]
    fn conflicting_content_length_is_rejected_server_side() {
        let server = Server::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let stop = server.stop_handle();
        let t = std::thread::spawn(move || server.run(|req| Response::text(200, req.body.clone())));

        let raw = |payload: &[u8]| -> (u16, String) {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            s.write_all(payload).unwrap();
            let mut out = Vec::new();
            s.read_to_end(&mut out).unwrap();
            let text = String::from_utf8_lossy(&out).into_owned();
            let status = text
                .split(' ')
                .nth(1)
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            (status, text)
        };

        let (st, text) =
            raw(b"POST /echo HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello!");
        assert_eq!(st, 400, "{text}");
        assert!(text.contains("conflicting content-length"), "{text}");

        let (st, text) =
            raw(b"POST /echo HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello");
        assert_eq!(st, 200, "{text}");
        assert!(text.ends_with("hello"), "{text}");

        stop.stop();
        t.join().unwrap().unwrap();
    }

    /// The same strictness applies client-side: a response declaring two
    /// different lengths is a parse error, not a guess.
    #[test]
    fn client_rejects_conflicting_content_length() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let t = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            let _ = s.read(&mut buf);
            s.write_all(
                b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\nContent-Length: 7\r\n\r\nbody bytes",
            )
            .unwrap();
        });
        let err = request(&addr, "GET", "/", b"", Duration::from_secs(5)).unwrap_err();
        assert!(
            err.to_string().contains("conflicting content-length"),
            "{err}"
        );
        t.join().unwrap();
    }

    #[test]
    fn request_full_exposes_response_headers() {
        let server = Server::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let stop = server.stop_handle();
        let t = std::thread::spawn(move || {
            server.run(|_| Response::text(429, "busy\n").with_header("Retry-After", "3"))
        });
        let (st, headers, _) =
            request_full(&addr, "GET", "/", b"", Duration::from_secs(5)).unwrap();
        assert_eq!(st, 429);
        let retry = headers
            .iter()
            .find(|(k, _)| k == "retry-after")
            .map(|(_, v)| v.as_str());
        assert_eq!(retry, Some("3"));
        stop.stop();
        t.join().unwrap().unwrap();
    }

    /// Content-Length is validated client-side: a body shorter than the
    /// declared length is an error, not a silently partial payload.
    #[test]
    fn client_rejects_truncated_response_body() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let t = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            let _ = s.read(&mut buf);
            s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nshort")
                .unwrap();
        });
        let err = request(&addr, "GET", "/", b"", Duration::from_secs(5)).unwrap_err();
        assert!(err.to_string().contains("truncated response body"), "{err}");
        t.join().unwrap();
    }

    fn net_plan(rates: sim_faults::FaultRates) -> FaultPlan {
        FaultPlan::new(9).with_rates(rates)
    }

    /// An injected connect refusal never touches the network and carries
    /// the injected-fault tag, so retry policies skip real sleeps for it.
    #[test]
    fn injected_connect_refusal_is_tagged() {
        let plan = net_plan(sim_faults::FaultRates {
            net_connect_refused: 1.0,
            ..sim_faults::FaultRates::zero()
        });
        let scoped = chaos_attempt_plan(&plan, "POST", "/v1/cells", b"body", 0);
        // Reserved port 1: if the roll failed to fire we would error
        // differently, without the tag.
        let err = request_with_chaos(
            "127.0.0.1:1",
            "POST",
            "/v1/cells",
            &[],
            b"body",
            Duration::from_millis(200),
            Some(&scoped),
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
        assert!(sim_faults::is_injected(&err.to_string()), "{err}");
    }

    /// Garbage status lines and truncated responses hit the wire for real
    /// and surface as tagged parse errors; a stall is recorded, not slept.
    #[test]
    fn injected_corruption_is_tagged_and_stall_is_recorded() {
        let server = Server::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let stop = server.stop_handle();
        let t = std::thread::spawn(move || server.run(|_| Response::text(200, "hello world\n")));

        let run = |rates: sim_faults::FaultRates| {
            let scoped = chaos_attempt_plan(&net_plan(rates), "GET", "/", b"", 0);
            request_with_chaos(
                &addr,
                "GET",
                "/",
                &[],
                b"",
                Duration::from_secs(5),
                Some(&scoped),
            )
        };

        let err = run(sim_faults::FaultRates {
            net_garbage_status: 1.0,
            ..sim_faults::FaultRates::zero()
        })
        .unwrap_err();
        assert!(sim_faults::is_injected(&err.to_string()), "{err}");

        let err = run(sim_faults::FaultRates {
            net_truncated_response: 1.0,
            ..sim_faults::FaultRates::zero()
        })
        .unwrap_err();
        assert!(sim_faults::is_injected(&err.to_string()), "{err}");

        let before = net_stall_recorded_ms_total();
        let started = std::time::Instant::now();
        let (st, _, body) = run(sim_faults::FaultRates {
            net_stall: 1.0,
            ..sim_faults::FaultRates::zero()
        })
        .unwrap();
        assert_eq!(st, 200);
        assert_eq!(body, b"hello world\n");
        assert!(net_stall_recorded_ms_total() >= before + 5);
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "stall must be recorded, not slept"
        );

        stop.stop();
        t.join().unwrap().unwrap();
    }

    /// Chaos decisions are keyed on request content and attempt number:
    /// the same request re-rolls per attempt, and a different body makes
    /// independent decisions.
    #[test]
    fn chaos_plans_are_content_and_attempt_scoped() {
        let base = FaultPlan::new(17);
        let a0 = chaos_attempt_plan(&base, "POST", "/v1/cells", b"k1", 0);
        let a0_again = chaos_attempt_plan(&base, "POST", "/v1/cells", b"k1", 0);
        let a1 = chaos_attempt_plan(&base, "POST", "/v1/cells", b"k1", 1);
        let other = chaos_attempt_plan(&base, "POST", "/v1/cells", b"k2", 0);
        assert_eq!(a0, a0_again);
        assert_ne!(a0, a1);
        assert_ne!(a0, other);
    }

    #[test]
    fn concurrent_connections_are_served() {
        let server = Server::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let stop = server.stop_handle();
        let t = std::thread::spawn(move || {
            server.run(|req| Response::text(200, format!("len={}\n", req.body.len())))
        });
        std::thread::scope(|s| {
            for i in 0..8usize {
                let addr = addr.clone();
                s.spawn(move || {
                    let body = vec![b'x'; i * 1000];
                    let (st, out) =
                        request(&addr, "POST", "/", &body, Duration::from_secs(5)).unwrap();
                    assert_eq!(st, 200);
                    assert_eq!(out, format!("len={}\n", i * 1000).into_bytes());
                });
            }
        });
        stop.stop();
        t.join().unwrap().unwrap();
    }

    /// A slowloris peer trickling header bytes occupies one idle state
    /// machine, not a worker thread: requests arriving behind it still
    /// complete promptly, and the slow request itself eventually gets its
    /// answer.
    #[test]
    fn slowloris_does_not_stall_other_requests() {
        let server = Server::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let stop = server.stop_handle();
        let t = std::thread::spawn(move || server.run(|_| Response::text(200, "ok\n")));

        let slow_addr = addr.clone();
        let slow = std::thread::spawn(move || {
            let mut s = TcpStream::connect(&slow_addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            for &b in b"GET /slow HTTP/1.1\r\n\r\n".iter() {
                s.write_all(&[b]).unwrap();
                std::thread::sleep(Duration::from_millis(2));
            }
            let mut out = Vec::new();
            s.read_to_end(&mut out).unwrap();
            String::from_utf8_lossy(&out).into_owned()
        });

        let started = Instant::now();
        for _ in 0..10 {
            let (st, _) = request(&addr, "GET", "/fast", b"", Duration::from_secs(5)).unwrap();
            assert_eq!(st, 200);
        }
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "fast requests stalled behind a slowloris peer: {:?}",
            started.elapsed()
        );

        let text = slow.join().unwrap();
        assert!(text.starts_with("HTTP/1.1 200"), "{text}");

        stop.stop();
        t.join().unwrap().unwrap();
    }

    /// Hundreds of idle-open connections cost state machines, not
    /// threads: service stays prompt while they sit there.
    #[test]
    fn idle_open_connections_do_not_block_service() {
        let server = Server::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let stop = server.stop_handle();
        let t = std::thread::spawn(move || server.run(|_| Response::text(200, "ok\n")));

        let idle: Vec<TcpStream> = (0..200)
            .map(|_| TcpStream::connect(&addr).unwrap())
            .collect();
        let started = Instant::now();
        for _ in 0..5 {
            let (st, _) = request(&addr, "GET", "/", b"", Duration::from_secs(5)).unwrap();
            assert_eq!(st, 200);
        }
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "requests stalled behind idle connections: {:?}",
            started.elapsed()
        );
        drop(idle);

        stop.stop();
        t.join().unwrap().unwrap();
    }

    /// The stop handle wakes the reactor through its pipe: a server
    /// with no connections stops at once, and no throwaway TCP connection
    /// is left in the listener's accept queue.
    #[test]
    fn stop_wakes_the_reactor_without_a_tcp_poke() {
        let server = Server::bind("127.0.0.1:0").unwrap();
        let stop = server.stop_handle();
        let started = Instant::now();
        let t = std::thread::spawn(move || {
            server.run(|_| Response::text(200, "ok\n")).unwrap();
            server
        });
        stop.stop();
        let server = t.join().unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "stop took {:?}",
            started.elapsed()
        );
        let pending = server.listener.accept();
        assert!(
            matches!(&pending, Err(e) if e.kind() == io::ErrorKind::WouldBlock),
            "stop must not connect to the listener: {pending:?}"
        );
    }

    /// A request sent on a connection that sat idle is answered as soon
    /// as it arrives: readiness, not a backed-off poll, wakes the reactor.
    #[test]
    fn late_request_on_idle_connection_is_answered_promptly() {
        let server = Server::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let stop = server.stop_handle();
        let t = std::thread::spawn(move || server.run(|_| Response::text(200, "ok\n")));
        for _ in 0..3 {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            std::thread::sleep(Duration::from_millis(200));
            let sent = Instant::now();
            s.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
            let mut out = Vec::new();
            s.read_to_end(&mut out).unwrap();
            assert!(out.starts_with(b"HTTP/1.1 200"), "{out:?}");
            assert!(
                sent.elapsed() < Duration::from_millis(20),
                "late request answered after {:?}",
                sent.elapsed()
            );
        }
        stop.stop();
        t.join().unwrap().unwrap();
    }

    /// Handlers stay at normal CPU priority in a process whose scheduler
    /// evaluates at `SCHED_IDLE`, so request I/O preempts evaluation.
    #[cfg(target_os = "linux")]
    #[test]
    fn handlers_keep_normal_priority_beside_idle_evaluation() {
        use crate::key::CellSpec;
        use crate::scheduler::{current_sched_policy, Scheduler};
        let sched = Scheduler::start(8, || {
            |specs: &[CellSpec]| vec![current_sched_policy().to_string(); specs.len()]
        });
        let server = Server::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let stop = server.stop_handle();
        std::thread::scope(|s| {
            let t = s.spawn(|| {
                server.run(|_| {
                    let spec = CellSpec {
                        sim_version: "0".into(),
                        device: "dev".into(),
                        scale: "test".into(),
                        bench: "prio".into(),
                        version: "Serial".into(),
                        precision: 32,
                        fault_seed: None,
                        passes: None,
                    };
                    let slots = sched.admit(&[spec], Lane::Interactive).unwrap();
                    let eval = slots[0].wait().unwrap();
                    Response::text(200, format!("{}/{eval}", current_sched_policy()))
                })
            });
            let (st, body) = request(&addr, "GET", "/", b"", Duration::from_secs(5)).unwrap();
            assert_eq!((st, body.as_slice()), (200, b"0/5".as_slice()));
            stop.stop();
            t.join().unwrap().unwrap();
        });
    }

    /// Read one response off a raw socket: the head, then exactly
    /// `Content-Length` body bytes. Returns `(head, body)`.
    fn read_one_response(s: &mut TcpStream) -> (String, String) {
        let mut raw = Vec::new();
        let mut byte = [0u8; 1];
        while find_head_end(&raw).is_none() {
            assert_eq!(s.read(&mut byte).unwrap(), 1, "EOF inside a head");
            raw.push(byte[0]);
        }
        let (_, headers) = parse_response_head(&raw[..raw.len() - 4]).unwrap();
        let mut body = vec![0u8; content_length_of(&headers).unwrap().unwrap()];
        s.read_exact(&mut body).unwrap();
        (
            String::from_utf8(raw).unwrap(),
            String::from_utf8(body).unwrap(),
        )
    }

    /// A server answering every request with its path, plus its
    /// accepted-connection counter.
    fn echo_path_server() -> (
        String,
        StopHandle,
        Arc<LaneMetrics>,
        std::thread::JoinHandle<()>,
    ) {
        let server = Server::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let stop = server.stop_handle();
        let lanes = server.lane_metrics();
        let t = std::thread::spawn(move || {
            server
                .run(|req| Response::text(200, req.path.clone()))
                .unwrap()
        });
        (addr, stop, lanes, t)
    }

    /// Requests pipelined in one write are all kept (none of the bytes
    /// behind the first request is dropped) and answered in order; a
    /// request without `Connection: keep-alive` is answered with
    /// `Connection: close` and ends the connection.
    #[test]
    fn pipelined_keep_alive_requests_are_answered_in_order() {
        let (addr, stop, _, t) = echo_path_server();
        let mut s = TcpStream::connect(&addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(
            b"GET /a HTTP/1.1\r\nConnection: keep-alive\r\n\r\n\
              POST /b HTTP/1.1\r\nConnection: Keep-Alive\r\nContent-Length: 3\r\n\r\nxyz\
              GET /c HTTP/1.1\r\n\r\n",
        )
        .unwrap();
        for (path, conn) in [("/a", "keep-alive"), ("/b", "keep-alive"), ("/c", "close")] {
            let (head, body) = read_one_response(&mut s);
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            assert!(head.contains(&format!("Connection: {conn}\r\n")), "{head}");
            assert_eq!(body, path);
        }
        let mut rest = Vec::new();
        s.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "bytes after the close: {rest:?}");
        stop.stop();
        t.join().unwrap();
    }

    /// A kept request with a chunked body is refused and its connection
    /// closed: the chunk bytes (here shaped as a second request) are
    /// never parsed as the next pipelined request.
    #[test]
    fn chunked_keep_alive_request_is_refused_and_closed() {
        let (addr, stop, _, t) = echo_path_server();
        let mut s = TcpStream::connect(&addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(
            b"POST /a HTTP/1.1\r\nConnection: keep-alive\r\nTransfer-Encoding: chunked\r\n\r\n\
              1a\r\nGET /smuggled HTTP/1.1\r\n\r\n\r\n0\r\n\r\n",
        )
        .unwrap();
        let (head, body) = read_one_response(&mut s);
        assert!(head.starts_with("HTTP/1.1 400"), "{head}");
        assert!(head.contains("Connection: close\r\n"), "{head}");
        assert!(body.contains("transfer-encoding"), "{body}");
        let mut rest = Vec::new();
        match s.read_to_end(&mut rest) {
            Ok(_) => assert!(rest.is_empty(), "bytes after the 400: {rest:?}"),
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::ConnectionReset, "{e}"),
        }
        stop.stop();
        t.join().unwrap();
    }

    /// The pooled client carries a stream of requests to one server on
    /// one connection.
    #[test]
    fn pooled_client_reuses_one_connection() {
        let (addr, stop, lanes, t) = echo_path_server();
        for i in 0..20 {
            let path = format!("/{i}");
            let (st, body) = request(&addr, "GET", &path, b"", Duration::from_secs(5)).unwrap();
            assert_eq!((st, body), (200, path.into_bytes()));
        }
        assert_eq!(lanes.snapshot().connections, 1);
        stop.stop();
        t.join().unwrap();
    }

    /// A pooled socket the server idle-closed is replaced by one fresh
    /// connection, and the request succeeds.
    #[test]
    fn idle_closed_pooled_socket_costs_one_fresh_connect() {
        let mut server = Server::bind("127.0.0.1:0").unwrap();
        server.set_io_timeout(Duration::from_millis(50));
        let addr = server.local_addr().unwrap().to_string();
        let stop = server.stop_handle();
        let lanes = server.lane_metrics();
        let t = std::thread::spawn(move || server.run(|_| Response::text(200, "ok\n")).unwrap());
        let get = || request(&addr, "GET", "/", b"", Duration::from_secs(5)).unwrap();
        assert_eq!(get().0, 200);
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(get().0, 200);
        assert_eq!(get().0, 200);
        assert_eq!(lanes.snapshot().connections, 2);
        stop.stop();
        t.join().unwrap();
    }

    /// A server stopped and bound again on the same port leaves a stale
    /// socket in the pool; the next request costs one fresh connect.
    #[test]
    fn restart_on_the_same_port_costs_one_fresh_connect() {
        let (addr, stop, _, t) = echo_path_server();
        let get = || request(&addr, "GET", "/x", b"", Duration::from_secs(5)).unwrap();
        assert_eq!(get().0, 200);
        stop.stop();
        t.join().unwrap();
        let server = Server::bind(&addr).unwrap();
        let stop = server.stop_handle();
        let lanes = server.lane_metrics();
        let t = std::thread::spawn(move || server.run(|_| Response::text(200, "ok\n")).unwrap());
        assert_eq!(get(), (200, b"ok\n".to_vec()));
        assert_eq!(get().0, 200);
        assert_eq!(lanes.snapshot().connections, 1);
        stop.stop();
        t.join().unwrap();
    }

    /// A reused connection that closes before any response byte is the
    /// stale-socket race (the server closed it after the pool checked
    /// it): the request goes out once more, on a fresh connection.
    #[test]
    fn unanswered_request_on_a_reused_socket_is_sent_once_more() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let t = std::thread::spawn(move || {
            let ok = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nConnection: keep-alive\r\n\r\nok\n";
            let (mut s, _) = listener.accept().unwrap();
            // First request answered, second read and dropped unanswered.
            for answer in [true, false] {
                let mut buf = [0u8; 4096];
                assert!(s.read(&mut buf).unwrap() > 0);
                if answer {
                    s.write_all(ok).unwrap();
                }
            }
            drop(s);
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            assert!(s.read(&mut buf).unwrap() > 0);
            s.write_all(ok).unwrap();
            listener
        });
        for _ in 0..2 {
            let (st, body) = request(&addr, "GET", "/", b"", Duration::from_secs(5)).unwrap();
            assert_eq!((st, body.as_slice()), (200, b"ok\n".as_slice()));
        }
        let listener = t.join().unwrap();
        listener.set_nonblocking(true).unwrap();
        assert!(
            matches!(listener.accept(), Err(e) if e.kind() == io::ErrorKind::WouldBlock),
            "exactly two connections"
        );
    }

    /// A reused connection that dies part-way through its response
    /// surfaces an error, and the request is not sent again.
    #[test]
    fn reused_socket_dying_mid_response_is_not_replayed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let t = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            assert!(s.read(&mut buf).unwrap() > 0);
            s.write_all(
                b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nConnection: keep-alive\r\n\r\nok\n",
            )
            .unwrap();
            assert!(s.read(&mut buf).unwrap() > 0);
            s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\npart")
                .unwrap();
            listener
        });
        let (st, _) = request(&addr, "GET", "/", b"", Duration::from_secs(5)).unwrap();
        assert_eq!(st, 200);
        let err = request(&addr, "GET", "/", b"", Duration::from_secs(5)).unwrap_err();
        assert!(err.to_string().contains("truncated response body"), "{err}");
        let listener = t.join().unwrap();
        listener.set_nonblocking(true).unwrap();
        assert!(
            matches!(listener.accept(), Err(e) if e.kind() == io::ErrorKind::WouldBlock),
            "a partly answered request must not be replayed"
        );
    }

    /// A connection whose response an injected fault corrupted never
    /// goes back to the pool: the next request opens a fresh one.
    #[test]
    fn injected_corruption_never_pools_its_socket() {
        let (addr, stop, lanes, t) = echo_path_server();
        for rates in [
            sim_faults::FaultRates {
                net_garbage_status: 1.0,
                ..sim_faults::FaultRates::zero()
            },
            sim_faults::FaultRates {
                net_truncated_response: 1.0,
                ..sim_faults::FaultRates::zero()
            },
        ] {
            let scoped = chaos_attempt_plan(&net_plan(rates), "GET", "/", b"", 0);
            let chaotic = || {
                request_with_chaos(
                    &addr,
                    "GET",
                    "/",
                    &[],
                    b"",
                    Duration::from_secs(5),
                    Some(&scoped),
                )
            };
            let before = lanes.snapshot().connections;
            assert!(chaotic().is_err());
            assert!(chaotic().is_err());
            assert_eq!(lanes.snapshot().connections, before + 2);
        }
        let connections = lanes.snapshot().connections;
        for _ in 0..3 {
            assert_eq!(
                request(&addr, "GET", "/", b"", Duration::from_secs(5))
                    .unwrap()
                    .0,
                200
            );
        }
        assert_eq!(lanes.snapshot().connections, connections + 1);
        stop.stop();
        t.join().unwrap();
    }

    /// `stop()` drops idle kept connections at once, and a response that
    /// completes after it closes its connection, so shutdown never waits
    /// out the idle timeout.
    #[test]
    fn stop_closes_kept_connections_promptly() {
        let server = Server::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let stop = server.stop_handle();
        let lanes = server.lane_metrics();
        let gate: Arc<(Mutex<bool>, Condvar)> = Arc::new((Mutex::new(false), Condvar::new()));
        let h_gate = gate.clone();
        let t = std::thread::spawn(move || {
            server
                .run(move |req| {
                    if req.path == "/hold" {
                        let (m, cv) = &*h_gate;
                        let mut open = m.lock().unwrap();
                        while !*open {
                            open = cv.wait(open).unwrap();
                        }
                    }
                    Response::text(200, "ok\n")
                })
                .unwrap()
        });
        let keep_alive = |path: &str| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            s.write_all(
                format!("GET {path} HTTP/1.1\r\nConnection: keep-alive\r\n\r\n").as_bytes(),
            )
            .unwrap();
            s
        };
        let mut idle: Vec<TcpStream> = (0..3).map(|_| keep_alive("/")).collect();
        for s in &mut idle {
            let (head, _) = read_one_response(s);
            assert!(head.contains("Connection: keep-alive\r\n"), "{head}");
        }
        let mut held = keep_alive("/hold");
        while lanes.snapshot().dispatched_interactive < 4 {
            std::thread::sleep(Duration::from_millis(1));
        }

        let started = Instant::now();
        stop.stop();
        for s in &mut idle {
            let mut rest = Vec::new();
            s.read_to_end(&mut rest).unwrap();
            assert!(rest.is_empty());
        }
        {
            let (m, cv) = &*gate;
            *m.lock().unwrap() = true;
            cv.notify_all();
        }
        let (head, body) = read_one_response(&mut held);
        assert!(head.contains("Connection: close\r\n"), "{head}");
        assert_eq!(body, "ok\n");
        let mut rest = Vec::new();
        held.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
        t.join().unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "stop took {:?}",
            started.elapsed()
        );
    }

    fn lane_req(method: &str, path: &str, body: &[u8]) -> Request {
        Request {
            method: method.into(),
            path: path.into(),
            headers: Vec::new(),
            body: body.to_vec(),
            lane: Lane::default(),
        }
    }

    #[test]
    fn lane_classification() {
        let pc = 2;
        assert_eq!(
            classify_lane(&lane_req("GET", "/v1/cell/abc", b""), pc),
            Lane::Interactive
        );
        assert_eq!(
            classify_lane(&lane_req("GET", "/metrics", b""), pc),
            Lane::Interactive
        );
        for all in [
            &b"{\"cells\":\"all\"}"[..],
            b"{\"scale\":\"test\",\"cells\" : \"all\"}",
            b"{\"cells\"\n\t:\r\n\"all\"}",
        ] {
            assert_eq!(
                classify_lane(&lane_req("POST", "/v1/sweep", all), pc),
                Lane::Bulk,
                "{}",
                String::from_utf8_lossy(all)
            );
        }
        assert_eq!(
            classify_lane(
                &lane_req(
                    "POST",
                    "/v1/cells",
                    b"{\"cells\":[{\"bench\":\"a\"},{\"bench\":\"b\"}]}"
                ),
                pc
            ),
            Lane::Interactive
        );
        assert_eq!(
            classify_lane(
                &lane_req(
                    "POST",
                    "/v1/cells",
                    b"{\"cells\":[{\"bench\":\"a\"},{\"bench\":\"b\"},{\"bench\":\"c\"}]}"
                ),
                pc
            ),
            Lane::Bulk
        );
    }

    /// End-to-end lane behaviour on one worker: with the worker held
    /// busy, an interactive request admitted *after* a queued bulk
    /// request is dispatched first, and the lane telemetry records both
    /// waits.
    #[test]
    fn interactive_requests_overtake_queued_bulk() {
        let mut server = Server::bind("127.0.0.1:0").unwrap();
        server.set_workers(1);
        server.set_priority_cells(2);
        let addr = server.local_addr().unwrap().to_string();
        let stop = server.stop_handle();
        let lanes = server.lane_metrics();

        let order: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let gate: Arc<(Mutex<bool>, Condvar)> = Arc::new((Mutex::new(false), Condvar::new()));
        let h_order = order.clone();
        let h_gate = gate.clone();
        let t = std::thread::spawn(move || {
            server.run(move |req| {
                h_order.lock().unwrap().push(req.path.clone());
                if req.body == b"hold" {
                    let (m, cv) = &*h_gate;
                    let mut open = m.lock().unwrap();
                    while !*open {
                        open = cv.wait(open).unwrap();
                    }
                }
                Response::text(200, "ok\n")
            })
        });

        let wait_until = |what: &str, cond: &dyn Fn() -> bool| {
            let started = Instant::now();
            while !cond() {
                assert!(
                    started.elapsed() < Duration::from_secs(10),
                    "timed out waiting for {what}"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        };

        // Occupy the single worker with a holder request.
        let a_addr = addr.clone();
        let hold = std::thread::spawn(move || {
            request(
                &a_addr,
                "POST",
                "/v1/sweep",
                b"hold",
                Duration::from_secs(30),
            )
            .unwrap()
        });
        wait_until("holder to start", &|| {
            order.lock().unwrap().contains(&"/v1/sweep".to_string())
        });

        // Queue a bulk request (3 cells > priority budget of 2)...
        let b_addr = addr.clone();
        let bulk = std::thread::spawn(move || {
            let body = b"{\"cells\":[{\"bench\":\"a\"},{\"bench\":\"b\"},{\"bench\":\"c\"}]}";
            request(&b_addr, "POST", "/v1/cells", body, Duration::from_secs(30)).unwrap()
        });
        wait_until("bulk request to queue", &|| {
            lanes.snapshot().bulk_depth == 1
        });

        // ...then an interactive request behind it.
        let c_addr = addr.clone();
        let cell = std::thread::spawn(move || {
            request(&c_addr, "GET", "/v1/cell/abc", b"", Duration::from_secs(30)).unwrap()
        });
        wait_until("interactive request to queue", &|| {
            lanes.snapshot().interactive_depth == 1
        });

        // Release the worker and let the queue drain.
        {
            let (m, cv) = &*gate;
            *m.lock().unwrap() = true;
            cv.notify_all();
        }
        assert_eq!(hold.join().unwrap().0, 200);
        assert_eq!(cell.join().unwrap().0, 200);
        assert_eq!(bulk.join().unwrap().0, 200);

        // The interactive request, though admitted later, ran first.
        let got = order.lock().unwrap().clone();
        assert_eq!(got, vec!["/v1/sweep", "/v1/cell/abc", "/v1/cells"]);

        let snap = lanes.snapshot();
        assert_eq!(snap.dispatched_interactive, 2); // holder + cell
        assert_eq!(snap.dispatched_bulk, 1);
        assert_eq!(snap.promoted_bulk, 0);
        assert_eq!(snap.wait_interactive.count(), 2);
        assert_eq!(snap.wait_bulk.count(), 1);
        assert_eq!(snap.interactive_depth, 0);
        assert_eq!(snap.bulk_depth, 0);

        stop.stop();
        t.join().unwrap().unwrap();
    }
}
