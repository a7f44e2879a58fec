//! Transports: the single-connection stdin/stdout front and the concurrent
//! TCP / Unix-socket listener, both over one shared [`ServerState`].
//!
//! Framing is newline-delimited JSON in both directions on every transport.
//! Per connection, requests are answered **in order** unless they opt into
//! `"async":true` (then they run on worker threads and responses are
//! matched by `"id"`); across connections everything runs concurrently over
//! the shared registry.  A `shutdown` request — from any connection — stops
//! the listener, **drains every in-flight request across every connection**
//! (their responses are written before the process exits), then answers and
//! exits.  Requests that arrive after the drain began are not processed.
//!
//! The socket listener enforces a connection cap: a client over the cap
//! receives one `{"ok":false,"error":...}` line and is disconnected.

use crate::error::{ErrorCode, ServerError};
use crate::json::Json;
use crate::proto::{error_line, handle_parsed, runs_async, ServerOptions, ServerState};
use sigrule::cancel::CancelToken;
use std::io::{BufRead, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Where `sigrule serve --listen` binds: `tcp:HOST:PORT` or `unix:PATH`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ListenAddr {
    /// A TCP socket address (`HOST:PORT`; port 0 binds an ephemeral port,
    /// reported in the ready line).
    Tcp(String),
    /// A Unix-domain socket path (created on bind, removed on graceful
    /// exit).
    Unix(PathBuf),
}

impl ListenAddr {
    /// Parses a `tcp:HOST:PORT` or `unix:PATH` spec.
    pub fn parse(spec: &str) -> Result<ListenAddr, String> {
        if let Some(addr) = spec.strip_prefix("tcp:") {
            if addr.is_empty() {
                return Err("tcp: needs HOST:PORT (e.g. tcp:127.0.0.1:7878)".to_string());
            }
            Ok(ListenAddr::Tcp(addr.to_string()))
        } else if let Some(path) = spec.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("unix: needs a socket path (e.g. unix:/tmp/sigrule.sock)".to_string());
            }
            Ok(ListenAddr::Unix(PathBuf::from(path)))
        } else {
            Err(format!(
                "listen address must be tcp:HOST:PORT or unix:PATH (got {spec:?})"
            ))
        }
    }
}

impl std::fmt::Display for ListenAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ListenAddr::Tcp(addr) => write!(f, "tcp:{addr}"),
            ListenAddr::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// Socket-server configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Maximum simultaneously connected clients; clients over the cap get
    /// an error line and are disconnected.
    pub max_connections: usize,
    /// Byte budget over the registry's resident caches (`None` =
    /// unbounded).
    pub cache_budget_bytes: Option<usize>,
    /// Log a structured slow-query record for any `mine`/`correct` request
    /// slower than this many milliseconds (`None` = disabled).
    pub slow_query_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            cache_budget_bytes: None,
            slow_query_ms: None,
        }
    }
}

impl ServerConfig {
    fn options(&self) -> ServerOptions {
        ServerOptions {
            cache_budget_bytes: self.cache_budget_bytes,
            slow_query_ms: self.slow_query_ms,
        }
    }
}

/// Counts in-flight requests; `shutdown` waits for the count to drain to
/// zero so no response is lost to the process exit.
#[derive(Debug, Default)]
struct WaitGroup {
    count: Mutex<usize>,
    zero: Condvar,
}

impl WaitGroup {
    // The count is a plain integer: no invariant can be broken by a panic
    // mid-critical-section, so a poisoned lock is recovered, not propagated —
    // a panicking worker must not take the shutdown drain down with it.
    fn enter(self: &Arc<Self>) -> WaitGuard {
        *self.count.lock().unwrap_or_else(|e| e.into_inner()) += 1;
        WaitGuard(self.clone())
    }

    fn wait_idle(&self) {
        let mut count = self.count.lock().unwrap_or_else(|e| e.into_inner());
        while *count > 0 {
            count = self.zero.wait(count).unwrap_or_else(|e| e.into_inner());
        }
    }
}

struct WaitGuard(Arc<WaitGroup>);

impl Drop for WaitGuard {
    fn drop(&mut self) {
        let mut count = self.0.count.lock().unwrap_or_else(|e| e.into_inner());
        *count -= 1;
        if *count == 0 {
            self.0.zero.notify_all();
        }
    }
}

/// State shared by every connection of one server process.
struct SharedServer {
    state: ServerState,
    /// Set by the first `shutdown` request; the accept loop and every
    /// connection reader exit promptly once it is up.
    shutdown: AtomicBool,
    /// In-flight requests across all connections (sync and async).
    inflight: Arc<WaitGroup>,
    /// Currently connected clients (socket mode).
    connections: AtomicUsize,
}

impl SharedServer {
    fn new(options: ServerOptions) -> Self {
        SharedServer {
            state: ServerState::with_options(options),
            shutdown: AtomicBool::new(false),
            inflight: Arc::new(WaitGroup::default()),
            connections: AtomicUsize::new(0),
        }
    }
}

/// A line sink shared between a connection's reader and its async workers;
/// responses are written line-atomically.
type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

/// Writes one response line; `false` means the peer is gone (or wedged past
/// the write timeout), so the caller should cancel the connection's work.
fn write_line(out: &SharedWriter, line: &str) -> bool {
    let mut out = out.lock().unwrap_or_else(|e| e.into_inner());
    writeln!(out, "{line}").is_ok() && out.flush().is_ok()
}

/// Upper bound on concurrently running `"async":true` workers per
/// connection; the reader joins the oldest worker before spawning past it.
const MAX_ASYNC_WORKERS: usize = 16;

/// What processing one request line decided for the connection.
#[derive(Debug, PartialEq, Eq)]
enum LineOutcome {
    /// Keep reading.
    Continue,
    /// This connection received `shutdown`; the whole server drains and
    /// exits.
    Shutdown,
}

/// The per-connection request driver, shared verbatim by the stdin front
/// and every socket connection: in-order sync handling, bounded async
/// workers, panic-to-response, and the shutdown drain.
struct ConnDriver {
    server: Arc<SharedServer>,
    out: SharedWriter,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// The connection's lifecycle token.  Every request runs under a child
    /// of it (optionally narrowed by the request's `timeout_ms`), so firing
    /// it — the connection died mid-work — aborts every in-flight request
    /// of this connection at its next cancellation point.
    cancel: CancelToken,
}

/// Handles one request under a panic barrier: a handler panic becomes an
/// `internal`/transient error response (the caches are unwind-safe — an
/// aborted fill rolls back to cold), never a silently dead connection.
fn handle_trapped(
    state: &ServerState,
    parsed: Result<Json, crate::json::JsonError>,
    cancel: &CancelToken,
) -> (String, bool) {
    let id = parsed.as_ref().ok().and_then(|r| r.get("id").cloned());
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        handle_parsed(state, parsed, cancel)
    })) {
        Ok(answer) => answer,
        Err(_) => {
            let error = ServerError::new(
                ErrorCode::Internal,
                "internal error: request handler panicked",
            );
            (error_line(id.as_ref(), &error), false)
        }
    }
}

impl ConnDriver {
    fn new(server: Arc<SharedServer>, out: Box<dyn Write + Send>) -> Self {
        ConnDriver {
            server,
            out: Arc::new(Mutex::new(out)),
            workers: Vec::new(),
            cancel: CancelToken::new(),
        }
    }

    fn process_line(&mut self, line: &str) -> LineOutcome {
        if line.trim().is_empty() {
            return LineOutcome::Continue;
        }
        let parsed = Json::parse(line);
        if self.server.shutdown.load(SeqCst) {
            // The drain already began; answering would race the exit.
            let id = parsed.as_ref().ok().and_then(|r| r.get("id").cloned());
            let error = ServerError::new(
                ErrorCode::ShuttingDown,
                "server is shutting down; no new work is accepted",
            );
            write_line(&self.out, &error_line(id.as_ref(), &error));
            return LineOutcome::Continue;
        }
        if !runs_async(&parsed) {
            // Sync requests are barriers within the connection: every async
            // worker this connection spawned finishes first.
            self.join_workers();
            let (resp, shutdown) = {
                let _guard = self.server.inflight.enter();
                handle_trapped(&self.server.state, parsed, &self.cancel)
            };
            if shutdown {
                // Drain: flag first (no new work starts), then wait for every
                // in-flight request on every connection, so each pending
                // response is written before this acknowledgement and the
                // process exit.
                self.server.shutdown.store(true, SeqCst);
                self.server.inflight.wait_idle();
            }
            if !write_line(&self.out, &resp) {
                // The peer is gone; abort whatever it still had in flight.
                self.cancel.cancel();
            }
            if shutdown {
                LineOutcome::Shutdown
            } else {
                LineOutcome::Continue
            }
        } else {
            // Bound the in-flight workers: a long async sweep must not spawn
            // one OS thread per request line.  Joining the oldest worker
            // first keeps at most MAX_ASYNC_WORKERS alive per connection.
            if self.workers.len() >= MAX_ASYNC_WORKERS {
                let _ = self.workers.remove(0).join();
            }
            let server = self.server.clone();
            let out = self.out.clone();
            let cancel = self.cancel.clone();
            let guard = self.server.inflight.enter();
            self.workers.push(std::thread::spawn(move || {
                let _guard = guard;
                // One response per request, even if the handler panics: a
                // client matching responses by id must never hang on a
                // silently dead worker.
                let (resp, _) = handle_trapped(&server.state, parsed, &cancel);
                if !write_line(&out, &resp) {
                    cancel.cancel();
                }
            }));
            LineOutcome::Continue
        }
    }

    /// Answers a request line longer than [`MAX_LINE_BYTES`]; the line
    /// itself is never parsed, so the error carries no `"id"`.
    fn reject_oversized_line(&self) {
        let error = ServerError::new(
            ErrorCode::InvalidRequest,
            format!("request line exceeds {MAX_LINE_BYTES} bytes; skipped through its newline"),
        );
        if !write_line(&self.out, &error_line(None, &error)) {
            self.cancel.cancel();
        }
    }

    fn join_workers(&mut self) {
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ConnDriver {
    fn drop(&mut self) {
        self.join_workers();
    }
}

/// Runs the single-connection serve loop over arbitrary streams (the binary
/// passes stdin/stdout; tests pass in-memory buffers).  Returns the process
/// exit code.  This is what plain `sigrule serve` runs: the same
/// per-connection driver as the socket transports, minus the listener.
pub fn serve_streams<R, W>(reader: R, writer: W) -> i32
where
    R: BufRead,
    W: Write + Send + 'static,
{
    serve_streams_with(reader, writer, ServerOptions::default())
}

/// [`serve_streams`] with explicit server options (cache byte budget).
///
/// Lines are framed exactly as on a socket: capped at 1 MiB, decoded as
/// lossy UTF-8, so neither an over-long nor a non-UTF-8 line ends the
/// session — each gets one error answer.
pub fn serve_streams_with<R, W>(mut reader: R, writer: W, options: ServerOptions) -> i32
where
    R: BufRead,
    W: Write + Send + 'static,
{
    let server = Arc::new(SharedServer::new(options));
    let mut conn = ConnDriver::new(server, Box::new(writer));
    let mut framer = LineFramer::default();
    loop {
        let bytes = match reader.fill_buf() {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        if bytes.is_empty() {
            // EOF; a trailing unterminated line still gets an answer.
            if framer.feed(b"\n", &mut conn) == LineOutcome::Shutdown {
                return 0;
            }
            break;
        }
        let n = bytes.len();
        let outcome = framer.feed(bytes, &mut conn);
        reader.consume(n);
        if outcome == LineOutcome::Shutdown {
            return 0;
        }
    }
    conn.join_workers();
    0
}

/// How long a blocked socket read waits before re-checking the shutdown
/// flag.  Bounds the shutdown latency of idle connections (and of the
/// accept loop, which polls at the same cadence).
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Upper bound on one blocking response write.  A client that stops
/// reading (full kernel send buffer) must not hold a worker — and with it
/// the shutdown drain, which waits on every in-flight request — hostage
/// forever; after this long the write fails, the response is dropped, and
/// the connection is effectively dead.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Backoff hint attached to the connection-cap rejection: a slot frees as
/// soon as any connected client disconnects, so suggest a short pause.
const OVERLOADED_RETRY_AFTER_MS: u64 = 250;

/// One accepted socket connection, abstracted over the address family.
trait SocketStream: Read + Write + Send + Sized + 'static {
    /// A second handle to the same socket (reader/writer split).
    fn split(&self) -> std::io::Result<Self>;
    /// Bounds blocking reads so the reader can poll the shutdown flag.
    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()>;
    /// Bounds blocking writes so a non-reading client cannot wedge the
    /// shutdown drain.
    fn set_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()>;
}

impl SocketStream for TcpStream {
    fn split(&self) -> std::io::Result<Self> {
        self.try_clone()
    }
    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        TcpStream::set_read_timeout(self, timeout)
    }
    fn set_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        TcpStream::set_write_timeout(self, timeout)
    }
}

#[cfg(unix)]
impl SocketStream for UnixStream {
    fn split(&self) -> std::io::Result<Self> {
        self.try_clone()
    }
    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        UnixStream::set_read_timeout(self, timeout)
    }
    fn set_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        UnixStream::set_write_timeout(self, timeout)
    }
}

/// A nonblocking listener, abstracted over the address family.
trait Acceptor: Send + 'static {
    type Stream: SocketStream;
    /// `Ok(Some)` on a new connection, `Ok(None)` when none is pending.
    fn poll_accept(&self) -> std::io::Result<Option<Self::Stream>>;
}

fn none_when_would_block<S>(r: std::io::Result<S>) -> std::io::Result<Option<S>> {
    match r {
        Ok(stream) => Ok(Some(stream)),
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
        Err(e) => Err(e),
    }
}

impl Acceptor for TcpListener {
    type Stream = TcpStream;
    fn poll_accept(&self) -> std::io::Result<Option<TcpStream>> {
        none_when_would_block(self.accept().map(|(s, _)| {
            // One request and one response per round trip, both tiny:
            // Nagle + delayed ACK would add ~40 ms floors per line.
            let _ = s.set_nodelay(true);
            s
        }))
    }
}

#[cfg(unix)]
impl Acceptor for UnixListener {
    type Stream = UnixStream;
    fn poll_accept(&self) -> std::io::Result<Option<UnixStream>> {
        none_when_would_block(self.accept().map(|(s, _)| s))
    }
}

/// Reads newline-framed requests from `stream` and drives them through the
/// shared server.  Owns the connection-count slot; decrements it on every
/// exit path.
fn handle_socket_connection<S: SocketStream>(server: Arc<SharedServer>, stream: S) {
    struct Slot(Arc<SharedServer>);
    impl Drop for Slot {
        fn drop(&mut self) {
            self.0.connections.fetch_sub(1, SeqCst);
        }
    }
    let _slot = Slot(server.clone());

    let write_half = match stream.split() {
        Ok(half) => half,
        Err(_) => return,
    };
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err()
        || stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err()
    {
        return;
    }
    let mut conn = ConnDriver::new(server.clone(), Box::new(write_half));
    let mut reader = stream;
    // Hand-rolled line framing: `BufRead::read_line` discards bytes already
    // consumed when a read times out mid-line, so frame raw reads ourselves —
    // a timeout then just means "check the shutdown flag and keep reading".
    let mut framer = LineFramer::default();
    let mut chunk = [0u8; 8192];
    loop {
        if server.shutdown.load(SeqCst) {
            // Another connection began the drain.  One final sweep: requests
            // already on the wire get an explicit shutting-down error (from
            // `process_line`) instead of a silent close, so no client hangs
            // on a dropped line.
            if let Ok(n) = reader.read(&mut chunk) {
                let _ = framer.feed(&chunk[..n], &mut conn);
            }
            return;
        }
        match reader.read(&mut chunk) {
            Ok(0) => {
                // EOF; a trailing unterminated line still gets an answer
                // (an empty one is skipped like any blank line).
                let _ = framer.feed(b"\n", &mut conn);
                return;
            }
            Ok(n) => {
                if framer.feed(&chunk[..n], &mut conn) == LineOutcome::Shutdown {
                    return;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(_) => {
                // A hard read error (connection reset, not a plain EOF): the
                // client is gone without half-closing, so nobody will read
                // the in-flight responses — abort that work instead of
                // computing into the void.  A clean EOF above deliberately
                // does NOT cancel: half-close-then-drain is the documented
                // client pattern ([`crate::client::ClientStream::shutdown_write`]).
                conn.cancel.cancel();
                return;
            }
        }
    }
}

/// The longest request line a connection (socket or stdin) buffers, in
/// bytes.
/// Requests are a few hundred bytes (a `perm_shard` line is the largest);
/// a longer line is answered with one `invalid_request` error and skipped
/// through its newline, so no client can grow the server's memory without
/// bound.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Splits raw stream reads (a socket's or stdin's) into request lines under
/// [`MAX_LINE_BYTES`].
/// Each read is scanned once, so framing is linear in the bytes received.
#[derive(Default)]
struct LineFramer {
    /// The current line's bytes so far (no newline).
    line: Vec<u8>,
    /// The current line overflowed the cap and was answered; its remaining
    /// bytes are dropped up to the next newline.
    discarding: bool,
}

impl LineFramer {
    /// Drives every line completed by `bytes` and buffers the rest.
    fn feed(&mut self, mut bytes: &[u8], conn: &mut ConnDriver) -> LineOutcome {
        loop {
            let newline = bytes.iter().position(|&b| b == b'\n');
            let part = &bytes[..newline.unwrap_or(bytes.len())];
            if !self.discarding {
                if self.line.len() + part.len() > MAX_LINE_BYTES {
                    self.line = Vec::new();
                    self.discarding = true;
                    conn.reject_oversized_line();
                } else {
                    self.line.extend_from_slice(part);
                }
            }
            let Some(pos) = newline else {
                return LineOutcome::Continue;
            };
            bytes = &bytes[pos + 1..];
            if std::mem::take(&mut self.discarding) {
                continue;
            }
            let line = std::mem::take(&mut self.line);
            let line = String::from_utf8_lossy(&line);
            if conn.process_line(line.trim_end_matches('\r')) == LineOutcome::Shutdown {
                return LineOutcome::Shutdown;
            }
        }
    }
}

/// The accept loop: admits clients up to the connection cap, spawns one
/// thread per connection, and exits — joining every connection — once a
/// `shutdown` request (on any connection) flags the server down.
fn accept_loop<A: Acceptor>(listener: A, server: Arc<SharedServer>, max_connections: usize) -> i32 {
    let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !server.shutdown.load(SeqCst) {
        match listener.poll_accept() {
            Ok(Some(stream)) => {
                if server.connections.load(SeqCst) >= max_connections {
                    // Over the cap: one structured transient error line with
                    // a backoff hint, then disconnect.  Slots free as soon as
                    // a connection closes, so the hint is short.
                    let mut stream = stream;
                    let error = ServerError::new(
                        ErrorCode::Overloaded,
                        format!("connection limit reached ({max_connections}); retry later"),
                    )
                    .with_retry_after_ms(OVERLOADED_RETRY_AFTER_MS);
                    let _ = writeln!(stream, "{}", error_line(None, &error));
                    continue;
                }
                server.connections.fetch_add(1, SeqCst);
                let server = server.clone();
                connections.push(std::thread::spawn(move || {
                    handle_socket_connection(server, stream)
                }));
            }
            Ok(None) => std::thread::sleep(POLL_INTERVAL),
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
        connections.retain(|c| !c.is_finished());
    }
    for conn in connections {
        let _ = conn.join();
    }
    0
}

/// Binds `addr` and serves until a `shutdown` request.  `on_ready` receives
/// the bound address (`tcp:IP:PORT` with the real port, or `unix:PATH`)
/// once the listener accepts connections — the CLI prints it as a JSON
/// ready line, tests use it to connect.  Returns the process exit code.
pub fn serve_listener(
    addr: &ListenAddr,
    config: &ServerConfig,
    on_ready: impl FnOnce(&str),
) -> std::io::Result<i32> {
    let server = Arc::new(SharedServer::new(config.options()));
    match addr {
        ListenAddr::Tcp(spec) => {
            let listener = TcpListener::bind(spec)?;
            listener.set_nonblocking(true)?;
            on_ready(&format!("tcp:{}", listener.local_addr()?));
            Ok(accept_loop(listener, server, config.max_connections))
        }
        #[cfg(unix)]
        ListenAddr::Unix(path) => {
            let listener = UnixListener::bind(path)?;
            listener.set_nonblocking(true)?;
            on_ready(&ListenAddr::Unix(path.clone()).to_string());
            let code = accept_loop(listener, server, config.max_connections);
            let _ = std::fs::remove_file(path);
            Ok(code)
        }
        #[cfg(not(unix))]
        ListenAddr::Unix(_) => Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "unix sockets are not available on this platform",
        )),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::client::ClientStream;
    use crate::json::Json;

    fn fixture_path() -> String {
        crate::proto::tests::fixture_path()
    }

    #[test]
    fn listen_addr_parses_and_displays() {
        assert_eq!(
            ListenAddr::parse("tcp:127.0.0.1:7878").unwrap(),
            ListenAddr::Tcp("127.0.0.1:7878".to_string())
        );
        assert_eq!(
            ListenAddr::parse("unix:/tmp/s.sock").unwrap(),
            ListenAddr::Unix(PathBuf::from("/tmp/s.sock"))
        );
        assert_eq!(
            ListenAddr::parse("tcp:0.0.0.0:0").unwrap().to_string(),
            "tcp:0.0.0.0:0"
        );
        for bad in ["tcp:", "unix:", "7878", "http:localhost"] {
            assert!(ListenAddr::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    /// A Write proxy so tests can keep a handle on the output buffer.
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);
    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn serve_streams_round_trips_a_scripted_session() {
        let path = fixture_path();
        let script = format!(
            concat!(
                r#"{{"id":"a","cmd":"load","path":"{path}"}}"#,
                "\n",
                r#"{{"id":"b","cmd":"correct","min_sup":10,"correction":"bonferroni"}}"#,
                "\n",
                r#"{{"id":"c","cmd":"stats"}}"#,
                "\n",
                r#"{{"id":"d","cmd":"shutdown"}}"#,
                "\n"
            ),
            path = path
        );
        let out: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        let code = serve_streams(script.as_bytes(), SharedBuf(out.clone()));
        assert_eq!(code, 0);
        let text = String::from_utf8(out.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "one response per request: {text}");
        for line in &lines {
            let parsed = Json::parse(line).unwrap();
            assert_eq!(
                parsed.get("ok").and_then(Json::as_bool),
                Some(true),
                "{line}"
            );
        }
        // Responses can be matched back by id.
        let mut ids: Vec<String> = lines
            .iter()
            .map(|l| {
                Json::parse(l)
                    .unwrap()
                    .get("id")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        ids.sort();
        assert_eq!(ids, vec!["a", "b", "c", "d"]);
    }

    /// Runs one stdin session over raw bytes and returns the parsed
    /// response lines.
    fn stdin_session(script: &[u8]) -> Vec<Json> {
        let out: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        assert_eq!(serve_streams(script, SharedBuf(out.clone())), 0);
        let text = String::from_utf8(out.lock().unwrap().clone()).unwrap();
        text.lines().map(|l| Json::parse(l).unwrap()).collect()
    }

    #[test]
    fn stdin_non_utf8_line_is_answered_and_the_session_continues() {
        let script = b"{\"id\":1,\"cmd\":\"stats\"}\n\xff\xfe\n{\"id\":2,\"cmd\":\"stats\"}\n";
        let responses = stdin_session(script);
        assert_eq!(responses.len(), 3, "one answer per line: {responses:?}");
        assert_eq!(responses[1].get("ok").and_then(Json::as_bool), Some(false));
        let last = &responses[2];
        assert_eq!(last.get("id").and_then(Json::as_u64), Some(2));
        assert_eq!(last.get("ok").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn stdin_over_cap_line_gets_one_invalid_request_and_the_next_is_answered() {
        let mut script = b"{\"id\":1,\"cmd\":\"stats\"}\n".to_vec();
        script.extend(std::iter::repeat_n(b'x', MAX_LINE_BYTES + 1));
        script.extend_from_slice(b"\n{\"id\":2,\"cmd\":\"stats\"}");
        let responses = stdin_session(&script);
        assert_eq!(responses.len(), 3, "{responses:?}");
        assert_eq!(
            responses[1].get("code").and_then(Json::as_str),
            Some("invalid_request")
        );
        let message = responses[1].get("error").and_then(Json::as_str).unwrap();
        assert!(message.contains("exceeds"), "{message}");
        assert!(responses[1].get("id").is_none());
        let last = &responses[2];
        assert_eq!(last.get("id").and_then(Json::as_u64), Some(2));
        assert_eq!(last.get("ok").and_then(Json::as_bool), Some(true));
    }

    /// One in-process TCP server, driven by library clients: concurrent
    /// connections race queries on the shared registry, and a shutdown from
    /// one connection drains the others' in-flight work.
    #[test]
    fn tcp_server_serves_concurrent_connections_and_drains_on_shutdown() {
        let path = fixture_path();
        let addr = ListenAddr::Tcp("127.0.0.1:0".to_string());
        let (send_ready, recv_ready) = std::sync::mpsc::channel::<String>();
        let server = std::thread::spawn(move || {
            serve_listener(&addr, &ServerConfig::default(), |bound| {
                send_ready.send(bound.to_string()).unwrap()
            })
            .unwrap()
        });
        let bound = ListenAddr::parse(&recv_ready.recv().unwrap()).unwrap();

        // Load on one connection; the dataset is visible to every other.
        let mut admin = ClientStream::connect(&bound).unwrap();
        let load = admin
            .request(&format!(r#"{{"cmd":"load","path":"{path}"}}"#))
            .unwrap();
        assert_eq!(load.get("ok").and_then(Json::as_bool), Some(true));

        // A second connection issues an async correct but does NOT wait for
        // the response before the admin connection requests shutdown: the
        // drain must still deliver it.
        let mut worker = ClientStream::connect(&bound).unwrap();
        worker
            .send(r#"{"id":"slow","cmd":"correct","async":true,"min_sup":8,"correction":"permutation","permutations":60,"seed":2}"#)
            .unwrap();
        // Wait until the query is actually in flight (the engine's query
        // counter ticks at query start) — the drain guarantee covers work
        // the server has accepted, not bytes still in a socket buffer.
        loop {
            let stats = admin.request(r#"{"cmd":"stats"}"#).unwrap();
            if stats.get("queries").and_then(Json::as_u64).unwrap_or(0) >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let bye = admin.request(r#"{"id":"bye","cmd":"shutdown"}"#).unwrap();
        assert_eq!(bye.get("ok").and_then(Json::as_bool), Some(true));

        // The racing worker's response was written before the server wound
        // down (the drain guarantee), and it is a real answer.
        let slow = worker.read_response().unwrap();
        assert_eq!(slow.get("id").and_then(Json::as_str), Some("slow"));
        assert_eq!(slow.get("ok").and_then(Json::as_bool), Some(true));
        assert!(slow.get("significant").and_then(Json::as_u64).is_some());

        assert_eq!(server.join().unwrap(), 0);
    }

    #[test]
    fn connection_cap_rejects_excess_clients_with_an_error_line() {
        let addr = ListenAddr::Tcp("127.0.0.1:0".to_string());
        let config = ServerConfig {
            max_connections: 1,
            cache_budget_bytes: None,
            slow_query_ms: None,
        };
        let (send_ready, recv_ready) = std::sync::mpsc::channel::<String>();
        let server = std::thread::spawn(move || {
            serve_listener(&addr, &config, |bound| {
                send_ready.send(bound.to_string()).unwrap()
            })
            .unwrap()
        });
        let bound = ListenAddr::parse(&recv_ready.recv().unwrap()).unwrap();

        let mut first = ClientStream::connect(&bound).unwrap();
        // Prove the first slot is actually active before racing the second.
        let stats = first.request(r#"{"cmd":"stats"}"#).unwrap();
        assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));

        let mut second = ClientStream::connect(&bound).unwrap();
        let rejected = second.read_response().unwrap();
        assert_eq!(rejected.get("ok").and_then(Json::as_bool), Some(false));
        assert!(rejected
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("connection limit"));
        // The rejection is a structured transient error with a backoff hint,
        // so clients can retry mechanically instead of parsing prose.
        assert_eq!(
            rejected.get("code").and_then(Json::as_str),
            Some("overloaded")
        );
        assert_eq!(
            rejected.get("error_kind").and_then(Json::as_str),
            Some("transient")
        );
        assert_eq!(
            rejected.get("retry_after_ms").and_then(Json::as_u64),
            Some(OVERLOADED_RETRY_AFTER_MS)
        );

        let bye = first.request(r#"{"cmd":"shutdown"}"#).unwrap();
        assert_eq!(bye.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(server.join().unwrap(), 0);
    }

    #[cfg(unix)]
    #[test]
    fn unix_server_round_trips_and_removes_the_socket_file() {
        let path = fixture_path();
        let sock = std::env::temp_dir().join(format!(
            "sigrule_transport_unit_{}.sock",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&sock);
        let addr = ListenAddr::Unix(sock.clone());
        let (send_ready, recv_ready) = std::sync::mpsc::channel::<String>();
        let server = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                serve_listener(&addr, &ServerConfig::default(), |bound| {
                    send_ready.send(bound.to_string()).unwrap()
                })
                .unwrap()
            })
        };
        let bound = ListenAddr::parse(&recv_ready.recv().unwrap()).unwrap();
        assert_eq!(bound, addr);

        let mut client = ClientStream::connect(&bound).unwrap();
        let load = client
            .request(&format!(r#"{{"cmd":"load","path":"{path}","name":"u"}}"#))
            .unwrap();
        assert_eq!(load.get("ok").and_then(Json::as_bool), Some(true));
        let mine = client
            .request(r#"{"cmd":"mine","dataset":"u","min_sup":10}"#)
            .unwrap();
        assert_eq!(mine.get("ok").and_then(Json::as_bool), Some(true));
        let bye = client.request(r#"{"cmd":"shutdown"}"#).unwrap();
        assert_eq!(bye.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(server.join().unwrap(), 0);
        assert!(!sock.exists(), "socket file removed on graceful exit");

        // BufReader in the client may hold the EOF; the stream closing after
        // shutdown is implicit in join() returning.
    }
}
