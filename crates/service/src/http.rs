//! Hand-rolled HTTP/1.1 front end: request parsing, response writing, and a
//! blocking server over [`std::net::TcpListener`] that runs each connection
//! on a thread of its own.
//!
//! Scope is deliberately the subset a JSON API needs — `Content-Length`
//! bodies (no chunked transfer), persistent connections (HTTP/1.1 keep-alive
//! is what makes the closed-loop benchmark measure the service rather than
//! TCP handshakes), and `%xx` query decoding. Requests are capped at
//! [`MAX_BODY`] bytes; anything malformed is answered with `400` and the
//! connection is dropped, so a confused peer cannot wedge a thread.
//!
//! A connection's thread reads, handles and answers its requests until the
//! peer closes, asks to close, sends a malformed request or goes silent for
//! `READ_TIMEOUT`. An idle keep-alive connection therefore holds only its own
//! thread, never another connection's turn. The server's `threads` bound how
//! many requests run the handler at once: a request takes a permit just
//! before the handler call and returns it when the call ends, by return or by
//! panic, so a panicking handler ends only its own connection. `GET /healthz`
//! and `GET /metrics` take no permit: they read only gauges, and slow
//! handlers holding every permit must not hold a health probe off.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Upper bound on request bodies (1 MiB of JSON ≈ 20k batched answers).
pub const MAX_BODY: usize = 1 << 20;

/// How long a connection may sit idle between requests before it is closed.
/// It is also each read's socket timeout, and no read of a request starts
/// later than this after the request's first bytes arrived, so a peer that
/// trickles a request frees its thread within twice this long.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, ...).
    pub method: String,
    /// Decoded path without the query string (e.g. `/tables/t1/truth`).
    pub path: String,
    /// Decoded query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the connection should be kept open after responding.
    pub keep_alive: bool,
    /// Correlation id: the sanitized `X-Request-Id` header when the client
    /// sent one, otherwise a server-generated `req-<hex>`. Echoed back on
    /// the response and threaded into event traces.
    pub request_id: String,
}

impl Request {
    /// First value of a query parameter.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// One response; the server adds the framing headers.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers (`Retry-After` on 429/503 responses), written verbatim
    /// after the framing headers.
    pub headers: Vec<(&'static str, String)>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl std::fmt::Display) -> Response {
        Response {
            status,
            body: body.to_string().into_bytes(),
            content_type: "application/json",
            headers: Vec::new(),
        }
    }

    /// Attach an extra header (builder-style).
    pub fn with_header(mut self, name: &'static str, value: impl std::fmt::Display) -> Response {
        self.headers.push((name, value.to_string()));
        self
    }
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        201 => "Created",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    }
}

fn decode_percent(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 3 <= bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok();
                match hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (decode_percent(k), decode_percent(v)),
            None => (decode_percent(kv), String::new()),
        })
        .collect()
}

/// Longest accepted request/header line; `read_line` grows its buffer until
/// a newline arrives, so without this cap a peer streaming newline-free
/// bytes would allocate without bound (`MAX_BODY` only limits the body).
const MAX_LINE: u64 = 8 * 1024;
/// Most headers accepted per request.
const MAX_HEADERS: usize = 100;

/// Longest accepted `X-Request-Id` value; anything longer is truncated so a
/// hostile client cannot bloat event traces.
const MAX_REQUEST_ID: usize = 64;

/// Source of server-generated correlation ids.
static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

/// Keep a client-supplied correlation id loggable: URL/label-safe charset,
/// bounded length. Returns `None` when nothing usable remains.
fn sanitize_request_id(raw: &str) -> Option<String> {
    let id: String = raw
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || "._-".contains(*c))
        .take(MAX_REQUEST_ID)
        .collect();
    if id.is_empty() {
        None
    } else {
        Some(id)
    }
}

/// `read_line` with the [`MAX_LINE`] allocation cap.
fn read_line_capped(reader: &mut impl BufRead, line: &mut String) -> std::io::Result<usize> {
    let n = reader.by_ref().take(MAX_LINE).read_line(line)?;
    if n as u64 >= MAX_LINE && !line.ends_with('\n') {
        return Err(bad("line too long"));
    }
    Ok(n)
}

/// Read one request off the connection. `Ok(None)` means the peer closed
/// cleanly between requests; `Err` covers malformed input and timeouts.
pub fn read_request(reader: &mut impl BufRead) -> std::io::Result<Option<Request>> {
    let mut line = String::new();
    if read_line_capped(reader, &mut line)? == 0 {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m.to_uppercase(), t.to_string(), v.to_string()),
        _ => return Err(bad("malformed request line")),
    };
    // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close.
    let mut keep_alive = version != "HTTP/1.0";
    let mut content_length = 0usize;
    let mut request_id: Option<String> = None;
    for header_count in 0usize.. {
        if header_count >= MAX_HEADERS {
            return Err(bad("too many headers"));
        }
        let mut header = String::new();
        if read_line_capped(reader, &mut header)? == 0 {
            return Err(bad("connection closed mid-headers"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(bad("malformed header"));
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => {
                content_length = value.parse().map_err(|_| bad("unparsable Content-Length"))?;
                if content_length > MAX_BODY {
                    return Err(bad("body too large"));
                }
            }
            "connection" => {
                let v = value.to_ascii_lowercase();
                if v.contains("close") {
                    keep_alive = false;
                } else if v.contains("keep-alive") {
                    keep_alive = true;
                }
            }
            "x-request-id" => request_id = sanitize_request_id(value),
            _ => {}
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (decode_percent(p), parse_query(q)),
        None => (decode_percent(&target), Vec::new()),
    };
    let request_id = request_id
        .unwrap_or_else(|| format!("req-{:x}", NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed)));
    Ok(Some(Request { method, path, query, body, keep_alive, request_id }))
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Write a response with framing headers.
pub fn write_response(
    stream: &mut TcpStream,
    resp: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        resp.status,
        status_text(resp.status),
        resp.content_type,
        resp.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in &resp.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(&resp.body)?;
    stream.flush()
}

/// The request handler the server dispatches to.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    shared: Arc<Shared>,
    accept_thread: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address (the actual port when started on port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stop accepting, close the read side of every open connection and wait
    /// for their threads. A request whose handler is running finishes and
    /// writes its response first; an idle keep-alive connection closes at
    /// once.
    pub fn shutdown(self) {
        self.shared.open().stopped = true;
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept_thread.join();
        let mut open = self.shared.open();
        for stream in open.streams.values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        while !open.streams.is_empty() {
            open = self.shared.closed.wait(open).expect("open connections lock");
        }
    }
}

/// What the accept thread, the connection threads and the handle share.
struct Shared {
    handler: Handler,
    /// Handler permits not taken, out of the server's `threads`.
    permits: Mutex<usize>,
    /// Signalled when a permit is returned.
    returned: Condvar,
    open: Mutex<Open>,
    /// Signalled when a connection closes.
    closed: Condvar,
}

/// The open connections: a second handle on each one's stream, through which
/// shutdown closes its read side, keyed by an id the accept thread assigns.
#[derive(Default)]
struct Open {
    streams: HashMap<u64, TcpStream>,
    next_id: u64,
    stopped: bool,
}

impl Shared {
    fn open(&self) -> MutexGuard<'_, Open> {
        self.open.lock().expect("open connections lock")
    }

    /// Forget connection `id`, closing the handle kept on it.
    fn close(&self, id: u64) {
        self.open().streams.remove(&id);
        self.closed.notify_all();
    }

    /// Wait for a handler permit; dropping it returns it.
    fn permit(&self) -> Permit<'_> {
        let mut free = self.permits.lock().expect("permits lock");
        while *free == 0 {
            free = self.returned.wait(free).expect("permits lock");
        }
        *free -= 1;
        Permit(self)
    }
}

/// One request's turn to run the handler.
struct Permit<'a>(&'a Shared);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        // Nothing panics while holding the count, so a poisoned lock still
        // guards a valid one.
        *self.0.permits.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        self.0.returned.notify_one();
    }
}

/// Start serving `handler` on `addr` (use port 0 for an ephemeral port). Each
/// accepted connection runs on a thread of its own, and at most `threads`
/// requests run the handler at once.
pub fn serve(addr: &str, threads: usize, handler: Handler) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let shared = Arc::new(Shared {
        handler,
        permits: Mutex::new(threads.max(1)),
        returned: Condvar::new(),
        open: Mutex::default(),
        closed: Condvar::new(),
    });
    let accepting = Arc::clone(&shared);
    let accept_thread = std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            let _ = stream.set_nodelay(true);
            let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
            let Ok(handle) = stream.try_clone() else { continue };
            let id = {
                let mut open = accepting.open();
                if open.stopped {
                    break;
                }
                open.next_id += 1;
                let id = open.next_id;
                open.streams.insert(id, handle);
                id
            };
            let shared = Arc::clone(&accepting);
            let spawned = std::thread::Builder::new().spawn(move || {
                // A panicking handler has returned its permit by now, and
                // only this connection ends.
                let _ = catch_unwind(AssertUnwindSafe(|| serve_connection(stream, &shared)));
                shared.close(id);
            });
            // A connection that gets no thread is dropped; the server goes on.
            if spawned.is_err() {
                accepting.close(id);
            }
        }
    });
    Ok(ServerHandle { addr: local, shared, accept_thread })
}

/// A connection's read side. It starts no read past `deadline`; the socket's
/// read timeout bounds each read.
struct DeadlineRead {
    stream: TcpStream,
    deadline: Instant,
}

impl Read for DeadlineRead {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if Instant::now() >= self.deadline {
            return Err(ErrorKind::TimedOut.into());
        }
        self.stream.read(buf)
    }
}

/// Read, handle and answer the requests on `stream` until the connection is
/// done.
fn serve_connection(stream: TcpStream, shared: &Shared) {
    let mut reader = BufReader::new(DeadlineRead { stream, deadline: Instant::now() });
    loop {
        // Wait for the next request to start; an idle connection closes when
        // the socket's read timeout expires. The last request's deadline may
        // have passed while its handler ran.
        reader.get_mut().deadline = Instant::now() + READ_TIMEOUT;
        match reader.fill_buf() {
            Ok([]) | Err(_) => return,
            Ok(_) => {}
        }
        reader.get_mut().deadline = Instant::now() + READ_TIMEOUT;
        if !serve_request(&mut reader, shared) {
            return;
        }
    }
}

/// Read and answer one request; false when the connection is done.
fn serve_request(reader: &mut BufReader<DeadlineRead>, shared: &Shared) -> bool {
    match read_request(reader) {
        Ok(Some(req)) => {
            let keep = req.keep_alive;
            let mut resp = {
                let _permit = takes_permit(&req).then(|| shared.permit());
                (shared.handler)(&req)
            };
            // Echo the correlation id so clients can match responses to
            // their own ids (or learn the server-generated one).
            resp.headers.push(("X-Request-Id", req.request_id.clone()));
            write_response(&mut reader.get_mut().stream, &resp, keep).is_ok() && keep
        }
        Ok(None) => false,
        Err(e) if e.kind() == ErrorKind::InvalidData => {
            let resp = Response::json(
                400,
                format!("{{\"error\":\"{}\"}}", e.to_string().replace('"', "'")),
            );
            let _ = write_response(&mut reader.get_mut().stream, &resp, false);
            false
        }
        Err(_) => false, // timeout or reset
    }
}

/// Whether `req` waits for a handler permit: every request but the probes
/// (`GET /healthz`, `GET /metrics`) does.
fn takes_permit(req: &Request) -> bool {
    !(req.method == "GET" && matches!(req.path.as_str(), "/healthz" | "/metrics"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    fn echo_server() -> ServerHandle {
        serve(
            "127.0.0.1:0",
            2,
            Arc::new(|req: &Request| {
                let body = format!(
                    "{{\"method\":\"{}\",\"path\":\"{}\",\"q\":{},\"len\":{}}}",
                    req.method,
                    req.path,
                    req.query.len(),
                    req.body.len()
                );
                Response::json(200, body)
            }),
        )
        .expect("bind")
    }

    fn roundtrip(addr: std::net::SocketAddr, raw: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_requests_and_shuts_down() {
        let server = echo_server();
        let addr = server.addr();
        let reply = roundtrip(
            addr,
            "GET /x/y?a=1&b=two%20words HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n",
        );
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        assert!(reply.contains("\"path\":\"/x/y\""), "{reply}");
        assert!(reply.contains("\"q\":2"), "{reply}");
        server.shutdown();
    }

    #[test]
    fn keep_alive_serves_multiple_requests_per_connection() {
        let server = echo_server();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        for i in 0..3 {
            let body = format!("ping{i}");
            let req = format!(
                "POST /echo HTTP/1.1\r\nHost: h\r\nContent-Length: {}\r\n\r\n{}",
                body.len(),
                body
            );
            s.write_all(req.as_bytes()).unwrap();
            // Read the response head + body off the shared connection.
            let mut reader = BufReader::new(s.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.starts_with("HTTP/1.1 200"), "{line}");
            let mut len = 0usize;
            loop {
                let mut h = String::new();
                reader.read_line(&mut h).unwrap();
                if h.trim_end().is_empty() {
                    break;
                }
                if let Some(v) = h.to_ascii_lowercase().strip_prefix("content-length:") {
                    len = v.trim().parse().unwrap();
                }
            }
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body).unwrap();
            assert!(String::from_utf8(body).unwrap().contains("\"len\":5"));
        }
        // The client closes its connection first; shutdown would close an
        // idle one itself.
        drop(s);
        server.shutdown();
    }

    #[test]
    fn rejects_oversized_and_malformed_requests() {
        let server = echo_server();
        let addr = server.addr();
        let huge =
            format!("POST / HTTP/1.1\r\nHost: h\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        assert!(roundtrip(addr, &huge).starts_with("HTTP/1.1 400"), "oversized body");
        assert!(roundtrip(addr, "NONSENSE\r\n\r\n").starts_with("HTTP/1.1 400"), "bad line");
        // Abusive inputs (over-long line, header flood) must get the peer
        // cut off, not buffered without bound. The server closes with the
        // peer's data still in flight, so the client may see the 400 or a
        // plain reset — both prove the cutoff; an echo of the request would
        // mean the flood was accepted.
        let abusive = |raw: &str| -> String {
            let mut s = TcpStream::connect(addr).unwrap();
            let _ = s.write_all(raw.as_bytes());
            let mut out = String::new();
            let _ = s.read_to_string(&mut out);
            out
        };
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(16 * 1024));
        let reply = abusive(&long_line);
        assert!(reply.is_empty() || reply.starts_with("HTTP/1.1 400"), "unbounded line: {reply}");
        let many = format!("GET / HTTP/1.1\r\n{}\r\n", "X-H: v\r\n".repeat(150));
        let reply = abusive(&many);
        assert!(reply.is_empty() || reply.starts_with("HTTP/1.1 400"), "header flood: {reply}");
        server.shutdown();
    }

    /// Idle keep-alive connections outnumbering the workers must not stop
    /// a new connection from being served, and each of them must still be
    /// served once its request arrives.
    #[test]
    fn idle_connections_do_not_starve_the_pool() {
        let server = echo_server();
        let addr = server.addr();
        let mut idle: Vec<TcpStream> = (0..20).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let request = "GET /healthz HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n";
        let started = Instant::now();
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        s.write_all(request.as_bytes()).unwrap();
        let mut reply = String::new();
        let read = s.read_to_string(&mut reply);
        let elapsed = started.elapsed();
        assert!(read.is_ok() && reply.starts_with("HTTP/1.1 200"), "{read:?}: {reply}");
        // A pool held by the idle connections would leave this request to
        // the client's 2 s read timeout; the bound leaves room for a loaded
        // host.
        assert!(elapsed < Duration::from_secs(1), "/healthz took {elapsed:?}");
        for (i, c) in idle.iter_mut().enumerate() {
            c.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            c.write_all(request.as_bytes()).unwrap();
            let mut reply = String::new();
            let read = c.read_to_string(&mut reply);
            assert!(read.is_ok() && reply.starts_with("HTTP/1.1 200"), "idle {i}: {reply}");
        }
        server.shutdown();
    }

    /// Read one response off a connection: the status line, the lowercased
    /// headers and the body.
    fn read_response(reader: &mut impl BufRead) -> (String, Vec<(String, String)>, String) {
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        let mut headers = Vec::new();
        loop {
            let mut h = String::new();
            reader.read_line(&mut h).unwrap();
            let Some((name, value)) = h.trim_end().split_once(':') else { break };
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }
        let len = headers
            .iter()
            .find(|(name, _)| name == "content-length")
            .map_or(0, |(_, v)| v.parse().unwrap());
        let mut body = vec![0u8; len];
        reader.read_exact(&mut body).unwrap();
        (status, headers, String::from_utf8(body).unwrap())
    }

    /// Shutdown closes an idle keep-alive connection instead of waiting for
    /// it to idle out.
    #[test]
    fn shutdown_closes_idle_keep_alive_connections() {
        let server = echo_server();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(b"GET /a HTTP/1.1\r\nHost: h\r\n\r\n").unwrap();
        let mut reader = BufReader::new(s);
        let (status, _, _) = read_response(&mut reader);
        assert!(status.starts_with("HTTP/1.1 200"), "{status}");
        let started = Instant::now();
        server.shutdown();
        let elapsed = started.elapsed();
        assert!(elapsed < Duration::from_secs(2), "shutdown took {elapsed:?}");
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "connection left open: {rest}");
    }

    /// A panicking handler returns its permit and ends only its own
    /// connection, so a 1-thread server keeps serving.
    #[test]
    fn a_panicking_handler_ends_only_its_own_connection() {
        let server = serve(
            "127.0.0.1:0",
            1,
            Arc::new(|req: &Request| {
                assert_ne!(req.path, "/boom", "the handler panics on /boom");
                Response::json(200, "{}")
            }),
        )
        .expect("bind");
        let get = |path: &str| {
            let mut s = TcpStream::connect(server.addr()).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let request = format!("GET {path} HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n");
            s.write_all(request.as_bytes()).unwrap();
            let mut reply = String::new();
            s.read_to_string(&mut reply).map(|_| reply)
        };
        for i in 0..3 {
            let reply = get("/boom");
            assert!(matches!(&reply, Ok(r) if r.is_empty()), "/boom {i}: {reply:?}");
        }
        let reply = get("/ok");
        assert!(matches!(&reply, Ok(r) if r.starts_with("HTTP/1.1 200")), "/ok: {reply:?}");
        server.shutdown();
    }

    /// Two requests sent in one write on a keep-alive connection get two
    /// responses, in order, each echoing its own request id.
    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let server = echo_server();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(
            b"GET /first HTTP/1.1\r\nHost: h\r\nX-Request-Id: one\r\n\r\n\
              GET /second HTTP/1.1\r\nHost: h\r\nX-Request-Id: two\r\n\r\n",
        )
        .unwrap();
        let mut reader = BufReader::new(s);
        for (path, id) in [("/first", "one"), ("/second", "two")] {
            let (status, headers, body) = read_response(&mut reader);
            assert!(status.starts_with("HTTP/1.1 200"), "{status}");
            assert!(headers.contains(&("x-request-id".into(), id.into())), "{headers:?}");
            assert!(body.contains(&format!("\"path\":\"{path}\"")), "{body}");
        }
        drop(reader);
        server.shutdown();
    }

    /// `threads` bounds the handler calls in progress, however many
    /// connections send requests at once.
    #[test]
    fn threads_bound_concurrent_handler_calls() {
        let running = Arc::new(AtomicUsize::new(0));
        let most = Arc::new(AtomicUsize::new(0));
        let (r, m) = (Arc::clone(&running), Arc::clone(&most));
        let server = serve(
            "127.0.0.1:0",
            2,
            Arc::new(move |_: &Request| {
                m.fetch_max(r.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(50));
                r.fetch_sub(1, Ordering::SeqCst);
                Response::json(200, "{}")
            }),
        )
        .expect("bind");
        let addr = server.addr();
        let start = Arc::new(Barrier::new(4));
        let clients: Vec<_> = (0..4)
            .map(|_| {
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    roundtrip(addr, "GET / HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n")
                })
            })
            .collect();
        for client in clients {
            let reply = client.join().unwrap();
            assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        }
        let most = most.load(Ordering::SeqCst);
        assert!((1..=2).contains(&most), "{most} handler calls ran at once");
        server.shutdown();
    }

    /// `GET /healthz` and `GET /metrics` answer while slow handlers hold
    /// every permit.
    #[test]
    fn probes_answer_while_slow_handlers_hold_every_permit() {
        let (entered, handlers) = std::sync::mpsc::channel();
        let released = Arc::new((Mutex::new(false), Condvar::new()));
        let r = Arc::clone(&released);
        let server = serve(
            "127.0.0.1:0",
            2,
            Arc::new(move |req: &Request| {
                if req.path == "/slow" {
                    entered.send(()).unwrap();
                    let (lock, cvar) = &*r;
                    let mut open = lock.lock().unwrap();
                    while !*open {
                        open = cvar.wait(open).unwrap();
                    }
                }
                Response::json(200, "{}")
            }),
        )
        .expect("bind");
        let addr = server.addr();
        let get = move |path: &str| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let request = format!("GET {path} HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n");
            s.write_all(request.as_bytes()).unwrap();
            let mut reply = String::new();
            s.read_to_string(&mut reply).map(|_| reply)
        };
        let slow: Vec<_> = (0..2).map(|_| std::thread::spawn(move || get("/slow"))).collect();
        for _ in 0..2 {
            handlers
                .recv_timeout(Duration::from_secs(10))
                .expect("a slow request reached the handler");
        }
        // Both permits are taken until the slow handlers are released.
        let probes = ["/healthz", "/metrics"].map(|path| {
            let started = Instant::now();
            (path, get(path), started.elapsed())
        });
        *released.0.lock().unwrap() = true;
        released.1.notify_all();
        for (path, reply, elapsed) in probes {
            assert!(matches!(&reply, Ok(r) if r.starts_with("HTTP/1.1 200")), "{path}: {reply:?}");
            assert!(elapsed < Duration::from_secs(1), "{path} took {elapsed:?}");
        }
        for client in slow {
            let reply = client.join().unwrap();
            assert!(matches!(&reply, Ok(r) if r.starts_with("HTTP/1.1 200")), "/slow: {reply:?}");
        }
        server.shutdown();
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(decode_percent("a%20b+c%2Fd"), "a b c/d");
        assert_eq!(decode_percent("100%"), "100%"); // truncated escape passes through
    }
}
