//! A dependency-free HTTP/1.0 server for read-only telemetry views.
//!
//! Backs the serve daemon's `/metrics`/`/healthz`/`/traces` endpoints
//! (`qdgnn_serve::http`). The protocol surface is deliberately tiny:
//! GET only, bounded request read, per-connection read/write
//! timeouts, `Connection: close` on every response, and all requests
//! served inline from a single dedicated thread (telemetry traffic is a
//! scraper every few seconds, not a request flood) so a slow or hostile
//! scraper can never stall the instrumented workload. Shutdown flips a
//! flag and unblocks the accept loop with a throwaway self-connection,
//! then joins the thread.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Upper bound on one request's bytes; requests are GET-with-no-body,
/// so anything longer is garbage and gets a 400.
const MAX_REQUEST_BYTES: usize = 4096;

/// Per-connection read/write timeout: a stalled scraper is disconnected
/// rather than pinning the listener thread.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// One routed response: `(status, content-type, body)`.
pub type Response = (u16, &'static str, String);

/// Handle to a running listener. Shuts down on `Drop` (or explicitly via
/// [`HttpServer::shutdown`]); dropping the handle never affects the
/// workload the handler reads from.
pub struct HttpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9095"`; port `0` picks a free
    /// port, readable back via [`HttpServer::addr`]) and starts a
    /// listener thread named `thread_name` that answers every GET with
    /// `handler(path)` (query string already stripped).
    pub fn start(
        addr: &str,
        thread_name: &str,
        handler: impl Fn(&str) -> Response + Send + Sync + 'static,
    ) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::Builder::new()
            .name(thread_name.to_string())
            .spawn(move || accept_loop(&listener, &handler, &flag))?;
        Ok(HttpServer { addr: local, shutdown, handle: Some(handle) })
    }

    /// The bound address (resolves port `0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener: flips the shutdown flag, unblocks the accept
    /// loop with a self-connection, and joins the thread. Idempotent.
    pub fn shutdown(&mut self) {
        if self.handle.is_none() {
            return;
        }
        self.shutdown.store(true, Ordering::SeqCst);
        // The accept loop re-checks the flag after every accept; this
        // throwaway connection guarantees one more wake-up.
        let _ = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accepts connections until the shutdown flag flips.
fn accept_loop(
    listener: &TcpListener,
    handler: &(impl Fn(&str) -> Response + Send + Sync),
    shutdown: &AtomicBool,
) {
    loop {
        let conn = listener.accept();
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        if let Ok((stream, _peer)) = conn {
            serve_connection(stream, handler);
        }
    }
}

/// Reads one bounded request, routes it, writes one response. All I/O
/// errors end the connection silently — the scraper retries.
fn serve_connection(mut stream: TcpStream, handler: &(impl Fn(&str) -> Response + Send + Sync)) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let Some(path) = read_request_path(&mut stream) else {
        let _ = write_response(&mut stream, 400, "text/plain", "bad request\n");
        return;
    };
    let (status, ctype, body) = handler(&path);
    let _ = write_response(&mut stream, status, ctype, &body);
}

/// Reads until the first line is complete (or the byte cap / timeout
/// hits) and returns the GET path, query string stripped. `None` for
/// anything that is not a well-formed GET.
fn read_request_path(stream: &mut TcpStream) -> Option<String> {
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 512];
    while buf.len() < MAX_REQUEST_BYTES && !buf.contains(&b'\n') {
        let n = stream.read(&mut chunk).ok()?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(chunk.get(..n)?);
    }
    let text = String::from_utf8_lossy(&buf);
    let mut parts = text.lines().next()?.split_whitespace();
    if parts.next()? != "GET" {
        return None;
    }
    let path = parts.next()?;
    Some(path.split('?').next()?.to_string())
}

/// Writes one complete HTTP/1.0 response.
fn write_response(
    stream: &mut TcpStream,
    status: u16,
    ctype: &str,
    body: &str,
) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {ctype}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request.as_bytes()).expect("request written");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("response read");
        out
    }

    #[test]
    fn routes_gets_rejects_non_gets_and_shuts_down_idempotently() {
        let mut server = HttpServer::start("127.0.0.1:0", "t-httpd", |path| match path {
            "/ok" => (200, "text/plain", "hello\n".to_string()),
            _ => (404, "text/plain", "nope\n".to_string()),
        })
        .expect("server must start");
        let addr = server.addr();

        let ok = get(addr, "GET /ok HTTP/1.0\r\n\r\n");
        assert!(ok.starts_with("HTTP/1.0 200"), "{ok}");
        assert!(ok.contains("Connection: close"));
        assert!(ok.ends_with("hello\n"));

        let stripped = get(addr, "GET /ok?refresh=1 HTTP/1.0\r\n\r\n");
        assert!(stripped.starts_with("HTTP/1.0 200"), "query string must be stripped: {stripped}");

        let missing = get(addr, "GET /other HTTP/1.0\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");

        let bad = get(addr, "POST /ok HTTP/1.0\r\n\r\n");
        assert!(bad.starts_with("HTTP/1.0 400"), "non-GET must be rejected: {bad}");

        server.shutdown();
        server.shutdown(); // idempotent
    }
}
