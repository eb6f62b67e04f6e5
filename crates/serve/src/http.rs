//! A dependency-free telemetry endpoint for the serving engine.
//!
//! [`TelemetryServer::start`] serves three read-only views over
//! HTTP/1.0, completely isolated from the worker pool (a slow or
//! hostile scraper can never stall a query):
//!
//! * `GET /metrics` — the obs registry snapshot in Prometheus text
//!   exposition format (labeled series included). The engine's stats
//!   gauges are refreshed immediately before the snapshot, so the
//!   exposition can never disagree with the engine's own atomics.
//! * `GET /healthz` — a JSON verdict: breaker/degraded state, queue
//!   depth and the failure counters. Answers `503` while the engine is
//!   degraded, `200` otherwise, so a load balancer can act on it.
//! * `GET /traces` — the current tail exemplars (K slowest + K most
//!   recently shed request traces) as JSONL, one
//!   [`RequestTrace`](crate::trace::RequestTrace) per line.
//!
//! The socket machinery (GET-only parsing, bounded reads, timeouts,
//! single-thread accept loop, self-connect shutdown) lives in the shared
//! [`qdgnn_obs::httpd`] listener, so this module is only the
//! engine-specific routing.

use std::net::SocketAddr;
use std::sync::Arc;

use qdgnn_obs::httpd::{HttpServer, Response};

use crate::engine::ServeEngine;
use crate::error::ServeError;

/// Handle to a running telemetry listener. Shuts down on `Drop` (or
/// explicitly via [`TelemetryServer::shutdown`]); dropping the handle
/// never affects the serving engine itself.
pub struct TelemetryServer {
    server: HttpServer,
}

impl TelemetryServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9095"`; port `0` picks a free
    /// port, readable back via [`TelemetryServer::addr`]) and starts the
    /// listener thread serving telemetry for `engine`.
    pub fn start(engine: Arc<ServeEngine>, addr: &str) -> Result<TelemetryServer, ServeError> {
        let server = HttpServer::start(addr, "qdgnn-telemetry", move |path| {
            respond(&engine, path)
        })
        .map_err(|e| ServeError::Telemetry(format!("bind {addr}: {e}")))?;
        Ok(TelemetryServer { server })
    }

    /// The bound address (resolves port `0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Stops the listener: flips the shutdown flag, unblocks the accept
    /// loop with a self-connection, and joins the thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.server.shutdown();
    }
}

/// Builds the response for one routed path.
fn respond(engine: &ServeEngine, path: &str) -> Response {
    match path {
        "/metrics" => {
            // Refresh the serve.stats.* gauges so the exposition agrees
            // with the engine's atomics at scrape time.
            let _ = engine.stats();
            (200, "text/plain; version=0.0.4", qdgnn_obs::snapshot().to_prometheus())
        }
        "/healthz" => {
            let stats = engine.stats();
            let depth = engine.queue_depth();
            let verdict = if stats.degraded { "degraded" } else { "ok" };
            let code = if stats.degraded { 503 } else { 200 };
            let body = format!(
                "{{\"status\":\"{verdict}\",\"degraded\":{},\"queue_depth\":{depth},\
                 \"rejected\":{},\"shed_admission\":{},\"shed_deadline\":{},\
                 \"worker_panics\":{},\"breaker_trips\":{}}}\n",
                stats.degraded,
                stats.rejected,
                stats.shed_admission,
                stats.shed_deadline,
                stats.worker_panics,
                stats.breaker_trips,
            );
            (code, "application/json", body)
        }
        "/traces" => {
            let mut body = String::new();
            for t in engine.exemplars() {
                body.push_str(&t.to_json());
                body.push('\n');
            }
            (200, "application/x-ndjson", body)
        }
        _ => (404, "text/plain", "not found; try /metrics, /healthz or /traces\n".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServeConfig;
    use qdgnn_core::{AqdGnn, CsModel, GraphTensors, ModelConfig, OnlineStage};
    use qdgnn_data::{presets, queries as qgen, AttrMode};
    use qdgnn_graph::attributed::AdjNorm;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn engine() -> (Arc<ServeEngine>, Vec<qdgnn_data::Query>) {
        let data = presets::toy();
        let t = Arc::new(GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100));
        let queries = qgen::generate(&data, 8, 1, 2, AttrMode::FromCommunity, 7);
        let model: Arc<dyn CsModel> = Arc::new(AqdGnn::new(ModelConfig::fast(), t.d));
        let stage = OnlineStage::new_shared(model, t, 0.5);
        let engine = ServeEngine::new(
            stage,
            ServeConfig { max_batch: 4, max_wait_us: 200, ..ServeConfig::default() },
        )
        .expect("engine must start");
        (Arc::new(engine), queries)
    }

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
            .expect("request written");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("response read");
        out
    }

    #[test]
    fn endpoints_serve_health_metrics_and_traces() {
        let (engine, queries) = engine();
        for q in queries.iter().take(3) {
            let _ = engine.query_blocking(q.clone());
        }
        let mut server =
            TelemetryServer::start(Arc::clone(&engine), "127.0.0.1:0").expect("server must start");
        let addr = server.addr();

        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.0 200"), "healthy engine must answer 200: {health}");
        assert!(health.contains("\"status\":\"ok\"") && health.contains("\"queue_depth\":"));
        assert!(health.contains("\"rejected\":0,"), "healthz must report rejections: {health}");

        let traces = get(addr, "/traces");
        assert!(traces.starts_with("HTTP/1.0 200"));
        assert!(
            traces.contains("\"type\":\"request_trace\""),
            "served queries must leave exemplar traces: {traces}"
        );
        assert!(traces.contains("\"outcome\":\"answered\""));

        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.0 200"));
        if qdgnn_obs::enabled() {
            assert!(
                metrics.contains("qdgnn_serve_request"),
                "labeled request series missing from exposition: {metrics}"
            );
        }

        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.0 404"));

        let bad = {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.write_all(b"POST /metrics HTTP/1.0\r\n\r\n").expect("request written");
            let mut out = String::new();
            stream.read_to_string(&mut out).expect("response read");
            out
        };
        assert!(bad.starts_with("HTTP/1.0 400"), "non-GET must be rejected: {bad}");

        server.shutdown();
        server.shutdown(); // idempotent
        engine.shutdown();
    }
}
