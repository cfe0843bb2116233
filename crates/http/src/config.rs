//! Front-end configuration.

/// Everything the HTTP server needs to know, with production-shaped
/// defaults. All byte/connection limits are admission control: worst-case
/// in-flight request memory is
/// `max_connections * (max_head_bytes + max_body_bytes)`.
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Bind address. Port `0` asks the OS for an ephemeral port (the
    /// bound address is reported by
    /// [`HttpServer::local_addr`](crate::HttpServer::local_addr)).
    pub addr: String,
    /// Connections served concurrently; the acceptor answers `503` beyond
    /// this without reading the request.
    pub max_connections: usize,
    /// Maximum request-head bytes (request line + headers) → `431`.
    pub max_head_bytes: usize,
    /// Maximum request-body bytes (`Content-Length`) → `413`.
    pub max_body_bytes: usize,
    /// Maximum events accepted in one `POST /v1/events` batch → `400`.
    pub max_batch_events: usize,
    /// Merged alarms buffered for `GET /v1/alarms` paging before the
    /// oldest are discarded (discards are reported as `dropped`).
    pub alarm_buffer: usize,
    /// Read timeout in milliseconds. It bounds each socket read, so an
    /// idle keep-alive connection is closed when it trips, and each whole
    /// request (head and body), counted from its first byte, so a client
    /// that trickles bytes cannot hold a connection slot. Either way the
    /// connection closes without a response. Slow links that send large
    /// bodies need a larger value.
    pub read_timeout_ms: u64,
}

impl Default for HttpConfig {
    fn default() -> Self {
        HttpConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 64,
            max_head_bytes: 8 * 1024,
            max_body_bytes: 1024 * 1024,
            max_batch_events: 4096,
            alarm_buffer: 65_536,
            read_timeout_ms: 5_000,
        }
    }
}

impl HttpConfig {
    /// Defaults (`127.0.0.1:0`, 64 connections, 1 MiB bodies).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the bind address (`host:port`; port `0` = ephemeral).
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets the concurrent-connection bound (minimum 1).
    pub fn with_max_connections(mut self, n: usize) -> Self {
        self.max_connections = n.max(1);
        self
    }

    /// Sets the request head/body byte caps.
    pub fn with_limits(mut self, max_head_bytes: usize, max_body_bytes: usize) -> Self {
        self.max_head_bytes = max_head_bytes.max(64);
        self.max_body_bytes = max_body_bytes;
        self
    }

    /// Sets the per-request ingest batch cap (minimum 1).
    pub fn with_max_batch_events(mut self, n: usize) -> Self {
        self.max_batch_events = n.max(1);
        self
    }

    /// Sets the alarm paging buffer (minimum 1).
    pub fn with_alarm_buffer(mut self, n: usize) -> Self {
        self.alarm_buffer = n.max(1);
        self
    }

    /// Sets the read timeout, which bounds each socket read and each whole
    /// request (minimum 10 ms; see [`HttpConfig::read_timeout_ms`]).
    pub fn with_read_timeout_ms(mut self, ms: u64) -> Self {
        self.read_timeout_ms = ms.max(10);
        self
    }
}
