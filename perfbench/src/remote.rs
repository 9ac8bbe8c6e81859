//! A source behind the serving tier, and the client that reaches it.

use crate::trace;
use gsview_serve::{FrameClient, ServeConfig, Server, ServerHandle, SourceService};
use gsview_warehouse::protocol::{CostMeter, QueryFault, SourceQuery, SourceReply};
use gsview_warehouse::{QueryPort, Source};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A running server for one source, plus one connected client.
pub struct Served {
    /// The server-side meter: `SourceService` charges every query here.
    pub meter: Arc<CostMeter>,
    /// The client connection.
    pub client: Arc<FrameClient>,
    // Dropped last: stops the reactor thread and waits for it.
    _server: ServerHandle,
}

/// Spawn a `Server` for `src` and connect a `FrameClient` to it.
pub fn serve(src: &Source) -> Result<Served, String> {
    let meter = Arc::new(CostMeter::new());
    let svc = Arc::new(SourceService::new(src.clone(), Arc::clone(&meter)));
    let server = Server::spawn(svc, ServeConfig::default()).map_err(|e| e.to_string())?;
    let client = FrameClient::connect(server.addr()).map_err(|e| e.to_string())?;
    Ok(Served {
        meter,
        client: Arc::new(client),
        _server: server,
    })
}

/// The query port handed to the warehouse: the `FrameClient`, with
/// every query-back timed in a `serve.queryback` span and counted.
pub struct TimedPort {
    inner: Arc<FrameClient>,
    calls: AtomicU64,
    faults: AtomicU64,
}

impl TimedPort {
    /// Wrap `inner`.
    pub fn new(inner: Arc<FrameClient>) -> TimedPort {
        TimedPort {
            inner,
            calls: AtomicU64::new(0),
            faults: AtomicU64::new(0),
        }
    }

    /// Query-backs sent so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Query-backs that failed so far.
    pub fn faults(&self) -> u64 {
        self.faults.load(Ordering::Relaxed)
    }
}

impl QueryPort for TimedPort {
    fn query(&self, q: &SourceQuery) -> Result<SourceReply, QueryFault> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let reply = trace::span("serve.queryback", || self.inner.query(q));
        if reply.is_err() {
            self.faults.fetch_add(1, Ordering::Relaxed);
        }
        reply
    }
}
