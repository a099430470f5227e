//! # sim-server — the dependency-free experiment service kernel
//!
//! The reproduction's sweeps are built from *cells* — fully-specified
//! experiment points (benchmark × version × precision × scale × device
//! config × fault seed × simulator version) whose results are
//! deterministic functions of the spec. That makes the cell the natural
//! unit of reuse: this crate turns the one-shot CLI simulator into
//! serving infrastructure by giving cells a stable content address and
//! building a cache, a scheduler and an HTTP surface around it.
//!
//! The crate is deliberately *domain-light*: it knows what a cell spec
//! looks like on the wire ([`key::CellSpec`]) but treats results as
//! opaque encoded payloads. The `harness` crate wires in the actual
//! simulator (its checkpoint codec encodes/decodes payloads, its runner
//! evaluates batches on `sim-pool`) and mounts the endpoints; see
//! `harness::serve` and `DESIGN.md` §12.
//!
//! Layers, bottom-up:
//!
//! * [`key`] — canonical cell specs, the stable [`key::CellKey`] hash,
//!   and the shared token codec (escaping, float bit-patterns) that the
//!   harness cell payloads are written in.
//! * [`json`] — a bounded, exact-integer JSON parser for request bodies.
//! * [`http`] — minimal HTTP/1.1 server (a non-blocking reactor thread
//!   plus a fixed worker pool with priority lanes, keep-alive on
//!   request) and a client that pools keep-alive connections.
//! * [`cache`] — content-addressed LRU with deterministic `simcache v1`
//!   snapshots, the one on-disk cell format (also `harness --state`).
//! * [`scheduler`] — a single dispatcher that coalesces duplicate
//!   in-flight cells, batches distinct ones, and bounds the queue with
//!   explicit backpressure.
//! * [`metrics`] — counters and per-stage latency histograms as a
//!   Prometheus-style text page, with exact cross-shard aggregation.
//! * [`reqtrace`] — 16-hex trace ids propagated via `X-Sim-Trace-Id`,
//!   deterministic 1-in-N sampling, per-request Perfetto traces and a
//!   structured request log.
//!
//! Everything is std-only, per the workspace's offline policy.

pub mod breaker;
pub mod cache;
pub mod http;
pub mod json;
pub mod key;
pub mod metrics;
pub mod reqtrace;
pub mod retry;
pub mod router;
pub mod scheduler;

/// Best-effort text of a caught panic payload (`String` / `&str` panics;
/// anything else gets a placeholder). Shared by the HTTP handler guard
/// and the scheduler's batch-evaluation guard.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("non-string panic payload")
}

pub use breaker::{Breaker, BreakerState, Decision};
pub use cache::{Cache, CacheStats, CachedCell, Payload};
pub use http::{classify_lane, LaneMetrics, LaneSnapshot, Request, Response, Server, StopHandle};
pub use json::Json;
pub use key::{CellKey, CellSpec, KEY_SCHEMA_VERSION};
pub use metrics::Metrics;
pub use reqtrace::{RequestRecord, TraceConfig, TraceId, Tracer, TRACE_HEADER};
pub use retry::{RetryPolicy, DEFAULT_RETRY_AFTER_SECS};
pub use router::Ring;
pub use scheduler::{
    Abandoned, AdmitError, Lane, Scheduler, SchedulerStats, Slot, SlotTiming, AGING_ROUNDS,
};
