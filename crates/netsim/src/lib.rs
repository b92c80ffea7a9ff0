//! A simulated RDMA-style networked key-value service, standing in for the
//! HERD testbed the paper uses for Figure 12.
//!
//! The paper ports every index into HERD, a key-value store that ships
//! batches of requests over a 100 Gb/s InfiniBand link (batch size 800) and
//! serves them on the host CPU. The experiment's point is that with such a
//! fast link the *host-side index cost* still dominates — except when keys
//! are so large (the 1 KB `K10` set) that the wire becomes the bottleneck.
//!
//! This crate reproduces that setup without RDMA hardware:
//!
//! * [`wire`] — a request/response wire format and a [`wire::LinkModel`]
//!   describing bandwidth, latency, and per-message overhead of the link;
//!   the model converts a measured server-side processing rate into the
//!   throughput the client would observe through the link.
//! * [`service`] — an in-process client/server pair connected by channels
//!   that actually encodes requests into buffers, batches them (800 per
//!   message, like the paper), reads them in place on the server thread,
//!   executes them against any index, and ships encoded responses back.
//!   The server parses a whole message before executing it and hoists
//!   every point lookup whose key the message does not write into one
//!   `get_batch_into`, so an 800-request batch becomes pipelined probes
//!   with overlapped cache misses rather than 800 serial descents,
//!   whatever the lookups were interleaved with.
//! * [`server`] — the multi-worker serving layer over the sharded front:
//!   a [`server::ShardServer`] dispatches each parsed message across N
//!   shard-affine worker threads (routing the whole message against one
//!   router-table snapshot via `ShardedWormhole::route_batch`; workers
//!   share the frame, no key is copied), keeps up to eight messages
//!   with the workers, serves streaming scans as stateless
//!   [`wire::WireRequest::Scan`] pages, and reassembles responses in
//!   request order on the same thread that dispatched them. See
//!   `docs/src/adr-003-serving-threading.md` for the threading model and
//!   `docs/src/wire-protocol.md` for the normative framing spec.
//!
//! The two serve loops share one client lifecycle (the service's
//! endpoint), the message decoder and the executor; they differ only in
//! the threads they start.
//!
//! The `figures` harness combines both: it measures real batched-service
//! throughput and applies the link model, so the reported series keeps the
//! paper's shape (small drop for most keysets, wire-limited for `K10`).

//! # Observability
//!
//! The server thread records per-op-type service latency histograms and
//! the decoded batch-size distribution into a [`wh_telemetry::Registry`]
//! the service owns ([`KvService::registry`]); index metrics can be
//! registered into the same registry before serving. The wire protocol
//! carries a [`wire::WireRequest::Stats`] command whose response is the
//! registry's full text exposition — a client can scrape the server
//! in-band, through the same batched request stream as its data traffic.

pub mod server;
pub mod service;
pub mod telemetry;
pub mod wire;

pub use server::{ShardServer, ShardServerMetrics};
pub use service::{KvService, ServiceStats};
pub use telemetry::ServiceMetrics;
pub use wire::{LinkModel, PairsRef, WireRequest, WireRequestRef, WireResponse, WireResponseRef};
