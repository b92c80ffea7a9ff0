//! Telemetry for the simulated service: per-op-type service latency (how
//! long a server thread spent executing each decoded operation, with a
//! hoisted lookup batch's duration divided equally among the Gets in it),
//! the server's own account of its execution plan (Gets hoisted, Gets left
//! in place, keys per batch), the distribution of decoded batch sizes, and
//! request counters.
//!
//! The service owns a [`Registry`](wh_telemetry::Registry) these register
//! into; callers can add their index's metrics to the same registry before
//! serving, and the [`WireRequest::Stats`](crate::WireRequest::Stats)
//! command renders the whole thing over the wire.

use wh_telemetry::{Counter, Histogram};

wh_telemetry::metrics! {
    /// Server-side metrics for one [`KvService`](crate::KvService) or
    /// [`ShardServer`](crate::ShardServer).
    pub struct ServiceMetrics {
        /// Requests decoded and executed (all op types).
        pub requests: Counter,
        /// `Stats` probes answered.
        pub stats_requests: Counter,
        /// Request frames whose tail did not parse (truncated, corrupted,
        /// unknown tag). The requests in front of the tail were still served.
        pub malformed_frames: Counter,
        /// Gets a server thread moved to the front of its share of a message
        /// and answered through one `get_batch_into`.
        pub gets_hoisted: Counter,
        /// Gets answered where they stood, through single-key `get`, because
        /// a `Set` in the same share writes their key (or a key with the same
        /// hash).
        pub gets_in_place: Counter,
        /// Keys per hoisted batch: one observation per share that had any.
        pub get_batch_len: Histogram,
        /// Service time per point lookup: a batch of `n` hoisted Gets records
        /// `n` observations of the batch's duration divided by `n`, a Get left
        /// in place its own, so the sum is the time spent on lookups.
        pub get_ns: Histogram,
        /// Service time per write.
        pub set_ns: Histogram,
        /// Service time per range scan: the cursor drain and the
        /// response's encoding, which stream together.
        pub range_ns: Histogram,
        /// Service time per streaming-scan page
        /// ([`WireRequest::Scan`](crate::WireRequest::Scan)): the cursor
        /// drain and the page's encoding, which stream together.
        pub scan_ns: Histogram,
        /// Requests per decoded message (the wire batch-size distribution).
        pub batch_requests: Histogram,
        /// Client-observed latency per request: each request/response batch's
        /// full round trip (encode, queue, server execution, decode) recorded
        /// once per request it carried. The tail of this distribution — not
        /// the server-side service time — is what a real client experiences.
        pub client_rtt_ns: Histogram,
    }
}
