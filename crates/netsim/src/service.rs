//! An in-process batched key-value service: client and server threads
//! exchanging encoded request/response batches over channels, mimicking
//! HERD's request loop.
//!
//! Three pieces here are shared with the multi-worker
//! [`ShardServer`](crate::ShardServer), so each exists once:
//! `decode_message` (wire bytes → requests), `execute` (requests →
//! encoded responses) and `drive_client` (the pipelined client). What is
//! [`KvService`]'s own is one server thread over *any* index.
//!
//! `execute` runs every run of consecutive point lookups through the
//! index's [`get_batch`](index_traits::ConcurrentOrderedIndex::get_batch)
//! so the pipelined probe engine can overlap their cache misses; writes
//! and range scans are executed individually in arrival order, so the
//! response stream is byte-for-byte equivalent to serial per-request
//! execution.

use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use bytes::{Bytes, BytesMut};
use crossbeam::channel::{bounded, Receiver, Sender};
use index_traits::ConcurrentOrderedIndex;
use wh_telemetry::Registry;

use crate::telemetry::ServiceMetrics;
use crate::wire::{WireRequest, WireResponse};

/// One batch of encoded requests travelling client → server.
pub(crate) struct RequestBatch {
    pub(crate) payload: Bytes,
    /// Number of requests in the batch.
    pub(crate) count: usize,
}

/// One batch of encoded responses travelling server → client.
pub(crate) struct ResponseBatch {
    pub(crate) payload: Bytes,
}

/// Throughput accounting returned by [`KvService::run_lookups`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceStats {
    /// Requests completed.
    pub operations: usize,
    /// Wall-clock seconds spent (client-side, send to last response).
    pub seconds: f64,
    /// Total request payload bytes sent.
    pub request_bytes: usize,
    /// Total response payload bytes received.
    pub response_bytes: usize,
    /// Number of responses that carried a value (hits).
    pub hits: usize,
}

impl ServiceStats {
    /// Millions of operations per second observed by the client.
    pub fn mops(&self) -> f64 {
        self.operations as f64 / self.seconds / 1e6
    }

    /// Average request size in bytes.
    pub fn avg_request_bytes(&self) -> f64 {
        self.request_bytes as f64 / self.operations.max(1) as f64
    }

    /// Average response size in bytes.
    pub fn avg_response_bytes(&self) -> f64 {
        self.response_bytes as f64 / self.operations.max(1) as f64
    }
}

/// Decodes one message and counts it: the first step of every server.
pub(crate) fn decode_message(batch: RequestBatch, metrics: &ServiceMetrics) -> Vec<WireRequest> {
    let mut payload = batch.payload;
    let mut requests = Vec::with_capacity(batch.count);
    while let Some(req) = WireRequest::decode(&mut payload) {
        requests.push(req);
    }
    metrics.requests.add(requests.len() as u64);
    metrics.batch_requests.record(requests.len() as u64);
    requests
}

/// The response to a point op: the value found (for a `Set`, replaced).
fn value_or_miss(value: Option<u64>) -> WireResponse {
    value.map_or(WireResponse::Miss, WireResponse::Value)
}

/// Executes decoded requests against `index` in slice order and returns
/// the encoded responses plus the end offset of each response in them.
///
/// Runs of consecutive point lookups go through `get_batch` so the index
/// can overlap their cache misses; everything else executes individually
/// in place, preserving response order. Generic rather than `dyn` so the
/// [`ShardServer`](crate::ShardServer) workers stay monomorphised over
/// the sharded front; [`KvService`] passes its `dyn` index.
pub(crate) fn execute<I>(
    index: &I,
    requests: &[WireRequest],
    registry: &Registry,
    metrics: &ServiceMetrics,
) -> (Bytes, Vec<usize>)
where
    I: ConcurrentOrderedIndex<u64> + ?Sized,
{
    let mut out = BytesMut::with_capacity(requests.len() * 16);
    let mut ends = Vec::with_capacity(requests.len());
    let mut i = 0usize;
    while i < requests.len() {
        match &requests[i] {
            WireRequest::Get { .. } => {
                let run_end = requests[i..]
                    .iter()
                    .position(|r| !matches!(r, WireRequest::Get { .. }))
                    .map_or(requests.len(), |off| i + off);
                let keys: Vec<&[u8]> = requests[i..run_end]
                    .iter()
                    .map(|r| match r {
                        WireRequest::Get { key } => key.as_slice(),
                        _ => unreachable!("run contains only gets"),
                    })
                    .collect();
                let timing = wh_telemetry::start_timing();
                let values = index.get_batch(&keys);
                if let Some(started) = timing {
                    // The run executed together: each of its ops is
                    // charged an equal share of the run's time.
                    let n = keys.len() as u64;
                    metrics
                        .get_ns
                        .record_n(started.elapsed().as_nanos() as u64 / n, n);
                }
                for value in values {
                    value_or_miss(value).encode(&mut out);
                    ends.push(out.len());
                }
                i = run_end;
                continue;
            }
            WireRequest::Set { key, value } => {
                let timing = wh_telemetry::start_timing();
                let resp = value_or_miss(index.set(key, *value));
                metrics.set_ns.record_elapsed(timing);
                resp.encode(&mut out);
            }
            WireRequest::Range { start, count } => {
                let timing = wh_telemetry::start_timing();
                let resp = WireResponse::Range(index.range_from(start, *count as usize));
                metrics.range_ns.record_elapsed(timing);
                resp.encode(&mut out);
            }
            WireRequest::Scan { start, limit } => {
                let timing = wh_telemetry::start_timing();
                let page = index.scan_page(start, *limit as usize);
                metrics.scan_ns.record_elapsed(timing);
                WireResponse::ScanPage {
                    items: page.items,
                    resume: page.resume,
                }
                .encode(&mut out);
            }
            WireRequest::Stats => {
                metrics.stats_requests.inc();
                WireResponse::Stats(registry.snapshot().render()).encode(&mut out);
            }
        }
        ends.push(out.len());
        i += 1;
    }
    (out.freeze(), ends)
}

/// The client half of a run: encodes `requests` in messages of
/// `batch_size`, keeps a small pipeline of them in flight (as HERD does,
/// and so a multi-stage server's stages overlap), decodes the responses
/// and hands each to `on_resp` in request order. Takes the sender so that
/// returning hangs up, which is what stops the server.
///
/// The server answers messages in arrival order, so the front of the
/// in-flight queue is always the one the next response completes. Each
/// response batch records its full round trip (encode, queue, execute,
/// decode) into `client_rtt_ns`, once per request it carried — the
/// client-observed latency distribution.
pub(crate) fn drive_client(
    req_tx: Sender<RequestBatch>,
    resp_rx: &Receiver<ResponseBatch>,
    requests: &[WireRequest],
    batch_size: usize,
    metrics: &ServiceMetrics,
    mut on_resp: impl FnMut(&WireResponse),
) -> ServiceStats {
    let start = Instant::now();
    let mut stats = ServiceStats {
        operations: 0,
        seconds: 0.0,
        request_bytes: 0,
        response_bytes: 0,
        hits: 0,
    };
    let mut in_flight: VecDeque<Option<Instant>> = VecDeque::new();
    let mut drain = |stats: &mut ServiceStats, in_flight: &mut VecDeque<Option<Instant>>| {
        let batch = resp_rx.recv().expect("server alive");
        stats.response_bytes += batch.payload.len();
        let mut payload = batch.payload;
        let mut count = 0u64;
        while let Some(resp) = WireResponse::decode(&mut payload) {
            if !matches!(resp, WireResponse::Miss) {
                stats.hits += 1;
            }
            stats.operations += 1;
            count += 1;
            on_resp(&resp);
        }
        let sent = in_flight.pop_front().expect("a response implies a send");
        if let Some(sent) = sent {
            metrics
                .client_rtt_ns
                .record_n(sent.elapsed().as_nanos() as u64, count);
        }
    };
    for chunk in requests.chunks(batch_size) {
        let mut buf = BytesMut::with_capacity(chunk.len() * 32);
        for req in chunk {
            req.encode(&mut buf);
        }
        stats.request_bytes += buf.len();
        in_flight.push_back(wh_telemetry::start_timing());
        req_tx
            .send(RequestBatch {
                payload: buf.freeze(),
                count: chunk.len(),
            })
            .expect("server alive");
        if in_flight.len() >= 8 {
            drain(&mut stats, &mut in_flight);
        }
    }
    while !in_flight.is_empty() {
        drain(&mut stats, &mut in_flight);
    }
    stats.seconds = start.elapsed().as_secs_f64().max(1e-9);
    stats
}

/// A batched key-value service over an index.
///
/// The server thread owns a reference to a [`ConcurrentOrderedIndex`] and
/// processes one encoded batch at a time; the client encodes requests,
/// batches them, and decodes responses — the same division of labour as the
/// HERD port used in the paper.
pub struct KvService<V: Clone + Send + Sync + 'static> {
    index: Arc<dyn ConcurrentOrderedIndex<V>>,
    batch_size: usize,
    registry: Arc<Registry>,
    metrics: ServiceMetrics,
}

impl KvService<u64> {
    /// Creates a service over the given index with the paper's batch size of
    /// 800 requests per message.
    pub fn new(index: Arc<dyn ConcurrentOrderedIndex<u64>>) -> Self {
        Self::with_batch_size(index, 800)
    }

    /// Creates a service with an explicit batch size.
    pub fn with_batch_size(index: Arc<dyn ConcurrentOrderedIndex<u64>>, batch_size: usize) -> Self {
        assert!(batch_size > 0);
        let registry = Arc::new(Registry::new());
        let metrics = ServiceMetrics::default();
        metrics.register_into(&registry, "netsim");
        Self {
            index,
            batch_size,
            registry,
            metrics,
        }
    }

    /// The metrics registry the [`WireRequest::Stats`] command renders.
    /// Register index-side metrics here before serving to make them
    /// scrapeable over the wire.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The service's own metrics cells (also registered in
    /// [`registry`](KvService::registry) under `netsim_…` names).
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// Spawns the server loop, returning the request sender, the response
    /// receiver, and the join handle.
    fn spawn_server(
        &self,
    ) -> (
        Sender<RequestBatch>,
        Receiver<ResponseBatch>,
        JoinHandle<()>,
    ) {
        let (req_tx, req_rx) = bounded::<RequestBatch>(16);
        let (resp_tx, resp_rx) = bounded::<ResponseBatch>(16);
        let index = Arc::clone(&self.index);
        let registry = Arc::clone(&self.registry);
        let metrics = self.metrics.clone();
        let handle = std::thread::spawn(move || {
            while let Ok(batch) = req_rx.recv() {
                let requests = decode_message(batch, &metrics);
                let (payload, _ends) = execute(&*index, &requests, &registry, &metrics);
                if resp_tx.send(ResponseBatch { payload }).is_err() {
                    break;
                }
            }
        });
        (req_tx, resp_rx, handle)
    }

    /// Runs a stream of requests through the service and reports client-side
    /// statistics.
    pub fn run(&self, requests: &[WireRequest]) -> ServiceStats {
        self.run_with(requests, |_| {})
    }

    /// Like [`KvService::run`], but also returns every decoded response in
    /// request order — the hook differential tests use to compare the
    /// served stream against in-process execution.
    pub fn run_collect(&self, requests: &[WireRequest]) -> (ServiceStats, Vec<WireResponse>) {
        let mut responses = Vec::with_capacity(requests.len());
        let stats = self.run_with(requests, |resp| responses.push(resp.clone()));
        (stats, responses)
    }

    fn run_with(
        &self,
        requests: &[WireRequest],
        on_resp: impl FnMut(&WireResponse),
    ) -> ServiceStats {
        let (req_tx, resp_rx, handle) = self.spawn_server();
        let stats = drive_client(
            req_tx,
            &resp_rx,
            requests,
            self.batch_size,
            &self.metrics,
            on_resp,
        );
        handle.join().expect("server thread");
        stats
    }

    /// Scrapes the server over the wire: sends one [`WireRequest::Stats`]
    /// and returns the decoded text exposition.
    pub fn fetch_stats(&self) -> String {
        let (_, responses) = self.run_collect(&[WireRequest::Stats]);
        match responses.into_iter().next() {
            Some(WireResponse::Stats(text)) => text,
            other => panic!("expected a Stats response, got {other:?}"),
        }
    }

    /// Convenience wrapper: runs point lookups for the given keys.
    pub fn run_lookups(&self, keys: &[Vec<u8>]) -> ServiceStats {
        let requests: Vec<WireRequest> = keys
            .iter()
            .map(|k| WireRequest::Get { key: k.clone() })
            .collect();
        self.run(&requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormhole::Wormhole;

    fn loaded_index(n: usize) -> Arc<Wormhole<u64>> {
        let wh = Wormhole::new();
        for i in 0..n as u64 {
            wh.set(format!("key-{i:08}").as_bytes(), i);
        }
        Arc::new(wh)
    }

    #[test]
    fn lookups_round_trip_through_the_service() {
        let index = loaded_index(5000);
        let service = KvService::with_batch_size(index, 100);
        let keys: Vec<Vec<u8>> = (0..2000u64)
            .map(|i| format!("key-{:08}", i * 3 % 5000).into_bytes())
            .collect();
        let stats = service.run_lookups(&keys);
        assert_eq!(stats.operations, 2000);
        assert_eq!(stats.hits, 2000);
        assert!(stats.seconds > 0.0);
        assert!(stats.avg_request_bytes() > 12.0);
        assert!(stats.mops() > 0.0);
    }

    #[test]
    fn misses_and_writes_are_reported() {
        let index = loaded_index(100);
        let service = KvService::with_batch_size(index.clone(), 32);
        let requests = vec![
            WireRequest::Get {
                key: b"key-00000001".to_vec(),
            },
            WireRequest::Get {
                key: b"absent".to_vec(),
            },
            WireRequest::Set {
                key: b"fresh".to_vec(),
                value: 9,
            },
            WireRequest::Get {
                key: b"fresh".to_vec(),
            },
            WireRequest::Range {
                start: b"key-00000090".to_vec(),
                count: 5,
            },
        ];
        let stats = service.run(&requests);
        assert_eq!(stats.operations, 5);
        // Hits: the first get, the get of "fresh", and the range response.
        assert_eq!(stats.hits, 3);
        // The write really landed in the index.
        use index_traits::ConcurrentOrderedIndex;
        assert_eq!(index.get(b"fresh"), Some(9));
    }

    #[test]
    fn get_runs_split_around_writes_and_observe_them_in_order() {
        // Gets after a Set in the same batch must see its effect: if the
        // server hoisted all lookups into one batched run it would answer
        // the later gets from the pre-write state and the hit count drops.
        let index = loaded_index(10);
        let service = KvService::with_batch_size(index, 800);
        let requests = vec![
            WireRequest::Get {
                key: b"fresh".to_vec(),
            },
            WireRequest::Set {
                key: b"fresh".to_vec(),
                value: 1,
            },
            WireRequest::Get {
                key: b"fresh".to_vec(),
            },
            WireRequest::Get {
                key: b"absent".to_vec(),
            },
            WireRequest::Set {
                key: b"fresh".to_vec(),
                value: 2,
            },
            WireRequest::Get {
                key: b"fresh".to_vec(),
            },
        ];
        let stats = service.run(&requests);
        assert_eq!(stats.operations, 6);
        // Hits: the get after the first set, the second set's old value, and
        // the final get. The leading get and the "absent" probe miss.
        assert_eq!(stats.hits, 3);
    }

    #[test]
    fn stats_round_trips_and_reports_service_metrics() {
        let index = loaded_index(500);
        let service = KvService::with_batch_size(index, 64);
        let keys: Vec<Vec<u8>> = (0..300u64)
            .map(|i| format!("key-{i:08}").into_bytes())
            .collect();
        service.run_lookups(&keys);
        service.run(&[
            WireRequest::Set {
                key: b"fresh".to_vec(),
                value: 1,
            },
            WireRequest::Range {
                start: b"key".to_vec(),
                count: 4,
            },
        ]);
        // A Stats request mixed into an ordinary batch round-trips and
        // counts as one operation (a hit: the response carries data).
        let stats = service.run(&[
            WireRequest::Get {
                key: b"key-00000001".to_vec(),
            },
            WireRequest::Stats,
        ]);
        assert_eq!(stats.operations, 2);
        assert_eq!(stats.hits, 2);
        let text = service.fetch_stats();
        assert!(text.contains("netsim_requests_total"));
        assert!(text.contains("netsim_batch_requests"));
        let m = service.metrics();
        // 300 lookups + set + range + get + stats, plus the fetch above.
        assert_eq!(m.requests.get(), 305);
        assert_eq!(m.stats_requests.get(), 2);
        // Histograms vanish under `telemetry-off`; the counters above stay.
        if wh_telemetry::enabled() {
            assert_eq!(m.get_ns.snapshot().count(), 301);
            assert_eq!(m.set_ns.snapshot().count(), 1);
            assert_eq!(m.range_ns.snapshot().count(), 1);
            // Batches: ceil(300/64)=5 lookup batches + 1 + 1 + 1 scrape.
            assert_eq!(m.batch_requests.snapshot().count(), 8);
        }
        service.registry().lint().expect("well-formed metric names");
    }

    #[cfg(not(feature = "telemetry-off"))]
    #[test]
    fn a_get_run_is_charged_once_not_once_per_key() {
        // One message of 64 Gets is one `get_batch` run: `get_ns` must hold
        // 64 observations that together add up to the run's time, not 64
        // copies of it. The wall time around the whole `run` bounds the sum.
        let index = loaded_index(5000);
        let service = KvService::with_batch_size(index, 64);
        let keys: Vec<Vec<u8>> = (0..64u64)
            .map(|i| format!("key-{:08}", i * 71 % 5000).into_bytes())
            .collect();
        let wall = Instant::now();
        let stats = service.run_lookups(&keys);
        let wall_ns = wall.elapsed().as_nanos() as u64;
        assert_eq!(stats.hits, 64);
        let get_ns = service.metrics().get_ns.snapshot();
        assert_eq!(get_ns.count(), 64);
        assert!(
            get_ns.sum <= wall_ns,
            "64 gets charged {} ns inside a run that took {wall_ns} ns",
            get_ns.sum
        );
    }

    #[test]
    fn batching_splits_large_request_streams() {
        let index = loaded_index(1000);
        let service = KvService::with_batch_size(index, 800);
        let keys: Vec<Vec<u8>> = (0..3000u64)
            .map(|i| format!("key-{:08}", i % 1000).into_bytes())
            .collect();
        let stats = service.run_lookups(&keys);
        assert_eq!(stats.operations, 3000);
        assert_eq!(stats.hits, 3000);
    }
}
