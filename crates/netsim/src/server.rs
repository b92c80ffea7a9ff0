//! The multi-worker batched serving layer over the sharded front: a
//! [`ShardServer`] turns one `ShardedWormhole` into a pipelined
//! request/response service with shard-affine execution threads.
//!
//! # Threading model
//!
//! Three stages run as threads connected by bounded channels, so the
//! parse, execute, and reassemble work of *successive* messages overlaps
//! (while workers execute message `n`, the dispatcher is already parsing
//! and routing `n + 1`, and the collector is shipping `n - 1`):
//!
//! ```text
//! client ──► dispatcher ──► worker 0..N ──► collector ──► client
//!             (parse,         (plan, execute, (reassemble
//!              route_batch)    encode)         in slot order)
//! ```
//!
//! * The **dispatcher** parses each incoming frame in place into request
//!   records and routes *every* request in it against a single
//!   router-table snapshot ([`ShardedWormhole::route_batch`] — one router
//!   protection span for the whole message, the same discipline as the
//!   index's own `get_batch`), then splits the records into per-worker
//!   shares; each goes out with a handle on the one shared frame, so no
//!   key is copied between the wire and the index. Shards map to workers
//!   contiguously (`worker = shard * workers / shards`), so each worker's
//!   working set stays range-local.
//! * Each **worker** executes its share through the executor it shares
//!   with [`KvService`](crate::KvService): a two-pass plan that hoists
//!   every Get whose key the share does not write into one
//!   `get_batch_into`, then answers the slots in order (see the
//!   [`service`](crate::service) module docs), encoding responses into
//!   one buffer with per-item end offsets.
//! * The **collector** receives the dispatcher's slot→worker assignment
//!   and each participating worker's buffer, and reassembles the response
//!   message by walking the slots in order — each worker's slots ascend,
//!   so reassembly is a sequential cursor per worker, no sorting.
//!
//! # Ordering and correctness under migration
//!
//! The dispatcher's routing is **advisory** — pure affinity. Workers
//! execute through the public `ShardedWormhole` API, which re-routes
//! every operation inside its own router protection span, so a boundary
//! migration between dispatch and execution can never send an operation
//! to the wrong shard.
//!
//! The consistency contract is **per-key program order**: all operations
//! on one key in one client stream execute in client order. Within a
//! message this holds because all slots were routed against one table
//! snapshot — equal keys route equally and land on the same worker — and
//! that worker moves a Get ahead of its slot only when no Set of its
//! share writes the Get's key; every Set, and every Get on a written key,
//! executes at its slot. Across messages it holds because a worker takes
//! messages in order, the shard→worker map is a pure function of the
//! routing epoch, and when [`ShardedWormhole::route_batch`] reports a
//! *new* epoch the dispatcher **flushes the pipeline** (waits for every
//! in-flight message to complete) before dispatching under the new map —
//! counted by [`ShardServerMetrics::epoch_flushes`]. Operations on
//! *different* keys in one stream may execute out of order, across
//! workers and within one; multi-key reads (`Range`, `Scan`) are
//! concurrent snapshots, ordered only against the Sets and multi-key
//! reads of same-worker neighbours. See
//! `docs/src/adr-003-serving-threading.md` for the full argument.

use std::sync::Arc;
use std::thread::JoinHandle;

use bytes::{BufMut, Bytes, BytesMut};
use crossbeam::channel::{bounded, Receiver, Sender};
use wh_shard::ShardedWormhole;
use wh_telemetry::{Counter, Histogram, Registry};

use crate::service::{
    decode_message, drive_client, Executor, RequestBatch, ResponseBatch, ServiceStats,
};
use crate::telemetry::ServiceMetrics;
use crate::wire::{RequestRecord, WireRequest, WireResponse, WireResponseRef};

/// One worker's share of a parsed message, in slot order (the collector
/// knows which slots they are from the [`Assignment`]): its records and
/// a handle on the frame they point into. Every worker of a message
/// shares the one frame; no key is copied out of it.
struct WorkBatch {
    seq: u64,
    frame: Bytes,
    records: Vec<RequestRecord>,
}

/// One worker's encoded output for one message: `ends[j]` is the end
/// offset of item `j`'s response in `payload` (item `j` of the worker's
/// [`WorkBatch`], not of the whole message).
struct WorkOutput {
    seq: u64,
    payload: Bytes,
    ends: Vec<usize>,
}

/// The dispatcher's reassembly directions for one message: which worker
/// owns each slot.
struct Assignment {
    seq: u64,
    worker_of_slot: Vec<usize>,
}

wh_telemetry::metrics! {
    /// Serving-layer metrics beyond the per-op [`ServiceMetrics`].
    pub struct ShardServerMetrics {
        /// Time the dispatcher spent routing one message's keys (one
        /// `route_batch` call — a single router protection span).
        pub dispatch_route_ns: Histogram,
        /// Pipeline flushes forced by a router-epoch change: the dispatcher
        /// saw new boundaries while messages were still in flight and waited
        /// them out before dispatching under the new shard→worker map.
        pub epoch_flushes: Counter,
        /// Items per per-worker sub-batch (the dispatch fan-out distribution).
        pub worker_items: Histogram,
    }
}

/// A batched serving layer over a [`ShardedWormhole`]: N shard-affine
/// worker threads behind a routing dispatcher and a reassembling
/// collector. See the [module docs](self) for the threading model and the
/// ordering contract.
pub struct ShardServer {
    index: Arc<ShardedWormhole<u64>>,
    workers: usize,
    batch_size: usize,
    registry: Arc<Registry>,
    metrics: ServiceMetrics,
    server_metrics: ShardServerMetrics,
}

impl ShardServer {
    /// Creates a serving layer with the paper's batch size of 800 requests
    /// per message. `workers` is the number of execution threads.
    pub fn new(index: Arc<ShardedWormhole<u64>>, workers: usize) -> Self {
        Self::with_batch_size(index, workers, 800)
    }

    /// Creates a serving layer with an explicit wire batch size.
    ///
    /// The index's own metrics (router path counters, migration progress,
    /// per-shard op counters) are registered into the server's registry
    /// under `shard_…` names, so a wire-level [`WireRequest::Stats`] probe
    /// exposes the whole serving stack.
    pub fn with_batch_size(
        index: Arc<ShardedWormhole<u64>>,
        workers: usize,
        batch_size: usize,
    ) -> Self {
        assert!(workers > 0);
        assert!(batch_size > 0);
        let registry = Arc::new(Registry::new());
        let metrics = ServiceMetrics::default();
        metrics.register_into(&registry, "netsim");
        let server_metrics = ShardServerMetrics::default();
        server_metrics.register_into(&registry, "netsim_server");
        index.register_metrics(&registry, "shard");
        Self {
            index,
            workers,
            batch_size,
            registry,
            metrics,
            server_metrics,
        }
    }

    /// The served index.
    pub fn index(&self) -> &Arc<ShardedWormhole<u64>> {
        &self.index
    }

    /// The metrics registry the [`WireRequest::Stats`] command renders.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Per-op service metrics (shared cells with the worker threads).
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// Serving-layer metrics (dispatch routing time, epoch flushes).
    pub fn server_metrics(&self) -> &ShardServerMetrics {
        &self.server_metrics
    }

    /// Spawns the dispatcher, the workers, and the collector; returns the
    /// request sender, the response receiver, and every join handle.
    fn spawn(
        &self,
    ) -> (
        Sender<RequestBatch>,
        Receiver<ResponseBatch>,
        Vec<JoinHandle<()>>,
    ) {
        let workers = self.workers;
        let shard_count = self.index.shard_count();
        let (req_tx, req_rx) = bounded::<RequestBatch>(16);
        let (resp_tx, resp_rx) = bounded::<ResponseBatch>(16);
        let (assign_tx, assign_rx) = bounded::<Assignment>(64);
        // Completion tokens collector → dispatcher, read eagerly each
        // dispatch and drained fully on an epoch flush. Sized above the
        // maximum number of in-flight messages (client pipeline depth +
        // request-channel capacity) so the collector never blocks on it.
        let (completed_tx, completed_rx) = bounded::<u64>(256);
        let mut work_txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers + 2);
        let mut out_rxs = Vec::with_capacity(workers);

        for _ in 0..workers {
            let (work_tx, work_rx) = bounded::<WorkBatch>(16);
            let (out_tx, out_rx) = bounded::<WorkOutput>(16);
            work_txs.push(work_tx);
            out_rxs.push(out_rx);
            let index = Arc::clone(&self.index);
            let registry = Arc::clone(&self.registry);
            let metrics = self.metrics.clone();
            handles.push(std::thread::spawn(move || {
                worker_loop(&work_rx, &out_tx, &index, &registry, &metrics);
            }));
        }

        {
            let index = Arc::clone(&self.index);
            let metrics = self.metrics.clone();
            let server_metrics = self.server_metrics.clone();
            handles.push(std::thread::spawn(move || {
                dispatcher_loop(
                    &req_rx,
                    &work_txs,
                    &assign_tx,
                    &completed_rx,
                    &index,
                    shard_count,
                    &metrics,
                    &server_metrics,
                );
            }));
        }

        handles.push(std::thread::spawn(move || {
            collector_loop(&assign_rx, &out_rxs, &resp_tx, &completed_tx);
        }));

        (req_tx, resp_rx, handles)
    }

    /// Runs a stream of requests through the serving layer and reports
    /// client-side statistics. Client-observed round-trip latency lands in
    /// [`ServiceMetrics::client_rtt_ns`], once per request.
    pub fn run(&self, requests: &[WireRequest]) -> ServiceStats {
        self.run_with(requests, |_| {})
    }

    /// Like [`ShardServer::run`], but also returns every decoded response
    /// in request order.
    pub fn run_collect(&self, requests: &[WireRequest]) -> (ServiceStats, Vec<WireResponse>) {
        let mut responses = Vec::with_capacity(requests.len());
        let stats = self.run_with(requests, |resp| responses.push(resp.to_owned()));
        (stats, responses)
    }

    fn run_with(
        &self,
        requests: &[WireRequest],
        on_resp: impl FnMut(WireResponseRef<'_>),
    ) -> ServiceStats {
        let (req_tx, resp_rx, handles) = self.spawn();
        let stats = drive_client(
            req_tx,
            &resp_rx,
            requests,
            self.batch_size,
            &self.metrics,
            on_resp,
        );
        for handle in handles {
            handle.join().expect("serving thread");
        }
        stats
    }

    /// Convenience wrapper: runs point lookups for the given keys.
    pub fn run_lookups(&self, keys: &[Vec<u8>]) -> ServiceStats {
        let requests: Vec<WireRequest> = keys
            .iter()
            .map(|k| WireRequest::Get { key: k.clone() })
            .collect();
        self.run(&requests)
    }

    /// Scrapes the serving stack over the wire: one [`WireRequest::Stats`]
    /// round trip, returning the decoded text exposition.
    pub fn fetch_stats(&self) -> String {
        let (_, responses) = self.run_collect(&[WireRequest::Stats]);
        match responses.into_iter().next() {
            Some(WireResponse::Stats(text)) => text,
            other => panic!("expected a Stats response, got {other:?}"),
        }
    }

    /// Drains a whole streaming scan over the wire: issues
    /// [`WireRequest::Scan`] pages of `page_limit` pairs, following each
    /// response's resume key, until the server reports exhaustion.
    pub fn scan_all(&self, start: &[u8], page_limit: u32) -> Vec<(Vec<u8>, u64)> {
        let mut all = Vec::new();
        let mut next = Some(start.to_vec());
        while let Some(cursor) = next {
            let (_, responses) = self.run_collect(&[WireRequest::Scan {
                start: cursor,
                limit: page_limit,
            }]);
            match responses.into_iter().next() {
                Some(WireResponse::ScanPage { items, resume }) => {
                    all.extend(items);
                    next = resume;
                }
                other => panic!("expected a ScanPage response, got {other:?}"),
            }
        }
        all
    }
}

/// Parse + route + split. One message per iteration; one
/// `route_batch` router span per message.
#[allow(clippy::too_many_arguments)]
fn dispatcher_loop(
    req_rx: &Receiver<RequestBatch>,
    work_txs: &[Sender<WorkBatch>],
    assign_tx: &Sender<Assignment>,
    completed_rx: &Receiver<u64>,
    index: &ShardedWormhole<u64>,
    shard_count: usize,
    metrics: &ServiceMetrics,
    server_metrics: &ShardServerMetrics,
) {
    let workers = work_txs.len();
    let mut seq = 0u64;
    let mut issued = 0u64;
    let mut completed = 0u64;
    let mut last_epoch = index.router_epoch();
    let mut records: Vec<RequestRecord> = Vec::new();
    let mut routes: Vec<usize> = Vec::new();
    while let Ok(batch) = req_rx.recv() {
        let frame = decode_message(batch, &mut records, metrics);

        // Route the whole message against one router-table snapshot.
        routes.clear();
        let timing = wh_telemetry::start_timing();
        let epoch = {
            let keys: Vec<&[u8]> = records
                .iter()
                .map(|record| record.request(frame.as_ref()).routing_key())
                .collect();
            index.route_batch(&keys, &mut routes)
        };
        server_metrics.dispatch_route_ns.record_elapsed(timing);

        // Keep the completion count fresh without blocking.
        while completed_rx.try_recv().is_ok() {
            completed += 1;
        }
        // Boundaries moved: the shard→worker map for these slots may
        // differ from the in-flight messages' map, so a key could hop
        // workers and execute out of program order. Flush the pipeline
        // before dispatching under the new epoch. Migrations are rare;
        // the steady state never takes this branch.
        if epoch != last_epoch {
            last_epoch = epoch;
            if completed < issued {
                server_metrics.epoch_flushes.inc();
                while completed < issued {
                    completed_rx.recv().expect("collector alive");
                    completed += 1;
                }
            }
        }

        // Split into per-worker shares; slots stay ascending within each
        // worker because the scan over slots is in order.
        let worker_of_slot: Vec<usize> = routes
            .iter()
            .map(|&shard| shard * workers / shard_count)
            .collect();
        let mut per_worker: Vec<Vec<RequestRecord>> = Vec::new();
        per_worker.resize_with(workers, Vec::new);
        for (record, &w) in records.iter().zip(&worker_of_slot) {
            per_worker[w].push(*record);
        }
        for (w, records) in per_worker.into_iter().enumerate() {
            if records.is_empty() {
                continue;
            }
            server_metrics.worker_items.record(records.len() as u64);
            let work = WorkBatch {
                seq,
                frame: frame.clone(),
                records,
            };
            if work_txs[w].send(work).is_err() {
                return;
            }
        }
        if assign_tx
            .send(Assignment {
                seq,
                worker_of_slot,
            })
            .is_err()
        {
            return;
        }
        seq += 1;
        issued += 1;
    }
}

/// Execute + encode: the two-pass plan of the executor shared with the
/// single-threaded [`KvService`](crate::KvService), monomorphised over the
/// sharded front (whose `get_batch_into` routes and gathers per shard).
/// The executor's buffers live as long as the worker.
fn worker_loop(
    work_rx: &Receiver<WorkBatch>,
    out_tx: &Sender<WorkOutput>,
    index: &ShardedWormhole<u64>,
    registry: &Registry,
    metrics: &ServiceMetrics,
) {
    let mut executor = Executor::new();
    while let Ok(batch) = work_rx.recv() {
        let payload = executor.execute(
            index,
            batch.frame.as_ref(),
            &batch.records,
            registry,
            metrics,
        );
        let output = WorkOutput {
            seq: batch.seq,
            payload,
            ends: executor.ends().to_vec(),
        };
        if out_tx.send(output).is_err() {
            return;
        }
    }
}

/// Reassemble. For each message: one output per participating worker,
/// then a single in-order walk over the slots, pulling sequentially from
/// each worker's buffer (a worker's slots ascend, so a per-worker cursor
/// suffices — no sorting, no per-slot allocation).
fn collector_loop(
    assign_rx: &Receiver<Assignment>,
    out_rxs: &[Receiver<WorkOutput>],
    resp_tx: &Sender<ResponseBatch>,
    completed_tx: &Sender<u64>,
) {
    let workers = out_rxs.len();
    while let Ok(assign) = assign_rx.recv() {
        let mut outputs: Vec<Option<WorkOutput>> = Vec::new();
        outputs.resize_with(workers, || None);
        for w in 0..workers {
            if assign.worker_of_slot.contains(&w) {
                let output = out_rxs[w].recv().expect("worker alive");
                debug_assert_eq!(
                    output.seq, assign.seq,
                    "per-worker FIFO preserves seq order"
                );
                outputs[w] = Some(output);
            }
        }
        let total: usize = outputs
            .iter()
            .flatten()
            .map(|o| o.payload.len())
            .sum::<usize>();
        let mut out = BytesMut::with_capacity(total);
        // (next item index, start offset of that item) per worker.
        let mut cursor = vec![(0usize, 0usize); workers];
        for &w in &assign.worker_of_slot {
            let output = outputs[w].as_ref().expect("assigned worker sent output");
            let (item, start) = cursor[w];
            let end = output.ends[item];
            out.put_slice(&output.payload.as_ref()[start..end]);
            cursor[w] = (item + 1, end);
        }
        if resp_tx
            .send(ResponseBatch {
                payload: out.freeze(),
            })
            .is_err()
        {
            return;
        }
        if completed_tx.send(assign.seq).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::KvService;
    use index_traits::ConcurrentOrderedIndex;
    use wh_shard::ShardedConfig;

    fn loaded_sharded(shards: usize, n: usize) -> Arc<ShardedWormhole<u64>> {
        let sample: Vec<Vec<u8>> = (0..n as u64)
            .map(|i| format!("key-{i:08}").into_bytes())
            .collect();
        let idx = ShardedWormhole::with_config(ShardedConfig::from_sample(shards, &sample));
        for (i, key) in sample.iter().enumerate() {
            idx.set(key, i as u64);
        }
        Arc::new(idx)
    }

    #[test]
    fn lookups_round_trip_through_the_serving_layer() {
        let index = loaded_sharded(4, 5000);
        for workers in [1, 3, 4] {
            let server = ShardServer::with_batch_size(Arc::clone(&index), workers, 100);
            let keys: Vec<Vec<u8>> = (0..2000u64)
                .map(|i| format!("key-{:08}", i * 3 % 5000).into_bytes())
                .collect();
            let stats = server.run_lookups(&keys);
            assert_eq!(stats.operations, 2000);
            assert_eq!(stats.hits, 2000);
            assert!(stats.mops() > 0.0);
        }
    }

    #[test]
    fn responses_come_back_in_request_order() {
        // Values encode the request slot, so any reassembly error shows up
        // as a permuted value, not just a count mismatch.
        let index = loaded_sharded(4, 4096);
        let server = ShardServer::with_batch_size(index, 4, 64);
        let requests: Vec<WireRequest> = (0..1024u64)
            .map(|i| WireRequest::Get {
                // Stride widely so consecutive slots hit different shards.
                key: format!("key-{:08}", i * 97 % 4096).into_bytes(),
            })
            .collect();
        let (stats, responses) = server.run_collect(&requests);
        assert_eq!(stats.operations, 1024);
        for (i, resp) in responses.iter().enumerate() {
            let expected = (i as u64) * 97 % 4096;
            assert_eq!(
                *resp,
                WireResponse::Value(expected),
                "slot {i} out of order"
            );
        }
    }

    #[test]
    fn point_streams_match_single_threaded_service() {
        // Per-key program order makes point-op responses deterministic:
        // the multi-worker serving layer must answer a Get/Set stream
        // exactly like the single-threaded KvService over an equal index.
        let sharded = loaded_sharded(4, 2000);
        let unsharded = {
            let wh = wormhole::Wormhole::new();
            for i in 0..2000u64 {
                wh.set(format!("key-{i:08}").as_bytes(), i);
            }
            Arc::new(wh)
        };
        let mut requests = Vec::new();
        for i in 0..3000u64 {
            let key = format!("key-{:08}", i * 13 % 2500).into_bytes();
            if i % 5 == 0 {
                requests.push(WireRequest::Set {
                    key,
                    value: i + 10_000,
                });
            } else {
                requests.push(WireRequest::Get { key });
            }
        }
        let server = ShardServer::with_batch_size(sharded, 4, 128);
        let service = KvService::with_batch_size(unsharded, 128);
        let (_, served) = server.run_collect(&requests);
        let (_, reference) = service.run_collect(&requests);
        assert_eq!(served, reference);
    }

    #[test]
    fn the_server_accounts_for_its_own_plan() {
        // No Set anywhere: every Get is hoisted, one batch per worker share.
        let index = loaded_sharded(4, 2000);
        let server = ShardServer::with_batch_size(Arc::clone(&index), 2, 100);
        let keys: Vec<Vec<u8>> = (0..1000u64)
            .map(|i| format!("key-{:08}", i * 7 % 2500).into_bytes())
            .collect();
        server.run_lookups(&keys);
        let m = server.metrics();
        assert_eq!(m.gets_hoisted.get(), 1000);
        assert_eq!(m.gets_in_place.get(), 0);
        if wh_telemetry::enabled() {
            let batches = m.get_batch_len.snapshot();
            assert_eq!(batches.sum, 1000);
            assert!(
                (10..=20).contains(&batches.count()),
                "ten messages, two workers"
            );
            assert_eq!(m.get_ns.snapshot().count(), 1000);
        }

        // Sixteen keys, each written every fourth time it comes round:
        // nearly every Get shares its message share with a Set on its key
        // and must stay in place.
        let server = ShardServer::with_batch_size(index, 2, 100);
        let requests: Vec<WireRequest> = (0..1000u64)
            .map(|i| {
                let key = format!("key-{:08}", i % 16).into_bytes();
                if (i / 16 + i) % 4 == 0 {
                    WireRequest::Set { key, value: i }
                } else {
                    WireRequest::Get { key }
                }
            })
            .collect();
        server.run(&requests);
        let m = server.metrics();
        assert_eq!(m.gets_hoisted.get() + m.gets_in_place.get(), 750);
        assert!(m.gets_in_place.get() > 375, "{}", m.gets_in_place.get());
        let text = server.fetch_stats();
        for name in [
            "netsim_gets_hoisted_total",
            "netsim_gets_in_place_total",
            "netsim_get_batch_len",
            "netsim_malformed_frames_total 0",
        ] {
            assert!(text.contains(name), "{name} missing from the exposition");
        }
        server.registry().lint().expect("well-formed metric names");
    }

    #[test]
    fn mixed_ops_and_stats_round_trip() {
        let index = loaded_sharded(4, 500);
        let server = ShardServer::with_batch_size(index, 2, 64);
        let (stats, responses) = server.run_collect(&[
            WireRequest::Get {
                key: b"key-00000007".to_vec(),
            },
            WireRequest::Range {
                start: b"key-00000490".to_vec(),
                count: 5,
            },
            WireRequest::Scan {
                start: b"key-00000490".to_vec(),
                limit: 4,
            },
            WireRequest::Stats,
        ]);
        assert_eq!(stats.operations, 4);
        assert_eq!(responses[0], WireResponse::Value(7));
        match &responses[1] {
            WireResponse::Range(items) => assert_eq!(items.len(), 5),
            other => panic!("expected Range, got {other:?}"),
        }
        match &responses[2] {
            WireResponse::ScanPage { items, resume } => {
                assert_eq!(items.len(), 4);
                assert!(resume.is_some(), "more keys remain");
            }
            other => panic!("expected ScanPage, got {other:?}"),
        }
        match &responses[3] {
            WireResponse::Stats(text) => {
                assert!(text.contains("netsim_requests_total"));
                assert!(text.contains("netsim_server_dispatch_route_ns"));
                assert!(text.contains("shard_shard0_ops_total"));
            }
            other => panic!("expected Stats, got {other:?}"),
        }
        server.registry().lint().expect("well-formed metric names");
    }

    #[test]
    fn scan_all_drains_the_whole_keyspace_in_order() {
        let index = loaded_sharded(4, 1000);
        let server = ShardServer::with_batch_size(Arc::clone(&index), 4, 32);
        let streamed = server.scan_all(b"", 37);
        assert_eq!(streamed.len(), 1000);
        assert!(streamed.windows(2).all(|w| w[0].0 < w[1].0));
        let direct = index.range_from(b"", usize::MAX);
        assert_eq!(streamed, direct);
    }

    #[test]
    fn serving_survives_migration_churn() {
        // A boundary migration storms along while the serving layer
        // answers lookups: every response must stay correct, and the
        // dispatcher's epoch-flush accounting must be consistent with the
        // churn (it can only flush if an epoch change raced a pipeline).
        let index = loaded_sharded(4, 4000);
        let server = ShardServer::with_batch_size(Arc::clone(&index), 4, 64);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let churn = {
            let index = Arc::clone(&index);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let low = format!("key-{:08}", 900).into_bytes();
                let high = format!("key-{:08}", 1100).into_bytes();
                let mut flip = false;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let target = if flip { &low } else { &high };
                    index.migrate_boundary(0, target).expect("valid target");
                    flip = !flip;
                }
            })
        };
        // Ten rounds, times `WH_STRESS_MULT` for the nightly soak.
        let mult: u64 = std::env::var("WH_STRESS_MULT")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1);
        for _ in 0..10 * mult {
            let keys: Vec<Vec<u8>> = (0..2000u64)
                .map(|i| format!("key-{:08}", i * 7 % 4000).into_bytes())
                .collect();
            let stats = server.run_lookups(&keys);
            assert_eq!(stats.operations, 2000);
            assert_eq!(stats.hits, 2000);
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        churn.join().expect("churn thread");
        index.check_invariants();
    }
}
