//! The multi-worker batched serving layer over the sharded front: a
//! [`ShardServer`] turns one `ShardedWormhole` into a pipelined
//! request/response service with shard-affine execution threads.
//!
//! # Threading model
//!
//! One front thread and N workers, connected by bounded channels. The
//! client, its channels and the run's lifecycle are the endpoint shared
//! with [`KvService`](crate::KvService); the threads are this server's own.
//! The front parses, routes and splits each message, and it also
//! reassembles and ships the responses; the workers execute:
//!
//! ```text
//! client ──► front ──► worker 0..N ──► front ──► client
//!            (parse,    (plan, execute, (reassemble
//!             route)     encode)         in slot order)
//! ```
//!
//! * The **front** parses each incoming frame in place, recording where
//!   each request starts, and routes *every* request in it against a
//!   single router-table snapshot ([`ShardedWormhole::route_batch`] — one
//!   router protection span for the whole message, the same discipline as
//!   the index's own `get_batch`), which gives the message's slot→worker
//!   map. Each worker that owns a slot is sent a handle on the one shared
//!   frame, on that map and on the slots' start offsets, so no key is
//!   copied between the wire and the index. Shards map to workers
//!   contiguously (`worker = shard * workers / shards`), so each worker's
//!   working set stays range-local.
//! * Each **worker** decodes only the slots the map gives it, at their
//!   offsets, with the same request parser, and executes that share
//!   through the executor it shares with [`KvService`](crate::KvService): a
//!   two-pass plan that hoists every Get whose key the share does not
//!   write into one `get_batch_into`, then answers the slots in order
//!   (see the [`service`](crate::service) module docs), encoding
//!   responses into one buffer with per-item end offsets.
//! * The front keeps the slot→worker map of every message still with the
//!   workers, oldest first. It dispatches while fewer than the client's
//!   pipeline depth (eight) are out and another message is waiting;
//!   otherwise it **reassembles** the oldest by walking its slots in
//!   order — each worker's slots ascend, so reassembly is a sequential
//!   cursor per worker, no sorting.
//!
//! A closed channel ends the run on every thread, so a worker's panic
//! stops the front and the client, and [`ShardServer::run`] raises it.
//!
//! # Ordering and correctness under migration
//!
//! The front's routing is **advisory** — pure affinity. Workers execute
//! through the public `ShardedWormhole` API, which re-routes every
//! operation inside its own router protection span, so a boundary
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
//! *new* epoch the front **flushes**: it reassembles every message still
//! with the workers before dispatching under the new map — counted by
//! [`ShardServerMetrics::epoch_flushes`]. Operations on *different* keys
//! in one stream may execute out of order, across workers and within
//! one; multi-key reads (`Range`, `Scan`) are concurrent snapshots,
//! ordered only against the Sets and multi-key reads of same-worker
//! neighbours. See `docs/src/adr-003-serving-threading.md` for the full
//! argument.

use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;

use bytes::{BufMut, Bytes, BytesMut};
use crossbeam::channel::{Receiver, Sender};
use wh_shard::ShardedWormhole;
use wh_telemetry::{Counter, Histogram, Registry};

use crate::service::{
    channel, decode_message, recycled, Endpoint, Executor, ServiceStats, PIPELINE_DEPTH,
};
use crate::telemetry::ServiceMetrics;
use crate::wire::{parse_at, WireRequest, WireRequestRef, WireResponse};

/// One message as the workers get it: the frame, shared by every worker
/// of the message, its slot→worker map and where each slot's request
/// starts in the frame. A worker's share is the slots the map gives it, in
/// slot order; no key is copied out of the frame.
struct WorkBatch {
    frame: Bytes,
    worker_of_slot: Arc<[usize]>,
    starts: Arc<[usize]>,
}

/// One worker's encoded output for one message: `ends[j]` is the end
/// offset of item `j`'s response in `payload` (the worker's `j`-th slot,
/// not the message's).
struct WorkOutput {
    payload: Bytes,
    ends: Vec<usize>,
}

wh_telemetry::metrics! {
    /// Serving-layer metrics beyond the per-op [`ServiceMetrics`].
    pub struct ShardServerMetrics {
        /// Time the front spent routing one message's keys (one
        /// `route_batch` call — a single router protection span).
        pub dispatch_route_ns: Histogram,
        /// Flushes forced by a router-epoch change: the front saw new
        /// boundaries while messages were still with the workers and
        /// reassembled them all before dispatching under the new
        /// shard→worker map.
        pub epoch_flushes: Counter,
        /// Items per per-worker sub-batch (the dispatch fan-out distribution).
        pub worker_items: Histogram,
    }
}

/// A batched serving layer over a [`ShardedWormhole`]: N shard-affine
/// worker threads behind one front thread that routes each message and
/// reassembles its responses. See the [module docs](self) for the
/// threading model and the ordering contract.
pub struct ShardServer {
    index: Arc<ShardedWormhole<u64>>,
    workers: usize,
    endpoint: Endpoint,
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
        let endpoint = Endpoint::new(batch_size);
        let server_metrics = ShardServerMetrics::default();
        server_metrics.register_into(&endpoint.registry, "netsim_server");
        index.register_metrics(&endpoint.registry, "shard");
        Self {
            index,
            workers,
            endpoint,
            server_metrics,
        }
    }

    /// The served index.
    pub fn index(&self) -> &Arc<ShardedWormhole<u64>> {
        &self.index
    }

    /// The metrics registry the [`WireRequest::Stats`] command renders.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.endpoint.registry
    }

    /// Per-op service metrics (shared cells with the worker threads).
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.endpoint.metrics
    }

    /// Serving-layer metrics (dispatch routing time, epoch flushes).
    pub fn server_metrics(&self) -> &ShardServerMetrics {
        &self.server_metrics
    }

    /// Starts the workers and the front, which serves until the client
    /// hangs up.
    fn serve(&self, req_rx: Receiver<Bytes>, resp_tx: Sender<Bytes>) -> Vec<JoinHandle<()>> {
        let mut work_txs = Vec::with_capacity(self.workers);
        let mut out_rxs = Vec::with_capacity(self.workers);
        let mut handles = Vec::with_capacity(self.workers + 1);
        for w in 0..self.workers {
            let (work_tx, work_rx) = channel::<WorkBatch>();
            let (out_tx, out_rx) = channel::<WorkOutput>();
            work_txs.push(work_tx);
            out_rxs.push(out_rx);
            let index = Arc::clone(&self.index);
            let registry = Arc::clone(&self.endpoint.registry);
            let metrics = self.endpoint.metrics.clone();
            handles.push(std::thread::spawn(move || {
                worker_loop(w, &work_rx, &out_tx, &index, &registry, &metrics);
            }));
        }
        let index = Arc::clone(&self.index);
        let metrics = self.endpoint.metrics.clone();
        let server_metrics = self.server_metrics.clone();
        handles.push(std::thread::spawn(move || {
            front_loop(
                &req_rx,
                &resp_tx,
                &work_txs,
                &out_rxs,
                &index,
                &metrics,
                &server_metrics,
            );
        }));
        handles
    }

    /// Runs a stream of requests through the serving layer and reports
    /// client-side statistics. Client-observed round-trip latency lands in
    /// [`ServiceMetrics::client_rtt_ns`], once per request.
    pub fn run(&self, requests: &[WireRequest]) -> ServiceStats {
        self.endpoint
            .run(requests, |rx, tx| self.serve(rx, tx), |_| {})
    }

    /// Like [`ShardServer::run`], but also returns every decoded response
    /// in request order.
    pub fn run_collect(&self, requests: &[WireRequest]) -> (ServiceStats, Vec<WireResponse>) {
        self.endpoint
            .run_collect(requests, |rx, tx| self.serve(rx, tx))
    }

    /// Scrapes the serving stack over the wire: one [`WireRequest::Stats`]
    /// round trip, returning the decoded text exposition.
    pub fn fetch_stats(&self) -> String {
        self.endpoint.fetch_stats(|rx, tx| self.serve(rx, tx))
    }
}

/// Parse + route + dispatch, and reassemble. Each turn either dispatches
/// one message (one `route_batch` router span) or ships the oldest one
/// still with the workers; `in_flight` holds the slot→worker map of each
/// of those, oldest first. Returns when the client or a worker hangs up.
fn front_loop(
    req_rx: &Receiver<Bytes>,
    resp_tx: &Sender<Bytes>,
    work_txs: &[Sender<WorkBatch>],
    out_rxs: &[Receiver<WorkOutput>],
    index: &ShardedWormhole<u64>,
    metrics: &ServiceMetrics,
    server_metrics: &ShardServerMetrics,
) {
    let workers = work_txs.len();
    let shard_count = index.shard_count();
    let mut in_flight: VecDeque<Arc<[usize]>> = VecDeque::new();
    let mut last_epoch = index.router_epoch();
    let mut spare: Vec<WireRequestRef> = Vec::new();
    let mut starts = Vec::new();
    let mut routes: Vec<usize> = Vec::new();
    let mut items = vec![0usize; workers];
    loop {
        // Take a new message while there is room for it and it is there
        // (waiting for one only when nothing else is left to do); else
        // ship the oldest.
        let next = match in_flight.len() {
            0 => req_rx.recv().ok(),
            n if n < PIPELINE_DEPTH => req_rx.try_recv().ok(),
            _ => None,
        };
        let Some(frame) = next else {
            // Nothing in flight here means the client has hung up.
            let Some(oldest) = in_flight.pop_front() else {
                return;
            };
            if !reassemble(&oldest, out_rxs, resp_tx) {
                return;
            }
            continue;
        };
        let mut requests = recycled(spare);
        decode_message(frame.as_ref(), &mut requests, &mut starts, metrics);

        // Route the whole message against one router-table snapshot.
        routes.clear();
        let timing = wh_telemetry::start_timing();
        let keys: Vec<&[u8]> = requests.iter().map(WireRequestRef::routing_key).collect();
        let epoch = index.route_batch(&keys, &mut routes);
        server_metrics.dispatch_route_ns.record_elapsed(timing);
        spare = recycled(requests);

        // Boundaries moved: the shard→worker map for these slots may
        // differ from the in-flight messages' map, so a key could hop
        // workers and execute out of program order. Ship every in-flight
        // message before dispatching under the new epoch. Migrations are
        // rare; the steady state never takes this branch.
        if epoch != last_epoch {
            last_epoch = epoch;
            if !in_flight.is_empty() {
                server_metrics.epoch_flushes.inc();
                while let Some(oldest) = in_flight.pop_front() {
                    if !reassemble(&oldest, out_rxs, resp_tx) {
                        return;
                    }
                }
            }
        }

        // Every worker that owns a slot gets the frame, the map and the
        // offsets.
        let worker_of_slot: Arc<[usize]> = routes
            .iter()
            .map(|&shard| shard * workers / shard_count)
            .collect();
        let slot_starts: Arc<[usize]> = Arc::from(starts.as_slice());
        items.fill(0);
        worker_of_slot.iter().for_each(|&w| items[w] += 1);
        for (w, &n) in items.iter().enumerate().filter(|&(_, &n)| n > 0) {
            server_metrics.worker_items.record(n as u64);
            let work = WorkBatch {
                frame: frame.clone(),
                worker_of_slot: Arc::clone(&worker_of_slot),
                starts: Arc::clone(&slot_starts),
            };
            if work_txs[w].send(work).is_err() {
                return;
            }
        }
        in_flight.push_back(worker_of_slot);
    }
}

/// Decode + execute + encode for worker `w`: its slots of each message,
/// decoded at their offsets alone, through the two-pass plan of the
/// executor shared with the single-threaded
/// [`KvService`](crate::KvService), monomorphised over the sharded front
/// (whose `get_batch_into` routes and gathers per shard).
/// The request list and the executor's buffers live as long as the worker.
fn worker_loop(
    w: usize,
    work_rx: &Receiver<WorkBatch>,
    out_tx: &Sender<WorkOutput>,
    index: &ShardedWormhole<u64>,
    registry: &Registry,
    metrics: &ServiceMetrics,
) {
    let mut spare: Vec<WireRequestRef> = Vec::new();
    let mut executor = Executor::new();
    while let Ok(batch) = work_rx.recv() {
        let mut requests = recycled(spare);
        let own = (batch.worker_of_slot.iter().zip(batch.starts.iter()))
            .filter(|&(&owner, _)| owner == w)
            .map(|(_, &start)| start);
        parse_at(batch.frame.as_ref(), own, &mut requests);
        let payload = executor.execute(index, &requests, registry, metrics);
        spare = recycled(requests);
        let output = WorkOutput {
            payload,
            ends: executor.ends().to_vec(),
        };
        if out_tx.send(output).is_err() {
            return;
        }
    }
}

/// Reassembles one message and ships it: one output from each worker the
/// message went to (a worker answers its messages in order, so that is
/// the next output on its channel), then a single in-order walk over the
/// slots, pulling sequentially from each worker's buffer (a worker's
/// slots ascend, so a per-worker cursor suffices — no sorting, no
/// per-slot allocation). Returns `false` once the client or one of the
/// message's workers has hung up.
fn reassemble(
    worker_of_slot: &[usize],
    out_rxs: &[Receiver<WorkOutput>],
    resp_tx: &Sender<Bytes>,
) -> bool {
    let workers = out_rxs.len();
    let mut outputs = Vec::with_capacity(workers);
    for (w, out_rx) in out_rxs.iter().enumerate() {
        let sent = worker_of_slot.contains(&w);
        let Ok(output) = sent.then(|| out_rx.recv()).transpose() else {
            return false;
        };
        outputs.push(output);
    }
    let total: usize = outputs
        .iter()
        .flatten()
        .map(|o| o.payload.len())
        .sum::<usize>();
    let mut out = BytesMut::with_capacity(total);
    // (next item index, start offset of that item) per worker.
    let mut cursor = vec![(0usize, 0usize); workers];
    for &w in worker_of_slot {
        let output = outputs[w].as_ref().expect("assigned worker sent output");
        let (item, start) = cursor[w];
        let end = output.ends[item];
        out.put_slice(&output.payload.as_ref()[start..end]);
        cursor[w] = (item + 1, end);
    }
    resp_tx.send(out.freeze()).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::KvService;
    use index_traits::ConcurrentOrderedIndex;
    use wh_shard::ShardedConfig;

    /// A Get for `key-{i:08}` for each `i`.
    fn gets(ids: impl Iterator<Item = u64>) -> Vec<WireRequest> {
        ids.map(|i| WireRequest::Get {
            key: format!("key-{i:08}").into_bytes(),
        })
        .collect()
    }

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
            let stats = server.run(&gets((0..2000u64).map(|i| i * 3 % 5000)));
            assert_eq!(stats.operations, 2000);
            assert_eq!(stats.hits, 2000);
            assert!(stats.mops() > 0.0);
        }
    }

    #[test]
    fn responses_come_back_in_request_order() {
        // Values encode the request slot, so any reassembly error shows up
        // as a permuted value, not just a count mismatch. At batch size 1
        // the 1 024 one-request messages keep the front's in-flight cap
        // full for the whole run.
        let index = loaded_sharded(4, 4096);
        let requests: Vec<WireRequest> = (0..1024u64)
            .map(|i| WireRequest::Get {
                // Stride widely so consecutive slots hit different shards.
                key: format!("key-{:08}", i * 97 % 4096).into_bytes(),
            })
            .collect();
        for batch_size in [1, 7, 64] {
            let server = ShardServer::with_batch_size(Arc::clone(&index), 4, batch_size);
            let (stats, responses) = server.run_collect(&requests);
            assert_eq!(stats.operations, 1024);
            for (i, resp) in responses.iter().enumerate() {
                let expected = (i as u64) * 97 % 4096;
                assert_eq!(
                    *resp,
                    WireResponse::Value(expected),
                    "slot {i} out of order at batch size {batch_size}"
                );
            }
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
        server.run(&gets((0..1000u64).map(|i| i * 7 % 2500)));
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
    fn an_empty_run_starts_and_joins_every_thread() {
        // The benchmark's startup probe times exactly `run(&[])`: the
        // threads start, the client hangs up at once, and the call returns
        // only once every thread is joined.
        let index = loaded_sharded(4, 100);
        let service = KvService::new(Arc::new(wormhole::Wormhole::new()));
        let one = ShardServer::new(Arc::clone(&index), 1);
        let four = ShardServer::new(index, 4);
        for (run, (collected, responses), metrics) in [
            (
                service.run(&[]),
                service.run_collect(&[]),
                service.metrics(),
            ),
            (one.run(&[]), one.run_collect(&[]), one.metrics()),
            (four.run(&[]), four.run_collect(&[]), four.metrics()),
        ] {
            for stats in [run, collected] {
                let counts = (stats.operations, stats.request_bytes, stats.response_bytes);
                assert_eq!((counts, stats.hits), ((0, 0, 0), 0));
            }
            assert!(responses.is_empty());
            assert_eq!(metrics.requests.get(), 0);
        }
    }

    #[test]
    fn serving_survives_migration_churn() {
        // A boundary migration storms along while the serving layer
        // answers lookups: every response must stay correct, and the
        // front must have flushed (an epoch change found messages still
        // with the workers) at least once over the run.
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
            let stats = server.run(&gets((0..2000u64).map(|i| i * 7 % 4000)));
            assert_eq!(stats.operations, 2000);
            assert_eq!(stats.hits, 2000);
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        churn.join().expect("churn thread");
        assert!(server.server_metrics().epoch_flushes.get() > 0);
        index.check_invariants();
    }
}
