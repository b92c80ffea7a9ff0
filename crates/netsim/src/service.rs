//! An in-process batched key-value service: client and server threads
//! exchanging encoded request/response messages over channels, mimicking
//! HERD's request loop.
//!
//! Both serve loops, [`KvService`] and the multi-worker
//! [`ShardServer`](crate::ShardServer), are built from the pieces here, so
//! each exists once: the `Endpoint` (the batch size, the registry with the
//! `netsim_*` metrics, and the one lifecycle of a run: open the channels,
//! start the server's threads, drive the pipelined client, hang up, join),
//! `decode_message` (wire bytes → requests read in place by the one request
//! parser) and `Executor::execute` (requests → encoded responses). The two
//! loops differ only in the threads they start; [`KvService`]'s is one
//! server thread over *any* index.
//!
//! # The execution plan
//!
//! A server thread executes its share of a message in two passes. The
//! first collects every `Get` whose key no `Set` *of the same share*
//! writes and runs them all through one
//! [`get_batch_into`](index_traits::ConcurrentOrderedIndex::get_batch_into),
//! so the pipelined probe engine sees full windows whatever the Gets were
//! interleaved with. The second walks the share in order: it encodes the
//! next hoisted value for such a Get and executes everything else — `Set`,
//! `Range`, `Scan`, `Stats`, and a `Get` on a written key through
//! single-key `get` — in place. Only Gets on unwritten keys move, and
//! moving one past operations on *other* keys cannot change its answer, so
//! per key the response stream is the one serial execution gives. No key
//! is copied on the way: requests are read in place from the frame, and a
//! `Range` or `Scan` streams its pairs from the index's cursor straight
//! into the response frame.

use std::collections::VecDeque;
use std::hash::{BuildHasher, RandomState};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use bytes::{Bytes, BytesMut};
use crossbeam::channel::{bounded, Receiver, Sender};
use index_traits::ConcurrentOrderedIndex;
use wh_telemetry::Registry;

use crate::telemetry::ServiceMetrics;
use crate::wire::{
    parse_frame, stream_range, stream_scan_page, WireRequest, WireRequestRef, WireResponse,
    WireResponseRef,
};

/// The most messages a client keeps in flight, and the most the
/// `ShardServer` front keeps with its workers.
pub(crate) const PIPELINE_DEPTH: usize = 8;

/// A channel of either serve loop. At most [`PIPELINE_DEPTH`] messages are
/// in flight and each puts at most one item in each channel, so a channel
/// of twice that depth never fills.
pub(crate) fn channel<T>() -> (Sender<T>, Receiver<T>) {
    bounded(2 * PIPELINE_DEPTH)
}

/// Throughput accounting of one run, as the client sees it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
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

/// Parses one message into `requests`, with their start offsets in
/// `starts` ([`parse_frame`]), and counts it: the first step of every
/// server. A frame with a malformed tail is counted in `malformed_frames`
/// and answered as far as it parsed.
pub(crate) fn decode_message<'a>(
    frame: &'a [u8],
    requests: &mut Vec<WireRequestRef<'a>>,
    starts: &mut Vec<usize>,
    metrics: &ServiceMetrics,
) {
    if !parse_frame(frame, requests, starts) {
        metrics.malformed_frames.inc();
    }
    metrics.requests.add(requests.len() as u64);
    metrics.batch_requests.record(requests.len() as u64);
}

/// The response to a point op: the value found (for a `Set`, replaced).
fn value_or_miss(value: Option<u64>) -> WireResponse {
    value.map_or(WireResponse::Miss, WireResponse::Value)
}

/// The keys one share's `Set`s write, as an open-addressed set of 32-bit
/// key hashes. Conservative: two keys may share a hash, and then a `Get`
/// that could have been hoisted stays in place — never the reverse. The
/// hash is seeded per set, so a client cannot pick keys that collide.
struct WrittenKeys {
    seed: u64,
    /// `0` is an empty slot; stored hashes have their low bit set.
    slots: Vec<u32>,
}

impl WrittenKeys {
    fn new() -> Self {
        Self {
            seed: RandomState::new().hash_one(0u8),
            slots: Vec::new(),
        }
    }

    /// Empties the set and sizes it for `writes` keys at half load; for
    /// none it stays without slots, and `may_contain` hashes nothing.
    fn reset(&mut self, writes: usize) {
        self.slots.clear();
        if writes > 0 {
            self.slots.resize((writes * 2).next_power_of_two(), 0);
        }
    }

    /// Eight key bytes per multiply (the Fx mix), folded to 32 bits.
    fn hash(&self, key: &[u8]) -> u32 {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let mix = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(K);
        let mut h = mix(self.seed, key.len() as u64);
        let mut words = key.chunks_exact(8);
        for word in &mut words {
            h = mix(h, u64::from_le_bytes(word.try_into().expect("eight bytes")));
        }
        let mut tail = [0u8; 8];
        tail[..words.remainder().len()].copy_from_slice(words.remainder());
        h = mix(h, u64::from_le_bytes(tail));
        (h >> 32) as u32 | 1
    }

    /// The slot holding `hash`, or the empty one where it would go.
    fn slot_of(&self, hash: u32) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = (hash >> 1) as usize & mask;
        while self.slots[at] != 0 && self.slots[at] != hash {
            at = (at + 1) & mask;
        }
        at
    }

    fn insert(&mut self, key: &[u8]) {
        let hash = self.hash(key);
        let at = self.slot_of(hash);
        self.slots[at] = hash;
    }

    fn may_contain(&self, key: &[u8]) -> bool {
        !self.slots.is_empty() && self.slots[self.slot_of(self.hash(key))] != 0
    }
}

/// Empties `list` and hands its storage to a list of another lifetime (`T`
/// and `U` differ only in it): the request and key lists borrow from one
/// frame at a time. Collecting an emptied `Vec` through its own iterator
/// reuses the allocation.
pub(crate) fn recycled<T, U>(mut list: Vec<T>) -> Vec<U> {
    list.clear();
    list.into_iter().map(|_| unreachable!("emptied")).collect()
}

/// One server thread's executor: [`execute`](Executor::execute) plus the
/// buffers it keeps from message to message.
pub(crate) struct Executor {
    /// The hoisted Gets' keys; empty (and `'static`) between messages.
    keys: Vec<&'static [u8]>,
    /// Their values, in `keys` order.
    values: Vec<Option<u64>>,
    written: WrittenKeys,
    /// Positions in the share of the Gets left in place, ascending.
    in_place: Vec<u32>,
    out: BytesMut,
    ends: Vec<usize>,
}

impl Executor {
    pub(crate) fn new() -> Self {
        Self {
            keys: Vec::new(),
            values: Vec::new(),
            written: WrittenKeys::new(),
            in_place: Vec::new(),
            out: BytesMut::new(),
            ends: Vec::new(),
        }
    }

    /// Executes one share of a message — `requests`, read in place from
    /// its frame, in slot order — against `index` by the two-pass plan of
    /// the [module docs](self), and returns the encoded responses. `ends()`
    /// then holds the end offset of each response in them.
    ///
    /// Generic rather than `dyn` so the [`ShardServer`](crate::ShardServer)
    /// workers stay monomorphised over the sharded front; [`KvService`]
    /// passes its `dyn` index.
    pub(crate) fn execute<I>(
        &mut self,
        index: &I,
        requests: &[WireRequestRef<'_>],
        registry: &Registry,
        metrics: &ServiceMetrics,
    ) -> Bytes
    where
        I: ConcurrentOrderedIndex<u64> + ?Sized,
    {
        // Pass one: the keys this share writes, then the Gets they leave
        // free to move.
        let writes = requests
            .iter()
            .filter(|r| matches!(r, WireRequestRef::Set { .. }))
            .count();
        self.written.reset(writes);
        if writes > 0 {
            for request in requests {
                if let WireRequestRef::Set { key, .. } = *request {
                    self.written.insert(key);
                }
            }
        }
        let mut keys = recycled(std::mem::take(&mut self.keys));
        self.in_place.clear();
        for (slot, request) in requests.iter().enumerate() {
            if let WireRequestRef::Get { key } = *request {
                if self.written.may_contain(key) {
                    self.in_place.push(slot as u32);
                } else {
                    keys.push(key);
                }
            }
        }
        self.values.clear();
        if !keys.is_empty() {
            let timing = wh_telemetry::start_timing();
            index.get_batch_into(&keys, &mut self.values);
            if let Some(started) = timing {
                // The batch executed together: each of its Gets is
                // charged an equal share of the batch's time.
                let n = keys.len() as u64;
                metrics
                    .get_ns
                    .record_n(started.elapsed().as_nanos() as u64 / n, n);
            }
            metrics.get_batch_len.record(keys.len() as u64);
        }
        metrics.gets_hoisted.add(keys.len() as u64);
        metrics.gets_in_place.add(self.in_place.len() as u64);
        self.keys = recycled(keys);

        // Pass two: slot order. A Get is answered from the batch unless
        // its slot is the next one left in place.
        let out = &mut self.out;
        self.ends.clear();
        let mut hoisted = self.values.iter();
        let mut in_place = self.in_place.iter().peekable();
        for (slot, request) in requests.iter().enumerate() {
            match *request {
                WireRequestRef::Get { key } => {
                    let value = if in_place.next_if_eq(&&(slot as u32)).is_some() {
                        let timing = wh_telemetry::start_timing();
                        let value = index.get(key);
                        metrics.get_ns.record_elapsed(timing);
                        value
                    } else {
                        *hoisted.next().expect("one value per hoisted Get")
                    };
                    value_or_miss(value).encode(out);
                }
                WireRequestRef::Set { key, value } => {
                    let timing = wh_telemetry::start_timing();
                    let resp = value_or_miss(index.set(key, value));
                    metrics.set_ns.record_elapsed(timing);
                    resp.encode(out);
                }
                WireRequestRef::Range { start, count } => {
                    let timing = wh_telemetry::start_timing();
                    stream_range(out, &mut index.scan(start), count);
                    metrics.range_ns.record_elapsed(timing);
                }
                WireRequestRef::Scan { start, limit } => {
                    let timing = wh_telemetry::start_timing();
                    stream_scan_page(out, &mut index.scan(start), limit);
                    metrics.scan_ns.record_elapsed(timing);
                }
                WireRequestRef::Stats => {
                    metrics.stats_requests.inc();
                    WireResponse::Stats(registry.snapshot().render()).encode(out);
                }
            }
            self.ends.push(out.len());
        }
        // The responses leave with the caller; the next message starts
        // with room for as many bytes as this one took.
        let next = BytesMut::with_capacity(out.len());
        std::mem::replace(out, next).freeze()
    }

    /// The end offset of each response of the last
    /// [`execute`](Executor::execute), in slot order.
    pub(crate) fn ends(&self) -> &[usize] {
        &self.ends
    }
}

/// What both serve loops share: the batch size, the registry the
/// [`WireRequest::Stats`] command renders with the `netsim_*` metrics in
/// it, and the one lifecycle of a run.
pub(crate) struct Endpoint {
    batch_size: usize,
    pub(crate) registry: Arc<Registry>,
    pub(crate) metrics: ServiceMetrics,
}

impl Endpoint {
    pub(crate) fn new(batch_size: usize) -> Self {
        assert!(batch_size > 0);
        let registry = Arc::new(Registry::new());
        let metrics = ServiceMetrics::default();
        metrics.register_into(&registry, "netsim");
        Self {
            batch_size,
            registry,
            metrics,
        }
    }

    /// Runs a stream of requests: opens the request and response channels,
    /// starts the server's threads through `serve` (handed the request
    /// receiver and the response sender, it returns the threads' handles),
    /// drives the client on this thread, and joins every thread once the
    /// client has hung up. Each decoded response goes to `on_resp`, in
    /// request order. A closed channel ends the run on every side, and a
    /// serving thread's panic is raised again here once all are joined.
    pub(crate) fn run(
        &self,
        requests: &[WireRequest],
        serve: impl FnOnce(Receiver<Bytes>, Sender<Bytes>) -> Vec<JoinHandle<()>>,
        on_resp: impl FnMut(WireResponseRef<'_>),
    ) -> ServiceStats {
        let (req_tx, req_rx) = channel();
        let (resp_tx, resp_rx) = channel();
        let handles = serve(req_rx, resp_tx);
        let stats = self.drive_client(req_tx, &resp_rx, requests, on_resp);
        let joined: Vec<_> = handles.into_iter().map(JoinHandle::join).collect();
        if let Some(Err(payload)) = joined.into_iter().find(Result::is_err) {
            std::panic::resume_unwind(payload);
        }
        stats
    }

    /// The client half of a run: encodes `requests` in messages of the
    /// batch size, keeps up to [`PIPELINE_DEPTH`] of them in flight (as
    /// HERD does, and so a server's front and workers overlap), reads the
    /// responses in place and hands each to `on_resp` in request order. Takes
    /// the sender so that returning hangs up, which is what stops the server.
    ///
    /// The server answers messages in arrival order, so the front of the
    /// in-flight queue is always the one the next response completes. Each
    /// response batch records its full round trip (encode, queue, execute,
    /// decode) into `client_rtt_ns`, once per request it carried — the
    /// client-observed latency distribution. A response frame is read up to
    /// its first malformed byte; what follows it is not counted.
    fn drive_client(
        &self,
        req_tx: Sender<Bytes>,
        resp_rx: &Receiver<Bytes>,
        requests: &[WireRequest],
        mut on_resp: impl FnMut(WireResponseRef<'_>),
    ) -> ServiceStats {
        let start = Instant::now();
        let mut stats = ServiceStats::default();
        let mut in_flight: VecDeque<Option<Instant>> = VecDeque::new();
        let mut drain = |stats: &mut ServiceStats, in_flight: &mut VecDeque<Option<Instant>>| {
            let frame = resp_rx.recv().ok()?;
            stats.response_bytes += frame.len();
            let mut payload = frame.as_ref();
            let mut count = 0u64;
            while let Some(resp) = WireResponseRef::decode(&mut payload) {
                if !matches!(resp, WireResponseRef::Miss) {
                    stats.hits += 1;
                }
                stats.operations += 1;
                count += 1;
                on_resp(resp);
            }
            let sent = in_flight.pop_front().expect("a response implies a send");
            if let Some(sent) = sent {
                self.metrics
                    .client_rtt_ns
                    .record_n(sent.elapsed().as_nanos() as u64, count);
            }
            Some(())
        };
        for chunk in requests.chunks(self.batch_size) {
            let mut buf = BytesMut::with_capacity(chunk.iter().map(WireRequest::wire_size).sum());
            for req in chunk {
                req.encode(&mut buf);
            }
            stats.request_bytes += buf.len();
            in_flight.push_back(wh_telemetry::start_timing());
            if req_tx.send(buf.freeze()).is_err()
                || in_flight.len() >= PIPELINE_DEPTH && drain(&mut stats, &mut in_flight).is_none()
            {
                break;
            }
        }
        while !in_flight.is_empty() && drain(&mut stats, &mut in_flight).is_some() {}
        stats.seconds = start.elapsed().as_secs_f64().max(1e-9);
        stats
    }

    /// [`Endpoint::run`], returning every decoded response in request order.
    pub(crate) fn run_collect(
        &self,
        requests: &[WireRequest],
        serve: impl FnOnce(Receiver<Bytes>, Sender<Bytes>) -> Vec<JoinHandle<()>>,
    ) -> (ServiceStats, Vec<WireResponse>) {
        let mut responses = Vec::with_capacity(requests.len());
        let stats = self.run(requests, serve, |resp| responses.push(resp.to_owned()));
        (stats, responses)
    }

    /// One [`WireRequest::Stats`] round trip, returning the decoded text
    /// exposition.
    pub(crate) fn fetch_stats(
        &self,
        serve: impl FnOnce(Receiver<Bytes>, Sender<Bytes>) -> Vec<JoinHandle<()>>,
    ) -> String {
        let (_, responses) = self.run_collect(&[WireRequest::Stats], serve);
        match responses.into_iter().next() {
            Some(WireResponse::Stats(text)) => text,
            other => panic!("expected a Stats response, got {other:?}"),
        }
    }
}

/// A batched key-value service over an index.
///
/// The server thread owns a reference to a [`ConcurrentOrderedIndex`] and
/// processes one encoded batch at a time; the client encodes requests,
/// batches them, and decodes responses — the same division of labour as the
/// HERD port used in the paper.
pub struct KvService {
    index: Arc<dyn ConcurrentOrderedIndex<u64>>,
    endpoint: Endpoint,
}

impl KvService {
    /// Creates a service over the given index with the paper's batch size of
    /// 800 requests per message.
    pub fn new(index: Arc<dyn ConcurrentOrderedIndex<u64>>) -> Self {
        Self::with_batch_size(index, 800)
    }

    /// Creates a service with an explicit batch size.
    pub fn with_batch_size(index: Arc<dyn ConcurrentOrderedIndex<u64>>, batch_size: usize) -> Self {
        Self {
            index,
            endpoint: Endpoint::new(batch_size),
        }
    }

    /// The metrics registry the [`WireRequest::Stats`] command renders.
    /// Register index-side metrics here before serving to make them
    /// scrapeable over the wire.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.endpoint.registry
    }

    /// The service's own metrics cells (also registered in
    /// [`registry`](KvService::registry) under `netsim_…` names).
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.endpoint.metrics
    }

    /// Starts the one server thread: it decodes, executes and answers each
    /// message in turn until the client hangs up.
    fn serve(&self, req_rx: Receiver<Bytes>, resp_tx: Sender<Bytes>) -> Vec<JoinHandle<()>> {
        let index = Arc::clone(&self.index);
        let registry = Arc::clone(&self.endpoint.registry);
        let metrics = self.endpoint.metrics.clone();
        vec![std::thread::spawn(move || {
            let mut spare: Vec<WireRequestRef> = Vec::new();
            let mut starts = Vec::new();
            let mut executor = Executor::new();
            while let Ok(frame) = req_rx.recv() {
                let mut requests = recycled(spare);
                decode_message(frame.as_ref(), &mut requests, &mut starts, &metrics);
                let payload = executor.execute(&*index, &requests, &registry, &metrics);
                spare = recycled(requests);
                if resp_tx.send(payload).is_err() {
                    break;
                }
            }
        })]
    }

    /// Runs a stream of requests through the service and reports client-side
    /// statistics.
    pub fn run(&self, requests: &[WireRequest]) -> ServiceStats {
        self.endpoint
            .run(requests, |rx, tx| self.serve(rx, tx), |_| {})
    }

    /// Like [`KvService::run`], but also returns every decoded response in
    /// request order — the hook differential tests use to compare the
    /// served stream against in-process execution.
    pub fn run_collect(&self, requests: &[WireRequest]) -> (ServiceStats, Vec<WireResponse>) {
        self.endpoint
            .run_collect(requests, |rx, tx| self.serve(rx, tx))
    }

    /// Scrapes the server over the wire: sends one [`WireRequest::Stats`]
    /// and returns the decoded text exposition.
    pub fn fetch_stats(&self) -> String {
        self.endpoint.fetch_stats(|rx, tx| self.serve(rx, tx))
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
    fn a_malformed_tail_is_counted_and_the_requests_before_it_answered() {
        let index = loaded_index(10);
        let mut buf = BytesMut::new();
        for key in [&b"key-00000001"[..], b"absent", b"key-00000002"] {
            WireRequest::Get { key: key.to_vec() }.encode(&mut buf);
        }
        let whole = buf.len();
        WireRequest::Set {
            key: b"key-00000003".to_vec(),
            value: 9,
        }
        .encode(&mut buf);
        let frame = buf.freeze();
        let metrics = ServiceMetrics::default();
        let registry = Registry::new();
        let mut executor = Executor::new();
        // Cut inside the Set's value, then replace its tag: both tails are
        // refused, the three Gets in front are served.
        let mut unknown = frame.as_ref().to_vec();
        unknown[whole] = 0x7F;
        let cut = frame.as_ref()[..frame.len() - 3].to_vec();
        for (n, tail) in [cut, unknown].into_iter().enumerate() {
            let mut requests = Vec::new();
            decode_message(&tail, &mut requests, &mut Vec::new(), &metrics);
            assert_eq!(requests.len(), 3);
            assert_eq!(metrics.malformed_frames.get(), n as u64 + 1);
            let payload = executor.execute(&*index, &requests, &registry, &metrics);
            let mut rest = payload.as_ref();
            let answered: Vec<WireResponse> =
                std::iter::from_fn(|| Some(WireResponseRef::decode(&mut rest)?.to_owned()))
                    .collect();
            assert_eq!(
                answered,
                [
                    WireResponse::Value(1),
                    WireResponse::Miss,
                    WireResponse::Value(2)
                ]
            );
            assert_eq!(executor.ends(), [9, 10, 19]);
        }
        // The Set was never applied, and a well-formed frame counts nothing.
        assert_eq!(index.get(b"key-00000003"), Some(3));
        let mut requests = Vec::new();
        decode_message(frame.as_ref(), &mut requests, &mut Vec::new(), &metrics);
        assert_eq!(requests.len(), 4);
        assert_eq!(metrics.malformed_frames.get(), 2);
        assert_eq!(metrics.requests.get(), 10);
    }

    #[test]
    fn the_request_and_key_lists_keep_their_storage_between_frames() {
        // `recycled` leans on the standard library collecting a `Vec`'s own
        // iterator in place. Nothing breaks if that ever stops (the lists
        // are then allocated per message), but the allocations come back.
        let frame = vec![0u8; 64];
        let mut keys: Vec<&[u8]> = Vec::with_capacity(400);
        keys.push(&frame[..8]);
        let mut requests: Vec<WireRequestRef> = Vec::with_capacity(800);
        requests.push(WireRequestRef::Get { key: &frame[8..] });
        let storage = (keys.as_ptr() as usize, requests.as_ptr() as usize);
        let keys: Vec<&'static [u8]> = recycled(keys);
        let requests: Vec<WireRequestRef<'static>> = recycled(requests);
        drop(frame);
        assert!(keys.is_empty() && requests.is_empty());
        assert_eq!((keys.capacity(), requests.capacity()), (400, 800));
        let kept = (keys.as_ptr() as usize, requests.as_ptr() as usize);
        assert_eq!(kept, storage);
    }

    #[test]
    fn written_keys_never_miss_a_written_key() {
        let keys: Vec<Vec<u8>> = (0..200u32)
            .map(|i| format!("{i:0width$}", width = (i % 23) as usize).into_bytes())
            .collect();
        let mut written = WrittenKeys::new();
        written.reset(0);
        assert!(!keys.iter().any(|key| written.may_contain(key)));
        for writes in [1, 2, 7, 64, 200] {
            written.reset(writes);
            keys[..writes].iter().for_each(|key| written.insert(key));
            assert!(keys[..writes].iter().all(|key| written.may_contain(key)));
            // Conservative, not vacuous: most other keys are told apart.
            let strangers = keys[writes..]
                .iter()
                .filter(|key| written.may_contain(key))
                .count();
            assert!(strangers <= 1, "{strangers} false positives of {writes}");
        }
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

    #[test]
    fn a_get_run_is_charged_once_not_once_per_key() {
        // One message of 64 Gets is one `get_batch` run: `get_ns` must hold
        // 64 observations that together add up to the run's time, not 64
        // copies of it. The wall time around the whole `run` bounds the sum.
        if !wh_telemetry::enabled() {
            return;
        }
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

    /// A `Wormhole` whose `get` panics.
    struct PanickingGets(Wormhole<u64>);

    impl ConcurrentOrderedIndex<u64> for PanickingGets {
        fn name(&self) -> &'static str {
            "panicking-gets"
        }
        fn get(&self, _: &[u8]) -> Option<u64> {
            panic!("a get that panics");
        }
        fn set(&self, key: &[u8], value: u64) -> Option<u64> {
            self.0.set(key, value)
        }
        fn del(&self, key: &[u8]) -> Option<u64> {
            self.0.del(key)
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn scan<'a>(&'a self, start: &[u8]) -> index_traits::Cursor<'a, u64> {
            self.0.scan(start)
        }
        fn stats(&self) -> index_traits::IndexStats {
            self.0.stats()
        }
    }

    #[test]
    fn a_serving_thread_panic_ends_the_run_and_reaches_the_caller() {
        // The server thread panics in its first message; the client sees
        // the response channel close, every thread is joined, and `run`
        // raises the server's panic with its own message.
        let index = Arc::new(PanickingGets(Wormhole::new()));
        let requests: Vec<WireRequest> = (0..100u64)
            .map(|i| WireRequest::Get {
                key: format!("key-{i:08}").into_bytes(),
            })
            .collect();
        let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let index: Arc<dyn ConcurrentOrderedIndex<u64>> = index.clone();
            KvService::with_batch_size(index, 10).run(&requests)
        }));
        let payload = served.expect_err("the panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"a get that panics"));
        assert_eq!(
            Arc::strong_count(&index),
            1,
            "a serving thread outlived run"
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
