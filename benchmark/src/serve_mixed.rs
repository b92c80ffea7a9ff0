//! `serve-mixed`: a request stream through `ShardServer` over an index
//! small enough to stay cached, so that the codec, dispatch, channels and
//! reassembly do most of the work and the index little.

use std::hint::black_box;
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use index_traits::ConcurrentOrderedIndex;
use netsim::{ShardServer, WireRequest, WireResponse};

use crate::gen::{self, ServeStream};
use crate::host;
use crate::index_get::{sharded_front, ROUTE_SLICE};
use crate::probes;
use crate::reference::{self, Tree};
use crate::trace::{self, Name, Tracer};
use crate::workload::{
    median_over, Checked, Kind, Layers, Replay, Scale, Slice, Stopwatch, Workload, LOAD_CHUNK,
};

const RESIDENTS: usize = 100_000;
const ABSENT: usize = 10_000;
/// Requests of the stream; one throughput run sends them all.
const REQUESTS: usize = 400_000;
pub const WORKERS: usize = 2;
/// Requests per message; `ShardServer::new` fixes the same number.
const MESSAGE: usize = ROUTE_SLICE;
/// Requests of one latency run: the eight messages `run` keeps in flight.
const WINDOW: usize = 8 * MESSAGE;
/// Latency runs per round, over successive windows of the stream.
const WINDOWS_PER_ROUND: u64 = 16;
/// The reference replays at most this many requests of a run, from its
/// first on: enough for a steady reading, and a run of the whole stream
/// is not made a quarter longer by it.
const REPLAY_MAX: usize = 8 * WINDOW;

const STREAM_RUN: usize = 0;
const WINDOW_RUN: usize = 1;
const KINDS: [Kind; 2] = [
    Kind {
        name: "run of the stream",
        per_round: 1,
    },
    Kind {
        name: "run of one window",
        per_round: WINDOWS_PER_ROUND,
    },
];

pub struct ServeMixed {
    resident: Vec<Vec<u8>>,
    values: Vec<u64>,
    stream: ServeStream,
    gen_s: f64,
    server: Option<ShardServer>,
    next_window: usize,
    runs_done: u64,
    /// The resident pairs in an ordered map, and the requests of the last
    /// run.
    reference: Option<Tree>,
    last_run: (usize, usize),
}

/// The kind of the `n`th run: every round is one run of the whole stream
/// and then its window runs.
fn kind_of_run(n: u64) -> usize {
    if n.is_multiple_of(1 + WINDOWS_PER_ROUND) {
        STREAM_RUN
    } else {
        WINDOW_RUN
    }
}

impl ServeMixed {
    /// Also confines the process to the CPU it is on. `ShardServer::run`
    /// starts a dispatcher, the workers and a collector beside the client:
    /// five threads for two CPUs, and where the scheduler puts them decides
    /// more of a run's time than the code does (window runs of one seed
    /// spread by a third of their median, on one CPU by a twelfth). On one
    /// CPU the stages take turns, and a run costs what its work costs.
    pub fn new(seed: u64, scale: Scale) -> Self {
        host::confine_to_current_cpu();
        let (mut resident, gen_s) = gen::keys(scale.of(RESIDENTS + ABSENT), seed);
        let absent = resident.split_off(scale.of(RESIDENTS));
        let values: Vec<u64> = resident.iter().map(|k| gen::value_of(k)).collect();
        let stream = gen::serve_stream(&resident, &values, &absent, scale.of(REQUESTS), seed);
        Self {
            resident,
            values,
            stream,
            gen_s,
            server: None,
            next_window: 0,
            runs_done: 0,
            reference: None,
            last_run: (0, 0),
        }
    }

    /// How far `run`'s account of `requests[from..to]` is from what the
    /// stream says it must be.
    fn miscount(&self, stats: &netsim::ServiceStats, from: usize, to: usize) -> u64 {
        let hits = (self.stream.hits_before[to] - self.stream.hits_before[from]) as usize;
        (stats.operations.abs_diff(to - from) + stats.hits.abs_diff(hits)) as u64
    }
}

fn routing_key(request: &WireRequest) -> &[u8] {
    match request {
        WireRequest::Get { key } | WireRequest::Set { key, .. } => key,
        WireRequest::Scan { start, .. } | WireRequest::Range { start, .. } => start,
        WireRequest::Stats => b"",
    }
}

/// What a worker does with its share of a message.
enum Step<'a> {
    GetRun(Vec<&'a [u8]>),
    Set(&'a [u8], u64),
    Scan(&'a [u8], usize),
}

/// The stream as the workers execute it: each message split by the worker
/// that owns each request's shard, and each worker's share cut into runs
/// of consecutive `Get`s and the single `Set`s and `Scan`s between them.
fn execution_plan<'a>(
    index: &wh_shard::ShardedWormhole<u64>,
    requests: &'a [WireRequest],
) -> Vec<Step<'a>> {
    let mut plan = Vec::new();
    let mut routes = Vec::with_capacity(MESSAGE);
    for message in requests.chunks(MESSAGE) {
        let keys: Vec<&[u8]> = message.iter().map(routing_key).collect();
        routes.clear();
        index.route_batch(&keys, &mut routes);
        for worker in 0..WORKERS {
            let mut run: Vec<&[u8]> = Vec::new();
            let share = message
                .iter()
                .zip(&routes)
                .filter(|(_, &shard)| shard * WORKERS / index.shard_count() == worker);
            for (request, _) in share {
                if let WireRequest::Get { key } = request {
                    run.push(key);
                    continue;
                }
                if !run.is_empty() {
                    plan.push(Step::GetRun(std::mem::take(&mut run)));
                }
                match request {
                    WireRequest::Set { key, value } => plan.push(Step::Set(key, *value)),
                    WireRequest::Scan { start, limit } => {
                        plan.push(Step::Scan(start, *limit as usize))
                    }
                    other => unreachable!("the stream has no {other:?}"),
                }
            }
            if !run.is_empty() {
                plan.push(Step::GetRun(run));
            }
        }
    }
    plan
}

impl Workload for ServeMixed {
    fn gen_seconds(&self) -> f64 {
        self.gen_s
    }
    fn stream_hash(&self) -> u64 {
        self.stream.hash
    }
    fn keys(&self) -> &[Vec<u8>] {
        &self.resident
    }
    fn resident_keys(&self) -> usize {
        self.resident.len()
    }
    fn kinds(&self) -> &'static [Kind] {
        &KINDS
    }
    /// One round.
    fn trace_leg_slices(&self) -> usize {
        1 + WINDOWS_PER_ROUND as usize
    }
    fn tear_down(&mut self) {
        self.server = None;
    }

    fn set_up(&mut self, lap: &mut dyn FnMut()) {
        let index = sharded_front(&self.resident);
        lap();
        let chunks = self.resident.chunks(LOAD_CHUNK);
        for (keys, values) in chunks.zip(self.values.chunks(LOAD_CHUNK)) {
            for (key, &value) in keys.iter().zip(values) {
                index.set(key, value);
            }
            lap();
        }
        self.server = Some(ShardServer::new(Arc::new(index), WORKERS));
        lap();
    }

    /// One `ShardServer::run`: over the whole stream, or over the next
    /// window of it, whose wall time is one call sample.
    fn slice(&mut self, tracer: &mut Option<&mut Tracer>, calls: &mut Vec<u32>) -> Slice {
        let server = self.server.as_ref().expect("set up");
        let requests = &self.stream.requests;
        let kind = kind_of_run(self.runs_done);
        let (from, to) = if kind == STREAM_RUN {
            (0, requests.len())
        } else {
            let from = self.next_window * WINDOW;
            self.next_window = (self.next_window + 1) % (requests.len() / WINDOW).max(1);
            (from, (from + WINDOW).min(requests.len()))
        };

        let watch = Stopwatch::start();
        let stats = trace::call(tracer, true, Name::ClientRun, self.runs_done, || {
            server.run(&requests[from..to])
        });
        let (wall_s, cpu_ns) = watch.stop();
        if kind == WINDOW_RUN {
            calls.push((wall_s * 1e9) as u32);
        }
        self.runs_done += 1;
        self.last_run = (from, to);
        Slice {
            kind,
            ops: (to - from) as u64,
            wall_s,
            cpu_ns,
            attempted: (to - from) as u64,
            failed: self.miscount(&stats, from, to),
        }
    }

    fn set_up_reference(&mut self) {
        self.reference = Some(reference::tree_of(&self.resident, &self.values));
    }

    /// The first requests of the last run applied straight to the ordered
    /// map: no codec, no threads.
    fn replay(&mut self) -> Replay {
        let tree = self.reference.as_mut().expect("reference set up");
        let (from, to) = self.last_run;
        let to = to.min(from + REPLAY_MAX);
        let pairs = self.stream.requests[from..to]
            .iter()
            .zip(&self.stream.expected[from..to]);
        reference::timed((to - from) as u64, || {
            let mut wrong = 0;
            for (request, want) in pairs {
                let ok = match (request, want) {
                    (WireRequest::Get { key }, WireResponse::Value(value)) => {
                        tree.get(key) == Some(value)
                    }
                    (WireRequest::Get { key }, _) => !tree.contains_key(key),
                    (WireRequest::Set { key, value }, _) => {
                        tree.get_mut(key)
                            .map(|slot| std::mem::replace(slot, *value))
                            == Some(*value)
                    }
                    (WireRequest::Scan { start, limit }, WireResponse::ScanPage { items, .. }) => {
                        reference::scan(tree, start, *limit as usize).0 == items.len()
                    }
                    _ => false,
                };
                wrong += u64::from(!ok);
            }
            wrong
        })
    }

    /// One untimed run that keeps every response and compares each with
    /// the one the stream says its request must get.
    fn verify(&mut self) -> Checked {
        let server = self.server.as_ref().expect("set up");
        let (_, responses) = server.run_collect(&self.stream.requests);
        let wrong = responses
            .iter()
            .zip(&self.stream.expected)
            .filter(|(got, want)| got != want)
            .count();
        Checked {
            attempted: self.stream.requests.len() as u64,
            failed: (wrong + responses.len().abs_diff(self.stream.expected.len())) as u64,
        }
    }

    fn probe_layers(&mut self, tracer: &mut Tracer, layers: &mut Layers, slices: &[Slice]) {
        let server = self.server.as_ref().expect("set up");
        let index = server.index();
        let (requests, responses) = (&self.stream.requests, &self.stream.expected);
        let count = requests.len();

        // netsim.wire: the stream's own messages through the codec, the
        // four passes every request makes through it in a `run`.
        let mut request_frames: Vec<Bytes> = Vec::new();
        let encode_req = probes::timed_loop(tracer, Name::WireEncodeReq, 0, count, || {
            for message in requests.chunks(MESSAGE) {
                let mut buf = BytesMut::with_capacity(message.len() * 32);
                message.iter().for_each(|request| request.encode(&mut buf));
                request_frames.push(buf.freeze());
            }
        });
        let decode_req = probes::timed_loop(tracer, Name::WireDecodeReq, 0, count, || {
            for frame in &request_frames {
                let mut frame = frame.clone();
                while let Some(request) = WireRequest::decode(&mut frame) {
                    black_box(request);
                }
            }
        });
        let mut response_frames: Vec<Bytes> = Vec::new();
        let encode_resp = probes::timed_loop(tracer, Name::WireEncodeResp, 0, count, || {
            for message in responses.chunks(MESSAGE) {
                let mut buf = BytesMut::with_capacity(message.len() * 16);
                message
                    .iter()
                    .for_each(|response| response.encode(&mut buf));
                response_frames.push(buf.freeze());
            }
        });
        let decode_resp = probes::timed_loop(tracer, Name::WireDecodeResp, 0, count, || {
            for frame in &response_frames {
                let mut frame = frame.clone();
                while let Some(response) = WireResponse::decode(&mut frame) {
                    black_box(response);
                }
            }
        });
        layers.set("netsim.wire.encode_req_ns", encode_req);
        layers.set("netsim.wire.decode_req_ns", decode_req);
        layers.set("netsim.wire.encode_resp_ns", encode_resp);
        layers.set("netsim.wire.decode_resp_ns", decode_resp);
        let bytes = |frames: &[Bytes]| frames.iter().map(Bytes::len).sum::<usize>() as f64;
        layers.set(
            "netsim.wire.req_bytes_per_op",
            bytes(&request_frames) / count as f64,
        );
        layers.set(
            "netsim.wire.resp_bytes_per_op",
            bytes(&response_frames) / count as f64,
        );

        // wh-shard: what the dispatcher pays to route a message.
        let routing_keys: Vec<&[u8]> = requests.iter().map(routing_key).collect();
        let mut routes = Vec::with_capacity(MESSAGE);
        let route = probes::median_of_3(tracer, Name::ShardRouteBatch, count, || {
            for message in routing_keys.chunks(MESSAGE) {
                routes.clear();
                black_box(index.route_batch(message, &mut routes));
            }
        });
        layers.set("wh-shard.route_batch_ns_per_key", route);

        // netsim.server: the index work of the stream, made the way the
        // workers make it but on this thread, with nothing in between.
        let plan = execution_plan(index, requests);
        let exec = probes::median_of_3(tracer, Name::ServerExec, count, || {
            for step in &plan {
                match step {
                    Step::GetRun(keys) => drop(black_box(index.get_batch(keys))),
                    Step::Set(key, value) => drop(black_box(index.set(key, *value))),
                    Step::Scan(start, limit) => drop(black_box(index.scan_page(start, *limit))),
                }
            }
        });
        layers.set("netsim.server.exec_ns_per_op", exec);
        let runs: Vec<usize> = plan
            .iter()
            .filter_map(|step| match step {
                Step::GetRun(keys) => Some(keys.len()),
                _ => None,
            })
            .collect();
        layers.set(
            "netsim.server.get_run_len_mean",
            runs.iter().sum::<usize>() as f64 / runs.len().max(1) as f64,
        );

        // What is left of a request's CPU time once codec, routing and
        // index work are taken out: channels, splitting, reassembly,
        // wake-ups.
        let cpu = median_over(slices, STREAM_RUN, Slice::cpu_ns_per_op);
        let explained = encode_req + decode_req + encode_resp + decode_resp + route + exec;
        layers.set("netsim.server.self_cpu_ns_per_op", cpu - explained);
        layers.set("netsim.server.explained_pct", explained / cpu * 100.0);

        let startup = probes::median_of_3(tracer, Name::ServerRunEmpty, 16, || {
            for _ in 0..16 {
                black_box(server.run(&[]));
            }
        });
        layers.set("netsim.server.run_startup_ns", startup);

        let service = server.metrics();
        layers.set(
            "netsim.server.get_mean_ns",
            service.get_ns.snapshot().mean(),
        );
        layers.set(
            "netsim.server.set_mean_ns",
            service.set_ns.snapshot().mean(),
        );
        layers.set(
            "netsim.server.scan_mean_ns",
            service.scan_ns.snapshot().mean(),
        );
        let serving = server.server_metrics();
        layers.set(
            "netsim.server.dispatch_route_ns_per_msg",
            serving.dispatch_route_ns.snapshot().mean(),
        );
        layers.set(
            "netsim.server.epoch_flushes",
            serving.epoch_flushes.get() as f64,
        );

        let mut exposition = String::new();
        let render = probes::median_of_3(tracer, Name::TelemetryRender, 1, || {
            exposition = server.registry().snapshot().render();
        });
        layers.set("wh-telemetry.render_ns", render);
        layers.set("wh-telemetry.stats_bytes", exposition.len() as f64);

        probes::front_counters(index, layers);
        probes::structure(layers, index.stats(), index.leaf_count());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_are_counted_exactly_and_every_response_compared() {
        let mut workload = ServeMixed::new(13, Scale { quick: true });
        let mut laps = 0;
        workload.set_up(&mut || laps += 1);
        assert_eq!(laps, 1 + 5_000usize.div_ceil(LOAD_CHUNK) + 1);
        let mut calls = Vec::new();
        workload.set_up_reference();
        let mut round = || -> Vec<Slice> {
            (0..workload.trace_leg_slices())
                .map(|_| {
                    let run = workload.slice(&mut None, &mut calls);
                    let replay = workload.replay();
                    assert_eq!(replay.wrong, 0);
                    assert_eq!(replay.ops, run.ops.min(REPLAY_MAX as u64));
                    run
                })
                .collect()
        };
        let slices = round();
        assert!(slices.iter().all(|s| s.failed == 0));
        assert_eq!((slices[0].kind, slices[0].ops), (STREAM_RUN, 20_000));
        // 20 000 requests hold three whole windows, which the round's
        // sixteen window runs walk around.
        assert!(slices[1..]
            .iter()
            .all(|s| (s.kind, s.ops) == (WINDOW_RUN, WINDOW as u64)));
        assert_eq!(round()[0].kind, STREAM_RUN);
        assert_eq!(calls.len(), 2 * WINDOWS_PER_ROUND as usize);
        assert_eq!(workload.verify().failed, 0);

        // Remove a key some request reads: the hit count of the timed run
        // and the response comparison must both notice.
        let key = workload
            .stream
            .requests
            .iter()
            .find_map(|request| match request {
                WireRequest::Get { key } if workload.resident.contains(key) => Some(key.clone()),
                _ => None,
            })
            .unwrap();
        workload.server.as_ref().unwrap().index().del(&key);
        assert!(workload.slice(&mut None, &mut calls).failed >= 1);
        assert!(workload.verify().failed >= 1);
    }

    #[test]
    fn the_plan_executes_every_request_once() {
        let mut workload = ServeMixed::new(13, Scale { quick: true });
        workload.set_up(&mut || ());
        let server = workload.server.as_ref().unwrap();
        let plan = execution_plan(server.index(), &workload.stream.requests);
        let executed: usize = plan
            .iter()
            .map(|step| match step {
                Step::GetRun(keys) => keys.len(),
                Step::Set(..) | Step::Scan(..) => 1,
            })
            .sum();
        assert_eq!(executed, workload.stream.requests.len());
    }

    #[test]
    fn the_residual_is_what_the_timed_parts_leave() {
        let mut workload = ServeMixed::new(13, Scale { quick: true });
        workload.set_up(&mut || ());
        let mut tracer = Tracer::new();
        let round = workload.slice(&mut Some(&mut tracer), &mut Vec::new());
        let mut layers = Layers::default();
        workload.probe_layers(&mut tracer, &mut layers, &[round]);
        let timed: f64 = [
            "netsim.wire.encode_req_ns",
            "netsim.wire.decode_req_ns",
            "netsim.wire.encode_resp_ns",
            "netsim.wire.decode_resp_ns",
            "wh-shard.route_batch_ns_per_key",
            "netsim.server.exec_ns_per_op",
        ]
        .iter()
        .map(|name| layers.get(name))
        .sum();
        let cpu = round.cpu_ns_per_op();
        let residual = layers.get("netsim.server.self_cpu_ns_per_op");
        assert!((timed + residual - cpu).abs() < 1e-6 * cpu);
        let explained = layers.get("netsim.server.explained_pct");
        assert!((explained - timed / cpu * 100.0).abs() < 1e-9);
        assert!(layers.get("wh-telemetry.stats_bytes") > 0.0);
        assert_eq!(layers.get("netsim.server.epoch_flushes"), 0.0);
    }
}
