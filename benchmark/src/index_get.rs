//! `index-get`: point lookups on a resident set far larger than the
//! private caches, one at a time and through `get_batch`.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use index_traits::ConcurrentOrderedIndex;
use wh_shard::ShardedWormhole;

use crate::gen::{self, GetStream};
use crate::probes;
use crate::reference::{self, Tree};
use crate::trace::{self, Name, Tracer, SPAN_SAMPLE};
use crate::workload::{
    Checked, Kind, Layers, Replay, Scale, Slice, Stopwatch, Workload, CALL_SAMPLE, LOAD_CHUNK,
};

const RESIDENTS: usize = 1_200_000;
const ABSENT: usize = 120_000;
/// Keys a slice looks up one at a time, and as many more through
/// `get_batch`.
const SLICE_KEYS: usize = 2048;
/// Slices in one pass over the lookup stream.
const PASS_SLICES: usize = 72;
pub const SHARDS: usize = 4;
const BATCH_KEYS: usize = 32;
const KINDS: [Kind; 1] = [Kind {
    name: "lookups",
    per_round: 1,
}];
/// Keys of the hot subset, small enough to stay in the private caches.
const HOT_KEYS: usize = 4096;
/// Keys per `route_batch` call, the message size of the serving layer.
pub const ROUTE_SLICE: usize = 800;

pub struct IndexGet {
    resident: Vec<Vec<u8>>,
    values: Vec<u64>,
    stream: GetStream,
    gen_s: f64,
    index: Option<ShardedWormhole<u64>>,
    slices_done: u64,
    /// The resident pairs in an ordered map and in a hash map: the single
    /// `get`s wait for one miss after the other like the first, the
    /// batched ones overlap theirs like the second.
    reference: Option<(Tree, HashMap<Vec<u8>, u64>)>,
}

/// A front of [`SHARDS`] shards whose boundaries are quantiles of a sample
/// of the keys: `Az1` keys all start with the same byte, so an even split
/// of the byte space would leave three shards empty.
pub fn sharded_front(keys: &[Vec<u8>]) -> ShardedWormhole<u64> {
    ShardedWormhole::from_sample(SHARDS, &keys[..keys.len().min(4096)])
}

impl IndexGet {
    pub fn new(seed: u64, scale: Scale) -> Self {
        let (mut resident, gen_s) = gen::keys(scale.of(RESIDENTS + ABSENT), seed);
        let absent = resident.split_off(scale.of(RESIDENTS));
        let values: Vec<u64> = resident.iter().map(|k| gen::value_of(k)).collect();
        let lookups = scale.of(PASS_SLICES * SLICE_KEYS) / (2 * SLICE_KEYS) * (2 * SLICE_KEYS);
        let stream = gen::get_stream(&resident, &values, &absent, lookups, seed);
        Self {
            resident,
            values,
            stream,
            gen_s,
            index: None,
            slices_done: 0,
            reference: None,
        }
    }

    /// Where in the stream slice number `n` takes its single `get`s and
    /// where its batched ones: the keys half a pass further on, which the
    /// single `get`s of the slice did not just pull into the caches.
    fn offsets(&self, n: u64) -> (usize, usize) {
        let pass = self.stream.keys.len() / SLICE_KEYS;
        let single = (n as usize % pass) * SLICE_KEYS;
        (
            single,
            (single + pass / 2 * SLICE_KEYS) % self.stream.keys.len(),
        )
    }
}

impl Workload for IndexGet {
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
    /// One pass over the lookup stream.
    fn trace_leg_slices(&self) -> usize {
        self.stream.keys.len() / SLICE_KEYS
    }
    fn tear_down(&mut self) {
        self.index = None;
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
        self.index = Some(index);
    }

    /// [`SLICE_KEYS`] single `get`s, then as many keys through `get_batch`.
    /// Over one pass both ways look up every key of the stream once.
    fn slice(&mut self, tracer: &mut Option<&mut Tracer>, calls: &mut Vec<u32>) -> Slice {
        let (single, batched) = self.offsets(self.slices_done);
        let index = self.index.as_ref().expect("set up");
        let (keys, expected) = (&self.stream.keys, &self.stream.expected);
        let op_base = self.slices_done * 2 * SLICE_KEYS as u64;
        let mut failed = 0u64;
        let watch = Stopwatch::start();

        for (i, want) in expected.iter().enumerate().skip(single).take(SLICE_KEYS) {
            let key = keys.get(i);
            let clock = (i % CALL_SAMPLE == 0).then(Instant::now);
            let got = trace::call(
                tracer,
                i % SPAN_SAMPLE == 0,
                Name::ShardGet,
                op_base + (i - single) as u64,
                || index.get(key),
            );
            if let Some(clock) = clock {
                calls.push(clock.elapsed().as_nanos() as u32);
            }
            failed += u64::from(got != *want);
        }

        let mut window: Vec<&[u8]> = Vec::with_capacity(BATCH_KEYS);
        for from in (batched..batched + SLICE_KEYS).step_by(BATCH_KEYS) {
            let to = from + BATCH_KEYS;
            window.clear();
            window.extend((from..to).map(|i| keys.get(i)));
            let got = trace::call(
                tracer,
                (from / BATCH_KEYS).is_multiple_of(SPAN_SAMPLE),
                Name::ShardGetBatch,
                op_base + (SLICE_KEYS + from - batched) as u64,
                || index.get_batch(&window),
            );
            failed += u64::from(got.len() != BATCH_KEYS);
            for (got, want) in got.iter().zip(&expected[from..to]) {
                failed += u64::from(got != want);
            }
        }

        let (wall_s, cpu_ns) = watch.stop();
        self.slices_done += 1;
        Slice {
            kind: 0,
            ops: 2 * SLICE_KEYS as u64,
            wall_s,
            cpu_ns,
            attempted: 2 * SLICE_KEYS as u64,
            failed,
        }
    }

    fn set_up_reference(&mut self) {
        self.reference = Some((
            reference::tree_of(&self.resident, &self.values),
            self.resident
                .iter()
                .cloned()
                .zip(self.values.iter().copied())
                .collect(),
        ));
    }

    /// The single `get`s of the last slice in the ordered map, its batched
    /// ones in the hash map.
    fn replay(&mut self) -> Replay {
        let (single, batched) = self.offsets(self.slices_done - 1);
        let (tree, hash) = self.reference.as_ref().expect("reference set up");
        let (keys, expected) = (&self.stream.keys, &self.stream.expected);
        reference::timed(2 * SLICE_KEYS as u64, || {
            let mut wrong = 0;
            for (i, want) in expected.iter().enumerate().skip(single).take(SLICE_KEYS) {
                wrong += u64::from(tree.get(keys.get(i)).copied() != *want);
            }
            for (i, want) in expected.iter().enumerate().skip(batched).take(SLICE_KEYS) {
                wrong += u64::from(hash.get(keys.get(i)).copied() != *want);
            }
            wrong
        })
    }

    fn verify(&mut self) -> Checked {
        let index = self.index.as_ref().expect("set up");
        Checked {
            attempted: 1,
            failed: u64::from(index.len() != self.resident.len()),
        }
    }

    fn probe_layers(&mut self, tracer: &mut Tracer, layers: &mut Layers, _slices: &[Slice]) {
        let index = self.index.as_ref().expect("set up");
        let (keys, expected) = (&self.stream.keys, &self.stream.expected);
        let hits: Vec<&[u8]> = (0..keys.len())
            .filter(|&i| expected[i].is_some())
            .map(|i| keys.get(i))
            .collect();
        let misses: Vec<&[u8]> = (0..keys.len())
            .filter(|&i| expected[i].is_none())
            .map(|i| keys.get(i))
            .collect();
        let shard_of_hit: Vec<usize> = hits.iter().map(|k| index.shard_for(k)).collect();

        // The same keys in the same order through the front and straight
        // into the owning shard: the difference is the router's.
        let routed_ns = probes::median_of_3(tracer, Name::ShardGet, hits.len(), || {
            for key in &hits {
                black_box(index.get(key));
            }
        });
        let get_ns = probes::median_of_3(tracer, Name::WormholeGet, hits.len(), || {
            for (key, &shard) in hits.iter().zip(&shard_of_hit) {
                black_box(index.shard(shard).get(key));
            }
        });
        layers.set("wormhole.get_ns", get_ns);
        layers.set("wh-shard.router_self_ns", routed_ns - get_ns);

        let miss_ns = probes::median_of_3(tracer, Name::WormholeGetMiss, misses.len(), || {
            for key in &misses {
                black_box(index.shard_of(key).get(key));
            }
        });
        layers.set("wormhole.get_miss_ns", miss_ns);

        // Same index, but a subset that stays cached: compute without the
        // memory stalls. The stalls are the difference.
        let hot = &self.resident[..self.resident.len().min(HOT_KEYS)];
        let hot_shards: Vec<usize> = hot.iter().map(|k| index.shard_for(k)).collect();
        let passes = (hits.len() / hot.len()).max(1);
        let hot_ns = probes::median_of_3(tracer, Name::WormholeGetHot, passes * hot.len(), || {
            for _ in 0..passes {
                for (key, &shard) in hot.iter().zip(&hot_shards) {
                    black_box(index.shard(shard).get(key));
                }
            }
        });
        layers.set("wormhole.get_hot_ns", hot_ns);
        layers.set("wormhole.get_stall_ns", get_ns - hot_ns);

        // `get_batch` of one shard, on windows of keys that shard owns.
        let mut by_shard: Vec<Vec<&[u8]>> = vec![Vec::new(); index.shard_count()];
        for (key, &shard) in hits.iter().zip(&shard_of_hit) {
            by_shard[shard].push(key);
        }
        let restarts_before = index.wormhole_metrics().lpm_restarts.get();
        let batch_ns = probes::median_of_3(tracer, Name::WormholeGetBatch, hits.len(), || {
            for (shard, keys) in by_shard.iter().enumerate() {
                for window in keys.chunks(BATCH_KEYS) {
                    black_box(index.shard(shard).get_batch(window));
                }
            }
        });
        layers.set("wormhole.get_batch_ns_per_key", batch_ns);
        let restarts = index.wormhole_metrics().lpm_restarts.get() - restarts_before;
        layers.set(
            "wormhole.lpm_restarts_per_kkey",
            restarts as f64 * 1e3 / (3 * hits.len()) as f64,
        );

        let mut routes = Vec::with_capacity(ROUTE_SLICE);
        let route_ns = probes::median_of_3(tracer, Name::ShardRouteBatch, hits.len(), || {
            for slice in hits.chunks(ROUTE_SLICE) {
                routes.clear();
                black_box(index.route_batch(slice, &mut routes));
            }
        });
        layers.set("wh-shard.route_batch_ns_per_key", route_ns);

        probes::front_counters(index, layers);
        probes::structure(layers, index.stats(), index.leaf_count());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_lookup_is_checked_and_a_wrong_value_counts() {
        let mut workload = IndexGet::new(9, Scale { quick: true });
        let mut laps = 0;
        workload.set_up(&mut || laps += 1);
        assert_eq!(laps, 1 + 60_000usize.div_ceil(LOAD_CHUNK));
        let index = workload.index.as_ref().unwrap();
        assert_eq!(index.shard_count(), SHARDS);
        assert!(
            (0..SHARDS).all(|i| index.shard(i).len() > 0),
            "keys in every shard"
        );

        // A twentieth of a pass, cut to a whole number of slice pairs.
        let pass = workload.trace_leg_slices();
        assert_eq!(pass, 2);
        let mut calls = Vec::new();
        workload.set_up_reference();
        for _ in 0..pass {
            let clean = workload.slice(&mut None, &mut calls);
            assert_eq!((clean.failed, clean.ops), (0, 2 * SLICE_KEYS as u64));
            let replay = workload.replay();
            assert_eq!((replay.wrong, replay.ops), (0, clean.ops));
        }
        assert_eq!(calls.len(), (pass * SLICE_KEYS).div_ceil(CALL_SAMPLE));
        assert_eq!(workload.verify().failed, 0);

        // Spoil the value of the first key the stream finds resident: over
        // a pass both the single get and the batched one must notice.
        let hit = (0..workload.stream.keys.len())
            .find(|&i| workload.stream.expected[i].is_some())
            .unwrap();
        let index = workload.index.as_ref().unwrap();
        index.set(workload.stream.keys.get(hit), 0);
        let failed: u64 = (0..pass)
            .map(|_| workload.slice(&mut None, &mut calls).failed)
            .sum();
        assert!(failed >= 2);
    }

    #[test]
    fn traced_rounds_and_probes_fill_the_layer_metrics() {
        let mut workload = IndexGet::new(9, Scale { quick: true });
        workload.set_up(&mut || ());
        let mut tracer = Tracer::new();
        let slice = workload.slice(&mut Some(&mut tracer), &mut Vec::new());
        assert_eq!(slice.failed, 0);
        let mut layers = Layers::default();
        workload.probe_layers(&mut tracer, &mut layers, &[slice]);
        for name in [
            "wormhole.get_ns",
            "wormhole.get_miss_ns",
            "wormhole.get_hot_ns",
            "wormhole.get_batch_ns_per_key",
            "wh-shard.route_batch_ns_per_key",
            "wormhole.keys_per_leaf",
        ] {
            assert!(layers.get(name) > 0.0, "{name}");
        }
        assert_eq!(layers.get("wh-shard.router_fast_share"), 1.0);
        assert_eq!(layers.get("wh-shard.router_section_entries"), 0.0);
        assert_eq!(layers.get("netsim.wire.encode_req_ns"), 0.0);
    }
}
