//! Differential test for the execution plan: a server thread may answer a
//! `Get` ahead of its slot only when no `Set` in the same share of the
//! message writes its key.
//!
//! The streams here are random Get/Set/Scan/Range mixes over a **16-key
//! alphabet**, so every share of every message holds many Gets and Sets on
//! one key, and every `Set` writes a value no other request writes. The
//! point responses are then fully determined by per-key program order
//! (ADR-003), and a sequential `BTreeMap` replay predicts each of them: a
//! `Get` hoisted over a `Set` on its own key reads the value before the
//! write and is caught by value. Multi-key reads are concurrent snapshots
//! under more than one worker; they are checked for ascending keys and for
//! holding, per key, only a value some `Set` (or the preload) gave that
//! key — and, where one thread executes the whole message, for equality
//! with the replay.
//!
//! **This test fails when the written-key check is removed** (make
//! `WrittenKeys::may_contain` in `service.rs` answer `false` and every
//! configuration below reports a stale `Get` within its first messages).
//! The benchmark cannot see that: `serve-mixed`'s Sets rewrite the value a
//! key already has.
//!
//! Round counts scale with `WH_STRESS_MULT` for the nightly soak.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use index_traits::ConcurrentOrderedIndex;
use netsim::{KvService, ShardServer, WireRequest, WireResponse};
use wh_shard::{ShardedConfig, ShardedWormhole};

const ALPHABET: usize = 16;
const BATCH_SIZES: [usize; 4] = [1, 7, 128, 800];
const STREAM: usize = 2400;

fn stress_mult() -> u64 {
    std::env::var("WH_STRESS_MULT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

fn key(i: usize) -> Vec<u8> {
    format!("key-{i:02}").into_bytes()
}

/// The even keys, each holding its own number.
fn preload() -> BTreeMap<Vec<u8>, u64> {
    (0..ALPHABET)
        .step_by(2)
        .map(|i| (key(i), i as u64))
        .collect()
}

fn sharded() -> Arc<ShardedWormhole<u64>> {
    let sample: Vec<Vec<u8>> = (0..ALPHABET).map(key).collect();
    let index = ShardedWormhole::with_config(ShardedConfig::from_sample(4, &sample));
    for (key, value) in preload() {
        index.set(&key, value);
    }
    Arc::new(index)
}

/// splitmix64: the stream is a pure function of the seed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 60 % Get, 25 % Set (value = 1000 + slot, so no two Sets agree),
/// 8 % Scan, 7 % Range.
fn stream(seed: u64) -> Vec<WireRequest> {
    let mut state = seed;
    (0..STREAM)
        .map(|slot| {
            let key = key(next(&mut state) as usize % ALPHABET);
            match next(&mut state) % 100 {
                0..60 => WireRequest::Get { key },
                60..85 => WireRequest::Set {
                    key,
                    value: 1000 + slot as u64,
                },
                85..93 => WireRequest::Scan {
                    start: key,
                    limit: 1 + (next(&mut state) % 5) as u32,
                },
                _ => WireRequest::Range {
                    start: key,
                    count: (next(&mut state) % 20) as u32,
                },
            }
        })
        .collect()
}

/// Replays `requests` on a `BTreeMap` and checks `responses` against it.
/// `one_thread`: the whole of every message ran on one thread, so multi-key
/// reads are deterministic too.
fn check(requests: &[WireRequest], responses: &[WireResponse], one_thread: bool, what: &str) {
    assert_eq!(responses.len(), requests.len(), "{what}");
    let mut model = preload();
    let mut ever: BTreeMap<Vec<u8>, BTreeSet<u64>> = model
        .iter()
        .map(|(key, &value)| (key.clone(), BTreeSet::from([value])))
        .collect();
    for request in requests {
        if let WireRequest::Set { key, value } = request {
            ever.entry(key.clone()).or_default().insert(*value);
        }
    }
    let value_or_miss = |value: Option<u64>| value.map_or(WireResponse::Miss, WireResponse::Value);
    let check_pairs = |items: &[(Vec<u8>, u64)], start: &[u8], slot: usize| {
        assert!(
            items.windows(2).all(|pair| pair[0].0 < pair[1].0),
            "{what}: slot {slot} pairs out of order"
        );
        for (key, value) in items {
            assert!(key.as_slice() >= start, "{what}: slot {slot} before start");
            assert!(
                ever.get(key).is_some_and(|values| values.contains(value)),
                "{what}: slot {slot} holds {value} under {key:?}, which nothing wrote"
            );
        }
    };
    for (slot, (request, got)) in requests.iter().zip(responses).enumerate() {
        match request {
            WireRequest::Get { key } => {
                let want = value_or_miss(model.get(key).copied());
                assert_eq!(*got, want, "{what}: Get at slot {slot} of {key:?}");
            }
            WireRequest::Set { key, value } => {
                let want = value_or_miss(model.insert(key.clone(), *value));
                assert_eq!(*got, want, "{what}: Set at slot {slot} of {key:?}");
            }
            WireRequest::Range { start, count } => {
                let WireResponse::Range(items) = got else {
                    panic!("{what}: slot {slot} answered {got:?} to a Range");
                };
                assert!(items.len() <= *count as usize);
                check_pairs(items, start, slot);
                if one_thread {
                    let want: Vec<(Vec<u8>, u64)> = model
                        .range(start.clone()..)
                        .take(*count as usize)
                        .map(|(key, &value)| (key.clone(), value))
                        .collect();
                    assert_eq!(*items, want, "{what}: Range at slot {slot}");
                }
            }
            WireRequest::Scan { start, limit } => {
                let WireResponse::ScanPage { items, resume } = got else {
                    panic!("{what}: slot {slot} answered {got:?} to a Scan");
                };
                assert!(items.len() <= *limit as usize);
                assert_eq!(resume.is_some(), items.len() == *limit as usize);
                check_pairs(items, start, slot);
                if one_thread {
                    let want: Vec<(Vec<u8>, u64)> = model
                        .range(start.clone()..)
                        .take(*limit as usize)
                        .map(|(key, &value)| (key.clone(), value))
                        .collect();
                    assert_eq!(*items, want, "{what}: Scan at slot {slot}");
                }
            }
            WireRequest::Stats => unreachable!("the stream has no Stats"),
        }
    }
}

#[test]
fn hoisted_gets_never_pass_a_set_on_their_key() {
    for seed in 0..2 * stress_mult() {
        let requests = stream(seed);
        for batch_size in BATCH_SIZES {
            let unsharded: Arc<wormhole::Wormhole<u64>> = Arc::new(wormhole::Wormhole::new());
            for (key, value) in preload() {
                unsharded.set(&key, value);
            }
            let (stats, responses) =
                KvService::with_batch_size(unsharded, batch_size).run_collect(&requests);
            assert_eq!(stats.operations, STREAM);
            let what = format!("KvService, seed {seed}, batch {batch_size}");
            check(&requests, &responses, true, &what);

            for workers in [1, 2, 4] {
                let server = ShardServer::with_batch_size(sharded(), workers, batch_size);
                let (stats, responses) = server.run_collect(&requests);
                assert_eq!(stats.operations, STREAM);
                let what = format!("{workers} workers, seed {seed}, batch {batch_size}");
                check(&requests, &responses, workers == 1, &what);
                // The stream is what the doc says it is: in messages of any
                // size some Gets must wait for a Set, in large ones many.
                let in_place = server.metrics().gets_in_place.get();
                let hoisted = server.metrics().gets_hoisted.get();
                assert_eq!(
                    in_place + hoisted,
                    requests
                        .iter()
                        .filter(|r| matches!(r, WireRequest::Get { .. }))
                        .count() as u64
                );
                assert_eq!(in_place == 0, batch_size == 1, "{what}: {in_place}");
                server.index().check_invariants();
            }
        }
    }
}

#[test]
fn hoisted_gets_never_pass_a_set_on_their_key_under_migration() {
    // The boundary flipping of `serving_survives_migration_churn`: keys
    // change shards — and, with the epoch flush, workers — between and
    // inside runs while the same streams are served.
    let index = sharded();
    let stop = Arc::new(AtomicBool::new(false));
    let churn = {
        let index = Arc::clone(&index);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let (low, high) = (key(2), key(6));
            let mut flip = false;
            while !stop.load(Ordering::Relaxed) {
                let target = if flip { &low } else { &high };
                index.migrate_boundary(0, target).expect("valid target");
                flip = !flip;
            }
        })
    };
    for seed in 100..100 + 2 * stress_mult() {
        let requests = stream(seed);
        for batch_size in BATCH_SIZES {
            for workers in [2, 4] {
                // Every run starts from the preload, whatever the last left.
                for i in 0..ALPHABET {
                    match preload().get(&key(i)) {
                        Some(&value) => index.set(&key(i), value),
                        None => index.del(&key(i)),
                    };
                }
                let server = ShardServer::with_batch_size(Arc::clone(&index), workers, batch_size);
                let (_, responses) = server.run_collect(&requests);
                let what = format!("migrating, {workers} workers, seed {seed}, batch {batch_size}");
                check(&requests, &responses, false, &what);
            }
        }
    }
    stop.store(true, Ordering::Relaxed);
    churn.join().expect("churn thread");
    index.check_invariants();
}
