//! Differential test for the streaming-scan RPC: a scan drained over the
//! wire as many small [`WireRequest::Scan`] pages — with boundary
//! migrations forced *between* pages — must be byte-identical to one
//! in-process drain of the index's resumable cursor.
//!
//! This pins the two halves of the stateless-continuation design at once:
//! the server's streamed page (full page ⇒ resume = successor of the
//! last key, short page ⇒ exhausted) and the claim that a resume key is a
//! plain global key, so the stream survives the index reorganising
//! between pages.
//!
//! The key count (2 000) scales with `WH_STRESS_MULT` for the nightly soak.

use std::sync::Arc;

use bytes::BytesMut;
use index_traits::ConcurrentOrderedIndex;
use netsim::{ShardServer, WireRequest, WireResponse};
use wh_shard::{ShardedConfig, ShardedWormhole};

fn stress_mult() -> u64 {
    std::env::var("WH_STRESS_MULT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

#[test]
fn streamed_scan_matches_cursor_drain_under_migration() {
    let n = 2_000 * stress_mult();
    let keys: Vec<Vec<u8>> = (0..n).map(|i| format!("key-{i:08}").into_bytes()).collect();
    let index = Arc::new(ShardedWormhole::with_config(ShardedConfig::from_sample(
        4, &keys,
    )));
    for (i, key) in keys.iter().enumerate() {
        index.set(key, i as u64);
    }

    // Reference: one in-process drain through the resumable cursor.
    let mut direct: Vec<(Vec<u8>, u64)> = Vec::new();
    index.scan(b"").collect_next(usize::MAX, &mut direct);
    assert_eq!(direct.len(), keys.len());

    // Streamed: small pages over the wire, a boundary migration forced
    // every third page, flipping the middle boundary 5 % of the keys
    // either side of where the sample put it. Migrations move keys between shards but never
    // change the logical contents, and the resume key is a global key —
    // so the stream must neither skip nor duplicate a pair.
    let server = ShardServer::with_batch_size(Arc::clone(&index), 4, 8);
    let mut streamed: Vec<(Vec<u8>, u64)> = Vec::new();
    let mut next = Some(Vec::new());
    let mut pages = 0u32;
    let mut flip = false;
    while let Some(start) = next {
        let (_, responses) = server.run_collect(&[WireRequest::Scan { start, limit: 17 }]);
        match responses.into_iter().next() {
            Some(WireResponse::ScanPage { items, resume }) => {
                streamed.extend(items);
                next = resume;
            }
            other => panic!("expected a ScanPage response, got {other:?}"),
        }
        pages += 1;
        if pages.is_multiple_of(3) {
            let target = if flip {
                format!("key-{:08}", n * 9 / 20).into_bytes()
            } else {
                format!("key-{:08}", n * 11 / 20).into_bytes()
            };
            index.migrate_boundary(1, &target).expect("valid target");
            flip = !flip;
        }
    }
    assert!(
        pages >= (keys.len() / 17) as u32,
        "the scan must actually stream across many messages (got {pages} pages)"
    );
    assert_eq!(streamed, direct);

    // Byte-identical, through the same encoder both ways: serialising the
    // two drains with the shared wire encoding yields equal buffers.
    let mut streamed_bytes = BytesMut::new();
    WireResponse::Range(streamed).encode(&mut streamed_bytes);
    let mut direct_bytes = BytesMut::new();
    WireResponse::Range(direct).encode(&mut direct_bytes);
    assert_eq!(streamed_bytes.as_ref(), direct_bytes.as_ref());

    index.check_invariants();
}
