//! Writers bump a plain `Vec` under the shim's `RwLock` while readers sum
//! it. Built with ThreadSanitizer and `--cfg wh_tsan`, the lock's hand-made
//! annotations are all that orders these accesses (std's lock is not
//! instrumented), so a missing one shows as a data race; elsewhere the test
//! checks that every reader sees whole writes only. The threads are joined,
//! not scoped: TSan sees a join, but not a scope's uninstrumented wait. They
//! start together at a barrier, whose uninstrumented wait orders nothing
//! for TSan, and yield after each round, so that reads and writes
//! interleave.

use parking_lot::RwLock;
use std::sync::{Arc, Barrier};
use std::thread;

const SLOTS: usize = 16;
const ROUNDS: u64 = 20_000;

fn bump(slots: &mut [u64]) {
    slots.iter_mut().for_each(|slot| *slot += 1);
}

fn sum(slots: &[u64]) -> u64 {
    let sum: u64 = slots.iter().sum();
    assert_eq!(sum % SLOTS as u64, 0, "a reader saw half a write");
    sum
}

#[test]
fn readers_and_writers_meet_only_under_the_lock() {
    let lock = Arc::new(RwLock::new(vec![0u64; SLOTS]));
    let start = Arc::new(Barrier::new(4));
    let spawn = |run: fn(&RwLock<Vec<u64>>)| {
        let (lock, start) = (Arc::clone(&lock), Arc::clone(&start));
        thread::spawn(move || {
            start.wait();
            for _ in 0..ROUNDS {
                run(&lock);
                thread::yield_now();
            }
        })
    };
    let threads = [
        spawn(|lock| bump(&mut lock.write())),
        spawn(|lock| loop {
            if let Some(mut slots) = lock.try_write() {
                break bump(&mut slots);
            }
            thread::yield_now();
        }),
        spawn(|lock| {
            sum(&lock.read());
        }),
        spawn(|lock| {
            if let Some(slots) = lock.try_read() {
                sum(&slots);
            }
        }),
    ];
    for thread in threads {
        thread.join().unwrap();
    }
    assert_eq!(sum(&lock.read()), 2 * ROUNDS * SLOTS as u64);
}
