//! What the four workloads share: the shape of a run, its clocks, and how
//! the slices of a run become the end-to-end figures.

use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

use crate::host;
use crate::stats;
use crate::trace::Tracer;

/// One call in this many is timed by the caller's own clock for
/// `call_p50_vs_ref`. Prime, so that it does not always land on the same slot
/// of the 16-call churn mix.
pub const CALL_SAMPLE: usize = 17;

/// Keys between two laps of a bulk load: a lap of a millisecond or two, so
/// that among a few set-ups each lap has a good chance of one quiet go.
pub const LOAD_CHUNK: usize = 2048;

/// Sizes for a full run, or a twentieth of them under `--quick`.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub quick: bool,
}

impl Scale {
    pub fn of(self, full: usize) -> usize {
        if self.quick {
            full / 20
        } else {
            full
        }
    }
}

/// Wall and process-CPU clocks started together.
pub struct Stopwatch {
    wall: Instant,
    cpu_ns: u64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Self {
            wall: Instant::now(),
            cpu_ns: host::process_cpu_ns(),
        }
    }
    /// (wall seconds, CPU nanoseconds) since `start`.
    pub fn stop(&self) -> (f64, u64) {
        let wall_s = self.wall.elapsed().as_secs_f64();
        (wall_s, host::process_cpu_ns() - self.cpu_ns)
    }
}

/// A kind of slice: every slice of one kind does the same amount of the
/// same work. A round is `per_round` slices of each kind.
#[derive(Debug, Clone, Copy)]
pub struct Kind {
    pub name: &'static str,
    pub per_round: u64,
}

/// What one slice did: a few milliseconds of a fixed amount of one kind of
/// work. `ops` is the work the clocks cover (0 for a checkpoint, which is
/// all overhead).
#[derive(Debug, Clone, Copy, Default)]
pub struct Slice {
    pub kind: usize,
    pub ops: u64,
    pub wall_s: f64,
    pub cpu_ns: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Slice {
    pub fn wall_ns_per_op(&self) -> f64 {
        self.wall_s * 1e9 / self.ops as f64
    }
    pub fn cpu_ns_per_op(&self) -> f64 {
        self.cpu_ns as f64 / self.ops as f64
    }
}

/// What the reference did right after a slice: the slice's operations
/// again, on the standard library's maps (see [`crate::reference`]).
/// `wrong` counts answers that differ from the stream's, which would be a
/// fault of the benchmark.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    pub ops: u64,
    pub wall_s: f64,
    pub wrong: u64,
}

/// The slices of one round added up, with the replays that followed them
/// and the call samples they took (a range of the run's sample buffer).
#[derive(Debug, Clone, Default)]
pub struct Round {
    pub ops: u64,
    pub wall_s: f64,
    pub cpu_ns: u64,
    pub reference_ops: u64,
    pub reference_s: f64,
    pub calls: Range<usize>,
}

impl Round {
    pub fn add(&mut self, slice: &Slice, replay: &Replay) {
        self.ops += slice.ops;
        self.wall_s += slice.wall_s;
        self.cpu_ns += slice.cpu_ns;
        self.reference_ops += replay.ops;
        self.reference_s += replay.wall_s;
    }
    pub fn mops(&self) -> f64 {
        self.ops as f64 / self.wall_s / 1e6
    }
    pub fn cpu_ns_per_op(&self) -> f64 {
        self.cpu_ns as f64 / self.ops as f64
    }
    /// What one operation of the reference cost while this round ran.
    pub fn reference_ns(&self) -> f64 {
        self.reference_s * 1e9 / self.reference_ops as f64
    }
    /// Operations done in the time the reference takes for one of its own.
    pub fn throughput_vs_ref(&self) -> f64 {
        self.ops as f64 * self.reference_ns() / (self.wall_s * 1e9)
    }
    /// CPU time per operation, in operations of the reference.
    pub fn cpu_vs_ref(&self) -> f64 {
        self.cpu_ns_per_op() / self.reference_ns()
    }
}

/// Median over the rounds of what `f` reads from each.
pub fn median_of_rounds(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    let values: Vec<f64> = rounds.iter().map(f).collect();
    stats::median(&values)
}

/// Per round, the median of the call samples it took.
pub fn call_p50_of_rounds(rounds: &[Round], calls: &[u32]) -> Vec<f64> {
    let mut scratch: Vec<u32> = Vec::new();
    rounds
        .iter()
        .map(|round| {
            scratch.clear();
            scratch.extend_from_slice(&calls[round.calls.clone()]);
            stats::p50_p99(&mut scratch).0
        })
        .collect()
}

/// The set-up time the laps of several set-ups agree on: every lap at the
/// fastest any of the set-ups made it, so that a disturbance has to hit the
/// same lap of all of them to show.
pub fn fastest_laps_s(setups: &[Vec<f64>]) -> f64 {
    (0..setups[0].len())
        .map(|lap| {
            setups
                .iter()
                .map(|laps| laps[lap])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// Attempted and failed operations: of a step outside the slices, or of a
/// whole run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checked {
    pub attempted: u64,
    pub failed: u64,
}

impl Checked {
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// Median over the slices of `kind` of what `f` reads from each.
pub fn median_over(slices: &[Slice], kind: usize, f: impl Fn(&Slice) -> f64) -> f64 {
    let values: Vec<f64> = slices.iter().filter(|s| s.kind == kind).map(f).collect();
    stats::median(&values)
}

/// Per-layer metric values by name; a name never set reads as 0, which
/// says the workload made no such call.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
    /// Takes over from `other` every metric whose name starts with `prefix`.
    pub fn take_prefixed(&mut self, other: &Layers, prefix: &str) {
        for (name, value) in &other.0 {
            if name.starts_with(prefix) {
                self.0.insert(name, *value);
            }
        }
    }
}

pub trait Workload {
    /// Seconds spent generating keys (`workloads.gen_s`).
    fn gen_seconds(&self) -> f64;
    /// Digest of the generated operation stream.
    fn stream_hash(&self) -> u64;
    /// The keys the resident structure is built from.
    fn keys(&self) -> &[Vec<u8>];
    /// Keys resident once set-up is done.
    fn resident_keys(&self) -> usize;
    /// The kinds of slice a round is made of, in the order of `Slice::kind`.
    fn kinds(&self) -> &'static [Kind];
    /// Pairs of an untraced and a traced slice in one leg of the traced
    /// run: as many as a whole number of rounds has slices.
    fn trace_leg_slices(&self) -> usize;
    /// Frees what the last set-up built. Not part of `setup_s`.
    fn tear_down(&mut self);
    /// Builds the resident structure from nothing. Calls `lap` after every
    /// [`LOAD_CHUNK`] keys of the load and after each step that follows
    /// it, the last one included; the caller times the laps.
    fn set_up(&mut self, lap: &mut dyn FnMut());
    /// The next slice of the round; the rounds follow each other without
    /// end. `calls` collects the sampled call times.
    fn slice(&mut self, tracer: &mut Option<&mut Tracer>, calls: &mut Vec<u32>) -> Slice;
    /// Builds the reference from the keys set-up loaded. Untraced run only,
    /// once, after the last set-up and outside its clocks.
    fn set_up_reference(&mut self);
    /// Replays the operations of the slice just made on the reference. An
    /// untraced run calls it after every slice, the warm-up's included, so
    /// the reference holds the keys the index holds.
    fn replay(&mut self) -> Replay;
    /// Checks made once, after the last slice, outside any timing.
    fn verify(&mut self) -> Checked;
    /// Traced run only, after its slices: times calls into single layers
    /// over this workload's own keys and structure. `slices` are the
    /// untraced slices of the same run, for layers whose share is what is
    /// left of the whole.
    fn probe_layers(&mut self, tracer: &mut Tracer, layers: &mut Layers, slices: &[Slice]);
}

/// Slices in one round of `kinds`.
pub fn slices_per_round(kinds: &[Kind]) -> usize {
    kinds.iter().map(|k| k.per_round as usize).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice(ops: u64, wall_s: f64) -> Slice {
        Slice {
            ops,
            wall_s,
            cpu_ns: (wall_s * 2e9) as u64,
            ..Slice::default()
        }
    }

    fn replay(ops: u64, wall_s: f64) -> Replay {
        Replay {
            ops,
            wall_s,
            wrong: 0,
        }
    }

    #[test]
    fn a_round_is_measured_in_operations_of_its_own_reference() {
        // Forty slices of calls and a checkpoint that no replay follows.
        let mut round = Round::default();
        for _ in 0..40 {
            round.add(&slice(100, 1e-3), &replay(50, 1e-4));
        }
        round.add(&slice(0, 10e-3), &Replay::default());
        assert_eq!((round.ops, round.reference_ops), (4000, 2000));
        assert!((round.wall_s - 50e-3).abs() < 1e-12);
        assert!((round.reference_ns() - 2000.0).abs() < 1e-6);
        assert!((round.mops() - 0.08).abs() < 1e-12);
        // 12 500 ns per op against 2 000 ns per reference op.
        assert!((round.throughput_vs_ref() - 0.16).abs() < 1e-12);
        assert!((round.cpu_vs_ref() - 12.5).abs() < 1e-9);

        // A host twice as slow for workload and reference alike leaves both
        // ratios where they were.
        let mut slow = Round::default();
        for _ in 0..40 {
            slow.add(&slice(100, 2e-3), &replay(50, 2e-4));
        }
        slow.add(&slice(0, 20e-3), &Replay::default());
        assert!((slow.throughput_vs_ref() - round.throughput_vs_ref()).abs() < 1e-12);
        assert!((slow.cpu_vs_ref() - round.cpu_vs_ref()).abs() < 1e-9);
        assert!((slow.mops() - round.mops() / 2.0).abs() < 1e-12);
    }

    #[test]
    fn medians_go_over_rounds_and_call_samples_stay_with_their_round() {
        let rounds: Vec<Round> = [(1.0, 0..3), (3.0, 3..4), (2.0, 4..9)]
            .into_iter()
            .map(|(wall_s, calls)| Round {
                ops: 1_000_000,
                wall_s,
                calls,
                ..Round::default()
            })
            .collect();
        assert_eq!(median_of_rounds(&rounds, Round::mops), 0.5);
        let calls = [5, 1, 3, 70, 10, 20, 30, 40, 50];
        assert_eq!(call_p50_of_rounds(&rounds, &calls), vec![3.0, 70.0, 30.0]);
    }

    #[test]
    fn set_up_time_takes_every_lap_from_the_fastest_set_up() {
        let setups = [
            vec![1.0, 9.0, 1.0],
            vec![2.0, 2.0, 2.0],
            vec![7.0, 3.0, 0.5],
        ];
        assert_eq!(fastest_laps_s(&setups), 1.0 + 2.0 + 0.5);
        assert_eq!(fastest_laps_s(&setups[..1]), 11.0);
    }

    #[test]
    fn layers_read_zero_until_set_and_copy_by_prefix() {
        let mut ours = Layers::default();
        ours.set("wormhole.get_ns", 1.0);
        ours.set("client.call_p99_ns", 2.0);
        let mut theirs = Layers::default();
        theirs.set("wormhole.get_ns", 10.0);
        theirs.set("wormhole.splits", 3.0);
        theirs.set("client.call_p99_ns", 20.0);
        ours.take_prefixed(&theirs, "wormhole.");
        assert_eq!(ours.get("wormhole.get_ns"), 10.0);
        assert_eq!(ours.get("wormhole.splits"), 3.0);
        assert_eq!(ours.get("client.call_p99_ns"), 2.0);
        assert_eq!(ours.get("never.set"), 0.0);
    }
}
