//! The repository benchmark. One process runs one workload:
//!
//! ```text
//! wh-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--quick]
//! ```
//!
//! The last line of standard output is the result object `BENCHMARK.json`
//! describes; the line before it carries the detail behind the medians.
//! See `benchmark/README.md` for every metric and workload.

mod alloc;
mod churn;
mod gen;
mod host;
mod index_get;
mod probes;
mod reference;
mod report;
mod serve_mixed;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use churn::Churn;
use trace::Tracer;
use workload::{
    call_p50_of_rounds, fastest_laps_s, median_of_rounds, slices_per_round, Checked, Layers, Round,
    Scale, Slice, Workload,
};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 4] = ["index-get", "index-churn", "serve-mixed", "durable-churn"];

/// One thread issues the load in every workload. A run refuses to start
/// on a host with fewer CPUs than load threads.
const LOAD_THREADS: usize = 1;
/// An untraced run sets up at least this many times, and until it has
/// spent [`SETUP_SECONDS`] on it or set up [`MAX_SETUPS`] times, so that a
/// short set-up is repeated more often; `setup_s` adds up, lap by lap, the
/// fastest of them.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 16;
const SETUP_SECONDS: f64 = 2.0;
/// An untraced run measures until `--seconds` have passed, and this many
/// rounds at least.
const MIN_ROUNDS: usize = 15;
/// A traced run makes this many legs of pairs of an untraced and a traced
/// slice, whatever `--seconds` says, so that its counts repeat exactly.
const TRACE_PAIRS: usize = 4;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 12.0,
        trace: false,
        quick: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: not {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("a u64"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("a number"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// `benchmark/out`, where a run keeps its files: the durable store while
/// it runs, the span file after.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn make(workload: &str, seed: u64, scale: Scale) -> Box<dyn Workload> {
    let store = out_dir().join(format!("store-{}", std::process::id()));
    match workload {
        "index-get" => Box::new(index_get::IndexGet::new(seed, scale)),
        "index-churn" => Box::new(Churn::<wormhole::Wormhole<u64>>::new(seed, scale, store)),
        "serve-mixed" => Box::new(serve_mixed::ServeMixed::new(seed, scale)),
        "durable-churn" => Box::new(Churn::<wh_durable::DurableWormhole<u64>>::new(
            seed, scale, store,
        )),
        other => unreachable!("{other} passed parse_args"),
    }
}

struct Host {
    nproc: usize,
    loadavg1: f64,
    others: host::OtherLoad,
}

impl Host {
    fn read() -> Self {
        Self {
            nproc: host::nproc(),
            loadavg1: host::loadavg1(),
            others: host::OtherLoad::start(),
        }
    }
    fn detail(&self) -> String {
        let other_busy_cpus = self.others.busy_cpus();
        format!(
            "\"nproc\": {}, \"loadavg1_start\": {}, \"other_busy_cpus\": {other_busy_cpus}, \
             \"noisy_host\": {}",
            self.nproc,
            self.loadavg1,
            host::is_noisy(other_busy_cpus)
        )
    }
}

/// One set-up, timed lap by lap.
fn timed_set_up(workload: &mut dyn Workload) -> Vec<f64> {
    let mut marks = vec![Instant::now()];
    workload.set_up(&mut || marks.push(Instant::now()));
    marks
        .windows(2)
        .map(|pair| (pair[1] - pair[0]).as_secs_f64())
        .collect()
}

fn run_untraced(args: &Args, host: &Host) {
    let scale = Scale { quick: args.quick };
    let mut calls: Vec<u32> = Vec::with_capacity(1 << 22);
    let mut workload = make(&args.workload, args.seed, scale);
    let kinds = workload.kinds();
    let mut tally = Checked::default();

    let rss_before = host::rss_bytes();
    let mut rss_after = rss_before;
    let mut setups: Vec<Vec<f64>> = Vec::new();
    let setup_clock = Instant::now();
    while setups.is_empty()
        || (!args.quick
            && setups.len() < MAX_SETUPS
            && (setups.len() < MIN_SETUPS || setup_clock.elapsed().as_secs_f64() < SETUP_SECONDS))
    {
        workload.tear_down();
        setups.push(timed_set_up(workload.as_mut()));
        if setups.len() == 1 {
            rss_after = host::rss_bytes();
        }
    }

    workload.set_up_reference();

    // One round to fill caches and finish lazy set-up; its times are
    // thrown away, its failures are not.
    let mut reference_wrong = 0;
    for _ in 0..slices_per_round(kinds) {
        let warm_up = workload.slice(&mut None, &mut calls);
        tally.add(warm_up.attempted, warm_up.failed);
        reference_wrong += workload.replay().wrong;
    }
    calls.clear();

    // Whole rounds. The reference replays every slice right after it, so
    // that each round knows what the reference cost while it ran.
    let min_rounds = if args.quick { 1 } else { MIN_ROUNDS };
    let mut rounds: Vec<Round> = Vec::new();
    let mut slices: Vec<Slice> = Vec::new();
    let clock = Instant::now();
    while rounds.len() < min_rounds || (!args.quick && clock.elapsed().as_secs_f64() < args.seconds)
    {
        let mut round = Round::default();
        let first_call = calls.len();
        for _ in 0..slices_per_round(kinds) {
            let slice = workload.slice(&mut None, &mut calls);
            let replay = workload.replay();
            tally.add(slice.attempted, slice.failed);
            reference_wrong += replay.wrong;
            round.add(&slice, &replay);
            slices.push(slice);
        }
        round.calls = first_call..calls.len();
        rounds.push(round);
    }
    let checked = workload.verify();
    tally.add(checked.attempted, checked.failed);
    assert_eq!(
        reference_wrong, 0,
        "the reference and the stream disagree: a fault of the benchmark"
    );

    // Every figure is a median over rounds; the three that are gated are
    // taken round by round against the reference.
    let call_p50s = call_p50_of_rounds(&rounds, &calls);
    let call_p50_vs_ref: Vec<f64> = rounds
        .iter()
        .zip(&call_p50s)
        .map(|(round, p50)| p50 / round.reference_ns())
        .collect();
    let value = |name: &str| match name {
        "setup_s" => fastest_laps_s(&setups),
        "throughput_vs_ref" => median_of_rounds(&rounds, Round::throughput_vs_ref),
        "cpu_vs_ref" => median_of_rounds(&rounds, Round::cpu_vs_ref),
        "call_p50_vs_ref" => stats::median(&call_p50_vs_ref),
        "rss_bytes_per_key" => {
            rss_after.saturating_sub(rss_before) as f64 / workload.resident_keys() as f64
        }
        other => unreachable!("{other} is not an end-to-end metric"),
    };

    // The same figures by the clock alone, and per kind of slice how many
    // were measured and the quartiles of their wall time.
    let kind_detail: Vec<String> = kinds
        .iter()
        .enumerate()
        .map(|(kind, k)| {
            let wall_ms: Vec<f64> = slices
                .iter()
                .filter(|s| s.kind == kind)
                .map(|s| s.wall_s * 1e3)
                .collect();
            format!(
                "{{\"kind\": \"{}\", \"per_round\": {}, \"slices\": {}, {}}}",
                k.name,
                k.per_round,
                wall_ms.len(),
                quartile_detail("wall_ms", &wall_ms),
            )
        })
        .collect();
    let over_rounds = |f: fn(&Round) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let setup_totals: Vec<f64> = setups.iter().map(|laps| laps.iter().sum()).collect();
    let call_samples = calls.len();
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"stream_hash\": \"{:016x}\", \"rounds\": {}, \
         \"kinds\": [{}], {}, {}, {}, {}, \"call_samples\": {call_samples}, \
         \"call_p99_ns\": {}, \"setup_s_each\": {setup_totals:?}, \"store_fs\": \"{}\", {}}}",
        args.workload,
        args.seed,
        workload.stream_hash(),
        rounds.len(),
        kind_detail.join(", "),
        quartile_detail("throughput_mops", &over_rounds(Round::mops)),
        quartile_detail("cpu_ns_per_op", &over_rounds(Round::cpu_ns_per_op)),
        quartile_detail("call_p50_ns", &call_p50s),
        quartile_detail("reference_ns_per_op", &over_rounds(Round::reference_ns)),
        stats::p50_p99(&mut calls).1,
        host::fs_type(&out_dir()),
        host.detail(),
    );
    println!(
        "{}",
        report::result_line(tally.attempted, tally.failed, report::END_TO_END, value)
    );
}

fn quartile_detail(name: &str, values: &[f64]) -> String {
    let q = stats::quartiles(values);
    format!(
        "\"{name}\": {{\"q1\": {}, \"median\": {}, \"q3\": {}}}",
        q.q1, q.median, q.q3
    )
}

/// One workload of a traced run, with the tracer and the metrics that
/// are its own.
struct Pass {
    workload: Box<dyn Workload>,
    tracer: Tracer,
    layers: Layers,
    untraced: Vec<Slice>,
    traced: Vec<Slice>,
    calls: Vec<u32>,
    allocations: u64,
}

impl Pass {
    fn new(workload: Box<dyn Workload>) -> Self {
        Self {
            workload,
            tracer: Tracer::new(),
            layers: Layers::default(),
            untraced: Vec::new(),
            traced: Vec::new(),
            calls: Vec::with_capacity(1 << 20),
            allocations: 0,
        }
    }

    /// An untraced slice. Allocations are counted here, where none of them
    /// is the tracer's.
    fn untraced_slice(&mut self) {
        let before = alloc::allocations();
        alloc::arm(true);
        let slice = self.workload.slice(&mut None, &mut self.calls);
        alloc::arm(false);
        self.allocations += alloc::allocations() - before;
        self.untraced.push(slice);
    }

    fn traced_slice(&mut self) {
        let slice = self
            .workload
            .slice(&mut Some(&mut self.tracer), &mut self.calls);
        self.traced.push(slice);
    }
}

/// The traced run of `passes`, in step: for each a set-up and a warm-up
/// round; then [`TRACE_PAIRS`] legs of slice pairs — an untraced slice of
/// every pass in turn, then a traced slice of every pass — so that what is
/// compared (traced with untraced, one pass with the other) sees the same
/// host and follows the same neighbour in the caches; then the workload's
/// layer probes and the final checks.
fn traced_passes(passes: &mut [Pass], tally: &mut Checked, quick: bool) {
    for pass in passes.iter_mut() {
        let set_up_s: f64 = timed_set_up(pass.workload.as_mut()).iter().sum();
        pass.layers.set(
            "wormhole.load_ns_per_key",
            set_up_s * 1e9 / pass.workload.resident_keys() as f64,
        );
        for _ in 0..slices_per_round(pass.workload.kinds()) {
            let warm_up = pass.workload.slice(&mut None, &mut pass.calls);
            tally.add(warm_up.attempted, warm_up.failed);
        }
        pass.calls.clear();
    }

    let pairs: Vec<usize> = passes
        .iter()
        .map(|pass| pass.workload.trace_leg_slices() * if quick { 1 } else { TRACE_PAIRS })
        .collect();
    for step in 0..pairs.iter().copied().max().unwrap_or(0) {
        for slice in [Pass::untraced_slice, Pass::traced_slice] {
            for (pass, &pairs) in passes.iter_mut().zip(&pairs) {
                if step < pairs {
                    slice(pass);
                }
            }
        }
    }

    for pass in passes.iter_mut() {
        for slice in pass.untraced.iter().chain(&pass.traced) {
            tally.add(slice.attempted, slice.failed);
        }
        let ops: u64 = pass.untraced.iter().map(|s| s.ops).sum();
        pass.layers.set(
            "wormhole.allocs_per_op",
            pass.allocations as f64 / ops as f64,
        );
        pass.workload
            .probe_layers(&mut pass.tracer, &mut pass.layers, &pass.untraced);
        let checked = pass.workload.verify();
        tally.add(checked.attempted, checked.failed);
    }
}

/// Operations per second of wall time over some slices.
fn mops(slices: &[Slice]) -> f64 {
    let ops: u64 = slices.iter().map(|s| s.ops).sum();
    let wall_s: f64 = slices.iter().map(|s| s.wall_s).sum();
    ops as f64 / wall_s / 1e6
}

fn run_traced(args: &Args, host: &Host) -> std::io::Result<()> {
    let scale = Scale { quick: args.quick };
    let mut tally = Checked::default();
    let mut passes = vec![Pass::new(make(&args.workload, args.seed, scale))];
    if args.workload == "durable-churn" {
        // The same stream on the bare index, in this process and in step
        // with the durable store: its slices are what the log's cost is
        // measured against, and its calls give the `wormhole.*` timings
        // the durable store hides behind its own.
        passes.push(Pass::new(make("index-churn", args.seed, scale)));
    }
    traced_passes(&mut passes, &mut tally, args.quick);

    let bare = passes.split_off(1).pop();
    let Pass {
        workload,
        mut tracer,
        mut layers,
        untraced,
        traced,
        mut calls,
        ..
    } = passes.pop().expect("the workload's own pass");
    probes::common(
        &mut tracer,
        &mut layers,
        workload.keys().iter().map(Vec::as_slice),
    );
    layers.set("workloads.gen_s", workload.gen_seconds());
    let stream_hash = workload.stream_hash();
    if let Some(bare) = bare {
        assert_eq!(
            bare.workload.stream_hash(),
            stream_hash,
            "one seed, one stream"
        );
        layers.take_prefixed(&bare.layers, "wormhole.");
        layers.take_prefixed(&bare.layers, "wh-epoch.");
        layers.set(
            "wh-durable.wal_self_ns_per_op",
            churn::wal_self_ns_per_op(&untraced, &bare.untraced),
        );
        // Its spans join the span file; nothing else of it is reported.
        tracer.absorb(bare.tracer);
    }

    // The end-to-end figures by the clock alone, from the untraced legs: a
    // traced run has no reference to hold them against.
    let cpu_ns: u64 = untraced.iter().map(|s| s.cpu_ns).sum();
    let ops: u64 = untraced.iter().map(|s| s.ops).sum();
    layers.set("client.cpu_ns_per_op", cpu_ns as f64 / ops as f64);
    let (untraced, traced) = (mops(&untraced), mops(&traced));
    layers.set("client.throughput_mops", untraced);
    layers.set("trace.overhead_pct", (untraced - traced) / untraced * 100.0);
    let (p50, p99) = stats::p50_p99(&mut calls);
    layers.set("client.call_p50_ns", p50);
    layers.set("client.call_p99_ns", p99);
    layers.set("host.nproc", host.nproc as f64);
    layers.set("host.loadavg1_start", host.loadavg1);

    let span_file = out_dir().join(format!("trace-{}.jsonl", args.workload));
    tracer.write_jsonl(&span_file)?;
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"stream_hash\": \"{stream_hash:016x}\", \
         \"span_file\": \"{}\", \"spans\": {}, \"untraced_mops\": {untraced}, \
         \"traced_mops\": {traced}, \"calls\": {{{}}}, \"store_fs\": \"{}\", {}}}",
        args.workload,
        args.seed,
        span_file.display(),
        tracer.span_count(),
        tracer.calls_json(),
        host::fs_type(&out_dir()),
        host.detail(),
    );
    println!(
        "{}",
        report::result_line(tally.attempted, tally.failed, report::PER_LAYER, |name| {
            layers.get(name)
        })
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("wh-benchmark: {message}");
            eprintln!(
                "usage: wh-benchmark --workload <{}> [--seed <u64>] [--seconds <n>] \
                 [--trace <0|1>] [--quick]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let host = Host::read();
    if LOAD_THREADS > host.nproc {
        eprintln!(
            "wh-benchmark: {LOAD_THREADS} load thread(s) on {} CPU(s)",
            host.nproc
        );
        return ExitCode::from(2);
    }
    if let Err(error) = std::fs::create_dir_all(out_dir()) {
        eprintln!("wh-benchmark: {}: {error}", out_dir().display());
        return ExitCode::FAILURE;
    }
    if args.trace {
        if let Err(error) = run_traced(&args, &host) {
            eprintln!("wh-benchmark: writing the span file: {error}");
            return ExitCode::FAILURE;
        }
    } else {
        run_untraced(&args, &host);
    }
    ExitCode::SUCCESS
}
