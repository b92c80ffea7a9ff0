//! Spans around the benchmark's calls into each layer.
//!
//! Only a traced run (`--trace 1`) owns a [`Tracer`]. Every call through
//! [`call`] is counted exactly; the caller says which calls are also timed
//! as spans (one in [`SPAN_SAMPLE`] in the workload loops). Spans stay in
//! memory and are written out as JSON lines when the run ends.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One call in this many is timed as a span in the workload loops. Prime,
/// so that it does not always land on the same slot of the 16-call churn
/// mix.
pub const SPAN_SAMPLE: usize = 61;

/// Layer-qualified span names: `<crate>.<function>`; `client` is the
/// benchmark's own loop around one public call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Name {
    ClientCall,
    ClientRun,
    ShardGet,
    ShardGetBatch,
    WormholeGet,
    WormholeGetMiss,
    WormholeGetHot,
    WormholeGetBatch,
    WormholeInsert,
    WormholeDel,
    WormholeOverwrite,
    WormholeScanSeek,
    WormholeScanDrain,
    DurableSet,
    DurableDel,
    DurableScan,
    DurableWalSync,
    DurableCheckpoint,
    DurableOpen,
    WireEncodeReq,
    WireDecodeReq,
    WireEncodeResp,
    WireDecodeResp,
    ServerExec,
    ServerRunEmpty,
    ShardRouteBatch,
    HashCrc32c,
    EpochEnter,
    EpochTryFast,
    TelemetryRecord,
    TelemetryRender,
}

const NAMES: [&str; 31] = [
    "client.call",
    "client.run",
    "wh-shard.get",
    "wh-shard.get_batch",
    "wormhole.get",
    "wormhole.get_miss",
    "wormhole.get_hot",
    "wormhole.get_batch",
    "wormhole.insert",
    "wormhole.del",
    "wormhole.overwrite",
    "wormhole.scan_seek",
    "wormhole.scan_drain",
    "wh-durable.set",
    "wh-durable.del",
    "wh-durable.scan",
    "wh-durable.wal_sync",
    "wh-durable.checkpoint",
    "wh-durable.open",
    "netsim.wire.encode_req",
    "netsim.wire.decode_req",
    "netsim.wire.encode_resp",
    "netsim.wire.decode_resp",
    "netsim.server.exec",
    "netsim.server.run_empty",
    "wh-shard.route_batch",
    "wh-hash.crc32c",
    "wh-epoch.enter",
    "wh-epoch.try_fast",
    "wh-telemetry.record",
    "wh-telemetry.render",
];

impl Name {
    pub fn as_str(self) -> &'static str {
        NAMES[self as usize]
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that was open when this one began.
    pub parent: Option<SpanId>,
    /// Shared by every span of one operation.
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    calls: [u64; NAMES.len()],
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 18),
            open: Vec::with_capacity(8),
            calls: [0; NAMES.len()],
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: Name, op_id: u64) -> SpanId {
        let id = SpanId(u32::try_from(self.spans.len()).expect("under 2^32 spans"));
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op_id,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id.0 as usize].end_ns = end_ns;
    }

    pub fn duration_ns(&self, id: SpanId) -> u64 {
        self.spans[id.0 as usize].duration_ns()
    }

    /// `"name": calls` for every name called at least once, as the inside
    /// of a JSON object.
    pub fn calls_json(&self) -> String {
        let entries: Vec<String> = NAMES
            .iter()
            .zip(&self.calls)
            .filter(|(_, &calls)| calls > 0)
            .map(|(name, calls)| format!("\"{name}\": {calls}"))
            .collect();
        entries.join(", ")
    }

    /// Adds `n` untimed calls (a probe that times a whole loop as one span).
    pub fn add_calls(&mut self, name: Name, n: u64) {
        self.calls[name as usize] += n;
    }

    /// Total duration of the spans recorded under `name`, and their number.
    pub fn total_ns(&self, name: Name) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.duration_ns(), n + 1))
    }

    /// Mean duration of the spans recorded under `name`; 0 when the run
    /// made no such call.
    pub fn mean_ns(&self, name: Name) -> f64 {
        match self.total_ns(name) {
            (_, 0) => 0.0,
            (ns, n) => ns as f64 / n as f64,
        }
    }

    /// Mean self time of the spans under `name`: each span's duration less
    /// the part its child spans cover.
    pub fn mean_self_ns(&self, name: Name) -> f64 {
        let self_ns = self_times(&self.spans);
        let (mut total, mut n) = (0u64, 0u64);
        for (span, own) in self.spans.iter().zip(&self_ns) {
            if span.name == name {
                total += own;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64
        }
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Appends the spans and call counts of a tracer made later, with no
    /// span open, moving its spans' times onto this tracer's clock.
    pub fn absorb(&mut self, later: Tracer) {
        assert!(later.open.is_empty(), "every span of the other is closed");
        let shift_ns = (later.origin - self.origin).as_nanos() as u64;
        let shift_id = u32::try_from(self.spans.len()).expect("under 2^32 spans");
        self.spans.extend(later.spans.into_iter().map(|span| Span {
            start_ns: span.start_ns + shift_ns,
            end_ns: span.end_ns + shift_ns,
            parent: span.parent.map(|SpanId(id)| SpanId(id + shift_id)),
            ..span
        }));
        for (ours, theirs) in self.calls.iter_mut().zip(later.calls) {
            *ours += theirs;
        }
    }

    /// One JSON object per line:
    /// `{"id":…,"name":…,"start":…,"end":…,"parent":…,"op_id":…}`, times in
    /// nanoseconds since the tracer was made.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.0.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"op_id\":{}}}",
                span.name.as_str(),
                span.start_ns,
                span.end_ns,
                span.op_id
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the durations of the spans
/// that name it as parent. Children of one parent never overlap here (one
/// thread, strictly nested), so the subtraction cannot go negative.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(SpanId(parent)) = span.parent {
            own[parent as usize] -= span.duration_ns();
        }
    }
    own
}

/// Opens a span around a call into a layer. Untraced runs pass `None` and
/// pay one predictable branch; a traced run counts the call and, when
/// `timed`, starts a span of operation `op_id`. Pair with [`close`].
#[inline]
pub fn open(
    tracer: &mut Option<&mut Tracer>,
    timed: bool,
    name: Name,
    op_id: u64,
) -> Option<SpanId> {
    let tracer = tracer.as_deref_mut()?;
    tracer.calls[name as usize] += 1;
    timed.then(|| tracer.begin(name, op_id))
}

#[inline]
pub fn close(tracer: &mut Option<&mut Tracer>, span: Option<SpanId>) {
    if let (Some(tracer), Some(span)) = (tracer.as_deref_mut(), span) {
        tracer.end(span);
    }
}

/// Runs `f` as one call into a layer, inside [`open`] and [`close`].
#[inline]
pub fn call<R>(
    tracer: &mut Option<&mut Tracer>,
    timed: bool,
    name: Name,
    op_id: u64,
    f: impl FnOnce() -> R,
) -> R {
    let span = open(tracer, timed, name, op_id);
    let result = f();
    close(tracer, span);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: Name, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent: parent.map(SpanId),
            op_id: 0,
        }
    }

    #[test]
    fn every_name_has_its_string() {
        assert_eq!(Name::ClientCall.as_str(), "client.call");
        assert_eq!(Name::WormholeScanDrain.as_str(), "wormhole.scan_drain");
        assert_eq!(Name::ServerRunEmpty.as_str(), "netsim.server.run_empty");
        assert_eq!(Name::TelemetryRender as usize, NAMES.len() - 1);
        assert_eq!(Name::TelemetryRender.as_str(), "wh-telemetry.render");
    }

    #[test]
    fn self_time_subtracts_children_not_grandchildren() {
        let spans = [
            span(Name::ClientCall, 0, 100, None),
            span(Name::WormholeScanSeek, 10, 40, Some(0)),
            span(Name::WormholeScanDrain, 40, 90, Some(0)),
            span(Name::WormholeGet, 50, 60, Some(2)),
            span(Name::ClientCall, 200, 230, None),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 40, 10, 30]);
    }

    #[test]
    fn tracer_nests_counts_and_averages() {
        let mut tracer = Tracer::new();
        let mut slot = Some(&mut tracer);
        for op in 0..10u64 {
            let outer = open(&mut slot, op % 2 == 0, Name::ClientCall, op);
            call(&mut slot, op % 2 == 0, Name::WormholeGet, op, || ());
            close(&mut slot, outer);
        }
        assert_eq!(tracer.calls[Name::ClientCall as usize], 10);
        assert_eq!(tracer.total_ns(Name::ClientCall).1, 5);
        assert_eq!(tracer.calls[Name::WormholeGet as usize], 10);
        assert!(tracer.calls_json().contains("\"wormhole.get\": 10"));
        assert_eq!(tracer.spans[1].parent, Some(SpanId(0)));
        assert_eq!(tracer.mean_ns(Name::WormholeDel), 0.0);

        let outer = tracer.begin(Name::ClientCall, 99);
        let inner = tracer.begin(Name::WormholeInsert, 99);
        tracer.end(inner);
        tracer.end(outer);
        let last = &tracer.spans[tracer.span_count() - 1];
        assert_eq!(
            (last.name, last.parent, last.op_id),
            (Name::WormholeInsert, Some(outer), 99)
        );
        assert!(tracer.mean_self_ns(Name::ClientCall) <= tracer.mean_ns(Name::ClientCall));
    }

    #[test]
    fn absorbed_spans_keep_their_parents_and_their_place_in_time() {
        let mut first = Tracer::new();
        let outer = first.begin(Name::ClientCall, 1);
        first.end(outer);
        let mut second = Tracer::new();
        let outer = second.begin(Name::ClientCall, 2);
        let inner = second.begin(Name::WormholeDel, 2);
        second.end(inner);
        second.end(outer);
        second.add_calls(Name::WormholeDel, 5);
        first.absorb(second);
        assert_eq!(first.span_count(), 3);
        assert_eq!(first.spans[1].parent, None);
        assert_eq!(first.spans[2].parent, Some(SpanId(1)));
        assert!(first.spans[1].start_ns >= first.spans[0].end_ns);
        assert_eq!(first.calls[Name::WormholeDel as usize], 5);
        assert_eq!(first.total_ns(Name::ClientCall).1, 2);
    }

    #[test]
    fn untraced_calls_just_run() {
        let mut none: Option<&mut Tracer> = None;
        assert_eq!(call(&mut none, true, Name::ShardGet, 0, || 7), 7);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut tracer = Tracer::new();
        let outer = tracer.begin(Name::ClientCall, 3);
        let inner = tracer.begin(Name::WormholeDel, 3);
        tracer.end(inner);
        tracer.end(outer);
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-{}.jsonl", std::process::id()));
        tracer.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"id\":0,\"name\":\"client.call\",\"start\":"));
        assert!(lines[0].ends_with(",\"parent\":null,\"op_id\":3}"));
        assert!(lines[1].contains("\"name\":\"wormhole.del\""));
        assert!(lines[1].ends_with(",\"parent\":0,\"op_id\":3}"));
    }
}
