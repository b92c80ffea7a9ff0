//! The zero-overhead contract as a user of the crate sees it: the
//! `telemetry-off` feature stops histogram recording and suppresses clock
//! reads, while counters and gauges — load-bearing program state — keep
//! counting either way.

use wh_telemetry::{enabled, start_timing, Counter, Gauge, Histogram};

#[test]
fn disabling_stops_histograms_but_not_counters() {
    let c = Counter::new();
    let g = Gauge::new();
    let h = Histogram::new();

    assert_eq!(enabled(), cfg!(not(feature = "telemetry-off")));
    assert_eq!(
        start_timing().is_some(),
        enabled(),
        "the clock is read exactly when a histogram will take the reading"
    );
    h.record(1234);
    h.record_elapsed(start_timing());
    c.inc();
    g.add(5);
    let expect = if enabled() { 2 } else { 0 };
    assert_eq!(
        h.snapshot().count(),
        expect,
        "histograms follow the feature"
    );
    assert_eq!(c.get(), 1, "counters must stay live when disabled");
    assert_eq!(g.get(), 5, "gauges must stay live when disabled");
}
