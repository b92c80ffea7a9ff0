//! The metric names the benchmark prints, with their units, and the JSON
//! it prints them in. `BENCHMARK.json` lists the same names; a test keeps
//! the two in step.

use std::fmt::Write;

/// Printed by an untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_vs_ref", "ratio"),
    ("cpu_vs_ref", "ratio"),
    ("call_p50_vs_ref", "ratio"),
    ("rss_bytes_per_key", "bytes"),
];

/// Printed by a traced run (`--trace 1`). A workload that makes no call
/// into a layer prints that layer's metrics as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netsim.wire.encode_req_ns", "ns"),
    ("netsim.wire.decode_req_ns", "ns"),
    ("netsim.wire.encode_resp_ns", "ns"),
    ("netsim.wire.decode_resp_ns", "ns"),
    ("netsim.wire.req_bytes_per_op", "bytes"),
    ("netsim.wire.resp_bytes_per_op", "bytes"),
    ("netsim.server.exec_ns_per_op", "ns"),
    ("netsim.server.self_cpu_ns_per_op", "ns"),
    ("netsim.server.explained_pct", "%"),
    ("netsim.server.get_run_len_mean", "count"),
    ("netsim.server.dispatch_route_ns_per_msg", "ns"),
    ("netsim.server.get_mean_ns", "ns"),
    ("netsim.server.set_mean_ns", "ns"),
    ("netsim.server.scan_mean_ns", "ns"),
    ("netsim.server.epoch_flushes", "count"),
    ("netsim.server.run_startup_ns", "ns"),
    ("wh-shard.route_batch_ns_per_key", "ns"),
    ("wh-shard.router_self_ns", "ns"),
    ("wh-shard.router_fast_share", "ratio"),
    ("wh-shard.router_section_entries", "count"),
    ("wormhole.get_ns", "ns"),
    ("wormhole.get_miss_ns", "ns"),
    ("wormhole.get_hot_ns", "ns"),
    ("wormhole.get_stall_ns", "ns"),
    ("wormhole.get_batch_ns_per_key", "ns"),
    ("wormhole.lpm_restarts_per_kkey", "count"),
    ("wormhole.load_ns_per_key", "ns"),
    ("wormhole.insert_ns", "ns"),
    ("wormhole.overwrite_ns", "ns"),
    ("wormhole.del_ns", "ns"),
    ("wormhole.scan_seek_ns", "ns"),
    ("wormhole.scan_ns_per_key", "ns"),
    ("wormhole.splits", "count"),
    ("wormhole.merges", "count"),
    ("wormhole.seqlock_retries", "count"),
    ("wormhole.locked_fallbacks", "count"),
    ("wormhole.leaf_count", "count"),
    ("wormhole.keys_per_leaf", "count"),
    ("wormhole.structure_bytes_per_key", "bytes"),
    ("wormhole.allocs_per_op", "count"),
    ("wh-hash.crc32c_ns_per_key", "ns"),
    ("wh-epoch.enter_ns", "ns"),
    ("wh-epoch.try_fast_ns", "ns"),
    ("wh-epoch.pending_high_water", "count"),
    ("wh-durable.wal_self_ns_per_op", "ns"),
    ("wh-durable.wal_bytes_per_user_byte", "ratio"),
    ("wh-durable.fsyncs_per_kop", "count"),
    ("wh-durable.commit_batch_mean", "count"),
    ("wh-durable.fsync_mean_ns", "ns"),
    ("wh-durable.checkpoint_ms", "ms"),
    ("wh-durable.recovery_ms", "ms"),
    ("wh-durable.replayed_ops", "count"),
    ("wh-telemetry.record_ns", "ns"),
    ("wh-telemetry.render_ns", "ns"),
    ("wh-telemetry.stats_bytes", "bytes"),
    ("workloads.gen_s", "s"),
    ("host.nproc", "count"),
    ("host.loadavg1_start", "load"),
    ("client.throughput_mops", "Mops/s"),
    ("client.cpu_ns_per_op", "ns"),
    ("client.call_p50_ns", "ns"),
    ("client.call_p99_ns", "ns"),
    ("client.self_ns_per_call", "ns"),
    ("trace.overhead_pct", "%"),
];

/// The last line of a run:
/// `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}, …}}`.
pub fn result_line(
    attempted: u64,
    failed: u64,
    names: &[(&str, &str)],
    value: impl Fn(&str) -> f64,
) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = value(name);
        assert!(value.is_finite(), "{name} is {value}");
        let sep = if i == 0 { "" } else { ", " };
        write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String");
    }
    line.push_str("}}");
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_the_contracted_object() {
        let line = result_line(10, 0, &[("a_ms", "ms"), ("b", "count")], |name| {
            if name == "a_ms" {
                1.25
            } else {
                3.0
            }
        });
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
        assert!(result_line(10, 1, &[], |_| 0.0).starts_with("{\"correct\": false"));
    }

    #[test]
    #[should_panic(expected = "is NaN")]
    fn a_value_that_is_not_a_number_is_a_bug() {
        result_line(1, 0, &[("x", "ns")], |_| f64::NAN);
    }

    /// `BENCHMARK.json` and the lists above name the same metrics with the
    /// same units, in the same order.
    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let listed = |section: &str| -> Vec<(String, String)> {
            let from = json.find(&format!("\"{section}\"")).expect(section);
            let body = &json[from..];
            let body = &body[..body.find(']').expect("section ends")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at = entry.find(&format!("\"{key}\"")).expect(key);
                        let rest = &entry[at + key.len() + 2..];
                        let open = rest.find('"').expect("value opens") + 1;
                        let close = open + rest[open..].find('"').expect("value closes");
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(END_TO_END));
        assert_eq!(listed("per_layer"), ours(PER_LAYER));
    }
}
