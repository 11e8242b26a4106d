//! The per-layer metrics of the traced pass, and the runtime counters
//! they are derived from.

use ensemble_runtime::RuntimeStats;
use std::collections::BTreeMap;

/// Every per-layer metric with its unit, in report order. A workload
/// that does not exercise a layer reports 0 for that layer's metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kv.client.call_us_p50", "us"),
    ("kv.server.self_us_p50", "us"),
    ("cpu.kv_server_us_per_op", "us"),
    ("kv.client.redirects", "count"),
    ("kv.replica.submit_us_p50", "us"),
    ("kv.replica.submit_us_p99", "us"),
    ("kv.replica.self_us_p50", "us"),
    ("cpu.kv_apply_us_per_op", "us"),
    ("kv.replica.timeouts", "count"),
    ("kv.replica.rejected", "count"),
    ("kv.store.apply_ns", "ns"),
    ("kv.storage.sync_us_p50", "us"),
    ("kv.storage.sync_us_p99", "us"),
    ("kv.storage.append_us_p50", "us"),
    ("kv.wal.records_per_sync", "count"),
    ("kv.wal.bytes_per_op", "B"),
    ("kv.wal.checkpoint_bytes_per_op", "B"),
    ("cluster.cast_deliver_us_p50", "us"),
    ("cpu.cluster_us_per_op", "us"),
    ("cluster.control_pkts_per_s", "1/s"),
    ("cluster.views_installed", "count"),
    ("cluster.suspicions", "count"),
    ("cpu.runtime_us_per_op", "us"),
    ("runtime.msgs_out_per_op", "count"),
    ("runtime.msgs_in_per_op", "count"),
    ("runtime.retransmits_per_kop", "count"),
    ("runtime.timers_fired_per_op", "count"),
    ("runtime.spurious_wakeups_per_op", "count"),
    ("runtime.defer_flushes_per_kop", "count"),
    ("runtime.bypass_hit_ratio", "ratio"),
    ("runtime.cost_dispatches_per_op", "count"),
    ("runtime.cost_allocations_per_op", "count"),
    ("synth.bypass.dn_ns", "ns"),
    ("synth.bypass.up_ns", "ns"),
    ("stack.imp.dn_ns", "ns"),
    ("stack.imp.up_ns", "ns"),
    ("transport.marshal_ns", "ns"),
    ("transport.unmarshal_ns", "ns"),
    ("transport.send_ns_p50", "ns"),
    ("transport.data_pkts_per_op", "count"),
    ("transport.data_bytes_per_op", "B"),
    ("transport.backpressure_drops", "count"),
    ("cpu.generator_us_per_op", "us"),
    ("trace.overhead_lat_p50_pct", "%"),
    ("trace.overhead_throughput_pct", "%"),
];

/// Per-layer values of one traced pass, keyed by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Runtime counters summed over every shard of every node.
#[derive(Clone, Copy, Default, Debug)]
pub struct RtCounters {
    msgs_in: f64,
    msgs_out: f64,
    retransmits: f64,
    timers: f64,
    spurious: f64,
    defer_flushes: f64,
    hits: f64,
    misses: f64,
    dispatches: f64,
    allocations: f64,
}

impl RtCounters {
    pub fn from_stats(stats: &RuntimeStats) -> RtCounters {
        let t = stats.totals();
        RtCounters {
            msgs_in: t.msgs_in as f64,
            msgs_out: t.msgs_out as f64,
            retransmits: t.retransmits as f64,
            timers: t.timers_fired as f64,
            spurious: t.spurious_wakeups as f64,
            defer_flushes: t.defer_flushes as f64,
            hits: t.bypass_hits as f64,
            misses: t.bypass_misses as f64,
            dispatches: t.model_cost.dispatches as f64,
            allocations: t.model_cost.allocations as f64,
        }
    }

    /// Parses the same counters out of a node's metrics exposition.
    pub fn from_text(text: &str) -> RtCounters {
        let s = |name: &str, label: &str| series_sum(text, name, label);
        RtCounters {
            msgs_in: s("ensemble_msgs_total", "dir=\"in\""),
            msgs_out: s("ensemble_msgs_total", "dir=\"out\""),
            retransmits: s("ensemble_retransmits_total", ""),
            timers: s("ensemble_timers_fired_total", ""),
            spurious: s("ensemble_spurious_wakeups_total", ""),
            defer_flushes: s("ensemble_defer_flushes_total", ""),
            hits: s("ensemble_bypass_total", "result=\"hit\""),
            misses: s("ensemble_bypass_total", "result=\"miss\""),
            dispatches: s("ensemble_model_cost_total", "counter=\"dispatches\""),
            allocations: s("ensemble_model_cost_total", "counter=\"allocations\""),
        }
    }

    pub fn add(self, o: RtCounters) -> RtCounters {
        self.zip(o, |a, b| a + b)
    }

    pub fn sub(self, o: RtCounters) -> RtCounters {
        self.zip(o, |a, b| a - b)
    }

    fn zip(self, o: RtCounters, f: impl Fn(f64, f64) -> f64) -> RtCounters {
        RtCounters {
            msgs_in: f(self.msgs_in, o.msgs_in),
            msgs_out: f(self.msgs_out, o.msgs_out),
            retransmits: f(self.retransmits, o.retransmits),
            timers: f(self.timers, o.timers),
            spurious: f(self.spurious, o.spurious),
            defer_flushes: f(self.defer_flushes, o.defer_flushes),
            hits: f(self.hits, o.hits),
            misses: f(self.misses, o.misses),
            dispatches: f(self.dispatches, o.dispatches),
            allocations: f(self.allocations, o.allocations),
        }
    }

    /// Fills the `runtime.*` metrics for a pass that completed `ops`.
    pub fn report(&self, ops: f64, out: &mut Layers) {
        let ops = ops.max(1.0);
        out.insert("runtime.msgs_out_per_op", self.msgs_out / ops);
        out.insert("runtime.msgs_in_per_op", self.msgs_in / ops);
        out.insert("runtime.retransmits_per_kop", 1e3 * self.retransmits / ops);
        out.insert("runtime.timers_fired_per_op", self.timers / ops);
        out.insert("runtime.spurious_wakeups_per_op", self.spurious / ops);
        out.insert(
            "runtime.defer_flushes_per_kop",
            1e3 * self.defer_flushes / ops,
        );
        let tries = self.hits + self.misses;
        out.insert(
            "runtime.bypass_hit_ratio",
            if tries > 0.0 { self.hits / tries } else { 0.0 },
        );
        out.insert("runtime.cost_dispatches_per_op", self.dispatches / ops);
        out.insert("runtime.cost_allocations_per_op", self.allocations / ops);
    }
}

/// Sums every sample of series `name` whose label set contains
/// `label` (empty: all samples).
pub fn series_sum(text: &str, name: &str, label: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            let (n, labels) = key.split_once('{').unwrap_or((key, ""));
            (n == name && labels.contains(label)).then(|| value.parse::<f64>().ok())?
        })
        .sum()
}

/// CPU seconds per thread group turned into `cpu.*_us_per_op`.
pub fn report_cpu(groups: &BTreeMap<&'static str, f64>, ops: f64, out: &mut Layers) {
    let per_op = |g: &str| 1e6 * groups.get(g).copied().unwrap_or(0.0) / ops.max(1.0);
    out.insert("cpu.runtime_us_per_op", per_op("runtime"));
    out.insert("cpu.cluster_us_per_op", per_op("cluster"));
    out.insert("cpu.kv_apply_us_per_op", per_op("kv_apply"));
    out.insert("cpu.kv_server_us_per_op", per_op("kv_server"));
    out.insert("cpu.generator_us_per_op", per_op("other"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_sum_filters_by_name_and_label() {
        let text = "ensemble_msgs_total{shard=\"0\",dir=\"in\"} 3\n\
                    ensemble_msgs_total{shard=\"1\",dir=\"in\"} 4\n\
                    ensemble_msgs_total{shard=\"0\",dir=\"out\"} 9\n\
                    ensemble_msgs_totals 100\n\
                    ensemble_retransmits_total{shard=\"0\"} 2\n";
        assert_eq!(series_sum(text, "ensemble_msgs_total", "dir=\"in\""), 7.0);
        assert_eq!(series_sum(text, "ensemble_msgs_total", ""), 16.0);
        assert_eq!(series_sum(text, "ensemble_retransmits_total", ""), 2.0);
    }
}
