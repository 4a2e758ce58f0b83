//! The names and units this benchmark prints. `BENCHMARK.json` at the
//! repository root lists the same names with their direction and bound;
//! a test holds the two together.

pub const WORKLOADS: [&str; 5] = [
    "ledger_bounded",
    "ledger_faithful",
    "ledger_crash",
    "fabric_teig",
    "sharded_adverse",
];

/// `(name, unit)` of every end-to-end metric, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("decisions_per_s", "1/s"),
    ("decision_ms_p50", "ms"),
    ("decision_ms_p90", "ms"),
    ("rounds_per_decision", "rounds"),
    ("bits_per_decision", "bits"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end metrics that are counts of a seeded lock-step run: the same
/// seed must give the same value bit for bit.
pub const EXACT: [&str; 2] = ["rounds_per_decision", "bits_per_decision"];

/// `(name, unit)` of every per-layer metric, printed with `--trace 1`.
/// A metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("protocol.send_ns_per_tick", "ns"),
    ("protocol.receive_ns_per_tick", "ns"),
    ("protocol.bundle_reuse_ratio", "ratio"),
    ("protocol.peak_state_bits", "bits"),
    ("codec.frame_bits_ns_per_tick", "ns"),
    ("codec.bytes_per_frame", "bytes"),
    ("codec.encode_mb_per_s", "MB/s"),
    ("codec.decode_mb_per_s", "MB/s"),
    ("fabric.route_ns_per_tick", "ns"),
    ("fabric.inbox_ns_per_tick", "ns"),
    ("fabric.deliveries_per_tick", "count"),
    ("fabric.ns_per_delivery", "ns"),
    ("journal.encode_ns_per_tick", "ns"),
    ("journal.append_ns_per_tick", "ns"),
    ("journal.sync_ns_per_tick", "ns"),
    ("journal.bytes_per_tick", "bytes"),
    ("journal.bytes_per_decision", "bytes"),
    ("journal.encode_amplification", "ratio"),
    ("journal.scan_ns_per_recover", "ns"),
    ("journal.decode_ns_per_recover", "ns"),
    ("journal.replay_ns_per_recover", "ns"),
    ("journal.replayed_rounds_per_recover", "rounds"),
    ("journal.replay_ns_per_round", "ns"),
    ("journal.recover_ms_p50", "ms"),
    ("journal.recover_ms_late_p50", "ms"),
    ("sim.ticks", "count"),
    ("sim.tick_ns", "ns"),
    ("sim.tick_ns_p99", "ns"),
    ("sim.plan_ns_per_tick", "ns"),
    ("sim.unattributed_ns_per_tick", "ns"),
    ("sim.dropped_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// What one run of one workload reports.
pub struct Outcome {
    defs: &'static [(&'static str, &'static str)],
    /// Instances attempted (heights, `T(EIG)` runs, shots).
    pub attempted: u64,
    /// Instances undecided within their budget or with a failing verdict,
    /// plus recoveries that returned `Err`.
    pub failed: u64,
    /// One value per metric of `defs`, in that order.
    values: Vec<f64>,
}

impl Outcome {
    /// `given` names metrics of `defs`, in any order; one it leaves out
    /// reads 0.
    pub fn new(
        defs: &'static [(&'static str, &'static str)],
        attempted: u64,
        failed: u64,
        given: &[(&str, f64)],
    ) -> Outcome {
        for (name, _) in given {
            assert!(defs.iter().any(|(n, _)| n == name), "unknown metric {name}");
        }
        let value = |name| given.iter().find(|(n, _)| *n == name).map_or(0.0, |g| g.1);
        Outcome {
            defs,
            attempted,
            failed,
            values: defs.iter().map(|&(name, _)| value(name)).collect(),
        }
    }

    /// `(name, unit, value)` of every metric.
    pub fn metrics(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.defs
            .iter()
            .zip(&self.values)
            .map(|(&(name, unit), &v)| (name, unit, v))
    }

    /// The result line the driver reads: one JSON object, last on stdout.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics()
            .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
