//! Per-layer figures several workloads share: the cn-core API calls a
//! traced phase timed, and the counters a simulated neighborhood keeps.

use cn_observe::{HistogramSnapshot, Recorder, LATENCY_BUCKETS_US};

use crate::rounds::Phase;
use crate::stats::median;
use crate::Report;

/// The cn-core API layers of a traced phase: per-job medians of each
/// timed call, and add_task per call against the bid window.
pub fn core_layers_into(report: &mut Report, traced: &Phase, window_ms: f64) {
    for name in
        ["core.create_job_ms", "core.add_task_ms", "core.seed_ms", "core.start_ms", "core.wait_ms"]
    {
        report.layer(name, traced.layer_ms(name));
    }
    report.layer(
        "core.placement_over_window",
        median(&traced.calls_ms("core.add_task_ms")) / window_ms,
    );
}

/// Counters a simulated neighborhood keeps, read before and after a
/// traced phase.
pub struct Counters {
    values: [f64; 5],
    dispatch: HistogramSnapshot,
}

const COUNTERS: [&str; 5] = [
    "net.sent",
    "api.jm_bids_received",
    "api.jm_solicitations",
    "server.steals",
    "server.steal_returns",
];

impl Counters {
    pub fn read(rec: &Recorder) -> Counters {
        Counters {
            values: COUNTERS.map(|name| rec.counter(name).get() as f64),
            dispatch: rec.histogram("api.dispatch_latency_us", LATENCY_BUCKETS_US).snapshot(),
        }
    }

    /// What changed since `before`.
    pub fn since(&self, before: &Counters) -> Counters {
        let mut dispatch = self.dispatch.clone();
        dispatch.count = self.dispatch.count.saturating_sub(before.dispatch.count);
        dispatch.sum = self.dispatch.sum.saturating_sub(before.dispatch.sum);
        Counters { values: std::array::from_fn(|i| self.values[i] - before.values[i]), dispatch }
    }

    pub fn get(&self, name: &str) -> f64 {
        COUNTERS.iter().position(|n| *n == name).map_or(0.0, |i| self.values[i])
    }

    /// The counter-based cn-core and network layers of a traced phase.
    pub fn layers_into(&self, report: &mut Report, traced: &Phase) {
        let jobs = traced.verified().count().max(1) as f64;
        report.layer(
            "core.bids_per_solicit",
            self.get("api.jm_bids_received") / self.get("api.jm_solicitations").max(1.0),
        );
        report.layer("core.dispatch_us", self.dispatch.mean());
        report.layer("net.msgs_per_job", self.get("net.sent") / jobs);
    }
}
