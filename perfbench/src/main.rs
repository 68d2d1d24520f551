//! `perfbench` — runs one workload of the repository benchmark.
//!
//! ```text
//! perfbench --workload <portal_sim|portal_tc|portal_ingest|tc_floyd|contention>
//!           --seed N --seconds S --trace 0|1 --cnctl PATH [--smoke]
//! ```
//!
//! Runs one workload for `S` measured seconds and prints, as the last
//! line of stdout, `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The line before it carries provenance (machine shape,
//! build profile, seed, per-metric sample quartiles). `--smoke` shrinks
//! every workload to a tiny size for the benchmark's own tests. See
//! `NOTES.md` for what each workload and metric means.

mod contention;
mod http;
mod layers;
mod portal_ingest;
mod portal_tc;
mod procs;
mod rounds;
mod stats;
mod tc_floyd;

use std::path::PathBuf;

use stats::Report;

/// End-to-end metrics: every workload reports all of them.
pub const END_TO_END: &[&str] = &[
    "job_latency_p50_ms",
    "job_latency_p90_ms",
    "jobs_per_s",
    "makespan_ms",
    "accept_latency_p50_ms",
    "setup_s",
];

/// Per-layer metrics and their units: every traced run reports all of
/// them; a layer a workload does not drive reads 0 (see `NOTES.md`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("portal.accept_ms", "ms"),
    ("portal.run_ms", "ms"),
    ("portal.journal_wait_ms", "ms"),
    ("portal.refused", "count"),
    ("portal.jobs_per_batch", "ratio"),
    ("compile.sniff_ms", "ms"),
    ("compile.xmi2cnx_ms", "ms"),
    ("compile.cnx_ms", "ms"),
    ("compile.total_ms", "ms"),
    ("wire.client_fabric_ms", "ms"),
    ("wire.frames_per_job", "count"),
    ("wire.frames_per_flush", "ratio"),
    ("core.deploy_ms", "ms"),
    ("core.create_job_ms", "ms"),
    ("core.add_task_ms", "ms"),
    ("core.placement_over_window", "ratio"),
    ("core.bids_per_solicit", "ratio"),
    ("core.seed_ms", "ms"),
    ("core.start_ms", "ms"),
    ("core.wait_ms", "ms"),
    ("core.dispatch_us", "us"),
    ("net.msgs_per_job", "count"),
    ("sched.steals", "count"),
    ("sched.steal_returns", "count"),
    ("sched.placement_skew", "ratio"),
    ("sched.ideal_makespan_ms", "ms"),
    ("sched.makespan_over_ideal", "ratio"),
    ("tasks.floyd_seq_ms", "ms"),
    ("tasks.speedup_vs_seq", "ratio"),
    ("observe.journal_ms", "ms"),
    ("observe.journal_bytes", "bytes"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// Unit of a per-layer metric.
pub fn layer_unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
}

/// One run's settings.
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub cnctl: PathBuf,
}

impl Cfg {
    /// Set-ups per run; `setup_s` is their median.
    pub fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }

    /// Measured seconds of each phase: the whole run untraced, halves
    /// (untraced, then traced) when tracing.
    pub fn phase_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// A small deterministic generator (SplitMix64) for seeded inputs.
pub struct SeedRng(u64);

impl SeedRng {
    pub fn new(seed: u64) -> SeedRng {
        SeedRng(seed ^ 0x5EED_5EED_5EED_5EED)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

fn parse_args() -> Result<(String, Cfg), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
    };
    let need = |flag: &str| value(flag).ok_or_else(|| format!("missing {flag}"));
    let workload = need("--workload")?.to_string();
    let seed = need("--seed")?.parse().map_err(|_| "bad --seed".to_string())?;
    let seconds: f64 = need("--seconds")?.parse().map_err(|_| "bad --seconds".to_string())?;
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other:?} (0 or 1)")),
    };
    let cnctl = PathBuf::from(need("--cnctl")?);
    let smoke = args.iter().any(|a| a == "--smoke");
    if seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok((workload, Cfg { seed, seconds, trace, smoke, cnctl }))
}

fn run() -> Result<Report, String> {
    let (workload, cfg) = parse_args()?;
    let mut report = Report::default();
    match workload.as_str() {
        "portal_sim" => portal_tc::run(&cfg, &mut report, portal_tc::Runner::Sim)?,
        "portal_tc" => portal_tc::run(&cfg, &mut report, portal_tc::Runner::Wire)?,
        "portal_ingest" => portal_ingest::run(&cfg, &mut report)?,
        "tc_floyd" => tc_floyd::run(&cfg, &mut report)?,
        "contention" => contention::run(&cfg, &mut report)?,
        other => return Err(format!("unknown workload {other:?}")),
    }
    report.note("workload", &workload);
    report.note("seed", cfg.seed);
    report.note("seconds", cfg.seconds);
    report.note("trace", cfg.trace);
    report.note("smoke", cfg.smoke);
    report.note("nproc", std::thread::available_parallelism().map_or(1, |n| n.get()));
    report.note("reactor_shards", cn_reactor::default_shards());
    report.note("profile", if cfg!(debug_assertions) { "debug" } else { "release" });
    if cfg.trace {
        for (name, unit) in PER_LAYER {
            if report.get(name).is_none() {
                report.value(name, unit, 0.0);
            }
        }
        report.select(&PER_LAYER.iter().map(|(n, _)| *n).collect::<Vec<_>>())?;
    } else {
        report.select(END_TO_END)?;
    }
    Ok(report)
}

fn main() {
    match run() {
        Ok(report) => {
            println!("{}", report.provenance_json());
            println!("{}", report.result_json());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
