//! The closed loop every workload shares.
//!
//! A run is a sequence of rounds. In each round every client thread runs
//! its share of jobs, each job submitted only after the client's previous
//! one was verified (or, for `portal_ingest`, after the client's previous
//! submission was accepted). All clients start a round together, so the
//! round's makespan is "first submit → last job done, across all clients".
//! Rounds repeat until the measured time is used up.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use crate::stats::{median, ms, ms_between, Report};

/// How one job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed and its output passed the workload's check.
    Verified,
    /// Refused at admission (`429`/`503`) or failed by the system.
    Failed,
    /// Completed, but its output failed the check.
    Wrong,
}

/// One job as the client saw it.
#[derive(Debug, Clone)]
pub struct Job {
    pub submit: Instant,
    /// When the system acknowledged the submission: `202` for HTTP,
    /// `JobHandle::start` returning for a direct API client.
    pub accepted: Instant,
    /// When the client held the verified result.
    pub done: Instant,
    pub outcome: Outcome,
    /// Calls timed from outside in a traced phase: (layer metric, ms).
    pub spans: Spans,
}

impl Job {
    pub fn failed(submit: Instant) -> Job {
        let now = Instant::now();
        Job { submit, accepted: now, done: now, outcome: Outcome::Failed, spans: Spans::off() }
    }

    /// A job the system failed at `step`; the error goes to stderr.
    pub fn failed_at(
        submit: Instant,
        spans: Spans,
        step: &str,
        error: impl std::fmt::Display,
    ) -> Job {
        eprintln!("perfbench: job failed at {step}: {error}");
        Job { spans, ..Job::failed(submit) }
    }
}

/// Wall times of single calls into the system, taken around each call
/// from outside (traced phases only; a no-op when off). Time between the
/// timed calls stays unattributed.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    on: bool,
    calls: Vec<(&'static str, f64)>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans { on, calls: Vec::new() }
    }

    pub fn off() -> Spans {
        Spans::new(false)
    }

    /// Run `f`, recording its wall time under `name` when tracing.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let value = f();
        self.calls.push((name, ms(t.elapsed())));
        value
    }

    /// Sum of this job's calls named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.calls.iter().filter(|(n, _)| *n == name).map(|(_, v)| v).sum()
    }

    pub fn sum(&self) -> f64 {
        self.calls.iter().map(|(_, v)| v).sum()
    }
}

/// Everything one timed phase produced.
#[derive(Default)]
pub struct Phase {
    pub jobs: Vec<Job>,
    pub makespans_ms: Vec<f64>,
    pub wall_s: f64,
    pub rounds: usize,
}

impl Phase {
    pub fn verified(&self) -> impl Iterator<Item = &Job> {
        self.jobs.iter().filter(|j| j.outcome == Outcome::Verified)
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.verified().map(|j| ms_between(j.submit, j.done)).collect()
    }

    pub fn accepts_ms(&self) -> Vec<f64> {
        self.verified().map(|j| ms_between(j.submit, j.accepted)).collect()
    }

    /// Median over verified jobs of the per-job total of calls `name`.
    pub fn layer_ms(&self, name: &str) -> f64 {
        median(&self.verified().map(|j| j.spans.total(name)).collect::<Vec<_>>())
    }

    /// Every single call named `name`, across verified jobs.
    pub fn calls_ms(&self, name: &str) -> Vec<f64> {
        self.verified()
            .flat_map(|j| j.spans.calls.iter().filter(|(n, _)| *n == name).map(|(_, v)| *v))
            .collect()
    }

    /// Median over verified jobs of latency minus every timed call.
    pub fn unattributed_ms(&self) -> f64 {
        median(
            &self
                .verified()
                .map(|j| ms_between(j.submit, j.done) - j.spans.sum())
                .collect::<Vec<_>>(),
        )
    }

    pub fn jobs_per_s(&self) -> f64 {
        self.verified().count() as f64 / self.wall_s.max(1e-9)
    }

    /// Add this phase's attempts, failures and wrong outputs to `report`.
    pub fn count_into(&self, report: &mut Report) {
        report.attempted += self.jobs.len() as u64;
        report.failed += self.jobs.iter().filter(|j| j.outcome != Outcome::Verified).count() as u64;
        report.wrong += self.jobs.iter().filter(|j| j.outcome == Outcome::Wrong).count() as u64;
    }

    /// The end-to-end metrics every workload reports from its timed phase.
    pub fn end_to_end_into(&self, report: &mut Report) {
        let lat = self.latencies_ms();
        report.median_of("job_latency_p50_ms", "ms", &lat);
        report.quantile_of("job_latency_p90_ms", "ms", &lat, 0.9);
        report.value("jobs_per_s", "1/s", self.jobs_per_s());
        report.median_of("makespan_ms", "ms", &self.makespans_ms);
        report.median_of("accept_latency_p50_ms", "ms", &self.accepts_ms());
        report.note("jobs_verified", lat.len());
        report.note("rounds", self.rounds);
        // A p90 is only resolved with at least ten samples beyond it.
        report.note("p90_tail_samples", lat.len() / 10);
    }
}

/// Run rounds until `seconds` have passed (and at least `min_rounds`
/// rounds ran). `round(client, round_index)` runs one client's share of a
/// round on that client's own thread and returns its jobs; `between` runs
/// after each round while every client is idle.
pub fn run_rounds<C: Send>(
    clients: &mut [C],
    seconds: f64,
    min_rounds: usize,
    round: impl Fn(&mut C, usize) -> Vec<Job> + Sync,
    mut between: impl FnMut(),
) -> Phase {
    let barrier = Barrier::new(clients.len() + 1);
    let stop = AtomicBool::new(false);
    let per_round: Mutex<Vec<Vec<Job>>> = Mutex::new(Vec::new());
    let budget = Duration::from_secs_f64(seconds);
    let mut rounds = 0;
    std::thread::scope(|s| {
        for client in clients.iter_mut() {
            let (barrier, stop, per_round, round) = (&barrier, &stop, &per_round, &round);
            s.spawn(move || {
                let mut r = 0;
                loop {
                    barrier.wait();
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    let jobs = round(client, r);
                    {
                        let mut all = per_round.lock().expect("a client thread panicked");
                        if all.len() <= r {
                            all.resize_with(r + 1, Vec::new);
                        }
                        all[r].extend(jobs);
                    }
                    barrier.wait();
                    r += 1;
                }
            });
        }
        let start = Instant::now();
        loop {
            let done = rounds >= min_rounds && start.elapsed() >= budget;
            stop.store(done, Ordering::Release);
            barrier.wait();
            if done {
                break;
            }
            barrier.wait();
            rounds += 1;
            between();
        }
    });

    let per_round = per_round.into_inner().expect("a client thread panicked");
    let mut phase = Phase { rounds, ..Phase::default() };
    let mut first: Option<Instant> = None;
    let mut last: Option<Instant> = None;
    for jobs in per_round.into_iter().filter(|j| !j.is_empty()) {
        let start = jobs.iter().map(|j| j.submit).min().expect("non-empty round");
        let end = jobs.iter().map(|j| j.done).max().expect("non-empty round");
        phase.makespans_ms.push(ms_between(start, end));
        first = Some(first.map_or(start, |f| f.min(start)));
        last = Some(last.map_or(end, |l| l.max(end)));
        phase.jobs.extend(jobs);
    }
    if let (Some(f), Some(l)) = (first, last) {
        phase.wall_s = l.saturating_duration_since(f).as_secs_f64();
    }
    phase
}
