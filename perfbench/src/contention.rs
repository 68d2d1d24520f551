//! `contention`: the speed-skewed fleet of the scheduling benchmark
//! (`[100, 100, 100, 25]` % speed, 2 exec slots per node, load-aware
//! placement with work stealing, 0.5 ms placement windows). Two client
//! threads, each a `CnApi` with the default client configuration, run
//! back-to-back jobs of 12 `simulate_work` tasks. Each task's nominal work
//! comes from a seeded permutation of 14..=26 ms without 20, so every job
//! holds 240 ms of nominal work. Placement, run queues and steals decide
//! the result; the CPU stays nearly idle.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cn_bench::contention_neighborhood;
use cn_core::{
    CnApi, JobRequirements, Neighborhood, Policy, StealConfig, TaskArchive, TaskContext, TaskSpec,
    UserData,
};
use cn_observe::Recorder;

use crate::layers::{core_layers_into, Counters};
use crate::rounds::{run_rounds, Job, Outcome, Phase, Spans};
use crate::stats::{median, median_setup, ms};
use crate::{Cfg, Report, SeedRng};

const SPEEDS: [u32; 4] = [100, 100, 100, 25];
const EXEC_SLOTS: usize = 2;
const CLIENTS: usize = 2;
const TASKS: usize = 12;
const JOBS_PER_ROUND: usize = 2;
/// Nominal task lengths (ms): symmetric around 20, so a job is 240 ms.
const WORK_MS: [i64; TASKS] = [14, 15, 16, 17, 18, 19, 21, 22, 23, 24, 25, 26];
const TIMEOUT: Duration = Duration::from_secs(60);
/// The JobManagers' placement (bid) window `contention_neighborhood` sets.
const PLACEMENT_WINDOW: Duration = Duration::from_micros(500);

/// What the tasks themselves observed (the benchmark owns the task code).
#[derive(Default)]
struct TaskLog {
    /// Measured work converted back to nominal speed, in µs.
    nominal_us: AtomicU64,
    tasks: AtomicU64,
    /// Tasks that ran on the slow node.
    on_straggler: AtomicU64,
}

fn work_archive(log: Arc<TaskLog>) -> TaskArchive {
    TaskArchive::new("work.jar").class("Spin", move || {
        let log = Arc::clone(&log);
        Box::new(move |ctx: &mut TaskContext| {
            let nominal = ctx.param_i64(0).unwrap_or(0);
            let t = Instant::now();
            ctx.simulate_work(Duration::from_millis(nominal as u64));
            let scale = ctx.work_scale();
            log.nominal_us
                .fetch_add((t.elapsed().as_secs_f64() * 1e6 / scale) as u64, Ordering::Relaxed);
            log.tasks.fetch_add(1, Ordering::Relaxed);
            if scale > 1.0 {
                log.on_straggler.fetch_add(1, Ordering::Relaxed);
            }
            Ok(UserData::I64s(vec![nominal]))
        })
    })
}

fn deploy(rec: &Recorder, log: &Arc<TaskLog>) -> Neighborhood {
    let steal = StealConfig { threshold: 1, heartbeat: Duration::from_millis(5) };
    let nb =
        contention_neighborhood(&SPEEDS, EXEC_SLOTS, Policy::LoadAware, Some(steal), rec.clone());
    nb.registry().publish(work_archive(Arc::clone(log)));
    nb
}

/// One job of 12 tasks; verified when every task returns its own length.
fn one_job(api: &CnApi, tag: &str, work: &[i64], mut spans: Spans) -> Job {
    let submit = Instant::now();
    let mut job =
        match spans.time("core.create_job_ms", || api.create_job(&JobRequirements::default())) {
            Ok(job) => job,
            Err(e) => return Job::failed_at(submit, spans, "create_job", e),
        };
    for (t, ms) in work.iter().enumerate() {
        let mut spec = TaskSpec::new(format!("{tag}t{t}"), "work.jar", "Spin");
        spec.memory_mb = 64;
        spec.params.push(cn_cnx::Param::integer(*ms));
        if let Err(e) = spans.time("core.add_task_ms", || job.add_task(spec)) {
            return Job::failed_at(submit, spans, "add_task", e);
        }
    }
    if let Err(e) = spans.time("core.start_ms", || job.start()) {
        return Job::failed_at(submit, spans, "start", e);
    }
    let accepted = Instant::now();
    let report = match spans.time("core.wait_ms", || job.wait(TIMEOUT)) {
        Ok(report) => report,
        Err(e) => return Job::failed_at(submit, spans, "wait", e),
    };
    let ok = report.results.len() == TASKS
        && work.iter().enumerate().all(|(t, ms)| {
            matches!(report.result(&format!("{tag}t{t}")), Some(UserData::I64s(v)) if v[..] == [*ms])
        });
    let outcome = if ok { Outcome::Verified } else { Outcome::Wrong };
    Job { submit, accepted, done: Instant::now(), outcome, spans }
}

struct Client {
    api: CnApi,
    id: usize,
    rng: SeedRng,
    jobs: usize,
}

pub fn run(cfg: &Cfg, report: &mut Report) -> Result<(), String> {
    let rec = Recorder::disabled();
    let log = Arc::new(TaskLog::default());
    let (nb, setup_s) = median_setup(
        cfg.setups(),
        || {
            let nb = deploy(&rec, &log);
            let api = CnApi::initialize(&nb);
            let warm = one_job(&api, "warm", &WORK_MS, Spans::off());
            drop(api);
            if warm.outcome != Outcome::Verified {
                nb.shutdown();
                return Err("contention warm-up job failed".to_string());
            }
            Ok(nb)
        },
        Neighborhood::shutdown,
    )?;

    let jobs_per_round = if cfg.smoke { 1 } else { JOBS_PER_ROUND };
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|id| Client {
            api: CnApi::initialize(&nb),
            id,
            rng: SeedRng::new(cfg.seed.wrapping_add(id as u64)),
            jobs: 0,
        })
        .collect();
    let mut phase = |trace: bool| -> Phase {
        run_rounds(
            &mut clients,
            cfg.phase_seconds(),
            1,
            |c, _| {
                (0..jobs_per_round)
                    .map(|_| {
                        let mut work = WORK_MS;
                        c.rng.shuffle(&mut work);
                        let tag = format!("c{}j{}", c.id, c.jobs);
                        c.jobs += 1;
                        one_job(&c.api, &tag, &work, Spans::new(trace))
                    })
                    .collect()
            },
            || {},
        )
    };

    let plain = phase(false);
    plain.count_into(report);
    plain.end_to_end_into(report);
    report.value("setup_s", "s", setup_s);

    if cfg.trace {
        let before = Counters::read(&rec);
        let snap = |l: &TaskLog| {
            [&l.nominal_us, &l.tasks, &l.on_straggler].map(|a| a.load(Ordering::Relaxed) as f64)
        };
        let log_before = snap(&log);
        let traced = phase(true);
        traced.count_into(report);
        let delta = Counters::read(&rec).since(&before);
        let log_after = snap(&log);
        let [nominal_us, tasks, on_straggler] = [0, 1, 2].map(|i| log_after[i] - log_before[i]);
        let rounds = traced.rounds.max(1) as f64;

        // The lower bound: a round's measured nominal work spread over
        // the fleet's speed-weighted slots.
        let weighted_slots: f64 =
            SPEEDS.iter().map(|s| f64::from(*s) / 100.0 * EXEC_SLOTS as f64).sum();
        let straggler_share = f64::from(SPEEDS[3]) / 100.0 * EXEC_SLOTS as f64 / weighted_slots;
        let ideal_ms = nominal_us / 1e3 / rounds / weighted_slots;
        let makespan = median(&traced.makespans_ms);

        core_layers_into(report, &traced, ms(PLACEMENT_WINDOW));
        delta.layers_into(report, &traced);
        report.layer("sched.steals", delta.get("server.steals") / rounds);
        report.layer("sched.steal_returns", delta.get("server.steal_returns") / rounds);
        report.layer("sched.placement_skew", on_straggler / tasks.max(1.0) / straggler_share);
        report.layer("sched.ideal_makespan_ms", ideal_ms);
        report.layer("sched.makespan_over_ideal", makespan / ideal_ms.max(1e-9));
        report.layer("trace.unattributed_ms", traced.unattributed_ms());
        report.layer(
            "trace.overhead_ms",
            median(&traced.latencies_ms()) - median(&plain.latencies_ms()),
        );
        report.note("makespan_traced_ms", makespan);
    }
    drop(clients);
    nb.shutdown();
    Ok(())
}
