//! `tc_floyd`: the paper's transitive-closure job on an in-process
//! neighborhood (default configuration: 5 ms bid windows, zero-latency
//! simulated fabric) of 2 nodes. One client runs back-to-back jobs of
//! Floyd at n = 384 with 2 TCTask workers, following
//! `run_transitive_closure` call for call, and checks every result against
//! `floyd_sequential` of the same input.

use std::time::{Duration, Instant};

use cn_cluster::NodeSpec;
use cn_core::{CnApi, JobRequirements, Neighborhood, NeighborhoodConfig, ServerConfig, TaskSpec};
use cn_observe::Recorder;
use cn_tasks::transclosure::{
    JOIN_CLASS, JOIN_JAR, SPLIT_CLASS, SPLIT_JAR, WORKER_CLASS, WORKER_JAR,
};
use cn_tasks::{floyd_sequential, publish_tc_archives, random_digraph, seed_input, Matrix};

use crate::layers::{core_layers_into, Counters};
use crate::rounds::{run_rounds, Job, Outcome, Phase, Spans};
use crate::stats::{median, median_setup, ms};
use crate::{layer_unit, Cfg, Report};

const NODES: usize = 2;
const WORKERS: usize = 2;
/// Distinct seeded inputs per run; job i uses input i mod INPUTS.
const INPUTS: usize = 4;
const JOBS_PER_ROUND: usize = 4;
const TIMEOUT: Duration = Duration::from_secs(60);

fn size(cfg: &Cfg) -> usize {
    if cfg.smoke {
        48
    } else {
        384
    }
}

fn deploy(rec: &Recorder) -> Neighborhood {
    let nb = Neighborhood::deploy_with(
        NodeSpec::fleet(NODES, 8192, 16),
        NeighborhoodConfig { recorder: rec.clone(), ..NeighborhoodConfig::default() },
    );
    cn_tasks::publish_all_archives(nb.registry());
    nb
}

/// One transitive-closure job, the same calls `run_transitive_closure`
/// makes, each timed when `spans` is on.
fn one_job(nb: &Neighborhood, input: &Matrix, expected: &Matrix, mut spans: Spans) -> Job {
    let submit = Instant::now();
    publish_tc_archives(nb.registry());
    let api = CnApi::initialize(nb);
    let mut job =
        match spans.time("core.create_job_ms", || api.create_job(&JobRequirements::default())) {
            Ok(job) => job,
            Err(e) => return Job::failed_at(submit, spans, "create_job", e),
        };
    let worker_names: Vec<String> = (1..=WORKERS).map(|i| format!("tctask{i}")).collect();
    let mut specs = Vec::with_capacity(WORKERS + 2);
    let mut split = TaskSpec::new("tctask0", SPLIT_JAR, SPLIT_CLASS);
    split.params.push(cn_cnx::Param::string("matrix.txt"));
    specs.push(split);
    for (i, name) in worker_names.iter().enumerate() {
        let mut w = TaskSpec::new(name.clone(), WORKER_JAR, WORKER_CLASS);
        w.depends = vec!["tctask0".to_string()];
        w.params.push(cn_cnx::Param::integer(i as i64 + 1));
        specs.push(w);
    }
    let mut join = TaskSpec::new("tctask999", JOIN_JAR, JOIN_CLASS);
    join.depends = worker_names.clone();
    join.params.push(cn_cnx::Param::string("matrix.txt"));
    specs.push(join);
    for mut spec in specs {
        spec.memory_mb = 100;
        if let Err(e) = spans.time("core.add_task_ms", || job.add_task(spec)) {
            return Job::failed_at(submit, spans, "add_task", e);
        }
    }
    let seeded = spans
        .time("core.seed_ms", || seed_input(&job, "matrix.txt", input, &worker_names, "tctask999"));
    if let Err(e) = seeded {
        return Job::failed_at(submit, spans, "seed", e);
    }
    if let Err(e) = spans.time("core.start_ms", || job.start()) {
        return Job::failed_at(submit, spans, "start", e);
    }
    let accepted = Instant::now();
    let report = match spans.time("core.wait_ms", || job.wait(TIMEOUT)) {
        Ok(report) => report,
        Err(e) => return Job::failed_at(submit, spans, "wait", e),
    };
    let ok = report
        .result("tctask999")
        .and_then(|r| Matrix::from_userdata(r).ok())
        .is_some_and(|m| m == *expected);
    let outcome = if ok { Outcome::Verified } else { Outcome::Wrong };
    Job { submit, accepted, done: Instant::now(), outcome, spans }
}

pub fn run(cfg: &Cfg, report: &mut Report) -> Result<(), String> {
    let n = size(cfg);
    let inputs: Vec<Matrix> = (0..INPUTS as u64)
        .map(|i| {
            random_digraph(n, 0.25, 1..9, cfg.seed.wrapping_mul(INPUTS as u64).wrapping_add(i))
        })
        .collect();
    // The oracle (and, traced, the sequential lower bound) before set-up.
    let mut seq_ms = Vec::with_capacity(INPUTS);
    let expected: Vec<Matrix> = inputs
        .iter()
        .map(|m| {
            let t = Instant::now();
            let out = floyd_sequential(m);
            seq_ms.push(ms(t.elapsed()));
            out
        })
        .collect();

    // Set-up: deploy, publish archives, one small warm-up job.
    let rec = Recorder::disabled();
    let warm_in = random_digraph(32, 0.25, 1..9, cfg.seed);
    let warm_out = floyd_sequential(&warm_in);
    let (nb, setup_s) = median_setup(
        cfg.setups(),
        || {
            let nb = deploy(&rec);
            let warm = one_job(&nb, &warm_in, &warm_out, Spans::off());
            if warm.outcome != Outcome::Verified {
                nb.shutdown();
                return Err("tc_floyd warm-up job failed".to_string());
            }
            Ok(nb)
        },
        Neighborhood::shutdown,
    )?;

    let phase = |trace: bool| -> Phase {
        let mut next = 0usize;
        run_rounds(
            std::slice::from_mut(&mut next),
            cfg.phase_seconds(),
            1,
            |next, _| {
                (0..JOBS_PER_ROUND)
                    .map(|_| {
                        let i = *next % INPUTS;
                        *next += 1;
                        one_job(&nb, &inputs[i], &expected[i], Spans::new(trace))
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
    report.note("n", n);
    report.note("workers", WORKERS);

    if cfg.trace {
        let before = Counters::read(&rec);
        let traced = phase(true);
        traced.count_into(report);
        let untraced_p50 = median(&plain.latencies_ms());
        core_layers_into(report, &traced, ms(ServerConfig::default().bid_window));
        Counters::read(&rec).since(&before).layers_into(report, &traced);
        report.median_of("tasks.floyd_seq_ms", layer_unit("tasks.floyd_seq_ms"), &seq_ms);
        report.layer("tasks.speedup_vs_seq", median(&seq_ms) / untraced_p50.max(1e-9));
        report.layer("trace.unattributed_ms", traced.unattributed_ms());
        report.layer("trace.overhead_ms", median(&traced.latencies_ms()) - untraced_p50);
    }
    nb.shutdown();
    Ok(())
}
