//! `portal_tc` and `portal_sim`: the paper's user path through the portal.
//! One keep-alive HTTP connection POSTs the Figure-2 model as XMI (16×16
//! seeded input) to a `cnctl portal` process, then GETs
//! `/jobs/<id>/journal`, which parks until the job is done. Every streamed
//! journal must be byte-identical to an in-process simulated run of the
//! same XMI, seed and node count.
//!
//! The two workloads differ only in the portal's runner. `portal_tc` runs
//! `cnctl portal --peers` in front of two `cnctl serve` processes, so each
//! job crosses real sockets (`WireRunner`). `portal_sim` runs
//! `cnctl portal --sim 2`, which executes each job on an in-process
//! neighborhood of two nodes (`SimRunner`).
//!
//! The traced run first repeats the HTTP loop, reading the portal's own
//! counters from `GET /metrics`, then replays the portal's runner call for
//! call (against the same `serve` processes for `portal_tc`), timing each
//! call.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cn_cluster::NodeSpec;
use cn_core::spaces::SpaceRegistry;
use cn_core::{
    execute_descriptor_seeded, ClientConfig, CnApi, DynamicArgs, JobRequirements, Neighborhood,
    NeighborhoodConfig, ServerConfig, TaskSpec,
};
use cn_observe::{journal_jsonl_filtered, Recorder, LATENCY_BUCKETS_US};
use cn_portal::{compile_submission, looks_like_xmi, seed_transitive_closure};
use cn_transform::xmi2cnx::{xmi_to_cnx_xslt, ClientSettings};
use cn_wire::{Discovery, FabricHandle, SocketFabric, WireConfig};

use crate::http::{field, mean_between, metric, metrics, Http};
use crate::layers::core_layers_into;
use crate::procs::{free_ports, launch_cluster, launch_portal, Procs};
use crate::rounds::{run_rounds, Job, Outcome, Spans};
use crate::stats::{median, median_setup, ms, ms_between};
use crate::{Cfg, Report};

/// Nodes a job runs on: `serve` processes, or simulated nodes.
const NODES: usize = 2;
const JOBS_PER_ROUND: usize = 4;
const TIMEOUT: Duration = Duration::from_secs(60);

/// Which runner the portal executes jobs with.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Runner {
    /// `cnctl portal --peers` over `SocketFabric` to `cnctl serve` processes.
    Wire,
    /// `cnctl portal --sim`: an in-process neighborhood per job.
    Sim,
}

impl Runner {
    /// TCTask workers in the posted model. Each adds a 5 ms placement
    /// window; the count keeps the runner mid-way between two 20 ms
    /// journal-poll steps (see `NOTES.md`).
    fn model_workers(self) -> usize {
        match self {
            Runner::Wire => 5,
            Runner::Sim => 6,
        }
    }
}

pub fn figure2_xmi(workers: usize) -> String {
    cn_xml::write_document(
        &cn_model::export_xmi(&cn_transform::figure2_model(workers)),
        &cn_xml::WriteOptions::xmi(),
    )
}

/// The oracle: the same XMI through the same compile path, run on the
/// simulated fabric with one node per `serve` process and the same input
/// seed the portal uses.
fn simulated_journal(xmi: &str, digraph_seed: u64) -> Result<String, String> {
    let compiled = compile_submission(xmi.as_bytes())?;
    let rec = Recorder::new();
    let nb = Neighborhood::deploy_with(
        NodeSpec::fleet(NODES, 8192, 16),
        NeighborhoodConfig { recorder: rec.clone(), ..NeighborhoodConfig::default() },
    );
    cn_tasks::publish_all_archives(nb.registry());
    let run =
        execute_descriptor_seeded(&nb, &compiled.descriptor, &DynamicArgs::new(), TIMEOUT, |job| {
            seed_transitive_closure(job, digraph_seed)
        });
    nb.shutdown();
    run.map_err(|e| format!("simulated oracle run: {e}"))?;
    Ok(journal_jsonl_filtered(&rec, &["wire"]))
}

/// One job over HTTP: POST the XMI, then stream its journal. Returns the
/// job and the GET → journal time.
fn http_job(http: &mut Http, xmi: &str, oracle: &str) -> (Job, f64) {
    let submit = Instant::now();
    let failed =
        |step: &str, error: String| (Job::failed_at(submit, Spans::off(), step, error), 0.0);
    let id = match http.roundtrip("POST", "/jobs", xmi.as_bytes()) {
        Ok((202, body)) => match field(&String::from_utf8_lossy(&body), "id") {
            Some(id) => id.to_string(),
            None => return failed("POST /jobs", "202 without a job id".to_string()),
        },
        Ok((status, body)) => {
            return failed("POST /jobs", format!("{status} {}", String::from_utf8_lossy(&body)))
        }
        Err(e) => return failed("POST /jobs", e.to_string()),
    };
    let accepted = Instant::now();
    let journal = http.roundtrip("GET", &format!("/jobs/{id}/journal"), b"");
    let done = Instant::now();
    let outcome = match journal {
        Ok((200, body)) if body == oracle.as_bytes() => Outcome::Verified,
        Ok((200, body)) if body.starts_with(b"{\"error\"") => {
            return failed("GET journal", String::from_utf8_lossy(&body).into_owned())
        }
        Ok((200, _)) => Outcome::Wrong,
        Ok((status, body)) => {
            return failed("GET journal", format!("{status} {}", String::from_utf8_lossy(&body)))
        }
        Err(e) => return failed("GET journal", e.to_string()),
    };
    let job = Job { submit, accepted, done, outcome, spans: Spans::off() };
    (job, ms_between(accepted, done))
}

/// What a replayed job measured besides its timed calls.
#[derive(Default)]
struct Extra {
    sniff_ms: f64,
    xmi2cnx_ms: f64,
    cnx_ms: f64,
    frames: f64,
    frames_per_flush: f64,
    msgs: f64,
    journal_bytes: f64,
    dispatch_us: f64,
    bids_per_solicit: f64,
    floyd_seq_ms: f64,
}

/// The calls `execute_with_api_seeded` makes for a one-job descriptor,
/// each timed. Returns when `start` returned, or the step that failed.
fn job_calls(
    api: &CnApi,
    decl: &cn_cnx::Job,
    rec: &Recorder,
    digraph_seed: u64,
    spans: &mut Spans,
) -> Result<Instant, (&'static str, String)> {
    let mut job = spans
        .time("core.create_job_ms", || api.create_job(&JobRequirements::default()))
        .map_err(|e| ("create_job", e.to_string()))?;
    for task in &decl.tasks {
        spans
            .time("core.add_task_ms", || job.add_task(TaskSpec::from_cnx(task)))
            .map_err(|e| ("add_task", e.to_string()))?;
    }
    spans.time("core.seed_ms", || {
        let seed_span = job.span().and_then(|p| rec.span_start("client", "seed-input", Some(p)));
        seed_transitive_closure(&mut job, digraph_seed);
        rec.span_end(seed_span);
    });
    spans.time("core.start_ms", || job.start()).map_err(|e| ("start", e.to_string()))?;
    let accepted = Instant::now();
    spans.time("core.wait_ms", || job.wait(TIMEOUT)).map_err(|e| ("wait", e.to_string()))?;
    Ok(accepted)
}

/// The portal's runner for one job, call for call, each call timed:
/// `WireRunner::run` (a client fabric per job) or `SimRunner::run` (a
/// neighborhood per job). The compile sub-steps are timed separately,
/// after the job.
fn replay_job(
    runner: Runner,
    xmi: &str,
    peers: &[u16],
    digraph_seed: u64,
    oracle: &str,
) -> (Job, Extra) {
    let mut spans = Spans::new(true);
    let submit = Instant::now();
    let fail = |spans: Spans, step: &str, e: String| {
        (Job::failed_at(submit, spans, step, e), Extra::default())
    };
    let compiled = match spans.time("compile.total_ms", || compile_submission(xmi.as_bytes())) {
        Ok(compiled) => compiled,
        Err(e) => return fail(spans, "compile", e),
    };
    let Some(decl) = compiled.descriptor.client.jobs.first() else {
        return fail(spans, "compile", "descriptor has no job".to_string());
    };
    let rec = Recorder::new();
    let (called, journal) = match runner {
        Runner::Wire => {
            let api = spans.time("wire.client_fabric_ms", || {
                let cfg = WireConfig {
                    discovery: Discovery::Loopback { peers: peers.to_vec() },
                    ..WireConfig::default()
                };
                let fabric = SocketFabric::new(cfg, rec.clone())?;
                Ok::<_, std::io::Error>(CnApi::over(
                    FabricHandle::new(fabric),
                    Arc::new(SpaceRegistry::with_recorder(&rec)),
                    ClientConfig::default(),
                ))
            });
            let api = match api {
                Ok(api) => api,
                Err(e) => return fail(spans, "client fabric", e.to_string()),
            };
            let called = job_calls(&api, decl, &rec, digraph_seed, &mut spans);
            let journal =
                spans.time("observe.journal_ms", || journal_jsonl_filtered(&rec, &["wire"]));
            // The runner drops its client fabric before the job counts as done.
            spans.time("wire.client_fabric_ms", || drop(api));
            (called, journal)
        }
        Runner::Sim => {
            let nb = spans.time("core.deploy_ms", || {
                let nb = Neighborhood::deploy_with(
                    NodeSpec::fleet(NODES, 8192, 16),
                    NeighborhoodConfig { recorder: rec.clone(), ..NeighborhoodConfig::default() },
                );
                cn_tasks::publish_all_archives(nb.registry());
                nb
            });
            let api = CnApi::initialize(&nb);
            let called = job_calls(&api, decl, &rec, digraph_seed, &mut spans);
            drop(api);
            // The runner shuts its neighborhood down before journaling.
            spans.time("core.deploy_ms", || nb.shutdown());
            let journal =
                spans.time("observe.journal_ms", || journal_jsonl_filtered(&rec, &["wire"]));
            (called, journal)
        }
    };
    let accepted = match called {
        Ok(accepted) => accepted,
        Err((step, e)) => return fail(spans, step, e),
    };
    let done = Instant::now();

    let timed = |f: &mut dyn FnMut() -> bool| {
        let t = Instant::now();
        let ok = f();
        (ok, ms(t.elapsed()))
    };
    let (sniffed, sniff_ms) = timed(&mut || looks_like_xmi(xmi));
    let mut cnx = None;
    let (_, xmi2cnx_ms) = timed(&mut || {
        cnx = xmi_to_cnx_xslt(xmi, &ClientSettings::default()).ok();
        true
    });
    let (checked, cnx_ms) = timed(&mut || {
        cnx.as_deref()
            .and_then(|text| cn_cnx::parse_cnx(text).ok())
            .is_some_and(|d| cn_cnx::validate(&d).is_ok())
    });
    // The job's compute on its own: sequential Floyd on the seeded input.
    let input = cn_tasks::random_digraph(16, 0.25, 1..9, digraph_seed);
    let (_, floyd_seq_ms) =
        timed(&mut || black_box(cn_tasks::floyd_sequential(black_box(&input))).n() == 16);
    let outcome =
        if journal == oracle && sniffed && checked { Outcome::Verified } else { Outcome::Wrong };

    // Per-job counters from the job's own client recorder.
    let count = |name: &str| rec.counter(name).get() as f64;
    let extra = Extra {
        sniff_ms,
        xmi2cnx_ms,
        cnx_ms,
        frames: count("wire.frames_sent") + count("wire.frames_recv"),
        frames_per_flush: count("wire.batch.frames") / count("wire.batch.flushes").max(1.0),
        msgs: count("net.sent"),
        journal_bytes: journal.len() as f64,
        dispatch_us: rec.histogram("api.dispatch_latency_us", LATENCY_BUCKETS_US).snapshot().mean(),
        bids_per_solicit: count("api.jm_bids_received") / count("api.jm_solicitations").max(1.0),
        floyd_seq_ms,
    };
    (Job { submit, accepted, done, outcome, spans }, extra)
}

/// Start the portal (and, for the wire runner, its `serve` processes) on
/// freshly reserved ports: the HTTP port first, then one per `serve`. A
/// reserved port can be taken by another process before a child binds it,
/// so a failed launch is retried on new ports, twice.
fn launch(
    cnctl: &std::path::Path,
    runner: Runner,
    portal_args: &[&str],
) -> Result<(Procs, Vec<u16>), String> {
    let mut last = String::new();
    for _ in 0..3 {
        let launched = match runner {
            Runner::Wire => free_ports(NODES + 1).and_then(|ports| {
                launch_cluster(cnctl, &ports[1..], ports[0], portal_args).map(|p| (p, ports))
            }),
            Runner::Sim => free_ports(1).and_then(|ports| {
                let nodes = NODES.to_string();
                let args = [portal_args, &["--sim", nodes.as_str()]].concat();
                launch_portal(cnctl, ports[0], &args).map(|p| (p, ports))
            }),
        };
        match launched {
            Ok(launched) => return Ok(launched),
            Err(e) => last = e,
        }
    }
    Err(last)
}

pub fn run(cfg: &Cfg, report: &mut Report, runner: Runner) -> Result<(), String> {
    let xmi = figure2_xmi(runner.model_workers());
    let oracle = simulated_journal(&xmi, cfg.seed)?;
    let seed = cfg.seed.to_string();
    let portal_args = ["--seed", seed.as_str(), "--timeout", "60"];

    // Set-up: spawn the portal (and serve) processes, one warm-up job.
    let ((procs, ports), setup_s) = median_setup(
        cfg.setups(),
        || {
            let (procs, ports) = launch(&cfg.cnctl, runner, &portal_args)?;
            let mut http = Http::connect(ports[0]).map_err(|e| format!("portal connect: {e}"))?;
            if http_job(&mut http, &xmi, &oracle).0.outcome != Outcome::Verified {
                return Err("portal warm-up job failed its journal check".to_string());
            }
            Ok((procs, ports))
        },
        drop,
    )?;
    let (http_port, serve_ports) = (ports[0], &ports[1..]);

    let mut clients = vec![Http::connect(http_port).map_err(|e| format!("portal connect: {e}"))?];
    let mut scrape = Http::connect(http_port).map_err(|e| format!("portal connect: {e}"))?;
    let before = metrics(&mut scrape).map_err(|e| e.to_string())?;
    let get_ms = Mutex::new(Vec::new());
    let plain = run_rounds(
        &mut clients,
        cfg.phase_seconds(),
        1,
        |http, _| {
            (0..JOBS_PER_ROUND)
                .map(|_| {
                    let (job, get) = http_job(http, &xmi, &oracle);
                    get_ms.lock().expect("client thread panicked").push(get);
                    job
                })
                .collect()
        },
        || {},
    );
    let after = metrics(&mut scrape).map_err(|e| e.to_string())?;
    plain.count_into(report);
    plain.end_to_end_into(report);
    report.value("setup_s", "s", setup_s);

    if cfg.trace {
        let delta = |name: &str| metric(&after, name) - metric(&before, name);
        // The portal's runner time per job (its `portal.job_us` histogram).
        let run_ms = mean_between(&before, &after, "portal.job_us") / 1e3;
        let journal_get_ms = median(&get_ms.into_inner().expect("client thread panicked"));
        let accept_ms = median(&plain.accepts_ms());

        let extras = Mutex::new(Vec::new());
        let mut replay = vec![()];
        let traced = run_rounds(
            &mut replay,
            cfg.phase_seconds(),
            1,
            |_, _| {
                (0..JOBS_PER_ROUND)
                    .map(|_| {
                        let (job, extra) = replay_job(runner, &xmi, serve_ports, cfg.seed, &oracle);
                        extras.lock().expect("replay thread panicked").push(extra);
                        job
                    })
                    .collect()
            },
            || {},
        );
        let extras = extras.into_inner().expect("replay thread panicked");
        let extra = |f: fn(&Extra) -> f64| median(&extras.iter().map(f).collect::<Vec<_>>());
        traced.count_into(report);
        let replay_layers = [
            "compile.total_ms",
            "wire.client_fabric_ms",
            "core.deploy_ms",
            "core.create_job_ms",
            "core.add_task_ms",
            "core.seed_ms",
            "core.start_ms",
            "core.wait_ms",
            "observe.journal_ms",
        ];
        let replay_sum: f64 = replay_layers.iter().map(|n| traced.layer_ms(n)).sum();
        let journal_wait = journal_get_ms - run_ms;

        report.layer("portal.accept_ms", accept_ms);
        report.layer("portal.run_ms", run_ms);
        report.layer("portal.journal_wait_ms", journal_wait);
        report.layer("portal.refused", delta("portal.jobs.rejected"));
        report.layer(
            "portal.jobs_per_batch",
            delta("portal.jobs.completed") / delta("portal.worker.batches").max(1.0),
        );
        report.layer("compile.sniff_ms", extra(|e| e.sniff_ms));
        report.layer("compile.xmi2cnx_ms", extra(|e| e.xmi2cnx_ms));
        report.layer("compile.cnx_ms", extra(|e| e.cnx_ms));
        report.layer("compile.total_ms", traced.layer_ms("compile.total_ms"));
        if runner == Runner::Wire {
            report.layer("wire.client_fabric_ms", traced.layer_ms("wire.client_fabric_ms"));
            report.layer("wire.frames_per_job", extra(|e| e.frames));
            report.layer("wire.frames_per_flush", extra(|e| e.frames_per_flush));
        } else {
            report.layer("core.deploy_ms", traced.layer_ms("core.deploy_ms"));
            report.layer("net.msgs_per_job", extra(|e| e.msgs));
        }
        core_layers_into(report, &traced, ms(ServerConfig::default().bid_window));
        report.layer("core.bids_per_solicit", extra(|e| e.bids_per_solicit));
        report.layer("core.dispatch_us", extra(|e| e.dispatch_us));
        report.layer("observe.journal_ms", traced.layer_ms("observe.journal_ms"));
        report.layer("observe.journal_bytes", extra(|e| e.journal_bytes));
        let untraced_p50 = median(&plain.latencies_ms());
        report.layer("tasks.floyd_seq_ms", extra(|e| e.floyd_seq_ms));
        report.layer("tasks.speedup_vs_seq", extra(|e| e.floyd_seq_ms) / untraced_p50.max(1e-9));
        report.layer("trace.unattributed_ms", untraced_p50 - accept_ms - journal_wait - replay_sum);
        report.layer("trace.overhead_ms", median(&traced.latencies_ms()) - run_ms);
    }
    drop(procs);
    Ok(())
}
