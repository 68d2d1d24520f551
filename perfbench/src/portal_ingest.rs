//! `portal_ingest`: the portal used for throughput rather than latency.
//! An in-process `PortalServer` with a zero-delay `StubRunner`, so
//! compile (XML sniff-parse, XSLT, CNX parse and validate) and HTTP
//! admission do all the work. Two keep-alive connections each POST a
//! round of Figure-2 models (23–27 TCTask workers, seeded order) back to
//! back, then wait on the job board until each of their jobs is done and
//! check it over `GET /jobs/<id>`: state `done` with the model's task
//! count. Admission caps sit above a round's submissions, so none is
//! refused.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cn_observe::Recorder;
use cn_portal::{
    compile_submission, looks_like_xmi, JobState, PortalConfig, PortalServer, StubRunner,
};
use cn_transform::xmi2cnx::{xmi_to_cnx_xslt, ClientSettings};

use crate::http::{field, mean_between, metric, metrics, number, Http};
use crate::portal_tc::figure2_xmi;
use crate::rounds::{run_rounds, Job, Outcome, Phase, Spans};
use crate::stats::{median, median_setup, ms};
use crate::{Cfg, Report, SeedRng};

const CONNS: usize = 2;
/// TCTask worker counts of the posted models (mean 25).
const MODELS: [usize; 4] = [23, 24, 26, 27];
/// Each model is posted this many times per connection per round.
const COPIES: usize = 2;
const POLL: Duration = Duration::from_micros(100);
const TIMEOUT: Duration = Duration::from_secs(60);

struct Body {
    xmi: String,
    tasks: u64,
}

struct Conn {
    http: Http,
    rng: SeedRng,
}

/// One connection's round: POST every body (each after the previous
/// `202`), wait for each job on the board, then check each over HTTP.
fn round(conn: &mut Conn, server: &PortalServer, bodies: &[Body], copies: usize) -> Vec<Job> {
    let mut order: Vec<usize> =
        (0..bodies.len()).flat_map(|i| std::iter::repeat_n(i, copies)).collect();
    conn.rng.shuffle(&mut order);
    let mut posted = Vec::with_capacity(order.len());
    for &b in &order {
        let submit = Instant::now();
        let id = match conn.http.roundtrip("POST", "/jobs", bodies[b].xmi.as_bytes()) {
            Ok((202, body)) => field(&String::from_utf8_lossy(&body), "id").map(str::to_string),
            _ => None,
        };
        posted.push((submit, Instant::now(), id, b));
    }
    let mut jobs: Vec<Job> = posted
        .iter()
        .map(|&(submit, accepted, ref id, _)| {
            let Some(num) = id.as_deref().and_then(|id| id.strip_prefix("j-")?.parse().ok()) else {
                return Job::failed(submit);
            };
            let give_up = Instant::now() + TIMEOUT;
            while matches!(server.board().state(num), Some(JobState::Queued | JobState::Running))
                && Instant::now() < give_up
            {
                std::thread::sleep(POLL);
            }
            Job {
                submit,
                accepted,
                done: Instant::now(),
                outcome: Outcome::Failed,
                spans: Spans::off(),
            }
        })
        .collect();
    for (job, (_, _, id, b)) in jobs.iter_mut().zip(&posted) {
        let Some(id) = id else { continue };
        job.outcome = match conn.http.roundtrip("GET", &format!("/jobs/{id}"), b"") {
            Ok((200, body)) => {
                let status = String::from_utf8_lossy(&body);
                match field(&status, "state") {
                    Some("done") if number(&status, "tasks") == Some(bodies[*b].tasks) => {
                        Outcome::Verified
                    }
                    Some("done") => Outcome::Wrong,
                    _ => Outcome::Failed,
                }
            }
            _ => Outcome::Failed,
        };
    }
    jobs
}

/// The compile path of one submission, step by step: (sniff, XMI2CNX,
/// CNX parse + validate, `compile_submission` as a whole), in ms.
fn compile_steps(xmi: &str) -> Result<[f64; 4], String> {
    let t = Instant::now();
    let sniffed = looks_like_xmi(xmi);
    let sniff = ms(t.elapsed());
    let t = Instant::now();
    let cnx = xmi_to_cnx_xslt(xmi, &ClientSettings::default()).map_err(|e| e.to_string())?;
    let transform = ms(t.elapsed());
    let t = Instant::now();
    let doc = cn_cnx::parse_cnx(&cnx).map_err(|e| e.to_string())?;
    cn_cnx::validate(&doc).map_err(|e| e.to_string())?;
    let parse = ms(t.elapsed());
    let t = Instant::now();
    compile_submission(xmi.as_bytes())?;
    let total = ms(t.elapsed());
    if !sniffed {
        return Err("the model was not recognised as XMI".to_string());
    }
    Ok([sniff, transform, parse, total])
}

pub fn run(cfg: &Cfg, report: &mut Report) -> Result<(), String> {
    let models: &[usize] = if cfg.smoke { &[3, 4] } else { &MODELS };
    let copies = if cfg.smoke { 1 } else { COPIES };
    let bodies: Vec<Body> = models
        .iter()
        .map(|&w| {
            let xmi = figure2_xmi(w);
            let tasks = compile_submission(xmi.as_bytes())?.descriptor.task_count() as u64;
            Ok(Body { xmi, tasks })
        })
        .collect::<Result<_, String>>()?;
    let per_round = CONNS * bodies.len() * copies;
    let portal_cfg = PortalConfig {
        max_inflight: 4 * per_round,
        per_addr_inflight: 4 * per_round,
        ..PortalConfig::default()
    };

    // Set-up: start the portal, connect, one warm-up submission per model.
    let (server, setup_s) = median_setup(
        cfg.setups(),
        || {
            let runner =
                Arc::new(StubRunner { journal: "{}\n".to_string(), delay: Duration::ZERO });
            let server = PortalServer::start(portal_cfg.clone(), runner, Recorder::new())
                .map_err(|e| format!("portal start: {e}"))?;
            let http = Http::connect(server.port()).map_err(|e| format!("portal connect: {e}"))?;
            let mut conn = Conn { http, rng: SeedRng::new(cfg.seed) };
            let warm = round(&mut conn, &server, &bodies, 1);
            if warm.iter().any(|j| j.outcome != Outcome::Verified) {
                return Err("portal_ingest warm-up submission failed".to_string());
            }
            Ok(server)
        },
        drop,
    )?;

    let mut conns = (0..CONNS)
        .map(|c| {
            let http = Http::connect(server.port()).map_err(|e| format!("portal connect: {e}"))?;
            Ok(Conn { http, rng: SeedRng::new(cfg.seed.wrapping_add(c as u64)) })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut scrape = Http::connect(server.port()).map_err(|e| format!("portal connect: {e}"))?;
    let before = metrics(&mut scrape).map_err(|e| e.to_string())?;
    let mut phase = |between: &mut dyn FnMut()| -> Phase {
        run_rounds(
            &mut conns,
            cfg.phase_seconds(),
            1,
            |conn, _| round(conn, &server, &bodies, copies),
            between,
        )
    };
    let plain = phase(&mut || {});
    let after = metrics(&mut scrape).map_err(|e| e.to_string())?;
    plain.count_into(report);
    plain.end_to_end_into(report);
    report.value("setup_s", "s", setup_s);
    report.note("submissions_per_round", per_round);

    if cfg.trace {
        let delta = |name: &str| metric(&after, name) - metric(&before, name);
        // Between traced rounds, while both connections are idle, time the
        // compile path of every body from outside.
        let mut steps: Vec<[f64; 4]> = Vec::new();
        let mut failed_steps = 0u64;
        let traced = phase(&mut || {
            for body in &bodies {
                match compile_steps(&body.xmi) {
                    Ok(s) => steps.push(s),
                    Err(_) => failed_steps += 1,
                }
            }
        });
        traced.count_into(report);
        report.wrong += failed_steps;
        let step = |i: usize| median(&steps.iter().map(|s| s[i]).collect::<Vec<_>>());
        let run_ms = mean_between(&before, &after, "portal.job_us") / 1e3;
        let accept_ms = median(&plain.accepts_ms());
        let untraced_p50 = median(&plain.latencies_ms());
        report.layer("portal.accept_ms", accept_ms);
        report.layer("portal.run_ms", run_ms);
        report.layer("portal.refused", delta("portal.jobs.rejected"));
        report.layer(
            "portal.jobs_per_batch",
            delta("portal.jobs.completed") / delta("portal.worker.batches").max(1.0),
        );
        report.layer("compile.sniff_ms", step(0));
        report.layer("compile.xmi2cnx_ms", step(1));
        report.layer("compile.cnx_ms", step(2));
        report.layer("compile.total_ms", step(3));
        report.layer("trace.unattributed_ms", untraced_p50 - accept_ms - step(3));
        report.layer("trace.overhead_ms", median(&traced.latencies_ms()) - untraced_p50);
    }
    drop(conns);
    drop(server);
    Ok(())
}
