//! Regenerate every figure of the paper (F1–F7) plus the extension
//! experiments' summary tables (E1–E5). See DESIGN.md §4 for the index and
//! EXPERIMENTS.md for paper-vs-measured notes.
//!
//! ```sh
//! cargo run --release -p cn-bench --bin experiments          # everything
//! cargo run --release -p cn-bench --bin experiments fig2 e1  # a subset
//! ```

use std::time::{Duration, Instant};

use cn_bench::bench_neighborhood;
use cn_core::DynamicArgs;
use cn_tasks::{
    floyd_parallel, floyd_sequential, random_digraph, run_transitive_closure, seed_input, Matrix,
    TcOptions,
};
use cn_transform::figures::{figure2_model, figure2_settings};
use cn_transform::xmi_to_cnx_xslt;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--pr7-client") {
        // Hidden re-exec mode: the connection-scale bench runs its client
        // side in a child process so neither side exhausts the fd limit.
        let parse = |i: usize, what: &str| -> u64 {
            args.get(i)
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("--pr7-client: bad {what}"))
        };
        pr7_client(parse(1, "addr"), parse(2, "peers") as usize, parse(3, "msgs_per_peer"));
        return;
    }
    if args.iter().any(|a| a == "--bench-json") {
        bench_json(args.iter().any(|a| a == "--smoke"));
        return;
    }
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name);

    if want("fig1") {
        fig1_components();
    }
    if want("fig2") {
        fig2_cnx_descriptor();
    }
    if want("fig3") {
        fig3_activity_diagram();
    }
    if want("fig4") {
        fig4_tagged_values();
    }
    if want("fig5") {
        fig5_dynamic_invocation();
    }
    if want("fig6") {
        fig6_pipeline();
    }
    if want("fig7") {
        fig7_xmi_fragment();
    }
    if want("e1") {
        e1_floyd_speedup();
    }
    if want("e2") {
        e2_transform_throughput();
    }
    if want("e3") {
        e3_runtime_overhead();
    }
    if want("e4") {
        e4_dynamic_multiplicity();
    }
    if want("e5") {
        e5_tuplespace_vs_messages();
    }
}

/// Milliseconds per iteration of `f` over `reps` timed runs (one warmup).
fn ms_per_iter(reps: u32, mut f: impl FnMut()) -> f64 {
    f();
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_secs_f64() * 1e3 / f64::from(reps)
}

/// `--bench-json [--smoke]`: machine-readable fast-path baseline (E6).
///
/// Writes `BENCH_PR2.json` in the current directory: XMI→CNX transform
/// latency at 5/20/60-task models (XSLT engine and native path), parallel
/// batch throughput by pool width, raw XML parse bandwidth, and tuple-space
/// op rate. `--smoke` shrinks iteration counts for CI smoke runs — the
/// numbers are then indicative only (record-only job, no thresholds).
fn bench_json(smoke: bool) {
    use std::fmt::Write as _;

    let reps: u32 = if smoke { 3 } else { 10 };
    let settings = figure2_settings();

    // Transform latency per model size (the E2/bench "workers" axis).
    let mut transform_rows = String::new();
    for &workers in &[5usize, 20, 60] {
        let xmi = cn_xml::write_document(
            &cn_model::export_xmi(&figure2_model(workers)),
            &cn_xml::WriteOptions::xmi(),
        );
        let xslt = ms_per_iter(reps, || {
            xmi_to_cnx_xslt(&xmi, &settings).expect("xslt");
        });
        let native = ms_per_iter(reps, || {
            cn_transform::xmi_to_cnx_native(&xmi, &settings).expect("native");
        });
        if !transform_rows.is_empty() {
            transform_rows.push_str(",\n");
        }
        write!(
            transform_rows,
            "    {{\"workers\": {workers}, \"xslt_ms_per_iter\": {xslt:.6}, \"native_ms_per_iter\": {native:.6}}}"
        )
        .unwrap();
        println!("transform workers={workers}: xslt {xslt:.3} ms/iter, native {native:.3} ms/iter");
    }

    // Batch throughput: same stylesheet fanned over a document set.
    let docs: Vec<String> = (0..if smoke { 8 } else { 32 })
        .map(|i| {
            cn_xml::write_document(
                &cn_model::export_xmi(&figure2_model(20 + i % 5)),
                &cn_xml::WriteOptions::xmi(),
            )
        })
        .collect();
    let mut batch_rows = String::new();
    for &pool in &[1usize, 4, 8] {
        let batch = cn_transform::BatchTransformer::xmi2cnx(pool).expect("stylesheet");
        let ms = ms_per_iter(reps, || {
            let results = batch.run_with_settings(&docs, &settings);
            assert!(results.iter().all(Result::is_ok));
        });
        let docs_per_s = docs.len() as f64 / (ms / 1e3);
        if !batch_rows.is_empty() {
            batch_rows.push_str(",\n");
        }
        write!(
            batch_rows,
            "    {{\"pool\": {pool}, \"docs\": {}, \"docs_per_s\": {docs_per_s:.2}}}",
            docs.len()
        )
        .unwrap();
        println!("batch pool={pool}: {docs_per_s:.1} docs/s over {} docs", docs.len());
    }

    // Raw XML parse bandwidth over a large XMI document.
    let big = cn_xml::write_document(
        &cn_model::export_xmi(&figure2_model(if smoke { 60 } else { 200 })),
        &cn_xml::WriteOptions::xmi(),
    );
    let parse_ms = ms_per_iter(reps * 3, || {
        cn_xml::parse(&big).expect("parse");
    });
    let parse_mb_s = big.len() as f64 / 1e6 / (parse_ms / 1e3);
    println!("xml parse: {parse_mb_s:.1} MB/s ({} bytes)", big.len());

    // Tuple-space op rate: out + take pairs, single thread.
    let ops = if smoke { 20_000u64 } else { 200_000 };
    let ts = cn_core::TupleSpace::new();
    let t = Instant::now();
    for i in 0..ops {
        ts.out(vec![cn_core::Field::S("k".into()), cn_core::Field::I(i as i64)]);
    }
    let pat = vec![Some(cn_core::Field::S("k".into())), None];
    for _ in 0..ops {
        ts.try_in(&pat).expect("tuple present");
    }
    let ts_ops_s = (2 * ops) as f64 / t.elapsed().as_secs_f64();
    println!("tuplespace: {ts_ops_s:.0} ops/s");

    let runtime_metrics = runtime_metrics_json(smoke);

    let json = format!(
        "{{\n  \"bench\": \"fast-path baseline (PR2)\",\n  \"mode\": \"{mode}\",\n  \"transform\": [\n{transform_rows}\n  ],\n  \"batch_transform\": [\n{batch_rows}\n  ],\n  \"xml_parse_mb_per_s\": {parse_mb_s:.2},\n  \"tuplespace_ops_per_s\": {ts_ops_s:.0},\n  \"runtime_metrics\": {runtime_metrics}\n}}\n",
        mode = if smoke { "smoke" } else { "full" },
    );
    write_atomic("BENCH_PR2.json", &json).expect("write BENCH_PR2.json");
    println!("wrote BENCH_PR2.json");

    let wire = wire_metrics_json(smoke);
    let wire_json = format!(
        "{{\n  \"bench\": \"wire transport (PR4)\",\n  \"mode\": \"{mode}\",\n  \"wire\": {wire}\n}}\n",
        mode = if smoke { "smoke" } else { "full" },
    );
    write_atomic("BENCH_PR4.json", &wire_json).expect("write BENCH_PR4.json");
    println!("wrote BENCH_PR4.json");

    let pr5 = wire_pr5_metrics_json(smoke);
    write_atomic("BENCH_PR5.json", &pr5).expect("write BENCH_PR5.json");
    println!("wrote BENCH_PR5.json");

    let pr7 = wire_pr7_metrics_json(smoke);
    write_atomic("BENCH_PR7.json", &pr7).expect("write BENCH_PR7.json");
    println!("wrote BENCH_PR7.json");

    let pr8 = portal_pr8_metrics_json(smoke);
    write_atomic("BENCH_PR8.json", &pr8).expect("write BENCH_PR8.json");
    println!("wrote BENCH_PR8.json");

    let pr10 = sched_pr10_metrics_json(smoke);
    write_atomic("BENCH_PR10.json", &pr10).expect("write BENCH_PR10.json");
    println!("wrote BENCH_PR10.json");
}

/// PR10: load-aware scheduling + work stealing under multi-job contention.
/// N client threads each submit M jobs of sleep-tasks into a fleet with
/// one 4x-slower straggler node and capped executor slots, once under
/// static round-robin placement (no stealing) and once under the
/// load-aware policy with stealing on. The headline number is the makespan
/// ratio (target ≥1.5x); the CI perf-smoke gate holds it at 80% of the
/// committed baseline. Also re-checks the determinism contract: a
/// single-client, single-job run on a uniform fleet places identically —
/// and journals identically — under both policies.
fn sched_pr10_metrics_json(smoke: bool) -> String {
    use std::sync::{Arc, Barrier};

    use cn_bench::{bench_client_config, contention_neighborhood};
    use cn_core::{
        CnApi, JobRequirements, Policy, StealConfig, TaskArchive, TaskContext, TaskSpec, UserData,
    };
    use cn_observe::{journal_jsonl, Recorder};

    // Smoke mode keeps the workload shape (so the CI gate compares
    // like-for-like speedups against the full-mode baseline) and only
    // drops to a single trial per variant.
    let clients: usize = 3;
    let jobs_per_client: usize = 2;
    let tasks_per_job: usize = 12;
    let work_ms: u64 = 20;
    let speeds: &[u32] = &[100, 100, 100, 25];
    let exec_slots: usize = 2;

    let work_archive = move || {
        TaskArchive::new("work.jar").class("Spin", move || {
            Box::new(move |ctx: &mut TaskContext| {
                // Nominal 20ms of "compute", stretched by the node's speed
                // (the straggler takes 80ms per task).
                ctx.simulate_work(Duration::from_millis(work_ms));
                Ok(UserData::Empty)
            })
        })
    };

    // One contention trial: all clients submit concurrently; returns the
    // makespan plus steal counters.
    let trial = |policy: Policy, steal: Option<StealConfig>| -> (f64, u64, u64) {
        let rec = Recorder::new();
        let nb = contention_neighborhood(speeds, exec_slots, policy, steal, rec.clone());
        nb.registry().publish(work_archive());
        let nb = Arc::new(nb);
        let barrier = Arc::new(Barrier::new(clients + 1));
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let nb = Arc::clone(&nb);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let api = CnApi::with_config(&nb, bench_client_config());
                    barrier.wait();
                    for j in 0..jobs_per_client {
                        let mut job =
                            api.create_job(&JobRequirements::default()).expect("create job");
                        for t in 0..tasks_per_job {
                            let mut spec =
                                TaskSpec::new(format!("c{c}j{j}t{t}"), "work.jar", "Spin");
                            spec.memory_mb = 64;
                            job.add_task(spec).expect("place task");
                        }
                        job.start().expect("start job");
                        job.wait(Duration::from_secs(120)).expect("job completes");
                    }
                })
            })
            .collect();
        barrier.wait();
        let t = Instant::now();
        for h in handles {
            h.join().expect("client thread");
        }
        let makespan_s = t.elapsed().as_secs_f64();
        let steals = rec.counter("server.steals").get();
        let returns = rec.counter("server.steal_returns").get();
        Arc::try_unwrap(nb).ok().expect("sole neighborhood owner").shutdown();
        (makespan_s, steals, returns)
    };

    // Best-of-N: the workload is sleep-dominated, but placement races and
    // box noise still jitter the tail; the gate compares peak ratios.
    let trials = if smoke { 1 } else { 2 };
    let best = |policy: Policy, steal: Option<StealConfig>| {
        (0..trials)
            .map(|_| trial(policy, steal))
            .min_by(|x, y| x.0.partial_cmp(&y.0).unwrap())
            .unwrap()
    };
    let (rr_s, _, _) = best(Policy::RoundRobin, None);
    let steal_cfg = StealConfig { threshold: 1, heartbeat: Duration::from_millis(5) };
    let (la_s, steals, steal_returns) = best(Policy::LoadAware, Some(steal_cfg));
    let speedup = rr_s / la_s.max(1e-9);
    println!(
        "sched pr10: {clients} clients x {jobs_per_client} jobs x {tasks_per_job} tasks \
         ({work_ms}ms each, speeds {speeds:?}, {exec_slots} exec slots): round-robin \
         {rr_s:.3}s, load-aware+steal {la_s:.3}s ({speedup:.2}x, {steals} steals, \
         {steal_returns} returned)"
    );

    // Determinism differential: single client, single job, uniform fleet —
    // placements and the canonical journal must be identical under both
    // policies (load-aware degrades to the round-robin rotation on ties).
    let deterministic = |policy: Policy| -> (Vec<(String, String)>, String) {
        let rec = Recorder::new();
        let nb = contention_neighborhood(&[100, 100, 100], exec_slots, policy, None, rec.clone());
        nb.registry().publish(work_archive());
        let api = CnApi::with_config(&nb, bench_client_config());
        let mut job = api.create_job(&JobRequirements::default()).expect("create job");
        for t in 0..6 {
            let mut spec = TaskSpec::new(format!("t{t}"), "work.jar", "Spin");
            spec.memory_mb = 64;
            job.add_task(spec).expect("place task");
        }
        job.start().expect("start");
        let placements = job.placements().to_vec();
        job.wait(Duration::from_secs(60)).expect("job completes");
        nb.shutdown();
        (placements, journal_jsonl(&rec))
    };
    let (rr_placements, rr_journal) = deterministic(Policy::RoundRobin);
    let (la_placements, la_journal) = deterministic(Policy::LoadAware);
    assert_eq!(rr_placements, la_placements, "uniform-load placement must match round-robin");
    let journal_identical = rr_journal == la_journal;
    assert!(journal_identical, "single-job journal must be byte-identical under both policies");
    println!(
        "sched pr10: single-job differential: {} placements equal, journal byte-identical",
        rr_placements.len()
    );

    format!(
        "{{\n  \"bench\": \"load-aware scheduling + work stealing (PR10)\",\n  \"mode\": \"{mode}\",\n  \"contention\": {{\n    \"clients\": {clients},\n    \"jobs_per_client\": {jobs_per_client},\n    \"tasks_per_job\": {tasks_per_job},\n    \"task_ms\": {work_ms},\n    \"node_speeds_pct\": [100, 100, 100, 25],\n    \"exec_slots\": {exec_slots},\n    \"round_robin_makespan_s\": {rr_s:.3},\n    \"load_aware_steal_makespan_s\": {la_s:.3},\n    \"makespan_speedup\": {speedup:.2},\n    \"steals\": {steals},\n    \"steal_returns\": {steal_returns},\n    \"single_job_journal_identical\": {journal_identical}\n  }}\n}}\n",
        mode = if smoke { "smoke" } else { "full" },
    )
}

/// PR8: the HTTP portal. `conns` keep-alive connections each POST the
/// Figure-2 XMI `per_conn` times and wait for the 202 before sending the
/// next — so every sample is a full submit round trip: accept → parse →
/// compile queue admission → response. Backpressured submits (429/503)
/// are retried after a short sleep and counted, not timed. The headline
/// number is accepted submissions/s across all connections; the CI
/// perf-smoke gate holds it at 80% of the committed baseline.
fn portal_pr8_metrics_json(smoke: bool) -> String {
    use std::io::{Read as _, Write as _};
    use std::net::TcpStream;
    use std::sync::{Arc, Barrier};

    use cn_observe::Recorder;
    use cn_portal::{PortalConfig, PortalServer, StubRunner};

    // One response off a keep-alive connection: status line + headers,
    // then exactly content-length body bytes. The bench never pipelines,
    // so a clean read ends precisely at the body boundary.
    fn read_portal_response(s: &mut TcpStream) -> u16 {
        let mut buf: Vec<u8> = Vec::with_capacity(256);
        let mut tmp = [0u8; 4096];
        let head_end = loop {
            if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            let n = s.read(&mut tmp).expect("portal read");
            assert!(n > 0, "portal closed mid-response");
            buf.extend_from_slice(&tmp[..n]);
        };
        let head = std::str::from_utf8(&buf[..head_end]).expect("response head utf8");
        let status: u16 =
            head.split_whitespace().nth(1).and_then(|v| v.parse().ok()).expect("status code");
        let content_length: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.trim().eq_ignore_ascii_case("content-length").then(|| v.trim().parse().ok())?
            })
            .unwrap_or(0);
        let mut have = buf.len() - head_end;
        while have < content_length {
            let n = s.read(&mut tmp).expect("portal body read");
            assert!(n > 0, "portal closed mid-body");
            have += n;
        }
        assert_eq!(have, content_length, "read past the response body");
        status
    }

    let conns: usize = if smoke { 4 } else { 16 };
    let per_conn: u64 = if smoke { 10 } else { 50 };
    let total = conns as u64 * per_conn;

    let rec = Recorder::new();
    // Every bench connection arrives from 127.0.0.1, so the per-address
    // fairness cap must not be the bottleneck under test.
    let cfg = PortalConfig {
        max_inflight: 256,
        per_addr_inflight: 256,
        workers: 4,
        ..PortalConfig::default()
    };
    let runner = Arc::new(StubRunner { journal: String::new(), delay: Duration::ZERO });
    let mut server = PortalServer::start(cfg, runner, rec.clone()).expect("portal start");
    let port = server.port();

    let xmi = cn_xml::write_document(
        &cn_model::export_xmi(&figure2_model(4)),
        &cn_xml::WriteOptions::xmi(),
    );
    let body_bytes = xmi.len();

    // One trial: all connections submit concurrently; returns the sorted
    // latency samples, the retry count, and the wall-clock seconds.
    let trial = || -> (Vec<f64>, u64, f64) {
        let barrier = Arc::new(Barrier::new(conns + 1));
        let mut handles = Vec::with_capacity(conns);
        for _ in 0..conns {
            let xmi = xmi.clone();
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                let mut s = TcpStream::connect(("127.0.0.1", port)).expect("portal connect");
                s.set_nodelay(true).expect("nodelay");
                let head = format!(
                    "POST /jobs HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n",
                    xmi.len()
                );
                let mut lat_us: Vec<f64> = Vec::with_capacity(per_conn as usize);
                let mut retries = 0u64;
                barrier.wait();
                for _ in 0..per_conn {
                    loop {
                        let t = Instant::now();
                        s.write_all(head.as_bytes()).expect("portal write");
                        s.write_all(xmi.as_bytes()).expect("portal write body");
                        let status = read_portal_response(&mut s);
                        if status == 202 {
                            lat_us.push(t.elapsed().as_secs_f64() * 1e6);
                            break;
                        }
                        assert!(
                            status == 429 || status == 503,
                            "unexpected portal status {status}"
                        );
                        retries += 1;
                        std::thread::sleep(Duration::from_millis(2));
                    }
                }
                (lat_us, retries)
            }));
        }
        barrier.wait();
        let t = Instant::now();
        let mut lat_us: Vec<f64> = Vec::with_capacity(total as usize);
        let mut retries = 0u64;
        for h in handles {
            let (l, r) = h.join().expect("portal bench conn");
            lat_us.extend(l);
            retries += r;
        }
        (lat_us, retries, t.elapsed().as_secs_f64())
    };

    // Best-of-3 for the same reason as the PR7 burst: one trial on a small
    // shared box can lose big to scheduling noise, and the CI gate
    // compares against peak throughput.
    let trials = 3u64;
    let (mut lat_us, retries, elapsed_s) =
        (0..trials).map(|_| trial()).min_by(|x, y| (x.2).partial_cmp(&y.2).unwrap()).unwrap();
    let submissions_per_s = total as f64 / elapsed_s.max(1e-9);

    // Let the worker pool drain the tail of accepted jobs so the reported
    // completion count covers every trial's submissions.
    let expected = trials * total;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let done =
            rec.counter("portal.jobs.completed").get() + rec.counter("portal.jobs.failed").get();
        if done >= expected || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let completed = rec.counter("portal.jobs.completed").get();
    let failed = rec.counter("portal.jobs.failed").get();
    let requests = rec.counter("portal.http.requests").get();
    server.shutdown();
    assert_eq!(failed, 0, "portal bench jobs failed");

    lat_us.sort_by(|x, y| x.partial_cmp(y).unwrap());
    let quantile = |q: f64| lat_us[((lat_us.len() - 1) as f64 * q).round() as usize];
    let (p50, p99) = (quantile(0.5), quantile(0.99));
    println!(
        "portal pr8: {conns} conns x {per_conn} submits ({body_bytes} B XMI each, best of \
         {trials}): {submissions_per_s:.0} submissions/s, submit p50 {p50:.1} us, p99 {p99:.1} \
         us, {retries} backpressure retries, {completed}/{expected} jobs completed"
    );

    format!(
        "{{\n  \"bench\": \"http portal (PR8)\",\n  \"mode\": \"{mode}\",\n  \"portal\": {{\n    \"connections\": {conns},\n    \"submissions_per_conn\": {per_conn},\n    \"total_submissions\": {total},\n    \"trials\": {trials},\n    \"body_bytes\": {body_bytes},\n    \"submissions_per_s\": {submissions_per_s:.0},\n    \"submit_us\": {{\"p50\": {p50:.1}, \"p99\": {p99:.1}}},\n    \"backpressure_retries\": {retries},\n    \"http_requests\": {requests},\n    \"jobs_completed\": {completed}\n  }}\n}}\n",
        mode = if smoke { "smoke" } else { "full" },
    )
}

/// PR7: the sharded epoll reactor. Re-measures the PR5 batched/unbatched
/// A→B burst on the reactor transport (the number the perf gate holds),
/// then scales *concurrent connections*: N raw TCP peers, all open at
/// once and all speaking the frame protocol into one fabric, with
/// per-message dispatch latency measured from a timestamp embedded at
/// write time. Thread-per-peer made this shape impossible — N peers meant
/// 2N wire threads — so the connection-scale table is the reactor's
/// headline result.
fn wire_pr7_metrics_json(smoke: bool) -> String {
    use std::fmt::Write as _;

    use cn_core::{JobId, NetMsg, UserData};
    use cn_observe::Recorder;
    use cn_wire::{Fabric as _, SocketFabric, WireConfig};

    let msg = |payload: Vec<u8>| NetMsg::User {
        job: JobId(1),
        from_task: "bench".into(),
        tag: "frame".into(),
        data: UserData::Bytes(payload),
    };

    // The PR5 burst, verbatim, now riding the reactor transport.
    let n: u64 = if smoke { 2_000 } else { 20_000 };
    let burst = |batch: bool| -> (f64, u64, f64) {
        let rec = Recorder::new();
        let a: SocketFabric<NetMsg> =
            SocketFabric::new(WireConfig { batch, ..WireConfig::default() }, rec.clone())
                .expect("wire fabric a");
        let b: SocketFabric<NetMsg> =
            SocketFabric::new(WireConfig { batch, ..WireConfig::default() }, Recorder::disabled())
                .expect("wire fabric b");
        let (addr_a, _rx_a) = a.register();
        let (addr_b, rx_b) = b.register();
        let body = |i: u64| {
            let mut bytes = vec![0xAB; 64];
            bytes[..8].copy_from_slice(&i.to_le_bytes());
            msg(bytes)
        };
        for i in 0..64 {
            a.send(addr_a, addr_b, body(i)).expect("warmup send");
        }
        for _ in 0..64 {
            rx_b.recv_timeout(Duration::from_secs(10)).expect("warmup recv");
        }
        let flushes0 = rec.counter("wire.batch.flushes").get();
        let frames0 = rec.counter("wire.batch.frames").get();
        let t = Instant::now();
        for i in 0..n {
            a.send(addr_a, addr_b, body(i)).expect("wire send");
        }
        for _ in 0..n {
            rx_b.recv_timeout(Duration::from_secs(10)).expect("wire recv");
        }
        let msgs_per_s = n as f64 / t.elapsed().as_secs_f64();
        let flushes = rec.counter("wire.batch.flushes").get() - flushes0;
        let frames = rec.counter("wire.batch.frames").get() - frames0;
        let per_flush = if flushes == 0 { 0.0 } else { frames as f64 / flushes as f64 };
        a.shutdown();
        b.shutdown();
        (msgs_per_s, flushes, per_flush)
    };
    // Best-of-3: on a small shared box a single trial can lose 15% to
    // scheduling noise, and the CI gate compares against peak throughput.
    let best = |batch: bool| {
        (0..3).map(|_| burst(batch)).max_by(|x, y| x.0.partial_cmp(&y.0).unwrap()).unwrap()
    };
    let (batched_rate, flushes, per_flush) = best(true);
    let (unbatched_rate, _, _) = best(false);
    let speedup = batched_rate / unbatched_rate.max(1e-9);
    println!(
        "wire pr7: batched {batched_rate:.0} msgs/s ({per_flush:.1} frames/flush over \
         {flushes} flushes), unbatched {unbatched_rate:.0} msgs/s, {speedup:.2}x"
    );

    // Connection scale: `peers` raw TCP connections held open against one
    // fabric, each periodically writing frames whose payload carries the
    // wall-clock nanosecond at which it was written. A drain thread stamps
    // each envelope on delivery, so dispatch latency covers the whole
    // inbound path: kernel buffer → shard wake → FrameDecoder → channel.
    // The client side runs in a re-exec'd child process (`--pr7-client`):
    // a loopback connection costs two fds, and 10k peers in one process
    // would need double the fd budget of either side alone.
    let soft_limit = cn_reactor::sys::raise_fd_limit(40_000).unwrap_or(0);
    let scale_points: &[usize] = if smoke { &[50, 500] } else { &[1_000, 10_000] };
    let msgs_per_peer: u64 = 4;
    let mut scale_rows = String::new();
    for &peers in scale_points {
        let b: SocketFabric<NetMsg> =
            SocketFabric::new(WireConfig::default(), Recorder::disabled()).expect("scale fabric");
        let (addr_b, rx_b) = b.register();

        let child = std::process::Command::new(std::env::current_exe().expect("current exe"))
            .arg("--pr7-client")
            .arg(addr_b.0.to_string())
            .arg(peers.to_string())
            .arg(msgs_per_peer.to_string())
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn pr7 client");

        let total = peers as u64 * msgs_per_peer;
        let drain = std::thread::spawn(move || {
            let mut lat_us: Vec<f64> = Vec::with_capacity(total as usize);
            let mut first: Option<Instant> = None;
            for _ in 0..total {
                let env = rx_b.recv_timeout(Duration::from_secs(120)).expect("scale recv");
                first.get_or_insert_with(Instant::now);
                let now_ns = unix_ns();
                let NetMsg::User { data: UserData::Bytes(bytes), .. } = env.msg else {
                    panic!("unexpected message shape")
                };
                let sent_ns = u64::from_le_bytes(bytes[..8].try_into().expect("timestamp"));
                lat_us.push((now_ns.saturating_sub(sent_ns)) as f64 / 1e3);
            }
            let recv_s = first.map(|t| t.elapsed().as_secs_f64()).unwrap_or(0.0);
            (lat_us, recv_s)
        });
        let (mut lat_us, recv_s) = drain.join().expect("drain thread");
        let out = child.wait_with_output().expect("pr7 client exit");
        assert!(out.status.success(), "pr7 client failed");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let connect_s: f64 = stdout
            .lines()
            .find_map(|l| l.strip_prefix("connect_s="))
            .and_then(|v| v.trim().parse().ok())
            .expect("pr7 client connect_s");
        let msgs_per_s = total as f64 / recv_s.max(1e-9);
        lat_us.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let quantile = |q: f64| lat_us[((lat_us.len() - 1) as f64 * q).round() as usize];
        let (p50, p99) = (quantile(0.5), quantile(0.99));
        b.shutdown();

        if !scale_rows.is_empty() {
            scale_rows.push_str(",\n");
        }
        write!(
            scale_rows,
            "      {{\"peers\": {peers}, \"messages\": {total}, \"connect_s\": {connect_s:.2}, \"messages_per_s\": {msgs_per_s:.0}, \"dispatch_us\": {{\"p50\": {p50:.1}, \"p99\": {p99:.1}}}}}"
        )
        .unwrap();
        println!(
            "wire pr7: {peers} concurrent peers: connected in {connect_s:.2}s, \
             {msgs_per_s:.0} msgs/s, dispatch p50 {p50:.1} us, p99 {p99:.1} us"
        );
    }

    let shards = cn_reactor::default_shards();
    format!(
        "{{\n  \"bench\": \"sharded epoll reactor (PR7)\",\n  \"mode\": \"{mode}\",\n  \"wire\": {{\n    \"reactor_shards\": {shards},\n    \"fd_soft_limit\": {soft_limit},\n    \"burst_messages\": {n},\n    \"batched\": {{\"messages_per_s\": {batched_rate:.0}, \"batch_flushes\": {flushes}, \"frames_per_flush\": {per_flush:.1}}},\n    \"unbatched\": {{\"messages_per_s\": {unbatched_rate:.0}}},\n    \"batch_speedup\": {speedup:.2},\n    \"connection_scale\": [\n{scale_rows}\n    ]\n  }}\n}}\n",
        mode = if smoke { "smoke" } else { "full" },
    )
}

/// Wall-clock nanoseconds since the epoch: the only clock the scale bench
/// can share across its two processes.
fn unix_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock before epoch")
        .as_nanos() as u64
}

/// Client half of the connection-scale bench (`--pr7-client <addr> <peers>
/// <msgs_per_peer>`): open `peers` raw TCP connections to the fabric that
/// owns `addr`, then write `msgs_per_peer` timestamped frames down each.
fn pr7_client(addr: u64, peers: usize, msgs_per_peer: u64) {
    use std::io::Write as _;
    use std::net::TcpStream;

    use cn_cluster::{Addr, Envelope};
    use cn_core::{JobId, NetMsg, UserData};
    use cn_wire::addr_port;

    let _ = cn_reactor::sys::raise_fd_limit(40_000);
    let to = Addr(addr);
    let port = addr_port(to);
    let t = Instant::now();
    let mut conns: Vec<TcpStream> = (0..peers)
        .map(|i| {
            let s = TcpStream::connect(("127.0.0.1", port))
                .unwrap_or_else(|e| panic!("connect peer {i}/{peers}: {e}"));
            s.set_nodelay(true).expect("nodelay");
            s
        })
        .collect();
    println!("connect_s={:.2}", t.elapsed().as_secs_f64());
    for round in 0..msgs_per_peer {
        for conn in &mut conns {
            let mut payload = unix_ns().to_le_bytes().to_vec();
            payload.resize(64, 0xAB);
            let frame = cn_wire::codec::encode_frame(&Envelope {
                from: Addr(round),
                to,
                msg: NetMsg::User {
                    job: JobId(1),
                    from_task: "bench".into(),
                    tag: "frame".into(),
                    data: UserData::Bytes(payload),
                },
            });
            conn.write_all(&frame).expect("peer write");
        }
    }
}

/// PR5: the zero-copy batched fast path. Re-measures the PR4 A→B loopback
/// burst with write coalescing on (the default) and off, adds an
/// encode-once `send_many` fan-out to several remote endpoints, and
/// repeats the simulated-fabric runtime metrics (whose dispatch path now
/// drains coalesced batches in one wakeup). Each burst warms the
/// connection first so smoke runs measure steady state, not connect cost.
fn wire_pr5_metrics_json(smoke: bool) -> String {
    use cn_cluster::Addr;
    use cn_core::{JobId, NetMsg, UserData};
    use cn_observe::Recorder;
    use cn_wire::{Fabric as _, SocketFabric, WireConfig};

    let msg = |i: u64| {
        let mut bytes = vec![0xAB; 64];
        bytes[..8].copy_from_slice(&i.to_le_bytes());
        NetMsg::User {
            job: JobId(1),
            from_task: "bench".into(),
            tag: "frame".into(),
            data: UserData::Bytes(bytes),
        }
    };
    let frame_bytes = 4 + cn_wire::codec::encode_payload(&cn_cluster::Envelope {
        from: Addr(0),
        to: Addr(0),
        msg: msg(0),
    })
    .len();

    let n: u64 = if smoke { 2_000 } else { 20_000 };
    // (msgs/s, batch flushes, mean frames per flush) for one A→B burst.
    let burst = |batch: bool| -> (f64, u64, f64) {
        let rec = Recorder::new();
        let a: SocketFabric<NetMsg> =
            SocketFabric::new(WireConfig { batch, ..WireConfig::default() }, rec.clone())
                .expect("wire fabric a");
        let b: SocketFabric<NetMsg> =
            SocketFabric::new(WireConfig { batch, ..WireConfig::default() }, Recorder::disabled())
                .expect("wire fabric b");
        let (addr_a, _rx_a) = a.register();
        let (addr_b, rx_b) = b.register();
        for i in 0..64 {
            a.send(addr_a, addr_b, msg(i)).expect("warmup send");
        }
        for _ in 0..64 {
            rx_b.recv_timeout(Duration::from_secs(10)).expect("warmup recv");
        }
        let flushes0 = rec.counter("wire.batch.flushes").get();
        let frames0 = rec.counter("wire.batch.frames").get();
        let t = Instant::now();
        for i in 0..n {
            a.send(addr_a, addr_b, msg(i)).expect("wire send");
        }
        for _ in 0..n {
            rx_b.recv_timeout(Duration::from_secs(10)).expect("wire recv");
        }
        let msgs_per_s = n as f64 / t.elapsed().as_secs_f64();
        let flushes = rec.counter("wire.batch.flushes").get() - flushes0;
        let frames = rec.counter("wire.batch.frames").get() - frames0;
        let per_flush = if flushes == 0 { 0.0 } else { frames as f64 / flushes as f64 };
        a.shutdown();
        b.shutdown();
        (msgs_per_s, flushes, per_flush)
    };
    let (batched_rate, flushes, per_flush) = burst(true);
    let (unbatched_rate, _, _) = burst(false);
    let speedup = batched_rate / unbatched_rate.max(1e-9);
    println!(
        "wire pr5: batched {batched_rate:.0} msgs/s ({per_flush:.1} frames/flush over \
         {flushes} flushes), unbatched {unbatched_rate:.0} msgs/s, {speedup:.2}x"
    );

    // Encode-once fan-out: one send_many to `receivers` endpoints on a
    // second process-side fabric — the message is serialized once and the
    // shared frame is re-addressed per destination.
    let receivers: usize = 8;
    let rounds: u64 = if smoke { 250 } else { 2_500 };
    let a: SocketFabric<NetMsg> =
        SocketFabric::new(WireConfig::default(), Recorder::disabled()).expect("wire fabric a");
    let b: SocketFabric<NetMsg> =
        SocketFabric::new(WireConfig::default(), Recorder::disabled()).expect("wire fabric b");
    let (addr_a, _rx_a) = a.register();
    let eps: Vec<_> = (0..receivers).map(|_| b.register()).collect();
    let tos: Vec<Addr> = eps.iter().map(|(addr, _)| *addr).collect();
    a.send_many(addr_a, &tos, msg(0)).expect("fan-out warmup");
    for (_, rx) in &eps {
        rx.recv_timeout(Duration::from_secs(10)).expect("fan-out warmup recv");
    }
    let t = Instant::now();
    for i in 0..rounds {
        a.send_many(addr_a, &tos, msg(i)).expect("fan-out send");
    }
    for (_, rx) in &eps {
        for _ in 0..rounds {
            rx.recv_timeout(Duration::from_secs(10)).expect("fan-out recv");
        }
    }
    let fanout_rate = (rounds * receivers as u64) as f64 / t.elapsed().as_secs_f64();
    a.shutdown();
    b.shutdown();
    println!("wire pr5: fan-out x{receivers}: {fanout_rate:.0} msgs/s");

    let runtime_metrics = runtime_metrics_json(smoke);
    format!(
        "{{\n  \"bench\": \"zero-copy batched fast path (PR5)\",\n  \"mode\": \"{mode}\",\n  \"wire\": {{\n    \"frame_bytes\": {frame_bytes},\n    \"burst_messages\": {n},\n    \"batched\": {{\"messages_per_s\": {batched_rate:.0}, \"batch_flushes\": {flushes}, \"frames_per_flush\": {per_flush:.1}}},\n    \"unbatched\": {{\"messages_per_s\": {unbatched_rate:.0}}},\n    \"batch_speedup\": {speedup:.2},\n    \"fanout\": {{\"receivers\": {receivers}, \"rounds\": {rounds}, \"messages_per_s\": {fanout_rate:.0}}}\n  }},\n  \"runtime_metrics\": {runtime_metrics}\n}}\n",
        mode = if smoke { "smoke" } else { "full" },
    )
}

/// Wire-transport throughput over real loopback TCP: two `SocketFabric`s
/// in one process (so both ends of every frame cross the codec, the
/// length-prefixed framing, and the kernel socket path). Reports burst
/// throughput in messages/s plus p50/p99 single-frame latency measured by
/// round-tripping one message at a time through an echo peer.
fn wire_metrics_json(smoke: bool) -> String {
    use cn_core::{JobId, NetMsg, UserData};
    use cn_observe::Recorder;
    use cn_wire::{SocketFabric, WireConfig};

    let rec = Recorder::new();
    let a: SocketFabric<NetMsg> =
        SocketFabric::new(WireConfig::default(), rec.clone()).expect("wire fabric a");
    let b: SocketFabric<NetMsg> =
        SocketFabric::new(WireConfig::default(), Recorder::disabled()).expect("wire fabric b");
    use cn_wire::Fabric as _;
    let (addr_a, rx_a) = a.register();
    let (addr_b, rx_b) = b.register();

    let msg = |i: u64| {
        let mut bytes = vec![0xAB; 64];
        bytes[..8].copy_from_slice(&i.to_le_bytes());
        NetMsg::User {
            job: JobId(1),
            from_task: "bench".into(),
            tag: "frame".into(),
            data: UserData::Bytes(bytes),
        }
    };
    let frame_bytes = {
        // On-wire frame: u32 length prefix + the versioned payload
        // (version byte, from, to, encoded NetMsg body).
        let payload = cn_wire::codec::encode_payload(&cn_cluster::Envelope {
            from: addr_a,
            to: addr_b,
            msg: msg(0),
        });
        4 + payload.len()
    };

    // Burst throughput: pipeline `n` frames A→B and drain them all.
    let n: u64 = if smoke { 2_000 } else { 20_000 };
    let t = Instant::now();
    for i in 0..n {
        a.send(addr_a, addr_b, msg(i)).expect("wire send");
    }
    for _ in 0..n {
        rx_b.recv_timeout(Duration::from_secs(10)).expect("wire recv");
    }
    let msgs_per_s = n as f64 / t.elapsed().as_secs_f64();

    // Frame latency: one message in flight at a time, echoed back, so each
    // sample is a full request/response over two TCP connections. Halving
    // the round trip approximates the one-way frame cost.
    let samples: usize = if smoke { 200 } else { 2_000 };
    let mut lat_us: Vec<f64> = Vec::with_capacity(samples);
    for i in 0..samples {
        let t = Instant::now();
        a.send(addr_a, addr_b, msg(i as u64)).expect("wire send");
        let env = rx_b.recv_timeout(Duration::from_secs(10)).expect("wire recv");
        b.send(addr_b, env.from, env.msg).expect("wire echo");
        rx_a.recv_timeout(Duration::from_secs(10)).expect("wire echo recv");
        lat_us.push(t.elapsed().as_secs_f64() * 1e6 / 2.0);
    }
    lat_us.sort_by(|x, y| x.partial_cmp(y).unwrap());
    let quantile = |q: f64| lat_us[((lat_us.len() - 1) as f64 * q).round() as usize];
    let (p50, p99) = (quantile(0.5), quantile(0.99));

    let sent = rec.counter("wire.frames_sent").get();
    a.shutdown();
    b.shutdown();
    println!(
        "wire: {msgs_per_s:.0} msgs/s burst, frame p50 {p50:.1} us, p99 {p99:.1} us \
         ({frame_bytes} B frames, {sent} frames recorded)"
    );
    format!(
        "{{\n    \"frame_bytes\": {frame_bytes},\n    \"burst_messages\": {n},\n    \"messages_per_s\": {msgs_per_s:.0},\n    \"latency_samples\": {samples},\n    \"frame_latency_us\": {{\"p50\": {p50:.1}, \"p99\": {p99:.1}}}\n  }}"
    )
}

/// Write `content` to `path` via temp file + atomic rename so a concurrent
/// reader (CI artifact collection) never sees a truncated report.
fn write_atomic(path: &str, content: &str) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp.{}", std::process::id());
    std::fs::write(&tmp, content)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Run one recorded transitive-closure job and render the runtime metrics
/// block: CN-API dispatch latency histogram and fabric message rate.
fn runtime_metrics_json(smoke: bool) -> String {
    use cn_bench::bench_neighborhood_recorded;
    use cn_observe::{Recorder, LATENCY_BUCKETS_US};

    let rec = Recorder::new();
    let nb = bench_neighborhood_recorded(3, 64, rec.clone());
    cn_tasks::publish_tc_archives(nb.registry());
    let g = random_digraph(if smoke { 16 } else { 64 }, 0.2, 1..9, 9);
    let workers = 4;
    let t = Instant::now();
    run_transitive_closure(&nb, &g, &TcOptions::new(workers)).expect("recorded tc run");
    let elapsed_s = t.elapsed().as_secs_f64();
    nb.shutdown();

    let dispatch =
        rec.metrics().histogram("api.dispatch_latency_us", LATENCY_BUCKETS_US).snapshot();
    let sent = rec.metrics().counter("net.sent").get();
    let delivered = rec.metrics().counter("net.delivered").get();
    let tasks_completed = rec.metrics().counter("server.tasks_completed").get();
    let msgs_per_s = sent as f64 / elapsed_s.max(1e-9);
    println!(
        "runtime: {tasks_completed} tasks, dispatch p50 <= {} us (n={}), {msgs_per_s:.0} msgs/s",
        dispatch.quantile_bound(0.5),
        dispatch.count
    );
    format!(
        "{{\n    \"tasks_completed\": {tasks_completed},\n    \"dispatch_latency_us\": {{\"count\": {}, \"mean\": {:.1}, \"p50_le\": {}, \"p90_le\": {}, \"p99_le\": {}}},\n    \"messages_sent\": {sent},\n    \"messages_delivered\": {delivered},\n    \"messages_per_s\": {msgs_per_s:.0}\n  }}",
        dispatch.count,
        dispatch.mean(),
        dispatch.quantile_bound(0.5),
        dispatch.quantile_bound(0.9),
        dispatch.quantile_bound(0.99),
    )
}

fn banner(id: &str, title: &str) {
    println!("\n================================================================");
    println!("{id} — {title}");
    println!("================================================================");
}

/// Figure 1: the CN framework components — printed from the live system
/// rather than restated.
fn fig1_components() {
    banner("F1", "CN framework components (live inventory)");
    let nb = bench_neighborhood(2, 8);
    cn_tasks::publish_all_archives(nb.registry());
    println!(
        "CN Server      {} CNServer instances (JobManager + TaskManager each), nodes:",
        nb.server_count()
    );
    for node in nb.nodes() {
        println!(
            "                 {} ({} MB, {} slots)",
            node.name(),
            node.spec().memory_mb,
            node.spec().task_slots
        );
    }
    println!("CN API         cn_core::CnApi — initialize / create_job / add_task / start / recv_message / send_to_task");
    println!("CNX            cn_cnx — compositional language; published archives:");
    for jar in nb.registry().names() {
        let archive = nb.registry().get(&jar).unwrap();
        println!("                 {jar}: {}", archive.manifest().join(", "));
    }
    println!(
        "CNX2Java       cn_transform::cnx2java (XSLT, {} bytes of stylesheet)",
        cn_transform::cnx2java::CNX2JAVA_XSLT.len()
    );
    println!(
        "XMI2CNX        cn_transform::xmi2cnx (XSLT, {} bytes of stylesheet)",
        cn_transform::XMI2CNX_XSLT.len()
    );
    println!("Prototype      cn_transform::Portal — XMI in, artifacts + results out");
    nb.shutdown();
}

/// Figure 2: the CNX client descriptor for transitive closure, regenerated
/// from the model through the XSLT path.
fn fig2_cnx_descriptor() {
    banner("F2", "CNX client descriptor for transitive closure (via XMI2CNX XSLT)");
    let xmi = cn_xml::write_document(
        &cn_model::export_xmi(&figure2_model(5)),
        &cn_xml::WriteOptions::xmi(),
    );
    let cnx = xmi_to_cnx_xslt(&xmi, &figure2_settings()).expect("XMI2CNX");
    println!("{cnx}");
    let parsed = cn_cnx::parse_cnx(&cnx).expect("parse");
    assert_eq!(
        cn_transform::xmi2cnx::normalized(parsed),
        cn_transform::xmi2cnx::normalized(cn_cnx::ast::figure2_descriptor(5)),
    );
    println!("[verified: structurally equal to the paper's Figure 2 listing]");
    println!("[note: the paper prints tctask1 depends=\"tctask1\" — a self-dependency our validator rejects as a cycle; we generate the evidently intended tctask0]");
}

/// Figure 3: the explicit-concurrency activity diagram.
fn fig3_activity_diagram() {
    banner("F3", "activity diagram for transitive closure (explicit concurrency)");
    let model = cn_model::transitive_closure_model(5);
    println!("{}", cn_model::render::to_ascii(&model));
    println!("--- Graphviz DOT ---\n{}", cn_model::render::to_dot(&model));
}

/// Figure 4: tagged values for TCTask2.
fn fig4_tagged_values() {
    banner("F4", "tagged values for TCTask2");
    let model = cn_model::transitive_closure_model(5);
    let (_, action) = model.action_by_name("TCTask2").expect("TCTask2");
    print!("{}", action.tags);
    assert_eq!(action.tags.params(), vec![("java.lang.Integer".to_string(), "2".to_string())]);
    println!("[verified: jar/class/memory/runmodel/ptype0/pvalue0 exactly as the paper lists]");
}

/// Figure 5: the dynamic-invocation diagram, plus execution at three
/// run-time multiplicities.
fn fig5_dynamic_invocation() {
    banner("F5", "dynamic invocation (multiplicity resolved at run time)");
    let model = cn_model::transitive_closure_dynamic_model();
    println!("{}", cn_model::render::to_ascii(&model));
    let nb = bench_neighborhood(3, 64);
    cn_tasks::publish_all_archives(nb.registry());
    let input = random_digraph(18, 0.25, 1..9, 5);
    let reference = floyd_sequential(&input);
    for multiplicity in [2usize, 3, 6] {
        // Expand TCTask into `multiplicity` workers with run-time args.
        let xmi =
            cn_xml::write_document(&cn_model::export_xmi(&model), &cn_xml::WriteOptions::xmi());
        let cnx = xmi_to_cnx_xslt(&xmi, &figure2_settings()).expect("XMI2CNX");
        let descriptor = cn_cnx::parse_cnx(&cnx).expect("parse");
        let dynamic = DynamicArgs::new().set(
            "TCTask",
            (1..=multiplicity as i64).map(|i| vec![cn_cnx::Param::integer(i)]).collect(),
        );
        let worker_names: Vec<String> = (1..=multiplicity).map(|i| format!("TCTask_{i}")).collect();
        let input2 = input.clone();
        let names2 = worker_names.clone();
        let reports = cn_core::execute_descriptor_seeded(
            &nb,
            &descriptor,
            &dynamic,
            Duration::from_secs(60),
            move |job| {
                seed_input(job, "matrix.txt", &input2, &names2, "TCJoin").expect("seed input")
            },
        )
        .expect("dynamic run");
        let result = Matrix::from_userdata(reports[0].result("TCJoin").unwrap()).unwrap();
        assert_eq!(result, reference);
        println!(
            "multiplicity {multiplicity}: {} tasks executed, result verified ({:?})",
            reports[0].results.len(),
            reports[0].elapsed
        );
    }
    nb.shutdown();
}

/// Figure 6: the six-step transformation pipeline, timed per stage.
fn fig6_pipeline() {
    banner("F6", "transformation pipeline: model -> XMI -> CNX -> client -> execute");
    let nb = bench_neighborhood(3, 64);
    cn_tasks::publish_all_archives(nb.registry());
    let workers = 4;
    let input = random_digraph(24, 0.2, 1..9, 11);
    let worker_names: Vec<String> = (1..=workers).map(|i| format!("tctask{i}")).collect();
    let input2 = input.clone();
    let options = cn_transform::PipelineOptions {
        settings: figure2_settings(),
        dynamic: DynamicArgs::new(),
        timeout: Duration::from_secs(60),
        seed: Some(Box::new(move |job| {
            seed_input(job, "matrix.txt", &input2, &worker_names, "tctask999").expect("seed input");
        })),
    };
    let run =
        cn_transform::Pipeline::new(&nb).run(&figure2_model(workers), options).expect("pipeline");
    println!("{:<18} {:>12}   artifact", "stage", "time");
    for t in &run.timings {
        let artifact = match t.stage {
            "validate-model" => "well-formed activity graph".to_string(),
            "export-xmi" => format!("{} bytes of XMI", run.xmi_text.len()),
            "xmi2cnx-xslt" => format!("{} bytes of CNX", run.cnx_text.len()),
            "validate-cnx" => format!("{} tasks, DAG valid", run.descriptor.task_count()),
            "codegen" => {
                format!("{} B Rust + {} B Java", run.rust_source.len(), run.java_source.len())
            }
            "execute" => format!("{} task results", run.reports[0].results.len()),
            other => other.to_string(),
        };
        println!("{:<18} {:>12?}   {artifact}", t.stage, t.elapsed);
    }
    let result = Matrix::from_userdata(run.reports[0].result("tctask999").unwrap()).unwrap();
    assert_eq!(result, floyd_sequential(&input));
    println!("[verified: executed result matches sequential Floyd]");
    nb.shutdown();
}

/// Figure 7: the XMI fragment for TCTask2.
fn fig7_xmi_fragment() {
    banner("F7", "XMI fragment for the TCTask2 action state");
    let doc = cn_model::export_xmi(&cn_model::transitive_closure_model(5));
    let tctask2 = doc
        .find_all(doc.document_node(), "UML:ActionState")
        .into_iter()
        .find(|&n| doc.attr(n, "name") == Some("TCTask2"))
        .expect("TCTask2 in export");
    print!("{}", cn_xml::write_fragment(&doc, tctask2, &cn_xml::WriteOptions::xmi()));
    println!("[shape matches paper Figure 7: TaggedValues with dataValue + TagDefinition idrefs, StateVertex.outgoing/incoming]");
}

/// E1: Floyd speedup table.
fn e1_floyd_speedup() {
    banner("E1", "Floyd APSP: sequential vs shared-memory vs CN job");
    let nb = bench_neighborhood(4, 64);
    cn_tasks::publish_tc_archives(nb.registry());
    println!(
        "{:>6} {:>14} {:>14} {:>14} {:>14} {:>14}",
        "n", "seq", "shm(4t)", "cn(1w)", "cn(2w)", "cn(4w)"
    );
    for &n in &[64usize, 128, 256, 512] {
        let g = random_digraph(n, 0.1, 1..100, 42);
        let t = Instant::now();
        let reference = floyd_sequential(&g);
        let seq = t.elapsed();
        let t = Instant::now();
        let shm = floyd_parallel(&g, 4);
        let shm_t = t.elapsed();
        assert_eq!(shm, reference);
        let mut row = format!("{n:>6} {seq:>14.2?} {shm_t:>14.2?}");
        for workers in [1usize, 2, 4] {
            let t = Instant::now();
            let r = run_transitive_closure(&nb, &g, &TcOptions::new(workers)).expect("cn");
            let cn_t = t.elapsed();
            assert_eq!(r, reference);
            row.push_str(&format!(" {cn_t:>14.2?}"));
        }
        println!("{row}");
    }
    println!(
        "[expected shape: CN pays messaging overhead at small n; CN(4w) approaches shm as n grows]"
    );
    nb.shutdown();
}

/// E2: transform throughput table, including the xsl:key ablation.
fn e2_transform_throughput() {
    banner("E2", "XMI->CNX transform: keyed XSLT vs keyless XSLT vs native");
    println!(
        "{:>8} {:>14} {:>16} {:>14} {:>8}",
        "workers", "xslt(keys)", "xslt(no keys)", "native", "ratio"
    );
    for &workers in &[5usize, 25, 100, 250] {
        let xmi = cn_xml::write_document(
            &cn_model::export_xmi(&figure2_model(workers)),
            &cn_xml::WriteOptions::xmi(),
        );
        let settings = figure2_settings();
        let t = Instant::now();
        let via_xslt = xmi_to_cnx_xslt(&xmi, &settings).expect("xslt");
        let xslt_t = t.elapsed();
        // The keyless formulation is superlinear; skip it at sizes where a
        // single run exceeds a few seconds.
        let nokeys_t = if workers <= 100 {
            let t = Instant::now();
            let via_nokeys =
                cn_transform::xmi2cnx::xmi_to_cnx_xslt_nokeys(&xmi, &settings).expect("nokeys");
            assert_eq!(via_xslt, via_nokeys);
            Some(t.elapsed())
        } else {
            None
        };
        let t = Instant::now();
        let via_native = cn_transform::xmi_to_cnx_native(&xmi, &settings).expect("native");
        let native_t = t.elapsed();
        let parsed = cn_cnx::parse_cnx(&via_xslt).expect("parse");
        assert_eq!(
            cn_transform::xmi2cnx::normalized(parsed),
            cn_transform::xmi2cnx::normalized(via_native)
        );
        let nokeys_str =
            nokeys_t.map(|d| format!("{d:.2?}")).unwrap_or_else(|| "(skipped)".to_string());
        println!(
            "{workers:>8} {xslt_t:>14.2?} {nokeys_str:>16} {native_t:>14.2?} {:>7.1}x",
            xslt_t.as_secs_f64() / native_t.as_secs_f64().max(1e-9)
        );
    }
    println!("[expected shape: keyed XSLT is linear at a constant factor over native; the keyless ablation is superlinear — xsl:key is what makes idref-heavy stylesheets scale]");
}

/// E3: runtime overhead table.
fn e3_runtime_overhead() {
    banner("E3", "runtime overheads by cluster size");
    println!("{:>7} {:>16} {:>16}", "nodes", "job_creation", "task_placement");
    for &nodes in &[1usize, 2, 4, 8, 16] {
        let nb = bench_neighborhood(nodes, 100_000);
        nb.registry().publish(cn_core::TaskArchive::new("noop.jar").class("Noop", || {
            Box::new(|_ctx: &mut cn_core::TaskContext| Ok(cn_core::UserData::Empty))
        }));
        let api = cn_core::CnApi::with_config(&nb, cn_bench::bench_client_config());
        let iters = 20;
        let t = Instant::now();
        let mut jobs = Vec::new();
        for _ in 0..iters {
            jobs.push(api.create_job(&cn_core::JobRequirements::default()).expect("job"));
        }
        let create_t = t.elapsed() / iters;
        let mut job = jobs.pop().unwrap();
        let t = Instant::now();
        for i in 0..iters {
            let mut spec = cn_core::TaskSpec::new(format!("t{i}"), "noop.jar", "Noop");
            spec.memory_mb = 1;
            job.add_task(spec).expect("place");
        }
        let place_t = t.elapsed() / iters;
        println!("{nodes:>7} {create_t:>16.2?} {place_t:>16.2?}");
        nb.shutdown();
    }
    println!(
        "[expected shape: both well under the bid window, which closes once every addressed member has bid; grows with node count (more bids to collect)]"
    );
}

/// E4: dynamic multiplicity sweep.
fn e4_dynamic_multiplicity() {
    banner("E4", "dynamic invocation: end-to-end time vs multiplicity");
    let nb = bench_neighborhood(4, 100_000);
    nb.registry().publish(cn_core::TaskArchive::new("id.jar").class("Id", || {
        Box::new(|ctx: &mut cn_core::TaskContext| {
            Ok(cn_core::UserData::I64s(vec![ctx.param_i64(0).unwrap_or(0)]))
        })
    }));
    let mut worker = cn_cnx::Task::new("w", "id.jar", "Id");
    worker.multiplicity = Some("*".to_string());
    worker.req.memory_mb = 1;
    let mut client = cn_cnx::Client::new("Dyn");
    client.jobs.push(cn_cnx::Job { tasks: vec![worker] });
    let doc = cn_cnx::CnxDocument::new(client);
    println!("{:>13} {:>14} {:>16}", "multiplicity", "total", "per-instance");
    for &m in &[1usize, 4, 16, 64] {
        let dynamic = DynamicArgs::new()
            .set("w", (1..=m as i64).map(|i| vec![cn_cnx::Param::integer(i)]).collect());
        let t = Instant::now();
        let reports =
            cn_core::execute_descriptor(&nb, &doc, &dynamic, Duration::from_secs(60)).expect("run");
        let total = t.elapsed();
        assert_eq!(reports[0].results.len(), m);
        println!("{m:>13} {total:>14.2?} {:>16.2?}", total / m as u32);
    }
    println!(
        "[expected shape: total grows ~linearly (placement per instance); per-instance cost flat]"
    );
    nb.shutdown();
}

/// E5: coordination-medium comparison.
fn e5_tuplespace_vs_messages() {
    banner("E5", "transitive closure: message-passing vs tuple-space workers");
    let nb = bench_neighborhood(4, 64);
    cn_tasks::publish_tc_archives(nb.registry());
    let g = random_digraph(96, 0.1, 1..50, 7);
    let reference = floyd_sequential(&g);
    println!("{:>8} {:>14} {:>14}", "workers", "messages", "tuplespace");
    for &workers in &[2usize, 4, 8] {
        let t = Instant::now();
        let r1 = run_transitive_closure(&nb, &g, &TcOptions::new(workers)).expect("msg");
        let msg_t = t.elapsed();
        let mut opts = TcOptions::new(workers);
        opts.tuplespace_workers = true;
        let t = Instant::now();
        let r2 = run_transitive_closure(&nb, &g, &opts).expect("ts");
        let ts_t = t.elapsed();
        assert_eq!(r1, reference);
        assert_eq!(r2, reference);
        println!("{workers:>8} {msg_t:>14.2?} {ts_t:>14.2?}");
    }
    println!("[expected shape: tuple space amortizes the k-row broadcast (1 out vs W-1 sends)]");
    nb.shutdown();
}
