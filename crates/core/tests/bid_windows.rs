//! Bid windows close as soon as every addressed member has bid.
//!
//! A solicitation's reach is the number of endpoints the fabric addressed
//! it to. Each of them bids at most once, so a window that has one bid
//! per addressed member holds exactly the bid set a full window would:
//! the same bidder wins and the canonical journal does not change. The
//! window stays the timeout for members that decline, are dropped or are
//! slow, and for fabrics that cannot know their reach.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cn_cluster::{
    Addr, Envelope, GroupId, LatencyModel, Network, NodeHandle, NodeSpec, SendError,
    DISCOVERY_GROUP,
};
use cn_core::message::Bid;
use cn_core::spaces::SpaceRegistry;
use cn_core::{
    ArchiveRegistry, ClientConfig, CnApi, CnServer, JobRequirements, Neighborhood,
    NeighborhoodConfig, NetMsg, Policy, ServerConfig, TaskArchive, TaskContext, TaskSpec, UserData,
};
use cn_observe::{journal_jsonl, Recorder};
use cn_sync::channel::Receiver;
use cn_wire::{Fabric, FabricHandle};

const POLICIES: [Policy; 4] =
    [Policy::FirstResponder, Policy::LeastLoaded, Policy::RoundRobin, Policy::LoadAware];

fn echo_archive() -> TaskArchive {
    TaskArchive::new("echo.jar").class("Echo", || {
        Box::new(|ctx: &mut TaskContext| Ok(UserData::Text(format!("echo:{}", ctx.name))))
    })
}

fn task(name: &str, depends: &[&str]) -> TaskSpec {
    let mut spec = TaskSpec::new(name, "echo.jar", "Echo");
    spec.memory_mb = 100;
    spec.depends = depends.iter().map(|d| d.to_string()).collect();
    spec
}

/// A fan-out/fan-in job: `src` feeds four workers, `sink` joins them.
fn fan_job() -> Vec<TaskSpec> {
    let workers = ["w0", "w1", "w2", "w3"];
    let mut specs = vec![task("src", &[])];
    specs.extend(workers.iter().map(|w| task(w, &["src"])));
    specs.push(task("sink", &workers));
    specs
}

/// The simulated network with its reach hidden, as a socket fabric hides
/// it: every bid window runs to its timeout. The full-window oracle.
struct FullWindows(Network<NetMsg>);

impl Fabric<NetMsg> for FullWindows {
    fn register(&self) -> (Addr, Receiver<Envelope<NetMsg>>) {
        self.0.register()
    }
    fn unregister(&self, addr: Addr) {
        self.0.unregister(addr)
    }
    fn join_group(&self, addr: Addr, group: GroupId) {
        self.0.join_group(addr, group)
    }
    fn leave_group(&self, addr: Addr, group: GroupId) {
        self.0.leave_group(addr, group)
    }
    fn send(&self, from: Addr, to: Addr, msg: NetMsg) -> Result<(), SendError> {
        self.0.send(from, to, msg)
    }
    fn multicast(&self, from: Addr, group: GroupId, msg: NetMsg) -> Option<usize> {
        self.0.multicast(from, group, msg);
        None
    }
    fn recorder(&self) -> &Recorder {
        self.0.recorder()
    }
    fn shared_memory(&self) -> bool {
        true
    }
}

struct Run {
    placements: Vec<(String, String)>,
    journal: String,
    create_job: Duration,
    add_tasks: Duration,
    rec: Recorder,
}

/// One fan job on three uniform nodes with `window` as both the client's
/// and the servers' bid window and `policy` placing tasks. `full_windows`
/// hides the reach. The client keeps its default policy: a client ranking
/// JobManagers first-come would make the manager a race between their
/// bids in any window, and nodes have the slots to host the whole job,
/// so a first-responder JobManager keeps every task on its own node.
fn fan_run(policy: Policy, window: Duration, full_windows: bool) -> Run {
    let rec = Recorder::new();
    let net: Network<NetMsg> = Network::with_recorder(LatencyModel::zero(), 7, rec.clone());
    let fabric: FabricHandle<NetMsg> =
        if full_windows { FabricHandle::new(FullWindows(net.clone())) } else { net.into() };
    let registry = Arc::new(ArchiveRegistry::new());
    registry.publish(echo_archive());
    let spaces = Arc::new(SpaceRegistry::with_recorder(&rec));
    let servers: Vec<CnServer> = NodeSpec::fleet(3, 4000, 16)
        .into_iter()
        .map(|spec| {
            let name = spec.name.clone();
            let config = ServerConfig { bid_window: window, policy, ..Default::default() };
            CnServer::spawn(
                name,
                NodeHandle::new(spec),
                fabric.clone(),
                Arc::clone(&registry),
                Arc::clone(&spaces),
                config,
            )
        })
        .collect();
    let client = ClientConfig { bid_window: window, ..Default::default() };
    let api = CnApi::over(fabric, spaces, client);
    let t0 = Instant::now();
    let mut job = api.create_job(&JobRequirements::default()).expect("create job");
    let create_job = t0.elapsed();
    let t0 = Instant::now();
    for spec in fan_job() {
        job.add_task(spec).expect("place task");
    }
    let add_tasks = t0.elapsed();
    job.start().expect("start");
    let placements = job.placements().to_vec();
    let report = job.wait(Duration::from_secs(30)).expect("job completes");
    assert_eq!(report.result("sink"), Some(&UserData::Text("echo:sink".into())));
    for server in servers {
        server.shutdown();
    }
    Run { placements, journal: journal_jsonl(&rec), create_job, add_tasks, rec }
}

fn count(rec: &Recorder, name: &str) -> u64 {
    rec.counter(name).get()
}

/// Differential, every policy: windows run to their timeout on every
/// solicitation and a 300 ms window closed by the reach place the job the
/// same way and export byte-identical canonical journals — and the long
/// window costs less than one window in total. The reference windows are
/// 50 ms: a starved host can hold a bid past the default 5 ms, and a
/// reference that loses a bid is no reference.
#[test]
fn early_close_collects_the_full_window_bid_set_for_every_policy() {
    let reference = Duration::from_millis(50);
    let long = Duration::from_millis(300);
    for policy in POLICIES {
        let full = fan_run(policy, reference, true);
        let early = fan_run(policy, long, false);
        assert_eq!(full.placements, early.placements, "{policy:?}: placements differ");
        assert_eq!(full.journal, early.journal, "{policy:?}: journal not byte-identical");
        assert!(!early.journal.is_empty());
        assert!(
            early.add_tasks < long,
            "{policy:?}: six placements took {:?}, more than one {long:?} window",
            early.add_tasks
        );
        assert!(early.create_job < long, "{policy:?}: discovery took {:?}", early.create_job);
        // The oracle never closes early; the real fabric always does here.
        assert_eq!(count(&full.rec, "server.bid_windows_closed_early"), 0);
        assert_eq!(count(&full.rec, "api.discovery_closed_early"), 0);
        assert_eq!(
            count(&early.rec, "server.bid_windows_closed_early"),
            count(&early.rec, "server.task_solicitations")
        );
        assert_eq!(count(&early.rec, "server.task_solicitations"), 6);
        assert_eq!(count(&early.rec, "api.discovery_closed_early"), 1);
        assert_eq!(count(&early.rec, "api.jm_solicitations"), 1);
    }
}

fn deploy(specs: Vec<NodeSpec>, window: Duration, latency: LatencyModel) -> Neighborhood {
    let config = NeighborhoodConfig {
        latency,
        server: ServerConfig { bid_window: window, ..Default::default() },
        recorder: Recorder::new(),
        ..Default::default()
    };
    let nb = Neighborhood::deploy_with(specs, config);
    nb.registry().publish(echo_archive());
    nb
}

/// Place `specs`, returning each `add_task` call's duration, then run
/// the job to completion.
fn place_and_run(api: &CnApi, specs: Vec<TaskSpec>) -> Vec<Duration> {
    let mut job = api.create_job(&JobRequirements::default()).expect("create job");
    let mut took = Vec::new();
    for spec in specs {
        let t0 = Instant::now();
        job.add_task(spec).expect("place task");
        took.push(t0.elapsed());
    }
    job.start().expect("start");
    job.wait(Duration::from_secs(30)).expect("job completes");
    took
}

fn assert_full_windows(took: &[Duration], window: Duration) {
    for d in took {
        // A small allowance for timer granularity at the deadline.
        assert!(*d >= window * 9 / 10, "placement closed before the window: {d:?}");
    }
}

/// A crashed node is addressed but never bids, so every placement waits
/// out the window, and the job still succeeds on the live nodes.
#[test]
fn crashed_member_makes_placement_wait_the_full_window() {
    let window = Duration::from_millis(40);
    let nb = deploy(NodeSpec::fleet(3, 8192, 16), window, LatencyModel::zero());
    nb.node("node1").unwrap().crash();
    let api = CnApi::initialize(&nb);
    let took = place_and_run(&api, vec![task("a", &[]), task("b", &["a"])]);
    assert_full_windows(&took, window);
    let rec = nb.recorder().clone();
    assert_eq!(count(&rec, "server.bid_windows_closed_early"), 0);
    assert_eq!(count(&rec, "api.discovery_closed_early"), 0);
    nb.shutdown();
}

/// A partitioned member never hears the solicitation: placement waits
/// out the window and the job succeeds without it.
#[test]
fn partitioned_member_makes_placement_wait_the_full_window() {
    let window = Duration::from_millis(40);
    let nb = deploy(NodeSpec::fleet(3, 8192, 16), window, LatencyModel::zero());
    let api = CnApi::initialize(&nb);
    let mut job = api.create_job(&JobRequirements::default()).expect("create job");
    let cut = ["node0", "node1", "node2"].into_iter().find(|n| *n != job.manager()).unwrap();
    nb.network().partition(nb.server_addr(cut).unwrap());
    let mut took = Vec::new();
    for spec in [task("a", &[]), task("b", &["a"])] {
        let t0 = Instant::now();
        job.add_task(spec).expect("place task");
        took.push(t0.elapsed());
    }
    let placements = job.placements().to_vec();
    job.start().expect("start");
    job.wait(Duration::from_secs(30)).expect("job completes");
    let rec = nb.recorder().clone();
    // Shut down (which heals the partition) before asserting: a server
    // cut off from its own shutdown message would never exit.
    nb.shutdown();
    assert_full_windows(&took, window);
    assert!(placements.iter().all(|(_, server)| server != cut));
    assert_eq!(count(&rec, "server.bid_windows_closed_early"), 0);
}

/// With LAN latency the bids arrive after a delay; the window still
/// closes once the last of them lands, far inside a 300 ms window.
#[test]
fn delayed_bids_still_close_the_window_early() {
    let window = Duration::from_millis(300);
    let nb = deploy(NodeSpec::fleet(3, 8192, 16), window, LatencyModel::lan());
    let client = ClientConfig { bid_window: window, ..Default::default() };
    let api = CnApi::with_config(&nb, client);
    let t0 = Instant::now();
    let took = place_and_run(&api, fan_job());
    let rec = nb.recorder().clone();
    for d in &took {
        assert!(*d < window / 2, "placement did not close early: {d:?}");
    }
    assert!(t0.elapsed() < window * 3, "job took {:?}", t0.elapsed());
    assert_eq!(count(&rec, "server.bid_windows_closed_early"), took.len() as u64);
    assert_eq!(count(&rec, "api.discovery_closed_early"), 1);
    nb.shutdown();
}

/// A member that answers one solicitation twice is one bidder: its second
/// bid neither joins the candidate list nor counts toward the reach, so
/// the window still waits for the crashed member and the JobManager's own
/// TaskManager still wins.
#[test]
fn duplicate_bid_counts_once_toward_the_reach() {
    let window = Duration::from_millis(40);
    let nb = deploy(
        vec![NodeSpec::new("a-manager", 8192, 16), NodeSpec::new("b-down", 8192, 16)],
        window,
        LatencyModel::zero(),
    );
    nb.node("b-down").unwrap().crash();
    // A scripted member that answers the TaskManager solicitation with the
    // same busy bid, twice.
    let net = nb.network().clone();
    let (addr, rx) = net.register();
    net.join_group(addr, DISCOVERY_GROUP);
    let fake = std::thread::spawn(move || {
        while let Ok(env) = rx.recv_timeout(Duration::from_secs(5)) {
            if let NetMsg::SolicitTaskManager { job, task, reply_to, .. } = env.msg {
                let bid = Bid {
                    server: "c-twice".into(),
                    addr,
                    load: 1.0,
                    free_memory_mb: 1,
                    free_slots: 1,
                    signal: Default::default(),
                };
                for _ in 0..2 {
                    let msg = NetMsg::TaskManagerBid { job, task: task.clone(), bid: bid.clone() };
                    net.send(addr, reply_to, msg).unwrap();
                }
                return;
            }
        }
    });
    let api = CnApi::initialize(&nb);
    let mut job = api.create_job(&JobRequirements::default()).expect("create job");
    assert_eq!(job.manager(), "a-manager");
    let t0 = Instant::now();
    job.add_task(task("t", &[])).expect("place task");
    assert_full_windows(&[t0.elapsed()], window);
    assert_eq!(job.placements(), [("t".to_string(), "a-manager".to_string())]);
    let rec = nb.recorder().clone();
    assert_eq!(count(&rec, "server.bid_windows_closed_early"), 0);
    let drew: Vec<String> = rec
        .flight()
        .dump()
        .into_iter()
        .map(|e| e.message)
        .filter(|m| m.contains("TaskManager bid(s)"))
        .collect();
    assert_eq!(drew, ["[a-manager] task \"t\" drew 2 TaskManager bid(s)"]);
    job.start().expect("start");
    job.wait(Duration::from_secs(30)).expect("job completes");
    nb.shutdown();
    fake.join().unwrap();
}
