//! `cnctl serve` / `cnctl portal` child processes. Every child is killed
//! and reaped when its [`Procs`] drops, so no process outlives a run.

use std::io::{BufRead, BufReader};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Children stop by themselves after this long even if the benchmark is
/// killed before it can reap them.
const RUN_FOR_SECS: &str = "300";

pub struct Procs(Vec<Child>);

impl Drop for Procs {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Reserve `n` distinct loopback ports by binding ephemeral listeners,
/// then release them for the children to bind.
pub fn free_ports(n: usize) -> Result<Vec<u16>, String> {
    let listeners = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("reserve port: {e}"))?;
    listeners.iter().map(|l| l.local_addr().map(|a| a.port()).map_err(|e| e.to_string())).collect()
}

fn spawn(cnctl: &Path, args: &[String]) -> Result<Child, String> {
    Command::new(cnctl)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {} {}: {e}", cnctl.display(), args[0]))
}

/// Block until the child's first stdout line (its readiness line).
fn readiness(child: &mut Child) -> Result<String, String> {
    let stdout = child.stdout.take().ok_or("child has no stdout")?;
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).map_err(|e| format!("readiness line: {e}"))?;
    if line.is_empty() {
        return Err("child exited before its readiness line".to_string());
    }
    Ok(line.trim().to_string())
}

/// One `cnctl serve` per port, each peered with all the others, then a
/// `cnctl portal --peers` in front of them on `http_port`. Returns once
/// every process printed its readiness line and every serve accepts TCP.
pub fn launch_cluster(
    cnctl: &Path,
    serve_ports: &[u16],
    http_port: u16,
    portal_args: &[&str],
) -> Result<Procs, String> {
    let mut procs = Procs(Vec::new());
    for port in serve_ports {
        let peers: Vec<String> =
            serve_ports.iter().filter(|p| *p != port).map(u16::to_string).collect();
        let args: Vec<String> = ["serve", "--port", &port.to_string(), "--peers", &peers.join(",")]
            .iter()
            .map(|s| s.to_string())
            .chain(["--run-for".to_string(), RUN_FOR_SECS.to_string()])
            .collect();
        procs.0.push(spawn(cnctl, &args)?);
    }
    for child in &mut procs.0 {
        let line = readiness(child)?;
        if !line.starts_with("serving ") {
            return Err(format!("unexpected serve readiness line {line:?}"));
        }
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    for port in serve_ports {
        while TcpStream::connect(("127.0.0.1", *port)).is_err() {
            if Instant::now() > deadline {
                return Err(format!("serve on {port} never accepted"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    let peers = serve_ports.iter().map(u16::to_string).collect::<Vec<_>>().join(",");
    let args = [portal_args, &["--peers", peers.as_str()]].concat();
    procs.0.append(&mut launch_portal(cnctl, http_port, &args)?.0);
    Ok(procs)
}

/// One `cnctl portal` on `http_port` with `portal_args` (its runner flags
/// among them). Returns once it printed its readiness line.
pub fn launch_portal(cnctl: &Path, http_port: u16, portal_args: &[&str]) -> Result<Procs, String> {
    let mut args: Vec<String> = ["portal", "--http-port", &http_port.to_string()]
        .iter()
        .map(|s| s.to_string())
        .chain(["--run-for".to_string(), RUN_FOR_SECS.to_string()])
        .collect();
    args.extend(portal_args.iter().map(|s| s.to_string()));
    let mut procs = Procs(vec![spawn(cnctl, &args)?]);
    let line = readiness(&mut procs.0[0])?;
    if line != format!("portal portal-{http_port} on 127.0.0.1:{http_port}") {
        return Err(format!("unexpected portal readiness line {line:?}"));
    }
    Ok(procs)
}
