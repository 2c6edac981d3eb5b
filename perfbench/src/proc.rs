//! The `rdfa-server` child process: spawn it, time it to its first `200`,
//! read its peak RSS, and kill it. A [`ServerProc`] kills and reaps its
//! child when dropped, so no server outlives the benchmark.

use crate::http::Client;
use std::fs::File;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How to start the server.
#[derive(Debug, Clone)]
pub struct Launch {
    pub binary: PathBuf,
    pub args: Vec<String>,
    pub env: Vec<(String, String)>,
    pub log: PathBuf,
}

pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
}

const READY_TIMEOUT: Duration = Duration::from_secs(120);

fn free_port() -> Result<u16, String> {
    let l = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("probe port: {e}"))?;
    Ok(l.local_addr().map_err(|e| e.to_string())?.port())
}

impl ServerProc {
    /// Spawn the server and wait for its first `200` on `/health`; returns
    /// the process and the seconds from spawn to that answer.
    pub fn start(launch: &Launch) -> Result<(ServerProc, f64), String> {
        let port = free_port()?;
        let log = File::create(&launch.log).map_err(|e| format!("server log: {e}"))?;
        let log2 = log.try_clone().map_err(|e| e.to_string())?;
        let started = Instant::now();
        let child = Command::new(&launch.binary)
            .args(&launch.args)
            .arg(port.to_string())
            .envs(launch.env.iter().map(|(k, v)| (k, v)))
            .stdin(Stdio::null())
            .stdout(log)
            .stderr(log2)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", launch.binary.display()))?;
        let mut proc = ServerProc {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], port)),
        };
        loop {
            let mut client = Client::new(proc.addr);
            if let Ok((resp, _)) = client.request("GET", "/health", b"") {
                if resp.status == 200 {
                    return Ok((proc, started.elapsed().as_secs_f64()));
                }
            }
            if let Ok(Some(status)) = proc.child.try_wait() {
                return Err(format!(
                    "server exited with {status} before answering; log:\n{}",
                    log_tail(&launch.log)
                ));
            }
            if started.elapsed() > READY_TIMEOUT {
                return Err("server did not answer /health in time".to_owned());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("read server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| "no VmHWM in server status".to_owned())
    }

    /// SIGKILL the server and reap it.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.stop();
    }
}

fn log_tail(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let lines: Vec<&str> = text.lines().collect();
    lines[lines.len().saturating_sub(20)..].join("\n")
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map(|m| m.len()).unwrap_or(0),
            _ => 0,
        })
        .sum()
}
