//! Child processes of the `harness` CLI and the HTTP calls made to them.
//!
//! Every child is owned by a [`Proc`], which kills and reaps it when
//! dropped, so no early return or panic leaves a process behind.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Request timeout for every benchmark HTTP call.
pub const TIMEOUT: Duration = Duration::from_secs(60);

/// Environment every child runs under: one simulation thread and no
/// ambient engine, pass, or fault overrides inherited from the caller.
pub fn command(harness: &Path, args: &[&str]) -> Command {
    let mut cmd = Command::new(harness);
    cmd.args(args)
        .env("SIM_THREADS", "1")
        .env("SIM_EXEC", "columnar")
        .env_remove("SIM_PASSES")
        .env_remove("FAULT_SEED");
    cmd
}

/// A running child, killed and reaped on drop.
pub struct Proc {
    child: Child,
    /// Bound address, for servers.
    pub addr: String,
}

impl Proc {
    /// Spawn a `serve`/`route` process on an ephemeral port and wait until
    /// it prints its listen address.
    pub fn server(harness: &Path, args: &[&str]) -> io::Result<Proc> {
        let mut cmd = command(harness, args);
        cmd.args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        let mut child = cmd.spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let mut out = BufReader::new(stdout);
            let mut line = String::new();
            let _ = out.read_line(&mut line);
            let _ = tx.send(line);
            // Keep draining so a later write never hits a closed pipe.
            let _ = io::copy(&mut out, &mut io::sink());
        });
        let mut proc = Proc {
            child,
            addr: String::new(),
        };
        let line = rx
            .recv_timeout(Duration::from_secs(30))
            .map_err(|_| io::Error::other("server did not report its address"))?;
        proc.addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| io::Error::other(format!("unexpected server banner {line:?}")))?
            .to_string();
        Ok(proc)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (VmHWM) so far, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        vm_hwm_kb(self.pid()) as f64 / 1024.0
    }

    /// Ask a server to shut down, then reap it (killing it after a grace
    /// period).
    pub fn shutdown(mut self) {
        let _ = request(&self.addr, "POST", "/v1/shutdown", b"", &[]);
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// `VmHWM` of a live process in KiB (0 if unreadable).
pub fn vm_hwm_kb(pid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// One HTTP request; `(status, body)`.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    headers: &[(&str, &str)],
) -> io::Result<(u16, Vec<u8>)> {
    sim_server::http::request_with(addr, method, path, headers, body, TIMEOUT)
        .map(|(status, _, body)| (status, body))
}

/// Scrape `/metrics` into `name{labels} -> value`.
pub fn scrape(addr: &str) -> io::Result<HashMap<String, f64>> {
    let (status, body) = request(addr, "GET", "/metrics", b"", &[])?;
    if status != 200 {
        return Err(io::Error::other(format!("/metrics answered {status}")));
    }
    Ok(String::from_utf8_lossy(&body)
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}

/// A fresh, empty scratch directory under `.bench_work/` in the checkout.
pub fn scratch_dir(root: &Path, name: &str) -> io::Result<PathBuf> {
    let dir = root.join(".bench_work").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}
