//! Small shared pieces: seeded generator, order statistics, memory
//! probes, and the `lsl serve` child processes the served workloads
//! drive.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use lsl_core::net::Client;

/// SplitMix64: the bench's own generator for spec seeds and job order,
/// so inputs are a pure function of the workload seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n ≥ 1; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Median of `xs` (mean of the middle pair for even lengths); NaN when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `xs`, and how many
/// samples lie strictly beyond its rank.
pub fn percentile(xs: &[f64], p: f64) -> (f64, usize) {
    if xs.is_empty() {
        return (f64::NAN, 0);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    (v[rank - 1], v.len() - rank)
}

/// A kernel status field in kB (`VmHWM`, `VmRSS`, ...) of `pid`, or
/// of this process for `None`, in MiB.
pub fn status_mb(pid: Option<u32>, field: &str) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The host's CPU time so far, in clock ticks: (stolen by the
/// hypervisor, all states), from the first line of `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = text
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user and nice.
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Share of the host's CPU time the hypervisor stole between two
/// `cpu_ticks` readings: a slow run with a high share was slowed from
/// outside.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some(b), Some(a)) if a.1 > b.1 => (a.0 - b.0) as f64 / (a.1 - b.1) as f64,
        _ => f64::NAN,
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// How long a child may take to exit after a shutdown request before
/// it is killed.
const STOP_GRACE: Duration = Duration::from_secs(5);

/// One `lsl serve` child, its stdout kept open so its exit messages
/// never hit a closed pipe.
struct Worker {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

/// A set of `lsl serve` children on ephemeral loopback ports. Dropping
/// it kills and reaps any child still running.
pub struct Fleet {
    workers: Vec<Worker>,
}

impl Fleet {
    /// Starts `count` servers with `threads` workers each and waits
    /// until every one is listening.
    pub fn spawn(lsl: &Path, count: usize, threads: usize) -> Result<Fleet, String> {
        let mut fleet = Fleet {
            workers: Vec::with_capacity(count),
        };
        for _ in 0..count {
            let mut child = Command::new(lsl)
                .args([
                    "serve",
                    "--addr",
                    "127.0.0.1:0",
                    "--grace",
                    "1",
                    "--threads",
                ])
                .arg(threads.to_string())
                // The ambient result store would answer repeats from
                // disk and hide the work being measured.
                .env_remove("LSL_RESULT_STORE")
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("cannot start {}: {e}", lsl.display()))?;
            let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
            let mut line = String::new();
            let read = stdout.read_line(&mut line);
            let addr = line
                .trim()
                .strip_prefix("listening on ")
                .map(str::to_string);
            let Some(addr) = addr.filter(|_| read.is_ok()) else {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("lsl serve did not report an address: {line:?}"));
            };
            fleet.workers.push(Worker {
                child,
                _stdout: stdout,
                addr,
            });
        }
        Ok(fleet)
    }

    pub fn addrs(&self) -> Vec<String> {
        self.workers.iter().map(|w| w.addr.clone()).collect()
    }

    /// Sum of the children's peak resident set sizes, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.workers
            .iter()
            .filter_map(|w| status_mb(Some(w.child.id()), "VmHWM:"))
            .sum()
    }

    /// Asks every child to drain and waits for it to exit (killing it
    /// after a grace period).
    pub fn stop(mut self) {
        for w in &self.workers {
            if let Ok(mut c) = Client::connect(w.addr.as_str()) {
                let _ = c.request_shutdown();
            }
        }
        let deadline = Instant::now() + STOP_GRACE;
        for w in &mut self.workers {
            while Instant::now() < deadline {
                match w.child.try_wait() {
                    Ok(Some(_)) | Err(_) => break,
                    Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
        }
        // Drop kills and reaps whatever is left.
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for w in &mut self.workers {
            if let Ok(None) = w.child.try_wait() {
                let _ = w.child.kill();
            }
            let _ = w.child.wait();
        }
    }
}

/// Where the traced run writes its spans, relative to the repository
/// root: the benchmark's own git-ignored output directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from("perfbench").join("out")
}
