//! End-to-end benchmark of the lsl workspace.
//!
//! ```text
//! perfbench --lsl PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` runs the workload untraced and prints the end-to-end
//! metrics; `--trace 1` runs it once untraced and once with spans
//! around the benchmark's calls into each layer, prints the layer
//! table, then runs the per-layer probes and prints the per-layer
//! metrics. The last stdout line is the JSON result. See `README.md`.

mod check;
mod engine;
mod fleet;
mod probes;
mod serve;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use check::Checks;
use trace::{LayerTable, Span};

/// Command-line settings shared by every workload.
pub struct Ctx {
    pub lsl: PathBuf,
    pub seed: u64,
    pub seconds: f64,
}

/// Load-generating threads and connections: one per CPU, at most two.
pub fn load_threads() -> usize {
    lsl_bench::host_cpus().clamp(1, 2)
}

/// One timed pass of a workload.
#[derive(Default)]
pub struct Pass {
    /// Lines submitted.
    pub attempted: u64,
    /// Lines that were rejected, failed, cancelled, or hit a session
    /// or cluster error, plus fleet worker-loss and requeue events.
    pub failed: u64,
    pub checks: Checks,
    pub latencies_ms: Vec<f64>,
    /// On workloads whose lines fall into a few fixed kinds run in equal
    /// numbers: the kind, vertex-steps (Σ n × rounds × replicas) and
    /// finished jobs of each line, parallel to `latencies_ms`. Empty
    /// where lines are pooled.
    pub kinds: Vec<(&'static str, f64, u64)>,
    /// (seconds, vertex-steps, jobs) per one-second bucket of completed
    /// lines, on pooled workloads.
    pub segments: Vec<(f64, f64, u64)>,
    /// Seconds from the first submit to the last answer.
    pub wall: f64,
    /// Peak resident memory of the program's processes, MiB.
    pub peak_rss_mb: f64,
    /// Spans per load thread (empty when untraced).
    pub spans: Vec<Vec<Span>>,
    pub threads: usize,
}

/// A metric as printed: name, value, unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// A workload: set up (timed several times), run passes, tear down.
pub trait Workload {
    /// One pass of `seconds` seconds; `stream` separates the job order
    /// of passes within one run.
    fn pass(&mut self, ctx: &Ctx, seconds: f64, trace: bool, stream: u64) -> Result<Pass, String>;
}

/// How many times a run sets a workload up to take the median set-up
/// time (the last set-up is the one measured): many for the in-process
/// workload, whose set-up takes microseconds and varies from one to the
/// next, fewer where each set-up starts child processes.
const SETUPS_IN_PROCESS: usize = 101;
const SETUPS_WITH_CHILDREN: usize = 9;

struct Args {
    lsl: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut lsl = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} {v:?} is not a number"))
        };
        match flag.as_str() {
            "--lsl" => lsl = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        lsl: lsl.ok_or("--lsl PATH is required")?,
        workload: workload.ok_or("--workload NAME is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Provenance printed with every result: the host, toolchain and
/// revision (`lsl_bench::meta_json`), the CPU model and the seed.
fn provenance(args: &Args) -> String {
    let meta = lsl_bench::meta_json();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"cpu_model\": \"{}\", \"load_threads\": {}, \"meta\": {meta}, \
         \"note\": \"every BENCH_*.json row in the repository was taken on 1 CPU; \
         this host has {} CPUs\"}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        lsl_bench::host_cpus(),
        cpu_model(),
        load_threads(),
        lsl_bench::host_cpus(),
    )
}

/// Rates and latencies of a pass whose lines are many and alike:
/// rates are medians over one-second buckets, latencies pooled
/// nearest-rank percentiles.
fn pooled_stats(pass: &Pass) -> [f64; 4] {
    let rate = |f: fn(&(f64, f64, u64)) -> f64| {
        let rates: Vec<f64> = pass.segments.iter().map(|s| f(s) / s.0).collect();
        util::median(&rates)
    };
    let xs = &pass.latencies_ms;
    let (p50, _) = util::percentile(xs, 50.0);
    let (p99, beyond) = util::percentile(xs, 99.0);
    println!(
        "# {} lines in {} one-second buckets; {beyond} latency samples beyond p99",
        xs.len(),
        pass.segments.len()
    );
    [rate(|s| s.1), rate(|s| s.2 as f64), p50, p99]
}

/// Rates and latencies of a pass that runs tens of lines of a few fixed
/// kinds in equal numbers. Their latencies lie far apart, so a pooled
/// percentile would fall in a gap between kinds, and no p99 holds with
/// fewer than ten samples beyond it. Everything is built from each
/// kind's median line instead: rates are one median line of each kind
/// per the sum of their median latencies, p50 is the median of the
/// kinds' median latencies and p99 the slowest kind's median latency.
fn kinded_stats(pass: &Pass) -> [f64; 4] {
    // Per kind: [latency ms, vertex-steps, jobs] of each line.
    let mut by_kind: std::collections::BTreeMap<&str, Vec<[f64; 3]>> = Default::default();
    for (&(kind, vsteps, jobs), &ms) in pass.kinds.iter().zip(&pass.latencies_ms) {
        by_kind
            .entry(kind)
            .or_default()
            .push([ms, vsteps, jobs as f64]);
    }
    let column = |lines: &[[f64; 3]], c: usize| {
        util::median(&lines.iter().map(|l| l[c]).collect::<Vec<_>>())
    };
    let med: Vec<[f64; 3]> = by_kind
        .values()
        .map(|l| [column(l, 0), column(l, 1), column(l, 2)])
        .collect();
    // The kind medians cannot see a tail (say one line in ten stalling),
    // so each kind's upper quartile and slowest line are printed too.
    let listed: Vec<String> = by_kind
        .iter()
        .map(|(k, l)| {
            let ms: Vec<f64> = l.iter().map(|l| l[0]).collect();
            let q = |p| util::percentile(&ms, p).0;
            format!(
                "{k} min={:.3} p25={:.3} p50={:.3} p75={:.3} max={:.3} n={}",
                q(0.001),
                q(25.0),
                q(50.0),
                q(75.0),
                q(100.0),
                ms.len()
            )
        })
        .collect();
    println!("# latency per line kind (ms): {}", listed.join("; "));
    let cycle_s: f64 = med.iter().map(|m| m[0] / 1e3).sum();
    let latencies: Vec<f64> = med.iter().map(|m| m[0]).collect();
    [
        med.iter().map(|m| m[1]).sum::<f64>() / cycle_s,
        med.iter().map(|m| m[2]).sum::<f64>() / cycle_s,
        util::median(&latencies),
        latencies.iter().copied().fold(f64::NAN, f64::max),
    ]
}

/// `[vsteps_per_s, jobs_per_s, latency_p50_ms, latency_p99_ms]`.
fn rates_and_latencies(pass: &Pass) -> [f64; 4] {
    if pass.kinds.is_empty() {
        pooled_stats(pass)
    } else {
        kinded_stats(pass)
    }
}

fn e2e_metrics(pass: &Pass, setup_s: f64) -> Vec<Metric> {
    let [vsteps, jobs, p50, p99] = rates_and_latencies(pass);
    vec![
        metric("vsteps_per_s", vsteps, "1/s"),
        metric("jobs_per_s", jobs, "1/s"),
        metric("latency_p50_ms", p50, "ms"),
        metric("latency_p99_ms", p99, "ms"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", pass.peak_rss_mb, "MiB"),
    ]
}

fn json_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Sets the workload up `count` times and returns the last one with
/// the median set-up time.
fn set_up(
    make: &dyn Fn() -> Result<Box<dyn Workload>, String>,
    count: usize,
) -> Result<(Box<dyn Workload>, f64), String> {
    let mut times = Vec::with_capacity(count);
    let mut last = None;
    for _ in 0..count {
        // Tear the previous one down before timing the next.
        drop(last.take());
        let t = Instant::now();
        let w = make()?;
        times.push(util::secs(t));
        last = Some(w);
    }
    Ok((last.expect("count > 0"), util::median(&times)))
}

fn run(args: &Args) -> Result<(bool, u64, u64, Vec<Metric>), String> {
    let ctx = Ctx {
        lsl: args.lsl.clone(),
        seed: args.seed,
        seconds: args.seconds as f64,
    };
    if !ctx.lsl.is_file() {
        return Err(format!("no lsl binary at {}", ctx.lsl.display()));
    }
    type Make<'a> = Box<dyn Fn() -> Result<Box<dyn Workload>, String> + 'a>;
    let (make, setups): (Make, usize) = match args.workload.as_str() {
        "engine-lattice" => (
            Box::new(|| Ok(Box::new(engine::Engine::set_up()))),
            SETUPS_IN_PROCESS,
        ),
        "serve-small" => (
            Box::new(|| Ok(Box::new(serve::Serve::set_up(&ctx)?))),
            SETUPS_WITH_CHILDREN,
        ),
        "fleet-relay" => (
            Box::new(|| Ok(Box::new(fleet::FleetRelay::set_up(&ctx)?))),
            SETUPS_WITH_CHILDREN,
        ),
        other => return Err(format!("unknown workload {other:?}")),
    };
    let (mut workload, setup_s) = set_up(&*make, setups)?;
    println!("# setup_s median of {setups}: {setup_s:.6}");

    if !args.trace {
        let ticks = util::cpu_ticks();
        let pass = workload.pass(&ctx, ctx.seconds, false, 0)?;
        println!(
            "# host cpu steal during the pass: {:.4} of cpu time",
            util::steal_share(ticks, util::cpu_ticks())
        );
        drop(workload);
        report_checks(&pass.checks);
        let metrics = e2e_metrics(&pass, setup_s);
        let failed = (pass.failed + pass.checks.wrong.len() as u64).min(pass.attempted);
        println!(
            "# failed_share: {} ({failed} of {} lines)",
            failed as f64 / pass.attempted.max(1) as f64,
            pass.attempted
        );
        let correct = pass.checks.wrong.is_empty() && pass.checks.ran > 0;
        return Ok((correct, pass.attempted.max(1), failed, metrics));
    }

    // Traced run: an untraced and a traced pass of half the time each
    // over the same job sequence, so the difference is the tracing
    // overhead; then the probes.
    let half = (ctx.seconds / 2.0).max(1.0);
    let plain = workload.pass(&ctx, half, false, 1)?;
    let traced = workload.pass(&ctx, half, true, 1)?;
    drop(workload);
    let table = LayerTable::build(&traced.spans, traced.wall);
    table.print(&args.workload, traced.threads);
    // The overhead is taken on the workload's headline rate, estimated
    // as for the end-to-end metrics.
    let (headline, index) = if args.workload == "serve-small" {
        ("jobs_per_s", 1)
    } else {
        ("vsteps_per_s", 0)
    };
    let plain_rate = rates_and_latencies(&plain)[index];
    let traced_rate = rates_and_latencies(&traced)[index];
    let overhead_pct = 100.0 * (plain_rate / traced_rate - 1.0);
    println!(
        "# tracing overhead on {headline}: untraced {plain_rate:.6e} vs traced \
         {traced_rate:.6e} ({overhead_pct:+.3}%)"
    );
    let spans_file =
        util::out_dir().join(format!("{}-seed{}-spans.jsonl", args.workload, args.seed));
    trace::write_spans(&spans_file, &traced.spans)
        .map_err(|e| format!("cannot write {}: {e}", spans_file.display()))?;
    println!("# spans written to {}", spans_file.display());

    let mut checks = Checks::default();
    let mut metrics = probes::run(&ctx, &mut checks)?;
    let attempted = plain.attempted + traced.attempted;
    let mut failed = plain.failed + traced.failed;
    for pass_checks in [plain.checks, traced.checks] {
        checks.merge(pass_checks);
    }
    metrics.push(metric(
        "check.feasible_flag_mismatch",
        checks.flag_mismatch as f64,
        "count",
    ));
    metrics.push(metric("trace.overhead_pct", overhead_pct, "%"));
    metrics.push(metric(
        "trace.residual_share",
        table.residual_share(),
        "share",
    ));
    report_checks(&checks);
    failed = (failed + checks.wrong.len() as u64).min(attempted);
    let correct = checks.wrong.is_empty() && checks.ran > 0;
    Ok((correct, attempted.max(1), failed, metrics))
}

fn report_checks(checks: &Checks) {
    println!(
        "# checks: ran={} wrong={} feasible_flag_mismatch={}",
        checks.ran,
        checks.wrong.len(),
        checks.flag_mismatch
    );
    for w in checks.wrong.iter().take(20) {
        println!("# WRONG: {w}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("# provenance {}", provenance(&args));
    match run(&args) {
        Ok((correct, attempted, failed, metrics)) => {
            for m in &metrics {
                println!("# {:<34} {:>16.6} {}", m.name, m.value, m.unit);
            }
            println!("{}", json_result(correct, attempted, failed, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
