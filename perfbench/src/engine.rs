//! `engine-lattice`: an in-process `Service` with one worker runs four
//! 256×256 torus jobs one at a time, so the round loop does almost all
//! the work. Each job's fingerprint is checked against its
//! `hotpath=scalar` sequential oracle after the timed window.

use std::collections::HashMap;
use std::time::Instant;

use lsl_core::engine::HotPath;
use lsl_core::lifecycle::Limits;
use lsl_core::service::{JobEvent, Service};
use lsl_core::spec::{JobOutput, JobResult, JobSpec};

use crate::check::{self, Checks, RunRef};
use crate::trace::Tracer;
use crate::util::{self, Rng};
use crate::{Ctx, Pass, Workload};

/// The four job kinds: name and spec line without its seed. Each takes
/// about 0.5–0.8 s on one core, so no single kernel dominates the sum.
pub const JOBS: [(&str, &str); 4] = [
    (
        "ising-lm",
        "graph=torus:256x256 model=ising:beta=0.4 job=run:rounds=400",
    ),
    (
        "coloring16-lm",
        "graph=torus:256x256 model=coloring:q=16 job=run:rounds=200",
    ),
    (
        "coloring16-lg",
        "graph=torus:256x256 model=coloring:q=16 algorithm=luby-glauber job=run:rounds=100",
    ),
    (
        "sharded2",
        "graph=torus:256x256 model=ising:beta=0.4 backend=sharded:2 job=run:rounds=200",
    ),
];

/// The span each job kind's run is recorded under, parallel to `JOBS`.
const RUN_SPANS: [&str; 4] = [
    "service.run.ising-lm",
    "service.run.coloring16-lm",
    "service.run.coloring16-lg",
    "service.run.sharded2",
];

/// The seed of job kind `kind`'s spec for workload seed `seed`. Each
/// kind keeps one seed for the whole run, which bounds the oracle work
/// after the window to one chain per kind.
fn job_seed(seed: u64, kind: usize) -> u64 {
    Rng::new(seed, 1000 + kind as u64 * 16).below(1 << 40)
}

pub fn job_line(seed: u64, kind: usize) -> String {
    format!("{} seed={}", JOBS[kind].1, job_seed(seed, kind))
}

/// The oracle of an engine job: the same chain on the scalar hot path
/// and the sequential backend.
fn oracle_spec(spec: &JobSpec) -> JobSpec {
    let mut o = spec.clone();
    o.hotpath = Some(HotPath::Scalar);
    o.backend = None;
    o
}

pub struct Engine {
    service: Service,
}

impl Engine {
    pub fn set_up() -> Engine {
        Engine {
            service: Service::with_limits(1, Limits::default()),
        }
    }
}

impl Workload for Engine {
    fn pass(&mut self, ctx: &Ctx, seconds: f64, trace: bool, stream: u64) -> Result<Pass, String> {
        let mut order = Rng::new(ctx.seed, 2000 + stream);
        let mut tr = Tracer::new(trace, Instant::now());
        let mut pass = Pass {
            threads: 1,
            ..Pass::default()
        };
        let mut finished: Vec<(String, JobResult)> = Vec::new();
        let start = Instant::now();
        // Whole cycles only, so every kind runs equally often.
        while pass.attempted == 0 || util::secs(start) < seconds {
            let mut kinds = [0usize, 1, 2, 3];
            order.shuffle(&mut kinds);
            for kind in kinds {
                let line = job_line(ctx.seed, kind);
                let req = pass.attempted;
                pass.attempted += 1;
                let spec: JobSpec = tr
                    .time("spec.parse", req, || line.parse())
                    .map_err(|e| format!("engine line {line:?} does not parse: {e}"))?;
                let sent = Instant::now();
                let handle = tr.time("service.submit", req, || self.service.submit(spec));
                let submitted = Instant::now();
                let mut started = submitted;
                let mut outcome = None;
                for event in handle.events() {
                    match event {
                        JobEvent::Started => started = Instant::now(),
                        JobEvent::Finished(result) => outcome = Some(result),
                        e if e.is_terminal() => break,
                        _ => {}
                    }
                }
                let done = Instant::now();
                tr.record("service.queue", req, submitted, started);
                tr.record(RUN_SPANS[kind], req, started, done);
                pass.latencies_ms.push((done - sent).as_secs_f64() * 1e3);
                let mut work = (JOBS[kind].0, 0.0, 0);
                match outcome {
                    Some(result) => {
                        if let JobOutput::Run { rounds, n, .. } = result.output {
                            work.1 = n as f64 * rounds as f64;
                        }
                        work.2 = 1;
                        finished.push((line, result));
                    }
                    None => pass.failed += 1,
                }
                pass.kinds.push(work);
            }
        }
        pass.wall = util::secs(start);
        pass.peak_rss_mb = util::status_mb(None, "VmHWM:").unwrap_or(f64::NAN);
        pass.spans = vec![tr.into_spans()];
        pass.checks = check_jobs(&finished);
        Ok(pass)
    }
}

/// Checks every finished job against its oracle (computed once per
/// distinct line, outside the timed window).
fn check_jobs(finished: &[(String, JobResult)]) -> Checks {
    let mut checks = Checks::default();
    let mut oracles: HashMap<&str, Option<RunRef>> = HashMap::new();
    for (line, result) in finished {
        let oracle = oracles.entry(line.as_str()).or_insert_with(|| {
            let spec: JobSpec = line.parse().ok()?;
            check::run_reference(&oracle_spec(&spec)).ok()
        });
        match oracle {
            Some(o) => check::check_run(&mut checks, line, &result.output, o),
            None => {
                checks.expect(false, || format!("{line:?}: oracle could not run"));
            }
        }
    }
    checks
}
