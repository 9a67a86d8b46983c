//! `fleet-relay`: a `Coordinator` over two `lsl serve --threads 1`
//! children, alternating a plain sweep (member fan-out by pull queue)
//! with a `backend=cluster:2` member whose cheap rounds make the
//! per-round `shard-sync` barrier and relay dominate. Sweeps are
//! compared with `Service::submit_sweep`, cluster members with the
//! in-process `sharded:2` run (`CommSummary` included).

use std::collections::HashMap;
use std::time::Instant;

use lsl_core::cluster::{ClusterRun, Coordinator};
use lsl_core::lifecycle::Limits;
use lsl_core::service::Service;
use lsl_core::spec::{JobOutput, JobSpec, SweepResult, SweepSpec};

use crate::check::{self, Checks};
use crate::trace::Tracer;
use crate::util::{self, Fleet, Rng};
use crate::{Ctx, Pass, Workload};

/// Distinct lines of each kind in one run.
const POOL: u64 = 8;
/// Members per sweep line.
const SWEEP: u64 = 24;

/// The `i`-th line of a pass: even lines sweep, odd lines run one
/// distributed member.
pub fn fleet_line(rng: &mut Rng, seed: u64, i: u64) -> String {
    let base = (seed % 1_000_000) * 10_000;
    let slot = rng.below(POOL);
    if i.is_multiple_of(2) {
        let a = base + slot * SWEEP;
        format!(
            "graph=torus:24x24 model=coloring:q=16 job=run:rounds=200 seeds={a}..{}",
            a + SWEEP
        )
    } else {
        format!(
            "graph=torus:32x32 model=ising:beta=0.4 backend=cluster:2 seed={} job=run:rounds=2000",
            base + 5000 + slot
        )
    }
}

/// The in-process twin of a `cluster:k` line: the same chain on the
/// `sharded:k` backend.
pub fn sharded_twin(line: &str) -> String {
    line.replace("backend=cluster:", "backend=sharded:")
}

pub struct FleetRelay {
    fleet: Option<Fleet>,
    coord: Coordinator,
}

impl FleetRelay {
    pub fn set_up(ctx: &Ctx) -> Result<FleetRelay, String> {
        let fleet = Fleet::spawn(&ctx.lsl, 2, 1)?;
        let coord = Coordinator::connect(fleet.addrs())
            .map_err(|e| format!("cannot reach the fleet: {e}"))?;
        Ok(FleetRelay {
            fleet: Some(fleet),
            coord,
        })
    }
}

impl Drop for FleetRelay {
    fn drop(&mut self) {
        if let Some(fleet) = self.fleet.take() {
            fleet.stop();
        }
    }
}

impl Workload for FleetRelay {
    fn pass(&mut self, ctx: &Ctx, seconds: f64, trace: bool, stream: u64) -> Result<Pass, String> {
        let mut rng = Rng::new(ctx.seed, 4000 + stream);
        let mut tr = Tracer::new(trace, Instant::now());
        let mut pass = Pass {
            threads: 1,
            ..Pass::default()
        };
        let mut finished: Vec<(String, ClusterRun)> = Vec::new();
        let start = Instant::now();
        // Whole pairs only, so both line kinds weigh equally.
        while pass.attempted % 2 == 1 || util::secs(start) < seconds {
            let req = pass.attempted;
            let line = fleet_line(&mut rng, ctx.seed, req);
            pass.attempted += 1;
            let (name, kind) = if req.is_multiple_of(2) {
                ("cluster.sweep_line", "sweep")
            } else {
                ("cluster.shard_member", "member")
            };
            let sent = Instant::now();
            let run = tr.time(name, req, || self.coord.run_sweep(&line));
            pass.latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
            let mut work = (kind, 0.0, 0);
            match run {
                Ok(run) => {
                    pass.failed += run.events.len() as u64;
                    for r in &run.result.results {
                        if let JobOutput::Run { rounds, n, .. } = r.output {
                            work.1 += n as f64 * rounds as f64;
                            work.2 += 1;
                        }
                    }
                    finished.push((line, run));
                }
                Err(e) => {
                    eprintln!("perfbench: fleet line {line:?} failed: {e}");
                    pass.failed += 1;
                }
            }
            pass.kinds.push(work);
        }
        pass.wall = util::secs(start);
        pass.peak_rss_mb = self.fleet.as_ref().map_or(f64::NAN, Fleet::peak_rss_mb);
        pass.spans = vec![tr.into_spans()];
        pass.checks = check_fleet(&finished);
        Ok(pass)
    }
}

/// Sweeps must equal the in-process `Service::submit_sweep` aggregate
/// and every member must meet its hard constraints; cluster members
/// must equal the in-process `sharded:k` run, communication included.
fn check_fleet(finished: &[(String, ClusterRun)]) -> Checks {
    let service = Service::with_limits(1, Limits::default());
    let mut checks = Checks::default();
    let mut sweeps: HashMap<&str, Option<SweepResult>> = HashMap::new();
    let mut members: HashMap<String, Option<check::RunRef>> = HashMap::new();
    let mut twins: HashMap<&str, Option<JobOutput>> = HashMap::new();
    for (line, run) in finished {
        if line.contains("backend=cluster:") {
            let want = twins.entry(line.as_str()).or_insert_with(|| {
                let spec: JobSpec = sharded_twin(line).parse().ok()?;
                spec.run().ok().map(|r| r.output)
            });
            let got = run.result.results.first().map(|r| &r.output);
            checks.expect(want.is_some() && got == want.as_ref(), || {
                format!("{line:?}: cluster member differs from in-process sharded run")
            });
            if let Some(out) = got {
                // Ising is soft: every final state is feasible.
                checks.note_flag(out, true);
            }
            continue;
        }
        let want = sweeps.entry(line.as_str()).or_insert_with(|| {
            let sweep: SweepSpec = line.parse().ok()?;
            service.submit_sweep(&sweep).wait().ok()
        });
        checks.expect(want.as_ref() == Some(&run.result), || {
            format!("{line:?}: fleet sweep differs from the in-process sweep")
        });
        for r in &run.result.results {
            let reference = members.entry(r.spec.clone()).or_insert_with(|| {
                let spec: JobSpec = r.spec.parse().ok()?;
                check::run_reference(&spec).ok()
            });
            match reference {
                Some(reference) => check::check_run(&mut checks, &r.spec, &r.output, reference),
                None => {
                    checks.expect(false, || format!("{:?}: reference failed", r.spec));
                }
            }
        }
    }
    checks
}
