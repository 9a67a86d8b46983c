//! Answer checks made from outside the program: hard constraints on
//! final states, and equality of every served answer with an
//! in-process reference computed outside the timed window.

use lsl_core::spec::{BuiltModel, JobKind, JobOutput, JobSpec, ModelSpec, SpecError};
use lsl_graph::Graph;
use lsl_mrf::Spin;

/// Tally of the checks a run made.
#[derive(Default)]
pub struct Checks {
    pub ran: u64,
    /// One line per failed check.
    pub wrong: Vec<String>,
    /// Run results whose `feasible` flag disagrees with the bench's
    /// own constraint check (the flag is not trusted; see `README.md`).
    pub flag_mismatch: u64,
}

impl Checks {
    /// Records one check; `what` describes it when it failed.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.ran += 1;
        if !ok {
            self.wrong.push(what());
        }
        ok
    }

    /// Records a program error met while computing a reference.
    pub fn reference_failed(&mut self, line: &str, e: &SpecError) {
        self.ran += 1;
        self.wrong
            .push(format!("reference for {line:?} failed: {e}"));
    }

    pub fn merge(&mut self, other: Checks) {
        self.ran += other.ran;
        self.wrong.extend(other.wrong);
        self.flag_mismatch += other.flag_mismatch;
    }

    /// Compares a run result's `feasible` flag with the bench's verdict.
    pub fn note_flag(&mut self, output: &JobOutput, holds: bool) {
        if let JobOutput::Run { feasible, .. } = output {
            if *feasible != holds {
                self.flag_mismatch += 1;
            }
        }
    }
}

fn graph_of(model: &BuiltModel) -> &Graph {
    match model {
        BuiltModel::Mrf(mrf) => mrf.graph(),
        BuiltModel::Csp { csp, .. } => csp.graph(),
    }
}

/// Whether `state` meets the model's hard constraints: no monochromatic
/// edge for colorings, every vertex dominated for dominating sets.
/// Soft models (Ising) give every configuration positive weight.
pub fn hard_constraints_hold(spec: &JobSpec, model: &BuiltModel, state: &[Spin]) -> bool {
    let g = graph_of(model);
    if state.len() != g.num_vertices() {
        return false;
    }
    match spec.model {
        ModelSpec::Coloring { q } => {
            state.iter().all(|&s| (s as usize) < q)
                && g.edges()
                    .all(|(_, u, v)| state[u.index()] != state[v.index()])
        }
        ModelSpec::DominatingSet => g
            .vertices()
            .all(|v| state[v.index()] == 1 || g.neighbors(v).any(|u| state[u.index()] == 1)),
        _ => true,
    }
}

/// The final configuration of a `run` job, computed directly through
/// the sampler facade (not through the service).
fn final_state(spec: &JobSpec, model: &BuiltModel) -> Result<Vec<Spin>, SpecError> {
    let JobKind::Run { rounds } = spec.job_or_default() else {
        return Err(SpecError::Unsupported {
            message: "final_state takes run jobs".into(),
        });
    };
    let mut sampler = spec
        .sampler_builder(model)
        .burn_in(spec.burn_in.unwrap_or(0))
        .build()?;
    sampler.run(rounds);
    Ok(sampler.state().to_vec())
}

/// What a direct facade run of a `run` spec produced.
#[derive(Clone, Copy)]
pub struct RunRef {
    pub fingerprint: u64,
    pub n: usize,
    /// Whether the hard constraints hold on the final state.
    pub holds: bool,
}

/// Runs `spec` directly through the sampler facade and checks the
/// hard constraints on its final state.
pub fn run_reference(spec: &JobSpec) -> Result<RunRef, SpecError> {
    let model = spec.build_model();
    let state = final_state(spec, &model)?;
    Ok(RunRef {
        fingerprint: lsl_core::spec::fingerprint(&state),
        n: state.len(),
        holds: hard_constraints_hold(spec, &model, &state),
    })
}

/// Checks a `run` output against a reference run (which may use
/// another backend or hot path that the determinism contract says must
/// agree): same fingerprint and size, and the hard constraints hold.
pub fn check_run(checks: &mut Checks, line: &str, output: &JobOutput, reference: &RunRef) {
    checks.note_flag(output, reference.holds);
    let same = matches!(output, JobOutput::Run { fingerprint, n, .. }
        if *fingerprint == reference.fingerprint && *n == reference.n);
    checks.expect(same, || {
        format!("{line:?}: fingerprint differs from its reference")
    });
    checks.expect(reference.holds, || {
        format!("{line:?}: hard constraint violated")
    });
}
