//! E12 — the weighted-CSP extensions of both chains (remarks after
//! Algorithms 1 and 2): LubyGlauber on strongly independent sets of the
//! scope hypergraph, and LocalMetropolis with per-constraint filters.
//!
//! Dominating sets (single-site-connected solution spaces) are sampled to
//! uniform; maximal independent sets (frozen under single-site moves)
//! demonstrate exact *invariance* of the uniform distribution.
//!
//! Instances are declared as [`JobSpec`] lines (`model=dominating-set`,
//! `model=mis`) and built once through the spec layer. Both CSP chains
//! are engine rules, so every row runs as one replica batch: the
//! `distribution` job from the canonical start for dominating sets, and
//! a replica batch from exactly uniform starts for the MIS invariance.

use lsl_analysis::EmpiricalDistribution;
use lsl_bench::{f, header, header_row, row, scaled};
use lsl_core::sampler::Algorithm;
use lsl_core::spec::{BuiltModel, JobSpec};
use lsl_mrf::csp::Csp;
use lsl_mrf::gibbs::encode_config;
use std::sync::Arc;

fn tv_to_uniform(emp: &EmpiricalDistribution, sols: &[(Vec<u32>, f64)]) -> f64 {
    let target = 1.0 / sols.len() as f64;
    let mut tv: f64 = sols
        .iter()
        .map(|(s, _)| (emp.frequency(encode_config(s, 2)) - target).abs())
        .sum();
    // Mass outside the solution set (should be zero).
    let on_solutions: f64 = sols
        .iter()
        .map(|(s, _)| emp.frequency(encode_config(s, 2)))
        .sum();
    tv += 1.0 - on_solutions;
    0.5 * tv
}

/// Whether every recorded configuration is a solution.
fn all_feasible(emp: &EmpiricalDistribution, sols: &[(Vec<u32>, f64)]) -> bool {
    emp.iter()
        .all(|(x, _)| sols.iter().any(|(s, _)| encode_config(s, 2) == x))
}

/// The spec line's built CSP.
fn build(line: &str) -> (JobSpec, BuiltModel, Arc<Csp>) {
    let spec: JobSpec = line.parse().expect("a valid E12 spec");
    let model = spec.build_model();
    let csp = match &model {
        BuiltModel::Csp { csp, .. } => Arc::clone(csp),
        BuiltModel::Mrf(_) => unreachable!("E12 instances are CSPs"),
    };
    (spec, model, csp)
}

fn main() {
    header(&[
        "E12: weighted local CSP sampling (remarks after Algs 1 and 2)",
        "dominating sets: convergence to uniform; MIS: exact invariance",
    ]);
    header_row("experiment,instance,algorithm,solutions,steps,replicas,tv_to_uniform,all_feasible");

    let reps = scaled(20_000usize, 3000);
    let algorithms = ["luby-glauber", "local-metropolis"];
    // Dominating sets on small paths and cycles.
    for (name, graph) in [
        ("path4", "path:4"),
        ("path5", "path:5"),
        ("cycle5", "cycle:5"),
    ] {
        for alg in algorithms {
            let (spec, model, csp) = build(&format!(
                "graph={graph} model=dominating-set algorithm={alg} seed=17"
            ));
            let sols = csp.enumerate();
            let steps = 80;
            let emp = spec
                .sampler_builder(&model)
                .distribution(steps, reps)
                .expect("feasible dominating-set start");
            row(&[
                "dominating_set".into(),
                name.into(),
                alg.parse::<Algorithm>().unwrap().name().into(),
                sols.len().to_string(),
                steps.to_string(),
                reps.to_string(),
                f(tv_to_uniform(&emp, &sols)),
                all_feasible(&emp, &sols).to_string(),
            ]);
        }
    }

    // MIS invariance: an exactly uniform start law (replica b starts
    // from solution b mod |sols|) stays uniform.
    for (name, graph) in [("cycle5", "cycle:5"), ("path5", "path:5")] {
        for alg in algorithms {
            let (spec, model, csp) =
                build(&format!("graph={graph} model=mis algorithm={alg} seed=18"));
            let sols = csp.enumerate();
            let steps = 30;
            let count = reps - reps % sols.len();
            let starts = (0..count).map(|b| sols[b % sols.len()].0.clone()).collect();
            let mut batch = spec
                .sampler_builder(&model)
                .replicas(count)
                .starts(starts)
                .build()
                .expect("exact solutions are feasible starts");
            batch.run(steps);
            let mut emp = EmpiricalDistribution::new();
            for state in batch.states() {
                emp.record(encode_config(state, 2));
            }
            row(&[
                "mis_invariance".into(),
                name.into(),
                alg.parse::<Algorithm>().unwrap().name().into(),
                sols.len().to_string(),
                steps.to_string(),
                count.to_string(),
                f(tv_to_uniform(&emp, &sols)),
                all_feasible(&emp, &sols).to_string(),
            ]);
        }
    }
}
