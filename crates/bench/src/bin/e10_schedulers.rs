//! E10 — the Remark after Theorem 3.2: the LubyGlauber analysis holds for
//! *any* independent scheduler with Pr[v ∈ I] ≥ γ, at rate
//! O(1/((1−α)γ) · log(n/ε)).
//!
//! We measure coalescence rounds of LubyGlauber under four schedulers on
//! the same instance and report rounds·γ, which the theory predicts to be
//! roughly constant across independent samplers; the chromatic scheduler
//! (deterministic scan, the Gonzalez-et-al. baseline) is included for
//! contrast.
//!
//! The sweep is one base [`JobSpec`] varying only `scheduler=`; the
//! instance is built once through the spec layer and shared.

use lsl_bench::{coalescence_output, f, header, header_row, row, scaled};
use lsl_core::sampler::Sched;
use lsl_core::schedule::{
    BernoulliFilterScheduler, ChromaticScheduler, LubyScheduler, SingletonScheduler,
    VertexScheduler,
};
use lsl_core::spec::{BuiltModel, JobSpec};

/// The γ of Theorem 3.2's remark for a [`Sched`] choice on this network
/// (None for the deterministic chromatic scan).
fn gamma(sched: Sched, g: &lsl_graph::Graph) -> Option<f64> {
    match sched {
        Sched::Luby => LubyScheduler::new().gamma(g),
        Sched::Singleton => SingletonScheduler.gamma(g),
        Sched::Bernoulli(p) => BernoulliFilterScheduler::new(p).gamma(g),
        Sched::Chromatic => ChromaticScheduler::greedy(g).gamma(g),
    }
}

fn main() {
    header(&[
        "E10: scheduler generality (Remark after Thm 3.2)",
        "coalescence rounds x gamma should be ~constant for independent samplers",
    ]);
    header_row("scheduler,gamma,mean_rounds,se,timeouts,rounds_x_gamma");

    let n = scaled(128usize, 48);
    let delta = 4;
    let q = 12;
    let trials = scaled(5usize, 2);

    let base: JobSpec = format!(
        "graph=random-regular:n={n},d={delta} model=coloring:q={q} \
         algorithm=luby-glauber seed=99 graph-seed=1 \
         job=coalescence:trials={trials},max-rounds=5000000"
    )
    .parse()
    .expect("a valid E10 spec");
    // Build the instance once; every scheduler samples the same graph.
    let model = base.build_model();
    let graph = match &model {
        BuiltModel::Mrf(mrf) => mrf.graph_arc(),
        BuiltModel::Csp { .. } => unreachable!("coloring is an MRF"),
    };

    for (name, sched) in [
        ("Luby", Sched::Luby),
        ("Bernoulli(0.1)", Sched::Bernoulli(0.1)),
        ("Bernoulli(0.25)", Sched::Bernoulli(0.25)),
        ("Singleton", Sched::Singleton),
        ("Chromatic", Sched::Chromatic),
    ] {
        let gm = gamma(sched, &graph);
        let mut spec = base.clone();
        spec.scheduler = Some(sched);
        let result = spec
            .run_on(&model)
            .expect("LubyGlauber accepts every scheduler");
        let (mean, se, timeouts) = coalescence_output(&result);
        let gstr = gm.map_or("-".to_string(), f);
        let prod = gm.map_or("-".to_string(), |g| f(mean * g));
        row(&[
            name.into(),
            gstr,
            f(mean),
            f(se),
            timeouts.to_string(),
            prod,
        ]);
    }
}
