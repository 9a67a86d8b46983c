//! `lsl` — **l**ocal **s**ampling **l**ibrary.
//!
//! A full reproduction of *"What can be sampled locally?"* (Weiming Feng,
//! Yuxin Sun, Yitong Yin, PODC 2017): distributed sampling from Gibbs
//! distributions of Markov random fields in Linial's LOCAL model.
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`graph`] — the network substrate (CSR graphs, generators, BFS);
//! * [`mrf`] — Markov random fields, weighted local CSPs, exact Gibbs
//!   enumeration, transfer matrices, Dobrushin influence;
//! * [`local`] — a deterministic LOCAL-model simulator with per-vertex
//!   randomness streams and message-size accounting;
//! * [`core`] — the paper's algorithms: **LubyGlauber** (Algorithm 1) and
//!   **LocalMetropolis** (Algorithm 2), their sequential baselines, exact
//!   transition kernels, and coupling/mixing measurement;
//! * [`analysis`] — total-variation machinery, kernel spectral analysis,
//!   and the paper's closed-form bounds (`α* ≈ 3.634`, `2+√2`, ...);
//! * [`lowerbound`] — the Section-5 lower-bound constructions: path
//!   correlations (Ω(log n)) and the gadget-lifted cycle whose hardcore
//!   phases encode a maximum cut (Ω(diam)).
//!
//! # Quickstart
//!
//! Everything goes through one front door, the [`prelude`]'s `Sampler`
//! builder — pick a model, an algorithm, a scheduler, a backend, and
//! build. Sample a uniform proper coloring of a torus with the
//! LocalMetropolis chain and check it is proper:
//!
//! ```
//! use lsl::prelude::*;
//!
//! let mrf = models::proper_coloring(generators::torus(8, 8), 16);
//! let mut sampler = Sampler::for_mrf(&mrf)
//!     .algorithm(Algorithm::LocalMetropolis)
//!     .backend(Backend::Parallel { threads: 0 })
//!     .seed(7)
//!     .build()
//!     .unwrap();
//! sampler.run(100);
//! assert!(mrf.is_feasible(sampler.state()));
//! ```
//!
//! Measurement runs as builder *jobs* (`tv_curve`, `coalescence`,
//! `distribution`) that spawn batched replicas on the step engine:
//!
//! ```
//! use lsl::mrf::gibbs::Enumeration;
//! use lsl::prelude::*;
//!
//! let mrf = models::proper_coloring(generators::cycle(4), 3);
//! let exact = Enumeration::new(&mrf).unwrap();
//! let curve = Sampler::for_mrf(&mrf)
//!     .algorithm(Algorithm::LubyGlauber)
//!     .scheduler(Sched::Luby)
//!     .seed(1)
//!     .tv_curve(&exact, &[0, 40, 120], 2000)
//!     .unwrap();
//! assert!(curve.last().unwrap().1 < 0.1);
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `DESIGN.md` /
//! `EXPERIMENTS.md` for the experiment index reproducing every claim of
//! the paper.

pub use lsl_analysis as analysis;
pub use lsl_core as core;
pub use lsl_graph as graph;
pub use lsl_local as local;
pub use lsl_lowerbound as lowerbound;
pub use lsl_mrf as mrf;

/// The facade in one `use`: the sampler builder types, the engine
/// backend, common model constructors
/// ([`models`](mod@crate::mrf::models)), graph
/// [`generators`](mod@crate::graph::generators), and the workspace PRNG.
///
/// ```
/// use lsl::prelude::*;
///
/// let mrf = models::ising(generators::torus(4, 4), 0.7);
/// let mut s = Sampler::for_mrf(&mrf).seed(3).build().unwrap();
/// s.run(20);
/// assert_eq!(s.state().len(), 16);
/// ```
pub mod prelude {
    pub use crate::core::prelude::{
        AcceptanceObserver, Algorithm, Backend, BuildError, CoalescenceReport, EnergyObserver,
        HammingObserver, JobHandle, JobOutput, JobResult, JobSpec, Observer, ReplicaBuilder,
        ReplicaSampler, Sampler, SamplerBuilder, ScenarioRegistry, Sched, Service, SpecError,
        Xoshiro256pp,
    };
    pub use crate::graph::generators;
    pub use crate::mrf::csp::Csp;
    pub use crate::mrf::{models, Mrf};
    pub use std::sync::Arc;
}
