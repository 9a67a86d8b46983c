//! Independent-set schedulers for parallel Glauber updates.
//!
//! The paper's generic parallelization (§3) updates, each round, a random
//! independent set `I`. Its Remark after Theorem 3.2 notes the analysis
//! holds for *any* subroutine that independently samples `I` with
//! `Pr[v ∈ I] ≥ γ > 0`, with mixing rate `O(1/((1−α)γ) · log(n/ε))`.
//! This module provides that abstraction and four instances:
//!
//! * [`LubyScheduler`] — the paper's "Luby step": iid `β_v ∈ [0, 1]`,
//!   select local maxima of the inclusive neighborhood. `Pr[v ∈ I] =
//!   1/(deg(v)+1) ≥ 1/(Δ+1)`.
//! * [`SingletonScheduler`] — one uniform vertex (`γ = 1/n`): recovers the
//!   sequential Glauber dynamics, used to cross-validate kernels.
//! * [`BernoulliFilterScheduler`] — each vertex volunteers with probability
//!   `p`, conflicts are dropped (both endpoints of a volunteering edge
//!   withdraw): `Pr[v ∈ I] = p(1−p)^deg(v)`, an ablation knob for γ.
//! * [`ChromaticScheduler`] — the chromatic scheduler of Gonzalez et al.
//!   \[28\]: cycles deterministically through the classes of a proper
//!   coloring. *Not* an independent sampler (it is a systematic scan), so
//!   Proposition 3.1's proof does not apply round-by-round — it is here as
//!   the baseline the paper contrasts with.
//!
//! Every scheduler selects on the model's
//! [interaction graph](crate::engine::Model::interaction_graph): on
//! a CSP that is the primal graph of the scopes, so the selected set is
//! *strongly* independent (the remark after Algorithm 1).

use crate::engine::{Model, RoundCtx};
use lsl_graph::coloring::ProperColoring;
use lsl_graph::{Graph, VertexId};
use lsl_local::rng::Xoshiro256pp;

/// A strategy for picking the set of vertices to update each round, in
/// the step engine's per-vertex form: a **mark** drawn from each
/// vertex's private round stream, then a pure **selection** predicate
/// over the neighborhood's marks (plus the round-shared stream for
/// global draws). This is what lets LubyGlauber rounds execute in
/// parallel — or batched across replicas — without changing the
/// scheduled set's distribution. Schedulers are `Send + Sync` so the
/// rules that embed them make `Send` chains, and `Clone + 'static` so
/// the hot-path kernels can own a copy.
pub trait VertexScheduler: Send + Sync + Clone + 'static {
    /// The per-vertex mark published by the propose phase.
    type Mark: Copy + Send + Sync + Default;

    /// A lower bound on `Pr[v ∈ I]` over `g` (the γ of Theorem 3.2's
    /// remark), if the scheduler samples independently each round.
    fn gamma(&self, g: &Graph) -> Option<f64>;

    /// Draws vertex `v`'s mark from its private stream.
    fn mark(&self, v: VertexId, rng: &mut Xoshiro256pp) -> Self::Mark;

    /// Whether `v` is in this round's update set, as a pure function of
    /// the marks and the round context. Must yield an independent set
    /// of the interaction graph.
    fn selected<M: Model>(&self, ctx: &RoundCtx<M>, v: VertexId, marks: &[Self::Mark]) -> bool;

    /// For schedulers that select exactly one, mark-independent vertex
    /// per round: the engine then takes its single-site fast path (no
    /// propose sweep, no double-buffering) instead of resolving every
    /// vertex. Must agree with [`VertexScheduler::selected`].
    fn single_vertex<M: Model>(&self, ctx: &RoundCtx<M>) -> Option<VertexId> {
        let _ = ctx;
        None
    }
}

/// The paper's Luby step (Algorithm 1, lines 3–4).
///
/// Every vertex draws an iid uniform `β_v`; `v` joins `I` iff
/// `β_v > max{β_u : u ∈ Γ(v)}`. Ties (probability ~2⁻⁵³ per pair) are
/// broken by vertex id, preserving independence.
#[derive(Clone, Debug, Default)]
pub struct LubyScheduler;

impl LubyScheduler {
    /// Creates a Luby scheduler.
    pub fn new() -> Self {
        LubyScheduler
    }
}

impl VertexScheduler for LubyScheduler {
    type Mark = f64;

    fn gamma(&self, g: &Graph) -> Option<f64> {
        Some(1.0 / (g.max_degree() as f64 + 1.0))
    }

    fn mark(&self, _v: VertexId, rng: &mut Xoshiro256pp) -> f64 {
        rng.uniform_f64()
    }

    fn selected<M: Model>(&self, ctx: &RoundCtx<M>, v: VertexId, marks: &[f64]) -> bool {
        let g = ctx.model().interaction_graph();
        let key = (marks[v.index()], v.0);
        g.neighbors(v).all(|u| key > (marks[u.index()], u.0))
    }
}

/// One uniform vertex per round: the sequential Glauber dynamics as a
/// degenerate scheduler (`γ = 1/n`).
#[derive(Clone, Debug, Default)]
pub struct SingletonScheduler;

impl VertexScheduler for SingletonScheduler {
    type Mark = ();

    fn gamma(&self, g: &Graph) -> Option<f64> {
        Some(1.0 / g.num_vertices().max(1) as f64)
    }

    fn mark(&self, _v: VertexId, _rng: &mut Xoshiro256pp) {}

    fn selected<M: Model>(&self, ctx: &RoundCtx<M>, v: VertexId, _marks: &[()]) -> bool {
        // Every vertex evaluates the same shared draw, so exactly one is
        // selected per round.
        self.single_vertex(ctx) == Some(v)
    }

    fn single_vertex<M: Model>(&self, ctx: &RoundCtx<M>) -> Option<VertexId> {
        if ctx.model().num_vertices() == 0 {
            return None;
        }
        Some(ctx.shared_vertex())
    }
}

/// Bernoulli volunteering with conflict withdrawal: `v` volunteers with
/// probability `p` and stays in `I` iff no neighbor volunteered.
#[derive(Clone, Debug)]
pub struct BernoulliFilterScheduler {
    p: f64,
}

impl BernoulliFilterScheduler {
    /// Creates the scheduler with volunteering probability `p`.
    ///
    /// # Panics
    /// Panics unless `0 < p <= 1`.
    pub fn new(p: f64) -> Self {
        assert!(
            p > 0.0 && p <= 1.0,
            "volunteering probability must be in (0, 1]"
        );
        BernoulliFilterScheduler { p }
    }
}

impl VertexScheduler for BernoulliFilterScheduler {
    type Mark = bool;

    fn gamma(&self, g: &Graph) -> Option<f64> {
        Some(self.p * (1.0 - self.p).powi(g.max_degree() as i32))
    }

    fn mark(&self, _v: VertexId, rng: &mut Xoshiro256pp) -> bool {
        rng.uniform_f64() < self.p
    }

    fn selected<M: Model>(&self, ctx: &RoundCtx<M>, v: VertexId, marks: &[bool]) -> bool {
        let g = ctx.model().interaction_graph();
        marks[v.index()] && g.neighbors(v).all(|u| !marks[u.index()])
    }
}

/// The chromatic scheduler of Gonzalez et al.: cycles through the classes
/// of a proper coloring deterministically — round `r` updates class
/// `r mod classes`.
#[derive(Clone, Debug)]
pub struct ChromaticScheduler {
    coloring: ProperColoring,
}

impl ChromaticScheduler {
    /// Builds the scheduler from a proper coloring of the interaction
    /// graph.
    pub fn new(coloring: ProperColoring) -> Self {
        ChromaticScheduler { coloring }
    }

    /// Builds the scheduler from the greedy (Δ+1)-coloring of `g`.
    pub fn greedy(g: &Graph) -> Self {
        Self::new(lsl_graph::coloring::greedy(g))
    }

    /// Number of classes (rounds per full sweep).
    pub fn num_classes(&self) -> usize {
        self.coloring.num_classes()
    }
}

impl VertexScheduler for ChromaticScheduler {
    type Mark = ();

    fn gamma(&self, _g: &Graph) -> Option<f64> {
        // Deterministic schedule: not an independent per-round sampler.
        None
    }

    fn mark(&self, _v: VertexId, _rng: &mut Xoshiro256pp) {}

    fn selected<M: Model>(&self, ctx: &RoundCtx<M>, v: VertexId, _marks: &[()]) -> bool {
        let classes = self.coloring.num_classes().max(1) as u64;
        self.coloring.color(v) == (ctx.round() % classes) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsl_graph::generators;
    use lsl_mrf::{models, Mrf};

    /// The update mask of round `round` under `master`: every vertex
    /// marks from its propose stream, then the selection predicate runs
    /// (what the engine's LubyGlauber rule does each round).
    fn mask<S: VertexScheduler>(s: &S, model: &Mrf, master: u64, round: u64) -> Vec<bool> {
        let ctx = RoundCtx::new(model, master, round);
        let marks: Vec<S::Mark> = model
            .graph()
            .vertices()
            .map(|v| s.mark(v, ctx.propose_rng(v).raw()))
            .collect();
        let mut out = vec![false; model.num_vertices()];
        crate::engine::rules::scheduled_mask(s, &ctx, &marks, &mut out);
        out
    }

    fn check_independent<S: VertexScheduler>(g: &Graph, s: &S, seeds: u64) {
        let model = models::uniform_independent_set(g.clone());
        for seed in 0..seeds {
            let out = mask(s, &model, seed, seed);
            assert!(
                g.is_independent_set(&out),
                "{} produced a dependent set",
                std::any::type_name::<S>()
            );
        }
    }

    /// Per-vertex selection frequencies over `trials` rounds.
    fn frequencies<S: VertexScheduler>(g: &Graph, s: &S, trials: u64) -> Vec<f64> {
        let model = models::uniform_independent_set(g.clone());
        let mut counts = vec![0usize; g.num_vertices()];
        for seed in 0..trials {
            for (c, b) in counts.iter_mut().zip(mask(s, &model, seed, 0)) {
                *c += b as usize;
            }
        }
        counts.iter().map(|&c| c as f64 / trials as f64).collect()
    }

    #[test]
    fn all_schedulers_produce_independent_sets() {
        let g = generators::torus(4, 4);
        check_independent(&g, &LubyScheduler::new(), 50);
        check_independent(&g, &SingletonScheduler, 50);
        check_independent(&g, &BernoulliFilterScheduler::new(0.4), 50);
        check_independent(&g, &ChromaticScheduler::greedy(&g), 50);
    }

    #[test]
    fn luby_inclusion_probability_matches_theory() {
        // Pr[v ∈ I] = 1/(deg(v)+1) exactly: on a star, hub has 1/(n+1),
        // leaves 1/2.
        let g = generators::star(4);
        let freq = frequencies(&g, &LubyScheduler::new(), 60_000);
        assert!((freq[0] - 0.2).abs() < 0.01, "hub = {}", freq[0]);
        assert!((freq[1] - 0.5).abs() < 0.01, "leaf = {}", freq[1]);
    }

    #[test]
    fn luby_gamma_lower_bound_holds() {
        // Empirical Pr[v ∈ I] ≥ γ = 1/(Δ+1) for every vertex on an
        // irregular graph.
        let g = generators::caterpillar(4, 2);
        let sched = LubyScheduler::new();
        let gamma = sched.gamma(&g).unwrap();
        for (v, freq) in frequencies(&g, &sched, 40_000).into_iter().enumerate() {
            assert!(
                freq >= gamma - 0.01,
                "vertex {v}: freq {freq} < gamma {gamma}"
            );
        }
    }

    #[test]
    fn chromatic_covers_everyone_per_sweep() {
        let g = generators::cycle(6);
        let model = models::uniform_independent_set(g.clone());
        let sched = ChromaticScheduler::greedy(&g);
        let mut covered = [false; 6];
        for round in 0..sched.num_classes() as u64 {
            for (c, b) in covered.iter_mut().zip(mask(&sched, &model, 0, round)) {
                *c |= b;
            }
        }
        assert!(
            covered.iter().all(|&b| b),
            "a sweep must cover all vertices"
        );
    }

    #[test]
    fn singleton_picks_exactly_one() {
        let model = models::uniform_independent_set(generators::complete(5));
        for round in 0..20 {
            let out = mask(&SingletonScheduler, &model, 8, round);
            assert_eq!(out.iter().filter(|&&b| b).count(), 1);
        }
    }

    #[test]
    fn bernoulli_gamma_formula() {
        let g = generators::cycle(5);
        let s = BernoulliFilterScheduler::new(0.25);
        let gamma = s.gamma(&g).unwrap();
        assert!((gamma - 0.25 * 0.75 * 0.75).abs() < 1e-12);
    }

    #[test]
    fn luby_empty_graph_selects_all() {
        // With no neighbors everyone is a local maximum.
        let model = models::uniform_independent_set(lsl_graph::Graph::from_edges(3, &[]));
        let out = mask(&LubyScheduler::new(), &model, 0, 0);
        assert!(out.iter().all(|&b| b));
    }
}
