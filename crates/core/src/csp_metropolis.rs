//! The weighted-CSP extension of LocalMetropolis (Remark after
//! Algorithm 2).
//!
//! "The local filtering now occurs on each local constraint, such that a
//! k-ary constraint c = (f_c, S_c) passes the check with the probability
//! which is a product of 2^k − 1 normalized factors f̃_c(τ) for the
//! τ ∈ \[q\]^{S_c} obtained from 2^k − 1 ways of mixing σ_{S_c} with
//! X_{S_c} except the X_{S_c} itself."
//!
//! Each round: every vertex proposes a uniform spin; every constraint
//! flips one shared coin ([`RoundCtx::constraint_coin`]) with the
//! mixture-product pass probability; a vertex accepts iff *all*
//! constraints containing it pass. For binary edge constraints the
//! mixture product is exactly the three-factor filter of Algorithm 2,
//! which [`csp_local_metropolis_kernel`]'s tests verify by comparing
//! kernels entrywise against the MRF chain.

use crate::engine::{RoundCtx, StateView, SyncRule};
use lsl_analysis::Kernel;
use lsl_graph::VertexId;
use lsl_local::rng::Xoshiro256pp;
use lsl_mrf::csp::{Constraint, Csp};
use lsl_mrf::gibbs::{checked_pow, decode_config};
use lsl_mrf::Spin;
use std::collections::HashMap;

/// The mixture-product pass probability of constraint `c` given the
/// current spins and proposals of its scope (read by vertex id):
/// `Π_{∅ ≠ S ⊆ [k]} f̃(τ_S)` where `τ_S` takes `σ` on `S` and `X`
/// elsewhere. Allocates nothing: the mixtures are walked in Gray-code
/// order, so each step moves the table index by one member's
/// `±(σ_i − X_i)·q^i`.
pub fn constraint_pass_probability(
    c: &Constraint,
    q: usize,
    current: impl Fn(u32) -> Spin,
    proposed: impl Fn(u32) -> Spin,
) -> f64 {
    let (scope, table) = (c.scope(), c.table());
    debug_assert!(scope.len() <= 16, "scope too large for mixture enumeration");
    let max = c.max_value();
    if max == 0.0 {
        return 0.0;
    }
    // Table index of X_S (the empty mixture, which is not a factor).
    let mut idx = scope
        .iter()
        .rev()
        .fold(0usize, |acc, &v| acc * q + current(v) as usize);
    let mut p = 1.0;
    for m in 1u32..(1 << scope.len()) {
        let i = m.trailing_zeros() as usize;
        let stride = q.pow(i as u32);
        let (x, s) = (current(scope[i]) as usize, proposed(scope[i]) as usize);
        // Gray code m ^ (m >> 1): bit i switches to σ_i when set.
        if (m ^ (m >> 1)) >> i & 1 == 1 {
            idx = idx - x * stride + s * stride;
        } else {
            idx = idx - s * stride + x * stride;
        }
        p *= table[idx] / max;
        if p == 0.0 {
            return 0.0;
        }
    }
    p
}

/// LocalMetropolis over a weighted local CSP as an engine rule (the
/// remark after Algorithm 2).
///
/// Propose: a uniform spin from `v`'s stream. Resolve: `v` keeps its
/// spin unless every constraint containing it passes; each constraint
/// flips one coin keyed by its index, shared by its whole scope, so all
/// scope members agree on its outcome. Pass probabilities of exactly 0
/// or 1 are decided without a coin, as in
/// [`LocalMetropolisRule`](crate::engine::rules::LocalMetropolisRule),
/// which makes hard CSPs (dominating sets, MIS) coin-free.
///
/// # Example
/// ```
/// use lsl_core::prelude::*;
/// use lsl_graph::generators;
/// use lsl_mrf::csp::Csp;
/// use std::sync::Arc;
///
/// let csp = Csp::dominating_set(Arc::new(generators::cycle(6)));
/// let mut sampler = Sampler::for_csp(&csp)
///     .algorithm(Algorithm::LocalMetropolis)
///     .backend(Backend::Sharded { shards: 2 })
///     .start(vec![1; 6])
///     .seed(4)
///     .build()
///     .unwrap();
/// sampler.run(50);
/// assert!(csp.is_feasible(sampler.state()));
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct CspMetropolisRule;

impl SyncRule<Csp> for CspMetropolisRule {
    type Local = Spin;
    type Scratch = ();

    const STATE_FREE_PROPOSE: bool = true;

    fn name(&self) -> &'static str {
        "LocalMetropolis"
    }

    fn make_scratch(&self, _csp: &Csp) -> Self::Scratch {}

    fn propose<Sv: StateView + ?Sized>(
        &self,
        ctx: &RoundCtx<Csp>,
        _v: VertexId,
        _state: &Sv,
        rng: &mut Xoshiro256pp,
        _scratch: &mut Self::Scratch,
    ) -> Spin {
        (rng.uniform_f64() * ctx.model().q() as f64) as Spin
    }

    fn resolve<Sv: StateView + ?Sized>(
        &self,
        ctx: &RoundCtx<Csp>,
        v: VertexId,
        state: &Sv,
        locals: &[Spin],
        _scratch: &mut Self::Scratch,
    ) -> Spin {
        let csp = ctx.model();
        for &ci in csp.incident(v) {
            let p = constraint_pass_probability(
                &csp.constraints()[ci as usize],
                csp.q(),
                |u| state.spin(u as usize),
                |u| locals[u as usize],
            );
            if p <= 0.0 || (p < 1.0 && ctx.constraint_coin(ci) >= p) {
                return state.spin(v.index());
            }
        }
        locals[v.index()]
    }
}

/// The exact transition kernel of [`CspMetropolisRule`] (what
/// `Sampler::for_csp(..).algorithm(Algorithm::LocalMetropolis)` runs)
/// on a small CSP, by enumerating proposal vectors and constraint-coin
/// patterns.
///
/// # Panics
/// Panics if `q^n > 729` or the CSP has more than 12 constraints.
pub fn csp_local_metropolis_kernel(csp: &Csp) -> Kernel {
    let n = csp.graph().num_vertices();
    let q = csp.q();
    let total = checked_pow(q, n)
        .filter(|&t| t <= 729)
        .expect("state space too large");
    let m = csp.constraints().len();
    assert!(m <= 12, "too many constraints for coin enumeration");
    let proposal_prob = 1.0 / total as f64; // uniform over [q]^n
    let mut maps: Vec<HashMap<usize, f64>> = vec![HashMap::new(); total];
    let mut x_cfg = vec![0 as Spin; n];
    let mut s_cfg = vec![0 as Spin; n];
    for x in 0..total {
        decode_config(x, q, &mut x_cfg);
        let row = &mut maps[x];
        for s in 0..total {
            decode_config(s, q, &mut s_cfg);
            let pass: Vec<f64> = csp
                .constraints()
                .iter()
                .map(|c| {
                    constraint_pass_probability(c, q, |u| x_cfg[u as usize], |u| s_cfg[u as usize])
                })
                .collect();
            let mut stack: Vec<(usize, f64, u32)> = vec![(0, proposal_prob, 0)];
            while let Some((ci, p, fail_mask)) = stack.pop() {
                if ci == m {
                    let mut y = 0usize;
                    let mut stride = 1usize;
                    for v in 0..n {
                        let rejected = csp.constraints().iter().enumerate().any(|(idx, c)| {
                            (fail_mask >> idx) & 1 == 1 && c.scope().contains(&(v as u32))
                        });
                        let spin = if rejected { x_cfg[v] } else { s_cfg[v] };
                        y += spin as usize * stride;
                        stride *= q;
                    }
                    *row.entry(y).or_insert(0.0) += p;
                    continue;
                }
                let pp = pass[ci];
                if pp > 0.0 {
                    stack.push((ci + 1, p * pp, fail_mask));
                }
                if pp < 1.0 {
                    stack.push((ci + 1, p * (1.0 - pp), fail_mask | (1 << ci)));
                }
            }
        }
    }
    let rows = maps
        .into_iter()
        .map(|mrow| {
            let mut row: Vec<(usize, f64)> = mrow.into_iter().filter(|&(_, p)| p > 0.0).collect();
            row.sort_by_key(|&(j, _)| j);
            let sum: f64 = row.iter().map(|&(_, p)| p).sum();
            for (_, p) in &mut row {
                *p /= sum;
            }
            row
        })
        .collect();
    Kernel::new(rows).expect("stochastic kernel")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::{Algorithm, Sampler};
    use lsl_graph::generators;
    use lsl_mrf::models;
    use std::sync::Arc;

    /// Mirror a proper-coloring MRF as an edge-constraint CSP.
    fn coloring_csp(g: lsl_graph::Graph, q: usize) -> Csp {
        let g = Arc::new(g);
        let constraints = g
            .edges()
            .map(|(_, u, v)| {
                Constraint::from_predicate(q, vec![u.0, v.0], |local| local[0] != local[1])
                    .expect("valid")
            })
            .collect();
        Csp::new(g, q, constraints)
    }

    #[test]
    fn binary_constraints_recover_algorithm_2() {
        // On an MRF expressed as binary constraints, the CSP chain's
        // kernel equals the MRF LocalMetropolis kernel entrywise — the
        // 2^2−1 mixtures are exactly the three factors of Algorithm 2.
        let g = generators::path(3);
        let q = 3;
        let csp = coloring_csp(g.clone(), q);
        let mrf = models::proper_coloring(g, q);
        let a = csp_local_metropolis_kernel(&csp);
        let b = crate::kernel::local_metropolis_kernel(&mrf, true);
        assert_eq!(a.num_states(), b.num_states());
        for i in 0..a.num_states() {
            for &(j, p) in a.row(i) {
                assert!((p - b.prob(i, j)).abs() < 1e-12, "P({i},{j})");
            }
        }
    }

    #[test]
    fn ternary_soft_constraint_reversible() {
        // A genuinely multivariate soft factor: the kernel must be
        // reversible w.r.t. the CSP's weighted distribution (Remark
        // after Thm 4.1, extended).
        let g = Arc::new(generators::path(3));
        let c = Constraint::new(
            2,
            vec![0, 1, 2],
            // weight 2 when the three spins are not all equal, else 1.
            vec![1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 1.0],
        )
        .unwrap();
        let csp = Csp::new(g, 2, vec![c]);
        let k = csp_local_metropolis_kernel(&csp);
        // Stationary candidate: normalized weights.
        let sols: Vec<f64> = (0..8)
            .map(|idx| {
                let mut cfg = vec![0 as Spin; 3];
                decode_config(idx, 2, &mut cfg);
                csp.weight(&cfg)
            })
            .collect();
        let z: f64 = sols.iter().sum();
        let pi: Vec<f64> = sols.iter().map(|w| w / z).collect();
        assert!(k.stationarity_residual(&pi) < 1e-12);
        assert!(k.detailed_balance_residual(&pi) < 1e-12);
    }

    #[test]
    fn mixed_arity_reversible() {
        // Unary + binary soft constraints together.
        let g = Arc::new(generators::path(2));
        let unary = Constraint::new(2, vec![0], vec![1.0, 3.0]).unwrap();
        let binary = Constraint::new(2, vec![0, 1], vec![2.0, 1.0, 1.0, 2.0]).unwrap();
        let csp = Csp::new(g, 2, vec![unary, binary]);
        let k = csp_local_metropolis_kernel(&csp);
        let sols: Vec<f64> = (0..4)
            .map(|idx| {
                let mut cfg = vec![0 as Spin; 2];
                decode_config(idx, 2, &mut cfg);
                csp.weight(&cfg)
            })
            .collect();
        let z: f64 = sols.iter().sum();
        let pi: Vec<f64> = sols.iter().map(|w| w / z).collect();
        assert!(k.stationarity_residual(&pi) < 1e-12);
        assert!(k.detailed_balance_residual(&pi) < 1e-12);
    }

    #[test]
    fn hard_constraints_preserve_feasibility() {
        let csp = Csp::maximal_independent_set(Arc::new(generators::cycle(5)));
        let sols = csp.enumerate();
        let mut chain = Sampler::for_csp(&csp)
            .algorithm(Algorithm::LocalMetropolis)
            .start(sols[0].0.clone())
            .seed(5)
            .build()
            .unwrap();
        for _ in 0..200 {
            chain.step();
            assert!(csp.is_feasible(chain.state()));
        }
    }

    #[test]
    fn dominating_set_sampling_converges() {
        use lsl_analysis::EmpiricalDistribution;
        use lsl_mrf::gibbs::encode_config;
        let csp = Arc::new(Csp::dominating_set(Arc::new(generators::path(3))));
        let sols = csp.enumerate();
        let mut emp = EmpiricalDistribution::new();
        let reps = 20_000u64;
        for rep in 0..reps {
            let mut chain = Sampler::for_csp(Arc::clone(&csp))
                .algorithm(Algorithm::LocalMetropolis)
                .start(vec![1, 1, 1])
                .seed(2_000 + rep)
                .build()
                .unwrap();
            chain.run(80);
            emp.record(encode_config(chain.state(), 2));
        }
        for (sol, _) in &sols {
            let f = emp.frequency(encode_config(sol, 2));
            assert!((f - 0.2).abs() < 0.02, "sol {sol:?}: freq {f}");
        }
    }

    #[test]
    fn pass_probability_binary_matches_three_factors() {
        let q = 4;
        let c = Constraint::from_predicate(q, vec![0, 1], |l| l[0] != l[1]).unwrap();
        // current (0, 1), proposals (2, 3): all mixtures proper → pass.
        let pass = |x: [Spin; 2], s: [Spin; 2]| {
            constraint_pass_probability(&c, q, |u| x[u as usize], |u| s[u as usize])
        };
        assert_eq!(pass([0, 1], [2, 3]), 1.0);
        // proposals (1, 3): mixture (σ_u, X_v) = (1, 1) improper → fail.
        assert_eq!(pass([0, 1], [1, 3]), 0.0);
        // proposals (2, 2): σσ mixture improper → fail.
        assert_eq!(pass([0, 1], [2, 2]), 0.0);
    }
}
