//! Bit-identity of the lane-batched hot path with the scalar oracle.
//!
//! The tentpole claim of the hot-path engine is that packing, block
//! RNG, and kernel restructuring are *implementation* choices: for
//! every model, seed, packing, and RNG mode, the kernel trajectory is
//! bit-for-bit the scalar phases' trajectory. These properties pin that
//! across algorithms (LocalMetropolis with and without rule 3,
//! LubyGlauber under two schedulers), hard and soft constraints (edge
//! coins deterministic vs fractional), and graph families (torus,
//! cycle, G(n, p)); and on `q > 2`, the threshold proposals, the
//! allow-byte edge pass and the masked heat bath against the model
//! shapes that stress them (several vertex kinds, irregular degrees,
//! the rule-3 ablation) and the shapes that must keep the f64 arms
//! (soft Potts, `q` past the 64-spin masks).

use lsl_core::engine::rules::{LocalMetropolisRule, LubyGlauberRule};
use lsl_core::engine::{HotPath, Packing, SyncChain, SyncRule};
use lsl_core::schedule::BernoulliFilterScheduler;
use lsl_graph::generators;
use lsl_mrf::models;
use proptest::prelude::*;

/// Every lane variant a `q`-spin model admits: the packing × RNG-mode
/// matrix, with bit lanes included only when they can hold the spins.
fn lane_variants(q: usize) -> Vec<HotPath> {
    let mut packings = vec![None, Some(Packing::Wide), Some(Packing::Byte)];
    if q == 2 {
        packings.push(Some(Packing::Bit));
    }
    packings
        .into_iter()
        .flat_map(|packing| {
            [true, false]
                .into_iter()
                .map(move |block_rng| HotPath::Lanes { packing, block_rng })
        })
        .collect()
}

/// Steps a scalar-oracle chain and one kernel chain per lane variant in
/// lockstep, comparing full states every round.
fn assert_hotpaths_agree<R: SyncRule + Clone>(mrf: &lsl_mrf::Mrf, rule: R, master: u64) {
    let mut oracle = SyncChain::new(mrf, rule.clone(), master);
    oracle.set_hotpath(HotPath::Scalar);
    assert!(
        !oracle.kernel_engaged(),
        "the scalar oracle must run the scalar phases"
    );
    let mut lanes: Vec<(HotPath, SyncChain<R>)> = lane_variants(mrf.q())
        .into_iter()
        .map(|hp| {
            let mut chain = SyncChain::new(mrf, rule.clone(), master);
            chain.set_hotpath(hp);
            assert!(chain.kernel_engaged(), "hotpath={hp} built no kernel");
            (hp, chain)
        })
        .collect();
    for round in 0..8 {
        oracle.step();
        for (hp, chain) in &mut lanes {
            chain.step();
            assert_eq!(
                oracle.state(),
                chain.state(),
                "hotpath={hp} diverged from the scalar oracle at round {round}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn local_metropolis_lanes_match_scalar_on_torus_coloring(
        master in 0u64..10_000, rows in 3usize..6, cols in 3usize..6
    ) {
        // Hard constraints: every edge coin is deterministic.
        let mrf = models::proper_coloring(generators::torus(rows, cols), 9);
        assert_hotpaths_agree(&mrf, LocalMetropolisRule::new(), master);
    }

    #[test]
    fn local_metropolis_lanes_match_scalar_on_cycle_ising(
        master in 0u64..10_000, len in 4usize..24, beta in 0.2f64..2.0
    ) {
        // q = 2 and soft constraints: the bit-packed slabs, the
        // interleaved edge pass, integer coin thresholds, and the
        // vectorized proposal ladder all engage here.
        let mrf = models::ising(generators::cycle(len), beta);
        assert_hotpaths_agree(&mrf, LocalMetropolisRule::new(), master);
    }

    #[test]
    fn local_metropolis_lanes_match_scalar_on_gnp_hardcore(
        master in 0u64..10_000, seed in 0u64..500, lambda in 0.3f64..3.0
    ) {
        // q = 2 and hard constraints (the coin-free bit path), with and
        // without the rule-3 factor, on irregular graphs.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = generators::gnp(12, 0.3, &mut rng);
        let mrf = models::hardcore(g, lambda);
        assert_hotpaths_agree(&mrf, LocalMetropolisRule::new(), master);
        assert_hotpaths_agree(&mrf, LocalMetropolisRule::without_rule3(), master);
    }

    #[test]
    fn luby_glauber_lanes_match_scalar(
        master in 0u64..10_000, rows in 3usize..6, cols in 3usize..6
    ) {
        let mrf = models::proper_coloring(generators::torus(rows, cols), 9);
        assert_hotpaths_agree(&mrf, LubyGlauberRule::luby(), master);
    }

    #[test]
    fn list_coloring_lanes_match_scalar(
        master in 0u64..10_000, rows in 3usize..6, cols in 3usize..6, seed in 0u64..500
    ) {
        // Several vertex kinds: one threshold row and one vertex mask
        // per list, with single-color lists among them.
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = generators::torus(rows, cols);
        let lists: Vec<Vec<u32>> = (0..g.num_vertices())
            .map(|_| {
                let size = rng.random_range(1..=6usize);
                let mut list: Vec<u32> = (0..12).collect();
                for i in 0..size {
                    let j = rng.random_range(i..12);
                    list.swap(i, j);
                }
                list.truncate(size);
                list
            })
            .collect();
        let mrf = models::list_coloring(g, 12, &lists);
        assert_hotpaths_agree(&mrf, LocalMetropolisRule::new(), master);
        assert_hotpaths_agree(&mrf, LubyGlauberRule::luby(), master);
    }

    #[test]
    fn q16_coloring_lanes_match_scalar_on_gnp(
        master in 0u64..10_000, seed in 0u64..500, p in 0.02f64..0.3
    ) {
        // Irregular degrees and (at small p) isolated vertices, whose
        // proposals are accepted vacuously.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mrf = models::proper_coloring(generators::gnp(30, p, &mut rng), 16);
        assert_hotpaths_agree(&mrf, LocalMetropolisRule::new(), master);
        assert_hotpaths_agree(&mrf, LocalMetropolisRule::without_rule3(), master);
        assert_hotpaths_agree(&mrf, LubyGlauberRule::luby(), master);
    }

    #[test]
    fn soft_potts_lanes_match_scalar(
        master in 0u64..10_000, q in 3usize..9, beta in 0.2f64..3.0, len in 4usize..16
    ) {
        // Soft q > 2: fractional coins on the f64 edge pass, and the
        // weights heat bath (no permutation scheme).
        let mrf = models::potts(generators::cycle(len), q, beta);
        assert_hotpaths_agree(&mrf, LocalMetropolisRule::new(), master);
        assert_hotpaths_agree(&mrf, LubyGlauberRule::luby(), master);
    }

    #[test]
    fn q70_coloring_lanes_match_scalar(master in 0u64..10_000, rows in 3usize..5) {
        // Byte lanes, but past the 64-spin masks: LubyGlauber takes the
        // weights path of the permutation scheme.
        let mrf = models::proper_coloring(generators::torus(rows, 4), 70);
        assert_hotpaths_agree(&mrf, LocalMetropolisRule::new(), master);
        assert_hotpaths_agree(&mrf, LubyGlauberRule::luby(), master);
    }

    #[test]
    fn bernoulli_scheduled_lanes_match_scalar(
        master in 0u64..10_000, len in 4usize..20, p in 0.1f64..0.9
    ) {
        // A scheduler whose marks draw a variable number of times per
        // stream — the seed-block (not head-block) kernel path.
        let mrf = models::proper_coloring(generators::cycle(len), 5);
        let rule = LubyGlauberRule::with_scheduler(BernoulliFilterScheduler::new(p));
        assert_hotpaths_agree(&mrf, rule, master);
    }
}
