//! The sharded backend's determinism contract: owner-computes shards
//! with boundary exchange are **bit-identical** to the sequential
//! backend — for every partitioner, every algorithm, every scheduler,
//! on torus, cycle, and G(n,p) instances — and the communication
//! accounting obeys the cut bound.

mod common;

use lsl_core::engine::rules::{GlauberRule, LocalMetropolisRule, LubyGlauberRule, MetropolisRule};
use lsl_core::engine::sharded::ShardedChain;
use lsl_core::engine::{SyncChain, SyncRule};
use lsl_core::prelude::*;
use lsl_core::schedule::{BernoulliFilterScheduler, ChromaticScheduler, SingletonScheduler};
use lsl_graph::partition::{Partition, Partitioner};
use lsl_graph::Graph;
use lsl_mrf::{models, Mrf};
use proptest::prelude::*;
use rand::rngs::StdRng;
// Redundant under the offline proptest stand-in (its macro injects the
// trait), but required if the stand-ins are swapped for the real crates.
#[allow(unused_imports)]
use rand::SeedableRng;

/// Strategy: one of the three instance families the contract is stated
/// over — torus, cycle, and G(n,p).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (0u8..3, 0u64..1_000).prop_map(|(family, seed)| match family {
        0 => lsl_graph::generators::torus(3 + (seed % 4) as usize, 3 + (seed / 4 % 4) as usize),
        1 => lsl_graph::generators::cycle(5 + (seed % 20) as usize),
        _ => {
            let mut rng = StdRng::seed_from_u64(seed);
            lsl_graph::generators::gnp(8 + (seed % 17) as usize, 0.25, &mut rng)
        }
    })
}

/// Runs `rule` under the sequential backend and under every partitioner
/// at `k` shards, asserting the trajectories never diverge.
fn assert_sharded_identity<R: SyncRule + Clone>(
    mrf: &Mrf,
    rule: R,
    seed: u64,
    k: usize,
    rounds: usize,
) {
    let mut seq = SyncChain::new(mrf, rule.clone(), seed);
    let mut sharded: Vec<(&'static str, ShardedChain<R>)> = Partitioner::ALL
        .iter()
        .map(|p| {
            let part = p.partition(mrf.graph(), k);
            (p.name(), ShardedChain::new(mrf, rule.clone(), seed, part))
        })
        .collect();
    for r in 0..rounds {
        seq.step();
        for (name, chain) in sharded.iter_mut() {
            chain.step();
            assert_eq!(
                seq.state(),
                chain.state(),
                "{name} partition diverged at round {r} with {k} shards"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn local_metropolis_sharded_matches_sequential(
        g in arb_graph(), seed in 0u64..1_000, k in 1usize..6
    ) {
        let q = 2 * g.max_degree().max(1) + 2;
        let mrf = models::proper_coloring(g, q);
        assert_sharded_identity(&mrf, LocalMetropolisRule::new(), seed, k, 12);
    }

    #[test]
    fn local_metropolis_soft_model_sharded_matches_sequential(
        g in arb_graph(), seed in 0u64..1_000, k in 1usize..6
    ) {
        // Ising exercises the fractional-coin path (coins actually drawn).
        let mrf = models::ising(g, 0.4);
        assert_sharded_identity(&mrf, LocalMetropolisRule::new(), seed, k, 12);
    }

    #[test]
    fn luby_glauber_sharded_matches_sequential_under_every_scheduler(
        g in arb_graph(), seed in 0u64..1_000, k in 1usize..6
    ) {
        let q = 2 * g.max_degree().max(1) + 2;
        let mrf = models::proper_coloring(g, q);
        assert_sharded_identity(&mrf, LubyGlauberRule::luby(), seed, k, 10);
        assert_sharded_identity(
            &mrf,
            LubyGlauberRule::with_scheduler(BernoulliFilterScheduler::new(0.3)),
            seed, k, 10,
        );
        assert_sharded_identity(
            &mrf,
            LubyGlauberRule::with_scheduler(SingletonScheduler),
            seed, k, 10,
        );
        assert_sharded_identity(
            &mrf,
            LubyGlauberRule::with_scheduler(ChromaticScheduler::greedy(mrf.graph())),
            seed, k, 10,
        );
    }

    #[test]
    fn single_site_rules_sharded_match_sequential(
        g in arb_graph(), seed in 0u64..1_000, k in 1usize..6
    ) {
        let q = 2 * g.max_degree().max(1) + 2;
        let mrf = models::proper_coloring(g, q);
        assert_sharded_identity(&mrf, GlauberRule, seed, k, 40);
        assert_sharded_identity(&mrf, MetropolisRule, seed, k, 40);
    }

    #[test]
    fn facade_sharded_backend_matches_sequential(
        g in arb_graph(), seed in 0u64..1_000, shards in 1usize..6
    ) {
        let q = 2 * g.max_degree().max(1) + 2;
        let mrf = models::proper_coloring(g, q);
        for alg in [
            Algorithm::LocalMetropolis,
            Algorithm::LubyGlauber,
            Algorithm::Glauber,
        ] {
            let build = |backend| {
                let mut s = Sampler::for_mrf(&mrf)
                    .algorithm(alg)
                    .backend(backend)
                    .seed(seed)
                    .build()
                    .unwrap();
                s.run(15);
                s.state().to_vec()
            };
            prop_assert_eq!(
                build(Backend::Sequential),
                build(Backend::Sharded { shards }),
                "facade sharded diverged: {:?}",
                alg
            );
        }
    }

    #[test]
    fn per_round_messages_respect_the_cut_bound(
        g in arb_graph(), seed in 0u64..1_000, k in 2usize..6
    ) {
        let q = 2 * g.max_degree().max(1) + 2;
        let mrf = models::proper_coloring(g, q);
        for p in Partitioner::ALL {
            let part = p.partition(mrf.graph(), k);
            let cut = part.stats(mrf.graph()).cut_size as u64;
            let mut chain = ShardedChain::new(&mrf, LocalMetropolisRule::new(), seed, part);
            chain.run(6);
            for rc in chain.comm().per_round() {
                // One message per (boundary vertex, subscriber) pair,
                // and each cut edge induces at most two such pairs.
                prop_assert!(rc.messages <= 2 * cut, "{} > 2*{cut}", rc.messages);
                prop_assert!(rc.changed <= rc.messages);
                // Payload is charged at the packed width.
                let bits = u64::from(chain.packing().bits_per_spin());
                prop_assert_eq!(rc.bytes, (rc.messages * bits).div_ceil(8));
            }
        }
    }
}

/// The sharded backend composes with the rest of the facade surface:
/// burn-in, explicit starts, and `step_keyed` grand couplings.
#[test]
fn facade_sharded_composes_with_builder_options() {
    let mrf = models::proper_coloring(lsl_graph::generators::torus(5, 5), 12);
    let start = lsl_core::single_site::default_start(&mrf);
    let build = |backend| {
        Sampler::for_mrf(&mrf)
            .algorithm(Algorithm::LocalMetropolis)
            .backend(backend)
            .start(start.clone())
            .seed(9)
            .burn_in(20)
            .build()
            .unwrap()
    };
    let mut a = build(Backend::Sequential);
    let mut b = build(Backend::Sharded { shards: 4 });
    assert_eq!(a.round(), 20);
    assert_eq!(b.round(), 20);
    assert_eq!(a.state(), b.state());
    // Externally keyed rounds stay coupled too.
    let mut keys = Xoshiro256pp::seed_from(31);
    for _ in 0..10 {
        let k = keys.next();
        a.step_keyed(k);
        b.step_keyed(k);
        assert_eq!(a.state(), b.state());
    }
}

/// The facade surfaces the sharded executor's communication record:
/// `Some` (growing, resettable) on `Backend::Sharded`, `None` on the
/// flat backends.
#[test]
fn facade_exposes_comm_stats_on_sharded_only() {
    let mrf = models::proper_coloring(lsl_graph::generators::torus(5, 5), 12);
    let mut sharded = Sampler::for_mrf(&mrf)
        .backend(Backend::Sharded { shards: 4 })
        .seed(2)
        .build()
        .unwrap();
    sharded.run(8);
    let comm = sharded.comm_stats().expect("sharded has accounting");
    assert_eq!(comm.rounds_seen(), 8);
    assert!(comm.total_messages() > 0);
    assert!(comm.total_changed() <= comm.total_messages());
    sharded.reset_comm_stats();
    assert_eq!(sharded.comm_stats().unwrap().rounds_seen(), 0);

    let mut flat = Sampler::for_mrf(&mrf).seed(2).build().unwrap();
    flat.run(8);
    assert!(flat.comm_stats().is_none(), "flat backends cross no cut");
    flat.reset_comm_stats(); // documented no-op
}

/// `Backend::Sharded { shards: 0 }` resolves to the available cores and
/// still builds (clamped to the vertex count for small models).
#[test]
fn facade_sharded_auto_shard_count_builds() {
    let mrf = models::proper_coloring(lsl_graph::generators::cycle(6), 4);
    let mut s = Sampler::for_mrf(&mrf)
        .backend(Backend::Sharded { shards: 0 })
        .seed(3)
        .build()
        .unwrap();
    s.run(25);
    assert!(mrf.is_feasible(s.state()));
}

/// A partition with more shards than boundary structure (every vertex
/// its own shard) is the fully-distributed extreme: one slab per
/// vertex, all neighbors ghosts — still bit-identical.
#[test]
fn one_shard_per_vertex_matches_sequential() {
    let mrf = models::proper_coloring(lsl_graph::generators::cycle(8), 5);
    let part = Partition::contiguous(mrf.graph(), 8);
    let mut seq = SyncChain::new(&mrf, LubyGlauberRule::luby(), 6);
    let mut sharded = ShardedChain::new(&mrf, LubyGlauberRule::luby(), 6, part);
    for _ in 0..20 {
        seq.step();
        sharded.step();
        assert_eq!(seq.state(), sharded.state());
    }
    // Every edge is cut: per synchronous round the exchange ships both
    // endpoints of every edge exactly once.
    let m = mrf.graph().num_edges() as u64;
    for rc in sharded.comm().per_round() {
        assert_eq!(rc.messages, 2 * m);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// CSP chains run on every backend: sequential, parallel, sharded:k
    /// and in-process cluster:k trajectories are bit-identical, for both
    /// CSP algorithms and LubyGlauber under every scheduler, and the
    /// sharded runs account their boundary exchange.
    #[test]
    fn csp_chains_bit_identical_across_backends(
        instance in common::arb_csp(), seed in 0u64..1_000, k in 2usize..5
    ) {
        let (csp, start) = instance;
        for (alg, sched) in [
            (Algorithm::LocalMetropolis, None),
            (Algorithm::LubyGlauber, Some(Sched::Luby)),
            (Algorithm::LubyGlauber, Some(Sched::Singleton)),
            (Algorithm::LubyGlauber, Some(Sched::Bernoulli(0.3))),
            (Algorithm::LubyGlauber, Some(Sched::Chromatic)),
        ] {
            let run = |backend| {
                let mut b = Sampler::for_csp(std::sync::Arc::clone(&csp))
                    .algorithm(alg)
                    .backend(backend)
                    .start(start.clone())
                    .seed(seed);
                if let Some(s) = sched {
                    b = b.scheduler(s);
                }
                let mut s = b.build().unwrap();
                s.run(15);
                (s.state().to_vec(), s.comm_stats().map(|c| c.rounds_seen()))
            };
            let (seq, none) = run(Backend::Sequential);
            prop_assert!(csp.is_feasible(&seq), "{:?} {:?} left the solutions", alg, sched);
            prop_assert_eq!(none, None);
            prop_assert_eq!(&run(Backend::Parallel { threads: k }).0, &seq);
            for backend in [Backend::Sharded { shards: k }, Backend::Cluster { shards: k }] {
                let (state, comm) = run(backend);
                prop_assert_eq!(&state, &seq, "{:?} {:?} on {}", alg, sched, backend);
                prop_assert_eq!(comm, Some(15));
            }
        }
    }
}

/// The spec layer reaches the same CSP backends: `sharded:3` and
/// in-process `cluster:2` lines report the sequential fingerprint plus
/// a `CommSummary`, and a replica `sample` job runs.
#[test]
fn csp_spec_lines_run_on_every_backend() {
    use lsl_core::spec::{JobOutput, JobSpec};
    let run = |line: &str| line.parse::<JobSpec>().unwrap().run().unwrap().output;
    for base in [
        "graph=torus:8x8 model=dominating-set seed=4 job=run:rounds=60",
        "graph=torus:8x8 model=dominating-set algorithm=local-metropolis seed=4 job=run:rounds=60",
        "graph=cycle:9 model=mis seed=2",
    ] {
        let JobOutput::Run {
            fingerprint,
            comm: None,
            ..
        } = run(base)
        else {
            panic!("{base}: sequential runs carry no comm summary");
        };
        for backend in ["parallel:2", "sharded:3", "cluster:2"] {
            let JobOutput::Run {
                fingerprint: got,
                comm,
                feasible,
                ..
            } = run(&format!("{base} backend={backend}"))
            else {
                panic!("{base} backend={backend}: not a run");
            };
            assert!(feasible);
            assert_eq!(got, fingerprint, "{base} backend={backend}");
            assert_eq!(
                comm.is_some(),
                backend != "parallel:2",
                "{base} backend={backend}"
            );
        }
    }
    let JobOutput::Sample { states, .. } =
        run("graph=path:6 model=dominating-set job=sample:rounds=20,count=3")
    else {
        panic!("not a sample");
    };
    assert_eq!(states.len(), 3);
}
