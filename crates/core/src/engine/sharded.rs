//! The sharded backend: owner-computes graph shards with boundary
//! exchange.
//!
//! The paper's model of computation is a *network*: each vertex holds
//! its own state, and per-round cost is the communication crossing
//! edges. The other backends simulate that on one flat address space;
//! this module simulates it honestly. The graph is split into `K`
//! shards by an [`lsl_graph::partition::Partition`]; each shard runs on
//! its own worker with a **private state slab** and advances only the
//! vertices it owns. Between rounds, shards exchange exactly the
//! **boundary-vertex states** the cut demands, through double-buffered
//! frontier buffers, and the exchange volume is recorded per round
//! ([`CommStats`]) so experiments can plot communication against the
//! `O(Δ·cut)` the LOCAL model charges for (experiment E14).
//!
//! # The owner-computes contract
//!
//! Shard `s` maintains valid state for its owned vertices plus a
//! distance-1 **halo** (the ghost copies of neighbors owned
//! elsewhere). One round proceeds as:
//!
//! 1. **Propose** (parallel, per shard): locals are computed for the
//!    owned set *and* the halo. Halo proposals are recomputed rather
//!    than communicated — they are pure functions of
//!    `(master, round, vertex)` by the determinism contract, so owner
//!    and subscriber compute bit-identical values. This is why the
//!    backend requires [`SyncRule::STATE_FREE_PROPOSE`] of rules that
//!    propose (asserted at construction; both synchronous chains
//!    qualify, and the single-site rules have no propose phase).
//! 2. **Resolve** (parallel, per shard): each owned vertex combines its
//!    neighborhood's states and locals — all within the slab's valid
//!    region — into its next spin, written to a per-shard next buffer.
//! 3. **Exchange** (the only cross-shard step): every owner copies its
//!    boundary vertices' new states into per-edge-of-the-shard-graph
//!    frontier buffers, and every subscriber drains the buffers into
//!    its halo. One state crossing one shard boundary is one message.
//!
//! Because every random draw of round `r` is already keyed by
//! `(master, r, vertex-or-edge)`, sharded trajectories are
//! **bit-identical** to the sequential backend by construction, for
//! every partition — property-tested across partitioners, algorithms,
//! and schedulers in `tests/sharded.rs`.

use super::{Model, Packing, RoundCtx, StateSlab, SyncRule};
use lsl_graph::partition::Partition;
use lsl_graph::{Graph, VertexId};
use lsl_mrf::{Mrf, Spin};
use std::sync::Arc;

/// The boundary structure a [`Partition`] induces: the directed
/// exchange channels plus, per shard, the halo it subscribes to and
/// the owned frontier it publishes. Built once at construction by both
/// the in-process [`ShardedChain`] and the cross-process cluster layer
/// ([`crate::cluster`]), which must agree on it exactly — the
/// coordinator's communication accounting replays these channels.
pub(crate) struct ExchangePlan {
    /// Directed boundary channels `(owner, subscriber, vertices)`,
    /// vertices ascending, channels in `(owner, subscriber)` order.
    pub(crate) channels: Vec<(usize, usize, Vec<VertexId>)>,
    /// Per-shard halo: vertices owned elsewhere whose state the shard
    /// must mirror (ascending).
    pub(crate) halos: Vec<Vec<VertexId>>,
    /// Per-shard published frontier: owned vertices some other shard's
    /// halo subscribes to (ascending).
    pub(crate) boundary_out: Vec<Vec<VertexId>>,
}

/// Computes the [`ExchangePlan`] of a partition: per-shard distance-1
/// halos and the directed owner→subscriber channels they induce.
pub(crate) fn exchange_plan(g: &Graph, partition: &Partition) -> ExchangePlan {
    let k = partition.num_shards();
    let mut halos = Vec::with_capacity(k);
    let mut plan_map: std::collections::BTreeMap<(usize, usize), Vec<VertexId>> =
        std::collections::BTreeMap::new();
    for s in 0..k {
        let mut halo: Vec<VertexId> = partition
            .members(s)
            .iter()
            .flat_map(|&v| g.neighbors(v))
            .filter(|&u| partition.shard_of(u) != s)
            .collect();
        halo.sort_unstable();
        halo.dedup();
        for &v in &halo {
            plan_map
                .entry((partition.shard_of(v), s))
                .or_default()
                .push(v);
        }
        halos.push(halo);
    }
    let mut boundary_out = vec![Vec::new(); k];
    let channels: Vec<(usize, usize, Vec<VertexId>)> = plan_map
        .into_iter()
        .map(|((owner, subscriber), mut vertices)| {
            vertices.sort_unstable();
            vertices.dedup();
            boundary_out[owner].extend_from_slice(&vertices);
            (owner, subscriber, vertices)
        })
        .collect();
    for frontier in &mut boundary_out {
        frontier.sort_unstable();
        frontier.dedup();
    }
    ExchangePlan {
        channels,
        halos,
        boundary_out,
    }
}

/// One shard's private execution state — the per-shard unit shared by
/// the in-process [`ShardedChain`] and the cross-process cluster
/// workers ([`crate::cluster`]). Both advance the *same* code here,
/// which is what makes distributed trajectories bit-identical to local
/// ones by construction.
pub(crate) struct ShardCore<M: Model, R: SyncRule<M>> {
    /// Vertices this shard owns (ascending).
    pub(crate) owned: Vec<VertexId>,
    /// Owned ∪ halo: the vertices whose slab entries are maintained
    /// (ascending). Proposals are computed over this whole set.
    pub(crate) active: Vec<VertexId>,
    /// Halo vertices (ascending) — what a remote exchange must feed.
    pub(crate) halo: Vec<VertexId>,
    /// Owned frontier vertices (ascending) — what a remote exchange
    /// must publish.
    pub(crate) boundary_out: Vec<VertexId>,
    /// Full-length private state slab, packed at the model's auto
    /// packing (rules read it through
    /// [`StateView`](super::StateView)). Global indexing keeps the
    /// [`SyncRule`] interface unchanged; only `active` entries are
    /// maintained, everything else goes stale after round 0.
    slab: StateSlab,
    /// Next spins of owned vertices (parallel to `owned`) — the private
    /// half of the double buffering.
    next_owned: Vec<Spin>,
    /// Full-length locals slab; valid at `active` after a propose.
    locals: Vec<R::Local>,
    scratch: R::Scratch,
}

impl<M: Model, R: SyncRule<M>> ShardCore<M, R> {
    /// Builds shard `s`'s core from the shared plan and a full start
    /// configuration.
    pub(crate) fn build(
        model: &M,
        rule: &R,
        partition: &Partition,
        plan: &ExchangePlan,
        s: usize,
        state: &[Spin],
        packing: Packing,
    ) -> Self {
        let owned: Vec<VertexId> = partition.members(s).to_vec();
        let halo = plan.halos[s].clone();
        let mut active = owned.clone();
        active.extend_from_slice(&halo);
        active.sort_unstable();
        let next_owned = vec![0; owned.len()];
        ShardCore {
            owned,
            active,
            halo,
            boundary_out: plan.boundary_out[s].clone(),
            slab: StateSlab::from_spins(packing, state),
            next_owned,
            locals: vec![R::Local::default(); state.len()],
            scratch: rule.make_scratch(model),
        }
    }

    /// Phase 1+2 of a synchronous round: propose over owned ∪ halo
    /// (halo proposals recomputed locally — see the module docs), then
    /// resolve the owned vertices into the private next buffer.
    pub(crate) fn propose_and_resolve(&mut self, rule: &R, ctx: &RoundCtx<M>) {
        if R::HAS_PROPOSE {
            for &v in &self.active {
                let mut rng = ctx.propose_rng(v);
                self.locals[v.index()] =
                    rule.propose(ctx, v, &self.slab, rng.raw(), &mut self.scratch);
            }
        }
        for (i, &v) in self.owned.iter().enumerate() {
            self.next_owned[i] = rule.resolve(ctx, v, &self.slab, &self.locals, &mut self.scratch);
        }
    }

    /// Commits the resolved next states into this shard's slab,
    /// mirroring them into `mirror` (the canonical observer-facing
    /// configuration) when one is kept.
    pub(crate) fn commit(&mut self, mirror: Option<&mut [Spin]>) {
        if let Some(mirror) = mirror {
            for (i, &v) in self.owned.iter().enumerate() {
                self.slab.set(v.index(), self.next_owned[i]);
                mirror[v.index()] = self.next_owned[i];
            }
        } else {
            for (i, &v) in self.owned.iter().enumerate() {
                self.slab.set(v.index(), self.next_owned[i]);
            }
        }
    }

    /// Resolves the active vertex of a single-site round (the caller
    /// must own it) and commits it immediately; returns the new spin.
    /// Single-site rules skip the propose phase, so the
    /// (default-valued) locals slab stands in, exactly as in the flat
    /// backends.
    pub(crate) fn resolve_single(&mut self, rule: &R, ctx: &RoundCtx<M>, v: VertexId) -> Spin {
        let spin = rule.resolve(ctx, v, &self.slab, &self.locals, &mut self.scratch);
        self.slab.set(v.index(), spin);
        spin
    }

    /// The slab's value at `v` (valid for `active` vertices).
    pub(crate) fn get(&self, v: VertexId) -> Spin {
        self.slab.get(v.index())
    }

    /// Drains one remotely-owned state into the halo; returns whether
    /// the ghost copy actually changed (the `changed` accounting).
    pub(crate) fn set_remote(&mut self, v: VertexId, spin: Spin) -> bool {
        let changed = self.slab.get(v.index()) != spin;
        self.slab.set(v.index(), spin);
        changed
    }

    /// Reads the slab's values of `vs`, in order (e.g. the published
    /// frontier, for the wire).
    pub(crate) fn spins_of(&self, vs: &[VertexId]) -> Vec<Spin> {
        vs.iter().map(|&v| self.slab.get(v.index())).collect()
    }

    /// Refreshes every maintained slab entry from a full configuration.
    pub(crate) fn refresh(&mut self, state: &[Spin]) {
        for &v in &self.active {
            self.slab.set(v.index(), state[v.index()]);
        }
    }
}

/// One directed boundary channel of the shard graph: `owner` sends the
/// states of `vertices` to `subscriber` every round, staged through
/// `buffer` (the shared half of the double buffering — owners fill it
/// after the barrier, subscribers drain it before the next round).
struct Exchange {
    owner: usize,
    subscriber: usize,
    /// Boundary vertices owned by `owner` that `subscriber`'s halo
    /// needs (ascending, so membership is a binary search).
    vertices: Vec<VertexId>,
    /// Packed like the slabs — what crosses a boundary is the packed
    /// representation, which is what the byte accounting charges for.
    buffer: StateSlab,
}

/// Per-round boundary-communication record of a [`ShardedChain`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundComm {
    /// The round the exchange followed.
    pub round: u64,
    /// Boundary-vertex states that crossed a shard boundary (one
    /// vertex-state to one subscriber = one message).
    pub messages: u64,
    /// Payload bytes at the chain's slab packing:
    /// `ceil(messages × bits_per_spin / 8)` — 1 byte per message for
    /// `q ≤ 256`, 1 *bit* per message for two-spin models.
    pub bytes: u64,
    /// Messages whose state actually differed from the subscriber's
    /// ghost copy — the volume a delta-compressing implementation
    /// would send.
    pub changed: u64,
}

/// Per-round records retained before the history stops growing (the
/// running totals keep counting): bounds memory on long-lived chains
/// at ~2 MiB.
const MAX_ROUND_RECORDS: usize = 1 << 16;

/// Boundary-communication accounting of a [`ShardedChain`]: one
/// [`RoundComm`] per executed round (up to a retention cap) plus
/// running totals over *all* rounds.
#[derive(Clone, Debug, Default)]
pub struct CommStats {
    rounds: Vec<RoundComm>,
    rounds_seen: u64,
    total_messages: u64,
    total_bytes: u64,
    total_changed: u64,
}

impl CommStats {
    /// The per-round records, oldest first. Only the first `2^16`
    /// rounds since the last [`CommStats::clear`] are retained; the
    /// totals keep counting past the cap.
    pub fn per_round(&self) -> &[RoundComm] {
        &self.rounds
    }

    /// Number of rounds accounted for (including any past the
    /// per-round retention cap).
    pub fn rounds_seen(&self) -> u64 {
        self.rounds_seen
    }

    /// Total messages across all accounted rounds.
    pub fn total_messages(&self) -> u64 {
        self.total_messages
    }

    /// Total payload bytes across all accounted rounds.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Total changed-state messages across all accounted rounds (see
    /// [`RoundComm::changed`]).
    pub fn total_changed(&self) -> u64 {
        self.total_changed
    }

    /// Drops the per-round history and totals (and re-arms the
    /// per-round retention cap).
    pub fn clear(&mut self) {
        self.rounds.clear();
        self.rounds_seen = 0;
        self.total_messages = 0;
        self.total_bytes = 0;
        self.total_changed = 0;
    }

    /// Accounts one round. `pub(crate)` so the cluster coordinator can
    /// replay the exact channel accounting of the in-process exchange.
    pub(crate) fn record(&mut self, round: u64, messages: u64, changed: u64, bits_per_spin: u32) {
        let bytes = (messages * u64::from(bits_per_spin)).div_ceil(8);
        if self.rounds.len() < MAX_ROUND_RECORDS {
            self.rounds.push(RoundComm {
                round,
                messages,
                bytes,
                changed,
            });
        }
        self.rounds_seen += 1;
        self.total_messages += messages;
        self.total_bytes += bytes;
        self.total_changed += changed;
    }
}

/// One chain advanced by owner-computes shards with boundary exchange.
///
/// Bit-identical to [`SyncChain`](super::SyncChain) under
/// [`Backend::Sequential`](super::Backend::Sequential) for every
/// partition, by the determinism contract. The facade builds one of
/// these for `.backend(Backend::Sharded { .. })`.
///
/// Like [`SyncChain`](super::SyncChain), the chain *owns* its model as
/// an `Arc<M>` (the MRF constructors take `impl Into<Arc<Mrf>>`,
/// [`ShardedChain::with_model`] any [`Model`]), so it is a
/// `'static`, `Send` handle servable from worker threads. Halos follow
/// the model's interaction graph: on a CSP, the scope-mates.
///
/// # Example
/// ```
/// use lsl_core::engine::sharded::ShardedChain;
/// use lsl_core::engine::rules::LocalMetropolisRule;
/// use lsl_graph::partition::Partition;
/// use lsl_graph::generators;
/// use lsl_mrf::models;
/// use std::sync::Arc;
///
/// let mrf = Arc::new(models::proper_coloring(generators::torus(6, 6), 12));
/// let part = Partition::bfs(mrf.graph(), 4);
/// let mut chain = ShardedChain::new(Arc::clone(&mrf), LocalMetropolisRule::new(), 7, part);
/// chain.run(40);
/// assert!(mrf.is_feasible(chain.state()));
/// assert!(chain.comm().total_messages() > 0);
/// ```
pub struct ShardedChain<R: SyncRule<M>, M: Model = Mrf> {
    model: Arc<M>,
    rule: R,
    partition: Partition,
    shards: Vec<ShardCore<M, R>>,
    plan: Vec<Exchange>,
    /// Canonical observer-facing configuration, refreshed from the
    /// owners' next buffers every round.
    state: Vec<Spin>,
    /// The packing every slab and exchange buffer uses
    /// ([`Packing::auto_for`] the model's `q`).
    packing: Packing,
    comm: CommStats,
    master: u64,
    round: u64,
    last_key: Option<(u64, u64)>,
}

impl<M: Model, R: SyncRule<M>> std::fmt::Debug for ShardedChain<R, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedChain")
            .field("rule", &self.rule.name())
            .field("shards", &self.partition.num_shards())
            .field("n", &self.state.len())
            .field("round", &self.round)
            .finish()
    }
}

impl<R: SyncRule> ShardedChain<R> {
    /// Builds the sharded chain on the deterministic default start.
    ///
    /// # Panics
    /// Panics if the partition does not cover `mrf`'s vertices, or if
    /// the rule has a state-dependent propose phase (see the module
    /// docs for the owner-computes contract).
    pub fn new(mrf: impl Into<Arc<Mrf>>, rule: R, master: u64, partition: Partition) -> Self {
        let mrf = mrf.into();
        let start = crate::single_site::default_start(&mrf);
        Self::with_model(mrf, rule, master, start, partition)
    }
}

impl<M: Model, R: SyncRule<M>> ShardedChain<R, M> {
    /// Builds the sharded chain on any [`Model`] from an explicit
    /// start (what the facade builds for every model).
    ///
    /// # Panics
    /// As [`ShardedChain::new`], plus if the configuration has the
    /// wrong length.
    pub fn with_model(
        model: Arc<M>,
        rule: R,
        master: u64,
        state: Vec<Spin>,
        partition: Partition,
    ) -> Self {
        let n = model.num_vertices();
        assert_eq!(state.len(), n, "state length must be n");
        assert_eq!(
            partition.len(),
            n,
            "partition covers {} vertices, model has {n}",
            partition.len()
        );
        assert!(
            !R::HAS_PROPOSE || R::STATE_FREE_PROPOSE,
            "the sharded backend recomputes halo proposals locally, which \
             requires state-free proposals (SyncRule::STATE_FREE_PROPOSE)"
        );
        let g = model.interaction_graph();
        let k = partition.num_shards();
        let packing = Packing::auto_for(model.q());

        // The shared plan: per-shard halos, and the boundary channels
        // they induce (the cluster layer rebuilds the same plan).
        let ep = exchange_plan(g, &partition);
        let shards = (0..k)
            .map(|s| ShardCore::build(&*model, &rule, &partition, &ep, s, &state, packing))
            .collect();
        let plan = ep
            .channels
            .into_iter()
            .map(|(owner, subscriber, vertices)| {
                let buffer = StateSlab::new(packing, vertices.len());
                Exchange {
                    owner,
                    subscriber,
                    vertices,
                    buffer,
                }
            })
            .collect();
        ShardedChain {
            model,
            rule,
            partition,
            shards,
            plan,
            state,
            packing,
            comm: CommStats::default(),
            master,
            round: 0,
            last_key: None,
        }
    }

    /// The model being sampled.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The vertex-step rule.
    pub fn rule(&self) -> &R {
        &self.rule
    }

    /// The partition the shards follow.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Number of shards `K`.
    pub fn num_shards(&self) -> usize {
        self.partition.num_shards()
    }

    /// The packing of every shard slab and exchange buffer.
    pub fn packing(&self) -> Packing {
        self.packing
    }

    /// The current configuration.
    pub fn state(&self) -> &[Spin] {
        &self.state
    }

    /// Overwrites the current configuration (every shard's slab is
    /// refreshed in its maintained region).
    ///
    /// # Panics
    /// Panics if the length is wrong.
    pub fn set_state(&mut self, state: &[Spin]) {
        assert_eq!(state.len(), self.state.len());
        self.state.copy_from_slice(state);
        for w in &mut self.shards {
            w.refresh(state);
        }
    }

    /// The number of rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The `(master, round)` pair of the most recent round, if any.
    pub fn last_round_key(&self) -> Option<(u64, u64)> {
        self.last_key
    }

    /// The boundary-communication record so far.
    pub fn comm(&self) -> &CommStats {
        &self.comm
    }

    /// Clears the boundary-communication record (e.g. after burn-in).
    pub fn reset_comm(&mut self) {
        self.comm.clear();
    }

    /// Advances one round using this chain's own master seed.
    pub fn step(&mut self) {
        self.step_keyed(self.master);
    }

    /// Advances one round keyed by an externally supplied master seed
    /// (the sharded counterpart of
    /// [`SyncChain::step_keyed`](super::SyncChain::step_keyed)).
    pub fn step_keyed(&mut self, master: u64) {
        // A cheap handle clone keeps `ctx` independent of `self`, so the
        // `&mut self` round bodies below can borrow freely.
        let model = Arc::clone(&self.model);
        let ctx = RoundCtx::new(&*model, master, self.round);
        if let Some(v) = self.rule.active_vertex(&ctx) {
            self.single_site_round(&ctx, v);
        } else {
            self.synchronous_round(&ctx);
        }
        self.last_key = Some((master, self.round));
        self.round += 1;
    }

    /// Advances `t` rounds.
    pub fn run(&mut self, t: usize) {
        for _ in 0..t {
            self.step();
        }
    }

    /// A single-site round: only the owner of the active vertex works,
    /// and the exchange ships that one state to subscribing halos.
    fn single_site_round(&mut self, ctx: &RoundCtx<M>, v: VertexId) {
        let s = self.partition.shard_of(v);
        let spin = self.shards[s].resolve_single(&self.rule, ctx, v);
        self.state[v.index()] = spin;
        let (mut messages, mut changed) = (0u64, 0u64);
        for ex in &self.plan {
            if ex.owner != s || ex.vertices.binary_search(&v).is_err() {
                continue;
            }
            messages += 1;
            changed += u64::from(self.shards[ex.subscriber].set_remote(v, spin));
        }
        self.comm
            .record(self.round, messages, changed, self.packing.bits_per_spin());
    }

    /// A synchronous round: per-shard propose + resolve in parallel,
    /// then commit and boundary exchange.
    fn synchronous_round(&mut self, ctx: &RoundCtx<M>) {
        let rule = &self.rule;
        // Phase 1+2: every shard proposes over owned ∪ halo and
        // resolves its owned vertices, all within its private slab.
        if self.shards.len() == 1 {
            self.shards[0].propose_and_resolve(rule, ctx);
        } else {
            std::thread::scope(|scope| {
                for w in self.shards.iter_mut() {
                    scope.spawn(move || w.propose_and_resolve(rule, ctx));
                }
            });
        }

        // Commit: owners publish their next states (private half of the
        // double buffer) into their own slab and the canonical mirror.
        let state = &mut self.state;
        for w in &mut self.shards {
            w.commit(Some(&mut state[..]));
        }

        // Exchange, stage 1: owners fill the packed frontier buffers.
        for ex in &mut self.plan {
            let owner = &self.shards[ex.owner];
            for (i, &v) in ex.vertices.iter().enumerate() {
                ex.buffer.set(i, owner.get(v));
            }
        }
        // Exchange, stage 2: subscribers drain them into their halos.
        let (mut messages, mut changed) = (0u64, 0u64);
        for ex in &self.plan {
            let sub = &mut self.shards[ex.subscriber];
            for (i, &v) in ex.vertices.iter().enumerate() {
                let spin = ex.buffer.get(i);
                messages += 1;
                changed += u64::from(sub.set_remote(v, spin));
            }
        }
        self.comm
            .record(self.round, messages, changed, self.packing.bits_per_spin());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::rules::{GlauberRule, LocalMetropolisRule, LubyGlauberRule};
    use crate::engine::SyncChain;
    use lsl_graph::generators;
    use lsl_mrf::models;

    #[test]
    fn sharded_matches_sequential_trajectory() {
        let mrf = models::proper_coloring(generators::torus(5, 5), 10);
        let part = Partition::contiguous(mrf.graph(), 4);
        let mut seq = SyncChain::new(&mrf, LocalMetropolisRule::new(), 42);
        let mut sharded = ShardedChain::new(&mrf, LocalMetropolisRule::new(), 42, part);
        for r in 0..30 {
            seq.step();
            sharded.step();
            assert_eq!(seq.state(), sharded.state(), "diverged at round {r}");
        }
    }

    #[test]
    fn single_shard_sends_nothing() {
        let mrf = models::proper_coloring(generators::torus(4, 4), 9);
        let part = Partition::contiguous(mrf.graph(), 1);
        let mut chain = ShardedChain::new(&mrf, LocalMetropolisRule::new(), 7, part);
        chain.run(10);
        assert_eq!(chain.comm().total_messages(), 0);
        assert_eq!(chain.comm().per_round().len(), 10);
    }

    #[test]
    fn synchronous_round_messages_are_bounded_by_twice_the_cut() {
        // One message per (boundary vertex, subscriber) pair; each cut
        // edge induces at most two such pairs.
        let mrf = models::proper_coloring(generators::torus(6, 6), 12);
        for k in [2, 3, 4] {
            let part = Partition::bfs(mrf.graph(), k);
            let cut = part.stats(mrf.graph()).cut_size as u64;
            let mut chain = ShardedChain::new(&mrf, LubyGlauberRule::luby(), 3, part);
            chain.run(5);
            // q = 12 packs into byte lanes: one byte per message.
            assert_eq!(chain.packing(), Packing::Byte);
            for rc in chain.comm().per_round() {
                assert!(rc.messages > 0, "a cut partition must communicate");
                assert!(rc.messages <= 2 * cut, "{} > 2*{cut}", rc.messages);
                assert_eq!(rc.bytes, rc.messages);
                assert!(rc.changed <= rc.messages);
            }
        }
    }

    #[test]
    fn two_spin_models_exchange_bits() {
        // Ising spins pack into bit lanes: a round's payload is
        // ceil(messages / 8) bytes, not 4 bytes per message.
        let mrf = models::ising(generators::torus(6, 6), 0.3);
        let part = Partition::bfs(mrf.graph(), 3);
        let mut chain = ShardedChain::new(&mrf, LocalMetropolisRule::new(), 9, part);
        assert_eq!(chain.packing(), Packing::Bit);
        chain.run(5);
        for rc in chain.comm().per_round() {
            assert!(rc.messages > 0);
            assert_eq!(rc.bytes, rc.messages.div_ceil(8));
        }
    }

    #[test]
    fn single_site_rounds_ship_at_most_the_active_vertex() {
        let mrf = models::proper_coloring(generators::cycle(12), 5);
        let part = Partition::contiguous(mrf.graph(), 3);
        let mut chain = ShardedChain::new(&mrf, GlauberRule, 11, part);
        let mut seq = SyncChain::new(&mrf, GlauberRule, 11);
        for _ in 0..200 {
            chain.step();
            seq.step();
            assert_eq!(chain.state(), seq.state());
        }
        let max_degree = mrf.graph().max_degree() as u64;
        for rc in chain.comm().per_round() {
            assert!(rc.messages <= max_degree, "one vertex to ≤ Δ shards");
        }
    }

    #[test]
    fn set_state_reaches_every_slab() {
        let mrf = models::proper_coloring(generators::torus(4, 4), 9);
        let part = Partition::bfs(mrf.graph(), 4);
        let mut a = ShardedChain::new(&mrf, LocalMetropolisRule::new(), 5, part.clone());
        let mut b = SyncChain::new(&mrf, LocalMetropolisRule::new(), 5);
        a.run(7);
        b.run(7);
        let fresh = crate::single_site::default_start(&mrf);
        a.set_state(&fresh);
        b.set_state(&fresh);
        for _ in 0..10 {
            a.step();
            b.step();
            assert_eq!(a.state(), b.state());
        }
    }

    #[test]
    fn reset_comm_clears_history() {
        let mrf = models::proper_coloring(generators::torus(4, 4), 9);
        let part = Partition::contiguous(mrf.graph(), 2);
        let mut chain = ShardedChain::new(&mrf, LocalMetropolisRule::new(), 1, part);
        chain.run(5);
        assert!(chain.comm().total_messages() > 0);
        chain.reset_comm();
        assert_eq!(chain.comm().total_messages(), 0);
        assert!(chain.comm().per_round().is_empty());
    }
}
