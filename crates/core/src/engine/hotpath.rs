//! Lane-batched hot kernels for the synchronous chains.
//!
//! The scalar engine phases ([`super::SyncRule::propose`] /
//! [`super::SyncRule::resolve`]) pay a fixed per-vertex toll: a
//! generator construction per phase per vertex (six SplitMix64 steps
//! each, drawn from or not), an edge-coin stream construction per
//! *endpoint* (each shared coin is evaluated twice), and a normalizing
//! division per filter factor. None of that is the chain — it is
//! plumbing. A [`HotKernel`] removes it by restructuring one round as a
//! few strided passes over packed [`StateSlab`](super::StateSlab)
//! lanes:
//!
//! * **block RNG** — the round's single-draw randomness (proposal
//!   draws, scheduler marks, edge coins) is generated once per phase as
//!   a contiguous block of stream *heads*
//!   ([`lsl_local::rng::fill_stream_heads`]). The per-index streams are
//!   unchanged — each head is still the pure function of
//!   `(master, round, vertex-or-edge)` the determinism contract
//!   demands — so trajectories are provably unchanged, and each edge
//!   coin is computed **once**, not once per endpoint. Multi-draw
//!   consumers keep full streams, rebuilt from a seed block
//!   ([`lsl_local::rng::fill_stream_seeds`]).
//! * **packed lanes** — states and proposals live in `u8` (or bit)
//!   lanes, so the resolve phase's neighborhood gathers touch a quarter
//!   (or a thirty-second) of the cache lines.
//! * **precomputed filter tables** — the LocalMetropolis factors
//!   `Ã_e(a, b)` are tabled per edge *kind* at construction (the same
//!   `get / max` division, done `q²` times instead of `3·2m` times per
//!   round).
//! * **threshold proposals** (`ProposalTable`) — the proposal sampler
//!   [`VertexActivity::sample`] maps its draw's 53-bit head `k` through
//!   a subtraction ladder `fl(u·total)`, `fl(t − w_c)`, … whose every
//!   rung is monotone in `k` (floating-point rounding is monotone), so
//!   each rung goes negative on a prefix `k < T_c` of heads, and the
//!   `T_c` rise with `c`. Tabled once per vertex kind, exactly (seeded
//!   from the cumulative weights, then stepped to the boundary with the
//!   ladder itself), they turn the per-vertex branchy ladder into one
//!   branchless count `#{c : k ≥ T_c}`, runtime-dispatched to the
//!   host's widest vector arm like the block fills.
//! * **allow bytes** — on hard-constraint models every normalized
//!   factor is exactly 0 or 1, so a filter product is positive iff the
//!   AND of three bytes of a `q²`-byte table per edge kind is.
//! * **heat-bath masks** (`HeatBathMasks`) — when the LubyGlauber
//!   heat bath is the permutation walk (`q ≤ 64`), it only asks which
//!   marginal weights are positive: the AND of a vertex-kind mask and
//!   one column mask per (edge kind, neighbour spin) per incident
//!   edge. The walk itself is the [`Resampler`]'s, shared with the
//!   weights path.
//! * **conflict-free strided resolve** — LubyGlauber's scheduler marks
//!   an independent set; only its members build resolve streams (as in
//!   the scalar rule), and the independence makes every write
//!   conflict-free by construction, which is what lets one strided
//!   pass write `next` directly.
//!
//! Every kernel is **bit-identical** to the scalar phases by
//! construction, and property-tested to be (`tests/hotpath_identity.rs`). The
//! scalar path stays compiled and selectable ([`HotPath::Scalar`]) as
//! the regression oracle.

use super::slab::Packing;
use super::{Model, RoundCtx, EDGE_LABEL};
use crate::schedule::VertexScheduler;
use crate::update::Resampler;
use lsl_graph::{EdgeId, VertexId};
use lsl_local::rng::{
    fill_stream_heads, fill_stream_seeds, head_to_f64, SimdArm, Xoshiro256pp, VERTEX_STREAM_LABEL,
};
use lsl_mrf::{EdgeActivity, Mrf, Spin, VertexActivity};
use std::sync::Arc;

/// Which implementation serves a chain's synchronous rounds.
///
/// The default is the lane-batched hot path with auto packing — always
/// bit-identical to [`HotPath::Scalar`], which remains available as the
/// regression oracle (and is what multi-worker backends and single-site
/// rounds run regardless).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HotPath {
    /// The scalar per-vertex phases — the oracle.
    Scalar,
    /// Lane-batched kernels over packed slabs.
    Lanes {
        /// Slab packing; `None` resolves to
        /// [`Packing::auto_for`]`(q)` per model.
        packing: Option<Packing>,
        /// `true`: per-round block fills of stream heads/seeds.
        /// `false`: a generator construction per vertex, as the scalar
        /// path does (the ablation arm of the E17 sweep).
        block_rng: bool,
    },
}

impl Default for HotPath {
    fn default() -> Self {
        HotPath::Lanes {
            packing: None,
            block_rng: true,
        }
    }
}

impl HotPath {
    /// Checks an explicitly requested packing against a model's domain
    /// size (auto packing is always valid).
    ///
    /// # Errors
    /// A message naming the unsupported combination.
    pub fn validate_for(&self, q: usize) -> Result<(), String> {
        match *self {
            HotPath::Lanes {
                packing: Some(p), ..
            } if !p.supports(q) => Err(format!("packing {p} cannot hold q = {q} spins")),
            _ => Ok(()),
        }
    }

    /// The packing a chain on a `q`-spin model would use (`None` for
    /// the scalar path).
    pub fn resolved_packing(&self, q: usize) -> Option<Packing> {
        match *self {
            HotPath::Scalar => None,
            HotPath::Lanes { packing, .. } => Some(packing.unwrap_or_else(|| Packing::auto_for(q))),
        }
    }

    /// Builds `rule`'s kernel under this selection: `None` for
    /// [`HotPath::Scalar`], for rules without a kernel, and for an
    /// (unvalidated) packing that cannot hold the model's spins — the
    /// engine then runs the scalar phases.
    pub fn build_kernel<M: Model, R: super::SyncRule<M>>(
        &self,
        model: &Arc<M>,
        rule: &R,
    ) -> Option<Box<dyn HotKernel<R::Local, M>>> {
        match *self {
            HotPath::Scalar => None,
            HotPath::Lanes { packing, block_rng } => {
                let packing = packing.unwrap_or_else(|| Packing::auto_for(model.q()));
                if !packing.supports(model.q()) {
                    return None;
                }
                rule.hot_kernel(model, packing, block_rng)
            }
        }
    }
}

/// Canonical spec-string form: `scalar` or
/// `lanes:<auto|wide|byte|bit>:<block|pervertex>`; the `FromStr` impl
/// also accepts the segments after `lanes` in any order or omitted.
impl std::fmt::Display for HotPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            HotPath::Scalar => write!(f, "scalar"),
            HotPath::Lanes { packing, block_rng } => {
                match packing {
                    None => write!(f, "lanes:auto")?,
                    Some(p) => write!(f, "lanes:{p}")?,
                }
                write!(f, ":{}", if block_rng { "block" } else { "pervertex" })
            }
        }
    }
}

impl std::str::FromStr for HotPath {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split(':');
        match parts.next() {
            Some("scalar") => match parts.next() {
                None => Ok(HotPath::Scalar),
                Some(extra) => Err(format!("scalar takes no argument, got {extra:?}")),
            },
            Some("lanes") => {
                let (mut packing, mut block_rng) = (None, true);
                for part in parts {
                    match part {
                        "auto" => packing = None,
                        "block" => block_rng = true,
                        "pervertex" => block_rng = false,
                        p => {
                            packing = Some(p.parse::<Packing>().map_err(|_| {
                                format!(
                                    "unknown hot-path option {p:?} \
                                 (expected auto | wide | byte | bit | block | pervertex)"
                                )
                            })?)
                        }
                    }
                }
                Ok(HotPath::Lanes { packing, block_rng })
            }
            _ => Err(format!(
                "unknown hot path {s:?} (expected scalar | lanes[:packing][:block|pervertex])"
            )),
        }
    }
}

/// One rule's lane-batched round implementation.
///
/// `round` must be bit-identical to running the scalar propose +
/// resolve phases of the same rule under the same [`RoundCtx`]: it
/// reads `state`, writes every vertex of `next`, and publishes the
/// propose phase's locals into `locals` (so observers like
/// [`SyncChain::locals`](super::SyncChain::locals) see exactly what the
/// scalar phases would publish).
pub trait HotKernel<L, M: Model = Mrf>: Send {
    /// Executes one synchronous round.
    fn round(&mut self, ctx: &RoundCtx<M>, state: &[Spin], next: &mut [Spin], locals: &mut [L]);
}

/// A generator that serves a precomputed stream head: its first draw is
/// exactly the underlying stream's first draw. Only handed to
/// single-draw consumers (one proposal sample / one mark), which is
/// checked against the scalar path by the bit-identity property tests.
struct OneShotRng(u64);

impl rand::TryRng for OneShotRng {
    type Error = std::convert::Infallible;

    #[inline]
    fn try_next_u32(&mut self) -> Result<u32, Self::Error> {
        Ok((self.0 >> 32) as u32)
    }

    #[inline]
    fn try_next_u64(&mut self) -> Result<u64, Self::Error> {
        Ok(self.0)
    }

    fn try_fill_bytes(&mut self, dst: &mut [u8]) -> Result<(), Self::Error> {
        for chunk in dst.chunks_mut(8) {
            let bytes = self.0.to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Ok(())
    }
}

/// The largest `kinds · q²` whose proposals are tabled as thresholds.
/// Building a kind's table evaluates `O(q)` ladder prefixes of length
/// `O(q)`, and kernels are built per job, so the bound keeps the build
/// to a millisecond or so: one kind up to `q = 512` (all of the byte
/// lane regime), or a list coloring of `2¹⁸/q²` vertices (its palette
/// has an entry per vertex). Past it the kernels run
/// [`VertexActivity::sample`] itself.
const THRESHOLD_BUDGET: usize = 1 << 18;

/// Exact integer thresholds of [`VertexActivity::sample`], per
/// vertex-palette entry.
///
/// The sampler maps its draw's 53-bit head `k` (the draw is
/// `u = k·2⁻⁵³`) through the ladder `t₋₁ = fl(u·total)`,
/// `t_c = fl(t_{c−1} − w_c)` and returns the first `c` with `t_c < 0`,
/// else the last spin of positive weight. Every rung is monotone
/// non-decreasing in `k` (rounding is monotone, and so are `x·total`
/// and `x − w`), so `{k : t_c(k) < 0}` is a prefix `[0, T_c)`; and
/// `t_{c+1} ≤ t_c` (weights are non-negative), so `T_0 ≤ T_1 ≤ …`. The
/// proposal is therefore `#{c : k ≥ T_c}` — one branchless count —
/// with the slack fallback when the count reaches `q`.
struct ProposalTable {
    q: usize,
    /// `q` thresholds per kind; `2⁵³` marks a rung negative at every head.
    thr: Vec<u64>,
    /// `rposition(w > 0)` per kind: the sampler's slack fallback.
    fallback: Vec<Spin>,
}

/// One past the largest 53-bit head.
const HEAD_END: u64 = 1 << 53;

impl ProposalTable {
    /// Tables every entry of `palette`, or `None` past
    /// [`THRESHOLD_BUDGET`].
    fn new(palette: &[VertexActivity]) -> Option<Self> {
        let q = palette.first()?.q();
        if palette.len() * q * q > THRESHOLD_BUDGET {
            return None;
        }
        let mut thr = Vec::with_capacity(palette.len() * q);
        let mut fallback = Vec::with_capacity(palette.len());
        for act in palette {
            let total = act.total();
            // The ladder's rung `c` at head `k`, in the sampler's exact
            // float-op order.
            let rung = |k: u64, c: Spin| {
                let mut t = (k as f64 * (1.0 / HEAD_END as f64)) * total;
                for i in 0..=c {
                    t -= act.get(i);
                }
                t
            };
            let (mut cum, mut prev) = (0.0, 0);
            for c in 0..q as Spin {
                // Seed from the cumulative weight (off by a few ulps of
                // rounding), then step to the exact boundary.
                cum += act.get(c);
                let guess = ((cum / total) * HEAD_END as f64) as u64;
                prev = first_false(|k| rung(k, c) < 0.0, guess.max(prev));
                thr.push(prev);
            }
            let positive = (0..q as Spin).rev().find(|&c| act.get(c) > 0.0);
            fallback.push(positive.expect("a vertex activity has a positive entry"));
        }
        Some(ProposalTable { q, thr, fallback })
    }

    /// Kind `kind`'s thresholds and fallback.
    #[inline]
    fn kind(&self, kind: usize) -> (&[u64], Spin) {
        (&self.thr[kind * self.q..][..self.q], self.fallback[kind])
    }
}

/// [`VertexActivity::sample`] on the stream whose first draw is
/// `head`, from one kind's thresholds.
#[inline(always)]
fn sample_at(thr: &[u64], fallback: Spin, head: u64) -> Spin {
    let k = head >> 11;
    let n = thr.iter().fold(0, |n, &t| n + Spin::from(k >= t));
    if n as usize == thr.len() {
        fallback
    } else {
        n
    }
}

/// [`sample_at`] over a block of heads, for one vertex kind, on the
/// widest vector instruction set the host has: the fixed-length
/// compare-and-add over `thr` only vectorizes well with native 64-bit
/// compares (AVX-512 ran it ~4× faster than the baseline ISA).
fn count_pass(thr: &[u64], fallback: Spin, heads: &[u64], out: &mut [Spin]) {
    #[inline(always)]
    fn count(thr: &[u64], fallback: Spin, heads: &[u64], out: &mut [Spin]) {
        for (slot, &head) in out.iter_mut().zip(heads) {
            *slot = sample_at(thr, fallback, head);
        }
    }
    lsl_local::simd_dispatch!(
        SimdArm::widest(),
        count(thr: &[u64], fallback: Spin, heads: &[u64], out: &mut [Spin])
    );
}

/// The first `k` in `[0, 2⁵³)` where the monotone (true, then false)
/// predicate `pred` fails, or `2⁵³` if it never does: gallops out from
/// `guess` until `[lo, hi]` brackets the boundary, then bisects — a
/// few evaluations when the guess is close.
fn first_false(pred: impl Fn(u64) -> bool, guess: u64) -> u64 {
    let (mut lo, mut hi) = (guess.min(HEAD_END), guess.min(HEAD_END));
    let mut step = 1;
    while lo > 0 && !pred(lo - 1) {
        lo = lo.saturating_sub(step);
        step *= 2;
    }
    step = 1;
    while hi < HEAD_END && pred(hi) {
        hi = (hi + step).min(HEAD_END);
        step *= 2;
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Availability masks of the permutation-scheme heat bath (`q ≤ 64`):
/// spin `c` has positive marginal weight at `v` iff bit `c` survives
/// ANDing `v`'s vertex mask with one column mask per incident edge.
struct HeatBathMasks {
    q: usize,
    /// Per vertex kind: bit `c` iff `b(c) > 0`.
    vertex: Vec<u64>,
    /// Per `(edge kind, neighbour spin x)`, at `kind·q + x`: bit `c` iff
    /// `A(c, x) > 0`.
    column: Vec<u64>,
}

impl HeatBathMasks {
    /// The masks of `mrf`, when its heat bath is a permutation walk over
    /// the positive weights and the masks decide exactly which weights
    /// [`Mrf::marginal_weights_with`] leaves positive. Under the
    /// permutation scheme every positive factor is its activity's
    /// maximum; multiplying in the smallest of those maxima a max-degree
    /// number of times bounds every product from below (rounding is
    /// monotone), so if that chain stays positive no product underflows
    /// and a weight is positive iff no factor is zero. (An overflow to
    /// `∞` stays positive, and `∞·0 = NaN` is not `> 0`, like the mask.)
    fn new(mrf: &Mrf, resampler: &Resampler) -> Option<Self> {
        let q = mrf.q();
        if !resampler.uses_permutation_scheme() || q > 64 {
            return None;
        }
        let positive = |x: f64| x > 0.0;
        let b_min = mrf
            .vertex_palette()
            .iter()
            .flat_map(|b| (0..q as Spin).map(move |c| b.get(c)))
            .filter(|&x| positive(x))
            .fold(f64::INFINITY, f64::min);
        let a_min = mrf
            .edge_palette()
            .iter()
            .map(EdgeActivity::max_entry)
            .fold(f64::INFINITY, f64::min);
        let mut chain = b_min;
        for _ in 0..mrf.graph().max_degree() {
            chain *= a_min;
        }
        if !positive(chain) {
            return None;
        }
        let bits = |pos: &dyn Fn(Spin) -> bool| {
            (0..q as Spin).fold(0u64, |m, c| m | u64::from(pos(c)) << c)
        };
        let vertex = mrf
            .vertex_palette()
            .iter()
            .map(|b| bits(&|c| positive(b.get(c))))
            .collect();
        let column = mrf
            .edge_palette()
            .iter()
            .flat_map(|a| (0..q as Spin).map(move |x| bits(&|c| positive(a.get(c, x)))))
            .collect();
        Some(HeatBathMasks { q, vertex, column })
    }

    /// The available set at `v` given its neighbours' spins.
    #[inline]
    fn available(&self, mrf: &Mrf, v: VertexId, spin_of: impl Fn(usize) -> Spin) -> u64 {
        let mut m = self.vertex[mrf.vertex_kind_of(v) as usize];
        for (e, u) in mrf.graph().incident_edges(v) {
            m &= self.column[mrf.edge_kind_of(e) as usize * self.q + spin_of(u.index()) as usize];
        }
        m
    }
}

/// Monomorphic packed lanes — the kernels' private storage. Same
/// layouts as [`StateSlab`](super::StateSlab), but resolved at compile
/// time so the gather loops stay branch-free.
trait LaneBuf: Send + 'static {
    fn with_len(len: usize) -> Self;
    fn load(&mut self, wide: &[Spin]);
    fn get(&self, i: usize) -> Spin;
    /// The raw one-bit-per-index words, when this packing has them —
    /// unlocks the word-interleaved `q = 2` edge pass.
    fn as_bits(&self) -> Option<&[u64]> {
        None
    }
}

impl LaneBuf for Vec<Spin> {
    fn with_len(len: usize) -> Self {
        vec![0; len]
    }

    fn load(&mut self, wide: &[Spin]) {
        self.copy_from_slice(wide);
    }

    #[inline]
    fn get(&self, i: usize) -> Spin {
        self[i]
    }
}

impl LaneBuf for Vec<u8> {
    fn with_len(len: usize) -> Self {
        vec![0; len]
    }

    fn load(&mut self, wide: &[Spin]) {
        for (slot, &s) in self.iter_mut().zip(wide) {
            debug_assert!(s < 256);
            *slot = s as u8;
        }
    }

    #[inline]
    fn get(&self, i: usize) -> Spin {
        self[i] as Spin
    }
}

/// Bit lanes in `u64` words.
struct BitLanes {
    words: Vec<u64>,
}

impl LaneBuf for BitLanes {
    fn with_len(len: usize) -> Self {
        BitLanes {
            words: vec![0; len.div_ceil(64)],
        }
    }

    fn load(&mut self, wide: &[Spin]) {
        self.words.fill(0);
        for (i, &s) in wide.iter().enumerate() {
            debug_assert!(s < 2);
            self.words[i >> 6] |= u64::from(s) << (i & 63);
        }
    }

    #[inline]
    fn get(&self, i: usize) -> Spin {
        ((self.words[i >> 6] >> (i & 63)) & 1) as Spin
    }

    fn as_bits(&self) -> Option<&[u64]> {
        Some(&self.words)
    }
}

/// Spreads the low 32 bits of `x` to the even bit positions (the
/// classic Morton half-interleave).
#[inline(always)]
fn spread32(x: u64) -> u64 {
    let mut x = x & 0xFFFF_FFFF;
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    (x | (x << 1)) & 0x5555_5555_5555_5555
}

/// The LocalMetropolis kernel: one proposal pass, one coin block, one
/// edge pass ANDing accepts into a per-vertex byte, one combine pass.
struct LmKernel<L: LaneBuf> {
    mrf: Arc<Mrf>,
    rule3: bool,
    block_rng: bool,
    /// Every edge activity is 0/max — every coin is deterministic and
    /// the coin block is never filled (the coloring/hardcore fast path,
    /// same branch the scalar rule takes per edge).
    hard: bool,
    q: usize,
    /// Stored-orientation endpoints per edge, indexed by edge id and
    /// packed `v << 32 | u` (one load per edge). Both endpoints of an
    /// edge evaluate the *same* stored-orientation filter product
    /// against the *same* coin, so one edge-pass evaluation serves
    /// both — the scalar path pays it twice.
    euv: Vec<u64>,
    /// Base offset of each edge's kind table in `tables`.
    etbl: Vec<u32>,
    /// The common table base when every edge has the same kind (the
    /// usual generator output) — lets the edge pass skip the per-edge
    /// `etbl` load.
    kind0: Option<u32>,
    /// Proposal thresholds per vertex kind (`None` past
    /// [`THRESHOLD_BUDGET`]: the proposal pass then runs the sampler).
    props: Option<ProposalTable>,
    /// Per-edge-kind normalized activities, `q²` entries each: the same
    /// `get / max` values [`lsl_mrf::EdgeActivity::normalized`]
    /// computes, divided once at construction.
    tables: Vec<f64>,
    /// Hard models only (else empty): `tables` as bytes, `1` iff the
    /// factor is positive. Every hard factor is exactly 0 or 1, so a
    /// filter product is positive iff the AND of its factors' bytes is.
    allow: Vec<u8>,
    /// `q == 2` only (else empty): the filter *products* per edge kind,
    /// 16 entries indexed by the state nibble
    /// `sp(u)·8 + sp(v)·4 + sx(u)·2 + sx(v)`, multiplied at
    /// construction in the exact factor order of the scalar rule — the
    /// Ising/hardcore edge pass becomes one table load per edge.
    products: Vec<f64>,
    /// The same products permuted to the word-interleaved nibble
    /// `sp(u)·8 + sx(u)·4 + sp(v)·2 + sx(v)` (what two 2-bit lane
    /// extractions assemble directly).
    products2: Vec<f64>,
    /// `ceil(products2 · 2⁵³)`, clamped at 0: `coin < p` over coins
    /// `k·2⁻⁵³` is exactly `k < thr` (the scale is an exponent shift,
    /// so the threshold is exact), turning the accept test into one
    /// integer compare on the raw head.
    thr2: Vec<u64>,
    /// Interleaved 2-bit lanes `sp(v)·2 + sx(v)`, rebuilt per round
    /// from the bit-packed slabs by [`spread32`] word ops.
    cbits: Vec<u64>,
    /// Packed current state / proposals.
    sx: L,
    sp: L,
    /// Proposal heads (propose-phase vertex streams).
    heads: Vec<u64>,
    /// Shared edge coins as raw stream heads, one per *edge* (the
    /// scalar path evaluates each from both endpoints); consumed via
    /// [`head_to_f64`] or the integer thresholds `thr2`.
    coins: Vec<u64>,
    /// Per-vertex accept accumulator: `1` until some incident edge's
    /// filter rejects.
    ok: Vec<u8>,
    /// Wide mirror of the proposals for publishing into `locals`.
    proposals_wide: Vec<Spin>,
    /// Propose-master the current proposal block belongs to: coupled
    /// replicas share one master per round, so a batch of `B` replicas
    /// fills and samples the block once.
    proposals_key: Option<u64>,
}

impl<L: LaneBuf> LmKernel<L> {
    fn new(mrf: Arc<Mrf>, rule3: bool, block_rng: bool) -> Self {
        let g = mrf.graph();
        let n = g.num_vertices();
        let m = g.num_edges();
        let q = mrf.q();
        let qq = (q * q) as u32;
        let mut tables = Vec::with_capacity(mrf.edge_palette().len() * (q * q));
        for act in mrf.edge_palette() {
            for a in 0..q as Spin {
                for b in 0..q as Spin {
                    tables.push(act.normalized(a, b));
                }
            }
        }
        let (mut euv, mut etbl) = (vec![0u64; m], vec![0u32; m]);
        for (e, a, b) in g.edges() {
            let i = e.index();
            euv[i] = u64::from(b.0) << 32 | u64::from(a.0);
            etbl[i] = mrf.edge_kind_of(e) * qq;
        }
        let kind0 =
            (etbl.windows(2).all(|w| w[0] == w[1])).then(|| etbl.first().copied().unwrap_or(0));
        let (mut products, mut products2, mut thr2) = (Vec::new(), Vec::new(), Vec::new());
        if q == 2 {
            products.reserve(mrf.edge_palette().len() * 16);
            products2.reserve(mrf.edge_palette().len() * 16);
            thr2.reserve(mrf.edge_palette().len() * 16);
            for kind in 0..mrf.edge_palette().len() {
                let tbl = &tables[kind * 4..][..4];
                let p_of = |su: usize, sv: usize, xu: usize, xv: usize| {
                    let mut p = tbl[su * 2 + sv] * tbl[xu * 2 + sv];
                    if rule3 {
                        p *= tbl[su * 2 + xv];
                    }
                    p
                };
                for idx in 0..16usize {
                    products.push(p_of(idx >> 3 & 1, idx >> 2 & 1, idx >> 1 & 1, idx & 1));
                    let p2 = p_of(idx >> 3 & 1, idx >> 1 & 1, idx >> 2 & 1, idx & 1);
                    products2.push(p2);
                    thr2.push((p2 * (1u64 << 53) as f64).ceil().max(0.0) as u64);
                }
            }
        }
        let hard = mrf.all_hard_constraints();
        let allow = if hard {
            tables.iter().map(|&p| u8::from(p > 0.0)).collect()
        } else {
            Vec::new()
        };
        LmKernel {
            rule3,
            block_rng,
            hard,
            q,
            euv,
            etbl,
            kind0,
            props: ProposalTable::new(mrf.vertex_palette()),
            tables,
            allow,
            products,
            products2,
            thr2,
            cbits: Vec::new(),
            sx: L::with_len(n),
            sp: L::with_len(n),
            heads: vec![0; if block_rng { n } else { 0 }],
            coins: vec![0; if block_rng && !hard { m } else { 0 }],
            ok: vec![0; n],
            proposals_wide: vec![0; n],
            proposals_key: None,
            mrf,
        }
    }
}

impl<L: LaneBuf> HotKernel<Spin> for LmKernel<L> {
    fn round(&mut self, ctx: &RoundCtx, state: &[Spin], next: &mut [Spin], locals: &mut [Spin]) {
        self.sx.load(state);

        // Propose: one block of stream heads serves every vertex's
        // single proposal draw. The block is keyed by the propose
        // master, so coupled replicas sharing a round's randomness
        // reuse it for free.
        if self.proposals_key != Some(ctx.propose_master) {
            if self.block_rng {
                fill_stream_heads(ctx.propose_master, VERTEX_STREAM_LABEL, &mut self.heads);
                if let Some(props) = &self.props {
                    // One branchless threshold count per vertex (then
                    // one pack pass into the proposal lanes).
                    if let [_] = props.fallback[..] {
                        let (thr, fallback) = props.kind(0);
                        count_pass(thr, fallback, &self.heads, &mut self.proposals_wide);
                    } else {
                        for (v, slot) in self.proposals_wide.iter_mut().enumerate() {
                            let kind = self.mrf.vertex_kind_of(VertexId(v as u32)) as usize;
                            let (thr, fallback) = props.kind(kind);
                            *slot = sample_at(thr, fallback, self.heads[v]);
                        }
                    }
                } else {
                    for (v, slot) in self.proposals_wide.iter_mut().enumerate() {
                        let act = self.mrf.vertex_activity(VertexId(v as u32));
                        *slot = act.sample(&mut OneShotRng(self.heads[v]));
                    }
                }
            } else {
                for (v, slot) in self.proposals_wide.iter_mut().enumerate() {
                    let vid = VertexId(v as u32);
                    let mut rng = ctx.propose_rng(vid);
                    *slot = match &self.props {
                        Some(props) => {
                            let (thr, fallback) = props.kind(self.mrf.vertex_kind_of(vid) as usize);
                            sample_at(thr, fallback, rng.raw().next())
                        }
                        None => self.mrf.vertex_activity(vid).sample(rng.raw()),
                    };
                }
            }
            self.sp.load(&self.proposals_wide);
            // Coins: one evaluation per edge (the scalar path pays one
            // per endpoint). Skipped entirely for hard-constraint
            // models, whose coins are all deterministic.
            if self.block_rng && !self.hard {
                fill_stream_heads(ctx.edge_master, EDGE_LABEL, &mut self.coins);
            }
            self.proposals_key = Some(ctx.propose_master);
        }
        locals.copy_from_slice(&self.proposals_wide);

        // Resolve as an edge pass. The scalar rule's per-vertex view
        // evaluates, at *both* endpoints of each edge, the identical
        // stored-orientation factor product `p` against the identical
        // shared coin — so one evaluation per edge decides both, ANDed
        // into the accept byte of each endpoint. Its early-exit is
        // droppable because coins are pure functions of
        // `(edge_master, edge)`: no stream state is consumed by the
        // extra evaluations. The coin test folds the scalar ladder
        // (`p ≤ 0` reject, `p ≥ 1` accept, else reject iff `coin ≥ p`)
        // into one branchless `coin < p` — coins live in `[0, 1)`, so
        // all three rungs agree. Factors multiply in the exact order of
        // the scalar rule for f64-identical products.
        let (rule3, hard, block_rng, q) = (self.rule3, self.hard, self.block_rng, self.q);
        let qq = q * q;
        let Self {
            euv,
            etbl,
            kind0,
            tables,
            allow,
            products,
            products2,
            thr2,
            cbits,
            sx,
            sp,
            coins,
            ok,
            ..
        } = self;
        ok.fill(1);
        let m = euv.len();
        // One loop shape, pluggable accept test.
        macro_rules! edge_pass {
            ($acc_of:expr) => {
                for e in 0..m {
                    let uv = euv[e];
                    let u = uv as u32 as usize;
                    let v = (uv >> 32) as usize;
                    let acc: u8 = $acc_of(e, u, v);
                    ok[u] &= acc;
                    ok[v] &= acc;
                }
            };
        }
        // The f64 accept test: every factor of a hard model is 0 or 1,
        // so `p > 0.0` is "no factor rejected" with no coin consulted —
        // the branch the scalar rule takes per edge. Soft models fold
        // the scalar ladder into one `coin < p`.
        macro_rules! accept {
            ($e:expr, $p:expr) => {
                if hard {
                    u8::from($p > 0.0)
                } else if block_rng {
                    u8::from(head_to_f64(coins[$e]) < $p)
                } else {
                    u8::from(ctx.edge_coin(EdgeId($e as u32)) < $p)
                }
            };
        }
        match (q == 2, sp.as_bits(), sx.as_bits()) {
            (true, Some(pw), Some(xw)) => {
                // Bit slabs: interleave both slabs into 2-bit lanes
                // (word ops, not per-vertex shifts), so each endpoint's
                // `(proposal, state)` pair is one extraction, and test
                // block coins in the integer domain against `thr2`.
                cbits.resize(2 * pw.len(), 0);
                for (i, (&p, &x)) in pw.iter().zip(xw).enumerate() {
                    cbits[2 * i] = spread32(p) << 1 | spread32(x);
                    cbits[2 * i + 1] = spread32(p >> 32) << 1 | spread32(x >> 32);
                }
                let cbits: &[u64] = cbits;
                let idx_of = |u: usize, v: usize| {
                    let cu = cbits[u >> 5] >> ((u & 31) << 1) & 3;
                    let cv = cbits[v >> 5] >> ((v & 31) << 1) & 3;
                    (cu << 2 | cv) as usize
                };
                let base = |e: usize| match *kind0 {
                    Some(b) => b as usize * 4,
                    None => etbl[e] as usize * 4,
                };
                if hard {
                    edge_pass!(|e: usize, u, v| u8::from(thr2[base(e) + idx_of(u, v)] != 0));
                } else if block_rng {
                    edge_pass!(|e: usize, u, v| u8::from(
                        coins[e] >> 11 < thr2[base(e) + idx_of(u, v)]
                    ));
                } else {
                    edge_pass!(|e: usize, u, v| u8::from(
                        ctx.edge_coin(EdgeId(e as u32)) < products2[base(e) + idx_of(u, v)]
                    ));
                }
            }
            (true, ..) => {
                // Wider slabs, q = 2: still one product-table load in
                // place of the factor gathers + multiplies.
                let idx_of = |u: usize, v: usize| {
                    (sp.get(u) << 3 | sp.get(v) << 2 | sx.get(u) << 1 | sx.get(v)) as usize
                };
                if let Some(b) = *kind0 {
                    let pt: &[f64] = &products[b as usize * 4..][..16];
                    edge_pass!(|e: usize, u, v| accept!(e, pt[idx_of(u, v)]));
                } else {
                    edge_pass!(|e: usize, u, v| accept!(
                        e,
                        products[etbl[e] as usize * 4 + idx_of(u, v)]
                    ));
                }
            }
            _ if hard => {
                // Hard models: the AND of the factors' allow bytes (the
                // rule-3 ablation repeats the first factor in place of
                // the third).
                let base = |e: usize| kind0.unwrap_or_else(|| etbl[e]) as usize;
                edge_pass!(|e: usize, u: usize, v: usize| {
                    let al = &allow[base(e)..][..qq];
                    let (su, sv) = (sp.get(u) as usize, sp.get(v) as usize);
                    let (xu, xv) = (sx.get(u) as usize, sx.get(v) as usize);
                    let x3 = if rule3 { xv } else { sv };
                    al[su * q + sv] & al[xu * q + sv] & al[su * q + x3]
                });
            }
            _ => {
                edge_pass!(|e: usize, u: usize, v: usize| {
                    let tbl = &tables[etbl[e] as usize..][..qq];
                    let (su, sv) = (sp.get(u) as usize, sp.get(v) as usize);
                    let (xu, xv) = (sx.get(u) as usize, sx.get(v) as usize);
                    let mut p = tbl[su * q + sv] * tbl[xu * q + sv];
                    if rule3 {
                        p *= tbl[su * q + xv];
                    }
                    accept!(e, p)
                });
            }
        }

        // Combine: a vertex keeps its proposal iff every incident edge
        // accepted (vacuously for isolated vertices, as in the scalar
        // rule) — a mask select, no branch.
        for ((slot, (&prop, &old)), &ok) in next
            .iter_mut()
            .zip(self.proposals_wide.iter().zip(state))
            .zip(&self.ok)
        {
            let keep = Spin::from(ok).wrapping_neg();
            *slot = prop & keep | old & !keep;
        }
    }
}

/// Builds the LocalMetropolis kernel at the requested packing.
pub(crate) fn local_metropolis_kernel(
    mrf: &Arc<Mrf>,
    rule3: bool,
    packing: Packing,
    block_rng: bool,
) -> Box<dyn HotKernel<Spin>> {
    let mrf = Arc::clone(mrf);
    match packing {
        Packing::Wide => Box::new(LmKernel::<Vec<Spin>>::new(mrf, rule3, block_rng)),
        Packing::Byte => Box::new(LmKernel::<Vec<u8>>::new(mrf, rule3, block_rng)),
        Packing::Bit => Box::new(LmKernel::<BitLanes>::new(mrf, rule3, block_rng)),
    }
}

/// The LubyGlauber kernel: a seed-block mark pass, then heat-bath
/// resamples for exactly the selected independent set (resolve streams
/// are constructed *only* for its members).
struct LgKernel<S: VertexScheduler, L: LaneBuf> {
    mrf: Arc<Mrf>,
    scheduler: S,
    block_rng: bool,
    sx: L,
    /// Seed block for the mark streams (marks may draw any number of
    /// times, so they get full streams, not heads).
    seeds: Vec<u64>,
    weights: Vec<f64>,
    resampler: Resampler,
    /// The availability masks, when the heat bath is a permutation walk
    /// they decide exactly (then `weights` goes unused).
    masks: Option<HeatBathMasks>,
    /// Wide mark buffer, keyed like the LM proposal block so coupled
    /// replicas mark once per round.
    marks_wide: Vec<S::Mark>,
    marks_key: Option<u64>,
}

impl<S: VertexScheduler, L: LaneBuf> LgKernel<S, L> {
    fn new(mrf: Arc<Mrf>, scheduler: S, block_rng: bool) -> Self {
        let n = mrf.num_vertices();
        let resampler = Resampler::new(&*mrf);
        LgKernel {
            scheduler,
            block_rng,
            sx: L::with_len(n),
            seeds: vec![0; if block_rng { n } else { 0 }],
            weights: vec![0.0; mrf.q()],
            masks: HeatBathMasks::new(&mrf, &resampler),
            resampler,
            marks_wide: vec![S::Mark::default(); n],
            marks_key: None,
            mrf,
        }
    }
}

impl<S: VertexScheduler, L: LaneBuf> HotKernel<S::Mark> for LgKernel<S, L> {
    fn round(&mut self, ctx: &RoundCtx, state: &[Spin], next: &mut [Spin], locals: &mut [S::Mark]) {
        self.sx.load(state);

        // Propose: the scheduler marks, streams rebuilt from one seed
        // block (identical streams, one derivation pass).
        if self.marks_key != Some(ctx.propose_master) {
            if self.block_rng {
                fill_stream_seeds(ctx.propose_master, VERTEX_STREAM_LABEL, &mut self.seeds);
                for (v, slot) in self.marks_wide.iter_mut().enumerate() {
                    let mut rng = Xoshiro256pp::seed_from(self.seeds[v]);
                    *slot = self.scheduler.mark(VertexId(v as u32), &mut rng);
                }
            } else {
                for (v, slot) in self.marks_wide.iter_mut().enumerate() {
                    let mut rng = ctx.propose_rng(VertexId(v as u32));
                    *slot = self.scheduler.mark(VertexId(v as u32), rng.raw());
                }
            }
            self.marks_key = Some(ctx.propose_master);
        }
        locals.copy_from_slice(&self.marks_wide);

        // Resolve: non-members keep their spin without touching their
        // resolve stream. Members walk the resampler's permutation over
        // their available set — from the masks when they apply, else
        // from the marginal weights.
        let Self {
            mrf,
            scheduler,
            sx,
            weights,
            resampler,
            masks,
            ..
        } = self;
        for (v, slot) in next.iter_mut().enumerate() {
            let vid = VertexId(v as u32);
            *slot = if scheduler.selected(ctx, vid, locals) {
                let mut rng = ctx.resolve_rng(vid);
                match masks {
                    Some(masks) => {
                        let available = masks.available(mrf, vid, |u| sx.get(u));
                        resampler.resample_available(available, rng.raw())
                    }
                    None => {
                        mrf.marginal_weights_with(vid, |u| sx.get(u.index()), weights);
                        resampler.resample(weights, rng.raw())
                    }
                }
                .unwrap_or_else(|| sx.get(v))
            } else {
                sx.get(v)
            };
        }
    }
}

/// Builds the LubyGlauber kernel at the requested packing.
pub(crate) fn luby_glauber_kernel<S: VertexScheduler>(
    mrf: &Arc<Mrf>,
    scheduler: S,
    packing: Packing,
    block_rng: bool,
) -> Box<dyn HotKernel<S::Mark>> {
    let mrf = Arc::clone(mrf);
    match packing {
        Packing::Wide => Box::new(LgKernel::<S, Vec<Spin>>::new(mrf, scheduler, block_rng)),
        Packing::Byte => Box::new(LgKernel::<S, Vec<u8>>::new(mrf, scheduler, block_rng)),
        Packing::Bit => Box::new(LgKernel::<S, BitLanes>::new(mrf, scheduler, block_rng)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsl_local::rng::stream_head;

    #[test]
    fn hotpath_display_parses_back() {
        for hp in [
            HotPath::Scalar,
            HotPath::default(),
            HotPath::Lanes {
                packing: Some(Packing::Bit),
                block_rng: false,
            },
            HotPath::Lanes {
                packing: Some(Packing::Wide),
                block_rng: true,
            },
        ] {
            assert_eq!(hp.to_string().parse::<HotPath>().unwrap(), hp);
        }
        assert_eq!("lanes".parse::<HotPath>().unwrap(), HotPath::default());
        assert_eq!(
            "lanes:byte".parse::<HotPath>().unwrap(),
            HotPath::Lanes {
                packing: Some(Packing::Byte),
                block_rng: true,
            }
        );
        assert_eq!(
            "lanes:pervertex".parse::<HotPath>().unwrap(),
            HotPath::Lanes {
                packing: None,
                block_rng: false,
            }
        );
        assert!("scalar:2".parse::<HotPath>().is_err());
        assert!("simd".parse::<HotPath>().is_err());
        assert!("lanes:nibble".parse::<HotPath>().is_err());
    }

    #[test]
    fn validate_rejects_narrow_packing() {
        let bit = HotPath::Lanes {
            packing: Some(Packing::Bit),
            block_rng: true,
        };
        assert!(bit.validate_for(2).is_ok());
        assert!(bit.validate_for(3).is_err());
        assert!(HotPath::default().validate_for(1 << 20).is_ok());
        assert!(HotPath::Scalar.validate_for(usize::MAX).is_ok());
    }

    #[test]
    fn resolved_packing_follows_q() {
        assert_eq!(HotPath::Scalar.resolved_packing(2), None);
        assert_eq!(HotPath::default().resolved_packing(2), Some(Packing::Bit));
        assert_eq!(HotPath::default().resolved_packing(16), Some(Packing::Byte));
        assert_eq!(
            HotPath::default().resolved_packing(1000),
            Some(Packing::Wide)
        );
    }

    #[test]
    fn one_shot_serves_its_head() {
        use rand::RngExt;
        let head = stream_head(7, VERTEX_STREAM_LABEL, 3);
        let mut one = OneShotRng(head);
        let mut full =
            Xoshiro256pp::seed_from(lsl_local::rng::derive_seed(7, VERTEX_STREAM_LABEL, 3));
        assert_eq!(one.random::<f64>(), full.uniform_f64());
    }

    /// Vertex activities that stress the ladder: totals that are not
    /// powers of two, zero entries, and list-coloring indicators.
    fn ladder_activities() -> Vec<VertexActivity> {
        let mut rng = Xoshiro256pp::seed_from(17);
        let mut acts = vec![
            VertexActivity::uniform(3),
            VertexActivity::uniform(5),
            VertexActivity::uniform(12),
            VertexActivity::new(vec![0.3, 0.0, 1.7, 0.0, 0.1]).unwrap(),
            VertexActivity::new(vec![0.0, 0.0, 2.5]).unwrap(),
            VertexActivity::new(vec![1e-300, 1.0, 1e-300]).unwrap(),
            VertexActivity::list_indicator(12, &[1, 4, 11]),
            VertexActivity::list_indicator(16, &[0]),
            VertexActivity::list_indicator(16, &[15]),
            VertexActivity::hardcore(1.3),
        ];
        for q in [3, 5, 12, 16] {
            let w = (0..q)
                .map(|c| {
                    if c % 4 == 3 {
                        0.0
                    } else {
                        rng.uniform_f64() * 3.0 + 1e-3
                    }
                })
                .collect();
            acts.push(VertexActivity::new(w).unwrap());
        }
        acts
    }

    #[test]
    fn threshold_table_is_the_ladder() {
        let mut rng = Xoshiro256pp::seed_from(99);
        for (kind, act) in ladder_activities().iter().enumerate() {
            let table = ProposalTable::new(std::slice::from_ref(act)).unwrap();
            let (thr, fallback) = table.kind(0);
            assert!(thr.windows(2).all(|w| w[0] <= w[1]), "kind {kind}");
            // The low 11 bits never reach the draw: vary them anyway.
            let check = |k: u64, low: u64| {
                let head = k << 11 | low & 0x7FF;
                assert_eq!(
                    sample_at(thr, fallback, head),
                    act.sample(&mut OneShotRng(head)),
                    "kind {kind}, k = {k}"
                );
            };
            check(0, 0);
            check(HEAD_END - 1, u64::MAX);
            for &t in thr {
                if t < HEAD_END {
                    check(t, rng.next());
                }
                if t > 0 {
                    check(t - 1, rng.next());
                }
            }
            for _ in 0..10_000 {
                let head = rng.next();
                check(head >> 11, head);
            }
            // The block pass, on the host's widest vector arm.
            let heads: Vec<u64> = (0..1001).map(|_| rng.next()).collect();
            let mut out = vec![0; heads.len()];
            count_pass(thr, fallback, &heads, &mut out);
            for (&head, &s) in heads.iter().zip(&out) {
                assert_eq!(s, act.sample(&mut OneShotRng(head)), "kind {kind}");
            }
        }
    }

    #[test]
    fn heat_bath_masks_decline_underflowing_products() {
        use lsl_graph::generators;
        use lsl_mrf::models;
        let coloring = models::proper_coloring(generators::torus(3, 3), 5);
        assert!(HeatBathMasks::new(&coloring, &Resampler::new(&coloring)).is_some());
        // Hard, uniform marginals, but `1e-200⁴` underflows: a weight
        // can vanish with no zero factor, so the masks must not decide.
        let tiny = EdgeActivity::new(2, vec![0.0, 1e-200, 1e-200, 0.0]).unwrap();
        let mrf = Mrf::homogeneous(generators::torus(3, 3), tiny, VertexActivity::uniform(2));
        let resampler = Resampler::new(&mrf);
        assert!(resampler.uses_permutation_scheme());
        assert!(HeatBathMasks::new(&mrf, &resampler).is_none());
        // Soft models keep the weights path.
        let potts = models::potts(generators::cycle(5), 4, 0.5);
        assert!(HeatBathMasks::new(&potts, &Resampler::new(&potts)).is_none());
    }

    #[test]
    fn head_mapping_matches_uniform_f64() {
        for seed in 0..64 {
            let mut rng = Xoshiro256pp::seed_from(seed);
            let head = rng.clone().next();
            assert_eq!(head_to_f64(head), rng.uniform_f64());
        }
    }
}
