//! Declarative job specifications: a parse/print round-trippable spec
//! format naming a complete workload, declared once as descriptor rows.
//!
//! The paper frames sampling as a *service the network provides*: a
//! query names a local Gibbs distribution and the system returns a
//! sample. [`JobSpec`] is that query as a value — one line of
//! whitespace-separated `key=value` tokens covering every scenario the
//! workspace can run:
//!
//! ```text
//! graph=torus:256x256 model=ising:beta=0.4 algorithm=local-metropolis \
//!     scheduler=luby backend=sharded:8 seed=7 job=coalescence:trials=5,max-rounds=2000000
//! ```
//!
//! * `graph=` — every [`lsl_graph::generators`] family
//!   (`torus:RxC`, `cycle:N`, `gnp:n=N,p=P`, ...);
//! * `model=` — every [`lsl_mrf::models`] constructor
//!   (`coloring:q=Q`, `ising:beta=B`, ...) plus the CSP scenarios
//!   (`dominating-set`, `mis`);
//! * `algorithm=` / `scheduler=` / `backend=` / `partitioner=` /
//!   `hotpath=` — the facade's [`Algorithm`], [`Sched`], [`Backend`],
//!   [`Partitioner`], and [`HotPath`], via their `FromStr`/`Display`
//!   forms;
//! * `seed=` / `graph-seed=` / `burn-in=` — determinism knobs (the
//!   graph seed defaults to the chain seed);
//! * `job=` — what to measure: `run:rounds=N` (default),
//!   `distribution:rounds=N,replicas=B`, `tv:rounds=N,replicas=B`,
//!   `coalescence:trials=T,max-rounds=M`, `sample`, `stream`;
//! * `seeds=` / `sweep=` — clauses that expand one line into many jobs
//!   ([`SweepSpec`]).
//!
//! ## One declaration per scenario
//!
//! Each graph family, model and job is one row of a `scenarios!` table:
//! its variant, its name, its argument form (bare, `<n>`, `<a>x<b>` or
//! named `k=v` with optional defaults), its typed arguments with their
//! ranges, any cross-argument checks, and a summary. A `spec_keys!`
//! table does the same for the top-level keys. Parsing, the canonical
//! print, range validation, the [`ScenarioRegistry`] listing behind
//! `lsl list scenarios` and the names an error offers all walk those
//! rows, and `sweep=` finds its parameter by name in the model's row.
//! Adding a family or model is adding one row (plus its build arm).
//!
//! Parsing is total and typed: anything wrong — an unknown key, a bad
//! arity, an out-of-range argument — surfaces as a [`SpecError`] value
//! (facade rejections are wrapped [`BuildError`]s), never a panic. The
//! ranges are the constructors' preconditions (`cycle` needs `n ≥ 3`,
//! a model's `q` is at most [`MAX_Q`], `beta` and `lambda` are finite
//! and positive, replica counts are at least 1), so a validated spec
//! cannot blow up a service worker later. Printing
//! ([`std::fmt::Display`]) emits a canonical form that parses back to
//! the identical spec — pinned in `tests/spec_golden.rs` and
//! property-tested in `tests/spec_roundtrip.rs`.
//!
//! Running a spec ([`JobSpec::run`]) goes through the sampler facade,
//! so the result is bit-identical to building the same workload by
//! hand; [`Service`](crate::service::Service) runs specs concurrently
//! with a model cache and the same guarantee.

use crate::codec::StateBlob;
use crate::engine::sharded::CommStats;
use crate::engine::{Backend, HotPath};
use crate::sampler::{Algorithm, BuildError, Sampler, SamplerBuilder, Sched};
use lsl_graph::partition::Partitioner;
use lsl_graph::Graph;
use lsl_mrf::csp::Csp;
use lsl_mrf::gibbs::Enumeration;
use lsl_mrf::{models, Mrf, Spin};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::fmt;
use std::ops::{Bound, RangeBounds, RangeInclusive};
use std::str::FromStr;
use std::sync::Arc;

/// Why a spec string was rejected. Every failure is a value — the spec
/// layer never panics on user input.
#[derive(Clone, Debug, PartialEq)]
#[must_use = "a rejected spec explains what to fix"]
pub enum SpecError {
    /// A token was not of the form `key=value`.
    NotKeyValue {
        /// The offending token.
        token: String,
    },
    /// An unrecognized top-level key.
    UnknownKey {
        /// The offending key.
        key: String,
    },
    /// The same key appeared twice.
    DuplicateKey {
        /// The repeated key.
        key: String,
    },
    /// A required key was missing.
    MissingKey {
        /// The missing key (`graph` or `model`).
        key: &'static str,
    },
    /// A scenario name (graph family, model, job) was not recognized.
    UnknownScenario {
        /// Which key the name appeared under.
        kind: &'static str,
        /// The unrecognized name.
        name: String,
    },
    /// A value failed to parse or violated a constructor precondition
    /// (wrong arity, non-numeric argument, `cycle` with `n < 3`, ...).
    BadValue {
        /// The key whose value was rejected.
        key: String,
        /// What was wrong.
        message: String,
    },
    /// The facade rejected the (algorithm, scheduler, model)
    /// combination — the spec layer reuses [`BuildError`] unchanged.
    Combo(BuildError),
    /// The job is not runnable on this workload (e.g. `tv` needs a
    /// state space small enough to enumerate exactly).
    Unsupported {
        /// What was requested and why it cannot run.
        message: String,
    },
    /// The job body panicked; the panic was contained to the job (the
    /// worker survives) and its message is carried here.
    JobPanicked {
        /// The panic payload, stringified.
        message: String,
    },
    /// The service owning this job shut down before answering.
    ServiceStopped,
    /// The job was cancelled (handle, client frame, or server drain)
    /// before it produced a result.
    Cancelled,
    /// The job was refused admission; the reason says which limit.
    Rejected(crate::lifecycle::RejectReason),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::NotKeyValue { token } => {
                write!(f, "token {token:?} is not of the form key=value")
            }
            SpecError::UnknownKey { key } => {
                let keys: Vec<&str> = JOB_KEYS.iter().copied().chain([SEEDS, SWEEP]).collect();
                write!(f, "unknown key {key:?} (expected {})", keys.join(" | "))
            }
            SpecError::DuplicateKey { key } => write!(f, "key {key:?} given twice"),
            SpecError::MissingKey { key } => write!(f, "required key {key:?} is missing"),
            SpecError::UnknownScenario { kind, name } => write!(
                f,
                "unknown {kind} {name:?} (expected {}; `lsl list scenarios` shows the registry)",
                scenario_names(kind).join(" | ")
            ),
            SpecError::BadValue { key, message } => write!(f, "bad value for {key:?}: {message}"),
            SpecError::Combo(e) => write!(f, "invalid combination: {e}"),
            SpecError::Unsupported { message } => f.write_str(message),
            SpecError::JobPanicked { message } => {
                write!(f, "the job panicked: {message}")
            }
            SpecError::ServiceStopped => f.write_str("the sampling service shut down"),
            SpecError::Cancelled => f.write_str("the job was cancelled"),
            SpecError::Rejected(reason) => write!(f, "the job was rejected: {reason}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<BuildError> for SpecError {
    fn from(e: BuildError) -> Self {
        SpecError::Combo(e)
    }
}

/// Shorthand for the `BadValue` constructor used throughout parsing.
fn bad(key: &str, message: impl Into<String>) -> SpecError {
    SpecError::BadValue {
        key: key.to_string(),
        message: message.into(),
    }
}

// ---------------------------------------------------------------------
// Descriptors: each vocabulary declared once
// ---------------------------------------------------------------------

/// The largest `q` the coloring and Potts models accept: their `q × q`
/// f64 activity table is then 8 MiB.
pub const MAX_Q: usize = 1024;

/// The range of a model's `q`.
const COLORS: RangeInclusive<usize> = 2..=MAX_Q;

/// The range of a finite positive real (`beta`, `lambda`).
const POSITIVE: (Bound<f64>, Bound<f64>) = (Bound::Excluded(0.0), Bound::Excluded(f64::INFINITY));

/// How a scenario's arguments follow its name.
#[derive(Clone, Copy)]
enum Form {
    /// `name`: no arguments.
    Bare,
    /// `name:<v>`: one positional argument.
    Pos,
    /// `name:<a>x<b>`: two positional arguments.
    AxB,
    /// `name:k=v,k=v`: named arguments in any order; defaulted ones may
    /// be left out, and a row whose arguments all default accepts the
    /// bare name.
    Named,
}

/// One argument of a scenario row, as the registry shows it.
struct ArgRow {
    key: &'static str,
    /// Whether the argument is a real number (what `sweep=` can vary).
    real: bool,
    default: Option<&'static str>,
    /// Renders the range as text (`2 <= q <= 1024`) for a key.
    bound: Option<fn(&str) -> String>,
}

/// One scenario: its name, argument form and typed arguments, the
/// cross-argument checks, and a summary.
struct Row {
    name: &'static str,
    form: Form,
    args: Vec<ArgRow>,
    needs: &'static [&'static str],
    summary: &'static str,
}

impl Row {
    /// The accepted syntax, e.g. `torus:<rows>x<cols>`; arguments that
    /// all have defaults are bracketed.
    fn syntax(&self) -> String {
        let key = |i: usize| self.args[i].key;
        let args = match self.form {
            Form::Bare => return self.name.to_string(),
            Form::Pos => format!("<{}>", key(0)),
            Form::AxB => format!("<{}>x<{}>", key(0), key(1)),
            Form::Named => {
                let named: Vec<String> = self
                    .args
                    .iter()
                    .map(|a| format!("{0}=<{0}>", a.key))
                    .collect();
                named.join(",")
            }
        };
        if self.args.iter().all(|a| a.default.is_some()) {
            format!("{}[:{args}]", self.name)
        } else {
            format!("{}:{args}", self.name)
        }
    }

    /// The summary, followed by the row's defaults, ranges and checks.
    fn described(&self) -> String {
        let notes: Vec<String> = self
            .args
            .iter()
            .flat_map(|a| {
                let default = a.default.map(|d| format!("{}={d} by default", a.key));
                default.into_iter().chain(a.bound.map(|b| b(a.key)))
            })
            .chain(self.needs.iter().map(|n| n.to_string()))
            .collect();
        if notes.is_empty() {
            self.summary.to_string()
        } else {
            format!("{} [{}]", self.summary, notes.join(", "))
        }
    }
}

/// A vocabulary declared by `scenarios!`: one [`Row`] per variant,
/// and parse and print driven by the rows.
trait Scenarios: Sized {
    /// The spec key the vocabulary's values appear under.
    const KEY: &'static str;
    /// How [`SpecError::UnknownScenario`] names the vocabulary.
    const KIND: &'static str;
    /// The scenario names, in declaration order.
    const NAMES: &'static [&'static str];

    /// The rows, in declaration order.
    fn rows() -> Vec<Row>;

    /// Parses `name` and its argument string against its row.
    fn parse_args(name: &str, args: &str) -> Result<Self, SpecError>;

    /// Hands the value's name, form and arguments (in row order) to
    /// `f`.
    fn visit<R>(
        &self,
        f: impl FnOnce(&'static str, Form, &[(&'static str, &dyn fmt::Display)]) -> R,
    ) -> R;

    /// Whole-value checks that no single row states (see
    /// [`GraphSpec::num_vertices`]).
    fn admit(self) -> Result<Self, SpecError> {
        Ok(self)
    }

    /// Parses a whole value, `name[:args]`.
    fn parse_scenario(value: &str) -> Result<Self, SpecError> {
        let (name, args) = value.split_once(':').unwrap_or((value, ""));
        Self::parse_args(name, args)?.admit()
    }

    /// `self` with argument `key` set to `text`, validated like a
    /// parsed value; `None` when the row has no such argument.
    fn with_arg(&self, key: &str, text: &str) -> Option<Result<Self, SpecError>> {
        self.visit(|name, form, args| {
            args.iter().any(|&(k, _)| k == key).then(|| {
                let text: &dyn fmt::Display = &text;
                let args: Vec<(&str, &dyn fmt::Display)> = args
                    .iter()
                    .map(|&(k, v)| (k, if k == key { text } else { v }))
                    .collect();
                let mut value = String::new();
                let _ = write_args(&mut value, name, form, &args); // a String never refuses
                Self::parse_scenario(&value)
            })
        })
    }
}

/// The value type of one top-level key: how `key=value` parses, and the
/// `(syntax, summary)` lines `lsl list scenarios` shows for it.
trait Vocab: Sized + fmt::Display {
    fn parse_value(key: &str, value: &str) -> Result<Self, SpecError>;
    fn listing() -> Vec<(String, String)>;
}

/// Prints `name` and its arguments in `form`.
fn write_args(
    out: &mut impl fmt::Write,
    name: &str,
    form: Form,
    args: &[(&str, &dyn fmt::Display)],
) -> fmt::Result {
    out.write_str(name)?;
    match (form, args) {
        (Form::Pos, [(_, v)]) => write!(out, ":{v}"),
        (Form::AxB, [(_, a), (_, b)]) => write!(out, ":{a}x{b}"),
        _ => {
            let mut sep = ':';
            for (key, v) in args {
                write!(out, "{sep}{key}={v}")?;
                sep = ',';
            }
            Ok(())
        }
    }
}

/// Splits `args` into one text per argument of a `form` row with
/// argument `keys`, in row order; `None` marks a left-out argument.
/// When every argument has a default (`all_default`), an empty
/// argument string leaves them all out — the syntax behind `sample`
/// and `sample:count=8`.
fn split_args<'a>(
    key: &str,
    name: &str,
    form: Form,
    args: &'a str,
    keys: &[&str],
    all_default: bool,
) -> Result<Vec<Option<&'a str>>, SpecError> {
    match form {
        Form::Bare if args.is_empty() => Ok(Vec::new()),
        Form::Bare => Err(bad(key, format!("{name} takes no arguments, got {args:?}"))),
        Form::Pos if args.is_empty() => Err(bad(key, format!("{name} needs <{}>", keys[0]))),
        Form::Pos => Ok(vec![Some(args)]),
        Form::AxB => {
            let (a, b) = args.split_once('x').ok_or_else(|| {
                bad(
                    key,
                    format!("expected <{}>x<{}>, got {args:?}", keys[0], keys[1]),
                )
            })?;
            Ok(vec![Some(a), Some(b)])
        }
        Form::Named => {
            let mut out = vec![None; keys.len()];
            if args.is_empty() && all_default {
                return Ok(out);
            }
            for piece in args.split(',') {
                let (arg, value) = piece
                    .split_once('=')
                    .ok_or_else(|| bad(key, format!("expected name=value, got {piece:?}")))?;
                let slot = keys.iter().position(|&k| k == arg).ok_or_else(|| {
                    bad(key, format!("unknown argument {arg:?} (expected {keys:?})"))
                })?;
                if out[slot].replace(value).is_some() {
                    return Err(bad(key, format!("argument {arg:?} given twice")));
                }
            }
            Ok(out)
        }
    }
}

fn parse_num<T: FromStr>(key: &str, value: &str) -> Result<T, SpecError> {
    value
        .parse::<T>()
        .map_err(|_| bad(key, format!("{value:?} is not a valid number")))
}

/// A range as text: `n >= 3`, `dim <= 24`, `2 <= q <= 1024`.
fn describe<T: fmt::Display>(field: &str, range: &impl RangeBounds<T>) -> String {
    let hi = match range.end_bound() {
        Bound::Included(b) => format!(" <= {b}"),
        Bound::Excluded(b) => format!(" < {b}"),
        Bound::Unbounded => String::new(),
    };
    match range.start_bound() {
        Bound::Included(a) if hi.is_empty() => format!("{field} >= {a}"),
        Bound::Excluded(a) if hi.is_empty() => format!("{field} > {a}"),
        Bound::Included(a) => format!("{a} <= {field}{hi}"),
        Bound::Excluded(a) => format!("{a} < {field}{hi}"),
        Bound::Unbounded => format!("{field}{hi}"),
    }
}

/// Checks argument `field` of scenario `name` against its range.
fn check_range<T: PartialOrd + fmt::Display>(
    key: &str,
    name: &str,
    field: &str,
    value: &T,
    range: &impl RangeBounds<T>,
) -> Result<(), SpecError> {
    if range.contains(value) {
        Ok(())
    } else {
        Err(bad(key, format!("{name} needs {}", describe(field, range))))
    }
}

/// Declares one vocabulary, one row per variant:
///
/// ```text
/// scenarios! { Type, "<key>" [as "<kind>"] [, admit] {
///     Variant "name" Form { field ["arg-key"]: type [= default] [in range], .. }
///         [where <check> => "<what the check needs>"]* "<summary>";
/// } }
/// ```
///
/// `Form` is `Bare`, `Pos`, `AxB` or `Named`. An argument's key
/// defaults to its field name; `range` is any `RangeBounds` over its
/// type; a `where` check runs over the parsed fields. The rows drive
/// parsing, the canonical print, range checks, the registry listing
/// and the names an unknown scenario is told to pick from.
macro_rules! scenarios {
    ($T:ident, $key:literal $(as $kind:literal)? $(, $admit:ident)? {
        $($V:ident $name:literal $form:ident {
            $($f:ident $($arg:literal)? : $ty:ident $(= $default:literal)? $(in $range:expr)?),* $(,)?
        } $(where $check:expr => $need:literal)* $summary:literal;)*
    }) => {
        impl Scenarios for $T {
            const KEY: &'static str = $key;
            const KIND: &'static str = scenarios!(@or $($kind)? $key);
            const NAMES: &'static [&'static str] = &[$($name),*];

            fn rows() -> Vec<Row> {
                vec![$(Row {
                    name: $name,
                    form: Form::$form,
                    args: vec![$(ArgRow {
                        key: scenarios!(@or $($arg)? stringify!($f)),
                        real: stringify!($ty) == stringify!(f64),
                        default: scenarios!(@some $(stringify!($default))?),
                        bound: scenarios!(@some $(|key: &str| describe(key, &$range))?),
                    }),*],
                    needs: &[$($need),*],
                    summary: $summary,
                }),*]
            }

            fn parse_args(name: &str, args: &str) -> Result<Self, SpecError> {
                match name {
                    $($name => {
                        let keys: &[&str] = &[$(scenarios!(@or $($arg)? stringify!($f))),*];
                        let all_default = [$(scenarios!(@has $($default)?)),*].iter().all(|&d| d);
                        #[allow(unused_mut, unused_variables)]
                        let mut texts = split_args($key, $name, Form::$form, args, keys, all_default)?
                            .into_iter();
                        $(
                            #[allow(unused_variables)] // read by range checks and errors
                            let arg = scenarios!(@or $($arg)? stringify!($f));
                            let $f: $ty = match texts.next().flatten() {
                                Some(text) => parse_num($key, text)?,
                                None => scenarios!(@default $key, arg $(, $default)?),
                            };
                            $(check_range($key, $name, arg, &$f, &$range)?;)?
                        )*
                        $(if !($check) {
                            return Err(bad($key, format!("{} needs {}", $name, $need)));
                        })*
                        Ok($T::$V { $($f),* })
                    })*
                    other => Err(SpecError::UnknownScenario {
                        kind: Self::KIND,
                        name: other.to_string(),
                    }),
                }
            }

            fn visit<R>(
                &self,
                f: impl FnOnce(&'static str, Form, &[(&'static str, &dyn fmt::Display)]) -> R,
            ) -> R {
                match self {
                    $($T::$V { $($f),* } => f($name, Form::$form, &[
                        $((scenarios!(@or $($arg)? stringify!($f)), $f as &dyn fmt::Display)),*
                    ]),)*
                }
            }

            $(fn admit(self) -> Result<Self, SpecError> {
                $T::$admit(self)
            })?
        }

        impl Vocab for $T {
            fn parse_value(_key: &str, value: &str) -> Result<Self, SpecError> {
                Self::parse_scenario(value)
            }

            fn listing() -> Vec<(String, String)> {
                Self::rows().iter().map(|r| (r.syntax(), r.described())).collect()
            }
        }

        impl fmt::Display for $T {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.visit(|name, form, args| write_args(f, name, form, args))
            }
        }
    };
    (@or $given:literal $fallback:expr) => { $given };
    (@or $given:expr) => { $given };
    (@some) => { None };
    (@some $x:expr) => { Some($x) };
    (@has) => { false };
    (@has $default:literal) => { true };
    (@default $key:literal, $arg:ident) => {
        return Err(bad($key, format!("missing argument {:?}", $arg)))
    };
    (@default $key:literal, $arg:ident, $default:literal) => { $default };
}

// ---------------------------------------------------------------------
// Graph scenarios
// ---------------------------------------------------------------------

/// A named graph family with its parameters — every
/// [`lsl_graph::generators`] entry. Random families (`gnp`,
/// `random-regular`, `random-tree`) are generated deterministically
/// from the spec's graph seed.
#[derive(Clone, Copy, Debug, PartialEq)]
#[allow(missing_docs)] // variants mirror `lsl_graph::generators` 1:1
pub enum GraphSpec {
    Path { n: usize },
    Cycle { n: usize },
    Complete { n: usize },
    CompleteBipartite { a: usize, b: usize },
    Star { n: usize },
    Grid { rows: usize, cols: usize },
    Torus { rows: usize, cols: usize },
    Hypercube { dim: u32 },
    Book { pages: usize },
    Caterpillar { spine: usize, legs: usize },
    Gnp { n: usize, p: f64 },
    RandomRegular { n: usize, d: usize },
    RandomTree { n: usize },
}

scenarios! { GraphSpec, "graph" as "graph family", admit_size {
    Path "path" Pos { n: usize } "path P_n";
    Cycle "cycle" Pos { n: usize in 3.. } "cycle C_n";
    Complete "complete" Pos { n: usize } "complete graph K_n";
    CompleteBipartite "complete-bipartite" AxB { a: usize, b: usize } "complete bipartite K_{a,b}";
    Star "star" Pos { n: usize } "star K_{1,n}";
    Grid "grid" AxB { rows: usize, cols: usize } "grid, 4-neighborhood, no wraparound";
    Torus "torus" AxB { rows: usize in 3.., cols: usize in 3.. } "torus (grid with wraparound)";
    // Parsed as u32 directly: a usize-then-truncate would let values
    // like 2^32 wrap past the cap.
    Hypercube "hypercube" Pos { dim: u32 in ..=24 } "hypercube on 2^dim vertices";
    Book "book" Pos { pages: usize } "triangles sharing one edge (unbounded degree)";
    Caterpillar "caterpillar" AxB { spine: usize, legs: usize } "spine path with pendant legs";
    Gnp "gnp" Named { n: usize, p: f64 in 0.0..=1.0 } "Erdos-Renyi G(n,p), seeded by graph-seed";
    RandomRegular "random-regular" Named { n: usize, d: usize }
        where n % 2 == 0 || d % 2 == 0 => "n*d even"
        where d < n => "d < n"
        "random simple d-regular graph, seeded";
    RandomTree "random-tree" Named { n: usize } "uniform random labeled tree, seeded";
} }

impl GraphSpec {
    /// Parses the value of a `graph=` key (e.g. `torus:256x256`).
    /// Constructor preconditions are checked here so a parsed spec can
    /// never panic a worker at build time.
    pub fn parse(value: &str) -> Result<Self, SpecError> {
        Self::parse_scenario(value)
    }

    /// Sizes are admitted at parse time, not deep in a worker: an empty
    /// vertex set would panic replica jobs in the engine, and a size
    /// past `u32` (or one that wraps `usize`) would panic the graph
    /// builder.
    fn admit_size(self) -> Result<Self, SpecError> {
        let name = self.visit(|name, _, _| name);
        match self.num_vertices() {
            Some(0) => Err(bad(Self::KEY, format!("{name} needs at least 1 vertex"))),
            Some(n) if n <= u32::MAX as usize => Ok(self),
            _ => Err(bad(
                Self::KEY,
                format!("{name} has more than {} vertices", u32::MAX),
            )),
        }
    }

    /// The number of vertices the family builds, in closed form;
    /// `None` when the count overflows `usize`.
    pub fn num_vertices(&self) -> Option<usize> {
        match *self {
            GraphSpec::Path { n }
            | GraphSpec::Cycle { n }
            | GraphSpec::Complete { n }
            | GraphSpec::Gnp { n, .. }
            | GraphSpec::RandomRegular { n, .. }
            | GraphSpec::RandomTree { n } => Some(n),
            GraphSpec::CompleteBipartite { a, b } => a.checked_add(b),
            GraphSpec::Star { n } => n.checked_add(1),
            GraphSpec::Grid { rows, cols } | GraphSpec::Torus { rows, cols } => {
                rows.checked_mul(cols)
            }
            GraphSpec::Hypercube { dim } => 1usize.checked_shl(dim),
            GraphSpec::Book { pages } => pages.checked_add(2),
            GraphSpec::Caterpillar { spine, legs } => spine.checked_mul(legs)?.checked_add(spine),
        }
    }

    /// Builds the graph. Random families draw from a generator seeded
    /// by `graph_seed` — the same seed always yields the same graph.
    pub fn build(&self, graph_seed: u64) -> Graph {
        use lsl_graph::generators as g;
        let mut rng = StdRng::seed_from_u64(graph_seed);
        match *self {
            GraphSpec::Path { n } => g::path(n),
            GraphSpec::Cycle { n } => g::cycle(n),
            GraphSpec::Complete { n } => g::complete(n),
            GraphSpec::CompleteBipartite { a, b } => g::complete_bipartite(a, b),
            GraphSpec::Star { n } => g::star(n),
            GraphSpec::Grid { rows, cols } => g::grid(rows, cols),
            GraphSpec::Torus { rows, cols } => g::torus(rows, cols),
            GraphSpec::Hypercube { dim } => g::hypercube(dim),
            GraphSpec::Book { pages } => g::book(pages),
            GraphSpec::Caterpillar { spine, legs } => g::caterpillar(spine, legs),
            GraphSpec::Gnp { n, p } => g::gnp(n, p, &mut rng),
            GraphSpec::RandomRegular { n, d } => g::random_regular(n, d, &mut rng),
            GraphSpec::RandomTree { n } => g::random_tree(n, &mut rng),
        }
    }

    /// Whether building consults the graph seed.
    pub fn is_random(&self) -> bool {
        matches!(
            self,
            GraphSpec::Gnp { .. } | GraphSpec::RandomRegular { .. } | GraphSpec::RandomTree { .. }
        )
    }
}

// ---------------------------------------------------------------------
// Model scenarios
// ---------------------------------------------------------------------

/// A named distribution over configurations of the graph — every
/// [`lsl_mrf::models`] constructor plus the weighted-CSP scenarios.
#[derive(Clone, Copy, Debug, PartialEq)]
#[allow(missing_docs)] // variants mirror `lsl_mrf::models` / `Csp` 1:1
pub enum ModelSpec {
    /// `coloring:q=Q` — uniform proper q-colorings.
    Coloring { q: usize },
    /// `list-coloring:q=Q,size=K` — proper list colorings with
    /// pseudorandom per-vertex lists of `K` colors out of `[Q]`,
    /// derived deterministically from the graph seed.
    ListColoring { q: usize, size: usize },
    /// `hardcore:lambda=L` — independent sets weighted `λ^|I|`.
    Hardcore { lambda: f64 },
    /// `independent-set` — uniform independent sets (`hardcore`, λ=1).
    IndependentSet,
    /// `vertex-cover` — uniform vertex covers.
    VertexCover,
    /// `ising:beta=B` — the Ising model.
    Ising { beta: f64 },
    /// `potts:q=Q,beta=B` — the q-state Potts model.
    Potts { q: usize, beta: f64 },
    /// `dominating-set` — uniform dominating sets (a weighted CSP; the
    /// all-ones configuration is the canonical feasible start).
    DominatingSet,
    /// `mis` — uniform maximal independent sets (a weighted CSP; a
    /// greedy MIS is the canonical feasible start).
    Mis,
}

// The ranges are the model constructors' preconditions (finite
// activities, a `q × q` table that fits in memory), so a parsed model
// always builds.
scenarios! { ModelSpec, "model" {
    Coloring "coloring" Named { q: usize in COLORS } "uniform proper q-colorings";
    ListColoring "list-coloring" Named { q: usize in COLORS, size: usize in 1.. }
        where size <= q => "size <= q"
        "list colorings, pseudorandom size-lists from graph-seed";
    Hardcore "hardcore" Named { lambda: f64 in POSITIVE } "hardcore model, weight lambda^|I|";
    IndependentSet "independent-set" Bare {} "uniform independent sets (hardcore, lambda=1)";
    VertexCover "vertex-cover" Bare {} "uniform vertex covers";
    Ising "ising" Named { beta: f64 in POSITIVE } "Ising model (beta>1 ferro, beta<1 antiferro)";
    Potts "potts" Named { q: usize in COLORS, beta: f64 in POSITIVE } "q-state Potts model";
    DominatingSet "dominating-set" Bare {} "uniform dominating sets (weighted CSP)";
    Mis "mis" Bare {} "uniform maximal independent sets (weighted CSP)";
} }

impl ModelSpec {
    /// Parses the value of a `model=` key (e.g. `ising:beta=0.4`).
    pub fn parse(value: &str) -> Result<Self, SpecError> {
        Self::parse_scenario(value)
    }

    /// Whether the model is a weighted CSP (built through
    /// [`Sampler::for_csp`] with a canonical feasible start).
    pub fn is_csp(&self) -> bool {
        matches!(self, ModelSpec::DominatingSet | ModelSpec::Mis)
    }

    /// The real-valued arguments of any model row — what `sweep=` can
    /// vary — in declaration order.
    fn real_params() -> Vec<&'static str> {
        let mut params: Vec<&'static str> = Vec::new();
        for arg in Self::rows().into_iter().flat_map(|r| r.args) {
            if arg.real && !params.contains(&arg.key) {
                params.push(arg.key);
            }
        }
        params
    }
}

/// A built model: the owned handles a spec's workload samples from.
/// Cached by [`Service`](crate::service::Service) under the spec's
/// [`JobSpec::model_key`].
#[derive(Clone, Debug)]
pub enum BuiltModel {
    /// An MRF workload.
    Mrf(Arc<Mrf>),
    /// A CSP workload with its canonical feasible start.
    Csp {
        /// The CSP.
        csp: Arc<Csp>,
        /// The canonical feasible start configuration.
        start: Vec<Spin>,
    },
}

/// Greedy maximal independent set by ascending vertex id — the
/// canonical feasible start of the `mis` scenario.
fn greedy_mis(g: &Graph) -> Vec<Spin> {
    let n = g.num_vertices();
    let mut in_set = vec![0 as Spin; n];
    for v in g.vertices() {
        if g.neighbors(v).all(|u| in_set[u.index()] == 0) {
            in_set[v.index()] = 1;
        }
    }
    in_set
}

/// The domain size `q` of a built model — what a
/// [`StateBlob`] packs against.
fn domain_size(model: &BuiltModel) -> usize {
    match model {
        BuiltModel::Mrf(mrf) => mrf.q(),
        BuiltModel::Csp { csp, .. } => csp.q(),
    }
}

// ---------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------

/// A full-state delivery sink: `stream` jobs hand `(round, blob)`
/// pairs here, with the same preemption contract as
/// [`ProgressSink`](crate::mixing::ProgressSink) — `Break` stops the
/// job at the current slice boundary.
pub type StateSink<'a> = &'a mut dyn FnMut(u64, StateBlob) -> std::ops::ControlFlow<()>;

/// What a spec measures.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum JobKind {
    /// `run:rounds=N` — advance one trajectory and report the final
    /// configuration (the default job, `rounds=100`).
    Run {
        /// Rounds to advance after burn-in.
        rounds: usize,
    },
    /// `distribution:rounds=N,replicas=B` — the empirical distribution
    /// of `B` iid replicas after `N` rounds (MRF only).
    Distribution {
        /// Rounds per replica.
        rounds: usize,
        /// Number of iid replicas.
        replicas: usize,
    },
    /// `tv:rounds=N,replicas=B` — empirical total-variation distance to
    /// the exactly enumerated Gibbs distribution (MRF only; the state
    /// space must be small enough to enumerate).
    Tv {
        /// Rounds per replica.
        rounds: usize,
        /// Number of iid replicas.
        replicas: usize,
    },
    /// `coalescence:trials=T,max-rounds=M` — grand-coupling coalescence
    /// rounds from adversarial starts (MRF only).
    Coalescence {
        /// Independent grand couplings.
        trials: usize,
        /// Per-trial round budget.
        max_rounds: usize,
    },
    /// `sample[:rounds=N,count=K]` — advance `K` iid replicas and
    /// return their final configurations as packed
    /// [`StateBlob`]s (defaults
    /// `rounds=100,count=1`; `count > 1` is MRF only, like every
    /// replica job).
    Sample {
        /// Rounds to advance after burn-in.
        rounds: usize,
        /// Number of iid replicas whose final states ship.
        count: usize,
    },
    /// `stream[:rounds=N,every=K]` — advance one trajectory,
    /// delivering the full configuration every `K` rounds as
    /// [`JobEvent::State`](crate::service::JobEvent::State) (defaults
    /// `rounds=100,every=1`; the final round always ships).
    Stream {
        /// Rounds to advance after burn-in.
        rounds: usize,
        /// Rounds between state deliveries.
        every: usize,
    },
}

scenarios! { JobKind, "job" {
    Run "run" Named { rounds: usize = 100 } "advance one trajectory (the default job)";
    Distribution "distribution" Named { rounds: usize, replicas: usize in 1.. }
        "empirical distribution of iid replicas (MRF)";
    Tv "tv" Named { rounds: usize, replicas: usize in 1.. } "empirical TV to exact Gibbs (small MRF)";
    Coalescence "coalescence" Named { trials: usize in 1.., max_rounds "max-rounds": usize }
        "grand-coupling coalescence rounds (MRF)";
    Sample "sample" Named { rounds: usize = 100, count: usize = 1 in 1.. }
        "ship count final configurations";
    Stream "stream" Named { rounds: usize = 100, every: usize = 1 in 1.. }
        "stream the state every `every` rounds";
} }

// ---------------------------------------------------------------------
// The spec itself
// ---------------------------------------------------------------------

/// A complete declarative workload: graph × model × algorithm ×
/// scheduler × backend × job, parseable from (and printable to) one
/// spec line. See the [module docs](self) for the grammar.
///
/// Optional keys are stored as `Option` so printing reproduces exactly
/// what was written: `spec.to_string().parse()` returns an identical
/// `JobSpec`. Effective defaults are resolved at run time
/// ([`JobSpec::algorithm_or_default`] and friends).
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// The graph scenario (required).
    pub graph: GraphSpec,
    /// The model scenario (required).
    pub model: ModelSpec,
    /// The chain (default: the facade's per-model default).
    pub algorithm: Option<Algorithm>,
    /// The LubyGlauber scheduler (default: Luby, facade-side).
    pub scheduler: Option<Sched>,
    /// The execution backend (default: sequential).
    pub backend: Option<Backend>,
    /// The sharded partitioner (default: contiguous).
    pub partitioner: Option<Partitioner>,
    /// The engine hot path (default: the engine default, lane-batched
    /// kernels). Trajectories are hot-path-independent.
    pub hotpath: Option<HotPath>,
    /// The chain master seed (default: 0).
    pub seed: Option<u64>,
    /// The random-graph seed (default: the chain seed).
    pub graph_seed: Option<u64>,
    /// Burn-in rounds before the job's measured rounds (default: 0;
    /// `run` jobs only).
    pub burn_in: Option<usize>,
    /// What to measure (default: `run:rounds=100`).
    pub job: Option<JobKind>,
}

impl JobSpec {
    /// A minimal spec for `graph` × `model`, defaults everywhere else.
    pub fn new(graph: GraphSpec, model: ModelSpec) -> Self {
        JobSpec {
            graph,
            model,
            algorithm: None,
            scheduler: None,
            backend: None,
            partitioner: None,
            hotpath: None,
            seed: None,
            graph_seed: None,
            burn_in: None,
            job: None,
        }
    }

    /// The effective algorithm (the facade's per-model default when
    /// unset: LocalMetropolis on MRFs, LubyGlauber on CSPs).
    pub fn algorithm_or_default(&self) -> Algorithm {
        self.algorithm.unwrap_or(if self.model.is_csp() {
            Algorithm::LubyGlauber
        } else {
            Algorithm::LocalMetropolis
        })
    }

    /// The effective chain seed (0 when unset).
    pub fn seed_or_default(&self) -> u64 {
        self.seed.unwrap_or(0)
    }

    /// The effective graph seed (the chain seed when unset).
    pub fn graph_seed_or_default(&self) -> u64 {
        self.graph_seed.unwrap_or_else(|| self.seed_or_default())
    }

    /// The effective backend (sequential when unset).
    pub fn backend_or_default(&self) -> Backend {
        self.backend.unwrap_or(Backend::Sequential)
    }

    /// The effective job (`run:rounds=100` when unset).
    pub fn job_or_default(&self) -> JobKind {
        self.job.unwrap_or(JobKind::Run { rounds: 100 })
    }

    /// The cache key of the built model: the part of the canonical form
    /// that determines the graph and model bit-for-bit. Two specs with
    /// equal keys build identical models, so a
    /// [`Service`](crate::service::Service) shares one build.
    pub fn model_key(&self) -> String {
        let mut key = format!("graph={} model={}", self.graph, self.model);
        // The graph seed only matters for random families; the list
        // coloring also derives its lists from it.
        let seeded = self.graph.is_random() || matches!(self.model, ModelSpec::ListColoring { .. });
        if seeded {
            key.push_str(&format!(" graph-seed={}", self.graph_seed_or_default()));
        }
        key
    }

    /// Builds the model (graph included), deterministically: equal
    /// [`JobSpec::model_key`]s yield bit-identical models.
    pub fn build_model(&self) -> BuiltModel {
        let graph_seed = self.graph_seed_or_default();
        let graph = Arc::new(self.graph.build(graph_seed));
        match self.model {
            ModelSpec::Coloring { q } => {
                BuiltModel::Mrf(Arc::new(models::proper_coloring(graph, q)))
            }
            ModelSpec::ListColoring { q, size } => {
                // Deterministic pseudorandom lists: shuffle [q] per
                // vertex under a seed derived from the graph seed.
                let mut rng = StdRng::seed_from_u64(graph_seed ^ 0x4c49_5354_434f_4c52); // "LISTCOLR"
                let lists: Vec<Vec<u32>> = (0..graph.num_vertices())
                    .map(|_| {
                        let mut colors: Vec<u32> = (0..q as u32).collect();
                        colors.shuffle(&mut rng);
                        colors.truncate(size);
                        colors.sort_unstable();
                        colors
                    })
                    .collect();
                BuiltModel::Mrf(Arc::new(models::list_coloring(graph, q, &lists)))
            }
            ModelSpec::Hardcore { lambda } => {
                BuiltModel::Mrf(Arc::new(models::hardcore(graph, lambda)))
            }
            ModelSpec::IndependentSet => {
                BuiltModel::Mrf(Arc::new(models::uniform_independent_set(graph)))
            }
            ModelSpec::VertexCover => BuiltModel::Mrf(Arc::new(models::vertex_cover(graph))),
            ModelSpec::Ising { beta } => BuiltModel::Mrf(Arc::new(models::ising(graph, beta))),
            ModelSpec::Potts { q, beta } => {
                BuiltModel::Mrf(Arc::new(models::potts(graph, q, beta)))
            }
            ModelSpec::DominatingSet => {
                let start = vec![1; graph.num_vertices()];
                BuiltModel::Csp {
                    csp: Arc::new(Csp::dominating_set(graph)),
                    start,
                }
            }
            ModelSpec::Mis => {
                let start = greedy_mis(&graph);
                BuiltModel::Csp {
                    csp: Arc::new(Csp::maximal_independent_set(graph)),
                    start,
                }
            }
        }
    }

    /// Opens the facade builder this spec describes, over an
    /// already-built model (so services can reuse cached builds).
    pub fn sampler_builder(&self, model: &BuiltModel) -> SamplerBuilder {
        let mut b = match model {
            BuiltModel::Mrf(mrf) => Sampler::for_mrf(Arc::clone(mrf)),
            BuiltModel::Csp { csp, start } => {
                Sampler::for_csp(Arc::clone(csp)).start(start.clone())
            }
        };
        b = b
            .algorithm(self.algorithm_or_default())
            .backend(self.backend_or_default())
            .seed(self.seed_or_default());
        if let Some(sched) = self.scheduler {
            b = b.scheduler(sched);
        }
        if let Some(p) = self.partitioner {
            b = b.partitioner(p);
        }
        if let Some(h) = self.hotpath {
            b = b.hotpath(h);
        }
        b
    }

    /// A static upper bound on the engine rounds this job may execute —
    /// the admission proxy behind
    /// [`Limits::max_rounds`](crate::lifecycle::Limits::max_rounds).
    /// Saturating, so absurd specs rank as "infinite" rather than wrap.
    pub fn round_budget(&self) -> u64 {
        let budget = match self.job_or_default() {
            JobKind::Run { rounds } => {
                (rounds as u64).saturating_add(self.burn_in.unwrap_or(0) as u64)
            }
            JobKind::Distribution { rounds, replicas } | JobKind::Tv { rounds, replicas } => {
                (rounds as u64).saturating_mul(replicas as u64)
            }
            JobKind::Coalescence { trials, max_rounds } => {
                (trials as u64).saturating_mul(max_rounds as u64)
            }
            JobKind::Sample { rounds, count } => (rounds as u64)
                .saturating_add(self.burn_in.unwrap_or(0) as u64)
                .saturating_mul(count as u64),
            JobKind::Stream { rounds, .. } => {
                (rounds as u64).saturating_add(self.burn_in.unwrap_or(0) as u64)
            }
        };
        budget.max(1)
    }

    /// Builds the model and runs the job — the one-call entry point.
    /// Bit-identical to hand-building the same workload through the
    /// facade (property-tested in `tests/service_identity.rs`).
    pub fn run(&self) -> Result<JobResult, SpecError> {
        let model = self.build_model();
        self.run_on(&model)
    }

    /// Runs the job on an already-built model (the service's path).
    pub fn run_on(&self, model: &BuiltModel) -> Result<JobResult, SpecError> {
        self.run_on_observed(model, &mut |_, _| std::ops::ControlFlow::Continue(()))
    }

    /// [`JobSpec::run_on`] reporting progress through `progress` with
    /// monotone `(done, total)` work units — what a service worker
    /// runs so in-flight jobs stream `Progress` events from the
    /// long-running round loops. Observation never changes the result:
    /// `run` jobs are advanced in round slices (bit-identical under
    /// the engine's counter-keyed randomness) and the measurement jobs
    /// call the `*_observed` facade verbs, which batch and seed
    /// exactly like their silent forms.
    pub fn run_on_observed(
        &self,
        model: &BuiltModel,
        progress: crate::mixing::ProgressSink<'_>,
    ) -> Result<JobResult, SpecError> {
        self.run_on_streamed(model, progress, &mut |_, _| {
            std::ops::ControlFlow::Continue(())
        })
    }

    /// [`JobSpec::run_on_observed`] with a second sink for full-state
    /// delivery: `stream` jobs hand every `every`-th configuration to
    /// `states` as a packed [`StateBlob`]
    /// (final round included). Like progress observation, state
    /// extraction never perturbs the trajectory — states are read at
    /// slice boundaries, where `run(a); run(b)` ≡ `run(a+b)` holds by
    /// the determinism contract. Non-streaming jobs never call
    /// `states`.
    pub fn run_on_streamed(
        &self,
        model: &BuiltModel,
        progress: crate::mixing::ProgressSink<'_>,
        states: StateSink<'_>,
    ) -> Result<JobResult, SpecError> {
        let started = std::time::Instant::now();
        let output = match self.job_or_default() {
            JobKind::Run { rounds } => {
                let mut sampler = self
                    .sampler_builder(model)
                    .burn_in(self.burn_in.unwrap_or(0))
                    .build()?;
                run_sliced(rounds, progress, |t| sampler.run(t));
                let state = sampler.state();
                let feasible = match model {
                    BuiltModel::Mrf(mrf) => mrf.is_feasible(state),
                    BuiltModel::Csp { csp, .. } => csp.is_feasible(state),
                };
                JobOutput::Run {
                    rounds: sampler.round(),
                    n: state.len(),
                    feasible,
                    fingerprint: fingerprint(state),
                    comm: sampler.comm_stats().map(CommSummary::of),
                }
            }
            JobKind::Distribution { rounds, replicas } => {
                let emp = self
                    .sampler_builder(model)
                    .distribution_observed(rounds, replicas, progress)?;
                JobOutput::Distribution {
                    replicas: emp.total(),
                    support: emp.support_size(),
                }
            }
            JobKind::Tv { rounds, replicas } => {
                let mrf = match model {
                    BuiltModel::Mrf(mrf) => mrf,
                    BuiltModel::Csp { .. } => {
                        return Err(SpecError::Unsupported {
                            message: "the tv job needs an MRF (exact enumeration)".into(),
                        })
                    }
                };
                let exact = Enumeration::new(mrf).map_err(|e| SpecError::Unsupported {
                    message: format!("the tv job cannot enumerate this model exactly: {e}"),
                })?;
                let tv = self
                    .sampler_builder(model)
                    .tv_observed(&exact, rounds, replicas, progress)?;
                JobOutput::Tv {
                    rounds,
                    replicas,
                    tv,
                }
            }
            JobKind::Coalescence { trials, max_rounds } => {
                let report = self
                    .sampler_builder(model)
                    .coalescence_observed(trials, max_rounds, progress)?;
                JobOutput::Coalescence {
                    trials,
                    mean_rounds: report.summary.mean,
                    std_error: report.summary.std_error,
                    timeouts: report.timeouts,
                }
            }
            JobKind::Sample { rounds, count } => {
                let q = domain_size(model);
                if count == 1 {
                    // One replica rides the plain sampler path, so
                    // single-sample jobs work on CSPs too.
                    let mut sampler = self
                        .sampler_builder(model)
                        .burn_in(self.burn_in.unwrap_or(0))
                        .build()?;
                    run_sliced(rounds, progress, |t| sampler.run(t));
                    JobOutput::Sample {
                        rounds: sampler.round(),
                        states: vec![StateBlob::pack(sampler.state(), q)],
                    }
                } else {
                    let mut replicas = self
                        .sampler_builder(model)
                        .burn_in(self.burn_in.unwrap_or(0))
                        .replicas(count)
                        .build()?;
                    run_sliced(rounds, progress, |t| replicas.run(t));
                    JobOutput::Sample {
                        rounds: replicas.round(),
                        states: (0..count)
                            .map(|b| StateBlob::pack(replicas.state(b), q))
                            .collect(),
                    }
                }
            }
            JobKind::Stream { rounds, every } => {
                let q = domain_size(model);
                let mut sampler = self
                    .sampler_builder(model)
                    .burn_in(self.burn_in.unwrap_or(0))
                    .build()?;
                let n = sampler.state().len();
                let mut ran = 0usize;
                let mut shipped = 0u64;
                while ran < rounds {
                    // Slices of `every` rounds: each boundary is a
                    // delivery point, and the last (possibly partial)
                    // slice ships the final configuration.
                    let now = every.min(rounds - ran);
                    sampler.run(now);
                    ran += now;
                    if states(sampler.round(), StateBlob::pack(sampler.state(), q)).is_break() {
                        break;
                    }
                    shipped += 1;
                    if progress(ran as u64, rounds.max(1) as u64).is_break() {
                        break;
                    }
                }
                if rounds == 0 {
                    // Degenerate stream: deliver the start state once.
                    if states(sampler.round(), StateBlob::pack(sampler.state(), q)).is_continue() {
                        shipped += 1;
                    }
                    let _ = progress(1, 1);
                }
                JobOutput::Stream {
                    rounds: sampler.round(),
                    every,
                    n,
                    states: shipped,
                    fingerprint: fingerprint(sampler.state()),
                }
            }
        };
        Ok(JobResult {
            spec: self.to_string(),
            output,
            elapsed_secs: started.elapsed().as_secs_f64(),
        })
    }
}

/// Advances a chain `rounds` rounds through `run` in 1/16 slices,
/// ticking `progress` after each slice. A `Break` (cancellation) stops
/// at the slice boundary; the caller discards the result. Slicing has
/// no observable effect on the trajectory: `run(a); run(b)` equals
/// `run(a + b)` by the determinism contract.
fn run_sliced(
    rounds: usize,
    progress: crate::mixing::ProgressSink<'_>,
    mut run: impl FnMut(usize),
) {
    let slice = (rounds / 16).max(1);
    let mut ran = 0usize;
    while ran < rounds {
        let now = slice.min(rounds - ran);
        run(now);
        ran += now;
        if progress(ran as u64, rounds.max(1) as u64).is_break() {
            return;
        }
    }
    if rounds == 0 {
        let _ = progress(1, 1);
    }
}

// ---------------------------------------------------------------------
// The key table
// ---------------------------------------------------------------------

/// Declares the top-level keys of a single-job line, in canonical print
/// order: the required ones, then the optional ones with their spec
/// key (default: the field name), value type and, for plain numbers, a
/// registry summary. Generates `JobSpec`'s parse and print and the
/// registry's per-key rows.
macro_rules! spec_keys {
    (required { $($r:ident: $rt:ident),* $(,)? }
     optional { $($o:ident $($okey:literal)?: $ot:ident $($note:literal)?),* $(,)? }) => {
        /// Every key of a single-job line, in canonical print order.
        const JOB_KEYS: &[&str] = &[$(stringify!($r),)* $(spec_keys!(@key $o $($okey)?),)*];

        /// The keys every line must give.
        pub(crate) const REQUIRED_KEYS: &[&str] = &[$(stringify!($r)),*];

        impl fmt::Display for JobSpec {
            /// The canonical form: keys in fixed order, unset keys omitted.
            /// Parsing the printed form reproduces the identical spec.
            #[allow(unused_assignments)]
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let mut sep = "";
                $(
                    write!(f, "{sep}{}={}", stringify!($r), self.$r)?;
                    sep = " ";
                )*
                $(if let Some(value) = &self.$o {
                    write!(f, "{sep}{}={value}", spec_keys!(@key $o $($okey)?))?;
                    sep = " ";
                })*
                Ok(())
            }
        }

        impl FromStr for JobSpec {
            type Err = SpecError;

            fn from_str(s: &str) -> Result<Self, Self::Err> {
                $(let mut $r: Option<$rt> = None;)*
                $(let mut $o: Option<$ot> = None;)*
                for token in s.split_whitespace() {
                    let (key, value) = token.split_once('=').ok_or_else(|| SpecError::NotKeyValue {
                        token: token.to_string(),
                    })?;
                    match key {
                        $(stringify!($r) => set(&mut $r, key, $rt::parse_value(key, value)?)?,)*
                        $(spec_keys!(@key $o $($okey)?) => set(&mut $o, key, $ot::parse_value(key, value)?)?,)*
                        other => {
                            return Err(SpecError::UnknownKey {
                                key: other.to_string(),
                            })
                        }
                    }
                }
                Ok(JobSpec {
                    $($r: $r.ok_or(SpecError::MissingKey { key: stringify!($r) })?,)*
                    $($o,)*
                })
            }
        }

        /// The registry rows of every single-job key.
        fn job_key_entries() -> Vec<ScenarioEntry> {
            let mut out = Vec::new();
            $(push_entries::<$rt>(&mut out, stringify!($r), "");)*
            $(push_entries::<$ot>(&mut out, spec_keys!(@key $o $($okey)?), spec_keys!(@note $($note)?));)*
            out
        }
    };
    (@key $f:ident $key:literal) => { $key };
    (@key $f:ident) => { stringify!($f) };
    (@note $note:literal) => { $note };
    (@note) => { "" };
}

spec_keys! {
    required { graph: GraphSpec, model: ModelSpec }
    optional {
        algorithm: Algorithm,
        scheduler: Sched,
        backend: Backend,
        partitioner: Partitioner,
        hotpath: HotPath,
        seed: u64 "the chain master seed (default 0)",
        graph_seed "graph-seed": u64 "the random-graph seed (default: the chain seed)",
        burn_in "burn-in": usize "rounds run before the job's rounds (default 0)",
        job: JobKind,
    }
}

/// Refuses a second value for `key`.
fn fresh<T>(slot: &Option<T>, key: &str) -> Result<(), SpecError> {
    match slot {
        Some(_) => Err(SpecError::DuplicateKey {
            key: key.to_string(),
        }),
        None => Ok(()),
    }
}

/// Stores the value of `key`, refusing a second one.
fn set<T>(slot: &mut Option<T>, key: &str, value: T) -> Result<(), SpecError> {
    fresh(slot, key)?;
    *slot = Some(value);
    Ok(())
}

/// Appends `T`'s listing under `key`; lines without a summary of their
/// own take `note`.
fn push_entries<T: Vocab>(out: &mut Vec<ScenarioEntry>, key: &'static str, note: &str) {
    for (syntax, summary) in T::listing() {
        let summary = if summary.is_empty() {
            note.to_string()
        } else {
            summary
        };
        out.push(ScenarioEntry {
            key,
            syntax,
            summary,
        });
    }
}

macro_rules! number_vocab {
    ($($T:ident),*) => {$(
        impl Vocab for $T {
            fn parse_value(key: &str, value: &str) -> Result<Self, SpecError> {
                parse_num(key, value)
            }

            fn listing() -> Vec<(String, String)> {
                vec![(concat!("<", stringify!($T), ">").to_string(), String::new())]
            }
        }
    )*};
}

number_vocab!(u64, usize);

/// The facade's own vocabularies: parsed by their `FromStr`, listed
/// from these lines.
macro_rules! facade_vocab {
    ($($T:ident { $($syntax:literal $summary:literal,)* })*) => {$(
        impl Vocab for $T {
            fn parse_value(key: &str, value: &str) -> Result<Self, SpecError> {
                value.parse().map_err(|message: String| bad(key, message))
            }

            fn listing() -> Vec<(String, String)> {
                vec![$(($syntax.to_string(), $summary.to_string())),*]
            }
        }
    )*};
}

facade_vocab! {
    Algorithm {
        "local-metropolis" "Algorithm 2 (default on MRFs)",
        "local-metropolis-no-rule3" "E9 ablation (wrong chain, MRF only)",
        "luby-glauber" "Algorithm 1 (default on CSPs)",
        "glauber" "sequential heat-bath baseline",
        "metropolis" "sequential single-site Metropolis baseline",
    }
    Sched {
        "luby" "the paper's Luby step (default)",
        "singleton" "one uniform vertex per round",
        "bernoulli:<p>" "Bernoulli volunteering, p in (0, 1]",
        "chromatic" "greedy-coloring class scan",
    }
    Backend {
        "sequential" "one vertex after another (default)",
        "parallel:<threads>" "scoped-thread fork-join (0 = auto)",
        "sharded:<shards>" "owner-computes shards with boundary exchange (0 = auto)",
        "cluster:<shards>" "cross-process worker fleet (in-process fallback when run locally)",
    }
    Partitioner {
        "contiguous" "balanced contiguous index blocks (default)",
        "bfs" "BFS-grown regions",
        "greedy" "greedy edge-cut minimization",
    }
    HotPath {
        "scalar" "per-vertex reference kernels (the bit-identity oracle)",
        "lanes[:<auto|wide|byte|bit>][:<block|pervertex>]"
            "lane-batched kernels (default lanes:auto:block)",
    }
}

// ---------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------

/// FNV-1a over the configuration — a stable fingerprint for comparing
/// trajectories without shipping whole states around.
pub fn fingerprint(state: &[Spin]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &s in state {
        for byte in s.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Boundary-communication totals of a sharded run (a `PartialEq`
/// condensation of [`CommStats`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommSummary {
    /// Rounds accounted for.
    pub rounds_seen: u64,
    /// Total boundary messages.
    pub total_messages: u64,
    /// Total payload bytes.
    pub total_bytes: u64,
    /// Messages whose state actually changed.
    pub total_changed: u64,
}

impl CommSummary {
    /// Condenses a [`CommStats`] record.
    pub fn of(stats: &CommStats) -> Self {
        CommSummary {
            rounds_seen: stats.rounds_seen(),
            total_messages: stats.total_messages(),
            total_bytes: stats.total_bytes(),
            total_changed: stats.total_changed(),
        }
    }
}

/// What a job measured. Everything here is a deterministic function of
/// the spec (the determinism contract extended to jobs), so equality
/// across runs — or across service workers — is exact.
#[derive(Clone, Debug, PartialEq)]
pub enum JobOutput {
    /// A `run` job: one trajectory's endpoint.
    Run {
        /// Total rounds executed (burn-in included).
        rounds: u64,
        /// Number of vertices.
        n: usize,
        /// Whether the final configuration is feasible.
        feasible: bool,
        /// FNV-1a fingerprint of the final configuration.
        fingerprint: u64,
        /// Boundary-communication totals (sharded backend only).
        comm: Option<CommSummary>,
    },
    /// A `distribution` job: the empirical distribution's shape.
    Distribution {
        /// Replicas recorded.
        replicas: u64,
        /// Distinct configurations observed.
        support: usize,
    },
    /// A `tv` job: empirical distance to exact.
    Tv {
        /// Rounds per replica.
        rounds: usize,
        /// Replicas.
        replicas: usize,
        /// Empirical total-variation distance to the exact Gibbs
        /// distribution.
        tv: f64,
    },
    /// A `coalescence` job: grand-coupling summary.
    Coalescence {
        /// Trials run.
        trials: usize,
        /// Mean coalescence round over completed trials.
        mean_rounds: f64,
        /// Standard error of the mean.
        std_error: f64,
        /// Trials that exhausted the budget.
        timeouts: usize,
    },
    /// A `sample` job: the final configurations themselves — what the
    /// paper's samplers exist to produce.
    Sample {
        /// Total rounds executed per replica (burn-in included).
        rounds: u64,
        /// One packed configuration per replica, in replica order.
        states: Vec<StateBlob>,
    },
    /// A `stream` job's summary: the per-round states went out as
    /// [`JobEvent::State`](crate::service::JobEvent::State) events;
    /// the result records the stream's shape and the final
    /// fingerprint for cross-checking against a `run` job.
    Stream {
        /// Total rounds executed (burn-in included).
        rounds: u64,
        /// Rounds between deliveries.
        every: usize,
        /// Number of vertices per delivered state.
        n: usize,
        /// States delivered.
        states: u64,
        /// FNV-1a fingerprint of the final configuration.
        fingerprint: u64,
    },
}

impl JobOutput {
    /// The one scalar a sweep summarizes per job, chosen per kind:
    /// `run` → feasibility as 1.0/0.0 (so a sweep's mean is the
    /// feasibility rate), `distribution` → support size, `tv` → the
    /// TV distance, `coalescence` → mean coalescence rounds. A
    /// deterministic function of the output, so sweep summaries are
    /// covered by the determinism contract.
    #[must_use]
    pub fn metric(&self) -> f64 {
        match *self {
            JobOutput::Run { feasible, .. } => {
                if feasible {
                    1.0
                } else {
                    0.0
                }
            }
            JobOutput::Distribution { support, .. } => support as f64,
            JobOutput::Tv { tv, .. } => tv,
            JobOutput::Coalescence { mean_rounds, .. } => mean_rounds,
            JobOutput::Sample { ref states, .. } => states.len() as f64,
            JobOutput::Stream { states, .. } => states as f64,
        }
    }
}

impl fmt::Display for JobOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobOutput::Run {
                rounds,
                n,
                feasible,
                fingerprint,
                comm,
            } => {
                write!(
                    f,
                    "run: rounds={rounds} n={n} feasible={feasible} fingerprint={fingerprint:016x}"
                )?;
                if let Some(c) = comm {
                    write!(
                        f,
                        " messages={} bytes={} changed={}",
                        c.total_messages, c.total_bytes, c.total_changed
                    )?;
                }
                Ok(())
            }
            JobOutput::Distribution { replicas, support } => {
                write!(f, "distribution: replicas={replicas} support={support}")
            }
            JobOutput::Tv {
                rounds,
                replicas,
                tv,
            } => write!(f, "tv: rounds={rounds} replicas={replicas} tv={tv:.6}"),
            JobOutput::Coalescence {
                trials,
                mean_rounds,
                std_error,
                timeouts,
            } => write!(
                f,
                "coalescence: trials={trials} mean_rounds={mean_rounds:.2} \
                 se={std_error:.2} timeouts={timeouts}"
            ),
            JobOutput::Sample { rounds, states } => {
                // Human form: shape only — the blobs themselves go to
                // `--out`, not the terminal.
                let (n, bytes) = states
                    .first()
                    .map(|b| (b.n(), b.byte_len()))
                    .unwrap_or((0, 0));
                write!(
                    f,
                    "sample: rounds={rounds} count={} n={n} bytes-per-state={bytes}",
                    states.len()
                )
            }
            JobOutput::Stream {
                rounds,
                every,
                n,
                states,
                fingerprint,
            } => write!(
                f,
                "stream: rounds={rounds} every={every} n={n} states={states} \
                 fingerprint={fingerprint:016x}"
            ),
        }
    }
}

/// A finished job: the canonical spec it ran, what it measured, and
/// how long it took. Equality compares the spec and the output — the
/// wall-clock field is excluded, so bit-identity assertions between a
/// service run and a direct run are exact.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The canonical form of the spec that ran.
    pub spec: String,
    /// What the job measured.
    pub output: JobOutput,
    /// Wall-clock seconds (excluded from equality).
    pub elapsed_secs: f64,
}

impl PartialEq for JobResult {
    fn eq(&self, other: &Self) -> bool {
        self.spec == other.spec && self.output == other.output
    }
}

// ---------------------------------------------------------------------
// Sweeps: one spec line, many deterministic jobs
// ---------------------------------------------------------------------

/// Cap on the jobs one sweep line may expand into — a typo like
/// `seeds=0..999999999` must be a parse error, not a queue flood.
pub const MAX_SWEEP_JOBS: usize = 4096;

/// The seed-range clause key.
const SEEDS: &str = "seeds";
/// The parameter-ladder clause key.
const SWEEP: &str = "sweep";

/// A `sweep=param:start..end:step` clause: an inclusive arithmetic
/// ladder of values for one real-valued model argument.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ParamSweep {
    /// The swept argument, by its key in the model's row (`beta`,
    /// `lambda`).
    pub param: &'static str,
    /// First value.
    pub start: f64,
    /// Last value covered (inclusive up to float rounding).
    pub end: f64,
    /// Ladder step (must be > 0).
    pub step: f64,
}

impl ParamSweep {
    fn parse(value: &str) -> Result<Self, SpecError> {
        let (name, rest) = value.split_once(':').ok_or_else(|| {
            bad(
                SWEEP,
                format!("expected param:start..end:step, got {value:?}"),
            )
        })?;
        let params = ModelSpec::real_params();
        let param = params.iter().copied().find(|&p| p == name).ok_or_else(|| {
            bad(
                SWEEP,
                format!(
                    "unknown sweep parameter {name:?} (expected {})",
                    params.join(" | ")
                ),
            )
        })?;
        let (range, step) = rest
            .rsplit_once(':')
            .ok_or_else(|| bad(SWEEP, format!("expected start..end:step, got {rest:?}")))?;
        let (start, end) = range
            .split_once("..")
            .ok_or_else(|| bad(SWEEP, format!("expected start..end, got {range:?}")))?;
        let sweep = ParamSweep {
            param,
            start: parse_num(SWEEP, start)?,
            end: parse_num(SWEEP, end)?,
            step: parse_num(SWEEP, step)?,
        };
        if !(sweep.step > 0.0) || !sweep.step.is_finite() {
            return Err(bad(SWEEP, "sweep step must be a finite number > 0"));
        }
        if !(sweep.end >= sweep.start) || !sweep.end.is_finite() {
            return Err(bad(SWEEP, "sweep needs start <= end"));
        }
        // Compared as a float: the count of a ladder like 1..1e308:1e-300
        // is past any integer.
        if !(sweep.count() <= MAX_SWEEP_JOBS as f64) {
            return Err(bad(
                SWEEP,
                format!(
                    "sweep expands to {} values (cap {MAX_SWEEP_JOBS})",
                    sweep.count()
                ),
            ));
        }
        Ok(sweep)
    }

    /// The number of ladder values, as a float (possibly infinite).
    fn count(&self) -> f64 {
        // A hair of slack so 0.1..0.5:0.1 yields five values despite
        // binary rounding of the quotient.
        ((self.end - self.start) / self.step + 1e-9).floor() + 1.0
    }

    /// Number of ladder values (saturating).
    #[must_use]
    pub fn len(&self) -> usize {
        self.count() as usize
    }

    /// Whether the ladder is empty (never for a parsed sweep).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ladder values, computed as `start + i·step` (no running
    /// accumulation, so every value is a pure function of its index).
    #[must_use]
    pub fn values(&self) -> Vec<f64> {
        (0..self.len())
            .map(|i| self.start + i as f64 * self.step)
            .collect()
    }

    /// `model` with the swept argument set to `value`, range-checked by
    /// the model's row.
    fn apply(&self, model: &ModelSpec, value: f64) -> Result<ModelSpec, SpecError> {
        match model.with_arg(self.param, &value.to_string()) {
            None => Err(bad(
                SWEEP,
                format!("model {model} has no {} parameter", self.param),
            )),
            Some(Ok(model)) => Ok(model),
            Some(Err(SpecError::BadValue { message, .. })) => {
                Err(bad(SWEEP, format!("{}={value}: {message}", self.param)))
            }
            Some(Err(e)) => Err(bad(SWEEP, e.to_string())),
        }
    }
}

impl fmt::Display for ParamSweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}..{}:{}",
            self.param, self.start, self.end, self.step
        )
    }
}

/// A spec line that may expand into many jobs: a base [`JobSpec`] plus
/// the sweep clauses `seeds=a..b` (half-open seed range) and
/// `sweep=param:start..end:step` (model-parameter ladder). Expansion
/// ([`SweepSpec::expand`]) is deterministic — member `i` is a plain
/// [`JobSpec`] equal to what a hand-written single-job line would
/// produce, so sweep answers are covered by the bit-identity contract.
///
/// A line with neither clause is a single job ([`SweepSpec::is_single`]).
#[derive(Clone, Debug, PartialEq)]
pub struct SweepSpec {
    /// The job template (its `seed=` / model parameters are what the
    /// clauses override per member).
    pub base: JobSpec,
    /// `seeds=a..b`: member seeds `a, a+1, .., b-1`.
    pub seeds: Option<(u64, u64)>,
    /// `sweep=param:start..end:step`: the parameter ladder.
    pub sweep: Option<ParamSweep>,
}

impl SweepSpec {
    /// Wraps a single job (no sweep clauses).
    pub fn single(base: JobSpec) -> Self {
        SweepSpec {
            base,
            seeds: None,
            sweep: None,
        }
    }

    /// Whether the line is a plain single job.
    #[must_use]
    pub fn is_single(&self) -> bool {
        self.seeds.is_none() && self.sweep.is_none()
    }

    /// How many jobs the line expands into.
    #[must_use]
    pub fn job_count(&self) -> usize {
        let seeds = self.seeds.map_or(1, |(a, b)| b.saturating_sub(a) as usize);
        let values = self.sweep.map_or(1, |s| s.len());
        seeds.saturating_mul(values)
    }

    /// Expands into member jobs, seed-major: member `i` covers seed
    /// index `i / values` and ladder index `i % values`. Every member
    /// is an ordinary [`JobSpec`]; running it alone gives the same
    /// answer as running it inside the sweep.
    #[must_use]
    pub fn expand(&self) -> Vec<JobSpec> {
        let seeds: Vec<Option<u64>> = match self.seeds {
            Some((a, b)) => (a..b).map(Some).collect(),
            None => vec![None],
        };
        let models: Vec<ModelSpec> = match self.sweep {
            // Parse-time validation admits every ladder value.
            Some(s) => s
                .values()
                .into_iter()
                .map(|v| s.apply(&self.base.model, v).unwrap_or(self.base.model))
                .collect(),
            None => vec![self.base.model],
        };
        let mut jobs = Vec::with_capacity(seeds.len() * models.len());
        for &seed in &seeds {
            for &model in &models {
                let mut spec = self.base.clone();
                if let Some(seed) = seed {
                    spec.seed = Some(seed);
                }
                spec.model = model;
                jobs.push(spec);
            }
        }
        jobs
    }
}

impl fmt::Display for SweepSpec {
    /// Canonical form: the base spec, then `seeds=`, then `sweep=`.
    /// Parsing the printed form reproduces the identical sweep.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.base)?;
        if let Some((a, b)) = self.seeds {
            write!(f, " {SEEDS}={a}..{b}")?;
        }
        if let Some(s) = self.sweep {
            write!(f, " {SWEEP}={s}")?;
        }
        Ok(())
    }
}

/// Parses the value of `seeds=`: a non-empty half-open range within
/// the sweep cap.
fn parse_seeds(value: &str) -> Result<(u64, u64), SpecError> {
    let (a, b) = value
        .split_once("..")
        .ok_or_else(|| bad(SEEDS, format!("expected a half-open a..b, got {value:?}")))?;
    let a = parse_num::<u64>(SEEDS, a)?;
    let b = parse_num::<u64>(SEEDS, b)?;
    if b <= a {
        return Err(bad(SEEDS, format!("empty seed range {a}..{b}")));
    }
    if b - a > MAX_SWEEP_JOBS as u64 {
        return Err(bad(
            SEEDS,
            format!("{} seeds requested (cap {MAX_SWEEP_JOBS})", b - a),
        ));
    }
    Ok((a, b))
}

impl FromStr for SweepSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut seeds: Option<(u64, u64)> = None;
        let mut sweep: Option<ParamSweep> = None;
        let mut base_tokens: Vec<&str> = Vec::new();
        for token in s.split_whitespace() {
            match token.split_once('=') {
                Some((SEEDS, value)) => {
                    fresh(&seeds, SEEDS)?;
                    seeds = Some(parse_seeds(value)?);
                }
                Some((SWEEP, value)) => {
                    fresh(&sweep, SWEEP)?;
                    sweep = Some(ParamSweep::parse(value)?);
                }
                _ => base_tokens.push(token),
            }
        }
        let base: JobSpec = base_tokens.join(" ").parse()?;
        if let Some(s) = sweep {
            for v in s.values() {
                s.apply(&base.model, v)?;
            }
        }
        if seeds.is_some() && base.seed.is_some() {
            return Err(bad(SEEDS, "seeds=a..b replaces seed=, give one of them"));
        }
        let sweep = SweepSpec { base, seeds, sweep };
        if sweep.job_count() > MAX_SWEEP_JOBS {
            return Err(bad(
                SWEEP,
                format!(
                    "line expands to {} jobs (cap {MAX_SWEEP_JOBS})",
                    sweep.job_count()
                ),
            ));
        }
        Ok(sweep)
    }
}

/// Per-sweep aggregate of the member jobs' [`JobOutput::metric`]s.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepSummary {
    /// Member jobs aggregated.
    pub jobs: usize,
    /// Mean metric.
    pub mean: f64,
    /// Smallest metric.
    pub min: f64,
    /// Largest metric.
    pub max: f64,
}

impl fmt::Display for SweepSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sweep: jobs={} mean={:.6} min={:.6} max={:.6}",
            self.jobs, self.mean, self.min, self.max
        )
    }
}

/// All results of one expanded sweep line: the member results in
/// expansion order plus the metric summary. A deterministic function
/// of the sweep spec (every member is), so sweep answers can be
/// asserted bit-identical across services, backends, and the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepResult {
    /// The canonical sweep line.
    pub spec: String,
    /// Member results, indexed by expansion order.
    pub results: Vec<JobResult>,
    /// Aggregate over the members' [`JobOutput::metric`]s.
    pub summary: SweepSummary,
}

impl SweepResult {
    /// Aggregates member results (in expansion order) into a sweep
    /// result.
    ///
    /// # Panics
    /// Panics if `results` is empty (expansion always yields ≥ 1 job).
    #[must_use]
    pub fn aggregate(spec: String, results: Vec<JobResult>) -> Self {
        assert!(!results.is_empty(), "a sweep has at least one member");
        let metrics: Vec<f64> = results.iter().map(|r| r.output.metric()).collect();
        let mean = metrics.iter().sum::<f64>() / metrics.len() as f64;
        let min = metrics.iter().copied().fold(f64::INFINITY, f64::min);
        let max = metrics.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        SweepResult {
            spec,
            summary: SweepSummary {
                jobs: results.len(),
                mean,
                min,
                max,
            },
            results,
        }
    }
}

// ---------------------------------------------------------------------
// The scenario registry
// ---------------------------------------------------------------------

/// The kinds [`SpecError::UnknownScenario`] names.
pub(crate) const SCENARIO_KINDS: [&str; 3] = [GraphSpec::KIND, ModelSpec::KIND, JobKind::KIND];

/// The scenario names of `kind`, in declaration order.
fn scenario_names(kind: &str) -> &'static [&'static str] {
    let vocabularies = [
        (GraphSpec::KIND, GraphSpec::NAMES),
        (ModelSpec::KIND, ModelSpec::NAMES),
        (JobKind::KIND, JobKind::NAMES),
    ];
    vocabularies
        .into_iter()
        .find(|&(k, _)| k == kind)
        .map_or(&[], |(_, names)| names)
}

/// One line of the registry: a key, one syntax it accepts, and what
/// that syntax means.
#[derive(Clone, Debug)]
pub struct ScenarioEntry {
    /// The spec key the syntax appears under.
    pub key: &'static str,
    /// The accepted syntax, e.g. `torus:<rows>x<cols>`.
    pub syntax: String,
    /// What the scenario is, with its defaults and ranges.
    pub summary: String,
}

/// The registry of everything the spec grammar accepts, walked from
/// the key table and the scenario rows — the data behind
/// `lsl list scenarios`.
pub struct ScenarioRegistry;

impl ScenarioRegistry {
    /// Every key's accepted syntaxes, grouped by key in canonical
    /// order, then the sweep clauses.
    pub fn entries() -> Vec<ScenarioEntry> {
        let mut out = job_key_entries();
        out.push(ScenarioEntry {
            key: SEEDS,
            syntax: "<a>..<b>".into(),
            summary: format!(
                "expand the line into one job per seed in [a, b) [cap {MAX_SWEEP_JOBS}]"
            ),
        });
        out.push(ScenarioEntry {
            key: SWEEP,
            syntax: format!(
                "<{}>:<start>..<end>:<step>",
                ModelSpec::real_params().join("|")
            ),
            summary: format!(
                "expand into one job per model-parameter value [cap {MAX_SWEEP_JOBS}]"
            ),
        });
        out
    }

    /// A ready-to-print listing, grouped by key.
    pub fn render() -> String {
        let mut out = String::new();
        let mut last: Option<&str> = None;
        for e in Self::entries() {
            if last != Some(e.key) {
                if last.is_some() {
                    out.push('\n');
                }
                out.push_str(&format!("{}=\n", e.key));
                last = Some(e.key);
            }
            // A long syntax gets the summary on a line of its own.
            let syntax = if e.syntax.len() > 42 {
                format!("{}\n  {:42}", e.syntax, "")
            } else {
                e.syntax
            };
            out.push_str(&format!("  {syntax:42} {}\n", e.summary));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> JobSpec {
        s.parse::<JobSpec>().unwrap()
    }

    #[test]
    fn parses_the_readme_spec() {
        let spec = parse(
            "graph=torus:8x8 model=ising:beta=0.4 algorithm=local-metropolis \
             backend=sharded:4 seed=7 job=run:rounds=200",
        );
        assert_eq!(spec.graph, GraphSpec::Torus { rows: 8, cols: 8 });
        assert_eq!(spec.model, ModelSpec::Ising { beta: 0.4 });
        assert_eq!(spec.algorithm, Some(Algorithm::LocalMetropolis));
        assert_eq!(spec.backend, Some(Backend::Sharded { shards: 4 }));
        assert_eq!(spec.seed, Some(7));
        assert_eq!(spec.job, Some(JobKind::Run { rounds: 200 }));
    }

    #[test]
    fn print_parse_is_identity() {
        for s in [
            "graph=cycle:12 model=coloring:q=5",
            "graph=torus:8x8 model=ising:beta=0.4 algorithm=luby-glauber \
             scheduler=bernoulli:0.25 backend=parallel:3 seed=9 burn-in=10 \
             job=run:rounds=50",
            "graph=gnp:n=32,p=0.2 model=hardcore:lambda=1.5 graph-seed=3 \
             job=coalescence:trials=2,max-rounds=100000",
            "graph=random-regular:n=16,d=4 model=potts:q=3,beta=0.5 \
             backend=sharded:0 partitioner=bfs",
            "graph=path:6 model=dominating-set job=run:rounds=40",
            "graph=cycle:7 model=mis algorithm=luby-glauber",
            "graph=grid:4x5 model=list-coloring:q=8,size=4 seed=2",
        ] {
            let spec = parse(s);
            let printed = spec.to_string();
            assert_eq!(parse(&printed), spec, "round-trip failed for {s:?}");
            assert_eq!(printed.parse::<JobSpec>().unwrap().to_string(), printed);
        }
    }

    #[test]
    fn graph_sizes_past_u32_are_parse_errors() {
        // Each line is well formed; built, its size would panic the
        // graph builder (u32 assert, or `n + 1` wrapping to 0).
        for line in [
            "graph=complete:5000000000 model=ising:beta=0.4",
            "graph=star:18446744073709551615 model=ising:beta=0.4",
            "graph=book:18446744073709551615 model=ising:beta=0.4",
            "graph=torus:70000x70000 model=ising:beta=0.4",
        ] {
            match line.parse::<JobSpec>() {
                Err(SpecError::BadValue { key, .. }) => assert_eq!(key, "graph", "{line}"),
                other => panic!("{line} should be a bad graph value, got {other:?}"),
            }
        }
        let sizes = [
            ("star:4", 5),
            ("book:3", 5),
            ("caterpillar:3x2", 9),
            ("complete-bipartite:2x3", 5),
            ("hypercube:4", 16),
            ("torus:3x4", 12),
        ];
        for (graph, n) in sizes {
            let spec = GraphSpec::parse(graph).unwrap();
            assert_eq!(spec.num_vertices(), Some(n), "{graph}");
            assert_eq!(spec.build(0).num_vertices(), n, "{graph}");
        }
    }

    #[test]
    fn typed_errors_cover_the_failure_modes() {
        assert!(matches!(
            "graph=torus:8x8".parse::<JobSpec>(),
            Err(SpecError::MissingKey { key: "model" })
        ));
        assert!(matches!(
            "model=mis".parse::<JobSpec>(),
            Err(SpecError::MissingKey { key: "graph" })
        ));
        assert!(matches!(
            "graph=torus:8x8 model=mis frobnicate=1".parse::<JobSpec>(),
            Err(SpecError::UnknownKey { .. })
        ));
        assert!(matches!(
            "graph=torus:8x8 model=mis graph=cycle:5".parse::<JobSpec>(),
            Err(SpecError::DuplicateKey { .. })
        ));
        assert!(matches!(
            "graph=moebius:9 model=mis".parse::<JobSpec>(),
            Err(SpecError::UnknownScenario {
                kind: "graph family",
                ..
            })
        ));
        assert!(matches!(
            "graph=torus:2x8 model=mis".parse::<JobSpec>(),
            Err(SpecError::BadValue { .. })
        ));
        // Empty vertex sets are parse errors, not worker panics: a
        // replica job on a 0-vertex model would assert in the engine.
        for empty in [
            "graph=path:0",
            "graph=complete:0",
            "graph=grid:0x4",
            "graph=caterpillar:0x2",
            "graph=gnp:n=0,p=0.5",
            "graph=random-tree:n=0",
        ] {
            assert!(
                matches!(
                    format!("{empty} model=coloring:q=3").parse::<JobSpec>(),
                    Err(SpecError::BadValue { .. })
                ),
                "{empty} should be rejected at parse time"
            );
        }
        // Hypercube dimensions are parsed as u32 (no usize wraparound
        // past the cap).
        assert!(matches!(
            "graph=hypercube:4294967296 model=mis".parse::<JobSpec>(),
            Err(SpecError::BadValue { .. })
        ));
        assert!(matches!(
            "graph=torus:8x8 model=ising:beta=0.4 nonsense".parse::<JobSpec>(),
            Err(SpecError::NotKeyValue { .. })
        ));
        assert!(matches!(
            "graph=cycle:8 model=potts:q=3".parse::<JobSpec>(),
            Err(SpecError::BadValue { .. }) // missing beta: bad arity
        ));
        // Facade rejections surface as wrapped BuildErrors at run time.
        let spec = parse("graph=cycle:8 model=coloring:q=5 algorithm=glauber scheduler=luby");
        assert!(matches!(spec.run(), Err(SpecError::Combo(_))));
    }

    #[test]
    fn run_job_reports_a_feasible_sample() {
        let spec = parse("graph=torus:6x6 model=coloring:q=12 seed=5 job=run:rounds=60");
        let result = spec.run().unwrap();
        match result.output {
            JobOutput::Run {
                rounds,
                n,
                feasible,
                comm,
                ..
            } => {
                assert_eq!(rounds, 60);
                assert_eq!(n, 36);
                assert!(feasible);
                assert!(comm.is_none(), "flat backends have no comm record");
            }
            other => panic!("wrong output: {other:?}"),
        }
    }

    #[test]
    fn soft_model_runs_report_feasible_past_weight_underflow() {
        // The final state's weight underflows f64 on a 32x32 torus;
        // feasibility must not.
        let spec = parse("graph=torus:32x32 model=ising:beta=0.4 job=run:rounds=50");
        match spec.run().unwrap().output {
            JobOutput::Run { feasible, .. } => assert!(feasible),
            other => panic!("wrong output: {other:?}"),
        }
    }

    #[test]
    fn sharded_run_reports_comm_and_matches_sequential() {
        let seq = parse("graph=torus:6x6 model=coloring:q=12 seed=5 job=run:rounds=30");
        let sharded = parse(
            "graph=torus:6x6 model=coloring:q=12 seed=5 backend=sharded:4 \
             partitioner=bfs job=run:rounds=30",
        );
        let a = seq.run().unwrap();
        let b = sharded.run().unwrap();
        let (fa, fb) = match (&a.output, &b.output) {
            (
                JobOutput::Run {
                    fingerprint: fa, ..
                },
                JobOutput::Run {
                    fingerprint: fb,
                    comm,
                    ..
                },
            ) => {
                assert!(comm.expect("sharded has comm").total_messages > 0);
                (*fa, *fb)
            }
            other => panic!("wrong outputs: {other:?}"),
        };
        assert_eq!(fa, fb, "backends must not change the trajectory");
    }

    #[test]
    fn csp_scenarios_run_feasibly() {
        for s in [
            "graph=path:5 model=dominating-set job=run:rounds=60",
            "graph=cycle:6 model=mis job=run:rounds=40",
            "graph=cycle:6 model=mis algorithm=local-metropolis job=run:rounds=40",
        ] {
            let result = parse(s).run().unwrap();
            match result.output {
                JobOutput::Run { feasible, .. } => assert!(feasible, "{s} left feasibility"),
                other => panic!("wrong output: {other:?}"),
            }
        }
    }

    #[test]
    fn tv_job_matches_direct_facade_call() {
        let spec = parse(
            "graph=cycle:4 model=coloring:q=3 algorithm=luby-glauber seed=99 \
             job=tv:rounds=40,replicas=2000",
        );
        let result = spec.run().unwrap();
        let model = spec.build_model();
        let mrf = match &model {
            BuiltModel::Mrf(m) => Arc::clone(m),
            _ => unreachable!(),
        };
        let exact = Enumeration::new(&mrf).unwrap();
        let direct = Sampler::for_mrf(mrf)
            .algorithm(Algorithm::LubyGlauber)
            .seed(99)
            .tv(&exact, 40, 2000)
            .unwrap();
        match result.output {
            JobOutput::Tv { tv, .. } => assert_eq!(tv, direct, "spec and facade diverged"),
            other => panic!("wrong output: {other:?}"),
        }
    }

    #[test]
    fn model_cache_key_distinguishes_seeded_families() {
        let a = parse("graph=gnp:n=16,p=0.3 model=coloring:q=9 seed=1");
        let b = parse("graph=gnp:n=16,p=0.3 model=coloring:q=9 seed=2");
        assert_ne!(a.model_key(), b.model_key(), "gnp depends on the seed");
        let c = parse("graph=torus:4x4 model=coloring:q=9 seed=1");
        let d = parse("graph=torus:4x4 model=coloring:q=9 seed=2");
        assert_eq!(
            c.model_key(),
            d.model_key(),
            "deterministic families share builds"
        );
    }

    #[test]
    fn registry_names_parse_back() {
        // Every graph syntax line's name (before ':') is accepted by the
        // parser (with example arguments) — the registry cannot rot.
        let known_graphs = [
            "path:5",
            "cycle:5",
            "complete:4",
            "complete-bipartite:2x3",
            "star:4",
            "grid:3x4",
            "torus:3x3",
            "hypercube:3",
            "book:3",
            "caterpillar:3x2",
            "gnp:n=8,p=0.5",
            "random-regular:n=8,d=2",
            "random-tree:n=8",
        ];
        let graph_entries = ScenarioRegistry::entries()
            .iter()
            .filter(|e| e.key == "graph")
            .count();
        assert_eq!(known_graphs.len(), graph_entries);
        for g in known_graphs {
            GraphSpec::parse(g).unwrap();
        }
        let known_models = [
            "coloring:q=4",
            "list-coloring:q=4,size=2",
            "hardcore:lambda=1",
            "independent-set",
            "vertex-cover",
            "ising:beta=0.5",
            "potts:q=3,beta=0.5",
            "dominating-set",
            "mis",
        ];
        let model_entries = ScenarioRegistry::entries()
            .iter()
            .filter(|e| e.key == "model")
            .count();
        assert_eq!(known_models.len(), model_entries);
        for m in known_models {
            ModelSpec::parse(m).unwrap();
        }
        assert!(ScenarioRegistry::render().contains("torus:<rows>x<cols>"));
    }

    #[test]
    fn greedy_mis_start_is_feasible() {
        for s in ["graph=cycle:9 model=mis", "graph=star:5 model=mis"] {
            let spec = parse(s);
            match spec.build_model() {
                BuiltModel::Csp { csp, start } => assert!(csp.is_feasible(&start), "{s}"),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn model_preconditions_are_parse_errors() {
        // Each line used to parse, then abort the process, panic the job
        // or report a meaningless value; the descriptor ranges now
        // reject them before anything is built.
        for (line, key) in [
            ("graph=cycle:5 model=coloring:q=70000", "model"),
            ("graph=cycle:5 model=coloring:q=5000000000", "model"),
            (
                "graph=cycle:5 model=list-coloring:q=5000000000,size=2",
                "model",
            ),
            ("graph=cycle:5 model=potts:q=70000,beta=0.5", "model"),
            ("graph=cycle:5 model=ising:beta=inf", "model"),
            ("graph=cycle:5 model=potts:q=3,beta=inf", "model"),
            ("graph=cycle:5 model=hardcore:lambda=inf", "model"),
            (
                "graph=cycle:5 model=coloring:q=3 job=tv:rounds=1,replicas=0",
                "job",
            ),
            (
                "graph=cycle:5 model=coloring:q=3 job=distribution:rounds=1,replicas=0",
                "job",
            ),
            (
                "graph=cycle:5 model=coloring:q=3 job=coalescence:trials=0,max-rounds=10",
                "job",
            ),
        ] {
            match line.parse::<JobSpec>() {
                Err(SpecError::BadValue { key: k, .. }) => assert_eq!(k, key, "{line}"),
                other => panic!("{line} should be a bad {key} value, got {other:?}"),
            }
        }
        // The cap itself builds and runs.
        let spec = parse("graph=path:2 model=coloring:q=1024 job=run:rounds=1");
        assert!(spec.run().is_ok());
    }

    #[test]
    fn overflowing_sweep_ladders_are_parse_errors() {
        // 1e308 values: cast to usize and incremented, the count used to
        // wrap to an empty sweep (or panic in a debug build).
        let line = "graph=cycle:5 model=ising:beta=0.4 sweep=beta:1..1e308:1e-300";
        match line.parse::<SweepSpec>() {
            Err(SpecError::BadValue { key, .. }) => assert_eq!(key, "sweep"),
            other => panic!("expected a bad sweep value, got {other:?}"),
        }
        let at_cap: SweepSpec = "graph=cycle:5 model=ising:beta=0.4 sweep=beta:1..4096:1"
            .parse()
            .unwrap();
        assert_eq!(at_cap.job_count(), MAX_SWEEP_JOBS);
        assert!("graph=cycle:5 model=ising:beta=0.4 sweep=beta:1..4097:1"
            .parse::<SweepSpec>()
            .is_err());
    }

    #[test]
    fn registry_lists_every_key_and_errors_name_the_rows() {
        let listing = ScenarioRegistry::render();
        for key in JOB_KEYS.iter().chain(&[SEEDS, SWEEP]) {
            assert!(listing.contains(&format!("{key}=\n")), "{key} missing");
        }
        assert!(listing.contains("hypercube:<dim>"));
        let unknown = "graph=moebius:9 model=mis".parse::<JobSpec>().unwrap_err();
        assert!(unknown.to_string().contains("path | cycle"), "{unknown}");
        let key = "graph=cycle:5 model=mis colour=1"
            .parse::<JobSpec>()
            .unwrap_err();
        assert!(key.to_string().contains("hotpath | seed"), "{key}");
        let sweep = "graph=cycle:5 model=mis sweep=q:1..2:1".parse::<SweepSpec>();
        assert!(matches!(sweep, Err(SpecError::BadValue { key, .. }) if key == "sweep"));
    }
}
