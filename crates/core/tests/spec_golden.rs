//! The spec grammar, pinned: one valid line per graph family, model and
//! job with its exact canonical print and model key, one row per
//! malformed shape with the typed error it must produce, and hostile
//! input (arbitrary strings, mutated canonical lines) that must parse
//! to a typed answer — never a panic — whose print is a fixed point.
//!
//! Rows are only ever added to these tables: an edit to an existing
//! row is a change of the spec language, not a refactor.

use lsl_core::spec::{SpecError, SweepSpec};
use proptest::prelude::*;

/// `(line, canonical print, model_key())`: every graph family, model
/// and job verb at least once, plus every top-level key and both sweep
/// clauses.
const VALID: &[(&str, &str, &str)] = &[
    // graph families
    (
        "graph=path:6 model=coloring:q=5",
        "graph=path:6 model=coloring:q=5",
        "graph=path:6 model=coloring:q=5",
    ),
    (
        "graph=cycle:5 model=coloring:q=3 seed=4",
        "graph=cycle:5 model=coloring:q=3 seed=4",
        "graph=cycle:5 model=coloring:q=3",
    ),
    (
        "graph=complete:4 model=coloring:q=5",
        "graph=complete:4 model=coloring:q=5",
        "graph=complete:4 model=coloring:q=5",
    ),
    (
        "graph=complete-bipartite:2x3 model=ising:beta=0.5",
        "graph=complete-bipartite:2x3 model=ising:beta=0.5",
        "graph=complete-bipartite:2x3 model=ising:beta=0.5",
    ),
    (
        "graph=star:4 model=vertex-cover",
        "graph=star:4 model=vertex-cover",
        "graph=star:4 model=vertex-cover",
    ),
    (
        "graph=grid:3x4 model=hardcore:lambda=1.5",
        "graph=grid:3x4 model=hardcore:lambda=1.5",
        "graph=grid:3x4 model=hardcore:lambda=1.5",
    ),
    (
        "graph=torus:8x8 model=ising:beta=0.4",
        "graph=torus:8x8 model=ising:beta=0.4",
        "graph=torus:8x8 model=ising:beta=0.4",
    ),
    (
        "graph=hypercube:3 model=independent-set",
        "graph=hypercube:3 model=independent-set",
        "graph=hypercube:3 model=independent-set",
    ),
    (
        "graph=book:3 model=mis",
        "graph=book:3 model=mis",
        "graph=book:3 model=mis",
    ),
    (
        "graph=caterpillar:3x2 model=dominating-set",
        "graph=caterpillar:3x2 model=dominating-set",
        "graph=caterpillar:3x2 model=dominating-set",
    ),
    (
        "graph=gnp:p=0.25,n=16 model=coloring:q=9 seed=3",
        "graph=gnp:n=16,p=0.25 model=coloring:q=9 seed=3",
        "graph=gnp:n=16,p=0.25 model=coloring:q=9 graph-seed=3",
    ),
    (
        "graph=random-regular:n=10,d=3 model=potts:q=3,beta=1.5 graph-seed=7",
        "graph=random-regular:n=10,d=3 model=potts:q=3,beta=1.5 graph-seed=7",
        "graph=random-regular:n=10,d=3 model=potts:q=3,beta=1.5 graph-seed=7",
    ),
    (
        "graph=random-tree:n=12 model=ising:beta=2",
        "graph=random-tree:n=12 model=ising:beta=2",
        "graph=random-tree:n=12 model=ising:beta=2 graph-seed=0",
    ),
    // models
    (
        "graph=cycle:6 model=coloring:q=4",
        "graph=cycle:6 model=coloring:q=4",
        "graph=cycle:6 model=coloring:q=4",
    ),
    (
        "graph=grid:4x5 model=list-coloring:size=4,q=8 seed=2",
        "graph=grid:4x5 model=list-coloring:q=8,size=4 seed=2",
        "graph=grid:4x5 model=list-coloring:q=8,size=4 graph-seed=2",
    ),
    (
        "graph=cycle:6 model=hardcore:lambda=0.50",
        "graph=cycle:6 model=hardcore:lambda=0.5",
        "graph=cycle:6 model=hardcore:lambda=0.5",
    ),
    (
        "graph=cycle:6 model=independent-set",
        "graph=cycle:6 model=independent-set",
        "graph=cycle:6 model=independent-set",
    ),
    (
        "graph=cycle:6 model=vertex-cover",
        "graph=cycle:6 model=vertex-cover",
        "graph=cycle:6 model=vertex-cover",
    ),
    (
        "graph=cycle:6 model=ising:beta=1e-1",
        "graph=cycle:6 model=ising:beta=0.1",
        "graph=cycle:6 model=ising:beta=0.1",
    ),
    (
        "graph=cycle:6 model=potts:beta=0.5,q=3",
        "graph=cycle:6 model=potts:q=3,beta=0.5",
        "graph=cycle:6 model=potts:q=3,beta=0.5",
    ),
    (
        "graph=cycle:6 model=dominating-set",
        "graph=cycle:6 model=dominating-set",
        "graph=cycle:6 model=dominating-set",
    ),
    (
        "graph=cycle:6 model=mis",
        "graph=cycle:6 model=mis",
        "graph=cycle:6 model=mis",
    ),
    // jobs
    (
        "graph=cycle:6 model=mis job=run",
        "graph=cycle:6 model=mis job=run:rounds=100",
        "graph=cycle:6 model=mis",
    ),
    (
        "graph=cycle:6 model=mis job=run:rounds=7",
        "graph=cycle:6 model=mis job=run:rounds=7",
        "graph=cycle:6 model=mis",
    ),
    (
        "graph=cycle:6 model=coloring:q=4 job=distribution:replicas=50,rounds=10",
        "graph=cycle:6 model=coloring:q=4 job=distribution:rounds=10,replicas=50",
        "graph=cycle:6 model=coloring:q=4",
    ),
    (
        "graph=cycle:4 model=coloring:q=3 job=tv:rounds=40,replicas=2000",
        "graph=cycle:4 model=coloring:q=3 job=tv:rounds=40,replicas=2000",
        "graph=cycle:4 model=coloring:q=3",
    ),
    (
        "graph=cycle:6 model=ising:beta=0.4 job=coalescence:max-rounds=5000,trials=2",
        "graph=cycle:6 model=ising:beta=0.4 job=coalescence:trials=2,max-rounds=5000",
        "graph=cycle:6 model=ising:beta=0.4",
    ),
    (
        "graph=cycle:6 model=mis job=sample",
        "graph=cycle:6 model=mis job=sample:rounds=100,count=1",
        "graph=cycle:6 model=mis",
    ),
    (
        "graph=cycle:6 model=ising:beta=0.4 job=sample:count=3",
        "graph=cycle:6 model=ising:beta=0.4 job=sample:rounds=100,count=3",
        "graph=cycle:6 model=ising:beta=0.4",
    ),
    (
        "graph=cycle:6 model=mis job=stream:every=5",
        "graph=cycle:6 model=mis job=stream:rounds=100,every=5",
        "graph=cycle:6 model=mis",
    ),
    // every top-level key, given out of order
    (
        "job=run:rounds=50 burn-in=10 graph-seed=3 seed=9 hotpath=scalar partitioner=bfs \
         backend=sharded:2 scheduler=bernoulli:0.25 algorithm=luby-glauber \
         model=ising:beta=0.4 graph=torus:8x8",
        "graph=torus:8x8 model=ising:beta=0.4 algorithm=luby-glauber scheduler=bernoulli:0.25 \
         backend=sharded:2 partitioner=bfs hotpath=scalar seed=9 graph-seed=3 burn-in=10 \
         job=run:rounds=50",
        "graph=torus:8x8 model=ising:beta=0.4",
    ),
    // sweep clauses
    (
        "graph=cycle:12 model=coloring:q=5 job=run:rounds=20 seeds=0..4",
        "graph=cycle:12 model=coloring:q=5 job=run:rounds=20 seeds=0..4",
        "graph=cycle:12 model=coloring:q=5",
    ),
    (
        "sweep=beta:0.1..0.5:0.1 graph=torus:4x4 seeds=2..4 model=ising:beta=0.4",
        "graph=torus:4x4 model=ising:beta=0.4 seeds=2..4 sweep=beta:0.1..0.5:0.1",
        "graph=torus:4x4 model=ising:beta=0.4",
    ),
    (
        "graph=cycle:6 model=hardcore:lambda=1 sweep=lambda:0.5..2:0.5",
        "graph=cycle:6 model=hardcore:lambda=1 sweep=lambda:0.5..2:0.5",
        "graph=cycle:6 model=hardcore:lambda=1",
    ),
    // the largest q a model accepts
    (
        "graph=path:2 model=potts:q=1024,beta=2",
        "graph=path:2 model=potts:q=1024,beta=2",
        "graph=path:2 model=potts:q=1024,beta=2",
    ),
];

/// `(line, SpecError variant, key)`: the key is the error's `key`
/// field, or `kind` for `UnknownScenario` and `token` for
/// `NotKeyValue`.
#[rustfmt::skip]
const MALFORMED: &[(&str, &str, &str)] = &[
    // keys and tokens
    ("", "MissingKey", "graph"),
    ("graph=torus:8x8", "MissingKey", "model"),
    ("model=mis", "MissingKey", "graph"),
    ("graph=cycle:5 model=mis frobnicate=1", "UnknownKey", "frobnicate"),
    ("graph=cycle:5 model=mis =3", "UnknownKey", ""),
    ("graph=cycle:5 model=mis graph=cycle:6", "DuplicateKey", "graph"),
    ("graph=cycle:5 model=mis seed=1 seed=2", "DuplicateKey", "seed"),
    ("graph=cycle:5 model=mis nonsense", "NotKeyValue", "nonsense"),
    // unknown names
    ("graph=moebius:9 model=mis", "UnknownScenario", "graph family"),
    ("graph=cycle:5 model=spin-glass", "UnknownScenario", "model"),
    ("graph=cycle:5 model=mis job=frobnicate", "UnknownScenario", "job"),
    // graph arguments
    ("graph=cycle:2 model=mis", "BadValue", "graph"),
    ("graph=cycle model=mis", "BadValue", "graph"),
    ("graph=cycle: model=mis", "BadValue", "graph"),
    ("graph=cycle:x model=mis", "BadValue", "graph"),
    ("graph=torus:8 model=mis", "BadValue", "graph"),
    ("graph=torus:2x8 model=mis", "BadValue", "graph"),
    ("graph=torus:8x model=mis", "BadValue", "graph"),
    ("graph=grid:3x4x5 model=mis", "BadValue", "graph"),
    ("graph=hypercube:25 model=mis", "BadValue", "graph"),
    ("graph=hypercube:4294967296 model=mis", "BadValue", "graph"),
    ("graph=gnp:n=8 model=mis", "BadValue", "graph"),
    ("graph=gnp:n=8,p=1.5 model=mis", "BadValue", "graph"),
    ("graph=gnp:n=8,p=0.5,p=0.5 model=mis", "BadValue", "graph"),
    ("graph=gnp:n=8,q=0.5 model=mis", "BadValue", "graph"),
    ("graph=gnp:8,0.5 model=mis", "BadValue", "graph"),
    ("graph=random-regular:n=5,d=3 model=mis", "BadValue", "graph"),
    ("graph=random-regular:n=4,d=4 model=mis", "BadValue", "graph"),
    ("graph=path:0 model=mis", "BadValue", "graph"),
    ("graph=torus:70000x70000 model=mis", "BadValue", "graph"),
    ("graph=random-tree:n=-3 model=mis", "BadValue", "graph"),
    // model arguments
    ("graph=cycle:5 model=coloring", "BadValue", "model"),
    ("graph=cycle:5 model=coloring:q=1", "BadValue", "model"),
    ("graph=cycle:5 model=coloring:q=abc", "BadValue", "model"),
    ("graph=cycle:5 model=potts:q=3", "BadValue", "model"),
    ("graph=cycle:5 model=ising:beta=0", "BadValue", "model"),
    ("graph=cycle:5 model=ising:beta=NaN", "BadValue", "model"),
    ("graph=cycle:5 model=hardcore:lambda=-1", "BadValue", "model"),
    ("graph=cycle:5 model=list-coloring:q=4,size=5", "BadValue", "model"),
    ("graph=cycle:5 model=mis:x=1", "BadValue", "model"),
    ("graph=cycle:5 model=ising:beta=0.4,beta=0.5", "BadValue", "model"),
    // job arguments
    ("graph=cycle:5 model=mis job=run:rounds=x", "BadValue", "job"),
    ("graph=cycle:5 model=mis job=run:rounds=5,", "BadValue", "job"),
    ("graph=cycle:5 model=mis job=distribution", "BadValue", "job"),
    ("graph=cycle:5 model=mis job=sample:count=0", "BadValue", "job"),
    ("graph=cycle:5 model=mis job=stream:every=0", "BadValue", "job"),
    ("graph=cycle:5 model=mis job=coalescence:trials=2", "BadValue", "job"),
    // scalar and facade keys
    ("graph=cycle:5 model=mis seed=-1", "BadValue", "seed"),
    ("graph=cycle:5 model=mis graph-seed=x", "BadValue", "graph-seed"),
    ("graph=cycle:5 model=mis burn-in=1.5", "BadValue", "burn-in"),
    ("graph=cycle:5 model=mis algorithm=gibbs", "BadValue", "algorithm"),
    ("graph=cycle:5 model=mis scheduler=fifo", "BadValue", "scheduler"),
    ("graph=cycle:5 model=mis backend=gpu", "BadValue", "backend"),
    ("graph=cycle:5 model=mis partitioner=metis", "BadValue", "partitioner"),
    ("graph=cycle:5 model=mis hotpath=simd", "BadValue", "hotpath"),
    // seeds=
    ("graph=cycle:5 model=mis seeds=0..4 seeds=1..2", "DuplicateKey", "seeds"),
    ("graph=cycle:5 model=mis seeds=4..4", "BadValue", "seeds"),
    ("graph=cycle:5 model=mis seeds=0-4", "BadValue", "seeds"),
    ("graph=cycle:5 model=mis seeds=0..5000", "BadValue", "seeds"),
    ("graph=cycle:5 model=mis seed=1 seeds=0..2", "BadValue", "seeds"),
    // sweep=
    ("graph=cycle:5 model=ising:beta=0.4 sweep=beta:0.1..0.5", "BadValue", "sweep"),
    ("graph=cycle:5 model=ising:beta=0.4 sweep=gamma:0.1..0.5:0.1", "BadValue", "sweep"),
    ("graph=cycle:5 model=ising:beta=0.4 sweep=beta:0.5..0.1:0.1", "BadValue", "sweep"),
    ("graph=cycle:5 model=ising:beta=0.4 sweep=beta:0.1..0.5:0", "BadValue", "sweep"),
    ("graph=cycle:5 model=mis sweep=beta:0.1..0.5:0.1", "BadValue", "sweep"),
    ("graph=cycle:5 model=mis sweep=beta", "BadValue", "sweep"),
    (
        "graph=cycle:5 model=ising:beta=0.4 sweep=beta:0.1..0.5:0.1 sweep=beta:0.1..0.2:0.1",
        "DuplicateKey",
        "sweep",
    ),
    ("graph=cycle:5 model=ising:beta=0.4 sweep=beta:0.1..1000:0.1", "BadValue", "sweep"),
    (
        "graph=cycle:5 model=ising:beta=0.4 seeds=0..100 sweep=beta:0.1..10:0.1",
        "BadValue",
        "sweep",
    ),
    // model and job preconditions, checked by the descriptor ranges
    ("graph=cycle:5 model=coloring:q=70000", "BadValue", "model"),
    ("graph=cycle:5 model=coloring:q=5000000000", "BadValue", "model"),
    ("graph=cycle:5 model=list-coloring:q=5000000000,size=2", "BadValue", "model"),
    ("graph=cycle:5 model=potts:q=70000,beta=0.5", "BadValue", "model"),
    ("graph=cycle:5 model=ising:beta=inf", "BadValue", "model"),
    ("graph=cycle:5 model=potts:q=3,beta=inf", "BadValue", "model"),
    ("graph=cycle:5 model=hardcore:lambda=inf", "BadValue", "model"),
    ("graph=cycle:5 model=mis job=tv:rounds=1,replicas=0", "BadValue", "job"),
    ("graph=cycle:5 model=mis job=distribution:rounds=1,replicas=0", "BadValue", "job"),
    ("graph=cycle:5 model=mis job=coalescence:trials=0,max-rounds=10", "BadValue", "job"),
    ("graph=cycle:5 model=ising:beta=0.4 sweep=beta:1..1e308:1e-300", "BadValue", "sweep"),
    ("graph=cycle:5 model=ising:beta=0.4 sweep=beta:-1..0.5:0.5", "BadValue", "sweep"),
];

/// The variant name and its key-like field.
fn classify(e: &SpecError) -> (&'static str, String) {
    match e {
        SpecError::NotKeyValue { token } => ("NotKeyValue", token.clone()),
        SpecError::UnknownKey { key } => ("UnknownKey", key.clone()),
        SpecError::DuplicateKey { key } => ("DuplicateKey", key.clone()),
        SpecError::MissingKey { key } => ("MissingKey", key.to_string()),
        SpecError::UnknownScenario { kind, .. } => ("UnknownScenario", kind.to_string()),
        SpecError::BadValue { key, .. } => ("BadValue", key.clone()),
        other => ("other", format!("{other:?}")),
    }
}

#[test]
fn valid_lines_print_canonically() {
    for &(line, canonical, model_key) in VALID {
        let sweep: SweepSpec = line
            .parse()
            .unwrap_or_else(|e| panic!("{line:?} must parse: {e}"));
        assert_eq!(sweep.to_string(), canonical, "canonical print of {line:?}");
        assert_eq!(sweep.base.model_key(), model_key, "model key of {line:?}");
        let again: SweepSpec = canonical.parse().unwrap();
        assert_eq!(again, sweep, "the canonical form parses back to {line:?}");
    }
}

#[test]
fn malformed_lines_are_typed_errors() {
    assert!(MALFORMED.len() >= 40);
    for &(line, variant, key) in MALFORMED {
        match line.parse::<SweepSpec>() {
            Ok(s) => panic!("{line:?} parsed as {s}"),
            Err(e) => assert_eq!(
                classify(&e),
                (variant, key.to_string()),
                "{line:?} gave {e}"
            ),
        }
    }
}

/// Fragments of the grammar, glued at random into candidate lines.
const FRAGMENTS: &[&str] = &[
    "graph=",
    "model=",
    "job=",
    "seed=",
    "seeds=",
    "sweep=",
    "burn-in=",
    "graph-seed=",
    "algorithm=",
    "backend=",
    "hotpath=",
    "scheduler=",
    "partitioner=",
    "torus:",
    "cycle:",
    "gnp:",
    "hypercube:",
    "random-regular:",
    "coloring:",
    "list-coloring:",
    "potts:",
    "ising:",
    "hardcore:",
    "mis",
    "run",
    "tv:",
    "sample",
    "stream:",
    "coalescence:",
    "q=",
    "beta=",
    "lambda=",
    "n=",
    "p=",
    "d=",
    "size=",
    "rounds=",
    "replicas=",
    "count=",
    "every=",
    "trials=",
    "max-rounds=",
    "beta:",
    "lambda:",
    "..",
    "x",
    ":",
    ",",
    "=",
    " ",
    "0",
    "1",
    "3",
    "8",
    "24",
    "0.5",
    "1e308",
    "1e-300",
    "inf",
    "NaN",
    "-1",
    "18446744073709551615",
    "4294967296",
];

/// Characters a mutation splices in.
const ALPHABET: &[char] = &[
    '0', '1', '9', 'e', 'x', '-', '+', '=', ':', ',', '.', ' ', 'a', 'β',
];

fn mutate(line: &str, op: u8, at: usize, pick: usize) -> String {
    let mut chars: Vec<char> = line.chars().collect();
    let at = at % (chars.len() + 1);
    let c = ALPHABET[pick % ALPHABET.len()];
    match op % 4 {
        0 if at < chars.len() => chars[at] = c,
        1 => chars.insert(at, c),
        2 if at < chars.len() => {
            chars.remove(at);
        }
        _ => chars.truncate(at),
    }
    chars.into_iter().collect()
}

/// Any line parses to a typed answer; an accepted one prints to a
/// fixed point of print ∘ parse.
fn check_line(line: &str) {
    if let Ok(sweep) = line.parse::<SweepSpec>() {
        let printed = sweep.to_string();
        let again = printed
            .parse::<SweepSpec>()
            .unwrap_or_else(|e| panic!("{line:?} printed as unparseable {printed:?}: {e}"));
        prop_assert_eq!(again.to_string(), printed);
        prop_assert!(sweep.job_count() >= 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn arbitrary_strings_never_panic_the_parser(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        check_line(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn glued_fragments_never_panic_the_parser(
        picks in proptest::collection::vec(any::<usize>(), 1..24),
    ) {
        let line: String = picks.iter().map(|&i| FRAGMENTS[i % FRAGMENTS.len()]).collect();
        check_line(&line);
    }

    #[test]
    fn mutated_canonical_lines_are_errors_or_fixed_points(
        pick in any::<usize>(),
        edits in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..4),
    ) {
        let mut line = VALID[pick % VALID.len()].1.to_string();
        for (op, at, c) in edits {
            line = mutate(&line, op, at, c);
        }
        check_line(&line);
    }
}
