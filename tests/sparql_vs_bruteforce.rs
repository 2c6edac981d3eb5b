//! Property tests: the SPARQL engine agrees with naive reference
//! evaluators on random graphs and random queries. A hand-rolled
//! backtracking join pins down conjunctive patterns; the brute-force oracle
//! of `tests/bruteforce` covers OPTIONAL, UNION, MINUS, `FILTER [NOT]
//! EXISTS`, sub-selects, `/`, `^`, `|` and `+` paths, and GROUP BY with
//! COUNT, SUM, MIN and MAX. Both run with and without the join-order
//! heuristic, independently of the hand-written unit tests.

mod bruteforce;

use bruteforce::Oracle;
use rdf_analytics::model::{Term, Triple, Value};
use rdf_analytics::sparql::Engine;
use rdf_analytics::store::Store;
use rdfa_prng::StdRng;

const EX: &str = "http://b/";

/// A random graph over small vocabularies.
#[derive(Debug, Clone)]
struct RandGraph {
    /// (subject idx, predicate idx, object) — object is a resource idx or a
    /// small integer
    triples: Vec<(u8, u8, ObjKind)>,
}

#[derive(Debug, Clone, Copy)]
enum ObjKind {
    Res(u8),
    Int(i8),
}

/// One triple pattern: each position is a variable id (0–3) or a constant.
#[derive(Debug, Clone, Copy)]
struct RandPattern {
    s: Slot,
    p: u8,
    o: Slot,
}

#[derive(Debug, Clone, Copy)]
enum Slot {
    Var(u8),
    Res(u8),
    Int(i8),
}

fn rand_graph(rng: &mut StdRng) -> RandGraph {
    let n = rng.gen_range(1..20);
    let triples = (0..n)
        .map(|_| {
            let o = if rng.gen_bool(0.5) {
                ObjKind::Res(rng.gen_range(0u8..5))
            } else {
                ObjKind::Int(rng.gen_range(0i8..6))
            };
            (rng.gen_range(0u8..5), rng.gen_range(0u8..3), o)
        })
        .collect();
    RandGraph { triples }
}

fn rand_slot(rng: &mut StdRng) -> Slot {
    match rng.gen_range(0..3) {
        0 => Slot::Var(rng.gen_range(0u8..3)),
        1 => Slot::Res(rng.gen_range(0u8..5)),
        _ => Slot::Int(rng.gen_range(0i8..6)),
    }
}

fn rand_patterns(rng: &mut StdRng) -> Vec<RandPattern> {
    let n = rng.gen_range(1..4);
    (0..n)
        .map(|_| RandPattern { s: rand_slot(rng), p: rng.gen_range(0u8..3), o: rand_slot(rng) })
        .collect()
}

fn res(i: u8) -> String {
    format!("{EX}r{i}")
}

fn build_store(g: &RandGraph) -> Store {
    let mut store = Store::new();
    for &(s, p, o) in &g.triples {
        let obj = match o {
            ObjKind::Res(r) => Term::iri(res(r)),
            ObjKind::Int(v) => Term::integer(v as i64),
        };
        store.insert(&rdf_analytics::model::Triple::new(
            Term::iri(res(s)),
            Term::iri(format!("{EX}p{p}")),
            obj,
        ));
    }
    store.materialize_inference();
    store
}

fn slot_sparql(s: Slot) -> String {
    match s {
        Slot::Var(v) => format!("?v{v}"),
        Slot::Res(r) => format!("<{}>", res(r)),
        Slot::Int(v) => format!("{v}"),
    }
}

fn to_sparql(patterns: &[RandPattern]) -> String {
    let mut vars: Vec<u8> = Vec::new();
    for p in patterns {
        for s in [p.s, p.o] {
            if let Slot::Var(v) = s {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
        }
    }
    vars.sort();
    let projection = if vars.is_empty() {
        "*".to_owned()
    } else {
        vars.iter().map(|v| format!("?v{v}")).collect::<Vec<_>>().join(" ")
    };
    let mut body = String::new();
    for p in patterns {
        body.push_str(&format!(
            "{} <{}p{}> {} . ",
            slot_sparql(p.s),
            EX,
            p.p,
            slot_sparql(p.o)
        ));
    }
    format!("SELECT {projection} WHERE {{ {body}}}")
}

/// Naive reference: recursive backtracking join over the raw triple list.
fn brute_force(g: &RandGraph, patterns: &[RandPattern]) -> Vec<Vec<String>> {
    // variable ids used, ordered
    let mut vars: Vec<u8> = Vec::new();
    for p in patterns {
        for s in [p.s, p.o] {
            if let Slot::Var(v) = s {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
        }
    }
    vars.sort();
    let mut rows = Vec::new();
    let mut binding: std::collections::HashMap<u8, String> = std::collections::HashMap::new();
    fn obj_key(o: ObjKind) -> String {
        match o {
            ObjKind::Res(r) => format!("R{r}"),
            ObjKind::Int(v) => format!("I{v}"),
        }
    }
    fn slot_key_subject(s: u8) -> String {
        format!("R{s}")
    }
    fn matches(
        slot: Slot,
        actual: &str,
        binding: &mut std::collections::HashMap<u8, String>,
        bound_here: &mut Vec<u8>,
    ) -> bool {
        match slot {
            Slot::Res(r) => actual == format!("R{r}"),
            Slot::Int(v) => actual == format!("I{v}"),
            Slot::Var(v) => match binding.get(&v) {
                Some(existing) => existing == actual,
                None => {
                    binding.insert(v, actual.to_owned());
                    bound_here.push(v);
                    true
                }
            },
        }
    }
    fn recurse(
        g: &RandGraph,
        patterns: &[RandPattern],
        idx: usize,
        binding: &mut std::collections::HashMap<u8, String>,
        vars: &[u8],
        rows: &mut Vec<Vec<String>>,
    ) {
        if idx == patterns.len() {
            rows.push(vars.iter().map(|v| binding[v].clone()).collect());
            return;
        }
        let pat = patterns[idx];
        for &(s, p, o) in &g.triples {
            if p != pat.p {
                continue;
            }
            let mut bound_here = Vec::new();
            let s_ok = matches(pat.s, &slot_key_subject(s), binding, &mut bound_here);
            let o_ok = s_ok && matches(pat.o, &obj_key(o), binding, &mut bound_here);
            if s_ok && o_ok {
                recurse(g, patterns, idx + 1, binding, vars, rows);
            }
            for v in bound_here {
                binding.remove(&v);
            }
        }
    }
    recurse(g, patterns, 0, &mut binding, &vars, &mut rows);
    rows.sort();
    rows
}

/// Canonicalize engine output into the brute-force key space.
fn canonicalize(rows: &[Vec<Option<Term>>]) -> Vec<Vec<String>> {
    let mut out: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|c| match c {
                    Some(Term::Iri(iri)) => format!("R{}", &iri[iri.len() - 1..]),
                    Some(t) => match Value::from_term(t) {
                        Value::Int(v) => format!("I{v}"),
                        other => other.render(),
                    },
                    None => "∅".to_owned(),
                })
                .collect()
        })
        .collect();
    out.sort();
    out
}

/// Property: random graph × random conjunctive query agrees with the naive
/// reference evaluator, with and without the join-order heuristic.
#[test]
fn engine_agrees_with_bruteforce() {
    for case in 0u64..128 {
        let mut rng = StdRng::seed_from_u64(case);
        let g = rand_graph(&mut rng);
        let pats = rand_patterns(&mut rng);

        // duplicate triples in the random graph collapse in the store; do the
        // same for the reference
        let mut dedup = g.clone();
        dedup.triples.sort_by_key(|&(s, p, o)| (s, p, obj_sort_key(o)));
        dedup.triples.dedup_by_key(|&mut (s, p, o)| (s, p, obj_sort_key(o)));

        let store = build_store(&dedup);
        let sparql = to_sparql(&pats);
        let expected = brute_force(&dedup, &pats);

        for reorder in [true, false] {
            let engine = Engine::builder(&store).reorder_bgp(reorder).build();
            let sols = engine
                .run(&sparql)
                .unwrap_or_else(|e| panic!("{e}\n{sparql}"))
                .into_solutions()
                .unwrap();
            let got = canonicalize(sols.rows());
            assert_eq!(got, expected, "case {case} reorder={reorder} query: {sparql}");
        }
    }
}

fn obj_sort_key(o: ObjKind) -> (u8, i16) {
    match o {
        ObjKind::Res(r) => (0, r as i16),
        ObjKind::Int(v) => (1, v as i16),
    }
}

#[test]
fn regression_repeated_variable() {
    // ?v0 p0 ?v0 — self-loop pattern
    let g = RandGraph { triples: vec![(1, 0, ObjKind::Res(1)), (1, 0, ObjKind::Res(2))] };
    let store = build_store(&g);
    let pats = [RandPattern { s: Slot::Var(0), p: 0, o: Slot::Var(0) }];
    let sparql = to_sparql(&pats);
    let engine = Engine::builder(&store).build();
    let sols = engine.run(&sparql).unwrap().into_solutions().unwrap();
    assert_eq!(canonicalize(sols.rows()), brute_force(&g, &pats));
    assert_eq!(sols.len(), 1); // only the self-loop
}

// ---- operator queries against the brute-force oracle ----------------------

/// A random link graph: `l0` and `l1` connect resources (cycles included)
/// and `v` gives resources small integer values.
fn link_store(rng: &mut StdRng) -> Store {
    let mut store = Store::new();
    for _ in 0..rng.gen_range(4..24) {
        let s = Term::iri(res(rng.gen_range(0u8..6)));
        let (p, o) = match rng.gen_range(0..3) {
            0 => ("l0", Term::iri(res(rng.gen_range(0u8..6)))),
            1 => ("l1", Term::iri(res(rng.gen_range(0u8..6)))),
            _ => ("v", Term::integer(rng.gen_range(0i64..5))),
        };
        store.insert(&Triple::new(s, Term::iri(format!("{EX}{p}")), o));
    }
    store.materialize_inference();
    store
}

/// A random link predicate: an IRI or a `/`, `^`, `|` or `+` path.
fn link(rng: &mut StdRng) -> String {
    let (l0, l1) = (format!("<{EX}l0>"), format!("<{EX}l1>"));
    match rng.gen_range(0..6) {
        0 => l0,
        1 => l1,
        2 => format!("{l0}/{l1}"),
        3 => format!("^{l0}"),
        4 => format!("{l0}+"),
        _ => format!("({l0}|{l1})"),
    }
}

/// A random query over [`link_store`]: a link pattern decorated with one to
/// three of OPTIONAL, UNION, MINUS (shared, unshared, and with an inner
/// OPTIONAL), `FILTER [NOT] EXISTS`, sub-selects, a path from a variable to
/// itself and a value filter, then
/// either `SELECT *` or a GROUP BY with COUNT, SUM, MIN and MAX.
fn rand_operator_query(rng: &mut StdRng) -> String {
    let v = format!("<{EX}v>");
    let mut body = format!("?a {} ?b . ", link(rng));
    for _ in 0..rng.gen_range(1..4) {
        let l = link(rng);
        body.push_str(&match rng.gen_range(0..12) {
            0 => format!("OPTIONAL {{ ?b {l} ?c }} "),
            1 => format!("OPTIONAL {{ ?b {v} ?n }} "),
            2 => format!("{{ ?a {v} ?n }} UNION {{ ?b {v} ?n }} "),
            3 => format!("MINUS {{ ?a {l} ?c }} "),
            4 => format!("MINUS {{ ?c {l} ?d }} "),
            5 => format!("MINUS {{ ?b {l} ?c OPTIONAL {{ ?c {v} ?n }} }} "),
            6 => format!("FILTER EXISTS {{ ?b {l} ?c }} "),
            7 => format!("FILTER NOT EXISTS {{ ?b {l} ?c OPTIONAL {{ ?c {v} ?n }} }} "),
            8 => format!("{{ SELECT ?a (COUNT(*) AS ?k) WHERE {{ ?a {l} ?x }} GROUP BY ?a }} "),
            9 => format!("{{ SELECT ?b (MAX(?w) AS ?n) WHERE {{ ?b {v} ?w }} GROUP BY ?b }} "),
            10 => format!("?e {l} ?e . "),
            _ => format!("FILTER(!BOUND(?n) || ?n > {}) ", rng.gen_range(0..4)),
        });
    }
    if rng.gen_bool(0.5) {
        format!("SELECT * WHERE {{ {body}}}")
    } else {
        format!(
            "SELECT ?a (COUNT(*) AS ?cnt) (SUM(?n) AS ?s) (MIN(?n) AS ?lo) (MAX(?n) AS ?hi) \
             WHERE {{ {body}}} GROUP BY ?a"
        )
    }
}

/// Engine answers (all join orders and thread counts) must equal the
/// oracle's, as row multisets with identical columns.
fn assert_matches_oracle(store: &Store, sparql: &str, ctx: &str) -> usize {
    let expected = Oracle::new(store).select(sparql);
    for (reorder, threads) in [(true, 1), (false, 1), (true, 4)] {
        let engine = Engine::builder(store).reorder_bgp(reorder).threads(threads).build();
        let got = engine
            .run(sparql)
            .unwrap_or_else(|e| panic!("{ctx}: {e}\n{sparql}"))
            .into_solutions()
            .unwrap();
        assert_eq!(got.vars(), expected.vars(), "{ctx}: columns\n{sparql}");
        assert_eq!(
            canonicalize(got.rows()),
            canonicalize(expected.rows()),
            "{ctx} reorder={reorder} threads={threads}\n{sparql}"
        );
    }
    expected.len()
}

/// Property: random link graph × random operator query agrees with the
/// brute-force oracle.
#[test]
fn operator_queries_agree_with_bruteforce_oracle() {
    for case in 0u64..160 {
        let mut rng = StdRng::seed_from_u64(case);
        let store = link_store(&mut rng);
        let sparql = rand_operator_query(&mut rng);
        assert_matches_oracle(&store, &sparql, &format!("case {case}"));
    }
}

/// MINUS and NOT EXISTS edge cases, checked against the oracle and by hand.
#[test]
fn minus_and_not_exists_edge_cases() {
    let mut store = Store::new();
    let t = |s: &str, p: &str, o: Term| {
        Triple::new(Term::iri(format!("{EX}{s}")), Term::iri(format!("{EX}{p}")), o)
    };
    let r = |n: &str| Term::iri(format!("{EX}{n}"));
    for triple in [t("r0", "l0", r("r1")), t("r1", "l0", r("r2")), t("r1", "v", Term::integer(3))] {
        store.insert(&triple);
    }
    let (l0, v) = (format!("<{EX}l0>"), format!("<{EX}v>"));
    let cases = [
        // MINUS sharing no variable with the outer row keeps every row
        (format!("SELECT * WHERE {{ ?a {l0} ?b MINUS {{ ?c {v} ?d }} }}"), 2),
        // the inner OPTIONAL leaves ?b unbound for r1: compatible on ?a only
        (format!("SELECT * WHERE {{ ?a {l0} ?b MINUS {{ ?a {l0} ?b2 OPTIONAL {{ ?b2 {v} ?b }} }} }}"), 1),
        // NOT EXISTS whose inner OPTIONAL stays unbound still matches
        (format!("SELECT * WHERE {{ ?a {l0} ?b FILTER NOT EXISTS {{ ?b {l0} ?c OPTIONAL {{ ?c {v} ?n }} }} }}"), 1),
        // EXISTS with no shared variable holds for every row or none
        (format!("SELECT * WHERE {{ ?a {l0} ?b FILTER EXISTS {{ ?c {v} 3 }} }}"), 2),
    ];
    for (i, (sparql, rows)) in cases.iter().enumerate() {
        assert_eq!(assert_matches_oracle(&store, sparql, &format!("edge {i}")), *rows, "{sparql}");
    }
}
