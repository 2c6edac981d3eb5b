//! Differential harness: the engine must agree with an independent
//! brute-force oracle (`tests/bruteforce`) on every query, at every thread
//! count and over mmap segments, and must surface the configured limit when
//! a query outgrows its budget. Queries come from a fixed corpus covering
//! the operator surface (aggregates, OPTIONAL, UNION, MINUS, [NOT] EXISTS,
//! sub-selects, property paths, FILTER, BIND, VALUES, DISTINCT, ORDER BY)
//! plus seeded random BGP+aggregate combinations, so a divergence in any
//! operator's semantics shows up as a row-set mismatch.

mod bruteforce;

use bruteforce::Oracle;
use rdf_analytics::datagen::{ProductsGenerator, EX};
use rdf_analytics::sparql::{CancelFlag, Engine, EvalLimits, LimitKind, SparqlError};
use rdf_analytics::store::{
    FsyncPolicy, LoadOptions, PersistConfig, PersistentStore, Store,
};
use rdfa_prng::StdRng;

fn store() -> Store {
    let mut s = Store::new();
    s.load_graph(&ProductsGenerator::new(120, 42).generate());
    s
}

/// The same products KG rebuilt on compressed mmap index segments: loaded
/// into a segment-mode durable store, checkpointed into a segment
/// generation, and reopened from disk — the on-disk half of the
/// mmap-vs-memory differential tests.
fn mmap_store(tag: &str) -> (std::path::PathBuf, Store) {
    let dir = std::env::temp_dir()
        .join(format!("rdfa-engine-diff-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || PersistConfig {
        fsync: FsyncPolicy::Never,
        segments: true,
        ..PersistConfig::default()
    };
    let mut p = PersistentStore::open(&dir, config()).unwrap();
    for t in ProductsGenerator::new(120, 42).generate().iter() {
        p.insert(t).unwrap();
    }
    p.materialize_inference();
    p.checkpoint_fold().unwrap();
    drop(p);
    let p = PersistentStore::open(&dir, config()).unwrap();
    let (store, _journal, _recovery) = p.into_parts();
    (dir, store)
}

/// A store big enough that every stage of the corpus queries spans several
/// 1024-row morsels, so the parallel runtime genuinely engages.
fn big_store() -> Store {
    let mut s = Store::new();
    ProductsGenerator::new(6000, 7).generate_into(&mut s, LoadOptions::default());
    s
}

/// Order-insensitive canonical form: every cell rendered fully, rows sorted.
/// The engine and the oracle must agree up to row permutation (they order
/// ORDER BY ties and joins differently, and parallel grouping is only
/// guaranteed to be a permutation of the sequential result).
fn canon(sols: &rdf_analytics::sparql::Solutions) -> Vec<Vec<Option<String>>> {
    let mut rows: Vec<Vec<Option<String>>> = sols
        .rows()
        .iter()
        .map(|r| r.iter().map(|c| c.as_ref().map(|t| format!("{t:?}"))).collect())
        .collect();
    rows.sort();
    rows
}

/// Run one query on the engine at one and four threads and demand the
/// oracle's answer.
fn check(s: &Store, oracle: &Oracle, q: &str, ctx: &str) {
    let expected = oracle.select(q);
    for threads in [1usize, 4] {
        let got = Engine::builder(s)
            .threads(threads)
            .build()
            .run(q)
            .unwrap_or_else(|e| panic!("engine ({threads} threads) failed ({ctx}): {e}\n{q}"))
            .into_solutions()
            .unwrap();
        assert_eq!(expected.vars(), got.vars(), "{ctx}: var mismatch\n{q}");
        assert_eq!(
            canon(&expected),
            canon(&got),
            "{ctx}: engine with {threads} thread(s) diverged from the oracle\n{q}"
        );
    }
}

const CORPUS: &[&str] = &[
    // plain BGP + ORDER BY
    "SELECT ?x ?p WHERE { ?x a ex:Laptop ; ex:price ?p . } ORDER BY ?p ?x",
    // FILTER with arithmetic
    "SELECT ?x WHERE { ?x ex:price ?p . FILTER(?p > 1000 && ?p < 2500) }",
    // aggregates over the whole solution
    "SELECT (COUNT(?x) AS ?n) (SUM(?p) AS ?s) (AVG(?p) AS ?a) (MIN(?p) AS ?lo) (MAX(?p) AS ?hi) \
     WHERE { ?x a ex:Laptop ; ex:price ?p . }",
    // GROUP BY with multiple aggregates
    "SELECT ?m (COUNT(?x) AS ?n) (AVG(?p) AS ?avg) WHERE { \
       ?x ex:manufacturer ?m ; ex:price ?p . } GROUP BY ?m",
    // GROUP BY two keys
    "SELECT ?m ?u (COUNT(?x) AS ?n) WHERE { \
       ?x ex:manufacturer ?m ; ex:USBPorts ?u . } GROUP BY ?m ?u",
    // COUNT DISTINCT and COUNT(*)
    "SELECT ?m (COUNT(DISTINCT ?u) AS ?du) (COUNT(*) AS ?all) WHERE { \
       ?x ex:manufacturer ?m ; ex:USBPorts ?u . } GROUP BY ?m",
    // HAVING
    "SELECT ?m (COUNT(?x) AS ?n) WHERE { ?x ex:manufacturer ?m . } \
     GROUP BY ?m HAVING (COUNT(?x) >= 3)",
    // GROUP_CONCAT and SAMPLE are order-sensitive; pin with MIN instead
    "SELECT ?m (MIN(?p) AS ?cheapest) WHERE { \
       ?x ex:manufacturer ?m ; ex:price ?p . } GROUP BY ?m ORDER BY ?cheapest",
    // OPTIONAL, bound and unbound branches
    "SELECT ?x ?f WHERE { ?x a ex:Company . OPTIONAL { ?x ex:founder ?f . } }",
    // OPTIONAL + FILTER inside
    "SELECT ?x ?g WHERE { ?x ex:origin ?c . OPTIONAL { ?c ex:GDPPerCapita ?g . FILTER(?g > 30000) } }",
    // UNION
    "SELECT ?x WHERE { { ?x a ex:Laptop . } UNION { ?x a ex:Company . } }",
    // UNION with disjoint variables
    "SELECT ?a ?b WHERE { { ?a a ex:Company . } UNION { ?b a ex:Continent . } }",
    // BIND + expression grouping
    "SELECT ?bucket (COUNT(?x) AS ?n) WHERE { \
       ?x ex:price ?p . BIND(IF(?p >= 1500, \"high\", \"low\") AS ?bucket) } GROUP BY ?bucket",
    // VALUES restriction
    "SELECT ?x ?u WHERE { VALUES ?u { 2 3 } ?x ex:USBPorts ?u . }",
    // DISTINCT projection
    "SELECT DISTINCT ?u WHERE { ?x ex:USBPorts ?u . }",
    // expression over aggregates (the paper's per-capita idiom)
    "SELECT ?m ((SUM(?p) / COUNT(?x)) AS ?mean) WHERE { \
       ?x ex:manufacturer ?m ; ex:price ?p . } GROUP BY ?m",
    // LIMIT/OFFSET after ORDER BY on a deterministic total order
    "SELECT ?x WHERE { ?x a ex:Laptop . } ORDER BY ?x LIMIT 7 OFFSET 3",
    // GROUP BY on a join chain (two hops)
    "SELECT ?cont (COUNT(?x) AS ?n) WHERE { \
       ?x ex:manufacturer ?m . ?m ex:origin ?c . ?c ex:locatedAt ?cont . } GROUP BY ?cont",
    // MINUS on a shared variable
    "SELECT ?x ?m WHERE { ?x ex:manufacturer ?m . MINUS { ?x ex:USBPorts 2 . } }",
    // MINUS sharing no variable removes nothing
    "SELECT ?x WHERE { ?x a ex:Laptop . MINUS { ?c ex:origin ex:USA . } }",
    // MINUS whose inner OPTIONAL leaves a shared variable unbound
    "SELECT ?x ?c WHERE { ?x ex:manufacturer ?m . ?m ex:origin ?c . \
       MINUS { ?x ex:USBPorts 4 . OPTIONAL { ?x ex:hardDrive ?d . ?d ex:manufacturer ?dm . \
       ?dm ex:origin ?c . FILTER(?c = ex:USA) } } }",
    // FILTER NOT EXISTS and FILTER EXISTS next to a plain conjunct
    "SELECT ?x WHERE { ?x a ex:Laptop . \
       FILTER NOT EXISTS { ?x ex:manufacturer ?m . ?m ex:origin ex:USA . } }",
    "SELECT ?x ?u WHERE { ?x ex:USBPorts ?u . \
       FILTER(EXISTS { ?x ex:hardDrive ?d . ?d a ex:SSD . } && ?u > 1) }",
    // NOT EXISTS whose inner OPTIONAL stays unbound
    "SELECT ?x WHERE { ?x a ex:Laptop . FILTER NOT EXISTS { ?x ex:USBPorts 3 . \
       OPTIONAL { ?x ex:founder ?f . } } }",
    // EXISTS nested in a larger expression and in a projection
    "SELECT ?x (NOT EXISTS { ?x ex:USBPorts 4 } AS ?not4) WHERE { ?x ex:price ?p . \
       FILTER(?p > 2500 || NOT EXISTS { ?x ex:USBPorts 1 }) }",
    // sub-select filtered on its aggregate
    "SELECT ?m ?avg WHERE { { SELECT ?m (AVG(?p) AS ?avg) WHERE { \
       ?x ex:manufacturer ?m . ?x ex:price ?p . } GROUP BY ?m } FILTER(?avg >= 1500) }",
    // sub-select joined to the outer pattern
    "SELECT ?x ?m ?n WHERE { ?x ex:manufacturer ?m . ?x ex:USBPorts 4 . \
       { SELECT ?m (COUNT(*) AS ?n) WHERE { ?y ex:manufacturer ?m } GROUP BY ?m } }",
    // property paths: sequence, inverse, one-or-more
    "SELECT ?x ?c WHERE { ?x ex:manufacturer/ex:origin ?c . }",
    "SELECT ?c ?x WHERE { ex:USA ^ex:origin/^ex:manufacturer ?x . ?x ex:USBPorts ?c . }",
    "SELECT ?cont (COUNT(?x) AS ?n) WHERE { ?x ex:manufacturer/ex:origin/ex:locatedAt ?cont . } \
     GROUP BY ?cont",
    "SELECT ?a ?b WHERE { ?a <http://www.w3.org/2000/01/rdf-schema#subClassOf>+ ?b . }",
];

#[test]
fn corpus_queries_agree_across_engines_and_threads() {
    let s = store();
    let oracle = Oracle::new(&s);
    for (i, q) in CORPUS.iter().enumerate() {
        let q = format!("PREFIX ex: <{EX}> {q}");
        check(&s, &oracle, &q, &format!("corpus[{i}]"));
    }
}

/// The whole corpus answered over an mmap segment-backed store must be
/// *byte-identical* to the fully in-memory store — same rows, same order —
/// at every thread count. Segment round-trips preserve term ids and the
/// layered store iterates every permutation in the same order as the
/// in-memory index, so not even unordered results may permute.
#[test]
fn corpus_queries_byte_identical_over_mmap_segments() {
    let mem = store();
    let (dir, seg) = mmap_store("corpus");
    let stats = seg.segment_stats();
    assert!(stats.segments > 0, "the reopened store must actually be segment-backed");
    assert_eq!(mem.len(), seg.len());
    let oracle = Oracle::new(&seg);
    for (i, q) in CORPUS.iter().enumerate() {
        let q = format!("PREFIX ex: <{EX}> {q}");
        for threads in [1usize, 2, 4, 8] {
            let a = run_id_space(&mem, &q, threads);
            let b = run_id_space(&seg, &q, threads);
            assert_eq!(a.vars(), b.vars(), "corpus[{i}]: var mismatch\n{q}");
            assert_eq!(
                a.rows(),
                b.rows(),
                "corpus[{i}]: mmap store diverged from memory at {threads} thread(s)\n{q}"
            );
        }
        // and over the segments the engine still agrees with the oracle
        check(&seg, &oracle, &q, &format!("corpus[{i}] over mmap"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seeded random GROUP BY queries: random grouping key, random aggregate,
/// random filter threshold. Shapes the harness can't enumerate by hand.
#[test]
fn random_aggregate_queries_agree() {
    let s = store();
    let oracle = Oracle::new(&s);
    let mut rng = StdRng::seed_from_u64(7);
    let keys = ["manufacturer", "USBPorts", "hardDrive"];
    let aggs = ["COUNT(?x)", "SUM(?p)", "AVG(?p)", "MIN(?p)", "MAX(?p)", "COUNT(DISTINCT ?p)"];
    for case in 0..40 {
        let key = keys[rng.gen_range(0..keys.len() as u32) as usize];
        let agg = aggs[rng.gen_range(0..aggs.len() as u32) as usize];
        let lo = rng.gen_range(300..2000u32);
        let distinct = if rng.gen_bool(0.3) { "DISTINCT " } else { "" };
        let q = format!(
            "PREFIX ex: <{EX}> SELECT {distinct}?k ({agg} AS ?v) WHERE {{ \
               ?x ex:{key} ?k ; ex:price ?p . FILTER(?p >= {lo}) }} GROUP BY ?k"
        );
        check(&s, &oracle, &q, &format!("random[{case}]"));
    }
}

/// Random plain BGP selections with OPTIONAL/UNION decoration.
#[test]
fn random_pattern_queries_agree() {
    let s = store();
    let oracle = Oracle::new(&s);
    let mut rng = StdRng::seed_from_u64(13);
    for case in 0..30 {
        let with_opt = rng.gen_bool(0.5);
        let with_union = rng.gen_bool(0.4);
        let max_ports = rng.gen_range(1..5u32);
        let mut body = format!("?x a ex:Laptop ; ex:USBPorts ?u . FILTER(?u <= {max_ports})");
        if with_opt {
            body.push_str(" OPTIONAL { ?x ex:manufacturer ?m . ?m ex:founder ?f . }");
        }
        if with_union {
            body = format!("{{ {body} }} UNION {{ ?x a ex:Company . }}");
        }
        let q = format!("PREFIX ex: <{EX}> SELECT * WHERE {{ {body} }}");
        check(&s, &oracle, &q, &format!("pattern[{case}]"));
    }
}

/// When a query outgrows its budget, the engine must surface the
/// structured error for the configured limit — its kind and ceiling, not
/// just "some error" — at every thread count. The oracle confirms the
/// pattern really produces more rows than the row budget allows.
#[test]
fn tripped_limits_agree_across_engines() {
    let s = store();
    let pattern = "?x ex:manufacturer ?m ; ex:price ?p .";
    let q = format!("PREFIX ex: <{EX}> SELECT ?m (COUNT(?x) AS ?n) WHERE {{ {pattern} }} GROUP BY ?m");
    let rows = Oracle::new(&s).select(&format!("PREFIX ex: <{EX}> SELECT * WHERE {{ {pattern} }}"));
    assert!(rows.len() > 5, "the pattern must outgrow the row budget");
    for (limits, expected) in [
        (
            EvalLimits::unlimited().with_max_rows(5),
            SparqlError::ResourceLimit { kind: LimitKind::SolutionRows, limit: 5 },
        ),
        (
            EvalLimits::unlimited().with_deadline(std::time::Duration::ZERO),
            SparqlError::ResourceLimit { kind: LimitKind::Deadline, limit: 0 },
        ),
    ] {
        for threads in [1usize, 4] {
            let err = Engine::builder(&s)
                .threads(threads)
                .limits(limits.clone())
                .build()
                .run(&q)
                .expect_err("limit should trip");
            assert_eq!(err, expected, "{threads} thread(s)");
        }
    }
}

/// A query under a limit that does NOT trip must return the oracle's full
/// answer — the guard must not distort row sets.
#[test]
fn generous_limits_do_not_distort_results() {
    let s = store();
    let q = format!(
        "PREFIX ex: <{EX}> SELECT ?m (COUNT(?x) AS ?n) WHERE {{ \
           ?x ex:manufacturer ?m . }} GROUP BY ?m"
    );
    let limited = Engine::builder(&s)
        .limits(EvalLimits::interactive())
        .build()
        .run(&q)
        .unwrap()
        .into_solutions()
        .unwrap();
    let expected = Oracle::new(&s).select(&q);
    assert_eq!(canon(&expected), canon(&limited));
    assert!(!limited.is_empty());
}

// ---------------------------------------------------------------------------
// Morsel-runtime determinism: the parallel runtime must be invisible in the
// result. Morsel geometry depends only on the input size (never the thread
// count) and per-morsel outputs merge in morsel order, so N workers must
// reproduce the 1-thread output *byte for byte* — same rows, same order.
// ---------------------------------------------------------------------------

fn run_id_space(s: &Store, q: &str, threads: usize) -> rdf_analytics::sparql::Solutions {
    Engine::builder(s)
        .threads(threads)
        .build()
        .run(q)
        .unwrap_or_else(|e| panic!("{threads} threads failed: {e}\n{q}"))
        .into_solutions()
        .unwrap()
}

fn multi_morsel_queries() -> Vec<String> {
    vec![
        // scan → join → join chain, tens of morsels wide
        format!(
            "PREFIX ex: <{EX}> SELECT ?x ?m ?c WHERE {{ \
               ?x ex:manufacturer ?m . ?m ex:origin ?c . }}"
        ),
        // parallel GROUP BY over a multi-morsel join
        format!(
            "PREFIX ex: <{EX}> SELECT ?m (COUNT(?x) AS ?n) (AVG(?p) AS ?avg) WHERE {{ \
               ?x ex:manufacturer ?m ; ex:price ?p . }} GROUP BY ?m"
        ),
        // filter + aggregate over the whole extension
        format!(
            "PREFIX ex: <{EX}> SELECT (COUNT(?x) AS ?n) (SUM(?p) AS ?s) WHERE {{ \
               ?x a ex:Laptop ; ex:price ?p . FILTER(?p > 700) }}"
        ),
    ]
}

/// Every morsel-sized query, then the whole corpus (MINUS, sub-select,
/// path and EXISTS plans included), must be byte-identical at 1, 2, 4 and 8
/// threads.
#[test]
fn morsel_runtime_output_is_byte_identical_across_thread_counts() {
    let s = big_store();
    let corpus = CORPUS.iter().map(|q| format!("PREFIX ex: <{EX}> {q}"));
    for q in multi_morsel_queries().into_iter().chain(corpus) {
        let reference = run_id_space(&s, &q, 1);
        assert!(!reference.is_empty(), "{q}");
        for threads in [2usize, 4, 8] {
            let sols = run_id_space(&s, &q, threads);
            assert_eq!(reference.vars(), sols.vars(), "{q}");
            assert_eq!(
                reference.rows(),
                sols.rows(),
                "{threads} threads must reproduce the serial output exactly\n{q}"
            );
        }
    }
}

/// The large configuration really does exercise the parallel runtime: the
/// input splits into many morsels and (on a multi-core box) fans out.
#[test]
fn parallel_runtime_engages_on_large_inputs() {
    let s = big_store();
    let q = format!(
        "PREFIX ex: <{EX}> SELECT ?m (COUNT(?x) AS ?n) WHERE {{ \
           ?x ex:manufacturer ?m ; ex:price ?p . }} GROUP BY ?m"
    );
    let engine = Engine::builder(&s).threads(8).build();
    let prepared = engine.prepare(&q).unwrap();
    prepared.execute().unwrap();
    let stats = prepared.last_stats().unwrap();
    assert!(stats.morsels >= 4, "large input must split into morsels: {stats:?}");
    assert!(stats.threads_used > 1, "explicit thread request must fan out: {stats:?}");
    assert!(stats.parallel_groupby, "{stats:?}");
    let text = prepared.explain();
    assert!(text.contains("runtime: threads="), "{text}");
    assert!(text.contains("morsels="), "{text}");
}

/// The BENCH_3 regression fix: below the morsel-count floor the scheduler
/// must dispatch serially no matter how many threads were requested — tiny
/// interactive queries never pay fan-out overhead.
#[test]
fn tiny_inputs_dispatch_serially_even_when_threads_requested() {
    let s = store(); // a few hundred rows: under the 4-morsel floor
    let q = format!(
        "PREFIX ex: <{EX}> SELECT ?m (COUNT(?x) AS ?n) WHERE {{ \
           ?x ex:manufacturer ?m ; ex:price ?p . }} GROUP BY ?m"
    );
    let engine = Engine::builder(&s).threads(8).build();
    let prepared = engine.prepare(&q).unwrap();
    prepared.execute().unwrap();
    let stats = prepared.last_stats().unwrap();
    assert_eq!(stats.threads_used, 1, "tiny inputs must not fan out: {stats:?}");
    assert_eq!(stats.morsels, 0, "tiny inputs bypass the parallel runtime: {stats:?}");
    assert!(!stats.parallel_groupby, "{stats:?}");
}

/// Resource-limit errors must be identical at every thread count: the same
/// `(kind, limit)` pair, regardless of which worker tripped first.
#[test]
fn tripped_limits_identical_across_thread_counts() {
    let s = big_store();
    let q = format!(
        "PREFIX ex: <{EX}> SELECT ?x ?m ?c WHERE {{ \
           ?x ex:manufacturer ?m . ?m ex:origin ?c . }}"
    );
    for limits in [
        EvalLimits::unlimited().with_max_rows(100),
        EvalLimits::unlimited().with_deadline(std::time::Duration::ZERO),
    ] {
        let errs: Vec<SparqlError> = [1usize, 2, 4, 8]
            .iter()
            .map(|&threads| {
                Engine::builder(&s)
                    .threads(threads)
                    .limits(limits.clone())
                    .build()
                    .run(&q)
                    .expect_err("limit should trip")
            })
            .collect();
        for e in &errs {
            assert!(e.is_resource_limit(), "{e:?}");
            assert_eq!(e, &errs[0], "thread count changed the surfaced limit error");
        }
    }
}

/// A raised cancel flag stops the morsel runtime at every thread count —
/// workers probe at morsel boundaries, so parallel execution honours the
/// same cooperative-cancellation contract the serial path does (the
/// server's admission slot is released by the same mechanism, proven
/// end-to-end in `streaming_robustness.rs`).
#[test]
fn cancellation_stops_the_morsel_runtime_at_every_thread_count() {
    let s = big_store();
    let q = format!(
        "PREFIX ex: <{EX}> SELECT ?m (COUNT(?x) AS ?n) WHERE {{ \
           ?x ex:manufacturer ?m ; ex:price ?p . }} GROUP BY ?m"
    );
    for threads in [1usize, 2, 4, 8] {
        let cancel = CancelFlag::new();
        cancel.cancel();
        let err = Engine::builder(&s)
            .threads(threads)
            .limits(EvalLimits::unlimited().with_cancel(cancel))
            .build()
            .run(&q)
            .expect_err("raised flag must cancel evaluation");
        assert!(err.is_cancelled(), "{threads} threads: {err:?}");
    }
}

/// The prepared-query API reports a plan and per-operator cardinalities for
/// ID-space corpus queries (the acceptance bar for `explain()`).
#[test]
fn explain_reports_operator_cardinalities() {
    let s = store();
    let q = format!(
        "PREFIX ex: <{EX}> SELECT ?m (COUNT(?x) AS ?n) WHERE {{ \
           ?x ex:manufacturer ?m ; ex:price ?p . }} GROUP BY ?m"
    );
    let engine = Engine::builder(&s).build();
    let prepared = engine.prepare(&q).unwrap();
    assert!(prepared.uses_id_space());
    prepared.execute().unwrap();
    let stats = prepared.last_stats().unwrap();
    assert!(stats.rows_out > 0);
    assert!(stats.operators.iter().any(|op| op.rows_out > 0));
    let text = prepared.explain();
    assert!(text.contains("physical plan:"), "{text}");
    assert!(text.contains("rows="), "{text}");
}
