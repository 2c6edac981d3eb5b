//! Differential test for incremental RDFS maintenance: after every SPARQL
//! update batch, the entailed graph the store maintains by delta must equal,
//! triple for triple, a clone whose closure is rebuilt from scratch.
//!
//! Seeded batches mix `INSERT DATA`, `DELETE DATA`, `DELETE WHERE`,
//! `DELETE … INSERT … WHERE` and schema-bearing batches over a KG with a
//! subclass chain, a subclass cycle, a subproperty with an inherited domain,
//! a range on a hub object and a range over literals. The same sequence
//! runs over an in-memory store, over a segment-backed store after a
//! checkpoint, and through WAL recovery (reopening every few batches).

use rdf_analytics::model::Triple;
use rdf_analytics::sparql::execute_update_recording;
use rdf_analytics::store::{FsyncPolicy, IdTriple, PersistConfig, PersistentStore, Store};
use rdfa_prng::StdRng;
use std::collections::BTreeSet;
use std::path::PathBuf;

const EX: &str = "http://delta.test/";
const INDIVIDUALS: usize = 48;
const BATCHES: usize = 60;
const SEEDS: u64 = 4;

fn prefixes() -> String {
    format!(
        "PREFIX ex: <{EX}> PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> \
         PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n"
    )
}

fn base_kg() -> String {
    let mut ttl = format!(
        r#"
        @prefix ex: <{EX}> .
        @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
        ex:C0 rdfs:subClassOf ex:C1 . ex:C1 rdfs:subClassOf ex:C2 .
        ex:C2 rdfs:subClassOf ex:C3 .
        ex:D0 rdfs:subClassOf ex:D1 . ex:D1 rdfs:subClassOf ex:D0 .
        ex:D1 rdfs:subClassOf ex:C2 .
        ex:maker rdfs:subPropertyOf ex:producer .
        ex:producer rdfs:domain ex:C1 ; rdfs:range ex:Company .
        ex:linksTo rdfs:range ex:Hub .
        ex:price rdfs:range ex:Money .
        "#
    );
    for i in 0..INDIVIDUALS {
        let class = if i % 3 == 0 { "D0" } else { "C0" };
        ttl.push_str(&format!(
            "ex:x{i} a ex:{class} ; ex:maker ex:k{} ; ex:linksTo ex:hub ; ex:price {} .\n",
            i % 4,
            i % 7
        ));
    }
    ttl
}

/// A random data triple over the KG's vocabulary, in N-Triples syntax.
fn data_triple(rng: &mut StdRng) -> String {
    let x = format!("ex:x{}", rng.gen_range(0..INDIVIDUALS + 8));
    let k = format!("ex:k{}", rng.gen_range(0..5));
    match rng.gen_range(0..6) {
        0 => {
            let classes = ["C0", "C1", "C2", "C3", "D0", "D1", "Company", "Hub"];
            format!("{x} a ex:{} .", classes[rng.gen_range(0..classes.len())])
        }
        1 => format!("{x} ex:maker {k} ."),
        2 => format!("{x} ex:producer {k} ."),
        3 => format!("{x} ex:linksTo ex:hub ."),
        4 => format!("{x} ex:price {} .", rng.gen_range(0..9)),
        _ => format!("{k} a ex:Company ."),
    }
}

fn schema_triple(rng: &mut StdRng) -> &'static str {
    let options = [
        "ex:C3 rdfs:subClassOf ex:C4 .",
        "ex:C1 rdfs:subClassOf ex:C2 .",
        "ex:D1 rdfs:subClassOf ex:D0 .",
        "ex:maker rdfs:subPropertyOf ex:producer .",
        "ex:linksTo rdfs:subPropertyOf ex:producer .",
        "ex:producer rdfs:domain ex:C1 .",
        "ex:linksTo rdfs:domain ex:D1 .",
        "ex:price rdfs:range ex:Money .",
        "ex:linksTo rdfs:range ex:Hub .",
    ];
    options[rng.gen_range(0..options.len())]
}

/// `n` triples sampled from the store's explicit layer, so deletions hit.
fn explicit_sample(store: &Store, rng: &mut StdRng, n: usize) -> Vec<String> {
    let all: Vec<IdTriple> = store.iter_explicit().collect();
    (0..n)
        .map(|_| {
            let [s, p, o] = all[rng.gen_range(0..all.len())];
            Triple::new(store.term(s).clone(), store.term(p).clone(), store.term(o).clone())
                .to_string()
        })
        .collect()
}

/// One seeded update request. Most batches are a few data triples; some
/// touch a whole subject or manufacturer, some carry a schema triple.
fn batch(store: &Store, rng: &mut StdRng) -> String {
    let x = rng.gen_range(0..INDIVIDUALS);
    let k = rng.gen_range(0..4);
    let body = match rng.gen_range(0..10) {
        0..=2 => {
            let n = rng.gen_range(1..6);
            let data: Vec<String> = (0..n).map(|_| data_triple(rng)).collect();
            format!("INSERT DATA {{ {} }}", data.join(" "))
        }
        3..=4 => {
            let n = rng.gen_range(1..5);
            let mut data = explicit_sample(store, rng, n);
            data.push(data_triple(rng)); // often absent: a no-op deletion
            format!("DELETE DATA {{ {} }}", data.join(" "))
        }
        5 => format!("DELETE WHERE {{ ex:x{x} ?p ?o . }}"),
        6 => format!("DELETE WHERE {{ ?x ex:maker ex:k{k} ; ex:price 3 . }}"),
        7 => format!(
            "DELETE {{ ?x a ex:C0 }} INSERT {{ ?x a ex:D0 . ?x ex:producer ex:k4 }} \
             WHERE {{ ?x a ex:C0 ; ex:maker ex:k{k} ; ex:price {} . }}",
            rng.gen_range(0..7)
        ),
        8 => format!(
            "DELETE {{ ?x ex:linksTo ex:hub }} INSERT {{ ?x ex:maker ex:k{k} }} \
             WHERE {{ ?x ex:linksTo ex:hub ; ex:price {} . }}",
            rng.gen_range(0..7)
        ),
        _ => {
            let verb = if rng.gen_bool(0.5) { "INSERT" } else { "DELETE" };
            format!("{verb} DATA {{ {} {} }}", schema_triple(rng), data_triple(rng))
        }
    };
    format!("{}{body}", prefixes())
}

fn entailed(store: &Store) -> Vec<IdTriple> {
    let mut all: Vec<IdTriple> = store.matching(None, None, None).collect();
    all.sort_unstable();
    all
}

fn entailed_terms(store: &Store) -> BTreeSet<Triple> {
    store
        .matching(None, None, None)
        .map(|[s, p, o]| {
            Triple::new(store.term(s).clone(), store.term(p).clone(), store.term(o).clone())
        })
        .collect()
}

/// The maintained closure must be exactly the from-scratch closure, with
/// the explicit and inferred layers disjoint.
fn assert_matches_rebuild(store: &Store, ctx: &str) {
    assert!(!store.is_dirty(), "{ctx}: closure left pending");
    let mut full = store.clone();
    full.rebuild_inference();
    let (got, want) = (entailed(store), entailed(&full));
    if got != want {
        let show = |t: &IdTriple| {
            format!("{} {} {}", store.term(t[0]), store.term(t[1]), store.term(t[2]))
        };
        let extra: Vec<String> = got.iter().filter(|t| !want.contains(t)).map(show).collect();
        let missing: Vec<String> = want.iter().filter(|t| !got.contains(t)).map(show).collect();
        panic!("{ctx}: extra {extra:#?}\nmissing {missing:#?}");
    }
    assert_eq!(store.len_entailed(), full.len_entailed(), "{ctx}: layers overlap");
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rdfa-delta-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn seg_config() -> PersistConfig {
    PersistConfig { fsync: FsyncPolicy::Never, segments: true, ..PersistConfig::default() }
}

/// The batch sequence for one seed, generated against an in-memory store
/// (so the sampled deletions hit) and checked after every batch.
fn in_memory_run(seed: u64) -> Vec<String> {
    let mut store = Store::new();
    store.load_turtle(&base_kg()).unwrap();
    assert_matches_rebuild(&store, "load");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batches = Vec::new();
    for i in 0..BATCHES {
        let text = batch(&store, &mut rng);
        execute_update_recording(&mut store, &text).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_matches_rebuild(&store, &format!("seed {seed} batch {i} mem: {text}"));
        batches.push(text);
    }
    batches
}

#[test]
fn delta_closure_equals_full_recompute_in_memory() {
    for seed in 0..SEEDS {
        in_memory_run(seed);
    }
}

#[test]
fn delta_closure_equals_full_recompute_over_segments() {
    for seed in 0..SEEDS {
        let batches = in_memory_run(seed);
        let dir = tmpdir(&format!("seg-{seed}"));
        let mut p = PersistentStore::open(&dir, seg_config()).unwrap();
        p.load_turtle(&base_kg()).unwrap();
        p.checkpoint_fold().unwrap();
        assert!(p.segment_stats().segments >= 2, "explicit and closure segments");
        for (i, text) in batches.iter().enumerate() {
            let (_, changes) = execute_update_recording(p.store_mut_unlogged(), text).unwrap();
            p.log_mutations(&changes).unwrap();
            assert_matches_rebuild(p.store(), &format!("seed {seed} batch {i} seg: {text}"));
            if i % 20 == 19 {
                p.checkpoint_fold().unwrap();
                assert_matches_rebuild(p.store(), &format!("seed {seed} fold after {i}"));
            }
        }
        drop(p);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn delta_closure_equals_full_recompute_after_wal_recovery() {
    const REOPEN_EVERY: usize = 3;
    for seed in 0..SEEDS {
        let batches = in_memory_run(seed);
        let dir = tmpdir(&format!("wal-{seed}"));
        let mut p = PersistentStore::open(&dir, seg_config()).unwrap();
        p.load_turtle(&base_kg()).unwrap();
        p.checkpoint_fold().unwrap();
        let mut reference = Store::new();
        reference.load_turtle(&base_kg()).unwrap();
        for (i, text) in batches.iter().enumerate() {
            let (_, changes) = execute_update_recording(p.store_mut_unlogged(), text).unwrap();
            p.log_mutations(&changes).unwrap();
            execute_update_recording(&mut reference, text).unwrap();
            if i % REOPEN_EVERY == REOPEN_EVERY - 1 {
                // recovery replays the logged batches onto the persisted
                // closure and maintains it by delta
                drop(p);
                p = PersistentStore::open(&dir, seg_config()).unwrap();
                assert!(p.recovery().wal_records_replayed > 0);
                let ctx = format!("seed {seed} recovered after batch {i}");
                assert_matches_rebuild(p.store(), &ctx);
                assert_eq!(entailed_terms(p.store()), entailed_terms(&reference), "{ctx}");
                if i % (2 * REOPEN_EVERY) == REOPEN_EVERY - 1 {
                    p.checkpoint_fold().unwrap(); // start the next WAL afresh
                }
            }
        }
        drop(p);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
