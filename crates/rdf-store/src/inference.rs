//! RDFS closure materialization, from scratch and by delta.
//!
//! Implements the entailment rules the paper's model leverages (§2.1, §5.2.1):
//!
//! - **rdfs5/rdfs11** — transitivity of `rdfs:subPropertyOf` / `rdfs:subClassOf`
//! - **rdfs7** — property inheritance: `(s p o), (p ⊑ q) ⟹ (s q o)`
//! - **rdfs9** — type propagation: `(x type c), (c ⊑ d) ⟹ (x type d)`
//! - **rdfs2/rdfs3** — domain/range typing: `(p domain c), (s p o) ⟹ (s type c)`
//!   (range analogously for resource objects; literals are never typed),
//!   both lifted through superproperties.
//!
//! Entailment has one definition, shared by both maintenance paths: a
//! [`Schema`] (the two subsumption closures plus the classes each property
//! types its subjects and objects with) and the per-triple step
//! [`Schema::derive`]. With `E` the explicit layer and `S` the schema's
//! subsumption triples, the inferred layer is exactly
//!
//! ```text
//! I = (S ∪ ⋃_{t ∈ E} derive(t)) \ E
//! ```
//!
//! No global fixpoint is needed: once the subsumption closures are known the
//! rule dependencies are acyclic, so one `derive` per explicit triple covers
//! every conclusion.
//!
//! [`compute_closure`] evaluates `I` from scratch. [`apply_delta`] moves it
//! across a *data-only* delta `Δ` (no triple of `Δ` has a [schema
//! predicate](is_schema_predicate), so `S` and `derive` are unchanged). A
//! triple outside the candidates `C = Δ ∪ ⋃_{t ∈ Δ} derive(t)` keeps its
//! membership: its own explicitness did not change, and every explicit
//! triple deriving it before or after is outside `Δ`. Each candidate is
//! re-decided against the final explicit layer — it belongs to `I` exactly
//! when it is not explicit and is either in `S` or derived by a remaining
//! explicit triple. The result is therefore the same set `compute_closure`
//! would build.

use crate::index::{IdTriple, TripleIndex};
use crate::interner::{Interner, TermId};
use crate::layer::Layer;
use crate::store::WellKnown;
use std::collections::{HashMap, HashSet};

/// True for the predicates the [`Schema`] is built from. A delta touching
/// one of them changes `derive` itself and needs a full rebuild.
pub(crate) fn is_schema_predicate(wk: &WellKnown, p: TermId) -> bool {
    [wk.rdfs_subclassof, wk.rdfs_subpropertyof, wk.rdfs_domain, wk.rdfs_range].contains(&p)
}

/// What one triple of a property entails.
#[derive(Debug, Default)]
struct PropRules {
    /// Proper superproperties (rdfs5 closure): the rdfs7 targets.
    supers: Vec<TermId>,
    /// Classes its subjects get: domains of the property and of its
    /// superproperties, closed upwards (rdfs2 + rdfs9).
    subject_types: Vec<TermId>,
    /// Classes its resource objects get, likewise through ranges (rdfs3 + rdfs9).
    object_types: Vec<TermId>,
}

/// The schema part of the closure: everything [`Schema::derive`] needs,
/// computed from the explicit `subClassOf`/`subPropertyOf`/`domain`/`range`
/// triples alone.
#[derive(Debug)]
pub(crate) struct Schema {
    wk: WellKnown,
    /// Proper superclasses of each class (rdfs11 closure).
    super_classes: HashMap<TermId, Vec<TermId>>,
    /// Rules of every property that has a superproperty, domain or range.
    props: HashMap<TermId, PropRules>,
}

impl Schema {
    pub(crate) fn new(explicit: &Layer, wk: WellKnown) -> Schema {
        let super_classes = transitive_closure(explicit, wk.rdfs_subclassof);
        let mut super_props = transitive_closure(explicit, wk.rdfs_subpropertyof);
        let declared = |pred: TermId| {
            let mut by_prop: HashMap<TermId, Vec<TermId>> = HashMap::new();
            for [p, _, c] in explicit.matching(None, Some(pred), None) {
                by_prop.entry(p).or_default().push(c);
            }
            by_prop
        };
        let domains = declared(wk.rdfs_domain);
        let ranges = declared(wk.rdfs_range);

        // a declared class and all its superclasses, for every effective
        // property (the property itself plus its superproperties)
        let typed = |decl: &HashMap<TermId, Vec<TermId>>, p: TermId, supers: &[TermId]| {
            let mut out = Vec::new();
            for q in std::iter::once(&p).chain(supers) {
                for &c in decl.get(q).into_iter().flatten() {
                    out.push(c);
                    out.extend(super_classes.get(&c).into_iter().flatten());
                }
            }
            out.sort_unstable();
            out.dedup();
            out
        };
        let mut ruled: Vec<TermId> =
            super_props.keys().chain(domains.keys()).chain(ranges.keys()).copied().collect();
        ruled.sort_unstable();
        ruled.dedup();
        let props = ruled
            .into_iter()
            .map(|p| {
                let supers = super_props.remove(&p).unwrap_or_default();
                let rules = PropRules {
                    subject_types: typed(&domains, p, &supers),
                    object_types: typed(&ranges, p, &supers),
                    supers,
                };
                (p, rules)
            })
            .collect();
        Schema { wk, super_classes, props }
    }

    /// The transitive subsumption triples themselves (rdfs5, rdfs11).
    fn subsumptions(&self) -> impl Iterator<Item = IdTriple> + '_ {
        let wk = self.wk;
        let classes = self
            .super_classes
            .iter()
            .flat_map(move |(&c, sups)| sups.iter().map(move |&d| [c, wk.rdfs_subclassof, d]));
        let props = self
            .props
            .iter()
            .flat_map(move |(&p, r)| r.supers.iter().map(move |&q| [p, wk.rdfs_subpropertyof, q]));
        classes.chain(props)
    }

    fn is_subsumption(&self, [s, p, o]: IdTriple) -> bool {
        if p == self.wk.rdfs_subclassof {
            self.super_classes.get(&s).is_some_and(|sups| sups.contains(&o))
        } else if p == self.wk.rdfs_subpropertyof {
            self.props.get(&s).is_some_and(|r| r.supers.contains(&o))
        } else {
            false
        }
    }

    /// Append what the explicit triple `t` entails on its own (given this
    /// schema) to `out`. May repeat a triple or yield an explicit one; the
    /// callers filter.
    pub(crate) fn derive(&self, [s, p, o]: IdTriple, terms: &Interner, out: &mut Vec<IdTriple>) {
        let ty = self.wk.rdf_type;
        if p == ty {
            // rdfs9
            out.extend(self.super_classes.get(&o).into_iter().flatten().map(|&d| [s, ty, d]));
            return;
        }
        if p == self.wk.rdfs_subclassof || p == self.wk.rdfs_subpropertyof {
            return; // the schema's own closure covers these
        }
        let Some(rules) = self.props.get(&p) else { return };
        out.extend(rules.supers.iter().map(|&q| [s, q, o])); // rdfs7
        out.extend(rules.subject_types.iter().map(|&c| [s, ty, c])); // rdfs2
        if !rules.object_types.is_empty() && !terms.term(o).is_literal() {
            out.extend(rules.object_types.iter().map(|&c| [o, ty, c])); // rdfs3
        }
    }

    /// True when some explicit triple derives `c`. Every rule derives a
    /// triple about its premise's subject, except range typing, which types
    /// the premise's object — so scanning `c`'s subject in SPO (and, for a
    /// type triple, in OSP) visits every possible premise.
    fn has_premise(
        &self,
        explicit: &Layer,
        terms: &Interner,
        c: IdTriple,
        buf: &mut Vec<IdTriple>,
    ) -> bool {
        let mut derives = |t: IdTriple| {
            buf.clear();
            self.derive(t, terms, buf);
            buf.contains(&c)
        };
        if explicit.matching(Some(c[0]), None, None).any(&mut derives) {
            return true;
        }
        c[1] == self.wk.rdf_type && explicit.matching(None, None, Some(c[0])).any(derives)
    }
}

/// Compute the inferred layer (triples entailed but not asserted) from
/// scratch.
pub(crate) fn compute_closure(explicit: &Layer, schema: &Schema, terms: &Interner) -> TripleIndex {
    let mut run: Vec<IdTriple> = schema.subsumptions().collect();
    for t in explicit.iter() {
        schema.derive(t, terms, &mut run);
    }
    run.sort_unstable();
    run.dedup();
    run.retain(|&t| !explicit.contains(t));
    let mut inferred = TripleIndex::new();
    crate::bulk::extend_index(&mut inferred, run, 1);
    inferred
}

/// Move `inferred` from the closure of the explicit layer before `delta` to
/// the closure of `explicit` (the layer after it). `delta` lists the
/// explicit triples inserted or removed, in any order and with repeats;
/// none may have a schema predicate.
pub(crate) fn apply_delta(
    explicit: &Layer,
    inferred: &mut Layer,
    schema: &Schema,
    terms: &Interner,
    mut delta: Vec<IdTriple>,
) {
    delta.sort_unstable();
    delta.dedup();
    let mut derived = Vec::new();
    let mut recheck = Vec::new();
    for t in delta {
        debug_assert!(!is_schema_predicate(&schema.wk, t[1]), "schema delta {t:?}");
        derived.clear();
        schema.derive(t, terms, &mut derived);
        if explicit.contains(t) {
            // t is asserted now, so it and everything it derives are entailed
            inferred.remove(t);
            for &c in &derived {
                if !explicit.contains(c) {
                    inferred.insert(c);
                }
            }
        } else {
            // t is gone: it and its conclusions survive only if another
            // explicit triple still derives them
            recheck.push(t);
            recheck.append(&mut derived);
        }
    }
    recheck.sort_unstable();
    recheck.dedup();
    for c in recheck {
        // an explicit candidate was never in the inferred layer, or was
        // asserted by this delta and removed from it above
        if explicit.contains(c) {
            continue;
        }
        if schema.is_subsumption(c) || schema.has_premise(explicit, terms, c, &mut derived) {
            inferred.insert(c);
        } else {
            inferred.remove(c);
        }
    }
}

/// Proper transitive closure of a binary relation stored as triples with
/// predicate `pred`: maps each node to its ancestors, excluding itself even
/// when a cycle leads back to it.
fn transitive_closure(index: &Layer, pred: TermId) -> HashMap<TermId, Vec<TermId>> {
    let mut direct: HashMap<TermId, Vec<TermId>> = HashMap::new();
    for [s, _, o] in index.matching(None, Some(pred), None) {
        if s != o {
            direct.entry(s).or_default().push(o);
        }
    }
    let mut closure = HashMap::new();
    for (&start, next) in &direct {
        let mut seen: HashSet<TermId> = HashSet::new();
        let mut stack = next.clone();
        while let Some(n) = stack.pop() {
            if n != start && seen.insert(n) {
                stack.extend(direct.get(&n).into_iter().flatten());
            }
        }
        let mut ancestors: Vec<TermId> = seen.into_iter().collect();
        ancestors.sort_unstable();
        closure.insert(start, ancestors);
    }
    closure
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{Closure, Store, DELTA_FRACTION};
    use rdfa_model::Term;

    const EX: &str = "http://example.org/";

    fn id(store: &mut Store, local: &str) -> TermId {
        store.intern(&Term::iri(format!("{EX}{local}")))
    }

    #[test]
    fn domain_and_range_typing() {
        let mut store = Store::new();
        store
            .load_turtle(&format!(
                r#"
                @prefix ex: <{EX}> .
                @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
                ex:manufacturer rdfs:domain ex:Product ; rdfs:range ex:Company .
                ex:laptop1 ex:manufacturer ex:DELL .
                "#
            ))
            .unwrap();
        let laptop1 = id(&mut store, "laptop1");
        let dell = id(&mut store, "DELL");
        let product = id(&mut store, "Product");
        let company = id(&mut store, "Company");
        let wk = store.well_known();
        assert!(store.contains([laptop1, wk.rdf_type, product]));
        assert!(store.contains([dell, wk.rdf_type, company]));
    }

    #[test]
    fn deep_subclass_chain() {
        let mut store = Store::new();
        store
            .load_turtle(&format!(
                r#"
                @prefix ex: <{EX}> .
                @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
                ex:A rdfs:subClassOf ex:B . ex:B rdfs:subClassOf ex:C .
                ex:C rdfs:subClassOf ex:D .
                ex:x a ex:A .
                "#
            ))
            .unwrap();
        let x = id(&mut store, "x");
        let wk = store.well_known();
        for cls in ["B", "C", "D"] {
            let c = id(&mut store, cls);
            assert!(store.contains([x, wk.rdf_type, c]), "x should be a {cls}");
        }
        // transitive subclass triple materialized
        let a = id(&mut store, "A");
        let d = id(&mut store, "D");
        assert!(store.contains([a, wk.rdfs_subclassof, d]));
    }

    #[test]
    fn subproperty_with_inherited_domain() {
        let mut store = Store::new();
        store
            .load_turtle(&format!(
                r#"
                @prefix ex: <{EX}> .
                @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
                ex:producer rdfs:domain ex:Artifact .
                ex:manufacturer rdfs:subPropertyOf ex:producer .
                ex:l ex:manufacturer ex:DELL .
                "#
            ))
            .unwrap();
        let l = id(&mut store, "l");
        let artifact = id(&mut store, "Artifact");
        let producer = id(&mut store, "producer");
        let dell = id(&mut store, "DELL");
        let wk = store.well_known();
        assert!(store.contains([l, producer, dell]));
        assert!(store.contains([l, wk.rdf_type, artifact]));
    }

    #[test]
    fn cyclic_subclass_terminates() {
        let mut store = Store::new();
        store
            .load_turtle(&format!(
                r#"
                @prefix ex: <{EX}> .
                @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
                ex:A rdfs:subClassOf ex:B . ex:B rdfs:subClassOf ex:A .
                ex:x a ex:A .
                "#
            ))
            .unwrap();
        let x = id(&mut store, "x");
        let b = id(&mut store, "B");
        let wk = store.well_known();
        assert!(store.contains([x, wk.rdf_type, b]));
    }

    #[test]
    fn range_does_not_type_literals() {
        let mut store = Store::new();
        store
            .load_turtle(&format!(
                r#"
                @prefix ex: <{EX}> .
                @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
                ex:price rdfs:range ex:Money .
                ex:l ex:price 900 .
                ex:m ex:price ex:amount .
                "#
            ))
            .unwrap();
        let money = id(&mut store, "Money");
        let amount = id(&mut store, "amount");
        let wk = store.well_known();
        // `?x a ex:Money` binds the resource object only, never the literal
        let typed: Vec<TermId> =
            store.matching(None, Some(wk.rdf_type), Some(money)).map(|[s, _, _]| s).collect();
        assert_eq!(typed, vec![amount]);
        let literal = store.lookup(&Term::integer(900)).unwrap();
        assert!(store.classes_of(literal).is_empty());
        // the class markers list Money with its one resource instance
        assert!(store.classes().contains(&money));
        assert_eq!(store.instances(money).len(), 1);

        // with only a literal object, Money is no class marker at all
        let mut store = Store::new();
        store
            .load_turtle(&format!(
                "@prefix ex: <{EX}> . @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
                 ex:price rdfs:range ex:Money . ex:l ex:price 900 ."
            ))
            .unwrap();
        let money = id(&mut store, "Money");
        let wk = store.well_known();
        assert_eq!(store.matching(None, Some(wk.rdf_type), Some(money)).count(), 0);
        assert!(!store.classes().contains(&money));
    }

    /// A store over a small schema, padded with unrelated triples so that
    /// deltas of a few triples stay under the full-rebuild fraction.
    fn delta_store(data: &str) -> Store {
        let mut store = Store::new();
        let filler: String = (0..64).map(|i| format!("ex:f{i} ex:filler ex:g{i} .\n")).collect();
        store
            .load_turtle(&format!(
                r#"
                @prefix ex: <{EX}> .
                @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
                ex:Laptop rdfs:subClassOf ex:Product .
                ex:Product rdfs:subClassOf ex:Thing .
                ex:maker rdfs:subPropertyOf ex:producer .
                ex:producer rdfs:domain ex:Product ; rdfs:range ex:Company .
                {data}
                {filler}
                "#
            ))
            .unwrap();
        store
    }

    fn tr(store: &mut Store, s: &str, p: &str, o: &str) -> IdTriple {
        let p = if p == "a" { store.well_known().rdf_type } else { id(store, p) };
        [id(store, s), p, id(store, o)]
    }

    /// Apply the pending delta, asserting it takes the incremental path and
    /// lands on exactly the full recompute.
    fn maintain_incrementally(store: &mut Store) {
        assert!(matches!(store.closure, Closure::Pending(_)), "{:?}", store.closure);
        store.materialize_inference();
        assert_same_as_rebuild(store);
    }

    fn assert_same_as_rebuild(store: &Store) {
        let mut full = store.clone();
        full.rebuild_inference();
        let mut got: Vec<IdTriple> = store.matching(None, None, None).collect();
        let mut want: Vec<IdTriple> = full.matching(None, None, None).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(store.len_entailed(), full.len_entailed(), "layers must stay disjoint");
    }

    #[test]
    fn deletion_keeps_triple_with_a_second_premise() {
        let mut store =
            delta_store("ex:l1 a ex:Laptop ; ex:maker ex:DELL . ex:l2 ex:maker ex:DELL .");
        let l1_product = tr(&mut store, "l1", "a", "Product");
        let dell_company = tr(&mut store, "DELL", "a", "Company");
        assert!(store.contains(l1_product) && store.contains(dell_company));
        // l1 stays a Product through the maker domain; DELL stays a Company
        // through l2's maker edge
        let t = tr(&mut store, "l1", "a", "Laptop");
        assert!(store.remove_ids(t));
        let t = tr(&mut store, "l1", "maker", "DELL");
        let t2 = tr(&mut store, "l1", "producer", "DELL");
        store.remove_ids(t);
        let t = tr(&mut store, "l1", "maker", "HP");
        store.insert_ids(t);
        maintain_incrementally(&mut store);
        assert!(store.contains(l1_product) && store.contains(dell_company));
        assert!(!store.contains(t2), "l1 no longer produced by DELL");
        // the last premise of DELL's type goes
        let t = tr(&mut store, "l2", "maker", "DELL");
        store.remove_ids(t);
        maintain_incrementally(&mut store);
        assert!(!store.contains(dell_company));
    }

    #[test]
    fn deletion_keeps_a_schema_subsumption() {
        // `A ⊑ C` is both a transitive schema conclusion and derived by a
        // data triple whose property refines rdfs:subClassOf
        let mut store = delta_store(
            "ex:narrower rdfs:subPropertyOf rdfs:subClassOf .
             ex:A rdfs:subClassOf ex:B . ex:B rdfs:subClassOf ex:C .
             ex:A ex:narrower ex:C . ex:A ex:narrower ex:E .",
        );
        let sub = store.well_known().rdfs_subclassof;
        let (a, c, e) = (id(&mut store, "A"), id(&mut store, "C"), id(&mut store, "E"));
        let narrower = id(&mut store, "narrower");
        assert!(store.remove_ids([a, narrower, c]));
        assert!(store.remove_ids([a, narrower, e]));
        maintain_incrementally(&mut store);
        assert!(store.contains([a, sub, c]));
        assert!(!store.contains([a, sub, e]));
    }

    #[test]
    fn deleted_explicit_triple_still_entailed_moves_to_inferred() {
        let mut store = delta_store("ex:l1 a ex:Laptop , ex:Product .");
        let t = tr(&mut store, "l1", "a", "Product");
        assert!(!store.inferred_layer().contains(t));
        let before = store.len_entailed();
        assert!(store.remove_ids(t));
        maintain_incrementally(&mut store);
        assert!(store.inferred_layer().contains(t));
        assert_eq!(store.matching_explicit(Some(t[0]), Some(t[1]), Some(t[2])).count(), 0);
        assert_eq!(store.len_entailed(), before);
    }

    #[test]
    fn inserted_explicit_triple_leaves_inferred() {
        let mut store = delta_store("ex:l1 a ex:Laptop .");
        let t = tr(&mut store, "l1", "a", "Thing");
        assert!(store.inferred_layer().contains(t));
        let before = store.len_entailed();
        assert!(store.insert_ids(t));
        maintain_incrementally(&mut store);
        assert!(!store.inferred_layer().contains(t));
        assert!(store.contains(t));
        assert_eq!(store.len_entailed(), before);
    }

    #[test]
    fn insert_and_delete_of_one_triple_in_one_batch() {
        let mut store = delta_store("ex:l1 a ex:Laptop .");
        // a new triple inserted and deleted: nothing of it remains
        let t = tr(&mut store, "l9", "a", "Laptop");
        let derived = tr(&mut store, "l9", "a", "Product");
        assert!(store.insert_ids(t));
        assert!(store.remove_ids(t));
        maintain_incrementally(&mut store);
        assert!(!store.contains(t) && !store.contains(derived));
        // an existing triple deleted and re-inserted: all of it remains
        let t = tr(&mut store, "l1", "a", "Laptop");
        let derived = tr(&mut store, "l1", "a", "Thing");
        assert!(store.remove_ids(t));
        assert!(store.insert_ids(t));
        maintain_incrementally(&mut store);
        assert!(store.contains(t) && store.contains(derived));
    }

    #[test]
    fn schema_or_oversized_delta_takes_the_full_path() {
        let mut store = delta_store("ex:l1 a ex:Laptop .");
        let t = tr(&mut store, "l2", "a", "Laptop");
        store.insert_ids(t);
        assert!(matches!(store.closure, Closure::Pending(_)));
        // a schema predicate anywhere in the delta forces a rebuild
        let sub = store.well_known().rdfs_subclassof;
        let t = [id(&mut store, "Laptop"), sub, id(&mut store, "Device")];
        store.insert_ids(t);
        assert!(matches!(store.closure, Closure::Stale));
        assert!(store.schema.is_none());
        store.materialize_inference();
        assert_same_as_rebuild(&store);
        let t = tr(&mut store, "l2", "a", "Device");
        assert!(store.contains(t));

        // a delta past the fixed fraction of the store, too
        let limit = store.len() / DELTA_FRACTION;
        for i in 0..limit {
            let t = tr(&mut store, &format!("n{i}"), "a", "Laptop");
            store.insert_ids(t);
        }
        assert!(matches!(&store.closure, Closure::Pending(d) if d.len() == limit));
        let t = tr(&mut store, "last", "a", "Laptop");
        store.insert_ids(t);
        assert!(matches!(store.closure, Closure::Stale));
        assert!(store.schema.is_some(), "a data-only delta keeps the schema");
        store.materialize_inference();
        assert_same_as_rebuild(&store);
        let t = tr(&mut store, "last", "a", "Thing");
        assert!(store.contains(t));
    }

    #[test]
    fn no_spurious_inference_without_schema() {
        let mut store = Store::new();
        store
            .load_turtle(&format!("@prefix ex: <{EX}> . ex:a ex:p ex:b ."))
            .unwrap();
        assert_eq!(store.len_entailed(), store.len());
    }
}
