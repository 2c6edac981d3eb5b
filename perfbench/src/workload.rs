//! The benchmark's operation sequences: the analyst's click mix (the
//! user-study click programs T1–T11 plus the efficiency queries Q1–Q10 and
//! three queries that take the term-space fallback) and the curator's
//! insert/delete batches. Everything here is a pure function of the store
//! and the seed.

use rdfa_core::{AnalyticsSession, GroupSpec, MeasureSpec};
use rdfa_datagen::EX;
use rdfa_facets::PathStep;
use rdfa_hifun::{AggOp, CondOp, DerivedFn};
use rdfa_model::{Term, Value};
use rdfa_prng::StdRng;
use rdfa_store::{Store, TermId};
use std::collections::HashMap;

const PREFIXES: &str = "PREFIX ex: <http://www.ics.forth.gr/example#>\nPREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n";

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// `GET /v1/facets[?class=]`: the facet panel.
    Facets,
    /// `POST /v1/query`: a click's SPARQL.
    Query,
    /// `POST /v1/update`: a curator batch.
    Update,
    /// `POST /v1/query`: the curator reading its batch back.
    Readback,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Facets => "facets",
            Kind::Query => "query",
            Kind::Update => "update",
            Kind::Readback => "readback",
        }
    }
}

/// One HTTP request the benchmark sends.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Request {
    pub kind: Kind,
    pub method: &'static str,
    pub path: String,
    pub body: String,
    /// The facet panel's class IRI (`None` = initial state).
    pub class: Option<String>,
}

impl Request {
    pub fn facets(class: Option<&str>) -> Request {
        let path = match class {
            None => "/v1/facets".to_owned(),
            Some(iri) => format!("/v1/facets?class={}", percent_encode(iri)),
        };
        Request {
            kind: Kind::Facets,
            method: "GET",
            path,
            body: String::new(),
            class: class.map(str::to_owned),
        }
    }

    pub fn query(kind: Kind, sparql: String) -> Request {
        Request {
            kind,
            method: "POST",
            path: "/v1/query".to_owned(),
            body: sparql,
            class: None,
        }
    }

    pub fn update(body: String) -> Request {
        Request {
            kind: Kind::Update,
            method: "POST",
            path: "/v1/update".to_owned(),
            body,
            class: None,
        }
    }
}

/// The analyst's click mix: distinct requests and the order one pass
/// sends them in (indices into `requests`).
#[derive(Debug, Clone)]
pub struct ClickMix {
    pub requests: Vec<Request>,
    pub sequence: Vec<usize>,
}

/// The click targets of the user study's tasks.
struct Targets {
    laptop: TermId,
    manufacturer_prop: TermId,
    origin_prop: TermId,
    price: TermId,
    usb: TermId,
    release: TermId,
    company: TermId,
    country: TermId,
    usb_lo: i64,
    usb_hi: i64,
    having: i64,
}

fn iri_id(store: &Store, local: &str) -> Result<TermId, String> {
    store
        .lookup_iri(&format!("{EX}{local}"))
        .ok_or_else(|| format!("{local} is not in the generated KG"))
}

impl Targets {
    /// The study's values (`Company0`, `USA`, 2–4 USB ports, an average
    /// price of 1200). They are fixed rather than drawn per seed, so runs
    /// with different seeds differ only in the generated data and the
    /// program order, not in how selective each click is.
    fn study(store: &Store) -> Result<Targets, String> {
        Ok(Targets {
            laptop: iri_id(store, "Laptop")?,
            manufacturer_prop: iri_id(store, "manufacturer")?,
            origin_prop: iri_id(store, "origin")?,
            price: iri_id(store, "price")?,
            usb: iri_id(store, "USBPorts")?,
            release: iri_id(store, "releaseDate")?,
            company: iri_id(store, "Company0")?,
            country: iri_id(store, "USA")?,
            usb_lo: 2,
            usb_hi: 4,
            having: 1200,
        })
    }
}

/// Records what the GUI sends while a click program runs: the facet panel
/// after every facet click, and the state's SPARQL whenever it changes.
struct Recorder<'s> {
    session: AnalyticsSession<'s>,
    class: Option<String>,
    last_sparql: Option<String>,
    out: Vec<Request>,
}

impl<'s> Recorder<'s> {
    fn start(store: &'s Store) -> Recorder<'s> {
        Recorder {
            session: AnalyticsSession::start(store),
            class: None,
            last_sparql: None,
            out: vec![Request::facets(None)],
        }
    }

    fn class(&mut self, c: TermId) -> Result<(), String> {
        self.session.select_class(c).map_err(|e| e.message)?;
        self.class = self.session.store().term(c).as_iri().map(str::to_owned);
        self.facet_click();
        Ok(())
    }

    /// After a click that changes the extension: refresh the panel and the
    /// results.
    fn facet_click(&mut self) {
        self.out.push(Request::facets(self.class.as_deref()));
        self.analytic_click();
    }

    /// After an analytics click: re-run the state's SPARQL if it changed.
    fn analytic_click(&mut self) {
        let sparql = self
            .session
            .sparql()
            .unwrap_or_else(|_| self.session.facets().intent_sparql());
        if self.last_sparql.as_ref() != Some(&sparql) {
            self.out.push(Request::query(Kind::Query, sparql.clone()));
            self.last_sparql = Some(sparql);
        }
    }
}

type Program = fn(&mut Recorder<'_>, &Targets) -> Result<(), String>;

/// The user-study tasks T1–T11 as click programs.
fn programs() -> Vec<(&'static str, Program)> {
    vec![
        ("T1", |r, t| r.class(t.laptop)),
        ("T2", |r, t| {
            r.class(t.laptop)?;
            r.session
                .select_value(t.manufacturer_prop, t.company)
                .map_err(|e| e.message)?;
            r.facet_click();
            Ok(())
        }),
        ("T3", |r, t| {
            r.class(t.laptop)?;
            r.session
                .select_range(
                    &[PathStep::fwd(t.usb)],
                    Some(Value::Int(t.usb_lo)),
                    Some(Value::Int(t.usb_hi)),
                )
                .map_err(|e| e.message)?;
            r.facet_click();
            Ok(())
        }),
        ("T4", |r, t| {
            r.class(t.laptop)?;
            r.session
                .select_path_value(
                    &[
                        PathStep::fwd(t.manufacturer_prop),
                        PathStep::fwd(t.origin_prop),
                    ],
                    t.country,
                )
                .map_err(|e| e.message)?;
            r.facet_click();
            Ok(())
        }),
        ("T5", |r, t| {
            r.class(t.laptop)?;
            r.session
                .add_grouping(GroupSpec::property(t.manufacturer_prop));
            r.analytic_click();
            r.session.set_ops(vec![AggOp::Count]);
            r.analytic_click();
            Ok(())
        }),
        ("T6", |r, t| {
            r.class(t.laptop)?;
            r.session.set_measure(MeasureSpec::property(t.price));
            r.analytic_click();
            r.session.set_ops(vec![AggOp::Avg]);
            r.analytic_click();
            Ok(())
        }),
        ("T7", |r, t| {
            r.class(t.laptop)?;
            r.session
                .add_grouping(GroupSpec::property(t.manufacturer_prop));
            r.analytic_click();
            r.session.set_measure(MeasureSpec::property(t.price));
            r.analytic_click();
            r.session.set_ops(vec![AggOp::Avg]);
            r.analytic_click();
            Ok(())
        }),
        ("T8", |r, t| {
            r.class(t.laptop)?;
            r.session
                .add_grouping(GroupSpec::property(t.manufacturer_prop));
            r.analytic_click();
            r.session
                .add_grouping(GroupSpec::path(vec![t.manufacturer_prop, t.origin_prop]));
            r.analytic_click();
            r.session.set_measure(MeasureSpec::property(t.price));
            r.analytic_click();
            r.session.set_ops(vec![AggOp::Avg, AggOp::Sum, AggOp::Max]);
            r.analytic_click();
            Ok(())
        }),
        ("T9", |r, t| {
            r.class(t.laptop)?;
            r.session
                .add_grouping(GroupSpec::property(t.release).with_derived(DerivedFn::Year));
            r.analytic_click();
            r.session.set_ops(vec![AggOp::Count]);
            r.analytic_click();
            Ok(())
        }),
        ("T10", |r, t| {
            r.class(t.laptop)?;
            r.session
                .select_range(&[PathStep::fwd(t.usb)], Some(Value::Int(t.usb_lo)), None)
                .map_err(|e| e.message)?;
            r.facet_click();
            r.session
                .add_grouping(GroupSpec::path(vec![t.manufacturer_prop, t.origin_prop]));
            r.analytic_click();
            r.session.set_measure(MeasureSpec::property(t.price));
            r.analytic_click();
            r.session.set_ops(vec![AggOp::Avg]);
            r.analytic_click();
            Ok(())
        }),
        ("T11", |r, t| {
            r.class(t.laptop)?;
            r.session
                .add_grouping(GroupSpec::property(t.manufacturer_prop));
            r.analytic_click();
            r.session.set_measure(MeasureSpec::property(t.price));
            r.analytic_click();
            r.session.set_ops(vec![AggOp::Avg]);
            r.analytic_click();
            r.session.add_having(0, CondOp::Ge, Term::integer(t.having));
            r.analytic_click();
            Ok(())
        }),
    ]
}

/// Queries outside the compiled id-space fragment: MINUS, a nested
/// sub-SELECT (§5.3.3) and a property path.
fn fallback_queries(store: &Store, t: &Targets) -> Vec<String> {
    let company = store
        .term(t.company)
        .as_iri()
        .unwrap_or_default()
        .to_owned();
    vec![
        format!(
            "{PREFIXES}SELECT ?m (COUNT(?x) AS ?n) WHERE {{ ?x rdf:type ex:Laptop . ?x ex:manufacturer ?m . MINUS {{ ?x ex:USBPorts {} }} }} GROUP BY ?m",
            t.usb_lo
        ),
        format!(
            "{PREFIXES}SELECT ?m ?avg WHERE {{ {{ SELECT ?m (AVG(?p) AS ?avg) WHERE {{ ?x ex:manufacturer ?m . ?x ex:price ?p . }} GROUP BY ?m }} FILTER(?avg >= {}) }}",
            t.having
        ),
        format!(
            "{PREFIXES}SELECT ?c (COUNT(?x) AS ?n) WHERE {{ ?x ex:manufacturer <{company}> . ?x ex:manufacturer/ex:origin ?c . }} GROUP BY ?c"
        ),
    ]
}

/// Build the analyst's click mix over `store`. One pass sends every program
/// once, in a fixed order: the seed changes the generated KG, not the mix,
/// so a window cut mid-pass covers the same requests whatever the seed.
pub fn click_mix(store: &Store) -> Result<ClickMix, String> {
    let targets = Targets::study(store)?;
    let mut pass: Vec<Request> = Vec::new();
    for (id, program) in programs() {
        let mut rec = Recorder::start(store);
        program(&mut rec, &targets).map_err(|e| format!("{id}: {e}"))?;
        pass.extend(rec.out);
    }
    for wq in rdfa_bench::queries::workload() {
        pass.push(Request::query(Kind::Query, wq.sparql));
    }
    for q in fallback_queries(store, &targets) {
        pass.push(Request::query(Kind::Query, q));
    }
    let mut requests: Vec<Request> = Vec::new();
    let mut index: HashMap<Request, usize> = HashMap::new();
    let mut sequence = Vec::new();
    for req in pass {
        let next = requests.len();
        let i = *index.entry(req.clone()).or_insert(next);
        if i == next {
            requests.push(req);
        }
        sequence.push(i);
    }
    Ok(ClickMix { requests, sequence })
}

/// One curator batch: new laptops with a manufacturer and a price.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    pub laptops: Vec<(String, String, i64)>,
}

pub const BATCH_LAPTOPS: usize = 4;

impl Batch {
    /// Batch `n` of the stream tagged `tag` (`curate` or `probe`); its
    /// contents depend only on the seed and `n`.
    pub fn new(seed: u64, tag: &str, n: usize, n_companies: usize) -> Batch {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ n as u64);
        let laptops = (0..BATCH_LAPTOPS)
            .map(|i| {
                (
                    format!("{EX}{tag}{n}_{i}"),
                    format!("{EX}Company{}", rng.gen_range(0..n_companies)),
                    rng.gen_range(300..3000i64),
                )
            })
            .collect();
        Batch { laptops }
    }

    pub fn triples(&self) -> usize {
        self.laptops.len() * 3
    }

    fn data(&self) -> String {
        self.laptops
            .iter()
            .map(|(x, m, p)| {
                format!("<{x}> rdf:type ex:Laptop ; ex:manufacturer <{m}> ; ex:price {p} .")
            })
            .collect::<Vec<_>>()
            .join(" ")
    }

    pub fn insert(&self) -> String {
        format!("{PREFIXES}INSERT DATA {{ {} }}", self.data())
    }

    pub fn delete(&self) -> String {
        format!("{PREFIXES}DELETE DATA {{ {} }}", self.data())
    }

    /// The query reading the batch back: one row per laptop present.
    pub fn readback(&self) -> String {
        let values = self
            .laptops
            .iter()
            .map(|(x, _, _)| format!("<{x}>"))
            .collect::<Vec<_>>()
            .join(" ");
        format!(
            "{PREFIXES}SELECT ?x ?m ?p WHERE {{ VALUES ?x {{ {values} }} ?x rdf:type ex:Laptop . ?x ex:manufacturer ?m . ?x ex:price ?p . }}"
        )
    }
}

/// Percent-encode everything but RFC 3986 unreserved characters.
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 3);
    for b in s.bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'~') {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfa_datagen::ProductsGenerator;

    fn store(seed: u64) -> Store {
        let mut s = Store::new();
        s.load_graph(&ProductsGenerator::new(600, seed).generate());
        s
    }

    #[test]
    fn click_mix_is_deterministic_per_seed() {
        let a = click_mix(&store(3)).unwrap();
        let b = click_mix(&store(3)).unwrap();
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.sequence, b.sequence);
    }

    #[test]
    fn click_mix_covers_every_program_and_query() {
        let s = store(5);
        let mix = click_mix(&s).unwrap();
        let queries = mix
            .requests
            .iter()
            .filter(|r| r.kind == Kind::Query)
            .count();
        // Q1–Q10 + 3 fallbacks + at least one distinct SPARQL per task
        assert!(queries >= 10 + 3 + 5, "{queries} distinct queries");
        assert!(mix
            .requests
            .iter()
            .any(|r| r.kind == Kind::Facets && r.class.is_none()));
        assert!(mix
            .requests
            .iter()
            .any(|r| r.kind == Kind::Facets && r.class.is_some()));
        assert!(mix.requests.iter().any(|r| r.body.contains("MINUS")));
        assert!(mix
            .requests
            .iter()
            .any(|r| r.body.contains("ex:manufacturer/ex:origin")));
        // every request is sent at least once per pass
        let mut seen = vec![false; mix.requests.len()];
        for &i in &mix.sequence {
            seen[i] = true;
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn batches_are_deterministic_and_distinct() {
        assert_eq!(
            Batch::new(9, "curate", 2, 10),
            Batch::new(9, "curate", 2, 10)
        );
        assert_ne!(
            Batch::new(9, "curate", 2, 10),
            Batch::new(9, "curate", 3, 10)
        );
        let b = Batch::new(1, "probe", 0, 10);
        assert!(b.insert().contains("INSERT DATA"));
        assert!(b.delete().contains("DELETE DATA"));
        assert_eq!(b.triples(), 3 * BATCH_LAPTOPS);
    }

    #[test]
    fn percent_encoding_keeps_only_unreserved() {
        assert_eq!(
            percent_encode("http://e/a#b c"),
            "http%3A%2F%2Fe%2Fa%23b%20c"
        );
    }
}
