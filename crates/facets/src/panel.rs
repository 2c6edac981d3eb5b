//! The facet panel's wire format: the JSON body of `GET /v1/facets`.
//!
//! ```text
//! {"generation":G,"extension":N,
//!  "classes":[{"class":T,"count":N,"children":[…]},…],
//!  "facets":[{"property":T,"values":[{"value":T,"count":N},…],"children":[…]},…]}
//! ```
//!
//! A term `T` is a JSON string: the full IRI, a literal's lexical form, or
//! `_:label` for a blank node. A panel can carry tens of thousands of value
//! markers, and a warm facet-cache hit does nothing but render it, so
//! [`panel_json`] appends everything to one pre-sized `String`, escaping
//! terms in place from the store's borrowed strings: no allocation per
//! marker or per value.

use crate::markers::{ClassMarker, PropertyFacet};
use rdfa_model::{json, Term};
use rdfa_store::{Store, TermId};
use std::fmt::Write;

/// Bytes reserved per marker or value: a short IRI or literal plus its
/// JSON framing. Only an allocation hint; the output is exact either way.
const BYTES_PER_ENTRY: usize = 64;

/// The panel JSON for one facet state, appended to one buffer sized up
/// front from the number of markers and values.
pub fn panel_json(
    store: &Store,
    generation: u64,
    extension: usize,
    classes: &[ClassMarker],
    facets: &[PropertyFacet],
) -> String {
    let entries = class_entries(classes) + facet_entries(facets);
    let mut out = String::with_capacity(64 + entries * BYTES_PER_ENTRY);
    let _ = write!(
        out,
        "{{\"generation\":{generation},\"extension\":{extension},\"classes\":"
    );
    write_classes(&mut out, store, classes);
    out.push_str(",\"facets\":");
    write_facets(&mut out, store, facets);
    out.push('}');
    out
}

fn class_entries(classes: &[ClassMarker]) -> usize {
    classes.iter().map(|m| 1 + class_entries(&m.children)).sum()
}

fn facet_entries(facets: &[PropertyFacet]) -> usize {
    facets
        .iter()
        .map(|f| 1 + f.values.len() + facet_entries(&f.children))
        .sum()
}

fn write_term(out: &mut String, store: &Store, id: TermId) {
    match store.term(id) {
        Term::Iri(iri) => json::push_string(out, iri),
        Term::Literal(l) => json::push_string(out, &l.lexical),
        Term::Blank(label) => {
            out.push_str("\"_:");
            json::push_escaped(out, label);
            out.push('"');
        }
    }
}

fn write_classes(out: &mut String, store: &Store, classes: &[ClassMarker]) {
    out.push('[');
    for (i, m) in classes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"class\":");
        write_term(out, store, m.class);
        let _ = write!(out, ",\"count\":{},\"children\":", m.count);
        write_classes(out, store, &m.children);
        out.push('}');
    }
    out.push(']');
}

fn write_facets(out: &mut String, store: &Store, facets: &[PropertyFacet]) {
    out.push('[');
    for (i, f) in facets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"property\":");
        write_term(out, store, f.property);
        out.push_str(",\"values\":[");
        for (j, &(v, n)) in f.values.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("{\"value\":");
            write_term(out, store, v);
            let _ = write!(out, ",\"count\":{n}}}");
        }
        out.push_str("],\"children\":");
        write_facets(out, store, &f.children);
        out.push('}');
    }
    out.push(']');
}

/// The original `format!`-per-value renderer, kept verbatim as the oracle
/// for the byte-identity tests and the panel-render row of `facet_bench`.
pub mod reference {
    use crate::markers::{ClassMarker, PropertyFacet};
    use rdfa_store::{Store, TermId};

    /// The panel JSON built from one `String` per term, marker and list.
    pub fn panel_json(
        store: &Store,
        generation: u64,
        extension: usize,
        classes: &[ClassMarker],
        facets: &[PropertyFacet],
    ) -> String {
        format!(
            "{{\"generation\":{},\"extension\":{},\"classes\":[{}],\"facets\":[{}]}}",
            generation,
            extension,
            classes
                .iter()
                .map(|m| class_marker_json(store, m))
                .collect::<Vec<_>>()
                .join(","),
            facets
                .iter()
                .map(|f| facet_json(store, f))
                .collect::<Vec<_>>()
                .join(","),
        )
    }

    fn json_escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    fn term_json(store: &Store, id: TermId) -> String {
        let term = store.term(id);
        match term.as_iri() {
            Some(iri) => format!("\"{}\"", json_escape(iri)),
            None => format!("\"{}\"", json_escape(&term.display_name())),
        }
    }

    fn class_marker_json(store: &Store, m: &ClassMarker) -> String {
        format!(
            "{{\"class\":{},\"count\":{},\"children\":[{}]}}",
            term_json(store, m.class),
            m.count,
            m.children
                .iter()
                .map(|c| class_marker_json(store, c))
                .collect::<Vec<_>>()
                .join(","),
        )
    }

    fn facet_json(store: &Store, f: &PropertyFacet) -> String {
        format!(
            "{{\"property\":{},\"values\":[{}],\"children\":[{}]}}",
            term_json(store, f.property),
            f.values
                .iter()
                .map(|(v, n)| format!("{{\"value\":{},\"count\":{n}}}", term_json(store, *v)))
                .collect::<Vec<_>>()
                .join(","),
            f.children
                .iter()
                .map(|c| facet_json(store, c))
                .collect::<Vec<_>>()
                .join(","),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::markers::{class_markers, property_facets};

    #[test]
    fn panel_bytes_are_pinned() {
        let mut s = Store::new();
        s.load_turtle(
            r#"@prefix ex: <http://e/> .
               @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
               ex:B rdfs:subClassOf ex:A .
               ex:x a ex:B ; ex:p "say \"hi\"" .
               ex:y a ex:A ; ex:p _:n .
            "#,
        )
        .unwrap();
        let a = s.lookup_iri("http://e/A").unwrap();
        let ext = s.instances_set(a);
        let json = panel_json(
            &s,
            7,
            ext.len(),
            &class_markers(&s, &ext),
            &property_facets(&s, &ext),
        );
        let blank = s
            .term(property_facets(&s, &ext)[0].values[0].0)
            .display_name();
        assert_eq!(
            json,
            format!(
                concat!(
                    r#"{{"generation":7,"extension":2,"classes":[{{"class":"http://e/A","count":2,"children":"#,
                    r#"[{{"class":"http://e/B","count":1,"children":[]}}]}}],"#,
                    r#""facets":[{{"property":"http://e/p","values":[{{"value":"{blank}","count":1}},"#,
                    r#"{{"value":"say \"hi\"","count":1}}],"children":[]}}]}}"#,
                ),
                blank = blank
            )
        );
    }
}
