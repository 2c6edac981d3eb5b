//! Answer checks: order-insensitive fingerprints of query results and facet
//! panels, computed the same way from the server's bytes and from an
//! in-process oracle over the same generated file.

use crate::json::{self, Json};
use rdfa_facets::{ClassMarker, PropertyFacet, State as FacetState};
use rdfa_sparql::{Engine, QueryResults};
use rdfa_store::{Store, TermId};

/// A 64-bit hash of `bytes` (word-at-a-time multiply-xor, splitmix
/// finish). Not keyed: the inputs are the benchmark's own.
pub fn hash64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0x243F_6A88_85A3_08D3 ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let v = u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes"));
        h = (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// What an answer is compared by: its header, its row count, and the hash
/// of its sorted row hashes (rows compare as a multiset, so row order —
/// which parallel execution may vary — does not matter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub head: u64,
    pub rows: usize,
    pub rows_hash: u64,
}

impl Fingerprint {
    fn of(head: u64, mut row_hashes: Vec<u64>) -> Fingerprint {
        row_hashes.sort_unstable();
        let mut bytes = Vec::with_capacity(row_hashes.len() * 8);
        for h in &row_hashes {
            bytes.extend_from_slice(&h.to_le_bytes());
        }
        Fingerprint {
            head,
            rows: row_hashes.len(),
            rows_hash: hash64(&bytes),
        }
    }
}

/// Fingerprint a SPARQL JSON results document by its byte-level rows: the
/// `vars` header and each top-level object of the `bindings` array.
pub fn query_fingerprint(body: &[u8]) -> Result<Fingerprint, String> {
    let find = |needle: &[u8], from: usize| {
        body[from..]
            .windows(needle.len())
            .position(|w| w == needle)
            .map(|p| p + from)
    };
    let vars_at = find(b"\"vars\":[", 0).ok_or("no vars header")?;
    let vars_end = find(b"]", vars_at).ok_or("unterminated vars")?;
    let head = hash64(&body[vars_at..vars_end]);
    let mut i = find(b"\"bindings\":[", vars_end).ok_or("no bindings")? + b"\"bindings\":[".len();
    let mut rows = Vec::new();
    loop {
        match body.get(i) {
            Some(b'{') => {
                let end = object_end(body, i)?;
                rows.push(hash64(&body[i..end]));
                i = end;
            }
            Some(b',') => i += 1,
            Some(b']') => break,
            _ => return Err(format!("malformed bindings at byte {i}")),
        }
    }
    if &body[i..] != b"]}}" {
        return Err("trailing bytes after bindings".to_owned());
    }
    Ok(Fingerprint::of(head, rows))
}

/// Index one past the `}` closing the object that opens at `start`.
fn object_end(body: &[u8], start: usize) -> Result<usize, String> {
    let mut depth = 0usize;
    let mut in_string = false;
    let mut i = start;
    while i < body.len() {
        let b = body[i];
        if in_string {
            match b {
                b'\\' => i += 1,
                b'"' => in_string = false,
                _ => {}
            }
        } else {
            match b {
                b'"' => in_string = true,
                b'{' | b'[' => depth += 1,
                b'}' | b']' => {
                    depth -= 1;
                    if depth == 0 {
                        return Ok(i + 1);
                    }
                }
                _ => {}
            }
        }
        i += 1;
    }
    Err("unterminated object".to_owned())
}

/// The oracle's answer to `sparql`.
pub fn expected_query(engine: &Engine<'_>, sparql: &str) -> Result<Fingerprint, String> {
    match engine.run(sparql).map_err(|e| e.message())? {
        QueryResults::Solutions(sols) => query_fingerprint(sols.to_json().as_bytes()),
        other => Err(format!("unexpected result form: {other:?}")),
    }
}

/// Canonical lines of a facet panel: the extension size, every class
/// marker with its count, every value marker with its count.
fn facet_fingerprint(lines: Vec<String>) -> Fingerprint {
    let head = hash64(lines.first().map(String::as_bytes).unwrap_or_default());
    Fingerprint::of(
        head,
        lines[1..].iter().map(|l| hash64(l.as_bytes())).collect(),
    )
}

/// Fingerprint the server's `/v1/facets` JSON.
pub fn facets_fingerprint(body: &[u8]) -> Result<Fingerprint, String> {
    let doc = json::parse(std::str::from_utf8(body).map_err(|e| e.to_string())?)?;
    let mut lines = vec![format!(
        "E|{}",
        doc.get("extension").ok_or("no extension")?.scalar_text()
    )];
    fn classes(items: &[Json], prefix: &str, out: &mut Vec<String>) {
        for m in items {
            let path = format!(
                "{prefix}/{}",
                m.get("class").map(Json::scalar_text).unwrap_or_default()
            );
            out.push(format!(
                "C|{path}|{}",
                m.get("count").map(Json::scalar_text).unwrap_or_default()
            ));
            classes(
                m.get("children").map(Json::as_arr).unwrap_or_default(),
                &path,
                out,
            );
        }
    }
    fn facets(items: &[Json], prefix: &str, out: &mut Vec<String>) {
        for f in items {
            let path = format!(
                "{prefix}/{}",
                f.get("property").map(Json::scalar_text).unwrap_or_default()
            );
            out.push(format!("F|{path}"));
            for v in f.get("values").map(Json::as_arr).unwrap_or_default() {
                out.push(format!(
                    "V|{path}|{}|{}",
                    v.get("value").map(Json::scalar_text).unwrap_or_default(),
                    v.get("count").map(Json::scalar_text).unwrap_or_default()
                ));
            }
            facets(
                f.get("children").map(Json::as_arr).unwrap_or_default(),
                &path,
                out,
            );
        }
    }
    classes(
        doc.get("classes").map(Json::as_arr).unwrap_or_default(),
        "",
        &mut lines,
    );
    facets(
        doc.get("facets").map(Json::as_arr).unwrap_or_default(),
        "",
        &mut lines,
    );
    Ok(facet_fingerprint(lines))
}

/// How the server names a term in a facet panel.
fn term_name(store: &Store, id: TermId) -> String {
    let t = store.term(id);
    t.as_iri()
        .map(str::to_owned)
        .unwrap_or_else(|| t.display_name())
}

/// The oracle's facet panel for `class` (`None` = the initial state),
/// computed with the facets crate directly.
pub fn expected_facets(store: &Store, class: Option<&str>) -> Result<Fingerprint, String> {
    let ext = match class {
        None => FacetState::initial(store).ext,
        Some(iri) => store
            .lookup_iri(iri)
            .map(|c| store.instances_set(c))
            .ok_or_else(|| format!("unknown class {iri}"))?,
    };
    let mut lines = vec![format!("E|{}", ext.len())];
    fn classes(store: &Store, items: &[ClassMarker], prefix: &str, out: &mut Vec<String>) {
        for m in items {
            let path = format!("{prefix}/{}", term_name(store, m.class));
            out.push(format!("C|{path}|{}", m.count));
            classes(store, &m.children, &path, out);
        }
    }
    fn facets(store: &Store, items: &[PropertyFacet], prefix: &str, out: &mut Vec<String>) {
        for f in items {
            let path = format!("{prefix}/{}", term_name(store, f.property));
            out.push(format!("F|{path}"));
            for (v, n) in &f.values {
                out.push(format!("V|{path}|{}|{n}", term_name(store, *v)));
            }
            facets(store, &f.children, &path, out);
        }
    }
    classes(
        store,
        &rdfa_facets::class_markers(store, &ext),
        "",
        &mut lines,
    );
    facets(
        store,
        &rdfa_facets::property_facets(store, &ext),
        "",
        &mut lines,
    );
    Ok(facet_fingerprint(lines))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfa_datagen::{ProductsGenerator, EX};

    #[test]
    fn query_fingerprint_ignores_row_order_only() {
        let a = br#"{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"uri","value":"a}"}},{"x":{"type":"uri","value":"b"}}]}}"#;
        let b = br#"{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"uri","value":"b"}},{"x":{"type":"uri","value":"a}"}}]}}"#;
        let c = br#"{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"uri","value":"b"}},{"x":{"type":"uri","value":"c"}}]}}"#;
        let d = br#"{"head":{"vars":["y"]},"results":{"bindings":[{"x":{"type":"uri","value":"b"}},{"x":{"type":"uri","value":"a}"}}]}}"#;
        let fa = query_fingerprint(a).unwrap();
        assert_eq!(fa, query_fingerprint(b).unwrap());
        assert_eq!(fa.rows, 2);
        assert_ne!(fa, query_fingerprint(c).unwrap());
        assert_ne!(fa, query_fingerprint(d).unwrap());
        let empty = br#"{"head":{"vars":[]},"results":{"bindings":[]}}"#;
        assert_eq!(query_fingerprint(empty).unwrap().rows, 0);
        assert!(query_fingerprint(b"{\"error\":1}").is_err());
        assert!(query_fingerprint(&a[..a.len() - 3]).is_err());
    }

    #[test]
    fn oracle_matches_its_own_serialization_and_detects_changes() {
        let mut store = Store::new();
        store.load_graph(&ProductsGenerator::new(120, 2).generate());
        let engine = Engine::builder(&store).build();
        let q = format!("PREFIX ex: <{EX}> SELECT ?x ?p WHERE {{ ?x ex:price ?p . }}");
        let expected = expected_query(&engine, &q).unwrap();
        let served = engine.run(&q).unwrap().into_solutions().unwrap();
        let mut rows = served.rows().to_vec();
        rows.reverse();
        let reordered = rdfa_sparql::Solutions::new(served.vars().to_vec(), rows);
        assert_eq!(
            query_fingerprint(reordered.to_json().as_bytes()).unwrap(),
            expected
        );
        let mut fewer = served.rows().to_vec();
        fewer.pop();
        let truncated = rdfa_sparql::Solutions::new(served.vars().to_vec(), fewer);
        assert_ne!(
            query_fingerprint(truncated.to_json().as_bytes()).unwrap(),
            expected
        );
    }

    #[test]
    fn facet_fingerprint_reads_the_panel_format() {
        let body = br#"{"generation":3,"extension":2,"classes":[{"class":"http://e/A","count":2,"children":[{"class":"http://e/B","count":1,"children":[]}]}],"facets":[{"property":"http://e/p","values":[{"value":"5","count":1},{"value":"http://e/v","count":1}],"children":[]}]}"#;
        let reordered = br#"{"generation":9,"extension":2,"classes":[{"class":"http://e/A","count":2,"children":[{"class":"http://e/B","count":1,"children":[]}]}],"facets":[{"property":"http://e/p","values":[{"value":"http://e/v","count":1},{"value":"5","count":1}],"children":[]}]}"#;
        let recount = br#"{"generation":3,"extension":2,"classes":[{"class":"http://e/A","count":2,"children":[{"class":"http://e/B","count":2,"children":[]}]}],"facets":[{"property":"http://e/p","values":[{"value":"5","count":1},{"value":"http://e/v","count":1}],"children":[]}]}"#;
        let a = facets_fingerprint(body).unwrap();
        assert_eq!(
            a,
            facets_fingerprint(reordered).unwrap(),
            "generation and order are ignored"
        );
        assert_ne!(a, facets_fingerprint(recount).unwrap());
        // two class markers, one facet, two value markers
        assert_eq!(a.rows, 5);
    }

    #[test]
    fn hash_separates_nearby_inputs() {
        assert_ne!(hash64(b"abcdefgh1"), hash64(b"abcdefgh2"));
        assert_ne!(hash64(b""), hash64(b"\0"));
        assert_eq!(hash64(b"same"), hash64(b"same"));
    }
}
