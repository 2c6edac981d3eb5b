//! Query result types returned at the public API boundary, with text,
//! CSV, and W3C SPARQL-JSON serializations.

use rdfa_model::{json, vocab::xsd, Graph, Literal, Term, Value};

/// A solution sequence: named columns plus rows of optional terms
/// (`None` = unbound, e.g. under `OPTIONAL`).
#[derive(Debug, Clone, PartialEq)]
pub struct Solutions {
    vars: Vec<String>,
    rows: Vec<Vec<Option<Term>>>,
}

impl Solutions {
    /// Build a solution table from column names and rows.
    pub fn new(vars: Vec<String>, rows: Vec<Vec<Option<Term>>>) -> Self {
        Solutions { vars, rows }
    }

    /// The projected variable names, in column order.
    pub fn vars(&self) -> &[String] {
        &self.vars
    }

    /// The solution rows (one `Option<Term>` per column; `None` = unbound).
    pub fn rows(&self) -> &[Vec<Option<Term>>] {
        &self.rows
    }

    /// Consume into the row set without cloning.
    pub fn into_rows(self) -> Vec<Vec<Option<Term>>> {
        self.rows
    }

    /// Number of solution rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the solution sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Index of a variable by name.
    pub fn var_index(&self, name: &str) -> Option<usize> {
        self.vars.iter().position(|v| v == name)
    }

    /// Iterate one column as terms (unbound cells skipped).
    pub fn column<'a>(&'a self, name: &str) -> impl Iterator<Item = &'a Term> + 'a {
        let idx = self.var_index(name);
        self.rows
            .iter()
            .filter_map(move |row| idx.and_then(|i| row[i].as_ref()))
    }

    /// Interpret one column as typed values.
    pub fn column_values(&self, name: &str) -> Vec<Value> {
        self.column(name).map(Value::from_term).collect()
    }

    /// Render as a plain-text table (used by examples and tests).
    /// Column widths are measured in characters, not bytes, so non-ASCII
    /// IRIs and literals stay aligned.
    pub fn to_table(&self) -> String {
        let mut widths: Vec<usize> = self.vars.iter().map(|v| v.chars().count() + 1).collect();
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .map(|(i, c)| {
                        let s = c.as_ref().map(|t| t.display_name()).unwrap_or_default();
                        widths[i] = widths[i].max(s.chars().count());
                        s
                    })
                    .collect()
            })
            .collect();
        let mut out = String::new();
        for (i, v) in self.vars.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", format!("?{v}"), w = widths[i]));
        }
        out.push('\n');
        for (i, _) in self.vars.iter().enumerate() {
            out.push_str(&"-".repeat(widths[i]));
            out.push_str("  ");
        }
        out.push('\n');
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

/// RFC-4180 field quoting for the SPARQL CSV results format.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

/// Write one term in the W3C SPARQL-JSON binding shape.
fn write_term_json(out: &mut impl std::io::Write, t: &Term) -> std::io::Result<()> {
    let (kind, value) = match t {
        Term::Iri(iri) => ("uri", iri),
        Term::Blank(b) => ("bnode", b),
        Term::Literal(Literal { lexical, .. }) => ("literal", lexical),
    };
    write!(out, "{{\"type\":\"{kind}\",")?;
    match t {
        Term::Literal(Literal { lang: Some(lang), .. }) => {
            out.write_all(b"\"xml:lang\":")?;
            json::write_string(out, lang)?;
            out.write_all(b",")?;
        }
        Term::Literal(Literal { datatype, lang: None, .. }) if datatype != xsd::STRING => {
            out.write_all(b"\"datatype\":")?;
            json::write_string(out, datatype)?;
            out.write_all(b",")?;
        }
        _ => {}
    }
    out.write_all(b"\"value\":")?;
    json::write_string(out, value)?;
    out.write_all(b"}")
}

impl Solutions {
    /// Serialize per the SPARQL 1.1 CSV results format: a header of bare
    /// variable names, then value rows (IRIs bare, literal lexical forms,
    /// RFC-4180 quoting, CRLF line endings).
    pub fn to_csv(&self) -> String {
        let mut out = Vec::with_capacity(64 * self.rows.len().max(1));
        self.write_csv(&mut out).expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("CSV serialization is UTF-8")
    }

    /// Stream the SPARQL 1.1 CSV serialization row by row into `out`.
    /// Memory stays bounded by one row regardless of result size — this is
    /// what the server's chunked-transfer path calls, so a `LIMIT`-less
    /// SELECT never builds a whole-body `String`.
    pub fn write_csv(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        let header = self.vars.iter().map(|v| csv_field(v)).collect::<Vec<_>>().join(",");
        out.write_all(header.as_bytes())?;
        out.write_all(b"\r\n")?;
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                if i > 0 {
                    out.write_all(b",")?;
                }
                let cell = match c {
                    None => String::new(),
                    Some(Term::Iri(iri)) => csv_field(iri),
                    Some(Term::Blank(b)) => csv_field(&format!("_:{b}")),
                    Some(Term::Literal(l)) => csv_field(&l.lexical),
                };
                out.write_all(cell.as_bytes())?;
            }
            out.write_all(b"\r\n")?;
        }
        Ok(())
    }

    /// Serialize per the W3C "SPARQL 1.1 Query Results JSON Format":
    /// `{"head":{"vars":[…]},"results":{"bindings":[…]}}`.
    pub fn to_json(&self) -> String {
        let mut out = Vec::with_capacity(128 * self.rows.len().max(1));
        self.write_json(&mut out).expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("JSON serialization is UTF-8")
    }

    /// Stream the W3C SPARQL-JSON serialization binding by binding into
    /// `out`; the streaming counterpart of [`Solutions::to_json`].
    pub fn write_json(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        out.write_all(b"{\"head\":{\"vars\":[")?;
        for (i, v) in self.vars.iter().enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            json::write_string(out, v)?;
        }
        out.write_all(b"]},\"results\":{\"bindings\":[")?;
        for (r, row) in self.rows.iter().enumerate() {
            if r > 0 {
                out.write_all(b",")?;
            }
            out.write_all(b"{")?;
            let mut first = true;
            for (v, c) in self.vars.iter().zip(row) {
                if let Some(t) = c {
                    if !first {
                        out.write_all(b",")?;
                    }
                    first = false;
                    json::write_string(out, v)?;
                    out.write_all(b":")?;
                    write_term_json(out, t)?;
                }
            }
            out.write_all(b"}")?;
        }
        out.write_all(b"]}}")
    }
}

/// The result of a query: a solution table, a constructed graph, or a boolean.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResults {
    Solutions(Solutions),
    Graph(Graph),
    Boolean(bool),
}

impl QueryResults {
    /// The solutions, if this was a SELECT.
    pub fn solutions(&self) -> Option<&Solutions> {
        match self {
            QueryResults::Solutions(s) => Some(s),
            _ => None,
        }
    }

    /// Consume into solutions.
    pub fn into_solutions(self) -> Option<Solutions> {
        match self {
            QueryResults::Solutions(s) => Some(s),
            _ => None,
        }
    }

    /// The constructed graph, if this was a CONSTRUCT.
    pub fn graph(&self) -> Option<&Graph> {
        match self {
            QueryResults::Graph(g) => Some(g),
            _ => None,
        }
    }

    /// The boolean, if this was an ASK.
    pub fn boolean(&self) -> Option<bool> {
        match self {
            QueryResults::Boolean(b) => Some(*b),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_format() {
        let s = Solutions::new(
            vec!["m".into(), "n".into()],
            vec![
                vec![Some(Term::iri("http://e/DELL")), Some(Term::integer(2))],
                vec![Some(Term::string("a,b")), None],
            ],
        );
        let csv = s.to_csv();
        // SPARQL 1.1 CSV results require CRLF line endings (header and rows)
        assert_eq!(csv, "m,n\r\nhttp://e/DELL,2\r\n\"a,b\",\r\n");
    }

    #[test]
    fn csv_quoting_survives_embedded_newlines() {
        let s = Solutions::new(
            vec!["x".into()],
            vec![vec![Some(Term::string("line1\nline2"))], vec![Some(Term::string("say \"hi\""))]],
        );
        let csv = s.to_csv();
        assert_eq!(csv, "x\r\n\"line1\nline2\"\r\n\"say \"\"hi\"\"\"\r\n");
    }

    #[test]
    fn streaming_writers_match_string_serializers() {
        let s = Solutions::new(
            vec!["m".into(), "n".into()],
            vec![
                vec![Some(Term::iri("http://e/DELL")), Some(Term::integer(2))],
                vec![Some(Term::string("a,b")), None],
                vec![Some(Term::Literal(Literal::lang_string("héllo", "en"))), None],
            ],
        );
        let mut csv = Vec::new();
        s.write_csv(&mut csv).unwrap();
        assert_eq!(String::from_utf8(csv).unwrap(), s.to_csv());
        let mut json = Vec::new();
        s.write_json(&mut json).unwrap();
        assert_eq!(String::from_utf8(json).unwrap(), s.to_json());
    }

    #[test]
    fn json_format_matches_w3c_shape() {
        let s = Solutions::new(
            vec!["x".into()],
            vec![
                vec![Some(Term::iri("http://e/a"))],
                vec![Some(Term::integer(5))],
                vec![Some(Term::Literal(crate::results::Literal::lang_string("hi", "en")))],
                vec![None],
            ],
        );
        let json = s.to_json();
        assert!(json.starts_with("{\"head\":{\"vars\":[\"x\"]}"));
        assert!(json.contains("\"type\":\"uri\",\"value\":\"http://e/a\""));
        assert!(json.contains("\"datatype\":\"http://www.w3.org/2001/XMLSchema#integer\""));
        assert!(json.contains("\"xml:lang\":\"en\""));
        // unbound row serializes as an empty binding object
        assert!(json.contains("{}"));
    }

    #[test]
    fn json_escapes_control_characters() {
        let s = Solutions::new(vec!["x".into()], vec![vec![Some(Term::string("a\"b\\c\nd"))]]);
        let json = s.to_json();
        assert!(json.contains("a\\\"b\\\\c\\nd"));
    }

    /// The exact SPARQL-JSON bytes for every term shape, escapes included.
    #[test]
    fn json_bytes_are_pinned() {
        let s = Solutions::new(
            vec!["x".into(), "y\"".into()],
            vec![
                vec![Some(Term::iri("http://e/a\\b")), Some(Term::blank("b0"))],
                vec![
                    Some(Term::Literal(Literal::lang_string("h\u{e9}\u{1}", "en"))),
                    Some(Term::integer(5)),
                ],
                vec![None, Some(Term::string("tab\there"))],
            ],
        );
        assert_eq!(
            s.to_json(),
            concat!(
                r#"{"head":{"vars":["x","y\""]},"results":{"bindings":["#,
                r#"{"x":{"type":"uri","value":"http://e/a\\b"},"y\"":{"type":"bnode","value":"b0"}},"#,
                r#"{"x":{"type":"literal","xml:lang":"en","value":"hé\u0001"},"#,
                r#""y\"":{"type":"literal","datatype":"http://www.w3.org/2001/XMLSchema#integer","value":"5"}},"#,
                r#"{"y\"":{"type":"literal","value":"tab\there"}}]}}"#,
            )
        );
    }

    #[test]
    fn table_rendering_and_columns() {
        let s = Solutions::new(
            vec!["m".into(), "avg".into()],
            vec![
                vec![Some(Term::iri("http://e/DELL")), Some(Term::decimal(950.0))],
                vec![Some(Term::iri("http://e/ACER")), None],
            ],
        );
        let t = s.to_table();
        assert!(t.contains("?m"));
        assert!(t.contains("DELL"));
        assert_eq!(s.column("m").count(), 2);
        assert_eq!(s.column("avg").count(), 1);
        assert_eq!(s.column_values("avg"), vec![Value::Float(950.0)]);
    }
}
