//! The closed-loop clients: each sends its next request only after the
//! previous answer arrived and was checked.

use crate::http::{Client, Response, Timing};
use crate::json::{self, Json};
use crate::oracle::{self, Fingerprint};
use crate::workload::{Batch, ClickMix, Kind, Request};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::Instant;

/// What a request was: an index into the click mix, or a request of its own
/// (the curator's, the probe's, or a post-window check).
#[derive(Debug, Clone)]
pub enum Sent {
    Mix(usize),
    Request(Request),
}

/// One completed (or failed) request.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Request id shared by the op's spans and its in-process replay.
    pub id: u64,
    pub kind: Kind,
    pub sent: Sent,
    /// `None` when the transport failed.
    pub timing: Option<Timing>,
    pub error: Option<String>,
    /// Sent during a traced pass (trace mode only).
    pub traced: bool,
}

impl OpRecord {
    pub fn ok(&self) -> bool {
        self.error.is_none()
    }

    pub fn latency_ms(&self) -> Option<f64> {
        self.timing
            .map(|t| (t.last_byte - t.start).as_secs_f64() * 1e3)
    }
}

/// Checks answers against expected fingerprints. A body whose raw hash
/// already passed for the same request is accepted without re-parsing.
pub struct Checker<'a> {
    expected: Option<&'a [Fingerprint]>,
    verified: HashMap<usize, Vec<u64>>,
}

impl<'a> Checker<'a> {
    /// `expected = None` checks only that answers are well formed (used
    /// while concurrent writes change the answers).
    pub fn new(expected: Option<&'a [Fingerprint]>) -> Checker<'a> {
        Checker {
            expected,
            verified: HashMap::new(),
        }
    }

    pub fn check(&mut self, idx: usize, req: &Request, resp: &Response) -> Result<(), String> {
        let Some(expected) = self.expected else {
            return well_formed(req.kind, &resp.body);
        };
        let raw = oracle::hash64(&resp.body);
        if self.verified.get(&idx).is_some_and(|v| v.contains(&raw)) {
            return Ok(());
        }
        let got = match req.kind {
            Kind::Facets => oracle::facets_fingerprint(&resp.body)?,
            _ => oracle::query_fingerprint(&resp.body)?,
        };
        if got != expected[idx] {
            return Err(format!(
                "wrong answer to {} {} ({} rows, expected {})",
                req.method, req.path, got.rows, expected[idx].rows
            ));
        }
        self.verified.entry(idx).or_default().push(raw);
        Ok(())
    }
}

/// The check while concurrent writes change the answers: query results
/// must frame as SPARQL JSON (a linear scan), and a facet panel must be one
/// JSON object of the panel's shape; parsing a megabyte panel on every
/// request would take the client's CPU from the server.
fn well_formed(kind: Kind, body: &[u8]) -> Result<(), String> {
    match kind {
        Kind::Facets if body.starts_with(b"{\"generation\":") && body.ends_with(b"]}") => Ok(()),
        Kind::Facets => Err("malformed facet panel".to_owned()),
        _ => oracle::query_fingerprint(body).map(|_| ()),
    }
}

fn truncate(s: &str) -> String {
    s.chars().take(200).collect()
}

/// Per-client output of a timed window.
#[derive(Debug, Default)]
pub struct ClientLog {
    pub ops: Vec<OpRecord>,
    pub reconnects: u64,
    /// Curator only: the acknowledged update bodies, in order.
    pub acked: Vec<String>,
}

/// Send `req` and judge the answer: a transport error, a status other than
/// 200, or a failed `check` fails the op. Returns the timing (none when the
/// transport failed) and the failure.
pub fn exchange(
    client: &mut Client,
    req: &Request,
    check: impl FnOnce(&Response) -> Result<(), String>,
) -> (Option<Timing>, Option<String>) {
    match client.request(req.method, &req.path, req.body.as_bytes()) {
        Ok((resp, timing)) if resp.status != 200 => {
            let error = format!("status {}: {}", resp.status, truncate(&resp.text()));
            (Some(timing), Some(error))
        }
        Ok((resp, timing)) => (Some(timing), check(&resp).err()),
        Err(e) => (None, Some(e)),
    }
}

/// Replay the click mix in a closed loop until `deadline`. In trace mode
/// (`alternate`) every other pass is marked traced, so the untraced passes
/// give the tracing overhead.
pub fn analyst(
    client_no: u64,
    addr: SocketAddr,
    mix: &ClickMix,
    expected: Option<&[Fingerprint]>,
    deadline: Instant,
    alternate: bool,
) -> ClientLog {
    let mut client = Client::new(addr);
    let mut checker = Checker::new(expected);
    let mut log = ClientLog::default();
    let mut n = 0u64;
    while Instant::now() < deadline {
        let pass = n as usize / mix.sequence.len();
        let idx = mix.sequence[n as usize % mix.sequence.len()];
        let req = &mix.requests[idx];
        let (timing, error) = exchange(&mut client, req, |r| checker.check(idx, req, r));
        log.ops.push(OpRecord {
            id: client_no << 32 | n,
            kind: req.kind,
            sent: Sent::Mix(idx),
            timing,
            error,
            traced: alternate && pass.is_multiple_of(2),
        });
        n += 1;
    }
    log.reconnects = client.reconnects;
    log
}

/// Batches inserted before the oldest live one is deleted: the KG size
/// stays within this many batches of its initial size.
pub const LIVE_BATCHES: usize = 8;

/// The curator: insert a batch, read it back, delete the batch inserted
/// `LIVE_BATCHES` earlier, read that back, until `deadline`.
pub fn curator(
    client_no: u64,
    addr: SocketAddr,
    seed: u64,
    n_companies: usize,
    deadline: Instant,
    alternate: bool,
) -> ClientLog {
    let mut client = Client::new(addr);
    let mut log = ClientLog::default();
    let mut n = 0u64;
    let mut batch_no = 0usize;
    let mut step =
        |log: &mut ClientLog, req: Request, check: &dyn Fn(&Response) -> Result<(), String>| {
            let (timing, error) = exchange(&mut client, &req, check);
            let ok = error.is_none();
            if ok && req.kind == Kind::Update {
                log.acked.push(req.body.clone());
            }
            log.ops.push(OpRecord {
                id: client_no << 32 | n,
                kind: req.kind,
                sent: Sent::Request(req),
                timing,
                error,
                traced: alternate && (n / 64).is_multiple_of(2),
            });
            n += 1;
            ok
        };
    while Instant::now() < deadline {
        let batch = Batch::new(seed, "curate", batch_no, n_companies);
        let triples = batch.triples();
        step(&mut log, Request::update(batch.insert()), &|r| {
            expect_counts(r, triples, 0)
        });
        step(
            &mut log,
            Request::query(Kind::Readback, batch.readback()),
            &|r| expect_rows(r, &batch.laptops),
        );
        if batch_no >= LIVE_BATCHES && Instant::now() < deadline {
            let old = Batch::new(seed, "curate", batch_no - LIVE_BATCHES, n_companies);
            step(&mut log, Request::update(old.delete()), &|r| {
                expect_counts(r, 0, triples)
            });
            step(
                &mut log,
                Request::query(Kind::Readback, old.readback()),
                &|r| expect_rows(r, &[]),
            );
        }
        batch_no += 1;
    }
    log.reconnects = client.reconnects;
    log
}

/// An update's acknowledgement must report exactly the batch's triples.
pub fn expect_counts(resp: &Response, inserted: usize, deleted: usize) -> Result<(), String> {
    let doc = json::parse(&resp.text())?;
    let got = (doc.num("inserted") as usize, doc.num("deleted") as usize);
    if got != (inserted, deleted) {
        return Err(format!(
            "update acked {got:?}, expected ({inserted}, {deleted})"
        ));
    }
    Ok(())
}

/// A readback must return exactly the batch's laptops.
pub fn expect_rows(resp: &Response, laptops: &[(String, String, i64)]) -> Result<(), String> {
    let doc = json::parse(&resp.text())?;
    let value = |b: &Json, v: &str| {
        b.get(v)
            .and_then(|t| t.get("value"))
            .map(Json::scalar_text)
            .unwrap_or_default()
    };
    let mut got: Vec<(String, String, String)> = doc
        .get("results")
        .and_then(|r| r.get("bindings"))
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|b| (value(b, "x"), value(b, "m"), value(b, "p")))
        .collect();
    let mut want: Vec<(String, String, String)> = laptops
        .iter()
        .map(|(x, m, p)| (x.clone(), m.clone(), p.to_string()))
        .collect();
    got.sort();
    want.sort();
    if got != want {
        return Err(format!(
            "readback returned {} rows, expected {}",
            got.len(),
            want.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(body: &str) -> Response {
        Response {
            status: 200,
            body: body.as_bytes().to_vec(),
            ..Response::default()
        }
    }

    #[test]
    fn update_acks_and_readbacks_are_checked_exactly() {
        assert!(expect_counts(&response("{\"inserted\":12,\"deleted\":0}"), 12, 0).is_ok());
        assert!(expect_counts(&response("{\"inserted\":11,\"deleted\":0}"), 12, 0).is_err());
        let rows = r#"{"head":{"vars":["x","m","p"]},"results":{"bindings":[{"x":{"type":"uri","value":"http://e/a"},"m":{"type":"uri","value":"http://e/M"},"p":{"type":"literal","datatype":"http://www.w3.org/2001/XMLSchema#integer","value":"700"}}]}}"#;
        let laptop = [("http://e/a".to_owned(), "http://e/M".to_owned(), 700)];
        assert!(expect_rows(&response(rows), &laptop).is_ok());
        assert!(expect_rows(&response(rows), &[]).is_err());
        let wrong_price = [("http://e/a".to_owned(), "http://e/M".to_owned(), 701)];
        assert!(expect_rows(&response(rows), &wrong_price).is_err());
    }

    #[test]
    fn checker_rejects_wrong_answers() {
        let req = Request::query(Kind::Query, "SELECT".to_owned());
        let good =
            r#"{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"uri","value":"a"}}]}}"#;
        let bad = r#"{"head":{"vars":["x"]},"results":{"bindings":[]}}"#;
        let expected = [oracle::query_fingerprint(good.as_bytes()).unwrap()];
        let mut checker = Checker::new(Some(&expected));
        assert!(checker.check(0, &req, &response(good)).is_ok());
        assert!(
            checker.check(0, &req, &response(good)).is_ok(),
            "memoized pass"
        );
        assert!(checker.check(0, &req, &response(bad)).is_err());
        let mut lenient = Checker::new(None);
        assert!(lenient.check(0, &req, &response(bad)).is_ok());
        assert!(lenient.check(0, &req, &response("not json")).is_err());
        let panel = Request::facets(None);
        assert!(lenient
            .check(0, &panel, &response("{\"generation\":1,\"facets\":[]}"))
            .is_ok());
        assert!(lenient
            .check(0, &panel, &response("{\"error\":{}}"))
            .is_err());
    }
}
