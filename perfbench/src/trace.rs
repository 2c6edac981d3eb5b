//! In-memory spans for the traced run: recorded at the benchmark's layer
//! boundaries, written out once the run ends, and reduced to self time per
//! layer.

use crate::json;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// The HTTP request (op sequence number) this span belongs to; the
    /// in-process replay of a request carries the same id.
    pub request: u64,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    fn ms(&self) -> f64 {
        self.end.saturating_duration_since(self.start).as_secs_f64() * 1e3
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Record a finished span; returns its id for children to name.
    pub fn record(
        &mut self,
        parent: Option<u64>,
        request: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start,
            end,
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Serialize every span as JSON (times in microseconds since the run
    /// started).
    pub fn to_json(&self, header: &str) -> String {
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":{},\"layer\":{},\"start_us\":{:.1},\"end_us\":{:.1}}}",
                    s.id,
                    s.parent.map_or("null".to_owned(), |p| p.to_string()),
                    s.request,
                    json::quote(s.name),
                    json::quote(layer(s.name)),
                    us(s.start),
                    us(s.end)
                )
            })
            .collect();
        format!(
            "{{\"header\":{header},\"spans\":[\n{}\n]}}\n",
            spans.join(",\n")
        )
    }
}

/// The layer a span belongs to: its name up to the first dot, with the
/// client's root span `op` and the replay's root span `replay` as layers
/// of their own.
pub fn layer(name: &str) -> &str {
    match name.split('.').next().unwrap_or(name) {
        "op" => "client",
        other => other,
    }
}

/// Self time per layer in milliseconds: each span's duration minus the part
/// of its interval covered by its children, summed per layer.
pub fn self_time_ms(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for s in spans {
        let mut kids: Vec<(Instant, Instant)> = children
            .get(&s.id)
            .map(|k| {
                k.iter()
                    .map(|c| (c.start.max(s.start), c.end.min(s.end)))
                    .filter(|(a, b)| a < b)
                    .collect()
            })
            .unwrap_or_default();
        kids.sort();
        // union of the children's (clipped) intervals
        let mut covered = 0.0;
        let mut current: Option<(Instant, Instant)> = None;
        for (a, b) in kids {
            current = match current {
                Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += (cb - ca).as_secs_f64() * 1e3;
                    Some((a, b))
                }
                None => Some((a, b)),
            };
        }
        if let Some((ca, cb)) = current {
            covered += (cb - ca).as_secs_f64() * 1e3;
        }
        *out.entry(layer(s.name).to_owned()).or_default() += (s.ms() - covered).max(0.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut tr = Tracer::new(t0);
        let root = tr.record(None, 1, "op", at(0), at(100));
        tr.record(Some(root), 1, "http.wait", at(10), at(60));
        tr.record(Some(root), 1, "http.transfer", at(50), at(90)); // overlaps the wait
        let replay = tr.record(None, 1, "replay", at(200), at(230));
        let exec = tr.record(Some(replay), 1, "sparql.execute", at(200), at(220));
        tr.record(Some(exec), 1, "exec.morsel", at(205), at(210));
        let st = self_time_ms(tr.spans());
        assert!((st["client"] - 20.0).abs() < 1e-6, "{st:?}"); // 100 - union(10..90)
        assert!((st["http"] - 90.0).abs() < 1e-6);
        assert!((st["replay"] - 10.0).abs() < 1e-6);
        assert!((st["sparql"] - 15.0).abs() < 1e-6);
        assert!((st["exec"] - 5.0).abs() < 1e-6);
        let json = tr.to_json("{}");
        assert!(json.contains("\"layer\":\"client\""));
        assert_eq!(json.matches("\"id\":").count(), 6);
    }
}
