//! The traced run's in-process replay: the same op sequence the clients
//! sent, pushed through the public functions of each layer the server
//! calls, with a span around every call.

use crate::drive::{OpRecord, Sent};
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{ClickMix, Kind, Request};
use rdfa_facets::{FacetCache, FacetOptions, State as FacetState};
use rdfa_sparql::{execute_update_recording, Engine, EvalLimits, QueryResults};
use rdfa_store::{ExtSet, Journal, Snapshot, SnapshotStore, Store};
use rdfa_views::{ViewConfig, ViewManager};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The in-process replica the replay runs against, mirroring one server.
pub struct Replica {
    store: SnapshotStore,
    journal: Option<(Journal, PathBuf)>,
    views: Option<Arc<ViewManager>>,
    facets: FacetCache,
}

impl Replica {
    pub fn new(store: Store, journal: Option<(Journal, PathBuf)>, views: bool) -> Replica {
        Replica {
            store: SnapshotStore::new(store),
            journal,
            views: views.then(|| Arc::new(ViewManager::new(ViewConfig::default()))),
            facets: FacetCache::new(rdfa_facets::DEFAULT_FACET_CACHE_ENTRIES),
        }
    }

    fn wal_bytes(&self) -> u64 {
        self.journal
            .as_ref()
            .map(|(j, dir)| {
                let path = dir.join(format!("wal.{}.log", j.generation()));
                std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
            })
            .unwrap_or(0)
    }
}

fn facet_ext(snap: &Store, class: Option<&str>) -> Result<ExtSet, String> {
    match class {
        None => Ok(FacetState::initial(snap).ext),
        Some(iri) => snap
            .lookup_iri(iri)
            .map(|c| snap.instances_set(c))
            .ok_or_else(|| format!("unknown class {iri}")),
    }
}

/// Per-layer measurements from one replay.
#[derive(Debug, Default)]
pub struct Layers {
    prepare: Vec<f64>,
    execute: Vec<f64>,
    serialize: Vec<f64>,
    result_bytes: Vec<f64>,
    term_space: usize,
    queries: usize,
    rows_examined: u64,
    rows_out: u64,
    morsels: Vec<f64>,
    threads: Vec<f64>,
    markers: Vec<f64>,
    write_txn: Vec<f64>,
    wal_append: Vec<f64>,
    maintain: Vec<f64>,
    wal_bytes: u64,
    updates: usize,
    /// Request id → in-process time the server would spend before its
    /// first byte, and the serialization time.
    work: HashMap<u64, (f64, f64)>,
}

fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

impl Replica {
    /// Replay one request; records spans under request id `id`.
    pub fn replay(
        &mut self,
        tracer: &mut Tracer,
        layers: &mut Layers,
        id: u64,
        req: &Request,
    ) -> Result<(), String> {
        match req.kind {
            Kind::Query | Kind::Readback => self.query(tracer, layers, id, &req.body),
            Kind::Facets => self.facet_panel(tracer, layers, id, req.class.as_deref()),
            Kind::Update => self.update(tracer, layers, id, &req.body),
        }
    }

    fn query(
        &mut self,
        tracer: &mut Tracer,
        layers: &mut Layers,
        id: u64,
        sparql: &str,
    ) -> Result<(), String> {
        let snap: Snapshot = self.store.snapshot();
        let mut builder = Engine::builder(&snap).limits(EvalLimits::interactive());
        if let Some(v) = &self.views {
            builder = builder.views(v.clone());
        }
        let engine = builder.build();
        let t0 = Instant::now();
        let prepared = engine.prepare(sparql).map_err(|e| e.message())?;
        let t1 = Instant::now();
        let results = prepared.execute().map_err(|e| e.message())?;
        let t2 = Instant::now();
        let mut out = Vec::new();
        match &results {
            QueryResults::Solutions(s) => s.write_json(&mut out).map_err(|e| e.to_string())?,
            other => return Err(format!("unexpected result form {other:?}")),
        }
        let t3 = Instant::now();
        let root = tracer.record(None, id, "replay", t0, t3);
        tracer.record(Some(root), id, "sparql.prepare", t0, t1);
        let execute = tracer.record(Some(root), id, "sparql.execute", t1, t2);
        tracer.record(Some(root), id, "sparql.serialize", t2, t3);
        layers.prepare.push(ms(t0, t1));
        layers.execute.push(ms(t1, t2));
        layers.serialize.push(ms(t2, t3));
        layers.result_bytes.push(out.len() as f64);
        layers.queries += 1;
        if !prepared.uses_id_space() {
            layers.term_space += 1;
        }
        if let Some(st) = prepared.last_stats() {
            // the compiled plan's run on the morsel runtime, inside execute
            let plan_start = t2.checked_sub(st.elapsed).map_or(t1, |s| s.max(t1));
            tracer.record(Some(execute), id, "exec.plan", plan_start, t2);
            layers.rows_examined += st.operators.iter().map(|o| o.rows_out).sum::<u64>();
            layers.rows_out += st.rows_out as u64;
            layers.morsels.push(st.morsels as f64);
            layers.threads.push(st.threads_used as f64);
        }
        layers.work.insert(id, (ms(t0, t2), ms(t2, t3)));
        Ok(())
    }

    fn facet_panel(
        &mut self,
        tracer: &mut Tracer,
        layers: &mut Layers,
        id: u64,
        class: Option<&str>,
    ) -> Result<(), String> {
        let snap = self.store.snapshot();
        let t0 = Instant::now();
        let ext = facet_ext(&snap, class)?;
        self.facets
            .class_markers(&snap, &ext, FacetOptions::default())
            .map_err(|e| e.message)?;
        self.facets
            .property_facets(&snap, &ext, FacetOptions::default())
            .map_err(|e| e.message)?;
        let t1 = Instant::now();
        let root = tracer.record(None, id, "replay", t0, t1);
        tracer.record(Some(root), id, "facets.markers", t0, t1);
        layers.work.insert(id, (ms(t0, t1), 0.0));
        Ok(())
    }

    fn update(
        &mut self,
        tracer: &mut Tracer,
        layers: &mut Layers,
        id: u64,
        body: &str,
    ) -> Result<(), String> {
        let wal_before = self.wal_bytes();
        let t0 = Instant::now();
        let mut txn = self.store.begin_write();
        let before = self.views.as_ref().map(|_| self.store.snapshot());
        let (_, changes) =
            execute_update_recording(txn.store_mut(), body).map_err(|e| e.message())?;
        let t1 = Instant::now();
        if let Some((journal, _)) = &self.journal {
            journal.log_mutations(&changes).map_err(|e| e.to_string())?;
        }
        let t2 = Instant::now();
        let after = txn.commit_with(|| self.store.snapshot());
        let t3 = Instant::now();
        if let (Some(v), Some(before)) = (&self.views, &before) {
            v.maintain(before, &after, &changes);
        }
        let t4 = Instant::now();
        let root = tracer.record(None, id, "replay", t0, t4);
        let txn_span = tracer.record(Some(root), id, "store.write_txn", t0, t3);
        if self.journal.is_some() {
            tracer.record(Some(txn_span), id, "persist.wal_append", t1, t2);
            layers.wal_append.push(ms(t1, t2));
        }
        layers.write_txn.push(ms(t0, t3) - ms(t1, t2));
        if self.views.is_some() {
            tracer.record(Some(root), id, "views.maintain", t3, t4);
            layers.maintain.push(ms(t3, t4));
        }
        layers.wal_bytes += self.wal_bytes().saturating_sub(wal_before);
        layers.updates += 1;
        Ok(())
    }

    /// Facet marker cost on a cold cache for each distinct panel of the mix.
    pub fn cold_markers(&self, mix: &ClickMix, layers: &mut Layers) -> Result<(), String> {
        let snap = self.store.snapshot();
        for req in mix.requests.iter().filter(|r| r.kind == Kind::Facets) {
            let cache = FacetCache::new(rdfa_facets::DEFAULT_FACET_CACHE_ENTRIES);
            let t0 = Instant::now();
            let ext = facet_ext(&snap, req.class.as_deref())?;
            cache
                .class_markers(&snap, &ext, FacetOptions::default())
                .map_err(|e| e.message)?;
            cache
                .property_facets(&snap, &ext, FacetOptions::default())
                .map_err(|e| e.message)?;
            layers.markers.push(ms(t0, Instant::now()));
        }
        Ok(())
    }
}

/// Replay the warm-up and then the recorded ops (in start order)
/// until `budget` runs out. Returns how many recorded ops were replayed.
pub fn replay_run(
    replica: &mut Replica,
    tracer: &mut Tracer,
    layers: &mut Layers,
    mix: &ClickMix,
    ops: &[&OpRecord],
    budget: Duration,
) -> Result<usize, String> {
    // warm like the server: every distinct request once, then the view
    // selector over what it saw
    let mut warm_tracer = Tracer::new(Instant::now());
    let mut warm_layers = Layers::default();
    for req in &mix.requests {
        replica.replay(&mut warm_tracer, &mut warm_layers, 0, req)?;
    }
    if let Some(v) = &replica.views {
        v.force_select(&replica.store.snapshot());
    }
    let started = Instant::now();
    let mut done = 0;
    for op in ops {
        // updates must all be applied for the replica to follow the server
        if started.elapsed() > budget && op.kind != Kind::Update {
            continue;
        }
        let req = match &op.sent {
            Sent::Mix(i) => &mix.requests[*i],
            Sent::Request(r) => r,
        };
        replica.replay(tracer, layers, op.id, req)?;
        done += 1;
    }
    Ok(done)
}

fn med(v: &[f64]) -> f64 {
    stats::median(v).unwrap_or(0.0)
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

impl Layers {
    /// Per-layer metrics from the replay, matched against the HTTP timings
    /// of the same requests.
    pub fn metrics(&self, ops: &[&OpRecord], out: &mut BTreeMap<String, f64>) {
        let mut overhead = Vec::new();
        let mut facet_overhead = Vec::new();
        let mut transfer = Vec::new();
        for op in ops {
            let (Some(t), Some(&(work, serialize))) = (op.timing, self.work.get(&op.id)) else {
                continue;
            };
            let wait = ms(t.sent, t.first_byte);
            match op.kind {
                Kind::Query => {
                    overhead.push(wait - work);
                    transfer.push(ms(t.first_byte, t.last_byte) - serialize);
                }
                Kind::Facets => facet_overhead.push(wait - work),
                _ => {}
            }
        }
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        out.insert("server.overhead_ms".into(), med(&overhead));
        out.insert("server.facets_overhead_ms".into(), med(&facet_overhead));
        out.insert("server.transfer_ms".into(), med(&transfer));
        out.insert("sparql.prepare_ms".into(), med(&self.prepare));
        out.insert("sparql.execute_ms".into(), med(&self.execute));
        out.insert("sparql.serialize_ms".into(), med(&self.serialize));
        out.insert("sparql.result_bytes".into(), mean(&self.result_bytes));
        out.insert(
            "sparql.term_space_share".into(),
            ratio(self.term_space as f64, self.queries as f64),
        );
        out.insert(
            "sparql.rows_examined_per_row".into(),
            ratio(self.rows_examined as f64, self.rows_out as f64),
        );
        out.insert("exec.morsels".into(), mean(&self.morsels));
        out.insert("exec.threads_used".into(), mean(&self.threads));
        out.insert("facets.markers_ms".into(), med(&self.markers));
        out.insert("store.write_txn_ms".into(), med(&self.write_txn));
        out.insert("persist.wal_append_ms".into(), med(&self.wal_append));
        out.insert(
            "persist.wal_bytes_per_update".into(),
            ratio(self.wal_bytes as f64, self.updates as f64),
        );
        out.insert("views.maintain_ms".into(), med(&self.maintain));
    }
}
