//! Physical query plans over the interned ID space — the crate's only
//! executor.
//!
//! [`compile_select`] and [`compile_pattern`] lower a parsed query into a
//! small operator tree once, ahead of execution: index joins and property
//! paths, filters, `BIND`/`VALUES`, `OPTIONAL`/`UNION`, `MINUS` anti-joins,
//! `[NOT] EXISTS` semi- and anti-joins, nested sub-`SELECT` scopes, and a
//! final stage that projects or aggregates (`SELECT`) or hands back every
//! binding (`CONSTRUCT`, `ASK`, update `WHERE`). The executor evaluates the
//! tree over columnar [`Batch`]es of packed execution ids
//! ([`crate::batch`]): joins compare `u32`s against the store's triple
//! indexes, hash `GROUP BY` keys are `Vec<u32>`, and terms are
//! materialized only at the [`Solutions`] boundary.
//!
//! Scan/join chains and hash aggregation run on the shared morsel runtime
//! ([`rdfa_exec`]) when the input clears its work floor: the batch is cut
//! into fixed-size morsels, workers pull morsel indices from a shared
//! cursor and drive the *whole* operator chain per morsel against
//! thread-local scratch, and the per-morsel results are stitched together
//! in morsel index order. Morsel geometry depends only on the input size —
//! never the worker count — and index-nested-loop joins emit matches in
//! store-iteration order, so the merged output (and each group's
//! first-seen order and representative row) is byte-identical to the
//! sequential path at every thread count.

use crate::ast::*;
use crate::batch::{as_store, pack_store, Batch, EId, TermArena, UNBOUND};
use crate::expr::eval_expr_limited;
use crate::limits::{EvalLimits, LimitGuard};
use crate::path::eval_path_limited;
use crate::results::Solutions;
use crate::SparqlError;
use rdfa_exec::{run_morsels, ExecPolicy, Interrupt, Trip, DEFAULT_MORSEL_ROWS};
use rdfa_model::{Term, Triple, Value};
use rdfa_store::{Store, TermId};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::time::{Duration, Instant};

/// Estimated materialization cost of one batch row (one `EId` per column),
/// charged against [`crate::EvalLimits::max_memory_bytes`].
fn batch_row_cost(width: usize) -> u64 {
    (width * std::mem::size_of::<EId>() + std::mem::size_of::<u32>()) as u64
}

/// Output rows between cooperative budget flushes inside a morsel worker.
const WORKER_PROBE_INTERVAL: usize = 512;

// ---- frames, rows and options ----------------------------------------------

/// A bound value as expressions see it: an interned or a computed term.
#[derive(Debug, Clone)]
pub enum Bound {
    Id(TermId),
    Term(Term),
}

/// One solution row as expressions see it: a slot per frame variable.
pub type Row = Vec<Option<Bound>>;

/// The variable frame of one (sub)query scope.
#[derive(Debug, Clone, Default)]
pub struct Frame {
    names: Vec<String>,
}

impl Frame {
    /// Build a frame over the given variable names.
    pub fn new(names: Vec<String>) -> Self {
        Frame { names }
    }

    /// Slot index of a variable.
    pub fn index(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when the frame has no variables.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The variable names in slot order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    fn add(&mut self, name: &str) {
        if !self.names.iter().any(|n| n == name) {
            self.names.push(name.to_owned());
        }
    }
}

/// Register every variable of a group pattern in the frame: nested groups,
/// `FILTER`/`BIND` expressions, `MINUS` and `EXISTS` patterns included.
/// Only a sub-select's projected variables join the outer scope.
pub(crate) fn collect_vars(group: &GroupPattern, frame: &mut Frame) {
    for el in &group.elements {
        match el {
            PatternElement::Triple(t) => {
                for v in pattern_vars(t) {
                    frame.add(v);
                }
            }
            PatternElement::Filter(e) => collect_expr_vars(e, frame),
            PatternElement::Optional(g) | PatternElement::Group(g) | PatternElement::Minus(g) => {
                collect_vars(g, frame)
            }
            PatternElement::Union(arms) => arms.iter().for_each(|arm| collect_vars(arm, frame)),
            PatternElement::Bind(e, v) => {
                collect_expr_vars(e, frame);
                frame.add(v);
            }
            PatternElement::Values(vars, _) => vars.iter().for_each(|v| frame.add(v)),
            PatternElement::SubSelect(sub) => {
                projected_names(sub).iter().for_each(|v| frame.add(v))
            }
        }
    }
}

/// Register an expression's variables, descending into `EXISTS` patterns.
fn collect_expr_vars(e: &Expr, frame: &mut Frame) {
    let mut vars = Vec::new();
    e.variables(&mut vars);
    vars.iter().for_each(|v| frame.add(v));
    for_each_exists(e, &mut |g| collect_vars(g, frame));
}

/// Call `f` on every `EXISTS` pattern of an expression.
fn for_each_exists<'e>(e: &'e Expr, f: &mut dyn FnMut(&'e GroupPattern)) {
    match e {
        Expr::Exists(g, _) => f(g),
        Expr::Or(a, b) | Expr::And(a, b) | Expr::Compare(a, _, b) | Expr::Arith(a, _, b) => {
            for_each_exists(a, f);
            for_each_exists(b, f);
        }
        Expr::Not(x) | Expr::Neg(x) | Expr::Aggregate(_, _, Some(x)) => for_each_exists(x, f),
        Expr::In(x, list, _) => {
            for_each_exists(x, f);
            list.iter().for_each(|item| for_each_exists(item, f));
        }
        Expr::Call(_, args) => args.iter().for_each(|a| for_each_exists(a, f)),
        Expr::Var(_) | Expr::Const(_) | Expr::Aggregate(_, _, None) => {}
    }
}

/// The variables of one triple pattern, subject to object.
fn pattern_vars(t: &TriplePattern) -> impl Iterator<Item = &str> {
    let p = match &t.predicate {
        PathOrVar::Var(v) => Some(v.as_str()),
        PathOrVar::Path(_) => None,
    };
    [t.subject.as_var(), p, t.object.as_var()].into_iter().flatten()
}

/// The variables a group binds, in document order: what `SELECT *`
/// projects (SPARQL 1.1 §18.2.1). Variables that occur only in a `FILTER`,
/// a `MINUS` or an `EXISTS` pattern are not in scope.
fn in_scope_vars(group: &GroupPattern, out: &mut Vec<String>) {
    let add = |v: &str, out: &mut Vec<String>| {
        if !out.iter().any(|n| n == v) {
            out.push(v.to_owned());
        }
    };
    for el in &group.elements {
        match el {
            PatternElement::Triple(t) => pattern_vars(t).for_each(|v| add(v, out)),
            PatternElement::Optional(g) | PatternElement::Group(g) => in_scope_vars(g, out),
            PatternElement::Union(arms) => arms.iter().for_each(|arm| in_scope_vars(arm, out)),
            PatternElement::Bind(_, v) => add(v, out),
            PatternElement::Values(vars, _) => vars.iter().for_each(|v| add(v, out)),
            PatternElement::SubSelect(sub) => projected_names(sub).iter().for_each(|v| add(v, out)),
            PatternElement::Filter(_) | PatternElement::Minus(_) => {}
        }
    }
}

/// The output column names of a (sub-)select.
fn projected_names(q: &SelectQuery) -> Vec<String> {
    match &q.projection {
        Projection::Items(items) => items.iter().map(|it| it.alias.clone()).collect(),
        Projection::Star => {
            let mut out = Vec::new();
            in_scope_vars(&q.where_, &mut out);
            out
        }
    }
}

/// Evaluation options (the join-order ablation switch plus resource
/// budgets and the execution policy).
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// Reorder BGP patterns by estimated selectivity (default true).
    pub reorder_bgp: bool,
    /// Cooperative resource limits (default: unlimited).
    pub limits: EvalLimits,
    /// Execution policy: worker threads for the morsel runtime, plus
    /// optional deadline/memory/cancel knobs merged into [`Self::limits`]
    /// (the tighter value wins) — see [`EvalOptions::effective_limits`].
    pub policy: ExecPolicy,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions { reorder_bgp: true, limits: EvalLimits::unlimited(), policy: ExecPolicy::new() }
    }
}

impl EvalOptions {
    /// The limits actually enforced: [`Self::limits`] with the policy's
    /// deadline/memory/cancel folded in. Where both specify an axis the
    /// tighter bound wins; a cancel flag on the limits takes precedence
    /// (it is already wired to a caller).
    pub fn effective_limits(&self) -> EvalLimits {
        let mut l = self.limits.clone();
        if let Some(d) = self.policy.deadline {
            l.deadline = Some(l.deadline.map_or(d, |e| e.min(d)));
        }
        if let Some(m) = self.policy.max_memory_bytes {
            l.max_memory_bytes = Some(l.max_memory_bytes.map_or(m, |e| e.min(m)));
        }
        if l.cancel.is_none() {
            l.cancel = self.policy.cancel.clone();
        }
        l
    }
}

// ---- plan structure --------------------------------------------------------

/// A compiled subject/object position.
#[derive(Debug, Clone)]
pub(crate) enum CSlot {
    /// Constant present in the store.
    Const(TermId),
    /// Variable at this frame slot.
    Var(usize),
    /// Constant absent from the store: the pattern can never match.
    Missing,
}

/// A compiled predicate position.
#[derive(Debug, Clone)]
pub(crate) enum CPred {
    Const(TermId),
    Var(usize),
    Missing,
}

/// One operator of the physical plan. `Input` is the leaf that consumes
/// whatever batch the parent feeds in (the seed row at a scope's root, the
/// outer batch inside `OPTIONAL`/`UNION`/`EXISTS` subtrees).
#[derive(Debug)]
pub(crate) enum Node {
    Input,
    Join { input: Box<Node>, s: CSlot, p: CPred, o: CSlot, op: usize },
    /// A non-IRI property path between two positions.
    Path { input: Box<Node>, s: CSlot, path: PropertyPath, o: CSlot, op: usize },
    Filter { input: Box<Node>, exprs: Vec<Expr>, op: usize },
    /// `FILTER [NOT] EXISTS`: keep the rows the inner pattern does (not)
    /// extend.
    Exists { input: Box<Node>, inner: Box<Node>, negated: bool, op: usize },
    Bind { input: Box<Node>, expr: Expr, slot: usize, op: usize },
    Values { input: Box<Node>, slots: Vec<usize>, data: Vec<Vec<Option<Term>>>, op: usize },
    Optional { input: Box<Node>, inner: Box<Node>, op: usize },
    Union { input: Box<Node>, arms: Vec<Node>, op: usize },
    /// `MINUS`: a hash anti-join on the `shared` slots (those both sides
    /// may bind) against the inner pattern, run once from the seed row.
    Minus { input: Box<Node>, inner: Box<Node>, shared: Vec<usize>, op: usize },
    /// A nested sub-select; its output columns join into the frame as
    /// `(outer slot, column)` pairs.
    SubSelect { input: Box<Node>, scope: Box<Scope>, cols: Vec<(usize, usize)>, op: usize },
}

/// What a scope hands back once its pattern has run.
#[derive(Debug)]
pub(crate) enum Output {
    /// `SELECT`: projection or grouping, then the solution modifiers.
    Select { query: Box<SelectQuery>, items: Vec<SelectItem>, grouped: bool },
    /// `CONSTRUCT`, `ASK` and update `WHERE`: every frame slot, as stored.
    Bindings,
}

/// One query scope: its frame, operator tree and output stage.
#[derive(Debug)]
pub(crate) struct Scope {
    frame: Frame,
    root: Node,
    /// `EXISTS` patterns nested inside expressions, compiled once with
    /// their operator ids; an expression runs one on a one-row batch.
    exists: Vec<(GroupPattern, usize, Node)>,
    output: Output,
    output_op: usize,
}

/// Static description of one operator (label + compile-time estimate).
#[derive(Debug, Clone)]
pub struct OpMeta {
    /// Human-readable operator label, e.g. `IndexJoin ?x <p> ?o`.
    pub label: String,
    /// Operator kind: `join`, `path`, `filter`, `exists`, `bind`, `values`,
    /// `optional`, `union`, `minus`, `subselect`, `select`.
    pub kind: &'static str,
    /// Compile-time cardinality estimate, where one exists (joins, paths).
    pub estimate: Option<f64>,
}

/// A compiled physical plan for one query.
#[derive(Debug)]
pub struct PhysicalPlan {
    pub(crate) scope: Scope,
    /// Operator metadata indexed by operator id, across nested scopes.
    pub(crate) ops: Vec<OpMeta>,
    /// Static nesting depth, sub-selects and `EXISTS` included (for the
    /// recursion budget).
    pub(crate) depth: u32,
}

impl PhysicalPlan {
    /// Number of operators in the plan.
    pub fn operator_count(&self) -> usize {
        self.ops.len()
    }
}

// ---- execution statistics --------------------------------------------------

/// Observed cardinality of one operator after execution.
#[derive(Debug, Clone)]
pub struct OpStats {
    /// Operator label (copied from the plan).
    pub label: String,
    /// Operator kind (copied from the plan).
    pub kind: &'static str,
    /// Compile-time estimate, where one exists.
    pub estimate: Option<f64>,
    /// Rows the operator produced across all invocations.
    pub rows_out: u64,
    /// Times the operator ran.
    pub invocations: u64,
}

/// Per-execution statistics reported by a prepared query.
#[derive(Debug, Clone)]
pub struct ExecStats {
    /// Per-operator cardinalities, indexed like the plan's operators.
    pub operators: Vec<OpStats>,
    /// Rows in the final result.
    pub rows_out: usize,
    /// Peak worker threads used by any parallel region (1 = sequential).
    pub threads_used: usize,
    /// Whether hash aggregation ran on the parallel path.
    pub parallel_groupby: bool,
    /// Morsels dispatched to the parallel runtime (0 = fully sequential).
    pub morsels: usize,
    /// Terms interned into the execution arena (computed terms).
    pub arena_terms: usize,
    /// Wall-clock execution time.
    pub elapsed: Duration,
}

/// Render the plan as an indented operator tree, one operator per line,
/// with estimates and (when `stats` is given) observed cardinalities. A
/// scope's output stage closes its tree one level out.
pub(crate) fn describe_plan(plan: &PhysicalPlan, stats: Option<&ExecStats>) -> Vec<String> {
    struct Describe<'a> {
        plan: &'a PhysicalPlan,
        stats: Option<&'a ExecStats>,
        out: Vec<String>,
    }
    impl Describe<'_> {
        fn line(&mut self, op: usize, indent: usize) {
            let meta = &self.plan.ops[op];
            let mut s = format!("{}{}", "  ".repeat(indent), meta.label);
            if let Some(est) = meta.estimate {
                s.push_str(&format!(" est={est}"));
            }
            if let Some(st) = self.stats {
                s.push_str(&format!(" rows={}", st.operators[op].rows_out));
            }
            self.out.push(s);
        }
        fn scope(&mut self, scope: &Scope, indent: usize) {
            self.walk(&scope.root, indent + 1);
            for (_, op, node) in &scope.exists {
                self.line(*op, indent + 1);
                self.walk(node, indent + 2);
            }
            self.line(scope.output_op, indent);
        }
        fn walk(&mut self, node: &Node, indent: usize) {
            match node {
                Node::Input => {}
                Node::Join { input, op, .. }
                | Node::Path { input, op, .. }
                | Node::Filter { input, op, .. }
                | Node::Bind { input, op, .. }
                | Node::Values { input, op, .. } => {
                    self.walk(input, indent);
                    self.line(*op, indent);
                }
                Node::Optional { input, inner, op }
                | Node::Exists { input, inner, op, .. }
                | Node::Minus { input, inner, op, .. } => {
                    self.walk(input, indent);
                    self.line(*op, indent);
                    self.walk(inner, indent + 1);
                }
                Node::Union { input, arms, op } => {
                    self.walk(input, indent);
                    self.line(*op, indent);
                    arms.iter().for_each(|arm| self.walk(arm, indent + 1));
                }
                Node::SubSelect { input, scope, op, .. } => {
                    self.walk(input, indent);
                    self.line(*op, indent);
                    self.scope(scope, indent + 1);
                }
            }
        }
    }
    let mut d = Describe { plan, stats, out: Vec::new() };
    d.scope(&plan.scope, 0);
    if let Some(st) = stats {
        let mut rt = format!("runtime: threads={} morsels={}", st.threads_used, st.morsels);
        if st.parallel_groupby {
            rt.push_str(" parallel-groupby");
        }
        d.out.push(rt);
    }
    d.out
}

// ---- compilation -----------------------------------------------------------

/// Compile a `SELECT` query to a physical plan.
pub(crate) fn compile_select(
    q: &SelectQuery,
    store: &Store,
    options: &EvalOptions,
) -> Result<PhysicalPlan, SparqlError> {
    let mut c = Compiler::new(store, options);
    let scope = c.scope(&q.where_, Some(q), None, 1)?;
    Ok(PhysicalPlan { scope, ops: c.ops, depth: c.depth })
}

/// Compile a bare `WHERE` pattern (`CONSTRUCT`, `ASK`, update `WHERE`) to
/// a plan whose output is every binding; `label` names the output stage.
pub(crate) fn compile_pattern(
    where_: &GroupPattern,
    label: String,
    store: &Store,
    options: &EvalOptions,
) -> Result<PhysicalPlan, SparqlError> {
    let mut c = Compiler::new(store, options);
    let scope = c.scope(where_, None, Some(label), 1)?;
    Ok(PhysicalPlan { scope, ops: c.ops, depth: c.depth })
}

/// Compile and run a bare `WHERE` pattern with default options, returning
/// every binding (update `WHERE` clauses).
pub(crate) fn run_pattern(where_: &GroupPattern, store: &Store) -> Result<Solutions, SparqlError> {
    let options = EvalOptions::default();
    let plan = compile_pattern(where_, "Bindings".to_owned(), store, &options)?;
    Ok(execute_plan(&plan, store, &options)?.0)
}

/// Instantiate a triple template once per solution row. Rows that leave a
/// position unbound (or a predicate that is not an IRI) produce no triple.
/// With `fresh_blanks` (`CONSTRUCT`), template blank nodes become fresh
/// blank nodes per row, stable within the row.
pub(crate) fn instantiate(
    template: &[TriplePattern],
    sols: &Solutions,
    fresh_blanks: bool,
) -> Vec<Triple> {
    let mut out = Vec::new();
    let mut counter = 0usize;
    for row in sols.rows() {
        let mut blanks: HashMap<String, Term> = HashMap::new();
        let var = |v: &str| sols.var_index(v).and_then(|i| row[i].clone());
        let mut term = |tp: &'_ TermPattern| match tp {
            TermPattern::Var(v) => var(v),
            TermPattern::Term(Term::Blank(label)) if fresh_blanks => {
                Some(blanks.entry(label.clone()).or_insert_with(|| {
                    counter += 1;
                    Term::blank(format!("c{counter}"))
                }).clone())
            }
            TermPattern::Term(t) => Some(t.clone()),
        };
        for tp in template {
            let p = match &tp.predicate {
                PathOrVar::Var(v) => var(v),
                PathOrVar::Path(PropertyPath::Iri(iri)) => Some(Term::iri(iri.clone())),
                PathOrVar::Path(_) => None,
            };
            if let (Some(s), Some(p), Some(o)) = (term(&tp.subject), p, term(&tp.object)) {
                out.push(Triple::new(s, p, o));
            }
        }
    }
    out
}

struct Compiler<'a> {
    store: &'a Store,
    reorder: bool,
    ops: Vec<OpMeta>,
    depth: u32,
    /// Frame of the scope being compiled.
    frame: Frame,
    /// Expression-nested `EXISTS` patterns of the scope being compiled.
    exists: Vec<(GroupPattern, usize, Node)>,
}

impl<'a> Compiler<'a> {
    fn new(store: &'a Store, options: &EvalOptions) -> Self {
        Compiler {
            store,
            reorder: options.reorder_bgp,
            ops: Vec::new(),
            depth: 0,
            frame: Frame::default(),
            exists: Vec::new(),
        }
    }

    fn op(&mut self, label: String, kind: &'static str, estimate: Option<f64>) -> usize {
        self.ops.push(OpMeta { label, kind, estimate });
        self.ops.len() - 1
    }

    /// Frame slot of a variable; [`collect_vars`] registered every one.
    fn slot(&self, v: &str) -> usize {
        self.frame.index(v).expect("collect_vars registers every variable")
    }

    /// Compile one scope: a `SELECT` (projection or grouping output) or a
    /// bare pattern whose output stage is labelled `label`.
    fn scope(
        &mut self,
        where_: &GroupPattern,
        select: Option<&SelectQuery>,
        label: Option<String>,
        level: u32,
    ) -> Result<Scope, SparqlError> {
        let outer = (std::mem::take(&mut self.frame), std::mem::take(&mut self.exists));
        collect_vars(where_, &mut self.frame);
        let items: Vec<SelectItem> = match select {
            Some(q) => match &q.projection {
                Projection::Star => projected_names(q)
                    .into_iter()
                    .map(|v| SelectItem { expr: Expr::Var(v.clone()), alias: v })
                    .collect(),
                Projection::Items(items) => items.clone(),
            },
            None => Vec::new(),
        };
        let exprs: Vec<&Expr> = items
            .iter()
            .map(|it| &it.expr)
            .chain(select.into_iter().flat_map(|q| q.group_by.iter().chain(&q.having)))
            .collect();
        for e in &exprs {
            collect_expr_vars(e, &mut self.frame);
        }
        if select.is_some_and(|q| q.order_by.iter().any(|o| has_exists(&o.expr))) {
            return Err(SparqlError::new("EXISTS inside ORDER BY is not supported"));
        }
        let mut bound = vec![false; self.frame.len()];
        let root = self.group(where_, Node::Input, &mut bound, level)?;
        for e in &exprs {
            self.nested_exists(e, &bound, level + 1)?;
        }
        let grouped = select.is_some_and(|q| !q.group_by.is_empty())
            || exprs.iter().any(|e| e.has_aggregate());
        let (output, label) = match select {
            Some(q) => {
                let label = if grouped {
                    format!("GroupAggregate(keys={}, items={})", q.group_by.len(), items.len())
                } else {
                    format!("Project({} items)", items.len())
                };
                (Output::Select { query: Box::new(q.clone()), items, grouped }, label)
            }
            None => (Output::Bindings, label.unwrap_or_default()),
        };
        let output_op = self.op(label, "select", None);
        let frame = std::mem::replace(&mut self.frame, outer.0);
        let exists = std::mem::replace(&mut self.exists, outer.1);
        Ok(Scope { frame, root, exists, output, output_op })
    }

    /// Compile the `EXISTS` patterns nested inside an expression once each,
    /// seeded with the rows the expression will see.
    fn nested_exists(&mut self, e: &Expr, bound: &[bool], level: u32) -> Result<(), SparqlError> {
        let mut groups = Vec::new();
        for_each_exists(e, &mut |g| groups.push(g));
        for g in groups {
            if self.exists.iter().any(|(p, ..)| p == g) {
                continue;
            }
            let node = self.group(g, Node::Input, &mut bound.to_vec(), level)?;
            let op = self.op("ExistsProbe".to_owned(), "exists", None);
            self.exists.push((g.clone(), op, node));
        }
        Ok(())
    }

    fn group(
        &mut self,
        g: &GroupPattern,
        input: Node,
        bound: &mut Vec<bool>,
        level: u32,
    ) -> Result<Node, SparqlError> {
        self.depth = self.depth.max(level);
        let mut node = input;
        let mut filters: Vec<&Expr> = Vec::new();
        let els = &g.elements;
        let mut i = 0;
        while i < els.len() {
            match &els[i] {
                PatternElement::Triple(_) => {
                    let mut bgp: Vec<&TriplePattern> = Vec::new();
                    while let Some(PatternElement::Triple(t)) = els.get(i) {
                        bgp.push(t);
                        i += 1;
                    }
                    node = self.bgp(&bgp, node, bound);
                    continue;
                }
                PatternElement::Filter(e) => conjuncts(e, &mut filters),
                PatternElement::Optional(g2) => {
                    let mut inner_bound = bound.clone();
                    let inner = self.group(g2, Node::Input, &mut inner_bound, level + 1)?;
                    // after OPTIONAL the inner vars *may* be bound; treating
                    // them as bound only steers later join ordering
                    *bound = inner_bound;
                    let op = self.op("Optional".to_owned(), "optional", None);
                    node = Node::Optional { input: Box::new(node), inner: Box::new(inner), op };
                }
                PatternElement::Union(arms) => {
                    let mut arm_nodes = Vec::new();
                    let mut merged = bound.clone();
                    for arm in arms {
                        let mut ab = bound.clone();
                        arm_nodes.push(self.group(arm, Node::Input, &mut ab, level + 1)?);
                        for (m, b) in merged.iter_mut().zip(&ab) {
                            *m = *m || *b;
                        }
                    }
                    *bound = merged;
                    let op = self.op(format!("Union({} arms)", arm_nodes.len()), "union", None);
                    node = Node::Union { input: Box::new(node), arms: arm_nodes, op };
                }
                PatternElement::Group(g2) => {
                    node = self.group(g2, node, bound, level + 1)?;
                }
                PatternElement::Bind(e, v) => {
                    self.nested_exists(e, bound, level + 1)?;
                    let slot = self.slot(v);
                    let op = self.op(format!("Bind ?{v}"), "bind", None);
                    bound[slot] = true;
                    node = Node::Bind { input: Box::new(node), expr: e.clone(), slot, op };
                }
                PatternElement::Values(vars, data) => {
                    let slots: Vec<usize> = vars.iter().map(|v| self.slot(v)).collect();
                    for &s in &slots {
                        bound[s] = true;
                    }
                    let op = self.op(format!("Values({} tuples)", data.len()), "values", None);
                    node = Node::Values { input: Box::new(node), slots, data: data.clone(), op };
                }
                PatternElement::SubSelect(sub) => {
                    let scope = self.scope(&sub.where_, Some(sub), None, level + 1)?;
                    let vars = projected_names(sub);
                    let cols: Vec<(usize, usize)> =
                        vars.iter().enumerate().map(|(j, v)| (self.slot(v), j)).collect();
                    for &(c, _) in &cols {
                        bound[c] = true;
                    }
                    let label = format!("SubSelect(?{})", vars.join(" ?"));
                    let op = self.op(label, "subselect", None);
                    let scope = Box::new(scope);
                    node = Node::SubSelect { input: Box::new(node), scope, cols, op };
                }
                PatternElement::Minus(g2) => {
                    // the inner pattern runs from the seed row, not the outer rows
                    let mut inner_bound = vec![false; bound.len()];
                    let inner = self.group(g2, Node::Input, &mut inner_bound, level + 1)?;
                    let shared: Vec<usize> =
                        (0..bound.len()).filter(|&c| bound[c] && inner_bound[c]).collect();
                    let names: Vec<&str> =
                        shared.iter().map(|&c| self.frame.names()[c].as_str()).collect();
                    let op = self.op(format!("Minus(on ?{})", names.join(" ?")), "minus", None);
                    let inner = Box::new(inner);
                    node = Node::Minus { input: Box::new(node), inner, shared, op };
                }
            }
            i += 1;
        }
        // the group's filters apply at its end: plain conjuncts first, then
        // one semi- or anti-join per top-level EXISTS conjunct
        let (probes, plain): (Vec<&Expr>, Vec<&Expr>) =
            filters.into_iter().partition(|e| matches!(e, Expr::Exists(..)));
        if !plain.is_empty() {
            for e in &plain {
                self.nested_exists(e, bound, level + 1)?;
            }
            let op = self.op(format!("Filter({} exprs)", plain.len()), "filter", None);
            let exprs = plain.into_iter().cloned().collect();
            node = Node::Filter { input: Box::new(node), exprs, op };
        }
        for e in probes {
            let Expr::Exists(g2, negated) = e else { unreachable!("partitioned on EXISTS") };
            let inner = self.group(g2, Node::Input, &mut bound.clone(), level + 1)?;
            let label = if *negated { "AntiJoin(NOT EXISTS)" } else { "SemiJoin(EXISTS)" };
            let op = self.op(label.to_owned(), "exists", None);
            let (inner, negated) = (Box::new(inner), *negated);
            node = Node::Exists { input: Box::new(node), inner, negated, op };
        }
        Ok(node)
    }

    fn bgp(&mut self, patterns: &[&TriplePattern], input: Node, bound: &mut [bool]) -> Node {
        let order = if self.reorder {
            plan_order(self.store, patterns, &self.frame, bound)
        } else {
            (0..patterns.len()).collect()
        };
        let mut node = input;
        for idx in order {
            let tp = patterns[idx];
            let est = Some(estimate_pattern(self.store, tp));
            let s = self.cslot(&tp.subject, bound);
            let o = self.cslot(&tp.object, bound);
            let input = Box::new(node);
            node = match &tp.predicate {
                PathOrVar::Path(PropertyPath::Iri(iri)) => {
                    let p = self.store.lookup_iri(iri).map_or(CPred::Missing, CPred::Const);
                    let op = self.op(format!("IndexJoin {}", fmt_pattern(tp)), "join", est);
                    Node::Join { input, s, p, o, op }
                }
                PathOrVar::Var(v) => {
                    let slot = self.slot(v);
                    bound[slot] = true;
                    let op = self.op(format!("IndexJoin {}", fmt_pattern(tp)), "join", est);
                    Node::Join { input, s, p: CPred::Var(slot), o, op }
                }
                PathOrVar::Path(path) => {
                    let op = self.op(format!("PathJoin {}", fmt_pattern(tp)), "path", est);
                    Node::Path { input, s, path: path.clone(), o, op }
                }
            };
        }
        node
    }

    fn cslot(&self, t: &TermPattern, bound: &mut [bool]) -> CSlot {
        match t {
            TermPattern::Term(term) => self.store.lookup(term).map_or(CSlot::Missing, CSlot::Const),
            TermPattern::Var(v) => {
                let slot = self.slot(v);
                bound[slot] = true;
                CSlot::Var(slot)
            }
        }
    }
}

/// Split a filter into its top-level `&&` conjuncts: a row passes the
/// filter exactly when it passes each of them.
fn conjuncts<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    match e {
        Expr::And(a, b) => {
            conjuncts(a, out);
            conjuncts(b, out);
        }
        _ => out.push(e),
    }
}

fn has_exists(e: &Expr) -> bool {
    let mut found = false;
    for_each_exists(e, &mut |_| found = true);
    found
}

/// Greedy join ordering driven by the static may-be-bound variable set:
/// while some variable is bound, patterns connected to one run first (an
/// index probe per row, not a cartesian product); ties go to the smallest
/// estimate. A pattern run below an `OPTIONAL` or `EXISTS` sees the outer
/// row's variables as bound from the start.
fn plan_order(
    store: &Store,
    patterns: &[&TriplePattern],
    frame: &Frame,
    bound: &[bool],
) -> Vec<usize> {
    let mut bound_vars = bound.to_vec();
    let estimates: Vec<f64> = patterns.iter().map(|tp| estimate_pattern(store, tp)).collect();
    let pattern_slots: Vec<Vec<usize>> = patterns
        .iter()
        .map(|tp| pattern_vars(tp).filter_map(|v| frame.index(v)).collect())
        .collect();
    let mut remaining: Vec<usize> = (0..patterns.len()).collect();
    let mut order = Vec::with_capacity(patterns.len());
    while !remaining.is_empty() {
        let any_bound = bound_vars.iter().any(|&b| b);
        let unconnected = |i: usize| any_bound && !pattern_slots[i].iter().any(|&v| bound_vars[v]);
        let best = remaining
            .iter()
            .copied()
            .min_by(|&a, &b| {
                unconnected(a).cmp(&unconnected(b)).then(
                    estimates[a].partial_cmp(&estimates[b]).unwrap_or(std::cmp::Ordering::Equal),
                )
            })
            .expect("non-empty remaining");
        remaining.retain(|&i| i != best);
        for &v in &pattern_slots[best] {
            bound_vars[v] = true;
        }
        order.push(best);
    }
    order
}

/// Static cardinality estimate for one pattern (constants only, capped
/// scan via [`Store::count_matching`]).
pub(crate) fn estimate_pattern(store: &Store, tp: &TriplePattern) -> f64 {
    let s = match &tp.subject {
        TermPattern::Term(t) => match store.lookup(t) {
            Some(id) => Some(id),
            None => return 0.0,
        },
        TermPattern::Var(_) => None,
    };
    let o = match &tp.object {
        TermPattern::Term(t) => match store.lookup(t) {
            Some(id) => Some(id),
            None => return 0.0,
        },
        TermPattern::Var(_) => None,
    };
    let p = match &tp.predicate {
        PathOrVar::Path(PropertyPath::Iri(iri)) => match store.lookup_iri(iri) {
            Some(id) => Some(id),
            None => return 0.0,
        },
        PathOrVar::Path(_) => return 1000.0, // complex path: moderately expensive
        PathOrVar::Var(_) => None,
    };
    store.count_matching(s, p, o, 10_000) as f64
}

fn fmt_pattern(tp: &TriplePattern) -> String {
    fn pos(t: &TermPattern) -> String {
        match t {
            TermPattern::Var(v) => format!("?{v}"),
            TermPattern::Term(t) => t.display_name(),
        }
    }
    fn path(p: &PropertyPath) -> String {
        match p {
            PropertyPath::Iri(iri) => Term::iri(iri.clone()).display_name(),
            PropertyPath::Inverse(x) => format!("^{}", path(x)),
            PropertyPath::Sequence(a, b) => format!("{}/{}", path(a), path(b)),
            PropertyPath::Alternative(a, b) => format!("({}|{})", path(a), path(b)),
            PropertyPath::ZeroOrMore(x) => format!("{}*", path(x)),
            PropertyPath::OneOrMore(x) => format!("{}+", path(x)),
            PropertyPath::ZeroOrOne(x) => format!("{}?", path(x)),
        }
    }
    let p = match &tp.predicate {
        PathOrVar::Var(v) => format!("?{v}"),
        PathOrVar::Path(p) => path(p),
    };
    format!("{} {} {}", pos(&tp.subject), p, pos(&tp.object))
}

// ---- aggregation state -----------------------------------------------------

/// One distinct aggregate call appearing in the projection or `HAVING`.
#[derive(Debug, Clone, PartialEq)]
struct AggSpec {
    op: AggregateOp,
    distinct: bool,
    inner: Option<Expr>,
}

/// Collect the distinct aggregate calls of an expression (not inside
/// `EXISTS` patterns, which see rows, not groups).
fn collect_agg_specs(e: &Expr, out: &mut Vec<AggSpec>) {
    match e {
        Expr::Aggregate(op, distinct, inner) => {
            let spec = AggSpec { op: *op, distinct: *distinct, inner: inner.as_deref().cloned() };
            if !out.contains(&spec) {
                out.push(spec);
            }
        }
        Expr::Or(a, b) | Expr::And(a, b) | Expr::Compare(a, _, b) | Expr::Arith(a, _, b) => {
            collect_agg_specs(a, out);
            collect_agg_specs(b, out);
        }
        Expr::Not(x) | Expr::Neg(x) => collect_agg_specs(x, out),
        Expr::In(x, list, _) => {
            collect_agg_specs(x, out);
            for item in list {
                collect_agg_specs(item, out);
            }
        }
        Expr::Call(_, args) => args.iter().for_each(|a| collect_agg_specs(a, out)),
        Expr::Var(_) | Expr::Const(_) | Expr::Exists(..) => {}
    }
}

/// Streaming accumulator for one aggregate over one group. A failing
/// addition poisons SUM/AVG into an unbound result; MIN and MAX keep the
/// first of equal or incomparable values.
#[derive(Debug, Clone)]
enum AggState {
    Count(i64),
    /// SUM (or AVG, dividing by `n`); `acc` is `None` once poisoned.
    Sum { acc: Option<Value>, n: i64, avg: bool },
    /// MIN (`want` = less) or MAX (`want` = greater).
    Best { best: Option<Value>, want: std::cmp::Ordering },
    Sample(Option<Value>),
    Concat(Vec<String>),
    /// DISTINCT aggregates buffer first-occurrence values and fold them at
    /// finalize.
    Distinct { op: AggregateOp, seen: HashSet<Term>, values: Vec<Value> },
}

/// The kept value unless the challenger compares strictly `want`-wards.
fn better(kept: Option<Value>, v: Value, want: std::cmp::Ordering) -> Option<Value> {
    match kept {
        Some(k) if v.compare(&k) != Some(want) => Some(k),
        _ => Some(v),
    }
}

impl AggState {
    fn new(spec: &AggSpec) -> AggState {
        use std::cmp::Ordering::{Greater, Less};
        if spec.distinct {
            return AggState::Distinct { op: spec.op, seen: HashSet::new(), values: Vec::new() };
        }
        let sum = |avg| AggState::Sum { acc: Some(Value::Int(0)), n: 0, avg };
        match spec.op {
            AggregateOp::Count => AggState::Count(0),
            AggregateOp::Sum => sum(false),
            AggregateOp::Avg => sum(true),
            AggregateOp::Min => AggState::Best { best: None, want: Less },
            AggregateOp::Max => AggState::Best { best: None, want: Greater },
            AggregateOp::Sample => AggState::Sample(None),
            AggregateOp::GroupConcat => AggState::Concat(Vec::new()),
        }
    }

    fn update(&mut self, v: Value) {
        match self {
            AggState::Count(n) => *n += 1,
            AggState::Sum { acc, n, .. } => {
                *acc = acc.take().and_then(|a| a.add(&v));
                *n += 1;
            }
            AggState::Best { best, want } => *best = better(best.take(), v, *want),
            AggState::Sample(s) => {
                s.get_or_insert(v);
            }
            AggState::Concat(parts) => parts.push(v.render()),
            AggState::Distinct { seen, values, .. } => {
                if seen.insert(v.to_term()) {
                    values.push(v);
                }
            }
        }
    }

    /// Fold a later chunk's state into an earlier chunk's (parallel merge).
    fn merge(&mut self, other: AggState) {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::Sum { acc, n, .. }, AggState::Sum { acc: b, n: bn, .. }) => {
                *acc = acc.take().zip(b).and_then(|(x, y)| x.add(&y));
                *n += bn;
            }
            (AggState::Best { best, want }, AggState::Best { best: Some(b), .. }) => {
                *best = better(best.take(), b, *want);
            }
            (AggState::Best { .. }, AggState::Best { best: None, .. }) => {}
            (AggState::Sample(a), AggState::Sample(b)) => {
                if a.is_none() {
                    *a = b;
                }
            }
            (AggState::Concat(a), AggState::Concat(b)) => a.extend(b),
            (AggState::Distinct { seen, values, .. }, AggState::Distinct { values: bv, .. }) => {
                for v in bv {
                    if seen.insert(v.to_term()) {
                        values.push(v);
                    }
                }
            }
            _ => unreachable!("mismatched aggregate states"),
        }
    }

    fn finalize(self) -> Option<Value> {
        match self {
            AggState::Count(n) => Some(Value::Int(n)),
            AggState::Sum { acc, avg: false, .. } => acc,
            AggState::Sum { n: 0, .. } => None,
            AggState::Sum { acc, n, .. } => acc?.div(&Value::Int(n)),
            AggState::Best { best, .. } | AggState::Sample(best) => best,
            AggState::Concat(parts) => Some(Value::Str(parts.join(" "), None)),
            AggState::Distinct { op, values, .. } => aggregate_values(op, values),
        }
    }
}

/// The aggregate of a whole value list: used to finalize DISTINCT
/// accumulators over their deduplicated values and, via
/// [`crate::views::aggregate_value_list`], by materialized view tables so
/// their answers replicate engine aggregation exactly.
pub(crate) fn aggregate_values(op: AggregateOp, values: Vec<Value>) -> Option<Value> {
    let mut state = AggState::new(&AggSpec { op, distinct: false, inner: None });
    values.into_iter().for_each(|v| state.update(v));
    state.finalize()
}

/// One group under construction: canonical key, first source row (the
/// representative for non-aggregate expressions), and one state per spec.
struct GroupAcc {
    key: Vec<EId>,
    first_row: usize,
    states: Vec<AggState>,
}

/// A group-key column, pre-canonicalized for plain variables.
enum KeyCol {
    Canon(Vec<EId>),
    Complex(Expr),
}

/// Where one aggregate draws its per-row input from.
enum SpecIn {
    /// `COUNT(*)`: every row contributes `1`.
    CountStar,
    /// A plain variable at this frame slot.
    Slot(usize),
    /// A variable absent from the frame: never contributes.
    Never,
    /// An arbitrary expression (sequential path only).
    Complex(Expr),
}

/// The parallel-safe subset of [`SpecIn`].
#[derive(Clone, Copy)]
enum SimpleIn {
    CountStar,
    Slot(usize),
    Never,
}

// ---- execution -------------------------------------------------------------

/// Run a compiled plan. Returns the solutions (for `SELECT`, the projected
/// result; otherwise every binding) plus per-operator statistics.
pub(crate) fn execute_plan(
    plan: &PhysicalPlan,
    store: &Store,
    options: &EvalOptions,
) -> Result<(Solutions, ExecStats), SparqlError> {
    let t0 = Instant::now();
    let guard = LimitGuard::new(options.effective_limits());
    let mut ex = Executor {
        store,
        scope: &plan.scope,
        policy: &options.policy,
        guard: &guard,
        arena: TermArena::new(),
        op_rows: vec![0; plan.ops.len()],
        op_calls: vec![0; plan.ops.len()],
        threads_used: 1,
        parallel_groupby: false,
        morsels: 0,
    };
    // charge the static nesting depth (sub-selects and EXISTS patterns
    // included) against the recursion budget for the whole execution
    let mut scopes = Vec::with_capacity(plan.depth as usize);
    for _ in 0..plan.depth {
        scopes.push(guard.enter()?);
    }
    let solutions = ex.run_scope(&plan.scope)?;
    drop(scopes);
    let stats = ExecStats {
        operators: plan
            .ops
            .iter()
            .enumerate()
            .map(|(i, m)| OpStats {
                label: m.label.clone(),
                kind: m.kind,
                estimate: m.estimate,
                rows_out: ex.op_rows[i],
                invocations: ex.op_calls[i],
            })
            .collect(),
        rows_out: solutions.rows().len(),
        threads_used: ex.threads_used,
        parallel_groupby: ex.parallel_groupby,
        morsels: ex.morsels,
        arena_terms: ex.arena.len(),
        elapsed: t0.elapsed(),
    };
    Ok((solutions, stats))
}

struct Executor<'a> {
    store: &'a Store,
    /// The scope whose frame the current batches use.
    scope: &'a Scope,
    policy: &'a ExecPolicy,
    guard: &'a LimitGuard,
    arena: TermArena,
    op_rows: Vec<u64>,
    op_calls: Vec<u64>,
    threads_used: usize,
    parallel_groupby: bool,
    morsels: usize,
}

/// Runtime anchor of a join position for one input row.
enum RAnchor {
    Fixed(TermId),
    BoundV(TermId),
    Free(usize),
}

impl RAnchor {
    fn id(&self) -> Option<TermId> {
        match self {
            RAnchor::Fixed(id) | RAnchor::BoundV(id) => Some(*id),
            RAnchor::Free(_) => None,
        }
    }
}

fn same_free(a: &RAnchor, b: &RAnchor) -> bool {
    matches!((a, b), (RAnchor::Free(x), RAnchor::Free(y)) if x == y)
}

/// Bind an anchor to a matched id; false rejects the match.
fn anchor_bind(a: &RAnchor, value: TermId, overrides: &mut Vec<(usize, EId)>) -> bool {
    match a {
        RAnchor::Fixed(_) => true,
        RAnchor::BoundV(id) => *id == value,
        RAnchor::Free(slot) => {
            overrides.push((*slot, pack_store(value)));
            true
        }
    }
}

impl<'a> Executor<'a> {
    fn note(&mut self, op: usize, rows: usize) {
        self.op_rows[op] += rows as u64;
        self.op_calls[op] += 1;
    }

    /// Run one scope from its seed row through its output stage.
    fn run_scope(&mut self, scope: &'a Scope) -> Result<Solutions, SparqlError> {
        let outer = std::mem::replace(&mut self.scope, scope);
        let result = self
            .exec(&scope.root, Batch::seed(scope.frame.len()))
            .and_then(|batch| self.finish(batch));
        self.scope = outer;
        let solutions = result?;
        self.note(scope.output_op, solutions.len());
        Ok(solutions)
    }

    fn exec(&mut self, node: &'a Node, input: Batch) -> Result<Batch, SparqlError> {
        let (out, op) = match node {
            Node::Input => return Ok(input),
            Node::Join { .. } => {
                // collapse the maximal join chain ending here so the morsel
                // runtime can drive all of it per morsel without a barrier
                // between steps
                let mut steps: Vec<(&CSlot, &CPred, &CSlot, usize)> = Vec::new();
                let mut cur = node;
                while let Node::Join { input: child, s, p, o, op } = cur {
                    steps.push((s, p, o, *op));
                    cur = child;
                }
                steps.reverse();
                let b = self.exec(cur, input)?;
                return self.exec_join_chain(&b, &steps);
            }
            Node::Path { input: child, s, path, o, op } => {
                let b = self.exec(child, input)?;
                (self.exec_path(&b, s, path, o)?, *op)
            }
            Node::Filter { input: child, exprs, op } => {
                let b = self.exec(child, input)?;
                (self.exec_filter(b, exprs)?, *op)
            }
            Node::Exists { input: child, inner, negated, op } => {
                let b = self.exec(child, input)?;
                (self.exec_exists(b, inner, *negated)?, *op)
            }
            Node::Bind { input: child, expr, slot, op } => {
                let b = self.exec(child, input)?;
                (self.exec_bind(b, expr, *slot)?, *op)
            }
            Node::Values { input: child, slots, data, op } => {
                let b = self.exec(child, input)?;
                (self.exec_values(&b, slots, data)?, *op)
            }
            Node::Optional { input: child, inner, op } => {
                let b = self.exec(child, input)?;
                (self.exec_optional(&b, inner)?, *op)
            }
            Node::Union { input: child, arms, op } => {
                let base = self.exec(child, input)?;
                let mut out = Batch::new(base.width());
                for arm in arms {
                    let arm_out = self.exec(arm, base.clone())?;
                    out.append(&arm_out);
                }
                (out, *op)
            }
            Node::Minus { input: child, inner, shared, op } => {
                let b = self.exec(child, input)?;
                (self.exec_minus(b, inner, shared)?, *op)
            }
            Node::SubSelect { input: child, scope, cols, op } => {
                let b = self.exec(child, input)?;
                (self.exec_subselect(&b, scope, cols)?, *op)
            }
        };
        self.note(op, out.len());
        Ok(out)
    }

    /// Execute a maximal chain of index joins over `input`. When the input
    /// clears the morsel work floor, the *whole* chain runs per morsel on
    /// the shared scheduler — no allocation or barrier between steps — and
    /// the per-morsel outputs concatenate in morsel order, which reproduces
    /// the sequential scan byte-for-byte (index joins emit matches in
    /// store-iteration order). Below the floor the chain runs inline.
    fn exec_join_chain(
        &mut self,
        input: &Batch,
        steps: &[(&CSlot, &CPred, &CSlot, usize)],
    ) -> Result<Batch, SparqlError> {
        let n_morsels = input.len().div_ceil(DEFAULT_MORSEL_ROWS).max(1);
        let workers = self.policy.morsel_workers(n_morsels);
        if workers <= 1 {
            let mut prev: Option<Batch> = None;
            for &(s, p, o, op) in steps {
                let out = match &prev {
                    None => self.exec_join(input, s, p, o)?,
                    Some(b) => self.exec_join(b, s, p, o)?,
                };
                self.note(op, out.len());
                prev = Some(out);
            }
            return Ok(prev.expect("join chains are non-empty"));
        }
        let store = self.store;
        let rows = input.len();
        let intr = self.guard.interrupt();
        let result = run_morsels(
            workers,
            n_morsels,
            |_| (),
            |_: &mut (), m: usize| {
                let lo = m * DEFAULT_MORSEL_ROWS;
                let hi = ((m + 1) * DEFAULT_MORSEL_ROWS).min(rows);
                chain_worker(store, input, steps, lo, hi, &intr)
            },
        );
        self.threads_used = self.threads_used.max(workers);
        self.morsels += n_morsels;
        let segments = match result {
            Ok(segments) => {
                self.guard.absorb(&intr)?;
                segments
            }
            Err(_trip) => {
                self.guard.absorb(&intr)?;
                unreachable!("absorb surfaces the recorded trip");
            }
        };
        let mut totals = vec![0u64; steps.len()];
        let mut out = Batch::new(input.width());
        for (segment, counts) in segments {
            out.append(&segment);
            for (t, c) in totals.iter_mut().zip(&counts) {
                *t += *c;
            }
        }
        // one invocation per step per chain, independent of the worker count
        for (&(_, _, _, op), &t) in steps.iter().zip(&totals) {
            self.op_rows[op] += t;
            self.op_calls[op] += 1;
        }
        Ok(out)
    }

    /// One index-join step over the whole input, inline on the caller's
    /// thread. Budgets are charged through a single-owner [`Interrupt`] and
    /// reconciled into the guard, so the accounting matches the morsel path.
    fn exec_join(
        &mut self,
        input: &Batch,
        s: &CSlot,
        p: &CPred,
        o: &CSlot,
    ) -> Result<Batch, SparqlError> {
        let mut out = Batch::new(input.width());
        let intr = self.guard.interrupt();
        let mut budget = BudgetBlock::new(&intr, batch_row_cost(input.width()));
        let res = join_rows(self.store, input, 0, input.len(), s, p, o, &mut out, &mut budget)
            .and_then(|()| budget.flush());
        self.guard.absorb(&intr)?;
        match res {
            Ok(()) => Ok(out),
            Err(_) => unreachable!("absorb surfaces the recorded trip"),
        }
    }

    /// A property path between two positions: the path walk runs once per
    /// input row from whichever ends the row binds, and once in total for
    /// rows that bind neither.
    fn exec_path(
        &mut self,
        input: &Batch,
        s: &CSlot,
        path: &PropertyPath,
        o: &CSlot,
    ) -> Result<Batch, SparqlError> {
        let mut out = Batch::new(input.width());
        let mut unanchored: Option<BTreeSet<(TermId, TermId)>> = None;
        let mut overrides: Vec<(usize, EId)> = Vec::with_capacity(2);
        for r in 0..input.len() {
            self.guard.check_deadline()?;
            let (Some(sa), Some(oa)) = (resolve_slot(s, input, r), resolve_slot(o, input, r))
            else {
                continue;
            };
            let anchored;
            let pairs = match (sa.id(), oa.id()) {
                (None, None) => match &mut unanchored {
                    Some(pairs) => &*pairs,
                    slot => &*slot.insert(eval_path_limited(self.store, path, None, None, self.guard)?),
                },
                (start, end) => {
                    anchored = eval_path_limited(self.store, path, start, end, self.guard)?;
                    &anchored
                }
            };
            for &(sv, ov) in pairs {
                // repeated-variable consistency (?x p+ ?x)
                if same_free(&sa, &oa) && sv != ov {
                    continue;
                }
                overrides.clear();
                if anchor_bind(&sa, sv, &mut overrides) && anchor_bind(&oa, ov, &mut overrides) {
                    self.guard.count_row_bytes(batch_row_cost(out.width()))?;
                    out.push_row_from(input, r, &overrides);
                }
            }
        }
        Ok(out)
    }

    /// Evaluate an expression against `row` (row `r` of `batch`, or the
    /// empty row past its end). A nested `EXISTS` runs its compiled pattern
    /// on that batch row; an aggregate reads its finished value from `aggs`
    /// (grouped projection and `HAVING`).
    fn eval_row(
        &mut self,
        e: &Expr,
        row: &Row,
        (batch, r): (&Batch, usize),
        aggs: Option<(&[AggSpec], &[Option<Value>])>,
    ) -> Option<Value> {
        let (scope, store, guard) = (self.scope, self.store, self.guard);
        eval_expr_limited(e, row, &scope.frame, store, guard, &mut |leaf: &Expr| match leaf {
            Expr::Exists(g, negated) => Some(Value::Bool(self.exists_at(g, batch, r)? != *negated)),
            Expr::Aggregate(op, distinct, inner) => {
                let (specs, values) = aggs?;
                let i = specs.iter().position(|s| {
                    s.op == *op && s.distinct == *distinct && s.inner.as_ref() == inner.as_deref()
                })?;
                values[i].clone()
            }
            _ => None,
        })
    }

    /// One expression-nested `EXISTS` for row `r` of `batch`: run its
    /// compiled pattern on a one-row batch. A limit tripping inside reports
    /// no answer and stays recorded in the guard for the caller to surface.
    fn exists_at(&mut self, g: &GroupPattern, batch: &Batch, r: usize) -> Option<bool> {
        let scope = self.scope;
        let (_, op, node) = scope.exists.iter().find(|(p, ..)| p == g)?;
        let mut one = Batch::new(batch.width());
        if r < batch.len() {
            one.push_row_from(batch, r, &[]);
        } else {
            one = Batch::seed(batch.width());
        }
        let hit = !self.exec(node, one).ok()?.is_empty();
        self.note(*op, hit as usize);
        Some(hit)
    }

    fn exec_filter(&mut self, mut batch: Batch, exprs: &[Expr]) -> Result<Batch, SparqlError> {
        for e in exprs {
            let keep: Vec<bool> = (0..batch.len())
                .map(|r| {
                    let row = self.to_row(&batch, r);
                    self.eval_row(e, &row, (&batch, r), None)
                        .and_then(|v| v.effective_boolean())
                        .unwrap_or(false)
                })
                .collect();
            batch.retain_rows(&keep);
            self.guard.surface()?;
        }
        Ok(batch)
    }

    /// `FILTER [NOT] EXISTS` as a semi- or anti-join: the inner pattern
    /// runs once over the whole batch, and each extended row's provenance
    /// names the input row it matched.
    fn exec_exists(
        &mut self,
        mut batch: Batch,
        inner: &'a Node,
        negated: bool,
    ) -> Result<Batch, SparqlError> {
        let mut probe = batch.clone();
        probe.reset_prov();
        let matched = self.exec(inner, probe)?;
        let mut keep = vec![negated; batch.len()];
        for r in 0..matched.len() {
            keep[matched.prov(r) as usize] = !negated;
        }
        batch.retain_rows(&keep);
        Ok(batch)
    }

    /// `MINUS` as a hash anti-join (SPARQL 1.1 §18.5): a row is dropped
    /// when some inner row agrees with it on every shared slot both bind,
    /// and they bind at least one in common. Inner rows are grouped by the
    /// shared slots they bind; each group is hashed on the slots it has in
    /// common with an outer row, once per distinct combination.
    fn exec_minus(
        &mut self,
        mut batch: Batch,
        inner: &'a Node,
        shared: &[usize],
    ) -> Result<Batch, SparqlError> {
        if shared.is_empty() || batch.is_empty() {
            return Ok(batch); // no variable in common: nothing is removed
        }
        let right = self.exec(inner, Batch::seed(batch.width()))?;
        let bound_in = |b: &Batch, r: usize, slots: &[usize]| -> Vec<usize> {
            slots.iter().copied().filter(|&c| b.get(r, c) != UNBOUND).collect()
        };
        let mut groups: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
        for ir in 0..right.len() {
            let mask = bound_in(&right, ir, shared);
            match groups.iter_mut().find(|(m, _)| *m == mask) {
                Some((_, rows)) => rows.push(ir),
                None if !mask.is_empty() => groups.push((mask, vec![ir])),
                None => {}
            }
        }
        let mut index: HashMap<(usize, Vec<usize>), HashSet<Vec<EId>>> = HashMap::new();
        let keep: Vec<bool> = (0..batch.len())
            .map(|r| {
                !groups.iter().enumerate().any(|(gi, (mask, rows))| {
                    let common = bound_in(&batch, r, mask);
                    if common.is_empty() {
                        return false;
                    }
                    let key: Vec<EId> = common.iter().map(|&c| batch.get(r, c)).collect();
                    index
                        .entry((gi, common))
                        .or_insert_with_key(|(_, cols)| {
                            let values = |ir: usize| cols.iter().map(|&c| right.get(ir, c)).collect();
                            rows.iter().map(|&ir| values(ir)).collect()
                        })
                        .contains(&key)
                })
            })
            .collect();
        batch.retain_rows(&keep);
        Ok(batch)
    }

    /// Run a sub-select once and join its output columns into the batch:
    /// every input row pairs with every compatible sub-select row, in that
    /// order.
    fn exec_subselect(
        &mut self,
        input: &Batch,
        scope: &'a Scope,
        cols: &[(usize, usize)],
    ) -> Result<Batch, SparqlError> {
        let solutions = self.run_scope(scope)?;
        let sub: Vec<Vec<EId>> = solutions
            .rows()
            .iter()
            .map(|row| {
                cols.iter()
                    .map(|&(_, j)| row[j].as_ref().map_or(UNBOUND, |t| self.arena.intern(self.store, t)))
                    .collect()
            })
            .collect();
        let mut out = Batch::new(input.width());
        let mut overrides: Vec<(usize, EId)> = Vec::new();
        for r in 0..input.len() {
            'sub: for ids in &sub {
                overrides.clear();
                for (&(slot, _), &id) in cols.iter().zip(ids) {
                    let existing = input.get(r, slot);
                    if id == UNBOUND || existing == id {
                        continue;
                    }
                    if existing != UNBOUND {
                        continue 'sub; // incompatible binding
                    }
                    overrides.push((slot, id));
                }
                self.guard.count_row_bytes(batch_row_cost(out.width()))?;
                out.push_row_from(input, r, &overrides);
            }
        }
        Ok(out)
    }

    fn exec_bind(
        &mut self,
        mut batch: Batch,
        expr: &Expr,
        slot: usize,
    ) -> Result<Batch, SparqlError> {
        let ids: Vec<EId> = (0..batch.len())
            .map(|r| {
                let row = self.to_row(&batch, r);
                match self.eval_row(expr, &row, (&batch, r), None) {
                    Some(v) => self.arena.intern(self.store, &v.to_term()),
                    None => UNBOUND,
                }
            })
            .collect();
        for (r, id) in ids.into_iter().enumerate() {
            batch.set(r, slot, id);
        }
        self.guard.surface()?;
        Ok(batch)
    }

    fn exec_values(
        &mut self,
        input: &Batch,
        slots: &[usize],
        data: &[Vec<Option<Term>>],
    ) -> Result<Batch, SparqlError> {
        let tuples: Vec<Vec<Option<EId>>> = data
            .iter()
            .map(|tuple| {
                tuple.iter().map(|t| t.as_ref().map(|t| self.arena.intern(self.store, t))).collect()
            })
            .collect();
        let mut out = Batch::new(input.width());
        let mut overrides: Vec<(usize, EId)> = Vec::new();
        for r in 0..input.len() {
            'data: for tuple in &tuples {
                overrides.clear();
                for (slot, id) in slots.iter().zip(tuple) {
                    if let Some(id) = id {
                        let existing = input.get(r, *slot);
                        if existing != UNBOUND {
                            if existing != *id {
                                continue 'data; // incompatible binding
                            }
                        } else {
                            overrides.push((*slot, *id));
                        }
                    }
                }
                self.guard.count_row_bytes(batch_row_cost(out.width()))?;
                out.push_row_from(input, r, &overrides);
            }
        }
        Ok(out)
    }

    fn exec_optional(&mut self, input: &Batch, inner: &'a Node) -> Result<Batch, SparqlError> {
        let mut inner_input = input.clone();
        inner_input.reset_prov();
        let extended = self.exec(inner, inner_input)?;
        // regroup extended rows under their source row, in source order
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); input.len()];
        for r in 0..extended.len() {
            buckets[extended.prov(r) as usize].push(r);
        }
        let mut out = Batch::new(input.width());
        for (r, bucket) in buckets.iter().enumerate() {
            if bucket.is_empty() {
                out.push_row(&input.row(r), input.prov(r));
            } else {
                for &ir in bucket {
                    out.push_row(&extended.row(ir), input.prov(r));
                }
            }
        }
        Ok(out)
    }

    fn to_row(&self, batch: &Batch, r: usize) -> Row {
        (0..batch.width())
            .map(|c| {
                let id = batch.get(r, c);
                if id == UNBOUND {
                    None
                } else if let Some(tid) = as_store(id) {
                    Some(Bound::Id(tid))
                } else {
                    Some(Bound::Term(self.arena.term(self.store, id).clone()))
                }
            })
            .collect()
    }

    /// The scope's output stage over its final batch.
    fn finish(&mut self, batch: Batch) -> Result<Solutions, SparqlError> {
        let scope = self.scope;
        match &scope.output {
            Output::Select { query, items, grouped } => {
                let vars: Vec<String> = items.iter().map(|it| it.alias.clone()).collect();
                let out_rows = if *grouped {
                    self.grouped_rows(query, items, &batch)?
                } else {
                    self.projected_rows(items, &batch)?
                };
                finalize_rows(query, vars, out_rows, self.store, self.guard)
            }
            Output::Bindings => {
                let rows = (0..batch.len())
                    .map(|r| {
                        (0..batch.width())
                            .map(|c| {
                                let id = batch.get(r, c);
                                (id != UNBOUND).then(|| self.arena.term(self.store, id).clone())
                            })
                            .collect()
                    })
                    .collect();
                self.guard.surface()?;
                Ok(Solutions::new(scope.frame.names().to_vec(), rows))
            }
        }
    }

    // ---- plain projection --------------------------------------------------

    fn projected_rows(
        &mut self,
        items: &[SelectItem],
        batch: &Batch,
    ) -> Result<Vec<Vec<Option<Term>>>, SparqlError> {
        // pre-resolve Var items to slots; anything else evaluates per row
        let slots: Vec<Option<Option<usize>>> = items
            .iter()
            .map(|it| match &it.expr {
                Expr::Var(v) => Some(self.scope.frame.index(v)),
                _ => None,
            })
            .collect();
        let all_vars = slots.iter().all(|s| s.is_some());
        // projected term per execution id, memoized: the value round trip
        // (term -> typed value -> canonical term) runs once per distinct id
        let mut memo: HashMap<EId, Option<Term>> = HashMap::new();
        let mut out = Vec::with_capacity(batch.len());
        for r in 0..batch.len() {
            let row: Row = if all_vars { Vec::new() } else { self.to_row(batch, r) };
            let mut cells: Vec<Option<Term>> = Vec::with_capacity(items.len());
            for (it, slot) in items.iter().zip(&slots) {
                cells.push(match slot {
                    Some(None) => None, // projected var absent from the frame
                    Some(Some(c)) => {
                        let id = batch.get(r, *c);
                        if id == UNBOUND {
                            None
                        } else if let Some(t) = memo.get(&id) {
                            t.clone()
                        } else {
                            let term = self.arena.term(self.store, id);
                            let t = Some(Value::from_term(term).to_term());
                            memo.insert(id, t.clone());
                            t
                        }
                    }
                    None => self.eval_row(&it.expr, &row, (batch, r), None).map(|v| v.to_term()),
                });
            }
            out.push(cells);
        }
        Ok(out)
    }

    // ---- grouping / aggregation --------------------------------------------

    fn grouped_rows(
        &mut self,
        q: &SelectQuery,
        items: &[SelectItem],
        batch: &Batch,
    ) -> Result<Vec<Vec<Option<Term>>>, SparqlError> {
        // distinct aggregate specs across projection and HAVING
        let mut specs: Vec<AggSpec> = Vec::new();
        for it in items {
            collect_agg_specs(&it.expr, &mut specs);
        }
        if let Some(h) = &q.having {
            collect_agg_specs(h, &mut specs);
        }

        // group-key columns: plain variables canonicalize id-to-id; anything
        // else evaluates per row on the sequential path
        let mut canon_memo: HashMap<EId, EId> = HashMap::new();
        let mut key_cols: Vec<KeyCol> = Vec::with_capacity(q.group_by.len());
        let mut all_var_keys = true;
        for e in &q.group_by {
            match e {
                Expr::Var(v) => {
                    let col: Vec<EId> = match self.scope.frame.index(v) {
                        Some(c) => (0..batch.len())
                            .map(|r| self.canon_id(batch.get(r, c), &mut canon_memo))
                            .collect(),
                        None => vec![UNBOUND; batch.len()],
                    };
                    key_cols.push(KeyCol::Canon(col));
                }
                _ => {
                    all_var_keys = false;
                    key_cols.push(KeyCol::Complex(e.clone()));
                }
            }
        }

        let mut all_simple_specs = true;
        let spec_in: Vec<SpecIn> = specs
            .iter()
            .map(|s| match &s.inner {
                None => SpecIn::CountStar,
                Some(Expr::Var(v)) => match self.scope.frame.index(v) {
                    Some(c) => SpecIn::Slot(c),
                    None => SpecIn::Never,
                },
                Some(e) => {
                    all_simple_specs = false;
                    SpecIn::Complex(e.clone())
                }
            })
            .collect();

        let n_morsels = batch.len().div_ceil(DEFAULT_MORSEL_ROWS).max(1);
        let workers = if all_var_keys && all_simple_specs {
            self.policy.morsel_workers(n_morsels)
        } else {
            1 // complex keys/inputs touch the arena mutably: sequential only
        };

        let mut groups: Vec<GroupAcc> = if workers > 1 {
            let canon: Vec<&[EId]> = key_cols
                .iter()
                .map(|k| match k {
                    KeyCol::Canon(c) => c.as_slice(),
                    KeyCol::Complex(_) => unreachable!("parallel requires var keys"),
                })
                .collect();
            let simple: Vec<SimpleIn> = spec_in
                .iter()
                .map(|s| match s {
                    SpecIn::CountStar => SimpleIn::CountStar,
                    SpecIn::Slot(c) => SimpleIn::Slot(*c),
                    SpecIn::Never => SimpleIn::Never,
                    SpecIn::Complex(_) => unreachable!("parallel requires var inputs"),
                })
                .collect();
            self.threads_used = self.threads_used.max(workers);
            self.parallel_groupby = true;
            self.morsels += n_morsels;
            let ctx = ParCtx {
                store: self.store,
                arena: &self.arena,
                batch,
                canon: &canon,
                specs: &specs,
                simple: &simple,
            };
            let intr = self.guard.interrupt();
            match parallel_group(&ctx, workers, n_morsels, &intr) {
                Ok(groups) => {
                    self.guard.absorb(&intr)?;
                    groups
                }
                Err(_trip) => {
                    // a worker saw the deadline expire or the cancel flag:
                    // absorb maps the recorded trip onto the guard's error
                    self.guard.absorb(&intr)?;
                    unreachable!("absorb surfaces the recorded trip");
                }
            }
        } else {
            self.sequential_group(batch, &key_cols, &specs, &spec_in)
        };

        // an aggregate query with no GROUP BY over zero rows still yields
        // one group (COUNT(*) = 0)
        if groups.is_empty() && q.group_by.is_empty() {
            groups.push(GroupAcc {
                key: Vec::new(),
                first_row: usize::MAX,
                states: specs.iter().map(AggState::new).collect(),
            });
        }

        let mut out_rows = Vec::with_capacity(groups.len());
        for g in &groups {
            let rep = (batch, g.first_row);
            let rep_row: Row =
                if g.first_row == usize::MAX { Vec::new() } else { self.to_row(batch, g.first_row) };
            let agg_vals: Vec<Option<Value>> =
                g.states.iter().map(|s| s.clone().finalize()).collect();
            if let Some(having) = &q.having {
                let keep = self
                    .eval_row(having, &rep_row, rep, Some((&specs, &agg_vals)))
                    .and_then(|v| v.effective_boolean())
                    .unwrap_or(false);
                if !keep {
                    continue;
                }
            }
            let mut cells: Vec<Option<Term>> = Vec::with_capacity(items.len());
            for it in items {
                cells.push(
                    self.eval_row(&it.expr, &rep_row, rep, Some((&specs, &agg_vals)))
                        .map(|v| v.to_term()),
                );
            }
            out_rows.push(cells);
        }
        Ok(out_rows)
    }

    /// Canonical execution id of a group-key cell: the id of the term's
    /// value round trip, so e.g. `"07"^^xsd:integer` and `"7"^^xsd:integer`
    /// land in the same group.
    fn canon_id(&mut self, id: EId, memo: &mut HashMap<EId, EId>) -> EId {
        if id == UNBOUND {
            return UNBOUND;
        }
        if let Some(&c) = memo.get(&id) {
            return c;
        }
        let canon_term = Value::from_term(self.arena.term(self.store, id)).to_term();
        let c = self.arena.intern(self.store, &canon_term);
        memo.insert(id, c);
        c
    }

    fn sequential_group(
        &mut self,
        batch: &Batch,
        key_cols: &[KeyCol],
        specs: &[AggSpec],
        spec_in: &[SpecIn],
    ) -> Vec<GroupAcc> {
        let mut groups: Vec<GroupAcc> = Vec::new();
        let mut index: HashMap<Vec<EId>, usize> = HashMap::new();
        let mut val_memo: HashMap<EId, Value> = HashMap::new();
        let need_row = key_cols.iter().any(|k| matches!(k, KeyCol::Complex(_)))
            || spec_in.iter().any(|s| matches!(s, SpecIn::Complex(_)));
        for r in 0..batch.len() {
            let row: Row = if need_row { self.to_row(batch, r) } else { Vec::new() };
            let mut key: Vec<EId> = Vec::with_capacity(key_cols.len());
            for k in key_cols {
                key.push(match k {
                    KeyCol::Canon(col) => col[r],
                    KeyCol::Complex(e) => match self.eval_row(e, &row, (batch, r), None) {
                        Some(v) => self.arena.intern(self.store, &v.to_term()),
                        None => UNBOUND,
                    },
                });
            }
            let gi = match index.get(&key) {
                Some(&i) => i,
                None => {
                    index.insert(key.clone(), groups.len());
                    groups.push(GroupAcc {
                        key,
                        first_row: r,
                        states: specs.iter().map(AggState::new).collect(),
                    });
                    groups.len() - 1
                }
            };
            for (si, input) in spec_in.iter().enumerate() {
                let v: Option<Value> = match input {
                    SpecIn::CountStar => Some(Value::Int(1)),
                    SpecIn::Never => None,
                    SpecIn::Slot(c) => {
                        let id = batch.get(r, *c);
                        if id == UNBOUND {
                            None
                        } else if let Some(v) = val_memo.get(&id) {
                            Some(v.clone())
                        } else {
                            let v = Value::from_term(self.arena.term(self.store, id));
                            val_memo.insert(id, v.clone());
                            Some(v)
                        }
                    }
                    SpecIn::Complex(e) => self.eval_row(e, &row, (batch, r), None),
                };
                if let Some(v) = v {
                    groups[gi].states[si].update(v);
                }
            }
        }
        groups
    }
}

/// The solution modifiers of a `SELECT`: DISTINCT, ORDER BY, OFFSET/LIMIT,
/// and the final soft-limit surface. Materialized views
/// ([`crate::views`]) funnel through here too, so the modifiers behave
/// identically whichever path answers.
pub(crate) fn finalize_rows(
    q: &SelectQuery,
    vars: Vec<String>,
    mut out_rows: Vec<Vec<Option<Term>>>,
    store: &Store,
    guard: &LimitGuard,
) -> Result<Solutions, SparqlError> {
    if q.distinct {
        let mut seen = HashSet::new();
        out_rows.retain(|r| seen.insert(r.clone()));
    }

    if !q.order_by.is_empty() {
        // ORDER BY sees the projected row; EXISTS there is rejected at compile
        let out_frame = Frame::new(vars.clone());
        let key = |row: &[Option<Term>], e: &Expr| {
            let row: Row = row.iter().map(|t| t.clone().map(Bound::Term)).collect();
            eval_expr_limited(e, &row, &out_frame, store, guard, &mut |_: &Expr| None)
        };
        out_rows.sort_by(|a, b| {
            for spec in &q.order_by {
                let ord = order_values(&key(a, &spec.expr), &key(b, &spec.expr));
                let ord = if spec.descending { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }

    let offset = q.offset.unwrap_or(0);
    if offset > 0 {
        out_rows.drain(..offset.min(out_rows.len()));
    }
    if let Some(limit) = q.limit {
        out_rows.truncate(limit);
    }

    // surface any limit that tripped softly inside projection/sorting
    guard.surface()?;
    Ok(Solutions::new(vars, out_rows))
}

/// Total order for ORDER BY: unbound < blank < IRI < literal-by-value.
fn order_values(a: &Option<Value>, b: &Option<Value>) -> std::cmp::Ordering {
    fn rank(v: &Option<Value>) -> u8 {
        match v {
            None => 0,
            Some(Value::Blank(_)) => 1,
            Some(Value::Iri(_)) => 2,
            Some(_) => 3,
        }
    }
    let (ra, rb) = (rank(a), rank(b));
    if ra != rb {
        return ra.cmp(&rb);
    }
    match (a, b) {
        (Some(x), Some(y)) => x.compare(y).unwrap_or_else(|| x.render().cmp(&y.render())),
        _ => std::cmp::Ordering::Equal,
    }
}

// ---- morsel join workers ---------------------------------------------------

/// Batches per-row budget charges inside one join step: produced rows
/// accumulate locally and flush to the shared [`Interrupt`] every
/// [`WORKER_PROBE_INTERVAL`] rows, bounding both the atomic traffic and how
/// far a blown-up join can overrun its budgets before tripping. Flushes
/// also probe the deadline and the cancellation flag.
struct BudgetBlock<'a> {
    intr: &'a Interrupt,
    row_bytes: u64,
    pending: u64,
}

impl<'a> BudgetBlock<'a> {
    fn new(intr: &'a Interrupt, row_bytes: u64) -> Self {
        BudgetBlock { intr, row_bytes, pending: 0 }
    }

    /// Charge one produced row.
    fn add_row(&mut self) -> Result<(), Trip> {
        self.pending += 1;
        if self.pending >= WORKER_PROBE_INTERVAL as u64 {
            self.flush()?;
        }
        Ok(())
    }

    /// Push pending charges to the interrupt and probe deadline/cancel.
    fn flush(&mut self) -> Result<(), Trip> {
        let rows = std::mem::take(&mut self.pending);
        self.intr.checkpoint(rows, rows * self.row_bytes)
    }
}

/// One morsel of a join chain: run every step over `input[lo..hi)`, then
/// feed each step's local output to the next. Returns the chain's final
/// batch for this morsel plus per-step row counts (for operator stats).
fn chain_worker(
    store: &Store,
    input: &Batch,
    steps: &[(&CSlot, &CPred, &CSlot, usize)],
    lo: usize,
    hi: usize,
    intr: &Interrupt,
) -> Result<(Batch, Vec<u64>), Trip> {
    let mut counts = vec![0u64; steps.len()];
    let mut prev: Option<Batch> = None;
    for (si, &(s, p, o, _)) in steps.iter().enumerate() {
        let mut out = Batch::new(input.width());
        let mut budget = BudgetBlock::new(intr, batch_row_cost(input.width()));
        match &prev {
            None => join_rows(store, input, lo, hi, s, p, o, &mut out, &mut budget)?,
            Some(b) => join_rows(store, b, 0, b.len(), s, p, o, &mut out, &mut budget)?,
        }
        budget.flush()?;
        counts[si] = out.len() as u64;
        prev = Some(out);
    }
    Ok((prev.expect("join chains are non-empty"), counts))
}

/// The index-nested-loop inner loop over `input[lo..hi)`, shared by the
/// inline step executor and morsel workers. Matches append in
/// store-iteration order, so concatenating per-morsel outputs reproduces
/// the full sequential scan byte-for-byte.
#[allow(clippy::too_many_arguments)]
fn join_rows(
    store: &Store,
    input: &Batch,
    lo: usize,
    hi: usize,
    s: &CSlot,
    p: &CPred,
    o: &CSlot,
    out: &mut Batch,
    budget: &mut BudgetBlock<'_>,
) -> Result<(), Trip> {
    let mut overrides: Vec<(usize, EId)> = Vec::with_capacity(3);
    for r in lo..hi {
        let sa = match resolve_slot(s, input, r) {
            Some(a) => a,
            None => continue,
        };
        let oa = match resolve_slot(o, input, r) {
            Some(a) => a,
            None => continue,
        };
        let (p_fixed, p_slot) = match p {
            CPred::Const(id) => (Some(*id), None),
            CPred::Missing => continue,
            CPred::Var(slot) => {
                let v = input.get(r, *slot);
                if v == UNBOUND {
                    (None, Some(*slot))
                } else if let Some(tid) = as_store(v) {
                    (Some(tid), None)
                } else {
                    continue; // bound to a computed term: never in the store
                }
            }
        };
        for [sv, pv, ov] in store.matching(sa.id(), p_fixed, oa.id()) {
            // repeated-variable consistency (?x p ?x)
            if same_free(&sa, &oa) && sv != ov {
                continue;
            }
            overrides.clear();
            if !anchor_bind(&sa, sv, &mut overrides) || !anchor_bind(&oa, ov, &mut overrides) {
                continue;
            }
            if let Some(ps) = p_slot {
                // the predicate binding wins on slot collisions (?x ?x ?o)
                overrides.push((ps, pack_store(pv)));
            }
            budget.add_row()?;
            out.push_row_from(input, r, &overrides);
        }
    }
    Ok(())
}

/// Runtime anchor of one join position for one input row.
fn resolve_slot(c: &CSlot, input: &Batch, r: usize) -> Option<RAnchor> {
    match c {
        CSlot::Const(id) => Some(RAnchor::Fixed(*id)),
        CSlot::Missing => None,
        CSlot::Var(slot) => {
            let v = input.get(r, *slot);
            if v == UNBOUND {
                Some(RAnchor::Free(*slot))
            } else {
                // a computed (arena-local) term can never match the store
                as_store(v).map(RAnchor::BoundV)
            }
        }
    }
}

// ---- parallel hash aggregation ---------------------------------------------

/// Shared read-only context for aggregation workers.
struct ParCtx<'a> {
    store: &'a Store,
    arena: &'a TermArena,
    batch: &'a Batch,
    canon: &'a [&'a [EId]],
    specs: &'a [AggSpec],
    simple: &'a [SimpleIn],
}

/// Hash-aggregate `ctx.batch` on the morsel scheduler: workers fold their
/// morsels into per-morsel partial maps (reusing a thread-local value memo
/// across the morsels each worker happens to run), and the partials merge
/// in morsel order — morsel 0's rows precede morsel 1's, so first-seen
/// group order and each group's representative row match the sequential
/// scan exactly. Probes `intr` at every morsel boundary.
fn parallel_group(
    ctx: &ParCtx<'_>,
    workers: usize,
    n_morsels: usize,
    intr: &Interrupt,
) -> Result<Vec<GroupAcc>, Trip> {
    let rows = ctx.batch.len();
    let partials = run_morsels(
        workers,
        n_morsels,
        |_| HashMap::<EId, Value>::new(),
        |val_memo, m| {
            intr.probe()?;
            let lo = m * DEFAULT_MORSEL_ROWS;
            let hi = ((m + 1) * DEFAULT_MORSEL_ROWS).min(rows);
            Ok(morsel_group(ctx, lo, hi, val_memo))
        },
    )?;
    let mut groups: Vec<GroupAcc> = Vec::new();
    let mut index: HashMap<Vec<EId>, usize> = HashMap::new();
    for partial in partials {
        for g in partial {
            match index.get(&g.key) {
                Some(&i) => {
                    let dst = &mut groups[i];
                    for (a, b) in dst.states.iter_mut().zip(g.states) {
                        a.merge(b);
                    }
                }
                None => {
                    index.insert(g.key.clone(), groups.len());
                    groups.push(g);
                }
            }
        }
    }
    Ok(groups)
}

/// Sequential hash aggregation over one morsel's rows `[lo, hi)`. No
/// probing here — the scheduler closure probes at the morsel boundary.
fn morsel_group(
    ctx: &ParCtx<'_>,
    lo: usize,
    hi: usize,
    val_memo: &mut HashMap<EId, Value>,
) -> Vec<GroupAcc> {
    let mut groups: Vec<GroupAcc> = Vec::new();
    let mut index: HashMap<Vec<EId>, usize> = HashMap::new();
    for r in lo..hi {
        let key: Vec<EId> = ctx.canon.iter().map(|col| col[r]).collect();
        let gi = match index.get(&key) {
            Some(&i) => i,
            None => {
                index.insert(key.clone(), groups.len());
                groups.push(GroupAcc {
                    key,
                    first_row: r,
                    states: ctx.specs.iter().map(AggState::new).collect(),
                });
                groups.len() - 1
            }
        };
        for (si, input) in ctx.simple.iter().enumerate() {
            let v: Option<Value> = match input {
                SimpleIn::CountStar => Some(Value::Int(1)),
                SimpleIn::Never => None,
                SimpleIn::Slot(c) => {
                    let id = ctx.batch.get(r, *c);
                    if id == UNBOUND {
                        None
                    } else if let Some(v) = val_memo.get(&id) {
                        Some(v.clone())
                    } else {
                        let v = Value::from_term(ctx.arena.term(ctx.store, id));
                        val_memo.insert(id, v.clone());
                        Some(v)
                    }
                }
            };
            if let Some(v) = v {
                groups[gi].states[si].update(v);
            }
        }
    }
    groups
}
