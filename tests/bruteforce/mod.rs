//! A brute-force reference evaluator for the engine's SPARQL fragment: the
//! independent oracle the engine's tests compare against.
//!
//! It evaluates the parsed query by the book — solution mappings are maps
//! from variable name to term, every triple pattern scans the store's full
//! (entailed) triple list, property paths are relations closed by
//! fixpoint, and groups are folded row by row. It shares the parser's
//! syntax tree and the `Value` model with the engine, and nothing else: no
//! plan, batch, index probe, frame or expression code.
//!
//! Semantics follow the engine's documented choices where SPARQL leaves
//! room: `OPTIONAL`, `UNION` and `EXISTS` substitute the current row into
//! their pattern; `MINUS` evaluates its pattern from the empty row; a group's
//! filters apply at its end; group keys and projected terms are
//! canonicalized through `Value`. Constructs outside its scope panic rather
//! than guess.

use rdf_analytics::model::{Term, Value};
use rdf_analytics::sparql::ast::*;
use rdf_analytics::sparql::{parse_query, Solutions};
use rdf_analytics::store::Store;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One solution mapping.
type Mu = BTreeMap<String, Term>;

/// The reference evaluator over one store's entailed triples.
pub struct Oracle {
    /// Every triple, grouped by predicate.
    by_pred: HashMap<Term, Vec<(Term, Term)>>,
    /// Property-path relations computed so far, keyed by path.
    paths: RefCell<HashMap<String, BTreeSet<(Term, Term)>>>,
}

impl Oracle {
    pub fn new(store: &Store) -> Self {
        let mut by_pred: HashMap<Term, Vec<(Term, Term)>> = HashMap::new();
        for [s, p, o] in store.matching(None, None, None) {
            let pair = (store.term(s).clone(), store.term(o).clone());
            by_pred.entry(store.term(p).clone()).or_default().push(pair);
        }
        Oracle {
            by_pred,
            paths: RefCell::new(HashMap::new()),
        }
    }

    /// Answer a `SELECT` query.
    pub fn select(&self, text: &str) -> Solutions {
        match parse_query(text)
            .unwrap_or_else(|e| panic!("{e}: {text}"))
            .form
        {
            QueryForm::Select(q) => self.eval_select(&q),
            other => panic!("the oracle answers SELECT only, got {other:?}"),
        }
    }

    fn eval_select(&self, q: &SelectQuery) -> Solutions {
        let rows = self.group(&q.where_, vec![Mu::new()]);
        let items: Vec<(String, Expr)> = match &q.projection {
            Projection::Star => in_scope(&q.where_)
                .into_iter()
                .map(|v| (v.clone(), Expr::Var(v)))
                .collect(),
            Projection::Items(items) => items
                .iter()
                .map(|it| (it.alias.clone(), it.expr.clone()))
                .collect(),
        };
        let grouped = !q.group_by.is_empty()
            || items.iter().any(|(_, e)| e.has_aggregate())
            || q.having.as_ref().is_some_and(Expr::has_aggregate);
        let cell = |v: Option<Value>| v.map(|v| v.to_term());
        let mut out: Vec<Vec<Option<Term>>> = Vec::new();
        if grouped {
            let mut groups: Vec<(Vec<Option<Term>>, Vec<Mu>)> = Vec::new();
            for mu in rows {
                let key: Vec<Option<Term>> =
                    q.group_by.iter().map(|e| cell(self.expr(e, &mu))).collect();
                match groups.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, members)) => members.push(mu),
                    None => groups.push((key, vec![mu])),
                }
            }
            if groups.is_empty() && q.group_by.is_empty() {
                groups.push((Vec::new(), Vec::new()));
            }
            for (_, members) in &groups {
                let keep = q
                    .having
                    .as_ref()
                    .is_none_or(|h| ebv(self.agg_expr(h, members)));
                if keep {
                    out.push(
                        items
                            .iter()
                            .map(|(_, e)| cell(self.agg_expr(e, members)))
                            .collect(),
                    );
                }
            }
        } else {
            for mu in &rows {
                out.push(items.iter().map(|(_, e)| cell(self.expr(e, mu))).collect());
            }
        }
        let vars: Vec<String> = items.into_iter().map(|(v, _)| v).collect();
        if q.distinct {
            let mut seen = Vec::new();
            out.retain(|r| {
                let fresh = !seen.contains(r);
                if fresh {
                    seen.push(r.clone());
                }
                fresh
            });
        }
        if !q.order_by.is_empty() {
            let key = |row: &Vec<Option<Term>>, e: &Expr| {
                let mu: Mu = vars
                    .iter()
                    .zip(row)
                    .filter_map(|(v, t)| t.clone().map(|t| (v.clone(), t)))
                    .collect();
                self.expr(e, &mu)
            };
            out.sort_by(|a, b| {
                q.order_by
                    .iter()
                    .map(|spec| {
                        let ord = sort_order(&key(a, &spec.expr), &key(b, &spec.expr));
                        if spec.descending {
                            ord.reverse()
                        } else {
                            ord
                        }
                    })
                    .find(|o| *o != Ordering::Equal)
                    .unwrap_or(Ordering::Equal)
            });
        }
        let out: Vec<_> = out
            .into_iter()
            .skip(q.offset.unwrap_or(0))
            .take(q.limit.unwrap_or(usize::MAX))
            .collect();
        Solutions::new(vars, out)
    }

    /// Extend every input row through a group pattern.
    fn group(&self, g: &GroupPattern, input: Vec<Mu>) -> Vec<Mu> {
        let mut rows = input;
        let mut filters = Vec::new();
        for el in &g.elements {
            rows = match el {
                PatternElement::Triple(t) => {
                    rows.iter().flat_map(|mu| self.triple(t, mu)).collect()
                }
                PatternElement::Filter(e) => {
                    filters.push(e);
                    rows
                }
                PatternElement::Optional(inner) => rows
                    .into_iter()
                    .flat_map(|mu| {
                        let ext = self.group(inner, vec![mu.clone()]);
                        if ext.is_empty() {
                            vec![mu]
                        } else {
                            ext
                        }
                    })
                    .collect(),
                PatternElement::Union(arms) => arms
                    .iter()
                    .flat_map(|arm| self.group(arm, rows.clone()))
                    .collect(),
                PatternElement::Group(inner) => self.group(inner, rows),
                PatternElement::Bind(e, v) => rows
                    .into_iter()
                    .map(|mut mu| {
                        match self.expr(e, &mu) {
                            Some(val) => mu.insert(v.clone(), val.to_term()),
                            None => mu.remove(v),
                        };
                        mu
                    })
                    .collect(),
                PatternElement::Values(vars, data) => {
                    let table: Vec<Mu> = data
                        .iter()
                        .map(|tuple| {
                            vars.iter()
                                .zip(tuple)
                                .filter_map(|(v, t)| t.clone().map(|t| (v.clone(), t)))
                                .collect()
                        })
                        .collect();
                    join(&rows, &table)
                }
                PatternElement::SubSelect(sub) => {
                    let sols = self.eval_select(sub);
                    let table: Vec<Mu> = sols
                        .rows()
                        .iter()
                        .map(|row| {
                            sols.vars()
                                .iter()
                                .zip(row)
                                .filter_map(|(v, t)| t.clone().map(|t| (v.clone(), t)))
                                .collect()
                        })
                        .collect();
                    join(&rows, &table)
                }
                PatternElement::Minus(inner) => {
                    let right = self.group(inner, vec![Mu::new()]);
                    rows.into_iter()
                        .filter(|mu| {
                            !right
                                .iter()
                                .any(|r| compatible(mu, r) && r.keys().any(|k| mu.contains_key(k)))
                        })
                        .collect()
                }
            };
        }
        rows.retain(|mu| filters.iter().all(|f| ebv(self.expr(f, mu))));
        rows
    }

    /// Extend one row through one triple pattern.
    fn triple(&self, t: &TriplePattern, mu: &Mu) -> Vec<Mu> {
        let candidates: Vec<(Term, Option<Term>, Term)> = match &t.predicate {
            PathOrVar::Var(_) => self
                .by_pred
                .iter()
                .flat_map(|(p, pairs)| {
                    pairs
                        .iter()
                        .map(|(s, o)| (s.clone(), Some(p.clone()), o.clone()))
                })
                .collect(),
            PathOrVar::Path(path) => self
                .relation(path)
                .into_iter()
                .map(|(s, o)| (s, None, o))
                .collect(),
        };
        let mut out = Vec::new();
        for (s, p, o) in candidates {
            let mut ext = mu.clone();
            let ok = bind(&mut ext, &t.subject, s)
                && bind(&mut ext, &t.object, o)
                && match (&t.predicate, p) {
                    (PathOrVar::Var(v), Some(p)) => bind(&mut ext, &TermPattern::Var(v.clone()), p),
                    _ => true,
                };
            if ok {
                out.push(ext);
            }
        }
        out
    }

    /// The `(start, end)` pairs a property path connects.
    fn relation(&self, path: &PropertyPath) -> BTreeSet<(Term, Term)> {
        let key = format!("{path:?}");
        if let Some(rel) = self.paths.borrow().get(&key) {
            return rel.clone();
        }
        let rel: BTreeSet<(Term, Term)> = match path {
            PropertyPath::Iri(iri) => self
                .by_pred
                .get(&Term::iri(iri.clone()))
                .into_iter()
                .flatten()
                .cloned()
                .collect(),
            PropertyPath::Inverse(x) => self.relation(x).into_iter().map(|(a, b)| (b, a)).collect(),
            PropertyPath::Sequence(a, b) => {
                let right = self.relation(b);
                let mut out = BTreeSet::new();
                for (x, mid) in self.relation(a) {
                    for (m, y) in &right {
                        if *m == mid {
                            out.insert((x.clone(), y.clone()));
                        }
                    }
                }
                out
            }
            PropertyPath::Alternative(a, b) => self
                .relation(a)
                .into_iter()
                .chain(self.relation(b))
                .collect(),
            PropertyPath::OneOrMore(x) => {
                let step = self.relation(x);
                let mut closure = step.clone();
                loop {
                    let mut next = closure.clone();
                    for (a, m) in &closure {
                        for (m2, b) in &step {
                            if m == m2 {
                                next.insert((a.clone(), b.clone()));
                            }
                        }
                    }
                    if next.len() == closure.len() {
                        break closure;
                    }
                    closure = next;
                }
            }
            other => panic!("the oracle does not cover the path {other:?}"),
        };
        self.paths.borrow_mut().insert(key, rel.clone());
        rel
    }

    /// Evaluate an expression on one row; `None` is an expression error.
    fn expr(&self, e: &Expr, mu: &Mu) -> Option<Value> {
        self.eval(e, mu, None)
    }

    /// Evaluate a projection or `HAVING` expression over one group: an
    /// aggregate folds the group's rows, anything else reads its first row.
    fn agg_expr(&self, e: &Expr, group: &[Mu]) -> Option<Value> {
        let empty = Mu::new();
        self.eval(e, group.first().unwrap_or(&empty), Some(group))
    }

    fn eval(&self, e: &Expr, mu: &Mu, group: Option<&[Mu]>) -> Option<Value> {
        let val = |x: &Expr| self.eval(x, mu, group);
        let bool_of = |x: &Expr| val(x).and_then(|v| v.effective_boolean());
        match e {
            Expr::Var(v) => mu.get(v).map(Value::from_term),
            Expr::Const(t) => Some(Value::from_term(t)),
            Expr::Or(a, b) => match (bool_of(a), bool_of(b)) {
                (Some(true), _) | (_, Some(true)) => Some(Value::Bool(true)),
                (Some(false), Some(false)) => Some(Value::Bool(false)),
                _ => None,
            },
            Expr::And(a, b) => match (bool_of(a), bool_of(b)) {
                (Some(false), _) | (_, Some(false)) => Some(Value::Bool(false)),
                (Some(true), Some(true)) => Some(Value::Bool(true)),
                _ => None,
            },
            Expr::Not(x) => Some(Value::Bool(!bool_of(x)?)),
            Expr::Compare(a, op, b) => compare(val(a)?, *op, val(b)?),
            Expr::Arith(a, op, b) => arith(val(a)?, *op, val(b)?),
            Expr::Neg(x) => Value::Int(0).sub(&val(x)?),
            Expr::In(x, list, negated) => {
                let v = val(x)?;
                let found = list.iter().any(|i| val(i).is_some_and(|w| v.value_eq(&w)));
                Some(Value::Bool(found != *negated))
            }
            Expr::Call(name, args) => match (name.as_str(), args.as_slice()) {
                ("BOUND", [Expr::Var(v)]) => Some(Value::Bool(mu.contains_key(v))),
                ("IF", [c, a, b]) => val(if bool_of(c)? { a } else { b }),
                ("COALESCE", list) => list.iter().find_map(val),
                _ => panic!("the oracle does not cover {name}"),
            },
            Expr::Exists(g, negated) => Some(Value::Bool(
                self.group(g, vec![mu.clone()]).is_empty() == *negated,
            )),
            Expr::Aggregate(op, distinct, inner) => {
                let mut values: Vec<Value> = group?
                    .iter()
                    .filter_map(|row| match inner {
                        None => Some(Value::Int(1)),
                        Some(x) => self.expr(x, row),
                    })
                    .collect();
                if *distinct {
                    let mut seen = Vec::new();
                    values.retain(|v| {
                        let t = v.to_term();
                        let fresh = !seen.contains(&t);
                        seen.push(t);
                        fresh
                    });
                }
                fold(*op, values)
            }
        }
    }
}

/// Bind a pattern position to a term, checking an existing binding.
fn bind(mu: &mut Mu, pos: &TermPattern, value: Term) -> bool {
    match pos {
        TermPattern::Term(t) => *t == value,
        TermPattern::Var(v) => match mu.get(v) {
            Some(existing) => *existing == value,
            None => {
                mu.insert(v.clone(), value);
                true
            }
        },
    }
}

/// Two mappings agree on every variable they share.
fn compatible(a: &Mu, b: &Mu) -> bool {
    a.iter().all(|(k, v)| b.get(k).is_none_or(|w| w == v))
}

/// Every compatible pair of a row and a table row, merged; rows outer.
fn join(rows: &[Mu], table: &[Mu]) -> Vec<Mu> {
    let mut out = Vec::new();
    for mu in rows {
        for t in table.iter().filter(|t| compatible(mu, t)) {
            let mut merged = mu.clone();
            merged.extend(t.clone());
            out.push(merged);
        }
    }
    out
}

/// The variables a `SELECT *` projects, in document order: those bound by
/// triple patterns, `BIND`, `VALUES` and sub-selects, nested groups
/// included, but not by `FILTER`, `MINUS` or `EXISTS` patterns.
fn in_scope(g: &GroupPattern) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut add = |v: &str| {
        if !out.iter().any(|n| n == v) {
            out.push(v.to_owned());
        }
    };
    for el in &g.elements {
        match el {
            PatternElement::Triple(t) => {
                let p = match &t.predicate {
                    PathOrVar::Var(v) => Some(v.as_str()),
                    PathOrVar::Path(_) => None,
                };
                [t.subject.as_var(), p, t.object.as_var()]
                    .into_iter()
                    .flatten()
                    .for_each(&mut add);
            }
            PatternElement::Optional(inner) | PatternElement::Group(inner) => {
                in_scope(inner).iter().for_each(|v| add(v))
            }
            PatternElement::Union(arms) => arms.iter().flat_map(in_scope).for_each(|v| add(&v)),
            PatternElement::Bind(_, v) => add(v),
            PatternElement::Values(vars, _) => vars.iter().for_each(|v| add(v)),
            PatternElement::SubSelect(sub) => match &sub.projection {
                Projection::Items(items) => items.iter().for_each(|it| add(&it.alias)),
                Projection::Star => in_scope(&sub.where_).iter().for_each(|v| add(v)),
            },
            PatternElement::Filter(_) | PatternElement::Minus(_) => {}
        }
    }
    out
}

fn ebv(v: Option<Value>) -> bool {
    v.and_then(|v| v.effective_boolean()).unwrap_or(false)
}

fn compare(a: Value, op: CompareOp, b: Value) -> Option<Value> {
    let holds = match op {
        CompareOp::Eq => a.value_eq(&b),
        CompareOp::Ne => !a.value_eq(&b),
        CompareOp::Lt => a.compare(&b)? == Ordering::Less,
        CompareOp::Le => a.compare(&b)? != Ordering::Greater,
        CompareOp::Gt => a.compare(&b)? == Ordering::Greater,
        CompareOp::Ge => a.compare(&b)? != Ordering::Less,
    };
    Some(Value::Bool(holds))
}

fn arith(a: Value, op: ArithOp, b: Value) -> Option<Value> {
    match op {
        ArithOp::Add => a.add(&b),
        ArithOp::Sub => a.sub(&b),
        ArithOp::Mul => a.mul(&b),
        ArithOp::Div => a.div(&b),
    }
}

/// The aggregate of a value list. MIN and MAX keep the first of equal or
/// incomparable values; a failed addition makes SUM and AVG unbound.
fn fold(op: AggregateOp, values: Vec<Value>) -> Option<Value> {
    let sum = |vals: &[Value]| vals.iter().try_fold(Value::Int(0), |acc, v| acc.add(v));
    let pick = |keep: Ordering| {
        values.iter().fold(None::<&Value>, |best, v| match best {
            Some(b) if v.compare(b) != Some(keep) => Some(b),
            _ => Some(v),
        })
    };
    match op {
        AggregateOp::Count => Some(Value::Int(values.len() as i64)),
        AggregateOp::Sum => sum(&values),
        AggregateOp::Avg if values.is_empty() => None,
        AggregateOp::Avg => sum(&values)?.div(&Value::Int(values.len() as i64)),
        AggregateOp::Min => pick(Ordering::Less).cloned(),
        AggregateOp::Max => pick(Ordering::Greater).cloned(),
        other => panic!("the oracle does not cover {other:?}"),
    }
}

/// ORDER BY's total order: unbound < blank < IRI < literal by value, with
/// incomparable literals ordered by their rendering.
fn sort_order(a: &Option<Value>, b: &Option<Value>) -> Ordering {
    let rank = |v: &Option<Value>| match v {
        None => 0,
        Some(Value::Blank(_)) => 1,
        Some(Value::Iri(_)) => 2,
        Some(_) => 3,
    };
    rank(a).cmp(&rank(b)).then_with(|| match (a, b) {
        (Some(x), Some(y)) => x.compare(y).unwrap_or_else(|| x.render().cmp(&y.render())),
        _ => Ordering::Equal,
    })
}
