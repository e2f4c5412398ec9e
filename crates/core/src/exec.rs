//! Bottom-up plan evaluation.
//!
//! Plans are checked for safety, then evaluated by materializing each node
//! — the "efficient bottom-up evaluation strategy" of §2.2 in its simplest
//! correct form. Whole-feature operators evaluate against the catalog's
//! spatial relations and produce ordinary (finite, relational) relations
//! keyed by feature IDs, as §4 prescribes.
//!
//! Evaluation is parameterized by [`ExecOptions`]: the tuple-level
//! operators run on the deterministic chunked executor (output identical
//! for every thread count) and consult the conservative bounding-box
//! filter before exact constraint arithmetic. Base-relation scans are
//! borrowed from the catalog (`Cow`), not cloned, so a scan feeding an
//! operator costs nothing.
//!
//! Tracing and plain execution share **one** evaluator: [`eval`] takes an
//! optional trace sink, so the traced path makes exactly the physical
//! choices (index-assisted selection included) the untraced path makes —
//! `EXPLAIN ANALYZE` reports the plan that actually runs. Per-run totals
//! flush into the global `cqa-obs` metrics registry at run end.

use std::borrow::Cow;
use std::time::{Duration, Instant};

use crate::catalog::Catalog;
use crate::error::{CoreError, Result};
use crate::ops;
use crate::par::{CounterDef, ExecOptions, ExecStats, COUNTERS};
use crate::plan::Plan;
use crate::relation::HRelation;
use crate::safety;
use crate::schema::{AttrDef, Schema};
use crate::tuple::Tuple;
use crate::value::Value;
use cqa_num::par::Cancelled;

/// Evaluates a plan against a catalog with default [`ExecOptions`]
/// (after a safety check).
pub fn execute(plan: &Plan, catalog: &Catalog) -> Result<HRelation> {
    execute_opts(plan, catalog, &ExecOptions::default(), &ExecStats::new())
}

/// Evaluates a plan with explicit execution options; evaluation counters
/// (filter hits, FM calls/peak, index probes, join pairs, DNF growth)
/// accumulate into `stats` across the whole plan.
///
/// The run is governed: the governor in `opts` is armed (deadline reset,
/// token lowered) before evaluation, operators poll its token between
/// chunks, and budget trips surface as typed errors. A run that fails
/// mid-way returns `Err` with **no** partial output — callers registering
/// results only on `Ok` observe all-or-nothing semantics.
pub fn execute_opts(
    plan: &Plan,
    catalog: &Catalog,
    opts: &ExecOptions,
    stats: &ExecStats,
) -> Result<HRelation> {
    run(plan, catalog, opts, stats, false).map(|(rel, _)| rel)
}

/// [`execute_opts`], also producing a per-node trace (row counts,
/// self-times, filter hit rates, index accesses) — the data behind the
/// `EXPLAIN ANALYZE` of the CQA layer.
///
/// The traced evaluator **is** the plain evaluator with a trace sink
/// attached: physical choices (index-assisted selection included),
/// results, and the counters absorbed into `stats` are identical.
pub fn execute_traced_opts(
    plan: &Plan,
    catalog: &Catalog,
    opts: &ExecOptions,
    stats: &ExecStats,
) -> Result<(HRelation, TraceNode)> {
    let (rel, trace) = run(plan, catalog, opts, stats, true)?;
    Ok((rel, trace.expect("traced eval pushes exactly one root")))
}

/// The one run body behind both entry points: safety check, arm the
/// governor, evaluate, then absorb the run's counters into `stats` and
/// report the run through [`QueryTelemetry::finish`].
fn run(
    plan: &Plan,
    catalog: &Catalog,
    opts: &ExecOptions,
    stats: &ExecStats,
    traced: bool,
) -> Result<(HRelation, Option<TraceNode>)> {
    safety::check(plan)?;
    opts.governor.arm();
    let tel = QueryTelemetry::start(plan);
    let run = ExecStats::new();
    let mut roots: Vec<TraceNode> = Vec::new();
    match eval(plan, catalog, opts, &run, traced.then_some(&mut roots)) {
        Ok(rel) => {
            let rel = rel.into_owned();
            stats.absorb(&run);
            let trace = roots.pop();
            tel.finish(&run, opts, Ok((rel.len() as u64, trace.as_ref())));
            Ok((rel, trace))
        }
        Err(e) => {
            tel.finish(&run, opts, Err(&e));
            Err(e)
        }
    }
}

/// Per-node evaluation statistics, mirroring the plan tree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceNode {
    /// Operator label, including the physical choice (e.g. `Scan R`,
    /// `Select`, `Select (index [x, y])`, `Join`).
    pub label: String,
    /// Number of (syntactic) tuples this node produced.
    pub rows: usize,
    /// Wall-clock time spent in this node, *excluding* its children.
    pub elapsed: Duration,
    /// Candidate pairs/tuples checked by this node's bounding-box filter.
    pub filter_checked: u64,
    /// How many of those the filter rejected before exact arithmetic.
    pub filter_rejected: u64,
    /// Peak intermediate Fourier–Motzkin atom count inside this node.
    pub fm_peak_atoms: u64,
    /// Fourier–Motzkin elimination runs performed inside this node.
    pub fm_calls: u64,
    /// R*-tree nodes visited by index-assisted selection in this node.
    pub index_accesses: u64,
    /// Join candidate pairs enumerated (after hash pre-bucketing).
    pub pairs_enumerated: u64,
    /// Conjunctions built by DNF negation expansion in this node.
    pub dnf_conjunctions: u64,
    /// Child traces in plan order.
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    fn from_stats(
        label: String,
        rows: usize,
        elapsed: Duration,
        stats: &ExecStats,
        children: Vec<TraceNode>,
    ) -> TraceNode {
        let mut node = TraceNode { label, rows, elapsed, children, ..TraceNode::default() };
        for (def, value) in stats.rows() {
            if let Some(field) = &def.node {
                *(field.get_mut)(&mut node) = value;
            }
        }
        node
    }

    /// This node's counters in table order: each row with its key and
    /// value.
    fn counters(&self) -> impl Iterator<Item = (&'static CounterDef, &'static str, u64)> + '_ {
        COUNTERS
            .iter()
            .filter_map(move |def| def.node.as_ref().map(|f| (def, f.key, (f.get)(self))))
    }

    /// Rows flowing *into* this node: what its candidate pool was. For a
    /// join that is the enumerated pair count; otherwise the children's
    /// row counts summed.
    pub fn input_rows(&self) -> u64 {
        if self.pairs_enumerated > 0 {
            self.pairs_enumerated
        } else {
            self.children.iter().map(|c| c.rows as u64).sum()
        }
    }

    /// Output rows over input candidates, when the node has input.
    pub fn selectivity(&self) -> Option<f64> {
        let input = self.input_rows();
        (input > 0 && !self.children.is_empty() || self.pairs_enumerated > 0)
            .then(|| self.rows as f64 / input.max(1) as f64)
    }

    fn fmt_tree(&self, f: &mut std::fmt::Formatter<'_>, depth: usize) -> std::fmt::Result {
        let indent = "  ".repeat(depth);
        write!(f, "{}{}  [{} row(s), {:.2?}", indent, self.label, self.rows, self.elapsed)?;
        if let Some(sel) = self.selectivity() {
            write!(f, ", selectivity {:.1}%", sel * 100.0)?;
        }
        if self.pairs_enumerated > 0 {
            write!(f, ", {} pair(s) enumerated", self.pairs_enumerated)?;
        }
        if self.filter_checked > 0 {
            write!(f, ", bbox filter {}/{} rejected", self.filter_rejected, self.filter_checked)?;
        }
        if self.index_accesses > 0 {
            write!(f, ", {} index node(s) accessed", self.index_accesses)?;
        }
        if self.fm_calls > 0 {
            write!(f, ", fm {} call(s) peak {} atom(s)", self.fm_calls, self.fm_peak_atoms)?;
        }
        if self.dnf_conjunctions > 0 {
            write!(f, ", dnf {} conjunction(s) built", self.dnf_conjunctions)?;
        }
        writeln!(f, "]")?;
        for c in &self.children {
            c.fmt_tree(f, depth + 1)?;
        }
        Ok(())
    }

    /// Canonical identity of the whole trace, excluding wall time — two
    /// runs of the same workload produce identical identities regardless
    /// of thread count.
    pub fn identity(&self) -> String {
        let mut out = String::new();
        self.identity_into(&mut out, 0);
        out
    }

    fn identity_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write as _;
        let _ = write!(out, "{}{} rows={}", "  ".repeat(depth), self.label, self.rows);
        for (_, key, value) in self.counters() {
            let _ = write!(out, " {}={}", key, value);
        }
        out.push('\n');
        for c in &self.children {
            c.identity_into(out, depth + 1);
        }
    }

    /// Machine-readable span tree (the `\trace json` payload).
    pub fn to_json(&self) -> cqa_obs::json::Json {
        use cqa_obs::json::Json;
        let counters = self.counters().map(|(_, k, v)| (k.to_string(), Json::from_u64(v)));
        Json::Obj(vec![
            ("label".into(), Json::str(self.label.clone())),
            ("rows".into(), Json::from_u64(self.rows as u64)),
            ("elapsed_ns".into(), Json::from_u64(self.elapsed.as_nanos() as u64)),
            ("counters".into(), Json::Obj(counters.collect())),
            ("children".into(), Json::Arr(self.children.iter().map(|c| c.to_json()).collect())),
        ])
    }

    fn fold<A>(&self, acc: A, f: &impl Fn(A, &TraceNode) -> A) -> A {
        let mut acc = f(acc, self);
        for c in &self.children {
            acc = c.fold(acc, f);
        }
        acc
    }
}

/// The annotated plan tree: per-node wall time, row counts, selectivity,
/// filter hit rates, index node accesses, FM and DNF work.
impl std::fmt::Display for TraceNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.fmt_tree(f, 0)
    }
}

/// Renders a completed trace as `EXPLAIN ANALYZE` text: the annotated
/// plan tree (the trace's `Display` form) followed by run totals and
/// governor budget headroom.
pub fn render_explain_analyze(trace: &TraceNode, opts: &ExecOptions) -> String {
    use std::fmt::Write as _;
    let mut out = trace.to_string();
    let total: Duration = trace.fold(Duration::ZERO, &|acc, n| acc + n.elapsed);
    let fm_peak = trace.fold(0u64, &|acc, n| acc.max(n.fm_peak_atoms));
    let fm_calls = trace.fold(0u64, &|acc, n| acc + n.fm_calls);
    let dnf = trace.fold(0u64, &|acc, n| acc + n.dnf_conjunctions);
    let _ = writeln!(out, "totals: {:.2?} wall, {} fm call(s)", total, fm_calls);
    let g = &opts.governor;
    let headroom = |used: u64, limit: Option<u64>| match limit {
        Some(l) => format!("{}/{} ({}% headroom)", used, l, 100u64.saturating_sub(used * 100 / l.max(1))),
        None => format!("{}/unlimited", used),
    };
    let _ = writeln!(
        out,
        "governor: {} check(s); fm atoms {}; dnf conjunctions {}; output tuples {}",
        g.checks(),
        headroom(fm_peak, g.budgets.max_fm_atoms),
        headroom(dnf, g.budgets.max_dnf_conjunctions),
        headroom(trace.rows as u64, g.budgets.max_output_tuples),
    );
    out
}

/// Per-query telemetry: the run's counters into the global registry,
/// latency into the `exec.query.latency_us` timing histogram,
/// `query_start`/`query_finish` event-log records, and flight-recorder
/// context + abort dumps.
///
/// Everything is gated on the global switches ([`cqa_obs::metrics_enabled`]
/// as the master, plus the event log's and flight recorder's own installed
/// flags), so an unconfigured process pays a few relaxed loads per query
/// and never renders the plan. Event-log emission is tied to the metrics
/// switch on purpose: "metrics off" is the measured disabled-path
/// configuration, and it must disable the whole enabled path.
struct QueryTelemetry {
    t0: Instant,
    /// Correlation id shared by this query's start and finish events.
    seq: u64,
    /// FNV-1a hash of the rendered plan (stable across runs).
    hash: u64,
    logging: bool,
    flight: bool,
}

impl QueryTelemetry {
    fn start(plan: &Plan) -> QueryTelemetry {
        use cqa_obs::json::Json;
        let logging = cqa_obs::metrics_enabled() && cqa_obs::eventlog::enabled();
        let flight = cqa_obs::flight::installed();
        let mut tel = QueryTelemetry { t0: Instant::now(), seq: 0, hash: 0, logging, flight };
        if !(logging || flight) {
            return tel;
        }
        let text = plan.to_string();
        tel.hash = cqa_obs::fnv1a(text.as_bytes());
        if flight {
            // The dump's "which query was active" payload: the rendered
            // plan tree, replaced at every query start.
            cqa_obs::flight::set_context("active_query", Json::str(text));
        }
        if logging {
            tel.seq = cqa_obs::eventlog::next_seq();
            cqa_obs::eventlog::emit(&Json::Obj(vec![
                ("event".into(), Json::str("query_start")),
                ("seq".into(), Json::from_u64(tel.seq)),
                ("ts_ms".into(), Json::from_u64(cqa_obs::eventlog::now_ms())),
                ("query_hash".into(), Json::str(format!("{:016x}", tel.hash))),
            ]));
        }
        tel
    }

    /// Everything reported at run end. A successful run (`Ok` carries its
    /// output rows and trace) mirrors its counters into the global
    /// registry, plus run count, output rows and governor checks. Every
    /// run then records its latency and its `query_finish` event; a
    /// governor abort also dumps the flight recorder.
    fn finish(
        &self,
        run: &ExecStats,
        opts: &ExecOptions,
        outcome: std::result::Result<(u64, Option<&TraceNode>), &CoreError>,
    ) {
        use cqa_obs::json::Json;
        if let Ok((rows, _)) = outcome {
            run.flush_global();
            if cqa_obs::metrics_enabled() {
                struct RunMetrics {
                    runs: &'static cqa_obs::Counter,
                    rows_out: &'static cqa_obs::Counter,
                    governor_checks: &'static cqa_obs::Counter,
                }
                static M: std::sync::OnceLock<RunMetrics> = std::sync::OnceLock::new();
                let m = M.get_or_init(|| RunMetrics {
                    runs: cqa_obs::counter("exec.runs"),
                    rows_out: cqa_obs::counter("exec.rows_out"),
                    governor_checks: cqa_obs::counter("governor.checks"),
                });
                m.runs.inc();
                m.rows_out.add(rows);
                m.governor_checks.add(opts.governor.checks());
            }
        }
        let latency_us = self.t0.elapsed().as_micros() as u64;
        if cqa_obs::metrics_enabled() {
            static H: std::sync::OnceLock<&'static cqa_obs::Histogram> = std::sync::OnceLock::new();
            H.get_or_init(|| cqa_obs::timing_histogram("exec.query.latency_us")).record(latency_us);
        }
        if let Err(e) = outcome {
            if self.flight && e.is_governor_abort() {
                cqa_obs::flight::record_abort(&format!("governor abort: {}", e));
            }
        }
        if !self.logging {
            return;
        }
        let (outcome, (rows, trace)) = match outcome {
            Ok(done) => ("ok", done),
            Err(e) => (e.outcome(), (0, None)),
        };
        let lim = |l: Option<u64>| l.map(Json::from_u64).unwrap_or(Json::Null);
        let b = &opts.governor.budgets;
        let mut governor = vec![("checks".into(), Json::from_u64(opts.governor.checks()))];
        for (def, value) in run.rows() {
            if let (Some(field), Some((max_key, limit))) = (&def.node, def.budget) {
                governor.push((field.key.into(), Json::from_u64(value)));
                governor.push((max_key.into(), lim(limit(b))));
            }
        }
        governor.push(("output_tuples".into(), Json::from_u64(rows)));
        governor.push(("max_output_tuples".into(), lim(b.max_output_tuples)));
        let mut fields = vec![
            ("event".into(), Json::str("query_finish")),
            ("seq".into(), Json::from_u64(self.seq)),
            ("ts_ms".into(), Json::from_u64(cqa_obs::eventlog::now_ms())),
            ("query_hash".into(), Json::str(format!("{:016x}", self.hash))),
            ("outcome".into(), Json::str(outcome)),
            ("latency_us".into(), Json::from_u64(latency_us)),
            ("rows".into(), Json::from_u64(rows)),
            ("governor".into(), Json::Obj(governor)),
        ];
        if let Some(t) = trace {
            // Pre-order, one entry per node: label, rows, selectivity.
            let nodes = t.fold(Vec::new(), &|mut nodes, n| {
                nodes.push(Json::Obj(vec![
                    ("label".into(), Json::str(n.label.clone())),
                    ("rows".into(), Json::from_u64(n.rows as u64)),
                    ("selectivity".into(), n.selectivity().map(Json::Num).unwrap_or(Json::Null)),
                ]));
                nodes
            });
            fields.push(("nodes".into(), Json::Arr(nodes)));
        }
        cqa_obs::eventlog::emit(&Json::Obj(fields));
    }
}

/// The one evaluator. With `trace == None` this is plain evaluation:
/// operators record into `stats` directly. With `trace == Some(sink)`
/// each node runs against a fresh node-local counter set (absorbed into
/// `stats` afterwards, so run totals match the untraced path), is timed,
/// and pushes its [`TraceNode`] — children first, then itself — into the
/// sink. Physical plan choices are made before the mode is consulted, so
/// they cannot diverge.
fn eval<'a>(
    plan: &Plan,
    catalog: &'a Catalog,
    opts: &ExecOptions,
    stats: &ExecStats,
    trace: Option<&mut Vec<TraceNode>>,
) -> Result<Cow<'a, HRelation>> {
    let Some(parent) = trace else {
        let (_label, _elapsed, rel) = eval_node(plan, catalog, opts, stats, stats, None)?;
        // Every node — scans included — answers to the output-tuple
        // budget: a governed run bounds its intermediates wherever they
        // arise.
        opts.governor.guard_output(rel.len())?;
        return Ok(rel);
    };
    let node_stats = ExecStats::new();
    let mut children: Vec<TraceNode> = Vec::new();
    let (label, elapsed, rel) =
        eval_node(plan, catalog, opts, &node_stats, stats, Some(&mut children))?;
    let rows = rel.len();
    opts.governor.guard_output(rows)?;
    stats.absorb(&node_stats);
    let node = TraceNode::from_stats(label, rows, elapsed, &node_stats, children);
    if cqa_obs::spans_enabled() {
        let counters = node.counters().filter(|(def, _, _)| def.span).map(|(_, k, v)| (k, v));
        cqa_obs::record_span(
            "exec.node",
            node.label.clone(),
            node.elapsed.as_nanos() as u64,
            std::iter::once(("rows", node.rows as u64)).chain(counters).collect(),
        );
    }
    parent.push(node);
    Ok(rel)
}

/// Evaluates one node: children recurse through [`eval`] (recording into
/// `child_stats` / `children_out`), the node's own operator records into
/// `op_stats`. Returns the label, the node's self-time (children
/// excluded), and the result.
fn eval_node<'a>(
    plan: &Plan,
    catalog: &'a Catalog,
    opts: &ExecOptions,
    op_stats: &ExecStats,
    child_stats: &ExecStats,
    mut children_out: Option<&mut Vec<TraceNode>>,
) -> Result<(String, Duration, Cow<'a, HRelation>)> {
    // Index-assisted selection over a base relation: decided here, before
    // the trace mode is consulted, so traced and untraced runs make the
    // same physical choice.
    if let Plan::Select { input, selection } = plan {
        if let Plan::Scan(name) = input.as_ref() {
            let t0 = Instant::now();
            let indexed = try_index_select(catalog, name, selection, opts, op_stats)?;
            if let Some((result, via)) = indexed {
                let elapsed = t0.elapsed();
                if let Some(out) = children_out {
                    // The scan child is never materialized on this path;
                    // synthesize its node so the trace still mirrors the
                    // logical plan.
                    out.push(TraceNode {
                        label: format!("Scan {}", name),
                        rows: catalog.get(name)?.len(),
                        ..TraceNode::default()
                    });
                }
                return Ok((format!("Select (index [{}])", via), elapsed, Cow::Owned(result)));
            }
        }
    }
    // Children first, in plan order; their time is their own.
    let inputs: Vec<&Plan> = match plan {
        Plan::Select { input, .. } | Plan::Project { input, .. } | Plan::Rename { input, .. } => {
            vec![input]
        }
        Plan::Join { left, right }
        | Plan::Union { left, right }
        | Plan::Difference { left, right } => vec![left, right],
        _ => Vec::new(),
    };
    let mut rels = Vec::with_capacity(inputs.len());
    for input in inputs {
        rels.push(eval(input, catalog, opts, child_stats, children_out.as_deref_mut())?);
    }
    let t0 = Instant::now();
    let (label, out) = match plan {
        Plan::Scan(name) => (format!("Scan {}", name), Cow::Borrowed(catalog.get(name)?)),
        Plan::SpatialScan(name) => {
            let rel = crate::spatial_bridge::spatial_to_hrelation(catalog.get_spatial(name)?)?;
            (format!("SpatialScan {}", name), Cow::Owned(rel))
        }
        Plan::Select { selection, .. } => {
            let out = ops::select_opts(&rels[0], selection, opts, op_stats)?;
            ("Select".to_string(), Cow::Owned(out))
        }
        Plan::Project { attrs, .. } => {
            let out = ops::project_opts(&rels[0], attrs, opts, op_stats)?;
            (format!("Project on {}", attrs.join(", ")), Cow::Owned(out))
        }
        Plan::Join { .. } => {
            ("Join".to_string(), Cow::Owned(ops::join_opts(&rels[0], &rels[1], opts, op_stats)?))
        }
        Plan::Union { .. } => ("Union".to_string(), Cow::Owned(ops::union(&rels[0], &rels[1])?)),
        Plan::Difference { .. } => {
            let out = ops::difference_opts(&rels[0], &rels[1], opts, op_stats)?;
            ("Difference".to_string(), Cow::Owned(out))
        }
        Plan::Rename { from, to, .. } => {
            (format!("Rename {} -> {}", from, to), Cow::Owned(ops::rename(&rels[0], from, to)?))
        }
        Plan::BufferJoin { left, right, distance } => {
            let g = &opts.governor;
            // The R*-tree accesses stay out of `index_accesses`, which
            // counts index-assisted selection only.
            let (pairs, _accesses) = cqa_spatial::ops::buffer_join(
                catalog.get_spatial(left)?,
                catalog.get_spatial(right)?,
                distance,
                opts.effective_threads(),
                Some(g.token()),
                || g.check().map_err(|_| Cancelled),
            )
            .map_err(|_| g.interrupt_error())?;
            (format!("BufferJoin {} and {}", left, right), Cow::Owned(id_pairs_relation(pairs)))
        }
        Plan::KNearest { left, right, k } => {
            let g = &opts.governor;
            let pairs = cqa_spatial::ops::k_nearest(
                catalog.get_spatial(left)?,
                catalog.get_spatial(right)?,
                *k,
                opts.effective_threads(),
                Some(g.token()),
                || g.check().map_err(|_| Cancelled),
            )
            .map_err(|_| g.interrupt_error())?;
            let out = Cow::Owned(id_pairs_relation(pairs));
            (format!("KNearest {} and {} k {}", left, right, k), out)
        }
        Plan::Distance { .. } => unreachable!("rejected by the safety check"),
    };
    Ok((label, t0.elapsed(), out))
}

/// Index-assisted selection over a base relation (the "through the use of
/// indexing" half of §1.1's optimization story): when the scanned relation
/// has an index whose attributes the selection bounds, probe it for
/// candidate tuples and run the exact selection only on those. Returns
/// `None` when no index applies; the result, when `Some`, is identical to
/// the unindexed path (the filter is conservative, the refinement exact)
/// and comes with a label describing the physical choice.
fn try_index_select(
    catalog: &Catalog,
    name: &str,
    selection: &crate::plan::Selection,
    opts: &ExecOptions,
    stats: &ExecStats,
) -> Result<Option<(HRelation, String)>> {
    use crate::plan::{CmpOp, Predicate};
    let rel = catalog.get(name)?;
    let indexes = catalog.indexes(name);
    if indexes.is_empty() || rel.is_empty() {
        return Ok(None);
    }
    // Surface validation errors exactly as the unindexed path would.
    ops::select::validate(rel.schema(), selection)?;

    // Per-attribute f64 bounds from single-attribute linear predicates.
    // Bounds are *widened* slightly: float rounding must never exclude a
    // true match (the refinement re-checks exactly).
    let mut bounds: std::collections::BTreeMap<&str, (f64, f64)> = Default::default();
    for pred in selection.predicates() {
        let Predicate::Linear { terms, constant, op } = pred else { continue };
        if terms.len() != 1 {
            continue;
        }
        let (attr, coeff) = (&terms[0].0, &terms[0].1);
        if coeff.is_zero() {
            continue;
        }
        // c·a + k op 0  ⇔  a op' −k/c, comparison flipping with c's sign.
        let bound = (-(constant) / coeff).to_f64();
        let eps = 1e-9 * (1.0 + bound.abs());
        let upper = matches!(
            (op, coeff.is_positive()),
            (CmpOp::Le | CmpOp::Lt, true) | (CmpOp::Ge | CmpOp::Gt, false)
        );
        let lower = matches!(
            (op, coeff.is_positive()),
            (CmpOp::Ge | CmpOp::Gt, true) | (CmpOp::Le | CmpOp::Lt, false)
        );
        if *op != CmpOp::Eq && !upper && !lower {
            continue; // e.g. <>: contributes no range bound
        }
        let entry = bounds
            .entry(attr.as_str())
            .or_insert((f64::NEG_INFINITY, f64::INFINITY));
        if *op == CmpOp::Eq {
            entry.0 = entry.0.max(bound - eps);
            entry.1 = entry.1.min(bound + eps);
        } else if upper {
            entry.1 = entry.1.min(bound + eps);
        } else if lower {
            entry.0 = entry.0.max(bound - eps);
        }
    }
    if bounds.is_empty() {
        return Ok(None);
    }
    // Contradictory bounds (x ≥ 10 ∧ x ≤ 5): no tuple can pass the
    // selection's conjunction, and an inverted probe rectangle would be
    // rejected by the index. Answer directly.
    if bounds.values().any(|(lo, hi)| lo > hi) {
        return Ok(Some((HRelation::new(rel.schema().clone()), "contradiction".to_string())));
    }

    // Pick the index covering the most bounded attributes.
    let best = indexes
        .iter()
        .max_by_key(|ix| ix.attrs().iter().filter(|a| bounds.contains_key(a.as_str())).count());
    let Some(index) = best else { return Ok(None) };
    let covered =
        index.attrs().iter().filter(|a| bounds.contains_key(a.as_str())).count();
    if covered == 0 {
        return Ok(None);
    }
    let probe: Vec<Option<(f64, f64)>> = index
        .attrs()
        .iter()
        .map(|a| bounds.get(a.as_str()).copied())
        .collect();
    let accesses_before = index.accesses();
    let span_start = cqa_obs::spans_enabled().then(Instant::now);
    let candidates = index.probe(&probe);
    let accesses = index.accesses() - accesses_before;
    stats.record_index_probe(accesses);
    let via = index.attrs().join(", ");
    if let Some(t0) = span_start {
        cqa_obs::record_span(
            "index.probe",
            format!("{} [{}]", name, via),
            t0.elapsed().as_nanos() as u64,
            vec![("accesses", accesses), ("candidates", candidates.len() as u64)],
        );
    }

    // Exact refinement on the candidates only, preserving scan order.
    let mut filtered = HRelation::new(rel.schema().clone());
    for i in candidates {
        filtered.insert(rel.tuples()[i].clone());
    }
    Ok(Some((ops::select_opts(&filtered, selection, opts, stats)?, via)))
}

/// Schema of whole-feature operator outputs: two relational string
/// attributes `id1`, `id2`.
pub fn id_pair_schema() -> Schema {
    Schema::new(vec![AttrDef::str_rel("id1"), AttrDef::str_rel("id2")])
        .expect("static schema is valid")
}

fn id_pairs_relation(pairs: Vec<(String, String)>) -> HRelation {
    let schema = id_pair_schema();
    let mut rel = HRelation::new(schema);
    for (a, b) in pairs {
        let t = Tuple::builder(rel.schema())
            .set("id1", Value::str(a))
            .set("id2", Value::str(b))
            .build()
            .expect("id pair tuple is valid");
        rel.insert(t);
    }
    rel
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{CmpOp, Selection};
    use crate::schema::AttrKind;
    use cqa_num::Rat;
    use cqa_spatial::{Feature, Geometry, Point, SpatialRelation};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let schema = Schema::new(vec![
            AttrDef::str_rel("id"),
            AttrDef { name: "x".into(), ty: crate::schema::AttrType::Rat, kind: AttrKind::Constraint },
        ])
        .unwrap();
        let mut r = HRelation::new(schema);
        r.insert_with(|b| b.set("id", "a").range("x", 0, 10)).unwrap();
        r.insert_with(|b| b.set("id", "b").range("x", 20, 30)).unwrap();
        cat.register("R", r);

        let cities = SpatialRelation::from_features([
            Feature::new("c0", Geometry::Point(Point::from_ints(0, 0))),
            Feature::new("c1", Geometry::Point(Point::from_ints(10, 0))),
        ]);
        let probes = SpatialRelation::from_features([Feature::new(
            "p",
            Geometry::Point(Point::from_ints(1, 0)),
        )]);
        cat.register_spatial("Cities", cities);
        cat.register_spatial("Probes", probes);
        cat
    }

    #[test]
    fn scan_select_project_pipeline() {
        let cat = catalog();
        let plan = Plan::scan("R")
            .select(Selection::all().cmp_int("x", CmpOp::Ge, 5))
            .project(&["id"]);
        let out = execute(&plan, &cat).unwrap();
        assert_eq!(out.len(), 2, "both intervals reach x ≥ 5");
        let plan = Plan::scan("R")
            .select(Selection::all().cmp_int("x", CmpOp::Ge, 15))
            .project(&["id"]);
        let out = execute(&plan, &cat).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.tuples()[0].value(0), Some(&Value::str("b")));
    }

    #[test]
    fn missing_relation_is_an_error() {
        let cat = catalog();
        assert!(execute(&Plan::scan("Nope"), &cat).is_err());
        assert!(execute(
            &Plan::BufferJoin { left: "Nope".into(), right: "Cities".into(), distance: Rat::one() },
            &cat
        )
        .is_err());
    }

    #[test]
    fn buffer_join_produces_id_pairs() {
        let cat = catalog();
        let plan = Plan::BufferJoin {
            left: "Probes".into(),
            right: "Cities".into(),
            distance: Rat::from_int(2),
        };
        let out = execute(&plan, &cat).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out
            .contains_point(&[Value::str("p"), Value::str("c0")])
            .unwrap());
        assert!(out.schema().is_purely_relational(), "whole-feature output is traditional");
    }

    #[test]
    fn knearest_composes_with_algebra() {
        let cat = catalog();
        let plan = Plan::KNearest { left: "Probes".into(), right: "Cities".into(), k: 2 }
            .select(Selection::all().str_eq("id2", "c1"));
        let out = execute(&plan, &cat).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn traced_execution_matches_and_counts() {
        let cat = catalog();
        let plan = Plan::scan("R")
            .select(Selection::all().cmp_int("x", CmpOp::Ge, 5))
            .project(&["id"]);
        let plain = execute(&plan, &cat).unwrap();
        let (traced, trace) =
            execute_traced_opts(&plan, &cat, &ExecOptions::default(), &ExecStats::new()).unwrap();
        assert_eq!(plain, traced);
        // Trace shape mirrors the plan: Project -> Select -> Scan.
        assert!(trace.label.starts_with("Project"));
        assert_eq!(trace.rows, traced.len());
        assert_eq!(trace.children.len(), 1);
        assert!(trace.children[0].label.starts_with("Select"));
        let scan = &trace.children[0].children[0];
        assert_eq!(scan.label, "Scan R");
        assert_eq!(scan.rows, 2);
        let shown = trace.to_string();
        assert!(shown.contains("row(s)"), "{}", shown);
        // The Select node checked its residuals against the bbox filter.
        assert_eq!(trace.children[0].filter_checked, 2);
        // The projection's eliminations are visible per node.
        assert!(trace.fm_calls >= 1, "project runs FM per tuple");
        // Safety still enforced.
        let bad = Plan::Distance { left: "Probes".into(), right: "Cities".into() };
        let opts = ExecOptions::default();
        assert!(execute_traced_opts(&bad, &cat, &opts, &ExecStats::new()).is_err());
    }

    #[test]
    fn traced_run_accumulates_run_stats_like_untraced() {
        let cat = catalog();
        let plan = Plan::scan("R").select(Selection::all().cmp_int("x", CmpOp::Ge, 5));
        let plain_stats = ExecStats::new();
        execute_opts(&plan, &cat, &ExecOptions::default(), &plain_stats).unwrap();
        let traced_stats = ExecStats::new();
        execute_traced_opts(&plan, &cat, &ExecOptions::default(), &traced_stats).unwrap();
        assert_eq!(plain_stats.checked(), traced_stats.checked());
        assert_eq!(plain_stats.rejected(), traced_stats.rejected());
        assert_eq!(plain_stats.fm_calls(), traced_stats.fm_calls());
    }

    #[test]
    fn traced_and_untraced_share_the_index_path() {
        // The traced evaluator must make the same physical choice as the
        // untraced one — index-assisted selection included.
        let mut cat = catalog();
        cat.build_index("R", &["x"]).unwrap();
        let plan = Plan::scan("R")
            .select(Selection::all().cmp_int("x", CmpOp::Ge, 15).cmp_int("x", CmpOp::Le, 40));
        let accesses_before = cat.indexes("R")[0].accesses();
        let plain = execute(&plan, &cat).unwrap();
        let untraced_accesses = cat.indexes("R")[0].accesses() - accesses_before;
        assert!(untraced_accesses > 0, "untraced path probed the index");

        let stats = ExecStats::new();
        let (traced, trace) =
            execute_traced_opts(&plan, &cat, &ExecOptions::default(), &stats).unwrap();
        let traced_accesses = cat.indexes("R")[0].accesses() - accesses_before - untraced_accesses;
        assert_eq!(plain, traced, "identical relations");
        assert_eq!(untraced_accesses, traced_accesses, "identical physical plan");
        assert!(trace.label.contains("index [x]"), "trace reports the choice: {}", trace.label);
        assert_eq!(trace.index_accesses, traced_accesses, "trace counts the probe");
        assert_eq!(stats.index_probes(), 1);
        // The synthesized scan child keeps the tree shape.
        assert_eq!(trace.children.len(), 1);
        assert_eq!(trace.children[0].label, "Scan R");
        // And the identity digest is stable across thread counts.
        let id1 = trace.identity();
        for threads in [1usize, 2, 8] {
            let (rel, t) = execute_traced_opts(
                &plan,
                &cat,
                &ExecOptions::with_threads(threads),
                &ExecStats::new(),
            )
            .unwrap();
            assert_eq!(rel, traced, "threads={}", threads);
            assert_eq!(t.identity(), id1, "threads={}", threads);
        }
    }

    #[test]
    fn explain_analyze_renders_annotations() {
        let mut cat = catalog();
        cat.build_index("R", &["x"]).unwrap();
        let plan = Plan::scan("R")
            .select(Selection::all().cmp_int("x", CmpOp::Ge, 5))
            .project(&["id"]);
        let opts = ExecOptions::default();
        let (_, trace) = execute_traced_opts(&plan, &cat, &opts, &ExecStats::new()).unwrap();
        let text = render_explain_analyze(&trace, &opts);
        assert!(text.contains("row(s)"), "{}", text);
        assert!(text.contains("index [x]"), "{}", text);
        assert!(text.contains("index node(s) accessed"), "{}", text);
        assert!(text.contains("selectivity"), "{}", text);
        assert!(text.contains("governor:"), "{}", text);
        assert!(text.contains("unlimited"), "{}", text);
        // JSON round-trips through the obs parser.
        let json = trace.to_json().render();
        let parsed = cqa_obs::json::parse(&json).unwrap();
        assert_eq!(
            parsed.get("label").and_then(|l| l.as_str()),
            Some(trace.label.as_str())
        );
    }

    #[test]
    fn execute_opts_matches_default_across_thread_counts() {
        let cat = catalog();
        let plan = Plan::scan("R")
            .select(Selection::all().cmp_int("x", CmpOp::Ge, 5))
            .project(&["id"]);
        let base = execute(&plan, &cat).unwrap();
        for threads in [1usize, 2, 3, 8] {
            let stats = ExecStats::new();
            let out =
                execute_opts(&plan, &cat, &ExecOptions::with_threads(threads), &stats).unwrap();
            assert_eq!(base, out, "threads={}", threads);
        }
        // The serial pre-parallelism baseline agrees too (filter off).
        let stats = ExecStats::new();
        let out = execute_opts(&plan, &cat, &ExecOptions::serial(), &stats).unwrap();
        assert_eq!(base, out);
        assert_eq!(stats.checked(), 0, "serial baseline never consults the filter");
    }

    #[test]
    fn index_backed_select_matches_plain_select() {
        // A bigger relation with mixed intervals and a null.
        let schema = Schema::new(vec![
            AttrDef::str_rel("id"),
            AttrDef {
                name: "x".into(),
                ty: crate::schema::AttrType::Rat,
                kind: AttrKind::Constraint,
            },
            AttrDef {
                name: "y".into(),
                ty: crate::schema::AttrType::Rat,
                kind: AttrKind::Constraint,
            },
        ])
        .unwrap();
        let mut rel = HRelation::new(schema);
        for i in 0..200i64 {
            let lo = (i * 7) % 500;
            rel.insert_with(|b| {
                b.set("id", format!("t{}", i).as_str())
                    .range("x", lo, lo + 10)
                    .range("y", (i * 3) % 300, (i * 3) % 300 + 5)
            })
            .unwrap();
        }
        // A broad tuple (no constraints at all) must still be found.
        rel.insert_with(|b| b.set("id", "broad")).unwrap();

        let mut plain = Catalog::new();
        plain.register("R", rel.clone());
        let mut indexed = Catalog::new();
        indexed.register("R", rel);
        indexed.build_index("R", &["x", "y"]).unwrap();
        indexed.build_index("R", &["x"]).unwrap();

        let selections = [
            Selection::all().cmp_int("x", CmpOp::Ge, 100).cmp_int("x", CmpOp::Le, 150),
            Selection::all()
                .cmp_int("x", CmpOp::Ge, 100)
                .cmp_int("x", CmpOp::Lt, 150)
                .cmp_int("y", CmpOp::Le, 50),
            Selection::all().cmp_int("y", CmpOp::Eq, 33),
            Selection::all().cmp_int("x", CmpOp::Gt, 10_000), // empty result
            Selection::all().str_eq("id", "t5").cmp_int("x", CmpOp::Ge, 0),
        ];
        for sel in selections {
            let plan = Plan::scan("R").select(sel.clone());
            let a = execute(&plan, &plain).unwrap();
            let b = execute(&plan, &indexed).unwrap();
            assert_eq!(a, b, "selection {:?}", sel);
        }
        // The index actually got used.
        assert!(
            indexed.indexes("R").iter().any(|ix| ix.accesses() > 0),
            "index probes should have been charged"
        );
    }

    #[test]
    fn index_handles_contradictory_bounds() {
        // x ≥ 10 ∧ x ≤ 5 would form an inverted probe rectangle; the
        // index path must answer "empty" directly instead.
        let mut cat = catalog();
        cat.build_index("R", &["x"]).unwrap();
        let plan = Plan::scan("R").select(
            Selection::all().cmp_int("x", CmpOp::Ge, 10).cmp_int("x", CmpOp::Le, 5),
        );
        let out = execute(&plan, &cat).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn index_ignored_when_it_cannot_help() {
        let cat = {
            let mut c = catalog();
            c.build_index("R", &["x"]).unwrap();
            c
        };
        // A selection that bounds nothing the index covers.
        let plan = Plan::scan("R").select(Selection::all().str_eq("id", "a"));
        let out = execute(&plan, &cat).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(cat.indexes("R")[0].accesses(), 0, "no probe charged");
    }

    #[test]
    fn index_build_rejects_bad_attrs() {
        let mut cat = catalog();
        assert!(cat.build_index("R", &["id"]).is_err(), "string attribute");
        assert!(cat.build_index("R", &[]).is_err());
        assert!(cat.build_index("R", &["x", "x", "x"]).is_err());
        assert!(cat.build_index("Nope", &["x"]).is_err());
        // Re-registering drops stale indexes.
        cat.build_index("R", &["x"]).unwrap();
        assert_eq!(cat.indexes("R").len(), 1);
        let rel = cat.get("R").unwrap().clone();
        cat.register("R", rel);
        assert!(cat.indexes("R").is_empty());
    }

    #[test]
    fn governor_trips_are_typed_errors() {
        use crate::error::CoreError;
        let cat = catalog();
        let plan = Plan::scan("R").select(Selection::all().cmp_int("x", CmpOp::Ge, 0));

        // Output-tuple budget: the scan node itself (2 tuples) exceeds 1.
        let mut opts = ExecOptions::default();
        opts.governor.budgets.max_output_tuples = Some(1);
        assert!(matches!(
            execute_opts(&plan, &cat, &opts, &ExecStats::new()),
            Err(CoreError::BudgetExceeded { what: "output tuples", used: 2, limit: 1 })
        ));

        // An already-elapsed deadline: DeadlineExceeded on every thread count.
        for threads in [1usize, 4] {
            let mut opts = ExecOptions::with_threads(threads);
            opts.governor.timeout = Some(std::time::Duration::ZERO);
            assert_eq!(
                execute_opts(&plan, &cat, &opts, &ExecStats::new()),
                Err(CoreError::DeadlineExceeded),
                "threads={}",
                threads
            );
        }

        // Deterministic cancellation at the first governor check.
        let opts = ExecOptions::default();
        opts.governor.trip_after(1);
        assert_eq!(
            execute_opts(&plan, &cat, &opts, &ExecStats::new()),
            Err(CoreError::Cancelled)
        );

        // A generous governor changes nothing.
        let mut opts = ExecOptions::default();
        opts.governor.timeout = Some(std::time::Duration::from_secs(3600));
        opts.governor.budgets.max_output_tuples = Some(1_000_000);
        assert_eq!(
            execute_opts(&plan, &cat, &opts, &ExecStats::new()).unwrap(),
            execute(&plan, &cat).unwrap()
        );
    }

    #[test]
    fn fm_and_dnf_budgets_bound_the_expensive_operators() {
        use crate::error::CoreError;
        let cat = catalog();

        // Projection eliminates x from 2-atom intervals; a 1-atom FM
        // budget trips, a generous one records the peak instead.
        let plan = Plan::scan("R").project(&["id"]);
        let mut opts = ExecOptions::default();
        opts.governor.budgets.max_fm_atoms = Some(1);
        assert!(matches!(
            execute_opts(&plan, &cat, &opts, &ExecStats::new()),
            Err(CoreError::BudgetExceeded { what: "fm atoms", .. })
        ));
        let stats = ExecStats::new();
        execute_opts(&plan, &cat, &ExecOptions::default(), &stats).unwrap();
        assert!(stats.fm_peak() >= 2, "peak gauge saw the interval atoms");
        assert!(stats.fm_calls() >= 2, "one elimination per tuple");

        // Difference's negation expansion answers to the DNF budget.
        let plan = Plan::Difference {
            left: Box::new(Plan::scan("R")),
            right: Box::new(Plan::scan("R")),
        };
        let mut opts = ExecOptions::default();
        opts.governor.budgets.max_dnf_conjunctions = Some(0);
        assert!(matches!(
            execute_opts(&plan, &cat, &opts, &ExecStats::new()),
            Err(CoreError::BudgetExceeded { what: "dnf conjunctions", .. })
        ));
        // With room to run, the built-conjunction counter sees the work.
        let stats = ExecStats::new();
        execute_opts(&plan, &cat, &ExecOptions::default(), &stats).unwrap();
        assert!(stats.dnf_conjunctions() > 0, "negation expansion was counted");
    }

    #[test]
    fn unsafe_distance_rejected_before_evaluation() {
        let cat = catalog();
        let plan = Plan::Distance { left: "Probes".into(), right: "Cities".into() };
        assert!(matches!(
            execute(&plan, &cat),
            Err(crate::error::CoreError::UnsafeOperation(_))
        ));
    }
}
