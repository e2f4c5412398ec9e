//! The traced run: spans recorded from the benchmark's side of each
//! layer's public functions, and the per-layer metrics derived from them.
//!
//! The program itself is not instrumented further. Spans come from
//! timing calls into `parse_script`, `lower_expr`, `optimizer::optimize`,
//! `exec::execute_traced_opts`, `Catalog::build_index`, `save_catalog`
//! and `open_catalog`. Operator spans are rebuilt from the evaluator's
//! `TraceNode` tree: evaluation is bottom-up, so children run one after
//! another and the node's own work follows them. A node's span therefore
//! starts where its first child starts and lasts its children's time plus
//! its own.

use cqa::core::exec::TraceNode;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary, e.g. `lang.parse`, `optimizer`, `op.join`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// The operation this span belongs to (`None` during set-up).
    pub op: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder; spans are written out when the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: Option<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: None,
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the operation id stamped on the spans that follow.
    pub fn set_op(&mut self, op: Option<usize>) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now();
        out
    }

    /// Times one call into the evaluator and records its operator tree
    /// under an `exec` span.
    pub fn exec<R, E>(
        &mut self,
        f: impl FnOnce() -> Result<(R, TraceNode), E>,
    ) -> Result<(R, TraceNode), E> {
        let idx = self.spans.len();
        let (out, node) = self.time("exec", |_| f())?;
        let start = self.spans[idx].start_ns;
        self.push_node(&node, start, idx);
        Ok((out, node))
    }

    fn push_node(&mut self, node: &TraceNode, start: u64, parent: usize) -> u64 {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: operator(&node.label),
            start_ns: start,
            end_ns: start,
            parent: Some(parent),
            op: self.op,
        });
        let mut t = start;
        for child in &node.children {
            t = self.push_node(child, t, idx);
        }
        let end = t + node.elapsed.as_nanos() as u64;
        self.spans[idx].end_ns = end;
        end
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.op)
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

/// The span name of an evaluator node, from its label.
pub fn operator(label: &str) -> &'static str {
    const OPS: [(&str, &str); 9] = [
        ("Select", "op.select"),
        ("Project", "op.project"),
        ("Join", "op.join"),
        ("Difference", "op.diff"),
        ("Union", "op.union"),
        ("Rename", "op.rename"),
        ("BufferJoin", "op.bufferjoin"),
        ("KNearest", "op.knearest"),
        ("SpatialScan", "op.spatialscan"),
    ];
    OPS.iter()
        .find(|(prefix, _)| label.starts_with(prefix))
        .map_or(
            if label.starts_with("Scan") {
                "op.scan"
            } else {
                "op.other"
            },
            |&(_, n)| n,
        )
}

/// Self time of every span: its duration minus the part its children
/// cover (children never overlap, since evaluation is sequential).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Total self time of the spans named `name`, in nanoseconds.
pub fn total_self_ns(spans: &[Span], selfs: &[u64], name: &str) -> u64 {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &t)| t)
        .sum()
}

/// Durations of the spans named `name`, in nanoseconds.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn node(label: &str, ms: u64, children: Vec<TraceNode>) -> TraceNode {
        TraceNode {
            label: label.to_string(),
            rows: 0,
            elapsed: Duration::from_millis(ms),
            filter_checked: 0,
            filter_rejected: 0,
            fm_peak_atoms: 0,
            fm_calls: 0,
            index_accesses: 0,
            pairs_enumerated: 0,
            dnf_conjunctions: 0,
            children,
        }
    }

    #[test]
    fn operator_tree_becomes_nested_spans_with_exact_self_times() {
        let tree = node(
            "Project on landId",
            2,
            vec![node(
                "Join",
                5,
                vec![
                    node("Scan Hurricane", 0, vec![]),
                    node("Scan Land", 0, vec![]),
                ],
            )],
        );
        let mut tr = Tracer::default();
        tr.set_op(Some(7));
        tr.exec(|| Ok::<_, ()>(((), tree))).unwrap();
        let spans = tr.spans();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["exec", "op.project", "op.join", "op.scan", "op.scan"]
        );
        assert!(spans.iter().all(|s| s.op == Some(7)));
        let selfs = self_times(spans);
        assert_eq!(total_self_ns(spans, &selfs, "op.project"), 2_000_000);
        assert_eq!(total_self_ns(spans, &selfs, "op.join"), 5_000_000);
        assert_eq!(
            spans[1].dur_ns(),
            7_000_000,
            "a node's span covers its children"
        );
        assert_eq!(spans[2].parent, Some(1));
    }

    #[test]
    fn operator_names_follow_labels() {
        assert_eq!(operator("Select (index [x, y])"), "op.select");
        assert_eq!(operator("Difference"), "op.diff");
        assert_eq!(operator("SpatialScan Roads"), "op.spatialscan");
        assert_eq!(operator("Scan R"), "op.scan");
        assert_eq!(operator("KNearest A and B k 3"), "op.knearest");
    }
}
