//! Execution options and statistics for the parallel, filter-and-refine
//! evaluator.
//!
//! Two independent switches, both defaulting to "on":
//!
//! * **Parallelism** ([`ExecOptions::threads`]): operators fan their outer
//!   tuple loop out over the deterministic chunked executor in
//!   [`cqa_num::par`]. Results are bit-identical for every thread count.
//! * **Cheap filter** ([`ExecOptions::bbox_filter`]): operators consult
//!   conservative [`cqa_constraints::QuickBox`] bounds before running
//!   exact (big-rational) satisfiability. For `select` and `join` the
//!   filter only skips work whose outcome is already decided, so output
//!   is bit-identical with the filter off; for `difference` it prunes
//!   provably-redundant subtrahends, which preserves semantics but may
//!   simplify the syntactic output.
//!
//! [`ExecStats`] counts filter consultations and rejections with atomics,
//! so the same counters work unchanged under the parallel executor.

use crate::exec::TraceNode;
use crate::governor::{Budgets, Governor};
use std::sync::atomic::{AtomicU64, Ordering};

pub(crate) use cqa_num::par::run_chunks;

/// Evaluation knobs, threaded from the shell/driver down to operators.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Worker threads for operator-level data parallelism; `0` means all
    /// hardware threads.
    pub threads: usize,
    /// Whether operators run the cheap bounding-box filter before exact
    /// constraint arithmetic.
    pub bbox_filter: bool,
    /// Cancellation token, wall-clock deadline, and resource budgets.
    /// Defaults to unlimited — a plain run never observes it.
    pub governor: Governor,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions { threads: 0, bbox_filter: true, governor: Governor::default() }
    }
}

impl ExecOptions {
    /// The pre-parallelism baseline: one thread, no filtering. Useful as
    /// the reference side of determinism checks and benchmarks.
    pub fn serial() -> ExecOptions {
        ExecOptions { threads: 1, bbox_filter: false, ..ExecOptions::default() }
    }

    /// Default options with an explicit thread count.
    pub fn with_threads(threads: usize) -> ExecOptions {
        ExecOptions { threads, ..ExecOptions::default() }
    }

    /// The resolved worker count (`0` → hardware parallelism).
    pub fn effective_threads(&self) -> usize {
        cqa_num::par::effective_threads(self.threads)
    }
}

/// One evaluation counter of [`ExecStats`] (documented on its read
/// accessor); its row in [`COUNTERS`] is `COUNTERS[counter as usize]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Counter {
    FilterChecked,
    FilterRejected,
    FmPeakAtoms,
    FmCalls,
    IndexProbes,
    IndexAccesses,
    PairsEnumerated,
    DnfConjunctions,
}

const N_COUNTERS: usize = 8;

/// How a counter combines across workers, plan nodes and runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Combine {
    Sum,
    Max,
}

/// The [`TraceNode`] field that keeps a counter. The field's name is the
/// counter's key in traces, `\trace json`, `exec.node` spans and the
/// event log.
pub(crate) struct NodeField {
    pub key: &'static str,
    pub get: fn(&TraceNode) -> u64,
    pub get_mut: fn(&mut TraceNode) -> &mut u64,
}

macro_rules! node_field {
    ($f:ident) => {
        Some(NodeField { key: stringify!($f), get: |n| n.$f, get_mut: |n| &mut n.$f })
    };
}

/// Everything that names or combines one counter.
pub(crate) struct CounterDef {
    /// Name in the global `cqa-obs` registry.
    pub registry: &'static str,
    pub combine: Combine,
    /// `None` for counters a trace does not keep.
    pub node: Option<NodeField>,
    /// Whether `exec.node` spans carry the counter.
    pub span: bool,
    /// The governor budget that caps the counter: its event-log key and
    /// its limit.
    pub budget: Option<(&'static str, BudgetLimit)>,
}

type BudgetLimit = fn(&Budgets) -> Option<u64>;

/// The one table of evaluation counters, in [`Counter`] order. Every
/// consumer — absorb, the registry flush, trace nodes, their JSON and
/// identity, spans, and the event log — iterates it.
pub(crate) static COUNTERS: [CounterDef; N_COUNTERS] = {
    use Combine::{Max, Sum};
    [
        CounterDef {
            registry: "exec.filter.checked",
            combine: Sum,
            node: node_field!(filter_checked),
            span: true,
            budget: None,
        },
        CounterDef {
            registry: "exec.filter.rejected",
            combine: Sum,
            node: node_field!(filter_rejected),
            span: true,
            budget: None,
        },
        CounterDef {
            registry: "exec.fm.peak_atoms",
            combine: Max,
            node: node_field!(fm_peak_atoms),
            span: false,
            budget: Some(("max_fm_atoms", |b| b.max_fm_atoms)),
        },
        CounterDef {
            registry: "exec.fm.calls",
            combine: Sum,
            node: node_field!(fm_calls),
            span: true,
            budget: None,
        },
        CounterDef {
            registry: "exec.index.probes",
            combine: Sum,
            node: None,
            span: false,
            budget: None,
        },
        CounterDef {
            registry: "exec.index.accesses",
            combine: Sum,
            node: node_field!(index_accesses),
            span: true,
            budget: None,
        },
        CounterDef {
            registry: "exec.join.pairs_enumerated",
            combine: Sum,
            node: node_field!(pairs_enumerated),
            span: true,
            budget: None,
        },
        CounterDef {
            registry: "exec.dnf.conjunctions",
            combine: Sum,
            node: node_field!(dnf_conjunctions),
            span: false,
            budget: Some(("max_dnf_conjunctions", |b| b.max_dnf_conjunctions)),
        },
    ]
};

/// Per-run (or per-plan-node, in traces) evaluation counters — the
/// execution layer's staging buffer for the global `cqa-obs` metrics
/// registry.
///
/// Atomic so operator workers can record from any thread; every counter
/// is order-independent (sums and maxes), hence identical to a serial
/// run's. At run end [`ExecStats::flush_global`] batches the totals into
/// the process-global registry in one step, keeping the per-event hot
/// path free of shared-cache-line contention beyond what the run-local
/// atomics already cost.
#[derive(Debug, Default)]
pub struct ExecStats {
    cells: [AtomicU64; N_COUNTERS],
}

/// A registry handle for one counter row.
enum Handle {
    Sum(&'static cqa_obs::Counter),
    Max(&'static cqa_obs::Gauge),
}

/// Cached handles into the global registry, in [`COUNTERS`] order (one
/// registration per process, lock-free recording afterwards).
fn global_handles() -> &'static [Handle; N_COUNTERS] {
    static G: std::sync::OnceLock<[Handle; N_COUNTERS]> = std::sync::OnceLock::new();
    G.get_or_init(|| {
        std::array::from_fn(|i| match COUNTERS[i].combine {
            Combine::Sum => Handle::Sum(cqa_obs::counter(COUNTERS[i].registry)),
            Combine::Max => Handle::Max(cqa_obs::gauge(COUNTERS[i].registry)),
        })
    })
}

impl ExecStats {
    /// Fresh zeroed counters.
    pub fn new() -> ExecStats {
        ExecStats::default()
    }

    /// The atomic behind `c`.
    pub(crate) fn cell(&self, c: Counter) -> &AtomicU64 {
        &self.cells[c as usize]
    }

    /// The current value of `c`.
    pub(crate) fn get(&self, c: Counter) -> u64 {
        self.cell(c).load(Ordering::Relaxed)
    }

    /// Each row of [`COUNTERS`] with this set's value for it.
    pub(crate) fn rows(&self) -> impl Iterator<Item = (&'static CounterDef, u64)> + '_ {
        COUNTERS.iter().zip(&self.cells).map(|(def, cell)| (def, cell.load(Ordering::Relaxed)))
    }

    fn add(&self, c: Counter, n: u64) {
        self.cell(c).fetch_add(n, Ordering::Relaxed);
    }

    /// Records one filter consultation and whether it rejected.
    pub fn record(&self, rejected: bool) {
        self.add(Counter::FilterChecked, 1);
        if rejected {
            self.add(Counter::FilterRejected, 1);
        }
    }

    /// Records one index-assisted selection probe that visited
    /// `accesses` R*-tree nodes.
    pub fn record_index_probe(&self, accesses: u64) {
        self.add(Counter::IndexProbes, 1);
        self.add(Counter::IndexAccesses, accesses);
    }

    /// Records `n` join candidate pairs enumerated.
    pub fn record_pairs(&self, n: u64) {
        self.add(Counter::PairsEnumerated, n);
    }

    /// How many candidates consulted the filter.
    pub fn checked(&self) -> u64 {
        self.get(Counter::FilterChecked)
    }

    /// How many candidates the filter rejected (exact check skipped).
    pub fn rejected(&self) -> u64 {
        self.get(Counter::FilterRejected)
    }

    /// Peak intermediate Fourier–Motzkin atom count observed so far (a
    /// gauge: combined by max, not sum).
    pub fn fm_peak(&self) -> u64 {
        self.get(Counter::FmPeakAtoms)
    }

    /// Fourier–Motzkin elimination runs so far (satisfiability checks and
    /// projections both count).
    pub fn fm_calls(&self) -> u64 {
        self.get(Counter::FmCalls)
    }

    /// Index-assisted selection probes so far.
    pub fn index_probes(&self) -> u64 {
        self.get(Counter::IndexProbes)
    }

    /// R*-tree nodes visited by index-assisted selections so far.
    pub fn index_accesses(&self) -> u64 {
        self.get(Counter::IndexAccesses)
    }

    /// Join candidate pairs enumerated so far (after hash pre-bucketing,
    /// before the bounding-box filter).
    pub fn pairs_enumerated(&self) -> u64 {
        self.get(Counter::PairsEnumerated)
    }

    /// Conjunctions built by DNF negation expansion so far.
    pub fn dnf_conjunctions(&self) -> u64 {
        self.get(Counter::DnfConjunctions)
    }

    /// Folds another counter set into this one (counters add, gauges max).
    pub fn absorb(&self, other: &ExecStats) {
        for ((def, mine), theirs) in COUNTERS.iter().zip(&self.cells).zip(&other.cells) {
            let v = theirs.load(Ordering::Relaxed);
            match def.combine {
                Combine::Sum => mine.fetch_add(v, Ordering::Relaxed),
                Combine::Max => mine.fetch_max(v, Ordering::Relaxed),
            };
        }
    }

    /// Mirrors this run's totals into the global `cqa-obs` registry
    /// (counters add, gauges max). A no-op when global metrics are
    /// disabled — the run-local counters still work, so traces and
    /// `\stats` are unaffected by the flag.
    pub fn flush_global(&self) {
        if !cqa_obs::metrics_enabled() {
            return;
        }
        for (cell, handle) in self.cells.iter().zip(global_handles()) {
            let v = cell.load(Ordering::Relaxed);
            match handle {
                Handle::Sum(c) => c.add(v),
                Handle::Max(g) => g.record_max(v),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_serial() {
        let d = ExecOptions::default();
        assert_eq!(d.threads, 0);
        assert!(d.bbox_filter);
        assert!(d.effective_threads() >= 1);
        let s = ExecOptions::serial();
        assert_eq!(s.threads, 1);
        assert!(!s.bbox_filter);
        assert_eq!(ExecOptions::with_threads(3).threads, 3);
    }

    #[test]
    fn stats_count_and_absorb() {
        let s = ExecStats::new();
        s.record(false);
        s.record(true);
        s.record(true);
        assert_eq!(s.checked(), 3);
        assert_eq!(s.rejected(), 2);
        let t = ExecStats::new();
        t.record(true);
        t.absorb(&s);
        assert_eq!(t.checked(), 4);
        assert_eq!(t.rejected(), 3);
    }

    #[test]
    fn table_rows_follow_the_counter_enum() {
        use Counter::*;
        let rows = [
            (FilterChecked, "exec.filter.checked"),
            (FilterRejected, "exec.filter.rejected"),
            (FmPeakAtoms, "exec.fm.peak_atoms"),
            (FmCalls, "exec.fm.calls"),
            (IndexProbes, "exec.index.probes"),
            (IndexAccesses, "exec.index.accesses"),
            (PairsEnumerated, "exec.join.pairs_enumerated"),
            (DnfConjunctions, "exec.dnf.conjunctions"),
        ];
        for (c, registry) in rows {
            assert_eq!(COUNTERS[c as usize].registry, registry);
        }
        assert_eq!(COUNTERS[FmPeakAtoms as usize].combine, Combine::Max);
    }

    #[test]
    fn fm_peak_is_a_gauge() {
        let s = ExecStats::new();
        s.cell(Counter::FmPeakAtoms).fetch_max(7, Ordering::Relaxed);
        let t = ExecStats::new();
        t.cell(Counter::FmPeakAtoms).fetch_max(3, Ordering::Relaxed);
        t.absorb(&s);
        assert_eq!(t.fm_peak(), 7, "absorb takes the max, not the sum");
    }
}
