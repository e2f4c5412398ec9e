//! End-to-end contract of `EXPLAIN ANALYZE` and the metrics registry.
//!
//! The traced evaluator is the plain evaluator with a sink attached, so
//! traced and untraced runs must produce identical relations *and*
//! identical physical-plan choices (index-assisted selection included) at
//! every thread count; the trace JSON must round-trip through the obs
//! JSON parser with the documented schema; and run counters must land in
//! the global registry.

use cqa::core::plan::{CmpOp, Plan, Selection};
use cqa::core::{exec, AttrDef, Catalog, ExecOptions, ExecStats, HRelation, Schema};
use cqa::lang::schema_def::parse_cdb;
use cqa::lang::ScriptRunner;
use cqa::num::prng::Pcg32;
use cqa::obs::json::Json;

fn seeded_catalog(with_index: bool) -> Catalog {
    let schema = Schema::new(vec![
        AttrDef::str_rel("id"),
        AttrDef::rat_con("x"),
        AttrDef::rat_con("y"),
    ])
    .unwrap();
    let mut rel = HRelation::new(schema);
    let mut rng = Pcg32::seed_from_u64(99);
    for i in 0..300 {
        let (lx, ly) = (rng.gen_range_i64(0, 400), rng.gen_range_i64(0, 400));
        rel.insert_with(|b| {
            b.set("id", format!("t{}", i).as_str())
                .range("x", lx, lx + rng.gen_range_i64(1, 20))
                .range("y", ly, ly + rng.gen_range_i64(1, 20))
        })
        .unwrap();
    }
    let mut cat = Catalog::new();
    cat.register("R", rel);
    if with_index {
        cat.build_index("R", &["x", "y"]).unwrap();
    }
    cat
}

fn bounded_selection() -> Selection {
    Selection::all()
        .cmp_int("x", CmpOp::Ge, 100)
        .cmp_int("x", CmpOp::Le, 180)
        .cmp_int("y", CmpOp::Ge, 50)
        .cmp_int("y", CmpOp::Le, 250)
}

#[test]
fn traced_equals_untraced_with_identical_plan_choice() {
    let cat = seeded_catalog(true);
    let plan = Plan::scan("R").select(bounded_selection()).project(&["id"]);
    for threads in [1usize, 2, 8] {
        let opts = ExecOptions::with_threads(threads);
        let untraced_stats = ExecStats::new();
        let plain = exec::execute_opts(&plan, &cat, &opts, &untraced_stats).unwrap();
        let traced_stats = ExecStats::new();
        let (traced, trace) =
            exec::execute_traced_opts(&plan, &cat, &opts, &traced_stats).unwrap();
        assert_eq!(plain, traced, "threads={}", threads);
        // Same physical choice: both probed the index, with the same cost.
        assert!(untraced_stats.index_probes() > 0, "untraced used the index");
        assert_eq!(untraced_stats.index_probes(), traced_stats.index_probes());
        assert_eq!(untraced_stats.index_accesses(), traced_stats.index_accesses());
        assert_eq!(untraced_stats.checked(), traced_stats.checked());
        assert_eq!(untraced_stats.fm_calls(), traced_stats.fm_calls());
        let select = &trace.children[0];
        assert!(select.label.contains("index [x, y]"), "trace shows the choice: {}", select.label);
        assert!(select.index_accesses > 0);
    }
}

#[test]
fn trace_json_round_trips_with_schema() {
    let cat = seeded_catalog(true);
    let plan = Plan::scan("R").select(bounded_selection()).project(&["id"]);
    let (_, trace) =
        exec::execute_traced_opts(&plan, &cat, &ExecOptions::default(), &ExecStats::new())
            .unwrap();
    let rendered = trace.to_json().render();
    let parsed = cqa::obs::json::parse(&rendered).expect("trace JSON parses");

    // Schema check, recursively: every node carries label, rows,
    // elapsed_ns, the full counter object, and a children array.
    fn check(node: &Json) {
        assert!(node.get("label").and_then(Json::as_str).is_some());
        assert!(node.get("rows").and_then(Json::as_num).is_some());
        assert!(node.get("elapsed_ns").and_then(Json::as_num).is_some());
        let counters = node.get("counters").expect("counters object");
        for key in [
            "filter_checked",
            "filter_rejected",
            "fm_peak_atoms",
            "fm_calls",
            "index_accesses",
            "pairs_enumerated",
            "dnf_conjunctions",
        ] {
            assert!(counters.get(key).and_then(Json::as_num).is_some(), "missing {}", key);
        }
        for child in node.get("children").and_then(Json::as_arr).expect("children array") {
            check(child);
        }
    }
    check(&parsed);

    // And the parsed values agree with the in-memory trace.
    assert_eq!(
        parsed.get("label").and_then(Json::as_str),
        Some(trace.label.as_str())
    );
    assert_eq!(
        parsed.get("rows").and_then(Json::as_num),
        Some(trace.rows as f64)
    );
    let kids = parsed.get("children").and_then(Json::as_arr).unwrap();
    assert_eq!(kids.len(), trace.children.len());
}

#[test]
fn explain_analyze_reports_index_choice_and_headroom() {
    let cat = seeded_catalog(true);
    let plan = Plan::scan("R").select(bounded_selection());
    let mut opts = ExecOptions::default();
    opts.governor.budgets.max_output_tuples = Some(100_000);
    let (_, trace) = exec::execute_traced_opts(&plan, &cat, &opts, &ExecStats::new()).unwrap();
    let text = exec::render_explain_analyze(&trace, &opts);
    assert!(text.contains("index [x, y]"), "{}", text);
    assert!(text.contains("index node(s) accessed"), "{}", text);
    assert!(text.contains("selectivity"), "{}", text);
    assert!(text.contains("governor:"), "{}", text);
    assert!(text.contains("headroom"), "{}", text);
}

#[test]
fn trace_text_is_the_explain_analyze_tree() {
    let cat = seeded_catalog(true);
    let plan = Plan::scan("R").select(bounded_selection()).project(&["id"]);
    let opts = ExecOptions::default();
    let (_, trace) = exec::execute_traced_opts(&plan, &cat, &opts, &ExecStats::new()).unwrap();
    // One renderer: `\trace` prints the annotated tree, and EXPLAIN
    // ANALYZE is that tree plus the totals and governor footer.
    let tree = trace.to_string();
    let text = exec::render_explain_analyze(&trace, &opts);
    assert!(text.starts_with(&tree), "{}\n---\n{}", tree, text);
    assert!(text[tree.len()..].starts_with("totals:"), "{}", text);
    assert!(tree.contains("selectivity"), "{}", tree);

    // The `\trace json` keys, in order.
    let keys = |json: &Json| match json {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
        other => panic!("expected an object, got {:?}", other),
    };
    let json = trace.to_json();
    assert_eq!(keys(&json), ["label", "rows", "elapsed_ns", "counters", "children"]);
    assert_eq!(
        keys(json.get("counters").expect("counters object")),
        [
            "filter_checked",
            "filter_rejected",
            "fm_peak_atoms",
            "fm_calls",
            "index_accesses",
            "pairs_enumerated",
            "dnf_conjunctions",
        ]
    );
}

#[test]
fn runner_feeds_metrics_registry() {
    // Global registry state is process-wide; this test only asserts
    // *growth*, so concurrent tests in this binary can only help it.
    let snap_before = cqa::obs::snapshot();
    let before = |name: &str| snap_before.counter(name);

    let mut cat = Catalog::new();
    parse_cdb(
        r#"
relation Land {
  landId: string relational;
  x: rational constraint;
}
tuple Land { landId = "A"; 0 <= x; x <= 2 }
tuple Land { landId = "B"; 4 <= x; x <= 6 }
"#,
    )
    .unwrap()
    .load_into(&mut cat);
    let mut runner = ScriptRunner::new(cat);
    runner.run("R0 = select x >= 1 from Land\nR1 = project R0 on landId\n").unwrap();
    let (_, trace) = runner.run_traced("R2 = join Land and Land\n").unwrap();
    assert!(trace.pairs_enumerated > 0, "join enumerated bucketed pairs");

    let snap = cqa::obs::snapshot();
    assert!(snap.counter("exec.runs") >= before("exec.runs") + 3, "three statements ran");
    assert!(snap.counter("exec.rows_out") > before("exec.rows_out"));
    assert!(snap.counter("exec.fm.calls") > before("exec.fm.calls"));
    assert!(
        snap.counter("exec.join.pairs_enumerated") > before("exec.join.pairs_enumerated")
    );
    assert!(snap.counter("governor.checks") > before("governor.checks"));
    // The text rendering lists the canonical names.
    let text = snap.render_text();
    assert!(text.contains("exec.runs"), "{}", text);
    assert!(text.contains("exec.fm.peak_atoms"), "{}", text);
}
