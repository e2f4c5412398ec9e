//! One workload run: set-up, the untraced timed passes, the traced pass,
//! the reference replay, and the metrics.

use crate::metrics::{
    calib_ms, median, peak_rss_mb, quantile, ratio, relation_hash, reset_peak_rss, result_line,
    Metric,
};
use crate::trace::{durations, self_times, total_self_ns, Tracer};
use crate::workload::{generate, Inputs, Op, Size, Source, Workload};
use cqa::core::exec::TraceNode;
use cqa::core::{exec, optimizer, Catalog, ExecOptions, ExecStats, HRelation};
use cqa::lang::ast::{Script, Statement};
use cqa::lang::schema_def::parse_cdb;
use cqa::lang::{db, lower::lower_expr, parse::parse_script, ScriptRunner};
use cqa::num::prng::Pcg32;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Untraced passes over the operation sequence; an operation's latency is
/// its best pass.
const TIMED_PASSES: usize = 3;
/// Blocks the set-ups are split into: before each untraced pass, before
/// the traced pass and at the end.
const SETUP_BLOCKS: usize = TIMED_PASSES + 2;
/// One read in this many is replayed on the reference path.
const REFERENCE_SHARE: usize = 8;
/// Where runs keep database directories and span files, relative to the
/// working directory (the repository root).
const WORK_DIR: &str = ".bench_work";
/// The joint index of §5.4.
const INDEX_ATTRS: [&str; 2] = ["x", "y"];

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Loads what a user loads before the first query.
fn setup(cdb: Option<&str>, db_dir: &Path, tr: Option<&mut Tracer>) -> Result<Catalog, String> {
    let mut scratch = Tracer::default();
    let tr = tr.unwrap_or(&mut scratch);
    tr.time("setup", |tr| match cdb {
        Some(text) => tr.time("lang.load", |_| {
            let mut catalog = Catalog::new();
            parse_cdb(text).map_err(err)?.load_into(&mut catalog);
            Ok(catalog)
        }),
        None => {
            let mut catalog = tr
                .time("storage.open", |_| db::open_catalog(db_dir))
                .map_err(err)?;
            tr.time("index.build", |_| catalog.build_index("R", &INDEX_ATTRS))
                .map_err(err)?;
            Ok(catalog)
        }
    })
}

/// Makes a write durable: the catalog drops indexes on every write, and
/// saving is the only way to persist it.
fn persist(runner: &mut ScriptRunner, db_dir: &Path, tr: &mut Tracer) -> Result<(), String> {
    tr.time("index.build", |_| {
        runner.catalog_mut().build_index("R", &INDEX_ATTRS)
    })
    .map_err(err)?;
    tr.time("storage.save", |_| {
        db::save_catalog(runner.catalog(), db_dir)
    })
    .map_err(err)
}

/// The untraced path: what a user of the script API runs.
fn run_op(runner: &mut ScriptRunner, op: &Op, db_dir: &Path) -> Result<HRelation, String> {
    let out = runner.run(&op.script).map_err(err)?;
    if op.write {
        persist(runner, db_dir, &mut Tracer::default())?;
    }
    Ok(out)
}

/// The traced path: the script runner's steps called one by one, each in
/// a span. Registers results exactly as `ScriptRunner::run` does.
fn traced_op(
    tr: &mut Tracer,
    runner: &mut ScriptRunner,
    op: &Op,
    db_dir: &Path,
    stats: &ExecStats,
    nodes: &mut Vec<TraceNode>,
) -> Result<HRelation, String> {
    tr.time("op", |tr| {
        let script = tr
            .time("lang.parse", |_| parse_script(&op.script))
            .map_err(err)?;
        let mut last = None;
        for stmt in &script.statements {
            let rel = match stmt {
                Statement::Query { target, expr, line } => {
                    let plan = tr
                        .time("lang.lower", |_| lower_expr(expr, *line))
                        .map_err(err)?;
                    let plan = tr
                        .time("optimizer", |_| {
                            optimizer::optimize(&plan, runner.catalog())
                        })
                        .map_err(err)?;
                    let (rel, node) = tr
                        .exec(|| {
                            exec::execute_traced_opts(
                                &plan,
                                runner.catalog(),
                                runner.exec_options(),
                                stats,
                            )
                        })
                        .map_err(err)?;
                    nodes.push(node);
                    runner.catalog_mut().register(target.clone(), rel.clone());
                    rel
                }
                other => tr
                    .time("lang.insert", |_| {
                        runner.run_script(&Script {
                            statements: vec![other.clone()],
                        })
                    })
                    .map_err(err)?,
            };
            last = Some(rel);
        }
        if op.write {
            persist(runner, db_dir, tr)?;
        }
        last.ok_or_else(|| "empty script".to_string())
    })
}

/// Program counters of the traced pass; they repeat exactly for a seed.
#[derive(Debug, Default, PartialEq)]
struct Counters {
    pairs: u64,
    checked: u64,
    rejected: u64,
    fm_calls: u64,
    fm_peak: u64,
    dnf: u64,
    probes: u64,
    index_accesses: u64,
    candidates: u64,
    candidate_rows: u64,
    spatial_accesses: u64,
    pages_read: u64,
    pages_written: u64,
}

impl Counters {
    fn absorb(&mut self, stats: &ExecStats) {
        self.pairs += stats.pairs_enumerated();
        self.checked += stats.checked();
        self.rejected += stats.rejected();
        self.fm_calls += stats.fm_calls();
        self.fm_peak = self.fm_peak.max(stats.fm_peak());
        self.dnf += stats.dnf_conjunctions();
        self.probes += stats.index_probes();
        self.index_accesses += stats.index_accesses();
    }

    /// Refinement candidates and output rows of index-assisted selects.
    fn absorb_tree(&mut self, node: &TraceNode) {
        if node.label.starts_with("Select (index") {
            self.candidates += node.filter_checked;
            self.candidate_rows += node.rows as u64;
        }
        for child in &node.children {
            self.absorb_tree(child);
        }
    }
}

/// Registry counters the traced pass reads deltas of: R*-tree node
/// accesses, pages read from disk, and pages written back.
fn registry() -> [u64; 3] {
    let snap = cqa::obs::snapshot();
    [
        snap.counter("index.rstar.node_accesses"),
        snap.counter("storage.pool.physical"),
        snap.counter("storage.pool.writebacks"),
    ]
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Everything one run measured.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    /// Thread count, host and operation counts: recorded with each run.
    record: String,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    #[cfg_attr(not(test), allow(dead_code))]
    counters: Counters,
    spans: String,
}

/// Runs one workload in this process and returns the result line.
pub fn one(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Result<String, String> {
    let (reads, writes) = workload.op_counts(seconds);
    let inputs = generate(workload, seed, reads, writes, Size::FULL);
    let work = PathBuf::from(WORK_DIR).join(format!("{}-{}", workload.name(), std::process::id()));
    let report = measure(workload, seed, inputs, &work)?;
    std::fs::write(
        Path::new(WORK_DIR).join(format!("spans-{}-seed{seed}.jsonl", workload.name())),
        &report.spans,
    )
    .map_err(err)?;
    println!("{}", report.record);
    // Both sets for the reader; the result line carries the one asked for.
    for m in report.end_to_end.iter().chain(&report.per_layer) {
        println!("{:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let metrics = if trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    Ok(result_line(
        report.correct,
        report.attempted,
        report.failed,
        metrics,
    ))
}

/// Measures one workload with database directories under `work`, which
/// is removed afterwards.
fn measure(workload: Workload, seed: u64, inputs: Inputs, work: &Path) -> Result<Report, String> {
    std::fs::create_dir_all(work).map_err(err)?;
    let report = measure_in(workload, seed, inputs, work);
    let _ = std::fs::remove_dir_all(work);
    report
}

fn measure_in(
    workload: Workload,
    seed: u64,
    inputs: Inputs,
    work: &Path,
) -> Result<Report, String> {
    let ops = inputs.ops;
    let timed_dbs: Vec<PathBuf> = (0..TIMED_PASSES)
        .map(|p| work.join(format!("timed{p}")))
        .collect();
    let [traced_db, reference_db] = ["traced", "reference"].map(|d| work.join(d));
    let cdb = match inputs.source {
        Source::Cdb(text) => Some(text),
        Source::Db(catalog) => {
            for dir in timed_dbs.iter().chain([&traced_db, &reference_db]) {
                db::save_catalog(&catalog, dir).map_err(err)?;
            }
            None
        }
    };
    reset_peak_rss();
    let calib_before = calib_ms();

    // Set-ups come in blocks spread over the run, so a slow phase of a
    // shared host meets one block, not the median of all of them.
    let mut setup_s = Vec::new();
    let mut setup_block = |db_dir: &Path| -> Result<Catalog, String> {
        let mut catalog = None;
        for _ in 0..workload.setup_reps() / SETUP_BLOCKS {
            drop(catalog.take());
            let t = Instant::now();
            let loaded = setup(cdb.as_deref(), db_dir, None)?;
            setup_s.push(t.elapsed().as_secs_f64());
            catalog = Some(loaded);
        }
        Ok(catalog.expect("at least one set-up per block"))
    };
    let mut pass_ms: Vec<Vec<f64>> = Vec::new();
    let mut hashes: Vec<Vec<Result<u64, String>>> = Vec::new();
    let mut threads = 0;
    // The untraced passes: default options (all hardware threads), metrics
    // on, each on the last catalog of its own set-up block. Outputs are
    // hashed outside the timed interval.
    for db_dir in &timed_dbs {
        let mut runner = ScriptRunner::new(setup_block(db_dir)?);
        threads = runner.exec_options().effective_threads();
        let mut ms = Vec::with_capacity(ops.len());
        let mut out_hashes = Vec::with_capacity(ops.len());
        for op in &ops {
            let t = Instant::now();
            let out = run_op(&mut runner, op, db_dir);
            ms.push(t.elapsed().as_secs_f64() * 1e3);
            out_hashes.push(out.map(|rel| relation_hash(&rel)));
        }
        pass_ms.push(ms);
        hashes.push(out_hashes);
    }
    let peak_rss = peak_rss_mb().unwrap_or(0.0);
    // Each operation's latency is its best pass: on a shared host other
    // tenants slow execution in phases, and the best of passes seconds
    // apart drops the phases shorter than a pass.
    let latency_ms: Vec<f64> = (0..ops.len())
        .map(|i| pass_ms.iter().map(|ms| ms[i]).fold(f64::INFINITY, f64::min))
        .collect();

    // The traced pass, from a fresh set-up of the same data.
    drop(setup_block(&traced_db)?);
    let mut tr = Tracer::default();
    let before = registry();
    let catalog = setup(cdb.as_deref(), &traced_db, Some(&mut tr))?;
    let pages_read = registry()[1] - before[1];
    let mut runner = ScriptRunner::new(catalog);
    let mut counters = Counters {
        pages_read,
        ..Counters::default()
    };
    let mut traced_ms = Vec::with_capacity(ops.len());
    let mut traced_hashes = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        tr.set_op(Some(i));
        let stats = ExecStats::new();
        let mut nodes = Vec::new();
        let before = registry();
        let t = Instant::now();
        let out = traced_op(&mut tr, &mut runner, op, &traced_db, &stats, &mut nodes);
        traced_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let after = registry();
        counters.absorb(&stats);
        nodes.iter().for_each(|n| counters.absorb_tree(n));
        counters.spatial_accesses += (after[0] - before[0]) - stats.index_accesses();
        counters.pages_written += after[2] - before[2];
        traced_hashes.push(out.map(|rel| relation_hash(&rel)).ok());
    }
    tr.set_op(None);
    let db_bytes = dir_bytes(&traced_db);
    drop(runner);

    // The reference path: one thread and, for index_mixed, no index.
    // Writes are replayed so later reads see the same data.
    let reference = match cdb.as_deref() {
        Some(text) => setup(Some(text), &reference_db, None)?,
        None => db::open_catalog(&reference_db).map_err(err)?,
    };
    let mut runner = ScriptRunner::new(reference);
    runner.set_exec_options(ExecOptions::with_threads(1));
    let mut pick = Pcg32::seed_from_u64(seed ^ 0x0EF0_0EF0);
    let mut reference_hashes = Vec::with_capacity(ops.len());
    for op in &ops {
        let sampled = op.write || pick.gen_below_usize(REFERENCE_SHARE) == 0;
        reference_hashes.push(if sampled {
            Some(runner.run(&op.script).map(|rel| relation_hash(&rel)).ok())
        } else {
            None
        });
    }
    drop(runner);
    drop(setup_block(&reference_db)?);
    let calib_after = calib_ms();

    // An operation is correct when it succeeded, its output matches the
    // traced run's, and, when sampled, the reference path's.
    let mut failed = 0;
    let mut class_counts: Vec<(&str, usize)> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let ok = match &hashes[0][i] {
            Ok(h) => {
                let ok = hashes.iter().all(|pass| pass[i].as_ref() == Ok(h))
                    && traced_hashes[i] == Some(*h)
                    && reference_hashes[i].is_none_or(|r| r == Some(*h));
                if !ok {
                    eprintln!(
                        "operation {i} ({}) output mismatch:\n{}",
                        op.class, op.script
                    );
                }
                ok
            }
            Err(e) => {
                eprintln!("operation {i} ({}) failed: {e}", op.class);
                false
            }
        };
        if !ok {
            failed += 1;
        }
        match class_counts.iter_mut().find(|(c, _)| *c == op.class) {
            Some((_, n)) => *n += 1,
            None => class_counts.push((op.class, 1)),
        }
    }

    let mut record = format!(
        "# run {{\"workload\": \"{}\", \"seed\": {seed}, \"threads\": {threads}, \"nproc\": {}, \
         \"calib_before_ms\": {calib_before}, \"calib_after_ms\": {calib_after}, \"ops\": {{",
        workload.name(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    for (i, (class, count)) in class_counts.iter().enumerate() {
        record.push_str(&format!(
            "{}\"{class}\": {count}",
            if i == 0 { "" } else { ", " }
        ));
    }
    record.push_str("}}");

    let n = ops.len() as f64;
    let reads_ms: Vec<f64> = ops
        .iter()
        .zip(&latency_ms)
        .filter(|(op, _)| !op.write)
        .map(|(_, &ms)| ms)
        .collect();
    let end_to_end = vec![
        Metric::new("latency_p50_ms", quantile(&reads_ms, 0.5), "ms"),
        Metric::new("latency_p90_ms", quantile(&reads_ms, 0.9), "ms"),
        Metric::new(
            "throughput_ops_s",
            n / (latency_ms.iter().sum::<f64>() / 1e3),
            "1/s",
        ),
        Metric::new("ok_rate", (ops.len() - failed) as f64 / n, "ratio"),
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("peak_rss_mb", peak_rss, "MiB"),
    ];

    let spans = tr.spans();
    let selfs = self_times(spans);
    let per_op_ms = |name: &str| total_self_ns(spans, &selfs, name) as f64 / 1e6 / n;
    let per_op_us = |name: &str| total_self_ns(spans, &selfs, name) as f64 / 1e3 / n;
    let median_ms = |name: &str| {
        median(
            &durations(spans, name)
                .iter()
                .map(|&d| d as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    let c = &counters;
    let mut per_layer = vec![
        Metric::new("lang.load_ms", median_ms("lang.load"), "ms"),
        Metric::new("lang.parse_us", per_op_us("lang.parse"), "us"),
        Metric::new("lang.lower_us", per_op_us("lang.lower"), "us"),
        Metric::new("optimizer.us", per_op_us("optimizer"), "us"),
        Metric::new("op.select.self_ms", per_op_ms("op.select"), "ms"),
        Metric::new("op.join.self_ms", per_op_ms("op.join"), "ms"),
        Metric::new("op.project.self_ms", per_op_ms("op.project"), "ms"),
        Metric::new("op.diff.self_ms", per_op_ms("op.diff"), "ms"),
        Metric::new("op.bufferjoin.self_ms", per_op_ms("op.bufferjoin"), "ms"),
        Metric::new("op.knearest.self_ms", per_op_ms("op.knearest"), "ms"),
        Metric::new("exec.pairs_per_op", c.pairs as f64 / n, "count"),
        Metric::new(
            "exec.filter_reject_ratio",
            ratio(c.rejected as f64, c.checked as f64),
            "ratio",
        ),
        Metric::new("exec.fm_calls_per_op", c.fm_calls as f64 / n, "count"),
        Metric::new("exec.fm_peak_atoms", c.fm_peak as f64, "count"),
        Metric::new("exec.dnf_conjunctions_per_op", c.dnf as f64 / n, "count"),
        Metric::new("index.build_ms", median_ms("index.build"), "ms"),
        Metric::new(
            "index.accesses_per_probe",
            ratio(c.index_accesses as f64, c.probes as f64),
            "count",
        ),
        Metric::new(
            "index.candidates_per_row",
            ratio(c.candidates as f64, c.candidate_rows as f64),
            "ratio",
        ),
        Metric::new(
            "spatial.node_accesses_per_op",
            c.spatial_accesses as f64 / n,
            "count",
        ),
        Metric::new("storage.open_ms", median_ms("storage.open"), "ms"),
        Metric::new("storage.save_ms", median_ms("storage.save"), "ms"),
        Metric::new("storage.pages_read", c.pages_read as f64, "count"),
        Metric::new("storage.pages_written", c.pages_written as f64, "count"),
        Metric::new("storage.db_bytes", db_bytes as f64, "bytes"),
    ];
    // Every class of every workload, so each run reports the same names;
    // classes of other workloads read 0.
    for w in Workload::ALL {
        for class in w
            .read_classes()
            .iter()
            .map(|&(c, _)| c)
            .chain(w.write_class())
        {
            let ms: Vec<f64> = ops
                .iter()
                .zip(&latency_ms)
                .filter(|(op, _)| w == workload && op.class == class)
                .map(|(_, &ms)| ms)
                .collect();
            per_layer.push(Metric::new(
                format!("class.{class}.p50_ms"),
                median(&ms),
                "ms",
            ));
        }
    }
    // One traced pass against the median untraced pass, not against the
    // per-operation best, which no single pass reaches.
    let pass_totals: Vec<f64> = pass_ms.iter().map(|ms| ms.iter().sum()).collect();
    per_layer.push(Metric::new(
        "trace.overhead_ratio",
        traced_ms.iter().sum::<f64>() / median(&pass_totals),
        "ratio",
    ));
    per_layer.push(Metric::new(
        "host.calib_ms",
        (calib_before + calib_after) / 2.0,
        "ms",
    ));

    Ok(Report {
        correct: failed == 0,
        attempted: ops.len(),
        failed,
        record,
        end_to_end,
        per_layer,
        counters,
        spans: tr.to_jsonl(),
    })
}

/// Runs every workload, each in its own process, untraced then traced,
/// and returns one combined result line.
pub fn all(seed: u64, seconds: u64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(err)?;
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    for w in Workload::ALL {
        for trace in ["0", "1"] {
            let out = std::process::Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", trace])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(err)?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            if !out.status.success() {
                return Err(format!(
                    "{} --trace {trace} failed: {}",
                    w.name(),
                    out.status
                ));
            }
            println!("## {} --trace {trace}", w.name());
            let (body, last) = stdout
                .trim_end()
                .rsplit_once('\n')
                .unwrap_or(("", stdout.trim_end()));
            println!("{body}");
            let json = cqa::obs::json::parse(last).map_err(err)?;
            use cqa::obs::json::Json;
            let Json::Obj(fields) = json else {
                return Err("result is not an object".into());
            };
            for (key, value) in fields {
                match (key.as_str(), value) {
                    ("correct", Json::Bool(b)) => correct &= b,
                    ("attempted", Json::Num(v)) if trace == "0" => attempted += v as usize,
                    ("failed", Json::Num(v)) if trace == "0" => failed += v as usize,
                    ("metrics", Json::Obj(ms)) => {
                        for (name, m) in ms {
                            let Json::Obj(parts) = m else { continue };
                            let get = |k: &str| {
                                parts.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone())
                            };
                            if let (Some(Json::Num(v)), Some(Json::Str(u))) =
                                (get("value"), get("unit"))
                            {
                                metrics.push(Metric::new(format!("{}.{name}", w.name()), v, u));
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    Ok(result_line(correct, attempted, failed, &metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::valid_name;
    use cqa::obs::json::{parse, Json};

    fn tiny(workload: Workload, seed: u64) -> Report {
        let inputs = generate(workload, seed, 10, 1, Size::TINY);
        let work = PathBuf::from(WORK_DIR).join(format!(
            "test-{}-{seed}-{}",
            workload.name(),
            std::process::id()
        ));
        measure(workload, seed, inputs, &work).expect("a tiny run completes")
    }

    /// Metric names a section of `BENCHMARK.json` declares.
    fn declared(section: &str) -> Vec<String> {
        let text = include_str!("../../BENCHMARK.json");
        let Ok(Json::Obj(doc)) = parse(text) else {
            panic!("BENCHMARK.json is an object")
        };
        let Some((_, Json::Arr(items))) = doc.iter().find(|(k, _)| k == section) else {
            panic!("BENCHMARK.json has {section}")
        };
        items
            .iter()
            .map(|item| {
                let Json::Obj(fields) = item else {
                    panic!("metric entries are objects")
                };
                match fields.iter().find(|(k, _)| k == "name") {
                    Some((_, Json::Str(name))) => name.clone(),
                    _ => panic!("metric entries have a name"),
                }
            })
            .collect()
    }

    fn names(metrics: &[Metric]) -> Vec<String> {
        metrics.iter().map(|m| m.name.clone()).collect()
    }

    /// One test drives every workload: the counters come from the
    /// process-global metrics registry, so runs must not overlap.
    #[test]
    fn tiny_runs_are_correct_repeat_their_counters_and_report_declared_metrics() {
        for w in Workload::ALL {
            let a = tiny(w, 5);
            let b = tiny(w, 5);
            assert!(a.correct && b.correct, "{}: every output checks", w.name());
            assert_eq!(a.failed, 0);
            assert_eq!(
                a.counters,
                b.counters,
                "{}: counters repeat for one seed",
                w.name()
            );
            assert_eq!(names(&a.end_to_end), declared("end_to_end"), "{}", w.name());
            assert_eq!(names(&a.per_layer), declared("per_layer"), "{}", w.name());
            assert!(a
                .end_to_end
                .iter()
                .chain(&a.per_layer)
                .all(|m| valid_name(&m.name)));
            let c = &a.counters;
            match w {
                Workload::Hurricane => assert!(c.pairs > 0 && c.fm_calls > 0 && c.dnf > 0),
                Workload::IndexMixed => {
                    assert!(c.probes > 0 && c.pages_read > 0 && c.pages_written > 0)
                }
                Workload::Spatial => assert!(c.spatial_accesses > 0),
            }
        }
    }
}
