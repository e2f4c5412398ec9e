//! Seeded workload generators.
//!
//! Every workload is a fixed sequence of operations built from the seed
//! alone, so two runs with one seed do exactly the same work. Runs are
//! bounded by operation count, not by time: a time-bounded run would let
//! faster code perform more writes and grow the relation it reads.
//!
//! Operation classes carry weights that are multiples of 1/5 and every
//! run holds the exact class counts those weights give (a seeded shuffle
//! of a fixed multiset, not independent draws). The read percentiles the
//! benchmark gates, p50 and p90, then sit at least 0.1 in rank away from
//! every class boundary whatever order the classes sort in, so neither
//! lands on the seam between a cheap and an expensive class.

use cqa::core::{AttrDef, Catalog, HRelation, Schema};
use cqa::num::prng::Pcg32;
use cqa_bench::workload as paper;
use std::fmt::Write as _;

/// The §3.3 Hurricane instance, the base of the `hurricane` workload.
const HURRICANE_CDB: &str = include_str!("../../examples/data/hurricane.cdb");

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// §3.3: the five Hurricane queries on a densified path.
    Hurricane,
    /// §5.4: rectangle selections through a joint `[x, y]` index, with
    /// rare durable writes.
    IndexMixed,
    /// §4: whole-feature operators over points and polylines.
    Spatial,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [Workload::Hurricane, Workload::IndexMixed, Workload::Spatial];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Hurricane => "hurricane",
            Workload::IndexMixed => "index_mixed",
            Workload::Spatial => "spatial",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Read classes and their weights in fifths (the weights sum to 5).
    pub fn read_classes(self) -> &'static [(&'static str, usize)] {
        match self {
            Workload::Hurricane => &[("q1", 1), ("q2", 1), ("q3", 1), ("q4", 1), ("q5", 1)],
            // Experiment 3 of §5.4 reweighted off its 50% seam.
            Workload::IndexMixed => &[("both", 3), ("x_only", 1), ("y_only", 1)],
            Workload::Spatial => &[("bufferjoin", 4), ("knearest", 1)],
        }
    }

    /// The write class, if the workload writes.
    pub fn write_class(self) -> Option<&'static str> {
        match self {
            Workload::IndexMixed => Some("write"),
            _ => None,
        }
    }

    /// Set-ups per run, a multiple of 5 (one block before each of the
    /// three untraced passes, one before the traced pass, one at the end);
    /// `setup_s` is their median. Cheap set-ups repeat more.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::Hurricane => 30,
            Workload::IndexMixed => 5,
            Workload::Spatial => 20,
        }
    }

    /// Read and write counts for a run of nominally `seconds` seconds.
    ///
    /// The counts follow from the argument alone, never from a clock. The
    /// per-second rates size a whole run (every pass) at two to four times
    /// `seconds` on a 2-core x86-64 host; every run keeps at least
    /// [`MIN_READS`] reads so that p90 has ten samples beyond it.
    pub fn op_counts(self, seconds: u64) -> (usize, usize) {
        let (reads_per_s, writes_per_10s) = match self {
            Workload::Hurricane => (10, 0),
            Workload::IndexMixed => (30, 2),
            Workload::Spatial => (40, 0),
        };
        // A multiple of 10 puts p50, p90 and every class boundary on whole
        // ranks.
        let reads = (seconds as usize * reads_per_s).max(MIN_READS).div_ceil(10) * 10;
        let writes = (seconds as usize * writes_per_10s).div_ceil(10);
        (reads, writes)
    }
}

/// Fewest reads in a run: p90 of 100 samples has 10 beyond it.
pub const MIN_READS: usize = 100;

/// One operation: a script run through the public script API.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// The operation class (`q1`, `both`, `write`, ...).
    pub class: &'static str,
    /// The script text.
    pub script: String,
    /// Whether the operation writes (then indexes and saves the relation).
    pub write: bool,
}

/// What a user loads before the first query.
pub enum Source {
    /// `.cdb` text, parsed and loaded into a fresh catalog.
    Cdb(String),
    /// A catalog saved to a database directory, reopened with
    /// `open_catalog`, then indexed on `[x, y]`.
    Db(Catalog),
}

/// A workload's generated inputs.
pub struct Inputs {
    /// The data the user loads.
    pub source: Source,
    /// The operation sequence.
    pub ops: Vec<Op>,
}

/// Data sizes of the generated inputs.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Segments the hurricane path is split into (the paper: "in a real
    /// database, the hurricane path … would contain many more segments").
    pub path_segments: usize,
    /// Parcels added to the three of Figure 2.
    pub extra_parcels: usize,
    /// Stored boxes of `index_mixed`.
    pub boxes: usize,
    /// Points of `spatial`.
    pub points: usize,
}

impl Size {
    /// The benchmark's size: the §5.4 data file of 10,000 boxes.
    pub const FULL: Size = Size {
        path_segments: 128,
        extra_parcels: 117,
        boxes: 10_000,
        points: 2000,
    };
    /// A size small enough for unit tests in a debug build.
    #[cfg_attr(not(test), allow(dead_code))]
    pub const TINY: Size = Size {
        path_segments: 16,
        extra_parcels: 12,
        boxes: 400,
        points: 200,
    };
}

/// Generates a workload's inputs from a seed. `reads` and `writes` come
/// from [`Workload::op_counts`]; `reads` must be a multiple of 5.
pub fn generate(workload: Workload, seed: u64, reads: usize, writes: usize, size: Size) -> Inputs {
    assert!(reads.is_multiple_of(5), "reads must be a multiple of 5");
    let mut rng = Pcg32::seed_from_u64(seed ^ 0xC0DB_BE4C);
    let classes = schedule(workload.read_classes(), reads, &mut rng);
    match workload {
        Workload::Hurricane => hurricane(&classes, size, &mut rng),
        Workload::IndexMixed => index_mixed(seed, &classes, writes, size, &mut rng),
        Workload::Spatial => spatial(seed, &classes, size, &mut rng),
    }
}

/// A seeded shuffle holding exactly `weight/5 · reads` of each class.
pub fn schedule(
    classes: &[(&'static str, usize)],
    reads: usize,
    rng: &mut Pcg32,
) -> Vec<&'static str> {
    let mut out = Vec::with_capacity(reads);
    for &(class, weight) in classes {
        out.extend(std::iter::repeat_n(class, reads / 5 * weight));
    }
    for i in (1..out.len()).rev() {
        let j = rng.gen_below_usize(i + 1);
        out.swap(i, j);
    }
    out
}

/// Draws scripts until one differs from the previous operation's, so no
/// query repeats back to back.
fn push_distinct(ops: &mut Vec<Op>, mut op: impl FnMut() -> Op) {
    loop {
        let next = op();
        if ops.last().is_none_or(|last| last.script != next.script) {
            ops.push(next);
            return;
        }
    }
}

// ---------------------------------------------------------------- hurricane

const OWNERS: [&str; 12] = [
    "Ann", "Bob", "Carl", "Dina", "Elle", "Fay", "Gus", "Hal", "Ida", "Jon", "Kim", "Lee",
];

/// Quarter units, printed exactly as decimals.
fn quarters(q: i64) -> String {
    let sign = if q < 0 { "-" } else { "" };
    let q = q.abs();
    format!("{}{}.{:02}", sign, q / 4, (q % 4) * 25)
}

fn hurricane(classes: &[&'static str], size: Size, rng: &mut Pcg32) -> Inputs {
    let mut text = String::from(HURRICANE_CDB);
    // The densified path: t in [0, 16] in equal steps, x = t, y = 2. The
    // segment count is a power of two, so the bounds print exactly.
    let step = 16.0 / size.path_segments as f64;
    for i in 0..size.path_segments {
        let (t0, t1) = (i as f64 * step, (i + 1) as f64 * step);
        writeln!(
            text,
            "tuple Hurricane {{ t >= {t0}; t <= {t1}; x = t; y = 2 }}"
        )
        .unwrap();
    }
    // Rectangular parcels spread evenly along the path, one in six
    // crossing it: most parcels miss any one path segment, so joins
    // enumerate many mostly-disjoint pairs, and the share of hits does not
    // depend on the seed. Coordinates are in quarter units; the path is
    // at y = 2, which is 8 quarters.
    let mut parcels: Vec<String> = vec!["A".into(), "B".into(), "C".into()];
    let n = size.extra_parcels as i64;
    for p in 0..n {
        let id = format!("P{p:03}");
        let (w, h) = (rng.gen_range_i64(2, 8), rng.gen_range_i64(2, 12));
        let x0 = p * 72 / n + rng.gen_range_i64(0, 2);
        let y0 = match p % 6 {
            0 => 8 - rng.gen_range_i64(1, h - 1),
            1..=3 => rng.gen_range_i64(9, 24),
            _ => rng.gen_range_i64(-16, 7 - h),
        };
        writeln!(
            text,
            "tuple Land {{ landId = \"{id}\"; x >= {}; x <= {}; y >= {}; y <= {} }}",
            quarters(x0),
            quarters(x0 + w),
            quarters(y0),
            quarters(y0 + h)
        )
        .unwrap();
        // A cadastral history: two consecutive owners over [0, 20].
        let sold = rng.gen_range_i64(4, 16);
        for (from, to) in [(0, sold), (sold, 20)] {
            let name = OWNERS[rng.gen_below_usize(OWNERS.len())];
            writeln!(
                text,
                "tuple Landownership {{ name = \"{name}\"; t >= {from}; t <= {to}; landId = \"{id}\" }}"
            )
            .unwrap();
        }
        parcels.push(id);
    }

    let mut ops = Vec::with_capacity(classes.len());
    for &class in classes {
        push_distinct(&mut ops, || {
            let mut r = rng.clone();
            let parcel = &parcels[r.gen_below_usize(parcels.len())];
            let owner = OWNERS[r.gen_below_usize(OWNERS.len())];
            // A time window of `len` quarters within the path's [0, 16].
            let window = |r: &mut Pcg32, len: i64| {
                let a = r.gen_range_i64(0, 64 - len);
                (quarters(a), quarters(a + len))
            };
            let script = match class {
                // Owners of one parcel over time.
                "q1" => format!(
                    "R0 = select landId = \"{parcel}\" from Landownership\nR1 = project R0 on name, t\n"
                ),
                // Parcels the hurricane passed within a time window.
                "q2" => {
                    let (a, b) = window(&mut r, 24);
                    format!(
                        "R0 = select t >= {a}, t <= {b} from Hurricane\nR1 = join R0 and Land\nR2 = project R1 on landId\n"
                    )
                }
                // Owners whose land was hit within a time window.
                "q3" => {
                    let (a, b) = window(&mut r, 16);
                    format!(
                        "R0 = join Landownership and Land\nR1 = select t >= {a}, t <= {b} from Hurricane\nR2 = join R0 and R1\nR3 = project R2 on name\n"
                    )
                }
                // Parcels hit, and when, while one owner did not own them:
                // the time attribute makes the difference a DNF one.
                "q4" => format!(
                    "R0 = join Hurricane and Land\nR1 = project R0 on landId, t\nR2 = select name = \"{owner}\" from Landownership\nR3 = project R2 on landId, t\nR4 = diff R1 and R3\n"
                ),
                // When one parcel was hit.
                "q5" => format!(
                    "R0 = select landId = \"{parcel}\" from Land\nR1 = join Hurricane and R0\nR2 = project R1 on t\n"
                ),
                other => unreachable!("unknown hurricane class {other}"),
            };
            *rng = r;
            Op {
                class,
                script,
                write: false,
            }
        });
    }
    Inputs {
        source: Source::Cdb(text),
        ops,
    }
}

// -------------------------------------------------------------- index_mixed

/// The §5.4 box, rounded outward to whole units so the data stays exact
/// and small in rational arithmetic.
fn whole(b: &paper::Box2) -> (i64, i64, i64, i64) {
    (
        b.x.0.floor() as i64,
        b.x.1.ceil() as i64,
        b.y.0.floor() as i64,
        b.y.1.ceil() as i64,
    )
}

/// The stored relation: the first `n` boxes of the §5.4 data file.
pub fn box_relation(seed: u64, n: usize) -> HRelation {
    let schema = Schema::new(vec![
        AttrDef::str_rel("id"),
        AttrDef::rat_con("x"),
        AttrDef::rat_con("y"),
    ])
    .expect("valid schema");
    let mut rel = HRelation::new(schema);
    for (i, b) in paper::constraint_data(seed).iter().take(n).enumerate() {
        let (x0, x1, y0, y1) = whole(b);
        rel.insert_with(|t| {
            t.set("id", format!("b{i}").as_str())
                .range("x", x0, x1)
                .range("y", y0, y1)
        })
        .expect("valid tuple");
    }
    rel
}

fn index_mixed(
    seed: u64,
    classes: &[&'static str],
    writes: usize,
    size: Size,
    rng: &mut Pcg32,
) -> Inputs {
    let mut catalog = Catalog::new();
    catalog.register("R", box_relation(seed, size.boxes));
    // The §5.4 query file, one rectangle per read.
    let rects = paper::queries(seed ^ 0x005E_1EC7, classes.len() * 2);
    let mut rects = rects.iter().map(whole);
    let mut reads = Vec::with_capacity(classes.len());
    for &class in classes {
        push_distinct(&mut reads, || {
            let (x0, x1, y0, y1) = rects.next().expect("two rectangles per read suffice");
            let conds = match class {
                "both" => format!("x >= {x0}, x <= {x1}, y >= {y0}, y <= {y1}"),
                "x_only" => format!("x >= {x0}, x <= {x1}"),
                "y_only" => format!("y >= {y0}, y <= {y1}"),
                other => unreachable!("unknown index_mixed class {other}"),
            };
            Op {
                class,
                script: format!("Q = select {conds} from R\n"),
                write: false,
            }
        });
    }
    // Writes spread evenly through the reads, each a new box.
    let mut ops = Vec::with_capacity(reads.len() + writes);
    let gap = reads.len() / (writes + 1);
    for (i, read) in reads.into_iter().enumerate() {
        if i > 0 && i % gap == 0 && i / gap <= writes {
            let (x, y) = (rng.gen_range_i64(0, 3000), rng.gen_range_i64(0, 3000));
            let (w, h) = (rng.gen_range_i64(1, 100), rng.gen_range_i64(1, 100));
            ops.push(Op {
                class: "write",
                script: format!(
                    "insert into R {{ id = \"w{}\"; x >= {x}; x <= {}; y >= {y}; y <= {} }}\n",
                    i / gap,
                    x + w,
                    y + h
                ),
                write: true,
            });
        }
        ops.push(read);
    }
    Inputs {
        source: Source::Db(catalog),
        ops,
    }
}

// ------------------------------------------------------------------ spatial

/// Probe sets of each kind; an operation picks one.
const PROBE_SETS: usize = 8;
/// Polylines per buffer-join probe set (index-filtered, so cheap per line).
const BUFFER_PROBE_LINES: usize = 24;
/// Vertices per polyline.
const VERTICES: usize = 4;
/// Polylines per k-nearest probe set (exhaustive, so costly per line).
const NEAREST_PROBE_LINES: usize = 1;

/// Points from the §5.4 generator, polylines as random walks, and probe
/// sets of each operator's own size.
fn spatial(seed: u64, classes: &[&'static str], size: Size, rng: &mut Pcg32) -> Inputs {
    let mut text = String::from("spatial Points {\n");
    for (i, p) in paper::relational_data(seed)
        .iter()
        .take(size.points)
        .enumerate()
    {
        writeln!(
            text,
            "  feature \"p{i}\" point ({}, {});",
            p.x.0.round(),
            p.y.0.round()
        )
        .unwrap();
    }
    text.push_str("}\n");
    for (prefix, lines) in [
        ("Buffer", BUFFER_PROBE_LINES),
        ("Near", NEAREST_PROBE_LINES),
    ] {
        for s in 0..PROBE_SETS {
            writeln!(text, "spatial {prefix}{s} {{").unwrap();
            for l in 0..lines {
                write!(text, "  feature \"{prefix}{s}_{l}\" polyline").unwrap();
                let (mut x, mut y) = (rng.gen_range_i64(100, 2900), rng.gen_range_i64(100, 2900));
                for _ in 0..VERTICES {
                    write!(text, " ({x}, {y})").unwrap();
                    x = (x + rng.gen_range_i64(-60, 60)).clamp(0, 3000);
                    y = (y + rng.gen_range_i64(-60, 60)).clamp(0, 3000);
                }
                text.push_str(";\n");
            }
            text.push_str("}\n");
        }
    }

    let mut ops = Vec::with_capacity(classes.len());
    for &class in classes {
        push_distinct(&mut ops, || {
            let mut r = rng.clone();
            let set = r.gen_below_usize(PROBE_SETS);
            let script = match class {
                "bufferjoin" => {
                    let d = r.gen_range_i64(50, 80);
                    format!("B = bufferjoin Buffer{set} and Points distance {d}\n")
                }
                "knearest" => {
                    let k = r.gen_range_i64(1, 8);
                    format!("K = knearest Near{set} and Points k {k}\n")
                }
                other => unreachable!("unknown spatial class {other}"),
            };
            *rng = r;
            Op {
                class,
                script,
                write: false,
            }
        });
    }
    Inputs {
        source: Source::Cdb(text),
        ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::rank_index;

    fn same_source(a: &Source, b: &Source) -> bool {
        match (a, b) {
            (Source::Cdb(x), Source::Cdb(y)) => x == y,
            (Source::Db(x), Source::Db(y)) => x.get("R").ok() == y.get("R").ok(),
            _ => false,
        }
    }

    #[test]
    fn generators_are_deterministic_by_seed() {
        for w in Workload::ALL {
            let a = generate(w, 7, 20, 2, Size::TINY);
            let b = generate(w, 7, 20, 2, Size::TINY);
            assert_eq!(a.ops, b.ops, "{}", w.name());
            assert!(same_source(&a.source, &b.source), "{}", w.name());
            let c = generate(w, 8, 20, 2, Size::TINY);
            assert_ne!(a.ops, c.ops, "{}: another seed, other operations", w.name());
            assert!(
                !same_source(&a.source, &c.source),
                "{}: another seed, other data",
                w.name()
            );
        }
    }

    #[test]
    fn runs_hold_exact_class_counts_and_never_repeat_a_query_back_to_back() {
        for w in Workload::ALL {
            let (reads, writes) = w.op_counts(10);
            let inputs = generate(w, 3, reads, writes, Size::TINY);
            for &(class, weight) in w.read_classes() {
                let n = inputs.ops.iter().filter(|op| op.class == class).count();
                assert_eq!(n, reads / 5 * weight, "{} {class}", w.name());
            }
            let written = inputs.ops.iter().filter(|op| op.write).count();
            assert_eq!(written, writes, "{}", w.name());
            assert!(
                inputs.ops.windows(2).all(|p| p[0].script != p[1].script),
                "{}",
                w.name()
            );
        }
    }

    /// Every ordering of `items`.
    fn orderings<T: Copy>(items: &[T]) -> Vec<Vec<T>> {
        if items.is_empty() {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for i in 0..items.len() {
            let mut rest = items.to_vec();
            let first = rest.remove(i);
            for mut tail in orderings(&rest) {
                tail.insert(0, first);
                out.push(tail);
            }
        }
        out
    }

    /// Whatever order the classes' latencies sort in, p50 and p90 of the
    /// reads fall at least a tenth of the sample inside one class.
    #[test]
    fn class_weights_keep_p50_and_p90_ranks_off_class_boundaries() {
        for w in Workload::ALL {
            let weights: Vec<usize> = w.read_classes().iter().map(|&(_, k)| k).collect();
            assert_eq!(weights.iter().sum::<usize>(), 5, "{}", w.name());
            for seconds in 1..=60 {
                let (reads, _) = w.op_counts(seconds);
                assert!(
                    reads - 1 - rank_index(reads, 0.9) >= 10,
                    "ten samples beyond p90"
                );
                for order in orderings(&weights) {
                    let mut bounds = vec![0];
                    for k in order {
                        bounds.push(bounds.last().unwrap() + reads / 5 * k);
                    }
                    for q in [0.5, 0.9] {
                        // Samples from the rank to the nearest class boundary.
                        let rank = rank_index(reads, q) + 1;
                        let gap = bounds.iter().map(|&b| rank.abs_diff(b)).min().unwrap();
                        assert!(
                            10 * gap >= reads,
                            "{} q={q} reads={reads}: rank {rank} is {gap} from a boundary",
                            w.name()
                        );
                    }
                }
            }
        }
    }
}
