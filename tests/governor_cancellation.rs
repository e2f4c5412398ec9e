//! Cancellation determinism: aborting a run at *any* governor check, under
//! *any* thread count, must behave exactly like a run that never started.
//!
//! The contract under test (the governor's all-or-nothing guarantee):
//!
//! * the run returns a typed error (`execution cancelled`), never a panic
//!   and never a partial result;
//! * the catalog is bit-identical to its pre-run state — the script
//!   runner registers a query target only on `Ok`, and the chunked
//!   executor discards all partial output when the token is raised;
//! * runs that are *not* tripped produce bit-identical results for every
//!   thread count.
//!
//! The trip point is driven by `Governor::trip_after(n)`, which raises
//! the cancellation token at the n-th governor check — a deterministic
//! stand-in for "a user hit Ctrl-C at an arbitrary moment".

use cqa::core::HRelation;
use cqa::lang::schema_def::parse_cdb;
use cqa::lang::ScriptRunner;

/// ~30 interval tuples: enough to cross the parallel executor's minimum
/// item count, so multi-thread cells genuinely run chunked.
fn dataset() -> String {
    let mut src = String::from(
        "relation R {\n  id: string relational;\n  x: rational constraint;\n}\n",
    );
    for i in 0..30 {
        src.push_str(&format!(
            "tuple R {{ id = \"t{:02}\"; {} <= x; x <= {} }}\n",
            i,
            i,
            i + 2
        ));
    }
    src
}

fn runner() -> ScriptRunner {
    let mut catalog = cqa::core::Catalog::new();
    parse_cdb(&dataset()).expect("static dataset").load_into(&mut catalog);
    ScriptRunner::new(catalog)
}

/// The query: difference runs on the chunked executor and checks the
/// governor once per left tuple, so every trip point 1..=30 is reachable.
const QUERY: &str = "Out = diff R and R\n";

/// Catalog snapshot for exact state comparison.
fn snapshot(r: &ScriptRunner) -> Vec<(String, HRelation)> {
    let mut names: Vec<String> = r.catalog().names().map(str::to_string).collect();
    names.sort();
    names
        .into_iter()
        .map(|n| {
            let rel = r.catalog().get(&n).expect("listed name resolves").clone();
            (n, rel)
        })
        .collect()
}

const THREADS: [usize; 5] = [0, 1, 2, 4, 8];

#[test]
fn tripped_runs_error_and_leave_no_trace() {
    for threads in THREADS {
        for trip_at in [1u64, 2, 3, 5, 9, 17, 30] {
            let mut r = runner();
            let mut opts = r.exec_options().clone();
            opts.threads = threads;
            opts.governor.trip_after(trip_at);
            r.set_exec_options(opts);

            let before = snapshot(&r);
            let err = r.run(QUERY).expect_err("tripped run must fail");
            assert!(
                err.to_string().contains("cancelled"),
                "threads={} trip={}: expected a cancellation error, got {}",
                threads,
                trip_at,
                err
            );
            assert_eq!(
                snapshot(&r),
                before,
                "threads={} trip={}: catalog must be as if the run never happened",
                threads,
                trip_at
            );
            assert!(
                !r.catalog().contains("Out"),
                "threads={} trip={}: no partial target registered",
                threads,
                trip_at
            );
        }
    }
}

#[test]
fn untripped_runs_are_bit_identical_across_thread_counts() {
    let baseline = {
        let mut r = runner();
        let mut opts = r.exec_options().clone();
        opts.threads = 1;
        r.set_exec_options(opts);
        r.run(QUERY).expect("baseline run")
    };
    for threads in THREADS {
        let mut r = runner();
        let mut opts = r.exec_options().clone();
        opts.threads = threads;
        r.set_exec_options(opts);
        let out = r.run(QUERY).expect("untripped run succeeds");
        assert_eq!(out, baseline, "threads={}: result must match serial run", threads);
        assert!(r.catalog().contains("Out"));
    }
}

#[test]
fn rearming_after_a_trip_recovers_fully() {
    // A governor trip must not poison the runner: the very next run with
    // the hook cleared succeeds and matches an untainted runner's output.
    let mut r = runner();
    let mut opts = r.exec_options().clone();
    opts.threads = 4;
    opts.governor.trip_after(2);
    r.set_exec_options(opts.clone());
    r.run(QUERY).expect_err("first run trips");

    opts.governor.trip_after(0); // disable the hook
    r.set_exec_options(opts);
    let recovered = r.run(QUERY).expect("second run succeeds");
    let fresh = runner().run(QUERY).expect("fresh run");
    assert_eq!(recovered, fresh);
}

/// Outer features of the spatial dataset: above the parallel executor's
/// minimum item count, so multi-thread cells genuinely run chunked.
const PROBES: u64 = 20;

/// `PROBES` probe points on a line and a grid of sites around them.
fn spatial_runner() -> ScriptRunner {
    let mut src = String::from("spatial Probes {\n");
    for i in 0..PROBES {
        src.push_str(&format!("  feature \"q{:02}\" point ({}, 0);\n", i, 3 * i));
    }
    src.push_str("}\nspatial Sites {\n");
    for i in 0..12 {
        for j in 0..3 {
            src.push_str(&format!("  feature \"s{:02}_{}\" point ({}, {});\n", i, j, 5 * i, 2 * j));
        }
    }
    src.push_str("}\n");
    let mut catalog = cqa::core::Catalog::new();
    parse_cdb(&src).expect("static dataset").load_into(&mut catalog);
    ScriptRunner::new(catalog)
}

/// Both whole-feature operators check the governor once per outer feature.
const SPATIAL_QUERIES: [&str; 2] =
    ["Out = bufferjoin Probes and Sites distance 4\n", "Out = knearest Probes and Sites k 3\n"];

#[test]
fn spatial_operators_obey_the_governor() {
    for query in SPATIAL_QUERIES {
        let serial = spatial_runner().run(query).expect("untripped run succeeds");
        assert!(!serial.is_empty(), "{}: the query has output to lose", query);
        for threads in [1usize, 2, 8] {
            let mut r = spatial_runner();
            let mut opts = r.exec_options().clone();
            opts.threads = threads;
            r.set_exec_options(opts.clone());
            let out = r.run(query).expect("untripped run");
            assert_eq!(out, serial, "{} threads={}", query, threads);

            for trip_at in 1..=PROBES {
                let mut r = spatial_runner();
                let opts = opts.clone();
                opts.governor.trip_after(trip_at);
                r.set_exec_options(opts);
                let before = snapshot(&r);
                let err = r.run(query).expect_err("tripped run must fail");
                assert!(
                    err.to_string().contains("cancelled"),
                    "{} threads={} trip={}: got {}",
                    query,
                    threads,
                    trip_at,
                    err
                );
                assert_eq!(snapshot(&r), before, "{} threads={} trip={}", query, threads, trip_at);
                assert!(!r.catalog().contains("Out"));
            }

            let mut r = spatial_runner();
            let mut timed = opts.clone();
            timed.governor.timeout = Some(std::time::Duration::ZERO);
            r.set_exec_options(timed);
            let err = r.run(query).expect_err("a zero timeout must trip");
            let msg = err.to_string();
            assert!(msg.contains("deadline exceeded"), "{} threads={}: {}", query, threads, msg);
            assert!(!r.catalog().contains("Out"));
        }
    }
}

/// Property form of the same contract: random trip points and thread
/// counts. Compiled only with `--features proptest` (tier-1 stays lean).
#[cfg(feature = "proptest")]
mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn any_trip_point_is_all_or_nothing(
            threads in 0usize..9,
            trip_at in 1u64..40,
        ) {
            let mut r = runner();
            let mut opts = r.exec_options().clone();
            opts.threads = threads;
            opts.governor.trip_after(trip_at);
            r.set_exec_options(opts);
            let before = snapshot(&r);
            match r.run(QUERY) {
                // Trip points beyond the run's total check count never fire.
                Ok(_) => prop_assert!(r.catalog().contains("Out")),
                Err(e) => {
                    prop_assert!(e.to_string().contains("cancelled"));
                    prop_assert_eq!(snapshot(&r), before);
                }
            }
        }
    }
}
