//! The difference operator `R₁ − R₂` (§2.4).
//!
//! The only operator that needs **negation** of constraint formulas: a
//! tuple `t₁` survives as `φ(t₁) ∧ ¬(φ(t₂¹) ∨ …)` over the `t₂` whose
//! relational parts match. The negation is expanded back to DNF, so one
//! input tuple can produce several output tuples — this is the expensive
//! operator of the algebra, and the reason the closure of the linear class
//! under complement (within a conjunctive block) matters.
//!
//! Relational parts match when their value vectors are identical, with
//! `null = null` (two narrow-missing values are the same row shape, as in
//! SQL's `EXCEPT`).

use crate::error::Result;
use crate::par::{run_chunks, Counter, ExecOptions, ExecStats};
use crate::relation::HRelation;
use crate::tuple::Tuple;
use cqa_constraints::{Dnf, QuickBox};

/// Applies the difference `left − right` with default [`ExecOptions`].
pub fn difference(left: &HRelation, right: &HRelation) -> Result<HRelation> {
    difference_opts(left, right, &ExecOptions::default(), &ExecStats::new())
}

/// Applies the difference with explicit execution options.
///
/// Left tuples are independent — each is reduced against its own matching
/// subtrahends — so the outer loop runs on the deterministic chunked
/// executor and the output order matches the serial loop for every thread
/// count (the trailing dedup is order-stable).
///
/// With `bbox_filter` on, subtrahends whose bounding box is provably
/// disjoint from the minuend's are pruned before the DNF negation: such a
/// subtrahend removes nothing from the minuend, so semantics are
/// unchanged, but skipping it avoids the negation blow-up (the expensive
/// part of this operator). Unlike `select`/`join`, pruning can change the
/// *syntactic* shape of the result (fewer redundant splits), so
/// determinism comparisons should hold the filter setting fixed.
pub fn difference_opts(
    left: &HRelation,
    right: &HRelation,
    opts: &ExecOptions,
    stats: &ExecStats,
) -> Result<HRelation> {
    left.schema().require_same(right.schema())?;
    let arity = left.schema().arity();

    // Hoisted: each right tuple's box, computed once.
    let rights: Vec<(&Tuple, QuickBox)> = right
        .tuples()
        .iter()
        .map(|rt| (rt, rt.constraint().quick_box(arity)))
        .collect();

    let governor = &opts.governor;
    let produced: Vec<Result<Tuple>> =
        run_chunks(left.tuples(), opts.effective_threads(), Some(governor.token()), |lt, out| {
            if let Err(e) = governor.check() {
                out.push(Err(e));
                return;
            }
            // All right tuples whose relational part is identical.
            let matching: Vec<&(&Tuple, QuickBox)> =
                rights.iter().filter(|(rt, _)| rt.values() == lt.values()).collect();
            let kept: Vec<&Tuple> = if opts.bbox_filter && !matching.is_empty() {
                let minuend_box = lt.constraint().quick_box(arity);
                matching
                    .iter()
                    .filter_map(|(rt, rbox)| {
                        let pruned = minuend_box.disjoint(rbox);
                        stats.record(pruned);
                        (!pruned).then_some(*rt)
                    })
                    .collect()
            } else {
                matching.iter().map(|(rt, _)| *rt).collect()
            };
            if kept.is_empty() {
                out.push(Ok(lt.clone()));
                return;
            }
            let minuend = Dnf::from_conjunction(lt.constraint().clone());
            let subtrahend =
                Dnf::from_conjunctions(kept.iter().map(|rt| rt.constraint().clone()));
            // The negation expansion is the algebra's exponential corner:
            // the governor's DNF budget bounds it with a typed error, and
            // every conjunction it constructs is counted into `stats`.
            let remainder = match minuend.minus_counted(
                &subtrahend,
                governor.budgets.max_dnf_conjunctions,
                Some(stats.cell(Counter::DnfConjunctions)),
            ) {
                Ok(r) => r.normalize(),
                Err(e) => {
                    out.push(Err(e.into()));
                    return;
                }
            };
            out.extend(
                remainder
                    .conjunctions()
                    .iter()
                    .map(|conj| Ok(Tuple::from_parts(lt.values().to_vec(), conj.clone()))),
            );
        })
        .map_err(|_| governor.interrupt_error())?;

    let mut out = HRelation::new(left.schema().clone());
    for t in produced {
        out.insert(t?);
    }
    out.dedup();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrDef, Schema};
    use crate::value::Value;

    fn n(i: i64) -> Value {
        Value::int(i)
    }

    fn interval_rel(rows: &[(&str, i64, i64)]) -> HRelation {
        let s = Schema::new(vec![AttrDef::str_rel("id"), AttrDef::rat_con("x")]).unwrap();
        let mut r = HRelation::new(s);
        for &(id, lo, hi) in rows {
            r.insert_with(|b| b.set("id", id).range("x", lo, hi)).unwrap();
        }
        r
    }

    #[test]
    fn difference_carves_holes() {
        let a = interval_rel(&[("p", 0, 10)]);
        let b = interval_rel(&[("p", 3, 5)]);
        let out = difference(&a, &b).unwrap();
        assert!(out.contains_point(&[Value::str("p"), n(1)]).unwrap());
        assert!(!out.contains_point(&[Value::str("p"), n(4)]).unwrap());
        assert!(out.contains_point(&[Value::str("p"), n(9)]).unwrap());
        // Boundary points are removed too (closed subtrahend).
        assert!(!out.contains_point(&[Value::str("p"), n(3)]).unwrap());
        assert_eq!(out.len(), 2, "split into two interval tuples");
    }

    #[test]
    fn difference_respects_relational_key() {
        // Subtracting q's interval must not affect p's.
        let a = interval_rel(&[("p", 0, 10), ("q", 0, 10)]);
        let b = interval_rel(&[("q", 0, 10)]);
        let out = difference(&a, &b).unwrap();
        assert!(out.contains_point(&[Value::str("p"), n(5)]).unwrap());
        assert!(!out.contains_point(&[Value::str("q"), n(5)]).unwrap());
    }

    #[test]
    fn subtracting_everything_empties() {
        let a = interval_rel(&[("p", 0, 10)]);
        let out = difference(&a, &a).unwrap();
        assert!(out.is_empty() || out.tuples().iter().all(|t| !t.is_satisfiable()));
        // And its semantics is empty regardless of syntax:
        assert!(!out.contains_point(&[Value::str("p"), n(5)]).unwrap());
    }

    #[test]
    fn multiple_subtrahends_union() {
        let a = interval_rel(&[("p", 0, 10)]);
        let b = interval_rel(&[("p", 0, 4), ("p", 6, 10)]);
        let out = difference(&a, &b).unwrap();
        assert!(out.contains_point(&[Value::str("p"), n(5)]).unwrap());
        assert!(!out.contains_point(&[Value::str("p"), n(2)]).unwrap());
        assert!(!out.contains_point(&[Value::str("p"), n(8)]).unwrap());
    }

    #[test]
    fn purely_relational_difference() {
        let mk = |rows: &[i64]| {
            let s = Schema::new(vec![AttrDef::rat_rel("v")]).unwrap();
            let mut r = HRelation::new(s);
            for &x in rows {
                r.insert_with(|b| b.set("v", x)).unwrap();
            }
            r
        };
        let out = difference(&mk(&[1, 2, 3]), &mk(&[2])).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.contains_point(&[n(1)]).unwrap());
        assert!(!out.contains_point(&[n(2)]).unwrap());
    }

    #[test]
    fn schema_mismatch_rejected() {
        let a = interval_rel(&[]);
        let s2 = Schema::new(vec![AttrDef::str_rel("id"), AttrDef::rat_rel("x")]).unwrap();
        let b = HRelation::new(s2);
        assert!(difference(&a, &b).is_err());
    }
}
