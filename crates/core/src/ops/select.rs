//! The selection operator `ς_ξ(R)` (§2.4).
//!
//! The selection condition ξ is a conjunction of constraints over the
//! relation's attributes. Under the heterogeneous model each conjunct is
//! evaluated per tuple:
//!
//! * predicates over **relational** attributes are evaluated against the
//!   stored values — a null never satisfies a predicate (narrow semantics);
//! * predicates over **constraint** attributes are *conjoined* with the
//!   tuple's constraint part, and the tuple survives iff the result is
//!   satisfiable;
//! * mixed predicates substitute the relational values and conjoin the
//!   residual.
//!
//! This is exactly the asymmetry of the paper's Example 3:
//! `select x=17` vs `select y=17` behave differently when `x` is relational
//! and `y` is constraint.

use crate::error::{CoreError, Result};
use crate::par::{run_chunks, ExecOptions, ExecStats};
use crate::relation::HRelation;
use crate::schema::{AttrKind, AttrType, Schema};
use crate::tuple::Tuple;
use crate::value::Value;
use cqa_constraints::{Atom, Conjunction, LinExpr, Rel};
use cqa_num::Rat;
use std::fmt;

/// Comparison operators of the surface syntax.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>` — only valid over relational attributes (the linear constraint
    /// class has no `≠` atoms; §2.4).
    Ne,
    /// `<=`
    Le,
    /// `<`
    Lt,
    /// `>=`
    Ge,
    /// `>`
    Gt,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Le => "<=",
            CmpOp::Lt => "<",
            CmpOp::Ge => ">=",
            CmpOp::Gt => ">",
        })
    }
}

/// One conjunct of a selection condition.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `Σ coeffᵢ·attrᵢ + constant  op  0` over rational attributes (named;
    /// resolved against the schema at evaluation time).
    Linear {
        /// Named attribute terms.
        terms: Vec<(String, Rat)>,
        /// Constant addend.
        constant: Rat,
        /// The comparison against zero.
        op: CmpOp,
    },
    /// String comparison on a relational attribute.
    Str {
        /// Attribute name.
        attr: String,
        /// `=` or `<>`.
        op: CmpOp,
        /// The literal to compare with.
        value: String,
    },
}

/// A conjunction of predicates — the ξ of `ς_ξ(R)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Selection {
    predicates: Vec<Predicate>,
}

impl Selection {
    /// The always-true selection.
    pub fn all() -> Selection {
        Selection::default()
    }

    /// The conjuncts.
    pub fn predicates(&self) -> &[Predicate] {
        &self.predicates
    }

    /// Adds an arbitrary predicate.
    pub fn with(mut self, p: Predicate) -> Selection {
        self.predicates.push(p);
        self
    }

    /// Adds `attr op value` for a rational comparison.
    pub fn cmp(self, attr: impl Into<String>, op: CmpOp, value: Rat) -> Selection {
        self.with(Predicate::Linear {
            terms: vec![(attr.into(), Rat::one())],
            constant: -value,
            op,
        })
    }

    /// Adds `attr op value` for an integer literal.
    pub fn cmp_int(self, attr: impl Into<String>, op: CmpOp, value: i64) -> Selection {
        self.cmp(attr, op, Rat::from_int(value))
    }

    /// Adds `attr₁ op attr₂` comparing two rational attributes.
    pub fn cmp_attrs(
        self,
        left: impl Into<String>,
        op: CmpOp,
        right: impl Into<String>,
    ) -> Selection {
        self.with(Predicate::Linear {
            terms: vec![(left.into(), Rat::one()), (right.into(), -Rat::one())],
            constant: Rat::zero(),
            op,
        })
    }

    /// Adds a string equality `attr = value`.
    pub fn str_eq(self, attr: impl Into<String>, value: impl Into<String>) -> Selection {
        self.with(Predicate::Str { attr: attr.into(), op: CmpOp::Eq, value: value.into() })
    }

    /// Adds a string disequality `attr <> value`.
    pub fn str_ne(self, attr: impl Into<String>, value: impl Into<String>) -> Selection {
        self.with(Predicate::Str { attr: attr.into(), op: CmpOp::Ne, value: value.into() })
    }

    /// All attribute names this selection mentions.
    pub fn attrs(&self) -> Vec<&str> {
        let mut out = Vec::new();
        for p in &self.predicates {
            match p {
                Predicate::Linear { terms, .. } => {
                    out.extend(terms.iter().map(|(n, _)| n.as_str()))
                }
                Predicate::Str { attr, .. } => out.push(attr.as_str()),
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Outcome of specializing one predicate against one tuple.
enum Applied {
    /// Tuple fails the predicate outright.
    Reject,
    /// Predicate reduced to a ground truth of `true`.
    Accept,
    /// Residual constraint to conjoin (involves constraint attributes).
    Residual(Vec<Atom>),
}

/// Validates a selection against a schema (attribute existence, types, and
/// the no-`≠`-over-constraints rule) without touching any tuples.
pub fn validate(schema: &Schema, selection: &Selection) -> Result<()> {
    for pred in selection.predicates() {
        match pred {
            Predicate::Str { attr, op, value: _ } => {
                let def = schema.attr(attr)?;
                if def.ty != AttrType::Str || def.kind != AttrKind::Relational {
                    return Err(CoreError::BadPredicate(format!(
                        "string predicate on non-string attribute {:?}",
                        attr
                    )));
                }
                if !matches!(op, CmpOp::Eq | CmpOp::Ne) {
                    return Err(CoreError::BadPredicate(format!(
                        "operator {} is not defined on strings",
                        op
                    )));
                }
            }
            Predicate::Linear { terms, op, .. } => {
                for (name, _) in terms {
                    let def = schema.attr(name)?;
                    if def.ty != AttrType::Rat {
                        return Err(CoreError::BadPredicate(format!(
                            "numeric predicate on string attribute {:?}",
                            name
                        )));
                    }
                    if *op == CmpOp::Ne && def.kind == AttrKind::Constraint {
                        return Err(CoreError::BadPredicate(
                            "<> over constraint attributes is not a linear constraint"
                                .to_string(),
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Applies `ς_ξ` to a relation with default [`ExecOptions`].
pub fn select(rel: &HRelation, selection: &Selection) -> Result<HRelation> {
    select_opts(rel, selection, &ExecOptions::default(), &ExecStats::new())
}

/// Applies `ς_ξ` with explicit execution options.
///
/// Tuples are independent, so the outer loop runs on the deterministic
/// chunked executor; output order matches the serial evaluation exactly.
/// With `bbox_filter` on, a tuple whose residual conjunction has a
/// float-empty [`cqa_constraints::QuickBox`] is rejected without the
/// exact satisfiability check — the box is an outward approximation, so
/// this skips only tuples the exact check would reject too (bit-identical
/// output either way).
pub fn select_opts(
    rel: &HRelation,
    selection: &Selection,
    opts: &ExecOptions,
    stats: &ExecStats,
) -> Result<HRelation> {
    validate(rel.schema(), selection)?;
    let schema = rel.schema();
    let arity = schema.arity();
    let governor = &opts.governor;
    let keep = |tuple: &Tuple| -> Result<Option<Tuple>> {
        governor.check()?;
        let mut residual: Conjunction = tuple.constraint().clone();
        for pred in selection.predicates() {
            match apply_predicate(schema, tuple, pred)? {
                Applied::Reject => return Ok(None),
                Applied::Accept => {}
                Applied::Residual(atoms) => {
                    for a in atoms {
                        residual.add(a);
                    }
                }
            }
        }
        if opts.bbox_filter {
            let rejected = residual.quick_box(arity).is_known_empty();
            stats.record(rejected);
            if rejected {
                return Ok(None);
            }
        }
        if residual.is_satisfiable_budgeted(governor.fm_budget(stats))? {
            Ok(Some(Tuple::from_parts(tuple.values().to_vec(), residual)))
        } else {
            Ok(None)
        }
    };
    let produced: Vec<Result<Tuple>> =
        run_chunks(rel.tuples(), opts.effective_threads(), Some(governor.token()), |tuple, out| {
            out.extend(keep(tuple).transpose())
        })
        .map_err(|_| governor.interrupt_error())?;
    let mut out = HRelation::new(schema.clone());
    for t in produced {
        out.insert(t?);
    }
    Ok(out)
}

fn apply_predicate(schema: &Schema, tuple: &Tuple, pred: &Predicate) -> Result<Applied> {
    match pred {
        Predicate::Str { attr, op, value } => {
            let def = schema.attr(attr)?;
            if def.ty != AttrType::Str || def.kind != AttrKind::Relational {
                return Err(CoreError::BadPredicate(format!(
                    "string predicate on non-string attribute {:?}",
                    attr
                )));
            }
            let idx = schema.position(attr)?;
            let held = match tuple.value(idx) {
                None => return Ok(Applied::Reject), // null: narrow
                Some(Value::Str(s)) => s == value,
                Some(_) => unreachable!("validated string attribute"),
            };
            let pass = match op {
                CmpOp::Eq => held,
                CmpOp::Ne => !held,
                other => {
                    return Err(CoreError::BadPredicate(format!(
                        "operator {} is not defined on strings",
                        other
                    )))
                }
            };
            Ok(if pass { Applied::Accept } else { Applied::Reject })
        }
        Predicate::Linear { terms, constant, op } => {
            // Build the linear expression, substituting relational values.
            let mut expr = LinExpr::constant(constant.clone());
            for (name, coeff) in terms {
                let def = schema.attr(name)?;
                if def.ty != AttrType::Rat {
                    return Err(CoreError::BadPredicate(format!(
                        "numeric predicate on string attribute {:?}",
                        name
                    )));
                }
                let idx = schema.position(name)?;
                match def.kind {
                    AttrKind::Constraint => expr.add_term(schema.var(idx), coeff.clone()),
                    AttrKind::Relational => match tuple.value(idx) {
                        None => return Ok(Applied::Reject), // null: narrow
                        Some(Value::Rat(v)) => {
                            let shifted = expr.constant_term() + &(coeff * v);
                            expr.set_constant(shifted);
                        }
                        Some(_) => unreachable!("validated rational attribute"),
                    },
                }
            }
            // ≠ requires a ground (fully relational) expression: the linear
            // constraint class has no disequality atoms.
            let atoms: Vec<Atom> = match op {
                CmpOp::Eq => vec![Atom::new(expr, Rel::Eq)],
                CmpOp::Le => vec![Atom::new(expr, Rel::Le)],
                CmpOp::Lt => vec![Atom::new(expr, Rel::Lt)],
                CmpOp::Ge => vec![Atom::new(-&expr, Rel::Le)],
                CmpOp::Gt => vec![Atom::new(-&expr, Rel::Lt)],
                CmpOp::Ne => {
                    if !expr.is_constant() {
                        return Err(CoreError::BadPredicate(
                            "<> over constraint attributes is not a linear constraint"
                                .to_string(),
                        ));
                    }
                    return Ok(if expr.constant_term().is_zero() {
                        Applied::Reject
                    } else {
                        Applied::Accept
                    });
                }
            };
            // Ground atoms decide immediately; others join the residual.
            if let Some(truth) = atoms[0].ground_truth() {
                return Ok(if truth { Applied::Accept } else { Applied::Reject });
            }
            Ok(Applied::Residual(atoms))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrDef;

    /// The paper's Example 3 relation:
    /// R = {(x = 1), (y = 1), (x = 17, y = 17)} with
    /// schema [x: relational, y: constraint].
    fn example3() -> HRelation {
        let schema =
            Schema::new(vec![AttrDef::rat_rel("x"), AttrDef::rat_con("y")]).unwrap();
        let mut r = HRelation::new(schema);
        r.insert_with(|b| b.set("x", 1)).unwrap();
        r.insert_with(|b| b.pin("y", Rat::from_int(1))).unwrap();
        r.insert_with(|b| b.set("x", 17).pin("y", Rat::from_int(17))).unwrap();
        r
    }

    #[test]
    fn example3_select_on_relational_attribute() {
        // ς_{x=17} R returns only {(x = 17, y = 17)}: the tuple (y = 1) has
        // a *null* x, which never matches (narrow).
        let r = example3();
        let out = select(&r, &Selection::all().cmp_int("x", CmpOp::Eq, 17)).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.tuples()[0].value(0), Some(&Value::int(17)));
    }

    #[test]
    fn example3_select_on_constraint_attribute() {
        // ς_{y=17} R returns {(x = 1, y = 17), (x = 17, y = 17)}: the first
        // tuple's unmentioned y is broad, so conjoining y=17 keeps it.
        let r = example3();
        let out = select(&r, &Selection::all().cmp_int("y", CmpOp::Eq, 17)).unwrap();
        assert_eq!(out.len(), 2);
        let xs: Vec<Option<&Value>> = out.tuples().iter().map(|t| t.value(0)).collect();
        assert!(xs.contains(&Some(&Value::int(1))));
        assert!(xs.contains(&Some(&Value::int(17))));
        // And the y=1 tuple is gone: 1 = 17 is unsatisfiable.
    }

    #[test]
    fn example2_broad_vs_narrow() {
        // Example 2: R = {(x = 1)} over constraint {x, y}: ς_{y=17} keeps
        // the tuple. The same data with y relational returns nothing.
        let cschema =
            Schema::new(vec![AttrDef::rat_con("x"), AttrDef::rat_con("y")]).unwrap();
        let mut constraint_rel = HRelation::new(cschema);
        constraint_rel.insert_with(|b| b.pin("x", Rat::from_int(1))).unwrap();
        let out =
            select(&constraint_rel, &Selection::all().cmp_int("y", CmpOp::Eq, 17)).unwrap();
        assert_eq!(out.len(), 1, "broad semantics: y = 17 admitted");
        assert!(out
            .contains_point(&[Value::int(1), Value::int(17)])
            .unwrap());

        let rschema =
            Schema::new(vec![AttrDef::rat_con("x"), AttrDef::rat_rel("y")]).unwrap();
        let mut rel_rel = HRelation::new(rschema);
        rel_rel.insert_with(|b| b.pin("x", Rat::from_int(1))).unwrap();
        let out = select(&rel_rel, &Selection::all().cmp_int("y", CmpOp::Eq, 17)).unwrap();
        assert!(out.is_empty(), "narrow semantics: missing y never matches");
    }

    #[test]
    fn range_selection_on_constraint_attribute() {
        let schema = Schema::new(vec![AttrDef::rat_con("t")]).unwrap();
        let mut r = HRelation::new(schema);
        r.insert_with(|b| b.range("t", 0, 10)).unwrap();
        r.insert_with(|b| b.range("t", 20, 30)).unwrap();
        let out = select(
            &r,
            &Selection::all()
                .cmp_int("t", CmpOp::Ge, 4)
                .cmp_int("t", CmpOp::Le, 9),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains_point(&[Value::int(5)]).unwrap());
        assert!(!out.contains_point(&[Value::int(2)]).unwrap(), "residual narrows the tuple");
    }

    #[test]
    fn string_predicates() {
        let schema = Schema::new(vec![AttrDef::str_rel("name")]).unwrap();
        let mut r = HRelation::new(schema);
        r.insert_with(|b| b.set("name", "ann")).unwrap();
        r.insert_with(|b| b.set("name", "bob")).unwrap();
        r.insert_with(|b| b).unwrap(); // null name
        let eq = select(&r, &Selection::all().str_eq("name", "ann")).unwrap();
        assert_eq!(eq.len(), 1);
        let ne = select(&r, &Selection::all().str_ne("name", "ann")).unwrap();
        assert_eq!(ne.len(), 1, "null fails <> too (narrow)");
    }

    #[test]
    fn attr_to_attr_comparison() {
        let schema = Schema::new(vec![AttrDef::rat_con("x"), AttrDef::rat_con("y")]).unwrap();
        let mut r = HRelation::new(schema);
        r.insert_with(|b| b.range("x", 0, 10).range("y", 5, 6)).unwrap();
        let out = select(&r, &Selection::all().cmp_attrs("x", CmpOp::Ge, "y")).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains_point(&[Value::int(6), Value::int(5)]).unwrap());
        assert!(!out.contains_point(&[Value::int(4), Value::int(5)]).unwrap());
    }

    #[test]
    fn bad_predicates_rejected() {
        let schema = Schema::new(vec![AttrDef::str_rel("s"), AttrDef::rat_con("x")]).unwrap();
        let r = HRelation::new(schema);
        assert!(select(&r, &Selection::all().cmp_int("s", CmpOp::Le, 3)).is_err());
        assert!(select(&r, &Selection::all().str_eq("x", "v")).is_err());
        assert!(select(&r, &Selection::all().cmp_int("missing", CmpOp::Eq, 1)).is_err());
        assert!(select(&r, &Selection::all().cmp_int("x", CmpOp::Ne, 1)).is_err());
    }

    #[test]
    fn ne_on_relational_rationals() {
        let schema = Schema::new(vec![AttrDef::rat_rel("age")]).unwrap();
        let mut r = HRelation::new(schema);
        r.insert_with(|b| b.set("age", 40)).unwrap();
        r.insert_with(|b| b.set("age", 41)).unwrap();
        let out = select(&r, &Selection::all().cmp_int("age", CmpOp::Ne, 40)).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.tuples()[0].value(0), Some(&Value::int(41)));
    }
}
