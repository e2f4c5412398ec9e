//! Step-wise script execution.
//!
//! §3.3: "CQA/CDB queries are broken up into multiple steps … All relation
//! names except for the original ones represent intermediate relations; the
//! last step of the query produces the query output." The runner evaluates
//! each statement (optimizing its plan first), registers the result under
//! the statement's target name, and returns the final result.

use crate::ast::{QueryExpr, Script, Statement};
use crate::lex::LangError;
use crate::lower::lower_expr;
use crate::parse::parse_script;
use cqa_core::{exec, optimizer, Catalog, ExecOptions, ExecStats, HRelation, Plan};

/// Executes scripts against a catalog, accumulating intermediate results.
pub struct ScriptRunner {
    catalog: Catalog,
    optimize: bool,
    exec_options: ExecOptions,
    stats: ExecStats,
}

impl ScriptRunner {
    /// A runner over the given catalog.
    pub fn new(catalog: Catalog) -> ScriptRunner {
        ScriptRunner {
            catalog,
            optimize: true,
            exec_options: ExecOptions::default(),
            stats: ExecStats::new(),
        }
    }

    /// Disables the optimizer (for tests and ablation benchmarks).
    pub fn without_optimizer(mut self) -> ScriptRunner {
        self.optimize = false;
        self
    }

    /// The execution options queries run with.
    pub fn exec_options(&self) -> &ExecOptions {
        &self.exec_options
    }

    /// Replaces the execution options (thread count, bbox filter,
    /// governor timeout and budgets).
    pub fn set_exec_options(&mut self, opts: ExecOptions) {
        self.exec_options = opts;
    }

    /// Execution statistics accumulated across every query this runner has
    /// run (filter counters, FM peak gauge).
    pub fn exec_stats(&self) -> &ExecStats {
        &self.stats
    }

    /// The underlying catalog (intermediates included).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable access to the catalog.
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Runs a script from source text; returns the last statement's result.
    pub fn run(&mut self, source: &str) -> Result<HRelation, LangError> {
        let script = parse_script(source)?;
        self.run_script(&script)
    }

    /// Runs a single-query script with per-node tracing (the engine behind
    /// `\explain analyze` and `\trace`): same lowering, optimization,
    /// execution options, and target registration as [`ScriptRunner::run`],
    /// plus the [`exec::TraceNode`] tree of the run. Multi-statement
    /// scripts and DDL/DML are rejected — a trace describes one plan.
    pub fn run_traced(
        &mut self,
        source: &str,
    ) -> Result<(HRelation, exec::TraceNode), LangError> {
        let script = parse_script(source)?;
        let [stmt] = &script.statements[..] else {
            return Err(LangError::new(1, 1, "trace expects exactly one statement"));
        };
        let Statement::Query { target, expr, line } = stmt else {
            return Err(LangError::new(1, 1, "trace expects a query statement"));
        };
        let plan = self.plan(expr, *line)?;
        let (result, trace) =
            exec::execute_traced_opts(&plan, &self.catalog, &self.exec_options, &self.stats)
                .map_err(|e| LangError::new(*line, 1, e.to_string()))?;
        self.catalog.register(target.clone(), result.clone());
        Ok((result, trace))
    }

    /// Lowers a query expression and, when enabled, optimizes it against
    /// the current catalog.
    fn plan(&self, expr: &QueryExpr, line: usize) -> Result<Plan, LangError> {
        let plan = lower_expr(expr, line)?;
        if !self.optimize {
            return Ok(plan);
        }
        optimizer::optimize(&plan, &self.catalog)
            .map_err(|e| LangError::new(line, 1, e.to_string()))
    }

    /// Runs a parsed script.
    pub fn run_script(&mut self, script: &Script) -> Result<HRelation, LangError> {
        let mut last: Option<HRelation> = None;
        for stmt in &script.statements {
            match stmt {
                Statement::Query { target, expr, line } => {
                    let plan = self.plan(expr, *line)?;
                    // The `?` below is the all-or-nothing anchor: on any
                    // execution error (including governor cancellation) the
                    // target is never registered, so the catalog is exactly
                    // as if the statement had not run.
                    let result =
                        exec::execute_opts(&plan, &self.catalog, &self.exec_options, &self.stats)
                            .map_err(|e| LangError::new(*line, 1, e.to_string()))?;
                    self.catalog.register(target.clone(), result.clone());
                    last = Some(result);
                }
                Statement::CreateRelation { name, schema, line } => {
                    if self.catalog.contains(name) {
                        return Err(LangError::new(
                            *line,
                            1,
                            format!("relation {:?} already exists (drop it first)", name),
                        ));
                    }
                    let rel = HRelation::new(schema.clone());
                    self.catalog.register(name.clone(), rel.clone());
                    last = Some(rel);
                }
                Statement::Insert { name, conds, line } => {
                    let rel = self
                        .catalog
                        .get(name)
                        .map_err(|e| LangError::new(*line, 1, e.to_string()))?;
                    let tuple =
                        crate::schema_def::build_tuple(rel.schema(), conds, *line)?;
                    let mut updated = rel.clone();
                    updated.insert(tuple);
                    self.catalog.register(name.clone(), updated.clone());
                    last = Some(updated);
                }
                Statement::Drop { name, line } => {
                    if let Some(rel) = self.catalog.remove(name) {
                        last = Some(rel);
                    } else if let Some(spatial) = self.catalog.remove_spatial(name) {
                        // Return the dropped features in constraint form.
                        let rel = cqa_core::spatial_bridge::spatial_to_hrelation(&spatial)
                            .map_err(|e| LangError::new(*line, 1, e.to_string()))?;
                        last = Some(rel);
                    } else {
                        return Err(LangError::new(
                            *line,
                            1,
                            format!("unknown relation {:?}", name),
                        ));
                    }
                }
            }
        }
        last.ok_or_else(|| LangError::new(1, 1, "empty script"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema_def::parse_cdb;
    use cqa_core::Value;

    fn runner() -> ScriptRunner {
        let mut cat = Catalog::new();
        parse_cdb(
            r#"
relation Land {
  landId: string relational;
  x: rational constraint;
  y: rational constraint;
}
tuple Land { landId = "A"; 0 <= x; x <= 2; 3 <= y; y <= 6 }
tuple Land { landId = "B"; 4 <= x; x <= 6; 0 <= y; y <= 2 }

spatial Cities {
  feature "c1" point (1, 4);
  feature "c2" point (100, 100);
}
spatial Wells {
  feature "w" point (0, 4);
}
"#,
        )
        .unwrap()
        .load_into(&mut cat);
        ScriptRunner::new(cat)
    }

    #[test]
    fn select_project_pipeline() {
        let mut r = runner();
        let out = r
            .run("R0 = select x >= 1, x <= 5 from Land\nR1 = project R0 on landId\n")
            .unwrap();
        assert_eq!(out.len(), 2, "both parcels intersect x ∈ [1,5]");
        // Intermediate steps are registered.
        assert!(r.catalog().get("R0").is_ok());
        assert!(r.catalog().get("R1").is_ok());
    }

    #[test]
    fn steps_feed_steps() {
        let mut r = runner();
        let out = r
            .run(
                "R0 = select landId = \"A\" from Land\n\
                 R1 = rename x to t in R0\n\
                 R2 = project R1 on landId, t\n\
                 R3 = select t >= 1 from R2\n",
            )
            .unwrap();
        assert_eq!(out.len(), 1);
        assert!(out
            .contains_point(&[Value::str("A"), Value::int(2)])
            .unwrap());
    }

    #[test]
    fn spatial_script() {
        let mut r = runner();
        let out = r.run("R = bufferjoin Wells and Cities distance 1\n").unwrap();
        assert_eq!(out.len(), 1);
        assert!(out
            .contains_point(&[Value::str("w"), Value::str("c1")])
            .unwrap());
        let out = r.run("K = knearest Wells and Cities k 1\n").unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn unsafe_distance_rejected_with_position() {
        let mut r = runner();
        let err = r.run("D = distance Wells and Cities\n").unwrap_err();
        assert!(err.msg.contains("unsafe") || err.msg.contains("BufferJoin"), "{}", err);
        assert_eq!(err.line, 1);
    }

    #[test]
    fn optimizer_does_not_change_results() {
        let script = "R0 = join Land and Land\nR1 = select x >= 1, landId = \"A\" from R0\nR2 = project R1 on landId\n";
        let mut with = runner();
        let mut without = runner().without_optimizer();
        assert_eq!(with.run(script).unwrap(), without.run(script).unwrap());
    }

    #[test]
    fn ddl_and_dml_statements() {
        let mut r = runner();
        let out = r
            .run(
                "create relation Notes { who: string relational; score: rational constraint }
                 insert into Notes { who = \"ann\"; score >= 0; score <= 10 }
                 insert into Notes { who = \"bob\"; score = 7 }
                 High = select score >= 7 from Notes
",
            )
            .unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.contains_point(&[Value::str("ann"), Value::int(9)]).unwrap());
        assert!(out.contains_point(&[Value::str("bob"), Value::int(7)]).unwrap());
        assert!(!out.contains_point(&[Value::str("bob"), Value::int(8)]).unwrap());
        // Drop removes the base relation; querying it afterwards errors.
        let dropped = r.run("drop Notes\n").unwrap();
        assert_eq!(dropped.len(), 2, "drop returns the removed relation");
        assert!(r.run("X = select score >= 0 from Notes\n").is_err());
        // Drop-then-create works; duplicate create is rejected.
        r.run("create relation Notes { who: string relational }
").unwrap();
        let err = r.run("create relation Notes { who: string relational }
").unwrap_err();
        assert!(err.msg.contains("already exists"), "{}", err);
        // Insert into an unknown relation errors with position.
        let err = r.run("insert into Ghost { x = 1 }
").unwrap_err();
        assert!(err.msg.contains("Ghost"));
        // Insert violating the schema errors: `who = 3` is neither a valid
        // string assignment nor a constraint over a constraint attribute.
        let err = r.run("insert into Notes { who = 3 }\n").unwrap_err();
        assert!(err.msg.contains("not a constraint attribute"), "{}", err);
    }

    #[test]
    fn drop_covers_spatial_relations() {
        let mut r = runner();
        let out = r.run("drop Cities
").unwrap();
        assert_eq!(out.len(), 2, "two city features returned in constraint form");
        assert!(r.catalog().get_spatial("Cities").is_err());
        assert!(r.run("drop Cities
").is_err(), "already gone");
    }

    #[test]
    fn drop_statement_parses_standalone() {
        let mut r = runner();
        let out = r.run("D = drop Land
");
        // `D = drop Land` is a *query* statement with unknown operator.
        assert!(out.is_err());
        // The proper form:
        let dropped = r.run("drop Land
").unwrap();
        assert_eq!(dropped.len(), 2);
        assert!(r.catalog().get("Land").is_err());
    }

    #[test]
    fn run_traced_matches_run_and_registers() {
        let script = "R0 = select x >= 1, x <= 5 from Land\n";
        let mut plain = runner();
        let expected = plain.run(script).unwrap();
        let mut traced = runner();
        let (out, trace) = traced.run_traced(script).unwrap();
        assert_eq!(out, expected);
        assert!(trace.label.starts_with("Select"), "{}", trace.label);
        assert!(traced.catalog().get("R0").is_ok(), "target registered");
        // Only single query statements are traceable.
        assert!(traced.run_traced("A = select x >= 1 from Land\nB = project A on landId\n").is_err());
        assert!(traced.run_traced("drop Land\n").is_err());
    }

    #[test]
    fn unknown_relation_reports_line() {
        let mut r = runner();
        let err = r.run("A = project Land on landId\nB = join A and Ghost\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.msg.contains("Ghost"));
    }
}
