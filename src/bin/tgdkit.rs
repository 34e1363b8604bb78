//! The tgdkit command-line tool.
//!
//! ```text
//! tgdkit check   <rules-file>                        classify and profile a rule set
//! tgdkit chase   <rules-file> <data-file>            chase a database to a universal model
//! tgdkit certain <rules-file> <data-file> <query>    certain answers of a query
//! tgdkit entail  <rules-file> <tgd>                  decide Σ ⊨ σ
//! tgdkit rewrite <linear|guarded> <rules-file>       Algorithms 1 / 2 of PODS'21 §9.2
//! tgdkit audit   <rules-file>                        §3 model-theoretic property report
//! tgdkit separate <rules-file> <data-file> <n> <m>   separating edd for a non-member
//! ```
//!
//! Rules use the Datalog± surface syntax (`R(x,y) -> exists z : S(y,z).`),
//! data uses instance literals (`{ R(a,b), S(b,c) }`). Queries are written
//! as tgds whose head atom collects the answer variables, e.g.
//! `E(x,y), E(y,z) -> Ans(x,z)`.

use std::fmt::Write as _;
use std::process::ExitCode;
use tgdkit::core::diagram::{separating_edd, DiagramOptions};
use tgdkit::core::expressibility::{disjoint_union_closure_witness, union_closure_witness};
use tgdkit::core::properties::property_report;
use tgdkit::prelude::*;

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn load_rules(schema: &mut Schema, path: &str) -> Result<Vec<Tgd>, String> {
    let text = read_file(path)?;
    tgdkit::logic::parse_tgds(schema, &text).map_err(|e| format!("{path}: {e}"))
}

fn load_data(schema: &mut Schema, path: &str) -> Result<Instance, String> {
    let text = read_file(path)?;
    parse_instance(schema, &text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_check(rules_path: &str) -> Result<String, String> {
    let mut schema = Schema::default();
    let tgds = load_rules(&mut schema, rules_path)?;
    let set = TgdSet::new(schema.clone(), tgds).map_err(|e| e.to_string())?;
    let (n, m) = set.profile();
    let mut out = String::new();
    let _ = writeln!(out, "schema: {schema}");
    let _ = writeln!(out, "rules: {} (profile: TGD_{{{n},{m}}})", set.len());
    for tgd in set.tgds() {
        let _ = writeln!(
            out,
            "  [{:<16}] {}",
            tgd.class().most_specific(),
            tgd.display(&schema)
        );
    }
    let _ = writeln!(
        out,
        "classes: full={} linear={} guarded={} frontier-guarded={}",
        set.is_full(),
        set.is_linear(),
        set.is_guarded(),
        set.is_frontier_guarded()
    );
    let _ = writeln!(
        out,
        "weakly acyclic (chase terminates on every input): {}",
        is_weakly_acyclic(&schema, set.tgds())
    );
    Ok(out)
}

fn cmd_chase(rules_path: &str, data_path: &str) -> Result<String, String> {
    let mut schema = Schema::default();
    let tgds = load_rules(&mut schema, rules_path)?;
    let data = load_data(&mut schema, data_path)?;
    // Re-validate the rules against the (possibly extended) schema.
    let set = TgdSet::new(schema, tgds).map_err(|e| e.to_string())?;
    let result = chase(
        &data,
        set.tgds(),
        ChaseVariant::Restricted,
        ChaseBudget::default(),
    );
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} facts, {} nulls, {} rounds, {}",
        result.instance.fact_count(),
        result.nulls.len(),
        result.rounds,
        if result.terminated() {
            "terminated (universal model)"
        } else {
            "budget exceeded (partial chase)"
        }
    );
    let _ = writeln!(out, "{}", result.instance);
    Ok(out)
}

fn cmd_certain(rules_path: &str, data_path: &str, query_text: &str) -> Result<String, String> {
    let mut schema = Schema::default();
    let tgds = load_rules(&mut schema, rules_path)?;
    let data = load_data(&mut schema, data_path)?;
    let query_tgd = tgdkit::logic::parse_tgd(&mut schema, query_text).map_err(|e| e.to_string())?;
    let set = TgdSet::new(schema, tgds).map_err(|e| e.to_string())?;
    let answer_vars: Vec<Var> = query_tgd.head()[0].args.to_vec();
    let q = Cq::new(query_tgd.body().to_vec(), answer_vars).map_err(|e| e.to_string())?;
    let result = certain_answers(&data, set.tgds(), &q, ChaseBudget::default());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} certain answers ({}):",
        result.answers.len(),
        if result.complete {
            "complete"
        } else {
            "sound but possibly incomplete"
        }
    );
    for tuple in &result.answers {
        let rendered: Vec<String> = tuple
            .iter()
            .map(|e| {
                result
                    .chase
                    .instance
                    .name_of(*e)
                    .map(str::to_string)
                    .unwrap_or_else(|| format!("e{}", e.0))
            })
            .collect();
        let _ = writeln!(out, "  ({})", rendered.join(", "));
    }
    Ok(out)
}

fn cmd_entail(rules_path: &str, tgd_text: &str) -> Result<String, String> {
    let mut schema = Schema::default();
    let tgds = load_rules(&mut schema, rules_path)?;
    let candidate = tgdkit::logic::parse_tgd(&mut schema, tgd_text).map_err(|e| e.to_string())?;
    let set = TgdSet::new(schema.clone(), tgds).map_err(|e| e.to_string())?;
    let (verdict, _) = entails_auto(
        &Run::default(),
        &schema,
        set.tgds(),
        &candidate,
        ChaseBudget::default(),
    );
    Ok(format!(
        "Σ ⊨ {} : {:?}\n",
        candidate.display(&schema),
        verdict
    ))
}

fn cmd_rewrite(target: &str, rules_path: &str) -> Result<String, String> {
    let mut schema = Schema::default();
    let tgds = load_rules(&mut schema, rules_path)?;
    let set = TgdSet::new(schema.clone(), tgds).map_err(|e| e.to_string())?;
    let opts = RewriteOptions {
        parallel: true,
        ..Default::default()
    };
    let rewrite_target = match target {
        "linear" => {
            if !set.is_guarded() {
                return Err("rewrite linear expects a guarded rule set (Algorithm 1)".into());
            }
            RewriteTarget::Linear
        }
        "guarded" => {
            if !set.is_frontier_guarded() {
                return Err(
                    "rewrite guarded expects a frontier-guarded rule set (Algorithm 2)".into(),
                );
            }
            RewriteTarget::Guarded
        }
        other => return Err(format!("unknown rewrite target {other:?} (linear|guarded)")),
    };
    let (outcome, _, _) =
        rewrite(&Run::default(), &set, rewrite_target, &opts, None).map_err(|e| e.to_string())?;
    let mut out = String::new();
    match outcome {
        RewriteOutcome::Rewritten(rewriting) => {
            let _ = writeln!(out, "rewritable; equivalent {target} set:");
            for tgd in &rewriting {
                let _ = writeln!(out, "  {}", tgd.display(&schema));
            }
        }
        RewriteOutcome::NotRewritable => {
            let _ = writeln!(out, "NOT rewritable into {target} tgds (definitive)");
        }
        RewriteOutcome::Cancelled => {
            let _ = writeln!(
                out,
                "cancelled before a verdict (deadline or cancel signal)"
            );
        }
        RewriteOutcome::Suspended => {
            let _ = writeln!(out, "suspended on the memory budget before a verdict");
        }
        RewriteOutcome::Inconclusive => {
            // The Appendix F closure refutations often settle what the
            // budgeted candidate search could not.
            let witness = match target {
                "linear" => union_closure_witness(&set, 6, 0),
                _ => disjoint_union_closure_witness(&set, 6, 0),
            };
            match witness {
                Some(w) => {
                    let _ = writeln!(
                        out,
                        "NOT rewritable into {target} tgds: closure violation witness"
                    );
                    let _ = writeln!(out, "  model A: {}", w.left);
                    let _ = writeln!(out, "  model B: {}", w.right);
                    let _ = writeln!(
                        out,
                        "  their {}union violates the rules: {}",
                        if w.disjoint { "disjoint " } else { "" },
                        w.union
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "inconclusive within default budgets (try larger atom budgets via the library API)"
                    );
                }
            }
        }
    }
    Ok(out)
}

fn cmd_audit(rules_path: &str) -> Result<String, String> {
    let mut schema = Schema::default();
    let tgds = load_rules(&mut schema, rules_path)?;
    let set = TgdSet::new(schema, tgds).map_err(|e| e.to_string())?;
    let ontology = TgdOntology::new(set.clone());
    let report = property_report(&ontology, set.tgds(), 3, 42);
    let mut out = String::new();
    let _ = writeln!(out, "critical (k ≤ 3):        {:?}", report.critical);
    let _ = writeln!(out, "⊗-closed (sampled):      {:?}", report.product_closed);
    let _ = writeln!(
        out,
        "∩-closed (sampled):      {:?}",
        report.intersection_closed
    );
    let _ = writeln!(out, "∪-closed (sampled):      {:?}", report.union_closed);
    let _ = writeln!(
        out,
        "domain independent:      {:?}",
        report.domain_independent
    );
    let _ = writeln!(out, "members sampled:         {}", report.sampled_members);
    Ok(out)
}

fn cmd_separate(rules_path: &str, data_path: &str, n: &str, m: &str) -> Result<String, String> {
    let mut schema = Schema::default();
    let tgds = load_rules(&mut schema, rules_path)?;
    let data = load_data(&mut schema, data_path)?;
    let set = TgdSet::new(schema.clone(), tgds).map_err(|e| e.to_string())?;
    let n: usize = n.parse().map_err(|_| "n must be a number".to_string())?;
    let m: usize = m.parse().map_err(|_| "m must be a number".to_string())?;
    if satisfies_tgds(&data, set.tgds()) {
        return Ok("the instance is a member of the ontology: nothing to separate\n".into());
    }
    match separating_edd(&set, &data, n, m, &DiagramOptions::default()) {
        Some(edd) => Ok(format!(
            "separating edd (satisfied by every member, violated by the instance):\n  {}\n",
            edd.display(&schema)
        )),
        None => Ok(format!(
            "no separating edd found at ({n},{m}) within budget\n"
        )),
    }
}

fn cmd_model(rules_path: &str, data_path: &str) -> Result<String, String> {
    use tgdkit::chase_crate::{finite_model, SearchBudget};
    let mut schema = Schema::default();
    let tgds = load_rules(&mut schema, rules_path)?;
    let data = load_data(&mut schema, data_path)?;
    let set = TgdSet::new(schema, tgds).map_err(|e| e.to_string())?;
    match finite_model(set.tgds(), &data, &SearchBudget::default()) {
        Some(model) => Ok(format!(
            "finite model with {} facts over {} elements:\n{}\n",
            model.fact_count(),
            model.dom().len(),
            model
        )),
        None => Ok("no finite model found within the search budget\n".into()),
    }
}

const USAGE: &str = "\
tgdkit — model-theoretic toolkit for tgd ontologies (PODS'21 reproduction)

USAGE:
  tgdkit check    <rules-file>
  tgdkit chase    <rules-file> <data-file>
  tgdkit certain  <rules-file> <data-file> '<body -> Ans(vars)>'
  tgdkit entail   <rules-file> '<tgd>'
  tgdkit rewrite  <linear|guarded> <rules-file>
  tgdkit audit    <rules-file>
  tgdkit separate <rules-file> <data-file> <n> <m>
  tgdkit model    <rules-file> <data-file>
";

fn run(args: &[String]) -> Result<String, String> {
    match args {
        [cmd, rules] if cmd == "check" => cmd_check(rules),
        [cmd, rules, data] if cmd == "chase" => cmd_chase(rules, data),
        [cmd, rules, data, query] if cmd == "certain" => cmd_certain(rules, data, query),
        [cmd, rules, tgd] if cmd == "entail" => cmd_entail(rules, tgd),
        [cmd, target, rules] if cmd == "rewrite" => cmd_rewrite(target, rules),
        [cmd, rules] if cmd == "audit" => cmd_audit(rules),
        [cmd, rules, data, n, m] if cmd == "separate" => cmd_separate(rules, data, n, m),
        [cmd, rules, data] if cmd == "model" => cmd_model(rules, data),
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_temp(name: &str, contents: &str) -> String {
        let path = std::env::temp_dir().join(format!("tgdkit-test-{name}-{}", std::process::id()));
        std::fs::write(&path, contents).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn check_reports_classes() {
        let rules = write_temp("check", "E(x,y) -> exists z : E(y,z).");
        let out = cmd_check(&rules).unwrap();
        assert!(out.contains("linear"));
        assert!(out.contains("weakly acyclic") && out.contains("false"));
        std::fs::remove_file(rules).ok();
    }

    #[test]
    fn chase_produces_a_model() {
        let rules = write_temp("chase-rules", "E(x,y), E(y,z) -> E(x,z).");
        let data = write_temp("chase-data", "E(a,b), E(b,c)");
        let out = cmd_chase(&rules, &data).unwrap();
        assert!(out.contains("3 facts"));
        assert!(out.contains("terminated"));
        std::fs::remove_file(rules).ok();
        std::fs::remove_file(data).ok();
    }

    #[test]
    fn certain_answers_render_names() {
        let rules = write_temp("certain-rules", "Emp(x) -> exists d : In(x,d).");
        let data = write_temp("certain-data", "Emp(ann)");
        let out = cmd_certain(&rules, &data, "In(x,d) -> Ans(x)").unwrap();
        assert!(out.contains("1 certain answers"));
        assert!(out.contains("(ann)"));
        std::fs::remove_file(rules).ok();
        std::fs::remove_file(data).ok();
    }

    #[test]
    fn entail_decides() {
        let rules = write_temp("entail-rules", "P(x) -> Q(x). Q(x) -> R(x).");
        let out = cmd_entail(&rules, "P(x) -> R(x)").unwrap();
        assert!(out.contains("Proved"));
        std::fs::remove_file(rules).ok();
    }

    #[test]
    fn rewrite_linear_works() {
        let rules = write_temp("rw-rules", "R(x,y), R(x,x) -> T(x). R(x,y) -> T(x).");
        let out = cmd_rewrite("linear", &rules).unwrap();
        assert!(out.contains("rewritable"));
        std::fs::remove_file(rules).ok();
    }

    #[test]
    fn rewrite_refutes_the_gadget_via_union_closure() {
        let rules = write_temp("rw-gadget", "R(x), P(x) -> T(x).");
        let out = cmd_rewrite("linear", &rules).unwrap();
        assert!(out.contains("NOT rewritable"), "got: {out}");
        assert!(out.contains("union violates"));
        std::fs::remove_file(rules).ok();
    }

    #[test]
    fn rewrite_validates_input_class() {
        let rules = write_temp("rw-bad", "R(x,y), S(y,z) -> T(x,z).");
        assert!(cmd_rewrite("linear", &rules).is_err());
        assert!(cmd_rewrite("bogus", &rules).is_err());
        std::fs::remove_file(rules).ok();
    }

    #[test]
    fn separate_produces_an_edd() {
        let rules = write_temp("sep-rules", "E(x,y) -> E(y,x).");
        let data = write_temp("sep-data", "E(a,b)");
        let out = cmd_separate(&rules, &data, "2", "0").unwrap();
        assert!(out.contains("separating edd"));
        std::fs::remove_file(rules).ok();
        std::fs::remove_file(data).ok();
    }

    #[test]
    fn model_finds_finite_models_for_divergent_sets() {
        let rules = write_temp("model-rules", "E(x,y) -> exists z : E(y,z).");
        let data = write_temp("model-data", "E(a,b)");
        let out = cmd_model(&rules, &data).unwrap();
        assert!(out.contains("finite model"), "got: {out}");
        std::fs::remove_file(rules).ok();
        std::fs::remove_file(data).ok();
    }

    #[test]
    fn usage_on_bad_args() {
        assert!(run(&["bogus".to_string()]).is_err());
        assert!(run(&[]).is_err());
    }
}
