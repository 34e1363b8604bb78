//! The rewriting procedures of paper §9.2: decide whether a guarded
//! ontology can be expressed with linear tgds (Algorithm 1) and whether a
//! frontier-guarded one can be expressed with guarded tgds (Algorithm 2) —
//! and build the rewriting when it exists.
//!
//! Run with: `cargo run --example rewrite_classes`

use tgdkit::core::enumerate::EnumOptions;
use tgdkit::prelude::*;

/// Runs Algorithm 1 (`Linear`) or 2 (`Guarded`) on `set` and prints the
/// outcome.
fn show(set: &TgdSet, target: RewriteTarget, opts: &RewriteOptions, schema: &Schema) {
    let (outcome, _stats, _) = rewrite(&Run::default(), set, target, opts, None)
        .expect("a fresh run has no checkpoint to mismatch");
    match &outcome {
        RewriteOutcome::Rewritten(tgds) => {
            println!("   rewritable; equivalent set:");
            for t in tgds {
                println!("      {}", t.display(schema));
            }
        }
        RewriteOutcome::NotRewritable => println!("   NOT rewritable (definitive)"),
        RewriteOutcome::Inconclusive => println!("   inconclusive within budgets"),
        RewriteOutcome::Cancelled => println!("   cancelled before a verdict"),
        RewriteOutcome::Suspended => println!("   suspended on the memory budget"),
    }
}

fn main() {
    // Small budgets suffice to *find* rewritings; the unary §9.1 gadgets
    // additionally get budgets covering their whole candidate space, so
    // negative answers are definitive.
    let opts = RewriteOptions {
        parallel: true,
        ..Default::default()
    };
    let exhaustive_unary = RewriteOptions {
        enumeration: EnumOptions {
            max_head_atoms: 8,
            max_body_atoms: 8,
            max_candidates: 200_000,
        },
        parallel: true,
        ..Default::default()
    };

    // A guarded set whose side atom is semantically redundant: Algorithm 1
    // finds the linear equivalent.
    {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "R(x,y), R(x,x) -> T(x). R(x,y) -> T(x).").unwrap();
        let set = TgdSet::new(s.clone(), tgds).unwrap();
        println!("── guarded -> linear: redundant side atom");
        for t in set.tgds() {
            println!("   {}", t.display(&s));
        }
        show(&set, RewriteTarget::Linear, &opts, &s);
    }

    // The §9.1 separation gadget: provably not linearizable.
    {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "R(x), P(x) -> T(x).").unwrap();
        let set = TgdSet::new(s.clone(), tgds).unwrap();
        println!("── guarded -> linear: Σ_G of §9.1");
        show(&set, RewriteTarget::Linear, &exhaustive_unary, &s);
    }

    // A frontier-guarded set whose non-guard side condition is implied:
    // Algorithm 2 finds a guarded equivalent.
    {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "R(x,y) -> P(x). R(x,y), P(x) -> T(x).").unwrap();
        let set = TgdSet::new(s.clone(), tgds).unwrap();
        println!("── frontier-guarded -> guarded: implied side condition");
        show(&set, RewriteTarget::Guarded, &opts, &s);
    }

    // The other §9.1 gadget: provably not guardable.
    {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "R(x), P(y) -> T(x).").unwrap();
        let set = TgdSet::new(s.clone(), tgds).unwrap();
        println!("── frontier-guarded -> guarded: Σ_F of §9.1");
        show(&set, RewriteTarget::Guarded, &exhaustive_unary, &s);
    }

    // The Appendix F reduction, end to end: atomic entailment becomes
    // rewritability.
    {
        use tgdkit::core::reductions::guarded_entailment_to_linear_rewritability;
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "true -> exists u : P(u). P(x) -> Q(x).").unwrap();
        let set = TgdSet::new(s.clone(), tgds).unwrap();
        let q = s.pred_id("Q").unwrap();
        let reduction = guarded_entailment_to_linear_rewritability(&set, q).unwrap();
        println!("── Appendix F reduction (positive instance: Σ ⊨ ∃x Q(x))");
        for t in reduction.sigma_prime.tgds() {
            println!("   {}", t.display(reduction.sigma_prime.schema()));
        }
        let small = RewriteOptions {
            enumeration: EnumOptions {
                max_head_atoms: 2,
                max_body_atoms: 8,
                max_candidates: 200_000,
            },
            parallel: true,
            ..Default::default()
        };
        let sigma_prime = &reduction.sigma_prime;
        show(
            sigma_prime,
            RewriteTarget::Linear,
            &small,
            sigma_prime.schema(),
        );
    }
}
