//! Audit the model-theoretic properties of an ontology (paper §3 and §5):
//! criticality, closure under direct products / intersections / unions,
//! domain independence, duplicating extensions — and locality probes.
//!
//! Run with: `cargo run --example ontology_audit`

use tgdkit::core::mv::{example_5_2, oblivious_closure_fails_on_example_5_2};
use tgdkit::core::properties::property_report;
use tgdkit::prelude::*;

fn audit(name: &str, schema: &Schema, sigma: &[Tgd]) {
    let set = TgdSet::new(schema.clone(), sigma.to_vec()).expect("valid set");
    let ontology = TgdOntology::new(set);
    let report = property_report(&ontology, sigma, 3, 42);
    println!("── {name}");
    for tgd in sigma {
        println!("   {}", tgd.display(schema));
    }
    println!("   critical (k ≤ 3):        {:?}", report.critical);
    println!("   ⊗-closed (sampled):      {:?}", report.product_closed);
    println!(
        "   ∩-closed (sampled):      {:?}",
        report.intersection_closed
    );
    println!("   ∪-closed (sampled):      {:?}", report.union_closed);
    println!(
        "   domain independent:      {:?}",
        report.domain_independent
    );
    println!("   members sampled:         {}", report.sampled_members);
}

fn main() {
    // Lemmas 3.2 and 3.4 in action: every TGD-ontology is critical and
    // ⊗-closed. Intersection/union closure varies with the class.
    {
        let mut s = Schema::default();
        let sigma = parse_tgds(&mut s, "E(x,y) -> E(y,x). P(x), E(x,y) -> P(y).").unwrap();
        audit("symmetric reachability (full tgds)", &s, &sigma);
    }
    {
        let mut s = Schema::default();
        let sigma = parse_tgds(&mut s, "P(x) -> exists z : E(x,z).").unwrap();
        audit("existential successors (linear tgds)", &s, &sigma);
    }

    // Locality probes (Def. 3.5 and §9.1): the guarded gadget is *not*
    // linear (1,0)-local.
    {
        let mut s = Schema::default();
        let sigma = parse_tgds(&mut s, "R(x), P(x) -> T(x).").unwrap();
        let set = TgdSet::new(s.clone(), sigma).unwrap();
        let witness = parse_instance(&mut s, "R(c), P(c)").unwrap();
        println!("── locality probe: Σ_G = R(x), P(x) -> T(x) on I = {witness}");
        for (flavor, name, n) in [
            (LocalityFlavor::Plain, "plain (2,0)", 2),
            (LocalityFlavor::Linear, "linear (1,0)", 1),
            (LocalityFlavor::Guarded, "guarded (2,0)", 2),
        ] {
            let opts = LocalityOptions::default();
            let (v, _) = locally_embeddable(&Run::default(), &set, &witness, n, 0, flavor, &opts);
            println!("   {name}-locally embeddable: {v:?}");
        }
        let (counter, _) = locality_counterexample(
            &Run::default(),
            &set,
            &witness,
            1,
            0,
            LocalityFlavor::Linear,
            &LocalityOptions::default(),
        );
        println!("   I certifies NOT linear (1,0)-local: {counter:?}  (paper §9.1)");
    }

    // The Makowsky–Vardi counterexample (Example 5.2).
    {
        let ex = example_5_2();
        println!("── Example 5.2 (Makowsky–Vardi Lemma 7 refutation)");
        println!("   σ:  {}", ex.tgd.display(&ex.schema));
        println!("   I:  {}", ex.model);
        println!(
            "   oblivious extension:     {} (violates σ)",
            ex.oblivious_extension
        );
        println!(
            "   non-oblivious extension: {} (model of σ)",
            ex.non_oblivious_extension
        );
        let (oblivious, non_oblivious) = oblivious_closure_fails_on_example_5_2();
        println!("   closed under oblivious duplication:     {oblivious:?}");
        println!("   closed under non-oblivious duplication: {non_oblivious:?}");
    }
}
