//! The semantic separations of paper §9.1: `LTGD ⊊ GTGD ⊊ FGTGD`, each
//! witnessed by a one-rule gadget and a machine-checked locality violation.

use crate::locality::{locality_counterexample, LocalityFlavor, LocalityOptions};
use crate::rewrite::{rewrite, RewriteOptions, RewriteOutcome, RewriteTarget};
use crate::verdict::Verdict;
use tgdkit_chase::Run;
use tgdkit_instance::{parse_instance, Instance};
use tgdkit_logic::{parse_tgds, Schema, TgdSet};

/// A packaged separation: the gadget set, the witness instance, and the
/// locality parameters it violates.
#[derive(Debug, Clone)]
pub struct Separation {
    /// Human-readable name.
    pub name: &'static str,
    /// The gadget set of tgds.
    pub sigma: TgdSet,
    /// The witness instance of the locality violation.
    pub witness: Instance,
    /// The `(n, m)` of the violated refined locality.
    pub n: usize,
    /// See `n`.
    pub m: usize,
    /// The locality flavor that fails.
    pub flavor: LocalityFlavor,
}

/// The §9.1 separation of `LTGD` from `GTGD`:
/// `Σ_G = {R(x), P(x) → T(x)}` is guarded but not linear
/// (1,0)-local, witnessed by `I = {R(c), P(c)}`.
pub fn linear_vs_guarded() -> Separation {
    let mut schema = Schema::default();
    let tgds = parse_tgds(&mut schema, "R(x), P(x) -> T(x).").expect("gadget parses");
    let witness = parse_instance(&mut schema, "R(c), P(c)").expect("witness parses");
    Separation {
        name: "LTGD vs GTGD (paper §9.1)",
        sigma: TgdSet::new(schema, tgds).expect("valid gadget"),
        witness,
        n: 1,
        m: 0,
        flavor: LocalityFlavor::Linear,
    }
}

/// The §9.1 separation of `GTGD` from `FGTGD`:
/// `Σ_F = {R(x), P(y) → T(x)}` is frontier-guarded but not guarded
/// (2,0)-local, witnessed by `I = {R(c), P(d)}`.
pub fn guarded_vs_frontier_guarded() -> Separation {
    let mut schema = Schema::default();
    let tgds = parse_tgds(&mut schema, "R(x), P(y) -> T(x).").expect("gadget parses");
    let witness = parse_instance(&mut schema, "R(c), P(d)").expect("witness parses");
    Separation {
        name: "GTGD vs FGTGD (paper §9.1)",
        sigma: TgdSet::new(schema, tgds).expect("valid gadget"),
        witness,
        n: 2,
        m: 0,
        flavor: LocalityFlavor::Guarded,
    }
}

/// Verifies a separation: the witness must certify that the gadget is not
/// `flavor`-(n,m)-local (the refined Linearization/Guardedization Lemma
/// argument), so no equivalent set in the weaker class exists.
pub fn verify(separation: &Separation) -> Verdict {
    locality_counterexample(
        &Run::default(),
        &separation.sigma,
        &separation.witness,
        separation.n,
        separation.m,
        separation.flavor,
        &LocalityOptions::default(),
    )
    .0
}

/// Cross-checks a separation with the rewriting procedures of §9.2: the
/// gadget must come out `NotRewritable`.
pub fn cross_check_with_rewriting(separation: &Separation) -> Verdict {
    let opts = RewriteOptions {
        enumeration: crate::enumerate::EnumOptions {
            max_head_atoms: 8,
            max_body_atoms: 8,
            max_candidates: 200_000,
        },
        ..Default::default()
    };
    let target = match separation.flavor {
        LocalityFlavor::Linear => RewriteTarget::Linear,
        LocalityFlavor::Guarded => RewriteTarget::Guarded,
        _ => return Verdict::Unknown,
    };
    let (outcome, _, _) = rewrite(&Run::default(), &separation.sigma, target, &opts, None)
        .expect("a fresh run has no checkpoint to mismatch");
    match outcome {
        RewriteOutcome::NotRewritable => Verdict::Yes,
        RewriteOutcome::Rewritten(_) => Verdict::No,
        RewriteOutcome::Inconclusive | RewriteOutcome::Cancelled | RewriteOutcome::Suspended => {
            Verdict::Unknown
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_separations_verify() {
        for sep in [linear_vs_guarded(), guarded_vs_frontier_guarded()] {
            assert_eq!(verify(&sep), Verdict::Yes, "{} failed", sep.name);
        }
    }

    #[test]
    fn separations_agree_with_rewriting() {
        for sep in [linear_vs_guarded(), guarded_vs_frontier_guarded()] {
            assert_eq!(
                cross_check_with_rewriting(&sep),
                Verdict::Yes,
                "{} rewriting cross-check failed",
                sep.name
            );
        }
    }

    #[test]
    fn gadgets_have_the_claimed_classes() {
        let lin = linear_vs_guarded();
        assert!(lin.sigma.is_guarded() && !lin.sigma.is_linear());
        let fg = guarded_vs_frontier_guarded();
        assert!(fg.sigma.is_frontier_guarded() && !fg.sigma.is_guarded());
    }
}
