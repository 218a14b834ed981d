//! Self-tests of the differential oracle: the sweep really covers the full
//! knob space, passes on the adversarial corpus, and actually *fails* when
//! the acceptance policy is tightened past what reordered summation allows.

use tsg_check::{check_pair, corpus, ValuePolicy};

/// One default-policy oracle run covers the whole variant space:
/// 1 pivot + 4 bitwise (scheduling × reuse) + 1 recorder
/// + 12 value-tier (accumulator × threshold) + 5 baseline methods
/// + 10 masked (2 masks × (gold + 3 scheduling × reuse + vs-unmasked))
/// + 3 add + 2 chain (op-expression axes)
/// + 12 SIMD-dispatch bitwise (3 products × (scalar pivot + 2 vector
///   runs), the plain product at two `tnnz`)
///   = 50.
#[test]
fn corpus_cases_pass_and_cover_every_variant() {
    let policy = ValuePolicy::default();
    for name in [
        "empty",
        "identity",
        "phantom-tile",
        "cancellation",
        "tnnz-193",
    ] {
        let (a, b) = corpus::build(name, 0).expect("case exists");
        let report = check_pair(&a, &b, &policy).unwrap_or_else(|f| panic!("{name} failed: {f}"));
        assert_eq!(report.variants, 50, "{name} covered the full sweep");
    }
}

/// The oracle is not vacuous: with a zero-tolerance policy the legitimate
/// summation-order differences between implementations surface as a value
/// mismatch, attributed to a named variant. (The default policy exists
/// precisely to accept this noise — see DESIGN.md §10.2.)
#[test]
fn zero_tolerance_policy_exposes_reordered_summation() {
    let strict = ValuePolicy {
        max_ulps: 0,
        rel_tol: 0.0,
        abs_tol: 0.0,
    };
    let (a, b) = corpus::build("rmat-skew", 0).expect("case exists");
    let failure = check_pair(&a, &b, &strict)
        .expect_err("bit-exact equality across summation orders is impossible here");
    assert!(!failure.variant.is_empty());
    // And the default policy accepts the very same pair.
    assert!(check_pair(&a, &b, &ValuePolicy::default()).is_ok());
}

/// Seeds select different matrices but never different verdicts: a few
/// seeds of the generator-backed cases all pass.
#[test]
fn generator_cases_pass_across_seeds() {
    let policy = ValuePolicy::default();
    for seed in [1, 2, 3] {
        for name in ["coo-dup", "scatter-rect"] {
            let (a, b) = corpus::build(name, seed).expect("case exists");
            check_pair(&a, &b, &policy)
                .unwrap_or_else(|f| panic!("{name} seed={seed} failed: {f}"));
        }
    }
}
