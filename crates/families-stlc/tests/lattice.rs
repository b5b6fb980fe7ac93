//! The full Venn-diagram lattice: 15 STLC variants, all type-safe
//! (Section 7, case study 1).

use families_stlc::Feature;
use fpop::universe::FamilyUniverse;

#[test]
fn venn_lattice_all_typesafe() {
    let mut u = FamilyUniverse::new();
    let report =
        families_stlc::build_lattice(&mut u, &Feature::all(), 1).expect("lattice must compile");
    assert_eq!(report.rows.len(), 16); // base + 15 variants
    for row in &report.rows {
        let out = u.check(&row.name, "typesafe").unwrap();
        assert!(out.contains(&format!("{}.typesafe", row.name)), "{out}");
        assert!(u.family(&row.name).unwrap().assumptions.is_empty());
    }
    // Composites reuse heavily.
    let quad = report
        .rows
        .iter()
        .find(|r| r.name == "STLCFixProdSumIsorec")
        .unwrap();
    assert!(quad.reuse_ratio > 0.6, "quad reuse {}", quad.reuse_ratio);
    println!("{}", report.to_table());
}

#[test]
fn retrofit_obligation_enforced() {
    // Composing µ with × without the tysubst retrofit case is a static
    // error (Figure 3 / C1).
    let mut u = FamilyUniverse::new();
    u.define(families_stlc::stlc_family()).unwrap();
    u.define(families_stlc::prod::stlc_prod_family()).unwrap();
    u.define(families_stlc::isorec::stlc_isorec_family())
        .unwrap();
    let bad = fpop::family::FamilyDef::extending_with(
        "STLCProdIsorecBad",
        "STLC",
        &[Feature::Prod.family_name(), Feature::Isorec.family_name()],
    );
    let err = u.define(bad).unwrap_err();
    let msg = format!("{err}");
    assert!(
        msg.contains("tysubst") && msg.contains("ty_prod"),
        "got: {msg}"
    );
}

#[test]
fn value_irreducibility_across_the_lattice() {
    // The new metatheorem `value_irred` (values don't step) is inherited by
    // every variant, with feature-added value forms handled by the
    // retroactive FInduction cases.
    let mut u = FamilyUniverse::new();
    let report = families_stlc::build_lattice(&mut u, &Feature::all_extended(), 1).unwrap();
    for row in &report.rows {
        let out = u.check(&row.name, "value_irred").unwrap();
        assert!(out.contains(&format!("{}.value_irred", row.name)), "{out}");
    }
}
