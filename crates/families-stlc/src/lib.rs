//! # families-stlc — case study 1: extensible STLC metatheory
//!
//! Reproduces Section 7's first case study: the type-safety development of
//! the simply typed λ-calculus as a base family `STLC`, four feature
//! families (ε fixpoints, × products, + sums, µ iso-recursive types), and
//! the full mixin-composition lattice of the paper's Venn diagram — 15
//! feature combinations, each with an inherited `typesafe` theorem.

pub mod base;
pub mod boolean;
pub mod determinism;
pub mod fix;
pub mod isorec;
pub mod lattice;
pub mod prod;
pub mod sum;
pub mod util;

pub use base::stlc_family;
pub use lattice::{
    build_lattice, build_lattice_defs_incr_with, build_lattice_planned, normalize_features,
    recheck_lattice_planned, recheck_lattice_subset_with, subset_defs, variant_name, Feature,
    LatticePlan, LatticeReport, VariantStat,
};
