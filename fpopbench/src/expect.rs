//! Known answers, kept independent of the code under test.
//!
//! The expected data lives in hand-written files under `expected/`
//! (embedded at compile time). Everything the benchmark checks a reply
//! against is derived from those files by this module's own code: the
//! lattice's variant set (cross-checked against a powerset the benchmark
//! enumerates itself), the theorems every variant must verify, and the
//! `flip` semantics from which every serving answer is computed.

use crate::util::Rng;

/// Feature tags in the engine's canonical composition order.
pub const FEATURES: [&str; 5] = ["Fix", "Prod", "Sum", "Isorec", "Bool"];

/// The known answers one run checks against.
#[derive(Clone, Debug)]
pub struct Expected {
    /// Every variant of the extended lattice, in plan order.
    pub variants: Vec<String>,
    /// Theorems every variant must verify.
    pub theorems: Vec<String>,
    /// Fields the edit loop may redefine (present in every variant).
    pub touch_fields: Vec<String>,
    /// `flip` rules: (constructor, arity, result constructor).
    pub flip: Vec<(String, usize, String)>,
    /// Self-test sabotage: "false" lemmas are generated true (while still
    /// expected to be rejected), so the engine accepts them.
    #[cfg(test)]
    pub false_lemmas_hold: bool,
}

fn lines(text: &str) -> impl Iterator<Item = &str> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
}

impl Expected {
    /// Loads the hand-written files and cross-checks the variant list
    /// against the benchmark's own powerset enumeration.
    pub fn load() -> Result<Expected, String> {
        let e = Expected {
            variants: lines(include_str!("../expected/lattice_variants.txt"))
                .map(String::from)
                .collect(),
            theorems: lines(include_str!("../expected/theorems.txt"))
                .map(String::from)
                .collect(),
            touch_fields: lines(include_str!("../expected/touch_fields.txt"))
                .map(String::from)
                .collect(),
            flip: lines(include_str!("../expected/flip.txt"))
                .map(|l| {
                    let w: Vec<&str> = l.split_whitespace().collect();
                    match w.as_slice() {
                        [c, a, r] => Ok((
                            c.to_string(),
                            a.parse()
                                .map_err(|_| format!("bad arity in flip rule {l:?}"))?,
                            r.to_string(),
                        )),
                        _ => Err(format!("bad flip rule {l:?}")),
                    }
                })
                .collect::<Result<_, _>>()?,
            #[cfg(test)]
            false_lemmas_hold: false,
        };
        let own = powerset_variants();
        if e.variants != own {
            return Err(format!(
                "expected/lattice_variants.txt disagrees with the enumerated powerset \
                 ({} listed, {} enumerated)",
                e.variants.len(),
                own.len()
            ));
        }
        Ok(e)
    }

    fn rule(&self, ctor: &str) -> &(String, usize, String) {
        self.flip
            .iter()
            .find(|r| r.0 == ctor)
            .unwrap_or_else(|| panic!("no flip rule for {ctor}"))
    }

    /// `flip(t)` by the hand-written rules.
    pub fn flip(&self, t: &Term) -> Term {
        let (_, _, res) = self.rule(&t.ctor);
        Term {
            ctor: res.clone(),
            args: t.args.iter().map(|a| self.flip(a)).collect(),
        }
    }

    /// A closed `num` term: a full tree of `depth` node levels with
    /// seeded constructors. The shape is fixed, so every seed asks the
    /// engine for the same amount of work.
    pub fn random_term(&self, rng: &mut Rng, depth: usize) -> Term {
        let pick = |rng: &mut Rng, leaf: bool| {
            let pool: Vec<&(String, usize, String)> =
                self.flip.iter().filter(|r| (r.1 == 0) == leaf).collect();
            pool[rng.below(pool.len())].clone()
        };
        let r = pick(rng, depth == 0);
        Term {
            ctor: r.0,
            args: (0..r.1).map(|_| self.random_term(rng, depth - 1)).collect(),
        }
    }
}

/// The extended lattice's variants, enumerated by the benchmark itself:
/// base, then every non-empty feature subset by arity, then mask.
pub fn powerset_variants() -> Vec<String> {
    let n = FEATURES.len();
    let mut masks: Vec<u32> = (1..(1u32 << n)).collect();
    masks.sort_by_key(|m| (m.count_ones(), *m));
    let mut out = vec!["STLC".to_string()];
    for m in masks {
        let mut name = "STLC".to_string();
        for (i, f) in FEATURES.iter().enumerate() {
            if m & (1 << i) != 0 {
                name.push_str(f);
            }
        }
        out.push(name);
    }
    out
}

/// A closed term of the mix's `num` type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Term {
    pub ctor: String,
    pub args: Vec<Term>,
}

impl Term {
    /// Vernacular / eval-request surface syntax: `n_plus(n_one, n_zero)`.
    pub fn surface(&self) -> String {
        if self.args.is_empty() {
            return self.ctor.clone();
        }
        let args: Vec<String> = self.args.iter().map(Term::surface).collect();
        format!("{}({})", self.ctor, args.join(", "))
    }

    /// The kernel's display form, constructors qualified by `family`
    /// (`None` = unqualified, as `eval` renders values).
    pub fn display(&self, family: Option<&str>) -> String {
        let head = match family {
            Some(f) => format!("{f}.{}", self.ctor),
            None => self.ctor.clone(),
        };
        if self.args.is_empty() {
            return head;
        }
        let args: Vec<String> = self.args.iter().map(|a| a.display(family)).collect();
        format!("({head} {})", args.join(" "))
    }
}

/// The fixed program text every serving family is built from. It is an
/// input, not an answer: the answers come from `expected/flip.txt`.
const FLIP_FAMILY_BODY: &str = "\
  FInductive num := n_zero | n_one | n_plus(num, num).
  FRecursion flip on num returns num :=
    Case n_zero := n_one.
    Case n_one := n_zero.
    Case n_plus(a, b) := n_plus(flip(a), flip(b)).
  End flip.
";

/// One lemma `flip(t) = rhs` of a family, and the `Check` line the
/// engine must print for it when it holds.
#[derive(Clone, Debug)]
pub struct Lemma {
    pub name: String,
    pub lhs: Term,
    pub rhs: Term,
}

impl Lemma {
    fn source(&self) -> String {
        format!(
            "  FTheorem {} : flip({}) = {}.\n  Proof. fsimpl. reflexivity. Qed.\n",
            self.name,
            self.lhs.surface(),
            self.rhs.surface()
        )
    }

    fn check_line(&self, family: &str) -> String {
        format!(
            "{family}.{} : ({family}.flip {}) = {}",
            self.name,
            self.lhs.display(Some(family)),
            self.rhs.display(Some(family))
        )
    }
}

/// A warm serving program: one family with a few true lemmas.
#[derive(Clone, Debug)]
pub struct Program {
    pub family: String,
    pub source: String,
    /// Lines the `Check` commands must print.
    pub expect_lines: Vec<String>,
}

impl Program {
    pub fn generate(exp: &Expected, rng: &mut Rng, tag: &str, k: usize) -> Program {
        let family = format!("Srv{tag}P{k}");
        let lemmas: Vec<Lemma> = (0..1 + k % 3)
            .map(|j| {
                let t = exp.random_term(rng, 1 + (k + j) % 3);
                Lemma {
                    name: format!("t{j}"),
                    rhs: exp.flip(&t),
                    lhs: t,
                }
            })
            .collect();
        let mut source = format!("Family {family}.\n{FLIP_FAMILY_BODY}");
        for l in &lemmas {
            source.push_str(&l.source());
        }
        source.push_str(&format!("End {family}.\n"));
        for l in &lemmas {
            source.push_str(&format!("Check {family}.{}.\n", l.name));
        }
        Program {
            expect_lines: lemmas.iter().map(|l| l.check_line(&family)).collect(),
            family,
            source,
        }
    }

    /// This program plus a fresh family extending it with one new lemma
    /// `flip(t) = rhs` — true when `holds`, else `rhs = t` (never equal to
    /// `flip(t)`: flip swaps every leaf). Returns the source and, for a
    /// true lemma, every line the checks must print.
    pub fn with_fresh_lemma(
        &self,
        exp: &Expected,
        rng: &mut Rng,
        tag: &str,
        n: usize,
        holds: bool,
    ) -> (String, Vec<String>) {
        let fam = format!("Srv{tag}F{n}");
        let t = exp.random_term(rng, 2);
        #[cfg(test)]
        let holds = holds || exp.false_lemmas_hold;
        let lemma = Lemma {
            name: format!("f{n}"),
            rhs: if holds { exp.flip(&t) } else { t.clone() },
            lhs: t,
        };
        let source = format!(
            "{}Family {fam} extends {}.\n{}End {fam}.\nCheck {fam}.{}.\n",
            self.source,
            self.family,
            lemma.source(),
            lemma.name
        );
        let mut lines = self.expect_lines.clone();
        lines.push(lemma.check_line(&fam));
        (source, lines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_files_load_and_match_the_powerset() {
        let e = Expected::load().unwrap();
        assert_eq!(e.variants.len(), 32);
        assert_eq!(e.variants[0], "STLC");
        assert_eq!(e.variants[31], "STLCFixProdSumIsorecBool");
    }

    #[test]
    fn flip_model_swaps_leaves() {
        let e = Expected::load().unwrap();
        let t = Term {
            ctor: "n_plus".into(),
            args: vec![
                Term {
                    ctor: "n_one".into(),
                    args: vec![],
                },
                Term {
                    ctor: "n_zero".into(),
                    args: vec![],
                },
            ],
        };
        assert_eq!(e.flip(&t).surface(), "n_plus(n_zero, n_one)");
        assert_eq!(e.flip(&e.flip(&t)), t);
        assert_eq!(t.display(Some("F")), "(F.n_plus F.n_one F.n_zero)");
    }
}
