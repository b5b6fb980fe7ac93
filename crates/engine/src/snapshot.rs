//! The persistent proof-cache snapshot: a dependency-free, versioned
//! binary codec for [`fpop::ExportEntry`] records.
//!
//! ## Format (version 1)
//!
//! ```text
//! +----------------+---------------------------------------------------+
//! | magic          | 8 bytes: b"FPOPSNAP"                              |
//! | version        | u32 little-endian (currently 1)                   |
//! | entry count    | varint (LEB128)                                   |
//! | entries        | count × { kind: u8, body_len: varint, body }      |
//! | checksum       | 8 bytes LE: FNV-1a 64 over everything above       |
//! +----------------+---------------------------------------------------+
//! ```
//!
//! Entry bodies serialize the object syntax *structurally*, with symbols
//! written as length-prefixed strings (interner ids are process-local and
//! never touch the disk). On load, symbols re-intern and the session
//! re-buckets entries under its own in-process hashes, so a snapshot is
//! valid across processes, platforms, and restarts.
//!
//! ## Failure behavior
//!
//! Decoding is total: every malformed input — wrong magic, unknown
//! version, truncated frame, out-of-range tag, bad UTF-8, checksum
//! mismatch, trailing garbage — returns a descriptive [`SnapshotError`]
//! and never panics. The engine treats any error as "cold start": it logs
//! the reason and proceeds with an empty cache, which is always sound
//! (the cache is an accelerator, not a source of truth).
//!
//! ## Trust model
//!
//! Imported case proofs are admitted as kernel evidence without replay,
//! so a snapshot file is trusted the way a compiled Coq `.vo` file is
//! trusted. The trailing FNV-1a checksum guards against *accidental*
//! corruption (truncation, bit rot) only — it is not a MAC: anyone who
//! can write the file can forge entries and recompute it. Keep snapshots
//! under the same filesystem trust as the `fpopd` binary; see
//! [`objlang::proof::ProvedSequent::assume_checked`].

use std::fmt;
use std::fs;
use std::path::Path;

use fpop::ExportEntry;
use objlang::ident::Symbol;
use objlang::proof::Sequent;
use objlang::syntax::{Prop, Sort, Term};
use objlang::tactic::Tactic;

use crate::codec::{self, w_str, w_varint, Reader};

/// Leading magic bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"FPOPSNAP";
/// Current format version. Bump on any change to the entry encoding *or*
/// to the semantics of persisted keys (e.g. the stable `okey` recipe).
pub const VERSION: u32 = 1;

/// Maximum structural nesting accepted by the decoder (terms, props,
/// tactics). Honest snapshots stay far below this; the bound keeps a
/// corrupt length field from recursing the stack into the ground.
const MAX_DEPTH: u32 = 4096;

/// Why a snapshot failed to load. All variants are "reject loudly, fall
/// back to cold" — none should ever panic the engine.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SnapshotError {
    /// Filesystem-level failure (missing file is reported distinctly so
    /// callers can treat "no snapshot yet" as a quiet cold start).
    Io(String),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not [`VERSION`] (stale snapshot from
    /// an older/newer build).
    BadVersion(u32),
    /// Structural decoding failed (truncated frame, bad tag, bad UTF-8…).
    Corrupt(String),
    /// The trailing FNV-1a checksum does not match the content.
    ChecksumMismatch,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::BadMagic => write!(f, "snapshot rejected: bad magic"),
            SnapshotError::BadVersion(v) => {
                write!(
                    f,
                    "snapshot rejected: format version {v}, expected {VERSION}"
                )
            }
            SnapshotError::Corrupt(why) => write!(f, "snapshot rejected as corrupt: {why}"),
            SnapshotError::ChecksumMismatch => {
                write!(f, "snapshot rejected: integrity checksum mismatch")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn w_sym(out: &mut Vec<u8>, s: Symbol) {
    w_str(out, s.as_str());
}

fn w_sort(out: &mut Vec<u8>, s: &Sort) {
    match s {
        Sort::Named(n) => {
            out.push(0);
            w_sym(out, *n);
        }
        Sort::Id => out.push(1),
    }
}

fn w_terms(out: &mut Vec<u8>, ts: &[Term]) {
    w_varint(out, ts.len() as u64);
    for t in ts {
        w_term(out, t);
    }
}

fn w_term(out: &mut Vec<u8>, t: &Term) {
    match t {
        Term::Var(s) => {
            out.push(0);
            w_sym(out, *s);
        }
        Term::Ctor(c, args) => {
            out.push(1);
            w_sym(out, *c);
            w_terms(out, args);
        }
        Term::Fn(f, args) => {
            out.push(2);
            w_sym(out, *f);
            w_terms(out, args);
        }
        Term::Lit(s) => {
            out.push(3);
            w_sym(out, *s);
        }
    }
}

fn w_prop(out: &mut Vec<u8>, p: &Prop) {
    match p {
        Prop::True => out.push(0),
        Prop::False => out.push(1),
        Prop::Eq(a, b) => {
            out.push(2);
            w_term(out, a);
            w_term(out, b);
        }
        Prop::Atom(s, args) => {
            out.push(3);
            w_sym(out, *s);
            w_terms(out, args);
        }
        Prop::Def(s, args) => {
            out.push(4);
            w_sym(out, *s);
            w_terms(out, args);
        }
        Prop::And(a, b) => {
            out.push(5);
            w_prop(out, a);
            w_prop(out, b);
        }
        Prop::Or(a, b) => {
            out.push(6);
            w_prop(out, a);
            w_prop(out, b);
        }
        Prop::Imp(a, b) => {
            out.push(7);
            w_prop(out, a);
            w_prop(out, b);
        }
        Prop::Forall(v, s, body) => {
            out.push(8);
            w_sym(out, *v);
            w_sort(out, s);
            w_prop(out, body);
        }
        Prop::Exists(v, s, body) => {
            out.push(9);
            w_sym(out, *v);
            w_sort(out, s);
            w_prop(out, body);
        }
    }
}

fn w_script(out: &mut Vec<u8>, ts: &[Tactic]) {
    w_varint(out, ts.len() as u64);
    for t in ts {
        w_tactic(out, t);
    }
}

fn w_scripts(out: &mut Vec<u8>, ss: &[Vec<Tactic>]) {
    w_varint(out, ss.len() as u64);
    for s in ss {
        w_script(out, s);
    }
}

fn w_tactic(out: &mut Vec<u8>, t: &Tactic) {
    use Tactic::*;
    match t {
        Intro => out.push(0),
        IntroAs(a) => {
            out.push(1);
            w_str(out, a);
        }
        Intros => out.push(2),
        Revert(a) => {
            out.push(3);
            w_str(out, a);
        }
        RevertVar(a) => {
            out.push(4);
            w_str(out, a);
        }
        Clear(a) => {
            out.push(5);
            w_str(out, a);
        }
        Rename(a, b) => {
            out.push(6);
            w_str(out, a);
            w_str(out, b);
        }
        Exact(a) => {
            out.push(7);
            w_str(out, a);
        }
        Assumption => out.push(8),
        Trivial => out.push(9),
        Reflexivity => out.push(10),
        Symmetry => out.push(11),
        SymmetryIn(a) => {
            out.push(12);
            w_str(out, a);
        }
        Split => out.push(13),
        Left => out.push(14),
        Right => out.push(15),
        Exists(t) => {
            out.push(16);
            w_term(out, t);
        }
        Destruct(a) => {
            out.push(17);
            w_str(out, a);
        }
        Exfalso => out.push(18),
        Contradiction => out.push(19),
        Discriminate(a) => {
            out.push(20);
            w_str(out, a);
        }
        FDiscriminate(a) => {
            out.push(21);
            w_str(out, a);
        }
        Injection(a) => {
            out.push(22);
            w_str(out, a);
        }
        FInjection(a) => {
            out.push(23);
            w_str(out, a);
        }
        SubstVar(a) => {
            out.push(24);
            w_str(out, a);
        }
        SubstAll => out.push(25),
        Rewrite(a) => {
            out.push(26);
            w_str(out, a);
        }
        RewriteRev(a) => {
            out.push(27);
            w_str(out, a);
        }
        RewriteIn(a, b) => {
            out.push(28);
            w_str(out, a);
            w_str(out, b);
        }
        RewriteRevIn(a, b) => {
            out.push(29);
            w_str(out, a);
            w_str(out, b);
        }
        FSimpl => out.push(30),
        FSimplIn(a) => {
            out.push(31);
            w_str(out, a);
        }
        FSimplAll => out.push(32),
        ApplyFact(a, ts) => {
            out.push(33);
            w_str(out, a);
            w_terms(out, ts);
        }
        ApplyHyp(a, ts) => {
            out.push(34);
            w_str(out, a);
            w_terms(out, ts);
        }
        ApplyRule(a, b, ts) => {
            out.push(35);
            w_str(out, a);
            w_str(out, b);
            w_terms(out, ts);
        }
        PoseFact(a, ts, b) => {
            out.push(36);
            w_str(out, a);
            w_terms(out, ts);
            w_str(out, b);
        }
        Specialize(a, ts) => {
            out.push(37);
            w_str(out, a);
            w_terms(out, ts);
        }
        Forward(a, b) => {
            out.push(38);
            w_str(out, a);
            w_str(out, b);
        }
        Assert(a, p, s) => {
            out.push(39);
            w_str(out, a);
            w_prop(out, p);
            w_script(out, s);
        }
        CaseTerm(t) => {
            out.push(40);
            w_term(out, t);
        }
        Induction(a) => {
            out.push(41);
            w_str(out, a);
        }
        Inversion(a) => {
            out.push(42);
            w_str(out, a);
        }
        Unfold(a) => {
            out.push(43);
            w_str(out, a);
        }
        UnfoldIn(a, b) => {
            out.push(44);
            w_str(out, a);
            w_str(out, b);
        }
        Auto(n) => {
            out.push(45);
            w_varint(out, *n as u64);
        }
        TryT(t) => {
            out.push(46);
            w_tactic(out, t);
        }
        Repeat(t) => {
            out.push(47);
            w_tactic(out, t);
        }
        Branch(t, ss) => {
            out.push(48);
            w_tactic(out, t);
            w_scripts(out, ss);
        }
        ThenAll(t, s) => {
            out.push(49);
            w_tactic(out, t);
            w_script(out, s);
        }
        First(ss) => {
            out.push(50);
            w_scripts(out, ss);
        }
    }
}

fn w_sequent(out: &mut Vec<u8>, s: &Sequent) {
    w_varint(out, s.vars.len() as u64);
    for (v, sort) in &s.vars {
        w_sym(out, *v);
        w_sort(out, sort);
    }
    w_varint(out, s.hyps.len() as u64);
    for (n, p) in &s.hyps {
        w_sym(out, *n);
        w_prop(out, p);
    }
    w_prop(out, &s.goal);
}

/// Writes one entry's body and returns its kind byte: the per-entry half
/// of the container `FPOPSNAP` and `FPOPDIFF` share.
pub(crate) fn w_entry(out: &mut Vec<u8>, e: &ExportEntry) -> u8 {
    match e {
        ExportEntry::Theorem {
            statement,
            script,
            closed_world_key,
            okey,
        } => {
            w_prop(out, statement);
            w_script(out, script);
            match closed_world_key {
                None => out.push(0),
                Some(key) => {
                    out.push(1);
                    w_varint(out, key.len() as u64);
                    for (name, members) in key {
                        w_sym(out, *name);
                        w_varint(out, members.len() as u64);
                        for m in members {
                            w_sym(out, *m);
                        }
                    }
                }
            }
            w_varint(out, *okey);
            0
        }
        ExportEntry::Case {
            sequent,
            script,
            okey,
        } => {
            w_sequent(out, sequent);
            w_script(out, script);
            w_varint(out, *okey);
            1
        }
    }
}

/// Encodes entries into the version-1 snapshot byte format (including the
/// trailing integrity checksum).
pub fn encode_snapshot(entries: &[ExportEntry]) -> Vec<u8> {
    codec::encode_entries(&MAGIC, VERSION, &[], entries, w_entry)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

type DResult<T> = Result<T, SnapshotError>;

pub(crate) fn corrupt(why: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(why.into())
}

// The entry grammar, as methods on the one codec reader: every primitive
// read error converts to `SnapshotError::Corrupt` at its `?`.
impl<'a> Reader<'a> {
    fn sym(&mut self) -> DResult<Symbol> {
        Ok(Symbol::new(self.str()?))
    }

    fn string(&mut self) -> DResult<String> {
        Ok(self.str()?.to_string())
    }

    fn sort(&mut self) -> DResult<Sort> {
        match self.u8()? {
            0 => Ok(Sort::Named(self.sym()?)),
            1 => Ok(Sort::Id),
            t => Err(corrupt(format!("unknown sort tag {t}"))),
        }
    }

    fn terms(&mut self, depth: u32) -> DResult<Vec<Term>> {
        let n = self.len()?;
        (0..n).map(|_| self.term(depth)).collect()
    }

    fn term(&mut self, depth: u32) -> DResult<Term> {
        if depth > MAX_DEPTH {
            return Err(corrupt("term nesting exceeds depth bound"));
        }
        match self.u8()? {
            0 => Ok(Term::Var(self.sym()?)),
            1 => {
                let c = self.sym()?;
                Ok(Term::Ctor(c, self.terms(depth + 1)?.into()))
            }
            2 => {
                let f = self.sym()?;
                Ok(Term::Fn(f, self.terms(depth + 1)?.into()))
            }
            3 => Ok(Term::Lit(self.sym()?)),
            t => Err(corrupt(format!("unknown term tag {t}"))),
        }
    }

    fn prop(&mut self, depth: u32) -> DResult<Prop> {
        if depth > MAX_DEPTH {
            return Err(corrupt("prop nesting exceeds depth bound"));
        }
        match self.u8()? {
            0 => Ok(Prop::True),
            1 => Ok(Prop::False),
            2 => Ok(Prop::Eq(self.term(depth + 1)?, self.term(depth + 1)?)),
            3 => {
                let s = self.sym()?;
                Ok(Prop::Atom(s, self.terms(depth + 1)?.into()))
            }
            4 => {
                let s = self.sym()?;
                Ok(Prop::Def(s, self.terms(depth + 1)?.into()))
            }
            5 => Ok(Prop::And(
                self.prop(depth + 1)?.into(),
                self.prop(depth + 1)?.into(),
            )),
            6 => Ok(Prop::Or(
                self.prop(depth + 1)?.into(),
                self.prop(depth + 1)?.into(),
            )),
            7 => Ok(Prop::Imp(
                self.prop(depth + 1)?.into(),
                self.prop(depth + 1)?.into(),
            )),
            8 => {
                let v = self.sym()?;
                let s = self.sort()?;
                Ok(Prop::Forall(v, s, self.prop(depth + 1)?.into()))
            }
            9 => {
                let v = self.sym()?;
                let s = self.sort()?;
                Ok(Prop::Exists(v, s, self.prop(depth + 1)?.into()))
            }
            t => Err(corrupt(format!("unknown prop tag {t}"))),
        }
    }

    fn script(&mut self, depth: u32) -> DResult<Vec<Tactic>> {
        let n = self.len()?;
        (0..n).map(|_| self.tactic(depth)).collect()
    }

    fn scripts(&mut self, depth: u32) -> DResult<Vec<Vec<Tactic>>> {
        let n = self.len()?;
        (0..n).map(|_| self.script(depth)).collect()
    }

    fn tactic(&mut self, depth: u32) -> DResult<Tactic> {
        use Tactic::*;
        if depth > MAX_DEPTH {
            return Err(corrupt("tactic nesting exceeds depth bound"));
        }
        Ok(match self.u8()? {
            0 => Intro,
            1 => IntroAs(self.string()?),
            2 => Intros,
            3 => Revert(self.string()?),
            4 => RevertVar(self.string()?),
            5 => Clear(self.string()?),
            6 => Rename(self.string()?, self.string()?),
            7 => Exact(self.string()?),
            8 => Assumption,
            9 => Trivial,
            10 => Reflexivity,
            11 => Symmetry,
            12 => SymmetryIn(self.string()?),
            13 => Split,
            14 => Left,
            15 => Right,
            16 => Exists(self.term(depth + 1)?),
            17 => Destruct(self.string()?),
            18 => Exfalso,
            19 => Contradiction,
            20 => Discriminate(self.string()?),
            21 => FDiscriminate(self.string()?),
            22 => Injection(self.string()?),
            23 => FInjection(self.string()?),
            24 => SubstVar(self.string()?),
            25 => SubstAll,
            26 => Rewrite(self.string()?),
            27 => RewriteRev(self.string()?),
            28 => RewriteIn(self.string()?, self.string()?),
            29 => RewriteRevIn(self.string()?, self.string()?),
            30 => FSimpl,
            31 => FSimplIn(self.string()?),
            32 => FSimplAll,
            33 => ApplyFact(self.string()?, self.terms(depth + 1)?),
            34 => ApplyHyp(self.string()?, self.terms(depth + 1)?),
            35 => ApplyRule(self.string()?, self.string()?, self.terms(depth + 1)?),
            36 => PoseFact(self.string()?, self.terms(depth + 1)?, self.string()?),
            37 => Specialize(self.string()?, self.terms(depth + 1)?),
            38 => Forward(self.string()?, self.string()?),
            39 => Assert(
                self.string()?,
                self.prop(depth + 1)?,
                self.script(depth + 1)?,
            ),
            40 => CaseTerm(self.term(depth + 1)?),
            41 => Induction(self.string()?),
            42 => Inversion(self.string()?),
            43 => Unfold(self.string()?),
            44 => UnfoldIn(self.string()?, self.string()?),
            45 => {
                let n = self.varint()?;
                Auto(u32::try_from(n).map_err(|_| corrupt("auto depth overflows u32"))?)
            }
            46 => TryT(Box::new(self.tactic(depth + 1)?)),
            47 => Repeat(Box::new(self.tactic(depth + 1)?)),
            48 => Branch(Box::new(self.tactic(depth + 1)?), self.scripts(depth + 1)?),
            49 => ThenAll(Box::new(self.tactic(depth + 1)?), self.script(depth + 1)?),
            50 => First(self.scripts(depth + 1)?),
            t => return Err(corrupt(format!("unknown tactic tag {t}"))),
        })
    }

    fn sequent(&mut self) -> DResult<Sequent> {
        let nv = self.len()?;
        let mut vars = Vec::with_capacity(nv.min(64));
        for _ in 0..nv {
            let v = self.sym()?;
            let s = self.sort()?;
            vars.push((v, s));
        }
        let nh = self.len()?;
        let mut hyps = Vec::with_capacity(nh.min(64));
        for _ in 0..nh {
            let n = self.sym()?;
            let p = self.prop(0)?;
            hyps.push((n, p));
        }
        let goal = self.prop(0)?;
        Ok(Sequent { vars, hyps, goal })
    }

    /// Decodes one entry body of kind `kind`.
    pub(crate) fn entry(&mut self, kind: u8) -> DResult<ExportEntry> {
        match kind {
            0 => {
                let statement = self.prop(0)?;
                let script = self.script(0)?;
                let closed_world_key = match self.u8()? {
                    0 => None,
                    1 => {
                        let n = self.len()?;
                        let mut key = Vec::with_capacity(n.min(64));
                        for _ in 0..n {
                            let name = self.sym()?;
                            let m = self.len()?;
                            let mut members = Vec::with_capacity(m.min(64));
                            for _ in 0..m {
                                members.push(self.sym()?);
                            }
                            key.push((name, members));
                        }
                        Some(key)
                    }
                    t => return Err(corrupt(format!("unknown cw-key tag {t}"))),
                };
                let okey = self.varint()?;
                Ok(ExportEntry::Theorem {
                    statement,
                    script,
                    closed_world_key,
                    okey,
                })
            }
            1 => {
                let sequent = self.sequent()?;
                let script = self.script(0)?;
                let okey = self.varint()?;
                Ok(ExportEntry::Case {
                    sequent,
                    script,
                    okey,
                })
            }
            t => Err(corrupt(format!("unknown entry kind {t}"))),
        }
    }
}

/// Decodes a snapshot byte image, verifying magic, version, framing, and
/// the trailing integrity checksum. Total: never panics on any input.
pub fn decode_snapshot(bytes: &[u8]) -> Result<Vec<ExportEntry>, SnapshotError> {
    let (_, entries) = codec::decode_entries(&MAGIC, VERSION, 0, bytes, Reader::entry)?;
    Ok(entries)
}

// ---------------------------------------------------------------------------
// Filesystem wrappers
// ---------------------------------------------------------------------------

/// Writes a snapshot atomically (`codec::write_atomic`): a crash
/// mid-write leaves the previous snapshot (or nothing) in place — never a
/// torn file that the loader would then reject noisily.
pub fn write_snapshot(path: &Path, entries: &[ExportEntry]) -> std::io::Result<usize> {
    let bytes = encode_snapshot(entries);
    codec::write_atomic(path, &bytes)?;
    Ok(bytes.len())
}

/// Loads and decodes a snapshot file.
pub fn load_snapshot(path: &Path) -> Result<Vec<ExportEntry>, SnapshotError> {
    let bytes =
        fs::read(path).map_err(|e| SnapshotError::Io(format!("{}: {e}", path.display())))?;
    decode_snapshot(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entries() -> Vec<ExportEntry> {
        let goal = Prop::forall(
            "x",
            Sort::named("tm"),
            Prop::imp(
                Prop::atom("value", vec![Term::var("x")]),
                Prop::Eq(Term::var("x"), Term::var("x")),
            ),
        );
        let seq = Sequent {
            vars: vec![(Symbol::new("t"), Sort::named("tm"))],
            hyps: vec![(Symbol::new("H"), Prop::atom("value", vec![Term::var("t")]))],
            goal: Prop::Eq(
                Term::func("step", vec![Term::var("t")]),
                Term::ctor("some", vec![Term::var("t")]),
            ),
        };
        vec![
            ExportEntry::Theorem {
                statement: goal,
                script: vec![
                    Tactic::Intros,
                    Tactic::TryT(Box::new(Tactic::Reflexivity)),
                    Tactic::First(vec![vec![Tactic::Trivial], vec![Tactic::Auto(4)]]),
                    Tactic::Assert("Hx".into(), Prop::True, vec![Tactic::Trivial]),
                ],
                closed_world_key: Some(vec![(
                    Symbol::new("tm"),
                    vec![Symbol::new("tm_unit"), Symbol::new("tm_app")],
                )]),
                okey: 0xdead_beef_cafe_f00d,
            },
            ExportEntry::Case {
                sequent: seq,
                script: vec![Tactic::FSimpl, Tactic::Exists(Term::lit("x"))],
                okey: 7,
            },
        ]
    }

    #[test]
    fn roundtrip_preserves_entries() {
        let entries = sample_entries();
        let bytes = encode_snapshot(&entries);
        let back = decode_snapshot(&bytes).expect("roundtrip");
        assert_eq!(back, entries);
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let bytes = encode_snapshot(&[]);
        assert_eq!(decode_snapshot(&bytes).unwrap(), Vec::<ExportEntry>::new());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode_snapshot(&sample_entries());
        bytes[0] = b'X';
        assert_eq!(decode_snapshot(&bytes), Err(SnapshotError::BadMagic));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = encode_snapshot(&[]);
        bytes[8] = 99;
        // Checksum covers the version, so re-seal to reach the version gate.
        bytes.truncate(bytes.len() - 8);
        codec::seal(&mut bytes);
        assert_eq!(decode_snapshot(&bytes), Err(SnapshotError::BadVersion(99)));
    }

    #[test]
    fn every_flipped_bit_is_detected() {
        let bytes = encode_snapshot(&sample_entries());
        // Flip one bit in a spread of positions; all must be rejected.
        for pos in (0..bytes.len()).step_by(17) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            assert!(
                decode_snapshot(&bad).is_err(),
                "bit flip at byte {pos} was not detected"
            );
        }
    }

    #[test]
    fn truncation_rejected() {
        let bytes = encode_snapshot(&sample_entries());
        for keep in [0, 5, 12, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_snapshot(&bytes[..keep]).is_err());
        }
    }

    #[test]
    fn garbage_rejected_not_panicking() {
        assert!(decode_snapshot(&[]).is_err());
        assert!(decode_snapshot(&[0xff; 64]).is_err());
        let mostly_magic: Vec<u8> = MAGIC.iter().copied().chain([0u8; 32]).collect();
        assert!(decode_snapshot(&mostly_magic).is_err());
    }

    #[test]
    fn file_roundtrip_is_atomic_and_loadable() {
        let dir = std::env::temp_dir().join(format!("fpop-snap-test-{}", std::process::id()));
        let path = dir.join("store.snap");
        let entries = sample_entries();
        write_snapshot(&path, &entries).unwrap();
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            1,
            "tmp renamed away"
        );
        assert_eq!(load_snapshot(&path).unwrap(), entries);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load_snapshot(Path::new("/nonexistent/fpop.snap")).unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)));
    }
}
