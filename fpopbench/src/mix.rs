//! The seeded serving mix: fpopb/1 frames and the known answer for each.
//!
//! Mostly template submits of K warm programs; smaller shares of full
//! `CheckSource` of those programs, `Eval` of `flip` terms, fresh
//! programs carrying a new true lemma (proof-cache writes beside the
//! reads), fresh programs carrying a known-false lemma, and malformed
//! frames.

use engine::fpopb::{self, ErrCode, Frame, FrameType, Reply};
use engine::request::{Priority, Request};

use crate::expect::{Expected, Program};
use crate::util::Rng;

/// Warm programs in the mix.
pub const K: usize = 8;

/// Cumulative mix weights, in per-mille.
const MIX: [(Kind, u32); 6] = [
    (Kind::Template, 700),
    (Kind::Check, 780),
    (Kind::Eval, 900),
    (Kind::FreshTrue, 950),
    (Kind::FreshFalse, 980),
    (Kind::Malformed, 1000),
];

#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, PartialOrd, Ord)]
pub enum Kind {
    Template,
    Check,
    Eval,
    FreshTrue,
    FreshFalse,
    Malformed,
}

/// What a reply must be.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    /// `ok`, printing every one of these lines.
    Lines(Vec<String>),
    /// `ok`, starting with this text (an `eval` value).
    Prefix(String),
    /// An error reply with this code.
    Error(ErrCode),
}

/// One generated operation: its frame (correlation id baked in) and
/// known answer.
#[derive(Clone, Debug)]
pub struct Op {
    pub kind: Kind,
    pub frame: Vec<u8>,
    pub expect: Expect,
}

/// How a reply compares with its known answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Refused or failed without a verdict (`Unavailable`, backpressure,
    /// deadline, shutdown): counts as failed, not as wrong.
    Refused {
        unavailable: bool,
        why: String,
    },
    Wrong(String),
}

pub fn verify(expect: &Expect, frame: &Frame) -> Verdict {
    let reply = match fpopb::decode_reply(frame) {
        Ok(r) => r,
        Err(e) => return Verdict::Wrong(format!("undecodable reply: {e}")),
    };
    if let Reply::Err(code, why) = &reply {
        let refusal = matches!(
            code,
            ErrCode::Rejected
                | ErrCode::Deadline
                | ErrCode::Cancelled
                | ErrCode::ShuttingDown
                | ErrCode::Unavailable
        );
        if refusal {
            return Verdict::Refused {
                unavailable: *code == ErrCode::Unavailable,
                why: format!("{code:?}: {why}"),
            };
        }
    }
    match (expect, &reply) {
        (Expect::Lines(lines), Reply::Ok(text)) => {
            match lines
                .iter()
                .find(|l| !text.lines().any(|t| t == l.as_str()))
            {
                None => Verdict::Ok,
                Some(missing) => Verdict::Wrong(format!("reply lacks {missing:?}")),
            }
        }
        (Expect::Prefix(p), Reply::Ok(text)) if text.starts_with(p.as_str()) => Verdict::Ok,
        (Expect::Error(want), Reply::Err(code, _)) if code == want => Verdict::Ok,
        (want, got) => Verdict::Wrong(format!("expected {want:?}, got {got:?}")),
    }
}

/// The warm programs of one seed, plus their template digests.
#[derive(Clone, Debug)]
pub struct Programs {
    pub tag: String,
    pub list: Vec<Program>,
    pub digests: Vec<u64>,
}

impl Programs {
    /// Program `k` is redrawn until its digest's home shard on a fleet of
    /// `shards` is `k % shards`, so every seed spreads the hot set evenly
    /// (otherwise the seed would decide how unbalanced the fleet runs).
    pub fn generate(exp: &Expected, seed: u64, shards: usize) -> Programs {
        let mut rng = Rng::new(seed).fork(10);
        let tag = format!("{:06x}", rng.next_u64() & 0xff_ffff);
        let ring = engine::fleet::Ring::new(shards);
        let live = vec![true; shards];
        let (list, digests) = (0..K)
            .map(|k| {
                let mut p = Program::generate(exp, &mut rng, &tag, k);
                let body = p.source.clone();
                // A slot with few distinct terms may route to one shard
                // only; a numbered comment varies the digest, not the work.
                for draw in 0u32.. {
                    let digest = check_request(&p)
                        .dedup_key()
                        .expect("check requests have digests");
                    if ring.route(digest, &live) == Some(k % shards) {
                        return (p, digest);
                    }
                    p.source = format!("(* draw {draw} *)\n{body}");
                }
                unreachable!("some draw routes to every shard")
            })
            .unzip();
        Programs { tag, list, digests }
    }
}

pub fn check_request(p: &Program) -> Request {
    Request::CheckSource {
        source: p.source.clone(),
    }
}

/// One seeded stream of operations. Streams of one run get distinct
/// `stream` numbers, which keeps their fresh family names distinct.
pub struct MixGen<'a> {
    exp: &'a Expected,
    programs: &'a Programs,
    rng: Rng,
    stream: usize,
    fresh: usize,
}

impl<'a> MixGen<'a> {
    pub fn new(exp: &'a Expected, programs: &'a Programs, seed: u64, stream: usize) -> MixGen<'a> {
        MixGen {
            exp,
            programs,
            rng: Rng::new(seed).fork(100 + stream as u64),
            stream,
            fresh: 0,
        }
    }

    /// The stream's next operation, carrying correlation id `corr`.
    pub fn next(&mut self, corr: u64) -> Op {
        let roll = self.rng.below(1000) as u32;
        let kind = MIX
            .iter()
            .find(|(_, c)| roll < *c)
            .expect("weights end at 1000")
            .0;
        let k = self.rng.below(K);
        self.op(kind, k, corr)
    }

    /// An operation of `kind` on warm program `k`.
    pub fn op(&mut self, kind: Kind, k: usize, corr: u64) -> Op {
        let prog = &self.programs.list[k];
        let submit = |req: &Request| {
            let mut body = vec![fpopb::encode_priority(Priority::Normal)];
            fpopb::encode_request(&mut body, req);
            body
        };
        let (ty, body, expect) = match kind {
            Kind::Template => {
                let mut body = vec![fpopb::encode_priority(Priority::Normal)];
                body.extend_from_slice(&self.programs.digests[k].to_le_bytes());
                (
                    FrameType::SubmitTemplate,
                    body,
                    Expect::Lines(prog.expect_lines.clone()),
                )
            }
            Kind::Check => (
                FrameType::Submit,
                submit(&check_request(prog)),
                Expect::Lines(prog.expect_lines.clone()),
            ),
            Kind::Eval => {
                let t = self.exp.random_term(&mut self.rng, 3);
                let req = Request::Eval {
                    family: prog.family.clone(),
                    term: format!("flip({})", t.surface()),
                };
                let value = self.exp.flip(&t).display(None);
                (
                    FrameType::Submit,
                    submit(&req),
                    Expect::Prefix(format!("{} |- {value} [fuel ", prog.family)),
                )
            }
            Kind::FreshTrue | Kind::FreshFalse => {
                let n = self.stream * 1_000_000 + self.fresh;
                self.fresh += 1;
                let holds = kind == Kind::FreshTrue;
                let (source, lines) =
                    prog.with_fresh_lemma(self.exp, &mut self.rng, &self.programs.tag, n, holds);
                let expect = if holds {
                    Expect::Lines(lines)
                } else {
                    Expect::Error(ErrCode::Failed)
                };
                (
                    FrameType::Submit,
                    submit(&Request::CheckSource { source }),
                    expect,
                )
            }
            Kind::Malformed => {
                // Checksummed frames whose body does not decode: an
                // unknown priority byte, or a request cut short.
                let full = submit(&check_request(prog));
                let body = if self.rng.below(2) == 0 {
                    let mut b = full;
                    b[0] = 0xEE;
                    b
                } else {
                    full[..full.len() / 2].to_vec()
                };
                (FrameType::Submit, body, Expect::Error(ErrCode::Malformed))
            }
        };
        Op {
            kind,
            frame: fpopb::encode_frame(ty, corr, &body),
            expect,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_operations() {
        let exp = Expected::load().unwrap();
        let a = Programs::generate(&exp, 11, 2);
        let b = Programs::generate(&exp, 11, 2);
        let c = Programs::generate(&exp, 12, 2);
        let ops = |p: &Programs, seed| {
            let mut g = MixGen::new(&exp, p, seed, 0);
            (1..=300).map(|i| g.next(i).frame).collect::<Vec<_>>()
        };
        assert_eq!(ops(&a, 11), ops(&b, 11));
        assert_ne!(ops(&a, 11), ops(&c, 12));
    }

    #[test]
    fn mix_covers_every_kind() {
        let exp = Expected::load().unwrap();
        let p = Programs::generate(&exp, 3, 2);
        let mut g = MixGen::new(&exp, &p, 3, 0);
        let mut seen = std::collections::BTreeSet::new();
        for i in 1..=2000 {
            seen.insert(g.next(i).kind);
        }
        assert_eq!(seen.len(), MIX.len());
    }
}
