//! One varint table through the three byte formats, and the `fpopb/1`
//! reasons for malformed request bodies.
//!
//! A varint is read in three places below: the `fpopb/1` header `corr`,
//! a request-body string length and a snapshot entry's `okey`. All three
//! must accept and reject the same encodings. The reasons are wire bytes:
//! a server sends them verbatim as `Err` frame bodies.

use engine::fpopb::{decode_frame, decode_request, DecodeError, DecodeStep, FrameType, MARKER};
use engine::request::Request;
use engine::snapshot::{decode_snapshot, encode_snapshot, SnapshotError};
use fpop::stable::Fnv64;
use fpop::ExportEntry;
use objlang::syntax::{Prop, Term};
use objlang::tactic::Tactic;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Want {
    /// A well-formed varint with this value.
    Value(u64),
    /// Can never become a valid varint, whatever follows.
    Malformed,
    /// The input ends inside the varint.
    Truncated,
}

fn table() -> Vec<(&'static str, Vec<u8>, Want)> {
    let max = [[0xff; 9].as_slice(), &[0x01]].concat();
    let tenth_over = [[0xff; 9].as_slice(), &[0x02]].concat();
    let eleven = [[0x80; 10].as_slice(), &[0x00]].concat();
    vec![
        ("1 byte", vec![0x05], Want::Value(5)),
        ("10 bytes = u64::MAX", max, Want::Value(u64::MAX)),
        ("10th byte > 1", tenth_over, Want::Malformed),
        ("11-byte over-long", eleven, Want::Malformed),
        ("non-canonical zero", vec![0x80, 0x00], Want::Value(0)),
        ("truncated", vec![0xff, 0xff], Want::Truncated),
    ]
}

fn sealed(mut bytes: Vec<u8>) -> Vec<u8> {
    let mut h = Fnv64::new();
    h.write(&bytes);
    bytes.extend_from_slice(&h.finish().to_le_bytes());
    bytes
}

#[test]
fn every_format_accepts_the_same_varints() {
    // A snapshot of one entry whose okey is 0, so its body ends in 0x00.
    // Layout: magic (8) | version (4) | count 1 | kind | body_len | body.
    let image = encode_snapshot(&[ExportEntry::Theorem {
        statement: Prop::eq(Term::lit("v"), Term::lit("v")),
        script: vec![Tactic::Reflexivity],
        closed_world_key: None,
        okey: 0,
    }]);
    let body_len = image[14] as usize;
    assert!(body_len < 128 && image[14 + body_len] == 0x00);
    let okey_prefix = &image[15..14 + body_len];

    for (name, enc, want) in table() {
        // The fpopb/1 header's corr.
        let mut frame = [&[MARKER, 1, FrameType::Ping as u8], enc.as_slice()].concat();
        if want != Want::Truncated {
            frame.push(0); // body_len
            frame = sealed(frame);
        }
        match (want, decode_frame(&frame)) {
            (Want::Value(v), Ok(DecodeStep::Ready { frame, .. })) => assert_eq!(frame.corr, v),
            (Want::Malformed, Err(DecodeError::BadVarint)) => {}
            (Want::Truncated, Ok(DecodeStep::Incomplete)) => {}
            (want, got) => panic!("{name}: frame corr: want {want:?}, got {got:?}"),
        }

        // A snapshot entry's okey, in an otherwise valid, resealed image.
        let entry = [okey_prefix, enc.as_slice()].concat();
        let mut bytes = image[..14].to_vec();
        bytes.push(entry.len() as u8);
        bytes.extend_from_slice(&entry);
        match (want, decode_snapshot(&sealed(bytes))) {
            (Want::Value(v), Ok(entries)) => {
                assert!(matches!(entries[..], [ExportEntry::Theorem { okey, .. }] if okey == v));
            }
            (Want::Malformed | Want::Truncated, Err(SnapshotError::Corrupt(_))) => {}
            (want, got) => panic!("{name}: snapshot okey: want {want:?}, got {got:?}"),
        }

        // A CheckSource body's string length.
        let mut body = [&[0], enc.as_slice()].concat();
        let reason = match want {
            Want::Value(v) if v <= 64 => {
                body.extend(vec![b'a'; v as usize]);
                let source = "a".repeat(v as usize);
                let ok = Ok((Request::CheckSource { source }, body.len()));
                assert_eq!(decode_request(&body, 0), ok, "{name}");
                continue;
            }
            Want::Value(_) => "string length overflow",
            Want::Malformed => "over-long varint",
            Want::Truncated => "truncated varint",
        };
        assert_eq!(decode_request(&body, 0), Err(reason.into()), "{name}");
    }
}

#[test]
fn malformed_body_reasons_are_pinned() {
    let over_long = [[0].as_slice(), &[0x80; 10], &[0x00]].concat();
    let cases: Vec<(Vec<u8>, &str)> = vec![
        (vec![0, 0x05, b'a'], "truncated string"),
        (vec![6, 1, 2, 3], "truncated digest"),
        (vec![0, 1, 0xff], "invalid UTF-8"),
        (over_long, "over-long varint"),
        (vec![1, 1, 0x63], "unknown feature index 99"),
        (vec![0], "truncated varint"),
        (vec![1, 0xff, 0xff], "truncated varint"),
        (vec![7], "truncated varint"),
        (vec![7, 1, b'F'], "truncated varint"),
        (vec![3, 0], "truncated varint"),
        (vec![], "missing request tag"),
        (vec![99], "unknown request tag 99"),
        (vec![1, 0xff, 0x7f], "implausible feature count 16383"),
        (vec![1, 2, 0x63], "truncated feature list"),
    ];
    for (body, reason) in cases {
        assert_eq!(
            decode_request(&body, 0),
            Err(reason.to_string()),
            "{body:?}"
        );
    }
}
