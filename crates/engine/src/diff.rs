//! `FPOPDIFF` v1: snapshot *diff* shipping for the fleet's shared store.
//!
//! A diff carries the entries a shard added since its last published
//! snapshot, pinned to the exact base it was cut against. A restarted or
//! newly added replica catches up by `base + diff₁ + diff₂ + …` instead
//! of re-downloading (or re-proving) the whole cache.
//!
//! ## Format (version 1)
//!
//! ```text
//! +----------------+---------------------------------------------------+
//! | magic          | 8 bytes: b"FPOPDIFF"                              |
//! | version        | u32 little-endian (currently 1)                   |
//! | base digest    | u64 LE: FNV-1a 64 over the complete base          |
//! |                | FPOPSNAP byte image (including its trailer)       |
//! | entry count    | varint (LEB128)                                   |
//! | entries        | count × { kind: u8, body_len: varint, body }      |
//! | checksum       | 8 bytes LE: FNV-1a 64 over everything above       |
//! +----------------+---------------------------------------------------+
//! ```
//!
//! A diff *is* the snapshot container (`codec::encode_entries`) with its
//! own magic and the 8-byte base digest as the container's pin: one entry
//! grammar, one container, one trailer — so a diff can never drift from
//! what a full snapshot would have said.
//!
//! ## The bijection invariant
//!
//! [`apply_diff`] re-sorts `base ∪ diff` with
//! [`fpop::session::sort_export_entries`] (the one total export order)
//! and re-encodes. Because the order is total and the encoder is
//! deterministic, the result is **byte-identical** to the full snapshot
//! the producing shard would have written — the property oracle #9
//! asserts across shard counts.
//!
//! ## Failure behavior and trust
//!
//! Decoding is total: corruption of any kind returns a [`DiffError`] and
//! the caller falls back to a full restore (fetch the newest full
//! segment), which is always sound. Like snapshots, a diff is trusted the
//! way a compiled `.vo` file is — the FNV trailer guards against
//! accidental corruption only, not tampering.

use std::fmt;
use std::fs;
use std::path::Path;

use fpop::session::sort_export_entries;
use fpop::stable::fnv64_bytes;
use fpop::ExportEntry;

use crate::codec::{self, Reader};
use crate::snapshot::{self, SnapshotError};

/// Leading magic bytes of every diff file.
pub const MAGIC: [u8; 8] = *b"FPOPDIFF";
/// Current diff format version. A diff carries snapshot entries, so it is
/// the snapshot format's version.
pub const VERSION: u32 = snapshot::VERSION;

/// Why a diff failed to decode or apply. Every variant means "fall back
/// to full restore" — none should ever panic or half-apply.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DiffError {
    /// Filesystem-level failure reading a diff file.
    Io(String),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The diff's format version is not [`VERSION`].
    BadVersion(u32),
    /// The diff was cut against a different base snapshot than the one
    /// offered: applying it would fabricate a state no shard ever held.
    BaseMismatch {
        /// Digest the diff demands.
        expected: u64,
        /// Digest of the base actually offered.
        found: u64,
    },
    /// Structural decoding failed (truncated frame, bad tag, bad UTF-8…),
    /// either in the diff itself or in the base snapshot handed to
    /// [`apply_diff`].
    Corrupt(String),
    /// The trailing FNV-1a checksum does not match the content.
    ChecksumMismatch,
}

impl fmt::Display for DiffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiffError::Io(e) => write!(f, "diff io error: {e}"),
            DiffError::BadMagic => write!(f, "diff rejected: bad magic"),
            DiffError::BadVersion(v) => {
                write!(f, "diff rejected: format version {v}, expected {VERSION}")
            }
            DiffError::BaseMismatch { expected, found } => write!(
                f,
                "diff refused: cut against base {expected:016x}, offered {found:016x}"
            ),
            DiffError::Corrupt(why) => write!(f, "diff rejected as corrupt: {why}"),
            DiffError::ChecksumMismatch => {
                write!(f, "diff rejected: integrity checksum mismatch")
            }
        }
    }
}

impl std::error::Error for DiffError {}

impl From<SnapshotError> for DiffError {
    fn from(e: SnapshotError) -> DiffError {
        match e {
            SnapshotError::Io(m) => DiffError::Io(m),
            SnapshotError::BadMagic => DiffError::BadMagic,
            SnapshotError::BadVersion(v) => DiffError::BadVersion(v),
            SnapshotError::Corrupt(m) => DiffError::Corrupt(m),
            SnapshotError::ChecksumMismatch => DiffError::ChecksumMismatch,
        }
    }
}

/// The content digest of a complete snapshot byte image — the address a
/// full segment files under in the shared store, and the base pin inside
/// every diff. Plain FNV-1a over all bytes including the trailer.
pub fn snapshot_digest(snapshot_bytes: &[u8]) -> u64 {
    fnv64_bytes(snapshot_bytes)
}

/// Encodes `added` entries as a version-1 diff against the base snapshot
/// whose [`snapshot_digest`] is `base_digest`.
pub fn encode_diff(base_digest: u64, added: &[ExportEntry]) -> Vec<u8> {
    codec::encode_entries(
        &MAGIC,
        VERSION,
        &base_digest.to_le_bytes(),
        added,
        snapshot::w_entry,
    )
}

/// Decodes a diff byte image into `(base_digest, added_entries)`,
/// verifying magic, version, framing, and the trailing checksum. Total:
/// never panics on any input.
pub fn decode_diff(bytes: &[u8]) -> Result<(u64, Vec<ExportEntry>), DiffError> {
    let (pin, entries) = codec::decode_entries(&MAGIC, VERSION, 8, bytes, Reader::entry)?;
    let base_digest = u64::from_le_bytes(pin.try_into().expect("8-byte pin"));
    Ok((base_digest, entries))
}

/// Applies a diff to the exact base snapshot it was cut against and
/// returns the merged **full** snapshot byte image.
///
/// The merge de-duplicates (an entry present in both base and diff
/// appears once), re-sorts under the one total export order, and
/// re-encodes — so the output is byte-identical to the full snapshot the
/// producing shard would have written at diff time.
///
/// # Errors
///
/// [`DiffError::BaseMismatch`] when `base_snapshot` is not the base the
/// diff demands; any decode error from either input. Nothing is
/// half-applied: the caller's fallback is a full restore.
pub fn apply_diff(base_snapshot: &[u8], diff: &[u8]) -> Result<Vec<u8>, DiffError> {
    let (want_base, added) = decode_diff(diff)?;
    let found = snapshot_digest(base_snapshot);
    if want_base != found {
        return Err(DiffError::BaseMismatch {
            expected: want_base,
            found,
        });
    }
    let mut entries = snapshot::decode_snapshot(base_snapshot)?;
    for e in added {
        // Idempotent merge: re-shipping an entry the base already holds
        // (e.g. a conservative mark after shard reassignment) is a no-op.
        if !entries.contains(&e) {
            entries.push(e);
        }
    }
    sort_export_entries(&mut entries);
    Ok(snapshot::encode_snapshot(&entries))
}

/// Writes a diff atomically (`codec::write_atomic`), like
/// [`crate::snapshot::write_snapshot`].
pub fn write_diff(path: &Path, base_digest: u64, added: &[ExportEntry]) -> std::io::Result<usize> {
    let bytes = encode_diff(base_digest, added);
    codec::write_atomic(path, &bytes)?;
    Ok(bytes.len())
}

/// Loads and decodes a diff file into `(base_digest, added_entries)`.
pub fn load_diff(path: &Path) -> Result<(u64, Vec<ExportEntry>), DiffError> {
    let bytes = fs::read(path).map_err(|e| DiffError::Io(format!("{}: {e}", path.display())))?;
    decode_diff(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use objlang::syntax::{Prop, Term};
    use objlang::tactic::Tactic;

    fn entry(i: u64) -> ExportEntry {
        ExportEntry::Theorem {
            statement: Prop::eq(Term::lit(&format!("d{i}")), Term::lit(&format!("d{i}"))),
            script: vec![Tactic::Reflexivity],
            closed_world_key: None,
            okey: i,
        }
    }

    #[test]
    fn roundtrip_preserves_base_and_entries() {
        let added = vec![entry(1), entry(2)];
        let bytes = encode_diff(0x1234_5678_9abc_def0, &added);
        let (base, back) = decode_diff(&bytes).expect("roundtrip");
        assert_eq!(base, 0x1234_5678_9abc_def0);
        assert_eq!(back, added);
    }

    #[test]
    fn apply_reproduces_the_full_snapshot_bytes() {
        let mut all: Vec<ExportEntry> = (0..6).map(entry).collect();
        sort_export_entries(&mut all);
        let (base_entries, added) = all.split_at(3);
        let base = snapshot::encode_snapshot(base_entries);
        let diff = encode_diff(snapshot_digest(&base), added);
        let merged = apply_diff(&base, &diff).expect("apply");
        assert_eq!(merged, snapshot::encode_snapshot(&all));
    }

    #[test]
    fn wrong_base_is_refused() {
        let base = snapshot::encode_snapshot(&[entry(0)]);
        let other = snapshot::encode_snapshot(&[entry(9)]);
        let diff = encode_diff(snapshot_digest(&base), &[entry(1)]);
        let err = apply_diff(&other, &diff).unwrap_err();
        assert!(matches!(err, DiffError::BaseMismatch { .. }));
    }

    #[test]
    fn overlap_merges_idempotently() {
        let mut all: Vec<ExportEntry> = (0..4).map(entry).collect();
        sort_export_entries(&mut all);
        let base = snapshot::encode_snapshot(&all[..2]);
        // Diff re-ships one entry the base already holds.
        let diff = encode_diff(snapshot_digest(&base), &all[1..]);
        let merged = apply_diff(&base, &diff).expect("apply");
        assert_eq!(merged, snapshot::encode_snapshot(&all));
    }

    #[test]
    fn corruption_is_rejected_never_panicking() {
        let bytes = encode_diff(7, &[entry(0), entry(1)]);
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x20;
            assert!(decode_diff(&bad).is_err(), "flip at {pos} undetected");
        }
        for keep in 0..bytes.len() {
            assert!(decode_diff(&bytes[..keep]).is_err());
        }
        assert!(decode_diff(&[]).is_err());
        assert!(decode_diff(&[0xaa; 96]).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("fpop-diff-test-{}", std::process::id()));
        let path = dir.join("catchup.diff");
        write_diff(&path, 42, &[entry(3)]).unwrap();
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            1,
            "tmp renamed away"
        );
        let (base, entries) = load_diff(&path).unwrap();
        assert_eq!(base, 42);
        assert_eq!(entries, vec![entry(3)]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
