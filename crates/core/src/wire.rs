//! Wire codec for [`FsOp`] traces.
//!
//! Implements [`modelcheck::OpCodec`] so swarm snapshots (visited set +
//! frontier of replayable op-prefixes, `modelcheck::pickle`) can persist
//! harness runs across process restarts. One tag byte per variant followed
//! by the variant's fields; strings are length-prefixed UTF-8 (the pickle
//! module's `put_str`/`ByteReader::str` framing), integers little-endian.
//!
//! The tag assignment is part of the on-disk format: new `FsOp` variants
//! must take fresh tags, and existing tags must never be reused for a
//! different shape — old snapshots have to keep decoding. Unknown tags
//! decode to [`PickleError::Corrupt`], which the loader surfaces instead of
//! misreading the rest of the stream.

use crate::interleave::SchedStep;
use crate::pool::FsOp;
use modelcheck::pickle::put_str;
use modelcheck::{ByteReader, OpCodec, PickleError};

/// Variant tags. Never renumber; append only.
const TAG_CREATE_FILE: u8 = 0;
const TAG_WRITE_FILE: u8 = 1;
const TAG_TRUNCATE: u8 = 2;
const TAG_MKDIR: u8 = 3;
const TAG_RMDIR: u8 = 4;
const TAG_UNLINK: u8 = 5;
const TAG_RENAME: u8 = 6;
const TAG_HARDLINK: u8 = 7;
const TAG_SYMLINK: u8 = 8;
const TAG_READ_FILE: u8 = 9;
const TAG_STAT: u8 = 10;
const TAG_GETDENTS: u8 = 11;
const TAG_CHMOD: u8 = 12;
const TAG_SET_XATTR: u8 = 13;
const TAG_REMOVE_XATTR: u8 = 14;
const TAG_ACCESS: u8 = 15;
const TAG_CRASH: u8 = 16;
const TAG_FSCK: u8 = 17;

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn read_u16(r: &mut ByteReader<'_>) -> Result<u16, PickleError> {
    let lo = r.u8()? as u16;
    let hi = r.u8()? as u16;
    Ok(lo | (hi << 8))
}

/// Stateless [`OpCodec`] for [`FsOp`]; pass `&FsOpCodec` wherever the pickle
/// layer wants a codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct FsOpCodec;

impl OpCodec<FsOp> for FsOpCodec {
    fn encode_op(&self, op: &FsOp, out: &mut Vec<u8>) {
        match op {
            FsOp::CreateFile { path, mode } => {
                out.push(TAG_CREATE_FILE);
                put_str(out, path);
                put_u16(out, *mode);
            }
            FsOp::WriteFile {
                path,
                offset,
                size,
                seed,
            } => {
                out.push(TAG_WRITE_FILE);
                put_str(out, path);
                put_u64(out, *offset);
                put_u64(out, *size);
                out.push(*seed);
            }
            FsOp::Truncate { path, size } => {
                out.push(TAG_TRUNCATE);
                put_str(out, path);
                put_u64(out, *size);
            }
            FsOp::Mkdir { path, mode } => {
                out.push(TAG_MKDIR);
                put_str(out, path);
                put_u16(out, *mode);
            }
            FsOp::Rmdir { path } => {
                out.push(TAG_RMDIR);
                put_str(out, path);
            }
            FsOp::Unlink { path } => {
                out.push(TAG_UNLINK);
                put_str(out, path);
            }
            FsOp::Rename { src, dst } => {
                out.push(TAG_RENAME);
                put_str(out, src);
                put_str(out, dst);
            }
            FsOp::Hardlink { src, dst } => {
                out.push(TAG_HARDLINK);
                put_str(out, src);
                put_str(out, dst);
            }
            FsOp::Symlink { target, linkpath } => {
                out.push(TAG_SYMLINK);
                put_str(out, target);
                put_str(out, linkpath);
            }
            FsOp::ReadFile { path, offset, size } => {
                out.push(TAG_READ_FILE);
                put_str(out, path);
                put_u64(out, *offset);
                put_u64(out, *size);
            }
            FsOp::Stat { path } => {
                out.push(TAG_STAT);
                put_str(out, path);
            }
            FsOp::Getdents { path } => {
                out.push(TAG_GETDENTS);
                put_str(out, path);
            }
            FsOp::Chmod { path, mode } => {
                out.push(TAG_CHMOD);
                put_str(out, path);
                put_u16(out, *mode);
            }
            FsOp::SetXattr { path, name, seed } => {
                out.push(TAG_SET_XATTR);
                put_str(out, path);
                put_str(out, name);
                out.push(*seed);
            }
            FsOp::RemoveXattr { path, name } => {
                out.push(TAG_REMOVE_XATTR);
                put_str(out, path);
                put_str(out, name);
            }
            FsOp::Access { path } => {
                out.push(TAG_ACCESS);
                put_str(out, path);
            }
            FsOp::Crash => out.push(TAG_CRASH),
            FsOp::Fsck => out.push(TAG_FSCK),
        }
    }

    fn decode_op(&self, r: &mut ByteReader<'_>) -> Result<FsOp, PickleError> {
        let tag = r.u8()?;
        Ok(match tag {
            TAG_CREATE_FILE => FsOp::CreateFile {
                path: r.str()?.into(),
                mode: read_u16(r)?,
            },
            TAG_WRITE_FILE => FsOp::WriteFile {
                path: r.str()?.into(),
                offset: r.u64()?,
                size: r.u64()?,
                seed: r.u8()?,
            },
            TAG_TRUNCATE => FsOp::Truncate {
                path: r.str()?.into(),
                size: r.u64()?,
            },
            TAG_MKDIR => FsOp::Mkdir {
                path: r.str()?.into(),
                mode: read_u16(r)?,
            },
            TAG_RMDIR => FsOp::Rmdir {
                path: r.str()?.into(),
            },
            TAG_UNLINK => FsOp::Unlink {
                path: r.str()?.into(),
            },
            TAG_RENAME => FsOp::Rename {
                src: r.str()?.into(),
                dst: r.str()?.into(),
            },
            TAG_HARDLINK => FsOp::Hardlink {
                src: r.str()?.into(),
                dst: r.str()?.into(),
            },
            TAG_SYMLINK => FsOp::Symlink {
                target: r.str()?.into(),
                linkpath: r.str()?.into(),
            },
            TAG_READ_FILE => FsOp::ReadFile {
                path: r.str()?.into(),
                offset: r.u64()?,
                size: r.u64()?,
            },
            TAG_STAT => FsOp::Stat {
                path: r.str()?.into(),
            },
            TAG_GETDENTS => FsOp::Getdents {
                path: r.str()?.into(),
            },
            TAG_CHMOD => FsOp::Chmod {
                path: r.str()?.into(),
                mode: read_u16(r)?,
            },
            TAG_SET_XATTR => FsOp::SetXattr {
                path: r.str()?.into(),
                name: r.str()?.into(),
                seed: r.u8()?,
            },
            TAG_REMOVE_XATTR => FsOp::RemoveXattr {
                path: r.str()?.into(),
                name: r.str()?.into(),
            },
            TAG_ACCESS => FsOp::Access {
                path: r.str()?.into(),
            },
            TAG_CRASH => FsOp::Crash,
            TAG_FSCK => FsOp::Fsck,
            other => {
                return Err(PickleError::Corrupt(format!("unknown FsOp tag {other}")));
            }
        })
    }
}

/// Wire codec for interleaved schedules: a [`SchedStep`] is its own tag,
/// the thread id, and the delegated [`FsOpCodec`] encoding of the op. Used
/// by swarm persistence so threaded runs kill-and-resume like sequential
/// ones.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadedFsOpCodec;

const TAG_SCHED_STEP: u8 = 18;

impl OpCodec<SchedStep> for ThreadedFsOpCodec {
    fn encode_op(&self, step: &SchedStep, out: &mut Vec<u8>) {
        out.push(TAG_SCHED_STEP);
        put_u16(out, step.tid);
        FsOpCodec.encode_op(&step.op, out);
    }

    fn decode_op(&self, r: &mut ByteReader<'_>) -> Result<SchedStep, PickleError> {
        let tag = r.u8()?;
        if tag != TAG_SCHED_STEP {
            return Err(PickleError::Corrupt(format!("unknown SchedStep tag {tag}")));
        }
        let tid = read_u16(r)?;
        let op = FsOpCodec.decode_op(r)?;
        Ok(SchedStep { tid, op })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_variants() -> Vec<FsOp> {
        vec![
            FsOp::CreateFile {
                path: "/f0".into(),
                mode: 0o644,
            },
            FsOp::WriteFile {
                path: "/f0".into(),
                offset: 4096,
                size: 7,
                seed: 0xAB,
            },
            FsOp::Truncate {
                path: "/f0".into(),
                size: u64::MAX,
            },
            FsOp::Mkdir {
                path: "/d0".into(),
                mode: 0o755,
            },
            FsOp::Rmdir { path: "/d0".into() },
            FsOp::Unlink { path: "/f0".into() },
            FsOp::Rename {
                src: "/f0".into(),
                dst: "/d0/f1".into(),
            },
            FsOp::Hardlink {
                src: "/f0".into(),
                dst: "/l0".into(),
            },
            FsOp::Symlink {
                target: "../f0".into(),
                linkpath: "/s0".into(),
            },
            FsOp::ReadFile {
                path: "/f0".into(),
                offset: 0,
                size: 4096,
            },
            FsOp::Stat { path: "/f0".into() },
            FsOp::Getdents { path: "/".into() },
            FsOp::Chmod {
                path: "/f0".into(),
                mode: 0o7777,
            },
            FsOp::SetXattr {
                path: "/f0".into(),
                name: "user.k".into(),
                seed: 3,
            },
            FsOp::RemoveXattr {
                path: "/f0".into(),
                name: "user.k".into(),
            },
            FsOp::Access { path: "/f0".into() },
            FsOp::Crash,
            FsOp::Fsck,
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        let codec = FsOpCodec;
        for op in all_variants() {
            let mut buf = Vec::new();
            codec.encode_op(&op, &mut buf);
            let mut r = ByteReader::new(&buf);
            let back = codec.decode_op(&mut r).expect("decodes");
            assert_eq!(back, op);
            assert_eq!(r.remaining(), 0, "trailing bytes after {op:?}");
        }
    }

    /// The encoding, `Debug` and `Display` of one instance of every
    /// variant, pinned to what they were while op paths were `String`s: the
    /// `MCFSPKL` pickle format and violation messages must not move.
    #[test]
    fn encodings_and_renderings_are_pinned() {
        let pinned = [
            (
                "00030000002f6630a401",
                "CreateFile { path: \"/f0\", mode: 420 }",
                "create_file(/f0, 0644)",
            ),
            (
                "01030000002f663000100000000000000700000000000000ab",
                "WriteFile { path: \"/f0\", offset: 4096, size: 7, seed: 171 }",
                "write_file(/f0, off=4096, len=7, seed=171)",
            ),
            (
                "02030000002f6630ffffffffffffffff",
                "Truncate { path: \"/f0\", size: 18446744073709551615 }",
                "truncate(/f0, 18446744073709551615)",
            ),
            (
                "03030000002f6430ed01",
                "Mkdir { path: \"/d0\", mode: 493 }",
                "mkdir(/d0, 0755)",
            ),
            ("04030000002f6430", "Rmdir { path: \"/d0\" }", "rmdir(/d0)"),
            (
                "05030000002f6630",
                "Unlink { path: \"/f0\" }",
                "unlink(/f0)",
            ),
            (
                "06030000002f6630060000002f64302f6631",
                "Rename { src: \"/f0\", dst: \"/d0/f1\" }",
                "rename(/f0, /d0/f1)",
            ),
            (
                "07030000002f6630030000002f6c30",
                "Hardlink { src: \"/f0\", dst: \"/l0\" }",
                "link(/f0, /l0)",
            ),
            (
                "08050000002e2e2f6630030000002f7330",
                "Symlink { target: \"../f0\", linkpath: \"/s0\" }",
                "symlink(../f0, /s0)",
            ),
            (
                "09030000002f663000000000000000000010000000000000",
                "ReadFile { path: \"/f0\", offset: 0, size: 4096 }",
                "read_file(/f0, off=0, len=4096)",
            ),
            ("0a030000002f6630", "Stat { path: \"/f0\" }", "stat(/f0)"),
            ("0b010000002f", "Getdents { path: \"/\" }", "getdents(/)"),
            (
                "0c030000002f6630ff0f",
                "Chmod { path: \"/f0\", mode: 4095 }",
                "chmod(/f0, 7777)",
            ),
            (
                "0d030000002f663006000000757365722e6b03",
                "SetXattr { path: \"/f0\", name: \"user.k\", seed: 3 }",
                "setxattr(/f0, user.k, seed=3)",
            ),
            (
                "0e030000002f663006000000757365722e6b",
                "RemoveXattr { path: \"/f0\", name: \"user.k\" }",
                "removexattr(/f0, user.k)",
            ),
            (
                "0f030000002f6630",
                "Access { path: \"/f0\" }",
                "access(/f0, R_OK|W_OK)",
            ),
            ("10", "Crash", "crash"),
            ("11", "Fsck", "fsck"),
        ];
        let ops = all_variants();
        assert_eq!(ops.len(), pinned.len());
        for (op, (hex, debug, shown)) in ops.iter().zip(pinned) {
            let mut buf = Vec::new();
            FsOpCodec.encode_op(op, &mut buf);
            let got: String = buf.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(got, hex, "{op:?}");
            assert_eq!(format!("{op:?}"), debug);
            assert_eq!(op.to_string(), shown);
        }
    }

    #[test]
    fn concatenated_trace_round_trips() {
        let codec = FsOpCodec;
        let trace = all_variants();
        let mut buf = Vec::new();
        for op in &trace {
            codec.encode_op(op, &mut buf);
        }
        let mut r = ByteReader::new(&buf);
        let back: Vec<FsOp> = (0..trace.len())
            .map(|_| codec.decode_op(&mut r).unwrap())
            .collect();
        assert_eq!(back, trace);
    }

    #[test]
    fn unknown_tag_is_corrupt_not_garbage() {
        let codec = FsOpCodec;
        let buf = [0xFFu8, 0, 0];
        let mut r = ByteReader::new(&buf);
        assert!(matches!(
            codec.decode_op(&mut r),
            Err(PickleError::Corrupt(_))
        ));
    }

    #[test]
    fn non_ascii_paths_survive() {
        let codec = FsOpCodec;
        let op = FsOp::CreateFile {
            path: "/päth/文件".into(),
            mode: 0o600,
        };
        let mut buf = Vec::new();
        codec.encode_op(&op, &mut buf);
        let back = codec.decode_op(&mut ByteReader::new(&buf)).unwrap();
        assert_eq!(back, op);
    }

    #[test]
    fn sched_steps_round_trip_for_every_op_variant() {
        let codec = ThreadedFsOpCodec;
        let mut buf = Vec::new();
        let steps: Vec<SchedStep> = all_variants()
            .into_iter()
            .enumerate()
            .map(|(i, op)| SchedStep {
                tid: (i % 3) as u16,
                op,
            })
            .chain(std::iter::once(SchedStep::crash()))
            .collect();
        for step in &steps {
            codec.encode_op(step, &mut buf);
        }
        let mut r = ByteReader::new(&buf);
        for step in &steps {
            assert_eq!(&codec.decode_op(&mut r).unwrap(), step);
        }
    }

    #[test]
    fn sched_step_rejects_bare_fsop_bytes() {
        let mut buf = Vec::new();
        FsOpCodec.encode_op(&FsOp::Fsck, &mut buf);
        let mut r = ByteReader::new(&buf);
        assert!(matches!(
            ThreadedFsOpCodec.decode_op(&mut r),
            Err(PickleError::Corrupt(_))
        ));
    }
}
