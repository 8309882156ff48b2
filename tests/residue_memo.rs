//! The VeriFS residue-digest memo.
//!
//! `VeriFs::opaque_state_digest` memoizes the beyond-EOF residue digest in
//! the live state, resets it wherever a file's buffer or size or the
//! namespace changes, and carries it through checkpoints and restores. The
//! property: after any sequence of operations, checkpoints and restores, the
//! memoized digest equals a from-scratch recomputation — for both VeriFS
//! versions, with the residue-exposing bugs and the residue fold on and off,
//! bare and through the FUSE layer.

use std::sync::Arc;

use proptest::prelude::*;

use fusesim::{FuseConfig, FuseMount};
use mcfs::{execute, FsOp, Name};
use verifs::{VeriFs, VeriFsConfig};
use vfs::{Fd, FileMode, FileSystem, FsCheckpoint, OpenFlags};

/// One step of a run.
#[derive(Debug, Clone)]
enum Step {
    Op(FsOp),
    /// Open a file and keep the descriptor, so a later unlink leaves an
    /// orphan (its residue is keyed by slot) until [`Step::CloseAll`].
    Hold(Name),
    CloseAll,
    Checkpoint(u64),
    RestoreKeep(u64),
    Restore(u64),
    Discard(u64),
}

fn arb_step() -> impl Strategy<Value = Step> {
    let path = prop_oneof![
        Just(Name::from("/a")),
        Just(Name::from("/b")),
        Just(Name::from("/d")),
        Just(Name::from("/d/c")),
        Just(Name::from("/e")),
    ];
    // Sizes straddle the 64-byte buffer chunk, so truncates leave residue
    // and hole writes can expose it; writes and truncates are listed twice
    // to weight the draw toward them.
    let size = prop_oneof![Just(0u64), Just(1), Just(40), Just(100), Just(200)];
    let offset = prop_oneof![Just(0u64), Just(10), Just(70), Just(150)];
    let key = 0u64..3;
    prop_oneof![
        path.clone()
            .prop_map(|path| Step::Op(FsOp::CreateFile { path, mode: 0o644 })),
        (path.clone(), offset.clone(), size.clone(), 1u8..4).prop_map(
            |(path, offset, size, seed)| {
                Step::Op(FsOp::WriteFile {
                    path,
                    offset,
                    size,
                    seed,
                })
            }
        ),
        (path.clone(), offset, size.clone(), 1u8..4).prop_map(|(path, offset, size, seed)| {
            Step::Op(FsOp::WriteFile {
                path,
                offset,
                size,
                seed,
            })
        }),
        (path.clone(), size.clone())
            .prop_map(|(path, size)| Step::Op(FsOp::Truncate { path, size })),
        (path.clone(), size).prop_map(|(path, size)| Step::Op(FsOp::Truncate { path, size })),
        path.clone()
            .prop_map(|path| Step::Op(FsOp::Mkdir { path, mode: 0o755 })),
        path.clone().prop_map(|path| Step::Op(FsOp::Rmdir { path })),
        path.clone()
            .prop_map(|path| Step::Op(FsOp::Unlink { path })),
        (path.clone(), path.clone()).prop_map(|(src, dst)| Step::Op(FsOp::Rename { src, dst })),
        (path.clone(), path.clone()).prop_map(|(src, dst)| Step::Op(FsOp::Hardlink { src, dst })),
        path.clone().prop_map(|path| Step::Op(FsOp::Stat { path })),
        path.prop_map(Step::Hold),
        Just(Step::CloseAll),
        key.clone().prop_map(Step::Checkpoint),
        key.clone().prop_map(Step::RestoreKeep),
        key.clone().prop_map(Step::Restore),
        key.prop_map(Step::Discard),
    ]
}

/// Every VeriFS configuration the memo must be exact on, the residue fold
/// off (MC002's regression target) included.
fn configs() -> Vec<VeriFsConfig> {
    let mut out = Vec::new();
    for base in [VeriFsConfig::v1(), VeriFsConfig::v2()] {
        for truncate_no_zero in [false, true] {
            for hole_no_zero in [false, true] {
                for fold in [true, false] {
                    let mut cfg = base.clone();
                    cfg.bugs.v1_truncate_no_zero = truncate_no_zero;
                    cfg.bugs.v2_hole_no_zero = hole_no_zero;
                    cfg.opaque_residue_digest = fold;
                    out.push(cfg);
                }
            }
        }
    }
    out
}

/// Runs `steps` on `fs`, asserting after every step whose flag is set that
/// the memoized `opaque_state_digest` equals `fresh(fs)`. Returns how many
/// checks found residue, so callers can tell the property was not vacuous.
fn run<F: FileSystem + FsCheckpoint>(
    fs: &mut F,
    steps: &[(Step, bool)],
    fresh: impl Fn(&F) -> Option<u128>,
    label: &str,
) -> usize {
    fs.mount().unwrap();
    let mut held: Vec<Fd> = Vec::new();
    let mut with_residue = 0;
    for (i, (step, check)) in steps.iter().enumerate() {
        // Failures (missing keys, ENOSYS on VeriFS1, ENOENT) are part of
        // the run; only the digests are under test.
        match step {
            Step::Op(op) => {
                execute(fs, op, &[]);
            }
            Step::Hold(path) => {
                if let Ok(fd) = fs.open(path, OpenFlags::read_write(), FileMode::REG_DEFAULT) {
                    held.push(fd);
                }
            }
            Step::CloseAll => {
                for fd in held.drain(..) {
                    let _ = fs.close(fd);
                }
            }
            Step::Checkpoint(k) => {
                let _ = fs.checkpoint(*k);
            }
            Step::RestoreKeep(k) => {
                let _ = fs.restore_keep(*k);
            }
            Step::Restore(k) => {
                let _ = fs.restore(*k);
            }
            Step::Discard(k) => {
                let _ = fs.discard(*k);
            }
        }
        if *check {
            let memo = fs.opaque_state_digest();
            assert_eq!(memo, fresh(fs), "{label}: step {i} ({step:?})");
            assert_eq!(
                fs.opaque_state_digest(),
                memo,
                "{label}: repeat at step {i}"
            );
            with_residue += usize::from(memo.is_some());
        }
    }
    with_residue
}

/// A populated tree every random run starts from, so truncates and writes
/// find files with data: `/a`, `/b` and `/d/c` hold 200, 100 and 150 bytes.
fn setup() -> Vec<(Step, bool)> {
    let mut out = vec![FsOp::Mkdir {
        path: "/d".into(),
        mode: 0o755,
    }];
    for (path, size) in [("/a", 200), ("/b", 100), ("/d/c", 150)] {
        out.push(FsOp::CreateFile {
            path: path.into(),
            mode: 0o644,
        });
        out.push(FsOp::WriteFile {
            path: path.into(),
            offset: 0,
            size,
            seed: 1,
        });
    }
    out.into_iter().map(|op| (Step::Op(op), true)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn memoized_residue_digest_equals_fresh_recomputation(
        random in prop::collection::vec((arb_step(), any::<bool>()), 1..40),
    ) {
        let steps: Vec<(Step, bool)> = setup().into_iter().chain(random).collect();
        for cfg in configs() {
            let label = format!(
                "verifs{} {:?} fold={}",
                cfg.version, cfg.bugs, cfg.opaque_residue_digest
            );
            let mut bare = VeriFs::with_config(cfg.clone());
            run(&mut bare, &steps, VeriFs::opaque_state_digest_uncached, &label);

            let mut mount = FuseMount::with_config(VeriFs::with_config(cfg), FuseConfig::default(), None);
            let conn = mount.connection();
            mount.daemon_mut().fs_mut().set_invalidation_sink(Arc::new(conn));
            run(
                &mut mount,
                &steps,
                |m: &FuseMount<VeriFs>| m.daemon().fs().opaque_state_digest_uncached(),
                &format!("fuse {label}"),
            );
        }
    }
}

/// A fixed run that leaves residue, checkpoints it, changes it and
/// restores: the property above is not vacuous, and a restore brings the
/// checkpointed digest back.
#[test]
fn restore_brings_back_the_checkpointed_digest() {
    let path: Name = "/a".into();
    let op = |op: FsOp| (Step::Op(op), true);
    let steps = vec![
        op(FsOp::CreateFile { path, mode: 0o644 }),
        op(FsOp::WriteFile {
            path,
            offset: 0,
            size: 100,
            seed: 1,
        }),
        op(FsOp::Truncate { path, size: 10 }),
        (Step::Checkpoint(1), true),
        op(FsOp::Truncate { path, size: 5 }),
        (Step::RestoreKeep(1), true),
    ];
    let mut fs = VeriFs::v2();
    let found = run(&mut fs, &steps, VeriFs::opaque_state_digest_uncached, "v2");
    assert_eq!(found, 4, "truncate-down leaves residue from step 2 on");

    let mut other = VeriFs::v2();
    run(
        &mut other,
        &steps[..3],
        VeriFs::opaque_state_digest_uncached,
        "v2",
    );
    assert_eq!(fs.opaque_state_digest(), other.opaque_state_digest());
}

/// `/b` with residue, then `/a` hard-linked to it: the canonical path that
/// keys the residue moves to the smaller name, so `link` must reset the memo.
#[test]
fn hardlink_to_a_smaller_name_rekeys_the_residue() {
    let b: Name = "/b".into();
    let mut steps = setup();
    steps.extend([
        (Step::Op(FsOp::Unlink { path: "/a".into() }), true),
        (Step::Op(FsOp::Truncate { path: b, size: 10 }), true),
        (
            Step::Op(FsOp::Hardlink {
                src: b,
                dst: "/a".into(),
            }),
            true,
        ),
    ]);
    let mut fs = VeriFs::v2();
    assert_eq!(
        run(&mut fs, &steps, VeriFs::opaque_state_digest_uncached, "v2"),
        2
    );
}

/// An unlinked file held open keeps its residue (keyed by slot) until the
/// last close frees it: the close must reset the memo.
#[test]
fn closing_an_orphan_drops_its_residue() {
    let a: Name = "/a".into();
    let mut steps = setup();
    steps.extend([
        (Step::Op(FsOp::Truncate { path: a, size: 10 }), true),
        (Step::Hold(a), true),
        (Step::Op(FsOp::Unlink { path: a }), true),
        (Step::CloseAll, true),
    ]);
    let mut fs = VeriFs::v2();
    assert_eq!(
        run(&mut fs, &steps, VeriFs::opaque_state_digest_uncached, "v2"),
        3
    );
    assert_eq!(fs.opaque_state_digest(), None);
}
