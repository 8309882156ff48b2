//! Property-based tests over the core invariants.
//!
//! The central property is MCFS's own premise turned into a proptest: for
//! *any* sequence of pool operations, two independent file-system
//! implementations produce identical outcomes and identical abstract states.
//! Additional properties cover checkpoint/restore round-trips, device
//! snapshot semantics, and MD5's incremental-equals-oneshot law.

use proptest::prelude::*;

use mcfs::{abstract_state, execute, AbstractionConfig, FsOp, Name};
use verifs::VeriFs;
use vfs::{FileSystem, FsCheckpoint};

/// Strategy: one operation over a tiny bounded namespace.
fn arb_op() -> impl Strategy<Value = FsOp> {
    let path = prop_oneof![
        Just(Name::from("/a")),
        Just(Name::from("/b")),
        Just(Name::from("/d")),
        Just(Name::from("/d/c")),
    ];
    let size = prop_oneof![Just(0u64), Just(1), Just(65), Just(200)];
    let offset = prop_oneof![Just(0u64), Just(10), Just(100)];
    prop_oneof![
        path.clone().prop_map(|p| FsOp::CreateFile {
            path: p,
            mode: 0o644
        }),
        (path.clone(), offset.clone(), size.clone(), 0u8..4).prop_map(|(p, offset, size, seed)| {
            FsOp::WriteFile {
                path: p,
                offset,
                size,
                seed,
            }
        }),
        (path.clone(), size.clone()).prop_map(|(p, size)| FsOp::Truncate { path: p, size }),
        path.clone().prop_map(|p| FsOp::Mkdir {
            path: p,
            mode: 0o755
        }),
        path.clone().prop_map(|p| FsOp::Rmdir { path: p }),
        path.clone().prop_map(|p| FsOp::Unlink { path: p }),
        (path.clone(), path.clone()).prop_map(|(a, b)| FsOp::Rename { src: a, dst: b }),
        (path.clone(), path.clone()).prop_map(|(a, b)| FsOp::Hardlink { src: a, dst: b }),
        (path.clone(), offset.clone(), size).prop_map(|(p, offset, size)| FsOp::ReadFile {
            path: p,
            offset,
            size: size.max(8),
        }),
        path.clone().prop_map(|p| FsOp::Stat { path: p }),
        path.clone().prop_map(|p| FsOp::Getdents { path: p }),
        (path, 0u8..3).prop_map(|(p, i)| FsOp::Chmod {
            path: p,
            mode: [0o644, 0o400, 0o755][i as usize],
        }),
    ]
}

fn mounted_verifs2() -> VeriFs {
    let mut fs = VeriFs::v2();
    fs.mount().unwrap();
    fs
}

fn mounted_ext4() -> fs_ext::ExtFs<blockdev::RamDisk> {
    let mut fs = fs_ext::ext4_on_ram(256 * 1024).unwrap();
    fs.mount().unwrap();
    fs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The MCFS premise: VeriFS2 and ext4 agree on every outcome and every
    /// abstract state for arbitrary op sequences.
    #[test]
    fn verifs_and_ext4_agree_on_arbitrary_sequences(ops in prop::collection::vec(arb_op(), 1..25)) {
        let mut a = mounted_verifs2();
        let mut b = mounted_ext4();
        let exceptions = vec!["lost+found".to_string()];
        let cfg = AbstractionConfig::default();
        for (i, op) in ops.iter().enumerate() {
            let oa = execute(&mut a, op, &exceptions);
            let ob = execute(&mut b, op, &exceptions);
            prop_assert_eq!(&oa, &ob, "outcome diverged at step {} on {}", i, op);
            let ha = abstract_state(&mut a, &cfg).unwrap();
            let hb = abstract_state(&mut b, &cfg).unwrap();
            prop_assert_eq!(ha, hb, "state diverged at step {} on {}", i, op);
        }
    }

    /// Checkpoint/restore is an exact inverse for arbitrary mutation
    /// sequences.
    #[test]
    fn checkpoint_restore_roundtrip_holds(
        before in prop::collection::vec(arb_op(), 0..12),
        after in prop::collection::vec(arb_op(), 1..12),
    ) {
        let mut fs = mounted_verifs2();
        let cfg = AbstractionConfig::default();
        for op in &before {
            execute(&mut fs, op, &[]);
        }
        let h0 = abstract_state(&mut fs, &cfg).unwrap();
        fs.checkpoint(1).unwrap();
        for op in &after {
            execute(&mut fs, op, &[]);
        }
        fs.restore_keep(1).unwrap();
        prop_assert_eq!(abstract_state(&mut fs, &cfg).unwrap(), h0);
    }

    /// Device snapshot/restore is an exact inverse at the block level.
    #[test]
    fn device_snapshot_roundtrip(writes in prop::collection::vec((0u64..64, 0u8..=255), 1..20)) {
        use blockdev::BlockDevice;
        let mut dev = blockdev::RamDisk::new(64, 64 * 64).unwrap();
        for (blk, fill) in &writes[..writes.len() / 2 + 1] {
            dev.write_block(*blk, &[*fill; 64]).unwrap();
        }
        let snap = dev.snapshot().unwrap();
        for (blk, fill) in &writes {
            dev.write_block(*blk, &[fill.wrapping_add(1); 64]).unwrap();
        }
        dev.restore(&snap).unwrap();
        let mut now = blockdev::RamDisk::new(64, 64 * 64).unwrap();
        for (blk, fill) in &writes[..writes.len() / 2 + 1] {
            now.write_block(*blk, &[*fill; 64]).unwrap();
        }
        for blk in 0..64u64 {
            let mut a = vec![0u8; 64];
            let mut b = vec![0u8; 64];
            dev.read_block(blk, &mut a).unwrap();
            now.read_block(blk, &mut b).unwrap();
            prop_assert_eq!(a, b, "block {}", blk);
        }
    }

    /// MD5 streaming equals one-shot for arbitrary splits.
    #[test]
    fn md5_incremental_equals_oneshot(data in prop::collection::vec(any::<u8>(), 0..4096), split in 0usize..4096) {
        let split = split.min(data.len());
        let mut ctx = mdigest::Md5::new();
        ctx.update(&data[..split]);
        ctx.update(&data[split..]);
        prop_assert_eq!(ctx.finalize(), mdigest::md5(&data));
    }

    /// The abstraction function is deterministic and insensitive to atime
    /// noise for arbitrary states.
    #[test]
    fn abstraction_is_stable_under_reads(ops in prop::collection::vec(arb_op(), 1..15)) {
        let mut fs = mounted_verifs2();
        for op in &ops {
            execute(&mut fs, op, &[]);
        }
        let cfg = AbstractionConfig::default();
        let h1 = abstract_state(&mut fs, &cfg).unwrap();
        // Hashing traverses and reads (bumping atimes); a second pass must
        // still agree.
        let h2 = abstract_state(&mut fs, &cfg).unwrap();
        prop_assert_eq!(h1, h2);
    }

    /// Path validation never panics and classifies deterministically.
    #[test]
    fn path_validation_total(s in "\\PC*") {
        let _ = vfs::path::validate(&s);
        if vfs::path::validate(&s).is_ok() && s != "/" {
            // Valid paths always split and rejoin losslessly.
            let (parent, name) = vfs::path::split_parent(&s).unwrap();
            prop_assert_eq!(vfs::path::join(parent, name), s);
        }
    }
}

fn mounted_xfs() -> fs_xfs::XfsFs<blockdev::RamDisk> {
    let mut fs = fs_xfs::xfs_on_ram(fs_xfs::MIN_DEVICE_BYTES).unwrap();
    fs.mount().unwrap();
    fs
}

fn mounted_jffs2() -> fs_jffs2::Jffs2Fs {
    let mut fs = fs_jffs2::jffs2_on_mtdram(16 * 1024, 64).unwrap();
    fs.mount().unwrap();
    fs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The MCFS property across very different architectures: the
    /// extent-based XFS agrees with the in-memory VeriFS2.
    #[test]
    fn verifs_and_xfs_agree_on_arbitrary_sequences(ops in prop::collection::vec(arb_op(), 1..20)) {
        let mut a = mounted_verifs2();
        let mut b = mounted_xfs();
        let cfg = AbstractionConfig::default();
        for (i, op) in ops.iter().enumerate() {
            let oa = execute(&mut a, op, &[]);
            let ob = execute(&mut b, op, &[]);
            prop_assert_eq!(&oa, &ob, "outcome diverged at step {} on {}", i, op);
            let ha = abstract_state(&mut a, &cfg).unwrap();
            let hb = abstract_state(&mut b, &cfg).unwrap();
            prop_assert_eq!(ha, hb, "state diverged at step {} on {}", i, op);
        }
    }

    /// And the log-structured JFFS2 agrees too — including across a
    /// crash-remount (full rescan) at the end of every sequence.
    #[test]
    fn verifs_and_jffs2_agree_including_rescan(ops in prop::collection::vec(arb_op(), 1..16)) {
        let mut a = mounted_verifs2();
        let mut b = mounted_jffs2();
        let cfg = AbstractionConfig::default();
        for (i, op) in ops.iter().enumerate() {
            let oa = execute(&mut a, op, &[]);
            let ob = execute(&mut b, op, &[]);
            prop_assert_eq!(&oa, &ob, "outcome diverged at step {} on {}", i, op);
        }
        // Remount JFFS2 (full flash rescan) and compare final states.
        b.unmount().unwrap();
        b.mount().unwrap();
        let ha = abstract_state(&mut a, &cfg).unwrap();
        let hb = abstract_state(&mut b, &cfg).unwrap();
        prop_assert_eq!(ha, hb, "state diverged after rescan");
    }

    /// Ext2 survives arbitrary remount points with no state change.
    #[test]
    fn ext2_state_is_remount_invariant(
        ops in prop::collection::vec(arb_op(), 1..15),
        remount_at in 0usize..15,
    ) {
        let mut fs = mounted_ext4();
        let cfg = AbstractionConfig::default();
        for (i, op) in ops.iter().enumerate() {
            execute(&mut fs, op, &["lost+found".to_string()]);
            if i == remount_at.min(ops.len() - 1) {
                let before = abstract_state(&mut fs, &cfg).unwrap();
                fs.unmount().unwrap();
                fs.mount().unwrap();
                let after = abstract_state(&mut fs, &cfg).unwrap();
                prop_assert_eq!(before, after, "remount changed state after {}", op);
            }
        }
    }
}
