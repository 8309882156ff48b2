//! The scan memo must be invisible: whatever grain a mount takes (a
//! whole-image hit, a partial rescan that skips the CRC of unchanged blocks,
//! or a full miss), its index and its virtual-time charge equal those of a
//! fresh scan of a copy of the same flash. Under a fault plan the memo is
//! bypassed, so reads fault at exactly the ordinal a plain scan reaches.

use blockdev::{FaultKind, FaultPlan};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

use super::*;

/// Which path [`Jffs2Fs::scan`] will take on the current flash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Grain {
    Bypass,
    Miss,
    Partial,
    Whole,
}

fn grain(fs: &Jffs2Fs) -> Grain {
    let mtd = fs.dev.mtd();
    if mtd.fault_plan().is_some() {
        return Grain::Bypass;
    }
    let Some(memo) = &fs.memo else {
        return Grain::Miss;
    };
    let unchanged: Vec<bool> = (0..mtd.num_erase_blocks())
        .map(|b| memo.image.chunk_eq(b, mtd.image()))
        .collect();
    if unchanged.iter().all(|&u| u) {
        Grain::Whole
    } else if unchanged.iter().zip(&memo.verified).any(|(u, v)| *u && *v) {
        Grain::Partial
    } else {
        Grain::Miss
    }
}

/// Everything a scan decides; the fd table is always empty after a mount.
fn same_index(a: &Mounted, b: &Mounted) -> bool {
    a.inodes == b.inodes
        && a.dirents == b.dirents
        && a.xattrs == b.xattrs
        && a.used == b.used
        && a.dead == b.dead
        && a.clean == b.clean
        && a.head == b.head
        && a.next_version == b.next_version
        && a.next_ino == b.next_ino
        && a.time == b.time
        && a.fds.iter().next().is_none()
        && b.fds.iter().next().is_none()
}

fn clocked(clock: &Clock) -> Jffs2Config {
    Jffs2Config {
        clock: Some(clock.clone()),
        ..Jffs2Config::default()
    }
}

/// A small flash (10 erase blocks of 4 KiB) so modest churn forces GC.
fn small_fs(clock: &Clock) -> Jffs2Fs {
    let mtd = MtdDevice::new(4096, 10).unwrap();
    Jffs2Fs::format(mtd, clocked(clock)).unwrap()
}

/// Mounts `fs` (through `mount_op`) and checks the result against a fresh
/// scan of a copy of the same flash: same outcome, same index, same clock
/// charge. Returns the grain the mount took. (The copy is taken after the
/// mount, which never writes flash, so that it cannot share blocks with the
/// flash being scanned and sway what gets memoized.)
fn checked_mount(
    fs: &mut Jffs2Fs,
    clock: &Clock,
    mount_op: impl FnOnce(&mut Jffs2Fs) -> VfsResult<()>,
) -> Grain {
    let took = grain(fs);
    let before = clock.now_ns();
    let got = mount_op(fs);
    let charged = clock.now_ns() - before;

    let mut mtd = fs.dev.mtd().clone();
    mtd.set_fault_plan(None);
    let fresh_clock = Clock::new();
    let mut fresh = Jffs2Fs::open_device(mtd, clocked(&fresh_clock)).unwrap();
    let want = fresh.mount();
    assert_eq!(got, want, "mount outcome ({took:?})");
    assert_eq!(charged, fresh_clock.now_ns(), "scan charge ({took:?})");
    if got.is_ok() {
        assert!(
            same_index(fs.m.as_ref().unwrap(), fresh.m.as_ref().unwrap()),
            "index differs from a fresh scan ({took:?})"
        );
    }
    took
}

fn write_at(fs: &mut Jffs2Fs, p: &str, off: u64, data: &[u8]) -> VfsResult<()> {
    let fd = fs.open(
        p,
        OpenFlags::write_only().with_create(),
        FileMode::REG_DEFAULT,
    )?;
    let res = fs.lseek(fd, off).and_then(|_| fs.write(fd, data));
    fs.close(fd)?;
    res.map(|_| ())
}

#[derive(Debug, Clone)]
enum Action {
    Write(usize, u64, usize, u8),
    Truncate(usize, u64),
    Mkdir(usize),
    Unlink(usize),
    Rename(usize, usize),
    Setxattr(usize, u8),
    Chmod(usize),
    /// Rewrites one file several times over: enough dead space to force GC.
    Churn(usize, u8),
    Snapshot(usize),
    Restore(usize),
    Remount,
    /// Unmount, snapshot, mount: what the checker does around each state.
    Checkpoint(usize),
    CrashReboot,
    /// A write whose `nth` program is torn after `keep` bytes, with the plan
    /// cleared afterwards.
    TornWrite(usize, u64, usize),
    /// A remount while a (never-firing) read plan is installed: the bypass.
    RemountUnderPlan,
    /// Clears one bit of flash (block, offset in its first KiB, bit): rot
    /// that usually still parses, so only the CRC can catch it.
    BitRot(usize, usize, u8),
}

const PATHS: [&str; 4] = ["/a", "/b", "/d", "/d/c"];

fn arb_action() -> impl Strategy<Value = Action> {
    let path = 0usize..PATHS.len();
    prop_oneof![
        (path.clone(), 0u64..3000, 1usize..2500, any::<u8>())
            .prop_map(|(p, o, n, s)| Action::Write(p, o, n, s)),
        (path.clone(), 0u64..4000).prop_map(|(p, n)| Action::Truncate(p, n)),
        path.clone().prop_map(Action::Mkdir),
        path.clone().prop_map(Action::Unlink),
        (path.clone(), path.clone()).prop_map(|(a, b)| Action::Rename(a, b)),
        (path.clone(), any::<u8>()).prop_map(|(p, v)| Action::Setxattr(p, v)),
        path.clone().prop_map(Action::Chmod),
        (path.clone(), any::<u8>()).prop_map(|(p, s)| Action::Churn(p, s)),
        (0usize..3).prop_map(Action::Snapshot),
        (0usize..3).prop_map(Action::Restore),
        Just(Action::Remount),
        (0usize..3).prop_map(Action::Checkpoint),
        (0usize..3).prop_map(Action::Checkpoint),
        Just(Action::CrashReboot),
        (path, 0u64..3, 0usize..40).prop_map(|(p, n, k)| Action::TornWrite(p, n, k)),
        Just(Action::RemountUnderPlan),
        (0usize..10, 0usize..1024, 0u8..8).prop_map(|(b, o, bit)| Action::BitRot(b, o, bit)),
    ]
}

/// Applies one action; file-system errors are part of the workload and
/// ignored. Returns the grain of every mount the action performed.
fn run_action(
    fs: &mut Jffs2Fs,
    clock: &Clock,
    slots: &mut [Option<blockdev::DeviceSnapshot>],
    action: &Action,
) -> Vec<Grain> {
    let remount = |fs: &mut Jffs2Fs| {
        if fs.is_mounted() {
            fs.unmount().unwrap();
        }
        checked_mount(fs, clock, |fs| fs.mount())
    };
    match *action {
        Action::Write(p, off, n, seed) => {
            let _ = write_at(fs, PATHS[p], off, &vec![seed; n]);
        }
        Action::Truncate(p, n) => {
            let _ = fs.truncate(PATHS[p], n);
        }
        Action::Mkdir(p) => {
            let _ = fs.mkdir(PATHS[p], FileMode::DIR_DEFAULT);
        }
        Action::Unlink(p) => {
            let _ = fs.unlink(PATHS[p]);
        }
        Action::Rename(a, b) => {
            let _ = fs.rename(PATHS[a], PATHS[b]);
        }
        Action::Setxattr(p, v) => {
            let _ = fs.setxattr(PATHS[p], "user.k", &[v; 40], XattrFlags::Any);
        }
        Action::Chmod(p) => {
            let _ = fs.chmod(PATHS[p], FileMode::new(0o600));
        }
        Action::Churn(p, seed) => {
            for round in 0..4u8 {
                let _ = fs.truncate(PATHS[p], 0);
                let _ = write_at(fs, PATHS[p], 0, &vec![seed ^ round; 2500]);
            }
        }
        Action::Snapshot(slot) => slots[slot] = Some(fs.snapshot_device().unwrap()),
        Action::Restore(slot) => {
            if let Some(snap) = slots[slot].clone() {
                if fs.is_mounted() {
                    fs.unmount().unwrap();
                }
                fs.restore_device(&snap).unwrap();
                return vec![checked_mount(fs, clock, |fs| fs.mount())];
            }
        }
        Action::Remount => return vec![remount(fs)],
        Action::Checkpoint(slot) => {
            if fs.is_mounted() {
                fs.unmount().unwrap();
            }
            slots[slot] = Some(fs.snapshot_device().unwrap());
            return vec![remount(fs)];
        }
        Action::CrashReboot => return vec![checked_mount(fs, clock, |fs| fs.crash_reboot())],
        Action::TornWrite(p, nth, keep) => {
            fs.dev.mtd_mut().set_fault_plan(Some(
                FaultPlan::eio(FaultKind::Write, nth, 1).with_torn_bytes(keep),
            ));
            let _ = write_at(fs, PATHS[p], 0, &[0x5A; 300]);
            fs.dev.mtd_mut().set_fault_plan(None);
        }
        Action::RemountUnderPlan => {
            fs.dev
                .mtd_mut()
                .set_fault_plan(Some(FaultPlan::eio(FaultKind::Read, u64::MAX, 1)));
            let took = remount(fs);
            fs.dev.mtd_mut().set_fault_plan(None);
            return vec![took];
        }
        Action::BitRot(block, off, bit) => {
            let addr = (block * 4096 + off) as u64;
            let mut byte = [0u8];
            fs.dev.mtd().read(addr, &mut byte).unwrap();
            fs.dev
                .mtd_mut()
                .program(addr, &[byte[0] & !(1 << bit)])
                .unwrap();
        }
    }
    Vec::new()
}

/// Every mount, whatever grain of the memo it takes, yields the index and
/// the clock charge of a fresh scan of the same flash. Generated like a
/// proptest (48 cases of up to 40 actions), but as one loop so it can also
/// assert that the cases reached every grain.
#[test]
fn memoized_mounts_equal_fresh_scans() {
    let mut rng = TestRng::from_seed(0x5CA4_3E30);
    let cases = prop::collection::vec(arb_action(), 1..40);
    let mut seen = BTreeSet::new();
    for _ in 0..48 {
        let actions = cases.generate(&mut rng);
        let clock = Clock::new();
        let mut fs = small_fs(&clock);
        seen.insert(checked_mount(&mut fs, &clock, |fs| fs.mount()));
        let mut slots = vec![None, None, None];
        for action in &actions {
            seen.extend(run_action(&mut fs, &clock, &mut slots, action));
        }
        if fs.is_mounted() {
            fs.unmount().unwrap();
        }
        seen.insert(checked_mount(&mut fs, &clock, |fs| fs.mount()));
    }
    assert_eq!(seen.len(), 4, "grains reached: {seen:?}");
}

/// A scripted run that takes every grain, including a partial rescan next
/// to a quarantined block, and checks when a scan is memoized.
#[test]
fn every_grain_yields_the_fresh_index() {
    let clock = Clock::new();
    let mut fs = small_fs(&clock);
    let mut slots = vec![None];
    let mut run = |fs: &mut Jffs2Fs, action: Action| run_action(fs, &clock, &mut slots, &action)[0];
    assert_eq!(run(&mut fs, Action::Checkpoint(0)), Grain::Miss);
    write_file_small(&mut fs, "/f", b"first");
    assert_eq!(
        run(&mut fs, Action::Checkpoint(0)),
        Grain::Partial,
        "only the head block changed"
    );
    assert_eq!(run(&mut fs, Action::Checkpoint(0)), Grain::Whole);

    // Restoring the scanned image after a write is a whole-image hit.
    let snap = fs.snapshot_device().unwrap();
    write_file_small(&mut fs, "/g", b"second");
    fs.unmount().unwrap();
    fs.restore_device(&snap).unwrap();
    assert_eq!(run(&mut fs, Action::Remount), Grain::Whole);
    assert_eq!(fs.stat("/g"), Err(Errno::ENOENT));

    // A rotten node (it parses, its CRC fails) in a block the memo had
    // verified quarantines the rest of the block; the memo reproduces that
    // on a hit, and never skips the CRC of that block on a rescan.
    fs.unmount().unwrap();
    let head = fs.memo.as_ref().unwrap().outcome.m.head;
    let end = super::tests::log_end(&fs, head);
    let mut rotten = Node::Xattr {
        ino: 1,
        version: 1_001,
        delete: false,
        name: "user.rot".into(),
        value: b"v".to_vec(),
    }
    .encode();
    rotten[crate::log::HEADER_LEN + 4] &= !1; // version 1001 -> 1000
    fs.dev.mtd_mut().program(end, &rotten).unwrap();
    assert_eq!(run(&mut fs, Action::Checkpoint(0)), Grain::Partial);
    assert_eq!(run(&mut fs, Action::Checkpoint(0)), Grain::Whole);
    let memo = fs.memo.as_ref().unwrap();
    assert!(
        memo.verified.iter().any(|v| !v),
        "the corrupt block is marked"
    );
    assert!(memo.outcome.quarantined.len() == 1);
    write_file_small(&mut fs, "/h", b"third");
    assert_eq!(run(&mut fs, Action::Checkpoint(0)), Grain::Partial);
    assert_eq!(read_all(&mut fs, "/f"), b"first");
    assert_eq!(read_all(&mut fs, "/h"), b"third");

    // Flash that no snapshot holds is scanned but not memoized: the memo
    // would be the only holder of blocks the next writes replace.
    write_file_small(&mut fs, "/i", b"fourth");
    assert_eq!(run(&mut fs, Action::Remount), Grain::Partial);
    assert!(
        fs.memo.is_none(),
        "the head block is the live flash's alone"
    );
    assert_eq!(run(&mut fs, Action::Remount), Grain::Miss);

    // A fresh file system scans everything.
    let mut copy = Jffs2Fs::open_device(fs.dev.mtd().clone(), clocked(&clock)).unwrap();
    assert_eq!(grain(&copy), Grain::Miss);
    copy.mount().unwrap();
}

fn write_file_small(fs: &mut Jffs2Fs, p: &str, data: &[u8]) {
    write_at(fs, p, 0, data).unwrap();
}

fn read_all(fs: &mut Jffs2Fs, p: &str) -> Vec<u8> {
    let fd = fs
        .open(p, OpenFlags::read_only(), FileMode::REG_DEFAULT)
        .unwrap();
    let mut buf = vec![0; 64];
    let n = fs.read(fd, &mut buf).unwrap();
    fs.close(fd).unwrap();
    buf.truncate(n);
    buf
}

/// A read fault at ordinal `n` fails the mount at the `n`-th erase block,
/// memo or not: the scan has charged exactly the `n` blocks before it, and
/// the memo is neither consulted nor replaced.
#[test]
fn read_fault_ordinals_see_every_scan_read() {
    let clock = Clock::new();
    let mut fs = small_fs(&clock);
    fs.mount().unwrap();
    write_file_small(&mut fs, "/f", b"payload");
    fs.unmount().unwrap();
    let _snap = fs.snapshot_device().unwrap();
    fs.mount().unwrap(); // the memo now holds this exact flash
    fs.unmount().unwrap();
    assert_eq!(grain(&fs), Grain::Whole);
    let per_block = FlashTiming::default().read_ns_per_4k;
    for n in 0..10u64 {
        fs.dev
            .mtd_mut()
            .set_fault_plan(Some(FaultPlan::eio(FaultKind::Read, n, 1)));
        let before = clock.now_ns();
        assert_eq!(fs.mount(), Err(Errno::EIO), "read {n} faults");
        assert_eq!(clock.now_ns() - before, n * per_block, "reads before {n}");
        assert_eq!(fs.dev.mtd().faults_injected(), 1);
        // fsck walks the same reads (repair phase, same ordinals).
        fs.dev
            .mtd_mut()
            .set_fault_plan(Some(FaultPlan::eio(FaultKind::Read, n, 1).during_repair()));
        assert_eq!(fs.mount().map(|_| fs.unmount()), Ok(Ok(())), "normal phase");
        assert_eq!(fs.fsck(), Err(Errno::EIO), "repair read {n} faults");
        assert_eq!(fs.dev.mtd().faults_injected(), 1);
        fs.dev.mtd_mut().set_fault_plan(None);
        assert_eq!(grain(&fs), Grain::Whole, "the memo survived the bypass");
    }
    // Past the last block nothing faults: a scan reads each block once.
    let past_the_end = Some(FaultPlan::eio(FaultKind::Read, 10, 1));
    fs.dev.mtd_mut().set_fault_plan(past_the_end);
    fs.mount().unwrap();
    assert_eq!(fs.dev.mtd().faults_injected(), 0);
    fs.unmount().unwrap();
    fs.dev.mtd_mut().set_fault_plan(past_the_end);
    assert!(fs.fsck().unwrap().is_clean());
    assert_eq!(fs.dev.mtd().faults_injected(), 0);
}
