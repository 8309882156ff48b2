//! Pins the FUSE traffic the simulation models for one fixed script.
//!
//! Every kernel↔daemon crossing costs virtual time, and the dentry/attr
//! caches decide which operations cross at all. Host-side changes to the
//! cache structures must leave both untouched, so this test drives a fixed
//! script through `FuseMount<VeriFs>` (v1 and v2) on a TTL clock and checks
//! the per-kind message counts, the invalidation count, the dentry-cache
//! size and the virtual clock against figures recorded before those
//! structures were reworked. The script covers restore invalidation,
//! readdirplus priming, rename/unlink dentry drops, TTL expiry and a second
//! thread's cache view.

use std::sync::Arc;

use blockdev::Clock;
use fusesim::{FuseConfig, FuseMount, FuseOpKind};
use verifs::VeriFs;
use vfs::{FileMode, FileSystem, FsCheckpoint, InvalidationSink, OpenFlags};

/// What one run of the script leaves behind.
#[derive(Debug, PartialEq, Eq)]
struct Modelled {
    traffic: Vec<(FuseOpKind, u64)>,
    invalidations: u64,
    dentries: usize,
    clock_ns: u64,
}

fn write(m: &mut FuseMount<VeriFs>, p: &str, data: &[u8]) {
    if let Ok(fd) = m.open(p, OpenFlags::write_only(), FileMode::REG_DEFAULT) {
        let _ = m.write(fd, data);
        let _ = m.close(fd);
    }
}

fn create(m: &mut FuseMount<VeriFs>, p: &str) {
    if let Ok(fd) = m.create(p, FileMode::REG_DEFAULT) {
        let _ = m.close(fd);
    }
}

/// Runs the script; results of individual calls are deliberately ignored
/// (v1 lacks some operations), only the modelled traffic is compared.
fn run(fs: VeriFs) -> Modelled {
    let clock = Clock::new();
    let cfg = FuseConfig {
        entry_ttl_ns: 400_000,
        attr_ttl_ns: 250_000,
        message_cost_ns: 34_000,
        broadcast_local_invalidation: true,
    };
    let mut m = FuseMount::with_config(fs, cfg, Some(clock.clone()));
    let conn = m.connection();
    m.daemon_mut()
        .fs_mut()
        .set_invalidation_sink(Arc::new(conn));
    m.mount().unwrap();

    let _ = m.mkdir("/d", FileMode::DIR_DEFAULT);
    let _ = m.mkdir("/d/e", FileMode::DIR_DEFAULT);
    create(&mut m, "/d/e/f");
    write(&mut m, "/d/e/f", b"hello");
    create(&mut m, "/a");
    // readdirplus primes every listed entry.
    for dir in ["/", "/d", "/d/e"] {
        let _ = m.getdents(dir);
    }
    for p in ["/a", "/d/e/f", "/missing", "/d/missing"] {
        let _ = m.stat(p);
    }
    let _ = m.checkpoint(1);
    write(&mut m, "/a", b"grown");
    let _ = m.truncate("/d/e/f", 2);
    let _ = m.link("/a", "/b");
    let _ = m.unlink("/a");
    let _ = m.rename("/d/e/f", "/d/g");
    let _ = m.rename("/b", "/d/e/f");
    let _ = m.mkdir("/x", FileMode::DIR_DEFAULT);
    let _ = m.setxattr("/x", "user.k", b"v", vfs::XattrFlags::Any);
    let _ = m.getdents("/d");
    for p in ["/a", "/b", "/d/g", "/d/e/f"] {
        let _ = m.stat(p);
    }
    // Restore rolls the daemon back and invalidates the kernel caches.
    let _ = m.restore(1);
    for p in ["/a", "/d/e/f", "/x", "/d/g"] {
        let _ = m.stat(p);
    }
    let _ = m.getdents("/");
    let _ = m.mkdir("/x", FileMode::DIR_DEFAULT);
    // Let every cached entry expire, then walk the tree again.
    clock.advance_ns(1_000_000);
    for p in ["/a", "/d/e/f", "/x"] {
        let _ = m.stat(p);
    }
    for dir in ["/", "/d", "/d/e", "/x"] {
        let _ = m.getdents(dir);
    }
    let _ = m.rmdir("/x");
    let _ = m.unlink("/d/e/f");
    let _ = m.unlink("/d/e/f");
    let _ = m.access("/a", vfs::AccessMode::read());
    let _ = m.readlink("/a");
    // A second thread's cache view: broadcast drops, then granular
    // daemon-side invalidations that reach every view.
    m.set_active_thread(1);
    for p in ["/d/e", "/d/e/f", "/a"] {
        let _ = m.stat(p);
    }
    m.set_active_thread(0);
    create(&mut m, "/d/e/h");
    let _ = m.getdents("/d/e");
    let conn = m.connection();
    if let Ok(st) = m.stat("/d/e") {
        conn.invalidate_inode(st.ino.0);
    }
    conn.invalidate_entry(vfs::Ino::ROOT.0, "d");
    m.set_active_thread(1);
    for p in ["/d/e/h", "/d/e/f"] {
        let _ = m.stat(p);
    }
    Modelled {
        traffic: m.daemon().traffic().iter().collect(),
        invalidations: m.invalidation_count(),
        dentries: m.dentry_cache_len(),
        clock_ns: clock.now_ns(),
    }
}

/// The recorded per-kind counts; v1 and v2 differ only in lookups and
/// getattrs.
fn pinned(lookups: u64, getattrs: u64) -> Vec<(FuseOpKind, u64)> {
    use FuseOpKind::*;
    vec![
        (Lookup, lookups),
        (Getattr, getattrs),
        (Create, 3),
        (Open, 2),
        (Release, 5),
        (Write, 2),
        (Setattr, 1),
        (Mkdir, 4),
        (Rmdir, 1),
        (Unlink, 2),
        (Readdir, 10),
        (Rename, 2),
        (Link, 1),
        (Readlink, 1),
        (Access, 1),
        (Xattr, 1),
        (Ioctl, 2),
    ]
}

#[test]
fn verifs_v1_traffic_is_pinned() {
    let expected = Modelled {
        traffic: pinned(28, 1),
        invalidations: 18,
        dentries: 5,
        clock_ns: 3_278_000,
    };
    assert_eq!(run(VeriFs::v1()), expected);
}

#[test]
fn verifs_v2_traffic_is_pinned() {
    let expected = Modelled {
        traffic: pinned(29, 2),
        invalidations: 19,
        dentries: 5,
        clock_ns: 3_346_000,
    };
    assert_eq!(run(VeriFs::v2()), expected);
}
