//! Crash-consistency checking end to end: the nondeterministic `Crash`
//! pseudo-op over correct file systems finds nothing (recovery is always
//! prefix-consistent), while a device that tears writes produces a
//! violation with a trace that replays deterministically.

use blockdev::{FaultKind, FaultPlan, FaultyDevice, RamDisk};
use fs_ext::{ExtConfig, ExtFs};
use mcfs::{
    replay_checked, CheckpointTarget, FsOp, Mcfs, McfsConfig, PoolConfig, RemountMode,
    RemountTarget, ReplayOutcome,
};
use modelcheck::{ApplyOutcome, DfsExplorer, ExploreConfig, ModelSystem, RandomWalk, StopReason};
use verifs::VeriFs;
use vfs::FileSystem;

/// Seeded crash exploration over a correct user-space pairing: every
/// recovery must land inside the prefix window, so the run is violation-free
/// while actually exercising crashes.
#[test]
fn crash_exploration_over_verifs_pair_is_clean() {
    let mut a = VeriFs::v2();
    a.mount().unwrap();
    let mut b = VeriFs::v2();
    b.mount().unwrap();
    let mut m = Mcfs::new(
        vec![
            Box::new(CheckpointTarget::new(a)),
            Box::new(CheckpointTarget::new(b)),
        ],
        McfsConfig {
            crash_exploration: true,
            pool: PoolConfig::small(),
            ..McfsConfig::default()
        },
    )
    .unwrap();
    let report = DfsExplorer::new(ExploreConfig {
        max_depth: 3,
        max_ops: 6_000,
        ..ExploreConfig::default()
    })
    .run(&mut m);
    assert!(report.violations.is_empty(), "{}", report.violations[0]);
    let crash = report.stats.crash.expect("crash stats when enabled");
    assert!(crash.crashes > 0, "DFS must have explored Crash branches");
    assert_eq!(crash.divergent_recoveries, 0);
    assert_eq!(crash.crashes, crash.recoveries);
}

/// The same property over kernel-style device-backed targets: per-op remount
/// syncs after every operation, so a power cut never loses acknowledged
/// state and recovery always equals the pre-crash image.
#[test]
fn crash_exploration_over_ext_pair_is_clean() {
    let e2 = fs_ext::ext2_on_ram(256 * 1024).unwrap();
    let e4 = fs_ext::ext4_on_ram(256 * 1024).unwrap();
    let mut m = Mcfs::new(
        vec![
            Box::new(RemountTarget::new(e2, RemountMode::PerOp)),
            Box::new(RemountTarget::new(e4, RemountMode::PerOp)),
        ],
        McfsConfig {
            crash_exploration: true,
            pool: PoolConfig::small(),
            ..McfsConfig::default()
        },
    )
    .unwrap();
    let report = RandomWalk::new(ExploreConfig {
        max_depth: 10,
        max_ops: 300,
        seed: 0xC4A5,
        ..ExploreConfig::default()
    })
    .run(&mut m);
    assert_eq!(
        report.stop,
        StopReason::OpBudget,
        "{}",
        report
            .violations
            .first()
            .map(|v| v.to_string())
            .unwrap_or_default()
    );
    let crash = report.stats.crash.expect("crash stats when enabled");
    assert!(crash.crashes > 0, "walk must have chosen Crash");
    assert_eq!(crash.crashes, crash.recoveries);
}

/// An ext2 instance whose device tears (or not) according to `plan`,
/// armed *after* format so the plan's `skip` counts from a deterministic
/// point.
fn ext2_torn(plan: FaultPlan) -> ExtFs<FaultyDevice<RamDisk>> {
    let cfg = ExtConfig::ext2();
    let disk = RamDisk::new(cfg.block_size, 256 * 1024).unwrap();
    let mut fs = ExtFs::format(FaultyDevice::new(disk, FaultPlan::none()), cfg).unwrap();
    fs.device_mut().set_plan(plan);
    fs
}

/// Clean ext2 vs torn-device ext2, both per-op remounted. `None` when the
/// fault window fires so early that the pair cannot even agree on the
/// initial state.
fn torn_pair(plan: FaultPlan) -> Option<Mcfs> {
    let clean = ext2_torn(FaultPlan::none());
    let torn = ext2_torn(plan);
    Mcfs::new(
        vec![
            Box::new(RemountTarget::new(clean, RemountMode::PerOp)),
            Box::new(RemountTarget::new(torn, RemountMode::PerOp)),
        ],
        McfsConfig {
            pool: PoolConfig::small(),
            ..McfsConfig::default()
        },
    )
    .ok()
}

/// A fixed workload that dirties plenty of distinct blocks, so a torn
/// sector written anywhere in its sync traffic changes observable state.
fn torn_script() -> Vec<FsOp> {
    let mut ops = vec![FsOp::Mkdir {
        path: "/d".into(),
        mode: 0o755,
    }];
    for i in 0..6u8 {
        ops.push(FsOp::CreateFile {
            path: format!("/f{i}").into(),
            mode: 0o644,
        });
        ops.push(FsOp::WriteFile {
            path: format!("/f{i}").into(),
            offset: 0,
            size: 900,
            seed: i,
        });
    }
    ops.push(FsOp::Getdents { path: "/".into() });
    ops
}

/// Tentpole acceptance: a torn-write plan yields at least one violation,
/// and the reported trace reproduces it — same index, same message — on a
/// freshly built pair. Replay works because the fault plan is armed at a
/// deterministic point and `set_plan` restarts the op counters, so the
/// tear fires on the identical write in the rebuilt run.
#[test]
fn torn_write_violation_replays_deterministically() {
    let script = torn_script();
    let mut found = None;
    for skip in 0..60u64 {
        let plan = FaultPlan::eio(FaultKind::Write, skip, 1).with_torn_bytes(17);
        let Some(mut m) = torn_pair(plan) else {
            continue;
        };
        for (i, op) in script.iter().enumerate() {
            if let ApplyOutcome::Violation(msg) = m.apply(op) {
                found = Some((skip, i, msg));
                break;
            }
        }
        if found.is_some() {
            break;
        }
    }
    let (skip, idx, msg) = found.expect("some torn write must corrupt observable state");
    // Rebuild the identical pair and replay the trace prefix: the violation
    // must fire at the same op with the same diagnosis.
    let plan = FaultPlan::eio(FaultKind::Write, skip, 1).with_torn_bytes(17);
    let mut fresh = torn_pair(plan).expect("pair built once, must build again");
    // `replay_checked` rather than bare `replay`: confirmation means the
    // *same* diagnosis at the same op, not just any violation en route.
    let hit = replay_checked(&mut fresh, &script[..=idx], &msg);
    assert_eq!(
        hit,
        ReplayOutcome::Reproduced { index: idx },
        "trace must reproduce the violation"
    );
}

/// The explorers find torn-write corruption on their own: a random walk
/// over the torn pair stops with a violation carrying a non-empty trace.
#[test]
fn explorer_finds_torn_write_violation() {
    let mut found = false;
    'search: for skip in [8u64, 14, 20, 26] {
        for seed in 0..4u64 {
            let plan = FaultPlan::eio(FaultKind::Write, skip, 2).with_torn_bytes(7);
            let Some(mut m) = torn_pair(plan) else {
                continue;
            };
            let report = RandomWalk::new(ExploreConfig {
                max_depth: 30,
                max_ops: 400,
                seed,
                ..ExploreConfig::default()
            })
            .run(&mut m);
            if report.stop == StopReason::Violation {
                let v = &report.violations[0];
                assert!(!v.trace.is_empty(), "violation must carry a trace");
                found = true;
                break 'search;
            }
        }
    }
    assert!(
        found,
        "random walks over a tearing device must hit a violation"
    );
}
