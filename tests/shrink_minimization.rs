//! Counterexample minimization end to end: every minimized trace must
//! (a) reproduce a violation with the *same* message on a factory-fresh
//! harness, (b) be a subsequence of the original trace, and (c) be
//! 1-minimal — no single op can be removed (together with whatever
//! dependency repair re-adds) and still reproduce.

use std::sync::Arc;

use mcfs::shrink::{repair_mask, shrink_trace, ShrinkConfig};
use mcfs::{
    buggy_verifs_factory, harness_with_factory, replay, replay_checked, FsOp, HarnessFactory,
    McfsConfig, PoolConfig,
};
use modelcheck::{apply_mask, run_swarm, ExploreConfig, RandomWalk, StopReason, SwarmConfig};
use proptest::prelude::*;
use verifs::BugConfig;

/// Whether `needle` is a subsequence of `hay` (order-preserving).
fn is_subsequence(needle: &[FsOp], hay: &[FsOp]) -> bool {
    let mut it = hay.iter();
    needle.iter().all(|op| it.any(|h| h == op))
}

/// Asserts repair-aware 1-minimality: dropping any single op from
/// `minimized` (plus repair closure over the remainder) either reconstructs
/// the same trace or no longer reproduces `message` on a fresh harness.
fn assert_one_minimal(factory: &HarnessFactory, minimized: &[FsOp], message: &str) {
    for i in 0..minimized.len() {
        let mut mask = vec![true; minimized.len()];
        mask[i] = false;
        repair_mask(minimized, &mut mask);
        if mask.iter().all(|&k| k) {
            continue; // op i is pinned by a dependency; removal is a no-op
        }
        let candidate = apply_mask(minimized, &mask);
        let mut fresh = factory().expect("factory rebuilds");
        assert!(
            !replay_checked(&mut fresh, &candidate, message).reproduced(),
            "removing op {i} ({:?}) still reproduces: not 1-minimal",
            minimized[i]
        );
    }
}

/// The hole bug's triggering pattern (paper bug 3): write, shrink, then a
/// hole-creating write past the new EOF.
fn hole_pattern() -> [FsOp; 4] {
    [
        FsOp::CreateFile {
            path: "/f0".into(),
            mode: 0o644,
        },
        FsOp::WriteFile {
            path: "/f0".into(),
            offset: 0,
            size: 40,
            seed: 1,
        },
        FsOp::Truncate {
            path: "/f0".into(),
            size: 1,
        },
        FsOp::WriteFile {
            path: "/f0".into(),
            offset: 30,
            size: 4,
            seed: 2,
        },
    ]
}

/// Filler ops that never trigger the hole bug themselves: reads, metadata
/// traffic, and non-hole mutations on paths other than `/f0`.
fn filler_op() -> impl Strategy<Value = FsOp> {
    prop_oneof![
        Just(FsOp::CreateFile {
            path: "/f1".into(),
            mode: 0o644,
        }),
        (1u64..64, 1u8..8).prop_map(|(size, seed)| FsOp::WriteFile {
            path: "/f1".into(),
            offset: 0,
            size,
            seed,
        }),
        Just(FsOp::Mkdir {
            path: "/d0".into(),
            mode: 0o755,
        }),
        Just(FsOp::Stat { path: "/f1".into() }),
        Just(FsOp::Stat { path: "/f0".into() }),
        Just(FsOp::Getdents { path: "/".into() }),
        Just(FsOp::Access { path: "/f1".into() }),
        (1u64..32).prop_map(|size| FsOp::ReadFile {
            path: "/f1".into(),
            offset: 0,
            size,
        }),
        Just(FsOp::Chmod {
            path: "/f1".into(),
            mode: 0o600,
        }),
    ]
}

/// Interleaves the 4-op hole pattern (in order) into `filler` at the given
/// insertion gaps.
fn interleave(filler: Vec<FsOp>, gaps: &[u8]) -> Vec<FsOp> {
    let mut positions: Vec<usize> = gaps
        .iter()
        .map(|&g| g as usize % (filler.len() + 1))
        .collect();
    positions.sort_unstable();
    let pattern = hole_pattern();
    let mut out = Vec::with_capacity(filler.len() + 4);
    let mut p = 0usize;
    for (gap, op) in filler.into_iter().enumerate() {
        while p < 4 && positions[p] <= gap {
            out.push(pattern[p]);
            p += 1;
        }
        out.push(op);
    }
    while p < 4 {
        out.push(pattern[p]);
        p += 1;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The tentpole property, ≥512 cases: bury the hole-bug pattern under
    /// random filler, minimize, and check same-message reproduction,
    /// subsequence-ness, and 1-minimality.
    #[test]
    fn minimized_traces_are_sound_subsequences_and_one_minimal(
        filler in prop::collection::vec(filler_op(), 0..8),
        gaps in prop::collection::vec(any::<u8>(), 4..5),
    ) {
        let trace = interleave(filler, &gaps);
        let factory = buggy_verifs_factory(BugConfig::v2_hole(), McfsConfig::default());
        let mut recorder = (factory)().expect("factory builds");
        // The embedded pattern guarantees a violation fires somewhere.
        let (idx, msg) = replay(&mut recorder, &trace).expect("hole bug fires");
        let recorded = &trace[..=idx];

        let out = shrink_trace(factory.as_ref(), recorded, &msg, &ShrinkConfig::default())
            .expect("a reproducing trace must minimize");

        // (a) same-message reproduction on a fresh harness.
        let mut fresh = (factory)().expect("factory rebuilds");
        prop_assert!(
            replay_checked(&mut fresh, &out.trace, &msg).reproduced(),
            "minimized trace must reproduce the recorded message"
        );
        // (b) subsequence of the original.
        prop_assert!(is_subsequence(&out.trace, recorded));
        prop_assert!(out.trace.len() <= recorded.len());
        // (c) 1-minimality modulo dependency repair.
        assert_one_minimal(factory.as_ref(), &out.trace, &msg);
        // Stats are consistent with what happened.
        prop_assert_eq!(out.stats.ops_before, recorded.len());
        prop_assert_eq!(out.stats.ops_after, out.trace.len());
        prop_assert!(out.stats.candidates_tried >= out.stats.replays_run);
    }
}

/// Crash-boundary handling: `Crash` markers riding along in a buggy-VeriFS
/// trace are irrelevant to the hole bug (VeriFS recovers losslessly), so
/// minimization must drop them — together with nothing else — and the
/// result still reproduces and stays 1-minimal. The dropped crashes prove
/// crash/anchor units shrink as units instead of wedging the minimizer.
#[test]
fn crash_markers_minimize_away_from_a_crash_trace() {
    let factory = buggy_verifs_factory(
        BugConfig::v2_hole(),
        McfsConfig {
            crash_exploration: true,
            ..McfsConfig::default()
        },
    );
    let pattern = hole_pattern();
    let trace = vec![
        pattern[0],
        FsOp::Crash,
        pattern[1],
        FsOp::Crash,
        FsOp::Stat { path: "/f0".into() },
        pattern[2],
        FsOp::Crash,
        pattern[3],
    ];
    let mut recorder = (factory)().expect("factory builds");
    let (idx, msg) = replay(&mut recorder, &trace).expect("hole bug fires through crashes");
    assert_eq!(idx, trace.len() - 1);

    let out = shrink_trace(factory.as_ref(), &trace, &msg, &ShrinkConfig::default())
        .expect("crash trace must minimize");
    assert!(
        !out.trace.contains(&FsOp::Crash),
        "crashes are irrelevant to the hole bug and must shrink away: {:?}",
        out.trace
    );
    assert!(is_subsequence(&out.trace, &trace));
    let mut fresh = (factory)().expect("factory rebuilds");
    assert!(replay_checked(&mut fresh, &out.trace, &msg).reproduced());
    assert_one_minimal(factory.as_ref(), &out.trace, &msg);
}

/// A pool dense in the hole bug's trigger: one file, the sizes and offsets
/// of the canonical 4-op counterexample. Explorers find the bug quickly
/// here; `bug_detection.rs` covers finding it in the realistic pools.
fn focused_pool() -> PoolConfig {
    PoolConfig {
        files: vec!["/f0".into()],
        dirs: Vec::new(),
        sizes: vec![1, 40],
        offsets: vec![0, 30],
        seeds: vec![1],
        ..PoolConfig::small()
    }
}

/// Explorer wiring: a random walk over a harness with
/// `minimize_violations` + an attached factory reports the violation with
/// `minimized_trace` and `shrink` stats filled in, and the minimized trace
/// replays to the same message.
#[test]
fn random_walk_reports_minimized_violations() {
    let factory = buggy_verifs_factory(
        BugConfig::v2_hole(),
        McfsConfig {
            minimize_violations: true,
            pool: PoolConfig::medium(),
            ..McfsConfig::default()
        },
    );
    for seed in 0..6u64 {
        let mut m = harness_with_factory(Arc::clone(&factory)).expect("harness builds");
        let report = RandomWalk::new(ExploreConfig {
            max_depth: 12,
            max_ops: 200_000,
            seed,
            ..ExploreConfig::default()
        })
        .run(&mut m);
        if report.stop != StopReason::Violation {
            continue;
        }
        let v = &report.violations[0];
        let min = v
            .minimized_trace
            .as_ref()
            .expect("walk violations must carry a minimized trace");
        let stats = v.shrink.expect("and shrink stats");
        assert!(min.len() <= v.trace.len());
        assert!(is_subsequence(min, &v.trace));
        assert_eq!(stats.ops_before, v.trace.len());
        assert_eq!(stats.ops_after, min.len());
        assert_eq!(v.best_trace(), min.as_slice());
        let mut fresh = (factory)().expect("factory rebuilds");
        assert!(
            replay_checked(&mut fresh, min, &v.message).reproduced(),
            "reported minimized trace must reproduce: {v}"
        );
        return;
    }
    panic!("no seed found the hole bug within budget");
}

/// Swarm wiring: each worker minimizes its own find; the report surfaces
/// the shortest reproduction across the fleet.
#[test]
fn swarm_reports_the_shortest_minimized_violation() {
    let factory = buggy_verifs_factory(
        BugConfig::v2_hole(),
        McfsConfig {
            minimize_violations: true,
            pool: focused_pool(),
            ..McfsConfig::default()
        },
    );
    let report = run_swarm(
        &SwarmConfig {
            workers: 4,
            base: ExploreConfig {
                max_depth: 16,
                max_ops: 200_000,
                seed: 0x5EED,
                ..ExploreConfig::default()
            },
            shared_visited: false,
            strategies: vec![],
        },
        |_idx| harness_with_factory(Arc::clone(&factory)).expect("worker harness builds"),
    );
    assert!(report.found_violation(), "some worker must find the bug");
    let best = report.shortest_violation().expect("violations recorded");
    let min = best
        .minimized_trace
        .as_ref()
        .expect("the finding worker minimized");
    assert!(report
        .violations()
        .all(|v| best.best_trace().len() <= v.best_trace().len()));
    let mut fresh = (factory)().expect("factory rebuilds");
    assert!(replay_checked(&mut fresh, min, &best.message).reproduced());
}

/// DFS wiring: the depth-first explorer records minimized violations too.
/// Bug 4 (stale size field) diverges in the abstracted size field the
/// moment the buggy append runs, so any explorer sees it immediately.
#[test]
fn dfs_reports_minimized_violations() {
    let factory = buggy_verifs_factory(
        BugConfig::v2_size(),
        McfsConfig {
            minimize_violations: true,
            pool: PoolConfig {
                files: vec!["/f0".into()],
                dirs: Vec::new(),
                sizes: vec![10],
                offsets: vec![0, 10],
                seeds: vec![1],
                ..PoolConfig::small()
            },
            ..McfsConfig::default()
        },
    );
    let mut m = harness_with_factory(Arc::clone(&factory)).expect("harness builds");
    // Depth 4 over this pool contains the minimal counterexample:
    // create, write@0 (capacity 64), then an in-capacity append @10.
    let report = modelcheck::DfsExplorer::new(ExploreConfig {
        max_depth: 4,
        max_ops: 2_000_000,
        ..ExploreConfig::default()
    })
    .run(&mut m);
    assert_eq!(report.stop, StopReason::Violation, "DFS must hit the bug");
    let v = &report.violations[0];
    let min = v.minimized_trace.as_ref().expect("minimized");
    let mut fresh = (factory)().expect("factory rebuilds");
    assert!(replay_checked(&mut fresh, min, &v.message).reproduced());
    assert_one_minimal(factory.as_ref(), min, &v.message);
}

/// Without a factory nothing can be minimized; the violation says so
/// instead of silently coming back with `minimized_trace: None`.
#[test]
fn violations_without_a_factory_record_why_they_were_not_minimized() {
    let factory = buggy_verifs_factory(
        BugConfig::v2_size(),
        McfsConfig {
            minimize_violations: true,
            pool: PoolConfig {
                files: vec!["/f0".into()],
                dirs: Vec::new(),
                sizes: vec![10],
                offsets: vec![0, 10],
                seeds: vec![1],
                ..PoolConfig::small()
            },
            ..McfsConfig::default()
        },
    );
    let mut m = (factory)().expect("harness builds"); // no factory attached
    let report = modelcheck::DfsExplorer::new(ExploreConfig {
        max_depth: 4,
        max_ops: 2_000_000,
        ..ExploreConfig::default()
    })
    .run(&mut m);
    assert_eq!(report.stop, StopReason::Violation, "DFS must hit the bug");
    let v = &report.violations[0];
    assert!(v.minimized_trace.is_none());
    let reason = v.shrink_skipped.as_deref().expect("a recorded skip reason");
    assert!(reason.contains("factory"), "{reason}");
    assert!(v.to_string().contains("minimization skipped"), "{v}");
}

/// State-matched DFS finds the hole bug (bug 3). Historically it could
/// not: the trigger is stale bytes *beyond* EOF — concrete state outside
/// the POSIX abstraction — so the visited set matched the post-truncate
/// state against a residue-free state reached earlier and pruned the
/// violating continuation (the `MC002` aliasing pattern). VeriFS now folds
/// an opaque beyond-EOF residue digest into its visited-set identity
/// ([`vfs::FileSystem::opaque_state_digest`]), which separates the aliased
/// states and puts the bug back in reach of exhaustive exploration.
#[test]
fn dfs_finds_the_hole_bug_through_the_residue_digest() {
    let factory = buggy_verifs_factory(
        BugConfig::v2_hole(),
        McfsConfig {
            minimize_violations: true,
            pool: focused_pool(),
            ..McfsConfig::default()
        },
    );
    let mut m = harness_with_factory(Arc::clone(&factory)).expect("harness builds");
    // Depth 4 holds the canonical counterexample: create, write@0 len 40,
    // truncate to 1, hole write @30.
    let report = modelcheck::DfsExplorer::new(ExploreConfig {
        max_depth: 4,
        max_ops: 2_000_000,
        ..ExploreConfig::default()
    })
    .run(&mut m);
    assert_eq!(
        report.stop,
        StopReason::Violation,
        "state-matched DFS must reach the hole bug now that residue is in \
         the visited-set identity"
    );
    let v = &report.violations[0];
    let min = v.minimized_trace.as_ref().expect("minimized");
    let mut fresh = (factory)().expect("factory rebuilds");
    assert!(replay_checked(&mut fresh, min, &v.message).reproduced());
}
