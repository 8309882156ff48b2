//! Counterexample minimization for [`FsOp`] traces.
//!
//! The file-system half of the delta-debugging minimizer: the generic
//! ddmin engine lives in [`modelcheck::ddmin_mask`]; this module supplies
//! the two hooks that make it sound for MCFS traces.
//!
//! **Dependency repair.** Removing an op subset can break the rest of the
//! trace for reasons that have nothing to do with the bug: a `write` whose
//! `create` vanished now just returns `ENOENT`. [`repair_mask`] re-adds,
//! for every kept op, the last preceding *producer* of each path it
//! consumes (`create`/`mkdir`/`rename`-dst/`hardlink`-dst/`symlink`), to a
//! fixpoint so ancestor directories chain in transitively. `Crash` markers
//! are anchored on the preceding mutation that establishes their
//! crash-window boundary: a kept `Crash` keeps its anchor, so the pair is
//! removed or retained as a unit (the anchor alone may outlive the crash —
//! the dependency is one-directional). Repair is an accelerator, not an
//! oracle: it only ever *re-adds* ops, and every candidate it lets through
//! is still validated by replay.
//!
//! **Same-message acceptance.** A candidate counts as reproducing only if a
//! *fresh* harness — built by the caller-supplied factory, never the live,
//! already-violated instance — replays it to a violation whose first
//! message equals the original exactly ([`replay_checked`]). This is what
//! makes the result trustworthy: a shorter trace that trips a *different*
//! bug (or the same bug with a different diagnosis) is rejected, and if the
//! full original trace does not reproduce at all, minimization refuses to
//! run rather than "minimize" a counterexample it cannot confirm.
//!
//! The result is 1-minimal *modulo repair*: removing any single op (plus
//! whatever repair re-adds for the remainder) either reconstructs the same
//! trace or no longer reproduces the violation.

use std::collections::HashMap;
use std::sync::Arc;

use modelcheck::{apply_mask, ddmin_mask, ShrinkStats};
use verifs::{BugConfig, VeriFs};
use vfs::{FileSystem, VfsResult};

use crate::harness::{replay_checked, HarnessFactory, Mcfs, McfsConfig};
use crate::pool::FsOp;
use crate::target::CheckpointTarget;

/// Minimization bounds.
#[derive(Debug, Clone)]
pub struct ShrinkConfig {
    /// Cap on oracle tests (candidate subtraces offered for replay; repeat
    /// candidates are answered from a cache without a fresh replay). When
    /// the budget runs out the best reproducing trace found so far is
    /// returned — every adopted candidate passed replay, so truncation
    /// never yields a non-reproducing "minimized" trace.
    pub max_candidates: u64,
}

impl Default for ShrinkConfig {
    fn default() -> Self {
        ShrinkConfig {
            max_candidates: 4096,
        }
    }
}

/// A successful minimization.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The minimized trace: a subsequence of the original that reproduces a
    /// violation with the original message on a factory-fresh harness.
    pub trace: Vec<FsOp>,
    /// Work counters.
    pub stats: ShrinkStats,
}

/// The parent directory of `path`, when having one is meaningful (`None`
/// for the root and for the root's direct children — the root always
/// exists, no trace op produces it).
fn parent_of(path: &str) -> Option<&str> {
    let idx = path.rfind('/')?;
    if idx == 0 {
        None
    } else {
        Some(&path[..idx])
    }
}

/// Paths an op *consumes*: objects that must already exist for the op to
/// behave as it did in the original trace.
pub(crate) fn consumed_paths(op: &FsOp) -> Vec<&str> {
    match op {
        FsOp::CreateFile { path, .. } | FsOp::Mkdir { path, .. } => {
            parent_of(path).into_iter().collect()
        }
        FsOp::Symlink { linkpath, .. } => parent_of(linkpath).into_iter().collect(),
        FsOp::WriteFile { path, .. }
        | FsOp::Truncate { path, .. }
        | FsOp::Unlink { path }
        | FsOp::Rmdir { path }
        | FsOp::ReadFile { path, .. }
        | FsOp::Stat { path }
        | FsOp::Getdents { path }
        | FsOp::Chmod { path, .. }
        | FsOp::SetXattr { path, .. }
        | FsOp::RemoveXattr { path, .. }
        | FsOp::Access { path } => vec![path.as_ref()],
        FsOp::Rename { src, dst } | FsOp::Hardlink { src, dst } => {
            let mut v = vec![src.as_ref()];
            v.extend(parent_of(dst));
            v
        }
        FsOp::Crash | FsOp::Fsck => Vec::new(),
    }
}

/// Whether `op` *produces* `path` (makes it exist).
pub(crate) fn produces(op: &FsOp, path: &str) -> bool {
    match op {
        FsOp::CreateFile { path: p, .. } | FsOp::Mkdir { path: p, .. } => **p == *path,
        FsOp::Rename { dst, .. } | FsOp::Hardlink { dst, .. } => **dst == *path,
        FsOp::Symlink { linkpath, .. } => **linkpath == *path,
        _ => false,
    }
}

/// The index of the last producer of `path` before `at`, if any.
fn producer_before(trace: &[FsOp], at: usize, path: &str) -> Option<usize> {
    (0..at).rev().find(|&j| produces(&trace[j], path))
}

/// The crash-window anchor of a `Crash` at `at`: the nearest preceding
/// mutation, whose post-state establishes the boundary the recovery oracle
/// judged against. (A `Crash` is itself a mutation, so consecutive crashes
/// chain.)
fn crash_anchor(trace: &[FsOp], at: usize) -> Option<usize> {
    (0..at).rev().find(|&j| trace[j].is_mutation())
}

/// Dependency repair: flips removed ops back to *kept* until every kept op
/// has its producers and every kept `Crash` its boundary anchor. Only ever
/// re-adds (never removes), and runs to a fixpoint so chains — `write`
/// needs its `create`, the `create` needs its `mkdir` — close transitively.
pub fn repair_mask(trace: &[FsOp], mask: &mut [bool]) {
    loop {
        let mut changed = false;
        for i in 0..trace.len() {
            if !mask[i] {
                continue;
            }
            if matches!(trace[i], FsOp::Crash) {
                if let Some(j) = crash_anchor(trace, i) {
                    if !mask[j] {
                        mask[j] = true;
                        changed = true;
                    }
                }
                continue;
            }
            for p in consumed_paths(&trace[i]) {
                if let Some(j) = producer_before(trace, i, p) {
                    if !mask[j] {
                        mask[j] = true;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
}

/// Minimizes `trace` down to a 1-minimal subsequence that still reproduces
/// a violation with exactly `message` when replayed on a factory-fresh
/// harness.
///
/// Returns `None` when the *full* trace does not reproduce `message` on a
/// fresh harness — the counterexample is not trustworthy (nondeterminism,
/// an unfaithful factory, or a replay tripping a different bug), and
/// "minimizing" it would lie. Every candidate replay builds a brand-new
/// harness via `factory`; repeat candidate masks are answered from a cache.
pub fn shrink_trace(
    factory: &HarnessFactory,
    trace: &[FsOp],
    message: &str,
    cfg: &ShrinkConfig,
) -> Option<ShrinkOutcome> {
    let n = trace.len();
    let mut cache: HashMap<Vec<bool>, bool> = HashMap::new();
    let mut replays = 0u64;
    let mut test = |mask: &[bool]| -> bool {
        if let Some(&hit) = cache.get(mask) {
            return hit;
        }
        let candidate = apply_mask(trace, mask);
        replays += 1;
        let ok = match factory() {
            Ok(mut fresh) => replay_checked(&mut fresh, &candidate, message).reproduced(),
            // A factory that cannot build is a factory that cannot confirm.
            Err(_) => false,
        };
        cache.insert(mask.to_vec(), ok);
        ok
    };

    // Trustworthiness gate: if the original trace doesn't replay to the
    // original message, nothing derived from it can be trusted.
    if !test(&vec![true; n]) {
        return None;
    }

    let mut repair = |mask: &mut Vec<bool>| repair_mask(trace, mask);
    let (mask, tests) = ddmin_mask(n, &mut repair, &mut test, cfg.max_candidates);

    let minimized = apply_mask(trace, &mask);
    Some(ShrinkOutcome {
        stats: ShrinkStats {
            ops_before: n,
            ops_after: minimized.len(),
            candidates_tried: tests + 1, // + the trustworthiness gate
            replays_run: replays,
        },
        trace: minimized,
    })
}

/// A deterministic factory for the canonical buggy-VeriFS pairing: a
/// correct VeriFS2 checked against a VeriFS2 carrying `bugs`. Rebuilding is
/// cheap (two RAM file systems) and bit-identical, which is exactly what
/// candidate replay needs.
pub fn buggy_verifs_factory(bugs: BugConfig, cfg: McfsConfig) -> Arc<HarnessFactory> {
    Arc::new(move || {
        let mut clean = VeriFs::v2();
        clean.mount()?;
        let mut buggy = VeriFs::v2_with_bugs(bugs);
        buggy.mount()?;
        Mcfs::new(
            vec![
                Box::new(CheckpointTarget::new(clean)),
                Box::new(CheckpointTarget::new(buggy)),
            ],
            cfg.clone(),
        )
    })
}

/// Builds the harness to *explore* from `factory`, with the factory
/// attached so violations found during exploration minimize themselves
/// ([`McfsConfig::minimize_violations`]).
pub fn harness_with_factory(factory: Arc<HarnessFactory>) -> VfsResult<Mcfs> {
    Ok((factory)()?.with_factory(factory))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op_create(p: &str) -> FsOp {
        FsOp::CreateFile {
            path: p.into(),
            mode: 0o644,
        }
    }

    fn op_write(p: &str, offset: u64, size: u64, seed: u8) -> FsOp {
        FsOp::WriteFile {
            path: p.into(),
            offset,
            size,
            seed,
        }
    }

    fn op_stat(p: &str) -> FsOp {
        FsOp::Stat { path: p.into() }
    }

    #[test]
    fn parent_of_walks_one_level() {
        assert_eq!(parent_of("/d0/f2"), Some("/d0"));
        assert_eq!(parent_of("/f0"), None);
        assert_eq!(parent_of("/"), None);
    }

    #[test]
    fn repair_readds_producer_chains() {
        let trace = vec![
            FsOp::Mkdir {
                path: "/d0".into(),
                mode: 0o755,
            },
            op_create("/d0/f2"),
            op_stat("/f0"),
            op_write("/d0/f2", 0, 10, 1),
        ];
        // Keep only the write: repair must chain back create and mkdir,
        // but not the unrelated stat.
        let mut mask = vec![false, false, false, true];
        repair_mask(&trace, &mut mask);
        assert_eq!(mask, vec![true, true, false, true]);
    }

    #[test]
    fn repair_uses_the_last_producer() {
        let trace = vec![
            op_create("/f0"),
            FsOp::Unlink { path: "/f0".into() },
            op_create("/f0"),
            op_write("/f0", 0, 10, 1),
        ];
        let mut mask = vec![false, false, false, true];
        repair_mask(&trace, &mut mask);
        assert_eq!(mask, vec![false, false, true, true], "nearest create wins");
    }

    #[test]
    fn repair_pins_rename_sources_and_dst_parents() {
        let trace = vec![
            FsOp::Mkdir {
                path: "/d0".into(),
                mode: 0o755,
            },
            op_create("/f0"),
            FsOp::Rename {
                src: "/f0".into(),
                dst: "/d0/f2".into(),
            },
            op_stat("/d0/f2"),
        ];
        let mut mask = vec![false, false, false, true];
        repair_mask(&trace, &mut mask);
        assert_eq!(
            mask,
            vec![true, true, true, true],
            "stat needs the rename, the rename its source and dst dir"
        );
    }

    #[test]
    fn repair_anchors_kept_crashes_but_not_vice_versa() {
        let trace = vec![
            op_create("/f0"),
            op_stat("/f0"),
            FsOp::Crash,
            op_stat("/f0"),
        ];
        // Crash kept without its anchor mutation: re-added.
        let mut mask = vec![false, false, true, false];
        repair_mask(&trace, &mut mask);
        assert_eq!(mask, vec![true, false, true, false]);
        // Anchor kept without the crash: legal, nothing re-added.
        let mut mask = vec![true, false, false, false];
        repair_mask(&trace, &mut mask);
        assert_eq!(mask, vec![true, false, false, false]);
    }

    #[test]
    fn shrink_refuses_a_trace_that_does_not_reproduce() {
        // Clean factory: no trace violates, so the full-trace gate fails.
        let factory = buggy_verifs_factory(BugConfig::none(), McfsConfig::default());
        let trace = vec![op_create("/f0"), op_write("/f0", 0, 10, 1)];
        let out = shrink_trace(
            factory.as_ref(),
            &trace,
            "some recorded message",
            &ShrinkConfig::default(),
        );
        assert!(out.is_none(), "an unreproducible trace must not minimize");
    }

    #[test]
    fn shrink_minimizes_the_hole_bug_trace() {
        let bugs = BugConfig {
            v2_hole_no_zero: true,
            ..BugConfig::default()
        };
        let factory = buggy_verifs_factory(bugs, McfsConfig::default());
        // The 4-op hole pattern buried under unrelated traffic.
        let trace = vec![
            FsOp::Mkdir {
                path: "/d0".into(),
                mode: 0o755,
            },
            op_create("/f1"),
            op_write("/f1", 0, 8, 3),
            op_create("/f0"),
            op_stat("/f1"),
            op_write("/f0", 0, 40, 1),
            FsOp::Getdents { path: "/".into() },
            FsOp::Truncate {
                path: "/f0".into(),
                size: 1,
            },
            op_stat("/f0"),
            op_write("/f0", 30, 4, 2),
        ];
        let mut recorder = (factory)().unwrap();
        let (idx, msg) = crate::harness::replay(&mut recorder, &trace).expect("bug fires");
        assert_eq!(idx, trace.len() - 1);
        let out = shrink_trace(factory.as_ref(), &trace, &msg, &ShrinkConfig::default())
            .expect("reproducible trace must minimize");
        assert!(
            out.trace.len() < trace.len(),
            "filler ops must be removed: {:?}",
            out.trace
        );
        assert!(out.trace.iter().all(|op| trace.contains(op)));
        assert_eq!(out.stats.ops_before, trace.len());
        assert_eq!(out.stats.ops_after, out.trace.len());
        assert!(out.stats.replays_run >= 1);
        assert!(out.stats.candidates_tried >= out.stats.replays_run);
        // The minimized trace reproduces the identical diagnosis when
        // replayed once more.
        let mut fresh = (factory)().unwrap();
        assert!(replay_checked(&mut fresh, &out.trace, &msg).reproduced());
    }
}
