//! Soundness of the signature-derived independence relation (PR 5).
//!
//! Three properties, validated by execution rather than trusted:
//!
//! 1. **Commutation**: every pair the derived relation claims independent
//!    reaches the same abstract state under both orders, from sampled
//!    reachable prefixes, on at least two backends (VeriFS and ext2).
//! 2. **Refinement**: the derived relation is a superset of the legacy
//!    path-prefix heuristic's independent pairs, *except* where the
//!    commutation sanitizer proves the heuristic unsound — and every such
//!    exception goes through an alias class (hard links).
//! 3. **The unsoundness itself**: after `link(/f0, /f1)`, truncate-vs-write
//!    on the two names does not commute, yet the old heuristic called the
//!    pair independent.

use mcfs::effect::{
    heuristic_independent, independent, independent_concurrent, EffectProfile, Independence,
};
use mcfs::{
    abstract_state, execute, AbstractionConfig, CheckpointTarget, FsOp, Mcfs, McfsConfig,
    PoolConfig,
};
use modelcheck::ModelSystem;
use proptest::prelude::*;
use verifs::VeriFs;
use vfs::{FileSystem, VfsResult};

fn observe(fs: &mut dyn FileSystem) -> (u128, Option<u128>) {
    let h = abstract_state(fs, &AbstractionConfig::default())
        .map(|d| d.as_u128())
        .unwrap_or(u128::MAX);
    (h, fs.opaque_state_digest())
}

/// Runs `trace` on a fresh backend and observes the final state.
fn final_state(
    fresh: &dyn Fn() -> VfsResult<Box<dyn FileSystem>>,
    trace: &[&FsOp],
) -> (u128, Option<u128>) {
    let mut fs = fresh().expect("backend");
    for op in trace {
        let _ = execute(fs.as_mut(), op, &[]);
    }
    observe(fs.as_mut())
}

fn fresh_verifs() -> VfsResult<Box<dyn FileSystem>> {
    let mut fs = VeriFs::v2();
    fs.mount()?;
    Ok(Box::new(fs))
}

fn fresh_ext2() -> VfsResult<Box<dyn FileSystem>> {
    let mut fs = fs_ext::ext2_on_ram(256 * 1024)?;
    fs.mount()?;
    Ok(Box::new(fs))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Property 1: derived-independent pairs commute on VeriFS v2 and ext2
    /// from random reachable prefixes.
    #[test]
    fn derived_independent_pairs_commute_on_two_backends(
        i in 0usize..64,
        j in 0usize..64,
        prefix_picks in prop::collection::vec(0usize..64, 0..4),
    ) {
        let ops = PoolConfig::small().ops();
        let profile = EffectProfile::from_pool(&ops);
        let a = &ops[i % ops.len()];
        let b = &ops[j % ops.len()];
        if independent(a, b, &profile) {
            let mutations: Vec<&FsOp> = ops.iter().filter(|o| o.is_mutation()).collect();
            let prefix: Vec<&FsOp> = prefix_picks
                .iter()
                .map(|&p| mutations[p % mutations.len()])
                .collect();
            let mut ab = prefix.clone();
            ab.push(a);
            ab.push(b);
            let mut ba = prefix;
            ba.push(b);
            ba.push(a);
            for fresh in [
                &fresh_verifs as &dyn Fn() -> VfsResult<Box<dyn FileSystem>>,
                &fresh_ext2,
            ] {
                let caps = fresh().expect("backend").capabilities();
                if !a.allowed_by(caps) || !b.allowed_by(caps) {
                    continue;
                }
                let ab_t: Vec<&FsOp> =
                    ab.iter().copied().filter(|o| o.allowed_by(caps)).collect();
                let ba_t: Vec<&FsOp> =
                    ba.iter().copied().filter(|o| o.allowed_by(caps)).collect();
                prop_assert_eq!(
                    final_state(fresh, &ab_t),
                    final_state(fresh, &ba_t),
                    "derived-independent pair must commute: `{}` vs `{}`",
                    a,
                    b
                );
            }
        }
    }
}

/// Property 2: on the standard pools, every pair the heuristic calls
/// independent is also derived-independent — unless the conflict goes
/// through an alias class, which is exactly the case the sanitizer proved
/// the heuristic wrong about.
#[test]
fn derived_is_superset_of_heuristic_except_aliasing() {
    for pool in [PoolConfig::small(), PoolConfig::medium()] {
        let ops = pool.ops();
        let profile = EffectProfile::from_pool(&ops);
        let mut exceptions = 0usize;
        for (x, a) in ops.iter().enumerate() {
            for b in ops.iter().skip(x + 1) {
                if !heuristic_independent(a, b) {
                    continue;
                }
                match mcfs::effect::explain(a, b, &profile) {
                    Independence::Independent => {}
                    Independence::Dependent(c) => {
                        assert!(
                            c.aliased,
                            "derived relation dropped `{a}` / `{b}` for a \
                             non-aliasing reason: {c:?}"
                        );
                        exceptions += 1;
                    }
                }
            }
        }
        assert!(
            exceptions > 0,
            "the pools contain hard links, so aliased exceptions must exist"
        );
    }
}

/// Property 3 (directed): the legacy heuristic's hard-link blind spot. The
/// divergence is real on both backends, the heuristic misses it, the
/// derived relation reports it as an aliased conflict.
#[test]
fn heuristic_is_unsound_under_hardlink_aliasing() {
    let prefix = [
        FsOp::CreateFile {
            path: "/f0".into(),
            mode: 0o644,
        },
        FsOp::Hardlink {
            src: "/f0".into(),
            dst: "/f1".into(),
        },
    ];
    let a = FsOp::Truncate {
        path: "/f0".into(),
        size: 0,
    };
    let b = FsOp::WriteFile {
        path: "/f1".into(),
        offset: 0,
        size: 10,
        seed: 1,
    };
    assert!(
        heuristic_independent(&a, &b),
        "the legacy heuristic sees two distinct paths"
    );
    let pool: Vec<FsOp> = prefix.iter().cloned().chain([a, b]).collect();
    let profile = EffectProfile::from_pool(&pool);
    match mcfs::effect::explain(&a, &b, &profile) {
        Independence::Dependent(c) => assert!(c.aliased, "conflict is via the alias class: {c:?}"),
        Independence::Independent => panic!("derived relation must flag the aliased pair"),
    }
    for fresh in [
        &fresh_verifs as &dyn Fn() -> VfsResult<Box<dyn FileSystem>>,
        &fresh_ext2,
    ] {
        let ab: Vec<&FsOp> = prefix.iter().chain([&a, &b]).collect();
        let ba: Vec<&FsOp> = prefix.iter().chain([&b, &a]).collect();
        assert_ne!(
            final_state(fresh, &ab),
            final_state(fresh, &ba),
            "truncate/write through aliased names must not commute"
        );
    }
}

/// Satellite regression: the derived profile knows fusesim-wrapped targets
/// cache metadata in the kernel layer, so cache-filling reads are kernel
/// writes — `stat` no longer commutes with a same-path `unlink` there,
/// while on bare VeriFS (no kernel layer) the pair stays independent.
#[test]
fn fuse_wrapped_harness_orders_cache_filling_reads() {
    let stat = FsOp::Stat { path: "/f0".into() };
    let unlink = FsOp::Unlink { path: "/f0".into() };
    let cfg = || McfsConfig {
        pool: PoolConfig::small(),
        ..McfsConfig::default()
    };

    let bare = Mcfs::new(
        vec![
            Box::new(CheckpointTarget::new(mounted_verifs())),
            Box::new(CheckpointTarget::new(mounted_verifs())),
        ],
        cfg(),
    )
    .unwrap();
    assert!(
        bare.independent(&stat, &unlink),
        "no kernel layer: a pure read commutes with a mutation state-wise"
    );

    let fused = Mcfs::new(
        vec![
            Box::new(CheckpointTarget::new(mounted_fuse())),
            Box::new(CheckpointTarget::new(mounted_fuse())),
        ],
        cfg(),
    )
    .unwrap();
    assert!(
        !fused.independent(&stat, &unlink),
        "fusesim caches attrs/dentries: the cache fill must be ordered \
         against the eviction"
    );
    // The legacy heuristic never modeled kernel caches at all.
    assert!(heuristic_independent(&stat, &unlink));
}

fn mounted_verifs() -> VeriFs {
    let mut fs = VeriFs::v2();
    fs.mount().unwrap();
    fs
}

fn mounted_fuse() -> fusesim::FuseMount<VeriFs> {
    let mut m = fusesim::FuseMount::new(VeriFs::v2());
    m.mount().unwrap();
    m
}

/// Audit for the interleaving checker: ops whose signatures are sound for
/// *sequential* reorder — both orders reach the same abstract state, so the
/// sequential relation rightly calls them independent — but unsound as a
/// concurrency independence relation, because the op's own observable
/// result depends on the schedule. Each case is demonstrated by execution,
/// not trusted.
#[test]
fn sequential_independence_is_not_concurrency_independence() {
    let prefix = [
        FsOp::CreateFile {
            path: "/f0".into(),
            mode: 0o644,
        },
        FsOp::WriteFile {
            path: "/f0".into(),
            offset: 0,
            size: 10,
            seed: 1,
        },
    ];
    let stat = FsOp::Stat { path: "/f0".into() };
    let trunc = FsOp::Truncate {
        path: "/f0".into(),
        size: 5,
    };
    let create = FsOp::CreateFile {
        path: "/race".into(),
        mode: 0o644,
    };
    let pool: Vec<FsOp> = prefix
        .iter()
        .cloned()
        .chain([stat, trunc, create])
        .collect();
    let profile = EffectProfile::from_pool(&pool);

    // Case 1 — the pure-read shortcut. Stat/truncate commute as a state
    // pair, but stat's result (the size) is decided by the order.
    assert!(independent(&stat, &trunc, &profile));
    assert!(
        !independent_concurrent(&stat, &trunc, &profile),
        "a read of a place another thread writes is order-sensitive"
    );
    for fresh in [
        &fresh_verifs as &dyn Fn() -> VfsResult<Box<dyn FileSystem>>,
        &fresh_ext2,
    ] {
        let ab: Vec<&FsOp> = prefix.iter().chain([&stat, &trunc]).collect();
        let ba: Vec<&FsOp> = prefix.iter().chain([&trunc, &stat]).collect();
        assert_eq!(
            final_state(fresh, &ab),
            final_state(fresh, &ba),
            "the sequential relation is right about the state"
        );
        let mut fs = fresh().expect("backend");
        for op in &prefix {
            let _ = execute(fs.as_mut(), op, &[]);
        }
        let before = execute(fs.as_mut(), &stat, &[]);
        let _ = execute(fs.as_mut(), &trunc, &[]);
        let after = execute(fs.as_mut(), &stat, &[]);
        assert_ne!(before, after, "but the stat's own result is not");
    }

    // Case 2 — the identical-op shortcut. Two threads racing the same
    // create reach the same state either way, but the schedule decides
    // who sees Ok and who sees EEXIST.
    assert!(independent(&create, &create, &profile));
    assert!(
        !independent_concurrent(&create, &create, &profile),
        "identical ops on two threads race for their result"
    );
    let mut fs = fresh_verifs().expect("backend");
    let first = execute(fs.as_mut(), &create, &[]);
    let second = execute(fs.as_mut(), &create, &[]);
    assert_ne!(first, second, "the op's result depends on its position");
}
