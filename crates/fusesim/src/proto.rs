//! FUSE message protocol: request kinds and traffic accounting.
//!
//! In real FUSE every operation becomes one or more request/reply message
//! pairs over `/dev/fuse`. The simulation keeps the message boundary —
//! each kernel→daemon crossing is counted and charged virtual time — because
//! that per-message cost is part of why the paper's FUSE configurations
//! behave the way they do.

/// The kind of a FUSE request, used for traffic statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum FuseOpKind {
    /// Component lookup (fills the kernel dentry cache).
    Lookup,
    /// `getattr`.
    Getattr,
    /// `create`.
    Create,
    /// `open`.
    Open,
    /// `release` (close).
    Release,
    /// `read`.
    Read,
    /// `write`.
    Write,
    /// `setattr` (truncate/chmod/chown/utimens).
    Setattr,
    /// `mkdir`.
    Mkdir,
    /// `rmdir`.
    Rmdir,
    /// `unlink`.
    Unlink,
    /// `readdir`.
    Readdir,
    /// `rename`.
    Rename,
    /// `link`.
    Link,
    /// `symlink`.
    Symlink,
    /// `readlink`.
    Readlink,
    /// `access`.
    Access,
    /// xattr operations.
    Xattr,
    /// `statfs`.
    Statfs,
    /// `fsync` / `flush`.
    Fsync,
    /// `ioctl` (VeriFS checkpoint/restore travel as ioctls).
    Ioctl,
    /// `lseek`.
    Lseek,
}

impl FuseOpKind {
    /// Every kind, in declaration (and `Ord`) order.
    const ALL: [FuseOpKind; 22] = [
        FuseOpKind::Lookup,
        FuseOpKind::Getattr,
        FuseOpKind::Create,
        FuseOpKind::Open,
        FuseOpKind::Release,
        FuseOpKind::Read,
        FuseOpKind::Write,
        FuseOpKind::Setattr,
        FuseOpKind::Mkdir,
        FuseOpKind::Rmdir,
        FuseOpKind::Unlink,
        FuseOpKind::Readdir,
        FuseOpKind::Rename,
        FuseOpKind::Link,
        FuseOpKind::Symlink,
        FuseOpKind::Readlink,
        FuseOpKind::Access,
        FuseOpKind::Xattr,
        FuseOpKind::Statfs,
        FuseOpKind::Fsync,
        FuseOpKind::Ioctl,
        FuseOpKind::Lseek,
    ];
}

impl std::fmt::Display for FuseOpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Per-kind request counters for one FUSE connection.
#[derive(Debug, Clone, Default)]
pub struct FuseTraffic {
    /// Indexed by the kind's discriminant.
    counts: [u64; FuseOpKind::ALL.len()],
}

impl FuseTraffic {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        FuseTraffic::default()
    }

    /// Records one request of `kind`.
    pub fn record(&mut self, kind: FuseOpKind) {
        self.counts[kind as usize] += 1;
    }

    /// Requests of `kind` so far.
    pub fn count(&self, kind: FuseOpKind) -> u64 {
        self.counts[kind as usize]
    }

    /// Total requests across all kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Iterates the `(kind, count)` pairs of every kind seen so far, in
    /// kind order.
    pub fn iter(&self) -> impl Iterator<Item = (FuseOpKind, u64)> + '_ {
        FuseOpKind::ALL
            .into_iter()
            .zip(self.counts)
            .filter(|&(_, n)| n > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_accumulates() {
        let mut t = FuseTraffic::new();
        t.record(FuseOpKind::Lookup);
        t.record(FuseOpKind::Lookup);
        t.record(FuseOpKind::Write);
        assert_eq!(t.count(FuseOpKind::Lookup), 2);
        assert_eq!(t.count(FuseOpKind::Write), 1);
        assert_eq!(t.count(FuseOpKind::Read), 0);
        assert_eq!(t.total(), 3);
        let kinds: Vec<_> = t.iter().map(|(k, _)| k).collect();
        assert_eq!(kinds, vec![FuseOpKind::Lookup, FuseOpKind::Write]);
    }

    #[test]
    fn every_kind_indexes_its_own_counter() {
        let mut t = FuseTraffic::new();
        for (i, kind) in FuseOpKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "ALL is in discriminant order");
            for _ in 0..=i {
                t.record(kind);
            }
        }
        for (i, (kind, n)) in t.iter().enumerate() {
            assert_eq!(kind, FuseOpKind::ALL[i]);
            assert_eq!(n, i as u64 + 1);
        }
        assert!(FuseOpKind::ALL.windows(2).all(|w| w[0] < w[1]));
    }
}
