//! Coverage tracking while model-checking — the paper's §7 future-work item
//! "exploring methods to track code coverage while model-checking".
//!
//! Without instrumenting the file systems, the observable proxy for coverage
//! is which *(operation kind, outcome class)* pairs exploration has
//! exercised: every distinct pair corresponds to a different code path
//! through the syscall layer (success paths and each error path — "where
//! bugs often lurk", §2). The harness records every executed operation here;
//! reports show how much of the matrix a run has touched.

use std::collections::BTreeMap;

use crate::pool::{FsOp, OpOutcome};

/// The outcome class an operation landed in.
fn outcome_class(outcome: &OpOutcome) -> &'static str {
    match outcome {
        OpOutcome::Ok => "OK",
        OpOutcome::Data(_) => "OK(data)",
        OpOutcome::Attrs { .. } => "OK(attrs)",
        OpOutcome::Entries(_) => "OK(entries)",
        OpOutcome::Bytes(_) => "OK(bytes)",
        OpOutcome::Err(e) => e.name(),
    }
}

/// Operation/outcome coverage accumulated over a run.
///
/// # Examples
///
/// ```
/// use mcfs::{Coverage, FsOp, OpOutcome};
/// use vfs::Errno;
///
/// let mut cov = Coverage::new();
/// let op = FsOp::Unlink { path: "/x".into() };
/// cov.record(&op, &OpOutcome::Err(Errno::ENOENT));
/// cov.record(&op, &OpOutcome::Ok);
/// assert_eq!(cov.distinct_pairs(), 2);
/// assert_eq!(cov.total_ops(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Coverage {
    /// Keyed by `(op name, outcome class)`; both are static strings, so
    /// recording a transition allocates nothing.
    counts: BTreeMap<(&'static str, &'static str), u64>,
}

impl Coverage {
    /// Creates an empty coverage map.
    pub fn new() -> Self {
        Coverage::default()
    }

    /// Records one executed operation and its (agreed) outcome.
    pub fn record(&mut self, op: &FsOp, outcome: &OpOutcome) {
        *self
            .counts
            .entry((op.name(), outcome_class(outcome)))
            .or_insert(0) += 1;
    }

    /// Number of distinct (operation, outcome-class) pairs exercised.
    pub fn distinct_pairs(&self) -> usize {
        self.counts.len()
    }

    /// Total operations recorded.
    pub fn total_ops(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Distinct error paths exercised (pairs whose outcome is an errno).
    pub fn error_paths(&self) -> usize {
        self.counts
            .keys()
            .filter(|(_, c)| !c.starts_with("OK"))
            .count()
    }

    /// Iterates `(op, outcome class, count)` in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, u64)> + '_ {
        self.counts.iter().map(|(&(op, class), &n)| (op, class, n))
    }

    /// Renders a per-operation coverage table.
    pub fn summary(&self) -> String {
        let mut out = String::from("operation coverage (op / outcome class / count):\n");
        for (op, class, n) in self.iter() {
            out.push_str(&format!("  {op:<14} {class:<14} {n}\n"));
        }
        out.push_str(&format!(
            "  {} distinct pairs, {} of them error paths, {} ops total\n",
            self.distinct_pairs(),
            self.error_paths(),
            self.total_ops()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfs::Errno;

    #[test]
    fn distinct_pairs_and_error_paths() {
        let mut cov = Coverage::new();
        let unlink = FsOp::Unlink { path: "/a".into() };
        let stat = FsOp::Stat { path: "/a".into() };
        cov.record(&unlink, &OpOutcome::Ok);
        cov.record(&unlink, &OpOutcome::Err(Errno::ENOENT));
        cov.record(&unlink, &OpOutcome::Err(Errno::ENOENT));
        cov.record(&unlink, &OpOutcome::Err(Errno::EISDIR));
        cov.record(
            &stat,
            &OpOutcome::Attrs {
                ftype: '-',
                mode: 0o644,
                nlink: 1,
                owner: (0, 0),
                size: Some(1),
            },
        );
        assert_eq!(cov.distinct_pairs(), 4);
        assert_eq!(cov.error_paths(), 2);
        assert_eq!(cov.total_ops(), 5);
        let s = cov.summary();
        assert!(s.contains("unlink"));
        assert!(s.contains("ENOENT"));
        assert!(s.contains("EISDIR"));
    }

    /// `iter` visits pairs in (op name, outcome class) byte order, with
    /// their counts.
    #[test]
    fn iter_order_and_counts_are_pinned() {
        let mut cov = Coverage::new();
        let unlink = FsOp::Unlink { path: "/a".into() };
        let stat = FsOp::Stat { path: "/a".into() };
        let read = FsOp::ReadFile {
            path: "/a".into(),
            offset: 0,
            size: 16,
        };
        let attrs = OpOutcome::Attrs {
            ftype: '-',
            mode: 0o644,
            nlink: 1,
            owner: (0, 0),
            size: Some(1),
        };
        cov.record(&unlink, &OpOutcome::Ok);
        cov.record(&stat, &attrs);
        cov.record(&unlink, &OpOutcome::Err(Errno::ENOENT));
        cov.record(&read, &OpOutcome::Data(vec![1]));
        cov.record(&stat, &OpOutcome::Err(Errno::ENOENT));
        cov.record(&unlink, &OpOutcome::Err(Errno::ENOENT));
        cov.record(&read, &OpOutcome::Err(Errno::EISDIR));
        cov.record(
            &FsOp::Getdents { path: "/".into() },
            &OpOutcome::Entries(vec![]),
        );
        let rows: Vec<_> = cov.iter().collect();
        assert_eq!(
            rows,
            vec![
                ("getdents", "OK(entries)", 1),
                ("read_file", "EISDIR", 1),
                ("read_file", "OK(data)", 1),
                ("stat", "ENOENT", 1),
                ("stat", "OK(attrs)", 1),
                ("unlink", "ENOENT", 2),
                ("unlink", "OK", 1),
            ]
        );
    }

    #[test]
    fn harness_records_coverage() {
        use crate::{CheckpointTarget, Mcfs, McfsConfig};
        use modelcheck::ModelSystem;
        use verifs::VeriFs;
        use vfs::FileSystem;
        let mut a = VeriFs::v2();
        a.mount().unwrap();
        let mut b = VeriFs::v2();
        b.mount().unwrap();
        let mut m = Mcfs::new(
            vec![
                Box::new(CheckpointTarget::new(a)),
                Box::new(CheckpointTarget::new(b)),
            ],
            McfsConfig::default(),
        )
        .unwrap();
        // A success path and an error path.
        m.apply(&FsOp::CreateFile {
            path: "/f0".into(),
            mode: 0o644,
        });
        m.apply(&FsOp::CreateFile {
            path: "/f0".into(),
            mode: 0o644,
        });
        let cov = m.coverage();
        assert!(cov.distinct_pairs() >= 2);
        assert!(cov.error_paths() >= 1);
        assert!(cov.summary().contains("EEXIST"));
    }
}
