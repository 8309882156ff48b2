//! Path validation and manipulation.
//!
//! MCFS generates paths from a bounded pool, but the file systems themselves
//! validate every path they receive — that's where many real bugs hide. Paths
//! in this workspace are absolute, `/`-separated, and contain no `.` or `..`
//! components (the parameter pools never produce them; file systems reject
//! them with `EINVAL` rather than silently normalizing, so a checker mistake
//! is loud).

use crate::errno::{Errno, VfsResult};

/// Maximum length of a single path component.
pub const NAME_MAX: usize = 255;

/// Maximum length of a whole path.
pub const PATH_MAX: usize = 4096;

/// Validates a path: absolute, no empty/`.`/`..` components, no NUL bytes,
/// within [`NAME_MAX`]/[`PATH_MAX`].
///
/// `/` itself is valid.
///
/// # Errors
///
/// * [`Errno::EINVAL`] — not absolute, empty component, `.`/`..`, or NUL.
/// * [`Errno::ENAMETOOLONG`] — component exceeds [`NAME_MAX`] or path exceeds
///   [`PATH_MAX`].
///
/// # Examples
///
/// ```
/// use vfs::path::validate;
///
/// assert!(validate("/a/b").is_ok());
/// assert!(validate("a/b").is_err());
/// assert!(validate("/a/../b").is_err());
/// ```
pub fn validate(path: &str) -> VfsResult<()> {
    if path.len() > PATH_MAX {
        return Err(Errno::ENAMETOOLONG);
    }
    if !path.starts_with('/') || path.contains('\0') {
        return Err(Errno::EINVAL);
    }
    if path == "/" {
        return Ok(());
    }
    if path.ends_with('/') {
        return Err(Errno::EINVAL);
    }
    for comp in path[1..].split('/') {
        if comp.is_empty() || comp == "." || comp == ".." {
            return Err(Errno::EINVAL);
        }
        if comp.len() > NAME_MAX {
            return Err(Errno::ENAMETOOLONG);
        }
    }
    Ok(())
}

/// Returns the path components of a validated path (empty for `/`).
///
/// # Examples
///
/// ```
/// assert_eq!(vfs::path::components("/a/b"), vec!["a", "b"]);
/// assert!(vfs::path::components("/").is_empty());
/// ```
pub fn components(path: &str) -> Vec<&str> {
    if path == "/" {
        return Vec::new();
    }
    path.trim_start_matches('/').split('/').collect()
}

/// Whether the path is the root directory.
pub fn is_root(path: &str) -> bool {
    path == "/"
}

/// Splits a validated non-root path into `(parent, name)`, both borrowed
/// from it.
///
/// # Errors
///
/// [`Errno::EINVAL`] if `path` is the root (which has no parent entry).
///
/// # Examples
///
/// ```
/// assert_eq!(vfs::path::split_parent("/a/b").unwrap(), ("/a", "b"));
/// assert_eq!(vfs::path::split_parent("/a").unwrap(), ("/", "a"));
/// ```
pub fn split_parent(path: &str) -> VfsResult<(&str, &str)> {
    if is_root(path) {
        return Err(Errno::EINVAL);
    }
    let idx = path.rfind('/').expect("validated paths contain '/'");
    let parent = if idx == 0 { "/" } else { &path[..idx] };
    Ok((parent, &path[idx + 1..]))
}

/// Returns the final component of a validated path (`"/"` for the root).
pub fn basename(path: &str) -> &str {
    if is_root(path) {
        return "/";
    }
    let idx = path.rfind('/').expect("validated paths contain '/'");
    &path[idx + 1..]
}

/// Joins a directory path and an entry name.
///
/// # Examples
///
/// ```
/// assert_eq!(vfs::path::join("/", "a"), "/a");
/// assert_eq!(vfs::path::join("/a", "b"), "/a/b");
/// ```
pub fn join(dir: &str, name: &str) -> String {
    if is_root(dir) {
        format!("/{name}")
    } else {
        format!("{dir}/{name}")
    }
}

/// Number of components in a validated path (0 for `/`).
pub fn depth(path: &str) -> usize {
    components(path).len()
}

/// Returns the strict ancestors of a validated path, nearest first and
/// ending with the root (empty for `/` itself).
///
/// Used by the fingerprint cache to propagate invalidation upward: an
/// operation on `/a/b/c` may change attributes hashed into the digests of
/// `/a/b`, `/a`, and `/`.
///
/// # Examples
///
/// ```
/// assert_eq!(vfs::path::ancestors("/a/b/c"), vec!["/a/b", "/a", "/"]);
/// assert_eq!(vfs::path::ancestors("/a"), vec!["/"]);
/// assert!(vfs::path::ancestors("/").is_empty());
/// ```
pub fn ancestors(path: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = path;
    while !is_root(rest) {
        let idx = rest.rfind('/').expect("validated paths contain '/'");
        rest = if idx == 0 { "/" } else { &rest[..idx] };
        out.push(rest);
    }
    out
}

/// Whether `descendant` is `ancestor` itself or lies beneath it.
///
/// Used to reject `rename("/a", "/a/b")` with `EINVAL` as POSIX requires.
///
/// # Examples
///
/// ```
/// assert!(vfs::path::is_same_or_descendant("/a", "/a/b/c"));
/// assert!(!vfs::path::is_same_or_descendant("/a", "/ab"));
/// ```
pub fn is_same_or_descendant(ancestor: &str, descendant: &str) -> bool {
    if ancestor == descendant {
        return true;
    }
    if is_root(ancestor) {
        return true;
    }
    descendant.starts_with(ancestor) && descendant.as_bytes().get(ancestor.len()) == Some(&b'/')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_good_paths() {
        for p in ["/", "/a", "/a/b", "/a/b/c.txt", "/x-y_z.01"] {
            assert_eq!(validate(p), Ok(()), "{p}");
        }
    }

    #[test]
    fn ancestors_walk_to_the_root() {
        assert_eq!(ancestors("/a/b/c"), vec!["/a/b", "/a", "/"]);
        assert_eq!(ancestors("/a/b"), vec!["/a", "/"]);
        assert_eq!(ancestors("/a"), vec!["/"]);
        assert!(ancestors("/").is_empty());
    }

    #[test]
    fn validate_rejects_bad_paths() {
        for p in [
            "", "a", "a/b", "/a/", "//", "/a//b", "/.", "/..", "/a/./b", "/a/../b",
        ] {
            assert_eq!(validate(p), Err(Errno::EINVAL), "{p:?}");
        }
        assert_eq!(validate("/\0"), Err(Errno::EINVAL));
    }

    #[test]
    fn validate_rejects_long_names() {
        let long_name = format!("/{}", "x".repeat(NAME_MAX + 1));
        assert_eq!(validate(&long_name), Err(Errno::ENAMETOOLONG));
        let ok_name = format!("/{}", "x".repeat(NAME_MAX));
        assert_eq!(validate(&ok_name), Ok(()));
        let long_path = format!("/{}", "a/".repeat(PATH_MAX / 2));
        assert_eq!(validate(&long_path), Err(Errno::ENAMETOOLONG));
    }

    #[test]
    fn split_parent_cases() {
        assert_eq!(split_parent("/a").unwrap(), ("/", "a"));
        assert_eq!(split_parent("/a/b/c").unwrap(), ("/a/b", "c"));
        assert_eq!(split_parent("/"), Err(Errno::EINVAL));
    }

    #[test]
    fn join_and_basename_roundtrip() {
        for (dir, name) in [("/", "a"), ("/a", "b"), ("/a/b", "c")] {
            let joined = join(dir, name);
            assert_eq!(basename(&joined), name);
            let (parent, base) = split_parent(&joined).unwrap();
            assert_eq!(parent, dir);
            assert_eq!(base, name);
        }
        assert_eq!(basename("/"), "/");
    }

    #[test]
    fn depth_counts_components() {
        assert_eq!(depth("/"), 0);
        assert_eq!(depth("/a"), 1);
        assert_eq!(depth("/a/b/c"), 3);
    }

    #[test]
    fn descendant_checks() {
        assert!(is_same_or_descendant("/a", "/a"));
        assert!(is_same_or_descendant("/a", "/a/b"));
        assert!(is_same_or_descendant("/", "/anything"));
        assert!(!is_same_or_descendant("/a", "/ab"));
        assert!(!is_same_or_descendant("/a/b", "/a"));
    }
}
