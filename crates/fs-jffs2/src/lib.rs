//! JFFS2-style log-structured flash file system for the MCFS reproduction.
//!
//! JFFS2 cannot use a regular block device: it needs an MTD character device
//! with erase-block semantics (paper §4 — MCFS loads `mtdram` and `mtdblock`
//! to host it). This crate implements the log-structured design on
//! [`blockdev::MtdDevice`]:
//!
//! * everything is a versioned **node** appended to the log (inode nodes,
//!   dirent nodes with deletion markers, xattr nodes);
//! * **mount scans the whole flash**, replaying nodes in version order to
//!   rebuild the in-memory index — JFFS2's famously slow mount. The virtual
//!   clock is charged for every block; the host work is memoized on the
//!   flash content, so remounting unchanged flash skips the decode;
//! * **garbage collection** copies live nodes out of the dirtiest erase
//!   block and erases it, tracking per-block wear;
//! * flash timing (program/erase/read) is charged to an optional virtual
//!   clock.
//!
//! Simplification (recorded in DESIGN.md): inode nodes carry the *whole*
//! file content rather than page-sized fragments. Versioning, scanning, GC,
//! wear and the mount-time cost model — the properties MCFS exercises — are
//! unaffected; only large-file write amplification differs, and MCFS's
//! bounded parameter pools keep files small.
//!
//! # Examples
//!
//! ```
//! use blockdev::MtdDevice;
//! use fs_jffs2::{Jffs2Config, Jffs2Fs};
//! use vfs::{FileSystem, FileMode};
//!
//! # fn main() -> vfs::VfsResult<()> {
//! let mtd = MtdDevice::new(16 * 1024, 16).map_err(|_| vfs::Errno::EIO)?;
//! let mut fs = Jffs2Fs::format(mtd, Jffs2Config::default())?;
//! fs.mount()?; // full-flash scan
//! let fd = fs.create("/log", FileMode::REG_DEFAULT)?;
//! fs.write(fd, b"appended as a node")?;
//! fs.close(fd)?;
//! fs.unmount()?;
//! fs.mount()?; // rescan rebuilds the index
//! assert_eq!(fs.stat("/log")?.size, 18);
//! # Ok(())
//! # }
//! ```

mod fs;
pub mod log;

pub use fs::{FlashTiming, Jffs2Config, Jffs2Fs};

use blockdev::MtdDevice;
use vfs::VfsResult;

/// Convenience: format a fresh JFFS2 on an in-RAM MTD (mtdram analogue) with
/// `num_erase_blocks` blocks of `erase_block_size` bytes.
///
/// # Errors
///
/// `EINVAL` for unusable geometry.
pub fn jffs2_on_mtdram(erase_block_size: usize, num_erase_blocks: usize) -> VfsResult<Jffs2Fs> {
    let mtd = MtdDevice::new(erase_block_size, num_erase_blocks).map_err(|_| vfs::Errno::EINVAL)?;
    Jffs2Fs::format(mtd, Jffs2Config::default())
}
