//! The JFFS2-style log-structured engine: scan, append, garbage-collect.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

use blockdev::{BlockDevice, Clock, CowImage, FaultPhase, MtdBlock, MtdDevice};
use vfs::{
    path, AccessMode, DeviceBacked, DirEntry, Errno, Fd, FdTable, FileMode, FileStat, FileSystem,
    FileType, FsCapabilities, Ino, OpenFlags, RepairReport, StatFs, VfsResult, XattrFlags,
};

use crate::log::{Node, NodeHeader, FT_DIR, FT_REG, FT_SYMLINK};

const MAX_NLINK: u32 = 32_000;

/// Flash timing model charged to an optional virtual clock.
#[derive(Debug, Clone, Copy)]
pub struct FlashTiming {
    /// Program cost per 256-byte page.
    pub program_ns_per_page: u64,
    /// Erase cost per erase block (the expensive part of flash).
    pub erase_ns: u64,
    /// Read cost per 4 KiB.
    pub read_ns_per_4k: u64,
}

impl Default for FlashTiming {
    fn default() -> Self {
        FlashTiming {
            program_ns_per_page: 1_000,
            erase_ns: 2_000_000,
            read_ns_per_4k: 400,
        }
    }
}

/// Construction-time configuration.
#[derive(Debug, Clone)]
pub struct Jffs2Config {
    /// Erase blocks kept free as garbage-collection reserve.
    pub gc_reserve: usize,
    /// Flash timing model.
    pub timing: FlashTiming,
    /// Virtual clock for timing charges (`None` = untimed).
    pub clock: Option<Clock>,
}

impl Default for Jffs2Config {
    fn default() -> Self {
        Jffs2Config {
            gc_reserve: 2,
            timing: FlashTiming::default(),
            clock: None,
        }
    }
}

/// Location of a live node on flash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Loc {
    block: u32,
    offset: u32,
    len: u32,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct InodeInfo {
    ftype: u8,
    mode: u16,
    uid: u32,
    gid: u32,
    atime: u64,
    mtime: u64,
    ctime: u64,
    /// Current whole content (files: data; symlinks: target bytes). Shared
    /// with the scan memo's copy of the index until either side writes
    /// (`Arc::make_mut`), so handing out a memoized index copies no content.
    content: Arc<Vec<u8>>,
    /// Latest inode node (metadata winner).
    meta_loc: Loc,
    /// The data fragments of the latest content rewrite, in offset order.
    /// The last one may equal `meta_loc`; all must stay live or a rescan
    /// would lose content.
    data_locs: Vec<Loc>,
}

impl InodeInfo {
    /// Every flash location that must survive garbage collection.
    fn live_locs(&self) -> Vec<Loc> {
        let mut live = self.data_locs.clone();
        if !live.contains(&self.meta_loc) {
            live.push(self.meta_loc);
        }
        live
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct DirentInfo {
    /// Target inode; 0 is a live deletion marker (must survive GC so older
    /// positive dirents can never resurrect the name on rescan).
    ino: u32,
    ftype: u8,
    loc: Loc,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct XattrInfo {
    value: Vec<u8>,
    delete: bool,
    loc: Loc,
}

#[derive(Debug, Clone, Copy)]
struct OpenFile {
    ino: u32,
    offset: u64,
    read: bool,
    write: bool,
    append: bool,
}

/// What a full-flash scan found: the rebuilt index plus everything the
/// scanner had to tolerate (used by [`FileSystem::fsck`] to report and
/// persist repairs; `mount` keeps only the index).
#[derive(Debug, Clone)]
struct ScanOutcome {
    m: Mounted,
    /// Nodes successfully decoded.
    nodes_seen: u64,
    /// `(erase block, bytes lost)` for every block whose node stream broke
    /// (CRC failure, torn program, garbage): the valid prefix is kept, the
    /// rest of the block is quarantined as dead space.
    quarantined: Vec<(u32, u32)>,
    /// Dirents dropped because their target inode has no inode node:
    /// `(parent, name, target, flash block holding the node)`.
    orphan_dirents: Vec<(u32, String, u32, u32)>,
}

#[derive(Debug, Clone)]
struct Mounted {
    inodes: HashMap<u32, InodeInfo>,
    dirents: HashMap<(u32, String), DirentInfo>,
    xattrs: HashMap<(u32, String), XattrInfo>,
    used: Vec<u32>,
    dead: Vec<u32>,
    clean: VecDeque<u32>,
    head: u32,
    next_version: u64,
    next_ino: u32,
    fds: FdTable<OpenFile>,
    time: u64,
}

/// The last memoized full-flash scan, kept so that scanning the same bytes
/// again skips the decode. The key is the flash *content*: `image` is
/// compared with the live flash one erase block at a time
/// ([`CowImage::chunk_eq`]), never by address or write counter.
#[derive(Debug, Clone)]
struct ScanMemo {
    /// The flash as scanned: a copy-on-write clone, sharing every erase
    /// block with the device until one side rewrites it.
    image: CowImage,
    /// Per erase block: whether its whole node stream passed the CRC. Only
    /// such blocks, when unchanged, may skip it on a rescan; a quarantined
    /// block is checked again every time.
    verified: Vec<bool>,
    /// What the scan produced (the index, with no decoded node data).
    outcome: ScanOutcome,
}

/// A JFFS2-style file system on a simulated MTD device.
///
/// Construct with [`Jffs2Fs::format`], then [`mount`](FileSystem::mount)
/// (which scans the whole flash, as JFFS2 famously does).
#[derive(Debug, Clone)]
pub struct Jffs2Fs {
    dev: MtdBlock,
    config: Jffs2Config,
    m: Option<Mounted>,
    memo: Option<ScanMemo>,
}

impl Jffs2Fs {
    /// Erases the MTD device and writes a fresh (empty) file system:
    /// a single root-inode node in erase block 0.
    ///
    /// # Errors
    ///
    /// `EINVAL` if the device has fewer erase blocks than the GC reserve
    /// needs; `EIO` on flash failures.
    pub fn format(mut mtd: MtdDevice, config: Jffs2Config) -> VfsResult<Self> {
        if mtd.num_erase_blocks() < config.gc_reserve + 2 {
            return Err(Errno::EINVAL);
        }
        let ebs = mtd.erase_block_size() as u64;
        mtd.erase(0, ebs * mtd.num_erase_blocks() as u64)
            .map_err(|_| Errno::EIO)?;
        let root = Node::Inode {
            ino: 1,
            version: 1,
            ftype: FT_DIR,
            mode: FileMode::DIR_DEFAULT.bits(),
            uid: 0,
            gid: 0,
            atime: 0,
            mtime: 0,
            ctime: 0,
            isize: 0,
            offset: 0,
            rewrite: false,
            data: None,
        };
        mtd.program(0, &root.encode()).map_err(|_| Errno::EIO)?;
        // 512-byte logical blocks for the snapshot interface.
        let dev = MtdBlock::new(mtd, 512).map_err(|_| Errno::EINVAL)?;
        Ok(Jffs2Fs {
            dev,
            config,
            m: None,
            memo: None,
        })
    }

    /// Attaches to already formatted flash.
    pub fn open_device(mtd: MtdDevice, config: Jffs2Config) -> VfsResult<Self> {
        let dev = MtdBlock::new(mtd, 512).map_err(|_| Errno::EINVAL)?;
        Ok(Jffs2Fs {
            dev,
            config,
            m: None,
            memo: None,
        })
    }

    /// Direct access to the flash translation layer (fault injection and
    /// assertions in tests).
    pub fn device_mut(&mut self) -> &mut MtdBlock {
        &mut self.dev
    }

    /// Approximate bytes of in-memory mounted state (the scan-built index).
    pub fn cache_bytes(&self) -> usize {
        match &self.m {
            Some(m) => {
                m.inodes
                    .values()
                    .map(|i| i.content.len() + 96)
                    .sum::<usize>()
                    + m.dirents.keys().map(|(_, n)| n.len() + 48).sum::<usize>()
                    + m.xattrs
                        .iter()
                        .map(|((_, n), x)| n.len() + x.value.len() + 48)
                        .sum::<usize>()
            }
            None => 0,
        }
    }

    /// Wear level (erase counts) of the underlying flash, for reports.
    pub fn erase_counts(&self) -> Vec<u64> {
        (0..self.dev.mtd().num_erase_blocks())
            .map(|i| self.dev.mtd().erase_count(i))
            .collect()
    }

    fn ebs(&self) -> u32 {
        self.dev.mtd().erase_block_size() as u32
    }

    fn num_eb(&self) -> u32 {
        self.dev.mtd().num_erase_blocks() as u32
    }

    fn charge_read(&self, bytes: u64) {
        if let Some(c) = &self.config.clock {
            c.advance_ns(self.config.timing.read_ns_per_4k * bytes.div_ceil(4096));
        }
    }

    fn charge_program(&self, bytes: u64) {
        if let Some(c) = &self.config.clock {
            c.advance_ns(self.config.timing.program_ns_per_page * bytes.div_ceil(256));
        }
    }

    fn charge_erase(&self) {
        if let Some(c) = &self.config.clock {
            c.advance_ns(self.config.timing.erase_ns);
        }
    }

    fn read_raw(&self, loc: Loc) -> VfsResult<Vec<u8>> {
        let mut buf = vec![0u8; loc.len as usize];
        self.dev
            .mtd()
            .read(
                loc.block as u64 * self.ebs() as u64 + loc.offset as u64,
                &mut buf,
            )
            .map_err(|_| Errno::EIO)?;
        self.charge_read(loc.len as u64);
        Ok(buf)
    }

    fn m(&mut self) -> VfsResult<&mut Mounted> {
        self.m.as_mut().ok_or(Errno::ENODEV)
    }

    fn now(&mut self) -> VfsResult<u64> {
        let m = self.m()?;
        m.time += 1;
        Ok(m.time)
    }

    // ---- log append & GC ----------------------------------------------------

    /// Appends raw node bytes at the log head, switching to a clean erase
    /// block when the head is full. `during_gc` forbids recursive GC (the
    /// reserve guarantees GC itself always fits).
    fn append_raw(&mut self, bytes: &[u8], during_gc: bool) -> VfsResult<Loc> {
        let ebs = self.ebs();
        if bytes.len() as u32 > ebs {
            return Err(Errno::EFBIG);
        }
        loop {
            let (head, used) = {
                let m = self.m()?;
                (m.head, m.used[m.head as usize])
            };
            if used + bytes.len() as u32 <= ebs {
                let addr = head as u64 * ebs as u64 + used as u64;
                self.dev
                    .mtd_mut()
                    .program(addr, bytes)
                    .map_err(|_| Errno::EIO)?;
                self.charge_program(bytes.len() as u64);
                let m = self.m()?;
                m.used[head as usize] += bytes.len() as u32;
                return Ok(Loc {
                    block: head,
                    offset: used,
                    len: bytes.len() as u32,
                });
            }
            // Seal the head: the unusable tail is dead space.
            {
                let m = self.m()?;
                let tail = ebs - m.used[m.head as usize];
                m.dead[m.head as usize] += tail;
                m.used[m.head as usize] = ebs;
            }
            // Pick a clean block; keep the GC reserve unless we *are* GC.
            let reserve = if during_gc { 0 } else { self.config.gc_reserve };
            let popped = {
                let m = self.m()?;
                if m.clean.len() > reserve {
                    m.clean.pop_front()
                } else {
                    None
                }
            };
            match popped {
                Some(blk) => {
                    let m = self.m()?;
                    m.head = blk;
                    m.used[blk as usize] = 0;
                    m.dead[blk as usize] = 0;
                }
                None if during_gc => return Err(Errno::ENOSPC),
                None => {
                    self.gc()?;
                    // Re-check: if GC freed nothing, we are genuinely full.
                    let gc_reserve = self.config.gc_reserve;
                    let m = self.m()?;
                    if m.clean.len() <= gc_reserve
                        && m.used[m.head as usize] + bytes.len() as u32 > ebs
                    {
                        return Err(Errno::ENOSPC);
                    }
                }
            }
        }
    }

    /// Garbage-collects the dirtiest non-head erase block: copies its live
    /// nodes to the head, then erases it.
    fn gc(&mut self) -> VfsResult<()> {
        let victim = {
            let m = self.m()?;
            let head = m.head;
            (0..m.used.len() as u32)
                .filter(|&b| b != head && !m.clean.contains(&b) && m.used[b as usize] > 0)
                .max_by_key(|&b| m.dead[b as usize])
                .ok_or(Errno::ENOSPC)?
        };
        self.gc_block(victim)
    }

    /// Garbage-collects a specific erase block: copies its live nodes to the
    /// head, then erases it. Used by [`Self::gc`] for the dirtiest block and
    /// by `fsck` to scrub blocks holding quarantined or orphaned nodes.
    fn gc_block(&mut self, victim: u32) -> VfsResult<()> {
        {
            // If the victim is the current log head, seal it first so the
            // copies below land in a different block (copying into the block
            // about to be erased would destroy them).
            let ebs = self.ebs();
            let m = self.m()?;
            if m.head == victim {
                let tail = ebs - m.used[victim as usize];
                m.dead[victim as usize] += tail;
                m.used[victim as usize] = ebs;
            }
        }
        // Gather live locs in the victim.
        enum Entry {
            InodeMeta(u32),
            InodeData(u32, usize),
            Dirent(u32, String),
            Xattr(u32, String),
        }
        let mut moves: Vec<(Entry, Loc)> = Vec::new();
        {
            let m = self.m()?;
            for (&ino, info) in &m.inodes {
                if info.meta_loc.block == victim && !info.data_locs.contains(&info.meta_loc) {
                    moves.push((Entry::InodeMeta(ino), info.meta_loc));
                }
                for (i, loc) in info.data_locs.iter().enumerate() {
                    if loc.block == victim {
                        moves.push((Entry::InodeData(ino, i), *loc));
                    }
                }
            }
            for ((parent, name), d) in &m.dirents {
                if d.loc.block == victim {
                    moves.push((Entry::Dirent(*parent, name.clone()), d.loc));
                }
            }
            for ((ino, name), x) in &m.xattrs {
                if x.loc.block == victim {
                    moves.push((Entry::Xattr(*ino, name.clone()), x.loc));
                }
            }
        }
        for (entry, loc) in moves {
            let bytes = self.read_raw(loc)?;
            let new_loc = self.append_raw(&bytes, true)?;
            // Flash acks torn programs (power loss mid-write, lying
            // firmware). The erase below destroys the only other copy of
            // this node, so read the copy back before trusting it: on
            // mismatch, abort with the victim intact — the torn copy is
            // already-accounted dead space the next scan quarantines.
            if self.read_raw(new_loc)? != bytes {
                return Err(Errno::EIO);
            }
            let m = self.m()?;
            match entry {
                Entry::InodeMeta(ino) => {
                    m.inodes.get_mut(&ino).expect("live inode").meta_loc = new_loc;
                }
                Entry::InodeData(ino, i) => {
                    let info = m.inodes.get_mut(&ino).expect("live inode");
                    // A single node can be both a fragment and the meta
                    // winner.
                    if info.data_locs[i] == info.meta_loc {
                        info.meta_loc = new_loc;
                    }
                    info.data_locs[i] = new_loc;
                }
                Entry::Dirent(parent, name) => {
                    m.dirents.get_mut(&(parent, name)).expect("live dirent").loc = new_loc;
                }
                Entry::Xattr(ino, name) => {
                    m.xattrs.get_mut(&(ino, name)).expect("live xattr").loc = new_loc;
                }
            }
        }
        // Erase the victim.
        let ebs = self.ebs() as u64;
        self.dev
            .mtd_mut()
            .erase(victim as u64 * ebs, ebs)
            .map_err(|_| Errno::EIO)?;
        self.charge_erase();
        let m = self.m()?;
        m.used[victim as usize] = 0;
        m.dead[victim as usize] = 0;
        m.clean.push_back(victim);
        Ok(())
    }

    fn append_node(&mut self, node: &Node) -> VfsResult<Loc> {
        self.append_raw(&node.encode(), false)
    }

    fn kill(&mut self, loc: Loc) -> VfsResult<()> {
        let m = self.m()?;
        m.dead[loc.block as usize] += loc.len;
        Ok(())
    }

    fn alloc_version(&mut self) -> VfsResult<u64> {
        let m = self.m()?;
        m.next_version += 1;
        Ok(m.next_version)
    }

    fn alloc_ino(&mut self) -> VfsResult<u32> {
        let m = self.m()?;
        m.next_ino += 1;
        Ok(m.next_ino - 1)
    }

    // ---- index helpers --------------------------------------------------------

    fn info(&self, ino: u32) -> VfsResult<&InodeInfo> {
        self.m
            .as_ref()
            .ok_or(Errno::ENODEV)?
            .inodes
            .get(&ino)
            .ok_or(Errno::EIO)
    }

    fn lookup(&self, parent: u32, name: &str) -> VfsResult<Option<(u32, u8)>> {
        let m = self.m.as_ref().ok_or(Errno::ENODEV)?;
        if self.info(parent)?.ftype != FT_DIR {
            return Err(Errno::ENOTDIR);
        }
        match m.dirents.get(&(parent, name.to_string())) {
            Some(d) if d.ino != 0 => Ok(Some((d.ino, d.ftype))),
            _ => Ok(None),
        }
    }

    fn resolve(&self, p: &str) -> VfsResult<u32> {
        path::validate(p)?;
        let mut cur = Ino::ROOT.0 as u32;
        for comp in path::components(p) {
            match self.info(cur)?.ftype {
                FT_DIR => {}
                FT_SYMLINK => return Err(Errno::ELOOP),
                _ => return Err(Errno::ENOTDIR),
            }
            cur = self.lookup(cur, comp)?.ok_or(Errno::ENOENT)?.0;
        }
        Ok(cur)
    }

    fn resolve_parent<'p>(&self, p: &'p str) -> VfsResult<(u32, &'p str)> {
        path::validate(p)?;
        let (parent, name) = path::split_parent(p)?;
        let parent_ino = self.resolve(&parent)?;
        if self.info(parent_ino)?.ftype != FT_DIR {
            return Err(Errno::ENOTDIR);
        }
        Ok((parent_ino, name))
    }

    fn children(&self, dir: u32) -> Vec<(String, u32, u8)> {
        let m = self.m.as_ref().expect("mounted");
        let mut out: Vec<(String, u32, u8)> = m
            .dirents
            .iter()
            .filter(|((p, _), d)| *p == dir && d.ino != 0)
            .map(|((_, n), d)| (n.clone(), d.ino, d.ftype))
            .collect();
        // JFFS2 readdir order follows the scan/hash table; model it as
        // version-insertion order via inode number then name.
        out.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
        out
    }

    fn nlink_of(&self, ino: u32) -> u32 {
        let m = self.m.as_ref().expect("mounted");
        let info = &m.inodes[&ino];
        if info.ftype == FT_DIR {
            let subdirs = m
                .dirents
                .values()
                .filter(|d| d.ino != 0)
                .filter(|d| {
                    m.inodes
                        .get(&d.ino)
                        .map(|i| i.ftype == FT_DIR)
                        .unwrap_or(false)
                })
                .count();
            let my_children = self
                .children(ino)
                .iter()
                .filter(|(_, c, _)| m.inodes.get(c).map(|i| i.ftype == FT_DIR).unwrap_or(false))
                .count();
            let _ = subdirs;
            2 + my_children as u32
        } else {
            m.dirents.values().filter(|d| d.ino == ino).count() as u32
        }
    }

    /// Maximum content bytes per fragment node.
    fn frag_max(&self) -> usize {
        (self.ebs() as usize / 2).saturating_sub(256).max(256)
    }

    /// Writes fresh inode node(s) for `ino` with its current index state.
    /// With `with_data`, the whole content is rewritten as a sequence of
    /// fragment nodes (offset order, ascending versions).
    fn flush_inode(&mut self, ino: u32, with_data: bool) -> VfsResult<()> {
        let info = self.info(ino)?.clone();
        let old_live = info.live_locs();
        let make_node =
            |version: u64, offset: u64, rewrite: bool, data: Option<Vec<u8>>| Node::Inode {
                ino,
                version,
                ftype: info.ftype,
                mode: info.mode,
                uid: info.uid,
                gid: info.gid,
                atime: info.atime,
                mtime: info.mtime,
                ctime: info.ctime,
                isize: info.content.len() as u64,
                offset,
                rewrite,
                data,
            };
        let (new_meta, new_data_locs) = if with_data {
            let frag_max = self.frag_max();
            let mut locs = Vec::new();
            let mut off = 0usize;
            loop {
                let end = (off + frag_max).min(info.content.len());
                let chunk = info.content[off..end].to_vec();
                let version = self.alloc_version()?;
                let node = make_node(version, off as u64, off == 0, Some(chunk));
                locs.push(self.append_node(&node)?);
                off = end;
                if off >= info.content.len() {
                    break;
                }
            }
            (*locs.last().expect("at least one fragment"), Some(locs))
        } else {
            let version = self.alloc_version()?;
            let node = make_node(version, 0, false, None);
            (self.append_node(&node)?, None)
        };
        let m = self.m()?;
        let entry = m.inodes.get_mut(&ino).expect("live inode");
        entry.meta_loc = new_meta;
        if let Some(locs) = new_data_locs {
            entry.data_locs = locs;
        }
        let new_live = entry.live_locs();
        for l in old_live {
            if !new_live.contains(&l) {
                self.kill(l)?;
            }
        }
        Ok(())
    }

    /// Appends incremental fragment nodes covering `[offset, offset+len)`
    /// of `ino`'s current content — the real-JFFS2 write path: only the
    /// changed range reaches flash. Compacts with a whole rewrite when the
    /// fragment list has grown long (bounding scan and GC work).
    fn flush_range(&mut self, ino: u32, offset: u64, len: u64) -> VfsResult<()> {
        // Compact long fragment chains with a whole rewrite — but only when
        // the log has room for the copy; otherwise keep appending fragments
        // (GC will reclaim the dead ones).
        if self.info(ino)?.data_locs.len() > 64 {
            let content_len = self.info(ino)?.content.len() as u64;
            if content_len + 1024 < self.free_bytes() {
                return self.flush_inode(ino, true);
            }
        }
        let info = self.info(ino)?.clone();
        let old_meta = info.meta_loc;
        let old_meta_live = info.data_locs.contains(&old_meta);
        let frag_max = self.frag_max();
        let end = (offset + len).min(info.content.len() as u64) as usize;
        let mut off = (offset as usize).min(end);
        let mut locs = Vec::new();
        loop {
            let stop = (off + frag_max).min(end);
            let chunk = info.content[off..stop].to_vec();
            let version = self.alloc_version()?;
            let node = Node::Inode {
                ino,
                version,
                ftype: info.ftype,
                mode: info.mode,
                uid: info.uid,
                gid: info.gid,
                atime: info.atime,
                mtime: info.mtime,
                ctime: info.ctime,
                isize: info.content.len() as u64,
                offset: off as u64,
                rewrite: false,
                data: Some(chunk),
            };
            locs.push(self.append_node(&node)?);
            off = stop;
            if off >= end {
                break;
            }
        }
        let m = self.m()?;
        let entry = m.inodes.get_mut(&ino).expect("live inode");
        entry.meta_loc = *locs.last().expect("at least one fragment");
        entry.data_locs.extend(locs);
        if !old_meta_live {
            self.kill(old_meta)?;
        }
        Ok(())
    }

    fn write_dirent(&mut self, parent: u32, name: &str, ino: u32, ftype: u8) -> VfsResult<()> {
        let version = self.alloc_version()?;
        let node = Node::Dirent {
            parent,
            version,
            ino,
            ftype,
            name: name.to_string(),
        };
        let loc = self.append_node(&node)?;
        let m = self.m()?;
        let old = m
            .dirents
            .insert((parent, name.to_string()), DirentInfo { ino, ftype, loc });
        if let Some(old) = old {
            self.kill(old.loc)?;
        }
        Ok(())
    }

    fn maybe_drop_inode(&mut self, ino: u32) -> VfsResult<()> {
        let m = self.m()?;
        let referenced = m.dirents.values().any(|d| d.ino == ino);
        let open = m.fds.iter().any(|(_, of)| of.ino == ino);
        if referenced || open || ino == 1 {
            return Ok(());
        }
        if let Some(info) = m.inodes.remove(&ino) {
            // Drop its xattrs too.
            let stale: Vec<(u32, String)> = m
                .xattrs
                .keys()
                .filter(|(i, _)| *i == ino)
                .cloned()
                .collect();
            let mut dead_locs = info.live_locs();
            for key in stale {
                if let Some(x) = m.xattrs.remove(&key) {
                    dead_locs.push(x.loc);
                }
            }
            for loc in dead_locs {
                self.kill(loc)?;
            }
        }
        Ok(())
    }

    fn free_bytes(&self) -> u64 {
        let m = self.m.as_ref().expect("mounted");
        let ebs = self.dev.mtd().erase_block_size() as u64;
        let reserve = self.config.gc_reserve as u64 * ebs;
        let head_free = (self.ebs() - m.used[m.head as usize]) as u64;
        let clean = m.clean.len() as u64 * ebs;
        let reclaimable: u64 = m.dead.iter().map(|&d| d as u64).sum();
        (head_free + clean + reclaimable).saturating_sub(reserve)
    }
    /// Scans the whole flash and rebuilds the index, tolerating corruption:
    /// a block whose node stream breaks (bad CRC, torn program, garbage)
    /// keeps its valid prefix and quarantines the rest as dead space, and
    /// dirents whose target inode never made it to flash are dropped. Both
    /// conditions are recorded in the [`ScanOutcome`] so `fsck` can report
    /// and persist the repairs; `mount` applies them silently, as real
    /// JFFS2's scanner does.
    ///
    /// The outcome is a pure function of the flash bytes, so the last one is
    /// memoized ([`ScanMemo`]). If every erase block still holds the bytes
    /// it was scanned with, the memoized outcome is returned as is;
    /// otherwise the flash is rescanned, and unchanged blocks that passed
    /// the CRC last time skip it. Either way the modelled read of the whole
    /// flash is charged, so the virtual clock cannot tell. Under a fault
    /// plan every read is observable (ordinals, phase filters): the scan
    /// then reads and verifies everything and leaves the memo alone.
    ///
    /// A rescan is memoized only if every erase block it read is also held
    /// by another image (a device snapshot, as the checker takes of every
    /// state it mounts). The memo then never becomes the only holder of
    /// flash bytes that later writes replace, and costs no memory beyond
    /// its index.
    fn scan(&mut self) -> VfsResult<ScanOutcome> {
        let num = self.num_eb() as usize;
        if self.dev.mtd().fault_plan().is_some() {
            return Ok(self.scan_flash(&vec![false; num])?.0);
        }
        let mut trusted = vec![false; num];
        if let Some(memo) = self.memo.take() {
            let live = self.dev.mtd().image();
            if (0..num).all(|b| memo.image.chunk_eq(b, live)) {
                for _ in 0..num {
                    self.charge_read(self.ebs() as u64);
                }
                let outcome = memo.outcome.clone();
                // Adopt the live blocks: equal bytes in separate buffers
                // would otherwise be held twice.
                self.memo = Some(ScanMemo {
                    image: live.clone(),
                    ..memo
                });
                return Ok(outcome);
            }
            for (b, t) in trusted.iter_mut().enumerate() {
                *t = memo.verified[b] && memo.image.chunk_eq(b, live);
            }
            // The stale memo (its index and the blocks only it still
            // holds) is dropped here, before the rescan builds a new one.
        }
        let (outcome, verified) = self.scan_flash(&trusted)?;
        let image = self.dev.mtd().image();
        if image.shared_bytes() == image.len() {
            self.memo = Some(ScanMemo {
                image: image.clone(),
                verified,
                outcome: outcome.clone(),
            });
        }
        Ok(outcome)
    }

    /// Reads and decodes every erase block, skipping the CRC of the
    /// `trusted` ones (bytes an earlier scan already verified). Returns the
    /// outcome and, per block, whether its node stream decoded cleanly.
    fn scan_flash(&self, trusted: &[bool]) -> VfsResult<(ScanOutcome, Vec<bool>)> {
        let ebs = self.ebs();
        let num = self.num_eb();
        // Full-device scan: collect every node with its location.
        let mut nodes: Vec<(Node, Loc)> = Vec::new();
        let mut used = vec![0u32; num as usize];
        let mut quarantined: Vec<(u32, u32)> = Vec::new();
        for blk in 0..num {
            let block = self
                .dev
                .mtd()
                .read_erase_block(blk as usize)
                .map_err(|_| Errno::EIO)?;
            self.charge_read(ebs as u64);
            let mut off = 0usize;
            while off < ebs as usize {
                let buf = &block[off..];
                let decoded = NodeHeader::read(buf).and_then(|header| {
                    let Some(header) = header else {
                        return Ok(None);
                    };
                    if !trusted[blk as usize] {
                        header.verify(buf)?;
                    }
                    Ok(Some((Node::parse(&header, buf)?, header.total)))
                });
                match decoded {
                    Ok(Some((node, len))) => {
                        nodes.push((
                            node,
                            Loc {
                                block: blk,
                                offset: off as u32,
                                len: len as u32,
                            },
                        ));
                        off += len;
                    }
                    Ok(None) => break,
                    Err(_) => {
                        // The node stream is broken: without a trustworthy
                        // length field, every later offset in this block is
                        // suspect. Seal the block (so appends never program
                        // over the garbage) and quarantine the remainder;
                        // the valid prefix stays live.
                        quarantined.push((blk, ebs - off as u32));
                        off = ebs as usize;
                    }
                }
            }
            used[blk as usize] = off as u32;
        }
        let verified = (0..num)
            .map(|b| !quarantined.iter().any(|&(q, _)| q == b))
            .collect();
        // Apply in version order so later nodes win.
        let nodes_seen = nodes.len();
        nodes.sort_by_key(|(n, _)| n.version());
        let mut inodes: HashMap<u32, InodeInfo> = HashMap::new();
        let mut dirents: HashMap<(u32, String), DirentInfo> = HashMap::new();
        let mut xattrs: HashMap<(u32, String), XattrInfo> = HashMap::new();
        let mut dead = vec![0u32; num as usize];
        for &(blk, lost) in &quarantined {
            dead[blk as usize] += lost;
        }
        let mut max_version = 0u64;
        let mut max_ino = 1u32;
        for (node, loc) in nodes {
            max_version = max_version.max(node.version());
            match node {
                Node::Inode {
                    ino,
                    ftype,
                    mode,
                    uid,
                    gid,
                    atime,
                    mtime,
                    ctime,
                    isize,
                    offset,
                    rewrite,
                    data,
                    ..
                } => {
                    max_ino = max_ino.max(ino);
                    match inodes.get_mut(&ino) {
                        Some(info) => {
                            let old_live = info.live_locs();
                            info.ftype = ftype;
                            info.mode = mode;
                            info.uid = uid;
                            info.gid = gid;
                            info.atime = atime;
                            info.mtime = mtime;
                            info.ctime = ctime;
                            // Every node carries the file size at its time:
                            // metadata-only nodes implement truncate.
                            let content = Arc::make_mut(&mut info.content);
                            content.resize(isize as usize, 0);
                            if let Some(d) = data {
                                let end = (offset as usize + d.len()).min(content.len());
                                let n = end.saturating_sub(offset as usize);
                                content[offset as usize..end].copy_from_slice(&d[..n]);
                                if rewrite {
                                    // A rewrite starts: previous fragments die.
                                    info.data_locs = vec![loc];
                                } else {
                                    info.data_locs.push(loc);
                                }
                            }
                            info.meta_loc = loc;
                            let new_live = info.live_locs();
                            for l in old_live {
                                if !new_live.contains(&l) {
                                    dead[l.block as usize] += l.len;
                                }
                            }
                        }
                        None => {
                            let mut content = vec![0u8; isize as usize];
                            let has_data = data.is_some();
                            if let Some(d) = &data {
                                let end = (offset as usize + d.len()).min(content.len());
                                let n = end.saturating_sub(offset as usize);
                                content[offset as usize..end].copy_from_slice(&d[..n]);
                            }
                            inodes.insert(
                                ino,
                                InodeInfo {
                                    ftype,
                                    mode,
                                    uid,
                                    gid,
                                    atime,
                                    mtime,
                                    ctime,
                                    content: Arc::new(content),
                                    meta_loc: loc,
                                    data_locs: if has_data { vec![loc] } else { Vec::new() },
                                },
                            );
                        }
                    }
                }
                Node::Dirent {
                    parent,
                    ino,
                    ftype,
                    name,
                    ..
                } => {
                    max_ino = max_ino.max(ino);
                    if let Some(old) =
                        dirents.insert((parent, name), DirentInfo { ino, ftype, loc })
                    {
                        dead[old.loc.block as usize] += old.loc.len;
                    }
                }
                Node::Xattr {
                    ino,
                    delete,
                    name,
                    value,
                    ..
                } => {
                    if let Some(old) = xattrs.insert((ino, name), XattrInfo { value, delete, loc })
                    {
                        dead[old.loc.block as usize] += old.loc.len;
                    }
                }
            }
        }
        // Drop dirents whose target inode has no inode node on flash: a
        // crash between the dirent append and the inode append leaves a name
        // that resolves to nothing. The dead-marking makes GC reclaim the
        // node; fsck erases it eagerly so the repair is durable.
        let orphan_keys: Vec<(u32, String)> = dirents
            .iter()
            .filter(|(_, d)| d.ino != 0 && !inodes.contains_key(&d.ino))
            .map(|(k, _)| k.clone())
            .collect();
        let mut orphan_dirents = Vec::new();
        for key in orphan_keys {
            let d = dirents.remove(&key).expect("orphan key just collected");
            dead[d.loc.block as usize] += d.loc.len;
            orphan_dirents.push((key.0, key.1, d.ino, d.loc.block));
        }
        let clean: VecDeque<u32> = (0..num).filter(|&b| used[b as usize] == 0).collect();
        // Head: the non-clean block with the most tail space.
        let head = (0..num)
            .filter(|&b| used[b as usize] > 0)
            .min_by_key(|&b| used[b as usize])
            .unwrap_or(0);
        let outcome = ScanOutcome {
            m: Mounted {
                inodes,
                dirents,
                xattrs,
                used,
                dead,
                clean,
                head,
                next_version: max_version + 1,
                next_ino: max_ino + 1,
                fds: FdTable::default(),
                time: max_version << 16,
            },
            nodes_seen: nodes_seen as u64,
            quarantined,
            orphan_dirents,
        };
        Ok((outcome, verified))
    }

    /// The repair pipeline behind [`FileSystem::fsck`] (fault-phase
    /// bracketing and mount-state handling live in the trait method).
    ///
    /// Loops scan → scrub until a scan comes back clean: scrubbing a block
    /// can resurrect an older superseded node (the newer winner lived in the
    /// scrubbed block), so the log is rescanned until the index reaches a
    /// fixed point. Each pass erases whole blocks of garbage, so the loop
    /// strictly shrinks the log and terminates.
    fn repair(&mut self) -> VfsResult<RepairReport> {
        let mut report = RepairReport::default();
        let mut first = true;
        loop {
            self.m = None;
            let outcome = self.scan()?;
            if first {
                report.items_scanned = outcome.nodes_seen;
                if outcome.nodes_seen == 0 && outcome.quarantined.is_empty() {
                    return Err(Errno::EIO); // erased flash: nothing to repair
                }
                first = false;
            }
            for &(blk, lost) in &outcome.quarantined {
                report.fixed(format!(
                    "erase block {blk}: undecodable node stream, {lost} bytes quarantined"
                ));
            }
            for (parent, name, ino, _) in &outcome.orphan_dirents {
                report.fixed(format!(
                    "dirent {parent}:\"{name}\": target inode {ino} never written, dropped"
                ));
            }
            let mut scrub: BTreeSet<u32> =
                outcome.quarantined.iter().map(|&(blk, _)| blk).collect();
            scrub.extend(outcome.orphan_dirents.iter().map(|o| o.3));
            let missing_root = !outcome.m.inodes.contains_key(&1);
            self.m = Some(outcome.m);
            if !missing_root && scrub.is_empty() {
                return Ok(report);
            }
            if missing_root {
                // Root's inode node was lost (say, quarantined with its
                // block): recreate an empty root directory. Entries under it
                // survive — dirents carry the parent ino.
                let version = self.alloc_version()?;
                let node = Node::Inode {
                    ino: 1,
                    version,
                    ftype: FT_DIR,
                    mode: FileMode::DIR_DEFAULT.bits(),
                    uid: 0,
                    gid: 0,
                    atime: 0,
                    mtime: 0,
                    ctime: 0,
                    isize: 0,
                    offset: 0,
                    rewrite: false,
                    data: None,
                };
                let loc = self.append_node(&node)?;
                let m = self.m()?;
                m.inodes.insert(
                    1,
                    InodeInfo {
                        ftype: FT_DIR,
                        mode: FileMode::DIR_DEFAULT.bits(),
                        uid: 0,
                        gid: 0,
                        atime: 0,
                        mtime: 0,
                        ctime: 0,
                        content: Arc::default(),
                        meta_loc: loc,
                        data_locs: Vec::new(),
                    },
                );
                report.fixed("root inode recreated");
            }
            // Physically scrub every block holding corrupt or orphaned
            // nodes so the repair is durable: live nodes are copied out,
            // the block is erased. A crash mid-scrub just leaves some
            // blocks for the re-run (convergence).
            for blk in scrub {
                self.gc_block(blk)?;
            }
        }
    }
}

impl FileSystem for Jffs2Fs {
    fn fs_name(&self) -> &str {
        "jffs2"
    }

    fn capabilities(&self) -> FsCapabilities {
        FsCapabilities {
            rename: true,
            hardlink: true,
            symlink: true,
            xattr: true,
            access: true,
            checkpoint: false,
        }
    }

    fn mount(&mut self) -> VfsResult<()> {
        if self.m.is_some() {
            return Err(Errno::EBUSY);
        }
        let outcome = self.scan()?;
        if !outcome.m.inodes.contains_key(&1) {
            return Err(Errno::EIO); // no root: unformatted flash
        }
        self.m = Some(outcome.m);
        Ok(())
    }

    fn unmount(&mut self) -> VfsResult<()> {
        // Log writes are synchronous; nothing to flush.
        self.m.take().map(|_| ()).ok_or(Errno::ENODEV)
    }

    fn is_mounted(&self) -> bool {
        self.m.is_some()
    }

    fn sync(&mut self) -> VfsResult<()> {
        self.m().map(|_| ())
    }

    fn statfs(&self) -> VfsResult<StatFs> {
        let m = self.m.as_ref().ok_or(Errno::ENODEV)?;
        let ebs = self.dev.mtd().erase_block_size() as u64;
        let total = ebs * self.num_eb() as u64;
        let free = self.free_bytes();
        Ok(StatFs {
            block_size: 4096,
            blocks: total / 4096,
            blocks_free: free / 4096,
            blocks_avail: free / 4096,
            files: u32::MAX as u64,
            files_free: u32::MAX as u64 - m.inodes.len() as u64,
            name_max: 254,
        })
    }

    fn create(&mut self, p: &str, mode: FileMode) -> VfsResult<Fd> {
        let (parent, name) = self.resolve_parent(p)?;
        if self.lookup(parent, name)?.is_some() {
            return Err(Errno::EEXIST);
        }
        let node_overhead = 80 + name.len();
        if self.free_bytes() < node_overhead as u64 * 2 {
            return Err(Errno::ENOSPC);
        }
        let now = self.now()?;
        let ino = self.alloc_ino()?;
        let version = self.alloc_version()?;
        let node = Node::Inode {
            ino,
            version,
            ftype: FT_REG,
            mode: mode.bits(),
            uid: 0,
            gid: 0,
            atime: now,
            mtime: now,
            ctime: now,
            isize: 0,
            offset: 0,
            rewrite: true,
            data: Some(Vec::new()),
        };
        let loc = self.append_node(&node)?;
        self.m()?.inodes.insert(
            ino,
            InodeInfo {
                ftype: FT_REG,
                mode: mode.bits(),
                uid: 0,
                gid: 0,
                atime: now,
                mtime: now,
                ctime: now,
                content: Arc::default(),
                meta_loc: loc,
                data_locs: vec![loc],
            },
        );
        self.write_dirent(parent, name, ino, FT_REG)?;
        self.m()?.fds.insert(OpenFile {
            ino,
            offset: 0,
            read: true,
            write: true,
            append: false,
        })
    }

    fn open(&mut self, p: &str, flags: OpenFlags, mode: FileMode) -> VfsResult<Fd> {
        path::validate(p)?;
        let ino = match self.resolve(p) {
            Ok(ino) => {
                if flags.create && flags.excl {
                    return Err(Errno::EEXIST);
                }
                ino
            }
            Err(Errno::ENOENT) if flags.create => {
                let fd = self.create(p, mode)?;
                self.close(fd)?;
                self.resolve(p)?
            }
            Err(e) => return Err(e),
        };
        match self.info(ino)?.ftype {
            FT_SYMLINK => return Err(Errno::ELOOP),
            FT_DIR if flags.write => return Err(Errno::EISDIR),
            _ => {}
        }
        if flags.trunc && flags.write {
            let m = self.m()?;
            m.inodes.get_mut(&ino).expect("resolved").content = Arc::default();
            self.flush_inode(ino, true)?;
        }
        self.m()?.fds.insert(OpenFile {
            ino,
            offset: 0,
            read: flags.read || !flags.write,
            write: flags.write,
            append: flags.append,
        })
    }

    fn close(&mut self, fd: Fd) -> VfsResult<()> {
        let of = self.m()?.fds.remove(fd)?;
        self.maybe_drop_inode(of.ino)
    }

    fn read(&mut self, fd: Fd, out: &mut [u8]) -> VfsResult<usize> {
        let of = *self.m()?.fds.get(fd)?;
        if !of.read {
            return Err(Errno::EBADF);
        }
        if self.info(of.ino)?.ftype == FT_DIR {
            return Err(Errno::EISDIR);
        }
        let now = self.now()?;
        let m = self.m()?;
        let info = m.inodes.get_mut(&of.ino).expect("open file");
        let size = info.content.len() as u64;
        let start = of.offset.min(size) as usize;
        // `lseek` accepts any u64 offset: saturate the end position so a
        // read far past EOF is an empty read (POSIX), never a wrapped range.
        let end = of.offset.saturating_add(out.len() as u64).min(size) as usize;
        out[..end - start].copy_from_slice(&info.content[start..end]);
        info.atime = now;
        // atime updates stay in memory until the next node write, as JFFS2
        // (lazytime-style) does — flash writes per read would wear flash out.
        m.fds.get_mut(fd)?.offset += (end - start) as u64;
        self.charge_read((end - start) as u64);
        Ok(end - start)
    }

    fn write(&mut self, fd: Fd, data: &[u8]) -> VfsResult<usize> {
        let of = *self.m()?.fds.get(fd)?;
        if !of.write {
            return Err(Errno::EBADF);
        }
        if self.info(of.ino)?.ftype == FT_DIR {
            return Err(Errno::EISDIR);
        }
        let now = self.now()?;
        let (offset, new_len) = {
            let m = self.m()?;
            let info = m.inodes.get_mut(&of.ino).expect("open file");
            let offset = if of.append {
                info.content.len() as u64
            } else {
                of.offset
            };
            let end = offset.checked_add(data.len() as u64).ok_or(Errno::EFBIG)?;
            (offset, end.max(info.content.len() as u64))
        };
        // The in-core content model is dense: a file cannot outgrow the
        // flash it must eventually be written to.
        if new_len > self.dev.mtd().size_bytes() {
            return Err(Errno::EFBIG);
        }
        // Incremental writes append fragment nodes: pre-check that the
        // written range (plus per-fragment headers) fits.
        let frags = (data.len() / self.frag_max() + 2) as u64;
        if data.len() as u64 + 96 * frags > self.free_bytes() {
            return Err(Errno::ENOSPC);
        }
        {
            let m = self.m()?;
            let info = m.inodes.get_mut(&of.ino).expect("open file");
            let content = Arc::make_mut(&mut info.content);
            if new_len as usize > content.len() {
                content.resize(new_len as usize, 0);
            }
            content[offset as usize..offset as usize + data.len()].copy_from_slice(data);
            info.mtime = now;
            info.ctime = now;
        }
        self.flush_range(of.ino, offset, data.len() as u64)?;
        self.m()?.fds.get_mut(fd)?.offset = offset + data.len() as u64;
        Ok(data.len())
    }

    fn lseek(&mut self, fd: Fd, offset: u64) -> VfsResult<u64> {
        self.m()?.fds.get_mut(fd)?.offset = offset;
        Ok(offset)
    }

    fn truncate(&mut self, p: &str, size: u64) -> VfsResult<()> {
        let ino = self.resolve(p)?;
        match self.info(ino)?.ftype {
            FT_DIR => return Err(Errno::EISDIR),
            FT_SYMLINK => return Err(Errno::EINVAL),
            _ => {}
        }
        if 128 > self.free_bytes() {
            return Err(Errno::ENOSPC);
        }
        if size > self.dev.mtd().size_bytes() {
            return Err(Errno::EFBIG);
        }
        let now = self.now()?;
        {
            let m = self.m()?;
            let info = m.inodes.get_mut(&ino).expect("resolved");
            Arc::make_mut(&mut info.content).resize(size as usize, 0);
            info.mtime = now;
            info.ctime = now;
        }
        // A metadata-only node carries the new size; scan replays the
        // resize in version order (extensions read back as zeros).
        self.flush_inode(ino, false)
    }

    fn mkdir(&mut self, p: &str, mode: FileMode) -> VfsResult<()> {
        let (parent, name) = self.resolve_parent(p)?;
        if self.lookup(parent, name)?.is_some() {
            return Err(Errno::EEXIST);
        }
        if self.free_bytes() < (160 + name.len()) as u64 {
            return Err(Errno::ENOSPC);
        }
        let now = self.now()?;
        let ino = self.alloc_ino()?;
        let version = self.alloc_version()?;
        let node = Node::Inode {
            ino,
            version,
            ftype: FT_DIR,
            mode: mode.bits(),
            uid: 0,
            gid: 0,
            atime: now,
            mtime: now,
            ctime: now,
            isize: 0,
            offset: 0,
            rewrite: false,
            data: None,
        };
        let loc = self.append_node(&node)?;
        self.m()?.inodes.insert(
            ino,
            InodeInfo {
                ftype: FT_DIR,
                mode: mode.bits(),
                uid: 0,
                gid: 0,
                atime: now,
                mtime: now,
                ctime: now,
                content: Arc::default(),
                meta_loc: loc,
                data_locs: Vec::new(),
            },
        );
        self.write_dirent(parent, name, ino, FT_DIR)
    }

    fn rmdir(&mut self, p: &str) -> VfsResult<()> {
        if path::is_root(p) {
            return Err(Errno::EBUSY);
        }
        let (parent, name) = self.resolve_parent(p)?;
        let (ino, _) = self.lookup(parent, name)?.ok_or(Errno::ENOENT)?;
        if self.info(ino)?.ftype != FT_DIR {
            return Err(Errno::ENOTDIR);
        }
        if !self.children(ino).is_empty() {
            return Err(Errno::ENOTEMPTY);
        }
        // Deletion dirent.
        self.write_dirent(parent, name, 0, FT_DIR)?;
        self.maybe_drop_inode(ino)
    }

    fn unlink(&mut self, p: &str) -> VfsResult<()> {
        let (parent, name) = self.resolve_parent(p)?;
        let (ino, ftype) = self.lookup(parent, name)?.ok_or(Errno::ENOENT)?;
        if ftype == FT_DIR {
            return Err(Errno::EISDIR);
        }
        self.write_dirent(parent, name, 0, ftype)?;
        self.maybe_drop_inode(ino)
    }

    fn stat(&mut self, p: &str) -> VfsResult<FileStat> {
        let ino = self.resolve(p)?;
        let nlink = self.nlink_of(ino);
        let info = self.info(ino)?;
        let (ftype, size) = match info.ftype {
            FT_REG => (FileType::Regular, info.content.len() as u64),
            // JFFS2 directories report size 0 — a third sizing convention
            // next to ext (block multiple) and VeriFS (entry based).
            FT_DIR => (FileType::Directory, 0),
            FT_SYMLINK => (FileType::Symlink, info.content.len() as u64),
            _ => return Err(Errno::EIO),
        };
        Ok(FileStat {
            ino: Ino(ino as u64),
            ftype,
            mode: FileMode::new(info.mode),
            nlink,
            uid: info.uid,
            gid: info.gid,
            size,
            blocks: (info.content.len() as u64).div_ceil(512),
            atime: info.atime,
            mtime: info.mtime,
            ctime: info.ctime,
        })
    }

    fn getdents(&mut self, p: &str) -> VfsResult<Vec<DirEntry>> {
        let ino = self.resolve(p)?;
        if self.info(ino)?.ftype != FT_DIR {
            return Err(Errno::ENOTDIR);
        }
        let now = self.now()?;
        let entries = self.children(ino);
        let m = self.m()?;
        m.inodes.get_mut(&ino).expect("resolved").atime = now;
        entries
            .into_iter()
            .map(|(name, e_ino, ftype)| {
                let ftype = match ftype {
                    FT_REG => FileType::Regular,
                    FT_DIR => FileType::Directory,
                    FT_SYMLINK => FileType::Symlink,
                    _ => return Err(Errno::EIO),
                };
                Ok(DirEntry {
                    name,
                    ino: Ino(e_ino as u64),
                    ftype,
                })
            })
            .collect()
    }

    fn chmod(&mut self, p: &str, mode: FileMode) -> VfsResult<()> {
        let ino = self.resolve(p)?;
        let now = self.now()?;
        {
            let m = self.m()?;
            let info = m.inodes.get_mut(&ino).expect("resolved");
            info.mode = mode.bits();
            info.ctime = now;
        }
        self.flush_inode(ino, false)
    }

    fn chown(&mut self, p: &str, uid: u32, gid: u32) -> VfsResult<()> {
        let ino = self.resolve(p)?;
        let now = self.now()?;
        {
            let m = self.m()?;
            let info = m.inodes.get_mut(&ino).expect("resolved");
            info.uid = uid;
            info.gid = gid;
            info.ctime = now;
        }
        self.flush_inode(ino, false)
    }

    fn utimens(&mut self, p: &str, atime: u64, mtime: u64) -> VfsResult<()> {
        let ino = self.resolve(p)?;
        let now = self.now()?;
        {
            let m = self.m()?;
            let info = m.inodes.get_mut(&ino).expect("resolved");
            info.atime = atime;
            info.mtime = mtime;
            info.ctime = now;
        }
        self.flush_inode(ino, false)
    }

    fn rename(&mut self, src: &str, dst: &str) -> VfsResult<()> {
        path::validate(src)?;
        path::validate(dst)?;
        if src == dst {
            self.resolve(src)?;
            return Ok(());
        }
        if path::is_same_or_descendant(src, dst) {
            return Err(Errno::EINVAL);
        }
        let (sparent, sname) = self.resolve_parent(src)?;
        let (src_ino, src_ftype) = self.lookup(sparent, sname)?.ok_or(Errno::ENOENT)?;
        let (dparent, dname) = self.resolve_parent(dst)?;
        let src_is_dir = src_ftype == FT_DIR;
        if let Some((dst_ino, dst_ftype)) = self.lookup(dparent, dname)? {
            if dst_ino == src_ino {
                return Ok(());
            }
            let dst_is_dir = dst_ftype == FT_DIR;
            match (src_is_dir, dst_is_dir) {
                (true, false) => return Err(Errno::ENOTDIR),
                (false, true) => return Err(Errno::EISDIR),
                (true, true) if !self.children(dst_ino).is_empty() => return Err(Errno::ENOTEMPTY),
                _ => {}
            }
            // Target replacement happens implicitly: the new dirent wins.
            self.write_dirent(dparent, dname, src_ino, src_ftype)?;
            self.write_dirent(sparent, sname, 0, src_ftype)?;
            self.maybe_drop_inode(dst_ino)?;
        } else {
            self.write_dirent(dparent, dname, src_ino, src_ftype)?;
            self.write_dirent(sparent, sname, 0, src_ftype)?;
        }
        Ok(())
    }

    fn link(&mut self, existing: &str, new: &str) -> VfsResult<()> {
        let src_ino = self.resolve(existing)?;
        let ftype = self.info(src_ino)?.ftype;
        if ftype == FT_DIR {
            return Err(Errno::EPERM);
        }
        if self.nlink_of(src_ino) >= MAX_NLINK {
            return Err(Errno::EMLINK);
        }
        let (parent, name) = self.resolve_parent(new)?;
        if self.lookup(parent, name)?.is_some() {
            return Err(Errno::EEXIST);
        }
        self.write_dirent(parent, name, src_ino, ftype)
    }

    fn symlink(&mut self, target: &str, linkpath: &str) -> VfsResult<()> {
        if target.is_empty() || target.len() > path::PATH_MAX {
            return Err(Errno::EINVAL);
        }
        let (parent, name) = self.resolve_parent(linkpath)?;
        if self.lookup(parent, name)?.is_some() {
            return Err(Errno::EEXIST);
        }
        let now = self.now()?;
        let ino = self.alloc_ino()?;
        let version = self.alloc_version()?;
        let node = Node::Inode {
            ino,
            version,
            ftype: FT_SYMLINK,
            mode: 0o777,
            uid: 0,
            gid: 0,
            atime: now,
            mtime: now,
            ctime: now,
            isize: target.len() as u64,
            offset: 0,
            rewrite: true,
            data: Some(target.as_bytes().to_vec()),
        };
        let loc = self.append_node(&node)?;
        self.m()?.inodes.insert(
            ino,
            InodeInfo {
                ftype: FT_SYMLINK,
                mode: 0o777,
                uid: 0,
                gid: 0,
                atime: now,
                mtime: now,
                ctime: now,
                content: Arc::new(target.as_bytes().to_vec()),
                meta_loc: loc,
                data_locs: vec![loc],
            },
        );
        self.write_dirent(parent, name, ino, FT_SYMLINK)
    }

    fn readlink(&mut self, p: &str) -> VfsResult<String> {
        let ino = self.resolve(p)?;
        let info = self.info(ino)?;
        if info.ftype != FT_SYMLINK {
            return Err(Errno::EINVAL);
        }
        String::from_utf8(info.content.to_vec()).map_err(|_| Errno::EIO)
    }

    fn access(&mut self, p: &str, mode: AccessMode) -> VfsResult<()> {
        let ino = self.resolve(p)?;
        let bits = FileMode::new(self.info(ino)?.mode);
        if (mode.read && !bits.owner_read())
            || (mode.write && !bits.owner_write())
            || (mode.exec && !bits.owner_exec())
        {
            return Err(Errno::EACCES);
        }
        Ok(())
    }

    fn setxattr(&mut self, p: &str, name: &str, value: &[u8], flags: XattrFlags) -> VfsResult<()> {
        if name.is_empty() || name.len() > 255 || name.contains('\0') {
            return Err(Errno::EINVAL);
        }
        let ino = self.resolve(p)?;
        let exists = {
            let m = self.m()?;
            m.xattrs
                .get(&(ino, name.to_string()))
                .map(|x| !x.delete)
                .unwrap_or(false)
        };
        match flags {
            XattrFlags::Create if exists => return Err(Errno::EEXIST),
            XattrFlags::Replace if !exists => return Err(Errno::ENODATA),
            _ => {}
        }
        let version = self.alloc_version()?;
        let node = Node::Xattr {
            ino,
            version,
            delete: false,
            name: name.to_string(),
            value: value.to_vec(),
        };
        let loc = self.append_node(&node)?;
        let m = self.m()?;
        if let Some(old) = m.xattrs.insert(
            (ino, name.to_string()),
            XattrInfo {
                value: value.to_vec(),
                delete: false,
                loc,
            },
        ) {
            self.kill(old.loc)?;
        }
        Ok(())
    }

    fn getxattr(&mut self, p: &str, name: &str) -> VfsResult<Vec<u8>> {
        let ino = self.resolve(p)?;
        let m = self.m()?;
        match m.xattrs.get(&(ino, name.to_string())) {
            Some(x) if !x.delete => Ok(x.value.clone()),
            _ => Err(Errno::ENODATA),
        }
    }

    fn listxattr(&mut self, p: &str) -> VfsResult<Vec<String>> {
        let ino = self.resolve(p)?;
        let m = self.m()?;
        let mut names: Vec<String> = m
            .xattrs
            .iter()
            .filter(|((i, _), x)| *i == ino && !x.delete)
            .map(|((_, n), _)| n.clone())
            .collect();
        names.sort();
        Ok(names)
    }

    fn removexattr(&mut self, p: &str, name: &str) -> VfsResult<()> {
        let ino = self.resolve(p)?;
        let exists = {
            let m = self.m()?;
            m.xattrs
                .get(&(ino, name.to_string()))
                .map(|x| !x.delete)
                .unwrap_or(false)
        };
        if !exists {
            return Err(Errno::ENODATA);
        }
        let version = self.alloc_version()?;
        let node = Node::Xattr {
            ino,
            version,
            delete: true,
            name: name.to_string(),
            value: Vec::new(),
        };
        let loc = self.append_node(&node)?;
        let m = self.m()?;
        if let Some(old) = m.xattrs.insert(
            (ino, name.to_string()),
            XattrInfo {
                value: Vec::new(),
                delete: true,
                loc,
            },
        ) {
            self.kill(old.loc)?;
        }
        Ok(())
    }

    fn supports_fsck(&self) -> bool {
        true
    }

    fn fsck(&mut self) -> VfsResult<RepairReport> {
        let was_mounted = self.m.is_some();
        self.m = None;
        self.dev.set_fault_phase(FaultPhase::Repair);
        let result = self.repair();
        self.dev.set_fault_phase(FaultPhase::Normal);
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                // A failed repair may abort with a partially scanned index
                // installed; keeping it would make the volume look mounted
                // and wedge every later mount with EBUSY.
                self.m = None;
                return Err(e);
            }
        };
        // `repair` leaves the freshly scanned index installed; keep it only
        // if the caller had the volume mounted.
        if !was_mounted {
            self.m = None;
        }
        Ok(report)
    }
}

impl DeviceBacked for Jffs2Fs {
    fn snapshot_device(&mut self) -> VfsResult<blockdev::DeviceSnapshot> {
        self.dev.snapshot().map_err(|_| Errno::EIO)
    }

    fn restore_device(&mut self, snapshot: &blockdev::DeviceSnapshot) -> VfsResult<()> {
        self.dev.restore(snapshot).map_err(|_| Errno::EIO)
    }

    fn device_size_bytes(&self) -> u64 {
        self.dev.mtd().size_bytes()
    }

    fn crash_reboot(&mut self) -> VfsResult<()> {
        // Power fails: the in-core image is lost, the flash keeps whatever
        // nodes were programmed (log writes are synchronous), and the next
        // mount's full-device scan rebuilds the file system from them.
        self.m = None;
        self.dev.power_cut().map_err(|_| Errno::EIO)?;
        self.mount()
    }
}

#[cfg(test)]
mod scan_memo_tests;

#[cfg(test)]
mod tests {
    use super::*;

    fn jffs2() -> Jffs2Fs {
        let mut fs = crate::jffs2_on_mtdram(16 * 1024, 16).unwrap();
        fs.mount().unwrap();
        fs
    }

    fn write_file(fs: &mut Jffs2Fs, p: &str, data: &[u8]) {
        let fd = fs.create(p, FileMode::REG_DEFAULT).unwrap();
        fs.write(fd, data).unwrap();
        fs.close(fd).unwrap();
    }

    fn read_file(fs: &mut Jffs2Fs, p: &str) -> Vec<u8> {
        let fd = fs
            .open(p, OpenFlags::read_only(), FileMode::REG_DEFAULT)
            .unwrap();
        let size = fs.stat(p).unwrap().size as usize;
        let mut buf = vec![0; size + 8];
        let n = fs.read(fd, &mut buf).unwrap();
        fs.close(fd).unwrap();
        buf.truncate(n);
        buf
    }

    #[test]
    fn roundtrip_and_rescan() {
        let mut fs = jffs2();
        write_file(&mut fs, "/f", b"flash data");
        fs.mkdir("/d", FileMode::DIR_DEFAULT).unwrap();
        write_file(&mut fs, "/d/g", &[5u8; 2000]);
        fs.unmount().unwrap();
        fs.mount().unwrap(); // full rescan
        assert_eq!(read_file(&mut fs, "/f"), b"flash data");
        assert_eq!(read_file(&mut fs, "/d/g"), vec![5u8; 2000]);
        assert_eq!(fs.stat("/d").unwrap().ftype, FileType::Directory);
    }

    #[test]
    fn deletion_markers_survive_rescan() {
        let mut fs = jffs2();
        write_file(&mut fs, "/gone", b"data");
        fs.unlink("/gone").unwrap();
        assert_eq!(fs.stat("/gone"), Err(Errno::ENOENT));
        fs.unmount().unwrap();
        fs.mount().unwrap();
        // The deletion dirent must win over the older positive dirent.
        assert_eq!(fs.stat("/gone"), Err(Errno::ENOENT));
        // And the name is reusable.
        write_file(&mut fs, "/gone", b"new");
        assert_eq!(read_file(&mut fs, "/gone"), b"new");
    }

    #[test]
    fn versions_pick_latest_content() {
        let mut fs = jffs2();
        write_file(&mut fs, "/v", b"one");
        let fd = fs
            .open("/v", OpenFlags::write_only(), FileMode::REG_DEFAULT)
            .unwrap();
        fs.write(fd, b"two").unwrap();
        fs.close(fd).unwrap();
        fs.chmod("/v", FileMode::new(0o600)).unwrap(); // metadata-only node
        fs.unmount().unwrap();
        fs.mount().unwrap();
        assert_eq!(read_file(&mut fs, "/v"), b"two");
        assert_eq!(fs.stat("/v").unwrap().mode, FileMode::new(0o600));
    }

    #[test]
    fn gc_reclaims_and_wears_flash() {
        let mut fs = jffs2();
        // Overwrite one file many times: forces GC across erase blocks.
        for round in 0..200 {
            let fd = fs
                .open(
                    "/churn",
                    OpenFlags::write_only().with_create().with_trunc(),
                    FileMode::REG_DEFAULT,
                )
                .unwrap();
            fs.write(fd, &vec![round as u8; 1500]).unwrap();
            fs.close(fd).unwrap();
        }
        assert_eq!(read_file(&mut fs, "/churn"), vec![199u8; 1500]);
        let wear: u64 = fs.erase_counts().iter().sum();
        assert!(wear > 10, "GC must have erased blocks (wear {wear})");
        // The index survives a rescan after all that churn.
        fs.unmount().unwrap();
        fs.mount().unwrap();
        assert_eq!(read_file(&mut fs, "/churn"), vec![199u8; 1500]);
    }

    #[test]
    fn enospc_when_log_is_full() {
        let mut fs = jffs2();
        let mut made = 0;
        loop {
            let fd = match fs.create(&format!("/f{made}"), FileMode::REG_DEFAULT) {
                Ok(fd) => fd,
                Err(Errno::ENOSPC) => break,
                Err(e) => panic!("unexpected {e}"),
            };
            match fs.write(fd, &[9u8; 4000]) {
                Ok(_) => {}
                Err(Errno::ENOSPC) => {
                    fs.close(fd).unwrap();
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
            fs.close(fd).unwrap();
            made += 1;
            assert!(made < 200, "flash must fill up eventually");
        }
        assert!(made > 5, "should fit a reasonable amount first");
        // Deleting releases space (after GC) and new writes succeed.
        for i in 0..made {
            fs.unlink(&format!("/f{i}")).unwrap();
        }
        write_file(&mut fs, "/fresh", &[1u8; 4000]);
        assert_eq!(read_file(&mut fs, "/fresh"), vec![1u8; 4000]);
    }

    #[test]
    fn rename_and_links() {
        let mut fs = jffs2();
        write_file(&mut fs, "/a", b"A");
        fs.rename("/a", "/b").unwrap();
        assert_eq!(fs.stat("/a"), Err(Errno::ENOENT));
        fs.link("/b", "/h").unwrap();
        assert_eq!(fs.stat("/h").unwrap().nlink, 2);
        fs.unlink("/b").unwrap();
        assert_eq!(read_file(&mut fs, "/h"), b"A");
        assert_eq!(fs.stat("/h").unwrap().nlink, 1);
        fs.symlink("/h", "/s").unwrap();
        assert_eq!(fs.readlink("/s").unwrap(), "/h");
        fs.unmount().unwrap();
        fs.mount().unwrap();
        assert_eq!(read_file(&mut fs, "/h"), b"A");
        assert_eq!(fs.readlink("/s").unwrap(), "/h");
    }

    #[test]
    fn xattrs_roundtrip_flash() {
        let mut fs = jffs2();
        write_file(&mut fs, "/f", b"");
        fs.setxattr("/f", "user.k", b"v1", XattrFlags::Any).unwrap();
        fs.setxattr("/f", "user.k", b"v2", XattrFlags::Any).unwrap();
        fs.unmount().unwrap();
        fs.mount().unwrap();
        assert_eq!(fs.getxattr("/f", "user.k").unwrap(), b"v2");
        fs.removexattr("/f", "user.k").unwrap();
        fs.unmount().unwrap();
        fs.mount().unwrap();
        assert_eq!(fs.getxattr("/f", "user.k"), Err(Errno::ENODATA));
    }

    #[test]
    fn dir_sizes_report_zero() {
        let mut fs = jffs2();
        fs.mkdir("/d", FileMode::DIR_DEFAULT).unwrap();
        write_file(&mut fs, "/d/child", b"x");
        assert_eq!(fs.stat("/d").unwrap().size, 0);
    }

    #[test]
    fn stale_index_after_external_restore() {
        // §3.2 for the MTD case: restoring flash under a mounted JFFS2
        // leaves the scan-built index describing a discarded world.
        let mut fs = jffs2();
        let snap = fs.snapshot_device().unwrap();
        write_file(&mut fs, "/after", b"x");
        fs.restore_device(&snap).unwrap();
        assert!(fs.stat("/after").is_ok(), "stale index still sees the file");
        fs.unmount().unwrap();
        fs.mount().unwrap(); // rescan of the restored flash
        assert_eq!(fs.stat("/after"), Err(Errno::ENOENT));
    }

    #[test]
    fn timing_charges_clock() {
        let clock = Clock::new();
        let mtd = MtdDevice::new(16 * 1024, 16).unwrap();
        let cfg = Jffs2Config {
            clock: Some(clock.clone()),
            ..Jffs2Config::default()
        };
        let mut fs = Jffs2Fs::format(mtd, cfg).unwrap();
        fs.mount().unwrap();
        let after_mount = clock.now_ns();
        assert!(after_mount > 0, "mount scan reads the whole flash");
        write_file(&mut fs, "/f", &[0u8; 2048]);
        assert!(clock.now_ns() > after_mount, "programs charge time");
    }

    #[test]
    fn truncate_both_directions() {
        let mut fs = jffs2();
        write_file(&mut fs, "/t", &[7u8; 100]);
        fs.truncate("/t", 10).unwrap();
        assert_eq!(read_file(&mut fs, "/t"), vec![7u8; 10]);
        fs.truncate("/t", 50).unwrap();
        let c = read_file(&mut fs, "/t");
        assert_eq!(&c[..10], &[7u8; 10][..]);
        assert!(c[10..].iter().all(|&b| b == 0));
    }

    #[test]
    fn open_trunc_create_flags() {
        let mut fs = jffs2();
        let fd = fs
            .open(
                "/n",
                OpenFlags::read_write().with_create(),
                FileMode::REG_DEFAULT,
            )
            .unwrap();
        fs.write(fd, b"hello").unwrap();
        fs.close(fd).unwrap();
        assert_eq!(
            fs.open(
                "/n",
                OpenFlags::read_only().with_create().with_excl(),
                FileMode::REG_DEFAULT
            ),
            Err(Errno::EEXIST)
        );
        let fd = fs
            .open(
                "/n",
                OpenFlags::write_only().with_trunc(),
                FileMode::REG_DEFAULT,
            )
            .unwrap();
        fs.close(fd).unwrap();
        assert_eq!(fs.stat("/n").unwrap().size, 0);
    }

    #[test]
    fn rmdir_semantics() {
        let mut fs = jffs2();
        fs.mkdir("/d", FileMode::DIR_DEFAULT).unwrap();
        write_file(&mut fs, "/d/f", b"");
        assert_eq!(fs.rmdir("/d"), Err(Errno::ENOTEMPTY));
        fs.unlink("/d/f").unwrap();
        fs.rmdir("/d").unwrap();
        assert_eq!(fs.stat("/d"), Err(Errno::ENOENT));
        assert_eq!(fs.rmdir("/"), Err(Errno::EBUSY));
    }

    /// First flash address in `blk` past the last decodable node.
    pub(super) fn log_end(fs: &Jffs2Fs, blk: u32) -> u64 {
        let ebs = fs.dev.mtd().erase_block_size() as u64;
        let mut buf = vec![0u8; ebs as usize];
        fs.dev.mtd().read(blk as u64 * ebs, &mut buf).unwrap();
        let mut off = 0usize;
        while let Ok(Some((_, len))) = Node::decode(&buf[off..]) {
            off += len;
        }
        blk as u64 * ebs + off as u64
    }

    /// A structurally plausible node header whose CRC cannot match.
    fn corrupt_node_bytes() -> Vec<u8> {
        let mut bytes = vec![0x85u8, 0x19, crate::log::NT_DIRENT, 16, 0, 0, 0];
        bytes.resize(16, 0); // CRC field zero: mismatches the FNV of the body
        bytes
    }

    #[test]
    fn failed_fsck_leaves_the_volume_mountable() {
        // Regression: a repair that aborted mid-way (here: every erase
        // block quarantined, so the scrub pass has no free space and dies
        // with ENOSPC) used to leave the partially scanned index installed,
        // wedging every later mount with EBUSY.
        let mut fs = crate::jffs2_on_mtdram(16 * 1024, 4).unwrap();
        fs.mount().unwrap();
        write_file(&mut fs, "/f", b"keep me");
        fs.unmount().unwrap();
        for blk in 0..4 {
            let end = log_end(&fs, blk);
            fs.dev
                .mtd_mut()
                .program(end, &corrupt_node_bytes())
                .unwrap();
        }
        assert_eq!(fs.fsck(), Err(Errno::ENOSPC), "no room to scrub");
        fs.mount()
            .expect("a failed repair must not wedge the volume");
        assert_eq!(read_file(&mut fs, "/f"), b"keep me");
    }

    #[test]
    fn mount_survives_a_corrupt_node() {
        // Regression: the scanner used to abort the whole mount with EIO on
        // the first undecodable node, bricking the volume. It must instead
        // quarantine the broken region and keep everything before it.
        let mut fs = jffs2();
        write_file(&mut fs, "/f", b"keep me");
        fs.unmount().unwrap();
        let end = log_end(&fs, 0);
        fs.dev
            .mtd_mut()
            .program(end, &corrupt_node_bytes())
            .unwrap();
        fs.mount().expect("mount must tolerate a corrupt node");
        assert_eq!(read_file(&mut fs, "/f"), b"keep me");
    }

    #[test]
    fn torn_gc_copy_never_destroys_the_source() {
        use blockdev::{FaultKind, FaultPlan};
        // Regression: flash acks torn programs, so GC used to erase the
        // victim block after a copy that never fully reached the new
        // location — silently losing the only good copy of a live node.
        // The copy must be read back and verified before the erase.
        let mut fs = jffs2();
        write_file(&mut fs, "/f", b"survives torn gc");
        fs.unmount().unwrap();
        // A corrupt tail in block 0 forces the repair scrub to GC the
        // block holding /f's live nodes.
        let end = log_end(&fs, 0);
        fs.dev
            .mtd_mut()
            .program(end, &corrupt_node_bytes())
            .unwrap();
        // Tear the very first repair program: the copy of a live node.
        fs.dev.mtd_mut().set_fault_plan(Some(
            FaultPlan::eio(FaultKind::Write, 0, 1)
                .with_torn_bytes(3)
                .during_repair(),
        ));
        assert_eq!(
            fs.fsck(),
            Err(Errno::EIO),
            "the torn copy must be detected, not silently trusted"
        );
        fs.dev.mtd_mut().set_fault_plan(None);
        // The victim was left intact: a clean re-run converges and the
        // file is still readable.
        fs.fsck().expect("clean re-run repairs the volume");
        fs.mount().unwrap();
        assert_eq!(read_file(&mut fs, "/f"), b"survives torn gc");
    }

    #[test]
    fn orphan_dirent_is_invisible_after_mount() {
        // Regression: a dirent whose target inode node never reached flash
        // (crash between the two appends) used to surface as a directory
        // entry whose stat failed with EIO. The scanner must drop it.
        let mut fs = jffs2();
        write_file(&mut fs, "/real", b"x");
        fs.unmount().unwrap();
        let ghost = Node::Dirent {
            parent: 1,
            version: 1_000,
            ino: 99, // no inode node with this number exists
            ftype: FT_REG,
            name: "ghost".into(),
        };
        let end = log_end(&fs, 0);
        fs.dev.mtd_mut().program(end, &ghost.encode()).unwrap();
        fs.mount().unwrap();
        assert_eq!(fs.stat("/ghost"), Err(Errno::ENOENT));
        let names: Vec<String> = fs
            .getdents("/")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert!(!names.contains(&"ghost".to_string()), "{names:?}");
        assert_eq!(read_file(&mut fs, "/real"), b"x");
    }

    #[test]
    fn fsck_scrubs_corruption_and_is_idempotent() {
        let mut fs = jffs2();
        write_file(&mut fs, "/f", b"payload");
        fs.unmount().unwrap();
        let end = log_end(&fs, 0);
        fs.dev
            .mtd_mut()
            .program(end, &corrupt_node_bytes())
            .unwrap();
        let ghost = Node::Dirent {
            parent: 1,
            version: 1_000,
            ino: 77,
            ftype: FT_REG,
            name: "ghost".into(),
        };
        // The ghost goes in a different erase block so both scrub paths run.
        fs.dev
            .mtd_mut()
            .program(16 * 1024, &ghost.encode())
            .unwrap();
        let report = fs.fsck().unwrap();
        assert!(report.repairs_made >= 2, "{:?}", report.fixes);
        assert!(!fs.is_mounted(), "fsck on an unmounted fs leaves it so");
        // Idempotence: a second run finds a clean log.
        let again = fs.fsck().unwrap();
        assert!(again.is_clean(), "{:?}", again.fixes);
        fs.mount().unwrap();
        assert_eq!(read_file(&mut fs, "/f"), b"payload");
        assert_eq!(fs.stat("/ghost"), Err(Errno::ENOENT));
    }

    #[test]
    fn fsck_recreates_a_lost_root() {
        let mut fs = jffs2();
        write_file(&mut fs, "/f", b"doomed");
        fs.unmount().unwrap();
        // Zero the low byte of the root inode node's version (body offset 4,
        // flash address 15): its CRC fails and the scanner quarantines erase
        // block 0 from offset zero — taking the root (and in this small
        // volume, everything else) with it.
        fs.dev.mtd_mut().program(15, &[0x00]).unwrap();
        assert_eq!(fs.mount(), Err(Errno::EIO), "no root, mount refuses");
        let report = fs.fsck().unwrap();
        assert!(
            report.fixes.iter().any(|f| f.contains("root inode")),
            "{:?}",
            report.fixes
        );
        fs.mount().unwrap();
        assert!(fs.getdents("/").unwrap().is_empty());
        assert!(fs.fsck().unwrap().is_clean());
    }

    #[test]
    fn fsck_rejects_erased_flash() {
        let mtd = MtdDevice::new(16 * 1024, 16).unwrap();
        let mut fs = Jffs2Fs::open_device(mtd, Jffs2Config::default()).unwrap();
        assert_eq!(fs.fsck(), Err(Errno::EIO));
    }

    #[test]
    fn fsck_while_mounted_keeps_the_volume_usable() {
        let mut fs = jffs2();
        write_file(&mut fs, "/f", b"live");
        let report = fs.fsck().unwrap();
        assert!(report.is_clean(), "{:?}", report.fixes);
        assert!(fs.is_mounted());
        assert_eq!(read_file(&mut fs, "/f"), b"live");
    }
}

#[cfg(test)]
mod frag_tests {
    use super::*;

    #[test]
    fn large_files_span_fragment_nodes() {
        // 16 KiB erase blocks → frag_max ≈ 8 KiB: a 100 KiB file needs many
        // fragment nodes across several erase blocks.
        let mut fs = crate::jffs2_on_mtdram(16 * 1024, 32).unwrap();
        fs.mount().unwrap();
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 241) as u8).collect();
        let fd = fs.create("/big", FileMode::REG_DEFAULT).unwrap();
        fs.write(fd, &data).unwrap();
        fs.close(fd).unwrap();
        // Rescan reassembles the fragments.
        fs.unmount().unwrap();
        fs.mount().unwrap();
        let fd = fs
            .open("/big", OpenFlags::read_only(), FileMode::REG_DEFAULT)
            .unwrap();
        let mut buf = vec![0u8; data.len() + 8];
        let n = fs.read(fd, &mut buf).unwrap();
        fs.close(fd).unwrap();
        buf.truncate(n);
        assert_eq!(buf, data);
    }

    #[test]
    fn fragmented_file_survives_gc_churn() {
        let mut fs = crate::jffs2_on_mtdram(16 * 1024, 16).unwrap();
        fs.mount().unwrap();
        // A stable fragmented file...
        let keep: Vec<u8> = (0..30_000u32).map(|i| (i % 127) as u8).collect();
        let fd = fs.create("/keep", FileMode::REG_DEFAULT).unwrap();
        fs.write(fd, &keep).unwrap();
        fs.close(fd).unwrap();
        // ...while churn forces GC to move its fragments around.
        for round in 0..60 {
            let fd = fs
                .open(
                    "/churn",
                    OpenFlags::write_only().with_create().with_trunc(),
                    FileMode::REG_DEFAULT,
                )
                .unwrap();
            fs.write(fd, &vec![round as u8; 2000]).unwrap();
            fs.close(fd).unwrap();
        }
        let fd = fs
            .open("/keep", OpenFlags::read_only(), FileMode::REG_DEFAULT)
            .unwrap();
        let mut buf = vec![0u8; keep.len()];
        fs.read(fd, &mut buf).unwrap();
        fs.close(fd).unwrap();
        assert_eq!(buf, keep, "GC must relocate fragments losslessly");
        fs.unmount().unwrap();
        fs.mount().unwrap();
        assert_eq!(fs.stat("/keep").unwrap().size, keep.len() as u64);
    }
}
