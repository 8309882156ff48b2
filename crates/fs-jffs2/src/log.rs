//! On-flash node formats and log scanning.
//!
//! JFFS2 stores everything as *nodes* appended to a log across erase blocks.
//! Mount scans the whole flash, keeping the highest-version node per object.
//! We keep three node types:
//!
//! * **inode nodes** — metadata plus (optionally) a content fragment.
//!   Rewrites carry `rewrite = true` on their first fragment (superseding
//!   all earlier fragments); incremental writes append fragments, as real
//!   JFFS2 does.
//! * **dirent nodes** — `(parent, name) -> ino`, with `ino == 0` as the
//!   deletion marker.
//! * **xattr nodes** — `(ino, name) -> value`, with a delete flag.

use vfs::{Errno, VfsResult};

/// JFFS2's historic magic (1985).
pub const NODE_MAGIC: u16 = 0x1985;

/// Size of the common node header:
/// `magic u16 | type u8 | total_len u32 | crc u32`.
pub const HEADER_LEN: usize = 11;

/// FNV-1a (32-bit) over a node's post-header bytes. Real JFFS2 carries
/// separate header/data CRC32s; one checksum over the whole body gives the
/// same power here (detecting torn programs and bit rot) at a fraction of
/// the format complexity.
pub fn node_crc(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for &byte in bytes {
        hash ^= u32::from(byte);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// A node's common header, checked for framing (magic, type-independent
/// length bounds) but not yet for its CRC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeHeader {
    /// Node type tag.
    pub ntype: u8,
    /// Total (padded) on-flash length, header included.
    pub total: usize,
    crc: u32,
}

impl NodeHeader {
    /// Frames the node at the start of `buf`. Returns `Ok(None)` when `buf`
    /// starts with erased (0xFF) or zeroed flash: the end of the log.
    ///
    /// # Errors
    ///
    /// `EIO` for a wrong magic or a length that is short, unaligned or runs
    /// past `buf`.
    pub fn read(buf: &[u8]) -> VfsResult<Option<NodeHeader>> {
        if buf.len() < HEADER_LEN {
            return Ok(None);
        }
        let magic = u16::from_le_bytes([buf[0], buf[1]]);
        if magic == 0xFFFF || magic == 0 {
            return Ok(None);
        }
        if magic != NODE_MAGIC {
            return Err(Errno::EIO);
        }
        let total = u32::from_le_bytes([buf[3], buf[4], buf[5], buf[6]]) as usize;
        if total < HEADER_LEN || total > buf.len() || !total.is_multiple_of(4) {
            return Err(Errno::EIO);
        }
        Ok(Some(NodeHeader {
            ntype: buf[2],
            total,
            crc: u32::from_le_bytes([buf[7], buf[8], buf[9], buf[10]]),
        }))
    }

    /// Checks the node's CRC over its post-header bytes in `buf` (the same
    /// buffer the header was read from).
    ///
    /// # Errors
    ///
    /// `EIO` on a mismatch (torn program, bit rot).
    pub fn verify(&self, buf: &[u8]) -> VfsResult<()> {
        if self.crc == node_crc(&buf[HEADER_LEN..self.total]) {
            Ok(())
        } else {
            Err(Errno::EIO)
        }
    }
}

/// Node type tags.
pub const NT_INODE: u8 = 1;
/// Dirent node tag.
pub const NT_DIRENT: u8 = 2;
/// Xattr node tag.
pub const NT_XATTR: u8 = 3;

/// File-type tags inside nodes.
pub const FT_REG: u8 = 1;
/// Directory tag.
pub const FT_DIR: u8 = 2;
/// Symlink tag.
pub const FT_SYMLINK: u8 = 3;

/// A decoded node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// Inode metadata (+ optional whole content).
    Inode {
        /// Inode number.
        ino: u32,
        /// Version (higher wins).
        version: u64,
        /// File type tag.
        ftype: u8,
        /// Permission bits.
        mode: u16,
        /// Owner uid.
        uid: u32,
        /// Owner gid.
        gid: u32,
        /// Access time.
        atime: u64,
        /// Modification time.
        mtime: u64,
        /// Change time.
        ctime: u64,
        /// File size after this node.
        isize: u64,
        /// Fragment offset within the file (0 for metadata-only nodes and
        /// for the first fragment of a rewrite).
        offset: u64,
        /// Whether this node *begins a whole rewrite*: all earlier data
        /// fragments of the inode are superseded. Incremental writes append
        /// fragments with `rewrite == false`.
        rewrite: bool,
        /// Content fragment carried by this node, if any.
        data: Option<Vec<u8>>,
    },
    /// Directory entry (deletion marker when `ino == 0`).
    Dirent {
        /// Parent directory inode.
        parent: u32,
        /// Version (higher wins).
        version: u64,
        /// Target inode (0 = deletion).
        ino: u32,
        /// File type tag of the target.
        ftype: u8,
        /// Entry name.
        name: String,
    },
    /// Extended attribute (deletion when `delete` is set).
    Xattr {
        /// Owning inode.
        ino: u32,
        /// Version (higher wins).
        version: u64,
        /// Whether this node removes the attribute.
        delete: bool,
        /// Attribute name.
        name: String,
        /// Attribute value (empty when deleting).
        value: Vec<u8>,
    },
}

impl Node {
    /// Serializes the node, including the common header
    /// (`magic u16 | type u8 | total_len u32 | crc u32`, where the CRC
    /// covers everything after the header). The total length is aligned to
    /// 4 bytes (flash word alignment).
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        let ntype = match self {
            Node::Inode {
                ino,
                version,
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
            } => {
                body.extend_from_slice(&ino.to_le_bytes());
                body.extend_from_slice(&version.to_le_bytes());
                body.push(*ftype);
                body.extend_from_slice(&mode.to_le_bytes());
                body.extend_from_slice(&uid.to_le_bytes());
                body.extend_from_slice(&gid.to_le_bytes());
                body.extend_from_slice(&atime.to_le_bytes());
                body.extend_from_slice(&mtime.to_le_bytes());
                body.extend_from_slice(&ctime.to_le_bytes());
                body.extend_from_slice(&isize.to_le_bytes());
                body.extend_from_slice(&offset.to_le_bytes());
                body.push(u8::from(*rewrite));
                match data {
                    Some(d) => {
                        body.push(1);
                        body.extend_from_slice(&(d.len() as u32).to_le_bytes());
                        body.extend_from_slice(d);
                    }
                    None => body.push(0),
                }
                NT_INODE
            }
            Node::Dirent {
                parent,
                version,
                ino,
                ftype,
                name,
            } => {
                body.extend_from_slice(&parent.to_le_bytes());
                body.extend_from_slice(&version.to_le_bytes());
                body.extend_from_slice(&ino.to_le_bytes());
                body.push(*ftype);
                body.push(name.len() as u8);
                body.extend_from_slice(name.as_bytes());
                NT_DIRENT
            }
            Node::Xattr {
                ino,
                version,
                delete,
                name,
                value,
            } => {
                body.extend_from_slice(&ino.to_le_bytes());
                body.extend_from_slice(&version.to_le_bytes());
                body.push(u8::from(*delete));
                body.push(name.len() as u8);
                body.extend_from_slice(&(value.len() as u16).to_le_bytes());
                body.extend_from_slice(name.as_bytes());
                body.extend_from_slice(value);
                NT_XATTR
            }
        };
        let total = HEADER_LEN + body.len();
        let padded = total.div_ceil(4) * 4;
        let mut out = Vec::with_capacity(padded);
        out.extend_from_slice(&NODE_MAGIC.to_le_bytes());
        out.push(ntype);
        out.extend_from_slice(&(padded as u32).to_le_bytes());
        out.extend_from_slice(&[0u8; 4]); // CRC placeholder
        out.extend_from_slice(&body);
        out.resize(padded, 0);
        let crc = node_crc(&out[HEADER_LEN..]);
        out[7..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes one node from the start of `buf`, returning it and its total
    /// (padded) on-flash length. Returns `Ok(None)` when `buf` starts with
    /// erased flash (no node). This is [`NodeHeader::read`], then
    /// [`NodeHeader::verify`], then [`Node::parse`].
    ///
    /// # Errors
    ///
    /// `EIO` for structurally corrupt nodes, including CRC mismatches
    /// (torn programs, bit rot).
    pub fn decode(buf: &[u8]) -> VfsResult<Option<(Node, usize)>> {
        let Some(header) = NodeHeader::read(buf)? else {
            return Ok(None);
        };
        header.verify(buf)?;
        Ok(Some((Node::parse(&header, buf)?, header.total)))
    }

    /// Parses the body of the node framed by `header` at the start of `buf`,
    /// without checking its CRC. Only bytes that already passed
    /// [`NodeHeader::verify`] may be parsed this way.
    ///
    /// # Errors
    ///
    /// `EIO` for an unknown node type or a body too short for its fields.
    pub fn parse(header: &NodeHeader, buf: &[u8]) -> VfsResult<Node> {
        let b = &buf[HEADER_LEN..header.total];
        // The fixed fields of each node type (see `encode`).
        let fixed = match header.ntype {
            NT_INODE => 65,
            NT_DIRENT => 18,
            NT_XATTR => 16,
            _ => 0,
        };
        if b.len() < fixed {
            return Err(Errno::EIO);
        }
        let u16_at = |i: usize| u16::from_le_bytes([b[i], b[i + 1]]);
        let u32_at = |i: usize| u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
        let u64_at = |i: usize| {
            let mut x = [0u8; 8];
            x.copy_from_slice(&b[i..i + 8]);
            u64::from_le_bytes(x)
        };
        let node = match header.ntype {
            NT_INODE => {
                let ino = u32_at(0);
                let version = u64_at(4);
                let ftype = b[12];
                let mode = u16_at(13);
                let uid = u32_at(15);
                let gid = u32_at(19);
                let atime = u64_at(23);
                let mtime = u64_at(31);
                let ctime = u64_at(39);
                let isize = u64_at(47);
                let offset = u64_at(55);
                let rewrite = b[63] != 0;
                let has_data = b[64];
                let data = if has_data != 0 {
                    if b.len() < 69 {
                        return Err(Errno::EIO);
                    }
                    let dlen = u32_at(65) as usize;
                    if 69 + dlen > b.len() {
                        return Err(Errno::EIO);
                    }
                    Some(b[69..69 + dlen].to_vec())
                } else {
                    None
                };
                Node::Inode {
                    ino,
                    version,
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
                }
            }
            NT_DIRENT => {
                let parent = u32_at(0);
                let version = u64_at(4);
                let ino = u32_at(12);
                let ftype = b[16];
                let nlen = b[17] as usize;
                if 18 + nlen > b.len() {
                    return Err(Errno::EIO);
                }
                let name = std::str::from_utf8(&b[18..18 + nlen])
                    .map_err(|_| Errno::EIO)?
                    .to_string();
                Node::Dirent {
                    parent,
                    version,
                    ino,
                    ftype,
                    name,
                }
            }
            NT_XATTR => {
                let ino = u32_at(0);
                let version = u64_at(4);
                let delete = b[12] != 0;
                let nlen = b[13] as usize;
                let vlen = u16_at(14) as usize;
                if 16 + nlen + vlen > b.len() {
                    return Err(Errno::EIO);
                }
                let name = std::str::from_utf8(&b[16..16 + nlen])
                    .map_err(|_| Errno::EIO)?
                    .to_string();
                let value = b[16 + nlen..16 + nlen + vlen].to_vec();
                Node::Xattr {
                    ino,
                    version,
                    delete,
                    name,
                    value,
                }
            }
            _ => return Err(Errno::EIO),
        };
        Ok(node)
    }

    /// The node's version (used by scan to pick winners).
    pub fn version(&self) -> u64 {
        match self {
            Node::Inode { version, .. }
            | Node::Dirent { version, .. }
            | Node::Xattr { version, .. } => *version,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inode_node_roundtrip() {
        let n = Node::Inode {
            ino: 7,
            version: 42,
            ftype: FT_REG,
            mode: 0o644,
            uid: 1,
            gid: 2,
            atime: 10,
            mtime: 20,
            ctime: 30,
            isize: 5,
            offset: 0,
            rewrite: true,
            data: Some(b"hello".to_vec()),
        };
        let bytes = n.encode();
        assert_eq!(bytes.len() % 4, 0);
        let (decoded, len) = Node::decode(&bytes).unwrap().unwrap();
        assert_eq!(decoded, n);
        assert_eq!(len, bytes.len());
    }

    #[test]
    fn metadata_only_inode_node() {
        let n = Node::Inode {
            ino: 3,
            version: 1,
            ftype: FT_DIR,
            mode: 0o755,
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
        let bytes = n.encode();
        let (decoded, _) = Node::decode(&bytes).unwrap().unwrap();
        assert_eq!(decoded, n);
    }

    #[test]
    fn dirent_and_deletion_roundtrip() {
        for ino in [9u32, 0] {
            let n = Node::Dirent {
                parent: 1,
                version: 8,
                ino,
                ftype: FT_REG,
                name: "file.txt".into(),
            };
            let (decoded, _) = Node::decode(&n.encode()).unwrap().unwrap();
            assert_eq!(decoded, n);
        }
    }

    #[test]
    fn xattr_roundtrip() {
        let n = Node::Xattr {
            ino: 4,
            version: 3,
            delete: false,
            name: "user.color".into(),
            value: b"blue".to_vec(),
        };
        let (decoded, _) = Node::decode(&n.encode()).unwrap().unwrap();
        assert_eq!(decoded, n);
        let d = Node::Xattr {
            ino: 4,
            version: 4,
            delete: true,
            name: "user.color".into(),
            value: Vec::new(),
        };
        let (decoded, _) = Node::decode(&d.encode()).unwrap().unwrap();
        assert_eq!(decoded, d);
    }

    #[test]
    fn erased_flash_reads_as_no_node() {
        assert_eq!(Node::decode(&[0xFF; 64]).unwrap(), None);
        assert_eq!(Node::decode(&[0x00; 64]).unwrap(), None);
        assert_eq!(Node::decode(&[0xFF; 3]).unwrap(), None);
    }

    #[test]
    fn corrupt_nodes_are_eio() {
        let mut bytes = Node::Dirent {
            parent: 1,
            version: 1,
            ino: 2,
            ftype: FT_REG,
            name: "x".into(),
        }
        .encode();
        bytes[2] = 99; // unknown type
        assert_eq!(Node::decode(&bytes), Err(Errno::EIO));
        // Valid magic but absurd total length: corruption, not end-of-log.
        let mut header = vec![0x85u8, 0x19, NT_INODE, 0xFF, 0xFF, 0xFF, 0x7F];
        header.resize(16, 0);
        assert_eq!(Node::decode(&header), Err(Errno::EIO));
    }

    #[test]
    fn short_body_with_a_valid_crc_is_eio() {
        // A dirent needs 18 fixed body bytes; this one has 5, and a CRC
        // that matches them.
        let mut bytes = vec![0x85u8, 0x19, NT_DIRENT, 16, 0, 0, 0, 0, 0, 0, 0];
        bytes.resize(16, 0);
        let crc = node_crc(&bytes[HEADER_LEN..]);
        bytes[7..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
        let header = NodeHeader::read(&bytes).unwrap().unwrap();
        assert_eq!(header.verify(&bytes), Ok(()));
        assert_eq!(Node::parse(&header, &bytes), Err(Errno::EIO));
        assert_eq!(Node::decode(&bytes), Err(Errno::EIO));
    }

    #[test]
    fn parse_skips_the_crc_that_verify_checks() {
        let good = Node::Dirent {
            parent: 1,
            version: 1,
            ino: 2,
            ftype: FT_REG,
            name: "x".into(),
        };
        let mut bytes = good.encode();
        bytes[HEADER_LEN + 4] ^= 0x01; // version 1 -> 0: body rot
        let header = NodeHeader::read(&bytes).unwrap().unwrap();
        assert_eq!(header.verify(&bytes), Err(Errno::EIO));
        let parsed = Node::parse(&header, &bytes).unwrap();
        assert_eq!(parsed.version(), 0, "parse trusts its caller");
    }

    #[test]
    fn bit_rot_in_body_fails_the_crc() {
        let mut bytes = Node::Dirent {
            parent: 1,
            version: 1,
            ino: 2,
            ftype: FT_REG,
            name: "x".into(),
        }
        .encode();
        // Flip one bit past the header: the node parses structurally but the
        // checksum no longer matches.
        bytes[HEADER_LEN + 2] ^= 0x40;
        assert_eq!(Node::decode(&bytes), Err(Errno::EIO));
    }

    #[test]
    fn torn_program_tail_fails_the_crc() {
        let good = Node::Xattr {
            ino: 4,
            version: 9,
            delete: false,
            name: "user.k".into(),
            value: b"value-bytes".to_vec(),
        }
        .encode();
        // A program interrupted by power loss leaves the tail erased (0xFF)
        // while the already-programmed header claims the full length.
        let mut torn = good.clone();
        for byte in &mut torn[good.len() - 6..] {
            *byte = 0xFF;
        }
        assert_eq!(Node::decode(&torn), Err(Errno::EIO));
    }

    #[test]
    fn sequential_nodes_parse_back_to_back() {
        let a = Node::Dirent {
            parent: 1,
            version: 1,
            ino: 2,
            ftype: FT_DIR,
            name: "d".into(),
        };
        let b = Node::Inode {
            ino: 2,
            version: 2,
            ftype: FT_DIR,
            mode: 0o755,
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
        let mut log = a.encode();
        log.extend_from_slice(&b.encode());
        log.extend_from_slice(&[0xFF; 32]); // erased tail
        let (n1, l1) = Node::decode(&log).unwrap().unwrap();
        assert_eq!(n1, a);
        let (n2, l2) = Node::decode(&log[l1..]).unwrap().unwrap();
        assert_eq!(n2, b);
        assert_eq!(Node::decode(&log[l1 + l2..]).unwrap(), None);
    }
}
