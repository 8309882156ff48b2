//! Copy-on-write device images.
//!
//! A [`CowImage`] stores a device's bytes as fixed-size chunks behind
//! [`Arc`]s. Cloning an image is O(#chunks) reference bumps; writing to a
//! clone copies only the touched chunks (`Arc::make_mut`). Snapshots taken by
//! the devices in this crate are therefore cheap to capture and to hold: the
//! live device and every saved snapshot share the chunks neither side has
//! modified since the snapshot, which is what lets a deep DFS backtrack spine
//! fit in memory (the checker saves one snapshot per exploration level).

use std::sync::Arc;

/// A chunked, structurally shared byte image.
///
/// The last chunk may be shorter than `chunk_size` when the image length is
/// not a multiple of the chunk size.
///
/// # Examples
///
/// ```
/// use blockdev::CowImage;
///
/// let mut live = CowImage::new(8192, 4096, 0);
/// live.write(10, b"hello");
/// let snap = live.clone(); // O(#chunks) — shares both chunks
/// live.write(10, b"WORLD"); // copies only the first chunk
/// let mut buf = [0u8; 5];
/// snap.read(10, &mut buf);
/// assert_eq!(&buf, b"hello");
/// assert_eq!(snap.shared_bytes(), 4096, "untouched chunk still shared");
/// ```
#[derive(Debug, Clone)]
pub struct CowImage {
    chunk_size: usize,
    len: usize,
    chunks: Vec<Arc<Vec<u8>>>,
}

impl CowImage {
    /// Creates an image of `len` bytes filled with `fill`, chunked at
    /// `chunk_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero (callers pick the chunk size from the
    /// device geometry, which is validated first).
    pub fn new(len: usize, chunk_size: usize, fill: u8) -> Self {
        assert!(chunk_size > 0, "chunk size must be nonzero");
        let mut chunks = Vec::with_capacity(len.div_ceil(chunk_size));
        let mut remaining = len;
        while remaining > 0 {
            let n = remaining.min(chunk_size);
            chunks.push(Arc::new(vec![fill; n]));
            remaining -= n;
        }
        CowImage {
            chunk_size,
            len,
            chunks,
        }
    }

    /// Image length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the image is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The chunk granularity of copy-on-write sharing.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Reads `buf.len()` bytes starting at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the image (devices bound-check
    /// before calling).
    pub fn read(&self, offset: usize, buf: &mut [u8]) {
        let mut done = 0;
        for seg in self.segments(offset, buf.len()) {
            buf[done..done + seg.len()].copy_from_slice(seg);
            done += seg.len();
        }
    }

    /// Borrows `[offset, offset + len)` in place: one slice per chunk the
    /// range touches, in order. Nothing is copied.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the image.
    pub fn segments(&self, offset: usize, len: usize) -> impl Iterator<Item = &[u8]> {
        assert!(offset + len <= self.len, "cow read out of range");
        let (mut offset, end) = (offset, offset + len);
        std::iter::from_fn(move || {
            if offset >= end {
                return None;
            }
            let (ci, co) = (offset / self.chunk_size, offset % self.chunk_size);
            let chunk = &self.chunks[ci];
            let n = (chunk.len() - co).min(end - offset);
            offset += n;
            Some(&chunk[co..co + n])
        })
    }

    /// Borrows chunk `index` in place.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not a chunk of this image.
    pub fn chunk(&self, index: usize) -> &[u8] {
        &self.chunks[index]
    }

    /// Whether chunk `index` holds the same bytes here and in `other`: a
    /// pointer compare while the two images still share the chunk, a byte
    /// compare otherwise — the rule [`PartialEq`] applies to whole images.
    /// Images chunked differently, or too short to have chunk `index`, never
    /// compare equal here.
    pub fn chunk_eq(&self, index: usize, other: &CowImage) -> bool {
        if self.chunk_size != other.chunk_size {
            return false;
        }
        match (self.chunks.get(index), other.chunks.get(index)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b) || a == b,
            _ => false,
        }
    }

    /// Writes `data` at `offset`, copying only the touched chunks if they
    /// are shared with a snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the image.
    pub fn write(&mut self, mut offset: usize, data: &[u8]) {
        assert!(offset + data.len() <= self.len, "cow write out of range");
        let mut done = 0;
        while done < data.len() {
            let (ci, co) = (offset / self.chunk_size, offset % self.chunk_size);
            let chunk = Arc::make_mut(&mut self.chunks[ci]);
            let n = (chunk.len() - co).min(data.len() - done);
            chunk[co..co + n].copy_from_slice(&data[done..done + n]);
            done += n;
            offset += n;
        }
    }

    /// Fills `[offset, offset + len)` with `byte` (erase support).
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the image.
    pub fn fill_range(&mut self, mut offset: usize, len: usize, byte: u8) {
        assert!(offset + len <= self.len, "cow fill out of range");
        let mut done = 0;
        while done < len {
            let (ci, co) = (offset / self.chunk_size, offset % self.chunk_size);
            let chunk = Arc::make_mut(&mut self.chunks[ci]);
            let n = (chunk.len() - co).min(len - done);
            for b in &mut chunk[co..co + n] {
                *b = byte;
            }
            done += n;
            offset += n;
        }
    }

    /// Adopts `other`'s content. Same chunk size: O(#chunks) reference bumps
    /// (the restore path — the live image re-shares the snapshot's chunks).
    /// Different chunk size: a byte copy preserving this image's chunking.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ (devices geometry-check first).
    pub fn copy_from(&mut self, other: &CowImage) {
        assert_eq!(self.len, other.len, "cow image length mismatch");
        if self.chunk_size == other.chunk_size {
            self.chunks = other.chunks.clone();
        } else {
            self.write(0, &other.to_vec());
        }
    }

    /// Iterates the image's chunks as byte slices, in order.
    pub fn chunks(&self) -> impl Iterator<Item = &[u8]> {
        self.chunks.iter().map(|c| c.as_slice())
    }

    /// Reassembles an image from chunks previously produced by
    /// [`CowImage::chunks`] (e.g. reloaded from a disk spill tier). Returns
    /// `None` when the chunks do not tile an image of the given geometry:
    /// every chunk must be `chunk_size` bytes except a shorter final one.
    pub fn from_chunks(chunk_size: usize, chunks: Vec<Vec<u8>>) -> Option<Self> {
        if chunk_size == 0 {
            return None;
        }
        let len: usize = chunks.iter().map(Vec::len).sum();
        let n = chunks.len();
        for (i, c) in chunks.iter().enumerate() {
            let want = if i + 1 == n {
                len - (n - 1) * chunk_size
            } else {
                chunk_size
            };
            if c.len() != want || c.is_empty() {
                return None;
            }
        }
        Some(CowImage {
            chunk_size,
            len,
            chunks: chunks.into_iter().map(Arc::new).collect(),
        })
    }

    /// Materializes the full image as one contiguous vector.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        for c in &self.chunks {
            out.extend_from_slice(c);
        }
        out
    }

    /// Bytes of this image whose chunks are shared with at least one other
    /// image (snapshot or live device). `len() - shared_bytes()` is the
    /// memory uniquely attributable to this image.
    pub fn shared_bytes(&self) -> usize {
        self.chunks
            .iter()
            .filter(|c| Arc::strong_count(c) > 1)
            .map(|c| c.len())
            .sum()
    }
}

impl PartialEq for CowImage {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        if self.chunk_size == other.chunk_size {
            return (0..self.chunks.len()).all(|i| self.chunk_eq(i, other));
        }
        self.to_vec() == other.to_vec()
    }
}

impl Eq for CowImage {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_tail_chunk() {
        let img = CowImage::new(10, 4, 0xFF);
        assert_eq!(img.len(), 10);
        let sizes: Vec<usize> = img.chunks().map(<[u8]>::len).collect();
        assert_eq!(sizes, vec![4, 4, 2]);
        assert_eq!(img.to_vec(), vec![0xFF; 10]);
    }

    #[test]
    fn read_write_across_chunk_boundaries() {
        let mut img = CowImage::new(16, 4, 0);
        img.write(2, &[1, 2, 3, 4, 5, 6]); // spans chunks 0..=1
        let mut buf = [0u8; 8];
        img.read(0, &mut buf);
        assert_eq!(buf, [0, 0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn clone_shares_until_written() {
        let mut live = CowImage::new(16, 4, 0);
        let snap = live.clone();
        assert_eq!(live.shared_bytes(), 16);
        live.write(0, &[9; 4]); // unshares chunk 0 only
        assert_eq!(live.shared_bytes(), 12);
        assert_eq!(snap.to_vec(), vec![0; 16], "snapshot unaffected");
        assert_eq!(&live.to_vec()[..4], &[9; 4]);
    }

    #[test]
    fn fill_range_spans_chunks() {
        let mut img = CowImage::new(12, 4, 0);
        img.fill_range(3, 6, 0xAB);
        let v = img.to_vec();
        assert_eq!(&v[3..9], &[0xAB; 6]);
        assert_eq!(v[2], 0);
        assert_eq!(v[9], 0);
    }

    #[test]
    fn copy_from_reshares_on_same_chunking() {
        let mut live = CowImage::new(16, 4, 0);
        live.write(0, &[7; 16]);
        let snap = live.clone();
        live.write(0, &[1; 16]);
        assert_eq!(live.shared_bytes(), 0);
        live.copy_from(&snap);
        assert_eq!(live.to_vec(), vec![7; 16]);
        assert_eq!(live.shared_bytes(), 16, "restore re-shares every chunk");
    }

    #[test]
    fn copy_from_rechunks_on_mismatch() {
        let mut a = CowImage::new(16, 4, 0);
        let mut b = CowImage::new(16, 8, 0);
        b.write(5, &[3, 3, 3]);
        a.copy_from(&b);
        assert_eq!(a.to_vec(), b.to_vec());
        assert_eq!(a.chunk_size(), 4, "keeps its own chunking");
    }

    #[test]
    fn segments_borrow_across_chunk_boundaries() {
        let mut img = CowImage::new(12, 4, 0);
        img.write(0, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]);
        let segs: Vec<&[u8]> = img.segments(3, 6).collect();
        assert_eq!(segs, vec![&[4u8][..], &[5, 6, 7, 8], &[9]]);
        assert_eq!(img.segments(12, 0).count(), 0);
        assert_eq!(img.chunk(2), &[9, 10, 11, 12]);
    }

    #[test]
    fn chunk_eq_is_by_content_per_chunk() {
        let mut a = CowImage::new(8, 4, 0);
        let shared = a.clone();
        assert!(a.chunk_eq(0, &shared) && a.chunk_eq(1, &shared));
        a.write(0, &[1]); // chunk 0 unshared and different
        assert!(!a.chunk_eq(0, &shared));
        assert!(a.chunk_eq(1, &shared));
        a.write(0, &[0]); // unshared again, but the same bytes
        assert!(a.chunk_eq(0, &shared));
        assert!(!a.chunk_eq(2, &shared), "no such chunk");
        assert!(!a.chunk_eq(0, &CowImage::new(8, 2, 0)), "other chunking");
    }

    #[test]
    fn equality_is_by_content() {
        let mut a = CowImage::new(8, 4, 0);
        let mut b = CowImage::new(8, 2, 0);
        assert_eq!(a, b);
        a.write(1, &[5]);
        assert_ne!(a, b);
        b.write(1, &[5]);
        assert_eq!(a, b);
    }
}
