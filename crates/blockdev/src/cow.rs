//! Copy-on-write device images.
//!
//! A [`CowImage`] stores a device's bytes as fixed-size chunks in a
//! two-level table of [`Arc`]s: a root of leaves, each leaf holding the
//! pointers of up to 64 consecutive chunks. Cloning an image shares the root,
//! so it costs one reference bump whatever the device size. A write unshares
//! only what it touches — the root, the one leaf, the chunk — and each only
//! while another image still holds it (`Arc::make_mut`). Snapshots taken by
//! the devices in this crate are therefore O(1) to capture and to restore,
//! and cheap to hold and to drop: the live device and every saved snapshot
//! share the chunks neither side has modified since the snapshot, which is
//! what lets a deep DFS backtrack spine fit in memory (the checker saves one
//! snapshot per exploration level).

use std::sync::Arc;

/// Chunks per leaf of the table. The first write to a freshly cloned image
/// copies the root (one pointer per leaf) and one leaf (this many pointers)
/// besides the chunk: for a 16 MiB device in 4 KiB chunks, 64 + 64
/// pointers, where a flat table copied all 4,096 on the clone itself.
const LEAF_CHUNKS: usize = 64;

type Chunk = Arc<Vec<u8>>;
type Leaf = Arc<Vec<Chunk>>;

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
/// let snap = live.clone(); // O(1) — shares the whole chunk table
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
    root: Arc<Vec<Leaf>>,
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
        let chunks = (0..len.div_ceil(chunk_size))
            .map(|i| Arc::new(vec![fill; chunk_size.min(len - i * chunk_size)]));
        Self::assemble(chunk_size, len, chunks)
    }

    /// Builds the table over `chunks`, which must tile `len` bytes.
    fn assemble(chunk_size: usize, len: usize, chunks: impl IntoIterator<Item = Chunk>) -> Self {
        let mut chunks = chunks.into_iter();
        let root = std::iter::from_fn(|| {
            let leaf: Vec<Chunk> = chunks.by_ref().take(LEAF_CHUNKS).collect();
            (!leaf.is_empty()).then(|| Arc::new(leaf))
        })
        .collect();
        CowImage {
            chunk_size,
            len,
            root: Arc::new(root),
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

    fn num_chunks(&self) -> usize {
        self.len.div_ceil(self.chunk_size)
    }

    fn chunk_arc(&self, index: usize) -> &Chunk {
        &self.root[index / LEAF_CHUNKS][index % LEAF_CHUNKS]
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
            let chunk = self.chunk_arc(ci);
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
        self.chunk_arc(index)
    }

    /// Whether chunk `index` holds the same bytes here and in `other`: a
    /// pointer compare while the two images still share the table, the leaf
    /// or the chunk, a byte compare otherwise — the rule [`PartialEq`]
    /// applies to whole images. Images chunked differently, or too short to
    /// have chunk `index`, never compare equal here.
    pub fn chunk_eq(&self, index: usize, other: &CowImage) -> bool {
        if self.chunk_size != other.chunk_size
            || index >= self.num_chunks()
            || index >= other.num_chunks()
        {
            return false;
        }
        if Arc::ptr_eq(&self.root, &other.root) {
            return true;
        }
        let (li, ci) = (index / LEAF_CHUNKS, index % LEAF_CHUNKS);
        let (a, b) = (&self.root[li], &other.root[li]);
        Arc::ptr_eq(a, b) || same_chunk(&a[ci], &b[ci])
    }

    /// Writes `data` at `offset`, copying only the touched chunks if they
    /// are shared with a snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the image.
    pub fn write(&mut self, offset: usize, data: &[u8]) {
        assert!(offset + data.len() <= self.len, "cow write out of range");
        self.modify(offset, data.len(), |done, dst| {
            dst.copy_from_slice(&data[done..done + dst.len()]);
        });
    }

    /// Fills `[offset, offset + len)` with `byte` (erase support).
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the image.
    pub fn fill_range(&mut self, offset: usize, len: usize, byte: u8) {
        assert!(offset + len <= self.len, "cow fill out of range");
        self.modify(offset, len, |_, dst| dst.fill(byte));
    }

    /// Hands `f` each chunk's slice of `[offset, offset + len)`, in order,
    /// with the number of bytes before it. The root, the leaves and the
    /// chunks on the way are copied only if another image still holds them:
    /// `Arc::make_mut` tests uniqueness first (what `Arc::get_mut` does) and
    /// writes in place when it holds, so `format` writing every block of an
    /// unshared image pays one atomic compare per level, not a copy.
    fn modify(&mut self, mut offset: usize, len: usize, mut f: impl FnMut(usize, &mut [u8])) {
        if len == 0 {
            return;
        }
        let root = Arc::make_mut(&mut self.root);
        let mut done = 0;
        while done < len {
            let (ci, co) = (offset / self.chunk_size, offset % self.chunk_size);
            let leaf = Arc::make_mut(&mut root[ci / LEAF_CHUNKS]);
            let chunk = Arc::make_mut(&mut leaf[ci % LEAF_CHUNKS]);
            let n = (chunk.len() - co).min(len - done);
            f(done, &mut chunk[co..co + n]);
            done += n;
            offset += n;
        }
    }

    /// Adopts `other`'s content. Same chunk size: O(1), the restore path —
    /// the live image shares the snapshot's whole table. Different chunk
    /// size: a byte copy preserving this image's chunking.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ (devices geometry-check first).
    pub fn copy_from(&mut self, other: &CowImage) {
        assert_eq!(self.len, other.len, "cow image length mismatch");
        if self.chunk_size == other.chunk_size {
            self.root = Arc::clone(&other.root);
        } else {
            self.write(0, &other.to_vec());
        }
    }

    /// Iterates the image's chunks as byte slices, in order.
    pub fn chunks(&self) -> impl Iterator<Item = &[u8]> {
        self.root
            .iter()
            .flat_map(|leaf| leaf.iter().map(|c| c.as_slice()))
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
        Some(Self::assemble(
            chunk_size,
            len,
            chunks.into_iter().map(Arc::new),
        ))
    }

    /// Materializes the full image as one contiguous vector.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        for c in self.chunks() {
            out.extend_from_slice(c);
        }
        out
    }

    /// Bytes of this image reachable from at least one other image
    /// (snapshot or live device): a chunk counts when the root, its leaf or
    /// the chunk itself has another owner. `len() - shared_bytes()` is the
    /// memory uniquely attributable to this image.
    pub fn shared_bytes(&self) -> usize {
        if Arc::strong_count(&self.root) > 1 {
            return self.len;
        }
        self.root
            .iter()
            .flat_map(|leaf| {
                let leaf_shared = Arc::strong_count(leaf) > 1;
                leaf.iter()
                    .filter(move |c| leaf_shared || Arc::strong_count(c) > 1)
            })
            .map(|c| c.len())
            .sum()
    }

    /// How much of its table this image shares with `other` by pointer:
    /// whether the root is shared, and how many leaves and chunks sit at
    /// the same index in both (through a shared root or leaf, or directly).
    #[cfg(test)]
    pub(crate) fn sharing_with(&self, other: &CowImage) -> (bool, usize, usize) {
        let leaves = self
            .root
            .iter()
            .zip(other.root.iter())
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count();
        let chunks = (0..self.num_chunks().min(other.num_chunks()))
            .filter(|&i| Arc::ptr_eq(self.chunk_arc(i), other.chunk_arc(i)))
            .count();
        (Arc::ptr_eq(&self.root, &other.root), leaves, chunks)
    }
}

/// Whether two chunks hold the same bytes: a pointer compare first.
fn same_chunk(a: &Chunk, b: &Chunk) -> bool {
    Arc::ptr_eq(a, b) || a == b
}

impl PartialEq for CowImage {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        if self.chunk_size != other.chunk_size {
            return self.to_vec() == other.to_vec();
        }
        Arc::ptr_eq(&self.root, &other.root)
            || self.root.iter().zip(other.root.iter()).all(|(a, b)| {
                Arc::ptr_eq(a, b) || a.iter().zip(b.iter()).all(|(x, y)| same_chunk(x, y))
            })
    }
}

impl Eq for CowImage {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        assert!(!CowImage::new(16, 4, 0).chunk_eq(3, &a), "other is shorter");
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

    /// Model-test geometries `(chunk size, length)`: 1, 63, 64, 65 and
    /// 4,096 chunks (one leaf, a leaf short by one, exactly one leaf, one
    /// chunk into a second leaf, 64 full leaves), and short tail chunks.
    const GEOMETRIES: [(usize, usize); 7] = [
        (8, 8),
        (8, 63 * 8),
        (8, 64 * 8),
        (8, 65 * 8),
        (4, 4096 * 4),
        (8, 64 * 8 + 3),
        (8, 5),
    ];

    /// Most images alive at once in the model test.
    const MAX_LIVE: usize = 5;

    /// Bytes `n` long, drawn from `seed`.
    fn bytes(seed: u64, n: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect()
    }

    /// `[offset, offset + n)` inside an image of `len` bytes, drawn from
    /// `seed`; `n` spans up to three chunks of `chunk_size`.
    fn range(seed: u64, len: usize, chunk_size: usize) -> (usize, usize) {
        let offset = seed as usize % len;
        let n = (seed >> 24) as usize % (3 * chunk_size + 1);
        (offset, n.min(len - offset))
    }

    /// The brute-force sharing oracle: chunk `k` of image `i` is shared iff
    /// another live image holds a pointer-equal chunk at index `k`.
    fn shared_oracle(imgs: &[CowImage], i: usize) -> usize {
        let img = &imgs[i];
        (0..img.num_chunks())
            .filter(|&k| {
                imgs.iter().enumerate().any(|(j, o)| {
                    j != i
                        && o.chunk_size == img.chunk_size
                        && k < o.num_chunks()
                        && Arc::ptr_eq(img.chunk_arc(k), o.chunk_arc(k))
                })
            })
            .map(|k| img.chunk(k).len())
            .sum()
    }

    /// Every read-side view of every image against the flat models.
    fn check(imgs: &[CowImage], models: &[Vec<u8>], seed: u64) {
        for (i, (img, model)) in imgs.iter().zip(models).enumerate() {
            let cs = img.chunk_size();
            assert_eq!(img.len(), model.len());
            assert_eq!(&img.to_vec(), model);
            let want: Vec<&[u8]> = model.chunks(cs).collect();
            assert_eq!(img.chunks().collect::<Vec<_>>(), want);
            for (k, c) in want.iter().enumerate() {
                assert_eq!(img.chunk(k), *c);
            }
            let (offset, n) = range(seed.rotate_left(i as u32), img.len(), cs);
            let mut buf = vec![0u8; n];
            img.read(offset, &mut buf);
            assert_eq!(buf, model[offset..offset + n]);
            let segs: Vec<&[u8]> = img.segments(offset, n).collect();
            assert_eq!(segs.concat(), buf);
            let touched = if n == 0 {
                0
            } else {
                (offset + n - 1) / cs - offset / cs + 1
            };
            assert_eq!(segs.len(), touched);
            assert_eq!(img.shared_bytes(), shared_oracle(imgs, i), "image {i}");
            for (other, other_model) in imgs.iter().zip(models) {
                assert_eq!(img == other, model == other_model);
                let other_chunks: Vec<&[u8]> = other_model.chunks(other.chunk_size()).collect();
                for k in 0..=want.len() {
                    let same = other.chunk_size() == cs
                        && k < want.len()
                        && other_chunks.get(k) == Some(&want[k]);
                    assert_eq!(img.chunk_eq(k, other), same, "chunk {k}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random clone/write/fill/copy/drop/rebuild sequences over several
        /// live images behave like flat byte vectors, and `shared_bytes`
        /// matches the brute-force oracle after every step.
        #[test]
        fn cow_image_matches_flat_models(
            geometry in 0..GEOMETRIES.len(),
            steps in prop::collection::vec((0u8..7, any::<usize>(), any::<usize>(), any::<u64>()), 1..40),
        ) {
            let (cs, len) = GEOMETRIES[geometry];
            let mut imgs = vec![CowImage::new(len, cs, 0)];
            let mut models = vec![vec![0u8; len]];
            for (kind, a, b, x) in steps {
                let (a, b) = (a % imgs.len(), b % imgs.len());
                let room = imgs.len() < MAX_LIVE;
                match kind {
                    0 if room => {
                        imgs.push(imgs[a].clone());
                        models.push(models[a].clone());
                    }
                    1 => {
                        let (offset, n) = range(x, len, imgs[a].chunk_size());
                        let data = bytes(x, n);
                        imgs[a].write(offset, &data);
                        models[a][offset..offset + n].copy_from_slice(&data);
                    }
                    2 => {
                        let (offset, n) = range(x, len, imgs[a].chunk_size());
                        imgs[a].fill_range(offset, n, x as u8);
                        models[a][offset..offset + n].fill(x as u8);
                    }
                    3 => {
                        let src = imgs[b].clone();
                        imgs[a].copy_from(&src);
                        models[a] = models[b].clone();
                    }
                    4 if imgs.len() > 1 => {
                        imgs.swap_remove(a);
                        models.swap_remove(a);
                    }
                    5 if room => {
                        let chunks = imgs[a].chunks().map(<[u8]>::to_vec).collect();
                        imgs.push(CowImage::from_chunks(imgs[a].chunk_size(), chunks).unwrap());
                        models.push(models[a].clone());
                    }
                    6 if room => {
                        // A differently chunked peer: copies between it and
                        // the others take the byte-copy path.
                        imgs.push(CowImage::new(len, cs + 3, x as u8));
                        models.push(vec![x as u8; len]);
                    }
                    _ => {}
                }
                check(&imgs, &models, x);
            }
        }
    }
}
