//! Zero-copy feature arena: contiguous, append-only `f32` row storage.
//!
//! Every dense feature vector in TVDP used to live in up to three heap
//! copies (store table, hybrid-tree leaf, LSH table), and every lookup
//! cloned a fresh `Vec<f32>`. The arena replaces all of that with one
//! slab per feature family: rows are appended into fixed-capacity
//! chunks that never move once written, so indexes store bare `u32`
//! row handles and distance kernels run directly over arena memory.
//!
//! Three access forms, all borrowing instead of cloning:
//!
//! * [`FeatureSlab::row`] — direct `&[f32]` while you hold the slab
//!   (ingest paths, benches, anything under the owner's lock),
//! * [`SlabView`] — an `Arc`-sharing snapshot detached from the slab;
//!   chunk pointers are reference-counted, only the partial tail chunk
//!   is copied once per refresh. Query execution resolves every row
//!   through a view with pure pointer arithmetic: no locks, no
//!   allocation, no copies on the hot path,
//! * [`RowRef`] — an owned handle to a single row (`Deref<Target =
//!   [f32]>`) for callers that outlive the slab borrow.
//!
//! Rows are write-once: replacing a feature appends a new row and
//! repoints the handle, which is what makes lock-free snapshot reads
//! safe without any `unsafe` code. The arena is always resident: a
//! chunk's floats are written once, into a buffer allocated at its full
//! size when its first row arrives, and frozen by moving that buffer
//! into an `Arc<Vec<f32>>`, so no float is copied after its push and a
//! row is one index and one slice away from its floats.

use std::sync::{Arc, OnceLock};

use crate::quant::{QuantChunk, QuantParams};

/// Rows per storage chunk. Chunks except the last are always exactly
/// this full, so `row -> (chunk, offset)` is pure arithmetic. 1024 rows
/// keeps a dim-512 chunk at 2 MiB (hugepage-friendly) and bounds the
/// tail copy a snapshot refresh may perform.
pub const ROWS_PER_CHUNK: usize = 1024;

/// Anything that can resolve a row handle to its `f32` slice: both
/// [`FeatureSlab`] (direct, under the owner's borrow) and [`SlabView`]
/// (snapshot). Index structures take `&impl RowSource` so inserts can
/// run against the live slab while queries run against a detached view.
pub trait RowSource {
    /// Feature dimensionality of every row.
    fn dim(&self) -> usize;
    /// Number of resolvable rows.
    fn rows(&self) -> usize;
    /// The row's values; `row` must be `< self.rows()`.
    fn row(&self, row: u32) -> &[f32];
}

/// An append-only slab of fixed-dimension `f32` rows.
#[derive(Debug, Clone, Default)]
pub struct FeatureSlab {
    dim: usize,
    /// Full chunks, each exactly `ROWS_PER_CHUNK * dim` floats, frozen
    /// (never written again) and shared with snapshots by `Arc`.
    frozen: Vec<Arc<Vec<f32>>>,
    /// The chunk currently being filled (< `ROWS_PER_CHUNK` rows), with
    /// room for all of them from its first row on: it never regrows,
    /// and the floats of rows not yet pushed are never touched.
    tail: Vec<f32>,
    len: usize,
}

impl FeatureSlab {
    /// An empty slab over `dim`-dimensional rows.
    ///
    /// # Panics
    ///
    /// Panics when `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "zero-dimensional rows");
        Self {
            dim,
            frozen: Vec::new(),
            tail: Vec::new(),
            len: 0,
        }
    }

    /// Whether the slab holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a row, returning its stable handle.
    ///
    /// # Panics
    ///
    /// Panics when `v.len() != self.dim()`.
    pub fn push(&mut self, v: &[f32]) -> u32 {
        assert_eq!(v.len(), self.dim, "row dimension mismatch");
        if self.tail.capacity() == 0 {
            self.tail.reserve_exact(ROWS_PER_CHUNK * self.dim);
        }
        self.tail.extend_from_slice(v);
        let row = self.len as u32;
        self.len += 1;
        if self.tail.len() == ROWS_PER_CHUNK * self.dim {
            // Frozen by move: the chunk's floats stay where they were
            // pushed.
            let full = std::mem::take(&mut self.tail);
            self.frozen.push(Arc::new(full));
        }
        row
    }

    /// An `Arc`-sharing snapshot of every row pushed so far. Frozen
    /// chunks are shared by reference count; only the partial tail
    /// chunk is copied. Snapshots never see rows pushed after they are
    /// taken.
    pub fn view(&self) -> SlabView {
        let mut chunks = self.frozen.clone();
        if !self.tail.is_empty() {
            chunks.push(Arc::new(self.tail.clone()));
        }
        SlabView {
            dim: self.dim,
            len: self.len,
            chunks,
            quant: self.frozen.iter().map(|_| OnceLock::new()).collect(),
        }
    }

    /// An owned reference to one row, valid independently of the slab
    /// borrow. Zero-copy for rows in frozen chunks; rows still in the
    /// tail are copied once (bounded by the most recent
    /// [`ROWS_PER_CHUNK`] appends).
    pub fn row_ref(&self, row: u32) -> RowRef {
        let r = row as usize;
        let chunk = r / ROWS_PER_CHUNK;
        if chunk < self.frozen.len() {
            let start = (r % ROWS_PER_CHUNK) * self.dim;
            RowRef {
                chunk: Arc::clone(&self.frozen[chunk]),
                start,
                len: self.dim,
            }
        } else {
            let start = (r - self.frozen.len() * ROWS_PER_CHUNK) * self.dim;
            RowRef {
                chunk: Arc::new(self.tail[start..start + self.dim].to_vec()),
                start: 0,
                len: self.dim,
            }
        }
    }
}

impl RowSource for FeatureSlab {
    fn dim(&self) -> usize {
        self.dim
    }

    fn rows(&self) -> usize {
        self.len
    }

    fn row(&self, row: u32) -> &[f32] {
        let r = row as usize;
        let chunk = r / ROWS_PER_CHUNK;
        if chunk < self.frozen.len() {
            let start = (r % ROWS_PER_CHUNK) * self.dim;
            &self.frozen[chunk][start..start + self.dim]
        } else {
            let start = (r - self.frozen.len() * ROWS_PER_CHUNK) * self.dim;
            &self.tail[start..start + self.dim]
        }
    }
}

/// A detached, immutable snapshot of a [`FeatureSlab`]. Cheap to clone
/// (chunk `Arc`s only); row resolution is branch-free arithmetic into
/// shared chunk memory.
#[derive(Debug, Clone)]
pub struct SlabView {
    dim: usize,
    len: usize,
    /// Every chunk except the last holds exactly `ROWS_PER_CHUNK` rows.
    chunks: Vec<Arc<Vec<f32>>>,
    /// One cell per full chunk (never the partial tail), filled with
    /// the chunk's scalar-quantized codes ([`crate::quant`]) the first
    /// time [`SlabView::quant_row`] asks for a row of it. A view nobody
    /// asks holds no codes.
    quant: Vec<OnceLock<QuantChunk>>,
}

impl SlabView {
    /// A view over no rows (placeholder before any feature exists).
    pub fn empty(dim: usize) -> Self {
        Self {
            dim,
            len: 0,
            chunks: Vec::new(),
            quant: Vec::new(),
        }
    }

    /// Whether the view holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of rows [`SlabView::quant_row`] can resolve: the rows in
    /// full chunks (a prefix of the view; the partial tail has none).
    pub fn quant_rows(&self) -> usize {
        self.quant.len() * ROWS_PER_CHUNK
    }

    /// The quantized codes and decode parameters of `row`, or `None`
    /// when the row lives in the partial tail. Codes are derived on
    /// first read: the first call for any row of a chunk encodes the
    /// whole chunk from its floats and every later call on this view
    /// reuses the result.
    #[inline]
    pub fn quant_row(&self, row: u32) -> Option<(&[u8], &QuantParams)> {
        let r = row as usize;
        let c = r / ROWS_PER_CHUNK;
        let chunk = self
            .quant
            .get(c)?
            .get_or_init(|| QuantChunk::encode(&self.chunks[c], self.dim));
        Some((chunk.row_codes(r % ROWS_PER_CHUNK), chunk.params()))
    }

    /// How many chunks have had their codes derived.
    #[cfg(test)]
    fn derived_chunks(&self) -> usize {
        self.quant.iter().filter(|q| q.get().is_some()).count()
    }
}

impl RowSource for SlabView {
    fn dim(&self) -> usize {
        self.dim
    }

    fn rows(&self) -> usize {
        self.len
    }

    #[inline]
    fn row(&self, row: u32) -> &[f32] {
        let r = row as usize;
        let start = (r % ROWS_PER_CHUNK) * self.dim;
        &self.chunks[r / ROWS_PER_CHUNK][start..start + self.dim]
    }
}

/// An owned, clonable reference to a single arena row.
#[derive(Debug, Clone)]
pub struct RowRef {
    chunk: Arc<Vec<f32>>,
    start: usize,
    len: usize,
}

impl RowRef {
    /// A reference to a zero-length row (placeholder for empty
    /// feature vectors, which have no slab).
    pub fn empty() -> Self {
        Self {
            chunk: Arc::new(Vec::new()),
            start: 0,
            len: 0,
        }
    }
}

impl std::ops::Deref for RowRef {
    type Target = [f32];

    #[inline]
    fn deref(&self) -> &[f32] {
        &self.chunk[self.start..self.start + self.len]
    }
}

impl AsRef<[f32]> for RowRef {
    fn as_ref(&self) -> &[f32] {
        self
    }
}

impl PartialEq for RowRef {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row_of(i: usize, dim: usize) -> Vec<f32> {
        (0..dim).map(|d| (i * dim + d) as f32).collect()
    }

    #[test]
    fn push_and_read_across_chunk_boundaries() {
        let dim = 3;
        let n = ROWS_PER_CHUNK * 2 + 17;
        let mut slab = FeatureSlab::new(dim);
        for i in 0..n {
            let r = slab.push(&row_of(i, dim));
            assert_eq!(r as usize, i);
        }
        assert_eq!(slab.rows(), n);
        for i in [
            0,
            1,
            ROWS_PER_CHUNK - 1,
            ROWS_PER_CHUNK,
            2 * ROWS_PER_CHUNK,
            n - 1,
        ] {
            assert_eq!(slab.row(i as u32), &row_of(i, dim)[..], "slab row {i}");
        }
    }

    #[test]
    fn view_snapshots_are_stable_and_zero_copy() {
        let dim = 4;
        let mut slab = FeatureSlab::new(dim);
        for i in 0..ROWS_PER_CHUNK + 5 {
            slab.push(&row_of(i, dim));
        }
        let view = slab.view();
        assert_eq!(view.rows(), ROWS_PER_CHUNK + 5);
        // Later pushes are invisible to the snapshot.
        slab.push(&row_of(999_999, dim));
        assert_eq!(view.rows(), ROWS_PER_CHUNK + 5);
        for i in [0, ROWS_PER_CHUNK - 1, ROWS_PER_CHUNK, ROWS_PER_CHUNK + 4] {
            assert_eq!(view.row(i as u32), &row_of(i, dim)[..], "view row {i}");
        }
        // Frozen chunks are shared, not copied: same allocation.
        let view2 = slab.view();
        assert!(Arc::ptr_eq(&view.chunks[0], &view2.chunks[0]));
    }

    #[test]
    fn row_ref_outlives_slab_borrow() {
        let dim = 2;
        let mut slab = FeatureSlab::new(dim);
        for i in 0..ROWS_PER_CHUNK + 1 {
            slab.push(&row_of(i, dim));
        }
        let frozen = slab.row_ref(7);
        let tail = slab.row_ref(ROWS_PER_CHUNK as u32);
        drop(slab);
        assert_eq!(&*frozen, &row_of(7, dim)[..]);
        assert_eq!(&*tail, &row_of(ROWS_PER_CHUNK, dim)[..]);
    }

    #[test]
    fn quantized_codes_are_derived_on_first_read_and_once() {
        let dim = 5;
        let mut slab = FeatureSlab::new(dim);
        for i in 0..ROWS_PER_CHUNK * 2 + 3 {
            slab.push(&row_of(i, dim));
        }
        let view = slab.view();
        assert_eq!(view.quant_rows(), ROWS_PER_CHUNK * 2);
        assert_eq!(view.derived_chunks(), 0);
        // What comes out is `QuantChunk::encode` of the chunk's floats.
        let want = QuantChunk::encode(&slab.frozen[1], dim);
        for r in [0, 17, ROWS_PER_CHUNK - 1] {
            let (codes, params) = view.quant_row((ROWS_PER_CHUNK + r) as u32).unwrap();
            assert_eq!(codes, want.row_codes(r));
            assert_eq!(params, want.params());
        }
        // Only the chunk that was asked for was encoded, and once: a
        // second read hands out the same allocation.
        assert_eq!(view.derived_chunks(), 1);
        let first = view.quant_row(ROWS_PER_CHUNK as u32).unwrap().0.as_ptr();
        let again = view.quant_row(ROWS_PER_CHUNK as u32).unwrap().0.as_ptr();
        assert_eq!(first, again);
        // Codes decode to within eps of the exact floats.
        let (codes, params) = view.quant_row(17).unwrap();
        let d = crate::quant::l2_sq_asym(view.row(17), codes, params).sqrt();
        assert!(
            d <= params.eps(),
            "self-distance {d} > eps {}",
            params.eps()
        );
        // Tail rows have no codes.
        assert!(view.quant_row((ROWS_PER_CHUNK * 2) as u32).is_none());
        assert!(SlabView::empty(dim).quant_row(0).is_none());
    }

    #[test]
    fn a_view_nobody_asks_holds_no_codes() {
        let dim = 4;
        let mut slab = FeatureSlab::new(dim);
        for i in 0..5_000 {
            slab.push(&row_of(i, dim));
        }
        let view = slab.view();
        for r in 0..view.rows() as u32 {
            assert_eq!(view.row(r), &row_of(r as usize, dim)[..]);
        }
        assert_eq!(view.quant_rows(), 4 * ROWS_PER_CHUNK);
        assert_eq!(view.derived_chunks(), 0);
    }

    #[test]
    fn empty_view_and_slab() {
        let slab = FeatureSlab::new(8);
        assert!(slab.is_empty());
        let view = slab.view();
        assert!(view.is_empty());
        assert_eq!(view.dim(), 8);
        assert!(SlabView::empty(4).is_empty());
    }

    #[test]
    #[should_panic(expected = "row dimension mismatch")]
    fn push_rejects_wrong_dim() {
        let mut slab = FeatureSlab::new(4);
        slab.push(&[0.0; 5]);
    }
}
