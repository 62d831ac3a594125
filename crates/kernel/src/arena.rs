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
//!   every chunk, the partial tail too, is shared by reference count.
//!   Query execution resolves every row through a view with pure
//!   pointer arithmetic: no locks, no allocation, no copies on the hot
//!   path,
//! * [`RowRef`] — an owned handle to a single row (`Deref<Target =
//!   [f32]>`) for callers that outlive the slab borrow.
//!
//! Rows are write-once: replacing a feature appends a new row and
//! repoints the handle, which is what makes lock-free snapshot reads
//! safe without any `unsafe` code. The arena is always resident: a
//! chunk's floats go into a buffer allocated at its full size on its
//! first row, copied at most once (by a push while a view holds the
//! partial chunk) and frozen by move, so a row is one index and one
//! slice away from its floats.
//!
//! A frozen chunk also owns what is derived from its floats on first
//! read, in cells every view of the slab shares: its quantized codes
//! ([`SlabView::quant_row`]), its projected column
//! ([`SlabView::lower_bound`]) and, for chunk 0 only, the projection
//! the slab's columns are taken with. A reopen replays the same rows
//! into the same chunks, so nothing derived is ever persisted.

use std::sync::{Arc, OnceLock};

use crate::proj::{Column, ProjectedQuery, Projection};
use crate::quant::{QuantChunk, QuantParams};

/// Rows per storage chunk. Chunks except the last are always exactly
/// this full, so `row -> (chunk, offset)` is pure arithmetic. 1024 rows
/// keeps a dim-512 chunk at 2 MiB (hugepage-friendly) and bounds the
/// tail copy a push after a view may perform.
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

/// One chunk of rows and, once it is full, what is derived from them.
#[derive(Debug, Default)]
struct Chunk {
    floats: Vec<f32>,
    /// The chunk's scalar-quantized codes ([`crate::quant`]).
    quant: OnceLock<QuantChunk>,
    /// Every row projected by the slab's projection.
    column: OnceLock<Column>,
    /// Chunk 0's cell alone is ever filled: the projection fitted to
    /// its rows, which every column of the slab is taken with.
    fit: OnceLock<Projection>,
}

impl Chunk {
    fn new(floats: Vec<f32>) -> Arc<Self> {
        Arc::new(Self {
            floats,
            ..Self::default()
        })
    }
}

/// A push's copy of a tail a view holds: the floats at full capacity;
/// the cells stay empty, as on every chunk not yet full.
impl Clone for Chunk {
    fn clone(&self) -> Self {
        let mut floats = Vec::with_capacity(self.floats.capacity());
        floats.extend_from_slice(&self.floats);
        Self {
            floats,
            ..Self::default()
        }
    }
}

/// An append-only slab of fixed-dimension `f32` rows.
#[derive(Debug, Clone, Default)]
pub struct FeatureSlab {
    dim: usize,
    /// Full chunks, each exactly `ROWS_PER_CHUNK * dim` floats, frozen
    /// (never written again) and shared with snapshots by `Arc`.
    frozen: Vec<Arc<Chunk>>,
    /// The chunk currently being filled (< `ROWS_PER_CHUNK` rows), with
    /// room for all of them from its first row on: it never regrows,
    /// and the floats of rows not yet pushed are never touched.
    tail: Arc<Chunk>,
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
            tail: Arc::default(),
            len: 0,
        }
    }

    /// Appends a row, returning its stable handle.
    ///
    /// # Panics
    ///
    /// Panics when `v.len() != self.dim()`.
    pub fn push(&mut self, v: &[f32]) -> u32 {
        assert_eq!(v.len(), self.dim, "row dimension mismatch");
        let row = self.len as u32;
        self.len += 1;
        // Appends in place unless a view holds the tail: then copies it.
        let tail = &mut Arc::make_mut(&mut self.tail).floats;
        if tail.capacity() == 0 {
            tail.reserve_exact(ROWS_PER_CHUNK * self.dim);
        }
        tail.extend_from_slice(v);
        if tail.len() == ROWS_PER_CHUNK * self.dim {
            // Frozen by move: the chunk's floats stay where they were
            // pushed.
            self.frozen.push(std::mem::take(&mut self.tail));
        }
        row
    }

    /// An `Arc`-sharing snapshot of every row pushed so far, the
    /// partial tail chunk included: nothing is copied. Snapshots never
    /// see rows pushed after they are taken ([`FeatureSlab::push`]
    /// copies a tail a view holds).
    pub fn view(&self) -> SlabView {
        let mut chunks = self.frozen.clone();
        if !self.tail.floats.is_empty() {
            chunks.push(Arc::clone(&self.tail));
        }
        SlabView {
            dim: self.dim,
            len: self.len,
            chunks,
        }
    }

    /// An owned reference to one row, valid independently of the slab
    /// borrow. Zero-copy for rows in frozen chunks; a row still in the
    /// tail is copied alone, since sharing the tail would pin it and
    /// make the next push copy the whole chunk.
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
                chunk: Chunk::new(self.tail.floats[start..start + self.dim].to_vec()),
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
            &self.frozen[chunk].floats[start..start + self.dim]
        } else {
            let start = (r - self.frozen.len() * ROWS_PER_CHUNK) * self.dim;
            &self.tail.floats[start..start + self.dim]
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
    /// The full ones are the slab's frozen chunks themselves, so what
    /// one view derives from them every other view reads.
    chunks: Vec<Arc<Chunk>>,
}

impl SlabView {
    /// A view over no rows (placeholder before any feature exists).
    pub fn empty(dim: usize) -> Self {
        Self {
            dim,
            len: 0,
            chunks: Vec::new(),
        }
    }

    /// The frozen chunks of the view: every chunk but a partial tail.
    fn full(&self) -> &[Arc<Chunk>] {
        &self.chunks[..self.len / ROWS_PER_CHUNK]
    }

    /// Number of rows [`SlabView::quant_row`] can resolve: the rows in
    /// full chunks (a prefix of the view; the partial tail has none).
    // tvdp-lint: allow(dead_api, reason = "(d) benchmark surface: only examples/e2e calls it; ROADMAP item 2 or 16 deletes it after item 1")
    pub fn quant_rows(&self) -> usize {
        self.full().len() * ROWS_PER_CHUNK
    }

    /// The quantized codes and decode parameters of `row`, or `None`
    /// when the row lives in the partial tail. Codes are derived on
    /// first read: the first call for any row of a chunk encodes the
    /// whole chunk from its floats and every later call, on any view,
    /// reuses the result.
    #[inline]
    // tvdp-lint: allow(dead_api, reason = "(d) benchmark surface: only examples/e2e calls it; ROADMAP item 2 or 16 deletes it after item 1")
    pub fn quant_row(&self, row: u32) -> Option<(&[u8], &QuantParams)> {
        let r = row as usize;
        let chunk = self.full().get(r / ROWS_PER_CHUNK)?;
        let codes = chunk
            .quant
            .get_or_init(|| QuantChunk::encode(&chunk.floats, self.dim));
        Some((codes.row_codes(r % ROWS_PER_CHUNK), codes.params()))
    }

    /// `example` projected by the slab's projection, or `None` while the
    /// view holds no full chunk. The projection is fitted to chunk 0's
    /// rows on the first call on any view of the slab.
    ///
    /// # Panics
    ///
    /// Panics when `example` is not [`RowSource::dim`] floats long.
    pub fn projected(&self, example: &[f32]) -> Option<ProjectedQuery> {
        Some(self.projection()?.query(example))
    }

    fn projection(&self) -> Option<&Projection> {
        let first = self.full().first()?;
        Some(
            first
                .fit
                .get_or_init(|| Projection::fit(&first.floats, self.dim)),
        )
    }

    /// A lower bound on [`crate::l2`] of `q`'s example and `row`, read
    /// from the row's chunk's projected column, or `None` when the row
    /// lives in the partial tail (which has no column). A chunk's column
    /// is derived on first read and shared by every view of the slab.
    #[inline]
    pub fn lower_bound(&self, q: &ProjectedQuery, row: u32) -> Option<f32> {
        let r = row as usize;
        let chunk = self.full().get(r / ROWS_PER_CHUNK)?;
        let column = match chunk.column.get() {
            Some(column) => column,
            None => {
                let projection = self.projection()?;
                chunk
                    .column
                    .get_or_init(|| projection.column(&chunk.floats))
            }
        };
        Some(q.lower_bound(column, r % ROWS_PER_CHUNK))
    }

    /// Bytes the view's chunks hold for projected bounds: the slab's
    /// projection and every projected column derived so far. 0 until
    /// the first [`SlabView::projected`] on any view of the slab.
    pub fn projected_bytes(&self) -> usize {
        let fit = self.full().first().and_then(|c| c.fit.get());
        let columns = self.full().iter().filter_map(|chunk| chunk.column.get());
        fit.map_or(0, Projection::bytes) + columns.map(Column::bytes).sum::<usize>()
    }

    /// How many chunks have had their codes derived.
    #[cfg(test)]
    fn derived_chunks(&self) -> usize {
        self.full()
            .iter()
            .filter(|c| c.quant.get().is_some())
            .count()
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
        &self.chunks[r / ROWS_PER_CHUNK].floats[start..start + self.dim]
    }
}

/// An owned, clonable reference to a single arena row.
#[derive(Debug, Clone)]
pub struct RowRef {
    chunk: Arc<Chunk>,
    start: usize,
    len: usize,
}

impl RowRef {
    /// A reference to a zero-length row (placeholder for empty
    /// feature vectors, which have no slab).
    pub fn empty() -> Self {
        Self {
            chunk: Chunk::new(Vec::new()),
            start: 0,
            len: 0,
        }
    }
}

impl std::ops::Deref for RowRef {
    type Target = [f32];

    #[inline]
    fn deref(&self) -> &[f32] {
        &self.chunk.floats[self.start..self.start + self.len]
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

    fn bits(rows: &[f32]) -> Vec<u32> {
        rows.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn a_view_keeps_its_tail_rows_and_its_chunk_is_never_written() {
        let dim = 3;
        let mut slab = FeatureSlab::new(dim);
        for i in 0..ROWS_PER_CHUNK + 10 {
            slab.push(&row_of(i, dim));
        }
        let view = slab.view();
        let tail = Arc::clone(&view.chunks[1]);
        assert!(Arc::ptr_eq(&tail, &slab.tail), "the view shares the tail");
        let before = bits(&tail.floats);
        for i in 0..ROWS_PER_CHUNK {
            slab.push(&row_of(1_000_000 + i, dim));
        }
        assert_eq!(view.rows(), ROWS_PER_CHUNK + 10);
        assert_eq!(bits(&tail.floats), before, "the shared chunk is untouched");
        for i in ROWS_PER_CHUNK..ROWS_PER_CHUNK + 10 {
            assert_eq!(bits(view.row(i as u32)), bits(&row_of(i, dim)));
        }
        // The slab copied the tail and went on in the copy.
        assert!(!Arc::ptr_eq(&tail, &slab.frozen[1]));
        assert_eq!(
            bits(slab.row(ROWS_PER_CHUNK as u32 + 9)),
            bits(&row_of(ROWS_PER_CHUNK + 9, dim))
        );
        assert_eq!(
            bits(slab.row(ROWS_PER_CHUNK as u32 + 10)),
            bits(&row_of(1_000_000, dim))
        );
    }

    #[test]
    fn pushes_with_no_view_append_in_place() {
        let dim = 4;
        let mut slab = FeatureSlab::new(dim);
        slab.push(&row_of(0, dim));
        let at = slab.tail.floats.as_ptr();
        for i in 1..ROWS_PER_CHUNK - 1 {
            slab.push(&row_of(i, dim));
            assert_eq!(slab.tail.floats.as_ptr(), at, "push {i} moved the tail");
        }
        // A view that is dropped before the next push costs no copy.
        drop(slab.view());
        slab.push(&row_of(ROWS_PER_CHUNK - 1, dim));
        assert_eq!(slab.frozen[0].floats.as_ptr(), at);
    }

    #[test]
    fn the_first_push_after_a_view_copies_once() {
        let dim = 2;
        let mut slab = FeatureSlab::new(dim);
        for i in 0..5 {
            slab.push(&row_of(i, dim));
        }
        let shared = slab.tail.floats.as_ptr();
        let view = slab.view();
        slab.push(&row_of(5, dim));
        let copy = slab.tail.floats.as_ptr();
        assert_ne!(copy, shared, "the first push copies the held tail");
        assert_eq!(
            slab.tail.floats.capacity(),
            ROWS_PER_CHUNK * dim,
            "into a full-size chunk"
        );
        for i in 6..40 {
            slab.push(&row_of(i, dim));
            assert_eq!(slab.tail.floats.as_ptr(), copy, "push {i} copied again");
        }
        assert_eq!(view.chunks[0].floats.as_ptr(), shared);
        assert_eq!(view.rows(), 5);
    }

    #[test]
    fn a_full_tail_freezes_by_move() {
        let dim = 3;
        let mut slab = FeatureSlab::new(dim);
        for i in 0..ROWS_PER_CHUNK - 1 {
            slab.push(&row_of(i, dim));
        }
        let tail = Arc::as_ptr(&slab.tail);
        slab.push(&row_of(ROWS_PER_CHUNK - 1, dim));
        assert_eq!(Arc::as_ptr(&slab.frozen[0]), tail, "the tail itself froze");
        assert!(slab.tail.floats.is_empty());
        // A view held at the last push keeps its rows; the copy freezes.
        for i in 0..ROWS_PER_CHUNK - 1 {
            slab.push(&row_of(i, dim));
        }
        let view = slab.view();
        slab.push(&row_of(7, dim));
        assert!(!Arc::ptr_eq(&view.chunks[1], &slab.frozen[1]));
        assert_eq!(view.rows(), 2 * ROWS_PER_CHUNK - 1);
        assert_eq!(view.chunks[1].floats.len(), (ROWS_PER_CHUNK - 1) * dim);
    }

    /// A tail row's `RowRef` copies that row alone: sharing the tail
    /// would pin it and force a whole-chunk copy at the next push.
    #[test]
    fn a_tail_row_ref_copies_only_its_row() {
        let dim = 5;
        let mut slab = FeatureSlab::new(dim);
        for i in 0..ROWS_PER_CHUNK + 3 {
            slab.push(&row_of(i, dim));
        }
        let at = slab.tail.floats.as_ptr();
        let row = slab.row_ref(ROWS_PER_CHUNK as u32 + 1);
        assert_eq!(row.chunk.floats.len(), dim);
        assert_eq!(Arc::strong_count(&slab.tail), 1);
        slab.push(&row_of(99, dim));
        assert_eq!(slab.tail.floats.as_ptr(), at, "nothing pinned the tail");
        assert_eq!(bits(&row), bits(&row_of(ROWS_PER_CHUNK + 1, dim)));
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
        let want = QuantChunk::encode(&slab.frozen[1].floats, dim);
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

    /// A chunk's column and the slab's projection are derived once, by
    /// whichever view reads a bound first, and every view of the slab
    /// shares them: the store replaces its view whenever a reader needs
    /// rows past it, and the new view must not derive them again.
    #[test]
    fn every_view_of_a_slab_shares_chunk_columns() {
        let dim = 20;
        let mut slab = FeatureSlab::new(dim);
        let row =
            |i: usize| -> Vec<f32> { (0..dim).map(|d| ((i * 7 + d * 3) % 11) as f32).collect() };
        for i in 0..2 * ROWS_PER_CHUNK + 5 {
            slab.push(&row(i));
        }
        let first = slab.view();
        assert_eq!(
            first.projected_bytes(),
            0,
            "nothing is derived before a read"
        );
        let q = first.projected(&row(3)).unwrap();
        assert!(first.lower_bound(&q, 10).is_some());
        let column = ROWS_PER_CHUNK * 64 + std::mem::size_of::<Column>();
        let one = first.projected_bytes();
        assert!(
            one >= column + dim * 64,
            "the projection and chunk 0's column"
        );
        // Rows in the partial tail have no column.
        assert_eq!(first.lower_bound(&q, (2 * ROWS_PER_CHUNK) as u32), None);

        slab.push(&row(99));
        let second = slab.view();
        assert!(Arc::ptr_eq(&first.chunks[0], &second.chunks[0]));
        assert_eq!(
            second.projected_bytes(),
            one,
            "the second view reads what the first derived"
        );
        let (a, b) = (first.chunks[0].column.get(), second.chunks[0].column.get());
        assert!(std::ptr::eq(a.unwrap(), b.unwrap()));
        assert!(std::ptr::eq(
            first.projection().unwrap(),
            second.projection().unwrap()
        ));
        // A bound is a lower bound whichever view reads it.
        for r in [0u32, 10, 1500] {
            let d = crate::l2(&row(3), second.row(r));
            assert!(second.lower_bound(&q, r).unwrap() <= d);
        }
        assert_eq!(second.projected_bytes(), one + column);
        assert_eq!(first.projected_bytes(), one + column);
        assert!(SlabView::empty(dim).projected(&row(0)).is_none());
    }

    #[test]
    fn empty_view_and_slab() {
        let slab = FeatureSlab::new(8);
        assert_eq!(slab.rows(), 0);
        let view = slab.view();
        assert_eq!(view.rows(), 0);
        assert_eq!(view.dim(), 8);
        assert_eq!(SlabView::empty(4).rows(), 0);
    }

    #[test]
    #[should_panic(expected = "row dimension mismatch")]
    fn push_rejects_wrong_dim() {
        let mut slab = FeatureSlab::new(4);
        slab.push(&[0.0; 5]);
    }
}
