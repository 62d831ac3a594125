//! Bounded top-k selection.
//!
//! Every top-k path in TVDP used to collect *all* scored candidates
//! into a `Vec`, sort it, and truncate — `O(n log n)` time and `O(n)`
//! transient memory per query. [`TopK`] keeps only the best `k` items
//! in a bounded binary max-heap (`O(n log k)`, `O(k)` memory), and
//! [`TotalF32`] supplies the total order over `f32` scores
//! (`f32::total_cmp`) that makes floats usable as heap keys without
//! `unwrap` on `partial_cmp`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An `f32` wrapped with the IEEE-754 `totalOrder` comparison so it
/// implements `Ord` (and can key heaps and sorts). For the finite,
/// same-sign values our kernels produce this orders identically to the
/// `total_cmp` sorts used elsewhere in the workspace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TotalF32(pub f32);

impl Eq for TotalF32 {}

impl PartialOrd for TotalF32 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TotalF32 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// [`TotalF32`]'s double-precision sibling, for `f64` scores (tf-idf,
/// reported result scores).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TotalF64(pub f64);

impl Eq for TotalF64 {}

impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A bounded selector that retains the `k` smallest items pushed into
/// it (by `Ord`). Push order never affects the final sorted contents.
///
/// For "largest k" semantics, push [`std::cmp::Reverse`]-wrapped items
/// and unwrap after [`TopK::into_sorted_vec`].
#[derive(Debug, Clone)]
pub struct TopK<T: Ord> {
    k: usize,
    heap: BinaryHeap<T>,
}

impl<T: Ord> TopK<T> {
    /// A selector keeping at most `k` items (`k == 0` keeps nothing).
    pub fn new(k: usize) -> Self {
        Self {
            k,
            heap: BinaryHeap::with_capacity(k.min(4096).saturating_add(1)),
        }
    }

    /// The current k-th (worst retained) item, once `k` items have been
    /// seen. Callers can use it to skip work for candidates that cannot
    /// make the cut.
    pub fn threshold(&self) -> Option<&T> {
        if self.heap.len() < self.k {
            None
        } else {
            self.heap.peek()
        }
    }

    /// Offers an item; it is kept only while it ranks among the `k`
    /// smallest seen so far.
    pub fn push(&mut self, item: T) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(item);
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if item < *worst {
                *worst = item;
            }
        }
    }

    /// The retained items in ascending order.
    pub fn into_sorted_vec(self) -> Vec<T> {
        self.heap.into_sorted_vec()
    }
}

impl<T: Ord> Extend<T> for TopK<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;

    #[test]
    fn keeps_k_smallest_regardless_of_order() {
        let items = [9_u32, 3, 7, 1, 8, 2, 6, 0, 5, 4];
        let mut fwd = TopK::new(4);
        fwd.extend(items);
        assert_eq!(fwd.into_sorted_vec(), vec![0, 1, 2, 3]);

        let mut rev = TopK::new(4);
        rev.extend(items.iter().rev().copied());
        assert_eq!(rev.into_sorted_vec(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn matches_full_sort_truncate_on_float_keys() {
        // Deterministic pseudo-random distances with duplicates.
        let mut xs = Vec::new();
        let mut s = 0x2545_f491u64;
        for _ in 0..500 {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            xs.push(((s >> 33) % 97) as f32 * 0.5);
        }
        let mut reference: Vec<(TotalF32, usize)> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| (TotalF32(x), i))
            .collect();
        reference.sort();
        reference.truncate(10);

        let mut topk = TopK::new(10);
        topk.extend(xs.iter().enumerate().map(|(i, &x)| (TotalF32(x), i)));
        assert_eq!(topk.into_sorted_vec(), reference);
    }

    #[test]
    fn fewer_items_than_k_and_zero_k() {
        let mut t = TopK::new(10);
        t.extend([3_i32, 1, 2]);
        assert!(t.threshold().is_none());
        assert_eq!(t.into_sorted_vec(), vec![1, 2, 3]);

        let mut z = TopK::new(0);
        z.push(1_i32);
        assert!(z.into_sorted_vec().is_empty());
    }

    #[test]
    fn threshold_tracks_kth_item() {
        let mut t = TopK::new(2);
        t.push(5_i32);
        assert!(t.threshold().is_none());
        t.push(9);
        assert_eq!(t.threshold(), Some(&9));
        t.push(1);
        assert_eq!(t.threshold(), Some(&5));
    }

    #[test]
    fn largest_k_via_reverse() {
        let mut t = TopK::new(3);
        t.extend([4_i32, 9, 1, 7, 3].map(Reverse));
        let best: Vec<i32> = t
            .into_sorted_vec()
            .into_iter()
            .map(|Reverse(x)| x)
            .collect();
        assert_eq!(best, vec![9, 7, 4]);
    }
}
