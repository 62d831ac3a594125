//! Inverted file index for textual keyword queries.
//!
//! The paper's textual descriptors (manual keywords and event
//! descriptions) are served by a classic inverted index (Zobel & Moffat,
//! ref \[27\]): per-term postings lists with term frequencies, tf-idf
//! ranked retrieval, plus boolean AND/OR modes.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use tvdp_kernel::{TopK, TotalF64};

/// Document handles are dense `usize` values assigned by the caller.
///
/// ```
/// use tvdp_index::InvertedIndex;
///
/// let mut idx = InvertedIndex::new();
/// idx.index_document(0, "homeless encampment under the overpass");
/// idx.index_document(1, "clean street");
/// assert_eq!(idx.search_and("encampment overpass"), vec![0]);
/// assert_eq!(idx.search_or("street overpass"), vec![0, 1]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    /// term -> postings (doc, term frequency), sorted by doc. An
    /// ordered map (lint rule L2): postings iteration must never leak
    /// hash order into ranked results.
    postings: BTreeMap<String, Vec<(usize, u32)>>,
    /// Number of terms per document (for length normalization), indexed
    /// by the dense handle; [`UNINDEXED`] marks a handle not (yet) used.
    doc_lengths: Vec<u32>,
    n_docs: usize,
}

/// The `doc_lengths` slot of a handle no document holds.
const UNINDEXED: u32 = u32::MAX;

/// Lowercases and splits text into alphanumeric tokens.
pub fn tokenize(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| t.to_lowercase())
        .collect()
}

/// One query term's tf-idf contribution to a document's ranked score.
///
/// This is *the* scoring formula of [`InvertedIndex::search_ranked`],
/// factored out so distributed executors can score a document that
/// lives in one partition against **corpus-global** statistics
/// (`n_docs`, `df`) and still produce bit-identical floats: the
/// contribution is a pure function of `(tf, doc_len, n_docs, df)`, so
/// any executor holding the same four numbers reproduces the exact
/// same `f64`.
pub fn ranked_term_contribution(tf: u32, doc_len: u32, n_docs: usize, df: usize) -> f64 {
    let idf = ((n_docs as f64 + 1.0) / (df as f64 + 1.0)).ln() + 1.0;
    (f64::from(tf) / f64::from(doc_len).max(1.0)) * idf
}

impl InvertedIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Indexes a document's text under handle `doc`.
    ///
    /// # Panics
    ///
    /// Panics when `doc` was already indexed (documents are immutable).
    pub fn index_document(&mut self, doc: usize, text: &str) {
        assert!(
            self.doc_lengths
                .get(doc)
                .is_none_or(|&len| len == UNINDEXED),
            "document {doc} already indexed"
        );
        let tokens = tokenize(text);
        let mut tf: BTreeMap<String, u32> = BTreeMap::new();
        for t in &tokens {
            *tf.entry(t.clone()).or_insert(0) += 1;
        }
        for (term, count) in tf {
            let list = self.postings.entry(term).or_default();
            // Handles arrive in any order; keep postings sorted by doc.
            let pos = list.partition_point(|&(d, _)| d < doc);
            list.insert(pos, (doc, count));
        }
        if self.doc_lengths.len() <= doc {
            self.doc_lengths.resize(doc + 1, UNINDEXED);
        }
        self.doc_lengths[doc] = tokens.len() as u32;
        self.n_docs += 1;
    }

    /// Documents containing *every* query term (boolean AND), sorted.
    pub fn search_and(&self, query: &str) -> Vec<usize> {
        let terms = tokenize(query);
        if terms.is_empty() {
            return Vec::new();
        }
        let mut lists: Vec<&Vec<(usize, u32)>> = Vec::with_capacity(terms.len());
        for t in &terms {
            match self.postings.get(t) {
                Some(l) => lists.push(l),
                None => return Vec::new(),
            }
        }
        // Intersect starting from the shortest list.
        lists.sort_by_key(|l| l.len());
        let mut result: Vec<usize> = lists[0].iter().map(|&(d, _)| d).collect();
        for list in &lists[1..] {
            result.retain(|d| list.binary_search_by_key(d, |&(doc, _)| doc).is_ok());
            if result.is_empty() {
                break;
            }
        }
        result
    }

    /// Documents containing *any* query term (boolean OR), sorted.
    pub fn search_or(&self, query: &str) -> Vec<usize> {
        let mut docs: Vec<usize> = tokenize(query)
            .iter()
            .filter_map(|t| self.postings.get(t))
            .flat_map(|l| l.iter().map(|&(d, _)| d))
            .collect();
        docs.sort_unstable();
        docs.dedup();
        docs
    }

    /// tf-idf ranked retrieval: returns `(score, doc)` sorted by
    /// descending score, at most `k` results. Documents must match at
    /// least one term. Selection runs through a bounded top-k heap
    /// (`O(n log k)`) instead of sorting every scored document.
    pub fn search_ranked(&self, query: &str, k: usize) -> Vec<(f64, usize)> {
        self.search_ranked_with_stats(query, k, self.n_docs, |_, list_len| list_len)
    }

    /// [`InvertedIndex::search_ranked`] scored against externally
    /// supplied corpus statistics: `n_docs` is the corpus-wide document
    /// count, and `df(term, local_df)` maps a term (with its document
    /// frequency in *this* index) to its corpus-wide document
    /// frequency. A partitioned corpus uses this for two-phase ranked
    /// retrieval — gather per-partition frequencies first, then score
    /// each partition's documents with the global numbers — and the
    /// per-document scores come out bit-identical to one big index (see
    /// [`ranked_term_contribution`]). With `self.n_docs` and the
    /// identity closure this *is* `search_ranked`.
    pub fn search_ranked_with_stats(
        &self,
        query: &str,
        k: usize,
        n_docs: usize,
        df: impl Fn(&str, usize) -> usize,
    ) -> Vec<(f64, usize)> {
        let terms = tokenize(query);
        let mut scores: BTreeMap<usize, f64> = BTreeMap::new();
        for term in &terms {
            let Some(list) = self.postings.get(term) else {
                continue;
            };
            let term_df = df(term, list.len());
            for &(doc, tf) in list {
                *scores.entry(doc).or_insert(0.0) +=
                    ranked_term_contribution(tf, self.doc_lengths[doc], n_docs, term_df);
            }
        }
        // "Smallest k" under (Reverse(score), doc) = highest score first,
        // ties broken by ascending doc — the published result order.
        let mut top = TopK::new(k);
        top.extend(scores.into_iter().map(|(d, s)| (Reverse(TotalF64(s)), d)));
        top.into_sorted_vec()
            .into_iter()
            .map(|(Reverse(TotalF64(s)), d)| (s, d))
            .collect()
    }

    /// Document frequency of a term (diagnostics, admission estimates
    /// and the global statistics of two-phase ranked retrieval).
    pub fn doc_frequency(&self, term: &str) -> usize {
        self.postings.get(&term.to_lowercase()).map_or(0, Vec::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_index() -> InvertedIndex {
        let mut idx = InvertedIndex::new();
        idx.index_document(0, "illegal dumping near the overpass");
        idx.index_document(1, "homeless encampment under overpass bridge");
        idx.index_document(2, "clean street after sweep");
        idx.index_document(3, "bulky item: abandoned couch, street corner");
        idx.index_document(4, "Overpass graffiti and dumping, dumping again");
        idx
    }

    #[test]
    fn tokenize_splits_and_lowercases() {
        assert_eq!(tokenize("Hello, World-42!"), vec!["hello", "world", "42"]);
        assert!(tokenize("...").is_empty());
    }

    #[test]
    fn and_search_intersects() {
        let idx = sample_index();
        assert_eq!(idx.search_and("overpass dumping"), vec![0, 4]);
        assert_eq!(idx.search_and("overpass"), vec![0, 1, 4]);
        assert!(idx.search_and("overpass missingterm").is_empty());
        assert!(idx.search_and("").is_empty());
    }

    #[test]
    fn or_search_unions() {
        let idx = sample_index();
        assert_eq!(idx.search_or("couch sweep"), vec![2, 3]);
        assert_eq!(idx.search_or("overpass street"), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn search_is_case_insensitive() {
        let idx = sample_index();
        assert_eq!(idx.search_and("OVERPASS"), vec![0, 1, 4]);
    }

    #[test]
    fn ranked_prefers_higher_tf() {
        let idx = sample_index();
        let ranked = idx.search_ranked("dumping", 10);
        // Doc 4 says "dumping" twice; must rank above doc 0.
        assert_eq!(ranked[0].1, 4);
        assert_eq!(ranked[1].1, 0);
        assert_eq!(ranked.len(), 2);
    }

    #[test]
    fn ranked_idf_downweights_common_terms() {
        let mut idx = InvertedIndex::new();
        // "street" in every doc; "graffiti" rare.
        idx.index_document(0, "street graffiti");
        idx.index_document(1, "street");
        idx.index_document(2, "street");
        let ranked = idx.search_ranked("street graffiti", 10);
        assert_eq!(ranked[0].1, 0, "doc with rare term must rank first");
    }

    #[test]
    fn ranked_respects_k() {
        let idx = sample_index();
        let ranked = idx.search_ranked("street overpass dumping", 2);
        assert_eq!(ranked.len(), 2);
    }

    #[test]
    fn doc_frequency_counts() {
        let idx = sample_index();
        assert_eq!(idx.doc_frequency("overpass"), 3);
        assert_eq!(idx.doc_frequency("OVERPASS"), 3);
        assert_eq!(idx.doc_frequency("nothing"), 0);
        assert_eq!(idx.n_docs, 5);
        assert!(idx.postings.len() > 10);
    }

    #[test]
    #[should_panic(expected = "already indexed")]
    fn duplicate_doc_rejected() {
        let mut idx = InvertedIndex::new();
        idx.index_document(1, "a");
        idx.index_document(1, "b");
    }
}
