//! Inverted file index for textual keyword queries.
//!
//! The paper's textual descriptors (manual keywords and event
//! descriptions) are served by a classic inverted index (Zobel & Moffat,
//! ref \[27\]): per-term postings lists with term frequencies, tf-idf
//! ranked retrieval, plus boolean AND/OR modes.

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BTreeMap;

use tvdp_kernel::{TopK, TotalF64};

/// A write-once index over documents with dense handles `0..n`, in the
/// order they were added ([`IndexBuilder`], or [`InvertedIndex::build`]
/// over one text per document).
///
/// ```
/// use tvdp_index::InvertedIndex;
///
/// let idx = InvertedIndex::build(["homeless encampment under the overpass", "clean street"]);
/// assert_eq!(idx.search_and("encampment overpass"), vec![0]);
/// assert_eq!(idx.search_or("street overpass"), vec![0, 1]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    /// term -> postings `(doc, term frequency)`, docs ascending, each
    /// list allocated at its size. An ordered map (lint rule L2):
    /// postings iteration must never leak hash order into ranked
    /// results.
    postings: BTreeMap<String, Box<[(u32, u32)]>>,
    /// Number of terms per document (for length normalization), indexed
    /// by the dense handle.
    doc_lengths: Vec<u32>,
}

/// Collects the documents of an [`InvertedIndex`]: a term gets a
/// number the first time [`IndexBuilder::terms`] meets it, a document
/// is a run of term numbers ([`IndexBuilder::push_doc`]), and
/// [`IndexBuilder::finish`] lays every postings list down at its size.
/// A caller whose documents share texts tokenizes each text once and
/// pushes its numbers for every document that holds it.
#[derive(Debug, Default)]
pub struct IndexBuilder {
    terms: BTreeMap<String, u32>,
    /// `(term, doc)` of every token, in document order.
    hits: Vec<(u32, u32)>,
    doc_lengths: Vec<u32>,
}

impl IndexBuilder {
    /// The numbers of `text`'s tokens in order, each lowercased as
    /// [`tokenize`] lowercases it.
    pub fn terms(&mut self, text: &str) -> Vec<u32> {
        tokens(text)
            .map(|token| {
                let term = lowered(token);
                if let Some(&n) = self.terms.get(&*term) {
                    return n;
                }
                let n = self.terms.len() as u32;
                self.terms.insert(term.into_owned(), n);
                n
            })
            .collect()
    }

    /// Adds the next document (its handle is the count of documents
    /// before it) holding the tokens numbered `terms`.
    pub fn push_doc(&mut self, terms: &[u32]) {
        let doc = self.doc_lengths.len() as u32;
        self.hits.extend(terms.iter().map(|&term| (term, doc)));
        self.doc_lengths.push(terms.len() as u32);
    }

    /// The index: each term's `(doc, tf)` list counted first, then
    /// filled into an allocation of exactly that length.
    pub fn finish(mut self) -> InvertedIndex {
        self.hits.sort_unstable();
        // A run of one `(term, doc)` is one posting, its length the tf.
        let runs = || self.hits.chunk_by(|a, b| a == b);
        let mut lengths = vec![0; self.terms.len()];
        runs().for_each(|run| lengths[run[0].0 as usize] += 1);
        let mut lists: Vec<Vec<(u32, u32)>> = lengths.into_iter().map(Vec::with_capacity).collect();
        runs().for_each(|run| lists[run[0].0 as usize].push((run[0].1, run.len() as u32)));
        let postings = self.terms.into_iter().map(|(term, n)| {
            let list = std::mem::take(&mut lists[n as usize]);
            (term, list.into_boxed_slice())
        });
        InvertedIndex {
            postings: postings.collect(),
            doc_lengths: self.doc_lengths,
        }
    }
}

/// Lowercases and splits text into alphanumeric tokens.
pub fn tokenize(text: &str) -> Vec<String> {
    tokens(text).map(|t| lowered(t).into_owned()).collect()
}

/// Splits `text` at the boundaries [`tokenize`] splits at, borrowing
/// each token as written (not yet lowercased).
pub fn tokens(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
}

/// `token` as [`tokenize`] lowercases it, borrowed when that changes
/// nothing: an ASCII token without an uppercase letter.
fn lowered(token: &str) -> Cow<'_, str> {
    if !token.is_ascii() {
        Cow::Owned(token.to_lowercase())
    } else if token.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(token.to_ascii_lowercase())
    } else {
        Cow::Borrowed(token)
    }
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
    /// The index over one text per document, handles in order.
    pub fn build(texts: impl IntoIterator<Item = impl AsRef<str>>) -> Self {
        let mut builder = IndexBuilder::default();
        for text in texts {
            let terms = builder.terms(text.as_ref());
            builder.push_doc(&terms);
        }
        builder.finish()
    }

    /// Documents containing *every* query term (boolean AND), sorted.
    pub fn search_and(&self, query: &str) -> Vec<usize> {
        let terms = tokenize(query);
        if terms.is_empty() {
            return Vec::new();
        }
        let mut lists: Vec<&[(u32, u32)]> = Vec::with_capacity(terms.len());
        for t in &terms {
            match self.postings.get(t) {
                Some(l) => lists.push(l),
                None => return Vec::new(),
            }
        }
        // Intersect starting from the shortest list.
        lists.sort_by_key(|l| l.len());
        let mut result: Vec<u32> = lists[0].iter().map(|&(d, _)| d).collect();
        for list in &lists[1..] {
            result.retain(|d| list.binary_search_by_key(d, |&(doc, _)| doc).is_ok());
            if result.is_empty() {
                break;
            }
        }
        result.into_iter().map(|d| d as usize).collect()
    }

    /// Documents containing *any* query term (boolean OR), sorted.
    pub fn search_or(&self, query: &str) -> Vec<usize> {
        let mut docs: Vec<usize> = tokenize(query)
            .iter()
            .filter_map(|t| self.postings.get(t))
            .flat_map(|l| l.iter().map(|&(d, _)| d as usize))
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
        self.search_ranked_with_stats(query, k, self.doc_lengths.len(), |_, list_len| list_len)
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
            for &(doc, tf) in list.iter() {
                *scores.entry(doc as usize).or_insert(0.0) +=
                    ranked_term_contribution(tf, self.doc_lengths[doc as usize], n_docs, term_df);
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
        self.postings
            .get(&term.to_lowercase())
            .map_or(0, |l| l.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_index() -> InvertedIndex {
        InvertedIndex::build([
            "illegal dumping near the overpass",
            "homeless encampment under overpass bridge",
            "clean street after sweep",
            "bulky item: abandoned couch, street corner",
            "Overpass graffiti and dumping, dumping again",
        ])
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
        // "street" in every doc; "graffiti" rare.
        let idx = InvertedIndex::build(["street graffiti", "street", "street"]);
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
        assert_eq!(idx.doc_lengths.len(), 5);
        assert!(idx.postings.len() > 10);
    }
}
