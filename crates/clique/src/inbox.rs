//! Per-node message inboxes produced by communication primitives.

use crate::word::{AsWords, Word, WordReader};

/// Messages delivered to every node by one communication step.
///
/// `Inboxes` is indexed by `(destination, source)`; the words from a given
/// source are in the order the source sent them. Algorithms normally decode
/// inbox contents with [`Inboxes::decode`] using statically known counts
/// (the communication patterns in this crate's clients are oblivious).
#[derive(Debug, Clone)]
pub struct Inboxes {
    n: usize,
    /// `data[dst][src]` = words received by `dst` from `src`.
    data: Vec<Vec<Vec<Word>>>,
}

impl Inboxes {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            n,
            data: vec![vec![Vec::new(); n]; n],
        }
    }

    /// Appends `words` to what `dst` received from `src`, moving the buffer
    /// into an empty slot instead of copying it.
    pub(crate) fn push(&mut self, dst: usize, src: usize, words: Vec<Word>) {
        let slot = &mut self.data[dst][src];
        if slot.is_empty() {
            *slot = words;
        } else {
            slot.extend(words);
        }
    }

    /// Builds inboxes from per-destination rows (used by the sharded flush,
    /// where each worker assembles one destination's deliveries wholesale).
    pub(crate) fn from_rows(rows: Vec<Vec<Vec<Word>>>) -> Self {
        let n = rows.len();
        debug_assert!(rows.iter().all(|r| r.len() == n), "rows must be square");
        Self { n, data: rows }
    }

    /// Number of nodes in the clique this inbox set belongs to.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The words `dst` received from `src` (possibly empty).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn received(&self, dst: usize, src: usize) -> &[Word] {
        &self.data[dst][src]
    }

    /// Removes and returns the words `dst` received from `src`.
    #[must_use]
    pub fn take(&mut self, dst: usize, src: usize) -> Vec<Word> {
        std::mem::take(&mut self.data[dst][src])
    }

    /// Iterates over `(src, words)` pairs with non-empty payloads for `dst`.
    pub fn sources(&self, dst: usize) -> impl Iterator<Item = (usize, &[Word])> {
        self.data[dst]
            .iter()
            .enumerate()
            .filter(|(_, w)| !w.is_empty())
            .map(|(s, w)| (s, w.as_slice()))
    }

    /// Total number of words delivered to `dst`.
    #[must_use]
    pub fn total_received(&self, dst: usize) -> usize {
        self.data[dst].iter().map(Vec::len).sum()
    }

    /// Decodes exactly `count` values of type `T` from what `dst` received
    /// from `src`.
    ///
    /// # Panics
    ///
    /// Panics if the payload does not contain exactly `count` encoded values.
    #[must_use]
    pub fn decode<T: AsWords>(&self, dst: usize, src: usize, count: usize) -> Vec<T> {
        let words = self.received(dst, src);
        let mut r = WordReader::new(words);
        let out: Vec<T> = (0..count).map(|_| T::read_words(&mut r)).collect();
        assert!(
            r.is_exhausted(),
            "inbox ({dst} <- {src}): {} trailing words after decoding {count} values",
            r.remaining()
        );
        out
    }

    /// Decodes all values of a fixed-width type from what `dst` received from
    /// `src`, consuming the entire payload.
    #[must_use]
    pub fn decode_all<T: AsWords>(&self, dst: usize, src: usize) -> Vec<T> {
        let words = self.received(dst, src);
        let mut r = WordReader::new(words);
        let mut out = Vec::new();
        while !r.is_exhausted() {
            out.push(T::read_words(&mut r));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_decode() {
        let mut ib = Inboxes::new(3);
        ib.push(1, 0, vec![5, 6, 7]);
        assert_eq!(ib.received(1, 0), &[5, 6, 7]);
        assert_eq!(ib.total_received(1), 3);
        assert_eq!(ib.total_received(0), 0);
        let vals: Vec<u64> = ib.decode(1, 0, 3);
        assert_eq!(vals, vec![5, 6, 7]);
        let all: Vec<u64> = ib.decode_all(1, 0);
        assert_eq!(all, vec![5, 6, 7]);
    }

    #[test]
    fn repeated_pushes_concatenate() {
        let mut ib = Inboxes::new(2);
        ib.push(0, 1, vec![1, 2]);
        ib.push(0, 1, vec![]);
        ib.push(0, 1, vec![3]);
        assert_eq!(ib.received(0, 1), &[1, 2, 3]);
    }

    #[test]
    fn sources_skips_empty() {
        let mut ib = Inboxes::new(4);
        ib.push(2, 0, vec![1]);
        ib.push(2, 3, vec![9, 8]);
        let got: Vec<(usize, usize)> = ib.sources(2).map(|(s, w)| (s, w.len())).collect();
        assert_eq!(got, vec![(0, 1), (3, 2)]);
    }

    #[test]
    #[should_panic(expected = "trailing words")]
    fn decode_rejects_wrong_count() {
        let mut ib = Inboxes::new(2);
        ib.push(0, 1, vec![1, 2]);
        let _: Vec<u64> = ib.decode(0, 1, 1);
    }
}
