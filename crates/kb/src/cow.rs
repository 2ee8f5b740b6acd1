//! Copy-on-write storage for the knowledge base's logical state.
//!
//! CLASSIC updates are incremental: an `assert-ind` adds to one
//! individual (§3.2) and propagation reaches only the individuals in its
//! cone (§5), so two consecutive KB versions are almost identical. The
//! containers here exploit that. Each keeps its contents in `Arc`'d
//! chunks of [`CHUNK`] elements: cloning copies one pointer per chunk,
//! and the first write to a chunk a clone still shares (`Arc::make_mut`)
//! copies that chunk alone.
//!
//! * [`CowVec`] holds records (individuals, per-individual tables), each
//!   additionally behind its own `Arc`, so a first write copies the
//!   chunk's pointer table and the one record written.
//! * [`IdSet`] is a bitset of individual ids (a taxonomy node's direct
//!   extension), so a first write copies one 512-byte chunk of words.
//!
//! A read snapshot cut from the primary therefore costs O(len / CHUNK)
//! pointer copies, and the writer that follows pays only for what it
//! dirties.

use crate::individual::IndId;
use std::ops::{Index, IndexMut};
use std::sync::Arc;

/// Elements per shared chunk: a clone touches one reference count per
/// chunk, and a first write copies one chunk.
const CHUNK: usize = 64;

/// The shared layer: values stored inline in `Arc`'d chunks.
#[derive(Debug)]
struct Chunks<T> {
    /// Every chunk but the last holds exactly [`CHUNK`] values; the last
    /// holds at least one.
    chunks: Vec<Arc<Vec<T>>>,
    len: usize,
}

impl<T> Clone for Chunks<T> {
    fn clone(&self) -> Self {
        Chunks {
            chunks: self.chunks.clone(),
            len: self.len,
        }
    }
}

impl<T> Default for Chunks<T> {
    fn default() -> Self {
        Chunks {
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<T> Chunks<T> {
    fn get(&self, ix: usize) -> Option<&T> {
        (ix < self.len).then(|| &self.chunks[ix / CHUNK][ix % CHUNK])
    }

    fn at(&self, ix: usize) -> &T {
        self.get(ix)
            .unwrap_or_else(|| panic!("index {ix} out of bounds ({})", self.len))
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flat_map(|c| c.iter())
    }

    /// Positions where `same` fails, plus positions only one side has.
    /// Chunks both sides share are skipped without looking inside.
    fn count_differing(&self, other: &Chunks<T>, same: impl Fn(&T, &T) -> bool) -> usize {
        let differing: usize = self
            .chunks
            .iter()
            .zip(&other.chunks)
            .filter(|(a, b)| !Arc::ptr_eq(a, b))
            .map(|(a, b)| {
                let common = a.iter().zip(b.iter()).filter(|(x, y)| !same(x, y));
                common.count() + a.len().abs_diff(b.len())
            })
            .sum();
        let both = self.chunks.len().min(other.chunks.len());
        let tail = |v: &Chunks<T>| v.chunks[both..].iter().map(|c| c.len()).sum::<usize>();
        differing + tail(self) + tail(other)
    }
}

impl<T: Clone> Chunks<T> {
    fn push(&mut self, value: T) {
        if self.len.is_multiple_of(CHUNK) {
            self.chunks.push(Arc::new(Vec::with_capacity(CHUNK)));
        }
        let last = self.chunks.last_mut().expect("a chunk with room");
        Arc::make_mut(last).push(value);
        self.len += 1;
    }

    fn pop(&mut self) -> Option<T> {
        let last = self.chunks.last_mut()?;
        let value = Arc::make_mut(last).pop();
        if last.is_empty() {
            self.chunks.pop();
        }
        self.len -= 1;
        value
    }

    /// Writable access to the value at `ix`, copying its chunk first if a
    /// clone shares it.
    fn at_mut(&mut self, ix: usize) -> &mut T {
        assert!(ix < self.len, "index {ix} out of bounds ({})", self.len);
        &mut Arc::make_mut(&mut self.chunks[ix / CHUNK])[ix % CHUNK]
    }
}

/// A vector of individually shared records; see the module docs.
///
/// Reads go through [`Index`]/[`CowVec::get`] and never copy. Writes go
/// through [`IndexMut`], which copies the record first if another
/// `CowVec` still shares it — so a caller that may not actually change
/// anything should check through a read first.
#[derive(Debug)]
pub(crate) struct CowVec<T> {
    items: Chunks<Arc<T>>,
}

impl<T> Clone for CowVec<T> {
    fn clone(&self) -> Self {
        CowVec {
            items: self.items.clone(),
        }
    }
}

impl<T> Default for CowVec<T> {
    fn default() -> Self {
        CowVec {
            items: Chunks::default(),
        }
    }
}

impl<T> CowVec<T> {
    pub(crate) fn len(&self) -> usize {
        self.items.len
    }

    pub(crate) fn get(&self, ix: usize) -> Option<&T> {
        self.items.get(ix).map(|a| &**a)
    }

    /// The shared record at `ix` (a rollback journal keeps it as the
    /// pre-transaction version at the cost of a pointer copy).
    pub(crate) fn shared(&self, ix: usize) -> &Arc<T> {
        self.items.at(ix)
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter().map(|a| &**a)
    }

    /// How many positions do not hold the very same record as `other`
    /// (including positions only one of the two has).
    pub(crate) fn unshared_with(&self, other: &CowVec<T>) -> usize {
        self.items.count_differing(&other.items, Arc::ptr_eq)
    }
}

impl<T: Clone> CowVec<T> {
    pub(crate) fn push(&mut self, value: T) {
        self.items.push(Arc::new(value));
    }

    /// Remove the last record, handing back its shared version (no copy).
    pub(crate) fn pop(&mut self) -> Option<Arc<T>> {
        self.items.pop()
    }

    pub(crate) fn truncate(&mut self, len: usize) {
        while self.items.len > len {
            self.items.pop();
        }
    }

    /// Put a saved record back at `ix`. Unlike writing through
    /// [`IndexMut`], this never copies the record it replaces.
    pub(crate) fn set(&mut self, ix: usize, value: Arc<T>) {
        *self.items.at_mut(ix) = value;
    }
}

impl<T> Index<usize> for CowVec<T> {
    type Output = T;

    fn index(&self, ix: usize) -> &T {
        self.shared(ix)
    }
}

impl<T: Clone> IndexMut<usize> for CowVec<T> {
    fn index_mut(&mut self, ix: usize) -> &mut T {
        Arc::make_mut(self.items.at_mut(ix))
    }
}

/// A set of individual ids as a chunked copy-on-write bitset; see the
/// module docs. Iteration is in ascending id order.
#[derive(Debug, Clone, Default)]
pub(crate) struct IdSet {
    words: Chunks<u64>,
    len: usize,
}

impl IdSet {
    fn split(id: IndId) -> (usize, u64) {
        (id.index() / 64, 1 << (id.index() % 64))
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn contains(&self, id: IndId) -> bool {
        let (w, bit) = Self::split(id);
        self.words.get(w).is_some_and(|word| word & bit != 0)
    }

    /// Add `id`; returns whether it was new. A present id is only read.
    pub(crate) fn insert(&mut self, id: IndId) -> bool {
        if self.contains(id) {
            return false;
        }
        let (w, bit) = Self::split(id);
        while self.words.len <= w {
            self.words.push(0);
        }
        *self.words.at_mut(w) |= bit;
        self.len += 1;
        true
    }

    /// Remove `id`; returns whether it was present. An absent id is only
    /// read.
    pub(crate) fn remove(&mut self, id: IndId) -> bool {
        if !self.contains(id) {
            return false;
        }
        let (w, bit) = Self::split(id);
        *self.words.at_mut(w) &= !bit;
        self.len -= 1;
        true
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = IndId> + '_ {
        self.words
            .iter()
            .enumerate()
            .filter(|(_, word)| **word != 0)
            .flat_map(|(w, &word)| {
                let mut rest = word;
                std::iter::from_fn(move || {
                    (rest != 0).then(|| {
                        let bit = rest.trailing_zeros() as usize;
                        rest &= rest - 1;
                        IndId::from_index(w * 64 + bit)
                    })
                })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clone_shares_until_the_first_write_to_an_element() {
        let mut a: CowVec<Vec<u32>> = CowVec::default();
        for i in 0..4 {
            a.push(vec![i]);
        }
        let b = a.clone();
        assert_eq!(a.unshared_with(&b), 0);
        a[2].push(7);
        assert_eq!(a.unshared_with(&b), 1);
        assert_eq!(b[2], vec![2], "the clone keeps the old element");
        assert_eq!(a[2], vec![2, 7]);
        // Reads never unshare.
        let _ = (a.get(0), a.iter().count());
        assert_eq!(a.unshared_with(&b), 1);
    }

    #[test]
    fn writes_unshare_one_element_across_chunk_boundaries() {
        let n = 3 * CHUNK + 5;
        let mut a: CowVec<usize> = CowVec::default();
        for i in 0..n {
            a.push(i);
        }
        let b = a.clone();
        for ix in [0, CHUNK - 1, CHUNK, 2 * CHUNK + 7, n - 1] {
            a[ix] += 1000;
        }
        assert_eq!(a.unshared_with(&b), 5);
        assert_eq!(b.unshared_with(&a), 5);
        assert!(b.iter().copied().eq(0..n), "the clone is unchanged");
        assert_eq!(a[CHUNK], CHUNK + 1000);
        assert_eq!(a.get(n), None);
        a.truncate(CHUNK + 1);
        assert_eq!(a.len(), CHUNK + 1);
        assert_eq!(a.unshared_with(&b), n - (CHUNK + 1) + 3);
        a.push(7);
        assert_eq!(a[CHUNK + 1], 7);
        assert_eq!(a.iter().count(), CHUNK + 2);
    }

    #[test]
    fn id_sets_iterate_in_order_and_unshare_one_chunk() {
        let ids = [0, 3, 63, 64, 200, 4095, 4096, 9000];
        let mut a = IdSet::default();
        for &i in &ids {
            assert!(a.insert(IndId::from_index(i)));
        }
        assert!(!a.insert(IndId::from_index(64)), "already present");
        assert_eq!(a.len(), ids.len());
        assert!(a.iter().map(IndId::index).eq(ids));
        let b = a.clone();
        assert!(a.remove(IndId::from_index(4096)));
        assert!(!a.remove(IndId::from_index(5)), "absent");
        assert_eq!(a.words.count_differing(&b.words, |x, y| x == y), 1);
        assert_eq!(
            a.words
                .chunks
                .iter()
                .zip(&b.words.chunks)
                .filter(|(x, y)| !Arc::ptr_eq(x, y))
                .count(),
            1,
            "one chunk of words copied"
        );
        assert!(
            b.contains(IndId::from_index(4096)),
            "the clone is unchanged"
        );
        assert!(!a.contains(IndId::from_index(4096)));
        assert_eq!(a.len(), ids.len() - 1);
    }

    #[test]
    fn set_restores_sharing_and_pop_hands_back_the_record() {
        let mut a: CowVec<Vec<u32>> = CowVec::default();
        a.push(vec![1]);
        let b = a.clone();
        let saved = Arc::clone(a.shared(0));
        a[0].push(2);
        a.set(0, saved);
        assert_eq!(a.unshared_with(&b), 0);
        a.push(vec![9]);
        a.push(vec![10]);
        assert_eq!(a.unshared_with(&b), 2, "entries only one side has");
        a.truncate(2);
        assert!(a.pop().is_some_and(|v| *v == vec![9]));
        assert_eq!(a.unshared_with(&b), 0);
    }
}
