//! Growable attribute bitsets.
//!
//! Relation profiles (the `R^vp`, `R^ve`, `R^ip`, `R^ie` components of
//! Definition 3.1) are set algebra over attributes. Profiles are
//! recomputed for every node of every plan during candidate search and
//! dynamic-programming assignment, so the representation matters: a
//! word-packed bitset keeps union/intersection/difference at a few
//! instructions per 64 attributes (TPC-H has 61 columns overall).

use crate::ids::AttrId;
use std::fmt;

/// A set of [`AttrId`]s backed by a small vector of 64-bit words.
///
/// Words beyond `bits.len()` are implicitly zero, so sets over different
/// universes compose without reallocation unless a high id is inserted.
/// Equality and hashing ignore trailing zero words.
#[derive(Clone, Default)]
pub struct AttrSet {
    bits: Vec<u64>,
}

impl PartialEq for AttrSet {
    fn eq(&self, other: &Self) -> bool {
        let n = self.bits.len().max(other.bits.len());
        (0..n).all(|i| {
            self.bits.get(i).copied().unwrap_or(0) == other.bits.get(i).copied().unwrap_or(0)
        })
    }
}
impl Eq for AttrSet {}

impl std::hash::Hash for AttrSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let last = self.bits.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
        self.bits[..last].hash(state);
    }
}

impl AttrSet {
    /// The empty set.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// Singleton set.
    pub fn singleton(a: AttrId) -> Self {
        let mut s = Self::new();
        s.insert(a);
        s
    }

    #[inline]
    fn loc(a: AttrId) -> (usize, u64) {
        ((a.0 >> 6) as usize, 1u64 << (a.0 & 63))
    }

    /// Insert an attribute; returns `true` if it was not present.
    pub fn insert(&mut self, a: AttrId) -> bool {
        let (w, m) = Self::loc(a);
        if w >= self.bits.len() {
            self.bits.resize(w + 1, 0);
        }
        let was = self.bits[w] & m != 0;
        self.bits[w] |= m;
        !was
    }

    /// Remove an attribute; returns `true` if it was present.
    pub fn remove(&mut self, a: AttrId) -> bool {
        let (w, m) = Self::loc(a);
        if w >= self.bits.len() {
            return false;
        }
        let was = self.bits[w] & m != 0;
        self.bits[w] &= !m;
        was
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, a: AttrId) -> bool {
        let (w, m) = Self::loc(a);
        self.bits.get(w).is_some_and(|b| b & m != 0)
    }

    /// `true` iff no attribute is present.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&b| b == 0)
    }

    /// Number of attributes present.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// `self ∪ other`, in place.
    pub fn union_with(&mut self, other: &AttrSet) {
        if other.bits.len() > self.bits.len() {
            self.bits.resize(other.bits.len(), 0);
        }
        for (d, s) in self.bits.iter_mut().zip(&other.bits) {
            *d |= s;
        }
    }

    /// `self ∩ other`, in place.
    fn intersect_with(&mut self, other: &AttrSet) {
        for (i, d) in self.bits.iter_mut().enumerate() {
            *d &= other.bits.get(i).copied().unwrap_or(0);
        }
    }

    /// `self \ other`, in place.
    pub fn difference_with(&mut self, other: &AttrSet) {
        for (d, s) in self.bits.iter_mut().zip(&other.bits) {
            *d &= !s;
        }
    }

    /// `self ∪ other` as a new set.
    pub fn union(&self, other: &AttrSet) -> AttrSet {
        let mut r = self.clone();
        r.union_with(other);
        r
    }

    /// `self ∩ other` as a new set.
    pub fn intersect(&self, other: &AttrSet) -> AttrSet {
        let mut r = self.clone();
        r.intersect_with(other);
        r
    }

    /// `self \ other` as a new set.
    pub fn difference(&self, other: &AttrSet) -> AttrSet {
        let mut r = self.clone();
        r.difference_with(other);
        r
    }

    /// `self ⊆ other`.
    pub fn is_subset(&self, other: &AttrSet) -> bool {
        self.bits
            .iter()
            .enumerate()
            .all(|(i, &b)| b & !other.bits.get(i).copied().unwrap_or(0) == 0)
    }

    /// `self ∩ other ≠ ∅`.
    pub fn intersects(&self, other: &AttrSet) -> bool {
        self.bits.iter().zip(&other.bits).any(|(&a, &b)| a & b != 0)
    }

    /// Iterate over member attributes in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = AttrId> + '_ {
        self.bits.iter().enumerate().flat_map(|(w, &bits)| {
            let mut b = bits;
            std::iter::from_fn(move || {
                if b == 0 {
                    None
                } else {
                    let t = b.trailing_zeros();
                    b &= b - 1;
                    Some(AttrId((w as u32) << 6 | t))
                }
            })
        })
    }
}

impl FromIterator<AttrId> for AttrSet {
    fn from_iter<I: IntoIterator<Item = AttrId>>(iter: I) -> Self {
        let mut s = Self::new();
        for a in iter {
            s.insert(a);
        }
        s
    }
}

impl<'a> IntoIterator for &'a AttrSet {
    type Item = AttrId;
    type IntoIter = Box<dyn Iterator<Item = AttrId> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

impl fmt::Debug for AttrSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: u32) -> AttrId {
        AttrId(i)
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = AttrSet::new();
        assert!(s.insert(a(3)));
        assert!(!s.insert(a(3)));
        assert!(s.contains(a(3)));
        assert!(!s.contains(a(4)));
        assert!(s.remove(a(3)));
        assert!(!s.remove(a(3)));
        assert!(s.is_empty());
    }

    #[test]
    fn crosses_word_boundaries() {
        let mut s = AttrSet::new();
        s.insert(a(0));
        s.insert(a(63));
        s.insert(a(64));
        s.insert(a(200));
        assert_eq!(s.len(), 4);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![a(0), a(63), a(64), a(200)]);
    }

    #[test]
    fn set_algebra() {
        let x = AttrSet::from_iter([a(1), a(2), a(70)]);
        let y = AttrSet::from_iter([a(2), a(70), a(100)]);
        assert_eq!(x.union(&y), AttrSet::from_iter([a(1), a(2), a(70), a(100)]));
        assert_eq!(x.intersect(&y), AttrSet::from_iter([a(2), a(70)]));
        assert_eq!(x.difference(&y), AttrSet::singleton(a(1)));
        assert!(AttrSet::from_iter([a(2)]).is_subset(&x));
        assert!(!x.is_subset(&y));
        assert!(x.intersects(&y));
        assert!(!x.intersects(&AttrSet::singleton(a(5))));
    }

    #[test]
    fn subset_with_unequal_word_lengths() {
        let small = AttrSet::from_iter([a(1)]);
        let large = AttrSet::from_iter([a(1), a(500)]);
        assert!(small.is_subset(&large));
        assert!(!large.is_subset(&small));
        // Empty high words on the left must not break subset checks.
        let mut padded = small.clone();
        padded.insert(a(600));
        padded.remove(a(600));
        assert!(padded.is_subset(&large));
    }

    #[test]
    fn empty_set_properties() {
        let e = AttrSet::new();
        assert!(e.is_subset(&e));
        assert!(!e.intersects(&e));
        assert_eq!(e.len(), 0);
        assert_eq!(e.iter().count(), 0);
    }
}
