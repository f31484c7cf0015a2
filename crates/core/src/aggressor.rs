//! Sets of coupling capacitors — the unit the top-k analysis optimizes.

use std::fmt;

use dna_netlist::CouplingId;

/// A sorted, duplicate-free set of coupling capacitors.
///
/// Candidate aggressor sets are identified by the couplings they contain;
/// a *pseudo* or *higher-order* aggressor is simply a set whose couplings
/// live upstream of the victim. Sorted storage makes union, containment
/// and deduplication cheap at the small cardinalities (`k <= ~75`) the
/// analysis works with.
///
/// # Example
///
/// ```
/// use dna_netlist::CouplingId;
/// use dna_topk::CouplingSet;
///
/// let a = CouplingSet::from_iter([CouplingId::new(3), CouplingId::new(1)]);
/// let b = a.with(CouplingId::new(2));
/// assert_eq!(b.len(), 3);
/// assert!(b.contains(CouplingId::new(1)));
/// assert_eq!(b.ids()[0], CouplingId::new(1)); // sorted
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct CouplingSet {
    ids: Vec<CouplingId>,
}

impl CouplingSet {
    /// The empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Set containing a single coupling.
    #[must_use]
    pub fn singleton(id: CouplingId) -> Self {
        Self { ids: vec![id] }
    }

    /// Number of couplings in the set (the candidate's cardinality).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Whether `id` is a member.
    #[must_use]
    pub fn contains(&self, id: CouplingId) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// The members, sorted ascending.
    #[must_use]
    pub fn ids(&self) -> &[CouplingId] {
        &self.ids
    }

    /// This set plus one more coupling (no-op if already a member).
    #[must_use]
    pub fn with(&self, id: CouplingId) -> Self {
        match self.ids.binary_search(&id) {
            Ok(_) => self.clone(),
            Err(pos) => {
                let mut ids = self.ids.clone();
                ids.insert(pos, id);
                Self { ids }
            }
        }
    }

    /// Union of two sets.
    #[must_use]
    pub fn union(&self, other: &CouplingSet) -> Self {
        let mut ids = Vec::with_capacity(self.ids.len() + other.ids.len());
        let (mut i, mut j) = (0, 0);
        while i < self.ids.len() && j < other.ids.len() {
            match self.ids[i].cmp(&other.ids[j]) {
                std::cmp::Ordering::Less => {
                    ids.push(self.ids[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    ids.push(other.ids[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    ids.push(self.ids[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        ids.extend_from_slice(&self.ids[i..]);
        ids.extend_from_slice(&other.ids[j..]);
        Self { ids }
    }

    /// Whether the sets share any member.
    #[must_use]
    pub fn intersects(&self, other: &CouplingSet) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.ids.len() && j < other.ids.len() {
            match self.ids[i].cmp(&other.ids[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// Order-independent digest of the set: the wrapping sum of a
    /// SplitMix64 digest per member. The key of a union of disjoint sets
    /// is the wrapping sum of their keys, so enumeration keys
    /// `member ⊕ atom` without building the union. Equal sets have equal
    /// keys; unequal sets rarely collide, and every user of a key match
    /// confirms it with [`union_eq`].
    #[must_use]
    pub(crate) fn key(&self) -> u64 {
        self.ids.iter().fold(0, |acc, id| acc.wrapping_add(id_key(*id)))
    }
}

/// SplitMix64 finalizer of one coupling id.
fn id_key(id: CouplingId) -> u64 {
    let mut z = (id.index() as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether `a ∪ b` and `c ∪ d` hold the same ids, for sorted id lists
/// whose pairs are each disjoint — compared without building either
/// union.
pub(crate) fn union_eq(
    a: &[CouplingId],
    b: &[CouplingId],
    c: &[CouplingId],
    d: &[CouplingId],
) -> bool {
    a.len() + b.len() == c.len() + d.len() && merged(a, b).eq(merged(c, d))
}

/// The ascending merge of two sorted, disjoint id lists.
fn merged<'s>(a: &'s [CouplingId], b: &'s [CouplingId]) -> impl Iterator<Item = CouplingId> + 's {
    let (mut i, mut j) = (0, 0);
    std::iter::from_fn(move || {
        let next = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x < y => x,
            (Some(&x), None) => x,
            (_, Some(&y)) => y,
            (None, None) => return None,
        };
        if a.get(i) == Some(&next) {
            i += 1;
        } else {
            j += 1;
        }
        Some(next)
    })
}

impl FromIterator<CouplingId> for CouplingSet {
    fn from_iter<I: IntoIterator<Item = CouplingId>>(iter: I) -> Self {
        let mut ids: Vec<CouplingId> = iter.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        Self { ids }
    }
}

impl Extend<CouplingId> for CouplingSet {
    fn extend<I: IntoIterator<Item = CouplingId>>(&mut self, iter: I) {
        self.ids.extend(iter);
        self.ids.sort_unstable();
        self.ids.dedup();
    }
}

impl fmt::Display for CouplingSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, id) in self.ids.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{id}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: u32) -> CouplingId {
        CouplingId::new(i)
    }

    #[test]
    fn from_iter_sorts_and_dedupes() {
        let s = CouplingSet::from_iter([id(5), id(1), id(5), id(3)]);
        assert_eq!(s.ids(), &[id(1), id(3), id(5)]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn with_is_idempotent() {
        let s = CouplingSet::singleton(id(2));
        assert_eq!(s.with(id(2)), s);
        let t = s.with(id(1));
        assert_eq!(t.ids(), &[id(1), id(2)]);
    }

    #[test]
    fn union_merges() {
        let a = CouplingSet::from_iter([id(1), id(3)]);
        let b = CouplingSet::from_iter([id(2), id(3), id(4)]);
        assert_eq!(a.union(&b).ids(), &[id(1), id(2), id(3), id(4)]);
    }

    #[test]
    fn intersects_detects_overlap() {
        let a = CouplingSet::from_iter([id(1), id(3)]);
        let b = CouplingSet::from_iter([id(3), id(9)]);
        let c = CouplingSet::from_iter([id(0), id(2)]);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(!CouplingSet::new().intersects(&a));
    }

    #[test]
    fn extend_maintains_invariants() {
        let mut s = CouplingSet::singleton(id(4));
        s.extend([id(2), id(4), id(6)]);
        assert_eq!(s.ids(), &[id(2), id(4), id(6)]);
    }

    #[test]
    fn keys_add_over_disjoint_unions() {
        let a = CouplingSet::from_iter([id(1), id(7)]);
        let b = CouplingSet::from_iter([id(3), id(4), id(9)]);
        assert_eq!(a.union(&b).key(), a.key().wrapping_add(b.key()));
        assert_eq!(CouplingSet::new().key(), 0);
        assert_ne!(a.key(), b.key());
    }

    #[test]
    fn union_eq_compares_ids_not_split() {
        let (a, b) = (CouplingSet::from_iter([id(1), id(5)]), CouplingSet::singleton(id(3)));
        let (c, d) = (CouplingSet::singleton(id(5)), CouplingSet::from_iter([id(1), id(3)]));
        assert!(union_eq(a.ids(), b.ids(), c.ids(), d.ids()));
        assert!(union_eq(a.ids(), b.ids(), a.union(&b).ids(), &[]));
        let e = CouplingSet::from_iter([id(1), id(4)]);
        assert!(!union_eq(a.ids(), b.ids(), e.ids(), b.ids()));
        assert!(!union_eq(a.ids(), &[], a.ids(), b.ids()));
    }

    #[test]
    fn display_lists_members() {
        let s = CouplingSet::from_iter([id(2), id(0)]);
        assert_eq!(s.to_string(), "{cc0, cc2}");
        assert_eq!(CouplingSet::new().to_string(), "{}");
    }
}
