//! Frontier storage: the data structure at the center of the paper's
//! abstraction. A frontier is "a subset of the edges or vertices within
//! the graph that is currently of interest"; operators consume the
//! current frontier and produce the next, ping-ponging between two
//! buffers (the multi-buffer scheme of GPU BFS implementations).
//!
//! Frontiers are *dual-representation*: push-direction operators use the
//! sparse id list held here, while the pull direction operates on the
//! dense [`crate::bitmap::PooledBitmap`] form. Conversion is lazy — it
//! happens only at the Beamer direction switch
//! ([`crate::bitmap::PooledBitmap::fill_from_frontier`] going in,
//! [`crate::bitmap::PooledBitmap::push_ones_into`] coming back) — so
//! push-only runs never touch a bitmap.

/// A frontier of element ids (vertex ids or edge ids — the interpretation
/// is carried by the operator, since Gunrock "has supported both vertex
/// and edge frontiers [...] and can easily switch between them").
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Frontier {
    items: Vec<u32>,
}

impl Frontier {
    /// An empty frontier.
    pub fn new() -> Self {
        Frontier { items: Vec::new() }
    }

    /// An empty frontier with preallocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Frontier { items: Vec::with_capacity(cap) }
    }

    /// A frontier holding a single element (e.g. the BFS/SSSP source).
    pub fn single(id: u32) -> Self {
        Frontier { items: vec![id] }
    }

    /// A frontier over all ids `0..n` (e.g. PageRank and CC start with
    /// every vertex / edge in the frontier).
    pub fn full(n: usize) -> Self {
        // CAST: n is a vertex count, capped below u32::MAX by Csr::validate.
        Frontier { items: (0..n as u32).collect() }
    }

    /// Wraps an existing id vector.
    pub fn from_vec(items: Vec<u32>) -> Self {
        Frontier { items }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the frontier is empty — the usual convergence criterion.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The elements as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        &self.items
    }

    /// Consumes the frontier, returning its id vector.
    pub fn into_vec(self) -> Vec<u32> {
        self.items
    }

    /// Mutable access for in-place construction.
    #[inline]
    pub fn as_mut_vec(&mut self) -> &mut Vec<u32> {
        &mut self.items
    }

    /// Removes all elements, keeping capacity (buffer reuse across
    /// iterations, as the perf guide recommends).
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Appends an element.
    #[inline]
    pub fn push(&mut self, id: u32) {
        self.items.push(id);
    }
}

impl FromIterator<u32> for Frontier {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        Frontier { items: iter.into_iter().collect() }
    }
}

impl<'a> IntoIterator for &'a Frontier {
    type Item = u32;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, u32>>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert!(Frontier::new().is_empty());
        assert_eq!(Frontier::single(7).as_slice(), &[7]);
        assert_eq!(Frontier::full(3).as_slice(), &[0, 1, 2]);
        assert_eq!(Frontier::from_vec(vec![2, 4]).len(), 2);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut f = Frontier::with_capacity(100);
        for i in 0..50 {
            f.push(i);
        }
        let cap = f.as_mut_vec().capacity();
        f.clear();
        assert!(f.is_empty());
        assert_eq!(f.as_mut_vec().capacity(), cap);
    }

    #[test]
    fn iteration_and_collect() {
        let f: Frontier = (0..5u32).filter(|x| x % 2 == 0).collect();
        assert_eq!(f.as_slice(), &[0, 2, 4]);
        let doubled: Vec<u32> = (&f).into_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, vec![0, 4, 8]);
    }
}
