//! The ancestor Bloom filter: fast rejection of combinator chains.
//!
//! Real engines (WebKit, Servo) keep a small Bloom filter of the
//! tag/id/class hashes of every element on the current ancestor chain;
//! a descendant selector like `.wrap section > p` can only match if the
//! filter *may* contain `.wrap` and `section`, so a filter miss rejects
//! the candidate without walking the tree. We reproduce that design with
//! a fixed 256-bit filter over the DOM's [`style
//! atoms`](greenweb_dom::tag_atom), which each element caches when its
//! `id` or `class` is written, so building a filter hashes no strings.
//!
//! False positives are possible (the exact walk of the candidate's
//! compiled selector still runs after a filter hit); false negatives
//! are not, which is what makes the rejection sound. With two probes into 256 bits and
//! an ancestor chain contributing `n` atoms, the false-positive
//! probability is `(1 - e^(-2n/256))^2` — under 2 % for the `n ≤ 20`
//! chains our workloads produce.

use greenweb_dom::{Document, NodeId};

/// A 256-bit Bloom filter summarizing the tag/id/class atoms of a
/// node's ancestor chain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AncestorFilter {
    bits: [u64; 4],
}

impl AncestorFilter {
    /// The empty filter. An empty filter rejects every non-empty atom
    /// requirement — correct for root-level nodes, which have no element
    /// ancestors and therefore cannot match any combinator chain.
    pub fn new() -> Self {
        AncestorFilter::default()
    }

    /// Two bit indexes derived from one 64-bit atom. FNV-1a mixes both
    /// halves well, so the low and high 8 bits act as independent probes.
    fn probes(atom: u64) -> (usize, usize) {
        ((atom & 255) as usize, ((atom >> 32) & 255) as usize)
    }

    /// Inserts one ancestor atom.
    pub fn insert(&mut self, atom: u64) {
        let (a, b) = Self::probes(atom);
        self.bits[a / 64] |= 1 << (a % 64);
        self.bits[b / 64] |= 1 << (b % 64);
    }

    /// Whether `atom` may have been inserted. False positives possible,
    /// false negatives not.
    pub fn may_contain(&self, atom: u64) -> bool {
        let (a, b) = Self::probes(atom);
        self.bits[a / 64] & (1 << (a % 64)) != 0 && self.bits[b / 64] & (1 << (b % 64)) != 0
    }

    /// Whether every atom of `atoms` may be present — the test a
    /// candidate selector's ancestor requirements must pass before the
    /// exact match walk is worth running.
    pub fn may_contain_all(&self, atoms: &[u64]) -> bool {
        atoms.iter().all(|&atom| self.may_contain(atom))
    }
}

/// Builds the ancestor filter for `node`: the style atoms of every
/// element strictly above it in `doc`.
pub fn ancestor_filter(doc: &Document, node: NodeId) -> AncestorFilter {
    let mut filter = AncestorFilter::new();
    for ancestor in doc.ancestors(node) {
        if let Some(element) = doc.element(ancestor) {
            for &atom in element.style_atoms() {
                filter.insert(atom);
            }
        }
    }
    filter
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenweb_dom::{class_atom, id_atom, parse_html, tag_atom};

    #[test]
    fn inserted_atoms_are_found() {
        let mut filter = AncestorFilter::new();
        for name in ["div", "section", "article"] {
            filter.insert(tag_atom(name));
        }
        for name in ["div", "section", "article"] {
            assert!(filter.may_contain(tag_atom(name)));
        }
        assert!(filter.may_contain_all(&[tag_atom("div"), tag_atom("article")]));
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let filter = AncestorFilter::new();
        assert!(!filter.may_contain(tag_atom("div")));
        assert!(!filter.may_contain_all(&[id_atom("x")]));
        // The vacuous requirement always passes.
        assert!(filter.may_contain_all(&[]));
    }

    #[test]
    fn ancestor_filter_reflects_the_chain() {
        let doc =
            parse_html("<div id='outer' class='wrap'><section><p id='inner'>x</p></section></div>")
                .unwrap();
        let inner = doc.element_by_id("inner").unwrap();
        let filter = ancestor_filter(&doc, inner);
        assert!(filter.may_contain(tag_atom("div")));
        assert!(filter.may_contain(tag_atom("section")));
        assert!(filter.may_contain(id_atom("outer")));
        assert!(filter.may_contain(class_atom("wrap")));
        // The node's own atoms are not in its ancestor filter (unless a
        // false positive collides, which these names don't).
        assert!(!filter.may_contain(id_atom("inner")));
    }
}
