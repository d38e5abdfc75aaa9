//! Rule bucketing: index every selector under its subject's most
//! selective simple selector (id → class → tag → universal), so matching
//! an element consults a handful of candidate selectors instead of
//! scanning the whole stylesheet — the WebKit/Servo rule-hash design.
//!
//! Bucketing is purely a *candidate* filter: a selector lands in exactly
//! one bucket, and an element only pulls the buckets it could possibly
//! hit (its id bucket, one bucket per class, its tag bucket, and the
//! universal spill-over). Buckets are keyed by style atoms, and the
//! element's are cached on it, so a lookup hashes and compares no
//! strings. Candidates still run the exact
//! [`crate::Selector::matches`] walk, so cascade semantics — specificity,
//! source order, `!important` — are untouched.

use crate::selector::{Selector, SimpleSelector, Specificity};
use crate::stylesheet::Stylesheet;
use greenweb_dom::{class_atom, id_atom, tag_atom, ElementData};
use std::collections::HashMap;

/// Which bucket a candidate was filed under — recorded so the match
/// phase can attribute every exact selector walk to the bucket that
/// produced the candidate (the attribution profiler's per-bucket cost
/// ranking).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BucketOrigin {
    /// The id bucket.
    Id,
    /// A class bucket.
    Class,
    /// The tag bucket.
    Tag,
    /// The universal spill-over.
    Universal,
}

/// One `(rule, selector)` pair filed under its bucket key.
#[derive(Debug, Clone)]
pub(crate) struct Candidate {
    /// Index of the rule in the stylesheet.
    pub rule: usize,
    /// Index of the selector within the rule's selector list.
    pub selector: usize,
    /// The bucket this candidate was filed under.
    pub origin: BucketOrigin,
    /// The selector's precomputed specificity.
    pub specificity: Specificity,
    /// Tag/id/class atoms drawn from every ancestor compound. Each atom
    /// must appear somewhere on the matching element's ancestor chain
    /// (both `>` and descendant combinators anchor to an ancestor), so
    /// an ancestor-Bloom-filter miss on any of them is a sound reject.
    pub ancestor_atoms: Vec<u64>,
}

/// The bucketed index of one stylesheet's selectors.
#[derive(Debug, Clone, Default)]
pub(crate) struct RuleIndex {
    /// Candidates filed under the style atom of their id, class or tag
    /// key. The atoms are kind-prefixed, so one map holds all three
    /// kinds; a 64-bit collision could only add a candidate, which the
    /// exact walk then rejects.
    by_atom: HashMap<u64, Vec<Candidate>>,
    universal: Vec<Candidate>,
}

/// The bucket a selector files under: the most selective simple
/// selector of its *subject* compound, as its style atom (`None` for the
/// universal spill-over).
fn bucket_key(selector: &Selector) -> (BucketOrigin, Option<u64>) {
    let mut class = None;
    let mut tag = None;
    for part in &selector.subject.parts {
        match part {
            SimpleSelector::Id(id) => return (BucketOrigin::Id, Some(id_atom(id))),
            SimpleSelector::Class(name) => class = class.or(Some(name)),
            SimpleSelector::Tag(name) => tag = tag.or(Some(name)),
            // Pseudo-classes, attribute selectors, and `*` don't narrow
            // the candidate set; they fall through to a broader bucket.
            _ => {}
        }
    }
    match (class, tag) {
        (Some(class), _) => (BucketOrigin::Class, Some(class_atom(class))),
        (None, Some(tag)) => (BucketOrigin::Tag, Some(tag_atom(tag))),
        (None, None) => (BucketOrigin::Universal, None),
    }
}

fn ancestor_atoms(selector: &Selector) -> Vec<u64> {
    let mut atoms = Vec::new();
    for (compound, _) in &selector.ancestors {
        for part in &compound.parts {
            match part {
                SimpleSelector::Tag(name) => atoms.push(tag_atom(name)),
                SimpleSelector::Id(name) => atoms.push(id_atom(name)),
                SimpleSelector::Class(name) => atoms.push(class_atom(name)),
                _ => {}
            }
        }
    }
    atoms
}

impl RuleIndex {
    /// Indexes every selector of every rule in `sheet`.
    pub fn build(sheet: &Stylesheet) -> Self {
        let mut index = RuleIndex::default();
        for (rule_idx, rule) in sheet.rules().iter().enumerate() {
            for (sel_idx, selector) in rule.selectors().iter().enumerate() {
                let (origin, key) = bucket_key(selector);
                let candidate = Candidate {
                    rule: rule_idx,
                    selector: sel_idx,
                    origin,
                    specificity: selector.specificity(),
                    ancestor_atoms: ancestor_atoms(selector),
                };
                match key {
                    Some(atom) => index.by_atom.entry(atom).or_default().push(candidate),
                    None => index.universal.push(candidate),
                }
            }
        }
        index
    }

    /// Every candidate `element` could possibly match: its id bucket, one
    /// bucket per class, its tag bucket, then the universal spill-over.
    /// The exact matching an element skips — everything in buckets it
    /// cannot hit — is the bucketing win.
    pub fn candidates<'a>(
        &'a self,
        element: &'a ElementData,
    ) -> impl Iterator<Item = &'a Candidate> + 'a {
        // `style_atoms()` is `[tag, id?, classes…]`, so its tail is the
        // id and class keys in that order; the tag comes after them.
        let atoms = element.style_atoms();
        atoms[1..]
            .iter()
            .chain(&atoms[..1])
            .filter_map(|atom| self.by_atom.get(atom))
            .flatten()
            .chain(&self.universal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stylesheet::parse_stylesheet;

    fn index(css: &str) -> RuleIndex {
        RuleIndex::build(&parse_stylesheet(css).unwrap())
    }

    fn candidates_for(index: &RuleIndex, element: &ElementData) -> Vec<(usize, usize)> {
        index
            .candidates(element)
            .map(|c| (c.rule, c.selector))
            .collect()
    }

    #[test]
    fn most_selective_key_wins() {
        // `div#x.c` must bucket by id, `div.c` by class, `div` by tag.
        let idx = index("div#x.c { width: 1px; } div.c { width: 2px; } div { width: 3px; }");
        let mut plain_div = ElementData::new("div");
        assert_eq!(candidates_for(&idx, &plain_div), vec![(2, 0)]);
        plain_div.set_attribute("class", "c");
        assert_eq!(candidates_for(&idx, &plain_div), vec![(1, 0), (2, 0)]);
        plain_div.set_attribute("id", "x");
        assert_eq!(
            candidates_for(&idx, &plain_div),
            vec![(0, 0), (1, 0), (2, 0)]
        );
    }

    #[test]
    fn attribute_and_pseudo_only_selectors_spill_to_universal() {
        let idx = index("[disabled] { width: 1px; } :QoS { width: 2px; } * { width: 3px; }");
        let span = ElementData::new("span");
        // All three reach every element — no bucket can safely exclude them.
        assert_eq!(candidates_for(&idx, &span), vec![(0, 0), (1, 0), (2, 0)]);
    }

    #[test]
    fn selector_lists_bucket_each_selector_independently() {
        let idx = index("#a, .b, p { width: 1px; }");
        let p = ElementData::new("p");
        assert_eq!(candidates_for(&idx, &p), vec![(0, 2)]);
        let mut div = ElementData::new("div");
        div.set_attribute("class", "b");
        assert_eq!(candidates_for(&idx, &div), vec![(0, 1)]);
    }

    #[test]
    fn ancestor_atoms_cover_all_ancestor_compounds() {
        let sheet = parse_stylesheet(".wrap section > p { width: 1px; }").unwrap();
        let idx = RuleIndex::build(&sheet);
        let p = ElementData::new("p");
        let out: Vec<&Candidate> = idx.candidates(&p).collect();
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].ancestor_atoms,
            vec![class_atom("wrap"), tag_atom("section")]
        );
    }
}
