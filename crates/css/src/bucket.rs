//! Rule bucketing and compiled selectors: index every selector under its
//! subject's most selective simple selector (id → class → tag →
//! universal), so matching an element consults a handful of candidate
//! selectors instead of scanning the whole stylesheet — the WebKit/Servo
//! rule-hash design — and compile each selector once into the tests the
//! resolver runs on those candidates.
//!
//! Bucketing is purely a *candidate* filter: a selector lands in exactly
//! one bucket, and an element only pulls the buckets it could possibly
//! hit (its id bucket, one bucket per class, its tag bucket, and the
//! universal spill-over). Buckets are keyed by style atoms, and the
//! element's are cached on it, so a lookup hashes and compares no
//! strings.
//!
//! A candidate carries its selector compiled: each compound is a short
//! list of tests that compare a precomputed atom against the element's
//! cached atoms and then confirm the name, so two names whose 64-bit
//! atoms collide never match on the atom alone. The compiled walk
//! accepts exactly the elements [`crate::Selector::matches`] accepts,
//! which stays the semantic reference (the naive resolver runs it). A
//! candidate also carries its cascade rank: its `(specificity, rule)`
//! position in the index's total order, so the resolver sorts matches as
//! integers.

use crate::selector::{Combinator, CompoundSelector, Selector, SimpleSelector, Specificity};
use crate::stylesheet::Stylesheet;
use greenweb_dom::{class_atom, id_atom, tag_atom, Document, ElementData, NodeId};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

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

/// A range of one of the index's flat arrays, stored as `u32`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span(u32, u32);

impl Span {
    fn new(range: Range<usize>) -> Span {
        let offset = |i: usize| u32::try_from(i).expect("rule index arrays fit u32 offsets");
        Span(offset(range.start), offset(range.end))
    }

    fn range(self) -> Range<usize> {
        self.0 as usize..self.1 as usize
    }
}

/// A name a test confirms: its span of `RuleIndex::names`.
type Name = Span;

/// One simple selector compiled against the element's cached style
/// atoms. `*` and pseudo-classes always match, so they compile to no
/// test at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Test {
    /// A tag: the element's first atom, then its tag name.
    Tag(u64, Name),
    /// `#id`: the element's id atom (its second, when it has an id),
    /// then its `id`.
    Id(u64, Name),
    /// `.class`: the atom among the element's atoms, then its class
    /// list.
    Class(u64, Name),
    /// `[name]` or `[name=value]`: the attribute read by name.
    Attribute(Name, Option<Name>),
}

impl Test {
    /// Whether `element` passes, with the test's names in `names`. The
    /// atoms are computed from the same tag, `id` and class list the
    /// name checks read, so an absent atom is a sound reject and a
    /// present one is confirmed by name: an atom collision cannot make a
    /// match.
    fn passes(self, names: &str, element: &ElementData) -> bool {
        let name = |name: Name| &names[name.range()];
        let atoms = element.style_atoms();
        match self {
            Test::Tag(atom, tag) => atoms[0] == atom && element.tag() == name(tag),
            Test::Id(atom, id) => atoms.get(1) == Some(&atom) && element.id() == Some(name(id)),
            Test::Class(atom, class) => {
                atoms[1..].contains(&atom) && element.has_class(name(class))
            }
            Test::Attribute(attr, None) => element.attribute(name(attr)).is_some(),
            Test::Attribute(attr, Some(value)) => {
                element.attribute(name(attr)) == Some(name(value))
            }
        }
    }
}

/// A compiled compound: its span of `RuleIndex::tests`, with the
/// combinator that joins it to the compound on its right (unused on a
/// subject).
#[derive(Debug, Clone, Copy)]
struct Compound {
    tests: Span,
    combinator: Combinator,
}

/// One selector filed under its bucket key, compiled.
#[derive(Debug, Clone)]
pub(crate) struct Candidate {
    /// The selector's `(specificity, rule)` position in the index's
    /// cascade order: see [`RuleIndex::entry`].
    pub rank: u32,
    /// The bucket this candidate was filed under.
    pub origin: BucketOrigin,
    /// Its span of `RuleIndex::atoms`: see [`RuleIndex::ancestor_atoms`].
    atoms: Span,
    /// Its span of `RuleIndex::compounds`: the subject, then the
    /// ancestors nearest first.
    compounds: Span,
}

/// Hashes a style atom as itself: atoms are already FNV-mixed 64-bit
/// values, so the bucket map needs no second hash.
///
/// FNV is unkeyed, so a page can pick selector names whose atoms share
/// a bucket; a fixed mix on top would not stop that, only a keyed hash
/// would. None is needed here: the map holds one stylesheet's keys and
/// serves that page's own elements, so crafted names slow only the page
/// that wrote them, and no more than writing the same selectors without
/// a key (`[x]`, `*`) already does, since every element tests the
/// universal spill-over. The property interner's table differs: it is
/// shared by every page a process loads, so it keeps std's keyed hasher.
#[derive(Default)]
struct AtomHasher(u64);

impl Hasher for AtomHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 << 8) | u64::from(byte);
        }
    }

    fn write_u64(&mut self, atom: u64) {
        self.0 = atom;
    }
}

/// The bucketed index of one stylesheet's selectors. The compiled
/// selectors live in four flat arrays the candidates index, so building
/// the index allocates per array, not per selector.
#[derive(Debug, Clone, Default)]
pub(crate) struct RuleIndex {
    /// Candidates filed under the style atom of their id, class or tag
    /// key. The atoms are kind-prefixed, so one map holds all three
    /// kinds; a 64-bit collision could only add a candidate, which the
    /// compiled tests then reject.
    by_atom: HashMap<u64, Vec<Candidate>, BuildHasherDefault<AtomHasher>>,
    universal: Vec<Candidate>,
    /// Every distinct `(specificity, rule)` pair, ascending: a
    /// candidate's rank indexes it.
    ranks: Vec<(Specificity, usize)>,
    /// Every candidate's compounds, back to back.
    compounds: Vec<Compound>,
    /// Every compound's tests, back to back.
    tests: Vec<Test>,
    /// Every name a test confirms, back to back.
    names: String,
    /// Every candidate's ancestor atoms, back to back.
    atoms: Vec<u64>,
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

impl RuleIndex {
    /// Indexes and compiles every selector of every rule in `sheet`.
    pub fn build(sheet: &Stylesheet) -> Self {
        let selectors = || {
            sheet.rules().iter().enumerate().flat_map(|(rule, r)| {
                r.selectors()
                    .iter()
                    .map(move |selector| (selector.specificity(), rule, selector))
            })
        };
        let mut index = RuleIndex {
            ranks: selectors().map(|(spec, rule, _)| (spec, rule)).collect(),
            ..RuleIndex::default()
        };
        index.ranks.sort_unstable();
        index.ranks.dedup();
        for (specificity, rule, selector) in selectors() {
            let rank = index
                .ranks
                .binary_search(&(specificity, rule))
                .expect("every selector has a rank");
            let atoms_start = index.atoms.len();
            for (compound, _) in &selector.ancestors {
                index
                    .atoms
                    .extend(compound.parts.iter().filter_map(|part| match part {
                        SimpleSelector::Tag(name) => Some(tag_atom(name)),
                        SimpleSelector::Id(name) => Some(id_atom(name)),
                        SimpleSelector::Class(name) => Some(class_atom(name)),
                        _ => None,
                    }));
            }
            let compounds_start = index.compounds.len();
            // The subject's combinator is never read.
            index.compile(&selector.subject, Combinator::Child);
            for (compound, combinator) in selector.ancestors.iter().rev() {
                index.compile(compound, *combinator);
            }
            let (origin, key) = bucket_key(selector);
            let candidate = Candidate {
                rank: u32::try_from(rank).expect("ranks fit u32"),
                origin,
                atoms: Span::new(atoms_start..index.atoms.len()),
                compounds: Span::new(compounds_start..index.compounds.len()),
            };
            match key {
                Some(atom) => index.by_atom.entry(atom).or_default().push(candidate),
                None => index.universal.push(candidate),
            }
        }
        for bucket in index.by_atom.values_mut().chain([&mut index.universal]) {
            bucket.sort_by_key(|candidate| candidate.rank);
        }
        index
    }

    /// Appends `compound`'s tests, the atom tests first, and the
    /// compound spanning them.
    fn compile(&mut self, compound: &CompoundSelector, combinator: Combinator) {
        let start = self.tests.len();
        for atom_tests in [true, false] {
            for part in &compound.parts {
                let test = match part {
                    SimpleSelector::Tag(name) if atom_tests => {
                        Test::Tag(tag_atom(name), self.name(name))
                    }
                    SimpleSelector::Id(name) if atom_tests => {
                        Test::Id(id_atom(name), self.name(name))
                    }
                    SimpleSelector::Class(name) if atom_tests => {
                        Test::Class(class_atom(name), self.name(name))
                    }
                    SimpleSelector::Attribute { name, value } if !atom_tests => {
                        let name = self.name(name);
                        Test::Attribute(name, value.as_deref().map(|value| self.name(value)))
                    }
                    _ => continue,
                };
                self.tests.push(test);
            }
        }
        self.compounds.push(Compound {
            tests: Span::new(start..self.tests.len()),
            combinator,
        });
    }

    fn name(&mut self, name: &str) -> Name {
        let start = self.names.len();
        self.names.push_str(name);
        Span::new(start..self.names.len())
    }

    /// The `(specificity, rule index)` pair at cascade rank `rank`.
    pub fn entry(&self, rank: u32) -> (Specificity, usize) {
        self.ranks[rank as usize]
    }

    /// The atoms `candidate`'s ancestor compounds require. Each must
    /// appear somewhere on a matching element's ancestor chain (both `>`
    /// and descendant combinators anchor to an ancestor), so an
    /// ancestor-Bloom-filter miss on any of them is a sound reject.
    pub fn ancestor_atoms(&self, candidate: &Candidate) -> &[u64] {
        &self.atoms[candidate.atoms.range()]
    }

    fn passes(&self, compound: Compound, element: &ElementData) -> bool {
        self.tests[compound.tests.range()]
            .iter()
            .all(|test| test.passes(&self.names, element))
    }

    /// Whether `node`, whose element data is `element`, matches
    /// `candidate`'s selector.
    /// The walk is [`Selector::matches`]'s: a child compound must match
    /// the parent, a descendant compound the nearest ancestor that
    /// matches it, and a matched ancestor is never revisited.
    pub fn matches(
        &self,
        candidate: &Candidate,
        doc: &Document,
        node: NodeId,
        element: &ElementData,
    ) -> bool {
        let (subject, ancestors) = self.compounds[candidate.compounds.range()]
            .split_first()
            .expect("a selector has a subject");
        if !self.passes(*subject, element) {
            return false;
        }
        let mut current = node;
        for &compound in ancestors {
            loop {
                let Some(parent) = doc.parent(current) else {
                    return false;
                };
                current = parent;
                if doc
                    .element(parent)
                    .is_some_and(|el| self.passes(compound, el))
                {
                    break;
                }
                if compound.combinator == Combinator::Child {
                    return false;
                }
            }
        }
        true
    }

    /// Every candidate `element` could possibly match: the universal
    /// spill-over, its tag bucket, one bucket per class, then its id
    /// bucket. The exact matching an element skips — everything in
    /// buckets it cannot hit — is the bucketing win.
    ///
    /// Each bucket is in rank order, and the buckets come roughly from
    /// the lowest specificity to the highest, so the matches arrive
    /// nearly sorted and the resolver's sort has little to move.
    pub fn candidates<'a>(
        &'a self,
        element: &'a ElementData,
    ) -> impl Iterator<Item = &'a Candidate> + 'a {
        // `style_atoms()` is `[tag, id?, classes…]`: read backwards, its
        // tail is the class keys, then the id key.
        let atoms = element.style_atoms();
        let keyed = atoms[..1]
            .iter()
            .chain(atoms[1..].iter().rev())
            .filter_map(|atom| self.by_atom.get(atom))
            .flatten();
        self.universal.iter().chain(keyed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stylesheet::parse_stylesheet;

    fn index(css: &str) -> RuleIndex {
        RuleIndex::build(&parse_stylesheet(css).unwrap())
    }

    /// The rule index of each candidate `element` pulls, in pull order.
    fn candidates_for(index: &RuleIndex, element: &ElementData) -> Vec<usize> {
        index
            .candidates(element)
            .map(|c| index.entry(c.rank).1)
            .collect()
    }

    #[test]
    fn most_selective_key_wins() {
        // `div#x.c` must bucket by id, `div.c` by class, `div` by tag.
        let idx = index("div#x.c { width: 1px; } div.c { width: 2px; } div { width: 3px; }");
        let mut plain_div = ElementData::new("div");
        assert_eq!(candidates_for(&idx, &plain_div), vec![2]);
        plain_div.set_attribute("class", "c");
        assert_eq!(candidates_for(&idx, &plain_div), vec![2, 1]);
        plain_div.set_attribute("id", "x");
        assert_eq!(candidates_for(&idx, &plain_div), vec![2, 1, 0]);
    }

    #[test]
    fn attribute_and_pseudo_only_selectors_spill_to_universal() {
        let idx = index("[disabled] { width: 1px; } :QoS { width: 2px; } * { width: 3px; }");
        let span = ElementData::new("span");
        // All three reach every element — no bucket can safely exclude
        // them — in rank order: `*` has the lowest specificity.
        assert_eq!(candidates_for(&idx, &span), vec![2, 0, 1]);
    }

    #[test]
    fn selector_lists_bucket_each_selector_independently() {
        let idx = index("#a, .b, p { width: 1px; }");
        let entries = |element: &ElementData| -> Vec<(Specificity, usize)> {
            idx.candidates(element).map(|c| idx.entry(c.rank)).collect()
        };
        let p = ElementData::new("p");
        assert_eq!(entries(&p), vec![(Specificity::new(0, 0, 1), 0)]);
        let mut div = ElementData::new("div");
        div.set_attribute("class", "b");
        assert_eq!(entries(&div), vec![(Specificity::new(0, 1, 0), 0)]);
    }

    #[test]
    fn ranks_follow_specificity_then_source_order() {
        // Two selectors of one rule at one specificity share a rank.
        let idx = index("#a { width: 1px; } p, div { width: 2px; } .c { width: 3px; }");
        assert_eq!(
            idx.ranks,
            vec![
                (Specificity::new(0, 0, 1), 1),
                (Specificity::new(0, 1, 0), 2),
                (Specificity::new(1, 0, 0), 0),
            ]
        );
        let p = ElementData::new("p");
        let div = ElementData::new("div");
        let rank = |element: &ElementData| idx.candidates(element).next().unwrap().rank;
        assert_eq!(rank(&p), 0);
        assert_eq!(rank(&div), 0);
    }

    #[test]
    fn ancestor_atoms_cover_all_ancestor_compounds() {
        let sheet = parse_stylesheet(".wrap section > p { width: 1px; }").unwrap();
        let idx = RuleIndex::build(&sheet);
        let p = ElementData::new("p");
        let out: Vec<&Candidate> = idx.candidates(&p).collect();
        assert_eq!(out.len(), 1);
        assert_eq!(
            idx.ancestor_atoms(out[0]),
            [class_atom("wrap"), tag_atom("section")]
        );
    }

    /// Exactness does not rest on atoms being collision-free: a test
    /// whose atom is the element's but whose name is not must reject.
    /// The colliding pairs are built directly; no real FNV-64 collision
    /// is needed.
    #[test]
    fn an_atom_hit_with_a_different_name_rejects() {
        let mut el = ElementData::new("div");
        el.set_attribute("id", "x");
        el.set_attribute("class", "hot cold");
        let mut idx = RuleIndex::default();
        let mut name = |name: &str| idx.name(name);
        let hits = [
            Test::Tag(tag_atom("div"), name("div")),
            Test::Id(id_atom("x"), name("x")),
            Test::Class(class_atom("hot"), name("hot")),
            Test::Class(class_atom("cold"), name("cold")),
        ];
        let collisions = [
            Test::Tag(tag_atom("div"), name("span")),
            Test::Id(id_atom("x"), name("y")),
            Test::Class(class_atom("hot"), name("warm")),
            Test::Class(class_atom("cold"), name("hot cold")),
        ];
        for test in hits {
            assert!(test.passes(&idx.names, &el), "{test:?} should match");
        }
        for test in collisions {
            assert!(
                !test.passes(&idx.names, &el),
                "{test:?} matched on its atom alone"
            );
        }
    }

    #[test]
    fn star_and_pseudo_classes_compile_away() {
        let idx = index("*:QoS [data-x=v].a { width: 1px; }");
        assert_eq!(idx.compounds.len(), 2);
        // The subject: its atom test runs before its string test.
        assert_eq!(
            idx.tests[idx.compounds[0].tests.range()],
            [
                Test::Class(class_atom("a"), Span(0, 1)),
                Test::Attribute(Span(1, 7), Some(Span(7, 8))),
            ]
        );
        assert_eq!(idx.names, "adata-xv");
        // The ancestor `*:QoS` tests nothing.
        assert!(idx.compounds[1].tests.range().is_empty());
    }
}
