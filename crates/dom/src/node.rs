//! Node payloads: element data, attributes, and node kinds.

use std::fmt;

/// 64-bit FNV-1a over `name` with a one-byte kind prefix, so the same
/// string used as a tag, an id, and a class yields three distinct atoms.
fn style_atom(kind: u8, name: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in std::iter::once(kind).chain(name.bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// The style atom of a (lowercase) tag name.
///
/// Style atoms are stable 64-bit hashes shared between the DOM and the
/// CSS engine: ancestor Bloom filters insert the atoms of every element
/// on a node's ancestor chain, and selector indexes precompute the atoms
/// a combinator chain requires, so a filter miss rejects a candidate
/// selector without walking the tree.
pub fn tag_atom(name: &str) -> u64 {
    style_atom(b't', name)
}

/// The style atom of an `id` attribute value. See [`tag_atom`].
pub fn id_atom(name: &str) -> u64 {
    style_atom(b'#', name)
}

/// The style atom of a single class name. See [`tag_atom`].
pub fn class_atom(name: &str) -> u64 {
    style_atom(b'.', name)
}

/// A single `name="value"` attribute on an element.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Attribute {
    /// Attribute name, always stored lowercase.
    pub name: String,
    /// Attribute value (empty for valueless attributes such as `disabled`).
    pub value: String,
}

impl Attribute {
    /// Creates an attribute, lowercasing the name.
    pub fn new(name: impl Into<String>, value: impl Into<String>) -> Self {
        Attribute {
            name: name.into().to_ascii_lowercase(),
            value: value.into(),
        }
    }
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}=\"{}\"", self.name, self.value)
    }
}

/// The payload of an element node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementData {
    tag: String,
    attributes: Vec<Attribute>,
    /// The element's style atoms (see [`ElementData::style_atoms`]),
    /// recomputed whenever the tag, `id` or `class` is written.
    atoms: Vec<u64>,
}

impl ElementData {
    /// Creates element data for `tag` (stored lowercase) with no attributes.
    pub fn new(tag: impl Into<String>) -> Self {
        let tag = tag.into().to_ascii_lowercase();
        // Room for an id and two classes before a refresh must grow it.
        let mut atoms = Vec::with_capacity(4);
        atoms.push(tag_atom(&tag));
        ElementData {
            tag,
            attributes: Vec::new(),
            atoms,
        }
    }

    /// The lowercase tag name (`div`, `p`, …).
    pub fn tag(&self) -> &str {
        &self.tag
    }

    /// All attributes in document order.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Returns the value of attribute `name` (case-insensitive), if present.
    pub fn attribute(&self, name: &str) -> Option<&str> {
        // Stored names are lowercase, so this is a case-insensitive match
        // without lowercasing `name` into a fresh string.
        self.attributes
            .iter()
            .find(|a| a.name.eq_ignore_ascii_case(name))
            .map(|a| a.value.as_str())
    }

    /// Sets attribute `name` to `value`, replacing an existing attribute of
    /// the same name.
    pub fn set_attribute(&mut self, name: impl Into<String>, value: impl Into<String>) {
        let attr = Attribute::new(name, value);
        let refresh = is_atom_attribute(&attr.name);
        match self.attributes.iter_mut().find(|a| a.name == attr.name) {
            Some(existing) => existing.value = attr.value,
            None => self.attributes.push(attr),
        }
        if refresh {
            self.refresh_atoms();
        }
    }

    /// Removes attribute `name`, returning its previous value.
    pub fn remove_attribute(&mut self, name: &str) -> Option<String> {
        let idx = self
            .attributes
            .iter()
            .position(|a| a.name.eq_ignore_ascii_case(name))?;
        let removed = self.attributes.remove(idx);
        if is_atom_attribute(&removed.name) {
            self.refresh_atoms();
        }
        Some(removed.value)
    }

    fn refresh_atoms(&mut self) {
        let mut atoms = std::mem::take(&mut self.atoms);
        atoms.clear();
        atoms.push(tag_atom(&self.tag));
        atoms.extend(self.id().map(id_atom));
        atoms.extend(self.classes().map(class_atom));
        self.atoms = atoms;
    }

    /// The element's `id` attribute, if any.
    pub fn id(&self) -> Option<&str> {
        self.attribute("id")
    }

    /// Iterates over the whitespace-separated class list.
    pub fn classes(&self) -> impl Iterator<Item = &str> {
        self.attribute("class")
            .unwrap_or("")
            .split_ascii_whitespace()
    }

    /// Whether the class list contains `class`.
    pub fn has_class(&self, class: &str) -> bool {
        self.classes().any(|c| c == class)
    }

    /// The style atoms this element contributes to descendants' ancestor
    /// Bloom filters: its tag atom, its id atom (if any), and one atom
    /// per class. See [`tag_atom`]. Cached on the element and refreshed
    /// when `id` or `class` is written, so reading them hashes nothing.
    pub fn style_atoms(&self) -> &[u64] {
        &self.atoms
    }
}

/// Whether attribute `name` (lowercase) feeds the style atoms.
fn is_atom_attribute(name: &str) -> bool {
    name == "id" || name == "class"
}

impl fmt::Display for ElementData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}", self.tag)?;
        for attr in &self.attributes {
            write!(f, " {attr}")?;
        }
        write!(f, ">")
    }
}

/// What a node in the tree is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// The document root. Exactly one per [`crate::Document`].
    Document,
    /// An element such as `<div>`.
    Element(ElementData),
    /// A text run.
    Text(String),
    /// A comment (`<!-- … -->`). Preserved so serialization round-trips.
    Comment(String),
}

impl NodeKind {
    /// Returns the element payload if this is an element node.
    pub fn as_element(&self) -> Option<&ElementData> {
        match self {
            NodeKind::Element(data) => Some(data),
            _ => None,
        }
    }

    /// Mutable variant of [`NodeKind::as_element`].
    pub fn as_element_mut(&mut self) -> Option<&mut ElementData> {
        match self {
            NodeKind::Element(data) => Some(data),
            _ => None,
        }
    }

    /// Returns the text content if this is a text node.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            NodeKind::Text(text) => Some(text),
            _ => None,
        }
    }
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeKind::Document => write!(f, "#document"),
            NodeKind::Element(data) => write!(f, "{data}"),
            NodeKind::Text(text) => write!(f, "{text:?}"),
            NodeKind::Comment(text) => write!(f, "<!--{text}-->"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribute_name_is_lowercased() {
        let attr = Attribute::new("ID", "intro");
        assert_eq!(attr.name, "id");
        assert_eq!(attr.value, "intro");
    }

    #[test]
    fn set_attribute_replaces_existing() {
        let mut el = ElementData::new("div");
        el.set_attribute("class", "a");
        el.set_attribute("CLASS", "b c");
        assert_eq!(el.attributes().len(), 1);
        assert_eq!(el.attribute("class"), Some("b c"));
        assert!(el.has_class("b"));
        assert!(el.has_class("c"));
        assert!(!el.has_class("a"));
    }

    #[test]
    fn remove_attribute_returns_value() {
        let mut el = ElementData::new("div");
        el.set_attribute("id", "x");
        assert_eq!(el.remove_attribute("id"), Some("x".to_string()));
        assert_eq!(el.remove_attribute("id"), None);
        assert_eq!(el.id(), None);
    }

    #[test]
    fn tag_is_lowercased() {
        assert_eq!(ElementData::new("DIV").tag(), "div");
    }

    #[test]
    fn display_round_trip_contains_attrs() {
        let mut el = ElementData::new("a");
        el.set_attribute("href", "#");
        assert_eq!(el.to_string(), "<a href=\"#\">");
    }

    #[test]
    fn style_atoms_distinguish_kinds() {
        // The same string as a tag, id, and class must hash differently,
        // or `#x` in a filter would satisfy a `.x` ancestor requirement.
        let atoms = [tag_atom("x"), id_atom("x"), class_atom("x")];
        assert_ne!(atoms[0], atoms[1]);
        assert_ne!(atoms[0], atoms[2]);
        assert_ne!(atoms[1], atoms[2]);
        // And the hash is a pure function of its input.
        assert_eq!(tag_atom("div"), tag_atom("div"));
    }

    #[test]
    fn element_style_atoms_cover_tag_id_classes() {
        let mut el = ElementData::new("div");
        el.set_attribute("id", "intro");
        el.set_attribute("class", "a b");
        assert_eq!(
            el.style_atoms(),
            [
                tag_atom("div"),
                id_atom("intro"),
                class_atom("a"),
                class_atom("b")
            ]
        );
    }

    #[test]
    fn attribute_lookup_ignores_case() {
        let mut el = ElementData::new("div");
        el.set_attribute("Data-Role", "menu");
        assert_eq!(el.attributes()[0].name, "data-role");
        assert_eq!(el.attribute("DATA-ROLE"), Some("menu"));
        assert_eq!(el.attribute("data-Role"), Some("menu"));
        assert_eq!(el.remove_attribute("DaTa-RoLe"), Some("menu".to_string()));
        assert_eq!(el.attribute("data-role"), None);
        assert!(el.attributes().is_empty());
    }

    #[test]
    fn style_atoms_follow_id_and_class_writes() {
        let mut el = ElementData::new("P");
        assert_eq!(el.style_atoms(), [tag_atom("p")]);
        el.set_attribute("class", "a");
        el.set_attribute("ID", "x");
        assert_eq!(
            el.style_atoms(),
            [tag_atom("p"), id_atom("x"), class_atom("a")]
        );
        el.set_attribute("CLASS", "b  c");
        assert_eq!(
            el.style_atoms(),
            [
                tag_atom("p"),
                id_atom("x"),
                class_atom("b"),
                class_atom("c")
            ]
        );
        // Other attributes leave the atoms alone.
        el.set_attribute("style", "width: 1px");
        assert_eq!(el.style_atoms().len(), 4);
        el.remove_attribute("Id");
        assert_eq!(
            el.style_atoms(),
            [tag_atom("p"), class_atom("b"), class_atom("c")]
        );
        el.remove_attribute("class");
        assert_eq!(el.style_atoms(), [tag_atom("p")]);
    }

    #[test]
    fn node_kind_accessors() {
        let el = NodeKind::Element(ElementData::new("p"));
        assert!(el.as_element().is_some());
        assert!(el.as_text().is_none());
        let text = NodeKind::Text("hi".into());
        assert_eq!(text.as_text(), Some("hi"));
        assert!(text.as_element().is_none());
    }
}
