//! Arena-backed document tree.
//!
//! Nodes are stored in a `Vec` and addressed by [`NodeId`]; sibling/child
//! relationships are intrusive indices. Removal unlinks a subtree but does
//! not reclaim slots (documents in the simulator are short-lived), which
//! keeps every `NodeId` stable for the lifetime of the [`Document`] — a
//! property the engine's dirty-tracking and the CSS style cache rely on.

use crate::node::{ElementData, NodeKind};
use std::fmt;

/// A stable handle to a node within one [`Document`].
///
/// `NodeId`s are never reused; a detached node keeps its id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// Index into the document arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

#[derive(Debug, Clone)]
struct NodeSlot {
    kind: NodeKind,
    parent: Option<NodeId>,
    first_child: Option<NodeId>,
    last_child: Option<NodeId>,
    prev_sibling: Option<NodeId>,
    next_sibling: Option<NodeId>,
}

impl NodeSlot {
    fn new(kind: NodeKind) -> Self {
        NodeSlot {
            kind,
            parent: None,
            first_child: None,
            last_child: None,
            prev_sibling: None,
            next_sibling: None,
        }
    }
}

/// A DOM document: an arena of nodes rooted at [`Document::root`].
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<NodeSlot>,
    root: NodeId,
}

impl Document {
    /// Creates an empty document containing only the root node.
    pub fn new() -> Self {
        Document {
            nodes: vec![NodeSlot::new(NodeKind::Document)],
            root: NodeId(0),
        }
    }

    /// The document root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Total number of nodes ever allocated (including detached ones).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the document contains only the root node.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    fn slot(&self, id: NodeId) -> &NodeSlot {
        &self.nodes[id.index()]
    }

    fn slot_mut(&mut self, id: NodeId) -> &mut NodeSlot {
        &mut self.nodes[id.index()]
    }

    /// Allocates a detached node of the given kind.
    pub fn create_node(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeSlot::new(kind));
        id
    }

    /// Allocates a detached element node with tag `tag`.
    pub fn create_element(&mut self, tag: impl Into<String>) -> NodeId {
        self.create_node(NodeKind::Element(ElementData::new(tag)))
    }

    /// Allocates a detached text node.
    pub fn create_text(&mut self, text: impl Into<String>) -> NodeId {
        self.create_node(NodeKind::Text(text.into()))
    }

    /// Recovers the [`NodeId`] for a raw arena index, if in range. Used by
    /// embedders (the script host) that pass node handles across an
    /// untyped boundary.
    pub fn node_at(&self, index: usize) -> Option<NodeId> {
        if index < self.nodes.len() {
            Some(NodeId(index as u32))
        } else {
            None
        }
    }

    /// The node's kind.
    pub fn kind(&self, id: NodeId) -> &NodeKind {
        &self.slot(id).kind
    }

    /// Mutable access to the node's kind.
    pub fn kind_mut(&mut self, id: NodeId) -> &mut NodeKind {
        &mut self.slot_mut(id).kind
    }

    /// The element payload, if `id` is an element.
    pub fn element(&self, id: NodeId) -> Option<&ElementData> {
        self.slot(id).kind.as_element()
    }

    /// Mutable element payload, if `id` is an element.
    pub fn element_mut(&mut self, id: NodeId) -> Option<&mut ElementData> {
        self.slot_mut(id).kind.as_element_mut()
    }

    /// The lowercase tag name, if `id` is an element.
    pub fn tag_name(&self, id: NodeId) -> Option<&str> {
        self.element(id).map(ElementData::tag)
    }

    /// Parent node, if attached.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.slot(id).parent
    }

    /// First child, if any.
    pub fn first_child(&self, id: NodeId) -> Option<NodeId> {
        self.slot(id).first_child
    }

    /// Last child, if any.
    pub fn last_child(&self, id: NodeId) -> Option<NodeId> {
        self.slot(id).last_child
    }

    /// Next sibling, if any.
    pub fn next_sibling(&self, id: NodeId) -> Option<NodeId> {
        self.slot(id).next_sibling
    }

    /// Previous sibling, if any.
    pub fn prev_sibling(&self, id: NodeId) -> Option<NodeId> {
        self.slot(id).prev_sibling
    }

    /// Appends `child` as the last child of `parent`.
    ///
    /// # Panics
    ///
    /// Panics if `child` is the root, is already attached, or if the append
    /// would create a cycle (`parent` inside `child`'s subtree).
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) {
        assert_ne!(child, self.root, "cannot attach the document root");
        assert!(
            self.slot(child).parent.is_none(),
            "node is already attached; detach it first"
        );
        assert!(
            !self.is_ancestor_or_self(child, parent),
            "append would create a cycle"
        );
        let old_last = self.slot(parent).last_child;
        match old_last {
            Some(last) => {
                self.slot_mut(last).next_sibling = Some(child);
                self.slot_mut(child).prev_sibling = Some(last);
            }
            None => self.slot_mut(parent).first_child = Some(child),
        }
        self.slot_mut(parent).last_child = Some(child);
        self.slot_mut(child).parent = Some(parent);
    }

    /// Detaches `id` (and its subtree) from its parent. No-op if detached.
    pub fn detach(&mut self, id: NodeId) {
        let (parent, prev, next) = {
            let slot = self.slot(id);
            (slot.parent, slot.prev_sibling, slot.next_sibling)
        };
        let Some(parent) = parent else { return };
        match prev {
            Some(prev) => self.slot_mut(prev).next_sibling = next,
            None => self.slot_mut(parent).first_child = next,
        }
        match next {
            Some(next) => self.slot_mut(next).prev_sibling = prev,
            None => self.slot_mut(parent).last_child = prev,
        }
        let slot = self.slot_mut(id);
        slot.parent = None;
        slot.prev_sibling = None;
        slot.next_sibling = None;
    }

    /// Whether `ancestor` is `node` itself or one of its ancestors.
    pub fn is_ancestor_or_self(&self, ancestor: NodeId, node: NodeId) -> bool {
        let mut cur = Some(node);
        while let Some(id) = cur {
            if id == ancestor {
                return true;
            }
            cur = self.parent(id);
        }
        false
    }

    /// Iterates over the children of `id`.
    pub fn children(&self, id: NodeId) -> Children<'_> {
        Children {
            doc: self,
            next: self.first_child(id),
        }
    }

    /// Iterates over the ancestors of `id`, starting from its parent and
    /// ending at the root.
    pub fn ancestors(&self, id: NodeId) -> Ancestors<'_> {
        Ancestors {
            doc: self,
            next: self.parent(id),
        }
    }

    /// Depth-first pre-order traversal of the subtree rooted at `id`
    /// (including `id` itself). Follows the tree links, so it allocates
    /// nothing.
    pub fn descendants(&self, id: NodeId) -> Descendants<'_> {
        Descendants {
            doc: self,
            root: id,
            next: Some(id),
        }
    }

    /// All element nodes in document order.
    pub fn elements(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.descendants(self.root)
            .filter(|&id| self.element(id).is_some())
    }

    /// Finds the first element whose `id` attribute equals `id_value`.
    pub fn element_by_id(&self, id_value: &str) -> Option<NodeId> {
        self.elements()
            .find(|&id| self.element(id).and_then(ElementData::id) == Some(id_value))
    }

    /// All elements with the given lowercase tag name, in document order.
    pub fn elements_by_tag(&self, tag: &str) -> Vec<NodeId> {
        let tag = tag.to_ascii_lowercase();
        self.elements()
            .filter(|&id| self.tag_name(id) == Some(tag.as_str()))
            .collect()
    }

    /// Concatenated text content of the subtree rooted at `id`.
    pub fn text_content(&self, id: NodeId) -> String {
        let mut out = String::new();
        for node in self.descendants(id) {
            if let Some(text) = self.kind(node).as_text() {
                out.push_str(text);
            }
        }
        out
    }

    /// Depth of `id` below the root (the root has depth 0).
    pub fn depth(&self, id: NodeId) -> usize {
        self.ancestors(id).count()
    }

    /// Serializes the subtree rooted at `id` back to HTML-ish markup.
    pub fn serialize(&self, id: NodeId) -> String {
        let mut out = String::new();
        self.serialize_into(id, &mut out);
        out
    }

    fn serialize_into(&self, id: NodeId, out: &mut String) {
        match self.kind(id) {
            NodeKind::Document => {
                for child in self.children(id) {
                    self.serialize_into(child, out);
                }
            }
            NodeKind::Element(el) => {
                out.push_str(&el.to_string());
                for child in self.children(id) {
                    self.serialize_into(child, out);
                }
                out.push_str(&format!("</{}>", el.tag()));
            }
            NodeKind::Text(text) => out.push_str(text),
            NodeKind::Comment(text) => out.push_str(&format!("<!--{text}-->")),
        }
    }
}

impl Default for Document {
    fn default() -> Self {
        Document::new()
    }
}

/// Iterator over the children of a node. See [`Document::children`].
#[derive(Debug)]
pub struct Children<'a> {
    doc: &'a Document,
    next: Option<NodeId>,
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.next?;
        self.next = self.doc.next_sibling(id);
        Some(id)
    }
}

/// Iterator over the ancestors of a node. See [`Document::ancestors`].
#[derive(Debug)]
pub struct Ancestors<'a> {
    doc: &'a Document,
    next: Option<NodeId>,
}

impl Iterator for Ancestors<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.next?;
        self.next = self.doc.parent(id);
        Some(id)
    }
}

/// Pre-order depth-first iterator. See [`Document::descendants`].
#[derive(Debug)]
pub struct Descendants<'a> {
    doc: &'a Document,
    root: NodeId,
    next: Option<NodeId>,
}

impl Iterator for Descendants<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.next?;
        // Descend to the first child; failing that, climb until a node
        // below the subtree root has a next sibling.
        self.next = self.doc.first_child(id).or_else(|| {
            let mut cur = id;
            while cur != self.root {
                if let Some(sibling) = self.doc.next_sibling(cur) {
                    return Some(sibling);
                }
                cur = self.doc.parent(cur)?;
            }
            None
        });
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Document, NodeId, NodeId, NodeId) {
        let mut doc = Document::new();
        let div = doc.create_element("div");
        let p = doc.create_element("p");
        let text = doc.create_text("hello");
        doc.append_child(doc.root(), div);
        doc.append_child(div, p);
        doc.append_child(p, text);
        (doc, div, p, text)
    }

    #[test]
    fn append_links_children_in_order() {
        let mut doc = Document::new();
        let a = doc.create_element("a");
        let b = doc.create_element("b");
        let c = doc.create_element("c");
        let root = doc.root();
        doc.append_child(root, a);
        doc.append_child(root, b);
        doc.append_child(root, c);
        let kids: Vec<_> = doc.children(root).collect();
        assert_eq!(kids, vec![a, b, c]);
        assert_eq!(doc.prev_sibling(b), Some(a));
        assert_eq!(doc.next_sibling(b), Some(c));
        assert_eq!(doc.first_child(root), Some(a));
        assert_eq!(doc.last_child(root), Some(c));
    }

    #[test]
    fn detach_middle_child_relinks_siblings() {
        let mut doc = Document::new();
        let root = doc.root();
        let a = doc.create_element("a");
        let b = doc.create_element("b");
        let c = doc.create_element("c");
        doc.append_child(root, a);
        doc.append_child(root, b);
        doc.append_child(root, c);
        doc.detach(b);
        let kids: Vec<_> = doc.children(root).collect();
        assert_eq!(kids, vec![a, c]);
        assert_eq!(doc.parent(b), None);
        assert_eq!(doc.next_sibling(a), Some(c));
        assert_eq!(doc.prev_sibling(c), Some(a));
    }

    #[test]
    fn detach_is_idempotent() {
        let (mut doc, div, ..) = sample();
        doc.detach(div);
        doc.detach(div);
        assert_eq!(doc.parent(div), None);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn append_rejects_cycles() {
        let (mut doc, div, p, _) = sample();
        doc.detach(div);
        // div is an ancestor of p; attaching div under p would be a cycle.
        doc.append_child(p, div);
    }

    #[test]
    #[should_panic(expected = "already attached")]
    fn append_rejects_attached_nodes() {
        let (mut doc, div, _, _) = sample();
        let root = doc.root();
        doc.append_child(root, div);
    }

    #[test]
    fn ancestors_walks_to_root() {
        let (doc, div, p, text) = sample();
        let chain: Vec<_> = doc.ancestors(text).collect();
        assert_eq!(chain, vec![p, div, doc.root()]);
    }

    #[test]
    fn descendants_is_preorder() {
        let (doc, div, p, text) = sample();
        let order: Vec<_> = doc.descendants(doc.root()).collect();
        assert_eq!(order, vec![doc.root(), div, p, text]);
    }

    #[test]
    fn descendants_stays_inside_the_subtree() {
        let mut doc = Document::new();
        let root = doc.root();
        let [a, a1, a2, a2x, b, b1] =
            ["a", "a1", "a2", "a2x", "b", "b1"].map(|t| doc.create_element(t));
        doc.append_child(root, a);
        doc.append_child(a, a1);
        doc.append_child(a, a2);
        doc.append_child(a2, a2x);
        doc.append_child(root, b);
        doc.append_child(b, b1);
        let all: Vec<_> = doc.descendants(root).collect();
        assert_eq!(all, vec![root, a, a1, a2, a2x, b, b1]);
        // A subtree walk ends at its root's last descendant, not at the
        // root's next sibling.
        assert_eq!(doc.descendants(a).collect::<Vec<_>>(), vec![a, a1, a2, a2x]);
        assert_eq!(doc.descendants(a2).collect::<Vec<_>>(), vec![a2, a2x]);
        assert_eq!(doc.descendants(a1).collect::<Vec<_>>(), vec![a1]);
        doc.detach(a);
        assert_eq!(doc.descendants(a).count(), 4);
        assert_eq!(doc.descendants(root).collect::<Vec<_>>(), vec![root, b, b1]);
    }

    #[test]
    fn element_by_id_finds_element() {
        let (mut doc, _, p, _) = sample();
        doc.element_mut(p).unwrap().set_attribute("id", "para");
        assert_eq!(doc.element_by_id("para"), Some(p));
        assert_eq!(doc.element_by_id("missing"), None);
    }

    #[test]
    fn text_content_concatenates() {
        let (mut doc, div, ..) = sample();
        let more = doc.create_text(" world");
        doc.append_child(div, more);
        assert_eq!(doc.text_content(div), "hello world");
    }

    #[test]
    fn depth_counts_edges() {
        let (doc, div, p, text) = sample();
        assert_eq!(doc.depth(doc.root()), 0);
        assert_eq!(doc.depth(div), 1);
        assert_eq!(doc.depth(p), 2);
        assert_eq!(doc.depth(text), 3);
    }

    #[test]
    fn serialize_round_trips_structure() {
        let (mut doc, div, ..) = sample();
        doc.element_mut(div).unwrap().set_attribute("id", "d");
        assert_eq!(
            doc.serialize(doc.root()),
            "<div id=\"d\"><p>hello</p></div>"
        );
    }

    #[test]
    fn elements_by_tag_is_case_insensitive() {
        let (doc, div, ..) = sample();
        assert_eq!(doc.elements_by_tag("DIV"), vec![div]);
    }
}
