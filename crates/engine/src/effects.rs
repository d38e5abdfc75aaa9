//! Static per-handler effect summaries and their containment contract.
//!
//! The analyzer (`greenweb-analyze`) abstractly interprets each event
//! handler's bytecode and produces an [`EffectSummary`]: a sound
//! *over-approximation* of everything the callback can ask the browser to
//! do. After every summarized callback returns, the engine checks the
//! observed [`CallbackEffects`] for containment in the static summary
//! (`dynamic ⊆ static`, the analyzer's correctness contract) and records
//! any violation in the run report.
//!
//! The lattice is ordered by approximation strength: `pure` (bottom)
//! admits nothing, `top` admits everything. [`EffectSummary::join`] is
//! the least upper bound used when the analyzer merges branches; may-style
//! facts join with ∨/max/∪ while must-style facts (`rafs_min`,
//! `animates_min`) join with min so a guarantee survives only if every
//! branch provides it.

use crate::host::CallbackEffects;
use greenweb_dom::{Document, EventType, NodeId};
use greenweb_trace::json::{self, Fixed, ToJson};
use std::collections::BTreeSet;

/// Where a statically tracked attribute or inline-style write can land.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EffectTarget {
    /// Exactly this node (only producible by hand-built summaries; the
    /// analyzer never resolves ids statically because `setAttribute` can
    /// re-route id resolution at runtime).
    Node(NodeId),
    /// Some node within the subtree rooted at the listener's registered
    /// node. Sound for writes through `e.target`: dispatch fires a
    /// listener only on the capture/target phases, so the event target is
    /// always a descendant-or-self of the registered node.
    ListenerSubtree,
}

impl ToJson for EffectTarget {
    fn write_json(&self, out: &mut String) {
        match self {
            EffectTarget::Node(n) => format_args!("{n}").write_json(out),
            EffectTarget::ListenerSubtree => "listener-subtree".write_json(out),
        }
    }
}

/// An over-approximated set of write targets.
#[derive(Debug, Clone, PartialEq)]
pub enum TargetSet {
    /// Every write provably lands on one of these targets.
    Known(BTreeSet<EffectTarget>),
    /// At least one write's target could not be bounded.
    Unknown,
}

impl Default for TargetSet {
    fn default() -> Self {
        TargetSet::Known(BTreeSet::new())
    }
}

impl TargetSet {
    /// The empty (bottom) set: no writes at all.
    pub fn empty() -> Self {
        TargetSet::default()
    }

    /// Whether this set provably contains no writes.
    pub fn is_empty(&self) -> bool {
        matches!(self, TargetSet::Known(s) if s.is_empty())
    }

    /// Adds one target, keeping `Unknown` absorbing.
    pub fn insert(&mut self, target: EffectTarget) {
        if let TargetSet::Known(s) = self {
            s.insert(target);
        }
    }

    /// Least upper bound: set union, with `Unknown` absorbing.
    pub fn join(&self, other: &TargetSet) -> TargetSet {
        match (self, other) {
            (TargetSet::Known(a), TargetSet::Known(b)) => {
                TargetSet::Known(a.union(b).copied().collect())
            }
            _ => TargetSet::Unknown,
        }
    }

    /// Lattice order: `self` at least as precise as `other`.
    pub fn leq(&self, other: &TargetSet) -> bool {
        match (self, other) {
            (_, TargetSet::Unknown) => true,
            (TargetSet::Unknown, TargetSet::Known(_)) => false,
            (TargetSet::Known(a), TargetSet::Known(b)) => a.is_subset(b),
        }
    }

    /// Whether a concrete written node is admitted by this set, given the
    /// node the checked listener was registered on.
    fn admits_node(&self, node: NodeId, listener: Option<NodeId>, doc: &Document) -> bool {
        match self {
            TargetSet::Unknown => true,
            TargetSet::Known(s) => s.iter().any(|t| match t {
                EffectTarget::Node(n) => *n == node,
                EffectTarget::ListenerSubtree => {
                    listener.is_some_and(|l| l == node || doc.ancestors(node).any(|a| a == l))
                }
            }),
        }
    }
}

impl ToJson for TargetSet {
    fn write_json(&self, out: &mut String) {
        match self {
            TargetSet::Unknown => "unknown".write_json(out),
            TargetSet::Known(targets) => {
                json::array(out, |a| {
                    for target in targets {
                        a.item(target);
                    }
                });
            }
        }
    }
}

/// A sound over-approximation of one handler's possible effects.
///
/// Upper bounds (`timers`, `rafs`, `work_cycles`, `gpu_ms`) use
/// `Option`: `None` means statically unbounded. Lower bounds
/// (`rafs_min`, `animates_min`) are guarantees that hold on *every*
/// execution path; they feed AUTOGREEN's static continuity signal and
/// are `0` whenever nothing can be guaranteed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EffectSummary {
    /// The analyzer gave up (unanalyzable op, unknown callee, truncated
    /// exploration): every other may-field is at its weakest value and
    /// the summary admits any observed effects.
    pub top: bool,
    /// May mutate DOM structure (`appendChild`/`removeChild`/`setText`).
    pub may_mutate_tree: bool,
    /// Bound on `setAttribute` targets.
    pub attr_targets: TargetSet,
    /// Bound on `setStyle` targets.
    pub style_targets: TargetSet,
    /// May request a repaint (`markDirty` or any dirtying builtin).
    pub may_dirty: bool,
    /// May produce `log()` output.
    pub may_log: bool,
    /// May register new event listeners.
    pub may_add_listener: bool,
    /// May call `animate()`.
    pub may_animate: bool,
    /// Upper bound on `setTimeout` registrations per invocation.
    pub timers: Option<u64>,
    /// May register a timer with a zero (or statically unknown) delay.
    pub zero_delay_timer: bool,
    /// Provably reaches a cycle of zero-delay timer re-registrations — a
    /// timer chain the run budget would otherwise only catch at runtime.
    /// Lint evidence only; not part of the containment check.
    pub zero_delay_chain: bool,
    /// Upper bound on `requestAnimationFrame` registrations.
    pub rafs: Option<u64>,
    /// Guaranteed minimum `requestAnimationFrame` registrations.
    pub rafs_min: u64,
    /// Guaranteed minimum `animate()` calls.
    pub animates_min: u64,
    /// Upper bound on explicit `work()` cycles.
    pub work_cycles: Option<f64>,
    /// Upper bound on explicit `gpuWork()` milliseconds.
    pub gpu_ms: Option<f64>,
}

/// Tolerance when comparing observed f64 work against a static bound:
/// the analyzer folds the same literal arithmetic the VM runs, but the
/// two may legally differ by rounding.
const WORK_EPSILON: f64 = 1e-9;

impl EffectSummary {
    /// The bottom element: a provably effect-free handler.
    pub fn pure() -> Self {
        EffectSummary {
            timers: Some(0),
            rafs: Some(0),
            work_cycles: Some(0.0),
            gpu_ms: Some(0.0),
            ..EffectSummary::default()
        }
    }

    /// The top element: nothing is known, everything is admitted.
    pub fn top() -> Self {
        EffectSummary {
            top: true,
            may_mutate_tree: true,
            attr_targets: TargetSet::Unknown,
            style_targets: TargetSet::Unknown,
            may_dirty: true,
            may_log: true,
            may_add_listener: true,
            may_animate: true,
            timers: None,
            zero_delay_timer: true,
            zero_delay_chain: false,
            rafs: None,
            rafs_min: 0,
            animates_min: 0,
            work_cycles: None,
            gpu_ms: None,
        }
    }

    /// Least upper bound of two summaries (branch merge).
    pub fn join(&self, other: &EffectSummary) -> EffectSummary {
        if self.top || other.top {
            let mut t = EffectSummary::top();
            t.zero_delay_chain = self.zero_delay_chain || other.zero_delay_chain;
            t.rafs_min = self.rafs_min.min(other.rafs_min);
            t.animates_min = self.animates_min.min(other.animates_min);
            return t;
        }
        let join_u64 = |a: Option<u64>, b: Option<u64>| Some(a?.max(b?));
        let join_f64 = |a: Option<f64>, b: Option<f64>| Some(f64::max(a?, b?));
        EffectSummary {
            top: false,
            may_mutate_tree: self.may_mutate_tree || other.may_mutate_tree,
            attr_targets: self.attr_targets.join(&other.attr_targets),
            style_targets: self.style_targets.join(&other.style_targets),
            may_dirty: self.may_dirty || other.may_dirty,
            may_log: self.may_log || other.may_log,
            may_add_listener: self.may_add_listener || other.may_add_listener,
            may_animate: self.may_animate || other.may_animate,
            timers: join_u64(self.timers, other.timers),
            zero_delay_timer: self.zero_delay_timer || other.zero_delay_timer,
            zero_delay_chain: self.zero_delay_chain || other.zero_delay_chain,
            rafs: join_u64(self.rafs, other.rafs),
            rafs_min: self.rafs_min.min(other.rafs_min),
            animates_min: self.animates_min.min(other.animates_min),
            work_cycles: join_f64(self.work_cycles, other.work_cycles),
            gpu_ms: join_f64(self.gpu_ms, other.gpu_ms),
        }
    }

    /// Lattice order: every fact in `other` is at least as weak as the
    /// corresponding fact here (`self ⊑ other`).
    pub fn leq(&self, other: &EffectSummary) -> bool {
        if other.top {
            return true;
        }
        if self.top {
            return false;
        }
        let le_u64 = |a: Option<u64>, b: Option<u64>| match (a, b) {
            (_, None) => true,
            (None, Some(_)) => false,
            (Some(x), Some(y)) => x <= y,
        };
        let le_f64 = |a: Option<f64>, b: Option<f64>| match (a, b) {
            (_, None) => true,
            (None, Some(_)) => false,
            (Some(x), Some(y)) => x <= y + WORK_EPSILON,
        };
        (!self.may_mutate_tree || other.may_mutate_tree)
            && self.attr_targets.leq(&other.attr_targets)
            && self.style_targets.leq(&other.style_targets)
            && (!self.may_dirty || other.may_dirty)
            && (!self.may_log || other.may_log)
            && (!self.may_add_listener || other.may_add_listener)
            && (!self.may_animate || other.may_animate)
            && le_u64(self.timers, other.timers)
            && (!self.zero_delay_timer || other.zero_delay_timer)
            && (!self.zero_delay_chain || other.zero_delay_chain)
            && le_u64(self.rafs, other.rafs)
            && other.rafs_min <= self.rafs_min
            && other.animates_min <= self.animates_min
            && le_f64(self.work_cycles, other.work_cycles)
            && le_f64(self.gpu_ms, other.gpu_ms)
    }

    /// Provably no observable effect at all.
    pub fn is_pure(&self) -> bool {
        !self.top
            && !self.may_mutate_tree
            && self.attr_targets.is_empty()
            && self.style_targets.is_empty()
            && !self.may_dirty
            && !self.may_add_listener
            && !self.may_animate
            && !self.may_log
            && self.timers == Some(0)
            && self.rafs == Some(0)
            && self.work_cycles == Some(0.0)
            && self.gpu_ms == Some(0.0)
    }

    /// Provably nothing but `log()` output.
    pub fn is_logs_only(&self) -> bool {
        self.may_log
            && EffectSummary {
                may_log: false,
                ..self.clone()
            }
            .is_pure()
    }

    /// May change the DOM tree shape.
    pub fn may_mutate_structure(&self) -> bool {
        self.top || self.may_mutate_tree
    }

    /// Compact human-readable classification for lints and text reports.
    pub fn describe(&self) -> String {
        if self.top {
            return "top (unanalyzable)".to_string();
        }
        if self.is_pure() {
            return "pure".to_string();
        }
        if self.is_logs_only() {
            return "logs-only".to_string();
        }
        let mut parts = Vec::new();
        if self.may_mutate_tree {
            parts.push("tree".to_string());
        }
        if !self.attr_targets.is_empty() {
            parts.push(match &self.attr_targets {
                TargetSet::Known(_) => "attrs(bounded)".to_string(),
                TargetSet::Unknown => "attrs(unknown)".to_string(),
            });
        }
        if !self.style_targets.is_empty() {
            parts.push(match &self.style_targets {
                TargetSet::Known(_) => "styles(bounded)".to_string(),
                TargetSet::Unknown => "styles(unknown)".to_string(),
            });
        }
        if self.may_dirty {
            parts.push("dirty".to_string());
        }
        if self.may_add_listener {
            parts.push("listeners".to_string());
        }
        if self.may_animate {
            parts.push("animate".to_string());
        }
        match self.timers {
            Some(0) => {}
            Some(n) => parts.push(format!("timers<={n}")),
            None => parts.push("timers(unbounded)".to_string()),
        }
        if self.zero_delay_chain {
            parts.push("zero-delay-chain".to_string());
        }
        match self.rafs {
            Some(0) => {}
            Some(n) => parts.push(format!("rafs<={n}")),
            None => parts.push("rafs(unbounded)".to_string()),
        }
        match self.work_cycles {
            Some(w) if w != 0.0 => parts.push(format!("work<={w:.0}")),
            Some(_) => {}
            None => parts.push("work(unbounded)".to_string()),
        }
        match self.gpu_ms {
            Some(g) if g != 0.0 => parts.push(format!("gpu<={g:.2}ms")),
            Some(_) => {}
            None => parts.push("gpu(unbounded)".to_string()),
        }
        if self.may_log {
            parts.push("logs".to_string());
        }
        parts.join("+")
    }

    /// Checks `observed ⊑ self`: returns one message per escaped effect
    /// (empty means the dynamic effects are contained in the static
    /// summary). `listener` is the node the checked callback was
    /// registered on, used to ground `ListenerSubtree` targets.
    pub fn admits(
        &self,
        observed: &CallbackEffects,
        doc: &Document,
        listener: Option<NodeId>,
    ) -> Vec<String> {
        let mut violations = Vec::new();
        if self.top {
            return violations;
        }
        if observed.tree_mutated && !self.may_mutate_tree {
            violations.push("observed tree mutation; summary proves none".to_string());
        }
        // Target containment is only checkable post-hoc while the tree
        // shape is what it was at dispatch: a callback that moved or
        // detached nodes invalidates ancestor queries, so its write
        // targets go unchecked (the tree-mutation check above still
        // applies).
        if !observed.tree_mutated {
            for &node in &observed.attr_writes {
                if !self.attr_targets.admits_node(node, listener, doc) {
                    violations.push(format!("attribute write on {node} escapes the target set"));
                }
            }
            for write in &observed.style_writes {
                if !self.style_targets.admits_node(write.node, listener, doc) {
                    violations.push(format!(
                        "style write on {} escapes the target set",
                        write.node
                    ));
                }
            }
        }
        if observed.dirty && !self.may_dirty {
            violations.push("observed dirty mark; summary proves none".to_string());
        }
        if !observed.logs.is_empty() && !self.may_log {
            violations.push("observed log output; summary proves none".to_string());
        }
        if !observed.listeners.is_empty() && !self.may_add_listener {
            violations.push("observed listener registration; summary proves none".to_string());
        }
        if !observed.animates.is_empty() && !self.may_animate {
            violations.push("observed animate(); summary proves none".to_string());
        }
        if (observed.animates.len() as u64) < self.animates_min {
            violations.push(format!(
                "observed {} animate() call(s); summary guarantees >= {}",
                observed.animates.len(),
                self.animates_min
            ));
        }
        if let Some(bound) = self.timers {
            if observed.timers.len() as u64 > bound {
                violations.push(format!(
                    "observed {} timer(s); summary bounds them at {bound}",
                    observed.timers.len()
                ));
            }
        }
        if !self.zero_delay_timer && observed.timers.iter().any(|(_, delay)| *delay <= 0.0) {
            violations.push("observed zero-delay timer; summary proves none".to_string());
        }
        if let Some(bound) = self.rafs {
            if observed.raf.len() as u64 > bound {
                violations.push(format!(
                    "observed {} rAF registration(s); summary bounds them at {bound}",
                    observed.raf.len()
                ));
            }
        }
        if (observed.raf.len() as u64) < self.rafs_min {
            violations.push(format!(
                "observed {} rAF registration(s); summary guarantees >= {}",
                observed.raf.len(),
                self.rafs_min
            ));
        }
        if let Some(bound) = self.work_cycles {
            if observed.work_cycles > bound + WORK_EPSILON {
                violations.push(format!(
                    "observed {} work cycles; summary bounds them at {bound}",
                    observed.work_cycles
                ));
            }
        }
        if let Some(bound) = self.gpu_ms {
            if observed.gpu_ms > bound + WORK_EPSILON {
                violations.push(format!(
                    "observed {} gpu ms; summary bounds them at {bound}",
                    observed.gpu_ms
                ));
            }
        }
        violations
    }
}

impl ToJson for EffectSummary {
    /// Deterministic JSON rendering (stable field order).
    fn write_json(&self, out: &mut String) {
        let places = |v: Option<f64>| v.map(|n| Fixed(n, 3));
        json::object(out, |o| {
            o.field("class", self.describe())
                .field("top", self.top)
                .field("tree", self.may_mutate_tree)
                .field("attr_targets", &self.attr_targets)
                .field("style_targets", &self.style_targets)
                .field("dirty", self.may_dirty)
                .field("log", self.may_log)
                .field("listeners", self.may_add_listener)
                .field("animate", self.may_animate)
                .field("timers", self.timers)
                .field("zero_delay_timer", self.zero_delay_timer)
                .field("zero_delay_chain", self.zero_delay_chain)
                .field("rafs", self.rafs)
                .field("rafs_min", self.rafs_min)
                .field("animates_min", self.animates_min)
                .field("work_cycles", places(self.work_cycles))
                .field("gpu_ms", places(self.gpu_ms));
        });
    }
}

/// One handler's static summary, keyed the way dispatch finds callbacks:
/// the registered node, the event type, and the callback's position in
/// that node's listener list (the same closure may be registered on many
/// nodes; each registration gets its own row).
#[derive(Debug, Clone, PartialEq)]
pub struct HandlerSummary {
    /// The node the listener is registered on.
    pub node: NodeId,
    /// The event type the listener reacts to.
    pub event: EventType,
    /// Position within `listener_callbacks(node, event)`.
    pub index: usize,
    /// The inferred summary.
    pub summary: EffectSummary,
}

impl ToJson for HandlerSummary {
    /// Deterministic JSON rendering.
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.field("node", self.node.index())
                .field("event", format_args!("{}", self.event))
                .field("index", self.index)
                .field("summary", &self.summary);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenweb_dom::parse_html;

    #[test]
    fn pure_is_bottom_and_top_is_top() {
        let pure = EffectSummary::pure();
        let top = EffectSummary::top();
        assert!(pure.is_pure());
        assert!(!top.is_pure());
        assert!(pure.leq(&top));
        assert!(!top.leq(&pure));
        assert!(pure.leq(&pure) && top.leq(&top));
    }

    #[test]
    fn join_is_an_upper_bound() {
        let mut a = EffectSummary::pure();
        a.may_dirty = true;
        a.timers = Some(2);
        a.rafs_min = 3;
        let mut b = EffectSummary::pure();
        b.may_mutate_tree = true;
        b.attr_targets.insert(EffectTarget::ListenerSubtree);
        b.rafs_min = 1;
        let j = a.join(&b);
        assert!(a.leq(&j), "a ⊑ a ⊔ b");
        assert!(b.leq(&j), "b ⊑ a ⊔ b");
        assert_eq!(j.rafs_min, 1, "must-facts join with min");
        assert_eq!(j.timers, Some(2));
    }

    #[test]
    fn logs_only_classification() {
        let mut s = EffectSummary::pure();
        s.may_log = true;
        assert!(s.is_logs_only());
        assert!(!s.is_pure());
        assert_eq!(s.describe(), "logs-only");
        s.may_dirty = true;
        assert!(!s.is_logs_only());
    }

    #[test]
    fn admits_checks_subtree_containment() {
        let doc =
            parse_html("<div id='outer'><p id='inner'></p></div><div id='other'></div>").unwrap();
        let outer = doc.element_by_id("outer").unwrap();
        let inner = doc.element_by_id("inner").unwrap();
        let other = doc.element_by_id("other").unwrap();
        let mut s = EffectSummary::pure();
        s.may_dirty = true;
        s.attr_targets.insert(EffectTarget::ListenerSubtree);
        let mut fx = CallbackEffects {
            dirty: true,
            ..CallbackEffects::default()
        };
        fx.attr_writes.push(inner);
        assert!(s.admits(&fx, &doc, Some(outer)).is_empty());
        fx.attr_writes.push(other);
        let violations = s.admits(&fx, &doc, Some(outer));
        assert_eq!(violations.len(), 1, "{violations:?}");
        // Without a listener node, a subtree target grounds nothing.
        assert!(!s.admits(&fx, &doc, None).is_empty());
        // Top admits anything.
        assert!(EffectSummary::top().admits(&fx, &doc, None).is_empty());
    }

    #[test]
    fn admits_flags_escaped_tree_mutation_and_bounds() {
        let doc = parse_html("<p></p>").unwrap();
        let s = EffectSummary::pure();
        let fx = CallbackEffects {
            tree_mutated: true,
            work_cycles: 5.0,
            ..CallbackEffects::default()
        };
        let violations = s.admits(&fx, &doc, None);
        assert!(violations.iter().any(|v| v.contains("tree mutation")));
        assert!(violations.iter().any(|v| v.contains("work cycles")));
    }

    #[test]
    fn must_bounds_are_checked_downward() {
        let doc = parse_html("<p></p>").unwrap();
        let mut s = EffectSummary::top();
        s.rafs_min = 1;
        let fx = CallbackEffects::default();
        // Top admits everything, including a missing guaranteed rAF —
        // the guarantee only means something on a non-top summary.
        assert!(s.admits(&fx, &doc, None).is_empty());
        let mut s = EffectSummary::pure();
        s.rafs = Some(2);
        s.rafs_min = 1;
        assert!(!s.admits(&fx, &doc, None).is_empty());
    }

    #[test]
    fn json_is_deterministic_and_tagged() {
        let render = |value: &dyn ToJson| {
            let mut out = String::new();
            value.write_json(&mut out);
            out
        };
        let s = EffectSummary::pure();
        assert_eq!(render(&s), render(&s));
        assert!(render(&s).contains("\"class\":\"pure\""));
        let h = HandlerSummary {
            node: parse_html("<p id='p'></p>")
                .unwrap()
                .element_by_id("p")
                .unwrap(),
            event: EventType::Click,
            index: 0,
            summary: s,
        };
        assert!(render(&h).starts_with("{\"node\":"));
    }
}
