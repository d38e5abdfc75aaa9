//! The browser's script host: the native functions event callbacks can
//! call, and the effect log the engine applies when a callback's CPU time
//! has been accounted for.
//!
//! DOM reads and writes happen immediately (later statements in the same
//! callback must see them); *scheduling* effects — dirty marking, rAF and
//! timer registration, transitions armed by style writes — are recorded
//! in [`CallbackEffects`] and applied by the engine when the callback's
//! simulated execution completes.

use greenweb_css::stylesheet::parse_declarations_str;
use greenweb_css::value::CssValue;
use greenweb_dom::{Document, EventType, NodeId};
use greenweb_script::{Host, ScriptError, Value};

/// An `animate(el, prop, to, duration)` call — the stand-in for the
/// jQuery-style `animate()` that AUTOGREEN detects (Sec. 5).
#[derive(Debug, Clone, PartialEq)]
pub struct AnimateCall {
    /// Target element.
    pub node: NodeId,
    /// Animated property.
    pub property: String,
    /// Final value in pixels.
    pub to_px: f64,
    /// Duration in milliseconds.
    pub duration_ms: f64,
}

/// One inline style write performed by a callback.
#[derive(Debug, Clone, PartialEq)]
pub struct StyleWrite {
    /// Target element.
    pub node: NodeId,
    /// Property name (lowercase).
    pub property: String,
    /// The previous inline value, if any (used to start transitions).
    pub old: Option<CssValue>,
    /// The new value.
    pub new: CssValue,
}

/// Everything a callback asked the browser to do.
#[derive(Debug, Clone, Default)]
pub struct CallbackEffects {
    /// The callback requested a repaint (explicitly or via DOM mutation).
    pub dirty: bool,
    /// The callback mutated DOM *structure* (append/remove/setText).
    pub tree_mutated: bool,
    /// Nodes whose attributes `setAttribute` wrote, in call order. The
    /// engine checks these against the static summary's attribute-target
    /// set.
    pub attr_writes: Vec<NodeId>,
    /// `requestAnimationFrame` registrations, in call order.
    pub raf: Vec<Value>,
    /// `setTimeout` registrations: `(callback, delay in ms)`.
    pub timers: Vec<(Value, f64)>,
    /// Explicit CPU work requested via `work(cycles)`.
    pub work_cycles: f64,
    /// Explicit frequency-independent work via `gpuWork(ms)`.
    pub gpu_ms: f64,
    /// Inline style writes, in call order.
    pub style_writes: Vec<StyleWrite>,
    /// Event listener registrations.
    pub listeners: Vec<(NodeId, EventType, Value)>,
    /// `animate()` calls.
    pub animates: Vec<AnimateCall>,
    /// `log()` output.
    pub logs: Vec<String>,
}

impl CallbackEffects {
    /// Whether the callback used `requestAnimationFrame` — one of
    /// AUTOGREEN's "continuous" signals.
    pub fn used_raf(&self) -> bool {
        !self.raf.is_empty()
    }

    /// Whether the callback used `animate()` — another "continuous"
    /// signal.
    pub fn used_animate(&self) -> bool {
        !self.animates.is_empty()
    }
}

/// The host passed to the script VM while one callback runs.
#[derive(Debug)]
pub struct ScriptHost<'a> {
    doc: &'a mut Document,
    now_ms: f64,
    /// The accumulated effects, drained by the engine afterwards.
    pub effects: CallbackEffects,
}

impl<'a> ScriptHost<'a> {
    /// Creates a host over `doc` with the virtual clock at `now_ms`.
    pub fn new(doc: &'a mut Document, now_ms: f64) -> Self {
        ScriptHost {
            doc,
            now_ms,
            effects: CallbackEffects::default(),
        }
    }

    fn node_arg(&self, args: &[Value], i: usize, fn_name: &str) -> Result<NodeId, ScriptError> {
        let idx = args
            .get(i)
            .and_then(Value::as_number)
            .ok_or_else(|| ScriptError::new(format!("{fn_name}: expected element handle")))?;
        self.doc
            .node_at(idx as usize)
            .ok_or_else(|| ScriptError::new(format!("{fn_name}: invalid element handle {idx}")))
    }

    fn str_arg(args: &[Value], i: usize, fn_name: &str) -> Result<String, ScriptError> {
        args.get(i)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| ScriptError::new(format!("{fn_name}: expected string argument")))
    }

    fn num_arg(args: &[Value], i: usize, fn_name: &str) -> Result<f64, ScriptError> {
        args.get(i)
            .and_then(Value::as_number)
            .ok_or_else(|| ScriptError::new(format!("{fn_name}: expected number argument")))
    }

    fn fn_arg(args: &[Value], i: usize, fn_name: &str) -> Result<Value, ScriptError> {
        match args.get(i) {
            // Either backend's function representation is a callback:
            // tree-walker closures and compiled VM closures register and
            // dispatch identically.
            Some(v @ (Value::Function(_) | Value::VmFunction(_))) => Ok(v.clone()),
            _ => Err(ScriptError::new(format!(
                "{fn_name}: expected function argument"
            ))),
        }
    }

    /// Reads a property from an element's inline style.
    fn inline_style_value(&self, node: NodeId, property: &str) -> Option<CssValue> {
        let style = self.doc.element(node)?.attribute("style")?;
        let decls = parse_declarations_str(style).ok()?;
        decls
            .into_iter()
            .rev()
            .find(|d| d.property == property)
            .map(|d| d.value)
    }

    /// Merges `property: raw_value` into the element's `style` attribute.
    fn write_inline_style(&mut self, node: NodeId, property: &str, raw_value: &str) {
        let existing = self
            .doc
            .element(node)
            .and_then(|el| el.attribute("style"))
            .unwrap_or("")
            .to_string();
        let mut decls = parse_declarations_str(&existing).unwrap_or_default();
        decls.retain(|d| d.property != property);
        let mut css = String::new();
        for d in &decls {
            css.push_str(&format!("{}: {}; ", d.property, d.value));
        }
        css.push_str(&format!("{property}: {raw_value}"));
        if let Some(el) = self.doc.element_mut(node) {
            el.set_attribute("style", css);
        }
    }
}

impl Host for ScriptHost<'_> {
    fn call(&mut self, name: &str, args: &[Value]) -> Option<Result<Value, ScriptError>> {
        let result = match name {
            "getElementById" => (|| {
                let id = Self::str_arg(args, 0, name)?;
                Ok(match self.doc.element_by_id(&id) {
                    Some(node) => Value::Number(node.index() as f64),
                    None => Value::Null,
                })
            })(),
            "document" => Ok(Value::Number(self.doc.root().index() as f64)),
            "getAttribute" => (|| {
                let node = self.node_arg(args, 0, name)?;
                let attr = Self::str_arg(args, 1, name)?;
                Ok(self
                    .doc
                    .element(node)
                    .and_then(|el| el.attribute(&attr))
                    .map_or(Value::Null, Value::str))
            })(),
            "setAttribute" => (|| {
                let node = self.node_arg(args, 0, name)?;
                let attr = Self::str_arg(args, 1, name)?;
                let value = args
                    .get(2)
                    .map(std::string::ToString::to_string)
                    .unwrap_or_default();
                if let Some(el) = self.doc.element_mut(node) {
                    el.set_attribute(attr, value);
                }
                self.effects.dirty = true;
                self.effects.attr_writes.push(node);
                Ok(Value::Null)
            })(),
            "setStyle" => (|| {
                let node = self.node_arg(args, 0, name)?;
                let property = Self::str_arg(args, 1, name)?.to_ascii_lowercase();
                let raw = match args.get(2) {
                    Some(Value::Number(n)) => format!("{n}px"),
                    Some(other) => other.to_string(),
                    None => return Err(ScriptError::new("setStyle: missing value")),
                };
                let old = self.inline_style_value(node, &property);
                self.write_inline_style(node, &property, &raw);
                let new = self
                    .inline_style_value(node, &property)
                    .unwrap_or(CssValue::Keyword(raw));
                self.effects.style_writes.push(StyleWrite {
                    node,
                    property,
                    old,
                    new,
                });
                self.effects.dirty = true;
                Ok(Value::Null)
            })(),
            "getStyle" => (|| {
                let node = self.node_arg(args, 0, name)?;
                let property = Self::str_arg(args, 1, name)?.to_ascii_lowercase();
                Ok(self
                    .inline_style_value(node, &property)
                    .map_or(Value::Null, |v| Value::str(v.to_string())))
            })(),
            "addEventListener" => (|| {
                let node = self.node_arg(args, 0, name)?;
                let event: EventType = Self::str_arg(args, 1, name)?
                    .parse()
                    .map_err(|e| ScriptError::new(format!("{name}: {e}")))?;
                let callback = Self::fn_arg(args, 2, name)?;
                self.effects.listeners.push((node, event, callback));
                Ok(Value::Null)
            })(),
            "requestAnimationFrame" => (|| {
                let callback = Self::fn_arg(args, 0, name)?;
                self.effects.raf.push(callback);
                Ok(Value::Number(self.effects.raf.len() as f64))
            })(),
            "setTimeout" => (|| {
                let callback = Self::fn_arg(args, 0, name)?;
                let delay = Self::num_arg(args, 1, name)?.max(0.0);
                self.effects.timers.push((callback, delay));
                Ok(Value::Number(self.effects.timers.len() as f64))
            })(),
            "work" => (|| {
                let cycles = Self::num_arg(args, 0, name)?;
                if cycles < 0.0 {
                    return Err(ScriptError::new("work: negative cycles"));
                }
                self.effects.work_cycles += cycles;
                Ok(Value::Null)
            })(),
            "gpuWork" => (|| {
                let ms = Self::num_arg(args, 0, name)?;
                if ms < 0.0 {
                    return Err(ScriptError::new("gpuWork: negative duration"));
                }
                self.effects.gpu_ms += ms;
                Ok(Value::Null)
            })(),
            "markDirty" => {
                self.effects.dirty = true;
                Ok(Value::Null)
            }
            "now" => Ok(Value::Number(self.now_ms)),
            "log" => {
                let msg = args
                    .iter()
                    .map(std::string::ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(" ");
                self.effects.logs.push(msg);
                Ok(Value::Null)
            }
            "animate" => (|| {
                let node = self.node_arg(args, 0, name)?;
                let property = Self::str_arg(args, 1, name)?.to_ascii_lowercase();
                let to_px = Self::num_arg(args, 2, name)?;
                let duration_ms = Self::num_arg(args, 3, name)?;
                self.effects.animates.push(AnimateCall {
                    node,
                    property,
                    to_px,
                    duration_ms,
                });
                self.effects.dirty = true;
                Ok(Value::Null)
            })(),
            "createElement" => (|| {
                let tag = Self::str_arg(args, 0, name)?;
                let node = self.doc.create_element(tag);
                Ok(Value::Number(node.index() as f64))
            })(),
            "appendChild" => (|| {
                let parent = self.node_arg(args, 0, name)?;
                let child = self.node_arg(args, 1, name)?;
                self.doc.append_child(parent, child);
                self.effects.dirty = true;
                self.effects.tree_mutated = true;
                Ok(Value::Null)
            })(),
            "removeChild" => (|| {
                let node = self.node_arg(args, 0, name)?;
                self.doc.detach(node);
                self.effects.dirty = true;
                self.effects.tree_mutated = true;
                Ok(Value::Null)
            })(),
            "setText" => (|| {
                let node = self.node_arg(args, 0, name)?;
                let text = args
                    .get(1)
                    .map(std::string::ToString::to_string)
                    .unwrap_or_default();
                let children: Vec<NodeId> = self.doc.children(node).collect();
                for child in children {
                    self.doc.detach(child);
                }
                let text_node = self.doc.create_text(text);
                self.doc.append_child(node, text_node);
                self.effects.dirty = true;
                self.effects.tree_mutated = true;
                Ok(Value::Null)
            })(),
            "elementCount" => Ok(Value::Number(self.doc.elements().count() as f64)),
            _ => return None,
        };
        Some(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenweb_dom::parse_html;
    use greenweb_script::Vm;

    fn run_script(html: &str, src: &str) -> (Document, CallbackEffects) {
        let mut doc = parse_html(html).unwrap();
        let mut host = ScriptHost::new(&mut doc, 42.0);
        Vm::new().run_source(src, &mut host).unwrap();
        let effects = host.effects;
        (doc, effects)
    }

    #[test]
    fn get_element_by_id_and_attributes() {
        let (_, fx) = run_script(
            "<div id='x' data-n='5'></div>",
            "var el = getElementById('x');
             var n = getAttribute(el, 'data-n');
             log(n);
             var missing = getElementById('nope');
             log(missing == null ? 'null' : 'found');",
        );
        assert_eq!(fx.logs, vec!["5", "null"]);
    }

    #[test]
    fn set_style_records_old_and_new() {
        let (doc, fx) = run_script(
            "<div id='x' style='width: 100px'></div>",
            "setStyle(getElementById('x'), 'width', 500);",
        );
        assert_eq!(fx.style_writes.len(), 1);
        let w = &fx.style_writes[0];
        assert_eq!(w.property, "width");
        assert_eq!(w.old.as_ref().and_then(CssValue::as_number), Some(100.0));
        assert_eq!(w.new.as_number(), Some(500.0));
        assert!(fx.dirty);
        // Inline style actually updated in the DOM.
        let x = doc.element_by_id("x").unwrap();
        let style = doc.element(x).unwrap().attribute("style").unwrap();
        assert!(style.contains("width: 500px"), "style = {style}");
    }

    #[test]
    fn set_style_preserves_other_properties() {
        let (doc, _) = run_script(
            "<div id='x' style='height: 10px; width: 1px'></div>",
            "setStyle(getElementById('x'), 'width', 2);",
        );
        let x = doc.element_by_id("x").unwrap();
        let style = doc.element(x).unwrap().attribute("style").unwrap();
        assert!(style.contains("height: 10px"));
        assert!(style.contains("width: 2px"));
    }

    #[test]
    fn script_writes_move_dom_versions_and_reads_do_not() {
        let html = "<div id='x' class='a'><p id='p'>hi</p></div><i id='y'></i>";
        let base = parse_html(html).unwrap();
        let node = |doc: &Document, id: &str| doc.element_by_id(id).unwrap();
        let (read, _) = run_script(
            html,
            "var x = getElementById('x'); log(getAttribute(x, 'class'));",
        );
        assert_eq!(
            read.version(node(&read, "x")),
            base.version(node(&base, "x"))
        );
        assert_eq!(read.structure_version(), base.structure_version());
        for (src, moved) in [
            ("setAttribute(getElementById('x'), 'class', 'b');", "x"),
            ("setAttribute(getElementById('x'), 'class', 'a');", "x"),
            ("setStyle(getElementById('y'), 'width', 3);", "y"),
        ] {
            let (doc, _) = run_script(html, src);
            assert!(
                doc.version(node(&doc, moved)) > base.version(node(&base, moved)),
                "{src}"
            );
            assert_eq!(doc.structure_version(), base.structure_version(), "{src}");
        }
        // setText swaps in a fresh text node: a structure change.
        let (doc, _) = run_script(html, "setText(getElementById('p'), 'ho');");
        assert!(doc.structure_version() > base.structure_version());
    }

    #[test]
    fn raf_and_timers_recorded() {
        let (_, fx) = run_script(
            "<div id='x'></div>",
            "requestAnimationFrame(function(t) { markDirty(); });
             setTimeout(function() { work(100); }, 50);",
        );
        assert!(fx.used_raf());
        assert_eq!(fx.timers.len(), 1);
        assert_eq!(fx.timers[0].1, 50.0);
    }

    #[test]
    fn work_accumulates() {
        let (_, fx) = run_script("<p></p>", "work(1000); work(500); gpuWork(2);");
        assert_eq!(fx.work_cycles, 1500.0);
        assert_eq!(fx.gpu_ms, 2.0);
    }

    #[test]
    fn negative_work_errors() {
        let mut doc = parse_html("<p></p>").unwrap();
        let mut host = ScriptHost::new(&mut doc, 0.0);
        assert!(Vm::new().run_source("work(-1);", &mut host).is_err());
    }

    #[test]
    fn add_event_listener_records() {
        let (_, fx) = run_script(
            "<button id='b'></button>",
            "addEventListener(getElementById('b'), 'click', function(e) { markDirty(); });",
        );
        assert_eq!(fx.listeners.len(), 1);
        assert_eq!(fx.listeners[0].1, EventType::Click);
    }

    #[test]
    fn bad_event_name_errors() {
        let mut doc = parse_html("<p id='p'></p>").unwrap();
        let mut host = ScriptHost::new(&mut doc, 0.0);
        let src = "addEventListener(getElementById('p'), 'hover', function(){});";
        assert!(Vm::new().run_source(src, &mut host).is_err());
    }

    #[test]
    fn animate_records_call() {
        let (_, fx) = run_script(
            "<div id='x'></div>",
            "animate(getElementById('x'), 'width', 300, 1000);",
        );
        assert!(fx.used_animate());
        assert_eq!(fx.animates[0].to_px, 300.0);
        assert!(fx.dirty);
    }

    #[test]
    fn dom_mutation_marks_dirty() {
        let (doc, fx) = run_script(
            "<ul id='list'></ul>",
            "var li = createElement('li');
             appendChild(getElementById('list'), li);
             setText(li, 'item ' + 1);",
        );
        assert!(fx.dirty);
        assert_eq!(doc.elements_by_tag("li").len(), 1);
        assert_eq!(doc.text_content(doc.root()), "item 1");
    }

    #[test]
    fn now_reports_virtual_clock() {
        let (_, fx) = run_script("<p></p>", "log(now());");
        assert_eq!(fx.logs, vec!["42"]);
    }

    #[test]
    fn unknown_function_propagates_none() {
        let mut doc = parse_html("<p></p>").unwrap();
        let mut host = ScriptHost::new(&mut doc, 0.0);
        let err = Vm::new().run_source("fooBar();", &mut host).unwrap_err();
        assert!(err.to_string().contains("undefined function"));
    }
}
