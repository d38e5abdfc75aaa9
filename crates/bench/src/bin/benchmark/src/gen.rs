//! Seeded synthetic apps for the `dom-*` workloads.
//!
//! The twelve paper apps have 6–82 elements, too few for the style
//! system's rule buckets, Bloom filter and computed-style cache, the
//! layout subtree cache, the display-list diff or effect-gated
//! invalidation to do much work. These apps have hundreds of elements,
//! about 300 rules and a `:QoS`-annotated interaction trace. Everything
//! is drawn from `DetRng`, so one seed always yields byte-identical
//! sources; the program only ever sees the built [`App`] and [`Trace`].

use greenweb_det::DetRng;
use greenweb_engine::{App, Trace};
use std::fmt::Write as _;

/// What the generated handlers do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Handlers {
    /// Taps write inline style and a data attribute on `e.target` (a
    /// `#bar` leaf) and drive a short rAF chain plus a CSS width
    /// transition on it; none of these moves another box. Moves resize
    /// `#pane`. Selector matching never changes, so caches hold.
    Stable,
    /// Taps append a node, remove the previously appended one and flip
    /// the class of the document's top container, which restyles every
    /// element below it and clears the computed-style cache.
    Churn,
}

/// The size of one generated app and its trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Elements in the document, including the fixed frame (`#app`,
    /// `#pane`, `#list` and the `#bar` of tap targets).
    pub elements: usize,
    /// Stylesheet rules besides the fixed frame rules and annotations.
    pub rules: usize,
    /// Clicks in the trace.
    pub taps: usize,
    /// `touchmove` runs in the trace.
    pub swipes: usize,
}

const TAGS: [&str; 6] = ["div", "p", "span", "ul", "li", "section"];
const CLASSES: [&str; 10] = [
    "card", "nav", "item", "hot", "cold", "wide", "active", "muted", "row", "col",
];
/// Leaves of the fixed `#bar` toolbar, each with a click listener.
const TAP_TARGETS: usize = 16;
/// Maximum element depth, the fixed `#app` container included.
const MAX_DEPTH: usize = 12;
/// `touchmove` events per swipe, one per 60 Hz frame.
const MOVES_PER_SWIPE: usize = 20;
const MOVE_PERIOD_MS: f64 = 16.6;
/// Quiet time after each gesture: long enough for a tap's transition
/// and rAF chain to finish, fixed so every trace spans the same time.
const GESTURE_GAP_MS: f64 = 500.0;

/// Generates app `index` of the workload seeded by `seed`.
pub fn generate(seed: u64, index: usize, shape: Shape, handlers: Handlers) -> (App, Trace) {
    let rng = DetRng::new(seed).fork(&format!("app-{index}"));
    let body = shape.elements.saturating_sub(FRAME_ELEMENTS).max(1);
    let tree = Tree::random(&mut rng.fork("dom"), body);
    let html = tree.html();
    let css = stylesheet(&mut rng.fork("css"), body, shape.rules);
    let script = script(handlers);
    let trace = trace(&mut rng.fork("trace"), shape);
    let name = match handlers {
        Handlers::Stable => "dom-stable",
        Handlers::Churn => "dom-churn",
    };
    let app = App::builder(format!("{name}-{seed}-{index}"))
        .html(html)
        .css(css)
        .script(script)
        .build();
    (app, trace)
}

/// `count` labels drawn round-robin from `names` (so every name is used
/// equally often) in a seeded order.
fn balanced(rng: &mut DetRng, names: &[&'static str], count: usize) -> Vec<&'static str> {
    let mut labels: Vec<&'static str> = (0..count).map(|i| names[i % names.len()]).collect();
    rng.shuffle(&mut labels);
    labels
}

/// Elements of the fixed frame: `#app`, `#pane`, `#list`, `#bar` and the
/// bar's tap targets.
const FRAME_ELEMENTS: usize = 4 + TAP_TARGETS;

/// The random part of the document: `body` elements below `#app`.
///
/// The shape is a random recursive tree (each element hangs below a
/// uniformly chosen earlier element, or `#app`) cut at [`MAX_DEPTH`], and
/// tags and classes are dealt out in equal shares. Sums over the tree —
/// elements per tag and class, total depth, selector matches — then
/// barely move with the seed, so neither does the host time of a pass.
struct Tree {
    /// Parent of each element; `None` is `#app`.
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
    tags: Vec<&'static str>,
    classes: Vec<Vec<&'static str>>,
}

impl Tree {
    fn random(rng: &mut DetRng, body: usize) -> Tree {
        // `#app` sits at depth 1, so its children are at depth 2.
        let mut depth: Vec<usize> = Vec::with_capacity(body);
        let mut parent = Vec::with_capacity(body);
        let mut children = vec![Vec::new(); body];
        for i in 0..body {
            let p = loop {
                let p = rng.usize_in(0, i + 1);
                if p == i {
                    break None;
                }
                if depth[p] < MAX_DEPTH {
                    break Some(p);
                }
            };
            depth.push(p.map_or(2, |p| depth[p] + 1));
            if let Some(p) = p {
                children[p].push(i);
            }
            parent.push(p);
        }
        let tags = balanced(rng, &TAGS, body);
        let first = balanced(rng, &CLASSES, body * 3 / 5);
        let second = balanced(rng, &CLASSES, body / 4);
        let mut slots: Vec<usize> = (0..body).collect();
        rng.shuffle(&mut slots);
        let mut classes = vec![Vec::new(); body];
        for (&slot, class) in slots.iter().zip(first) {
            classes[slot].push(class);
        }
        rng.shuffle(&mut slots);
        for (&slot, class) in slots.iter().zip(second) {
            if !classes[slot].contains(&class) {
                classes[slot].push(class);
            }
        }
        Tree {
            parent,
            children,
            tags,
            classes,
        }
    }

    /// `#app` holding `#pane`, `#list`, the `#bar` of tap targets and
    /// the tree. The tap targets sit at one fixed place in every app, so
    /// a tap restyles and relayouts the same amount whatever the seed.
    fn html(&self) -> String {
        let mut html = String::from(
            "<div id='app' class='mode-a'><div id='pane' class='wide'>pane</div>\
             <div id='list' class='col'></div><div id='bar' class='row'>",
        );
        for t in 0..TAP_TARGETS {
            let _ = write!(html, "<span id='t{t}' class='tap'>x</span>");
        }
        html.push_str("</div>");
        let roots = (0..self.parent.len()).filter(|&i| self.parent[i].is_none());
        for root in roots {
            self.element(&mut html, root);
        }
        html.push_str("</div>");
        html
    }

    fn element(&self, html: &mut String, i: usize) {
        let tag = self.tags[i];
        let _ = write!(html, "<{tag} id='e{i}'");
        if !self.classes[i].is_empty() {
            let _ = write!(html, " class='{}'", self.classes[i].join(" "));
        }
        html.push('>');
        if self.children[i].is_empty() {
            html.push('x');
        }
        for &child in &self.children[i] {
            self.element(html, child);
        }
        let _ = write!(html, "</{tag}>");
    }
}

/// `rules` rules cycling through every selector bucket (id, class, tag,
/// descendant and child chains) with every tag and class in equal
/// shares, then the fixed frame rules and the GreenWeb annotations.
fn stylesheet(rng: &mut DetRng, body: usize, rules: usize) -> String {
    let mut tags = TAGS;
    let mut classes = CLASSES;
    rng.shuffle(&mut tags);
    rng.shuffle(&mut classes);
    let mut css = String::new();
    for i in 0..rules {
        let k = i / 5;
        let selector = match i % 5 {
            0 => format!("#e{}", rng.u64_below(body as u64)),
            1 => format!(".{}", classes[k % classes.len()]),
            2 => tags[k % tags.len()].to_string(),
            3 => format!(
                ".{} {}",
                classes[(3 * k) % classes.len()],
                tags[k % tags.len()]
            ),
            _ => format!(
                "{} > .{}",
                tags[(k + 2) % tags.len()],
                classes[(7 * k) % classes.len()]
            ),
        };
        let px = rng.usize_in(1, 40);
        let declaration = match i % 4 {
            0 => format!("width: {}px", px * 8),
            1 => format!("margin: {px}px"),
            2 => format!("padding: {px}px"),
            _ => format!("font-size: {}px", 10 + px / 4),
        };
        let _ = writeln!(css, "{selector} {{ {declaration}; }}");
    }
    css.push_str(
        "#app { width: 360px; }
         #pane { height: 120px; }
         .tap { width: 120px; transition: width 300ms ease-out; }
         .mode-a .item { margin: 2px; }
         .mode-b .item { margin: 6px; }
         .mode-a .card { padding: 3px; }
         .mode-b .card { padding: 5px; }
         .tap:QoS { onclick-qos: single, short; }
         #pane:QoS { ontouchmove-qos: continuous; }
",
    );
    css
}

/// The setup script: one shared tap handler on every `#bar` leaf and a
/// move handler on `#pane`. Tapped widths alternate between 500 and
/// 520 px, which no rule sets, so every tap starts a transition.
fn script(handlers: Handlers) -> String {
    let mut script = String::from(match handlers {
        Handlers::Stable => {
            "var cur = 0;
             var steps = 0;
             var w = 500;
             var moved = 0;
             function step(t) {
                 steps = steps + 1;
                 if (steps < 6) {
                     setStyle(cur, 'color', '#00000' + steps);
                     requestAnimationFrame(step);
                 }
             }
             function tap(e) {
                 cur = e.target;
                 steps = 0;
                 w = 1020 - w;
                 setStyle(e.target, 'width', w);
                 setAttribute(e.target, 'data-on', w);
                 requestAnimationFrame(step);
             }
            "
        }
        Handlers::Churn => {
            "var last = 0;
             var added = 0;
             var mode = 0;
             var moved = 0;
             function tap(e) {
                 added = added + 1;
                 var d = createElement('div');
                 setAttribute(d, 'class', 'item card');
                 appendChild(getElementById('list'), d);
                 if (added > 1) {
                     removeChild(last);
                 }
                 last = d;
                 mode = 1 - mode;
                 if (mode == 1) {
                     setAttribute(getElementById('app'), 'class', 'mode-b');
                 } else {
                     setAttribute(getElementById('app'), 'class', 'mode-a');
                 }
                 setStyle(e.target, 'width', 100 + added);
             }
            "
        }
    });
    script.push_str(
        "function move(e) {
             moved = moved + 1;
             setStyle(e.target, 'height', 100 + moved);
         }
         addEventListener(getElementById('pane'), 'touchmove', move);
        ",
    );
    for t in 0..TAP_TARGETS {
        let _ = writeln!(
            script,
            "addEventListener(getElementById('t{t}'), 'click', tap);"
        );
    }
    script
}

/// `shape.taps` clicks on random tap targets and `shape.swipes` runs of
/// moves on `#pane`, in a seeded order, [`GESTURE_GAP_MS`] apart.
fn trace(rng: &mut DetRng, shape: Shape) -> Trace {
    let mut gestures: Vec<bool> = (0..shape.taps + shape.swipes)
        .map(|i| i < shape.taps)
        .collect();
    rng.shuffle(&mut gestures);
    let mut builder = Trace::builder();
    let mut t = 300.0;
    for is_tap in gestures {
        if is_tap {
            let target = format!("t{}", rng.usize_in(0, TAP_TARGETS));
            builder = builder.click_id(t, &target);
        } else {
            builder = builder.touchstart_id(t, "pane").touchmove_run(
                t + MOVE_PERIOD_MS,
                "pane",
                MOVES_PER_SWIPE,
                MOVE_PERIOD_MS,
            );
            t += MOVES_PER_SWIPE as f64 * MOVE_PERIOD_MS;
        }
        t += GESTURE_GAP_MS;
    }
    builder.end_ms(t + 500.0).build()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: Shape = Shape {
        elements: 120,
        rules: 60,
        taps: 6,
        swipes: 1,
    };

    #[test]
    fn same_seed_same_app_and_trace() {
        for handlers in [Handlers::Stable, Handlers::Churn] {
            let a = generate(7, 0, SHAPE, handlers);
            let b = generate(7, 0, SHAPE, handlers);
            assert_eq!(a, b, "{handlers:?}: one seed, one app");
            let other_seed = generate(8, 0, SHAPE, handlers);
            assert_ne!(a.0.html, other_seed.0.html);
            assert_ne!(a.0.css, other_seed.0.css);
            assert_ne!(a.1, other_seed.1);
            let other_index = generate(7, 1, SHAPE, handlers);
            assert_ne!(a.0.html, other_index.0.html);
        }
    }

    #[test]
    fn shape_is_respected() {
        let (app, trace) = generate(3, 0, SHAPE, Handlers::Stable);
        let doc = greenweb_dom::parse_html(&app.html).unwrap();
        assert_eq!(doc.elements().count(), SHAPE.elements);
        let sheet = greenweb_css::parse_stylesheet(&app.css_source()).unwrap();
        assert!(sheet.rules().len() >= SHAPE.rules);
        assert_eq!(
            trace.len(),
            SHAPE.taps + SHAPE.swipes * (1 + MOVES_PER_SWIPE)
        );
        let depth = doc
            .elements()
            .map(|n| {
                doc.ancestors(n)
                    .filter(|&a| doc.element(a).is_some())
                    .count()
                    + 1
            })
            .max()
            .unwrap();
        assert!(depth <= MAX_DEPTH, "depth {depth}");
    }
}
