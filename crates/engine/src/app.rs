//! Application bundles: the HTML + CSS + scripts the browser loads.

use crate::cost::FrameCostModel;
use crate::effects::HandlerSummary;
use greenweb_css::lang::{AnnotationTable, QosTargets};
use greenweb_css::parse_stylesheet;
use greenweb_det::{fnv1a, FNV1A_BASIS};
use greenweb_dom::parse_html;
use greenweb_script::{compile, parse_program, CompiledProgram};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A Web application: markup, stylesheets, and scripts, plus the cost
/// parameters the engine charges for its frames.
#[derive(Debug, Clone, PartialEq)]
pub struct App {
    /// Application name (reports key off this).
    pub name: String,
    /// HTML source.
    pub html: String,
    /// CSS sources, concatenated in order (GreenWeb annotations included —
    /// they are plain CSS rules with a `:QoS` pseudo-class).
    pub css: Vec<String>,
    /// Script sources, run in order at load to register listeners.
    pub scripts: Vec<String>,
    /// Frame cost parameters.
    pub cost: FrameCostModel,
    /// Static per-handler effect summaries, normally produced by the
    /// analyzer's effects pass and injected before a measured run. The
    /// engine only checks each callback's observed effects against them
    /// (`dynamic ⊆ static`); empty means no containment checks.
    pub effect_summaries: Vec<HandlerSummary>,
    /// Setup scripts compiled once at [`AppBuilder::build`], parallel to
    /// `scripts`: `(source fingerprint, bytecode)`, or `None` when the
    /// source fails to parse or compile (the browser surfaces that error
    /// at load, exactly as before). Private — consumers go through
    /// [`App::compiled_script`], which validates the fingerprint (FNV-1a
    /// of the source): the fields are public, and a test that splices a
    /// source after `build()` must not execute stale bytecode.
    compiled_scripts: Vec<Option<(u64, CompiledProgram)>>,
    /// The QoS table of the initial document, filled by the first
    /// [`App::qos_targets`] call with the fingerprint of the sources it
    /// was built from. Lazy, unlike `compiled_scripts`: building it
    /// parses the app once more, which `build()` is not charged for.
    qos_targets: QosSlot,
}

impl App {
    /// Starts building an app.
    pub fn builder(name: impl Into<String>) -> AppBuilder {
        AppBuilder {
            app: App {
                name: name.into(),
                html: String::new(),
                css: Vec::new(),
                scripts: Vec::new(),
                cost: FrameCostModel::default(),
                effect_summaries: Vec::new(),
                compiled_scripts: Vec::new(),
                qos_targets: QosSlot::default(),
            },
        }
    }

    /// The concatenated CSS source.
    pub fn css_source(&self) -> String {
        self.css.join("\n")
    }

    /// The precompiled bytecode for setup script `index`, or `None` when
    /// the script was mutated after `build()` (fingerprint mismatch),
    /// failed to compile, or was appended without going through the
    /// builder — the browser then compiles it at load instead.
    pub fn compiled_script(&self, index: usize) -> Option<&CompiledProgram> {
        let (fingerprint, compiled) = self.compiled_scripts.get(index)?.as_ref()?;
        let source = self.scripts.get(index)?;
        (*fingerprint == fnv1a(FNV1A_BASIS, source.as_bytes())).then_some(compiled)
    }

    /// The `:QoS` spec per event type of the document element and of
    /// each `id`'s first element in the initial document, read lossily
    /// as the runtime reads annotations. The first call builds the table
    /// and keeps it, shared by clones made after it; a call whose `html` or
    /// `css` no longer matches the kept table's fingerprint builds a
    /// fresh table and returns it uncached.
    ///
    /// # Panics
    ///
    /// Panics if the HTML or the CSS fails to parse.
    pub fn qos_targets(&self) -> Arc<QosTargets> {
        let fingerprint = self.sources_fingerprint();
        let (kept, table) = self
            .qos_targets
            .0
            .get_or_init(|| (fingerprint, Arc::new(self.build_qos_targets())));
        if *kept == fingerprint {
            Arc::clone(table)
        } else {
            Arc::new(self.build_qos_targets())
        }
    }

    fn build_qos_targets(&self) -> QosTargets {
        let doc = parse_html(&self.html).expect("workload html parses");
        let sheet = parse_stylesheet(&self.css_source()).expect("workload css parses");
        let (table, _errors) = AnnotationTable::from_stylesheet_lossy(&sheet);
        QosTargets::new(&doc, &table)
    }

    /// FNV-1a of the HTML's length, the HTML, and the CSS sources as
    /// [`App::css_source`] joins them.
    fn sources_fingerprint(&self) -> u64 {
        let mut h = fnv1a(FNV1A_BASIS, &(self.html.len() as u64).to_le_bytes());
        h = fnv1a(h, self.html.as_bytes());
        for (i, css) in self.css.iter().enumerate() {
            if i > 0 {
                h = fnv1a(h, b"\n");
            }
            h = fnv1a(h, css.as_bytes());
        }
        h
    }
}

/// The slot behind [`App::qos_targets`]. Filling it changes no
/// observable property of the app, so it compares equal to any other
/// slot and prints no contents.
#[derive(Clone, Default)]
struct QosSlot(OnceLock<(u64, Arc<QosTargets>)>);

impl PartialEq for QosSlot {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl fmt::Debug for QosSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("QosSlot")
    }
}

/// Builder for [`App`].
#[derive(Debug, Clone)]
pub struct AppBuilder {
    app: App,
}

impl AppBuilder {
    /// Sets the HTML source.
    pub fn html(mut self, html: impl Into<String>) -> Self {
        self.app.html = html.into();
        self
    }

    /// Appends a CSS source.
    pub fn css(mut self, css: impl Into<String>) -> Self {
        self.app.css.push(css.into());
        self
    }

    /// Appends a script source.
    pub fn script(mut self, script: impl Into<String>) -> Self {
        self.app.scripts.push(script.into());
        self
    }

    /// Overrides the frame cost model.
    pub fn cost(mut self, cost: FrameCostModel) -> Self {
        self.app.cost = cost;
        self
    }

    /// Finalizes the app, compiling every setup script once. This is the
    /// single compilation point of the script pipeline: the bytecode built
    /// here is what the engine executes and what GreenLint walks, one
    /// `Arc`-shared prototype table per script.
    pub fn build(mut self) -> App {
        self.app.compiled_scripts = self
            .app
            .scripts
            .iter()
            .map(|source| {
                let program = parse_program(source).ok()?;
                let compiled = compile(&program).ok()?;
                Some((fnv1a(FNV1A_BASIS, source.as_bytes()), compiled))
            })
            .collect();
        self.app
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_collects_sources() {
        let app = App::builder("demo")
            .html("<p></p>")
            .css("p { margin: 0; }")
            .css("#x:QoS { onclick-qos: single, short; }")
            .script("var x = 1;")
            .build();
        assert_eq!(app.name, "demo");
        assert_eq!(app.css.len(), 2);
        assert!(app.css_source().contains(":QoS"));
        assert_eq!(app.scripts.len(), 1);
    }

    #[test]
    fn build_precompiles_every_script() {
        let app = App::builder("demo")
            .script("var x = 1;")
            .script("function f() { return 2; }")
            .build();
        assert!(app.compiled_script(0).is_some());
        assert!(app.compiled_script(1).is_some());
        assert!(app.compiled_script(2).is_none(), "out of range");
    }

    #[test]
    fn broken_scripts_get_no_bytecode() {
        let app = App::builder("demo").script("var x = ;").build();
        assert!(app.compiled_script(0).is_none());
    }

    #[test]
    fn post_build_mutation_invalidates_the_fingerprint() {
        let mut app = App::builder("demo").script("var x = 1;").build();
        assert!(app.compiled_script(0).is_some());
        app.scripts[0] = "var x = 2;".to_string();
        assert!(
            app.compiled_script(0).is_none(),
            "stale bytecode must never run for a mutated source"
        );
        app.scripts.push("var y = 3;".to_string());
        assert!(app.compiled_script(1).is_none(), "appended source");
    }
}
