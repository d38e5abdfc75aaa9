//! Application bundles: the HTML + CSS + scripts the browser loads.

use crate::cost::FrameCostModel;
use crate::effects::HandlerSummary;
use greenweb_det::{fnv1a, FNV1A_BASIS};
use greenweb_script::{compile, parse_program, CompiledProgram};

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
