//! The style microbenchmark suite (`BENCH_style.json`).
//!
//! For each of the 12 workloads (plus one seeded synthetic stress
//! document) the suite resolves every element's style twice — once
//! through the naive full-scan resolver, once through the bucketed +
//! Bloom-filtered path ([`StyleEngine::match_rules`] per element, run
//! only for the counters it bumps; its cascade-ordered match list is
//! dropped) — and reports deterministic counters only: the exact
//! selector walks each path ran (the naive path's
//! [`Selector::matches`], the bucketed path's compiled selectors), and
//! how many candidates the ancestor Bloom filter rejected before the
//! exact walk. They drive the acceptance
//! gate (the bucketed path must run ≥ 3× fewer exact matches than naive
//! across the suite) and never vary between runs or machines, so the
//! committed report is gated byte for byte. Every row also
//! differentially checks `compute_all == compute_all_naive`. Host time
//! is the repository benchmark's business, not this report's.
//!
//! [`Selector::matches`]: greenweb_css::selector::Selector::matches

use greenweb_css::stylesheet::parse_stylesheet;
use greenweb_css::StyleEngine;
use greenweb_det::DetRng;
use greenweb_dom::{parse_html, Document};
use greenweb_trace::json::{self, Fixed};
use std::fmt::Write as _;

/// One benchmarked document: counters from both paths.
#[derive(Debug, Clone)]
pub struct StyleBenchRow {
    /// Workload name (or `"synthetic"` for the generated stress row).
    pub name: String,
    /// Element nodes resolved.
    pub nodes: usize,
    /// Rules in the stylesheet.
    pub rules: usize,
    /// Exact match walks the naive full scan ran.
    pub naive_matches: u64,
    /// Exact match walks the bucketed path ran.
    pub matches: u64,
    /// Candidates the ancestor Bloom filter rejected.
    pub bloom_rejects: u64,
}

/// The whole suite: per-document rows plus the aggregate ratio.
#[derive(Debug, Clone)]
pub struct StyleBenchReport {
    /// One row per benchmarked document.
    pub rows: Vec<StyleBenchRow>,
    /// Whether every row's bucketed resolution equalled the naive one.
    pub identical: bool,
}

impl StyleBenchReport {
    /// Total exact matches the naive path ran.
    pub fn total_naive_matches(&self) -> u64 {
        self.rows.iter().map(|r| r.naive_matches).sum()
    }

    /// Total exact matches the bucketed path ran.
    pub fn total_matches(&self) -> u64 {
        self.rows.iter().map(|r| r.matches).sum()
    }

    /// naive / bucketed exact-match ratio — the suite's headline number.
    pub fn match_ratio(&self) -> f64 {
        self.total_naive_matches() as f64 / (self.total_matches().max(1)) as f64
    }

    /// Renders the deterministic-counter JSON.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        json::object(&mut out, |o| {
            o.field("suite", "style")
                .arr("rows", |a| {
                    for row in &self.rows {
                        a.obj(|r| {
                            r.field("workload", &row.name)
                                .field("nodes", row.nodes)
                                .field("rules", row.rules)
                                .field("naive_matches", row.naive_matches)
                                .field("matches", row.matches)
                                .field("bloom_rejects", row.bloom_rejects);
                        });
                    }
                })
                .obj("total", |t| {
                    t.field("naive_matches", self.total_naive_matches())
                        .field("matches", self.total_matches())
                        .field(
                            "bloom_rejects",
                            self.rows.iter().map(|r| r.bloom_rejects).sum::<u64>(),
                        )
                        .field("match_ratio", Fixed(self.match_ratio(), 2));
                })
                .field("identical", self.identical);
        });
        out.push('\n');
        out
    }
}

/// Benchmarks one parsed document against one stylesheet engine.
fn bench_document(name: &str, doc: &Document, engine: &StyleEngine) -> (StyleBenchRow, bool) {
    let identical = engine.compute_all(doc) == engine.compute_all_naive(doc);

    engine.reset_stats();
    let _ = engine.compute_all_naive(doc);
    let naive_matches = engine.stats().naive_matches;

    engine.reset_stats();
    let mut nodes = 0;
    for n in doc.elements() {
        engine.match_rules(doc, n);
        nodes += 1;
    }
    let stats = engine.stats();
    (
        StyleBenchRow {
            name: name.to_string(),
            nodes,
            rules: engine.stylesheet().rules().len(),
            naive_matches,
            matches: stats.matches,
            bloom_rejects: stats.bloom_rejects,
        },
        identical,
    )
}

/// A seeded synthetic document + stylesheet stressing deep nesting and
/// wide class/tag fan-out — shapes the 12 app workloads are too tame to
/// exercise. Fully determined by `seed`.
fn synthetic(seed: u64) -> (Document, StyleEngine) {
    let mut rng = DetRng::new(seed);
    const TAGS: [&str; 6] = ["div", "p", "span", "ul", "li", "section"];
    const CLASSES: [&str; 8] = [
        "card", "nav", "item", "hot", "cold", "wide", "active", "muted",
    ];

    // ~300 elements: chains of nested containers with leaf runs.
    let mut html = String::new();
    let mut open: Vec<&str> = Vec::new();
    for i in 0..300 {
        let tag = rng.choose(&TAGS);
        let _ = write!(html, "<{tag}");
        if rng.gen_bool(0.25) {
            let _ = write!(html, " id='n{i}'");
        }
        if rng.gen_bool(0.6) {
            let a = rng.choose(&CLASSES);
            if rng.gen_bool(0.4) {
                let b = rng.choose(&CLASSES);
                let _ = write!(html, " class='{a} {b}'");
            } else {
                let _ = write!(html, " class='{a}'");
            }
        }
        html.push('>');
        // Nest deeper with p=0.5 (max depth 12), else close immediately.
        if open.len() < 12 && rng.gen_bool(0.5) {
            open.push(tag);
        } else {
            let _ = write!(html, "x</{tag}>");
            if !open.is_empty() && rng.gen_bool(0.4) {
                let closed = open.pop().expect("non-empty");
                let _ = write!(html, "</{closed}>");
            }
        }
    }
    while let Some(tag) = open.pop() {
        let _ = write!(html, "</{tag}>");
    }

    // ~80 rules mixing every bucket kind and combinator chains.
    let mut css = String::new();
    for i in 0..80 {
        let selector = match i % 5 {
            0 => format!("#n{}", rng.u64_below(300)),
            1 => format!(".{}", rng.choose(&CLASSES)),
            2 => rng.choose(&TAGS).to_string(),
            3 => format!(
                ".{} {}",
                rng.choose(&CLASSES),
                rng.choose(&TAGS) // descendant chain exercises the Bloom filter
            ),
            _ => format!("{} > .{}", rng.choose(&TAGS), rng.choose(&CLASSES)),
        };
        let _ = write!(css, "{selector} {{ width: {}px; margin: {i}px; }} ", i * 3);
    }
    let doc = parse_html(&html).expect("synthetic html parses");
    let engine = StyleEngine::new(parse_stylesheet(&css).expect("synthetic css parses"));
    (doc, engine)
}

/// Runs the suite: all 12 workloads plus the seeded synthetic stress
/// document.
pub fn run_suite() -> StyleBenchReport {
    let mut rows = Vec::new();
    let mut identical = true;
    for w in greenweb_workloads::all() {
        let doc = parse_html(&w.app.html).expect("workload html parses");
        let engine =
            StyleEngine::new(parse_stylesheet(&w.app.css_source()).expect("workload css parses"));
        let (row, ok) = bench_document(w.name, &doc, &engine);
        identical &= ok;
        rows.push(row);
    }
    let (doc, engine) = synthetic(0x5EED_57E1);
    let (row, ok) = bench_document("synthetic", &doc, &engine);
    identical &= ok;
    rows.push(row);
    StyleBenchReport { rows, identical }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_counters_meet_the_acceptance_gate() {
        let report = run_suite();
        assert_eq!(report.rows.len(), 13, "12 workloads + synthetic");
        assert!(report.identical, "bucketed path diverged from naive");
        assert!(
            report.match_ratio() >= 3.0,
            "bucketing must cut exact matches >= 3x, got {:.2}x \
             ({} naive vs {} bucketed)",
            report.match_ratio(),
            report.total_naive_matches(),
            report.total_matches(),
        );
        // The synthetic row must actually exercise the Bloom filter.
        let synth = report.rows.last().expect("synthetic row");
        assert!(synth.bloom_rejects > 0, "no Bloom rejections: {synth:?}");
    }
}
