//! The four workloads: what each one feeds the program, and how long its
//! input construction (the `setup_s` metric) takes.

use crate::gen::{self, Handlers, Shape};
use greenweb::qos::Scenario;
use greenweb_engine::{App, Trace};
use greenweb_workloads::harness::Policy;
use greenweb_workloads::sweep::SweepPlan;
use std::time::Instant;

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The Fig. 10 matrix: 12 paper apps × 4 policies on full traces.
    PaperFull,
    /// `run_sweep` over the canonical Fig. 9 plan, every cell recorded.
    SweepMicro,
    /// Seeded 400–600-element apps whose handlers keep selector matching
    /// stable.
    DomStable,
    /// The same generator with structure-mutating, class-flipping
    /// handlers.
    DomChurn,
}

impl Kind {
    /// Every workload, in the order a full run measures them.
    pub const ALL: [Kind; 4] = [
        Kind::PaperFull,
        Kind::SweepMicro,
        Kind::DomStable,
        Kind::DomChurn,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperFull => "paper-full",
            Kind::SweepMicro => "sweep-micro",
            Kind::DomStable => "dom-stable",
            Kind::DomChurn => "dom-churn",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether a pass is one `run_sweep` call rather than a loop of cells.
    pub fn is_sweep(self) -> bool {
        self == Kind::SweepMicro
    }

    /// Whether the apps are generated (and carry effect summaries).
    pub fn is_generated(self) -> bool {
        matches!(self, Kind::DomStable | Kind::DomChurn)
    }
}

/// The benchmark's sizes, or reduced ones for the smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` is measured at.
    Full,
    /// Small inputs and single passes: every code path, in seconds.
    #[cfg_attr(not(test), allow(dead_code))] // only the tests run it
    Smoke,
}

/// Generated apps per `dom-*` pass; their sizes step evenly across
/// 400–600 elements. The governors' closed loop makes an app's frame
/// count move by a few percent with the seed; a pass averages that over
/// this many apps.
const DOM_APPS: usize = 8;
const DOM_RULES: usize = 300;

fn dom_shape(kind: Kind, scale: Scale, index: usize) -> Shape {
    // Sized so one cell takes about 50 ms of host time here: a pass of
    // 24 cells takes about a second, so a run collects a few hundred
    // latency samples and the p90 has dozens beyond it.
    let (taps, swipes) = match kind {
        Kind::DomChurn => (6, 1),
        _ => (12, 1),
    };
    match scale {
        Scale::Full => Shape {
            elements: 400 + 200 * index / (DOM_APPS - 1),
            rules: DOM_RULES,
            taps,
            swipes,
        },
        Scale::Smoke => Shape {
            elements: 60,
            rules: 40,
            taps: 4,
            swipes: 1,
        },
    }
}

/// One app with the trace it is driven by.
#[derive(Debug, Clone)]
pub struct Subject {
    /// The application.
    pub app: App,
    /// Its input trace.
    pub trace: Trace,
}

/// One simulation: a subject under a policy, judged under
/// [`Inputs::scenarios`].
#[derive(Debug, Clone)]
pub struct Cell {
    /// Index into [`Inputs::subjects`].
    pub subject: usize,
    /// The scheduling policy.
    pub policy: Policy,
}

/// Everything one workload feeds the program.
#[derive(Debug)]
pub struct Inputs {
    /// The workload.
    pub kind: Kind,
    /// Distinct apps with their traces.
    pub subjects: Vec<Subject>,
    /// The cells a pass runs, in canonical order.
    pub cells: Vec<Cell>,
    /// The scenarios every cell is judged under.
    pub scenarios: &'static [Scenario],
    /// The sweep plan (`sweep-micro` only).
    pub plan: Option<SweepPlan>,
}

impl Inputs {
    /// The subject of cell `c`.
    pub fn subject(&self, c: usize) -> &Subject {
        &self.subjects[self.cells[c].subject]
    }
}

/// Host time of one input construction, in milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct SetupTime {
    /// App and trace construction.
    pub build_ms: f64,
    /// `infer_effect_summaries` over the generated apps (zero elsewhere).
    pub effects_ms: f64,
}

/// Builds the workload's inputs once, timing the construction that the
/// `setup_s` metric covers.
pub fn setup(kind: Kind, seed: u64, scale: Scale) -> (Inputs, SetupTime) {
    let started = Instant::now();
    let raw = build(kind, seed, scale);
    let built = Instant::now();
    let raw = attach_effects(raw);
    let done = Instant::now();
    let time = SetupTime {
        build_ms: (built - started).as_secs_f64() * 1e3,
        effects_ms: (done - built).as_secs_f64() * 1e3,
    };
    (into_inputs(kind, raw), time)
}

/// The timed part of set-up, before it is reshaped into [`Inputs`].
enum Raw {
    Paper(Vec<greenweb_workloads::Workload>),
    Plan(SweepPlan),
    Generated(Vec<(App, Trace)>),
}

fn build(kind: Kind, seed: u64, scale: Scale) -> Raw {
    match kind {
        Kind::PaperFull => Raw::Paper(greenweb_workloads::all()),
        Kind::SweepMicro => Raw::Plan(SweepPlan::canonical()),
        Kind::DomStable | Kind::DomChurn => {
            let handlers = if kind == Kind::DomChurn {
                Handlers::Churn
            } else {
                Handlers::Stable
            };
            let apps = match scale {
                Scale::Full => DOM_APPS,
                Scale::Smoke => 2,
            };
            Raw::Generated(
                (0..apps)
                    .map(|i| gen::generate(seed, i, dom_shape(kind, scale, i), handlers))
                    .collect(),
            )
        }
    }
}

/// Attaches inferred effect summaries to generated apps, as a measured
/// run of an analyzed app does; the paper apps run without them.
fn attach_effects(raw: Raw) -> Raw {
    match raw {
        Raw::Generated(apps) => Raw::Generated(
            apps.into_iter()
                .map(|(mut app, trace)| {
                    app.effect_summaries = greenweb_analyze::infer_effect_summaries(&app);
                    (app, trace)
                })
                .collect(),
        ),
        other => other,
    }
}

fn into_inputs(kind: Kind, raw: Raw) -> Inputs {
    let paper = Policy::paper_set();
    let matrix = |subjects: usize, policies: &[Policy]| -> Vec<Cell> {
        (0..subjects)
            .flat_map(|subject| {
                policies.iter().map(move |policy| Cell {
                    subject,
                    policy: policy.clone(),
                })
            })
            .collect()
    };
    match raw {
        Raw::Paper(workloads) => {
            let subjects: Vec<Subject> = workloads
                .into_iter()
                .map(|w| Subject {
                    app: w.app,
                    trace: w.full,
                })
                .collect();
            Inputs {
                kind,
                cells: matrix(subjects.len(), &paper),
                subjects,
                scenarios: &Scenario::ALL,
                plan: None,
            }
        }
        Raw::Plan(plan) => {
            // The canonical plan is workload-major with one micro trace per
            // app: every run of consecutive cells on one app is a subject.
            let mut subjects: Vec<Subject> = Vec::new();
            let mut cells = Vec::new();
            for cell in &plan.cells {
                if subjects.last().map(|s| &s.app.name) != Some(&cell.app.name) {
                    subjects.push(Subject {
                        app: cell.app.clone(),
                        trace: cell.trace.clone(),
                    });
                }
                cells.push(Cell {
                    subject: subjects.len() - 1,
                    policy: policy_named(&cell.policy)
                        .unwrap_or_else(|| panic!("unknown policy `{}` in plan", cell.policy)),
                });
            }
            Inputs {
                kind,
                subjects,
                cells,
                scenarios: &[Scenario::Usable],
                plan: Some(plan),
            }
        }
        Raw::Generated(apps) => {
            let subjects: Vec<Subject> = apps
                .into_iter()
                .map(|(app, trace)| Subject { app, trace })
                .collect();
            // Three policies, not two: with Perf and GreenWeb-I alone the
            // cells split into two equal cost clusters and the latency
            // median would sit on the gap between them, jumping with noise.
            Inputs {
                kind,
                cells: matrix(
                    subjects.len(),
                    &[
                        Policy::Perf,
                        Policy::Interactive,
                        Policy::GreenWeb(Scenario::Imperceptible),
                    ],
                ),
                subjects,
                scenarios: &Scenario::ALL,
                plan: None,
            }
        }
    }
}

/// The policy a sweep plan names by its display string.
pub fn policy_named(name: &str) -> Option<Policy> {
    [
        Policy::Perf,
        Policy::Interactive,
        Policy::Ondemand,
        Policy::Powersave,
        Policy::Ebs,
        Policy::GreenWeb(Scenario::Imperceptible),
        Policy::GreenWeb(Scenario::Usable),
    ]
    .into_iter()
    .find(|p| p.to_string() == name)
}

/// Worker threads of the sweep (and of the parallel fleet probe): up to
/// two, as many as the machine has.
pub fn sweep_jobs() -> usize {
    crate::hostinfo::nproc().min(2)
}

/// The smallest number of timed passes that yields at least 100 latency
/// samples, so a p90 has ten samples beyond it.
pub fn min_passes(inputs: &Inputs, scale: Scale) -> usize {
    match scale {
        Scale::Smoke => 1,
        Scale::Full if inputs.kind.is_sweep() => 100,
        Scale::Full => 100_usize.div_ceil(inputs.cells.len()),
    }
}
