//! Ablation experiments over the GreenWeb design choices (beyond the
//! paper's figures, as called out in DESIGN.md §6).
//!
//! Every experiment lowers its runs to [`RunSpec`] batches — including
//! the custom-platform variants, which describe their hardware through
//! [`CoreSchedulerSpec::GreenWebOn`] instead of hand-building a browser
//! — so an `_with` variant with an explicit [`Jobs`] count exists for
//! each, and the default entry points honor `GREENWEB_JOBS`.

use crate::figures::mean;
use greenweb::metrics::RunMetrics;
use greenweb::qos::Scenario;
use greenweb::CoreSchedulerSpec;
use greenweb_acmp::platform::ClusterSpec;
use greenweb_acmp::{Platform, PowerModel};
use greenweb_engine::{RunSpec, SimReport};
use greenweb_fleet::{run_specs, Jobs};
use greenweb_workloads::harness::{expectations, run_many, Policy};
use greenweb_workloads::Workload;
use std::fmt::Write;

/// Lowers a GreenWeb run on an explicit platform/power pair: the same
/// hardware description feeds both the runtime's predictor and the
/// simulated CPU.
fn custom_hardware_spec(
    workload: &Workload,
    scenario: Scenario,
    platform: Platform,
    power: PowerModel,
) -> RunSpec {
    RunSpec::new(
        workload.app.clone(),
        workload.full.clone(),
        Box::new(CoreSchedulerSpec::GreenWebOn {
            scenario,
            platform: platform.clone(),
            power: power.clone(),
        }),
    )
    .with_hardware(platform, power)
}

/// Unwraps a suite-style run that is expected to succeed.
fn expect_report(
    outcome: Result<greenweb_engine::RunOutcome, greenweb_engine::BrowserError>,
) -> SimReport {
    outcome.expect("run").report
}

/// One ablation cell.
#[derive(Debug, Clone)]
pub struct AblationCell {
    /// Workload name.
    pub app: &'static str,
    /// Variant label.
    pub variant: String,
    /// Metrics under the scenario of the experiment.
    pub metrics: RunMetrics,
}

/// Feedback ablation: GreenWeb with and without the Sec. 6.2 feedback
/// loop, judged under the usable scenario (where mispredictions bite —
/// the W3School/Cnet surges). Runs on `jobs` workers.
pub fn feedback_ablation(workloads: &[Workload], jobs: Jobs) -> Vec<AblationCell> {
    let variants = [
        ("feedback", Policy::GreenWeb(Scenario::Usable)),
        ("no-feedback", Policy::GreenWebNoFeedback(Scenario::Usable)),
    ];
    let runs: Vec<_> = workloads
        .iter()
        .flat_map(|w| variants.iter().map(move |(_, p)| (&w.app, &w.full, p)))
        .collect();
    let mut reports = run_many(&runs, jobs).into_iter();
    let mut cells = Vec::new();
    for w in workloads {
        for (variant, _) in &variants {
            let report = reports.next().expect("one report per cell").expect("run");
            let exp = expectations(&w.app, &w.full, Scenario::Usable);
            cells.push(AblationCell {
                app: w.name,
                variant: (*variant).to_string(),
                metrics: RunMetrics::compute(&report, &exp),
            });
        }
    }
    cells
}

/// Renders the feedback ablation.
pub fn render_feedback_ablation(cells: &[AblationCell]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation: feedback loop (usable scenario, full traces)\n"
    );
    let _ = writeln!(
        out,
        "{:<11} {:>12} {:>12} {:>12} {:>12}",
        "app", "fb mJ", "no-fb mJ", "fb viol%", "no-fb viol%"
    );
    let apps: Vec<&str> = {
        let mut seen = Vec::new();
        for c in cells {
            if !seen.contains(&c.app) {
                seen.push(c.app);
            }
        }
        seen
    };
    for app in apps {
        let get = |variant: &str| {
            cells
                .iter()
                .find(|c| c.app == app && c.variant == variant)
                .expect("cell exists")
        };
        let fb = get("feedback");
        let nofb = get("no-feedback");
        let _ = writeln!(
            out,
            "{:<11} {:>12.0} {:>12.0} {:>12.1} {:>12.1}",
            app,
            fb.metrics.energy_mj,
            nofb.metrics.energy_mj,
            fb.metrics.violation_pct,
            nofb.metrics.violation_pct
        );
    }
    out
}

/// DVFS-granularity ablation (Sec. 7.3 suggests fast, fine-grained DVFS
/// helps): the big cluster with 100 MHz vs. 500 MHz steps, on `jobs`
/// workers.
pub fn granularity_ablation(workload: &Workload, jobs: Jobs) -> String {
    let steps = [("100 MHz", 100u32), ("250 MHz", 250), ("500 MHz", 500)];
    let specs = steps
        .iter()
        .map(|(_, step)| {
            let platform = Platform::custom(
                ClusterSpec {
                    min_mhz: 800,
                    max_mhz: 1800,
                    step_mhz: *step,
                    ipc: 2.0,
                },
                ClusterSpec {
                    min_mhz: 350,
                    max_mhz: 600,
                    step_mhz: 50,
                    ipc: 1.0,
                },
            );
            custom_hardware_spec(
                workload,
                Scenario::Usable,
                platform,
                PowerModel::odroid_xu_e(),
            )
        })
        .collect();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation: DVFS granularity ({}, usable scenario)\n",
        workload.name
    );
    let _ = writeln!(out, "{:<14} {:>10} {:>10}", "step", "energy mJ", "viol %");
    for ((label, _), outcome) in steps.iter().zip(run_specs(specs, jobs)) {
        let report = expect_report(outcome);
        let exp = expectations(&workload.app, &workload.full, Scenario::Usable);
        let metrics = RunMetrics::compute(&report, &exp);
        let _ = writeln!(
            out,
            "{:<14} {:>10.0} {:>10.1}",
            label, metrics.energy_mj, metrics.violation_pct
        );
    }
    out
}

/// Big-only vs. ACMP ablation: restrict the runtime to the big cluster
/// (the "single big core capable of DVFS" alternative of Sec. 10) and
/// compare with the full ACMP space: `2 × workloads` jobs in one batch
/// on `jobs` workers.
pub fn acmp_ablation(workloads: &[Workload], jobs: Jobs) -> String {
    let acmp_policy = Policy::GreenWeb(Scenario::Usable);
    let specs = workloads
        .iter()
        .flat_map(|w| {
            let acmp = greenweb_workloads::harness::lower(&w.app, &w.full, &acmp_policy);
            // Big-only: a platform whose "little" cluster is just the big
            // cluster's low end, so migrations never leave A15.
            let big_only = Platform::custom(
                ClusterSpec {
                    min_mhz: 800,
                    max_mhz: 1800,
                    step_mhz: 100,
                    ipc: 2.0,
                },
                ClusterSpec {
                    min_mhz: 800,
                    max_mhz: 800,
                    step_mhz: 100,
                    ipc: 2.0,
                },
            );
            // Power model whose "little" entry mirrors the big cluster.
            let base = PowerModel::odroid_xu_e();
            let big_power = *base.cluster(greenweb_acmp::CoreType::Big);
            let power = PowerModel::custom(big_power, big_power);
            [
                acmp,
                custom_hardware_spec(w, Scenario::Usable, big_only, power),
            ]
        })
        .collect();
    let mut outcomes = run_specs(specs, jobs).into_iter();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation: ACMP vs big-cluster-only DVFS (usable scenario, full traces)\n"
    );
    let _ = writeln!(out, "{:<11} {:>12} {:>14}", "app", "ACMP mJ", "big-only mJ");
    let mut ratios = Vec::new();
    for w in workloads {
        let acmp = expect_report(outcomes.next().expect("acmp cell ran"));
        let report = expect_report(outcomes.next().expect("big-only cell ran"));
        ratios.push(report.total_mj() / acmp.total_mj());
        let _ = writeln!(
            out,
            "{:<11} {:>12.0} {:>14.0}",
            w.name,
            acmp.total_mj(),
            report.total_mj()
        );
    }
    let _ = writeln!(
        out,
        "\nbig-only costs {:.2}x the ACMP energy on average",
        mean(ratios)
    );
    out
}

/// GreenWeb vs. the annotation-free EBS baseline (Sec. 9): energy and
/// violations against the *true* (annotated) expectations, imperceptible
/// scenario: `3 × workloads` jobs (EBS, GreenWeb-I, Perf) in one batch
/// on `jobs` workers.
pub fn ebs_comparison(workloads: &[Workload], jobs: Jobs) -> String {
    let policies = [
        Policy::Ebs,
        Policy::GreenWeb(Scenario::Imperceptible),
        Policy::Perf,
    ];
    let runs: Vec<_> = workloads
        .iter()
        .flat_map(|w| policies.iter().map(move |p| (&w.app, &w.full, p)))
        .collect();
    let mut reports = run_many(&runs, jobs).into_iter();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Comparison: GreenWeb vs annotation-free EBS (Sec. 9), imperceptible scenario\n"
    );
    let _ = writeln!(
        out,
        "{:<11} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "app", "EBS mJ", "GW-I mJ", "EBS viol%", "GW viol%", "Perf viol%"
    );
    for w in workloads {
        let mut judge = || {
            let report = reports.next().expect("one report per cell").expect("run");
            let exp = expectations(&w.app, &w.full, Scenario::Imperceptible);
            RunMetrics::compute(&report, &exp)
        };
        let ebs = judge();
        let gw = judge();
        let perf = judge();
        let _ = writeln!(
            out,
            "{:<11} {:>10.0} {:>10.0} {:>10.1} {:>10.1} {:>10.1}",
            w.name,
            ebs.energy_mj,
            gw.energy_mj,
            ebs.violation_pct,
            gw.violation_pct,
            perf.violation_pct
        );
    }
    let _ = writeln!(
        out,
        "\nEBS budgets from measured latency (a machine property); GreenWeb from\n\
         annotations (a user property) — EBS overshoots true expectations on\n\
         heavyweight events and cannot relax lightweight ones."
    );
    out
}

/// The Sec. 8 multi-application discussion, made measurable: the same
/// annotated animation with and without a background task stealing CPU
/// time (a self-rescheduling timer burning cycles, never painting).
/// GreenWeb's feedback must absorb the contention — more energy, but
/// bounded QoS damage. Two jobs (the animation alone and with the
/// background task) on `jobs` workers.
pub fn background_load_experiment(jobs: Jobs) -> String {
    use greenweb::metrics::{InputExpectation, RunMetrics};
    use greenweb::qos::QosType;
    use greenweb_engine::{App, Trace};
    use std::collections::HashMap;

    let build = |background: bool| -> App {
        let bg_script = if background {
            "addEventListener(getElementById('stage'), 'load', function(e) {
                 setTimeout(bg, 5);
             });
             function bg() {
                 work(2500000); // a background app's periodic slice
                 setTimeout(bg, 30);
             }"
        } else {
            ""
        };
        App::builder(if background { "anim+bg" } else { "anim" })
            .html("<div id='stage'><div id='c'></div></div>")
            .css("#c:QoS { ontouchstart-qos: continuous; }")
            .script(format!(
                "var n = 0;
                 function step(ts) {{
                     n = n + 1;
                     work(8000000);
                     markDirty();
                     if (n < 60) {{ requestAnimationFrame(step); }}
                 }}
                 addEventListener(getElementById('c'), 'touchstart', function(e) {{
                     n = 0;
                     requestAnimationFrame(step);
                 }});
                 {bg_script}"
            ))
            .build()
    };
    // The window is long enough for the animation to complete even under
    // contention, so both variants do the same user-visible work.
    let trace = Trace::builder()
        .load(5.0)
        .touchstart_id(300.0, "c")
        .end_ms(3_800.0)
        .build();
    let policy = Policy::GreenWeb(Scenario::Usable);
    let apps = [build(false), build(true)];
    let runs: Vec<_> = apps.iter().map(|app| (app, &trace, &policy)).collect();
    let mut reports = run_many(&runs, jobs).into_iter();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Multi-app robustness (Sec. 8): animation with a CPU-stealing background task\n"
    );
    let _ = writeln!(
        out,
        "{:<16} {:>10} {:>10} {:>8}",
        "variant", "energy mJ", "viol %", "frames"
    );
    for background in [false, true] {
        let report = reports
            .next()
            .expect("one report per variant")
            .expect("run");
        // Judge the touchstart (input 1) against the continuous target.
        let mut exp = HashMap::new();
        exp.insert(
            greenweb_engine::InputId(1),
            InputExpectation {
                qos_type: QosType::Continuous,
                target_ms: 33.3,
            },
        );
        let metrics = RunMetrics::compute(&report, &exp);
        let _ = writeln!(
            out,
            "{:<16} {:>10.1} {:>10.1} {:>8}",
            if background {
                "with background"
            } else {
                "alone"
            },
            metrics.energy_mj,
            metrics.violation_pct,
            metrics.frames
        );
    }
    let _ = writeln!(
        out,
        "\nThe feedback loop buys back the contention with higher configurations:\n\
         energy rises, violations stay bounded."
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenweb_workloads::by_name;

    #[test]
    fn feedback_ablation_shows_violation_gap_on_surgy_app() {
        let w = by_name("W3School").unwrap();
        let cells = feedback_ablation(std::slice::from_ref(&w), Jobs::from_env());
        assert_eq!(cells.len(), 2);
        let fb = &cells[0];
        let nofb = &cells[1];
        assert_eq!(fb.variant, "feedback");
        // Without feedback the runtime cannot react to surges: violations
        // must not improve.
        assert!(
            nofb.metrics.violation_pct >= fb.metrics.violation_pct - 0.5,
            "no-feedback {} vs feedback {}",
            nofb.metrics.violation_pct,
            fb.metrics.violation_pct
        );
        let text = render_feedback_ablation(&cells);
        assert!(text.contains("W3School"));
    }

    #[test]
    fn acmp_beats_big_only_on_a_continuous_app() {
        let w = by_name("Goo.ne.jp").unwrap();
        let text = acmp_ablation(std::slice::from_ref(&w), Jobs::from_env());
        assert!(text.contains("Goo.ne.jp"));
        // The ratio line reports > 1 when ACMP wins.
        let ratio: f64 = text
            .lines()
            .last()
            .unwrap()
            .split_whitespace()
            .find_map(|tok| tok.strip_suffix('x').and_then(|t| t.parse().ok()))
            .expect("ratio present");
        assert!(ratio > 1.0, "acmp should save energy, ratio {ratio}");
    }

    #[test]
    fn background_load_costs_energy_not_qos() {
        let text = background_load_experiment(Jobs::from_env());
        assert!(text.contains("with background"));
        // Parse the two energy cells and compare.
        let numbers: Vec<f64> = text
            .lines()
            .filter(|l| l.starts_with("alone") || l.starts_with("with background"))
            .filter_map(|l| {
                l.split_whitespace()
                    .rev()
                    .nth(2)
                    .and_then(|t| t.parse().ok())
            })
            .collect();
        assert_eq!(numbers.len(), 2, "{text}");
        assert!(
            numbers[1] > numbers[0],
            "background load must cost energy: {numbers:?}"
        );
    }

    #[test]
    fn granularity_ablation_renders_three_rows() {
        let w = by_name("Todo").unwrap();
        let text = granularity_ablation(&w, Jobs::from_env());
        assert!(text.contains("100 MHz"));
        assert!(text.contains("500 MHz"));
    }
}
