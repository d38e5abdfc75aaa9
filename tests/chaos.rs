//! Chaos acceptance tests: deterministic fault injection end to end.
//!
//! The robustness claims the fault-injection work must uphold:
//!
//! 1. a seeded chaos run is byte-for-byte reproducible,
//! 2. once a bounded fault storm has passed, the stock runtime's QoS
//!    violation rate is back within 2× of the fault-free run, and
//! 3. the `ChaosReport` records every injected fault, confined to the
//!    plan's window.

use greenweb::metrics::violation_rate_in_window;
use greenweb::qos::Scenario;
use greenweb_acmp::SimTime;
use greenweb_engine::FaultPlan;
use greenweb_workloads::by_name;
use greenweb_workloads::chaos::{chaos_run, ChaosRun};

/// The storm window, in milliseconds of the Paper.js full trace (16 s of
/// near-continuous annotated touchmove — the runtime judges a frame
/// nearly every VSync, both during and after the storm).
const STORM: (f64, f64) = (3_000.0, 9_000.0);
/// Where the post-storm judgment window starts, leaving the runtime
/// 2.5 s to drain the backlog the storm left behind.
const JUDGE_FROM: u64 = 11_500;

fn windowed_storm(seed: u64) -> FaultPlan {
    // 25× spikes instead of the stock storm's 6×, so the storm visibly
    // hurts QoS (the during-storm check below).
    FaultPlan::storm(seed)
        .with_load_spikes(0.7, 25.0)
        .with_window_ms(STORM.0, STORM.1)
}

/// A windowed storm on Paper.js's full trace under the stock usable
/// GreenWeb runtime.
fn stormy_paperjs(seed: u64) -> ChaosRun {
    let w = by_name("Paper.js").unwrap();
    chaos_run(&w.app, &w.full, Scenario::Usable, windowed_storm(seed)).unwrap()
}

#[test]
fn seeded_chaos_runs_are_byte_for_byte_reproducible() {
    let w = by_name("Paper.js").unwrap();
    let run = || chaos_run(&w.app, &w.full, Scenario::Usable, FaultPlan::storm(42)).unwrap();
    let a = run();
    let b = run();
    assert_eq!(a.faulted.chaos, b.faulted.chaos, "fault schedules diverged");
    assert_eq!(a.faulted.total_mj(), b.faulted.total_mj());
    assert_eq!(a.faulted.switches, b.faulted.switches);
    assert_eq!(a.faulted.frames.len(), b.faulted.frames.len());
    for (fa, fb) in a.faulted.frames.iter().zip(&b.faulted.frames) {
        assert_eq!(fa.latency, fb.latency);
        assert_eq!(fa.completed_at, fb.completed_at);
    }

    let other = chaos_run(&w.app, &w.full, Scenario::Usable, FaultPlan::storm(43)).unwrap();
    assert_ne!(
        a.faulted.chaos, other.faulted.chaos,
        "different seeds must yield different schedules"
    );
}

#[test]
fn violation_rate_reconverges_within_2x_of_fault_free() {
    let w = by_name("Paper.js").unwrap();
    let run = stormy_paperjs(42);
    // Judge at the workload's annotated usable target — the QoS contract
    // the annotations promise the user.
    let target_ms = w.micro_target.for_scenario(Scenario::Usable);
    let from = SimTime::from_millis(JUDGE_FROM);
    let to = SimTime::from_millis(10_000_000);
    let faulted = violation_rate_in_window(&run.faulted, target_ms, from, to)
        .expect("faulted run produces frames after the storm");
    let baseline = violation_rate_in_window(&run.baseline, target_ms, from, to)
        .expect("fault-free run produces frames after the storm");
    assert!(
        faulted <= baseline * 2.0 + 0.02,
        "post-recovery violation rate {faulted:.3} vs fault-free {baseline:.3}"
    );
    // During the storm itself the rate is visibly worse — otherwise the
    // recovery claim above is vacuous.
    let storm_ratio = run.violation_ratio(
        target_ms,
        SimTime::from_millis(STORM.0 as u64),
        SimTime::from_millis(STORM.1 as u64),
    );
    assert!(
        storm_ratio > 1.0,
        "storm should hurt QoS (ratio {storm_ratio:.2})"
    );
}

#[test]
fn chaos_report_records_every_fault_inside_the_window() {
    let run = stormy_paperjs(7);
    let chaos = run.faulted.chaos.as_ref().expect("chaos report attached");
    assert_eq!(chaos.seed, 7);
    for category in ["load-spike", "vsync", "input"] {
        assert!(
            chaos.count(category) > 0,
            "storm injected no {category} faults: {chaos}"
        );
    }
    let by_cat: usize = ["load-spike", "vsync", "input"]
        .into_iter()
        .map(|category| chaos.count(category))
        .sum();
    assert_eq!(by_cat, chaos.total(), "category counts must cover the log");
    for fault in &chaos.faults {
        let ms = fault.at.as_millis_f64();
        assert!(
            (STORM.0..STORM.1).contains(&ms),
            "fault at {ms:.1} ms escaped the window: {:?}",
            fault.kind
        );
    }
}
