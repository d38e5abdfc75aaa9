//! Integration tests for the browser simulation: frame lifetime, VSync
//! batching, animation mechanisms, latency attribution, and the
//! interaction between schedulers and the executor.

use greenweb_acmp::{CoreType, CpuConfig, PerfGovernor, Platform, PowersaveGovernor, SimTime};
use greenweb_dom::EventType;
use greenweb_engine::{
    App, Browser, FrameCostModel, GovernorScheduler, InputId, Scheduler, SchedulerCtx, TargetSpec,
    Trace,
};

fn perf() -> GovernorScheduler<PerfGovernor> {
    GovernorScheduler::new(PerfGovernor)
}

fn tap_app() -> App {
    App::builder("tap")
        .html("<div id='box' style='width: 100px'></div><button id='b'>go</button>")
        .script(
            "addEventListener(getElementById('b'), 'click', function(e) {
                 work(5000000);
                 markDirty();
             });",
        )
        .build()
}

#[test]
fn single_tap_produces_one_frame() {
    let app = tap_app();
    let trace = Trace::builder().click_id(50.0, "b").end_ms(500.0).build();
    let mut browser = Browser::new(&app, perf()).unwrap();
    let report = browser.run(&trace).unwrap();
    assert_eq!(report.inputs.len(), 1);
    assert!(report.inputs[0].had_listener);
    assert_eq!(report.frames.len(), 1);
    let frame = &report.frames[0];
    assert_eq!(frame.uid, InputId(0));
    assert_eq!(frame.seq, 0);
    // Latency covers callback + wait-for-VSync + pipeline; bounded but
    // nonzero.
    let ms = frame.latency.as_millis_f64();
    assert!(ms > 3.0 && ms < 60.0, "latency {ms} ms");
}

#[test]
fn frame_latency_measured_from_input() {
    let app = tap_app();
    let trace = Trace::builder().click_id(100.0, "b").end_ms(500.0).build();
    let mut browser = Browser::new(&app, perf()).unwrap();
    let report = browser.run(&trace).unwrap();
    let frame = &report.frames[0];
    let arrival = SimTime::from_millis(100);
    assert_eq!(
        frame.completed_at.since(arrival),
        frame.latency,
        "first-frame latency must anchor at the input"
    );
}

#[test]
fn batched_inputs_share_one_frame() {
    // Two clicks 2 ms apart: both callbacks run before the next VSync, so
    // the dirty bit batches them into one frame with two latency records.
    let app = App::builder("batch")
        .html("<button id='b'>go</button>")
        .script(
            "addEventListener(getElementById('b'), 'click', function(e) {
                 markDirty();
             });",
        )
        .build();
    let trace = Trace::builder()
        .click_id(20.0, "b")
        .click_id(22.0, "b")
        .end_ms(400.0)
        .build();
    let mut browser = Browser::new(&app, perf()).unwrap();
    let report = browser.run(&trace).unwrap();
    assert_eq!(report.frames.len(), 2, "two latency records");
    assert_eq!(
        report.frames[0].completed_at, report.frames[1].completed_at,
        "but a single displayed frame"
    );
    assert!(report.frames[0].latency > report.frames[1].latency);
}

#[test]
fn raf_animation_produces_frame_sequence() {
    let app = App::builder("raf")
        .html("<div id='c'></div>")
        .script(
            "var frames = 0;
             function step(ts) {
                 frames = frames + 1;
                 work(1000000);
                 markDirty();
                 if (frames < 10) { requestAnimationFrame(step); }
             }
             addEventListener(getElementById('c'), 'touchstart', function(e) {
                 requestAnimationFrame(step);
             });",
        )
        .build();
    let trace = Trace::builder()
        .touchstart_id(10.0, "c")
        .end_ms(600.0)
        .build();
    let mut browser = Browser::new(&app, perf()).unwrap();
    let report = browser.run(&trace).unwrap();
    let frames = report.frames_for(InputId(0));
    assert_eq!(
        frames.len(),
        10,
        "ten rAF frames all attributed to the root input"
    );
    assert!(report.inputs[0].used_raf);
    // Sequence indices advance.
    let seqs: Vec<u32> = frames.iter().map(|f| f.seq).collect();
    assert_eq!(seqs, (0..10).collect::<Vec<_>>());
    // Later frames measure per-frame latency (from their VSync), so they
    // are short at peak performance.
    for f in &frames[1..] {
        assert!(
            f.latency.as_millis_f64() < 16.7,
            "animation frame latency {} too long",
            f.latency.as_millis_f64()
        );
    }
}

#[test]
fn css_transition_generates_frames_until_done() {
    // The paper's Fig. 4 scenario: a width transition of 200 ms, armed by
    // a style write in a touchstart callback.
    let app = App::builder("transition")
        .html("<div id='ex' style='width: 100px'></div>")
        .css("div#ex { transition: width 200ms; }")
        .script(
            "addEventListener(getElementById('ex'), 'touchstart', function(e) {
                 setStyle(getElementById('ex'), 'width', 500);
             });",
        )
        .build();
    let trace = Trace::builder()
        .touchstart_id(5.0, "ex")
        .end_ms(600.0)
        .build();
    let mut browser = Browser::new(&app, perf()).unwrap();
    let report = browser.run(&trace).unwrap();
    let frames = report.frames_for(InputId(0));
    // ~200ms / 16.6ms ≈ 12 animation frames plus the first.
    assert!(
        frames.len() >= 10 && frames.len() <= 16,
        "expected ~12 transition frames, got {}",
        frames.len()
    );
    assert!(report.inputs[0].armed_css_animation);
    // After the run, no overlay should keep growing (transition ended).
    assert!(report.frames.len() < 20);
}

#[test]
fn transitionend_event_fires() {
    let app = App::builder("transitionend")
        .html("<div id='ex' style='width: 0px'></div>")
        .css("#ex { transition: width 100ms; }")
        .script(
            "addEventListener(getElementById('ex'), 'touchstart', function(e) {
                 setStyle(getElementById('ex'), 'width', 100);
             });
             addEventListener(getElementById('ex'), 'transitionend', function(e) {
                 log('transition done');
             });",
        )
        .build();
    let trace = Trace::builder()
        .touchstart_id(0.0, "ex")
        .end_ms(500.0)
        .build();
    let mut browser = Browser::new(&app, perf()).unwrap();
    browser.run(&trace).unwrap();
    assert!(browser.logs().iter().any(|l| l == "transition done"));
}

#[test]
fn keyframe_animation_runs_and_ends() {
    let app = App::builder("keyframes")
        .html("<div id='spin'></div>")
        .css("@keyframes grow { from { width: 0px; } to { width: 100px; } }")
        .script(
            "addEventListener(getElementById('spin'), 'click', function(e) {
                 setStyle(getElementById('spin'), 'animation', 'grow 100ms linear');
             });
             addEventListener(getElementById('spin'), 'animationend', function(e) {
                 log('anim done');
             });",
        )
        .build();
    let trace = Trace::builder().click_id(0.0, "spin").end_ms(500.0).build();
    let mut browser = Browser::new(&app, perf()).unwrap();
    let report = browser.run(&trace).unwrap();
    assert!(browser.logs().iter().any(|l| l == "anim done"));
    assert!(report.inputs[0].armed_css_animation);
    assert!(report.frames_for(InputId(0)).len() >= 5);
}

#[test]
fn animate_host_call_runs_animation() {
    let app = App::builder("animate")
        .html("<div id='nav'></div>")
        .script(
            "addEventListener(getElementById('nav'), 'click', function(e) {
                 animate(getElementById('nav'), 'width', 300, 100);
             });",
        )
        .build();
    let trace = Trace::builder().click_id(0.0, "nav").end_ms(400.0).build();
    let mut browser = Browser::new(&app, perf()).unwrap();
    let report = browser.run(&trace).unwrap();
    assert!(report.inputs[0].used_animate);
    assert!(report.frames_for(InputId(0)).len() >= 5);
}

#[test]
fn set_timeout_post_frame_work_runs() {
    let app = App::builder("timers")
        .html("<button id='b'></button>")
        .script(
            "addEventListener(getElementById('b'), 'click', function(e) {
                 markDirty();
                 setTimeout(function() { log('deferred'); work(1000000); }, 120);
             });",
        )
        .build();
    let trace = Trace::builder().click_id(0.0, "b").end_ms(500.0).build();
    let mut browser = Browser::new(&app, perf()).unwrap();
    let report = browser.run(&trace).unwrap();
    assert!(browser.logs().iter().any(|l| l == "deferred"));
    // The timer work produced no extra frame.
    assert_eq!(report.frames.len(), 1);
}

#[test]
fn compositor_scroll_without_listener_still_frames() {
    let app = App::builder("scrolly")
        .html("<div id='content'></div>")
        .build();
    let trace = Trace::builder()
        .event(10.0, EventType::Scroll, TargetSpec::Root)
        .end_ms(300.0)
        .build();
    let mut browser = Browser::new(&app, perf()).unwrap();
    let report = browser.run(&trace).unwrap();
    assert!(!report.inputs[0].had_listener);
    assert_eq!(report.frames.len(), 1, "compositor scroll produces a frame");
}

#[test]
fn powersave_is_slower_but_cheaper_than_perf() {
    let app = tap_app();
    let trace = Trace::builder().click_id(10.0, "b").end_ms(400.0).build();
    let fast = Browser::new(&app, perf()).unwrap().run(&trace).unwrap();
    let slow = Browser::new(&app, GovernorScheduler::new(PowersaveGovernor))
        .unwrap()
        .run(&trace)
        .unwrap();
    assert!(
        slow.frames[0].latency > fast.frames[0].latency,
        "powersave must be slower"
    );
    assert!(
        slow.total_mj() < fast.total_mj(),
        "powersave must be cheaper: {} vs {}",
        slow.total_mj(),
        fast.total_mj()
    );
}

#[test]
fn energy_window_is_scheduler_independent() {
    let app = tap_app();
    let trace = Trace::builder().click_id(10.0, "b").end_ms(400.0).build();
    let a = Browser::new(&app, perf()).unwrap().run(&trace).unwrap();
    let b = Browser::new(&app, GovernorScheduler::new(PowersaveGovernor))
        .unwrap()
        .run(&trace)
        .unwrap();
    assert_eq!(a.total_time, b.total_time);
}

#[test]
fn runs_are_deterministic() {
    let app = tap_app();
    let trace = Trace::builder().click_id(10.0, "b").end_ms(400.0).build();
    let a = Browser::new(&app, perf()).unwrap().run(&trace).unwrap();
    let b = Browser::new(&app, perf()).unwrap().run(&trace).unwrap();
    assert_eq!(a.total_mj(), b.total_mj());
    assert_eq!(a.frames.len(), b.frames.len());
    assert_eq!(a.frames[0].latency, b.frames[0].latency);
}

/// A scheduler that pins a fixed configuration at every input, used to
/// verify the engine honours scheduler decisions and charges switches.
#[derive(Debug)]
struct PinScheduler {
    config: CpuConfig,
}

impl Scheduler for PinScheduler {
    fn name(&self) -> String {
        format!("pin({})", self.config)
    }

    fn on_input(
        &mut self,
        _now: SimTime,
        _uid: InputId,
        _event: EventType,
        _target: greenweb_dom::NodeId,
        _ctx: &SchedulerCtx<'_>,
    ) -> Option<CpuConfig> {
        Some(self.config)
    }
}

#[test]
fn scheduler_config_decisions_are_applied_and_counted() {
    let app = tap_app();
    let trace = Trace::builder().click_id(10.0, "b").end_ms(300.0).build();
    let platform = Platform::odroid_xu_e();
    let target = platform.min_config(CoreType::Little);
    let mut browser = Browser::new(&app, PinScheduler { config: target }).unwrap();
    let report = browser.run(&trace).unwrap();
    // One migration from the initial big config to little.
    assert_eq!(report.switches.1, 1);
    // Residency includes the little config.
    assert!(report.residency.contains_key(&target));
    assert!(report.big_residency_fraction() < 0.2);
}

#[test]
fn listener_targets_enumerates_registrations() {
    let app = App::builder("multi")
        .html("<button id='a'></button><div id='b'></div>")
        .script(
            "addEventListener(getElementById('a'), 'click', function(e) {});
             addEventListener(getElementById('b'), 'touchmove', function(e) {});",
        )
        .build();
    let browser = Browser::new(&app, perf()).unwrap();
    let targets = browser.listener_targets();
    assert_eq!(targets.len(), 2);
    let events: Vec<EventType> = targets.iter().map(|(_, e)| *e).collect();
    assert!(events.contains(&EventType::Click));
    assert!(events.contains(&EventType::TouchMove));
}

#[test]
fn touchmove_run_attributes_each_move() {
    let app = App::builder("mover")
        .html("<div id='list'></div>")
        .script(
            "addEventListener(getElementById('list'), 'touchmove', function(e) {
                 work(2000000);
                 markDirty();
             });",
        )
        .build();
    let trace = Trace::builder()
        .touchmove_run(0.0, "list", 12, 16.6)
        .end_ms(600.0)
        .build();
    let mut browser = Browser::new(&app, perf()).unwrap();
    let report = browser.run(&trace).unwrap();
    assert_eq!(report.inputs.len(), 12);
    assert!(
        report.frames.len() >= 10,
        "got {} frames",
        report.frames.len()
    );
}

#[test]
fn surge_frames_cost_more() {
    let cost = FrameCostModel {
        surge_every: 4,
        surge_factor: 4.0,
        ..FrameCostModel::default()
    };
    let app = App::builder("surgy")
        .html("<div id='c'></div>")
        .cost(cost)
        .script(
            "var n = 0;
             function step(ts) {
                 n = n + 1;
                 markDirty();
                 if (n < 12) { requestAnimationFrame(step); }
             }
             addEventListener(getElementById('c'), 'touchstart', function(e) {
                 requestAnimationFrame(step);
             });",
        )
        .build();
    let trace = Trace::builder()
        .touchstart_id(0.0, "c")
        .end_ms(600.0)
        .build();
    let mut browser = Browser::new(&app, GovernorScheduler::new(PowersaveGovernor)).unwrap();
    let report = browser.run(&trace).unwrap();
    let frames = report.frames_for(InputId(0));
    assert!(frames.len() >= 8);
    let normal = frames.iter().find(|f| f.seq == 3).unwrap();
    let surged = frames.iter().find(|f| f.seq == 4).unwrap();
    assert!(
        surged.latency.as_millis_f64() > normal.latency.as_millis_f64() * 1.5,
        "surge {} vs normal {}",
        surged.latency.as_millis_f64(),
        normal.latency.as_millis_f64()
    );
}

/// `ScriptStats::handlers` counts distinct handler bodies registered at
/// load: one named function shared by three nodes is one body (as
/// LZMA-JS's `pickSize`), two inline closures are two, and a listener a
/// callback adds while the app runs is not counted.
#[test]
fn handler_count_is_distinct_bodies_registered_at_load() {
    let html = "<button id='a'>a</button><button id='b'>b</button><button id='c'>c</button>";
    let handlers = |script: &str| {
        let app = App::builder("handlers").html(html).script(script).build();
        let mut browser = Browser::new(&app, perf()).unwrap();
        let at_load = browser.script_stats().handlers;
        let trace = Trace::builder()
            .click_id(50.0, "a")
            .click_id(150.0, "b")
            .end_ms(400.0)
            .build();
        let report = browser.run(&trace).unwrap();
        // Both clicks reach a listener, the late one included.
        assert_eq!(report.script.callbacks, 2, "{script}");
        assert_eq!(report.script.handlers, at_load, "{script}");
        at_load
    };
    let shared = "function pick(e) { markDirty(); }
                  addEventListener(getElementById('a'), 'click', pick);
                  addEventListener(getElementById('b'), 'click', pick);
                  addEventListener(getElementById('c'), 'click', pick);";
    assert_eq!(handlers(shared), 1);
    let inline = "addEventListener(getElementById('a'), 'click', function(e) { markDirty(); });
                  addEventListener(getElementById('b'), 'click', function(e) { markDirty(); });";
    assert_eq!(handlers(inline), 2);
    let late = "addEventListener(getElementById('a'), 'click', function(e) {
                    addEventListener(getElementById('b'), 'click', function(f) { markDirty(); });
                });";
    assert_eq!(handlers(late), 1);
}
