//! Edge cases and failure injection for the browser engine.

use greenweb_acmp::{CpuConfig, Duration, Governor, PerfGovernor, Platform, SimTime};
use greenweb_dom::EventType;
use greenweb_engine::browser::VSYNC_PERIOD;
use greenweb_engine::{
    App, Browser, BrowserError, GovernorScheduler, InputId, RunBudget, SimReport, TargetSpec, Trace,
};
use greenweb_trace::{EventKind, TraceHandle};

fn perf() -> GovernorScheduler<PerfGovernor> {
    GovernorScheduler::new(PerfGovernor)
}

#[test]
fn malformed_html_is_a_load_error() {
    let app = App::builder("bad-html").html("<div id='x").build();
    match Browser::new(&app, perf()) {
        Err(BrowserError::Html(_)) => {}
        other => panic!("expected html error, got {other:?}"),
    }
}

#[test]
fn malformed_css_recovers_instead_of_failing_load() {
    // Browsers never fail a page load over bad CSS: the parser recovers
    // rule by rule, so the truncated block costs only itself.
    let app = App::builder("bad-css")
        .html("<p></p>")
        .css("p { width: ")
        .build();
    let mut browser = Browser::new(&app, perf()).expect("css recovery keeps the page loadable");
    let trace = Trace::builder().end_ms(100.0).build();
    browser.run(&trace).expect("recovered page still runs");
    // A rule following the malformed one survives too.
    let app = App::builder("bad-css-2")
        .html("<p></p>")
        .css("&&& { nope } p { width: 10px; }")
        .build();
    assert!(Browser::new(&app, perf()).is_ok());
}

#[test]
fn malformed_script_is_a_load_error() {
    let app = App::builder("bad-script")
        .html("<p></p>")
        .script("var x = ;")
        .build();
    match Browser::new(&app, perf()) {
        Err(BrowserError::Parse(_)) => {}
        other => panic!("expected parse error, got {other:?}"),
    }
}

#[test]
fn setup_script_runtime_error_is_a_load_error() {
    let app = App::builder("boom-setup")
        .html("<p></p>")
        .script("undefinedFunction();")
        .build();
    match Browser::new(&app, perf()) {
        Err(BrowserError::Script(_)) => {}
        other => panic!("expected script error, got {other:?}"),
    }
}

#[test]
fn callback_runtime_error_surfaces_from_run() {
    let app = App::builder("boom-callback")
        .html("<button id='b'></button>")
        .script(
            "addEventListener(getElementById('b'), 'click', function(e) {
                 var x = notDefined + 1;
             });",
        )
        .build();
    let trace = Trace::builder().click_id(10.0, "b").end_ms(200.0).build();
    let mut browser = Browser::new(&app, perf()).unwrap();
    match browser.run(&trace) {
        Err(BrowserError::Script(e)) => {
            assert!(e.to_string().contains("undefined variable"));
        }
        other => panic!("expected script error, got {other:?}"),
    }
}

#[test]
fn empty_trace_burns_only_idle_energy() {
    let app = App::builder("idle").html("<p></p>").build();
    let trace = Trace::builder().end_ms(1_000.0).build();
    let mut browser = Browser::new(&app, perf()).unwrap();
    let report = browser.run(&trace).unwrap();
    assert!(report.frames.is_empty());
    assert!(report.inputs.is_empty());
    assert_eq!(report.energy.active_mj, 0.0);
    assert!(report.energy.idle_mj > 0.0);
    assert!(report.busy_time.is_zero());
}

#[test]
fn event_on_missing_element_falls_back_to_root() {
    let app = App::builder("missing")
        .html("<div id='page'></div>")
        .build();
    let trace = Trace::builder()
        .click_id(10.0, "no-such-element")
        .end_ms(200.0)
        .build();
    let mut browser = Browser::new(&app, perf()).unwrap();
    let report = browser.run(&trace).unwrap();
    assert_eq!(report.inputs.len(), 1);
    assert!(!report.inputs[0].had_listener);
    assert!(report.frames.is_empty());
}

#[test]
fn transition_retarget_mid_flight_replaces_the_transition() {
    let app = App::builder("retarget")
        .html("<div id='x' style='width: 0px'></div>")
        .css("#x { transition: width 400ms linear; }")
        .script(
            "var taps = 0;
             addEventListener(getElementById('x'), 'click', function(e) {
                 taps = taps + 1;
                 setStyle(getElementById('x'), 'width', taps * 100);
             });",
        )
        .build();
    // Second tap lands mid-transition and retargets it.
    let trace = Trace::builder()
        .click_id(10.0, "x")
        .click_id(150.0, "x")
        .end_ms(1_200.0)
        .build();
    let mut browser = Browser::new(&app, perf()).unwrap();
    let report = browser.run(&trace).unwrap();
    // Both inputs got frames; the animation converged (no runaway).
    assert!(report.frames_for(InputId(0)).len() >= 5);
    assert!(report.frames_for(InputId(1)).len() >= 5);
    let total = report.frames.len();
    assert!(
        total < 80,
        "retargeted transition must still terminate: {total}"
    );
}

#[test]
fn infinite_css_animation_runs_to_window_end() {
    let app = App::builder("spinner")
        .html("<div id='s'></div>")
        .css("@keyframes spin { from { width: 0px; } to { width: 100px; } }")
        .script(
            "addEventListener(getElementById('s'), 'click', function(e) {
                 setStyle(getElementById('s'), 'animation', 'spin 200ms linear infinite');
             });",
        )
        .build();
    let trace = Trace::builder().click_id(10.0, "s").end_ms(1_000.0).build();
    let mut browser = Browser::new(&app, perf()).unwrap();
    let report = browser.run(&trace).unwrap();
    // ~60 fps for the remaining ~990 ms window.
    assert!(
        report.frames.len() > 40,
        "infinite animation should keep producing frames, got {}",
        report.frames.len()
    );
}

#[test]
fn two_concurrent_animations_attribute_separately() {
    let app = App::builder("duo")
        .html("<div id='a' style='width: 0px'></div><div id='b' style='height: 0px'></div>")
        .css("#a { transition: width 300ms; } #b { transition: height 300ms; }")
        .script(
            "addEventListener(getElementById('a'), 'click', function(e) {
                 setStyle(getElementById('a'), 'width', 100);
             });
             addEventListener(getElementById('b'), 'click', function(e) {
                 setStyle(getElementById('b'), 'height', 100);
             });",
        )
        .build();
    let trace = Trace::builder()
        .click_id(10.0, "a")
        .click_id(60.0, "b")
        .end_ms(900.0)
        .build();
    let mut browser = Browser::new(&app, perf()).unwrap();
    let report = browser.run(&trace).unwrap();
    let a_frames = report.frames_for(InputId(0)).len();
    let b_frames = report.frames_for(InputId(1)).len();
    assert!(a_frames >= 10, "a: {a_frames}");
    assert!(b_frames >= 10, "b: {b_frames}");
}

#[test]
fn timer_chains_execute_in_order() {
    let app = App::builder("chain")
        .html("<button id='go'></button>")
        .script(
            "addEventListener(getElementById('go'), 'click', function(e) {
                 setTimeout(function() {
                     log('first');
                     setTimeout(function() { log('second'); }, 40);
                 }, 40);
             });",
        )
        .build();
    let trace = Trace::builder().click_id(10.0, "go").end_ms(500.0).build();
    let mut browser = Browser::new(&app, perf()).unwrap();
    browser.run(&trace).unwrap();
    assert_eq!(browser.logs(), ["first", "second"]);
}

#[test]
fn dom_removal_during_interaction_is_safe() {
    let app = App::builder("remover")
        .html("<ul id='list'><li id='row-1'>a</li><li id='row-2'>b</li></ul>")
        .script(
            "addEventListener(getElementById('row-1'), 'click', function(e) {
                 removeChild(getElementById('row-1'));
                 markDirty();
             });",
        )
        .build();
    let trace = Trace::builder()
        .click_id(10.0, "row-1")
        .click_id(300.0, "row-1") // now detached: resolves to root, no listener fires
        .end_ms(700.0)
        .build();
    let mut browser = Browser::new(&app, perf()).unwrap();
    let report = browser.run(&trace).unwrap();
    assert_eq!(report.frames_for(InputId(0)).len(), 1);
    assert_eq!(browser.document().elements_by_tag("li").len(), 1);
}

#[test]
fn events_beyond_window_end_are_dropped() {
    let app = App::builder("late")
        .html("<button id='b'></button>")
        .script("addEventListener(getElementById('b'), 'click', function(e) { markDirty(); });")
        .build();
    let trace = Trace {
        events: vec![
            greenweb_engine::TraceEvent {
                at: greenweb_acmp::SimTime::from_millis(10),
                event: EventType::Click,
                target: TargetSpec::Id("b".into()),
            },
            greenweb_engine::TraceEvent {
                at: greenweb_acmp::SimTime::from_millis(900),
                event: EventType::Click,
                target: TargetSpec::Id("b".into()),
            },
        ],
        end: greenweb_acmp::SimTime::from_millis(500),
    };
    let mut browser = Browser::new(&app, perf()).unwrap();
    let report = browser.run(&trace).unwrap();
    assert_eq!(
        report.inputs.len(),
        1,
        "the 900 ms event is past the window"
    );
    assert_eq!(report.total_time.as_millis_f64(), 500.0);
}

#[test]
fn listener_registered_by_callback_takes_effect() {
    let app = App::builder("late-binding")
        .html("<button id='first'></button><button id='second'></button>")
        .script(
            "addEventListener(getElementById('first'), 'click', function(e) {
                 addEventListener(getElementById('second'), 'click', function(e2) {
                     log('second fired');
                     markDirty();
                 });
             });",
        )
        .build();
    let trace = Trace::builder()
        .click_id(10.0, "second") // before registration: nothing
        .click_id(100.0, "first")
        .click_id(300.0, "second") // after registration: fires
        .end_ms(700.0)
        .build();
    let mut browser = Browser::new(&app, perf()).unwrap();
    let report = browser.run(&trace).unwrap();
    assert!(!report.inputs[0].had_listener);
    assert!(report.inputs[2].had_listener);
    assert_eq!(browser.logs(), ["second fired"]);
}

#[test]
fn touchend_state_reset_pattern() {
    // The Paper.js pattern: touchend resets per-stroke state.
    let app = App::builder("strokes")
        .html("<canvas id='c'>x</canvas>")
        .script(
            "var len = 0;
             addEventListener(getElementById('c'), 'touchmove', function(e) {
                 len = len + 1;
                 work(1000000 + len * 500000);
                 markDirty();
             });
             addEventListener(getElementById('c'), 'touchend', function(e) {
                 log('stroke length ' + len);
                 len = 0;
             });",
        )
        .build();
    let trace = Trace::builder()
        .touchmove_run(10.0, "c", 5, 16.6)
        .event(120.0, EventType::TouchEnd, TargetSpec::Id("c".into()))
        .touchmove_run(200.0, "c", 3, 16.6)
        .event(280.0, EventType::TouchEnd, TargetSpec::Id("c".into()))
        .end_ms(600.0)
        .build();
    let mut browser = Browser::new(&app, perf()).unwrap();
    browser.run(&trace).unwrap();
    assert_eq!(browser.logs(), ["stroke length 5", "stroke length 3"]);
}

#[test]
fn animation_overlay_holds_final_value_after_transition() {
    let app = App::builder("overlay")
        .html("<div id='x' style='width: 0px'></div>")
        .css("#x { transition: width 100ms linear; }")
        .script(
            "addEventListener(getElementById('x'), 'click', function(e) {
                 setStyle(getElementById('x'), 'width', 240);
             });",
        )
        .build();
    let trace = Trace::builder().click_id(10.0, "x").end_ms(500.0).build();
    let mut browser = Browser::new(&app, perf()).unwrap();
    browser.run(&trace).unwrap();
    let x = browser.document().element_by_id("x").unwrap();
    let value = browser
        .animated_value(x, "width")
        .and_then(greenweb_css::value::CssValue::as_number)
        .expect("overlay holds the final animated value");
    assert!((value - 240.0).abs() < 1.0, "final width {value}");
}

#[test]
fn style_engine_exposes_parsed_stylesheet() {
    let app = App::builder("sheets")
        .html("<p></p>")
        .css("p { margin: 4px; } #x:QoS { onclick-qos: single, short; }")
        .build();
    let browser = Browser::new(&app, perf()).unwrap();
    let sheet = browser.style_engine().stylesheet();
    assert_eq!(sheet.rules().len(), 2);
    assert_eq!(sheet.qos_rules().count(), 1);
}

/// A governor that ticks every two VSync periods, so each of its ticks
/// lands on the same instant as a VSync, and that flips between the peak
/// and the lowest configuration on every tick so the report counts
/// switches.
#[derive(Debug, Default)]
struct FlipOnVsyncGovernor {
    high: bool,
}

impl Governor for FlipOnVsyncGovernor {
    fn name(&self) -> &'static str {
        "flip-on-vsync"
    }

    fn timer_period(&self) -> Option<Duration> {
        Some(Duration::from_nanos(2 * VSYNC_PERIOD.as_nanos()))
    }

    fn on_timer(
        &mut self,
        _now: SimTime,
        _utilization: f64,
        _current: CpuConfig,
        platform: &Platform,
    ) -> CpuConfig {
        self.high = !self.high;
        if self.high {
            platform.peak()
        } else {
            platform.lowest()
        }
    }
}

fn on_vsync(n: u64) -> SimTime {
    SimTime::ZERO + Duration::from_nanos(n * VSYNC_PERIOD.as_nanos())
}

/// One click whose callback chains a few rAF frames: inputs, VSyncs
/// that find work, and long idle stretches in between.
fn raf_chain_app() -> App {
    App::builder("raf-chain")
        .html("<button id='b'>go</button>")
        .script(
            "var n = 0;
             function step(t) {
                 n = n + 1;
                 work(2000000);
                 markDirty();
                 if (n % 4 != 0) { requestAnimationFrame(step); }
             }
             addEventListener(getElementById('b'), 'click', function(e) {
                 work(3000000);
                 markDirty();
                 requestAnimationFrame(step);
             });",
        )
        .build()
}

/// Runs `trace` on a fresh browser, with `recorder` attached if given.
fn run_flip(
    app: &App,
    trace: &Trace,
    recorder: Option<&TraceHandle>,
    budget: Option<RunBudget>,
) -> Result<SimReport, BrowserError> {
    let mut browser = Browser::new(app, GovernorScheduler::new(FlipOnVsyncGovernor::default()))?;
    if let Some(recorder) = recorder {
        browser.set_trace(recorder.clone());
    }
    if let Some(budget) = budget {
        browser.set_budget(budget);
    }
    browser.run(trace)
}

#[test]
fn ties_with_vsync_order_the_same_detached_and_recorded() {
    // Two clicks arrive exactly on a VSync (the first also on a governor
    // tick), and every governor tick coincides with a VSync: the event
    // loop's `(at, seq)` tie order decides who goes first, and it must
    // not depend on whether the tick is handled inline.
    let app = raf_chain_app();
    let mut trace = Trace::builder()
        .click_id(0.0, "b")
        .click_id(0.0, "b")
        .end_ms(2000.0)
        .build();
    trace.events[0].at = on_vsync(6);
    trace.events[1].at = on_vsync(61);
    let recorder = TraceHandle::with_capacity(1 << 16);
    let detached = run_flip(&app, &trace, None, None).unwrap();
    let recorded = run_flip(&app, &trace, Some(&recorder), None).unwrap();
    assert_eq!(detached.inputs.len(), 2);
    assert!(
        detached.frames.len() >= 8,
        "{} frames",
        detached.frames.len()
    );
    assert!(detached.switches.0 + detached.switches.1 > 0);
    assert_eq!(detached.frames, recorded.frames);
    assert_eq!(detached.switches, recorded.switches);
    assert_eq!(detached.busy_time, recorded.busy_time);

    // The tie order itself, read off the recorded timeline. An input is
    // queued before the run arms the first VSync, so at 6 periods the
    // click goes first.
    let buffer = recorder.snapshot();
    let first_at = |at: SimTime, name: &str| {
        buffer
            .events
            .iter()
            .position(|r| r.at == at && r.kind.name() == name)
            .unwrap_or_else(|| panic!("no {name} at {at:?}"))
    };
    assert!(first_at(on_vsync(6), "input") < first_at(on_vsync(6), "vsync"));
    // The governor tick due at 4 periods was armed at 2 periods, before
    // the VSync due at 4 periods (armed at 3), so it runs first: its
    // second flip, to lowest, precedes that VSync.
    let flip = first_at(on_vsync(4), "config-switch");
    assert!(flip < first_at(on_vsync(4), "vsync"));
    assert!(matches!(
        buffer.events[flip].kind,
        EventKind::ConfigSwitch { to, .. } if to == Platform::odroid_xu_e().lowest()
    ));
}

#[test]
fn event_budget_counts_idle_vsyncs_detached_and_recorded() {
    // Over a long idle trace nearly every VSync only re-arms itself. The
    // detached run handles those inline but must still count them, so
    // the ceiling trips at the same event — the same `t=` — both ways.
    let app = raf_chain_app();
    let trace = Trace::builder()
        .click_id(50.0, "b")
        .end_ms(10_000.0)
        .build();
    let budget = RunBudget {
        max_callback_ops: 1_000_000,
        max_sim_events: 200,
    };
    let trip = |recorder: Option<&TraceHandle>| match run_flip(&app, &trace, recorder, Some(budget))
    {
        Err(BrowserError::Budget(detail)) => detail,
        other => panic!("expected a budget trip, got {other:?}"),
    };
    let detached = trip(None);
    assert!(detached.contains("t="), "{detached}");
    assert_eq!(detached, trip(Some(&TraceHandle::with_capacity(1 << 16))));
}

#[test]
fn recorded_idle_stretches_cost_no_records_per_tick() {
    // Ten seconds, one click, a few rAF frames: 599 VSync ticks, nearly
    // all idle. The recorder must hold records for what happened, not
    // one per tick: spans, decisions, frame commits and switches, plus
    // per busy stretch at most its working VSync, its two busy/idle
    // edge samples and the idle run after it (46 records for 26 here;
    // one record per tick would be over 630).
    let app = raf_chain_app();
    let trace = Trace::builder()
        .click_id(50.0, "b")
        .end_ms(10_000.0)
        .build();
    let recorder = TraceHandle::with_capacity(1 << 16);
    let mut browser = Browser::new(&app, perf()).unwrap();
    browser.set_trace(recorder.clone());
    let report = browser.run(&trace).unwrap();
    drop(browser);
    let buffer = recorder.take();
    let ticks = buffer.count_of("vsync") as u64;
    assert_eq!(ticks, 10_000_000_000 / VSYNC_PERIOD.as_nanos());
    assert!(report.frames.len() >= 4, "{} frames", report.frames.len());
    let of = |name: &str| buffer.count_of(name) as u64;
    let work = ["input", "callback", "style", "layout", "paint", "composite"]
        .map(of)
        .iter()
        .sum::<u64>()
        + of("decision")
        + of("frame-commit")
        + of("config-switch");
    let records = buffer.events.len() as u64;
    assert!(
        records <= 2 * work + 8,
        "{records} records for {work} spans, decisions, commits and switches over {ticks} ticks"
    );
}
