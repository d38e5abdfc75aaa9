//! Chaos storm: inject a deterministic fault storm into a drawing app
//! and compare it with its fault-free twin: which faults fired, how
//! the QoS violation rate moves during and after the storm, and what
//! the storm costs in energy.
//!
//! The faulted run records a full event trace; the example exports it
//! as Chrome trace-event JSON so the injected faults, the latency spikes
//! they cause, and the scheduler's decisions are visible on one
//! Perfetto timeline. The same seed prints the same bytes and writes
//! the same trace file.
//!
//! ```sh
//! cargo run --release --example chaos_storm [seed]
//! ```

use greenweb::metrics::violation_rate_in_window;
use greenweb::qos::Scenario;
use greenweb::{AnnotationTable, GreenWebScheduler};
use greenweb_acmp::SimTime;
use greenweb_css::parse_stylesheet_with_errors;
use greenweb_engine::{App, Browser, FaultPlan};
use greenweb_trace::chrome_trace_json;
use greenweb_workloads::by_name;
use greenweb_workloads::chaos::chaos_run_traced;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed: u64 = match std::env::args().nth(1) {
        Some(arg) => arg
            .parse()
            .map_err(|e| format!("seed must be a u64 (got {arg:?}): {e}"))?,
        None => 42,
    };

    // Paper.js: 16 s of near-continuous annotated touchmove, so the
    // runtime judges a frame nearly every VSync.
    let w = by_name("Paper.js").expect("workload exists");
    let storm = (3_000.0, 9_000.0);
    let plan = FaultPlan::storm(seed)
        .with_load_spikes(0.7, 25.0) // 25x cost spikes: too much for any configuration
        .with_window_ms(storm.0, storm.1);

    println!("== chaos storm on {} (seed {seed}) ==", w.name);
    println!(
        "faults confined to [{:.0} ms, {:.0} ms); trace ends at {:.0} ms\n",
        storm.0,
        storm.1,
        w.full.end.as_millis_f64()
    );

    let (run, trace) = chaos_run_traced(&w.app, &w.full, Scenario::Usable, plan)?;

    let chaos = run.faulted.chaos.as_ref().expect("chaos report attached");
    println!("{chaos}");

    let target_ms = w.micro_target.for_scenario(Scenario::Usable);
    // Both windows cover thousands of frames, so an empty window (None)
    // would itself be a bug; 0.0 keeps the printout honest either way.
    let rate = |report, from_ms: f64, to_ms: f64| {
        violation_rate_in_window(
            report,
            target_ms,
            SimTime::from_millis(from_ms as u64),
            SimTime::from_millis(to_ms as u64),
        )
        .unwrap_or(0.0)
    };
    println!("\nviolation rate at the {target_ms:.0} ms usable target:");
    println!(
        "  during storm   faulted {:5.1} %   fault-free {:5.1} %",
        100.0 * rate(&run.faulted, storm.0, storm.1),
        100.0 * rate(&run.baseline, storm.0, storm.1),
    );
    // Judge the aftermath from 2.5 s past the storm, once the backlog
    // it left behind has drained.
    let settled_ms = storm.1 + 2_500.0;
    println!(
        "  after storm    faulted {:5.1} %   fault-free {:5.1} %",
        100.0 * rate(&run.faulted, settled_ms, 1e9),
        100.0 * rate(&run.baseline, settled_ms, 1e9),
    );
    println!(
        "\nenergy: faulted {:.1} mJ vs fault-free {:.1} mJ",
        run.faulted.total_mj(),
        run.baseline.total_mj()
    );

    let trace_path = std::env::temp_dir().join("chaos_storm_trace.json");
    std::fs::write(
        &trace_path,
        chrome_trace_json(&trace, "chaos storm (faulted run)"),
    )?;
    println!(
        "\nwrote the faulted run's trace ({} events, {} faults) to {}",
        trace.events.len(),
        trace.count_of("fault"),
        trace_path.display()
    );
    println!("open it in https://ui.perfetto.dev — the faults sit on their own track");

    // Malformed annotations degrade gracefully too: the page still loads,
    // bad values fall back to their category default, and the errors
    // are reported instead of panicking.
    println!("\n== malformed-annotation resilience ==");
    let broken_css = "#canvas:QoS { ontouchmove-qos: continuous, nonsense; }\
                      #toolbar { margin: 0; }\
                      #canvas:QoS { onclick-qos: single"; // truncated block
    let (sheet, css_errors) = parse_stylesheet_with_errors(broken_css);
    for e in &css_errors {
        println!("css recovered:   {e}");
    }
    let (table, lang_errors) = AnnotationTable::from_stylesheet_lossy(&sheet);
    for e in &lang_errors {
        println!("lang recovered:  {e}");
    }
    println!(
        "annotations kept: {} (bad values replaced by category defaults)",
        table.annotations().len()
    );
    let app = App::builder("broken")
        .html("<div id='canvas'></div><div id='toolbar'></div>")
        .css(broken_css)
        .script(
            "addEventListener(getElementById('canvas'), 'touchmove', function(e) {
                 work(1000000); markDirty();
             });",
        )
        .build();
    let browser = Browser::new(&app, GreenWebScheduler::new(Scenario::Usable));
    println!("page with truncated :QoS block loads: {}", browser.is_ok());
    Ok(())
}
