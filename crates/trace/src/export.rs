//! The exporter: Chrome trace-event JSON (Perfetto / `chrome://tracing`).
//!
//! The JSON goes through [`crate::json`], whose number and string
//! rules are deterministic; timestamps are integer nanoseconds divided
//! to microseconds, so identical runs export identical bytes.

use crate::event::{EventKind, SpanKind, TraceRecord};
use crate::json::{self, Arr, Obj, ToJson};
use crate::recorder::TraceBuffer;
use greenweb_acmp::SimTime;

/// The simulated process id every event maps to.
const PID: u32 = 1;

/// The simulated threads, as Perfetto tracks: `(tid, name)`.
/// The main thread carries callback + rendering-stage spans (the engine
/// serializes them, so spans never overlap); input dispatch, VSync,
/// scheduler activity, faults, and frame commits each get their own
/// track.
const THREADS: [(u32, &str); 6] = [
    (1, "main"),
    (2, "input"),
    (3, "vsync"),
    (4, "scheduler"),
    (5, "faults"),
    (6, "frames"),
];

fn ts_us(at: SimTime) -> f64 {
    at.as_nanos() as f64 / 1000.0
}

/// Writes a Chrome trace-event document into `out`: the process and
/// `threads` name metadata, then the events `body` appends, one per
/// line.
pub(crate) fn trace_document(
    out: &mut String,
    process_name: &str,
    threads: &[(u32, &str)],
    body: impl FnOnce(&mut Arr<'_>),
) {
    json::object(out, |doc| {
        doc.arr("traceEvents", |events| {
            events.lines();
            metadata(events, "process_name", 0, "name", process_name);
            for &(tid, name) in threads {
                metadata(events, "thread_name", tid, "name", name);
                metadata(events, "thread_sort_index", tid, "sort_index", tid);
            }
            body(events);
        })
        .field("displayTimeUnit", "ms");
    });
    out.push('\n');
}

fn metadata(events: &mut Arr<'_>, name: &str, tid: u32, arg: &str, value: impl ToJson) {
    events.obj(|e| {
        e.field("name", name)
            .field("ph", "M")
            .field("pid", PID)
            .field("tid", tid)
            .obj("args", |args| {
                args.field(arg, value);
            });
    });
}

/// Appends one event with the common fields; `rest` writes the
/// event's own fields after them.
pub(crate) fn event(
    events: &mut Arr<'_>,
    name: &str,
    cat: &str,
    ph: &str,
    tid: u32,
    ts: f64,
    rest: impl FnOnce(&mut Obj<'_>),
) {
    events.obj(|e| {
        e.field("name", name)
            .field("cat", cat)
            .field("ph", ph)
            .field("pid", PID)
            .field("tid", tid)
            .field("ts", ts);
        rest(e);
    });
}

/// An instant event (`"ph":"I"`, thread-scoped) whose `args` `body`
/// writes.
fn instant(
    events: &mut Arr<'_>,
    name: &str,
    cat: &str,
    tid: u32,
    at: SimTime,
    body: impl FnOnce(&mut Obj<'_>),
) {
    event(events, name, cat, "I", tid, ts_us(at), |e| {
        e.field("s", "t").obj("args", body);
    });
}

/// A counter event (`"ph":"C"`) whose `args` `body` writes.
fn counter(events: &mut Arr<'_>, name: &str, ts: f64, body: impl FnOnce(&mut Obj<'_>)) {
    event(events, name, "power", "C", 0, ts, |e| {
        e.obj("args", body);
    });
}

/// One VSync tick on the vsync track.
fn vsync(events: &mut Arr<'_>, at: SimTime) {
    event(events, "vsync", "vsync", "I", 3, ts_us(at), |e| {
        e.field("s", "t");
    });
}

fn write_event(events: &mut Arr<'_>, record: &TraceRecord) {
    let at = record.at;
    match &record.kind {
        EventKind::Span {
            kind,
            start,
            dur,
            uids,
            label,
            ops,
            mj,
        } => {
            let (tid, cat) = if *kind == SpanKind::Input {
                (2, "input")
            } else {
                (1, "pipeline")
            };
            event(events, kind.name(), cat, "X", tid, ts_us(*start), |e| {
                e.field("dur", dur.as_nanos() as f64 / 1000.0)
                    .obj("args", |args| {
                        args.field("uids", uids.as_slice())
                            .field("ops", ops)
                            .field("mj", mj);
                        if let Some(label) = label {
                            args.field("event", label);
                        }
                    });
            });
        }
        EventKind::Vsync => vsync(events, at),
        EventKind::IdleVsyncs { ticks, period } => {
            for tick in 0..*ticks {
                vsync(
                    events,
                    SimTime::from_nanos(at.as_nanos() + tick * period.as_nanos()),
                );
            }
        }
        EventKind::Decision {
            target_ms,
            predicted_ms,
            chosen,
            profiling,
        } => instant(events, "decision", "scheduler", 4, at, |args| {
            args.field("target_ms", target_ms)
                .field("predicted_ms", predicted_ms)
                .field("config", format_args!("{chosen}"))
                .field("profiling", profiling);
        }),
        EventKind::ConfigSwitch { from, to, penalty } => {
            instant(events, "config-switch", "scheduler", 4, at, |args| {
                let kind = if from.core == to.core {
                    "dvfs"
                } else {
                    "migration"
                };
                args.field("from", format_args!("{from}"))
                    .field("to", format_args!("{to}"))
                    .field("kind", kind)
                    .field("penalty_us", penalty.as_nanos() as f64 / 1000.0);
            });
        }
        EventKind::Fault { category, detail } => {
            instant(events, category, "fault", 5, at, |args| {
                args.field("detail", detail);
            });
        }
        EventKind::EnergySample {
            active_mj,
            idle_mj,
            power_mw,
            config,
        } => {
            let ts = ts_us(at);
            counter(events, "energy_mj", ts, |args| {
                args.field("actual", active_mj + idle_mj);
            });
            counter(events, "power_mw", ts, |args| {
                args.field("mw", power_mw);
            });
            counter(events, "freq_mhz", ts, |args| {
                args.field("mhz", config.freq_mhz);
            });
        }
        EventKind::StyleStats {
            resolves,
            matches,
            matches_id,
            matches_class,
            matches_tag,
            matches_universal,
            bloom_rejects,
        } => instant(events, "style-stats", "style", 1, at, |args| {
            args.field("resolves", resolves)
                .field("matches", matches)
                .field("matches_id", matches_id)
                .field("matches_class", matches_class)
                .field("matches_tag", matches_tag)
                .field("matches_universal", matches_universal)
                .field("bloom_rejects", bloom_rejects);
        }),
        EventKind::RenderStats {
            relayouts,
            elements_laid_out,
            subtree_reuses,
            dirty_elements,
            full_repaints,
            partial_repaints,
            items_emitted,
            items_reused,
            damage_items,
            damage_area,
        } => instant(events, "render-stats", "render", 1, at, |args| {
            args.field("relayouts", relayouts)
                .field("elements_laid_out", elements_laid_out)
                .field("subtree_reuses", subtree_reuses)
                .field("dirty_elements", dirty_elements)
                .field("full_repaints", full_repaints)
                .field("partial_repaints", partial_repaints)
                .field("items_emitted", items_emitted)
                .field("items_reused", items_reused)
                .field("damage_items", damage_items)
                .field("damage_area", damage_area);
        }),
        EventKind::FrameCommit {
            uid,
            seq,
            latency,
            event,
        } => instant(events, "frame", "frames", 6, at, |args| {
            args.field("uid", uid)
                .field("seq", seq)
                .field("latency_ms", latency.as_millis_f64())
                .field("event", event);
        }),
    }
}

/// Serializes `buffer` as Chrome trace-event JSON.
///
/// The result loads in Perfetto (<https://ui.perfetto.dev>) and
/// `chrome://tracing`: one simulated process named after
/// `process_name`, with the main thread, input dispatch, VSync,
/// scheduler, faults, and frame commits as separate threads, and
/// energy/power/frequency as counter tracks. One event per line, so
/// traces diff cleanly.
pub fn chrome_trace_json(buffer: &TraceBuffer, process_name: &str) -> String {
    let mut out = String::with_capacity(256 + buffer.events.len() * 160);
    trace_document(&mut out, process_name, &THREADS, |events| {
        for record in &buffer.events {
            write_event(events, record);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::TraceHandle;
    use greenweb_acmp::{CoreType, CpuConfig, Duration};

    fn sample_buffer() -> TraceBuffer {
        let trace = TraceHandle::with_capacity(64);
        trace.record(
            SimTime::from_millis(1),
            EventKind::Span {
                kind: SpanKind::Callback,
                start: SimTime::ZERO,
                dur: Duration::from_millis(1),
                uids: vec![0, 1],
                label: Some("click"),
                ops: 42,
                mj: 1.5,
            },
        );
        trace.record(SimTime::from_millis(16), EventKind::Vsync);
        trace.record_idle_vsync(SimTime::from_millis(32), Duration::from_millis(16));
        trace.record_idle_vsync(SimTime::from_millis(48), Duration::from_millis(16));
        trace.record(
            SimTime::from_millis(16),
            EventKind::Decision {
                target_ms: 33.3,
                predicted_ms: Some(12.5),
                chosen: CpuConfig::new(CoreType::Big, 1000),
                profiling: false,
            },
        );
        trace.record(
            SimTime::from_millis(16),
            EventKind::EnergySample {
                active_mj: 8.0,
                idle_mj: 2.0,
                power_mw: 750.0,
                config: CpuConfig::new(CoreType::Big, 1000),
            },
        );
        trace.record(
            SimTime::from_millis(17),
            EventKind::Fault {
                category: "vsync",
                detail: "tick \"dropped\"\n".to_string(),
            },
        );
        trace.snapshot()
    }

    #[test]
    fn chrome_json_is_wellformed_and_typed() {
        let json = chrome_trace_json(&sample_buffer(), "demo \"app\"");
        crate::json::JsonValue::parse(&json).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""), "span event missing");
        assert!(json.contains("\"ph\":\"I\""), "instant event missing");
        assert!(json.contains("\"ph\":\"C\""), "counter event missing");
        assert!(json.contains("\"name\":\"callback\""));
        assert!(json.contains("\"uids\":[0,1]"));
        assert!(json.contains("\"ops\":42"), "span ops missing");
        assert!(json.contains("\"mj\":1.5"), "span energy missing");
        // The idle run expands to one instant per tick.
        assert_eq!(json.matches("\"cat\":\"vsync\"").count(), 3);
        assert!(json.contains("\"ts\":48000"), "last idle tick missing");
        assert!(json.contains("\"predicted_ms\":12.5"));
        assert!(json.contains("demo \\\"app\\\""), "escaping broken");
        assert!(json.contains("tick \\\"dropped\\\"\\n"));
    }

    #[test]
    fn export_is_deterministic() {
        let a = chrome_trace_json(&sample_buffer(), "x");
        let b = chrome_trace_json(&sample_buffer(), "x");
        assert_eq!(a, b);
    }
}
