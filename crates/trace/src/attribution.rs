//! The attribution profiler: a deterministic post-processing layer that
//! reconstructs, per input event, the full causal chain the trace
//! recorded — event → handler callback → style/layout/paint spans →
//! frame commits — and answers "where did the energy go".
//!
//! Each span carries its own busy energy, priced by the engine from the
//! CPU's per-configuration ledger: the ledger's cumulative busy energy
//! when the span is recorded minus its value at the previous main-thread
//! span. That is the task's own busy energy, plus any busy time the CPU
//! spent with no task running just before it started. Main-thread tasks
//! never overlap and every one is recorded, the task in flight at the
//! end included, so the spans hold the run's busy energy and the
//! profiler only adds them up, by phase, by input and by callback. The run's idle energy, and its total, come
//! from the closing `EnergySample` the engine records at the end of the
//! run. `unattributed` is the closing sample's busy energy that no span
//! carries: that of spans the ring evicted, and busy time after the last
//! span with no task running. So `idle` equals the run's idle energy and
//! `attributed + unattributed` its busy energy up to f64 rounding, which
//! is what the conservation gate in `tests/trace.rs` pins.
//!
//! Everything here is a pure function of the [`TraceBuffer`]: no clocks,
//! no maps with nondeterministic iteration order, so identical runs
//! produce byte-identical profiles — serial vs parallel, run vs re-run.

use crate::event::{EventKind, SpanKind};
use crate::export::{event, trace_document};
use crate::json::{self, Obj};
use crate::metrics::Histogram;
use crate::recorder::TraceBuffer;
use greenweb_acmp::{Duration, SimTime};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Index of `kind` within [`SpanKind::ALL`] — the phase axis of every
/// per-phase array in this module.
fn phase_index(kind: SpanKind) -> usize {
    SpanKind::ALL
        .iter()
        .position(|k| *k == kind)
        .expect("SpanKind::ALL covers every kind")
}

/// One span lifted out of the trace with its attributed energy.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributedSpan {
    /// Which pipeline stage.
    pub kind: SpanKind,
    /// When the work started.
    pub start: SimTime,
    /// How long it ran.
    pub dur: Duration,
    /// The input uids the work answers.
    pub uids: Vec<u64>,
    /// Optional DOM event type annotation.
    pub label: Option<&'static str>,
    /// VM opcodes executed (callback spans only).
    pub ops: u64,
    /// Busy energy the span carries, in millijoules.
    pub mj: f64,
}

impl AttributedSpan {
    fn end(&self) -> SimTime {
        self.start + self.dur
    }
}

/// Everything one input event bought: its per-phase energy split, the
/// script work it triggered, and the frames that answered it.
#[derive(Debug, Clone, PartialEq)]
pub struct EventAttribution {
    /// The input's uid.
    pub uid: u64,
    /// The DOM event type name (`"?"` when the dispatch span was
    /// evicted by the ring).
    pub label: String,
    /// When the input was dispatched.
    pub dispatch: SimTime,
    /// Energy per pipeline phase, indexed like [`SpanKind::ALL`], in
    /// millijoules.
    pub phase_mj: [f64; 6],
    /// VM opcodes executed in callbacks answering this input.
    pub ops: u64,
    /// Frames committed for this input.
    pub frames: u64,
}

impl EventAttribution {
    /// Total energy attributed to this event across all phases.
    pub fn total_mj(&self) -> f64 {
        self.phase_mj.iter().sum()
    }
}

/// Aggregate cost of one callback population, keyed by the DOM event
/// type that triggered it.
#[derive(Debug, Clone, PartialEq)]
pub struct CallbackCost {
    /// The triggering event type name.
    pub label: String,
    /// Number of callback spans.
    pub count: u64,
    /// Total callback wall time, in milliseconds.
    pub total_ms: f64,
    /// Total callback energy, in millijoules.
    pub total_mj: f64,
    /// Total VM opcodes executed.
    pub total_ops: u64,
}

/// Exact selector-match work per rule bucket, from the run's
/// `StyleStats` record.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketCost {
    /// Bucket name: `"id"`, `"class"`, `"tag"`, `"universal"`.
    pub bucket: &'static str,
    /// Exact match walks on candidates from this bucket.
    pub matches: u64,
    /// This bucket's share of all exact walks (0 when none ran).
    pub share: f64,
}

/// The run's render-pipeline counters, lifted from the `RenderStats`
/// record: layout dirtiness/reuse and paint damage, as one roll-up row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RenderWork {
    /// Frames laid out.
    pub relayouts: u64,
    /// Elements actually measured across the run.
    pub elements_laid_out: u64,
    /// Clean subtrees served whole from the measure cache.
    pub subtree_reuses: u64,
    /// Elements whose subtree fingerprint changed.
    pub dirty_elements: u64,
    /// Frames charged the full paint price.
    pub full_repaints: u64,
    /// Frames charged a damaged-fraction paint price.
    pub partial_repaints: u64,
    /// Display items (re)built.
    pub items_emitted: u64,
    /// Retained display items reused unchanged.
    pub items_reused: u64,
    /// Damaged display items.
    pub damage_items: u64,
    /// Damaged area, px².
    pub damage_area: u64,
}

/// Why one deadline was missed: the commit that blew its target and the
/// spans that consumed the budget inside the missed frame's interval.
#[derive(Debug, Clone, PartialEq)]
pub struct ViolationForensics {
    /// The input uid whose frame missed.
    pub uid: u64,
    /// The frame's sequence number within the input's lifetime.
    pub seq: u32,
    /// The originating DOM event type name.
    pub event: String,
    /// When the frame committed.
    pub at: SimTime,
    /// The recorded frame latency, in milliseconds.
    pub latency_ms: f64,
    /// The QoS target in force at the commit, in milliseconds.
    pub target_ms: f64,
    /// The spans overlapping `[at − latency, at]` — where the budget
    /// went — in trace order (the order they ended).
    pub spans: Vec<AttributedSpan>,
    /// Configuration switches that landed inside the window.
    pub switches_in_window: u64,
}

/// The full attribution profile of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionProfile {
    /// Per-event attribution rows, uid-ascending.
    pub events: Vec<EventAttribution>,
    /// Per-callback cost ranking, total-energy-descending.
    pub callbacks: Vec<CallbackCost>,
    /// Per-selector-bucket cost ranking, matches-descending.
    pub buckets: Vec<BucketCost>,
    /// Deadline-miss forensics, commit order.
    pub forensics: Vec<ViolationForensics>,
    /// Render-pipeline counters (layout dirtiness, paint damage) from
    /// the run's `RenderStats` record; zeros when the trace has none.
    pub render: RenderWork,
    /// Energy per pipeline phase, indexed like [`SpanKind::ALL`].
    pub phase_mj: [f64; 6],
    /// Energy the CPU spent idle.
    pub idle_mj: f64,
    /// Busy energy no recorded span carries: the closing sample's busy
    /// energy minus the span total (spans the ring evicted, busy time
    /// after the last span with no task running), floored at zero.
    pub unattributed_mj: f64,
    /// Ground-truth total: the last sample's busy plus idle energy.
    pub total_mj: f64,
    /// DVFS switch count.
    pub switch_dvfs: u64,
    /// Core-migration switch count.
    pub switch_migration: u64,
    /// Events the ring evicted before the snapshot (attribution
    /// undercounts when non-zero).
    pub dropped: u64,
}

impl AttributionProfile {
    /// Sum of energy attributed to spans (total − idle − unattributed,
    /// up to f64 rounding).
    pub fn attributed_mj(&self) -> f64 {
        self.phase_mj.iter().sum()
    }

    /// Number of deadline misses.
    pub fn misses(&self) -> u64 {
        self.forensics.len() as u64
    }

    /// Builds the profile from a recorded trace, in one forward pass
    /// over its records plus one binary-searched lookup per deadline
    /// miss.
    pub fn from_trace(buffer: &TraceBuffer) -> AttributionProfile {
        // Spans in record order. The recorder appends each span when it
        // ends, so this is end order.
        let mut spans: Vec<AttributedSpan> = Vec::new();
        // The cumulative ground-truth `(busy, idle)` energy of the last
        // sample: the engine's closing sample, taken at the run's end.
        let mut closing = (0.0, 0.0);
        let mut commits: Vec<(SimTime, u64, u32, &'static str, Duration)> = Vec::new();
        let mut switch_times: Vec<SimTime> = Vec::new();
        let mut targets: Vec<(SimTime, f64)> = Vec::new();
        let mut bucket_counts: Option<[u64; 4]> = None;
        let mut render = RenderWork::default();
        let (mut switch_dvfs, mut switch_migration) = (0u64, 0u64);
        for record in &buffer.events {
            match &record.kind {
                EventKind::Span {
                    kind,
                    start,
                    dur,
                    uids,
                    label,
                    ops,
                    mj,
                } => spans.push(AttributedSpan {
                    kind: *kind,
                    start: *start,
                    dur: *dur,
                    uids: uids.clone(),
                    label: *label,
                    ops: *ops,
                    mj: *mj,
                }),
                EventKind::EnergySample {
                    active_mj, idle_mj, ..
                } => closing = (*active_mj, *idle_mj),
                EventKind::FrameCommit {
                    uid,
                    seq,
                    latency,
                    event,
                } => commits.push((record.at, *uid, *seq, event, *latency)),
                EventKind::ConfigSwitch { from, to, .. } => {
                    switch_times.push(record.at);
                    if from.core == to.core {
                        switch_dvfs += 1;
                    } else {
                        switch_migration += 1;
                    }
                }
                EventKind::Decision { target_ms, .. } => {
                    targets.push((record.at, *target_ms));
                }
                EventKind::StyleStats {
                    matches_id,
                    matches_class,
                    matches_tag,
                    matches_universal,
                    ..
                } => {
                    bucket_counts = Some([
                        *matches_id,
                        *matches_class,
                        *matches_tag,
                        *matches_universal,
                    ]);
                }
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
                } => {
                    render = RenderWork {
                        relayouts: *relayouts,
                        elements_laid_out: *elements_laid_out,
                        subtree_reuses: *subtree_reuses,
                        dirty_elements: *dirty_elements,
                        full_repaints: *full_repaints,
                        partial_repaints: *partial_repaints,
                        items_emitted: *items_emitted,
                        items_reused: *items_reused,
                        damage_items: *damage_items,
                        damage_area: *damage_area,
                    };
                }
                _ => {}
            }
        }
        let (busy_mj, idle_mj) = closing;

        // Per-event and per-phase rollups. BTreeMap keeps uid order
        // deterministic.
        let mut phase_mj = [0.0f64; 6];
        let mut by_uid: BTreeMap<u64, EventAttribution> = BTreeMap::new();
        let blank = |uid: u64| EventAttribution {
            uid,
            label: "?".to_string(),
            dispatch: SimTime::ZERO,
            phase_mj: [0.0; 6],
            ops: 0,
            frames: 0,
        };
        let mut callbacks: BTreeMap<&'static str, CallbackCost> = BTreeMap::new();
        for span in &spans {
            let phase = phase_index(span.kind);
            phase_mj[phase] += span.mj;
            let share = if span.uids.is_empty() {
                0.0
            } else {
                span.mj / span.uids.len() as f64
            };
            for &uid in &span.uids {
                let row = by_uid.entry(uid).or_insert_with(|| blank(uid));
                row.phase_mj[phase] += share;
                if span.kind == SpanKind::Callback {
                    row.ops += span.ops;
                }
                if span.kind == SpanKind::Input {
                    row.dispatch = span.start;
                    if let Some(label) = span.label {
                        row.label = label.to_string();
                    }
                }
            }
            if span.kind == SpanKind::Callback {
                let entry = callbacks
                    .entry(span.label.unwrap_or("?"))
                    .or_insert_with(|| CallbackCost {
                        label: span.label.unwrap_or("?").to_string(),
                        count: 0,
                        total_ms: 0.0,
                        total_mj: 0.0,
                        total_ops: 0,
                    });
                entry.count += 1;
                entry.total_ms += span.dur.as_millis_f64();
                entry.total_mj += span.mj;
                entry.total_ops += span.ops;
            }
        }
        for &(_, uid, _, event, _) in &commits {
            let row = by_uid.entry(uid).or_insert_with(|| blank(uid));
            row.frames += 1;
            if row.label == "?" {
                row.label = event.to_string();
            }
        }

        // Busy energy the closing sample counts and no span carries:
        // that of spans the ring evicted, and busy time after the last
        // span with no task running. Otherwise only f64 rounding, which
        // can come out a hair below zero.
        let unattributed_mj = (busy_mj - phase_mj.iter().sum::<f64>()).max(0.0);

        // Deadline-miss forensics: judge each commit against the most
        // recent scheduler decision at or before it. Decisions and
        // switches are recorded in time order and spans in end order, so
        // each lookup is a binary search; `earliest[k]` is the first
        // start among `spans[k..]`, so no span from the first `earliest`
        // at or past the commit on overlaps the window.
        let mut earliest: Vec<SimTime> = Vec::with_capacity(spans.len());
        for span in spans.iter().rev() {
            let first = earliest.last().map_or(span.start, |&t| t.min(span.start));
            earliest.push(first);
        }
        earliest.reverse();
        let mut forensics = Vec::new();
        for &(at, uid, seq, event, latency) in &commits {
            let decided = targets.partition_point(|&(t, _)| t <= at);
            let Some(&(_, target_ms)) = targets[..decided].last() else {
                continue;
            };
            let latency_ms = latency.as_millis_f64();
            if latency_ms <= target_ms {
                continue;
            }
            let window_start =
                SimTime::from_nanos(at.as_nanos().saturating_sub(latency.as_nanos()));
            let lo = spans.partition_point(|s| s.end() <= window_start);
            let hi = earliest.partition_point(|&t| t < at);
            let named: Vec<AttributedSpan> = spans[lo..hi.max(lo)]
                .iter()
                .filter(|s| s.start < at)
                .cloned()
                .collect();
            let switches_in_window = (switch_times.partition_point(|&t| t <= at)
                - switch_times.partition_point(|&t| t < window_start))
                as u64;
            forensics.push(ViolationForensics {
                uid,
                seq,
                event: event.to_string(),
                at,
                latency_ms,
                target_ms,
                spans: named,
                switches_in_window,
            });
        }

        let mut callbacks: Vec<CallbackCost> = callbacks.into_values().collect();
        callbacks.sort_by(|a, b| {
            b.total_mj
                .total_cmp(&a.total_mj)
                .then_with(|| a.label.cmp(&b.label))
        });
        let counts = bucket_counts.unwrap_or([0; 4]);
        let matched: u64 = counts.iter().sum();
        let mut buckets: Vec<BucketCost> = ["id", "class", "tag", "universal"]
            .iter()
            .zip(counts)
            .map(|(&bucket, matches)| BucketCost {
                bucket,
                matches,
                share: if matched > 0 {
                    matches as f64 / matched as f64
                } else {
                    0.0
                },
            })
            .collect();
        buckets.sort_by(|a, b| {
            b.matches
                .cmp(&a.matches)
                .then_with(|| a.bucket.cmp(b.bucket))
        });

        AttributionProfile {
            events: by_uid.into_values().collect(),
            callbacks,
            buckets,
            forensics,
            render,
            phase_mj,
            idle_mj,
            unattributed_mj,
            total_mj: busy_mj + idle_mj,
            switch_dvfs,
            switch_migration,
            dropped: buffer.dropped,
        }
    }

    /// The sparse roll-up a fleet sweep aggregates per job.
    pub fn summary(&self) -> AttributionSummary {
        let mut event_mj = Histogram::new();
        for event in &self.events {
            event_mj.record(event.total_mj());
        }
        AttributionSummary {
            phase_mj: self.phase_mj,
            idle_mj: self.idle_mj,
            unattributed_mj: self.unattributed_mj,
            total_mj: self.total_mj,
            misses: self.misses(),
            event_mj,
        }
    }

    /// Serializes the profile as deterministic single-document JSON —
    /// the format `evaluate attribute --json` prints.
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(512 + self.events.len() * 160);
        json::object(&mut out, |o| {
            o.field("profile", "greenweb-attribution-v3")
                .field("total_mj", self.total_mj)
                .field("attributed_mj", self.attributed_mj())
                .field("idle_mj", self.idle_mj)
                .field("unattributed_mj", self.unattributed_mj)
                .obj("phase_mj", |p| write_phases(p, &self.phase_mj))
                .obj("switches", |s| {
                    s.field("dvfs", self.switch_dvfs)
                        .field("migration", self.switch_migration);
                })
                .field("misses", self.misses())
                .field("dropped", self.dropped)
                .arr("events", |a| {
                    for event in &self.events {
                        a.obj(|e| {
                            e.field("uid", event.uid)
                                .field("event", &event.label)
                                .field("dispatch_ms", event.dispatch.as_nanos() as f64 / 1e6)
                                .field("total_mj", event.total_mj())
                                .field("ops", event.ops)
                                .field("frames", event.frames)
                                .obj("phases", |p| write_phases(p, &event.phase_mj));
                        });
                    }
                })
                .arr("callbacks", |a| {
                    for cb in &self.callbacks {
                        a.obj(|c| {
                            c.field("event", &cb.label)
                                .field("count", cb.count)
                                .field("total_ms", cb.total_ms)
                                .field("total_mj", cb.total_mj)
                                .field("ops", cb.total_ops);
                        });
                    }
                })
                .arr("selector_buckets", |a| {
                    for bucket in &self.buckets {
                        a.obj(|b| {
                            b.field("bucket", bucket.bucket)
                                .field("matches", bucket.matches)
                                .field("share", bucket.share);
                        });
                    }
                })
                .obj("render", |r| {
                    let w = &self.render;
                    r.field("relayouts", w.relayouts)
                        .field("elements_laid_out", w.elements_laid_out)
                        .field("subtree_reuses", w.subtree_reuses)
                        .field("dirty_elements", w.dirty_elements)
                        .field("full_repaints", w.full_repaints)
                        .field("partial_repaints", w.partial_repaints)
                        .field("items_emitted", w.items_emitted)
                        .field("items_reused", w.items_reused)
                        .field("damage_items", w.damage_items)
                        .field("damage_area", w.damage_area);
                })
                .arr("forensics", |a| {
                    for f in &self.forensics {
                        a.obj(|o| {
                            o.field("uid", f.uid)
                                .field("seq", f.seq)
                                .field("event", &f.event)
                                .field("at_ms", f.at.as_nanos() as f64 / 1e6)
                                .field("latency_ms", f.latency_ms)
                                .field("target_ms", f.target_ms)
                                .field("switches_in_window", f.switches_in_window)
                                .arr("spans", |spans| {
                                    for span in &f.spans {
                                        spans.obj(|s| {
                                            s.field("kind", span.kind.name())
                                                .field(
                                                    "start_ms",
                                                    span.start.as_nanos() as f64 / 1e6,
                                                )
                                                .field("dur_ms", span.dur.as_millis_f64())
                                                .field("mj", span.mj)
                                                .field("uids", span.uids.as_slice());
                                        });
                                    }
                                });
                        });
                    }
                });
        });
        out.push('\n');
        out
    }

    /// Serializes the profile as Chrome trace-event JSON with attributed
    /// energy and VM ops in each slice's args — loads in Perfetto for
    /// flame-style inspection.
    pub fn flame_json(&self, process_name: &str) -> String {
        let mut out = String::with_capacity(256 + self.events.len() * 200);
        trace_document(&mut out, process_name, &[], |events| {
            // Each miss's named spans, in trace order.
            for forensic in &self.forensics {
                for span in &forensic.spans {
                    let start = span.start.as_nanos() as f64 / 1000.0;
                    event(
                        events,
                        span.kind.name(),
                        "attribution",
                        "X",
                        1,
                        start,
                        |e| {
                            e.field("dur", span.dur.as_nanos() as f64 / 1000.0).obj(
                                "args",
                                |args| {
                                    args.field("mj", span.mj)
                                        .field("ops", span.ops)
                                        .field("uids", span.uids.as_slice())
                                        .field("miss_uid", forensic.uid);
                                },
                            );
                        },
                    );
                }
            }
            for attributed in &self.events {
                let dispatch = attributed.dispatch.as_nanos() as f64 / 1000.0;
                event(
                    events,
                    &attributed.label,
                    "event-energy",
                    "C",
                    0,
                    dispatch,
                    |e| {
                        e.obj("args", |args| {
                            args.field("mj", attributed.total_mj());
                        });
                    },
                );
            }
        });
        out
    }

    /// Renders the human-facing top-N tables.
    pub fn render_tables(&self, top_n: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "attribution: {:.3} mJ total — {:.3} attributed over {} events, {:.3} idle, {:.3} unattributed",
            self.total_mj,
            self.attributed_mj(),
            self.events.len(),
            self.idle_mj,
            self.unattributed_mj,
        );
        out.push_str("phase energy (mJ):");
        for (kind, mj) in SpanKind::ALL.iter().zip(self.phase_mj) {
            let _ = write!(out, "  {} {:.3}", kind.name(), mj);
        }
        out.push('\n');
        let mut ranked: Vec<&EventAttribution> = self.events.iter().collect();
        ranked.sort_by(|a, b| {
            b.total_mj()
                .total_cmp(&a.total_mj())
                .then_with(|| a.uid.cmp(&b.uid))
        });
        let _ = writeln!(out, "top events by energy (of {}):", ranked.len());
        for event in ranked.iter().take(top_n) {
            let _ = writeln!(
                out,
                "  uid={:<4} {:<12} {:9.3} mJ  ops={:<8} frames={}",
                event.uid,
                event.label,
                event.total_mj(),
                event.ops,
                event.frames,
            );
        }
        let _ = writeln!(
            out,
            "top callbacks by energy (of {}):",
            self.callbacks.len()
        );
        for cb in self.callbacks.iter().take(top_n) {
            let _ = writeln!(
                out,
                "  {:<12} n={:<5} {:9.3} mJ {:9.2} ms  ops={}",
                cb.label, cb.count, cb.total_mj, cb.total_ms, cb.total_ops,
            );
        }
        out.push_str("selector buckets (exact walks):");
        for bucket in &self.buckets {
            let _ = write!(
                out,
                "  {} {} ({:.1}%)",
                bucket.bucket,
                bucket.matches,
                bucket.share * 100.0
            );
        }
        out.push('\n');
        let r = &self.render;
        let _ = writeln!(
            out,
            "render: {} relayouts, {} laid out ({} dirty, {} subtree reuses), \
             paint {} full / {} partial, damage {} items / {} px2",
            r.relayouts,
            r.elements_laid_out,
            r.dirty_elements,
            r.subtree_reuses,
            r.full_repaints,
            r.partial_repaints,
            r.damage_items,
            r.damage_area,
        );
        let _ = writeln!(
            out,
            "config switches: {} dvfs, {} migration",
            self.switch_dvfs, self.switch_migration
        );
        let _ = writeln!(out, "deadline misses: {}", self.misses());
        for f in self.forensics.iter().take(top_n) {
            let _ = writeln!(
                out,
                "  miss uid={} seq={} event={} latency {:.2} ms > target {:.2} ms ({} switches in window)",
                f.uid, f.seq, f.event, f.latency_ms, f.target_ms, f.switches_in_window,
            );
            let mut costly: Vec<&AttributedSpan> = f.spans.iter().collect();
            costly.sort_by(|a, b| {
                b.mj.total_cmp(&a.mj)
                    .then_with(|| (a.start, a.dur.as_nanos()).cmp(&(b.start, b.dur.as_nanos())))
            });
            for span in costly.iter().take(4) {
                let _ = writeln!(
                    out,
                    "    {:<9} {:8.3} mJ {:8.2} ms",
                    span.kind.name(),
                    span.mj,
                    span.dur.as_millis_f64(),
                );
            }
        }
        if self.dropped > 0 {
            let _ = writeln!(
                out,
                "  (ring dropped {} oldest events; attribution undercounts)",
                self.dropped
            );
        }
        out
    }
}

/// Writes per-phase values (indexed like [`SpanKind::ALL`]) as one
/// member per phase, named after it.
pub fn write_phases(o: &mut Obj<'_>, phases: &[f64; 6]) {
    for (kind, value) in SpanKind::ALL.iter().zip(phases) {
        o.field(kind.name(), value);
    }
}

/// The bounded-size roll-up one sweep job contributes to the corpus
/// report: per-phase energy sums plus a log-bucketed histogram of
/// per-event totals. Merging is field-wise addition and
/// [`Histogram::merge`], so corpus aggregation is exact and
/// order-insensitive for everything derived from buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionSummary {
    /// Energy per pipeline phase, indexed like [`SpanKind::ALL`].
    pub phase_mj: [f64; 6],
    /// Energy the CPU spent idle.
    pub idle_mj: f64,
    /// Busy energy no recorded span carries.
    pub unattributed_mj: f64,
    /// Ground-truth total.
    pub total_mj: f64,
    /// Deadline misses.
    pub misses: u64,
    /// Per-event total energy distribution (mJ recorded into the
    /// millisecond-scaled histogram — scale-free log buckets).
    pub event_mj: Histogram,
}

impl AttributionSummary {
    /// The all-zero summary.
    pub fn new() -> AttributionSummary {
        AttributionSummary {
            phase_mj: [0.0; 6],
            idle_mj: 0.0,
            unattributed_mj: 0.0,
            total_mj: 0.0,
            misses: 0,
            event_mj: Histogram::new(),
        }
    }

    /// Folds another job's summary into this one.
    pub fn merge(&mut self, other: &AttributionSummary) {
        for (mine, theirs) in self.phase_mj.iter_mut().zip(other.phase_mj) {
            *mine += theirs;
        }
        self.idle_mj += other.idle_mj;
        self.unattributed_mj += other.unattributed_mj;
        self.total_mj += other.total_mj;
        self.misses += other.misses;
        self.event_mj.merge(&other.event_mj);
    }
}

impl Default for AttributionSummary {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::TraceHandle;
    use greenweb_acmp::{CoreType, CpuConfig};

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    /// Two inputs: input 0's callback (4 mJ) and paint (3 mJ), input
    /// 1's style (2 mJ); a mid-run sample and the closing one.
    fn synthetic_buffer(capacity: usize) -> TraceBuffer {
        let trace = TraceHandle::with_capacity(capacity);
        let span = |kind, start: u64, dur: u64, uid: u64, label, ops, mj| EventKind::Span {
            kind,
            start: ms(start),
            dur: Duration::from_millis(dur),
            uids: vec![uid],
            label,
            ops,
            mj,
        };
        let sample = |active_mj: f64, idle_mj: f64| EventKind::EnergySample {
            active_mj,
            idle_mj,
            power_mw: 500.0,
            config: CpuConfig::new(CoreType::Little, 600),
        };
        trace.record(ms(0), span(SpanKind::Input, 0, 0, 0, Some("click"), 0, 0.0));
        trace.record(
            ms(4),
            span(SpanKind::Callback, 0, 4, 0, Some("click"), 100, 4.0),
        );
        trace.record(ms(8), span(SpanKind::Paint, 4, 4, 0, None, 0, 3.0));
        trace.record(ms(8), sample(7.0, 0.0));
        trace.record(
            ms(17),
            span(SpanKind::Input, 17, 0, 1, Some("scroll"), 0, 0.0),
        );
        trace.record(ms(24), span(SpanKind::Style, 20, 4, 1, None, 0, 2.0));
        trace.record(ms(48), sample(9.0, 20.0));
        trace.take()
    }

    #[test]
    fn spans_carry_busy_energy_and_the_closing_sample_idle() {
        let profile = AttributionProfile::from_trace(&synthetic_buffer(64));
        assert_eq!(profile.total_mj, 29.0);
        assert_eq!(profile.idle_mj, 20.0);
        assert_eq!(profile.phase_mj[phase_index(SpanKind::Callback)], 4.0);
        assert_eq!(profile.phase_mj[phase_index(SpanKind::Paint)], 3.0);
        assert_eq!(profile.phase_mj[phase_index(SpanKind::Style)], 2.0);
        assert_eq!(profile.unattributed_mj, 0.0);
        let conserved = profile.attributed_mj() + profile.idle_mj + profile.unattributed_mj;
        assert_eq!(conserved, profile.total_mj);
        // Per-event rows.
        assert_eq!(profile.events.len(), 2);
        assert_eq!(profile.events[0].label, "click");
        assert_eq!(profile.events[0].total_mj(), 7.0);
        assert_eq!(profile.events[0].ops, 100);
        assert_eq!(profile.events[1].label, "scroll");
        // Callback ranking.
        assert_eq!(profile.callbacks.len(), 1);
        assert_eq!(profile.callbacks[0].label, "click");
        assert_eq!(profile.callbacks[0].total_ops, 100);
    }

    #[test]
    fn evicted_spans_leave_their_energy_unattributed() {
        // A ring of 5 drops the first two records: the click's input and
        // callback spans, 4 mJ of busy energy.
        let profile = AttributionProfile::from_trace(&synthetic_buffer(5));
        assert_eq!(profile.dropped, 2);
        assert_eq!(profile.attributed_mj(), 5.0);
        assert_eq!(profile.unattributed_mj, 4.0);
        assert_eq!(
            profile.attributed_mj() + profile.idle_mj + profile.unattributed_mj,
            profile.total_mj
        );
    }

    #[test]
    fn forensics_name_exactly_the_overlapping_spans() {
        let trace = TraceHandle::with_capacity(64);
        let span = |kind, start: u64, dur: u64| EventKind::Span {
            kind,
            start: ms(start),
            dur: Duration::from_millis(dur),
            uids: vec![7],
            label: None,
            ops: 0,
            mj: 0.0,
        };
        trace.record(
            ms(0),
            EventKind::Decision {
                target_ms: 10.0,
                predicted_ms: None,
                chosen: CpuConfig::new(CoreType::Big, 1000),
                profiling: true,
            },
        );
        // The missed frame's window is [19, 40]. Spans are recorded when
        // they end, so the input dispatched at 25 precedes the paint that
        // was running across it.
        trace.record(ms(10), span(SpanKind::Callback, 0, 10));
        trace.record(ms(25), span(SpanKind::Input, 25, 0));
        trace.record(ms(35), span(SpanKind::Paint, 15, 20));
        trace.record(ms(40), span(SpanKind::Composite, 35, 5));
        trace.record(ms(40), span(SpanKind::Input, 40, 0));
        trace.record(
            ms(40),
            EventKind::FrameCommit {
                uid: 7,
                seq: 0,
                latency: Duration::from_millis(21),
                event: "click",
            },
        );
        trace.record(ms(45), span(SpanKind::Style, 40, 5));
        let profile = AttributionProfile::from_trace(&trace.take());
        assert_eq!(profile.misses(), 1);
        let f = &profile.forensics[0];
        assert_eq!(f.uid, 7);
        let named: Vec<(SpanKind, SimTime)> = f.spans.iter().map(|s| (s.kind, s.start)).collect();
        assert_eq!(
            named,
            [
                (SpanKind::Input, ms(25)),
                (SpanKind::Paint, ms(15)),
                (SpanKind::Composite, ms(35)),
            ]
        );
    }

    #[test]
    fn profile_render_is_deterministic() {
        let a = AttributionProfile::from_trace(&synthetic_buffer(64));
        let b = AttributionProfile::from_trace(&synthetic_buffer(64));
        assert_eq!(a, b);
        assert_eq!(a.render_json(), b.render_json());
        assert_eq!(a.flame_json("x"), b.flame_json("x"));
        assert_eq!(a.render_tables(5), b.render_tables(5));
    }

    #[test]
    fn summary_merge_is_fieldwise() {
        let profile = AttributionProfile::from_trace(&synthetic_buffer(64));
        let mut merged = AttributionSummary::new();
        merged.merge(&profile.summary());
        merged.merge(&profile.summary());
        assert!((merged.total_mj - 2.0 * profile.total_mj).abs() < 1e-9);
        assert_eq!(merged.event_mj.count(), 4);
        assert_eq!(merged.misses, 0);
    }
}
