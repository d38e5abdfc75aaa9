//! In-memory host-time spans recorded around calls into the program's
//! layers, written out when the benchmark ends.
//!
//! A span is an interval of host time with a name, a parent and the cell
//! it worked on. Its self time is its duration minus the part its child
//! spans cover. *On-path* spans are the traced pass itself; *probe* spans
//! re-run a layer's public function on the same inputs to split work the
//! on-path spans cannot see into, and are excluded from the conservation
//! sum.

use crate::alloc;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The layer boundary this span times (`engine.load`, `css.parse`, …).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The cell (index into the workload's cell list) the span worked on.
    pub cell: Option<usize>,
    /// A probe re-run rather than part of the traced pass.
    pub probe: bool,
    /// An aggregate of many short calls (the scheduler hooks of one run):
    /// its duration is their sum, laid out from its parent's start.
    pub aggregate: bool,
    /// Allocator calls made inside the span, children included.
    pub allocs: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    probe: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            probe: false,
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`. Spans opened inside `f` become
    /// its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        cell: Option<usize>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let id = self.spans.len();
        let allocs_before = alloc::count();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            cell,
            probe: self.probe,
            aggregate: false,
            allocs: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.allocs = alloc::count() - allocs_before;
        out
    }

    /// Runs `f` with every span it opens marked as a probe.
    pub fn probe<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let outer = std::mem::replace(&mut self.probe, true);
        let out = f(self);
        self.probe = outer;
        out
    }

    /// Adds to the innermost open span an aggregate child: `dur_ns` of
    /// host time and `allocs` allocator calls spread over many short calls
    /// made inside it.
    pub fn aggregate(&mut self, name: &'static str, dur_ns: u64, allocs: u64) {
        let parent = *self.open.last().expect("aggregate inside an open span");
        let p = &self.spans[parent];
        let span = Span {
            name,
            start_ns: p.start_ns,
            end_ns: p.start_ns + dur_ns,
            parent: Some(parent),
            cell: p.cell,
            probe: p.probe,
            aggregate: true,
            allocs,
        };
        self.spans.push(span);
    }

    /// Self time of every span, in recording order.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.dur_ns());
            }
        }
        own
    }

    /// Allocator calls made by every span outside its children.
    pub fn self_allocs(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.allocs).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.allocs);
            }
        }
        own
    }

    /// The spans a layer metric named `name` reads: the on-path ones when
    /// the traced pass has any, else the probes (a layer the pass cannot
    /// see into, such as the engine inside `run_sweep`).
    fn layer(&self, name: &str) -> Vec<usize> {
        let named = |probe: bool| -> Vec<usize> {
            (0..self.spans.len())
                .filter(|&i| self.spans[i].name == name && self.spans[i].probe == probe)
                .collect()
        };
        let on_path = named(false);
        if on_path.is_empty() {
            named(true)
        } else {
            on_path
        }
    }

    /// Total self time, in milliseconds, of layer `name`'s spans.
    pub fn layer_ms(&self, name: &str) -> f64 {
        let own = self.self_ns();
        self.layer(name).iter().map(|&i| own[i]).sum::<u64>() as f64 / 1e6
    }

    /// Total self allocations of layer `name`'s spans.
    pub fn layer_allocs(&self, name: &str) -> u64 {
        let own = self.self_allocs();
        self.layer(name).iter().map(|&i| own[i]).sum()
    }

    /// Number of spans layer `name` reads.
    pub fn layer_count(&self, name: &str) -> usize {
        self.layer(name).len()
    }

    /// Total self time, in nanoseconds, of every on-path span.
    pub fn on_path_self_ns(&self) -> u64 {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| !s.probe)
            .map(|(_, ns)| ns)
            .sum()
    }

    /// The spans as JSON lines, one object per span, preceded by a header
    /// line naming the workload.
    pub fn render_jsonl(&self, workload: &str) -> String {
        let mut out = format!(
            "{{\"spans\":\"greenweb-benchmark-spans-v1\",\"workload\":\"{workload}\",\
             \"clock\":\"host\",\"unit\":\"ns\"}}\n"
        );
        let own = self.self_ns();
        let own_allocs = self.self_allocs();
        for (id, span) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start\":{},\"end\":{},\"self\":{},\
                 \"parent\":{},\"cell\":{},\"probe\":{},\"aggregate\":{},\
                 \"allocs\":{},\"self_allocs\":{}}}",
                span.name,
                span.start_ns,
                span.end_ns,
                own[id],
                opt(span.parent),
                opt(span.cell),
                span.probe,
                span.aggregate,
                span.allocs,
                own_allocs[id],
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_probes_are_marked() {
        let mut tracer = Tracer::default();
        tracer.span("outer", Some(0), |t| {
            t.span("inner", Some(0), |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.aggregate("agg", 1_000, 0);
        });
        tracer.probe(|t| t.span("probe", None, |_| ()));
        let spans = &tracer.spans;
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[2].aggregate);
        assert!(spans[3].probe && !spans[0].probe);
        let own = tracer.self_ns();
        assert_eq!(own[0], spans[0].dur_ns() - spans[1].dur_ns() - 1_000);
        assert_eq!(
            tracer.on_path_self_ns(),
            spans[0].dur_ns(),
            "on-path self times sum to the top-level duration"
        );
        let jsonl = tracer.render_jsonl("w");
        assert_eq!(jsonl.lines().count(), 1 + spans.len());
    }
}
