//! Frame pipeline cost model.
//!
//! Translates browser work into [`WorkUnit`]s for the ACMP executor.
//! The style stage (Fig. 7) scales with the document's element count;
//! layout scales with the *dirty* element count from the render
//! pipeline's fingerprint diff ([`FrameCostModel::layout_work`]); paint
//! is priced as the damaged fraction of the retained display list
//! ([`FrameCostModel::paint_work`]), with the old flat
//! [`FrameCostModel::paint_cycles`] as the full-repaint price — so a
//! first frame (everything dirty, everything damaged) costs exactly
//! what the pre-incremental model charged, and later frames scale with
//! what actually changed. [`FrameCostModel::stage_work`] retains the
//! full-document prices and is what the naive oracle's accounting
//! corresponds to; the *pricing inputs* are mode-independent, so
//! the rendering-mode pin (`RunSpec::paint_incremental`) never changes a
//! run's metrics (DESIGN.md §6k).
//! The composite stage carries a frequency-independent GPU component,
//! which is what gives Eq. 1 its non-zero `T_independent` intercept.
//! Event callbacks are charged by the script engine's op count —
//! backend-independent by the tick-parity contract, whether the
//! bytecode VM or the tree-walking oracle ran the callback — plus any
//! explicit `work()` the script performs.
//!
//! `surge_every`/`surge_factor` model the frame-complexity surges the
//! paper observes in W3School and Cnet (Sec. 7.2: "most of the QoS
//! violations come from frame complexity surges in a continuous frame
//! sequence"), which defeat a reactive predictor that scaled down too far.

use greenweb_acmp::WorkUnit;

/// The rendering pipeline stages of one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Style resolution.
    Style,
    /// Layout.
    Layout,
    /// Paint.
    Paint,
    /// Composite (partially on the GPU).
    Composite,
}

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; 4] = [Stage::Style, Stage::Layout, Stage::Paint, Stage::Composite];
}

/// Cost parameters for one application.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameCostModel {
    /// CPU cycles charged per script operation (charged op, not raw
    /// VM dispatch — identical across script backends).
    pub cycles_per_op: f64,
    /// Style-stage cycles per element.
    pub style_cycles_per_element: f64,
    /// Layout-stage cycles per element.
    pub layout_cycles_per_element: f64,
    /// Paint-stage cycles for a *full* repaint. Incremental frames are
    /// charged the damaged fraction of this ([`Self::paint_work`]);
    /// [`Self::stage_work`] charges it flat, which is the naive
    /// oracle's per-frame price.
    pub paint_cycles: f64,
    /// Fixed composite-stage CPU cycles per frame.
    pub composite_cycles: f64,
    /// Frequency-independent (GPU) composite time per frame, ms.
    pub composite_independent_ms: f64,
    /// Browser→renderer IPC latency charged to each input's callback, ms.
    pub input_ipc_ms: f64,
    /// Every `surge_every`-th frame of a continuous sequence costs
    /// `surge_factor`× (0 disables surges).
    pub surge_every: u32,
    /// Cost multiplier applied on surge frames.
    pub surge_factor: f64,
}

impl Default for FrameCostModel {
    fn default() -> Self {
        FrameCostModel {
            cycles_per_op: 2_000.0,
            style_cycles_per_element: 40_000.0,
            layout_cycles_per_element: 30_000.0,
            paint_cycles: 8.0e6,
            composite_cycles: 2.0e6,
            composite_independent_ms: 1.0,
            input_ipc_ms: 0.2,
            surge_every: 0,
            surge_factor: 1.0,
        }
    }
}

impl FrameCostModel {
    /// The multiplier for the `seq`-th frame of a continuous sequence.
    pub fn surge_multiplier(&self, seq: u32) -> f64 {
        if self.surge_every > 0 && seq > 0 && seq.is_multiple_of(self.surge_every) {
            self.surge_factor
        } else {
            1.0
        }
    }

    /// Work for `stage` on a document of `elements` elements at frame
    /// sequence index `seq`.
    pub fn stage_work(&self, stage: Stage, elements: usize, seq: u32) -> WorkUnit {
        let mult = self.surge_multiplier(seq);
        let elements = elements as f64;
        match stage {
            Stage::Style => WorkUnit::cycles(self.style_cycles_per_element * elements * mult),
            Stage::Layout => WorkUnit::cycles(self.layout_cycles_per_element * elements * mult),
            Stage::Paint => WorkUnit::cycles(self.paint_cycles * mult),
            Stage::Composite => {
                WorkUnit::new(self.composite_cycles * mult, self.composite_independent_ms)
            }
        }
    }

    /// Layout-stage work when `dirty` elements need re-measurement
    /// (the render pipeline's fingerprint-diff count, identical in
    /// both rendering modes). A first frame marks every element dirty,
    /// reproducing [`Self::stage_work`]'s full-document price exactly.
    pub fn layout_work(&self, dirty: usize, seq: u32) -> WorkUnit {
        let mult = self.surge_multiplier(seq);
        WorkUnit::cycles(self.layout_cycles_per_element * dirty as f64 * mult)
    }

    /// Paint-stage work for a frame that damaged `damage_items` of the
    /// `total_items` in the retained display list: the damaged
    /// fraction of the full-repaint price. Two cases pay the *full*
    /// price: an empty display list (nothing to scale by — matches the
    /// flat pre-incremental charge) and a zero-damage frame. The
    /// latter is deliberate: a frame was produced yet the DOM-level
    /// display list is byte-identical, so the change must live
    /// somewhere the diff cannot see (a canvas surface painted by
    /// script, à la Paper.js) and the whole layer repaints. Removals
    /// can push the fraction past 1, so it clamps.
    pub fn paint_work(&self, damage_items: usize, total_items: usize, seq: u32) -> WorkUnit {
        let mult = self.surge_multiplier(seq);
        let fraction = if total_items == 0 || damage_items == 0 {
            1.0
        } else {
            (damage_items as f64 / total_items as f64).min(1.0)
        };
        WorkUnit::cycles(self.paint_cycles * fraction * mult)
    }

    /// Total work of a whole frame.
    pub fn frame_work(&self, elements: usize, seq: u32) -> WorkUnit {
        Stage::ALL.iter().fold(WorkUnit::default(), |acc, &s| {
            acc.plus(&self.stage_work(s, elements, seq))
        })
    }

    /// Work of an event callback that executed `ops` charged script
    /// operations, requested `work_cycles` of explicit CPU work, and
    /// `gpu_ms` of frequency-independent work.
    pub fn callback_work(&self, ops: u64, work_cycles: f64, gpu_ms: f64) -> WorkUnit {
        WorkUnit::new(
            ops as f64 * self.cycles_per_op + work_cycles,
            gpu_ms + self.input_ipc_ms,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenweb_acmp::{CoreType, Platform};

    #[test]
    fn frame_work_scales_with_elements() {
        let m = FrameCostModel::default();
        let small = m.frame_work(10, 0);
        let large = m.frame_work(1000, 0);
        assert!(large.cycles > small.cycles);
        assert_eq!(small.independent_ns, large.independent_ns);
    }

    #[test]
    fn default_frame_fits_60fps_at_peak() {
        // A 100-element frame must comfortably make 16.6 ms at A15 peak —
        // otherwise even Perf would violate the imperceptible target.
        let m = FrameCostModel::default();
        let p = Platform::odroid_xu_e();
        let work = m.frame_work(100, 0);
        let d = work.duration_on(p.peak(), p.cluster(CoreType::Big).ipc);
        assert!(
            d.as_millis_f64() < 10.0,
            "frame takes {} at peak",
            d.as_millis_f64()
        );
    }

    #[test]
    fn default_frame_close_to_target_on_little() {
        // The same frame should be near/over the 16.6 ms imperceptible
        // target on the little cluster — that tension is what forces
        // GreenWeb-I onto the big core (Fig. 11a vs 11b).
        let m = FrameCostModel::default();
        let p = Platform::odroid_xu_e();
        let work = m.frame_work(100, 0);
        let d = work.duration_on(p.lowest(), p.cluster(CoreType::Little).ipc);
        assert!(
            d.as_millis_f64() > 16.6,
            "little@min too fast: {}",
            d.as_millis_f64()
        );
    }

    #[test]
    fn surge_multiplier_applies_periodically() {
        let m = FrameCostModel {
            surge_every: 8,
            surge_factor: 3.0,
            ..FrameCostModel::default()
        };
        assert_eq!(m.surge_multiplier(0), 1.0);
        assert_eq!(m.surge_multiplier(7), 1.0);
        assert_eq!(m.surge_multiplier(8), 3.0);
        assert_eq!(m.surge_multiplier(16), 3.0);
        let normal = m.frame_work(100, 7);
        let surged = m.frame_work(100, 8);
        assert!(surged.cycles > normal.cycles * 2.5);
    }

    #[test]
    fn callback_work_combines_components() {
        let m = FrameCostModel::default();
        let w = m.callback_work(1_000, 5.0e6, 2.0);
        assert_eq!(w.cycles, 1_000.0 * m.cycles_per_op + 5.0e6);
        assert!((w.independent_ns - (2.0 + m.input_ipc_ms) * 1e6).abs() < 1.0);
    }

    #[test]
    fn all_dirty_layout_matches_full_stage_price() {
        let m = FrameCostModel::default();
        assert_eq!(m.layout_work(70, 0), m.stage_work(Stage::Layout, 70, 0));
        assert_eq!(m.layout_work(0, 0).cycles, 0.0);
        assert!(m.layout_work(5, 0).cycles < m.layout_work(50, 0).cycles);
    }

    #[test]
    fn paint_scales_with_damaged_fraction_and_clamps() {
        let m = FrameCostModel::default();
        // Full damage (and the empty-list edge) price like the flat
        // pre-incremental charge.
        assert_eq!(m.paint_work(40, 40, 0), m.stage_work(Stage::Paint, 40, 0));
        assert_eq!(m.paint_work(0, 0, 0), m.stage_work(Stage::Paint, 0, 0));
        // Half the items damaged → half the cycles.
        assert_eq!(m.paint_work(20, 40, 0).cycles, m.paint_cycles / 2.0);
        // A produced frame with zero DOM-level damage means the change
        // is invisible to the display-list diff (canvas drawing) — the
        // whole layer repaints at full price.
        assert_eq!(m.paint_work(0, 40, 0).cycles, m.paint_cycles);
        // Removals can exceed the list size; the fraction clamps at 1.
        assert_eq!(m.paint_work(90, 40, 0).cycles, m.paint_cycles);
    }

    #[test]
    fn incremental_prices_honour_surges() {
        let m = FrameCostModel {
            surge_every: 4,
            surge_factor: 2.0,
            ..FrameCostModel::default()
        };
        assert_eq!(
            m.layout_work(10, 4).cycles,
            m.layout_work(10, 3).cycles * 2.0
        );
        assert_eq!(
            m.paint_work(5, 10, 4).cycles,
            m.paint_work(5, 10, 3).cycles * 2.0
        );
    }

    #[test]
    fn stage_sum_equals_frame_work() {
        let m = FrameCostModel::default();
        let total = m.frame_work(50, 0);
        let sum = Stage::ALL.iter().fold(WorkUnit::default(), |acc, &s| {
            acc.plus(&m.stage_work(s, 50, 0))
        });
        assert_eq!(total, sum);
    }
}
