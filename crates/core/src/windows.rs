//! Generation of windows of trajectory cuts.
//!
//! First stage of the analysis pipeline (Fig. 2): "the incoming stream is
//! passed through sliding windows of trajectory cuts. Each sliding window
//! can be processed in parallel." Every statistical engine here reduces
//! one cut across trajectories, so a window is the analysis farm's unit of
//! scheduling, not a time context: each cut travels in exactly one window,
//! by move. An engine that needs context across time (such as
//! `streamstat::period`) would carry its own ring of per-cut summaries,
//! not of raw trajectories.

use fastflow::node::{Flow, Outbox, Stage};
use gillespie::trajectory::Cut;

/// A block of consecutive cuts, owned by whoever analyses it.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// Monotone sequence number, for reordering after the farm.
    pub seq: u64,
    /// The cuts this window is responsible for analysing, oldest first.
    pub cuts: Vec<Cut>,
    /// Trailing cuts of `cuts` that get an output row. Retained for API
    /// stability: [`WindowGen`] always sets it to `cuts.len()`.
    pub fresh: usize,
}

impl Window {
    /// Time of the first cut.
    pub fn start_time(&self) -> f64 {
        self.cuts.first().map(|c| c.time).unwrap_or(0.0)
    }

    /// Time of the last cut.
    pub fn end_time(&self) -> f64 {
        self.cuts.last().map(|c| c.time).unwrap_or(0.0)
    }

    /// The trailing cuts that this window is responsible for analysing.
    pub fn fresh_cuts(&self) -> &[Cut] {
        &self.cuts[self.cuts.len() - self.fresh..]
    }
}

/// Stage partitioning the cut stream into [`Window`]s: `width` cuts in the
/// first, `slide` in every later one, the tail flushed at end of stream.
/// The geometry sets the analysis farm's block grain; no cut is cloned.
#[derive(Debug)]
pub struct WindowGen {
    /// Cuts received since the last emitted window.
    pending: Vec<Cut>,
    /// Size of the block being filled: `width` first, `slide` afterwards.
    block: usize,
    slide: usize,
    seq: u64,
}

impl WindowGen {
    /// Creates a generator with the given width and slide (in cuts).
    ///
    /// # Panics
    ///
    /// Panics on zero width/slide or `slide > width` (gapped windows would
    /// silently drop cuts).
    pub fn new(width: usize, slide: usize) -> Self {
        assert!(width > 0, "window width must be non-zero");
        assert!(slide > 0, "window slide must be non-zero");
        assert!(slide <= width, "slide must not exceed width");
        WindowGen {
            pending: Vec::with_capacity(width),
            block: width,
            slide,
            seq: 0,
        }
    }

    fn emit(&mut self, out: &mut Outbox<'_, Window>) {
        self.block = self.slide;
        let cuts = std::mem::replace(&mut self.pending, Vec::with_capacity(self.slide));
        out.push(Window {
            seq: self.seq,
            fresh: cuts.len(),
            cuts,
        });
        self.seq += 1;
    }
}

impl Stage for WindowGen {
    type In = Cut;
    type Out = Window;

    fn on_item(&mut self, cut: Cut, out: &mut Outbox<'_, Window>) -> Flow {
        self.pending.push(cut);
        if self.pending.len() == self.block {
            self.emit(out);
        }
        Flow::Continue
    }

    fn on_end(&mut self, out: &mut Outbox<'_, Window>) {
        // Flush the tail so trailing cuts are analysed too.
        if !self.pending.is_empty() {
            self.emit(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// The generator this module shipped before windows moved their cuts:
    /// a ring of the last `width` cuts whose every emission deep-clones
    /// the whole context, with the fresh suffix marking the cuts to
    /// analyse. Kept as the reference [`WindowGen`] must partition
    /// identically to.
    struct ContextWindowGen {
        buf: VecDeque<Cut>,
        width: usize,
        slide: usize,
        since_emit: usize,
        emitted_any: bool,
        seq: u64,
        unanalysed: usize,
    }

    impl ContextWindowGen {
        fn new(width: usize, slide: usize) -> Self {
            ContextWindowGen {
                buf: VecDeque::with_capacity(width),
                width,
                slide,
                since_emit: 0,
                emitted_any: false,
                seq: 0,
                unanalysed: 0,
            }
        }

        /// Feeds one cut; returns a full window of context when one is
        /// due: the first time `width` cuts are buffered, then every
        /// `slide` cuts.
        fn push(&mut self, cut: Cut) -> Option<Vec<Cut>> {
            self.buf.push_back(cut);
            if self.buf.len() > self.width {
                self.buf.pop_front();
            }
            if self.buf.len() < self.width {
                return None;
            }
            if self.emitted_any {
                self.since_emit += 1;
                if self.since_emit < self.slide {
                    return None;
                }
            }
            self.emitted_any = true;
            self.since_emit = 0;
            Some(self.buf.iter().cloned().collect())
        }

        /// The buffered tail at end of stream, unless it was just emitted.
        fn flush(&mut self) -> Option<Vec<Cut>> {
            if self.buf.is_empty() || (self.emitted_any && self.since_emit == 0) {
                return None;
            }
            self.since_emit = 0;
            Some(self.buf.iter().cloned().collect())
        }

        fn make_window(&mut self, cuts: Vec<Cut>) -> Window {
            let fresh = self.unanalysed.min(cuts.len());
            self.unanalysed = 0;
            let w = Window {
                seq: self.seq,
                cuts,
                fresh,
            };
            self.seq += 1;
            w
        }
    }

    impl Stage for ContextWindowGen {
        type In = Cut;
        type Out = Window;

        fn on_item(&mut self, cut: Cut, out: &mut Outbox<'_, Window>) -> Flow {
            self.unanalysed += 1;
            if let Some(cuts) = self.push(cut) {
                let w = self.make_window(cuts);
                out.push(w);
            }
            Flow::Continue
        }

        fn on_end(&mut self, out: &mut Outbox<'_, Window>) {
            if self.unanalysed > 0 {
                if let Some(cuts) = self.flush() {
                    let w = self.make_window(cuts);
                    out.push(w);
                }
            }
        }
    }

    fn cut(k: u64) -> Cut {
        Cut {
            time: k as f64,
            values: vec![vec![k]],
        }
    }

    fn drive(mut stage: impl Stage<In = Cut, Out = Window>, n: u64) -> Vec<Window> {
        let (tx, rx) = fastflow::channel::unbounded();
        let mut out = Outbox::new(&tx);
        for k in 0..n {
            stage.on_item(cut(k), &mut out);
        }
        stage.on_end(&mut out);
        drop(tx); // close the channel so the drain terminates
        rx.iter().collect()
    }

    fn run(width: usize, slide: usize, n: u64) -> Vec<Window> {
        drive(WindowGen::new(width, slide), n)
    }

    /// What the stat farm consumes of a window stream.
    fn analysed(ws: &[Window]) -> Vec<(u64, &[Cut])> {
        ws.iter().map(|w| (w.seq, w.fresh_cuts())).collect()
    }

    fn assert_matches_reference(width: usize, slide: usize, n: u64) {
        let got = run(width, slide, n);
        let want = drive(ContextWindowGen::new(width, slide), n);
        assert_eq!(
            analysed(&got),
            analysed(&want),
            "width={width} slide={slide} n={n}"
        );
        assert!(
            got.iter().all(|w| w.fresh == w.cuts.len()),
            "a window owns exactly the cuts it analyses"
        );
    }

    proptest! {
        #[test]
        fn partition_equals_the_context_window_reference(
            width in 1usize..12,
            slide_raw in 1usize..12,
            n in 0u64..80,
        ) {
            assert_matches_reference(width, slide_raw.min(width), n);
        }
    }

    #[test]
    fn partition_equals_the_reference_at_the_edges() {
        for (width, slide) in [(1, 1), (4, 1), (4, 2), (4, 4), (10, 1), (7, 3)] {
            // Empty, shorter than a window, exactly one window, a tail that
            // was just emitted (nothing to flush), and one cut past it.
            let just_emitted = (width + 2 * slide) as u64;
            for n in [
                0,
                width as u64 - 1,
                width as u64,
                just_emitted,
                just_emitted + 1,
            ] {
                assert_matches_reference(width, slide, n);
            }
        }
    }

    #[test]
    fn windows_carry_sequence_numbers() {
        let ws = run(3, 1, 6);
        let seqs: Vec<u64> = ws.iter().map(|w| w.seq).collect();
        assert_eq!(seqs, (0..ws.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn first_window_is_fully_fresh_then_slide_fresh() {
        let ws = run(3, 1, 6);
        assert_eq!(ws[0].fresh, 3);
        assert!(ws[1..].iter().all(|w| w.fresh == 1));
    }

    #[test]
    fn every_cut_is_fresh_exactly_once() {
        for (width, slide) in [(3usize, 1usize), (4, 2), (5, 5)] {
            let ws = run(width, slide, 17);
            let fresh_total: usize = ws.iter().map(|w| w.fresh).sum();
            assert_eq!(fresh_total, 17, "width={width} slide={slide}");
            // Fresh ranges must be disjoint and ordered.
            let mut covered = Vec::new();
            for w in &ws {
                for c in w.fresh_cuts() {
                    covered.push(c.time as u64);
                }
            }
            let expect: Vec<u64> = (0..17).collect();
            assert_eq!(covered, expect, "width={width} slide={slide}");
        }
    }

    #[test]
    fn window_time_accessors() {
        let ws = run(3, 1, 4);
        assert_eq!(ws[0].start_time(), 0.0);
        assert_eq!(ws[0].end_time(), 2.0);
    }

    #[test]
    fn short_stream_flushes_partial_window() {
        let ws = run(5, 5, 3);
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].cuts.len(), 3);
        assert_eq!(ws[0].fresh, 3);
    }

    #[test]
    #[should_panic(expected = "slide must not exceed width")]
    fn gapped_windows_are_rejected() {
        let _ = WindowGen::new(2, 3);
    }
}
