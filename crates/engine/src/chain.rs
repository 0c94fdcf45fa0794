//! The pump-driven streaming stage machine behind [`crate::Session`].
//!
//! A monolithic streaming loop drives a single kernel from inside one
//! function: it owns the control flow, pulling from the source and
//! pushing to the sink. Temporal chaining inverts that: each stage
//! becomes a [`StreamStage`] state machine that is *pumped* for output
//! and *fed* input, so stage `k`'s output rows can flow straight into
//! stage `k + 1`'s halo window without an intermediate grid.
//! [`pump_chain`] wires the stages: it pumps the last stage, and
//! whenever a stage reports [`StagePump::Need`], the demand recurses
//! upstream until it reaches the real [`RowSource`].
//!
//! Like the paper's FIFO chain, a value moves once on its way through a
//! stage: the source (or the upstream stage's band buffer) copies it
//! into the halo window, the band computes from it in place, and the
//! band's outputs go downstream as borrowed slices of one reused band
//! buffer. After each band the window compacts once, moving only the
//! retained halo rows to its front. Every band runs on the calling
//! thread, so a stage is one sequential pipeline.
//!
//! The same machinery serves both spatial pipelines (`Session::then`,
//! distinct kernels) and iterative time-stepping (`Session::iterate`,
//! one kernel self-chained T times): either way each stage holds one
//! halo window, so T coupled steps stay within a T×halo residency
//! budget instead of materializing T intermediate grids. Band
//! schedules are built once per session and shared through a
//! [`BandSchedule`], so a T-step ring pays plan validation once, and
//! each band's iteration index is built on first use, not per run.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use stencil_core::{row_outer_span, MemorySystemPlan, TilePlan};
use stencil_polyhedral::{DomainIndex, Point, Row};
use stencil_telemetry::HighWater;

use crate::compile::KernelBackend;
use crate::error::{to_usize, EngineError};
use crate::format::MappedGrid;
use crate::report::StreamReport;
use crate::rowexec::{execute_rows, plan_offsets, RankWindow, RowKernel, RowStats};
use crate::stream::{RowSink, RowSource};

/// A stage's band schedule plus each band's iteration index and halo
/// count, built on first use and shared by every run over the schedule
/// — streaming and in core alike.
#[derive(Debug)]
pub(crate) struct BandSchedule {
    pub(crate) tiles: TilePlan,
    bands: Vec<OnceLock<DomainIndex>>,
    halos: Vec<OnceLock<u64>>,
    caps: OnceLock<(usize, usize)>,
}

impl BandSchedule {
    pub(crate) fn new(tiles: TilePlan) -> Self {
        let bands = tiles.tiles().iter().map(|_| OnceLock::new()).collect();
        let halos = tiles.tiles().iter().map(|_| OnceLock::new()).collect();
        let caps = OnceLock::new();
        Self {
            tiles,
            bands,
            halos,
            caps,
        }
    }

    /// The widest band halo window over `in_idx` and the longest band,
    /// in values: the exact capacities of a stage's window and band
    /// buffer, computed on first use.
    fn capacities(&self, in_idx: &DomainIndex) -> (usize, usize) {
        *self.caps.get_or_init(|| {
            let dims = in_idx.dims();
            let tiles = self.tiles.tiles();
            let window = tiles.iter().map(|tile| {
                let halo = in_idx.rows().iter().filter(|r| {
                    let span = row_outer_span(r, dims);
                    !tile.row_below_halo(span) && !tile.row_above_halo(span)
                });
                let (rows, widest) = halo.fold((0, 0), |(n, w), r| (n + 1, w.max(r.len())));
                rows * widest
            });
            let out = tiles.iter().map(|t| t.len);
            let cap = |n: Option<u64>| n.and_then(|n| usize::try_from(n).ok()).unwrap_or(0);
            (cap(window.max()), cap(out.max()))
        })
    }

    /// Band `i`'s iteration index, built and cached on first use.
    pub(crate) fn band(&self, i: usize) -> Result<&DomainIndex, EngineError> {
        if let Some(idx) = self.bands[i].get() {
            return Ok(idx);
        }
        let idx = self.tiles.tiles()[i]
            .iter_domain
            .index()
            .map_err(|e| EngineError::Plan(e.into()))?;
        Ok(self.bands[i].get_or_init(|| idx))
    }

    /// Input elements in band `i`'s halo, counted and cached on first
    /// use.
    pub(crate) fn halo(&self, i: usize) -> Result<u64, EngineError> {
        if let Some(&n) = self.halos[i].get() {
            return Ok(n);
        }
        let n = self.tiles.tiles()[i]
            .halo_domain
            .count()
            .map_err(|e| EngineError::Plan(e.into()))?;
        Ok(*self.halos[i].get_or_init(|| n))
    }
}

/// The input index of a streaming stage, checked to be in contiguous
/// stream order: streaming addresses residents by rank offset from the
/// window base, which requires the input stream to be exactly the rows
/// in order — i.e. contiguous monotone bases.
pub(crate) fn stream_index(plan: &MemorySystemPlan) -> Result<DomainIndex, EngineError> {
    let in_idx = plan
        .input_domain()
        .index()
        .map_err(|e| EngineError::Plan(e.into()))?;
    let mut expect_base = 0u64;
    for row in in_idx.rows() {
        if row.base != expect_base {
            return Err(EngineError::InconsistentIndex {
                detail: format!(
                    "input row at {} has base {} but the stream is at rank {expect_base}; \
                     streaming requires contiguous rank order",
                    row.prefix, row.base
                ),
            });
        }
        expect_base += row.len();
    }
    Ok(in_idx)
}

/// What a [`StreamStage::pump`] call produced.
pub(crate) enum StagePump {
    /// The stage needs this many more values of its next input row,
    /// via [`StreamStage::feed`] or [`StreamStage::pull`].
    Need(usize),
    /// Band outputs wait in [`StreamStage::ready`], in rank order.
    Ready,
    /// Every band has executed and every output has been taken.
    Done,
}

/// A row pull the stage has announced but not yet fully received.
struct PendingPull {
    /// Values of the row still to arrive.
    remaining: usize,
    /// The row precedes the first band's halo: honor stream order by
    /// consuming it, but never make it resident.
    discard: bool,
}

/// One kernel stage of a streaming pipeline, as an incremental state
/// machine over its [`BandSchedule`].
pub(crate) struct StreamStage<'k> {
    sched: Arc<BandSchedule>,
    in_idx: &'k DomainIndex,
    dims: usize,
    offsets: Vec<Point>,
    kernel: Box<dyn RowKernel + 'k>,
    backend: KernelBackend,
    chunk_rows: u64,
    // Rolling halo window state. With `mapped` set the whole input is
    // resident in mapped pages, `window` stays empty, and the resident
    // range alone tracks the logical halo window (rank == map offset,
    // guaranteed by `stream_index`).
    mapped: Option<MappedGrid>,
    window: Vec<f64>,
    resident: Range<usize>,
    cursor: usize,
    pending: Option<PendingPull>,
    // The last band's outputs, `out[taken..]` not yet consumed, and
    // the end offset of each of its rows.
    out: Vec<f64>,
    row_ends: Vec<usize>,
    taken: usize,
    // Telemetry.
    gauge: HighWater,
    resident_bound: u64,
    rows_in: u64,
    values_in: u64,
    rows_out: u64,
    stats: RowStats,
    busy: Duration,
    compactions: u64,
    moved: u64,
}

impl std::fmt::Debug for StreamStage<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamStage")
            .field("bands", &self.sched.tiles.tile_count())
            .field("cursor", &self.cursor)
            .field("resident", &self.resident)
            .field("compactions", &self.compactions)
            .field("moved", &self.moved)
            .finish_non_exhaustive()
    }
}

impl<'k> StreamStage<'k> {
    /// Adopts a prebuilt band schedule (validated once per session) and
    /// an input index already checked by [`stream_index`]. The window
    /// and the band buffer are sized once, so they never grow.
    pub(crate) fn new(
        plan: &MemorySystemPlan,
        sched: Arc<BandSchedule>,
        in_idx: &'k DomainIndex,
        kernel: Box<dyn RowKernel + 'k>,
        backend: KernelBackend,
        chunk_rows: Option<u64>,
    ) -> Self {
        let (window, out) = sched.capacities(in_idx);
        Self {
            sched,
            in_idx,
            dims: in_idx.dims(),
            offsets: plan_offsets(plan),
            kernel,
            backend,
            chunk_rows: chunk_rows.unwrap_or(0),
            mapped: None,
            window: Vec::with_capacity(window),
            resident: 0..0,
            cursor: 0,
            pending: None,
            out: Vec::with_capacity(out),
            row_ends: Vec::new(),
            taken: 0,
            gauge: HighWater::new(),
            resident_bound: 0,
            rows_in: 0,
            values_in: 0,
            rows_out: 0,
            stats: RowStats::default(),
            busy: Duration::ZERO,
            compactions: 0,
            moved: 0,
        }
    }

    /// Attaches a memory-mapped input covering the whole stream: bands
    /// execute as slices of the mapped payload and the stage never
    /// reports [`StagePump::Need`] — zero copies into the halo window.
    ///
    /// Only valid on a fresh stage (nothing pulled yet) whose input
    /// domain matches the mapped element count exactly.
    pub(crate) fn attach_mapped(&mut self, grid: MappedGrid) -> Result<(), EngineError> {
        if self.rows_in > 0 || self.pending.is_some() {
            return Err(EngineError::InconsistentIndex {
                detail: "mapped input attached to a stage that already pulled rows".into(),
            });
        }
        let expected: u64 = self.in_idx.rows().iter().map(Row::len).sum();
        let got = grid.values().len() as u64;
        if got != expected {
            return Err(EngineError::InputSizeMismatch { expected, got });
        }
        self.mapped = Some(grid);
        self.window = Vec::new();
        Ok(())
    }

    /// Whether a mapped input is attached (the zero-copy path).
    pub(crate) fn is_mapped(&self) -> bool {
        self.mapped.is_some()
    }

    /// Values pulled into (or logically admitted to) the halo window.
    pub(crate) fn values_in(&self) -> u64 {
        self.values_in
    }

    /// Advances the stage until it holds untaken outputs, needs input,
    /// or finishes. A band's outputs must all be taken before the next
    /// band pulls, so a downstream consumer is never more than one band
    /// behind.
    pub(crate) fn pump(&mut self) -> Result<StagePump, EngineError> {
        loop {
            if self.taken < self.out.len() {
                return Ok(StagePump::Ready);
            }
            if let Some(p) = &self.pending {
                // Announced but unfed pull: re-announce rather than
                // desynchronize the stream.
                return Ok(StagePump::Need(p.remaining));
            }
            if self.cursor >= self.sched.tiles.tile_count() {
                return Ok(StagePump::Done);
            }
            match self.next_pull()? {
                // The row is already resident in the mapping: admit it
                // logically instead of asking upstream.
                Some(p) if self.mapped.is_some() => {
                    self.values_in += p.remaining as u64;
                    self.admit(p.discard);
                }
                Some(p) => self.pending = Some(p),
                None => {
                    let started = Instant::now();
                    self.execute_band()?;
                    self.cursor += 1;
                    self.evict_below_halo()?;
                    self.busy += started.elapsed();
                }
            }
        }
    }

    /// Delivers values of the rows the stage announced with
    /// [`StagePump::Need`], possibly spanning or splitting rows: it
    /// takes as much of `vals` as the current band still needs and
    /// returns how many values it took.
    pub(crate) fn feed(&mut self, vals: &[f64]) -> Result<usize, EngineError> {
        let started = Instant::now();
        let mut used = 0;
        while let Some(p) = self.pending.as_mut() {
            if used == vals.len() {
                break;
            }
            let take = p.remaining.min(vals.len() - used);
            if !p.discard {
                self.window.extend_from_slice(&vals[used..used + take]);
            }
            p.remaining -= take;
            used += take;
            self.values_in += take as u64;
            if p.remaining == 0 {
                let discard = p.discard;
                self.admit(discard);
                self.pending = self.next_pull()?;
            }
        }
        self.busy += started.elapsed();
        Ok(used)
    }

    /// Satisfies the announced row pull straight from `source`: resident
    /// rows land directly in the halo window, discarded rows in
    /// `scratch`.
    pub(crate) fn pull(
        &mut self,
        source: &mut dyn RowSource,
        scratch: &mut Vec<f64>,
    ) -> Result<(), EngineError> {
        let Some(p) = self.pending.take() else {
            return Err(EngineError::InconsistentIndex {
                detail: "stage pulled a row it did not request".into(),
            });
        };
        let dst = if p.discard {
            scratch.clear();
            scratch
        } else {
            &mut self.window
        };
        let before = dst.len();
        source.fill_row(p.remaining, dst)?;
        let got = dst.len().saturating_sub(before);
        if got != p.remaining {
            return Err(EngineError::Source {
                detail: format!("source produced {got} of {} requested values", p.remaining),
            });
        }
        self.values_in += got as u64;
        self.admit(p.discard);
        Ok(())
    }

    /// Makes the just-completed input row resident (or skips it).
    fn admit(&mut self, discard: bool) {
        if discard {
            self.resident.start = self.resident.end + 1;
        }
        self.resident.end += 1;
        self.rows_in += 1;
    }

    /// The outputs of the last band not yet consumed, in rank order.
    pub(crate) fn ready(&self) -> &[f64] {
        &self.out[self.taken..]
    }

    /// Marks the first `n` values of [`ready`](Self::ready) consumed.
    pub(crate) fn consume(&mut self, n: usize) {
        self.taken = (self.taken + n).min(self.out.len());
    }

    /// Consumes and returns the next whole output row.
    pub(crate) fn take_row(&mut self) -> &[f64] {
        let start = self.taken;
        let end = self
            .row_ends
            .iter()
            .find(|&&e| e > start)
            .map_or(start, |&e| e);
        self.taken = end;
        &self.out[start..end]
    }

    /// The logical halo-window length in values: the owned buffer's
    /// length on the copying path, the resident rows' rank span on the
    /// mapped path (both identical by the contiguity invariant).
    fn window_len(&self) -> Result<usize, EngineError> {
        if self.mapped.is_none() {
            return Ok(self.window.len());
        }
        if self.resident.is_empty() {
            return Ok(0);
        }
        let rows = self.in_idx.rows();
        let first = &rows[self.resident.start];
        let last = &rows[self.resident.end - 1];
        let span = last.base + last.len() - first.base;
        to_usize(span)
    }

    /// Evicts the rows entirely below the next band's halo with one
    /// compaction: the retained halo rows move to the window's front
    /// once. Evicting before pulling keeps the peak at one band's halo
    /// window.
    fn evict_below_halo(&mut self) -> Result<(), EngineError> {
        let Some(tile) = self.sched.tiles.tiles().get(self.cursor) else {
            return Ok(());
        };
        let rows = self.in_idx.rows();
        let mut evicted = 0u64;
        while self.resident.start < self.resident.end
            && tile.row_below_halo(row_outer_span(&rows[self.resident.start], self.dims))
        {
            evicted += rows[self.resident.start].len();
            self.resident.start += 1;
        }
        if self.mapped.is_none() && evicted > 0 {
            let n = to_usize(evicted)?;
            if n > self.window.len() {
                return Err(EngineError::InconsistentIndex {
                    detail: format!(
                        "evicting {n} values from a {}-value window",
                        self.window.len()
                    ),
                });
            }
            self.window.drain(..n);
            self.compactions += 1;
            self.moved += self.window.len() as u64;
        }
        Ok(())
    }

    /// The next pull the current band still needs, if any.
    fn next_pull(&self) -> Result<Option<PendingPull>, EngineError> {
        let tile = &self.sched.tiles.tiles()[self.cursor];
        let rows = self.in_idx.rows();
        if self.resident.end >= rows.len() {
            return Ok(None);
        }
        let row = &rows[self.resident.end];
        let span = row_outer_span(row, self.dims);
        if tile.row_above_halo(span) {
            return Ok(None);
        }
        Ok(Some(PendingPull {
            remaining: to_usize(row.len())?,
            discard: tile.row_below_halo(span),
        }))
    }

    /// Runs the current band through the shared sweep/fast/gather
    /// executor into the reused band buffer and records its row ends.
    fn execute_band(&mut self) -> Result<(), EngineError> {
        let tile = &self.sched.tiles.tiles()[self.cursor];
        let rows = self.in_idx.rows();

        let window_len = self.window_len()?;
        self.gauge.observe(window_len as u64);
        let widest = rows[self.resident.clone()]
            .iter()
            .map(Row::len)
            .max()
            .unwrap_or(0);
        self.resident_bound = self.resident_bound.max(self.resident.len() as u64 * widest);

        let band_rows = self.sched.band(self.cursor)?.rows();
        let band_len = to_usize(tile.len)?;
        // Band rows must be contiguous rank runs from 0 covering the
        // whole buffer, so every emitted value is written by this band.
        self.row_ends.clear();
        let mut end = 0u64;
        for row in band_rows {
            if row.base != end {
                break;
            }
            end += row.len();
            self.row_ends.push(to_usize(end)?);
        }
        if end != tile.len || self.row_ends.len() != band_rows.len() {
            return Err(EngineError::InconsistentIndex {
                detail: format!("band {} rows do not tile its output buffer", tile.id),
            });
        }
        self.out.resize(band_len, 0.0);
        self.taken = 0;
        self.rows_out += band_rows.len() as u64;

        let base = rows.get(self.resident.start).map_or(0, |r| r.base);
        // Mapped path: the "window" is a borrowed slice of the mapped
        // payload (rank == offset by the contiguity invariant); nothing
        // was ever copied in. Copying path: the owned rolling buffer.
        let vals: &[f64] = match &self.mapped {
            Some(grid) => {
                let start = to_usize(base)?;
                start
                    .checked_add(window_len)
                    .and_then(|end| grid.values().get(start..end))
                    .ok_or_else(|| EngineError::InconsistentIndex {
                        detail: format!(
                            "band {} window [{base}, +{window_len}) exceeds the mapped payload",
                            tile.id
                        ),
                    })?
            }
            None => &self.window,
        };
        let win = RankWindow {
            idx: self.in_idx,
            vals,
            base,
        };
        let kernel: &dyn RowKernel = &*self.kernel;
        let band_stats = catch_unwind(AssertUnwindSafe(|| {
            execute_rows(band_rows, 0, &self.offsets, &win, kernel, &mut self.out)
        }))
        .map_err(|_| EngineError::WorkerPanic)??;
        self.stats.merge(band_stats);
        Ok(())
    }

    /// The stage's peak halo-window residency so far, in values.
    pub(crate) fn peak_resident(&self) -> u64 {
        self.gauge.get()
    }

    /// The stage's running halo-window bound, in values.
    pub(crate) fn runtime_bound(&self) -> u64 {
        self.resident_bound
    }

    /// The finished stage's report. `elapsed` is the stage's own busy
    /// time: eviction, band execution and its feeds, timed per band.
    pub(crate) fn report(&self) -> StreamReport {
        StreamReport {
            outputs: self.sched.tiles.total_outputs(),
            bands: self.sched.tiles.tile_count(),
            threads: 1,
            backend: self.backend,
            unroll: self
                .kernel
                .unrolled()
                .map_or(1, crate::unroll::UnrolledProgram::unroll),
            datapath: self.kernel.datapath(),
            chunk_rows: self.chunk_rows,
            rows_in: self.rows_in,
            values_in: self.values_in,
            rows_out: self.rows_out,
            peak_resident: self.gauge.get(),
            resident_bound: self.resident_bound,
            sweep_rows: self.stats.sweep,
            fast_rows: self.stats.fast,
            gather_rows: self.stats.gather,
            elapsed: self.busy,
        }
    }
}

/// Pumps the last stage of `stages` until it holds untaken outputs
/// (`true`) or is exhausted (`false`), recursively satisfying upstream
/// demand; the first stage pulls from `source`. Upstream outputs go
/// downstream as slices of the upstream band buffer.
pub(crate) fn pump_chain(
    stages: &mut [StreamStage<'_>],
    source: &mut dyn RowSource,
    scratch: &mut Vec<f64>,
) -> Result<bool, EngineError> {
    let (upstream, last) = stages.split_at_mut(stages.len() - 1);
    let last = &mut last[0];
    loop {
        match last.pump()? {
            StagePump::Ready => return Ok(true),
            StagePump::Done => return Ok(false),
            StagePump::Need(_) if upstream.is_empty() => last.pull(source, scratch)?,
            StagePump::Need(len) => {
                if !pump_chain(upstream, source, scratch)? {
                    return Err(EngineError::Source {
                        detail: format!(
                            "upstream stage exhausted while {len} more input values were required"
                        ),
                    });
                }
                if let Some(up) = upstream.last_mut() {
                    let used = last.feed(up.ready())?;
                    up.consume(used);
                }
            }
        }
    }
}

/// Streams `source` through `stages` into `sink` row by row, finishing
/// the sink; returns the number of output values pushed.
pub(crate) fn drive(
    stages: &mut [StreamStage<'_>],
    source: &mut dyn RowSource,
    sink: &mut dyn RowSink,
) -> Result<u64, EngineError> {
    let mut scratch = Vec::new();
    let mut output_values = 0u64;
    while pump_chain(stages, source, &mut scratch)? {
        if let Some(last) = stages.last_mut() {
            let row = last.take_row();
            output_values += row.len() as u64;
            sink.push_row(row)?;
        }
    }
    sink.finish()?;
    Ok(output_values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{ExecMode, Session, SessionKernel};
    use crate::stream::{SliceSource, VecSink};

    #[test]
    fn chained_stages_move_each_value_once() {
        let denoise = stencil_kernels::denoise();
        let spec = denoise.spec_for(&[768, 1024]).unwrap();
        let plan = MemorySystemPlan::generate(&spec).unwrap();
        let compute = denoise.compute_fn();
        let session = Session::new(&plan)
            .kernel(SessionKernel::Closure(&compute))
            .mode(ExecMode::Streaming {
                chunk_rows: Some(64),
            })
            .then(&stencil_kernels::blur3x3().stage())
            .unwrap();
        let (mut stages, _) = session.stream_stages(Some(64)).unwrap();
        let input: Vec<f64> = (0..stages[0].in_idx.len())
            .map(|r| (r % 89) as f64)
            .collect();
        drive(
            &mut stages,
            &mut SliceSource::new(&input),
            &mut VecSink::new(),
        )
        .unwrap();

        for (i, (s, peak)) in stages.iter().zip([67_584, 67_452]).enumerate() {
            let bands = s.sched.tiles.tile_count() as u64;
            let halo_rows = session.stage_plan(i).unwrap().window_extents()[0] as u64 - 1;
            let row_len = s.in_idx.rows().iter().map(Row::len).max().unwrap();
            assert!(s.compactions <= bands, "{s:?}");
            assert!(s.moved <= bands * halo_rows * row_len, "{s:?}");
            assert_eq!(s.peak_resident(), peak);
            assert_eq!(s.peak_resident(), s.runtime_bound());
            assert!(s.busy > Duration::ZERO);
        }
    }
}
