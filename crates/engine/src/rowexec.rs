//! The shared per-row executor behind every engine path.
//!
//! The session's in-core tiled modes and its bounded-memory streaming
//! mode ([`crate::ExecMode`]) reduce to
//! the same inner problem: given a contiguous run of iteration rows and
//! a resident window of the input stream, produce one output per
//! iteration. This module is that single integration point — the
//! rank-window view, the batched-tap predicate, and the row loop with
//! its three row classes:
//!
//! * **sweep rows** — every tap is one contiguous resident run *and*
//!   the kernel sweeps a compiled register program: runs of `U`
//!   aligned rows evaluate the program's grouped lane pass, every
//!   other row its one-output lane pass;
//! * **fast rows** — taps are contiguous and resident but the kernel is
//!   a closure (or the `Closure` backend is forced): a batched
//!   per-element loop gathers each window from tap bases;
//! * **gather rows** — some tap is non-contiguous or non-resident: the
//!   defensive per-point fallback with exact error reporting.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use stencil_core::MemorySystemPlan;
use stencil_polyhedral::{DomainIndex, Point, Row};

use crate::chain::BandSchedule;
use crate::compile::{CompiledKernel, Datapath};
use crate::error::EngineError;
use crate::input::InputGrid;
use crate::report::{RunReport, TileReport};
use crate::unroll::UnrolledProgram;

/// Locks `m`, recovering from poisoning: a panicked worker already
/// surfaces as [`EngineError::WorkerPanic`] through the scope join, and
/// the guarded collections stay consistent (push/pop only), so a
/// poisoned lock must not turn into a second panic on the submit path.
fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Consumes `m`, recovering its value even when poisoned (see
/// [`lock_recover`]).
fn into_inner_recover<T>(m: Mutex<T>) -> T {
    m.into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// How the row executor evaluates the kernel datapath — implemented by
/// closure adapters and by compiled register programs, so one generic
/// executor serves both backends.
pub(crate) trait RowKernel: Sync {
    /// Evaluates one window in declared offset order.
    fn eval_window(&self, window: &[f64]) -> f64;

    /// The register program to row-sweep with, when this kernel has one
    /// and the backend allows it. `None` keeps the per-element path.
    fn unrolled(&self) -> Option<&UnrolledProgram> {
        None
    }

    /// The arithmetic precision this kernel evaluates in — reports
    /// derive their `datapath` field from here.
    fn datapath(&self) -> Datapath {
        Datapath::F64
    }
}

/// A closure datapath: always per-element. `C` may be unsized (a
/// `dyn Fn` behind the reference), so heterogeneous session stages can
/// hold their kernels as trait objects.
pub(crate) struct ClosureKernel<'a, C: ?Sized>(pub &'a C);

impl<C: Fn(&[f64]) -> f64 + Sync + ?Sized> RowKernel for ClosureKernel<'_, C> {
    fn eval_window(&self, window: &[f64]) -> f64 {
        (self.0)(window)
    }
}

/// A compiled register program: row-sweeps under the `Compiled`
/// backend (`sweep`), evaluates per element under `Closure`. Gather
/// rows and per-element evaluation run the program's scalar pass in its
/// datapath.
pub(crate) struct CompiledRowKernel {
    pub prog: UnrolledProgram,
    pub sweep: bool,
}

impl RowKernel for CompiledRowKernel {
    fn eval_window(&self, window: &[f64]) -> f64 {
        self.prog.eval(window)
    }

    fn unrolled(&self) -> Option<&UnrolledProgram> {
        self.sweep.then_some(&self.prog)
    }

    fn datapath(&self) -> Datapath {
        self.prog.datapath()
    }
}

/// A rank-windowed view of the input stream: `vals` holds the values of
/// lexicographic ranks `[base, base + vals.len())` of the full input
/// domain indexed by `idx`. The in-core paths use a full window
/// (`base == 0`, every rank resident); the streaming path keeps only
/// the current band's halo rows resident.
pub(crate) struct RankWindow<'a> {
    /// Index of the *full* input domain (rank queries stay global).
    pub idx: &'a DomainIndex,
    /// Values of the resident rank range, in rank order.
    pub vals: &'a [f64],
    /// Global rank of `vals[0]`.
    pub base: u64,
}

impl RankWindow<'_> {
    /// Window offset of global rank `b`, if `b..b + len` is resident.
    fn resident_run(&self, b: u64, len: usize) -> Option<usize> {
        let off = usize::try_from(b.checked_sub(self.base)?).ok()?;
        let end = off.checked_add(len)?;
        (end <= self.vals.len()).then_some(off)
    }

    /// The resident value at point `p`: `Err(false)` if `p` is outside
    /// the input domain, `Err(true)` if in-domain but not resident.
    fn value_at(&self, p: &Point) -> Result<f64, bool> {
        if !self.idx.contains(p) {
            return Err(false);
        }
        self.resident_run(self.idx.rank_lt(p), 1)
            .map(|off| self.vals[off])
            .ok_or(true)
    }
}

/// Row tallies of [`execute_rows`], by row class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RowStats {
    /// Rows evaluated by the vectorized register-program sweep.
    pub sweep: u64,
    /// Rows on the batched per-element fast path.
    pub fast: u64,
    /// Rows that fell back to per-point gathers.
    pub gather: u64,
}

impl RowStats {
    /// Accumulates another tally (e.g. across bands or row runs).
    pub fn merge(&mut self, other: RowStats) {
        self.sweep += other.sweep;
        self.fast += other.fast;
        self.gather += other.gather;
    }
}

/// Runs the iteration rows `rows` (a contiguous slice of one band's
/// index, whose `base` ranks start at `out_base`) against the resident
/// input window, writing `out` (one slot per iteration).
///
/// Per output row, every window tap becomes a base rank into the flat
/// input stream; resident contiguous rows then either sweep the
/// register program over the whole row or run the batched per-element
/// loop, while rows whose taps are not contiguous (or not fully resident)
/// fall back to per-point gathers.
pub(crate) fn execute_rows<K: RowKernel + ?Sized>(
    rows: &[Row],
    out_base: u64,
    offsets: &[Point],
    win: &RankWindow<'_>,
    kernel: &K,
    out: &mut [f64],
) -> Result<RowStats, EngineError> {
    let n = offsets.len();
    let mut window = vec![0.0f64; n];
    let mut bases = vec![0usize; n];
    let mut ubases: Vec<usize> = Vec::new();
    let mut stats = RowStats::default();
    let unrolled = kernel.unrolled();

    let mut i = 0usize;
    while i < rows.len() {
        // Grouped unrolled dispatch: U adjacent rows with identical
        // extent, stepping +1 in the unroll axis, writing contiguous
        // output — one multi-output register sweep covers them all.
        if let Some(up) = unrolled.filter(|up| up.unroll() > 1) {
            if let Some(len) = unroll_group_bases(rows, i, up, offsets, win, &mut ubases) {
                let start = rows[i]
                    .base
                    .checked_sub(out_base)
                    .and_then(|s| usize::try_from(s).ok())
                    .ok_or_else(|| inconsistent_row(&rows[i], out_base))?;
                let group_len = len * up.unroll();
                if let Some(group_out) = out.get_mut(start..).and_then(|o| o.get_mut(..group_len)) {
                    up.sweep_group(&ubases, win.vals, group_out, len);
                    stats.sweep += up.unroll() as u64;
                    i += up.unroll();
                    continue;
                }
            }
        }

        let row = &rows[i];
        i += 1;
        let len = usize::try_from(row.len())
            .map_err(|_| EngineError::DomainTooLarge { points: row.len() })?;
        let start = row
            .base
            .checked_sub(out_base)
            .and_then(|s| usize::try_from(s).ok())
            .ok_or_else(|| inconsistent_row(row, out_base))?;
        let out_row = out
            .get_mut(start..)
            .and_then(|o| o.get_mut(..len))
            .ok_or_else(|| inconsistent_row(row, out_base))?;

        let mut all_fast = true;
        for (k, f) in offsets.iter().enumerate() {
            let start = tap_point(&row.prefix, row.lo, f);
            let end = tap_point(&row.prefix, row.hi, f);
            match contiguous_base(win.idx, &start, &end, len).and_then(|b| win.resident_run(b, len))
            {
                Some(off) => bases[k] = off,
                None => {
                    all_fast = false;
                    break;
                }
            }
        }

        if all_fast {
            if let Some(up) = unrolled {
                // Vectorized row sweep (U=1, or a group remainder or
                // alignment miss): each tap is a column-shifted
                // contiguous slice the one-output program runs over.
                stats.sweep += 1;
                up.sweep_single(&bases, win.vals, out_row);
            } else {
                stats.fast += 1;
                for (t, slot) in out_row.iter_mut().enumerate() {
                    for (w, &b) in window.iter_mut().zip(&bases) {
                        *w = win.vals[b + t];
                    }
                    *slot = kernel.eval_window(&window);
                }
            }
        } else {
            // Defensive fallback: gather taps point by point. A convex
            // input domain keeps every shifted row contiguous, so
            // plan-derived inputs never land here; custom input indexes
            // that break contiguity still execute correctly (or report
            // the exact missing point).
            stats.gather += 1;
            for (t, slot) in out_row.iter_mut().enumerate() {
                let t_inner = i64::try_from(t)
                    .map_err(|_| EngineError::DomainTooLarge { points: row.len() })?;
                let i = row.prefix.pushed(row.lo + t_inner);
                for (w, f) in window.iter_mut().zip(offsets) {
                    let h = i + *f;
                    *w = match win.value_at(&h) {
                        Ok(v) => v,
                        Err(false) => {
                            return Err(EngineError::MissingInput {
                                point: h.to_string(),
                            })
                        }
                        Err(true) => {
                            return Err(EngineError::InconsistentIndex {
                                detail: format!(
                                    "tap {h} is in the input domain but outside the \
                                     resident window [{}, {})",
                                    win.base,
                                    win.base + win.vals.len() as u64
                                ),
                            })
                        }
                    };
                }
                *slot = kernel.eval_window(&window);
            }
        }
    }

    Ok(stats)
}

/// Probes whether rows `i..i + U` form an unrollable group: identical
/// inner extent, prefixes equal except the last coordinate stepping
/// +1 per row, contiguous output ranks, and every shared tap of the
/// group resident as one contiguous run. On success fills `ubases`
/// with the window offset of each group utap and returns the row
/// length; any miss returns `None` and the caller falls back to
/// single-row dispatch for `rows[i]`.
fn unroll_group_bases(
    rows: &[Row],
    i: usize,
    up: &UnrolledProgram,
    offsets: &[Point],
    win: &RankWindow<'_>,
    ubases: &mut Vec<usize>,
) -> Option<usize> {
    let group = rows.get(i..i + up.unroll())?;
    let first = &group[0];
    let len = usize::try_from(first.len()).ok()?;
    if len == 0 {
        return None;
    }
    let pdims = first.prefix.dims();
    if pdims == 0 {
        return None;
    }
    for (d, row) in group.iter().enumerate().skip(1) {
        let step = u64::try_from(d).ok()?;
        if row.lo != first.lo
            || row.hi != first.hi
            || row.base != first.base.checked_add(step.checked_mul(len as u64)?)?
        {
            return None;
        }
        if (0..pdims - 1).any(|c| row.prefix[c] != first.prefix[c])
            || row.prefix[pdims - 1] != first.prefix[pdims - 1].checked_add(d as i64)?
        {
            return None;
        }
    }
    ubases.clear();
    for &(u, k) in up.group_utaps() {
        let row = &group[usize::from(u)];
        let f = &offsets[usize::from(k)];
        let start = tap_point(&row.prefix, row.lo, f);
        let end = tap_point(&row.prefix, row.hi, f);
        let b = contiguous_base(win.idx, &start, &end, len)?;
        ubases.push(win.resident_run(b, len)?);
    }
    Some(len)
}

/// Window offsets in the user's declared reference order — the order
/// the kernel consumes (`FilterPlan.user_index` inverts the chain's
/// descending sort).
pub(crate) fn plan_offsets(plan: &MemorySystemPlan) -> Vec<Point> {
    let mut offsets = vec![Point::zero(plan.iteration_domain().dims()); plan.port_count()];
    for f in plan.filters() {
        offsets[f.user_index] = f.offset;
    }
    offsets
}

/// Rejects a compiled kernel whose tap count does not match the plan's
/// window.
pub(crate) fn check_kernel_window(
    plan: &MemorySystemPlan,
    kernel: &CompiledKernel,
) -> Result<(), EngineError> {
    if kernel.taps() != plan.port_count() {
        return Err(EngineError::KernelCompile {
            detail: format!(
                "kernel compiled for {} taps but the plan's window has {} points",
                kernel.taps(),
                plan.port_count()
            ),
        });
    }
    Ok(())
}

/// Row runs queued per worker when a run has more than one worker:
/// finer than one run per worker, so the shared queue still balances
/// when a worker is descheduled on a noisy host.
const RUNS_PER_WORKER: usize = 4;

/// Resolves a requested worker count: `0` requests the machine's
/// parallelism.
fn requested_workers(requested: usize) -> usize {
    match requested {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    }
}

/// One queued work item of [`execute_tiled`]: a contiguous run of one
/// band's iteration rows and the disjoint slice of the band's output it
/// writes (whose first slot is band-local rank `out_base`).
struct RowRun<'r> {
    band: usize,
    rows: &'r [Row],
    out_base: u64,
    out: &'r mut [f64],
}

/// A finished [`RowRun`]: its band, wall span and row tallies.
struct RunDone {
    band: usize,
    started: Instant,
    ended: Instant,
    stats: RowStats,
}

/// Cuts one band's iteration rows into at most `runs` contiguous row
/// runs of a multiple of `unroll` rows each, slicing `out` (the band's
/// output) at the runs' first row bases.
fn cut_band<'r>(
    band: usize,
    rows: &'r [Row],
    runs: usize,
    unroll: usize,
    mut out: &'r mut [f64],
    queue: &mut Vec<RowRun<'r>>,
) -> Result<(), EngineError> {
    let step = rows.len().div_ceil(runs.max(1)).div_ceil(unroll).max(1) * unroll;
    let mut out_base = 0u64;
    let mut chunks = rows.chunks(step).peekable();
    while let Some(chunk) = chunks.next() {
        let end = chunks
            .peek()
            .map_or(out_base + out.len() as u64, |next| next[0].base);
        let len = end
            .checked_sub(out_base)
            .and_then(|n| usize::try_from(n).ok())
            .filter(|&n| n <= out.len())
            .ok_or_else(|| inconsistent_row(&chunk[0], out_base))?;
        let (head, tail) = out.split_at_mut(len);
        queue.push(RowRun {
            band,
            rows: chunk,
            out_base,
            out: head,
        });
        out = tail;
        out_base = end;
    }
    Ok(())
}

/// The in-core tiled executor: validates the input, cuts every band of
/// `sched` into row runs writing disjoint slices of one output buffer,
/// and runs them on the calling thread plus up to `threads - 1` scoped
/// helpers pulling from a shared queue. Bands follow the plan (one per
/// off-chip stream, or the explicit tile count); the row runs are the
/// unit of parallelism, so even a single band spreads over every
/// worker. In core the whole input is resident, so a run reads its taps
/// in place: no halo re-fetch, no copy. This is the single real
/// implementation behind the session's `InCore`/`Tiled` modes.
pub(crate) fn execute_tiled<K: RowKernel + ?Sized>(
    plan: &MemorySystemPlan,
    sched: &BandSchedule,
    input: &InputGrid<'_>,
    kernel: &K,
    threads: usize,
    backend: crate::compile::KernelBackend,
) -> Result<(Vec<f64>, RunReport), EngineError> {
    let expected = input.index().len();
    let declared = plan
        .input_domain()
        .count()
        .map_err(|e| EngineError::Plan(e.into()))?;
    if expected != declared {
        return Err(EngineError::InputSizeMismatch {
            expected: declared,
            got: expected,
        });
    }

    let offsets = plan_offsets(plan);
    let started = Instant::now();
    let tile_plan = &sched.tiles;
    let total =
        usize::try_from(tile_plan.total_outputs()).map_err(|_| EngineError::DomainTooLarge {
            points: tile_plan.total_outputs(),
        })?;
    let mut outputs = vec![0.0f64; total];

    // One worker sweeps each band whole; several cut every band into
    // about RUNS_PER_WORKER runs per worker, shared across the bands.
    let unroll = kernel.unrolled().map_or(1, UnrolledProgram::unroll);
    let workers = requested_workers(threads);
    let runs_per_band = match workers {
        1 => 1,
        w => (RUNS_PER_WORKER * w).div_ceil(tile_plan.tile_count().max(1)),
    };

    // Disjoint per-band output slices (bands are contiguous rank
    // ranges), each cut into disjoint per-run slices.
    let mut work: Vec<RowRun<'_>> = Vec::new();
    let mut rest: &mut [f64] = &mut outputs;
    for (i, tile) in tile_plan.tiles().iter().enumerate() {
        let len = usize::try_from(tile.len)
            .map_err(|_| EngineError::DomainTooLarge { points: tile.len })?;
        if len > rest.len() {
            return Err(EngineError::InconsistentIndex {
                detail: format!(
                    "band {} claims {len} outputs but only {} remain unassigned",
                    tile.id,
                    rest.len()
                ),
            });
        }
        let (head, tail) = rest.split_at_mut(len);
        cut_band(
            i,
            sched.band(i)?.rows(),
            runs_per_band,
            unroll,
            head,
            &mut work,
        )?;
        rest = tail;
    }
    let worker_count = workers.clamp(1, work.len().max(1));
    let run_count = work.len();

    // Shared work queue; idle workers take the next unclaimed run.
    work.reverse(); // pop() hands out runs in rank order
    let queue = Mutex::new(work);
    let done: Mutex<Vec<RunDone>> = Mutex::new(Vec::with_capacity(run_count));
    let failure: Mutex<Option<EngineError>> = Mutex::new(None);
    let win = RankWindow {
        idx: input.index(),
        vals: input.values(),
        base: 0,
    };
    let drain = || loop {
        let item = lock_recover(&queue).pop();
        let Some(run) = item else { break };
        let run_started = Instant::now();
        match execute_rows(run.rows, run.out_base, &offsets, &win, kernel, run.out) {
            Ok(stats) => lock_recover(&done).push(RunDone {
                band: run.band,
                started: run_started,
                ended: Instant::now(),
                stats,
            }),
            Err(e) => {
                lock_recover(&failure).get_or_insert(e);
                break;
            }
        }
    };
    // The calling thread drains the queue too, so a one-worker run
    // spawns nothing; its share is unwind-guarded like a helper's.
    let own = || catch_unwind(AssertUnwindSafe(&drain)).is_ok();
    let caller_ok = if worker_count == 1 {
        own()
    } else {
        crossbeam::scope(|s| {
            for _ in 1..worker_count {
                s.spawn(|_| drain());
            }
            own()
        })
        .map_err(|_| EngineError::WorkerPanic)?
    };
    if !caller_ok {
        return Err(EngineError::WorkerPanic);
    }
    if let Some(e) = into_inner_recover(failure) {
        return Err(e);
    }

    // A band's report sums its runs' rows; its elapsed time is the wall
    // span from its first run's start to its last run's end.
    let mut bands = vec![(RowStats::default(), None::<(Instant, Instant)>); tile_plan.tile_count()];
    for run in into_inner_recover(done) {
        let (stats, span) = &mut bands[run.band];
        stats.merge(run.stats);
        let (first, last) = span.get_or_insert((run.started, run.ended));
        *first = (*first).min(run.started);
        *last = (*last).max(run.ended);
    }
    let per_tile = tile_plan
        .tiles()
        .iter()
        .zip(bands)
        .enumerate()
        .map(|(i, (tile, (stats, span)))| {
            Ok(TileReport {
                id: tile.id,
                outputs: tile.len,
                halo_elements: sched.halo(i)?,
                sweep_rows: stats.sweep,
                fast_rows: stats.fast,
                gather_rows: stats.gather,
                elapsed: span.map_or(Duration::ZERO, |(first, last)| last - first),
            })
        })
        .collect::<Result<Vec<_>, EngineError>>()?;

    let report = RunReport {
        outputs: tile_plan.total_outputs(),
        tiles: tile_plan.tile_count(),
        threads: worker_count,
        backend,
        unroll,
        datapath: kernel.datapath(),
        halo_elements: per_tile.iter().map(|t| t.halo_elements).sum(),
        elapsed: started.elapsed(),
        per_tile,
    };
    Ok((outputs, report))
}

fn inconsistent_row(row: &Row, out_base: u64) -> EngineError {
    EngineError::InconsistentIndex {
        detail: format!(
            "iteration row at {} (base {}) does not fit its band's output \
             slice starting at rank {out_base}",
            row.prefix, row.base
        ),
    }
}

/// The input point read by tap `f` at iteration `(prefix, inner)`.
fn tap_point(prefix: &Point, inner: i64, f: &Point) -> Point {
    prefix.pushed(inner) + *f
}

/// The batched-tap predicate: `Some(start rank)` iff the shifted row
/// `start..=end` is one contiguous run of the input stream — both ends
/// in-domain and exactly `len - 1` ranks apart.
///
/// The rank difference is taken with `checked_sub`: an index produced
/// by [`DomainIndex::build`] ranks monotonically, but the engine also
/// accepts hand-built indexes ([`DomainIndex::from_rows`]) whose base
/// values may invert rank order, and the fast path must degrade to the
/// gather fallback there instead of panicking on underflow.
fn contiguous_base(in_idx: &DomainIndex, start: &Point, end: &Point, len: usize) -> Option<u64> {
    if !in_idx.contains(start) || !in_idx.contains(end) {
        return None;
    }
    let base = in_idx.rank_lt(start);
    match in_idx.rank_lt(end).checked_sub(base) {
        Some(span) if span == (len - 1) as u64 => Some(base),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrambled_rank_order_degrades_to_gather_not_panic() {
        // Hand-built index with inverted bases: the prefix-[1] row
        // ranks *before* the prefix-[0] row, so rank_lt(end) <
        // rank_lt(start) for a span crossing the two. The old unchecked
        // subtraction panicked with overflow here; the predicate must
        // report "not contiguous" instead.
        let idx = DomainIndex::from_rows(
            2,
            vec![
                Row {
                    prefix: Point::new(&[0]),
                    lo: 0,
                    hi: 4,
                    base: 5,
                },
                Row {
                    prefix: Point::new(&[1]),
                    lo: 0,
                    hi: 4,
                    base: 0,
                },
            ],
        );
        let start = Point::new(&[0, 0]); // rank 5
        let end = Point::new(&[1, 4]); // rank 4 — inverted
        assert!(idx.rank_lt(&end) < idx.rank_lt(&start));
        assert_eq!(contiguous_base(&idx, &start, &end, 10), None);
        // Sanity: a consistent span on the same index still batches.
        let lo = Point::new(&[1, 0]);
        let hi = Point::new(&[1, 4]);
        assert_eq!(contiguous_base(&idx, &lo, &hi, 5), Some(0));
    }

    #[test]
    fn row_stats_merge_accumulates() {
        let mut a = RowStats {
            sweep: 1,
            fast: 2,
            gather: 3,
        };
        a.merge(RowStats {
            sweep: 10,
            fast: 20,
            gather: 30,
        });
        assert_eq!(
            a,
            RowStats {
                sweep: 11,
                fast: 22,
                gather: 33,
            }
        );
    }
}
