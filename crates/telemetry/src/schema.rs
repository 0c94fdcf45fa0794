//! The metrics wire schema.
//!
//! One [`MetricsReport`] describes one run: the cycle-accurate
//! machine's counters ([`MachineMetrics`]), the software engine's
//! counters ([`EngineMetrics`]), or both (when a command runs the two
//! back to back). Planned quantities (Eq. (2) FIFO capacities, the
//! §2.3 minimum-buffer bound, the bandwidth-limited cycle bound) are
//! recorded *next to* their observed counterparts, so a report is
//! self-contained: [`crate::validate`] needs no plan object to check
//! the paper's claims.

use serde::json::{field, object, FromValue, JsonError, ToValue, Value};

use crate::metric::Histogram;

/// Version tag written into every report; bump on breaking schema
/// changes so downstream tooling can dispatch.
pub const SCHEMA_VERSION: u32 = 1;

/// Observed behaviour of one reuse FIFO, next to its planned capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct FifoMetrics {
    /// Planned depth in elements: the Eq. (2) maximum reuse distance
    /// `r̄(A_k → A_{k+1})`, *before* the hardware's promotion of
    /// zero-capacity FIFOs to a single register stage (the validator
    /// applies the promotion when checking occupancy).
    pub capacity: u64,
    /// Highest occupancy ever observed.
    pub high_water: u64,
    /// Elements ever pushed.
    pub pushes: u64,
    /// Elements ever popped.
    pub pops: u64,
    /// Per-cycle occupancy distribution, when sampling was enabled
    /// (disabled histograms serialize with empty bounds/counts).
    pub occupancy: Histogram,
}

impl ToValue for FifoMetrics {
    fn to_value(&self) -> Value {
        object(vec![
            ("capacity", self.capacity.to_value()),
            ("high_water", self.high_water.to_value()),
            ("pushes", self.pushes.to_value()),
            ("pops", self.pops.to_value()),
            ("occupancy", self.occupancy.to_value()),
        ])
    }
}

impl FromValue for FifoMetrics {
    fn from_value(v: &Value) -> Result<Self, JsonError> {
        Ok(Self {
            capacity: field(v, "capacity")?,
            high_water: field(v, "high_water")?,
            pushes: field(v, "pushes")?,
            pops: field(v, "pops")?,
            occupancy: field(v, "occupancy")?,
        })
    }
}

/// Observed behaviour of one data filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterMetrics {
    /// Elements forwarded to the kernel port.
    pub forwarded: u64,
    /// Elements discarded (not part of this reference's data domain).
    pub discarded: u64,
    /// Total stalled cycles, including the reuse-buffer fill phase.
    pub stalls: u64,
    /// Stalled cycles after the first kernel firing — the steady-state
    /// share. Zero here, across all filters, is the paper's II = 1
    /// condition.
    pub steady_stalls: u64,
}

impl ToValue for FilterMetrics {
    fn to_value(&self) -> Value {
        object(vec![
            ("forwarded", self.forwarded.to_value()),
            ("discarded", self.discarded.to_value()),
            ("stalls", self.stalls.to_value()),
            ("steady_stalls", self.steady_stalls.to_value()),
        ])
    }
}

impl FromValue for FilterMetrics {
    fn from_value(v: &Value) -> Result<Self, JsonError> {
        Ok(Self {
            forwarded: field(v, "forwarded")?,
            discarded: field(v, "discarded")?,
            stalls: field(v, "stalls")?,
            steady_stalls: field(v, "steady_stalls")?,
        })
    }
}

/// One memory-system chain (one data array) of a machine run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainMetrics {
    /// The served array's name.
    pub array: String,
    /// Elements streamed from off-chip across all streams of the chain.
    pub inputs_streamed: u64,
    /// Size of the input domain `D_A` (planned stream length per
    /// off-chip stream head).
    pub input_elements: u64,
    /// Reuse FIFOs in chain order.
    pub fifos: Vec<FifoMetrics>,
    /// Data filters in chain order.
    pub filters: Vec<FilterMetrics>,
}

impl ToValue for ChainMetrics {
    fn to_value(&self) -> Value {
        object(vec![
            ("array", self.array.to_value()),
            ("inputs_streamed", self.inputs_streamed.to_value()),
            ("input_elements", self.input_elements.to_value()),
            ("fifos", self.fifos.to_value()),
            ("filters", self.filters.to_value()),
        ])
    }
}

impl FromValue for ChainMetrics {
    fn from_value(v: &Value) -> Result<Self, JsonError> {
        Ok(Self {
            array: field(v, "array")?,
            inputs_streamed: field(v, "inputs_streamed")?,
            input_elements: field(v, "input_elements")?,
            fifos: field(v, "fifos")?,
            filters: field(v, "filters")?,
        })
    }
}

/// Counters of one cycle-accurate machine run, with the plan's bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineMetrics {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Kernel outputs produced.
    pub outputs: u64,
    /// Planned iteration count (size of `D`); a complete run has
    /// `outputs == iterations`.
    pub iterations: u64,
    /// Cycle of the first output (§3.4.1 automatic fill latency).
    pub fill_latency: u64,
    /// Measured cycles per output between first and last firing.
    pub steady_ii: f64,
    /// The input-bandwidth-limited lower bound on total cycles;
    /// `cycles <= ideal_cycles` is the paper's full-pipelining target.
    pub ideal_cycles: u64,
    /// Off-chip streams consumed per cycle (1, or more under the
    /// Appendix 9.4 tradeoff).
    pub offchip_streams: usize,
    /// Sum of allocated FIFO capacities in this configuration.
    pub planned_total_buffer: u64,
    /// The §2.3 minimum total buffer size `r̄(A_0 → A_{n-1})` of the
    /// single-stream design.
    pub min_total_buffer: u64,
    /// Whether Property 3 (linearity of max reuse distances) held, in
    /// which case the single-stream `planned_total_buffer` equals
    /// `min_total_buffer` exactly.
    pub linearity_holds: bool,
    /// Per-chain detail.
    pub chains: Vec<ChainMetrics>,
}

impl MachineMetrics {
    /// Sum of observed FIFO high-water marks across every chain — the
    /// steady-state buffering the run actually used.
    #[must_use]
    pub fn observed_total_buffer(&self) -> u64 {
        self.chains
            .iter()
            .flat_map(|c| c.fifos.iter())
            .map(|f| f.high_water)
            .sum()
    }

    /// Total steady-state stalled cycles across every filter.
    #[must_use]
    pub fn steady_stalls(&self) -> u64 {
        self.chains
            .iter()
            .flat_map(|c| c.filters.iter())
            .map(|f| f.steady_stalls)
            .sum()
    }
}

impl ToValue for MachineMetrics {
    fn to_value(&self) -> Value {
        object(vec![
            ("cycles", self.cycles.to_value()),
            ("outputs", self.outputs.to_value()),
            ("iterations", self.iterations.to_value()),
            ("fill_latency", self.fill_latency.to_value()),
            ("steady_ii", self.steady_ii.to_value()),
            ("ideal_cycles", self.ideal_cycles.to_value()),
            ("offchip_streams", self.offchip_streams.to_value()),
            ("planned_total_buffer", self.planned_total_buffer.to_value()),
            ("min_total_buffer", self.min_total_buffer.to_value()),
            ("linearity_holds", self.linearity_holds.to_value()),
            ("chains", self.chains.to_value()),
        ])
    }
}

impl FromValue for MachineMetrics {
    fn from_value(v: &Value) -> Result<Self, JsonError> {
        Ok(Self {
            cycles: field(v, "cycles")?,
            outputs: field(v, "outputs")?,
            iterations: field(v, "iterations")?,
            fill_latency: field(v, "fill_latency")?,
            steady_ii: field(v, "steady_ii")?,
            ideal_cycles: field(v, "ideal_cycles")?,
            offchip_streams: field(v, "offchip_streams")?,
            planned_total_buffer: field(v, "planned_total_buffer")?,
            min_total_buffer: field(v, "min_total_buffer")?,
            linearity_holds: field(v, "linearity_holds")?,
            chains: field(v, "chains")?,
        })
    }
}

/// Per-band counters of one software-engine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileMetrics {
    /// Band id, outermost-dimension order.
    pub id: usize,
    /// Outputs the band produced.
    pub outputs: u64,
    /// Input elements in the band's halo.
    pub halo_elements: u64,
    /// Rows evaluated by the vectorized register-program row sweep.
    pub sweep_rows: u64,
    /// Rows executed on the batched fast path.
    pub fast_rows: u64,
    /// Rows that fell back to per-point gathers.
    pub gather_rows: u64,
    /// Wall-clock nanoseconds from the start of the band's first row
    /// run to the end of its last.
    pub elapsed_ns: u64,
}

impl ToValue for TileMetrics {
    fn to_value(&self) -> Value {
        object(vec![
            ("id", self.id.to_value()),
            ("outputs", self.outputs.to_value()),
            ("halo_elements", self.halo_elements.to_value()),
            ("sweep_rows", self.sweep_rows.to_value()),
            ("fast_rows", self.fast_rows.to_value()),
            ("gather_rows", self.gather_rows.to_value()),
            ("elapsed_ns", self.elapsed_ns.to_value()),
        ])
    }
}

impl FromValue for TileMetrics {
    fn from_value(v: &Value) -> Result<Self, JsonError> {
        Ok(Self {
            id: field(v, "id")?,
            outputs: field(v, "outputs")?,
            halo_elements: field(v, "halo_elements")?,
            // Reports written before the compiled row sweep existed
            // have no `sweep_rows` key; those runs swept zero rows.
            sweep_rows: match v.get("sweep_rows") {
                None => 0,
                Some(s) => FromValue::from_value(s)?,
            },
            fast_rows: field(v, "fast_rows")?,
            gather_rows: field(v, "gather_rows")?,
            elapsed_ns: field(v, "elapsed_ns")?,
        })
    }
}

/// Counters of one software-engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineMetrics {
    /// Total outputs produced.
    pub outputs: u64,
    /// Bands executed.
    pub tiles: usize,
    /// Workers that ran the bands' row runs, the calling thread
    /// included.
    pub threads: usize,
    /// Kernel backend that executed the datapath (`"compiled"` for the
    /// register-program row sweep, `"closure"` otherwise).
    pub backend: String,
    /// Output rows per grouped sweep dispatch (1 = the classic
    /// single-output sweep; above 1 only for the compiled backend).
    pub unroll: u64,
    /// Arithmetic precision the kernel evaluated in (`"f64"` or
    /// `"f32"`).
    pub datapath: String,
    /// Input elements fetched across bands, halo overlap counted per
    /// band.
    pub halo_elements: u64,
    /// End-to-end wall-clock nanoseconds.
    pub elapsed_ns: u64,
    /// Outputs per second (0.0 when the elapsed time is below timer
    /// resolution — never non-finite).
    pub throughput: f64,
    /// Per-band detail, band order.
    pub per_tile: Vec<TileMetrics>,
}

impl ToValue for EngineMetrics {
    fn to_value(&self) -> Value {
        object(vec![
            ("outputs", self.outputs.to_value()),
            ("tiles", self.tiles.to_value()),
            ("threads", self.threads.to_value()),
            ("backend", self.backend.to_value()),
            ("unroll", self.unroll.to_value()),
            ("datapath", self.datapath.to_value()),
            ("halo_elements", self.halo_elements.to_value()),
            ("elapsed_ns", self.elapsed_ns.to_value()),
            ("throughput", self.throughput.to_value()),
            ("per_tile", self.per_tile.to_value()),
        ])
    }
}

impl FromValue for EngineMetrics {
    fn from_value(v: &Value) -> Result<Self, JsonError> {
        Ok(Self {
            outputs: field(v, "outputs")?,
            tiles: field(v, "tiles")?,
            threads: field(v, "threads")?,
            // Pre-compilation reports carry no `backend` key; every run
            // back then executed the closure datapath.
            backend: match v.get("backend") {
                None => "closure".to_string(),
                Some(s) => FromValue::from_value(s)?,
            },
            // Absent before the unrolled sweep / f32 datapath existed:
            // those runs swept one output per dispatch in f64.
            unroll: match v.get("unroll") {
                None => 1,
                Some(s) => FromValue::from_value(s)?,
            },
            datapath: match v.get("datapath") {
                None => "f64".to_string(),
                Some(s) => FromValue::from_value(s)?,
            },
            halo_elements: field(v, "halo_elements")?,
            elapsed_ns: field(v, "elapsed_ns")?,
            throughput: field(v, "throughput")?,
            per_tile: field(v, "per_tile")?,
        })
    }
}

/// Counters of one streaming (out-of-core) engine run.
///
/// The defining figure is the pair `peak_resident` / `resident_bound`:
/// the streaming executor promises to keep at most one band's halo
/// window of input values resident (Sec. 2.3 — a stencil needs only its
/// maximum reuse distance of history), and the validator checks the
/// observed high-water mark against that planned bound
/// ([`crate::validate::BoundCheck::ResidencyBound`]).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamMetrics {
    /// Total outputs produced.
    pub outputs: u64,
    /// Bands executed.
    pub bands: usize,
    /// Worker threads used per band (1: streaming bands run on the
    /// calling thread).
    pub threads: usize,
    /// Kernel backend that executed the datapath (`"compiled"` for the
    /// register-program row sweep, `"closure"` otherwise).
    pub backend: String,
    /// Output rows per grouped sweep dispatch (1 = the classic
    /// single-output sweep; above 1 only for the compiled backend).
    pub unroll: u64,
    /// Arithmetic precision the kernel evaluated in (`"f64"` or
    /// `"f32"`).
    pub datapath: String,
    /// Requested band height in outermost-dimension rows (0 = the
    /// plan's default one-band-per-off-chip-stream sharding).
    pub chunk_rows: u64,
    /// Input index rows pulled from the row source.
    pub rows_in: u64,
    /// Input values pulled from the row source.
    pub values_in: u64,
    /// Output rows pushed to the row sink.
    pub rows_out: u64,
    /// High-water mark of resident input values (the gauge's maximum).
    pub peak_resident: u64,
    /// Planned residency bound: max over bands of halo rows x widest
    /// resident row length.
    pub resident_bound: u64,
    /// Output rows evaluated by the vectorized register-program row sweep.
    pub sweep_rows: u64,
    /// Output rows executed on the batched fast path.
    pub fast_rows: u64,
    /// Output rows that fell back to per-point gathers.
    pub gather_rows: u64,
    /// The stage's own busy nanoseconds: eviction, band execution and
    /// feeds, with the source, the sink and upstream stages excluded.
    pub elapsed_ns: u64,
    /// Outputs per busy second (0.0 when below timer resolution).
    pub throughput: f64,
}

impl ToValue for StreamMetrics {
    fn to_value(&self) -> Value {
        object(vec![
            ("outputs", self.outputs.to_value()),
            ("bands", self.bands.to_value()),
            ("threads", self.threads.to_value()),
            ("backend", self.backend.to_value()),
            ("unroll", self.unroll.to_value()),
            ("datapath", self.datapath.to_value()),
            ("chunk_rows", self.chunk_rows.to_value()),
            ("rows_in", self.rows_in.to_value()),
            ("values_in", self.values_in.to_value()),
            ("rows_out", self.rows_out.to_value()),
            ("peak_resident", self.peak_resident.to_value()),
            ("resident_bound", self.resident_bound.to_value()),
            ("sweep_rows", self.sweep_rows.to_value()),
            ("fast_rows", self.fast_rows.to_value()),
            ("gather_rows", self.gather_rows.to_value()),
            ("elapsed_ns", self.elapsed_ns.to_value()),
            ("throughput", self.throughput.to_value()),
        ])
    }
}

impl FromValue for StreamMetrics {
    fn from_value(v: &Value) -> Result<Self, JsonError> {
        Ok(Self {
            outputs: field(v, "outputs")?,
            bands: field(v, "bands")?,
            threads: field(v, "threads")?,
            // Absent in pre-compilation reports: closure datapath.
            backend: match v.get("backend") {
                None => "closure".to_string(),
                Some(s) => FromValue::from_value(s)?,
            },
            // Absent before the unrolled sweep / f32 datapath existed.
            unroll: match v.get("unroll") {
                None => 1,
                Some(s) => FromValue::from_value(s)?,
            },
            datapath: match v.get("datapath") {
                None => "f64".to_string(),
                Some(s) => FromValue::from_value(s)?,
            },
            chunk_rows: field(v, "chunk_rows")?,
            rows_in: field(v, "rows_in")?,
            values_in: field(v, "values_in")?,
            rows_out: field(v, "rows_out")?,
            peak_resident: field(v, "peak_resident")?,
            resident_bound: field(v, "resident_bound")?,
            // Absent in pre-compilation reports: zero swept rows.
            sweep_rows: match v.get("sweep_rows") {
                None => 0,
                Some(s) => FromValue::from_value(s)?,
            },
            fast_rows: field(v, "fast_rows")?,
            gather_rows: field(v, "gather_rows")?,
            elapsed_ns: field(v, "elapsed_ns")?,
            throughput: field(v, "throughput")?,
        })
    }
}

/// Counters of one pipeline stage of a session run.
///
/// Exactly one of `engine` / `stream` is populated, matching the
/// session's execution mode (in-core and tiled stages carry an
/// [`EngineMetrics`], streaming stages a [`StreamMetrics`]).
#[derive(Debug, Clone, PartialEq)]
pub struct StageMetrics {
    /// The stage's kernel label (benchmark or stage name).
    pub label: String,
    /// The backend this stage resolved to ("compiled" / "closure") —
    /// per stage, because a heterogeneous chain mixes them.
    pub backend: String,
    /// Number of taps in this stage's window (0 in pre-heterogeneous
    /// reports, which did not record per-stage windows).
    pub window_taps: u64,
    /// The window's outermost-dimension span in rows — this stage's
    /// halo reach (0 in pre-heterogeneous reports).
    pub window_rows: u64,
    /// This stage's own planned residency ceiling (0 when unknown):
    /// its halo-window bound under streaming, its whole input grid in
    /// core. The per-stage figure the tightened `ChainResidency` rule
    /// checks `peak_resident` against.
    pub resident_bound: u64,
    /// In-core counters, when the stage executed in core.
    pub engine: Option<EngineMetrics>,
    /// Streaming counters, when the stage executed out of core.
    pub stream: Option<StreamMetrics>,
}

impl ToValue for StageMetrics {
    fn to_value(&self) -> Value {
        object(vec![
            ("label", self.label.to_value()),
            ("backend", self.backend.to_value()),
            ("window_taps", self.window_taps.to_value()),
            ("window_rows", self.window_rows.to_value()),
            ("resident_bound", self.resident_bound.to_value()),
            (
                "engine",
                self.engine
                    .as_ref()
                    .map(ToValue::to_value)
                    .unwrap_or(Value::Null),
            ),
            (
                "stream",
                self.stream
                    .as_ref()
                    .map(ToValue::to_value)
                    .unwrap_or(Value::Null),
            ),
        ])
    }
}

impl FromValue for StageMetrics {
    fn from_value(v: &Value) -> Result<Self, JsonError> {
        let engine: Option<EngineMetrics> = field(v, "engine")?;
        let stream: Option<StreamMetrics> = field(v, "stream")?;
        Ok(Self {
            label: field(v, "label")?,
            // Absent in pre-heterogeneous reports: every stage ran the
            // backend its sub-report recorded.
            backend: match v.get("backend") {
                None => engine
                    .as_ref()
                    .map(|e| e.backend.clone())
                    .or_else(|| stream.as_ref().map(|s| s.backend.clone()))
                    .unwrap_or_else(|| "closure".to_string()),
                Some(s) => FromValue::from_value(s)?,
            },
            // Absent in pre-heterogeneous reports: window unrecorded.
            window_taps: match v.get("window_taps") {
                None => 0,
                Some(s) => FromValue::from_value(s)?,
            },
            window_rows: match v.get("window_rows") {
                None => 0,
                Some(s) => FromValue::from_value(s)?,
            },
            // Absent in pre-heterogeneous reports: fall back to the
            // stream sub-report's own bound, else unknown (0).
            resident_bound: match v.get("resident_bound") {
                None => stream.as_ref().map_or(0, |s| s.resident_bound),
                Some(s) => FromValue::from_value(s)?,
            },
            engine,
            stream,
        })
    }
}

/// Counters of one iterative time-stepping run — a session that applied
/// the *same* kernel for `steps` time steps (`Session::iterate`), or
/// stepped until an epsilon-based convergence criterion fired
/// (`Session::iterate_until`).
///
/// The defining figures are `observed_peak` against `planned_peak`
/// (residency stayed within the planned T×halo budget — no intermediate
/// grid was materialized) and `steps`/`converged` (how many steps
/// actually ran, and whether the per-step max-abs-delta reduction fell
/// to `epsilon` before `max_steps`). Checked by
/// [`crate::validate::BoundCheck::IterateResidency`].
#[derive(Debug, Clone, PartialEq)]
pub struct IterateMetrics {
    /// Time steps actually executed.
    pub steps: u64,
    /// Step budget the run was allowed (equals `steps` for fixed-count
    /// `iterate(T)` runs).
    pub max_steps: u64,
    /// Whether the convergence criterion fired before `max_steps`.
    pub converged: bool,
    /// The convergence threshold on the per-step max-abs delta (0.0 for
    /// fixed-count runs, which never test convergence).
    pub epsilon: f64,
    /// The last step's max-abs delta (0.0 for fixed-count runs).
    pub final_delta: f64,
    /// Per-step peak resident values, step order.
    pub step_peaks: Vec<u64>,
    /// The planned residency budget for the whole run.
    pub planned_peak: u64,
    /// The observed peak residency for the whole run.
    pub observed_peak: u64,
}

impl ToValue for IterateMetrics {
    fn to_value(&self) -> Value {
        object(vec![
            ("steps", self.steps.to_value()),
            ("max_steps", self.max_steps.to_value()),
            ("converged", self.converged.to_value()),
            ("epsilon", self.epsilon.to_value()),
            ("final_delta", self.final_delta.to_value()),
            ("step_peaks", self.step_peaks.to_value()),
            ("planned_peak", self.planned_peak.to_value()),
            ("observed_peak", self.observed_peak.to_value()),
        ])
    }
}

impl FromValue for IterateMetrics {
    fn from_value(v: &Value) -> Result<Self, JsonError> {
        Ok(Self {
            steps: field(v, "steps")?,
            max_steps: field(v, "max_steps")?,
            converged: field(v, "converged")?,
            epsilon: field(v, "epsilon")?,
            final_delta: field(v, "final_delta")?,
            step_peaks: field(v, "step_peaks")?,
            planned_peak: field(v, "planned_peak")?,
            observed_peak: field(v, "observed_peak")?,
        })
    }
}

/// Grid I/O accounting for a session driven through streaming
/// endpoints: how input values reached the engine (slices of a mapped
/// `.sgrid` payload vs copies pulled through a row source) and whether
/// the sink was finalized (flushed/synced).
///
/// The defining claim of the mmap fast path is `values_copied == 0`
/// with `values_mapped` covering the input. Consistency is checked by
/// [`crate::validate::BoundCheck::GridIoConsistent`]: a run that mapped
/// zero bytes cannot claim mapped values, mapped values cannot exceed
/// the mapped bytes, and the sink must have been finalized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridIoMetrics {
    /// Bytes of input file mapped into memory (header + payload); zero
    /// for non-mapped sources.
    pub bytes_mapped: u64,
    /// Input values consumed as slices of the mapped payload — never
    /// copied into engine buffers.
    pub values_mapped: u64,
    /// Input values copied out of the source into engine-owned buffers.
    pub values_copied: u64,
    /// Output values pushed to the sink.
    pub output_values: u64,
    /// Whether the sink's end-of-run finalization (flush / msync) ran
    /// to completion.
    pub sink_finalized: bool,
}

impl ToValue for GridIoMetrics {
    fn to_value(&self) -> Value {
        object(vec![
            ("bytes_mapped", self.bytes_mapped.to_value()),
            ("values_mapped", self.values_mapped.to_value()),
            ("values_copied", self.values_copied.to_value()),
            ("output_values", self.output_values.to_value()),
            ("sink_finalized", self.sink_finalized.to_value()),
        ])
    }
}

impl FromValue for GridIoMetrics {
    fn from_value(v: &Value) -> Result<Self, JsonError> {
        Ok(Self {
            bytes_mapped: field(v, "bytes_mapped")?,
            values_mapped: field(v, "values_mapped")?,
            values_copied: field(v, "values_copied")?,
            output_values: field(v, "output_values")?,
            sink_finalized: field(v, "sink_finalized")?,
        })
    }
}

/// Counters of one unified session run — a temporally chained pipeline
/// of one or more kernel stages executed through `stencil_engine`'s
/// `Session` layer.
///
/// The defining figure of a chained run is `peak_resident` against
/// `resident_bound`: summed across stages, a streaming chain holds
/// roughly the *sum of the stages' halo windows* resident rather than
/// any full intermediate grid
/// ([`crate::validate::BoundCheck::ChainResidency`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionMetrics {
    /// Execution mode (`"incore"`, `"tiled"`, or `"streaming"`).
    pub mode: String,
    /// Worker threads used (max across stages).
    pub threads: usize,
    /// Final-stage outputs produced.
    pub outputs: u64,
    /// Peak resident values summed across all stages.
    pub peak_resident: u64,
    /// Planned residency bound summed across all stages.
    pub resident_bound: u64,
    /// End-to-end wall-clock nanoseconds.
    pub elapsed_ns: u64,
    /// Final-stage outputs per second (0.0 when below resolution).
    pub throughput: f64,
    /// Tile plans constructed *during* execution — cache misses past
    /// the plans hoisted to session construction. A well-prepared
    /// iterate run reports 0 here.
    pub tile_plans_built: u64,
    /// Per-stage detail, pipeline order.
    pub stages: Vec<StageMetrics>,
    /// Iterative time-stepping counters, when the session ran via
    /// `iterate`/`iterate_until`.
    pub iterate: Option<IterateMetrics>,
    /// Grid I/O accounting, when the session ran through streaming
    /// endpoints (absent in older reports and pure in-core runs).
    pub grid_io: Option<GridIoMetrics>,
}

impl ToValue for SessionMetrics {
    fn to_value(&self) -> Value {
        object(vec![
            ("mode", self.mode.to_value()),
            ("threads", self.threads.to_value()),
            ("outputs", self.outputs.to_value()),
            ("peak_resident", self.peak_resident.to_value()),
            ("resident_bound", self.resident_bound.to_value()),
            ("elapsed_ns", self.elapsed_ns.to_value()),
            ("throughput", self.throughput.to_value()),
            ("tile_plans_built", self.tile_plans_built.to_value()),
            ("stages", self.stages.to_value()),
            (
                "iterate",
                self.iterate
                    .as_ref()
                    .map(ToValue::to_value)
                    .unwrap_or(Value::Null),
            ),
            (
                "grid_io",
                self.grid_io
                    .as_ref()
                    .map(ToValue::to_value)
                    .unwrap_or(Value::Null),
            ),
        ])
    }
}

impl FromValue for SessionMetrics {
    fn from_value(v: &Value) -> Result<Self, JsonError> {
        Ok(Self {
            mode: field(v, "mode")?,
            threads: field(v, "threads")?,
            outputs: field(v, "outputs")?,
            peak_resident: field(v, "peak_resident")?,
            resident_bound: field(v, "resident_bound")?,
            elapsed_ns: field(v, "elapsed_ns")?,
            throughput: field(v, "throughput")?,
            // Absent in pre-iterate reports: no tile-plan counter, and
            // no iterative time-stepping section.
            tile_plans_built: match v.get("tile_plans_built") {
                None => 0,
                Some(s) => FromValue::from_value(s)?,
            },
            stages: field(v, "stages")?,
            iterate: match v.get("iterate") {
                None => None,
                Some(s) => FromValue::from_value(s)?,
            },
            // Absent in pre-grid-io reports.
            grid_io: match v.get("grid_io") {
                None => None,
                Some(s) => FromValue::from_value(s)?,
            },
        })
    }
}

/// Counters of one serving-front-end run — a batch of grid jobs
/// admitted against a memory budget, dispatched across a worker pool of
/// sessions, and (for oversized grids) sharded into halo-overlapped row
/// bands and merged.
///
/// The defining figures are `peak_resident` against
/// `admitted_bound_peak` (the executing shards never held more resident
/// than admission accounted for) and `outputs_produced` against
/// `outputs_expected` (shard merge conserved every output element).
/// Checked by [`crate::validate::BoundCheck::ServiceResidency`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceMetrics {
    /// Worker pool size.
    pub workers: u64,
    /// Bounded-queue capacity (pending shard tasks).
    pub queue_depth: u64,
    /// Admission-control budget in resident f64 elements (0 = no
    /// budget; admission is then queue-bounded only).
    pub memory_budget: u64,
    /// Jobs offered to the front-end.
    pub jobs_submitted: u64,
    /// Jobs admitted past admission control.
    pub jobs_admitted: u64,
    /// Jobs rejected with a retry-after hint (backpressure).
    pub jobs_rejected: u64,
    /// Admitted jobs that failed with a typed engine error.
    pub jobs_failed: u64,
    /// Shard sessions executed (≥ jobs_admitted; sharded jobs run one
    /// session per row band).
    pub shards_executed: u64,
    /// High-water mark of the summed `planned_residency_bound`s of
    /// admitted, not-yet-completed jobs.
    pub admitted_bound_peak: u64,
    /// High-water mark of the summed bounds of shards concurrently
    /// *executing* — the aggregate the service actually held resident.
    pub peak_resident: u64,
    /// Shards whose observed session peak exceeded their own planned
    /// bound (0 in a correct run).
    pub shards_over_bound: u64,
    /// Output elements the admitted jobs' iteration domains promise.
    pub outputs_expected: u64,
    /// Output elements produced and merged across all shards.
    pub outputs_produced: u64,
    /// Tile plans built during shard execution (plan-cache misses past
    /// the schedules seeded from the shared cache).
    pub tile_plans_built: u64,
    /// Shared plan-cache hits across all shard lookups.
    pub plan_cache_hits: u64,
    /// Shared plan-cache misses (one per distinct plan actually built).
    pub plan_cache_misses: u64,
    /// End-to-end wall-clock nanoseconds for the batch.
    pub elapsed_ns: u64,
    /// Merged output elements per second (0.0 when below timer
    /// resolution; always finite).
    pub throughput: f64,
}

impl ToValue for ServiceMetrics {
    fn to_value(&self) -> Value {
        object(vec![
            ("workers", self.workers.to_value()),
            ("queue_depth", self.queue_depth.to_value()),
            ("memory_budget", self.memory_budget.to_value()),
            ("jobs_submitted", self.jobs_submitted.to_value()),
            ("jobs_admitted", self.jobs_admitted.to_value()),
            ("jobs_rejected", self.jobs_rejected.to_value()),
            ("jobs_failed", self.jobs_failed.to_value()),
            ("shards_executed", self.shards_executed.to_value()),
            ("admitted_bound_peak", self.admitted_bound_peak.to_value()),
            ("peak_resident", self.peak_resident.to_value()),
            ("shards_over_bound", self.shards_over_bound.to_value()),
            ("outputs_expected", self.outputs_expected.to_value()),
            ("outputs_produced", self.outputs_produced.to_value()),
            ("tile_plans_built", self.tile_plans_built.to_value()),
            ("plan_cache_hits", self.plan_cache_hits.to_value()),
            ("plan_cache_misses", self.plan_cache_misses.to_value()),
            ("elapsed_ns", self.elapsed_ns.to_value()),
            ("throughput", self.throughput.to_value()),
        ])
    }
}

impl FromValue for ServiceMetrics {
    fn from_value(v: &Value) -> Result<Self, JsonError> {
        Ok(Self {
            workers: field(v, "workers")?,
            queue_depth: field(v, "queue_depth")?,
            memory_budget: field(v, "memory_budget")?,
            jobs_submitted: field(v, "jobs_submitted")?,
            jobs_admitted: field(v, "jobs_admitted")?,
            jobs_rejected: field(v, "jobs_rejected")?,
            jobs_failed: field(v, "jobs_failed")?,
            shards_executed: field(v, "shards_executed")?,
            admitted_bound_peak: field(v, "admitted_bound_peak")?,
            peak_resident: field(v, "peak_resident")?,
            shards_over_bound: field(v, "shards_over_bound")?,
            outputs_expected: field(v, "outputs_expected")?,
            outputs_produced: field(v, "outputs_produced")?,
            tile_plans_built: field(v, "tile_plans_built")?,
            plan_cache_hits: field(v, "plan_cache_hits")?,
            plan_cache_misses: field(v, "plan_cache_misses")?,
            elapsed_ns: field(v, "elapsed_ns")?,
            throughput: field(v, "throughput")?,
        })
    }
}

/// A complete metrics report for one named run.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The kernel / benchmark name.
    pub name: String,
    /// Cycle-accurate machine counters, if a machine ran.
    pub machine: Option<MachineMetrics>,
    /// Software-engine counters, if the in-core engine ran.
    pub engine: Option<EngineMetrics>,
    /// Streaming-engine counters, if the out-of-core backend ran.
    pub stream: Option<StreamMetrics>,
    /// Session-pipeline counters, if a (possibly chained) session ran.
    pub session: Option<SessionMetrics>,
    /// Serving-front-end counters, if a job batch ran through the
    /// sharded multi-grid service.
    pub service: Option<ServiceMetrics>,
}

impl MetricsReport {
    /// An empty report for a named run.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            schema_version: SCHEMA_VERSION,
            name: name.into(),
            machine: None,
            engine: None,
            stream: None,
            session: None,
            service: None,
        }
    }

    /// Renders the report as indented JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_value().to_json_pretty()
    }

    /// Parses a report back from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed JSON or schema mismatch.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        Self::from_value(&Value::parse(text)?)
    }
}

impl ToValue for MetricsReport {
    fn to_value(&self) -> Value {
        object(vec![
            ("schema_version", self.schema_version.to_value()),
            ("name", self.name.to_value()),
            (
                "machine",
                self.machine
                    .as_ref()
                    .map(ToValue::to_value)
                    .unwrap_or(Value::Null),
            ),
            (
                "engine",
                self.engine
                    .as_ref()
                    .map(ToValue::to_value)
                    .unwrap_or(Value::Null),
            ),
            (
                "stream",
                self.stream
                    .as_ref()
                    .map(ToValue::to_value)
                    .unwrap_or(Value::Null),
            ),
            (
                "session",
                self.session
                    .as_ref()
                    .map(ToValue::to_value)
                    .unwrap_or(Value::Null),
            ),
            (
                "service",
                self.service
                    .as_ref()
                    .map(ToValue::to_value)
                    .unwrap_or(Value::Null),
            ),
        ])
    }
}

impl FromValue for MetricsReport {
    fn from_value(v: &Value) -> Result<Self, JsonError> {
        Ok(Self {
            schema_version: field(v, "schema_version")?,
            name: field(v, "name")?,
            machine: field(v, "machine")?,
            engine: field(v, "engine")?,
            // Reports written before the streaming backend existed have
            // no `stream` key at all; treat absence like `null`.
            stream: match v.get("stream") {
                None => None,
                Some(s) => FromValue::from_value(s)?,
            },
            // Reports written before the session layer existed have no
            // `session` key either.
            session: match v.get("session") {
                None => None,
                Some(s) => FromValue::from_value(s)?,
            },
            // ... and pre-serving reports have no `service` key.
            service: match v.get("service") {
                None => None,
                Some(s) => FromValue::from_value(s)?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_machine() -> MachineMetrics {
        MachineMetrics {
            cycles: 140,
            outputs: 80,
            iterations: 80,
            fill_latency: 27,
            steady_ii: 1.2,
            ideal_cycles: 141,
            offchip_streams: 1,
            planned_total_buffer: 24,
            min_total_buffer: 24,
            linearity_holds: true,
            chains: vec![ChainMetrics {
                array: "A".into(),
                inputs_streamed: 120,
                input_elements: 120,
                fifos: vec![
                    FifoMetrics {
                        capacity: 11,
                        high_water: 11,
                        pushes: 108,
                        pops: 97,
                        occupancy: Histogram::disabled(),
                    },
                    FifoMetrics {
                        capacity: 1,
                        high_water: 1,
                        pushes: 100,
                        pops: 99,
                        occupancy: Histogram::new(&[1, 2]),
                    },
                ],
                filters: vec![FilterMetrics {
                    forwarded: 80,
                    discarded: 40,
                    stalls: 9,
                    steady_stalls: 0,
                }],
            }],
        }
    }

    pub(crate) fn sample_service() -> ServiceMetrics {
        ServiceMetrics {
            workers: 4,
            queue_depth: 16,
            memory_budget: 100_000,
            jobs_submitted: 12,
            jobs_admitted: 10,
            jobs_rejected: 2,
            jobs_failed: 0,
            shards_executed: 18,
            admitted_bound_peak: 90_000,
            peak_resident: 64_000,
            shards_over_bound: 0,
            outputs_expected: 48_000,
            outputs_produced: 48_000,
            tile_plans_built: 0,
            plan_cache_hits: 14,
            plan_cache_misses: 4,
            elapsed_ns: 1_200_000,
            throughput: 4.0e7,
        }
    }

    #[test]
    fn report_round_trips_through_json_text() {
        let report = MetricsReport {
            schema_version: SCHEMA_VERSION,
            name: "denoise".into(),
            machine: Some(sample_machine()),
            engine: Some(EngineMetrics {
                outputs: 80,
                tiles: 2,
                threads: 2,
                backend: "compiled".into(),
                unroll: 1,
                datapath: "f64".into(),
                halo_elements: 132,
                elapsed_ns: 81_532,
                throughput: 981_208.3,
                per_tile: vec![TileMetrics {
                    id: 0,
                    outputs: 40,
                    halo_elements: 66,
                    sweep_rows: 5,
                    fast_rows: 0,
                    gather_rows: 0,
                    elapsed_ns: 40_000,
                }],
            }),
            stream: Some(StreamMetrics {
                outputs: 80,
                bands: 4,
                threads: 2,
                backend: "closure".into(),
                unroll: 1,
                datapath: "f64".into(),
                chunk_rows: 3,
                rows_in: 12,
                values_in: 144,
                rows_out: 10,
                peak_resident: 60,
                resident_bound: 60,
                sweep_rows: 0,
                fast_rows: 10,
                gather_rows: 0,
                elapsed_ns: 91_004,
                throughput: 879_082.5,
            }),
            session: Some(SessionMetrics {
                mode: "streaming".into(),
                threads: 2,
                outputs: 60,
                peak_resident: 138,
                resident_bound: 138,
                elapsed_ns: 120_330,
                throughput: 498_628.9,
                tile_plans_built: 0,
                iterate: Some(IterateMetrics {
                    steps: 2,
                    max_steps: 2,
                    converged: false,
                    epsilon: 0.0,
                    final_delta: 0.0,
                    step_peaks: vec![72, 66],
                    planned_peak: 138,
                    observed_peak: 138,
                }),
                grid_io: None,
                stages: vec![
                    StageMetrics {
                        label: "denoise".into(),
                        backend: "compiled".into(),
                        window_taps: 5,
                        window_rows: 3,
                        resident_bound: 72,
                        engine: None,
                        stream: Some(StreamMetrics {
                            outputs: 80,
                            bands: 4,
                            threads: 2,
                            backend: "compiled".into(),
                            unroll: 1,
                            datapath: "f64".into(),
                            chunk_rows: 1,
                            rows_in: 12,
                            values_in: 144,
                            rows_out: 10,
                            peak_resident: 72,
                            resident_bound: 72,
                            sweep_rows: 10,
                            fast_rows: 0,
                            gather_rows: 0,
                            elapsed_ns: 60_000,
                            throughput: 1.0e6,
                        }),
                    },
                    StageMetrics {
                        label: "denoise+1".into(),
                        backend: "compiled".into(),
                        window_taps: 5,
                        window_rows: 3,
                        resident_bound: 66,
                        engine: None,
                        stream: Some(StreamMetrics {
                            outputs: 60,
                            bands: 4,
                            threads: 2,
                            backend: "compiled".into(),
                            unroll: 1,
                            datapath: "f64".into(),
                            chunk_rows: 1,
                            rows_in: 10,
                            values_in: 80,
                            rows_out: 8,
                            peak_resident: 66,
                            resident_bound: 66,
                            sweep_rows: 8,
                            fast_rows: 0,
                            gather_rows: 0,
                            elapsed_ns: 60_330,
                            throughput: 0.9e6,
                        }),
                    },
                ],
            }),
            service: Some(sample_service()),
        };
        let text = report.to_json();
        let back = MetricsReport::parse(&text).unwrap();
        assert_eq!(back, report);
        // And a partial report (engine only) stays partial.
        let partial = MetricsReport::new("x");
        assert_eq!(MetricsReport::parse(&partial.to_json()).unwrap(), partial);
    }

    #[test]
    fn pre_streaming_reports_still_parse() {
        // A report serialized before the `stream` section existed has no
        // such key; parsing must default it to None, not error.
        let mut old = MetricsReport::new("legacy");
        old.machine = Some(sample_machine());
        let Value::Object(mut fields) = old.to_value() else {
            panic!("reports serialize as objects");
        };
        fields.retain(|(k, _)| k != "stream" && k != "session" && k != "service");
        let text = Value::Object(fields).to_json();
        assert!(!text.contains("\"stream\""), "{text}");
        assert!(!text.contains("\"session\""), "{text}");
        assert!(!text.contains("\"service\""), "{text}");
        let back = MetricsReport::parse(&text).unwrap();
        assert_eq!(back.machine, old.machine);
        assert_eq!(back.stream, None);
        assert_eq!(back.service, None);
        assert_eq!(back.session, None);
    }

    #[test]
    fn pre_compilation_reports_default_backend_and_sweep_fields() {
        // Strip the PR 4 additions from a serialized report; parsing
        // must default them (closure backend, zero swept rows).
        let mut report = MetricsReport::new("legacy");
        report.engine = Some(EngineMetrics {
            outputs: 80,
            tiles: 1,
            threads: 1,
            backend: "compiled".into(),
            unroll: 1,
            datapath: "f64".into(),
            halo_elements: 132,
            elapsed_ns: 81_532,
            throughput: 981_208.3,
            per_tile: vec![TileMetrics {
                id: 0,
                outputs: 80,
                halo_elements: 132,
                sweep_rows: 5,
                fast_rows: 0,
                gather_rows: 0,
                elapsed_ns: 40_000,
            }],
        });
        report.stream = Some(StreamMetrics {
            outputs: 80,
            bands: 4,
            threads: 2,
            backend: "compiled".into(),
            unroll: 1,
            datapath: "f64".into(),
            chunk_rows: 3,
            rows_in: 12,
            values_in: 144,
            rows_out: 10,
            peak_resident: 60,
            resident_bound: 60,
            sweep_rows: 10,
            fast_rows: 0,
            gather_rows: 0,
            elapsed_ns: 91_004,
            throughput: 879_082.5,
        });
        fn strip(v: Value) -> Value {
            match v {
                Value::Object(fields) => Value::Object(
                    fields
                        .into_iter()
                        .filter(|(k, _)| k != "backend" && k != "sweep_rows")
                        .map(|(k, v)| (k, strip(v)))
                        .collect(),
                ),
                Value::Array(items) => Value::Array(items.into_iter().map(strip).collect()),
                other => other,
            }
        }
        let text = strip(report.to_value()).to_json();
        assert!(!text.contains("backend"), "{text}");
        let back = MetricsReport::parse(&text).unwrap();
        let engine = back.engine.unwrap();
        assert_eq!(engine.backend, "closure");
        assert_eq!(engine.per_tile[0].sweep_rows, 0);
        assert_eq!(engine.per_tile[0].fast_rows, 0);
        let stream = back.stream.unwrap();
        assert_eq!(stream.backend, "closure");
        assert_eq!(stream.sweep_rows, 0);
    }

    #[test]
    fn pre_unroll_reports_default_sweep_shape() {
        // Reports written before the unrolled sweep and the f32
        // datapath carry neither `unroll` nor `datapath`; schema v1
        // parsing must default them to the single-output f64 shape.
        let mut report = MetricsReport::new("legacy");
        report.engine = Some(EngineMetrics {
            outputs: 80,
            tiles: 1,
            threads: 1,
            backend: "compiled".into(),
            unroll: 4,
            datapath: "f32".into(),
            halo_elements: 132,
            elapsed_ns: 81_532,
            throughput: 981_208.3,
            per_tile: Vec::new(),
        });
        report.stream = Some(StreamMetrics {
            outputs: 80,
            bands: 4,
            threads: 2,
            backend: "compiled".into(),
            unroll: 2,
            datapath: "f32".into(),
            chunk_rows: 3,
            rows_in: 12,
            values_in: 144,
            rows_out: 10,
            peak_resident: 60,
            resident_bound: 60,
            sweep_rows: 10,
            fast_rows: 0,
            gather_rows: 0,
            elapsed_ns: 91_004,
            throughput: 879_082.5,
        });
        // Round trip first: the populated shape survives as written.
        let back = MetricsReport::parse(&report.to_json()).unwrap();
        assert_eq!(back, report);
        fn strip(v: Value) -> Value {
            match v {
                Value::Object(fields) => Value::Object(
                    fields
                        .into_iter()
                        .filter(|(k, _)| k != "unroll" && k != "datapath")
                        .map(|(k, v)| (k, strip(v)))
                        .collect(),
                ),
                Value::Array(items) => Value::Array(items.into_iter().map(strip).collect()),
                other => other,
            }
        }
        let text = strip(report.to_value()).to_json();
        assert!(!text.contains("unroll"), "{text}");
        assert!(!text.contains("datapath"), "{text}");
        let back = MetricsReport::parse(&text).unwrap();
        let engine = back.engine.unwrap();
        assert_eq!(engine.unroll, 1);
        assert_eq!(engine.datapath, "f64");
        let stream = back.stream.unwrap();
        assert_eq!(stream.unroll, 1);
        assert_eq!(stream.datapath, "f64");
    }

    #[test]
    fn pre_heterogeneous_stage_reports_derive_defaults() {
        // Stage sections written before heterogeneous chains carry no
        // per-stage backend/window/bound; schema v1 parsing must derive
        // the backend from the stage's sub-report, the bound from the
        // stream sub-report, and default the window fields to 0.
        let mut report = MetricsReport::new("legacy-hetero");
        report.session = Some(SessionMetrics {
            mode: "streaming".into(),
            threads: 1,
            outputs: 60,
            peak_resident: 66,
            resident_bound: 66,
            elapsed_ns: 10_000,
            throughput: 6.0e6,
            tile_plans_built: 0,
            iterate: None,
            grid_io: None,
            stages: vec![
                StageMetrics {
                    label: "s0".into(),
                    backend: "compiled".into(),
                    window_taps: 5,
                    window_rows: 3,
                    resident_bound: 66,
                    engine: None,
                    stream: Some(StreamMetrics {
                        outputs: 60,
                        bands: 4,
                        threads: 1,
                        backend: "compiled".into(),
                        unroll: 1,
                        datapath: "f64".into(),
                        chunk_rows: 1,
                        rows_in: 10,
                        values_in: 80,
                        rows_out: 8,
                        peak_resident: 66,
                        resident_bound: 66,
                        sweep_rows: 8,
                        fast_rows: 0,
                        gather_rows: 0,
                        elapsed_ns: 10_000,
                        throughput: 6.0e6,
                    }),
                },
                StageMetrics {
                    label: "s1".into(),
                    backend: "closure".into(),
                    window_taps: 9,
                    window_rows: 3,
                    resident_bound: 120,
                    engine: Some(EngineMetrics {
                        outputs: 60,
                        tiles: 1,
                        threads: 1,
                        backend: "closure".into(),
                        unroll: 1,
                        datapath: "f64".into(),
                        halo_elements: 120,
                        elapsed_ns: 10_000,
                        throughput: 6.0e6,
                        per_tile: Vec::new(),
                    }),
                    stream: None,
                },
            ],
        });
        // Round trip first: the populated shape survives as written.
        let back = MetricsReport::parse(&report.to_json()).unwrap();
        assert_eq!(back, report);
        // Strip the stage-level additions only — the sub-reports keep
        // their own `backend`/`resident_bound` keys (stage objects are
        // the ones carrying a `label`).
        fn strip(v: Value) -> Value {
            match v {
                Value::Object(fields) => {
                    let is_stage = fields.iter().any(|(k, _)| k == "label");
                    Value::Object(
                        fields
                            .into_iter()
                            .filter(|(k, _)| {
                                k != "window_taps"
                                    && k != "window_rows"
                                    && !(is_stage && (k == "backend" || k == "resident_bound"))
                            })
                            .map(|(k, v)| (k, strip(v)))
                            .collect(),
                    )
                }
                Value::Array(items) => Value::Array(items.into_iter().map(strip).collect()),
                other => other,
            }
        }
        let text = strip(report.to_value()).to_json();
        assert!(!text.contains("window_taps"), "{text}");
        let back = MetricsReport::parse(&text).unwrap();
        let stages = back.session.unwrap().stages;
        // Stream stage: backend and bound derive from its sub-report.
        assert_eq!(stages[0].backend, "compiled");
        assert_eq!(stages[0].resident_bound, 66);
        assert_eq!(stages[0].window_taps, 0);
        assert_eq!(stages[0].window_rows, 0);
        // In-core stage: backend derives, the bound stays unknown.
        assert_eq!(stages[1].backend, "closure");
        assert_eq!(stages[1].resident_bound, 0);
    }

    #[test]
    fn pre_iterate_session_reports_still_parse() {
        // Session sections written before iterative time-stepping have
        // neither `iterate` nor `tile_plans_built`; schema v1 parsing
        // must default them rather than error.
        let mut report = MetricsReport::new("legacy-session");
        report.session = Some(SessionMetrics {
            mode: "incore".into(),
            threads: 1,
            outputs: 80,
            peak_resident: 120,
            resident_bound: 120,
            elapsed_ns: 10_000,
            throughput: 8.0e6,
            tile_plans_built: 3,
            stages: Vec::new(),
            iterate: None,
            grid_io: None,
        });
        fn strip(v: Value) -> Value {
            match v {
                Value::Object(fields) => Value::Object(
                    fields
                        .into_iter()
                        .filter(|(k, _)| k != "iterate" && k != "tile_plans_built")
                        .map(|(k, v)| (k, strip(v)))
                        .collect(),
                ),
                Value::Array(items) => Value::Array(items.into_iter().map(strip).collect()),
                other => other,
            }
        }
        let text = strip(report.to_value()).to_json();
        assert!(!text.contains("iterate"), "{text}");
        let back = MetricsReport::parse(&text).unwrap();
        let session = back.session.unwrap();
        assert_eq!(session.iterate, None);
        assert_eq!(session.tile_plans_built, 0);
        assert_eq!(SCHEMA_VERSION, back.schema_version);
    }

    #[test]
    fn aggregates() {
        let m = sample_machine();
        assert_eq!(m.observed_total_buffer(), 12);
        assert_eq!(m.steady_stalls(), 0);
    }

    #[test]
    fn schema_mismatch_is_an_error() {
        assert!(MetricsReport::parse("{}").is_err());
        assert!(MetricsReport::parse(r#"{"schema_version":"one"}"#).is_err());
    }
}
