//! Runtime bound validation.
//!
//! The planner proves the paper's optimality claims statically; this
//! module re-proves them against what a run actually did. Each
//! [`BoundCheck`] names one claim, and [`validate_machine`] /
//! [`validate_report`] return every [`BoundViolation`] found (empty
//! means all bounds held).
//!
//! The checks, keyed to the paper:
//!
//! * [`BoundCheck::FifoCapacitySafe`] / [`BoundCheck::FifoCapacityTight`]
//!   — Eq. (2): each reuse FIFO's occupancy high-water mark never
//!   exceeds, and for complete runs exactly reaches, its allocated
//!   capacity `r̄(A_k → A_{k+1})` (zero-capacity FIFOs count as the
//!   single register stage the hardware allocates).
//! * [`BoundCheck::TotalBufferTight`] — the summed high-water marks
//!   equal the summed planned capacities, i.e. no allocated element
//!   went unused.
//! * [`BoundCheck::MinimumBuffer`] — §2.3: for single-stream plans
//!   where Property 3 (linearity) holds, the observed total buffering
//!   equals the minimum possible total `r̄(A_0 → A_{n-1})`.
//! * [`BoundCheck::FullyPipelined`] — §3.4: a run with zero
//!   steady-state filter stalls must meet the input-bandwidth-limited
//!   cycle bound (II = 1), and vice versa.
//! * [`BoundCheck::StreamConservation`] — each off-chip stream head
//!   walks its input domain at most once, and enough of it arrives to
//!   feed every output: `outputs ≤ streamed ≤ streams × |D_A|` per
//!   chain.
//! * [`BoundCheck::OutputsComplete`] — the run produced exactly `|D|`
//!   outputs.
//! * [`BoundCheck::ChainResidency`] — a chained session keeps its
//!   summed peak residency within the summed per-stage halo-window
//!   bound (the Sec. 2.3 reuse window, applied per pipeline stage),
//!   and adjacent streaming stages hand every produced value
//!   downstream.
//! * [`BoundCheck::IterateResidency`] — an iterative time-stepping run
//!   (Sec. 2.3 applied across T self-chained steps) executed within its
//!   step budget, its per-step telemetry is internally consistent, the
//!   observed peak stayed within the planned T×halo budget, and a
//!   converged run's final max-abs delta actually fell to epsilon.
//! * [`BoundCheck::StageTiming`] — each pipeline stage's own elapsed
//!   time fits within the session's wall time, and each band's wall
//!   span fits within its engine run.
//! * [`BoundCheck::GridIoConsistent`] — a session's grid-I/O block is
//!   internally consistent: mapped values imply mapped bytes and fit
//!   within them, and the output sink was finalized (flushed).
//! * [`BoundCheck::Finite`] — the serialized report contains no NaN or
//!   infinity (JSON cannot represent them).

use serde::json::ToValue;

use crate::schema::{MachineMetrics, MetricsReport};

/// The individual claims the validator checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundCheck {
    /// Eq. (2) safety: FIFO high-water mark ≤ allocated capacity.
    FifoCapacitySafe,
    /// Eq. (2) tightness: FIFO high-water mark = allocated capacity.
    FifoCapacityTight,
    /// Σ high-water = Σ planned capacity (no over-allocation).
    TotalBufferTight,
    /// §2.3 minimum total buffer bound met exactly.
    MinimumBuffer,
    /// Zero steady-state stalls ⇔ cycles within the bandwidth bound.
    FullyPipelined,
    /// Per chain, `outputs ≤ streamed ≤ streams × |D_A|`.
    StreamConservation,
    /// Outputs equal the iteration-domain size.
    OutputsComplete,
    /// Streaming engine: peak resident input values stay within the
    /// per-band halo-window bound (Sec. 2.3 reuse window).
    ResidencyBound,
    /// Session pipeline: summed peak residency across chained stages
    /// stays within the summed per-stage halo-window bound, per-stage
    /// streaming residency holds, and adjacent streaming stages hand
    /// every produced value downstream.
    ChainResidency,
    /// Iterative time-stepping: steps stayed within the budget, the
    /// per-step telemetry agrees with the per-stage figures, the
    /// observed peak stayed within the planned T×halo budget, and a
    /// converged run's final delta fell to epsilon.
    IterateResidency,
    /// Session pipeline: every stage's own elapsed time (its streaming
    /// busy time or its in-core run time) is at most the session's
    /// wall time, and every band's elapsed time (the wall span of its
    /// row runs) is at most its engine run's.
    StageTiming,
    /// Grid I/O accounting is internally consistent: a run that mapped
    /// zero bytes claims no mapped values, mapped values fit within the
    /// mapped bytes (8 bytes per f64), and the sink was finalized
    /// (flushed/synced) — unfinalized sinks may have lost tail rows.
    GridIoConsistent,
    /// Serving front-end: the aggregate resident high-water across
    /// concurrently executing shards stays within the sum of admitted
    /// `planned_residency_bound`s (which itself stays within the
    /// configured memory budget), no shard exceeded its own bound, and
    /// shard merge conserved every output element of every admitted
    /// job.
    ServiceResidency,
    /// Sweep-row tallies agree with the reported kernel backend: only
    /// the `"compiled"` backend may report vectorized sweep rows.
    BackendConsistent,
    /// The reported sweep shape is well-formed: the unroll factor is at
    /// least 1, an unroll above 1 only appears with the `"compiled"`
    /// backend (the unrolled register sweep is a compiled-kernel
    /// construct), and the datapath names a known precision (`"f64"`
    /// bit-identical runs, `"f32"` tolerance-verified runs).
    SweepShape,
    /// No NaN/infinity anywhere in the report.
    Finite,
}

impl core::fmt::Display for BoundCheck {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let name = match self {
            Self::FifoCapacitySafe => "fifo-capacity-safe (Eq. 2)",
            Self::FifoCapacityTight => "fifo-capacity-tight (Eq. 2)",
            Self::TotalBufferTight => "total-buffer-tight",
            Self::MinimumBuffer => "minimum-buffer (Sec. 2.3)",
            Self::FullyPipelined => "fully-pipelined (II = 1)",
            Self::StreamConservation => "stream-conservation",
            Self::OutputsComplete => "outputs-complete",
            Self::ResidencyBound => "residency-bound (Sec. 2.3)",
            Self::ChainResidency => "chain-residency (Sec. 2.3)",
            Self::IterateResidency => "iterate-residency (Sec. 2.3)",
            Self::StageTiming => "stage-timing",
            Self::GridIoConsistent => "grid-io-consistent",
            Self::ServiceResidency => "service-residency",
            Self::BackendConsistent => "backend-consistent",
            Self::SweepShape => "sweep-shape",
            Self::Finite => "finite",
        };
        f.write_str(name)
    }
}

/// One failed bound check, with enough context to debug it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundViolation {
    /// Which claim failed.
    pub check: BoundCheck,
    /// Where in the report it failed (e.g. `chain "in" fifo 2`).
    pub location: String,
    /// Human-readable expected-vs-observed detail.
    pub detail: String,
}

impl core::fmt::Display for BoundViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} at {}: {}", self.check, self.location, self.detail)
    }
}

fn violation(
    out: &mut Vec<BoundViolation>,
    check: BoundCheck,
    location: impl Into<String>,
    detail: String,
) {
    out.push(BoundViolation {
        check,
        location: location.into(),
        detail,
    });
}

/// Checks every machine-level bound. An incomplete run (fewer outputs
/// than iterations, e.g. a `--cycles`-capped simulation) skips the
/// tightness checks — a partial run may legitimately not have filled
/// its FIFOs — but still enforces the safety ones.
#[must_use]
pub fn validate_machine(m: &MachineMetrics) -> Vec<BoundViolation> {
    let mut v = Vec::new();
    let complete = m.outputs == m.iterations;

    if !complete {
        violation(
            &mut v,
            BoundCheck::OutputsComplete,
            "machine",
            format!("produced {} of {} outputs", m.outputs, m.iterations),
        );
    }

    let mut observed_total = 0u64;
    let mut planned_total = 0u64;
    for chain in &m.chains {
        for (k, fifo) in chain.fifos.iter().enumerate() {
            let loc = format!("chain {:?} fifo {k}", chain.array);
            // The hardware promotes capacity-0 FIFOs to one register.
            let cap = fifo.capacity.max(1);
            observed_total += fifo.high_water;
            planned_total += cap;
            if fifo.high_water > cap {
                violation(
                    &mut v,
                    BoundCheck::FifoCapacitySafe,
                    &loc,
                    format!("high water {} exceeds capacity {cap}", fifo.high_water),
                );
            } else if complete && fifo.high_water < cap {
                violation(
                    &mut v,
                    BoundCheck::FifoCapacityTight,
                    &loc,
                    format!(
                        "high water {} never reached capacity {cap}",
                        fifo.high_water
                    ),
                );
            }
            if fifo.pops > fifo.pushes {
                violation(
                    &mut v,
                    BoundCheck::StreamConservation,
                    &loc,
                    format!("popped {} of {} pushed", fifo.pops, fifo.pushes),
                );
            }
        }
        if complete {
            // Each off-chip stream head walks the input domain at most
            // once, so streamed <= streams x |D_A|. The head stops as
            // soon as the last output fires, leaving trailing elements
            // no window needs unread — but every output has a distinct
            // maximal input tap, so at least `outputs` elements must
            // have been delivered. Chains with no off-chip feed at all
            // (fully forwarded) stream nothing.
            let hi = chain.input_elements * m.offchip_streams as u64;
            let lo = m.outputs.min(hi);
            let ok = chain.inputs_streamed == 0 && chain.input_elements == 0
                || (lo..=hi).contains(&chain.inputs_streamed);
            if !ok {
                violation(
                    &mut v,
                    BoundCheck::StreamConservation,
                    format!("chain {:?}", chain.array),
                    format!(
                        "streamed {} elements, expected {lo}..={hi} ({} stream(s) x {})",
                        chain.inputs_streamed, m.offchip_streams, chain.input_elements
                    ),
                );
            }
        }
    }

    if complete && observed_total != planned_total {
        violation(
            &mut v,
            BoundCheck::TotalBufferTight,
            "machine",
            format!(
                "summed high water {observed_total} != summed planned capacity {planned_total}"
            ),
        );
    }

    // §2.3: with one stream and Property 3 holding, the plan — and
    // therefore the observed steady occupancy — sits exactly on the
    // minimum-buffer bound. Promoted register stages (capacity 0 → 1)
    // are excluded from the planned total by `min_total_buffer`'s
    // definition, so compare against the unpromoted plan figure.
    if complete && m.linearity_holds && m.offchip_streams == 1 {
        let unpromoted: u64 = m
            .chains
            .iter()
            .flat_map(|c| c.fifos.iter())
            .map(|f| f.capacity)
            .sum();
        if unpromoted != m.min_total_buffer {
            violation(
                &mut v,
                BoundCheck::MinimumBuffer,
                "machine",
                format!(
                    "planned total buffer {unpromoted} != minimum bound {}",
                    m.min_total_buffer
                ),
            );
        }
    }

    // II = 1: zero steady-state stalls and meeting the bandwidth-
    // limited cycle bound must agree.
    if complete {
        let steady = m.steady_stalls();
        let within_bound = m.cycles <= m.ideal_cycles;
        if steady == 0 && !within_bound {
            violation(
                &mut v,
                BoundCheck::FullyPipelined,
                "machine",
                format!(
                    "no steady-state stalls but {} cycles exceed the bandwidth bound {}",
                    m.cycles, m.ideal_cycles
                ),
            );
        }
        if steady > 0 && within_bound {
            violation(
                &mut v,
                BoundCheck::FullyPipelined,
                "machine",
                format!("{steady} steady-state stall cycles yet the run met the bandwidth bound"),
            );
        }
    }

    v
}

/// Checks one sweep-shape claim ([`BoundCheck::SweepShape`]): unroll
/// factors start at 1, unrolled dispatch is a compiled-backend
/// construct, and the datapath names a known precision.
fn check_sweep_shape(
    unroll: u64,
    datapath: &str,
    backend: &str,
    loc: &str,
    v: &mut Vec<BoundViolation>,
) {
    if unroll == 0 {
        violation(
            v,
            BoundCheck::SweepShape,
            loc,
            "unroll factor 0: every dispatch produces at least one output".to_string(),
        );
    }
    if unroll > 1 && backend != "compiled" {
        violation(
            v,
            BoundCheck::SweepShape,
            loc,
            format!("backend {backend:?} reports unroll {unroll}: only the compiled backend runs the unrolled sweep"),
        );
    }
    if datapath != "f64" && datapath != "f32" {
        violation(
            v,
            BoundCheck::SweepShape,
            loc,
            format!("unknown datapath {datapath:?} (expected \"f64\" or \"f32\")"),
        );
    }
}

/// Checks a whole report: machine bounds (when present) plus
/// finiteness of every number in the serialized form.
#[must_use]
pub fn validate_report(report: &MetricsReport) -> Vec<BoundViolation> {
    let mut v = match &report.machine {
        Some(m) => validate_machine(m),
        None => Vec::new(),
    };
    if let Some(path) = report.to_value().find_non_finite() {
        violation(
            &mut v,
            BoundCheck::Finite,
            path,
            "non-finite number in report".to_string(),
        );
    }
    if let Some(e) = &report.engine {
        if !e.throughput.is_finite() {
            violation(
                &mut v,
                BoundCheck::Finite,
                "engine.throughput",
                format!("throughput is {}", e.throughput),
            );
        }
        let tile_outputs: u64 = e.per_tile.iter().map(|t| t.outputs).sum();
        if !e.per_tile.is_empty() && tile_outputs != e.outputs {
            violation(
                &mut v,
                BoundCheck::OutputsComplete,
                "engine",
                format!(
                    "tile outputs sum to {tile_outputs}, run reports {}",
                    e.outputs
                ),
            );
        }
        // Only the compiled backend owns the vectorized row sweep.
        let sweep: u64 = e.per_tile.iter().map(|t| t.sweep_rows).sum();
        if e.backend != "compiled" && sweep > 0 {
            violation(
                &mut v,
                BoundCheck::BackendConsistent,
                "engine",
                format!("backend {:?} reports {sweep} swept rows", e.backend),
            );
        }
        check_sweep_shape(e.unroll, &e.datapath, &e.backend, "engine", &mut v);
        check_band_timing(e, "engine", &mut v);
    }
    if let Some(s) = &report.stream {
        // The streaming backend's defining promise: only one band's
        // halo window of input values is ever resident (Sec. 2.3).
        if s.peak_resident > s.resident_bound {
            violation(
                &mut v,
                BoundCheck::ResidencyBound,
                "stream",
                format!(
                    "peak resident {} values exceeds the halo-window bound {}",
                    s.peak_resident, s.resident_bound
                ),
            );
        }
        if !s.throughput.is_finite() {
            violation(
                &mut v,
                BoundCheck::Finite,
                "stream.throughput",
                format!("throughput is {}", s.throughput),
            );
        }
        // Every value the source handed over belongs to some pulled
        // row, and all output rows together carry all outputs.
        if s.rows_in > 0 && s.values_in == 0 {
            violation(
                &mut v,
                BoundCheck::StreamConservation,
                "stream",
                format!("{} rows pulled but zero values", s.rows_in),
            );
        }
        if s.outputs > 0 && s.rows_out == 0 {
            violation(
                &mut v,
                BoundCheck::OutputsComplete,
                "stream",
                format!(
                    "{} outputs produced but no rows reached the sink",
                    s.outputs
                ),
            );
        }
        if s.backend != "compiled" && s.sweep_rows > 0 {
            violation(
                &mut v,
                BoundCheck::BackendConsistent,
                "stream",
                format!(
                    "backend {:?} reports {} swept rows",
                    s.backend, s.sweep_rows
                ),
            );
        }
        check_sweep_shape(s.unroll, &s.datapath, &s.backend, "stream", &mut v);
    }
    if let Some(s) = &report.session {
        validate_session(s, &mut v);
    }
    if let Some(s) = &report.service {
        validate_service(s, &mut v);
    }
    v
}

/// Checks a serving front-end's admission-control claims: the executing
/// shards' aggregate resident high-water stays within the admitted
/// bound sum, the admitted bound sum stays within the memory budget, no
/// shard exceeded its own planned bound, shard merge conserved every
/// output element, and the reported throughput is finite.
fn validate_service(s: &crate::schema::ServiceMetrics, v: &mut Vec<BoundViolation>) {
    if s.peak_resident > s.admitted_bound_peak {
        violation(
            v,
            BoundCheck::ServiceResidency,
            "service",
            format!(
                "aggregate peak resident {} exceeds the admitted bound sum {}",
                s.peak_resident, s.admitted_bound_peak
            ),
        );
    }
    if s.memory_budget > 0 && s.admitted_bound_peak > s.memory_budget {
        violation(
            v,
            BoundCheck::ServiceResidency,
            "service",
            format!(
                "admitted bound high-water {} exceeds the memory budget {}",
                s.admitted_bound_peak, s.memory_budget
            ),
        );
    }
    if s.shards_over_bound > 0 {
        violation(
            v,
            BoundCheck::ServiceResidency,
            "service",
            format!(
                "{} shard(s) exceeded their own planned residency bound",
                s.shards_over_bound
            ),
        );
    }
    // Shard-merge conservation only holds for a clean batch: a failed
    // job legitimately produces fewer outputs than it promised.
    if s.jobs_failed == 0 && s.outputs_produced != s.outputs_expected {
        violation(
            v,
            BoundCheck::ServiceResidency,
            "service",
            format!(
                "shards produced {} outputs but admitted jobs promised {}",
                s.outputs_produced, s.outputs_expected
            ),
        );
    }
    if s.jobs_admitted > s.jobs_submitted || s.jobs_admitted + s.jobs_rejected != s.jobs_submitted {
        violation(
            v,
            BoundCheck::ServiceResidency,
            "service",
            format!(
                "admission arithmetic broken: {} admitted + {} rejected != {} submitted",
                s.jobs_admitted, s.jobs_rejected, s.jobs_submitted
            ),
        );
    }
    if !s.throughput.is_finite() {
        violation(
            v,
            BoundCheck::Finite,
            "service.throughput",
            format!("throughput is {}", s.throughput),
        );
    }
}

/// Checks a session pipeline's chained-residency claims: the summed
/// peak never exceeds the summed per-stage halo-window bound, each
/// stage individually honours its own declared bound, each stage's
/// declared backend matches what its sub-report actually ran, no
/// stage's own elapsed time exceeds the session's wall time, and
/// adjacent streaming stages conserve the rows flowing between them.
/// A band's elapsed time is the wall span of its row runs inside the
/// engine run, so no band can outlast the run that contains it.
fn check_band_timing(e: &crate::schema::EngineMetrics, loc: &str, v: &mut Vec<BoundViolation>) {
    for t in e.per_tile.iter().filter(|t| t.elapsed_ns > e.elapsed_ns) {
        violation(
            v,
            BoundCheck::StageTiming,
            loc,
            format!(
                "band {} elapsed {} ns exceeds its engine run's {} ns",
                t.id, t.elapsed_ns, e.elapsed_ns
            ),
        );
    }
}

fn validate_session(s: &crate::schema::SessionMetrics, v: &mut Vec<BoundViolation>) {
    if s.peak_resident > s.resident_bound {
        violation(
            v,
            BoundCheck::ChainResidency,
            "session",
            format!(
                "summed peak resident {} values exceeds the summed halo-window bound {}",
                s.peak_resident, s.resident_bound
            ),
        );
    }
    // Heterogeneous chains declare a bound per stage; when every stage
    // carries one, the session peak must also fit under their sum (the
    // stage-wise Sec. 2.3 decomposition of the whole-pipeline bound).
    if !s.stages.is_empty() && s.stages.iter().all(|st| st.resident_bound > 0) {
        let summed = s
            .stages
            .iter()
            .try_fold(0u64, |acc, st| acc.checked_add(st.resident_bound));
        match summed {
            Some(summed) if s.peak_resident <= summed => {}
            Some(summed) => violation(
                v,
                BoundCheck::ChainResidency,
                "session",
                format!(
                    "session peak resident {} values exceeds the sum {} of per-stage bounds",
                    s.peak_resident, summed
                ),
            ),
            None => violation(
                v,
                BoundCheck::ChainResidency,
                "session",
                "per-stage residency bounds overflow u64 when summed".to_string(),
            ),
        }
    }
    if !s.throughput.is_finite() {
        violation(
            v,
            BoundCheck::Finite,
            "session.throughput",
            format!("throughput is {}", s.throughput),
        );
    }
    for (i, stage) in s.stages.iter().enumerate() {
        let loc = format!("session stage {i} ({:?})", stage.label);
        let stage_ns = [
            stage.stream.as_ref().map(|m| m.elapsed_ns),
            stage.engine.as_ref().map(|m| m.elapsed_ns),
        ];
        if let Some(ns) = stage_ns.into_iter().flatten().find(|&ns| ns > s.elapsed_ns) {
            violation(
                v,
                BoundCheck::StageTiming,
                &loc,
                format!(
                    "stage elapsed {ns} ns exceeds the session's {} ns",
                    s.elapsed_ns
                ),
            );
        }
        if let Some(sm) = &stage.stream {
            if sm.peak_resident > sm.resident_bound {
                violation(
                    v,
                    BoundCheck::ChainResidency,
                    &loc,
                    format!(
                        "stage peak resident {} values exceeds its halo-window bound {}",
                        sm.peak_resident, sm.resident_bound
                    ),
                );
            }
            if stage.resident_bound > 0 && sm.peak_resident > stage.resident_bound {
                violation(
                    v,
                    BoundCheck::ChainResidency,
                    &loc,
                    format!(
                        "stage peak resident {} values exceeds its declared per-stage bound {}",
                        sm.peak_resident, stage.resident_bound
                    ),
                );
            }
            if sm.backend != stage.backend {
                violation(
                    v,
                    BoundCheck::BackendConsistent,
                    &loc,
                    format!(
                        "stage declares backend {:?} but its stream report ran {:?}",
                        stage.backend, sm.backend
                    ),
                );
            }
            if sm.backend != "compiled" && sm.sweep_rows > 0 {
                violation(
                    v,
                    BoundCheck::BackendConsistent,
                    &loc,
                    format!(
                        "backend {:?} reports {} swept rows",
                        sm.backend, sm.sweep_rows
                    ),
                );
            }
            check_sweep_shape(sm.unroll, &sm.datapath, &sm.backend, &loc, v);
        }
        if let Some(em) = &stage.engine {
            if em.backend != stage.backend {
                violation(
                    v,
                    BoundCheck::BackendConsistent,
                    &loc,
                    format!(
                        "stage declares backend {:?} but its engine report ran {:?}",
                        stage.backend, em.backend
                    ),
                );
            }
            let sweep: u64 = em.per_tile.iter().map(|t| t.sweep_rows).sum();
            if em.backend != "compiled" && sweep > 0 {
                violation(
                    v,
                    BoundCheck::BackendConsistent,
                    &loc,
                    format!("backend {:?} reports {sweep} swept rows", em.backend),
                );
            }
            check_sweep_shape(em.unroll, &em.datapath, &em.backend, &loc, v);
            check_band_timing(em, &loc, v);
        }
        // A chained streaming stage consumes exactly what its upstream
        // stage produced — no intermediate grid materializes, so any
        // mismatch means rows leaked or were fabricated between stages.
        if i > 0 {
            if let (Some(prev), Some(cur)) = (&s.stages[i - 1].stream, &stage.stream) {
                if cur.values_in != prev.outputs {
                    violation(
                        v,
                        BoundCheck::ChainResidency,
                        &loc,
                        format!(
                            "stage consumed {} values but its upstream stage produced {}",
                            cur.values_in, prev.outputs
                        ),
                    );
                }
            }
        }
    }
    if let Some(it) = &s.iterate {
        validate_iterate(it, s, v);
    }
    if let Some(io) = &s.grid_io {
        validate_grid_io(io, v);
    }
}

/// Checks a grid-I/O block's internal consistency: mapped values imply
/// mapped bytes, the mapped values fit within the mapped byte span, and
/// the sink was finalized — the three invariants that make the
/// zero-copy claim (`values_copied == 0`) trustworthy.
fn validate_grid_io(io: &crate::schema::GridIoMetrics, v: &mut Vec<BoundViolation>) {
    let loc = "session.grid_io";
    if io.bytes_mapped == 0 && io.values_mapped > 0 {
        violation(
            v,
            BoundCheck::GridIoConsistent,
            loc,
            format!(
                "{} values claimed mapped with zero bytes mapped",
                io.values_mapped
            ),
        );
    }
    match io.values_mapped.checked_mul(8) {
        Some(bytes) if bytes <= io.bytes_mapped || io.values_mapped == 0 => {}
        _ => violation(
            v,
            BoundCheck::GridIoConsistent,
            loc,
            format!(
                "{} mapped values need more than the {} mapped bytes",
                io.values_mapped, io.bytes_mapped
            ),
        ),
    }
    if !io.sink_finalized {
        violation(
            v,
            BoundCheck::GridIoConsistent,
            loc,
            "sink was not finalized; tail rows may not be durable".to_string(),
        );
    }
}

/// Checks an iterative time-stepping run (Sec. 2.3 applied across T
/// self-chained steps): the executed step count stays within its budget
/// and agrees with the per-stage telemetry, the observed peak residency
/// stays within the planned T×halo budget, and a run that claims
/// convergence actually drove its final max-abs delta down to epsilon.
fn validate_iterate(
    it: &crate::schema::IterateMetrics,
    s: &crate::schema::SessionMetrics,
    v: &mut Vec<BoundViolation>,
) {
    let loc = "session.iterate";
    if it.steps == 0 || it.steps > it.max_steps {
        violation(
            v,
            BoundCheck::IterateResidency,
            loc,
            format!(
                "executed {} step(s) against a budget of {}",
                it.steps, it.max_steps
            ),
        );
    }
    if it.steps != s.stages.len() as u64 {
        violation(
            v,
            BoundCheck::IterateResidency,
            loc,
            format!(
                "{} step(s) reported but {} stage reports present",
                it.steps,
                s.stages.len()
            ),
        );
    }
    if it.step_peaks.len() as u64 != it.steps {
        violation(
            v,
            BoundCheck::IterateResidency,
            loc,
            format!(
                "{} step(s) reported but {} per-step peaks recorded",
                it.steps,
                it.step_peaks.len()
            ),
        );
    }
    if it.observed_peak > it.planned_peak {
        violation(
            v,
            BoundCheck::IterateResidency,
            loc,
            format!(
                "observed peak {} values exceeds the planned T×halo budget {}",
                it.observed_peak, it.planned_peak
            ),
        );
    }
    if it.observed_peak != s.peak_resident {
        violation(
            v,
            BoundCheck::IterateResidency,
            loc,
            format!(
                "iterate observed peak {} disagrees with the session peak {}",
                it.observed_peak, s.peak_resident
            ),
        );
    }
    if !it.epsilon.is_finite() || it.epsilon < 0.0 || !it.final_delta.is_finite() {
        violation(
            v,
            BoundCheck::Finite,
            loc,
            format!(
                "epsilon {} / final delta {} must be finite and non-negative",
                it.epsilon, it.final_delta
            ),
        );
    } else if it.converged && it.final_delta > it.epsilon {
        violation(
            v,
            BoundCheck::IterateResidency,
            loc,
            format!(
                "run claims convergence but the final delta {} exceeds epsilon {}",
                it.final_delta, it.epsilon
            ),
        );
    }
    // Step-k input conservation: the per-step peaks must be the very
    // figures the per-stage streaming reports measured — the iterate
    // section cannot claim a residency the stages did not see.
    for (k, stage) in s.stages.iter().enumerate() {
        if let (Some(sm), Some(&peak)) = (&stage.stream, it.step_peaks.get(k)) {
            if sm.peak_resident != peak {
                violation(
                    v,
                    BoundCheck::IterateResidency,
                    format!("session.iterate step {k}"),
                    format!(
                        "step peak {} disagrees with stage peak {}",
                        peak, sm.peak_resident
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Histogram;
    use crate::schema::{
        ChainMetrics, EngineMetrics, FifoMetrics, FilterMetrics, MachineMetrics, TileMetrics,
    };

    fn clean_machine() -> MachineMetrics {
        MachineMetrics {
            cycles: 140,
            outputs: 80,
            iterations: 80,
            fill_latency: 27,
            steady_ii: 1.0,
            ideal_cycles: 141,
            offchip_streams: 1,
            planned_total_buffer: 12,
            min_total_buffer: 12,
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
                        occupancy: Histogram::disabled(),
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

    #[test]
    fn clean_run_passes() {
        assert_eq!(validate_machine(&clean_machine()), Vec::new());
    }

    #[test]
    fn overfull_fifo_is_flagged() {
        let mut m = clean_machine();
        m.chains[0].fifos[0].high_water = 12;
        let v = validate_machine(&m);
        assert!(v.iter().any(|x| x.check == BoundCheck::FifoCapacitySafe));
    }

    #[test]
    fn underfull_fifo_breaks_tightness_only_when_complete() {
        let mut m = clean_machine();
        m.chains[0].fifos[0].high_water = 7;
        let v = validate_machine(&m);
        assert!(v.iter().any(|x| x.check == BoundCheck::FifoCapacityTight));
        assert!(v.iter().any(|x| x.check == BoundCheck::TotalBufferTight));
        // A truncated run must not be punished for unfilled FIFOs...
        m.outputs = 3;
        let v = validate_machine(&m);
        assert!(!v.iter().any(|x| x.check == BoundCheck::FifoCapacityTight));
        // ...but is reported as incomplete.
        assert!(v.iter().any(|x| x.check == BoundCheck::OutputsComplete));
    }

    #[test]
    fn minimum_buffer_bound_checked_for_single_stream_linear_plans() {
        let mut m = clean_machine();
        m.min_total_buffer = 11;
        let v = validate_machine(&m);
        assert!(v.iter().any(|x| x.check == BoundCheck::MinimumBuffer));
        // Multi-stream tradeoff points trade buffer for bandwidth, so
        // the single-stream minimum no longer applies.
        m.offchip_streams = 2;
        m.chains[0].inputs_streamed = 240;
        let v = validate_machine(&m);
        assert!(!v.iter().any(|x| x.check == BoundCheck::MinimumBuffer));
    }

    #[test]
    fn steady_stalls_and_cycle_bound_must_agree() {
        let mut m = clean_machine();
        m.cycles = 500; // blew the bound with no steady stalls
        let v = validate_machine(&m);
        assert!(v.iter().any(|x| x.check == BoundCheck::FullyPipelined));
        let mut m = clean_machine();
        m.chains[0].filters[0].steady_stalls = 4; // stalled yet met bound
        let v = validate_machine(&m);
        assert!(v.iter().any(|x| x.check == BoundCheck::FullyPipelined));
    }

    #[test]
    fn stream_conservation() {
        // Fewer streamed elements than outputs: some output had no tap.
        let mut m = clean_machine();
        m.chains[0].inputs_streamed = 79;
        let v = validate_machine(&m);
        assert!(v.iter().any(|x| x.check == BoundCheck::StreamConservation));
        // More than streams x |D_A|: a head re-walked its domain.
        m.chains[0].inputs_streamed = 121;
        let v = validate_machine(&m);
        assert!(v.iter().any(|x| x.check == BoundCheck::StreamConservation));
        // An early stop that still fed every output is legitimate.
        m.chains[0].inputs_streamed = 110;
        assert_eq!(validate_machine(&m), Vec::new());
    }

    #[test]
    fn non_finite_engine_numbers_are_flagged() {
        let mut report = MetricsReport::new("x");
        report.engine = Some(EngineMetrics {
            outputs: 10,
            tiles: 1,
            threads: 1,
            backend: "closure".into(),
            unroll: 1,
            datapath: "f64".into(),
            halo_elements: 12,
            elapsed_ns: 0,
            throughput: f64::INFINITY,
            per_tile: vec![TileMetrics {
                id: 0,
                outputs: 10,
                halo_elements: 12,
                sweep_rows: 0,
                fast_rows: 2,
                gather_rows: 0,
                elapsed_ns: 0,
            }],
        });
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::Finite));
        report.engine.as_mut().unwrap().throughput = 1.0;
        assert_eq!(validate_report(&report), Vec::new());
    }

    #[test]
    fn closure_backend_reporting_swept_rows_is_flagged() {
        let mut report = MetricsReport::new("x");
        report.engine = Some(EngineMetrics {
            outputs: 10,
            tiles: 1,
            threads: 1,
            backend: "closure".into(),
            unroll: 1,
            datapath: "f64".into(),
            halo_elements: 12,
            elapsed_ns: 5,
            throughput: 1.0,
            per_tile: vec![TileMetrics {
                id: 0,
                outputs: 10,
                halo_elements: 12,
                sweep_rows: 2,
                fast_rows: 0,
                gather_rows: 0,
                elapsed_ns: 5,
            }],
        });
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::BackendConsistent));
        assert!(v[0].to_string().contains("backend-consistent"), "{}", v[0]);
        // The same tallies under the compiled backend are legitimate.
        report.engine.as_mut().unwrap().backend = "compiled".into();
        assert_eq!(validate_report(&report), Vec::new());
    }

    #[test]
    fn malformed_sweep_shape_is_flagged() {
        let mut report = MetricsReport::new("x");
        report.engine = Some(EngineMetrics {
            outputs: 10,
            tiles: 1,
            threads: 1,
            backend: "compiled".into(),
            unroll: 4,
            datapath: "f32".into(),
            halo_elements: 12,
            elapsed_ns: 5,
            throughput: 1.0,
            per_tile: Vec::new(),
        });
        // An unrolled f32 compiled run is a legitimate shape.
        assert_eq!(validate_report(&report), Vec::new());
        // Unroll 0 is impossible: every dispatch makes >= 1 output.
        report.engine.as_mut().unwrap().unroll = 0;
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::SweepShape), "{v:?}");
        assert!(v[0].to_string().contains("sweep-shape"), "{}", v[0]);
        // The unrolled sweep only exists for the compiled backend.
        let e = report.engine.as_mut().unwrap();
        e.unroll = 4;
        e.backend = "closure".into();
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::SweepShape), "{v:?}");
        // An unknown datapath string is malformed telemetry.
        let e = report.engine.as_mut().unwrap();
        e.backend = "compiled".into();
        e.datapath = "f16".into();
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::SweepShape), "{v:?}");
        // The f32 datapath under the closure backend (scalar f32
        // register pass, used by cross-checks) is well-formed as long as the
        // run does not also claim unrolled dispatch.
        let e = report.engine.as_mut().unwrap();
        e.backend = "closure".into();
        e.datapath = "f32".into();
        e.unroll = 1;
        assert_eq!(validate_report(&report), Vec::new());
    }

    #[test]
    fn residency_bound_violation_is_flagged() {
        use crate::schema::StreamMetrics;
        let mut report = MetricsReport::new("x");
        report.stream = Some(StreamMetrics {
            outputs: 100,
            bands: 5,
            threads: 2,
            backend: "compiled".into(),
            unroll: 1,
            datapath: "f64".into(),
            chunk_rows: 4,
            rows_in: 12,
            values_in: 144,
            rows_out: 10,
            peak_resident: 72,
            resident_bound: 72,
            sweep_rows: 10,
            fast_rows: 0,
            gather_rows: 0,
            elapsed_ns: 1000,
            throughput: 1.0,
        });
        assert_eq!(validate_report(&report), Vec::new());
        // A closure-backend stream claiming swept rows is inconsistent.
        report.stream.as_mut().unwrap().backend = "closure".into();
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::BackendConsistent));
        report.stream.as_mut().unwrap().backend = "compiled".into();
        // Exceeding the halo-window bound is the core violation.
        report.stream.as_mut().unwrap().peak_resident = 73;
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::ResidencyBound));
        assert!(v[0].to_string().contains("residency-bound"), "{}", v[0]);
        // Non-finite throughput and empty-output inconsistencies too.
        let s = report.stream.as_mut().unwrap();
        s.peak_resident = 72;
        s.throughput = f64::NAN;
        s.rows_out = 0;
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::Finite));
        assert!(v.iter().any(|x| x.check == BoundCheck::OutputsComplete));
    }

    #[test]
    fn chain_residency_violations_are_flagged() {
        use crate::schema::{SessionMetrics, StageMetrics, StreamMetrics};
        fn stage(label: &str, outputs: u64, values_in: u64, peak: u64, bound: u64) -> StageMetrics {
            StageMetrics {
                label: label.into(),
                backend: "closure".into(),
                window_taps: 5,
                window_rows: 3,
                resident_bound: bound,
                engine: None,
                stream: Some(StreamMetrics {
                    outputs,
                    bands: 4,
                    threads: 1,
                    backend: "closure".into(),
                    unroll: 1,
                    datapath: "f64".into(),
                    chunk_rows: 1,
                    rows_in: 10,
                    values_in,
                    rows_out: 8,
                    peak_resident: peak,
                    resident_bound: bound,
                    sweep_rows: 0,
                    fast_rows: 8,
                    gather_rows: 0,
                    elapsed_ns: 100,
                    throughput: 1.0,
                }),
            }
        }
        let mut report = MetricsReport::new("chain");
        report.session = Some(SessionMetrics {
            mode: "streaming".into(),
            threads: 1,
            outputs: 320,
            peak_resident: 138,
            resident_bound: 138,
            elapsed_ns: 250,
            throughput: 1.0,
            tile_plans_built: 0,
            stages: vec![stage("s1", 396, 480, 72, 72), stage("s2", 320, 396, 66, 66)],
            iterate: None,
            grid_io: None,
        });
        assert_eq!(validate_report(&report), Vec::new());

        // Summed peak above the summed bound is the core violation.
        report.session.as_mut().unwrap().peak_resident = 139;
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::ChainResidency));
        assert!(v[0].to_string().contains("chain-residency"), "{}", v[0]);
        report.session.as_mut().unwrap().peak_resident = 138;

        // A single stage blowing its own bound is flagged with the
        // stage's position and label.
        report.session.as_mut().unwrap().stages[1]
            .stream
            .as_mut()
            .unwrap()
            .peak_resident = 67;
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::ChainResidency
            && x.location.contains("stage 1")
            && x.location.contains("s2")));
        report.session.as_mut().unwrap().stages[1]
            .stream
            .as_mut()
            .unwrap()
            .peak_resident = 66;

        // A downstream stage consuming a different value count than its
        // upstream stage produced means the hand-off leaked rows.
        report.session.as_mut().unwrap().stages[1]
            .stream
            .as_mut()
            .unwrap()
            .values_in = 395;
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::ChainResidency
            && x.detail.contains("upstream stage produced 396")));
        report.session.as_mut().unwrap().stages[1]
            .stream
            .as_mut()
            .unwrap()
            .values_in = 396;

        // Backend consistency applies per stage.
        report.session.as_mut().unwrap().stages[0]
            .stream
            .as_mut()
            .unwrap()
            .sweep_rows = 3;
        let v = validate_report(&report);
        assert!(v
            .iter()
            .any(|x| x.check == BoundCheck::BackendConsistent && x.location.contains("stage 0")));
        report.session.as_mut().unwrap().stages[0]
            .stream
            .as_mut()
            .unwrap()
            .sweep_rows = 0;

        // A stream peak above the stage's *declared* per-stage bound is
        // flagged even when the stream's own runtime bound kept up.
        report.session.as_mut().unwrap().stages[1].resident_bound = 60;
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::ChainResidency
            && x.detail.contains("declared per-stage bound 60")));
        report.session.as_mut().unwrap().stages[1].resident_bound = 66;

        // A stage whose declared backend disagrees with what its
        // sub-report actually ran is a backend-consistency violation.
        report.session.as_mut().unwrap().stages[0].backend = "compiled".into();
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::BackendConsistent
            && x.location.contains("stage 0")
            && x.detail.contains("stream report ran")));
        report.session.as_mut().unwrap().stages[0].backend = "closure".into();

        // A stage cannot be busy for longer than the whole session ran.
        report.session.as_mut().unwrap().stages[1]
            .stream
            .as_mut()
            .unwrap()
            .elapsed_ns = 251;
        let v = validate_report(&report);
        assert!(v
            .iter()
            .any(|x| x.check == BoundCheck::StageTiming && x.location.contains("stage 1")));
        assert!(v[0].to_string().contains("stage-timing"), "{}", v[0]);
        report.session.as_mut().unwrap().stages[1]
            .stream
            .as_mut()
            .unwrap()
            .elapsed_ns = 250;
        assert_eq!(validate_report(&report), Vec::new());

        // Non-finite session throughput is rejected like any other.
        report.session.as_mut().unwrap().throughput = f64::NAN;
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::Finite));
    }

    #[test]
    fn committed_bench_reports_keep_stage_times_within_their_session() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut sessions = 0;
        for entry in std::fs::read_dir(root).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let Ok(report) = MetricsReport::parse(&std::fs::read_to_string(&path).unwrap()) else {
                continue; // a flat bench record, not a telemetry report
            };
            sessions += usize::from(report.session.is_some());
            let v = validate_report(&report);
            assert!(
                !v.iter().any(|x| x.check == BoundCheck::StageTiming),
                "{name}: {v:?}"
            );
        }
        assert!(sessions > 0, "no committed report carries a session");
    }

    #[test]
    fn iterate_residency_violations_are_flagged() {
        use crate::schema::{IterateMetrics, SessionMetrics, StageMetrics, StreamMetrics};
        fn step(label: &str, outputs: u64, values_in: u64, peak: u64) -> StageMetrics {
            StageMetrics {
                label: label.into(),
                backend: "closure".into(),
                window_taps: 5,
                window_rows: 3,
                resident_bound: peak,
                engine: None,
                stream: Some(StreamMetrics {
                    outputs,
                    bands: 4,
                    threads: 1,
                    backend: "closure".into(),
                    unroll: 1,
                    datapath: "f64".into(),
                    chunk_rows: 1,
                    rows_in: 10,
                    values_in,
                    rows_out: 8,
                    peak_resident: peak,
                    resident_bound: peak,
                    sweep_rows: 0,
                    fast_rows: 8,
                    gather_rows: 0,
                    elapsed_ns: 100,
                    throughput: 1.0,
                }),
            }
        }
        let mut report = MetricsReport::new("iterate");
        report.session = Some(SessionMetrics {
            mode: "streaming".into(),
            threads: 1,
            outputs: 320,
            peak_resident: 138,
            resident_bound: 138,
            elapsed_ns: 250,
            throughput: 1.0,
            tile_plans_built: 0,
            stages: vec![step("j@t1", 396, 480, 72), step("j@t2", 320, 396, 66)],
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
        });
        assert_eq!(validate_report(&report), Vec::new());
        fn it(r: &mut MetricsReport) -> &mut IterateMetrics {
            r.session.as_mut().unwrap().iterate.as_mut().unwrap()
        }

        // Observed peak above the planned T×halo budget is the core
        // violation.
        it(&mut report).observed_peak = 139;
        it(&mut report).planned_peak = 138;
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::IterateResidency));
        assert!(v[0].to_string().contains("iterate-residency"), "{}", v[0]);
        it(&mut report).observed_peak = 138;

        // Step count must stay within the budget and match the stages.
        it(&mut report).max_steps = 1;
        let v = validate_report(&report);
        assert!(v
            .iter()
            .any(|x| x.check == BoundCheck::IterateResidency && x.detail.contains("budget")));
        it(&mut report).max_steps = 2;
        it(&mut report).steps = 3;
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.detail.contains("stage reports present")));
        assert!(v.iter().any(|x| x.detail.contains("per-step peaks")));
        it(&mut report).steps = 2;

        // Claimed convergence needs the delta at or below epsilon.
        it(&mut report).converged = true;
        it(&mut report).epsilon = 1e-6;
        it(&mut report).final_delta = 1e-3;
        let v = validate_report(&report);
        assert!(v
            .iter()
            .any(|x| x.check == BoundCheck::IterateResidency
                && x.detail.contains("claims convergence")));
        it(&mut report).final_delta = 1e-9;
        assert_eq!(validate_report(&report), Vec::new());

        // Step-k conservation: step peaks are the stage peaks.
        it(&mut report).step_peaks = vec![72, 65];
        let v = validate_report(&report);
        assert!(v
            .iter()
            .any(|x| x.check == BoundCheck::IterateResidency && x.location.contains("step 1")));
        it(&mut report).step_peaks = vec![72, 66];

        // A negative epsilon can never be a meaningful threshold.
        it(&mut report).epsilon = -1.0;
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::Finite));
    }

    #[test]
    fn in_core_session_stage_backend_is_checked() {
        use crate::schema::{SessionMetrics, StageMetrics};
        let mut report = MetricsReport::new("chain");
        report.session = Some(SessionMetrics {
            mode: "incore".into(),
            threads: 1,
            outputs: 10,
            peak_resident: 12,
            resident_bound: 12,
            elapsed_ns: 50,
            throughput: 1.0,
            tile_plans_built: 0,
            iterate: None,
            grid_io: None,
            stages: vec![StageMetrics {
                label: "s1".into(),
                backend: "compiled".into(),
                window_taps: 5,
                window_rows: 3,
                resident_bound: 12,
                engine: Some(EngineMetrics {
                    outputs: 10,
                    tiles: 1,
                    threads: 1,
                    backend: "closure".into(),
                    unroll: 1,
                    datapath: "f64".into(),
                    halo_elements: 12,
                    elapsed_ns: 50,
                    throughput: 1.0,
                    per_tile: vec![TileMetrics {
                        id: 0,
                        outputs: 10,
                        halo_elements: 12,
                        sweep_rows: 4,
                        fast_rows: 0,
                        gather_rows: 0,
                        elapsed_ns: 50,
                    }],
                }),
                stream: None,
            }],
        });
        let v = validate_report(&report);
        assert!(v
            .iter()
            .any(|x| x.check == BoundCheck::BackendConsistent && x.location.contains("stage 0")));
        report.session.as_mut().unwrap().stages[0]
            .engine
            .as_mut()
            .unwrap()
            .backend = "compiled".into();
        assert_eq!(validate_report(&report), Vec::new());
    }

    #[test]
    fn tile_output_sum_must_match_run_total() {
        let mut report = MetricsReport::new("x");
        report.engine = Some(EngineMetrics {
            outputs: 11,
            tiles: 1,
            threads: 1,
            backend: "closure".into(),
            unroll: 1,
            datapath: "f64".into(),
            halo_elements: 12,
            elapsed_ns: 5,
            throughput: 1.0,
            per_tile: vec![TileMetrics {
                id: 0,
                outputs: 10,
                halo_elements: 12,
                sweep_rows: 0,
                fast_rows: 2,
                gather_rows: 0,
                elapsed_ns: 5,
            }],
        });
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::OutputsComplete));
    }

    #[test]
    fn band_outlasting_its_engine_run_is_flagged() {
        use crate::schema::{SessionMetrics, StageMetrics};
        // Two bands, each spanning its row runs: the second band's span
        // reaches past the run that contains it.
        let band = |id: usize, elapsed_ns: u64| TileMetrics {
            id,
            outputs: 5,
            halo_elements: 8,
            sweep_rows: 0,
            fast_rows: 1,
            gather_rows: 0,
            elapsed_ns,
        };
        let engine = EngineMetrics {
            outputs: 10,
            tiles: 2,
            threads: 2,
            backend: "closure".into(),
            unroll: 1,
            datapath: "f64".into(),
            halo_elements: 16,
            elapsed_ns: 40,
            throughput: 1.0,
            per_tile: vec![band(0, 40), band(1, 41)],
        };
        let mut report = MetricsReport::new("x");
        report.engine = Some(engine.clone());
        report.session = Some(SessionMetrics {
            mode: "tiled".into(),
            threads: 2,
            outputs: 10,
            peak_resident: 16,
            resident_bound: 16,
            elapsed_ns: 50,
            throughput: 1.0,
            tile_plans_built: 0,
            iterate: None,
            grid_io: None,
            stages: vec![StageMetrics {
                label: "s1".into(),
                backend: "closure".into(),
                window_taps: 5,
                window_rows: 3,
                resident_bound: 16,
                engine: Some(engine),
                stream: None,
            }],
        });
        let v = validate_report(&report);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(
            |x| x.check == BoundCheck::StageTiming && x.detail.contains("band 1 elapsed 41 ns")
        ));
        assert!(v.iter().any(|x| x.location == "engine"));
        assert!(v.iter().any(|x| x.location.contains("stage 0")));

        report.engine.as_mut().unwrap().per_tile[1].elapsed_ns = 40;
        report.session.as_mut().unwrap().stages[0]
            .engine
            .as_mut()
            .unwrap()
            .per_tile[1]
            .elapsed_ns = 40;
        assert_eq!(validate_report(&report), Vec::new());
    }

    fn clean_service() -> crate::schema::ServiceMetrics {
        crate::schema::ServiceMetrics {
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
    fn clean_service_report_validates() {
        let mut report = MetricsReport::new("service");
        report.service = Some(clean_service());
        assert_eq!(validate_report(&report), vec![]);
    }

    #[test]
    fn service_peak_over_admitted_bound_is_flagged() {
        let mut report = MetricsReport::new("service");
        let mut s = clean_service();
        s.peak_resident = s.admitted_bound_peak + 1;
        report.service = Some(s);
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::ServiceResidency));
    }

    #[test]
    fn service_admission_over_budget_is_flagged() {
        let mut report = MetricsReport::new("service");
        let mut s = clean_service();
        s.admitted_bound_peak = s.memory_budget + 1;
        s.peak_resident = s.memory_budget + 1;
        report.service = Some(s);
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::ServiceResidency));
        // An unbudgeted service (0 = unlimited) skips only that check.
        let mut s = clean_service();
        s.memory_budget = 0;
        let mut report = MetricsReport::new("service");
        report.service = Some(s);
        assert_eq!(validate_report(&report), vec![]);
    }

    #[test]
    fn service_output_conservation_is_checked() {
        let mut report = MetricsReport::new("service");
        let mut s = clean_service();
        s.outputs_produced = s.outputs_expected - 1;
        report.service = Some(s);
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::ServiceResidency));
        // ...but a batch with failed jobs may legitimately come up short.
        let mut s = clean_service();
        s.outputs_produced = s.outputs_expected - 1;
        s.jobs_failed = 1;
        let mut report = MetricsReport::new("service");
        report.service = Some(s);
        assert_eq!(validate_report(&report), vec![]);
    }

    #[test]
    fn service_admission_arithmetic_is_checked() {
        let mut report = MetricsReport::new("service");
        let mut s = clean_service();
        s.jobs_rejected = 0; // 10 admitted + 0 rejected != 12 submitted
        report.service = Some(s);
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::ServiceResidency));
    }

    #[test]
    fn service_throughput_must_be_finite() {
        let mut report = MetricsReport::new("service");
        let mut s = clean_service();
        s.throughput = f64::INFINITY;
        report.service = Some(s);
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::Finite));
    }
}
