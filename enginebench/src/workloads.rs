//! The three workloads: what each op does, how it is checked, and which
//! per-layer samples it records. README.md says why each exists.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use stencil_core::MemorySystemPlan;
use stencil_engine::{
    pack_grid, CompiledKernel, EngineError, ExecMode, InputGrid, JobRequest, MappedGrid, RunReport,
    ServiceConfig, ServiceFront, ServiceOutcome, Session, SessionKernel, SessionReport,
    ShardPolicy, SliceSource, Submission, VecSink, DEFAULT_UNROLL,
};
use stencil_kernels::{blur3x3, denoise, jacobi_2d, sobel, Benchmark, ComputeFn, KernelStage};
use stencil_polyhedral::DomainIndex;
use stencil_telemetry::{validate_report, MetricsReport};

use crate::stats::Rng;
use crate::trace::{timed, TimedSink, TimedSource, Tracer};
use crate::{measure, ms, out_dir, Computed, Ctx, Layers, Measured, Op, Res, Setup, SETUP_REPS};

/// Band height of every streaming run, in rows.
const CHUNK_ROWS: u64 = 64;

/// What a caller builds once per kernel and grid, and reuses.
pub struct Kernel {
    bench: Benchmark,
    plan: MemorySystemPlan,
    index: DomainIndex,
    compiled: CompiledKernel,
}

impl Kernel {
    /// Plans, indexes and compiles `bench` on `extents`, timing each
    /// call into its layer.
    fn set_up(setup: &mut Setup, bench: &Benchmark, extents: &[i64]) -> Res<Self> {
        let plan = setup.time("core.plan_generate_ms", || {
            MemorySystemPlan::generate(&bench.spec_for(extents)?)
        })?;
        let index = setup.time("polyhedral.index_ms", || plan.input_domain().index())?;
        let compiled = setup
            .time("compile.kernel_ms", || CompiledKernel::for_benchmark(bench))?
            .ok_or_else(|| format!("{} has no kernel expression", bench.name()))?;
        Ok(Self {
            bench: bench.clone(),
            plan,
            index,
            compiled,
        })
    }

    fn input_len(&self) -> u64 {
        self.index.len()
    }

    fn taps(&self) -> u64 {
        self.bench.window().len() as u64
    }

    /// The outputs of the closure backend on `values`: the reference
    /// every compiled, streamed or served result must match bit for bit.
    fn reference(&self, values: &[f64], threads: usize) -> Res<Vec<f64>> {
        closure_run(
            &self.plan,
            &self.index,
            self.bench.compute_fn(),
            values,
            threads,
        )
    }
}

fn closure_run(
    plan: &MemorySystemPlan,
    index: &DomainIndex,
    compute: ComputeFn,
    values: &[f64],
    threads: usize,
) -> Res<Vec<f64>> {
    let run = Session::new(plan)
        .kernel(SessionKernel::Closure(&compute))
        .threads(threads)
        .run(&InputGrid::new(index, values)?)?;
    Ok(run.outputs)
}

/// Fails unless `got` equals `want` bit for bit.
pub fn same_bits(got: &[f64], want: &[f64]) -> Res<()> {
    if got.len() != want.len() {
        return Err(format!(
            "{} outputs where the reference has {}",
            got.len(),
            want.len()
        )
        .into());
    }
    match got
        .iter()
        .zip(want)
        .position(|(a, b)| a.to_bits() != b.to_bits())
    {
        Some(i) => Err(format!(
            "output {i} is {} where the reference is {}",
            got[i], want[i]
        )
        .into()),
        None => Ok(()),
    }
}

/// Runs the telemetry validator over `reports`, outside the op timer;
/// any violation fails the op.
fn validate(tr: Option<&Tracer>, layers: &mut Layers, reports: &[MetricsReport]) -> Res<()> {
    let (violations, took) = timed(tr, "telemetry.validate", || {
        reports.iter().flat_map(validate_report).collect::<Vec<_>>()
    });
    layers.median("telemetry.validate_ms", ms(took));
    layers.mean("telemetry.violations", violations.len() as f64);
    match violations.first() {
        None => Ok(()),
        Some(v) => Err(format!("{} telemetry violation(s), first: {v}", violations.len()).into()),
    }
}

fn session_report(name: &str, report: &SessionReport) -> MetricsReport {
    let mut m = MetricsReport::new(name);
    m.session = Some(report.metrics());
    m
}

// ---------------------------------------------------------------- incore_2d

/// One in-core pass of DENOISE 768x1024, then one of SOBEL 1024x1024,
/// compiled backend at `DEFAULT_UNROLL`, f64.
pub fn incore_2d(ctx: &Ctx) -> Res<Measured> {
    let benches = [denoise(), sobel()];
    let mut setup = Setup::default();
    let mut kernels = Vec::new();
    for _ in 0..SETUP_REPS {
        setup.start_rep();
        kernels = benches
            .iter()
            .map(|b| Kernel::set_up(&mut setup, b, b.extents()))
            .collect::<Res<Vec<_>>>()?;
        for k in &kernels {
            setup.time("session.build_ms", || incore_session(k, ctx.threads));
        }
    }
    let mut rng = Rng::new(ctx.seed);
    let inputs: Vec<Vec<f64>> = kernels.iter().map(|k| rng.values(k.input_len())).collect();
    let op = IncoreOp::new(&kernels, &inputs, ctx.threads)?;
    let computed = op.computed();
    Ok(measure(ctx, op, setup, computed))
}

fn incore_session(k: &Kernel, threads: usize) -> Session<'_> {
    Session::new(&k.plan)
        .kernel(SessionKernel::Compiled(&k.compiled))
        .unroll(DEFAULT_UNROLL)
        .threads(threads)
        .telemetry(k.bench.name())
}

struct IncorePass<'a> {
    kernel: &'a Kernel,
    session: Session<'a>,
    grid: InputGrid<'a>,
    reference: Vec<f64>,
    run_metric: &'static str,
}

pub struct IncoreOp<'a> {
    passes: Vec<IncorePass<'a>>,
}

impl<'a> IncoreOp<'a> {
    /// Builds the sessions and computes the references (untimed).
    pub fn new(kernels: &'a [Kernel], inputs: &'a [Vec<f64>], threads: usize) -> Res<Self> {
        let passes = kernels
            .iter()
            .zip(inputs)
            .map(|(k, values)| {
                Ok(IncorePass {
                    kernel: k,
                    session: incore_session(k, threads),
                    grid: InputGrid::new(&k.index, values)?,
                    reference: k.reference(values, threads)?,
                    run_metric: match k.bench.name() {
                        "SOBEL" => "rowexec.run_ms.sobel",
                        _ => "rowexec.run_ms.denoise",
                    },
                })
            })
            .collect::<Res<Vec<_>>>()?;
        Ok(Self { passes })
    }

    fn computed(&self) -> Computed {
        let mut c = Computed::default();
        for p in &self.passes {
            c.in_values += p.kernel.input_len();
            c.outputs += p.reference.len() as u64;
            c.taps += p.reference.len() as u64 * p.kernel.taps();
        }
        c
    }
}

impl Op for IncoreOp<'_> {
    type Out = Vec<stencil_engine::SessionRun>;

    fn run(&mut self, tr: Option<&Tracer>) -> Res<Self::Out> {
        let mut runs = Vec::with_capacity(self.passes.len());
        for p in &self.passes {
            runs.push(timed(tr, "session.run", || p.session.run(&p.grid)).0?);
        }
        Ok(runs)
    }

    fn check(&mut self, runs: Self::Out, tr: Option<&Tracer>, layers: &mut Layers) -> Res<()> {
        let mut reports = Vec::with_capacity(runs.len());
        let (mut busy, mut dispatch, mut gather, mut halo, mut points, mut built) =
            (0.0, 0.0, 0u64, 0u64, 0u64, 0u64);
        for (p, run) in self.passes.iter().zip(&runs) {
            same_bits(&run.outputs, &p.reference)?;
            let engine: &RunReport = run.report.stages[0]
                .engine
                .as_ref()
                .ok_or("in-core session returned no engine report")?;
            let bands: Vec<f64> = engine.per_tile.iter().map(|t| ms(t.elapsed)).collect();
            let slowest = bands.iter().copied().fold(0.0, f64::max);
            let mean = bands.iter().sum::<f64>() / bands.len().max(1) as f64;
            layers.median(p.run_metric, ms(engine.elapsed));
            layers.median(
                "rowexec.band_skew",
                if mean > 0.0 { slowest / mean } else { 1.0 },
            );
            busy += bands.iter().sum::<f64>();
            dispatch += ms(engine.elapsed) - slowest;
            gather += engine.per_tile.iter().map(|t| t.gather_rows).sum::<u64>();
            halo += engine.halo_elements;
            points += p.kernel.input_len();
            built += run.report.tile_plans_built;
            reports.push(session_report(p.kernel.bench.name(), &run.report));
        }
        layers.median("rowexec.band_busy_ms", busy);
        layers.median("rowexec.dispatch_ms", dispatch);
        layers.mean("rowexec.gather_rows", gather as f64);
        layers.median("rowexec.halo_fetch_ratio", halo as f64 / points as f64);
        layers.mean("session.tile_plans_built", built as f64);
        validate(tr, layers, &reports)
    }
}

// ------------------------------------------------------------- stream_chain

/// The heterogeneous chain DENOISE -> BLUR3X3 streamed over 768x1024 in
/// 64-row chunks, from a copying in-memory source into a collecting
/// sink.
pub fn stream_chain(ctx: &Ctx) -> Res<Measured> {
    let bench = denoise();
    let blur = blur3x3();
    let blur_stage = blur.stage();
    let mut setup = Setup::default();
    let mut kernel = None;
    for _ in 0..SETUP_REPS {
        setup.start_rep();
        let k = Kernel::set_up(&mut setup, &bench, bench.extents())?;
        setup.time("session.build_ms", || {
            chain_session(&k, &blur_stage, ctx.threads)
        })?;
        kernel = Some(k);
    }
    let k = kernel.ok_or("no set-up repetitions")?;
    // The index sizes the input: the source must cover the input domain.
    let input = Rng::new(ctx.seed).values(k.input_len());

    // Reference: the two stages one after the other through a fully
    // materialised intermediate grid, closure backend.
    let mid = k.reference(&input, ctx.threads)?;
    let blur_plan = k.plan.chain_next(blur_stage.name(), blur_stage.window())?;
    let blur_index = blur_plan.input_domain().index()?;
    let golden = closure_run(
        &blur_plan,
        &blur_index,
        blur.compute_fn(),
        &mid,
        ctx.threads,
    )?;

    let computed = Computed {
        in_values: k.input_len(),
        outputs: golden.len() as u64,
        taps: mid.len() as u64 * k.taps() + golden.len() as u64 * blur.window().len() as u64,
    };
    let op = ChainOp {
        session: chain_session(&k, &blur_stage, ctx.threads)?,
        input: &input,
        golden: &golden,
    };
    Ok(measure(ctx, op, setup, computed))
}

fn chain_session<'a>(
    k: &'a Kernel,
    next: &KernelStage,
    threads: usize,
) -> Result<Session<'a>, EngineError> {
    Ok(Session::new(&k.plan)
        .kernel(SessionKernel::Compiled(&k.compiled))
        .mode(ExecMode::Streaming {
            chunk_rows: Some(CHUNK_ROWS),
        })
        .threads(threads)
        .telemetry("stream_chain")
        .then(next)?
        .stage_unroll(DEFAULT_UNROLL))
}

struct ChainOp<'a> {
    session: Session<'a>,
    input: &'a [f64],
    golden: &'a [f64],
}

/// Endpoint times of one traced streaming run.
struct Endpoints {
    wall: Duration,
    source: Duration,
    sink: Duration,
    source_calls: u64,
    sink_calls: u64,
}

struct ChainOut {
    report: SessionReport,
    values: Vec<f64>,
    endpoints: Option<Endpoints>,
}

/// Per-stage residency metric names, pipeline order.
const STAGE_PEAKS: [(&str, &str); 2] = [
    (
        "stream.peak_resident.denoise",
        "stream.resident_bound.denoise",
    ),
    (
        "stream.peak_resident.blur3x3",
        "stream.resident_bound.blur3x3",
    ),
];

impl Op for ChainOp<'_> {
    type Out = ChainOut;

    fn run(&mut self, tr: Option<&Tracer>) -> Res<ChainOut> {
        let Some(t) = tr else {
            let mut sink = VecSink::new();
            let report = self
                .session
                .run_streaming(&mut SliceSource::new(self.input), &mut sink)?;
            return Ok(ChainOut {
                report,
                values: sink.values,
                endpoints: None,
            });
        };
        let mut source = TimedSource::new(SliceSource::new(self.input), t);
        let mut sink = TimedSink::new(VecSink::new(), t);
        let (report, wall) = timed(tr, "session.run_streaming", || {
            self.session.run_streaming(&mut source, &mut sink)
        });
        Ok(ChainOut {
            report: report?,
            endpoints: Some(Endpoints {
                wall,
                source: source.busy,
                sink: sink.busy,
                source_calls: source.calls,
                sink_calls: sink.calls,
            }),
            values: sink.inner.values,
        })
    }

    fn check(&mut self, out: ChainOut, tr: Option<&Tracer>, layers: &mut Layers) -> Res<()> {
        same_bits(&out.values, self.golden)?;
        let r = &out.report;
        if !r.within_residency_bound() {
            return Err(format!(
                "peak residency {} exceeds the planned bound {}",
                r.peak_resident, r.resident_bound
            )
            .into());
        }
        let mut values_in = 0u64;
        for (stage, (peak, bound)) in r.stages.iter().zip(STAGE_PEAKS) {
            let s = stage
                .stream
                .as_ref()
                .ok_or("streaming stage without a stream report")?;
            values_in += s.values_in;
            layers.median(peak, s.peak_resident as f64);
            layers.median(bound, s.resident_bound as f64);
        }
        layers.median(
            "stream.values_in_per_output",
            values_in as f64 / r.outputs() as f64,
        );
        layers.median("stream.peak_resident", r.peak_resident as f64);
        layers.median("stream.resident_bound", r.resident_bound as f64);
        layers.mean("session.tile_plans_built", r.tile_plans_built as f64);
        if let Some(e) = &out.endpoints {
            layers.median("stream.source_ms", ms(e.source));
            layers.median("stream.sink_ms", ms(e.sink));
            layers.median("stream.engine_ms", ms(e.wall) - ms(e.source) - ms(e.sink));
            layers.mean("stream.source_calls", e.source_calls as f64);
            layers.mean("stream.sink_calls", e.sink_calls as f64);
        }
        validate(tr, layers, &[session_report("stream_chain", r)])
    }
}

// ---------------------------------------------------------------- serve_mix

/// One job shape of the serve mix.
struct Shape {
    bench: Benchmark,
    extents: [i64; 2],
    mode: ExecMode,
    shards: ShardPolicy,
    /// Read from the packed `.sgrid` file rather than memory.
    mapped: bool,
    /// Jobs of this shape per burst.
    count: usize,
}

fn shapes() -> [Shape; 3] {
    [
        Shape {
            bench: denoise(),
            extents: [768, 1024],
            mode: ExecMode::InCore,
            shards: ShardPolicy::Auto,
            mapped: false,
            count: 2,
        },
        Shape {
            bench: blur3x3(),
            extents: [768, 1024],
            mode: ExecMode::Streaming {
                chunk_rows: Some(CHUNK_ROWS),
            },
            shards: ShardPolicy::Whole,
            mapped: true,
            count: 2,
        },
        Shape {
            bench: jacobi_2d(),
            extents: [128, 128],
            mode: ExecMode::InCore,
            shards: ShardPolicy::Whole,
            mapped: false,
            count: 8,
        },
    ]
}

/// The burst's job order, one shape index per job, shuffled by `rng`.
pub fn job_order(rng: &mut Rng, counts: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(shape, &n)| std::iter::repeat_n(shape, n))
        .collect();
    rng.shuffle(&mut order);
    order
}

/// Removes the packed input file when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Caps glibc's malloc arenas at the thread count. Every burst starts a
/// fresh worker pool only because `finish` is the one way to collect
/// results, and each fresh thread may land on a new arena that keeps its
/// freed pages: under the default cap (eight arenas per core) the peak
/// RSS of identical 30 s runs ranged from 128 to 136 MB. With the cap it
/// stays between 97 and 102 MB. The other workloads keep the default.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn cap_malloc_arenas(threads: usize) {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only changes an allocator tunable, and it runs
    // before this process starts any thread.
    unsafe {
        mallopt(M_ARENA_MAX, i32::try_from(threads).unwrap_or(i32::MAX));
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn cap_malloc_arenas(_threads: usize) {}

/// A burst of twelve seeded-order jobs through a fresh `ServiceFront`.
pub fn serve_mix(ctx: &Ctx) -> Res<Measured> {
    cap_malloc_arenas(ctx.threads);
    let shapes = shapes();
    let mut rng = Rng::new(ctx.seed);
    let inputs: Vec<Vec<f64>> = shapes
        .iter()
        .map(|s| rng.values(s.extents.iter().product::<i64>() as u64))
        .collect();
    let grid_path = Scratch(out_dir()?.join(format!("serve_input_{}.sgrid", std::process::id())));
    let mapped = shapes
        .iter()
        .position(|s| s.mapped)
        .ok_or("no mapped shape")?;

    // The per-shape work a plan-cache miss costs, plus packing the file.
    let mut setup = Setup::default();
    let mut kernels = Vec::new();
    for _ in 0..SETUP_REPS {
        setup.start_rep();
        kernels = shapes
            .iter()
            .map(|s| Kernel::set_up(&mut setup, &s.bench, &s.extents))
            .collect::<Res<Vec<_>>>()?;
        for k in &kernels {
            setup.time("session.build_ms", || {
                Session::build(&k.plan, &k.bench.stage())
            })?;
        }
        let extents = shapes[mapped].extents.map(|e| e as u64);
        setup.time("format.pack_ms", || {
            pack_grid(&grid_path.0, &extents, &inputs[mapped])
        })?;
    }
    // Each shape is checked against one whole-grid session on one thread.
    let references = kernels
        .iter()
        .zip(&inputs)
        .map(|(k, v)| k.reference(v, 1))
        .collect::<Res<Vec<_>>>()?;
    let counts: Vec<usize> = shapes.iter().map(|s| s.count).collect();
    let mut computed = Computed::default();
    for ((k, reference), &n) in kernels.iter().zip(&references).zip(&counts) {
        computed.in_values += n as u64 * k.input_len();
        computed.outputs += (n * reference.len()) as u64;
        computed.taps += (n * reference.len()) as u64 * k.taps();
    }
    let requests = shapes
        .iter()
        .zip(inputs)
        .map(|(s, v)| JobRequest {
            benchmark: s.bench.clone(),
            extents: Some(s.extents.to_vec()),
            mode: s.mode,
            shards: s.shards,
            input: Arc::new(v).into(),
        })
        .collect();
    let op = ServeOp {
        cfg: ServiceConfig {
            workers: ctx.threads,
            queue_depth: 8,
            // About three large-job bounds: DENOISE in core holds its
            // whole input grid.
            memory_budget: 3 * kernels[0].input_len(),
            session_threads: 1,
        },
        requests,
        mapped,
        grid_path: &grid_path.0,
        references,
        counts,
        rng,
    };
    Ok(measure(ctx, op, setup, computed))
}

struct ServeOp<'a> {
    cfg: ServiceConfig,
    /// One request per shape; the mapped shape's input is replaced by
    /// the file opened in each burst.
    requests: Vec<JobRequest>,
    mapped: usize,
    grid_path: &'a Path,
    references: Vec<Vec<f64>>,
    counts: Vec<usize>,
    rng: Rng,
}

/// Resubmissions of one job before the op gives up on it.
const MAX_REJECTIONS: usize = 10_000;

struct Burst {
    outcome: ServiceOutcome,
    /// `(job id, shape)` of every admitted job.
    admitted: Vec<(usize, usize)>,
    submit_us: Vec<f64>,
    rejections: usize,
    wait: Duration,
    open: Duration,
    drain: Duration,
}

impl Op for ServeOp<'_> {
    type Out = Burst;

    fn run(&mut self, tr: Option<&Tracer>) -> Res<Burst> {
        let order = job_order(&mut self.rng, &self.counts);
        let (front, _) = timed(tr, "serve.front_new", || {
            ServiceFront::new(self.cfg.clone())
        });
        let (grid, open) = timed(tr, "format.open", || MappedGrid::open(self.grid_path));
        let mut mapped_req = self.requests[self.mapped].clone();
        mapped_req.input = grid?.into();
        let mut admitted = Vec::with_capacity(order.len());
        let mut submit_us = Vec::with_capacity(order.len() + 4);
        let (mut rejections, mut wait) = (0, Duration::ZERO);
        for shape in order {
            let req = if shape == self.mapped {
                &mapped_req
            } else {
                &self.requests[shape]
            };
            loop {
                let (submitted, took) = timed(tr, "serve.submit", || front.submit(req));
                submit_us.push(took.as_secs_f64() * 1e6);
                match submitted? {
                    Submission::Admitted(id) => {
                        admitted.push((id, shape));
                        break;
                    }
                    Submission::Rejected(r) => {
                        rejections += 1;
                        if rejections > MAX_REJECTIONS {
                            return Err("a job was rejected too often to finish the burst".into());
                        }
                        let ((), waited) =
                            timed(tr, "serve.retry_wait", || std::thread::sleep(r.retry_after));
                        wait += waited;
                    }
                }
            }
        }
        let (outcome, drain) = timed(tr, "serve.finish", || front.finish());
        Ok(Burst {
            outcome,
            admitted,
            submit_us,
            rejections,
            wait,
            open,
            drain,
        })
    }

    fn check(&mut self, b: Burst, tr: Option<&Tracer>, layers: &mut Layers) -> Res<()> {
        for &(id, shape) in &b.admitted {
            let job = b
                .outcome
                .jobs
                .get(id)
                .ok_or("admitted job missing from the outcome")?;
            if let Some(e) = &job.error {
                return Err(format!("job {id} ({}) failed: {e}", job.label).into());
            }
            same_bits(&job.outputs, &self.references[shape])
                .map_err(|e| format!("job {id} ({}): {e}", job.label))?;
        }
        let m = &b.outcome.metrics;
        let jobs = b.admitted.len() as f64;
        for us in &b.submit_us {
            layers.median("serve.submit_us_p50", *us);
        }
        layers.mean("serve.rejections_per_job", b.rejections as f64 / jobs);
        layers.median("serve.retry_wait_ms", ms(b.wait));
        layers.median("serve.drain_ms", ms(b.drain));
        let lookups = (m.plan_cache_hits + m.plan_cache_misses).max(1) as f64;
        layers.mean(
            "serve.plan_cache_hit_ratio",
            m.plan_cache_hits as f64 / lookups,
        );
        layers.mean("serve.shards_per_job", m.shards_executed as f64 / jobs);
        layers.median("serve.peak_resident", m.peak_resident as f64);
        layers.median("format.open_ms", ms(b.open));
        layers.mean("session.tile_plans_built", m.tile_plans_built as f64);
        validate(tr, layers, &[b.outcome.report("serve_mix")])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tally;

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_job_order() {
        let counts = [2, 2, 8];
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            let values = rng.values(4096);
            let orders: Vec<Vec<usize>> = (0..5).map(|_| job_order(&mut rng, &counts)).collect();
            (values, orders)
        };
        let (values, orders) = draw(7);
        assert_eq!(draw(7), (values.clone(), orders.clone()));
        let (other_values, other_orders) = draw(8);
        assert_ne!(values, other_values);
        assert_ne!(orders, other_orders);
        for order in &orders {
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, [0, 0, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2]);
        }
    }

    #[test]
    fn a_corrupted_output_counts_as_a_failed_op() {
        let mut setup = Setup::default();
        setup.start_rep();
        let bench = denoise();
        let kernels = vec![Kernel::set_up(&mut setup, &bench, &[24, 32]).expect("set up")];
        let inputs = vec![Rng::new(3).values(kernels[0].input_len())];
        let mut op = IncoreOp::new(&kernels, &inputs, 2).expect("op");
        let mut tally = Tally::default();

        let runs = op.run(None).expect("run");
        tally.record(
            Duration::ZERO,
            1,
            op.check(runs, None, &mut Layers::default()),
        );
        assert_eq!((tally.attempted, tally.failed), (1, 0));

        let mut runs = op.run(None).expect("run");
        let v = &mut runs[0].outputs[5];
        *v = f64::from_bits(v.to_bits() ^ 1);
        tally.record(
            Duration::ZERO,
            1,
            op.check(runs, None, &mut Layers::default()),
        );
        assert_eq!((tally.attempted, tally.failed), (2, 1));
    }
}
