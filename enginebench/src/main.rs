//! End-to-end and per-layer benchmark of the `stencil-engine` hot paths.
//!
//! ```text
//! enginebench --workload <incore_2d|stream_chain|serve_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run generates its inputs from the seed, computes references
//! with the closure backend, times the program's own set-up calls
//! several times, then runs a closed loop of ops for `--seconds`. Every
//! op is checked: a typed error, an output that is not bit-identical to
//! its reference, a telemetry validator violation or a failed serve job
//! counts it as failed, and it is never retried. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs half the time untraced and half
//! with spans around every call into the engine, and reports the
//! per-layer metrics. The last stdout line is one JSON object. See
//! README.md for why each workload exists.

mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::error::Error;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::median;
use trace::{timed, Tracer};

pub type Res<T> = Result<T, Box<dyn Error>>;

/// `(name, unit)` of every end-to-end metric, as `BENCHMARK.json` lists
/// them.
const END_TO_END: [(&str, &str); 5] = [
    ("throughput_melem_s", "Melem/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, as `BENCHMARK.json` lists
/// them. A layer a workload never calls reports 0.
const PER_LAYER: [(&str, &str); 42] = [
    ("core.plan_generate_ms", "ms"),
    ("polyhedral.index_ms", "ms"),
    ("compile.kernel_ms", "ms"),
    ("session.build_ms", "ms"),
    ("format.pack_ms", "ms"),
    ("session.tile_plans_built", "count"),
    ("rowexec.run_ms.denoise", "ms"),
    ("rowexec.run_ms.sobel", "ms"),
    ("rowexec.band_busy_ms", "ms"),
    ("rowexec.band_skew", "ratio"),
    ("rowexec.dispatch_ms", "ms"),
    ("rowexec.gather_rows", "count"),
    ("rowexec.halo_fetch_ratio", "ratio"),
    ("stream.source_ms", "ms"),
    ("stream.sink_ms", "ms"),
    ("stream.engine_ms", "ms"),
    ("stream.source_calls", "count"),
    ("stream.sink_calls", "count"),
    ("stream.values_in_per_output", "ratio"),
    ("stream.peak_resident", "values"),
    ("stream.resident_bound", "values"),
    ("stream.peak_resident.denoise", "values"),
    ("stream.resident_bound.denoise", "values"),
    ("stream.peak_resident.blur3x3", "values"),
    ("stream.resident_bound.blur3x3", "values"),
    ("serve.submit_us_p50", "us"),
    ("serve.rejections_per_job", "ratio"),
    ("serve.retry_wait_ms", "ms"),
    ("serve.drain_ms", "ms"),
    ("serve.plan_cache_hit_ratio", "ratio"),
    ("serve.shards_per_job", "ratio"),
    ("serve.peak_resident", "values"),
    ("format.open_ms", "ms"),
    ("telemetry.validate_ms", "ms"),
    ("telemetry.violations", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.self_sum_ratio", "ratio"),
    ("trace.op_ms_p50", "ms"),
    ("computed.in_bytes_per_op", "B"),
    ("computed.out_bytes_per_op", "B"),
    ("computed.taps_per_op", "count"),
    ("computed.bytes_per_output", "B"),
];

/// Ops an untraced run makes at least, so ten samples lie beyond the
/// p90.
const MIN_OPS: usize = 100;

/// Untimed ops before measuring: caches, page faults and lazily built
/// tile schedules settle here.
const WARMUP_OPS: usize = 2;

/// Ops of the traced phase written to the Chrome trace file (the
/// self-time table covers all of them).
const TRACE_FILE_OPS: u64 = 8;

/// Latency samples reserved per phase: a minute at 1000 ops per second.
const OP_SAMPLES: usize = 60_000;

/// Failed ops reported on stderr before the rest are only counted.
const REPORTED_FAILURES: u64 = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Incore2d,
    StreamChain,
    ServeMix,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "incore_2d" => Some(Self::Incore2d),
            "stream_chain" => Some(Self::StreamChain),
            "serve_mix" => Some(Self::ServeMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::Incore2d => "incore_2d",
            Self::StreamChain => "stream_chain",
            Self::ServeMix => "serve_mix",
        }
    }
}

/// The command line, checked.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Engine and pool width: the machine's available parallelism.
    pub threads: usize,
}

impl Ctx {
    fn parse(mut args: impl Iterator<Item = String>) -> Res<Self> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
                }
                "--seed" => seed = Some(value.parse::<u64>()?),
                "--seconds" => seconds = Some(value.parse::<f64>()?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}").into()),
                    });
                }
                _ => return Err(format!("unknown argument {flag}").into()),
            }
        }
        let seconds = seconds.unwrap_or(10.0);
        if !(seconds > 0.0 && seconds <= 3600.0) {
            return Err(format!("--seconds must lie in (0, 3600], not {seconds}").into());
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
            threads: std::thread::available_parallelism().map_or(1, usize::from),
        })
    }
}

/// Per-layer samples, reduced when the run ends. The default records
/// nothing, so untraced ops allocate no growing sample buffers.
#[derive(Debug, Default)]
pub struct Layers {
    recording: bool,
    samples: BTreeMap<&'static str, (Reduce, Vec<f64>)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reduce {
    Median,
    Mean,
}

impl Layers {
    fn recording() -> Self {
        Self {
            recording: true,
            ..Self::default()
        }
    }

    /// A sample of a timing or gauge, reported as the median.
    pub fn median(&mut self, name: &'static str, v: f64) {
        self.push(name, Reduce::Median, v);
    }

    /// A sample of a count or rate, reported as the mean, which keeps
    /// rare events (one rejection in twelve jobs) visible.
    pub fn mean(&mut self, name: &'static str, v: f64) {
        self.push(name, Reduce::Mean, v);
    }

    fn push(&mut self, name: &'static str, reduce: Reduce, v: f64) {
        if !self.recording {
            return;
        }
        self.samples
            .entry(name)
            .or_insert((reduce, Vec::new()))
            .1
            .push(v);
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.samples.get(name).map(|(reduce, v)| match reduce {
            Reduce::Median => median(v),
            Reduce::Mean => v.iter().sum::<f64>() / v.len() as f64,
        })
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times the program's set-up calls: every repetition runs the whole
/// set-up, and each figure is the median over repetitions.
#[derive(Debug, Default)]
pub struct Setup {
    reps: Vec<BTreeMap<&'static str, f64>>,
}

/// Set-up repetitions per run.
pub const SETUP_REPS: usize = 31;

impl Setup {
    pub fn start_rep(&mut self) {
        self.reps.push(BTreeMap::new());
    }

    /// Runs `f` and adds its wall time to `layer` in the current
    /// repetition.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, took) = timed(None, layer, f);
        let rep = self.reps.last_mut().expect("start_rep before timing");
        *rep.entry(layer).or_insert(0.0) += ms(took);
        out
    }

    fn total_s(&self) -> f64 {
        let totals: Vec<f64> = self.reps.iter().map(|r| r.values().sum::<f64>()).collect();
        median(&totals) / 1e3
    }

    fn layer_ms(&self, layer: &str) -> Option<f64> {
        let v: Vec<f64> = self
            .reps
            .iter()
            .filter_map(|r| r.get(layer).copied())
            .collect();
        (!v.is_empty()).then(|| median(&v))
    }
}

/// Data movement of one op, computed from array sizes: it misses every
/// cache effect, so it bounds traffic rather than measuring it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Computed {
    pub in_values: u64,
    pub outputs: u64,
    /// Outputs × window taps, summed over kernels.
    pub taps: u64,
}

/// One unit of work of a workload's closed loop.
pub trait Op {
    type Out;

    /// Runs the op; its wall time is the op latency.
    fn run(&mut self, tr: Option<&Tracer>) -> Res<Self::Out>;

    /// Checks the op's outputs against the references and records the
    /// per-layer samples, outside the op timer.
    fn check(&mut self, out: Self::Out, tr: Option<&Tracer>, layers: &mut Layers) -> Res<()>;
}

/// Op accounting of one phase.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Outputs of ops that passed every check.
    pub ok_outputs: u64,
    pub op_ms: Vec<f64>,
}

impl Tally {
    /// Counts one op; a failed run or check fails the whole op.
    pub fn record(&mut self, wall: Duration, outputs: u64, result: Res<()>) {
        self.attempted += 1;
        self.op_ms.push(ms(wall));
        match result {
            Ok(()) => self.ok_outputs += outputs,
            Err(e) => {
                self.failed += 1;
                if self.failed <= REPORTED_FAILURES {
                    eprintln!("op {} failed: {e}", self.attempted);
                }
            }
        }
    }

    /// Outputs of correct ops per second of op wall time, in millions.
    fn throughput_melem_s(&self) -> f64 {
        self.ok_outputs as f64 / self.op_ms.iter().sum::<f64>() / 1e3
    }

    fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

fn one_op<O: Op>(
    op: &mut O,
    tr: Option<&Tracer>,
    layers: &mut Layers,
    outputs: u64,
    tally: &mut Tally,
) {
    let (out, wall) = timed(tr, "op", || op.run(tr));
    tally.record(wall, outputs, out.and_then(|o| op.check(o, tr, layers)));
}

/// Runs ops until `budget` has passed and at least `min_ops` ran.
fn phase<O: Op>(
    op: &mut O,
    tr: Option<&Tracer>,
    budget: f64,
    min_ops: usize,
    outputs: u64,
) -> (Tally, Layers) {
    // A buffer that doubles mid-run can move glibc's heap layout: before
    // this reservation, `incore_2d` runs longer than about 15 s read a
    // VmHWM of either 45 or 53 MB.
    let mut tally = Tally {
        op_ms: Vec::with_capacity(OP_SAMPLES),
        ..Tally::default()
    };
    let mut layers = if tr.is_some() {
        Layers::recording()
    } else {
        Layers::default()
    };
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < budget || tally.op_ms.len() < min_ops {
        if let Some(t) = tr {
            t.set_op(tally.attempted + 1);
        }
        one_op(op, tr, &mut layers, outputs, &mut tally);
    }
    (tally, layers)
}

/// Everything one workload run measured.
pub struct Measured {
    setup: Setup,
    computed: Computed,
    warmup: Tally,
    untraced: Tally,
    traced: Option<(Tally, Layers, Vec<trace::Span>)>,
}

/// Warms up, then measures `op` for the run's seconds.
pub fn measure<O: Op>(ctx: &Ctx, mut op: O, setup: Setup, computed: Computed) -> Measured {
    let mut warmup = Tally::default();
    for _ in 0..WARMUP_OPS {
        one_op(
            &mut op,
            None,
            &mut Layers::default(),
            computed.outputs,
            &mut warmup,
        );
    }
    if !ctx.trace {
        let (untraced, _) = phase(&mut op, None, ctx.seconds, MIN_OPS, computed.outputs);
        return Measured {
            setup,
            computed,
            warmup,
            untraced,
            traced: None,
        };
    }
    let (untraced, _) = phase(&mut op, None, ctx.seconds / 2.0, 1, computed.outputs);
    let tracer = Tracer::default();
    let (traced, layers) = phase(
        &mut op,
        Some(&tracer),
        ctx.seconds / 2.0,
        1,
        computed.outputs,
    );
    Measured {
        setup,
        computed,
        warmup,
        untraced,
        traced: Some((traced, layers, tracer.into_spans())),
    }
}

/// `VmHWM` (peak resident set) of this process, in MB.
fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Where traces and the packed `.sgrid` input go: `out/` beside this
/// package's manifest, inside the checkout.
pub fn out_dir() -> Res<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> Res<String> {
    let mut parts = Vec::with_capacity(metrics.len());
    for (name, value, unit) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}").into());
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

fn report(ctx: &Ctx, m: &Measured) -> Res<String> {
    let c = m.computed;
    let in_bytes = c.in_values as f64 * 8.0;
    let out_bytes = c.outputs as f64 * 8.0;
    println!(
        "workload {} seed {} threads {} (available parallelism) seconds {}",
        ctx.workload.name(),
        ctx.seed,
        ctx.threads,
        ctx.seconds
    );
    println!(
        "computed data movement per op (from array sizes, cache effects not seen): \
         {in_bytes:.0} B in, {out_bytes:.0} B out, {} taps (outputs x taps), {:.2} B per output, \
         {:.3} taps per byte",
        c.taps,
        (in_bytes + out_bytes) / c.outputs as f64,
        c.taps as f64 / (in_bytes + out_bytes)
    );
    let mut all = Tally::default();
    all.merge(&m.warmup);
    all.merge(&m.untraced);
    if let Some((t, _, _)) = &m.traced {
        all.merge(t);
    }
    println!(
        "ops: {} attempted, {} failed, error_rate {:.6} (warm-up included)",
        all.attempted,
        all.failed,
        all.failed as f64 / all.attempted as f64
    );
    let lat = &m.untraced.op_ms;
    let tail = stats::tail(lat);
    if let Some(t) = tail {
        println!(
            "untraced op latency: p50 {:.3} ms, p{} {:.3} ms over {} ops",
            median(lat),
            t.q,
            t.value,
            t.samples
        );
    }
    println!(
        "setup: {:.6} s (median of {} repetitions)",
        m.setup.total_s(),
        m.setup.reps.len()
    );

    let metrics: Vec<(&str, f64, &str)> = match &m.traced {
        None => {
            let (p90, beyond) =
                stats::percentile(lat, 90.0).ok_or("the untraced phase ran no ops")?;
            if beyond < stats::TAIL_SAMPLES {
                return Err(format!("{} ops leave too few samples beyond p90", lat.len()).into());
            }
            let values = [
                m.untraced.throughput_melem_s(),
                median(lat),
                p90,
                m.setup.total_s(),
                peak_rss_mb()?,
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), v)| (name, v, unit))
                .collect()
        }
        Some((traced, layers, spans)) => {
            let (self_ns, roots_ns) = trace::self_times(spans, "op");
            let ops = traced.attempted.max(1) as f64;
            println!("layer self time per traced op ({} ops):", traced.attempted);
            for (name, ns) in &self_ns {
                println!("  {name:<24} {:>10.4} ms", *ns as f64 / 1e6 / ops);
            }
            let self_sum: u64 = self_ns.values().sum();
            let ratio = self_sum as f64 / roots_ns as f64;
            let base = m.untraced.throughput_melem_s();
            let overhead = (base - traced.throughput_melem_s()) / base * 100.0;
            println!(
                "self times sum to {ratio:.4} of op wall time; tracing overhead {overhead:.2}% \
                 ({:.2} Melem/s untraced, {:.2} traced)",
                base,
                traced.throughput_melem_s()
            );
            let path = out_dir()?.join(format!(
                "trace_{}_seed{}.json",
                ctx.workload.name(),
                ctx.seed
            ));
            std::fs::write(&path, trace::chrome_json(spans, TRACE_FILE_OPS))?;
            println!(
                "trace of the first {TRACE_FILE_OPS} traced ops: {}",
                path.display()
            );

            let derived = [
                ("trace.overhead_pct", overhead),
                ("trace.self_sum_ratio", ratio),
                ("trace.op_ms_p50", median(&traced.op_ms)),
                ("computed.in_bytes_per_op", in_bytes),
                ("computed.out_bytes_per_op", out_bytes),
                ("computed.taps_per_op", c.taps as f64),
                (
                    "computed.bytes_per_output",
                    (in_bytes + out_bytes) / c.outputs as f64,
                ),
            ];
            PER_LAYER
                .iter()
                .map(|&(name, unit)| {
                    let v = derived
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map(|&(_, v)| v)
                        .or_else(|| m.setup.layer_ms(name))
                        .or_else(|| layers.value(name))
                        .unwrap_or(0.0);
                    (name, v, unit)
                })
                .collect()
        }
    };
    for (name, value, unit) in &metrics {
        println!("  {name} = {value} {unit}");
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        all.failed == 0,
        all.attempted,
        all.failed,
        json_metrics(&metrics)?
    ))
}

fn run(ctx: &Ctx) -> Res<String> {
    let measured = match ctx.workload {
        Workload::Incore2d => workloads::incore_2d(ctx)?,
        Workload::StreamChain => workloads::stream_chain(ctx)?,
        Workload::ServeMix => workloads::serve_mix(ctx)?,
    };
    report(ctx, &measured)
}

fn main() -> ExitCode {
    let result = Ctx::parse(std::env::args().skip(1)).and_then(|ctx| run(&ctx));
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("enginebench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables above must name exactly what `BENCHMARK.json`
    /// declares, in the same order and with the same units.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let declared = |section: &str| -> Vec<(String, String)> {
            let start = doc
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &doc[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|entry| {
                    let name = entry[..entry.find('"').expect("name closes")].to_string();
                    let unit_at = entry.find("\"unit\": \"").expect("unit present") + 9;
                    let unit = entry
                        [unit_at..unit_at + entry[unit_at..].find('"').expect("unit closes")]
                        .to_string();
                    (name, unit)
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), own(&END_TO_END));
        assert_eq!(declared("per_layer"), own(&PER_LAYER));
    }
}
