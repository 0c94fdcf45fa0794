//! Differential verification: the parallel tiled engine, the golden
//! software executor, and the cycle-accurate machine must agree
//! bit-for-bit on every benchmark of the paper suite, at every band
//! count, with and without the Appendix 9.4 bandwidth tradeoff.
//!
//! Three independent implementations of the same semantics:
//!
//! * `stencil_kernels::run_golden` — direct nested-loop execution;
//! * `stencil_kernels::accelerate` — the simulated microarchitecture,
//!   element by element through FIFOs and filters;
//! * `stencil_engine::Session` — batched row loops over row-band
//!   tiles on worker threads.
//!
//! Any divergence between the three is a bug in one of them.

use std::sync::atomic::{AtomicBool, Ordering};

use stencil_core::MemorySystemPlan;
use stencil_engine::{
    CompiledKernel, Datapath, ExecMode, InputGrid, KernelBackend, Session, SessionKernel,
    SessionRun, SliceSource, VecSink,
};
use stencil_kernels::{accelerate, paper_suite, run_golden, Benchmark, GridValues};
use stencil_polyhedral::Polyhedron;

/// Pseudo-random but deterministic grid values with varied magnitudes.
fn test_grid(extents: &[i64]) -> GridValues {
    let mut state = 0x1234_5678_9abc_def0u64;
    GridValues::from_fn(&Polyhedron::grid(extents), |_| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / (1u64 << 25) as f64 - 128.0
    })
    .expect("grid")
}

fn small_extents(bench: &Benchmark) -> Vec<i64> {
    match bench.dims() {
        2 => vec![18, 22],
        _ => vec![9, 10, 11],
    }
}

/// The plan's input domain values drawn from `grid`, in rank order —
/// both the `InputGrid` buffer and the streaming source stream.
fn input_values(plan: &MemorySystemPlan, grid: &GridValues) -> Vec<f64> {
    let in_idx = plan.input_domain().index().expect("input index");
    let mut in_vals = Vec::with_capacity(in_idx.len() as usize);
    let mut c = in_idx.cursor();
    while let Some(p) = c.point(&in_idx) {
        in_vals.push(grid.value_at(&p).expect("grid covers input domain"));
        c.advance(&in_idx);
    }
    in_vals
}

/// Runs the engine for `bench` over `grid`, returning outputs.
fn engine_outputs(
    bench: &Benchmark,
    plan: &MemorySystemPlan,
    grid: &GridValues,
    mode: ExecMode,
    threads: usize,
) -> Vec<f64> {
    let in_idx = plan.input_domain().index().expect("input index");
    let in_vals = input_values(plan, grid);
    let input = InputGrid::new(&in_idx, &in_vals).expect("sized input");
    let compute = bench.compute_fn();
    Session::new(plan)
        .kernel(SessionKernel::Closure(&compute))
        .mode(mode)
        .threads(threads)
        .run(&input)
        .expect("engine run")
        .outputs
}

#[test]
fn engine_equals_golden_and_machine_on_paper_suite() {
    for bench in paper_suite() {
        let extents = small_extents(&bench);
        let grid = test_grid(&extents);

        let golden = run_golden(&bench, &extents, &grid).expect("golden");
        let machine = accelerate(&bench, &extents, &grid).expect("machine");
        assert_eq!(
            machine.outputs,
            golden,
            "machine vs golden: {}",
            bench.name()
        );

        let spec = bench.spec_for(&extents).expect("spec");
        let plan = MemorySystemPlan::generate(&spec).expect("plan");
        for tiles in [1usize, 2, 3, 5] {
            let engine = engine_outputs(
                &bench,
                &plan,
                &grid,
                ExecMode::Tiled { tiles },
                tiles.min(4),
            );
            assert_eq!(
                engine,
                golden,
                "engine({} tiles) vs golden: {}",
                tiles,
                bench.name()
            );
        }
    }
}

#[test]
fn engine_follows_stream_sharding_of_tradeoff_plans() {
    // Appendix 9.4: a k-stream plan shards into k bands by default; the
    // result must stay bit-identical regardless of k.
    for bench in paper_suite() {
        let extents = small_extents(&bench);
        let grid = test_grid(&extents);
        let golden = run_golden(&bench, &extents, &grid).expect("golden");
        let spec = bench.spec_for(&extents).expect("spec");
        let base = MemorySystemPlan::generate(&spec).expect("plan");
        for streams in 1..=base.port_count().min(4) {
            let plan = base
                .clone()
                .with_offchip_streams(streams)
                .expect("tradeoff");
            let engine = engine_outputs(&bench, &plan, &grid, ExecMode::InCore, 0);
            assert_eq!(
                engine,
                golden,
                "engine({streams} streams) vs golden: {}",
                bench.name()
            );
        }
    }
}

#[test]
fn streaming_equals_plan_and_golden_on_paper_suite() {
    // The bounded-memory streaming path must be bit-exact with both the
    // in-core engine and the golden executor on every paper benchmark,
    // at the three characteristic chunk sizes: one row per band, one
    // halo height per band, and the whole grid in one band.
    for bench in paper_suite() {
        let extents = small_extents(&bench);
        let grid = test_grid(&extents);
        let golden = run_golden(&bench, &extents, &grid).expect("golden");
        let spec = bench.spec_for(&extents).expect("spec");
        let plan = MemorySystemPlan::generate(&spec).expect("plan");
        let in_core = engine_outputs(&bench, &plan, &grid, ExecMode::InCore, 0);
        assert_eq!(in_core, golden, "in-core vs golden: {}", bench.name());

        let in_vals = input_values(&plan, &grid);
        let compute = bench.compute_fn();
        let halo_rows = {
            let lo = bench.window().iter().map(|f| f[0]).min().unwrap();
            let hi = bench.window().iter().map(|f| f[0]).max().unwrap();
            (hi - lo + 1) as u64
        };
        let whole_grid = extents[0] as u64;
        for chunk in [1u64, halo_rows, whole_grid] {
            let mut source = SliceSource::new(&in_vals);
            let mut sink = VecSink::new();
            let session = Session::new(&plan)
                .kernel(SessionKernel::Closure(&compute))
                .mode(ExecMode::Streaming {
                    chunk_rows: Some(chunk),
                })
                .threads(2)
                .run_streaming(&mut source, &mut sink)
                .expect("streaming run");
            let report = session.stages[0].stream.as_ref().expect("stream report");
            assert_eq!(
                sink.values,
                golden,
                "streaming(chunk={chunk}) vs golden: {}",
                bench.name()
            );
            assert!(
                report.within_residency_bound(),
                "{} chunk={chunk}: peak {} > bound {}",
                bench.name(),
                report.peak_resident,
                report.resident_bound
            );
            assert_eq!(
                report.rows_out,
                spec.iteration_domain().index().unwrap().rows().len() as u64
            );
        }
    }
}

#[test]
fn compiled_backend_equals_closure_and_golden_on_paper_suite() {
    // The compiled row-sweep executor, the scalar bytecode interpreter
    // (backend forced to `Closure`), and the original closure engine
    // must all be bit-identical to the golden executor on every paper
    // benchmark — in-core and through the bounded-memory streaming
    // path at the three characteristic chunk sizes (one row, one halo
    // height, the whole grid).
    for bench in paper_suite() {
        let extents = small_extents(&bench);
        let grid = test_grid(&extents);
        let golden = run_golden(&bench, &extents, &grid).expect("golden");
        let spec = bench.spec_for(&extents).expect("spec");
        let plan = MemorySystemPlan::generate(&spec).expect("plan");
        let kernel = CompiledKernel::for_benchmark(&bench)
            .expect("compile")
            .expect("every paper benchmark carries an expression");

        let in_idx = plan.input_domain().index().expect("input index");
        let in_vals = input_values(&plan, &grid);
        let input = InputGrid::new(&in_idx, &in_vals).expect("input");

        for tiles in [1usize, 3] {
            let closure = engine_outputs(&bench, &plan, &grid, ExecMode::Tiled { tiles }, 2);
            assert_eq!(closure, golden, "closure vs golden: {}", bench.name());

            let swept = Session::new(&plan)
                .kernel(SessionKernel::Compiled(&kernel))
                .mode(ExecMode::Tiled { tiles })
                .threads(2)
                .run(&input)
                .expect("compiled run");
            assert_eq!(
                swept.outputs,
                golden,
                "compiled sweep({tiles} tiles) vs golden: {}",
                bench.name()
            );

            let scalar = Session::new(&plan)
                .kernel(SessionKernel::Compiled(&kernel))
                .backend(KernelBackend::Closure)
                .mode(ExecMode::Tiled { tiles })
                .threads(2)
                .run(&input)
                .expect("scalar run");
            assert_eq!(
                scalar.outputs,
                golden,
                "scalar bytecode({tiles} tiles) vs golden: {}",
                bench.name()
            );
        }

        let halo_rows = {
            let lo = bench.window().iter().map(|f| f[0]).min().unwrap();
            let hi = bench.window().iter().map(|f| f[0]).max().unwrap();
            (hi - lo + 1) as u64
        };
        for chunk in [1u64, halo_rows, extents[0] as u64] {
            let mut source = SliceSource::new(&in_vals);
            let mut sink = VecSink::new();
            let report = Session::new(&plan)
                .kernel(SessionKernel::Compiled(&kernel))
                .mode(ExecMode::Streaming {
                    chunk_rows: Some(chunk),
                })
                .threads(2)
                .run_streaming(&mut source, &mut sink)
                .expect("compiled streaming run");
            assert_eq!(
                sink.values,
                golden,
                "compiled streaming(chunk={chunk}) vs golden: {}",
                bench.name()
            );
            assert!(
                report.within_residency_bound(),
                "{} chunk={chunk}: peak {} > bound {}",
                bench.name(),
                report.peak_resident,
                report.resident_bound
            );
        }
    }
}

#[test]
fn engine_report_is_consistent_with_machine_stats() {
    let bench = stencil_kernels::denoise();
    let extents = [24i64, 30];
    let grid = test_grid(&extents);
    let spec = bench.spec_for(&extents).expect("spec");
    let plan = MemorySystemPlan::generate(&spec).expect("plan");

    let machine = accelerate(&bench, &extents, &grid).expect("machine");
    let tile_plan = plan.tile_plan(1).expect("tile plan");
    let in_idx = plan.input_domain().index().expect("input index");
    let mut in_vals = Vec::with_capacity(in_idx.len() as usize);
    let mut c = in_idx.cursor();
    while let Some(p) = c.point(&in_idx) {
        in_vals.push(grid.value_at(&p).expect("covered"));
        c.advance(&in_idx);
    }
    let input = InputGrid::new(&in_idx, &in_vals).expect("input");
    let compute = bench.compute_fn();
    let run = Session::new(&plan)
        .kernel(SessionKernel::Closure(&compute))
        .tile_plan(&tile_plan)
        .threads(1)
        .run(&input)
        .expect("engine");
    let report = run.report.stages[0].engine.as_ref().expect("engine report");

    // Same outputs, and the single-band halo equals the full input
    // domain the machine streams.
    assert_eq!(run.outputs, machine.outputs);
    assert_eq!(report.outputs, machine.stats.outputs);
    assert_eq!(report.tiles, 1);
    assert_eq!(report.halo_elements, in_idx.len());
    let streamed: u64 = machine
        .stats
        .chains
        .iter()
        .map(|chain| chain.inputs_streamed)
        .sum();
    assert_eq!(report.halo_elements, streamed);
}

#[test]
fn skewed_grid_stays_exact_and_batched() {
    // The skewed DENOISE variant has a non-rectangular (parallelogram)
    // iteration domain. Because the input domain is the convex dilation
    // of the iteration domain, every shifted row remains contiguous in
    // the input stream — the engine must stay on the batched fast path
    // while remaining bit-exact against a direct loop.
    let spec = stencil_kernels::skewed_denoise(16, 12).expect("spec");
    let plan = MemorySystemPlan::generate(&spec).expect("plan");
    let in_idx = plan.input_domain().index().expect("input index");
    let in_vals: Vec<f64> = (0..in_idx.len())
        .map(|r| ((r * 37 + 11) % 101) as f64 * 0.125 - 5.0)
        .collect();
    let input = InputGrid::new(&in_idx, &in_vals).expect("input");
    let compute = |w: &[f64]| w[2] + 0.2 * (w[0] + w[1] + w[3] + w[4]);

    // Direct nested-loop reference in the spec's declared offset order.
    let iter_idx = spec.iteration_domain().index().expect("iter index");
    let mut expect = Vec::with_capacity(iter_idx.len() as usize);
    let mut c = iter_idx.cursor();
    while let Some(p) = c.point(&iter_idx) {
        let window: Vec<f64> = spec
            .offsets()
            .iter()
            .map(|f| input.value_at(&(p + *f)).expect("halo covered"))
            .collect();
        expect.push(compute(&window));
        c.advance(&iter_idx);
    }

    for tiles in [1usize, 3, 4] {
        let run = Session::new(&plan)
            .kernel(SessionKernel::Closure(&compute))
            .mode(ExecMode::Tiled { tiles })
            .run(&input)
            .expect("engine run");
        assert_eq!(run.outputs, expect, "skewed engine({tiles} tiles)");
        let report = run.report.stages[0].engine.as_ref().expect("engine report");
        let gathers: u64 = report.per_tile.iter().map(|t| t.gather_rows).sum();
        assert_eq!(gathers, 0, "convex halos keep every row on the fast path");
    }
}

// ---------------------------------------------------------------------
// In-core row runs: a band is cut into row runs shared by every worker,
// and the cut never shows in the outputs.
// ---------------------------------------------------------------------

/// Worker counts covering one worker, an even split, an odd split, and
/// more workers than some grids have rows.
const WORKERS: [usize; 4] = [1, 2, 3, 8];

/// Extents per dimension count: rows that are not a multiple of the
/// unroll factor or of the run count, and a grid with fewer iteration
/// rows than workers.
fn row_run_extents(dims: usize) -> [Vec<i64>; 2] {
    match dims {
        2 => [vec![19, 23], vec![5, 9]],
        _ => [vec![9, 10, 11], vec![4, 5, 6]],
    }
}

/// One compiled in-core run of `plan`.
fn compiled_incore(
    plan: &MemorySystemPlan,
    kernel: &CompiledKernel,
    input: &InputGrid<'_>,
    mode: ExecMode,
    threads: usize,
    unroll: usize,
    datapath: Datapath,
) -> SessionRun {
    Session::new(plan)
        .kernel(SessionKernel::Compiled(kernel))
        .mode(mode)
        .threads(threads)
        .unroll(unroll)
        .datapath(datapath)
        .run(input)
        .expect("compiled in-core run")
}

#[test]
fn incore_row_runs_are_bit_identical_at_every_worker_count_and_unroll() {
    for bench in [stencil_kernels::denoise(), stencil_kernels::denoise_3d()] {
        let kernel = CompiledKernel::for_benchmark(&bench)
            .expect("compile")
            .expect("expression");
        for extents in row_run_extents(bench.dims()) {
            let grid = test_grid(&extents);
            let golden = run_golden(&bench, &extents, &grid).expect("golden");
            let spec = bench.spec_for(&extents).expect("spec");
            let plan = MemorySystemPlan::generate(&spec).expect("plan");
            let sharded = plan.with_offchip_streams(2).expect("2-stream plan");
            for (plan, mode, bands) in [
                (&plan, ExecMode::InCore, 1),
                (&plan, ExecMode::Tiled { tiles: 3 }, 3),
                (&sharded, ExecMode::InCore, 2),
            ] {
                let in_idx = plan.input_domain().index().expect("input index");
                let in_vals = input_values(plan, &grid);
                let input = InputGrid::new(&in_idx, &in_vals).expect("input");
                let rows = plan
                    .iteration_domain()
                    .index()
                    .expect("iteration index")
                    .rows()
                    .len() as u64;
                for unroll in [1usize, 4] {
                    let one =
                        compiled_incore(plan, &kernel, &input, mode, 1, unroll, Datapath::F64);
                    let tag = format!("{} {extents:?} {mode:?} U={unroll}", bench.name());
                    assert_eq!(one.outputs, golden, "{tag}: threads(1) vs golden");
                    for threads in WORKERS {
                        let run = compiled_incore(
                            plan,
                            &kernel,
                            &input,
                            mode,
                            threads,
                            unroll,
                            Datapath::F64,
                        );
                        assert_eq!(run.outputs, one.outputs, "{tag} threads={threads}");
                        let engine = run.report.stages[0].engine.as_ref().expect("engine");
                        assert!(engine.tiles >= 1 && engine.tiles <= bands, "{tag}");
                        assert!(engine.threads >= 1 && engine.threads <= threads, "{tag}");
                        // Every iteration row ran in exactly one row run.
                        let ran: u64 = engine
                            .per_tile
                            .iter()
                            .map(|t| t.sweep_rows + t.fast_rows + t.gather_rows)
                            .sum();
                        assert_eq!(ran, rows, "{tag} threads={threads}");
                        assert!(
                            engine.per_tile.iter().all(|t| t.elapsed <= engine.elapsed),
                            "{tag}: a band outlasted its run"
                        );
                        if unroll == 1 {
                            // The closure datapath's per-element rows.
                            let closure = engine_outputs(&bench, plan, &grid, mode, threads);
                            assert_eq!(closure, golden, "{tag} closure threads={threads}");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn incore_f32_row_runs_match_the_one_thread_f32_run() {
    for bench in [stencil_kernels::denoise(), stencil_kernels::denoise_3d()] {
        let kernel = CompiledKernel::for_benchmark(&bench)
            .expect("compile")
            .expect("expression");
        for extents in row_run_extents(bench.dims()) {
            let grid = test_grid(&extents);
            let spec = bench.spec_for(&extents).expect("spec");
            let plan = MemorySystemPlan::generate(&spec).expect("plan");
            let in_idx = plan.input_domain().index().expect("input index");
            let in_vals = input_values(&plan, &grid);
            let input = InputGrid::new(&in_idx, &in_vals).expect("input");
            for mode in [ExecMode::InCore, ExecMode::Tiled { tiles: 3 }] {
                for unroll in [1usize, 4] {
                    let one =
                        compiled_incore(&plan, &kernel, &input, mode, 1, unroll, Datapath::F32);
                    for threads in WORKERS {
                        let run = compiled_incore(
                            &plan,
                            &kernel,
                            &input,
                            mode,
                            threads,
                            unroll,
                            Datapath::F32,
                        );
                        let same = run
                            .outputs
                            .iter()
                            .zip(&one.outputs)
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                        assert!(
                            same && run.outputs.len() == one.outputs.len(),
                            "{} {extents:?} {mode:?} U={unroll} threads={threads}: f32 \
                             row runs differ from the one-thread f32 run",
                            bench.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn incore_iterate_ring_row_runs_match_one_thread_and_sequential_steps() {
    const STEPS: usize = 3;
    let bench = stencil_kernels::denoise();
    let kernel = CompiledKernel::for_benchmark(&bench)
        .expect("compile")
        .expect("expression");
    let compute = bench.compute_fn();
    let extents = [21i64, 23];
    let grid = test_grid(&extents);
    let spec = bench.spec_for(&extents).expect("spec");
    let plan = MemorySystemPlan::generate(&spec).expect("plan");
    let in_idx = plan.input_domain().index().expect("input index");
    let in_vals = input_values(&plan, &grid);
    let input = InputGrid::new(&in_idx, &in_vals).expect("input");

    // Sequential reference: each step materialised, one worker, the
    // closure datapath; step 1 is the golden executor's output.
    let mut expected = Session::new(&plan)
        .kernel(SessionKernel::Closure(&compute))
        .threads(1)
        .run(&input)
        .expect("step 1")
        .outputs;
    assert_eq!(
        expected,
        run_golden(&bench, &extents, &grid).expect("golden")
    );
    let mut step_plan = plan.clone();
    for k in 1..STEPS {
        let next = step_plan
            .chain_next(format!("t{}", k + 1), bench.window())
            .expect("chained plan");
        let idx = next.input_domain().index().expect("input index");
        let grid = InputGrid::new(&idx, &expected).expect("intermediate");
        expected = Session::new(&next)
            .kernel(SessionKernel::Closure(&compute))
            .threads(1)
            .run(&grid)
            .expect("step")
            .outputs;
        step_plan = next;
    }

    for unroll in [1usize, 4] {
        for threads in WORKERS {
            let run = Session::new(&plan)
                .kernel(SessionKernel::Compiled(&kernel))
                .threads(threads)
                .unroll(unroll)
                .iterate(STEPS)
                .expect("iterate ring")
                .run(&input)
                .expect("iterate run");
            assert_eq!(
                run.outputs, expected,
                "iterate ring U={unroll} threads={threads}"
            );
            let until = Session::new(&plan)
                .kernel(SessionKernel::Compiled(&kernel))
                .threads(threads)
                .unroll(unroll)
                .iterate_until(&input, 0.0, STEPS)
                .expect("iterate_until run");
            assert_eq!(
                until.outputs, expected,
                "iterate_until U={unroll} threads={threads}"
            );
        }
    }
}

#[test]
fn default_single_band_incore_run_uses_every_requested_worker() {
    let bench = stencil_kernels::denoise();
    let extents = [40i64, 48];
    let grid = test_grid(&extents);
    let spec = bench.spec_for(&extents).expect("spec");
    let plan = MemorySystemPlan::generate(&spec).expect("plan");
    assert_eq!(plan.offchip_streams(), 1, "a generated plan has one stream");
    let in_idx = plan.input_domain().index().expect("input index");
    let in_vals = input_values(&plan, &grid);
    let input = InputGrid::new(&in_idx, &in_vals).expect("input");
    let compute = bench.compute_fn();
    let run = Session::new(&plan)
        .kernel(SessionKernel::Closure(&compute))
        .threads(2)
        .run(&input)
        .expect("in-core run");
    let engine = run.report.stages[0].engine.as_ref().expect("engine");
    assert_eq!(engine.tiles, 1, "bands still follow the off-chip streams");
    assert_eq!(
        engine.threads, 2,
        "the one band is split across both workers"
    );
    assert_eq!(run.report.threads, 2);
    assert_eq!(engine.per_tile.len(), 1);
    assert_eq!(engine.halo_elements, in_idx.len());
    assert!(engine.per_tile[0].elapsed <= engine.elapsed);
}

#[test]
fn panic_in_the_callers_own_row_run_is_a_worker_panic() {
    let bench = stencil_kernels::denoise();
    let extents = [96i64, 128];
    let grid = test_grid(&extents);
    let spec = bench.spec_for(&extents).expect("spec");
    let plan = MemorySystemPlan::generate(&spec).expect("plan");
    let in_idx = plan.input_domain().index().expect("input index");
    let in_vals = input_values(&plan, &grid);
    let input = InputGrid::new(&in_idx, &in_vals).expect("input");
    // Only the calling thread's row runs panic. A helper holds its
    // first window until the caller has taken a run of its own, so the
    // helpers cannot drain the queue first.
    let caller = std::thread::current().id();
    let caller_ran = AtomicBool::new(false);
    let boom = |w: &[f64]| -> f64 {
        if std::thread::current().id() == caller {
            caller_ran.store(true, Ordering::Release);
            panic!("datapath bug");
        }
        while !caller_ran.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        w[0]
    };
    for mode in [ExecMode::InCore, ExecMode::Tiled { tiles: 2 }] {
        for threads in [1usize, 2] {
            caller_ran.store(false, Ordering::Release);
            let e = Session::new(&plan)
                .kernel(SessionKernel::Closure(&boom))
                .mode(mode)
                .threads(threads)
                .run(&input)
                .unwrap_err();
            assert_eq!(
                e,
                stencil_engine::EngineError::WorkerPanic,
                "mode={mode:?} threads={threads}"
            );
        }
    }
}
