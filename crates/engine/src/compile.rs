//! Plan-time kernel compilation: [`stencil_kernels::KernelExpr`] →
//! folded expression → SSA register program → vectorized row sweeps.
//!
//! The closure datapath costs one indirect `Fn(&[f64]) -> f64` call and
//! one window gather *per output element*. This module removes both:
//!
//! * **compile** — the expression tree is lowered once per run to the
//!   register program of [`crate::unroll`], with constant folding
//!   (pure-constant subtrees collapse to literals), common-subexpression
//!   elimination (structurally equal subtrees share one register), and
//!   mul-add fusion (`x + a*b` dispatches as one op — a *dispatch*
//!   fusion that still rounds the product and the sum separately, so
//!   results stay bit-identical);
//! * **validate** — [`CompiledKernel::compile_checked`] replays the
//!   program against the reference closure on a battery of windows at
//!   construction, so a mis-transcribed expression fails loudly before
//!   any output is produced;
//! * **sweep** — the row executor runs the program over [`LANES`]-wide
//!   chunks of a whole output row, each tap bound to a column-shifted
//!   contiguous slice of the resident input rows. One op dispatch
//!   covers [`LANES`] elements and the per-lane loops run over
//!   fixed-width arrays the autovectorizer turns into SIMD.
//!
//! Evaluation order is exactly the expression's association order, which
//! the suite expressions in turn copy from their closures — the chain
//! that keeps `Compiled` and `Closure` backends bit-identical.

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

use stencil_kernels::{Benchmark, KernelExpr};

use crate::error::EngineError;
use crate::unroll::RegProgram;

/// Selects how the engine evaluates the kernel datapath.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum KernelBackend {
    /// Evaluate the compiled register program with vectorized row sweeps
    /// on interior rows (the default when a [`CompiledKernel`] is supplied).
    #[default]
    Compiled,
    /// Evaluate one element at a time through the per-window call — the
    /// original path, kept selectable for cross-checks and baselines.
    Closure,
}

impl KernelBackend {
    /// The backend's wire/CLI name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            KernelBackend::Compiled => "compiled",
            KernelBackend::Closure => "closure",
        }
    }
}

impl fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for KernelBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "compiled" => Ok(KernelBackend::Compiled),
            "closure" => Ok(KernelBackend::Closure),
            other => Err(format!(
                "unknown kernel backend '{other}' (expected 'compiled' or 'closure')"
            )),
        }
    }
}

/// Arithmetic precision of the compiled sweep datapath.
///
/// `F64` is the bit-exact reference: every backend (closure, scalar
/// register pass, vectorized sweep, unrolled sweep) produces identical
/// bits.
/// `F32` narrows constants and taps to single precision at the kernel
/// boundary — grids stay `f64` in memory, values narrow on load and
/// widen on store — trading bit-exactness for double the arithmetic
/// lanes per vector op. `F32` runs verify against `F64` goldens with a
/// per-kernel relative tolerance instead of bit equality.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Datapath {
    /// Double-precision arithmetic (bit-exact across backends).
    #[default]
    F64,
    /// Single-precision arithmetic (tolerance-verified against f64).
    F32,
}

impl Datapath {
    /// The datapath's wire/CLI name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Datapath::F64 => "f64",
            Datapath::F32 => "f32",
        }
    }
}

impl fmt::Display for Datapath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Datapath {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "f64" => Ok(Datapath::F64),
            "f32" => Ok(Datapath::F32),
            other => Err(format!(
                "unknown datapath '{other}' (expected 'f64' or 'f32')"
            )),
        }
    }
}

/// Lanes per register-op dispatch in the row sweep: the dispatch
/// overhead of one op amortizes over 32 elements (four AVX2 / two
/// AVX-512 vectors per inner loop) while the lane registers stay
/// cache-hot. Measured on DENOISE 768×1024, 32 beats 8 by ~40% and
/// 64/128 regress as the lane working set outgrows the cache.
pub(crate) const LANES: usize = 32;

/// A kernel datapath lowered to its one-output register program, ready
/// for per-window evaluation ([`CompiledKernel::eval`]) or vectorized
/// row sweeps (the engine's `Compiled` backend).
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledKernel {
    taps: usize,
    /// The folded source expression — retained so the unrolled
    /// multi-output compiler ([`crate::unroll`]) can re-lower it across
    /// output positions, and as its validation reference.
    expr: KernelExpr,
    program: RegProgram,
}

// ---------------------------------------------------------------------
// Compilation: tree -> folded tree -> hash-consed DAG -> registers.
// ---------------------------------------------------------------------

/// A hash-consed expression node: children are arena ids, constants are
/// keyed by bit pattern so `-0.0` and `0.0` stay distinct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Node {
    Tap(usize),
    Const(u64),
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    Div(usize, usize),
    Sqrt(usize),
    Abs(usize),
    MulAdd(usize, usize, usize),
}

/// Collapses pure-constant subtrees to literals, evaluating them with
/// the same scalar semantics the register program uses — a constant
/// subtree's folded value is bit-identical to evaluating it at run
/// time, so folding never changes results. No algebraic identities are
/// applied (`x + 0.0` is *not* rewritten: it can flip `-0.0` to
/// `+0.0`).
fn fold(e: &KernelExpr) -> KernelExpr {
    let folded = match e {
        KernelExpr::Tap(_) | KernelExpr::Const(_) => e.clone(),
        KernelExpr::Add(a, b) => fold(a) + fold(b),
        KernelExpr::Sub(a, b) => fold(a) - fold(b),
        KernelExpr::Mul(a, b) => fold(a) * fold(b),
        KernelExpr::Div(a, b) => fold(a) / fold(b),
        KernelExpr::Sqrt(a) => fold(a).sqrt(),
        KernelExpr::Abs(a) => fold(a).abs(),
        KernelExpr::MulAdd(a, b, c) => fold(a).mul_add(fold(b), fold(c)),
    };
    if matches!(folded, KernelExpr::Const(_) | KernelExpr::Tap(_)) {
        folded
    } else if folded.max_tap().is_none() {
        KernelExpr::Const(folded.eval(&[]))
    } else {
        folded
    }
}

/// The hash-consing arena: structurally equal subtrees intern to the
/// same id, turning the tree into a DAG whose shared nodes CSE finds by
/// in-degree. The unrolled multi-output compiler interns *several*
/// remapped roots into one arena, so subtrees shared across adjacent
/// output positions land on the same id.
#[derive(Default)]
pub(crate) struct Arena {
    pub(crate) nodes: Vec<Node>,
    ids: HashMap<Node, usize>,
}

impl Arena {
    fn intern(&mut self, node: Node) -> usize {
        if let Some(&id) = self.ids.get(&node) {
            return id;
        }
        let id = self.nodes.len();
        self.nodes.push(node);
        self.ids.insert(node, id);
        id
    }

    pub(crate) fn intern_expr(&mut self, e: &KernelExpr) -> usize {
        let node = match e {
            KernelExpr::Tap(k) => Node::Tap(*k),
            KernelExpr::Const(c) => Node::Const(c.to_bits()),
            KernelExpr::Add(a, b) => Node::Add(self.intern_expr(a), self.intern_expr(b)),
            KernelExpr::Sub(a, b) => Node::Sub(self.intern_expr(a), self.intern_expr(b)),
            KernelExpr::Mul(a, b) => Node::Mul(self.intern_expr(a), self.intern_expr(b)),
            KernelExpr::Div(a, b) => Node::Div(self.intern_expr(a), self.intern_expr(b)),
            KernelExpr::Sqrt(a) => Node::Sqrt(self.intern_expr(a)),
            KernelExpr::Abs(a) => Node::Abs(self.intern_expr(a)),
            KernelExpr::MulAdd(a, b, c) => {
                let (a, b, c) = (
                    self.intern_expr(a),
                    self.intern_expr(b),
                    self.intern_expr(c),
                );
                Node::MulAdd(a, b, c)
            }
        };
        self.intern(node)
    }

    /// Structural in-degree of every node (plus one per root) — the
    /// number of places each value is consumed. With several roots (one
    /// per unrolled output position) counts accumulate across all of
    /// them, so a subtree shared between outputs registers as multiply
    /// used.
    pub(crate) fn use_counts(&self, roots: &[usize]) -> Vec<usize> {
        let mut counts = vec![0usize; self.nodes.len()];
        for &root in roots {
            counts[root] += 1;
        }
        for node in &self.nodes {
            match *node {
                Node::Tap(_) | Node::Const(_) => {}
                Node::Sqrt(a) | Node::Abs(a) => counts[a] += 1,
                Node::Add(a, b) | Node::Sub(a, b) | Node::Mul(a, b) | Node::Div(a, b) => {
                    counts[a] += 1;
                    counts[b] += 1;
                }
                Node::MulAdd(a, b, c) => {
                    counts[a] += 1;
                    counts[b] += 1;
                    counts[c] += 1;
                }
            }
        }
        counts
    }
}

impl CompiledKernel {
    /// Lowers `expr` to a register program for a `taps`-point window,
    /// running the constant-folding, CSE, and mul-add-fusion passes.
    ///
    /// # Errors
    ///
    /// [`EngineError::KernelCompile`] if the expression taps outside the
    /// window or the program exceeds the 16-bit register budget.
    pub fn compile(expr: &KernelExpr, taps: usize) -> Result<Self, EngineError> {
        if let Some(k) = expr.max_tap() {
            if k >= taps {
                return Err(EngineError::KernelCompile {
                    detail: format!("expression taps v[{k}] but the window has {taps} points"),
                });
            }
        }
        let expr = fold(expr);
        let program = RegProgram::single(&expr, taps)?;
        Ok(CompiledKernel {
            taps,
            expr,
            program,
        })
    }

    /// Compiles and validates: the register program is replayed against
    /// the reference closure on a battery of deterministic windows (edge
    /// values plus pseudo-random fills) and must agree bit-for-bit.
    ///
    /// # Errors
    ///
    /// As [`CompiledKernel::compile`], plus
    /// [`EngineError::KernelMismatch`] when any window diverges.
    pub fn compile_checked<C>(
        expr: &KernelExpr,
        taps: usize,
        reference: &C,
    ) -> Result<Self, EngineError>
    where
        C: Fn(&[f64]) -> f64 + ?Sized,
    {
        let ck = Self::compile(expr, taps)?;
        let mut window = vec![0.0f64; taps];
        let check = |window: &[f64]| -> Result<(), EngineError> {
            let got = ck.eval(window);
            let want = reference(window);
            if got == want || (got.is_nan() && want.is_nan()) {
                Ok(())
            } else {
                Err(EngineError::KernelMismatch {
                    detail: format!(
                        "window {window:?}: register program {got:?} vs closure {want:?}"
                    ),
                })
            }
        };
        for fill in [0.0, 1.0, -1.0, 0.5] {
            window.iter_mut().for_each(|w| *w = fill);
            check(&window)?;
        }
        let mut state = 0x0BAD_C0DE_CAFE_u64;
        for _ in 0..60 {
            for w in &mut window {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *w = ((state >> 33) as f64) / 1e8 - 42.0;
            }
            check(&window)?;
        }
        Ok(ck)
    }

    /// Compiles a [`Benchmark`]'s expression, validated against its own
    /// closure — `Ok(None)` when the benchmark carries no expression.
    ///
    /// # Errors
    ///
    /// As [`CompiledKernel::compile_checked`].
    pub fn for_benchmark(bench: &Benchmark) -> Result<Option<Self>, EngineError> {
        match bench.expr() {
            None => Ok(None),
            Some(expr) => {
                let reference = bench.compute_fn();
                Self::compile_checked(expr, bench.window().len(), &reference).map(Some)
            }
        }
    }

    /// The window size the program was compiled for.
    #[must_use]
    pub fn taps(&self) -> usize {
        self.taps
    }

    /// Number of register operations (after folding, CSE, and fusion;
    /// tap and constant loads excluded).
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.program.op_count()
    }

    /// The constant-folded source expression the program was lowered
    /// from — the unrolled compiler's input and validation reference.
    pub(crate) fn folded_expr(&self) -> &KernelExpr {
        &self.expr
    }

    /// The one-output register program.
    pub(crate) fn program(&self) -> &RegProgram {
        &self.program
    }

    /// Evaluates the program on one window in declared offset order —
    /// bit-identical to the source expression's [`KernelExpr::eval`].
    ///
    /// # Panics
    ///
    /// Panics if `window` is shorter than [`CompiledKernel::taps`].
    #[must_use]
    pub fn eval(&self, window: &[f64]) -> f64 {
        self.program.eval::<f64>(window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_kernels::{extra_suite, paper_suite};

    fn tap(k: usize) -> KernelExpr {
        KernelExpr::tap(k)
    }

    #[test]
    fn backend_parse_and_display() {
        assert_eq!(
            "compiled".parse::<KernelBackend>(),
            Ok(KernelBackend::Compiled)
        );
        assert_eq!(
            "CLOSURE".parse::<KernelBackend>(),
            Ok(KernelBackend::Closure)
        );
        assert!("simd".parse::<KernelBackend>().is_err());
        assert_eq!(KernelBackend::Compiled.to_string(), "compiled");
        assert_eq!(KernelBackend::default(), KernelBackend::Compiled);
    }

    #[test]
    fn datapath_parse_and_display() {
        assert_eq!("f64".parse::<Datapath>(), Ok(Datapath::F64));
        assert_eq!("F32".parse::<Datapath>(), Ok(Datapath::F32));
        assert!("f16".parse::<Datapath>().is_err());
        assert_eq!(Datapath::F32.to_string(), "f32");
        assert_eq!(Datapath::default(), Datapath::F64);
    }

    #[test]
    fn eval32_narrows_taps_and_constants() {
        // 0.1 rounds differently in f32 and f64, so the narrowed
        // datapath must produce the widened f32 sum, not the f64 one.
        let e = tap(0) + KernelExpr::constant(0.1);
        let ck = CompiledKernel::compile(&e, 1).unwrap();
        let got = ck.program().eval::<f32>(&[1.0]);
        assert_eq!(got, f64::from(1.0f32 + 0.1f32));
        assert_ne!(got, 1.0f64 + 0.1f64);
        assert_eq!(ck.eval(&[1.0]), 1.0f64 + 0.1f64);
    }

    #[test]
    fn constant_subtrees_fold_to_literals() {
        // (2 + 3) * t0: the constant sum folds into a Const(5) register,
        // leaving a single Mul.
        let e = (KernelExpr::constant(2.0) + KernelExpr::constant(3.0)) * tap(0);
        let ck = CompiledKernel::compile(&e, 1).unwrap();
        assert_eq!(ck.op_count(), 1);
        assert_eq!(ck.eval(&[7.0]), 35.0);
    }

    #[test]
    fn cse_shares_repeated_subexpressions() {
        // (t0 + t1) appears three times; with CSE it evaluates once.
        let s = tap(0) + tap(1);
        let e = s.clone() / s.clone() + s.sqrt();
        let ck = CompiledKernel::compile(&e, 2).unwrap();
        // Add Div Sqrt Add -> 4 ops (vs 6 unshared).
        assert_eq!(ck.op_count(), 4);
        let w = [2.0, 7.0];
        assert_eq!(ck.eval(&w), 9.0f64 / 9.0 + 9.0f64.sqrt());
    }

    #[test]
    fn mul_add_fuses_without_changing_rounding() {
        // t0*t1 + t2: fusible product; result must keep two roundings.
        let e = tap(0) * tap(1) + tap(2);
        let ck = CompiledKernel::compile(&e, 3).unwrap();
        // One MulAdd instead of Mul + Add.
        assert_eq!(ck.op_count(), 1);
        // 0.1 * 10.0 rounds to exactly 1.0 in binary64, so two-rounding
        // evaluation cancels to 0.0; a *contracted* FMA keeps the exact
        // product's residue and does not. The fused opcode must cancel.
        let w = [0.1, 10.0, -1.0];
        assert_eq!(ck.eval(&w), 0.0);
        assert_ne!(ck.eval(&w), 0.1f64.mul_add(10.0, -1.0));
    }

    #[test]
    fn shared_products_are_not_fused() {
        // p = t0 * t1 is shared: fusing p into its uses would compute
        // it twice. It materializes once: Mul Add Add Add -> 4 ops (a
        // fused form would be MulAdd MulAdd Add -> 3).
        let p = tap(0) * tap(1);
        let e = (p.clone() + tap(2)) + (p + tap(3));
        let ck = CompiledKernel::compile(&e, 4).unwrap();
        assert_eq!(ck.op_count(), 4);
        let w = [3.0, 5.0, 1.0, 2.0];
        assert_eq!(ck.eval(&w), (15.0 + 1.0) + (15.0 + 2.0));
    }

    #[test]
    fn explicit_mul_add_form_compiles() {
        let e = tap(0).mul_add(tap(1), tap(2));
        let ck = CompiledKernel::compile(&e, 3).unwrap();
        let w = [0.1, 10.0, -1.0];
        assert_eq!(ck.eval(&w), 0.1f64 * 10.0 + -1.0);
    }

    #[test]
    fn out_of_window_tap_is_a_compile_error() {
        let e = tap(5);
        let err = CompiledKernel::compile(&e, 3).unwrap_err();
        assert!(matches!(err, EngineError::KernelCompile { .. }), "{err}");
    }

    #[test]
    fn deep_and_shared_expressions_compile() {
        // A 33-deep right-nested product (every level's left operand
        // stays live while the right one nests) and 20 shared
        // subexpressions, each consumed twice: neither has a depth or
        // sharing limit in register form.
        let mut deep = tap(0);
        for k in 1..33 {
            deep = tap(k % 3) * deep;
        }
        let shared: Vec<KernelExpr> = (0..20u32)
            .map(|k| tap(k as usize % 3) * KernelExpr::constant(f64::from(k) + 1.5))
            .collect();
        let mut wide = KernelExpr::constant(0.0);
        for s in &shared {
            wide = wide + s.clone();
        }
        for s in &shared {
            wide = wide - s.clone().sqrt();
        }
        let w = [1.25, -0.5, 3.0];
        for e in [deep, wide] {
            let ck = CompiledKernel::compile(&e, 3).unwrap();
            assert_eq!(ck.eval(&w).to_bits(), e.eval(&w).to_bits());
        }

        // The 16-bit register budget still bounds a program: a balanced
        // sum of 35000 distinct products needs ~105k registers.
        let mut terms: Vec<KernelExpr> = (0..35_000u32)
            .map(|k| tap(0) * KernelExpr::constant(f64::from(k) + 0.5))
            .collect();
        while terms.len() > 1 {
            let mut next = Vec::with_capacity(terms.len().div_ceil(2));
            let mut it = terms.into_iter();
            while let Some(a) = it.next() {
                next.push(match it.next() {
                    Some(b) => a + b,
                    None => a,
                });
            }
            terms = next;
        }
        let err = CompiledKernel::compile(&terms[0], 1).unwrap_err();
        assert!(matches!(err, EngineError::KernelCompile { .. }), "{err}");
    }

    #[test]
    fn compile_checked_accepts_faithful_and_rejects_wrong() {
        let e = tap(0) + 2.0 * tap(1);
        let faithful = |v: &[f64]| v[0] + 2.0 * v[1];
        assert!(CompiledKernel::compile_checked(&e, 2, &faithful).is_ok());
        let wrong = |v: &[f64]| v[0] + 2.5 * v[1];
        let err = CompiledKernel::compile_checked(&e, 2, &wrong).unwrap_err();
        assert!(matches!(err, EngineError::KernelMismatch { .. }), "{err}");
    }

    #[test]
    fn every_suite_benchmark_compiles_checked() -> Result<(), EngineError> {
        // Typed propagation, not panics: a failing benchmark surfaces
        // as the same `EngineError::KernelCompile` a serving worker
        // would report instead of dying.
        for b in paper_suite().into_iter().chain(extra_suite()) {
            let ck =
                CompiledKernel::for_benchmark(&b)?.ok_or_else(|| EngineError::KernelCompile {
                    detail: format!("{} has no expression", b.name()),
                })?;
            assert_eq!(ck.taps(), b.window().len());
        }
        Ok(())
    }

    #[test]
    fn rician_cse_finds_the_shared_average() {
        let b = stencil_kernels::rician();
        let ck = CompiledKernel::for_benchmark(&b).unwrap().unwrap();
        // avg (3 Adds + Mul) is used three times but evaluates once:
        // 4 + Mul Abs Add Div Sqrt -> 9 ops (vs 17 unshared).
        assert_eq!(ck.op_count(), 9);
    }

    #[test]
    fn sweep_matches_per_window_eval() {
        // A synthetic 3-tap row: taps read at column shifts 0, 1, 2 of a
        // flat buffer; strides exercise a partial chunk alone, one chunk
        // either side of full, and chunks plus a remainder.
        let e = tap(0) + 2.0 * tap(1) - tap(2).abs().sqrt();
        let closure = |v: &[f64]| v[0] + 2.0 * v[1] - v[2].abs().sqrt();
        let ck = CompiledKernel::compile_checked(&e, 3, &closure).unwrap();
        let vals: Vec<f64> = (0..128).map(|i| f64::from(i) * 0.75 - 11.0).collect();
        let bases = [0usize, 1, 2];
        for stride in [1usize, 31, 32, 33, 70] {
            let mut out = vec![0.0f64; stride];
            ck.program().sweep::<f64>(&bases, &vals, &mut out, stride);
            for (t, &got) in out.iter().enumerate() {
                let window = [vals[t], vals[1 + t], vals[2 + t]];
                assert_eq!(got, closure(&window), "stride={stride} t={t}");
            }
        }
    }
}
