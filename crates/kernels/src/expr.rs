//! A small arithmetic IR for kernel datapaths.
//!
//! [`KernelExpr`] describes the per-iteration arithmetic of a stencil
//! kernel as an expression tree over window taps and constants. It is
//! the *compilable* twin of the closure datapath ([`crate::ComputeFn`]):
//! the closure defines reference semantics, the expression carries the
//! same formula in a form execution backends can lower (the engine
//! compiles it to an SSA register program and sweeps it over whole rows).
//!
//! Expressions are built with ordinary Rust operators, so a kernel's
//! expression reads exactly like its closure — and, crucially, parses
//! to the *same association order*, which keeps compiled evaluation
//! bit-identical to the closure under IEEE-754 arithmetic:
//!
//! ```
//! use stencil_kernels::KernelExpr;
//!
//! let [n, w, c, e, s] = KernelExpr::taps::<5>();
//! let expr = c.clone() + 0.2 * (n + s + e + w - 4.0 * c);
//! let window = [1.0, 2.0, 3.0, 4.0, 5.0];
//! let closure = |v: &[f64]| v[2] + 0.2 * (v[0] + v[4] + v[3] + v[1] - 4.0 * v[2]);
//! assert_eq!(expr.eval(&window), closure(&window));
//! ```

use std::fmt;
use std::ops;

/// An arithmetic expression over stencil window taps.
///
/// `Tap(k)` reads the window value at declared offset position `k` —
/// the same position the closure datapath reads as `v[k]`. The fused
/// [`KernelExpr::MulAdd`] form evaluates as `a * b + c` with *two*
/// roundings (it is a dispatch fusion, not an FMA contraction), so
/// fusing never changes results.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelExpr {
    /// The window value at declared offset position `k`.
    Tap(usize),
    /// A literal constant.
    Const(f64),
    /// Sum of two subexpressions.
    Add(Box<KernelExpr>, Box<KernelExpr>),
    /// Difference of two subexpressions.
    Sub(Box<KernelExpr>, Box<KernelExpr>),
    /// Product of two subexpressions.
    Mul(Box<KernelExpr>, Box<KernelExpr>),
    /// Quotient of two subexpressions.
    Div(Box<KernelExpr>, Box<KernelExpr>),
    /// Square root of a subexpression.
    Sqrt(Box<KernelExpr>),
    /// Absolute value of a subexpression.
    Abs(Box<KernelExpr>),
    /// Fused special form `a * b + c`, evaluated with the same two
    /// roundings as the unfused pair.
    MulAdd(Box<KernelExpr>, Box<KernelExpr>, Box<KernelExpr>),
}

impl KernelExpr {
    /// The window tap at position `k`.
    #[must_use]
    pub fn tap(k: usize) -> Self {
        KernelExpr::Tap(k)
    }

    /// A literal constant.
    #[must_use]
    pub fn constant(c: f64) -> Self {
        KernelExpr::Const(c)
    }

    /// The first `N` taps as an array — destructure to name them:
    /// `let [n, w, c, e, s] = KernelExpr::taps::<5>();`.
    #[must_use]
    pub fn taps<const N: usize>() -> [Self; N] {
        std::array::from_fn(KernelExpr::Tap)
    }

    /// The plain window sum over `n` taps, folded from `0.0` exactly
    /// like `vals.iter().sum::<f64>()` — the expression form of
    /// [`crate::default_compute`].
    #[must_use]
    pub fn window_sum(n: usize) -> Self {
        (0..n)
            .map(KernelExpr::Tap)
            .fold(KernelExpr::Const(0.0), |acc, t| acc + t)
    }

    /// Square root of this expression.
    #[must_use]
    pub fn sqrt(self) -> Self {
        KernelExpr::Sqrt(Box::new(self))
    }

    /// Absolute value of this expression.
    #[must_use]
    pub fn abs(self) -> Self {
        KernelExpr::Abs(Box::new(self))
    }

    /// The fused form `self * b + c` (two roundings, see [`KernelExpr::MulAdd`]).
    #[must_use]
    pub fn mul_add(self, b: Self, c: Self) -> Self {
        KernelExpr::MulAdd(Box::new(self), Box::new(b), Box::new(c))
    }

    /// Evaluates the expression on window values in declared offset
    /// order — the IR's reference semantics. Backends that lower the
    /// expression must reproduce this bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if a tap position is out of `window`'s range.
    #[must_use]
    pub fn eval(&self, window: &[f64]) -> f64 {
        match self {
            KernelExpr::Tap(k) => window[*k],
            KernelExpr::Const(c) => *c,
            KernelExpr::Add(a, b) => a.eval(window) + b.eval(window),
            KernelExpr::Sub(a, b) => a.eval(window) - b.eval(window),
            KernelExpr::Mul(a, b) => a.eval(window) * b.eval(window),
            KernelExpr::Div(a, b) => a.eval(window) / b.eval(window),
            KernelExpr::Sqrt(a) => a.eval(window).sqrt(),
            KernelExpr::Abs(a) => a.eval(window).abs(),
            KernelExpr::MulAdd(a, b, c) => a.eval(window) * b.eval(window) + c.eval(window),
        }
    }

    /// The highest tap position referenced, or `None` for a constant
    /// expression.
    #[must_use]
    pub fn max_tap(&self) -> Option<usize> {
        match self {
            KernelExpr::Tap(k) => Some(*k),
            KernelExpr::Const(_) => None,
            KernelExpr::Sqrt(a) | KernelExpr::Abs(a) => a.max_tap(),
            KernelExpr::Add(a, b)
            | KernelExpr::Sub(a, b)
            | KernelExpr::Mul(a, b)
            | KernelExpr::Div(a, b) => a.max_tap().max(b.max_tap()),
            KernelExpr::MulAdd(a, b, c) => a.max_tap().max(b.max_tap()).max(c.max_tap()),
        }
    }

    /// Number of nodes in the expression tree.
    #[must_use]
    pub fn node_count(&self) -> usize {
        match self {
            KernelExpr::Tap(_) | KernelExpr::Const(_) => 1,
            KernelExpr::Sqrt(a) | KernelExpr::Abs(a) => 1 + a.node_count(),
            KernelExpr::Add(a, b)
            | KernelExpr::Sub(a, b)
            | KernelExpr::Mul(a, b)
            | KernelExpr::Div(a, b) => 1 + a.node_count() + b.node_count(),
            KernelExpr::MulAdd(a, b, c) => 1 + a.node_count() + b.node_count() + c.node_count(),
        }
    }
}

impl fmt::Display for KernelExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelExpr::Tap(k) => write!(f, "v[{k}]"),
            KernelExpr::Const(c) => write!(f, "{c}"),
            KernelExpr::Add(a, b) => write!(f, "({a} + {b})"),
            KernelExpr::Sub(a, b) => write!(f, "({a} - {b})"),
            KernelExpr::Mul(a, b) => write!(f, "({a} * {b})"),
            KernelExpr::Div(a, b) => write!(f, "({a} / {b})"),
            KernelExpr::Sqrt(a) => write!(f, "sqrt({a})"),
            KernelExpr::Abs(a) => write!(f, "abs({a})"),
            KernelExpr::MulAdd(a, b, c) => write!(f, "fma({a}, {b}, {c})"),
        }
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $variant:ident) => {
        impl ops::$trait for KernelExpr {
            type Output = KernelExpr;
            fn $method(self, rhs: KernelExpr) -> KernelExpr {
                KernelExpr::$variant(Box::new(self), Box::new(rhs))
            }
        }
        impl ops::$trait<f64> for KernelExpr {
            type Output = KernelExpr;
            fn $method(self, rhs: f64) -> KernelExpr {
                KernelExpr::$variant(Box::new(self), Box::new(KernelExpr::Const(rhs)))
            }
        }
        impl ops::$trait<KernelExpr> for f64 {
            type Output = KernelExpr;
            fn $method(self, rhs: KernelExpr) -> KernelExpr {
                KernelExpr::$variant(Box::new(KernelExpr::Const(self)), Box::new(rhs))
            }
        }
    };
}

impl_binop!(Add, add, Add);
impl_binop!(Sub, sub, Sub);
impl_binop!(Mul, mul, Mul);
impl_binop!(Div, div, Div);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operators_build_the_expected_tree() {
        let e = 2.0 * KernelExpr::tap(0) + KernelExpr::tap(1) / 4.0;
        assert_eq!(
            e,
            KernelExpr::Add(
                Box::new(KernelExpr::Mul(
                    Box::new(KernelExpr::Const(2.0)),
                    Box::new(KernelExpr::Tap(0)),
                )),
                Box::new(KernelExpr::Div(
                    Box::new(KernelExpr::Tap(1)),
                    Box::new(KernelExpr::Const(4.0)),
                )),
            )
        );
        assert_eq!(e.eval(&[3.0, 8.0]), 8.0);
    }

    #[test]
    fn eval_matches_scalar_arithmetic() {
        let [a, b] = KernelExpr::taps::<2>();
        let e = (a.clone() * a - b.clone()).abs().sqrt() + b / 2.0;
        let f = |v: &[f64]| (v[0] * v[0] - v[1]).abs().sqrt() + v[1] / 2.0;
        for w in [[1.5, 2.0], [-3.0, 10.0], [0.0, 0.0], [2.0, 5.0]] {
            assert_eq!(e.eval(&w), f(&w));
        }
    }

    #[test]
    fn mul_add_has_unfused_rounding() {
        let e = KernelExpr::tap(0).mul_add(KernelExpr::tap(1), KernelExpr::tap(2));
        // A case where fused FMA differs from two roundings: the product
        // 0.1 * 10.0 is not exactly 1.0 in binary64.
        let w = [0.1, 10.0, -1.0];
        assert_eq!(e.eval(&w), 0.1f64 * 10.0 + -1.0);
        assert_eq!(e.to_string(), "fma(v[0], v[1], v[2])");
    }

    #[test]
    fn window_sum_matches_iter_sum() {
        let e = KernelExpr::window_sum(5);
        let w = [1.0, 2.5, -3.0, 4.0, 0.125];
        assert_eq!(e.eval(&w), w.iter().sum::<f64>());
        assert_eq!(e.max_tap(), Some(4));
    }

    #[test]
    fn max_tap_and_node_count() {
        assert_eq!(KernelExpr::constant(3.0).max_tap(), None);
        let e = KernelExpr::tap(7) + KernelExpr::constant(1.0);
        assert_eq!(e.max_tap(), Some(7));
        assert_eq!(e.node_count(), 3);
        let fma = KernelExpr::tap(0).mul_add(KernelExpr::tap(9), KernelExpr::constant(0.5));
        assert_eq!(fma.max_tap(), Some(9));
        assert_eq!(fma.node_count(), 4);
    }

    #[test]
    fn display_is_parenthesized_infix() {
        let [a, b] = KernelExpr::taps::<2>();
        let e = (a + 2.0 * b).sqrt();
        assert_eq!(e.to_string(), "sqrt((v[0] + (2 * v[1])))");
    }
}
