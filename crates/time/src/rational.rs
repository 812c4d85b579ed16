//! Reduced rational numbers over `i64`.
//!
//! Media timing demands exact arithmetic: NTSC's 30000/1001 frame rate, CD
//! audio's 1/44100-second sample period, and the tick arithmetic that relates
//! them do not round-trip through `f64`. [`Rational`] keeps every value as a
//! fully reduced fraction with a positive denominator, performing all
//! intermediate arithmetic in `i128` so that reducible expressions never
//! overflow spuriously.

use crate::TimeError;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// An exact rational number `num/den` with `den > 0`, always fully reduced.
///
/// `Rational` implements total ordering, hashing and the standard arithmetic
/// operators. The operator impls panic on overflow or division by zero (which
/// cannot occur for in-range media timing); the `checked_*` methods report
/// these conditions as [`TimeError`] instead.
///
/// ```
/// use tbm_time::Rational;
/// let ntsc = Rational::new(30000, 1001);
/// assert_eq!(ntsc.recip() * Rational::from(30000), Rational::new(30000 * 1001, 30000));
/// assert_eq!(Rational::new(4, 8), Rational::new(1, 2));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i64,
    den: i64, // invariant: den > 0 and gcd(|num|, den) == 1
}

/// Greatest common divisor over `i128` magnitudes.
fn gcd128(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Greatest common divisor over `u64` magnitudes.
fn gcd64(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Rational {
    /// Exact zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// Exact one.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Creates a reduced rational. Panics if `den == 0` or reduction overflows.
    ///
    /// Prefer [`Rational::checked_new`] when the inputs are untrusted.
    pub fn new(num: i64, den: i64) -> Rational {
        Rational::checked_new(num, den).expect("invalid rational")
    }

    /// Const-context constructor: creates a reduced rational at compile time.
    ///
    /// Panics (at compile time when used in a const) if `den == 0` or the
    /// magnitudes cannot be represented after reduction.
    pub const fn const_new(num: i64, den: i64) -> Rational {
        if den == 0 {
            panic!("rational denominator is zero");
        }
        let sign: i64 = if den < 0 { -1 } else { 1 };
        // const-friendly gcd on magnitudes
        let mut a = num.unsigned_abs();
        let mut b = den.unsigned_abs();
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        if a == 0 {
            return Rational { num: 0, den: 1 };
        }
        let num = sign * (num / a as i64);
        let den = sign * (den / a as i64);
        Rational { num, den }
    }

    /// Creates a reduced rational, reporting zero denominators and overflow.
    pub fn checked_new(num: i64, den: i64) -> Result<Rational, TimeError> {
        if den == 0 {
            return Err(TimeError::ZeroDenominator);
        }
        Self::reduce(num as i128, den as i128)
    }

    /// Reduces an `i128` fraction into the `i64`-backed representation.
    ///
    /// Media timing keeps operands small, so the intermediate almost always
    /// fits 64 bits: then Euclid and the divisions run on machine words,
    /// and the 128-bit loop is only the fallback. Both paths return the
    /// same value or the same error for every input.
    fn reduce(num: i128, den: i128) -> Result<Rational, TimeError> {
        debug_assert!(den != 0);
        match (i64::try_from(num), i64::try_from(den)) {
            (Ok(num), Ok(den)) => Self::reduce64(num, den),
            _ => Self::reduce128(num, den),
        }
    }

    /// [`Rational::reduce`] for operands that fit `i64`: magnitudes in
    /// `u64` (so `i64::MIN` needs no special case), sign applied last.
    fn reduce64(num: i64, den: i64) -> Result<Rational, TimeError> {
        let negative = (num < 0) != (den < 0);
        let (n, d) = (num.unsigned_abs(), den.unsigned_abs());
        let g = gcd64(n, d); // den != 0, so g >= 1
        let num = if negative {
            0i64.checked_sub_unsigned(n / g)
        } else {
            i64::try_from(n / g).ok()
        };
        match (num, i64::try_from(d / g)) {
            (Some(num), Ok(den)) => Ok(Rational { num, den }),
            _ => Err(TimeError::Overflow { op: "reduce" }),
        }
    }

    /// [`Rational::reduce`] entirely in `i128` — the fallback for wide
    /// intermediates, and the reference the fast path is tested against.
    fn reduce128(num: i128, den: i128) -> Result<Rational, TimeError> {
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd128(num, den);
        let (num, den) = if g == 0 {
            (0, 1)
        } else {
            (sign * num / g, sign * den / g)
        };
        let num = i64::try_from(num).map_err(|_| TimeError::Overflow { op: "reduce" })?;
        let den = i64::try_from(den).map_err(|_| TimeError::Overflow { op: "reduce" })?;
        Ok(Rational { num, den })
    }

    /// The (reduced) numerator. Carries the sign of the value.
    #[inline]
    pub fn numer(self) -> i64 {
        self.num
    }

    /// The (reduced) denominator; always positive.
    #[inline]
    pub fn denom(self) -> i64 {
        self.den
    }

    /// `true` when the value is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// `true` when the value is an integer.
    #[inline]
    pub fn is_integer(self) -> bool {
        self.den == 1
    }

    /// The sign of the value: `-1`, `0`, or `1`.
    #[inline]
    pub fn signum(self) -> i64 {
        self.num.signum()
    }

    /// Absolute value.
    #[inline]
    pub fn abs(self) -> Rational {
        Rational {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// Multiplicative inverse. Panics when the value is zero.
    pub fn recip(self) -> Rational {
        self.checked_recip().expect("reciprocal of zero")
    }

    /// Multiplicative inverse, reporting zero input.
    pub fn checked_recip(self) -> Result<Rational, TimeError> {
        if self.num == 0 {
            return Err(TimeError::DivisionByZero);
        }
        let sign = self.num.signum();
        Ok(Rational {
            num: sign * self.den,
            den: self.num.abs(),
        })
    }

    /// Checked addition.
    pub fn checked_add(self, rhs: Rational) -> Result<Rational, TimeError> {
        let num = self.num as i128 * rhs.den as i128 + rhs.num as i128 * self.den as i128;
        let den = self.den as i128 * rhs.den as i128;
        Self::reduce(num, den).map_err(|_| TimeError::Overflow { op: "add" })
    }

    /// Checked subtraction.
    pub fn checked_sub(self, rhs: Rational) -> Result<Rational, TimeError> {
        let num = self.num as i128 * rhs.den as i128 - rhs.num as i128 * self.den as i128;
        let den = self.den as i128 * rhs.den as i128;
        Self::reduce(num, den).map_err(|_| TimeError::Overflow { op: "sub" })
    }

    /// Checked multiplication.
    pub fn checked_mul(self, rhs: Rational) -> Result<Rational, TimeError> {
        let num = self.num as i128 * rhs.num as i128;
        let den = self.den as i128 * rhs.den as i128;
        Self::reduce(num, den).map_err(|_| TimeError::Overflow { op: "mul" })
    }

    /// Checked division; reports division by zero.
    pub fn checked_div(self, rhs: Rational) -> Result<Rational, TimeError> {
        if rhs.num == 0 {
            return Err(TimeError::DivisionByZero);
        }
        let num = self.num as i128 * rhs.den as i128;
        let den = self.den as i128 * rhs.num as i128;
        Self::reduce(num, den).map_err(|_| TimeError::Overflow { op: "div" })
    }

    /// Largest integer not greater than the value.
    pub fn floor(self) -> i64 {
        if self.num >= 0 {
            self.num / self.den
        } else {
            // Rust's `/` truncates toward zero; adjust for negative values.
            (self.num - (self.den - 1)) / self.den
        }
    }

    /// Smallest integer not less than the value.
    pub fn ceil(self) -> i64 {
        if self.num > 0 {
            (self.num + (self.den - 1)) / self.den
        } else {
            self.num / self.den
        }
    }

    /// Nearest integer; exact halves round away from zero.
    pub fn round(self) -> i64 {
        let twice = Rational::new(self.num.signum(), 2);
        (self + twice).trunc_toward_neg_for_round(self.num.signum())
    }

    /// Helper for `round`: floor for positive bias, ceil for negative.
    fn trunc_toward_neg_for_round(self, sign: i64) -> i64 {
        if sign >= 0 {
            self.floor()
        } else {
            self.ceil()
        }
    }

    /// Lossy conversion to `f64`, for presentation only.
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Minimum of two rationals.
    pub fn min(self, other: Rational) -> Rational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Maximum of two rationals.
    pub fn max(self, other: Rational) -> Rational {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Rational {
        Rational { num: v, den: 1 }
    }
}

impl From<i32> for Rational {
    fn from(v: i32) -> Rational {
        Rational {
            num: v as i64,
            den: 1,
        }
    }
}

impl From<u32> for Rational {
    fn from(v: u32) -> Rational {
        Rational {
            num: v as i64,
            den: 1,
        }
    }
}

impl Default for Rational {
    fn default() -> Rational {
        Rational::ZERO
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Rational) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Rational) -> Ordering {
        // Cross-multiply in i128; denominators are positive so order is preserved.
        let lhs = self.num as i128 * other.den as i128;
        let rhs = other.num as i128 * self.den as i128;
        lhs.cmp(&rhs)
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        self.checked_add(rhs).expect("rational add overflow")
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        self.checked_sub(rhs).expect("rational sub overflow")
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        self.checked_mul(rhs).expect("rational mul overflow")
    }
}

impl Div for Rational {
    type Output = Rational;
    fn div(self, rhs: Rational) -> Rational {
        self.checked_div(rhs)
            .expect("rational div by zero/overflow")
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Rational) {
        *self = *self - rhs;
    }
}

impl MulAssign for Rational {
    fn mul_assign(&mut self, rhs: Rational) {
        *self = *self * rhs;
    }
}

impl DivAssign for Rational {
    fn div_assign(&mut self, rhs: Rational) {
        *self = *self / rhs;
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.num, self.den)
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduces_on_construction() {
        assert_eq!(Rational::new(4, 8), Rational::new(1, 2));
        assert_eq!(Rational::new(-4, 8), Rational::new(-1, 2));
        assert_eq!(Rational::new(4, -8), Rational::new(-1, 2));
        assert_eq!(Rational::new(-4, -8), Rational::new(1, 2));
        assert_eq!(Rational::new(0, -7), Rational::ZERO);
    }

    #[test]
    fn zero_denominator_rejected() {
        assert_eq!(
            Rational::checked_new(1, 0).unwrap_err(),
            TimeError::ZeroDenominator
        );
    }

    #[test]
    fn arithmetic_basics() {
        let a = Rational::new(1, 3);
        let b = Rational::new(1, 6);
        assert_eq!(a + b, Rational::new(1, 2));
        assert_eq!(a - b, Rational::new(1, 6));
        assert_eq!(a * b, Rational::new(1, 18));
        assert_eq!(a / b, Rational::from(2));
        assert_eq!(-a, Rational::new(-1, 3));
    }

    #[test]
    fn ntsc_frame_times_are_exact() {
        // 30000/1001 fps: 30000 frames take exactly 1001 seconds.
        let rate = Rational::new(30000, 1001);
        let period = rate.recip();
        let total = period * Rational::from(30000);
        assert_eq!(total, Rational::from(1001));
    }

    #[test]
    fn ordering_is_exact() {
        assert!(Rational::new(1, 3) < Rational::new(34, 100));
        assert!(Rational::new(-1, 2) < Rational::ZERO);
        assert_eq!(
            Rational::new(2, 4).cmp(&Rational::new(1, 2)),
            Ordering::Equal
        );
    }

    #[test]
    fn floor_ceil_round() {
        assert_eq!(Rational::new(7, 2).floor(), 3);
        assert_eq!(Rational::new(7, 2).ceil(), 4);
        assert_eq!(Rational::new(7, 2).round(), 4);
        assert_eq!(Rational::new(-7, 2).floor(), -4);
        assert_eq!(Rational::new(-7, 2).ceil(), -3);
        assert_eq!(Rational::new(-7, 2).round(), -4);
        assert_eq!(Rational::new(5, 3).round(), 2);
        assert_eq!(Rational::new(4, 3).round(), 1);
        assert_eq!(Rational::from(9).floor(), 9);
        assert_eq!(Rational::from(-9).ceil(), -9);
    }

    #[test]
    fn reciprocal() {
        assert_eq!(Rational::new(3, 4).recip(), Rational::new(4, 3));
        assert_eq!(Rational::new(-3, 4).recip(), Rational::new(-4, 3));
        assert!(Rational::ZERO.checked_recip().is_err());
    }

    #[test]
    fn division_by_zero_reported() {
        assert_eq!(
            Rational::ONE.checked_div(Rational::ZERO).unwrap_err(),
            TimeError::DivisionByZero
        );
    }

    #[test]
    fn overflow_reported_not_wrapped() {
        let big = Rational::from(i64::MAX);
        assert!(big.checked_add(Rational::ONE).is_err());
        assert!(big.checked_mul(Rational::from(2)).is_err());
    }

    #[test]
    fn reducible_intermediates_do_not_overflow() {
        // (MAX/3) * 3 stays in range because reduction happens on i128.
        let third = Rational::new(i64::MAX, 3);
        let r = third.checked_mul(Rational::from(3)).unwrap();
        assert_eq!(r, Rational::from(i64::MAX));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Rational::new(30000, 1001).to_string(), "30000/1001");
        assert_eq!(Rational::from(25).to_string(), "25");
        assert_eq!(format!("{:?}", Rational::from(25)), "25/1");
    }

    #[test]
    fn min_max() {
        let a = Rational::new(1, 3);
        let b = Rational::new(1, 2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    /// The 64-bit fast path of `reduce` against the `i128`-only reduction,
    /// which is kept as the reference: every constructor and operator must
    /// return the same value or the same error through either.
    mod fast_path {
        use super::*;
        use proptest::prelude::*;
        use proptest::test_runner::TestCaseError;

        /// `checked_new` and the four operators as the seed computed them:
        /// `i128` intermediates straight into `reduce128`.
        fn reference(op: &'static str, a: Rational, b: Rational) -> Result<Rational, TimeError> {
            let (an, ad, bn, bd) = (a.num as i128, a.den as i128, b.num as i128, b.den as i128);
            let (num, den) = match op {
                "add" => (an * bd + bn * ad, ad * bd),
                "sub" => (an * bd - bn * ad, ad * bd),
                "mul" => (an * bn, ad * bd),
                "div" if bn == 0 => return Err(TimeError::DivisionByZero),
                "div" => (an * bd, ad * bn),
                _ => unreachable!("unknown op {op}"),
            };
            Rational::reduce128(num, den).map_err(|_| TimeError::Overflow { op })
        }

        fn check_ops(a: Rational, b: Rational) -> Result<(), TestCaseError> {
            prop_assert_eq!(a.checked_add(b), reference("add", a, b));
            prop_assert_eq!(a.checked_sub(b), reference("sub", a, b));
            prop_assert_eq!(a.checked_mul(b), reference("mul", a, b));
            prop_assert_eq!(a.checked_div(b), reference("div", a, b));
            Ok(())
        }

        /// Edge values first, then the whole `i64` range.
        fn wide() -> impl Strategy<Value = i64> {
            prop_oneof![
                Just(i64::MIN),
                Just(i64::MIN + 1),
                Just(i64::MAX),
                Just(-1i64),
                Just(0i64),
                Just(1i64),
                any::<i64>(),
            ]
        }

        /// Operands whose pairwise products straddle the 64-bit boundary.
        fn near_boundary() -> impl Strategy<Value = i64> {
            let within = |bound: i64| -bound..bound;
            prop_oneof![within(1 << 33), within(1 << 31), within(1_000_000)]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn checked_new_matches_reference(num in wide(), den in wide()) {
                let want = if den == 0 {
                    Err(TimeError::ZeroDenominator)
                } else {
                    Rational::reduce128(num as i128, den as i128)
                };
                prop_assert_eq!(Rational::checked_new(num, den), want.clone());
                if let Ok(r) = want {
                    prop_assert!(r.den > 0);
                    prop_assert_eq!(gcd64(r.num.unsigned_abs(), r.den.unsigned_abs()), 1);
                }
            }

            #[test]
            fn operators_match_reference_over_i64(
                an in wide(), ad in wide(), bn in wide(), bd in wide(),
            ) {
                // Build operands without going through `reduce`, so even
                // values `checked_new` would refuse are exercised when they
                // are valid (positive denominator, already reduced).
                let (Ok(a), Ok(b)) = (
                    Rational::reduce128(an as i128, ad.max(1) as i128),
                    Rational::reduce128(bn as i128, bd.max(1) as i128),
                ) else {
                    return Ok(());
                };
                check_ops(a, b)?;
            }

            #[test]
            fn operators_match_reference_around_64_bits(
                an in near_boundary(), ad in near_boundary(),
                bn in near_boundary(), bd in near_boundary(),
            ) {
                prop_assume!(ad != 0 && bd != 0);
                let (a, b) = (Rational::new(an, ad), Rational::new(bn, bd));
                // Both sides of the boundary must actually be hit.
                check_ops(a, b)?;
                check_ops(a * Rational::from(1 << 20), b)?;
            }
        }

        #[test]
        fn both_paths_are_exercised() {
            // Fits 64 bits: the fast path; does not: the fallback.
            let small = Rational::new(1 << 20, 3);
            let big = Rational::new((1 << 40) + 1, 3);
            assert!((small.num as i128 * small.num as i128) < i64::MAX as i128);
            assert!((big.num as i128 * big.num as i128) > i64::MAX as i128);
            assert_eq!(small.checked_mul(small), reference("mul", small, small));
            assert_eq!(big.checked_mul(big), reference("mul", big, big));
            // i64::MIN over a negative denominator does not fit once the
            // sign moves to the numerator...
            assert_eq!(
                Rational::checked_new(i64::MIN, -1),
                Err(TimeError::Overflow { op: "reduce" })
            );
            // ...unless the reduction shrinks it first.
            assert_eq!(Rational::checked_new(i64::MIN, i64::MIN), Ok(Rational::ONE));
            assert_eq!(
                Rational::checked_new(i64::MIN, -2),
                Ok(Rational::from(1i64 << 62))
            );
            assert_eq!(
                Rational::checked_new(1, i64::MIN),
                Err(TimeError::Overflow { op: "reduce" })
            );
            assert_eq!(Rational::checked_new(0, i64::MIN), Ok(Rational::ZERO));
        }
    }
}
