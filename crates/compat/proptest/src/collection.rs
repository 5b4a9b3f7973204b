//! Collection strategies (`prop::collection`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use core::ops::{Range, RangeInclusive};

/// A range of collection sizes; inclusive lower, exclusive upper.
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n + 1 }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi: r.end,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange {
            lo: *r.start(),
            hi: *r.end() + 1,
        }
    }
}

/// Generates `Vec`s whose elements come from `element`; see [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        let span = (self.size.hi - self.size.lo) as u64;
        let len = self.size.lo + rng.below(span.max(1)) as usize;
        (0..len).map(|_| self.element.sample(rng)).collect()
    }
}

/// A strategy for `Vec`s of `size` elements drawn from `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}
