//! The weight domain used throughout the workspace.
//!
//! The paper works with an arbitrary real weight function `w : E -> R`. For a
//! reproducible, exactly-testable implementation we use 64-bit integers
//! (every `i64` is a weight), and ties between equal weights are broken by
//! [`EdgeId`], which makes the minimum spanning forest *unique* and lets the
//! test-suite compare the dynamic structures against the static Kruskal
//! reference edge-for-edge.

use crate::ids::EdgeId;
use std::fmt;

/// An edge weight: any 64-bit integer.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Weight(i64);

impl Weight {
    /// The largest weight.
    pub const MAX: Weight = Weight(i64::MAX);
    /// Zero.
    pub const ZERO: Weight = Weight(0);

    /// The weight `value`.
    #[inline]
    pub fn new(value: i64) -> Self {
        Weight(value)
    }

    /// The raw value.
    #[inline]
    pub fn raw(self) -> i64 {
        self.0
    }

    /// The value as an `i128`, for overflow-free summation.
    #[inline]
    pub fn as_summable(self) -> i128 {
        i128::from(self.0)
    }
}

impl From<i64> for Weight {
    fn from(v: i64) -> Self {
        Weight::new(v)
    }
}

impl fmt::Debug for Weight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for Weight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A weight together with its tie-breaking edge id.
///
/// `WKey` is what every comparison inside the dynamic structures actually
/// uses: two distinct edges never compare equal, so "the" minimum-weight
/// replacement edge and "the" heaviest edge on a path are well defined and
/// identical across all implementations. The `PLUS_INF` sentinel plays the
/// role of the `∞` entries of the paper's `CAdj` vectors.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WKey {
    /// The weight (primary key).
    pub weight: Weight,
    /// The edge id (secondary key, breaks ties deterministically).
    pub edge: EdgeId,
}

impl WKey {
    /// The `∞` sentinel: larger than the key of any real edge.
    pub const PLUS_INF: WKey = WKey {
        weight: Weight::MAX,
        edge: EdgeId::NONE,
    };

    /// Key for the given edge.
    #[inline]
    pub fn new(weight: Weight, edge: EdgeId) -> Self {
        WKey { weight, edge }
    }

    /// Whether this is the `∞` sentinel (no edge).
    #[inline]
    pub fn is_inf(self) -> bool {
        self.edge.is_none()
    }

    /// Entry-wise minimum, exactly the aggregation the LSDS performs on
    /// `CAdj` entries.
    #[inline]
    pub fn min(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl fmt::Debug for WKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_inf() {
            write!(f, "∞")
        } else {
            write!(f, "({:?},{:?})", self.weight, self.edge)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summable_is_the_value() {
        assert_eq!(Weight::new(-5).as_summable(), -5);
    }

    #[test]
    fn wkey_ordering_breaks_ties_by_edge_id() {
        let a = WKey::new(Weight::new(7), EdgeId(1));
        let b = WKey::new(Weight::new(7), EdgeId(2));
        let c = WKey::new(Weight::new(8), EdgeId(0));
        assert!(a < b);
        assert!(b < c);
        assert!(c < WKey::PLUS_INF);
        assert_eq!(a.min(b), a);
        assert_eq!(WKey::PLUS_INF.min(c), c);
    }

    #[test]
    fn plus_inf_is_inf() {
        assert!(WKey::PLUS_INF.is_inf());
        assert!(!WKey::new(Weight::ZERO, EdgeId(0)).is_inf());
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Weight::new(12)), "12");
        assert_eq!(format!("{:?}", WKey::PLUS_INF), "∞");
    }
}
