//! NaN-safe total-order helpers for `f64`.
//!
//! The trace-driven comparisons this workspace reproduces are only valid
//! when every float ordering is total: a NaN slipping into a
//! `partial_cmp().unwrap()` turns a quiet model-fitting bug into a panic
//! (or, with `max_by(partial_cmp)`, into a silently wrong winner). Every
//! sort/min/max over raw floats in the workspace routes through these
//! helpers, which delegate to [`f64::total_cmp`]; the `float-compare`
//! rule of `ecas-lint` keeps it that way.
//!
//! # Examples
//!
//! ```
//! use ecas_types::float;
//!
//! let mut xs = vec![2.0, f64::NAN, 1.0];
//! float::total_sort(&mut xs);
//! assert_eq!(xs[0], 1.0);
//! assert_eq!(xs[1], 2.0);
//! assert!(xs[2].is_nan()); // NaN sorts last, deterministically
//!
//! assert_eq!(float::total_max([1.0, 3.0, 2.0]), Some(3.0));
//! assert_eq!(float::total_min([1.0, 3.0, 2.0]), Some(1.0));
//! ```

/// Sorts a float slice with the IEEE-754 total order (NaN sorts after
/// every number, `-0.0` before `0.0`).
pub fn total_sort(xs: &mut [f64]) {
    xs.sort_by(f64::total_cmp);
}

/// Sorts a slice by a float key with the total order.
pub fn total_sort_by_key<T>(xs: &mut [T], mut key: impl FnMut(&T) -> f64) {
    xs.sort_by(|a, b| key(a).total_cmp(&key(b)));
}

/// Maximum of a float iterator under the total order; `None` when empty.
pub fn total_max(xs: impl IntoIterator<Item = f64>) -> Option<f64> {
    xs.into_iter().max_by(|a, b| a.total_cmp(b))
}

/// Minimum of a float iterator under the total order; `None` when empty.
pub fn total_min(xs: impl IntoIterator<Item = f64>) -> Option<f64> {
    xs.into_iter().min_by(|a, b| a.total_cmp(b))
}

/// Element whose float key is largest under the total order.
// ecas-lint: allow(pub-surface, reason = "total-order toolkit is paper-facing API; exercised by unit tests")
pub fn total_max_by_key<T>(
    xs: impl IntoIterator<Item = T>,
    mut key: impl FnMut(&T) -> f64,
) -> Option<T> {
    xs.into_iter().max_by(|a, b| key(a).total_cmp(&key(b)))
}

/// Element whose float key is smallest under the total order.
// ecas-lint: allow(pub-surface, reason = "total-order toolkit is paper-facing API; exercised by unit tests")
pub fn total_min_by_key<T>(
    xs: impl IntoIterator<Item = T>,
    mut key: impl FnMut(&T) -> f64,
) -> Option<T> {
    xs.into_iter().min_by(|a, b| key(a).total_cmp(&key(b)))
}

/// Nearest-rank-from-below index of the `p`-quantile in a sorted sample
/// of `n` elements: `floor(p · (n − 1))`, or `None` when `n == 0`.
///
/// This is the workspace's single percentile convention. Rounding the
/// rank (as `ecas-qoe` once did) can report a value *above* the
/// requested quantile, which turns conservative estimates (p25 link
/// bandwidth, p10 "bad minutes" QoE) into optimistic ones.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use ecas_types::float;
///
/// assert_eq!(float::nearest_rank(4, 0.25), Some(0)); // not 1
/// assert_eq!(float::nearest_rank(5, 0.5), Some(2));
/// assert_eq!(float::nearest_rank(5, 1.0), Some(4));
/// assert_eq!(float::nearest_rank(0, 0.5), None);
/// ```
#[must_use]
pub fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    assert!((0.0..=1.0).contains(&p), "quantile must be in [0, 1], got {p}");
    if n == 0 {
        return None;
    }
    let idx = (p * (n - 1) as f64).floor() as usize;
    Some(idx.min(n - 1))
}

#[cfg(test)]
// Tests assert exact fixture values; clippy::float_cmp guards library code.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn nan_sorts_last_and_never_panics() {
        let mut xs = vec![f64::NAN, 1.0, -1.0, f64::INFINITY];
        total_sort(&mut xs);
        assert_eq!(xs[0], -1.0);
        assert_eq!(xs[1], 1.0);
        assert_eq!(xs[2], f64::INFINITY);
        assert!(xs[3].is_nan());
    }

    #[test]
    fn max_min_ignore_order_of_appearance() {
        assert_eq!(total_max([2.0, 9.0, 4.0]), Some(9.0));
        assert_eq!(total_min([2.0, 9.0, 4.0]), Some(2.0));
        assert_eq!(total_max(std::iter::empty()), None);
    }

    #[test]
    fn by_key_variants_return_the_element() {
        let words = ["a", "abc", "ab"];
        let longest = total_max_by_key(words, |w| w.len() as f64);
        assert_eq!(longest, Some("abc"));
        let shortest = total_min_by_key(words, |w| w.len() as f64);
        assert_eq!(shortest, Some("a"));
    }

    #[test]
    fn sort_by_key_orders_structs() {
        let mut pairs = vec![(2.0, 'b'), (1.0, 'a'), (3.0, 'c')];
        total_sort_by_key(&mut pairs, |p| p.0);
        assert_eq!(pairs, vec![(1.0, 'a'), (2.0, 'b'), (3.0, 'c')]);
    }

    #[test]
    fn nearest_rank_is_from_below() {
        // Regression: a rounded rank would pick index 1 here and report a
        // value above the requested quantile.
        assert_eq!(nearest_rank(4, 0.25), Some(0));
        assert_eq!(nearest_rank(3, 0.25), Some(0));
        // Extremes and degenerate sizes.
        assert_eq!(nearest_rank(1, 0.0), Some(0));
        assert_eq!(nearest_rank(1, 1.0), Some(0));
        assert_eq!(nearest_rank(10, 1.0), Some(9));
        assert_eq!(nearest_rank(0, 0.5), None);
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn nearest_rank_rejects_out_of_range() {
        let _ = nearest_rank(5, 1.5);
    }
}
