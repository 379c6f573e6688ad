//! Order statistics over one run's samples.

/// Sorts a copy of `v` ascending (NaN-free input assumed).
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The median, interpolating between the middle pair; `None` when empty.
pub fn median(v: &[f64]) -> Option<f64> {
    let s = sorted(v);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// A nearest-rank percentile and how many samples lie above it.
#[derive(Debug, Clone, Copy)]
pub struct Percentile {
    pub pct: f64,
    pub value: f64,
    pub n: usize,
    pub beyond: usize,
}

/// The nearest-rank `pct`-th percentile of `v`; `None` when empty.
pub fn percentile(v: &[f64], pct: f64) -> Option<Percentile> {
    let s = sorted(v);
    let n = s.len();
    if n == 0 {
        return None;
    }
    let rank = ((pct / 100.0) * n as f64).ceil().max(1.0) as usize;
    let k = rank.min(n) - 1;
    Some(Percentile {
        pct,
        value: s[k],
        n,
        beyond: n - 1 - k,
    })
}

/// Σ of the per-key medians: the cost of one pass over every key (one
/// design each), robust to a slow repeat of any single key.
pub fn sum_of_medians<'a>(groups: impl IntoIterator<Item = &'a Vec<f64>>) -> Option<f64> {
    groups.into_iter().map(|g| median(g)).sum::<Option<f64>>()
}

/// Splits time-ordered `units` into `n` contiguous, non-empty chunks of
/// near-equal length (fewer when there are fewer units).
pub fn chunks<T>(units: &[T], n: usize) -> Vec<&[T]> {
    let n = n.clamp(1, units.len().max(1));
    (0..n)
        .map(|i| &units[i * units.len() / n..(i + 1) * units.len() / n])
        .filter(|chunk| !chunk.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_every_unit_once() {
        let units: Vec<f64> = (0..10).map(f64::from).collect();
        // {0,1,2} {3,4,5} {6,7,8,9}
        let sums: Vec<f64> = chunks(&units, 3).iter().map(|c| c.iter().sum()).collect();
        assert_eq!(sums, vec![3.0, 12.0, 30.0]);
        assert_eq!(chunks(&units[..2], 5).len(), 2);
        assert!(chunks::<f64>(&[], 3).is_empty());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_counts_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = percentile(&v, 90.0).unwrap();
        assert_eq!(p.value, 90.0);
        assert_eq!(p.beyond, 10);
        assert_eq!(percentile(&v, 100.0).unwrap().beyond, 0);
    }

    #[test]
    fn sum_of_medians_adds_each_group_median() {
        let groups = [vec![1.0, 9.0, 2.0], vec![10.0]];
        assert_eq!(sum_of_medians(&groups), Some(12.0));
    }
}
