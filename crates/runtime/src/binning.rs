//! Row binning by work estimate.
//!
//! Every row-row SpGEMM method the paper compares against groups rows by a
//! cheap upper bound on their work before choosing a kernel per group:
//! bhSPARSE uses 38 bins, NSPARSE bins twice (symbolic and numeric rounds),
//! and spECK's "lightweight analysis" is a coarse binning. This module
//! provides the shared primitive: partition `0..n` row ids into power-of-two
//! buckets of a per-row key, in parallel.

use rayon::prelude::*;

/// Rows grouped into power-of-two buckets of their key.
///
/// Bucket `b` holds rows whose key `k` satisfies:
/// * `b == 0`: `k == 0`;
/// * otherwise: `2^(b-1) <= k < 2^b`, with the last bucket also absorbing
///   everything at or above its lower bound.
#[derive(Debug, Clone)]
pub struct Bins {
    /// Row ids, grouped bucket by bucket.
    pub rows: Vec<u32>,
    /// Bucket boundaries into `rows`; bucket `b` is
    /// `rows[bounds[b]..bounds[b + 1]]`. Length `bucket_count + 1`.
    pub bounds: Vec<usize>,
}

impl Bins {
    /// The row ids in bucket `b`.
    pub fn bucket(&self, b: usize) -> &[u32] {
        &self.rows[self.bounds[b]..self.bounds[b + 1]]
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Iterates `(bucket_index, rows)` over non-empty buckets.
    pub fn iter_nonempty(&self) -> impl Iterator<Item = (usize, &[u32])> {
        (0..self.bucket_count())
            .map(move |b| (b, self.bucket(b)))
            .filter(|(_, rows)| !rows.is_empty())
    }
}

/// Which bucket a key belongs to, clamped to `bucket_count` buckets.
pub fn bucket_of(key: usize, bucket_count: usize) -> usize {
    debug_assert!(bucket_count >= 2);
    if key == 0 {
        0
    } else {
        let b = (usize::BITS - key.leading_zeros()) as usize; // floor(log2(key)) + 1
        b.min(bucket_count - 1)
    }
}

/// Bins rows `0..n` into `bucket_count` power-of-two buckets of `key(row)`.
///
/// Runs the key evaluation in parallel; the grouping itself is a counting
/// sort, so the relative order of rows inside a bucket is ascending by row id
/// (deterministic output).
pub fn bin_rows_by(n: usize, bucket_count: usize, key: impl Fn(usize) -> usize + Sync) -> Bins {
    assert!(bucket_count >= 2, "need at least buckets for 0 and >0");
    let buckets: Vec<u8> = (0..n)
        .into_par_iter()
        .map(|row| bucket_of(key(row), bucket_count) as u8)
        .collect();
    let mut counts = vec![0usize; bucket_count];
    for &b in &buckets {
        counts[b as usize] += 1;
    }
    let mut bounds = vec![0usize; bucket_count + 1];
    crate::scan::exclusive_scan_to(&counts, &mut bounds);
    let mut cursor = bounds[..bucket_count].to_vec();
    let mut rows = vec![0u32; n];
    for (row, &b) in buckets.iter().enumerate() {
        rows[cursor[b as usize]] = row as u32;
        cursor[b as usize] += 1;
    }
    Bins { rows, bounds }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_of_is_power_of_two_ranges() {
        assert_eq!(bucket_of(0, 8), 0);
        assert_eq!(bucket_of(1, 8), 1);
        assert_eq!(bucket_of(2, 8), 2);
        assert_eq!(bucket_of(3, 8), 2);
        assert_eq!(bucket_of(4, 8), 3);
        assert_eq!(bucket_of(7, 8), 3);
        assert_eq!(bucket_of(8, 8), 4);
        // Clamped to the last bucket.
        assert_eq!(bucket_of(usize::MAX, 8), 7);
    }

    #[test]
    fn binning_partitions_all_rows_exactly_once() {
        let keys = [0usize, 1, 5, 5, 16, 2, 0, 1000];
        let bins = bin_rows_by(keys.len(), 6, |r| keys[r]);
        let mut seen: Vec<u32> = bins.rows.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..keys.len() as u32).collect::<Vec<_>>());
        assert_eq!(bins.bucket(0), &[0, 6]); // keys == 0
        assert_eq!(bins.bucket(1), &[1]); // key == 1
        assert_eq!(bins.bucket(2), &[5]); // key == 2
        assert_eq!(bins.bucket(3), &[2, 3]); // keys 4..8
        assert_eq!(bins.bucket(5), &[4, 7]); // keys >= 16 (clamped)
    }

    #[test]
    fn bucket_membership_matches_bucket_of() {
        let keys: Vec<usize> = (0..500).map(|i| (i * 37) % 97).collect();
        let bins = bin_rows_by(keys.len(), 10, |r| keys[r]);
        for (b, rows) in bins.iter_nonempty() {
            for &r in rows {
                assert_eq!(bucket_of(keys[r as usize], 10), b);
            }
        }
    }

    #[test]
    fn rows_within_bucket_are_ascending() {
        let keys: Vec<usize> = (0..200).map(|i| i % 3).collect();
        let bins = bin_rows_by(keys.len(), 4, |r| keys[r]);
        for (_, rows) in bins.iter_nonempty() {
            assert!(rows.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn empty_input_produces_empty_bins() {
        let bins = bin_rows_by(0, 4, |_| 0);
        assert!(bins.rows.is_empty());
        assert_eq!(bins.bucket_count(), 4);
        assert!(bins.iter_nonempty().next().is_none());
    }
}
