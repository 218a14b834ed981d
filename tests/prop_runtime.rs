//! Property-based tests of the runtime substrate primitives the kernels
//! lean on: prefix scans, disjoint-window splitting, and binning.

use proptest::prelude::*;
use tilespgemm::runtime::{
    bin_rows_by, exclusive_scan_in_place, exclusive_scan_to, par_exclusive_scan_in_place,
    split_mut_by_offsets,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn scans_agree_and_match_spec(values in proptest::collection::vec(0usize..100, 0..2000)) {
        let mut serial = values.clone();
        let total_serial = exclusive_scan_in_place(&mut serial);
        let mut parallel = values.clone();
        let total_parallel = par_exclusive_scan_in_place(&mut parallel);
        prop_assert_eq!(total_serial, total_parallel);
        prop_assert_eq!(&serial, &parallel);
        // Spec: out[i] == sum(values[..i]).
        let mut running = 0usize;
        for (i, v) in values.iter().enumerate() {
            prop_assert_eq!(serial[i], running);
            running += v;
        }
        prop_assert_eq!(total_serial, running);
    }

    #[test]
    fn scan_to_matches_in_place(values in proptest::collection::vec(0usize..50, 0..500)) {
        let mut out = vec![0usize; values.len() + 1];
        let total = exclusive_scan_to(&values, &mut out);
        let mut in_place = values.clone();
        let total2 = exclusive_scan_in_place(&mut in_place);
        prop_assert_eq!(total, total2);
        prop_assert_eq!(&out[..values.len()], &in_place[..]);
        prop_assert_eq!(out[values.len()], total);
    }

    #[test]
    fn split_windows_partition_exactly(counts in proptest::collection::vec(0usize..20, 1..100)) {
        let mut offsets = vec![0usize; counts.len() + 1];
        let total = exclusive_scan_to(&counts, &mut offsets);
        let mut data: Vec<usize> = (0..total).collect();
        let windows = split_mut_by_offsets(&mut data, &offsets);
        prop_assert_eq!(windows.len(), counts.len());
        // Window lengths match the counts, contents are the right slices.
        let mut expect_start = 0usize;
        for (w, &c) in windows.iter().zip(counts.iter()) {
            prop_assert_eq!(w.len(), c);
            for (k, &v) in w.iter().enumerate() {
                prop_assert_eq!(v, expect_start + k);
            }
            expect_start += c;
        }
    }

    #[test]
    fn binning_is_a_partition(keys in proptest::collection::vec(0usize..10_000, 0..500)) {
        let bins = bin_rows_by(keys.len(), 16, |i| keys[i]);
        let mut seen: Vec<u32> = bins.rows.clone();
        seen.sort_unstable();
        let expect: Vec<u32> = (0..keys.len() as u32).collect();
        prop_assert_eq!(seen, expect);
        // Monotone bucket keys: everything in bucket b+1 is at least as
        // large as the largest key in bucket b (power-of-two ranges).
        let mut last_max = 0usize;
        for (_, rows) in bins.iter_nonempty() {
            let lo = rows.iter().map(|&r| keys[r as usize]).min().unwrap();
            let hi = rows.iter().map(|&r| keys[r as usize]).max().unwrap();
            prop_assert!(lo >= last_max || last_max == 0 || lo == 0);
            last_max = hi;
        }
    }
}
