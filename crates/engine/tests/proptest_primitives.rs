//! Property-based tests for the data-parallel primitives: the engine's
//! correctness obligations are algebraic (scan/compact/partition laws),
//! so they are checked against sequential references on arbitrary
//! inputs, including sizes that straddle the sequential/parallel cutoff.

use gunrock_engine::bitmap::AtomicBitmap;
use gunrock_engine::compact::{compact, compact_indices};
use gunrock_engine::scan::{scan_exclusive, scan_exclusive_u32, scan_inclusive};
use gunrock_engine::search::{merge_path_partitions, owning_segment};
use proptest::prelude::*;

fn arb_vec() -> impl Strategy<Value = Vec<u32>> {
    // cover both the sequential path (< 4096) and the parallel path
    prop_oneof![
        proptest::collection::vec(0u32..100, 0..64),
        proptest::collection::vec(0u32..100, 4000..9000),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn scan_exclusive_matches_reference(v in arb_vec()) {
        let (got, total) = scan_exclusive_u32(&v);
        let mut acc = 0u32;
        for (i, &x) in v.iter().enumerate() {
            prop_assert_eq!(got[i], acc);
            acc += x;
        }
        prop_assert_eq!(total, acc);
    }

    #[test]
    fn inclusive_is_exclusive_plus_element(v in arb_vec()) {
        let (ex, _) = scan_exclusive_u32(&v);
        let inc = scan_inclusive(&v, 0u32, |a, b| a + b);
        for i in 0..v.len() {
            prop_assert_eq!(inc[i], ex[i] + v[i]);
        }
    }

    #[test]
    fn scan_with_max_operator_is_running_max(v in arb_vec()) {
        let inc = scan_inclusive(&v, 0u32, |a, b| a.max(b));
        let mut m = 0u32;
        for (i, &x) in v.iter().enumerate() {
            m = m.max(x);
            prop_assert_eq!(inc[i], m);
        }
    }

    #[test]
    fn compact_equals_sequential_filter(v in arb_vec()) {
        let got = compact(&v, |&x| x % 3 == 0);
        let want: Vec<u32> = v.iter().copied().filter(|&x| x % 3 == 0).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn compact_indices_point_at_matches(v in arb_vec()) {
        let got = compact_indices(&v, |&x| x > 50);
        prop_assert!(got.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(got.len(), v.iter().filter(|&&x| x > 50).count());
        for &i in &got {
            prop_assert!(v[i as usize] > 50);
        }
    }

    #[test]
    fn merge_path_covers_every_work_item(sizes in proptest::collection::vec(0u32..40, 1..50)) {
        let (offsets, total) = scan_exclusive(&sizes, 0u32, |a, b| a + b);
        prop_assume!(total > 0);
        for chunk in [1usize, 7, 64] {
            let starts = merge_path_partitions(&offsets, total, chunk);
            prop_assert_eq!(starts.len(), (total as usize).div_ceil(chunk));
            for (c, &s) in starts.iter().enumerate() {
                prop_assert_eq!(s as usize, owning_segment(&offsets, (c * chunk) as u32));
            }
        }
    }

    #[test]
    fn bitmap_matches_hashset(ops in proptest::collection::vec((0usize..500, any::<bool>()), 0..300)) {
        let bm = AtomicBitmap::new(500);
        let mut set = std::collections::HashSet::new();
        for (i, add) in ops {
            if add {
                bm.set(i);
                set.insert(i);
            } else {
                bm.clear(i);
                set.remove(&i);
            }
        }
        prop_assert_eq!(bm.count_ones(), set.len());
        let mut want: Vec<usize> = set.into_iter().collect();
        want.sort_unstable();
        prop_assert_eq!(bm.iter_ones().collect::<Vec<_>>(), want);
    }
}
