//! Parallel prefix scan.
//!
//! §3 of the paper: scan is "a common and efficient parallel primitive
//! [used] to reorganize sparse and uneven workloads into dense and uniform
//! ones in all phases of graph processing". The load-balanced advance
//! scans frontier degrees to compute output offsets; compact-style filter
//! scans validity flags.
//!
//! Implementation: the classic three-phase chunked scan (per-chunk
//! reduce, scan of chunk sums, per-chunk downsweep), sequential below
//! [`crate::config::SEQUENTIAL_CUTOFF`].

use crate::config::SEQUENTIAL_CUTOFF;
use crate::par;

/// Exclusive scan with a caller-supplied associative operator.
/// Returns the scanned vector and the total reduction.
pub fn scan_exclusive<T, F>(input: &[T], identity: T, op: F) -> (Vec<T>, T)
where
    T: Copy + Send + Sync,
    F: Fn(T, T) -> T + Send + Sync,
{
    let n = input.len();
    if n == 0 {
        return (Vec::new(), identity);
    }
    if n < SEQUENTIAL_CUTOFF || par::threads() == 1 {
        let mut out = Vec::with_capacity(n);
        let mut acc = identity;
        for &x in input {
            out.push(acc);
            acc = op(acc, x);
        }
        return (out, acc);
    }
    let chunk = n.div_ceil(par::threads() * 4).max(1);
    // Phase 1: per-chunk reductions.
    let mut sums = Vec::new();
    par::collect_into(
        input.chunks(chunk),
        |c| c.iter().fold(identity, |a, &b| op(a, b)),
        &mut sums,
    );
    // Phase 2: sequential scan of the (small) chunk sums.
    let mut acc = identity;
    for s in sums.iter_mut() {
        let prev = acc;
        acc = op(acc, *s);
        *s = prev;
    }
    // Phase 3: downsweep each chunk with its base offset.
    let mut out = vec![identity; n];
    par::for_each(
        out.chunks_mut(chunk).zip(input.chunks(chunk)).zip(&sums),
        |((o, c), &base)| {
            let mut acc = base;
            for (slot, &x) in o.iter_mut().zip(c) {
                *slot = acc;
                acc = op(acc, x);
            }
        },
    );
    (out, acc)
}

/// Inclusive scan with a caller-supplied associative operator.
pub fn scan_inclusive<T, F>(input: &[T], identity: T, op: F) -> Vec<T>
where
    T: Copy + Send + Sync,
    F: Fn(T, T) -> T + Send + Sync,
{
    let (mut out, _) = scan_exclusive(input, identity, &op);
    let grain = crate::config::grain_size(input.len());
    par::for_each(out.chunks_mut(grain).zip(input.chunks(grain)), |(o, c)| {
        for (o, &x) in o.iter_mut().zip(c) {
            *o = op(*o, x);
        }
    });
    out
}

/// Exclusive prefix sum of `u32` values (the workhorse: degree arrays,
/// validity flags). Returns `(offsets, total)`.
pub fn scan_exclusive_u32(input: &[u32]) -> (Vec<u32>, u32) {
    scan_exclusive(input, 0u32, |a, b| a + b)
}

/// Exclusive prefix sum of `u32` values into a caller-supplied buffer
/// (a pooled scratch in the zero-allocation advance path). The buffer
/// is cleared, then filled with the scanned offsets; returns the total.
/// Allocation-free when `out` already has capacity for the input
/// (except for the O(threads) chunk-sums vector on the parallel path,
/// amortized over at least [`SEQUENTIAL_CUTOFF`] elements).
pub fn scan_exclusive_u32_into(input: &[u32], out: &mut Vec<u32>) -> u32 {
    out.clear();
    let n = input.len();
    if n == 0 {
        return 0;
    }
    if n < SEQUENTIAL_CUTOFF || par::threads() == 1 {
        out.reserve(n);
        let mut acc = 0u32;
        for &x in input {
            out.push(acc);
            acc += x;
        }
        return acc;
    }
    let chunk = n.div_ceil(par::threads() * 4).max(1);
    // Phase 1: per-chunk reductions.
    let mut sums = Vec::new();
    par::collect_into(input.chunks(chunk), |c| c.iter().sum::<u32>(), &mut sums);
    // Phase 2: sequential scan of the (small) chunk sums.
    let mut acc = 0u32;
    for s in sums.iter_mut() {
        let prev = acc;
        acc += *s;
        *s = prev;
    }
    // Phase 3: downsweep each chunk with its base offset.
    out.resize(n, 0);
    par::for_each(
        out.chunks_mut(chunk).zip(input.chunks(chunk)).zip(&sums),
        |((o, c), &base)| {
            let mut acc = base;
            for (slot, &x) in o.iter_mut().zip(c) {
                *slot = acc;
                acc += x;
            }
        },
    );
    acc
}

/// Exclusive prefix sum of `usize` values.
pub fn scan_exclusive_usize(input: &[usize]) -> (Vec<usize>, usize) {
    scan_exclusive(input, 0usize, |a, b| a + b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_exclusive(input: &[u32]) -> (Vec<u32>, u32) {
        let mut out = Vec::with_capacity(input.len());
        let mut acc = 0u32;
        for &x in input {
            out.push(acc);
            acc += x;
        }
        (out, acc)
    }

    #[test]
    fn empty_input() {
        let (v, t) = scan_exclusive_u32(&[]);
        assert!(v.is_empty());
        assert_eq!(t, 0);
    }

    #[test]
    fn small_sequential_path() {
        let (v, t) = scan_exclusive_u32(&[1, 2, 3, 4]);
        assert_eq!(v, vec![0, 1, 3, 6]);
        assert_eq!(t, 10);
    }

    #[test]
    fn large_parallel_path_matches_reference() {
        let input: Vec<u32> = (0..100_000).map(|i| (i * 7 + 3) % 11).collect();
        let (got, total) = scan_exclusive_u32(&input);
        let (want, want_total) = reference_exclusive(&input);
        assert_eq!(got, want);
        assert_eq!(total, want_total);
    }

    #[test]
    fn scan_into_matches_allocating_scan_and_reuses_capacity() {
        let mut out = Vec::new();
        for n in [0usize, 4, 100, 100_000] {
            let input: Vec<u32> = (0..n as u32).map(|i| (i * 13 + 1) % 7).collect();
            let total = scan_exclusive_u32_into(&input, &mut out);
            let (want, want_total) = scan_exclusive_u32(&input);
            assert_eq!(out, want, "n={n}");
            assert_eq!(total, want_total, "n={n}");
        }
        // a second pass over the biggest input must not grow the buffer
        let input: Vec<u32> = (0..100_000).map(|i| i % 3).collect();
        let _ = scan_exclusive_u32_into(&input, &mut out);
        let cap = out.capacity();
        let _ = scan_exclusive_u32_into(&input, &mut out);
        assert_eq!(out.capacity(), cap);
    }

    #[test]
    fn inclusive_scan() {
        let v = scan_inclusive(&[1u32, 2, 3], 0, |a, b| a + b);
        assert_eq!(v, vec![1, 3, 6]);
    }

    #[test]
    fn non_commutative_operator_ordering() {
        // max is associative & commutative; use string-like ordering via
        // pairs to check order preservation instead: (first, last) compose.
        let input: Vec<(u32, u32)> = (0..50_000).map(|i| (i, i)).collect();
        let op = |a: (u32, u32), b: (u32, u32)| {
            if a == (u32::MAX, u32::MAX) {
                b
            } else if b == (u32::MAX, u32::MAX) {
                a
            } else {
                (a.0, b.1)
            }
        };
        let (scanned, total) = scan_exclusive(&input, (u32::MAX, u32::MAX), op);
        assert_eq!(total, (0, 49_999));
        assert_eq!(scanned[1], (0, 0));
        assert_eq!(scanned[49_999], (0, 49_998));
    }

    #[test]
    fn scan_of_max_operator() {
        let input = [3u32, 1, 4, 1, 5, 9, 2, 6];
        let v = scan_inclusive(&input, 0, |a, b| a.max(b));
        assert_eq!(v, vec![3, 3, 4, 4, 5, 9, 9, 9]);
    }
}
