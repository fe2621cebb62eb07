//! Stream compaction: the engine behind Gunrock's exact *filter* operator
//! (§4.1: "using parallel scan for efficient filtering is well-understood
//! on GPUs").
//!
//! One compaction, [`compact_range_into`]: each task filters its own
//! range of ids into place and counts what it kept, and the kept runs
//! are packed in task order, so output preserves input order (the scan
//! is over the per-task counts). [`compact_indices`] and [`compact`] are
//! built on it.

use crate::config::SEQUENTIAL_CUTOFF;
use crate::par;

/// Returns the elements of `input` satisfying `pred`, in order.
pub fn compact<T, F>(input: &[T], pred: F) -> Vec<T>
where
    T: Copy + Sync,
    F: Fn(&T) -> bool + Send + Sync,
{
    // CAST: a kept index points into `input`; widening u32 -> usize.
    compact_indices(input, pred).into_iter().map(|i| input[i as usize]).collect()
}

/// Returns the *indices* of elements satisfying `pred`, in order. Used by
/// frontier filters that operate on index sets.
pub fn compact_indices<T, F>(input: &[T], pred: F) -> Vec<u32>
where
    T: Sync,
    F: Fn(&T) -> bool + Send + Sync,
{
    let mut out = Vec::new();
    compact_indices_into(input, pred, &mut out);
    out
}

/// [`compact_indices`] into a caller-owned buffer: `out` is overwritten
/// and its capacity reused, so a loop that ping-pongs two frontier
/// buffers allocates no output per iteration.
pub fn compact_indices_into<T, F>(input: &[T], pred: F, out: &mut Vec<u32>)
where
    T: Sync,
    F: Fn(&T) -> bool + Send + Sync,
{
    // CAST: i < input.len(), widening u32 -> usize is lossless.
    compact_range_into(input.len(), |i| pred(&input[i as usize]), out);
}

/// The ids in `0..n` satisfying `pred`, ascending, into a caller-owned
/// buffer (overwritten, capacity reused): the exact filter of an implicit
/// full frontier. `pred` runs exactly once per id, and the only scratch
/// is one count per task: every task filters its id range into the same
/// range of `out`, then the kept runs slide down to close the gaps.
pub fn compact_range_into<F>(n: usize, pred: F, out: &mut Vec<u32>)
where
    F: Fn(u32) -> bool + Send + Sync,
{
    // CAST: ids fit u32 — asserted at entry.
    assert!(n <= u32::MAX as usize);
    out.clear();
    if n < SEQUENTIAL_CUTOFF || par::threads() == 1 {
        out.extend((0..n as u32).filter(|&i| pred(i)));
        return;
    }
    out.resize(n, 0);
    let chunk = n.div_ceil(par::threads() * 4);
    let mut kept = Vec::new();
    let tasks = out.chunks_mut(chunk).enumerate();
    par::collect_into(
        tasks,
        |(c, slots)| {
            let first = c * chunk;
            let mut k = 0;
            // CAST: ids in this range are below n <= u32::MAX.
            for id in (first..first + slots.len()).map(|i| i as u32) {
                if pred(id) {
                    slots[k] = id;
                    k += 1;
                }
            }
            k
        },
        &mut kept,
    );
    let mut len = 0;
    for (c, &k) in kept.iter().enumerate() {
        out.copy_within(c * chunk..c * chunk + k, len);
        len += k;
    }
    out.truncate(len);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_order_small() {
        let v = [5u32, 2, 8, 1, 9];
        assert_eq!(compact(&v, |&x| x > 4), vec![5, 8, 9]);
    }

    #[test]
    fn keeps_order_large_parallel() {
        let v: Vec<u32> = (0..200_000).collect();
        let got = compact(&v, |&x| x % 3 == 0);
        let want: Vec<u32> = v.iter().copied().filter(|&x| x % 3 == 0).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn all_and_none() {
        let v: Vec<u32> = (0..10_000).collect();
        assert_eq!(compact(&v, |_| true), v);
        assert!(compact(&v, |_| false).is_empty());
    }

    #[test]
    fn indices_match_positions() {
        let v = [10u32, 0, 30, 0, 50];
        assert_eq!(compact_indices(&v, |&x| x > 0), vec![0, 2, 4]);
        let big: Vec<u32> = (0..100_000).map(|i| i % 5).collect();
        let got = compact_indices(&big, |&x| x == 4);
        assert_eq!(got.len(), 20_000);
        assert!(got.windows(2).all(|w| w[0] < w[1]));
        assert!(got.iter().all(|&i| big[i as usize] == 4));
    }

    #[test]
    fn range_compaction_keeps_ascending_ids_on_both_paths() {
        let mut out = vec![9, 9];
        compact_range_into(10, |i| i % 4 == 1, &mut out);
        assert_eq!(out, vec![1, 5, 9]);
        compact_range_into(100_000, |i| i % 1000 == 7, &mut out);
        assert_eq!(out, (0..100u32).map(|k| k * 1000 + 7).collect::<Vec<_>>());
        compact_range_into(0, |_| true, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn indices_into_overwrites_and_reuses_the_buffer() {
        let big: Vec<u32> = (0..100_000).map(|i| i % 5).collect();
        let mut out = Vec::with_capacity(100_000);
        let storage = out.as_ptr();
        out.extend([7, 7, 7]);
        compact_indices_into(&big, |&x| x == 4, &mut out);
        assert_eq!(out, compact_indices(&big, |&x| x == 4));
        compact_indices_into(&big[..10], |&x| x == 0, &mut out);
        assert_eq!(out, vec![0, 5]);
        assert_eq!(out.as_ptr(), storage, "no reallocation");
    }
}
