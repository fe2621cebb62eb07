//! Least-significant-digit radix sort for 32-bit keys — the GPU-native
//! sorting primitive (CUB/b40c-style) the Medusa-role engine's message
//! combiner uses to group messages by destination id.
//!
//! 8-bit digits, four passes, with a parallel per-chunk histogram phase
//! and stable scatter. Falls back to the standard library sort below the
//! sequential cutoff.

use gunrock_engine::config::SEQUENTIAL_CUTOFF;
use gunrock_engine::par;
use gunrock_engine::scan::scan_exclusive_usize;
use gunrock_engine::unsafe_slice::UnsafeSlice;

const RADIX_BITS: usize = 8;
const BUCKETS: usize = 1 << RADIX_BITS;

/// Sorts `items` stably by `key(item)` (a full u32 key), in place.
pub fn radix_sort_by_key<T, K>(items: &mut Vec<T>, key: K)
where
    T: Copy + Send + Sync,
    K: Fn(&T) -> u32 + Send + Sync,
{
    let n = items.len();
    if n < SEQUENTIAL_CUTOFF || par::threads() == 1 {
        items.sort_by_key(|it| key(it));
        return;
    }
    let mut src: Vec<T> = std::mem::take(items);
    let mut dst: Vec<T> = Vec::with_capacity(n);
    // SAFETY: every slot of dst is written by the scatter below before
    // any read; T: Copy has no drop obligations.
    #[allow(clippy::uninit_vec)]
    unsafe {
        dst.set_len(n)
    };
    let chunk = n.div_ceil(par::threads() * 4).max(1);
    for pass in 0..(32 / RADIX_BITS) {
        let shift = pass * RADIX_BITS;
        // CAST: deliberate truncation — the digit is masked to BUCKETS-1 bits.
        let digit = |it: &T| ((key(it) >> shift) as usize) & (BUCKETS - 1);
        // Phase 1: per-chunk digit histograms.
        let histogram = |c: &[T]| {
            let mut h = [0usize; BUCKETS];
            for it in c {
                h[digit(it)] += 1;
            }
            h
        };
        let mut histograms = Vec::new();
        par::collect_into(src.chunks(chunk), histogram, &mut histograms);
        // Phase 2: column-major scan gives each (bucket, chunk) its base
        // offset, preserving stability (chunk order within a bucket).
        let num_chunks = histograms.len();
        let mut flat = vec![0usize; BUCKETS * num_chunks];
        for b in 0..BUCKETS {
            for (c, h) in histograms.iter().enumerate() {
                flat[b * num_chunks + c] = h[b];
            }
        }
        let (offsets, _) = scan_exclusive_usize(&flat);
        // Phase 3: stable scatter.
        {
            gunrock_engine::racecheck::begin_phase();
            let out = UnsafeSlice::new(&mut dst);
            par::for_each(src.chunks(chunk).enumerate(), |(c, items)| {
                let mut cursors = [0usize; BUCKETS];
                for (b, cur) in cursors.iter_mut().enumerate() {
                    *cur = offsets[b * num_chunks + c];
                }
                for it in items {
                    let b = digit(it);
                    // SAFETY: cursor ranges are disjoint across (bucket,
                    // chunk) pairs by construction of the scanned offsets.
                    unsafe { out.write(cursors[b], *it) };
                    cursors[b] += 1;
                }
            });
        }
        std::mem::swap(&mut src, &mut dst);
    }
    *items = src;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_input_uses_fallback_and_sorts() {
        let mut v = vec![5u32, 1, 4, 1, 3];
        radix_sort_by_key(&mut v, |&x| x);
        assert_eq!(v, vec![1, 1, 3, 4, 5]);
    }

    #[test]
    fn large_input_matches_std_sort() {
        let mut v: Vec<u32> = (0..200_000u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        let mut want = v.clone();
        want.sort_unstable();
        radix_sort_by_key(&mut v, |&x| x);
        assert_eq!(v, want);
    }

    #[test]
    fn sort_by_key_is_stable() {
        // pairs (key, original index): stability means equal keys keep
        // index order
        let mut v: Vec<(u32, u32)> = (0..100_000u32).map(|i| (i % 16, i)).collect();
        radix_sort_by_key(&mut v, |&(k, _)| k);
        for w in v.windows(2) {
            assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "stability violated: {w:?}");
            }
        }
    }

    #[test]
    fn extreme_keys() {
        let mut v = vec![u32::MAX, 0, u32::MAX - 1, 1, u32::MAX, 0];
        radix_sort_by_key(&mut v, |&x| x);
        assert_eq!(v, vec![0, 0, 1, u32::MAX - 1, u32::MAX, u32::MAX]);
    }

    #[test]
    fn empty_and_single() {
        let mut v: Vec<u32> = vec![];
        radix_sort_by_key(&mut v, |&x| x);
        assert!(v.is_empty());
        let mut v = vec![7u32];
        radix_sort_by_key(&mut v, |&x| x);
        assert_eq!(v, vec![7]);
    }
}
