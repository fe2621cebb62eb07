//! Internal parallel utilities shared by operators.

use gunrock_engine::par;
use gunrock_engine::scan::scan_exclusive_usize;
use gunrock_engine::unsafe_slice::UnsafeSlice;

pub use gunrock_engine::config::grain_size;

/// Concatenates per-task output vectors into one contiguous vector with a
/// parallel scatter (scan of sizes + disjoint copies). Preserves chunk
/// order, which keeps operators deterministic.
pub fn concat_chunks(chunks: Vec<Vec<u32>>) -> Vec<u32> {
    let sizes: Vec<usize> = chunks.iter().map(Vec::len).collect();
    let (offsets, total) = scan_exclusive_usize(&sizes);
    let mut out = vec![0u32; total];
    {
        gunrock_engine::racecheck::begin_phase();
        let out_ref = UnsafeSlice::new(&mut out);
        par::for_each(chunks.iter().zip(&offsets), |(chunk, &base)| {
            for (i, &v) in chunk.iter().enumerate() {
                // SAFETY: chunks write disjoint ranges [base, base+len).
                unsafe { out_ref.write(base + i, v) };
            }
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_preserves_order() {
        let chunks = vec![vec![1, 2], vec![], vec![3], vec![4, 5, 6]];
        assert_eq!(concat_chunks(chunks), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn concat_empty() {
        assert!(concat_chunks(vec![]).is_empty());
        assert!(concat_chunks(vec![vec![], vec![]]).is_empty());
    }

    #[test]
    fn grain_bounds() {
        assert!(grain_size(0) >= 1);
        assert!(grain_size(1_000_000) >= 64);
    }
}
