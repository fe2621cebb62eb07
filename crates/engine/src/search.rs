//! Sorted search and merge-path partitioning.
//!
//! §4.4: the load-balanced advance "organiz[es] groups of edges into
//! equal-length chunks and assign[s] each chunk to a block. This division
//! requires us to find the starting and ending indices for all the blocks
//! within the frontier. We use an efficient sorted search to map such
//! indices with the scanned edge offset queue. When we start to process
//! [the] neighbor list of a new node, we use binary search to find the
//! node ID for the edges that are going to be processed."

use crate::par;

/// Index of the first element in sorted `haystack` strictly greater than
/// `needle` (upper bound).
#[inline]
pub fn upper_bound(haystack: &[u32], needle: u32) -> usize {
    haystack.partition_point(|&x| x <= needle)
}

/// For each work-item id `w` (an edge rank within the scanned offsets
/// array), find the owning segment: the largest `i` with
/// `scanned_offsets[i] <= w`. `scanned_offsets` is the exclusive scan of
/// segment sizes (so it is sorted ascending). This is the per-edge binary
/// search of the load-balanced advance.
#[inline]
pub fn owning_segment(scanned_offsets: &[u32], work_item: u32) -> usize {
    debug_assert!(!scanned_offsets.is_empty());
    upper_bound(scanned_offsets, work_item) - 1
}

/// Partitions `total_work` items into chunks of `chunk_size`, returning
/// for each chunk the index of the segment owning its first work item.
/// This is the merge-path coarse partition: each parallel block then
/// walks forward from its starting segment, guaranteeing equal work per
/// block regardless of segment-size skew (Davidson et al., Figure 3).
pub fn merge_path_partitions(
    scanned_offsets: &[u32],
    total_work: u32,
    chunk_size: usize,
) -> Vec<u32> {
    let mut out = Vec::new();
    merge_path_partitions_into(scanned_offsets, total_work, chunk_size, &mut out);
    out
}

/// [`merge_path_partitions`] into a caller-supplied buffer (pooled in
/// the zero-allocation advance path): `out` is overwritten with the
/// per-chunk starting segments, reusing its capacity.
pub fn merge_path_partitions_into(
    scanned_offsets: &[u32],
    total_work: u32,
    chunk_size: usize,
    out: &mut Vec<u32>,
) {
    assert!(chunk_size > 0);
    // CAST: total_work widens u32 -> usize; c * chunk_size < total_work + chunk
    // fits u32 because total_work does; segment indices are vertex counts.
    let num_chunks = (total_work as usize).div_ceil(chunk_size);
    par::collect_into(
        0..num_chunks,
        |c| owning_segment(scanned_offsets, (c * chunk_size) as u32) as u32,
        out,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds() {
        let v = [0u32, 3, 3, 8];
        assert_eq!(upper_bound(&v, 3), 3);
        assert_eq!(upper_bound(&v, 9), 4);
        assert_eq!(upper_bound(&v, 0), 1);
    }

    #[test]
    fn owning_segment_with_empty_segments() {
        // segment sizes [3, 0, 5, 2] -> scanned [0, 3, 3, 8]
        let offsets = [0u32, 3, 3, 8];
        assert_eq!(owning_segment(&offsets, 0), 0);
        assert_eq!(owning_segment(&offsets, 2), 0);
        // work item 3 belongs to segment 2 (segment 1 is empty)
        assert_eq!(owning_segment(&offsets, 3), 2);
        assert_eq!(owning_segment(&offsets, 7), 2);
        assert_eq!(owning_segment(&offsets, 8), 3);
        assert_eq!(owning_segment(&offsets, 9), 3);
    }

    #[test]
    fn partitions_cover_all_work_exactly_once() {
        // segment sizes with heavy skew
        let sizes = [1u32, 100, 2, 0, 57, 3];
        let mut offsets = vec![0u32];
        for &s in &sizes {
            offsets.push(offsets.last().unwrap() + s);
        }
        let total = *offsets.last().unwrap();
        let offsets = &offsets[..offsets.len() - 1];
        let chunk = 16usize;
        let starts = merge_path_partitions(offsets, total, chunk);
        assert_eq!(starts.len(), (total as usize).div_ceil(chunk));
        // reconstruct: walking each chunk from its starting segment must
        // visit each work item once with the right owner
        for (c, &seg_start) in starts.iter().enumerate() {
            let w0 = (c * chunk) as u32;
            let w1 = ((c + 1) * chunk).min(total as usize) as u32;
            let mut seg = seg_start as usize;
            for w in w0..w1 {
                while seg + 1 < offsets.len() && offsets[seg + 1] <= w {
                    seg += 1;
                }
                assert_eq!(seg, owning_segment(offsets, w));
            }
        }
    }

    #[test]
    fn partitions_into_matches_allocating_version_and_reuses_capacity() {
        let offsets = [0u32, 1, 101, 103, 103, 160];
        let total = 163u32;
        let mut out = Vec::new();
        merge_path_partitions_into(&offsets, total, 16, &mut out);
        assert_eq!(out, merge_path_partitions(&offsets, total, 16));
        let cap = out.capacity();
        merge_path_partitions_into(&offsets, total, 16, &mut out);
        assert_eq!(out.capacity(), cap, "second fill must reuse the buffer");
    }

    #[test]
    fn single_segment() {
        let offsets = [0u32];
        assert_eq!(owning_segment(&offsets, 0), 0);
        assert_eq!(owning_segment(&offsets, 41), 0);
    }
}
