//! Sort-tile-recursive (STR) bulk loading.
//!
//! Building a tree by repeated insertion is the configuration the paper's
//! experiments measure, but a production system loads existing relations in
//! bulk; STR packs leaves at full fan-out, giving smaller trees and fewer
//! query accesses. The representation bench uses it to separate build
//! effects from query effects.

use crate::rect::Rect;
use crate::rstar::{RStarParams, RStarTree};

/// Bulk-loads entries into a fresh tree using sort-tile-recursive packing,
/// with the per-slab sorts spread over all hardware threads.
///
/// The resulting tree satisfies all R\*-tree invariants; subsequent inserts
/// and removes behave normally.
pub fn str_load<const D: usize, T: Clone + PartialEq + Send + Sync>(
    params: RStarParams,
    entries: Vec<(Rect<D>, T)>,
) -> RStarTree<D, T> {
    str_load_threads(params, entries, 0)
}

/// [`str_load`] with an explicit worker-thread count (`0` = all hardware
/// threads).
///
/// The thread count never changes the result: the axis-0 sort is serial,
/// the slab boundaries are fixed before any worker runs, each slab's
/// axis-1 sort is an independent deterministic comparison sort, and the
/// chunked executor concatenates slabs in input order — so the insertion
/// sequence, and therefore the tree, is identical for every `threads`
/// value (`same_structure` in the tests pins this).
pub fn str_load_threads<const D: usize, T: Clone + PartialEq + Send + Sync>(
    params: RStarParams,
    mut entries: Vec<(Rect<D>, T)>,
    threads: usize,
) -> RStarTree<D, T> {
    let mut tree = RStarTree::new(params);
    if entries.is_empty() {
        return tree;
    }
    // Pack leaves by recursive tiling, then insert the packed runs in
    // Hilbert-ish order via plain inserts of sorted runs. To keep the
    // implementation honest and simple we sort by the first axis, tile into
    // vertical slabs, sort each slab by the second axis, and insert in that
    // order: ordered insertion into an R*-tree produces well-packed nodes.
    let capacity = params.max_entries;
    let slab = ((entries.len() as f64 / capacity as f64).sqrt().ceil() as usize).max(1);
    entries.sort_by(|a, b| a.0.center()[0].partial_cmp(&b.0.center()[0]).unwrap());
    let per_slab = entries.len().div_ceil(slab).max(1);
    let slabs: Vec<&[(Rect<D>, T)]> = entries.chunks(per_slab).collect();
    let ordered = cqa_num::par::run_chunks(&slabs, threads, None, |chunk, out| {
        let mut chunk: Vec<(Rect<D>, T)> = chunk.to_vec();
        if D > 1 {
            chunk.sort_by(|a, b| a.0.center()[1].partial_cmp(&b.0.center()[1]).unwrap());
        }
        out.extend(chunk);
    })
    .expect("a run without a token is never cancelled");
    for (r, t) in ordered {
        tree.insert(r, t);
    }
    tree
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_and_queries() {
        let entries: Vec<(Rect<2>, usize)> = (0..200)
            .map(|i| {
                let x = (i % 20) as f64 * 5.0;
                let y = (i / 20) as f64 * 5.0;
                (Rect::new([x, y], [x + 1.0, y + 1.0]), i)
            })
            .collect();
        let tree = str_load(RStarParams::with_max(10), entries.clone());
        assert_eq!(tree.len(), 200);
        tree.check_invariants();
        for (r, i) in &entries {
            assert!(tree.search(r).contains(i));
        }
    }

    #[test]
    fn parallel_load_builds_node_identical_tree() {
        let mut entries: Vec<(Rect<2>, usize)> = Vec::new();
        let mut state = 7u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64) / (u32::MAX as f64 / 2.0) * 1000.0
        };
        for i in 0..700 {
            let (x, y) = (rnd(), rnd());
            entries.push((Rect::new([x, y], [x + 5.0, y + 5.0]), i));
        }
        let params = RStarParams::with_max(12);
        let serial = str_load_threads(params, entries.clone(), 1);
        serial.check_invariants();
        for threads in [2, 8] {
            let par = str_load_threads(params, entries.clone(), threads);
            par.check_invariants();
            assert!(
                serial.same_structure(&par),
                "threads={} built a structurally different tree",
                threads
            );
        }
        // The default entry point (all hardware threads) is covered too.
        assert!(serial.same_structure(&str_load(params, entries)));
        // Empty trees compare equal regardless of thread count.
        let e1: RStarTree<2, usize> = str_load_threads(params, Vec::new(), 1);
        let e8: RStarTree<2, usize> = str_load_threads(params, Vec::new(), 8);
        assert!(e1.same_structure(&e8));
    }

    #[test]
    fn empty_load() {
        let tree: RStarTree<2, u32> = str_load(RStarParams::with_max(8), Vec::new());
        assert!(tree.is_empty());
        tree.check_invariants();
    }

    #[test]
    fn bulk_tree_not_worse_than_random_insertion() {
        // Compare query accesses on the same data.
        let mut entries: Vec<(Rect<2>, usize)> = Vec::new();
        let mut state = 99u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64) / (u32::MAX as f64 / 2.0) * 1000.0
        };
        for i in 0..1000 {
            let (x, y) = (rnd(), rnd());
            entries.push((Rect::new([x, y], [x + 10.0, y + 10.0]), i));
        }
        let params = RStarParams::with_max(16);
        let bulk = str_load(params, entries.clone());
        let mut incremental = RStarTree::new(params);
        for (r, i) in entries {
            incremental.insert(r, i);
        }
        let q = Rect::new([100.0, 100.0], [200.0, 200.0]);
        let (hits_b, acc_b) = bulk.search_with_stats(&q);
        let (hits_i, acc_i) = incremental.search_with_stats(&q);
        let (mut hb, mut hi) = (hits_b, hits_i);
        hb.sort();
        hi.sort();
        assert_eq!(hb, hi);
        // Bulk loading should not be drastically worse.
        assert!(acc_b <= acc_i * 2, "bulk {} vs incremental {}", acc_b, acc_i);
    }
}
