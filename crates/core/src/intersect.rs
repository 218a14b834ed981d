//! Set intersection of tile index lists (step 2, Algorithm 2 lines 6–18).
//!
//! For a tile `C_ij`, the tiles of `A`'s tile row `i` and `B`'s tile column
//! `j` must be matched by index: `A_ik` pairs with `B_kj`. Both index lists
//! are sorted, so this is sorted-set intersection. The paper evaluates two
//! strategies and picks binary search (DESIGN.md §11):
//!
//! * [`intersect_binary_search`] — each element of the *shorter* list is
//!   binary-searched in the longer one; after a hit, the next search's left
//!   bound starts just past the hit (the "narrowing" the paper describes
//!   with its `tilecolidx_A` example). The paper path's kernel.
//! * [`intersect_merge`] — the classic two-pointer merge, kept for the
//!   tSparse baseline and the `ablation_intersection` bench.
//!
//! Both append the same pair list in the same (ascending-value) order, so
//! the choice is bitwise-invisible in the product.

/// A matched tile pair: positions into the two index lists.
pub type MatchedPair = (u32, u32);

/// Binary-search intersection with left-bound narrowing: appends `(pos_a,
/// pos_b)` for every value common to `a` and `b` (both strictly
/// ascending).
pub fn intersect_binary_search(a: &[u32], b: &[u32], out: &mut Vec<MatchedPair>) {
    // Search each element of the shorter array within the longer one, as the
    // paper's Algorithm 2 does (lines 6 and 16–17 swap the roles).
    if a.len() <= b.len() {
        search_short_in_long(a, b, out, false);
    } else {
        search_short_in_long(b, a, out, true);
    }
}

fn search_short_in_long(short: &[u32], long: &[u32], out: &mut Vec<MatchedPair>, swapped: bool) {
    let mut lo = 0usize;
    for (ps, &value) in short.iter().enumerate() {
        if lo >= long.len() {
            break;
        }
        match long[lo..].binary_search(&value) {
            Ok(rel) => {
                let pl = lo + rel;
                if swapped {
                    out.push((pl as u32, ps as u32));
                } else {
                    out.push((ps as u32, pl as u32));
                }
                // Narrow: both lists ascend, so later values of the short
                // list can only match past this position.
                lo = pl + 1;
            }
            Err(rel) => {
                // Even a miss tells us where the next search may start.
                lo += rel;
            }
        }
    }
}

/// Two-pointer merge intersection: appends the same pairs as
/// [`intersect_binary_search`], in the same order.
pub fn intersect_merge(a: &[u32], b: &[u32], out: &mut Vec<MatchedPair>) {
    let (mut p, mut q) = (0usize, 0usize);
    while p < a.len() && q < b.len() {
        match a[p].cmp(&b[q]) {
            std::cmp::Ordering::Less => p += 1,
            std::cmp::Ordering::Greater => q += 1,
            std::cmp::Ordering::Equal => {
                out.push((p as u32, q as u32));
                p += 1;
                q += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(
        kernel: fn(&[u32], &[u32], &mut Vec<MatchedPair>),
        a: &[u32],
        b: &[u32],
    ) -> Vec<MatchedPair> {
        let mut out = Vec::new();
        kernel(a, b, &mut out);
        out
    }

    #[test]
    fn paper_example_c12() {
        // Figure 4: tile row A1* has columns {0, 1, 3}, tile column B*2 has
        // rows {1, 3}; the intersection is {1, 3} — pairs A11·B12 and
        // A13·B32.
        let pairs = run(intersect_binary_search, &[0, 1, 3], &[1, 3]);
        // Positions: value 1 sits at a[1]/b[0], value 3 at a[2]/b[1].
        assert_eq!(pairs, vec![(1, 0), (2, 1)]);
    }

    #[test]
    fn both_kernels_agree_on_many_inputs() {
        let mut state = 12345u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..200 {
            // Mix small universes (dense lists, many hits) with wide ones.
            let bound = [40u64, 70, 500][round % 3];
            let la = (next() % 20) as usize;
            let lb = (next() % 20) as usize;
            let mut a: Vec<u32> = (0..la).map(|_| (next() % bound) as u32).collect();
            let mut b: Vec<u32> = (0..lb).map(|_| (next() % bound) as u32).collect();
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            let bs = run(intersect_binary_search, &a, &b);
            assert_eq!(bs, run(intersect_merge, &a, &b), "a={a:?} b={b:?}");
            // And every reported pair is a real match.
            for (pa, pb) in bs {
                assert_eq!(a[pa as usize], b[pb as usize]);
            }
        }
    }

    #[test]
    fn empty_and_disjoint_inputs() {
        assert!(run(intersect_binary_search, &[], &[1, 2]).is_empty());
        assert!(run(intersect_binary_search, &[3], &[]).is_empty());
        assert!(run(intersect_merge, &[1, 3, 5], &[0, 2, 4]).is_empty());
        assert!(run(intersect_binary_search, &[1, 3, 5], &[0, 2, 4]).is_empty());
    }

    #[test]
    fn identical_lists_match_elementwise() {
        let v: Vec<u32> = (0..50).map(|i| i * 3).collect();
        let pairs = run(intersect_binary_search, &v, &v);
        assert_eq!(pairs.len(), 50);
        assert!(pairs
            .iter()
            .enumerate()
            .all(|(i, &(a, b))| a as usize == i && b as usize == i));
    }

    #[test]
    fn swapped_roles_report_positions_in_original_order() {
        // a longer than b: the kernel searches b in a but must still report
        // (pos_in_a, pos_in_b).
        let pairs = run(intersect_binary_search, &[1, 4, 6, 9, 12, 15], &[6, 15]);
        assert_eq!(pairs, vec![(2, 0), (5, 1)]);
    }

    #[test]
    fn kernels_append_to_existing_contents() {
        let mut out = vec![(9u32, 9u32)];
        intersect_binary_search(&[1], &[1], &mut out);
        intersect_merge(&[1], &[1], &mut out);
        assert_eq!(out, vec![(9, 9), (0, 0), (0, 0)]);
    }
}
