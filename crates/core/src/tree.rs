//! The recursion trees `T_A`, `T_B`, `T_AB` of Section 4 (Figure 2) and the circuitry
//! that materialises selected levels of them.
//!
//! A node of `T_A` at level `h` corresponds to an `N/T^h × N/T^h` matrix that is an
//! integer-weighted sum of blocks of `A`; its children are obtained by applying the `r`
//! product expressions `M_i` of the bilinear recipe.  The circuit materialises only the
//! levels chosen by a [`LevelSchedule`]: each selected level is
//! computed from the previous one with one depth-2 layer of weighted-sum circuits
//! (Lemma 4.2), and the leaves (level `log_T N`) are the scalars multiplied by the fast
//! algorithm.
//!
//! The same machinery, driven by different coefficient tables, produces:
//!
//! * the leaves of `T_A` (table = `U`),
//! * the leaves of `T_B` (table = `V`),
//! * the leaves of the *coefficient tree* used by the trace circuit (table = `Wᵀ`,
//!   applied to the upper triangle of `A`), and
//! * — in reverse, bottom-up — the levels of `T_AB` (table = `W`), which re-assemble
//!   the scalar products into the matrix product `C` (Lemma 4.6).

use crate::{CoreError, LevelSchedule, Result};
use fast_matmul::BilinearAlgorithm;
use tc_arith::{repr_to_signed, weighted_sum_signed, Repr, SignedInt, UInt};
use tc_circuit::CircuitBuilder;

/// A materialised tree node: a `dim × dim` matrix of circuit-level signed numbers.
#[derive(Debug, Clone)]
pub struct TreeNode {
    /// Side length of the node's matrix.
    pub dim: usize,
    /// Row-major entries.
    pub entries: Vec<SignedInt>,
}

impl TreeNode {
    /// The entry at `(i, j)`.
    pub fn entry(&self, i: usize, j: usize) -> &SignedInt {
        &self.entries[i * self.dim + j]
    }
}

/// Which coefficient table of the recipe drives a tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeKind {
    /// `T_A`: products' coefficients over `A` (the `U` table).
    OverA,
    /// `T_B`: products' coefficients over `B` (the `V` table).
    OverB,
    /// The coefficient tree of the trace construction: for each product `M_i`, the
    /// entries of `C` it feeds and with which sign (the transpose of the `W` table).
    OverCTransposed,
}

/// Extracts the `r × T²` coefficient table for a tree kind.
pub fn coefficient_table(alg: &BilinearAlgorithm, kind: TreeKind) -> Vec<Vec<i64>> {
    let t2 = alg.t() * alg.t();
    match kind {
        TreeKind::OverA => (0..alg.r()).map(|i| alg.u_row(i).to_vec()).collect(),
        TreeKind::OverB => (0..alg.r()).map(|i| alg.v_row(i).to_vec()).collect(),
        TreeKind::OverCTransposed => (0..alg.r())
            .map(|i| (0..t2).map(|pq| alg.w_row(pq)[i]).collect())
            .collect(),
    }
}

/// The sparse block-coefficient expansion of every length-`delta` path.
///
/// Entry `p` of the result corresponds to the path with lexicographic index `p`
/// (first step most significant) and lists `(block_row, block_col, coefficient)` for
/// every block of the ancestor with a nonzero coefficient.  The number of listed blocks
/// for path `u` is the paper's `size(u)`; summed over all paths it equals `s_A^delta`
/// (equation (3) of the paper) when the table is `U`.
pub fn path_block_coefficients(
    table: &[Vec<i64>],
    t: usize,
    delta: u32,
) -> Vec<Vec<(usize, usize, i64)>> {
    let r = table.len();
    let mut paths: Vec<Vec<(usize, usize, i64)>> = vec![vec![(0, 0, 1)]];
    for _ in 0..delta {
        let mut next = Vec::with_capacity(paths.len() * r);
        for coeffs in &paths {
            for row in table.iter() {
                let mut extended = Vec::new();
                for &(br, bc, w) in coeffs {
                    for (pos, &c) in row.iter().enumerate() {
                        if c != 0 {
                            let dr = pos / t;
                            let dc = pos % t;
                            extended.push((br * t + dr, bc * t + dc, w * c));
                        }
                    }
                }
                next.push(extended);
            }
        }
        paths = next;
    }
    paths
}

/// For the bottom-up `T_AB` phase: for every block position `(J_row, J_col)` of a parent
/// (at granularity `T^delta`), the list of `(child_path_index, coefficient)` of the
/// children contributing to that block.  Summed over blocks, the list lengths equal
/// `s_C^delta` (equation (5) of the paper).
pub fn block_child_coefficients(
    w_table: &[Vec<i64>],
    t: usize,
    delta: u32,
    r: usize,
) -> Vec<Vec<(usize, i64)>> {
    let bps = t.pow(delta); // blocks per side
    let mut out: Vec<Vec<(usize, i64)>> = vec![Vec::new(); bps * bps];
    for (block_index, slot) in out.iter_mut().enumerate() {
        let block_row = block_index / bps;
        let block_col = block_index % bps;
        // Digits of the block coordinates, most significant first.
        let mut digits = Vec::with_capacity(delta as usize);
        let mut rr = block_row;
        let mut cc = block_col;
        for step in 0..delta {
            let shift = t.pow(delta - 1 - step);
            digits.push(((rr / shift) % t, (cc / shift) % t));
            rr %= shift * t;
            cc %= shift * t;
        }
        // Enumerate child paths q with nonzero coefficient Π_j W[pair_j][q_j].
        let mut acc: Vec<(usize, i64)> = vec![(0, 1)];
        for &(dr, dc) in &digits {
            let pair = dr * t + dc;
            let mut next = Vec::new();
            for &(idx, w) in &acc {
                for (q, &c) in w_table[pair].iter().enumerate() {
                    if c != 0 {
                        next.push((idx * r + q, w * c));
                    }
                }
            }
            acc = next;
        }
        *slot = acc;
    }
    out
}

/// Computes the scalars at the **leaves** of a tree (the values multiplied by the fast
/// algorithm), materialising exactly the levels chosen by `schedule`.
///
/// * `entries` — the `n × n` level-0 matrix as circuit-level signed numbers (use a
///   zero-width [`SignedInt`] for entries that should be treated as 0, e.g. the lower
///   triangle in the trace construction);
/// * `table` — the `r × T²` coefficient table (see [`coefficient_table`]).
///
/// Adds `2·t` layers of depth (two per selected level) and returns the `r^l` leaf
/// scalars in path-lexicographic order.
pub fn compute_tree_leaves(
    builder: &mut CircuitBuilder,
    entries: &[SignedInt],
    n: usize,
    table: &[Vec<i64>],
    t: usize,
    schedule: &LevelSchedule,
) -> Result<Vec<SignedInt>> {
    if entries.len() != n * n {
        return Err(CoreError::InputMismatch {
            reason: "level-0 entry count must be n*n",
        });
    }
    let r = table.len();
    let mut nodes = vec![TreeNode {
        dim: n,
        entries: entries.to_vec(),
    }];
    for (h_prev, h_cur) in schedule.transitions() {
        let delta = h_cur - h_prev;
        let prev_dim = n / t.pow(h_prev);
        let cur_dim = n / t.pow(h_cur);
        let paths = path_block_coefficients(table, t, delta);
        let mut next_nodes = Vec::with_capacity(nodes.len() * r.pow(delta));
        for ancestor in &nodes {
            debug_assert_eq!(ancestor.dim, prev_dim);
            for coeffs in &paths {
                let mut node_entries = Vec::with_capacity(cur_dim * cur_dim);
                for x in 0..cur_dim {
                    for y in 0..cur_dim {
                        let summands: Vec<(&SignedInt, i64)> = coeffs
                            .iter()
                            .map(|&(br, bc, w)| {
                                (ancestor.entry(br * cur_dim + x, bc * cur_dim + y), w)
                            })
                            .filter(|(e, _)| e.width() > 0)
                            .collect();
                        if summands.is_empty() {
                            node_entries.push(zero_signed());
                        } else {
                            node_entries.push(weighted_sum_signed(builder, &summands)?);
                        }
                    }
                }
                next_nodes.push(TreeNode {
                    dim: cur_dim,
                    entries: node_entries,
                });
            }
        }
        nodes = next_nodes;
    }
    // The leaves are 1x1 nodes; flatten in node order (= path-lexicographic order).
    Ok(nodes
        .into_iter()
        .map(|node| {
            debug_assert_eq!(node.dim, 1);
            node.entries
                .into_iter()
                .next()
                .expect("leaf node has one entry")
        })
        .collect())
}

/// Re-assembles the `r^l` scalar-product *representations* (the leaves of `T_AB`) into
/// the `N²` entries of the matrix product `C`, materialising the same selected levels
/// bottom-up (Lemma 4.6).
///
/// Adds `2·t` layers of depth and returns the entries of `C` row-major, as signed
/// numbers.
pub fn combine_product_tree(
    builder: &mut CircuitBuilder,
    leaf_reprs: Vec<Repr>,
    alg: &BilinearAlgorithm,
    n: usize,
    schedule: &LevelSchedule,
) -> Result<Vec<SignedInt>> {
    let t = alg.t();
    let r = alg.r();
    let w_table: Vec<Vec<i64>> = (0..t * t).map(|pq| alg.w_row(pq).to_vec()).collect();
    let expected_leaves = r.pow(schedule.total_levels());
    if leaf_reprs.len() != expected_leaves {
        return Err(CoreError::InputMismatch {
            reason: "number of leaf products must be r^(log_T N)",
        });
    }

    // Current level data, stored as representations of each node entry.  At the leaf
    // level each node is a 1x1 matrix whose single entry is the product representation.
    let mut level_reprs: Vec<Vec<Repr>> = leaf_reprs.into_iter().map(|r| vec![r]).collect();
    let mut level_dim = 1usize;

    let transitions: Vec<(u32, u32)> = schedule.transitions().collect();
    for &(h_parent, h_child) in transitions.iter().rev() {
        let delta = h_child - h_parent;
        let parent_dim = n / t.pow(h_parent);
        let child_dim = n / t.pow(h_child);
        debug_assert_eq!(child_dim, level_dim);
        let bps = t.pow(delta);
        let block_coeffs = block_child_coefficients(&w_table, t, delta, r);
        let num_parents = level_reprs.len() / r.pow(delta);

        let mut next_level: Vec<Vec<Repr>> = Vec::with_capacity(num_parents);
        for pv in 0..num_parents {
            let child_base = pv * r.pow(delta);
            let mut parent_entries: Vec<Option<SignedInt>> = vec![None; parent_dim * parent_dim];
            for (block_index, contributions) in block_coeffs.iter().enumerate() {
                let block_row = block_index / bps;
                let block_col = block_index % bps;
                for x in 0..child_dim {
                    for y in 0..child_dim {
                        let mut combined = Repr::zero();
                        for &(q_idx, w) in contributions {
                            let child = &level_reprs[child_base + q_idx][x * child_dim + y];
                            combined.add(&child.scale(w)?);
                        }
                        let value = repr_to_signed(builder, &combined)?;
                        let px = block_row * child_dim + x;
                        let py = block_col * child_dim + y;
                        parent_entries[px * parent_dim + py] = Some(value);
                    }
                }
            }
            let entries: Vec<Repr> = parent_entries
                .into_iter()
                .map(|e| {
                    e.expect("every parent entry is covered by exactly one block")
                        .to_repr()
                })
                .collect();
            next_level.push(entries);
        }
        level_reprs = next_level;
        level_dim = parent_dim;
    }

    debug_assert_eq!(level_reprs.len(), 1);
    debug_assert_eq!(level_dim, n);
    // The final level's entries were just produced by repr_to_signed and then turned
    // back into representations for uniformity; binarise them one more time only if they
    // are not already plain signed numbers.  To avoid an extra layer we re-run the last
    // transition keeping the SignedInt directly, so here we simply rebuild them from the
    // representations without adding gates: each representation is exactly a SignedInt's
    // to_repr, so we convert back structurally.
    let root = level_reprs.into_iter().next().expect("root exists");
    root.into_iter()
        .map(|repr| signed_from_positional_repr(&repr))
        .collect()
}

/// Rebuilds a [`SignedInt`] from a representation that was produced by
/// [`SignedInt::to_repr`] (positive powers of two first, then negative).  This is a
/// structural inverse used to avoid re-binarising the already-binary root entries of
/// `T_AB`; it adds no gates.
fn signed_from_positional_repr(repr: &Repr) -> Result<SignedInt> {
    let mut pos: Vec<(u32, tc_circuit::Wire)> = Vec::new();
    let mut neg: Vec<(u32, tc_circuit::Wire)> = Vec::new();
    for &(wire, w) in repr.terms() {
        if w > 0 && (w as u64).is_power_of_two() {
            pos.push(((w as u64).trailing_zeros(), wire));
        } else if w < 0 && (w.unsigned_abs()).is_power_of_two() {
            neg.push((w.unsigned_abs().trailing_zeros(), wire));
        } else {
            return Err(CoreError::InputMismatch {
                reason: "representation is not positional; cannot rebuild a signed number",
            });
        }
    }
    pos.sort_unstable_by_key(|&(p, _)| p);
    neg.sort_unstable_by_key(|&(p, _)| p);
    let contiguous = |bits: &[(u32, tc_circuit::Wire)]| {
        bits.iter().enumerate().all(|(i, &(p, _))| p as usize == i)
    };
    if !contiguous(&pos) || !contiguous(&neg) {
        return Err(CoreError::InputMismatch {
            reason: "representation has gaps; cannot rebuild a signed number",
        });
    }
    Ok(SignedInt::new(
        UInt::from_wires(pos.into_iter().map(|(_, w)| w).collect()),
        UInt::from_wires(neg.into_iter().map(|(_, w)| w).collect()),
    ))
}

/// A zero-valued circuit number (width 0); used for masked entries.
pub fn zero_signed() -> SignedInt {
    SignedInt::new(UInt::from_wires(Vec::new()), UInt::from_wires(Vec::new()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_matmul::SparsityProfile;

    #[test]
    fn path_coefficient_totals_match_equation_3() {
        // Σ_u size(u) over all paths of length delta equals s_A^delta (eq. 3).
        let alg = BilinearAlgorithm::strassen();
        let profile = SparsityProfile::of(&alg);
        let table = coefficient_table(&alg, TreeKind::OverA);
        for delta in 1..=4u32 {
            let paths = path_block_coefficients(&table, alg.t(), delta);
            assert_eq!(paths.len(), alg.r().pow(delta));
            let total: usize = paths.iter().map(|p| p.len()).sum();
            assert_eq!(total, profile.s_a.pow(delta), "delta={delta}");
        }
        // And for the B-side table the total is s_B^delta.
        let table_b = coefficient_table(&alg, TreeKind::OverB);
        let total_b: usize = path_block_coefficients(&table_b, alg.t(), 3)
            .iter()
            .map(|p| p.len())
            .sum();
        assert_eq!(total_b, profile.s_b.pow(3));
    }

    #[test]
    fn figure_2_example_node() {
        // Figure 2: the node reached by path (M7, M7) for Strassen is
        // (A12 - A22)12 - (A12 - A22)22, a weighted sum of 4 blocks of A:
        // (A12)12 - (A22)12 - (A12)22 + (A22)22.
        let alg = BilinearAlgorithm::strassen();
        let table = coefficient_table(&alg, TreeKind::OverA);
        let paths = path_block_coefficients(&table, 2, 2);
        // Path (7,7) in 1-based product numbering = (6,6) 0-based; lexicographic index
        // 6*7 + 6 = 48.
        let coeffs = &paths[48];
        assert_eq!(coeffs.len(), 4);
        // Blocks at granularity 4: (A12)12 = block (row 0*2+0? ...) — verify the exact
        // set by value: {(0,3,+1),(1,3,... } easier: check multiset of coefficients and
        // that block columns are in the right half (A12/A22 blocks of A) and rows split.
        let sum_of_coeffs: i64 = coeffs.iter().map(|&(_, _, w)| w).sum();
        assert_eq!(sum_of_coeffs, 0, "two +1 and two -1 coefficients");
        assert!(
            coeffs.iter().all(|&(_, bc, _)| bc >= 2),
            "all blocks come from the right half (A12 or A22): {coeffs:?}"
        );
    }

    #[test]
    fn tab_block_coefficients_match_equation_5() {
        let alg = BilinearAlgorithm::strassen();
        let profile = SparsityProfile::of(&alg);
        let w_table: Vec<Vec<i64>> = (0..4).map(|pq| alg.w_row(pq).to_vec()).collect();
        for delta in 1..=3u32 {
            let blocks = block_child_coefficients(&w_table, 2, delta, alg.r());
            assert_eq!(blocks.len(), 4usize.pow(delta));
            let total: usize = blocks.iter().map(|b| b.len()).sum();
            assert_eq!(total, profile.s_c.pow(delta), "delta={delta}");
        }
    }

    #[test]
    fn c_prime_counts_appear_at_delta_1() {
        // For delta = 1 the per-block contribution counts are exactly c'_j = 4,2,2,4.
        let alg = BilinearAlgorithm::strassen();
        let w_table: Vec<Vec<i64>> = (0..4).map(|pq| alg.w_row(pq).to_vec()).collect();
        let blocks = block_child_coefficients(&w_table, 2, 1, alg.r());
        let counts: Vec<usize> = blocks.iter().map(|b| b.len()).collect();
        assert_eq!(counts, vec![4, 2, 2, 4]);
    }
}
