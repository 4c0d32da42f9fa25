//! Differential property tests for shared-sum banks: circuits shaped like
//! the paper's Lemma 3.1 blocks — many thresholds `[S ≥ t_j]` on one
//! weighted sum `S` — must evaluate bit-identically across the unshared
//! scalar oracle and the banked arena kernel at every lane width, and must
//! bank exactly the gates whose (layer, class, fan-in multiset) agree.
//!
//! Each generated sum has several member gates. A member lists the sum's
//! edges as given or permuted (same bank), flips one weight's sign (a
//! sibling row that must not share), or takes a threshold near `i64::MAX`
//! or `i64::MIN`, which forces the wide fallback and so puts the same row in
//! a second, `General` bank. Members of the sums in one layer are emitted
//! round-robin, so banks are also found when their members are not
//! adjacent in the source.
//!
//! A second generator draws non-negative Lemma 3.1-shaped sums, the banks
//! the kernel decodes as thermometer codes: thresholds are unions of runs
//! `{i·2^s : i = a..=b}`, with duplicates across runs, `a ≤ 0`, `b·2^s`
//! beyond the sum's reach, and one-member banks.

mod common;

use common::{assert_arena_matches_scalar, random_rows};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use tc_circuit::{verify_against, Circuit, CircuitBuilder, CompiledCircuit, GateClass, Wire};

/// One sum: its edges as (wire ordinal, weight selector), and its members
/// as (threshold, variant).
type SumSpec = (Vec<(usize, i64)>, Vec<(i64, u64)>);

/// A gate to build: its fan-in and threshold.
type GateDef = (Vec<(Wire, i64)>, i64);

/// Sums per layer: every sum of a layer reads only earlier layers.
const SUMS_PER_LAYER: usize = 3;

fn sum_spec() -> impl Strategy<Value = (usize, Vec<SumSpec>)> {
    (
        1usize..7,
        prop::collection::vec(
            (
                prop::collection::vec((0usize..96, -40i64..41), 1..9),
                prop::collection::vec((-12i64..13, any::<u64>()), 1..7),
            ),
            1..13,
        ),
    )
}

/// Builds the banked circuit: sums are grouped `SUMS_PER_LAYER` at a time,
/// each group's wires resolve against the gates built before it, and the
/// group's members are emitted round-robin. Every gate is an output.
fn build_banked(num_inputs: usize, spec: &[SumSpec], weight_of: impl Fn(i64) -> i64) -> Circuit {
    let mut b = CircuitBuilder::new(num_inputs);
    let mut gates = 0usize;
    for group in spec.chunks(SUMS_PER_LAYER) {
        let pool = 1 + num_inputs + gates;
        let members: Vec<Vec<GateDef>> = group
            .iter()
            .map(|(edges, thresholds)| {
                let mut sum: Vec<(Wire, i64)> = Vec::new();
                for &(ordinal, selector) in edges {
                    let o = ordinal % pool;
                    let wire = if o == 0 {
                        Wire::One
                    } else if o <= num_inputs {
                        Wire::input(o - 1)
                    } else {
                        Wire::gate(o - 1 - num_inputs)
                    };
                    if sum.iter().all(|&(w, _)| w != wire) {
                        sum.push((wire, weight_of(selector)));
                    }
                }
                thresholds
                    .iter()
                    .map(|&(t, variant)| member(&sum, t, variant))
                    .collect()
            })
            .collect();
        let most = members.iter().map(Vec::len).max().unwrap_or(0);
        for j in 0..most {
            for (fan_in, t) in members.iter().filter_map(|m| m.get(j)) {
                let g = b.add_gate(fan_in.iter().copied(), *t).unwrap();
                b.mark_output(g);
                gates += 1;
            }
        }
    }
    b.build()
}

/// One member of a sum: its edge list and threshold, per `variant`.
fn member(sum: &[(Wire, i64)], t: i64, variant: u64) -> GateDef {
    let mut edges = sum.to_vec();
    let k = (variant >> 3) as usize % edges.len();
    match variant % 8 {
        // Same edges, permuted: same bank.
        1 | 2 => {
            edges.rotate_left(k);
            if variant % 8 == 2 {
                edges.reverse();
            }
            (edges, t)
        }
        // One weight's sign flipped: a sibling row.
        3 => {
            edges[k].1 = -edges[k].1;
            (edges, t)
        }
        // A threshold out of the plane budget: the same row, wide, General.
        4 => (edges, i64::MAX - (variant >> 3) as i64 % 4),
        5 => (edges, i64::MIN + (variant >> 3) as i64 % 4),
        _ => (edges, t),
    }
}

/// One non-negative Lemma 3.1-shaped sum: its edges as (wire ordinal,
/// weight selector), its shift `s`, its threshold runs `(a, n)` — each the
/// thresholds `{(a + j)·2^s : j < n}` — and a seed for the members' edge
/// orders.
type ThermometerSpec = (Vec<(usize, i64)>, u32, Vec<(i64, i64)>, u64);

fn thermometer_spec() -> impl Strategy<Value = (usize, Vec<SumSpec>)> {
    (
        1usize..7,
        prop::collection::vec(
            (
                prop::collection::vec((0usize..96, 0i64..41), 1..9),
                0u32..5,
                prop::collection::vec((-3i64..7, 1i64..9), 1..4),
                any::<u64>(),
            ),
            1..13,
        ),
    )
        .prop_map(|(num_inputs, sums)| {
            let sums = sums.into_iter().map(thermometer_sum).collect();
            (num_inputs, sums)
        })
}

/// Expands a thermometer sum into its members: one per threshold of every
/// run, each listing the sum's edges as given or permuted (never a sign
/// flip or a wide threshold). A seed divisible by 4 keeps only the first
/// member, a one-member bank.
fn thermometer_sum((edges, shift, runs, seed): ThermometerSpec) -> SumSpec {
    let mut thresholds: Vec<i64> = runs
        .iter()
        .flat_map(|&(a, n)| (a..a + n).map(move |i| i << shift))
        .collect();
    if seed % 4 == 0 {
        thresholds.truncate(1);
    }
    let members = thresholds
        .into_iter()
        .enumerate()
        .map(|(j, t)| (t, (seed.rotate_left(7 * j as u32) & !7) | (j as u64 % 3)))
        .collect();
    (edges, members)
}

/// A gate's bank key: (layer, class, sorted fan-in), through the public
/// per-gate accessors.
fn bank_key(compiled: &CompiledCircuit, g: usize) -> (u32, usize, Vec<(u32, i64)>) {
    let (wires, weights) = compiled.fan_in(g);
    let mut row: Vec<(u32, i64)> = wires.iter().copied().zip(weights.iter().copied()).collect();
    row.sort_unstable();
    (compiled.gate_depth(g), compiled.gate_class(g).index(), row)
}

/// Independent bank count: distinct bank keys.
fn recount_banks(compiled: &CompiledCircuit) -> usize {
    let banks: HashSet<_> = (0..compiled.num_gates())
        .map(|g| bank_key(compiled, g))
        .collect();
    banks.len()
}

/// Independent count of the gates the kernel decodes: the members of every
/// bank with at least two members, no negative weight, and every member's
/// reach plus |threshold| within the 64-plane budget.
fn recount_decodable(compiled: &CompiledCircuit) -> usize {
    let mut banks: HashMap<_, (usize, bool)> = HashMap::new();
    for g in 0..compiled.num_gates() {
        let weights = compiled.fan_in(g).1;
        let reach: i128 = weights.iter().map(|w| i128::from(w.unsigned_abs())).sum();
        let need = reach + i128::from(compiled.threshold(g).unsigned_abs());
        let fits = 128 - (need + 1).leading_zeros() + 2 < 64;
        let bank = banks.entry(bank_key(compiled, g)).or_insert((0, true));
        bank.0 += 1;
        bank.1 &= fits && weights.iter().all(|&w| w >= 0);
    }
    banks
        .values()
        .filter(|&&(members, ok)| members >= 2 && ok)
        .map(|&(members, _)| members)
        .sum()
}

fn check_banked(circuit: &Circuit, rows: &[Vec<bool>]) -> Result<(), String> {
    let compiled = circuit.compile().unwrap();
    let report = verify_against(circuit, &compiled);
    prop_assert!(report.is_valid(), "{}", report);
    prop_assert_eq!(compiled.num_banks(), recount_banks(&compiled));
    prop_assert_eq!(compiled.num_decoded_gates(), recount_decodable(&compiled));
    prop_assert_eq!(compiled.num_edges(), circuit.num_edges());
    prop_assert!(compiled.num_evaluated_edges() <= compiled.num_edges());
    assert_arena_matches_scalar(&compiled, rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ±1 weights: Unit banks, with wide members split off into General.
    #[test]
    fn unit_banks_match_scalar((num_inputs, spec) in sum_spec(),
                               seed in any::<u64>(),
                               width in 1usize..129) {
        let circuit = build_banked(num_inputs, &spec, |s| if s < 0 { -1 } else { 1 });
        check_banked(&circuit, &random_rows(num_inputs, width, seed))?;
    }

    /// Mixed ±1, ±2^k and multi-bit weights: Unit, Pow2 and General banks.
    #[test]
    fn mixed_class_banks_match_scalar((num_inputs, spec) in sum_spec(),
                                      seed in any::<u64>(),
                                      width in 1usize..129) {
        let circuit = build_banked(num_inputs, &spec, |s| {
            let sign = if s < 0 { -1 } else { 1 };
            match s.unsigned_abs() % 3 {
                0 => sign,
                1 => sign * (1 << (s.unsigned_abs() % 16)),
                _ => sign * (3 + (s.unsigned_abs() as i64 % 37) * 2),
            }
        });
        check_banked(&circuit, &random_rows(num_inputs, width, seed))?;
    }

    /// Non-negative thermometer banks over ±1 weights: Unit.
    #[test]
    fn unit_thermometer_banks_match_scalar((num_inputs, spec) in thermometer_spec(),
                                           seed in any::<u64>(),
                                           width in 1usize..129) {
        let circuit = build_banked(num_inputs, &spec, |_| 1);
        check_banked(&circuit, &random_rows(num_inputs, width, seed))?;
    }

    /// Non-negative thermometer banks over power-of-two weights: Pow2.
    #[test]
    fn pow2_thermometer_banks_match_scalar((num_inputs, spec) in thermometer_spec(),
                                           seed in any::<u64>(),
                                           width in 1usize..129) {
        let circuit = build_banked(num_inputs, &spec, |s| 1 << (s % 6));
        check_banked(&circuit, &random_rows(num_inputs, width, seed))?;
    }

    /// Non-negative thermometer banks over weights 1..=13: General (and
    /// Unit or Pow2 where a sum happens to draw only those).
    #[test]
    fn general_thermometer_banks_match_scalar((num_inputs, spec) in thermometer_spec(),
                                              seed in any::<u64>(),
                                              width in 1usize..129) {
        let circuit = build_banked(num_inputs, &spec, |s| 1 + s % 13);
        check_banked(&circuit, &random_rows(num_inputs, width, seed))?;
    }
}

/// The three member shapes on one sum `x + y + z`, spelled out: permuted
/// edges share the bank, a flipped sign starts a sibling row, and a wide
/// threshold puts the same row in a second (General) bank.
#[test]
fn permuted_sign_flipped_and_wide_members_bank_as_specified() {
    let mut b = CircuitBuilder::new(3);
    let (x, y, z) = (Wire::input(0), Wire::input(1), Wire::input(2));
    let members = [
        (vec![(x, 1), (y, 1), (z, 1)], 1),
        (vec![(z, 1), (x, 1), (y, 1)], 2),
        (vec![(y, 1), (z, 1), (x, 1)], 3),
        (vec![(x, 1), (y, -1), (z, 1)], 1),
        (vec![(x, 1), (y, 1), (z, 1)], i64::MAX - 1),
    ];
    for (fan_in, t) in members {
        let g = b.add_gate(fan_in, t).unwrap();
        b.mark_output(g);
    }
    let circuit = b.build();
    let compiled = circuit.compile().unwrap();
    assert_eq!(compiled.num_banks(), 3);
    assert_eq!(compiled.num_evaluated_edges(), 9);
    assert_eq!(compiled.class_counts(), [4, 0, 1]);
    assert_eq!(compiled.gate_class(4), GateClass::General);
    for g in 1..3 {
        assert_eq!(compiled.fan_in(g), compiled.fan_in(0));
    }
    assert_ne!(compiled.fan_in(3), compiled.fan_in(0));
    let rows: Vec<Vec<bool>> = (0..8u32)
        .map(|bits| (0..3).map(|i| bits & (1 << i) != 0).collect())
        .collect();
    check_banked(&circuit, &rows).unwrap();
}
