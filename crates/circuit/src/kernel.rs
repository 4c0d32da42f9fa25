//! The unified width-generic bit-sliced kernel.
//!
//! One carry-save plane kernel serves every lane width behind
//! [`CompiledCircuit::evaluate_rows_arena`]: `W = 1` is the 64-lane path and
//! `W ∈ {2, 4, 8}` are the 128/256/512-lane wide paths. Every word-column of
//! a plane is an independent instance of the 64-lane kernel — carries never
//! propagate between words — so lane `l` of any width is bit-identical to
//! the scalar evaluator on assignment `l`.
//!
//! The kernel body ([`CompiledCircuit::run_planes_core`]) is generic over a
//! [`WordVec`]: the `W` word-columns of one plane are the lanes of one
//! vector value, so the same source compiles to portable `[u64; W]` loops
//! *and* to explicit SSE2/AVX2/AVX-512/NEON code. [`CompiledCircuit::run_planes`]
//! dispatches per width on runtime CPU-feature detection (see `simd.rs`);
//! the portable instantiation is the fallback and the differential oracle.
//! Vector ripple loops run while *any* word-column still carries — finished
//! columns see no-op lane operations — so every arm is bit-identical.
//!
//! The kernel walks the compiled circuit's class *segments* (maximal runs of
//! equal [`GateClass`] in the internal `(depth, class, row)`-sorted gate
//! order), and inside a segment its *banks* (maximal runs of gates sharing
//! one fan-in row). Each bank's row is added into the `pos`/`neg` carry-save
//! planes once:
//!
//! * [`GateClass::Unit`] — all weights ±1: the row's raw lane words are
//!   carry-save-added from plane 0, positives then negatives (the row's
//!   edge order), with no bit-edge indirection at all;
//! * [`GateClass::Pow2`] — single-set-bit weights: exactly one shift-indexed
//!   plane addition per edge;
//! * [`GateClass::General`] — bit-edge decomposition (one plane addition
//!   per set bit of each weight magnitude), with the cold per-lane
//!   `i128` fallback for banks whose weight reach exceeds the plane budget.
//!
//! Then the bank's members are evaluated from the shared planes in one of
//! two ways:
//!
//! * **thermometer decode** — a bank with a plan (at least two members, no
//!   negative weight; see `Thermometers` in `compiled.rs`) has every
//!   threshold a multiple `i·2^s`, so its members are a thermometer code
//!   of `x = ⌊S / 2^s⌋`, planes `[s, p)` of `pos`. Each distinct `i` is
//!   decoded once, walking one shared MSB-first comparison trie, and
//!   stored to every member with that threshold. Each count run (one
//!   Lemma 3.1 block `i = a..=b`) adds its firings,
//!   `clamp(x − a + 1, 0, b − a + 1)`, to the firing planes as one
//!   bit-sliced number in one carry pass, clamped by its members `y_a` and
//!   `y_b`;
//! * **compare** — every other bank (one member, a negative weight, or the
//!   wide fallback) compares each member's threshold against `pos − neg`
//!   and stores and counts each member as a gate of its own, so a
//!   one-member bank does exactly the work of an unshared gate.
//!
//! Either way every gate value and every lane's firing count equal the
//! scalar oracle's, which still evaluates every gate on its own.

use crate::compiled::{BankPlan, CompiledCircuit, GateClass, FIRING_PLANES, NO_PLAN, WIDE_GATE};
use crate::simd::{self, WordVec, Words};

/// Valid-lane mask for word `word` of a batch carrying `lanes` assignments.
#[inline]
pub(crate) fn word_mask(lanes: usize, word: usize) -> u64 {
    let lo = word * 64;
    if lanes >= lo + 64 {
        !0u64
    } else if lanes <= lo {
        0u64
    } else {
        (1u64 << (lanes - lo)) - 1
    }
}

/// Ripple-adds `carry` into a bit-sliced counter starting at plane `i`:
/// all `W` word-columns advance together, looping while *any* still
/// carries (word-columns whose carry already died see no-op lane ops, so
/// the result is bit-identical to per-word ripple); amortised O(1) planes
/// touched per call.
#[inline(always)]
fn ripple_add<const W: usize, V: WordVec<W>>(
    planes: &mut [[u64; W]; 64],
    mut i: usize,
    mut carry: V,
) {
    while carry.any() {
        let a = V::load(&planes[i]);
        a.xor(carry).store(&mut planes[i]);
        carry = carry.and(a);
        i += 1;
    }
}

/// `S = POS - NEG - t` per lane over `p` planes, bit-sliced across all `W`
/// word-columns at once; the returned value has bit `l` of word `w` set iff
/// `S >= 0` for lane `64·w + l`.
#[inline(always)]
fn fired_planes<const W: usize, V: WordVec<W>>(
    pos: &[[u64; W]; 64],
    neg: &[[u64; W]; 64],
    p: usize,
    t: i64,
) -> V {
    let mut carry = V::ones(); // first +1 of the two two's-complement negations
    let mut carry2 = V::ones(); // second +1
    let mut sign = V::zero();
    for i in 0..p {
        let a = V::load(&pos[i]);
        let b = V::load(&neg[i]).not();
        let s1 = a.xor3(b, carry);
        carry = a.maj(b, carry);
        // Subtract the matching plane of the constant threshold.
        let tb = if (t >> i.min(63)) & 1 == 1 {
            V::zero()
        } else {
            V::ones()
        };
        sign = s1.xor3(tb, carry2);
        carry2 = s1.maj(tb, carry2);
    }
    sign.not()
}

/// Ripple-adds `carry` (already masked to valid lanes) into the bit-sliced
/// firing counter from plane `i` up.
#[inline(always)]
fn count_firing<const W: usize, V: WordVec<W>>(
    firing: &mut [[u64; W]],
    mut i: usize,
    mut carry: V,
) {
    while carry.any() {
        let a = V::load(&firing[i]);
        a.xor(carry).store(&mut firing[i]);
        carry = carry.and(a);
        i += 1;
    }
}

/// Reinterprets `&mut [[u64; A]]` as `&mut [[u64; B]]` once a width match
/// (`A == B`) has been established at runtime — the bridge between the
/// const-generic `W` of the public kernel entry and the concrete widths the
/// SIMD dispatch arms are written for.
#[inline(always)]
fn cast_width<const A: usize, const B: usize>(v: &mut [[u64; A]]) -> &mut [[u64; B]] {
    assert_eq!(A, B);
    // SAFETY: A == B (checked above), so the element layouts are identical.
    unsafe { std::slice::from_raw_parts_mut(v.as_mut_ptr() as *mut [u64; B], v.len()) }
}

impl CompiledCircuit {
    /// The width-generic kernel entry: evaluates every gate over `vals`
    /// (slot-indexed `[u64; W]` lane words, constant-one and inputs already
    /// packed) and accumulates per-lane firing counts into `firing`
    /// (`FIRING_PLANES` planes, zeroed by the caller).
    ///
    /// Gate slots are written in internal `(depth, class, row)` order — callers
    /// translate to original gate ids through the compiled permutation.
    /// Lanes at and beyond `lanes` hold unspecified values; firing counts
    /// only accumulate valid lanes.
    ///
    /// Dispatches on [`simd::active_level`]: the widths a detected vector
    /// ISA covers run the explicitly vectorized instantiations of
    /// [`CompiledCircuit::run_planes_core`]; everything else (and the
    /// force-portable arm) runs the portable `[u64; W]` instantiation.
    /// All arms are bit-identical.
    pub(crate) fn run_planes<const W: usize>(
        &self,
        vals: &mut [[u64; W]],
        firing: &mut [[u64; W]],
        lanes: usize,
    ) {
        debug_assert!(vals.len() >= self.len_slots());
        debug_assert!(firing.len() >= FIRING_PLANES);
        debug_assert!(lanes <= 64 * W);

        #[cfg(target_arch = "x86_64")]
        {
            let level = simd::active_level();
            use simd::SimdLevel;
            match (W, level) {
                (2, SimdLevel::Sse2 | SimdLevel::Avx2 | SimdLevel::Avx512) => {
                    // SSE2 is part of the x86_64 baseline: no runtime gate
                    // beyond the force-portable switch.
                    return self.run_planes_core::<2, simd::Sse2>(
                        cast_width(vals),
                        cast_width(firing),
                        lanes,
                    );
                }
                (4, SimdLevel::Avx2 | SimdLevel::Avx512) => {
                    // SAFETY: AVX2 presence established by `active_level`.
                    return unsafe {
                        self.run_planes_avx2_w4(cast_width(vals), cast_width(firing), lanes)
                    };
                }
                (4, SimdLevel::Sse2) => {
                    return self.run_planes_core::<4, simd::Pair4<simd::Sse2>>(
                        cast_width(vals),
                        cast_width(firing),
                        lanes,
                    );
                }
                (8, SimdLevel::Avx512) => {
                    // SAFETY: AVX-512F presence established by `active_level`.
                    return unsafe {
                        self.run_planes_avx512_w8(cast_width(vals), cast_width(firing), lanes)
                    };
                }
                (8, SimdLevel::Avx2) => {
                    // SAFETY: AVX2 presence established by `active_level`.
                    return unsafe {
                        self.run_planes_avx2_w8(cast_width(vals), cast_width(firing), lanes)
                    };
                }
                (8, SimdLevel::Sse2) => {
                    return self.run_planes_core::<8, simd::Pair8<simd::Pair4<simd::Sse2>>>(
                        cast_width(vals),
                        cast_width(firing),
                        lanes,
                    );
                }
                _ => {}
            }
        }

        #[cfg(target_arch = "aarch64")]
        {
            if simd::active_level() == simd::SimdLevel::Neon {
                // NEON is part of the aarch64 baseline.
                match W {
                    2 => {
                        return self.run_planes_core::<2, simd::Neon>(
                            cast_width(vals),
                            cast_width(firing),
                            lanes,
                        );
                    }
                    4 => {
                        return self.run_planes_core::<4, simd::Pair4<simd::Neon>>(
                            cast_width(vals),
                            cast_width(firing),
                            lanes,
                        );
                    }
                    8 => {
                        return self.run_planes_core::<8, simd::Pair8<simd::Pair4<simd::Neon>>>(
                            cast_width(vals),
                            cast_width(firing),
                            lanes,
                        );
                    }
                    _ => {}
                }
            }
        }

        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        let _ = simd::active_level(); // keep detection warm off-ISA too

        self.run_planes_core::<W, Words<W>>(vals, firing, lanes)
    }

    /// AVX2 instantiation for `W = 4` (256-lane passes).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (callers dispatch behind
    /// `is_x86_feature_detected!`).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    // SAFETY: `unsafe` here comes only from `#[target_feature]` — the body
    // performs no unsafe operation itself; callers dispatch behind the
    // runtime feature check documented above.
    unsafe fn run_planes_avx2_w4(
        &self,
        vals: &mut [[u64; 4]],
        firing: &mut [[u64; 4]],
        lanes: usize,
    ) {
        self.run_planes_core::<4, simd::Avx2>(vals, firing, lanes)
    }

    /// AVX2-pair instantiation for `W = 8` (512-lane passes on AVX2-only
    /// hardware).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    // SAFETY: `unsafe` here comes only from `#[target_feature]` — the body
    // performs no unsafe operation itself; callers dispatch behind the
    // runtime feature check documented above.
    unsafe fn run_planes_avx2_w8(
        &self,
        vals: &mut [[u64; 8]],
        firing: &mut [[u64; 8]],
        lanes: usize,
    ) {
        self.run_planes_core::<8, simd::Pair8<simd::Avx2>>(vals, firing, lanes)
    }

    /// AVX-512F instantiation for `W = 8` (512-lane passes; `xor3`/`maj`
    /// collapse to `vpternlogq`).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    // SAFETY: `unsafe` here comes only from `#[target_feature]` — the body
    // performs no unsafe operation itself; callers dispatch behind the
    // runtime feature check documented above.
    unsafe fn run_planes_avx512_w8(
        &self,
        vals: &mut [[u64; 8]],
        firing: &mut [[u64; 8]],
        lanes: usize,
    ) {
        self.run_planes_core::<8, simd::Avx512>(vals, firing, lanes)
    }

    /// The kernel body, generic over the vector type carrying one plane's
    /// `W` word-columns. `#[inline(always)]` so each `#[target_feature]`
    /// wrapper compiles its own fully vectorized copy.
    #[inline(always)]
    fn run_planes_core<const W: usize, V: WordVec<W>>(
        &self,
        vals: &mut [[u64; W]],
        firing: &mut [[u64; W]],
        lanes: usize,
    ) {
        let gate_base = 1 + self.num_inputs;
        let mut wmask = [0u64; W];
        for (w, m) in wmask.iter_mut().enumerate() {
            *m = word_mask(lanes, w);
        }
        let wmask = V::load(&wmask);
        // Per-bank carry-save accumulators for positive and negative weight
        // magnitudes, shared across every class arm.
        let mut pos = [[0u64; W]; 64];
        let mut neg = [[0u64; W]; 64];
        // The thermometer decode's comparison trie: entry `d` holds the
        // `(x == v, x > v)` lanes over the top `d` planes of `x`.
        let mut trie = [(V::ones(), V::zero()); 64];

        for &(class, seg_lo, seg_hi) in &self.segments {
            let seg_hi = seg_hi as usize;
            let mut lo = seg_lo as usize;
            while lo < seg_hi {
                let r = self.gate_rows[lo] as usize;
                let mut hi = lo + 1;
                while hi < seg_hi && self.gate_rows[hi] as usize == r {
                    hi += 1;
                }
                let p = self.batch_planes[r];
                if p == WIDE_GATE {
                    for g in lo..hi {
                        let fired = V::load(&self.fire_wide_lanes(g, vals, lanes));
                        fired.store(&mut vals[gate_base + g]);
                        count_firing(firing, 0, fired.and(wmask));
                    }
                    lo = hi;
                    continue;
                }
                let p = p as usize;
                pos[..p].fill([0u64; W]);
                neg[..p].fill([0u64; W]);
                match class {
                    GateClass::Unit => self.add_unit_row::<W, V>(r, vals, &mut pos, &mut neg),
                    GateClass::Pow2 | GateClass::General => {
                        self.add_bit_edges::<W, V>(r, vals, &mut pos, &mut neg)
                    }
                }
                match self.thermo.row_plans[r] {
                    NO_PLAN => {
                        for g in lo..hi {
                            let fired = fired_planes::<W, V>(&pos, &neg, p, self.thresholds[g]);
                            fired.store(&mut vals[gate_base + g]);
                            count_firing(firing, 0, fired.and(wmask));
                        }
                    }
                    k => {
                        let plan = &self.thermo.plans[k as usize];
                        let gates = &mut vals[gate_base..];
                        self.decode_bank::<W, V>(plan, &pos, p, gates, &mut trie);
                        self.count_bank::<W, V>(plan, &pos, p, gates, firing, wmask);
                    }
                }
                lo = hi;
            }
        }
    }

    /// Decodes a planned bank: every member fires iff `x ≥ v`, where `x` is
    /// planes `[shift, p)` of the bank's non-negative sum and `v` its
    /// threshold over `2^shift`. Values `v ≤ 0` are constant ones, values
    /// `v ≥ 2^(p − shift)` constant zeros, and the rest walk one MSB-first
    /// comparison trie: in value order, each value resumes from the prefix
    /// it shares with the previous one. Each value is stored to every
    /// member of its group (`gates` is indexed by internal gate id).
    #[inline(always)]
    fn decode_bank<const W: usize, V: WordVec<W>>(
        &self,
        plan: &BankPlan,
        pos: &[[u64; W]; 64],
        p: usize,
        gates: &mut [[u64; W]],
        trie: &mut [(V, V); 64],
    ) {
        let t = &self.thermo;
        let s = usize::from(plan.shift);
        let q = p.saturating_sub(s);
        let mut group = plan.first_group as usize;
        let mut prev: Option<u64> = None;
        for run in &t.decode_runs[plan.decode.0 as usize..plan.decode.1 as usize] {
            for v in run.a..run.a + i64::from(run.n) {
                let fired = if v <= 0 {
                    V::ones()
                } else if v.unsigned_abs() >> q != 0 {
                    V::zero()
                } else {
                    let v = v.unsigned_abs();
                    let from = prev.map_or(0, |u| q + (u ^ v).leading_zeros() as usize - 64);
                    prev = Some(v);
                    let (mut eq, mut gt) = trie[from];
                    for d in from..q {
                        let bit = q - 1 - d;
                        let x = V::load(&pos[s + bit]);
                        if (v >> bit) & 1 == 1 {
                            eq = eq.and(x);
                        } else {
                            gt = gt.or(eq.and(x));
                            eq = eq.and(x.not());
                        }
                        trie[d + 1] = (eq, gt);
                    }
                    eq.or(gt)
                };
                let (lo, hi) = (t.group_offsets[group], t.group_offsets[group + 1]);
                for &g in &t.group_gates[lo as usize..hi as usize] {
                    fired.store(&mut gates[g as usize]);
                }
                group += 1;
            }
        }
    }

    /// Adds a planned bank's firing count, one count run at a time: the run
    /// fires `n` times where `y_b` fired, none where `y_a` did not, and
    /// `x − (a − 1)` times otherwise. That count is formed bit by bit over
    /// `x`'s low planes and added to the firing planes in one carry pass.
    #[inline(always)]
    fn count_bank<const W: usize, V: WordVec<W>>(
        &self,
        plan: &BankPlan,
        pos: &[[u64; W]; 64],
        p: usize,
        gates: &[[u64; W]],
        firing: &mut [[u64; W]],
        wmask: V,
    ) {
        let s = usize::from(plan.shift);
        for run in &self.thermo.count_runs[plan.counts.0 as usize..plan.counts.1 as usize] {
            let yb = V::load(&gates[run.last as usize]).and(wmask);
            let ya = V::load(&gates[run.first as usize]).and(wmask);
            let mid = ya.and(yb.not());
            let n = u64::from(run.n);
            let width = 64 - n.leading_zeros() as usize;
            // x − (a − 1) = x + (1 − a) modulo 2^width: exact where it is
            // used, since there it lies in [1, n − 1].
            let m = 1i64.wrapping_sub(run.a);
            let (mut add_carry, mut carry) = (V::zero(), V::zero());
            for i in 0..width {
                let x = if s + i < p {
                    V::load(&pos[s + i])
                } else {
                    V::zero()
                };
                let (d, next) = if (m >> i) & 1 == 1 {
                    (x.xor(add_carry).not(), x.or(add_carry))
                } else {
                    (x.xor(add_carry), x.and(add_carry))
                };
                add_carry = next;
                let mut c = mid.and(d);
                if (n >> i) & 1 == 1 {
                    c = c.or(yb);
                }
                let f = V::load(&firing[i]);
                f.xor3(c, carry).store(&mut firing[i]);
                carry = f.maj(c, carry);
            }
            count_firing(firing, width, carry);
        }
    }

    /// Adds a `Unit` row: ±1 weights, so each edge is one carry-save
    /// addition of the raw lane words from plane 0 — no bit-edges, no shift
    /// decode, no sign branch.
    #[inline(always)]
    fn add_unit_row<const W: usize, V: WordVec<W>>(
        &self,
        r: usize,
        vals: &[[u64; W]],
        pos: &mut [[u64; W]; 64],
        neg: &mut [[u64; W]; 64],
    ) {
        let lo = self.offsets[r] as usize;
        let hi = self.offsets[r + 1] as usize;
        let split = lo + self.pos_counts[r] as usize;
        for e in lo..split {
            ripple_add(pos, 0, V::load(&vals[self.wires[e] as usize]));
        }
        for e in split..hi {
            ripple_add(neg, 0, V::load(&vals[self.wires[e] as usize]));
        }
    }

    /// Adds a `Pow2`/`General` row (plane budget holds): ripple-adds every
    /// bit-edge's lane words at its shift.
    #[inline(always)]
    fn add_bit_edges<const W: usize, V: WordVec<W>>(
        &self,
        r: usize,
        vals: &[[u64; W]],
        pos: &mut [[u64; W]; 64],
        neg: &mut [[u64; W]; 64],
    ) {
        let lo = self.bit_offsets[r] as usize;
        let hi = self.bit_offsets[r + 1] as usize;
        for e in lo..hi {
            let mask = V::load(&vals[self.bit_slots[e] as usize]);
            let desc = self.bit_shifts[e];
            let planes_arr = if desc & 0x80 != 0 {
                &mut *neg
            } else {
                &mut *pos
            };
            let base = (desc & 0x3F) as usize;
            ripple_add(planes_arr, base, mask);
        }
    }

    /// Wide-bank fallback: evaluates internal gate `g` on each lane with an
    /// `i128` accumulator over its row. Only reached when a bank's weight
    /// reach exceeds the plane budget (~2^61), which no paper construction
    /// does.
    #[cold]
    fn fire_wide_lanes<const W: usize>(
        &self,
        g: usize,
        vals: &[[u64; W]],
        lanes: usize,
    ) -> [u64; W] {
        let r = self.gate_rows[g] as usize;
        let lo = self.offsets[r] as usize;
        let hi = self.offsets[r + 1] as usize;
        let t = self.thresholds[g] as i128;
        let mut fired = [0u64; W];
        for l in 0..lanes {
            let (word, bit) = (l / 64, l % 64);
            let mut acc: i128 = 0;
            for e in lo..hi {
                if (vals[self.wires[e] as usize][word] >> bit) & 1 == 1 {
                    acc += self.weights[e] as i128;
                }
            }
            // lint:allow(narrowing-cast): a bool is exactly 0 or 1
            fired[word] |= ((acc >= t) as u64) << bit;
        }
        fired
    }
}

/// Expands bit-sliced firing planes into per-lane counts, appending `lanes`
/// entries to `out`.
pub(crate) fn firing_counts_into<const W: usize>(
    firing: &[[u64; W]],
    lanes: usize,
    out: &mut Vec<u32>,
) {
    let start = out.len();
    out.resize(start + lanes, 0);
    let counts = &mut out[start..];
    for (k, plane) in firing.iter().enumerate().take(FIRING_PLANES) {
        for (w, &word) in plane.iter().enumerate() {
            let mut m = word & word_mask(lanes, w);
            while m != 0 {
                let l = w * 64 + m.trailing_zeros() as usize;
                counts[l] += 1 << k;
                m &= m - 1;
            }
        }
    }
}
