//! Lock-free log-linear histograms for serving metrics.
//!
//! The runtime records a latency (or a firing count) per request/group at
//! every lifecycle stage; sorting sample vectors like the bench harness
//! does is out of the question on the serving hot path. A [`Histogram`] is
//! the in-runtime alternative: a fixed array of atomic buckets whose widths
//! grow geometrically — values below 32 land in exact unit buckets, and
//! every power-of-two octave above is split into 16 linear sub-buckets, so
//! a bucket is never wider than 1/16 of its lower bound.
//!
//! That layout buys three properties the serving runtime needs:
//!
//! * **lock-free recording** — one `fetch_add` on a bucket plus two more on
//!   the sum/max scalars, all `Relaxed`; concurrent recorders never contend
//!   on a lock and never allocate (the bucket array is sized at creation);
//! * **mergeability** — histograms (and their snapshots) add bucket-wise,
//!   so per-tenant and per-backend histograms roll up into global ones
//!   without re-recording;
//! * **bounded relative error** — a quantile query returns the upper edge
//!   of the bucket holding the rank-selected sample, which is at least the
//!   true sample and at most [`RELATIVE_ERROR`] (= 2⁻⁴ = 6.25%) above it.
//!   Values below 32 are exact.

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-buckets per power-of-two octave (2⁴ = 16).
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
/// Values below this record exactly (one bucket per integer).
const LINEAR: u64 = 2 * SUB as u64;
/// Total bucket count: 32 exact buckets + 16 per octave for exponents
/// 5..=63.
const BUCKETS: usize = (2 + 64 - SUB_BITS as usize - 1) * SUB;

/// The documented quantile error bound: a [`HistogramSnapshot::quantile`]
/// result `h` for a true (sorted-oracle) quantile sample `x` satisfies
/// `x <= h <= x * (1 + RELATIVE_ERROR)` — the bucket holding `x` is at most
/// `x / 16` wide. Values below 32 (e.g. firing counts of tiny circuits)
/// are exact.
pub const RELATIVE_ERROR: f64 = 1.0 / SUB as f64;

/// Bucket index of a recorded value (log-linear, monotone in `v`).
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < LINEAR {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros() as usize;
    let sub = ((v >> (exp - SUB_BITS as usize)) as usize) & (SUB - 1);
    ((exp - 3) << SUB_BITS) + sub
}

/// Inclusive upper bound of bucket `i` (the value a quantile query reports).
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i < LINEAR as usize {
        return i as u64;
    }
    let exp = (i >> SUB_BITS) + 3;
    let sub = (i & (SUB - 1)) as u64;
    let width_shift = exp - SUB_BITS as usize;
    let lower = (SUB as u64 + sub) << width_shift;
    // Associativity matters: the top bucket's upper bound is exactly
    // `u64::MAX`, so adding the width before subtracting 1 would overflow.
    lower + ((1u64 << width_shift) - 1)
}

/// A lock-free log-linear histogram of `u64` samples (latencies in
/// nanoseconds, firing counts in spikes — the histogram is unit-agnostic).
///
/// Recording is wait-free and allocation-free: three `Relaxed` atomic
/// updates against storage sized once at construction. Queries go through
/// [`Histogram::snapshot`], whose quantiles carry the [`RELATIVE_ERROR`]
/// bound. Two histograms recording concurrently merge exactly
/// ([`Histogram::merge_from`]): bucket counts and sums are plain additions.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram (allocates its fixed bucket array once).
    pub fn new() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    // lint:hot-path-begin — the record family runs once (or once per run)
    // for every sample the serving path takes; three relaxed atomics is
    // the whole budget.
    /// Records one sample. Wait-free, allocation-free, safe to call from
    /// any number of threads concurrently.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records `n` samples of the same value with one atomic per scalar:
    /// a bucket add of `n`, a sum add of `value * n`, one max update.
    /// Equivalent to `n` [`Histogram::record`] calls.
    #[inline]
    pub fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_index(value)].fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(value.wrapping_mul(n), Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a batch of samples with run-coalesced bucket updates: the
    /// sum and max accumulate locally (one atomic each for the whole
    /// batch), and consecutive samples landing in the same bucket share a
    /// single `fetch_add`. The serving runtime feeds this per-group value
    /// runs that are near-monotone (end-to-end latencies of rows packed in
    /// submission order), so a 64-row group typically costs a handful of
    /// atomics instead of 3 per sample. Equivalent to calling
    /// [`Histogram::record`] per value.
    #[inline]
    pub fn record_iter(&self, values: impl Iterator<Item = u64>) {
        let mut sum = 0u64;
        let mut max = 0u64;
        let mut run: Option<(usize, u64)> = None;
        for value in values {
            sum = sum.wrapping_add(value);
            max = max.max(value);
            let bucket = bucket_index(value);
            match &mut run {
                Some((b, n)) if *b == bucket => *n += 1,
                Some((b, n)) => {
                    self.buckets[*b].fetch_add(*n, Ordering::Relaxed);
                    (*b, *n) = (bucket, 1);
                }
                None => run = Some((bucket, 1)),
            }
        }
        let Some((b, n)) = run else { return };
        self.buckets[b].fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(sum, Ordering::Relaxed);
        self.max.fetch_max(max, Ordering::Relaxed);
    }
    // lint:hot-path-end

    /// Total recorded samples (sums the buckets; a query-path operation).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Adds every sample recorded in `other` into `self`, bucket-wise.
    /// Exact: merged quantiles are what a single histogram fed both sample
    /// streams would report.
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// A point-in-time copy for quantile queries and export.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`]: plain counts, so it can be
/// cloned, compared, merged, subtracted (for interval deltas), and queried
/// without touching the live atomics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    sum: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: vec![0; BUCKETS],
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of all recorded samples (exact, not bucket-approximated).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample (exact).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (exact; 0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// The `q`-quantile (`q` in `[0, 1]`), defined over the samples the
    /// sorted oracle would use: rank `ceil(q·n)` clamped to `[1, n]`.
    /// Returns the upper edge of the bucket holding that sample (capped at
    /// the exact max), so the result is `>=` the true sample and within
    /// [`RELATIVE_ERROR`] of it. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Samples `<=` `bound`, to bucket resolution: counts every bucket whose
    /// upper edge is within the bound (the Prometheus cumulative-`le`
    /// export primitive; exact whenever `bound` is a bucket edge).
    pub fn count_at_or_below(&self, bound: u64) -> u64 {
        self.buckets
            .iter()
            .enumerate()
            .take_while(|(i, _)| bucket_upper(*i) <= bound)
            .map(|(_, &c)| c)
            .sum()
    }

    /// Adds `other`'s samples into `self`, bucket-wise (exact merge).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The samples recorded since `prev` was taken (bucket-wise saturating
    /// subtraction — `prev` must be an earlier snapshot of the same
    /// histogram for the delta to be meaningful). `max` keeps the current
    /// all-time value: per-interval maxima are not recoverable from
    /// snapshots.
    pub fn delta_since(&self, prev: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .zip(&prev.buckets)
                .map(|(now, then)| now.saturating_sub(*then))
                .collect(),
            sum: self.sum.saturating_sub(prev.sum),
            max: self.max,
        }
    }
}

/// One keyed entity's histograms across the request lifecycle — the set the
/// runtime keeps per tenant (and, merged, globally). Latency stages are in
/// nanoseconds; `firings` is in spikes per request.
#[derive(Debug, Default)]
pub struct StageHistograms {
    /// Queue wait: group pushed onto its tenant's scheduler queue → popped
    /// by a worker (inline-evaluated groups never queue and never record).
    pub queue_wait: Histogram,
    /// Pack: first row packed into a group → the group dispatched.
    pub pack: Histogram,
    /// Backend eval: wall-clock of one lane group's evaluation on the
    /// serving backend, per group.
    pub eval: Histogram,
    /// Delivery wait: worker finished the group → consumer cursor reached
    /// it.
    pub delivery_wait: Histogram,
    /// End-to-end: row accepted by `submit` → the response's group reached
    /// the consumer cursor, per request. Two documented biases, both far
    /// inside typical stage durations: submit stamps are sampled every
    /// 16th packed row (rows in between reuse the latest reading — at most
    /// the intervening pack gap of upward bias), and the last hop —
    /// handing one response out of an installed cursor — is micro-batched
    /// at group granularity and not included.
    pub end_to_end: Histogram,
    /// Gate firings per request (the Uchizawa–Douglas–Maass energy signal,
    /// as a distribution rather than the [`crate::TelemetrySummary`] sum),
    /// recorded when the group evaluates.
    pub firings: Histogram,
}

impl StageHistograms {
    /// An empty stage set.
    pub fn new() -> Self {
        StageHistograms::default()
    }

    /// A point-in-time copy of every stage.
    pub fn snapshot(&self) -> StageSnapshot {
        StageSnapshot {
            queue_wait: self.queue_wait.snapshot(),
            pack: self.pack.snapshot(),
            eval: self.eval.snapshot(),
            delivery_wait: self.delivery_wait.snapshot(),
            end_to_end: self.end_to_end.snapshot(),
            firings: self.firings.snapshot(),
        }
    }
}

/// A point-in-time copy of a [`StageHistograms`] set (one
/// [`HistogramSnapshot`] per lifecycle stage plus the firings
/// distribution).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageSnapshot {
    /// Queue wait per group, nanoseconds (see
    /// [`StageHistograms::queue_wait`]).
    pub queue_wait: HistogramSnapshot,
    /// Pack latency per group, nanoseconds (see [`StageHistograms::pack`]).
    pub pack: HistogramSnapshot,
    /// Backend eval latency per group, nanoseconds (see
    /// [`StageHistograms::eval`]).
    pub eval: HistogramSnapshot,
    /// Delivery wait per group, nanoseconds (see
    /// [`StageHistograms::delivery_wait`]).
    pub delivery_wait: HistogramSnapshot,
    /// End-to-end latency per request, nanoseconds (see
    /// [`StageHistograms::end_to_end`]).
    pub end_to_end: HistogramSnapshot,
    /// Firings per request, spikes (see [`StageHistograms::firings`]).
    pub firings: HistogramSnapshot,
}

impl StageSnapshot {
    /// The latency stages (nanosecond-valued histograms) with their export
    /// names, in lifecycle order. `firings` is excluded: it is a count
    /// distribution, not a latency.
    pub fn latency_stages(&self) -> [(&'static str, &HistogramSnapshot); 5] {
        [
            ("queue_wait", &self.queue_wait),
            ("pack", &self.pack),
            ("eval", &self.eval),
            ("delivery_wait", &self.delivery_wait),
            ("end_to_end", &self.end_to_end),
        ]
    }

    /// Merges `other` into `self`, stage-wise (exact).
    pub fn merge(&mut self, other: &StageSnapshot) {
        self.queue_wait.merge(&other.queue_wait);
        self.pack.merge(&other.pack);
        self.eval.merge(&other.eval);
        self.delivery_wait.merge(&other.delivery_wait);
        self.end_to_end.merge(&other.end_to_end);
        self.firings.merge(&other.firings);
    }

    /// Stage-wise [`HistogramSnapshot::delta_since`].
    pub fn delta_since(&self, prev: &StageSnapshot) -> StageSnapshot {
        StageSnapshot {
            queue_wait: self.queue_wait.delta_since(&prev.queue_wait),
            pack: self.pack.delta_since(&prev.pack),
            eval: self.eval.delta_since(&prev.eval),
            delivery_wait: self.delivery_wait.delta_since(&prev.delivery_wait),
            end_to_end: self.end_to_end.delta_since(&prev.end_to_end),
            firings: self.firings.delta_since(&prev.firings),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut values: Vec<u64> = (0u32..64)
            .flat_map(|shift| {
                [0u64, 1, 3]
                    .map(|off| (1u64 << shift).saturating_add(off << shift.saturating_sub(5)))
            })
            .collect();
        values.sort_unstable();
        let mut prev = 0usize;
        for v in values {
            let i = bucket_index(v);
            assert!(i < BUCKETS, "index {i} out of range for {v}");
            assert!(i >= prev, "index not monotone at {v}");
            prev = i;
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_upper_bounds_its_values() {
        for v in (0u64..2048).chain([u64::MAX / 3, u64::MAX]) {
            let i = bucket_index(v);
            let upper = bucket_upper(i);
            assert!(upper >= v, "upper {upper} < value {v}");
            // The error bound: a bucket is never wider than value/16.
            assert!(
                upper - v <= v / SUB as u64 || v < LINEAR,
                "bucket too wide at {v}: upper {upper}"
            );
        }
    }

    #[test]
    fn exact_below_linear_threshold() {
        let h = Histogram::new();
        for v in 0..LINEAR {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), LINEAR);
        for q in [0.1, 0.5, 0.9, 1.0] {
            let rank = ((q * LINEAR as f64).ceil() as u64).clamp(1, LINEAR);
            assert_eq!(s.quantile(q), rank - 1, "q={q}");
        }
    }

    #[test]
    fn quantile_respects_the_relative_error_bound() {
        let h = Histogram::new();
        let mut samples: Vec<u64> = (0..500u64).map(|i| i * i * 37 + 11).collect();
        for &v in &samples {
            h.record(v);
        }
        samples.sort_unstable();
        let s = h.snapshot();
        for q in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let exact = samples[rank - 1];
            let approx = s.quantile(q);
            assert!(approx >= exact, "q={q}: {approx} < exact {exact}");
            assert!(
                approx <= exact + exact / SUB as u64,
                "q={q}: {approx} beyond error bound of {exact}"
            );
        }
        assert_eq!(s.max(), *samples.last().unwrap());
        assert_eq!(s.sum(), samples.iter().sum::<u64>());
    }

    #[test]
    fn merge_is_exact() {
        let (a, b) = (Histogram::new(), Histogram::new());
        let combined = Histogram::new();
        for v in 0..1000u64 {
            let sample = v * 7919;
            if v % 2 == 0 { &a } else { &b }.record(sample);
            combined.record(sample);
        }
        a.merge_from(&b);
        assert_eq!(a.snapshot(), combined.snapshot());

        let mut sa = combined.snapshot().delta_since(&combined.snapshot());
        assert_eq!(sa.count(), 0);
        sa.merge(&combined.snapshot());
        assert_eq!(sa, combined.snapshot());
    }

    #[test]
    fn cumulative_counts_match_bucket_edges() {
        let h = Histogram::new();
        for v in [10u64, 100, 1000, 10_000, 100_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count_at_or_below(10), 1);
        assert_eq!(s.count_at_or_below(2_000), 3);
        assert_eq!(s.count_at_or_below(u64::MAX), 5);
        assert_eq!(s.count_at_or_below(0), 0);
    }
}
