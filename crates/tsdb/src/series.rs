//! A single time series: sorted `(timestamp, value)` points plus
//! range/downsampling queries.
//!
//! Storage is columnar (structure-of-arrays): one contiguous column of
//! timestamps (`u32` offsets from a per-series base) and one contiguous
//! `Vec<f64>` of values, kept index-aligned.
//! The hot read paths — `downsample`, `downsample_dense`, and the window
//! scans behind the inference layer — walk the value column as branch-light
//! batch loops over contiguous memory instead of striding over interleaved
//! `(t, v)` pairs, and each bin's aggregate is folded as the scan passes
//! (no per-bin temporary collection). The public `Point` API, the WAL
//! encoding, and the store content hash are unchanged from the interleaved
//! layout: `Point` is now a view struct materialized on demand.

/// One sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Seconds since the simulation epoch.
    pub t: i64,
    pub v: f64,
}

impl Point {
    pub fn new(t: i64, v: f64) -> Self {
        Point { t, v }
    }
}

/// Bin aggregation function for downsampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// Minimum — the paper's outlier filter ("we select the minimum latency
    /// in a time bin", §4.1/§4.2).
    Min,
    Max,
    Mean,
    Sum,
    Count,
    Last,
}

/// Streaming per-bin accumulator: folds one value at a time in scan order,
/// producing bit-identical results to aggregating a collected `Vec<f64>`
/// per bin (min/max fold in the same order; mean/sum accumulate the same
/// left-to-right partial sums).
#[derive(Debug, Clone, Copy)]
struct AggState {
    acc: f64,
    n: usize,
}

impl AggState {
    fn new(agg: Aggregate) -> Self {
        let acc = match agg {
            Aggregate::Min => f64::INFINITY,
            Aggregate::Max => f64::NEG_INFINITY,
            _ => 0.0,
        };
        AggState { acc, n: 0 }
    }

    #[inline]
    fn feed(&mut self, agg: Aggregate, v: f64) {
        self.n += 1;
        match agg {
            Aggregate::Min => self.acc = self.acc.min(v),
            Aggregate::Max => self.acc = self.acc.max(v),
            Aggregate::Mean | Aggregate::Sum => self.acc += v,
            Aggregate::Count => {}
            Aggregate::Last => self.acc = v,
        }
    }

    #[inline]
    fn finish(&self, agg: Aggregate) -> f64 {
        debug_assert!(self.n > 0);
        match agg {
            Aggregate::Mean => self.acc / self.n as f64,
            Aggregate::Count => self.n as f64,
            _ => self.acc,
        }
    }
}

/// An append-mostly series kept sorted by timestamp.
///
/// Appends at or after the current tail are O(1); out-of-order inserts fall
/// back to a binary-search insert. Duplicate timestamps are allowed (TSLP
/// probes to three destinations in the same round legitimately share a bin).
///
/// Timestamps are stored as `u32` second offsets from a per-series `base`
/// (12 bytes per point instead of 16), so one series spans at most
/// `u32::MAX` seconds — about 136 years of sim time.
#[derive(Debug, Clone, Default)]
pub struct Series {
    /// Timestamp column as offsets from `base`, sorted ascending.
    ts: Vec<u32>,
    /// Timestamp of offset 0; never later than the earliest point.
    base: i64,
    /// Value column, index-aligned with `ts`.
    vs: Vec<f64>,
    /// Id of this series' escaped key token in the attached WAL's registry,
    /// filled lazily on the first WAL append. Caching it here (where the
    /// write path already holds the shard lock) keeps journaled writes from
    /// re-escaping the key for every sample. Ids are scoped to the WAL the
    /// store was attached to; stores are never re-attached to a second WAL.
    pub(crate) wal_key_token: std::sync::OnceLock<u32>,
}

/// Borrowed column view of a series or of one window of it: timestamps
/// (as offsets from `base`) and values, index-aligned.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cols<'a> {
    base: i64,
    ts: &'a [u32],
    vs: &'a [f64],
}

impl<'a> Cols<'a> {
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// Timestamp of point `i`.
    #[inline]
    pub fn t(&self, i: usize) -> i64 {
        self.base + self.ts[i] as i64
    }

    /// The value column.
    pub fn values(&self) -> &'a [f64] {
        self.vs
    }

    /// The points, in timestamp order.
    pub fn iter(&self) -> impl Iterator<Item = Point> + 'a {
        let base = self.base;
        self.ts.iter().zip(self.vs).map(move |(&o, &v)| Point::new(base + o as i64, v))
    }
}

impl Series {
    pub fn new() -> Self {
        Series::default()
    }

    pub fn len(&self) -> usize {
        self.ts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// Insert a sample, keeping the series sorted.
    ///
    /// A full series grows both columns by an eighth (at least 32 points)
    /// instead of `Vec`'s doubling: thousands of series filling in lockstep
    /// would otherwise all double at about the same round, leaving up to
    /// half of every column as slack at peak.
    ///
    /// Panics if the series would span more than `u32::MAX` seconds.
    pub fn push(&mut self, t: i64, v: f64) {
        if self.ts.is_empty() {
            self.base = t;
        } else if t < self.base {
            self.rebase(t);
        }
        let off = t
            .checked_sub(self.base)
            .and_then(|d| u32::try_from(d).ok())
            .expect("a series spans at most u32::MAX seconds");
        if self.ts.len() == self.ts.capacity() {
            let extra = (self.ts.len() / 8).max(32);
            self.ts.reserve_exact(extra);
            self.vs.reserve_exact(extra);
        }
        if self.ts.last().is_none_or(|&last| last <= off) {
            self.ts.push(off);
            self.vs.push(v);
        } else {
            let i = self.ts.partition_point(|&o| o <= off);
            self.ts.insert(i, off);
            self.vs.insert(i, v);
        }
    }

    /// Move `base` back to `t` (an insert before every stored point).
    fn rebase(&mut self, t: i64) {
        let last = *self.ts.last().expect("non-empty");
        let shift = self
            .base
            .checked_sub(t)
            .and_then(|d| u32::try_from(d).ok())
            .filter(|&d| last.checked_add(d).is_some())
            .expect("a series spans at most u32::MAX seconds");
        for o in &mut self.ts {
            *o += shift;
        }
        self.base = t;
    }

    /// Index range `[lo, hi)` of points with `start <= t < end`. An empty or
    /// inverted window (`end <= start`) selects nothing — callers forward
    /// user-supplied windows (the serving layer's query parameters) straight
    /// here, so an inverted range must be a harmless no-op.
    fn index_range(&self, start: i64, end: i64) -> (usize, usize) {
        if end <= start {
            return (0, 0);
        }
        let base = self.base;
        let lo = self.ts.partition_point(|&o| base + (o as i64) < start);
        let hi = self.ts.partition_point(|&o| base + (o as i64) < end);
        (lo, hi)
    }

    /// Column view of the window `start <= t < end`. The zero-copy
    /// primitive behind every windowed read.
    pub fn range_cols(&self, start: i64, end: i64) -> Cols<'_> {
        let (lo, hi) = self.index_range(start, end);
        Cols { base: self.base, ts: &self.ts[lo..hi], vs: &self.vs[lo..hi] }
    }

    /// All points with `start <= t < end`, materialized as `Point`s.
    pub fn range(&self, start: i64, end: i64) -> Vec<Point> {
        self.range_cols(start, end).iter().collect()
    }

    /// Every point, materialized.
    pub fn all(&self) -> Vec<Point> {
        self.cols().iter().collect()
    }

    /// Full column view.
    pub fn cols(&self) -> Cols<'_> {
        Cols { base: self.base, ts: &self.ts, vs: &self.vs }
    }

    /// First/last timestamps, if any.
    pub fn span(&self) -> Option<(i64, i64)> {
        let c = self.cols();
        (!c.is_empty()).then(|| (c.t(0), c.t(c.len() - 1)))
    }

    /// Downsample the half-open window `[start, end)` into bins of
    /// `bin_secs`, applying `agg` per bin. Empty bins yield no output point.
    ///
    /// Output timestamps are the *start* of each bin, aligned to
    /// `start + k*bin_secs`. When `bin_secs` does not divide the window the
    /// final bin is simply shorter: points past `end` never contribute.
    /// Non-positive bins and empty/inverted windows yield no bins — these
    /// arrive from user-supplied query parameters, and must degrade to an
    /// empty result rather than panic.
    ///
    /// Streaming: each bin's aggregate is folded directly as the column scan
    /// passes over it — no per-bin temporary collection.
    pub fn downsample(&self, start: i64, end: i64, bin_secs: i64, agg: Aggregate) -> Vec<Point> {
        if bin_secs <= 0 || end <= start {
            return Vec::new();
        }
        let c = self.range_cols(start, end);
        let mut out = Vec::new();
        let mut i = 0;
        while i < c.len() {
            let bin_idx = (c.t(i) - start) / bin_secs;
            let bin_start = start + bin_idx * bin_secs;
            let bin_end = bin_start + bin_secs;
            let mut st = AggState::new(agg);
            while i < c.len() && c.t(i) < bin_end {
                st.feed(agg, c.vs[i]);
                i += 1;
            }
            out.push(Point::new(bin_start, st.finish(agg)));
        }
        out
    }

    /// Downsample like [`Self::downsample`], but emit one entry per bin over
    /// the whole window, with `None` for empty bins. This is what the
    /// autocorrelation algorithm consumes: it must know which 15-minute
    /// intervals had no data at all.
    pub fn downsample_dense(
        &self,
        start: i64,
        end: i64,
        bin_secs: i64,
        agg: Aggregate,
    ) -> Vec<Option<f64>> {
        let mut out = Vec::new();
        self.downsample_dense_into(start, end, bin_secs, agg, &mut out);
        out
    }

    /// [`Self::downsample_dense`] into a caller-owned buffer (cleared
    /// first), so repeated window scans reuse one allocation. Fills bins
    /// directly from the column scan — no intermediate sparse vector.
    pub fn downsample_dense_into(
        &self,
        start: i64,
        end: i64,
        bin_secs: i64,
        agg: Aggregate,
        out: &mut Vec<Option<f64>>,
    ) {
        out.clear();
        if bin_secs <= 0 || end <= start {
            return;
        }
        let nbins = ((end - start) + bin_secs - 1) / bin_secs;
        out.resize(nbins as usize, None);
        let c = self.range_cols(start, end);
        let mut i = 0;
        while i < c.len() {
            let bin_idx = ((c.t(i) - start) / bin_secs) as usize;
            let bin_end = start + (bin_idx as i64 + 1) * bin_secs;
            let mut st = AggState::new(agg);
            while i < c.len() && c.t(i) < bin_end {
                st.feed(agg, c.vs[i]);
                i += 1;
            }
            out[bin_idx] = Some(st.finish(agg));
        }
    }

    /// Drop all points with `t < cutoff`; returns how many were removed.
    pub fn trim_before(&mut self, cutoff: i64) -> usize {
        let (_, keep_from) = self.index_range(i64::MIN, cutoff);
        self.ts.drain(..keep_from);
        self.vs.drain(..keep_from);
        keep_from
    }

    /// Values only, over a range (utility for feeding statistics).
    pub fn values_in(&self, start: i64, end: i64) -> Vec<f64> {
        self.range_cols(start, end).values().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(pts: &[(i64, f64)]) -> Series {
        let mut s = Series::new();
        for &(t, v) in pts {
            s.push(t, v);
        }
        s
    }

    #[test]
    fn push_keeps_sorted_with_out_of_order_inserts() {
        let s = series(&[(10, 1.0), (5, 2.0), (20, 3.0), (15, 4.0)]);
        let ts: Vec<i64> = s.all().iter().map(|p| p.t).collect();
        assert_eq!(ts, vec![5, 10, 15, 20]);
        // Value column stays aligned with the timestamp column.
        assert_eq!(s.all()[0], Point::new(5, 2.0));
        assert_eq!(s.cols().len(), s.cols().values().len());
    }

    #[test]
    fn range_is_half_open() {
        let s = series(&[(0, 0.0), (5, 1.0), (10, 2.0)]);
        let r = s.range(0, 10);
        assert_eq!(r.len(), 2);
        assert_eq!(s.range(5, 11).len(), 2);
        assert_eq!(s.range(11, 20).len(), 0);
        let c = s.range_cols(5, 11);
        assert_eq!((c.len(), c.t(0), c.t(1)), (2, 5, 10));
        assert_eq!(c.values(), &[1.0, 2.0]);
    }

    #[test]
    fn downsample_min_picks_bin_minimum() {
        let s = series(&[(0, 5.0), (100, 3.0), (200, 9.0), (300, 1.0), (400, 2.0)]);
        let bins = s.downsample(0, 600, 300, Aggregate::Min);
        assert_eq!(bins, vec![Point::new(0, 3.0), Point::new(300, 1.0)]);
    }

    #[test]
    fn downsample_skips_empty_bins() {
        let s = series(&[(0, 1.0), (900, 2.0)]);
        let bins = s.downsample(0, 1200, 300, Aggregate::Mean);
        assert_eq!(bins.len(), 2);
        assert_eq!(bins[1].t, 900);
    }

    #[test]
    fn downsample_dense_marks_gaps() {
        let s = series(&[(0, 1.0), (900, 2.0)]);
        let bins = s.downsample_dense(0, 1200, 300, Aggregate::Min);
        assert_eq!(bins, vec![Some(1.0), None, None, Some(2.0)]);
    }

    #[test]
    fn downsample_dense_into_reuses_buffer() {
        let s = series(&[(0, 1.0), (900, 2.0)]);
        let mut buf = vec![Some(99.0); 64];
        s.downsample_dense_into(0, 1200, 300, Aggregate::Min, &mut buf);
        assert_eq!(buf, vec![Some(1.0), None, None, Some(2.0)]);
        s.downsample_dense_into(500, 100, 300, Aggregate::Min, &mut buf);
        assert!(buf.is_empty(), "degenerate window clears the buffer");
    }

    #[test]
    fn aggregate_functions() {
        let s = series(&[(0, 1.0), (1, 2.0), (2, 3.0)]);
        assert_eq!(s.downsample(0, 10, 10, Aggregate::Max)[0].v, 3.0);
        assert_eq!(s.downsample(0, 10, 10, Aggregate::Mean)[0].v, 2.0);
        assert_eq!(s.downsample(0, 10, 10, Aggregate::Sum)[0].v, 6.0);
        assert_eq!(s.downsample(0, 10, 10, Aggregate::Count)[0].v, 3.0);
        assert_eq!(s.downsample(0, 10, 10, Aggregate::Last)[0].v, 3.0);
    }

    #[test]
    fn trim_before_drops_old_points() {
        let mut s = series(&[(0, 1.0), (100, 2.0), (200, 3.0)]);
        assert_eq!(s.trim_before(150), 2);
        assert_eq!(s.len(), 1);
        assert_eq!(s.span(), Some((200, 200)));
    }

    #[test]
    fn inverted_and_empty_windows_are_harmless() {
        let s = series(&[(0, 1.0), (300, 2.0)]);
        assert!(s.range(500, 100).is_empty());
        assert!(s.range(300, 300).is_empty());
        assert!(s.downsample(500, 100, 300, Aggregate::Min).is_empty());
        assert!(s.downsample(0, 0, 300, Aggregate::Min).is_empty());
        assert!(s.downsample_dense(500, 100, 300, Aggregate::Min).is_empty());
        assert!(s.downsample_dense(100, 100, 300, Aggregate::Min).is_empty());
    }

    #[test]
    fn non_positive_bin_yields_no_bins() {
        let s = series(&[(0, 1.0), (300, 2.0)]);
        assert!(s.downsample(0, 600, 0, Aggregate::Min).is_empty());
        assert!(s.downsample(0, 600, -300, Aggregate::Min).is_empty());
        assert!(s.downsample_dense(0, 600, 0, Aggregate::Min).is_empty());
    }

    #[test]
    fn bin_not_dividing_window_keeps_partial_last_bin() {
        // Window of 700 s with 300 s bins: bins [0,300), [300,600), [600,700).
        let s = series(&[(0, 5.0), (650, 1.0), (699, 3.0)]);
        let bins = s.downsample(0, 700, 300, Aggregate::Min);
        assert_eq!(bins, vec![Point::new(0, 5.0), Point::new(600, 1.0)]);
        let dense = s.downsample_dense(0, 700, 300, Aggregate::Min);
        assert_eq!(dense, vec![Some(5.0), None, Some(1.0)]);
        // A point at or past `end` never contributes, even though the last
        // bin's nominal span [600, 900) would cover it.
        let s2 = series(&[(650, 1.0), (700, 99.0), (750, 0.1)]);
        let bins2 = s2.downsample(0, 700, 300, Aggregate::Min);
        assert_eq!(bins2, vec![Point::new(600, 1.0)]);
    }

    #[test]
    fn duplicate_timestamps_allowed() {
        let s = series(&[(5, 1.0), (5, 2.0), (5, 0.5)]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.downsample(0, 10, 10, Aggregate::Min)[0].v, 0.5);
    }

    #[test]
    fn growth_slack_is_bounded() {
        let bound = |s: &Series| s.len() + s.len() / 8 + 32;
        let mut s = Series::new();
        for t in 0..10_000i64 {
            s.push(t, t as f64);
            assert!(s.ts.capacity() <= bound(&s), "in order: {} at len {}", s.ts.capacity(), s.len());
            assert!(s.vs.capacity() <= bound(&s));
        }
        // Out of order: every push inserts before the tail.
        let mut s = Series::new();
        for t in (0..10_000i64).rev() {
            s.push(t, t as f64);
            assert!(s.ts.capacity() <= bound(&s), "out of order: {} at len {}", s.ts.capacity(), s.len());
            assert!(s.vs.capacity() <= bound(&s));
        }
        assert!(s.ts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn offsets_rebase_for_points_before_the_first() {
        let mut s = series(&[(1_000, 1.0), (1_500, 2.0)]);
        s.push(-7, 3.0); // before the base: every offset shifts
        s.push(1_200, 4.0);
        let ts: Vec<i64> = s.all().iter().map(|p| p.t).collect();
        assert_eq!(ts, vec![-7, 1_000, 1_200, 1_500]);
        assert_eq!(s.span(), Some((-7, 1_500)));
        assert_eq!(s.range(-7, 1_001).len(), 2);
        // Emptied by trimming, the series takes a fresh base.
        assert_eq!(s.trim_before(2_000), 4);
        s.push(i64::MAX, 5.0);
        s.push(i64::MAX - u32::MAX as i64, 6.0);
        assert_eq!(s.span(), Some((i64::MAX - u32::MAX as i64, i64::MAX)));
    }

    #[test]
    #[should_panic(expected = "spans at most")]
    fn spans_beyond_u32_seconds_are_refused() {
        let mut s = series(&[(0, 1.0)]);
        s.push(u32::MAX as i64 + 1, 2.0);
    }
}
