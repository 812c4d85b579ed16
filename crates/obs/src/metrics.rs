//! A registry of named counters, gauges and fixed-bucket histograms.
//!
//! Everything is integer-valued and read back in name order, so a rendered
//! snapshot is deterministic: same run, same bytes. Histograms use *fixed*
//! bucket boundaries declared by the observer — the classic
//! monitoring-system trade: O(buckets) memory, exact counts per bucket,
//! quantiles answered as the upper bound of the bucket holding the rank
//! (the true maximum is tracked exactly alongside).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Hard cap on bucket slots per histogram (boundaries + one overflow
/// bucket). Small and fixed so a [`Histogram`] is `Copy`.
pub const MAX_BUCKETS: usize = 16;

/// Bucket boundaries for latency-shaped values in microseconds: 50 µs to
/// 2 s, roughly geometric. Used for lateness, service time and read time.
pub const LATENCY_BUCKETS_US: [u64; 15] = [
    50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000, 500_000,
    1_000_000, 2_000_000,
];

/// Bucket boundaries for byte-sized values: 1 KiB to 1 GiB, ×4 per step.
/// Used for cache occupancy.
pub const BYTES_BUCKETS: [u64; 11] = [
    1 << 10,
    1 << 12,
    1 << 14,
    1 << 16,
    1 << 18,
    1 << 20,
    1 << 22,
    1 << 24,
    1 << 26,
    1 << 28,
    1 << 30,
];

/// A fixed-boundary histogram of `u64` observations.
///
/// `bounds` are inclusive upper limits of the first `bounds.len()` buckets;
/// everything larger lands in the overflow bucket. Count, sum and exact
/// maximum ride along, so means and worst cases need no approximation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    bounds: &'static [u64],
    counts: [u64; MAX_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram over `bounds` (sorted ascending, at most
    /// [`MAX_BUCKETS`]` - 1` boundaries).
    pub fn new(bounds: &'static [u64]) -> Histogram {
        assert!(bounds.len() < MAX_BUCKETS, "too many histogram buckets");
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds not sorted");
        Histogram {
            bounds,
            counts: [0; MAX_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The exact largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Integer mean of the observations (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The bucket boundaries.
    pub fn bounds(&self) -> &'static [u64] {
        self.bounds
    }

    /// Per-bucket counts: `bounds.len() + 1` entries, overflow last.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts[..self.bounds.len() + 1]
    }

    /// Merges `other` into `self`: per-bucket counts, count and sum add,
    /// the exact maximum is the larger of the two. Both histograms must
    /// share the same bucket boundaries — merging distributions recorded
    /// over different buckets has no exact answer.
    ///
    /// This is the cross-shard rollup primitive: every shard records
    /// lateness/service over [`LATENCY_BUCKETS_US`], so a merged histogram
    /// answers global p50/p99 with exactly the fidelity of a single-shard
    /// run.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms over different bucket bounds"
        );
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The nearest-rank `p`-th percentile (`p` in 0..=100), answered as the
    /// inclusive upper bound of the bucket holding that rank. Observations
    /// in the overflow bucket answer with the exact maximum. 0 when empty.
    pub fn quantile(&self, p: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (p * self.count).div_ceil(100).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.bucket_counts().iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i < self.bounds.len() {
                    // The true values in this bucket are ≤ its bound and ≤
                    // the global max.
                    self.bounds[i].min(self.max)
                } else {
                    self.max
                };
            }
        }
        self.max
    }
}

/// One kind of metric (counters, gauges or histograms): every name ever
/// registered, and a value cell per name.
///
/// A cell is `None` from registration until its first write, and a `None`
/// cell does not exist as far as any reader can tell — iteration, lookup
/// by name, rendering and equality all skip it. So registering a name up
/// front changes nothing a run can observe; it only buys the handle.
#[derive(Debug, Clone)]
struct Family<V> {
    /// Name → cell slot, for every registered name. Never shrinks, so a
    /// handle stays valid for the life of the registry.
    index: BTreeMap<String, usize>,
    cells: Vec<Option<V>>,
}

impl<V> Default for Family<V> {
    fn default() -> Family<V> {
        Family {
            index: BTreeMap::new(),
            cells: Vec::new(),
        }
    }
}

impl<V> Family<V> {
    /// The slot of `name`, registering it (unwritten) on first sight. Only
    /// that first sight allocates.
    fn slot(&mut self, name: impl Into<String> + AsRef<str>) -> usize {
        if let Some(&slot) = self.index.get(name.as_ref()) {
            return slot;
        }
        self.cells.push(None);
        self.index.insert(name.into(), self.cells.len() - 1);
        self.cells.len() - 1
    }

    /// The written value of `name`.
    fn get(&self, name: &str) -> Option<&V> {
        self.cells[*self.index.get(name)?].as_ref()
    }

    /// Written cells in name order.
    fn iter(&self) -> impl Iterator<Item = (&str, &V)> + '_ {
        self.index
            .iter()
            .filter_map(|(name, &slot)| Some((name.as_str(), self.cells[slot].as_ref()?)))
    }

    /// Returns every cell under `prefix` to the unwritten state.
    fn clear_prefix(&mut self, prefix: &str) {
        for (name, &slot) in &self.index {
            if name.starts_with(prefix) {
                self.cells[slot] = None;
            }
        }
    }
}

/// Handle to a counter, from [`MetricsRegistry::register_counter`]. Valid
/// on the registry that issued it and on its clones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a gauge, from [`MetricsRegistry::register_gauge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a histogram, from [`MetricsRegistry::register_histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// A registry of named counters, gauges and histograms.
///
/// Names are strings with dotted paths (`"serve.elements.served"`) —
/// usually static, but owned names are accepted so rollups can derive
/// per-shard prefixes (`"shard0.serve.elements.served"`) at runtime.
/// Iteration and rendering are in name order, so a rendered registry is
/// deterministic.
///
/// Two ways in, one storage. The name-taking methods look the name up on
/// every call. A hot path registers its names once
/// ([`MetricsRegistry::register_counter`] and friends) and then writes
/// through the returned handle, which is an array index. Either way a
/// metric becomes visible — to [`render`](MetricsRegistry::render), the
/// iterators, [`merge_prefixed`](MetricsRegistry::merge_prefixed),
/// [`flat_samples`](MetricsRegistry::flat_samples) and `==` — at its first
/// write, a write of 0 included, and not at registration.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Family<u64>,
    gauges: Family<i64>,
    histograms: Family<Histogram>,
    /// The bounds each histogram slot was registered over (parallel to
    /// `histograms.cells`): what a handle write creates the histogram with.
    bounds: Vec<&'static [u64]>,
}

/// Registries are equal when they show the same metrics; names that were
/// registered but never written do not count.
impl PartialEq for MetricsRegistry {
    fn eq(&self, other: &MetricsRegistry) -> bool {
        self.counters.iter().eq(other.counters.iter())
            && self.gauges.iter().eq(other.gauges.iter())
            && self.histograms.iter().eq(other.histograms.iter())
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// A handle to counter `name`, which stays invisible until written.
    pub fn register_counter(&mut self, name: impl Into<String> + AsRef<str>) -> CounterId {
        CounterId(self.counters.slot(name))
    }

    /// A handle to gauge `name`, which stays invisible until written.
    pub fn register_gauge(&mut self, name: impl Into<String> + AsRef<str>) -> GaugeId {
        GaugeId(self.gauges.slot(name))
    }

    /// A handle to histogram `name`, which stays invisible until written.
    /// A first write through the handle creates it over `bounds` (the
    /// first registration's, if the name was registered before).
    pub fn register_histogram(
        &mut self,
        name: impl Into<String> + AsRef<str>,
        bounds: &'static [u64],
    ) -> HistogramId {
        HistogramId(self.histogram_slot(name, bounds))
    }

    fn histogram_slot(
        &mut self,
        name: impl Into<String> + AsRef<str>,
        bounds: &'static [u64],
    ) -> usize {
        let slot = self.histograms.slot(name);
        if slot == self.bounds.len() {
            self.bounds.push(bounds);
        }
        slot
    }

    /// Adds `by` to counter `name` (created at 0 on first use).
    pub fn inc(&mut self, name: impl Into<String> + AsRef<str>, by: u64) {
        let id = self.register_counter(name);
        self.inc_at(id, by);
    }

    /// [`MetricsRegistry::inc`] through a handle.
    pub fn inc_at(&mut self, id: CounterId, by: u64) {
        *self.counters.cells[id.0].get_or_insert(0) += by;
    }

    /// The value of counter `name` (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name` to `value`.
    pub fn set_gauge(&mut self, name: impl Into<String> + AsRef<str>, value: i64) {
        let id = self.register_gauge(name);
        self.set_gauge_at(id, value);
    }

    /// [`MetricsRegistry::set_gauge`] through a handle.
    pub fn set_gauge_at(&mut self, id: GaugeId, value: i64) {
        self.gauges.cells[id.0] = Some(value);
    }

    /// The value of gauge `name` (0 when never set).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Records `value` into histogram `name`, creating it over `bounds` on
    /// first use. The bounds of an existing histogram are kept.
    pub fn observe(
        &mut self,
        name: impl Into<String> + AsRef<str>,
        bounds: &'static [u64],
        value: u64,
    ) {
        let slot = self.histogram_slot(name, bounds);
        self.histograms.cells[slot]
            .get_or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    /// [`MetricsRegistry::observe`] through a handle.
    pub fn observe_at(&mut self, id: HistogramId, value: u64) {
        let bounds = self.bounds[id.0];
        self.histograms.cells[id.0]
            .get_or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    /// The histogram named `name`, if any value was ever observed.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.histograms.get(name).copied()
    }

    /// The histogram named `name`, or an empty one over `bounds`.
    pub fn histogram_or_empty(&self, name: &str, bounds: &'static [u64]) -> Histogram {
        self.histogram(name)
            .unwrap_or_else(|| Histogram::new(bounds))
    }

    /// Counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (k, *v))
    }

    /// Gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, i64)> + '_ {
        self.gauges.iter().map(|(k, v)| (k, *v))
    }

    /// Histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> + '_ {
        self.histograms.iter()
    }

    /// Folds every metric of `other` into this registry under
    /// `prefix + name`: counters and gauges add, histograms
    /// [`Histogram::merge`]. With an empty prefix this is a plain additive
    /// rollup — the shard pattern is one call per shard with
    /// `"shard{i}."` and one with `""` for the global aggregate.
    ///
    /// Gauges *add* rather than last-write-wins because a rollup of
    /// point-in-time gauges (cache occupancy per shard) reads as the
    /// fleet-wide total.
    ///
    /// A **non-empty** prefix claims its namespace: every existing metric
    /// under `prefix` is dropped before the merge, so re-rolling a rollup
    /// after a topology change (a shard migrated away, a node count
    /// shrank) cannot leave stale `shard{i}.*` gauges behind. The empty
    /// prefix stays purely additive — it *is* the aggregate.
    pub fn merge_prefixed(&mut self, other: &MetricsRegistry, prefix: &str) {
        if !prefix.is_empty() {
            self.counters.clear_prefix(prefix);
            self.gauges.clear_prefix(prefix);
            self.histograms.clear_prefix(prefix);
        }
        for (name, v) in other.counters.iter() {
            self.inc(format!("{prefix}{name}"), *v);
        }
        for (name, v) in other.gauges.iter() {
            let slot = self.gauges.slot(format!("{prefix}{name}"));
            *self.gauges.cells[slot].get_or_insert(0) += v;
        }
        for (name, h) in other.histograms.iter() {
            let slot = self.histogram_slot(format!("{prefix}{name}"), h.bounds());
            match &mut self.histograms.cells[slot] {
                Some(mine) => mine.merge(h),
                unwritten => *unwritten = Some(*h),
            }
        }
    }

    /// A plain-text exposition of every metric, one per line, in name
    /// order — deterministic for a deterministic run.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in self.counters.iter() {
            let _ = writeln!(out, "counter {name} {v}");
        }
        for (name, v) in self.gauges.iter() {
            let _ = writeln!(out, "gauge {name} {v}");
        }
        for (name, h) in self.histograms.iter() {
            let _ = writeln!(
                out,
                "histogram {name} count={} sum={} mean={} p50={} p99={} max={}",
                h.count(),
                h.sum(),
                h.mean(),
                h.quantile(50),
                h.quantile(99),
                h.max()
            );
        }
        out
    }

    /// Every metric flattened to named numeric samples, in name order — the
    /// extraction hook a telemetry plane compresses from. Counters and
    /// gauges emit one sample each; every histogram emits
    /// `name.count/.mean/.p50/.p99/.max`, so a per-tick delta of two
    /// flattenings captures the same shape the textual
    /// [`render`](MetricsRegistry::render) shows.
    pub fn flat_samples(&self) -> Vec<(String, f64)> {
        let mut out = Vec::with_capacity(
            self.counters.cells.len() + self.gauges.cells.len() + 5 * self.histograms.cells.len(),
        );
        for (name, v) in self.counters.iter() {
            out.push((name.to_owned(), *v as f64));
        }
        for (name, v) in self.gauges.iter() {
            out.push((name.to_owned(), *v as f64));
        }
        for (name, h) in self.histograms.iter() {
            out.push((format!("{name}.count"), h.count() as f64));
            out.push((format!("{name}.mean"), h.mean() as f64));
            out.push((format!("{name}.p50"), h.quantile(50) as f64));
            out.push((format!("{name}.p99"), h.quantile(99) as f64));
            out.push((format!("{name}.max"), h.max() as f64));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new(&LATENCY_BUCKETS_US);
        assert_eq!(h.quantile(50), 0);
        for us in [10u64, 60, 150, 150, 900, 40_000, 3_000_000] {
            h.observe(us);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.max(), 3_000_000);
        assert_eq!(h.sum(), 10 + 60 + 150 + 150 + 900 + 40_000 + 3_000_000);
        // Rank 4 of 7 lands in the 200 µs bucket.
        assert_eq!(h.quantile(50), 200);
        // The top observation is in the overflow bucket: exact max.
        assert_eq!(h.quantile(100), 3_000_000);
        assert_eq!(h.quantile(0), 50);
        let counts = h.bucket_counts();
        assert_eq!(counts.len(), LATENCY_BUCKETS_US.len() + 1);
        assert_eq!(counts[0], 1, "10 µs in the ≤50 bucket");
        assert_eq!(counts[counts.len() - 1], 1, "3 s in the overflow bucket");
        assert_eq!(counts.iter().sum::<u64>(), h.count());
    }

    #[test]
    fn quantile_never_exceeds_max() {
        let mut h = Histogram::new(&LATENCY_BUCKETS_US);
        h.observe(75);
        // Rank 1 is in the ≤100 bucket, but the max is 75.
        assert_eq!(h.quantile(99), 75);
        assert_eq!(h.mean(), 75);
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let mut m = MetricsRegistry::new();
        m.inc("serve.elements", 3);
        m.inc("serve.elements", 2);
        m.set_gauge("cache.bytes", 1024);
        m.observe("serve.lateness_us", &LATENCY_BUCKETS_US, 5_000);
        assert_eq!(m.counter("serve.elements"), 5);
        assert_eq!(m.counter("absent"), 0);
        assert_eq!(m.gauge("cache.bytes"), 1024);
        assert_eq!(m.gauge("absent"), 0);
        assert_eq!(m.histogram("serve.lateness_us").unwrap().count(), 1);
        assert!(m.histogram("absent").is_none());
        assert_eq!(
            m.histogram_or_empty("absent", &LATENCY_BUCKETS_US).count(),
            0
        );
    }

    #[test]
    fn render_is_sorted_and_stable() {
        let mut m = MetricsRegistry::new();
        m.inc("z.last", 1);
        m.inc("a.first", 2);
        m.set_gauge("m.middle", -7);
        m.observe("h.lat", &LATENCY_BUCKETS_US, 99);
        let r = m.render();
        let a = r.find("a.first").unwrap();
        let z = r.find("z.last").unwrap();
        assert!(a < z);
        assert!(r.contains("gauge m.middle -7"));
        assert!(r.contains("histogram h.lat count=1"));
        assert_eq!(m.clone().render(), r);
    }

    #[test]
    #[should_panic(expected = "bounds not sorted")]
    fn unsorted_bounds_rejected() {
        let _ = Histogram::new(&[5, 3]);
    }

    #[test]
    fn merge_is_exact_union_of_observations() {
        let mut a = Histogram::new(&LATENCY_BUCKETS_US);
        let mut b = Histogram::new(&LATENCY_BUCKETS_US);
        let mut both = Histogram::new(&LATENCY_BUCKETS_US);
        for us in [10u64, 150, 900] {
            a.observe(us);
            both.observe(us);
        }
        for us in [60u64, 150, 3_000_000] {
            b.observe(us);
            both.observe(us);
        }
        a.merge(&b);
        assert_eq!(a, both, "merge must equal observing the union directly");
        assert_eq!(a.quantile(99), both.quantile(99));
    }

    #[test]
    #[should_panic(expected = "different bucket bounds")]
    fn merge_rejects_mismatched_bounds() {
        let mut a = Histogram::new(&LATENCY_BUCKETS_US);
        a.merge(&Histogram::new(&BYTES_BUCKETS));
    }

    #[test]
    fn merge_prefixed_rolls_up_shards() {
        let mut shard0 = MetricsRegistry::new();
        shard0.inc("serve.elements.served", 10);
        shard0.set_gauge("cache.bytes", 100);
        shard0.observe("serve.lateness_us", &LATENCY_BUCKETS_US, 80);
        let mut shard1 = MetricsRegistry::new();
        shard1.inc("serve.elements.served", 5);
        shard1.set_gauge("cache.bytes", 50);
        shard1.observe("serve.lateness_us", &LATENCY_BUCKETS_US, 400);

        let mut rollup = MetricsRegistry::new();
        rollup.merge_prefixed(&shard0, "shard0.");
        rollup.merge_prefixed(&shard1, "shard1.");
        rollup.merge_prefixed(&shard0, "");
        rollup.merge_prefixed(&shard1, "");

        assert_eq!(rollup.counter("shard0.serve.elements.served"), 10);
        assert_eq!(rollup.counter("shard1.serve.elements.served"), 5);
        assert_eq!(rollup.counter("serve.elements.served"), 15);
        assert_eq!(rollup.gauge("cache.bytes"), 150, "gauges add in a rollup");
        let h = rollup.histogram("serve.lateness_us").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 400);
        assert_eq!(
            rollup.histogram("shard0.serve.lateness_us").unwrap().max(),
            80
        );
    }

    #[test]
    fn merge_prefixed_clears_stale_keys_when_shards_shrink() {
        let mut shard0 = MetricsRegistry::new();
        shard0.inc("serve.elements.served", 10);
        shard0.set_gauge("cache.bytes", 100);
        shard0.observe("serve.lateness_us", &LATENCY_BUCKETS_US, 80);
        let mut shard1 = MetricsRegistry::new();
        shard1.inc("serve.elements.served", 5);
        shard1.set_gauge("cache.bytes", 50);

        // Round 1: two shards.
        let mut rollup = MetricsRegistry::new();
        rollup.merge_prefixed(&shard0, "shard0.");
        rollup.merge_prefixed(&shard1, "shard1.");
        assert_eq!(rollup.gauge("shard1.cache.bytes"), 50);

        // Shard 1 migrated away; shard 0 re-rolls into the same registry.
        // Its own namespace is replaced (not doubled), and a rollup that
        // stops merging shard1 can evict the stale keys explicitly.
        let mut smaller = MetricsRegistry::new();
        smaller.inc("serve.elements.served", 12);
        rollup.merge_prefixed(&smaller, "shard0.");
        assert_eq!(
            rollup.counter("shard0.serve.elements.served"),
            12,
            "a re-merge replaces the prefix namespace, never doubles it"
        );
        assert_eq!(
            rollup.gauge("shard0.cache.bytes"),
            0,
            "gauges absent from the new snapshot are dropped"
        );
        assert!(
            rollup.histogram("shard0.serve.lateness_us").is_none(),
            "histograms absent from the new snapshot are dropped"
        );
        rollup.merge_prefixed(&MetricsRegistry::new(), "shard1.");
        assert_eq!(
            rollup.counter("shard1.serve.elements.served"),
            0,
            "an empty merge clears a vanished shard's namespace"
        );
        assert_eq!(rollup.gauge("shard1.cache.bytes"), 0);

        // Prefix matching is exact: clearing "shard1." must not touch a
        // hypothetical "shard10." namespace.
        rollup.inc("shard10.serve.elements.served", 3);
        rollup.merge_prefixed(&MetricsRegistry::new(), "shard1.");
        assert_eq!(rollup.counter("shard10.serve.elements.served"), 3);

        // The empty prefix stays additive — it is the global aggregate.
        let mut agg = MetricsRegistry::new();
        agg.merge_prefixed(&shard0, "");
        agg.merge_prefixed(&shard1, "");
        assert_eq!(agg.counter("serve.elements.served"), 15);
    }

    /// Pins `quantile` edge behavior — p=0, p=100, empty, single bucket —
    /// so downstream consumers (the telemetry plane compresses p50/p99
    /// samples per tick) can rely on exact semantics.
    #[test]
    fn quantile_edges_are_pinned() {
        // Empty: every percentile answers 0, including the edges.
        let empty = Histogram::new(&LATENCY_BUCKETS_US);
        assert_eq!(empty.quantile(0), 0);
        assert_eq!(empty.quantile(50), 0);
        assert_eq!(empty.quantile(100), 0);

        // p=0 clamps to rank 1 — the bucket of the smallest observation,
        // answered as that bucket's bound capped by the exact max.
        let mut h = Histogram::new(&LATENCY_BUCKETS_US);
        for us in [80u64, 300, 40_000] {
            h.observe(us);
        }
        assert_eq!(h.quantile(0), 100, "rank 1 lands in the (50, 100] bucket");

        // p=100 answers from the last occupied bucket, capped by the max…
        assert_eq!(h.quantile(100), 40_000, "50_000 bound min'd with max");
        // …and exactly the max when it overflows every bound.
        let mut over = Histogram::new(&LATENCY_BUCKETS_US);
        over.observe(9_000_000);
        assert_eq!(over.quantile(100), 9_000_000);
        assert_eq!(over.quantile(1), 9_000_000);

        // Single occupied bucket: one observation answers every percentile
        // with the exact value (bound min'd with max), never the bound.
        let mut one = Histogram::new(&LATENCY_BUCKETS_US);
        one.observe(60);
        for p in [0u64, 1, 50, 99, 100] {
            assert_eq!(one.quantile(p), 60, "p={p}");
        }
    }

    /// Golden render: the exact exposition text, byte for byte, so
    /// exp_claims diffs that embed rendered registries stay stable.
    #[test]
    fn render_golden() {
        let mut m = MetricsRegistry::new();
        m.inc("serve.misses", 2);
        m.inc("cache.evictions", 7);
        m.set_gauge("cache.bytes", -3);
        m.observe("serve.lateness_us", &LATENCY_BUCKETS_US, 150);
        m.observe("serve.lateness_us", &LATENCY_BUCKETS_US, 900);
        assert_eq!(
            m.render(),
            "counter cache.evictions 7\n\
             counter serve.misses 2\n\
             gauge cache.bytes -3\n\
             histogram serve.lateness_us count=2 sum=1050 mean=525 p50=200 p99=900 max=900\n"
        );
    }

    /// A registered name does not exist, to any reader, until it is
    /// written — exactly as a name nobody mentioned.
    #[test]
    fn registered_names_are_invisible_until_written() {
        let mut m = MetricsRegistry::new();
        let c = m.register_counter("serve.misses");
        let g = m.register_gauge("cache.bytes");
        let h = m.register_histogram("serve.lateness_us", &LATENCY_BUCKETS_US);
        assert_eq!(m.render(), "");
        assert_eq!(m.counters().count(), 0);
        assert_eq!(m.gauges().count(), 0);
        assert_eq!(m.histograms().count(), 0);
        assert!(m.flat_samples().is_empty());
        assert_eq!(m.counter("serve.misses"), 0);
        assert!(m.histogram("serve.lateness_us").is_none());
        assert_eq!(
            m,
            MetricsRegistry::new(),
            "registration is not a difference"
        );
        let mut rollup = MetricsRegistry::new();
        rollup.merge_prefixed(&m, "shard0.");
        rollup.merge_prefixed(&m, "");
        assert_eq!(rollup.render(), "");

        // A write of 0 is a write: `entry().or_insert(0)` always was.
        m.inc_at(c, 0);
        assert_eq!(m.render(), "counter serve.misses 0\n");
        assert_ne!(m, MetricsRegistry::new());
        let mut by_name = MetricsRegistry::new();
        by_name.inc("serve.misses", 0);
        assert_eq!(m, by_name);
        assert_eq!(m.flat_samples(), vec![("serve.misses".to_owned(), 0.0)]);

        m.set_gauge_at(g, 0);
        m.observe_at(h, 0);
        assert_eq!(m.gauges().collect::<Vec<_>>(), vec![("cache.bytes", 0)]);
        assert_eq!(m.histograms().count(), 1);
        rollup.merge_prefixed(&m, "shard0.");
        assert_eq!(rollup.counters().count(), 1);
        assert_eq!(rollup.gauge("shard0.cache.bytes"), 0);
        assert_eq!(
            rollup
                .histogram("shard0.serve.lateness_us")
                .unwrap()
                .count(),
            1
        );
    }

    #[test]
    fn handle_and_name_hit_the_same_cell() {
        let mut m = MetricsRegistry::new();
        m.inc("serve.elements", 2);
        let c = m.register_counter("serve.elements");
        assert_eq!(c, m.register_counter(String::from("serve.elements")));
        m.inc_at(c, 3);
        m.inc("serve.elements", 1);
        assert_eq!(m.counter("serve.elements"), 6);

        let g = m.register_gauge("cache.bytes");
        m.set_gauge("cache.bytes", 7);
        m.set_gauge_at(g, 9);
        assert_eq!(m.gauge("cache.bytes"), 9);

        let h = m.register_histogram("serve.lateness_us", &LATENCY_BUCKETS_US);
        m.observe_at(h, 150);
        m.observe("serve.lateness_us", &LATENCY_BUCKETS_US, 900);
        let mut by_name = MetricsRegistry::new();
        by_name.inc("serve.elements", 6);
        by_name.set_gauge("cache.bytes", 9);
        by_name.observe("serve.lateness_us", &LATENCY_BUCKETS_US, 150);
        by_name.observe("serve.lateness_us", &LATENCY_BUCKETS_US, 900);
        assert_eq!(m, by_name);
        assert_eq!(m.render(), by_name.render());
        // Handles survive a clone.
        let mut copy = m.clone();
        copy.inc_at(c, 1);
        assert_eq!(copy.counter("serve.elements"), 7);
        assert_eq!(m.counter("serve.elements"), 6);
    }

    /// A prefix merge that drops a metric returns its cell to "unwritten":
    /// the handle still works, and the next write starts from scratch.
    #[test]
    fn handles_outlive_a_prefix_clear() {
        let mut m = MetricsRegistry::new();
        let c = m.register_counter("shard0.elements");
        let h = m.register_histogram("shard0.lat", &LATENCY_BUCKETS_US);
        m.inc_at(c, 5);
        m.observe_at(h, 80);
        m.merge_prefixed(&MetricsRegistry::new(), "shard0.");
        assert_eq!(m, MetricsRegistry::new());
        m.inc_at(c, 2);
        m.observe_at(h, 90);
        assert_eq!(m.counter("shard0.elements"), 2);
        assert_eq!(m.histogram("shard0.lat").unwrap().max(), 90);
        // An unwritten histogram adopts the bounds of what is merged in,
        // as an absent one did.
        m.merge_prefixed(&MetricsRegistry::new(), "shard0.");
        let mut other = MetricsRegistry::new();
        other.observe("lat", &BYTES_BUCKETS, 4096);
        m.merge_prefixed(&other, "shard0.");
        assert_eq!(m.histogram("shard0.lat").unwrap().bounds(), &BYTES_BUCKETS);
    }

    #[test]
    fn flat_samples_mirror_render_in_name_order() {
        let mut m = MetricsRegistry::new();
        m.inc("serve.misses", 2);
        m.set_gauge("cache.bytes", 42);
        m.observe("serve.lateness_us", &LATENCY_BUCKETS_US, 150);
        m.observe("serve.lateness_us", &LATENCY_BUCKETS_US, 900);
        let samples = m.flat_samples();
        let expect = [
            ("serve.misses", 2.0),
            ("cache.bytes", 42.0),
            ("serve.lateness_us.count", 2.0),
            ("serve.lateness_us.mean", 525.0),
            ("serve.lateness_us.p50", 200.0),
            ("serve.lateness_us.p99", 900.0),
            ("serve.lateness_us.max", 900.0),
        ];
        assert_eq!(samples.len(), expect.len());
        for ((name, v), (want_name, want_v)) in samples.iter().zip(expect) {
            assert_eq!(name, want_name);
            assert_eq!(*v, want_v);
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Merging any two histograms over the same bounds — including
            /// empty and single-observation operands — equals observing
            /// the union directly, in every exposed statistic.
            #[test]
            fn histogram_merge_equals_union(
                xs in proptest::collection::vec(0u64..5_000_000, 0..12),
                ys in proptest::collection::vec(0u64..5_000_000, 0..12),
            ) {
                let mut a = Histogram::new(&LATENCY_BUCKETS_US);
                let mut b = Histogram::new(&LATENCY_BUCKETS_US);
                let mut both = Histogram::new(&LATENCY_BUCKETS_US);
                for &v in &xs {
                    a.observe(v);
                    both.observe(v);
                }
                for &v in &ys {
                    b.observe(v);
                    both.observe(v);
                }
                a.merge(&b);
                prop_assert_eq!(a, both);
                for p in [0u64, 50, 99, 100] {
                    prop_assert_eq!(a.quantile(p), both.quantile(p));
                }
            }

            /// An empty histogram is the identity of merge, on both sides.
            #[test]
            fn empty_histogram_is_merge_identity(
                xs in proptest::collection::vec(0u64..5_000_000, 0..12),
            ) {
                let mut h = Histogram::new(&LATENCY_BUCKETS_US);
                for &v in &xs {
                    h.observe(v);
                }
                let mut left = Histogram::new(&LATENCY_BUCKETS_US);
                left.merge(&h);
                prop_assert_eq!(left, h);
                let mut right = h;
                right.merge(&Histogram::new(&LATENCY_BUCKETS_US));
                prop_assert_eq!(right, h);
            }
        }
    }
}
