/**
 * @file
 * StatsCache: the incremental statistics engine behind the stopping
 * rules.
 *
 * The launcher evaluates a stopping rule after *every* completed run
 * (paper §IV-c). Before this engine existed each evaluation recomputed
 * from scratch — the KS rule re-split and re-sorted both halves, CI
 * rules re-ran full order-statistic searches, the meta rule's
 * classifier re-derived quantiles — an O(n² log n) per-campaign cost.
 *
 * The cache turns that into amortized polylogarithmic work per append:
 *
 *  - a lazily merged *sorted view* of the sample: appends land in a
 *    small sorted tail, which is merged into the sorted body only when
 *    it outgrows max(64, body/8) or a caller demands the full array.
 *    Order statistics are answered without merging by a k-th-of-two-
 *    sorted-runs binary search;
 *  - incremental *half-split KS state*: the first floor(n/2) samples
 *    and the remainder are kept as two sorted runs, maintained by
 *    insertion and boundary migration as n grows, so the KS statistic
 *    is a linear walk with no sorting;
 *  - *prefix extrema* arrays for range-based rules;
 *  - an incremental Kahan sum whose bits equal the batch left-to-right
 *    Kahan loop in stats::mean, beside sums of the samples shifted by
 *    the first one (plain, absolute, squared) that bound the sum of
 *    squared deviations;
 *  - *warm-started* median-CI order-statistic search: the previous k
 *    is revalidated against the exact batch coverage function instead
 *    of re-scanning from n/2.
 *
 * Upkeep is lazy and per structure: each structure keeps its own count
 * of the samples it has absorbed and catches up only when an accessor
 * that reads it is called. A CI rule never pays for the sorted view or
 * the KS halves, and an order-statistic rule never pays for the halves.
 *
 * Certified bounds: beside the two O(n) statistics the interval and KS
 * rules threshold (the KS walk over the halves and the sum of squared
 * deviations behind the t intervals), the cache answers an O(1) proven
 * lower bound (DESIGN.md §8). A rule that finds the bound already on
 * the keep-going side of its threshold skips the O(n) pass; the exact
 * accessors are untouched. dropBounds() switches the bounds off, so the
 * evaluation whose decision is written out is always an exact one.
 *
 * Exactness contract: every value returned is bit-for-bit equal to the
 * batch recomputation in src/stats on the same data (NaN-free; with
 * NaNs the sorted view is still deterministic — NaNs order last —
 * where std::sort on the raw data would be undefined). This is what
 * keeps tests/baselines/calibration.json byte-identical on either side
 * of the size cutover below.
 *
 * Results are memoized keyed on SampleSeries::version(), so a cached
 * artifact can never outlive the data it was computed from; rules stay
 * stateless with respect to the data.
 *
 * Size cutover: below a few hundred samples the batch recomputation is
 * a handful of cache-resident sorts, and maintaining the incremental
 * structures costs more than it saves. Accessors therefore take the
 * batch branch whenever the series is at or below kStatsCacheCutover;
 * the incremental structures are built in one pass on the first access
 * past it. Results are bit-identical on both sides — the batch
 * branches *are* the src/stats recomputations.
 */

#ifndef SHARP_CORE_STATS_CACHE_HH
#define SHARP_CORE_STATS_CACHE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "stats/ci.hh"

namespace sharp
{
namespace core
{

class SampleSeries;

/**
 * The series-size cutover: accessors on a series of size <= this run
 * the batch src/stats recomputation; past it, the incremental
 * structures. BENCH_stopping.json's accessor rows place it: at n=100
 * every accessor runs at src/stats speed (0.92-1.00x), and at n=1000
 * every one is faster incrementally, from 1.13x (meanCi) to 35x
 * (sorted). Without a cutover, incremental upkeep made the CI rule
 * 0.24x at n=100.
 */
inline constexpr size_t kStatsCacheCutover = 256;

/**
 * How many samples the sorted tail holds before it is merged into a
 * sorted body of @p body samples: small enough that tail insertion
 * stays cheap, large enough that body merges amortize away —
 * O(min(n/8, 2048)) insertion moves and O(log n) comparisons per
 * append. bench/stopping_hotpath times the merges of this shape.
 */
inline constexpr size_t
statsCacheTailLimit(size_t body)
{
    return std::max<size_t>(64, std::min<size_t>(body / 8, 2048));
}

/**
 * Deterministic work counters, the currency of the perf-regression
 * gate: wall-clock asserts are flaky under sanitizers and CI noise,
 * comparator/PMF counts are exact and machine-independent.
 */
struct StatsEngineCounters
{
    /** Comparator invocations in sorts, merges, and binary searches. */
    uint64_t comparisons = 0;
    /**
     * Binomial PMF terms summed in median-CI coverage scans, plus
     * binomial CDF evaluations in the quantile-CI index searches.
     */
    uint64_t pmfEvals = 0;

    StatsEngineCounters
    operator-(const StatsEngineCounters &o) const
    {
        return {comparisons - o.comparisons, pmfEvals - o.pmfEvals};
    }
    uint64_t total() const { return comparisons + pmfEvals; }
};

/**
 * Per-series incremental statistics state. Obtained via
 * SampleSeries::stats(); holds a back-reference to its owner and lazily
 * absorbs whatever was appended since the last call.
 */
class StatsCache
{
  public:
    explicit StatsCache(const SampleSeries &owner);

    /**
     * The full sorted sample (ascending); == std::sort over values()
     * on NaN-free data. Forces a tail merge; prefer orderStat/quantile
     * when only a few order statistics are needed.
     */
    const std::vector<double> &sorted();

    /** The k-th smallest sample (0-based) without forcing a merge. */
    double orderStat(size_t k);

    /**
     * Type-7 quantile, bit-identical to stats::quantileSorted on the
     * sorted sample. @p p in [0, 1].
     */
    double quantile(double p);

    /**
     * KS statistic between the first floor(n/2) samples and the rest —
     * bit-identical to stats::ksStatistic(firstHalf(), secondHalf()).
     * Requires n >= 2. Memoized per version.
     */
    double ksHalves();

    /**
     * (min, max) of the first @p count samples in arrival order; ==
     * a std::min/std::max scan of values()[0, count).
     * @p count must be in [1, size()].
     */
    std::pair<double, double> prefixRange(size_t count);

    /** Kahan mean, bit-identical to stats::mean(values()). */
    double mean();

    /** Two-sided t CI on the mean; == stats::meanCi(values(), level). */
    stats::ConfidenceInterval meanCi(double level);

    /** Right-tailed t CI; == stats::meanCiRightTailed(values(), level). */
    stats::ConfidenceInterval meanCiRightTailed(double level);

    /**
     * Order-statistic CI on the median; == stats::medianCi(values(),
     * level), but the k search is warm-started from the previous
     * evaluation and merely *verified* against the batch coverage
     * boundary instead of re-scanned from n/2.
     */
    stats::ConfidenceInterval medianCi(double level);

    /** Order-statistic CI on quantile @p p; == stats::quantileCi. */
    stats::ConfidenceInterval quantileCi(double p, double level);

    /**
     * A proven lower bound on ksHalves() in O(1): the last exact walk's
     * value minus the most the statistic can move per append since
     * then, minus a 1e-12 rounding margin. -infinity when no bound
     * holds: at or below the cutover, before the first exact walk,
     * after a NaN or infinite sample, or after dropBounds().
     */
    double ksHalvesLowerBound();

    /**
     * meanCi(level) computed with the sum of squared deviations
     * replaced by a proven lower bound: the same center, and every
     * endpoint and width no farther out than meanCi's, so a relative
     * width computed from it is <= the exact one. Empty when no bound
     * holds (at or below the cutover, a non-finite sample, a bound
     * that is not positive, or after dropBounds()).
     */
    std::optional<stats::ConfidenceInterval> meanCiLowerBound(double level);

    /** The same for meanCiRightTailed(level). */
    std::optional<stats::ConfidenceInterval>
    meanCiRightTailedLowerBound(double level);

    /**
     * Switch the lower bounds off for good (until invalidate()): from
     * here on they report none, and every rule evaluation is exact.
     */
    void dropBounds() { boundsDropped = true; }

    /** Cumulative work performed through this cache. */
    const StatsEngineCounters &counters() const { return work; }

    /** Drop all memoized state (data itself lives in the series). */
    void invalidate();

  private:
    bool batchMode() const;
    /**
     * Bring one structure up to the series: @p seen counts the samples
     * it has absorbed, and @p ingest absorbs one (value, arrival index).
     */
    template <typename Ingest>
    void catchUp(size_t &seen, Ingest ingest);
    void syncSorted();
    void syncHalves();
    void syncPrefix();
    void syncMoments();
    void mergeTail();
    double orderStatTwoRuns(size_t k);
    double coverageAt(size_t k);
    double varianceMemo();
    double squaredDeviationsLowerBound();
    stats::ConfidenceInterval meanCiFromVariance(double variance,
                                                 double level,
                                                 bool twoSided);
    std::optional<stats::ConfidenceInterval>
    meanCiBoundFor(double level, bool twoSided);

    const SampleSeries &owner;

    // --- sorted view: sorted body + small sorted tail ---
    std::vector<double> body;
    std::vector<double> sortedTail;
    std::vector<double> mergeScratch;
    size_t sortedSeen = 0;

    // --- half-split KS state: two sorted runs ---
    std::vector<double> lowHalf;
    std::vector<double> highHalf;
    size_t halvesSeen = 0;

    // --- prefix extrema, arrival order ---
    std::vector<double> prefixMin;
    std::vector<double> prefixMax;
    size_t prefixSeen = 0;

    // --- moments: Kahan state (bit-equal to batch stats::mean) and
    //     sums of y = x - shift, the bound on the squared deviations ---
    double kahanSum = 0.0;
    double kahanComp = 0.0;
    double shift = 0.0;
    double shiftedSum = 0.0;
    double shiftedAbsSum = 0.0;
    double shiftedSquares = 0.0;
    bool allFinite = true;
    size_t momentsSeen = 0;

    // --- certificates ---
    bool boundsDropped = false;
    /** The last exact incremental KS walk, and the series size then. */
    double ksWalked = 0.0;
    size_t ksWalkedAt = 0;
    /** Upper bound on |KS(m) - KS(ksWalkedAt)| for m <= ksSlackAt. */
    double ksSlack = 0.0;
    size_t ksSlackAt = 0;

    // --- per-version memos ---
    uint64_t ksVersion = 0;
    double ksValue = 0.0;
    uint64_t varianceVersion = 0;
    double varianceValue = 0.0;

    // --- warm median-CI state: last chosen k per level ---
    struct WarmMedianK
    {
        double level;
        size_t k;
    };
    std::vector<WarmMedianK> warmMedian;

    mutable StatsEngineCounters work;
};

} // namespace core
} // namespace sharp

#endif // SHARP_CORE_STATS_CACHE_HH
