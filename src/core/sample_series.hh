/**
 * @file
 * SampleSeries: the running record of measurements for one experiment.
 *
 * Stopping rules are evaluated repeatedly as samples arrive, so the
 * series maintains streaming aggregates (Welford mean/variance,
 * min/max) in O(1) per append, while also retaining the full sample —
 * SHARP's whole point is that the complete distribution is the
 * artifact of record.
 *
 * Each series also owns a lazily populated StatsCache (see
 * stats_cache.hh): a monotonically versioned incremental view of the
 * sorted sample, the half-split KS state, prefix extrema, and warm
 * confidence-interval search state. The cache is what makes evaluating
 * a stopping rule after *every* completed run affordable — rules stay
 * stateless with respect to the data, and the series carries the
 * incremental state for them.
 */

#ifndef SHARP_CORE_SAMPLE_SERIES_HH
#define SHARP_CORE_SAMPLE_SERIES_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace sharp
{
namespace core
{

class StatsCache;

/**
 * Append-only series of scalar measurements with streaming moments.
 */
class SampleSeries
{
  public:
    SampleSeries();

    /** Construct pre-filled from existing values. */
    explicit SampleSeries(const std::vector<double> &values);

    ~SampleSeries();

    /**
     * Copy/move transfer the samples and aggregates but never the
     * cache: the cache holds a back-reference to its owner and is
     * rebuilt lazily by the destination on first use.
     */
    SampleSeries(const SampleSeries &other);
    SampleSeries &operator=(const SampleSeries &other);
    SampleSeries(SampleSeries &&other) noexcept;
    SampleSeries &operator=(SampleSeries &&other) noexcept;

    /** Append one measurement. */
    void append(double value);

    /** Append a batch. */
    void appendAll(const std::vector<double> &values);

    /** Remove all samples and reset aggregates. */
    void clear();

    /** Number of samples so far. */
    size_t size() const { return data.size(); }
    bool empty() const { return data.empty(); }

    /**
     * Monotonic data version: bumped on every append and clear. The
     * StatsCache keys every memoized artifact on this counter, so a
     * cached quantile or KS statistic can never outlive the data it
     * was computed from.
     */
    uint64_t version() const { return dataVersion; }

    /** All samples in arrival order. */
    const std::vector<double> &values() const { return data; }

    /** Sample @p index in arrival order. */
    double operator[](size_t index) const { return data[index]; }

    /** Streaming mean (0 when empty). */
    double mean() const { return count > 0 ? runningMean : 0.0; }

    /** Streaming sample variance, n-1 denominator (0 for n < 2). */
    double variance() const;

    /** Streaming standard deviation. */
    double stddev() const;

    /** stats::skewness of values(), O(n) per call (0 when empty). */
    double skewness() const;

    /** stats::excessKurtosis of values(), O(n) per call (0 when empty). */
    double excessKurtosis() const;

    /** Minimum so far. */
    double min() const { return minValue; }

    /** Maximum so far. */
    double max() const { return maxValue; }

    /** First half of the series (floor(n/2) samples, arrival order). */
    std::vector<double> firstHalf() const;

    /** Second half of the series (remaining samples, arrival order). */
    std::vector<double> secondHalf() const;

    /** The last @p n samples (fewer if the series is shorter). */
    std::vector<double> tail(size_t n) const;

    /**
     * The incremental statistics cache for this series, created on
     * first use. Const because rules receive a const series: the cache
     * is memoization, not data — every value it returns is a pure
     * function of values(), bit-for-bit equal to the batch
     * recomputation.
     */
    StatsCache &stats() const;

  private:
    std::vector<double> data;
    size_t count = 0;
    uint64_t dataVersion = 0;
    double runningMean = 0.0;
    double m2 = 0.0; // sum of squared deviations (Welford)
    double minValue = 0.0;
    double maxValue = 0.0;
    mutable std::unique_ptr<StatsCache> cache;
};

} // namespace core
} // namespace sharp

#endif // SHARP_CORE_SAMPLE_SERIES_HH
