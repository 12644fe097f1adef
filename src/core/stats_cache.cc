#include "core/stats_cache.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/sample_series.hh"
#include "simd/dispatch.hh"
#include "stats/descriptive.hh"
#include "stats/ecdf.hh"
#include "stats/special.hh"

namespace sharp
{
namespace core
{

namespace
{

/**
 * NaN-safe ordering that counts its invocations. For NaN-free data it
 * is exactly operator< — so sorts and searches produce bit-identical
 * sequences to std::sort in the batch paths — and with NaNs present it
 * is still a strict weak ordering (NaNs form one equivalence class at
 * the end) where raw operator< would hand std::sort undefined
 * behavior.
 */
struct CountingLess
{
    uint64_t *count;

    bool
    operator()(double a, double b) const
    {
        ++*count;
        // Plain operator< first: a true result already rules out NaN,
        // so NaN-free data pays one compare, and a small batch sort
        // runs within a few percent of std::sort's default ordering.
        if (a < b)
            return true;
        return std::isnan(b) && !std::isnan(a);
    }
};

void
checkLevel(double level)
{
    if (!(level > 0.0 && level < 1.0))
        throw std::invalid_argument("confidence level must be in (0, 1)");
}

} // anonymous namespace

// The incremental branches skip the small-n special cases of the batch
// code they replace (stats::medianCi's n < 6 closed form, quantile's
// n == 1); the batch branch owns every size up to the cutover.
static_assert(kStatsCacheCutover >= 6);

StatsCache::StatsCache(const SampleSeries &owner_) : owner(owner_) {}

bool
StatsCache::batchMode() const
{
    // The batch branches never touch the incremental structures, so a
    // small series pays nothing for the engine; the first access past
    // the cutover ingests the whole series in one pass (catchUp()).
    return owner.size() <= kStatsCacheCutover;
}

void
StatsCache::invalidate()
{
    body.clear();
    sortedTail.clear();
    mergeScratch.clear();
    sortedSeen = 0;
    lowHalf.clear();
    highHalf.clear();
    halvesSeen = 0;
    prefixMin.clear();
    prefixMax.clear();
    prefixSeen = 0;
    kahanSum = kahanComp = 0.0;
    shift = shiftedSum = shiftedAbsSum = shiftedSquares = 0.0;
    allFinite = true;
    momentsSeen = 0;
    boundsDropped = false;
    ksWalked = ksSlack = 0.0;
    ksWalkedAt = ksSlackAt = 0;
    ksVersion = 0;
    ksValue = 0.0;
    varianceVersion = 0;
    varianceValue = 0.0;
    warmMedian.clear();
}

void
StatsCache::mergeTail()
{
    // Dispatched merge. The kernel emits exactly the sequence
    // std::merge with CountingLess would (ties from the body first)
    // and returns that comparator's invocation count, so both the
    // sorted view and the work counters stay backend-invariant.
    mergeScratch.resize(body.size() + sortedTail.size());
    work.comparisons += simd::kernels().mergeSorted(
        body.data(), body.size(), sortedTail.data(), sortedTail.size(),
        mergeScratch.data());
    body.swap(mergeScratch);
    sortedTail.clear();
}

template <typename Ingest>
void
StatsCache::catchUp(size_t &seen, Ingest ingest)
{
    const std::vector<double> &v = owner.values();
    // A series shorter than what a structure absorbed was cleared:
    // every structure restarts (this zeroes @p seen too).
    if (v.size() < seen)
        invalidate();
    for (; seen < v.size(); ++seen)
        ingest(v[seen], seen);
}

void
StatsCache::syncSorted()
{
    // Insert into the (small, sorted) tail, merging into the body once
    // the tail outgrows its budget.
    catchUp(
        sortedSeen,
        [this](double value, size_t) {
            CountingLess cmp{&work.comparisons};
            auto pos = std::lower_bound(sortedTail.begin(),
                                        sortedTail.end(), value, cmp);
            sortedTail.insert(pos, value);
            if (sortedTail.size() > statsCacheTailLimit(body.size()))
                mergeTail();
        });
}

void
StatsCache::syncHalves()
{
    // The new sample has the highest arrival index, so it always lands
    // in the high half; when floor(n/2) grows, the sample at the old
    // boundary migrates low.
    catchUp(
        halvesSeen,
        [this](double value, size_t idx) {
            CountingLess cmp{&work.comparisons};
            size_t old_half = idx / 2;
            size_t new_half = (idx + 1) / 2;
            auto high_pos = std::lower_bound(highHalf.begin(),
                                             highHalf.end(), value, cmp);
            highHalf.insert(high_pos, value);
            if (new_half > old_half) {
                double boundary = owner.values()[old_half];
                auto victim = std::lower_bound(
                    highHalf.begin(), highHalf.end(), boundary, cmp);
                highHalf.erase(victim);
                auto low_pos = std::lower_bound(
                    lowHalf.begin(), lowHalf.end(), boundary, cmp);
                lowHalf.insert(low_pos, boundary);
            }
        });
}

void
StatsCache::syncPrefix()
{
    catchUp(
        prefixSeen,
        [this](double value, size_t idx) {
            prefixMin.push_back(idx == 0 ? value
                                         : std::min(prefixMin.back(), value));
            prefixMax.push_back(idx == 0 ? value
                                         : std::max(prefixMax.back(), value));
        });
}

void
StatsCache::syncMoments()
{
    catchUp(
        momentsSeen,
        [this](double value, size_t idx) {
            // Incremental Kahan: continuing the loop from stats::mean,
            // so the running (sum, comp) pair is bit-equal to a fresh
            // left-to-right pass over the whole series.
            double y = value - kahanComp;
            double t = kahanSum + y;
            kahanComp = (t - kahanSum) - y;
            kahanSum = t;
            // Plain sums of the samples shifted by the first one: their
            // rounding is bounded in squaredDeviationsLowerBound().
            if (idx == 0)
                shift = value;
            double d = value - shift;
            shiftedSum += d;
            shiftedAbsSum += std::fabs(d);
            shiftedSquares += d * d;
            allFinite = allFinite && std::isfinite(value);
        });
}

const std::vector<double> &
StatsCache::sorted()
{
    CountingLess cmp{&work.comparisons};
    if (batchMode()) {
        mergeScratch = owner.values();
        std::sort(mergeScratch.begin(), mergeScratch.end(), cmp);
        return mergeScratch;
    }
    syncSorted();
    if (!sortedTail.empty())
        mergeTail();
    return body;
}

double
StatsCache::orderStatTwoRuns(size_t k)
{
    // Binary search the split: take `lo` elements from the body and
    // k - lo from the tail such that they are exactly the k smallest
    // overall. The probe sequence is the comparison-counter contract.
    CountingLess cmp{&work.comparisons};
    const size_t na = body.size(), nb = sortedTail.size();
    size_t lo = k > nb ? k - nb : 0;
    size_t hi = std::min(k, na);
    while (lo < hi) {
        size_t i = (lo + hi) / 2;
        size_t j = k - i;
        // The comparator runs only when the tail probe exists.
        if (j > 0 && cmp(body[i], sortedTail[j - 1]))
            lo = i + 1;
        else
            hi = i;
    }
    size_t j = k - lo;
    if (lo >= na)
        return sortedTail[j];
    if (j >= nb)
        return body[lo];
    return cmp(sortedTail[j], body[lo]) ? sortedTail[j] : body[lo];
}

double
StatsCache::orderStat(size_t k)
{
    if (k >= owner.size())
        throw std::out_of_range("orderStat index past end of series");
    if (batchMode())
        return sorted()[k];
    syncSorted();
    if (sortedTail.empty())
        return body[k];
    return orderStatTwoRuns(k);
}

double
StatsCache::quantile(double p)
{
    if (owner.empty())
        throw std::invalid_argument("quantile requires a non-empty sample");
    if (p < 0.0 || p > 1.0)
        throw std::invalid_argument("quantile requires p in [0, 1]");
    if (batchMode())
        return stats::quantileSorted(sorted(), p);
    syncSorted();
    size_t n = owner.size();
    // Same arithmetic as stats::quantileSorted, fed by order statistics
    // instead of a fully merged array (n > kStatsCacheCutover here, so
    // its n == 1 special case cannot arise).
    double h = (static_cast<double>(n) - 1.0) * p;
    size_t lo = static_cast<size_t>(std::floor(h));
    size_t hi = std::min(lo + 1, n - 1);
    double frac = h - static_cast<double>(lo);
    double a = orderStat(lo);
    double b = orderStat(hi);
    return a + frac * (b - a);
}

double
StatsCache::ksHalves()
{
    if (owner.size() < 2)
        throw std::invalid_argument("ksStatistic requires non-empty samples");
    if (batchMode()) {
        CountingLess cmp{&work.comparisons};
        std::vector<double> a = owner.firstHalf();
        std::vector<double> b = owner.secondHalf();
        std::sort(a.begin(), a.end(), cmp);
        std::sort(b.begin(), b.end(), cmp);
        return stats::ksStatisticSorted(a, b);
    }
    if (ksVersion == owner.version())
        return ksValue;
    syncHalves();
    // The walk itself is inherently linear (the statistic is a sup over
    // every merge point); what the cache removes is the per-eval
    // sorting and copying. Each walk restarts the certificate.
    ksValue = stats::ksStatisticSorted(lowHalf, highHalf);
    ksVersion = owner.version();
    ksWalked = ksValue;
    ksWalkedAt = ksSlackAt = owner.size();
    ksSlack = 0.0;
    return ksValue;
}

double
StatsCache::ksHalvesLowerBound()
{
    constexpr double kNone = -std::numeric_limits<double>::infinity();
    size_t n = owner.size();
    if (boundsDropped || batchMode() || ksWalkedAt == 0)
        return kNone;
    syncMoments();
    if (!allFinite)
        return kNone;
    // Growing the series from s to s + 1 moves one ECDF by at most
    // 1/(m + 1) at every x when a set of m gains a member, and by at
    // most 1/m when one member is swapped (DESIGN.md §8): 1/(s/2 + 1)
    // for even s, 2/(s + 1) + 2/(s + 1) for odd s. Each step and each
    // partial sum is rounded up, so ksSlack bounds the real sum.
    constexpr double kUp = std::numeric_limits<double>::infinity();
    for (; ksSlackAt < n; ++ksSlackAt) {
        size_t s = ksSlackAt;
        double step = s % 2 == 0
                          ? 1.0 / (static_cast<double>(s / 2) + 1.0)
                          : 4.0 / (static_cast<double>(s) + 1.0);
        ksSlack = std::nextafter(ksSlack + std::nextafter(step, kUp), kUp);
    }
    // The 1e-12 margin covers the rounding of both walks (each within
    // 4e-16 of its real supremum) and of this subtraction.
    return ksWalked - ksSlack - 1e-12;
}

std::pair<double, double>
StatsCache::prefixRange(size_t count)
{
    if (count == 0 || count > owner.size())
        throw std::out_of_range("prefixRange count out of range");
    if (batchMode()) {
        const std::vector<double> &v = owner.values();
        double lo = v[0], hi = v[0];
        for (size_t i = 1; i < count; ++i) {
            lo = std::min(lo, v[i]);
            hi = std::max(hi, v[i]);
        }
        return {lo, hi};
    }
    syncPrefix();
    return {prefixMin[count - 1], prefixMax[count - 1]};
}

double
StatsCache::mean()
{
    if (owner.empty())
        throw std::invalid_argument("mean requires a non-empty sample");
    if (batchMode())
        return stats::mean(owner.values());
    syncMoments();
    return kahanSum / static_cast<double>(owner.size());
}

double
StatsCache::varianceMemo()
{
    if (varianceVersion == owner.version() && owner.version() != 0)
        return varianceValue;
    // Same pass as stats::variance: the deviations use the final mean,
    // so this recomputation is O(n) — but memoized per version, and
    // only CI rules pay it.
    syncMoments();
    size_t n = owner.size();
    if (n < 2) {
        varianceValue = 0.0;
    } else {
        double m = kahanSum / static_cast<double>(n);
        double ss = simd::kernels().sumSquaredDeviations(
            owner.values().data(), n, m);
        varianceValue = ss / static_cast<double>(n - 1);
    }
    varianceVersion = owner.version();
    return varianceValue;
}

double
StatsCache::squaredDeviationsLowerBound()
{
    // A lower bound on the sum the deviation kernel returns, from the
    // shifted sums A = sum y^2, B = sum y, C = sum |y| (y = x - x0),
    // or 0 when none holds. With u the unit roundoff and g = 4(n+4)u,
    // the real centered sum M2 = A - B^2/n is at least
    // A(1 - g) - (|B| + gC)^2 / n, rounding of this very expression
    // included; the kernel's sum over (x - mean)^2 is at least M2
    // (1 - (n+2)u), and the last factor (1 - g) covers that. Proof in
    // DESIGN.md §8.
    syncMoments();
    if (!allFinite)
        return 0.0;
    constexpr double kUnitRoundoff =
        std::numeric_limits<double>::epsilon() / 2.0;
    double n = static_cast<double>(owner.size());
    double g = 4.0 * (n + 4.0) * kUnitRoundoff;
    double b = std::fabs(shiftedSum) + g * shiftedAbsSum;
    double lo = (shiftedSquares * (1.0 - g) - b * b / n) * (1.0 - g);
    // Far above every underflow the sums can have suffered; NaN fails.
    return lo >= 0x1p-900 ? lo : 0.0;
}

stats::ConfidenceInterval
StatsCache::meanCiFromVariance(double variance, double level,
                               bool twoSided)
{
    // The arithmetic of stats::meanCi / meanCiRightTailed after
    // stats::variance, step for step.
    double n = static_cast<double>(owner.size());
    double m = kahanSum / n;
    double se = std::sqrt(variance) / std::sqrt(n);
    double dof = n - 1.0;
    if (twoSided) {
        double t = stats::studentTQuantile(0.5 + level / 2.0, dof);
        return {m - t * se, m + t * se, level};
    }
    double t = stats::studentTQuantile(level, dof);
    return {m, m + t * se, level};
}

stats::ConfidenceInterval
StatsCache::meanCi(double level)
{
    checkLevel(level);
    if (owner.size() < 2)
        throw std::invalid_argument("meanCi requires n >= 2");
    if (batchMode())
        return stats::meanCi(owner.values(), level);
    return meanCiFromVariance(varianceMemo(), level, true);
}

stats::ConfidenceInterval
StatsCache::meanCiRightTailed(double level)
{
    checkLevel(level);
    if (owner.size() < 2)
        throw std::invalid_argument("meanCiRightTailed requires n >= 2");
    if (batchMode())
        return stats::meanCiRightTailed(owner.values(), level);
    return meanCiFromVariance(varianceMemo(), level, false);
}

std::optional<stats::ConfidenceInterval>
StatsCache::meanCiBoundFor(double level, bool twoSided)
{
    checkLevel(level);
    // Every rounding step from the sum to the endpoints is monotone in
    // the sum while t > 0, so a smaller sum gives no wider an interval.
    // A right-tailed level at or below 1/2 has t <= 0: no bound.
    if (boundsDropped || batchMode() || (!twoSided && !(level > 0.5)))
        return std::nullopt;
    double ss = squaredDeviationsLowerBound();
    if (!(ss > 0.0))
        return std::nullopt;
    return meanCiFromVariance(ss / static_cast<double>(owner.size() - 1),
                              level, twoSided);
}

std::optional<stats::ConfidenceInterval>
StatsCache::meanCiLowerBound(double level)
{
    return meanCiBoundFor(level, true);
}

std::optional<stats::ConfidenceInterval>
StatsCache::meanCiRightTailedLowerBound(double level)
{
    return meanCiBoundFor(level, false);
}

double
StatsCache::coverageAt(size_t k)
{
    size_t n = owner.size();
    work.pmfEvals += static_cast<uint64_t>(n - 2 * k + 1);
    return stats::medianOrderCoverage(n, k);
}

stats::ConfidenceInterval
StatsCache::medianCi(double level)
{
    checkLevel(level);
    if (owner.empty())
        throw std::invalid_argument("medianCi requires a non-empty sample");
    size_t n = owner.size();

    if (batchMode()) {
        CountingLess cmp{&work.comparisons};
        std::vector<double> x = owner.values();
        std::sort(x.begin(), x.end(), cmp);
        if (n < 6) {
            double coverage =
                1.0 - std::pow(0.5, static_cast<double>(n) - 1.0);
            return {x.front(), x.back(), coverage};
        }
        size_t k = n / 2;
        while (k >= 1) {
            if (coverageAt(k) >= level)
                break;
            --k;
        }
        if (k < 1)
            k = 1;
        return {x[k - 1], x[n - k], level};
    }

    syncSorted();
    // Warm-started search for the batch scan's k: the largest k in
    // [1, n/2] with coverage >= level (coverage shrinks as k grows).
    // Start from the previous evaluation's k and walk to the boundary,
    // verifying with the *identical* coverage summation — so the
    // chosen k, and therefore the interval, matches stats::medianCi
    // bit for bit at a fraction of the PMF evaluations.
    WarmMedianK *entry = nullptr;
    for (WarmMedianK &w : warmMedian) {
        if (w.level == level) {
            entry = &w;
            break;
        }
    }
    size_t g;
    if (entry == nullptr) {
        // Cold start: the batch descending scan.
        g = n / 2;
        while (g >= 1) {
            if (coverageAt(g) >= level)
                break;
            --g;
        }
        if (g < 1)
            g = 1;
        warmMedian.push_back({level, g});
    } else {
        g = std::clamp<size_t>(entry->k, 1, n / 2);
        if (coverageAt(g) >= level) {
            while (g < n / 2 && coverageAt(g + 1) >= level)
                ++g;
        } else {
            while (g > 1) {
                --g;
                if (coverageAt(g) >= level)
                    break;
            }
        }
        entry->k = g;
    }
    return {orderStat(g - 1), orderStat(n - g), level};
}

stats::ConfidenceInterval
StatsCache::quantileCi(double p, double level)
{
    checkLevel(level);
    if (!(p > 0.0 && p < 1.0))
        throw std::invalid_argument("quantileCi requires p in (0, 1)");
    if (owner.empty())
        throw std::invalid_argument("quantileCi requires a sample");
    size_t n = owner.size();
    if (batchMode()) {
        CountingLess cmp{&work.comparisons};
        std::vector<double> x = owner.values();
        std::sort(x.begin(), x.end(), cmp);
        stats::QuantileCiIndices idx = stats::quantileCiIndices(n, p, level);
        work.pmfEvals += idx.pmfTerms;
        return {x[idx.lower], x[idx.upper], level};
    }
    syncSorted();
    stats::QuantileCiIndices idx = stats::quantileCiIndices(n, p, level);
    work.pmfEvals += idx.pmfTerms;
    return {orderStat(idx.lower), orderStat(idx.upper), level};
}

} // namespace core
} // namespace sharp
