#include "core/sample_series.hh"

#include <algorithm>
#include <cmath>

#include "core/stats_cache.hh"
#include "stats/descriptive.hh"

namespace sharp
{
namespace core
{

SampleSeries::SampleSeries() = default;

SampleSeries::~SampleSeries() = default;

SampleSeries::SampleSeries(const SampleSeries &other)
    : data(other.data), count(other.count),
      dataVersion(other.dataVersion), runningMean(other.runningMean),
      m2(other.m2), minValue(other.minValue), maxValue(other.maxValue)
{
}

SampleSeries &
SampleSeries::operator=(const SampleSeries &other)
{
    if (this == &other)
        return *this;
    data = other.data;
    count = other.count;
    dataVersion = other.dataVersion;
    runningMean = other.runningMean;
    m2 = other.m2;
    minValue = other.minValue;
    maxValue = other.maxValue;
    cache.reset();
    return *this;
}

SampleSeries::SampleSeries(SampleSeries &&other) noexcept
    : data(std::move(other.data)), count(other.count),
      dataVersion(other.dataVersion), runningMean(other.runningMean),
      m2(other.m2), minValue(other.minValue), maxValue(other.maxValue)
{
    // The moved-from cache back-references `other`; neither side may
    // keep it.
    other.cache.reset();
}

SampleSeries &
SampleSeries::operator=(SampleSeries &&other) noexcept
{
    if (this == &other)
        return *this;
    data = std::move(other.data);
    count = other.count;
    dataVersion = other.dataVersion;
    runningMean = other.runningMean;
    m2 = other.m2;
    minValue = other.minValue;
    maxValue = other.maxValue;
    cache.reset();
    other.cache.reset();
    return *this;
}

void
SampleSeries::append(double value)
{
    data.push_back(value);
    ++count;
    ++dataVersion;
    if (count == 1) {
        runningMean = value;
        m2 = 0.0;
        minValue = maxValue = value;
        return;
    }
    double delta = value - runningMean;
    runningMean += delta / static_cast<double>(count);
    m2 += delta * (value - runningMean);
    minValue = std::min(minValue, value);
    maxValue = std::max(maxValue, value);
}

void
SampleSeries::appendAll(const std::vector<double> &values)
{
    data.reserve(data.size() + values.size());
    for (double v : values)
        append(v);
}

void
SampleSeries::clear()
{
    data.clear();
    count = 0;
    ++dataVersion;
    runningMean = 0.0;
    m2 = 0.0;
    minValue = 0.0;
    maxValue = 0.0;
    if (cache)
        cache->invalidate();
}

double
SampleSeries::variance() const
{
    if (count < 2)
        return 0.0;
    return m2 / static_cast<double>(count - 1);
}

double
SampleSeries::stddev() const
{
    return std::sqrt(variance());
}

double
SampleSeries::skewness() const
{
    return empty() ? 0.0 : stats::skewness(data);
}

double
SampleSeries::excessKurtosis() const
{
    return empty() ? 0.0 : stats::excessKurtosis(data);
}

std::vector<double>
SampleSeries::firstHalf() const
{
    size_t half = data.size() / 2;
    return std::vector<double>(data.begin(),
                               data.begin() + static_cast<long>(half));
}

std::vector<double>
SampleSeries::secondHalf() const
{
    size_t half = data.size() / 2;
    return std::vector<double>(data.begin() + static_cast<long>(half),
                               data.end());
}

std::vector<double>
SampleSeries::tail(size_t n) const
{
    size_t take = std::min(n, data.size());
    return std::vector<double>(data.end() - static_cast<long>(take),
                               data.end());
}

StatsCache &
SampleSeries::stats() const
{
    if (!cache)
        cache = std::make_unique<StatsCache>(*this);
    return *cache;
}

} // namespace core
} // namespace sharp
