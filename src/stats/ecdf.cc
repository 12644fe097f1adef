#include "stats/ecdf.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "simd/dispatch.hh"

namespace sharp
{
namespace stats
{

Ecdf::Ecdf(std::vector<double> sample) : sorted(std::move(sample))
{
    if (sorted.empty())
        throw std::invalid_argument("Ecdf requires a non-empty sample");
    std::sort(sorted.begin(), sorted.end());
}

double
Ecdf::operator()(double x) const
{
    auto it = std::upper_bound(sorted.begin(), sorted.end(), x);
    return static_cast<double>(it - sorted.begin()) /
           static_cast<double>(sorted.size());
}

double
Ecdf::inverse(double p) const
{
    if (p < 0.0 || p > 1.0)
        throw std::invalid_argument("Ecdf::inverse requires p in [0, 1]");
    if (p == 0.0)
        return sorted.front();
    double idx = std::ceil(p * static_cast<double>(sorted.size())) - 1.0;
    size_t i = static_cast<size_t>(std::max(0.0, idx));
    return sorted[std::min(i, sorted.size() - 1)];
}

// The two-sample KS walks (the double-precision reference and the
// integer-guard single-step fast path it specifies) live in src/simd
// as dispatchable kernels: scalar.cc holds the former anonymous-
// namespace implementations verbatim, and the vector backends batch
// the same walk over tie-group runs. Every backend is bit-identical
// to the scalar kernel by contract (tests/test_simd.cc).

double
ksStatistic(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.empty() || b.empty())
        throw std::invalid_argument("ksStatistic requires non-empty samples");
    std::vector<double> sa = a, sb = b;
    std::sort(sa.begin(), sa.end());
    std::sort(sb.begin(), sb.end());
    return simd::kernels().ksSorted(sa.data(), sa.size(), sb.data(),
                                    sb.size());
}

double
ksStatistic(const Ecdf &a, const Ecdf &b)
{
    return ksStatisticSorted(a.sortedSample(), b.sortedSample());
}

double
ksStatisticSorted(const std::vector<double> &a,
                  const std::vector<double> &b)
{
    if (a.empty() || b.empty())
        throw std::invalid_argument("ksStatistic requires non-empty samples");
    return simd::kernels().ksSorted(a.data(), a.size(), b.data(),
                                    b.size());
}

double
ksStatisticAgainstSorted(const std::vector<double> &sorted,
                         const std::function<double(double)> &cdf)
{
    if (sorted.empty())
        throw std::invalid_argument(
            "ksStatisticAgainstSorted requires a non-empty sample");
    size_t n = sorted.size();
    double nd = static_cast<double>(n);
    double sup = 0.0;
    for (size_t i = 0; i < n; ++i) {
        double f = cdf(sorted[i]);
        double upper = static_cast<double>(i + 1) / nd - f;
        double lower = f - static_cast<double>(i) / nd;
        sup = std::max({sup, upper, lower});
    }
    return sup;
}

} // namespace stats
} // namespace sharp
