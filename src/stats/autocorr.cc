#include "stats/autocorr.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/descriptive.hh"
#include "stats/special.hh"

namespace sharp
{
namespace stats
{

namespace
{

/** The lag-independent part of an autocorrelation: mean and scale. */
struct Centering
{
    double mean;
    /** Sum of squared deviations from the mean. */
    double denom;
};

Centering
centering(const std::vector<double> &x)
{
    double m = mean(x);
    double denom = 0.0;
    for (double v : x) {
        double d = v - m;
        denom += d * d;
    }
    return {m, denom};
}

/** autocorrelation() at 1 <= lag < n, given x's centering. */
double
lagCorrelation(const std::vector<double> &x, const Centering &c,
               size_t lag)
{
    if (c.denom <= 0.0)
        return 0.0;
    double num = 0.0;
    for (size_t i = 0; i + lag < x.size(); ++i)
        num += (x[i] - c.mean) * (x[i + lag] - c.mean);
    return num / c.denom;
}

} // anonymous namespace

double
autocorrelation(const std::vector<double> &x, size_t lag)
{
    if (x.empty())
        throw std::invalid_argument(
            "autocorrelation requires a non-empty series");
    if (lag >= x.size())
        return 0.0;
    if (lag == 0)
        return 1.0;
    return lagCorrelation(x, centering(x), lag);
}

std::vector<double>
acf(const std::vector<double> &x, size_t maxLag)
{
    std::vector<double> out;
    out.reserve(maxLag + 1);
    for (size_t lag = 0; lag <= maxLag; ++lag)
        out.push_back(autocorrelation(x, lag));
    return out;
}

double
effectiveSampleSize(const std::vector<double> &x)
{
    if (x.empty())
        throw std::invalid_argument(
            "effectiveSampleSize requires a non-empty series");
    size_t n = x.size();
    if (n < 4)
        return static_cast<double>(n);

    // Sum initial positive autocorrelations up to lag n/4, stopping at
    // the first non-positive value (noise floor).
    size_t max_lag = n / 4;
    Centering c = centering(x);
    double rho_sum = 0.0;
    for (size_t lag = 1; lag <= max_lag; ++lag) {
        double rho = lagCorrelation(x, c, lag);
        if (rho <= 0.0)
            break;
        rho_sum += rho;
    }
    double ess = static_cast<double>(n) / (1.0 + 2.0 * rho_sum);
    return std::clamp(ess, 1.0, static_cast<double>(n));
}

LjungBox
ljungBox(const std::vector<double> &x, size_t maxLag)
{
    if (maxLag == 0)
        throw std::invalid_argument("ljungBox requires maxLag >= 1");
    size_t n = x.size();
    if (n <= maxLag + 1)
        throw std::invalid_argument("ljungBox requires n > maxLag + 1");

    double nd = static_cast<double>(n);
    Centering c = centering(x);
    double q = 0.0;
    for (size_t lag = 1; lag <= maxLag; ++lag) {
        double rho = lagCorrelation(x, c, lag);
        q += rho * rho / (nd - static_cast<double>(lag));
    }
    q *= nd * (nd + 2.0);
    double p = 1.0 - chiSquareCdf(q, static_cast<double>(maxLag));
    return {q, std::clamp(p, 0.0, 1.0)};
}

} // namespace stats
} // namespace sharp
