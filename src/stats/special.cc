#include "stats/special.hh"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <iterator>
#include <limits>
#include <memory>
#include <stdexcept>

namespace sharp
{
namespace stats
{

double
normalCdf(double x)
{
    return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

double
normalQuantile(double p)
{
    if (!(p > 0.0 && p < 1.0))
        throw std::invalid_argument("normalQuantile requires p in (0,1)");

    // Acklam's rational approximation, |relative error| < 1.15e-9,
    // followed by one Halley refinement step.
    static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                               -2.759285104469687e+02, 1.383577518672690e+02,
                               -3.066479806614716e+01, 2.506628277459239e+00};
    static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                               -1.556989798598866e+02, 6.680131188771972e+01,
                               -1.328068155288572e+01};
    static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                               -2.400758277161838e+00, -2.549732539343734e+00,
                               4.374664141464968e+00, 2.938163982698783e+00};
    static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                               2.445134137142996e+00, 3.754408661907416e+00};

    const double p_low = 0.02425;
    double x;
    if (p < p_low) {
        double q = std::sqrt(-2.0 * std::log(p));
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    } else if (p <= 1.0 - p_low) {
        double q = p - 0.5;
        double r = q * q;
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
             a[5]) *
            q /
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r +
             1.0);
    } else {
        double q = std::sqrt(-2.0 * std::log(1.0 - p));
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
              c[5]) /
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    }

    // Halley refinement.
    double e = normalCdf(x) - p;
    double u = e * std::sqrt(2.0 * M_PI) * std::exp(x * x / 2.0);
    x = x - u / (1.0 + x * u / 2.0);
    return x;
}

double
logGamma(double x)
{
    if (x <= 0.0)
        throw std::invalid_argument("logGamma requires x > 0");

    // Lanczos approximation, g = 7, n = 9.
    static const double coef[] = {
        0.99999999999980993, 676.5203681218851, -1259.1392167224028,
        771.32342877765313, -176.61502916214059, 12.507343278686905,
        -0.13857109526572012, 9.9843695780195716e-6,
        1.5056327351493116e-7};

    if (x < 0.5) {
        // Reflection formula.
        return std::log(M_PI / std::sin(M_PI * x)) - logGamma(1.0 - x);
    }

    x -= 1.0;
    double sum = coef[0];
    for (int i = 1; i < 9; ++i)
        sum += coef[i] / (x + static_cast<double>(i));
    double t = x + 7.5;
    return 0.5 * std::log(2.0 * M_PI) + (x + 0.5) * std::log(t) - t +
           std::log(sum);
}

namespace
{

/** Series expansion of P(a, x), valid for x < a + 1. */
double
gammaPSeries(double a, double x)
{
    double ap = a;
    double sum = 1.0 / a;
    double del = sum;
    for (int i = 0; i < 500; ++i) {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if (std::fabs(del) < std::fabs(sum) * 1e-15)
            break;
    }
    return sum * std::exp(-x + a * std::log(x) - logGamma(a));
}

/** Continued fraction for Q(a, x) = 1 - P(a, x), valid for x >= a + 1. */
double
gammaQContinuedFraction(double a, double x)
{
    const double tiny = 1e-300;
    double b = x + 1.0 - a;
    double c = 1.0 / tiny;
    double d = 1.0 / b;
    double h = d;
    for (int i = 1; i <= 500; ++i) {
        double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
        b += 2.0;
        d = an * d + b;
        if (std::fabs(d) < tiny)
            d = tiny;
        c = b + an / c;
        if (std::fabs(c) < tiny)
            c = tiny;
        d = 1.0 / d;
        double del = d * c;
        h *= del;
        if (std::fabs(del - 1.0) < 1e-15)
            break;
    }
    return std::exp(-x + a * std::log(x) - logGamma(a)) * h;
}

/** Continued fraction for the incomplete beta function. */
double
betaContinuedFraction(double x, double a, double b)
{
    const double tiny = 1e-300;
    double qab = a + b;
    double qap = a + 1.0;
    double qam = a - 1.0;
    double c = 1.0;
    double d = 1.0 - qab * x / qap;
    if (std::fabs(d) < tiny)
        d = tiny;
    d = 1.0 / d;
    double h = d;
    for (int m = 1; m <= 500; ++m) {
        double m_d = static_cast<double>(m);
        double m2 = 2.0 * m_d;
        double aa = m_d * (b - m_d) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if (std::fabs(d) < tiny)
            d = tiny;
        c = 1.0 + aa / c;
        if (std::fabs(c) < tiny)
            c = tiny;
        d = 1.0 / d;
        h *= d * c;
        aa = -(a + m_d) * (qab + m_d) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if (std::fabs(d) < tiny)
            d = tiny;
        c = 1.0 + aa / c;
        if (std::fabs(c) < tiny)
            c = tiny;
        d = 1.0 / d;
        double del = d * c;
        h *= del;
        if (std::fabs(del - 1.0) < 1e-15)
            break;
    }
    return h;
}

} // anonymous namespace

double
regularizedGammaP(double a, double x)
{
    if (a <= 0.0)
        throw std::invalid_argument("regularizedGammaP requires a > 0");
    if (x < 0.0)
        throw std::invalid_argument("regularizedGammaP requires x >= 0");
    if (x == 0.0)
        return 0.0;
    if (x < a + 1.0)
        return gammaPSeries(a, x);
    return 1.0 - gammaQContinuedFraction(a, x);
}

double
regularizedBeta(double x, double a, double b)
{
    if (a <= 0.0 || b <= 0.0)
        throw std::invalid_argument("regularizedBeta requires a, b > 0");
    if (x < 0.0 || x > 1.0)
        throw std::invalid_argument("regularizedBeta requires x in [0,1]");
    if (x == 0.0)
        return 0.0;
    if (x == 1.0)
        return 1.0;

    double log_front = logGamma(a + b) - logGamma(a) - logGamma(b) +
                       a * std::log(x) + b * std::log(1.0 - x);
    double front = std::exp(log_front);
    if (x < (a + 1.0) / (a + b + 2.0))
        return front * betaContinuedFraction(x, a, b) / a;
    return 1.0 - front * betaContinuedFraction(1.0 - x, b, a) / b;
}

double
studentTCdf(double t, double dof)
{
    if (dof <= 0.0)
        throw std::invalid_argument("studentTCdf requires dof > 0");
    if (std::isinf(t))
        return t > 0 ? 1.0 : 0.0;
    double x = dof / (dof + t * t);
    double prob = 0.5 * regularizedBeta(x, dof / 2.0, 0.5);
    return t > 0.0 ? 1.0 - prob : prob;
}

namespace
{

/** Above this dof studentTQuantile answers with the normal quantile. */
constexpr double kNormalDof = 2000.0;

/**
 * Bisection results for integer dof in [1, kNormalDof], one row per
 * probability. The t-interval rules ask for the (p, n - 1) quantile
 * at every evaluation, and a sweep or suite runs many series through
 * the same n; each bisection costs ~45 incomplete-beta calls, a hit
 * none. A row is keyed by p's exact value, so a hit returns the bits
 * the bisection returned for the same arguments. A row is zeroed when
 * a p claims it, and 0 marks an empty cell: a quantile that is exactly
 * 0 is recomputed every time, which is still exact. When more
 * probabilities than rows show up, the oldest row is reused.
 */
struct StudentTTable
{
    static constexpr size_t kRows = 4;
    /** Row keys; 0, which no valid p equals, marks an unclaimed row. */
    double p[kRows] = {};
    size_t nextRow = 0;
    /** Indeterminate until claimed, so unclaimed rows touch no pages. */
    double q[kRows][static_cast<size_t>(kNormalDof) + 1];

    double *
    row(double prob)
    {
        for (size_t r = 0; r < kRows; ++r) {
            if (p[r] == prob)
                return q[r];
        }
        size_t r = nextRow;
        nextRow = (nextRow + 1) % kRows;
        p[r] = prob;
        std::fill(std::begin(q[r]), std::end(q[r]), 0.0);
        return q[r];
    }
};

/**
 * One table per thread, so a lookup takes no lock. It is allocated at
 * the thread's first integer-dof call: threads that never ask pay
 * nothing. It lives as long as its thread, which for a
 * util::parallelFor worker is as long as the pool.
 */
thread_local std::unique_ptr<StudentTTable> studentTTable;

double
studentTQuantileBisect(double p, double dof)
{
    // Bisection bracketed by a generous normal-based guess; the CDF is
    // strictly monotonic so this always converges.
    double lo = -1.0, hi = 1.0;
    while (studentTCdf(lo, dof) > p)
        lo *= 2.0;
    while (studentTCdf(hi, dof) < p)
        hi *= 2.0;
    for (int i = 0; i < 200; ++i) {
        double mid = 0.5 * (lo + hi);
        if (studentTCdf(mid, dof) < p)
            lo = mid;
        else
            hi = mid;
        if (hi - lo < 1e-12 * (1.0 + std::fabs(hi)))
            break;
    }
    return 0.5 * (lo + hi);
}

} // anonymous namespace

double
studentTQuantile(double p, double dof)
{
    if (!(p > 0.0 && p < 1.0))
        throw std::invalid_argument("studentTQuantile requires p in (0,1)");
    if (dof <= 0.0)
        throw std::invalid_argument("studentTQuantile requires dof > 0");

    // For large dof the t distribution is the normal distribution to
    // within ~1/dof; the rules that evaluate this per-sample benefit
    // from skipping the bisection.
    if (dof > kNormalDof)
        return normalQuantile(p);

    // Non-integer dof (effective sample sizes, Welch) is not tabled.
    if (dof != std::floor(dof))
        return studentTQuantileBisect(p, dof);
    if (!studentTTable)
        studentTTable = std::make_unique_for_overwrite<StudentTTable>();
    double &cell = studentTTable->row(p)[static_cast<size_t>(dof)];
    if (cell == 0.0)
        cell = studentTQuantileBisect(p, dof);
    return cell;
}

double
chiSquareCdf(double x, double dof)
{
    if (dof <= 0.0)
        throw std::invalid_argument("chiSquareCdf requires dof > 0");
    if (x <= 0.0)
        return 0.0;
    return regularizedGammaP(dof / 2.0, x / 2.0);
}

double
kolmogorovComplementaryCdf(double lambda)
{
    if (lambda <= 0.0)
        return 1.0;
    double sum = 0.0;
    double sign = 1.0;
    for (int j = 1; j <= 100; ++j) {
        double jd = static_cast<double>(j);
        double term = std::exp(-2.0 * jd * jd * lambda * lambda);
        sum += sign * term;
        if (term < 1e-12)
            break;
        sign = -sign;
    }
    double q = 2.0 * sum;
    if (q < 0.0)
        return 0.0;
    if (q > 1.0)
        return 1.0;
    return q;
}

} // namespace stats
} // namespace sharp
