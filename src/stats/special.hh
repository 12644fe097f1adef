/**
 * @file
 * Special mathematical functions underpinning the statistics library:
 * the normal CDF/quantile, log-gamma, regularized incomplete gamma and
 * beta functions (for chi-square and Student-t tails), and the
 * Kolmogorov asymptotic distribution.
 *
 * Implementations follow standard numerical recipes (Lanczos
 * approximation, continued fractions, Acklam's inverse-normal) with
 * accuracy far beyond what hypothesis-test p-values require.
 */

#ifndef SHARP_STATS_SPECIAL_HH
#define SHARP_STATS_SPECIAL_HH

namespace sharp
{
namespace stats
{

/** Standard normal CDF Phi(x). */
double normalCdf(double x);

/** Standard normal quantile Phi^{-1}(p), p in (0, 1). */
double normalQuantile(double p);

/** Natural log of the gamma function, x > 0. */
double logGamma(double x);

/** Regularized lower incomplete gamma P(a, x), a > 0, x >= 0. */
double regularizedGammaP(double a, double x);

/** Regularized incomplete beta I_x(a, b); a, b > 0; x in [0, 1]. */
double regularizedBeta(double x, double a, double b);

/** CDF of Student's t distribution with @p dof degrees of freedom. */
double studentTCdf(double t, double dof);

/**
 * Quantile of Student's t distribution, p in (0, 1), by bisection on
 * the CDF. dof > 2000 returns the normal quantile. For integer dof the
 * bisection runs once per (p, dof) and thread; repeats read a
 * per-thread table and return the same bits.
 */
double studentTQuantile(double p, double dof);

/** CDF of the chi-square distribution with @p dof degrees of freedom. */
double chiSquareCdf(double x, double dof);

/**
 * Kolmogorov distribution complementary CDF:
 * Q(lambda) = 2 * sum_{j>=1} (-1)^{j-1} exp(-2 j^2 lambda^2).
 * Used for the asymptotic p-value of the two-sample KS test.
 */
double kolmogorovComplementaryCdf(double lambda);

} // namespace stats
} // namespace sharp

#endif // SHARP_STATS_SPECIAL_HH
