/**
 * @file
 * Samplers only the unit tests draw from: an exponential, an AR(1)
 * process, and affine and clamping wrappers around another sampler.
 * No shipped binary uses them, so they live beside the tests instead
 * of in src/rng.
 */

#ifndef SHARP_TESTS_SUPPORT_SAMPLERS_HH
#define SHARP_TESTS_SUPPORT_SAMPLERS_HH

#include <memory>
#include <string>

#include "rng/sampler.hh"

namespace sharp
{
namespace rng
{

/** Exponential distribution with rate @p lambda. */
class ExponentialSampler : public Sampler
{
  public:
    explicit ExponentialSampler(double lambda);
    double sample(Xoshiro256 &gen) override;
    std::string describe() const override;

  private:
    double lambda;
};

/**
 * First-order autoregressive process AR(1):
 * x_t = mean + phi * (x_{t-1} - mean) + N(0, sigma).
 */
class Ar1Sampler : public Sampler
{
  public:
    Ar1Sampler(double mean, double phi, double sigma);
    double sample(Xoshiro256 &gen) override;
    std::string describe() const override;

  private:
    double mean, phi, sigma;
    double previous;
    bool started = false;
};

/**
 * Wraps another sampler and shifts/scales its output:
 * y = offset + scale * x. Used to place a canonical shape at a
 * benchmark's absolute run-time level.
 */
class AffineSampler : public Sampler
{
  public:
    AffineSampler(std::shared_ptr<Sampler> inner, double scale,
                  double offset);
    double sample(Xoshiro256 &gen) override;
    std::string describe() const override;

  private:
    std::shared_ptr<Sampler> inner;
    double scale, offset;
};

/**
 * Clamps another sampler's output to [low, high]; execution times are
 * physically bounded below, so simulated ones should be too.
 */
class ClampSampler : public Sampler
{
  public:
    ClampSampler(std::shared_ptr<Sampler> inner, double low, double high);
    double sample(Xoshiro256 &gen) override;
    std::string describe() const override;

  private:
    std::shared_ptr<Sampler> inner;
    double low, high;
};

} // namespace rng
} // namespace sharp

#endif // SHARP_TESTS_SUPPORT_SAMPLERS_HH
