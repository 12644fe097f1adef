/**
 * @file
 * Distribution samplers over Xoshiro256.
 *
 * These cover the distribution families the SHARP paper uses to tune
 * its stopping heuristics (§IV-c): normal, log-normal, uniform,
 * log-uniform, logistic, Cauchy, constant, finite mixtures (bi-/multi-
 * modal), and an autocorrelated sinusoidal process. All samplers are
 * deterministic given the generator state.
 */

#ifndef SHARP_RNG_SAMPLER_HH
#define SHARP_RNG_SAMPLER_HH

#include <memory>
#include <string>
#include <vector>

#include "rng/xoshiro.hh"

namespace sharp
{
namespace rng
{

/**
 * Abstract sampler interface: draws one double per call.
 *
 * Samplers may be stateful (e.g. the autocorrelated process), so one
 * sampler instance models one measurement stream.
 */
class Sampler
{
  public:
    virtual ~Sampler() = default;

    /** Draw the next sample using @p gen as the entropy source. */
    virtual double sample(Xoshiro256 &gen) = 0;

    /** Short human-readable description, e.g. "normal(10, 2)". */
    virtual std::string describe() const = 0;

    /** Draw @p n samples. */
    std::vector<double> sampleMany(Xoshiro256 &gen, size_t n);
};

/** Degenerate distribution: always returns the same value. */
class ConstantSampler : public Sampler
{
  public:
    explicit ConstantSampler(double value_in) : value(value_in) {}
    double sample(Xoshiro256 &gen) override;
    std::string describe() const override;

  private:
    double value;
};

/** Uniform distribution on [low, high). */
class UniformSampler : public Sampler
{
  public:
    UniformSampler(double low, double high);
    double sample(Xoshiro256 &gen) override;
    std::string describe() const override;

  private:
    double low, high;
};

/** Log-uniform (reciprocal) distribution on [low, high), low > 0. */
class LogUniformSampler : public Sampler
{
  public:
    LogUniformSampler(double low, double high);
    double sample(Xoshiro256 &gen) override;
    std::string describe() const override;

  private:
    double logLow, logHigh;
    double low, high;
};

/** Normal distribution N(mean, stddev^2), via Box–Muller. */
class NormalSampler : public Sampler
{
  public:
    NormalSampler(double mean, double stddev);
    double sample(Xoshiro256 &gen) override;
    std::string describe() const override;

    /** Draw a standard normal deviate. */
    static double standard(Xoshiro256 &gen);

  private:
    double mean, stddev;
};

/** Log-normal: exp(N(mu, sigma^2)) of the underlying normal. */
class LogNormalSampler : public Sampler
{
  public:
    LogNormalSampler(double mu, double sigma);
    double sample(Xoshiro256 &gen) override;
    std::string describe() const override;

  private:
    double mu, sigma;
};

/** Logistic distribution with location @p mu and scale @p s. */
class LogisticSampler : public Sampler
{
  public:
    LogisticSampler(double mu, double scale);
    double sample(Xoshiro256 &gen) override;
    std::string describe() const override;

  private:
    double mu, scale;
};

/** Cauchy distribution (heavy-tailed; no finite mean). */
class CauchySampler : public Sampler
{
  public:
    CauchySampler(double location, double scale);
    double sample(Xoshiro256 &gen) override;
    std::string describe() const override;

  private:
    double location, scale;
};

/**
 * Finite mixture of component samplers with given weights; models the
 * bi- and multi-modal run-time distributions common on real machines.
 */
class MixtureSampler : public Sampler
{
  public:
    struct Component
    {
        double weight;
        std::shared_ptr<Sampler> sampler;
    };

    explicit MixtureSampler(std::vector<Component> components);
    double sample(Xoshiro256 &gen) override;
    std::string describe() const override;

    /** Number of mixture components. */
    size_t numComponents() const { return components.size(); }

  private:
    std::vector<Component> components;
    std::vector<double> cumulative;
};

/**
 * Autocorrelated sinusoidal process: a deterministic sinusoid in the
 * sample index plus Gaussian noise; successive samples are strongly
 * correlated, modeling slow periodic interference (thermal cycles,
 * cron-like background activity).
 */
class SinusoidalSampler : public Sampler
{
  public:
    /**
     * @param base       mean level of the process
     * @param amplitude  sinusoid amplitude
     * @param period     sinusoid period in samples
     * @param noise      stddev of additive Gaussian noise
     */
    SinusoidalSampler(double base, double amplitude, double period,
                      double noise);
    double sample(Xoshiro256 &gen) override;
    std::string describe() const override;

  private:
    double base, amplitude, period, noise;
    uint64_t index = 0;
};

} // namespace rng
} // namespace sharp

#endif // SHARP_RNG_SAMPLER_HH
