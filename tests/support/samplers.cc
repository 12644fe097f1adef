#include "support/samplers.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/string_utils.hh"

namespace sharp
{
namespace rng
{

using util::formatDouble;

ExponentialSampler::ExponentialSampler(double lambda_in)
    : lambda(lambda_in)
{
    if (lambda <= 0.0)
        throw std::invalid_argument("ExponentialSampler requires lambda > 0");
}

double
ExponentialSampler::sample(Xoshiro256 &gen)
{
    return -std::log(gen.nextDoubleOpen()) / lambda;
}

std::string
ExponentialSampler::describe() const
{
    return "exponential(" + formatDouble(lambda) + ")";
}

Ar1Sampler::Ar1Sampler(double mean_in, double phi_in, double sigma_in)
    : mean(mean_in), phi(phi_in), sigma(sigma_in), previous(mean_in)
{
    if (std::fabs(phi) >= 1.0)
        throw std::invalid_argument("Ar1Sampler requires |phi| < 1");
    if (sigma < 0.0)
        throw std::invalid_argument("Ar1Sampler requires sigma >= 0");
}

double
Ar1Sampler::sample(Xoshiro256 &gen)
{
    if (!started) {
        // Draw the initial value from the stationary distribution.
        double stat_sd = sigma / std::sqrt(1.0 - phi * phi);
        previous = mean + stat_sd * NormalSampler::standard(gen);
        started = true;
        return previous;
    }
    previous = mean + phi * (previous - mean) +
               sigma * NormalSampler::standard(gen);
    return previous;
}

std::string
Ar1Sampler::describe() const
{
    return "ar1(mean=" + formatDouble(mean) + ", phi=" + formatDouble(phi) +
           ", sigma=" + formatDouble(sigma) + ")";
}

AffineSampler::AffineSampler(std::shared_ptr<Sampler> inner_in,
                             double scale_in, double offset_in)
    : inner(std::move(inner_in)), scale(scale_in), offset(offset_in)
{
    if (!this->inner)
        throw std::invalid_argument("AffineSampler requires a sampler");
}

double
AffineSampler::sample(Xoshiro256 &gen)
{
    return offset + scale * inner->sample(gen);
}

std::string
AffineSampler::describe() const
{
    return formatDouble(offset) + " + " + formatDouble(scale) + " * " +
           inner->describe();
}

ClampSampler::ClampSampler(std::shared_ptr<Sampler> inner_in,
                           double low_in, double high_in)
    : inner(std::move(inner_in)), low(low_in), high(high_in)
{
    if (!this->inner)
        throw std::invalid_argument("ClampSampler requires a sampler");
    if (!(low <= high))
        throw std::invalid_argument("ClampSampler requires low <= high");
}

double
ClampSampler::sample(Xoshiro256 &gen)
{
    return std::clamp(inner->sample(gen), low, high);
}

std::string
ClampSampler::describe() const
{
    return "clamp(" + inner->describe() + ", " + formatDouble(low) + ", " +
           formatDouble(high) + ")";
}

} // namespace rng
} // namespace sharp
