#include "rng/sampler.hh"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "util/string_utils.hh"

namespace sharp
{
namespace rng
{

using util::formatDouble;

std::vector<double>
Sampler::sampleMany(Xoshiro256 &gen, size_t n)
{
    std::vector<double> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i)
        out.push_back(sample(gen));
    return out;
}

double
ConstantSampler::sample(Xoshiro256 &gen)
{
    (void)gen;
    return value;
}

std::string
ConstantSampler::describe() const
{
    return "constant(" + formatDouble(value) + ")";
}

UniformSampler::UniformSampler(double low_in, double high_in)
    : low(low_in), high(high_in)
{
    if (!(low < high))
        throw std::invalid_argument("UniformSampler requires low < high");
}

double
UniformSampler::sample(Xoshiro256 &gen)
{
    return low + (high - low) * gen.nextDouble();
}

std::string
UniformSampler::describe() const
{
    return "uniform(" + formatDouble(low) + ", " + formatDouble(high) + ")";
}

LogUniformSampler::LogUniformSampler(double low_in, double high_in)
    : low(low_in), high(high_in)
{
    if (!(low > 0.0) || !(low < high)) {
        throw std::invalid_argument(
            "LogUniformSampler requires 0 < low < high");
    }
    logLow = std::log(low);
    logHigh = std::log(high);
}

double
LogUniformSampler::sample(Xoshiro256 &gen)
{
    return std::exp(logLow + (logHigh - logLow) * gen.nextDouble());
}

std::string
LogUniformSampler::describe() const
{
    return "loguniform(" + formatDouble(low) + ", " + formatDouble(high) +
           ")";
}

NormalSampler::NormalSampler(double mean_in, double stddev_in)
    : mean(mean_in), stddev(stddev_in)
{
    if (stddev < 0.0)
        throw std::invalid_argument("NormalSampler requires stddev >= 0");
}

double
NormalSampler::standard(Xoshiro256 &gen)
{
    // Box–Muller; we deliberately discard the second deviate to keep the
    // sampler stateless, trading a little speed for reproducibility when
    // streams are interleaved.
    double u1 = gen.nextDoubleOpen();
    double u2 = gen.nextDouble();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * std::numbers::pi * u2);
}

double
NormalSampler::sample(Xoshiro256 &gen)
{
    return mean + stddev * standard(gen);
}

std::string
NormalSampler::describe() const
{
    return "normal(" + formatDouble(mean) + ", " + formatDouble(stddev) +
           ")";
}

LogNormalSampler::LogNormalSampler(double mu_in, double sigma_in)
    : mu(mu_in), sigma(sigma_in)
{
    if (sigma < 0.0)
        throw std::invalid_argument("LogNormalSampler requires sigma >= 0");
}

double
LogNormalSampler::sample(Xoshiro256 &gen)
{
    return std::exp(mu + sigma * NormalSampler::standard(gen));
}

std::string
LogNormalSampler::describe() const
{
    return "lognormal(" + formatDouble(mu) + ", " + formatDouble(sigma) +
           ")";
}

LogisticSampler::LogisticSampler(double mu_in, double scale_in)
    : mu(mu_in), scale(scale_in)
{
    if (scale <= 0.0)
        throw std::invalid_argument("LogisticSampler requires scale > 0");
}

double
LogisticSampler::sample(Xoshiro256 &gen)
{
    double u = gen.nextDoubleOpen();
    return mu + scale * std::log(u / (1.0 - u));
}

std::string
LogisticSampler::describe() const
{
    return "logistic(" + formatDouble(mu) + ", " + formatDouble(scale) + ")";
}

CauchySampler::CauchySampler(double location_in, double scale_in)
    : location(location_in), scale(scale_in)
{
    if (scale <= 0.0)
        throw std::invalid_argument("CauchySampler requires scale > 0");
}

double
CauchySampler::sample(Xoshiro256 &gen)
{
    double u = gen.nextDoubleOpen();
    return location + scale * std::tan(std::numbers::pi * (u - 0.5));
}

std::string
CauchySampler::describe() const
{
    return "cauchy(" + formatDouble(location) + ", " + formatDouble(scale) +
           ")";
}

MixtureSampler::MixtureSampler(std::vector<Component> components_in)
    : components(std::move(components_in))
{
    if (this->components.empty())
        throw std::invalid_argument("MixtureSampler requires components");
    double total = 0.0;
    for (const auto &comp : this->components) {
        if (comp.weight <= 0.0 || !comp.sampler) {
            throw std::invalid_argument(
                "MixtureSampler component needs positive weight and a "
                "sampler");
        }
        total += comp.weight;
    }
    double acc = 0.0;
    for (const auto &comp : this->components) {
        acc += comp.weight / total;
        cumulative.push_back(acc);
    }
    cumulative.back() = 1.0; // guard against rounding
}

double
MixtureSampler::sample(Xoshiro256 &gen)
{
    double u = gen.nextDouble();
    auto it = std::lower_bound(cumulative.begin(), cumulative.end(), u);
    size_t idx = static_cast<size_t>(it - cumulative.begin());
    if (idx >= components.size())
        idx = components.size() - 1;
    return components[idx].sampler->sample(gen);
}

std::string
MixtureSampler::describe() const
{
    std::string out = "mixture(";
    for (size_t i = 0; i < components.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += formatDouble(components[i].weight, 3) + "*" +
               components[i].sampler->describe();
    }
    return out + ")";
}

SinusoidalSampler::SinusoidalSampler(double base_in, double amplitude_in,
                                     double period_in, double noise_in)
    : base(base_in), amplitude(amplitude_in), period(period_in),
      noise(noise_in)
{
    if (period <= 0.0)
        throw std::invalid_argument("SinusoidalSampler requires period > 0");
    if (noise < 0.0)
        throw std::invalid_argument("SinusoidalSampler requires noise >= 0");
}

double
SinusoidalSampler::sample(Xoshiro256 &gen)
{
    double phase =
        2.0 * std::numbers::pi * static_cast<double>(index++) / period;
    return base + amplitude * std::sin(phase) +
           noise * NormalSampler::standard(gen);
}

std::string
SinusoidalSampler::describe() const
{
    return "sinusoidal(base=" + formatDouble(base) +
           ", amp=" + formatDouble(amplitude) +
           ", period=" + formatDouble(period) +
           ", noise=" + formatDouble(noise) + ")";
}

} // namespace rng
} // namespace sharp
