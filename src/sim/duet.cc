#include "sim/duet.hh"

#include <cmath>
#include <stdexcept>

#include "rng/sampler.hh"
#include "stats/descriptive.hh"

namespace sharp
{
namespace sim
{

DuetHarness::DuetHarness(const BenchmarkSpec &a, const BenchmarkSpec &b,
                         const MachineSpec &machine, uint64_t seed,
                         NoiseModel noise_in)
    : workloadA(a, machine, 0, seed),
      workloadB(b, machine, 0, seed ^ 0xB0B0B0B0ULL), noise(noise_in),
      gen(seed ^ 0xD0E7D0E7ULL)
{
    if (noise.sigma < 0.0)
        throw std::invalid_argument("DuetHarness requires sigma >= 0");
    if (std::fabs(noise.phi) >= 1.0)
        throw std::invalid_argument("DuetHarness requires |phi| < 1");
}

double
DuetHarness::nextInterference()
{
    double innovation_sd = std::sqrt(1.0 - noise.phi * noise.phi);
    interferenceState = noise.phi * interferenceState +
                        innovation_sd *
                            rng::NormalSampler::standard(gen);
    // Positive multiplier centered near 1; heavy co-tenant phases push
    // it well above.
    return std::exp(noise.sigma * interferenceState);
}

DuetPair
DuetHarness::samplePair()
{
    double shared = nextInterference();
    return {workloadA.sample() * shared, workloadB.sample() * shared,
            shared};
}

DuetPair
DuetHarness::sampleSequential()
{
    double for_a = nextInterference();
    double for_b = nextInterference();
    return {workloadA.sample() * for_a, workloadB.sample() * for_b,
            for_a};
}

std::vector<double>
DuetHarness::pairedLogRatios(const std::vector<DuetPair> &pairs)
{
    std::vector<double> out;
    out.reserve(pairs.size());
    for (const auto &pair : pairs)
        out.push_back(std::log(pair.timeA / pair.timeB));
    return out;
}

double
DuetHarness::speedupEstimate(const std::vector<DuetPair> &pairs)
{
    if (pairs.empty())
        throw std::invalid_argument(
            "speedupEstimate requires >= 1 pair");
    return std::exp(stats::mean(pairedLogRatios(pairs)));
}

} // namespace sim
} // namespace sharp
