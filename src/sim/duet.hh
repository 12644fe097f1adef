/**
 * @file
 * Duet benchmarking (Bulej et al., cited in the paper's related work):
 * "performance fluctuations due to interference tend to impact similar
 * tenants equally", so running the two artifacts under comparison *in
 * parallel* on the same node and analyzing paired ratios cancels the
 * shared noise that sequential A/B measurement cannot.
 *
 * The harness models a cloud node with an autocorrelated interference
 * process (co-tenant load): in duet mode each pair of samples shares
 * one interference draw; in sequential mode each side sees its own.
 * The paired log-ratio estimator's variance advantage is exactly the
 * phenomenon the Duet paper exploits.
 */

#ifndef SHARP_SIM_DUET_HH
#define SHARP_SIM_DUET_HH

#include <cstdint>
#include <vector>

#include "rng/xoshiro.hh"
#include "sim/machine.hh"
#include "sim/rodinia.hh"
#include "sim/workload.hh"

namespace sharp
{
namespace sim
{

/** One duet round. */
struct DuetPair
{
    /** Time of workload A under this round's interference. */
    double timeA;
    /** Time of workload B under the same interference. */
    double timeB;
    /** The shared interference multiplier (>= ~0.5). */
    double interference;
};

/**
 * Runs two workloads on one (simulated) noisy cloud node.
 */
class DuetHarness
{
  public:
    /** Interference process parameters. */
    struct NoiseModel
    {
        /** Log-scale magnitude of the interference (0 = quiet node). */
        double sigma = 0.2;
        /** AR(1) persistence of the co-tenant load. */
        double phi = 0.7;
    };

    /**
     * @param a, b     the two benchmarks under comparison
     * @param machine  the shared node
     * @param seed     deterministic stream seed
     * @param noise    interference process
     * @throws std::invalid_argument for CUDA benchmarks on GPU-less
     *         machines or invalid noise parameters
     */
    DuetHarness(const BenchmarkSpec &a, const BenchmarkSpec &b,
                const MachineSpec &machine, uint64_t seed,
                NoiseModel noise);

    /** One duet round: both workloads share one interference draw. */
    DuetPair samplePair();

    /**
     * One sequential round: A and B measured at different times, each
     * under an *independent* interference draw — the conventional
     * methodology duet improves on.
     */
    DuetPair sampleSequential();

    /** @return pairs.size() log(timeA/timeB) values. */
    static std::vector<double>
    pairedLogRatios(const std::vector<DuetPair> &pairs);

    /**
     * Speedup estimate exp(mean(log-ratios)) — the geometric-mean
     * ratio of A over B.
     */
    static double speedupEstimate(const std::vector<DuetPair> &pairs);

  private:
    SimulatedWorkload workloadA;
    SimulatedWorkload workloadB;
    NoiseModel noise;
    rng::Xoshiro256 gen;
    double interferenceState = 0.0;

    /** Advance the AR(1) interference process and return exp(sigma*s). */
    double nextInterference();
};

} // namespace sim
} // namespace sharp

#endif // SHARP_SIM_DUET_HH
