/**
 * @file
 * Reproduces paper Fig. 6 and Table IV (and feeds Fig. 1b): comparison
 * of stopping rules on the GPU-based Rodinia benchmarks, served by the
 * simulated Knative cluster with Machine 1 (A100) and Machine 3 (H100)
 * as workers, two parallel requests per round (§V-C).
 *
 * Rules (Table IV):
 *   Fixed        — 100 runs (SeBS recommendation)
 *   CI, T1=0.05  — right-tailed 95% CI < 5% of mean
 *   CI, T2=0.01  — right-tailed 95% CI < 1% of mean
 *   KS, T=0.1    — KS(first half, second half) < 0.1
 *
 * For each rule we report the runs consumed and the NAMD/KS distance
 * of the collected partial sample to the full 1000-run dataset.
 * Expected shape: fixed does not adapt; CI-T2 runs much longer than
 * necessary; KS balances runs and fidelity, saving ~90% vs 1000.
 */

#include <cstdio>
#include <memory>

#include "bench_common.hh"
#include "core/stopping/ci_rules.hh"
#include "core/stopping/fixed_rule.hh"
#include "core/stopping/ks_rule.hh"
#include "launcher/faas_backend.hh"
#include "launcher/launcher.hh"
#include "sim/faas.hh"
#include "sim/machine.hh"
#include "sim/rodinia.hh"
#include "stats/ecdf.hh"
#include "stats/similarity.hh"
#include "util/string_utils.hh"
#include "util/table.hh"

namespace
{

constexpr uint64_t seed = 77;
constexpr size_t truthRuns = 1000;

/** Build a fresh two-worker Knative cluster for a benchmark. */
std::unique_ptr<sharp::sim::FaasCluster>
makeCluster(const sharp::sim::BenchmarkSpec &spec, uint64_t stream)
{
    using namespace sharp::sim;
    return std::make_unique<FaasCluster>(
        spec,
        std::vector<MachineSpec>{machineById("machine1"),
                                 machineById("machine3")},
        seed + stream);
}

struct RuleOutcome
{
    size_t runs;
    double namd;
    double ks;
};

RuleOutcome
runRule(const sharp::sim::BenchmarkSpec &spec,
        std::unique_ptr<sharp::core::StoppingRule> rule,
        const std::vector<double> &truth)
{
    using namespace sharp;
    // A different stream from the ground truth's: the rule must
    // reproduce the distribution, not replay the same noise.
    auto backend = std::make_shared<launcher::FaasBackend>(
        makeCluster(spec, 1), spec.name);
    launcher::LaunchOptions opts;
    opts.concurrency = 2; // two parallel requests, as in the paper
    opts.maxSamples = truthRuns;
    opts.warmupRounds = 1; // absorb the cold start
    launcher::Launcher l(backend, std::move(rule), opts);
    auto report = l.launch();
    return {report.series.size(),
            stats::namd(report.series.values(), truth),
            stats::ksStatistic(report.series.values(), truth)};
}

} // anonymous namespace

int
main()
{
    using namespace sharp;

    bench::banner("Figure 6 / Table IV",
                  "Stopping rules on the Knative GPU suite (Machines "
                  "1+3, 2 parallel requests)");

    util::TextTable table({"Benchmark", "Rule", "Runs used",
                           "NAMD vs truth", "KS vs truth",
                           "Saved vs 1000"});

    size_t total_fixed = 0, total_ci1 = 0, total_ci2 = 0, total_ks = 0;
    double ks_divergence_sum = 0.0;
    size_t count = 0;

    for (const auto &spec : sim::rodiniaCudaBenchmarks()) {
        // Ground truth: the full 1000-run dataset from the same
        // cluster configuration.
        auto truth_cluster = makeCluster(spec, 0);
        truth_cluster->invoke(2); // discard cold round
        std::vector<double> truth =
            truth_cluster->collectExecutionTimes(truthRuns / 2, 2);

        struct NamedRule
        {
            const char *label;
            std::unique_ptr<core::StoppingRule> rule;
            size_t *total;
        };
        std::vector<NamedRule> rules;
        rules.push_back({"Fixed(100)",
                         std::make_unique<core::FixedCountRule>(100),
                         &total_fixed});
        rules.push_back(
            {"CI T1=0.05",
             std::make_unique<core::MeanCiRule>(0.05, 0.95, 10),
             &total_ci1});
        rules.push_back(
            {"CI T2=0.01",
             std::make_unique<core::MeanCiRule>(0.01, 0.95, 10),
             &total_ci2});
        rules.push_back(
            {"KS T=0.1",
             std::make_unique<core::KsHalvesRule>(0.1, 20),
             &total_ks});

        for (auto &named : rules) {
            RuleOutcome outcome =
                runRule(spec, std::move(named.rule), truth);
            *named.total += outcome.runs;
            if (std::string(named.label) == "KS T=0.1") {
                ks_divergence_sum += outcome.ks;
                ++count;
            }
            table.addRow(
                {spec.name, named.label, std::to_string(outcome.runs),
                 util::formatDouble(outcome.namd, 4),
                 util::formatDouble(outcome.ks, 4),
                 util::formatDouble(
                     100.0 * (1.0 - static_cast<double>(outcome.runs) /
                                        truthRuns),
                     1) +
                     "%"});
        }
    }

    std::fputs(table.render().c_str(), stdout);

    size_t n_bench = sim::rodiniaCudaBenchmarks().size();
    size_t budget = n_bench * truthRuns;
    bench::section("Totals across the GPU suite (Fig. 1b)");
    util::TextTable totals({"Rule", "Total runs", "Share of fixed-1000",
                            "Computation saved"});
    auto addTotal = [&](const char *label, size_t total) {
        totals.addRow(
            {label, std::to_string(total),
             util::formatDouble(
                 100.0 * static_cast<double>(total) / budget, 1) +
                 "%",
             util::formatDouble(
                 100.0 * (1.0 - static_cast<double>(total) / budget),
                 1) +
                 "%"});
    };
    addTotal("Fixed(100)", total_fixed);
    addTotal("CI T1=0.05", total_ci1);
    addTotal("CI T2=0.01", total_ci2);
    addTotal("KS T=0.1", total_ks);
    std::fputs(totals.render().c_str(), stdout);

    std::printf("\nKS rule: %.1f%% computation saved (paper: 89.8%%), "
                "mean KS divergence to truth %.3f (paper: 0.104)\n",
                100.0 * (1.0 - static_cast<double>(total_ks) / budget),
                ks_divergence_sum / static_cast<double>(count));
    return 0;
}
