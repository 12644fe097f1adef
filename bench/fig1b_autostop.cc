/**
 * @file
 * Reproduces paper Fig. 1b: the headline computation savings of
 * SHARP's auto-stopping against a fixed sample size large enough to
 * establish ground truth (1000 runs). Runs both the KS rule (the
 * paper's choice) and the meta-heuristic over the full 20-benchmark
 * suite on Machine 1, reporting runs used and distributional fidelity.
 */

#include <cstdio>
#include <memory>

#include "bench_common.hh"
#include "core/stopping/ks_rule.hh"
#include "core/stopping/meta_rule.hh"
#include "launcher/launcher.hh"
#include "launcher/sim_backend.hh"
#include "sim/machine.hh"
#include "sim/rodinia.hh"
#include "sim/workload.hh"
#include "stats/ecdf.hh"
#include "util/string_utils.hh"
#include "util/table.hh"

namespace
{

constexpr uint64_t seed = 11;
constexpr size_t truthRuns = 1000;

struct Outcome
{
    size_t runs = 0;
    double ks_to_truth = 0.0;
};

Outcome
runWithRule(const sharp::sim::BenchmarkSpec &spec,
            std::unique_ptr<sharp::core::StoppingRule> rule,
            const std::vector<double> &truth)
{
    using namespace sharp;
    auto backend = std::make_shared<launcher::SimBackend>(
        spec, sim::machineById("machine1"), 0, seed);
    launcher::LaunchOptions opts;
    opts.maxSamples = truthRuns;
    launcher::Launcher l(backend, std::move(rule), opts);
    auto report = l.launch();
    return {report.series.size(),
            stats::ksStatistic(report.series.values(), truth)};
}

} // anonymous namespace

int
main()
{
    using namespace sharp;

    bench::banner("Figure 1b",
                  "Auto-stopping savings vs fixed-1000 ground truth "
                  "(all 20 benchmarks, Machine 1)");

    util::TextTable table({"Benchmark", "KS-rule runs", "KS fidelity",
                           "Meta-rule runs", "Meta fidelity"});

    size_t total_ks = 0, total_meta = 0, budget = 0;
    for (const auto &spec : sim::rodiniaRegistry()) {
        sim::SimulatedWorkload truth_gen(
            spec, sim::machineById("machine1"), 0, seed + 1);
        std::vector<double> truth = truth_gen.sampleMany(truthRuns);

        Outcome ks = runWithRule(
            spec, std::make_unique<core::KsHalvesRule>(0.1, 20), truth);
        Outcome meta = runWithRule(
            spec, std::make_unique<core::MetaRule>(), truth);

        total_ks += ks.runs;
        total_meta += meta.runs;
        budget += truthRuns;
        table.addRow({spec.name, std::to_string(ks.runs),
                      util::formatDouble(ks.ks_to_truth, 3),
                      std::to_string(meta.runs),
                      util::formatDouble(meta.ks_to_truth, 3)});
    }
    std::fputs(table.render().c_str(), stdout);

    auto saved = [&](size_t total) {
        return 100.0 * (1.0 - static_cast<double>(total) /
                                  static_cast<double>(budget));
    };
    std::printf("\nKS rule:   %zu/%zu runs -> %.1f%% computation saved "
                "(paper: ~89.8%%)\n",
                total_ks, budget, saved(total_ks));
    std::printf("Meta rule: %zu/%zu runs -> %.1f%% computation saved\n",
                total_meta, budget, saved(total_meta));
    return 0;
}
