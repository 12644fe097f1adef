#include "report/drift.hh"

#include <stdexcept>

#include "report/ascii_plot.hh"
#include "stats/ecdf.hh"
#include "stats/kde.hh"
#include "stats/similarity.hh"
#include "util/string_utils.hh"

namespace sharp
{
namespace report
{

DriftReport
DriftReport::analyze(std::vector<std::string> labels_in,
                     const std::vector<std::vector<double>> &samples)
{
    if (labels_in.size() != samples.size())
        throw std::invalid_argument(
            "DriftReport: one label per session required");
    if (samples.size() < 2)
        throw std::invalid_argument(
            "DriftReport requires >= 2 sessions");
    for (const auto &sample : samples) {
        if (sample.size() < 2)
            throw std::invalid_argument(
                "DriftReport sessions need >= 2 values");
    }

    DriftReport report;
    report.labels = std::move(labels_in);
    size_t k = samples.size();
    report.ks.assign(k, std::vector<double>(k, 0.0));
    report.namd.assign(k, std::vector<double>(k, 0.0));
    for (size_t i = 0; i < k; ++i) {
        for (size_t j = i + 1; j < k; ++j) {
            double d_ks = stats::ksStatistic(samples[i], samples[j]);
            double d_namd = stats::namd(samples[i], samples[j]);
            report.ks[i][j] = report.ks[j][i] = d_ks;
            report.namd[i][j] = report.namd[j][i] = d_namd;
        }
        report.modes.push_back(
            stats::findModes(samples[i], 0.1).size());
    }
    return report;
}

size_t
DriftReport::totalPairs() const
{
    size_t k = labels.size();
    return k * (k - 1) / 2;
}

size_t
DriftReport::dissimilarPairs(double ksThreshold) const
{
    size_t count = 0;
    for (size_t i = 0; i < labels.size(); ++i) {
        for (size_t j = i + 1; j < labels.size(); ++j)
            count += ks[i][j] > ksThreshold;
    }
    return count;
}

size_t
DriftReport::blindPairs(double namdThreshold, double ksThreshold) const
{
    size_t count = 0;
    for (size_t i = 0; i < labels.size(); ++i) {
        for (size_t j = i + 1; j < labels.size(); ++j) {
            count += namd[i][j] < namdThreshold &&
                     ks[i][j] > ksThreshold;
        }
    }
    return count;
}

std::pair<size_t, size_t>
DriftReport::mostShapeDivergentPair() const
{
    size_t best_i = 0, best_j = 1;
    double best_gap = -1.0;
    // First pass restricts to pairs with differing mode counts; when
    // none exist the second pass considers all pairs.
    for (int pass = 0; pass < 2 && best_gap < 0.0; ++pass) {
        for (size_t i = 0; i < labels.size(); ++i) {
            for (size_t j = i + 1; j < labels.size(); ++j) {
                if (pass == 0 && modes[i] == modes[j])
                    continue;
                double gap = ks[i][j] - namd[i][j];
                if (gap > best_gap) {
                    best_gap = gap;
                    best_i = i;
                    best_j = j;
                }
            }
        }
    }
    return {best_i, best_j};
}

std::string
DriftReport::renderMarkdown() const
{
    using util::formatDouble;
    std::string out = "## Drift analysis across " +
                      std::to_string(labels.size()) + " sessions\n\n";
    out += "NAMD (point-summary similarity):\n\n```\n" +
           asciiHeatmap(namd, labels, labels) + "```\n\n";
    out += "KS (distribution similarity):\n\n```\n" +
           asciiHeatmap(ks, labels, labels) + "```\n\n";
    out += "- dissimilar pairs (KS > 0.1): " +
           std::to_string(dissimilarPairs()) + "/" +
           std::to_string(totalPairs()) + "\n";
    out += "- NAMD-blind pairs (NAMD < 0.05, KS > 0.1): " +
           std::to_string(blindPairs()) + "\n";
    auto [i, j] = mostShapeDivergentPair();
    out += "- most shape-divergent pair: " + labels[i] + " vs " +
           labels[j] + " (NAMD " + formatDouble(namd[i][j], 3) +
           ", KS " + formatDouble(ks[i][j], 3) + ", modes " +
           std::to_string(modes[i]) + " vs " +
           std::to_string(modes[j]) + ")\n";
    return out;
}

} // namespace report
} // namespace sharp
