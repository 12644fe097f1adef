#include "calibrate/calibration.hh"

#include <algorithm>
#include <chrono>
#include <map>
#include <stdexcept>

#include "core/classifier.hh"
#include "core/sample_series.hh"
#include "core/stats_cache.hh"
#include "core/stopping/meta_rule.hh"
#include "core/stopping/stopping_rule.hh"
#include "rng/nonstationary.hh"
#include "rng/synthetic.hh"
#include "rng/xoshiro.hh"
#include "stats/ci.hh"
#include "stats/descriptive.hh"
#include "stats/ecdf.hh"
#include "util/string_utils.hh"
#include "util/thread_pool.hh"

namespace sharp
{
namespace calibrate
{

namespace
{

/** Sentinel "rule name" for the ground-truth reference streams;
 * contains a space so no registered rule can collide with it. */
const char *const truthStream = "# truth";

/** Format a double for the CSV/JSON artifacts (deterministic). */
std::string
fmt(double value)
{
    return util::formatDouble(value, 6);
}

/** Round a double to the precision the artifacts carry, so the JSON
 * summary and the CSV agree and stay byte-stable across platforms
 * with identical IEEE arithmetic. */
double
artifactRound(double value)
{
    return util::parseDouble(fmt(value)).value_or(value);
}

/**
 * Evaluation schedule: consult the rule after every sample up to 200,
 * then every max(1, lastCheck/50) samples (~2% growth), keeping
 * KDE-based rules subquadratic on long runs.
 */
bool
dueForCheck(size_t n, size_t lastCheck)
{
    if (n <= 200)
        return true;
    return n - lastCheck >= std::max<size_t>(1, lastCheck / 50);
}

/** Whether a mean CI is a meaningful fidelity measure for @p cls. */
bool
meanCiApplicable(rng::SyntheticClass cls)
{
    return cls != rng::SyntheticClass::HeavyTail &&
           cls != rng::SyntheticClass::Constant;
}

CalibrationCell
runCell(const CalibrationConfig &config, const std::string &rule_name,
        const rng::SyntheticSpec &spec, size_t seed_index, uint64_t seed,
        const std::vector<double> &truth, double truth_mean)
{
    CalibrationCell cell;
    cell.rule = rule_name;
    cell.distribution = spec.name;
    cell.seedIndex = seed_index;
    cell.cellSeed = seed;
    cell.truthClass = rng::syntheticClassName(spec.truth);

    auto start = std::chrono::steady_clock::now();

    auto rule = core::StoppingRuleFactory::instance().make(rule_name);
    auto sampler = spec.make();
    rng::Xoshiro256 gen(seed);
    core::SampleSeries series;
    size_t last_check = 0;
    while (series.size() < config.maxSamples) {
        series.append(sampler->sample(gen));
        size_t n = series.size();
        if (n < rule->minSamples() || n < 2)
            continue;
        if (!dueForCheck(n, last_check))
            continue;
        last_check = n;
        core::StopDecision decision = rule->evaluate(series);
        if (decision.stop) {
            cell.ruleFired = true;
            break;
        }
    }
    cell.samplesToStop = series.size();

    // The series' stats cache already holds a sorted view (maintained
    // incrementally while the rule consumed it); the KS fidelity check
    // and the classifier both reuse it instead of re-sorting. @p truth
    // arrives pre-sorted from runCalibration.
    const auto &values = series.values();
    cell.postStopKs = artifactRound(
        stats::ksStatisticSorted(series.stats().sorted(), truth));

    cell.ciApplicable = meanCiApplicable(spec.truth) && values.size() >= 2;
    if (cell.ciApplicable) {
        auto ci = series.stats().meanCi(0.95);
        cell.ciRelWidth = artifactRound(ci.relativeWidth(series.mean()));
        cell.ciCovered = ci.lower <= truth_mean && truth_mean <= ci.upper;
    }

    core::Classification cls = core::classifyDistribution(series);
    cell.classifiedClass = core::distributionClassName(cls.cls);
    cell.classifierCorrect = cell.classifiedClass == cell.truthClass;

    if (const auto *meta = dynamic_cast<const core::MetaRule *>(rule.get()))
        cell.metaDelegate = meta->delegate().name();

    cell.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return cell;
}

/** Median of a vector that is guaranteed non-empty. */
double
medianOf(std::vector<double> values)
{
    return artifactRound(stats::median(std::move(values)));
}

} // anonymous namespace

void
CalibrationConfig::resolveDefaults()
{
    if (rules.empty())
        rules = core::StoppingRuleFactory::instance().names();
    if (distributions.empty()) {
        for (const auto &spec : rng::syntheticRegistry())
            distributions.push_back(spec.name);
        for (const auto &spec : rng::nonstationaryRegistry())
            distributions.push_back(spec.name);
        for (const auto &spec : extraDistributions)
            distributions.push_back(spec.name);
    }
}

namespace
{

/** FNV-1a over a name; fixed constants, so platform-stable. */
uint64_t
nameHash(const std::string &name)
{
    uint64_t h = 14695981039346656037ull;
    for (unsigned char c : name) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

} // anonymous namespace

uint64_t
cellSeed(uint64_t baseSeed, const std::string &rule,
         const std::string &distribution, size_t seedIndex)
{
    // Chain SplitMix64 once per coordinate: each stage's output is the
    // next stage's seed, so every coordinate permutes the whole stream.
    // Rule and distribution enter by name, not sweep position, so a
    // cell draws the same stream no matter which other rules or
    // distributions are swept alongside it.
    uint64_t s = rng::SplitMix64(baseSeed).next();
    s = rng::SplitMix64(s + nameHash(rule)).next();
    s = rng::SplitMix64(s + nameHash(distribution)).next();
    return rng::SplitMix64(s + static_cast<uint64_t>(seedIndex)).next();
}

CalibrationResult
runCalibration(CalibrationConfig config)
{
    config.resolveDefaults();

    // Validate names eagerly (throws out_of_range on unknowns) and
    // collect the specs once. Extras (scenario distributions) are
    // looked up first, then the synthetic and nonstationary registries.
    auto lookup = [&config](const std::string &name)
        -> const rng::SyntheticSpec & {
        for (const auto &extra : config.extraDistributions)
            if (extra.name == name)
                return extra;
        try {
            return rng::syntheticByName(name);
        } catch (const std::out_of_range &) {
            return rng::nonstationaryByName(name);
        }
    };
    std::vector<const rng::SyntheticSpec *> specs;
    specs.reserve(config.distributions.size());
    for (const auto &name : config.distributions)
        specs.push_back(&lookup(name));
    for (const auto &rule : config.rules)
        core::StoppingRuleFactory::instance().make(rule);

    // Ground truths per distribution, on their own seed streams so the
    // rules must reproduce the distribution, not replay its noise.
    std::vector<std::vector<double>> truths(specs.size());
    std::vector<double> truth_means(specs.size());
    util::parallelFor(config.jobs, specs.size(), [&](size_t d) {
        truths[d] = rng::syntheticReference(
            *specs[d],
            cellSeed(config.baseSeed, truthStream,
                     config.distributions[d], 0),
            config.truthSamples);
        // Mean first (Kahan in arrival order, as the artifacts pin),
        // then sort in place: every cell compares against the truth
        // via the sorted KS overload, so sort each truth exactly once.
        truth_means[d] = stats::mean(truths[d]);
        std::sort(truths[d].begin(), truths[d].end());
    });

    CalibrationResult result;
    result.config = config;
    size_t per_rule = specs.size() * config.seedsPerCell;
    result.cells.resize(config.rules.size() * per_rule);

    // One flat index space, rule-major: results land at their index,
    // so cell order (and thus the artifacts) is jobs-independent.
    util::parallelFor(
        config.jobs, result.cells.size(), [&](size_t i) {
            size_t r = i / per_rule;
            size_t d = (i % per_rule) / config.seedsPerCell;
            size_t k = i % config.seedsPerCell;
            result.cells[i] = runCell(
                config, config.rules[r], *specs[d], k,
                cellSeed(config.baseSeed, config.rules[r],
                         config.distributions[d], k),
                truths[d], truth_means[d]);
        });
    return result;
}

record::CsvTable
CalibrationResult::toCsv() const
{
    std::vector<std::string> columns = {
        "rule",          "distribution",     "seed_index",
        "cell_seed",     "samples_to_stop",  "rule_fired",
        "post_stop_ks",  "ci_rel_width",     "ci_covered",
        "truth_class",   "classified_class", "classifier_correct",
        "meta_delegate"};
    if (config.recordTimings)
        columns.push_back("wall_ms");

    record::CsvTable table(columns);
    for (const auto &cell : cells) {
        std::vector<std::string> row = {
            cell.rule,
            cell.distribution,
            std::to_string(cell.seedIndex),
            std::to_string(cell.cellSeed),
            std::to_string(cell.samplesToStop),
            cell.ruleFired ? "true" : "false",
            fmt(cell.postStopKs),
            cell.ciApplicable ? fmt(cell.ciRelWidth) : "",
            cell.ciApplicable ? (cell.ciCovered ? "true" : "false") : "",
            cell.truthClass,
            cell.classifiedClass,
            cell.classifierCorrect ? "true" : "false",
            cell.metaDelegate};
        if (config.recordTimings)
            row.push_back(fmt(cell.wallSeconds * 1000.0));
        table.addRow(std::move(row));
    }
    return table;
}

json::Value
CalibrationResult::summaryJson() const
{
    json::Value root = json::Value::makeObject();
    root.set("schema", "sharp-calibration-summary-v1");

    json::Value cfg = json::Value::makeObject();
    // As a decimal string: JSON numbers are doubles, which would
    // round seeds >= 2^53 (see Value::getUint64).
    cfg.set("base_seed", std::to_string(config.baseSeed));
    cfg.set("seeds_per_cell", config.seedsPerCell);
    cfg.set("max_samples", config.maxSamples);
    cfg.set("truth_samples", config.truthSamples);
    json::Value rule_list = json::Value::makeArray();
    for (const auto &rule : config.rules)
        rule_list.append(rule);
    cfg.set("rules", rule_list);
    json::Value dist_list = json::Value::makeArray();
    for (const auto &dist : config.distributions)
        dist_list.append(dist);
    cfg.set("distributions", dist_list);
    root.set("config", cfg);

    // Per rule x distribution medians over the seed grid.
    struct Group
    {
        std::vector<double> samples;
        std::vector<double> ks;
        size_t fired = 0;
        /** Delegate-name counts (meta cells only). */
        std::map<std::string, size_t> delegates;
    };
    std::map<std::string, std::map<std::string, Group>> groups;
    for (const auto &cell : cells) {
        Group &g = groups[cell.rule][cell.distribution];
        g.samples.push_back(static_cast<double>(cell.samplesToStop));
        g.ks.push_back(cell.postStopKs);
        if (cell.ruleFired)
            ++g.fired;
        if (!cell.metaDelegate.empty())
            ++g.delegates[cell.metaDelegate];
    }

    // Modal delegate over the seed grid (ties resolved by name order,
    // so the artifact stays deterministic).
    auto modalDelegate = [](const Group &g) {
        std::string best;
        size_t bestCount = 0;
        for (const auto &[name, count] : g.delegates) {
            if (count > bestCount) {
                best = name;
                bestCount = count;
            }
        }
        return best;
    };

    json::Value rules = json::Value::makeObject();
    for (const auto &rule : config.rules) {
        json::Value per_dist = json::Value::makeObject();
        for (const auto &dist : config.distributions) {
            const Group &g = groups[rule][dist];
            json::Value entry = json::Value::makeObject();
            entry.set("median_samples", medianOf(g.samples));
            entry.set("median_ks", medianOf(g.ks));
            entry.set("fired_fraction",
                      artifactRound(static_cast<double>(g.fired) /
                                    static_cast<double>(
                                        g.samples.size())));
            // The meta rule's per-distribution delegation: what the
            // tuning sweep selects, pinned by the baseline gate so
            // delegation drift is an explicit, reviewed change.
            std::string delegate = modalDelegate(g);
            if (!delegate.empty())
                entry.set("delegate", delegate);
            per_dist.set(dist, entry);
        }
        rules.set(rule, per_dist);
    }
    root.set("rules", rules);

    // Classifier confusion matrix over every cell: truth class (rows,
    // registry order) x predicted class (columns, sorted).
    std::map<std::string, std::map<std::string, size_t>> confusion;
    size_t correct = 0;
    for (const auto &cell : cells) {
        ++confusion[cell.truthClass][cell.classifiedClass];
        if (cell.classifierCorrect)
            ++correct;
    }
    json::Value classifier = json::Value::makeObject();
    classifier.set("cells", cells.size());
    classifier.set(
        "accuracy",
        artifactRound(cells.empty() ? 0.0
                                    : static_cast<double>(correct) /
                                          static_cast<double>(
                                              cells.size())));
    json::Value matrix = json::Value::makeObject();
    for (const auto &[truth, row] : confusion) {
        json::Value predicted = json::Value::makeObject();
        for (const auto &[label, count] : row)
            predicted.set(label, count);
        matrix.set(truth, predicted);
    }
    classifier.set("confusion", matrix);
    root.set("classifier", classifier);

    // Meta-versus-fixed: the acceptance comparison. A distribution is a
    // "win" when the meta-rule stopped with no more samples than the
    // fixed rule at equal-or-better post-stop KS distance (KS ties
    // resolved within kKsTieBand — see the header).
    bool have_meta = groups.count("meta") > 0;
    bool have_fixed = groups.count("fixed") > 0;
    if (have_meta && have_fixed) {
        json::Value versus = json::Value::makeObject();
        versus.set("ks_tie_band", kKsTieBand);
        json::Value per_dist = json::Value::makeObject();
        size_t wins = 0;
        for (const auto &dist : config.distributions) {
            const Group &meta = groups["meta"][dist];
            const Group &fixed = groups["fixed"][dist];
            double meta_samples = medianOf(meta.samples);
            double fixed_samples = medianOf(fixed.samples);
            double meta_ks = medianOf(meta.ks);
            double fixed_ks = medianOf(fixed.ks);
            bool win = meta_samples <= fixed_samples &&
                       meta_ks <= fixed_ks + kKsTieBand;
            if (win)
                ++wins;
            json::Value entry = json::Value::makeObject();
            entry.set("win", win);
            entry.set("meta_samples", meta_samples);
            entry.set("fixed_samples", fixed_samples);
            entry.set("meta_ks", meta_ks);
            entry.set("fixed_ks", fixed_ks);
            per_dist.set(dist, entry);
        }
        versus.set("wins", wins);
        versus.set("distributions", config.distributions.size());
        versus.set("per_distribution", per_dist);
        root.set("meta_vs_fixed", versus);
    }
    return root;
}

} // namespace calibrate
} // namespace sharp
