#include "compare/compare.hh"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "check/diagnostic.hh"
#include "stats/descriptive.hh"
#include "stats/ecdf.hh"
#include "util/string_utils.hh"

namespace sharp
{
namespace compare
{

namespace
{

/** The quantile ladder every scenario is compared at. */
constexpr double kShiftQuantiles[] = {0.10, 0.25, 0.50, 0.75,
                                      0.90, 0.95, 0.99};

/** FNV-1a, so each scenario gets its own bootstrap stream. */
uint64_t
fnv1a(const std::string &text)
{
    uint64_t hash = 1469598103934665603ULL;
    for (char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ULL;
    }
    return hash;
}

ScenarioComparison
compareScenario(const ScenarioSamples &base, const ScenarioSamples &cand,
                const CompareTolerances &tol)
{
    ScenarioComparison out;
    out.name = base.name;
    out.baselineCount = base.sorted.size();
    out.candidateCount = cand.sorted.size();
    out.ksDistance = stats::ksStatisticSorted(base.sorted, cand.sorted);
    for (double p : kShiftQuantiles) {
        QuantileShift shift;
        shift.p = p;
        shift.baseline = stats::quantileSorted(base.sorted, p);
        shift.candidate = stats::quantileSorted(cand.sorted, p);
        shift.ratio = shift.baseline != 0.0
                          ? shift.candidate / shift.baseline
                          : 0.0;
        out.shifts.push_back(shift);
    }
    out.baselineCv = base.summary.coefficientOfVariation;
    out.candidateCv = cand.summary.coefficientOfVariation;

    // Every scenario gets its own deterministic bootstrap stream, so
    // adding or dropping scenarios never perturbs the others' CIs.
    rng::Xoshiro256 gen(tol.seed ^ fnv1a(base.name));
    out.speedup = stats::speedupOfMedians(base.sorted, cand.sorted,
                                          tol.level, tol.resamples, gen);

    double baseMedian = out.speedup.baselineMedian;
    double candMedian = out.speedup.candidateMedian;

    // A median degradation beyond tolerance only fails the gate when
    // the bootstrap interval *confirms* it (whole CI below 1): that is
    // the Speedup-Test discipline that keeps noisy dips from flagging.
    bool beyondTolerance = checkUpperBound(
        out.violations, base.name, "median", baseMedian, candMedian,
        baseMedian * tol.medianRatio + tol.medianSlack);
    if (beyondTolerance && out.speedup.ci.upper >= 1.0)
        out.violations.pop_back();

    // The KS gate is direction-aware and shares the median tolerance
    // currency: a large distributional shift is only a violation when
    // the candidate also got slower beyond ratio+slack, so shape
    // changes from improvements or tolerated drift never fail.
    if (beyondTolerance) {
        checkUpperBound(out.violations, base.name, "ks_distance",
                        0.0, out.ksDistance, tol.ksLimit);
    }

    // Reproducibility: the candidate's %CV must stay within the
    // absolute ceiling, relaxed for baselines that were already noisy
    // — so re-comparing a baseline against itself always passes.
    checkUpperBound(out.violations, base.name, "cv", out.baselineCv,
                    out.candidateCv,
                    std::max(tol.cvLimit, out.baselineCv * tol.cvRatio));
    return out;
}

json::Value
shiftToJson(const QuantileShift &shift)
{
    json::Value doc = json::Value::makeObject();
    doc.set("p", shift.p);
    doc.set("baseline", shift.baseline);
    doc.set("candidate", shift.candidate);
    doc.set("ratio", shift.ratio);
    return doc;
}

json::Value
violationToJson(const Violation &violation)
{
    json::Value doc = json::Value::makeObject();
    doc.set("where", violation.where);
    doc.set("what", violation.what);
    doc.set("baseline", violation.baseline);
    doc.set("current", violation.current);
    doc.set("limit", violation.limit);
    return doc;
}

} // anonymous namespace

bool
CompareReport::pass() const
{
    if (!missing.empty())
        return false;
    for (const ScenarioComparison &scenario : scenarios) {
        if (!scenario.pass())
            return false;
    }
    return true;
}

json::Value
CompareReport::toJson() const
{
    json::Value doc = json::Value::makeObject();
    doc.set("schema", kCompareReportSchema);
    doc.set("metric", metric);
    doc.set("pass", pass());
    doc.set("exit_code", exitCode());

    json::Value tol = json::Value::makeObject();
    tol.set("median_ratio", tolerances.medianRatio);
    tol.set("median_slack", tolerances.medianSlack);
    tol.set("ks_limit", tolerances.ksLimit);
    tol.set("cv_limit", tolerances.cvLimit);
    tol.set("cv_ratio", tolerances.cvRatio);
    tol.set("level", tolerances.level);
    tol.set("resamples", tolerances.resamples);
    tol.set("seed", std::to_string(tolerances.seed));
    doc.set("tolerances", std::move(tol));

    json::Value scenarioMap = json::Value::makeObject();
    for (const ScenarioComparison &scenario : scenarios) {
        json::Value entry = json::Value::makeObject();
        entry.set("pass", scenario.pass());
        entry.set("baseline_n", scenario.baselineCount);
        entry.set("candidate_n", scenario.candidateCount);
        entry.set("ks_distance", scenario.ksDistance);
        json::Value speedup = json::Value::makeObject();
        speedup.set("baseline_median", scenario.speedup.baselineMedian);
        speedup.set("candidate_median", scenario.speedup.candidateMedian);
        speedup.set("speedup", scenario.speedup.speedup);
        speedup.set("ci_lower", scenario.speedup.ci.lower);
        speedup.set("ci_upper", scenario.speedup.ci.upper);
        entry.set("speedup", std::move(speedup));
        entry.set("baseline_cv", scenario.baselineCv);
        entry.set("candidate_cv", scenario.candidateCv);
        json::Value shiftList = json::Value::makeArray();
        for (const QuantileShift &shift : scenario.shifts)
            shiftList.append(shiftToJson(shift));
        entry.set("quantile_shifts", std::move(shiftList));
        json::Value violationList = json::Value::makeArray();
        for (const Violation &violation : scenario.violations)
            violationList.append(violationToJson(violation));
        entry.set("violations", std::move(violationList));
        scenarioMap.set(scenario.name, std::move(entry));
    }
    doc.set("scenarios", std::move(scenarioMap));

    json::Value missingList = json::Value::makeArray();
    for (const std::string &name : missing)
        missingList.append(name);
    doc.set("missing", std::move(missingList));
    json::Value unbaselinedList = json::Value::makeArray();
    for (const std::string &name : unbaselined)
        unbaselinedList.append(name);
    doc.set("unbaselined", std::move(unbaselinedList));
    return doc;
}

std::string
CompareReport::renderText() const
{
    std::ostringstream out;
    out << "compare: metric " << metric << ", "
        << scenarios.size() << " scenario"
        << (scenarios.size() == 1 ? "" : "s") << "\n";
    for (const ScenarioComparison &s : scenarios) {
        out << "  " << (s.pass() ? "ok      " : "REGRESSED ") << s.name
            << ": median " << util::formatDouble(s.speedup.baselineMedian, 4)
            << " -> " << util::formatDouble(s.speedup.candidateMedian, 4)
            << " (speedup " << util::formatDouble(s.speedup.speedup, 3)
            << ", " << util::formatDouble(s.speedup.ci.level * 100.0, 0)
            << "% CI [" << util::formatDouble(s.speedup.ci.lower, 3)
            << ", " << util::formatDouble(s.speedup.ci.upper, 3)
            << "]), KS " << util::formatDouble(s.ksDistance, 3)
            << ", CV " << util::formatDouble(s.candidateCv, 3) << "\n";
        for (const Violation &violation : s.violations)
            out << "    violation " << violation.render() << "\n";
    }
    for (const std::string &name : missing)
        out << "  MISSING  " << name
            << ": in the baseline but not the candidate\n";
    for (const std::string &name : unbaselined)
        out << "  new      " << name
            << ": in the candidate but not the baseline (not gated)\n";
    out << (pass() ? "PASS" : "INVESTIGATE") << "\n";
    return out.str();
}

CompareReport
compareBundles(const BaselineBundle &baseline,
               const BaselineBundle &candidate,
               const CompareTolerances &tolerances)
{
    if (baseline.metric != candidate.metric) {
        throw std::invalid_argument(
            "cannot compare different metrics: baseline measures '" +
            baseline.metric + "', candidate measures '" +
            candidate.metric + "'");
    }

    CompareReport report;
    report.metric = baseline.metric;
    report.tolerances = tolerances;
    for (const ScenarioSamples &base : baseline.scenarios) {
        const ScenarioSamples *cand = candidate.find(base.name);
        if (!cand) {
            report.missing.push_back(base.name);
            continue;
        }
        report.scenarios.push_back(
            compareScenario(base, *cand, tolerances));
    }
    for (const ScenarioSamples &cand : candidate.scenarios) {
        if (!baseline.find(cand.name))
            report.unbaselined.push_back(cand.name);
    }
    return report;
}

void
checkCompareReport(const json::Value &doc, check::CheckResult &out)
{
    if (!doc.isObject()) {
        out.error("not-an-object",
                  "a compare report must be a JSON object");
        return;
    }
    const json::Value *schema = doc.find("schema");
    if (!schema || !schema->isString() ||
        schema->asString() != kCompareReportSchema) {
        out.error(schema ? *schema : doc, "schema",
                  "not a compare report",
                  std::string("expected \"") + kCompareReportSchema +
                      "\"");
        return;
    }

    check::checkKnownFields(doc,
                            {"schema", "metric", "pass", "exit_code",
                             "tolerances", "scenarios", "missing",
                             "unbaselined"},
                            "compare report", out);

    const json::Value *pass = doc.find("pass");
    const json::Value *exitCode = doc.find("exit_code");
    if (!pass || !pass->isBool())
        out.error("pass", "missing or non-boolean 'pass'");
    if (!exitCode || !exitCode->isNumber())
        out.error("exit-code", "missing or non-numeric 'exit_code'");
    if (pass && pass->isBool() && exitCode && exitCode->isNumber()) {
        double expected = pass->asBool() ? 0.0 : 1.0;
        if (exitCode->asNumber() != expected) {
            out.error(*exitCode, "exit-code",
                      "'exit_code' disagrees with 'pass'",
                      "a passing report exits 0, a failing one 1");
        }
    }

    const json::Value *scenarios = doc.find("scenarios");
    if (!scenarios || !scenarios->isObject()) {
        out.error("missing-scenarios", "missing 'scenarios' object");
        return;
    }
    for (const auto &[name, entry] : scenarios->members()) {
        const std::string where = "scenario '" + name + "'";
        if (!entry.isObject()) {
            out.error(entry, "scenario", where + " must be an object");
            continue;
        }
        if (const json::Value *ks = entry.find("ks_distance")) {
            if (!ks->isNumber() || ks->asNumber() < 0.0 ||
                ks->asNumber() > 1.0)
                out.error(*ks, "ks-range",
                          where + ": KS distance must be in [0, 1]");
        }
        if (const json::Value *speedup = entry.find("speedup")) {
            if (!speedup->isObject()) {
                out.error(*speedup, "speedup",
                          where + ": 'speedup' must be an object");
                continue;
            }
            if (const json::Value *point = speedup->find("speedup")) {
                if (!point->isNumber() || !(point->asNumber() > 0.0))
                    out.error(*point, "speedup",
                              where + ": speedup must be positive");
            }
            const json::Value *lower = speedup->find("ci_lower");
            const json::Value *upper = speedup->find("ci_upper");
            if (lower && upper && lower->isNumber() &&
                upper->isNumber() &&
                lower->asNumber() > upper->asNumber()) {
                out.error(*lower, "ci-order",
                          where +
                              ": CI lower bound exceeds its upper bound");
            }
        }
    }
}

} // namespace compare
} // namespace sharp
