#include "launcher/scenario_backend.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "check/diagnostic.hh"
#include "record/journal.hh"
#include "util/string_utils.hh"

namespace sharp
{
namespace launcher
{

namespace
{

/**
 * Mix the scenario's stream seed with the campaign seed: two SplitMix
 * rounds so nearby (scenario, run) pairs land in unrelated streams,
 * while any exact pair replays exactly.
 */
uint64_t
mixSeeds(uint64_t scenarioSeed, uint64_t runSeed)
{
    rng::SplitMix64 first(scenarioSeed);
    rng::SplitMix64 second(first.next() ^ runSeed);
    return second.next();
}

} // namespace

TraceData
walkTrace(const std::string &path, const std::string &metric,
          check::CheckResult &out)
{
    TraceData data;
    size_t errors = out.errorCount();
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        out.error("io-error", "cannot read trace '" + path + "'");
        return data;
    }
    if (util::endsWith(path, ".jsonl")) {
        std::ostringstream text;
        text << in.rdbuf();
        data.records = record::walkJournal(text.str(), out).records;
    } else {
        record::walkTidyCsv(in, out, check::Severity::Error,
                            [&](record::RunRecord &&rec) {
                                data.records.push_back(std::move(rec));
                            });
    }
    if (out.errorCount() > errors)
        return data;
    if (data.records.empty()) {
        out.error("empty-trace", "trace holds no rows");
        return data;
    }
    data.workload = data.records.front().workload;
    data.backend = data.records.front().backend;
    for (const auto &rec : data.records) {
        if (rec.warmup || rec.failure != record::FailureKind::None)
            continue;
        auto it = rec.metrics.find(metric);
        if (it != rec.metrics.end())
            data.samples.push_back(it->second);
    }
    if (data.samples.empty()) {
        out.error("empty-trace",
                  "trace has no measured sample with metric '" + metric +
                      "'");
    }
    return data;
}

TraceData
loadTrace(const std::string &path, const std::string &metric)
{
    check::CheckResult findings;
    findings.setArtifact(path);
    TraceData data = walkTrace(path, metric, findings);
    check::throwIfErrors(std::move(findings));
    return data;
}

ScenarioBackend::ScenarioBackend(sim::ScenarioSpec spec_in, uint64_t runSeed)
    : spec(std::move(spec_in)), sampler(spec.makeSampler()),
      gen(mixSeeds(spec.seed, runSeed))
{
}

RunResult
ScenarioBackend::run()
{
    RunResult res;
    res.metrics["execution_time"] = sampler->sample(gen);
    res.machineId = "scenario";
    return res;
}

TraceBackend::TraceBackend(sim::ScenarioSpec spec_in, uint64_t runSeed)
    : spec(std::move(spec_in)),
      data(loadTrace(spec.tracePath(), spec.trace.metric)),
      gen(mixSeeds(spec.seed, runSeed))
{
}

RunResult
TraceBackend::verbatimNext()
{
    const record::RunRecord &rec = data.records[cursor % data.records.size()];
    ++cursor;
    RunResult res;
    res.success = rec.failure == record::FailureKind::None;
    res.kind = rec.failure;
    if (!res.success)
        res.error = "replayed " + std::string(failureKindName(rec.failure));
    res.metrics = rec.metrics;
    res.machineId = rec.machine;
    return res;
}

RunResult
TraceBackend::resampledNext()
{
    size_t n = data.samples.size();
    size_t index;
    if (spec.trace.mode == sim::TraceMode::Bootstrap) {
        index = static_cast<size_t>(gen.nextBelow(n));
    } else {
        // Shuffled: walk a seeded permutation; reshuffle per pass.
        if (cursor % n == 0) {
            order.resize(n);
            for (size_t i = 0; i < n; ++i)
                order[i] = i;
            for (size_t i = n - 1; i > 0; --i)
                std::swap(order[i],
                          order[static_cast<size_t>(gen.nextBelow(i + 1))]);
        }
        index = order[cursor % n];
        ++cursor;
    }
    RunResult res;
    res.metrics[spec.trace.metric] = data.samples[index];
    res.machineId = "trace";
    return res;
}

RunResult
TraceBackend::run()
{
    if (spec.trace.mode == sim::TraceMode::Verbatim)
        return verbatimNext();
    return resampledNext();
}

std::unique_ptr<Backend>
makeScenarioBackend(const sim::ScenarioSpec &spec, uint64_t runSeed)
{
    if (spec.isTrace())
        return std::make_unique<TraceBackend>(spec, runSeed);
    return std::make_unique<ScenarioBackend>(spec, runSeed);
}

} // namespace launcher
} // namespace sharp
