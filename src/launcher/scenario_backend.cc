#include "launcher/scenario_backend.hh"

#include <algorithm>
#include <stdexcept>

#include "record/csv.hh"
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

/** Column names that are structure, not metrics, in a tidy CSV. */
bool
isStructuralColumn(const std::string &name)
{
    static const std::vector<std::string> structural = {
        "run",     "instance", "attempt", "workload", "backend",
        "machine", "day",      "warmup",  "failure"};
    return std::find(structural.begin(), structural.end(), name) !=
           structural.end();
}

std::vector<record::RunRecord>
recordsFromCsv(const std::string &path)
{
    record::CsvTable table = record::CsvTable::load(path);
    for (const char *required :
         {"workload", "backend", "machine", "warmup", "failure"}) {
        if (!table.columnIndex(required)) {
            throw std::runtime_error("trace '" + path +
                                     "' lacks the tidy-CSV column '" +
                                     required + "'");
        }
    }
    std::vector<std::string> metricColumns;
    for (const auto &column : table.columns())
        if (!isStructuralColumn(column))
            metricColumns.push_back(column);

    std::vector<record::RunRecord> records;
    records.reserve(table.numRows());
    for (size_t i = 0; i < table.numRows(); ++i) {
        record::RunRecord rec;
        rec.workload = table.cell(i, *table.columnIndex("workload"));
        rec.backend = table.cell(i, *table.columnIndex("backend"));
        rec.machine = table.cell(i, *table.columnIndex("machine"));
        if (auto day = table.columnIndex("day")) {
            auto parsed = util::parseDouble(table.cell(i, *day));
            rec.day = parsed ? static_cast<int>(*parsed) : 0;
        }
        rec.warmup = table.cell(i, *table.columnIndex("warmup")) == "true";
        try {
            rec.failure = record::failureKindFromName(
                table.cell(i, *table.columnIndex("failure")));
        } catch (const std::invalid_argument &ex) {
            throw std::runtime_error("trace '" + path + "' row " +
                                     std::to_string(i + 1) + ": " +
                                     ex.what());
        }
        for (const auto &metric : metricColumns) {
            const std::string &cell = table.cell(i, *table.columnIndex(metric));
            if (cell.empty())
                continue;
            auto value = util::parseDouble(cell);
            if (!value) {
                throw std::runtime_error(
                    "trace '" + path + "' row " + std::to_string(i + 1) +
                    ": metric '" + metric + "' is not a number: " + cell);
            }
            rec.metrics[metric] = *value;
        }
        records.push_back(std::move(rec));
    }
    return records;
}

} // namespace

TraceData
loadTrace(const std::string &path, const std::string &metric)
{
    TraceData data;
    if (util::endsWith(path, ".jsonl"))
        data.records = record::readJournal(path).records;
    else
        data.records = recordsFromCsv(path);
    if (data.records.empty())
        throw std::runtime_error("trace '" + path + "' holds no rows");
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
        throw std::runtime_error("trace '" + path +
                                 "' has no measured sample with metric '" +
                                 metric + "'");
    }
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
