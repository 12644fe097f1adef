/**
 * @file
 * The campaign workload. Unit: one round.
 *
 * Seeded sim-backend campaigns over several Rodinia models, using the
 * four rules with a StatsCache fast path (ks, median-ci, ci,
 * tail-quantile) at thresholds no sample meets, so each campaign runs
 * to its cap and rule evaluation is almost all of the time. Each
 * campaign writes its tidy CSV and metadata the way `sharp run --out`
 * does, without a journal. Round latency is the gap between
 * consecutive LaunchOptions::roundObserver calls.
 */

#include <memory>

#include "common.hh"
#include "core/stats_cache.hh"
#include "core/stopping/stopping_rule.hh"
#include "json/writer.hh"
#include "launcher/launcher.hh"
#include "launcher/reproduce.hh"
#include "record/sysinfo.hh"
#include "report/report.hh"
#include "sim/machine.hh"
#include "util/fs.hh"
#include "util/thread_pool.hh"

namespace perfbench
{

using namespace sharp;

namespace
{

/** Times every backend call; forwards everything else. */
class TimedBackend : public launcher::Backend
{
  public:
    TimedBackend(std::shared_ptr<launcher::Backend> inner, Fold &calls,
                 int64_t &lastReturn)
        : inner(std::move(inner)), calls(calls), lastReturn(lastReturn)
    {
    }

    std::string name() const override { return inner->name(); }
    std::string workloadName() const override
    {
        return inner->workloadName();
    }
    launcher::RunResult run() override
    {
        int64_t start = nowNs();
        launcher::RunResult result = inner->run();
        returned(start);
        return result;
    }
    std::vector<launcher::RunResult> runBatch(size_t n) override
    {
        int64_t start = nowNs();
        std::vector<launcher::RunResult> results = inner->runBatch(n);
        returned(start);
        return results;
    }
    void setDay(int day) override { inner->setDay(day); }
    bool deterministic() const override { return inner->deterministic(); }

  private:
    void returned(int64_t start)
    {
        lastReturn = nowNs();
        calls.add(lastReturn - start);
    }

    std::shared_ptr<launcher::Backend> inner;
    Fold &calls;
    int64_t &lastReturn;
};

/**
 * Times every rule evaluation and keeps the series' engine counters
 * as of the last one (the launch report's series is a copy without
 * the cache, so the counters must be read while the rule holds it).
 */
class TimedRule : public core::StoppingRule
{
  public:
    TimedRule(std::unique_ptr<core::StoppingRule> inner, Fold &evals,
              core::StatsEngineCounters &counters)
        : inner(std::move(inner)), evals(evals), counters(counters)
    {
    }

    std::string name() const override { return inner->name(); }
    std::string describe() const override { return inner->describe(); }
    size_t minSamples() const override { return inner->minSamples(); }
    void reset() override { inner->reset(); }
    core::StopDecision evaluate(const core::SampleSeries &series) override
    {
        int64_t start = nowNs();
        core::StopDecision decision = inner->evaluate(series);
        evals.add(nowNs() - start);
        counters = series.stats().counters();
        return decision;
    }

  private:
    std::unique_ptr<core::StoppingRule> inner;
    Fold &evals;
    core::StatsEngineCounters &counters;
};

/** One rule's campaigns. */
struct RulePlan
{
    const char *rule;
    size_t cap;
    size_t quickCap;
};

/**
 * Caps sized so every campaign costs about the same, ~1 s on a 4-vCPU
 * x86 host. tail-quantile's CI search grows fastest with n (~5.5 s at
 * 10^4), so its cap sits below the others': a pass of many ~1 s units
 * lets util::parallelFor move work off a vCPU that a neighbour slows,
 * where one long unit would set the pass's makespan by itself.
 */
constexpr RulePlan kPlans[] = {
    {"ci", 30000, 4000},
    {"median-ci", 20000, 2000},
    {"ks", 15000, 2000},
    {"tail-quantile", 4000, 600},
};
constexpr size_t kCampaignsPerRule = 4;

/** Threshold no sample meets: every campaign runs to its cap. */
constexpr double kUnreachable = 1e-9;

/**
 * Each campaign slot keeps its Rodinia model and machine, so the seed
 * changes only the sample streams, not how much work a pass is.
 */
const char *const kWorkloads[] = {"hotspot", "srad",    "kmeans", "lud",
                                  "backprop", "needle", "lavaMD", "sc"};
const char *const kMachines[] = {"machine1", "machine2", "machine3"};

std::vector<json::Value>
campaignSpecs(uint64_t seed, bool quick)
{
    // Rule by rule, largest logs first: the first wave of workers runs
    // the same rule in step, so the pass's peak resident set is set by
    // one known overlap rather than by which campaigns happen to meet.
    std::vector<json::Value> specs;
    for (const RulePlan &plan : kPlans) {
        for (size_t k = 0; k < kCampaignsPerRule; ++k) {
            size_t i = specs.size();
            specs.push_back(simSpec(kWorkloads[i % std::size(kWorkloads)],
                                    kMachines[i % std::size(kMachines)],
                                    mix(seed * 1000 + i) % 1000000 + 1,
                                    plan.rule, "threshold", kUnreachable,
                                    quick ? plan.quickCap : plan.cap));
        }
    }
    return specs;
}

/** Close @p id on @p trace when tracing (a null trace is off). */
void
closeSpan(Trace *trace, int64_t id)
{
    if (trace)
        trace->close(id);
}

} // namespace

json::Value
simSpec(const std::string &workload, const std::string &machine,
        uint64_t seed, const std::string &rule, const std::string &param,
        double value, size_t cap)
{
    json::Value params = json::Value::makeObject();
    params.set(param, value);
    json::Value experiment = json::Value::makeObject();
    experiment.set("rule", rule);
    experiment.set("params", std::move(params));
    experiment.set("max", cap);
    json::Value machines = json::Value::makeArray();
    machines.append(machine);
    json::Value doc = json::Value::makeObject();
    doc.set("backend", "sim");
    doc.set("workload", workload);
    doc.set("machines", std::move(machines));
    doc.set("day", 0);
    doc.set("seed", static_cast<size_t>(seed));
    doc.set("concurrency", 1);
    doc.set("experiment", std::move(experiment));
    return doc;
}

CampaignResult
executeCampaign(const json::Value &doc, const std::string &base,
                const CampaignProbe &probe)
{
    launcher::ReproSpec spec = launcher::ReproSpec::fromJson(doc);
    launcher::LaunchOptions options = spec.launchOptions();
    Trace *trace = probe.trace && probe.trace->on() ? probe.trace : nullptr;

    Fold simCalls("sim.run"), ruleEvals("core.eval"), logged("record.log");
    core::StatsEngineCounters counters;
    int64_t lastReturn = 0;
    int64_t lastRound = -1;
    std::vector<float> *gaps = probe.roundGapsUs;
    options.roundObserver = [&](size_t) {
        int64_t now = nowNs();
        if (trace)
            logged.add(now - lastReturn);
        if (gaps && lastRound >= 0)
            gaps->push_back(static_cast<float>((now - lastRound) * 1e-3));
        lastRound = now;
    };

    std::shared_ptr<launcher::Backend> backend = launcher::makeBackend(spec);
    std::unique_ptr<core::StoppingRule> rule = spec.experiment.makeRule();
    if (trace) {
        backend = std::make_shared<TimedBackend>(backend, simCalls,
                                                 lastReturn);
        rule = std::make_unique<TimedRule>(std::move(rule), ruleEvals,
                                           counters);
    }

    int64_t campaign =
        trace ? trace->open("launcher.campaign", -1, probe.unit) : -1;
    launcher::Launcher launcher(backend, std::move(rule), options);
    launcher::LaunchReport report = launcher.launch();
    launcher::annotate(report.log, spec);
    if (spec.backendKind == "sim" || spec.backendKind == "sim-phased" ||
        spec.backendKind == "faas") {
        report.log.setSystemInfo(record::describeSimulatedMachine(
            sim::machineById(spec.machines.front())));
    }

    if (report.series.size() >= 2) {
        int64_t span = trace ? trace->open("report.analyze", campaign,
                                           probe.unit)
                             : -1;
        report::DistributionReport::analyze(spec.workload,
                                            report.series.values())
            .renderMarkdown();
        closeSpan(trace, span);
    }

    int64_t save =
        trace ? trace->open("record.save", campaign, probe.unit) : -1;
    report.log.save(base);
    closeSpan(trace, save);
    closeSpan(trace, campaign);

    if (trace) {
        for (Fold *fold : {&simCalls, &ruleEvals, &logged}) {
            fold->parent = campaign;
            fold->unit = probe.unit;
            trace->fold(std::move(*fold));
        }
        trace->tally("core.comparisons", counters.comparisons);
        trace->tally("core.pmf_evals", counters.pmfEvals);
    }
    return {report.rounds, report.failures, report.aborted};
}

void
campaignWorkload(Run &run)
{
    const Options &opt = run.opt;
    std::vector<json::Value> specs = campaignSpecs(opt.seed, opt.quick);
    std::string dir = opt.work + "/campaign";
    util::makeDirectories(dir);
    if (run.setupDone())
        return;

    size_t n = specs.size();
    auto base = [&](size_t i) { return dir + "/c" + std::to_string(i); };
    std::vector<std::vector<float>> gaps(n);
    std::vector<CampaignResult> results(n);
    std::vector<int64_t> unitNs(n);
    int64_t busyNs = 0;
    double busyWall = 0.0;
    double csvMb = 0.0;

    Run::PassTimes times = run.repeat([&](size_t, bool traced) {
        int64_t start = nowNs();
        util::parallelFor(opt.workers, n, [&](size_t i) {
            CampaignProbe probe{&run.trace, i,
                                traced ? nullptr : &gaps[i]};
            int64_t begin = nowNs();
            results[i] = executeCampaign(specs[i], base(i), probe);
            unitNs[i] = nowNs() - begin;
        });
        double wall = toSeconds(nowNs() - start);
        for (size_t i = 0; i < n; ++i) {
            run.attempted += results[i].rounds;
            run.failed += results[i].aborted ? results[i].rounds
                                             : results[i].failures;
            if (!traced)
                busyNs += unitNs[i];
            else
                csvMb += fileMb(base(i) + ".csv");
        }
        if (!traced)
            busyWall += wall;
    });
    double peakRss = peakRssMb();
    std::vector<double> latencyMs;
    for (const auto &campaign : gaps) {
        for (float us : campaign)
            latencyMs.push_back(us * 1e-3);
    }

    // Output check: byte-identical to `sharp run --config SPEC --out
    // BASE` (metadata minus its written_at wall-clock stamp).
    std::vector<std::string> mismatch(n);
    util::parallelFor(opt.workers, n, [&](size_t i) {
        std::string spec = base(i) + ".spec.json";
        std::string ref = base(i) + ".ref";
        json::writeFile(specs[i], spec);
        int rc = runProcess({opt.sharp, "run", "--config", spec, "--out", ref},
                            ref + ".log");
        std::string why;
        if (rc != 0)
            mismatch[i] = "sharp run exited " + std::to_string(rc) +
                          " for " + spec;
        else if (!sameBytes(base(i) + ".csv", ref + ".csv", why))
            mismatch[i] = why;
        else if (textWithout(base(i) + ".md", "- **written_at**") !=
                 textWithout(ref + ".md", "- **written_at**"))
            mismatch[i] = base(i) + ".md differs from " + ref + ".md";
    });
    for (const std::string &why : mismatch) {
        if (!why.empty())
            run.problem(why);
    }

    if (!opt.trace) {
        run.reportWall(times);
        run.metric("p50_ms", quantile(latencyMs, 0.50), "ms");
        run.metric("p90_ms", quantile(latencyMs, 0.90), "ms");
        run.metric("peak_rss_mb", peakRss, "MB");
        return;
    }
    Trace &trace = run.trace;
    run.reportWall(times);
    LogHistogram evals = trace.foldHistogram("core.eval");
    run.metric("core.evals", run.perPass(static_cast<double>(evals.count())),
               "count");
    run.metric("core.eval_s", run.perPass(trace.foldSeconds("core.eval")), "s");
    run.metric("core.eval_p50_us", evals.quantileNs(0.50) * 1e-3, "us");
    run.metric("core.eval_p99_us", evals.quantileNs(0.99) * 1e-3, "us");
    run.metric("core.comparisons",
               run.perPass(static_cast<double>(trace.tallied("core.comparisons"))),
               "count");
    run.metric("core.pmf_evals",
               run.perPass(static_cast<double>(trace.tallied("core.pmf_evals"))), "count");
    run.metric("sim.calls", run.perPass(static_cast<double>(trace.foldCount("sim.run"))),
               "count");
    run.metric("sim.busy_s", run.perPass(trace.foldSeconds("sim.run")), "s");
    run.metric("record.log_s", run.perPass(trace.foldSeconds("record.log")), "s");
    run.metric("record.save_s", run.perPass(trace.seconds("record.save")), "s");
    run.metric("record.csv_mb", run.perPass(csvMb), "MB");
    run.metric("report.analyze_s", run.perPass(trace.seconds("report.analyze")), "s");
    run.metric("launcher.rounds",
               run.perPass(static_cast<double>(trace.foldCount("record.log"))), "count");
    run.metric("launcher.self_s", run.perPass(trace.selfSeconds("launcher.campaign")),
               "s");
    run.metric("launcher.round_p99_ms", quantile(latencyMs, 0.99), "ms");
    run.metric("util.busy_share",
               toSeconds(busyNs) /
                   (static_cast<double>(opt.workers) * busyWall),
               "share");
    run.metric("trace.spans", static_cast<double>(trace.spanCount()),
               "count");
}

} // namespace perfbench
