/**
 * @file
 * The calibrate workload. Unit: one cell.
 *
 * The default `sharp calibrate` sweep (12 rules x 15 distributions x 9
 * seeds, max 800 samples) at jobs = nproc, checked against the
 * checked-in baseline. The sweep's own base seed stays 1: the
 * checked-in baseline gate holds for that sweep only (base seeds 2-8
 * give 19-28 violations), so the benchmark seed does not reach it.
 * Cell latency comes from CalibrationCell::wallSeconds.
 */

#include "calibrate/baseline.hh"
#include "calibrate/calibration.hh"
#include "common.hh"
#include "json/parser.hh"
#include "json/writer.hh"

namespace perfbench
{

using namespace sharp;

void
calibrateWorkload(Run &run)
{
    const Options &opt = run.opt;
    calibrate::CalibrationConfig config;
    config.jobs = opt.workers;
    config.resolveDefaults();
    json::Value baseline =
        json::parseFile(opt.root + "/tests/baselines/calibration.json");
    std::string base = opt.work + "/calibration";
    if (run.setupDone())
        return;

    const size_t cellsPerSweep = config.rules.size() *
                                 config.distributions.size() *
                                 config.seedsPerCell;
    std::vector<double> cellMs;
    std::map<std::string, double> ruleSeconds;
    size_t tracedCells = 0;
    double busySeconds = 0.0;
    double busyWall = 0.0;
    json::Value summary;
    std::string firstSummary;

    Run::PassTimes times = run.repeat([&](size_t pass, bool traced) {
        int64_t start = nowNs();
        int64_t sweep = run.trace.open("calibrate.sweep", -1, pass);
        calibrate::CalibrationResult result;
        try {
            result = calibrate::runCalibration(config);
        } catch (const std::exception &problem) {
            run.trace.close(sweep);
            run.attempted += cellsPerSweep;
            run.failed += cellsPerSweep;
            run.problem(std::string("sweep failed: ") + problem.what());
            return;
        }
        {
            Scope scope(run.trace, "calibrate.summary", sweep, pass);
            result.toCsv().save(base + ".csv");
            summary = result.summaryJson();
            json::writeFile(summary, base + ".json");
        }
        run.trace.close(sweep);
        double wall = toSeconds(nowNs() - start);

        run.attempted += result.cells.size();
        double cellSum = 0.0;
        for (const calibrate::CalibrationCell &cell : result.cells) {
            cellSum += cell.wallSeconds;
            if (traced)
                ruleSeconds[cell.rule] += cell.wallSeconds;
            else
                cellMs.push_back(cell.wallSeconds * 1e3);
        }
        if (traced) {
            tracedCells += result.cells.size();
        } else {
            busySeconds += cellSum;
            busyWall += wall;
        }
        std::string text = json::write(summary);
        if (firstSummary.empty())
            firstSummary = text;
        else if (text != firstSummary)
            run.problem("calibration summary of pass " +
                        std::to_string(pass) + " differs from pass 0");
    });
    double peakRss = peakRssMb();

    // Output check: the summary passes the checked-in calibration gate.
    if (summary.isNull()) {
        run.problem("no sweep completed");
    } else {
        calibrate::GateReport gate =
            calibrate::compareToBaseline(baseline, summary);
        if (!gate.pass || !gate.violations.empty())
            run.problem("calibration gate: " + gate.render());
    }

    run.reportWall(times);
    if (!opt.trace) {
        run.metric("p50_ms", quantile(cellMs, 0.50), "ms");
        run.metric("p90_ms", quantile(cellMs, 0.90), "ms");
        run.metric("peak_rss_mb", peakRss, "MB");
        return;
    }
    run.metric("calibrate.cells", run.perPass(static_cast<double>(tracedCells)),
               "count");
    run.metric("calibrate.summary_s",
               run.perPass(run.trace.seconds("calibrate.summary")), "s");
    run.metric("calibrate.cell_p99_ms", quantile(cellMs, 0.99), "ms");
    for (const auto &[rule, seconds] : ruleSeconds)
        run.metric("calibrate.rule_s." + rule, run.perPass(seconds), "s");
    run.metric("util.busy_share",
               busySeconds / (static_cast<double>(opt.workers) * busyWall),
               "share");
    run.metric("trace.spans", static_cast<double>(run.trace.spanCount()),
               "count");
}

} // namespace perfbench
