/**
 * @file
 * The benchmark driver: one process per workload run.
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *                    [--quick] [--setup-only] [--launch-ns T]
 *                    --root DIR --work DIR --sharp PATH [--trace-file PATH]
 *
 * Prints a context line (host load, steal, reference loop; reported,
 * never gated) and, last, one JSON object with correct, attempted,
 * failed and metrics. perfbench/run.py builds this binary, repeats
 * set-up, and reduces the output to the metrics BENCHMARK.json names.
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "common.hh"
#include "json/writer.hh"
#include "util/fs.hh"

using namespace perfbench;

namespace
{

int
usage(const std::string &why)
{
    std::cerr << "perfbench_driver: " << why << "\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    opt.launchNs = nowNs();
    opt.workers = onlineCpus();
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--quick") {
            opt.quick = true;
            continue;
        }
        if (flag == "--setup-only") {
            opt.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage(flag + " needs a value");
        std::string value = argv[++i];
        try {
            if (flag == "--workload")
                opt.workload = value;
            else if (flag == "--seed")
                opt.seed = std::stoull(value);
            else if (flag == "--seconds")
                opt.seconds = std::stod(value);
            else if (flag == "--trace")
                opt.trace = value == "1";
            else if (flag == "--launch-ns")
                opt.launchNs = std::stoll(value);
            else if (flag == "--root")
                opt.root = value;
            else if (flag == "--work")
                opt.work = value;
            else if (flag == "--sharp")
                opt.sharp = value;
            else if (flag == "--trace-file")
                opt.traceFile = value;
            else
                return usage("unknown flag " + flag);
        } catch (const std::exception &) {
            return usage("bad value for " + flag);
        }
    }
    void (*workload)(Run &) = nullptr;
    if (opt.workload == "campaign")
        workload = campaignWorkload;
    else if (opt.workload == "calibrate")
        workload = calibrateWorkload;
    else if (opt.workload == "gate")
        workload = gateWorkload;
    else if (opt.workload == "serve")
        workload = serveWorkload;
    else
        return usage("unknown workload '" + opt.workload + "'");
    if (opt.work.empty() || opt.sharp.empty())
        return usage("--work and --sharp are required");

    Trace trace(opt.trace);
    Run run(opt, trace);
    try {
        sharp::util::makeDirectories(opt.work);
        workload(run);
    } catch (const std::exception &problem) {
        std::cerr << "perfbench: " << opt.workload
                  << " failed: " << problem.what() << "\n";
        return 1;
    }

    if (!opt.setupOnly) {
        json::Value context = json::Value::makeObject();
        context.set("workload", opt.workload);
        context.set("seed", std::to_string(opt.seed));
        context.set("seconds", opt.seconds);
        context.set("trace", opt.trace);
        context.set("quick", opt.quick);
        context.set("workers", opt.workers);
        context.set("host_before", run.hostBefore);
        context.set("host_after", hostSnapshot());
        context.set("reference_loop_before_s", run.referenceBefore);
        context.set("reference_loop_after_s", referenceLoopSeconds());
        context.set("fsync_append_before_us", run.fsyncBeforeUs);
        context.set("fsync_append_after_us",
                    median(fsyncAppendsUs(opt.work, 200)));
        json::Value line = json::Value::makeObject();
        line.set("context", context);
        std::cout << json::write(line) << "\n";
        if (opt.trace && !opt.traceFile.empty())
            trace.write(opt.traceFile, context);
    }

    json::Value metrics = json::Value::makeObject();
    for (const auto &[name, entry] : run.metrics) {
        json::Value metric = json::Value::makeObject();
        metric.set("value", entry.first);
        metric.set("unit", entry.second);
        metrics.set(name, std::move(metric));
    }
    json::Value result = json::Value::makeObject();
    result.set("correct", run.correct);
    result.set("attempted", static_cast<size_t>(run.attempted));
    result.set("failed", static_cast<size_t>(run.failed));
    result.set("metrics", std::move(metrics));
    std::cout << json::write(result) << std::endl;
    return 0;
}
