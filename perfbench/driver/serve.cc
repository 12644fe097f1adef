/**
 * @file
 * The serve workload. Unit: one campaign.
 *
 * Starts `sharp serve --shards 2` on a fresh state directory on disk
 * and submits seeded journaled sim campaigns of 10^2-10^3 rounds in an
 * open loop at one fixed rate, about 40% of the 2-shard capacity
 * measured at the parent commit. A campaign's latency runs from its
 * due time to the first `status` poll (every ~2 ms, over one
 * persistent connection) that reports it done; `client wait` sleeps
 * 200 ms between polls, so it is not used.
 */

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "check/campaign.hh"
#include "check/diagnostic.hh"
#include "common.hh"
#include "json/parser.hh"
#include "json/writer.hh"
#include "serve/client.hh"
#include "util/fs.hh"
#include "util/socket.hh"
#include "util/thread_pool.hh"

namespace perfbench
{

using namespace sharp;

namespace
{

/**
 * Submissions per second: about 40% of the 2-shard capacity measured
 * at the parent commit (bursts of 100 campaigns finished at 81-84/s;
 * see perfbench/README.md), so the queue stays short and latency
 * reflects the daemon, not a growing backlog.
 */
constexpr double kRate = 32.0;
constexpr size_t kShards = 2;
/**
 * Rounds per campaign, the low end of 10^2-10^3: every round is one
 * fsync'd journal append, and shorter campaigns leave each latency
 * less exposed to a stall of the shared disk.
 */
constexpr size_t kMinRounds = 100;
constexpr size_t kMaxRounds = 200;
/** Status poll period. */
constexpr auto kPollPeriod = std::chrono::milliseconds(2);

const char *const kWorkloads[] = {"backprop", "bfs",    "heartwall",
                                  "hotspot",  "srad",   "needle",
                                  "kmeans",   "lavaMD", "lud", "sc"};
const char *const kMachines[] = {"machine1", "machine2", "machine3"};

/** The daemon process, drained (or killed) on destruction. */
class Daemon
{
  public:
    Daemon(const std::string &sharp, const std::string &socket,
           const std::string &stateDir, const std::string &log)
        : socket(socket)
    {
        std::vector<std::string> argv = {
            sharp,        "serve",        "--socket",
            socket,       "--state-dir",  stateDir,
            "--shards",   std::to_string(kShards),
            "--max-queued", "1000000"};
        pid = ::fork();
        if (pid < 0)
            throw std::runtime_error("fork failed");
        if (pid == 0) {
            // The daemon must not outlive the driver, however it ends.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
            if (fd >= 0) {
                ::dup2(fd, 1);
                ::dup2(fd, 2);
            }
            std::vector<char *> args;
            for (auto &arg : argv)
                args.push_back(arg.data());
            args.push_back(nullptr);
            ::execv(args[0], args.data());
            ::_exit(127);
        }
    }
    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Wait until the daemon answers ping. */
    void waitReady()
    {
        json::Value ping = json::Value::makeObject();
        ping.set("op", "ping");
        for (int attempt = 0; attempt < 30000; ++attempt) {
            try {
                if (serve::clientRequest(socket, ping).getBool("ok", false))
                    return;
            } catch (const std::exception &) {
            }
            int status = 0;
            if (::waitpid(pid, &status, WNOHANG) == pid) {
                pid = -1;
                throw std::runtime_error("sharp serve exited at start-up");
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        throw std::runtime_error("sharp serve did not answer ping");
    }

    /** Drain and reap; returns the exit status (-1 when killed). */
    int stop()
    {
        if (pid <= 0)
            return exitStatus;
        json::Value drain = json::Value::makeObject();
        drain.set("op", "drain");
        try {
            serve::clientRequest(socket, drain);
        } catch (const std::exception &) {
        }
        int status = 0;
        for (int waited = 0; waited < 30000; ++waited) {
            if (::waitpid(pid, &status, WNOHANG) == pid) {
                pid = -1;
                exitStatus = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
                return exitStatus;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        pid = -1;
        return exitStatus;
    }

    pid_t pid = -1;

  private:
    std::string socket;
    int exitStatus = -1;
};

/** Everything observed about one submission. */
struct Slot
{
    json::Value spec;
    int64_t due = 0;
    int64_t sent = 0;
    int64_t acked = 0;
    int64_t runningSeen = 0;
    int64_t doneSeen = 0;
    std::string id;
    std::string state;
    bool rejected = false;
    double failovers = 0;
};

} // namespace

void
serveWorkload(Run &run)
{
    const Options &opt = run.opt;
    size_t count = opt.quick ? 8
                             : std::max<size_t>(
                                   1, static_cast<size_t>(kRate * opt.seconds));

    // Seeded inputs. Round counts are spread evenly over [min, max]
    // and shuffled, so every seed submits the same mix of sizes.
    std::vector<Slot> slots(count);
    for (size_t i = 0; i < count; ++i) {
        uint64_t x = mix(opt.seed * 104729 + i);
        size_t rounds =
            count == 1 ? kMinRounds
                       : kMinRounds + (kMaxRounds - kMinRounds) * i / (count - 1);
        slots[i].spec = simSpec(kWorkloads[x % std::size(kWorkloads)],
                                kMachines[(x >> 8) % std::size(kMachines)],
                                (x >> 16) % 1000000 + 1, "fixed", "count",
                                static_cast<double>(rounds), rounds);
    }
    uint64_t shuffle = mix(opt.seed);
    for (size_t i = count; i > 1; --i) {
        shuffle = mix(shuffle);
        std::swap(slots[i - 1].spec, slots[shuffle % i].spec);
    }

    std::string stateDir = opt.work + "/state";
    std::string socket = opt.work + "/serve.sock";
    removeTree(stateDir);
    Daemon daemon(opt.sharp, socket, stateDir, opt.work + "/daemon.log");
    daemon.waitReady();
    if (run.setupDone())
        return;
    run.beginMeasured();

    std::mutex mutex;
    std::condition_variable changed;
    int64_t start = nowNs() + 20000000; // first submission 20 ms out
    for (size_t i = 0; i < count; ++i) {
        slots[i].due =
            start + static_cast<int64_t>(static_cast<double>(i) / kRate * 1e9);
    }

    // Open-loop generator: each submission goes out at its due time
    // whatever happened to earlier ones. A jthread, so a throwing
    // poller below still joins it before the slots go away.
    std::jthread generator([&] {
        for (size_t i = 0; i < count; ++i) {
            Slot &slot = slots[i];
            int64_t wait = slot.due - nowNs();
            if (wait > 0)
                std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
            json::Value request = json::Value::makeObject();
            request.set("op", "submit");
            request.set("tenant", "perfbench");
            request.set("spec", slot.spec);
            int64_t sent = nowNs();
            json::Value response;
            try {
                response = serve::clientRequest(socket, request);
            } catch (const std::exception &) {
            }
            int64_t acked = nowNs();
            std::lock_guard<std::mutex> lock(mutex);
            slot.sent = sent;
            slot.acked = acked;
            if (response.isObject() && response.getBool("ok", false))
                slot.id = response.getString("id", "");
            else
                slot.rejected = true;
            changed.notify_all();
        }
    });

    // Poller: one persistent connection, a status request per
    // outstanding campaign every kPollPeriod.
    int fd = -1;
    std::string buffer;
    size_t finished = 0;
    int64_t deadline =
        start + static_cast<int64_t>((opt.seconds + 120.0) * 1e9);
    while (true) {
        std::vector<size_t> outstanding;
        {
            std::unique_lock<std::mutex> lock(mutex);
            finished = 0;
            for (size_t i = 0; i < count; ++i) {
                Slot &slot = slots[i];
                if (slot.rejected || slot.doneSeen)
                    ++finished;
                else if (!slot.id.empty())
                    outstanding.push_back(i);
            }
            if (finished == count)
                break;
            if (outstanding.empty()) {
                changed.wait_for(lock, kPollPeriod);
                continue;
            }
        }
        if (nowNs() > deadline)
            break;
        int64_t tick = nowNs();
        if (fd < 0)
            fd = util::connectUnixSocket(socket);
        for (size_t i : outstanding) {
            json::Value request = json::Value::makeObject();
            request.set("op", "status");
            request.set("id", slots[i].id);
            std::string line;
            if (!util::sendLine(fd, json::write(request)) ||
                !util::recvLine(fd, buffer, line)) {
                util::closeQuietly(fd);
                fd = -1;
                buffer.clear();
                break;
            }
            int64_t seen = nowNs();
            json::Value response = json::parse(line);
            const json::Value *campaign = response.find("campaign");
            if (!campaign)
                continue;
            std::string state = campaign->getString("state", "");
            std::lock_guard<std::mutex> lock(mutex);
            Slot &slot = slots[i];
            slot.state = state;
            slot.failovers = campaign->getNumber("failovers", 0.0);
            if (state != "queued" && slot.runningSeen == 0)
                slot.runningSeen = seen;
            if (state == "done" || state == "failed" || state == "cancelled")
                slot.doneSeen = seen;
        }
        int64_t rest = tick +
                       std::chrono::nanoseconds(kPollPeriod).count() - nowNs();
        if (rest > 0)
            std::this_thread::sleep_for(std::chrono::nanoseconds(rest));
    }
    util::closeQuietly(fd);
    generator.join();
    double peakRss = peakRssMb(daemon.pid);

    // record.append_*: one fsync'd journal line on the state dir's
    // filesystem, timed outside the schedule.
    std::vector<double> appendUs;
    if (opt.trace)
        appendUs = fsyncAppendsUs(opt.work, 400);
    int daemonExit = daemon.stop();
    if (daemonExit != 130)
        run.problem("sharp serve drained with exit " +
                    std::to_string(daemonExit) + " (expected 130)");

    std::vector<double> latencyMs, submitMs, queueMs, runMs, lateMs;
    int64_t lastDone = start;
    double busyNs = 0.0;
    size_t rejected = 0;
    double failovers = 0;
    for (size_t i = 0; i < count; ++i) {
        const Slot &slot = slots[i];
        ++run.attempted;
        lateMs.push_back(toSeconds(slot.sent - slot.due) * 1e3);
        submitMs.push_back(toSeconds(slot.acked - slot.sent) * 1e3);
        failovers += slot.failovers;
        if (slot.rejected) {
            ++rejected;
            ++run.failed;
            continue;
        }
        if (slot.state != "done") {
            ++run.failed;
            continue;
        }
        latencyMs.push_back(toSeconds(slot.doneSeen - slot.due) * 1e3);
        queueMs.push_back(toSeconds(slot.runningSeen - slot.acked) * 1e3);
        runMs.push_back(toSeconds(slot.doneSeen - slot.runningSeen) * 1e3);
        busyNs += static_cast<double>(slot.doneSeen - slot.runningSeen);
        lastDone = std::max(lastDone, slot.doneSeen);
        // The traced half of a traced run: lifecycle spans.
        if (opt.trace && i >= count / 2) {
            int64_t root =
                run.trace.add("serve.campaign", slot.due, slot.doneSeen, -1, i);
            run.trace.add("serve.submit", slot.sent, slot.acked, root, i);
            run.trace.add("serve.queued", slot.acked, slot.runningSeen, root, i);
            run.trace.add("serve.running", slot.runningSeen, slot.doneSeen,
                          root, i);
        }
    }
    double wall = toSeconds(lastDone - start);

    // Output checks: every campaign's result CSV is byte-identical to
    // an in-process run of its spec, and the state dir audits clean.
    std::vector<std::string> mismatch(count);
    util::parallelFor(opt.workers, count, [&](size_t i) {
        const Slot &slot = slots[i];
        if (slot.id.empty() || slot.state != "done")
            return;
        std::string ref = opt.work + "/ref" + std::to_string(i);
        executeCampaign(slot.spec, ref);
        std::string why;
        if (!sameBytes(stateDir + "/campaigns/" + slot.id + "/result.csv",
                       ref + ".csv", why))
            mismatch[i] = why;
    });
    for (const std::string &why : mismatch) {
        if (!why.empty())
            run.problem(why);
    }
    check::CheckResult audit;
    check::checkCampaignDir(stateDir, audit);
    if (audit.errorCount() + audit.warningCount() > 0)
        run.problem("sharp check --campaign: " + audit.renderText());
    if (run.failed > 0)
        run.problem(std::to_string(run.failed) + " of " +
                    std::to_string(count) + " campaigns were rejected or "
                    "did not finish");

    if (!opt.trace) {
        run.metric("wall_s", wall, "s");
        run.metric("p50_ms", quantile(latencyMs, 0.50), "ms");
        run.metric("p90_ms", quantile(latencyMs, 0.90), "ms");
        run.metric("peak_rss_mb", peakRss, "MB");
        return;
    }
    // Tracing here is client-side spans only; its overhead is read as
    // the p50 latency of the traced half minus that of the untraced one.
    std::vector<double> firstHalf, secondHalf;
    for (size_t i = 0; i < count; ++i) {
        const Slot &slot = slots[i];
        if (slot.state == "done")
            (i < count / 2 ? firstHalf : secondHalf)
                .push_back(toSeconds(slot.doneSeen - slot.due));
    }
    run.metric("trace.overhead_s", median(secondHalf) - median(firstHalf),
               "s");
    run.metric("trace.spans", static_cast<double>(run.trace.spanCount()),
               "count");
    run.metric("serve.submit_p50_ms", quantile(submitMs, 0.50), "ms");
    run.metric("serve.submit_p99_ms", quantile(submitMs, 0.99), "ms");
    run.metric("serve.queue_wait_p50_ms", quantile(queueMs, 0.50), "ms");
    run.metric("serve.run_p50_ms", quantile(runMs, 0.50), "ms");
    run.metric("serve.gen_late_p99_ms", quantile(lateMs, 0.99), "ms");
    run.metric("serve.rejected", static_cast<double>(rejected), "count");
    run.metric("serve.failovers", failovers, "count");
    run.metric("serve.campaigns", static_cast<double>(count), "count");
    run.metric("record.append_p50_us", quantile(appendUs, 0.50), "us");
    run.metric("record.append_p99_us", quantile(appendUs, 0.99), "us");
    run.metric("util.busy_share",
               busyNs * 1e-9 / (static_cast<double>(kShards) * wall), "share");
}

} // namespace perfbench
