/**
 * @file
 * End-to-end supervision tests for `sharp serve`: a real daemon over
 * a real unix socket, with real forked worker shards. Campaigns are
 * submitted through the client library and the tests then do their
 * worst — SIGKILL a shard mid-round, hang a worker past the watchdog
 * deadline, SIGTERM the daemon mid-drain, SIGKILL it mid-failover —
 * and assert the one invariant the whole subsystem exists for: the
 * final tidy CSV is byte-identical to an undisturbed `sharp run` of
 * the same spec.
 *
 * Lives in its own `serve` label: multi-second wall-clock campaigns,
 * watchdog deadlines, and process trees are meaningless under
 * sanitizer slowdowns.
 */

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "check/analyzer.hh"
#include "check/campaign.hh"
#include "check/diagnostic.hh"
#include "cli/cli.hh"
#include "json/parser.hh"
#include "json/writer.hh"
#include "serve/client.hh"
#include "serve/daemon.hh"
#include "serve/protocol.hh"
#include "serve/queue.hh"
#include "serve/state.hh"
#include "util/fs.hh"

namespace
{

namespace fs = std::filesystem;
using namespace sharp;
using namespace std::chrono_literals;

struct Harness
{
    fs::path dir;
    serve::ServeOptions options;
    pid_t daemonPid = -1;

    std::string socketPath() const { return options.socketPath; }
    std::string stateDir() const { return options.stateDir; }
};

Harness
makeHarness(const std::string &tag)
{
    Harness harness;
    harness.dir = fs::temp_directory_path() /
                  ("sharp_serve_" + tag + "_" +
                   std::to_string(::getpid()));
    fs::remove_all(harness.dir);
    fs::create_directories(harness.dir);
    harness.options.stateDir = (harness.dir / "state").string();
    // Unix socket paths are length-limited; /tmp keeps them short.
    harness.options.socketPath =
        "/tmp/sharp_" + tag + "_" + std::to_string(::getpid()) +
        ".sock";
    harness.options.shards = 2;
    harness.options.roundDeadlineSeconds = 10.0;
    harness.options.pollMillis = 20;
    return harness;
}

/** Fork the daemon; its log goes to <dir>/daemon.log for forensics. */
void
spawnDaemon(Harness &harness)
{
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
        std::ofstream log(harness.dir /
                          ("daemon." + std::to_string(::getpid()) +
                           ".log"));
        std::_Exit(serve::runDaemon(harness.options, log, log));
    }
    harness.daemonPid = pid;
}

json::Value
request(const Harness &harness, const json::Value &doc)
{
    return serve::clientRequest(harness.socketPath(), doc);
}

/** Wait until the daemon answers a ping (it just started). */
void
waitForDaemon(const Harness &harness, double timeoutSeconds = 10.0)
{
    json::Value ping = json::Value::makeObject();
    ping.set("op", "ping");
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::duration<double>(timeoutSeconds);
    for (;;) {
        try {
            if (request(harness, ping).getBool("ok", false))
                return;
        } catch (const std::exception &) {
        }
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "daemon never came up on " << harness.socketPath();
        std::this_thread::sleep_for(50ms);
    }
}

/**
 * A deterministic sim campaign. @p stallSeconds > 0 adds the
 * hang-then-recover band: every invocation sleeps ~stallSeconds (the
 * metrics stay byte-exact), which is how tests make rounds slow
 * enough to kill mid-flight — or slow enough to trip the watchdog.
 */
json::Value
simSpec(int count, double stallSeconds = 0.0)
{
    std::ostringstream doc;
    doc << R"({"backend":"sim","workload":"bfs",)"
        << R"("machines":["machine1"],"seed":11,)"
        << R"("experiment":{"rule":"fixed","params":{"count":)"
        << count << R"(},"max":1000})";
    if (stallSeconds > 0.0) {
        doc << R"(,"fault":{"hang_recover":1.0,)"
            << R"("hang_recover_seconds":)" << stallSeconds
            << R"(,"seed":4242})";
    }
    doc << "}";
    return json::parse(doc.str());
}

std::string
submit(const Harness &harness, const json::Value &spec,
       const std::string &tenant = "default")
{
    json::Value doc = json::Value::makeObject();
    doc.set("op", "submit");
    doc.set("tenant", tenant);
    doc.set("spec", spec);
    json::Value response = request(harness, doc);
    EXPECT_TRUE(response.getBool("ok", false))
        << json::write(response);
    return response.getString("id", "");
}

json::Value
statusOf(const Harness &harness, const std::string &id)
{
    json::Value doc = json::Value::makeObject();
    doc.set("op", "status");
    doc.set("id", id);
    return request(harness, doc);
}

/** Poll until campaign @p id is running and return its worker pid. */
pid_t
waitForWorkerPid(const Harness &harness, const std::string &id,
                 double timeoutSeconds = 20.0)
{
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::duration<double>(timeoutSeconds);
    for (;;) {
        json::Value response = statusOf(harness, id);
        const json::Value *campaign = response.find("campaign");
        if (campaign) {
            long pid = campaign->getLong("pid", 0);
            if (campaign->getString("state", "") == "running" &&
                pid > 0)
                return static_cast<pid_t>(pid);
        }
        if (std::chrono::steady_clock::now() >= deadline)
            return -1;
        std::this_thread::sleep_for(20ms);
    }
}

/** Reap the daemon and return its exit code (-1 on signal death). */
int
reapDaemon(Harness &harness)
{
    int status = 0;
    if (::waitpid(harness.daemonPid, &status, 0) != harness.daemonPid)
        return -2;
    harness.daemonPid = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/** An undisturbed in-process `sharp run` of @p spec, for reference. */
std::string
referenceCsv(const Harness &harness, const json::Value &spec)
{
    std::string config = (harness.dir / "reference.json").string();
    std::string base = (harness.dir / "reference").string();
    {
        std::ofstream out(config);
        out << json::writePretty(spec);
    }
    std::ostringstream sink;
    int code = cli::runCli(
        {"run", "--config", config, "--out", base}, sink, sink);
    EXPECT_EQ(code, 0) << sink.str();
    return util::readFileText(base + ".csv");
}

/** Metadata text minus its wall-clock `written_at` stamp. */
std::string
metadataWithoutClock(const std::string &path)
{
    std::istringstream in(util::readFileText(path));
    std::string line, kept;
    while (std::getline(in, line)) {
        if (line.find("**written_at**") == std::string::npos)
            kept += line + "\n";
    }
    return kept;
}

std::string
campaignCsv(const Harness &harness, const std::string &id)
{
    return util::readFileText(harness.stateDir() + "/campaigns/" + id +
                              "/result.csv");
}

/** `sharp check` over the daemon's own artifacts must stay clean. */
void
expectCleanArtifacts(const Harness &harness)
{
    check::CheckResult queue;
    EXPECT_EQ(check::checkArtifactFile(
                  harness.stateDir() + "/queue.jsonl", queue),
              check::ArtifactKind::QueueJournal);
    EXPECT_EQ(queue.errorCount(), 0u) << queue.renderText();

    check::CheckResult state;
    EXPECT_EQ(check::checkArtifactFile(
                  harness.stateDir() + "/daemon.json", state),
              check::ArtifactKind::DaemonState);
    EXPECT_EQ(state.errorCount(), 0u) << state.renderText();

    // And the cross-artifact audit over the whole state dir: a live
    // daemon's campaign tree must satisfy every campaign invariant.
    check::CheckResult audit;
    check::checkCampaignDir(harness.stateDir(), audit);
    EXPECT_EQ(audit.errorCount(), 0u) << audit.renderText();
    EXPECT_EQ(audit.warningCount(), 0u) << audit.renderText();
}

void
cleanup(Harness &harness)
{
    if (harness.daemonPid > 0) {
        ::kill(harness.daemonPid, SIGKILL);
        ::waitpid(harness.daemonPid, nullptr, 0);
    }
    fs::remove_all(harness.dir);
    fs::remove(harness.socketPath());
}

TEST(ServeDaemon, SubmitRunsToCompletionMatchingSharpRun)
{
    Harness harness = makeHarness("basic");
    spawnDaemon(harness);
    waitForDaemon(harness);

    json::Value spec = simSpec(30);
    std::string id = submit(harness, spec);
    ASSERT_FALSE(id.empty());

    json::Value final = serve::waitForCampaign(harness.socketPath(),
                                               id, 60.0);
    ASSERT_TRUE(final.getBool("ok", false)) << json::write(final);
    ASSERT_EQ(final.find("campaign")->getString("state", ""), "done");

    // The results op hands back the CSV inline and by path.
    json::Value doc = json::Value::makeObject();
    doc.set("op", "results");
    doc.set("id", id);
    json::Value results = request(harness, doc);
    ASSERT_TRUE(results.getBool("ok", false)) << json::write(results);
    std::string csv = results.getString("csv", "");
    ASSERT_FALSE(csv.empty());
    EXPECT_EQ(csv,
              util::readFileText(results.getString("csv_path", "")));

    // A daemon-run campaign is the same campaign `sharp run` runs,
    // down to its metadata apart from the wall-clock stamp.
    EXPECT_EQ(csv, referenceCsv(harness, spec));
    EXPECT_EQ(metadataWithoutClock(harness.stateDir() + "/campaigns/" +
                                   id + "/result.md"),
              metadataWithoutClock((harness.dir / "reference.md").string()));

    expectCleanArtifacts(harness);

    // SIGTERM with nothing running: drain immediately, exit 130,
    // leave a drained state file behind.
    ASSERT_EQ(::kill(harness.daemonPid, SIGTERM), 0);
    EXPECT_EQ(reapDaemon(harness), 130);
    auto state = serve::DaemonState::fromJson(
        json::parseFile(harness.stateDir() + "/daemon.json"));
    EXPECT_TRUE(state.drained);
    cleanup(harness);
}

TEST(ServeDaemon, ShardSigkillFailsOverByteIdentically)
{
    Harness harness = makeHarness("failover");
    spawnDaemon(harness);
    waitForDaemon(harness);

    // ~0.06s stall per round: slow enough to kill mid-campaign,
    // fast enough to finish in seconds.
    json::Value spec = simSpec(40, 0.06);
    std::string id = submit(harness, spec);
    pid_t worker = waitForWorkerPid(harness, id);
    ASSERT_GT(worker, 0);

    // Let it journal some rounds, then murder the shard outright.
    std::this_thread::sleep_for(800ms);
    ASSERT_EQ(::kill(worker, SIGKILL), 0);

    json::Value final = serve::waitForCampaign(harness.socketPath(),
                                               id, 120.0);
    ASSERT_TRUE(final.getBool("ok", false)) << json::write(final);
    const json::Value *campaign = final.find("campaign");
    ASSERT_NE(campaign, nullptr);
    EXPECT_EQ(campaign->getString("state", ""), "done");
    EXPECT_GE(campaign->getLong("failovers", 0), 1);

    // The failover resumed from the journal: byte-identical output.
    EXPECT_EQ(campaignCsv(harness, id), referenceCsv(harness, spec));
    expectCleanArtifacts(harness);

    ASSERT_EQ(::kill(harness.daemonPid, SIGTERM), 0);
    EXPECT_EQ(reapDaemon(harness), 130);
    cleanup(harness);
}

TEST(ServeDaemon, WatchdogKillsHungShardUntilTheStallHalvesUnderTheDeadline)
{
    Harness harness = makeHarness("watchdog");
    // Deadline 0.3s versus a ~0.9s hang: the watchdog must fire.
    // Every failover halves the stall (0.9 -> 0.45 -> 0.225), so the
    // third incarnation beats the deadline and completes.
    harness.options.roundDeadlineSeconds = 0.3;
    harness.options.maxFailovers = 6;
    spawnDaemon(harness);
    waitForDaemon(harness);

    json::Value spec = simSpec(6, 0.9);
    std::string id = submit(harness, spec);

    json::Value final = serve::waitForCampaign(harness.socketPath(),
                                               id, 120.0);
    ASSERT_TRUE(final.getBool("ok", false)) << json::write(final);
    const json::Value *campaign = final.find("campaign");
    ASSERT_NE(campaign, nullptr);
    EXPECT_EQ(campaign->getString("state", ""), "done")
        << json::write(final);
    EXPECT_GE(campaign->getLong("failovers", 0), 2);

    // The queue journal names the watchdog as the failover reason.
    std::string journal =
        util::readFileText(harness.stateDir() + "/queue.jsonl");
    EXPECT_NE(journal.find("watchdog killed the shard"),
              std::string::npos);

    // Hung or not, the recovered campaign's data is untouched.
    EXPECT_EQ(campaignCsv(harness, id), referenceCsv(harness, spec));
    expectCleanArtifacts(harness);

    ASSERT_EQ(::kill(harness.daemonPid, SIGTERM), 0);
    EXPECT_EQ(reapDaemon(harness), 130);
    cleanup(harness);
}

TEST(ServeDaemon, SigtermDrainsParksAndRestartResumes)
{
    Harness harness = makeHarness("drain");
    harness.options.shards = 1;
    spawnDaemon(harness);
    waitForDaemon(harness);

    json::Value spec = simSpec(50, 0.05);
    std::string running = submit(harness, spec);
    std::string queued = submit(harness, simSpec(10));
    ASSERT_GT(waitForWorkerPid(harness, running), 0);
    std::this_thread::sleep_for(500ms);

    // SIGTERM mid-campaign: the worker parks at a round boundary and
    // the daemon exits 130 with both campaigns resumable.
    ASSERT_EQ(::kill(harness.daemonPid, SIGTERM), 0);
    EXPECT_EQ(reapDaemon(harness), 130);

    auto state = serve::DaemonState::fromJson(
        json::parseFile(harness.stateDir() + "/daemon.json"));
    EXPECT_TRUE(state.drained);
    serve::QueueContents queue =
        serve::readQueue(harness.stateDir() + "/queue.jsonl");
    ASSERT_EQ(queue.campaigns.size(), 2u);
    for (const auto &campaign : queue.campaigns)
        EXPECT_EQ(campaign.state, serve::CampaignState::Queued);

    // Restart on the same state directory: both campaigns picked up
    // and finished, the parked one byte-identical to an undisturbed
    // run.
    spawnDaemon(harness);
    waitForDaemon(harness);
    json::Value first = serve::waitForCampaign(harness.socketPath(),
                                               running, 120.0);
    ASSERT_EQ(first.find("campaign")->getString("state", ""), "done")
        << json::write(first);
    json::Value second = serve::waitForCampaign(harness.socketPath(),
                                                queued, 120.0);
    ASSERT_EQ(second.find("campaign")->getString("state", ""), "done")
        << json::write(second);
    EXPECT_EQ(campaignCsv(harness, running),
              referenceCsv(harness, spec));
    expectCleanArtifacts(harness);

    ASSERT_EQ(::kill(harness.daemonPid, SIGTERM), 0);
    EXPECT_EQ(reapDaemon(harness), 130);
    cleanup(harness);
}

TEST(ServeDaemon, DoubleCrashStillResumesByteIdentically)
{
    Harness harness = makeHarness("doublecrash");
    spawnDaemon(harness);
    waitForDaemon(harness);

    json::Value spec = simSpec(40, 0.06);
    std::string id = submit(harness, spec);
    pid_t worker = waitForWorkerPid(harness, id);
    ASSERT_GT(worker, 0);
    std::this_thread::sleep_for(700ms);

    // Crash one: SIGKILL the shard mid-round.
    ASSERT_EQ(::kill(worker, SIGKILL), 0);
    // Crash two: SIGKILL the daemon while it is handling the
    // failover. PDEATHSIG takes any replacement worker down with it,
    // so the restart below never races an orphan for the journal.
    std::this_thread::sleep_for(100ms);
    ASSERT_EQ(::kill(harness.daemonPid, SIGKILL), 0);
    ::waitpid(harness.daemonPid, nullptr, 0);
    harness.daemonPid = -1;
    std::this_thread::sleep_for(100ms);

    // Restart on the wreckage: the queue journal (torn tail and all)
    // replays, the campaign re-queues, its run journal repairs, and
    // the campaign finishes as if nothing happened.
    spawnDaemon(harness);
    waitForDaemon(harness);
    json::Value final = serve::waitForCampaign(harness.socketPath(),
                                               id, 120.0);
    ASSERT_TRUE(final.getBool("ok", false)) << json::write(final);
    ASSERT_EQ(final.find("campaign")->getString("state", ""), "done")
        << json::write(final);

    EXPECT_EQ(campaignCsv(harness, id), referenceCsv(harness, spec));
    expectCleanArtifacts(harness);

    ASSERT_EQ(::kill(harness.daemonPid, SIGTERM), 0);
    EXPECT_EQ(reapDaemon(harness), 130);
    cleanup(harness);
}

TEST(ServeDaemon, AdmissionControlAndTypedErrors)
{
    Harness harness = makeHarness("admission");
    // One shard, held busy by a long campaign: everything else stays
    // deterministically queued, and a drain has to wait for the
    // worker to park — which is the window the draining-rejection
    // assertions below rely on.
    harness.options.shards = 1;
    harness.options.maxQueuedPerTenant = 1;
    spawnDaemon(harness);
    waitForDaemon(harness);

    std::string id = submit(harness, simSpec(400, 0.15));
    ASSERT_FALSE(id.empty());
    ASSERT_GT(waitForWorkerPid(harness, id), 0);

    // Tenant cap reached: typed, retryable queue-full rejection.
    json::Value doc = json::Value::makeObject();
    doc.set("op", "submit");
    doc.set("spec", simSpec(5));
    json::Value full = request(harness, doc);
    EXPECT_FALSE(full.getBool("ok", true));
    EXPECT_EQ(full.find("error")->getString("code", ""),
              "queue-full");
    EXPECT_TRUE(serve::isRetryable(full));
    EXPECT_EQ(serve::clientExitCode(full), 1);

    // Another tenant has its own cap; its campaign queues behind the
    // busy shard.
    std::string queuedId = submit(harness, simSpec(5), "other");
    ASSERT_FALSE(queuedId.empty());

    // A bad spec is rejected outright, with diagnostics attached.
    json::Value bad = json::Value::makeObject();
    bad.set("op", "submit");
    bad.set("tenant", "other2");
    bad.set("spec", json::parse(R"({"backend":"simm"})"));
    json::Value invalid = request(harness, bad);
    EXPECT_FALSE(invalid.getBool("ok", true));
    EXPECT_EQ(invalid.find("error")->getString("code", ""),
              "invalid-spec");
    EXPECT_FALSE(serve::isRetryable(invalid));
    EXPECT_EQ(serve::clientExitCode(invalid), 2);
    EXPECT_NE(invalid.find("diagnostics"), nullptr);

    // Unknown ids and ops are typed too, with did-you-mean hints.
    json::Value unknown = statusOf(harness, "c999999");
    EXPECT_EQ(unknown.find("error")->getString("code", ""),
              "unknown-campaign");
    json::Value typo = json::Value::makeObject();
    typo.set("op", "statsu");
    json::Value unknownOp = request(harness, typo);
    EXPECT_EQ(unknownOp.find("error")->getString("code", ""),
              "unknown-op");
    EXPECT_NE(unknownOp.find("error")
                  ->getString("message", "")
                  .find("did you mean 'status'?"),
              std::string::npos);

    // Results on a queued campaign: not-done, retryable.
    json::Value resultsDoc = json::Value::makeObject();
    resultsDoc.set("op", "results");
    resultsDoc.set("id", queuedId);
    json::Value pending = request(harness, resultsDoc);
    EXPECT_EQ(pending.find("error")->getString("code", ""),
              "not-done");
    EXPECT_TRUE(serve::isRetryable(pending));

    // Cancelled while queued: still not-done, but retrying is now
    // pointless.
    json::Value cancelDoc = json::Value::makeObject();
    cancelDoc.set("op", "cancel");
    cancelDoc.set("id", queuedId);
    json::Value cancelled = request(harness, cancelDoc);
    EXPECT_TRUE(cancelled.getBool("ok", false));
    EXPECT_EQ(cancelled.getString("state", ""), "cancelled");
    json::Value afterCancel = request(harness, resultsDoc);
    EXPECT_EQ(afterCancel.find("error")->getString("code", ""),
              "not-done");
    EXPECT_FALSE(serve::isRetryable(afterCancel));

    // A client drain stops admission with a retryable rejection
    // while the running shard is still parking...
    json::Value drainDoc = json::Value::makeObject();
    drainDoc.set("op", "drain");
    EXPECT_TRUE(request(harness, drainDoc).getBool("ok", false));
    json::Value late = json::Value::makeObject();
    late.set("op", "submit");
    late.set("tenant", "other3");
    late.set("spec", simSpec(5));
    json::Value rejected = request(harness, late);
    EXPECT_EQ(rejected.find("error")->getString("code", ""),
              "draining");
    EXPECT_TRUE(serve::isRetryable(rejected));

    // ...a cancel of the running campaign rides along (the drain
    // already SIGTERMed it; the flag reclassifies the park)...
    json::Value cancelRunning = json::Value::makeObject();
    cancelRunning.set("op", "cancel");
    cancelRunning.set("id", id);
    EXPECT_TRUE(request(harness, cancelRunning).getBool("ok", false));

    // ...and once the worker parks, the daemon exits through the
    // drain path with the cancellations journaled.
    EXPECT_EQ(reapDaemon(harness), 130);
    serve::QueueContents queue =
        serve::readQueue(harness.stateDir() + "/queue.jsonl");
    ASSERT_EQ(queue.campaigns.size(), 2u);
    EXPECT_EQ(queue.campaigns[0].state,
              serve::CampaignState::Cancelled);
    EXPECT_EQ(queue.campaigns[1].state,
              serve::CampaignState::Cancelled);
    cleanup(harness);
}

} // anonymous namespace
