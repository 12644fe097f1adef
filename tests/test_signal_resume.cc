/**
 * @file
 * End-to-end signal harness: a real `sharp run` campaign over real
 * child processes is SIGINT'd mid-flight; the journal must be left
 * complete (whole rounds only), the partial CSV must parse, the exit
 * code must be 130, and `sharp run --resume` must finish the campaign.
 *
 * Lives in the slow suite: it runs a multi-second local-process
 * campaign and plays with real signals.
 */

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "cli/cli.hh"
#include "record/csv.hh"
#include "record/journal.hh"
#include "support/csv.hh"

namespace
{

namespace fs = std::filesystem;
using sharp::cli::runCli;

struct Paths
{
    fs::path dir;
    std::string config;
    std::string journal;
    std::string out;
};

Paths
makePaths(const std::string &tag)
{
    Paths paths;
    paths.dir = fs::temp_directory_path() /
                ("sharp_signal_" + tag + "_" +
                 std::to_string(::getpid()));
    fs::remove_all(paths.dir);
    fs::create_directories(paths.dir);
    paths.config = (paths.dir / "campaign.json").string();
    paths.journal = (paths.dir / "journal.jsonl").string();
    paths.out = (paths.dir / "result").string();
    return paths;
}

void
writeCampaignConfig(const std::string &path, int count)
{
    std::ofstream config(path);
    config << R"({
  "backend": "local",
  "workload": "napper",
  "argv": ["sh", "-c", "sleep 0.02"],
  "timeout": 10,
  "seed": 1,
  "experiment": {"rule": "fixed", "params": {"count": )"
           << count << R"(}, "max": 400}
})";
}

/** Run the CLI in a forked child so a real SIGINT can hit it. */
pid_t
spawnCliRun(const Paths &paths)
{
    pid_t pid = fork();
    if (pid != 0)
        return pid;
    // Child: the campaign's own output is irrelevant to the parent.
    std::ostringstream sink;
    int status = runCli({"run", "--config", paths.config, "--journal",
                         paths.journal, "--out", paths.out},
                        sink, sink);
    std::_Exit(status);
}

TEST(SignalResume, SigintLeavesResumableJournal)
{
    Paths paths = makePaths("sigint");
    const int target = 150; // ~3s of sleep-0.02 rounds
    writeCampaignConfig(paths.config, target);

    pid_t pid = spawnCliRun(paths);
    ASSERT_GT(pid, 0) << "fork failed";

    // Give the campaign time to start and journal a few rounds, then
    // interrupt it mid-flight.
    std::this_thread::sleep_for(std::chrono::milliseconds(900));
    ASSERT_EQ(kill(pid, SIGINT), 0);

    int wait_status = 0;
    ASSERT_EQ(waitpid(pid, &wait_status, 0), pid);
    ASSERT_TRUE(WIFEXITED(wait_status))
        << "sharp run must exit cleanly on SIGINT, not die of it";
    EXPECT_EQ(WEXITSTATUS(wait_status), 130);

    // The journal holds only whole rounds and no completion marker.
    auto contents = sharp::record::readJournal(paths.journal);
    EXPECT_FALSE(contents.done);
    EXPECT_FALSE(contents.truncated);
    ASSERT_GT(contents.rounds, 0u);
    ASSERT_LT(contents.rounds, static_cast<size_t>(target));
    for (const auto &rec : contents.records)
        EXPECT_LT(rec.run, contents.rounds);

    // The partial CSV written on interrupt parses.
    auto partial = sharp::support::loadCsv(paths.out + ".csv");
    EXPECT_EQ(partial.numRows(), contents.records.size());

    // Resume finishes the campaign in-process.
    std::ostringstream out, err;
    int resumed = runCli(
        {"run", "--resume", paths.dir.string(), "--out", paths.out},
        out, err);
    EXPECT_EQ(resumed, 0) << err.str();
    EXPECT_NE(out.str().find("resumed to"), std::string::npos);

    auto final_contents = sharp::record::readJournal(paths.journal);
    EXPECT_TRUE(final_contents.done);
    EXPECT_GE(final_contents.rounds, static_cast<size_t>(target));

    auto csv = sharp::support::loadCsv(paths.out + ".csv");
    EXPECT_EQ(
        sharp::support::numericColumnWhere(csv, "execution_time",
                                           "failure", "none")
            .size(),
        static_cast<size_t>(target));
    fs::remove_all(paths.dir);
}

TEST(SignalResume, SigtermAlsoStopsResumably)
{
    Paths paths = makePaths("sigterm");
    writeCampaignConfig(paths.config, 150);

    pid_t pid = spawnCliRun(paths);
    ASSERT_GT(pid, 0) << "fork failed";
    std::this_thread::sleep_for(std::chrono::milliseconds(700));
    ASSERT_EQ(kill(pid, SIGTERM), 0);

    int wait_status = 0;
    ASSERT_EQ(waitpid(pid, &wait_status, 0), pid);
    ASSERT_TRUE(WIFEXITED(wait_status));
    EXPECT_EQ(WEXITSTATUS(wait_status), 130);

    auto contents = sharp::record::readJournal(paths.journal);
    EXPECT_FALSE(contents.done);
    EXPECT_GT(contents.rounds, 0u);
    fs::remove_all(paths.dir);
}

} // anonymous namespace
