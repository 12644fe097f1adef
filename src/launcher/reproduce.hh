/**
 * @file
 * Experiment reproduction from recorded metadata.
 *
 * "This metadata file is both human-readable and machine-readable:
 * SHARP itself can parse it to recreate the same parameters for a
 * reproduction run." (§IV-d)
 *
 * A ReproSpec captures everything needed to re-run an experiment:
 * backend kind, workload, machines, day, seed, concurrency, and the
 * full stopping/sampling configuration. annotate() embeds it in a
 * RunLog's metadata and reproSpecFromMetadata() parses it back out,
 * both through one table of `repro_*` entries.
 * runCampaign() is the one way to run a spec — `sharp run`,
 * `sharp reproduce`, suites and serve workers all go through it. With
 * the simulated testbed the reproduction is bit-exact: same seed, same
 * samples.
 */

#ifndef SHARP_LAUNCHER_REPRODUCE_HH
#define SHARP_LAUNCHER_REPRODUCE_HH

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "check/diagnostic.hh"
#include "core/config.hh"
#include "json/value.hh"
#include "launcher/backend.hh"
#include "launcher/fault_backend.hh"
#include "launcher/launcher.hh"
#include "launcher/retry.hh"
#include "record/journal.hh"
#include "record/metadata.hh"
#include "record/run_log.hh"

namespace sharp
{
namespace launcher
{

/** Everything needed to recreate an experiment. */
struct ReproSpec
{
    /** Backend kind: "sim", "sim-phased", "faas", "local", "scenario". */
    std::string backendKind = "sim";
    /** Workload (Rodinia benchmark) name; unused for sim-phased. */
    std::string workload;
    /**
     * Scenario file for the "scenario" backend (a `sharp-scenario-v1`
     * document naming a nonstationary family or a recorded trace).
     * Resolved relative to the working directory at launch; loaders
     * that know the spec file's location join it on beforehand.
     */
    std::string scenario;
    /** Command line for the "local" backend. */
    std::vector<std::string> argv;
    /** Per-run timeout for the "local" backend (0 = none). */
    double timeoutSeconds = 60.0;
    /** Machine ids; one for sim backends, the workers for faas. */
    std::vector<std::string> machines;
    /** Environment day. */
    int day = 0;
    /** Stream seed. */
    uint64_t seed = 1;
    /** Parallel requests per round. */
    size_t concurrency = 1;
    /**
     * Worker threads the execution layer may use (suite entries,
     * batch servicing). Never changes measured values — recorded so a
     * reproduction replays with the same parallelism.
     */
    size_t jobs = 1;
    /** Stopping rule + sampling bounds. */
    core::ExperimentConfig experiment;
    /** Failure cap: abort after exactly this many final failures. */
    size_t maxFailures = 10;
    /** Failure-rate cap; 1.0 disables the rate policy. */
    double maxFailureRate = 1.0;
    /** Retry policy for failed invocations. */
    RetryPolicy retry;
    /** Fault-injection schedule wrapped around the backend. */
    FaultSpec fault;
    /** True when the fault-injection wrapper is active. */
    bool faultEnabled = false;

    /** Launch options equivalent to this spec. */
    LaunchOptions launchOptions() const;

    /**
     * Parse from a JSON document, e.g.
     * {
     *   "backend": "sim", "workload": "hotspot",
     *   "machines": ["machine1"], "day": 0, "seed": 42,
     *   "concurrency": 1,
     *   "experiment": {"rule": "ks", "params": {"threshold": 0.1},
     *                  "max": 1000}
     * }
     * Without "machines" the spec runs on machine1.
     * @throws check::CheckFailure (an std::invalid_argument) when
     *         the structural part of checkRunSpec() finds an error.
     */
    static ReproSpec fromJson(const json::Value &doc);

    /** Serialize to JSON (round-trips through fromJson). */
    json::Value toJson() const;
};

/**
 * Full static analysis of a run-spec document: every structural
 * problem ReproSpec::fromJson would reject, plus the registry lints
 * loading alone only hits at backend construction — unknown backend
 * kinds, workloads absent from the Rodinia registry, machines absent
 * from the machine registry, a local backend without argv, and a
 * fault schedule inflating a metric the backend never emits. Never
 * throws; findings are appended to @p out.
 */
void checkRunSpec(const json::Value &doc, check::CheckResult &out);

/**
 * Text of the `obsolete-stats-cache` note. Run specs and journal
 * headers written before the statistics engine lost its off switch
 * may carry "stats_cache", and their metadata `repro_stats_cache`;
 * both still load, with the key ignored.
 */
inline constexpr const char *obsoleteStatsCacheMessage =
    "the statistics-engine switch no longer exists and this key is "
    "ignored; the engine always matched batch recomputation bit for "
    "bit, so recorded results are unaffected";

/** Record @p spec in @p log's metadata ("Reproduction" section). */
void annotate(record::RunLog &log, const ReproSpec &spec);

/**
 * The run-spec object @p doc records: each `repro_*` entry of its
 * Configuration section as its spec member (the text, JSON document
 * or `;`-separated list it encodes), at the entry's line; the object
 * at the section's. A missing section or required entry is a
 * `missing-field` error, an entry that is not JSON `bad-metadata`.
 */
json::Value reproSpecObject(const record::MetadataDocument &doc,
                            check::CheckResult &out);

/**
 * Parse a spec back out of a metadata document: reproSpecObject(),
 * then ReproSpec::fromJson()'s check and load. @p findings holds the
 * markdown parse's findings and the artifact path.
 * @throws check::CheckFailure when any finding is an error.
 */
ReproSpec reproSpecFromMetadata(const record::MetadataDocument &doc,
                                check::CheckResult findings = {});

/**
 * Build the backend a spec describes.
 * @throws std::invalid_argument for unknown kinds/workloads/machines.
 */
std::shared_ptr<Backend> makeBackend(const ReproSpec &spec);

/** Where a campaign journals and what it reports to while running. */
struct CampaignIo
{
    /** Run journal file; empty runs without one. */
    std::string journalPath;
    /**
     * Fresh truncates the journal and writes the spec header. Resume
     * loads the journal, whose spec header then wins over the spec
     * passed in; a journal that already has its done marker is
     * replayed with the journal detached, so the file never changes.
     */
    record::JournalMode journalMode = record::JournalMode::Fresh;
    /** See LaunchOptions::interruptFlag (optional, non-owning). */
    const std::atomic<bool> *interruptFlag = nullptr;
    /** See LaunchOptions::roundObserver (optional). */
    std::function<void(size_t)> roundObserver;
    /**
     * Failover epoch for the fault schedule of the live backend; 0
     * keeps the spec's own. Never journaled or annotated, so the
     * recorded campaign is the same in every incarnation.
     */
    uint64_t incarnation = 0;
};

/** What runCampaign() ran and what came of it. */
struct CampaignRun
{
    /** The spec that ran (the journal's header when resuming). */
    ReproSpec spec;
    /** The launch, annotated, with simulated-machine sysinfo. */
    LaunchReport report;
    /** The resumed journal was already complete: replay only. */
    bool replayed = false;
};

/**
 * Run @p spec end to end: open or resume the journal, build the
 * backend and rule, launch, annotate the log with the spec, and attach
 * the simulated machine's system info. Saving artifacts, signal
 * handling and exit codes stay with the caller.
 * @throws std::runtime_error for an unreadable journal,
 *         std::invalid_argument for a spec no backend can run.
 */
CampaignRun runCampaign(const ReproSpec &spec, const CampaignIo &io = {});

} // namespace launcher
} // namespace sharp

#endif // SHARP_LAUNCHER_REPRODUCE_HH
