#include "check/campaign.hh"

#include <algorithm>
#include <optional>
#include <set>

#include "check/analyzer.hh"
#include "json/parser.hh"
#include "launcher/reproduce.hh"
#include "serve/queue.hh"
#include "serve/state.hh"
#include "util/fs.hh"
#include "util/string_utils.hh"

namespace sharp
{
namespace check
{

namespace
{

std::string
joinPath(const std::string &dir, const std::string &name)
{
    if (dir.empty() || dir.back() == '/')
        return dir + name;
    return dir + "/" + name;
}

/** Report one whole-artifact finding against @p path. */
void
fileFinding(CheckResult &out, Severity severity,
            const std::string &path, std::string rule,
            std::string message, std::string hint = "")
{
    out.setArtifact(path);
    out.report(severity, json::Location{}, std::move(rule),
               std::move(message), std::move(hint));
}

/**
 * The submitted spec, normalized through ReproSpec so defaults are
 * filled in before cross-artifact comparison (the queue stores specs
 * verbatim, the journal header stores them normalized). nullopt when
 * the spec does not load — the queue deep check already reported why.
 */
std::optional<launcher::ReproSpec>
normalizedSpec(const json::Value &spec)
{
    try {
        return launcher::ReproSpec::fromJson(spec);
    } catch (const std::exception &) {
        return std::nullopt;
    }
}

/** Compare one scalar facet of two specs. */
void
compareFacet(CheckResult &out, const std::string &journalPath,
             const std::string &id, const char *what,
             const std::string &submitted, const std::string &journaled)
{
    if (submitted == journaled)
        return;
    fileFinding(out, Severity::Error, journalPath,
                "campaign-spec-mismatch",
                "campaign '" + id + "': journal spec " + what + " (" +
                    journaled + ") disagrees with the accepted spec (" +
                    submitted + ")",
                "the worker must execute exactly the spec the queue "
                "accepted; one of the two artifacts was altered");
}

void
auditJournal(const serve::Campaign &campaign,
             const launcher::ReproSpec *submitted,
             const std::string &journalPath,
             const record::JournalContents &contents, CheckResult &out)
{
    if (campaign.state == serve::CampaignState::Done && !contents.done) {
        fileFinding(out, Severity::Error, journalPath,
                    "campaign-journal-divergence",
                    "queue marks campaign '" + campaign.id +
                        "' done but its journal has no done marker "
                        "after " +
                        std::to_string(contents.rounds) + " round(s)",
                    "the worker journals the done marker before the "
                    "daemon sees a clean exit");
    }
    if (!campaign.started &&
        (contents.rounds > 0 || contents.done)) {
        fileFinding(out, Severity::Error, journalPath,
                    "campaign-journal-divergence",
                    "campaign '" + campaign.id + "' journaled " +
                        std::to_string(contents.rounds) +
                        " round(s) but the queue never recorded a "
                        "start event",
                    "a worker only runs after `start` is journaled; "
                    "the queue journal lost events");
    }

    if (!submitted || contents.spec.isNull())
        return;
    auto journaled = normalizedSpec(contents.spec);
    if (!journaled)
        return;
    compareFacet(out, journalPath, campaign.id, "seed",
                 std::to_string(submitted->seed),
                 std::to_string(journaled->seed));
    compareFacet(out, journalPath, campaign.id, "jobs",
                 std::to_string(submitted->jobs),
                 std::to_string(journaled->jobs));
    compareFacet(out, journalPath, campaign.id, "backend",
                 submitted->backendKind, journaled->backendKind);
    compareFacet(out, journalPath, campaign.id, "workload",
                 submitted->workload, journaled->workload);
}

void
auditMetadata(const serve::Campaign &campaign,
              const launcher::ReproSpec &submitted,
              const std::string &mdPath,
              const record::MetadataDocument &doc, CheckResult &out)
{
    auto mismatch = [&](const char *key, const std::string &expected) {
        auto entry = doc.get("Configuration", key);
        if (!entry || *entry == expected)
            return;
        fileFinding(out, Severity::Error, mdPath,
                    "campaign-metadata-mismatch",
                    "campaign '" + campaign.id + "': metadata " +
                        key + " (" + *entry +
                        ") disagrees with the accepted spec (" +
                        expected + ")",
                    "reproduction metadata must recreate the campaign "
                    "the queue accepted");
    };
    mismatch("repro_seed", std::to_string(submitted.seed));
    mismatch("repro_jobs", std::to_string(submitted.jobs));
    mismatch("repro_backend", submitted.backendKind);
    mismatch("repro_workload", submitted.workload);
}

} // anonymous namespace

void
checkCampaignDir(const std::string &dir, CheckResult &out)
{
    if (!util::isDirectory(dir)) {
        fileFinding(out, Severity::Error, dir, "campaign-missing-queue",
                    "'" + dir + "' is not a directory",
                    "--campaign expects a `sharp serve` state "
                    "directory");
        return;
    }

    std::set<std::string> handled;

    std::string queuePath = joinPath(dir, "queue.jsonl");
    if (!util::fileExists(queuePath)) {
        fileFinding(out, Severity::Error, dir, "campaign-missing-queue",
                    "state directory has no queue.jsonl; nothing to "
                    "audit",
                    "--campaign expects a `sharp serve` state "
                    "directory");
        return;
    }
    handled.insert(queuePath);
    // Each artifact is read once: the walk that checks it also folds
    // what the audit compares.
    std::string text;
    bool queueUsable = readArtifact(queuePath, text, out);
    serve::QueueContents queue;
    if (queueUsable)
        queue = serve::walkQueue(text, out, true);

    // Daemon state: optional but its absence mutes the config
    // cross-checks, which is worth a warning.
    std::string daemonPath = joinPath(dir, "daemon.json");
    std::optional<serve::DaemonState> daemon;
    if (util::fileExists(daemonPath)) {
        checkArtifactFile(daemonPath, out);
        handled.insert(daemonPath);
        try {
            daemon = serve::DaemonState::fromJson(
                json::parseFile(daemonPath));
        } catch (const std::exception &) {
            // structural problems already reported
        }
    } else {
        fileFinding(out, Severity::Warning, dir,
                    "campaign-missing-daemon-state",
                    "state directory has no daemon.json; daemon "
                    "config cross-checks skipped",
                    "the daemon writes it on startup — was this "
                    "directory copied partially?");
    }

    std::string campaignsRoot = joinPath(dir, "campaigns");
    if (queueUsable) {
        for (const serve::Campaign &campaign : queue.campaigns) {
            std::string cdir = joinPath(campaignsRoot, campaign.id);
            std::string journalPath = joinPath(cdir, "journal.jsonl");
            std::string csvPath = joinPath(cdir, "result.csv");
            std::string mdPath = joinPath(cdir, "result.md");
            auto submitted = normalizedSpec(campaign.spec);

            if (campaign.state == serve::CampaignState::Done) {
                for (const std::string &result : {csvPath, mdPath}) {
                    if (util::fileExists(result))
                        continue;
                    fileFinding(
                        out, Severity::Error, result,
                        "campaign-missing-result",
                        "queue marks campaign '" + campaign.id +
                            "' done but '" + result +
                            "' is missing on disk",
                        "the worker writes results before the done "
                        "event is journaled; this directory lost "
                        "data");
                }
                if (!util::fileExists(journalPath)) {
                    fileFinding(
                        out, Severity::Error, journalPath,
                        "campaign-journal-divergence",
                        "queue marks campaign '" + campaign.id +
                            "' done but it has no run journal",
                        "every executed campaign journals its rounds "
                        "before results exist");
                }
            }

            if (util::fileExists(journalPath)) {
                handled.insert(journalPath);
                if (readArtifact(journalPath, text, out)) {
                    auditJournal(campaign,
                                 submitted ? &*submitted : nullptr,
                                 journalPath, checkJournal(text, out),
                                 out);
                }
            }
            if (util::fileExists(mdPath)) {
                handled.insert(mdPath);
                if (readArtifact(mdPath, text, out)) {
                    record::MetadataDocument doc =
                        checkMetadata(text, out);
                    if (submitted)
                        auditMetadata(campaign, *submitted, mdPath, doc,
                                      out);
                }
            }
            if (util::fileExists(csvPath)) {
                // A tidy CSV by name, so an empty or cut-off one is
                // read as one, not sniffed as something else.
                handled.insert(csvPath);
                if (readArtifact(csvPath, text, out)) {
                    checkArtifactText(csvPath, text, ArtifactKind::TidyCsv,
                                      out);
                }
            }

            if (daemon && campaign.failovers > daemon->maxFailovers) {
                fileFinding(
                    out, Severity::Error, queuePath,
                    "campaign-failover-overrun",
                    "campaign '" + campaign.id + "' journaled " +
                        std::to_string(campaign.failovers) +
                        " failover(s), above the daemon cap of " +
                        std::to_string(daemon->maxFailovers),
                    "the supervisor fails a campaign over at the cap; "
                    "queue.jsonl and daemon.json disagree");
            }
        }

        // The reverse direction: campaign directories the queue never
        // promised.
        if (util::isDirectory(campaignsRoot)) {
            for (const std::string &name :
                 util::listDirectory(campaignsRoot)) {
                std::string cdir = joinPath(campaignsRoot, name);
                if (!util::isDirectory(cdir))
                    continue;
                bool known = std::any_of(
                    queue.campaigns.begin(), queue.campaigns.end(),
                    [&](const serve::Campaign &campaign) {
                        return campaign.id == name;
                    });
                if (!known) {
                    fileFinding(
                        out, Severity::Warning, cdir,
                        "campaign-orphan-dir",
                        "campaigns/" + name + " has no submit event "
                        "in the queue journal",
                        "stale directory from an earlier state dir, "
                        "or the queue journal was truncated");
                }
            }
        }
    }

    // Sweep the rest of the tree: artifact-shaped files get the deep
    // per-artifact check (a stale baseline bundle dropped in here is
    // still a finding); everything else folds into one note.
    size_t skipped = 0;
    for (const std::string &file : util::listFilesRecursive(dir)) {
        if (handled.count(file))
            continue;
        if (util::endsWith(file, ".json") ||
            util::endsWith(file, ".jsonl") ||
            util::endsWith(file, ".md")) {
            checkArtifactFile(file, out);
        } else {
            ++skipped;
        }
    }
    if (skipped > 0) {
        out.setArtifact(dir);
        out.report(Severity::Note, json::Location{}, "skipped-files",
                   "skipped " + std::to_string(skipped) +
                       " non-artifact file(s) (not .json/.jsonl/.md)");
    }
    out.setArtifact("");
}

} // namespace check
} // namespace sharp
