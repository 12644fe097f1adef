/**
 * @file
 * The `sharp check` static analyzer.
 *
 * Reproducibility starts before anything runs: a campaign that dies
 * eight hours in on a typo'd stopping-rule name, or a baseline that
 * silently stopped covering a cell, is a reproducibility failure just
 * like a lost seed. This module validates every artifact SHARP
 * consumes or emits — run specs, fault specs, retry policies,
 * experiment configs, workflow documents, run journals, calibration
 * baselines, and reproduction metadata — without executing anything.
 * It sniffs what kind of artifact a file holds (extension plus
 * content), dispatches to the per-artifact checker that the
 * corresponding loader also runs, and layers on the cross-artifact
 * lints only a whole-file view can see (a journal's rounds versus its
 * own spec line, a baseline versus the live registries).
 */

#ifndef SHARP_CHECK_ANALYZER_HH
#define SHARP_CHECK_ANALYZER_HH

#include <string>
#include <vector>

#include "check/diagnostic.hh"
#include "json/value.hh"

namespace sharp
{
namespace check
{

/** What kind of artifact a file holds. */
enum class ArtifactKind
{
    /** A full run spec (`sharp run --config`). */
    RunSpec,
    /** A fault-injection schedule (`--fault`). */
    FaultSpec,
    /** A retry policy document. */
    RetryPolicy,
    /** A bare experiment (stopping/sampling) config. */
    ExperimentConfig,
    /** A serverless-workflow document. */
    Workflow,
    /** A JSONL run journal (`--journal` / `--resume`). */
    Journal,
    /** A calibration-baseline summary. */
    Baseline,
    /** A scenario-library document (`sharp-scenario-v1`). */
    Scenario,
    /** A `sharp baseline capture` bundle. */
    BaselineBundle,
    /** A `sharp compare` report. */
    CompareReport,
    /** A reproduction metadata document (markdown). */
    Metadata,
    /** A `sharp serve` campaign queue journal (`sharp-queue-v1`). */
    QueueJournal,
    /** A `sharp serve` daemon state file (`sharp-daemon-state-v1`). */
    DaemonState,
    /** Nothing recognizable. */
    Unknown,
};

/** Short kind name, e.g. "run spec". */
const char *artifactKindName(ArtifactKind kind);

/**
 * Guess what kind of artifact @p path with contents @p text holds.
 * Extension first (.md = metadata, .jsonl = journal), then content:
 * a parsed @p doc (nullptr when the text is not JSON) is classified
 * by its distinguishing keys — "schema" tags a baseline, "states" a
 * workflow, "backend"/"experiment" a run spec, fault-band keys a
 * fault spec, and so on.
 */
ArtifactKind sniffArtifact(const std::string &path,
                           const std::string &text,
                           const json::Value *doc);

/**
 * Check one in-memory JSON document of known kind. Dispatches to the
 * same checker the corresponding loader runs. Journal and Metadata
 * kinds are text formats — use checkArtifactText for those.
 */
void checkDocument(ArtifactKind kind, const json::Value &doc,
                   CheckResult &out);

/**
 * Check artifact text of any kind (JSON kinds are parsed first; syntax
 * errors become located "json-syntax" diagnostics). @p kind Unknown
 * means sniff it from @p path and the text. Returns the kind actually
 * checked.
 */
ArtifactKind checkArtifactText(const std::string &path,
                               const std::string &text,
                               ArtifactKind kind, CheckResult &out);

/**
 * Check one file on disk: read, sniff, dispatch. Unreadable files
 * yield an "io-error" diagnostic. Findings are appended to @p out
 * with the artifact path stamped on.
 */
ArtifactKind checkArtifactFile(const std::string &path,
                               CheckResult &out);

/**
 * The artifact files @p paths name, for `sharp check`. A directory
 * expands to its .json, .jsonl and .md entries, non-recursively and in
 * sorted order, so whole libraries need no file list; @p skipped
 * counts its other files.
 */
std::vector<std::string>
expandArtifactPaths(const std::vector<std::string> &paths,
                    size_t &skipped);

} // namespace check
} // namespace sharp

#endif // SHARP_CHECK_ANALYZER_HH
