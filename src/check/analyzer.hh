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
#include "record/journal.hh"
#include "record/metadata.hh"

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
    /** A tidy CSV (`sharp run --out`), known by its header line. */
    TidyCsv,
    /** Nothing recognizable. */
    Unknown,
};

/** Short kind name, e.g. "run spec". */
const char *artifactKindName(ArtifactKind kind);

/**
 * Guess what kind of artifact @p path with contents @p text holds.
 * Text formats first: `.md` or a `# ` title is metadata; a first line
 * that starts with the tidy CSV's factor columns, or a `.csv` with no
 * line at all, is a tidy CSV; a first line holding a queue schema tag
 * is a queue journal; a `.jsonl` name or a first line holding a spec
 * header is a run journal. Then content:
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
 * means sniff it from @p path and the text. A tidy CSV is read as
 * replay reads it (record::walkTidyCsv()), its findings warnings but
 * the walk's errors; a `.csv` that is not one gets a `non-artifact`
 * note. A trace scenario's trace is
 * walked too, when it exists, as replay walks it
 * (launcher::walkTrace()), its findings naming the trace. Returns the
 * kind actually checked.
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
 * Read @p path into @p text, stamping @p path on later findings.
 * @return false, after an "io-error" finding, when it cannot be read.
 */
bool readArtifact(const std::string &path, std::string &text,
                  CheckResult &out);

/**
 * Check run-journal text: record::walkJournal(), then the full
 * run-spec lint of its spec. @return what the walk folded.
 */
record::JournalContents checkJournal(const std::string &text,
                                     CheckResult &out);

/**
 * Check metadata text: the markdown parse, then the run-spec object
 * `sharp reproduce` loads (launcher::reproSpecObject()), linted like a
 * run-spec file, and the provenance entries (a local backend, an
 * unknown SIMD backend). Each finding lands on its line.
 * @return the parsed document.
 */
record::MetadataDocument checkMetadata(const std::string &text,
                                       CheckResult &out);

/**
 * The artifact files @p paths name, for `sharp check`. A directory
 * expands to its .json, .jsonl, .md and .csv entries,
 * non-recursively and in sorted order, so whole libraries need no
 * file list; @p skipped counts its other files.
 */
std::vector<std::string>
expandArtifactPaths(const std::vector<std::string> &paths,
                    size_t &skipped);

} // namespace check
} // namespace sharp

#endif // SHARP_CHECK_ANALYZER_HH
