/**
 * @file
 * Shared diagnostic API for artifact validation.
 *
 * Every artifact SHARP consumes or emits — workflow specs, fault
 * specs, run/repro specs, journals, calibration baselines, metadata
 * documents — is validated somewhere, and historically each validator
 * threw its own ad-hoc exception with no position information. This
 * module is the common currency those validators now speak: a
 * Diagnostic names the severity, the artifact, the source line/column
 * (threaded through json::Value by the parser), a stable rule id, the
 * message, and an optional fix hint. A CheckResult collects
 * diagnostics so `sharp check` can report *every* problem in one pass,
 * while loaders that must stop on bad input wrap the collected
 * diagnostics in a CheckFailure (an std::invalid_argument, so existing
 * callers keep working) whose what() carries the located first error.
 */

#ifndef SHARP_CHECK_DIAGNOSTIC_HH
#define SHARP_CHECK_DIAGNOSTIC_HH

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "json/value.hh"

namespace sharp
{
namespace json
{
class ParseError;
} // namespace json

namespace check
{

/** How bad a finding is. Only errors make an artifact unusable. */
enum class Severity
{
    /** Advisory context attached to another finding. */
    Note,
    /** Suspicious but loadable; the artifact still works. */
    Warning,
    /** The artifact cannot be used as-is. */
    Error,
};

/** Lowercase name, e.g. "error". */
const char *severityName(Severity severity);

/** One finding in one artifact. */
struct Diagnostic
{
    Severity severity = Severity::Error;
    /** Path of the artifact (empty when checking in-memory input). */
    std::string artifact;
    /** 1-based source position; 0 = the artifact as a whole. */
    size_t line = 0;
    size_t column = 0;
    /** Stable lint id, e.g. "json-syntax", "dangling-workload". */
    std::string rule;
    std::string message;
    /** Optional fix hint ("did you mean 'slow_factor'?"). */
    std::string hint;

    /** One-line human-readable form (file:line:col: severity: ...). */
    std::string render() const;

    /** Machine-readable form (omits empty/zero fields). */
    json::Value toJson() const;
};

/**
 * An ordered collection of diagnostics for one check run.
 *
 * Checkers append findings as they go; the artifact path set via
 * setArtifact() is stamped onto every subsequently added diagnostic
 * so per-document checkers stay path-agnostic.
 */
class CheckResult
{
  public:
    /** Stamp @p path onto diagnostics added from now on. */
    void setArtifact(std::string path) { artifactPath = std::move(path); }
    const std::string &artifact() const { return artifactPath; }

    /** Append a fully-formed diagnostic (artifact filled if empty). */
    void add(Diagnostic diagnostic);

    /** Append with an explicit source location (may be unknown). */
    void report(Severity severity, json::Location where,
                std::string rule, std::string message,
                std::string hint = "");

    /** Append, taking the location @p where carries from parsing. */
    void report(Severity severity, const json::Value &where,
                std::string rule, std::string message,
                std::string hint = "");

    /** Convenience severities with a value-derived location. */
    void error(const json::Value &where, std::string rule,
               std::string message, std::string hint = "");
    void warning(const json::Value &where, std::string rule,
                 std::string message, std::string hint = "");

    /** Convenience severities against the whole artifact. */
    void error(std::string rule, std::string message,
               std::string hint = "");
    void warning(std::string rule, std::string message,
                 std::string hint = "");

    /** Append a JSON parse error as a "json-syntax" error at its place. */
    void syntaxError(const json::ParseError &problem);

    const std::vector<Diagnostic> &diagnostics() const
    {
        return diagnosticList;
    }

    size_t errorCount() const;
    size_t warningCount() const;

    /** True when the artifact is usable (no errors). */
    bool ok() const { return errorCount() == 0; }
    /** True when there is nothing to report at all. */
    bool clean() const { return diagnosticList.empty(); }

    /**
     * The `sharp check` exit-code contract: 0 clean, 1 warnings only,
     * 2 any error.
     */
    int exitCode() const;

    /** Append another result's diagnostics (their artifacts kept). */
    void merge(const CheckResult &other);

    /** One rendered line per diagnostic. */
    std::string renderText() const;

    /**
     * Machine-readable summary:
     * {"errors": N, "warnings": N, "diagnostics": [...]}.
     */
    json::Value toJson() const;

  private:
    std::string artifactPath;
    std::vector<Diagnostic> diagnosticList;
};

/**
 * Thrown by loaders when a checked document has errors. Derives
 * std::invalid_argument so pre-Diagnostic call sites (and tests)
 * observe the same exception family they always did; what() is the
 * rendered first error, with a count of any further findings.
 */
class CheckFailure : public std::invalid_argument
{
  public:
    explicit CheckFailure(CheckResult result);

    /** Every diagnostic the failed check produced. */
    const CheckResult &result() const { return *failed; }

  private:
    /** Shared so the exception stays nothrow-copyable. */
    std::shared_ptr<const CheckResult> failed;
};

/**
 * Throw CheckFailure when @p result holds errors; no-op otherwise.
 * The standard tail of every strict loader.
 */
void throwIfErrors(CheckResult result);

/**
 * The entry of @p known that @p name is plausibly a typo for (within
 * two edits; the closest, first on a tie); empty when there is none.
 */
std::string closestName(const std::string &name,
                        const std::vector<std::string> &known);

/** A "did you mean 'X'?" hint naming closestName(); empty without one. */
std::string suggestName(const std::string &name,
                        const std::vector<std::string> &known);

/**
 * Warn about members of @p object whose keys are not in @p known —
 * the typo detector for config documents, with a suggestName() hint.
 * @p what names the artifact kind in the message ("fault spec").
 */
void checkKnownFields(const json::Value &object,
                      const std::vector<std::string> &known,
                      const std::string &what, CheckResult &out);

/** 2^53: the largest bound at which every JSON double is an integer. */
inline constexpr long maxExactInteger = 9007199254740992L;

/**
 * Check the integer member @p key of @p object, when present: it must
 * be a number with no fractional part in [@p minimum, @p maximum].
 * Anything else gets one located `out-of-range` error. The default
 * bound, 2^53, keeps loaders' `long`/`size_t` conversions defined; a
 * field loaded into an `int` passes INT_MAX.
 * @return the member when it is present and valid, nullptr otherwise.
 */
const json::Value *checkIntegerField(const json::Value &object,
                                     const char *key, long minimum,
                                     CheckResult &out,
                                     long maximum = maxExactInteger);

} // namespace check
} // namespace sharp

#endif // SHARP_CHECK_DIAGNOSTIC_HH
