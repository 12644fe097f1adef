/**
 * @file
 * The crash-safe run journal.
 *
 * Long unattended campaigns are exactly the regime SHARP targets, and
 * an interrupted campaign must not throw away every completed sample.
 * The journal is an append-only JSON-lines file: the first line holds
 * the full reproduction spec, each following line holds one completed
 * round (warmup rounds included, flagged), and a final marker line
 * records a clean finish. Every round append is flushed and fsync'd
 * before the launcher proceeds, so after SIGKILL the journal holds
 * every round whose append returned — the unit of loss is at most the
 * round in flight.
 *
 * One walk reads the file back, for `--resume`, trace replay, baseline
 * capture and `sharp check` alike. It tolerates a torn trailing line
 * (a crash mid-write) by discarding it, which is what makes
 * `sharp run --resume` safe to point at the journal of a killed
 * process.
 */

#ifndef SHARP_RECORD_JOURNAL_HH
#define SHARP_RECORD_JOURNAL_HH

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "json/value.hh"
#include "record/run_log.hh"

namespace sharp
{
namespace check
{
class CheckResult;
} // namespace check

namespace record
{

/** How a journal file is opened. */
enum class JournalMode
{
    /**
     * A fresh campaign: truncate any pre-existing file so stale
     * rounds (or a stale 'done' marker) from an earlier campaign at
     * the same path can never mix into this one.
     */
    Fresh,
    /**
     * A resumed campaign: append after the existing rounds. The open
     * itself reads nothing; launcher::loadResumedCampaign() has
     * already read the journal once and repaired its tail, which is
     * what makes the appends safe.
     */
    Resume,
};

/**
 * Append-only writer. One journal = one experiment execution (a
 * resumed run re-opens the same file in Resume mode and continues).
 */
class RunJournal
{
  public:
    /**
     * Open @p path (created if missing) — truncating in Fresh mode,
     * appending in Resume mode.
     * @throws std::runtime_error when the file cannot be opened.
     */
    explicit RunJournal(std::string path,
                        JournalMode mode = JournalMode::Fresh);
    ~RunJournal();

    RunJournal(const RunJournal &) = delete;
    RunJournal &operator=(const RunJournal &) = delete;

    /** Write the spec header line (only for fresh journals). */
    void writeSpec(const json::Value &spec);

    /**
     * Append one completed round and fsync. All records must share
     * the same run index.
     */
    void appendRound(const std::vector<RunRecord> &records);

    /** Append the clean-completion marker and fsync. */
    void markDone();

    /** Path the journal writes to. */
    const std::string &path() const { return filePath; }

  private:
    void appendLine(const std::string &line);

    std::string filePath;
    std::FILE *file = nullptr;
};

/**
 * How one JSONL format names its framing findings: the line noun and
 * rule stem ("queue"), the artifact ("queue journal"), and the
 * torn-tail warning with its repair hint.
 */
struct JsonlFormat
{
    const char *name;
    const char *title;
    const char *torn;
    const char *tornHint;
};

/** What framing found about a JSONL text as a whole. */
struct JsonlText
{
    /** True when the text holds no line at all. */
    bool empty = false;
    /** True when a torn trailing line was discarded. */
    bool truncated = false;
    /**
     * Bytes up to the end of the last parsed line (and its newline,
     * when present), where appends must start: repairJsonlTail().
     */
    size_t validBytes = 0;
    /** True when the valid prefix ends with a newline. */
    bool terminated = true;
};

/**
 * The one JSONL framing, under every journal walk: split @p text into
 * numbered lines, parse each, and hand each object to @p visit,
 * located at its line, in order. An unparsable final line is a torn
 * tail (crash mid-write), reported as a `truncated-<name>` warning;
 * any other unparsable line, or one that is not an object, is a
 * `<name>-syntax` error; an empty text is an `empty-<name>` warning.
 * Findings are appended to @p out in line order, among @p visit's.
 */
JsonlText frameJsonl(const std::string &text, const JsonlFormat &format,
                     check::CheckResult &out,
                     const std::function<void(const json::Value &)> &visit);

/**
 * Make @p path safe to append to after a crash: cut it back to
 * @p text.validBytes (a torn fragment would fuse with the next line)
 * and supply a missing final newline; a clean file is untouched.
 * launcher::loadResumedCampaign() and QueueJournal run it on every
 * load, so `--resume`, daemon failover and restart all repair alike.
 * @throws std::runtime_error when the file cannot be modified.
 */
void repairJsonlTail(const std::string &path, const JsonlText &text);

/** Everything a journal file holds, parsed back. */
struct JournalContents : JsonlText
{
    /** The reproduction spec from the header line (null if absent). */
    json::Value spec;
    /** Every journaled record, in execution order. */
    std::vector<RunRecord> records;
    /** Number of complete rounds journaled (incl. warmup rounds). */
    size_t rounds = 0;
    /** Warmup rounds among them. */
    size_t warmupRounds = 0;
    /** True when the clean-completion marker is present. */
    bool done = false;
};

/**
 * The one reader of run-journal text: each line is parsed once, its
 * findings go to @p out at their line and column, and the lines fold
 * into the contents (a record with an error is left out). Errors,
 * which make readJournal() throw: malformed lines but the last, a line
 * of no known type, a second spec line, a round after the done marker
 * or without `records`, and a record that is not an object, has a bad
 * index, failure kind or metric, or names another workload or backend
 * than the spec (`fault+sim` is `sim`; a `scenario` spec's records
 * name their scenario or trace). Warnings never throw: a torn last
 * line, no spec line, disordered runs, and rounds outside the spec's
 * bounds. The spec's own lint is `sharp check`'s.
 */
JournalContents walkJournal(const std::string &text,
                            check::CheckResult &out);

/**
 * Read the journal at @p path: walkJournal() plus
 * check::throwIfErrors(), with @p path on every finding.
 * @throws std::runtime_error when the file cannot be read, and
 *         check::CheckFailure when the walk finds an error.
 */
JournalContents readJournal(const std::string &path);

/**
 * The one JSONL append path: write @p line plus its newline to
 * @p file, flush, and fsync, so the line is durable before the caller
 * acts on it. Every JSONL artifact that journals state (run journals,
 * the daemon's campaign queue) must route appends through this helper
 * — the durability contract lives here, and the `sharp-lint`
 * journal-append-discipline rule bans hand-rolled fwrite/fsync
 * elsewhere. @p what names the artifact in error messages ("journal",
 * "queue journal").
 * @throws std::runtime_error when the write, flush, or fsync fails.
 */
void appendJsonlLine(std::FILE *file, const std::string &line,
                     const std::string &what);

/** Serialize one record to its journal JSON object (round-trips). */
json::Value recordToJson(const RunRecord &record);

/** Parse a record serialized by recordToJson(). */
RunRecord recordFromJson(const json::Value &doc);

} // namespace record
} // namespace sharp

#endif // SHARP_RECORD_JOURNAL_HH
