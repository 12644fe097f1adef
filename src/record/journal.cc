#include "record/journal.hh"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "check/diagnostic.hh"
#include "json/parser.hh"
#include "json/writer.hh"
#include "util/fs.hh"
#include "util/string_utils.hh"

namespace sharp
{
namespace record
{

using check::Severity;

RunJournal::RunJournal(std::string path_in, JournalMode mode)
    : filePath(std::move(path_in))
{
    file = std::fopen(filePath.c_str(),
                      mode == JournalMode::Resume ? "ab" : "wb");
    if (!file) {
        throw std::runtime_error("cannot open journal '" + filePath +
                                 "': " + std::strerror(errno));
    }
}

RunJournal::~RunJournal()
{
    if (file)
        std::fclose(file);
}

void
appendJsonlLine(std::FILE *file, const std::string &line,
                const std::string &what)
{
    if (std::fwrite(line.data(), 1, line.size(), file) != line.size() ||
        std::fputc('\n', file) == EOF || std::fflush(file) != 0) {
        throw std::runtime_error(what + " write failed: " +
                                 std::string(std::strerror(errno)));
    }
    // The fsync is the crash-safety contract: once the append
    // returns, the line survives SIGKILL and power loss.
    if (fsync(fileno(file)) != 0) {
        throw std::runtime_error(what + " fsync failed: " +
                                 std::string(std::strerror(errno)));
    }
}

void
RunJournal::appendLine(const std::string &line)
{
    appendJsonlLine(file, line, "journal");
}

void
RunJournal::writeSpec(const json::Value &spec)
{
    json::Value line = json::Value::makeObject();
    line.set("type", "spec");
    line.set("spec", spec);
    appendLine(json::write(line));
}

void
RunJournal::appendRound(const std::vector<RunRecord> &records)
{
    json::Value line = json::Value::makeObject();
    line.set("type", "round");
    if (!records.empty()) {
        line.set("run", records.front().run);
        line.set("warmup", records.front().warmup);
    }
    json::Value list = json::Value::makeArray();
    for (const auto &record : records)
        list.append(recordToJson(record));
    line.set("records", std::move(list));
    appendLine(json::write(line));
}

void
RunJournal::markDone()
{
    json::Value line = json::Value::makeObject();
    line.set("type", "done");
    appendLine(json::write(line));
}

json::Value
recordToJson(const RunRecord &record)
{
    json::Value doc = json::Value::makeObject();
    doc.set("run", record.run);
    doc.set("instance", record.instance);
    doc.set("attempt", record.attempt);
    doc.set("workload", record.workload);
    doc.set("backend", record.backend);
    doc.set("machine", record.machine);
    doc.set("day", record.day);
    doc.set("warmup", record.warmup);
    doc.set("failure", failureKindName(record.failure));
    json::Value metrics = json::Value::makeObject();
    for (const auto &[name, value] : record.metrics)
        metrics.set(name, value);
    doc.set("metrics", std::move(metrics));
    return doc;
}

RunRecord
recordFromJson(const json::Value &doc)
{
    if (!doc.isObject())
        throw std::runtime_error("journal record must be an object");
    RunRecord record;
    record.run = static_cast<size_t>(doc.getLong("run", 0));
    record.instance = static_cast<size_t>(doc.getLong("instance", 0));
    record.attempt = static_cast<size_t>(doc.getLong("attempt", 0));
    record.workload = doc.getString("workload", "");
    record.backend = doc.getString("backend", "");
    record.machine = doc.getString("machine", "");
    record.day = static_cast<int>(doc.getLong("day", 0));
    record.warmup = doc.getBool("warmup", false);
    record.failure =
        failureKindFromName(doc.getString("failure", "none"));
    if (const json::Value *metrics = doc.find("metrics")) {
        for (const auto &[name, value] : metrics->members())
            record.metrics[name] = value.asNumber();
    }
    return record;
}

JsonlText
frameJsonl(const std::string &text, const JsonlFormat &format,
           check::CheckResult &out,
           const std::function<void(const json::Value &)> &visit)
{
    JsonlText framed;
    const std::string name = format.name;
    std::vector<std::string> lines = util::split(text, '\n');
    // A healthy file ends with a newline, so its final fields are
    // empty; the last non-empty one is the only line a crash can tear.
    size_t last = lines.size();
    while (last > 0 && lines[last - 1].empty())
        --last;
    if (last == 0) {
        framed.empty = true;
        out.warning("empty-" + name,
                    std::string(format.title) + " holds no lines");
        return framed;
    }
    for (size_t i = 0, start = 0; i < last;
         start += lines[i++].size() + 1) {
        const std::string &line = lines[i];
        size_t end = start + line.size();
        if (line.empty())
            continue;
        json::Location whole_line{static_cast<uint32_t>(i + 1), 1};
        json::Value doc;
        try {
            doc = json::parse(line);
        } catch (const std::exception &problem) {
            if (i + 1 == last) {
                framed.truncated = true;
                out.report(Severity::Warning, whole_line,
                           "truncated-" + name, format.torn,
                           format.tornHint);
            } else {
                out.report(Severity::Error, whole_line, name + "-syntax",
                           "malformed " + name + " line: " +
                               problem.what());
            }
            continue;
        }
        framed.terminated = end < text.size();
        framed.validBytes = end + (framed.terminated ? 1 : 0);
        if (!doc.isObject()) {
            out.report(Severity::Error, whole_line, name + "-syntax",
                       name + " line must be a JSON object");
            continue;
        }
        doc.moveToLine(whole_line.line, true);
        visit(doc);
    }
    return framed;
}

namespace
{

/** @p object's member @p key when it is a count in [0, 2^53], else -1. */
long
countOr(const json::Value &object, const char *key)
{
    double value = object.getNumber(key, -1.0);
    bool count = value >= 0.0 &&
                 value <= static_cast<double>(check::maxExactInteger) &&
                 value == std::floor(value);
    return count ? static_cast<long>(value) : -1;
}

/**
 * Check one journaled record against @p spec, the journal's header
 * (null before it).
 * @return true when it has no error, so it folds.
 */
bool
checkRecord(const json::Value &entry, const json::Value &spec,
            check::CheckResult &out)
{
    if (!entry.isObject()) {
        out.error(entry, "wrong-type", "journal record must be an object");
        return false;
    }
    bool folds = true;
    auto fail = [&](const json::Value &where, const char *rule,
                    const std::string &message) {
        out.error(where, rule, message);
        folds = false;
    };
    for (const char *key : {"run", "instance", "attempt", "day"}) {
        if (entry.find(key) && !check::checkIntegerField(entry, key, 0, out))
            folds = false;
    }
    std::string failure = entry.getString("failure", "none");
    try {
        failureKindFromName(failure);
    } catch (const std::invalid_argument &) {
        fail(entry, "unknown-name", "unknown failure kind '" + failure + "'");
    }
    std::string spec_workload =
        spec.isObject() ? spec.getString("workload", "") : "";
    std::string spec_backend =
        spec.isObject() ? spec.getString("backend", "") : "";
    // A scenario backend names its records itself: after the scenario,
    // or after the campaign its trace recorded.
    std::string workload = entry.getString("workload", "");
    if (!spec_workload.empty() && spec_backend != "scenario" &&
        workload != spec_workload) {
        fail(entry, "journal-spec-mismatch",
             "record workload '" + workload +
                 "' disagrees with the journaled spec ('" + spec_workload +
                 "')");
    }
    // Fault injection decorates the backend name ("fault+sim")
    // without changing the spec it runs.
    std::string backend = entry.getString("backend", "");
    if (backend == "fault+" + spec_backend)
        backend = spec_backend;
    if (!spec_backend.empty() && spec_backend != "scenario" &&
        !backend.empty() && backend != spec_backend) {
        fail(entry, "journal-spec-mismatch",
             "record backend '" + backend +
                 "' disagrees with the journaled spec ('" + spec_backend +
                 "')");
    }
    if (const json::Value *metrics = entry.find("metrics")) {
        if (!metrics->isObject()) {
            fail(*metrics, "wrong-type", "'metrics' must be an object");
            return false;
        }
        for (const auto &[name, value] : metrics->members()) {
            if (!value.isNumber())
                fail(value, "wrong-type",
                     "metric '" + name + "' must be a number");
        }
    }
    return folds;
}

} // anonymous namespace

JournalContents
walkJournal(const std::string &text, check::CheckResult &out)
{
    static const JsonlFormat format = {
        "journal", "journal",
        "torn trailing line (crash mid-write); the reader discards it",
        "run `sharp run --resume` to repair and continue the campaign"};
    JournalContents contents;
    long spec_min = -1;
    long spec_max = -1;
    long last_run = -1;
    size_t measured_rounds = 0;
    auto visit = [&](const json::Value &doc) {
        json::Location whole_line{doc.location().line, 1};
        std::string type = doc.getString("type", "");
        if (type == "spec") {
            if (!contents.spec.isNull()) {
                out.report(Severity::Error, whole_line, "journal-order",
                           "duplicate spec line; a journal describes "
                           "exactly one campaign");
                return;
            }
            if (whole_line.line != 1) {
                out.report(Severity::Warning, whole_line,
                           "journal-order",
                           "spec line is not the first line");
            }
            const json::Value *header = doc.find("spec");
            if (!header || !header->isObject()) {
                out.report(Severity::Error, whole_line, "missing-field",
                           "spec line lacks a 'spec' object");
                return;
            }
            const json::Value *experiment = header->find("experiment");
            if (experiment && experiment->isObject()) {
                spec_min = countOr(*experiment, "min");
                spec_max = countOr(*experiment, "max");
            }
            contents.spec = *header;
        } else if (type == "round") {
            if (contents.done) {
                out.report(Severity::Error, whole_line, "journal-order",
                           "round recorded after the done marker");
            }
            ++contents.rounds;
            if (doc.getBool("warmup", false))
                ++contents.warmupRounds;
            else
                ++measured_rounds;
            if (check::checkIntegerField(doc, "run", 0, out)) {
                long run = countOr(doc, "run");
                if (run <= last_run) {
                    out.report(Severity::Warning, whole_line,
                               "journal-order",
                               "run index " + std::to_string(run) +
                                   " does not advance past the previous "
                                   "round (" +
                                   std::to_string(last_run) + ")");
                }
                last_run = run;
            }
            const json::Value *records = doc.find("records");
            if (!records || !records->isArray()) {
                out.report(Severity::Error, whole_line, "missing-field",
                           "round line lacks a 'records' array");
                return;
            }
            for (const json::Value &entry : records->asArray()) {
                if (checkRecord(entry, contents.spec, out))
                    contents.records.push_back(recordFromJson(entry));
            }
        } else if (type == "done") {
            if (contents.done) {
                out.report(Severity::Warning, whole_line,
                           "journal-order", "duplicate done marker");
            }
            contents.done = true;
        } else {
            out.report(Severity::Error, whole_line, "journal-type",
                       "unknown journal line type '" + type + "'");
        }
    };
    static_cast<JsonlText &>(contents) =
        frameJsonl(text, format, out, visit);
    if (contents.empty)
        return contents;

    if (contents.spec.isNull()) {
        out.warning("missing-spec",
                    "journal has no spec line; `sharp run --resume` "
                    "cannot rebuild the experiment from it");
    }
    if (spec_max > 0 && measured_rounds > static_cast<size_t>(spec_max)) {
        out.warning("journal-overrun",
                    "journal holds " + std::to_string(measured_rounds) +
                        " measured rounds but the spec caps the "
                        "experiment at " +
                        std::to_string(spec_max));
    }
    if (contents.done && spec_min > 0 &&
        measured_rounds < static_cast<size_t>(spec_min)) {
        out.warning("journal-underrun",
                    "journal finished with " +
                        std::to_string(measured_rounds) +
                        " measured rounds, below the spec minimum of " +
                        std::to_string(spec_min));
    }
    return contents;
}

JournalContents
readJournal(const std::string &path)
{
    check::CheckResult findings;
    findings.setArtifact(path);
    JournalContents contents =
        walkJournal(util::readFileText(path), findings);
    check::throwIfErrors(std::move(findings));
    return contents;
}

void
repairJsonlTail(const std::string &path, const JsonlText &text)
{
    struct stat st = {};
    bool oversized = ::stat(path.c_str(), &st) == 0 &&
                     static_cast<size_t>(st.st_size) > text.validBytes;
    if (oversized &&
        ::truncate(path.c_str(), static_cast<off_t>(text.validBytes)) != 0) {
        throw std::runtime_error("cannot trim torn journal '" + path +
                                 "': " + std::strerror(errno));
    }
    if (text.terminated)
        return;
    // The last valid line lost its newline (crash between the write
    // and the terminator); supply it so appends start a fresh line.
    std::FILE *out = std::fopen(path.c_str(), "ab");
    if (!out) {
        throw std::runtime_error("cannot terminate journal '" + path +
                                 "': " + std::strerror(errno));
    }
    bool wrote = std::fputc('\n', out) != EOF;
    bool closed = std::fclose(out) == 0;
    if (!wrote || !closed) {
        throw std::runtime_error("cannot terminate journal '" + path +
                                 "': " + std::strerror(errno));
    }
}

} // namespace record
} // namespace sharp
