#include "check/diagnostic.hh"

#include <algorithm>
#include <cmath>

#include "json/parser.hh"

namespace sharp
{
namespace check
{

const char *
severityName(Severity severity)
{
    switch (severity) {
      case Severity::Note: return "note";
      case Severity::Warning: return "warning";
      case Severity::Error: return "error";
    }
    return "unknown";
}

std::string
Diagnostic::render() const
{
    std::string out;
    if (!artifact.empty()) {
        out += artifact;
        if (line != 0) {
            out += ':' + std::to_string(line);
            if (column != 0)
                out += ':' + std::to_string(column);
        }
        out += ": ";
    } else if (line != 0) {
        out += "line " + std::to_string(line) + ": ";
    }
    out += severityName(severity);
    out += ": ";
    out += message;
    if (!rule.empty())
        out += " [" + rule + "]";
    if (!hint.empty())
        out += " (hint: " + hint + ")";
    return out;
}

json::Value
Diagnostic::toJson() const
{
    json::Value doc = json::Value::makeObject();
    doc.set("severity", severityName(severity));
    if (!artifact.empty())
        doc.set("artifact", artifact);
    if (line != 0) {
        doc.set("line", line);
        if (column != 0)
            doc.set("column", column);
    }
    doc.set("rule", rule);
    doc.set("message", message);
    if (!hint.empty())
        doc.set("hint", hint);
    return doc;
}

void
CheckResult::add(Diagnostic diagnostic)
{
    if (diagnostic.artifact.empty())
        diagnostic.artifact = artifactPath;
    diagnosticList.push_back(std::move(diagnostic));
}

void
CheckResult::report(Severity severity, json::Location where,
                    std::string rule, std::string message,
                    std::string hint)
{
    Diagnostic diagnostic;
    diagnostic.severity = severity;
    diagnostic.line = where.line;
    diagnostic.column = where.column;
    diagnostic.rule = std::move(rule);
    diagnostic.message = std::move(message);
    diagnostic.hint = std::move(hint);
    add(std::move(diagnostic));
}

void
CheckResult::report(Severity severity, const json::Value &where,
                    std::string rule, std::string message,
                    std::string hint)
{
    report(severity, where.location(), std::move(rule),
           std::move(message), std::move(hint));
}

void
CheckResult::error(const json::Value &where, std::string rule,
                   std::string message, std::string hint)
{
    report(Severity::Error, where, std::move(rule), std::move(message),
           std::move(hint));
}

void
CheckResult::warning(const json::Value &where, std::string rule,
                     std::string message, std::string hint)
{
    report(Severity::Warning, where, std::move(rule),
           std::move(message), std::move(hint));
}

void
CheckResult::error(std::string rule, std::string message,
                   std::string hint)
{
    report(Severity::Error, json::Location{}, std::move(rule),
           std::move(message), std::move(hint));
}

void
CheckResult::warning(std::string rule, std::string message,
                     std::string hint)
{
    report(Severity::Warning, json::Location{}, std::move(rule),
           std::move(message), std::move(hint));
}

void
CheckResult::syntaxError(const json::ParseError &problem)
{
    report(Severity::Error,
           json::Location{static_cast<uint32_t>(problem.line),
                          static_cast<uint32_t>(problem.column)},
           "json-syntax", problem.what());
}

size_t
CheckResult::errorCount() const
{
    return static_cast<size_t>(std::count_if(
        diagnosticList.begin(), diagnosticList.end(),
        [](const Diagnostic &d) {
            return d.severity == Severity::Error;
        }));
}

size_t
CheckResult::warningCount() const
{
    return static_cast<size_t>(std::count_if(
        diagnosticList.begin(), diagnosticList.end(),
        [](const Diagnostic &d) {
            return d.severity == Severity::Warning;
        }));
}

int
CheckResult::exitCode() const
{
    if (errorCount() > 0)
        return 2;
    if (warningCount() > 0)
        return 1;
    return 0;
}

void
CheckResult::merge(const CheckResult &other)
{
    for (const auto &diagnostic : other.diagnosticList)
        diagnosticList.push_back(diagnostic);
}

std::string
CheckResult::renderText() const
{
    std::string out;
    for (const auto &diagnostic : diagnosticList) {
        out += diagnostic.render();
        out += '\n';
    }
    return out;
}

json::Value
CheckResult::toJson() const
{
    json::Value doc = json::Value::makeObject();
    doc.set("errors", errorCount());
    doc.set("warnings", warningCount());
    json::Value list = json::Value::makeArray();
    for (const auto &diagnostic : diagnosticList)
        list.append(diagnostic.toJson());
    doc.set("diagnostics", std::move(list));
    return doc;
}

namespace
{

std::string
describeFailure(const CheckResult &result)
{
    const Diagnostic *first = nullptr;
    for (const auto &diagnostic : result.diagnostics()) {
        if (diagnostic.severity == Severity::Error) {
            first = &diagnostic;
            break;
        }
    }
    if (!first)
        return "check failed";
    std::string out = first->render();
    size_t rest = result.diagnostics().size() - 1;
    if (rest > 0)
        out += " (+" + std::to_string(rest) + " more finding" +
               (rest == 1 ? "" : "s") + ")";
    return out;
}

} // anonymous namespace

CheckFailure::CheckFailure(CheckResult result)
    : std::invalid_argument(describeFailure(result)),
      failed(std::make_shared<const CheckResult>(std::move(result)))
{}

void
throwIfErrors(CheckResult result)
{
    if (!result.ok())
        throw CheckFailure(std::move(result));
}

namespace
{

/** Bounded Levenshtein distance; anything > 3 is reported as 4. */
size_t
editDistance(const std::string &a, const std::string &b)
{
    const size_t cap = 4;
    if (a.size() > b.size() + cap || b.size() > a.size() + cap)
        return cap;
    std::vector<size_t> row(b.size() + 1);
    for (size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (size_t i = 1; i <= a.size(); ++i) {
        size_t diag = row[0];
        row[0] = i;
        for (size_t j = 1; j <= b.size(); ++j) {
            size_t previous = row[j];
            size_t substitute = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
            row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitute});
            diag = previous;
        }
    }
    return std::min(row[b.size()], cap);
}

} // anonymous namespace

std::string
closestName(const std::string &name,
            const std::vector<std::string> &known)
{
    const std::string *best = nullptr;
    size_t best_distance = 3; // farther than 2 edits reads as unrelated
    for (const auto &candidate : known) {
        size_t distance = editDistance(name, candidate);
        if (distance < best_distance) {
            best_distance = distance;
            best = &candidate;
        }
    }
    return best ? *best : "";
}

std::string
suggestName(const std::string &name,
            const std::vector<std::string> &known)
{
    std::string best = closestName(name, known);
    return best.empty() ? "" : "did you mean '" + best + "'?";
}

void
checkKnownFields(const json::Value &object,
                 const std::vector<std::string> &known,
                 const std::string &what, CheckResult &out)
{
    if (!object.isObject())
        return;
    for (const auto &[key, value] : object.members()) {
        if (std::find(known.begin(), known.end(), key) != known.end())
            continue;
        out.warning(value, "unknown-field",
                    "unknown field '" + key + "' in " + what,
                    suggestName(key, known));
    }
}

const json::Value *
checkIntegerField(const json::Value &object, const char *key,
                  long minimum, CheckResult &out, long maximum)
{
    const json::Value *value = object.find(key);
    if (!value)
        return nullptr;
    if (value->isNumber()) {
        double number = value->asNumber();
        if (number >= static_cast<double>(minimum) &&
            number <= static_cast<double>(maximum) &&
            number == std::floor(number))
            return value;
    }
    out.error(*value, "out-of-range",
              "'" + std::string(key) + "' must be an integer in [" +
                  std::to_string(minimum) + ", " +
                  (maximum == maxExactInteger ? "2^53"
                                              : std::to_string(maximum)) +
                  "]");
    return nullptr;
}

} // namespace check
} // namespace sharp
