#include "serve/queue.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "check/diagnostic.hh"
#include "json/parser.hh"
#include "json/writer.hh"
#include "launcher/reproduce.hh"
#include "record/journal.hh"
#include "util/fs.hh"
#include "util/string_utils.hh"

namespace sharp
{
namespace serve
{

namespace
{

constexpr const char *queueSchema = "sharp-queue-v1";

const std::vector<std::string> eventNames = {
    "submit", "start", "failover", "done",
    "failed", "cancel", "drain"};

bool
isTerminal(CampaignState state)
{
    return state == CampaignState::Done ||
           state == CampaignState::Failed ||
           state == CampaignState::Cancelled;
}

} // anonymous namespace

const char *
campaignStateName(CampaignState state)
{
    switch (state) {
    case CampaignState::Queued:
        return "queued";
    case CampaignState::Running:
        return "running";
    case CampaignState::Done:
        return "done";
    case CampaignState::Failed:
        return "failed";
    case CampaignState::Cancelled:
        return "cancelled";
    }
    return "unknown";
}

QueueContents
walkQueue(const std::string &text, check::CheckResult &out, bool lintSpecs)
{
    using check::Severity;
    static const record::JsonlFormat format = {
        "queue", "queue journal",
        "torn trailing line (crash mid-append); the daemon repairs it on "
        "restart",
        "restart `sharp serve` on the same state directory to repair and "
        "resume"};
    QueueContents contents;
    auto find = [&contents](const std::string &id) -> Campaign * {
        for (auto &campaign : contents.campaigns) {
            if (campaign.id == id)
                return &campaign;
        }
        return nullptr;
    };

    bool saw_schema = false;
    auto visit = [&](const json::Value &doc) {
        json::Location whole_line{doc.location().line, 1};
        if (!saw_schema) {
            if (doc.getString("schema", "") != queueSchema) {
                out.report(Severity::Error, whole_line, "queue-schema",
                           "first line must carry the '" +
                               std::string(queueSchema) +
                               "' schema header");
            }
            saw_schema = true;
            return;
        }
        std::string event = doc.getString("event", "");
        if (event.empty()) {
            out.report(Severity::Error, whole_line, "missing-field",
                       "queue event lacks an 'event' name");
            return;
        }
        if (std::find(eventNames.begin(), eventNames.end(), event) ==
            eventNames.end()) {
            out.report(Severity::Error, whole_line, "unknown-event",
                       "unknown queue event '" + event + "'",
                       check::suggestName(event, eventNames));
            return;
        }
        if (event == "drain")
            return; // informational; per-campaign state is authoritative
        std::string id = doc.getString("id", "");
        if (id.empty()) {
            out.report(Severity::Error, whole_line, "missing-field",
                       "'" + event + "' event lacks an 'id'");
            return;
        }
        Campaign *campaign = find(id);
        if (event == "submit") {
            if (campaign) {
                out.report(Severity::Error, whole_line, "queue-order",
                           "duplicate submit for campaign '" + id + "'");
                return;
            }
            Campaign submitted;
            submitted.id = id;
            submitted.tenant = doc.getString("tenant", "default");
            const json::Value *spec = doc.find("spec");
            if (!spec || !spec->isObject()) {
                out.report(Severity::Error, whole_line, "missing-field",
                           "submit event lacks a 'spec' object");
            } else {
                submitted.spec = *spec;
            }
            if (lintSpecs && submitted.spec.isObject()) {
                // A queue full of unusable campaigns is caught at
                // rest, not at dispatch.
                check::CheckResult lint;
                launcher::checkRunSpec(submitted.spec, lint);
                for (const auto &finding : lint.diagnostics()) {
                    out.report(finding.severity, whole_line,
                               finding.rule,
                               "in submitted spec '" + id +
                                   "': " + finding.message,
                               finding.hint);
                }
            }
            contents.campaigns.push_back(std::move(submitted));
            // Ids are allocated as "c<number>"; replay the counter so
            // a restarted daemon never reuses an id.
            auto number = util::parseLong(id.substr(1));
            if (id[0] == 'c' && number && *number >= 0) {
                contents.nextIdNumber = std::max(
                    contents.nextIdNumber, static_cast<size_t>(*number) + 1);
            }
            return;
        }
        if (!campaign) {
            out.report(Severity::Error, whole_line, "queue-order",
                       "'" + event + "' event for campaign '" + id +
                           "' before its submit");
            return;
        }
        if (isTerminal(campaign->state)) {
            out.report(Severity::Error, whole_line, "queue-order",
                       "'" + event + "' event for campaign '" + id +
                           "' after its terminal '" +
                           campaignStateName(campaign->state) +
                           "' state");
            return;
        }
        if (event == "start") {
            campaign->started = true;
            // Replay cannot assert "running": the shard died with the
            // daemon. The campaign re-queues and resumes its journal.
            campaign->state = CampaignState::Queued;
        } else if (event == "failover") {
            ++campaign->failovers;
            campaign->state = CampaignState::Queued;
        } else if (event == "done") {
            campaign->state = CampaignState::Done;
        } else if (event == "failed") {
            campaign->state = CampaignState::Failed;
            campaign->reason = doc.getString("reason", "");
        } else {
            campaign->state = CampaignState::Cancelled;
        }
    };
    static_cast<record::JsonlText &>(contents) =
        record::frameJsonl(text, format, out, visit);
    return contents;
}

QueueContents
readQueue(const std::string &path)
{
    if (!util::fileExists(path))
        return {};
    check::CheckResult findings;
    findings.setArtifact(path);
    QueueContents contents =
        walkQueue(util::readFileText(path), findings, false);
    check::throwIfErrors(std::move(findings));
    return contents;
}

QueueJournal::QueueJournal(std::string path) : filePath(std::move(path))
{
    // Same torn-tail discipline as run journals: never append after a
    // fragment a crash left behind. A missing file reads as empty.
    QueueContents contents = readQueue(filePath);
    record::repairJsonlTail(filePath, contents);
    file = std::fopen(filePath.c_str(), "ab");
    if (!file) {
        throw std::runtime_error("cannot open queue journal '" +
                                 filePath + "': " +
                                 std::strerror(errno));
    }
    if (contents.validBytes == 0) {
        json::Value header = json::Value::makeObject();
        header.set("schema", queueSchema);
        append(header);
    }
}

QueueJournal::~QueueJournal()
{
    if (file)
        std::fclose(file);
}

void
QueueJournal::append(const json::Value &event)
{
    // The daemon acts on an event only after it is durable; replay
    // after SIGKILL must see everything clients were told about.
    record::appendJsonlLine(file, json::write(event), "queue journal");
}

void
QueueJournal::submit(const std::string &id, const std::string &tenant,
                     const json::Value &spec)
{
    json::Value event = json::Value::makeObject();
    event.set("event", "submit");
    event.set("id", id);
    event.set("tenant", tenant);
    event.set("spec", spec);
    append(event);
}

void
QueueJournal::start(const std::string &id, size_t shard)
{
    json::Value event = json::Value::makeObject();
    event.set("event", "start");
    event.set("id", id);
    event.set("shard", shard);
    append(event);
}

void
QueueJournal::failover(const std::string &id, const std::string &reason)
{
    json::Value event = json::Value::makeObject();
    event.set("event", "failover");
    event.set("id", id);
    event.set("reason", reason);
    append(event);
}

void
QueueJournal::done(const std::string &id)
{
    json::Value event = json::Value::makeObject();
    event.set("event", "done");
    event.set("id", id);
    append(event);
}

void
QueueJournal::failed(const std::string &id, const std::string &reason)
{
    json::Value event = json::Value::makeObject();
    event.set("event", "failed");
    event.set("id", id);
    event.set("reason", reason);
    append(event);
}

void
QueueJournal::cancel(const std::string &id)
{
    json::Value event = json::Value::makeObject();
    event.set("event", "cancel");
    event.set("id", id);
    append(event);
}

void
QueueJournal::drain()
{
    json::Value event = json::Value::makeObject();
    event.set("event", "drain");
    append(event);
}

bool
looksLikeQueueJournal(const std::string &text)
{
    size_t end = text.find('\n');
    std::string first =
        end == std::string::npos ? text : text.substr(0, end);
    if (first.find(queueSchema) == std::string::npos)
        return false;
    try {
        json::Value doc = json::parse(first);
        return doc.isObject() &&
               doc.getString("schema", "") == queueSchema;
    } catch (const std::exception &) {
        return false;
    }
}

} // namespace serve
} // namespace sharp
