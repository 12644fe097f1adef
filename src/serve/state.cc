#include "serve/state.hh"

#include "check/diagnostic.hh"
#include "json/writer.hh"

namespace sharp
{
namespace serve
{

void
checkDaemonState(const json::Value &doc, check::CheckResult &out)
{
    if (!doc.isObject()) {
        out.error(doc, "wrong-type",
                  "daemon state must be a JSON object");
        return;
    }
    static const std::vector<std::string> known = {
        "schema",       "socket",
        "shards",       "max_queued_per_tenant",
        "round_deadline_seconds", "max_failovers",
        "pid",          "drained"};
    check::checkKnownFields(doc, known, "daemon state", out);

    const json::Value *schema = doc.find("schema");
    if (!schema || !schema->isString() ||
        schema->asString() != daemonStateSchema) {
        out.error(schema ? *schema : doc, "missing-field",
                  std::string("daemon state must carry \"schema\": \"") +
                      daemonStateSchema + "\"");
    }
    if (const json::Value *socket = doc.find("socket")) {
        if (!socket->isString() || socket->asString().empty())
            out.error(*socket, "wrong-type",
                      "'socket' must be a non-empty string");
    }
    check::checkIntegerField(doc, "shards", 1, out);
    for (const char *key : {"max_queued_per_tenant", "max_failovers", "pid"})
        check::checkIntegerField(doc, key, 0, out);
    if (const json::Value *deadline =
            doc.find("round_deadline_seconds")) {
        if (!deadline->isNumber())
            out.error(*deadline, "wrong-type",
                      "'round_deadline_seconds' must be a number");
        else if (deadline->asNumber() <= 0.0)
            out.error(*deadline, "out-of-range",
                      "'round_deadline_seconds' must be > 0");
    }
    if (const json::Value *drained = doc.find("drained")) {
        if (!drained->isBool())
            out.error(*drained, "wrong-type",
                      "'drained' must be a boolean");
    }
}

DaemonState
DaemonState::fromJson(const json::Value &doc)
{
    check::CheckResult findings;
    checkDaemonState(doc, findings);
    check::throwIfErrors(std::move(findings));

    DaemonState state;
    state.socket = doc.getString("socket", "");
    state.shards = static_cast<size_t>(doc.getLong("shards", 2));
    state.maxQueuedPerTenant =
        static_cast<size_t>(doc.getLong("max_queued_per_tenant", 8));
    state.roundDeadlineSeconds =
        doc.getNumber("round_deadline_seconds", 60.0);
    state.maxFailovers =
        static_cast<size_t>(doc.getLong("max_failovers", 3));
    state.pid = doc.getLong("pid", 0);
    state.drained = doc.getBool("drained", false);
    return state;
}

json::Value
DaemonState::toJson() const
{
    json::Value doc = json::Value::makeObject();
    doc.set("schema", daemonStateSchema);
    doc.set("socket", socket);
    doc.set("shards", shards);
    doc.set("max_queued_per_tenant", maxQueuedPerTenant);
    doc.set("round_deadline_seconds", roundDeadlineSeconds);
    doc.set("max_failovers", maxFailovers);
    doc.set("pid", pid);
    doc.set("drained", drained);
    return doc;
}

void
DaemonState::save(const std::string &path) const
{
    json::writeFile(toJson(), path);
}

} // namespace serve
} // namespace sharp
