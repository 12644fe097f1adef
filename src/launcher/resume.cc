#include "launcher/resume.hh"

#include <stdexcept>

#include "record/journal.hh"

namespace sharp
{
namespace launcher
{

ResumedCampaign
loadResumedCampaign(const std::string &journalPath)
{
    record::JournalContents contents = record::readJournal(journalPath);
    if (contents.spec.isNull())
        throw std::runtime_error(
            "journal '" + journalPath +
            "' has no reproduction spec header; cannot resume");
    // Trim a torn trailing fragment (crash mid-write) now, while the
    // valid prefix is known, so the resumed run's appends cannot fuse
    // onto it. Only after the spec check: a file that is not a SHARP
    // journal must never be truncated.
    record::repairJsonlTail(journalPath, contents);
    ResumedCampaign campaign;
    campaign.spec = std::move(contents.spec);
    campaign.state.records = std::move(contents.records);
    campaign.state.rounds = contents.rounds;
    campaign.state.warmupRounds = contents.warmupRounds;
    campaign.done = contents.done;
    campaign.truncated = contents.truncated;
    return campaign;
}

} // namespace launcher
} // namespace sharp
