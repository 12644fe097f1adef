#include "support/metadata.hh"

#include <stdexcept>

#include "check/diagnostic.hh"
#include "util/fs.hh"

namespace sharp
{
namespace support
{

using record::MetadataDocument;

MetadataDocument
parseMetadata(const std::string &text)
{
    check::CheckResult findings;
    MetadataDocument doc = MetadataDocument::parse(text, findings);
    if (!findings.ok()) {
        throw std::runtime_error("metadata parse error at " +
                                 findings.diagnostics().front().render());
    }
    return doc;
}

MetadataDocument
loadMetadata(const std::string &path)
{
    return parseMetadata(util::readFileText(path));
}

bool
sameMetadata(const MetadataDocument &a, const MetadataDocument &b)
{
    if (a.getTitle() != b.getTitle() ||
        a.sections().size() != b.sections().size()) {
        return false;
    }
    for (size_t i = 0; i < a.sections().size(); ++i) {
        const MetadataDocument::Section &x = a.sections()[i];
        const MetadataDocument::Section &y = b.sections()[i];
        if (x.name != y.name || x.entries.size() != y.entries.size())
            return false;
        for (size_t j = 0; j < x.entries.size(); ++j) {
            if (x.entries[j].key != y.entries[j].key ||
                x.entries[j].value != y.entries[j].value) {
                return false;
            }
        }
    }
    return true;
}

} // namespace support
} // namespace sharp
