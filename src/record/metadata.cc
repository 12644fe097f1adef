#include "record/metadata.hh"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "check/diagnostic.hh"
#include "util/string_utils.hh"

namespace sharp
{
namespace record
{

using util::startsWith;
using util::trim;

MetadataDocument::Section &
MetadataDocument::sectionByName(const std::string &name)
{
    for (auto &section : sectionList) {
        if (section.name == name)
            return section;
    }
    sectionList.push_back(Section{name, {}});
    return sectionList.back();
}

const MetadataDocument::Section *
MetadataDocument::findSection(const std::string &name) const
{
    for (const auto &section : sectionList) {
        if (section.name == name)
            return &section;
    }
    return nullptr;
}

void
MetadataDocument::set(const std::string &section, const std::string &key,
                      const std::string &value)
{
    Section &sec = sectionByName(section);
    for (auto &entry : sec.entries) {
        if (entry.key == key) {
            entry.value = value;
            return;
        }
    }
    sec.entries.push_back(Entry{key, value});
}

const MetadataDocument::Entry *
MetadataDocument::findEntry(const std::string &section,
                            const std::string &key) const
{
    const Section *sec = findSection(section);
    if (!sec)
        return nullptr;
    for (const auto &entry : sec->entries) {
        if (entry.key == key)
            return &entry;
    }
    return nullptr;
}

std::optional<std::string>
MetadataDocument::get(const std::string &section,
                      const std::string &key) const
{
    const Entry *entry = findEntry(section, key);
    if (!entry)
        return std::nullopt;
    return entry->value;
}

std::optional<double>
MetadataDocument::getNumber(const std::string &section,
                            const std::string &key) const
{
    auto text = get(section, key);
    if (!text)
        return std::nullopt;
    return util::parseDouble(*text);
}

std::string
MetadataDocument::render() const
{
    std::string out;
    if (!title.empty())
        out += "# " + title + "\n\n";
    for (const auto &section : sectionList) {
        out += "## " + section.name + "\n\n";
        for (const Entry &entry : section.entries)
            out += "- **" + entry.key + "**: " + entry.value + "\n";
        out += "\n";
    }
    return out;
}

void
MetadataDocument::save(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error(
            "cannot open metadata file for writing: " + path);
    out << render();
    if (!out)
        throw std::runtime_error("error writing metadata file: " + path);
}

MetadataDocument
MetadataDocument::parse(const std::string &text, check::CheckResult &out)
{
    MetadataDocument doc;
    Section *current = nullptr;

    std::istringstream stream(text);
    std::string raw_line;
    size_t line_no = 0;
    while (std::getline(stream, raw_line)) {
        ++line_no;
        std::string line = trim(raw_line);
        json::Location where{static_cast<uint32_t>(line_no), 0};
        if (startsWith(line, "## ")) {
            doc.sectionList.push_back(
                Section{trim(line.substr(3)), {}, line_no});
            current = &doc.sectionList.back();
        } else if (startsWith(line, "# ")) {
            doc.title = trim(line.substr(2));
        } else if (startsWith(line, "- **")) {
            size_t close = line.find("**:", 4);
            if (close == std::string::npos) {
                out.report(check::Severity::Error, where,
                           "metadata-syntax",
                           "malformed entry (expected `- **key**: value`)");
            } else if (!current) {
                out.report(check::Severity::Error, where,
                           "metadata-syntax", "entry before any section");
            } else {
                current->entries.push_back(
                    Entry{line.substr(4, close - 4),
                          trim(line.substr(close + 3)), line_no});
            }
        }
        // Other lines are narrative, tolerated and ignored so humans
        // may annotate the file without breaking parsing.
    }
    return doc;
}

} // namespace record
} // namespace sharp
