/**
 * @file
 * The experiment metadata document.
 *
 * "An accompanying markdown description file is automatically written
 * alongside the raw data, describing each field in detail, as well as
 * the metadata required to recreate the System Under Test ... This
 * metadata file is both human-readable and machine-readable: SHARP
 * itself can parse it to recreate the same parameters for a
 * reproduction run." (§IV-d)
 *
 * The format is a constrained markdown dialect: `## section` headers
 * with `- **key**: value` entries, plus an optional field-description
 * section. parse(render(doc)) == doc, which is the property that makes
 * reproduction runs possible.
 */

#ifndef SHARP_RECORD_METADATA_HH
#define SHARP_RECORD_METADATA_HH

#include <optional>
#include <string>
#include <vector>

namespace sharp
{
namespace check
{
class CheckResult;
} // namespace check

namespace record
{

/**
 * An ordered collection of named sections of key/value pairs,
 * round-trippable through markdown.
 */
class MetadataDocument
{
  public:
    /** One `- **key**: value` entry. */
    struct Entry
    {
        std::string key;
        std::string value;
        /** 1-based line it was parsed from; 0 when set in memory. */
        size_t line = 0;
    };

    /** One section of the document. */
    struct Section
    {
        std::string name;
        std::vector<Entry> entries;
        /** 1-based line of its header; 0 when built in memory. */
        size_t line = 0;
    };

    MetadataDocument() = default;

    /** Document title (rendered as `# title`). */
    void setTitle(std::string title_in) { title = std::move(title_in); }
    const std::string &getTitle() const { return title; }

    /**
     * Set @p key in @p section (created on demand); replaces an
     * existing key in place.
     */
    void set(const std::string &section, const std::string &key,
             const std::string &value);

    /** Lookup; nullopt when the section or key is missing. */
    std::optional<std::string> get(const std::string &section,
                                   const std::string &key) const;

    /** The section named @p name; nullptr when it is missing. */
    const Section *findSection(const std::string &name) const;

    /** The entry @p key of @p section; nullptr when it is missing. */
    const Entry *findEntry(const std::string &section,
                           const std::string &key) const;

    /** Lookup parsed as a double. */
    std::optional<double> getNumber(const std::string &section,
                                    const std::string &key) const;

    /** All sections in insertion order. */
    const std::vector<Section> &sections() const { return sectionList; }

    /** Render as markdown. */
    std::string render() const;

    /** Write to a file. @throws std::runtime_error on I/O failure. */
    void save(const std::string &path) const;

    /**
     * Parse the markdown dialect produced by render(). Each section and
     * entry remembers its line. An entry line without its `**:` or
     * before any section is a `metadata-syntax` error in @p out, at
     * its line, and is skipped; other lines are narrative and ignored.
     */
    static MetadataDocument parse(const std::string &text,
                                  check::CheckResult &out);

  private:
    std::string title;
    std::vector<Section> sectionList;

    Section &sectionByName(const std::string &name);
};

} // namespace record
} // namespace sharp

#endif // SHARP_RECORD_METADATA_HH
