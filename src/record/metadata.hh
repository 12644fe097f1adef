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

        /** Key and value equality (the line is not content). */
        bool
        operator==(const Entry &other) const
        {
            return key == other.key && value == other.value;
        }
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

    /** Numeric convenience overload. */
    void set(const std::string &section, const std::string &key,
             double value);

    /**
     * Drop @p key from @p section; returns true when an entry was
     * removed. Useful for emulating documents written by older
     * versions that lacked the key.
     */
    bool remove(const std::string &section, const std::string &key);

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

    /** True when a section exists. */
    bool hasSection(const std::string &name) const;

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

    /**
     * parse() for text that must be well-formed.
     * @throws std::runtime_error naming the first malformed line.
     */
    static MetadataDocument parse(const std::string &text);

    /** Load from a file. */
    static MetadataDocument load(const std::string &path);

    /** Deep equality (title + sections + entries, order-sensitive). */
    bool operator==(const MetadataDocument &other) const;

  private:
    std::string title;
    std::vector<Section> sectionList;

    Section &sectionByName(const std::string &name);
};

} // namespace record
} // namespace sharp

#endif // SHARP_RECORD_METADATA_HH
