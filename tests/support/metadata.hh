/**
 * @file
 * Metadata helpers only the unit tests use: a parse and a load that
 * throw on a malformed `.md`, and content equality. Shipped code reads
 * metadata through MetadataDocument::parse(text, findings), the walk
 * `sharp check` runs, and these are built on it.
 */

#ifndef SHARP_TESTS_SUPPORT_METADATA_HH
#define SHARP_TESTS_SUPPORT_METADATA_HH

#include <string>

#include "record/metadata.hh"

namespace sharp
{
namespace support
{

/**
 * MetadataDocument::parse() for text that must be well-formed.
 * @throws std::runtime_error naming the first malformed line.
 */
record::MetadataDocument parseMetadata(const std::string &text);

/** parseMetadata() of the file at @p path. */
record::MetadataDocument loadMetadata(const std::string &path);

/**
 * Title, sections and entries equal, in order; the lines they were
 * parsed from are not content.
 */
bool sameMetadata(const record::MetadataDocument &a,
                  const record::MetadataDocument &b);

} // namespace support
} // namespace sharp

#endif // SHARP_TESTS_SUPPORT_METADATA_HH
