/**
 * @file
 * Small string-manipulation helpers shared across SHARP modules.
 */

#ifndef SHARP_UTIL_STRING_UTILS_HH
#define SHARP_UTIL_STRING_UTILS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sharp
{
namespace util
{

/** Split @p text on @p delim. Empty fields are preserved. */
std::vector<std::string> split(std::string_view text, char delim);

/** Join @p parts with @p delim between consecutive elements. */
std::string join(const std::vector<std::string> &parts,
                 std::string_view delim);

/** Strip leading and trailing ASCII whitespace. */
std::string trim(std::string_view text);

/** True if @p text begins with @p prefix. */
bool startsWith(std::string_view text, std::string_view prefix);

/** True if @p text ends with @p suffix. */
bool endsWith(std::string_view text, std::string_view suffix);

/** Lower-case an ASCII string. */
std::string toLower(std::string_view text);

/** Parse a double; returns nullopt if the full string is not a number. */
std::optional<double> parseDouble(std::string_view text);

/** Parse a long; returns nullopt if the full string is not an integer. */
std::optional<long> parseLong(std::string_view text);

/**
 * Parse an unsigned 64-bit decimal: digits only, no sign, no
 * whitespace. Returns nullopt for anything else or on overflow.
 */
std::optional<uint64_t> parseUint64(std::string_view text);

/** Replace every occurrence of @p from in @p text with @p to. */
std::string replaceAll(std::string text, std::string_view from,
                       std::string_view to);

/**
 * Format a double compactly: fixed notation with @p precision digits,
 * trailing zeros removed ("3.4600" -> "3.46", "2.0" -> "2").
 */
std::string formatDouble(double value, int precision = 6);

} // namespace util
} // namespace sharp

#endif // SHARP_UTIL_STRING_UTILS_HH
