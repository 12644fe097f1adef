/**
 * @file
 * Status-message and error-reporting helpers.
 *
 * Follows the gem5 convention: panic() for internal invariant violations
 * (framework bugs), warn() and inform() for non-fatal status messages.
 * Errors a user can fix are exceptions the CLI renders. All messages go
 * to stderr except inform(), which goes to stdout.
 */

#ifndef SHARP_UTIL_MESSAGE_HH
#define SHARP_UTIL_MESSAGE_HH

#include <cstdarg>
#include <string>

namespace sharp
{
namespace util
{

/**
 * Abort with a message. Call when an internal invariant is violated,
 * i.e. a bug in SHARP itself. Never returns.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a warning about suspicious but survivable conditions. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print an informational status message. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Route warn()/inform() output into a string buffer instead of the
 * standard streams; used by tests. Passing nullptr restores the default.
 */
void setMessageCapture(std::string *sink);

} // namespace util
} // namespace sharp

#endif // SHARP_UTIL_MESSAGE_HH
