/**
 * @file
 * The `sharp` command-line interface.
 *
 * The paper's launcher "is typically controlled via the command line
 * and is highly customizable" (§IV-a). forms() declares every command
 * and its flags once; `sharp help` renders that table.
 *
 * All logic lives here (streams in, integer status out) so it is unit
 * testable; tools/sharp_main.cc is a thin wrapper.
 */

#ifndef SHARP_CLI_CLI_HH
#define SHARP_CLI_CLI_HH

#include <cstdint>
#include <limits>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

namespace sharp
{
namespace cli
{

/** A bad command line: runCli prints `<command>: <what>`, exits 2. */
class UsageError : public std::invalid_argument
{
  public:
    using std::invalid_argument::invalid_argument;
};

/** What a flag's value must be. */
enum class FlagKind
{
    Switch, ///< no value
    Text,   ///< any value: a name, a path, a comma list
    Count,  ///< an integer >= Flag::least
    Number, ///< a number in Flag::range
    Choice, ///< one of Flag::value's '|'-separated options
};

/** The values a Number flag takes: any, >= 0, > 0, or (0, 1]. */
enum class Range
{
    Any,
    NonNegative,
    Positive,
    Fraction,
};

/** One flag a command form reads. */
struct Flag
{
    const char *name;
    FlagKind kind;
    /** The value as help shows it ("N", "FILE"). */
    const char *value;
    const char *help;
    uint64_t least = 0;
    Range range = Range::Any;
};

struct ParsedArgs;

/**
 * One way to call a command. A command's first form is its default;
 * a later form takes over when its selector flag is given.
 */
struct Form
{
    const char *command;
    /** Operands as help shows them; each one not in [] is required. */
    const char *operands;
    /** The flag that picks this form; "" for the default form. */
    const char *selector;
    /** Help beside the usage line; '\n' continues it below. */
    const char *summary;
    int (*run)(const ParsedArgs &, std::ostream &, std::ostream &);
    std::vector<Flag> flags;
    /** Ends the error for another form's flag, e.g. where to set it. */
    const char *unread = "";
};

/** Every command form, in help order. */
const std::vector<Form> &forms();

/** Tokenized command line. */
struct ParsedArgs
{
    /** First token, e.g. "run". Empty when no arguments given. */
    std::string command;
    /** Non-flag tokens after the command. */
    std::vector<std::string> positional;
    /** --key value / --key pairs ("" value for bare flags). */
    std::map<std::string, std::string> flags;

    /** Flag lookup with default. */
    std::string get(const std::string &key,
                    const std::string &fallback = "") const;
    /** True when the flag appeared (with or without a value). */
    bool has(const std::string &key) const;

    /**
     * The typed getters store a flag that runCli has checked against
     * its kind (count reads a Count, number a Number) in @p target,
     * and leave @p target as it is when the flag is absent.
     */
    template <typename T>
    void
    count(const char *key, T &target) const
    {
        if (!has(key))
            return;
        uint64_t value = std::stoull(get(key));
        if (value > std::numeric_limits<T>::max())
            throw UsageError(std::string("--") + key + " is too large");
        target = static_cast<T>(value);
    }
    void number(const char *key, double &target) const;
    /** Append the names in the comma list --@p key to @p target. */
    void list(const char *key, std::vector<std::string> &target) const;
};

/**
 * Tokenize argv (excluding argv[0]). A flag takes the next token as
 * its value unless the command declares it a switch, or the token is
 * another flag.
 * @throws UsageError for an empty flag name.
 */
ParsedArgs parseArgs(const std::vector<std::string> &argv);

/**
 * The form of @p args's command that its flags select. Values are
 * checked against their kinds only by runCli.
 * @throws UsageError for a flag that form does not read, a value flag
 *         without a value, or a missing operand.
 */
const Form &selectForm(const ParsedArgs &args);

/**
 * Execute a CLI invocation.
 *
 * @param argv arguments excluding the program name
 * @param out  stream for normal output
 * @param err  stream for error messages
 * @return process exit status (0 on success)
 */
int runCli(const std::vector<std::string> &argv, std::ostream &out,
           std::ostream &err);

} // namespace cli
} // namespace sharp

#endif // SHARP_CLI_CLI_HH
