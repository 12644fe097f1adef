/**
 * @file
 * Tests that hold the `sharp` flag table (cli::forms()) to the code
 * and to the docs: every flag a form declares is read by the function
 * that runs it, with the getter of its kind, every flag that function
 * reads is declared, and every `--flag` that README.md, the verify
 * skill and the CI workflow pass to `sharp` is declared for its
 * command's form.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <set>
#include <sstream>

#include "cli/cli.hh"
#include "util/fs.hh"

namespace
{

using namespace sharp::cli;

std::string
sourceText(const std::string &relative)
{
    return sharp::util::readFileText(std::string(SHARP_SOURCE_DIR) + "/" +
                                     relative);
}

bool
isWordChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** The identifier starting at @p text[@p at]; "" when none does. */
std::string
wordAt(const std::string &text, size_t at)
{
    size_t end = at;
    while (end < text.size() && isWordChar(text[end]))
        ++end;
    return text.substr(at, end - at);
}

/**
 * The bodies of the top-level functions in gem5 layout: the name opens
 * a line (`name(`), the body runs from the next line that is `{` to
 * the next line that is `}`. Member functions (`Class::name(`) are
 * left out.
 */
std::map<std::string, std::string>
functionBodies(const std::string &source)
{
    std::map<std::string, std::string> bodies;
    std::istringstream in(source);
    std::string line, name, body;
    bool inside = false;
    while (std::getline(in, line)) {
        std::string head = wordAt(line, 0);
        if (inside && line == "}") {
            bodies[name] = body;
            inside = false;
            name.clear();
        } else if (inside) {
            body += line + "\n";
        } else if (line == "{" && !name.empty()) {
            inside = true;
            body.clear();
        } else if (!head.empty() && line[head.size()] == '(') {
            name = head;
        }
    }
    return bodies;
}

/** The names of the `{"name", Kind, ...}` flag entries in @p text. */
std::set<std::string>
declaredIn(const std::string &text)
{
    std::set<std::string> names;
    for (size_t at = text.find("{\""); at != std::string::npos;
         at = text.find("{\"", at + 1)) {
        size_t end = text.find('"', at + 2);
        if (end != std::string::npos && text.compare(end, 3, "\", ") == 0)
            names.insert(text.substr(at + 2, end - at - 2));
    }
    return names;
}

/** True when @p body calls the function @p name. */
bool
calls(const std::string &body, const std::string &name)
{
    for (size_t at = body.find(name + "("); at != std::string::npos;
         at = body.find(name + "(", at + 1)) {
        if (at == 0 || !isWordChar(body[at - 1]))
            return true;
    }
    return false;
}

/** `cmd` + the command and selector in CamelCase: cmdCompareAgainst. */
std::string
handlerName(const Form &form)
{
    std::string name = "cmd";
    for (std::string word : {std::string(form.command),
                             std::string(form.selector)}) {
        if (!word.empty()) {
            word[0] = static_cast<char>(
                std::toupper(static_cast<unsigned char>(word[0])));
            name += word;
        }
    }
    return name;
}

TEST(CliTable, EveryFormReadsExactlyTheFlagsItDeclares)
{
    // A handler reads a flag through a getter call with the flag's
    // name as a literal (`args.count("max", ...)`), or through the loop
    // over ruleFlags(), which reads the Number rule flags its form
    // declares. The reads of a form are those of its handler and of
    // every function that handler reaches.
    std::map<std::string, std::string> bodies =
        functionBodies(sourceText("src/cli/cli.cc"));
    ASSERT_TRUE(bodies.count("ruleFlags"));
    const std::set<std::string> rule_flags =
        declaredIn(bodies["ruleFlags"]);
    ASSERT_EQ(rule_flags.size(), 7u);
    // The kinds each getter may read: the values a getter converts
    // unchecked are those runCli has checked against the kind.
    const std::map<std::string, std::set<FlagKind>> getters = {
        {"has", {FlagKind::Switch}},
        {"get", {FlagKind::Text, FlagKind::Choice}},
        {"list", {FlagKind::Text}},
        {"count", {FlagKind::Count}},
        {"number", {FlagKind::Number}},
    };

    // reads[function][flag]: the getters that function reads it with.
    std::map<std::string, std::map<std::string, std::set<std::string>>>
        reads;
    std::map<std::string, std::set<std::string>> callees;
    std::set<std::string> rule_loops;
    for (const auto &[name, body] : bodies) {
        for (size_t at = body.find("args."); at != std::string::npos;
             at = body.find("args.", at + 1)) {
            std::string getter = wordAt(body, at + 5);
            size_t open = at + 5 + getter.size();
            if (body.compare(open, 2, "(\"") != 0)
                continue;
            size_t end = body.find('"', open + 2);
            reads[name][body.substr(open + 2, end - open - 2)].insert(
                getter);
        }
        if (body.find(": ruleFlags())") != std::string::npos)
            rule_loops.insert(name);
        for (const auto &entry : bodies) {
            if (entry.first != name && calls(body, entry.first))
                callees[name].insert(entry.first);
        }
    }

    for (const Form &form : forms()) {
        std::string handler = handlerName(form);
        ASSERT_TRUE(bodies.count(handler))
            << "no function " << handler << " runs `" << form.command
            << " " << form.selector << "`";
        std::map<std::string, FlagKind> declared;
        for (const Flag &flag : form.flags)
            declared.emplace(flag.name, flag.kind);
        std::set<std::string> reached{handler};
        std::map<std::string, std::set<std::string>> read;
        std::vector<std::string> pending{handler};
        while (!pending.empty()) {
            std::string next = pending.back();
            pending.pop_back();
            for (const auto &[flag, used] : reads[next])
                read[flag].insert(used.begin(), used.end());
            for (const auto &[flag, kind] : declared) {
                if (rule_loops.count(next) && rule_flags.count(flag) &&
                    kind == FlagKind::Number)
                    read[flag].insert("number");
            }
            for (const std::string &callee : callees[next]) {
                if (reached.insert(callee).second)
                    pending.push_back(callee);
            }
        }
        for (const auto &[name, kind] : declared) {
            EXPECT_TRUE(read.count(name))
                << handler << " never reads its declared flag --" << name;
        }
        for (const auto &[name, used] : read) {
            auto flag = declared.find(name);
            if (flag == declared.end()) {
                ADD_FAILURE()
                    << handler << " reads the undeclared flag --" << name;
                continue;
            }
            for (const std::string &getter : used) {
                EXPECT_TRUE(getters.count(getter) &&
                            getters.at(getter).count(flag->second))
                    << handler << " reads --" << name << " with args."
                    << getter << ", which does not fit its kind";
            }
        }
    }
}

TEST(CliTable, FormsAreWellFormed)
{
    // The tokenizer asks a command whether a flag is a switch before it
    // knows the form, so a flag has one kind across a command's forms.
    std::map<std::string, std::map<std::string, FlagKind>> kinds;
    std::set<std::string> commands;
    for (const Form &form : forms()) {
        bool first = commands.insert(form.command).second;
        EXPECT_EQ(first, *form.selector == '\0')
            << form.command << ": the first form is the default";
        std::set<std::string> names;
        for (const Flag &flag : form.flags) {
            EXPECT_TRUE(names.insert(flag.name).second)
                << form.command << " declares --" << flag.name << " twice";
            auto [it, fresh] =
                kinds[form.command].emplace(flag.name, flag.kind);
            EXPECT_TRUE(fresh || it->second == flag.kind)
                << form.command << " --" << flag.name;
            EXPECT_TRUE(flag.kind == FlagKind::Switch || *flag.value)
                << form.command << " --" << flag.name;
        }
        if (*form.selector) {
            EXPECT_TRUE(names.count(form.selector)) << form.command;
        }
    }
}

/**
 * The logical lines of @p text that a shell would run: `\` joins a
 * line to the next one and `#` after a blank starts a comment.
 * Markdown keeps only its fenced code blocks.
 */
std::vector<std::string>
shellLines(const std::string &text, bool markdown)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line, joined;
    bool code = !markdown;
    while (std::getline(in, line)) {
        if (markdown && line.rfind("```", 0) == 0) {
            code = !code;
            continue;
        }
        // A workflow step's name is not a command.
        if (!code || line.find("- name:") != std::string::npos)
            continue;
        size_t comment = line.find('#');
        while (comment != std::string::npos && comment > 0 &&
               line[comment - 1] != ' ')
            comment = line.find('#', comment + 1);
        if (comment != std::string::npos)
            line.erase(comment);
        bool continued = !line.empty() && line.back() == '\\';
        joined += continued ? line.substr(0, line.size() - 1) : line;
        if (!continued) {
            lines.push_back(joined);
            joined.clear();
        }
    }
    return lines;
}

/** Each `sharp` invocation on @p line, as its argv. */
std::vector<std::vector<std::string>>
sharpCalls(const std::string &line)
{
    static const std::set<std::string> ends = {"|", "||", "&&", ";", "&"};
    std::istringstream in(line);
    std::vector<std::string> tokens;
    for (std::string token; in >> token;)
        tokens.push_back(token);
    std::vector<std::vector<std::string>> calls;
    for (size_t i = 0; i < tokens.size(); ++i) {
        // `sharp`, a path to it, or $SHARP, also inside `$(`.
        size_t open = tokens[i].rfind('(');
        std::string token = open == std::string::npos
                                ? tokens[i]
                                : tokens[i].substr(open + 1);
        bool sharp = token == "sharp" || token == "$SHARP" ||
                     (token.find('=') == std::string::npos &&
                      token.size() > 6 &&
                      token.compare(token.size() - 6, 6, "/sharp") == 0);
        if (!sharp)
            continue;
        std::vector<std::string> argv;
        for (size_t j = i + 1; j < tokens.size(); ++j) {
            if (ends.count(tokens[j]) || tokens[j][0] == '>' ||
                tokens[j] == "2>&1")
                break;
            argv.push_back(tokens[j]);
        }
        calls.push_back(argv);
    }
    return calls;
}

TEST(CliDocs, EveryDocumentedFlagIsDeclaredForItsForm)
{
    // CI deliberately passes a misspelled flag once, to prove the
    // shipped binary rejects it.
    const std::string drill =
        "unknown flag --thresold (did you mean --threshold?)";
    size_t checked = 0, drills = 0;
    for (const auto &[file, markdown] :
         std::vector<std::pair<std::string, bool>>{
             {"README.md", true},
             {".claude/skills/verify/SKILL.md", true},
             {".github/workflows/ci.yml", false}}) {
        for (const std::string &line :
             shellLines(sourceText(file), markdown)) {
            for (const auto &argv : sharpCalls(line)) {
                ASSERT_FALSE(argv.empty()) << file << ": " << line;
                ++checked;
                try {
                    selectForm(parseArgs(argv));
                    EXPECT_EQ(line.find("--thresold"), std::string::npos)
                        << file << ": " << line;
                } catch (const UsageError &problem) {
                    bool expected = problem.what() == drill;
                    drills += expected ? 1 : 0;
                    EXPECT_TRUE(expected) << file << ": " << line << "\n"
                                          << argv[0] << ": "
                                          << problem.what();
                }
            }
        }
    }
    EXPECT_GT(checked, 50u);
    EXPECT_EQ(drills, 1u);
}

} // anonymous namespace
