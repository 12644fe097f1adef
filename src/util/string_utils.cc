#include "util/string_utils.hh"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace sharp
{
namespace util
{

std::vector<std::string>
split(std::string_view text, char delim)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (true) {
        size_t pos = text.find(delim, start);
        if (pos == std::string_view::npos) {
            out.emplace_back(text.substr(start));
            break;
        }
        out.emplace_back(text.substr(start, pos - start));
        start = pos + 1;
    }
    return out;
}

std::string
join(const std::vector<std::string> &parts, std::string_view delim)
{
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
        if (i > 0)
            out.append(delim);
        out.append(parts[i]);
    }
    return out;
}

std::string
trim(std::string_view text)
{
    size_t begin = 0;
    size_t end = text.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(text[begin]))) {
        ++begin;
    }
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text[end - 1]))) {
        --end;
    }
    return std::string(text.substr(begin, end - begin));
}

bool
startsWith(std::string_view text, std::string_view prefix)
{
    return text.size() >= prefix.size() &&
           text.substr(0, prefix.size()) == prefix;
}

bool
endsWith(std::string_view text, std::string_view suffix)
{
    return text.size() >= suffix.size() &&
           text.substr(text.size() - suffix.size()) == suffix;
}

std::string
toLower(std::string_view text)
{
    std::string out(text);
    for (char &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

std::optional<double>
parseDouble(std::string_view text)
{
    std::string buf = trim(text);
    if (buf.empty())
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    double value = std::strtod(buf.c_str(), &end);
    if (errno != 0 || end != buf.c_str() + buf.size())
        return std::nullopt;
    return value;
}

std::optional<long>
parseLong(std::string_view text)
{
    std::string buf = trim(text);
    if (buf.empty())
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    long value = std::strtol(buf.c_str(), &end, 10);
    if (errno != 0 || end != buf.c_str() + buf.size())
        return std::nullopt;
    return value;
}

std::optional<uint64_t>
parseUint64(std::string_view text)
{
    // strtoull alone would accept a sign ("-1" -> 2^64 - 1) and
    // leading whitespace.
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string_view::npos)
        return std::nullopt;
    std::string buf(text);
    errno = 0;
    unsigned long long value = std::strtoull(buf.c_str(), nullptr, 10);
    if (errno == ERANGE)
        return std::nullopt;
    return value;
}

std::string
replaceAll(std::string text, std::string_view from, std::string_view to)
{
    if (from.empty())
        return text;
    size_t pos = 0;
    while ((pos = text.find(from, pos)) != std::string::npos) {
        text.replace(pos, from.size(), to);
        pos += to.size();
    }
    return text;
}

std::string
formatDouble(double value, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    std::string out(buf);
    if (out.find('.') != std::string::npos) {
        size_t last = out.find_last_not_of('0');
        if (out[last] == '.')
            --last;
        out.erase(last + 1);
    }
    // Normalize negative zero.
    if (out == "-0")
        out = "0";
    return out;
}

} // namespace util
} // namespace sharp
