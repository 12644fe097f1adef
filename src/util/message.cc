#include "util/message.hh"

#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace sharp
{
namespace util
{

namespace
{

// warn()/inform() may fire from pool workers (parallel suite runs);
// the sink and the streams are shared, so emission is serialized.
std::mutex emitMutex;
std::string *captureSink = nullptr;

std::string
vformat(const char *fmt, va_list ap)
{
    va_list ap_copy;
    va_copy(ap_copy, ap);
    int len = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (len < 0)
        return std::string(fmt);
    std::string buf(static_cast<size_t>(len), '\0');
    std::vsnprintf(buf.data(), buf.size() + 1, fmt, ap);
    return buf;
}

void
emit(const char *prefix, const std::string &msg, FILE *stream)
{
    std::lock_guard<std::mutex> lock(emitMutex);
    if (captureSink) {
        captureSink->append(prefix);
        captureSink->append(msg);
        captureSink->push_back('\n');
        return;
    }
    std::fprintf(stream, "%s%s\n", prefix, msg.c_str());
}

} // anonymous namespace

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
warn(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    emit("warn: ", msg, stderr);
}

void
inform(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    emit("info: ", msg, stdout);
}

void
setMessageCapture(std::string *sink)
{
    std::lock_guard<std::mutex> lock(emitMutex);
    captureSink = sink;
}

} // namespace util
} // namespace sharp
