#include "common/logging.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <utility>

namespace tpre
{

namespace
{

/**
 * Serializes message assembly + write so concurrent workers cannot
 * interleave or tear lines. vsnprintf into a local buffer happens
 * outside the lock; only the final write is guarded.
 */
std::mutex &
logMutex()
{
    static std::mutex mu;
    return mu;
}

thread_local std::string tLogTag;

/**
 * Microseconds since the first log-clock read (monotonic). Kept
 * independent of obs::wallMicros so the logger has no dependency
 * on the observability layer's lifetime.
 */
std::uint64_t
logMicros()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point anchor = clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            clock::now() - anchor)
            .count());
}

/**
 * TPRE_LOG / TPRE_LOG_LEVEL, parsed strictly once. Bad values
 * report with a bare fprintf and exit — fatal() would re-enter
 * this initialization.
 */
struct LogConfig
{
    std::atomic<int> format{static_cast<int>(LogFormat::Text)};
    std::atomic<int> level{static_cast<int>(LogLevel::Info)};

    LogConfig()
    {
        if (const char *env = std::getenv("TPRE_LOG")) {
            if (!std::strcmp(env, "json")) {
                format = static_cast<int>(LogFormat::Json);
            } else if (std::strcmp(env, "text")) {
                std::fprintf(stderr,
                             "fatal: TPRE_LOG must be 'json' or "
                             "'text', got '%s'\n",
                             env);
                std::exit(1);
            }
        }
        if (const char *env = std::getenv("TPRE_LOG_LEVEL")) {
            if (!std::strcmp(env, "debug")) {
                level = static_cast<int>(LogLevel::Debug);
            } else if (!std::strcmp(env, "info")) {
                level = static_cast<int>(LogLevel::Info);
            } else if (!std::strcmp(env, "warn")) {
                level = static_cast<int>(LogLevel::Warn);
            } else if (!std::strcmp(env, "error")) {
                level = static_cast<int>(LogLevel::Error);
            } else {
                std::fprintf(stderr,
                             "fatal: TPRE_LOG_LEVEL must be debug, "
                             "info, warn or error, got '%s'\n",
                             env);
                std::exit(1);
            }
        }
    }
};

LogConfig &
logConfig()
{
    static LogConfig config;
    return config;
}

void
vreport(LogLevel level, const char *tag, const char *fmt,
        va_list args)
{
    if (!logLevelEnabled(level))
        return;
    char buf[1024];
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    if (logFormat() == LogFormat::Json) {
        std::string line = "{\"ts_us\": ";
        char num[32];
        std::snprintf(num, sizeof(num), "%llu",
                      static_cast<unsigned long long>(logMicros()));
        line += num;
        // "level" stays within the documented debug|info|warn|error
        // set; panic/fatal keep their identity in a "kind" field so
        // NDJSON consumers keying on level never see a fifth value.
        line += ", \"level\": \"";
        line += logLevelName(level);
        line += "\"";
        if (std::strcmp(tag, logLevelName(level)) != 0) {
            line += ", \"kind\": \"";
            line += tag;
            line += "\"";
        }
        if (!tLogTag.empty()) {
            line += ", \"thread\": \"";
            line += jsonEscape(tLogTag);
            line += "\"";
        }
        line += ", \"msg\": \"";
        line += jsonEscape(buf);
        line += "\"}";
        std::lock_guard<std::mutex> guard(logMutex());
        std::fprintf(stderr, "%s\n", line.c_str());
        return;
    }
    std::lock_guard<std::mutex> guard(logMutex());
    if (tLogTag.empty())
        std::fprintf(stderr, "%s: %s\n", tag, buf);
    else
        std::fprintf(stderr, "[%s] %s: %s\n", tLogTag.c_str(), tag,
                     buf);
}

} // namespace

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 2);
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c) & 0xff);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

LogFormat
logFormat()
{
    return static_cast<LogFormat>(
        logConfig().format.load(std::memory_order_relaxed));
}

LogLevel
logLevel()
{
    return static_cast<LogLevel>(
        logConfig().level.load(std::memory_order_relaxed));
}

void
setLogFormat(LogFormat format)
{
    logConfig().format.store(static_cast<int>(format),
                             std::memory_order_relaxed);
}

void
setLogLevel(LogLevel level)
{
    logConfig().level.store(static_cast<int>(level),
                            std::memory_order_relaxed);
}

bool
logLevelEnabled(LogLevel level)
{
    return static_cast<int>(level) >=
           static_cast<int>(logLevel());
}

const char *
logLevelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Debug: return "debug";
      case LogLevel::Info: return "info";
      case LogLevel::Warn: return "warn";
      case LogLevel::Error: return "error";
    }
    return "info";
}

void
setLogThreadTag(const std::string &tag)
{
    tLogTag = tag;
}

ScopedLogTag::ScopedLogTag(const std::string &tag)
    : saved_(std::move(tLogTag))
{
    tLogTag = tag;
}

ScopedLogTag::~ScopedLogTag()
{
    tLogTag = std::move(saved_);
}

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport(LogLevel::Error, "panic", fmt, args);
    va_end(args);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport(LogLevel::Error, "fatal", fmt, args);
    va_end(args);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport(LogLevel::Warn, "warn", fmt, args);
    va_end(args);
}

void
inform(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport(LogLevel::Info, "info", fmt, args);
    va_end(args);
}

void
debugmsg(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport(LogLevel::Debug, "debug", fmt, args);
    va_end(args);
}

} // namespace tpre
