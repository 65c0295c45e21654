/**
 * @file
 * gem5-style status and error reporting: panic() for internal
 * invariant violations, fatal() for user/configuration errors, warn()
 * and inform() for non-fatal notices.
 *
 * Output is leveled and thread-tagged, with two wire formats
 * selected by TPRE_LOG (DESIGN.md section 12):
 *
 *   text (default)  "[tag] level: message" on stderr, as before
 *   json            one NDJSON record per message on stderr:
 *                   {"ts_us": N, "level": "...", "thread": "...",
 *                    "msg": "..."}
 *
 * The json "level" field only ever holds debug|info|warn|error;
 * panic() and fatal() emit level "error" plus a "kind" field
 * ("panic"/"fatal") so consumers keying on level see a closed set.
 *
 * TPRE_LOG_LEVEL (debug|info|warn|error, default info) suppresses
 * records below the threshold; panic/fatal are error-level and
 * never suppressed. Both variables are parsed strictly — an
 * unknown value is a configuration error, not a silent default.
 */

#ifndef TPRE_COMMON_LOGGING_HH
#define TPRE_COMMON_LOGGING_HH

#include <cstdarg>
#include <string>

namespace tpre
{

/** Message severities, in ascending order. */
enum class LogLevel : int
{
    Debug = 0,
    Info = 1,
    Warn = 2,
    Error = 3,
};

/** Wire format of the stderr log stream. */
enum class LogFormat : int
{
    Text = 0,
    Json = 1,
};

/** The active format (TPRE_LOG, or a setLogFormat override). */
LogFormat logFormat();

/** The active threshold (TPRE_LOG_LEVEL / setLogLevel). */
LogLevel logLevel();

/**
 * RFC 8259 string escaping (quotes, backslash, control chars), the
 * one escaper behind every JSON writer: NDJSON log records, the
 * Chrome trace export and the BENCH/flight-record reports.
 */
std::string jsonEscape(const std::string &text);

/** Override the wire format (tests, command-line flags). */
void setLogFormat(LogFormat format);

/** Override the level threshold (tests, command-line flags). */
void setLogLevel(LogLevel level);

/** Would a message at @p level currently be emitted? */
bool logLevelEnabled(LogLevel level);

/** Stable lowercase level name ("debug" .. "error"). */
const char *logLevelName(LogLevel level);

/**
 * Report an internal simulator bug and abort. Use for conditions that
 * must never happen regardless of user input.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user-level error (bad configuration or
 * arguments) and exit with status 1.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Warn about suspicious but survivable conditions. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Emit an informational status message. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Emit a debug-level message (hidden unless TPRE_LOG_LEVEL=debug). */
void debugmsg(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Set this thread's log tag; every subsequent message from the
 * thread is prefixed with "[tag] " (text) or carried in the
 * "thread" field (json). Worker threads of the parallel sweep
 * engine set a stable per-job tag so interleaved output can be
 * attributed. An empty tag (the default) adds no prefix.
 */
void setLogThreadTag(const std::string &tag);

/** RAII helper: set a thread log tag, restore the old one on exit. */
class ScopedLogTag
{
  public:
    explicit ScopedLogTag(const std::string &tag);
    ~ScopedLogTag();
    ScopedLogTag(const ScopedLogTag &) = delete;
    ScopedLogTag &operator=(const ScopedLogTag &) = delete;

  private:
    std::string saved_;
};

/**
 * Assert an invariant; panics when the condition does not hold.
 * Enabled in all build types because the simulator's correctness
 * claims rest on these checks. The optional second argument is a
 * plain string literal giving extra context.
 */
#define tpre_assert(cond, ...)                                          \
    do {                                                                \
        if (!(cond))                                                    \
            ::tpre::panic("assertion '%s' failed at %s:%d %s",          \
                          #cond, __FILE__, __LINE__, "" __VA_ARGS__);   \
    } while (0)

} // namespace tpre

#endif // TPRE_COMMON_LOGGING_HH
