#include "common/parse.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"

namespace tpre
{

std::int64_t
parsePositiveInt(const char *text, const char *what)
{
    if (!text || !*text)
        fatal("%s: empty value (expected a positive integer)",
              what);
    // strtoll is lenient about leading whitespace and an explicit
    // sign; the documented contract is digits only, so reject any
    // value that does not start with one (negatives then fail here
    // too, with the generic not-an-integer message).
    if (text[0] < '0' || text[0] > '9')
        fatal("%s: '%s' is not a decimal integer", what, text);
    errno = 0;
    char *end = nullptr;
    const long long value = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0')
        fatal("%s: '%s' is not a decimal integer", what, text);
    if (errno == ERANGE)
        fatal("%s: '%s' overflows a 64-bit integer", what, text);
    if (value <= 0)
        fatal("%s: '%s' must be > 0", what, text);
    return value;
}

std::uint64_t
parseUnsigned(const char *text, const char *what, std::uint64_t max)
{
    const std::int64_t value = parsePositiveInt(text, what);
    if (static_cast<std::uint64_t>(value) > max)
        fatal("%s: '%s' exceeds the maximum of %llu", what, text,
              static_cast<unsigned long long>(max));
    return static_cast<std::uint64_t>(value);
}

unsigned
parseJobs(const char *text, const char *what)
{
    const std::int64_t value = parsePositiveInt(text, what);
    if (value > 4096)
        fatal("%s: '%s' exceeds the sanity cap of 4096 workers",
              what, text);
    return static_cast<unsigned>(value);
}

int
parsePort(const char *text, const char *what)
{
    // "0" means "pick an ephemeral port" and is the one value
    // parsePositiveInt would reject.
    if (text && text[0] == '0' && text[1] == '\0')
        return 0;
    const std::int64_t value = parsePositiveInt(text, what);
    if (value > 65535)
        fatal("%s: %lld is not a valid TCP port", what,
              static_cast<long long>(value));
    return static_cast<int>(value);
}

bool
parseFlag(const char *name, bool unsetDefault)
{
    const char *env = std::getenv(name);
    if (!env)
        return unsetDefault;
    if (std::strcmp(env, "0") == 0)
        return false;
    if (std::strcmp(env, "1") == 0)
        return true;
    fatal("%s: '%s' is not 0 or 1", name, env);
}

bool
isBenchmarkOutFlag(const char *arg)
{
    if (!arg)
        return false;
    static constexpr char kFlag[] = "--benchmark_out";
    static constexpr std::size_t kLen = sizeof(kFlag) - 1;
    if (std::strncmp(arg, kFlag, kLen) != 0)
        return false;
    // Exactly the flag (value in the next argv slot) or an
    // "=value" assignment; anything else ("--benchmark_out_format")
    // is a different flag.
    return arg[kLen] == '\0' || arg[kLen] == '=';
}

} // namespace tpre
