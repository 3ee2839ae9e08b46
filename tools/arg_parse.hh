/**
 * @file
 * Strict numeric argv parsing shared by the command-line tools.
 *
 * strtoull/strtod alone accept "abc" (as 0), "-1" (wrapped to
 * 2^64 - 1), "10x" (as 10), "nan" and "inf".  Every numeric option of
 * ulecc-run, fault_campaign, diffuzz and svc_run goes through the
 * parsers below instead: the whole argument must be one number inside
 * the option's range, else the tool names the option on stderr
 * ("<tool>: bad value '<text>' for <option> (want ...)") and exits 2.
 */

#ifndef ULECC_TOOLS_ARG_PARSE_HH
#define ULECC_TOOLS_ARG_PARSE_HH

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

namespace ulecc::tools
{

/** Allowed values of a real option; an open end excludes its bound. */
struct RealRange
{
    double lo, hi;
    bool openLo = false;
    bool openHi = false;
};

/**
 * Strict real parse: the whole of @p text must be one finite number
 * inside @p r.
 */
inline std::optional<double>
parseReal(const char *text, RealRange r)
{
    if (!*text || std::isspace(static_cast<unsigned char>(*text)))
        return std::nullopt;
    char *end = nullptr;
    errno = 0;
    double v = std::strtod(text, &end);
    if (*end != '\0' || errno == ERANGE || !std::isfinite(v))
        return std::nullopt;
    if (v < r.lo || (r.openLo && v == r.lo) || v > r.hi
        || (r.openHi && v == r.hi))
        return std::nullopt;
    return v;
}

/**
 * Strict unsigned parse (decimal, or 0x-hex): the whole of @p text
 * must be one integer in [lo, hi]; a sign is rejected.
 */
inline std::optional<uint64_t>
parseUnsigned(const char *text, uint64_t lo, uint64_t hi)
{
    if (!std::isdigit(static_cast<unsigned char>(*text)))
        return std::nullopt;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 0);
    if (*end != '\0' || errno == ERANGE || v < lo || v > hi)
        return std::nullopt;
    return v;
}

/** Reports a refused option value on stderr. */
inline void
reportBadValue(const char *tool, const char *option, const char *text,
               const std::string &want)
{
    std::fprintf(stderr, "%s: bad value '%s' for %s (want %s)\n", tool,
                 text, option, want.c_str());
}

/** The "want" phrase for an integer option in [lo, hi]. */
inline std::string
integerRange(uint64_t lo, uint64_t hi)
{
    return "an integer in [" + std::to_string(lo) + ", "
        + std::to_string(hi) + "]";
}

/**
 * parseUnsigned that reports a refusal itself (as @p tool, naming
 * @p option), so a caller only has to exit 2 on nullopt.
 */
inline std::optional<uint64_t>
parseCount(const char *tool, const char *option, const char *text,
           uint64_t lo, uint64_t hi)
{
    std::optional<uint64_t> v = parseUnsigned(text, lo, hi);
    if (!v)
        reportBadValue(tool, option, text, integerRange(lo, hi));
    return v;
}

} // namespace ulecc::tools

#endif // ULECC_TOOLS_ARG_PARSE_HH
