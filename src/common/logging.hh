/**
 * @file
 * Status and error reporting in the gem5 tradition.
 *
 * Two error paths with distinct intent:
 *   - panic():    an internal invariant was violated — a bug in this
 *                 library, never the user's fault.  Calls std::abort()
 *                 (the process dies with SIGABRT).
 *   - fatal():    the run cannot *start* (or continue meaningfully)
 *                 because of a user error — bad configuration, invalid
 *                 arguments, malformed input files.  Exits with
 *                 exitUsageError (2).
 *
 * Two status paths:
 *   - warn():   something works but not as well as it should; if odd
 *               behaviour follows, start looking here.
 *   - inform(): plain operating status, no connotation of a problem.
 */

#ifndef GRIFFIN_COMMON_LOGGING_HH
#define GRIFFIN_COMMON_LOGGING_HH

#include <sstream>
#include <string>

namespace griffin {

/** Exit status of fatal(): retrying the same invocation cannot
 *  succeed, so scripts can tell usage errors from crashes. */
constexpr int exitUsageError = 2;

namespace detail {

/** Stream a parameter pack into a string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    static_cast<void>((os << ... << std::forward<Args>(args)));
    return os.str();
}

/** Terminates via std::abort() after printing "panic: <msg>". */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/** Terminates via std::exit(exitUsageError) after printing
 *  "fatal: <msg>". */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace detail

/**
 * Abort on an internal invariant violation.  Arguments are streamed
 * together, e.g. panic("bad lane ", lane, " of ", lanes).
 */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::panicImpl(__FILE__, __LINE__,
                      detail::concat(std::forward<Args>(args)...));
}

/** Exit(exitUsageError) on an unrecoverable user error (bad config,
 *  bad input). */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::fatalImpl(__FILE__, __LINE__,
                      detail::concat(std::forward<Args>(args)...));
}

/** Non-fatal warning to stderr. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::concat(std::forward<Args>(args)...));
}

/** Informational status to stderr. */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::informImpl(detail::concat(std::forward<Args>(args)...));
}

/**
 * Library assertion that survives NDEBUG builds.  Use for invariants
 * whose violation means a simulator bug.
 */
#define GRIFFIN_ASSERT(cond, ...)                                          \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::griffin::detail::panicImpl(                                  \
                __FILE__, __LINE__,                                        \
                ::griffin::detail::concat("assertion '" #cond "' failed: ",\
                                          ##__VA_ARGS__));                 \
        }                                                                  \
    } while (0)

} // namespace griffin

#endif // GRIFFIN_COMMON_LOGGING_HH
