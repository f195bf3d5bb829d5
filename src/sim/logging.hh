/**
 * @file
 * Error and status reporting helpers, following the gem5 conventions:
 * panic() for internal simulator bugs, fatal() for user configuration
 * errors, warn()/inform() for status messages.
 */

#ifndef ODBSIM_SIM_LOGGING_HH
#define ODBSIM_SIM_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace odbsim
{

namespace detail
{

/** Stream-concatenate a variadic argument pack into a string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    if constexpr (sizeof...(args) > 0)
        (os << ... << args);
    return os.str();
}

[[noreturn]] inline void
die(const char *kind, const std::string &msg, const char *file, int line,
    bool abort_proc)
{
    std::fprintf(stderr, "%s: %s (%s:%d)\n", kind, msg.c_str(), file, line);
    if (abort_proc)
        std::abort();
    std::exit(1);
}

inline void
report(const char *kind, const std::string &msg)
{
    std::fprintf(stderr, "%s: %s\n", kind, msg.c_str());
}

} // namespace detail

} // namespace odbsim

/**
 * Terminate with a core dump: something happened that should never happen
 * regardless of user input (an odbsim bug).
 */
#define odbsim_panic(...)                                                   \
    ::odbsim::detail::die("panic", ::odbsim::detail::concat(__VA_ARGS__),   \
                          __FILE__, __LINE__, true)

/**
 * Terminate cleanly: the simulation cannot continue because of a user
 * error (bad configuration, invalid arguments).
 */
#define odbsim_fatal(...)                                                   \
    ::odbsim::detail::die("fatal", ::odbsim::detail::concat(__VA_ARGS__),   \
                          __FILE__, __LINE__, false)

/** Warn about questionable but survivable conditions. */
#define odbsim_warn(...)                                                    \
    ::odbsim::detail::report("warn",                                        \
                             ::odbsim::detail::concat(__VA_ARGS__))

/** Informative status message. */
#define odbsim_inform(...)                                                  \
    ::odbsim::detail::report("info",                                        \
                             ::odbsim::detail::concat(__VA_ARGS__))

/** Panic if a required invariant does not hold. */
#define odbsim_assert(cond, ...)                                            \
    do {                                                                    \
        if (!(cond))                                                        \
            odbsim_panic("assertion '" #cond "' failed: ",                  \
                         ::odbsim::detail::concat(__VA_ARGS__));            \
    } while (0)

#endif // ODBSIM_SIM_LOGGING_HH
