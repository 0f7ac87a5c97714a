/**
 * @file
 * Status and error reporting, following the gem5 conventions:
 *
 *  - panic():  a simulator bug; something that should never happen
 *              regardless of user input.  Aborts.
 *  - fatal():  the simulation cannot continue due to a user error
 *              (bad configuration, invalid arguments).  Exits cleanly.
 *  - warn():   functionality that may not be modelled faithfully.
 *  - inform(): plain status output.
 */

#ifndef KINDLE_BASE_LOGGING_HH
#define KINDLE_BASE_LOGGING_HH

#include <string>
#include <string_view>

#include "base/str.hh"

namespace kindle
{

namespace detail
{

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace detail

/** Abort with a "this is a simulator bug" diagnostic. */
#define kindle_panic(...)                                                   \
    ::kindle::detail::panicImpl(__FILE__, __LINE__,                         \
                                ::kindle::csprintf(__VA_ARGS__))

/** Exit with a "this is a user/configuration error" diagnostic. */
#define kindle_fatal(...)                                                   \
    ::kindle::detail::fatalImpl(__FILE__, __LINE__,                         \
                                ::kindle::csprintf(__VA_ARGS__))

/** Non-fatal modelling-fidelity warning. */
template <typename... Args>
void
warn(std::string_view fmt, Args &&...args)
{
    detail::warnImpl(csprintf(fmt, std::forward<Args>(args)...));
}

/** Plain status message. */
template <typename... Args>
void
inform(std::string_view fmt, Args &&...args)
{
    detail::informImpl(csprintf(fmt, std::forward<Args>(args)...));
}

/**
 * Internal invariant check that survives NDEBUG builds.  Use for
 * conditions whose violation indicates a Kindle bug.
 */
#define kindle_assert(cond, ...)                                            \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::kindle::detail::panicImpl(                                    \
                __FILE__, __LINE__,                                         \
                std::string("assertion failed: " #cond " — ") +             \
                    ::kindle::csprintf(__VA_ARGS__));                       \
        }                                                                   \
    } while (false)

/** Thrown by panic/fatal in unit-test mode instead of terminating. */
class SimError
{
  public:
    enum class Kind { panic, fatal };

    SimError(Kind kind, std::string msg)
        : _kind(kind), _msg(std::move(msg))
    {}

    Kind kind() const { return _kind; }
    const std::string &message() const { return _msg; }

  private:
    Kind _kind;
    std::string _msg;
};

/**
 * When true, panic()/fatal() throw SimError instead of terminating the
 * process.  Unit tests flip this to assert on error paths.
 */
void setErrorsThrow(bool throw_instead);

} // namespace kindle

#endif // KINDLE_BASE_LOGGING_HH
