#include "base/logging.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace kindle
{

namespace
{

// Atomic so concurrent KindleSystem runs (runner::SweepRunner worker
// threads) can hit error paths while a test harness flips the mode.
std::atomic<bool> throwErrors{false};

} // namespace

void
setErrorsThrow(bool throw_instead)
{
    throwErrors.store(throw_instead, std::memory_order_relaxed);
}

namespace detail
{

void
panicImpl(const char *file, int line, const std::string &msg)
{
    if (throwErrors)
        throw SimError(SimError::Kind::panic, msg);
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    if (throwErrors)
        throw SimError(SimError::Kind::fatal, msg);
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    std::fprintf(stdout, "info: %s\n", msg.c_str());
}

} // namespace detail

} // namespace kindle
