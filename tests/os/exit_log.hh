/**
 * @file
 * A kernel listener that keeps what a test checks about each exited
 * process.  The kernel reaps a zombie's PCB at the next scheduling
 * epoch, so a test observes an exit through findProcess() returning
 * null and reads the exiting PCB's fields from this log.
 */

#ifndef KINDLE_TESTS_OS_EXIT_LOG_HH
#define KINDLE_TESTS_OS_EXIT_LOG_HH

#include <cstdint>
#include <map>

#include "os/kernel.hh"

namespace kindle::os::test
{

class ExitLog : public OsEventListener
{
  public:
    /** A process's PCB fields as they stood at its exit. */
    struct Exit
    {
        std::uint64_t residentPages = 0;
        int pinnedCpu = -1;
        CpuId lastCpu = 0;
        /** contextOf() answered with the PCB's saved context. */
        bool savedContext = false;
    };

    explicit ExitLog(Kernel &kernel) : kernel(kernel)
    {
        kernel.addListener(this);
    }

    ~ExitLog() override { kernel.removeListener(this); }

    ExitLog(const ExitLog &) = delete;
    ExitLog &operator=(const ExitLog &) = delete;

    void
    onProcessExit(Process &proc) override
    {
        exits[proc.pid] =
            Exit{proc.residentPages, proc.pinnedCpu, proc.lastCpu,
                 &kernel.contextOf(proc) == &proc.context};
    }

    /** The exit of @p pid, or null if it has not exited. */
    const Exit *
    of(Pid pid) const
    {
        const auto it = exits.find(pid);
        return it == exits.end() ? nullptr : &it->second;
    }

  private:
    Kernel &kernel;
    std::map<Pid, Exit> exits;
};

} // namespace kindle::os::test

#endif // KINDLE_TESTS_OS_EXIT_LOG_HH
