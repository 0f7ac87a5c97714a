/**
 * @file
 * Kernel event listener interface.
 *
 * The persistence layer subscribes to these callbacks to append redo
 * records for OS metadata mutations; the SSP prototype subscribes to
 * FASE boundaries.  Listeners run synchronously in kernel context, so
 * any memory traffic they issue is charged to the running process —
 * which is exactly how the paper attributes OS overhead.
 */

#ifndef KINDLE_OS_OS_EVENTS_HH
#define KINDLE_OS_OS_EVENTS_HH

#include "base/types.hh"
#include "os/vma.hh"

namespace kindle::os
{

class Process;

/** Subscriber to kernel lifecycle and memory-management events. */
class OsEventListener
{
  public:
    virtual ~OsEventListener() = default;

    virtual void onProcessCreated(Process &proc) { (void)proc; }
    virtual void onProcessExit(Process &proc) { (void)proc; }

    virtual void
    onVmaAdded(Process &proc, const Vma &vma)
    {
        (void)proc;
        (void)vma;
    }

    virtual void
    onVmaRemoved(Process &proc, const Vma &vma)
    {
        (void)proc;
        (void)vma;
    }

    /**
     * munmap or mprotect is about to change @p proc's VMAs.  Unlike
     * the completion hooks above, this fires before the change, and so
     * before the TLB shootdowns inside the syscall service the event
     * queue (where, say, a checkpoint may run).
     */
    virtual void onVmaChanging(Process &proc) { (void)proc; }

    virtual void
    onFrameMapped(Process &proc, Addr vaddr, Addr frame, bool nvm)
    {
        (void)proc;
        (void)vaddr;
        (void)frame;
        (void)nvm;
    }

    virtual void
    onFrameUnmapped(Process &proc, Addr vaddr, Addr frame, bool nvm)
    {
        (void)proc;
        (void)vaddr;
        (void)frame;
        (void)nvm;
    }

    /**
     * The kernel is unmapping a page whose PTE carries the HSCC
     * remapped flag: @p mapped_frame is the DRAM cache page.  A
     * subscriber that owns the remapping resolves the NVM home frame
     * (written to @p home_out) and reclaims its cache slot.
     * @return true if resolved.
     */
    virtual bool
    resolveRemappedFrame(Process &proc, Addr vaddr, Addr mapped_frame,
                         Addr *home_out)
    {
        (void)proc;
        (void)vaddr;
        (void)mapped_frame;
        (void)home_out;
        return false;
    }

    /**
     * An NVM frame was durably retired.  When a live page sat on it,
     * @p proc / @p vaddr / @p new_frame describe the migration that
     * rescued it (@p new_frame may be a DRAM frame when the NVM zone
     * was exhausted); for an unmapped frame @p proc is null.
     */
    virtual void
    onFrameRetired(Process *proc, Addr vaddr, Addr bad_frame,
                   Addr new_frame)
    {
        (void)proc;
        (void)vaddr;
        (void)bad_frame;
        (void)new_frame;
    }

    virtual void
    onContextSwitch(Process *from, Process *to)
    {
        (void)from;
        (void)to;
    }

    virtual void onFaseStart(Process &proc) { (void)proc; }
    virtual void onFaseEnd(Process &proc) { (void)proc; }
};

} // namespace kindle::os

#endif // KINDLE_OS_OS_EVENTS_HH
