/**
 * @file
 * Process persistence end to end: a "service" process maps NVM state,
 * makes progress, gets checkpointed — and then the machine loses
 * power.  After reboot, Kindle's recovery procedure reconstructs the
 * process from the saved state in NVM: same registers, same address
 * space, same virtual→physical NVM mappings, ready to resume.
 *
 * Run it twice mentally: everything after crash() would be lost on a
 * DRAM-only machine.
 */

#include <cstdio>

#include "kindle/kindle.hh"
#include "kindle/microbench.hh"

int
main()
{
    using namespace kindle;

    KindleConfig cfg;
    cfg.persistence = persist::PersistParams{
        persist::PtScheme::rebuild, 10 * oneMs};
    KindleSystem sys(cfg);

    // A long-lived "service": maps 1 MiB of NVM state and keeps
    // updating it.
    const Addr state_va = micro::scriptBase;
    micro::ScriptBuilder b;
    b.mmapFixed(state_va, oneMiB, /*nvm=*/true);
    b.touchPages(state_va, oneMiB);
    for (int round = 0; round < 400; ++round) {
        b.write(state_va + (round % 256) * pageSize);
        b.compute(500000);
    }
    b.exit();
    sys.kernel().spawn(b.build(), "counter-service");

    // Let it run long enough for several periodic checkpoints...
    sys.kernel().runUntil(sys.now() + 40 * oneMs);
    const auto checkpoints = sys.persistence()->checkpointsTaken();
    os::Process *proc = sys.kernel().processes().front().get();
    const auto rip_before = proc->context.rip;
    const auto mapped_before = proc->aspace.mappedBytes();
    std::printf("before crash: %llu checkpoints taken, process at "
                "rip=%llu with %s mapped\n",
                (unsigned long long)checkpoints,
                (unsigned long long)rip_before,
                sizeToString(mapped_before).c_str());

    // ... and pull the plug.
    sys.crash();
    std::printf("power failure! caches, TLBs, DRAM and the OS are "
                "gone; NVM survives\n");

    const persist::RecoveryReport report = sys.reboot();
    std::printf("reboot: recovered %u process(es) in %.3f ms of "
                "simulated time; %llu NVM mappings rebuilt, %llu "
                "leaked frames reclaimed\n",
                report.processesRecovered,
                ticksToMs(report.recoveryTicks),
                (unsigned long long)report.mappingsRestored,
                (unsigned long long)report.framesReclaimed);

    os::Process *back = sys.kernel().processes().front().get();
    std::printf("recovered process: rip=%llu (consistent copy), %s "
                "mapped, restored=%s\n",
                (unsigned long long)back->context.rip,
                sizeToString(back->aspace.mappedBytes()).c_str(),
                back->restored ? "yes" : "no");

    // Resume execution on the recovered address space.
    micro::ScriptBuilder resume;
    resume.readPages(state_va, oneMiB);
    resume.exit();
    back->program = resume.build();
    sys.kernel().makeReady(*back);
    const Pid pid = back->pid;
    sys.runAll();
    // An exited process's PCB is reaped, so completion shows as its
    // pid no longer resolving; `back` may dangle from here on.
    const os::Process *after = sys.kernel().findProcess(pid);
    std::printf("recovered process resumed and re-read its state "
                "without a single page fault re-allocation: %s\n",
                !after || after->state == os::ProcState::zombie
                    ? "done"
                    : "still going");
    return 0;
}
