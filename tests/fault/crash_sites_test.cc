/**
 * @file
 * Crash tests parameterized over every named crash site × page-table
 * scheme: arm the injector at the site's first occurrence, ride the
 * injected PowerLoss through crash()+reboot(), and check the salvage
 * invariants.  Also regression-tests the crashed-machine run() guard
 * and that reboot() never re-registers stat groups.
 */

#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "kindle/kindle.hh"
#include "kindle/microbench.hh"

namespace kindle
{
namespace
{

std::unique_ptr<cpu::OpStream>
crashWorkload()
{
    // Same shape as the fuzz harness workload, shrunk: allocator
    // traffic, VMA churn and wrapped PTE writes across several
    // checkpoint intervals so every instrumented protocol runs.
    micro::ScriptBuilder b;
    b.mmapFixed(micro::scriptBase, 32 * pageSize, true);
    b.touchPages(micro::scriptBase, 32 * pageSize);
    for (int r = 0; r < 6; ++r) {
        b.compute(500000);
        const Addr extra =
            micro::scriptBase + (48 + Addr(r) * 8) * pageSize;
        b.mmapFixed(extra, 4 * pageSize, true);
        b.touchPages(extra, 4 * pageSize);
        if (r % 2)
            b.munmap(extra, 4 * pageSize);
    }
    b.exit();
    return b.build();
}

std::unique_ptr<cpu::OpStream>
hsccWorkload()
{
    // A hot NVM working set re-read every round: the HSCC engine's
    // periodic migration pass finds pages over the fetch threshold
    // and runs its copy protocol (where hscc.* sites live).
    micro::ScriptBuilder b;
    const unsigned pages = 48;
    b.mmapFixed(micro::scriptBase, pages * pageSize, true);
    b.touchPages(micro::scriptBase, pages * pageSize);
    for (unsigned r = 0; r < 8; ++r) {
        for (unsigned h = 0; h < 4; ++h)
            for (unsigned p = 0; p < pages; ++p)
                b.read(micro::scriptBase + p * pageSize +
                       ((r * 4 + h) % 64) * 64);
        b.compute(1000000);
    }
    b.exit();
    return b.build();
}

KindleConfig
crashConfig(persist::PtScheme scheme)
{
    KindleConfig cfg;
    cfg.memory.dramBytes = 64 * oneMiB;
    cfg.memory.nvmBytes = 128 * oneMiB;
    cfg.persistence = persist::PersistParams{scheme, oneMs / 4};
    return cfg;
}

struct SiteCase
{
    std::string site;
    persist::PtScheme scheme;
};

std::vector<SiteCase>
allSiteCases()
{
    std::vector<SiteCase> cases;
    for (const auto scheme : {persist::PtScheme::rebuild,
                              persist::PtScheme::persistent}) {
        for (const auto &site : fault::crashSiteCatalog())
            cases.push_back({site.name, scheme});
    }
    return cases;
}

std::string
siteCaseName(const ::testing::TestParamInfo<SiteCase> &info)
{
    std::string name =
        std::string(persist::ptSchemeName(info.param.scheme)) + "_" +
        info.param.site;
    for (auto &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return name;
}

class CrashSiteTest : public ::testing::TestWithParam<SiteCase>
{};

TEST_P(CrashSiteTest, CrashAtSiteRecoversOrSalvages)
{
    const SiteCase &param = GetParam();

    const bool hscc_site = param.site.rfind("hscc.", 0) == 0;
    const bool smp_site = param.site.rfind("core.", 0) == 0 ||
                          param.site.rfind("ipi.", 0) == 0;
    KindleConfig cfg = crashConfig(param.scheme);
    if (smp_site) {
        // The core-fault sites only fire on an SMP machine with a
        // core fault armed: fail-stop core 1 at its first received
        // shootdown IPI, so the initiator rides the retry path
        // (ipi.pre_retry) into watchdog offlining (core.pre_offline).
        cfg.numCores = 2;
        fault::CoreFaultPlan plan;
        fault::CoreFault f;
        f.cpu = 1;
        f.atNthIpi = 1;
        plan.faults.push_back(f);
        cfg.kernel.coreFaults = plan;
    }
    if (hscc_site) {
        // HSCC sites only fire with the migration engine running and a
        // hot NVM working set worth promoting.
        hscc::HsccParams hp;
        hp.migrationInterval = oneMs / 8;
        hp.fetchThreshold = 2;
        cfg.hscc = hp;
    }
    fault::FaultPlan plan;
    plan.site = param.site;
    plan.occurrence = 1;
    cfg.fault = plan;

    KindleSystem sys(cfg);
    bool fired = false;
    try {
        sys.run(hscc_site ? hsccWorkload() : crashWorkload(),
                "crashsite");
    } catch (const fault::PowerLoss &loss) {
        fired = true;
        EXPECT_EQ(loss.site(), param.site);
    }
    if (!fired) {
        GTEST_SKIP() << "site " << param.site
                     << " not exercised by this workload under the "
                     << persist::ptSchemeName(param.scheme)
                     << " scheme";
    }

    sys.crash();
    const persist::RecoveryReport report = sys.reboot();

    // Salvage invariants: everything recovery kept is a fully
    // validated, restored process; every quarantined slot carries at
    // least one classified error; and the machine is live again —
    // able to checkpoint and to accept new work.
    unsigned restored = 0;
    for (const auto &proc : sys.kernel().processes()) {
        if (proc->restored)
            ++restored;
    }
    EXPECT_EQ(restored, report.processesRecovered);
    EXPECT_LE(report.processesQuarantined, report.errors.size());
    for (const auto &err : report.errors)
        EXPECT_STRNE(persist::recoveryErrorName(err.code), "");
    EXPECT_NO_THROW(sys.persistence()->checkpointNow());
    micro::ScriptBuilder post;
    post.compute(1000);
    post.exit();
    EXPECT_NO_THROW(sys.run(post.build(), "post"));
}

INSTANTIATE_TEST_SUITE_P(AllSites, CrashSiteTest,
                         ::testing::ValuesIn(allSiteCases()),
                         siteCaseName);

TEST(CrashedMachineTest, RunIsFatalBetweenCrashAndReboot)
{
    KindleSystem sys(crashConfig(persist::PtScheme::rebuild));
    sys.run(crashWorkload(), "first");
    sys.crash();

    setErrorsThrow(true);
    EXPECT_THROW(sys.runAll(), SimError);
    micro::ScriptBuilder b;
    b.exit();
    EXPECT_THROW(sys.run(b.build(), "doomed"), SimError);
    setErrorsThrow(false);

    // reboot() clears the condition.
    sys.reboot();
    EXPECT_NO_THROW(sys.runAll());
}

TEST(RebootStatsTest, StatGroupsRegisterOnceAcrossReboots)
{
    KindleSystem sys(crashConfig(persist::PtScheme::persistent));
    os::Process &proc = sys.kernel().spawnShell("survivor", 0);
    sys.kernel().sysMmap(proc, 0, 8 * pageSize, cpu::mapNvm);
    sys.persistence()->checkpointNow();
    for (int cycle = 0; cycle < 2; ++cycle) {
        sys.crash();
        sys.reboot();
        // Checkpoint again so the next cycle has fresh state to find.
        sys.persistence()->checkpointNow();
    }

    // The recovery counters accumulate across reboots instead of
    // resetting with the OS ...
    //
    // ... and each stat appears exactly once after two reboots:
    // reboot() must not re-register the recovery or fault groups, and
    // a path written twice into one snapshot is fatal.
    setErrorsThrow(true);
    statistics::StatSnapshot snap;
    EXPECT_NO_THROW(snap = sys.snapshotStats());
    setErrorsThrow(false);
    EXPECT_EQ(snap.get("recovery.reboots"), 2.0);
    EXPECT_GE(snap.get("recovery.processesRecovered"), 2.0);
    EXPECT_TRUE(snap.has("recovery.processesQuarantined"));
    EXPECT_TRUE(snap.has("fault.siteHits"));
}

} // namespace
} // namespace kindle
