/**
 * @file
 * Recovery idempotence: power loss *during recovery* must be
 * harmless.  For every crash site instrumented inside the recovery
 * procedure, under both page-table schemes:
 *
 *   system A crashes mid-workload and recovers once — the oracle;
 *   system B crashes at the same instant, then has a second fault
 *   armed at one recover.* site, so its first recovery dies half-way
 *   and the machine reboots over the partially-recovered durable
 *   image.  The second recovery must restore exactly the oracle's
 *   process state.
 *
 * Sites a clean recovery does not exercise (e.g. the quarantine path
 * when nothing is damaged) skip rather than pass vacuously.
 */

#include <algorithm>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "kindle/kindle.hh"
#include "kindle/microbench.hh"

namespace kindle
{
namespace
{

/** Observable per-process outcome of a recovery. */
using ProcState = std::tuple<std::uint64_t, std::uint64_t, bool>;

struct Outcome
{
    unsigned recovered = 0;
    unsigned quarantined = 0;
    std::vector<ProcState> procs;

    bool
    operator==(const Outcome &o) const
    {
        return recovered == o.recovered &&
               quarantined == o.quarantined && procs == o.procs;
    }
};

KindleConfig
schemeConfig(persist::PtScheme scheme)
{
    KindleConfig cfg;
    cfg.memory.dramBytes = 128 * oneMiB;
    cfg.memory.nvmBytes = 256 * oneMiB;
    cfg.persistence = persist::PersistParams{scheme, oneMs};
    return cfg;
}

/** Identical pre-crash history for the oracle and the victim. */
void
runToCrash(KindleSystem &sys)
{
    micro::ScriptBuilder b;
    b.mmapFixed(micro::scriptBase, 32 * pageSize, true);
    b.touchPages(micro::scriptBase, 32 * pageSize);
    for (int i = 0; i < 100; ++i)
        b.compute(1000000);
    b.exit();
    sys.kernel().spawn(b.build(), "idem");
    sys.kernel().runUntil(sys.now() + 5 * oneMs);
    sys.crash();
}

Outcome
observe(KindleSystem &sys, const persist::RecoveryReport &report)
{
    Outcome out;
    out.recovered = report.processesRecovered;
    out.quarantined = report.processesQuarantined;
    for (const auto &proc : sys.kernel().processes()) {
        out.procs.emplace_back(proc->context.rip,
                               proc->aspace.mappedBytes(),
                               proc->restored);
    }
    std::sort(out.procs.begin(), out.procs.end());
    return out;
}

struct Combo
{
    persist::PtScheme scheme;
    const char *site;
};

/** Print a case as its scheme and site, so the listed test name holds
 *  no bytes of the site literal's address. */
void
PrintTo(const Combo &combo, std::ostream *os)
{
    *os << persist::ptSchemeName(combo.scheme) << ' ' << combo.site;
}

std::string
comboName(const ::testing::TestParamInfo<Combo> &info)
{
    std::string name = persist::ptSchemeName(info.param.scheme);
    name += "_";
    for (const char *c = info.param.site; *c; ++c)
        name += (*c == '.' ? '_' : *c);
    return name;
}

class RecoveryIdempotenceTest : public ::testing::TestWithParam<Combo>
{};

TEST_P(RecoveryIdempotenceTest, SecondRecoveryMatchesFirst)
{
    const Combo combo = GetParam();

    // Oracle: one crash, one recovery.
    KindleSystem oracle(schemeConfig(combo.scheme));
    runToCrash(oracle);
    const Outcome expected =
        observe(oracle, oracle.reboot());
    ASSERT_GT(expected.recovered, 0u);

    // Victim: same crash, then power fails again inside recovery.
    KindleSystem victim(schemeConfig(combo.scheme));
    runToCrash(victim);
    fault::FaultPlan second;
    second.site = combo.site;
    victim.armFault(second);
    bool fired = false;
    try {
        victim.reboot();
    } catch (const fault::PowerLoss &loss) {
        fired = true;
        EXPECT_EQ(loss.site(), combo.site);
    }
    if (!fired) {
        GTEST_SKIP() << "site " << combo.site
                     << " not exercised by a clean "
                     << persist::ptSchemeName(combo.scheme)
                     << " recovery";
    }
    ASSERT_TRUE(victim.crashed());

    // Reboot over the half-recovered image: recovery must converge.
    const Outcome actual = observe(victim, victim.reboot());
    EXPECT_EQ(actual, expected);

    // And the twice-recovered machine is fully alive.
    victim.persistence()->checkpointNow();
}

std::vector<Combo>
allCombos()
{
    std::vector<Combo> combos;
    for (const auto scheme : {persist::PtScheme::rebuild,
                              persist::PtScheme::persistent}) {
        for (const char *site :
             {"recover.after_bitmap", "recover.after_log_audit",
              "recover.after_pt_rollback", "recover.after_quarantine",
              "recover.after_slot_restore", "recover.before_reclaim",
              "recover.complete"}) {
            combos.push_back({scheme, site});
        }
    }
    return combos;
}

INSTANTIATE_TEST_SUITE_P(AllSitesAndSchemes, RecoveryIdempotenceTest,
                         ::testing::ValuesIn(allCombos()), comboName);

} // namespace
} // namespace kindle
