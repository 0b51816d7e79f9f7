/**
 * @file
 * Golden-run determinism tests: fixed-seed end-to-end runs for every
 * exception mechanism pinned by an exact FNV-1a checksum over the full
 * StatGroup dump. Any refactor that claims to be architecturally
 * invisible (the DynInst pool, idle-skip scheduling, future hot-path
 * work) is proven stat-identical here instead of eyeballed: a checksum
 * mismatch means some stat — cycles, misses, occupancy histograms,
 * attribution — moved.
 *
 * When a change *intends* to alter the stats (new counter, new
 * behaviour), the failure message prints the new checksum to paste
 * into the table below; that makes stat changes explicit in review.
 *
 * Also here: jobs=1 vs jobs=8 sweep equality (scheduling must never
 * leak into results) and idle-skip on/off dump equality (the skip is a
 * pure wall-clock optimization).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "sim/campaign.hh"
#include "sim/simulator.hh"

namespace
{

using namespace zmt;

uint64_t
fnv1a(const std::string &s)
{
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/** The pinned configuration: everything that affects the run is fixed
 *  here — bump GoldenInsts or the params and every checksum changes. */
constexpr uint64_t GoldenInsts = 25000;

SimParams
goldenParams(ExceptMech mech, bool idleSkip = true)
{
    SimParams params;
    params.maxInsts = GoldenInsts;
    params.except.mech = mech;
    params.except.idleThreads = 1;
    params.core.idleSkip = idleSkip;
    return params;
}

std::string
statDump(ExceptMech mech, bool idleSkip = true,
         const std::vector<std::string> &apps = {"compress"})
{
    Simulator sim(goldenParams(mech, idleSkip), apps);
    CoreResult result = sim.run();
    EXPECT_TRUE(result.ok()) << mechName(mech) << ": " << result.error;
    std::ostringstream os;
    sim.dumpStats(os);
    return os.str();
}

std::string
hexChecksum(uint64_t checksum)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  (unsigned long long)checksum);
    return buf;
}

// ---------------------------------------------------------------------
// Exact checksums, all mechanisms.
// ---------------------------------------------------------------------

struct GoldenPoint
{
    ExceptMech mech;
    uint64_t checksum;
};

// Pinned on the fixed-seed compress workload at GoldenInsts. Regenerate
// by running this test: a mismatch prints the actual checksum.
const GoldenPoint goldenTable[] = {
    {ExceptMech::PerfectTlb, 0x994a76c7cf62a851ULL},
    {ExceptMech::Traditional, 0x70b5c04af7ae5ae5ULL},
    {ExceptMech::Multithreaded, 0xf710b2a2d8050942ULL},
    {ExceptMech::QuickStart, 0x7ceb7bc9dff35c7dULL},
    {ExceptMech::Hardware, 0xd6686576c9b69c45ULL},
};

class GoldenRunTest : public ::testing::TestWithParam<GoldenPoint>
{};

TEST_P(GoldenRunTest, StatDumpChecksumMatches)
{
    const GoldenPoint &point = GetParam();
    std::string dump = statDump(point.mech);
    ASSERT_GT(dump.size(), 1000u); // a real, full dump — not a stub
    uint64_t actual = fnv1a(dump);
    EXPECT_EQ(actual, point.checksum)
        << mechName(point.mech) << " stat dump changed; if intended, "
        << "update goldenTable to {..., " << hexChecksum(actual) << "ULL}";
}

TEST_P(GoldenRunTest, RepeatedRunsAreDeterministic)
{
    const GoldenPoint &point = GetParam();
    EXPECT_EQ(statDump(point.mech), statDump(point.mech));
}

INSTANTIATE_TEST_SUITE_P(
    AllMechanisms, GoldenRunTest, ::testing::ValuesIn(goldenTable),
    [](const ::testing::TestParamInfo<GoldenPoint> &info) {
        return std::string(mechName(info.param.mech));
    });

// ---------------------------------------------------------------------
// Three applications share the window with one idle handler context:
// per-thread window accounting, cross-thread squashes and the handler
// reservation all show up in this dump, which the single-app points
// above cannot see.
// ---------------------------------------------------------------------

constexpr uint64_t goldenMixChecksum = 0x33e14e8e4c8ff50bULL;

TEST(GoldenMix, ThreeAppMultithreadedChecksumMatches)
{
    std::string dump = statDump(ExceptMech::Multithreaded, true,
                                {"alphadoom", "compress", "vortex"});
    ASSERT_GT(dump.size(), 1000u);
    uint64_t actual = fnv1a(dump);
    EXPECT_EQ(actual, goldenMixChecksum)
        << "three-app stat dump changed; if intended, update "
        << "goldenMixChecksum to " << hexChecksum(actual) << "ULL";
}

// ---------------------------------------------------------------------
// Idle-skip is architecturally invisible: the *entire* stat dump —
// cycles, every histogram bucket, every derived rate — is byte
// identical with the fast-forward scheduler on and off.
// ---------------------------------------------------------------------

class IdleSkipTest : public ::testing::TestWithParam<GoldenPoint>
{};

TEST_P(IdleSkipTest, DumpIdenticalWithIdleSkipOff)
{
    ExceptMech mech = GetParam().mech;
    EXPECT_EQ(statDump(mech, true), statDump(mech, false))
        << mechName(mech) << ": idle-skip changed a statistic";
}

INSTANTIATE_TEST_SUITE_P(
    AllMechanisms, IdleSkipTest, ::testing::ValuesIn(goldenTable),
    [](const ::testing::TestParamInfo<GoldenPoint> &info) {
        return std::string(mechName(info.param.mech));
    });

// ---------------------------------------------------------------------
// Helper-layer lock-down: with helper.* disabled (the default, which
// goldenParams() uses), the refactored context lifecycle must leave no
// trace whatsoever in the stat dump — no helper stat group, and (via
// the checksums above) not a single counter moved relative to the
// pre-refactor seed.
// ---------------------------------------------------------------------

class HelperDisabledTest : public ::testing::TestWithParam<GoldenPoint>
{};

TEST_P(HelperDisabledTest, DisabledHelpersLeaveNoStatTrace)
{
    std::string dump = statDump(GetParam().mech);
    EXPECT_EQ(dump.find("helper."), std::string::npos)
        << mechName(GetParam().mech)
        << ": disabled helper layer leaked stats into the dump";
}

INSTANTIATE_TEST_SUITE_P(
    AllMechanisms, HelperDisabledTest, ::testing::ValuesIn(goldenTable),
    [](const ::testing::TestParamInfo<GoldenPoint> &info) {
        return std::string(mechName(info.param.mech));
    });

// ---------------------------------------------------------------------
// Sweep scheduling must never leak into results: a jobs=8 sweep
// returns bit-identical cells, in submission order, to a jobs=1 sweep.
// ---------------------------------------------------------------------

std::string
coreResultKey(const CoreResult &r)
{
    std::ostringstream os;
    os << runStatusName(r.status) << '|' << r.error << '|' << r.cycles
       << '|' << r.userInsts << '|' << r.tlbMisses << '|'
       << r.emulations << '|' << r.measuredCycles << '|'
       << r.measuredInsts << '|' << r.measuredMisses << '|'
       << std::hexfloat << r.ipc;
    return os.str();
}

TEST(GoldenSweep, SerialAndParallelSweepsAreBitIdentical)
{
    std::vector<SweepJob> jobs;
    for (ExceptMech mech :
         {ExceptMech::Traditional, ExceptMech::Multithreaded,
          ExceptMech::QuickStart, ExceptMech::Hardware}) {
        SimParams params = goldenParams(mech);
        params.maxInsts = 12000;
        jobs.emplace_back(params, std::vector<std::string>{"compress"},
                          std::string("golden/") + mechName(mech));
    }

    std::vector<CampaignOutcome> serial =
        CampaignRunner(CampaignOptions{}, 1).run(jobs);
    std::vector<CampaignOutcome> parallel =
        CampaignRunner(CampaignOptions{}, 8).run(jobs);

    ASSERT_EQ(serial.size(), jobs.size());
    ASSERT_EQ(parallel.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_TRUE(serial[i].ok()) << jobs[i].label;
        ASSERT_TRUE(parallel[i].ok()) << jobs[i].label;
        EXPECT_EQ(coreResultKey(serial[i].outcome.result.mech),
                  coreResultKey(parallel[i].outcome.result.mech))
            << jobs[i].label;
        EXPECT_EQ(coreResultKey(serial[i].outcome.result.perfect),
                  coreResultKey(parallel[i].outcome.result.perfect))
            << jobs[i].label;
    }
}

} // anonymous namespace
