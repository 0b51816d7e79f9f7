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
 * pure wall-clock optimization), per mechanism and on machine shapes
 * that reach the rare paths.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "sim/campaign.hh"
#include "sim/simulator.hh"
#include "wload/workload.hh"

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

// The same equality on machine shapes that reach the rare paths, where
// a stage's wait for time alone is long or unusual: each shape first
// proves its run took the path it is there for.

/** Benchmarks by name, seeded as Simulator's by-name constructor does. */
std::vector<WorkloadParams>
benchmarks(std::initializer_list<const char *> names)
{
    std::vector<WorkloadParams> out;
    for (const char *name : names) {
        out.push_back(benchmarkParams(name));
        out.back().seed ^= uint64_t(out.size() - 1) * 0x2545f4914f6cdd1dULL;
    }
    return out;
}

double
coreStat(const Simulator &sim, const std::string &name)
{
    auto *s = dynamic_cast<const stats::Scalar *>(
        sim.statsRoot().find("core." + name));
    return s ? s->value() : -1.0;
}

struct SkipShape
{
    const char *name;
    /** key=value settings over goldenParams(Multithreaded). */
    std::vector<std::string> settings;
    std::function<std::vector<WorkloadParams>()> workloads;
    /** The rare event the shape exists for: positive once it happened. */
    std::function<double(const Simulator &)> rare;
};

std::string
shapeDump(const SkipShape &shape, bool idleSkip, double *rare = nullptr)
{
    SimParams params = goldenParams(ExceptMech::Multithreaded, idleSkip);
    for (const std::string &kv : shape.settings) {
        size_t eq = kv.find('=');
        params.set(kv.substr(0, eq), kv.substr(eq + 1));
    }
    Simulator sim(params, shape.workloads());
    CoreResult result = sim.run();
    EXPECT_TRUE(result.ok()) << shape.name << ": " << result.error;
    if (rare)
        *rare = shape.rare(sim);
    std::ostringstream os;
    sim.dumpStats(os);
    return os.str();
}

auto statOf(const char *name)
{
    return [name](const Simulator &sim) { return coreStat(sim, name); };
}

const SkipShape skipShapes[] = {
    {"three_app_mix", {},
     [] { return benchmarks({"alphadoom", "compress", "vortex"}); },
     statOf("mtFallbacks")},
    {"emulated_fsqrt", {"except.emulateFsqrt=1"},
     [] {
         auto wl = benchmarks({"hydro2d"});
         wl[0].fsqrtOps = 2;
         return wl;
     },
     statOf("emulDone")},
    {"free_handler_window", {"except.freeHandlerWindow=1"},
     [] { return benchmarks({"compress"}); }, statOf("mtSpawns")},
    {"instant_handler_fetch", {"except.instantHandlerFetch=1"},
     [] { return benchmarks({"compress"}); }, statOf("mtSpawns")},
    // Two apps: the deadlock squash waits memLatency + 70 cycles.
    {"window32_mt3_mix", {"core.windowSize=32", "except.idleThreads=3"},
     [] { return benchmarks({"hydro2d", "deltablue"}); },
     statOf("deadlockSquashes")},
    // Older secondary misses trap instead of relinking: more trap
    // squashes than no-idle-context fallbacks.
    {"no_relink",
     {"except.relinkSecondaryMiss=0", "except.idleThreads=3",
      "tlb.dtlbEntries=16"},
     [] { return benchmarks({"hydro2d", "deltablue"}); },
     [](const Simulator &sim) {
         return coreStat(sim, "trapSquashes") -
                coreStat(sim, "mtFallbacks");
     }},
    // Completions land beyond the completion wheel's span.
    {"latency4096", {"mem.memLatency=4096", "mem.l2Latency=4096"},
     [] { return benchmarks({"hydro2d"}); }, statOf("deadlockSquashes")},
};

class IdleSkipShapeTest : public ::testing::TestWithParam<SkipShape>
{};

TEST_P(IdleSkipShapeTest, DumpIdenticalWithIdleSkipOff)
{
    const SkipShape &shape = GetParam();
    double rare = 0;
    std::string on = shapeDump(shape, true, &rare);
    EXPECT_GT(rare, 0.0) << shape.name << " missed its rare path";
    EXPECT_EQ(on, shapeDump(shape, false))
        << shape.name << ": idle-skip changed a statistic";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, IdleSkipShapeTest, ::testing::ValuesIn(skipShapes),
    [](const ::testing::TestParamInfo<SkipShape> &info) {
        return std::string(info.param.name);
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
