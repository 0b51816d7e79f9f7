/**
 * @file
 * Experiment-harness tests: the penalty metric math, baseline
 * memoization, parameter parsing, and the Figure 7 mixes.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hh"
#include "sim/experiment.hh"

namespace
{

using namespace zmt;

TEST(PenaltyMath, PerMissAndFraction)
{
    PenaltyResult r;
    r.mech.measuredCycles = 1200;
    r.mech.measuredMisses = 50;
    r.mech.measuredInsts = 10000;
    r.perfect.measuredCycles = 1000;
    EXPECT_DOUBLE_EQ(r.penaltyPerMiss(), 4.0);
    EXPECT_DOUBLE_EQ(r.tlbFraction(), 200.0 / 1200.0);
    EXPECT_DOUBLE_EQ(r.missesPerKilo(), 5.0);
}

TEST(PenaltyMath, ZeroMissesIsZeroPenalty)
{
    PenaltyResult r;
    r.mech.measuredCycles = 1200;
    r.perfect.measuredCycles = 1000;
    r.mech.measuredMisses = 0;
    EXPECT_EQ(r.penaltyPerMiss(), 0.0);
}

TEST(PenaltyMath, Speedup)
{
    PenaltyResult r;
    r.mech.measuredCycles = 800;
    CoreResult traditional;
    traditional.measuredCycles = 1000;
    EXPECT_DOUBLE_EQ(r.speedupOver(traditional), 1.25);
}

TEST(Experiment, BaselineIsMemoized)
{
    clearBaselineCache();
    SimParams params;
    params.maxInsts = 15000;
    params.except.mech = ExceptMech::Traditional;

    PenaltyResult a = measurePenalty(params, {"compress"});
    params.except.mech = ExceptMech::Hardware;
    PenaltyResult b = measurePenalty(params, {"compress"});
    // Identical baseline object values: the perfect run was reused.
    EXPECT_EQ(a.perfect.cycles, b.perfect.cycles);
    EXPECT_EQ(a.perfect.userInsts, b.perfect.userInsts);
}

TEST(Experiment, DifferentShapesGetDifferentBaselines)
{
    clearBaselineCache();
    SimParams params;
    params.maxInsts = 15000;
    params.except.mech = ExceptMech::Traditional;
    PenaltyResult wide = measurePenalty(params, {"murphi"});
    params.core.setWidth(2);
    PenaltyResult narrow = measurePenalty(params, {"murphi"});
    EXPECT_NE(wide.perfect.cycles, narrow.perfect.cycles);
}

// Regression for the stale-baseline-cache bug: the old cache key
// serialized a hand-picked subset of SimParams (width, window,
// frontend depth, run lengths, seed, DTLB entries), so two
// configurations that differed only in an omitted field — memory
// latency, cache geometry, predictor shape — silently shared one
// baseline. The canonical key serializes every field; mutating any of
// these previously-omitted knobs must change it.
TEST(Experiment, CanonicalKeyCoversPreviouslyOmittedFields)
{
    const std::string base = SimParams().canonicalKey();
    const std::vector<
        std::pair<const char *, std::function<void(SimParams &)>>>
        mutations = {
            {"mem.memLatency",
             [](SimParams &p) { p.mem.memLatency = 300; }},
            {"mem.l2SizeKb", [](SimParams &p) { p.mem.l2SizeKb = 4096; }},
            {"mem.l2Latency", [](SimParams &p) { p.mem.l2Latency = 25; }},
            {"mem.l1dSizeKb", [](SimParams &p) { p.mem.l1dSizeKb = 128; }},
            {"mem.l1dLineBytes",
             [](SimParams &p) { p.mem.l1dLineBytes *= 2; }},
            {"bpred.historyBits",
             [](SimParams &p) { p.bpred.historyBits += 1; }},
            {"core.fetchBufEntries",
             [](SimParams &p) { p.core.fetchBufEntries = 64; }},
            {"core.intAluCount",
             [](SimParams &p) { p.core.intAluCount += 1; }},
            {"except.quickStartWarmup",
             [](SimParams &p) { p.except.quickStartWarmup += 8; }},
            {"except.idleThreads",
             [](SimParams &p) { p.except.idleThreads += 1; }},
            {"verify.badPteProb",
             [](SimParams &p) { p.verify.badPteProb = 0.125; }},
            {"watchdogCycles",
             [](SimParams &p) { p.watchdogCycles += 1; }},
        };
    for (const auto &[what, mutate] : mutations) {
        SimParams mutated;
        mutate(mutated);
        EXPECT_NE(mutated.canonicalKey(), base) << what;
    }
}

TEST(Experiment, CanonicalKeyEnumeratesWholeParamSpace)
{
    SimParams params;
    const std::string key = params.canonicalKey();
    params.forEachParam(
        [&](const std::string &name, const std::string &value) {
            EXPECT_NE(key.find(name + "=" + value + ";"),
                      std::string::npos)
                << name;
        });
}

// End-to-end version of the same regression: two penalty measurements
// that differ only in memory latency must each get their own baseline
// run, with visibly different perfect-TLB cycle counts.
TEST(Experiment, OmittedFieldMutationGetsFreshBaseline)
{
    clearBaselineCache();
    SimParams params;
    params.maxInsts = 15000;
    params.except.mech = ExceptMech::Traditional;

    PenaltyResult fast = measurePenalty(params, {"compress"});
    EXPECT_EQ(baselineCacheSize(), 1u);
    params.mem.memLatency = 400;
    PenaltyResult slow = measurePenalty(params, {"compress"});
    EXPECT_EQ(baselineCacheSize(), 2u);
    EXPECT_NE(fast.perfect.measuredCycles, slow.perfect.measuredCycles);
}

// A perfect-TLB configuration is its own baseline: one simulation,
// reported as both mech and perfect, with zero penalty.
TEST(Experiment, PerfectTlbMechReusesBaseline)
{
    clearBaselineCache();
    SimParams params;
    params.maxInsts = 15000;
    params.except.mech = ExceptMech::PerfectTlb;
    PenaltyResult r = measurePenalty(params, {"compress"});
    EXPECT_EQ(baselineCacheSize(), 1u);
    EXPECT_EQ(r.mech.cycles, r.perfect.cycles);
    EXPECT_DOUBLE_EQ(r.penaltyPerMiss(), 0.0);
}

TEST(Experiment, Figure7MixesAreValid)
{
    const auto &mixes = figure7Mixes();
    EXPECT_EQ(mixes.size(), 8u); // the paper's eight combinations
    for (const auto &mix : mixes) {
        EXPECT_EQ(mix.size(), 3u);
        for (const auto &bench : mix)
            EXPECT_NO_FATAL_FAILURE(benchmarkParams(bench));
    }
}

TEST(Params, KeyValueParsing)
{
    SimParams params;
    params.setKeyValue("core.width=4");
    EXPECT_EQ(params.core.width, 4u);
    EXPECT_EQ(params.core.windowSize, 64u); // paired per Figure 3
    params.setKeyValue("except.mech=hardware");
    EXPECT_EQ(params.except.mech, ExceptMech::Hardware);
    params.setKeyValue("except.windowReservation=off");
    EXPECT_FALSE(params.except.windowReservation);
    params.setKeyValue("maxInsts=123456");
    EXPECT_EQ(params.maxInsts, 123456u);
}

TEST(Params, UnknownKeyIsFatal)
{
    SimParams params;
    EXPECT_EXIT(params.setKeyValue("core.bogus=1"),
                ::testing::ExitedWithCode(1), "unknown parameter");
}

TEST(Params, BadValueIsFatal)
{
    SimParams params;
    EXPECT_EXIT(params.setKeyValue("core.width=abc"),
                ::testing::ExitedWithCode(1), "bad numeric");
    EXPECT_EXIT(params.setKeyValue("except.mech=warp"),
                ::testing::ExitedWithCode(1), "unknown exception");
    // An unsigned field takes no more than 32 bits and no sign.
    EXPECT_EXIT(params.setKeyValue("core.windowSize=4294967424"),
                ::testing::ExitedWithCode(1), "core.windowSize");
    EXPECT_EXIT(params.setKeyValue("bpred.historyBits=-1"),
                ::testing::ExitedWithCode(1), "bpred.historyBits");
    EXPECT_EXIT(params.setKeyValue("except.emulateFsqrt=maybe"),
                ::testing::ExitedWithCode(1), "except.emulateFsqrt");

    // Values that parse but leave the machine no way to be built or to
    // make progress are rejected when the Simulator is built, naming
    // the key, not at the livelock watchdog millions of cycles later
    // (or as a division by zero, an oversized shift or bad_alloc).
    const std::pair<const char *, const char *> unbuildable[] = {
        {"core.windowSize", "0"},
        {"core.lsPortCount", "0"},
        {"core.intAluCount", "0"},
        {"core.intMulCount", "0"},
        {"core.fpAddCount", "0"},
        {"core.fpDivCount", "0"},
        {"mem.l1iSizeKb", "0"},
        {"mem.l1iSizeKb", "4294967295"},
        {"mem.l1iAssoc", "0"},
        {"mem.l1iAssoc", "4294967295"},
        {"mem.l1iLineBytes", "0"},
        {"mem.l1iLineBytes", "4294967295"},
        {"mem.l1dAssoc", "0"},
        {"mem.l1dLineBytes", "0"},
        {"mem.l1dSizeKb", "4294967295"},
        {"mem.l2Assoc", "0"},
        {"mem.l2LineBytes", "0"},
        {"mem.l2LineBytes", "48"},
        {"bpred.yagsChoiceBits", "4294967295"},
        {"bpred.yagsExcBits", "32"},
        {"bpred.yagsTagBits", "9"},
        {"bpred.indirectBtbBits", "4294967295"},
        {"bpred.indirectExcBits", "4294967295"},
        {"bpred.historyBits", "32"},
        {"bpred.rasEntries", "0"},
        {"bpred.rasEntries", "65537"},
    };
    for (const auto &[key, value] : unbuildable) {
        SimParams bad;
        bad.set(key, value);
        EXPECT_EXIT(Simulator(bad, std::vector<std::string>{"compress"}),
                    ::testing::ExitedWithCode(1), key)
            << key << "=" << value;
    }
}

// Pipeline depths, latencies and bus occupancies are bounded when the
// Simulator is built: past the bound the build is refused, naming the
// key; at zero and at the bound the run completes. No value may crash
// the simulator.
TEST(Params, TimingKeysAreBoundedAndRunAtTheirLimits)
{
    for (auto [key, max] :
         {std::pair{"core.fetchDepth", 64}, {"core.decodeDepth", 64},
          {"core.schedDepth", 64}, {"core.regReadDepth", 64},
          {"mem.l2Latency", 4096}, {"mem.memLatency", 4096},
          {"mem.l1l2BusCyclesPerBlock", 4096},
          {"mem.l2MemBusCycles", 4096}}) {
        for (unsigned value : {0u, unsigned(max)}) {
            SimParams params;
            params.maxInsts = 2000;
            params.set(key, std::to_string(value));
            CoreResult result =
                Simulator(params, std::vector<std::string>{"compress"})
                    .run();
            EXPECT_TRUE(result.ok())
                << key << "=" << value << ": " << result.error;
        }
        for (const std::string &value :
             {std::to_string(max + 1), std::string("4294967295")}) {
            SimParams params;
            params.set(key, value);
            EXPECT_EXIT(
                Simulator(params, std::vector<std::string>{"compress"}),
                ::testing::ExitedWithCode(1),
                std::string(key) + " must be at most")
                << key << "=" << value;
        }
    }

    // At the largest memory latency every L2 miss completes thousands
    // of cycles out, past the completion wheel's span, so those events
    // take the overflow heap; the run still matches itself with and
    // without idle-skip.
    SimParams slow;
    slow.maxInsts = 2000;
    slow.set("mem.memLatency", "4096");
    slow.set("mem.l2Latency", "4096");
    Cycle skipped =
        Simulator(slow, std::vector<std::string>{"compress"}).run().cycles;
    slow.core.idleSkip = false;
    CoreResult ticked =
        Simulator(slow, std::vector<std::string>{"compress"}).run();
    ASSERT_TRUE(ticked.ok()) << ticked.error;
    EXPECT_EQ(ticked.cycles, skipped);
    EXPECT_GT(ticked.cycles, Cycle(8192));

    // The window-occupancy histogram's bound, windowSize + 1, must not
    // wrap to zero at the maximum window.
    SimParams wide;
    wide.maxInsts = 2000;
    wide.set("core.windowSize", "4294967295");
    EXPECT_TRUE(Simulator(wide, std::vector<std::string>{"compress"})
                    .run()
                    .ok());
}

/** A fresh SimParams with @p from's forEachParam pairs set() in order. */
SimParams
replayed(const SimParams &from)
{
    SimParams to;
    from.forEachParam([&](const std::string &key, const std::string &value) {
        to.set(key, value);
    });
    return to;
}

std::map<std::string, std::string>
paramMap(const SimParams &params)
{
    std::map<std::string, std::string> values;
    params.forEachParam([&](const std::string &key,
                            const std::string &value) {
        values[key] = value;
    });
    return values;
}

/** A value for @p key other than its default @p value. */
std::string
changed(const std::string &key, const std::string &value)
{
    if (key == "except.mech")
        return "hardware";
    if (value.empty())
        return key + ".out"; // a path
    if (value == "0" || value == "1")
        return value == "0" ? "1" : "0"; // booleans, doubles, counts
    return std::to_string(std::stoull(value) + 3);
}

// The results JSON promises that every cell re-runs from its "params"
// alone: set() must accept each key forEachParam emits, and replaying
// the pairs in emit order (core.width's setWidth before the window and
// FU counts it scales) must reproduce the configuration.
TEST(Params, ReplayingEveryEmittedPairReproducesTheConfiguration)
{
    // Through the member API, shape keys (bpred.*, cache geometry, FU
    // counts) included.
    SimParams members;
    members.core.setWidth(4);
    members.core.setFrontendDepth(11);
    members.core.decodeDepth = 2;
    members.core.intMulCount = 5;
    members.mem.l1iSizeKb = 32;
    members.mem.l1iAssoc = 4;
    members.mem.l2LineBytes = 128;
    members.mem.l2Latency = 12;
    members.mem.l2MemBusCycles = 20;
    members.bpred.yagsChoiceBits = 12;
    members.bpred.historyBits = 12;
    members.bpred.rasEntries = 16;
    members.except.mech = ExceptMech::QuickStart;
    members.verify.badPteProb = 0.1; // needs all 17 digits
    members.obs.pipeview = "trace dir/pipe.kanata";
    members.helper.checkBase = 0xdeadbeef000ULL;
    // Each name reads the member it names.
    const std::map<std::string, std::string> assigned = {
        {"core.windowSize", "64"},      {"core.decodeDepth", "2"},
        {"core.intMulCount", "5"},      {"mem.l1iSizeKb", "32"},
        {"mem.l1iAssoc", "4"},          {"mem.l2LineBytes", "128"},
        {"mem.l2Latency", "12"},        {"mem.l2MemBusCycles", "20"},
        {"bpred.yagsChoiceBits", "12"}, {"bpred.historyBits", "12"},
        {"bpred.rasEntries", "16"},     {"except.mech", "quickstart"},
        {"verify.badPteProb", "0.10000000000000001"},
        {"obs.pipeview", "trace dir/pipe.kanata"},
        {"helper.checkBase", "15302363377664"}};
    const auto memberValues = paramMap(members);
    for (const auto &[key, value] : assigned)
        EXPECT_EQ(memberValues.at(key), value) << key;

    // Every field changed, through set() in emit order.
    SimParams everyField;
    SimParams().forEachParam(
        [&](const std::string &key, const std::string &value) {
            everyField.set(key, changed(key, value));
        });
    const auto defaults = paramMap(SimParams());
    const auto changedValues = paramMap(everyField);
    for (const auto &[key, value] : defaults) {
        EXPECT_NE(changedValues.at(key), value) << key;
        EXPECT_EQ(changedValues.at(key), changed(key, value)) << key;
    }

    // The same values in the other accepted spelling: 0x hex.
    SimParams hexSpelled;
    everyField.forEachParam(
        [&](const std::string &key, const std::string &value) {
            bool integer = value.size() > 1 &&
                           value.find_first_not_of("0123456789") ==
                               std::string::npos;
            char hex[24];
            std::snprintf(hex, sizeof hex, "0x%llx",
                          integer ? std::stoull(value) : 0ULL);
            hexSpelled.set(key, integer ? hex : value);
        });
    EXPECT_EQ(hexSpelled.canonicalKey(), everyField.canonicalKey());

    for (const SimParams &params :
         {SimParams(), members, everyField, hexSpelled})
        EXPECT_EQ(replayed(params).canonicalKey(), params.canonicalKey());
}

// The canonical key's bytes are an interface: the perfect-TLB baseline
// cache, campaign journal keys and results documents all depend on
// them, so a refactor of the field list must leave this hash alone.
TEST(Params, DefaultCanonicalKeyIsPinned)
{
    EXPECT_EQ(hex64(fnv1a64(SimParams().canonicalKey())),
              "ad7a4d6b2f44ef56");
}

TEST(Params, StrictUnsignedParse)
{
    EXPECT_EQ(parseUnsigned("n", "42"), 42u);
    EXPECT_EQ(parseUnsigned("n", "0x1f"), 31u);
    EXPECT_EQ(parseUnsigned("n", "18446744073709551615"), UINT64_MAX);
    for (const char *bad :
         {"", "abc", "-1", " 1", "1 ", "+1", "0x", "1e3",
          "18446744073709551616"})
        EXPECT_EXIT(parseUnsigned("--flag", bad),
                    ::testing::ExitedWithCode(1), "--flag")
            << "'" << bad << "'";
    EXPECT_EXIT(parseUnsigned("insts", "0", 1),
                ::testing::ExitedWithCode(1), "insts");
    EXPECT_EXIT(parseUnsigned("n", "300", 0, 255),
                ::testing::ExitedWithCode(1), "bad numeric value for n");
}

TEST(Params, FrontendDepthDecomposition)
{
    SimParams params;
    for (unsigned depth : {3u, 5u, 7u, 9u, 11u, 15u}) {
        params.core.setFrontendDepth(depth);
        EXPECT_EQ(params.core.frontendDepth(), depth) << depth;
        EXPECT_GE(params.core.fetchDepth, 1u);
        EXPECT_GE(params.core.regReadDepth, 1u);
    }
}

TEST(Params, MechNamesRoundTrip)
{
    for (ExceptMech mech :
         {ExceptMech::PerfectTlb, ExceptMech::Traditional,
          ExceptMech::Multithreaded, ExceptMech::QuickStart,
          ExceptMech::Hardware}) {
        EXPECT_EQ(parseMech(mechName(mech)), mech);
    }
}

TEST(Params, SummaryMentionsMechanism)
{
    SimParams params;
    params.except.mech = ExceptMech::QuickStart;
    EXPECT_NE(params.summary().find("quickstart"), std::string::npos);
}

} // anonymous namespace
