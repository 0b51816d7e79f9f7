/**
 * @file
 * Workload-generator tests: image well-formedness for every preset,
 * chase-list topology, register presets, functional progress, and the
 * statistical properties the calibration relies on (far accesses span
 * many pages; correct-path accesses stay mapped).
 */

#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <utility>

#include "common/hash.hh"
#include "common/random.hh"
#include "kernel/funcmachine.hh"
#include "wload/workload.hh"

namespace
{

using namespace zmt;

class PresetTest : public ::testing::TestWithParam<std::string>
{};

TEST_P(PresetTest, BuildsWellFormedImage)
{
    WorkloadParams wp = benchmarkParams(GetParam());
    EXPECT_EQ(wp.name, GetParam());
    ProcessImage image = buildWorkload(wp);

    EXPECT_GT(image.text.size(), 10u);
    EXPECT_GE(image.vaLimit, image.text.end());
    EXPECT_FALSE(image.mapRanges.empty());
    // Text below hot base, hot below far base.
    EXPECT_LE(image.text.end(), wp.hotBase);
    EXPECT_LE(wp.hotBase + wp.hotBytes(), wp.farBase);
}

TEST_P(PresetTest, AllWordsDecode)
{
    ProcessImage image = buildWorkload(benchmarkParams(GetParam()));
    for (isa::InstWord word : image.text.words)
        EXPECT_TRUE(isa::decode(word).valid());
}

TEST_P(PresetTest, RunsFunctionallyWithoutFaults)
{
    // The golden machine panics on stores to unmapped addresses, so a
    // clean run proves every correct-path access stays mapped.
    WorkloadParams wp = benchmarkParams(GetParam());
    PhysMem mem;
    FrameAllocator frames;
    ProcessImage image = buildWorkload(wp);
    Process proc(image, 1, mem, frames);
    FuncMachine machine(proc, mem);
    ArchResult result = machine.run(30000);
    EXPECT_EQ(result.instsExecuted, 30000u);
    EXPECT_FALSE(result.halted); // benchmarks loop forever
}

TEST_P(PresetTest, FarAccessesSpanManyPages)
{
    // Track distinct far-region pages touched in a functional run.
    WorkloadParams wp = benchmarkParams(GetParam());
    PhysMem mem;
    FrameAllocator frames;
    ProcessImage image = buildWorkload(wp);
    Process proc(image, 1, mem, frames);
    FuncMachine machine(proc, mem);

    std::set<Addr> far_pages;
    for (int i = 0; i < 200000 && far_pages.size() < 40; ++i) {
        machine.step();
        // Approximation: watch the scratch address register (r6).
        Addr addr = machine.state().readInt(6);
        if (addr >= wp.farBase && addr < wp.farBase + (wp.farPages() << 13))
            far_pages.insert(pageNum(addr));
    }
    EXPECT_GE(far_pages.size(), 30u)
        << "far accesses should roam well beyond the 64-entry TLB";
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, PresetTest,
                         ::testing::ValuesIn(benchmarkNames()));

TEST(Workload, EightBenchmarks)
{
    EXPECT_EQ(benchmarkNames().size(), 8u);
}

TEST(Workload, ShortNamesMatchPaper)
{
    EXPECT_EQ(shortName("alphadoom"), "adm");
    EXPECT_EQ(shortName("compress"), "cmp");
    EXPECT_EQ(shortName("hydro2d"), "h2d");
    EXPECT_EQ(shortName("vortex"), "vor");
}

TEST(Workload, ShortAliasesResolve)
{
    EXPECT_EQ(benchmarkParams("cmp").name, "compress");
    EXPECT_EQ(benchmarkParams("adm").name, "alphadoom");
}

TEST(Workload, UnknownBenchmarkIsFatal)
{
    EXPECT_EXIT(benchmarkParams("quake"), ::testing::ExitedWithCode(1),
                "unknown benchmark");
}

TEST(Workload, ChaseListIsASingleCycle)
{
    WorkloadParams wp = benchmarkParams("deltablue");
    ASSERT_GT(wp.chaseLoads, 0u);
    ProcessImage image = buildWorkload(wp);

    // Rebuild the pointer graph from the data words and verify it is
    // one cycle covering every node.
    std::map<Addr, Addr> next;
    for (const auto &[va, value] : image.dataWords)
        next[va] = value;
    ASSERT_FALSE(next.empty());

    Addr start = next.begin()->first;
    Addr cursor = start;
    size_t steps = 0;
    do {
        auto it = next.find(cursor);
        ASSERT_NE(it, next.end()) << "chain leaves the node set";
        cursor = it->second;
        ++steps;
        ASSERT_LE(steps, next.size());
    } while (cursor != start);
    EXPECT_EQ(steps, next.size());
}

TEST(Workload, DistinctSeedsChangeTheImage)
{
    WorkloadParams a = benchmarkParams("compress");
    WorkloadParams b = benchmarkParams("compress");
    b.seed ^= 0x1234567;
    ProcessImage ia = buildWorkload(a);
    ProcessImage ib = buildWorkload(b);
    // Same text, different initial LCG state.
    EXPECT_EQ(ia.text.words, ib.text.words);
    EXPECT_NE(ia.initIntRegs[1], ib.initIntRegs[1]);
}

TEST(Workload, PresetCharactersMatchThePaper)
{
    // Table 2/4 qualitative characteristics.
    EXPECT_GT(benchmarkParams("applu").fpChains, 0u);    // SpecFP
    EXPECT_GT(benchmarkParams("hydro2d").fpChains, 0u);  // SpecFP
    EXPECT_TRUE(benchmarkParams("hydro2d").useFpDiv);    // lowest IPC
    EXPECT_GT(benchmarkParams("deltablue").chaseLoads, 0u); // OO chasing
    EXPECT_GT(benchmarkParams("gcc").indirectFarJumps, 0u); // wrong paths
    EXPECT_EQ(benchmarkParams("alphadoom").fpChains, 0u);   // integer
    // compress has by far the densest miss stream (Table 2: 230k per
    // 100M instructions, ~2.7x the runner-up vortex): its far phase
    // recurs after the fewest inner iterations.
    EXPECT_LE(benchmarkParams("compress").innerIters, 16u);
    for (const auto &name : benchmarkNames()) {
        if (name == "compress")
            continue;
        EXPECT_GT(benchmarkParams(name).innerIters,
                  benchmarkParams("compress").innerIters)
            << name;
    }
}

TEST(Workload, ValidationRejectsBadParams)
{
    WorkloadParams wp;
    wp.innerIters = 0;
    EXPECT_EXIT(buildWorkload(wp), ::testing::ExitedWithCode(1),
                "innerIters");

    WorkloadParams overlap;
    overlap.hotBytesLog2 = 26; // hot region would swallow the far base
    EXPECT_EXIT(buildWorkload(overlap), ::testing::ExitedWithCode(1),
                "overlap");
}

// ---------------------------------------------------------------------
// The workload key: canonicalKey() and parseWorkloadKey() read one field
// list. Checkpoints store each process's workload this way, and the
// sweep caches and journal keys hash it.
// ---------------------------------------------------------------------

std::vector<WorkloadParams>
allPresets()
{
    std::vector<WorkloadParams> presets{WorkloadParams()};
    for (const std::string &name : benchmarkNames())
        presets.push_back(benchmarkParams(name));
    presets.push_back(benchmarkParams("racetest"));
    return presets;
}

// Journal keys and checkpoints carry these bytes; a refactor of the
// field list must leave the hashes alone.
TEST(WorkloadKey, PresetKeysArePinned)
{
    const std::pair<const char *, const char *> pinned[] = {
        {"custom", "f29bf3853b88d551"},
        {"alphadoom", "64121842baa557a3"},
        {"applu", "b6a9b2b0816422f6"},
        {"compress", "edd3b2ca3491638e"},
        {"deltablue", "ec568fad79979b13"},
        {"gcc", "6d5e48d6ef38d45a"},
        {"hydro2d", "b62f86d9b3993e68"},
        {"murphi", "c7ca3cf117966cc0"},
        {"vortex", "62c0440be801e3d2"},
        {"racetest", "a0d95b47dcdfbbfc"},
    };
    std::vector<WorkloadParams> presets = allPresets();
    ASSERT_EQ(presets.size(), std::size(pinned));
    for (size_t i = 0; i < presets.size(); ++i) {
        EXPECT_EQ(presets[i].name, pinned[i].first);
        EXPECT_EQ(hex64(fnv1a64(canonicalKey(presets[i]))),
                  pinned[i].second)
            << pinned[i].first;
    }
}

TEST(WorkloadKey, EveryPresetRoundTrips)
{
    for (const WorkloadParams &preset : allPresets()) {
        WorkloadParams parsed;
        parsed.name = "overwritten";
        std::string why;
        ASSERT_TRUE(parseWorkloadKey(canonicalKey(preset), &parsed, &why))
            << preset.name << ": " << why;
        EXPECT_EQ(canonicalKey(parsed), canonicalKey(preset));
    }
}

/** The key's ';'-terminated "field=value" entries. */
std::vector<std::string>
keyEntries(const std::string &key)
{
    std::vector<std::string> entries;
    for (size_t pos = 0; pos < key.size();) {
        size_t semi = key.find(';', pos);
        entries.push_back(key.substr(pos, semi + 1 - pos));
        pos = semi + 1;
    }
    return entries;
}

/** Parse @p text; on success the result must re-serialize to a key
 *  that parses back to itself. @return whether it parsed. */
bool
parsesConsistently(const std::string &text)
{
    WorkloadParams parsed;
    std::string why;
    if (!parseWorkloadKey(text, &parsed, &why)) {
        EXPECT_FALSE(why.empty()) << "rejected without a reason";
        return false;
    }
    const std::string key = canonicalKey(parsed);
    WorkloadParams again;
    EXPECT_TRUE(parseWorkloadKey(key, &again, &why)) << why;
    EXPECT_EQ(canonicalKey(again), key);
    return true;
}

// Seeded mutations of every preset's key: truncations, duplicated and
// missing fields are always rejected with a reason; a flipped byte is
// either rejected or still describes a workload that round-trips. No
// mutant may crash the parser.
TEST(WorkloadKey, MutatedKeysAreRejectedOrRoundTrip)
{
    Rng rng(0x5eed);
    for (const WorkloadParams &preset : allPresets()) {
        const std::string key = canonicalKey(preset);
        const std::vector<std::string> entries = keyEntries(key);
        ASSERT_EQ(entries.size(), 30u);

        for (size_t len = 0; len < key.size(); ++len)
            EXPECT_FALSE(parsesConsistently(key.substr(0, len)))
                << "truncated to " << len;

        for (size_t i = 0; i < entries.size(); ++i) {
            const size_t copyAt = rng.below(entries.size() + 1);
            std::string missing, duplicated;
            for (size_t j = 0; j <= entries.size(); ++j) {
                if (j == copyAt)
                    duplicated += entries[i];
                if (j < entries.size()) {
                    missing += i == j ? "" : entries[j];
                    duplicated += entries[j];
                }
            }
            EXPECT_FALSE(parsesConsistently(missing)) << entries[i];
            EXPECT_FALSE(parsesConsistently(duplicated)) << entries[i];
        }

        for (int flip = 0; flip < 400; ++flip) {
            std::string mutant = key;
            mutant[rng.below(mutant.size())] = char(rng.below(256));
            parsesConsistently(mutant);
        }
    }
}

} // anonymous namespace
