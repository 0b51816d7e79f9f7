/**
 * @file
 * The paper's experiments as data. Each one crosses a list of machine
 * configurations with a list of rows (the eight benchmarks, the
 * Figure 7 mixes, or explicit workloads) and renders the finished grid
 * as the paper-style tables. zmt_bench.cc runs the points through a
 * CampaignRunner and hands the outcomes to render().
 *
 * Point order is part of the experiment's identity: it fixes each
 * cell's label, its submission "index" in the results document and its
 * journal key, so a journal written by an older build still resumes.
 *
 * Run lengths: 700k instructions with a 300k warm-up window (override
 * with --insts/--warmup for quick CI sweeps). The paper ran
 * 100M-instruction windows from checkpoints; our synthetic workloads
 * are stationary, so a few hundred post-warm-up misses per benchmark
 * give stable penalty estimates.
 */

#ifndef ZMT_BENCH_EXPERIMENTS_HH
#define ZMT_BENCH_EXPERIMENTS_HH

#include <optional>
#include <string>
#include <vector>

#include "sim/campaign.hh"

namespace zmtbench
{

using namespace zmt;

constexpr uint64_t BenchInsts = 700'000;
constexpr uint64_t BenchWarmup = 300'000;

/** The flags every configuration's SimParams honor. */
struct RunFlags
{
    /** --insts/--warmup when given; otherwise each experiment uses its
     *  default (BenchInsts/BenchWarmup unless it says otherwise). */
    std::optional<uint64_t> insts;
    std::optional<uint64_t> warmup;
    bool attrib = false; //!< per-exception penalty attribution
};

/** One machine configuration: a column of most tables. */
struct Config
{
    std::string label;
    SimParams params;
};

/** One row: named benchmarks (one, or a multiprogrammed mix) or
 *  explicit workloads. */
struct Row
{
    std::string label;
    std::vector<std::string> benches;
    std::vector<WorkloadParams> workloads;
};

/** A finished experiment, read by grid position. */
struct Grid
{
    const std::vector<Config> &configs;
    const std::vector<Row> &rows;
    const std::vector<CampaignOutcome> &outcomes;
    bool rowMajor;

    const PenaltyResult &
    at(size_t config, size_t row) const
    {
        size_t i = rowMajor ? row * configs.size() + config
                            : config * rows.size() + row;
        return outcomes[i].outcome.result;
    }

    double
    penalty(size_t config, size_t row) const
    {
        return at(config, row).penaltyPerMiss();
    }
};

struct Experiment
{
    const char *name;   //!< CLI name; results are named "bench_<name>"
    const char *prefix; //!< point labels are "prefix/outer/inner"
    std::vector<Config> (*configs)(const RunFlags &);
    std::vector<Row> (*rows)();
    void (*render)(const Grid &);
    bool rowMajor = false;     //!< submit rows outermost
    bool skipBaseline = false; //!< no perfect-TLB companion runs

    /** The ordered points: configs x rows, configs outermost unless
     *  rowMajor. */
    std::vector<SweepJob> points(const std::vector<Config> &configs,
                                 const std::vector<Row> &rows) const;
};

/** Every experiment, in the paper's order. */
const std::vector<Experiment> &experiments();

} // namespace zmtbench

#endif // ZMT_BENCH_EXPERIMENTS_HH
