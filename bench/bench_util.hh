/**
 * @file
 * Shared infrastructure for the per-figure/table benchmark binaries.
 *
 * Each binary's main() calls benchParseArgs (run-length, output and
 * campaign flags; anything else is fatal), queues one SweepJob per
 * measurement point with addPoint, and hands its summary() to
 * benchMain. benchMain runs the whole job list on a CampaignRunner
 * (sim/campaign.hh) — in-process on its thread pool by default, or
 * isolated, retried, journaled, resumed or sharded under the campaign
 * flags — and, once every cell has a result, renders the paper-style
 * tables from those outcomes. Tables are byte-identical for any
 * --jobs value and any campaign mode: each cell is an independent
 * deterministic simulation (perfect-TLB baselines shared through the
 * canonical-key cache) and outcomes are collected in submission order.
 *
 * After the text tables, every binary writes machine-readable results
 * to results/bench_<name>.json (schema zmt-sweep-results-v1, see
 * sim/campaign.hh) for CI to archive and diff.
 *
 * Run lengths: 700k instructions with a 300k warm-up window (override
 * with --insts/--warmup for quick CI sweeps). The paper ran
 * 100M-instruction windows from checkpoints; our synthetic workloads
 * are stationary, so a few hundred post-warm-up misses per benchmark
 * give stable penalty estimates.
 */

#ifndef ZMT_BENCH_BENCH_UTIL_HH
#define ZMT_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "sim/campaign.hh"

namespace zmtbench
{

using namespace zmt;

constexpr uint64_t BenchInsts = 700'000;
constexpr uint64_t BenchWarmup = 300'000;

/** Mutable sweep configuration shared across the binary. */
struct BenchConfig
{
    std::string name;            //!< binary name, e.g. "bench_fig5_mechanisms"
    unsigned jobs = 0;           //!< 0 = hardware_concurrency
    uint64_t insts = BenchInsts;
    uint64_t warmup = BenchWarmup;
    std::string jsonPath;        //!< empty = results/<name>.json
    bool emitJson = true;
    bool attrib = false;         //!< per-exception penalty attribution

    /** Fault-tolerant campaign options (--isolate/--timeout/--retries/
     *  --backoff/--shard/--journal/--resume; sim/campaign.hh). */
    CampaignOptions campaign;

    /** --inject-panic SUBSTR: arm verify.panicAtCycle on every job
     *  whose label contains SUBSTR (fault-injection drills: prove a
     *  crashing cell is contained and quarantined, not fatal). */
    std::string injectPanic;
};

inline BenchConfig &
benchConfig()
{
    static BenchConfig config;
    return config;
}

/**
 * Parse every flag. Call first in every main(), before queueing
 * points (addPoint callers snapshot --insts/--warmup via baseParams).
 * An argument no flag claims is fatal, so a typo never silently runs
 * the default campaign.
 */
inline void
benchParseArgs(int argc, char **argv)
{
    BenchConfig &config = benchConfig();
    config.name = argv[0];
    if (auto slash = config.name.rfind('/'); slash != std::string::npos)
        config.name = config.name.substr(slash + 1);
    config.jobs = parseJobsFlag(argc, argv, config.jobs);
    parseCampaignFlags(argc, argv, config.campaign);

    auto take_value = [&](int &i, const char *flag) -> const char * {
        const size_t n = std::strlen(flag);
        if (std::strncmp(argv[i], flag, n) == 0 && argv[i][n] == '=')
            return argv[i] + n + 1;
        if (std::strcmp(argv[i], flag) != 0)
            return nullptr;
        fatal_if(i + 1 >= argc, "%s needs a value", flag);
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        if (const char *v = take_value(i, "--insts")) {
            config.insts = std::strtoull(v, nullptr, 0);
        } else if (const char *w = take_value(i, "--warmup")) {
            config.warmup = std::strtoull(w, nullptr, 0);
        } else if (const char *j = take_value(i, "--json")) {
            config.jsonPath = j;
        } else if (std::strcmp(argv[i], "--no-json") == 0) {
            config.emitJson = false;
        } else if (std::strcmp(argv[i], "--attrib") == 0) {
            config.attrib = true;
        } else if (const char *p = take_value(i, "--inject-panic")) {
            config.injectPanic = p;
        } else {
            fatal("unknown argument '%s' (flags: --jobs N, --insts N, "
                  "--warmup N, --json PATH, --no-json, --attrib, "
                  "--inject-panic SUBSTR, --isolate, --timeout S, "
                  "--retries N, --backoff S, --shard I/N, "
                  "--journal PATH, --resume PATH)",
                  argv[i]);
        }
    }
}

/** Default parameters for all experiments (Table 1 machine). */
inline SimParams
baseParams()
{
    SimParams params;
    params.maxInsts = benchConfig().insts;
    params.warmupInsts = benchConfig().warmup;
    // --attrib: every measured run carries the penalty-attribution
    // sink (the perfect-TLB baselines stay obs-free — experiment.cc
    // clears obs on the baseline copy).
    params.obs.attrib = benchConfig().attrib;
    return params;
}

/** The job list accumulated by addPoint. */
inline std::vector<SweepJob> &
pendingJobs()
{
    static std::vector<SweepJob> jobs;
    return jobs;
}

/** Queue a measurement point on named benchmarks. */
inline void
addPoint(const std::string &label, SimParams params,
         std::vector<std::string> benches)
{
    pendingJobs().emplace_back(std::move(params), std::move(benches),
                               label);
}

/** Queue a point on explicit workloads (e.g. the Section 6 emulation
 *  study); @p skipBaseline drops the perfect-TLB companion run. */
inline void
addPoint(const std::string &label, SimParams params,
         std::vector<WorkloadParams> workloads, bool skipBaseline = false)
{
    pendingJobs().emplace_back(std::move(params), std::move(workloads),
                               label, skipBaseline);
}

/**
 * Read-only view of a finished run for the summary tables: each
 * queued point's result, looked up by the (params, workloads) it was
 * queued with. Asking for a point no job queued is a bug in the
 * binary and panics.
 */
class Results
{
  public:
    Results(const std::vector<SweepJob> &jobs,
            const std::vector<CampaignOutcome> &outcomes)
    {
        for (size_t i = 0; i < jobs.size(); ++i) {
            panic_if(!outcomes[i].ok(), "no result for '%s'",
                     jobs[i].label.c_str());
            byKey.emplace(key(jobs[i].params, jobs[i].benchmarks,
                              jobs[i].workloads),
                          &outcomes[i].outcome.result);
        }
    }

    const PenaltyResult &
    get(const SimParams &params,
        const std::vector<std::string> &benches) const
    {
        return find(key(params, benches, {}));
    }

    const PenaltyResult &
    get(const SimParams &params,
        const std::vector<WorkloadParams> &workloads) const
    {
        return find(key(params, {}, workloads));
    }

  private:
    static std::string
    key(const SimParams &params, const std::vector<std::string> &benches,
        const std::vector<WorkloadParams> &workloads)
    {
        std::string out = params.canonicalKey();
        for (const auto &bench : benches)
            out += "|n:" + bench;
        for (const auto &wp : workloads)
            out += "|w:" + canonicalKey(wp);
        return out;
    }

    const PenaltyResult &
    find(const std::string &key) const
    {
        auto it = byKey.find(key);
        panic_if(it == byKey.end(),
                 "summary looked up a point that was never queued");
        return *it->second;
    }

    std::map<std::string, const PenaltyResult *> byKey;
};

/** Pretty table writer used for the paper-vs-measured summaries. */
class Table
{
  public:
    explicit Table(std::string title) : title(std::move(title)) {}

    Table &
    header(const std::vector<std::string> &cols)
    {
        rows.push_back(cols);
        return *this;
    }

    Table &
    row(const std::vector<std::string> &cols)
    {
        rows.push_back(cols);
        return *this;
    }

    void
    print() const
    {
        std::printf("\n=== %s ===\n", title.c_str());
        std::vector<size_t> widths;
        for (const auto &row : rows) {
            if (widths.size() < row.size())
                widths.resize(row.size(), 0);
            for (size_t i = 0; i < row.size(); ++i)
                widths[i] = std::max(widths[i], row[i].size());
        }
        for (size_t r = 0; r < rows.size(); ++r) {
            for (size_t i = 0; i < rows[r].size(); ++i)
                std::printf("%-*s  ", int(widths[i]), rows[r][i].c_str());
            std::printf("\n");
            if (r == 0) {
                size_t total = 0;
                for (size_t w : widths)
                    total += w + 2;
                std::printf("%s\n", std::string(total, '-').c_str());
            }
        }
    }

  private:
    std::string title;
    std::vector<std::vector<std::string>> rows;
};

inline std::string
fmt(double value, int precision = 1)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    return buf;
}

/**
 * Standard main: run the queued points through the CampaignRunner,
 * print the paper-style tables once every cell has a result (plain,
 * isolated, retried or resumed alike), and write the results JSON.
 * SIGINT/SIGTERM drain in-flight cells and stop. Exit codes: 0 all
 * cells ok, 1 completed with failed cells, 130 interrupted (resumable
 * via --resume on the journal).
 */
inline int
benchMain(void (*summary)(const Results &))
{
    const BenchConfig &config = benchConfig();
    std::vector<SweepJob> &jobs = pendingJobs();

    // Fault-injection drill: arm the deterministic panic on matching
    // cells.
    if (!config.injectPanic.empty()) {
        for (SweepJob &job : jobs) {
            if (job.label.find(config.injectPanic) != std::string::npos)
                job.params.verify.panicAtCycle = 1000;
        }
    }

    CampaignRunner runner(config.campaign, config.jobs);
    auto start = std::chrono::steady_clock::now();
    std::vector<CampaignOutcome> outcomes = runner.run(
        jobs, [&](size_t i, const CampaignOutcome &outcome) {
            const char *what =
                outcome.state == CellState::FromJournal ? "journal"
                : outcome.ok()                          ? "ok"
                : outcome.failure.quarantined           ? "QUARANTINED"
                                                        : "FAILED";
            std::fprintf(stderr, "# [%zu/%zu] %s: %s\n", i + 1,
                         jobs.size(), jobs[i].label.c_str(), what);
        });
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();

    // Progress and failures go to stderr: stdout (the tables) stays
    // byte-identical for any --jobs value and campaign mode. The
    // aggregate KIPS (simulated instructions of the cells run here /
    // wall time) tracks simulator speed; bench_simspeed measures it
    // properly per mechanism.
    size_t failed = 0, missing = 0;
    uint64_t simulated = 0;
    for (size_t i = 0; i < jobs.size(); ++i) {
        const CampaignOutcome &outcome = outcomes[i];
        if (outcome.state == CellState::Done)
            simulated += outcome.outcome.result.mech.userInsts +
                         outcome.outcome.result.perfect.userInsts;
        if (outcome.ok())
            continue;
        ++missing;
        if (outcome.state != CellState::Failed)
            continue;
        ++failed;
        const JobFailure &f = outcome.failure;
        std::fprintf(stderr, "# failure: %s: %s (%u attempt%s%s)\n",
                     jobs[i].label.c_str(), f.message.c_str(),
                     f.attempts, f.attempts == 1 ? "" : "s",
                     f.quarantined ? ", quarantined" : "");
    }
    std::fprintf(stderr,
                 "# campaign: %zu cells, %zu failed, %u threads, %.1fs "
                 "(%.0f KIPS aggregate)%s\n",
                 jobs.size(), failed, runner.threads(), wall,
                 wall > 0.0 ? double(simulated) / wall / 1000.0 : 0.0,
                 runner.interrupted() ? " [interrupted]" : "");

    if (missing == 0)
        summary(Results(jobs, outcomes));
    else
        std::fprintf(stderr,
                     "# tables not printed: %zu of %zu cells have no "
                     "result\n",
                     missing, jobs.size());

    if (config.emitJson) {
        std::string path = config.jsonPath.empty()
                               ? "results/" + config.name + ".json"
                               : config.jsonPath;
        if (writeCampaignResultsJson(path, config.name, jobs, outcomes,
                                     runner.threads(), wall,
                                     config.campaign,
                                     runner.interrupted()))
            std::printf("\nwrote %s\n", path.c_str());
        else
            std::fprintf(stderr, "error: could not write %s\n",
                         path.c_str());
    }

    if (runner.interrupted())
        return 130;
    return failed ? 1 : 0;
}

} // namespace zmtbench

#endif // ZMT_BENCH_BENCH_UTIL_HH
