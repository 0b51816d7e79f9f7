/**
 * @file
 * One driver for every paper experiment:
 *
 *   zmt_bench <experiment> [--jobs N] [--insts N] [--warmup N]
 *             [--json PATH | --no-json] [--attrib]
 *             [--inject-panic SUBSTR] [campaign flags]
 *
 * The experiment (experiments.hh) declares its points; this driver runs
 * them on a CampaignRunner (sim/campaign.hh) — in-process on its thread
 * pool by default, or isolated, retried, journaled, resumed or sharded
 * under the campaign flags — and, once every cell has a result, renders
 * the paper-style tables from those outcomes. Tables are byte-identical
 * for any --jobs value and any campaign mode: each cell is an
 * independent deterministic simulation (perfect-TLB baselines shared
 * through the canonical-key cache) and outcomes are collected in
 * submission order.
 *
 * After the text tables it writes machine-readable results to
 * results/bench_<experiment>.json (schema zmt-sweep-results-v1, see
 * sim/campaign.hh) for CI to archive and diff.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"
#include "experiments.hh"

namespace
{

using namespace zmtbench;

struct Options
{
    const Experiment *experiment = nullptr;
    std::string name;     //!< results name, "bench_<experiment>"
    unsigned jobs = 0;    //!< 0 = hardware_concurrency
    RunFlags run;
    std::string jsonPath; //!< empty = results/<name>.json
    bool emitJson = true;

    /** Fault-tolerant campaign options (--isolate/--timeout/--retries/
     *  --backoff/--shard/--journal/--resume; sim/campaign.hh). */
    CampaignOptions campaign;

    /** --inject-panic SUBSTR: arm verify.panicAtCycle on every point
     *  whose label contains SUBSTR (fault-injection drills: prove a
     *  crashing cell is contained and quarantined, not fatal). */
    std::string injectPanic;
};

/**
 * The experiment name comes first; then every flag. An argument no
 * flag claims is fatal, so a typo never silently runs the default
 * campaign.
 */
Options
parseArgs(int argc, char **argv)
{
    Options opts;
    std::string names;
    for (const Experiment &e : experiments()) {
        names += std::string(names.empty() ? "" : " ") + e.name;
        if (argc > 1 && std::strcmp(argv[1], e.name) == 0)
            opts.experiment = &e;
    }
    fatal_if(!opts.experiment,
             "%s (usage: zmt_bench <experiment> [flags]; experiments: %s)",
             argc > 1 ? ("unknown experiment '" + std::string(argv[1]) +
                         "'").c_str()
                      : "no experiment given",
             names.c_str());
    opts.name = std::string("bench_") + opts.experiment->name;

    // From here on argv[0] is the experiment name, which the flag
    // parsers skip like a program name.
    --argc;
    ++argv;
    opts.jobs = parseJobsFlag(argc, argv, opts.jobs);
    parseCampaignFlags(argc, argv, opts.campaign);

    for (int i = 1; i < argc; ++i) {
        if (const char *v = flagValue(i, argc, argv, "--insts")) {
            opts.run.insts = parseUnsigned("--insts", v, 1);
        } else if (const char *w = flagValue(i, argc, argv, "--warmup")) {
            opts.run.warmup = parseUnsigned("--warmup", w);
        } else if (const char *j = flagValue(i, argc, argv, "--json")) {
            opts.jsonPath = j;
        } else if (std::strcmp(argv[i], "--no-json") == 0) {
            opts.emitJson = false;
        } else if (std::strcmp(argv[i], "--attrib") == 0) {
            opts.run.attrib = true;
        } else if (const char *p =
                       flagValue(i, argc, argv, "--inject-panic")) {
            opts.injectPanic = p;
        } else {
            fatal("unknown argument '%s' (flags: --jobs N, --insts N, "
                  "--warmup N, --json PATH, --no-json, --attrib, "
                  "--inject-panic SUBSTR, --isolate, --timeout S, "
                  "--retries N, --backoff S, --shard I/N, "
                  "--journal PATH, --resume PATH)",
                  argv[i]);
        }
    }
    return opts;
}

} // anonymous namespace

/**
 * Run the experiment's points through the CampaignRunner, print the
 * paper-style tables once every cell has a result (plain, isolated,
 * retried or resumed alike), and write the results JSON.
 * SIGINT/SIGTERM drain in-flight cells and stop. Exit codes: 0 all
 * cells ok, 1 completed with failed cells, 130 interrupted (resumable
 * via --resume on the journal).
 */
int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    const Experiment &experiment = *opts.experiment;
    const std::vector<Config> configs = experiment.configs(opts.run);
    const std::vector<Row> rows = experiment.rows();
    std::vector<SweepJob> jobs = experiment.points(configs, rows);

    // Fault-injection drill: arm the deterministic panic on matching
    // cells.
    if (!opts.injectPanic.empty()) {
        for (SweepJob &job : jobs) {
            if (job.label.find(opts.injectPanic) != std::string::npos)
                job.params.verify.panicAtCycle = 1000;
        }
    }

    CampaignRunner runner(opts.campaign, opts.jobs);
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
        experiment.render(
            Grid{configs, rows, outcomes, experiment.rowMajor});
    else
        std::fprintf(stderr,
                     "# tables not printed: %zu of %zu cells have no "
                     "result\n",
                     missing, jobs.size());

    if (opts.emitJson) {
        std::string path = opts.jsonPath.empty()
                               ? "results/" + opts.name + ".json"
                               : opts.jsonPath;
        if (writeCampaignResultsJson(path, opts.name, jobs, outcomes,
                                     runner.threads(), wall,
                                     opts.campaign, runner.interrupted()))
            std::printf("\nwrote %s\n", path.c_str());
        else
            std::fprintf(stderr, "error: could not write %s\n",
                         path.c_str());
    }

    if (runner.interrupted())
        return 130;
    return failed ? 1 : 0;
}
