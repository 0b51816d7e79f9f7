/**
 * @file
 * Measurement half of the simulator benchmark (run.py is the other
 * half: it builds this program, runs it, and turns its raw record into
 * metrics). One invocation runs one named workload against the
 * simulator's public entry points and prints one JSON document on
 * stdout holding, per pass over the workload's cells:
 *
 *  - host wall, CPU (self + children), Simulator-construction and
 *    Simulator::run seconds, and the instructions simulated;
 *  - per cell: run status, an FNV-1a digest of the full stats dump
 *    plus the CoreResult summary, and the retired user instructions;
 *  - per-layer work counts summed from Simulator::statsRoot();
 *  - on traced passes, the spans recorded around every call into a
 *    layer (name, start, end, parent);
 *  - the host-speed probe timed after the pass (hostProbe()).
 *
 * Usage:
 *   zmt_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 --workdir DIR
 *
 * --trace 0 repeats untraced passes until --seconds is used up.
 * --trace 1 first runs the layer probes (direct, timed calls into
 * isa/kernel/mem/tlb/bpred/obs/checkpoint/campaign on the workload's
 * own inputs), then alternates untraced and traced passes, so the
 * tracing overhead and the count/digest identity between the two can
 * be checked inside one process.
 */

#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bpred/bpred.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/json.hh"
#include "common/random.hh"
#include "isa/decodecache.hh"
#include "kernel/ffwd.hh"
#include "kernel/funcmachine.hh"
#include "mem/hierarchy.hh"
#include "obs/eventlog.hh"
#include "sim/campaign.hh"
#include "sim/checkpoint.hh"
#include "sim/simulator.hh"
#include "tlb/tlb.hh"

namespace
{

using namespace zmt;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

struct Span
{
    std::string name;
    std::string label;
    int64_t start = 0; //!< ns since the tracer's origin
    int64_t end = 0;
    int parent = -1;
    uint64_t ops = 0; //!< work items timed (probe spans)
};

/** In-memory span recorder; written out with the pass record. */
class Tracer
{
  public:
    explicit Tracer(Clock::time_point origin) : origin(origin) {}

    int
    open(const char *name, const std::string &label)
    {
        Span s;
        s.name = name;
        s.label = label;
        s.parent = stack.empty() ? -1 : stack.back();
        s.start = nowNs();
        spans.push_back(std::move(s));
        stack.push_back(int(spans.size() - 1));
        return stack.back();
    }

    void
    close(int idx, uint64_t ops)
    {
        spans[size_t(idx)].end = nowNs();
        spans[size_t(idx)].ops = ops;
        stack.pop_back();
    }

    std::vector<Span> spans;

  private:
    int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin)
            .count();
    }

    Clock::time_point origin;
    std::vector<int> stack;
};

/** RAII span; a no-op when @p tracer is null (untraced passes). */
class Scope
{
  public:
    Scope(Tracer *tracer, const char *name, const std::string &label = "")
        : tracer(tracer), idx(tracer ? tracer->open(name, label) : -1)
    {}
    ~Scope()
    {
        if (tracer)
            tracer->close(idx, ops);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    uint64_t ops = 0;

  private:
    Tracer *tracer;
    int idx;
};

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
cpuSeconds()
{
    double total = 0.0;
    for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
        rusage ru{};
        getrusage(who, &ru);
        total += double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                 1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
    }
    return total;
}

/** Peak resident set of this process and of its largest child. The
 *  own peak comes from VmHWM because ru_maxrss survives exec and would
 *  report the launching process's peak instead. */
long
peakRssKb()
{
    long self = 0;
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            self = std::strtol(line.c_str() + 6, nullptr, 10);
    rusage children{};
    getrusage(RUSAGE_CHILDREN, &children);
    return std::max(self, children.ru_maxrss);
}

/**
 * Host-speed probe: two fixed chunks of register-only work, timed
 * separately. The throughput chunk runs eight independent dependency
 * chains of adds, xors and shifts; the latency chunk runs one chain of
 * multiply-adds, each waiting for the last. Neither touches memory, so
 * nothing the simulator leaves in the caches changes their time. A
 * lower clock slows both; another tenant on the physical core takes
 * issue slots and slows mostly the first. The simulator has both kinds
 * of work, and run.py scales its time metrics by the pair's sum;
 * NOTES.md has the measurements behind this.
 */
struct ProbeTimes
{
    double throughput = 0.0;
    double latency = 0.0;
};

ProbeTimes
hostProbe()
{
    ProbeTimes t;
    auto start = Clock::now();
    uint64_t a = 1, b = 2, c = 3, d = 4, e = 5, f = 6, g = 7, h = 8;
    for (uint64_t i = 0; i < 500000; ++i) {
        a += b ^ i;
        b += c >> 1;
        c ^= d + i;
        d += e << 1;
        e ^= f + 3;
        f += g ^ a;
        g ^= h + i;
        h += a >> 2;
        // Keeps the compiler from vectorising or folding the chains.
        asm volatile("" : "+r"(a), "+r"(c), "+r"(e), "+r"(g));
    }
    t.throughput = secondsSince(start);
    start = Clock::now();
    uint64_t x = a ^ b ^ c ^ d ^ e ^ f ^ g ^ h;
    for (uint64_t i = 0; i < 500000; ++i) {
        x = x * 6364136223846793005ULL + i;
        asm volatile("" : "+r"(x));
    }
    t.latency = secondsSince(start);
    if (x == 0)
        std::fputs("", stderr);
    return t;
}

uint64_t
fileBytes(const std::string &path)
{
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0 ? uint64_t(st.st_size) : 0;
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * The benchmark's input generator. SimParams::seed never reaches the
 * named presets, so the seed salts WorkloadParams::seed here and the
 * Simulator only ever sees explicit workloads. Seed 0 leaves the
 * presets as they are: the result is exactly what
 * Simulator(params, names) builds, so its digests are the stored
 * references.
 */
std::vector<WorkloadParams>
makeWorkloads(const std::vector<std::string> &names, uint64_t seed)
{
    std::vector<WorkloadParams> out;
    for (size_t i = 0; i < names.size(); ++i) {
        WorkloadParams wp = benchmarkParams(names[i]);
        wp.seed ^= uint64_t(i) * 0x2545f4914f6cdd1dULL;
        if (seed != 0)
            wp.seed ^= splitmix64(seed);
        out.push_back(wp);
    }
    return out;
}

enum class CellKind
{
    Detailed,   //!< build, run
    Checkpoint, //!< build with ffwd, capture, save, load, restore, run
    Sampled,    //!< build, SMARTS-sampled run
};

struct Cell
{
    std::string label;
    CellKind kind = CellKind::Detailed;
    SimParams params;
    std::vector<WorkloadParams> wls;
};

struct Workload
{
    std::string name;
    std::vector<Cell> cells;      //!< in-process cells
    std::vector<SweepJob> jobs;   //!< campaign cells (fork-isolated)
    unsigned campaignThreads = 0;
};

struct MechConfig
{
    const char *label;
    ExceptMech mech;
    unsigned idleThreads;
};

SimParams
mechParams(const MechConfig &config, uint64_t insts)
{
    SimParams p;
    p.maxInsts = insts;
    p.except.mech = config.mech;
    p.except.idleThreads = config.idleThreads;
    return p;
}

// Run lengths. Every pass repeats the whole cell list, so these set
// one pass's host time (about 1-3 s on a 4-core x86 host) and thus how
// many passes, and medians, fit in one run.
constexpr uint64_t Fig5Insts = 250'000;
constexpr uint64_t SmtInsts = 300'000;
constexpr uint64_t CkptFfwdInsts = 20'000'000;
constexpr uint64_t CkptDetailInsts = 100'000;
constexpr uint64_t SampledInsts = 20'000'000;
constexpr uint64_t SamplePeriod = 1'000'000;
constexpr uint64_t CampaignInsts = 30'000;
constexpr uint64_t CampaignWarmup = 5'000;

Workload
makeWorkload(const std::string &name, uint64_t seed)
{
    Workload w;
    w.name = name;
    if (name == "fig5_single") {
        const MechConfig configs[] = {
            {"perfect", ExceptMech::PerfectTlb, 0},
            {"traditional", ExceptMech::Traditional, 0},
            {"multithreaded(1)", ExceptMech::Multithreaded, 1},
            {"multithreaded(3)", ExceptMech::Multithreaded, 3},
            {"quickstart(1)", ExceptMech::QuickStart, 1},
            {"hardware", ExceptMech::Hardware, 0},
        };
        for (const char *bench : {"compress", "vortex"})
            for (const MechConfig &c : configs)
                w.cells.push_back({std::string(c.label) + "/" + bench,
                                   CellKind::Detailed,
                                   mechParams(c, Fig5Insts),
                                   makeWorkloads({bench}, seed)});
    } else if (name == "smt_mix") {
        const MechConfig configs[] = {
            {"traditional", ExceptMech::Traditional, 1},
            {"multithreaded(1)", ExceptMech::Multithreaded, 1},
        };
        const std::vector<std::vector<std::string>> mixes = {
            {"alphadoom", "compress", "vortex"},
            {"deltablue", "gcc", "hydro2d"},
        };
        for (const auto &mix : mixes)
            for (const MechConfig &c : configs)
                w.cells.push_back({std::string(c.label) + "/" + mix[0] +
                                       "+" + mix[1] + "+" + mix[2],
                                   CellKind::Detailed,
                                   mechParams(c, SmtInsts),
                                   makeWorkloads(mix, seed)});
    } else if (name == "sampled_ckpt") {
        const MechConfig mt{"multithreaded(1)", ExceptMech::Multithreaded,
                            1};
        for (const char *bench : {"compress", "gcc"}) {
            Cell ckpt{std::string("ckpt/") + bench, CellKind::Checkpoint,
                      mechParams(mt, CkptDetailInsts),
                      makeWorkloads({bench}, seed)};
            ckpt.params.ffwd.insts = CkptFfwdInsts;
            w.cells.push_back(ckpt);
            Cell sampled{std::string("sampled/") + bench,
                         CellKind::Sampled, mechParams(mt, SampledInsts),
                         makeWorkloads({bench}, seed)};
            sampled.params.sample.periodInsts = SamplePeriod;
            w.cells.push_back(sampled);
        }
    } else if (name == "campaign_isolated") {
        const MechConfig configs[] = {
            {"traditional", ExceptMech::Traditional, 0},
            {"multithreaded(1)", ExceptMech::Multithreaded, 1},
            {"multithreaded(3)", ExceptMech::Multithreaded, 3},
            {"hardware", ExceptMech::Hardware, 0},
        };
        for (const MechConfig &c : configs) {
            for (const std::string &bench : benchmarkNames()) {
                SimParams p = mechParams(c, CampaignInsts);
                p.warmupInsts = CampaignWarmup;
                p.obs.attrib = true;
                w.jobs.emplace_back(p, makeWorkloads({bench}, seed),
                                    std::string("fig5/") + c.label + "/" +
                                        bench);
            }
        }
        // One child at a time: two concurrent children on a shared
        // host slow each other by a varying amount, and the pass wall
        // time then measures that rather than the campaign path.
        w.campaignThreads = 1;
    }
    return w;
}

// ---------------------------------------------------------------------
// Pass records
// ---------------------------------------------------------------------

struct CellRecord
{
    std::string label;
    bool ok = true;
    std::string error;
    std::string digest;
    uint64_t userInsts = 0;
};

/** Per-layer work counts, summed over a pass's in-process cells. */
using Counts = std::map<std::string, double>;

struct Pass
{
    bool traced = false;
    double wall = 0.0;   //!< the pass, set-up included
    double cpu = 0.0;    //!< user+sys, self + children
    double setup = 0.0;  //!< Simulator construction (+ checkpoint load)
    double runS = 0.0;   //!< inside Simulator::run, detailed runs only
    uint64_t detailedInsts = 0; //!< retired in those runs
    uint64_t coveredInsts = 0;  //!< detailed + fast-forwarded
    std::vector<CellRecord> cells;
    Counts counts;

    // Campaign-only.
    double campaignWall = 0.0;
    std::vector<double> childCellS; //!< child-reported measureJob time
    std::vector<std::string> childResults; //!< resultLine of each mech run
    uint64_t journalBytes = 0;
    unsigned campaignThreads = 0;
    unsigned baselineRuns = 0;

    uint64_t checkpointBytes = 0;

    /** Median hostProbe() seconds of each chunk, over one probe per
     *  cell run right after the pass, outside its timing. */
    ProbeTimes probe;

    std::vector<Span> spans; //!< traced passes only
};

std::string
resultLine(const CoreResult &r)
{
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "result status=%s cycles=%llu user=%llu misses=%llu "
                  "emul=%llu ipc=%a mcycles=%llu minsts=%llu "
                  "mmisses=%llu samples=%llu ffwd=%llu cold=%llu "
                  "ipcmean=%a ipcci=%a mpk=%a mpkci=%a\n",
                  runStatusName(r.status), (unsigned long long)r.cycles,
                  (unsigned long long)r.userInsts,
                  (unsigned long long)r.tlbMisses,
                  (unsigned long long)r.emulations, r.ipc,
                  (unsigned long long)r.measuredCycles,
                  (unsigned long long)r.measuredInsts,
                  (unsigned long long)r.measuredMisses,
                  (unsigned long long)r.sampling.samples,
                  (unsigned long long)r.sampling.ffwdInsts,
                  (unsigned long long)r.sampling.coldSamples,
                  r.sampling.ipcMean, r.sampling.ipcCi95,
                  r.sampling.mpkMean, r.sampling.mpkCi95);
    return buf;
}

/** Digest of the full stats dump plus the run's CoreResult summary. */
std::string
simDigest(const Simulator &sim, const CoreResult &r)
{
    std::ostringstream os;
    sim.dumpStats(os);
    os << resultLine(r);
    return hex64(fnv1a64(os.str()));
}

// Stats the per-layer metrics are made from (run.py turns the sums
// into per-kilo-instruction rates and ratios).
const char *const countedStats[] = {
    "sim.core.retiredUser",
    "sim.core.retiredPal",
    "sim.core.fetchedInsts",
    "sim.core.squashedInsts",
    "sim.core.trapSquashes",
    "sim.core.mtSpawns",
    "sim.core.mem.l1d.hits",
    "sim.core.mem.l1d.misses",
    "sim.core.mem.l2.misses",
    "sim.core.mem.l1l2Bus.waitCycles",
    "sim.core.mem.l2MemBus.waitCycles",
    "sim.core.dtlb.hits",
    "sim.core.dtlb.misses",
    "sim.core.walker.walksStarted",
    "sim.core.bpred.lookups",
    "sim.core.bpred.condMispredicts",
    "sim.core.bpred.indirectMispredicts",
    "sim.core.bpred.rasMispredicts",
};

void
addCounts(const Simulator &sim, Counts &counts)
{
    std::vector<std::pair<std::string, double>> rows;
    sim.statsRoot().collect(rows);
    std::map<std::string, double> flat(rows.begin(), rows.end());
    for (const char *name : countedStats)
        counts[name] += flat.count(name) ? flat[name] : 0.0;
    // Cycle-weighted window occupancy: sum of (mean x samples).
    const std::string occ = "sim.core.windowOccupancy";
    if (flat.count(occ + "::samples")) {
        counts[occ + "::samples"] += flat[occ + "::samples"];
        counts[occ + "::sum"] +=
            flat[occ + "::mean"] * flat[occ + "::samples"];
    }
    const obs::EventLog *log = sim.core().eventLog();
    counts["obs.events"] += log ? double(log->totalEmitted()) : 0.0;
}

/** Check a finished detailed or sampled run; empty string when good. */
std::string
checkRun(const Cell &cell, const CoreResult &r)
{
    if (!r.ok())
        return std::string(runStatusName(r.status)) + ": " + r.error;
    if (cell.kind == CellKind::Sampled) {
        uint64_t want = cell.params.maxInsts / cell.params.sample.periodInsts;
        if (r.sampling.samples != want || r.sampling.coldSamples != 0)
            return "sampled run measured " +
                   std::to_string(r.sampling.samples) + " samples (" +
                   std::to_string(r.sampling.coldSamples) +
                   " cold), expected " + std::to_string(want);
        return "";
    }
    // Every app thread must retire its share of the budget. Retirement
    // bandwidth is unlimited, so a single app stops less than one
    // window's worth past it.
    uint64_t budget = cell.params.maxInsts;
    if (r.userInsts < budget)
        return "retired " + std::to_string(r.userInsts) +
               " user insts, budget " + std::to_string(budget);
    if (cell.wls.size() == 1 &&
        r.userInsts >= budget + cell.params.core.windowSize)
        return "retired " + std::to_string(r.userInsts) +
               " user insts, a window or more past the budget " +
               std::to_string(budget);
    return "";
}

// ---------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------

struct Runner
{
    const Workload &wl;
    std::string workdir;
    unsigned serial = 0; //!< unique suffix for scratch files

    std::string
    scratchPath(const char *stem)
    {
        return workdir + "/" + stem + "-" + std::to_string(serial++);
    }

    /** Construct a Simulator, timing the call as set-up. */
    template <typename... Args>
    std::unique_ptr<Simulator>
    build(Pass &p, Tracer *tr, const char *span, Args &&...args)
    {
        Scope s(tr, span);
        auto start = Clock::now();
        auto sim = std::make_unique<Simulator>(std::forward<Args>(args)...);
        p.setup += secondsSince(start);
        return sim;
    }

    void
    teardown(Tracer *tr, std::unique_ptr<Simulator> &sim)
    {
        Scope s(tr, "sim.teardown");
        sim.reset();
    }

    CoreResult
    runDetailed(Pass &p, Tracer *tr, Simulator &sim)
    {
        Scope s(tr, "core.run");
        auto start = Clock::now();
        CoreResult r = sim.run();
        p.runS += secondsSince(start);
        p.detailedInsts += r.userInsts;
        p.coveredInsts += r.userInsts;
        return r;
    }

    void
    finishCell(Pass &p, Tracer *tr, const Cell &cell, Simulator &sim,
               const CoreResult &r)
    {
        CellRecord rec;
        rec.label = cell.label;
        rec.userInsts = r.userInsts;
        {
            Scope s(tr, "stats.digest");
            rec.digest = simDigest(sim, r);
            addCounts(sim, p.counts);
        }
        rec.error = checkRun(cell, r);
        rec.ok = rec.error.empty();
        p.cells.push_back(rec);
    }

    void
    runCell(Pass &p, Tracer *tr, const Cell &cell)
    {
        Scope cs(tr, "cell", cell.label);
        if (cell.kind == CellKind::Detailed) {
            auto sim = build(p, tr, "sim.build", cell.params, cell.wls);
            CoreResult r = runDetailed(p, tr, *sim);
            finishCell(p, tr, cell, *sim, r);
            teardown(tr, sim);
        } else if (cell.kind == CellKind::Sampled) {
            auto sim = build(p, tr, "sim.build", cell.params, cell.wls);
            CoreResult r;
            {
                Scope s(tr, "sim.sampled_run");
                r = sim->run();
            }
            p.coveredInsts += r.sampling.ffwdInsts + r.userInsts;
            finishCell(p, tr, cell, *sim, r);
            teardown(tr, sim);
        } else {
            runCheckpointCell(p, tr, cell);
        }
    }

    /** ffwd.insts + ffwd.save, then ffwd.restore, spelled as the calls
     *  those parameters make so each step is timed on its own. */
    void
    runCheckpointCell(Pass &p, Tracer *tr, const Cell &cell)
    {
        auto sim = build(p, tr, "sim.build_ffwd", cell.params, cell.wls);
        p.coveredInsts += sim->ffwdExecuted();
        CheckpointData data;
        {
            Scope s(tr, "sim.checkpoint.capture");
            data = sim->captureCheckpoint();
        }
        teardown(tr, sim);
        std::string path = scratchPath("ckpt");
        std::string err;
        bool saved;
        {
            Scope s(tr, "sim.checkpoint.save");
            saved = saveCheckpoint(data, path, &err);
        }
        p.checkpointBytes += fileBytes(path);
        CheckpointData loaded;
        bool ok = false;
        if (saved) {
            Scope s(tr, "sim.checkpoint.load");
            auto start = Clock::now();
            ok = loadCheckpoint(path, &loaded, &err);
            p.setup += secondsSince(start);
        }
        ::unlink(path.c_str());
        if (!ok) {
            p.cells.push_back({cell.label, false, "checkpoint: " + err, "",
                               0});
            return;
        }
        SimParams restored = cell.params;
        restored.ffwd = {};
        sim = build(p, tr, "sim.restore_build", restored, loaded);
        CoreResult r = runDetailed(p, tr, *sim);
        finishCell(p, tr, cell, *sim, r);
        teardown(tr, sim);
    }

    void
    runCampaign(Pass &p, Tracer *tr, const std::vector<SweepJob> &jobs,
                unsigned threads)
    {
        CampaignOptions opts;
        opts.isolate = true;
        opts.journalPath = scratchPath("journal");
        std::string resultsPath = scratchPath("results") + ".json";
        p.baselineRuns += unsigned(baselineCacheSize() == 0 ? jobs.size()
                                                            : 0);
        CampaignRunner runner(opts, threads);
        std::vector<CampaignOutcome> outcomes;
        {
            Scope s(tr, "sim.campaign.run");
            auto start = Clock::now();
            outcomes = runner.run(jobs);
            p.campaignWall += secondsSince(start);
        }
        p.campaignThreads = runner.threads();
        {
            Scope s(tr, "sim.campaign.write_results");
            writeCampaignResultsJson(resultsPath, "perfbench", jobs,
                                     outcomes, runner.threads(),
                                     p.campaignWall, opts,
                                     runner.interrupted());
        }
        Scope s(tr, "stats.digest");
        for (size_t i = 0; i < jobs.size(); ++i) {
            const CampaignOutcome &o = outcomes[i];
            CellRecord rec;
            rec.label = jobs[i].label;
            if (!o.ok()) {
                rec.ok = false;
                rec.error = o.failure.message;
                p.cells.push_back(rec);
                p.childResults.emplace_back();
                continue;
            }
            SweepOutcome normalized = o.outcome;
            normalized.wallSeconds = 0.0;
            rec.digest =
                hex64(fnv1a64(serializeSweepOutcome(normalized)));
            const PenaltyResult &pr = o.outcome.result;
            rec.userInsts = pr.mech.userInsts;
            if (!pr.mech.ok() || !pr.perfect.ok() ||
                pr.mech.userInsts < jobs[i].params.maxInsts) {
                rec.ok = false;
                rec.error = "cell did not complete its budget: " +
                            pr.mech.error + pr.perfect.error;
            }
            p.detailedInsts += pr.mech.userInsts + pr.perfect.userInsts;
            p.coveredInsts += pr.mech.userInsts + pr.perfect.userInsts;
            p.childCellS.push_back(o.outcome.wallSeconds);
            p.childResults.push_back(resultLine(pr.mech));
            p.runS += o.outcome.wallSeconds;
            p.cells.push_back(rec);
        }
        // The whole results document, host-time fields normalized the
        // way tools/sweep_merge does.
        CellRecord doc;
        doc.label = "results_json";
        std::ifstream in(resultsPath);
        std::stringstream text;
        text << in.rdbuf();
        std::string merged, err;
        if (mergeSweepResults({text.str()}, &merged, &err)) {
            doc.digest = hex64(fnv1a64(merged));
        } else {
            doc.ok = false;
            doc.error = "results document: " + err;
        }
        p.cells.push_back(doc);
        p.journalBytes += fileBytes(opts.journalPath);
        ::unlink(opts.journalPath.c_str());
        ::unlink(resultsPath.c_str());
    }

    /** Campaign set-up: construct every cell's system once in-process
     *  (the forked children each construct their own again). */
    void
    campaignSetup(Pass &p, Tracer *tr)
    {
        for (const SweepJob &job : wl.jobs) {
            auto sim = build(p, tr, "sim.build", job.params, job.workloads);
            teardown(tr, sim);
        }
    }

    Pass
    runPass(Tracer *tr)
    {
        Pass p;
        p.traced = tr != nullptr;
        double cpu0 = cpuSeconds();
        auto start = Clock::now();
        {
            Scope root(tr, "round");
            if (!wl.jobs.empty()) {
                campaignSetup(p, tr);
                runCampaign(p, tr, wl.jobs, wl.campaignThreads);
            }
            for (const Cell &cell : wl.cells)
                runCell(p, tr, cell);
        }
        p.wall = secondsSince(start);
        p.cpu = cpuSeconds() - cpu0;
        std::vector<double> tp, lat;
        for (size_t i = 0; i < wl.cells.size() + wl.jobs.size(); ++i) {
            ProbeTimes t = hostProbe();
            tp.push_back(t.throughput);
            lat.push_back(t.latency);
        }
        std::sort(tp.begin(), tp.end());
        std::sort(lat.begin(), lat.end());
        p.probe = {tp[tp.size() / 2], lat[lat.size() / 2]};
        return p;
    }

    /**
     * Campaign cells run in forked children, out of reach of
     * statsRoot(). For the per-layer counts, replay each cell's
     * configuration in-process (outside the pass's timing) and check
     * its CoreResult equals what the isolated child reported.
     */
    void
    replayCampaign(Pass &p, Tracer *tr)
    {
        Scope root(tr, "replay");
        Pass scratch;
        for (size_t i = 0; i < wl.jobs.size(); ++i) {
            const SweepJob &job = wl.jobs[i];
            Cell cell{job.label, CellKind::Detailed, job.params,
                      job.workloads};
            auto sim = build(scratch, tr, "sim.build", job.params,
                             job.workloads);
            CoreResult r = runDetailed(scratch, tr, *sim);
            finishCell(scratch, tr, cell, *sim, r);
            teardown(tr, sim);
            CellRecord &rec = p.cells[i];
            if (!scratch.cells[i].ok) {
                rec.ok = false;
                rec.error = "in-process replay: " + scratch.cells[i].error;
            } else if (rec.ok && resultLine(r) != p.childResults[i]) {
                rec.ok = false;
                rec.error = "in-process replay gave " + resultLine(r) +
                            "isolated child gave " + p.childResults[i];
            }
        }
        p.counts = scratch.counts;
    }
};

// ---------------------------------------------------------------------
// Layer probes (--trace 1): direct timed calls on the workload's inputs
// ---------------------------------------------------------------------

constexpr unsigned ProbeReps = 3;
constexpr uint64_t ProbeOps = 1'000'000;
constexpr uint64_t ProbeFfwdInsts = 5'000'000;
constexpr uint64_t ProbeCkptFfwdInsts = 2'000'000;
constexpr uint64_t ProbeDetailInsts = 30'000;

volatile uint64_t probeSink; //!< keeps timed results observable

/** The probes' record has the layout of a pass: their checkpoint and
 *  campaign numbers land in the same fields. */
Pass
runProbes(Runner &runner, Tracer *tr, uint64_t seed)
{
    const Workload &wl = runner.wl;
    Cell base = wl.cells.empty()
                    ? Cell{wl.jobs[0].label, CellKind::Detailed,
                           wl.jobs[0].params, wl.jobs[0].workloads}
                    : wl.cells[0];
    SimParams plain = base.params;
    plain.ffwd = {};
    plain.sample = {};
    plain.obs = {};
    Rng rng(0x5eed0000ULL ^ seed);

    Pass out;
    out.traced = true;
    Scope root(tr, "probe");

    // A checkpoint cycle, where the workload has none of its own.
    bool hasCheckpoint = false;
    for (const Cell &cell : wl.cells)
        hasCheckpoint |= cell.kind == CellKind::Checkpoint;
    for (unsigned i = 0; i < ProbeReps && !hasCheckpoint; ++i) {
        Cell cell = base;
        cell.kind = CellKind::Checkpoint;
        cell.params = plain;
        cell.params.maxInsts = ProbeDetailInsts;
        cell.params.ffwd.insts = ProbeCkptFfwdInsts;
        runner.runCheckpointCell(out, tr, cell);
    }

    // Functional fast-forward.
    for (unsigned i = 0; i < ProbeReps; ++i) {
        auto sim = std::make_unique<Simulator>(plain, base.wls);
        SuperblockCache blocks;
        FuncMachine machine(sim->process(0), sim->mem());
        Scope s(tr, "kernel.ffwd");
        s.ops = machine.runFast(ProbeFfwdInsts, blocks);
    }

    // Decode of the workloads' text words.
    std::vector<isa::InstWord> words;
    const size_t firstTextWords = buildWorkload(base.wls[0]).text.size();
    for (const WorkloadParams &wp : base.wls) {
        ProcessImage image = buildWorkload(wp);
        words.insert(words.end(), image.text.words.begin(),
                     image.text.words.end());
    }
    for (unsigned i = 0; i < ProbeReps; ++i) {
        Scope s(tr, "isa.decode");
        uint64_t acc = 0;
        while (s.ops < ProbeOps)
            for (isa::InstWord w : words) {
                acc += uint64_t(isa::decode(w).op);
                ++s.ops;
            }
        probeSink = acc;
    }
    for (unsigned i = 0; i < ProbeReps; ++i) {
        isa::DecodeCache cache;
        Scope s(tr, "isa.decode_cache");
        uint64_t acc = 0;
        while (s.ops < ProbeOps)
            for (isa::InstWord w : words) {
                acc += uint64_t(cache.lookup(w).op);
                ++s.ops;
            }
        probeSink = acc;
    }

    // PhysMem reads over the first process's mapped text and hot data.
    {
        auto sim = std::make_unique<Simulator>(plain, base.wls);
        const WorkloadParams &wp = base.wls[0];
        const AddressSpace &space = sim->process(0).space();
        std::vector<Addr> pas;
        auto addRange = [&](Addr lo, Addr hi) {
            for (Addr va = lo; va < hi; va += 8)
                if (auto pa = space.translate(va))
                    pas.push_back(*pa);
        };
        addRange(wp.textBase, wp.textBase + 4 * firstTextWords);
        addRange(wp.hotBase, wp.hotBase + wp.hotBytes());
        std::vector<Addr> stream(ProbeOps);
        for (Addr &pa : stream)
            pa = pas[rng.below(pas.size())];
        for (unsigned i = 0; i < ProbeReps; ++i) {
            Scope s(tr, "kernel.physmem_read");
            uint64_t acc = 0;
            for (Addr pa : stream)
                acc += sim->mem().read(pa, 8);
            s.ops = stream.size();
            probeSink = acc;
        }
    }

    // L1D access: alternating hits (a resident 8 KB set) and misses
    // (64 B strides through 64 MB), memory behind the L2. Each access
    // starts when the previous one's data is ready, so the bus never
    // falls behind and the outstanding-miss table stays small.
    {
        std::vector<Addr> stream(ProbeOps);
        for (size_t j = 0; j < stream.size(); ++j)
            stream[j] = (j & 1) ? 0x10000000 + (j * 64) % (64u << 20)
                                : (rng.below(8192) & ~Addr(7));
        for (unsigned i = 0; i < ProbeReps; ++i) {
            stats::StatGroup group("probe");
            MemHierarchy mem(plain.mem, &group);
            Cycle now = 0;
            Scope s(tr, "mem.cache_access");
            uint64_t acc = 0;
            for (Addr pa : stream) {
                now = std::max(now + 1, mem.dcache().access(pa, false, now));
                acc += now;
            }
            s.ops = stream.size();
            probeSink = acc;
        }
    }

    // DTLB lookups: 90% hot pages (resident), 10% far pages (mostly
    // absent); lookups only, so the stream is the same every rep.
    {
        const WorkloadParams &wp = base.wls[0];
        std::vector<Addr> stream(ProbeOps);
        for (Addr &va : stream)
            va = rng.below(10) ? wp.hotBase + rng.below(wp.hotBytes())
                               : wp.farBase +
                                     rng.below(wp.farPages()) * PageBytes;
        for (unsigned i = 0; i < ProbeReps; ++i) {
            stats::StatGroup group("probe");
            Tlb tlb(plain.tlb.dtlbEntries, &group);
            for (Addr va = wp.hotBase; va < wp.hotBase + wp.hotBytes();
                 va += PageBytes)
                tlb.insert(1, va);
            Scope s(tr, "tlb.lookup");
            uint64_t hits = 0;
            for (Addr va : stream)
                hits += tlb.lookup(1, va);
            s.ops = stream.size();
            probeSink = hits;
        }
    }

    // Branch predictor: predict + update over the workload's
    // conditional branches, outcomes from a seeded 3:1 taken pattern.
    {
        std::vector<std::pair<Addr, isa::DecodedInst>> branches;
        for (size_t j = 0; j < words.size(); ++j) {
            isa::DecodedInst di = isa::decode(words[j]);
            if (di.valid() && di.info->isBranch && di.info->isConditional)
                branches.emplace_back(base.wls[0].textBase + 4 * j, di);
        }
        fatal_if(branches.empty(), "workload text has no conditional "
                                   "branch to predict");
        std::vector<uint8_t> taken(ProbeOps);
        for (uint8_t &t : taken)
            t = rng.below(4) != 0;
        for (unsigned i = 0; i < ProbeReps; ++i) {
            stats::StatGroup group("probe");
            BranchPredictor bp(plain.bpred, 1, &group);
            Scope s(tr, "bpred.predict_update");
            uint64_t acc = 0;
            for (size_t j = 0; j < taken.size(); ++j) {
                const auto &[pc, di] = branches[j % branches.size()];
                BpredResult pred = bp.predict(0, pc, di);
                acc += pred.taken;
                bp.update(0, pc, di, taken[j], pc + 4, pred.checkpoint);
            }
            s.ops = taken.size();
            probeSink = acc;
        }
    }

    // Obs event emission into an enabled log (ring only, no sink).
    for (unsigned i = 0; i < ProbeReps; ++i) {
        obs::EventLog log(4096);
        obs::Event ev;
        Scope s(tr, "obs.emit");
        for (uint64_t j = 0; j < ProbeOps; ++j) {
            ev.cycle = j;
            ev.seq = j;
            ev.kind = obs::EventKind(j & 3);
            log.emit(ev);
        }
        s.ops = ProbeOps;
        probeSink = log.totalEmitted();
    }

    // A two-cell isolated campaign of this workload's first
    // configuration (only where the workload has no campaign of its
    // own to time).
    if (wl.jobs.empty()) {
        std::vector<SweepJob> jobs;
        for (unsigned i = 0; i < 2; ++i) {
            SimParams p = plain;
            p.maxInsts = ProbeDetailInsts;
            p.except.idleThreads += i;
            jobs.emplace_back(p, base.wls,
                              "probe/" + std::to_string(i));
        }
        runner.runCampaign(out, tr, jobs, 1);
    }
    return out;
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

void
emitDoubles(std::ostream &os, const std::vector<double> &v)
{
    os << '[';
    for (size_t i = 0; i < v.size(); ++i)
        os << (i ? "," : "") << jsonNumber(v[i]);
    os << ']';
}

void
emitSpans(std::ostream &os, const std::vector<Span> &spans)
{
    os << '[';
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << (i ? "," : "") << "[\"" << jsonEscape(s.name) << "\",\""
           << jsonEscape(s.label) << "\"," << s.start << ',' << s.end
           << ',' << s.parent << ',' << s.ops << ']';
    }
    os << ']';
}

void
emitPass(std::ostream &os, const Pass &p)
{
    os << "{\"traced\":" << (p.traced ? "true" : "false")
       << ",\"wall_s\":" << jsonNumber(p.wall)
       << ",\"cpu_s\":" << jsonNumber(p.cpu)
       << ",\"setup_s\":" << jsonNumber(p.setup)
       << ",\"run_s\":" << jsonNumber(p.runS)
       << ",\"detailed_insts\":" << p.detailedInsts
       << ",\"covered_insts\":" << p.coveredInsts
       << ",\"campaign_wall_s\":" << jsonNumber(p.campaignWall)
       << ",\"campaign_threads\":" << p.campaignThreads
       << ",\"journal_bytes\":" << p.journalBytes
       << ",\"baseline_runs\":" << p.baselineRuns
       << ",\"checkpoint_bytes\":" << p.checkpointBytes
       << ",\"probe_tp_s\":" << jsonNumber(p.probe.throughput)
       << ",\"probe_lat_s\":" << jsonNumber(p.probe.latency)
       << ",\"child_cell_s\":";
    emitDoubles(os, p.childCellS);
    os << ",\"counts\":{";
    bool first = true;
    for (const auto &[name, value] : p.counts) {
        os << (first ? "" : ",") << '"' << jsonEscape(name)
           << "\":" << jsonNumber(value);
        first = false;
    }
    os << "},\"cells\":[";
    for (size_t i = 0; i < p.cells.size(); ++i) {
        const CellRecord &c = p.cells[i];
        os << (i ? "," : "") << "{\"label\":\"" << jsonEscape(c.label)
           << "\",\"ok\":" << (c.ok ? "true" : "false")
           << ",\"error\":\"" << jsonEscape(c.error) << "\",\"digest\":\""
           << c.digest << "\",\"user_insts\":" << c.userInsts << '}';
    }
    os << "],\"spans\":";
    emitSpans(os, p.spans);
    os << '}';
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: zmt_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --workdir DIR\n");
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string workload, workdir;
    uint64_t seed = 0;
    double seconds = -1.0;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i], value = argv[i + 1];
        if (flag == "--workload")
            workload = value;
        else if (flag == "--seed")
            seed = std::strtoull(value.c_str(), nullptr, 0);
        else if (flag == "--seconds")
            seconds = std::strtod(value.c_str(), nullptr);
        else if (flag == "--trace")
            trace = std::atoi(value.c_str());
        else if (flag == "--workdir")
            workdir = value;
        else
            return usage();
    }
    if (argc % 2 != 1 || workload.empty() || workdir.empty() ||
        seconds <= 0.0 || (trace != 0 && trace != 1))
        return usage();

    Workload wl = makeWorkload(workload, seed);
    if (wl.cells.empty() && wl.jobs.empty()) {
        std::fprintf(stderr, "zmt_perfbench: unknown workload '%s'\n",
                     workload.c_str());
        return 2;
    }

    // Stay on one CPU, with the campaign's forked cells: the host-speed
    // probe then runs where the measured work ran.
    int cpu = sched_getcpu();
    if (cpu >= 0) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        sched_setaffinity(0, sizeof one, &one);
    }

    Runner runner{wl, workdir};
    auto origin = Clock::now();
    Pass probe;
    if (trace) {
        Tracer tr(origin);
        probe = runProbes(runner, &tr, seed);
        probe.spans = std::move(tr.spans);
    }
    std::vector<Pass> passes;

    // Keep starting passes while the next one is expected to end in
    // time, with at least three (or one untraced/traced pair).
    const size_t step = trace ? 2 : 1;
    const size_t minPasses = trace ? 2 : 3;
    const auto loopStart = Clock::now();
    for (;;) {
        for (size_t k = 0; k < step; ++k) {
            Tracer tr(origin);
            Tracer *traced = trace && k == 1 ? &tr : nullptr;
            Pass p = runner.runPass(traced);
            if (trace && !wl.jobs.empty())
                runner.replayCampaign(p, traced);
            p.spans = std::move(tr.spans);
            passes.push_back(std::move(p));
        }
        // Per-pass cost as seen from outside the pass (campaign
        // replays included).
        double perPass = secondsSince(loopStart) / double(passes.size());
        if (passes.size() >= minPasses &&
            secondsSince(origin) + double(step) * perPass > seconds)
            break;
    }

    std::ostringstream os;
    os << "{\"schema\":\"zmt-perfbench-raw-v1\",\"workload\":\""
       << jsonEscape(workload) << "\",\"seed\":" << seed
       << ",\"compiler\":\"" << jsonEscape(__VERSION__)
       << "\",\"build_type\":\"" << ZMT_PERFBENCH_BUILD_TYPE
       << "\",\"cxx_flags\":\"" << jsonEscape(ZMT_PERFBENCH_CXX_FLAGS)
       << "\",\"elapsed_s\":" << jsonNumber(secondsSince(origin))
       << ",\"peak_rss_kb\":" << peakRssKb()
       << ",\"cells_per_pass\":"
       << (wl.cells.size() + (wl.jobs.empty() ? 0 : wl.jobs.size() + 1))
       << ",\"passes\":[";
    for (size_t i = 0; i < passes.size(); ++i) {
        if (i)
            os << ',';
        emitPass(os, passes[i]);
    }
    os << "],\"probe\":";
    emitPass(os, probe);
    os << "}\n";
    std::fputs(os.str().c_str(), stdout);
    return 0;
}
