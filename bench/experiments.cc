#include "experiments.hh"

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>

#include "sim/experiment.hh"

namespace zmtbench
{

std::vector<SweepJob>
Experiment::points(const std::vector<Config> &configs,
                   const std::vector<Row> &rows) const
{
    std::vector<SweepJob> jobs;
    auto add = [&](const Config &config, const Row &row,
                   const std::string &label) {
        SweepJob job(config.params, row.benches,
                     std::string(prefix) + "/" + label);
        job.workloads = row.workloads;
        job.skipBaseline = skipBaseline;
        jobs.push_back(std::move(job));
    };
    if (rowMajor) {
        for (const Row &row : rows)
            for (const Config &config : configs)
                add(config, row, row.label + "/" + config.label);
    } else {
        for (const Config &config : configs)
            for (const Row &row : rows)
                add(config, row, config.label + "/" + row.label);
    }
    return jobs;
}

namespace
{

/** Pretty table writer used for the paper-vs-measured summaries. */
class Table
{
  public:
    explicit Table(std::string title) : title(std::move(title)) {}

    void
    row(std::vector<std::string> cols)
    {
        rows.push_back(std::move(cols));
    }

    /** Print the table; the first row is the header. */
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

std::string
fmt(double value, int precision = 1)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    return buf;
}

/** Default parameters for all experiments (Table 1 machine). */
SimParams
baseParams(const RunFlags &flags)
{
    SimParams params;
    params.maxInsts = flags.insts.value_or(BenchInsts);
    params.warmupInsts = flags.warmup.value_or(BenchWarmup);
    // --attrib: every measured run carries the penalty-attribution
    // sink (the perfect-TLB baselines stay obs-free — experiment.cc
    // clears obs on the baseline copy).
    params.obs.attrib = flags.attrib;
    return params;
}

Config
mechConfig(const RunFlags &flags, std::string label, ExceptMech mech,
           unsigned idleThreads)
{
    SimParams params = baseParams(flags);
    params.except.mech = mech;
    params.except.idleThreads = idleThreads;
    return {std::move(label), params};
}

std::vector<Row>
benchRows(const std::vector<std::string> &names)
{
    std::vector<Row> rows;
    for (const auto &name : names)
        rows.push_back({name, {name}, {}});
    return rows;
}

std::vector<Row>
allBenchRows()
{
    return benchRows(benchmarkNames());
}

/** Mean penalty per miss of one configuration across the rows. */
double
average(const Grid &grid, size_t config)
{
    double sum = 0;
    for (size_t r = 0; r < grid.rows.size(); ++r)
        sum += grid.penalty(config, r);
    return sum / grid.rows.size();
}

/**
 * Penalty per miss, one line per row and one column per configuration,
 * closed by an "average" line. Returns the per-configuration averages;
 * the caller prints the table.
 */
std::vector<double>
penaltyTable(Table &table, const Grid &grid, const char *rowHeader)
{
    std::vector<std::string> header{rowHeader};
    for (const Config &config : grid.configs)
        header.push_back(config.label);
    table.row(header);
    for (size_t r = 0; r < grid.rows.size(); ++r) {
        std::vector<std::string> line{grid.rows[r].label};
        for (size_t c = 0; c < grid.configs.size(); ++c)
            line.push_back(fmt(grid.penalty(c, r)));
        table.row(line);
    }
    std::vector<double> avgs;
    std::vector<std::string> line{"average"};
    for (size_t c = 0; c < grid.configs.size(); ++c) {
        avgs.push_back(average(grid, c));
        line.push_back(fmt(avgs.back()));
    }
    table.row(line);
    return avgs;
}

// ---------------------------------------------------------------------
// Figure 2: overhead of the traditional software TLB miss handler as a
// function of pipeline length (3, 7 and 11 stages between fetch and
// execute) on the 8-wide machine. Expected shape: penalty grows with
// depth with a slope of roughly two cycles per added stage — the pipe
// refills twice per exception (once at the trap, once at the return,
// which has no RAS-like target prediction).
// ---------------------------------------------------------------------

std::vector<Config>
fig2Configs(const RunFlags &flags)
{
    std::vector<Config> configs;
    for (unsigned depth : {3, 7, 11}) {
        SimParams params = baseParams(flags);
        params.except.mech = ExceptMech::Traditional;
        params.core.setFrontendDepth(depth);
        configs.push_back({"depth" + std::to_string(depth), params});
    }
    return configs;
}

void
fig2Render(const Grid &grid)
{
    Table table("Figure 2: traditional penalty vs pipeline depth");
    table.row({"benchmark", "3 stages", "7 stages", "11 stages",
               "slope/stage"});

    double avg_slope = 0;
    for (size_t b = 0; b < grid.rows.size(); ++b) {
        double slope = (grid.penalty(2, b) - grid.penalty(0, b)) / (11 - 3);
        avg_slope += slope;
        table.row({grid.rows[b].label, fmt(grid.penalty(0, b)),
                   fmt(grid.penalty(1, b)), fmt(grid.penalty(2, b)),
                   fmt(slope, 2)});
    }
    table.row({"average", fmt(average(grid, 0)), fmt(average(grid, 1)),
               fmt(average(grid, 2)),
               fmt(avg_slope / grid.rows.size(), 2)});
    table.print();

    std::printf("\nPaper: the slope is around 2 cycles per pipe stage "
                "for most benchmarks\n(two pipeline refills per "
                "exception, Section 3).\n");
}

// ---------------------------------------------------------------------
// Figure 3: relative TLB execution percentage as a function of
// superscalar width (2-wide/32-entry, 4-wide/64-entry, 8-wide/
// 128-entry), traditional handler. Expected shape: wider machines
// spend a *larger fraction* of their time handling TLB misses,
// because the handler does not benefit from issue width the way the
// application does; gcc behaves anomalously due to wrong-path cache
// pollution in the perfect-TLB baseline (paper Section 5.3).
// ---------------------------------------------------------------------

std::vector<Config>
fig3Configs(const RunFlags &flags)
{
    std::vector<Config> configs;
    for (unsigned width : {2, 4, 8}) {
        SimParams params = baseParams(flags);
        params.except.mech = ExceptMech::Traditional;
        params.core.setWidth(width);
        configs.push_back({"width" + std::to_string(width), params});
    }
    return configs;
}

void
fig3Render(const Grid &grid)
{
    Table table("Figure 3: relative TLB execution percentage (traditional)");
    table.row({"benchmark", "2w/32", "4w/64", "8w/128", "ratio 8w/2w"});

    size_t grew = 0;
    std::vector<double> sums(grid.configs.size(), 0.0);
    for (size_t b = 0; b < grid.rows.size(); ++b) {
        std::vector<double> fracs;
        for (size_t c = 0; c < grid.configs.size(); ++c)
            fracs.push_back(grid.at(c, b).tlbFraction() * 100.0);
        for (size_t i = 0; i < fracs.size(); ++i)
            sums[i] += fracs[i];
        double ratio = fracs[0] != 0.0 ? fracs[2] / fracs[0] : 0.0;
        grew += fracs[2] > fracs[0] ? 1 : 0;
        table.row({grid.rows[b].label, fmt(fracs[0], 2) + "%",
                   fmt(fracs[1], 2) + "%", fmt(fracs[2], 2) + "%",
                   fmt(ratio, 2)});
    }
    size_t n = grid.rows.size();
    table.row({"average", fmt(sums[0] / n, 2) + "%",
               fmt(sums[1] / n, 2) + "%", fmt(sums[2] / n, 2) + "%",
               fmt(sums[0] != 0 ? sums[2] / sums[0] : 0, 2)});
    table.print();

    std::printf("\nPaper: the TLB-handling share of execution grows "
                "with machine width for\nmost benchmarks (%zu of %zu "
                "grew here); gcc is the documented exception.\n",
                grew, n);
}

// ---------------------------------------------------------------------
// Figure 5: relative TLB-miss performance of the traditional,
// multithreaded(1), multithreaded(3) and hardware handlers across the
// eight benchmarks — the paper's headline comparison. Expected shape:
// traditional ~22.7 cycles/miss on average, multithreaded roughly half
// of that (11.7 with one idle thread, 11.0 with three), hardware
// lowest (~7.3), and the gcc anomaly where cache pollution in the
// perfect-TLB baseline depresses the apparent penalties.
// ---------------------------------------------------------------------

std::vector<Config>
fig5Configs(const RunFlags &flags)
{
    return {mechConfig(flags, "traditional", ExceptMech::Traditional, 0),
            mechConfig(flags, "multithreaded(1)", ExceptMech::Multithreaded,
                       1),
            mechConfig(flags, "multithreaded(3)", ExceptMech::Multithreaded,
                       3),
            mechConfig(flags, "hardware", ExceptMech::Hardware, 0)};
}

/** Where the handling cycles go, per mechanism, summed across the
 *  benchmarks (cycles per completed handling). */
void
fig5AttribRender(const Grid &grid)
{
    Table table("Figure 5 addendum: penalty attribution "
                "(cycles per handling)");
    std::vector<std::string> header{"config", "handlings"};
    for (unsigned c = 0; c < obs::NumAttribCats; ++c)
        header.push_back(obs::attribCatName(obs::AttribCat(c)));
    header.push_back("total");
    table.row(header);

    for (size_t c = 0; c < grid.configs.size(); ++c) {
        obs::AttribSummary sum;
        for (size_t b = 0; b < grid.rows.size(); ++b) {
            const obs::AttribSummary &a = grid.at(c, b).mech.attrib;
            sum.completed += a.completed;
            sum.aborted += a.aborted;
            sum.spanCycles += a.spanCycles;
            for (unsigned k = 0; k < obs::NumAttribCats; ++k)
                sum.cycles[k] += a.cycles[k];
        }
        std::vector<std::string> row{grid.configs[c].label,
                                     std::to_string(sum.completed)};
        for (unsigned k = 0; k < obs::NumAttribCats; ++k)
            row.push_back(fmt(sum.perHandling(obs::AttribCat(k))));
        row.push_back(fmt(sum.spanPerHandling()));
        table.row(row);
    }
    table.print();
}

void
fig5Render(const Grid &grid)
{
    // Paper Figure 5 / Section 5.3 reported averages (cycles per miss).
    const double paperAvg[] = {22.7, 11.7, 11.0, 7.3};

    Table table("Figure 5: penalty cycles per TLB miss");
    penaltyTable(table, grid, "benchmark");
    std::vector<std::string> paper{"paper avg"};
    for (double avg : paperAvg)
        paper.push_back(fmt(avg));
    table.row(paper);
    table.print();

    std::printf("\nExpected shape: traditional >> multithreaded(1) >= "
                "multithreaded(3) > hardware;\nthe multithreaded "
                "mechanism roughly halves the traditional penalty "
                "(paper Section 5.3).\n");

    if (grid.configs[0].params.obs.attrib)
        fig5AttribRender(grid);
}

// ---------------------------------------------------------------------
// Figure 6: the quick-starting multithreaded implementation — the
// predicted next handler is prefetched into the idle thread's fetch
// buffer, hiding fetch latency (Section 5.4). Expected shape:
// quick-start lands between multithreaded(1) and the hardware walker,
// recovering on the order of 1.7 cycles per miss on average but
// falling short of the instant-fetch limit study (decode latency
// remains, and the buffer is not always warm for back-to-back misses).
// ---------------------------------------------------------------------

/** The four mechanisms of Figures 6 and 7, each with one idle thread. */
std::vector<Config>
fig6Configs(const RunFlags &flags)
{
    return {mechConfig(flags, "traditional", ExceptMech::Traditional, 1),
            mechConfig(flags, "multithreaded(1)", ExceptMech::Multithreaded,
                       1),
            mechConfig(flags, "quickstart(1)", ExceptMech::QuickStart, 1),
            mechConfig(flags, "hardware", ExceptMech::Hardware, 1)};
}

void
fig6Render(const Grid &grid)
{
    Table table("Figure 6: quick-starting multithreaded handler "
                "(penalty cycles per miss)");
    std::vector<double> avg = penaltyTable(table, grid, "benchmark");
    table.print();

    double trad = avg[0], mt = avg[1], qs = avg[2], hw = avg[3];
    std::printf("\nQuick-start recovers %.1f cycles/miss over "
                "multithreaded(1) (paper: ~1.7)\nand closes %.0f%% of "
                "the software-hardware gap (paper Abstract: ~80%%).\n",
                mt - qs,
                trad - hw > 0 ? 100.0 * (trad - qs) / (trad - hw) : 0.0);
}

// ---------------------------------------------------------------------
// Figure 7: TLB miss penalties with three application threads running
// on the SMT plus one idle thread. Expected shape (paper Section 5.5):
// the multithreaded benefit shrinks but remains — roughly a 25%
// reduction of the average penalty (30% with quick-start) — because
// the other threads already tolerate much of each miss's latency, yet
// the avoided squashes save fetch/decode bandwidth that a loaded SMT
// actually needs. One idle thread suffices for three applications.
// ---------------------------------------------------------------------

std::vector<Config>
fig7Configs(const RunFlags &flags)
{
    std::vector<Config> configs = fig6Configs(flags);
    for (Config &config : configs) {
        // Every app thread must retire its share (the core's per-thread
        // quota), so give the mix a large budget: low-miss mixes need
        // many instructions per post-warm-up miss. Honors
        // --insts/--warmup, scaled by the three application threads.
        config.params.maxInsts = 3 * config.params.maxInsts + 300'000;
        config.params.warmupInsts = 3 * config.params.warmupInsts;
    }
    return configs;
}

std::vector<Row>
fig7Rows()
{
    std::vector<Row> rows;
    for (const auto &mix : figure7Mixes()) {
        std::string label;
        for (const auto &bench : mix)
            label += (label.empty() ? "" : "-") + shortName(bench);
        rows.push_back({label, mix, {}});
    }
    return rows;
}

void
fig7Render(const Grid &grid)
{
    Table table("Figure 7: penalty per miss, 3 app threads + 1 idle");
    penaltyTable(table, grid, "mix");
    table.print();

    // The per-miss differences on low-miss and gcc-bearing mixes fall
    // below this simulator's measurement floor (run-composition drift,
    // shared-cache wrong-path pollution) — compare only the mixes with
    // enough misses for the penalty to be resolvable.
    double heavy_trad = 0, heavy_mt = 0, heavy_qs = 0;
    unsigned heavy = 0;
    for (size_t m = 0; m < grid.rows.size(); ++m) {
        double trad_p = grid.penalty(0, m);
        if (trad_p > 10.0) {
            heavy_trad += trad_p;
            heavy_mt += grid.penalty(1, m);
            heavy_qs += grid.penalty(2, m);
            ++heavy;
        }
    }
    std::printf("\nSMT hides most of each miss (penalties collapse "
                "from ~27 single-app to single\ndigits — the paper's "
                "Section 5.5 observation). On the %u miss-heavy mixes\n"
                "the multithreaded mechanism still reduces the penalty "
                "by %.0f%% (quick-start\n%.0f%%; paper: ~25%%/30%% "
                "across all mixes); the remaining mixes are below\n"
                "the measurement floor (see EXPERIMENTS.md).\n",
                heavy,
                heavy_trad > 0
                    ? 100.0 * (heavy_trad - heavy_mt) / heavy_trad
                    : 0.0,
                heavy_trad > 0
                    ? 100.0 * (heavy_trad - heavy_qs) / heavy_trad
                    : 0.0);
}

// ---------------------------------------------------------------------
// Table 3: limit studies of the multithreaded mechanism's overheads.
// Each configuration removes one overhead of handler-thread execution:
// execute bandwidth, window space, fetch/decode bandwidth, and (the
// big one) fetch/decode latency — i.e. fetch/decode *latency* is the
// dominant residual overhead, which motivates quick-start (Section
// 5.4).
// ---------------------------------------------------------------------

std::vector<Config>
table3Configs(const RunFlags &flags)
{
    struct Limit
    {
        const char *label;
        void (*apply)(SimParams &);
    };
    const Limit limits[] = {
        {"traditional",
         [](SimParams &p) { p.except.mech = ExceptMech::Traditional; }},
        {"multithreaded", [](SimParams &p) {}},
        {"w/o execute BW",
         [](SimParams &p) { p.except.freeHandlerExecBw = true; }},
        {"w/o window",
         [](SimParams &p) { p.except.freeHandlerWindow = true; }},
        {"w/o fetch BW",
         [](SimParams &p) { p.except.freeHandlerFetchBw = true; }},
        {"instant fetch",
         [](SimParams &p) { p.except.instantHandlerFetch = true; }},
        {"hardware",
         [](SimParams &p) { p.except.mech = ExceptMech::Hardware; }},
    };
    std::vector<Config> configs;
    for (const Limit &limit : limits) {
        // Limit studies run with three idle threads to maximize
        // performance (paper Section 5.3).
        Config config =
            mechConfig(flags, limit.label, ExceptMech::Multithreaded, 3);
        limit.apply(config.params);
        configs.push_back(config);
    }
    return configs;
}

void
table3Render(const Grid &grid)
{
    // The paper's averages, one per configuration.
    const double paperAvg[] = {22.4, 11.0, 10.7, 10.5, 10.2, 8.5, 7.1};

    Table table("Table 3: limit studies (average penalty per miss, "
                "multithreaded with 3 idle threads)");
    table.row({"configuration", "measured avg", "paper avg"});
    for (size_t c = 0; c < grid.configs.size(); ++c)
        table.row({grid.configs[c].label, fmt(average(grid, c)),
                   fmt(paperAvg[c])});
    table.print();

    std::printf("\nExpected shape: execute-bandwidth, window and "
                "fetch-bandwidth overheads are minor;\ninstant handler "
                "fetch/decode recovers most of the gap to the hardware "
                "walker.\n");
}

// ---------------------------------------------------------------------
// Table 4: per-benchmark speedups over the traditional software
// handler, TLB miss rates, and base IPC, for the perfect TLB, the
// hardware walker, multithreaded(1)/(3) and quick-start(1)/(3). The
// paper's speedup table is reproduced below as reference data;
// absolute speedups depend on each benchmark's miss rate, so the
// expectation is rank/shape agreement (compress and vortex show the
// largest gains; gcc the smallest).
// ---------------------------------------------------------------------

/** Configuration 0 is the traditional handler the rest are compared to. */
std::vector<Config>
table4Configs(const RunFlags &flags)
{
    return {mechConfig(flags, "traditional", ExceptMech::Traditional, 1),
            mechConfig(flags, "perfect", ExceptMech::PerfectTlb, 0),
            mechConfig(flags, "hw", ExceptMech::Hardware, 0),
            mechConfig(flags, "multi(1)", ExceptMech::Multithreaded, 1),
            mechConfig(flags, "multi(3)", ExceptMech::Multithreaded, 3),
            mechConfig(flags, "quick(1)", ExceptMech::QuickStart, 1),
            mechConfig(flags, "quick(3)", ExceptMech::QuickStart, 3)};
}

void
table4Render(const Grid &grid)
{
    // Paper Table 4: speedup over traditional, percent, per benchmark,
    // for {Perfect, H/W, Multi(1), Multi(3), Quick(1), Quick(3)}.
    static const std::map<std::string, std::array<double, 6>>
        paperSpeedups = {
            {"alphadoom", {1.0, 0.6, 0.4, 0.4, 0.5, 0.5}},
            {"applu", {0.9, 0.4, 0.1, 0.1, 0.2, 0.2}},
            {"compress", {12.9, 9.0, 6.8, 7.3, 7.8, 8.4}},
            {"deltablue", {1.4, 0.8, 0.6, 0.6, 0.7, 0.7}},
            {"gcc", {0.5, 0.4, 0.4, 0.4, 0.4, 0.4}},
            {"hydro2d", {0.7, 0.4, 0.1, 0.1, 0.2, 0.2}},
            {"murphi", {3.2, 2.2, 1.6, 1.7, 1.8, 1.9}},
            {"vortex", {9.6, 7.1, 4.8, 5.3, 5.7, 6.3}},
        };

    Table table("Table 4: speedup over traditional (%), miss rate and "
                "base IPC");
    std::vector<std::string> header{"benchmark", "IPC", "miss/kinst"};
    for (size_t c = 1; c < grid.configs.size(); ++c)
        header.push_back(grid.configs[c].label);
    table.row(header);

    for (size_t b = 0; b < grid.rows.size(); ++b) {
        const std::string &bench = grid.rows[b].label;
        const PenaltyResult &trad = grid.at(0, b);
        std::vector<std::string> row{bench, fmt(grid.at(1, b).mech.ipc, 2),
                                     fmt(trad.missesPerKilo(), 3)};
        std::vector<std::string> paper{"  (paper)", "", ""};
        const auto &ref = paperSpeedups.at(bench);
        for (size_t c = 1; c < grid.configs.size(); ++c) {
            double speedup =
                (grid.at(c, b).speedupOver(trad.mech) - 1.0) * 100.0;
            row.push_back(fmt(speedup, 2) + "%");
            paper.push_back(fmt(ref[c - 1], 1) + "%");
        }
        table.row(row);
        table.row(paper);
    }
    table.print();

    std::printf("\nExpected shape: the high-miss-rate benchmarks "
                "(compress, vortex) show by far the\nlargest speedups; "
                "perfect > hardware > quick > multi > 0 for each "
                "benchmark.\n");
}

// ---------------------------------------------------------------------
// Ablation (beyond the paper's tables): isolates the design choices
// DESIGN.md calls out for the multithreaded mechanism — window
// reservation, handler fetch priority, secondary-miss relinking, and
// the hardware walker's speculative issue policy — by toggling each
// off individually on the miss-heavy benchmarks.
// ---------------------------------------------------------------------

std::vector<Config>
ablationConfigs(const RunFlags &flags)
{
    struct Toggle
    {
        const char *label;
        ExceptMech mech;
        const char *off; //!< parameter set to "0", or nullptr
    };
    const Toggle toggles[] = {
        {"multithreaded (all on)", ExceptMech::Multithreaded, nullptr},
        {"no window reservation", ExceptMech::Multithreaded,
         "except.windowReservation"},
        {"no fetch priority", ExceptMech::Multithreaded,
         "except.handlerFetchPriority"},
        {"no secondary relink", ExceptMech::Multithreaded,
         "except.relinkSecondaryMiss"},
        {"hardware (spec issue)", ExceptMech::Hardware, nullptr},
        {"hardware (no spec issue)", ExceptMech::Hardware,
         "except.hwSpeculativeFill"},
    };
    std::vector<Config> configs;
    for (const Toggle &toggle : toggles) {
        Config config = mechConfig(flags, toggle.label, toggle.mech, 1);
        if (toggle.off)
            config.params.set(toggle.off, "0");
        configs.push_back(config);
    }
    return configs;
}

void
ablationRender(const Grid &grid)
{
    Table table("Ablation: multithreaded/hardware design choices "
                "(penalty per miss)");
    std::vector<std::string> header{"configuration"};
    for (const Row &row : grid.rows)
        header.push_back(row.label);
    table.row(header);

    for (size_t c = 0; c < grid.configs.size(); ++c) {
        std::vector<std::string> row{grid.configs[c].label};
        for (size_t b = 0; b < grid.rows.size(); ++b)
            row.push_back(fmt(grid.penalty(c, b)));
        table.row(row);
    }
    table.print();

    std::printf("\nReading: each option should not *hurt* when enabled; "
                "the reservation and the\ndeadlock squash primarily "
                "guarantee forward progress (their cost shows up as\n"
                "livelock avoidance, not raw penalty).\n");
}

// ---------------------------------------------------------------------
// Extension study (paper Section 6, "Generalized Mechanism"): software
// instruction emulation as a second exception class. FSQRT is treated
// as unimplemented; the handler reads the operand through EmulArg,
// runs Newton-Raphson iterations, and commits the result via EMULWR —
// under the multithreaded mechanism the parked instruction becomes a
// NOP and its consumers wake in place (no squash, no refetch).
//
// The paper evaluates only TLB misses and *predicts* "similar benefits
// for other classes of exceptions, which cannot be implemented in
// hardware state machines"; this study quantifies that prediction on
// our machine across emulation densities. It compares mechanisms on
// raw cycles, so its points skip the perfect-TLB baseline run.
// ---------------------------------------------------------------------

std::vector<Config>
emulationConfigs(const RunFlags &flags)
{
    std::vector<Config> configs;
    for (ExceptMech mech : {ExceptMech::Traditional,
                            ExceptMech::Multithreaded,
                            ExceptMech::QuickStart}) {
        SimParams params = baseParams(flags);
        // Shorter default than the TLB studies (emulation exceptions
        // are denser); a given --insts/--warmup still takes precedence.
        params.maxInsts = flags.insts.value_or(400'000);
        params.warmupInsts = flags.warmup.value_or(150'000);
        params.except.mech = mech;
        params.except.emulateFsqrt = true;
        configs.push_back({mechName(mech), params});
    }
    return configs;
}

/** From "rare" (one emulated op per ~90 instructions) to "hot" (two
 *  per ~25 instructions, e.g. an emulated FP ISA subset). */
std::vector<Row>
emulationRows()
{
    struct Density
    {
        const char *label;
        unsigned fsqrtOps;  //!< FSQRTs per loop body
        unsigned aluChains; //!< dilution: bigger bodies -> rarer emulation
        unsigned aluOps;
    };
    const Density densities[] = {
        {"rare", 1, 8, 8},
        {"moderate", 1, 4, 2},
        {"hot", 2, 1, 1},
    };
    std::vector<Row> rows;
    for (const Density &density : densities) {
        WorkloadParams wp;
        wp.name = "emul";
        wp.fpChains = 2;
        wp.fpOpsPerChain = 2;
        wp.fsqrtOps = density.fsqrtOps;
        wp.aluChains = density.aluChains;
        wp.aluOpsPerChain = density.aluOps;
        wp.innerIters = 32;
        wp.farLoadsPerOuter = 1;
        rows.push_back({density.label, {}, {wp}});
    }
    return rows;
}

void
emulationRender(const Grid &grid)
{
    Table table("Section 6 extension: software FSQRT emulation "
                "(measured cycles; MT speedup over trap)");
    table.row({"density", "traditional", "multithreaded", "quickstart",
               "mt speedup", "emuls"});
    for (size_t d = 0; d < grid.rows.size(); ++d) {
        double trad = double(grid.at(0, d).mech.measuredCycles);
        double mt = double(grid.at(1, d).mech.measuredCycles);
        double qs = double(grid.at(2, d).mech.measuredCycles);
        table.row({grid.rows[d].label, fmt(trad, 0), fmt(mt, 0),
                   fmt(qs, 0), fmt(mt ? trad / mt : 0, 2) + "x",
                   fmt(double(grid.at(1, d).mech.emulations), 0)});
    }
    table.print();

    std::printf("\nThe denser the emulated instructions, the more the "
                "squash-free multithreaded\nmechanism wins — the "
                "paper's Section 6 prediction (\"similar benefits for "
                "other\nclasses of exceptions\"), quantified.\n");
}

// ---------------------------------------------------------------------
// Helper-thread micro-services: IPC delta of the run-ahead prefetch
// helper versus its aggressiveness (prefetch degree/run-ahead
// distance), across the paper's eight workloads. The helper borrows an
// idle context and spends leftover load/store ports, so the expected
// shape is a clear win on the pointer-chasing, cache-straining
// workloads (deltablue, hydro2d) and a wash on the small-footprint
// ones — the classic helper-thread profile.
// ---------------------------------------------------------------------

std::vector<Config>
helpersConfigs(const RunFlags &flags)
{
    std::vector<Config> configs{
        mechConfig(flags, "off", ExceptMech::Multithreaded, 1)};
    for (unsigned degree : {1, 2, 4}) {
        Config config = mechConfig(flags,
                                   "degree" + std::to_string(degree) +
                                       "/dist" + std::to_string(2 * degree),
                                   ExceptMech::Multithreaded, 1);
        config.params.helper.prefetch = true;
        config.params.helper.prefetchDegree = degree;
        config.params.helper.prefetchDistance = 2 * degree;
        configs.push_back(config);
    }
    return configs;
}

void
helpersRender(const Grid &grid)
{
    Table table("Helper prefetcher: IPC vs aggressiveness "
                "(delta vs off)");
    std::vector<std::string> header{"benchmark"};
    for (const Config &config : grid.configs)
        header.push_back(config.label);
    table.row(header);

    for (size_t b = 0; b < grid.rows.size(); ++b) {
        double base_ipc = grid.at(0, b).mech.ipc;
        std::vector<std::string> row{grid.rows[b].label, fmt(base_ipc, 3)};
        for (size_t c = 1; c < grid.configs.size(); ++c) {
            double ipc = grid.at(c, b).mech.ipc;
            double delta =
                base_ipc > 0 ? 100.0 * (ipc / base_ipc - 1.0) : 0.0;
            row.push_back(fmt(ipc, 3) + " (" + (delta >= 0 ? "+" : "") +
                          fmt(delta, 1) + "%)");
        }
        table.row(row);
    }
    table.print();

    std::printf("\nExpected shape: large gains on deltablue (the "
                "pointer-chase slice runs ahead of the\ndemand chain); "
                "modest or neutral elsewhere; higher aggressiveness "
                "helps until the\nprobe queue and leftover-port budget "
                "saturate.\n");
}

} // anonymous namespace

const std::vector<Experiment> &
experiments()
{
    static const std::vector<Experiment> all = {
        {.name = "fig2_pipeline", .prefix = "fig2", .configs = fig2Configs,
         .rows = allBenchRows, .render = fig2Render},
        {.name = "fig3_width", .prefix = "fig3", .configs = fig3Configs,
         .rows = allBenchRows, .render = fig3Render},
        {.name = "fig5_mechanisms", .prefix = "fig5",
         .configs = fig5Configs, .rows = allBenchRows,
         .render = fig5Render},
        {.name = "fig6_quickstart", .prefix = "fig6",
         .configs = fig6Configs, .rows = allBenchRows,
         .render = fig6Render},
        {.name = "fig7_multiapp", .prefix = "fig7", .configs = fig7Configs,
         .rows = fig7Rows, .render = fig7Render},
        {.name = "table3_limits", .prefix = "table3",
         .configs = table3Configs, .rows = allBenchRows,
         .render = table3Render},
        {.name = "table4_speedups", .prefix = "table4",
         .configs = table4Configs, .rows = allBenchRows,
         .render = table4Render},
        {.name = "ablation", .prefix = "ablation",
         .configs = ablationConfigs,
         .rows = [] { return benchRows({"compress", "vortex", "gcc"}); },
         .render = ablationRender},
        {.name = "emulation", .prefix = "emulation",
         .configs = emulationConfigs, .rows = emulationRows,
         .render = emulationRender, .rowMajor = true,
         .skipBaseline = true},
        {.name = "helpers", .prefix = "helpers", .configs = helpersConfigs,
         .rows = allBenchRows, .render = helpersRender},
    };
    return all;
}

} // namespace zmtbench
