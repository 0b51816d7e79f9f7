#include "config/params.hh"

#include <climits>
#include <limits>
#include <sstream>
#include <type_traits>

#include "common/fieldcodec.hh"
#include "common/logging.hh"

namespace zmt
{

const char *
mechName(ExceptMech mech)
{
    switch (mech) {
      case ExceptMech::PerfectTlb:    return "perfect";
      case ExceptMech::Traditional:   return "traditional";
      case ExceptMech::Multithreaded: return "multithreaded";
      case ExceptMech::QuickStart:    return "quickstart";
      case ExceptMech::Hardware:      return "hardware";
    }
    return "?";
}

ExceptMech
parseMech(const std::string &name)
{
    if (name == "perfect" || name == "perfecttlb")
        return ExceptMech::PerfectTlb;
    if (name == "traditional" || name == "trap")
        return ExceptMech::Traditional;
    if (name == "multithreaded" || name == "mt")
        return ExceptMech::Multithreaded;
    if (name == "quickstart" || name == "qs")
        return ExceptMech::QuickStart;
    if (name == "hardware" || name == "hw")
        return ExceptMech::Hardware;
    fatal("unknown exception mechanism '%s' (expected one of: "
          "perfect|perfecttlb, traditional|trap, multithreaded|mt, "
          "quickstart|qs, hardware|hw)",
          name.c_str());
    return ExceptMech::Traditional;
}

void
CoreParams::setFrontendDepth(unsigned stages)
{
    // stages = fetch + decode + schedule + regread.
    fatal_if(stages < 3, "frontend depth must be at least 3 stages");
    if (stages == 3) {
        // Minimum machine: 1-cycle fetch, merged decode/schedule,
        // 1-cycle register read.
        fetchDepth = 1;
        decodeDepth = 1;
        schedDepth = 0;
        regReadDepth = 1;
        return;
    }
    decodeDepth = 1;
    schedDepth = 1;
    // Split the remaining stages between fetch and register read with
    // the paper's nominal 3:2 proportion (7 stages -> 3 fetch, 2 read).
    unsigned remaining = stages - 2; // minus decode and schedule
    regReadDepth = remaining * 2 / 5;
    if (regReadDepth == 0)
        regReadDepth = 1;
    fetchDepth = remaining - regReadDepth;
    if (fetchDepth == 0) {
        fetchDepth = 1;
        regReadDepth = remaining - 1;
    }
}

void
CoreParams::setWidth(unsigned w)
{
    fatal_if(w == 0, "zero width");
    width = w;
    // Figure 3 pairs width with window size: 2/32, 4/64, 8/128. Scale
    // the FU pool in proportion to the 8-wide Table 1 machine.
    windowSize = w * 16;
    intAluCount = w;
    intMulCount = (w * 3 + 7) / 8;
    fpAddCount = (w * 3 + 7) / 8;
    fpDivCount = 1;
    lsPortCount = (w * 3 + 7) / 8;
}

namespace
{

using fieldcodec::formatValue;

std::string formatValue(ExceptMech mech) { return mechName(mech); }

/**
 * The one list of SimParams fields: every field of every sub-struct,
 * as (dotted name, member), in declaration order. forEachParam emits
 * in this order and set() looks keys up here, so a field listed once
 * is both recorded (canonicalKey, the results JSON) and settable, and
 * replaying a recorded configuration in order reproduces it.
 *
 * The baseline cache keys on this list: omitting a field would
 * silently alias configurations that simulate differently (the
 * pre-sweep baselineKey() bug), so keep it exhaustive. Observability
 * never changes simulated behaviour and ffwd.save is a pure output
 * path, but they are listed too; experiment.cc clears obs and
 * ffwd.save on its perfect-TLB baseline copy so baseline sharing is
 * unaffected by per-run output paths. Fast-forward and sampling change
 * which instructions the detailed core measures.
 */
template <class Params, class Visit>
void
visitParams(Params &p, Visit &&visit)
{
    visit("core.width", p.core.width);
    visit("core.windowSize", p.core.windowSize);
    visit("core.fetchDepth", p.core.fetchDepth);
    visit("core.decodeDepth", p.core.decodeDepth);
    visit("core.schedDepth", p.core.schedDepth);
    visit("core.regReadDepth", p.core.regReadDepth);
    visit("core.fetchBufEntries", p.core.fetchBufEntries);
    visit("core.intAluCount", p.core.intAluCount);
    visit("core.intMulCount", p.core.intMulCount);
    visit("core.fpAddCount", p.core.fpAddCount);
    visit("core.fpDivCount", p.core.fpDivCount);
    visit("core.lsPortCount", p.core.lsPortCount);
    visit("core.idleSkip", p.core.idleSkip);

    visit("mem.l1iSizeKb", p.mem.l1iSizeKb);
    visit("mem.l1iAssoc", p.mem.l1iAssoc);
    visit("mem.l1iLineBytes", p.mem.l1iLineBytes);
    visit("mem.l1dSizeKb", p.mem.l1dSizeKb);
    visit("mem.l1dAssoc", p.mem.l1dAssoc);
    visit("mem.l1dLineBytes", p.mem.l1dLineBytes);
    visit("mem.l2SizeKb", p.mem.l2SizeKb);
    visit("mem.l2Assoc", p.mem.l2Assoc);
    visit("mem.l2LineBytes", p.mem.l2LineBytes);
    visit("mem.l2Latency", p.mem.l2Latency);
    visit("mem.maxOutstandingMisses", p.mem.maxOutstandingMisses);
    visit("mem.l1l2BusCyclesPerBlock", p.mem.l1l2BusCyclesPerBlock);
    visit("mem.l2MemBusCycles", p.mem.l2MemBusCycles);
    visit("mem.memLatency", p.mem.memLatency);

    visit("tlb.dtlbEntries", p.tlb.dtlbEntries);

    visit("bpred.yagsChoiceBits", p.bpred.yagsChoiceBits);
    visit("bpred.yagsExcBits", p.bpred.yagsExcBits);
    visit("bpred.yagsTagBits", p.bpred.yagsTagBits);
    visit("bpred.indirectBtbBits", p.bpred.indirectBtbBits);
    visit("bpred.indirectExcBits", p.bpred.indirectExcBits);
    visit("bpred.rasEntries", p.bpred.rasEntries);
    visit("bpred.historyBits", p.bpred.historyBits);

    visit("except.mech", p.except.mech);
    visit("except.idleThreads", p.except.idleThreads);
    visit("except.windowReservation", p.except.windowReservation);
    visit("except.handlerFetchPriority", p.except.handlerFetchPriority);
    visit("except.relinkSecondaryMiss", p.except.relinkSecondaryMiss);
    visit("except.deadlockSquash", p.except.deadlockSquash);
    visit("except.hwSpeculativeFill", p.except.hwSpeculativeFill);
    visit("except.quickStartWarmup", p.except.quickStartWarmup);
    visit("except.emulateFsqrt", p.except.emulateFsqrt);
    visit("except.freeHandlerExecBw", p.except.freeHandlerExecBw);
    visit("except.freeHandlerWindow", p.except.freeHandlerWindow);
    visit("except.freeHandlerFetchBw", p.except.freeHandlerFetchBw);
    visit("except.instantHandlerFetch", p.except.instantHandlerFetch);

    visit("verify.invariantPeriod", p.verify.invariantPeriod);
    visit("verify.seed", p.verify.seed);
    visit("verify.badPteProb", p.verify.badPteProb);
    visit("verify.stealIdleProb", p.verify.stealIdleProb);
    visit("verify.forceSecondaryMissProb",
          p.verify.forceSecondaryMissProb);
    visit("verify.squeezePeriod", p.verify.squeezePeriod);
    visit("verify.squeezeDuration", p.verify.squeezeDuration);
    visit("verify.squeezeWindowTo", p.verify.squeezeWindowTo);
    visit("verify.handlerSquashPeriod", p.verify.handlerSquashPeriod);
    visit("verify.mutateSpliceBug", p.verify.mutateSpliceBug);
    visit("verify.panicAtCycle", p.verify.panicAtCycle);

    visit("helper.prefetch", p.helper.prefetch);
    visit("helper.prefetchDegree", p.helper.prefetchDegree);
    visit("helper.prefetchDistance", p.helper.prefetchDistance);
    visit("helper.prefetchTableSize", p.helper.prefetchTableSize);
    visit("helper.prefetchQueue", p.helper.prefetchQueue);
    visit("helper.checker", p.helper.checker);
    visit("helper.checkBase", p.helper.checkBase);
    visit("helper.checkLen", p.helper.checkLen);
    visit("helper.watchBase", p.helper.watchBase);
    visit("helper.watchLen", p.helper.watchLen);
    visit("helper.syncBase", p.helper.syncBase);
    visit("helper.syncLen", p.helper.syncLen);
    visit("helper.traceCap", p.helper.traceCap);

    visit("obs.pipeview", p.obs.pipeview);
    visit("obs.events", p.obs.events);
    visit("obs.attrib", p.obs.attrib);
    visit("obs.ringCapacity", p.obs.ringCapacity);

    visit("ffwd.insts", p.ffwd.insts);
    visit("ffwd.warm", p.ffwd.warm);
    visit("ffwd.save", p.ffwd.save);
    visit("ffwd.restore", p.ffwd.restore);
    visit("sample.period", p.sample.periodInsts);
    visit("sample.detail", p.sample.detailInsts);
    visit("sample.warmup", p.sample.warmupInsts);

    visit("maxInsts", p.maxInsts);
    visit("warmupInsts", p.warmupInsts);
    visit("seed", p.seed);
    visit("watchdogCycles", p.watchdogCycles);
}

/** Parse @p value into one field of the list above, fatal naming
 *  @p key if it does not fit the field's type. */
template <class T>
void
parseField(const std::string &key, const std::string &value, T *field)
{
    if constexpr (std::is_same_v<T, ExceptMech>) {
        *field = parseMech(value);
    } else if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
        *field = T(parseUnsigned(key, value, 0,
                                 std::numeric_limits<T>::max()));
    } else if (!fieldcodec::parseValue(value, field)) {
        fatal("bad %s value for %s: '%s'",
              std::is_same_v<T, bool> ? "boolean" : "numeric", key.c_str(),
              value.c_str());
    }
}

} // anonymous namespace

uint64_t
parseUnsigned(const std::string &name, const std::string &text,
              uint64_t min, uint64_t max)
{
    uint64_t v = 0;
    fatal_if(!fieldcodec::parseUint(text, &v, max) || v < min,
             "bad numeric value for %s: '%s' (expected an integer in "
             "[%llu, %llu])",
             name.c_str(), text.c_str(), (unsigned long long)min,
             (unsigned long long)max);
    return v;
}

void
SimParams::set(const std::string &key, const std::string &value)
{
    // The two derived setters: core.width applies the Figure 3 pairing
    // (window and FU pool scale with it) and core.frontendDepth splits
    // the Figure 2 stage count. Both are plain overwrites of listed
    // fields, and core.width is listed before those fields, so a
    // replayed forEachParam sequence still ends on the recorded values.
    if (key == "core.width") {
        core.setWidth(unsigned(parseUnsigned(key, value, 0, UINT_MAX)));
        return;
    }
    if (key == "core.frontendDepth") {
        core.setFrontendDepth(
            unsigned(parseUnsigned(key, value, 0, UINT_MAX)));
        return;
    }
    bool found = false;
    visitParams(*this, [&](const char *name, auto &field) {
        if (!found && key == name) {
            found = true;
            parseField(key, value, &field);
        }
    });
    fatal_if(!found, "unknown parameter '%s'", key.c_str());
}

void
SimParams::setKeyValue(const std::string &assignment)
{
    auto eq = assignment.find('=');
    fatal_if(eq == std::string::npos, "expected key=value, got '%s'",
             assignment.c_str());
    set(assignment.substr(0, eq), assignment.substr(eq + 1));
}

void
SimParams::forEachParam(
    const std::function<void(const std::string &,
                             const std::string &)> &fn) const
{
    visitParams(*this, [&](const char *name, const auto &field) {
        fn(name, formatValue(field));
    });
}

std::string
SimParams::canonicalKey() const
{
    std::ostringstream os;
    forEachParam([&](const std::string &name, const std::string &value) {
        os << name << "=" << value << ";";
    });
    return os.str();
}

std::string
SimParams::summary() const
{
    std::ostringstream os;
    os << mechName(except.mech)
       << " width=" << core.width
       << " window=" << core.windowSize
       << " frontend=" << core.frontendDepth()
       << " dtlb=" << tlb.dtlbEntries;
    if (except.usesHandlerThread())
        os << " idle=" << except.idleThreads;
    if (verify.enabled())
        os << " verify[seed=" << (verify.seed ? verify.seed : seed)
           << (verify.anyInjection() ? " inject" : "")
           << (verify.invariantPeriod ? " audit" : "") << "]";
    return os.str();
}

} // namespace zmt
