/**
 * @file
 * Schedule/execute stage: oldest-fetched-first selection over the
 * operand-ready instructions of the shared window, functional-unit and
 * issue-width constraints (Table 1), TLB lookup at address generation
 * with mechanism-specific miss handling, and the hardware page walker
 * competing for load/store ports.
 *
 * Selection scans readyList, not the window: an instruction joins it
 * when it has no pending source, at dispatch or when its last source
 * completes, so dependence-stalled instructions cost nothing per cycle.
 * Both inserts keep the list sorted by seq, which is what makes the
 * scan oldest-fetched-first.
 */

#include <algorithm>

#include "core/core.hh"
#include "common/logging.hh"
#include "core/helper.hh"

namespace zmt
{

void
SmtCore::insertIntoReadyList(const InstPtr &inst)
{
    // Sorted by seq. Dispatch interleaves threads and a wake-up can be
    // older than anything dispatched since, so an insert is not always
    // an append, though it usually is.
    if (readyList.empty() || readyList.back()->seq < inst->seq) {
        readyList.push_back(inst);
        return;
    }
    auto pos = std::upper_bound(
        readyList.begin(), readyList.end(), inst->seq,
        [](SeqNum seq, const InstPtr &other) { return seq < other->seq; });
    readyList.insert(pos, inst);
}

SmtCore::FuPool
SmtCore::fuPoolOf(isa::OpClass cls)
{
    using isa::OpClass;
    switch (cls) {
      case OpClass::IntAlu:
      case OpClass::Branch:
      case OpClass::Priv:
      case OpClass::Nop:
      case OpClass::Halt:
        return AluPool;
      case OpClass::IntMult:
      case OpClass::IntDiv:
        return MulPool;
      case OpClass::FpAdd:
      case OpClass::FpMult:
        return FpAddPool;
      case OpClass::FpDiv:
      case OpClass::FpSqrt:
        return FpDivPool;
      case OpClass::Load:
      case OpClass::Store:
        return LsPool;
    }
    panic("bad op class");
    return AluPool;
}

bool
SmtCore::oldestUnfinished(const DynInst &inst) const
{
    // Serializing instructions (RFE, HARDEXC) issue only when every
    // older instruction of their thread has completed; this guarantees
    // the TLB write precedes the exception return, and that the return
    // is effectively non-speculative within its thread.
    const ThreadCtx &ctx = *contexts[inst.tid];
    for (const InstPtr &other : ctx.inflight) {
        if (other->seq >= inst.seq)
            return true;
        if (other->status != InstStatus::Done)
            return false;
    }
    return true;
}

void
SmtCore::issueInst(const InstPtr &inst)
{
    const bool mem_op = inst->isMem();

    // Generalized mechanism (Section 6): FSQRT is unimplemented in
    // hardware — raise an instruction-emulation exception when its
    // operands become ready.
    if (params.except.emulateFsqrt && !inst->palMode &&
        inst->di.op == isa::Opcode::Fsqrt) {
        inst->status = InstStatus::TlbWait; // parked (shared machinery)
        onEmulFault(inst);
        return;
    }

    if (mem_op && !inst->palMode &&
        params.except.mech != ExceptMech::PerfectTlb) {
        ThreadCtx &ctx = ctxOf(*inst);
        Asn asn = asnOf(ctx);
        bool hit = tlb->lookup(asn, inst->effVa);
        if (hit && injector && params.except.usesHandlerThread()) {
            // Injected burst miss: an older instruction touching a
            // page whose handling is already in flight re-misses,
            // driving the secondary-miss relink path (Section 4.5).
            ExcRecord *record = recordForPage(asn, pageNum(inst->effVa));
            if (record && record->faultInst &&
                inst->seq < record->faultInst->seq &&
                injector->forceSecondaryMiss()) {
                hit = false;
            }
        }
        if (!hit) {
            // DTLB miss detected at address generation. Park the
            // instruction (it re-executes after the fill) and dispatch
            // to the configured exception architecture. The port was
            // consumed by the probe.
            inst->status = InstStatus::TlbWait;
            onTlbMiss(inst);
            return;
        }
    }

    Cycle done;
    if (mem_op) {
        Addr pa = inst->memMapped
                      ? inst->effPa
                      : fakePa(asnOf(ctxOf(*inst)), inst->effVa);
        if (inst->isLoad()) {
            if (helpers->prefetchOn() && inst->memMapped &&
                !inst->palMode) [[unlikely]]
                helpers->onDemandLoad(pa);
            // Load port latency (3) plus any miss delay.
            Cycle ready = hier->dataAccess(pa, false, curCycle);
            done = ready + 3;
        } else {
            // Stores complete at the port (write buffering); the cache
            // side effects (allocation, MSHR, bus) are still modeled.
            hier->dataAccess(pa, true, curCycle);
            done = curCycle + 2;
        }
    } else {
        done = curCycle + isa::opLatency(inst->di.info->opClass);
    }

    inst->status = InstStatus::Issued;
    inst->doneAt = done;
    obsEmit(obs::EventKind::Issued, *inst);
    completionQueue.push(done, inst);
}

void
SmtCore::doIssue()
{
    fuUsed.fill(0);
    unsigned budget = params.core.width;
    unsigned issued = 0;

    // Scan only the operand-ready instructions. readyList holds the
    // InWindow instructions with no pending source plus the parked
    // (TlbWait) ones, sorted by seq (oldest-fetched first, the paper's
    // selection policy); entries that issued or squashed since the last
    // scan are compacted out in the same pass. Nothing dispatches or
    // completes during issue, so the list does not grow under the scan.
    // An instruction waiting only to age through the scheduler reports
    // the cycle it may issue for idle-skip.
    const size_t n0 = readyList.size();
    size_t keep = 0;
    bool exhausted = false;
    for (size_t i = 0; i < n0; ++i) {
        // Moved out: it moves back into its compacted slot below. While
        // an instruction issues, only a squash's wake reads the list,
        // and it skips the null slots.
        InstPtr inst = std::move(readyList[i]);

        if (inst->status != InstStatus::InWindow) {
            // Parked instructions (TlbWait) stay scheduled — the wake
            // flips their status in place. Anything else (issued,
            // squashed, retired) leaves the list.
            if (inst->status == InstStatus::TlbWait)
                readyList[keep++] = std::move(inst);
            continue;
        }
        Cycle ready_at = inst->windowAt + params.core.schedDepth +
                         params.core.regReadDepth;
        if (curCycle < ready_at)
            noteWake(ready_at);
        if (exhausted || curCycle < ready_at ||
            (inst->isSerializing() && !oldestUnfinished(*inst))) {
            readyList[keep++] = std::move(inst);
            continue;
        }

        bool free_exec = params.except.freeHandlerExecBw &&
                         contexts[inst->tid]->isHandler();
        FuPool pool = fuPoolOf(inst->di.info->opClass);
        if (!free_exec) {
            if (budget == 0) {
                // The old scan stopped here; keep compacting without
                // issuing so the list stays tidy.
                exhausted = true;
                readyList[keep++] = std::move(inst);
                continue;
            }
            if (fuUsed[pool] >= fuCount[pool]) {
                readyList[keep++] = std::move(inst);
                continue;
            }
        }

        issueInst(inst);
        ++issued;

        if (!free_exec) {
            ++fuUsed[pool];
            --budget;
        }
        // TLB miss / emulation fault parks the instruction: it stays
        // in the list awaiting its wake. A clean issue drops it.
        if (inst->status == InstStatus::TlbWait)
            readyList[keep++] = std::move(inst);
    }
    panic_if(readyList.size() != n0, "readyList grew during issue");
    readyList.resize(keep);

    issuedPerCycle.sample(double(issued));
    if (issued > 0)
        stageActed = true;

    // The hardware walker's PTE loads are scheduled like other loads,
    // competing for the remaining load/store ports (Section 5.1).
    unsigned &ls_used = fuUsed[LsPool];
    auto ports_free = [&] {
        return fuCount[LsPool] > ls_used ? fuCount[LsPool] - ls_used : 0;
    };
    if (params.except.mech == ExceptMech::Hardware)
        ls_used += walker->issue(curCycle, ports_free(), *hier);

    // The prefetch helper's probes use whatever load/store ports are
    // left over this cycle — strictly lower priority than both demand
    // accesses and the walker.
    if (helpers->prefetchOn()) [[unlikely]]
        ls_used += helpers->onIssueSlack(ports_free());
}

} // namespace zmt
