/**
 * @file
 * Fetch stage: the shared fetch unit with the paper's abstract front
 * end (multiple non-contiguous blocks per cycle, unlimited taken
 * branches), the handler-priority/ICOUNT fetch chooser (Section 4.4),
 * per-thread fetch buffers, and the quick-start prefill (Section 5.4).
 * A thread's fetch buffer is the undispatched tail of its in-flight
 * list: fetch appends there and dispatch takes from its head.
 */

#include <algorithm>

#include "core/core.hh"
#include "common/logging.hh"
#include "core/helper.hh"

namespace zmt
{

namespace
{

/** Little-endian 32-bit load: the simulated machine's byte order. */
uint32_t
loadWord(const uint8_t *bytes)
{
    return uint32_t(bytes[0]) | uint32_t(bytes[1]) << 8 |
           uint32_t(bytes[2]) << 16 | uint32_t(bytes[3]) << 24;
}

} // anonymous namespace

SmtCore::FetchWord
SmtCore::fetchWordAt(const ThreadCtx &ctx, Addr pc, FetchPage &page) const
{
    // PAL code lives at physical addresses; a user PC is translated
    // once per page for both the icache and the word. An unmapped
    // (wild wrong-path) PC still touches the icache and reads as word 0.
    if (pc - page.vaBase >= page.span) {
        Addr va_base = pc & ~PageMask;
        if (ctx.fetchPal) {
            page = {va_base, PageBytes, va_base, physMem.pageBytes(pc)};
        } else {
            panic_if(!ctx.proc, "user fetch on an unbound context");
            const AddressSpace &space = ctx.proc->space();
            auto pa = space.translate(pc);
            if (!pa)
                return {fakePa(ctx.proc->asn(), pc), 0};
            // translate() refuses every VA from vaLimit on, which need
            // not be page-aligned.
            page = {va_base, std::min(PageBytes, space.vaLimit() - va_base),
                    *pa & ~PageMask, physMem.pageBytes(*pa)};
        }
    }
    Addr offset = pc - page.vaBase;
    Addr pa = page.paBase + offset;
    if (offset > PageBytes - 4)
        return {pa, physMem.read32(pa)}; // the word straddles the page end
    return {pa, page.bytes ? loadWord(page.bytes + offset) : 0};
}

const std::vector<SmtCore::ThreadCtx *> &
SmtCore::fetchOrder()
{
    // Called twice per cycle (dispatch and fetch); reuse member
    // scratch vectors so the hot loop never allocates. A stable
    // insertion sort over at most a handful of contexts replaces
    // stable_sort's merge buffer.
    auto icount_sort = [](std::vector<ThreadCtx *> &ctxs) {
        for (size_t i = 1; i < ctxs.size(); ++i) {
            ThreadCtx *ctx = ctxs[i];
            size_t j = i;
            for (; j > 0 && ctxs[j - 1]->icount > ctx->icount; --j)
                ctxs[j] = ctxs[j - 1];
            ctxs[j] = ctx;
        }
    };

    orderHandlers.clear();
    orderScratch.clear();
    for (auto &ctx : contexts) {
        if (ctx->isHandler())
            orderHandlers.push_back(ctx.get());
        else if (ctx->isApp())
            orderScratch.push_back(ctx.get());
    }
    // ICOUNT: fewest in-flight instructions first (ties by id).
    icount_sort(orderScratch);
    if (params.except.handlerFetchPriority) {
        orderHandlers.insert(orderHandlers.end(), orderScratch.begin(),
                             orderScratch.end());
        return orderHandlers;
    }
    // Without explicit priority, handlers still come first in practice
    // because a fresh handler thread has the lowest ICOUNT — merge by
    // icount alone.
    orderScratch.insert(orderScratch.end(), orderHandlers.begin(),
                        orderHandlers.end());
    icount_sort(orderScratch);
    return orderScratch;
}

bool
SmtCore::canFetch(const ThreadCtx &ctx) const
{
    if (!ctx.fetchEnabled || ctx.fetchHalted || ctx.stalledRfe ||
        ctx.deadEnd)
        return false;
    // The buffer holds both the in-flight fetch pipe (width x depth)
    // and the architectural fetch buffer that backs up when the
    // window is full; only the latter is the sized resource.
    unsigned capacity = params.core.fetchBufEntries +
                        params.core.width * params.core.fetchDepth;
    if (ctx.undispatched >= capacity)
        return false;
    if (helpers->fetchCapped(ctx))
        return false; // predicted handler length reached (Section 4.4)
    return true;
}

bool
SmtCore::fetchInst(ThreadCtx &ctx, Addr pc, isa::InstWord word,
                   Cycle fetch_done, uint8_t obs_flags)
{
    InstPtr inst = dynInstPool.acquire();
    inst->seq = nextSeq++;
    inst->tid = ctx.id;
    inst->pc = pc;
    inst->di = decodeCache.lookup(word);
    if (!inst->di.valid() || (inst->di.info->isPriv && !ctx.fetchPal)) {
        // Wild wrong-path fetch of a non-instruction (or of data that
        // decodes to a privileged op in user mode): treat as a NOP; it
        // is squashed before retirement, as a real machine would trap.
        inst->di = isa::makeNullary(isa::Opcode::Nop);
    }
    inst->palMode = ctx.fetchPal;
    if (inst->palMode && inst->isRfe())
        inst->rfeForEmul = ctx.pendingExcKind == ExcKind::EmulFsqrt;
    inst->fetchDoneAt = fetch_done;
    inst->status = InstStatus::InFetchBuf;

    if (inst->isBranch()) {
        BpredResult pred = bpred->predict(ctx.id, pc, inst->di);
        inst->predTaken = pred.taken;
        inst->predTarget = pred.target;
        inst->bpChk = pred.checkpoint;
    } else {
        // Non-branches still snapshot predictor state so a trap squash
        // can restore it precisely.
        inst->bpChk = bpred->snapshot(ctx.id);
    }

    if (obsLog) [[unlikely]] {
        obsEmit(obs::EventKind::Fetched, *inst, 0, obs_flags);
        if (obsLog->wantLabels())
            obsLog->setLabel(inst->seq, isa::disassemble(inst->di));
    }
    ctx.inflight.push_back(inst);
    ++ctx.undispatched;
    ++ctx.icount;
    ++fetchedInsts;
    if (ctx.isHandler())
        ++ctx.handlerFetched;
    stageActed = true;

    if (inst->isHalt()) {
        ctx.fetchHalted = true;
        return false;
    }
    if (inst->isRfe()) {
        // Exception returns are unpredicted: stall until execute.
        ctx.stalledRfe = true;
        return false;
    }
    ctx.fetchPc = inst->isBranch() && inst->predTaken ? inst->predTarget
                                                      : pc + 4;
    return true;
}

unsigned
SmtCore::fetchFromThread(ThreadCtx &ctx, unsigned budget)
{
    // Nothing executes within one fetch group, so memory, the page
    // tables and the icache stay as they are until it ends (an icache
    // miss ends it): translate each page once, and after a plain hit
    // let the following words of the same line re-touch it as the
    // hits they are.
    FetchPage page;
    bool line_hit = false;
    unsigned fetched = 0;
    while (budget > 0 && canFetch(ctx)) {
        Addr pc = ctx.fetchPc;
        FetchWord fw = fetchWordAt(ctx, pc, page);

        // Instruction-cache timing: a miss delays this and subsequent
        // instructions of the group; fetch of this thread stops for
        // the cycle.
        Cycle icache_ready = line_hit && hier->icache().rehit(fw.pa)
                                 ? curCycle
                                 : hier->instAccess(fw.pa, curCycle);
        line_hit = icache_ready <= curCycle;
        Cycle fetch_done =
            std::max(icache_ready, curCycle) + params.core.fetchDepth;

        ++fetched;
        --budget;
        if (!fetchInst(ctx, pc, fw.word, fetch_done, 0) ||
            icache_ready > curCycle)
            break;
    }
    return fetched;
}

void
SmtCore::doFetch()
{
    unsigned budget = params.core.width;
    for (ThreadCtx *ctx : fetchOrder()) {
        bool free_fetch =
            ctx->isHandler() && params.except.freeHandlerFetchBw;
        if (free_fetch) {
            // Limit study: handler fetch consumes no shared bandwidth.
            unsigned huge = params.core.width;
            fetchFromThread(*ctx, huge);
            continue;
        }
        if (budget == 0)
            break;
        budget -= fetchFromThread(*ctx, budget);
    }
}

void
SmtCore::prefillQuickStart(ThreadCtx &ctx, Cycle fetch_done)
{
    // The handler was prefetched into this idle thread's fetch buffer
    // before the exception occurred (paper Section 5.4): instructions
    // appear past the fetch pipe immediately, paying only decode and
    // later stages. Follows the predicted path through the handler.
    FetchPage page;
    for (unsigned count = 0; count < ctx.handlerLen; ++count) {
        Addr pc = ctx.fetchPc;
        if (!fetchInst(ctx, pc, fetchWordAt(ctx, pc, page).word, fetch_done,
                       obs::EvPrefill))
            break;
    }
}

} // namespace zmt
