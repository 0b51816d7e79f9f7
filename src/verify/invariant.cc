#include "verify/invariant.hh"

#include <algorithm>
#include <sstream>

#include "core/core.hh"

namespace zmt
{

InvariantChecker::InvariantChecker(const SmtCore &core) : core(core)
{
    lastRetiredSeq.assign(core.contexts.size(), 0);
    prevState.assign(core.contexts.size(), 0);
}

void
InvariantChecker::fail(std::string msg)
{
    ++total;
    if (viols.size() < 16)
        viols.push_back(std::move(msg));
}

std::string
InvariantChecker::firstViolation() const
{
    return viols.empty() ? std::string() : viols.front();
}

void
InvariantChecker::audit()
{
    auditWindow();
    auditReadyList();
    auditContexts();
    auditRecords();
    auditParked();
}

void
InvariantChecker::auditWindow()
{
    // The window is each context's in-flight list up to its first
    // undispatched entry: dispatch is in order, so the list is a
    // dispatched prefix followed by the fetch buffer, whose length the
    // context counts.
    for (size_t i = 0; i < core.contexts.size(); ++i) {
        const auto &ctx = *core.contexts[i];
        std::ostringstream os;
        os << "ctx " << i << " (cycle " << core.curCycle << "): ";
        SeqNum prev = 0;
        size_t dispatched = 0;
        for (const InstPtr &inst : ctx.inflight) {
            if (inst->seq <= prev) {
                os << "in-flight list not in program order at seq "
                   << inst->seq;
                fail(os.str());
                return;
            }
            prev = inst->seq;
            if (inst->status == InstStatus::Retired || inst->squashed()) {
                os << "in-flight list holds seq " << inst->seq
                   << " in status " << int(inst->status);
                fail(os.str());
                return;
            }
            if (inst->inWindowLike() &&
                &inst != &ctx.inflight[dispatched++]) {
                os << "dispatched seq " << inst->seq
                   << " follows an undispatched instruction";
                fail(os.str());
                return;
            }
        }
        size_t fetched = ctx.inflight.size() - dispatched;
        if (fetched != ctx.undispatched) {
            os << "undispatched in-flight suffix (" << fetched
               << ") is not the fetch buffer (" << ctx.undispatched
               << ")";
            fail(os.str());
            return;
        }
    }

    unsigned occupied = core.countWindowSlots();
    if (occupied != core.windowCount) {
        std::ostringstream os;
        os << "window accounting: counted " << occupied << " tracked "
           << core.windowCount << " (cycle " << core.curCycle << ")";
        fail(os.str());
    }
    if (core.windowCount > core.params.core.windowSize) {
        std::ostringstream os;
        os << "window occupancy " << core.windowCount << " exceeds size "
           << core.params.core.windowSize << " (cycle " << core.curCycle
           << ")";
        fail(os.str());
    }
}

void
InvariantChecker::auditReadyList()
{
    // Sound: seq-sorted, no duplicates, and each entry either issuable
    // (InWindow with no pending source, or parked in TlbWait) or an
    // issued/squashed one the next issue scan compacts out.
    const auto &list = core.readyList;
    for (size_t i = 0; i < list.size(); ++i) {
        const DynInst &inst = *list[i];
        std::ostringstream os;
        os << "issue list seq " << inst.seq << " (cycle " << core.curCycle
           << "): ";
        if (i > 0 && list[i - 1]->seq >= inst.seq) {
            os << "not strictly seq-sorted after seq " << list[i - 1]->seq;
            fail(os.str());
            return;
        }
        bool issuable = (inst.status == InstStatus::InWindow ||
                         inst.status == InstStatus::TlbWait) &&
                        inst.depsPending == 0;
        bool stale = inst.status == InstStatus::Issued ||
                     inst.completed() || inst.squashed();
        if (!issuable && !stale) {
            os << "status " << int(inst.status) << " with "
               << inst.depsPending << " pending sources";
            fail(os.str());
        }
    }

    // Complete: every operand-ready window instruction is listed.
    for (const auto &ctx : core.contexts) {
        for (const InstPtr &inst : ctx->inflight) {
            if (inst->depsPending > 0 ||
                (inst->status != InstStatus::InWindow &&
                 inst->status != InstStatus::TlbWait))
                continue;
            auto it = std::lower_bound(
                list.begin(), list.end(), inst->seq,
                [](const InstPtr &other, SeqNum seq) {
                    return other->seq < seq;
                });
            if (it == list.end() || it->get() != inst.get()) {
                std::ostringstream os;
                os << "seq " << inst->seq << " t" << inst->tid
                   << " (cycle " << core.curCycle << ") is operand-ready"
                   << " in status " << int(inst->status)
                   << " but missing from the issue list";
                fail(os.str());
            }
        }
    }
}

void
InvariantChecker::auditContexts()
{
    using CtxState = SmtCore::CtxState;
    for (size_t i = 0; i < core.contexts.size(); ++i) {
        const auto &ctx = *core.contexts[i];
        std::ostringstream os;
        os << "ctx " << i << " (cycle " << core.curCycle << "): ";

        if (ctx.icount != ctx.inflight.size()) {
            os << "icount " << ctx.icount << " != in-flight "
               << ctx.inflight.size();
            fail(os.str());
            continue;
        }

        CtxState s = ctx.cstate;
        if (statesSeeded) {
            auto p = CtxState(prevState[i]);
            bool legal = p == s ||
                         (p == CtxState::Idle && s == CtxState::Handler) ||
                         (p == CtxState::Handler && s == CtxState::Idle);
            if (!legal) {
                os << "illegal context state transition " << int(p)
                   << " -> " << int(s);
                fail(os.str());
            }
        }
        prevState[i] = uint8_t(s);

        if (s == CtxState::Idle &&
            (!ctx.inflight.empty() || ctx.undispatched != 0 ||
             ctx.fetchEnabled)) {
            os << "idle context with live state (inflight="
               << ctx.inflight.size() << " fbuf=" << ctx.undispatched
               << " en=" << ctx.fetchEnabled << ")";
            fail(os.str());
        }
        if (s == CtxState::Handler) {
            bool has_record = false;
            for (const auto &r : core.records)
                has_record = has_record || r.handler == ThreadID(i);
            if (!ctx.proc || ctx.master == InvalidThreadID ||
                unsigned(ctx.master) >= core.numApps || !has_record) {
                os << "handler context without a valid master/record";
                fail(os.str());
            }
        }
    }
    statesSeeded = true;
}

void
InvariantChecker::auditRecords()
{
    for (const auto &record : core.records) {
        std::ostringstream os;
        os << "record h" << record.handler << " m" << record.master
           << " (cycle " << core.curCycle << "): ";
        if (unsigned(record.master) >= core.numApps) {
            os << "master is not an application context";
            fail(os.str());
            continue;
        }
        const auto &h = *core.contexts[record.handler];
        if (!h.isHandler() || h.master != record.master) {
            os << "handler context state does not match the record";
            fail(os.str());
            continue;
        }
        if (!record.faultInst) {
            os << "no excepting instruction";
            fail(os.str());
            continue;
        }
        if (record.faultInst->status == InstStatus::Retired ||
            record.faultInst->squashed()) {
            os << "excepting instruction seq " << record.faultInst->seq
               << " is dead (status " << int(record.faultInst->status)
               << ") but the record survives";
            fail(os.str());
            continue;
        }
        if (record.reservedRemaining > core.handlerLen(record.kind)) {
            os << "reservation " << record.reservedRemaining
               << " exceeds handler length "
               << core.handlerLen(record.kind);
            fail(os.str());
        }
        if (record.spliceOpen) {
            const auto &m = *core.contexts[record.master];
            if (m.inflight.empty() ||
                m.inflight.front().get() != record.faultInst.get()) {
                os << "splice open but the master's head is not the "
                      "excepting instruction";
                fail(os.str());
            }
        }
    }
}

void
InvariantChecker::auditParked()
{
    // Parked instructions are the TlbWait entries of the issue list
    // (auditReadyList checks that it holds every one of them).
    ExceptMech mech = core.params.except.mech;
    for (const InstPtr &inst : core.readyList) {
        if (inst->status != InstStatus::TlbWait)
            continue;
        std::ostringstream os;
        os << "parked seq " << inst->seq << " t" << inst->tid
           << " (cycle " << core.curCycle << "): ";
        const auto &ctx = *core.contexts[inst->tid];
        if (!ctx.proc) {
            os << "owning context has no process";
            fail(os.str());
            continue;
        }
        if (mech == ExceptMech::PerfectTlb ||
            mech == ExceptMech::Traditional) {
            os << "parked instruction under a mechanism that never parks";
            fail(os.str());
            continue;
        }

        Asn asn = ctx.proc->asn();
        bool covered = false;
        if (inst->emulFault) {
            for (const auto &r : core.records)
                covered = covered ||
                          (r.kind == SmtCore::ExcKind::EmulFsqrt &&
                           r.faultInst.get() == inst.get());
        } else if (mech == ExceptMech::Hardware) {
            // Wild (unmapped) wrong-path walks can finish on an invalid
            // PTE with no fill; the waiter legitimately outlives the
            // walk until its squash arrives.
            covered = !inst->memMapped ||
                      core.walker->walking(asn, inst->effVa);
        } else {
            for (const auto &r : core.records)
                covered = covered ||
                          (r.kind == SmtCore::ExcKind::TlbMiss &&
                           r.asn == asn &&
                           r.vpn == pageNum(inst->effVa));
        }
        if (!covered) {
            os << "no live handler/walk covers it (va=0x" << std::hex
               << inst->effVa << std::dec << ")";
            fail(os.str());
        }
    }
}

void
InvariantChecker::noteRetire(ThreadID tid, const DynInst &inst)
{
    if (lastRetiredSeq[tid] != 0 && inst.seq <= lastRetiredSeq[tid]) {
        std::ostringstream os;
        os << "retirement out of program order on ctx " << tid << ": seq "
           << inst.seq << " after " << lastRetiredSeq[tid] << " (cycle "
           << core.curCycle << ")";
        fail(os.str());
    }
    lastRetiredSeq[tid] = inst.seq;

    const auto &ctx = *core.contexts[tid];
    if (!ctx.isHandler())
        return;

    const SmtCore::ExcRecord *record = nullptr;
    for (const auto &r : core.records)
        if (r.handler == tid) {
            record = &r;
            break;
        }
    std::ostringstream os;
    if (!record) {
        os << "handler ctx " << tid << " retired seq " << inst.seq
           << " without an exception record (cycle " << core.curCycle
           << ")";
        fail(os.str());
        return;
    }
    if (!record->spliceOpen) {
        os << "splice ordering violated: handler ctx " << tid
           << " retired seq " << inst.seq
           << " before the master reached excepting seq "
           << (record->faultInst ? record->faultInst->seq : 0)
           << " (cycle " << core.curCycle << ")";
        fail(os.str());
        return;
    }
    const auto &m = *core.contexts[record->master];
    if (m.inflight.empty() ||
        m.inflight.front().get() != record->faultInst.get()) {
        os << "splice ordering violated: handler ctx " << tid
           << " retiring while the master's head is not the excepting "
              "instruction (cycle "
           << core.curCycle << ")";
        fail(os.str());
    }
}

} // namespace zmt
