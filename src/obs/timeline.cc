#include "obs/timeline.hh"

#include "common/logging.hh"

namespace zmt::obs
{

uint64_t
Handling::catSum() const
{
    uint64_t total = 0;
    for (uint64_t c : cat)
        total += c;
    return total;
}

ExcTimeline::ExcTimeline(stats::StatGroup *parent)
    : stats::StatGroup("obs", parent),
      drainCycles(this, "drainCycles",
                  "attributed cycles: detect -> squash/redirect"),
      handlerFetchCycles(this, "handlerFetchCycles",
                         "attributed cycles: redirect/spawn -> first "
                         "handler dispatch"),
      handlerExecCycles(this, "handlerExecCycles",
                        "attributed cycles: handler dispatch -> fill"),
      spliceWaitCycles(this, "spliceWaitCycles",
                       "attributed cycles: fill -> splice close"),
      refetchCycles(this, "refetchCycles",
                    "attributed cycles: handler return -> refetch "
                    "dispatch"),
      walkerCycles(this, "walkerCycles",
                   "attributed cycles: hardware page-walk latency"),
      completedHandlings(this, "completedHandlings",
                         "exception handlings attributed end-to-end"),
      abortedHandlings(this, "abortedHandlings",
                       "exception handlings cut short (not attributed)"),
      handlingSpan(this, "handlingSpan",
                   "cycles per completed handling (detect -> done)", 0,
                   256, 16)
{
}

void
ExcTimeline::onEvent(const Event &ev)
{
    using K = EventKind;
    switch (ev.kind) {
      case K::MissDetect:
        lastDetect[ev.tid] = Detect{ev.cycle, ev.seq, ev.arg, false};
        break;
      case K::EmulDetect:
        lastDetect[ev.tid] = Detect{ev.cycle, ev.seq, 0, true};
        break;

      case K::Trap: {
        auto it = inlineOpen.find(ev.tid);
        if (it != inlineOpen.end()) {
            // A newer trap on the same thread squashed the in-flight
            // inline handling (an older instruction missed while the
            // handler ran, or a wrong-path trap got cleaned up).
            closeAborted(it->second, ev.cycle);
            inlineOpen.erase(it);
        }
        Open open;
        open.h.shape = Handling::Shape::Inline;
        open.h.master = ev.tid;
        open.h.faultSeq = ev.seq;
        open.h.pc = ev.pc;
        open.h.va = ev.arg;
        open.h.vpn = pageNum(ev.arg);
        open.h.emul = (ev.flags & EvEmul) != 0;
        open.h.start = ev.cycle;
        auto d = lastDetect.find(ev.tid);
        // Pair with the detection only when it is this instruction's:
        // a HARDEXC reversion re-traps long after the original detect,
        // and those cycles are the aborted thread handling's, not
        // drain.
        open.h.detect = (d != lastDetect.end() && d->second.seq == ev.seq)
                            ? d->second.cycle
                            : ev.cycle;
        lastDetect.erase(ev.tid);
        inlineOpen.emplace(ev.tid, std::move(open));
        break;
      }

      case K::Spawn: {
        ThreadID handler = ThreadID(ev.arg);
        auto it = threadOpen.find(handler);
        if (it != threadOpen.end()) {
            closeAborted(it->second, ev.cycle);
            threadOpen.erase(it);
        }
        Open open;
        open.h.shape = Handling::Shape::Thread;
        open.h.master = ev.tid;
        open.h.handler = handler;
        open.h.faultSeq = ev.seq;
        open.h.pc = ev.pc;
        open.h.emul = (ev.flags & EvEmul) != 0;
        open.h.start = ev.cycle;
        auto d = lastDetect.find(ev.tid);
        if (d != lastDetect.end() && d->second.seq == ev.seq) {
            open.h.detect = d->second.cycle;
            open.h.va = d->second.va;
            open.h.vpn = pageNum(d->second.va);
        } else {
            open.h.detect = ev.cycle;
        }
        lastDetect.erase(ev.tid);
        threadOpen.emplace(handler, std::move(open));
        break;
      }

      case K::QsWarm:
        if (auto it = threadOpen.find(ev.tid); it != threadOpen.end())
            it->second.h.warm = true;
        break;

      case K::Dispatched: {
        if (auto th = threadOpen.find(ev.tid); th != threadOpen.end()) {
            if (th->second.phase == Phase::AwaitDispatch) {
                th->second.h.firstDispatch = ev.cycle;
                th->second.phase = Phase::AwaitFill;
            }
            break; // handler contexts never run inline traps
        }
        auto it = inlineOpen.find(ev.tid);
        if (it == inlineOpen.end())
            break;
        Open &open = it->second;
        if (open.phase == Phase::AwaitDispatch &&
            (ev.flags & EvPalMode)) {
            open.h.firstDispatch = ev.cycle;
            open.phase = Phase::AwaitFill; // awaiting HandlerRet
        } else if (open.phase == Phase::AwaitRefetch &&
                   !(ev.flags & EvPalMode)) {
            // The refetched application stream reached dispatch: the
            // handling is over.
            closeCompleted(open, ev.cycle);
            inlineOpen.erase(it);
        }
        break;
      }

      case K::Fill: {
        auto it = threadOpen.find(ev.tid);
        if (it != threadOpen.end() &&
            it->second.phase == Phase::AwaitFill) {
            it->second.h.fill = ev.cycle;
            it->second.phase = Phase::AwaitRefetch; // awaiting splice
        }
        // Inline-handler fills land inside HandlerExec: nothing to do.
        break;
      }

      case K::HandlerRet: {
        auto it = inlineOpen.find(ev.tid);
        if (it != inlineOpen.end() &&
            it->second.phase == Phase::AwaitFill) {
            it->second.h.fill = ev.cycle;
            it->second.phase = Phase::AwaitRefetch;
        }
        break;
      }

      case K::SpliceClose: {
        auto it = threadOpen.find(ev.tid);
        if (it == threadOpen.end())
            break;
        closeCompleted(it->second, ev.cycle);
        threadOpen.erase(it);
        break;
      }

      case K::Relink:
        if (auto it = threadOpen.find(ev.tid); it != threadOpen.end()) {
            ++it->second.h.relinks;
            it->second.h.faultSeq = ev.seq; // splice point moved older
        }
        break;

      case K::Cancel:
      case K::Revert: {
        auto it = threadOpen.find(ev.tid);
        if (it != threadOpen.end()) {
            closeAborted(it->second, ev.cycle);
            threadOpen.erase(it);
        }
        break;
      }

      case K::WalkStart: {
        auto it = walkOpen.find(ev.arg);
        if (it != walkOpen.end()) {
            closeAborted(it->second, ev.cycle);
            walkOpen.erase(it);
        }
        Open open;
        open.h.shape = Handling::Shape::Walk;
        open.h.master = ev.tid;
        open.h.faultSeq = ev.seq;
        open.h.pc = ev.pc;
        open.h.vpn = ev.arg & ((uint64_t{1} << 44) - 1);
        if (auto d = lastDetect.find(ev.tid);
            d != lastDetect.end() && d->second.seq == ev.seq)
            open.h.va = d->second.va;
        open.h.detect = open.h.start = ev.cycle;
        walkOpen.emplace(ev.arg, std::move(open));
        break;
      }

      case K::WalkDone: {
        auto it = walkOpen.find(ev.arg);
        if (it != walkOpen.end()) {
            closeCompleted(it->second, ev.cycle);
            walkOpen.erase(it);
        }
        break;
      }

      case K::WalkAbort: {
        auto it = walkOpen.find(ev.arg);
        if (it != walkOpen.end()) {
            closeAborted(it->second, ev.cycle);
            walkOpen.erase(it);
        }
        break;
      }

      default:
        // Pipeline-progress and informational events (park/wake,
        // splice-open, deadlock squash, ...) need no folding here.
        break;
    }
}

void
ExcTimeline::closeCompleted(Open &open, Cycle done)
{
    Handling &h = open.h;
    h.done = done;
    h.completed = true;

    if (h.shape == Handling::Shape::Walk) {
        h.cat[unsigned(AttribCat::Walker)] = done - h.start;
    } else {
        // Timestamps an unusual path never produced (e.g. a handler
        // closing the splice in its spawn cycle under the
        // instant-fetch limit study) snap into the partition order so
        // the categories still tile the span exactly.
        auto clamp = [](Cycle v, Cycle lo, Cycle hi) {
            return v < lo ? lo : (v > hi ? hi : v);
        };
        h.start = clamp(h.start, h.detect, done);
        h.firstDispatch = clamp(h.firstDispatch, h.start, done);
        h.fill = clamp(h.fill, h.firstDispatch, done);

        h.cat[unsigned(AttribCat::Drain)] = h.start - h.detect;
        h.cat[unsigned(AttribCat::HandlerFetch)] =
            h.firstDispatch - h.start;
        h.cat[unsigned(AttribCat::HandlerExec)] =
            h.fill - h.firstDispatch;
        if (h.shape == Handling::Shape::Thread)
            h.cat[unsigned(AttribCat::SpliceWait)] = done - h.fill;
        else
            h.cat[unsigned(AttribCat::Refetch)] = done - h.fill;
    }

    panic_if(h.catSum() != h.span(),
             "attribution broke its by-construction identity: "
             "categories=%llu span=%llu",
             (unsigned long long)h.catSum(),
             (unsigned long long)h.span());

    accumulate(h);
    closed.push_back(h);
}

void
ExcTimeline::closeAborted(Open &open, Cycle done)
{
    Handling &h = open.h;
    h.done = done;
    h.completed = false;
    h.cat = {};
    ++total.aborted;
    ++abortedHandlings;
    closed.push_back(h);
}

void
ExcTimeline::accumulate(const Handling &h)
{
    ++total.completed;
    total.spanCycles += h.span();
    for (unsigned i = 0; i < NumAttribCats; ++i)
        total.cycles[i] += h.cat[i];

    ++completedHandlings;
    drainCycles += double(h.cat[unsigned(AttribCat::Drain)]);
    handlerFetchCycles +=
        double(h.cat[unsigned(AttribCat::HandlerFetch)]);
    handlerExecCycles += double(h.cat[unsigned(AttribCat::HandlerExec)]);
    spliceWaitCycles += double(h.cat[unsigned(AttribCat::SpliceWait)]);
    refetchCycles += double(h.cat[unsigned(AttribCat::Refetch)]);
    walkerCycles += double(h.cat[unsigned(AttribCat::Walker)]);
    handlingSpan.sample(double(h.span()));
}

void
ExcTimeline::finish(Cycle now)
{
    for (auto &[tid, open] : inlineOpen)
        closeAborted(open, now);
    inlineOpen.clear();
    for (auto &[tid, open] : threadOpen)
        closeAborted(open, now);
    threadOpen.clear();
    for (auto &[key, open] : walkOpen)
        closeAborted(open, now);
    walkOpen.clear();
}

AttribSummary
ExcTimeline::summary() const
{
    return total;
}

} // namespace zmt::obs
