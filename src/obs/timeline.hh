/**
 * @file
 * ExcTimeline: folds the event stream into one record per exception
 * handling and attributes every cycle of each completed handling to a
 * named category (see obs/attrib.hh for the contract).
 *
 * Three independent state machines, keyed by what uniquely identifies
 * a handling in flight:
 *
 *  - inline traps, keyed by the trapping (master) thread:
 *      Trap -> first PAL-mode dispatch -> HandlerRet (RFE executes)
 *           -> first non-PAL dispatch (refetch arrives)
 *  - handler threads (multithreaded / quick-start), keyed by the
 *    handler context:
 *      Spawn -> first handler dispatch -> Fill (TLBWR/EMULWR)
 *            -> SpliceClose (handler RFE retires)
 *  - hardware walks, keyed by (asn, vpn):
 *      WalkStart -> WalkDone
 *
 * A handling that ends any other way (a newer trap squashing the
 * in-flight one, Cancel, Revert, WalkAbort, or end-of-run) closes as
 * aborted and contributes no category cycles.
 */

#ifndef ZMT_OBS_TIMELINE_HH
#define ZMT_OBS_TIMELINE_HH

#include <unordered_map>
#include <vector>

#include "obs/attrib.hh"
#include "obs/event.hh"
#include "stats/stats.hh"

namespace zmt::obs
{

/** One folded exception handling. */
struct Handling
{
    enum class Shape : uint8_t { Inline, Thread, Walk };

    Shape shape = Shape::Inline;
    bool emul = false;      //!< instruction emulation (vs TLB miss)
    bool warm = false;      //!< quick-start warm start
    bool completed = false; //!< attributed end-to-end
    ThreadID master = InvalidThreadID;
    ThreadID handler = InvalidThreadID; //!< Thread shape only
    SeqNum faultSeq = 0;
    Addr pc = 0; //!< the excepting instruction's pc
    Addr va = 0; //!< its faulting virtual address (TLB misses)
    Addr vpn = 0;
    unsigned relinks = 0;

    Cycle detect = 0;        //!< miss/fault detected
    Cycle start = 0;         //!< trap redirect / spawn / walk start
    Cycle firstDispatch = 0; //!< first handler instruction dispatched
    Cycle fill = 0;          //!< TLBWR/EMULWR executed (thread shape)
                             //!< or RFE executed (inline shape)
    Cycle done = 0;          //!< back on the application path

    std::array<uint64_t, NumAttribCats> cat{};

    Cycle span() const { return done - detect; }
    uint64_t catSum() const;
};

/** Key for an in-flight hardware walk. */
constexpr uint64_t
walkKey(Asn asn, Addr vpn)
{
    return (uint64_t(asn) << 44) | vpn;
}

class ExcTimeline : public EventSink, public stats::StatGroup
{
  public:
    explicit ExcTimeline(stats::StatGroup *parent);

    void onEvent(const Event &ev) override;

    /** End of run: close every still-open handling as aborted. */
    void finish(Cycle now);

    /** All closed handlings, in close order. */
    const std::vector<Handling> &handlings() const { return closed; }

    AttribSummary summary() const;

    // --- Per-category statistics ----------------------------------------
    stats::Scalar drainCycles;
    stats::Scalar handlerFetchCycles;
    stats::Scalar handlerExecCycles;
    stats::Scalar spliceWaitCycles;
    stats::Scalar refetchCycles;
    stats::Scalar walkerCycles;
    stats::Scalar completedHandlings;
    stats::Scalar abortedHandlings;
    stats::Distribution handlingSpan;

  private:
    /** Where an open handling is in its lifecycle. */
    enum class Phase : uint8_t { AwaitDispatch, AwaitFill, AwaitRefetch };

    struct Open
    {
        Handling h;
        Phase phase = Phase::AwaitDispatch;
    };

    /** The most recent unconsumed detection on a thread. */
    struct Detect
    {
        Cycle cycle = 0;
        SeqNum seq = 0;
        Addr va = 0;
        bool emul = false;
    };

    void closeCompleted(Open &open, Cycle done);
    void closeAborted(Open &open, Cycle done);
    void accumulate(const Handling &h);

    std::unordered_map<ThreadID, Detect> lastDetect;
    std::unordered_map<ThreadID, Open> inlineOpen; //!< by master tid
    std::unordered_map<ThreadID, Open> threadOpen; //!< by handler tid
    std::unordered_map<uint64_t, Open> walkOpen;   //!< by walkKey

    std::vector<Handling> closed;
    AttribSummary total;
};

} // namespace zmt::obs

#endif // ZMT_OBS_TIMELINE_HH
