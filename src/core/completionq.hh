/**
 * @file
 * Completion event queue: a timing wheel of per-cycle buckets covering
 * the next Span cycles from a cursor, plus a small (cycle, push order)
 * min-heap for the rare event scheduled further out (a load behind a
 * long memory latency or a queued bus).
 *
 * Pop order is earliest cycle first, FIFO among events scheduled for
 * the same cycle; the golden statistics depend on it, since events due
 * in one cycle complete (and wake dependents) in that order. A bucket
 * is a FIFO of one cycle's events, linked through one node array that
 * all buckets share. A far event moves into its bucket the moment the
 * cursor brings its cycle within Span, which is before any nearer push
 * for that cycle can happen, so the FIFO holds across the boundary.
 * Push and pop are O(1); finding the next due cycle scans an occupancy
 * bitmap of Span / 64 words.
 *
 * The cursor only moves forward, to the cycle being drained: an event
 * scheduled before it is a panic. The core drains at the start of a
 * cycle and schedules at issue, later in the same cycle, with every
 * latency at least one cycle.
 */

#ifndef ZMT_CORE_COMPLETIONQ_HH
#define ZMT_CORE_COMPLETIONQ_HH

#include <algorithm>
#include <array>
#include <bit>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "core/dyninst.hh"

namespace zmt
{

/** Timing wheel of (cycle, FIFO order, instruction) completion events. */
class CompletionQueue
{
  public:
    /** Cycles the wheel covers (a power of two); later events wait in
     *  the overflow heap. */
    static constexpr Cycle Span = 512;

    void
    push(Cycle at, InstPtr inst)
    {
        panic_if(at < cursor,
                 "completion scheduled at cycle %llu, before the queue's "
                 "cursor %llu",
                 (unsigned long long)at, (unsigned long long)cursor);
        ++count;
        if (at - cursor < Span) {
            append(at, std::move(inst));
            return;
        }
        far.push_back(Far{at, farOrder++, std::move(inst)});
        std::push_heap(far.begin(), far.end(), Later{});
    }

    bool empty() const { return count == 0; }
    size_t size() const { return count; }

    /** Earliest event's cycle; MaxCycle when empty. */
    Cycle
    nextAt() const
    {
        // Every wheel event is earlier than every far event.
        if (wheelCount > 0)
            return cursor + ((firstBucketFrom(cursor & Mask) - cursor) & Mask);
        return far.empty() ? MaxCycle : far.front().at;
    }

    /**
     * Remove and return the earliest event's instruction if it is due
     * by @p now. Otherwise return null and move the cursor to now + 1:
     * nothing may be scheduled at or before a drained cycle.
     */
    InstPtr
    popDue(Cycle now)
    {
        if (now < cursor)
            return nullptr; // this cycle is already drained
        // The cursor's own bucket holds only events for the cursor's
        // cycle: the common case of draining one cycle needs no scan.
        if (buckets[cursor & Mask].head == None) {
            Cycle at = nextAt();
            if (at > now) {
                advance(now + 1);
                return nullptr;
            }
            advance(at);
        }
        Bucket &bucket = buckets[cursor & Mask];
        uint32_t idx = bucket.head;
        InstPtr inst = std::move(nodes[idx].inst);
        bucket.head = nodes[idx].next;
        if (bucket.head == None) {
            bucket.tail = None;
            occupied[(cursor & Mask) / 64] &=
                ~(uint64_t{1} << (cursor % 64));
        }
        nodes[idx].next = freeNode;
        freeNode = idx;
        --wheelCount;
        --count;
        return inst;
    }

    /** Visit every pending instruction, in no particular order
     *  (teardown unlinking). */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (const Bucket &bucket : buckets)
            for (uint32_t idx = bucket.head; idx != None;
                 idx = nodes[idx].next)
                fn(nodes[idx].inst);
        for (const Far &event : far)
            fn(event.inst);
    }

    void
    clear()
    {
        buckets.fill(Bucket{});
        occupied.fill(0);
        nodes.clear();
        freeNode = None;
        far.clear();
        count = wheelCount = 0;
    }

  private:
    static constexpr Cycle Mask = Span - 1;
    static constexpr size_t Words = Span / 64;
    static_assert((Span & Mask) == 0 && Span % 64 == 0);
    static constexpr uint32_t None = ~uint32_t{0};

    /** A wheel event: an instruction and the next one of its bucket
     *  (or of the free list). Nodes are shared by all buckets, so the
     *  wheel costs no allocation per bucket. */
    struct Node
    {
        InstPtr inst;
        uint32_t next = None;
    };

    /** One cycle's events, a FIFO linked through nodes. */
    struct Bucket
    {
        uint32_t head = None;
        uint32_t tail = None;
    };

    struct Far
    {
        Cycle at;
        uint64_t order; //!< tie-break: FIFO within a cycle
        InstPtr inst;
    };

    struct Later
    {
        bool
        operator()(const Far &a, const Far &b) const
        {
            return a.at != b.at ? a.at > b.at : a.order > b.order;
        }
    };

    void
    append(Cycle at, InstPtr inst)
    {
        uint32_t idx = freeNode;
        if (idx != None) {
            freeNode = nodes[idx].next;
            nodes[idx] = Node{std::move(inst), None};
        } else {
            idx = uint32_t(nodes.size());
            nodes.push_back(Node{std::move(inst), None});
        }
        Bucket &bucket = buckets[at & Mask];
        if (bucket.tail == None)
            bucket.head = idx;
        else
            nodes[bucket.tail].next = idx;
        bucket.tail = idx;
        occupied[(at & Mask) / 64] |= uint64_t{1} << (at % 64);
        ++wheelCount;
    }

    /** Move the cursor to @p to (no earlier event may remain) and pull
     *  the far events it brings within Span into their buckets. */
    void
    advance(Cycle to)
    {
        cursor = to;
        while (!far.empty() && far.front().at - cursor < Span) {
            std::pop_heap(far.begin(), far.end(), Later{});
            append(far.back().at, std::move(far.back().inst));
            far.pop_back();
        }
    }

    /** First occupied bucket at or after @p start, wrapping around
     *  (the wheel must be nonempty). */
    size_t
    firstBucketFrom(size_t start) const
    {
        size_t word = start / 64;
        uint64_t bits = occupied[word] & (~uint64_t{0} << (start % 64));
        // Words + 1 steps: the last revisits the start word's low bits.
        for (size_t step = 0; step <= Words; ++step) {
            if (bits)
                return word * 64 + size_t(std::countr_zero(bits));
            word = (word + 1) % Words;
            bits = occupied[word];
        }
        panic("completion wheel occupancy bitmap is empty");
        return 0;
    }

    std::array<Bucket, Span> buckets;
    std::array<uint64_t, Words> occupied{}; //!< bit per nonempty bucket
    std::vector<Node> nodes;
    uint32_t freeNode = None; //!< head of the unused nodes
    std::vector<Far> far;     //!< min-heap, at >= cursor + Span
    Cycle cursor = 0;   //!< every pending event is at or after this cycle
    uint64_t farOrder = 0;
    size_t count = 0;      //!< pending events, wheel and far
    size_t wheelCount = 0; //!< pending events in the wheel
};

} // namespace zmt

#endif // ZMT_CORE_COMPLETIONQ_HH
