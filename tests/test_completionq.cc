/**
 * @file
 * CompletionQueue (core/completionq.hh) against a reference model: a
 * std::multimap<Cycle, SeqNum>, whose equal keys keep insertion order,
 * is exactly "earliest cycle first, FIFO within a cycle". A seeded
 * driver schedules and drains the way the core does — drain at the
 * start of a cycle, schedule at least one cycle ahead, sometimes jump
 * ahead as idle-skip does — with latencies from one cycle to past the
 * largest legal memory latency, so events cross between the wheel and
 * its overflow heap.
 */

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

#include "core/completionq.hh"

namespace
{

using namespace zmt;

class CompletionQueueTest : public ::testing::Test
{
  protected:
    InstPtr
    inst(SeqNum seq)
    {
        InstPtr ptr = pool.acquire();
        ptr->seq = seq;
        return ptr;
    }

    /** Drain everything due by @p now, in pop order. */
    std::vector<SeqNum>
    drain(Cycle now)
    {
        std::vector<SeqNum> order;
        while (InstPtr ptr = queue.popDue(now))
            order.push_back(ptr->seq);
        return order;
    }

    // The pool outlives every handle the queue holds.
    DynInstPool pool;
    CompletionQueue queue;
};

TEST_F(CompletionQueueTest, MatchesMultimapReference)
{
    constexpr Cycle Span = CompletionQueue::Span;
    for (uint64_t seed : {1u, 2u, 3u, 7919u}) {
        CompletionQueue fresh;
        std::swap(queue, fresh);
        std::mt19937_64 rng(seed);
        std::multimap<Cycle, SeqNum> ref;
        SeqNum next_seq = 1;
        Cycle now = 0;

        auto latency = [&]() -> Cycle {
            switch (rng() % 8) {
              case 0: return Span - 1 + rng() % 3; // the wheel's edge
              case 1: return 1 + rng() % (3 * 4096); // past the bounds
              case 2: return 1 + rng() % (2 * Span);
              default: return 1 + rng() % 16;
            }
        };

        for (int step = 0; step < 20000; ++step) {
            ASSERT_EQ(queue.nextAt(),
                      ref.empty() ? MaxCycle : ref.begin()->first)
                << "seed " << seed << " step " << step;

            std::vector<SeqNum> want;
            while (!ref.empty() && ref.begin()->first <= now) {
                want.push_back(ref.begin()->second);
                ref.erase(ref.begin());
            }
            ASSERT_EQ(drain(now), want)
                << "seed " << seed << " cycle " << now;

            for (unsigned n = rng() % 5; n > 0; --n) {
                Cycle at = now + latency();
                ref.emplace(at, next_seq);
                queue.push(at, inst(next_seq++));
            }
            // Same-cycle bursts. With the span-edge latencies above, a
            // near push often lands on a cycle whose far event has
            // already moved into the wheel.
            if (rng() % 16 == 0) {
                Cycle at = now + 1 + rng() % 4;
                for (int i = 0; i < 3; ++i) {
                    ref.emplace(at, next_seq);
                    queue.push(at, inst(next_seq++));
                }
            }
            ASSERT_EQ(queue.size(), ref.size());

            // Next cycle, or an idle-skip jump no later than the next
            // event (sometimes exactly onto it).
            Cycle next = queue.nextAt();
            if (rng() % 10 == 0 && next != MaxCycle && next > now + 1)
                now = rng() % 2 ? next : now + 1 + rng() % (next - now);
            else
                ++now;
        }
        while (!ref.empty()) {
            now = queue.nextAt();
            std::vector<SeqNum> want;
            while (!ref.empty() && ref.begin()->first <= now) {
                want.push_back(ref.begin()->second);
                ref.erase(ref.begin());
            }
            ASSERT_EQ(drain(now), want) << "seed " << seed;
        }
        EXPECT_TRUE(queue.empty());
        EXPECT_EQ(queue.nextAt(), MaxCycle);
    }
    EXPECT_EQ(pool.liveCount(), 0u);
}

TEST_F(CompletionQueueTest, FarEventStaysAheadOfLaterNearPushForItsCycle)
{
    constexpr Cycle Span = CompletionQueue::Span;
    EXPECT_TRUE(drain(0).empty()); // cursor at 1
    Cycle at = 1 + Span + 10;
    queue.push(at, inst(1)); // beyond the span: overflow heap
    queue.push(at + 5, inst(2));
    EXPECT_TRUE(drain(20).empty()); // brings cycle `at` into the wheel
    queue.push(at, inst(3));        // now a wheel push, same cycle
    queue.push(at - 1, inst(4));
    EXPECT_EQ(queue.nextAt(), at - 1);
    EXPECT_EQ(drain(at), (std::vector<SeqNum>{4, 1, 3}));
    EXPECT_EQ(drain(at + 5), (std::vector<SeqNum>{2}));
}

TEST_F(CompletionQueueTest, FarEventsKeepFifoAmongThemselves)
{
    queue.push(5000, inst(1));
    queue.push(4999, inst(2));
    queue.push(5000, inst(3));
    queue.push(3, inst(4));
    EXPECT_EQ(queue.nextAt(), 3u);
    EXPECT_EQ(drain(3), (std::vector<SeqNum>{4}));
    // One idle-skip jump straight to the far events.
    EXPECT_EQ(queue.nextAt(), 4999u);
    EXPECT_EQ(drain(5000), (std::vector<SeqNum>{2, 1, 3}));
    EXPECT_TRUE(queue.empty());
}

TEST_F(CompletionQueueTest, ClearAndTeardownIterationSeeBothParts)
{
    for (SeqNum seq = 1; seq <= 40; ++seq)
        queue.push(1 + (seq * 97) % 3000, inst(seq)); // wheel and far
    size_t visited = 0;
    queue.forEach([&](const InstPtr &ptr) {
        ++visited;
        EXPECT_GE(ptr->seq, 1u);
    });
    EXPECT_EQ(visited, 40u);
    EXPECT_EQ(queue.size(), 40u);

    queue.clear();
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.nextAt(), MaxCycle);
    visited = 0;
    queue.forEach([&](const InstPtr &) { ++visited; });
    EXPECT_EQ(visited, 0u);
    EXPECT_EQ(pool.liveCount(), 0u); // clear() dropped every handle

    queue.push(7, inst(41));
    EXPECT_EQ(drain(7), (std::vector<SeqNum>{41}));
}

TEST_F(CompletionQueueTest, SchedulingBeforeTheCursorPanics)
{
    EXPECT_TRUE(drain(100).empty()); // cursor at 101
    queue.push(101, inst(1));
    EXPECT_DEATH(queue.push(100, inst(2)), "before the queue's cursor");
    EXPECT_EQ(drain(101), (std::vector<SeqNum>{1}));
}

} // anonymous namespace
