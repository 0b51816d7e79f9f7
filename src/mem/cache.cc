#include "mem/cache.hh"

#include "common/logging.hh"

namespace zmt
{

Cache::Cache(std::string name, unsigned size_kb, unsigned assoc,
             unsigned line_bytes, unsigned hit_extra, unsigned fill_extra,
             unsigned max_misses, Bus *bus, Cache *next,
             unsigned mem_latency, stats::StatGroup *parent)
    : stats::StatGroup(std::move(name), parent),
      hits(this, "hits", "accesses that hit"),
      misses(this, "misses", "accesses that missed"),
      writebacks(this, "writebacks", "dirty blocks written back"),
      mshrMerges(this, "mshrMerges", "misses merged into outstanding"),
      mshrFullStalls(this, "mshrFullStalls",
                     "misses delayed by a full MSHR file"),
      missRate(this, "missRate", "miss rate",
               [this] {
                   double total = hits.value() + misses.value();
                   return total > 0 ? misses.value() / total : 0.0;
               }),
      lineBytes(line_bytes),
      assoc(assoc),
      numSets(size_t(size_kb) * 1024 / line_bytes / assoc),
      hitExtra(hit_extra),
      fillExtra(fill_extra),
      maxMisses(max_misses),
      bus(bus),
      next(next),
      memLatency(mem_latency)
{
    fatal_if(numSets == 0, "cache too small for its geometry");
    fatal_if((numSets & (numSets - 1)) != 0,
             "number of sets must be a power of two");
    lines.assign(numSets * assoc, Line{});
}

bool
Cache::wouldHit(Addr pa) const
{
    Addr block = blockAddr(pa);
    size_t set = setIndex(block);
    for (unsigned way = 0; way < assoc; ++way) {
        const Line &line = lines[set * assoc + way];
        if (line.valid && line.tag == block)
            return true;
    }
    return false;
}

void
Cache::flush()
{
    lines.assign(lines.size(), Line{});
    outstanding.clear();
}

void
Cache::warmInstall(Addr pa, bool dirty)
{
    Addr block = blockAddr(pa);
    size_t set = setIndex(block);
    ++useCounter;

    Line *victim = &lines[set * assoc];
    for (unsigned way = 0; way < assoc; ++way) {
        Line &line = lines[set * assoc + way];
        if (line.valid && line.tag == block) {
            line.lastUse = useCounter;
            line.dirty = line.dirty || dirty;
            return;
        }
        if (!line.valid) {
            victim = &line;
        } else if (victim->valid && line.lastUse < victim->lastUse) {
            victim = &line;
        }
    }
    victim->valid = true;
    victim->tag = block;
    victim->dirty = dirty;
    victim->lastUse = useCounter;
}

Cycle
Cache::access(Addr pa, bool is_write, Cycle now)
{
    Addr block = blockAddr(pa);
    size_t set = setIndex(block);
    ++useCounter;

    for (unsigned way = 0; way < assoc; ++way) {
        Line &line = lines[set * assoc + way];
        if (line.valid && line.tag == block) {
            line.lastUse = useCounter;
            line.dirty = line.dirty || is_write;
            // Hit under fill: the tag was installed when the miss was
            // issued, but the data may still be in flight — the access
            // completes no earlier than the outstanding fill.
            if (auto it = outstanding.find(block);
                it != outstanding.end() && it->second > now) {
                ++mshrMerges;
                return it->second + hitExtra;
            }
            ++hits;
            lastHit = set * assoc + way;
            return now + hitExtra;
        }
    }

    ++misses;
    return handleMiss(block, is_write, now);
}

Cycle
Cache::handleMiss(Addr block, bool is_write, Cycle now)
{
    // Retire completed outstanding misses.
    for (auto it = outstanding.begin(); it != outstanding.end();) {
        if (it->second <= now)
            it = outstanding.erase(it);
        else
            ++it;
    }

    // Secondary miss: merge with the in-flight fetch of the same block.
    if (auto it = outstanding.find(block); it != outstanding.end()) {
        ++mshrMerges;
        return it->second;
    }

    // All MSHRs busy: the request waits for the earliest completion.
    Cycle start = now;
    if (maxMisses && outstanding.size() >= maxMisses) {
        ++mshrFullStalls;
        Cycle earliest = MaxCycle;
        for (const auto &[_, done] : outstanding)
            earliest = std::min(earliest, done);
        start = std::max(start, earliest);
    }

    // Fetch from below. The request propagates immediately (it is tiny
    // and piggybacks on the address lines); the *data return* transfer
    // occupies the bus for its occupancy window. The tag lookup that
    // detects the miss costs hitExtra up front.
    Cycle lookup_done = start + hitExtra;
    Cycle below = next ? next->access(block * lineBytes, false, lookup_done)
                       : lookup_done + memLatency;
    Cycle data_ready = bus ? bus->acquire(below) : below;
    data_ready += fillExtra;

    outstanding[block] = data_ready;

    // Victim selection and fill (state change is immediate; the timing
    // is carried by the returned cycle — oracle-style).
    size_t set = setIndex(block);
    Line *victim = &lines[set * assoc];
    for (unsigned way = 0; way < assoc; ++way) {
        Line &line = lines[set * assoc + way];
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (line.lastUse < victim->lastUse)
            victim = &line;
    }
    if (victim->valid && victim->dirty) {
        ++writebacks;
        // The writeback consumes a bus slot toward the next level.
        if (bus)
            bus->acquire(data_ready);
    }
    victim->valid = true;
    victim->tag = block;
    victim->dirty = is_write;
    victim->prefetched = false;
    victim->lastUse = useCounter;

    return data_ready;
}

Cycle
Cache::prefetch(Addr pa, Cycle now)
{
    if (wouldHit(pa))
        return now; // resident (possibly in flight); nothing to tag
    Cycle done = access(pa, false, now);
    Addr block = blockAddr(pa);
    size_t set = setIndex(block);
    for (unsigned way = 0; way < assoc; ++way) {
        Line &line = lines[set * assoc + way];
        if (line.valid && line.tag == block) {
            line.prefetched = true;
            break;
        }
    }
    return done;
}

Cache::PrefetchHit
Cache::consumePrefetched(Addr pa, Cycle now)
{
    Addr block = blockAddr(pa);
    size_t set = setIndex(block);
    for (unsigned way = 0; way < assoc; ++way) {
        Line &line = lines[set * assoc + way];
        if (!line.valid || line.tag != block || !line.prefetched)
            continue;
        line.prefetched = false;
        auto it = outstanding.find(block);
        return it != outstanding.end() && it->second > now
                   ? PrefetchHit::Late
                   : PrefetchHit::Ready;
    }
    return PrefetchHit::None;
}

} // namespace zmt
