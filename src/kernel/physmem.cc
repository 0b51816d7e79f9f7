#include "kernel/physmem.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "common/logging.hh"

namespace zmt
{

uint8_t *
PhysMem::cachedPage(Addr ppn) const
{
    CacheEntry &e = lookupCache[ppn & (CacheWays - 1)];
    if (e.ppn == ppn)
        return e.page;
    auto it = pages.find(ppn);
    if (it == pages.end())
        return nullptr; // never cache absence: a write may materialize
    e.ppn = ppn;
    e.page = it->second.get();
    return e.page;
}

uint8_t *
PhysMem::pageFor(Addr pa)
{
    auto ppn = pageNum(pa);
    if (uint8_t *page = cachedPage(ppn))
        return page;
    auto page = std::make_unique<uint8_t[]>(PageBytes);
    std::memset(page.get(), 0, PageBytes);
    auto it = pages.emplace(ppn, std::move(page)).first;
    return it->second.get();
}

uint64_t
PhysMem::read(Addr pa, unsigned size) const
{
    panic_if(size == 0 || size > 8, "bad access size %u", size);
    if constexpr (std::endian::native == std::endian::little) {
        if ((pa & PageMask) + size <= PageBytes) {
            const uint8_t *page = cachedPage(pageNum(pa));
            if (!page)
                return 0;
            uint64_t value = 0;
            std::memcpy(&value, page + (pa & PageMask), size);
            return value;
        }
    }
    uint64_t value = 0;
    for (unsigned i = 0; i < size; ++i) {
        Addr byte_pa = pa + i;
        const uint8_t *page = pageBytes(byte_pa);
        uint8_t b = page ? page[byte_pa & PageMask] : 0;
        value |= uint64_t(b) << (8 * i);
    }
    return value;
}

void
PhysMem::write(Addr pa, unsigned size, uint64_t value)
{
    panic_if(size == 0 || size > 8, "bad access size %u", size);
    if constexpr (std::endian::native == std::endian::little) {
        if ((pa & PageMask) + size <= PageBytes) {
            std::memcpy(pageFor(pa) + (pa & PageMask), &value, size);
            return;
        }
    }
    for (unsigned i = 0; i < size; ++i) {
        Addr byte_pa = pa + i;
        pageFor(byte_pa)[byte_pa & PageMask] = uint8_t(value >> (8 * i));
    }
}

void
PhysMem::forEachPage(
    const std::function<void(Addr, const uint8_t *)> &fn) const
{
    std::vector<Addr> ppns;
    ppns.reserve(pages.size());
    for (const auto &[ppn, page] : pages)
        ppns.push_back(ppn);
    std::sort(ppns.begin(), ppns.end());
    for (Addr ppn : ppns)
        fn(ppn, pages.at(ppn).get());
}

void
PhysMem::importPage(Addr ppn, const uint8_t *data, size_t len)
{
    panic_if(len > PageBytes, "importPage: %zu bytes > page size", len);
    uint8_t *page = pageFor(ppn << PageBits);
    if (len > 0)
        std::memcpy(page, data, len);
    std::memset(page + len, 0, PageBytes - len);
}

} // namespace zmt
