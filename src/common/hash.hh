/**
 * @file
 * Small non-cryptographic hashes shared by the campaign journal,
 * result-integrity checks and the store-stream differential check.
 * FNV-1a is the repo's standard fingerprint (the golden-run tests
 * checksum stat dumps with it): simple, stable across platforms, and
 * byte-order independent by construction.
 */

#ifndef ZMT_COMMON_HASH_HH
#define ZMT_COMMON_HASH_HH

#include <cstdint>
#include <string>

namespace zmt
{

/** The FNV-1a 64-bit offset basis: the hash of no bytes. */
constexpr uint64_t Fnv1a64Basis = 0xcbf29ce484222325ULL;

/** 64-bit FNV-1a over a byte string. */
inline uint64_t
fnv1a64(const std::string &s)
{
    uint64_t h = Fnv1a64Basis;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/**
 * Fold one retired store into FNV-1a hash @p h: the 8 bytes of @p va,
 * then the 8 of @p value, each least significant byte first. The
 * timing core and the functional golden model hash their store
 * streams with this, and the differential check compares the two.
 */
inline uint64_t
fnv1aStore(uint64_t h, uint64_t va, uint64_t value)
{
    for (uint64_t v : {va, value}) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

/** Fixed-width (16 char) lowercase hex rendering of a 64-bit hash. */
inline std::string
hex64(uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[size_t(i)] = digits[v & 0xf];
        v >>= 4;
    }
    return out;
}

} // namespace zmt

#endif // ZMT_COMMON_HASH_HH
