/**
 * @file
 * The codecs behind every key=value format in the repo, each written
 * down once:
 *
 *  - values: the strict parse and the canonical spelling of each field
 *    type, shared by SimParams::set/forEachParam, the workload key, the
 *    numeric command-line flags and the tokens below;
 *  - tokens: a record as space-separated "key=value" tokens with
 *    percent-encoded strings and hexfloat doubles, written and read
 *    through a record's field list (the zmt-journal-v1 campaign
 *    journal, the zmt-checkpoint-v1 checkpoint, torture's isolated-run
 *    results);
 *  - records: the `<16-hex fnv1a64> <payload>` line the journal and
 *    the checkpoint frame each record with, and the reader that splits
 *    such a file into lines.
 */

#ifndef ZMT_COMMON_FIELDCODEC_HH
#define ZMT_COMMON_FIELDCODEC_HH

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/hash.hh"

namespace zmt::fieldcodec
{

/**
 * Strict unsigned parse: the whole of @p text must be one integer no
 * larger than @p max, in decimal or 0x hex (or 0-octal: strtoull base
 * 0). No sign, no whitespace, no overflow.
 */
inline bool
parseUint(const std::string &text, uint64_t *out,
          uint64_t max = UINT64_MAX)
{
    if (text.empty() || text[0] < '0' || text[0] > '9')
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 0);
    if (errno == ERANGE || end != text.c_str() + text.size() || v > max)
        return false;
    *out = v;
    return true;
}

/**
 * Parse one value: unsigned integers as parseUint within T's range,
 * signed ones in decimal, bools as 1/true/on/yes or 0/false/off/no,
 * doubles as strtod (decimal or hexfloat), strings verbatim. False if
 * @p text does not fit T.
 */
template <class T>
bool
parseValue(const std::string &text, T *out)
{
    if constexpr (std::is_same_v<T, bool>) {
        if (text == "1" || text == "true" || text == "on" || text == "yes")
            *out = true;
        else if (text == "0" || text == "false" || text == "off" ||
                 text == "no")
            *out = false;
        else
            return false;
        return true;
    } else if constexpr (std::is_unsigned_v<T>) {
        uint64_t v = 0;
        if (!parseUint(text, &v, std::numeric_limits<T>::max()))
            return false;
        *out = T(v);
        return true;
    } else if constexpr (std::is_arithmetic_v<T>) {
        if (text.empty() || std::isspace((unsigned char)text[0]))
            return false;
        char *end = nullptr;
        if constexpr (std::is_same_v<T, double>)
            *out = std::strtod(text.c_str(), &end);
        else
            *out = T(std::strtoll(text.c_str(), &end, 10));
        return end == text.c_str() + text.size();
    } else {
        *out = text;
        return true;
    }
}

/** The canonical spelling parseValue() reads back exactly: decimal
 *  integers, 1/0 bools, doubles to 17 significant digits. */
template <class T>
std::string
formatValue(const T &v)
{
    if constexpr (std::is_same_v<T, double>) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return buf;
    } else if constexpr (std::is_arithmetic_v<T>) {
        return std::to_string(v);
    } else {
        return v;
    }
}

/** Percent-encode so any string becomes one whitespace-free token. */
inline std::string
encodeField(const std::string &s)
{
    static const char hexDigits[] = "0123456789abcdef";
    std::string out;
    out.reserve(s.size() + 1);
    for (unsigned char c : s) {
        if (c > ' ' && c != '%' && c != 0x7f) {
            out += char(c);
        } else {
            out += '%';
            out += hexDigits[c >> 4];
            out += hexDigits[c & 0xf];
        }
    }
    return out;
}

inline int
hexNibble(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

inline bool
decodeField(const std::string &s, std::string *out)
{
    std::string result;
    result.reserve(s.size());
    for (size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '%') {
            result += s[i];
            continue;
        }
        if (i + 2 >= s.size())
            return false;
        int hi = hexNibble(s[i + 1]);
        int lo = hexNibble(s[i + 2]);
        if (hi < 0 || lo < 0)
            return false;
        result += char(hi << 4 | lo);
        i += 2;
    }
    *out = std::move(result);
    return true;
}

/** Hexfloat, the token spelling of a double: bit-exact, and the bytes
 *  journals and outcome digests have always held. */
inline std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

using TokenMap = std::map<std::string, std::string>;

inline bool
splitTokens(const std::string &text, TokenMap *kv)
{
    size_t i = 0;
    while (i < text.size()) {
        size_t space = text.find(' ', i);
        size_t end = space == std::string::npos ? text.size() : space;
        if (end > i) {
            size_t eq = text.find('=', i);
            if (eq == std::string::npos || eq >= end)
                return false;
            (*kv)[text.substr(i, eq - i)] =
                text.substr(eq + 1, end - eq - 1);
        }
        i = end + 1;
    }
    return true;
}

/**
 * Field-list visitor that writes each field as a "name=value" token.
 * A field with no formatValue() spelling passes its own (format,
 * parse) pair.
 */
struct TokenWriter
{
    std::string text;

    template <class T>
    void
    operator()(const std::string &name, const T &field)
    {
        text += (text.empty() ? "" : " ") + name + "=";
        if constexpr (std::is_same_v<T, double>)
            text += fmtDouble(field);
        else
            text += encodeField(formatValue(field));
    }

    template <class T, class Format, class Parse>
    void
    operator()(const std::string &name, const T &field, Format format,
               Parse)
    {
        (*this)(name, std::string(format(field)));
    }
};

/** Field-list visitor that reads each field back from splitTokens()
 *  output; ok turns false on a missing or malformed field. */
struct TokenReader
{
    const TokenMap &kv;
    bool ok = true;

    template <class T>
    void
    operator()(const std::string &name, T &field)
    {
        auto it = kv.find(name);
        std::string text;
        ok = ok && it != kv.end() && decodeField(it->second, &text) &&
             parseValue(text, &field);
    }

    template <class T, class Format, class Parse>
    void
    operator()(const std::string &name, T &field, Format, Parse parse)
    {
        std::string text;
        (*this)(name, text);
        ok = ok && parse(text, field);
    }
};

/** One record line, without its newline: `<16-hex fnv1a64> <payload>`
 *  where the checksum covers the payload. */
inline std::string
frameRecord(const std::string &payload)
{
    return hex64(fnv1a64(payload)) + ' ' + payload;
}

/** Check a frameRecord() line and return its payload; false with
 *  @p why set on a short line or a checksum mismatch. */
inline bool
unframeRecord(const std::string &line, std::string *payload,
              std::string *why)
{
    if (line.size() < 18 || line[16] != ' ') {
        *why = "truncated record";
        return false;
    }
    *payload = line.substr(17);
    if (line.compare(0, 16, hex64(fnv1a64(*payload))) != 0) {
        *why = "record checksum mismatch";
        return false;
    }
    return true;
}

/**
 * Read a record file into lines: lines[0] is the format header, the
 * rest are records (vector index i is file line i + 1). A final line
 * without a newline is kept, so a torn append stays visible; an empty
 * file has no lines. False with @p error set if it cannot be opened.
 */
inline bool
readRecordFile(const std::string &path, std::vector<std::string> *lines,
               std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error)
            *error = "cannot open '" + path + "'";
        return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string content = buffer.str();
    lines->clear();
    for (size_t pos = 0; pos < content.size();) {
        size_t nl = std::min(content.find('\n', pos), content.size());
        lines->push_back(content.substr(pos, nl - pos));
        pos = nl + 1;
    }
    return true;
}

} // namespace zmt::fieldcodec

#endif // ZMT_COMMON_FIELDCODEC_HH
