#include "sim/checkpoint.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>

#include "common/fieldcodec.hh"
#include "common/logging.hh"
#include "core/core.hh"

namespace zmt
{

namespace
{

using namespace fieldcodec;

const char CheckpointHeader[] = "zmt-checkpoint-v1";

/** Warm pages / lines per record: keeps line lengths bounded. */
constexpr size_t WarmBatch = 512;

std::string
hexBytes(const std::vector<uint8_t> &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(bytes.size() * 2);
    for (uint8_t b : bytes) {
        out += digits[b >> 4];
        out += digits[b & 0xf];
    }
    return out;
}

bool
parseHexBytes(const std::string &text, std::vector<uint8_t> &out)
{
    if (text.size() % 2 != 0)
        return false;
    out.clear();
    out.reserve(text.size() / 2);
    for (size_t i = 0; i < text.size(); i += 2) {
        int hi = hexNibble(text[i]);
        int lo = hexNibble(text[i + 1]);
        if (hi < 0 || lo < 0)
            return false;
        out.push_back(uint8_t(hi << 4 | lo));
    }
    return true;
}

/** A register file as comma-separated hex, both ways. */
struct HexRegs
{
    template <size_t N>
    std::string
    operator()(const std::array<uint64_t, N> &regs) const
    {
        std::string out;
        char buf[24];
        for (size_t i = 0; i < N; ++i) {
            std::snprintf(buf, sizeof(buf), "%s%llx", i ? "," : "",
                          (unsigned long long)regs[i]);
            out += buf;
        }
        return out;
    }

    template <size_t N>
    bool
    operator()(const std::string &text, std::array<uint64_t, N> &regs) const
    {
        size_t pos = 0;
        for (uint64_t &reg : regs) {
            if (pos > text.size())
                return false;
            size_t end = std::min(text.find(',', pos), text.size());
            std::string item = text.substr(pos, end - pos);
            char *stop = nullptr;
            reg = std::strtoull(item.c_str(), &stop, 16);
            if (item.empty() || *stop != '\0')
                return false;
            pos = end + 1;
        }
        return pos == text.size() + 1;
    }
};

/** A proc record's tokens after its index and workload key. */
template <class Proc, class Visit>
void
visitProcFields(Proc &p, Visit &visit)
{
    visit("asn", p.asn);
    visit("ptbr", p.ptbr);
    visit("valimit", p.vaLimit);
    visit("mapped", p.mappedPages);
    visit("entry", p.entry);
    visit("pc", p.arch.pc);
    visit("pal", p.arch.palMode);
    visit("ffwd", p.ffwdInsts);
    visit("shash", p.storeHash);
    visit("halted", p.halted);
    visit("int", p.arch.intRegs, HexRegs(), HexRegs());
    visit("fp", p.arch.fpRegs, HexRegs(), HexRegs());
    visit("priv", p.arch.privRegs, HexRegs(), HexRegs());
}

template <class Page, class Visit>
void
visitPageFields(Page &page, Visit &visit)
{
    visit("ppn", page.first);
    visit("data", page.second, hexBytes, parseHexBytes);
}

bool
parseProc(const TokenMap &kv, CheckpointProc *p, std::string *why)
{
    std::string wloadKey;
    TokenReader reader{kv};
    reader("wload", wloadKey);
    visitProcFields(*p, reader);
    if (!reader.ok) {
        *why = "missing or malformed proc field";
        return false;
    }
    return parseWorkloadKey(wloadKey, &p->wload, why);
}

} // anonymous namespace

bool
saveCheckpoint(const CheckpointData &data, const std::string &path,
               std::string *error)
{
    std::ostringstream os;
    os << CheckpointHeader << '\n';

    uint64_t records = 0;
    auto record = [&](const std::string &payload) {
        os << frameRecord(payload) << '\n';
        ++records;
    };

    {
        std::ostringstream meta;
        meta << "meta ffwd=" << data.ffwdTotal
             << " frames=" << data.framesNext
             << " procs=" << data.procs.size()
             << " pages=" << data.pages.size()
             << " wpages=" << data.warmPages.size()
             << " wlines=" << data.warmLines.size();
        record(meta.str());
    }

    for (size_t i = 0; i < data.procs.size(); ++i) {
        TokenWriter proc;
        proc("wload", canonicalKey(data.procs[i].wload));
        visitProcFields(data.procs[i], proc);
        record("proc idx=" + std::to_string(i) + ' ' + proc.text);
    }

    for (const auto &page : data.pages) {
        TokenWriter writer;
        visitPageFields(page, writer);
        record("page " + writer.text);
    }

    // Warm lists as "a:b" pairs, WarmBatch per record.
    auto warmRecords = [&](const char *type, size_t count, auto pair) {
        for (size_t i = 0; i < count; i += WarmBatch) {
            std::string text = std::string(type) + " v=";
            for (size_t j = i; j < std::min(i + WarmBatch, count); ++j)
                text += (j > i ? "," : "") + pair(j);
            record(text);
        }
    };
    warmRecords("wp", data.warmPages.size(), [&](size_t j) {
        const WarmPage &page = data.warmPages[j];
        return std::to_string(page.asn) + ':' + std::to_string(page.vpn);
    });
    warmRecords("wl", data.warmLines.size(), [&](size_t j) {
        const WarmLine &line = data.warmLines[j];
        unsigned flags = (line.data ? 1u : 0u) | (line.fetch ? 2u : 0u) |
                         (line.dirty ? 4u : 0u);
        return std::to_string(line.grain) + ':' + std::to_string(flags);
    });

    os << frameRecord("end records=" + std::to_string(records)) << '\n';

    // Whole-file temp + rename: a reader never observes a partial
    // checkpoint, and a crash mid-write leaves the old file intact.
    std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            if (error)
                *error = "cannot open '" + tmp + "' for writing";
            return false;
        }
        out << os.str();
        out.flush();
        if (!out) {
            if (error)
                *error = "write to '" + tmp + "' failed";
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        if (error)
            *error = "cannot rename '" + tmp + "' to '" + path + "'";
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

namespace
{

bool
parseWarmList(const TokenMap &kv, const char *what, std::string *why,
              const std::function<bool(uint64_t, uint64_t)> &add)
{
    auto it = kv.find("v");
    if (it == kv.end()) {
        *why = std::string("missing ") + what + " list";
        return false;
    }
    const std::string &text = it->second;
    for (size_t pos = 0; pos < text.size();) {
        size_t end = std::min(text.find(',', pos), text.size());
        size_t colon = text.find(':', pos);
        uint64_t a = 0, b = 0;
        if (colon >= end || !parseUint(text.substr(pos, colon - pos), &a) ||
            !parseUint(text.substr(colon + 1, end - colon - 1), &b) ||
            !add(a, b)) {
            *why = std::string("malformed ") + what + " entry";
            return false;
        }
        pos = end + 1;
    }
    return true;
}

} // anonymous namespace

bool
loadCheckpoint(const std::string &path, CheckpointData *data,
               std::string *error)
{
    auto fail = [&](const std::string &message) {
        if (error)
            *error = message;
        return false;
    };
    auto failLine = [&](size_t index, const std::string &why) {
        return fail("'" + path + "' line " + std::to_string(index + 1) +
                    ": " + why);
    };

    std::vector<std::string> lines;
    if (!readRecordFile(path, &lines, error))
        return false;

    if (lines.empty() || lines[0] != CheckpointHeader)
        return fail("'" + path + "' is not a " + CheckpointHeader +
                    " file");

    CheckpointData d;
    bool haveMeta = false, haveEnd = false;
    uint64_t metaProcs = 0, metaPages = 0, metaWp = 0, metaWl = 0;
    uint64_t records = 0;

    for (size_t i = 1; i < lines.size(); ++i) {
        const std::string &line = lines[i];
        if (haveEnd)
            return failLine(i, "record after end trailer");
        std::string payload, why;
        if (!unframeRecord(line, &payload, &why))
            return failLine(i, why);

        size_t sp = payload.find(' ');
        std::string type = payload.substr(0, sp);
        TokenMap kv;
        if (sp != std::string::npos &&
            !splitTokens(payload.substr(sp + 1), &kv))
            return failLine(i, "malformed record");

        TokenReader reader{kv};
        if (type == "end") {
            uint64_t expected = 0;
            reader("records", expected);
            if (!reader.ok)
                return failLine(i, "malformed end trailer");
            if (expected != records)
                return failLine(i, "end trailer expects " +
                                       std::to_string(expected) +
                                       " records, found " +
                                       std::to_string(records));
            haveEnd = true;
            continue;
        }

        ++records;
        if (!haveMeta) {
            if (type != "meta")
                return failLine(i, "first record is not meta");
            reader("ffwd", d.ffwdTotal);
            reader("frames", d.framesNext);
            reader("procs", metaProcs);
            reader("pages", metaPages);
            reader("wpages", metaWp);
            reader("wlines", metaWl);
            if (!reader.ok)
                return failLine(i, "missing or malformed meta field");
            haveMeta = true;
            continue;
        }

        if (type == "proc") {
            CheckpointProc p;
            if (!parseProc(kv, &p, &why))
                return failLine(i, why);
            d.procs.push_back(std::move(p));
        } else if (type == "page") {
            visitPageFields(d.pages.emplace_back(), reader);
            if (!reader.ok || d.pages.back().second.size() > PageBytes)
                return failLine(i, "missing or malformed page field");
        } else if (type == "wp") {
            bool ok = parseWarmList(kv, "warm-page", &why,
                                    [&](uint64_t a, uint64_t b) {
                                        if (a > 0xffff)
                                            return false;
                                        d.warmPages.push_back(
                                            {Asn(a), b});
                                        return true;
                                    });
            if (!ok)
                return failLine(i, why);
        } else if (type == "wl") {
            bool ok = parseWarmList(kv, "warm-line", &why,
                                    [&](uint64_t a, uint64_t b) {
                                        if (b > 7)
                                            return false;
                                        d.warmLines.push_back(
                                            {a, (b & 1) != 0,
                                             (b & 2) != 0,
                                             (b & 4) != 0});
                                        return true;
                                    });
            if (!ok)
                return failLine(i, why);
        } else {
            return failLine(i, "unknown record type '" + type + "'");
        }
    }

    if (!haveEnd)
        return fail("'" + path + "': missing end trailer (truncated "
                    "file)");
    if (d.procs.size() != metaProcs || d.pages.size() != metaPages ||
        d.warmPages.size() != metaWp || d.warmLines.size() != metaWl)
        return fail("'" + path + "': record counts do not match the "
                    "meta header");
    if (d.procs.empty())
        return fail("'" + path + "': checkpoint has no processes");

    *data = std::move(d);
    return true;
}

void
applyWarmState(SmtCore &core, const std::vector<WarmPage> &pages,
               const std::vector<WarmLine> &lines)
{
    if (pages.empty() && lines.empty())
        return;
    Tlb &tlb = core.dtlb();
    MemHierarchy &mem = core.memory();
    for (const WarmPage &page : pages)
        tlb.warmInsert(page.asn, page.vpn << PageBits);
    for (const WarmLine &line : lines) {
        Addr pa = line.grain * WarmGrainBytes;
        if (line.data) {
            mem.dcache().warmInstall(pa, line.dirty);
            mem.l2cache().warmInstall(pa, false);
        }
        if (line.fetch) {
            mem.icache().warmInstall(pa, false);
            mem.l2cache().warmInstall(pa, false);
        }
    }
    mem.settleTiming();
}

} // namespace zmt
