#include "obs/chrometrace.hh"

#include <string>

#include "common/json.hh"

namespace zmt::obs
{

namespace
{

const char *
shapeName(Handling::Shape shape)
{
    switch (shape) {
      case Handling::Shape::Inline: return "inline-trap";
      case Handling::Shape::Thread: return "handler-thread";
      case Handling::Shape::Walk:   return "hardware-walk";
    }
    return "?";
}

/** The thread row a category's span belongs on. */
int
rowFor(const Handling &h, AttribCat cat)
{
    if (h.shape == Handling::Shape::Thread &&
        (cat == AttribCat::HandlerFetch || cat == AttribCat::HandlerExec))
        return int(h.handler);
    return int(h.master);
}

} // anonymous namespace

void
writeChromeTrace(std::ostream &os, const ExcTimeline &timeline)
{
    os << "{\"traceEvents\":[";
    bool first = true;
    auto emit = [&](const std::string &body) {
        if (!first)
            os << ",";
        first = false;
        os << "\n" << body;
    };

    emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
         "\"args\":{\"name\":\"zmt core\"}}");

    uint64_t id = 0;
    for (const Handling &h : timeline.handlings()) {
        std::string common =
            "\"cat\":\"" + std::string(shapeName(h.shape)) +
            "\",\"pid\":0";
        std::string args =
            ",\"args\":{\"handling\":" + std::to_string(id) +
            ",\"faultSeq\":" + std::to_string(h.faultSeq) +
            ",\"pc\":" + std::to_string(h.pc) +
            ",\"va\":" + std::to_string(h.va) +
            ",\"vpn\":" + std::to_string(h.vpn) +
            ",\"emul\":" + (h.emul ? "true" : "false") +
            ",\"warm\":" + (h.warm ? "true" : "false") +
            ",\"relinks\":" + std::to_string(h.relinks) + "}";

        emit("{\"name\":\"detect\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" +
             std::to_string(h.detect) + ",\"tid\":" +
             std::to_string(int(h.master)) + "," + common + args + "}");

        if (!h.completed) {
            emit("{\"name\":\"aborted\",\"ph\":\"X\",\"ts\":" +
                 std::to_string(h.detect) + ",\"dur\":" +
                 std::to_string(h.done - h.detect) + ",\"tid\":" +
                 std::to_string(int(h.master)) + "," + common + args +
                 "}");
            ++id;
            continue;
        }

        Cycle ts = h.detect;
        for (unsigned c = 0; c < NumAttribCats; ++c) {
            uint64_t dur = h.cat[c];
            if (dur == 0)
                continue;
            AttribCat cat = AttribCat(c);
            emit("{\"name\":\"" +
                 std::string(jsonEscape(attribCatName(cat))) +
                 "\",\"ph\":\"X\",\"ts\":" + std::to_string(ts) +
                 ",\"dur\":" + std::to_string(dur) + ",\"tid\":" +
                 std::to_string(rowFor(h, cat)) + "," + common + args +
                 "}");
            ts += dur;
        }
        ++id;
    }

    os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
       << "\"format\":\"zmt-chrome-trace-v1\","
       << "\"timeUnit\":\"cycles\","
       << "\"completedHandlings\":" << timeline.summary().completed
       << ",\"abortedHandlings\":" << timeline.summary().aborted
       << "}}\n";
}

} // namespace zmt::obs
