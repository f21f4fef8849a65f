#include "obs/timeline.hh"

#include <istream>
#include <ostream>

#include "common/json.hh"
#include "common/strutil.hh"

namespace hscd {
namespace obs {

Timeline::Timeline(std::size_t capEvents) : _cap(capEvents)
{
}

void
Timeline::procSpan(ProcId p, EpochId e, Cycles begin, Cycles end)
{
    Event ev;
    ev.kind = Kind::ProcSpan;
    ev.track = p;
    ev.epoch = e;
    ev.ts = begin;
    ev.dur = end - begin;
    _events.push_back(ev);
}

void
Timeline::missFlow(ProcId p, EpochId e, Addr addr, Cycles ts, Cycles stall,
                   std::uint8_t cls, std::uint8_t mark,
                   std::uint64_t distance)
{
    if (_events.size() >= _cap) {
        ++_dropped;
        return;
    }
    Event ev;
    ev.kind = Kind::MissFlow;
    ev.sub = cls;
    ev.mark = mark;
    ev.track = p;
    ev.epoch = e;
    ev.ts = ts;
    ev.dur = stall;
    ev.addr = addr;
    ev.arg = distance;
    _events.push_back(ev);
}

void
Timeline::resetWindow(EpochId e, Cycles begin, Cycles dur)
{
    Event ev;
    ev.kind = Kind::ResetWindow;
    ev.epoch = e;
    ev.ts = begin;
    ev.dur = dur;
    _events.push_back(ev);
}

void
Timeline::instant(InstantKind k, std::uint32_t track, EpochId e, Cycles ts,
                  std::uint64_t arg)
{
    Event ev;
    ev.kind = Kind::Instant;
    ev.sub = static_cast<std::uint8_t>(k);
    ev.track = track;
    ev.epoch = e;
    ev.ts = ts;
    ev.arg = arg;
    _events.push_back(ev);
}

namespace {

std::string
fallbackName(const char *prefix, std::uint8_t v)
{
    return csprintf("%s%d", prefix, unsigned(v));
}

const char *
instantName(Timeline::InstantKind k)
{
    switch (k) {
      case Timeline::InstantKind::TagReset: return "tag-reset";
      case Timeline::InstantKind::FaultInjected: return "fault-injected";
      case Timeline::InstantKind::FaultRecovered: return "fault-recovered";
      case Timeline::InstantKind::Abort: return "abort";
    }
    return "instant";
}

} // namespace

void
Timeline::writePerfetto(std::ostream &os, const Provenance &prov,
                        unsigned procs, const std::string &label,
                        const Naming &naming) const
{
    auto clsName = [&](std::uint8_t v) {
        return naming.missClass ? naming.missClass(v)
                                : fallbackName("cls", v);
    };
    auto markName = [&](std::uint8_t v) {
        return naming.markKind ? naming.markKind(v)
                               : fallbackName("mark", v);
    };

    const unsigned pid = 1;
    const std::uint32_t mem = memTrack(procs);

    os << "{\n";
    os << "  \"provenance\": " << prov.json(2) << ",\n";
    os << "  \"displayTimeUnit\": \"ms\",\n";
    os << csprintf("  \"droppedEvents\": %d,\n", _dropped);
    os << "  \"traceEvents\": [\n";

    // Metadata: name the process and every track.
    os << csprintf("    {\"ph\": \"M\", \"pid\": %d, \"name\": "
                   "\"process_name\", \"args\": {\"name\": \"%s\"}}",
                   pid, jsonEscape(label));
    for (unsigned p = 0; p < procs; ++p) {
        os << csprintf(",\n    {\"ph\": \"M\", \"pid\": %d, \"tid\": %d, "
                       "\"name\": \"thread_name\", \"args\": {\"name\": "
                       "\"proc %d\"}}", pid, p, p);
        os << csprintf(",\n    {\"ph\": \"M\", \"pid\": %d, \"tid\": %d, "
                       "\"name\": \"thread_sort_index\", \"args\": "
                       "{\"sort_index\": %d}}", pid, p, p);
    }
    os << csprintf(",\n    {\"ph\": \"M\", \"pid\": %d, \"tid\": %d, "
                   "\"name\": \"thread_name\", \"args\": {\"name\": "
                   "\"memory/directory\"}}", pid, mem);
    os << csprintf(",\n    {\"ph\": \"M\", \"pid\": %d, \"tid\": %d, "
                   "\"name\": \"thread_sort_index\", \"args\": "
                   "{\"sort_index\": %d}}", pid, mem, mem);

    std::uint64_t flowId = 0;
    for (const Event &ev : _events) {
        switch (ev.kind) {
          case Kind::ProcSpan:
            os << csprintf(",\n    {\"ph\": \"X\", \"pid\": %d, "
                           "\"tid\": %d, \"ts\": %d, \"dur\": %d, "
                           "\"cat\": \"epoch\", \"name\": \"epoch %d\", "
                           "\"args\": {\"epoch\": %d}}",
                           pid, ev.track, ev.ts, ev.dur, ev.epoch,
                           ev.epoch);
            break;
          case Kind::MissFlow: {
            ++flowId;
            const std::string cls = clsName(ev.sub);
            // Service slice on the memory track...
            os << csprintf(",\n    {\"ph\": \"X\", \"pid\": %d, "
                           "\"tid\": %d, \"ts\": %d, \"dur\": %d, "
                           "\"cat\": \"protocol\", "
                           "\"name\": \"miss %#x (%s)\", "
                           "\"args\": {\"proc\": %d, \"epoch\": %d, "
                           "\"addr\": \"%#x\", \"class\": \"%s\", "
                           "\"mark\": \"%s\", \"distance\": %d}}",
                           pid, mem, ev.ts, ev.dur ? ev.dur : Cycles(1),
                           ev.addr, cls, ev.track, ev.epoch, ev.addr,
                           cls, markName(ev.mark), ev.arg);
            // ...and a request->reply arrow from the proc's epoch span.
            os << csprintf(",\n    {\"ph\": \"s\", \"pid\": %d, "
                           "\"tid\": %d, \"ts\": %d, \"cat\": "
                           "\"protocol\", \"name\": \"msg\", "
                           "\"id\": %d}",
                           pid, ev.track, ev.ts, flowId);
            os << csprintf(",\n    {\"ph\": \"f\", \"bp\": \"e\", "
                           "\"pid\": %d, \"tid\": %d, \"ts\": %d, "
                           "\"cat\": \"protocol\", \"name\": \"msg\", "
                           "\"id\": %d}",
                           pid, mem, ev.ts + (ev.dur ? ev.dur : Cycles(1)),
                           flowId);
            break;
          }
          case Kind::ResetWindow:
            os << csprintf(",\n    {\"ph\": \"X\", \"pid\": %d, "
                           "\"tid\": %d, \"ts\": %d, \"dur\": %d, "
                           "\"cat\": \"reset\", "
                           "\"name\": \"two-phase reset\", "
                           "\"args\": {\"epoch\": %d}}",
                           pid, mem, ev.ts, ev.dur ? ev.dur : Cycles(1),
                           ev.epoch);
            break;
          case Kind::Instant: {
            const auto k = static_cast<InstantKind>(ev.sub);
            os << csprintf(",\n    {\"ph\": \"i\", \"pid\": %d, "
                           "\"tid\": %d, \"ts\": %d, \"s\": \"t\", "
                           "\"cat\": \"event\", \"name\": \"%s\", "
                           "\"args\": {\"epoch\": %d, \"arg\": %d}}",
                           pid, ev.track, ev.ts, instantName(k),
                           ev.epoch, ev.arg);
            break;
          }
        }
    }

    os << "\n  ]\n";
    os << "}\n";
}

bool
readPerfettoCounts(std::istream &is, PerfettoCounts &counts)
{
    counts = PerfettoCounts{};
    std::string line;
    bool sawEvents = false;
    while (std::getline(is, line)) {
        if (line.find("\"traceEvents\"") != std::string::npos)
            sawEvents = true;
        std::size_t pos = line.find("\"ph\": \"");
        if (pos == std::string::npos)
            continue;
        char ph = line[pos + 7];
        switch (ph) {
          case 'M': ++counts.metadata; break;
          case 'X': ++counts.slices; break;
          case 's': ++counts.flowStarts; break;
          case 'f': ++counts.flowEnds; break;
          case 'i': ++counts.instants; break;
          default: break;
        }
    }
    return sawEvents;
}

} // namespace obs
} // namespace hscd
