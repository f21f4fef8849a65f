#include "sim/trace.hh"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>

#include <memory>

#include "common/log.hh"
#include "fault/abort.hh"
#include "mem/memory.hh"
#include "network/kruskal_snir.hh"

namespace hscd {
namespace sim {

using compiler::MarkKind;

void
TraceBuffer::onAccess(const mem::MemOp &op)
{
    TraceRecord r;
    r.type = TraceRecord::Type::Access;
    r.op = op;
    _records.push_back(r);
}

void
TraceBuffer::onBoundary(EpochId epoch)
{
    TraceRecord r;
    r.type = TraceRecord::Type::Boundary;
    r.epoch = epoch;
    _records.push_back(r);
}

namespace {

char
markChar(MarkKind k)
{
    switch (k) {
      case MarkKind::Normal:
        return 'n';
      case MarkKind::TimeRead:
        return 't';
      case MarkKind::Bypass:
        return 'b';
    }
    return '?';
}

MarkKind
parseMark(char c)
{
    switch (c) {
      case 'n':
        return MarkKind::Normal;
      case 't':
        return MarkKind::TimeRead;
      case 'b':
        return MarkKind::Bypass;
      default:
        fatal("trace: bad mark '%c'", c);
    }
}

} // namespace

void
writeTrace(std::ostream &os, const std::vector<TraceRecord> &records,
           unsigned procs, Addr data_bytes)
{
    os << "H hscd-trace 1 " << procs << " " << data_bytes << "\n";
    for (const TraceRecord &r : records) {
        if (r.type == TraceRecord::Type::Boundary) {
            os << "B " << r.epoch << "\n";
            continue;
        }
        const mem::MemOp &op = r.op;
        os << "A " << op.proc << " " << op.addr << " " << op.arrayId
           << " " << (op.write ? 'W' : 'R') << " " << markChar(op.mark)
           << " " << op.distance << " " << op.stamp << " "
           << (op.critical ? 1 : 0) << "\n";
    }
}

ParsedTrace
readTrace(std::istream &is)
{
    ParsedTrace out;
    std::string line;
    if (!std::getline(is, line))
        fatal("trace: empty input");
    {
        std::istringstream hs(line);
        std::string tag, magic;
        int version = 0;
        hs >> tag >> magic >> version >> out.procs >> out.dataBytes;
        if (tag != "H" || magic != "hscd-trace" || version != 1)
            fatal("trace: bad header '%s'", line);
    }
    std::size_t lineno = 1;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty())
            continue;
        std::istringstream ls(line);
        std::string tag;
        ls >> tag;
        TraceRecord r;
        if (tag == "B") {
            r.type = TraceRecord::Type::Boundary;
            ls >> r.epoch;
        } else if (tag == "A") {
            r.type = TraceRecord::Type::Access;
            char rw = 0, mark = 0;
            int crit = 0;
            ls >> r.op.proc >> r.op.addr >> r.op.arrayId >> rw >> mark >>
                r.op.distance >> r.op.stamp >> crit;
            r.op.write = rw == 'W';
            r.op.mark = parseMark(mark);
            r.op.critical = crit != 0;
        } else {
            fatal("trace line %d: unknown tag '%s'", lineno, tag);
        }
        if (!ls)
            fatal("trace line %d: malformed record", lineno);
        out.records.push_back(r);
    }
    return out;
}

RunResult
replayTrace(const std::vector<TraceRecord> &records,
            const MachineConfig &cfg, Addr data_bytes, TraceSink *sink,
            const std::vector<fault::ScriptedFault> *script)
{
    stats::StatGroup root("replay");
    mem::MainMemory memory(data_bytes);
    net::Network network(&root, cfg.procs, cfg.networkRadix,
                         cfg.maxNetworkLoad, cfg.topology);
    auto scheme = mem::makeScheme(cfg, memory, network, &root);

    std::unique_ptr<fault::FaultInjector> injector;
    if (cfg.fault.enabled() || (script && !script->empty())) {
        injector = std::make_unique<fault::FaultInjector>(cfg.fault);
        if (script)
            injector->script(*script);
        network.setFaultInjector(injector.get());
        scheme->setFaultInjector(injector.get());
    }

    RunResult out;
    std::vector<Cycles> clock(cfg.procs, 0);
    std::vector<Cycles> busy(cfg.procs, 0);
    // The executor's value oracle: the last stamp written per word.
    std::vector<mem::ValueStamp> lastStamp(memory.words(), 0);
    EpochId epoch = 0;
    try {
        for (const TraceRecord &r : records) {
            if (r.type == TraceRecord::Type::Boundary) {
                Cycles t = 0;
                for (ProcId p = 0; p < cfg.procs; ++p) {
                    t = std::max(t, clock[p]);
                    t = std::max(t, scheme->writeDrainTime(p));
                }
                t += cfg.barrierCycles;
                if (sink)
                    sink->onBoundary(r.epoch);
                t += scheme->epochBoundary(r.epoch);
                epoch = r.epoch;
                std::fill(clock.begin(), clock.end(), t);
                network.endWindow(t);
                continue;
            }
            mem::MemOp op = r.op;
            hscd_assert(op.proc < cfg.procs,
                        "trace targets processor %d beyond the machine",
                        op.proc);
            hscd_assert(op.addr / 4 < lastStamp.size(),
                        "trace address %d beyond %d data bytes", op.addr,
                        data_bytes);
            op.now = clock[op.proc];
            if (sink)
                sink->onAccess(op);
            mem::AccessResult res = scheme->access(op);
            if (sink)
                sink->onOutcome(op, res, epoch);
            clock[op.proc] += res.stall;
            busy[op.proc] += res.stall;
            mem::ValueStamp &last = lastStamp[op.addr / 4];
            if (op.write)
                last = op.stamp;
            else if (res.observed != last)
                out.noteViolation(OracleViolation{
                    op.addr, hir::invalidRef, res.observed, last, epoch,
                    op.proc});
        }
    } catch (const fault::RunAbort &abort) {
        out.abort = abort.info;
    }

    // A trace has no serial code: every cycle is parallel time.
    Cycles end = 0;
    for (Cycles c : clock)
        end = std::max(end, c);
    harvestCounters(out, end, busy, end, *scheme, network, injector.get());
    return out;
}

} // namespace sim
} // namespace hscd
