#include "replay.hh"

#include <algorithm>
#include <chrono>

#include "common/stats.hh"
#include "mem/coherence.hh"
#include "mem/memory.hh"
#include "network/kruskal_snir.hh"
#include "sim/machine.hh"

namespace perfbench {

using namespace hscd;

RecordedStream
recordStream(const compiler::CompiledProgram &cp, const MachineConfig &cfg)
{
    sim::TraceBuffer buf;
    sim::Machine m(cp, cfg);
    m.setTraceSink(&buf);
    m.run();
    RecordedStream s;
    s.records = buf.take();
    s.dataBytes = cp.program.dataBytes();
    s.accesses = static_cast<std::uint64_t>(std::count_if(
        s.records.begin(), s.records.end(), [](const sim::TraceRecord &r) {
            return r.type == sim::TraceRecord::Type::Access;
        }));
    return s;
}

ReplayRun
replayInto(const RecordedStream &s, const MachineConfig &cfg)
{
    stats::StatGroup root("replay");
    mem::MainMemory memory(s.dataBytes);
    net::Network network(&root, cfg.procs, cfg.networkRadix,
                         cfg.maxNetworkLoad, cfg.topology);
    auto scheme = mem::makeScheme(cfg, memory, network, &root);
    std::vector<Cycles> clock(cfg.procs, 0);

    const auto t0 = std::chrono::steady_clock::now();
    for (const sim::TraceRecord &r : s.records) {
        if (r.type == sim::TraceRecord::Type::Boundary) {
            Cycles t = 0;
            for (ProcId p = 0; p < cfg.procs; ++p)
                t = std::max({t, clock[p], scheme->writeDrainTime(p)});
            t += cfg.barrierCycles;
            t += scheme->epochBoundary(r.epoch);
            std::fill(clock.begin(), clock.end(), t);
            network.endWindow(t);
            continue;
        }
        mem::MemOp op = r.op;
        op.now = clock[op.proc];
        clock[op.proc] += scheme->access(op).stall;
    }
    const auto t1 = std::chrono::steady_clock::now();

    const mem::SchemeStats &st = scheme->stats();
    ReplayRun out;
    out.counts = {st.reads.value(), st.writes.value(), st.readHits.value(),
                  st.readMisses.value(), st.writeMisses.value()};
    out.loopNs =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count();
    return out;
}

} // namespace perfbench
