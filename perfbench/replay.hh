/**
 * @file
 * Scheme isolation for the traced run: record one program's
 * scheme-visible reference stream once, then drive a bare coherence
 * scheme with it, so each scheme's access() is timed without the
 * executor, the stream builder or the checkers around it.
 */

#ifndef HSCD_PERFBENCH_REPLAY_HH
#define HSCD_PERFBENCH_REPLAY_HH

#include <cstdint>
#include <vector>

#include "compiler/analysis.hh"
#include "mem/machine_config.hh"
#include "sim/trace.hh"

namespace perfbench {

/** A recorded stream plus the memory size its addresses live in. */
struct RecordedStream
{
    std::vector<hscd::sim::TraceRecord> records;
    hscd::Addr dataBytes = 0;
    std::uint64_t accesses = 0;
};

/** Hit/miss outcome of one replay; must repeat exactly. */
struct ReplayCounts
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t readHits = 0;
    std::uint64_t readMisses = 0;
    std::uint64_t writeMisses = 0;

    bool operator==(const ReplayCounts &) const = default;
};

struct ReplayRun
{
    ReplayCounts counts;
    std::int64_t loopNs = 0;   ///< wall time of the access/boundary loop
};

/** Run @p cp once under @p cfg with a TraceBuffer attached. */
RecordedStream recordStream(const hscd::compiler::CompiledProgram &cp,
                            const hscd::MachineConfig &cfg);

/**
 * Feed @p s into a fresh mem::makeScheme(@p cfg): access() for each
 * reference (issued at its processor's clock) and epochBoundary() at
 * each boundary, as the executor would.
 */
ReplayRun replayInto(const RecordedStream &s,
                     const hscd::MachineConfig &cfg);

} // namespace perfbench

#endif // HSCD_PERFBENCH_REPLAY_HH
