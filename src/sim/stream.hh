/**
 * @file
 * The op stream: a program's operations, recorded once into flat arrays
 * that the executor replays on every run.
 *
 * Walking HIR statements for every simulated reference (frame stack,
 * environment lookups, subscript expression trees) is slow, and the
 * operations a program performs do not depend on the machine it runs
 * on. So TaskStream (sim/interp.hh) interprets each program once into a
 * StreamProgram: the serial master's ops, and for each DOALL one flat
 * op array with per-iteration offsets. The executor replays that for
 * every scheme, processor count and schedule. Block, cyclic and dynamic
 * scheduling are replay-time policies that hand iteration ranges to
 * processors.
 *
 * A StreamOp is the trace machinery's Access record (sim/trace.hh)
 * stripped of its run-time fields (stamp, clock, criticality) and
 * extended with the static compiler facts the executor needs per
 * reference (mark kind, Time-Read distance, critical-section marking);
 * the executor patches the dynamic fields in at issue time.
 *
 * A DOALL's iterations are recorded in index order by one TaskStream
 * that shares the master's RunCtx. An Alternate-policy branch inside a
 * DOALL body therefore resolves as it would if the loop ran serially:
 * the outcome is the same for every scheme, processor count and
 * schedule.
 *
 * The stream is cached on the CompiledProgram itself in one insert-once
 * slot, so sweeps that re-simulate one workload under many machine
 * configurations record it once.
 */

#ifndef HSCD_SIM_STREAM_HH
#define HSCD_SIM_STREAM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "compiler/analysis.hh"
#include "mem/machine_config.hh"

namespace hscd {
namespace sim {

/** One recorded operation of an op stream (32 bytes, flat). */
struct StreamOp
{
    enum class Kind : std::uint8_t
    {
        Ref,          ///< one memory reference
        Compute,      ///< burn aux cycles
        LockAcquire,  ///< enter the (single global) critical section
        LockRelease,  ///< leave the critical section
        Post,         ///< post synchronization flag aux
        Wait,         ///< block on synchronization flag aux
        CallBoundary, ///< procedure entry/return
        Barrier,      ///< master only: explicit epoch boundary
        BeginDoall,   ///< master only: run parallel epoch aux
    };

    Addr addr = 0;                ///< Ref: word address
    std::int64_t aux = 0;         ///< cycles / flag / epoch index
    hir::RefId ref = hir::invalidRef;
    std::uint32_t array = static_cast<std::uint32_t>(-1);
    std::uint32_t distance = 0;   ///< Ref (read): Time-Read operand
    compiler::MarkKind mark = compiler::MarkKind::Normal;
    Kind kind = Kind::Ref;
    bool write = false;
    /** Ref: the compiler marked this reference Critical. */
    bool markCritical = false;
};

/**
 * One parallel epoch: every iteration's ops, in index order. Iteration
 * k runs loop index lo + k * step, and its ops are
 * ops[iterBegin[k], iterBegin[k + 1]).
 */
struct EpochStream
{
    bool hasSync = false;             ///< body contains post/wait
    std::int64_t lo = 0;
    std::int64_t step = 1;
    std::vector<std::size_t> iterBegin{0};
    std::vector<StreamOp> ops;

    /** DOALL iterations. */
    std::size_t taskCount() const { return iterBegin.size() - 1; }
};

/** A whole program, flattened once for every machine config. */
struct StreamProgram
{
    /** Serial master ops; BeginDoall records index into epochs. */
    std::vector<StreamOp> master;
    std::vector<EpochStream> epochs;

    /** Total recorded ops (master plus every epoch). */
    std::size_t opCount() const;
};

/**
 * The stream for @p cp, recorded on first use and cached on @p cp
 * (thread-safe, insert-once). The stream does not depend on @p cfg.
 * Never null; fatal() when the recording exceeds the op cap.
 */
std::shared_ptr<const StreamProgram>
epochStream(const compiler::CompiledProgram &cp, const MachineConfig &cfg);

/**
 * Process-wide stream cache telemetry, aggregated over every program's
 * slot (monotonic).
 */
struct StreamCacheStats
{
    std::uint64_t builds = 0;    ///< streams recorded fresh
    std::uint64_t hits = 0;      ///< served from a program's slot
};

StreamCacheStats streamCacheStats();

} // namespace sim
} // namespace hscd

#endif // HSCD_SIM_STREAM_HH
