/**
 * @file
 * Results of one simulated run.
 */

#ifndef HSCD_SIM_RESULT_HH
#define HSCD_SIM_RESULT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fault/abort.hh"
#include "mem/coherence.hh"
#include "obs/profile.hh"

namespace hscd {

namespace fault { class FaultInjector; }
namespace net { class Network; }

namespace sim {

/** A read observed a value other than the last one written before it. */
struct OracleViolation
{
    Addr addr = 0;
    hir::RefId ref = hir::invalidRef;
    mem::ValueStamp seen = 0;
    mem::ValueStamp expected = 0;
    EpochId epoch = 0;
    ProcId proc = 0;

    bool operator==(const OracleViolation &) const = default;
};

/**
 * A cache hit observed a value older than the word's freshest write
 * (shadow-epoch race detector, MachineConfig::shadowEpochCheck).
 */
struct ShadowViolation
{
    Addr addr = 0;
    hir::RefId ref = hir::invalidRef;
    ProcId proc = 0;          ///< the reader that hit a stale copy
    EpochId epoch = 0;        ///< epoch of the stale hit
    ProcId writerProc = 0;    ///< who produced the freshest value
    EpochId writerEpoch = 0;  ///< the epoch it was produced in

    bool operator==(const ShadowViolation &) const = default;
};

/**
 * Every scalar counter of a run, in journal and fingerprint order:
 * X(member, JSON key, kind). Kind `u64` and `f64` are values the engine
 * computes itself; kind `stat` is a u64 copied from the mem::SchemeStats
 * counter of the same name by harvestCounters(). The RunResult members,
 * fingerprint(), the journal codec (serve::encodeResult/decodeResult)
 * and the per-cell JSON (serve::writeResultCellJson) all expand from
 * this list, so they cannot drift apart.
 *
 * cycles is the parallel execution time; epochs the boundaries
 * crossed; parallelEpochs / tasks the DOALL instances / iterations
 * executed. busyMax / busyAvg are the busiest / average processor's
 * work inside parallel epochs, and serialCycles the time outside them
 * (serial code and barriers). oracleViolations counts coherence errors
 * (must be 0 for a sound scheme and a legal program); doallViolations
 * counts data races that make the program an illegal DOALL program.
 */
#define HSCD_RUN_RESULT_SCALARS(X)                                           \
    X(cycles, "cycles", u64)                                                 \
    X(epochs, "epochs", u64)                                                 \
    X(parallelEpochs, "parallel_epochs", u64)                                \
    X(tasks, "tasks", u64)                                                   \
    X(reads, "reads", stat)                                                  \
    X(writes, "writes", stat)                                                \
    X(readHits, "read_hits", stat)                                           \
    X(readMisses, "read_misses", stat)                                       \
    X(readMissRate, "read_miss_rate", f64)                                   \
    X(avgMissLatency, "avg_miss_latency", f64)                               \
    X(missCold, "miss_cold", stat)                                           \
    X(missReplacement, "miss_replacement", stat)                             \
    X(missTrueShare, "miss_true_share", stat)                                \
    X(missFalseShare, "miss_false_share", stat)                              \
    X(missConservative, "miss_conservative", stat)                           \
    X(missTagReset, "miss_tag_reset", stat)                                  \
    X(missUncached, "miss_uncached", stat)                                   \
    X(timeReads, "time_reads", stat)                                         \
    X(timeReadHits, "time_read_hits", stat)                                  \
    X(bypassReads, "bypass_reads", stat)                                     \
    X(readPackets, "read_packets", stat)                                     \
    X(writePackets, "write_packets", stat)                                   \
    X(coherencePackets, "coherence_packets", stat)                           \
    X(writebackPackets, "writeback_packets", stat)                           \
    X(readWords, "read_words", stat)                                         \
    X(writeWords, "write_words", stat)                                       \
    X(writebackWords, "writeback_words", stat)                               \
    X(trafficPackets, "traffic_packets", u64)                                \
    X(trafficWords, "traffic_words", u64)                                    \
    X(busyMax, "busy_max", u64)                                              \
    X(busyAvg, "busy_avg", f64)                                              \
    X(serialCycles, "serial_cycles", u64)                                    \
    X(oracleViolations, "oracle_violations", u64)                            \
    X(doallViolations, "doall_violations", u64)

#define HSCD_RUN_RESULT_TYPE_u64 Counter
#define HSCD_RUN_RESULT_TYPE_stat Counter
#define HSCD_RUN_RESULT_TYPE_f64 double

/** How many violations of each kind a RunResult records in detail. */
constexpr std::size_t kMaxRecordedViolations = 8;

struct RunResult
{
#define HSCD_RUN_RESULT_DECL(member, key, kind)                              \
    HSCD_RUN_RESULT_TYPE_##kind member = 0;
    HSCD_RUN_RESULT_SCALARS(HSCD_RUN_RESULT_DECL)
#undef HSCD_RUN_RESULT_DECL

    /** busyMax / busyAvg: 1.0 means perfectly balanced DOALLs. */
    double
    imbalance() const
    {
        return busyAvg > 0 ? double(busyMax) / busyAvg : 1.0;
    }

    std::vector<OracleViolation> firstViolations;

    /** Stale cache hits caught by the shadow-epoch race detector
     *  (always 0 unless MachineConfig::shadowEpochCheck is on). */
    Counter shadowViolations = 0;
    std::vector<ShadowViolation> firstShadowViolations;

    /** Count an oracle violation, keeping the first few in detail. */
    void
    noteViolation(const OracleViolation &v)
    {
        ++oracleViolations;
        if (firstViolations.size() < kMaxRecordedViolations)
            firstViolations.push_back(v);
    }

    /** Count a shadow violation, keeping the first few in detail. */
    void
    noteShadowViolation(const ShadowViolation &v)
    {
        ++shadowViolations;
        if (firstShadowViolations.size() < kMaxRecordedViolations)
            firstShadowViolations.push_back(v);
    }

    /**
     * Structured termination record. kind == None means the run
     * completed; anything else means it was stopped by the watchdog or
     * the protocol retry budget, with counters harvested up to the point
     * of death and a post-mortem snapshot in abort.snapshot. Aborted
     * results are first-class: the sweep records them instead of dying.
     */
    fault::AbortInfo abort;
    bool aborted() const { return abort.aborted(); }

    /** Fault-injection accounting (all 0 when the plan is disabled). */
    Counter faultsInjected = 0;
    Counter faultsRecovered = 0;
    Counter faultRetries = 0;

    /**
     * Self-profiling wall-clock phase breakdown (all zero unless the
     * run was profiled). PhaseProfile compares always-equal and is
     * excluded from fingerprint(), so this field never perturbs the
     * determinism contract below.
     */
    obs::PhaseProfile profile;

    /** Unnecessary coherence misses (conservative + false sharing). */
    Counter
    unnecessaryMisses() const
    {
        return missConservative + missFalseShare;
    }

    std::string summary() const;

    /**
     * Field-by-field equality; the determinism contract of the sweep
     * engine is that a cell's RunResult compares equal at any --jobs.
     */
    bool operator==(const RunResult &) const = default;

    /** FNV-1a digest over every field (doubles by bit pattern). */
    std::uint64_t fingerprint() const;
};

/**
 * Fill @p r's end-of-run counters: the completion time @p end; every
 * `stat` counter, the miss rate and the mean miss latency from
 * @p scheme; the traffic totals from @p network; the load balance from
 * each processor's @p busy time and the @p parallelWall cycles spent
 * inside parallel epochs; and, when @p faults is set, its accounting.
 * The one harvest both the execution-driven engine and trace replay
 * use.
 */
void harvestCounters(RunResult &r, Cycles end,
                     const std::vector<Cycles> &busy, Cycles parallelWall,
                     const mem::CoherenceScheme &scheme,
                     const net::Network &network,
                     const fault::FaultInjector *faults);

} // namespace sim
} // namespace hscd

#endif // HSCD_SIM_RESULT_HH
