/**
 * @file
 * Memory-event trace capture and replay.
 *
 * The execution-driven engine can emit every scheme-visible event (one
 * record per reference plus epoch boundaries) to a trace; traces replay
 * through any coherence scheme without re-interpreting the program -
 * the classic trace-driven workflow of the era ([32] pairs both modes).
 * The text format is stable and diff-friendly:
 *
 *     H hscd-trace 1 <procs> <dataBytes>
 *     A <proc> <addr> <R|W> <mark> <dist> <stamp> <crit>
 *     B <epoch>
 */

#ifndef HSCD_SIM_TRACE_HH
#define HSCD_SIM_TRACE_HH

#include <iosfwd>
#include <vector>

#include "mem/coherence.hh"
#include "sim/result.hh"

namespace hscd {
namespace sim {

struct TraceRecord
{
    enum class Type : std::uint8_t { Access, Boundary };

    Type type = Type::Access;
    mem::MemOp op{};       ///< valid for Access (op.now unused on replay)
    EpochId epoch = 0;     ///< valid for Boundary
};

/** Receives events during an instrumented run. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    virtual void onAccess(const mem::MemOp &op) = 0;
    virtual void onBoundary(EpochId epoch) = 0;
    /**
     * Scheme verdict for the op just issued via onAccess: hit/miss,
     * class, stall, and the epoch it executed in. Default no-op so
     * record-only sinks (TraceBuffer) are unaffected; the observability
     * layer (hscd_inspect why-miss) needs the outcome stream to
     * reconstruct per-word timetag state.
     */
    virtual void
    onOutcome(const mem::MemOp &op, const mem::AccessResult &res,
              EpochId epoch)
    {
        (void)op; (void)res; (void)epoch;
    }
};

/** Collects records in memory. */
class TraceBuffer : public TraceSink
{
  public:
    void onAccess(const mem::MemOp &op) override;
    void onBoundary(EpochId epoch) override;

    const std::vector<TraceRecord> &records() const { return _records; }
    std::vector<TraceRecord> take() { return std::move(_records); }

  private:
    std::vector<TraceRecord> _records;
};

/** Serialize records (with a header carrying machine facts). */
void writeTrace(std::ostream &os, const std::vector<TraceRecord> &records,
                unsigned procs, Addr data_bytes);

/** Parse a trace; fatal() on malformed input. */
struct ParsedTrace
{
    std::vector<TraceRecord> records;
    unsigned procs = 0;
    Addr dataBytes = 0;
};
ParsedTrace readTrace(std::istream &is);

/**
 * Drive @p cfg's scheme with a recorded trace. Per-processor clocks
 * advance by each access's stall; boundaries synchronize all clocks.
 * The result carries every counter the execution-driven engine
 * harvests (sim::harvestCounters) except the program-structure ones
 * (epochs, parallelEpochs, tasks), and the same value-stamp oracle: a
 * read that observes anything but the last stamp written to its word
 * counts in oracleViolations / firstViolations.
 *
 * When @p sink is non-null it receives every record as it replays plus
 * the scheme's verdict for each access via TraceSink::onOutcome — the
 * hook the model checker uses to cross-check a counterexample trace
 * against the real scheme, outcome by outcome.
 *
 * When @p script is non-null and non-empty, a FaultInjector armed with
 * exactly those scripted firings (plus cfg.fault's probabilistic plan,
 * normally rate 0) is attached to the scheme, so a replay reproduces a
 * fault scenario at precise injection opportunities. A structured abort
 * (retry exhaustion) ends the replay early and is reported in
 * RunResult::abort rather than thrown.
 */
RunResult replayTrace(const std::vector<TraceRecord> &records,
                         const MachineConfig &cfg, Addr data_bytes,
                         TraceSink *sink = nullptr,
                         const std::vector<fault::ScriptedFault> *script =
                             nullptr);

} // namespace sim
} // namespace hscd

#endif // HSCD_SIM_TRACE_HH
