/**
 * @file
 * Guarded-action model of the TPI coherence protocol for exhaustive
 * exploration (ROADMAP item 5, following the guarded-action modelling of
 * cache protocols in PAPERS.md).
 *
 * The model is a small-step transition system over one abstract machine:
 * P processors, W shared words grouped into cache lines of `lineWords`,
 * an n-bit timetag lattice with the two-phase reset schedule, and the
 * PR 4 fault surface (mem.tag flips, mem.epoch flush recovery, net.drop
 * retry/abort). Each enabled action is a *guarded action*: the guard
 * encodes the compiler/environment contract (epoch conflict-freedom,
 * sound Time-Read distances, Normal reads only where freshness is
 * provable), and the effect mirrors `mem/tpi_scheme.cc` word for word —
 * fills stamp the accessed word with EC and side words with EC-1 (or
 * leave them invalid in epoch 0), non-critical writes vouch EC, critical
 * writes vouch EC-1, Time-Read hits promote, and the two-phase reset
 * invalidates words older than one phase at each phase boundary.
 *
 * State is deliberately value-abstracted: instead of absolute value
 * stamps the model keeps one `stale` bit per cached copy (is the copy's
 * value the word's current memory value?), and instead of absolute
 * timetags it keeps the tag *age* `EC - tt`. Both abstractions are
 * exact for the invariants checked and collapse runs that differ only
 * by renaming, which is what makes exhaustive enumeration feasible.
 *
 * Invariants (checked on every read transition):
 *  - NoStaleRead:   a read hit never returns a stale value, unless the
 *                   copy was tainted by an injected tag-raising fault
 *                   (exactly the corruptions PR 2's oracles must flag).
 *  - BoundedTagAge: every valid untainted copy consulted by a Time-Read
 *                   has age in [0, 2^n - 1] — the two-phase reset keeps
 *                   modular n-bit tag arithmetic unambiguous.
 *  - ModularAgree:  the n-bit hardware hit decision ((EC - tt) mod 2^n
 *                   <= d) agrees with the unbounded-tag decision the
 *                   implementation computes — the wraparound property.
 *  - Deadlock-freedom / liveness bound: every non-terminal state has an
 *                   enabled action, and (by bounded exhaustion) every
 *                   request completes or structurally aborts.
 */

#ifndef HSCD_MC_MODEL_HH
#define HSCD_MC_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "compiler/marking.hh"
#include "fault/plan.hh"
#include "mem/coherence.hh"

namespace hscd {
namespace mc {

/** Model size bounds (state arrays are statically sized). */
constexpr unsigned kMaxProcs = 3;
constexpr unsigned kMaxWords = 4;
constexpr unsigned kMaxLines = 4;

/** Model configuration: one exhaustively-explored machine shape. */
struct McConfig
{
    unsigned procs = 2;          ///< processors (2..kMaxProcs)
    unsigned words = 2;          ///< shared words (1..kMaxWords)
    unsigned lineWords = 2;      ///< words per cache line (divides words)
    unsigned timetagBits = 1;    ///< n; phase = 2^(n-1), dmax = 2^n - 1
    unsigned horizonEpochs = 0;  ///< explored epochs; 0 = 2 * 2^n + 1
    unsigned opsPerEpoch = 2;    ///< max references per processor/epoch
    unsigned faultBudget = 0;    ///< injected faults per run (0 = none)
    unsigned faultSites = fault::kSitesAll; ///< which Site classes fire
    bool allowCritical = true;   ///< explore critical-section writes
    bool promote = true;         ///< MachineConfig::tpiPromoteOnHit
    unsigned maxRetries = 4;     ///< MachineConfig::faultMaxRetries

    unsigned phase() const { return 1u << (timetagBits - 1); }
    unsigned dmax() const { return (1u << timetagBits) - 1; }
    unsigned
    horizon() const
    {
        return horizonEpochs ? horizonEpochs
                             : 2u * (1u << timetagBits) + 1;
    }
    unsigned lines() const { return words / lineWords; }

    bool
    siteEnabled(fault::Site s) const
    {
        return faultBudget > 0 &&
               (faultSites & fault::siteBit(s)) != 0;
    }

    /** Validate bounds; fatal() on a malformed configuration. */
    void validate() const;

    std::string str() const;
};

/** One cached copy of one word in one processor's cache. */
struct Copy
{
    bool valid = false;
    /** An injected fault raised the tag or set the valid bit: the copy
     *  may wrongly vouch, and the no-stale-read invariant is waived
     *  (the soundness oracles, not the tag lattice, own this case). */
    bool tainted = false;
    /** Any injected flip touched this word's tag state (superset of
     *  tainted: includes benign lowered tags / cleared valid bits).
     *  The wraparound invariants only claim unfaulted tags: a lowered
     *  tag legally ages past dmax and simply misses conservatively. */
    bool faulted = false;
    /** Copy's value differs from the word's current memory value. */
    bool stale = false;
    /** Tag age EC - tt. Negative = a fault pushed the tag into the
     *  future. Saturates at +/- kAgeCap. */
    std::int8_t age = 0;

    bool operator==(const Copy &) const = default;
};

constexpr std::int8_t kAgeCap = 64;

/** LineHistory abstraction (mem/line_history.hh) per (proc, line). */
enum class LineHist : std::uint8_t
{
    Never,   ///< never cached -> Cold miss
    Cached,  ///< resident (or was; TPI never evicts in this geometry)
    InvTag,  ///< lost to a two-phase reset / flush -> TagReset miss
};

/**
 * One explored machine state. Kept concrete enough to re-execute
 * transitions; canonicalKey() performs the abstraction/symmetry
 * reduction used for deduplication.
 */
struct State
{
    std::uint8_t epoch = 0;
    bool aborted = false;
    std::uint8_t faultsLeft = 0;
    std::uint8_t opsLeft[kMaxProcs] = {};
    Copy copy[kMaxProcs][kMaxWords];
    bool present[kMaxProcs][kMaxLines] = {};
    LineHist hist[kMaxProcs][kMaxLines] = {};
    /** Age of proc p's last write to word w; kNoWrite = none/ancient. */
    std::int8_t lastWriteAge[kMaxProcs][kMaxWords];
    /** Per-epoch conflict footprints (processor bit masks). */
    std::uint8_t writers[kMaxWords] = {};
    std::uint8_t readers[kMaxWords] = {};
    std::uint8_t bypasses[kMaxWords] = {};
    std::uint8_t criticals[kMaxWords] = {};

    bool operator==(const State &) const = default;
};

constexpr std::int8_t kNoWrite = 127;

/** Build the initial state (cold caches, epoch 0). */
State initialState(const McConfig &cfg);

/** Is @p s terminal (completed horizon or structurally aborted)? */
bool isTerminal(const McConfig &cfg, const State &s);

/**
 * Canonical dedup key: the value-abstracted state packed into fixed-width
 * words, built on the stack. w[0] holds epoch, aborted and faultsLeft;
 * each processor contributes one two-word block (opsLeft, per-word copy
 * flags, age and lastWriteAge, per-line present and history) that
 * depends on that processor alone; the last word holds the footprint
 * masks. Every field keeps its full width, so the key is injective on
 * the abstraction: the only information it drops is an invalid word of
 * a resident line once faultsLeft == 0 (no fault can resurrect it, so
 * its retained tag and value bits fold to one form). Cache-line aligned:
 * a lookup that finds its key touches one line of the explorer's arena.
 */
struct alignas(64) PackedKey
{
    static constexpr unsigned kWords = 2 + 2 * kMaxProcs;
    std::uint64_t w[kWords] = {};

    bool operator==(const PackedKey &) const = default;
};

/**
 * The canonical key of @p s. With @p symmetry the processor blocks are
 * placed in the order of the least permutation (blocks first, then the
 * permuted footprint masks), so states equal up to processor renaming
 * share a key (TPI treats processors uniformly, so such states have
 * isomorphic futures).
 */
PackedKey canonicalKey(const McConfig &cfg, const State &s, bool symmetry);

/** One guarded action. */
struct Action
{
    enum class Kind : std::uint8_t
    {
        Finish,   ///< processor issues no further references this epoch
        Write,    ///< write word (critical() => lock-ordered)
        Read,     ///< read word with mark()/distance()
        Barrier,  ///< all processors cross the epoch boundary
    };

    /** Fault attachment riding on the action (one per action). */
    enum class Fault : std::uint8_t
    {
        None,
        TagFlip,      ///< mem.tag on the accessed line (reads only)
        DropRecover,  ///< net.drop absorbed by one retransmission
        DropAbort,    ///< net.drop exhausts retries -> Protocol abort
        EpochFlip,    ///< mem.epoch at the barrier -> flush a processor
    };

    Kind kind = Kind::Finish;
    std::uint8_t proc = 0;
    std::uint8_t word = 0;
    compiler::MarkKind mark = compiler::MarkKind::Normal;
    std::uint8_t distance = 0;
    bool critical = false;
    Fault fault = Fault::None;
    std::uint8_t faultWord = 0;  ///< TagFlip: word index within the line
    std::uint8_t faultBit = 0;   ///< TagFlip: tag bit, or n = valid bit
    std::uint8_t flushProc = 0;  ///< EpochFlip: flushed processor

    std::string str() const;

    /** Compact encoding for parent-edge storage. */
    std::uint32_t encode() const;
    static Action decode(std::uint32_t bits);

    bool operator==(const Action &) const = default;
};

/** Which invariant a counterexample violates. */
enum class InvariantId : std::uint8_t
{
    None,
    NoStaleRead,
    BoundedTagAge,
    ModularAgree,
    Deadlock,
};

const char *invariantName(InvariantId id);

/** What one applied action did (drives invariants and trace replay). */
struct Outcome
{
    bool isRead = false;
    bool hit = false;
    mem::MissClass cls = mem::MissClass::None;
    /** The returned value was stale (hit on a stale copy). */
    bool observedStale = false;
    /** The reference sent a protocol message (miss fill / bypass fetch /
     *  write-through), i.e. one net.drop opportunity. */
    bool sends = false;
    /** The read found the line resident (one mem.tag opportunity). */
    bool lineWasPresent = false;
    /** Invariant violated by this transition (None if clean). */
    InvariantId violated = InvariantId::None;
    std::string violation;
};

/**
 * Apply @p a to @p s (in place), filling @p out. The caller guarantees
 * the action came from enumerate() on the same state.
 */
void apply(const McConfig &cfg, State &s, const Action &a, Outcome &out);

/**
 * Enumerate every enabled guarded action of @p s in a deterministic
 * order. Returns nothing for terminal states.
 */
void enumerate(const McConfig &cfg, const State &s,
               std::vector<Action> &out);

} // namespace mc
} // namespace hscd

#endif // HSCD_MC_MODEL_HH
