/**
 * @file
 * Breadth-first explicit-state exploration of the TPI model.
 *
 * Classic explicit-state model checking: states are deduplicated by a
 * hashed canonical encoding (value abstraction + processor symmetry
 * reduction, see mc/model.hh), every state keeps a parent edge, and the
 * first invariant violation is returned as the shortest action path
 * from the initial state — a replayable counterexample.
 *
 * BFS doubles as the liveness check: exploration terminates (the state
 * space is finite under the epoch horizon), every non-terminal state
 * has an enabled action (deadlock-freedom is checked explicitly), and
 * every terminal state either completed the horizon or carries a
 * structured abort from retry exhaustion — so within the explored
 * bound, every request completes or aborts cleanly.
 */

#ifndef HSCD_MC_EXPLORER_HH
#define HSCD_MC_EXPLORER_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mc/model.hh"

namespace hscd {
namespace mc {

struct ExploreOptions
{
    /** Canonicalize modulo processor permutation. */
    bool symmetry = true;
    /** Abandon the search (verdict "bounded") past this many states.
     *  At most UINT32_MAX (node ids are 32-bit); more is fatal(). */
    std::uint64_t maxStates = 8'000'000;
};

/** Shortest action path from the initial state to a violation. */
struct Counterexample
{
    std::vector<Action> path;
    InvariantId invariant = InvariantId::None;
    std::string detail;

    std::string str() const;
};

struct ExploreResult
{
    std::uint64_t states = 0;       ///< unique states (mod symmetry)
    std::uint64_t transitions = 0;  ///< guarded actions fired
    std::uint64_t maxDepth = 0;     ///< longest action path explored
    std::uint64_t completed = 0;    ///< terminal: horizon reached
    std::uint64_t aborted = 0;      ///< terminal: structured abort
    bool hitStateCap = false;
    std::optional<Counterexample> cex;

    /** Exhaustive and violation-free. */
    bool clean() const { return !cex && !hitStateCap; }
};

/** Exhaustively explore @p cfg's state space. */
ExploreResult explore(const McConfig &cfg, const ExploreOptions &opt = {});

/**
 * One deterministic pseudo-random maximal run (initial state to a
 * terminal state), derived purely from @p seed. Used to cross-check the
 * model against the real TpiScheme on full paths, not just on
 * counterexamples.
 */
std::vector<Action> randomWalk(const McConfig &cfg, std::uint64_t seed);

} // namespace mc
} // namespace hscd

#endif // HSCD_MC_EXPLORER_HH
