#include "mc/explorer.hh"

#include <algorithm>
#include <limits>

#include "common/log.hh"

namespace hscd {
namespace mc {

std::string
Counterexample::str() const
{
    std::string out = csprintf("%s violated: %s\n",
                               invariantName(invariant), detail);
    out += csprintf("counterexample (%d steps):\n", path.size());
    for (std::size_t i = 0; i < path.size(); ++i)
        out += csprintf("  %2d. %s\n", i + 1, path[i].str());
    return out;
}

namespace {

struct Node
{
    State state;
    std::uint32_t parent = 0;
    std::uint32_t action = 0;
    std::uint16_t depth = 0;
};

std::vector<Action>
pathTo(const std::vector<Node> &nodes, std::uint32_t id)
{
    std::vector<Action> path;
    while (id != 0) {
        path.push_back(Action::decode(nodes[id].action));
        id = nodes[id].parent;
    }
    std::reverse(path.begin(), path.end());
    return path;
}

/** splitmix64's output mixer. */
std::uint64_t
mix(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
splitmix(std::uint64_t &x)
{
    return mix(x += 0x9e3779b97f4a7c15ull);
}

/**
 * The visited set: canonical keys in a flat arena indexed by node id,
 * found through an open-addressing table of node ids (id + 1; 0 marks
 * an empty slot) with linear probing, doubled at load 1/2.
 */
class VisitedSet
{
  public:
    VisitedSet() : _slots(1u << 12) {}

    /** The slot that holds @p key's node or, if absent, where it goes. */
    std::uint32_t &
    slotFor(const PackedKey &key)
    {
        std::uint64_t h = 0;
        for (std::uint64_t w : key.w)
            h = (h ^ w) * 0x9e3779b97f4a7c15ull;
        h = mix(h);
        const std::size_t mask = _slots.size() - 1;
        for (std::size_t i = h & mask;; i = (i + 1) & mask) {
            std::uint32_t &slot = _slots[i];
            if (slot == 0 || _keys[slot - 1] == key)
                return slot;
        }
    }

    /** Record @p key as node _keys.size() in the empty @p slot. */
    void
    insert(std::uint32_t &slot, const PackedKey &key)
    {
        _keys.push_back(key);
        slot = std::uint32_t(_keys.size());
        if (2 * _keys.size() > _slots.size())
            grow();
    }

  private:
    void
    grow()
    {
        _slots.assign(2 * _slots.size(), 0);
        for (std::uint32_t id = 0; id < _keys.size(); ++id)
            slotFor(_keys[id]) = id + 1;
    }

    std::vector<PackedKey> _keys;
    std::vector<std::uint32_t> _slots;
};

} // namespace

ExploreResult
explore(const McConfig &cfg, const ExploreOptions &opt)
{
    cfg.validate();
    ExploreResult res;

    // Node ids and parent edges are 32-bit, and slot values are id + 1.
    if (opt.maxStates > std::numeric_limits<std::uint32_t>::max())
        fatal("mc: maxStates %d exceeds the 32-bit node id space",
              opt.maxStates);

    std::vector<Node> nodes;
    VisitedSet seen;
    nodes.push_back(Node{initialState(cfg), 0, 0, 0});
    const PackedKey rootKey = canonicalKey(cfg, nodes[0].state, opt.symmetry);
    seen.insert(seen.slotFor(rootKey), rootKey);

    std::vector<Action> acts;
    for (std::uint32_t head = 0; head < nodes.size(); ++head) {
        // Copy: apply() below may reallocate `nodes`.
        const State cur = nodes[head].state;
        const std::uint16_t depth = nodes[head].depth;
        res.maxDepth = std::max<std::uint64_t>(res.maxDepth, depth);

        if (isTerminal(cfg, cur)) {
            ++(cur.aborted ? res.aborted : res.completed);
            continue;
        }

        enumerate(cfg, cur, acts);
        if (acts.empty()) {
            // Structurally impossible (Finish/Barrier are always
            // enabled), but check rather than assume: this *is* the
            // deadlock-freedom invariant.
            res.cex = Counterexample{
                pathTo(nodes, head), InvariantId::Deadlock,
                csprintf("no enabled action in epoch %d", int(cur.epoch))};
            break;
        }

        for (const Action &a : acts) {
            State next = cur;
            Outcome out;
            apply(cfg, next, a, out);
            ++res.transitions;

            if (out.violated != InvariantId::None) {
                std::vector<Action> path = pathTo(nodes, head);
                path.push_back(a);
                res.cex = Counterexample{std::move(path), out.violated,
                                         out.violation};
                res.states = nodes.size();
                return res;
            }

            const PackedKey key = canonicalKey(cfg, next, opt.symmetry);
            std::uint32_t &slot = seen.slotFor(key);
            if (slot != 0)
                continue;
            if (nodes.size() >= opt.maxStates) {
                res.hitStateCap = true;
                res.states = nodes.size();
                return res;
            }
            nodes.push_back(Node{next, head, a.encode(),
                                 std::uint16_t(depth + 1)});
            seen.insert(slot, key);
        }
    }

    res.states = nodes.size();
    return res;
}

std::vector<Action>
randomWalk(const McConfig &cfg, std::uint64_t seed)
{
    cfg.validate();
    std::vector<Action> path;
    State s = initialState(cfg);
    std::uint64_t rng = seed * 0x2545f4914f6cdd1dull + 1;
    std::vector<Action> acts;
    while (!isTerminal(cfg, s)) {
        enumerate(cfg, s, acts);
        hscd_assert(!acts.empty(), "mc: random walk deadlocked");
        const Action &a = acts[splitmix(rng) % acts.size()];
        Outcome out;
        apply(cfg, s, a, out);
        path.push_back(a);
        hscd_assert(path.size() < 100000, "mc: random walk diverged");
    }
    return path;
}

} // namespace mc
} // namespace hscd
