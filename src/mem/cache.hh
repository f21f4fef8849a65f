/**
 * @file
 * Generic set-associative cache array with per-word metadata.
 *
 * The coherence schemes differ in what they must remember per word (TPI:
 * timetags) and per line (HW: MSI state), so the array is templated over
 * both. Value stamps per word are always kept: they are the simulated
 * "data" the coherence oracle checks.
 */

#ifndef HSCD_MEM_CACHE_HH
#define HSCD_MEM_CACHE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitutil.hh"
#include "common/log.hh"
#include "mem/machine_config.hh"
#include "mem/memory.hh"

namespace hscd {
namespace mem {

/** Empty metadata for schemes that need none. */
struct NoMeta
{
};

/**
 * A set-associative array of sets x assoc frames whose storage is
 * created on demand. A dense frame -> slot index (0 = never filled)
 * is the only per-frame state; a slot (Line, word metadata, value
 * stamps) is allocated the first time victim() hands its frame out and
 * belongs to that frame for the array's lifetime. A Machine is built
 * per simulated run and a program typically fills a fraction of its
 * cache, so construction costs the index, not sets x assoc frames of
 * zeroed storage.
 */
template <typename WordMeta = NoMeta, typename LineMeta = NoMeta>
class CacheArray
{
  public:
    struct Line
    {
        bool valid = false;
        Addr base = 0;                 ///< line-aligned address
        Cycles lastUse = 0;            ///< for LRU
        LineMeta meta{};
        /** wordsPerLine() entries each, in the line's slot chunk. */
        WordMeta *words = nullptr;
        ValueStamp *stamps = nullptr;
    };

    /**
     * @param data_bytes upper bound on simulated addresses, or 0 for
     * none. setOf() masks the line index by the set count, so when the
     * whole address range maps into the first N sets, the remaining sets
     * are unreachable and need not be indexed. Capping the set count at
     * the next power of two >= N leaves the set of every reachable
     * address unchanged.
     */
    CacheArray(const MachineConfig &cfg, Addr data_bytes = 0)
        : _lineBytes(cfg.lineBytes), _assoc(cfg.assoc),
          _sets(reachableSets(cfg, data_bytes)),
          _slotOf(_sets * _assoc, 0)
    {
        hscd_assert(isPowerOf2(_sets), "set count must be a power of two");
        hscd_assert(_slotOf.size() < UINT32_MAX,
                    "frame count must fit a 32-bit slot index");
    }

    Addr lineAddr(Addr a) const { return a & ~Addr(_lineBytes - 1); }
    unsigned wordIndex(Addr a) const { return (a % _lineBytes) / 4; }
    unsigned wordsPerLine() const
    {
        return static_cast<unsigned>(_lineBytes / 4);
    }

    /** Find a valid line holding @p addr; updates LRU on hit. */
    Line *
    lookup(Addr addr, Cycles now)
    {
        Line *l = find(addr);
        if (l && now > l->lastUse)
            l->lastUse = now;
        return l;
    }

    const Line *peek(Addr addr) const { return find(addr); }

    /**
     * Choose a victim frame for @p addr (LRU among the set; invalid frames
     * first, in way order). The caller inspects the returned line (valid
     * => eviction) and then initializes it. A never-filled frame gets its
     * slot here.
     */
    Line &
    victim(Addr addr, Cycles now)
    {
        Addr base = lineAddr(addr);
        std::size_t frame = setOf(base) * _assoc;
        Line *best = nullptr;
        for (unsigned w = 0; w < _assoc; ++w) {
            std::uint32_t s = _slotOf[frame + w];
            if (s == 0)
                return newSlot(frame + w);
            Line &l = slot(s);
            if (!l.valid)
                return l;
            if (!best || l.lastUse < best->lastUse)
                best = &l;
        }
        (void)now;
        return *best;
    }

    /**
     * Invalidate every line for which @p pred returns true, in frame
     * order. Templated (not std::function) so scheme epoch-boundary
     * sweeps inline the predicate instead of paying an indirect call per
     * line.
     */
    template <typename Pred>
    void
    invalidateIf(Pred &&pred)
    {
        forEachLine([&](Line &l) {
            if (pred(l))
                l.valid = false;
        });
    }

    /** Visit every valid line, in frame order. */
    template <typename Fn>
    void
    forEachLine(Fn &&fn)
    {
        for (std::uint32_t s : _slotOf)
            if (s != 0 && slot(s).valid)
                fn(slot(s));
    }

    /** Visit every valid line, read-only (post-mortem snapshots). */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        for (std::uint32_t s : _slotOf)
            if (s != 0 && slot(s).valid)
                fn(slot(s));
    }

    /** Frames in the array (sets x assoc), filled or not. */
    std::size_t lineCount() const { return _slotOf.size(); }

    /** Frames that have storage: those victim() has ever handed out. */
    std::size_t filledFrames() const { return _filled; }

  private:
    /** Slots per chunk. A chunk never moves once allocated. */
    static constexpr std::uint32_t kChunkSlots = 64;

    struct Chunk
    {
        explicit Chunk(unsigned wpl)
            : words(new WordMeta[std::size_t{kChunkSlots} * wpl]()),
              stamps(new ValueStamp[std::size_t{kChunkSlots} * wpl]())
        {
            for (std::uint32_t i = 0; i < kChunkSlots; ++i) {
                lines[i].words = words.get() + i * wpl;
                lines[i].stamps = stamps.get() + i * wpl;
            }
        }

        Line lines[kChunkSlots];
        std::unique_ptr<WordMeta[]> words;
        std::unique_ptr<ValueStamp[]> stamps;
    };

    static std::size_t
    reachableSets(const MachineConfig &cfg, Addr data_bytes)
    {
        std::size_t sets = cfg.sets();
        if (data_bytes == 0)
            return sets;
        Addr data_lines = divCeil(data_bytes, cfg.lineBytes);
        std::size_t reachable = std::size_t{1} << ceilLog2(data_lines);
        return reachable < sets ? reachable : sets;
    }

    std::size_t setOf(Addr base) const
    {
        return (base / _lineBytes) & (_sets - 1);
    }

    Line *
    find(Addr addr) const
    {
        Addr base = lineAddr(addr);
        std::size_t frame = setOf(base) * _assoc;
        for (unsigned w = 0; w < _assoc; ++w) {
            std::uint32_t s = _slotOf[frame + w];
            if (s == 0)
                continue;
            Line &l = slot(s);
            if (l.valid && l.base == base)
                return &l;
        }
        return nullptr;
    }

    /** The line of 1-based slot @p s (an _slotOf entry, never 0). */
    Line &
    slot(std::uint32_t s) const
    {
        return _chunks[(s - 1) / kChunkSlots]->lines[(s - 1) % kChunkSlots];
    }

    Line &
    newSlot(std::size_t frame)
    {
        if (_filled % kChunkSlots == 0)
            _chunks.push_back(std::make_unique<Chunk>(wordsPerLine()));
        _slotOf[frame] = static_cast<std::uint32_t>(++_filled);
        return slot(_slotOf[frame]);
    }

    unsigned _lineBytes;
    unsigned _assoc;
    std::size_t _sets;
    std::vector<std::uint32_t> _slotOf;  ///< frame -> 1-based slot, 0 = none
    std::vector<std::unique_ptr<Chunk>> _chunks;
    std::size_t _filled = 0;
};

} // namespace mem
} // namespace hscd

#endif // HSCD_MEM_CACHE_HH
