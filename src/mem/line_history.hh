/**
 * @file
 * Per-processor, per-memory-line history used to classify misses
 * (cold / replacement / true vs. false sharing / tag reset).
 */

#ifndef HSCD_MEM_LINE_HISTORY_HH
#define HSCD_MEM_LINE_HISTORY_HH

#include <vector>

#include "common/types.hh"
#include "mem/coherence.hh"

namespace hscd {
namespace mem {

enum class LineEvent : std::uint8_t
{
    NeverCached,
    Cached,
    Evicted,
    InvalidatedTrue,   ///< invalidating write hit a word we had used
    InvalidatedFalse,  ///< invalidating write hit a word we had not used
    InvalidatedTag,    ///< TPI two-phase reset victim
};

class LineHistory
{
  public:
    LineHistory(unsigned procs, Addr data_bytes, unsigned line_bytes)
        : _lineBytes(line_bytes), _linesPerProc(data_bytes / line_bytes + 1),
          _state(procs * _linesPerProc, LineEvent::NeverCached)
    {}

    LineEvent
    state(ProcId p, Addr addr) const
    {
        return _state[index(p, addr)];
    }

    void
    record(ProcId p, Addr addr, LineEvent e)
    {
        _state[index(p, addr)] = e;
    }

    /** Classify a miss that found no line in the cache. */
    MissClass
    classifyAbsent(ProcId p, Addr addr) const
    {
        switch (state(p, addr)) {
          case LineEvent::NeverCached:
            return MissClass::Cold;
          case LineEvent::Evicted:
            return MissClass::Replacement;
          case LineEvent::InvalidatedTrue:
            return MissClass::TrueShare;
          case LineEvent::InvalidatedFalse:
            return MissClass::FalseShare;
          case LineEvent::InvalidatedTag:
            return MissClass::TagReset;
          case LineEvent::Cached:
            // The frame was reused without an eviction record (should not
            // happen, but classify conservatively as replacement).
            return MissClass::Replacement;
        }
        return MissClass::Cold;
    }

  private:
    std::size_t
    index(ProcId p, Addr addr) const
    {
        return p * _linesPerProc + addr / _lineBytes;
    }

    unsigned _lineBytes;
    std::size_t _linesPerProc;
    std::vector<LineEvent> _state;  ///< procs rows of _linesPerProc
};

} // namespace mem
} // namespace hscd

#endif // HSCD_MEM_LINE_HISTORY_HH
