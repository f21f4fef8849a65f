/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A span wraps one call from the benchmark into a layer's public
 * function. Its name is "<layer>.<call>", and it records start and end
 * on the steady clock, the enclosing span and the op it belongs to.
 * Spans stay in memory and are written out once, after the run. With
 * tracing off a Scope costs one predictable branch, so the untraced run
 * executes the same calls as the traced one.
 */

#ifndef HSCD_PERFBENCH_SPAN_HH
#define HSCD_PERFBENCH_SPAN_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Op id of spans recorded outside a timed op (set-up, replay). */
constexpr std::int64_t kNoOp = -1;

struct Span
{
    const char *name = "";      ///< static "<layer>.<call>"
    std::int64_t startNs = 0;   ///< since the tracer's origin
    std::int64_t endNs = 0;
    std::int32_t parent = -1;   ///< index into Tracer::spans, -1 = root
    std::int64_t op = kNoOp;

    std::int64_t durNs() const { return endNs - startNs; }
    /** The part of the name before the first '.'. */
    std::string layer() const;
};

class Tracer
{
  public:
    explicit Tracer(Clock::time_point origin) : _origin(origin) {}

    bool enabled = false;
    std::int64_t op = kNoOp;       ///< stamped on every new span
    std::vector<Span> spans;

    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - _origin)
            .count();
    }

    /** Opens a span on construction and closes it on destruction. */
    class Scope
    {
      public:
        Scope(Tracer &t, const char *name) : _t(t)
        {
            if (!t.enabled)
                return;
            _idx = static_cast<std::int32_t>(t.spans.size());
            t.spans.push_back({name, t.nowNs(), 0, t._open, t.op});
            t._open = _idx;
        }
        ~Scope()
        {
            if (_idx < 0)
                return;
            Span &s = _t.spans[static_cast<std::size_t>(_idx)];
            s.endNs = _t.nowNs();
            _t._open = s.parent;
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Index of the span in Tracer::spans, or -1 when disabled. */
        std::int32_t index() const { return _idx; }

      private:
        Tracer &_t;
        std::int32_t _idx = -1;
    };

    /** Chrome trace-event JSON (loads in Perfetto / chrome://tracing). */
    void writeChromeJson(std::ostream &os) const;

  private:
    Clock::time_point _origin;
    std::int32_t _open = -1;
};

/** Call @p f inside a span named @p name and return its result. */
template <class F>
decltype(auto)
inSpan(Tracer &t, const char *name, F &&f)
{
    Tracer::Scope s(t, name);
    return std::forward<F>(f)();
}

/**
 * Self time per layer: each span's duration minus the time its direct
 * children cover, summed by layer, over the spans whose op id passes
 * @p keep.
 */
template <class Keep>
std::map<std::string, std::int64_t>
selfNsByLayer(const std::vector<Span> &spans, Keep &&keep)
{
    std::vector<std::int64_t> childNs(spans.size(), 0);
    for (const Span &s : spans)
        if (s.parent >= 0)
            childNs[static_cast<std::size_t>(s.parent)] += s.durNs();
    std::map<std::string, std::int64_t> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (keep(spans[i].op))
            out[spans[i].layer()] += spans[i].durNs() - childNs[i];
    return out;
}

} // namespace perfbench

#endif // HSCD_PERFBENCH_SPAN_HH
