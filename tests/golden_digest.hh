/**
 * @file
 * Order-sensitive digests of run artifacts, for golden tables.
 *
 * A digest folds a whole artifact - a RunResult's fingerprint, a
 * timeline's events, a metrics series, a captured trace - into one
 * 64-bit FNV-1a value, so a test can pin "this run emits exactly these
 * events in exactly this order" in one table row. Golden tables print
 * their rows under HSCD_PRINT_GOLDEN=1 in the form they are written in,
 * so an intentional change regenerates them with, for example,
 *
 *   HSCD_PRINT_GOLDEN=1 ./tests/hscd_tests \
 *       --gtest_filter='FastpathEquiv.*' 2>&1 | grep GOLDEN
 */

#ifndef HSCD_TESTS_GOLDEN_DIGEST_HH
#define HSCD_TESTS_GOLDEN_DIGEST_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hh"
#include "obs/timeline.hh"
#include "sim/result.hh"
#include "sim/trace.hh"

namespace hscd {
namespace testgolden {

class Digest
{
  public:
    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            _h ^= (v >> (8 * i)) & 0xff;
            _h *= 0x100000001b3ULL;
        }
    }

    void
    mixDouble(double d)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        mix(bits);
    }

    void mix(const sim::RunResult &r) { mix(r.fingerprint()); }

    void
    mix(const obs::Timeline::Event &e)
    {
        mix(static_cast<std::uint64_t>(e.kind));
        mix(e.sub); mix(e.mark); mix(e.track); mix(e.epoch);
        mix(e.ts); mix(e.dur); mix(e.addr); mix(e.arg);
    }

    void
    mix(const obs::MetricSample &s)
    {
#define HSCD_GOLDEN_MIX_METRIC(name) mix(s.name);
        HSCD_METRIC_U64_FIELDS(HSCD_GOLDEN_MIX_METRIC)
#undef HSCD_GOLDEN_MIX_METRIC
        mixDouble(s.networkLoad);
    }

    void
    mix(const sim::TraceRecord &t)
    {
        mix(static_cast<std::uint64_t>(t.type));
        mix(t.epoch);
        if (t.type != sim::TraceRecord::Type::Access)
            return;
        const mem::MemOp &op = t.op;
        mix(op.proc); mix(op.addr); mix(op.write); mix(op.arrayId);
        mix(static_cast<std::uint64_t>(op.mark)); mix(op.distance);
        mix(op.stamp); mix(op.now); mix(op.critical);
    }

    template <class T>
    void
    mixAll(const std::vector<T> &v)
    {
        mix(v.size());
        for (const T &x : v)
            mix(x);
    }

    std::uint64_t value() const { return _h; }

  private:
    std::uint64_t _h = 0xcbf29ce484222325ULL;
};

/** One named row of a golden table. */
struct Golden
{
    const char *name;
    unsigned long long value;
};

/**
 * Does @p got match the row of @p table named @p name? Under
 * HSCD_PRINT_GOLDEN=1 also prints the row as it should be written.
 */
inline ::testing::AssertionResult
matchesGolden(const std::vector<Golden> &table, const std::string &name,
              std::uint64_t got)
{
    if (std::getenv("HSCD_PRINT_GOLDEN"))
        std::printf("GOLDEN     {\"%s\", 0x%016llxull},\n", name.c_str(),
                    static_cast<unsigned long long>(got));
    for (const Golden &g : table) {
        if (name != g.name)
            continue;
        if (g.value == got)
            return ::testing::AssertionSuccess();
        return ::testing::AssertionFailure()
               << name << ": digest " << std::hex << got
               << " != golden " << g.value;
    }
    return ::testing::AssertionFailure() << name << ": no golden row";
}

} // namespace testgolden
} // namespace hscd

#endif // HSCD_TESTS_GOLDEN_DIGEST_HH
