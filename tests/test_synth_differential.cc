/**
 * @file
 * Differential scenario driver for the synthetic workload generators.
 *
 * For every family and seed, the generated program must (a) lint with
 * zero errors, (b) show zero under-markings against the stale-marking
 * oracle, (c) run shadow-clean (zero oracle / shadow-epoch / DOALL
 * violations) under TPI and SC, and (d) reproduce, across the whole
 * scheme matrix, the results that the per-reference interpreter
 * recorded before the op stream became the only issue path: one digest
 * of every seed's fingerprints per family. A generator that emits a
 * racy DOALL or a dishonest marking, or an executor that drifts from
 * the recorded results, fails here per family; (a)-(c) name the seed.
 *
 * Seed count: 200 per family by default; HSCD_SYNTH_SEEDS overrides
 * (the `synth.soak` ctest entry widens it to 500). The digest has a
 * golden at 200 and 500 seeds only. Regenerate with
 *
 *   HSCD_PRINT_GOLDEN=1 ./tests/hscd_tests \
 *       --gtest_filter='SynthDifferential.*' 2>&1 | grep GOLDEN
 */

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "common/log.hh"
#include "compiler/analysis.hh"
#include "golden_digest.hh"
#include "sim/machine.hh"
#include "verify/verify.hh"
#include "workloads/synth.hh"

using namespace hscd;
using namespace hscd::workloads;

namespace {

constexpr SchemeKind kAllSchemes[] = {SchemeKind::Base, SchemeKind::SC,
                                      SchemeKind::TPI, SchemeKind::HW,
                                      SchemeKind::VC};

unsigned
seedCount()
{
    if (const char *env = std::getenv("HSCD_SYNTH_SEEDS")) {
        const long v = std::atol(env);
        if (v > 0)
            return static_cast<unsigned>(v);
    }
    return 200;
}

// Recorded by the interpreter: per family, one digest of the
// fingerprints of every seed under every scheme at 8 processors.
const std::vector<testgolden::Golden> kFamilyGolden = {
    {"streaming/200", 0xf717addd9bec6e92ull},
    {"reuse/200", 0x6e2342a98895352bull},
    {"prodcons/200", 0x7dd37284b7d5fcd3ull},
    {"stencil/200", 0x3849d3127aea7981ull},
    {"migratory/200", 0xa51b2263920ac574ull},
    {"falseshare/200", 0x62bae9c5ed2c1379ull},
    {"streaming/500", 0x408d62e7922f2144ull},
    {"reuse/500", 0x9535de6f41aaeff2ull},
    {"prodcons/500", 0x2d3e7f589d04a3efull},
    {"stencil/500", 0x52dff9520ac08b5cull},
    {"migratory/500", 0x924072b24d1348c1ull},
    {"falseshare/500", 0x3772aeb81a6f1d07ull},
};

/** The full per-seed gauntlet for one family. */
void
runFamily(const std::string &family)
{
    const unsigned seeds = seedCount();
    testgolden::Digest digest;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        const std::string label =
            "synth:" + family + ":" + std::to_string(seed);
        compiler::CompiledProgram cp =
            compiler::compileProgram(buildSynth(family, seed, 1));

        // (a) lint-clean. The oracle runs once below, not inside lint.
        verify::LintOptions lo;
        lo.runOracle = false;
        verify::DiagnosticEngine d = verify::lintProgram(cp, label, lo);
        ASSERT_EQ(d.errors(), 0u) << label << ":\n" << d.renderText();

        // (b) zero under-markings: the generator's markings come from
        // the real Analysis pipeline and must be honest.
        verify::OracleReport rep = verify::oracleAnalyze(cp);
        ASSERT_TRUE(rep.underMarked.empty())
            << label << " under-marked ref " << rep.underMarked.front();

        // (d) every scheme, into the family digest.
        for (SchemeKind k : kAllSchemes) {
            MachineConfig cfg;
            cfg.scheme = k;
            cfg.procs = 8;
            digest.mix(sim::simulate(cp, cfg));
        }

        // (c) shadow-clean under the timetag schemes (sampled: the
        // shadow checker is the slow exact-epoch cross-check).
        if (seed % 17 == 1) {
            for (SchemeKind k : {SchemeKind::TPI, SchemeKind::SC}) {
                MachineConfig cfg;
                cfg.scheme = k;
                cfg.procs = 8;
                cfg.shadowEpochCheck = true;
                sim::RunResult r = sim::simulate(cp, cfg);
                EXPECT_EQ(r.oracleViolations, 0u)
                    << label << " " << schemeName(k);
                EXPECT_EQ(r.shadowViolations, 0u)
                    << label << " " << schemeName(k);
                EXPECT_EQ(r.doallViolations, 0u)
                    << label << " " << schemeName(k);
                EXPECT_FALSE(r.abort.aborted())
                    << label << " " << schemeName(k);
            }
        }
    }
    if (seeds == 200 || seeds == 500) {
        EXPECT_TRUE(testgolden::matchesGolden(
            kFamilyGolden, family + "/" + std::to_string(seeds),
            digest.value()));
    }
}

} // namespace

TEST(SynthDifferential, FamilyListComplete)
{
    const std::vector<std::string> fams = synthFamilies();
    ASSERT_EQ(fams.size(), 6u);
    for (const std::string &f : fams) {
        EXPECT_TRUE(isSynthFamily(f)) << f;
        EXPECT_TRUE(isSynthSpec("synth:" + f + ":1")) << f;
    }
    EXPECT_FALSE(isSynthFamily("ocean"));
    EXPECT_FALSE(isSynthSpec("trace:x"));
}

TEST(SynthDifferential, SpecParsing)
{
    SynthSpec s = parseSynthSpec("synth:stencil:42");
    EXPECT_EQ(s.family, "stencil");
    EXPECT_EQ(s.seed, 42u);
    EXPECT_EQ(s.str(), "synth:stencil:42");
    EXPECT_THROW(parseSynthSpec("synth:migratory"), FatalError);
    EXPECT_THROW(parseSynthSpec("synth:bogus:1"), FatalError);
    EXPECT_THROW(parseSynthSpec("synth:stencil:abc"), FatalError);
    EXPECT_THROW(parseSynthSpec("synth:"), FatalError);
    EXPECT_THROW(parseSynthSpec("gen:1"), FatalError);
    EXPECT_THROW(buildSynth("stencil", 1, 0), FatalError);
}

TEST(SynthDifferential, Streaming) { runFamily("streaming"); }
TEST(SynthDifferential, Reuse) { runFamily("reuse"); }
TEST(SynthDifferential, Prodcons) { runFamily("prodcons"); }
TEST(SynthDifferential, Stencil) { runFamily("stencil"); }
TEST(SynthDifferential, Migratory) { runFamily("migratory"); }
TEST(SynthDifferential, Falseshare) { runFamily("falseshare"); }
