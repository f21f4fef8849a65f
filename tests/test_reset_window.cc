/**
 * @file
 * Regression test for the two-phase tag-reset window: a narrower,
 * faster cousin of test_fastpath_equiv.cc aimed at one hand-written
 * interleaving that marches a program across several reset sweeps at a
 * 2-bit tag width (phase = 2 epochs).
 *
 * The program writes array A in an early epoch, spins through enough
 * unrelated epochs for A's timetags to be retired by the reset sweeps,
 * then reads A back. The op-stream executor must reproduce the
 * RunResult and, with observers attached, the event-identical timeline
 * (including the TagReset instants the sweeps emit) that the
 * per-reference interpreter recorded - not merely equal aggregate
 * counters. Regenerate the goldens with
 *
 *   HSCD_PRINT_GOLDEN=1 ./tests/hscd_tests \
 *       --gtest_filter='ResetWindow.*' 2>&1 | grep GOLDEN
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "golden_digest.hh"
#include "hir/builder.hh"
#include "obs/metrics.hh"
#include "obs/timeline.hh"
#include "sim/machine.hh"

using namespace hscd;
using hir::ProgramBuilder;

namespace {

/** Write A, idle across reset sweeps on B, then read A back. */
compiler::CompiledProgram
resetWindowProgram(int idle_epochs)
{
    ProgramBuilder b;
    b.array("A", {std::int64_t{16}});
    b.array("B", {std::int64_t{16}});
    b.proc("MAIN", [&] {
        // Epoch 1: seed A with fresh timetags across all processors.
        b.doall("i", 0, 15, [&] { b.write("A", {b.v("i")}); });
        // Idle epochs touching only B: A's tags age one epoch per
        // boundary and cross at least two phase boundaries.
        b.doserial("k", 0, idle_epochs - 1, [&] {
            b.doall("i", 0, 15, [&] {
                b.read("B", {b.v("i")});
                b.write("B", {b.v("i")});
            });
        });
        // Final epoch: the marked reads of A arrive after the sweeps
        // have retired its tags - the reset window under test.
        b.doall("i", 0, 15, [&] { b.read("A", {b.v("i")}); });
    });
    return compiler::compileProgram(b.build());
}

struct ObservedRun
{
    sim::RunResult result;
    std::vector<obs::Timeline::Event> events;
    std::vector<obs::MetricSample> rows;
};

ObservedRun
runObserved(const compiler::CompiledProgram &cp, const MachineConfig &cfg)
{
    sim::Machine m(cp, cfg);
    obs::Timeline tl;
    obs::MetricsRecorder rec(obs::MetricsSpec::parse("epoch"));
    m.setTimeline(&tl);
    m.setMetrics(&rec);
    ObservedRun out;
    out.result = m.run();
    out.events = tl.events();
    out.rows = rec.rows();
    return out;
}

MachineConfig
narrowTagConfig()
{
    MachineConfig cfg;
    cfg.scheme = SchemeKind::TPI;
    cfg.timetagBits = 2; // phase = 2 epochs: sweeps arrive quickly
    return cfg;
}

/** Result, timeline and metrics series of one run, as one digest. */
std::uint64_t
digestOf(const ObservedRun &run)
{
    testgolden::Digest d;
    d.mix(run.result);
    d.mixAll(run.events);
    d.mixAll(run.rows);
    return d.value();
}

// Recorded by the interpreter, per idle-epoch count.
const std::vector<testgolden::Golden> kResetGolden = {
    {"idle=6", 0xbdce39d15a00180aull},
    {"idle=4", 0x737ed87acc942f16ull},
    {"idle=8", 0x828f7e3c8a629b53ull},
};

} // namespace

TEST(ResetWindow, InterpreterAndFastPathEmitIdenticalTimelines)
{
    const compiler::CompiledProgram cp = resetWindowProgram(6);
    const ObservedRun run = runObserved(cp, narrowTagConfig());

    // The interleaving must genuinely cross the reset window: the final
    // reads of A miss with TagReset class, and the sweeps show up as
    // TagReset instants on the timeline.
    EXPECT_GT(run.result.missTagReset, 0u)
        << "program never reached the reset window";
    const auto isReset = [](const obs::Timeline::Event &e) {
        return e.kind == obs::Timeline::Kind::ResetWindow ||
               (e.kind == obs::Timeline::Kind::Instant &&
                e.sub == std::uint8_t(obs::Timeline::InstantKind::TagReset));
    };
    EXPECT_TRUE(std::any_of(run.events.begin(), run.events.end(),
                            isReset));
    ASSERT_FALSE(run.events.empty());
    EXPECT_TRUE(
        testgolden::matchesGolden(kResetGolden, "idle=6", digestOf(run)));
}

TEST(ResetWindow, SweepCountScalesWithIdleEpochs)
{
    // Sanity on the window geometry itself: lengthening the idle span
    // only adds reset work, and every length matches its golden.
    const MachineConfig cfg = narrowTagConfig();
    Counter prev = 0;
    for (int idle : {4, 6, 8}) {
        const compiler::CompiledProgram cp = resetWindowProgram(idle);
        const ObservedRun run = runObserved(cp, cfg);
        EXPECT_TRUE(testgolden::matchesGolden(
            kResetGolden, "idle=" + std::to_string(idle), digestOf(run)));
        EXPECT_GE(run.result.missTagReset, prev) << "idle=" << idle;
        prev = run.result.missTagReset;
    }
}
