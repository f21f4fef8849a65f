/**
 * @file
 * Unit tests for the verification subsystem: the diagnostic engine
 * (stable ids, JSON rendering, werror exit codes, deterministic output
 * across parallel lint jobs), the HIR well-formedness lints, the
 * epoch-graph lints, and the marking pass's timetag saturation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/parallel.hh"
#include "compiler/analysis.hh"
#include "hir/builder.hh"
#include "verify/verify.hh"
#include "workloads/workloads.hh"

using namespace hscd;
using hir::ProgramBuilder;

namespace {

bool
hasDiag(const verify::DiagnosticEngine &d, const std::string &id)
{
    for (const verify::Diagnostic &diag : d.diagnostics())
        if (diag.id == id)
            return true;
    return false;
}

verify::DiagnosticEngine
lintBuilt(ProgramBuilder &b, const verify::LintOptions &opts = {})
{
    compiler::CompiledProgram cp = compiler::compileProgram(b.build());
    return verify::lintProgram(cp, "test", opts);
}

} // namespace

TEST(Diagnostics, CountsAndExitCodes)
{
    verify::DiagnosticEngine d("prog");
    EXPECT_EQ(d.exitCode(false), 0);
    EXPECT_EQ(d.exitCode(true), 0);

    d.report("HIR005", verify::Severity::Note, {}, "a note");
    EXPECT_EQ(d.notes(), 1u);
    EXPECT_EQ(d.exitCode(true), 0) << "notes never fail, even -Werror";

    d.report("HIR002", verify::Severity::Warning, {}, "a warning");
    EXPECT_EQ(d.exitCode(false), 0);
    EXPECT_EQ(d.exitCode(true), 1) << "warnings fail under -Werror";

    d.report("HIR001", verify::Severity::Error, {}, "an error");
    EXPECT_EQ(d.errors(), 1u);
    EXPECT_EQ(d.exitCode(false), 1);
    EXPECT_TRUE(d.failed(false));
}

TEST(Diagnostics, TextRenderingIsStable)
{
    verify::DiagnosticEngine d("p");
    verify::SourceLoc loc{"MAIN", 3, "A(i)"};
    d.report("GRAPH002", verify::Severity::Error, loc, "too far");
    const std::string text = d.renderText();
    EXPECT_NE(text.find("[GRAPH002]"), std::string::npos);
    EXPECT_NE(text.find("error"), std::string::npos);
    EXPECT_NE(text.find("A(i)"), std::string::npos);
    EXPECT_NE(text.find("1 error(s)"), std::string::npos);
}

TEST(Diagnostics, JsonEscaping)
{
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
    EXPECT_EQ(jsonEscape("a\rb"), "a\\rb");
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(Diagnostics, JsonSchema)
{
    verify::DiagnosticEngine d("qcd2");
    d.report("ORACLE001", verify::Severity::Error,
             verify::SourceLoc{"MAIN", 7, "A(i+1)"}, "msg \"quoted\"");
    d.report("HIR007", verify::Severity::Note, {}, "program scope");
    const std::string js = d.renderJson();
    EXPECT_NE(js.find("\"program\": \"qcd2\""), std::string::npos);
    EXPECT_NE(js.find("\"errors\": 1"), std::string::npos);
    EXPECT_NE(js.find("\"notes\": 1"), std::string::npos);
    EXPECT_NE(js.find("\"id\": \"ORACLE001\""), std::string::npos);
    EXPECT_NE(js.find("\"ref\": 7"), std::string::npos);
    EXPECT_NE(js.find("\"msg \\\"quoted\\\"\""), std::string::npos);
    // Program-scope diagnostics carry a null ref, not a sentinel int.
    EXPECT_NE(js.find("\"ref\": null"), std::string::npos);
}

TEST(Diagnostics, ParallelLintingIsByteIdentical)
{
    // The determinism contract the CLI inherits from the sweep engine:
    // rendering after a parallelMap in input order is byte-identical at
    // any job count.
    const std::vector<std::string> names = workloads::benchmarkNames();
    auto render = [&](unsigned jobs) {
        std::vector<std::string> out = parallelMap(
            jobs, names.size(), [&](std::size_t i) {
                compiler::CompiledProgram cp = compiler::compileProgram(
                    workloads::buildBenchmark(names[i], 1));
                verify::DiagnosticEngine d =
                    verify::lintProgram(cp, names[i]);
                return d.renderText() + d.renderJson();
            });
        std::string all;
        for (const std::string &s : out)
            all += s;
        return all;
    };
    const std::string serial = render(1);
    EXPECT_EQ(serial, render(4));
}

TEST(HirLints, UndefinedVariable)
{
    ProgramBuilder b;
    b.param("N", 8);
    b.array("A", {"N"});
    b.proc("MAIN", [&] { b.read("A", {b.v("nope")}); });
    auto d = lintBuilt(b);
    EXPECT_TRUE(hasDiag(d, "HIR001"));
    EXPECT_GE(d.errors(), 1u);
}

TEST(HirLints, CalleeMayUseCallerLoopVariable)
{
    // Virtual inlining: a callee using the caller's loop index is legal
    // and must NOT trigger HIR001.
    ProgramBuilder b;
    b.param("N", 8);
    b.array("A", {"N"});
    b.proc("KERNEL", [&] { b.read("A", {b.v("i")}); });
    b.proc("MAIN", [&] {
        b.doserial("i", 0, b.p("N") - 1, [&] { b.call("KERNEL"); });
    });
    auto d = lintBuilt(b);
    EXPECT_FALSE(hasDiag(d, "HIR001"));
}

TEST(HirLints, ShadowedVariable)
{
    ProgramBuilder b;
    b.param("N", 8);
    b.array("A", {"N"});
    b.proc("MAIN", [&] {
        b.doserial("i", 0, 3, [&] {
            b.doserial("i", 0, 3, [&] { b.read("A", {b.v("i")}); });
        });
    });
    auto d = lintBuilt(b);
    EXPECT_TRUE(hasDiag(d, "HIR002"));
    EXPECT_EQ(d.errors(), 0u);
    EXPECT_EQ(d.exitCode(true), 1);
}

TEST(HirLints, SubscriptOutOfBounds)
{
    ProgramBuilder b;
    b.param("N", 8);
    b.array("A", {"N"});
    b.proc("MAIN", [&] { b.read("A", {b.c(99)}); });
    auto d = lintBuilt(b);
    EXPECT_TRUE(hasDiag(d, "HIR003"));
}

TEST(HirLints, EmptyAndSingleTripDoall)
{
    ProgramBuilder b;
    b.param("N", 8);
    b.array("A", {"N"});
    b.proc("MAIN", [&] {
        b.doall("i", 5, 2, [&] { b.write("A", {b.v("i")}); });
        b.doall("j", 3, 3, [&] { b.write("A", {b.v("j")}); });
    });
    auto d = lintBuilt(b);
    EXPECT_TRUE(hasDiag(d, "HIR004"));
    EXPECT_TRUE(hasDiag(d, "HIR005"));
}

TEST(HirLints, SyncPairing)
{
    ProgramBuilder b;
    b.param("N", 8);
    b.array("A", {"N"});
    b.proc("MAIN", [&] {
        b.doall("i", 0, 3, [&] {
            b.write("A", {b.v("i")});
            b.post(b.c(3)); // never awaited -> HIR007
        });
    });
    auto d = lintBuilt(b);
    EXPECT_TRUE(hasDiag(d, "HIR007"));
    EXPECT_EQ(d.errors(), 0u);

    ProgramBuilder b2;
    b2.param("N", 8);
    b2.array("A", {"N"});
    b2.proc("MAIN", [&] {
        b2.doall("i", 0, 3, [&] {
            b2.post(b2.c(1));
            b2.wait(b2.c(9)); // never posted -> guaranteed deadlock
            b2.read("A", {b2.v("i")});
        });
    });
    auto d2 = lintBuilt(b2);
    EXPECT_TRUE(hasDiag(d2, "HIR006"));
    EXPECT_GE(d2.errors(), 1u);
}

TEST(GraphLints, DistanceExceedsTimetagWindow)
{
    // A hand-corrupted mark: distance 100 cannot be encoded in 4 bits.
    ProgramBuilder b;
    b.param("N", 8);
    b.array("A", {"N"});
    b.proc("MAIN", [&] {
        b.doall("i", 0, b.p("N") - 1, [&] { b.write("A", {b.v("i")}); });
        b.doall("j", 0, b.p("N") - 1, [&] { b.read("A", {b.v("j")}); });
    });
    compiler::CompiledProgram cp = compiler::compileProgram(b.build());
    const hir::RefId read_id = 1;
    ASSERT_FALSE(cp.program.refInfo(read_id).stmt->isWrite);
    cp.marking.overrideMark(
        read_id, compiler::Mark{compiler::MarkKind::TimeRead,
                                compiler::MarkReason::Stale, 100});
    verify::LintOptions opts;
    opts.timetagBits = 4;
    opts.runOracle = false;
    auto d = verify::lintProgram(cp, "t", opts);
    EXPECT_TRUE(hasDiag(d, "GRAPH002"));
}

TEST(GraphLints, UnjustifiedBypass)
{
    ProgramBuilder b;
    b.param("N", 8);
    b.array("A", {"N"});
    b.proc("MAIN", [&] {
        b.doall("i", 0, b.p("N") - 1, [&] { b.write("A", {b.v("i")}); });
        b.doall("j", 0, b.p("N") - 1, [&] { b.read("A", {b.v("j")}); });
    });
    compiler::CompiledProgram cp = compiler::compileProgram(b.build());
    // No critical section anywhere: Bypass(Critical) is unjustifiable.
    cp.marking.overrideMark(
        1, compiler::Mark{compiler::MarkKind::Bypass,
                          compiler::MarkReason::Critical, 0});
    verify::LintOptions opts;
    opts.runOracle = false;
    auto d = verify::lintProgram(cp, "t", opts);
    EXPECT_TRUE(hasDiag(d, "GRAPH003"));
}

TEST(MarkingClamp, DistanceSaturatesToTimetagWidth)
{
    // Distance from the write to the far read is 6 boundaries; with
    // 2-bit tags only d <= 3 is encodable, so the compiler saturates.
    auto build = [] {
        ProgramBuilder b;
        b.param("N", 8);
        b.array("A", {"N"});
        b.proc("MAIN", [&] {
            b.doall("i", 0, b.p("N") - 1,
                    [&] { b.write("A", {b.v("i")}); });
            b.barrier();
            b.barrier();
            b.barrier();
            b.barrier();
            b.doall("j", 0, b.p("N") - 1,
                    [&] { b.read("A", {b.v("j")}); });
        });
        return b.build();
    };

    compiler::AnalysisOptions wide;
    compiler::CompiledProgram cp_wide =
        compiler::compileProgram(build(), wide);
    const compiler::Mark &m_wide = cp_wide.marking.mark(1);
    ASSERT_EQ(m_wide.kind, compiler::MarkKind::TimeRead);
    EXPECT_EQ(m_wide.distance, 6u);

    compiler::AnalysisOptions narrow;
    narrow.timetagBits = 2;
    compiler::CompiledProgram cp_narrow =
        compiler::compileProgram(build(), narrow);
    const compiler::Mark &m_narrow = cp_narrow.marking.mark(1);
    ASSERT_EQ(m_narrow.kind, compiler::MarkKind::TimeRead);
    EXPECT_EQ(m_narrow.distance, 3u) << "saturated to 2^2 - 1";

    // And the saturated marking passes GRAPH002 at the same width.
    verify::LintOptions opts;
    opts.timetagBits = 2;
    auto d = verify::lintProgram(cp_narrow, "t", opts);
    EXPECT_FALSE(hasDiag(d, "GRAPH002"));
}

TEST(Workloads, AllSixLintCleanUnderWerror)
{
    for (const std::string &name : workloads::benchmarkNames()) {
        compiler::CompiledProgram cp = compiler::compileProgram(
            workloads::buildBenchmark(name, 1));
        auto d = verify::lintProgram(cp, name);
        EXPECT_EQ(d.exitCode(true), 0)
            << name << ":\n" << d.renderText();
    }
}
