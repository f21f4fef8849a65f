/**
 * @file
 * Golden results of the op-stream executor, and the one-stream cache.
 *
 * The executor used to have a second issue path, a per-reference HIR
 * interpreter, and these tests compared the two run for run. The
 * comparisons are now fingerprint goldens that the interpreter recorded
 * before it was deleted: the executor must still reproduce its results
 * byte for byte on every paper workload and scheme, on a 50-seed random
 * corpus, on every config axis that feeds the stream or the issue path,
 * and under dynamic self-scheduling, which only the interpreter used to
 * run.
 *
 * The exception is a program with an Alternate-policy branch inside a
 * DOALL body. The interpreter resolved such a branch in the
 * cross-processor interleaving, so the program's reference stream
 * depended on each scheme's timing. The recorded stream resolves it as
 * the loop would run serially, in iteration index order, and those
 * goldens were recorded from the stream (kAlternateSeeds).
 *
 * Regenerate a table with
 *
 *   HSCD_PRINT_GOLDEN=1 ./tests/hscd_tests \
 *       --gtest_filter='FastpathEquiv.*' 2>&1 | grep GOLDEN
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>
#include <vector>

#include "golden_digest.hh"
#include "hir/builder.hh"
#include "program_gen.hh"
#include "sim/machine.hh"
#include "sim/stream.hh"
#include "sim/trace.hh"
#include "workloads/workloads.hh"

using namespace hscd;
using namespace hscd::sim;
using testgolden::Digest;
using testgolden::Golden;
using testgolden::matchesGolden;

namespace {

MachineConfig
baseCfg(SchemeKind k, unsigned procs = 4)
{
    MachineConfig c;
    c.scheme = k;
    c.procs = procs;
    return c;
}

constexpr SchemeKind kAllSchemes[] = {SchemeKind::Base, SchemeKind::SC,
                                      SchemeKind::TPI, SchemeKind::HW,
                                      SchemeKind::VC};

constexpr SchedPolicy kAllScheds[] = {SchedPolicy::Block,
                                      SchedPolicy::Cyclic,
                                      SchedPolicy::Dynamic};

/**
 * Seeds in 1..60 whose randomLegalProgram has an Alternate-policy
 * branch inside a DOALL body: the shape the interpreter ran with
 * timing-dependent branch outcomes.
 */
const std::set<std::uint64_t> kAlternateSeeds = {
    3, 12, 15, 22, 29, 33, 38, 39, 42, 43, 44, 47, 48, 53};

compiler::CompiledProgram
genProgram(std::uint64_t seed)
{
    testgen::GenOptions opt;
    opt.seed = seed;
    return compiler::compileProgram(testgen::randomLegalProgram(opt));
}

// Recorded by the interpreter: fingerprint of each workload (scale 1)
// at 4 processors.
const std::vector<Golden> kBenchmarkGolden = {
    {"ADM/BASE", 0x5b03ac3616c0acc5ull},
    {"ADM/SC", 0x6a8e9511a6c35352ull},
    {"ADM/TPI", 0x8dd4cb659d962da7ull},
    {"ADM/HW", 0xcf1a50973e3150deull},
    {"ADM/VC", 0xbab8d281ad6bc7d5ull},
    {"FLO52/BASE", 0xacb0bf3e8f1ad6d8ull},
    {"FLO52/SC", 0xce258409cbe617c3ull},
    {"FLO52/TPI", 0x6195b65569a4abfcull},
    {"FLO52/HW", 0x74204521b95ff018ull},
    {"FLO52/VC", 0x7c16f2563d0c0fadull},
    {"OCEAN/BASE", 0x3bde3421304a6c09ull},
    {"OCEAN/SC", 0x5150a6cc2552864dull},
    {"OCEAN/TPI", 0xac99758b09214b0full},
    {"OCEAN/HW", 0x9dd346b5ff788c19ull},
    {"OCEAN/VC", 0x051075bb98a74fb3ull},
    {"QCD2/BASE", 0xb57c8deed9776a14ull},
    {"QCD2/SC", 0x192347ac126f9985ull},
    {"QCD2/TPI", 0x37f6dc944741f61aull},
    {"QCD2/HW", 0x06792a3641f76f19ull},
    {"QCD2/VC", 0xccfefac85ffdf062ull},
    {"SPEC77/BASE", 0xde4f3f5f1d3ecd1full},
    {"SPEC77/SC", 0x6b4342f2f0b1df94ull},
    {"SPEC77/TPI", 0xb77871b2fbf3a9ccull},
    {"SPEC77/HW", 0x6b4e449af95398b4ull},
    {"SPEC77/VC", 0x465ae56bfd1fa7eeull},
    {"TRFD/BASE", 0x130e0fe097aa7d8eull},
    {"TRFD/SC", 0x02159e8c900fdb11ull},
    {"TRFD/TPI", 0xd6fc0138cc7428c1ull},
    {"TRFD/HW", 0xd29ec0f871da255cull},
    {"TRFD/VC", 0xf6fdb5e5ac4f96acull},
};

// Recorded by the interpreter: the seeds 1..50 outside kAlternateSeeds,
// one digest of their fingerprints per scheme.
const std::vector<Golden> kCorpusGolden = {
    {"corpus/BASE", 0xfab99fc55de5cd1dull},
    {"corpus/SC", 0x476468320c33b704ull},
    {"corpus/TPI", 0x26dc393f854bd6d5ull},
    {"corpus/HW", 0x7111d3c4b378c2fdull},
    {"corpus/VC", 0x2faffef83b448800ull},
};

// Recorded by the interpreter: randomLegalProgram seed 7 under each
// config axis.
const std::vector<Golden> kConfigGolden = {
    {"gen7/SC/cyclic", 0x4c0a3320369bc608ull},
    {"gen7/SC/procs=8", 0x581ec92805cd9f7aull},
    {"gen7/SC/migration", 0xe5b4c352e6286192ull},
    {"gen7/SC/flushAtCalls", 0x3c3b867b48b53c7aull},
    {"gen7/SC/seqConsistency", 0xe9d23887ac37b784ull},
    {"gen7/SC/shadowEpochCheck", 0xe5b4c352e6286192ull},
    {"gen7/SC/writeBufferAsCache", 0x74e430c1ec51c81aull},
    {"gen7/TPI/cyclic", 0xdedf2d2d05aeeb11ull},
    {"gen7/TPI/procs=8", 0x3db601c30afe4cdeull},
    {"gen7/TPI/migration", 0x356391547542965aull},
    {"gen7/TPI/flushAtCalls", 0xa273e74c079db987ull},
    {"gen7/TPI/seqConsistency", 0xc6a04874e90a8da0ull},
    {"gen7/TPI/shadowEpochCheck", 0x356391547542965aull},
    {"gen7/TPI/writeBufferAsCache", 0xacfbb2ef1240dbaeull},
    {"gen7/HW/cyclic", 0x4817a9cc34ab091dull},
    {"gen7/HW/procs=8", 0x2d483db853813372ull},
    {"gen7/HW/migration", 0x5e08760628b4d633ull},
    {"gen7/HW/flushAtCalls", 0xa56d425c91f4ae53ull},
    {"gen7/HW/seqConsistency", 0x2cf73143fb997f26ull},
    {"gen7/HW/shadowEpochCheck", 0x5e08760628b4d633ull},
    {"gen7/HW/writeBufferAsCache", 0x5e08760628b4d633ull},
};

// Recorded by the interpreter: dynamic self-scheduling of the first
// workload at chunk sizes 1 and 4.
const std::vector<Golden> kDynamicGolden = {
    {"ADM/BASE/chunk1", 0x5b03ac3616c0acc5ull},
    {"ADM/SC/chunk1", 0xa9900ed83d89065full},
    {"ADM/TPI/chunk1", 0x2791910b8c23e2c7ull},
    {"ADM/HW/chunk1", 0x89510bd5a7db6c18ull},
    {"ADM/VC/chunk1", 0xb0d7cd6ef9b4a101ull},
    {"ADM/BASE/chunk4", 0x6d50d3fa3ac6c087ull},
    {"ADM/SC/chunk4", 0x7e46e8b1f5984d42ull},
    {"ADM/TPI/chunk4", 0x5c00f0696d238fb0ull},
    {"ADM/HW/chunk4", 0x20d5406c6efd8afaull},
    {"ADM/VC/chunk4", 0xa186ab9e2101348full},
};

// Recorded by the stream executor: the kAlternateSeeds programs, one
// digest of their fingerprints per scheme and schedule.
const std::vector<Golden> kAlternateGolden = {
    {"alternate/BASE/block", 0x7b2b75655c47a0e7ull},
    {"alternate/BASE/cyclic", 0xbda0244a2aca24dcull},
    {"alternate/BASE/dynamic", 0xce5cdcf3f5359a1dull},
    {"alternate/HW/block", 0xb89f187a1584f1f9ull},
    {"alternate/HW/cyclic", 0x57d0755fa8afcf93ull},
    {"alternate/HW/dynamic", 0x220d4054e2c718a2ull},
    {"alternate/SC/block", 0x6a0d8a6934ee9aebull},
    {"alternate/SC/cyclic", 0x4ac0a8baabb8f531ull},
    {"alternate/SC/dynamic", 0x96d6f3044ce027ebull},
    {"alternate/TPI/block", 0x239f57bd7bc49597ull},
    {"alternate/TPI/cyclic", 0x256bee76368cac32ull},
    {"alternate/TPI/dynamic", 0xa54f017638755be0ull},
    {"alternate/VC/block", 0xef107b8e7d9a6148ull},
    {"alternate/VC/cyclic", 0x74d93bed4e740831ull},
    {"alternate/VC/dynamic", 0x464a73824c92b40aull},
};

} // namespace

/** Every paper workload (scale 1), every scheme. */
TEST(FastpathEquiv, BenchmarksAllSchemes)
{
    for (const std::string &name : workloads::benchmarkNames()) {
        compiler::CompiledProgram cp =
            compiler::compileProgram(workloads::buildBenchmark(name, 1));
        for (SchemeKind k : kAllSchemes)
            EXPECT_TRUE(matchesGolden(
                kBenchmarkGolden, name + "/" + schemeName(k),
                simulate(cp, baseCfg(k)).fingerprint()));
    }
}

/** 50-seed random legal-DOALL corpus, one digest per scheme. */
TEST(FastpathEquiv, FuzzCorpus)
{
    std::map<SchemeKind, Digest> digests;
    unsigned programs = 0;
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        if (kAlternateSeeds.count(seed))
            continue;
        ++programs;
        compiler::CompiledProgram cp = genProgram(seed);
        for (SchemeKind k : kAllSchemes)
            digests[k].mix(simulate(cp, baseCfg(k)));
    }
    EXPECT_EQ(programs, 37u);
    for (SchemeKind k : kAllSchemes)
        EXPECT_TRUE(matchesGolden(kCorpusGolden,
                                  std::string("corpus/") + schemeName(k),
                                  digests[k].value()));
}

/** Config dimensions that feed the stream or the issue path. */
TEST(FastpathEquiv, ConfigVariations)
{
    compiler::CompiledProgram cp = genProgram(7);
    struct Axis
    {
        const char *name;
        void (*apply)(MachineConfig &);
    };
    const Axis axes[] = {
        {"cyclic", [](MachineConfig &c) { c.sched = SchedPolicy::Cyclic; }},
        {"procs=8", [](MachineConfig &c) { c.procs = 8; }},
        {"migration", [](MachineConfig &c) { c.migrationRate = 0.5; }},
        {"flushAtCalls", [](MachineConfig &c) { c.flushAtCalls = true; }},
        {"seqConsistency",
         [](MachineConfig &c) { c.sequentialConsistency = true; }},
        {"shadowEpochCheck",
         [](MachineConfig &c) { c.shadowEpochCheck = true; }},
        {"writeBufferAsCache",
         [](MachineConfig &c) { c.writeBufferAsCache = true; }},
    };
    for (SchemeKind k : {SchemeKind::SC, SchemeKind::TPI, SchemeKind::HW}) {
        for (const Axis &axis : axes) {
            MachineConfig cfg = baseCfg(k);
            axis.apply(cfg);
            EXPECT_TRUE(matchesGolden(
                kConfigGolden,
                std::string("gen7/") + schemeName(k) + "/" + axis.name,
                simulate(cp, cfg).fingerprint()));
        }
    }
}

/**
 * Dynamic self-scheduling replays the same stream as block and cyclic,
 * handing out chunks as processors finish them.
 */
TEST(FastpathEquiv, DynamicSchedGolden)
{
    const std::string name = workloads::benchmarkNames().front();
    compiler::CompiledProgram cp =
        compiler::compileProgram(workloads::buildBenchmark(name, 1));
    for (unsigned chunk : {1u, 4u}) {
        for (SchemeKind k : kAllSchemes) {
            MachineConfig cfg = baseCfg(k);
            cfg.sched = SchedPolicy::Dynamic;
            cfg.dynamicChunk = chunk;
            EXPECT_TRUE(matchesGolden(
                kDynamicGolden,
                name + "/" + schemeName(k) + "/chunk" +
                    std::to_string(chunk),
                simulate(cp, cfg).fingerprint()));
        }
    }
}

/**
 * An Alternate-policy branch inside a DOALL resolves as if the loop ran
 * serially in index order: the then-arm on even iterations. So every
 * scheme, processor count and schedule reads exactly the even elements,
 * each before the iteration's write.
 */
TEST(FastpathEquiv, AlternateInDoallResolvesInIndexOrder)
{
    hir::ProgramBuilder b;
    b.param("N", 32);
    b.array("A", {"N"});
    b.proc("MAIN", [&] {
        b.doall("i", 0, 31, [&] {
            b.ifUnknown(hir::TakePolicy::Alternate,
                        [&] { b.read("A", {b.v("i")}); },
                        [&] { b.compute(2); });
            b.write("A", {b.v("i")});
        });
    });
    const compiler::CompiledProgram cp = compiler::compileProgram(b.build());
    const hir::Program &prog = cp.program;
    const hir::ArrayId a = prog.findArray("A");
    std::map<Addr, std::int64_t> index;
    for (std::int64_t i = 0; i < 32; ++i)
        index[prog.elementAddr(a, {i})] = i;

    for (SchemeKind k : kAllSchemes) {
        for (unsigned procs : {1u, 4u, 16u}) {
            for (SchedPolicy sched : kAllScheds) {
                MachineConfig cfg = baseCfg(k, procs);
                cfg.sched = sched;
                Machine m(cp, cfg);
                TraceBuffer buf;
                m.setTraceSink(&buf);
                m.run();
                std::vector<std::string> seen(32);
                for (const TraceRecord &r : buf.records()) {
                    if (r.type != TraceRecord::Type::Access)
                        continue;
                    ASSERT_TRUE(index.count(r.op.addr));
                    seen[index[r.op.addr]] += r.op.write ? 'W' : 'R';
                }
                for (std::int64_t i = 0; i < 32; ++i)
                    EXPECT_EQ(seen[i], i % 2 == 0 ? "RW" : "W")
                        << cfg.str() << " iteration " << i;
            }
        }
    }
}

/**
 * The generator emits Alternate-policy branches inside DOALL bodies
 * (tests/program_gen.hh). Those programs stay legal and oracle-clean,
 * and their results are pinned per scheme and schedule.
 */
TEST(FastpathEquiv, GeneratedAlternateInDoallGolden)
{
    ASSERT_FALSE(kAlternateSeeds.empty());
    std::map<std::string, Digest> digests;
    for (std::uint64_t seed : kAlternateSeeds) {
        compiler::CompiledProgram cp = genProgram(seed);
        for (SchemeKind k : kAllSchemes) {
            for (SchedPolicy sched : kAllScheds) {
                MachineConfig cfg = baseCfg(k);
                cfg.sched = sched;
                const RunResult r = simulate(cp, cfg);
                EXPECT_EQ(r.oracleViolations, 0u)
                    << "gen:" << seed << " " << cfg.str();
                EXPECT_EQ(r.doallViolations, 0u)
                    << "gen:" << seed << " " << cfg.str();
                digests[std::string("alternate/") + schemeName(k) + "/" +
                        schedName(sched)]
                    .mix(r);
            }
        }
    }
    for (const auto &[name, d] : digests)
        EXPECT_TRUE(matchesGolden(kAlternateGolden, name, d.value()));
}

/**
 * A program records one stream, whatever the processor count or
 * schedule: every lookup after the first is a hit on the same object.
 */
TEST(FastpathEquiv, OneStreamPerProgram)
{
    compiler::CompiledProgram cp = compiler::compileProgram(
        workloads::buildBenchmark(workloads::benchmarkNames().front(), 1));
    const StreamCacheStats before = streamCacheStats();
    const StreamProgram *first = nullptr;
    for (unsigned procs : {4u, 16u, 64u}) {
        for (SchedPolicy sched : kAllScheds) {
            MachineConfig cfg = baseCfg(SchemeKind::TPI, procs);
            cfg.sched = sched;
            const std::shared_ptr<const StreamProgram> sp =
                epochStream(cp, cfg);
            ASSERT_NE(sp, nullptr) << cfg.str();
            if (!first)
                first = sp.get();
            EXPECT_EQ(sp.get(), first) << cfg.str();
        }
    }
    const StreamCacheStats after = streamCacheStats();
    EXPECT_EQ(after.builds - before.builds, 1u);
    EXPECT_EQ(after.hits - before.hits, 8u);
}

/**
 * The stream slot lives on the shared CompiledProgram. Concurrent first
 * lookups under different configs must build it once and reuse it
 * without races (also runs under TSan via the tsan ctest label).
 */
TEST(FastpathEquiv, OneStreamSlotSharedAcrossThreads)
{
    const std::string name = workloads::benchmarkNames().front();
    const compiler::CompiledProgram reference =
        compiler::compileProgram(workloads::buildBenchmark(name, 1));

    struct Cell
    {
        MachineConfig cfg;
        RunResult expect;
    };
    std::vector<Cell> cells;
    for (SchemeKind k : kAllSchemes) {
        for (unsigned procs : {2u, 4u, 8u}) {
            Cell c;
            c.cfg = baseCfg(k, procs);
            c.cfg.sched = kAllScheds[cells.size() % 3];
            c.expect = simulate(reference, c.cfg);
            cells.push_back(c);
        }
    }

    // A fresh program, so the threads race on the slot's first build.
    const compiler::CompiledProgram cp =
        compiler::compileProgram(workloads::buildBenchmark(name, 1));
    const StreamCacheStats before = streamCacheStats();
    std::vector<RunResult> got(cells.size());
    std::vector<const StreamProgram *> streams(cells.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < cells.size(); ++i)
        threads.emplace_back([&, i] {
            streams[i] = epochStream(cp, cells[i].cfg).get();
            got[i] = simulate(cp, cells[i].cfg);
        });
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(streamCacheStats().builds - before.builds, 1u);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(streams[i], streams[0]) << i;
        EXPECT_TRUE(got[i] == cells[i].expect) << cells[i].cfg.str();
    }
}
