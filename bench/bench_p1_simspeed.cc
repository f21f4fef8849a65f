/**
 * @file
 * P1: simulator throughput microbenchmarks (google-benchmark): how many
 * simulated memory references per second each subsystem sustains.
 */

#include <benchmark/benchmark.h>

#include "compiler/analysis.hh"
#include "sim/machine.hh"
#include "workloads/workloads.hh"

using namespace hscd;

namespace {

const compiler::CompiledProgram &
jacobi()
{
    static compiler::CompiledProgram cp =
        compiler::compileProgram(workloads::microJacobi(256, 4));
    return cp;
}

void
BM_SimulateScheme(benchmark::State &state)
{
    MachineConfig cfg;
    cfg.scheme = static_cast<SchemeKind>(state.range(0));
    cfg.procs = 8;
    Counter refs = 0;
    for (auto _ : state) {
        sim::RunResult r = sim::simulate(jacobi(), cfg);
        refs += r.reads + r.writes;
        benchmark::DoNotOptimize(r.cycles);
    }
    state.counters["refs/s"] = benchmark::Counter(
        double(refs), benchmark::Counter::kIsRate);
}

void
BM_CompileBenchmark(benchmark::State &state)
{
    const auto names = workloads::benchmarkNames();
    const std::string name = names[std::size_t(state.range(0))];
    for (auto _ : state) {
        compiler::CompiledProgram cp = compiler::compileProgram(
            workloads::buildBenchmark(name, 1));
        benchmark::DoNotOptimize(cp.program.refCount());
    }
    state.SetLabel(name);
}

void
BM_MarkingOnly(benchmark::State &state)
{
    hir::Program prog = workloads::buildBenchmark("QCD2", 1);
    compiler::EpochGraph graph = compiler::EpochGraph::build(prog);
    for (auto _ : state) {
        compiler::Marking m = compiler::Marking::run(prog, graph);
        benchmark::DoNotOptimize(m.stats().timeRead);
    }
}

} // namespace

BENCHMARK(BM_SimulateScheme)
    ->DenseRange(int(SchemeKind::Base), int(SchemeKind::VC));
BENCHMARK(BM_CompileBenchmark)->DenseRange(0, 5);
BENCHMARK(BM_MarkingOnly);

BENCHMARK_MAIN();
