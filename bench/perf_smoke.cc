/**
 * @file
 * Perf-regression smoke gate for the simulation core (ctest label
 * "perf", see CMakePresets.json preset of the same name).
 *
 * Measures sustained simulated references per second for every scheme
 * on the P1 microbenchmark workload and compares against
 * the baseline in BENCH_p1.json:
 *
 *   perf_smoke [PATH]           check only; never writes PATH
 *   perf_smoke --record PATH    check, then record missing schemes and
 *                               ratchet up rates a run beats by > 5%
 *
 * The check fails when any scheme drops more than 30% below its
 * recorded rate; a scheme without a baseline (or no file at all) only
 * warns. Checking never writes, so a test run cannot move its own floor
 * (a lucky run would otherwise ratchet it up, and later runs flake
 * against it). Rates are the best of several short trials, and the
 * ctest entry is RUN_SERIAL, so transient machine load does not fail
 * the gate.
 *
 * The file is a flat JSON object of "NAME": rate pairs, one per
 * scheme; an unreadable or malformed file counts as no baseline.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "common/json.hh"
#include "compiler/analysis.hh"
#include "obs/metrics.hh"
#include "obs/timeline.hh"
#include "sim/machine.hh"
#include "workloads/workloads.hh"

using namespace hscd;

namespace {

constexpr double kFailBelowFraction = 0.70; ///< fail under 70% of baseline
constexpr double kObsOverheadLimitPct = 2.0; ///< observability cost ceiling

const SchemeKind kSchemes[] = {SchemeKind::Base, SchemeKind::SC,
                               SchemeKind::TPI, SchemeKind::HW,
                               SchemeKind::VC};

double
now()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

/** Best-of-trials sustained refs/s for one scheme. */
double
measure(const compiler::CompiledProgram &cp, SchemeKind k)
{
    MachineConfig cfg;
    cfg.scheme = k;
    cfg.procs = 8;
    (void)sim::simulate(cp, cfg); // warm up (builds the cached stream)

    double best = 0;
    for (int trial = 0; trial < 5; ++trial) {
        Counter refs = 0;
        double t0 = now(), elapsed = 0;
        do {
            sim::RunResult r = sim::simulate(cp, cfg);
            refs += r.reads + r.writes;
            elapsed = now() - t0;
        } while (elapsed < 0.06);
        best = std::max(best, double(refs) / elapsed);
    }
    return best;
}

std::map<std::string, double>
readBaseline(const std::string &path)
{
    std::map<std::string, double> out;
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    JsonValue doc;
    std::string error;
    if (!parseJson(text.str(), doc, error))
        return out;
    for (const auto &[name, rate] : doc.members)
        if (rate.isNumber())
            out[name] = rate.number;
    return out;
}

bool
writeBaseline(const std::string &path,
              const std::map<std::string, double> &rates)
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\n";
    std::size_t i = 0;
    for (const auto &[name, rate] : rates) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.0f", rate);
        os << "  \"" << name << "\": " << buf
           << (++i == rates.size() ? "\n" : ",\n");
    }
    os << "}\n";
    return bool(os);
}

/**
 * Observability-disabled overhead on TPI, percent (negative = noise).
 *
 * A disabled run pays only the branch guards in front of the hooks, so
 * the gate compares two configurations that differ in nothing else:
 * observers fully detached (null pointers) versus "armed but idle" - a
 * metrics recorder attached with an Off spec (every due-gate short-
 * circuits without recording) plus profiling (two clock reads per run).
 * The delta is the guard cost itself, and the gate catches the real
 * regression class: sampling or event work creeping in front of the
 * off-gates. Paired, interleaved, best-of-@p trials per side.
 */
double
obsOverheadPercent(const compiler::CompiledProgram &cp, int trials)
{
    MachineConfig cfg;
    cfg.scheme = SchemeKind::TPI;
    cfg.procs = 8;
    (void)sim::simulate(cp, cfg); // warm up (builds the cached stream)

    auto rate = [&](bool armed) {
        Counter refs = 0;
        double t0 = now(), elapsed = 0;
        do {
            sim::Machine m(cp, cfg);
            obs::MetricsRecorder idle(obs::MetricsSpec{}); // mode Off
            if (armed) {
                m.setMetrics(&idle);
                m.enableProfiling(true);
            }
            sim::RunResult r = m.run();
            refs += r.reads + r.writes;
            elapsed = now() - t0;
        } while (elapsed < 0.06);
        return double(refs) / elapsed;
    };

    double bestOff = 0, bestOn = 0;
    for (int t = 0; t < trials; ++t) { // interleaved: shares load drift
        bestOff = std::max(bestOff, rate(false));
        bestOn = std::max(bestOn, rate(true));
    }
    return 100.0 * (1.0 - bestOn / bestOff);
}

} // namespace

int
main(int argc, char **argv)
{
    const bool record = argc > 1 && std::strcmp(argv[1], "--record") == 0;
    if (argc > 2 + record) {
        std::fprintf(stderr, "usage: %s [--record] [BENCH_p1.json]\n",
                     argv[0]);
        return 2;
    }
    const std::string path =
        argc > 1 + record ? argv[1 + record] : "BENCH_p1.json";
    compiler::CompiledProgram cp =
        compiler::compileProgram(workloads::microJacobi(256, 4));

    std::map<std::string, double> baseline = readBaseline(path);
    std::map<std::string, double> measured;
    for (SchemeKind k : kSchemes)
        measured[schemeName(k)] = measure(cp, k);

    bool regressed = false;
    std::map<std::string, double> next = baseline;
    for (const auto &[name, rate] : measured) {
        auto it = baseline.find(name);
        if (it == baseline.end()) {
            std::printf("perf_smoke: %-5s %12.0f refs/s (no baseline - "
                        "%s)\n",
                        name.c_str(), rate,
                        record ? "recording" : "not checked");
            next[name] = rate;
            continue;
        }
        double floor = it->second * kFailBelowFraction;
        std::printf("perf_smoke: %-5s %12.0f refs/s (baseline %.0f, "
                    "floor %.0f)%s\n",
                    name.c_str(), rate, it->second, floor,
                    rate < floor ? "  REGRESSION" : "");
        if (rate < floor)
            regressed = true;
        else if (rate > it->second * 1.05)
            next[name] = rate; // ratchet up, but ignore run-to-run jitter
    }

    // Observability gate: with every observer off, the layer may cost
    // at most kObsOverheadLimitPct of TPI throughput. Perf gates this
    // tight are noise-prone, so a failing first estimate is confirmed
    // with a longer re-measure before it can fail the run.
    double obsPct = obsOverheadPercent(cp, 5);
    if (obsPct > kObsOverheadLimitPct)
        obsPct = obsOverheadPercent(cp, 12);
    std::printf("perf_smoke: obs-off overhead %+.2f%% (limit %.1f%%)%s\n",
                obsPct, kObsOverheadLimitPct,
                obsPct > kObsOverheadLimitPct ? "  REGRESSION" : "");
    if (obsPct > kObsOverheadLimitPct) {
        std::fprintf(stderr,
                     "perf_smoke: FAIL - disabled observability hooks "
                     "cost %.2f%% of TPI throughput on the P1 workload "
                     "(limit %.1f%%). The off-gates must stay in front "
                     "of all sampling work; see src/obs/.\n",
                     obsPct, kObsOverheadLimitPct);
        return 1;
    }

    if (regressed) {
        std::fprintf(stderr,
                     "perf_smoke: FAIL - at least one scheme is >%.0f%% "
                     "below its recorded refs/s baseline (%s). If the "
                     "slowdown is intentional, delete the file and "
                     "re-record it with --record.\n",
                     100.0 * (1.0 - kFailBelowFraction), path.c_str());
        return 1;
    }
    if (!record) {
        if (next != baseline)
            std::printf("perf_smoke: baseline %s left as is (check "
                        "only; `perf_smoke --record %s` records)\n",
                        path.c_str(), path.c_str());
        return 0;
    }
    if (next != baseline && !writeBaseline(path, next))
        std::fprintf(stderr,
                     "perf_smoke: warning: could not write %s "
                     "(read-only checkout?)\n",
                     path.c_str());
    return 0;
}
