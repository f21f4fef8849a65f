/**
 * @file
 * hscd_mc: exhaustive model checker for TPI + two-phase reset.
 *
 * Explores every interleaving of a small TPI machine (2-3 processors,
 * a few words, 1-3 timetag bits) under the compiler's conflict-freedom
 * contract, including every firing pattern of a bounded fault budget
 * (mem.tag flips, mem.epoch flushes, net.drop retry/abort), and checks:
 *
 *   - no-stale-read: a read hit never returns a stale value unless an
 *     injected fault raised a tag (the documented oracle escape hatch);
 *   - bounded-tag-age + modular-agreement: the two-phase reset schedule
 *     keeps every consultable tag within one modular period, so n-bit
 *     hardware tag arithmetic never wraps into a false hit;
 *   - deadlock-freedom and the bounded-liveness verdict: exploration
 *     exhausts the space and every terminal state either completed the
 *     horizon or carries a structured protocol abort.
 *
 * A violation is emitted as the shortest action path and replayed
 * through the real TpiScheme (scripted faults at exact injection
 * opportunities) to confirm the implementation reproduces it. Clean
 * runs still cross-check a batch of pseudo-random full paths against
 * the implementation, outcome by outcome, so the model cannot silently
 * drift away from the code it abstracts.
 *
 *   hscd_mc                                  # 2p/2w/1-bit, no faults
 *   hscd_mc --faults 1 --sites mem,net.drop  # every 1-fault pattern
 *   hscd_mc --procs 3 --words 4 --bits 2 --json out.json
 *
 * Exit codes follow the verify::ExitCode contract: 0 clean exhaustive
 * verdict, 1 state-capped (not exhaustive), 2 usage error (including a
 * --max-states above the explorer's 32-bit node id space), 3 invariant
 * violation or model/implementation divergence, 5 harness error.
 *
 * Host cost: the explore's wall time, thread CPU time and states per
 * CPU-second are printed and written to the JSON report as its "host"
 * object. "host" is the only JSON content that varies between
 * identical runs; everything else is a pure function of the options.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/log.hh"
#include "common/strutil.hh"
#include "fault/plan.hh"
#include "mc/explorer.hh"
#include "mc/replay.hh"
#include "obs/provenance.hh"
#include "verify/diagnostic.hh"

namespace {

using namespace hscd;

struct CliOptions
{
    mc::McConfig model;
    std::string sitesSpec = "all";
    bool symmetry = true;
    std::uint64_t maxStates = 8'000'000;
    std::uint64_t xcheck = 32;
    bool verbose = false;
    std::string jsonPath;
};

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "\n"
        "Exhaustively model-checks the TPI timetag protocol: explores\n"
        "every legal interleaving (and every fault firing pattern, when\n"
        "a budget is given) of a small machine, checks the no-stale-read\n"
        "and timetag-wraparound invariants, and cross-checks paths\n"
        "against the real TpiScheme via scripted trace replay.\n"
        "\n"
        "Options:\n"
        "  --procs N       processors, 2..3 (default 2)\n"
        "  --words N       shared words, 1..4 (default 2)\n"
        "  --line-words N  words per cache line (default 2)\n"
        "  --bits N        timetag bits, 1..3 (default 1)\n"
        "  --epochs N      explored horizon (default 2*2^bits+1)\n"
        "  --ops N         references per processor per epoch (default 2)\n"
        "  --faults N      injected-fault budget per run, 0..2 (default 0)\n"
        "  --sites SPEC    fault sites (mem, net.drop, mem.tag, all, ...)\n"
        "  --no-critical   skip lock-ordered (critical) writes\n"
        "  --no-promote    model tpiPromoteOnHit=false machines\n"
        "  --no-symmetry   disable processor symmetry reduction\n"
        "  --max-states N  abandon past N states (default 8000000,\n"
        "                  at most 4294967295)\n"
        "  --xcheck N      random full paths replayed on the real scheme\n"
        "                  (default 32; 0 disables)\n"
        "  --json PATH     write a machine-readable verdict to PATH\n"
        "  --verbose       print per-phase detail\n"
        "  --help          this text\n",
        argv0);
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: %s requires an argument\n",
                             argv[0], flag);
                std::exit(verify::ExitUsage);
            }
            return argv[++i];
        };
        // Every count fits 32 bits: explorer node ids are uint32_t, and
        // a larger double would not convert to an integer defined.
        auto number = [&](const char *flag) {
            const std::string v = value(flag);
            constexpr double kMax =
                std::numeric_limits<std::uint32_t>::max();
            char *end = nullptr;
            double d = std::strtod(v.c_str(), &end);
            if (end == v.c_str() || *end != '\0' ||
                !(d >= 0 && d <= kMax))
            {
                std::fprintf(stderr, "%s: bad %s value '%s' (0..%.0f)\n",
                             argv[0], flag, v.c_str(), kMax);
                std::exit(verify::ExitUsage);
            }
            return d;
        };
        if (a == "--help" || a == "-h") {
            usage(argv[0]);
            std::exit(verify::ExitSuccess);
        } else if (a == "--procs") {
            opt.model.procs = unsigned(number("--procs"));
        } else if (a == "--words") {
            opt.model.words = unsigned(number("--words"));
        } else if (a == "--line-words") {
            opt.model.lineWords = unsigned(number("--line-words"));
        } else if (a == "--bits") {
            opt.model.timetagBits = unsigned(number("--bits"));
        } else if (a == "--epochs") {
            opt.model.horizonEpochs = unsigned(number("--epochs"));
        } else if (a == "--ops") {
            opt.model.opsPerEpoch = unsigned(number("--ops"));
        } else if (a == "--faults") {
            opt.model.faultBudget = unsigned(number("--faults"));
        } else if (a == "--sites") {
            opt.sitesSpec = value("--sites");
            try {
                opt.model.faultSites =
                    fault::FaultPlan::parse("1:1:" + opt.sitesSpec).sites;
            } catch (const FatalError &) {
                std::exit(verify::ExitUsage);
            }
        } else if (a == "--no-critical") {
            opt.model.allowCritical = false;
        } else if (a == "--no-promote") {
            opt.model.promote = false;
        } else if (a == "--no-symmetry") {
            opt.symmetry = false;
        } else if (a == "--max-states") {
            opt.maxStates = std::uint64_t(number("--max-states"));
        } else if (a == "--xcheck") {
            opt.xcheck = std::uint64_t(number("--xcheck"));
        } else if (a == "--json") {
            opt.jsonPath = value("--json");
        } else if (a == "--verbose") {
            opt.verbose = true;
        } else {
            std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0],
                         a.c_str());
            usage(argv[0]);
            std::exit(verify::ExitUsage);
        }
    }
    return opt;
}

/** Host cost of the exploration (the only run-to-run varying output). */
struct HostCost
{
    double wallMs = 0;
    double cpuMs = 0;
    double statesPerS = 0; ///< states per thread-CPU second
};

double
clockMs(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return double(ts.tv_sec) * 1e3 + double(ts.tv_nsec) * 1e-6;
}

struct XcheckTally
{
    std::uint64_t paths = 0;
    std::uint64_t outcomes = 0;
    bool ok = true;
    std::string detail;
};

void
writeJsonReport(const CliOptions &opt, const mc::ExploreResult &res,
                const HostCost &host, const XcheckTally &xc,
                const char *verdict, bool cexReplayOk)
{
    std::ofstream os(opt.jsonPath);
    if (!os) {
        warn("cannot write --json file '%s'", opt.jsonPath);
        return;
    }
    const mc::McConfig &m = opt.model;

    obs::Provenance prov;
    prov.schema = "hscd-mc";
    prov.tool = "mc";
    prov.configHash = obs::fnv1a(csprintf(
        "%s:sites=%s:sym=%d:cap=%d:xcheck=%d", m.str(), opt.sitesSpec,
        opt.symmetry ? 1 : 0, opt.maxStates, opt.xcheck));
    prov.faultSpec = m.faultBudget == 0
                         ? "off"
                         : csprintf("budget=%d:sites=%s", m.faultBudget,
                                    opt.sitesSpec);

    os << "{\n  \"provenance\": " << prov.json(2) << ",\n";
    os << csprintf(
        "  \"config\": {\"procs\": %d, \"words\": %d, \"line_words\": %d,"
        " \"bits\": %d, \"epochs\": %d, \"ops\": %d, \"faults\": %d,"
        " \"sites\": \"%s\", \"critical\": %s, \"promote\": %s,"
        " \"symmetry\": %s},\n",
        m.procs, m.words, m.lineWords, m.timetagBits, m.horizon(),
        m.opsPerEpoch, m.faultBudget, jsonEscape(opt.sitesSpec),
        m.allowCritical ? "true" : "false", m.promote ? "true" : "false",
        opt.symmetry ? "true" : "false");
    os << csprintf(
        "  \"results\": {\"states\": %d, \"transitions\": %d,"
        " \"depth\": %d, \"completed\": %d, \"aborted\": %d,"
        " \"xcheck_paths\": %d, \"xcheck_outcomes\": %d,"
        " \"verdict\": \"%s\"}",
        res.states, res.transitions, res.maxDepth, res.completed,
        res.aborted, xc.paths, xc.outcomes, verdict);
    if (res.cex) {
        os << csprintf(",\n  \"counterexample\": {\"invariant\": \"%s\","
                       " \"detail\": \"%s\", \"replay_ok\": %s,"
                       " \"steps\": [",
                       mc::invariantName(res.cex->invariant),
                       jsonEscape(res.cex->detail),
                       cexReplayOk ? "true" : "false");
        for (std::size_t i = 0; i < res.cex->path.size(); ++i)
            os << csprintf("%s\"%s\"", i ? ", " : "",
                           jsonEscape(res.cex->path[i].str()));
        os << "]}";
    }
    os << csprintf(",\n  \"host\": {\"explore_wall_ms\": %.3f,"
                   " \"explore_cpu_ms\": %.3f, \"states_per_s\": %.0f}",
                   host.wallMs, host.cpuMs, host.statesPerS);
    os << "\n}\n";
}

int
run(const CliOptions &opt)
{
    const mc::McConfig &m = opt.model;
    std::printf("mc: %s symmetry=%d\n", m.str().c_str(),
                opt.symmetry ? 1 : 0);

    mc::ExploreOptions eopt;
    eopt.symmetry = opt.symmetry;
    eopt.maxStates = opt.maxStates;
    HostCost host;
    host.wallMs = -clockMs(CLOCK_MONOTONIC);
    host.cpuMs = -clockMs(CLOCK_THREAD_CPUTIME_ID);
    mc::ExploreResult res = mc::explore(m, eopt);
    host.wallMs += clockMs(CLOCK_MONOTONIC);
    host.cpuMs += clockMs(CLOCK_THREAD_CPUTIME_ID);
    host.statesPerS =
        host.cpuMs > 0 ? double(res.states) * 1e3 / host.cpuMs : 0;

    std::printf("mc: explored %llu states, %llu transitions, depth %llu\n",
                (unsigned long long)res.states,
                (unsigned long long)res.transitions,
                (unsigned long long)res.maxDepth);
    std::printf("mc: terminals: %llu completed, %llu aborted\n",
                (unsigned long long)res.completed,
                (unsigned long long)res.aborted);
    std::printf("mc: host: explore %.1f ms wall, %.1f ms thread CPU, "
                "%.0f states/s (CPU)\n",
                host.wallMs, host.cpuMs, host.statesPerS);

    bool cexReplayOk = false;
    XcheckTally xc;
    const char *verdict = "clean";

    if (res.cex) {
        verdict = "counterexample";
        std::printf("mc: %s", res.cex->str().c_str());
        // A counterexample is only real if the implementation walks the
        // same path to the same outcomes; divergence means the model is
        // wrong, which is its own finding.
        mc::CheckReport rep = mc::crossCheck(m, res.cex->path);
        cexReplayOk = rep.ok;
        if (rep.ok) {
            std::printf("mc: counterexample replays identically on "
                        "TpiScheme (%llu outcomes)\n",
                        (unsigned long long)rep.compared);
        } else {
            std::printf("mc: counterexample does NOT replay on "
                        "TpiScheme: %s\n", rep.detail.c_str());
        }
    } else if (res.hitStateCap) {
        verdict = "bounded";
        std::printf("mc: state cap %llu reached - verdict is bounded, "
                    "not exhaustive\n",
                    (unsigned long long)opt.maxStates);
    } else {
        for (std::uint64_t i = 0; i < opt.xcheck; ++i) {
            std::vector<mc::Action> path = mc::randomWalk(m, i + 1);
            mc::CheckReport rep = mc::crossCheck(m, path);
            ++xc.paths;
            xc.outcomes += rep.compared;
            if (!rep.ok) {
                xc.ok = false;
                xc.detail = rep.detail;
                verdict = "divergence";
                std::printf("mc: model/implementation divergence on "
                            "path %llu: %s\n", (unsigned long long)(i + 1),
                            rep.detail.c_str());
                if (opt.verbose) {
                    for (const mc::Action &a : path)
                        std::printf("    %s\n", a.str().c_str());
                }
                break;
            }
        }
        if (xc.ok && xc.paths > 0)
            std::printf("mc: cross-check: %llu/%llu paths agree with "
                        "TpiScheme (%llu outcomes)\n",
                        (unsigned long long)xc.paths,
                        (unsigned long long)xc.paths,
                        (unsigned long long)xc.outcomes);
    }

    std::printf("mc: verdict %s\n", verdict);
    if (!opt.jsonPath.empty())
        writeJsonReport(opt, res, host, xc, verdict, cexReplayOk);

    if (res.cex || !xc.ok)
        return verify::ExitViolation;
    if (res.hitStateCap)
        return verify::ExitDiagnostics;
    return verify::ExitSuccess;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions opt = parseArgs(argc, argv);
    try {
        opt.model.validate();
    } catch (const FatalError &) {
        return verify::ExitUsage;
    }
    try {
        return run(opt);
    } catch (const FatalError &) {
        return verify::ExitInternal;
    }
}
