/**
 * @file
 * hscd_faultcheck: fault-injection campaign driver.
 *
 * Fans a corpus of fault seeds across the coherence schemes and asserts
 * the robustness contract end to end: every faulted run must either
 *
 *   - complete clean (faults absorbed: retransmissions, NACK repairs,
 *     epoch resyncs) and execute exactly the same work as the
 *     fault-free reference run (tasks, epochs, reads, writes), or
 *   - stop itself with a structured abort (protocol retry exhaustion,
 *     watchdog, deadlock), or
 *   - be flagged by the soundness oracles (value-stamp, shadow-epoch,
 *     DOALL race) when an injected corruption reached architectural
 *     state.
 *
 * What is never acceptable is a *silent* corruption: a run that
 * completes unflagged but did different work than the reference. The
 * campaign counts exactly that and fails (exit 3) if it ever happens.
 *
 *   hscd_faultcheck                         # 100 seeds, all schemes
 *   hscd_faultcheck --rates 1e-4,1e-3,0.01  # fault-rate sweep table
 *   hscd_faultcheck --seeds 500 --sites net --jobs 16
 *
 * `--sweep BIN[,BIN...]` is the kill -9 gate for sweep checkpoints
 * instead: each sweep binary is SIGKILLed mid-run and resumed until a
 * last resume finishes, and its JSON must be byte-identical to an
 * uninterrupted run's.
 *
 *   hscd_faultcheck --sweep build/bench/bench_fig13_traffic --kills 5
 *
 * Exit codes follow the verify::ExitCode contract: 0 clean campaign,
 * 2 usage error, 3 silent corruption detected, 5 harness error.
 */

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/json.hh"
#include "common/log.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/strutil.hh"
#include "fault/plan.hh"
#include "obs/provenance.hh"
#include "program_gen.hh"
#include "sim/machine.hh"
#include "verify/diagnostic.hh"
#include "workloads/synth.hh"
#include "workloads/trace.hh"
#include "workloads/workloads.hh"

namespace {

using namespace hscd;

struct CliOptions
{
    std::vector<double> rates = {1e-4, 1e-3, 1e-2};
    std::uint64_t seeds = 100;
    std::uint64_t seedBase = 1;
    unsigned sites = fault::kSitesAll;
    std::string sitesSpec = "all";
    unsigned jobs = 0;
    int scale = 1;
    std::vector<SchemeKind> schemes = {SchemeKind::Base, SchemeKind::SC,
                                       SchemeKind::TPI, SchemeKind::HW,
                                       SchemeKind::VC};
    bool verbose = false;
    std::string jsonPath;
    /** Workload specs to fan across; empty = the six benchmarks. */
    std::vector<std::string> workloadSpecs;
};

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "\n"
        "Runs a fault-injection campaign: `seeds` fault seeds per\n"
        "(rate x scheme), each seed picking one of the six workloads,\n"
        "and verifies that no run is ever silently wrong - every fault\n"
        "is either recovered, aborted, or flagged by the oracles.\n"
        "\n"
        "Options:\n"
        "  --seeds N        fault seeds per (rate x scheme) (default 100)\n"
        "  --seed-base N    first fault seed (default 1)\n"
        "  --rates R,R,...  fault rates to sweep (default 1e-4,1e-3,1e-2)\n"
        "  --sites LIST     site mask: all|net|mem|dir or site names\n"
        "                   (default all)\n"
        "  --schemes L,L    schemes to fan across (default all five)\n"
        "  --workloads L,L  workload specs the seeds rotate over:\n"
        "                   benchmark names, gen:<seed>,\n"
        "                   synth:<family>:<seed>, or trace:<file>\n"
        "                   (default: the six benchmarks)\n"
        "  --scale N        workload problem scale (default 1)\n"
        "  --jobs N         run cells on N threads (default: all)\n"
        "  --json PATH      write the campaign table as JSON (with a\n"
        "                   provenance header) to PATH\n"
        "  --verbose        print each non-clean run\n"
        "  --help           this text\n"
        "\n"
        "  --sweep BIN,...  run the kill -9 gate for sweep checkpoints\n"
        "                   instead (see --sweep BIN --help)\n",
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
        auto number = [&](const char *flag) {
            const std::string v = value(flag);
            char *end = nullptr;
            double d = std::strtod(v.c_str(), &end);
            if (end == v.c_str() || *end != '\0') {
                std::fprintf(stderr, "%s: bad %s value '%s'\n", argv[0],
                             flag, v.c_str());
                std::exit(verify::ExitUsage);
            }
            return d;
        };
        if (a == "--help" || a == "-h") {
            usage(argv[0]);
            std::exit(verify::ExitSuccess);
        } else if (a == "--seeds") {
            opt.seeds = static_cast<std::uint64_t>(number("--seeds"));
        } else if (a == "--seed-base") {
            opt.seedBase =
                static_cast<std::uint64_t>(number("--seed-base"));
        } else if (a == "--scale") {
            opt.scale = static_cast<int>(number("--scale"));
        } else if (a == "--jobs") {
            opt.jobs = static_cast<unsigned>(number("--jobs"));
        } else if (a == "--verbose") {
            opt.verbose = true;
        } else if (a == "--json") {
            opt.jsonPath = value("--json");
        } else if (a == "--rates") {
            opt.rates.clear();
            std::string v = value("--rates");
            std::size_t pos = 0;
            while (pos <= v.size()) {
                std::size_t comma = v.find(',', pos);
                if (comma == std::string::npos)
                    comma = v.size();
                const std::string tok = v.substr(pos, comma - pos);
                char *end = nullptr;
                double r = std::strtod(tok.c_str(), &end);
                if (end == tok.c_str() || *end != '\0' || r < 0 ||
                    r > 1) {
                    std::fprintf(stderr, "%s: bad rate '%s'\n", argv[0],
                                 tok.c_str());
                    std::exit(verify::ExitUsage);
                }
                opt.rates.push_back(r);
                pos = comma + 1;
            }
            if (opt.rates.empty()) {
                std::fprintf(stderr, "%s: --rates needs at least one\n",
                             argv[0]);
                std::exit(verify::ExitUsage);
            }
        } else if (a == "--sites") {
            opt.sitesSpec = value("--sites");
            try {
                // Reuse the plan grammar: rate/seed are dummies here.
                opt.sites =
                    fault::FaultPlan::parse("1:1:" + opt.sitesSpec).sites;
            } catch (const FatalError &) {
                std::exit(verify::ExitUsage);
            }
        } else if (a == "--workloads") {
            opt.workloadSpecs.clear();
            std::string v = value("--workloads");
            for (const std::string &tok : split(v, ',')) {
                const std::string t = trim(tok);
                bool ok = t.rfind("gen:", 0) == 0 ||
                          workloads::isTraceSpec(t);
                if (workloads::isSynthSpec(t)) {
                    try {
                        workloads::parseSynthSpec(t);
                        ok = true;
                    } catch (const FatalError &) {
                        std::exit(verify::ExitUsage);
                    }
                }
                for (const std::string &n : workloads::benchmarkNames())
                    if (toLower(t) == toLower(n))
                        ok = true;
                if (!ok) {
                    std::fprintf(stderr,
                                 "%s: unknown workload spec '%s'\n",
                                 argv[0], t.c_str());
                    std::exit(verify::ExitUsage);
                }
                opt.workloadSpecs.push_back(t);
            }
            if (opt.workloadSpecs.empty()) {
                std::fprintf(stderr,
                             "%s: --workloads needs at least one\n",
                             argv[0]);
                std::exit(verify::ExitUsage);
            }
        } else if (a == "--schemes") {
            opt.schemes.clear();
            std::string v = value("--schemes");
            std::size_t pos = 0;
            while (pos <= v.size()) {
                std::size_t comma = v.find(',', pos);
                if (comma == std::string::npos)
                    comma = v.size();
                try {
                    opt.schemes.push_back(
                        parseScheme(v.substr(pos, comma - pos)));
                } catch (const FatalError &) {
                    std::exit(verify::ExitUsage);
                }
                pos = comma + 1;
            }
        } else {
            std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0],
                         a.c_str());
            usage(argv[0]);
            std::exit(verify::ExitUsage);
        }
    }
    return opt;
}

/** One faulted run and how it ended. */
enum class Verdict
{
    Clean,     ///< completed, no faults actually injected
    Recovered, ///< completed, injected faults all absorbed
    Aborted,   ///< structured abort (detected)
    Flagged,   ///< oracle/shadow/race violation (detected)
    Silent,    ///< completed unflagged but did different work - BAD
    Internal,  ///< harness exception - BAD
};

struct CellOut
{
    Verdict verdict = Verdict::Internal;
    sim::RunResult run;
    std::string error;
};

struct TableRow
{
    std::uint64_t runs = 0, clean = 0, recovered = 0, aborted = 0,
                  flagged = 0, silent = 0, internal = 0;
    std::uint64_t injected = 0, retries = 0;
};

std::string
rowJson(const TableRow &t)
{
    return csprintf(
        "{\"runs\": %d, \"clean\": %d, \"recovered\": %d, "
        "\"aborted\": %d, \"flagged\": %d, \"silent\": %d, "
        "\"internal\": %d, \"injected\": %d, \"retries\": %d}",
        int(t.runs), int(t.clean), int(t.recovered), int(t.aborted),
        int(t.flagged), int(t.silent), int(t.internal), int(t.injected),
        int(t.retries));
}

/**
 * Machine-readable campaign report: a provenance header (config hash
 * over everything that shapes the corpus), the campaign parameters, one
 * row per (rate x scheme), totals, and the verdict. Deterministic at
 * any --jobs except the provenance "jobs" field itself.
 */
void
writeJsonReport(const CliOptions &opt,
                const std::map<std::pair<double, int>, TableRow> &rows,
                const TableRow &total, const char *verdict)
{
    std::ofstream os(opt.jsonPath);
    if (!os) {
        warn("cannot write --json file '%s'", opt.jsonPath);
        return;
    }
    std::string rates, schemes;
    for (double r : opt.rates)
        rates += csprintf("%s%.9g", rates.empty() ? "" : ",", r);
    for (SchemeKind k : opt.schemes)
        schemes += csprintf("%s%s", schemes.empty() ? "" : ",",
                            schemeName(k));

    obs::Provenance prov;
    prov.schema = "hscd-faultcheck";
    prov.tool = "faultcheck";
    prov.configHash = obs::fnv1a(csprintf(
        "rates=%s:seeds=%d:base=%d:sites=%s:schemes=%s:scale=%d", rates,
        int(opt.seeds), int(opt.seedBase), opt.sitesSpec, schemes,
        opt.scale));
    prov.faultSpec = csprintf("rates=%s:sites=%s", rates, opt.sitesSpec);
    prov.jobs = opt.jobs;

    os << "{\n  \"provenance\": " << prov.json(2) << ",\n";
    os << csprintf("  \"seeds\": %d,\n  \"seed_base\": %d,\n"
                   "  \"scale\": %d,\n  \"sites\": \"%s\",\n",
                   int(opt.seeds), int(opt.seedBase), opt.scale,
                   jsonEscape(opt.sitesSpec).c_str());
    os << "  \"rows\": [\n";
    bool first = true;
    for (double rate : opt.rates) {
        for (SchemeKind k : opt.schemes) {
            auto it = rows.find({rate, static_cast<int>(k)});
            if (it == rows.end())
                continue;
            os << csprintf("%s    {\"rate\": %.9g, \"scheme\": \"%s\", "
                           "\"row\": %s}",
                           first ? "" : ",\n", rate, schemeName(k),
                           rowJson(it->second).c_str());
            first = false;
        }
    }
    os << "\n  ],\n";
    os << "  \"total\": " << rowJson(total) << ",\n";
    os << csprintf("  \"verdict\": \"%s\"\n}\n", verdict);
}

// --- --sweep: the kill -9 gate for sweep checkpoints --------------------
//
// Proves the checkpoint contract end to end: a sweep that is SIGKILLed
// mid-run and restarted with --resume again and again must finish with
// JSON byte-identical to an uninterrupted run's.

namespace chaos {

struct ChaosOptions
{
    std::vector<std::string> sweeps; ///< sweep binaries to put under fire
    unsigned kills = 5;
    unsigned jobs = 2;
    std::string faultSpec; ///< optional fault axis for the sweeps
};

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s --sweep BIN[,BIN...] [options]\n"
        "\n"
        "Kill -9 gate for sweep checkpoints: runs each sweep binary once\n"
        "uninterrupted with --json (the reference), then runs it with\n"
        "--checkpoint/--resume, SIGKILLing it --kills times mid-run\n"
        "(after a seeded random number of newly journaled cells plus a\n"
        "seeded random part of a cell's time), lets one last --resume\n"
        "finish, and requires that run's JSON to be byte-identical to\n"
        "the reference.\n"
        "\n"
        "Options:\n"
        "  --kills N      SIGKILLs that must land mid-run (default 5)\n"
        "  --jobs N       --jobs passed to the sweeps (default 2)\n"
        "  --fault SPEC   --fault passed to the sweeps (default off)\n"
        "\n"
        "Work files go to a fresh directory under TMPDIR, removed on\n"
        "success and kept on failure.\n"
        "Exit: 0 clean, 2 usage, 3 corruption, 5 harness error.\n",
        argv0);
}

ChaosOptions
parseChaosArgs(int argc, char **argv)
{
    ChaosOptions opt;
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
        auto number = [&](const char *flag) {
            const std::string v = value(flag);
            char *end = nullptr;
            double d = std::strtod(v.c_str(), &end);
            // Bounded so the integer casts below stay defined.
            if (end == v.c_str() || *end != '\0' || !(d >= 0 && d <= 1e6)) {
                std::fprintf(stderr, "%s: bad %s value '%s'\n", argv[0],
                             flag, v.c_str());
                std::exit(verify::ExitUsage);
            }
            return d;
        };
        if (a == "--sweep") {
            for (const std::string &tok : split(value("--sweep"), ','))
                if (!trim(tok).empty())
                    opt.sweeps.push_back(trim(tok));
        } else if (a == "--help" || a == "-h") {
            usage(argv[0]);
            std::exit(verify::ExitSuccess);
        } else if (a == "--kills") {
            opt.kills = static_cast<unsigned>(number("--kills"));
        } else if (a == "--jobs") {
            opt.jobs = static_cast<unsigned>(number("--jobs"));
        } else if (a == "--fault") {
            opt.faultSpec = value("--fault");
        } else {
            std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0],
                         a.c_str());
            usage(argv[0]);
            std::exit(verify::ExitUsage);
        }
    }
    if (opt.sweeps.empty() || opt.kills == 0) {
        std::fprintf(stderr, "%s: --sweep needs a binary and --kills "
                             "must be non-zero\n", argv[0]);
        std::exit(verify::ExitUsage);
    }
    return opt;
}

std::string
slurpFile(const std::string &path)
{
    std::ifstream f(path);
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

/** Records journaled so far: newline-terminated lines after the header. */
std::size_t
journaledRecords(const std::string &path)
{
    const std::string text = slurpFile(path);
    const auto lines =
        static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
    return lines ? lines - 1 : 0;
}

/** fork/exec @p args with stdout+stderr appended to @p log; -1 on error. */
pid_t
spawnChild(std::vector<std::string> args, const std::string &log)
{
    std::vector<char *> cargs;
    for (std::string &s : args)
        cargs.push_back(s.data());
    cargs.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0)
        std::perror("fork");
    if (pid == 0) {
        const int fd =
            ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (fd >= 0) {
            ::dup2(fd, 1);
            ::dup2(fd, 2);
            ::close(fd);
        }
        ::execv(cargs[0], cargs.data());
        std::perror("execv");
        std::_Exit(127);
    }
    return pid;
}

/** Run @p args to completion; the wait status, or -1 on error. */
int
runChild(const std::vector<std::string> &args, const std::string &log)
{
    const pid_t pid = spawnChild(args, log);
    int status = -1;
    if (pid > 0)
        ::waitpid(pid, &status, 0);
    return status;
}

bool
exitedZero(int status)
{
    return status != -1 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

int
run(int argc, char **argv)
{
    const ChaosOptions opt = parseChaosArgs(argc, argv);
    namespace fs = std::filesystem;

    const char *tmp = std::getenv("TMPDIR");
    std::string templ = std::string(tmp && *tmp ? tmp : "/tmp") +
                        "/hscd-sweep-chaos-XXXXXX";
    if (!::mkdtemp(templ.data())) {
        std::perror("mkdtemp");
        return verify::ExitInternal;
    }
    const std::string root = templ;
    std::printf("== hscd_faultcheck --sweep: %d sweep%s, %d kills each, "
                "jobs=%d, fault=%s, work files in %s ==\n",
                int(opt.sweeps.size()), opt.sweeps.size() == 1 ? "" : "s",
                int(opt.kills), int(opt.jobs),
                opt.faultSpec.empty() ? "off" : opt.faultSpec.c_str(),
                root.c_str());

    Rng rng(1); // seeds the kill delays
    bool corrupted = false;
    for (const std::string &bin : opt.sweeps) {
        const std::string name = fs::path(bin).filename().string();
        const std::string base = root + "/" + name;
        const std::string log = base + ".log";
        auto harnessFail = [&](const std::string &what) {
            std::fprintf(stderr, "FAIL (harness): %s: %s; log in %s\n",
                         name.c_str(), what.c_str(), log.c_str());
            return verify::ExitInternal;
        };
        std::vector<std::string> args = {bin, "--jobs",
                                         csprintf("%d", int(opt.jobs))};
        if (!opt.faultSpec.empty())
            args.insert(args.end(), {"--fault", opt.faultSpec});
        const std::string journal = base + ".journal";
        std::vector<std::string> resumeArgs = args;
        resumeArgs.insert(resumeArgs.end(),
                          {"--checkpoint", journal, "--resume",
                           "--json", base + ".json"});
        args.insert(args.end(), {"--json", base + ".ref.json"});

        // --- the uninterrupted reference --------------------------------
        const auto t0 = std::chrono::steady_clock::now();
        if (!exitedZero(runChild(args, log)))
            return harnessFail("the reference run did not exit 0");
        const double refMs = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
        const std::string ref = slurpFile(base + ".ref.json");
        JsonValue parsed;
        std::string error;
        const JsonValue *cells = nullptr;
        if (!parseJson(ref, parsed, error) ||
            !(cells = parsed.get("cells")) || !cells->isArray() ||
            cells->items.empty())
            return harnessFail("the reference JSON has no cells");
        const std::size_t total = cells->items.size();

        // --- the same sweep under kill -9 fire --------------------------
        // Each kill waits for a seeded random number of newly journaled
        // cells, then a seeded random part of one cell's time, so it
        // lands while cells run and records are being appended. A time
        // budget alone mostly hit process start-up: W1 runs its 30
        // cells in a few milliseconds. A resume that finishes before
        // its kill lands ends the chain: its JSON is checked like the
        // last one's, and the next chain starts from an empty
        // checkpoint, since no kill can cut a complete one.
        auto identical = [&](unsigned kills) {
            const std::string got = slurpFile(base + ".json");
            if (got == ref)
                return true;
            std::fprintf(stderr,
                         "FAIL: SILENT CORRUPTION - %s: JSON after %d "
                         "kills differs from the reference (%d vs %d "
                         "bytes); see %s\n",
                         name.c_str(), int(kills), int(got.size()),
                         int(ref.size()), root.c_str());
            corrupted = true;
            return false;
        };
        const double cellMs = refMs / double(total);
        unsigned killed = 0, chains = 1, chainKills = 0;
        for (unsigned attempt = 0; killed < opt.kills; ++attempt) {
            if (attempt > 4 * opt.kills)
                return harnessFail("the sweep keeps finishing before its "
                                   "kill lands");
            const std::size_t before = journaledRecords(journal);
            const std::size_t left = total - std::min(before, total);
            const std::size_t span =
                std::max<std::size_t>(1, left / (opt.kills - killed));
            const std::size_t target =
                before + 1 + rng.below(static_cast<std::uint32_t>(span));
            const pid_t pid = spawnChild(resumeArgs, log);
            if (pid < 0)
                return harnessFail("cannot start the sweep");
            int status = -1;
            while (::waitpid(pid, &status, WNOHANG) == 0) {
                if (journaledRecords(journal) >= target) {
                    std::this_thread::sleep_for(
                        std::chrono::duration<double, std::milli>(
                            rng.real() * cellMs));
                    ::kill(pid, SIGKILL); // harmless if it just exited
                    ::waitpid(pid, &status, 0);
                    break;
                }
                std::this_thread::sleep_for(
                    std::chrono::microseconds(100));
            }
            if (WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) {
                ++killed;
                ++chainKills;
                std::printf("[chaos] %s: kill %d/%d, %d -> %d of %d "
                            "cells journaled\n",
                            name.c_str(), int(killed), int(opt.kills),
                            int(before), int(journaledRecords(journal)),
                            int(total));
                continue;
            }
            if (!exitedZero(status))
                return harnessFail("a resumed run failed");
            identical(chainKills);
            fs::remove(journal);
            ++chains;
            chainKills = 0;
        }

        // --- one last resume runs to completion -------------------------
        if (!exitedZero(runChild(resumeArgs, log)))
            return harnessFail("the final resume did not exit 0");
        if (identical(chainKills))
            std::printf("[chaos] %s: JSON byte-identical to the reference "
                        "after %d kills in %d chain%s (%d cells, %d "
                        "bytes)\n",
                        name.c_str(), int(killed), int(chains),
                        chains == 1 ? "" : "s", int(total),
                        int(ref.size()));
    }

    if (corrupted) {
        std::printf("\nverdict: contract VIOLATED (work files kept in "
                    "%s)\n",
                    root.c_str());
        return verify::ExitViolation;
    }
    std::printf("\nverdict: every sweep resumed byte-identically after %d "
                "kills\n",
                int(opt.kills));
    std::error_code ec;
    fs::remove_all(root, ec);
    return verify::ExitSuccess;
}

} // namespace chaos

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--sweep")
            return chaos::run(argc, argv);

    const CliOptions opt = parseArgs(argc, argv);
    const std::vector<std::string> benchmarks =
        opt.workloadSpecs.empty() ? workloads::benchmarkNames()
                                  : opt.workloadSpecs;

    // Load each workload once, up front (shared across all runs):
    // compiled HIR for names/gen:/synth: specs, parsed records for
    // trace: specs. A bad spec or malformed trace is a usage error.
    std::map<std::string, compiler::CompiledProgram> programs;
    std::map<std::string, workloads::TraceWorkload> traces;
    try {
        for (const std::string &name : benchmarks) {
            if (workloads::isTraceSpec(name)) {
                traces.emplace(name, workloads::loadTraceSpec(name));
            } else if (name.rfind("gen:", 0) == 0) {
                testgen::GenOptions g;
                g.seed = std::strtoull(name.substr(4).c_str(), nullptr,
                                       10);
                programs.emplace(name,
                                 compiler::compileProgram(
                                     testgen::randomLegalProgram(g)));
            } else {
                programs.emplace(
                    name, compiler::compileProgram(
                              workloads::buildBenchmark(name, opt.scale)));
            }
        }
    } catch (const FatalError &) {
        // fatal() already emitted the reason (file:line for traces).
        return verify::ExitUsage;
    }

    // One faulted run (or its fault-free reference when cfg.fault is
    // disabled). Trace workloads replay through the scheme directly,
    // under the same value oracle as compiled programs; they have no
    // shadow or DOALL checker.
    auto runOne = [&](const std::string &name, const MachineConfig &cfg) {
        auto t = traces.find(name);
        if (t != traces.end())
            return workloads::runTrace(t->second, cfg);
        return sim::simulate(programs.at(name), cfg);
    };

    // Fault-free reference per (scheme, workload): the "same work"
    // baseline completed runs are checked against.
    std::map<std::pair<int, std::string>, sim::RunResult> refs;
    for (SchemeKind k : opt.schemes) {
        for (const std::string &name : benchmarks) {
            MachineConfig cfg;
            cfg.scheme = k;
            cfg.shadowEpochCheck = true;
            refs.emplace(std::make_pair(static_cast<int>(k), name),
                         runOne(name, cfg));
        }
    }

    struct Cell
    {
        double rate;
        SchemeKind scheme;
        std::uint64_t seed;
        const std::string *benchmark;
    };
    std::vector<Cell> cells;
    for (double rate : opt.rates)
        for (SchemeKind k : opt.schemes)
            for (std::uint64_t s = 0; s < opt.seeds; ++s) {
                Cell c;
                c.rate = rate;
                c.scheme = k;
                c.seed = opt.seedBase + s;
                c.benchmark = &benchmarks[s % benchmarks.size()];
                cells.push_back(c);
            }

    std::printf("== hscd_faultcheck: %d runs (%d rates x %d schemes x "
                "%d seeds), sites=%s, scale=%d ==\n",
                int(cells.size()), int(opt.rates.size()),
                int(opt.schemes.size()), int(opt.seeds),
                opt.sitesSpec.c_str(), opt.scale);

    std::vector<CellOut> outs = parallelMap(
        opt.jobs, cells.size(), [&](std::size_t i) {
            const Cell &c = cells[i];
            CellOut out;
            MachineConfig cfg;
            cfg.scheme = c.scheme;
            cfg.shadowEpochCheck = true;
            cfg.fault.rate = c.rate;
            cfg.fault.seed = c.seed;
            cfg.fault.sites = opt.sites;
            try {
                out.run = runOne(*c.benchmark, cfg);
            } catch (const std::exception &e) {
                out.error = e.what();
                out.verdict = Verdict::Internal;
                return out;
            }
            const sim::RunResult &r = out.run;
            if (r.aborted()) {
                out.verdict = Verdict::Aborted;
            } else if (r.oracleViolations || r.shadowViolations ||
                       r.doallViolations) {
                out.verdict = Verdict::Flagged;
            } else {
                // Completed and unflagged: it must have done exactly the
                // reference run's work, or the fault silently changed
                // the computation.
                const sim::RunResult &ref = refs.at(
                    {static_cast<int>(c.scheme), *c.benchmark});
                const bool same_work = r.tasks == ref.tasks &&
                                       r.epochs == ref.epochs &&
                                       r.parallelEpochs ==
                                           ref.parallelEpochs &&
                                       r.reads == ref.reads &&
                                       r.writes == ref.writes;
                if (!same_work)
                    out.verdict = Verdict::Silent;
                else if (r.faultsInjected == 0)
                    out.verdict = Verdict::Clean;
                else
                    out.verdict = Verdict::Recovered;
            }
            return out;
        });

    // Aggregate and render in deterministic (rate, scheme) order.
    std::map<std::pair<double, int>, TableRow> rows;
    TableRow total;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        const CellOut &o = outs[i];
        TableRow &row = rows[{c.rate, static_cast<int>(c.scheme)}];
        for (TableRow *t : {&row, &total}) {
            ++t->runs;
            t->injected += o.run.faultsInjected;
            t->retries += o.run.faultRetries;
            switch (o.verdict) {
              case Verdict::Clean: ++t->clean; break;
              case Verdict::Recovered: ++t->recovered; break;
              case Verdict::Aborted: ++t->aborted; break;
              case Verdict::Flagged: ++t->flagged; break;
              case Verdict::Silent: ++t->silent; break;
              case Verdict::Internal: ++t->internal; break;
            }
        }
        const bool bad = o.verdict == Verdict::Silent ||
                         o.verdict == Verdict::Internal;
        if (bad || (opt.verbose && o.verdict != Verdict::Clean &&
                    o.verdict != Verdict::Recovered)) {
            std::printf(
                "  [%s] rate=%g scheme=%s seed=%llu %s: %s\n",
                bad ? "FAIL" : "info", c.rate, schemeName(c.scheme),
                static_cast<unsigned long long>(c.seed),
                c.benchmark->c_str(),
                !o.error.empty() ? o.error.c_str()
                                 : o.run.summary().c_str());
        }
    }

    std::printf("\n%-10s %-6s %6s %6s %10s %8s %8s %7s %10s %9s\n",
                "rate", "scheme", "runs", "clean", "recovered", "aborted",
                "flagged", "silent", "injected", "retries");
    for (double rate : opt.rates) {
        for (SchemeKind k : opt.schemes) {
            const TableRow &t = rows[{rate, static_cast<int>(k)}];
            std::printf(
                "%-10g %-6s %6d %6d %10d %8d %8d %7d %10d %9d\n", rate,
                schemeName(k), int(t.runs), int(t.clean),
                int(t.recovered), int(t.aborted), int(t.flagged),
                int(t.silent), int(t.injected), int(t.retries));
        }
    }
    std::printf("%-10s %-6s %6d %6d %10d %8d %8d %7d %10d %9d\n", "total",
                "-", int(total.runs), int(total.clean),
                int(total.recovered), int(total.aborted),
                int(total.flagged), int(total.silent),
                int(total.injected), int(total.retries));

    const char *verdict = total.internal ? "internal-error"
                          : total.silent ? "silent-corruption"
                                         : "clean";
    if (!opt.jsonPath.empty())
        writeJsonReport(opt, rows, total, verdict);

    if (total.internal) {
        std::printf("\nverdict: %d harness errors - campaign invalid\n",
                    int(total.internal));
        return verify::ExitInternal;
    }
    if (total.silent) {
        std::printf("\nverdict: %d SILENT CORRUPTIONS across %d runs\n",
                    int(total.silent), int(total.runs));
        return verify::ExitViolation;
    }
    std::printf("\nverdict: zero silent corruptions across %d faulted "
                "runs (%d recovered, %d aborted, %d flagged)\n",
                int(total.runs), int(total.recovered), int(total.aborted),
                int(total.flagged));
    return verify::ExitSuccess;
}
