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
 * Exit codes follow the verify::ExitCode contract: 0 clean campaign,
 * 2 usage error, 3 silent corruption detected, 5 harness error.
 */

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
#include "common/strutil.hh"
#include "fault/plan.hh"
#include "obs/provenance.hh"
#include "program_gen.hh"
#include "serve/net.hh"
#include "serve/protocol.hh"
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
        "  --help           this text\n",
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

// --- --server: the kill -9 chaos harness for hscd_serve ---------------
//
// Proves the durable-queue contract end to end: a campaign whose server
// is SIGKILLed and restarted repeatedly must produce an aggregate
// byte-identical (modulo the provenance "jobs" field) to an
// uninterrupted run's, with zero silent corruptions, and submissions
// past the admission bound must come back as structured shed errors.

namespace chaos {

struct ChaosOptions
{
    std::string serverBin; ///< default: <dir of argv[0]>/hscd_serve
    std::string stateRoot; ///< default: mkdtemp under TMPDIR
    std::size_t cells = 500;
    unsigned kills = 5;
    unsigned jobs = 2;
    int scale = 1;
    std::string faultSpec; ///< optional fault axis for the campaign
    std::vector<std::string> workloads; ///< cell specs to rotate over
    std::vector<std::string> schemes = {"sc", "tpi", "hw"};
    bool keep = false; ///< keep the state root (debugging)
};

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s --server [options]\n"
        "\n"
        "Chaos-tests the resident campaign server: runs one campaign\n"
        "to completion on an untouched server (the reference), then\n"
        "re-runs it while SIGKILLing and restarting the server\n"
        "mid-campaign, and requires the recovered aggregate to be\n"
        "byte-identical. Also checks that over-bound submissions are\n"
        "shed as structured errors, never dropped silently.\n"
        "\n"
        "Options:\n"
        "  --server-bin PATH  hscd_serve binary (default: next to %s)\n"
        "  --state-dir DIR    working root (default: a fresh tempdir,\n"
        "                     removed on success, kept on failure)\n"
        "  --cells N          campaign size (default 500)\n"
        "  --kills N          SIGKILL/restart cycles (default 5)\n"
        "  --jobs N           server worker threads (default 2)\n"
        "  --scale N          workload problem scale (default 1)\n"
        "  --fault SPEC       fault plan for the campaign (default off)\n"
        "  --workloads L,L    cell specs to rotate over (benchmarks,\n"
        "                     synth:<f>:<s>, trace:<file>; default: the\n"
        "                     six benchmarks plus two synth families)\n"
        "  --schemes L,L      schemes to rotate over (default sc,tpi,hw)\n"
        "  --keep             keep the state root even on success\n"
        "\n"
        "Exit: 0 clean, 2 usage, 3 corruption/contract violation,\n"
        "5 harness error.\n",
        argv0, argv0);
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
            if (end == v.c_str() || *end != '\0' || d < 0) {
                std::fprintf(stderr, "%s: bad %s value '%s'\n", argv[0],
                             flag, v.c_str());
                std::exit(verify::ExitUsage);
            }
            return d;
        };
        if (a == "--server") {
            // mode marker, already consumed by main()
        } else if (a == "--help" || a == "-h") {
            usage(argv[0]);
            std::exit(verify::ExitSuccess);
        } else if (a == "--server-bin") {
            opt.serverBin = value("--server-bin");
        } else if (a == "--state-dir") {
            opt.stateRoot = value("--state-dir");
        } else if (a == "--cells") {
            opt.cells = static_cast<std::size_t>(number("--cells"));
        } else if (a == "--kills") {
            opt.kills = static_cast<unsigned>(number("--kills"));
        } else if (a == "--jobs") {
            opt.jobs = static_cast<unsigned>(number("--jobs"));
        } else if (a == "--scale") {
            opt.scale = static_cast<int>(number("--scale"));
        } else if (a == "--fault") {
            opt.faultSpec = value("--fault");
        } else if (a == "--workloads") {
            for (const std::string &tok : split(value("--workloads"), ','))
                opt.workloads.push_back(trim(tok));
        } else if (a == "--schemes") {
            opt.schemes.clear();
            for (const std::string &tok : split(value("--schemes"), ','))
                opt.schemes.push_back(trim(tok));
        } else if (a == "--keep") {
            opt.keep = true;
        } else {
            std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0],
                         a.c_str());
            usage(argv[0]);
            std::exit(verify::ExitUsage);
        }
    }
    if (opt.serverBin.empty()) {
        std::string self = argv[0];
        const std::size_t slash = self.rfind('/');
        opt.serverBin = (slash == std::string::npos
                             ? std::string(".")
                             : self.substr(0, slash)) +
                        "/hscd_serve";
    }
    if (opt.workloads.empty())
        opt.workloads = {"adm",  "flo52",  "ocean",
                         "qcd2", "spec77", "trfd",
                         "synth:stencil:3", "synth:migratory:7"};
    if (opt.cells == 0 || opt.kills == 0 || opt.schemes.empty()) {
        std::fprintf(stderr, "%s: --cells, --kills and --schemes must "
                             "be non-zero\n", argv[0]);
        std::exit(verify::ExitUsage);
    }
    return opt;
}

/** A running hscd_serve child plus the client channel to it. */
class ServerHandle
{
  public:
    ~ServerHandle() { stop(SIGKILL); }

    /** fork/exec the server; stdout+stderr append to server.log. */
    bool spawn(const ChaosOptions &opt, const std::string &stateDir,
               const std::vector<std::string> &extraArgs = {})
    {
        _stateDir = stateDir;
        std::vector<std::string> args = {opt.serverBin, "--state-dir",
                                         stateDir, "--jobs",
                                         csprintf("%d", int(opt.jobs))};
        args.insert(args.end(), extraArgs.begin(), extraArgs.end());
        std::vector<char *> cargs;
        cargs.reserve(args.size() + 1);
        for (std::string &s : args)
            cargs.push_back(s.data());
        cargs.push_back(nullptr);

        const pid_t pid = ::fork();
        if (pid < 0) {
            std::perror("fork");
            return false;
        }
        if (pid == 0) {
            const std::string log = stateDir + "/server.log";
            const int fd = ::open(log.c_str(),
                                  O_WRONLY | O_CREAT | O_APPEND, 0644);
            if (fd >= 0) {
                ::dup2(fd, 1);
                ::dup2(fd, 2);
                ::close(fd);
            }
            ::execv(cargs[0], cargs.data());
            std::perror("execv");
            std::_Exit(127);
        }
        _pid = pid;
        return true;
    }

    /**
     * Connect to <stateDir>/sock, retrying while the server boots.
     * A freshly-recovering server may compact journals first, so the
     * window is generous.
     */
    bool connect(double timeoutMs = 10000)
    {
        const std::string sock = _stateDir + "/sock";
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double, std::milli>(timeoutMs));
        std::string error;
        while (std::chrono::steady_clock::now() < deadline) {
            serve::Fd fd = serve::connectUnix(sock, error);
            if (fd.valid()) {
                _ch = std::make_unique<serve::LineChannel>(std::move(fd));
                return true;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        std::fprintf(stderr, "connect %s: %s\n", sock.c_str(),
                     error.c_str());
        return false;
    }

    /** One request line -> one parsed response. */
    bool rpc(const std::string &req, JsonValue &resp)
    {
        std::string line;
        if (!_ch || !_ch->writeLine(req) || !_ch->readLine(line))
            return false;
        std::string error;
        return parseJson(line, resp, error);
    }

    /** Signal the child and reap it. Returns the wait status. */
    int stop(int sig)
    {
        if (_pid <= 0)
            return 0;
        _ch.reset();
        ::kill(_pid, sig);
        int status = 0;
        ::waitpid(_pid, &status, 0);
        _pid = -1;
        return status;
    }

    pid_t pid() const { return _pid; }

  private:
    std::string _stateDir;
    pid_t _pid = -1;
    std::unique_ptr<serve::LineChannel> _ch;
};

std::string
slurpFile(const std::string &path)
{
    std::ifstream f(path);
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

/** Blank the provenance "jobs" line - the one field allowed to vary. */
std::string
maskJobs(std::string s)
{
    const std::string key = "\"jobs\":";
    const std::size_t at = s.find(key);
    if (at == std::string::npos)
        return s;
    const std::size_t eol = s.find('\n', at);
    s.replace(at, eol - at, key + " <masked>");
    return s;
}

/** The mixed campaign both runs execute. */
serve::CampaignSpec
buildCampaign(const ChaosOptions &opt)
{
    serve::CampaignSpec spec;
    spec.name = "chaos";
    spec.faultSpec = opt.faultSpec;
    spec.cells.reserve(opt.cells);
    for (std::size_t i = 0; i < opt.cells; ++i) {
        serve::CellSpec c;
        c.workload = opt.workloads[i % opt.workloads.size()];
        c.scheme = opt.schemes[(i / opt.workloads.size()) %
                               opt.schemes.size()];
        c.scale = opt.scale;
        c.label = csprintf("%s/%s#%d", c.workload, c.scheme, int(i));
        spec.cells.push_back(std::move(c));
    }
    return spec;
}

struct PollState
{
    bool ok = false;
    bool complete = false;
    std::size_t done = 0;
    std::string resultPath;
};

PollState
poll(ServerHandle &server, const std::string &idHex)
{
    PollState st;
    JsonValue resp;
    if (!server.rpc(csprintf("{\"op\": \"poll\", \"id\": \"%s\"}", idHex),
                    resp))
        return st;
    const JsonValue *ok = resp.get("ok");
    if (!ok || !ok->isBool() || !ok->boolean)
        return st;
    st.ok = true;
    if (const JsonValue *d = resp.get("done"))
        st.done = static_cast<std::size_t>(d->number);
    if (const JsonValue *s = resp.get("status"))
        st.complete = s->text == "complete";
    if (const JsonValue *r = resp.get("result"))
        st.resultPath = r->text;
    return st;
}

/** Submit; true when accepted or deduplicated, with the id in @p id. */
bool
submit(ServerHandle &server, const serve::CampaignSpec &spec,
       std::string &id)
{
    JsonValue resp;
    if (!server.rpc(spec.toRequestJson(), resp))
        return false;
    const JsonValue *ok = resp.get("ok");
    const JsonValue *jid = resp.get("id");
    if (!ok || !ok->isBool() || !ok->boolean || !jid || !jid->isString())
        return false;
    id = jid->text;
    return true;
}

int
run(int argc, char **argv)
{
    const ChaosOptions opt = parseChaosArgs(argc, argv);
    namespace fs = std::filesystem;

    std::string root = opt.stateRoot;
    if (root.empty()) {
        const char *tmp = std::getenv("TMPDIR");
        std::string templ = std::string(tmp && *tmp ? tmp : "/tmp") +
                            "/hscd-chaos-XXXXXX";
        std::vector<char> buf(templ.begin(), templ.end());
        buf.push_back('\0');
        if (!::mkdtemp(buf.data())) {
            std::perror("mkdtemp");
            return verify::ExitInternal;
        }
        root = buf.data();
    }
    std::error_code ec;
    fs::create_directories(root + "/ref", ec);
    fs::create_directories(root + "/chaos", ec);
    fs::create_directories(root + "/shed", ec);

    const serve::CampaignSpec spec = buildCampaign(opt);
    std::printf("== hscd_faultcheck --server: %d cells "
                "(%d workloads x %d schemes), %d kills, state in %s ==\n",
                int(spec.cells.size()), int(opt.workloads.size()),
                int(opt.schemes.size()), int(opt.kills), root.c_str());

    auto harnessFail = [&](const char *what) {
        std::fprintf(stderr, "FAIL (harness): %s; server log under %s\n",
                     what, root.c_str());
        return verify::ExitInternal;
    };

    // --- Phase 1: uninterrupted reference run -------------------------
    std::string refBytes;
    {
        ServerHandle server;
        if (!server.spawn(opt, root + "/ref") || !server.connect())
            return harnessFail("cannot start reference server");
        std::string id;
        if (!submit(server, spec, id))
            return harnessFail("reference submit refused");
        PollState st;
        while (!(st = poll(server, id)).complete) {
            if (!st.ok)
                return harnessFail("reference poll failed");
            std::this_thread::sleep_for(std::chrono::milliseconds(25));
        }
        refBytes = slurpFile(st.resultPath);
        if (refBytes.empty())
            return harnessFail("reference aggregate missing");
        const int status = server.stop(SIGTERM);
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            return harnessFail("reference server did not drain to 0");
        std::printf("[chaos] reference: %d cells complete, %d aggregate "
                    "bytes\n",
                    int(spec.cells.size()), int(refBytes.size()));
    }

    // --- Phase 2: the same campaign under kill -9 fire ----------------
    // Kill k fires once journaled progress crosses (k+1)/(kills+1) of
    // the campaign; resubmission after each restart is idempotent
    // (accepted before the .req landed, dedup after).
    std::string chaosBytes;
    std::uint64_t restored = 0;
    {
        const std::string dir = root + "/chaos";
        unsigned killed = 0;
        std::string id;
        PollState st;
        while (true) {
            ServerHandle server;
            if (!server.spawn(opt, dir) || !server.connect())
                return harnessFail("cannot (re)start chaos server");
            if (!submit(server, spec, id))
                return harnessFail("chaos submit refused");
            const std::size_t threshold =
                killed < opt.kills
                    ? (spec.cells.size() * (killed + 1)) /
                          (opt.kills + 1)
                    : spec.cells.size() + 1; // past the last kill: finish
            while (true) {
                st = poll(server, id);
                if (!st.ok)
                    return harnessFail("chaos poll failed");
                if (st.complete || st.done >= threshold)
                    break;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(5));
            }
            if (!st.complete && killed < opt.kills) {
                server.stop(SIGKILL);
                ++killed;
                std::printf("[chaos] kill %d/%d at %d/%d journaled "
                            "cells\n",
                            int(killed), int(opt.kills), int(st.done),
                            int(spec.cells.size()));
                continue;
            }
            // Complete (possibly with fewer kills than asked for when
            // the campaign outran the schedule - report honestly).
            JsonValue stats;
            if (server.rpc("{\"op\": \"stats\"}", stats)) {
                if (const JsonValue *c = stats.get("counters"))
                    if (const JsonValue *r =
                            c->get("cells_restored"))
                        restored = static_cast<std::uint64_t>(r->number);
            }
            chaosBytes = slurpFile(st.resultPath);
            const int status = server.stop(SIGTERM);
            if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
                return harnessFail("chaos server did not drain to 0");
            if (killed < opt.kills) {
                std::fprintf(stderr,
                             "FAIL: campaign finished after only %d of "
                             "%d kills - raise --cells\n",
                             int(killed), int(opt.kills));
                return verify::ExitViolation;
            }
            break;
        }
        std::printf("[chaos] survived %d kills; %d cells restored from "
                    "journals across restarts\n",
                    int(killed), int(restored));
    }

    // --- Phase 3: byte-identical aggregate ----------------------------
    bool corrupted = false;
    if (chaosBytes.empty()) {
        std::fprintf(stderr, "FAIL: chaos aggregate missing\n");
        corrupted = true;
    } else if (maskJobs(refBytes) != maskJobs(chaosBytes)) {
        std::fprintf(stderr,
                     "FAIL: SILENT CORRUPTION - chaos aggregate differs "
                     "from reference (%d vs %d bytes); see %s\n",
                     int(chaosBytes.size()), int(refBytes.size()),
                     root.c_str());
        corrupted = true;
    } else {
        std::printf("[chaos] aggregate byte-identical to reference "
                    "(%d bytes, jobs field masked)\n",
                    int(refBytes.size()));
    }

    // --- Phase 4: backpressure is a structured shed, not a drop -------
    bool shedOk = false;
    {
        ServerHandle server;
        if (!server.spawn(opt, root + "/shed",
                          {"--max-queued-cells", "10"}) ||
            !server.connect())
            return harnessFail("cannot start shed server");
        serve::CampaignSpec big = buildCampaign(opt);
        big.name = "chaos-shed"; // distinct identity from the real one
        JsonValue resp;
        if (!server.rpc(big.toRequestJson(), resp))
            return harnessFail("shed rpc failed");
        const JsonValue *ok = resp.get("ok");
        const JsonValue *status = resp.get("status");
        const JsonValue *retry = resp.get("retry");
        shedOk = ok && ok->isBool() && !ok->boolean && status &&
                 status->text == "shed" && retry && retry->isBool() &&
                 retry->boolean;
        if (shedOk)
            std::printf("[chaos] over-bound submission shed with a "
                        "structured retryable error\n");
        else
            std::fprintf(stderr, "FAIL: over-bound submission was not "
                                 "shed structurally\n");
        server.stop(SIGTERM);
    }

    if (corrupted || !shedOk) {
        std::printf("\nverdict: contract VIOLATED (state kept in %s)\n",
                    root.c_str());
        return verify::ExitViolation;
    }
    std::printf("\nverdict: zero silent corruptions across %d kills of a "
                "%d-cell campaign; backpressure structured\n",
                int(opt.kills), int(spec.cells.size()));
    if (!opt.keep && opt.stateRoot.empty())
        fs::remove_all(root, ec);
    return verify::ExitSuccess;
}

} // namespace chaos

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--server")
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
