/**
 * @file
 * hscd_perfbench: the repository's benchmark (see README.md).
 *
 * One client thread runs one workload closed-loop: set-up (repeated
 * kSetupReps times, from scratch), then ops back to back until
 * --seconds have passed. Every op checks its outputs; an op that fails
 * a check counts as failed and the run carries on.
 *
 *   --trace 0  prints the end-to-end metrics, measured untraced.
 *   --trace 1  runs every op twice, untraced and traced in alternating
 *              order, checks that both give identical simulated counts,
 *              and prints the per-layer metrics from the spans.
 *
 * The last line of stdout is one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "compiler/analysis.hh"
#include "mc/explorer.hh"
#include "serve/journal.hh"
#include "sim/machine.hh"
#include "sim/stream.hh"
#include "verify/pass.hh"
#include "workloads/synth.hh"
#include "workloads/workloads.hh"

#include "replay.hh"
#include "span.hh"

using namespace hscd;
using perfbench::inSpan;
using perfbench::Tracer;

namespace {

/** Full set-ups per run; setup_s is their median. */
constexpr int kSetupReps = 5;
/** Simulated counts are taken over ops 0..kCountOps-1, so a traced and
 *  an untraced run of one seed count the same work. */
constexpr std::int64_t kCountOps = 8;
/** Replays of each recorded stream per scheme in the traced run. */
constexpr int kReplayReps = 5;

/** Deterministic work counts; identical across runs of one seed. */
struct Counts
{
    std::uint64_t refs = 0;
    std::uint64_t packets = 0;
    std::uint64_t words = 0;
    std::uint64_t diagnostics = 0;
    std::uint64_t states = 0;
    std::uint64_t transitions = 0;
    std::uint64_t shapes = 0;      ///< streams built (first epochStream)
    std::uint64_t streamOps = 0;   ///< their StreamProgram::opCount()

    Counts &
    operator+=(const Counts &o)
    {
        refs += o.refs; packets += o.packets; words += o.words;
        diagnostics += o.diagnostics; states += o.states;
        transitions += o.transitions; shapes += o.shapes;
        streamOps += o.streamOps;
        return *this;
    }
    bool operator==(const Counts &) const = default;
};

/** One traced Machine::run(): for sim.ns_per_ref. */
struct CellSample
{
    unsigned procs = 0;
    std::uint64_t refs = 0;
    std::int32_t runSpan = -1;
};

struct Env
{
    Tracer tracer;
    std::uint64_t seed = 1;
    std::vector<CellSample> cells;
    std::vector<double> statesPerCpuS;
    /** Replay results, "<stream>/<scheme>" -> counts and ns/access. */
    std::map<std::string, std::pair<perfbench::ReplayCounts, double>>
        replays;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::int64_t
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

bool
sound(const sim::RunResult &r)
{
    return r.oracleViolations == 0 && r.shadowViolations == 0 &&
           r.doallViolations == 0 && !r.aborted();
}

void
countCell(Counts &c, const sim::RunResult &r)
{
    c.refs += r.reads + r.writes;
    c.packets += r.trafficPackets;
    c.words += r.trafficWords;
}

/** First epochStream of a (program, procs) shape, inside its span. */
void
buildStream(Env &env, const compiler::CompiledProgram &cp,
            const MachineConfig &cfg, Counts &c)
{
    auto sp = inSpan(env.tracer, "sim.stream_build",
                     [&] { return sim::epochStream(cp, cfg); });
    if (sp) {
        ++c.shapes;
        c.streamOps += sp->opCount();
    }
}

/** Construct and run one Machine, each inside its span. */
sim::RunResult
simulateCell(Env &env, const compiler::CompiledProgram &cp,
             const MachineConfig &cfg)
{
    auto m = inSpan(env.tracer, "sim.machine_ctor", [&] {
        return std::make_unique<sim::Machine>(cp, cfg);
    });
    Tracer::Scope run(env.tracer, "sim.run");
    sim::RunResult r = m->run();
    if (run.index() >= 0)
        env.cells.push_back({cfg.procs, r.reads + r.writes, run.index()});
    return r;
}

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

class Workload
{
  public:
    explicit Workload(Env &env) : _env(env) {}
    virtual ~Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /** One complete set-up from scratch. */
    virtual void setup(Counts &c) = 0;
    /** Op @p index; false when any output check failed. */
    virtual bool op(std::int64_t index, Counts &c) = 0;
    /** Traced run only: replay-based scheme isolation. */
    virtual bool isolateSchemes() { return true; }
    /** Extra line for the human-readable header, if any. */
    virtual const char *note() const { return nullptr; }

  protected:
    /** Replay @p s into each scheme kReplayReps times; the hit/miss
     *  counts must repeat and the median loop time is reported. */
    bool
    replaySchemes(const std::string &stream,
                  const perfbench::RecordedStream &s,
                  std::initializer_list<SchemeKind> schemes)
    {
        bool ok = true;
        for (SchemeKind k : schemes) {
            MachineConfig cfg;
            cfg.scheme = k;
            std::vector<double> ns;
            perfbench::ReplayCounts first;
            for (int rep = 0; rep < kReplayReps; ++rep) {
                perfbench::ReplayRun run = inSpan(
                    _env.tracer, "mem.replay",
                    [&] { return perfbench::replayInto(s, cfg); });
                if (rep == 0)
                    first = run.counts;
                ok = ok && run.counts == first;
                ns.push_back(double(run.loopNs) / double(s.accesses));
            }
            _env.replays[stream + "/" + schemeName(k)] = {first,
                                                          median(ns)};
        }
        return ok;
    }

    Env &_env;
};

// ---- paper-figures ------------------------------------------------------

constexpr SchemeKind kSchemes[] = {SchemeKind::Base, SchemeKind::SC,
                                   SchemeKind::TPI, SchemeKind::HW,
                                   SchemeKind::VC};

/**
 * The Figure 11/13/14 campaign: six kernels at scale 2 under the five
 * schemes, Figure 8 defaults, 16 processors. Each op runs all 30 cells
 * in a seed-shuffled order against the expected fingerprints.
 */
class PaperFigures : public Workload
{
  public:
    PaperFigures(Env &env, std::map<std::string, std::uint64_t> expected)
        : Workload(env), _expected(std::move(expected))
    {}

    void
    build(Counts &c)
    {
        _kernels.clear();
        for (const std::string &name : workloads::benchmarkNames()) {
            hir::Program prog = inSpan(_env.tracer, "workloads.build", [&] {
                return workloads::buildBenchmark(name, 2);
            });
            auto cp = inSpan(_env.tracer, "compiler.compile", [&] {
                return std::make_unique<compiler::CompiledProgram>(
                    compiler::compileProgram(std::move(prog)));
            });
            buildStream(_env, *cp, MachineConfig{}, c);
            _kernels.emplace_back(name, std::move(cp));
        }
    }

    void
    setup(Counts &c) override
    {
        build(c);
        Counts untimed;
        op(perfbench::kNoOp, untimed);
    }

    bool
    op(std::int64_t index, Counts &c) override
    {
        std::vector<std::size_t> order(_kernels.size() * 5);
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        Rng rng(_env.seed, static_cast<std::uint64_t>(index));
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1],
                      order[rng.below(static_cast<std::uint32_t>(i))]);

        bool ok = true;
        for (std::size_t cell : order) {
            const auto &[name, cp] = _kernels[cell / 5];
            MachineConfig cfg;
            cfg.scheme = kSchemes[cell % 5];
            const sim::RunResult r = simulateCell(_env, *cp, cfg);
            countCell(c, r);
            const std::string fp = hex16(r.fingerprint());
            auto it = _expected.find(name + " " + schemeName(cfg.scheme));
            const bool journalOk = inSpan(_env.tracer, "serve.journal", [&] {
                std::ostringstream enc;
                serve::encodeResult(enc, r);
                serve::TokenReader in(enc.str());
                sim::RunResult back;
                return serve::decodeResult(in, back) && in.atEnd() &&
                       back == r;
            });
            const bool jsonOk = inSpan(_env.tracer, "serve.json", [&] {
                std::ostringstream js;
                serve::writeResultCellJson(js, r, "");
                return js.str().find(fp) != std::string::npos;
            });
            ok = ok && sound(r) && it != _expected.end() &&
                 it->second == r.fingerprint() && journalOk && jsonOk;
        }
        return ok;
    }

    bool
    isolateSchemes() override
    {
        for (const auto &[name, cp] : _kernels)
            if (name == "OCEAN")
                return replaySchemes(
                    "OCEAN", perfbench::recordStream(*cp, MachineConfig{}),
                    {SchemeKind::Base, SchemeKind::SC, SchemeKind::TPI,
                     SchemeKind::HW, SchemeKind::VC});
        return false;
    }

    /** "<KERNEL> <SCHEME> <fingerprint>" lines for every cell. */
    std::string
    record()
    {
        Counts c;
        build(c);
        std::ostringstream os;
        for (const auto &[name, cp] : _kernels)
            for (SchemeKind k : kSchemes) {
                MachineConfig cfg;
                cfg.scheme = k;
                const sim::RunResult r = sim::simulate(*cp, cfg);
                if (!sound(r))
                    throw std::runtime_error(name + " " + schemeName(k) +
                                             " is not sound");
                os << name << ' ' << schemeName(k) << ' '
                   << hex16(r.fingerprint()) << '\n';
            }
        return os.str();
    }

  private:
    std::map<std::string, std::uint64_t> _expected;
    std::vector<std::pair<std::string,
                          std::unique_ptr<compiler::CompiledProgram>>>
        _kernels;
};

// ---- fresh-programs -----------------------------------------------------

/** Op index of the set-up's program set, outside every timed op. */
constexpr std::int64_t kSetupOp = -2;
/** Op index whose migratory program the traced run replays. */
constexpr std::int64_t kReplayOp = -3;

/**
 * New programs arriving: each op generates one program per synth
 * family at scale 32, compiles and lints it, then runs TPI (shadow
 * checker on) and HW at 4, 16 and 64 processors.
 */
class FreshPrograms : public Workload
{
  public:
    using Workload::Workload;

    /**
     * Generator seed of @p family's program in op @p index. Set-up and
     * replay programs use workload seed 0, so their cost is the same in
     * every run and setup_s compares across seeds.
     */
    std::uint64_t
    programSeed(std::int64_t index, std::size_t family) const
    {
        const std::uint64_t wseed = index < 0 ? 0 : _env.seed;
        std::uint64_t s = wseed * 0x9e3779b97f4a7c15ULL ^
                          static_cast<std::uint64_t>(index) *
                              0xc2b2ae3d27d4eb4fULL ^
                          family;
        return splitmix64(s) >> 40;
    }

    compiler::CompiledProgram
    compiled(const std::string &family, std::uint64_t seed)
    {
        hir::Program prog = inSpan(_env.tracer, "workloads.build", [&] {
            return workloads::buildSynth(family, seed, 32);
        });
        return inSpan(_env.tracer, "compiler.compile", [&] {
            return compiler::compileProgram(std::move(prog));
        });
    }

    void
    setup(Counts &c) override
    {
        op(kSetupOp, c);
    }

    bool
    op(std::int64_t index, Counts &c) override
    {
        bool ok = true;
        const auto families = workloads::synthFamilies();
        for (std::size_t f = 0; f < families.size(); ++f) {
            const std::uint64_t seed = programSeed(index, f);
            const compiler::CompiledProgram cp = compiled(families[f], seed);
            const verify::DiagnosticEngine d =
                inSpan(_env.tracer, "verify.lint", [&] {
                    return verify::lintProgram(
                        cp, "synth:" + families[f] + ":" +
                                std::to_string(seed));
                });
            ok = ok && d.errors() == 0;
            c.diagnostics += d.diagnostics().size();
            for (unsigned procs : {4u, 16u, 64u}) {
                MachineConfig cfg;
                cfg.procs = procs;
                buildStream(_env, cp, cfg, c);
                for (SchemeKind k : {SchemeKind::TPI, SchemeKind::HW}) {
                    cfg.scheme = k;
                    cfg.shadowEpochCheck = k == SchemeKind::TPI;
                    const sim::RunResult r = simulateCell(_env, cp, cfg);
                    countCell(c, r);
                    ok = ok && sound(r);
                }
            }
        }
        return ok;
    }

    bool
    isolateSchemes() override
    {
        const compiler::CompiledProgram cp =
            compiled("migratory", programSeed(kReplayOp, 0));
        MachineConfig cfg;
        cfg.scheme = SchemeKind::HW;
        return replaySchemes("migratory", perfbench::recordStream(cp, cfg),
                             {SchemeKind::TPI, SchemeKind::HW});
    }
};

// ---- model-check --------------------------------------------------------

/** Exhaustive exploration of the tier-1 default McConfig. */
class ModelCheck : public Workload
{
  public:
    using Workload::Workload;

    static constexpr std::uint64_t kStates = 97'468;
    static constexpr std::uint64_t kTransitions = 570'351;

    void
    setup(Counts &c) override
    {
        op(perfbench::kNoOp, c);
    }

    bool
    op(std::int64_t, Counts &c) override
    {
        const std::int64_t cpu0 = threadCpuNs();
        const mc::ExploreResult r = inSpan(
            _env.tracer, "mc.explore", [] { return mc::explore({}); });
        if (_env.tracer.enabled)
            _env.statesPerCpuS.push_back(double(r.states) * 1e9 /
                                         double(threadCpuNs() - cpu0));
        c.states += r.states;
        c.transitions += r.transitions;
        return r.clean() && r.states == kStates &&
               r.transitions == kTransitions;
    }

    const char *
    note() const override
    {
        return "seed unused: the exploration is exhaustive and "
               "deterministic";
    }
};

// ---- statistics and output ----------------------------------------------

/** Highest percentile with at least ten samples beyond it. */
struct Tail
{
    double value = 0;
    double percentile = 100;
    std::size_t beyond = 0;
};

Tail
tailOf(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    Tail t;
    if (v.empty())
        return t;
    const std::size_t n = v.size();
    const std::size_t k = n > 10 ? n - 11 : n - 1;
    t.value = v[k];
    t.beyond = n - 1 - k;
    t.percentile = 100.0 * double(k + 1) / double(n);
    return t;
}

class Metrics
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        _m.push_back({name, value, unit});
    }

    void
    print(std::ostream &os) const
    {
        // Names are at most 29 characters, so a space always follows.
        for (const auto &m : _m)
            os << "  " << std::left << std::setw(30) << m.name
               << num(m.value) << ' ' << m.unit << '\n';
    }

    std::string
    json() const
    {
        std::string s = "{";
        for (std::size_t i = 0; i < _m.size(); ++i)
            s += (i ? ", \"" : "\"") + _m[i].name + "\": {\"value\": " +
                 num(_m[i].value) + ", \"unit\": \"" + _m[i].unit + "\"}";
        return s + "}";
    }

    static std::string
    num(double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
        return buf;
    }

  private:
    struct M
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<M> _m;
};

/** The per-op simulated counts, under their per-layer metric names. */
void
addCounts(Metrics &m, const Counts &setup, const Counts &ops,
          std::int64_t nops)
{
    const double n = double(std::max<std::int64_t>(nops, 1));
    const Counts all = Counts(setup) += ops;
    m.add("verify.diagnostics", double(ops.diagnostics) / n, "count");
    m.add("sim.stream_ops",
          all.shapes ? double(all.streamOps) / double(all.shapes) : 0,
          "count");
    m.add("sim.refs", double(ops.refs) / n, "count");
    m.add("network.packets", double(ops.packets) / n, "count");
    m.add("network.words", double(ops.words) / n, "count");
    m.add("mc.states", double(ops.states) / n, "count");
    m.add("mc.transitions", double(ops.transitions) / n, "count");
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string expected;
    bool record = false;
    std::string spans;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "hscd_perfbench: " << why
              << "\nusage: hscd_perfbench --workload "
                 "paper-figures|fresh-programs|model-check --seed N "
                 "--seconds S --trace 0|1 --expected FILE [--record] "
                 "[--spans FILE]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--record") {
            o.record = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string v = argv[++i];
        try {
            if (a == "--workload")
                o.workload = v;
            else if (a == "--seed")
                o.seed = std::stoull(v);
            else if (a == "--seconds")
                o.seconds = std::stod(v);
            else if (a == "--trace")
                o.trace = std::stoi(v) != 0;
            else if (a == "--expected")
                o.expected = v;
            else if (a == "--spans")
                o.spans = v;
            else
                usage("unknown option " + a);
        } catch (const std::logic_error &) {
            usage("bad value for " + a + ": " + v);
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (!(o.seconds > 0))
        usage("--seconds must be positive");
    return o;
}

/** "<KERNEL> <SCHEME> <hex>" lines; '#' starts a comment. */
std::map<std::string, std::uint64_t>
readExpected(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        usage("cannot read expected fingerprints " + path);
    std::map<std::string, std::uint64_t> out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string kernel, scheme, fp;
        if (!(ls >> kernel >> scheme >> fp) || fp.size() != 16)
            usage("malformed line in " + path + ": " + line);
        out[kernel + " " + scheme] = std::stoull(fp, nullptr, 16);
    }
    return out;
}

double
processCpuS()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

double
sinceS(perfbench::Clock::time_point t0)
{
    return std::chrono::duration<double>(perfbench::Clock::now() - t0)
        .count();
}

struct OpOutcome
{
    bool ok = false;
    double ms = 0;
    Counts counts;
};

OpOutcome
runOp(Env &env, Workload &w, std::int64_t index)
{
    OpOutcome out;
    env.tracer.op = index;
    const auto t0 = perfbench::Clock::now();
    try {
        Tracer::Scope root(env.tracer, "bench.op");
        out.ok = w.op(index, out.counts);
    } catch (const std::exception &e) {
        std::cerr << "op " << index << " threw: " << e.what() << '\n';
    }
    out.ms = sinceS(t0) * 1e3;
    env.tracer.op = perfbench::kNoOp;
    return out;
}

/** What one run measured, before it becomes metrics. */
struct Phase
{
    std::vector<double> setupS;
    Counts setupCounts;
    Counts opCounts;                   ///< ops 0..kCountOps-1
    std::vector<double> opMs;          ///< untraced op latencies
    std::vector<double> tracedMs;      ///< traced run: traced twin of opMs
    double wallS = 0;
    double cpuS = 0;
    double streamHits = 0;
    double streamBuilds = 0;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    bool countsAgree = true;
};

/**
 * Set up kSetupReps times, then run ops until @p seconds have passed
 * (and at least kCountOps). Traced: each op runs untraced and traced,
 * alternating which goes first, and the two must count the same work.
 */
Phase
runPhase(Env &env, Workload &w, double seconds, bool trace,
         perfbench::Clock::time_point origin)
{
    Phase p;
    env.tracer.enabled = trace;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        // The first set-up is timed from process start.
        const auto t0 = rep == 0 ? origin : perfbench::Clock::now();
        p.setupCounts = Counts{};
        w.setup(p.setupCounts);
        p.setupS.push_back(sinceS(t0));
    }

    const sim::StreamCacheStats sc0 = sim::streamCacheStats();
    const double cpu0 = processCpuS();
    const auto wall0 = perfbench::Clock::now();
    for (std::int64_t i = 0; i < kCountOps || sinceS(wall0) < seconds;
         ++i) {
        OpOutcome run[2];   // [0] untraced, [1] traced
        for (int pass = 0; pass < (trace ? 2 : 1); ++pass) {
            const bool traced = trace && (pass == 0) == (i % 2 == 1);
            env.tracer.enabled = traced;
            run[traced] = runOp(env, w, i);
            ++p.attempted;
            p.failed += run[traced].ok ? 0 : 1;
        }
        env.tracer.enabled = false;
        p.opMs.push_back(run[0].ms);
        if (trace) {
            p.tracedMs.push_back(run[1].ms);
            if (!(run[0].counts == run[1].counts)) {
                p.countsAgree = false;
                std::cerr << "op " << i << ": traced and untraced counts "
                          << "differ\n";
            }
        }
        if (i < kCountOps)
            p.opCounts += run[0].counts;
    }
    p.wallS = sinceS(wall0);
    p.cpuS = processCpuS() - cpu0;
    const sim::StreamCacheStats sc1 = sim::streamCacheStats();
    p.streamHits = double(sc1.hits - sc0.hits);
    p.streamBuilds = double(sc1.builds - sc0.builds);
    return p;
}

Metrics
endToEnd(const Phase &p)
{
    const Tail tail = tailOf(p.opMs);
    const double n = double(p.opMs.size());
    Metrics m;
    m.add("setup_s", median(p.setupS), "s");
    m.add("ops_per_s", n / p.wallS, "ops/s");
    m.add("op_ms_p50", median(p.opMs), "ms");
    m.add("op_ms_tail", tail.value, "ms");
    m.add("cpu_ms_per_op", p.cpuS * 1e3 / n, "ms");
    m.add("peak_rss_mb", peakRssMiB(), "MiB");
    std::cout << "end-to-end (untraced):\n";
    m.print(std::cout);
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "  op_ms_tail is p%.2f: %zu of %zu ops beyond it\n",
                  tail.percentile, tail.beyond, p.opMs.size());
    std::cout << buf << "  setup_s runs (first from process start):";
    for (double v : p.setupS)
        std::cout << ' ' << Metrics::num(v);
    std::cout << " s\n";
    return m;
}

Metrics
perLayer(const Env &env, const Phase &p)
{
    const auto &spans = env.tracer.spans;
    auto spanMedianMs = [&](const char *name) {
        std::vector<double> v;
        for (const auto &s : spans)
            if (std::strcmp(s.name, name) == 0)
                v.push_back(double(s.durNs()) * 1e-6);
        return median(v);
    };
    auto nsPerRef = [&](unsigned procs) {
        double ns = 0, refs = 0;
        for (const CellSample &c : env.cells)
            if (procs == 0 || c.procs == procs) {
                ns += double(spans[std::size_t(c.runSpan)].durNs());
                refs += double(c.refs);
            }
        return refs > 0 ? ns / refs : 0.0;
    };
    auto replayNs = [&](const std::string &key) {
        auto it = env.replays.find(key);
        return it == env.replays.end() ? 0.0 : it->second.second;
    };
    double untracedMs = 0, tracedMs = 0;
    for (double v : p.opMs)
        untracedMs += v;
    for (double v : p.tracedMs)
        tracedMs += v;

    Metrics m;
    m.add("workloads.build_ms", spanMedianMs("workloads.build"), "ms");
    m.add("compiler.compile_ms", spanMedianMs("compiler.compile"), "ms");
    m.add("verify.lint_ms", spanMedianMs("verify.lint"), "ms");
    m.add("sim.stream_build_ms", spanMedianMs("sim.stream_build"), "ms");
    const double lookups = p.streamHits + p.streamBuilds;
    m.add("sim.stream_hit_ratio", lookups > 0 ? p.streamHits / lookups : 0,
          "ratio");
    m.add("sim.machine_ctor_ms", spanMedianMs("sim.machine_ctor"), "ms");
    m.add("sim.run_ms", spanMedianMs("sim.run"), "ms");
    m.add("sim.ns_per_ref", nsPerRef(0), "ns");
    for (unsigned procs : {4u, 16u, 64u})
        m.add("sim.ns_per_ref.p" + std::to_string(procs), nsPerRef(procs),
              "ns");
    for (SchemeKind k : kSchemes)
        m.add(std::string("mem.") + schemeName(k) + ".access_ns",
              replayNs(std::string("OCEAN/") + schemeName(k)), "ns");
    for (const char *k : {"TPI", "HW"})
        m.add(std::string("mem.") + k + ".access_ns.write_share",
              replayNs(std::string("migratory/") + k), "ns");
    m.add("serve.journal_us", spanMedianMs("serve.journal") * 1e3, "us");
    m.add("serve.json_us", spanMedianMs("serve.json") * 1e3, "us");
    m.add("mc.explore_ms", spanMedianMs("mc.explore"), "ms");
    m.add("mc.states_per_s", median(env.statesPerCpuS), "1/s");
    m.add("trace.overhead_pct",
          untracedMs > 0 ? 100.0 * (tracedMs / untracedMs - 1.0) : 0, "%");
    const auto self = perfbench::selfNsByLayer(
        spans, [](std::int64_t op) { return op >= 0; });
    const double tracedOps = double(std::max<std::size_t>(
        p.tracedMs.size(), 1));
    for (const char *layer :
         {"bench", "workloads", "compiler", "verify", "sim", "serve", "mc"}) {
        auto it = self.find(layer);
        m.add(std::string("self_ms.") + layer,
              it == self.end() ? 0 : double(it->second) * 1e-6 / tracedOps,
              "ms");
    }
    addCounts(m, p.setupCounts, p.opCounts, kCountOps);

    std::cout << "per-layer (traced; times are medians per call, self_ms "
                 "per op):\n";
    m.print(std::cout);
    for (const auto &[key, v] : env.replays)
        std::cout << "  replay " << key << ": reads=" << v.first.reads
                  << " writes=" << v.first.writes
                  << " read_hits=" << v.first.readHits
                  << " read_misses=" << v.first.readMisses
                  << " write_misses=" << v.first.writeMisses << '\n';
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto origin = perfbench::Clock::now();
    const Options opt = parseArgs(argc, argv);
    Env env{Tracer(origin), opt.seed, {}, {}, {}};
    std::cout.setf(std::ios::unitbuf);

    std::unique_ptr<Workload> w;
    if (opt.workload == "paper-figures") {
        if (opt.record) {
            PaperFigures pf(env, {});
            std::ofstream out(opt.expected);
            out << "# RunResult::fingerprint() of every paper-figures cell "
                   "(scale 2, Figure 8\n# defaults, 16 procs). Rewritten "
                   "only by hscd_perfbench --record.\n"
                << pf.record();
            if (!out.flush())
                usage("cannot write " + opt.expected);
            std::cout << "recorded " << opt.expected << '\n';
            return 0;
        }
        w = std::make_unique<PaperFigures>(env, readExpected(opt.expected));
    } else if (opt.workload == "fresh-programs") {
        w = std::make_unique<FreshPrograms>(env);
    } else if (opt.workload == "model-check") {
        w = std::make_unique<ModelCheck>(env);
    } else {
        usage("unknown workload " + opt.workload);
    }
    if (opt.record)
        usage("--record applies to paper-figures only");

    std::cout << "perfbench workload=" << opt.workload
              << " seed=" << opt.seed << " seconds=" << opt.seconds
              << " trace=" << (opt.trace ? 1 : 0)
              << " client=1 thread, closed loop\n";
    if (const char *n = w->note())
        std::cout << "  " << n << '\n';

    const Phase p = runPhase(env, *w, opt.seconds, opt.trace, origin);
    Metrics counts;
    addCounts(counts, p.setupCounts, p.opCounts, kCountOps);
    std::cout << "simulated counts (per op, ops 0.." << kCountOps - 1
              << "):\n";
    counts.print(std::cout);

    bool correct = p.failed == 0 && p.countsAgree;
    Metrics m;
    if (!opt.trace) {
        m = endToEnd(p);
    } else {
        correct = w->isolateSchemes() && correct;
        m = perLayer(env, p);
        if (!opt.spans.empty()) {
            std::ofstream out(opt.spans);
            env.tracer.writeChromeJson(out);
            std::cout << "  spans: " << env.tracer.spans.size()
                      << " written to " << opt.spans << '\n';
        }
    }

    std::cout << "ops: attempted=" << p.attempted << " failed=" << p.failed
              << '\n';
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << p.attempted
              << ", \"failed\": " << p.failed
              << ", \"metrics\": " << m.json() << "}\n";
    return 0;
}
