/**
 * @file
 * Eviction locks: run fingerprints under caches small enough to evict.
 *
 * Every other golden runs the default 64 KB cache, which holds each
 * workload's whole data set, so none of them exercises CacheArray's
 * victim choice among valid frames, its LRU order, or a sweep over
 * frames that were filled, evicted and refilled. This table freezes
 * RunResult::fingerprint() for two paper kernels and two synthetic
 * families under all five schemes on 1 KB direct-mapped, 2 KB 2-way
 * and 4 KB 4-way caches at 4, 16 and 64 processors. An intentional
 * change regenerates it with
 *
 *   HSCD_PRINT_GOLDEN=1 ./tests/hscd_tests \
 *       --gtest_filter='*CacheGeometryGolden*' 2>&1 | grep GOLDEN
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "sim/machine.hh"
#include "workloads/synth.hh"
#include "workloads/workloads.hh"

using namespace hscd;

namespace {

struct Geometry
{
    const char *name;
    std::uint64_t cacheBytes;
    unsigned assoc;
};

const Geometry kGeometries[] = {
    {"1K-dm", 1024, 1}, {"2K-2way", 2048, 2}, {"4K-4way", 4096, 4}};
const unsigned kProcs[] = {4, 16, 64};
const SchemeKind kSchemes[] = {SchemeKind::Base, SchemeKind::SC,
                               SchemeKind::TPI, SchemeKind::HW,
                               SchemeKind::VC};

struct GoldenRow
{
    const char *program;
    const char *scheme;
    const char *geometry;
    // fingerprint() at 4, 16 and 64 processors.
    unsigned long long fp[3];
};

// Regenerate with HSCD_PRINT_GOLDEN=1 (see file comment).
const GoldenRow kGolden[] = {
    {"QCD2", "BASE", "1K-dm",
     {13077483474967292436ull, 15495090665835751945ull,
      12289453921813883040ull}},
    {"QCD2", "BASE", "2K-2way",
     {13077483474967292436ull, 15495090665835751945ull,
      12289453921813883040ull}},
    {"QCD2", "BASE", "4K-4way",
     {13077483474967292436ull, 15495090665835751945ull,
      12289453921813883040ull}},
    {"QCD2", "SC", "1K-dm",
     {7108119713081162635ull, 2695360059223499484ull,
      4005193243912940821ull}},
    {"QCD2", "SC", "2K-2way",
     {12230601941523489770ull, 17539426286368946394ull,
      4405219312600798962ull}},
    {"QCD2", "SC", "4K-4way",
     {16964838523538645845ull, 1624885931915692324ull,
      2630741416561457115ull}},
    {"QCD2", "TPI", "1K-dm",
     {8982674762120921190ull, 13898241306599947395ull,
      17029933340618361194ull}},
    {"QCD2", "TPI", "2K-2way",
     {16615769747473378115ull, 2931255990099670319ull,
      4624397546344422836ull}},
    {"QCD2", "TPI", "4K-4way",
     {10963764233252275650ull, 14342525294553932180ull,
      11914535574887087638ull}},
    {"QCD2", "HW", "1K-dm",
     {1330760533605356328ull, 10377743229051832876ull,
      10541808543604095334ull}},
    {"QCD2", "HW", "2K-2way",
     {2397184304640808315ull, 1906509362458422211ull,
      5118088424439199716ull}},
    {"QCD2", "HW", "4K-4way",
     {2545593238825874242ull, 17949045140617440924ull,
      17086169574073410044ull}},
    {"QCD2", "VC", "1K-dm",
     {7450693007984140309ull, 10706850458497494021ull,
      2504608253760423181ull}},
    {"QCD2", "VC", "2K-2way",
     {9652938678218984260ull, 16992499160363348856ull,
      5565641525383092549ull}},
    {"QCD2", "VC", "4K-4way",
     {12997019439324145714ull, 9782591934803533763ull,
      4907259279750045766ull}},
    {"OCEAN", "BASE", "1K-dm",
     {4313942810216262665ull, 15358254023146844173ull,
      9437979889130300880ull}},
    {"OCEAN", "BASE", "2K-2way",
     {4313942810216262665ull, 15358254023146844173ull,
      9437979889130300880ull}},
    {"OCEAN", "BASE", "4K-4way",
     {4313942810216262665ull, 15358254023146844173ull,
      9437979889130300880ull}},
    {"OCEAN", "SC", "1K-dm",
     {3500907762980814931ull, 16776060134185940309ull,
      7073737538278552564ull}},
    {"OCEAN", "SC", "2K-2way",
     {11285682482052537887ull, 6798749162613564729ull,
      387631326442460345ull}},
    {"OCEAN", "SC", "4K-4way",
     {11167865022768512185ull, 331925181484280403ull,
      16445662256250606842ull}},
    {"OCEAN", "TPI", "1K-dm",
     {17453153938110299983ull, 12752968869462197488ull,
      6836589214907271511ull}},
    {"OCEAN", "TPI", "2K-2way",
     {14652532786914109736ull, 12397685301804566968ull,
      14893714182588317940ull}},
    {"OCEAN", "TPI", "4K-4way",
     {4293198203123896870ull, 883391302466523454ull,
      869910792614992162ull}},
    {"OCEAN", "HW", "1K-dm",
     {15571305850978174545ull, 10897710531813745281ull,
      14591744821149266063ull}},
    {"OCEAN", "HW", "2K-2way",
     {9277463129384744894ull, 6120921654585309237ull,
      6532749192860671806ull}},
    {"OCEAN", "HW", "4K-4way",
     {3816953135905934993ull, 17693658933631457576ull,
      5145374917868159940ull}},
    {"OCEAN", "VC", "1K-dm",
     {14935703744186306376ull, 1145033344043946314ull,
      1814867949857921453ull}},
    {"OCEAN", "VC", "2K-2way",
     {7458640487003438415ull, 9262046009022698063ull,
      3661311018656398851ull}},
    {"OCEAN", "VC", "4K-4way",
     {17643050107414730572ull, 12640048439310313708ull,
      3843689064980682707ull}},
    {"stencil", "BASE", "1K-dm",
     {16333542932250446030ull, 12723719744929542846ull,
      10021319467370215605ull}},
    {"stencil", "BASE", "2K-2way",
     {16333542932250446030ull, 12723719744929542846ull,
      10021319467370215605ull}},
    {"stencil", "BASE", "4K-4way",
     {16333542932250446030ull, 12723719744929542846ull,
      10021319467370215605ull}},
    {"stencil", "SC", "1K-dm",
     {12065784358043397575ull, 5655991008741725909ull,
      758072580790307441ull}},
    {"stencil", "SC", "2K-2way",
     {9832930435693761587ull, 5655991008741725909ull,
      758072580790307441ull}},
    {"stencil", "SC", "4K-4way",
     {15206679035763892447ull, 5655991008741725909ull,
      758072580790307441ull}},
    {"stencil", "TPI", "1K-dm",
     {10644516558291491322ull, 17417746241318631173ull,
      11886642638606368167ull}},
    {"stencil", "TPI", "2K-2way",
     {10059141618253988260ull, 17417746241318631173ull,
      11886642638606368167ull}},
    {"stencil", "TPI", "4K-4way",
     {13047027893996236829ull, 17417746241318631173ull,
      11886642638606368167ull}},
    {"stencil", "HW", "1K-dm",
     {3164624488423134035ull, 4895904380851280012ull,
      14252045417470166ull}},
    {"stencil", "HW", "2K-2way",
     {13987006161588264729ull, 8788096528220959949ull,
      11348831690485566179ull}},
    {"stencil", "HW", "4K-4way",
     {12407988550938342386ull, 5271046831116389150ull,
      1107795830923732257ull}},
    {"stencil", "VC", "1K-dm",
     {7567735867715866599ull, 690153321845123747ull,
      11526797659180665546ull}},
    {"stencil", "VC", "2K-2way",
     {11453133852639948620ull, 690153321845123747ull,
      11526797659180665546ull}},
    {"stencil", "VC", "4K-4way",
     {5881146051629821008ull, 690153321845123747ull,
      11526797659180665546ull}},
    {"prodcons", "BASE", "1K-dm",
     {16495421189604480606ull, 8936385161579557819ull,
      18098721321192019173ull}},
    {"prodcons", "BASE", "2K-2way",
     {16495421189604480606ull, 8936385161579557819ull,
      18098721321192019173ull}},
    {"prodcons", "BASE", "4K-4way",
     {16495421189604480606ull, 8936385161579557819ull,
      18098721321192019173ull}},
    {"prodcons", "SC", "1K-dm",
     {4459424412011001838ull, 10059006603825764919ull,
      13826810175641298168ull}},
    {"prodcons", "SC", "2K-2way",
     {6931291814826467053ull, 17336526995180851314ull,
      4555771896120762208ull}},
    {"prodcons", "SC", "4K-4way",
     {2140683009753809701ull, 10133980039882999442ull,
      9521721608814417684ull}},
    {"prodcons", "TPI", "1K-dm",
     {7620832561969762755ull, 5019006806828348510ull,
      7543999936848696889ull}},
    {"prodcons", "TPI", "2K-2way",
     {7948379458517635485ull, 5373881713385982751ull,
      14322930642588238551ull}},
    {"prodcons", "TPI", "4K-4way",
     {3418238762746951880ull, 13823935635287175847ull,
      4830968349954235139ull}},
    {"prodcons", "HW", "1K-dm",
     {4238653935805955971ull, 15230272461962767350ull,
      11497891277352102955ull}},
    {"prodcons", "HW", "2K-2way",
     {3469350623759729356ull, 14943522953833798961ull,
      11311231430914257191ull}},
    {"prodcons", "HW", "4K-4way",
     {13147934731366171107ull, 4550881745594617346ull,
      15421075096539866736ull}},
    {"prodcons", "VC", "1K-dm",
     {7620832561969762755ull, 5019006806828348510ull,
      7543999936848696889ull}},
    {"prodcons", "VC", "2K-2way",
     {7948379458517635485ull, 5373881713385982751ull,
      14322930642588238551ull}},
    {"prodcons", "VC", "4K-4way",
     {3418238762746951880ull, 13823935635287175847ull,
      4830968349954235139ull}},
};

/**
 * The programs under test: paper kernels at test size, synthetic
 * families (seed 1) at scale 8, the smallest scale at which they evict
 * under every geometry below.
 */
hir::Program
buildProgram(const std::string &name)
{
    if (name == "QCD2" || name == "OCEAN")
        return workloads::buildBenchmark(name, 1);
    return workloads::buildSynth(name, 1, 8);
}

const GoldenRow *
findGolden(const std::string &program, const char *scheme,
           const char *geometry)
{
    for (const GoldenRow &row : kGolden)
        if (program == row.program && std::string(scheme) == row.scheme &&
            std::string(geometry) == row.geometry)
            return &row;
    return nullptr;
}

class CacheGeometryGolden : public ::testing::TestWithParam<const char *>
{};

} // namespace

TEST_P(CacheGeometryGolden, FingerprintsUnderSmallCaches)
{
    const std::string program = GetParam();
    const compiler::CompiledProgram cp =
        compiler::compileProgram(buildProgram(program));
    const bool print = std::getenv("HSCD_PRINT_GOLDEN") != nullptr;

    for (SchemeKind k : kSchemes) {
        for (const Geometry &g : kGeometries) {
            unsigned long long fp[3];
            std::uint64_t replacements = 0;
            for (int p = 0; p < 3; ++p) {
                MachineConfig cfg;
                cfg.scheme = k;
                cfg.procs = kProcs[p];
                cfg.cacheBytes = g.cacheBytes;
                cfg.assoc = g.assoc;
                const sim::RunResult r = sim::simulate(cp, cfg);
                EXPECT_EQ(r.oracleViolations, 0u)
                    << program << " " << schemeName(k) << " " << g.name
                    << " at " << kProcs[p] << " procs";
                replacements += r.missReplacement;
                fp[p] = r.fingerprint();
            }
            // BASE caches nothing; every other scheme must evict here,
            // or this table pins nothing the default goldens do not.
            if (k != SchemeKind::Base) {
                EXPECT_GT(replacements, 0u)
                    << program << " " << schemeName(k) << " " << g.name
                    << " never evicted a valid line";
            }
            if (print) {
                std::fprintf(stderr,
                             "GOLDEN     {\"%s\", \"%s\", \"%s\",\n"
                             "GOLDEN      {%lluull, %lluull,\n"
                             "GOLDEN       %lluull}},\n",
                             program.c_str(), schemeName(k), g.name, fp[0],
                             fp[1], fp[2]);
                continue;
            }
            const GoldenRow *row = findGolden(program, schemeName(k), g.name);
            ASSERT_NE(row, nullptr) << program << " " << schemeName(k)
                                    << " " << g.name << ": no golden row";
            for (int p = 0; p < 3; ++p)
                EXPECT_EQ(fp[p], row->fp[p])
                    << program << " under " << schemeName(k) << " on "
                    << g.name << " at " << kProcs[p]
                    << " procs: a run fingerprint moved (exact freeze; "
                       "regenerate if intentional)";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Programs, CacheGeometryGolden,
                         ::testing::Values("QCD2", "OCEAN", "stencil",
                                           "prodcons"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });
