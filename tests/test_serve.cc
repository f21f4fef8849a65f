/**
 * @file
 * Unit tests for the durable-campaign primitives shared by the sweep
 * checkpoint: the strict JSON parser, the journal codec and header -
 * in particular that a header torn inside the identity is rejected as
 * structurally invalid, never misparsed as a shorter foreign id - and
 * the torn-tail compaction. Also pins the sweep engine's abort
 * contract: an expired --deadline-ms and a SIGTERM mid-campaign both
 * exit with verify::ExitAbort (4) after checkpointing, never 0.
 */

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "common/log.hh"
#include "common/strutil.hh"
#include "serve/journal.hh"
#include "sweep.hh"
#include "verify/diagnostic.hh"

using namespace hscd;
using namespace hscd::serve;

namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream f(path);
    EXPECT_TRUE(f.good()) << path;
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

/** Deterministic synthetic cell: no simulator, microsecond-fast. */
sim::RunResult
fakeCell(std::size_t i)
{
    sim::RunResult r;
    r.tasks = 1 + i;
    r.parallelEpochs = 2;
    r.reads = 100 * (i + 1);
    r.writes = 10 * (i + 1);
    r.readHits = 90 * (i + 1);
    // A non-trivial double: must survive the journal bit-exactly.
    r.readMissRate = 0.1 + 1e-17 * double(i);
    return r;
}

} // namespace

// --- JSON parser -------------------------------------------------------

TEST(ServeJson, ParsesScalarsObjectsArrays)
{
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(
        R"({"a": 1.5, "b": "x\n\"y", "c": [true, false, null], "d": {}})",
        v, err))
        << err;
    ASSERT_TRUE(v.isObject());
    EXPECT_DOUBLE_EQ(v.get("a")->number, 1.5);
    EXPECT_EQ(v.get("b")->text, "x\n\"y");
    ASSERT_TRUE(v.get("c")->isArray());
    EXPECT_EQ(v.get("c")->items.size(), 3u);
    EXPECT_TRUE(v.get("c")->items[0].boolean);
    EXPECT_TRUE(v.get("d")->isObject());
}

TEST(ServeJson, RejectsTrailingGarbageAndDepthBomb)
{
    JsonValue v;
    std::string err;
    EXPECT_FALSE(parseJson("{} trailing", v, err));
    EXPECT_FALSE(parseJson("{\"a\": }", v, err));
    EXPECT_FALSE(parseJson("", v, err));
    std::string bomb;
    for (int i = 0; i < 100; ++i)
        bomb += "[";
    EXPECT_FALSE(parseJson(bomb, v, err));
    EXPECT_NE(err.find("nest"), std::string::npos) << err;
}

TEST(ServeJson, DumpRoundTrips)
{
    JsonValue v;
    std::string err;
    const std::string in =
        R"({"op": "submit", "n": 3, "tags": ["a", "b"]})";
    ASSERT_TRUE(parseJson(in, v, err));
    JsonValue again;
    ASSERT_TRUE(parseJson(v.dump(), again, err)) << err;
    EXPECT_EQ(again.get("n")->number, 3);
    EXPECT_EQ(again.get("tags")->items[1].text, "b");
}

// --- journal primitives ------------------------------------------------

TEST(ServeJournal, HeaderRoundTrip)
{
    const std::string h = journalHeader("test-magic v1", 0xdeadbeef1234u);
    std::uint64_t id = 0;
    EXPECT_TRUE(parseJournalHeader(h, "test-magic v1", id));
    EXPECT_EQ(id, 0xdeadbeef1234u);
}

TEST(ServeJournal, TruncatedIdentityIsStructurallyInvalid)
{
    // The crash-recovery contract of satellite 3: a header torn inside
    // the 16-hex identity must be rejected as NOT-a-journal - never
    // misparsed as a shorter (foreign-looking) identity that would make
    // resume silently re-run or mis-attach.
    const std::string good = journalHeader("m v1", 0x0123456789abcdefu);
    std::uint64_t id = 0;
    ASSERT_TRUE(parseJournalHeader(good, "m v1", id));
    for (std::size_t cut = 1; cut <= 16; ++cut) {
        const std::string torn = good.substr(0, good.size() - cut);
        EXPECT_FALSE(parseJournalHeader(torn, "m v1", id))
            << "accepted a header missing " << cut << " identity bytes";
    }
}

TEST(ServeJournal, WrongMagicOrExtraBytesRejected)
{
    const std::string h = journalHeader("mine v1", 42);
    std::uint64_t id = 0;
    EXPECT_FALSE(parseJournalHeader(h, "other v1", id));
    EXPECT_FALSE(parseJournalHeader(h + "0", id ? "" : "mine v1", id));
    EXPECT_FALSE(parseJournalHeader(h + " x", "mine v1", id));
    std::string nonHex = h;
    nonHex[nonHex.size() - 1] = 'g';
    EXPECT_FALSE(parseJournalHeader(nonHex, "mine v1", id));
}

TEST(ServeJournal, ResultTokensRoundTripBitExactly)
{
    sim::RunResult r = fakeCell(7);
    r.readMissRate = 0.30000000000000004; // not representable cleanly
    std::ostringstream os;
    encodeResult(os, r);
    TokenReader tr(os.str());
    sim::RunResult back;
    ASSERT_TRUE(decodeResult(tr, back));
    EXPECT_EQ(back, r); // bit-exact via doubleBits
}

namespace {

/**
 * A value for the @p i-th listed counter, distinct from every other
 * field's and exact as a double (the shared JSON parser holds numbers
 * as doubles, so integers must stay below 2^53).
 */
template <class T>
void
setDistinct(T &v, std::uint64_t i)
{
    if constexpr (std::is_same_v<T, double>)
        v = double(i) + 1.0 / 3.0;
    else
        v = (std::uint64_t{1} << 52) + i * 0x10001;
}

/** A result with every listed counter and every hand-written field set. */
sim::RunResult
everyFieldSet()
{
    sim::RunResult r;
    std::uint64_t i = 0;
#define HSCD_TEST_FILL(member, key, kind) setDistinct(r.member, ++i);
    HSCD_RUN_RESULT_SCALARS(HSCD_TEST_FILL)
#undef HSCD_TEST_FILL
    r.firstViolations.push_back({64, 3, 5, 6, 2, 1});
    r.shadowViolations = 2;
    r.firstShadowViolations.push_back({68, 4, 1, 2, 0, 1});
    r.abort.kind = fault::AbortKind::Watchdog;
    r.abort.reason = "stalled \"here\"\r\n";
    r.abort.cycle = 77;
    r.abort.epoch = 3;
    r.abort.proc = 2;
    r.abort.snapshot = "proc 2 parked";
    r.faultsInjected = 5;
    r.faultsRecovered = 4;
    r.faultRetries = 9;
    return r;
}

} // namespace

// The counter list is the schema: every entry must survive the journal
// bit-exactly, appear in the cell JSON under its key with its value,
// and feed the fingerprint.
TEST(ServeJournal, EveryListedCounterRoundTripsAndFingerprints)
{
    const sim::RunResult r = everyFieldSet();

    std::ostringstream enc;
    encodeResult(enc, r);
    TokenReader tr(enc.str());
    sim::RunResult back;
    ASSERT_TRUE(decodeResult(tr, back));
    EXPECT_TRUE(tr.atEnd());
    EXPECT_EQ(back, r);
    EXPECT_EQ(back.fingerprint(), r.fingerprint());

    std::ostringstream cell;
    writeResultCellJson(cell, r, "");
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson("{\n" + cell.str() + "\n}", doc, err)) << err;
    std::size_t keys = 0;
#define HSCD_TEST_JSON(member, key, kind)                                    \
    {                                                                        \
        const JsonValue *v = doc.get(key);                                   \
        ASSERT_TRUE(v && v->isNumber()) << key;                              \
        EXPECT_EQ(v->number, static_cast<double>(r.member)) << key;          \
        ++keys;                                                              \
    }
    HSCD_RUN_RESULT_SCALARS(HSCD_TEST_JSON)
#undef HSCD_TEST_JSON
    EXPECT_EQ(keys, 34u);
    EXPECT_EQ(doc.get("fingerprint")->asString(),
              csprintf("%016x", r.fingerprint()));
    EXPECT_EQ(doc.get("abort")->get("reason")->asString(), r.abort.reason);

    const std::uint64_t fp = r.fingerprint();
#define HSCD_TEST_PERTURB(member, key, kind)                                 \
    {                                                                        \
        sim::RunResult p = r;                                                \
        p.member += 1;                                                       \
        EXPECT_NE(p.fingerprint(), fp) << key;                               \
    }
    HSCD_RUN_RESULT_SCALARS(HSCD_TEST_PERTURB)
#undef HSCD_TEST_PERTURB
}

TEST(ServeJournal, DecodeRejectsUnknownAbortKind)
{
    // A record ends with the abort kind, reason, cycle, epoch, proc and
    // snapshot, then the three fault counters.
    std::ostringstream os;
    encodeResult(os, sim::RunResult());
    std::vector<std::string> toks;
    std::istringstream split(os.str());
    for (std::string t; split >> t;)
        toks.push_back(t);
    ASSERT_GT(toks.size(), 9u);
    const std::size_t kindAt = toks.size() - 9;
    ASSERT_EQ(toks[kindAt], "0");
    ASSERT_EQ(toks[kindAt + 1], "-");

    auto decodesWithKind = [&](const std::string &kind) {
        std::vector<std::string> line = toks;
        line[kindAt] = kind;
        std::string text;
        for (const std::string &t : line)
            text += ' ' + t;
        TokenReader tr(text);
        sim::RunResult r;
        return decodeResult(tr, r) && tr.atEnd();
    };
    EXPECT_TRUE(decodesWithKind("3")); // Deadlock, the last real kind
    // A corrupt kind is a torn line, never a result that later panics
    // in abortKindName() when the cell JSON is written.
    EXPECT_FALSE(decodesWithKind("4"));
    EXPECT_FALSE(decodesWithKind("9"));
    EXPECT_FALSE(decodesWithKind("255"));
}

TEST(ServeJournal, CompactKeepsOnlyTheGivenLinesAtomically)
{
    // A crash image: header, one whole record, then a torn tail with no
    // newline. Compaction rewrites the file to the valid lines, each
    // newline-terminated, so the next append starts a line of its own.
    const std::string path = testing::TempDir() + "serve_compact.journal";
    const std::string header = journalHeader("m v1", 0x0123456789abcdefu);
    std::ostringstream rec;
    rec << 0;
    encodeResult(rec, fakeCell(0));
    rec << " -";
    {
        std::ofstream f(path, std::ios::trunc);
        f << header << '\n' << rec.str() << '\n' << "1";
    }
    ASSERT_TRUE(compactJournal(path, {header, rec.str()}));
    EXPECT_EQ(slurp(path), header + "\n" + rec.str() + "\n");
    {
        std::ofstream f(path, std::ios::app);
        f << "3 next\n";
    }
    EXPECT_EQ(slurp(path), header + "\n" + rec.str() + "\n3 next\n");
    // The temp file was renamed over the journal, not left behind.
    EXPECT_FALSE(std::ifstream(path + ".tmp").good());
    // An unwritable target fails without touching anything.
    EXPECT_FALSE(compactJournal(testing::TempDir() + "no/such/dir/j",
                                {header}));
    std::remove(path.c_str());
}

// --- sweep abort contract ----------------------------------------------

namespace {

/** Run a 4-cell sweep whose second cell triggers @p trip. */
void
sweepAbortScenario(bench::SweepOptions opts, std::function<void()> trip)
{
    bench::Sweep sweep(opts, "abort-contract");
    sweep.addCustom("ok-0", [] { return fakeCell(0); });
    sweep.addCustom("trip", [trip] {
        trip();
        return fakeCell(1);
    });
    for (int i = 2; i < 4; ++i)
        sweep.addCustom(csprintf("slow-%d", i), [i] {
            std::this_thread::sleep_for(std::chrono::milliseconds(80));
            return fakeCell(std::size_t(i));
        });
    sweep.run();
    std::ostringstream devnull;
    sweep.finish(devnull); // must std::exit(ExitAbort), never return
    std::exit(0);
}

} // namespace

TEST(SweepAbort, ExpiredDeadlineExitsWithAbortCode)
{
    bench::SweepOptions opts;
    opts.jobs = 1;
    opts.deadlineMs = 1; // expires before the later cells start
    EXPECT_EXIT(sweepAbortScenario(opts, [] {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(30));
                }),
                testing::ExitedWithCode(verify::ExitAbort), "deadline");
}

TEST(SweepAbort, SigtermCheckpointsAndExitsWithAbortCode)
{
    EXPECT_EXIT(
        {
            // parse() installs the SIGINT/SIGTERM handlers.
            std::vector<std::string> argvStrs = {"sweep-abort-test"};
            std::vector<char *> argv = {argvStrs[0].data()};
            bench::SweepOptions opts =
                bench::SweepOptions::parse(1, argv.data());
            opts.jobs = 1;
            opts.checkpointPath =
                testing::TempDir() + "sweep_abort_sig.journal";
            std::remove(opts.checkpointPath.c_str());
            sweepAbortScenario(opts, [] { std::raise(SIGTERM); });
        },
        testing::ExitedWithCode(verify::ExitAbort),
        "skipped.*journaled");
}
