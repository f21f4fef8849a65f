/**
 * @file
 * Unit and behavior tests for the campaign-server subsystem
 * (src/serve/): the strict JSON parser, the submission grammar and
 * identity contract, the PR 4-format journal primitives - in
 * particular that a header torn inside the identity is rejected as
 * structurally invalid, never misparsed as a shorter foreign id - the
 * durable queue's crash recovery (torn tails compacted, foreign and
 * invalid journals set aside), admission control, and the NDJSON
 * request dispatch. Also pins the sweep engine's abort contract:
 * an expired --deadline-ms and a SIGTERM mid-campaign both exit with
 * verify::ExitAbort (4) after checkpointing, never 0.
 */

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "common/log.hh"
#include "harness.hh"
#include "serve/journal.hh"
#include "serve/protocol.hh"
#include "serve/queue.hh"
#include "serve/server.hh"
#include "sweep.hh"
#include "verify/diagnostic.hh"

using namespace hscd;
using namespace hscd::serve;

namespace {

namespace fs = std::filesystem;

std::string
freshDir(const std::string &name)
{
    const std::string dir = testing::TempDir() + name;
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    return dir;
}

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
fakeCell(const CampaignSpec &, std::size_t i)
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

CampaignSpec
smallSpec(const std::string &name, std::size_t cells)
{
    CampaignSpec spec;
    spec.name = name;
    for (std::size_t i = 0; i < cells; ++i) {
        CellSpec c;
        c.workload = "adm";
        c.scheme = "tpi";
        c.scale = 1;
        c.label = csprintf("cell-%d", int(i));
        spec.cells.push_back(std::move(c));
    }
    return spec;
}

/** Spin until campaign @p id completes (bounded). */
CampaignQueue::Status
awaitComplete(CampaignQueue &q, std::uint64_t id)
{
    for (int spins = 0; spins < 2000; ++spins) {
        CampaignQueue::Status st = q.status(id);
        if (st.complete)
            return st;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ADD_FAILURE() << "campaign never completed";
    return q.status(id);
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
    sim::RunResult r = fakeCell(CampaignSpec(), 7);
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

// --- protocol ----------------------------------------------------------

TEST(ServeProtocol, SubmitRoundTripsThroughRequestJson)
{
    CampaignSpec spec = smallSpec("round-trip", 3);
    spec.cells[1].workload = "synth:stencil:3";
    spec.cells[1].scheme = "hw";
    spec.cells[2].procs = 32;
    spec.cells[2].affinity = false;
    spec.faultSpec = "0.001:9";
    spec.timeoutMs = 5000;

    JsonValue req;
    std::string err;
    ASSERT_TRUE(parseJson(spec.toRequestJson(), req, err)) << err;
    CampaignSpec back;
    ASSERT_TRUE(parseSubmit(req, back, err)) << err;
    EXPECT_EQ(back.identity(), spec.identity());
    EXPECT_EQ(back.canonical(), spec.canonical());
    EXPECT_EQ(back.timeoutMs, 5000);
}

TEST(ServeProtocol, IdentityExcludesExecutionBudgets)
{
    CampaignSpec a = smallSpec("budgets", 2);
    CampaignSpec b = a;
    b.timeoutMs = 9999;
    b.deadlineMs = 123456;
    // An interrupted submission retried with different budgets must
    // attach to the same durable campaign.
    EXPECT_EQ(a.identity(), b.identity());
    CampaignSpec c = a;
    c.cells[0].scheme = "hw";
    EXPECT_NE(a.identity(), c.identity());
}

TEST(ServeProtocol, StrictRejections)
{
    auto tryParse = [](const std::string &json) {
        JsonValue req;
        CampaignSpec out;
        std::string err;
        EXPECT_TRUE(parseJson(json, req, err)) << err;
        const bool ok = parseSubmit(req, out, err);
        return ok ? std::string() : err;
    };
    EXPECT_NE(tryParse(R"({"op": "submit", "campaign": "x", "cells":
        [{"workload": "adm", "scheme": "tpi"}], "typo_field": 1})"),
              "");
    EXPECT_NE(tryParse(R"({"op": "submit", "campaign": "x", "cells":
        [{"workload": "nosuch", "scheme": "tpi"}]})"),
              "");
    EXPECT_NE(tryParse(R"({"op": "submit", "campaign": "x", "cells":
        [{"workload": "adm", "scheme": "nosuch"}]})"),
              "");
    EXPECT_NE(tryParse(R"({"op": "submit", "campaign": "x",
        "cells": []})"),
              "");
    EXPECT_NE(tryParse(R"({"op": "submit", "campaign": "x", "cells":
        [{"workload": "adm", "scheme": "tpi", "scale": 99}]})"),
              "");
}

// --- durable queue -----------------------------------------------------

TEST(ServeQueue, RunsPersistsAndRecovers)
{
    const std::string dir = freshDir("serve_q_basic");
    const CampaignSpec spec = smallSpec("basic", 4);
    std::string resultBytes;
    std::uint64_t id = 0;
    {
        CampaignQueue q(dir, QueueLimits(), fakeCell, 2);
        CampaignQueue::Admission a = q.submit(spec);
        ASSERT_EQ(a.status, CampaignQueue::Admission::Status::Accepted);
        id = a.id;

        // Idempotent resubmission.
        CampaignQueue::Admission again = q.submit(spec);
        EXPECT_EQ(again.status, CampaignQueue::Admission::Status::Dedup);
        EXPECT_EQ(again.id, id);

        CampaignQueue::Status st = awaitComplete(q, id);
        EXPECT_EQ(st.done, 4u);
        EXPECT_EQ(st.errors, 0u);
        ASSERT_FALSE(st.resultPath.empty());
        resultBytes = slurp(st.resultPath);
        EXPECT_NE(resultBytes.find("\"reads\": 400"), std::string::npos);
        q.shutdown(/*drain=*/true);
    }
    // A fresh process over the same state dir sees the finished
    // campaign without re-running anything.
    CampaignQueue q2(dir, QueueLimits(), fakeCell, 2);
    EXPECT_EQ(q2.recover(), 1u);
    CampaignQueue::Status st = q2.status(id);
    EXPECT_TRUE(st.complete);
    EXPECT_EQ(slurp(st.resultPath), resultBytes);
    q2.shutdown(true);
}

TEST(ServeQueue, TornJournalTailIsCompactedAndResumed)
{
    // Reference: run the campaign to completion in dir A.
    const std::string ref = freshDir("serve_q_torn_ref");
    const CampaignSpec spec = smallSpec("torn", 5);
    std::string refBytes, journal;
    {
        CampaignQueue q(ref, QueueLimits(), fakeCell, 1);
        CampaignQueue::Admission a = q.submit(spec);
        CampaignQueue::Status st = awaitComplete(q, a.id);
        refBytes = slurp(st.resultPath);
        q.shutdown(true);
        journal = slurp(ref + "/" + csprintf("%016x", a.id) + ".journal");
    }
    ASSERT_FALSE(refBytes.empty());

    // Crash image in dir B: the .req, plus the journal cut mid-record
    // exactly as kill -9 mid-append leaves it (header + 2 whole records
    // + half of the third, no newline).
    const std::string dir = freshDir("serve_q_torn");
    const std::string idHex = csprintf("%016x", spec.identity());
    {
        std::ofstream req(dir + "/" + idHex + ".req");
        req << spec.toRequestJson() << "\n";
    }
    std::istringstream lines(journal);
    std::string line, torn;
    for (int keep = 0; keep < 3 && std::getline(lines, line); ++keep)
        torn += line + "\n";
    ASSERT_TRUE(std::getline(lines, line));
    torn += line.substr(0, line.size() / 2);
    {
        std::ofstream j(dir + "/" + idHex + ".journal");
        j << torn;
    }

    CampaignQueue q(dir, QueueLimits(), fakeCell, 1);
    ASSERT_EQ(q.recover(), 1u);
    const CampaignQueue::Status st = awaitComplete(q, spec.identity());
    EXPECT_EQ(st.done, 5u);
    // The torn record was discarded, the two whole ones restored, and
    // the final aggregate is byte-identical to the uninterrupted run's.
    EXPECT_EQ(q.counters().cellsRestored, 2u);
    EXPECT_EQ(q.counters().cellsRun, 3u);
    EXPECT_EQ(slurp(st.resultPath), refBytes);
    q.shutdown(true);
}

TEST(ServeQueue, ForeignAndTornHeaderJournalsAreSetAside)
{
    const CampaignSpec spec = smallSpec("aside", 3);
    const std::string idHex = csprintf("%016x", spec.identity());

    // A sweep-format journal squatting on our key: its magic fails the
    // strict header parse, so it is structurally not ours - set aside
    // as .invalid, campaign re-run from scratch, nothing trusted.
    {
        const std::string dir = freshDir("serve_q_sweepmagic");
        {
            std::ofstream req(dir + "/" + idHex + ".req");
            req << spec.toRequestJson() << "\n";
            std::ofstream j(dir + "/" + idHex + ".journal");
            j << journalHeader("hscd-sweep-journal v1", spec.identity())
              << "\n0 ";
            encodeResult(j, fakeCell(spec, 0));
            j << " -\n";
        }
        CampaignQueue q(dir, QueueLimits(), fakeCell, 1);
        ASSERT_EQ(q.recover(), 1u);
        const CampaignQueue::Status st =
            awaitComplete(q, spec.identity());
        EXPECT_EQ(st.done, 3u);
        EXPECT_EQ(q.counters().cellsRestored, 0u);
        EXPECT_TRUE(fs::exists(dir + "/" + idHex + ".journal.invalid"));
        q.shutdown(true);
    }

    // A well-formed serve journal carrying a different identity (e.g.
    // a file copied between state dirs): refused as foreign.
    {
        const std::string dir = freshDir("serve_q_foreign");
        {
            std::ofstream req(dir + "/" + idHex + ".req");
            req << spec.toRequestJson() << "\n";
            std::ofstream j(dir + "/" + idHex + ".journal");
            j << journalHeader("hscd-serve-journal v1",
                               spec.identity() ^ 0xabcdu)
              << "\n";
        }
        CampaignQueue q(dir, QueueLimits(), fakeCell, 1);
        ASSERT_EQ(q.recover(), 1u);
        const CampaignQueue::Status st =
            awaitComplete(q, spec.identity());
        EXPECT_EQ(st.done, 3u);
        EXPECT_EQ(q.counters().cellsRestored, 0u);
        EXPECT_TRUE(fs::exists(dir + "/" + idHex + ".journal.foreign"));
        q.shutdown(true);
    }

    // Satellite 3, server side: a header torn inside the identity is
    // structurally invalid - set aside as .invalid, never misparsed.
    {
        const std::string dir = freshDir("serve_q_invalid");
        {
            std::ofstream req(dir + "/" + idHex + ".req");
            req << spec.toRequestJson() << "\n";
            const std::string good =
                journalHeader("hscd-serve-journal v1", spec.identity());
            std::ofstream j(dir + "/" + idHex + ".journal");
            j << good.substr(0, good.size() - 7); // torn mid-identity
        }
        CampaignQueue q(dir, QueueLimits(), fakeCell, 1);
        ASSERT_EQ(q.recover(), 1u);
        const CampaignQueue::Status st =
            awaitComplete(q, spec.identity());
        EXPECT_EQ(st.done, 3u);
        EXPECT_EQ(q.counters().cellsRestored, 0u);
        EXPECT_TRUE(fs::exists(dir + "/" + idHex + ".journal.invalid"));
        q.shutdown(true);
    }
}

TEST(ServeQueue, OverBoundSubmissionsAreShed)
{
    const std::string dir = freshDir("serve_q_shed");
    QueueLimits limits;
    limits.maxQueuedCells = 2;
    // Workers that never run (queue full before shutdown): block cells
    // from draining by submitting more than the bound at once.
    CampaignQueue q(dir, limits, fakeCell, 1);
    const CampaignSpec big = smallSpec("too-big", 5);
    CampaignQueue::Admission a = q.submit(big);
    EXPECT_EQ(a.status, CampaignQueue::Admission::Status::Shed);
    EXPECT_NE(a.error, "");
    EXPECT_EQ(q.counters().shed, 1u);
    // Nothing durable was left behind for a shed submission.
    EXPECT_FALSE(
        fs::exists(dir + "/" + csprintf("%016x", big.identity()) +
                   ".req"));
    q.shutdown(true);
}

// --- server request dispatch ------------------------------------------

TEST(ServeServer, DispatchesNdjsonRequests)
{
    ServerOptions opt;
    opt.stateDir = freshDir("serve_srv");
    opt.workers = 1;
    opt.extraStats = [] {
        return std::string("\"caches\": {\"compile\": {}}");
    };
    Server server(opt, fakeCell);

    std::string resp = server.handleRequestLine("{\"op\": \"healthz\"}");
    EXPECT_NE(resp.find("\"ok\": true"), std::string::npos) << resp;

    resp = server.handleRequestLine("not json at all");
    EXPECT_NE(resp.find("\"ok\": false"), std::string::npos) << resp;

    resp = server.handleRequestLine("{\"op\": \"nosuch\"}");
    EXPECT_NE(resp.find("\"ok\": false"), std::string::npos) << resp;
    EXPECT_EQ(server.queue().counters().rejected, 2u);

    const CampaignSpec spec = smallSpec("ndjson", 2);
    resp = server.handleRequestLine(spec.toRequestJson());
    EXPECT_NE(resp.find("\"status\": \"accepted\""), std::string::npos)
        << resp;
    const std::string idHex = csprintf("%016x", spec.identity());
    EXPECT_NE(resp.find(idHex), std::string::npos) << resp;

    awaitComplete(server.queue(), spec.identity());
    resp = server.handleRequestLine(
        csprintf("{\"op\": \"poll\", \"id\": \"%s\"}", idHex));
    EXPECT_NE(resp.find("\"status\": \"complete\""), std::string::npos)
        << resp;

    resp = server.handleRequestLine("{\"op\": \"stats\"}");
    EXPECT_NE(resp.find("hscd-serve-stats"), std::string::npos) << resp;
    EXPECT_NE(resp.find("\"caches\""), std::string::npos) << resp;
    server.queue().shutdown(true);
}

// --- sweep abort contract (satellites 2 and 6) -------------------------

namespace {

/** Run a 4-cell sweep whose second cell triggers @p trip. */
void
sweepAbortScenario(bench::SweepOptions opts, std::function<void()> trip)
{
    bench::Sweep sweep(opts, "abort-contract");
    sweep.addCustom("ok-0", [] { return fakeCell(CampaignSpec(), 0); });
    sweep.addCustom("trip", [trip] {
        trip();
        return fakeCell(CampaignSpec(), 1);
    });
    for (int i = 2; i < 4; ++i)
        sweep.addCustom(csprintf("slow-%d", i), [i] {
            std::this_thread::sleep_for(std::chrono::milliseconds(80));
            return fakeCell(CampaignSpec(), std::size_t(i));
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
