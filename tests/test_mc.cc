/**
 * @file
 * Unit tests for the TPI model checker (src/mc): configuration
 * validation, the action encoding, determinism of the explorer, the
 * symmetry reduction, and the model-vs-implementation cross-check that
 * replays model paths on the real TpiScheme.
 */

#include <algorithm>
#include <utility>

#include <gtest/gtest.h>

#include "common/log.hh"
#include "mc/explorer.hh"
#include "mc/replay.hh"

using namespace hscd;
using namespace hscd::mc;

namespace {

McConfig
tiny()
{
    // Smallest legal machine: trimmed horizon keeps each explore fast
    // enough to run many times inside one test binary.
    McConfig cfg;
    cfg.opsPerEpoch = 1;
    cfg.horizonEpochs = 3;
    return cfg;
}

} // namespace

TEST(McConfig, ValidatesBounds)
{
    EXPECT_NO_THROW(tiny().validate());
    McConfig bad = tiny();
    bad.procs = 9;
    EXPECT_THROW(bad.validate(), FatalError);
    bad = tiny();
    bad.timetagBits = 4;
    EXPECT_THROW(bad.validate(), FatalError);
    bad = tiny();
    bad.lineWords = 3; // does not divide words = 2
    EXPECT_THROW(bad.validate(), FatalError);
    bad = tiny();
    bad.faultBudget = 3;
    EXPECT_THROW(bad.validate(), FatalError);
}

TEST(McConfig, HorizonCoversOneFullWraparound)
{
    // The default horizon must see at least one complete reset cycle
    // (2^n epochs) plus one more epoch, at every supported width.
    for (unsigned bits = 1; bits <= 3; ++bits) {
        McConfig cfg;
        cfg.timetagBits = bits;
        EXPECT_GT(cfg.horizon(), 2u * (1u << bits)) << "bits=" << bits;
        EXPECT_EQ(cfg.phase(), 1u << (bits - 1));
        EXPECT_EQ(cfg.dmax(), (1u << bits) - 1);
    }
}

TEST(McAction, EncodeDecodeRoundTrips)
{
    Action a;
    a.kind = Action::Kind::Read;
    a.proc = 2;
    a.word = 3;
    a.mark = compiler::MarkKind::TimeRead;
    a.distance = 7;
    a.fault = Action::Fault::TagFlip;
    a.faultWord = 1;
    a.faultBit = 3;
    EXPECT_EQ(Action::decode(a.encode()), a);

    Action b;
    b.kind = Action::Kind::Barrier;
    b.fault = Action::Fault::EpochFlip;
    b.flushProc = 2;
    EXPECT_EQ(Action::decode(b.encode()), b);

    Action c;
    c.kind = Action::Kind::Write;
    c.proc = 1;
    c.critical = true;
    c.fault = Action::Fault::DropAbort;
    EXPECT_EQ(Action::decode(c.encode()), c);
}

TEST(McExplorer, TinyConfigExploresCleanAndDeterministically)
{
    const McConfig cfg = tiny();
    const ExploreResult a = explore(cfg);
    EXPECT_TRUE(a.clean());
    EXPECT_FALSE(a.cex.has_value());
    EXPECT_GT(a.states, 1u);
    EXPECT_GT(a.transitions, a.states - 1); // graph, not a tree
    EXPECT_GT(a.completed, 0u);
    EXPECT_EQ(a.aborted, 0u); // no faults: nothing can abort

    const ExploreResult b = explore(cfg);
    EXPECT_EQ(a.states, b.states);
    EXPECT_EQ(a.transitions, b.transitions);
    EXPECT_EQ(a.maxDepth, b.maxDepth);
}

TEST(McExplorer, SymmetryReductionPreservesTheVerdict)
{
    const McConfig cfg = tiny();
    ExploreOptions sym;
    ExploreOptions nosym;
    nosym.symmetry = false;
    const ExploreResult with = explore(cfg, sym);
    const ExploreResult without = explore(cfg, nosym);
    EXPECT_TRUE(with.clean());
    EXPECT_TRUE(without.clean());
    // Quotienting by processor renaming must only merge states.
    EXPECT_LT(with.states, without.states);
    EXPECT_EQ(with.maxDepth, without.maxDepth);
}

TEST(McExplorer, FaultBudgetWidensTheStateSpaceAndStaysClean)
{
    McConfig cfg = tiny();
    const ExploreResult base = explore(cfg);
    cfg.faultBudget = 1;
    const ExploreResult faulted = explore(cfg);
    EXPECT_TRUE(faulted.clean());
    EXPECT_GT(faulted.states, base.states);
    // net.drop exhaustion paths must reach the structured-abort
    // terminal, and mem.epoch flushes must still complete.
    EXPECT_GT(faulted.aborted, 0u);
    EXPECT_GT(faulted.completed, 0u);
}

TEST(McExplorer, StateCapReportsBoundedNotClean)
{
    McConfig cfg; // full default horizon: far more than 50 states
    ExploreOptions opt;
    opt.maxStates = 50;
    const ExploreResult res = explore(cfg, opt);
    EXPECT_TRUE(res.hitStateCap);
    EXPECT_FALSE(res.clean());
    EXPECT_FALSE(res.cex.has_value());
}

TEST(McExplorer, StateCapBeyondNodeIdsIsFatal)
{
    // Node ids and parent edges are 32-bit; a larger cap would let them
    // wrap silently.
    ExploreOptions opt;
    opt.maxStates = std::uint64_t(1) << 32;
    EXPECT_THROW(explore(tiny(), opt), FatalError);
    opt.maxStates = (std::uint64_t(1) << 32) - 1;
    EXPECT_TRUE(explore(tiny(), opt).clean());
}

TEST(McReplay, RandomWalksAgreeWithTpiScheme)
{
    // The emitter turns a model path into a trace + fault script; the
    // real TpiScheme replay must reproduce every modelled outcome.
    for (unsigned faults = 0; faults <= 1; ++faults) {
        McConfig cfg;
        cfg.faultBudget = faults;
        std::uint64_t compared = 0;
        for (std::uint64_t seed = 1; seed <= 16; ++seed) {
            const std::vector<Action> path = randomWalk(cfg, seed);
            const CheckReport rep = crossCheck(cfg, path);
            EXPECT_TRUE(rep.ok)
                << "faults=" << faults << " seed=" << seed << ": "
                << rep.detail;
            compared += rep.compared;
        }
        EXPECT_GT(compared, 0u) << "vacuous cross-check";
    }
}

TEST(McReplay, WiderGeometriesAlsoAgree)
{
    // One walk per larger shape: 3 processors, 2 lines, 2-bit tags.
    for (McConfig cfg : {[] { McConfig c; c.procs = 3; return c; }(),
                         [] {
                             McConfig c;
                             c.words = 4;
                             c.opsPerEpoch = 1;
                             return c;
                         }(),
                         [] {
                             McConfig c;
                             c.timetagBits = 2;
                             c.horizonEpochs = 6;
                             c.opsPerEpoch = 1;
                             c.faultBudget = 1;
                             return c;
                         }()})
    {
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            const CheckReport rep = crossCheck(cfg, randomWalk(cfg, seed));
            EXPECT_TRUE(rep.ok) << cfg.str() << " seed=" << seed << ": "
                                << rep.detail;
        }
    }
}

namespace {

struct Pinned
{
    std::uint64_t states, transitions, maxDepth, completed, aborted;
};

void
expectCounts(const ExploreResult &r, const Pinned &p, const char *what)
{
    EXPECT_TRUE(r.clean()) << what;
    EXPECT_EQ(r.states, p.states) << what;
    EXPECT_EQ(r.transitions, p.transitions) << what;
    EXPECT_EQ(r.maxDepth, p.maxDepth) << what;
    EXPECT_EQ(r.completed, p.completed) << what;
    EXPECT_EQ(r.aborted, p.aborted) << what;
}

} // namespace

TEST(McExplorer, PinnedExplorationCounts)
{
    // The quotient the dedup key induces, pinned exactly: any change to
    // the key's abstraction or to the exploration order shows up here
    // as a count change (EXPERIMENTS.md M1 lists the same rows).
    expectCounts(explore(McConfig{}), {97'468, 570'351, 18, 62, 0},
                 "default");

    ExploreOptions nosym;
    nosym.symmetry = false;
    expectCounts(explore(McConfig{}, nosym),
                 {194'253, 1'135'738, 18, 114, 0}, "no symmetry");

    McConfig words4;
    words4.words = 4;
    words4.lineWords = 2;
    words4.opsPerEpoch = 1;
    expectCounts(explore(words4), {166'347, 746'023, 15, 346, 0},
                 "words=4 lineWords=2 ops=1");

    McConfig bits3;
    bits3.timetagBits = 3;
    bits3.horizonEpochs = 10;
    bits3.opsPerEpoch = 1;
    bits3.words = 1;
    bits3.lineWords = 1;
    bits3.faultBudget = 1;
    expectCounts(explore(bits3), {450'428, 3'399'111, 30, 7'617, 28'934},
                 "bits=3 epochs=10 ops=1 words=1 faults=1");
}

namespace {

/** The state with processor i renamed to perm[i] (i < cfg.procs). */
State
permuted(const McConfig &cfg, const State &s, const unsigned *perm)
{
    State t = s;
    for (unsigned i = 0; i < cfg.procs; ++i) {
        const unsigned p = perm[i];
        t.opsLeft[p] = s.opsLeft[i];
        for (unsigned w = 0; w < kMaxWords; ++w) {
            t.copy[p][w] = s.copy[i][w];
            t.lastWriteAge[p][w] = s.lastWriteAge[i][w];
        }
        for (unsigned l = 0; l < kMaxLines; ++l) {
            t.present[p][l] = s.present[i][l];
            t.hist[p][l] = s.hist[i][l];
        }
    }
    for (unsigned w = 0; w < kMaxWords; ++w) {
        std::uint8_t *const masks[] = {t.writers, t.readers, t.bypasses,
                                       t.criticals};
        const std::uint8_t *const from[] = {s.writers, s.readers,
                                            s.bypasses, s.criticals};
        for (unsigned k = 0; k < 4; ++k) {
            std::uint8_t m = 0;
            for (unsigned i = 0; i < cfg.procs; ++i)
                m |= std::uint8_t(((from[k][w] >> i) & 1u) << perm[i]);
            masks[k][w] = m;
        }
    }
    return t;
}

/**
 * Reference model of the key's abstraction: once the fault budget is
 * spent, an invalid word of a resident line can never be resurrected,
 * so its tag and value bits fold away.
 */
bool
folded(const McConfig &cfg, const State &s, unsigned p, unsigned w)
{
    return !s.copy[p][w].valid && s.faultsLeft == 0 &&
           s.present[p][w / cfg.lineWords];
}

State
abstracted(const McConfig &cfg, State s)
{
    for (unsigned p = 0; p < cfg.procs; ++p)
        for (unsigned w = 0; w < cfg.words; ++w)
            if (folded(cfg, s, p, w))
                s.copy[p][w] = Copy{};
    return s;
}

/** Every single-field change to an abstracted field of @p s. */
template <typename Fn>
void
forEachFlip(const McConfig &cfg, const State &s, Fn &&fn)
{
    auto flip = [&](const char *what, auto mutate, bool foldedAway) {
        State t = s;
        mutate(t);
        fn(t, what, foldedAway);
    };
    flip("epoch", [](State &t) { ++t.epoch; }, false);
    flip("aborted", [](State &t) { t.aborted = !t.aborted; }, false);
    flip("faultsLeft", [](State &t) { t.faultsLeft ^= 1; }, false);
    for (unsigned p = 0; p < cfg.procs; ++p) {
        flip("opsLeft", [p](State &t) { t.opsLeft[p] ^= 1; }, false);
        for (unsigned w = 0; w < cfg.words; ++w) {
            const bool f = folded(cfg, s, p, w);
            flip("valid", [p, w](State &t) {
                t.copy[p][w].valid = !t.copy[p][w].valid; }, false);
            flip("tainted", [p, w](State &t) {
                t.copy[p][w].tainted = !t.copy[p][w].tainted; }, f);
            flip("stale", [p, w](State &t) {
                t.copy[p][w].stale = !t.copy[p][w].stale; }, f);
            flip("faulted", [p, w](State &t) {
                t.copy[p][w].faulted = !t.copy[p][w].faulted; }, f);
            flip("age", [p, w](State &t) { ++t.copy[p][w].age; }, f);
            flip("lastWriteAge", [p, w](State &t) {
                t.lastWriteAge[p][w] ^= 1; }, false);
            flip("writers", [p, w](State &t) {
                t.writers[w] ^= std::uint8_t(1u << p); }, false);
            flip("readers", [p, w](State &t) {
                t.readers[w] ^= std::uint8_t(1u << p); }, false);
            flip("bypasses", [p, w](State &t) {
                t.bypasses[w] ^= std::uint8_t(1u << p); }, false);
            flip("criticals", [p, w](State &t) {
                t.criticals[w] ^= std::uint8_t(1u << p); }, false);
        }
        for (unsigned l = 0; l < cfg.lines(); ++l) {
            flip("present", [p, l](State &t) {
                t.present[p][l] = !t.present[p][l]; }, false);
            flip("hist", [p, l](State &t) {
                t.hist[p][l] = LineHist((unsigned(t.hist[p][l]) + 1) % 3);
            }, false);
        }
    }
}

} // namespace

TEST(McExplorer, CanonicalKeyIsAnOrbitInvariant)
{
    // 200 random-walk prefixes over a fault-free, a faulted and a
    // 3-processor faulted machine; every state along each walk.
    McConfig faulted;
    faulted.faultBudget = 1;
    McConfig procs3;
    procs3.procs = 3;
    procs3.opsPerEpoch = 1;
    procs3.faultBudget = 1;
    const std::pair<McConfig, unsigned> plan[] = {
        {McConfig{}, 80}, {faulted, 80}, {procs3, 40}};

    std::uint64_t checkedStates = 0, foldedFlips = 0;
    for (const auto &[config, walks] : plan) {
        const McConfig &cfg = config;
        for (std::uint64_t seed = 1; seed <= walks; ++seed) {
            State s = initialState(cfg);
            for (const Action &a : randomWalk(cfg, seed)) {
                const auto key = canonicalKey(cfg, s, true);
                const auto raw = canonicalKey(cfg, s, false);
                unsigned perm[kMaxProcs] = {0, 1, 2};
                do {
                    const State t = permuted(cfg, s, perm);
                    ASSERT_TRUE(canonicalKey(cfg, t, true) == key)
                        << cfg.str() << " seed " << seed;
                    const bool same = abstracted(cfg, t) ==
                                      abstracted(cfg, s);
                    ASSERT_EQ(canonicalKey(cfg, t, false) == raw, same)
                        << cfg.str() << " seed " << seed;
                } while (std::next_permutation(perm, perm + cfg.procs));

                forEachFlip(cfg, s, [&](const State &t, const char *what,
                                        bool foldedAway) {
                    foldedFlips += foldedAway;
                    ASSERT_EQ(canonicalKey(cfg, t, true) == key,
                              foldedAway)
                        << what << " " << cfg.str() << " seed " << seed;
                    ASSERT_EQ(canonicalKey(cfg, t, false) == raw,
                              foldedAway)
                        << what << " " << cfg.str() << " seed " << seed;
                });
                ++checkedStates;

                Outcome out;
                apply(cfg, s, a, out);
            }
        }
    }
    EXPECT_GT(checkedStates, 2000u);
    EXPECT_GT(foldedFlips, 0u) << "the invalid-word fold was never hit";
}
