#include "mc/model.hh"

#include <algorithm>
#include <array>
#include <compare>

#include "common/log.hh"

namespace hscd {
namespace mc {

using compiler::MarkKind;

void
McConfig::validate() const
{
    if (procs < 2 || procs > kMaxProcs)
        fatal("mc: procs must be 2..%d, got %d", kMaxProcs, procs);
    if (words < 1 || words > kMaxWords)
        fatal("mc: words must be 1..%d, got %d", kMaxWords, words);
    if (lineWords < 1 || words % lineWords != 0)
        fatal("mc: line-words %d must divide words %d", lineWords, words);
    if (lineWords > words)
        fatal("mc: line-words %d exceeds words %d", lineWords, words);
    if (timetagBits < 1 || timetagBits > 3)
        fatal("mc: timetag bits must be 1..3, got %d", timetagBits);
    if (opsPerEpoch < 1 || opsPerEpoch > 8)
        fatal("mc: ops per epoch must be 1..8, got %d", opsPerEpoch);
    if (horizon() < 1 || horizon() > 40)
        fatal("mc: horizon must be 1..40 epochs, got %d", horizon());
    if (faultBudget > 2)
        fatal("mc: fault budget must be 0..2, got %d", faultBudget);
    if (maxRetries < 1 || maxRetries > 8)
        fatal("mc: max retries must be 1..8, got %d", maxRetries);
}

std::string
McConfig::str() const
{
    return csprintf("procs=%d words=%d lineWords=%d bits=%d epochs=%d "
                    "ops=%d faults=%d sites=0x%x crit=%d promote=%d",
                    procs, words, lineWords, timetagBits, horizon(),
                    opsPerEpoch, faultBudget, faultSites,
                    allowCritical ? 1 : 0, promote ? 1 : 0);
}

State
initialState(const McConfig &cfg)
{
    State s;
    s.faultsLeft = static_cast<std::uint8_t>(cfg.faultBudget);
    for (unsigned p = 0; p < kMaxProcs; ++p) {
        s.opsLeft[p] =
            p < cfg.procs ? static_cast<std::uint8_t>(cfg.opsPerEpoch) : 0;
        for (unsigned w = 0; w < kMaxWords; ++w)
            s.lastWriteAge[p][w] = kNoWrite;
    }
    return s;
}

bool
isTerminal(const McConfig &cfg, const State &s)
{
    return s.aborted || s.epoch >= cfg.horizon();
}

const char *
invariantName(InvariantId id)
{
    switch (id) {
      case InvariantId::None:
        return "none";
      case InvariantId::NoStaleRead:
        return "no-stale-read";
      case InvariantId::BoundedTagAge:
        return "bounded-tag-age";
      case InvariantId::ModularAgree:
        return "modular-agreement";
      case InvariantId::Deadlock:
        return "deadlock-freedom";
    }
    return "?";
}

namespace {

constexpr std::uint8_t bit(unsigned p) { return std::uint8_t(1u << p); }

std::int8_t
satAge(int v)
{
    return std::int8_t(std::clamp(v, -int(kAgeCap), int(kAgeCap)));
}

/** Side-effects of TpiScheme::fill(): (re)load a whole line. */
void
fillLine(const McConfig &cfg, State &s, unsigned p, unsigned line,
         unsigned widx)
{
    s.present[p][line] = true;
    s.hist[p][line] = LineHist::Cached;
    for (unsigned j = 0; j < cfg.lineWords; ++j) {
        unsigned v = line * cfg.lineWords + j;
        Copy &c = s.copy[p][v];
        c.stale = false;   // stamps refreshed from memory
        c.tainted = false; // tag state rewritten below
        c.faulted = false;
        if (v == widx) {
            c.valid = true;
            c.age = 0; // tt = EC
        } else if (s.epoch > 0) {
            c.valid = true;
            c.age = 1; // side words vouched only up to EC - 1
        } else {
            c.valid = false;
            c.age = std::int8_t(s.epoch); // tt = 0, invalid at boot
        }
    }
}

/** TpiScheme::flushCache(): mem.epoch resync drops every resident line. */
void
flushCache(const McConfig &cfg, State &s, unsigned q)
{
    for (unsigned l = 0; l < cfg.lines(); ++l) {
        if (!s.present[q][l])
            continue;
        s.present[q][l] = false;
        s.hist[q][l] = LineHist::InvTag;
        for (unsigned j = 0; j < cfg.lineWords; ++j)
            s.copy[q][l * cfg.lineWords + j] = Copy{};
    }
}

/** TpiScheme::maybeCorruptTag() effect for one scripted flip. */
void
tagFlip(const McConfig &cfg, State &s, unsigned p, unsigned line,
        unsigned fwInLine, unsigned b)
{
    Copy &c = s.copy[p][line * cfg.lineWords + fwInLine];
    c.faulted = true;
    if (b == cfg.timetagBits) {
        c.valid = !c.valid;
        // A spuriously-set valid bit may vouch for anything; a cleared
        // one only costs a conservative miss (still tracked as tainted
        // once re-set).
        if (c.valid)
            c.tainted = true;
        return;
    }
    const int tt = int(s.epoch) - int(c.age);
    hscd_assert(tt >= 0, "mc: modelled timetag went negative");
    const int ntt = tt ^ (1 << b);
    if (ntt > tt)
        c.tainted = true; // raised tag: copy may wrongly vouch
    c.age = satAge(int(s.epoch) - ntt);
}

mem::MissClass
classifyAbsent(LineHist h)
{
    // LineHistory::classifyAbsent() restricted to the events TPI can
    // record in an eviction-free geometry.
    switch (h) {
      case LineHist::Never:
        return mem::MissClass::Cold;
      case LineHist::Cached:
        return mem::MissClass::Replacement;
      case LineHist::InvTag:
        return mem::MissClass::TagReset;
    }
    return mem::MissClass::Cold;
}

/** Memory value of @p w changed: every other processor's copy is stale. */
void
markOthersStale(const McConfig &cfg, State &s, unsigned writer, unsigned w)
{
    const unsigned line = w / cfg.lineWords;
    for (unsigned q = 0; q < cfg.procs; ++q) {
        if (q == writer || !s.present[q][line])
            continue;
        s.copy[q][w].stale = true;
    }
}

void
applyDrop(State &s, const Action &a)
{
    if (a.fault == Action::Fault::DropRecover) {
        --s.faultsLeft;
    } else if (a.fault == Action::Fault::DropAbort) {
        --s.faultsLeft;
        s.aborted = true;
    }
}

void
doWrite(const McConfig &cfg, State &s, const Action &a, Outcome &out)
{
    const unsigned p = a.proc, w = a.word;
    const unsigned line = w / cfg.lineWords;
    out.sends = true; // write-through always sends one packet
    if (!s.present[p][line])
        fillLine(cfg, s, p, line, w);
    Copy &c = s.copy[p][w];
    c.stale = false;
    c.tainted = false; // word state fully rewritten
    c.faulted = false;
    if (!a.critical) {
        c.valid = true;
        c.age = 0; // tt = EC
    } else if (s.epoch > 0) {
        c.valid = true;
        c.age = 1; // tt = EC - 1: another lock owner may write later
    } else {
        c.valid = false;
        c.age = std::int8_t(s.epoch); // tt = 0
    }
    markOthersStale(cfg, s, p, w);
    s.lastWriteAge[p][w] = 0;
    if (a.critical)
        s.criticals[w] |= bit(p);
    else
        s.writers[w] |= bit(p);
    applyDrop(s, a);
    --s.opsLeft[p];
}

void
doRead(const McConfig &cfg, State &s, const Action &a, Outcome &out)
{
    const unsigned p = a.proc, w = a.word;
    const unsigned line = w / cfg.lineWords;
    out.isRead = true;
    out.lineWasPresent = s.present[p][line];

    // The implementation corrupts the tag after lookup, before the mark
    // dispatch: the corrupted state decides hit or miss.
    if (a.fault == Action::Fault::TagFlip) {
        tagFlip(cfg, s, p, line, a.faultWord, a.faultBit);
        --s.faultsLeft;
    }

    Copy &c = s.copy[p][w];
    const bool resident = s.present[p][line] && c.valid;

    switch (a.mark) {
      case MarkKind::Normal: {
        if (resident) {
            out.hit = true;
            out.observedStale = c.stale;
            if (c.stale && !c.tainted) {
                out.violated = InvariantId::NoStaleRead;
                out.violation = csprintf(
                    "proc %d Normal-read of word %d hit a stale untainted "
                    "copy (age %d) in epoch %d",
                    p, w, int(c.age), int(s.epoch));
            }
        } else {
            out.cls = s.present[p][line]
                          ? mem::MissClass::TagReset
                          : classifyAbsent(s.hist[p][line]);
            out.sends = true;
            fillLine(cfg, s, p, line, w);
        }
        s.readers[w] |= bit(p);
        break;
      }

      case MarkKind::TimeRead: {
        const int dhw =
            std::min<int>(a.distance, int(cfg.dmax()));
        if (s.present[p][line] && c.valid && !c.faulted) {
            // Wraparound coverage: the reset schedule must keep every
            // consultable *unfaulted* tag inside one modular period, and
            // the n-bit hardware decision must match the unbounded one.
            // (A flipped tag carries no such claim: lowered tags age past
            // dmax and miss conservatively; raised ones are tainted.)
            const int age = c.age;
            if (age < 0 || age > int(cfg.dmax())) {
                out.violated = InvariantId::BoundedTagAge;
                out.violation = csprintf(
                    "proc %d Time-Read of word %d consulted unfaulted tag "
                    "with age %d outside [0, %d] in epoch %d",
                    p, w, age, cfg.dmax(), int(s.epoch));
            }
            const int mod = 1 << cfg.timetagBits;
            const int hwAge = ((age % mod) + mod) % mod;
            if ((hwAge <= dhw) != (age <= dhw) &&
                out.violated == InvariantId::None)
            {
                out.violated = InvariantId::ModularAgree;
                out.violation = csprintf(
                    "proc %d Time-Read(d=%d) of word %d: %d-bit modular "
                    "decision (age %d -> %d) disagrees with unbounded "
                    "tags in epoch %d",
                    p, int(a.distance), w, cfg.timetagBits, age, hwAge,
                    int(s.epoch));
            }
        }
        if (resident && int(c.age) <= dhw) {
            out.hit = true;
            out.observedStale = c.stale;
            if (c.stale && !c.tainted && out.violated == InvariantId::None)
            {
                out.violated = InvariantId::NoStaleRead;
                out.violation = csprintf(
                    "proc %d Time-Read(d=%d) of word %d hit a stale "
                    "untainted copy (age %d) in epoch %d",
                    p, int(a.distance), w, int(c.age), int(s.epoch));
            }
            if (cfg.promote)
                c.age = 0; // proven fresh: promote tt to EC
        } else {
            if (resident)
                out.cls = c.stale ? mem::MissClass::TrueShare
                                  : mem::MissClass::Conservative;
            else if (s.present[p][line])
                out.cls = mem::MissClass::TagReset;
            else
                out.cls = classifyAbsent(s.hist[p][line]);
            out.sends = true;
            fillLine(cfg, s, p, line, w); // refill in place if resident
        }
        s.readers[w] |= bit(p);
        break;
      }

      case MarkKind::Bypass: {
        // Bypass fetches the word uncached; the line (if any) keeps its
        // timetag but refreshes the copied value.
        out.sends = true;
        if (resident)
            out.cls = c.stale ? mem::MissClass::TrueShare
                              : mem::MissClass::Conservative;
        else
            out.cls = classifyAbsent(s.hist[p][line]);
        if (s.present[p][line])
            c.stale = false;
        s.bypasses[w] |= bit(p);
        break;
      }
    }

    applyDrop(s, a);
    --s.opsLeft[p];
}

void
doBarrier(const McConfig &cfg, State &s, const Action &a)
{
    const unsigned newEpoch = s.epoch + 1u;

    // Crossing the boundary ages every retained tag by one epoch.
    for (unsigned p = 0; p < cfg.procs; ++p) {
        for (unsigned l = 0; l < cfg.lines(); ++l) {
            if (!s.present[p][l])
                continue;
            for (unsigned j = 0; j < cfg.lineWords; ++j) {
                Copy &c = s.copy[p][l * cfg.lineWords + j];
                c.age = satAge(int(c.age) + 1);
            }
        }
        for (unsigned w = 0; w < cfg.words; ++w) {
            std::int8_t &lw = s.lastWriteAge[p][w];
            if (lw == kNoWrite)
                continue;
            // Beyond dmax the write no longer constrains any legal
            // Time-Read distance: merge with "never wrote".
            lw = lw >= std::int8_t(cfg.dmax()) ? kNoWrite
                                               : std::int8_t(lw + 1);
        }
    }

    // mem.epoch resync (flash invalidate) precedes the reset sweep,
    // matching TpiScheme::epochBoundary().
    if (a.fault == Action::Fault::EpochFlip) {
        flushCache(cfg, s, a.flushProc);
        --s.faultsLeft;
    }

    // Two-phase reset: invalidate words whose tag is a full phase old.
    if (newEpoch % cfg.phase() == 0 && newEpoch >= cfg.phase()) {
        for (unsigned p = 0; p < cfg.procs; ++p) {
            for (unsigned l = 0; l < cfg.lines(); ++l) {
                if (!s.present[p][l])
                    continue;
                bool anyValid = false;
                for (unsigned j = 0; j < cfg.lineWords; ++j) {
                    Copy &c = s.copy[p][l * cfg.lineWords + j];
                    // tt < newEpoch - phase  <=>  age > phase
                    if (c.valid && int(c.age) > int(cfg.phase()))
                        c.valid = false;
                    anyValid |= c.valid;
                }
                if (!anyValid) {
                    s.present[p][l] = false;
                    s.hist[p][l] = LineHist::InvTag;
                    for (unsigned j = 0; j < cfg.lineWords; ++j)
                        s.copy[p][l * cfg.lineWords + j] = Copy{};
                }
            }
        }
    }

    s.epoch = std::uint8_t(newEpoch);
    for (unsigned w = 0; w < cfg.words; ++w) {
        s.writers[w] = 0;
        s.readers[w] = 0;
        s.bypasses[w] = 0;
        s.criticals[w] = 0;
    }
    for (unsigned p = 0; p < cfg.procs; ++p)
        s.opsLeft[p] = std::uint8_t(cfg.opsPerEpoch);
}

} // namespace

void
apply(const McConfig &cfg, State &s, const Action &a, Outcome &out)
{
    switch (a.kind) {
      case Action::Kind::Finish:
        s.opsLeft[a.proc] = 0;
        return;
      case Action::Kind::Write:
        doWrite(cfg, s, a, out);
        return;
      case Action::Kind::Read:
        doRead(cfg, s, a, out);
        return;
      case Action::Kind::Barrier:
        doBarrier(cfg, s, a);
        return;
    }
}

namespace {

/** Would this read hit, evaluated on the un-faulted pre-state? */
bool
wouldHit(const McConfig &cfg, const State &s, unsigned p, unsigned w,
         MarkKind mark, unsigned d)
{
    const Copy &c = s.copy[p][w];
    const bool resident = s.present[p][w / cfg.lineWords] && c.valid;
    if (mark == MarkKind::Normal)
        return resident;
    if (mark == MarkKind::TimeRead)
        return resident &&
               int(c.age) <= std::min<int>(d, int(cfg.dmax()));
    return false; // Bypass always fetches
}

/** Emit @p base plus its enabled fault-attachment variants. */
void
withFaults(const McConfig &cfg, const State &s, Action base,
           std::vector<Action> &out)
{
    out.push_back(base);
    if (s.faultsLeft == 0)
        return;

    const unsigned p = base.proc;
    const bool sends =
        base.kind == Action::Kind::Write ||
        (base.kind == Action::Kind::Read &&
         !wouldHit(cfg, s, p, base.word, base.mark, base.distance));

    if (base.kind == Action::Kind::Read &&
        cfg.siteEnabled(fault::Site::MemTagFlip) &&
        s.present[p][base.word / cfg.lineWords])
    {
        // One stored-bit flip in the accessed line: each word's n tag
        // bits plus its valid bit.
        for (unsigned j = 0; j < cfg.lineWords; ++j) {
            for (unsigned b = 0; b <= cfg.timetagBits; ++b) {
                Action a = base;
                a.fault = Action::Fault::TagFlip;
                a.faultWord = std::uint8_t(j);
                a.faultBit = std::uint8_t(b);
                out.push_back(a);
            }
        }
    }

    if (sends && cfg.siteEnabled(fault::Site::NetDrop)) {
        Action a = base;
        a.fault = Action::Fault::DropRecover;
        out.push_back(a);
        a.fault = Action::Fault::DropAbort;
        out.push_back(a);
    }
}

} // namespace

void
enumerate(const McConfig &cfg, const State &s, std::vector<Action> &out)
{
    out.clear();
    if (isTerminal(cfg, s))
        return;

    bool allDone = true;
    for (unsigned p = 0; p < cfg.procs; ++p) {
        if (s.opsLeft[p] == 0)
            continue;
        allDone = false;

        Action fin;
        fin.kind = Action::Kind::Finish;
        fin.proc = std::uint8_t(p);
        out.push_back(fin);

        for (unsigned w = 0; w < cfg.words; ++w) {
            const std::uint8_t others = std::uint8_t(~bit(p));
            const bool noOtherWriter = (s.writers[w] & others) == 0;
            const bool noCrit = s.criticals[w] == 0;
            const Copy &c = s.copy[p][w];
            const bool resident =
                s.present[p][w / cfg.lineWords] && c.valid;

            Action base;
            base.proc = std::uint8_t(p);
            base.word = std::uint8_t(w);

            // Non-critical write: this epoch's sole toucher (DOALL
            // ownership).
            if (noCrit &&
                ((s.writers[w] | s.readers[w] | s.bypasses[w]) & others)
                    == 0)
            {
                Action a = base;
                a.kind = Action::Kind::Write;
                withFaults(cfg, s, a, out);
            }
            // Critical write: lock-serialized; legal alongside other
            // critical writers and Bypass readers only.
            if (cfg.allowCritical && s.writers[w] == 0 &&
                s.readers[w] == 0)
            {
                Action a = base;
                a.kind = Action::Kind::Write;
                a.critical = true;
                withFaults(cfg, s, a, out);
            }
            // Normal read: compiler proved freshness — no conflicting
            // writer this epoch, and any retained copy is fresh (or its
            // staleness is purely fault-induced).
            if (noCrit && noOtherWriter &&
                (!resident || !c.stale || c.tainted))
            {
                Action a = base;
                a.kind = Action::Kind::Read;
                a.mark = MarkKind::Normal;
                withFaults(cfg, s, a, out);
            }
            // Time-Read with every sound marking distance: d may not
            // reach past the youngest other-processor write.
            if (noCrit && noOtherWriter) {
                int dtrue = int(kNoWrite);
                for (unsigned q = 0; q < cfg.procs; ++q) {
                    if (q != p)
                        dtrue = std::min<int>(dtrue,
                                              s.lastWriteAge[q][w]);
                }
                const int dlim = std::min<int>(
                    {dtrue, int(s.epoch), int(cfg.dmax())});
                for (int d = 0; d <= dlim; ++d) {
                    Action a = base;
                    a.kind = Action::Kind::Read;
                    a.mark = MarkKind::TimeRead;
                    a.distance = std::uint8_t(d);
                    withFaults(cfg, s, a, out);
                }
            }
            // Bypass read: legal even against critical writers.
            if (noOtherWriter) {
                Action a = base;
                a.kind = Action::Kind::Read;
                a.mark = MarkKind::Bypass;
                withFaults(cfg, s, a, out);
            }
        }
    }

    if (allDone) {
        Action bar;
        bar.kind = Action::Kind::Barrier;
        out.push_back(bar);
        if (s.faultsLeft > 0 &&
            cfg.siteEnabled(fault::Site::MemEpochFlip))
        {
            for (unsigned q = 0; q < cfg.procs; ++q) {
                Action a = bar;
                a.fault = Action::Fault::EpochFlip;
                a.flushProc = std::uint8_t(q);
                out.push_back(a);
            }
        }
    }
}

namespace {

static_assert(8 + 12 * kMaxWords <= 64 &&
                  8 * kMaxWords + 3 * kMaxLines <= 64 &&
                  4 * kMaxWords * kMaxProcs <= 64,
              "mc: a key field outgrew its word");

/** One processor's two key words. */
struct ProcBlock
{
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    auto operator<=>(const ProcBlock &) const = default;
};

/**
 * Processor @p p's share of the key. lo: opsLeft (8 bits), then per word
 * 4 flag bits and the 8-bit age; hi: per word the 8-bit lastWriteAge,
 * then per line present and the 2-bit history.
 */
ProcBlock
procBlock(const McConfig &cfg, const State &s, unsigned p)
{
    ProcBlock b;
    b.lo = s.opsLeft[p];
    for (unsigned w = 0; w < cfg.words; ++w) {
        const Copy &c = s.copy[p][w];
        std::uint64_t bits = 0;
        // Once the fault budget is spent an invalid word can never be
        // resurrected: its retained tag/value bits are unreachable and
        // fold into one canonical form.
        if (c.valid || s.faultsLeft != 0 ||
            !s.present[p][w / cfg.lineWords])
        {
            bits = std::uint64_t(c.valid | (c.tainted << 1) |
                                 (c.stale << 2) | (c.faulted << 3)) |
                   std::uint64_t(std::uint8_t(c.age)) << 4;
        }
        b.lo |= bits << (8 + 12 * w);
        b.hi |= std::uint64_t(std::uint8_t(s.lastWriteAge[p][w])) << (8 * w);
    }
    for (unsigned l = 0; l < cfg.lines(); ++l)
        b.hi |= std::uint64_t(s.present[p][l] |
                              (unsigned(s.hist[p][l]) << 1))
                << (8 * kMaxWords + 3 * l);
    return b;
}

/**
 * Processor @p p's footprint bits: bit (4w + k) * kMaxProcs is set when
 * p is in mask k (writers, readers, bypasses, criticals) of word w.
 * Shifting by a processor's position places it in the permuted masks.
 */
std::uint64_t
footprintColumn(const McConfig &cfg, const State &s, unsigned p)
{
    std::uint64_t col = 0;
    for (unsigned w = 0; w < cfg.words; ++w) {
        const std::uint8_t m[4] = {s.writers[w], s.readers[w],
                                   s.bypasses[w], s.criticals[w]};
        for (unsigned k = 0; k < 4; ++k)
            col |= std::uint64_t((m[k] >> p) & 1u)
                   << ((4 * w + k) * kMaxProcs);
    }
    return col;
}

} // namespace

PackedKey
canonicalKey(const McConfig &cfg, const State &s, bool symmetry)
{
    const unsigned P = cfg.procs;
    ProcBlock blocks[kMaxProcs];
    std::uint64_t cols[kMaxProcs];
    for (unsigned p = 0; p < P; ++p) {
        blocks[p] = procBlock(cfg, s, p);
        cols[p] = footprintColumn(cfg, s, p);
    }
    // Position i of a permutation holds processor perm[i].
    auto masksOf = [&](const std::array<std::uint8_t, kMaxProcs> &perm) {
        std::uint64_t m = 0;
        for (unsigned i = 0; i < P; ++i)
            m |= cols[perm[i]] << i;
        return m;
    };

    std::array<std::uint8_t, kMaxProcs> perm;
    for (unsigned i = 0; i < kMaxProcs; ++i)
        perm[i] = std::uint8_t(i);
    std::array<std::uint8_t, kMaxProcs> best = perm;
    std::uint64_t bestMasks = masksOf(perm);
    while (symmetry &&
           std::next_permutation(perm.begin(), perm.begin() + P))
    {
        auto cmp = std::strong_ordering::equal;
        for (unsigned i = 0; i < P && cmp == 0; ++i)
            cmp = blocks[perm[i]] <=> blocks[best[i]];
        if (cmp > 0)
            continue;
        const std::uint64_t m = masksOf(perm);
        if (cmp < 0 || m < bestMasks) {
            best = perm;
            bestMasks = m;
        }
    }

    PackedKey key;
    key.w[0] = std::uint64_t(s.epoch) | std::uint64_t(s.aborted) << 8 |
               std::uint64_t(s.faultsLeft) << 16;
    for (unsigned i = 0; i < P; ++i) {
        key.w[1 + 2 * i] = blocks[best[i]].lo;
        key.w[2 + 2 * i] = blocks[best[i]].hi;
    }
    key.w[PackedKey::kWords - 1] = bestMasks;
    return key;
}

std::string
Action::str() const
{
    switch (kind) {
      case Kind::Finish:
        return csprintf("p%d finish", int(proc));
      case Kind::Barrier: {
        std::string s = "barrier";
        if (fault == Fault::EpochFlip)
            s += csprintf(" [mem.epoch: flush p%d]", int(flushProc));
        return s;
      }
      case Kind::Write: {
        std::string s = csprintf("p%d write%s w%d", int(proc),
                                 critical ? "(crit)" : "", int(word));
        if (fault == Fault::DropRecover)
            s += " [net.drop: recovered]";
        else if (fault == Fault::DropAbort)
            s += " [net.drop: abort]";
        return s;
      }
      case Kind::Read: {
        const char *m = mark == compiler::MarkKind::Normal ? "read"
                        : mark == compiler::MarkKind::TimeRead
                            ? "time-read"
                            : "bypass-read";
        std::string s = csprintf("p%d %s w%d", int(proc), m, int(word));
        if (mark == compiler::MarkKind::TimeRead)
            s += csprintf(" d=%d", int(distance));
        if (fault == Fault::TagFlip)
            s += csprintf(" [mem.tag: word %d bit %d]", int(faultWord),
                          int(faultBit));
        else if (fault == Fault::DropRecover)
            s += " [net.drop: recovered]";
        else if (fault == Fault::DropAbort)
            s += " [net.drop: abort]";
        return s;
      }
    }
    return "?";
}

std::uint32_t
Action::encode() const
{
    return std::uint32_t(kind) | (std::uint32_t(proc) << 2) |
           (std::uint32_t(word) << 4) | (std::uint32_t(mark) << 7) |
           (std::uint32_t(distance) << 9) |
           (std::uint32_t(critical) << 13) |
           (std::uint32_t(fault) << 14) |
           (std::uint32_t(faultWord) << 17) |
           (std::uint32_t(faultBit) << 20) |
           (std::uint32_t(flushProc) << 23);
}

Action
Action::decode(std::uint32_t b)
{
    Action a;
    a.kind = Kind(b & 3);
    a.proc = std::uint8_t((b >> 2) & 3);
    a.word = std::uint8_t((b >> 4) & 7);
    a.mark = compiler::MarkKind((b >> 7) & 3);
    a.distance = std::uint8_t((b >> 9) & 15);
    a.critical = ((b >> 13) & 1) != 0;
    a.fault = Fault((b >> 14) & 7);
    a.faultWord = std::uint8_t((b >> 17) & 7);
    a.faultBit = std::uint8_t((b >> 20) & 7);
    a.flushProc = std::uint8_t((b >> 23) & 3);
    return a;
}

} // namespace mc
} // namespace hscd
