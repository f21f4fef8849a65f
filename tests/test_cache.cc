/** @file Unit tests for the generic cache array. */

#include <vector>

#include <gtest/gtest.h>

#include "mem/cache.hh"

using namespace hscd;
using namespace hscd::mem;

namespace {

MachineConfig
smallConfig(unsigned assoc = 1)
{
    MachineConfig c;
    c.cacheBytes = 256; // 16 lines of 16B
    c.lineBytes = 16;
    c.assoc = assoc;
    return c;
}

} // namespace

TEST(CacheArray, Geometry)
{
    CacheArray<> c(smallConfig());
    EXPECT_EQ(c.wordsPerLine(), 4u);
    EXPECT_EQ(c.lineCount(), 16u);
    EXPECT_EQ(c.lineAddr(0x123), 0x120u);
    EXPECT_EQ(c.wordIndex(0x120), 0u);
    EXPECT_EQ(c.wordIndex(0x12c), 3u);
}

TEST(CacheArray, MissThenHit)
{
    CacheArray<> c(smallConfig());
    EXPECT_EQ(c.lookup(0x100, 1), nullptr);
    auto &line = c.victim(0x100, 1);
    EXPECT_FALSE(line.valid);
    line.valid = true;
    line.base = c.lineAddr(0x100);
    line.lastUse = 1;
    EXPECT_NE(c.lookup(0x104, 2), nullptr);
    EXPECT_EQ(c.lookup(0x104, 2), c.lookup(0x10c, 3));
}

TEST(CacheArray, DirectMappedConflict)
{
    CacheArray<> c(smallConfig());
    // 16 lines * 16B = 256B: addresses 0x100 and 0x200 conflict.
    auto &l1 = c.victim(0x100, 1);
    l1.valid = true;
    l1.base = 0x100;
    auto &l2 = c.victim(0x200, 2);
    EXPECT_EQ(&l1, &l2) << "same set, direct-mapped";
    EXPECT_TRUE(l2.valid) << "caller sees the eviction candidate";
}

TEST(CacheArray, AssociativityAvoidsConflict)
{
    CacheArray<> c(smallConfig(2));
    auto &l1 = c.victim(0x100, 1);
    l1.valid = true;
    l1.base = 0x100;
    l1.lastUse = 1;
    auto &l2 = c.victim(0x200, 2);
    EXPECT_NE(&l1, &l2) << "second way available";
    l2.valid = true;
    l2.base = 0x200;
    l2.lastUse = 2;
    EXPECT_NE(c.lookup(0x100, 3), nullptr);
    EXPECT_NE(c.lookup(0x200, 4), nullptr);
}

TEST(CacheArray, LruVictimSelection)
{
    CacheArray<> c(smallConfig(2));
    auto &a = c.victim(0x100, 1);
    a.valid = true;
    a.base = 0x100;
    a.lastUse = 1;
    auto &b = c.victim(0x200, 5);
    b.valid = true;
    b.base = 0x200;
    b.lastUse = 5;
    // Touch a to make b the LRU.
    c.lookup(0x100, 9);
    auto &v = c.victim(0x300, 10);
    EXPECT_EQ(v.base, 0x200u);
}

TEST(CacheArray, LookupDoesNotRegressLru)
{
    CacheArray<> c(smallConfig(2));
    auto &a = c.victim(0x100, 10);
    a.valid = true;
    a.base = 0x100;
    a.lastUse = 10;
    // A bookkeeping lookup at time 0 must not make the line look old.
    c.lookup(0x100, 0);
    EXPECT_EQ(c.peek(0x100)->lastUse, 10u);
}

TEST(CacheArray, InvalidateIf)
{
    CacheArray<> c(smallConfig());
    for (Addr base = 0; base < 8 * 16; base += 16) {
        auto &l = c.victim(base, 1);
        l.valid = true;
        l.base = base;
    }
    c.invalidateIf([](auto &l) { return l.base >= 4 * 16; });
    EXPECT_NE(c.lookup(0x00, 2), nullptr);
    EXPECT_NE(c.lookup(0x30, 2), nullptr);
    EXPECT_EQ(c.lookup(0x40, 2), nullptr);
    EXPECT_EQ(c.lookup(0x70, 2), nullptr);
}

TEST(CacheArray, ForEachLineVisitsOnlyValid)
{
    CacheArray<> c(smallConfig());
    auto &l = c.victim(0x100, 1);
    l.valid = true;
    l.base = 0x100;
    int count = 0;
    c.forEachLine([&](auto &) { ++count; });
    EXPECT_EQ(count, 1);
}

TEST(CacheArray, PerWordMetadataSized)
{
    struct Tag
    {
        int v = 7;
    };
    MachineConfig cfg = smallConfig();
    cfg.lineBytes = 32;
    cfg.cacheBytes = 512;
    CacheArray<Tag> c(cfg);
    auto &l = c.victim(0x100, 1);
    ASSERT_EQ(c.wordsPerLine(), 8u);
    // Every line's word metadata is default-initialized and writable
    // across the whole line (the slot chunk is sized for it).
    EXPECT_EQ(l.words[3].v, 7);
    l.words[7].v = 11;
    l.stamps[7] = 42;
    EXPECT_EQ(l.words[7].v, 11);
    EXPECT_EQ(l.stamps[7], 42u);
}

namespace {

/** 4 KB direct-mapped, 16B lines: 256 frames, four 64-slot chunks. */
MachineConfig
chunkedConfig()
{
    MachineConfig c = smallConfig();
    c.cacheBytes = 4096;
    return c;
}

/** Fill the frame @p base maps to (direct-mapped: frame = base / 16). */
template <typename Cache>
typename Cache::Line &
fill(Cache &c, Addr base, Cycles now)
{
    auto &l = c.victim(base, now);
    l.valid = true;
    l.base = base;
    l.lastUse = now;
    return l;
}

} // namespace

TEST(CacheArray, FreshArrayHasNoSlotStorage)
{
    CacheArray<> c(chunkedConfig());
    EXPECT_EQ(c.lineCount(), 256u);
    EXPECT_EQ(c.filledFrames(), 0u);
    // Misses, peeks and sweeps over an empty array create nothing.
    EXPECT_EQ(c.lookup(0x100, 1), nullptr);
    EXPECT_EQ(c.peek(0x100), nullptr);
    int visited = 0;
    c.forEachLine([&](auto &) { ++visited; });
    c.invalidateIf([&](auto &) { return true; });
    EXPECT_EQ(visited, 0);
    EXPECT_EQ(c.filledFrames(), 0u);
}

TEST(CacheArray, SlotsAreCreatedOnFirstFillOnly)
{
    CacheArray<> c(chunkedConfig());
    // 100 distinct frames, then the same frames again (hits), then
    // conflicting addresses (evictions), then refills after an
    // invalidation: only the first fill of a frame creates a slot.
    for (Addr f = 0; f < 100; ++f)
        fill(c, f * 16, 1);
    EXPECT_EQ(c.filledFrames(), 100u);
    for (Addr f = 0; f < 100; ++f)
        EXPECT_NE(c.lookup(f * 16, 2), nullptr);
    for (Addr f = 0; f < 100; ++f) {
        auto &l = c.victim(4096 + f * 16, 3);
        EXPECT_TRUE(l.valid) << "frame " << f << " evicts its first fill";
        l.base = 4096 + f * 16;
    }
    c.invalidateIf([](auto &) { return true; });
    for (Addr f = 0; f < 100; ++f)
        fill(c, f * 16, 4);
    EXPECT_EQ(c.filledFrames(), 100u);
    // A victim() the caller never fills still claims the frame's slot.
    EXPECT_FALSE(c.victim(200 * 16, 5).valid);
    EXPECT_EQ(c.filledFrames(), 101u);
}

TEST(CacheArray, VisitOrderIsFrameOrderAcrossChunks)
{
    CacheArray<> c(chunkedConfig());
    // Fill all 256 frames in a scrambled order (37 is coprime with
    // 256), so slot order and frame order disagree in every chunk.
    std::vector<Addr> order;
    for (Addr i = 0; i < 256; ++i)
        order.push_back((i * 37) % 256 * 16);
    for (Addr base : order)
        fill(c, base, 1);
    ASSERT_EQ(c.filledFrames(), 256u);

    std::vector<Addr> seen;
    c.forEachLine([&](auto &l) { seen.push_back(l.base); });
    ASSERT_EQ(seen.size(), 256u);
    for (Addr f = 0; f < 256; ++f)
        EXPECT_EQ(seen[f], f * 16);

    std::vector<Addr> asked;
    c.invalidateIf([&](auto &l) {
        asked.push_back(l.base);
        return l.base % 32 == 0;
    });
    EXPECT_EQ(asked, seen);
    std::vector<Addr> left;
    const auto &cc = c;
    cc.forEachLine([&](const auto &l) { left.push_back(l.base); });
    ASSERT_EQ(left.size(), 128u);
    for (std::size_t i = 0; i < left.size(); ++i)
        EXPECT_EQ(left[i], (2 * i + 1) * 16);
}

TEST(CacheArray, VictimOrderMatchesDenseArray)
{
    // 4-way sets: invalid frames are taken first in way order (even when
    // a later way was filled earlier), then the least recently used.
    MachineConfig cfg = chunkedConfig();
    cfg.assoc = 4;
    CacheArray<> c(cfg);
    const Addr stride = 64 * 16; // 64 sets: same set every 1 KB
    fill(c, 0, 10);
    auto &w1 = fill(c, stride, 20);
    auto &w2 = fill(c, 2 * stride, 30);
    w1.valid = false;
    EXPECT_EQ(&c.victim(3 * stride, 40), &w1) << "invalid way first";
    fill(c, 3 * stride, 40);
    auto &w3 = c.victim(4 * stride, 50);
    EXPECT_FALSE(w3.valid) << "never-filled way 3 before any LRU";
    w3.valid = true;
    w3.base = 4 * stride;
    w3.lastUse = 50;
    c.lookup(0, 60); // way 0 is now the most recent
    EXPECT_EQ(&c.victim(5 * stride, 70), &w2) << "LRU among valid ways";
    EXPECT_EQ(c.filledFrames(), 4u);
}

TEST(CacheArray, LineReferencesSurviveLaterFills)
{
    struct Tag
    {
        int v = 0;
    };
    CacheArray<Tag> c(chunkedConfig());
    auto &first = fill(c, 0, 1);
    first.words[3].v = 99;
    first.stamps[2] = 1234;
    Tag *words = first.words;
    // Fill every other frame: three more chunks get allocated.
    for (Addr f = 1; f < 256; ++f) {
        auto &l = fill(c, f * 16, 2);
        l.words[0].v = int(f);
        l.stamps[0] = f;
    }
    EXPECT_EQ(c.lookup(0, 3), &first);
    EXPECT_EQ(first.words, words);
    EXPECT_EQ(first.words[3].v, 99);
    EXPECT_EQ(first.stamps[2], 1234u);
    // Every line's word storage is its own.
    for (Addr f = 1; f < 256; ++f) {
        const auto *l = c.peek(f * 16);
        ASSERT_NE(l, nullptr);
        EXPECT_EQ(l->words[0].v, int(f));
        EXPECT_EQ(l->stamps[0], f);
    }
    // Moving the array moves the chunks wholesale: lines stay put.
    CacheArray<Tag> moved(std::move(c));
    EXPECT_EQ(moved.peek(0), &first);
}
