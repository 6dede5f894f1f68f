/// Tests for the persistent exploration store (store/
/// exploration_store.h): bit-exact round-trips, full-key verification
/// on digest collisions, crash-recovery salvage of damaged segments
/// (truncated body, torn final record, stale schema, leftover tmp
/// file) and multi-writer Refresh.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <array>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "store/exploration_store.h"

namespace adq::store {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test directory under the gtest temp root.
fs::path FreshDir(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::uint64_t BitsOf(double d) {
  std::uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

/// The one segment file a single-context Flush() produced.
fs::path OnlySegment(const fs::path& dir) {
  fs::path found;
  int n = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".adqstore") {
      found = e.path();
      ++n;
    }
  }
  EXPECT_EQ(n, 1) << "expected exactly one segment in " << dir;
  return found;
}

void TruncateTo(const fs::path& p, std::uintmax_t size) {
  std::error_code ec;
  fs::resize_file(p, size, ec);
  ASSERT_FALSE(ec) << ec.message();
}

/// On-disk segment geometry (mirrors exploration_store.cpp; the
/// salvage tests slice files at exact record boundaries).
constexpr std::size_t kHeaderFixed = 8 + 8 + 8;
constexpr std::size_t kRecordBytes = 4 + 8 + 8 + 1 + 8;

std::size_t BodyStart(const std::string& canonical) {
  return kHeaderFixed + canonical.size() + 8 /*record count*/;
}

/// Hand-writes a segment file, optionally lying in the header's hash
/// field (the loader must recompute and never trust it).
void WriteSegment(const fs::path& path, std::uint64_t claimed_hash,
                  const std::string& canonical,
                  const std::vector<std::array<std::uint64_t, 2>>& recs) {
  std::string body = "ADQXSTO1";
  auto put64 = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      body.push_back(static_cast<char>((v >> (8 * i)) & 0xffULL));
  };
  auto put32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      body.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  };
  put64(claimed_hash);
  put64(canonical.size());
  body += canonical;
  put64(recs.size());
  for (const auto& r : recs) {  // r = {mask, wns bits}; bw=8, vdd=1.0
    put32(8u);
    put64(BitsOf(1.0));
    put64(r[0]);
    body.push_back(1);  // feasible
    put64(r[1]);
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(body.data(), 1, body.size(), f), body.size());
  std::fclose(f);
}

TEST(Store, RoundTripIsBitExact) {
  const fs::path dir = FreshDir("store_roundtrip");
  const StoreKey key = MakeStoreKey("design-a");
  // Values chosen to catch any text or float-rounding path: negative
  // zero, a denormal, an irrational-looking double and +-inf stay
  // exact only if stored as raw bit patterns.
  const struct {
    int bw;
    double vdd;
    std::uint64_t mask;
    bool feasible;
    double wns;
  } recs[] = {
      {1, 1.0, 0x0u, true, 0.3},
      {8, 0.7, 0x5u, false, -0.0},
      {16, 0.6, 0xffffffffffffffffull, true,
       std::numeric_limits<double>::denorm_min()},
      {32, 0.9, 0x8000000000000000ull, false,
       -std::numeric_limits<double>::infinity()},
  };
  {
    ExplorationStore w(dir.string());
    const int ctx = w.Context(key);
    for (const auto& r : recs)
      w.Insert(ctx, r.bw, r.vdd, r.mask, r.feasible, r.wns);
    // A duplicate neither grows the store nor reaches disk twice.
    w.Insert(ctx, 1, 1.0, 0x0u, true, 0.3);
    EXPECT_EQ(w.stats().duplicate_insertions, 1u);
    EXPECT_EQ(w.num_records(), 4u);
    ASSERT_TRUE(w.Flush());
  }
  ExplorationStore r(dir.string());
  EXPECT_EQ(r.stats().segments_loaded, 1u);
  EXPECT_EQ(r.num_records(), 4u);
  const int ctx = r.Context(key);
  for (const auto& want : recs) {
    bool feasible = !want.feasible;
    double wns = 12345.0;
    ASSERT_TRUE(r.Lookup(ctx, want.bw, want.vdd, want.mask, &feasible,
                         &wns));
    EXPECT_EQ(feasible, want.feasible);
    EXPECT_EQ(BitsOf(wns), BitsOf(want.wns));  // exact bit pattern
  }
  bool f;
  double w;
  EXPECT_FALSE(r.Lookup(ctx, 1, 1.0, 0x1u, &f, &w));  // absent mask
  EXPECT_FALSE(r.Lookup(ctx, 2, 1.0, 0x0u, &f, &w));  // absent bw
  EXPECT_EQ(r.stats().misses, 2u);
}

// Pins the on-disk format independently of the in-memory container:
// a segment lists its records in insertion order, field by field, and
// reads back exactly. Keys go in descending (bitwidth, vdd, mask)
// order, so a writer that iterated a sorted or hashed index instead of
// the insertion log would be caught.
TEST(Store, SegmentListsRecordsInInsertionOrder) {
  const fs::path dir = FreshDir("store_insertion_order");
  const StoreKey key = MakeStoreKey("design-order");
  struct Rec {
    std::uint32_t bw;
    double vdd;
    std::uint64_t mask;
    bool feasible;
    double wns;
  };
  std::vector<Rec> recs;
  for (std::uint32_t bw = 16; bw >= 15; --bw)
    for (const double vdd : {1.0, 0.8, 0.6})
      for (std::uint64_t mask = 40; mask-- > 0;)
        recs.push_back({bw, vdd, mask * 0x9e3779b97f4a7c15ULL,
                        (mask % 3) != 0,
                        0.001 * static_cast<double>(mask) - 0.02});
  {
    ExplorationStore w(dir.string());
    const int ctx = w.Context(key);
    for (const Rec& r : recs)
      w.Insert(ctx, static_cast<int>(r.bw), r.vdd, r.mask, r.feasible,
               r.wns);
    ASSERT_TRUE(w.Flush());
  }

  std::FILE* f = std::fopen(OnlySegment(dir).c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string bytes;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;)
    bytes.append(buf, n);
  std::fclose(f);
  ASSERT_EQ(bytes.size(),
            BodyStart(key.canonical) + recs.size() * kRecordBytes);
  const auto get = [&](std::size_t at, int n) {
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i)
      v |= std::uint64_t{static_cast<unsigned char>(
               bytes[at + static_cast<std::size_t>(i)])}
           << (8 * i);
    return v;
  };
  EXPECT_EQ(bytes.compare(0, 8, "ADQXSTO1"), 0);
  EXPECT_EQ(get(BodyStart(key.canonical) - 8, 8), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    const std::size_t at = BodyStart(key.canonical) + i * kRecordBytes;
    EXPECT_EQ(get(at, 4), recs[i].bw);
    EXPECT_EQ(get(at + 4, 8), BitsOf(recs[i].vdd));
    EXPECT_EQ(get(at + 12, 8), recs[i].mask);
    EXPECT_EQ(get(at + 20, 1), recs[i].feasible ? 1u : 0u);
    EXPECT_EQ(get(at + 21, 8), BitsOf(recs[i].wns));
  }

  ExplorationStore r(dir.string());
  EXPECT_EQ(r.num_records(), recs.size());
  const int ctx = r.Context(key);
  for (const Rec& want : recs) {
    bool feasible = !want.feasible;
    double wns = 12345.0;
    ASSERT_TRUE(r.Lookup(ctx, static_cast<int>(want.bw), want.vdd,
                         want.mask, &feasible, &wns));
    EXPECT_EQ(feasible, want.feasible);
    EXPECT_EQ(BitsOf(wns), BitsOf(want.wns));
  }
}

TEST(Store, TruncatedBodyKeepsCompleteRecords) {
  const fs::path dir = FreshDir("store_truncated");
  const StoreKey key = MakeStoreKey("design-t");
  {
    ExplorationStore w(dir.string());
    const int ctx = w.Context(key);
    for (int m = 0; m < 5; ++m)
      w.Insert(ctx, 8, 1.0, static_cast<std::uint64_t>(m), true,
               0.1 * m);
    ASSERT_TRUE(w.Flush());
  }
  // Chop mid-way through the third record: a crash while a (pre-
  // rename-discipline) writer was mid-body.
  TruncateTo(OnlySegment(dir),
             BodyStart(key.canonical) + 2 * kRecordBytes +
                 kRecordBytes / 2);
  ExplorationStore r(dir.string());
  EXPECT_EQ(r.stats().segments_salvaged, 1u);
  EXPECT_EQ(r.stats().segments_loaded, 0u);
  EXPECT_EQ(r.num_records(), 2u);  // the complete records survive
  const int ctx = r.Context(key);
  bool f;
  double wns;
  EXPECT_TRUE(r.Lookup(ctx, 8, 1.0, 1u, &f, &wns));
  EXPECT_FALSE(r.Lookup(ctx, 8, 1.0, 2u, &f, &wns));  // the torn one
}

TEST(Store, TornFinalRecordIsDropped) {
  const fs::path dir = FreshDir("store_torn");
  const StoreKey key = MakeStoreKey("design-f");
  {
    ExplorationStore w(dir.string());
    const int ctx = w.Context(key);
    for (int m = 0; m < 3; ++m)
      w.Insert(ctx, 4, 0.8, static_cast<std::uint64_t>(m), m != 1,
               -0.01 * m);
    ASSERT_TRUE(w.Flush());
  }
  TruncateTo(OnlySegment(dir),
             BodyStart(key.canonical) + 3 * kRecordBytes - 1);
  ExplorationStore r(dir.string());
  EXPECT_EQ(r.stats().segments_salvaged, 1u);
  EXPECT_EQ(r.num_records(), 2u);
  const int ctx = r.Context(key);
  bool f;
  double wns;
  EXPECT_TRUE(r.Lookup(ctx, 4, 0.8, 1u, &f, &wns));
  EXPECT_FALSE(f);
  EXPECT_FALSE(r.Lookup(ctx, 4, 0.8, 2u, &f, &wns));
}

TEST(Store, StaleSchemaAndTmpFilesAreIgnored) {
  const fs::path dir = FreshDir("store_stale");
  const StoreKey key = MakeStoreKey("design-s");
  {
    ExplorationStore w(dir.string());
    w.Insert(w.Context(key), 8, 1.0, 0u, true, 0.0);
    ASSERT_TRUE(w.Flush());
  }
  // Bump the schema version byte: a future-format segment must be
  // skipped whole, never misparsed.
  {
    const fs::path seg = OnlySegment(dir);
    std::FILE* f = std::fopen(seg.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 7, SEEK_SET), 0);
    std::fputc('9', f);
    std::fclose(f);
  }
  // Plus a crashed writer's leftover tmp file full of garbage.
  {
    std::FILE* f =
        std::fopen((dir / "tmp-seg-p1-n0-dead.adqstore").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a segment", f);
    std::fclose(f);
  }
  ExplorationStore r(dir.string());
  EXPECT_EQ(r.stats().segments_ignored, 1u);  // stale schema
  EXPECT_EQ(r.stats().segments_loaded, 0u);   // tmp never even opened
  EXPECT_EQ(r.num_records(), 0u);
}

TEST(Store, DigestCollisionDegradesToMissNeverAliases) {
  const fs::path dir = FreshDir("store_collision");
  // Two different designs whose segment headers claim the same
  // digest (a bit-rotted header, or a genuine 64-bit collision). The
  // loader recomputes the digest from the canonical bytes and keys
  // contexts by the full canonical encoding, so neither design may
  // ever see the other's verdicts.
  WriteSegment(dir / "seg-a.adqstore", /*claimed_hash=*/42u, "design-a",
               {{{0x1u, BitsOf(0.25)}}});
  WriteSegment(dir / "seg-b.adqstore", /*claimed_hash=*/42u, "design-b",
               {{{0x1u, BitsOf(-0.75)}}});
  ExplorationStore r(dir.string());
  EXPECT_EQ(r.num_records(), 2u);
  const int ca = r.Context(MakeStoreKey("design-a"));
  const int cb = r.Context(MakeStoreKey("design-b"));
  EXPECT_NE(ca, cb);
  bool f;
  double wns;
  ASSERT_TRUE(r.Lookup(ca, 8, 1.0, 0x1u, &f, &wns));
  EXPECT_EQ(wns, 0.25);
  ASSERT_TRUE(r.Lookup(cb, 8, 1.0, 0x1u, &f, &wns));
  EXPECT_EQ(wns, -0.75);
}

TEST(Store, RefreshPicksUpOtherWritersSegments) {
  const fs::path dir = FreshDir("store_refresh");
  const StoreKey key = MakeStoreKey("design-r");
  ExplorationStore a(dir.string());
  ExplorationStore b(dir.string());
  const int actx = a.Context(key);
  a.Insert(actx, 8, 0.9, 0x3u, true, 0.125);
  ASSERT_TRUE(a.Flush());

  const int bctx = b.Context(key);
  bool f;
  double wns;
  EXPECT_FALSE(b.Lookup(bctx, 8, 0.9, 0x3u, &f, &wns));
  b.Refresh();
  ASSERT_TRUE(b.Lookup(bctx, 8, 0.9, 0x3u, &f, &wns));
  EXPECT_TRUE(f);
  EXPECT_EQ(BitsOf(wns), BitsOf(0.125));
  // A's own segment is not re-read by its own Refresh.
  const auto loaded_before = a.stats().segments_loaded;
  a.Refresh();
  EXPECT_EQ(a.stats().segments_loaded, loaded_before);
}

TEST(Store, KeyDigestIsVerifiedOnContext) {
  const fs::path dir = FreshDir("store_badkey");
  ExplorationStore s(dir.string());
  StoreKey bad;
  bad.canonical = "design-x";
  bad.hash = 0xdeadbeefULL;  // not StoreHash("design-x")
  EXPECT_THROW(s.Context(bad), std::exception);
}

}  // namespace
}  // namespace adq::store
