// Tests for the replica re-seed snapshot subsystem (src/core/snapshot.{h,cc}):
// sparse VMA image capture/restore (page-for-page equality including lazy holes),
// serialization round trips through the opener/Chunk/End payloads, assembler
// rejection of malformed checkpoints, and the mirror apply's reset-generation
// rules on a live leader/mirror pair. The end-to-end kill/re-seed behavior is
// covered by the fuzz in tests/property_test.cc and the server test in
// tests/workloads_test.cc.

#include <gtest/gtest.h>

#include <cstring>

#include "src/core/ipmon.h"
#include "src/core/remon.h"
#include "src/core/replication_buffer.h"
#include "src/core/snapshot.h"
#include "src/core/sync_agent.h"
#include "src/mem/address_space.h"
#include "src/sim/rng.h"
#include "tests/test_util.h"

namespace remon {
namespace {

constexpr GuestAddr kBase = 0x100000;

// Page-for-page comparison including materialization state: a hole (untouched
// lazy page) must stay a hole, and every materialized page must be byte-equal.
void ExpectPageForPageEqual(const AddressSpace& a, GuestAddr a_start,
                            const AddressSpace& b, GuestAddr b_start, uint64_t length) {
  uint8_t pa[kPageSize];
  uint8_t pb[kPageSize];
  for (uint64_t off = 0; off < length; off += kPageSize) {
    bool ma = a.PageMaterialized(a_start + off);
    bool mb = b.PageMaterialized(b_start + off);
    ASSERT_TRUE(a.ReadUnchecked(a_start + off, pa, kPageSize).ok) << "off " << off;
    ASSERT_TRUE(b.ReadUnchecked(b_start + off, pb, kPageSize).ok) << "off " << off;
    EXPECT_EQ(0, std::memcmp(pa, pb, kPageSize)) << "page content at off " << off;
    if (ma != mb) {
      // Permitted only when the page reads as zero on both sides (an all-zero
      // materialized page is captured as a hole by design).
      uint8_t zero[kPageSize] = {};
      EXPECT_EQ(0, std::memcmp(pa, zero, kPageSize)) << "off " << off;
    }
  }
}

TEST(VmaImageTest, RoundTripPreservesLazyHoles) {
  constexpr uint64_t kLen = 64 * kPageSize;
  AddressSpace src;
  ASSERT_TRUE(src.MapFixedLazy(kBase, kLen, kProtRead | kProtWrite, "lazy"));

  // Touch a scattered subset; everything else stays a lazy hole.
  Rng rng(20260730);
  std::vector<uint64_t> touched;
  for (uint64_t p = 0; p < 60; p += 1 + rng.NextBelow(5)) {
    touched.push_back(p);
    std::vector<uint8_t> bytes(kPageSize);
    for (auto& b : bytes) {
      b = static_cast<uint8_t>(rng.NextBelow(256));
    }
    bytes[0] = static_cast<uint8_t>(1 + rng.NextBelow(255));  // Never a zero page.
    ASSERT_TRUE(src.Write(kBase + p * kPageSize, bytes.data(), bytes.size()).ok);
  }
  // One touched-but-zero page: must be captured as a hole.
  uint8_t zeros[kPageSize] = {};
  ASSERT_TRUE(src.Write(kBase + 63 * kPageSize, zeros, kPageSize).ok);

  VmaImage image = CaptureVmaImage(src, kBase, kLen);
  EXPECT_EQ(image.length, kLen);
  EXPECT_EQ(image.run_bytes(), touched.size() * kPageSize);

  // Capture must not have materialized any hole (page 63 stays materialized in the
  // source — it was written, just with zeros — but is captured as a hole).
  for (uint64_t p = 0; p < 60; ++p) {
    bool is_touched = false;
    for (uint64_t t : touched) {
      is_touched |= t == p;
    }
    EXPECT_EQ(src.PageMaterialized(kBase + p * kPageSize), is_touched) << p;
  }

  AddressSpace dst;
  ASSERT_TRUE(dst.MapFixedLazy(kBase, kLen, kProtRead | kProtWrite, "lazy"));
  ASSERT_TRUE(RestoreVmaImage(&dst, kBase, image));

  ExpectPageForPageEqual(src, kBase, dst, kBase, kLen);
  // Holes stayed lazy on the restored side too (the zero page at 63 included).
  for (uint64_t p = 0; p < 64; ++p) {
    bool is_touched = false;
    for (uint64_t t : touched) {
      is_touched |= t == p;
    }
    EXPECT_EQ(dst.PageMaterialized(kBase + p * kPageSize), is_touched) << p;
  }
}

TEST(VmaImageTest, AdjacentPagesCoalesceIntoOneRun) {
  AddressSpace src;
  ASSERT_TRUE(src.MapFixedLazy(kBase, 16 * kPageSize, kProtRead | kProtWrite, "lazy"));
  uint8_t fill[kPageSize];
  std::memset(fill, 0xab, sizeof(fill));
  for (uint64_t p = 2; p <= 5; ++p) {
    ASSERT_TRUE(src.Write(kBase + p * kPageSize, fill, kPageSize).ok);
  }
  VmaImage image = CaptureVmaImage(src, kBase, 16 * kPageSize);
  ASSERT_EQ(image.runs.size(), 1u);
  EXPECT_EQ(image.runs[0].offset, 2 * kPageSize);
  EXPECT_EQ(image.runs[0].bytes.size(), 4 * kPageSize);
}

// A synthetic checkpoint with a sparse multi-run image, exercised through the
// exact payloads the wire carries.
ReplicaSnapshot MakeSnapshot(Rng* rng, uint64_t rb_size, int max_ranks) {
  ReplicaSnapshot snap;
  snap.rb_size = rb_size;
  snap.max_ranks = max_ranks;
  snap.rb_image.length = rb_size;
  uint64_t off = 0;
  while (off < rb_size) {
    uint64_t pages = 1 + rng->NextBelow(40);
    uint64_t len = std::min(pages * kPageSize, rb_size - off);
    if (rng->NextBelow(2) == 0) {
      PageRun run;
      run.offset = off;
      run.bytes.resize(len);
      for (auto& b : run.bytes) {
        b = static_cast<uint8_t>(rng->NextBelow(256));
      }
      snap.rb_image.runs.push_back(std::move(run));
    }
    off += len;
  }
  for (int r = 0; r < max_ranks; ++r) {
    snap.cursors.push_back(128 + static_cast<uint64_t>(r) * 64);
    snap.seqs.push_back(rng->NextBelow(1000));
  }
  snap.lockstep_cursor = rng->NextBelow(100000);
  snap.file_map.assign(kPageSize, 0);
  for (auto& b : snap.file_map) {
    b = static_cast<uint8_t>(rng->NextBelow(256));
  }
  if (snap.rb_image.runs.empty()) {
    // Every test needs at least one chunk on the wire.
    PageRun run;
    run.offset = 0;
    run.bytes.assign(kPageSize, 0x77);
    snap.rb_image.runs.push_back(std::move(run));
  }
  return snap;
}

// Adds a sync-log section: slots [from, tail) of a `cap`-slot log in seq order
// (embedded seqs), the replay cursor somewhere inside the slice.
void AddSyncSection(ReplicaSnapshot* snap, Rng* rng, uint64_t cap, uint64_t from,
                    uint64_t tail) {
  snap->sync_log_size = kSyncLogOffEntries + cap * kSyncLogEntrySize;
  snap->sync_from = from;
  snap->sync_tail = tail;
  snap->sync_read_cursor = from + rng->NextBelow(tail - from + 1);
  snap->sync_image.assign((tail - from) * kSyncLogEntrySize, 0);
  for (uint64_t i = 0; i < tail - from; ++i) {
    uint32_t obj = static_cast<uint32_t>(rng->NextBelow(1000));
    uint32_t rank = static_cast<uint32_t>(rng->NextBelow(4));
    uint64_t seq = from + i;
    uint8_t* slot = snap->sync_image.data() + i * kSyncLogEntrySize;
    std::memcpy(slot, &obj, 4);
    std::memcpy(slot + 4, &rank, 4);
    std::memcpy(slot + 8, &seq, 8);
  }
}

// The empty basis ships the whole occupied lap of the log.
void AddSyncLap(ReplicaSnapshot* snap, Rng* rng, uint64_t cap, uint64_t tail) {
  AddSyncSection(snap, rng, cap, tail - std::min(tail, cap), tail);
}

std::vector<uint8_t> FlattenImage(const ReplicaSnapshot& snap) {
  std::vector<uint8_t> flat(snap.rb_size, 0);
  for (const PageRun& run : snap.rb_image.runs) {
    std::memcpy(flat.data() + run.offset, run.bytes.data(), run.bytes.size());
  }
  return flat;
}

// A hand-built checkpoint leaves the basis fields at their defaults: every rank
// resumes at its data start and `file_map` is the whole map — the empty basis.
TEST(SnapshotCodecTest, SerializeAssembleRoundTrip) {
  Rng rng(99);
  for (int iter = 0; iter < 20; ++iter) {
    uint64_t rb_size = (64 + rng.NextBelow(128)) * kPageSize;
    int ranks = 1 + static_cast<int>(rng.NextBelow(8));
    ReplicaSnapshot snap = MakeSnapshot(&rng, rb_size, ranks);
    if (iter % 2 == 0) {
      // Half the sweep carries a sync section, wrapped and unwrapped alike.
      uint64_t cap = 8 + rng.NextBelow(64);
      AddSyncLap(&snap, &rng, cap, rng.NextBelow(3 * cap) + 1);
    }
    SnapshotPayloads payloads = SerializeSnapshot(snap);

    SnapshotAssembler asm_;
    ASSERT_TRUE(asm_.Begin(payloads.begin)) << asm_.error();
    for (const auto& chunk : payloads.chunks) {
      ASSERT_TRUE(asm_.AddChunk(chunk)) << asm_.error();
    }
    ASSERT_TRUE(asm_.End(payloads.end)) << asm_.error();
    ASSERT_EQ(asm_.state(), SnapshotAssembler::State::kComplete);

    const ReplicaSnapshot& out = asm_.snapshot();
    EXPECT_EQ(out.rb_size, snap.rb_size);
    EXPECT_EQ(out.max_ranks, snap.max_ranks);
    EXPECT_EQ(out.cursors, snap.cursors);
    EXPECT_EQ(out.seqs, snap.seqs);
    EXPECT_EQ(out.delta_from, std::vector<uint64_t>(static_cast<size_t>(ranks), 0));
    EXPECT_EQ(out.lockstep_cursor, snap.lockstep_cursor);
    EXPECT_EQ(out.file_map_page_count, 1u);
    EXPECT_EQ(out.file_map_pages, std::vector<uint32_t>{0});
    EXPECT_EQ(out.file_map, snap.file_map);
    EXPECT_EQ(out.sync_log_size, snap.sync_log_size);
    EXPECT_EQ(out.sync_from, snap.sync_from);
    EXPECT_EQ(out.sync_tail, snap.sync_tail);
    EXPECT_EQ(out.sync_read_cursor, snap.sync_read_cursor);
    EXPECT_EQ(out.sync_image, snap.sync_image) << "iter " << iter;
    EXPECT_EQ(asm_.image(), FlattenImage(snap)) << "iter " << iter;
  }
}

// The minimal checkpoint a codec micro-benchmark builds: geometry, cursors,
// seqs, one file-map page and an image, nothing else set.
TEST(SnapshotCodecTest, MinimalHandBuiltSnapshotAssembles) {
  ReplicaSnapshot snap;
  snap.rb_size = 64 * kPageSize;
  snap.max_ranks = 4;
  snap.cursors.assign(4, kRbGlobalHeaderSize);
  snap.seqs.assign(4, 0);
  snap.file_map.assign(kPageSize, 0);
  snap.rb_image.length = snap.rb_size;
  PageRun run;
  run.bytes.assign(3 * kPageSize, 0x5a);
  snap.rb_image.runs.push_back(std::move(run));

  SnapshotPayloads payloads = SerializeSnapshot(snap);
  SnapshotAssembler asm_;
  ASSERT_TRUE(asm_.Begin(payloads.begin)) << asm_.error();
  for (const auto& chunk : payloads.chunks) {
    ASSERT_TRUE(asm_.AddChunk(chunk)) << asm_.error();
  }
  ASSERT_TRUE(asm_.End(payloads.end)) << asm_.error();
  EXPECT_EQ(asm_.state(), SnapshotAssembler::State::kComplete);
  EXPECT_EQ(asm_.image(), FlattenImage(snap));
}

// --- Sync-log section rejection vectors --------------------------------------------

TEST(SnapshotCodecTest, SyncSectionWithoutLogSizeRejected) {
  Rng rng(41);
  ReplicaSnapshot snap = MakeSnapshot(&rng, 64 * kPageSize, 2);
  AddSyncLap(&snap, &rng, 16, 10);
  snap.sync_log_size = 0;  // Image + tail without a log to describe them.
  SnapshotPayloads payloads = SerializeSnapshot(snap);
  SnapshotAssembler asm_;
  EXPECT_FALSE(asm_.Begin(payloads.begin));
  EXPECT_EQ(asm_.state(), SnapshotAssembler::State::kFailed);
}

TEST(SnapshotCodecTest, SyncImageLengthDisagreeingWithTailRejected) {
  Rng rng(43);
  ReplicaSnapshot snap = MakeSnapshot(&rng, 64 * kPageSize, 2);
  AddSyncLap(&snap, &rng, 16, 10);
  snap.sync_image.resize(snap.sync_image.size() - kSyncLogEntrySize);  // One short.
  SnapshotPayloads payloads = SerializeSnapshot(snap);
  SnapshotAssembler asm_;
  EXPECT_FALSE(asm_.Begin(payloads.begin));
  EXPECT_EQ(asm_.state(), SnapshotAssembler::State::kFailed);
}

TEST(SnapshotCodecTest, SyncCursorPastTailRejected) {
  Rng rng(47);
  ReplicaSnapshot snap = MakeSnapshot(&rng, 64 * kPageSize, 2);
  AddSyncLap(&snap, &rng, 16, 10);
  snap.sync_read_cursor = snap.sync_tail + 1;  // A cursor the log cannot reach.
  SnapshotPayloads payloads = SerializeSnapshot(snap);
  SnapshotAssembler asm_;
  EXPECT_FALSE(asm_.Begin(payloads.begin));
  EXPECT_EQ(asm_.state(), SnapshotAssembler::State::kFailed);
}

TEST(SnapshotCodecTest, SyncLogSmallerThanItsHeaderRejected) {
  Rng rng(53);
  ReplicaSnapshot snap = MakeSnapshot(&rng, 64 * kPageSize, 2);
  AddSyncLap(&snap, &rng, 4, 4);
  snap.sync_log_size = kSyncLogOffEntries;  // Room for the tail word, no slots.
  SnapshotPayloads payloads = SerializeSnapshot(snap);
  SnapshotAssembler asm_;
  EXPECT_FALSE(asm_.Begin(payloads.begin));
  EXPECT_EQ(asm_.state(), SnapshotAssembler::State::kFailed);
}

TEST(SnapshotCodecTest, TruncatedChunkStreamRejectedAtEnd) {
  Rng rng(7);
  ReplicaSnapshot snap = MakeSnapshot(&rng, 128 * kPageSize, 4);
  SnapshotPayloads payloads = SerializeSnapshot(snap);
  ASSERT_GT(payloads.chunks.size(), 1u);

  SnapshotAssembler asm_;
  ASSERT_TRUE(asm_.Begin(payloads.begin));
  // Drop the last chunk: the commit record must refuse the short image.
  for (size_t i = 0; i + 1 < payloads.chunks.size(); ++i) {
    ASSERT_TRUE(asm_.AddChunk(payloads.chunks[i]));
  }
  EXPECT_FALSE(asm_.End(payloads.end));
  EXPECT_EQ(asm_.state(), SnapshotAssembler::State::kFailed);
}

TEST(SnapshotCodecTest, CorruptChunkByteFailsImageCrc) {
  Rng rng(11);
  ReplicaSnapshot snap = MakeSnapshot(&rng, 128 * kPageSize, 2);
  SnapshotPayloads payloads = SerializeSnapshot(snap);
  ASSERT_FALSE(payloads.chunks.empty());

  SnapshotAssembler asm_;
  ASSERT_TRUE(asm_.Begin(payloads.begin));
  for (size_t i = 0; i < payloads.chunks.size(); ++i) {
    std::vector<uint8_t> chunk = payloads.chunks[i];
    if (i == payloads.chunks.size() / 2) {
      chunk[chunk.size() - 1] ^= 0x01;  // One flipped image bit.
    }
    ASSERT_TRUE(asm_.AddChunk(chunk));  // Per-chunk structure is still valid...
  }
  EXPECT_FALSE(asm_.End(payloads.end));  // ...but the end-to-end CRC is not.
  EXPECT_EQ(asm_.state(), SnapshotAssembler::State::kFailed);
}

TEST(SnapshotCodecTest, OutOfBoundsChunkRejectedImmediately) {
  Rng rng(13);
  ReplicaSnapshot snap = MakeSnapshot(&rng, 64 * kPageSize, 2);
  SnapshotPayloads payloads = SerializeSnapshot(snap);
  SnapshotAssembler asm_;
  ASSERT_TRUE(asm_.Begin(payloads.begin));
  ASSERT_FALSE(payloads.chunks.empty());
  std::vector<uint8_t> chunk = payloads.chunks[0];
  uint64_t bad_off = snap.rb_size - 16;  // Data would run past the image end.
  std::memcpy(chunk.data(), &bad_off, 8);
  EXPECT_FALSE(asm_.AddChunk(chunk));
  EXPECT_EQ(asm_.state(), SnapshotAssembler::State::kFailed);
}

TEST(SnapshotCodecTest, ChunkBeforeBeginIsProtocolViolation) {
  Rng rng(17);
  ReplicaSnapshot snap = MakeSnapshot(&rng, 64 * kPageSize, 2);
  SnapshotPayloads payloads = SerializeSnapshot(snap);
  ASSERT_FALSE(payloads.chunks.empty());
  SnapshotAssembler asm_;
  EXPECT_FALSE(asm_.AddChunk(payloads.chunks[0]));
  EXPECT_EQ(asm_.state(), SnapshotAssembler::State::kFailed);
  // A failed assembler refuses everything until Reset.
  EXPECT_FALSE(asm_.Begin(payloads.begin));
  asm_.Reset();
  EXPECT_TRUE(asm_.Begin(payloads.begin));
}

// --- Opener rejection vectors -----------------------------------------------------

// A synthetic checkpoint against a non-empty basis: per-rank resume offsets, a
// file-map section carrying 3 of 4 pages with a whole-map CRC, and a reset
// generation for the lap guard.
ReplicaSnapshot MakeDeltaSnapshot(Rng* rng, uint64_t rb_size, int max_ranks) {
  ReplicaSnapshot snap = MakeSnapshot(rng, rb_size, max_ranks);
  snap.reset_generation = rng->NextBelow(5);
  for (int r = 0; r < max_ranks; ++r) {
    snap.delta_from.push_back(rng->NextBelow(snap.cursors[static_cast<size_t>(r)] + 1));
  }
  snap.file_map_page_count = 4;
  snap.file_map_crc = static_cast<uint32_t>(rng->NextBelow(1u << 31));
  snap.file_map_pages = {0, 2, 3};
  snap.file_map.assign(3 * kPageSize, 0);
  for (auto& b : snap.file_map) {
    b = static_cast<uint8_t>(rng->NextBelow(256));
  }
  return snap;
}


// kSnapshotDelta opener header fields, for poking malformed values.
constexpr size_t kOpenOffRbSize = 0;
constexpr size_t kOpenOffMaxRanks = 8;
constexpr size_t kOpenOffRankCount = 12;
constexpr size_t kOpenOffImageBytes = 16;
constexpr size_t kOpenOffFmPageCount = 48;
constexpr size_t kOpenOffFmShippedCount = 52;
constexpr size_t kOpenOffReserved = 60;

void ExpectTruncationsRejected(const SnapshotPayloads& payloads) {
  // One byte short: the variable-section arithmetic no longer adds up.
  std::vector<uint8_t> short_one = payloads.begin;
  short_one.pop_back();
  SnapshotAssembler asm_;
  EXPECT_FALSE(asm_.Begin(short_one));
  EXPECT_EQ(asm_.state(), SnapshotAssembler::State::kFailed);
  EXPECT_EQ(asm_.error(), "snapshot begin payload size mismatch");

  // One byte long: trailing garbage is a size mismatch too.
  std::vector<uint8_t> long_one = payloads.begin;
  long_one.push_back(0);
  asm_.Reset();
  EXPECT_FALSE(asm_.Begin(long_one));
  EXPECT_EQ(asm_.error(), "snapshot begin payload size mismatch");

  // Shorter than the fixed header: rejected before any field is read.
  std::vector<uint8_t> short_hdr(payloads.begin.begin(), payloads.begin.begin() + 40);
  asm_.Reset();
  EXPECT_FALSE(asm_.Begin(short_hdr));
  EXPECT_EQ(asm_.error(), "snapshot begin payload truncated");

  // The untouched payload still opens fine after Reset.
  asm_.Reset();
  EXPECT_TRUE(asm_.Begin(payloads.begin)) << asm_.error();
}

TEST(SnapshotCodecTest, TruncatedOrOversizedOpenerRejected) {
  Rng rng(103);
  for (const ReplicaSnapshot& snap : {MakeSnapshot(&rng, 64 * kPageSize, 2),
                                      MakeDeltaSnapshot(&rng, 64 * kPageSize, 2)}) {
    ExpectTruncationsRejected(SerializeSnapshot(snap));
  }
}

TEST(SnapshotCodecTest, OpenerMetadataOutOfBoundsRejected) {
  Rng rng(113);
  ReplicaSnapshot snap = MakeSnapshot(&rng, 64 * kPageSize, 2);
  SnapshotPayloads payloads = SerializeSnapshot(snap);
  struct Poke {
    size_t off;
    int width;  // Bytes.
    uint64_t value;
    const char* what;
  };
  const Poke pokes[] = {
      {kOpenOffRbSize, 8, 64 * kPageSize + 8, "rb_size not page-aligned"},
      {kOpenOffRbSize, 8, 0, "rb_size zero"},
      {kOpenOffRbSize, 8, 2ULL << 30, "rb_size above 1 GiB"},
      {kOpenOffMaxRanks, 4, 0, "no ranks"},
      {kOpenOffRankCount, 4, 3, "rank_count != max_ranks"},
      {kOpenOffFmPageCount, 4, 0, "empty file map"},
      {kOpenOffFmPageCount, 4, 1025, "file map above 1024 pages"},
      {kOpenOffFmShippedCount, 4, 2, "more shipped pages than the map has"},
      {kOpenOffImageBytes, 8, 65 * kPageSize, "image larger than the RB"},
      {kOpenOffReserved, 4, 1, "reserved word (the retired epoll row count) set"},
  };
  for (const Poke& poke : pokes) {
    std::vector<uint8_t> bad = payloads.begin;
    std::memcpy(bad.data() + poke.off, &poke.value, static_cast<size_t>(poke.width));
    SnapshotAssembler asm_;
    EXPECT_FALSE(asm_.Begin(bad)) << poke.what;
    EXPECT_EQ(asm_.state(), SnapshotAssembler::State::kFailed) << poke.what;
  }
}

TEST(SnapshotCodecTest, ChunkReservedFieldMustBeZero) {
  // The chunk header's reserved word is MUST-be-zero (like the opener's, poked
  // above) so a future revision can use it.
  Rng rng(127);
  ReplicaSnapshot snap = MakeSnapshot(&rng, 64 * kPageSize, 2);
  SnapshotPayloads payloads = SerializeSnapshot(snap);
  ASSERT_FALSE(payloads.chunks.empty());
  std::vector<uint8_t> chunk = payloads.chunks[0];
  chunk[12] = 1;  // reserved
  SnapshotAssembler asm_;
  ASSERT_TRUE(asm_.Begin(payloads.begin)) << asm_.error();
  EXPECT_FALSE(asm_.AddChunk(chunk));
  EXPECT_EQ(asm_.state(), SnapshotAssembler::State::kFailed);
}

// --- Non-empty basis round trip and rejection vectors ------------------------------

TEST(SnapshotCodecTest, DeltaSerializeAssembleRoundTrip) {
  Rng rng(101);
  for (int iter = 0; iter < 20; ++iter) {
    uint64_t rb_size = (64 + rng.NextBelow(128)) * kPageSize;
    int ranks = 1 + static_cast<int>(rng.NextBelow(8));
    ReplicaSnapshot snap = MakeDeltaSnapshot(&rng, rb_size, ranks);
    if (iter % 2 == 0) {
      uint64_t cap = 8 + rng.NextBelow(64);
      uint64_t from = rng.NextBelow(100);
      uint64_t tail = from + rng.NextBelow(cap + 1);
      AddSyncSection(&snap, &rng, cap, from, tail);
    }
    SnapshotPayloads payloads = SerializeSnapshot(snap);

    SnapshotAssembler asm_;
    ASSERT_TRUE(asm_.Begin(payloads.begin)) << asm_.error();
    for (const auto& chunk : payloads.chunks) {
      ASSERT_TRUE(asm_.AddChunk(chunk)) << asm_.error();
    }
    ASSERT_TRUE(asm_.End(payloads.end)) << asm_.error();
    ASSERT_EQ(asm_.state(), SnapshotAssembler::State::kComplete);

    const ReplicaSnapshot& out = asm_.snapshot();
    EXPECT_EQ(out.rb_size, snap.rb_size);
    EXPECT_EQ(out.max_ranks, snap.max_ranks);
    EXPECT_EQ(out.cursors, snap.cursors);
    EXPECT_EQ(out.seqs, snap.seqs);
    EXPECT_EQ(out.delta_from, snap.delta_from);
    EXPECT_EQ(out.lockstep_cursor, snap.lockstep_cursor);
    EXPECT_EQ(out.reset_generation, snap.reset_generation);
    EXPECT_EQ(out.file_map_page_count, snap.file_map_page_count);
    EXPECT_EQ(out.file_map_crc, snap.file_map_crc);
    EXPECT_EQ(out.file_map_pages, snap.file_map_pages);
    EXPECT_EQ(out.file_map, snap.file_map);
    EXPECT_EQ(out.sync_log_size, snap.sync_log_size);
    EXPECT_EQ(out.sync_from, snap.sync_from);
    EXPECT_EQ(out.sync_tail, snap.sync_tail);
    EXPECT_EQ(out.sync_read_cursor, snap.sync_read_cursor);
    EXPECT_EQ(out.sync_image, snap.sync_image) << "iter " << iter;
    EXPECT_EQ(asm_.image(), FlattenImage(snap)) << "iter " << iter;
  }
}

TEST(SnapshotCodecTest, LapStaleDeltaSyncSliceRejected) {
  Rng rng(107);
  ReplicaSnapshot snap = MakeDeltaSnapshot(&rng, 64 * kPageSize, 2);
  // A 16-slot log with a 20-op slice: the leader wrapped past the replica's
  // cursor after cutting the basis, so slots [from, tail-cap) are gone and the
  // checkpoint is stale. The joiner must refuse it.
  uint64_t cap = 16;
  AddSyncSection(&snap, &rng, cap, /*from=*/10, /*tail=*/10 + cap + 4);
  SnapshotPayloads payloads = SerializeSnapshot(snap);
  SnapshotAssembler asm_;
  EXPECT_FALSE(asm_.Begin(payloads.begin));
  EXPECT_EQ(asm_.state(), SnapshotAssembler::State::kFailed);
  EXPECT_NE(asm_.error().find("wrapped past"), std::string::npos) << asm_.error();
}

TEST(SnapshotCodecTest, DeltaFileMapPagesOutOfOrderRejected) {
  Rng rng(109);
  ReplicaSnapshot snap = MakeDeltaSnapshot(&rng, 64 * kPageSize, 2);
  snap.file_map_pages = {2, 1, 3};  // Not strictly increasing.
  SnapshotPayloads payloads = SerializeSnapshot(snap);
  SnapshotAssembler asm_;
  EXPECT_FALSE(asm_.Begin(payloads.begin));
  EXPECT_EQ(asm_.state(), SnapshotAssembler::State::kFailed);
}

// --- Mirror apply: the reset-generation rules --------------------------------------

ProgramFn WriteLoop(int iterations) {
  return [iterations](Guest& g) -> GuestTask<void> {
    int64_t fd = co_await g.Open("/tmp/snap-out", kO_CREAT | kO_RDWR);
    GuestAddr buf = g.Alloc(64);
    for (int i = 0; i < iterations; ++i) {
      co_await g.Compute(Micros(10));
      std::string line = "line-" + std::to_string(i) + ";";
      g.Poke(buf, line.data(), line.size());
      co_await g.Write(static_cast<int>(fd), buf, line.size());
    }
    co_await g.Close(static_cast<int>(fd));
  };
}

// A live leader/mirror pair: a two-replica set whose replica runs on its own
// machine (a private RB mirror fed by the transport), paused mid-run so both
// RBs hold published entries.
class MirrorApplyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    uint32_t host = w_.net.AddMachine("replica-host");
    w_.net.SetLink(w_.server_machine, host, LinkParams{50 * kMicrosecond, 0.125});
    RemonOptions opts;
    opts.mode = MveeMode::kRemon;
    opts.replicas = 2;
    opts.level = PolicyLevel::kNonsocketRw;
    opts.rb_size = 64 * 1024;
    opts.max_ranks = 2;
    opts.machine = w_.server_machine;
    opts.replica_machines = {w_.server_machine, host};
    mvee_ = std::make_unique<Remon>(&w_.kernel, opts);
    mvee_->Launch(WriteLoop(2000), "snap");
    w_.Run(Millis(3));
    ASSERT_FALSE(mvee_->finished());
    ASSERT_TRUE(leader()->rb().valid());
    ASSERT_TRUE(mirror()->rb().valid());
  }

  IpMon* leader() const { return mvee_->ipmon(0); }
  IpMon* mirror() const { return mvee_->ipmon(1); }

  // Ships `snap` through the wire codec and applies it to the mirror.
  SnapshotApplyResult ShipAndApply(const ReplicaSnapshot& snap) {
    SnapshotPayloads payloads = SerializeSnapshot(snap);
    SnapshotAssembler asm_;
    bool ok = asm_.Begin(payloads.begin);
    for (const auto& chunk : payloads.chunks) {
      ok = ok && asm_.AddChunk(chunk);
    }
    ok = ok && asm_.End(payloads.end);
    EXPECT_TRUE(ok) << asm_.error();
    if (!ok) {
      return SnapshotApplyResult{};
    }
    return ApplySnapshotToMirror(&w_.kernel, mirror(), nullptr, asm_.snapshot(),
                                 asm_.image());
  }

  SimWorld w_{11};
  std::unique_ptr<Remon> mvee_;
};

// End of the published entry chain of `rank` in `rb`, walking from the data start
// up to `cursor`; counts the entries it passes.
uint64_t PublishedEnd(const RbView& rb, int rank, uint64_t cursor, uint64_t* entries) {
  uint64_t off = rb.RankDataStart(rank);
  while (off + kRbEntryHeaderSize <= cursor && rb.ReadU32(off + kRbOffState) != kRbEmpty) {
    off += rb.ReadU64(off + kRbOffTotalSize);
    ++*entries;
  }
  return off;
}

std::vector<uint8_t> ReadRb(const RbView& rb, uint64_t off, uint64_t len) {
  std::vector<uint8_t> bytes(len);
  rb.ReadBytes(off, bytes.data(), len);
  return bytes;
}

TEST_F(MirrorApplyTest, EmptyBasisRebuildsMirrorFromOlderGeneration) {
  ReplicaSnapshot snap = CaptureLeaderSnapshot(leader(), mvee_->ghumvee());
  // The mirror is one reset round behind the checkpoint.
  snap.reset_generation = mirror()->rb_resets() + 1;
  const RbView& lrb = leader()->rb();
  RbView mrb = mirror()->rb();
  std::vector<uint64_t> ends;
  uint64_t entries = 0;
  for (int r = 0; r < snap.max_ranks; ++r) {
    ends.push_back(PublishedEnd(lrb, r, snap.cursors[static_cast<size_t>(r)], &entries));
    // Stale pre-reset bytes past the published prefix (the resume entry's state
    // and waiter words excepted): the apply must scrub them.
    uint64_t stale = ends.back() + 8;
    std::vector<uint8_t> junk(lrb.RankDataEnd(r) - stale, 0xa5);
    mrb.WriteBytes(stale, junk.data(), junk.size());
  }
  ASSERT_GT(entries, 0u);

  SnapshotApplyResult res = ShipAndApply(snap);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.entries_restored, entries);

  EXPECT_EQ(ReadRb(mrb, 0, kRbGlobalHeaderSize), ReadRb(lrb, 0, kRbGlobalHeaderSize));
  for (int r = 0; r < snap.max_ranks; ++r) {
    uint64_t start = lrb.RankStart(r);
    uint64_t end = ends[static_cast<size_t>(r)];
    // Headers and published entries match the leader byte for byte, except each
    // entry's waiter word, which belongs to the mirror's own consumers.
    std::vector<uint8_t> want = ReadRb(lrb, start, end - start);
    std::vector<uint8_t> got = ReadRb(mrb, start, end - start);
    for (uint64_t off = lrb.RankDataStart(r); off < end;
         off += lrb.ReadU64(off + kRbOffTotalSize)) {
      std::memset(want.data() + (off - start) + kRbOffWaiters, 0, 4);
      std::memset(got.data() + (off - start) + kRbOffWaiters, 0, 4);
    }
    EXPECT_EQ(got, want) << "rank " << r;
    // The stale tail reads as the leader's zeros.
    EXPECT_EQ(mrb.ReadU32(end + kRbOffState), lrb.ReadU32(end + kRbOffState));
    std::vector<uint8_t> tail = ReadRb(mrb, end + 8, lrb.RankDataEnd(r) - end - 8);
    EXPECT_EQ(tail, std::vector<uint8_t>(tail.size(), 0)) << "rank " << r;
  }
}

TEST_F(MirrorApplyTest, NonEmptyBasisFromOtherGenerationRefused) {
  RbDeltaBasis basis;
  basis.valid = true;
  basis.reset_generation = leader()->rb_resets();
  for (int r = 0; r < leader()->rb().max_ranks(); ++r) {
    basis.from_off.push_back(leader()->rb_cursor(r));
  }
  ReplicaSnapshot snap =
      CaptureLeaderSnapshot(leader(), mvee_->ghumvee(), nullptr, 0, basis);
  ASSERT_GT(snap.delta_from[0], leader()->rb().RankDataStart(0));
  snap.reset_generation = mirror()->rb_resets() + 1;

  const RbView& mrb = mirror()->rb();
  std::vector<uint8_t> before = ReadRb(mrb, 0, mrb.size());
  SnapshotApplyResult res = ShipAndApply(snap);
  EXPECT_FALSE(res.ok);
  EXPECT_STREQ(res.error, "delta basis from a different RB reset generation");
  EXPECT_EQ(ReadRb(mrb, 0, mrb.size()), before) << "a refused join must not write";

  // The same slice at the mirror's own generation applies.
  snap.reset_generation = mirror()->rb_resets();
  SnapshotApplyResult same = ShipAndApply(snap);
  EXPECT_TRUE(same.ok) << same.error;
}

}  // namespace
}  // namespace remon
