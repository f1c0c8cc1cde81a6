// Unit tests for the memory substrate: address spaces, layout randomization, shm.

#include <gtest/gtest.h>

#include <cstring>

#include "src/core/remon.h"
#include "src/mem/address_space.h"
#include "src/mem/layout.h"
#include "src/mem/shm.h"
#include "src/sim/rng.h"
#include "tests/test_util.h"

namespace remon {
namespace {

TEST(AddressSpaceTest, MapReadWrite) {
  AddressSpace as;
  ASSERT_TRUE(as.MapFixed(0x10000, 8192, kProtRead | kProtWrite, false, "r"));
  uint64_t v = 0xdeadbeefcafef00dULL;
  EXPECT_TRUE(as.Write(0x10ff8, &v, 8).ok);  // Spans into the second page.
  uint64_t r = 0;
  EXPECT_TRUE(as.Read(0x10ff8, &r, 8).ok);
  EXPECT_EQ(r, v);
}

TEST(AddressSpaceTest, UnmappedAccessFaults) {
  AddressSpace as;
  uint8_t b = 0;
  AccessResult res = as.Read(0x500000, &b, 1);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.fault_addr, 0x500000u);
}

TEST(AddressSpaceTest, ProtectionEnforced) {
  AddressSpace as;
  ASSERT_TRUE(as.MapFixed(0x10000, 4096, kProtRead, false, "ro"));
  uint8_t b = 1;
  EXPECT_FALSE(as.Write(0x10000, &b, 1).ok);
  EXPECT_TRUE(as.Read(0x10000, &b, 1).ok);
  // Unchecked (monitor) access bypasses protections.
  EXPECT_TRUE(as.WriteUnchecked(0x10000, &b, 1).ok);
}

TEST(AddressSpaceTest, MprotectChangesPermissions) {
  AddressSpace as;
  ASSERT_TRUE(as.MapFixed(0x10000, 8192, kProtRead | kProtWrite, false, "rw"));
  ASSERT_TRUE(as.Protect(0x10000, 4096, kProtRead));
  uint8_t b = 1;
  EXPECT_FALSE(as.Write(0x10000, &b, 1).ok);
  EXPECT_TRUE(as.Write(0x11000, &b, 1).ok);
}

TEST(AddressSpaceTest, ProtectHugeLazyRegionIsVmaGranular) {
  // Protect() must validate and update at VMA granularity, touching only
  // materialized pages: a terabyte lazy region has ~2^28 pages, and a per-page
  // walk would hang the test, while the VMA walk is instant.
  AddressSpace as;
  constexpr GuestAddr kBase = 0x10000;
  constexpr uint64_t kTiB = 1ULL << 40;
  ASSERT_TRUE(as.MapFixedLazy(kBase, kTiB, kProtRead | kProtWrite, "huge-lazy"));
  uint64_t v = 0xabcdef;
  ASSERT_TRUE(as.Write(kBase + (5ULL << 30), &v, 8).ok);  // Materialize two pages,
  ASSERT_TRUE(as.Write(kBase + (9ULL << 30), &v, 8).ok);  // far apart.

  ASSERT_TRUE(as.Protect(kBase, kTiB, kProtRead));
  // Materialized pages: data survives, writes now fault.
  uint64_t r = 0;
  EXPECT_TRUE(as.Read(kBase + (5ULL << 30), &r, 8).ok);
  EXPECT_EQ(r, v);
  EXPECT_FALSE(as.Write(kBase + (5ULL << 30), &v, 8).ok);
  EXPECT_FALSE(as.Write(kBase + (9ULL << 30), &v, 8).ok);
  // Untouched lazy pages: reads still serve zeroes, writes fault via the VMA prot.
  EXPECT_TRUE(as.Read(kBase + (100ULL << 30), &r, 8).ok);
  EXPECT_EQ(r, 0u);
  EXPECT_FALSE(as.Write(kBase + (100ULL << 30), &v, 8).ok);
  // Only the two touched pages are resident.
  EXPECT_LE(as.mapped_bytes(), 2 * kPageSize);

  // Re-enabling writes on a subrange splits the VMA and sticks for pages that
  // materialize later.
  ASSERT_TRUE(as.Protect(kBase + (200ULL << 30), 1ULL << 30, kProtRead | kProtWrite));
  EXPECT_TRUE(as.Write(kBase + (200ULL << 30) + 123, &v, 8).ok);
  EXPECT_FALSE(as.Write(kBase + (201ULL << 30) + 123, &v, 8).ok);
}

TEST(AddressSpaceTest, ProtectRejectsRangesWithGaps) {
  AddressSpace as;
  ASSERT_TRUE(as.MapFixed(0x10000, 4096, kProtRead | kProtWrite, false, "a"));
  ASSERT_TRUE(as.MapFixedLazy(0x13000, 4096, kProtRead | kProtWrite, "b"));
  // [0x10000, 0x14000) has a hole at 0x11000..0x13000: mprotect must fail without
  // changing either mapping.
  EXPECT_FALSE(as.Protect(0x10000, 0x4000, kProtRead));
  uint8_t b = 1;
  EXPECT_TRUE(as.Write(0x10000, &b, 1).ok);
  EXPECT_TRUE(as.Write(0x13000, &b, 1).ok);
  // Adjacent VMAs with no hole protect fine across the boundary.
  ASSERT_TRUE(as.MapFixed(0x11000, 0x2000, kProtRead | kProtWrite, false, "fill"));
  EXPECT_TRUE(as.Protect(0x10000, 0x4000, kProtRead));
  EXPECT_FALSE(as.Write(0x12000, &b, 1).ok);
}

TEST(AddressSpaceTest, DoubleMapFails) {
  AddressSpace as;
  ASSERT_TRUE(as.MapFixed(0x10000, 4096, kProtRead, false, "a"));
  EXPECT_FALSE(as.MapFixed(0x10000, 4096, kProtRead, false, "b"));
}

TEST(AddressSpaceTest, LazyMappingMaterializesOnTouch) {
  AddressSpace as;
  // A 64 MiB demand-paged region costs nothing at map time...
  ASSERT_TRUE(as.MapFixedLazy(0x10000, 64 * 1024 * 1024, kProtRead | kProtWrite, "lazy"));
  EXPECT_EQ(as.mapped_bytes(), 0u);
  // ...occupies the address range (overlap rejected, VMA visible)...
  EXPECT_FALSE(as.MapFixed(0x10000, 4096, kProtRead, false, "clash"));
  ASSERT_NE(as.FindVma(0x20000), nullptr);
  // ...reads back zeroes and accepts writes sparsely.
  uint64_t v = 0;
  EXPECT_TRUE(as.Read(0x1234560, &v, 8).ok);
  EXPECT_EQ(v, 0u);
  v = 0x1122334455667788ULL;
  EXPECT_TRUE(as.Write(0x2234560, &v, 8).ok);
  uint64_t r = 0;
  EXPECT_TRUE(as.Read(0x2234560, &r, 8).ok);
  EXPECT_EQ(r, v);
  // Only the touched pages materialized.
  EXPECT_LE(as.mapped_bytes(), 4 * kPageSize);
}

TEST(AddressSpaceTest, LazyMappingHonorsProtection) {
  AddressSpace as;
  ASSERT_TRUE(as.MapFixedLazy(0x10000, 1 << 20, kProtRead, "lazy-ro"));
  uint8_t b = 1;
  EXPECT_FALSE(as.Write(0x10000, &b, 1).ok);   // Untouched page: prot from the VMA.
  EXPECT_TRUE(as.Read(0x10000, &b, 1).ok);
  EXPECT_FALSE(as.Write(0x10000, &b, 1).ok);   // Materialized page: still read-only.
  // mprotect on a partly-unmaterialized lazy region works; future pages inherit.
  ASSERT_TRUE(as.Protect(0x10000, 8192, kProtRead | kProtWrite));
  EXPECT_TRUE(as.Write(0x10000, &b, 1).ok);
  EXPECT_TRUE(as.Write(0x11000, &b, 1).ok);    // Was unmaterialized at Protect time.
}

TEST(AddressSpaceTest, LazyMappingResolvesFramesForFutexKeys) {
  AddressSpace as;
  ASSERT_TRUE(as.MapFixedLazy(0x10000, 1 << 20, kProtRead | kProtWrite, "lazy"));
  uint64_t off = 0;
  Page* f1 = as.ResolveFrame(0x13008, &off);
  ASSERT_NE(f1, nullptr);
  EXPECT_EQ(off, 8u);
  // The frame is stable: a second resolution and a read see the same page.
  Page* f2 = as.ResolveFrame(0x13000, nullptr);
  EXPECT_EQ(f1, f2);
  EXPECT_FALSE(as.MapFixedLazy(0x100000, 4096, kProtRead, "clash"));
}

TEST(AddressSpaceTest, UnmapThenRemap) {
  AddressSpace as;
  ASSERT_TRUE(as.MapFixed(0x10000, 4096, kProtRead, false, "a"));
  as.Unmap(0x10000, 4096);
  EXPECT_TRUE(as.MapFixed(0x10000, 4096, kProtRead, false, "b"));
  EXPECT_EQ(as.FindVma(0x10000)->name, "b");
}

TEST(AddressSpaceTest, PartialUnmapSplitsVma) {
  AddressSpace as;
  ASSERT_TRUE(as.MapFixed(0x10000, 3 * 4096, kProtRead, false, "abc"));
  as.Unmap(0x11000, 4096);  // Middle page.
  EXPECT_NE(as.FindVma(0x10000), nullptr);
  EXPECT_EQ(as.FindVma(0x11000), nullptr);
  EXPECT_NE(as.FindVma(0x12000), nullptr);
  uint8_t b = 0;
  EXPECT_TRUE(as.Read(0x10000, &b, 1).ok);
  EXPECT_FALSE(as.Read(0x11000, &b, 1).ok);
  EXPECT_TRUE(as.Read(0x12000, &b, 1).ok);
}

TEST(AddressSpaceTest, FindFreeRangeAvoidsMappings) {
  AddressSpace as;
  ASSERT_TRUE(as.MapFixed(0x7f0000000000, 4096, kProtRead, false, "occ"));
  GuestAddr found = as.FindFreeRange(0x7f0000000000, 8192);
  ASSERT_NE(found, 0u);
  EXPECT_TRUE(as.MapFixed(found, 8192, kProtRead, false, "new"));
}

TEST(AddressSpaceTest, SharedFramesAliasAcrossSpaces) {
  AddressSpace a;
  AddressSpace b;
  ASSERT_TRUE(a.MapFixed(0x10000, 4096, kProtRead | kProtWrite, true, "shm"));
  std::vector<PageRef> frames = a.FramesFor(0x10000, 4096);
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_TRUE(b.MapFixedBacked(0x90000, 4096, kProtRead | kProtWrite, true, "shm", frames));
  uint32_t v = 12345;
  ASSERT_TRUE(a.Write(0x10010, &v, 4).ok);
  uint32_t r = 0;
  ASSERT_TRUE(b.Read(0x90010, &r, 4).ok);
  EXPECT_EQ(r, 12345u);
}

TEST(AddressSpaceTest, RemapGrowsInPlace) {
  AddressSpace as;
  ASSERT_TRUE(as.MapFixed(0x10000, 4096, kProtRead | kProtWrite, false, "g"));
  EXPECT_EQ(as.Remap(0x10000, 4096, 8192), 0x10000u);
  uint8_t b = 7;
  EXPECT_TRUE(as.Write(0x11000, &b, 1).ok);
}

TEST(AddressSpaceTest, RenderMapsListsRegions) {
  AddressSpace as;
  ASSERT_TRUE(as.MapFixed(0x10000, 4096, kProtRead | kProtExec, false, "libipmon"));
  std::string maps = as.RenderMaps();
  EXPECT_NE(maps.find("libipmon"), std::string::npos);
  EXPECT_NE(maps.find("r-x"), std::string::npos);
}

TEST(AddressSpaceTest, ReadCString) {
  AddressSpace as;
  ASSERT_TRUE(as.MapFixed(0x10000, 4096, kProtRead | kProtWrite, false, "s"));
  const char* msg = "hello";
  ASSERT_TRUE(as.Write(0x10000, msg, 6).ok);
  auto s = as.ReadCString(0x10000);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(*s, "hello");
}

// --- Translation cache ----------------------------------------------------------

TEST(TranslationCacheTest, UnmapInvalidatesCachedPages) {
  AddressSpace as;
  constexpr GuestAddr kBase = 0x10000;
  ASSERT_TRUE(as.MapFixed(kBase, 2 * kPageSize, kProtRead | kProtWrite, false, "old"));
  uint32_t v = 0xaaaa;
  ASSERT_TRUE(as.Write(kBase + 8, &v, 4).ok);
  uint32_t r = 0;
  ASSERT_TRUE(as.Read(kBase + 8, &r, 4).ok);  // Cached now.
  Page* old_frame = as.ResolveFrame(kBase, nullptr);
  ASSERT_NE(old_frame, nullptr);

  as.Unmap(kBase, 2 * kPageSize);
  EXPECT_FALSE(as.Read(kBase + 8, &r, 4).ok);
  EXPECT_FALSE(as.ReadUnchecked(kBase + 8, &r, 4).ok);
  EXPECT_FALSE(as.WriteUnchecked(kBase + 8, &v, 4).ok);
  EXPECT_EQ(as.ResolveFrame(kBase, nullptr), nullptr);

  // Different frames at the same VA: every accessor sees the new bytes.
  std::vector<PageRef> fresh = {NewPage(), NewPage()};
  fresh[0]->bytes[8] = 0xbb;
  fresh[1]->bytes[8] = 0xcc;
  ASSERT_TRUE(as.MapFixedBacked(kBase, 2 * kPageSize, kProtRead | kProtWrite, false, "new",
                                fresh));
  uint8_t b = 0;
  ASSERT_TRUE(as.Read(kBase + 8, &b, 1).ok);
  EXPECT_EQ(b, 0xbb);
  ASSERT_TRUE(as.ReadUnchecked(kBase + kPageSize + 8, &b, 1).ok);
  EXPECT_EQ(b, 0xcc);
  EXPECT_EQ(as.ResolveFrame(kBase, nullptr), fresh[0].get());
  b = 0xdd;
  ASSERT_TRUE(as.Write(kBase + kPageSize + 8, &b, 1).ok);
  EXPECT_EQ(fresh[1]->bytes[8], 0xdd);
}

TEST(TranslationCacheTest, AliasedSlotsKeepTheirOwnPages) {
  // More pages than any direct-mapped cache has slots, touched round-robin, so
  // pages that share a slot evict each other on every pass.
  AddressSpace as;
  constexpr GuestAddr kBase = 0x100000;
  constexpr uint64_t kPages = 600;
  ASSERT_TRUE(as.MapFixed(kBase, kPages * kPageSize, kProtRead | kProtWrite, false, "wide"));
  for (int pass = 0; pass < 3; ++pass) {
    for (uint64_t i = 0; i < kPages; ++i) {
      uint64_t v = i * 1000 + static_cast<uint64_t>(pass);
      ASSERT_TRUE(as.WriteU64(kBase + i * kPageSize + 16, v));
    }
    for (uint64_t i = 0; i < kPages; ++i) {
      EXPECT_EQ(as.ReadU64(kBase + i * kPageSize + 16),
                i * 1000 + static_cast<uint64_t>(pass));
    }
  }
}

TEST(TranslationCacheTest, ProtectIsReadThroughTheCachedEntry) {
  AddressSpace as;
  constexpr GuestAddr kBase = 0x10000;
  ASSERT_TRUE(as.MapFixed(kBase, kPageSize, kProtRead | kProtWrite, false, "p"));
  ASSERT_TRUE(as.WriteU32(kBase, 77));
  ASSERT_EQ(as.ReadU32(kBase), 77u);  // Cached now.

  ASSERT_TRUE(as.Protect(kBase, kPageSize, kProtNone));
  uint32_t r = 0;
  EXPECT_FALSE(as.Read(kBase, &r, 4).ok);
  EXPECT_FALSE(as.WriteU32(kBase, 1));
  ASSERT_TRUE(as.ReadUnchecked(kBase, &r, 4).ok);
  EXPECT_EQ(r, 77u);

  ASSERT_TRUE(as.Protect(kBase, kPageSize, kProtRead));
  EXPECT_EQ(as.ReadU32(kBase), 77u);
  EXPECT_FALSE(as.WriteU32(kBase, 1));
}

TEST(TranslationCacheTest, LazyMissesStillFaultOrMaterialize) {
  AddressSpace as;
  constexpr GuestAddr kBase = 0x10000;
  ASSERT_TRUE(as.MapFixedLazy(kBase, 16 * kPageSize, kProtRead | kProtWrite, "lazy"));
  // A read of an untouched page is a miss that reads zeroes and stays a miss.
  EXPECT_EQ(as.ReadU64(kBase + 8), 0u);
  EXPECT_EQ(as.mapped_bytes(), 0u);
  // The write materializes the page; the next read sees it.
  ASSERT_TRUE(as.WriteU64(kBase + 8, 5));
  EXPECT_EQ(as.mapped_bytes(), kPageSize);
  EXPECT_EQ(as.ReadU64(kBase + 8), 5u);
  ASSERT_TRUE(as.Protect(kBase, 16 * kPageSize, kProtRead));
  EXPECT_FALSE(as.WriteU64(kBase + kPageSize, 1));  // Untouched: faults, no frame.
  EXPECT_EQ(as.mapped_bytes(), kPageSize);
}

TEST(TranslationCacheTest, MigratedRbFaultsAtItsOldAddress) {
  SimWorld w(17);
  RemonOptions opts;
  opts.mode = MveeMode::kRemon;
  opts.replicas = 2;
  opts.level = PolicyLevel::kNonsocketRw;
  Remon mvee(&w.kernel, opts);
  mvee.Launch([](Guest& g) -> GuestTask<void> {
    int64_t fd = co_await g.Open("/tmp/tlb-migrate", kO_CREAT | kO_RDWR);
    GuestAddr buf = g.Alloc(64);
    for (int i = 0; i < 20; ++i) {
      co_await g.Write(static_cast<int>(fd), buf, 64);
    }
    co_await g.Close(static_cast<int>(fd));
  }, "tlb-migrate");
  w.Run();
  ASSERT_TRUE(mvee.finished());

  IpMon* mon = mvee.ipmon(1);
  AddressSpace& mem = mon->process()->mem();
  GuestAddr old_base = mon->rb().base();
  uint64_t first_entry = mon->rb().RankDataStart(0);
  uint64_t header = 0;
  ASSERT_TRUE(mem.ReadUnchecked(old_base + first_entry, &header, 8).ok);  // Cached.
  ASSERT_NE(header, 0u);

  GuestAddr fresh = mon->MigrateRb();
  ASSERT_NE(fresh, 0u);
  ASSERT_NE(fresh, old_base);
  uint64_t r = 0;
  EXPECT_FALSE(mem.ReadUnchecked(old_base + first_entry, &r, 8).ok);
  EXPECT_FALSE(mem.Read(old_base + first_entry, &r, 8).ok);
  ASSERT_TRUE(mem.ReadUnchecked(fresh + first_entry, &r, 8).ok);
  EXPECT_EQ(r, header);
  EXPECT_EQ(mon->rb().ReadU64(first_entry), header);
}

TEST(LayoutTest, DclWindowsAreDisjoint) {
  Rng rng(1);
  LayoutPlanner planner(&rng);
  LayoutPlan a = planner.PlanFor(0);
  LayoutPlan b = planner.PlanFor(1);
  LayoutPlan c = planner.PlanFor(2);
  // No code region of one replica may overlap any code region of another.
  auto overlaps = [](GuestAddr s1, uint64_t l1, GuestAddr s2, uint64_t l2) {
    return s1 < s2 + l2 && s2 < s1 + l1;
  };
  for (const LayoutPlan* x : {&a, &b, &c}) {
    for (const LayoutPlan* y : {&a, &b, &c}) {
      if (x == y) {
        continue;
      }
      EXPECT_FALSE(overlaps(x->code_base, x->code_size, y->code_base, y->code_size));
      EXPECT_FALSE(overlaps(x->ipmon_base, x->ipmon_size, y->ipmon_base, y->ipmon_size));
      EXPECT_FALSE(overlaps(x->code_base, x->code_size, y->ipmon_base, y->ipmon_size));
    }
  }
}

TEST(LayoutTest, AslrRandomizesBases) {
  Rng rng1(1);
  Rng rng2(2);
  LayoutPlanner p1(&rng1);
  LayoutPlanner p2(&rng2);
  EXPECT_NE(p1.PlanFor(0).heap_base, p2.PlanFor(0).heap_base);
}

TEST(LayoutTest, NoAslrIsDeterministic) {
  Rng rng1(1);
  Rng rng2(99);
  LayoutOptions opts;
  opts.aslr = false;
  LayoutPlanner p1(&rng1, opts);
  LayoutPlanner p2(&rng2, opts);
  EXPECT_EQ(p1.PlanFor(0).code_base, p2.PlanFor(0).code_base);
  EXPECT_EQ(p1.PlanFor(0).heap_base, p2.PlanFor(0).heap_base);
}

TEST(ShmTest, CreateFindAttachDetach) {
  ShmRegistry reg;
  int id = reg.Get(ShmRegistry::kIpcPrivate, 16384, true, 1);
  ASSERT_GE(id, 0);
  ShmSegment* seg = reg.Find(id);
  ASSERT_NE(seg, nullptr);
  EXPECT_EQ(seg->size, 16384u);
  EXPECT_EQ(seg->frames.size(), 4u);
  reg.OnAttach(id);
  reg.OnDetach(id);
  EXPECT_NE(reg.Find(id), nullptr);  // Not removed: no IPC_RMID yet.
}

TEST(ShmTest, RemovedSegmentDestroyedAfterLastDetach) {
  ShmRegistry reg;
  int id = reg.Get(ShmRegistry::kIpcPrivate, 4096, true, 1);
  reg.OnAttach(id);
  EXPECT_EQ(reg.Remove(id), 0);
  EXPECT_NE(reg.Find(id), nullptr);  // Still attached.
  reg.OnDetach(id);
  EXPECT_EQ(reg.Find(id), nullptr);
}

TEST(ShmTest, KeyedLookup) {
  ShmRegistry reg;
  int id1 = reg.Get(1234, 4096, true, 1);
  int id2 = reg.Get(1234, 4096, false, 2);
  EXPECT_EQ(id1, id2);
  EXPECT_LT(reg.Get(9999, 4096, false, 1), 0);  // ENOENT without create.
}

}  // namespace
}  // namespace remon
