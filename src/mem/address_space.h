// Per-process virtual address space: page table + VMA list.
//
// Responsibilities:
//  * mapping/unmapping/protecting regions (mmap/munmap/mprotect/brk semantics),
//  * permission-checked reads and writes used by guests, the kernel, and the monitors,
//  * /proc/<pid>/maps rendering (GHUMVEE filters this to hide IP-MON and the RB),
//  * exposing backing frames so futex keys and shared mappings work across processes.

#ifndef SRC_MEM_ADDRESS_SPACE_H_
#define SRC_MEM_ADDRESS_SPACE_H_

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/mem/page.h"

namespace remon {

// A mapped region.
struct Vma {
  GuestAddr start = 0;
  uint64_t length = 0;  // Always page-aligned.
  uint32_t prot = kProtNone;
  bool shared = false;  // MAP_SHARED-like: writes are visible through other mappings.
  std::string name;     // Region label, shown in /proc/maps ("[heap]", "libipmon", ...).
  // Demand-paged region: backing frames materialize on first touch instead of at
  // map time. Large private regions (heap, stacks, text) use this so creating a
  // replica process costs VMA bookkeeping, not tens of MiB of zeroed frames.
  bool lazy = false;

  GuestAddr end() const { return start + length; }
};

// Result of a guest memory access attempt.
struct AccessResult {
  bool ok = true;
  GuestAddr fault_addr = 0;  // First faulting address when !ok.

  static AccessResult Ok() { return {true, 0}; }
  static AccessResult Fault(GuestAddr a) { return {false, a}; }
};

class AddressSpace {
 public:
  AddressSpace() = default;
  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  // --- Mapping operations -----------------------------------------------------

  // Maps `length` bytes (rounded up to pages) at exactly `start` (page-aligned).
  // Fails (returns false) if any page in the range is already mapped.
  bool MapFixed(GuestAddr start, uint64_t length, uint32_t prot, bool shared,
                std::string_view name);

  // Like MapFixed, but demand-paged: no frames are allocated until a page is first
  // touched (read/write/frame resolution). Private mappings only — a shared lazy
  // region would give each process its own frames on touch.
  bool MapFixedLazy(GuestAddr start, uint64_t length, uint32_t prot,
                    std::string_view name);

  // Maps with existing backing frames (shared memory attach). `frames` must cover the
  // rounded-up length.
  bool MapFixedBacked(GuestAddr start, uint64_t length, uint32_t prot, bool shared,
                      std::string_view name, const std::vector<PageRef>& frames);

  // Finds a free gap of `length` bytes at or below `hint`, searching downward.
  // Returns 0 when no gap exists.
  GuestAddr FindFreeRange(GuestAddr hint, uint64_t length) const;

  // Unmaps [start, start+length). Unmapping unmapped pages is a no-op (POSIX).
  void Unmap(GuestAddr start, uint64_t length);

  // Changes protection on [start, start+length). Returns false if any page in the
  // range is unmapped.
  bool Protect(GuestAddr start, uint64_t length, uint32_t prot);

  // Remaps a region to a new size in place when possible; returns new start or 0.
  GuestAddr Remap(GuestAddr old_start, uint64_t old_len, uint64_t new_len);

  // --- Access -------------------------------------------------------------------

  AccessResult Read(GuestAddr addr, void* out, uint64_t len) const;
  AccessResult Write(GuestAddr addr, const void* data, uint64_t len);

  // Access that ignores page protections (used by ptrace-style monitor access, which
  // goes through the kernel and may inspect read-protected pages).
  AccessResult ReadUnchecked(GuestAddr addr, void* out, uint64_t len) const;
  AccessResult WriteUnchecked(GuestAddr addr, const void* data, uint64_t len);

  // Typed helpers.
  std::optional<uint64_t> ReadU64(GuestAddr addr) const;
  std::optional<uint32_t> ReadU32(GuestAddr addr) const;
  bool WriteU64(GuestAddr addr, uint64_t v);
  bool WriteU32(GuestAddr addr, uint32_t v);
  // Reads a NUL-terminated string of at most `max_len` bytes.
  std::optional<std::string> ReadCString(GuestAddr addr, uint64_t max_len = 4096) const;
  bool WriteBytes(GuestAddr addr, std::span<const uint8_t> data) {
    return Write(addr, data.data(), data.size()).ok;
  }
  std::optional<std::vector<uint8_t>> ReadBytes(GuestAddr addr, uint64_t len) const;

  // --- Introspection --------------------------------------------------------------

  // Returns the VMA containing `addr`, if any.
  const Vma* FindVma(GuestAddr addr) const;
  // Returns the first VMA whose name is `name`, if any.
  const Vma* FindVmaByName(std::string_view name) const;
  // All VMAs in address order.
  std::vector<Vma> Vmas() const;

  // True when the page containing `addr` has a backing frame. Unlike ResolveFrame,
  // this never materializes a lazy page — snapshot capture uses it to record lazy
  // holes as holes instead of forcing the whole region resident.
  bool PageMaterialized(GuestAddr addr) const;

  // Resolves an address to its backing frame; nullptr when unmapped. Used for futex
  // keys (shared frames give shared keys) and zero-copy page sharing.
  Page* ResolveFrame(GuestAddr addr, uint64_t* offset_in_page) const;
  // Returns backing frames of a mapped range (for shmat-style aliasing).
  std::vector<PageRef> FramesFor(GuestAddr start, uint64_t length) const;

  // Renders /proc/<pid>/maps content.
  std::string RenderMaps() const;

  // Total mapped bytes.
  uint64_t mapped_bytes() const;

 private:
  struct PageEntry {
    PageRef frame;
    uint32_t prot = kProtNone;
  };

  // Direct-mapped translation cache in front of page_table_. It holds hits only:
  // unordered_map nodes never move on insert or rehash, and page_table_ erases
  // only in Unmap, which clears the cache. Protect edits `prot` in place, so it is
  // read live through the pointer. A miss falls through to page_table_ and the
  // lazy-VMA path, which therefore fault or materialize exactly as without it.
  static constexpr size_t kTlbSlots = 64;
  struct TlbSlot {
    uint64_t vpn = ~uint64_t{0};  // No guest page has this VPN.
    PageEntry* entry = nullptr;
  };
  PageEntry* Lookup(uint64_t vpn) const;

  bool RangeFree(GuestAddr start, uint64_t length) const;

  // Shared validation prologue of the MapFixed* entry points: page-aligned start,
  // non-empty, inside the user range, and free. On success *len_out holds the
  // page-rounded length.
  bool ValidateFixedRange(GuestAddr start, uint64_t length, uint64_t* len_out) const;

  // True when [start, start+length) intersects any VMA (materialized or lazy).
  bool VmaOverlaps(GuestAddr start, uint64_t length) const;

  // Allocates the backing frame for an untouched page of a lazy VMA. Returns null
  // if the address has no lazy VMA or the VMA lacks `required_prot` (0 = any).
  // Const because demand paging is transparent to callers (page_table_ is the
  // cache it fills).
  Page* MaterializeIfLazy(GuestAddr addr, uint32_t required_prot = 0) const;

  // Splits VMAs so that `start` and `start+length` fall on VMA boundaries.
  void SplitAround(GuestAddr start, uint64_t length);

  std::map<GuestAddr, Vma> vmas_;  // Keyed by start address.
  // Keyed by VPN. Mutable: lazy VMAs materialize frames inside const accessors.
  mutable std::unordered_map<uint64_t, PageEntry> page_table_;
  mutable std::array<TlbSlot, kTlbSlots> tlb_{};
};

}  // namespace remon

#endif  // SRC_MEM_ADDRESS_SPACE_H_
