// The IP-MON replication buffer (paper §3.2, §3.7).
//
// A System V shared-memory segment mapped at a *different, hidden* virtual address in
// every replica. The master's IP-MON appends one variable-size entry per unmonitored
// call: deep-copied arguments (for the slaves' sanity checks), a small flag word, and
// later the results. Slaves consume entries in order, each tracking only its own read
// cursor — the buffer is linear, not circular; on overflow GHUMVEE arbitrates a reset
// (all replicas synchronize, cursors return to zero). Every entry embeds its own
// condition variable (a futex word) so slaves waiting for different invocations never
// contend, and the master skips FUTEX_WAKE entirely when no slave is waiting.
//
// Multi-threaded replicas get one sub-buffer per thread rank: "each replica thread
// only reads and writes its own RB position".
//
// All accesses go through the owning process's mapping (AddressSpace), so the RB
// content truly lives in shared frames — an attacker replica that somehow learned the
// address could tamper with it, which is exactly the threat model the security tests
// probe.

#ifndef SRC_CORE_REPLICATION_BUFFER_H_
#define SRC_CORE_REPLICATION_BUFFER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/kernel/process.h"
#include "src/kernel/sysno.h"
#include "src/mem/page.h"

namespace remon {

// System V keys at or above this base are reserved for ReMon infrastructure (the RB
// and the sync-agent log); GHUMVEE's shared-memory policing admits them and denies
// application requests for writable inter-replica channels (paper §2.1).
inline constexpr int kRemonShmKeyBase = 0x5245'0000;
inline constexpr int kRbShmKey = kRemonShmKeyBase + 1;
inline constexpr int kSyncShmKey = kRemonShmKeyBase + 2;

// Entry states.
inline constexpr uint32_t kRbEmpty = 0;
inline constexpr uint32_t kRbArgsReady = 1;    // PRECALL data committed by the master.
inline constexpr uint32_t kRbResultsReady = 2;  // POSTCALL data committed.

// Entry flags.
inline constexpr uint32_t kRbFlagMasterCall = 1u << 0;   // Only the master executes.
inline constexpr uint32_t kRbFlagMaybeBlocking = 1u << 1;  // Slaves should futex-wait.
inline constexpr uint32_t kRbFlagForwarded = 1u << 2;    // Master forwarded to GHUMVEE.

// Fixed header of each entry (bytes; see replication_buffer.cc for field offsets).
inline constexpr uint64_t kRbEntryHeaderSize = 64;
// Global RB header: signals_pending flag + generation counter.
inline constexpr uint64_t kRbGlobalHeaderSize = 64;
// Per-rank sub-buffer header: the master's write cursor.
inline constexpr uint64_t kRbRankHeaderSize = 64;

// One replica's view of the shared buffer.
class RbView {
 public:
  RbView() = default;
  RbView(Process* process, GuestAddr base, uint64_t size, int max_ranks)
      : process_(process), base_(base), size_(size), max_ranks_(max_ranks) {}

  bool valid() const { return process_ != nullptr; }
  Process* process() const { return process_; }
  GuestAddr base() const { return base_; }
  uint64_t size() const { return size_; }
  int max_ranks() const { return max_ranks_; }

  // --- Layout -----------------------------------------------------------------

  uint64_t SubBufferSize() const {
    return (size_ - kRbGlobalHeaderSize) / static_cast<uint64_t>(max_ranks_);
  }
  // Offset (from base) of rank r's sub-buffer.
  uint64_t RankStart(int rank) const {
    return kRbGlobalHeaderSize + static_cast<uint64_t>(rank) * SubBufferSize();
  }
  // Offset of the first entry slot in rank r's sub-buffer.
  uint64_t RankDataStart(int rank) const { return RankStart(rank) + kRbRankHeaderSize; }
  uint64_t RankDataEnd(int rank) const { return RankStart(rank) + SubBufferSize(); }

  // --- Global header ---------------------------------------------------------------

  void SetSignalsPending(bool pending);
  bool SignalsPending() const;

  // --- Raw access (through the replica's page mappings) ---------------------------

  uint32_t ReadU32(uint64_t offset) const;
  uint64_t ReadU64(uint64_t offset) const;
  void WriteU32(uint64_t offset, uint32_t v);
  void WriteU64(uint64_t offset, uint64_t v);
  void WriteBytes(uint64_t offset, const void* data, uint64_t len);
  void ReadBytes(uint64_t offset, void* out, uint64_t len) const;
  void Zero(uint64_t offset, uint64_t len);

  // Guest virtual address of a given offset (for futex waits on entry words).
  GuestAddr AddrOf(uint64_t offset) const { return base_ + offset; }

 private:
  Process* process_ = nullptr;
  GuestAddr base_ = 0;
  uint64_t size_ = 0;
  int max_ranks_ = 1;
};

// Decoded entry header.
struct RbEntryHeader {
  uint32_t state = kRbEmpty;
  uint32_t waiters = 0;
  uint32_t sysno = 0;
  uint32_t flags = 0;
  uint64_t total_size = 0;
  uint64_t seq = 0;
  int64_t result = 0;
  uint64_t sig_len = 0;
  uint64_t out_len = 0;
};

// Entry field offsets (relative to the entry start).
inline constexpr uint64_t kRbOffState = 0;
inline constexpr uint64_t kRbOffWaiters = 4;
inline constexpr uint64_t kRbOffSysno = 8;
inline constexpr uint64_t kRbOffFlags = 12;
inline constexpr uint64_t kRbOffTotalSize = 16;
inline constexpr uint64_t kRbOffSeq = 24;
inline constexpr uint64_t kRbOffResult = 32;
inline constexpr uint64_t kRbOffSigLen = 40;
inline constexpr uint64_t kRbOffOutLen = 48;

// Entry-level operations used by IP-MON's handlers.
class RbEntryOps {
 public:
  // Total entry footprint for a signature of `sig_len` bytes and result payload
  // capacity `out_capacity`.
  static uint64_t EntrySize(uint64_t sig_len, uint64_t out_capacity) {
    uint64_t raw = kRbEntryHeaderSize + sig_len + out_capacity;
    return (raw + 7) & ~uint64_t{7};
  }

  static RbEntryHeader ReadHeader(const RbView& view, uint64_t entry_off);

  // Master: commits argument data and flips state to kRbArgsReady (PRECALL).
  static void CommitArgs(RbView& view, uint64_t entry_off, Sys nr, uint32_t flags,
                         uint64_t seq, uint64_t total_size,
                         const std::vector<uint8_t>& signature);

  // Master: appends result payload (concatenated out-regions) and flips state to
  // kRbResultsReady. Returns the number of slave waiters present before the flip
  // (0 -> the FUTEX_WAKE can be elided, §3.7).
  static uint32_t CommitResults(RbView& view, uint64_t entry_off, int64_t result,
                                const std::vector<uint8_t>& payload);

  // Slave: reads the master's recorded signature.
  static std::vector<uint8_t> ReadSignature(const RbView& view, uint64_t entry_off);
  // Slave: reads the result payload.
  static std::vector<uint8_t> ReadPayload(const RbView& view, uint64_t entry_off);

  // Slave: registers itself as waiting on this entry's condition variable.
  static void AddWaiter(RbView& view, uint64_t entry_off);
  static void RemoveWaiter(RbView& view, uint64_t entry_off);
};

}  // namespace remon

#endif  // SRC_CORE_REPLICATION_BUFFER_H_
