#include "src/core/snapshot.h"

#include <algorithm>
#include <cstring>

#include "src/core/ghumvee.h"
#include "src/core/ipmon.h"
#include "src/core/rb_wire.h"
#include "src/core/replication_buffer.h"
#include "src/core/sync_agent.h"
#include "src/kernel/kernel.h"
#include "src/sim/check.h"

namespace remon {

namespace {

// Serialization bounds: a snapshot whose metadata claims more than these is
// rejected before any allocation happens (the frame CRC already passed, so this
// guards against a buggy or hostile leader, not line noise).
constexpr uint64_t kMaxSnapshotRbSize = 1ULL << 30;
constexpr uint32_t kMaxSnapshotRanks = 4096;

// kSnapshotDelta payload header (fixed 104 bytes since wire v5, the only
// checkpoint opener since v6). The variable sections that follow: rank records
// (cursor, seq, delta_from — 24 bytes each), shipped file-map pages (u32 page
// index + one page of bytes each), and the sync-log slice [sync_from, sync_tail)
// in seq order.
constexpr size_t kDeltaOffRbSize = 0;
constexpr size_t kDeltaOffMaxRanks = 8;
constexpr size_t kDeltaOffRankCount = 12;
constexpr size_t kDeltaOffImageBytes = 16;
constexpr size_t kDeltaOffImageCrc = 24;
constexpr size_t kDeltaOffChunkCount = 28;
constexpr size_t kDeltaOffLockstep = 32;
constexpr size_t kDeltaOffResetGen = 40;
constexpr size_t kDeltaOffFmPageCount = 48;
constexpr size_t kDeltaOffFmDirtyCount = 52;
constexpr size_t kDeltaOffFmCrc = 56;
constexpr size_t kDeltaOffReserved = 60;  // Zero (the v5-v6 epoll row count).
constexpr size_t kDeltaOffSyncLogSize = 64;
constexpr size_t kDeltaOffSyncTail = 72;
constexpr size_t kDeltaOffSyncCursor = 80;
constexpr size_t kDeltaOffSyncFrom = 88;
constexpr size_t kDeltaOffSyncImageLen = 96;
constexpr size_t kDeltaHeaderSize = 104;
constexpr size_t kDeltaRankRecordSize = 24;
constexpr size_t kDeltaFmPageRecordSize = 4 + kPageSize;
// FileMap::Configure/Grow cap the map at 1024 pages; a checkpoint claiming more is
// corrupt regardless of the replica's own geometry.
constexpr uint32_t kMaxSnapshotFileMapPages = 1024;

// kSnapshotChunk payload header.
constexpr size_t kChunkOffOffset = 0;
constexpr size_t kChunkOffLen = 8;
constexpr size_t kChunkOffReserved = 12;
constexpr size_t kChunkHeaderSize = 16;

// kSnapshotEnd payload.
constexpr size_t kEndOffImageBytes = 0;
constexpr size_t kEndOffImageCrc = 8;
constexpr size_t kEndOffChunkCount = 12;
constexpr size_t kEndSize = 16;

void PutU32(std::vector<uint8_t>* out, size_t off, uint32_t v) {
  std::memcpy(out->data() + off, &v, 4);
}
void PutU64(std::vector<uint8_t>* out, size_t off, uint64_t v) {
  std::memcpy(out->data() + off, &v, 8);
}
uint32_t GetU32(const std::vector<uint8_t>& in, size_t off) {
  uint32_t v = 0;
  std::memcpy(&v, in.data() + off, 4);
  return v;
}
uint64_t GetU64(const std::vector<uint8_t>& in, size_t off) {
  uint64_t v = 0;
  std::memcpy(&v, in.data() + off, 8);
  return v;
}

uint32_t ImageU32(const std::vector<uint8_t>& image, uint64_t off) {
  uint32_t v = 0;
  std::memcpy(&v, image.data() + off, 4);
  return v;
}
uint64_t ImageU64(const std::vector<uint8_t>& image, uint64_t off) {
  uint64_t v = 0;
  std::memcpy(&v, image.data() + off, 8);
  return v;
}

bool PageIsZero(const uint8_t* p) {
  for (uint64_t i = 0; i < kPageSize; ++i) {
    if (p[i] != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

// --- Sparse materialized-page images ----------------------------------------------

VmaImage CaptureVmaImage(const AddressSpace& mem, GuestAddr start, uint64_t length,
                         const std::vector<bool>& pick) {
  VmaImage image;
  image.length = PageAlignUp(length);
  uint8_t page[kPageSize];
  for (uint64_t off = 0; off < image.length; off += kPageSize) {
    if (!pick.empty() && !pick[off / kPageSize]) {
      continue;
    }
    // The materialization probe comes first: capture must record lazy holes as
    // holes, never force a terabyte region resident by reading it.
    if (!mem.PageMaterialized(start + off) ||
        !mem.ReadUnchecked(start + off, page, kPageSize).ok) {
      continue;
    }
    if (PageIsZero(page)) {
      continue;  // All-zero pages are indistinguishable from holes on restore.
    }
    if (!image.runs.empty()) {
      PageRun& last = image.runs.back();
      if (last.offset + last.bytes.size() == off) {
        last.bytes.insert(last.bytes.end(), page, page + kPageSize);
        continue;
      }
    }
    image.runs.push_back(PageRun{off, std::vector<uint8_t>(page, page + kPageSize)});
  }
  return image;
}

bool RestoreVmaImage(AddressSpace* mem, GuestAddr start, const VmaImage& image) {
  for (const PageRun& run : image.runs) {
    if (run.offset + run.bytes.size() > image.length ||
        !mem->WriteUnchecked(start + run.offset, run.bytes.data(), run.bytes.size()).ok) {
      return false;
    }
  }
  return true;
}

// --- The leader checkpoint ---------------------------------------------------------

ReplicaSnapshot CaptureLeaderSnapshot(IpMon* master, const Ghumvee* ghumvee,
                                      const SyncAgent* sync_master,
                                      uint64_t sync_read_cursor,
                                      const RbDeltaBasis& basis) {
  REMON_CHECK(master != nullptr && master->is_master());
  REMON_CHECK_MSG(master->rb().valid(), "cannot checkpoint before IP-MON initialized");
  // A basis from a different reset generation would make every offset in it
  // meaningless; the caller cuts against the empty basis instead.
  REMON_CHECK_MSG(!basis.valid || basis.reset_generation == master->rb_resets(),
                  "checkpoint basis from a stale RB reset generation");
  const RbView& rb = master->rb();
  ReplicaSnapshot snap;
  snap.rb_size = rb.size();
  snap.max_ranks = rb.max_ranks();
  snap.reset_generation = master->rb_resets();
  // The image covers only the pages the apply reads: the global header, each
  // rank's header, and each rank's [from, cursor) entry window.
  std::vector<bool> pick(PageAlignUp(rb.size()) / kPageSize, false);
  auto mark = [&pick](uint64_t lo, uint64_t hi) {  // Byte range [lo, hi).
    for (uint64_t p = (lo & ~kPageMask) / kPageSize;
         p < pick.size() && p * kPageSize < hi; ++p) {
      pick[p] = true;
    }
  };
  mark(0, kRbGlobalHeaderSize);
  for (int r = 0; r < snap.max_ranks; ++r) {
    size_t i = static_cast<size_t>(r);
    uint64_t cursor = master->rb_cursor(r);
    snap.cursors.push_back(cursor);
    snap.seqs.push_back(master->rb_seq(r));
    // Resume at the replacement's highest acked entry (one entry of idempotent
    // overlap); the empty basis, or an implausible horizon, resumes at the rank
    // data start.
    uint64_t from = basis.valid && i < basis.from_off.size() ? basis.from_off[i] : 0;
    if (from < rb.RankDataStart(r) || from > cursor) {
      from = rb.RankDataStart(r);
    }
    snap.delta_from.push_back(from);
    mark(rb.RankStart(r), rb.RankStart(r) + kRbRankHeaderSize);
    mark(from, cursor);
  }
  snap.rb_image = CaptureVmaImage(master->process()->mem(), rb.base(), rb.size(), pick);
  snap.lockstep_cursor = ghumvee != nullptr ? ghumvee->lockstep_rounds() : 0;

  // File map: the pages written past the basis (every page for the empty basis),
  // plus a whole-map CRC so the pages the checkpoint does NOT carry are still
  // covered by the join's divergence check.
  const FileMap* fm = master->file_map();
  snap.file_map_page_count = static_cast<uint32_t>(fm->pages().size());
  uint32_t fm_crc = 0;
  for (const PageRef& fm_page : fm->pages()) {
    fm_crc = Crc32(fm_page->bytes.data(), kPageSize, fm_crc);
  }
  snap.file_map_crc = fm_crc;
  for (size_t p = 0; p < fm->pages().size(); ++p) {
    if (!basis.valid || fm->page_version(p) > basis.fm_version) {
      snap.file_map_pages.push_back(static_cast<uint32_t>(p));
      snap.file_map.insert(snap.file_map.end(), fm->pages()[p]->bytes.begin(),
                           fm->pages()[p]->bytes.end());
    }
  }

  if (sync_master != nullptr && sync_master->log_valid()) {
    snap.sync_log_size = sync_master->config().log_size;
    snap.sync_tail = sync_master->tail();
    snap.sync_read_cursor = sync_read_cursor;
    // A valid basis resumes at the replica's cursor; the empty basis ships the
    // whole occupied lap.
    snap.sync_from =
        basis.valid ? sync_read_cursor
                    : snap.sync_tail - std::min(snap.sync_tail, sync_master->capacity());
    // The cursor is the replacement's JOIN claim, checked against the lap before
    // the capture; the wrap gate (SyncAgent::MinPeerReadCursor) freezes a dead
    // replica's acked cursor, so the leader never overwrote a slot the replica
    // has yet to replay.
    REMON_CHECK_MSG(sync_master->CursorInLap(sync_read_cursor),
                    "checkpoint after the sync log wrapped past the replica cursor");
    snap.sync_image = sync_master->CaptureLogDelta(snap.sync_from);
  }
  return snap;
}

// --- Wire payloads -----------------------------------------------------------------

SnapshotPayloads SerializeSnapshot(const ReplicaSnapshot& snap) {
  SnapshotPayloads out;

  // Chunks first: the opener carries their count and chained CRC.
  uint32_t crc = 0;
  for (const PageRun& run : snap.rb_image.runs) {
    for (uint64_t pos = 0; pos < run.bytes.size(); pos += kSnapshotChunkBytes) {
      uint64_t len = std::min<uint64_t>(kSnapshotChunkBytes, run.bytes.size() - pos);
      std::vector<uint8_t> chunk(kChunkHeaderSize + len, 0);
      PutU64(&chunk, kChunkOffOffset, run.offset + pos);
      PutU32(&chunk, kChunkOffLen, static_cast<uint32_t>(len));
      std::memcpy(chunk.data() + kChunkHeaderSize, run.bytes.data() + pos, len);
      crc = Crc32(chunk.data(), chunk.size(), crc);
      out.chunks.push_back(std::move(chunk));
    }
  }
  uint64_t image_bytes = snap.rb_image.run_bytes();
  uint32_t chunk_count = static_cast<uint32_t>(out.chunks.size());
  size_t rank_count = snap.cursors.size();
  size_t fm_shipped = snap.file_map.size() / kPageSize;
  REMON_CHECK_MSG(snap.file_map.size() == fm_shipped * kPageSize &&
                      (snap.file_map_pages.empty() ||
                       snap.file_map_pages.size() == fm_shipped),
                  "file-map section is not whole indexed pages");
  uint32_t fm_page_count =
      std::max(snap.file_map_page_count, static_cast<uint32_t>(fm_shipped));

  out.begin.assign(kDeltaHeaderSize + rank_count * kDeltaRankRecordSize +
                       fm_shipped * kDeltaFmPageRecordSize + snap.sync_image.size(),
                   0);
  PutU64(&out.begin, kDeltaOffRbSize, snap.rb_size);
  PutU32(&out.begin, kDeltaOffMaxRanks, static_cast<uint32_t>(snap.max_ranks));
  PutU32(&out.begin, kDeltaOffRankCount, static_cast<uint32_t>(rank_count));
  PutU64(&out.begin, kDeltaOffImageBytes, image_bytes);
  PutU32(&out.begin, kDeltaOffImageCrc, crc);
  PutU32(&out.begin, kDeltaOffChunkCount, chunk_count);
  PutU64(&out.begin, kDeltaOffLockstep, snap.lockstep_cursor);
  PutU64(&out.begin, kDeltaOffResetGen, snap.reset_generation);
  PutU32(&out.begin, kDeltaOffFmPageCount, fm_page_count);
  PutU32(&out.begin, kDeltaOffFmDirtyCount, static_cast<uint32_t>(fm_shipped));
  PutU32(&out.begin, kDeltaOffFmCrc, snap.file_map_crc);
  PutU64(&out.begin, kDeltaOffSyncLogSize, snap.sync_log_size);
  PutU64(&out.begin, kDeltaOffSyncTail, snap.sync_tail);
  PutU64(&out.begin, kDeltaOffSyncCursor, snap.sync_read_cursor);
  PutU64(&out.begin, kDeltaOffSyncFrom, snap.sync_from);
  PutU64(&out.begin, kDeltaOffSyncImageLen, snap.sync_image.size());
  size_t pos = kDeltaHeaderSize;
  for (size_t r = 0; r < rank_count; ++r) {
    PutU64(&out.begin, pos, snap.cursors[r]);
    PutU64(&out.begin, pos + 8, snap.seqs[r]);
    PutU64(&out.begin, pos + 16, r < snap.delta_from.size() ? snap.delta_from[r] : 0);
    pos += kDeltaRankRecordSize;
  }
  for (size_t i = 0; i < fm_shipped; ++i) {
    PutU32(&out.begin, pos,
           snap.file_map_pages.empty() ? static_cast<uint32_t>(i)
                                       : snap.file_map_pages[i]);
    std::memcpy(out.begin.data() + pos + 4, snap.file_map.data() + i * kPageSize,
                kPageSize);
    pos += kDeltaFmPageRecordSize;
  }
  if (!snap.sync_image.empty()) {
    std::memcpy(out.begin.data() + pos, snap.sync_image.data(), snap.sync_image.size());
  }

  out.end.assign(kEndSize, 0);
  PutU64(&out.end, kEndOffImageBytes, image_bytes);
  PutU32(&out.end, kEndOffImageCrc, crc);
  PutU32(&out.end, kEndOffChunkCount, chunk_count);
  return out;
}

bool SnapshotAssembler::Fail(const char* why) {
  state_ = State::kFailed;
  error_ = why;
  return false;
}

void SnapshotAssembler::Reset() {
  state_ = State::kIdle;
  error_.clear();
  snap_ = ReplicaSnapshot{};
  image_.clear();
  expect_chunks_ = expect_bytes_ = chunks_applied_ = bytes_applied_ = 0;
  expect_crc_ = running_crc_ = 0;
}

bool SnapshotAssembler::Begin(const std::vector<uint8_t>& payload) {
  if (state_ != State::kIdle) {
    return Fail("snapshot begin out of protocol");
  }
  if (payload.size() < kDeltaHeaderSize) {
    return Fail("snapshot begin payload truncated");
  }
  uint64_t rb_size = GetU64(payload, kDeltaOffRbSize);
  uint32_t max_ranks = GetU32(payload, kDeltaOffMaxRanks);
  uint32_t rank_count = GetU32(payload, kDeltaOffRankCount);
  uint32_t fm_page_count = GetU32(payload, kDeltaOffFmPageCount);
  uint32_t fm_dirty_count = GetU32(payload, kDeltaOffFmDirtyCount);
  if (rb_size == 0 || rb_size > kMaxSnapshotRbSize || (rb_size & kPageMask) != 0 ||
      max_ranks == 0 || max_ranks > kMaxSnapshotRanks || rank_count != max_ranks ||
      fm_page_count == 0 || fm_page_count > kMaxSnapshotFileMapPages ||
      fm_dirty_count > fm_page_count) {
    return Fail("snapshot begin metadata out of bounds");
  }
  if (GetU32(payload, kDeltaOffReserved) != 0) {
    return Fail("snapshot begin reserved field not zero");
  }
  uint64_t sync_log_size = GetU64(payload, kDeltaOffSyncLogSize);
  uint64_t sync_tail = GetU64(payload, kDeltaOffSyncTail);
  uint64_t sync_cursor = GetU64(payload, kDeltaOffSyncCursor);
  uint64_t sync_from = GetU64(payload, kDeltaOffSyncFrom);
  uint64_t sync_image_len = GetU64(payload, kDeltaOffSyncImageLen);
  if (sync_log_size == 0) {
    // No sync section: every sync field must be zero (an image without a log to
    // describe it is structurally corrupt).
    if (sync_tail != 0 || sync_cursor != 0 || sync_from != 0 || sync_image_len != 0) {
      return Fail("snapshot sync section inconsistent with zero log size");
    }
  } else {
    if (sync_log_size <= kSyncLogOffEntries || sync_log_size > kMaxSnapshotRbSize) {
      return Fail("snapshot sync log size out of bounds");
    }
    uint64_t cap = (sync_log_size - kSyncLogOffEntries) / kSyncLogEntrySize;
    if (cap == 0 || sync_from > sync_cursor || sync_cursor > sync_tail) {
      return Fail("snapshot sync section out of bounds");
    }
    // The lap guard: a slice longer than the log means the leader wrapped past
    // the replica's cursor after cutting the basis — the slots below the slice
    // are gone and the join must be refused.
    if (sync_tail - sync_from > cap) {
      return Fail("snapshot sync slice wrapped past the replica cursor");
    }
    if (sync_image_len != (sync_tail - sync_from) * kSyncLogEntrySize) {
      return Fail("snapshot sync section out of bounds");
    }
  }
  uint64_t variable = static_cast<uint64_t>(rank_count) * kDeltaRankRecordSize +
                      static_cast<uint64_t>(fm_dirty_count) * kDeltaFmPageRecordSize +
                      sync_image_len;
  if (payload.size() != kDeltaHeaderSize + variable) {
    return Fail("snapshot begin payload size mismatch");
  }

  snap_.rb_size = rb_size;
  snap_.max_ranks = static_cast<int>(max_ranks);
  snap_.lockstep_cursor = GetU64(payload, kDeltaOffLockstep);
  snap_.reset_generation = GetU64(payload, kDeltaOffResetGen);
  snap_.file_map_page_count = fm_page_count;
  snap_.file_map_crc = GetU32(payload, kDeltaOffFmCrc);
  snap_.sync_log_size = sync_log_size;
  snap_.sync_tail = sync_tail;
  snap_.sync_read_cursor = sync_cursor;
  snap_.sync_from = sync_from;
  expect_bytes_ = GetU64(payload, kDeltaOffImageBytes);
  expect_crc_ = GetU32(payload, kDeltaOffImageCrc);
  expect_chunks_ = GetU32(payload, kDeltaOffChunkCount);
  if (expect_bytes_ > rb_size) {
    return Fail("snapshot image larger than the RB it describes");
  }
  size_t pos = kDeltaHeaderSize;
  for (uint32_t r = 0; r < rank_count; ++r) {
    snap_.cursors.push_back(GetU64(payload, pos));
    snap_.seqs.push_back(GetU64(payload, pos + 8));
    snap_.delta_from.push_back(GetU64(payload, pos + 16));
    pos += kDeltaRankRecordSize;
  }
  for (uint32_t i = 0; i < fm_dirty_count; ++i) {
    uint32_t page_idx = GetU32(payload, pos);
    // Strictly increasing indices inside the map: deterministic wire bytes and
    // no double-written page under a valid CRC.
    if (page_idx >= fm_page_count ||
        (!snap_.file_map_pages.empty() && page_idx <= snap_.file_map_pages.back())) {
      return Fail("snapshot file-map page index out of order");
    }
    snap_.file_map_pages.push_back(page_idx);
    snap_.file_map.insert(snap_.file_map.end(),
                          payload.begin() + static_cast<long>(pos + 4),
                          payload.begin() + static_cast<long>(pos + 4 + kPageSize));
    pos += kDeltaFmPageRecordSize;
  }
  snap_.sync_image.assign(payload.begin() + static_cast<long>(pos),
                          payload.begin() + static_cast<long>(pos + sync_image_len));
  image_.assign(rb_size, 0);
  state_ = State::kAssembling;
  return true;
}

bool SnapshotAssembler::AddChunk(const std::vector<uint8_t>& payload) {
  if (state_ != State::kAssembling) {
    return Fail("snapshot chunk out of protocol");
  }
  if (payload.size() < kChunkHeaderSize) {
    return Fail("snapshot chunk payload truncated");
  }
  uint64_t offset = GetU64(payload, kChunkOffOffset);
  uint32_t len = GetU32(payload, kChunkOffLen);
  if (len != payload.size() - kChunkHeaderSize || len == 0 ||
      len > kSnapshotChunkBytes || offset > image_.size() ||
      len > image_.size() - offset || GetU32(payload, kChunkOffReserved) != 0) {
    return Fail("snapshot chunk out of bounds");
  }
  if (chunks_applied_ >= expect_chunks_) {
    return Fail("more snapshot chunks than announced");
  }
  running_crc_ = Crc32(payload.data(), payload.size(), running_crc_);
  std::memcpy(image_.data() + offset, payload.data() + kChunkHeaderSize, len);
  ++chunks_applied_;
  bytes_applied_ += len;
  return true;
}

bool SnapshotAssembler::End(const std::vector<uint8_t>& payload) {
  if (state_ != State::kAssembling) {
    return Fail("snapshot end out of protocol");
  }
  if (payload.size() != kEndSize) {
    return Fail("snapshot end payload malformed");
  }
  if (GetU64(payload, kEndOffImageBytes) != expect_bytes_ ||
      GetU32(payload, kEndOffChunkCount) != expect_chunks_ ||
      GetU32(payload, kEndOffImageCrc) != expect_crc_) {
    return Fail("snapshot end disagrees with begin");
  }
  if (chunks_applied_ != expect_chunks_ || bytes_applied_ != expect_bytes_) {
    return Fail("snapshot truncated: chunk or byte count short of announced");
  }
  if (running_crc_ != expect_crc_) {
    return Fail("snapshot image CRC mismatch");
  }
  state_ = State::kComplete;
  return true;
}

// --- Mirror restoration ------------------------------------------------------------

namespace {

void WakeEntryQueue(Kernel* kernel, IpMon* mon, const RbView& rb, uint64_t entry_off) {
  kernel->WakeWord(mon->process(), rb.AddrOf(entry_off + kRbOffState));
}

SnapshotApplyResult ApplyFail(const char* why) {
  SnapshotApplyResult r;
  r.ok = false;
  r.error = why;
  return r;
}

}  // namespace

SnapshotApplyResult ApplySnapshotToMirror(Kernel* kernel, IpMon* mon,
                                          SyncAgent* sync_agent,
                                          const ReplicaSnapshot& snap,
                                          const std::vector<uint8_t>& image) {
  RbView rb = mon->rb();
  if (!rb.valid()) {
    return ApplyFail("replica RB mirror not initialized");
  }
  if (snap.rb_size != rb.size() || snap.max_ranks != rb.max_ranks() ||
      image.size() != rb.size() ||
      snap.cursors.size() != static_cast<size_t>(snap.max_ranks) ||
      snap.delta_from.size() != static_cast<size_t>(snap.max_ranks)) {
    return ApplyFail("snapshot geometry does not match the replica RB");
  }
  // Lap guard: every offset in the checkpoint is relative to one RB reset
  // generation. A mirror from another generation was scrubbed by rounds a
  // non-empty basis knows nothing about, so only a checkpoint that resumes every
  // rank at its data start — the empty basis — can rebuild it (and re-zeroes the
  // stale tail below).
  bool same_generation = snap.reset_generation == mon->rb_resets();
  for (int r = 0; r < snap.max_ranks && !same_generation; ++r) {
    uint64_t df = snap.delta_from[static_cast<size_t>(r)];
    if (df != 0 && df != rb.RankDataStart(r)) {
      return ApplyFail("delta basis from a different RB reset generation");
    }
  }
  // File-map cross-check: the FD metadata is monitor control-plane state every
  // replica derives from the same monitored history; a byte diverging means this
  // replica's stream is not the leader's and the join must be refused. The
  // shipped pages compare byte for byte and the whole-map CRC extends the check
  // over the pages the checkpoint omitted.
  const FileMap* fm = mon->file_map();
  if (snap.file_map_page_count != fm->pages().size() ||
      snap.file_map.size() != snap.file_map_pages.size() * kPageSize) {
    return ApplyFail("file map geometry diverged from the leader checkpoint");
  }
  for (size_t i = 0; i < snap.file_map_pages.size(); ++i) {
    const PageRef& fm_page = fm->pages()[snap.file_map_pages[i]];
    if (!std::equal(fm_page->bytes.begin(), fm_page->bytes.end(),
                    snap.file_map.begin() + static_cast<long>(i * kPageSize))) {
      return ApplyFail("file map diverged from the leader checkpoint");
    }
  }
  uint32_t fm_crc = 0;
  for (const PageRef& fm_page : fm->pages()) {
    fm_crc = Crc32(fm_page->bytes.data(), kPageSize, fm_crc);
  }
  if (fm_crc != snap.file_map_crc) {
    return ApplyFail("file map diverged from the leader checkpoint");
  }
  // Sync-agent log: the checkpoint and the replica must agree on whether a
  // record/replay agent runs at all, and the log restore's own validation
  // (geometry, replay cursor, per-slot divergence) gates the join like the file
  // map does. ApplyLogDelta mutates only after every check passed.
  bool replica_has_sync = sync_agent != nullptr && sync_agent->log_valid();
  if (snap.sync_log_size != 0 && !replica_has_sync) {
    return ApplyFail("snapshot carries a sync log the replica does not replay");
  }
  if (snap.sync_log_size == 0 && replica_has_sync) {
    return ApplyFail("snapshot lacks the sync log this replica replays");
  }

  SnapshotApplyResult result;
  result.ok = true;
  if (replica_has_sync) {
    const char* sync_err =
        sync_agent->ApplyLogDelta(snap.sync_log_size, snap.sync_tail, snap.sync_from,
                                  snap.sync_read_cursor, snap.sync_image);
    if (sync_err != nullptr) {
      return ApplyFail(sync_err);
    }
    result.sync_slots_restored = snap.sync_image.size() / kSyncLogEntrySize;
  }
  // Global header (signals-pending flag, generation) exactly as the leader saw it.
  rb.WriteBytes(0, image.data(), kRbGlobalHeaderSize);

  for (int r = 0; r < snap.max_ranks; ++r) {
    uint64_t data_start = rb.RankDataStart(r);
    uint64_t data_end = rb.RankDataEnd(r);
    uint64_t cursor = snap.cursors[static_cast<size_t>(r)];
    if (cursor < data_start || cursor > data_end) {
      return ApplyFail("snapshot cursor outside the rank sub-buffer");
    }
    rb.WriteBytes(rb.RankStart(r), image.data() + rb.RankStart(r), kRbRankHeaderSize);

    // Replay the published prefix with the live-path discipline: body first (the
    // mirror's own state and waiter words preserved), state word flipped last and
    // only forward, one wake per entry. The walk resumes at the replacement's
    // highest acked entry — one entry of overlap, idempotent under the
    // forward-only flip — or at the rank data start for the empty basis.
    uint64_t off = snap.delta_from[static_cast<size_t>(r)];
    if (off == 0) {
      off = data_start;
    }
    if (off < data_start || off > cursor) {
      return ApplyFail("snapshot resume offset outside the published prefix");
    }
    while (off + kRbEntryHeaderSize <= cursor) {
      uint32_t state = ImageU32(image, off + kRbOffState);
      if (state == kRbEmpty) {
        break;  // In-flight tail entry: the next data frame completes it.
      }
      uint64_t total = ImageU64(image, off + kRbOffTotalSize);
      if (state > kRbResultsReady || total < kRbEntryHeaderSize || (total & 7) != 0 ||
          total > cursor - off) {
        return ApplyFail("snapshot image has a malformed entry chain");
      }
      rb.WriteBytes(off + kRbOffSysno, image.data() + off + kRbOffSysno,
                    total - kRbOffSysno);
      if (state > rb.ReadU32(off + kRbOffState)) {
        rb.WriteU32(off + kRbOffState, state);
      }
      WakeEntryQueue(kernel, mon, rb, off);
      ++result.entries_restored;
      off += total;
    }

    // Same generation: the mirror's bytes past the leader cursor are already the
    // leader's zeros (both sides were scrubbed by the same reset round), so
    // re-zeroing would only race a consumer parked on the resume entry. Just wake
    // it so it re-examines the restored world.
    if (same_generation) {
      if (off + kRbEntryHeaderSize <= data_end) {
        WakeEntryQueue(kernel, mon, rb, off);
      }
      continue;
    }

    // The stale tail: everything beyond the leader's published prefix must read
    // as the leader's RB does (zeros — the region is zeroed at creation and at
    // every globally synchronized reset). The resume entry's state word is reset
    // from the image and its waiter word preserved: a consumer parked there keeps
    // its registration and simply finds the entry not published yet.
    if (off + 8 <= data_end) {
      rb.WriteU32(off + kRbOffState, ImageU32(image, off + kRbOffState));
      if (off + 8 < data_end) {
        rb.Zero(off + 8, data_end - off - 8);
      }
      WakeEntryQueue(kernel, mon, rb, off);
    } else if (off < data_end) {
      rb.Zero(off, data_end - off);  // Sub-entry-header residue: no consumer state.
    }
  }
  return result;
}

}  // namespace remon
