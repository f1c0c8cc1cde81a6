#include "src/core/replication_buffer.h"

#include <cstring>

#include "src/sim/check.h"

namespace remon {

namespace {

constexpr uint64_t kOffSignalsPending = 0;

// Field access into an entry-header image, in host byte order like every RbView
// word access.
template <typename T>
T Field(const uint8_t* image, uint64_t off) {
  T v;
  std::memcpy(&v, image + off, sizeof(v));
  return v;
}

template <typename T>
void PutField(uint8_t* image, uint64_t off, T v) {
  std::memcpy(image + off, &v, sizeof(v));
}

}  // namespace

void RbView::SetSignalsPending(bool pending) {
  WriteU32(kOffSignalsPending, pending ? 1 : 0);
}

bool RbView::SignalsPending() const { return ReadU32(kOffSignalsPending) != 0; }

uint32_t RbView::ReadU32(uint64_t offset) const {
  uint32_t v = 0;
  REMON_CHECK(process_->mem().ReadUnchecked(base_ + offset, &v, 4).ok);
  return v;
}

uint64_t RbView::ReadU64(uint64_t offset) const {
  uint64_t v = 0;
  REMON_CHECK(process_->mem().ReadUnchecked(base_ + offset, &v, 8).ok);
  return v;
}

void RbView::WriteU32(uint64_t offset, uint32_t v) {
  REMON_CHECK(process_->mem().WriteUnchecked(base_ + offset, &v, 4).ok);
}

void RbView::WriteU64(uint64_t offset, uint64_t v) {
  REMON_CHECK(process_->mem().WriteUnchecked(base_ + offset, &v, 8).ok);
}

void RbView::WriteBytes(uint64_t offset, const void* data, uint64_t len) {
  REMON_CHECK(process_->mem().WriteUnchecked(base_ + offset, data, len).ok);
}

void RbView::ReadBytes(uint64_t offset, void* out, uint64_t len) const {
  REMON_CHECK(process_->mem().ReadUnchecked(base_ + offset, out, len).ok);
}

void RbView::Zero(uint64_t offset, uint64_t len) {
  static const uint8_t kZeros[4096] = {0};
  while (len > 0) {
    uint64_t n = len < sizeof(kZeros) ? len : sizeof(kZeros);
    WriteBytes(offset, kZeros, n);
    offset += n;
    len -= n;
  }
}

RbEntryHeader RbEntryOps::ReadHeader(const RbView& view, uint64_t entry_off) {
  // One read of the whole header, then a decode: a slave reads it on every call.
  uint8_t image[kRbEntryHeaderSize];
  view.ReadBytes(entry_off, image, sizeof(image));
  RbEntryHeader h;
  h.state = Field<uint32_t>(image, kRbOffState);
  h.waiters = Field<uint32_t>(image, kRbOffWaiters);
  h.sysno = Field<uint32_t>(image, kRbOffSysno);
  h.flags = Field<uint32_t>(image, kRbOffFlags);
  h.total_size = Field<uint64_t>(image, kRbOffTotalSize);
  h.seq = Field<uint64_t>(image, kRbOffSeq);
  h.result = Field<int64_t>(image, kRbOffResult);
  h.sig_len = Field<uint64_t>(image, kRbOffSigLen);
  h.out_len = Field<uint64_t>(image, kRbOffOutLen);
  return h;
}

void RbEntryOps::CommitArgs(RbView& view, uint64_t entry_off, Sys nr, uint32_t flags,
                            uint64_t seq, uint64_t total_size,
                            const std::vector<uint8_t>& signature) {
  // kRbOffWaiters is deliberately left alone: the data area is zeroed at every ring
  // reset and slots are written once per lap, so the word is already 0 unless a
  // slave ran ahead and registered on this still-empty entry — a count the results
  // commit must see, or its FUTEX_WAKE gets elided under that sleeping waiter. The
  // fields are written as two images, [sysno, seq] and [sig_len, out_len], so the
  // state, waiter and result words are not touched.
  uint8_t image[kRbOffOutLen + 8] = {};
  PutField<uint32_t>(image, kRbOffSysno, static_cast<uint32_t>(nr));
  PutField<uint32_t>(image, kRbOffFlags, flags);
  PutField<uint64_t>(image, kRbOffTotalSize, total_size);
  PutField<uint64_t>(image, kRbOffSeq, seq);
  PutField<uint64_t>(image, kRbOffSigLen, signature.size());
  PutField<uint64_t>(image, kRbOffOutLen, 0);
  view.WriteBytes(entry_off + kRbOffSysno, image + kRbOffSysno, kRbOffResult - kRbOffSysno);
  view.WriteBytes(entry_off + kRbOffSigLen, image + kRbOffSigLen,
                  kRbOffOutLen + 8 - kRbOffSigLen);
  if (!signature.empty()) {
    view.WriteBytes(entry_off + kRbEntryHeaderSize, signature.data(), signature.size());
  }
  view.WriteU32(entry_off + kRbOffState, kRbArgsReady);
}

uint32_t RbEntryOps::CommitResults(RbView& view, uint64_t entry_off, int64_t result,
                                   const std::vector<uint8_t>& payload) {
  uint64_t sig_len = view.ReadU64(entry_off + kRbOffSigLen);
  view.WriteU64(entry_off + kRbOffResult, static_cast<uint64_t>(result));
  view.WriteU64(entry_off + kRbOffOutLen, payload.size());
  if (!payload.empty()) {
    view.WriteBytes(entry_off + kRbEntryHeaderSize + sig_len, payload.data(), payload.size());
  }
  uint32_t waiters = view.ReadU32(entry_off + kRbOffWaiters);
  // State flip last: slaves poll/wait on this word.
  view.WriteU32(entry_off + kRbOffState, kRbResultsReady);
  return waiters;
}

std::vector<uint8_t> RbEntryOps::ReadSignature(const RbView& view, uint64_t entry_off) {
  uint64_t len = view.ReadU64(entry_off + kRbOffSigLen);
  std::vector<uint8_t> out(len);
  if (len > 0) {
    view.ReadBytes(entry_off + kRbEntryHeaderSize, out.data(), len);
  }
  return out;
}

std::vector<uint8_t> RbEntryOps::ReadPayload(const RbView& view, uint64_t entry_off) {
  uint64_t sig_len = view.ReadU64(entry_off + kRbOffSigLen);
  uint64_t len = view.ReadU64(entry_off + kRbOffOutLen);
  std::vector<uint8_t> out(len);
  if (len > 0) {
    view.ReadBytes(entry_off + kRbEntryHeaderSize + sig_len, out.data(), len);
  }
  return out;
}

void RbEntryOps::AddWaiter(RbView& view, uint64_t entry_off) {
  view.WriteU32(entry_off + kRbOffWaiters, view.ReadU32(entry_off + kRbOffWaiters) + 1);
}

void RbEntryOps::RemoveWaiter(RbView& view, uint64_t entry_off) {
  uint32_t w = view.ReadU32(entry_off + kRbOffWaiters);
  if (w > 0) {
    view.WriteU32(entry_off + kRbOffWaiters, w - 1);
  }
}

}  // namespace remon
