#include "src/core/ipmon.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "src/core/await.h"
#include "src/core/broker.h"
#include "src/core/rb_transport.h"
#include "src/sim/check.h"

namespace remon {

namespace {

// VaranLike flush barrier fields inside the rank header.
constexpr uint64_t kRankOffResetDone = 0;
constexpr uint64_t kRankOffBarrierGen = 8;  // + 8 * replica_index.

void AppendU64To(std::vector<uint8_t>* out, uint64_t v) {
  size_t at = out->size();
  out->resize(at + 8);
  std::memcpy(out->data() + at, &v, 8);
}

uint64_t TakeU64(const std::vector<uint8_t>& in, size_t* pos) {
  uint64_t v = 0;
  if (*pos + 8 <= in.size()) {
    std::memcpy(&v, in.data() + *pos, 8);
  }
  *pos += 8;
  return v;
}

}  // namespace

IpMon::IpMon(Kernel* kernel, IkBroker* broker, RelaxationPolicy policy, FileMap* file_map,
             Config config)
    : kernel_(kernel),
      broker_(broker),
      policy_(policy),
      file_map_(file_map),
      config_(config) {
  if (config_.rb_batch_policy == RbBatchPolicy::kAdaptive && config_.rb_batch_max <= 0) {
    config_.rb_batch_max = 16;  // Adaptive with no explicit ceiling: a sane default.
  }
}

GuestTask<void> IpMon::Initialize(Guest& g) {
  process_ = g.process();
  // Create or attach the RB segment through the normal (monitored, GHUMVEE-
  // arbitrated) System V path, then map it at a replica-specific address.
  int64_t shmid = co_await g.Shmget(kRbShmKey, config_.rb_size, kIpcCreat);
  REMON_CHECK_MSG(shmid >= 0, "IP-MON: RB shmget failed");
  int64_t rb_addr = co_await g.Shmat(static_cast<int>(shmid));
  REMON_CHECK_MSG(rb_addr > 0, "IP-MON: RB shmat failed");
  rb_ = RbView(process_, static_cast<GuestAddr>(rb_addr), config_.rb_size, config_.max_ranks);

  cursor_.assign(static_cast<size_t>(config_.max_ranks), 0);
  seq_.assign(static_cast<size_t>(config_.max_ranks), 0);
  varan_flush_gen_.assign(static_cast<size_t>(config_.max_ranks), 0);
  batch_.assign(static_cast<size_t>(config_.max_ranks), RbBatch{});
  for (int r = 0; r < config_.max_ranks; ++r) {
    cursor_[static_cast<size_t>(r)] = rb_.RankDataStart(r);
  }

  // Map the (GHUMVEE-maintained) file map read-only — all pages, contiguously.
  fm_addr_ = process_->mem().FindFreeRange(process_->layout.mmap_hint,
                                           file_map_->size_bytes());
  REMON_CHECK(fm_addr_ != 0);
  REMON_CHECK(process_->mem().MapFixedBacked(fm_addr_, file_map_->size_bytes(),
                                             kProtRead, true, "ipmon-filemap",
                                             file_map_->pages()));
  fm_mapped_bytes_ = file_map_->size_bytes();

  // Register with the kernel (paper §3.5): the set of calls IP-MON may handle, the
  // RB pointer, and the entry-point cookie. The call is always monitored, so GHUMVEE
  // arbitrates (and could veto) the registration.
  std::vector<bool> mask = policy_.RegistrationMask();
  if (config_.mode == IpmonMode::kVaranLike) {
    mask.assign(kNumSyscalls, true);
  }
  GuestAddr mask_addr = g.Alloc(kNumSyscalls);
  std::vector<uint8_t> bytes(kNumSyscalls);
  for (uint32_t i = 0; i < kNumSyscalls; ++i) {
    bytes[i] = mask[i] ? 1 : 0;
  }
  g.Poke(mask_addr, bytes.data(), bytes.size());
  int64_t rc = co_await g.Syscall(Sys::kRemonIpmonRegister, mask_addr,
                                  static_cast<uint64_t>(rb_addr), config_.entry_cookie);
  REMON_CHECK_MSG(rc == 0, "IP-MON registration rejected");

  // Liveness backstop for batched publication: if a master thread is about to park
  // in the kernel for any reason — including one the blocking prediction missed —
  // its rank's deferred commits publish first, so no slave can wait forever on an
  // entry whose publisher is asleep. The predictive flush points make this a rare
  // no-op; the hook makes it a guarantee.
  if (is_master() && config_.mode == IpmonMode::kRemon &&
      (config_.rb_batch_max > 0 || sync_log_flush_)) {
    // The hook lives in the kernel-owned Process, which neither owns nor is owned
    // by this IpMon — either can be destroyed first. The weak sentinel turns the
    // hook into a no-op once the IpMon is gone instead of a dangling call.
    process_->ipmon.on_park = [this, weak = std::weak_ptr<char>(park_guard_)](Thread* t) {
      if (weak.expired()) {
        return;
      }
      int rank = t->rank();
      if (static_cast<size_t>(rank) < batch_.size() &&
          !batch_[static_cast<size_t>(rank)].empty()) {
        ++kernel_->stats().rb_park_flushes;
        uint32_t waiters = FlushRbBatch(rank);
        if (waiters > 0) {
          // Same FUTEX_WAKE price every in-path flush pays (the hook is a plain
          // callback, so charge the core directly instead of awaiting ThreadCost);
          // the ablation columns stay comparable across flush sites.
          kernel_->RunOnThreadCore(t, kernel_->sim()->costs().futex_wake_ns, [] {});
        }
      }
      if (sync_log_flush_) {
        // Same liveness contract for the sync-log stream: whatever parked this
        // thread, its coalesced sync records publish before it sleeps.
        sync_log_flush_();
      }
    };
  }

  if (on_initialized_) {
    on_initialized_();
  }
}

WaitQueue* IpMon::StateWordQueue(uint64_t entry_off) {
  uint64_t off_in_page = 0;
  Page* frame =
      process_->mem().ResolveFrame(rb_.AddrOf(entry_off + kRbOffState), &off_in_page);
  REMON_CHECK(frame != nullptr);
  return &kernel_->futex().QueueFor(frame, off_in_page);
}

bool IpMon::MaySleepIndefinitely(const SyscallRequest& req) const {
  if (!PredictBlocking(req, *file_map_)) {
    return false;
  }
  const SyscallDesc& d = DescOf(req.nr);
  if (d.block == BlockPred::kFdNonblocking) {
    FdType ft = file_map_->TypeOf(static_cast<int>(req.arg(d.fd_arg)));
    return ft != FdType::kRegular && ft != FdType::kDirectory;
  }
  return true;  // Explicit sleeps (nanosleep/select/poll/futex/...) are unbounded.
}

bool IpMon::NeedsGhumvee(Thread* t, const SyscallRequest& req) const {
  (void)t;
  if (ControlNeedsMonitor(req)) {
    return true;
  }
  return !policy_.AllowsUnmonitored(req.nr, EffectiveFdType(process_, req, *file_map_));
}

void IpMon::RecordEpollShadow(const SyscallRequest& req) {
  if (req.nr != Sys::kEpollCtl) {
    return;
  }
  GuestEpollEvent ev;
  if (static_cast<int>(req.arg(1)) != kEpollCtlDel &&
      !process_->mem().Read(req.arg(3), &ev, sizeof(ev)).ok) {
    return;
  }
  RecordEpollShadowDirect(static_cast<int>(req.arg(0)), static_cast<int>(req.arg(1)),
                          static_cast<int>(req.arg(2)), ev.data);
}

bool IpMon::LookupEpollFd(int epfd, uint64_t data, int* fd_out) const {
  return epoll_shadow_.FdForData(epfd, data, fd_out);
}

bool IpMon::LookupEpollData(int epfd, int fd, uint64_t* data_out) const {
  return epoll_shadow_.DataForFd(epfd, fd, data_out);
}

void IpMon::RecordEpollShadowDirect(int epfd, int op, int fd, uint64_t data) {
  epoll_shadow_.Record(epfd, op, fd, data);
}

std::vector<uint8_t> IpMon::BuildResultPayload(const SyscallRequest& req, int64_t ret) {
  std::vector<OutRegion> regions = CollectOutRegions(process_, req, ret);
  std::vector<uint8_t> payload;
  AppendU64To(&payload, regions.size());
  for (const OutRegion& r : regions) {
    std::vector<uint8_t> data(r.len);
    if (!process_->mem().ReadUnchecked(r.addr, data.data(), r.len).ok) {
      data.assign(r.len, 0);
    }
    if (r.is_epoll_events) {
      // §3.9: replace this replica's opaque data values with FDs so slaves can map
      // them back onto their own values.
      int epfd = static_cast<int>(req.arg(0));
      for (int i = 0; i < r.event_count; ++i) {
        GuestEpollEvent ev;
        std::memcpy(&ev, data.data() + static_cast<size_t>(i) * sizeof(ev), sizeof(ev));
        int fd = -1;
        if (epoll_shadow_.FdForData(epfd, ev.data, &fd)) {
          ev.data = static_cast<uint64_t>(fd);
        }
        std::memcpy(data.data() + static_cast<size_t>(i) * sizeof(ev), &ev, sizeof(ev));
      }
    }
    AppendU64To(&payload, r.len);
    payload.insert(payload.end(), data.begin(), data.end());
  }
  return payload;
}

void IpMon::ApplyResultPayload(const SyscallRequest& req, int64_t ret,
                               const std::vector<uint8_t>& payload) {
  std::vector<OutRegion> regions = CollectOutRegions(process_, req, ret);
  size_t pos = 0;
  uint64_t count = TakeU64(payload, &pos);
  for (uint64_t i = 0; i < count && i < regions.size(); ++i) {
    uint64_t len = TakeU64(payload, &pos);
    if (pos + len > payload.size()) {
      break;
    }
    const OutRegion& r = regions[i];
    std::vector<uint8_t> data(payload.begin() + static_cast<long>(pos),
                              payload.begin() + static_cast<long>(pos + len));
    pos += len;
    if (r.is_epoll_events) {
      int epfd = static_cast<int>(req.arg(0));
      for (int e = 0; e < r.event_count; ++e) {
        GuestEpollEvent ev;
        std::memcpy(&ev, data.data() + static_cast<size_t>(e) * sizeof(ev), sizeof(ev));
        uint64_t local_data = 0;
        if (epoll_shadow_.DataForFd(epfd, static_cast<int>(ev.data), &local_data)) {
          ev.data = local_data;
        }
        std::memcpy(data.data() + static_cast<size_t>(e) * sizeof(ev), &ev, sizeof(ev));
      }
    }
    uint64_t n = std::min<uint64_t>(len, r.len);
    // A write fault here means this replica's buffer pointer differs in validity
    // from the master's — a divergence GHUMVEE-style monitors would also hit; the
    // region is skipped and the next consistency check will catch it.
    process_->mem().Write(r.addr, data.data(), n);
  }
}

void IpMon::IntentionalCrash(Thread* t) {
  // The paper's IP-MON triggers a deliberate crash so the ptrace machinery informs
  // GHUMVEE, which then shuts the MVEE down.
  ++kernel_->stats().divergences_detected;
  t->sig_pending |= 1ULL << (kSIGABRT - 1);
  kernel_->MaybeDeliverSignals(t, [] {});
}

GuestTask<void> IpMon::HandleCall(Thread* t, SyscallRequest req, uint64_t token,
                                  bool temporal_exempt) {
  const CostModel& costs = kernel_->sim()->costs();
  t->in_ipmon = true;
  ++t->ipmon_invocations;
  co_await ThreadCost{t, costs.ipmon_entry_ns};

  if (config_.mode == IpmonMode::kVaranLike) {
    co_await VaranPath(t, req);
    t->in_ipmon = false;
    co_return;
  }

  // Process-local calls (futex, nanosleep, ...): every replica executes its own,
  // using its one-time token; nothing to replicate. A local call can sleep
  // indefinitely (futex, nanosleep), so the master publishes its pending batch
  // first — a slave could otherwise wait forever on a deferred result.
  if (RelaxationPolicy::IsLocalCall(req.nr)) {
    // Guarded so the batching-disabled default pays no coroutine frame here.
    if (is_master() && config_.rb_batch_max > 0 &&
        static_cast<size_t>(t->rank()) < batch_.size() &&
        !batch_[static_cast<size_t>(t->rank())].empty()) {
      co_await FlushBatchCharged(t, t->rank());
    }
    int64_t r;
    if (broker_->VerifyToken(t, token, req.nr)) {
      r = co_await ExecDirect{t, req};
    } else {
      r = co_await ExecTraced{t, req};
    }
    ++kernel_->stats().syscalls_unmonitored;
    kernel_->CompleteSyscall(t, r);
    t->in_ipmon = false;
    co_return;
  }

  // MAYBE_CHECKED: conditional relaxation policies (paper listing 1).
  if (!temporal_exempt && NeedsGhumvee(t, req)) {
    forward_reason_ = "maybe_checked";
    co_await ForwardToGhumvee(t, req);
    t->in_ipmon = false;
    co_return;
  }

  if (is_master()) {
    co_await MasterPath(t, req, token);
  } else {
    co_await SlavePath(t, req, token);
  }
  t->in_ipmon = false;
}

int IpMon::BatchWindow(int rank) const {
  if (config_.rb_batch_policy != RbBatchPolicy::kAdaptive) {
    return config_.rb_batch_max;
  }
  if (static_cast<size_t>(rank) >= batch_.size()) {
    return 1;
  }
  int w = batch_[static_cast<size_t>(rank)].window();
  return w < config_.rb_batch_max ? w : config_.rb_batch_max;
}

void IpMon::EmitToTransport(int rank,
                            const std::vector<std::pair<uint64_t, uint32_t>>& pubs) {
  if (transport_ == nullptr || pubs.empty() || transport_->live_remotes() == 0) {
    return;  // No one to ship to: skip the image reads entirely.
  }
  std::vector<RbWireEntry> entries;
  entries.reserve(pubs.size());
  for (const auto& [entry_off, state] : pubs) {
    uint64_t sig_len = rb_.ReadU64(entry_off + kRbOffSigLen);
    uint64_t out_len =
        state == kRbResultsReady ? rb_.ReadU64(entry_off + kRbOffOutLen) : 0;
    RbWireEntry e;
    e.entry_off = entry_off;
    e.final_state = state;
    e.image.resize(kRbEntryHeaderSize + sig_len + out_len);
    rb_.ReadBytes(entry_off, e.image.data(), e.image.size());
    entries.push_back(std::move(e));
  }
  transport_->SendEntries(rank, entries);
}

void IpMon::ObserveTransportBackpressure(int rank) {
  if (config_.rb_batch_policy == RbBatchPolicy::kAdaptive &&
      static_cast<size_t>(rank) < batch_.size() &&
      batch_[static_cast<size_t>(rank)].ObserveBackpressure(config_.rb_batch_max) > 0) {
    ++kernel_->stats().rb_batch_window_grows;
  }
}

GuestTask<void> IpMon::StallOnTransport(Thread* t, int rank) {
  SimStats& stats = kernel_->stats();
  while (transport_ != nullptr && transport_->Stalled()) {
    ++stats.rb_transport_stalls;
    ObserveTransportBackpressure(rank);
    // The rank's batch must be empty before parking on the stall queue. Parking
    // runs the kernel park hook, and a non-empty batch would flush right there —
    // pumping the socket, consuming acks, and firing the stall-queue wake *before*
    // this thread registers as a waiter: a lost wakeup and a permanent stall. The
    // flush may overshoot the in-flight bound by one frame; the bound is a
    // watermark, not a hard budget.
    if (FlushRbBatch(rank) > 0) {
      co_await ThreadCost{t, kernel_->sim()->costs().futex_wake_ns};
      continue;  // The flush pumped the link; re-evaluate before sleeping.
    }
    co_await WaitOn{t, transport_->stall_queue()};
  }
}

uint32_t IpMon::FlushRbBatch(int rank) {
  if (static_cast<size_t>(rank) >= batch_.size()) {
    return 0;  // Pre-Initialize (batching not set up yet): nothing pending.
  }
  RbBatch& batch = batch_[static_cast<size_t>(rank)];
  if (batch.empty()) {
    return 0;
  }
  SimStats& stats = kernel_->stats();
  // Waiter-pressure observation, taken before the flips: kRbOffWaiters counts the
  // slaves parked in futex waits on the covered entries (summed by Commit); any
  // extra tasks sleeping on the state-word queues are spin-waiters (the simulator
  // parks spinners on the same queue and charges spin-iteration costs on wake).
  // Only the adaptive policy consumes the observation, so only it pays for the
  // per-slot frame-resolve + futex-queue lookups.
  const bool adaptive = config_.rb_batch_policy == RbBatchPolicy::kAdaptive;
  uint32_t sleepers = 0;
  // Resolved once per slot; the wake loop below reuses them instead of paying the
  // frame-resolve + futex-map lookup a second time.
  std::vector<WaitQueue*> queues;
  queues.reserve(batch.size());
  for (const RbBatch::Slot& s : batch.slots()) {
    queues.push_back(StateWordQueue(s.entry_off));
  }
  if (adaptive) {
    for (WaitQueue* q : queues) {
      sleepers += static_cast<uint32_t>(q->waiter_count());
    }
  }
  // The coalesced publication: payloads + results land in one pass, the state words
  // flip oldest-to-newest — args-only slots to kRbArgsReady, the rest straight to
  // kRbResultsReady — then every covered entry's condvar gets its (single
  // amortized) wakeup. "Elided" counts result publications that issued no
  // FUTEX_WAKE of their own — the same meaning as on the eager path, so the
  // ablation columns compare: a flush with waiters spends one wake for
  // results_pending() entries.
  uint32_t waiters = batch.Commit(rb_);
  uint64_t result_publications = batch.results_pending();
  if (transport_ != nullptr) {
    // One flush = one frame: the adaptive batch window doubles as the network
    // coalescing window, so remote agents see exactly the publications the local
    // slaves see, in one wire message.
    std::vector<std::pair<uint64_t, uint32_t>> pubs;
    pubs.reserve(batch.size());
    for (const RbBatch::Slot& s : batch.slots()) {
      pubs.emplace_back(s.entry_off,
                        s.results_pending ? kRbResultsReady : kRbArgsReady);
    }
    EmitToTransport(rank, pubs);
  }
  if (adaptive) {
    uint32_t spinners = sleepers > waiters ? sleepers - waiters : 0;
    int delta = batch.ObservePressure(waiters, spinners, config_.rb_batch_max);
    if (delta > 0) {
      ++stats.rb_batch_window_grows;
    } else if (delta < 0) {
      ++stats.rb_batch_window_shrinks;
    }
  }
  batch.Take();
  for (WaitQueue* q : queues) {
    q->Wake();
  }
  ++stats.rb_batch_flushes;
  if (result_publications > (waiters > 0 ? 1u : 0u)) {
    stats.rb_futex_wakes_elided += result_publications - (waiters > 0 ? 1 : 0);
  }
  return waiters;
}

uint32_t IpMon::FlushRbBatches() {
  uint32_t waiters = 0;
  for (size_t r = 0; r < batch_.size(); ++r) {
    waiters += FlushRbBatch(static_cast<int>(r));
  }
  if (sync_log_flush_) {
    // Leaving the fast path quiesces the sync-log stream too (monitored-call
    // entry, RB migration, checkpoint capture): remote slaves never wait on a
    // sync op coalesced behind a master that went off to lockstep.
    sync_log_flush_();
  }
  return waiters;
}

GuestTask<void> IpMon::FlushBatchCharged(Thread* t, int rank) {
  if (FlushRbBatch(rank) > 0) {
    co_await ThreadCost{t, kernel_->sim()->costs().futex_wake_ns};
  }
  // Slow-link backpressure: with a remote link's in-flight frame budget exhausted,
  // the leader stalls at its flush point (feeding the adaptive window) instead of
  // queueing unboundedly. After the flush, so the stall parks with an empty batch
  // (see StallOnTransport for why that matters).
  if (transport_ != nullptr && transport_->Stalled()) {
    co_await StallOnTransport(t, rank);
  }
}

GuestTask<void> IpMon::ForwardToGhumvee(Thread* t, SyscallRequest req) {
  // Leaving the fast path: slaves must not be left spinning on deferred results
  // while this thread parks in a GHUMVEE lockstep round.
  co_await FlushBatchCharged(t, t->rank());
  // Fig. 2, 4': destroy the token and restart; IK-B routes the restarted call to
  // GHUMVEE, which handles it like a regular CP-MVEE call.
  broker_->RevokeToken(t);
  int64_t r = co_await ExecTraced{t, req};
  kernel_->CompleteSyscall(t, r);
}

GuestTask<void> IpMon::MasterPath(Thread* t, SyscallRequest req, uint64_t token) {
  const CostModel& costs = kernel_->sim()->costs();
  SimStats& stats = kernel_->stats();
  int rank = t->rank();
  REMON_CHECK(rank < config_.max_ranks);

  // Cross-machine backpressure gate: with a remote link's in-flight frame budget
  // exhausted, the master may not publish further entries — park here until the
  // acks drain (or the remote dies and the stream epoch moves on).
  if (transport_ != nullptr && transport_->Stalled()) {
    co_await StallOnTransport(t, rank);
  }

  // CALCSIZE: compute the entry footprint; both the signature and the out-capacity
  // derive from argument values that are identical across replicas, so every replica
  // computes the same size and the cursors stay in lockstep.
  std::vector<uint8_t> sig = SerializeCallSignature(process_, req);
  uint64_t out_cap = EstimateDataSize(req);
  uint64_t entry_size = RbEntryOps::EntrySize(sig.size(), out_cap + 16);
  co_await ThreadCost{t, costs.RbCopyCost(sig.size())};

  uint64_t sub_cap = rb_.RankDataEnd(rank) - rb_.RankDataStart(rank);
  if (entry_size > sub_cap) {
    co_await ForwardToGhumvee(t, req);
    co_return;
  }

  // Batched publication (Config::rb_batch_max): a small bounded-latency call may
  // defer both its PRECALL args-ready publication and its POSTCALL wakeup into the
  // rank's batch. Oversized calls and calls that can park the master indefinitely
  // (blocked socket/pipe reads, explicit sleeps) publish every deferred entry
  // first — the slaves must never sit on deferred entries across an unbounded
  // master sleep. Together with the other flush points (local calls, GHUMVEE
  // forwards, RB overflow, monitored entry stops, the kernel park hook) this
  // bounds how long a deferred publication can stay invisible.
  bool predict_block = PredictBlocking(req, *file_map_);
  bool batchable = config_.rb_batch_max > 0 &&
                   out_cap + 16 <= config_.rb_batch_entry_bytes &&
                   !MaySleepIndefinitely(req);
  if (config_.rb_batch_max > 0 && !batchable &&
      !batch_[static_cast<size_t>(rank)].empty()) {
    co_await FlushBatchCharged(t, rank);
  }

  while (cursor_[static_cast<size_t>(rank)] + entry_size > rb_.RankDataEnd(rank)) {
    // Linear RB exhausted: GHUMVEE arbitrates the reset (paper §3.2). Slaves must be
    // able to drain every published entry before the reset round, so the batch goes
    // out first. The reset trip consumes the authorization; IK-B grants a fresh
    // token on re-entry.
    co_await FlushBatchCharged(t, rank);
    broker_->RevokeToken(t);
    co_await ExecTraced{t, SyscallRequest{Sys::kRemonRbFlush,
                                          {static_cast<uint64_t>(rank), 0, 0, 0, 0, 0}}};
    // The flush trip consumed the authorization and overwrote the thread's current
    // request; re-enter through IK-B: fresh token, original call restored.
    t->cur_req = req;
    token = broker_->IssueToken(t);
  }
  uint64_t entry_off = cursor_[static_cast<size_t>(rank)];
  cursor_[static_cast<size_t>(rank)] += entry_size;
  uint64_t my_seq = seq_[static_cast<size_t>(rank)]++;

  RecordEpollShadow(req);

  bool signals_pending = rb_.SignalsPending();
  uint32_t flags = kRbFlagMasterCall;
  if (predict_block) {
    flags |= kRbFlagMaybeBlocking;
  }
  if (signals_pending) {
    flags |= kRbFlagForwarded;
  }

  // PRECALL: log arguments + metadata. A batchable call stages the bytes into the
  // RB (contiguous plain writes, no flag flip, no wake) and defers the args-ready
  // publication into the rank's batch; everything else commits and wakes eagerly.
  // Either way the argument bytes are in the RB before execution, so a slave's
  // divergence check always sees this entry's arguments before its POSTCALL.
  bool args_deferred = batchable && !signals_pending;
  if (args_deferred) {
    RbEntryOps::StageArgs(rb_, entry_off, req.nr, flags, my_seq, entry_size, sig);
    batch_[static_cast<size_t>(rank)].StageArgs(entry_off);
    ++stats.rb_precall_coalesced;
  } else {
    RbEntryOps::CommitArgs(rb_, entry_off, req.nr, flags, my_seq, entry_size, sig);
  }
  co_await ThreadCost{t, costs.rb_entry_ns};
  if (!args_deferred) {
    StateWordQueue(entry_off)->Wake();
    EmitToTransport(rank, {{entry_off, kRbArgsReady}});
  }
  ++stats.rb_entries;
  stats.rb_bytes += entry_size;

  if (signals_pending) {
    // §3.8: GHUMVEE deferred a signal; restart this call as a *monitored* call so the
    // monitor gets its synchronization point. The forwarded stub keeps slaves in step.
    RbEntryOps::CommitResults(rb_, entry_off, 0, {});
    StateWordQueue(entry_off)->Wake();
    EmitToTransport(rank, {{entry_off, kRbResultsReady}});
    forward_reason_ = "signals_pending";
    co_await ForwardToGhumvee(t, req);
    co_return;
  }

  // Execute: restart the call with the token intact; the IK-B verifier admits it
  // without reporting to GHUMVEE (fig. 2, steps 3-4).
  if (!broker_->VerifyToken(t, token, req.nr)) {
    // Token invalid (revoked / forged / wrong call): forced CP execution. Publish a
    // forwarded stub so the slaves follow to GHUMVEE instead of waiting on the RB.
    // Flush first: the stub must land on an entry the batch no longer owns (a
    // later flush would downgrade its state word), and older deferred entries must
    // publish before this one forwards.
    co_await FlushBatchCharged(t, rank);
    uint32_t f = rb_.ReadU32(entry_off + kRbOffFlags) | kRbFlagForwarded;
    rb_.WriteU32(entry_off + kRbOffFlags, f);
    RbEntryOps::CommitResults(rb_, entry_off, 0, {});
    StateWordQueue(entry_off)->Wake();
    EmitToTransport(rank, {{entry_off, kRbResultsReady}});
    forward_reason_ = "token_invalid";
    co_await ForwardToGhumvee(t, req);
    co_return;
  }
  co_await ThreadCost{t, costs.token_check_ns};
  int64_t r = co_await ExecDirect{t, req};

  if (r == -kEINTR && rb_.SignalsPending()) {
    // §3.8: the blocking call was aborted for signal delivery. Mark the entry
    // forwarded (slaves will follow us to GHUMVEE) and restart monitored. The park
    // hook flushed the batch when the call blocked, but an interruptible call can
    // also abort pre-park, so publish any deferrals (this entry's included) first.
    co_await FlushBatchCharged(t, rank);
    uint32_t f = rb_.ReadU32(entry_off + kRbOffFlags) | kRbFlagForwarded;
    rb_.WriteU32(entry_off + kRbOffFlags, f);
    RbEntryOps::CommitResults(rb_, entry_off, 0, {});
    StateWordQueue(entry_off)->Wake();
    EmitToTransport(rank, {{entry_off, kRbResultsReady}});
    forward_reason_ = "eintr_restart";
    co_await ForwardToGhumvee(t, req);
    co_return;
  }

  // POSTCALL: replicate results — eagerly, or deferred into the rank's batch.
  std::vector<uint8_t> payload = BuildResultPayload(req, r);
  co_await ThreadCost{t, costs.RbCopyCost(payload.size() + 16)};
  if (batchable && payload.size() <= config_.rb_batch_entry_bytes) {
    RbBatch& batch = batch_[static_cast<size_t>(rank)];
    batch.AddResults(entry_off, r, std::move(payload));
    ++stats.rb_batched_entries;
    if (static_cast<int>(batch.size()) >= BatchWindow(rank)) {
      // One coalesced publication: a single FUTEX_WAKE covers every batched entry.
      co_await FlushBatchCharged(t, rank);
    }
  } else {
    if (batch_[static_cast<size_t>(rank)].ArgsDeferred(entry_off)) {
      // The payload outgrew the batch limit after the args were staged: publish the
      // deferred side first so the eager commit below cannot be downgraded later.
      co_await FlushBatchCharged(t, rank);
    }
    uint32_t waiters = RbEntryOps::CommitResults(rb_, entry_off, r, payload);
    StateWordQueue(entry_off)->Wake();  // Memory visibility (free in real hardware).
    EmitToTransport(rank, {{entry_off, kRbResultsReady}});
    if (waiters > 0) {
      co_await ThreadCost{t, costs.futex_wake_ns};  // FUTEX_WAKE needed.
    } else {
      ++stats.rb_futex_wakes_elided;
    }
  }
  ++stats.syscalls_unmonitored;
  ++stats.syscalls_mastercall;
  kernel_->CompleteSyscall(t, r);
}

GuestTask<void> IpMon::SlavePath(Thread* t, SyscallRequest req, uint64_t token) {
  const CostModel& costs = kernel_->sim()->costs();
  SimStats& stats = kernel_->stats();
  int rank = t->rank();
  REMON_CHECK(rank < config_.max_ranks);

  // Same CALCSIZE as the master: identical entry size, identical overflow decision.
  std::vector<uint8_t> sig = SerializeCallSignature(process_, req);
  uint64_t out_cap = EstimateDataSize(req);
  uint64_t entry_size = RbEntryOps::EntrySize(sig.size(), out_cap + 16);
  co_await ThreadCost{t, costs.RbCopyCost(sig.size())};

  uint64_t sub_cap = rb_.RankDataEnd(rank) - rb_.RankDataStart(rank);
  if (entry_size > sub_cap) {
    co_await ForwardToGhumvee(t, req);
    co_return;
  }
  while (cursor_[static_cast<size_t>(rank)] + entry_size > rb_.RankDataEnd(rank)) {
    broker_->RevokeToken(t);
    co_await ExecTraced{t, SyscallRequest{Sys::kRemonRbFlush,
                                          {static_cast<uint64_t>(rank), 0, 0, 0, 0, 0}}};
    t->cur_req = req;
    token = broker_->IssueToken(t);
  }
  uint64_t entry_off = cursor_[static_cast<size_t>(rank)];
  cursor_[static_cast<size_t>(rank)] += entry_size;
  ++seq_[static_cast<size_t>(rank)];

  RecordEpollShadow(req);

  // Wait for the master's PRECALL commit.
  while (rb_.ReadU32(entry_off + kRbOffState) < kRbArgsReady) {
    RbEntryOps::AddWaiter(rb_, entry_off);
    ++stats.rb_futex_waits;
    co_await WaitOn{t, StateWordQueue(entry_off)};
    RbEntryOps::RemoveWaiter(rb_, entry_off);
    co_await ThreadCost{t, costs.futex_wait_ns};
  }

  // Sanity check: compare our deep-copied arguments against the master's (paper §3:
  // "minimizes opportunities for asymmetrical attacks").
  std::vector<uint8_t> master_sig = RbEntryOps::ReadSignature(rb_, entry_off);
  co_await ThreadCost{t, costs.CompareCost(sig.size())};
  if (master_sig != sig) {
    IntentionalCrash(t);
    co_return;  // The syscall never completes; GHUMVEE shuts the MVEE down.
  }

  // Wait for results: per-invocation condition variable (futex) when the call was
  // predicted to block, spin-read otherwise (paper §3.7).
  RbEntryHeader hdr = RbEntryOps::ReadHeader(rb_, entry_off);
  bool use_futex = (hdr.flags & kRbFlagMaybeBlocking) != 0;
  if (config_.wait_mode != IpmonWaitMode::kAuto) {
    use_futex = config_.wait_mode == IpmonWaitMode::kFutex;
  }
  while (rb_.ReadU32(entry_off + kRbOffState) < kRbResultsReady) {
    if (use_futex) {
      RbEntryOps::AddWaiter(rb_, entry_off);
      ++stats.rb_futex_waits;
      co_await WaitOn{t, StateWordQueue(entry_off)};
      RbEntryOps::RemoveWaiter(rb_, entry_off);
      co_await ThreadCost{t, costs.futex_wait_ns};
    } else {
      ++stats.rb_spin_waits;
      co_await WaitOn{t, StateWordQueue(entry_off)};
      co_await ThreadCost{t, costs.spin_iteration_ns};
    }
  }

  hdr = RbEntryOps::ReadHeader(rb_, entry_off);
  if ((hdr.flags & kRbFlagForwarded) != 0) {
    // The master routed this invocation to GHUMVEE (signals pending / aborted
    // blocking call); follow it so the monitor sees all replicas in lockstep.
    forward_reason_ = "follow_master_stub";
    co_await ForwardToGhumvee(t, req);
    co_return;
  }

  std::vector<uint8_t> payload = RbEntryOps::ReadPayload(rb_, entry_off);
  co_await ThreadCost{t, costs.RbCopyCost(payload.size())};
  ApplyResultPayload(req, hdr.result, payload);
  broker_->RevokeToken(t);
  ++stats.syscalls_unmonitored;
  kernel_->CompleteSyscall(t, hdr.result);
}

void IpMon::OnRbReset(int rank) {
  ++rb_resets_;
  if (is_master()) {
    // Normally empty by now (the overflow trip flushes); defensive for direct calls.
    FlushRbBatch(rank);
    ++kernel_->stats().rb_resets;
    // Zero the data area once (shared frames: visible to every leader-local replica).
    rb_.Zero(rb_.RankDataStart(rank), rb_.RankDataEnd(rank) - rb_.RankDataStart(rank));
  } else if (rb_private_mirror_ && rb_.valid()) {
    // A remote replica's RB is a machine-local mirror: the master's zeroing does not
    // reach it, so the replica scrubs its own sub-buffer inside the (globally
    // synchronized) reset round. Every frame published before the round has been
    // applied by now — this replica could not have reached the overflow point
    // without consuming all of them.
    rb_.Zero(rb_.RankDataStart(rank), rb_.RankDataEnd(rank) - rb_.RankDataStart(rank));
  }
  cursor_[static_cast<size_t>(rank)] = rb_.RankDataStart(rank);
}

GuestAddr IpMon::MigrateRb() {
  if (!rb_.valid()) {
    return 0;
  }
  FlushRbBatches();  // Entry offsets survive the move, but publish before remapping.
  AddressSpace& mem = process_->mem();
  std::vector<PageRef> frames = mem.FramesFor(rb_.base(), rb_.size());
  if (frames.empty()) {
    return 0;
  }
  // Fresh randomized location in this replica's mmap window (same entropy as the
  // original placement).
  GuestAddr hint = process_->layout.mmap_hint -
                   (kernel_->sim()->rng().NextBelow(1ULL << 24)) * kPageSize;
  GuestAddr fresh = mem.FindFreeRange(hint, rb_.size());
  if (fresh == 0) {
    return 0;
  }
  if (!mem.MapFixedBacked(fresh, rb_.size(), kProtRead | kProtWrite, true, "sysv-shm",
                          frames)) {
    return 0;
  }
  mem.Unmap(rb_.base(), rb_.size());
  rb_ = RbView(process_, fresh, rb_.size(), config_.max_ranks);
  // Cursors are offsets, not addresses: they survive the move unchanged.
  ++kernel_->stats().rb_migrations;
  return fresh;
}

bool IpMon::RemapFileMap() {
  if (process_ == nullptr || fm_addr_ == 0) {
    return false;  // Initialize has not mapped yet; it will map the grown geometry.
  }
  AddressSpace& mem = process_->mem();
  GuestAddr fresh = mem.FindFreeRange(process_->layout.mmap_hint,
                                      file_map_->size_bytes());
  if (fresh == 0) {
    return false;
  }
  if (!mem.MapFixedBacked(fresh, file_map_->size_bytes(), kProtRead, true,
                          "ipmon-filemap", file_map_->pages())) {
    return false;
  }
  mem.Unmap(fm_addr_, fm_mapped_bytes_);
  fm_addr_ = fresh;
  fm_mapped_bytes_ = file_map_->size_bytes();
  return true;
}

WaitQueue* IpMon::RankHeaderQueue(int rank) {
  uint64_t off_in_page = 0;
  Page* frame = process_->mem().ResolveFrame(rb_.AddrOf(rb_.RankStart(rank)), &off_in_page);
  REMON_CHECK(frame != nullptr);
  return &kernel_->futex().QueueFor(frame, off_in_page);
}

GuestTask<void> IpMon::VaranFlushBarrier(Thread* t, int rank) {
  // Every replica computes the same overflow decision at the same invocation index,
  // so all of them enter the barrier with the same generation. The buffer resets once
  // all replicas arrive — this bounds how far the master can run ahead (VARAN bounds
  // it with its ring size; the window-vs-security discussion is paper §6).
  uint64_t gen = ++varan_flush_gen_[static_cast<size_t>(rank)];
  uint64_t hdr = rb_.RankStart(rank);
  rb_.WriteU64(hdr + 8 + 8 * static_cast<uint64_t>(config_.replica_index), gen);
  RankHeaderQueue(rank)->Wake();
  auto all_arrived = [this, hdr, gen] {
    for (int i = 0; i < config_.num_replicas; ++i) {
      if (rb_.ReadU64(hdr + 8 + 8 * static_cast<uint64_t>(i)) < gen) {
        return false;
      }
    }
    return true;
  };
  while (!all_arrived()) {
    co_await WaitOn{t, RankHeaderQueue(rank)};
  }
  if (is_master()) {
    rb_.Zero(rb_.RankDataStart(rank), rb_.RankDataEnd(rank) - rb_.RankDataStart(rank));
    rb_.WriteU64(hdr + 0, gen);  // reset_done
    RankHeaderQueue(rank)->Wake();
    ++kernel_->stats().rb_resets;
  } else {
    while (rb_.ReadU64(hdr + 0) < gen) {
      co_await WaitOn{t, RankHeaderQueue(rank)};
    }
  }
  cursor_[static_cast<size_t>(rank)] = rb_.RankDataStart(rank);
  ++rb_resets_;
}

GuestTask<void> IpMon::VaranPath(Thread* t, SyscallRequest req) {
  const CostModel& costs = kernel_->sim()->costs();
  SimStats& stats = kernel_->stats();

  // Local-resource calls (memory management, threads, signals, futexes) execute in
  // every replica; nothing to replicate.
  if (RelaxationPolicy::IsLocalCall(req.nr) || RelaxationPolicy::ForcedCpCall(req.nr)) {
    int64_t r = co_await ExecDirect{t, req};
    ++stats.syscalls_unmonitored;
    kernel_->CompleteSyscall(t, r);
    co_return;
  }

  int rank = t->rank();
  REMON_CHECK(rank < config_.max_ranks);
  std::vector<uint8_t> sig = SerializeCallSignature(process_, req);
  uint64_t out_cap = EstimateDataSize(req);
  uint64_t entry_size = RbEntryOps::EntrySize(sig.size(), out_cap + 16);
  co_await ThreadCost{t, costs.RbCopyCost(sig.size())};

  uint64_t sub_cap = rb_.RankDataEnd(rank) - rb_.RankDataStart(rank);
  if (entry_size > sub_cap) {
    // Oversized transfer: fall back to local execution in every replica (VARAN has
    // no CP monitor to escalate to).
    int64_t r = co_await ExecDirect{t, req};
    kernel_->CompleteSyscall(t, r);
    co_return;
  }
  while (cursor_[static_cast<size_t>(rank)] + entry_size > rb_.RankDataEnd(rank)) {
    co_await VaranFlushBarrier(t, rank);
  }
  uint64_t entry_off = cursor_[static_cast<size_t>(rank)];
  cursor_[static_cast<size_t>(rank)] += entry_size;
  uint64_t my_seq = seq_[static_cast<size_t>(rank)]++;

  RecordEpollShadow(req);

  if (is_master()) {
    uint32_t flags =
        kRbFlagMasterCall | (PredictBlocking(req, *file_map_) ? kRbFlagMaybeBlocking : 0);
    RbEntryOps::CommitArgs(rb_, entry_off, req.nr, flags, my_seq, entry_size, sig);
    co_await ThreadCost{t, costs.rb_entry_ns};
    StateWordQueue(entry_off)->Wake();
    ++stats.rb_entries;
    stats.rb_bytes += entry_size;

    int64_t r = co_await ExecDirect{t, req};

    std::vector<uint8_t> payload = BuildResultPayload(req, r);
    co_await ThreadCost{t, costs.RbCopyCost(payload.size() + 16)};
    uint32_t waiters = RbEntryOps::CommitResults(rb_, entry_off, r, payload);
    StateWordQueue(entry_off)->Wake();
    if (waiters > 0) {
      co_await ThreadCost{t, costs.futex_wake_ns};
    } else {
      ++stats.rb_futex_wakes_elided;
    }
    ++stats.syscalls_unmonitored;
    ++stats.syscalls_mastercall;
    kernel_->CompleteSyscall(t, r);
  } else {
    while (rb_.ReadU32(entry_off + kRbOffState) < kRbArgsReady) {
      RbEntryOps::AddWaiter(rb_, entry_off);
      ++stats.rb_futex_waits;
      co_await WaitOn{t, StateWordQueue(entry_off)};
      RbEntryOps::RemoveWaiter(rb_, entry_off);
      co_await ThreadCost{t, costs.futex_wait_ns};
    }
    std::vector<uint8_t> master_sig = RbEntryOps::ReadSignature(rb_, entry_off);
    co_await ThreadCost{t, costs.CompareCost(sig.size())};
    if (master_sig != sig) {
      // Reliability-oriented: tolerate small discrepancies rather than shutting down
      // (paper §6 on VARAN's loose consistency checking).
      ++mismatches_tolerated_;
    }
    RbEntryHeader hdr = RbEntryOps::ReadHeader(rb_, entry_off);
    bool use_futex = (hdr.flags & kRbFlagMaybeBlocking) != 0;
    while (rb_.ReadU32(entry_off + kRbOffState) < kRbResultsReady) {
      if (use_futex) {
        RbEntryOps::AddWaiter(rb_, entry_off);
        ++stats.rb_futex_waits;
        co_await WaitOn{t, StateWordQueue(entry_off)};
        RbEntryOps::RemoveWaiter(rb_, entry_off);
        co_await ThreadCost{t, costs.futex_wait_ns};
      } else {
        ++stats.rb_spin_waits;
        co_await WaitOn{t, StateWordQueue(entry_off)};
        co_await ThreadCost{t, costs.spin_iteration_ns};
      }
    }
    hdr = RbEntryOps::ReadHeader(rb_, entry_off);
    std::vector<uint8_t> payload = RbEntryOps::ReadPayload(rb_, entry_off);
    co_await ThreadCost{t, costs.RbCopyCost(payload.size())};
    ApplyResultPayload(req, hdr.result, payload);
    ++stats.syscalls_unmonitored;
    kernel_->CompleteSyscall(t, hdr.result);
  }
}

}  // namespace remon
