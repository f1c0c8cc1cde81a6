#include "src/core/ghumvee.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "src/core/await.h"
#include "src/core/ipmon.h"
#include "src/core/replication_buffer.h"
#include "src/sim/check.h"
#include "src/vfs/fs.h"

namespace remon {

namespace {

bool IsSyncFatalSignal(int sig) {
  switch (sig) {
    case kSIGSEGV:
    case kSIGILL:
    case kSIGABRT:
    case kSIGSYS:
      return true;
    default:
      return false;
  }
}

}  // namespace

Ghumvee::Ghumvee(Kernel* kernel) : kernel_(kernel), hub_(kernel) {
  hub_.monitor_entity = 0x474855'4d;  // Unique scheduling identity for the monitor.
}

Ghumvee::~Ghumvee() {
  if (loop_frame_) {
    loop_frame_.destroy();
  }
}

auto Ghumvee::Work(DurationNs d) {
  return MonitorCost{kernel_, hub_.monitor_entity, &hub_.monitor_core, d};
}

void Ghumvee::AddReplica(Process* process) {
  process->replica_index = static_cast<int>(replicas_.size());
  replicas_.push_back(process);
  ipmons_.push_back(nullptr);
  epoll_shadow_.emplace_back();
  kernel_->PtraceAttach(process, &hub_);
}

void Ghumvee::AttachIpmon(int replica_index, IpMon* mon) {
  REMON_CHECK(replica_index >= 0 && replica_index < static_cast<int>(ipmons_.size()));
  ipmons_[static_cast<size_t>(replica_index)] = mon;
}

int Ghumvee::ReplicaIndexOf(const Process* p) const {
  for (size_t i = 0; i < replicas_.size(); ++i) {
    if (replicas_[i] == p) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

void Ghumvee::Start() {
  REMON_CHECK(!replicas_.empty());
  running_ = true;
  GuestTask<void> loop = MonitorLoop();
  loop_frame_ = loop.ReleaseAsRoot(
      [](void* arg) { static_cast<Ghumvee*>(arg)->running_ = false; }, this);
  kernel_->sim()->queue().ScheduleAfter(0, [this] {
    if (loop_frame_) {
      loop_frame_.resume();
    }
  });
}

void Ghumvee::Divergence(int rank, Sys nr, std::string reason) {
  if (shutdown_) {
    return;
  }
  std::fprintf(stderr, "[ghumvee] divergence (rank %d, sysno %d): %s\n", rank,
               static_cast<int>(nr), reason.c_str());
  divergences_.push_back(DivergenceRecord{kernel_->now(), rank, nr, std::move(reason)});
  ++kernel_->stats().divergences_detected;
  shutdown_ = true;
  for (Process* p : replicas_) {
    if (!p->exited) {
      kernel_->TerminateProcess(p, 128 + kSIGKILL);
    }
  }
}

GuestTask<void> Ghumvee::MonitorLoop() {
  const CostModel& costs = kernel_->sim()->costs();
  while (true) {
    if (replicas_exited_ >= num_replicas() && !hub_.has_events()) {
      break;  // All replicas gone and nothing left to process.
    }
    PtraceEvent ev = co_await hub_.NextEvent();
    // Every stop costs the monitor a waitpid round + GETREGS + (later) a resume,
    // even when events are queued back to back.
    DurationNs event_cost = costs.monitor_dispatch_ns;
    if (ev.kind == PtraceEvent::Kind::kSyscallEntry ||
        ev.kind == PtraceEvent::Kind::kSyscallExit ||
        ev.kind == PtraceEvent::Kind::kSignal) {
      event_cost += costs.monitor_event_ns;
    }
    co_await Work(event_cost);
    switch (ev.kind) {
      case PtraceEvent::Kind::kSyscallEntry:
        co_await HandleEntryStop(ev.thread);
        break;
      case PtraceEvent::Kind::kSyscallExit: {
        Thread* t = ev.thread;
        int rank = t->rank();
        auto it = ranks_.find(rank);
        if (it != ranks_.end() && it->second.phase == RankState::Phase::kMasterExecuting &&
            ReplicaIndexOf(t->process()) == 0) {
          co_await ReplicateMasterResults(it->second, t, t->cur_result);
          break;
        }
        HandleExitStop(t);
        // A completed drain may unblock a queued lockstep round.
        if (it != ranks_.end() && it->second.phase == RankState::Phase::kCollecting &&
            it->second.pending_count == num_replicas()) {
          co_await RunLockstep(rank, it->second);
        }
        break;
      }
      case PtraceEvent::Kind::kSignal:
        co_await HandleSignalStop(ev);
        break;
      case PtraceEvent::Kind::kThreadExit:
        HandleThreadExit(ev.thread);
        break;
      case PtraceEvent::Kind::kProcessExit:
        HandleProcessExit();
        break;
      case PtraceEvent::Kind::kThreadNew:
        break;  // Pairing is implicit: ranks are assigned in spawn order.
    }
  }
  running_ = false;
}

GuestTask<void> Ghumvee::HandleEntryStop(Thread* t) {
  if (shutdown_ || !t->alive()) {
    co_return;
  }
  int rank = t->rank();
  int ridx = ReplicaIndexOf(t->process());
  REMON_CHECK(ridx >= 0);
  if (ridx == 0 && !ipmons_.empty() && ipmons_[0] != nullptr) {
    // The master entering a monitored call leaves the IP-MON fast path: publish any
    // batched RB results first, or the slaves could sit spinning on deferred entries
    // while the master parks in this lockstep round.
    if (ipmons_[0]->FlushRbBatches() > 0) {
      co_await Work(kernel_->sim()->costs().futex_wake_ns);
    }
  }
  RankState& rs = ranks_[rank];
  if (rs.pending.empty()) {
    rs.pending.assign(static_cast<size_t>(num_replicas()), nullptr);
  }
  if (rs.pending[static_cast<size_t>(ridx)] != nullptr) {
    // Same replica arrived twice before the round fired: should be impossible.
    Divergence(rank, t->cur_req.nr, "duplicate arrival in lockstep round");
    co_return;
  }
  rs.pending[static_cast<size_t>(ridx)] = t;
  ++rs.pending_count;
  if (rs.phase == RankState::Phase::kCollecting && rs.pending_count == num_replicas()) {
    co_await RunLockstep(rank, rs);
    co_return;
  }
  // Partial arrival: the thread stays parked at its entry stop until the round
  // fires. Arm the watchdog — if the peers never show up, they diverged into
  // unmonitored execution (or died) and the MVEE must shut down.
  if (rs.watchdog == 0) {
    rs.watchdog_round = rs.rounds_fired;
    Sys nr = t->cur_req.nr;
    rs.watchdog = kernel_->sim()->queue().ScheduleAfter(
        lockstep_timeout_ns, [this, rank, nr] {
          auto it = ranks_.find(rank);
          if (it == ranks_.end()) {
            return;
          }
          RankState& state = it->second;
          state.watchdog = 0;
          if (!shutdown_ && state.pending_count > 0 &&
              state.rounds_fired == state.watchdog_round) {
            Divergence(rank, nr,
                       "lockstep timeout: replicas stopped participating in "
                       "monitored execution");
          }
        });
  }
}

GuestTask<void> Ghumvee::RunLockstep(int rank, RankState& rs) {
  const CostModel& costs = kernel_->sim()->costs();
  SimStats& stats = kernel_->stats();
  ++lockstep_rounds_;
  ++stats.syscalls_monitored;
  ++rs.rounds_fired;
  if (rs.watchdog != 0) {
    kernel_->sim()->queue().Cancel(rs.watchdog);
    rs.watchdog = 0;
  }

  // Promote the pending arrivals to the current round; new arrivals may accumulate
  // while this round executes and drains.
  rs.current = std::move(rs.pending);
  rs.pending.assign(static_cast<size_t>(num_replicas()), nullptr);
  rs.pending_count = 0;

  Thread* master_thread = rs.current[0];
  rs.req = master_thread->cur_req;
  Sys nr = rs.req.nr;

  // --- Cross-check: deep-compare every replica's argument signature (§2). --------
  std::vector<uint8_t> master_sig = SerializeCallSignature(replicas_[0], rs.req);
  co_await Work(costs.VmCopyCost(master_sig.size()));
  for (int i = 1; i < num_replicas(); ++i) {
    Thread* t = rs.current[static_cast<size_t>(i)];
    if (t->cur_req.nr != nr) {
      Divergence(rank, nr, "system call number mismatch across replicas");
      co_return;
    }
    std::vector<uint8_t> sig = SerializeCallSignature(replicas_[static_cast<size_t>(i)],
                                                      t->cur_req);
    co_await Work(costs.VmCopyCost(sig.size()) + costs.CompareCost(sig.size()));
    if (sig != master_sig) {
      Divergence(rank, nr, "argument signature mismatch across replicas");
      co_return;
    }
  }
  if (temporal_ != nullptr) {
    temporal_->RecordApproval(nr);
  }

  // --- Deferred-signal injection at the synchronization point (§2.2). -----------
  InjectDeferredSignals(rank);

  // --- Special monitored calls. ------------------------------------------------
  if (IsSharedMemoryViolation(rs.req)) {
    ++stats.shm_requests_denied;
    for (int i = 0; i < num_replicas(); ++i) {
      PtraceAction a;
      a.skip_syscall = true;
      a.injected_result = -kEPERM;
      kernel_->PtraceResume(rs.current[static_cast<size_t>(i)], a);
    }
    rs.phase = RankState::Phase::kDraining;
    rs.drain_remaining = num_replicas();
    co_return;
  }
  if (nr == Sys::kRemonRbFlush) {
    // A replacement checkpoint in flight pins the current reset generation: its
    // image was cut against the live sub-buffer offsets, and scrubbing them
    // before the replacement acks the End frame dooms the join (the agent
    // refuses a checkpoint from a stale generation, which tears the link and
    // charges the respawn budget for the leader's own reset). Park the round
    // until the transfer is acked or the link dies — both bounded, by the
    // in-flight frame cap and the connect watchdog respectively.
    if (rb_flush_gate_ && rb_flush_gate_()) {
      ++stats.rb_reset_join_stalls;
      while (rb_flush_gate_() && !shutdown_ && divergences_.empty()) {
        co_await Work(10 * kMicrosecond);
      }
    }
    HandleRbFlush(static_cast<int>(rs.req.arg(0)), rs);
    co_return;
  }

  // epoll_ctl: record every replica's own (epfd, fd) -> data association so
  // epoll_wait results can be translated per replica (§3.9).
  if (nr == Sys::kEpollCtl) {
    for (int i = 0; i < num_replicas(); ++i) {
      Thread* t = rs.current[static_cast<size_t>(i)];
      int epfd = static_cast<int>(t->cur_req.arg(0));
      int op = static_cast<int>(t->cur_req.arg(1));
      int fd = static_cast<int>(t->cur_req.arg(2));
      GuestEpollEvent ev{0, 0};
      if (op != kEpollCtlDel &&
          !kernel_->TracerRead(t->process(), t->cur_req.arg(3), &ev, sizeof(ev))) {
        continue;
      }
      epoll_shadow_[static_cast<size_t>(i)].Record(epfd, op, fd, ev.data);
      // Keep IP-MON's shadow in sync: at some policy levels epoll_ctl is monitored
      // while epoll_wait is exempt (paper Table 1, SOCKET_RO).
      if (ipmons_[static_cast<size_t>(i)] != nullptr) {
        ipmons_[static_cast<size_t>(i)]->RecordEpollShadowDirect(epfd, op, fd, ev.data);
      }
    }
  }

  // --- Execution mode. -----------------------------------------------------------
  if (RelaxationPolicy::IsLocalCall(nr)) {
    // Local-resource call: every replica executes its own instance.
    rs.phase = RankState::Phase::kDraining;
    rs.drain_remaining = num_replicas();
    for (int i = 0; i < num_replicas(); ++i) {
      kernel_->PtraceResume(rs.current[static_cast<size_t>(i)], PtraceAction{});
    }
    co_return;
  }

  // Master-call: only the master executes; slaves stay parked at their entry stops
  // until the results are ready.
  rs.phase = RankState::Phase::kMasterExecuting;
  ++stats.syscalls_mastercall;
  kernel_->PtraceResume(master_thread, PtraceAction{});
}

GuestTask<void> Ghumvee::ReplicateMasterResults(RankState& rs, Thread* master_thread,
                                                int64_t result) {
  const CostModel& costs = kernel_->sim()->costs();
  Sys nr = rs.req.nr;

  // FD bookkeeping feeds the IP-MON file map (§3.6).
  TrackFds(master_thread->cur_req, result);
  if ((nr == Sys::kOpen || nr == Sys::kOpenat) && result >= 0) {
    FilterMapsContent(master_thread->cur_req, result);
  }

  // Copy out-regions from the master and write them into each slave at the slave's
  // own addresses (process_vm_readv/writev analogs).
  std::vector<OutRegion> master_regions =
      CollectOutRegions(replicas_[0], master_thread->cur_req, result);
  std::vector<std::vector<uint8_t>> blobs;
  blobs.reserve(master_regions.size());
  for (const OutRegion& r : master_regions) {
    std::vector<uint8_t> data(r.len);
    kernel_->TracerRead(replicas_[0], r.addr, data.data(), r.len);
    co_await Work(costs.VmCopyCost(r.len));
    blobs.push_back(std::move(data));
  }

  for (int i = 1; i < num_replicas(); ++i) {
    Thread* slave = rs.current[static_cast<size_t>(i)];
    std::vector<OutRegion> slave_regions =
        CollectOutRegions(replicas_[static_cast<size_t>(i)], slave->cur_req, result);
    for (size_t r = 0; r < slave_regions.size() && r < blobs.size(); ++r) {
      std::vector<uint8_t> data = blobs[r];
      if (master_regions[r].is_epoll_events) {
        // Translate master data values -> fd -> slave data values (§3.9).
        int epfd = static_cast<int>(slave->cur_req.arg(0));
        for (int e = 0; e < master_regions[r].event_count; ++e) {
          GuestEpollEvent ev;
          std::memcpy(&ev, data.data() + static_cast<size_t>(e) * sizeof(ev), sizeof(ev));
          // Resolve master data -> fd, then fd -> slave data; either side may be
          // authoritative in GHUMVEE's maps (monitored epoll_ctl) or in IP-MON's
          // (exempt epoll_ctl).
          int fd_val = -1;
          if (!epoll_shadow_[0].FdForData(epfd, ev.data, &fd_val) &&
              ipmons_[0] != nullptr) {
            ipmons_[0]->LookupEpollFd(epfd, ev.data, &fd_val);
          }
          if (fd_val >= 0) {
            // Aligned staging value: GuestEpollEvent is packed, so &ev.data is a
            // misaligned uint64_t* the lookup must not store through.
            uint64_t slave_data = 0;
            if (epoll_shadow_[static_cast<size_t>(i)].DataForFd(epfd, fd_val,
                                                                &slave_data) ||
                (ipmons_[static_cast<size_t>(i)] != nullptr &&
                 ipmons_[static_cast<size_t>(i)]->LookupEpollData(epfd, fd_val,
                                                                  &slave_data))) {
              ev.data = slave_data;
            }
          }
          std::memcpy(data.data() + static_cast<size_t>(e) * sizeof(ev), &ev, sizeof(ev));
        }
      }
      kernel_->TracerWrite(replicas_[static_cast<size_t>(i)], slave_regions[r].addr,
                           data.data(), std::min<uint64_t>(data.size(), slave_regions[r].len));
      co_await Work(costs.VmCopyCost(data.size()));
    }
    // Abort the slave's call and inject the master's return value.
    PtraceAction a;
    a.skip_syscall = true;
    a.injected_result = result;
    kernel_->PtraceResume(slave, a);
  }

  // Resume the master past its exit stop (already consumed by this handler); the
  // drain then waits only for the slaves' skip-path exit stops.
  rs.phase = RankState::Phase::kDraining;
  rs.drain_remaining = num_replicas() - 1;
  kernel_->PtraceResume(master_thread, PtraceAction{});
  if (rs.drain_remaining == 0) {
    rs.phase = RankState::Phase::kCollecting;
    rs.current.clear();
  }
}

void Ghumvee::HandleExitStop(Thread* t) {
  int rank = t->rank();
  auto it = ranks_.find(rank);
  if (it == ranks_.end()) {
    kernel_->PtraceResume(t, PtraceAction{});
    return;
  }
  RankState& rs = it->second;
  kernel_->PtraceResume(t, PtraceAction{});
  if (rs.phase == RankState::Phase::kDraining) {
    if (--rs.drain_remaining == 0) {
      rs.phase = RankState::Phase::kCollecting;
      rs.current.clear();
    }
  }
}

void Ghumvee::HandleRbFlush(int rank, RankState& rs) {
  for (IpMon* mon : ipmons_) {
    if (mon != nullptr) {
      mon->OnRbReset(rank);
    }
  }
  if (rb_migration_) {
    // Safe with other ranks mid-RB-operation too: IP-MON addresses the RB by
    // offset through its current view, and RB waiters park on queues keyed by the
    // backing frame, which the move keeps.
    for (IpMon* mon : ipmons_) {
      if (mon != nullptr) {
        mon->MigrateRb();
      }
    }
  }
  rs.phase = RankState::Phase::kDraining;
  rs.drain_remaining = num_replicas();
  for (int i = 0; i < num_replicas(); ++i) {
    PtraceAction a;
    a.skip_syscall = true;
    a.injected_result = 0;
    kernel_->PtraceResume(rs.current[static_cast<size_t>(i)], a);
  }
}

GuestTask<void> Ghumvee::HandleSignalStop(const PtraceEvent& ev) {
  Thread* t = ev.thread;
  int sig = ev.signal;
  int ridx = ReplicaIndexOf(t->process());
  // A signal we injected ourselves: all replicas are at equivalent points, let it
  // through to the handler.
  auto inj = injected_signals_.find(t);
  if (inj != injected_signals_.end() && (inj->second & (1ULL << (sig - 1))) != 0) {
    inj->second &= ~(1ULL << (sig - 1));
    PtraceAction a;
    a.deliver_signal = true;
    kernel_->PtraceResume(t, a);
    co_return;
  }
  if (IsSyncFatalSignal(sig)) {
    // A synchronous fault in one replica while its peers run on: the behavioral
    // divergence MVEEs exist to catch. Deliver (killing the replica) and shut down.
    std::string reason = "replica ";
    reason += std::to_string(ridx);
    reason += " faulted with signal ";
    reason += std::to_string(sig);
    PtraceAction a;
    a.deliver_signal = true;
    kernel_->PtraceResume(t, a);
    Divergence(t->rank(), t->cur_req.nr, std::move(reason));
    co_return;
  }
  // Asynchronous signal: defer master-origin signals until all replicas reach a
  // synchronization point; discard slave-origin duplicates (timers and the like fire
  // in the master only — see the execution-mode table).
  PtraceAction a;
  a.deliver_signal = false;
  kernel_->PtraceResume(t, a);
  if (ridx == 0) {
    DeferSignal(t, sig);
  }
  co_return;
}

void Ghumvee::DeferSignal(Thread* t, int sig) {
  ++kernel_->stats().signals_deferred;
  deferred_signals_.emplace_back(t->rank(), sig);
  // §3.8: make unmonitored execution reach a monitored synchronization point — set
  // the RB flag (IP-MON checks it before dispatching) and abort any blocking
  // unmonitored call the master is executing.
  SetSignalsPendingFlag(true);
  for (Thread* mt : replicas_[0]->threads) {
    if (mt->alive() && mt->in_ipmon) {
      kernel_->InterruptBlockedSyscall(mt);
    }
  }
}

void Ghumvee::InjectDeferredSignals(int rank) {
  if (deferred_signals_.empty()) {
    return;
  }
  std::deque<std::pair<int, int>> keep;
  auto it = ranks_.find(rank);
  REMON_CHECK(it != ranks_.end());
  for (auto& [sig_rank, sig] : deferred_signals_) {
    if (sig_rank != rank) {
      keep.emplace_back(sig_rank, sig);
      continue;
    }
    // All rank-r threads are parked at equivalent states (entry stops): post the
    // signal to each; delivery happens when the call completes, at the same logical
    // point in every replica.
    for (int i = 0; i < num_replicas(); ++i) {
      Thread* t = it->second.current[static_cast<size_t>(i)];
      if (t != nullptr && t->alive()) {
        injected_signals_[t] |= 1ULL << (sig - 1);
        kernel_->PostSignalToThread(t, sig);
      }
    }
  }
  deferred_signals_ = std::move(keep);
  if (deferred_signals_.empty()) {
    SetSignalsPendingFlag(false);
  }
}

void Ghumvee::SetSignalsPendingFlag(bool pending) {
  // One write through the master's mapping suffices: the RB frames are shared.
  if (!ipmons_.empty() && ipmons_[0] != nullptr && ipmons_[0]->rb().valid()) {
    RbView rb = ipmons_[0]->rb();
    rb.SetSignalsPending(pending);
  }
}

void Ghumvee::HandleThreadExit(Thread* t) {
  auto it = ranks_.find(t->rank());
  if (it == ranks_.end()) {
    return;
  }
  RankState& rs = it->second;
  if (rs.phase == RankState::Phase::kDraining && rs.drain_remaining > 0) {
    // The thread exited instead of reaching its exit stop (exit/exit_group).
    if (--rs.drain_remaining == 0) {
      rs.phase = RankState::Phase::kCollecting;
      rs.current.clear();
    }
    return;
  }
  if (rs.phase == RankState::Phase::kCollecting && rs.pending_count > 0 && !shutdown_) {
    // Peers are waiting in lockstep for a thread that just died: divergence.
    Divergence(t->rank(), Sys::kInvalid, "replica thread exited while peers wait in lockstep");
  }
}

void Ghumvee::HandleProcessExit() {
  ++replicas_exited_;
  if (shutdown_) {
    return;
  }
  // A clean, synchronized shutdown has every replica exiting in the same lockstep
  // round; a lone exit while others continue running is divergence. We detect the
  // latter lazily: if some replicas are still alive and make further calls, their
  // lockstep rounds will stall with a dead peer — flagged via HandleThreadExit.
}

bool Ghumvee::IsSharedMemoryViolation(const SyscallRequest& req) const {
  // Writable shared mappings between replicas form unmonitored bi-directional
  // channels (§2.1). ReMon infrastructure keys are exempt.
  if (req.nr == Sys::kMmap) {
    int flags = static_cast<int>(req.arg(3));
    uint32_t prot = static_cast<uint32_t>(req.arg(2));
    return (flags & kMapShared) != 0 && (prot & kProtWrite) != 0;
  }
  if (req.nr == Sys::kShmget) {
    int key = static_cast<int>(req.arg(0));
    return key < kRemonShmKeyBase;
  }
  return false;
}

void Ghumvee::TrackFds(const SyscallRequest& req, int64_t result) {
  Process* master = replicas_[0];
  const SyscallDesc& d = DescOf(req.nr);
  switch (d.fd_effect) {
    case FdEffect::kNone:
      break;
    case FdEffect::kCreatesFd:
      if (result >= 0) {
        auto desc = master->fds().Get(static_cast<int>(result));
        if (desc) {
          file_map_.Set(static_cast<int>(result), desc->file()->type(),
                        desc->nonblocking());
        }
      }
      break;
    case FdEffect::kClosesFd:
      if (result == 0) {
        file_map_.Clear(static_cast<int>(req.arg(0)));
      }
      break;
    case FdEffect::kCreatesFdPair:
      if (result == 0) {
        int32_t fds[2] = {-1, -1};
        kernel_->TracerRead(master, req.arg(0), fds, sizeof(fds));
        for (int fd : fds) {
          auto desc = master->fds().Get(fd);
          if (desc) {
            file_map_.Set(fd, desc->file()->type(), desc->nonblocking());
          }
        }
      }
      break;
    case FdEffect::kSetsFdFlags:
      // The descriptor's control gate names the encoding: fcntl carries the flag word
      // in arg 2, ioctl FIONBIO points at an int in guest memory.
      if (d.ctl_gate == CtlGate::kFcntl && static_cast<int>(req.arg(1)) == kF_SETFL) {
        file_map_.SetNonblocking(static_cast<int>(req.arg(0)),
                                 (req.arg(2) & static_cast<uint64_t>(kO_NONBLOCK)) != 0);
      } else if (d.ctl_gate == CtlGate::kFcntl &&
                 static_cast<int>(req.arg(1)) == kF_DUPFD && result >= 0) {
        // F_DUPFD is forwarded exactly so the map can learn the new descriptor.
        auto desc = master->fds().Get(static_cast<int>(result));
        if (desc) {
          file_map_.Set(static_cast<int>(result), desc->file()->type(),
                        desc->nonblocking());
        }
      } else if (d.ctl_gate == CtlGate::kIoctl && req.arg(1) == kIoctlFionbio &&
                 result == 0) {
        uint32_t on = 0;
        if (kernel_->TracerRead(master, req.arg(2), &on, 4)) {
          file_map_.SetNonblocking(static_cast<int>(req.arg(0)), on != 0);
        }
      }
      break;
  }
}

void Ghumvee::FilterMapsContent(const SyscallRequest& req, int64_t fd) {
  auto path = replicas_[0]->mem().ReadCString(req.arg(req.nr == Sys::kOpenat ? 1 : 0));
  if (!path || path->find("/maps") == std::string::npos) {
    return;
  }
  auto desc = replicas_[0]->fds().Get(static_cast<int>(fd));
  if (!desc) {
    return;
  }
  auto* special = dynamic_cast<SpecialHandle*>(desc->file());
  if (special == nullptr) {
    return;
  }
  // Drop every line that would reveal IP-MON or the replication buffer (§3.1).
  std::string& content = special->mutable_content();
  std::string filtered;
  size_t pos = 0;
  while (pos < content.size()) {
    size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) {
      eol = content.size();
    }
    std::string_view line(content.data() + pos, eol - pos);
    if (line.find("ipmon") == std::string_view::npos &&
        line.find("sysv-shm") == std::string_view::npos) {
      filtered.append(line);
      filtered.push_back('\n');
    }
    pos = eol + 1;
  }
  content = std::move(filtered);
  // The file map byte marks the descriptor special, so IP-MON forwards all reads on
  // it to GHUMVEE.
  file_map_.Set(static_cast<int>(fd), FdType::kSpecial, desc->nonblocking());
}

}  // namespace remon
