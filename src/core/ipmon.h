// IP-MON: the in-process monitor (paper §3.2-§3.9).
//
// One IpMon instance lives in each replica (the paper loads it as a shared library;
// here it is a host-side component whose code runs on the replica's virtual
// timeline and whose data lives in the replica's simulated memory). It replicates
// the results of unmonitored system calls from the master to the slaves through the
// shared replication buffer without any context switch:
//
//   master:  MAYBE_CHECKED -> CALCSIZE -> PRECALL (log args) -> execute (token-
//            authorized restart through IK-B) -> POSTCALL (log results, wake slaves)
//   slaves:  wait for the entry -> compare own args against the master's (divergence
//            check) -> abort own call -> wait for results (spin or per-invocation
//            futex condvar, predicted via the file map) -> copy results out
//
// Calls the policy conditionally rejects, calls that do not fit the RB, and calls
// made while GHUMVEE has signals pending are forwarded to GHUMVEE by destroying the
// authorization token and restarting (fig. 2, 4'); a forwarded stub entry keeps the
// slaves in sync.

#ifndef SRC_CORE_IPMON_H_
#define SRC_CORE_IPMON_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/core/epoll_shadow.h"
#include "src/core/file_map.h"
#include "src/core/policy.h"
#include "src/core/replication_buffer.h"
#include "src/kernel/guest.h"
#include "src/kernel/kernel.h"
#include "src/kernel/syscall_meta.h"

namespace remon {

class IkBroker;
class RbTransport;

// Monitor flavor: ReMon's IP-MON (split-monitor, GHUMVEE fallback) or a VARAN-like
// reliability-oriented monitor (everything in-process, no lockstep, no CP fallback).
enum class IpmonMode { kRemon, kVaranLike };

// How slaves wait for the master's results: the paper's design predicts blocking via
// the file map and picks per call (kAuto); kSpin / kFutex force one strategy for the
// ablation study (§3.7).
enum class IpmonWaitMode { kAuto, kSpin, kFutex };

class IpMon {
 public:
  struct Config {
    int replica_index = 0;
    int num_replicas = 2;
    uint64_t rb_size = 16 * 1024 * 1024;
    int max_ranks = 16;
    IpmonMode mode = IpmonMode::kRemon;
    IpmonWaitMode wait_mode = IpmonWaitMode::kAuto;
    uint64_t entry_cookie = 0x49504d4f;  // "IPMO": the registered entry point.
    // Batched RB publication (ablation knob): the master coalesces up to this many
    // consecutive small bounded-latency entries per rank — staged PRECALL argument
    // commits and deferred POSTCALL results — into one publication with a single
    // slave wakeup; the batch always flushes before a call that can park the master
    // indefinitely (sockets, pipes, sleeps) and before leaving the fast path.
    // 0 disables batching (per-entry wakes). Under kAdaptive this is the window
    // ceiling; the effective window floats in [1, rb_batch_max] driven by the
    // waiter pressure observed at flush points.
    int rb_batch_max = 0;
    RbBatchPolicy rb_batch_policy = RbBatchPolicy::kFixed;
    // Only results at most this large are batched; bigger payloads publish eagerly.
    uint64_t rb_batch_entry_bytes = 512;
  };

  IpMon(Kernel* kernel, IkBroker* broker, RelaxationPolicy policy, FileMap* file_map,
        Config config);

  bool is_master() const { return config_.replica_index == 0; }
  const Config& config() const { return config_; }
  const RbView& rb() const { return rb_; }
  Process* process() const { return process_; }

  // Fellow replicas' IP-MON instances, in replica order (set by the front end; used
  // to locate the master's RB view for cross-replica waits).
  void set_peers(std::vector<IpMon*> peers) { peers_ = std::move(peers); }

  // --- Cross-machine replica sets (src/core/rb_transport.h) ---------------------

  // Master only: every publication is additionally serialized into one wire frame
  // and pumped to the remote replicas' sync agents ("one flush = one frame").
  void set_transport(RbTransport* transport) { transport_ = transport; }

  // Remote slaves: this replica's RB is a machine-local mirror fed by its
  // RemoteSyncAgent rather than leader-shared frames; on RB resets the replica
  // zeroes its own mirror (there is no master with shared frames to do it).
  void set_rb_private_mirror(bool mirror) { rb_private_mirror_ = mirror; }

  // Invoked at the end of Initialize, once the RB view is valid (the remote sync
  // agent drains frames that raced ahead of the replica's prologue).
  void set_on_initialized(std::function<void()> cb) { on_initialized_ = std::move(cb); }

  // Master of a cross-machine multi-threaded set: publishes the sync agent's
  // pending log-stream records (SyncAgent::FlushLogStream). Invoked at the same
  // liveness points that publish deferred RB batches — FlushRbBatches and the
  // kernel park hook — so a parked or dying master thread can never strand a
  // remote slave on an unstreamed sync op. Wire before Initialize runs.
  void set_sync_log_flush(std::function<void()> cb) { sync_log_flush_ = std::move(cb); }

  // Coalescing window the sync-log stream borrows from this monitor's batching
  // config: the rank's adaptive/fixed batch window, floored at 1 (batching
  // disabled streams every append eagerly).
  int SyncCoalesceWindow(int rank) const {
    int w = config_.rb_batch_max > 0 ? BatchWindow(rank) : 1;
    return w > 1 ? w : 1;
  }

  // One observed transport stall for `rank`: under the adaptive policy the rank's
  // batch window grows (AIMD) so a slow link amortizes into larger frames. Fed by
  // this monitor's own flush-point stalls and by the sync agent's append-time
  // backpressure gate.
  void ObserveTransportBackpressure(int rank);

  // Guest-side initialization prologue: creates/attaches the RB segment (System V
  // IPC, arbitrated by GHUMVEE), maps the file map read-only, and registers with the
  // kernel via the dedicated system call (paper §3.5).
  GuestTask<void> Initialize(Guest& g);

  // The system call entry point IK-B forwards to (paper fig. 2, step 2).
  GuestTask<void> HandleCall(Thread* t, SyscallRequest req, uint64_t token,
                             bool temporal_exempt);

  // --- GHUMVEE callbacks -------------------------------------------------------

  // Resets rank r's sub-buffer after an overflow flush (only the master's IpMon
  // zeroes the shared bytes; every replica resets its own cursor).
  void OnRbReset(int rank);

  // GHUMVEE feeds IP-MON the epoll registrations it observes on monitored epoll_ctl
  // calls, so epoll_wait results can be translated even when the policy level
  // monitors epoll_ctl but exempts epoll_wait (e.g. SOCKET_RO).
  void RecordEpollShadowDirect(int epfd, int op, int fd, uint64_t data);

  // The paper's §4 extension: IK-B periodically moves the RB to a fresh virtual
  // address by remapping the replica's page-table entries, shrinking the window for
  // address-guessing attacks. Invoked by GHUMVEE at every RB reset round, with the
  // flushing rank stopped (other ranks may be mid-call: see HandleRbFlush).
  // Returns the new base (0 if migration was not possible). Counted in
  // SimStats::rb_migrations.
  GuestAddr MigrateRb();

  // Live FileMap growth (FileMap::Grow): remaps the grown map into this replica
  // at a fresh range with the same page-table epoch-bump idiom MigrateRb uses, so
  // every page of the new geometry is reachable read-only. Returns false before
  // Initialize (the initial mapping then covers the grown geometry already) or
  // when no free range fits.
  bool RemapFileMap();

  // Shadow-map lookups for GHUMVEE: when an occasionally-forwarded epoll_wait is
  // replicated by the CP monitor, the authoritative mapping may live in IP-MON.
  bool LookupEpollFd(int epfd, uint64_t data, int* fd_out) const;
  bool LookupEpollData(int epfd, int fd, uint64_t* data_out) const;

  // Number of RB resets this replica has observed.
  uint64_t rb_resets() const { return rb_resets_; }
  // This replica's RB cursor for `rank` (diagnostics/tests): the offset of the
  // next entry it will produce (master) or consume (slave).
  uint64_t rb_cursor(int rank) const {
    return static_cast<size_t>(rank) < cursor_.size()
               ? cursor_[static_cast<size_t>(rank)]
               : 0;
  }
  // This replica's next entry sequence number for `rank` (checkpointing).
  uint64_t rb_seq(int rank) const {
    return static_cast<size_t>(rank) < seq_.size() ? seq_[static_cast<size_t>(rank)] : 0;
  }
  // Replica-checkpoint inputs (src/core/snapshot.h): the file map this monitor
  // consults and its epoll data shadow.
  const FileMap* file_map() const { return file_map_; }
  const EpollShadowMap& epoll_shadow() const { return epoll_shadow_; }
  uint64_t mismatches_tolerated() const { return mismatches_tolerated_; }

  // Publishes every deferred batched POSTCALL commit (all ranks) and wakes the
  // slaves; returns the total waiters observed (for the caller's FUTEX_WAKE cost
  // accounting). GHUMVEE invokes this when the master enters a monitored call, so
  // slaves can never be left spinning on deferred results while it sits in lockstep.
  uint32_t FlushRbBatches();

 private:
  // Decides whether the active policy requires CP monitoring for this call
  // (MAYBE_CHECKED). Consults the file map (via the descriptor registry's
  // EffectiveFdType) for FD-dependent decisions.
  bool NeedsGhumvee(Thread* t, const SyscallRequest& req) const;

  // Flushes one rank's pending batch; returns the waiters observed (for the
  // caller's futex-wake cost accounting). Under RbBatchPolicy::kAdaptive the
  // observation — futex waiters registered on the covered entries vs. tasks
  // parked spinning on their state words — also drives the window state machine.
  uint32_t FlushRbBatch(int rank);

  // Effective batch window for a rank: rb_batch_max under kFixed, the rank's
  // current adaptive window under kAdaptive.
  int BatchWindow(int rank) const;

  // Whether the call can park the master for an unbounded time (external input or
  // an explicit sleep). Bounded-latency regular-file I/O returns false even when
  // the blocking prediction says "blocks": deferring results across it delays the
  // slaves only by the bounded device latency — the batching trade-off, not a
  // liveness hazard.
  bool MaySleepIndefinitely(const SyscallRequest& req) const;

  // Flushes one rank's batch and charges the thread the FUTEX_WAKE cost when the
  // publication woke someone — the one idiom every coroutine flush point must use
  // so the fixed-vs-adaptive ablation columns stay comparable.
  GuestTask<void> FlushBatchCharged(Thread* t, int rank);

  // Master + transport: parks the thread while any remote link has its full
  // in-flight frame budget outstanding (slow-link backpressure stalls the leader's
  // flush point instead of queuing unboundedly); each stall feeds the adaptive
  // window's AIMD as grow pressure. No-op without a transport.
  GuestTask<void> StallOnTransport(Thread* t, int rank);

  // Master + transport: serializes freshly published entries (entry_off,
  // final-state pairs) into one frame broadcast to every remote agent.
  void EmitToTransport(int rank, const std::vector<std::pair<uint64_t, uint32_t>>& pubs);
  GuestTask<void> MasterPath(Thread* t, SyscallRequest req, uint64_t token);
  GuestTask<void> SlavePath(Thread* t, SyscallRequest req, uint64_t token);
  // Forward the call to GHUMVEE (4'): destroy token, restart traced.
  GuestTask<void> ForwardToGhumvee(Thread* t, SyscallRequest req);

  // VARAN-like mode: everything replicates in-process, loosely synchronized, no CP
  // fallback, overflow handled by a replica barrier instead of a GHUMVEE reset.
  GuestTask<void> VaranPath(Thread* t, SyscallRequest req);
  GuestTask<void> VaranFlushBarrier(Thread* t, int rank);
  WaitQueue* RankHeaderQueue(int rank);

  // Builds the result payload from this (master) replica's memory after execution:
  // concatenated out-regions, with epoll_event.data values translated to FDs through
  // the shadow mapping (paper §3.9).
  std::vector<uint8_t> BuildResultPayload(const SyscallRequest& req, int64_t ret);
  // Applies a payload to this (slave) replica's memory, translating FDs back to this
  // replica's epoll data values.
  void ApplyResultPayload(const SyscallRequest& req, int64_t ret,
                          const std::vector<uint8_t>& payload);

  // Records the (epfd, fd) -> data association from this replica's own epoll_ctl
  // arguments (both master and slaves record before the call is aborted in slaves).
  void RecordEpollShadow(const SyscallRequest& req);

  // Raises the intentional crash that signals GHUMVEE about an argument mismatch.
  void IntentionalCrash(Thread* t);

  // The futex wait queue for the entry's state word.
  WaitQueue* StateWordQueue(uint64_t entry_off);

  Kernel* kernel_;
  IkBroker* broker_;
  RelaxationPolicy policy_;
  FileMap* file_map_;
  Config config_;
  Process* process_ = nullptr;
  RbView rb_;
  // Where (and how much of) the file map is mapped in this replica; RemapFileMap
  // moves it when the map grows live.
  GuestAddr fm_addr_ = 0;
  uint64_t fm_mapped_bytes_ = 0;
  std::vector<IpMon*> peers_;
  RbTransport* transport_ = nullptr;  // Master of a cross-machine set; not owned.
  bool rb_private_mirror_ = false;    // Remote slave: RB is a machine-local mirror.
  std::function<void()> on_initialized_;
  std::function<void()> sync_log_flush_;  // See set_sync_log_flush.

  // Per-rank cursors/sequence numbers: this replica's private positions ("each
  // replica thread only reads and writes its own RB position", §3.2). The master's
  // IP-MON additionally owns the write cursor; they advance identically because
  // every replica computes the same entry sizes.
  std::vector<uint64_t> cursor_;
  std::vector<uint64_t> seq_;

  // epoll shadow mapping (§3.9): (epfd, fd) <-> this replica's data values, for
  // translating epoll_wait results between replicas.
  EpollShadowMap epoll_shadow_;

  // Per-rank deferred POSTCALL commits (master only; see Config::rb_batch_max).
  std::vector<RbBatch> batch_;
  // Liveness sentinel for the on_park hook (see Initialize): expires with this
  // IpMon, making the Process-held hook a safe no-op afterwards.
  std::shared_ptr<char> park_guard_ = std::make_shared<char>(0);

  const char* forward_reason_ = "?";
  uint64_t rb_resets_ = 0;
  uint64_t mismatches_tolerated_ = 0;  // VARAN-like mode tolerates small mismatches.
  std::vector<uint64_t> varan_flush_gen_;  // Per-rank flush-barrier generation.
};

}  // namespace remon

#endif  // SRC_CORE_IPMON_H_
