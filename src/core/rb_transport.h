// RB transport: carries the replication stream between machines.
//
// For replica sets that span simulated machines, the leader's IP-MON cannot reach
// remote slaves through shared frames. Instead each remote replica gets a *private
// mirror* of the RB (a machine-local SysV segment; see ShmRegistry::MirrorFor), and
// the replication stream travels as RbWireCodec frames over a StreamSocket pair:
//
//   leader machine                               remote machine
//   ┌────────────────────┐   frames (merged      ┌─────────────────────────┐
//   │ master IP-MON      │   while unsent)       │ RemoteSyncAgent         │
//   │  └─ RbTransport ───┼──────────────────────▶│  └─ applies entry images│
//   │     (send queue)   │◀──────────────────────┼─     into the RB mirror,│
//   │                    │   cumulative acks     │      wakes futex waiters│
//   │                    │                       │ slave IP-MON (unchanged)│
//   └────────────────────┘                       └─────────────────────────┘
//
// The slave-side fast path is untouched: a remote slave waits on, checks, and
// consumes RB entries exactly as a leader-local slave does — the agent replays the
// leader's publications into the mirror with the state-word flip last, so the
// transcript is byte-identical across placements.
//
// Multi-threaded replicas additionally need the master's sync-agent log
// (src/core/sync_agent.h): its appends stream as kSyncLog data frames over the
// same connection, and the remote agent replays them into the replica's
// machine-local log mirror with the tail word stored last, so BeforeAcquire
// replay is placement-transparent too.
//
// Frame merging: the master hands over every publication and every sync-log
// append when it happens; the transport is the one place that coalesces them.
// Per remote, a publication merges into the newest queued frame of its kind that
// has not started writing (kEntries of the same rank, or kSyncLog continuing at
// the next log index), up to a fixed payload cap; a results publication replaces
// its entry's arguments-only record when that is the frame's last one. A frame
// gets its frame_seq, its seal/CRC and its FrameMeta only when the pump starts
// writing it, so an idle link sends one frame per publication and a backlogged
// link sends fewer, larger ones. Merging never crosses a snapshot frame (those
// are stamped when enqueued), and the wire format is the same either way.
//
// Lag bound: the transport itself never blocks the leader; its send queue is
// bounded by the two gates that bound a remote slave's lag structurally. The RB
// cannot start a new lap until every replica, remote ones included, reaches
// GHUMVEE's reset round (kRemonRbFlush), so a remote's mirror never trails the
// leader by more than one RB lap. The sync-log wrap gate bounds the sync stream
// the same way: an append waits until every replica's acked replay cursor is
// within one log lap of it.
//
// Remote death: a peer FIN/RST (or an agent Shutdown) marks the remote dead, bumps
// the stream epoch so stale frames of the torn connection cannot be confused with
// a future stream, and reports through the on_remote_death callback (wired to
// GHUMVEE's divergence shutdown) — a lost machine ends the run with a report,
// never a hang.
//
// Join handshake: every connection opens with a JOIN_ATTEST from the agent — the
// replica's index, its config digest, its placement and its sync-log replay
// cursor (sealed when --rb-auth is on). The leader writes nothing to a connection
// until that JOIN verifies against the digest and the machine it commanded, so
// every stream checks what it joins, authenticated or not.
//
// Replica re-seed: instead of shrinking the set permanently, the front end can
// attach a *replacement* replica at the post-bump epoch (Remon::SpawnReplacement /
// --respawn-on-death). AddReplacement revives the dead remote's slot on a fresh
// connection and ships nothing until the replacement's JOIN verifies; the front
// end then cuts the leader checkpoint against the cursor the JOIN carries and
// hands it to EnqueueSnapshot. The checkpoint's sequenced frames
// (kSnapshotDelta/kSnapshotChunk/kSnapshotEnd, src/core/snapshot.h) lead the
// stream; data frames published afterwards queue behind it in order, so the
// replacement's mirror is exactly the leader's RB at every point it observes.
// Snapshot frames share the sequence space and cumulative acks of entry frames;
// while one is in flight, GHUMVEE parks the RB reset round and file-map-changing
// rounds (SnapshotInflight) so the image stays valid until the replacement
// applied it.
//
// O(delta) re-seed (wire v5): the transport additionally folds every remote's
// cumulative acks into a per-slot RbDeltaBasis — per rank, the highest entry
// offset the replica provably applied, plus the send-time file-map version
// horizon. A replacement for a replica whose basis is still usable gets a
// checkpoint that resumes at those offsets instead of re-shipping the whole RB
// (the empty basis), which is what keeps recovery cost flat as buffers grow.
//
// Respawn-as-migration: DetachForMigration retires a live remote's link without
// the death side effects, so the front end can re-attach the same replica on a
// different machine; the JOIN carries the placement and the leader verifies it
// against the machine it commanded.

#ifndef SRC_CORE_RB_TRANSPORT_H_
#define SRC_CORE_RB_TRANSPORT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/core/rb_auth.h"
#include "src/core/rb_wire.h"
#include "src/core/snapshot.h"
#include "src/net/network.h"
#include "src/sim/event_queue.h"
#include "src/sim/time.h"

namespace remon {

class IpMon;
class Kernel;

// Well-known base port remote sync agents listen on (port = base + replica index).
inline constexpr uint16_t kRbTransportPortBase = 47000;

// The leader's mutable checkpoint state, sampled when a data frame is enqueued.
// When the frame's cumulative ack arrives, the sample folds into that remote's
// delta basis (RbDeltaBasis): the replica provably applied everything the leader
// had published up to this clock, so an O(delta) re-seed may resume past it.
struct RbLeaderClock {
  uint64_t reset_generation = 0;  // IpMon::rb_resets() at send.
  uint64_t fm_version = 0;        // FileMap::version() at send.
};

// Leader-side frame pump: one connection per remote replica.
class RbTransport {
 public:
  struct Options {
    // Wire v4 authentication (nullptr = plain CRC streams). When set, every frame
    // is sealed/verified with per-epoch session keys.
    const RbAuthContext* auth = nullptr;
    // The config digest every joining replica must present (RbConfigDigest).
    uint64_t config_digest = 0;
  };

  RbTransport(Kernel* kernel, uint32_t leader_machine, Options options);
  ~RbTransport();
  RbTransport(const RbTransport&) = delete;
  RbTransport& operator=(const RbTransport&) = delete;

  // Registers (and starts connecting to) a remote replica's agent.
  void AddRemote(int replica_index, uint32_t machine, uint16_t port);

  // Revives a dead remote's slot as a replacement replica joining at the current
  // (post-bump) epoch: fresh connection, fresh per-connection sequence space, and
  // nothing shipped until the replacement's JOIN verifies. On verification
  // on_attested_join fires; the front end then cuts the leader checkpoint and
  // hands it to EnqueueSnapshot.
  void AddReplacement(int replica_index, uint32_t machine, uint16_t port);

  // Enqueues the leader checkpoint for a joined replacement (clears its
  // awaiting-snapshot gate; data frames published afterwards queue behind it).
  // `delta` marks a checkpoint cut against a non-empty basis: its framed bytes
  // also count in rb_snapshot_delta_bytes_sent.
  void EnqueueSnapshot(int replica_index, const SnapshotPayloads& snapshot, bool delta);

  // Refuses a replacement whose JOIN verified but whose claims the front end
  // cannot serve (a sync-log cursor outside the leader's log): the
  // slot dies like one with a digest mismatch, counted in rb_auth_join_rejects.
  void RefuseAttestedJoin(int replica_index, const char* reason);

  // Invoked from inside the pump when a replacement's JOIN verifies, with the
  // replica index and the sync-log replay cursor it claims. Implementations must
  // defer heavy work (e.g. checkpointing) to a scheduled event.
  void set_on_attested_join(std::function<void(int, uint64_t)> cb) {
    on_attested_join_ = std::move(cb);
  }

  // Queues one publication toward every live remote, merging it into an unsent
  // kEntries frame of the same rank where one is open (see the header comment).
  // A results publication whose entry's arguments-only record is the last one
  // of that frame replaces the record: the receiver then flips the entry
  // straight to results-ready, as a local slave would observe it after both
  // commits. Never blocks: frames queue locally, bounded by the RB reset round.
  void SendEntry(int rank, RbWireEntry entry);

  // Queues sync-agent log records toward every live remote, merging them into an
  // unsent kSyncLog frame that ends at `start_index`. Sync frames are ordinary
  // data frames: same sequence space, same cumulative acks as entry frames; the
  // sync-log wrap gate bounds them.
  void SendSyncLog(uint64_t start_index, const std::vector<RbSyncLogRecord>& records);

  // Stream epoch: starts at 1, bumped on every remote death.
  uint32_t epoch() const { return epoch_; }
  int live_remotes() const;
  bool any_remote_dead() const { return deaths_ > 0; }

  // Invoked once per remote death with the replica index (after the epoch bump).
  void set_on_remote_death(std::function<void(int)> cb) { on_remote_death_ = std::move(cb); }

  // True when `replica_index` is served by this transport (its replica is remote).
  bool IsRemote(int replica_index) const;
  // True when `replica_index`'s link is down (or was never served here): the
  // respawn path uses this to tell a migration of a live replica (detach first)
  // from a replacement for a dead one.
  bool RemoteLinkDead(int replica_index) const;
  // v4 wrap-gate channel: the highest sync-log replay cursor `replica_index` has
  // piggybacked on its acks (0 before any cursor arrived; frozen across death —
  // a dead replica's last acknowledged cursor still gates overwrites until its
  // replacement acks a fresh one). A JOIN's cursor is a claim, never latched.
  uint64_t SyncCursorFor(int replica_index) const;
  // Invoked (with the replica index) whenever an ack advances a replay cursor —
  // wired to the master sync agent's wraparound gate.
  void set_on_sync_cursor(std::function<void(int)> cb) { on_sync_cursor_ = std::move(cb); }

  // Leader clock sampled when an entry frame is opened; folded into the sender
  // slot's delta basis when the frame's cumulative ack arrives. Unset, acks still
  // advance the per-rank offsets but the file-map horizon stays 0 (a delta then
  // ships every dirty file-map page — correct, just larger).
  void set_leader_clock(std::function<RbLeaderClock()> fn) {
    leader_clock_ = std::move(fn);
  }

  // What the leader knows `replica_index`'s mirror already holds, folded from its
  // cumulative acks: the horizon Remon::ReseedBasis cuts a checkpoint
  // against. Survives death on purpose — it describes the mirror the
  // dead replica leaves behind, which is exactly what its replacement resumes
  // from. Invalid (default) for a replica this transport never served.
  RbDeltaBasis DeltaBasisFor(int replica_index) const;

  // Respawn-as-migration: quietly retires a *live* remote's link so a replacement
  // can be attached on a different machine. Bumps the epoch and clears the slot's
  // queues like a death, but fires no on_remote_death (the caller is the one
  // respawning) and counts no rb_remote_deaths — the replica is moving, not lost.
  // The latched sync cursor and the delta basis survive, like they do for deaths.
  void DetachForMigration(int replica_index);

  // True while a replacement checkpoint is in flight on a live link: enqueued
  // but not yet cumulatively acked through its End frame (the End ack doubles as
  // apply confirmation). GHUMVEE parks the RB reset round on this — a reset
  // between capture and apply rebases every offset under the image — and so does
  // every round that changes the shared file map the image was checked against.
  bool SnapshotInflight() const;

 private:
  // Send-time metadata for one unacked entry frame: when the cumulative ack
  // covers frame_seq, the remote provably holds every entry of the frame, so the
  // rank's delta horizon advances to its highest entry offset and the version
  // horizons to the leader clock sampled when the frame was opened (never later
  // than its first entry, so the basis claims no more than the replica applied).
  struct FrameMeta {
    uint64_t frame_seq = 0;
    uint32_t rank = 0;
    uint64_t max_entry_off = 0;
    RbLeaderClock clock;
  };

  // One queued leader-to-replica frame. A data frame stays open — no frame_seq,
  // no seal, no FrameMeta — until the pump starts writing it, so publications of
  // its kind merge in; `wire` holds its stamped bytes from then on.
  struct QueuedFrame {
    RbFrameType type = RbFrameType::kEntries;
    uint32_t rank = 0;           // kEntries: the RB sub-buffer.
    uint32_t count = 0;          // Entry or sync records merged so far.
    uint64_t sync_end = 0;       // kSyncLog: log index after the last record.
    uint64_t max_entry_off = 0;  // kEntries: the FrameMeta horizon.
    // kEntries: the entry of the last record while that record carries the
    // arguments only (0 otherwise; no entry sits at RB offset 0), and where
    // the record starts in `payload`.
    uint64_t args_only_off = 0;
    size_t last_record_at = 0;
    RbLeaderClock clock;         // kEntries: sampled when the frame was opened.
    std::vector<uint8_t> payload;
    std::vector<uint8_t> wire;   // Stamped frame bytes; empty while open.
  };

  struct Remote {
    int replica_index = -1;
    std::shared_ptr<StreamSocket> sock;
    std::deque<QueuedFrame> sendq;  // Frames not yet fully written.
    size_t sendq_head_off = 0;      // Partial-write offset into sendq.front().wire.
    uint64_t frames_sent = 0;       // Data frames stamped (frame_seq source).
    uint64_t frames_acked = 0;               // Highest cumulative ack received.
    RbFrameParser parser;                    // For the ack stream.
    uint64_t observer_id = 0;
    bool dead = false;
    // Join state: nothing is written until the JOIN verifies (`attested`); a
    // replacement additionally holds data until its checkpoint is enqueued.
    // max_peer_epoch enforces epoch monotonicity on received frames;
    // sync_cursor latches the ack-piggybacked replay cursor (monotonic max).
    bool attested = false;
    bool awaiting_snapshot = false;
    uint32_t max_peer_epoch = 0;
    uint64_t sync_cursor = 0;
    // The placement this slot was told to connect to; the JOIN must attest
    // exactly it (a replacement cannot claim a machine it was not given).
    uint32_t machine = 0;
    // Pending-connect watchdog (kConnectTimeout); cancelled the moment the
    // socket leaves the SYN state or the slot dies/revives.
    EventQueue::EventId connect_timer = 0;
    // O(delta) re-seed state: per-frame send metadata awaiting its cumulative
    // ack, and the basis those acks fold into. Both cleared on death/detach
    // except the basis itself — unacked frames may never have arrived, but
    // everything already folded is mirror content the replica provably holds.
    std::deque<FrameMeta> unacked;
    RbDeltaBasis basis;
    // Sequence of the last checkpoint frame enqueued on this connection; the
    // join is in flight until frames_acked covers it (0 = no checkpoint sent).
    uint64_t snapshot_last_seq = 0;
  };

  void Pump(Remote& r);       // Drain sendq into the socket; read acks.
  // Writes queued frames as far as the socket window accepts, stamping each
  // frame as its first byte goes out. False on a hard write error.
  bool WriteQueued(Remote& r);
  // Gives an open frame its frame_seq, wire bytes, seal and FrameMeta.
  void Stamp(Remote& r, QueuedFrame& f);
  // The open frame a publication of this kind merges into, or nullptr: the
  // newest unstamped frame of the kind, if it continues at `sync_start`
  // (kSyncLog) and stays under the merge cap with `add` more payload bytes.
  QueuedFrame* MergeTarget(Remote& r, RbFrameType type, uint32_t rank,
                           uint64_t sync_start, size_t add);
  void MarkDead(Remote& r, const char* why);
  // Folds newly acked entry frames' metadata into the slot's delta basis.
  void FoldAckedMeta(Remote& r);
  // Arms / cancels the pending-connect watchdog for a slot.
  void ArmConnectTimer(Remote& r);
  void DisarmConnectTimer(Remote& r);
  // Opens the slot's connection to `machine`:`port` with a fresh per-connection
  // state (sequence space, queues, parser, join state), dropping any previous
  // socket's observer first. Shared by first connections and replacements.
  void Connect(Remote& r, uint32_t machine, uint16_t port);
  void EnqueueSnapshotFrames(Remote& r, const SnapshotPayloads& snapshot, bool delta);
  // The slot of a joined replacement still waiting for its checkpoint, or
  // nullptr when there is none (not joined yet, already served, or dead).
  Remote* AttestedReplacement(int replica_index);
  // Seals `frame` when authentication is on (no-op otherwise).
  void Seal(std::vector<uint8_t>* frame);
  // Verifies a JOIN; returns false when the link was torn.
  bool HandleAttest(Remote& r, const RbWireFrame& frame);

  Kernel* kernel_;
  uint32_t leader_machine_;
  Options options_;
  uint32_t epoch_ = 1;
  uint64_t deaths_ = 0;
  std::function<void(int)> on_remote_death_;
  std::function<void(int)> on_sync_cursor_;
  std::function<void(int, uint64_t)> on_attested_join_;
  std::function<RbLeaderClock()> leader_clock_;
  std::vector<std::unique_ptr<Remote>> remotes_;
};

class SyncAgent;

// Remote-side agent: accepts the leader's connection on its machine, replays
// entry frames into the local replica's RB mirror (and sync-log frames into the
// replica's sync-agent log mirror), and acknowledges.
class RemoteSyncAgent {
 public:
  // The agent opens every connection with a JOIN carrying `config_digest`;
  // `auth` (nullptr = plain CRC stream) verifies/opens leader frames and seals
  // the JOIN and acks.
  RemoteSyncAgent(Kernel* kernel, IpMon* mon, uint32_t machine, uint16_t port,
                  const RbAuthContext* auth, uint64_t config_digest);
  ~RemoteSyncAgent();
  RemoteSyncAgent(const RemoteSyncAgent&) = delete;
  RemoteSyncAgent& operator=(const RemoteSyncAgent&) = delete;

  // The local replica's record/replay agent: kSyncLog frames replay into its
  // machine-local log mirror. Unset for single-threaded (agent-less) workloads —
  // receiving a sync frame without one is a configuration divergence.
  void set_sync_agent(SyncAgent* agent) { sync_agent_ = agent; }

  // Binds + listens; call before the leader's RbTransport connects.
  void Start();

  // The local replica's IP-MON finished Initialize (the RB mirror view is valid):
  // drain any frames that arrived early.
  void OnReplicaRbReady();

  // Tears the link down (FIN to the leader) — the remote-machine-death experiment.
  void Shutdown();

  uint64_t frames_applied() const { return frames_applied_; }
  uint64_t entries_applied() const { return entries_applied_; }
  uint64_t frames_rejected() const { return frames_rejected_; }
  // Re-seed observability: completed snapshot joins through this agent, and the
  // GHUMVEE lockstep cursor recorded in the last applied checkpoint (the
  // synchronization point the replacement resumed from).
  uint64_t joins() const { return joins_; }
  uint64_t last_join_lockstep_cursor() const { return last_join_lockstep_cursor_; }
  // The epoch floor this agent enforces on data frames (0 before any join).
  uint32_t join_epoch() const { return join_epoch_; }

  // v4 wrap gate: a cursor-bearing ack re-announcing the last applied frame, sent
  // when the local replica's replay cursor advances with the log full from its
  // perspective — the master parked on the wraparound gate unblocks on it.
  void SendCursorUpdate();

  // True once this agent tore its link down (corrupt/forged/stale frame, refused
  // join, or a deliberate Shutdown).
  bool link_torn() const { return shutdown_; }

  // Test seam: runs one decoded frame through the same dispatch DrainConn uses
  // (join-epoch floor, readiness pending, apply + ack). Returns true when the
  // frame was applied; the floor and divergence tests assert the false cases.
  bool InjectFrameForTest(RbWireFrame frame);
  // Test seam for active-adversary scenarios: raw bytes through the full receive
  // pipeline (parser + MAC verification + dispatch), as if read off the socket.
  void InjectRawBytesForTest(const uint8_t* data, size_t len);
  // Test seam: enqueue pre-built (possibly tampered) ack-stream bytes to the
  // leader, bypassing sealing — the compromised-replica simulation.
  void SendRawAckForTest(std::vector<uint8_t> frame);
  // Test seam: attest a different digest than the genuine one (mismatched-config
  // joiner).
  void OverrideAttestDigestForTest(uint64_t digest) { config_digest_ = digest; }
  // Test seam: attest this sync-log replay cursor instead of the replica's own
  // (a compromised joiner lying about how far it replayed).
  void OverrideAttestCursorForTest(uint64_t cursor) { attest_cursor_override_ = cursor; }

 private:
  void OnListenerPoll();
  void OnConnPoll();
  void DrainConn();
  void ProcessParsedFrames();
  // One decoded frame through the receive pipeline: snapshot handshake, data-type
  // filter, join-epoch floor, readiness pending, apply + ack.
  void HandleFrame(RbWireFrame frame);
  // True when the view the frame replays into (RB mirror or sync-log mirror) is
  // attached; frames arriving earlier wait in pending_.
  bool ReadyFor(const RbWireFrame& frame) const;
  void ApplyFrame(const RbWireFrame& frame);
  bool ApplyEntry(uint32_t rank, const RbWireEntry& entry);
  bool ApplySyncLog(const RbWireFrame& frame);
  void HandleSnapshotFrame(const RbWireFrame& frame);
  void SendAck(uint32_t epoch, uint64_t frame_seq);
  void FlushAckQueue();

  Kernel* kernel_;
  IpMon* mon_;
  SyncAgent* sync_agent_ = nullptr;
  uint32_t machine_;
  uint16_t port_;
  std::shared_ptr<StreamSocket> listener_;
  std::shared_ptr<StreamSocket> conn_;
  uint64_t listener_observer_ = 0;
  uint64_t conn_observer_ = 0;
  RbFrameParser parser_;
  std::vector<RbWireFrame> pending_;  // Frames received before the mirror exists.
  std::deque<std::vector<uint8_t>> ackq_;
  size_t ackq_head_off_ = 0;
  bool shutdown_ = false;
  uint64_t frames_applied_ = 0;
  uint64_t entries_applied_ = 0;
  uint64_t frames_rejected_ = 0;
  // Replica re-seed: checkpoint reassembly and the join-epoch floor — entry
  // frames older than the epoch the join was seeded at are stale by definition
  // (docs/RB_WIRE_FORMAT.md, "Join handshake").
  SnapshotAssembler assembler_;
  uint32_t join_epoch_ = 0;
  uint64_t joins_ = 0;
  uint64_t last_join_lockstep_cursor_ = 0;
  // Authentication context (nullptr on plain streams), the digest the JOIN
  // presents, and the replay gates — epoch must never regress across any frame
  // type, and data frame_seq is strictly increasing per connection. last_ack_*
  // lets cursor updates re-announce the newest applied frame.
  const RbAuthContext* auth_ = nullptr;
  uint64_t config_digest_ = 0;
  std::optional<uint64_t> attest_cursor_override_;
  uint32_t max_epoch_seen_ = 0;
  uint64_t max_data_seq_ = 0;
  uint32_t last_ack_epoch_ = 0;
  uint64_t last_ack_seq_ = 0;
};

}  // namespace remon

#endif  // SRC_CORE_RB_TRANSPORT_H_
