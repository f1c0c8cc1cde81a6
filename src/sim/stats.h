// Simulation-wide counters.
//
// Populated by the kernel and the monitors; read by the benchmark harness, tests, and
// run reports. All counters are cumulative over a Simulator's lifetime.

#ifndef SRC_SIM_STATS_H_
#define SRC_SIM_STATS_H_

#include <cstdint>
#include <vector>

namespace remon {

// Per-stream-epoch RB transport breakdown. The flat rb_* transport counters in
// SimStats are cumulative across epoch bumps (a remote death must never erase the
// pre-death history from a run report); these rows attribute the same traffic to
// the epoch it happened in, so a report shows where a replica set lost and
// re-seeded members.
struct RbEpochStats {
  uint32_t epoch = 0;
  uint64_t frames_sent = 0;      // Data frames (entries + snapshot) enqueued.
  uint64_t frames_acked = 0;     // Acks consumed by the leader.
  uint64_t frames_applied = 0;   // Frames replayed into remote mirrors.
  uint64_t snapshot_frames = 0;  // Re-seed checkpoint frames among frames_sent.
  uint64_t deaths = 0;           // Remote links that died while this epoch was live.
  uint64_t joins = 0;            // Replacement replicas re-seeded into this epoch.
};

struct SimStats {
  // System calls.
  uint64_t syscalls_total = 0;
  uint64_t syscalls_monitored = 0;    // Handled by the CP monitor (lockstep).
  uint64_t syscalls_unmonitored = 0;  // Handled by IP-MON.
  uint64_t syscalls_mastercall = 0;   // Executed only in the master.

  // ptrace traffic.
  uint64_t ptrace_stops = 0;
  uint64_t ptrace_resumes = 0;
  uint64_t vm_copies = 0;
  uint64_t vm_copy_bytes = 0;

  // IK-B broker.
  uint64_t tokens_issued = 0;
  uint64_t tokens_verified = 0;
  uint64_t tokens_revoked = 0;
  uint64_t ikb_forward_ipmon = 0;
  uint64_t ikb_forward_ghumvee = 0;

  // Replication buffer.
  uint64_t rb_entries = 0;
  uint64_t rb_bytes = 0;
  uint64_t rb_resets = 0;
  uint64_t rb_spin_waits = 0;
  uint64_t rb_futex_waits = 0;
  uint64_t rb_futex_wakes_elided = 0;
  uint64_t rb_batched_entries = 0;  // POSTCALL commits deferred into a batch.
  uint64_t rb_batch_flushes = 0;    // Coalesced publications (one wakeup each).
  uint64_t rb_precall_coalesced = 0;  // PRECALL publications deferred into a batch.
  uint64_t rb_batch_window_grows = 0;    // Adaptive window steps up (no pressure).
  uint64_t rb_batch_window_shrinks = 0;  // Adaptive window steps down (pressure).
  uint64_t rb_park_flushes = 0;  // Kernel park-hook safety-net flushes.
  uint64_t rb_migrations = 0;    // Per-replica RB moves (RemonOptions::rb_migration).

  // RB network transport (cross-machine replica sets). Cumulative over the whole
  // run — epoch bumps never reset them; rb_epochs below carries the breakdown.
  uint64_t rb_frames_sent = 0;        // Data frames enqueued toward remote agents.
  uint64_t rb_frame_bytes_sent = 0;   // Framed bytes (headers + entry images).
  uint64_t rb_frames_acked = 0;       // Acks consumed by the leader.
  uint64_t rb_frames_applied = 0;     // Frames replayed into remote RB mirrors.
  uint64_t rb_entries_applied = 0;    // Entry images replayed into mirrors.
  uint64_t rb_transport_stalls = 0;   // Leader flush points parked on backpressure.
  uint64_t rb_remote_deaths = 0;      // Remote links torn down (epoch bumps).

  // Replica re-seed (snapshot join after an epoch bump).
  uint64_t rb_replica_respawns = 0;       // Replacement attempts launched.
  uint64_t rb_replica_joins = 0;          // Snapshots applied: replica back in the set.
  uint64_t rb_snapshot_frames_sent = 0;   // Begin/chunk/end frames enqueued.
  uint64_t rb_snapshot_bytes_sent = 0;    // Framed snapshot bytes.
  uint64_t rb_snapshot_chunks_applied = 0;
  uint64_t rb_snapshot_rejects = 0;       // Joins refused (validation/CRC/protocol).
  uint64_t rb_snapshot_entries_restored = 0;  // Entries re-published by restores.
  uint64_t rb_snapshot_epoll_lag = 0;     // Leader shadow keys the joiner lacked.
  uint64_t rb_snapshot_delta_captures = 0;  // Re-seeds cut against a non-empty basis.
  uint64_t rb_snapshot_delta_bytes_sent = 0;  // Framed bytes of those re-seeds only.
  uint64_t rb_snapshot_full_fallbacks = 0;  // Delta requested but basis unusable.
  uint64_t rb_reset_join_stalls = 0;  // RB flush rounds parked on an in-flight re-seed.
  uint64_t rb_replica_migrations = 0;  // Respawns placed on a different machine.
  uint64_t file_map_grows = 0;         // Live FileMap page-count growths published.

  // RB transport authentication (wire v4, --rb-auth; src/core/rb_auth.h).
  uint64_t rb_auth_frames_sealed = 0;    // Frames MAC-sealed before send (both flows).
  uint64_t rb_auth_frames_rejected = 0;  // Sealed frames refused (bad MAC / forged).
  uint64_t rb_epoch_regressions = 0;     // Stale-epoch frames that tore a link.
  uint64_t rb_auth_joins = 0;            // Join attestations the leader accepted.
  uint64_t rb_auth_join_rejects = 0;     // Attestations refused (digest mismatch).

  // Per-epoch transport breakdown (see RbEpochStats).
  std::vector<RbEpochStats> rb_epochs;

  // Finds or appends the row for `epoch`. Epochs only grow, so the vector stays
  // sorted and short (one row per remote death + 1).
  RbEpochStats& EpochRow(uint32_t epoch) {
    for (RbEpochStats& row : rb_epochs) {
      if (row.epoch == epoch) {
        return row;
      }
    }
    rb_epochs.push_back(RbEpochStats{epoch, 0, 0, 0, 0, 0, 0});
    return rb_epochs.back();
  }

  // Synchronization replication (record/replay agent).
  uint64_t sync_ops_recorded = 0;
  uint64_t sync_ops_replayed = 0;
  // Sync-agent log transport (cross-machine multi-threaded replicas) and the
  // circular log's wraparound gate.
  uint64_t sync_log_frames_sent = 0;      // kSyncLog frames enqueued (per remote).
  uint64_t sync_log_records_streamed = 0;  // Appends published to the stream (once).
  uint64_t sync_log_frames_applied = 0;   // kSyncLog frames replayed into mirrors.
  uint64_t sync_log_records_applied = 0;  // Records replayed into mirrors.
  uint64_t sync_log_wrap_stalls = 0;      // Master appends parked on a full log.
  uint64_t sync_log_append_stalls = 0;    // Master appends parked on transport backpressure.
  uint64_t sync_cursor_acks = 0;          // Acks that advanced a remote replay cursor.

  // Signals.
  uint64_t signals_raised = 0;
  uint64_t signals_deferred = 0;
  uint64_t signals_delivered = 0;

  // Security events.
  uint64_t divergences_detected = 0;
  uint64_t policy_violations = 0;
  uint64_t shm_requests_denied = 0;

  // Futexes (guest-visible).
  uint64_t futex_waits = 0;
  uint64_t futex_wakes = 0;
};

}  // namespace remon

#endif  // SRC_SIM_STATS_H_
