// Assembles production-shaped engine stacks (paper Figure 6).
//
//   DelosTable stack: Base | Digest | LogBackup | BrainDoctor | ViewTracking
//   Zelos stack:      Base | Digest | LogBackup | BrainDoctor | ViewTracking
//                          | SessionOrder | Batching
//   Passive (non-voting follower) stack: Base | Digest | BrainDoctor
//     (no ViewTracking: passive servers must not be counted as durable
//     replicas; no Batching/SessionOrder: they do not propose)
//
// Optionally layers an ObserverEngine above each engine (the production
// monitoring practice behind Figure 11) and inserts the 2021 engines (Time,
// Lease) that had not reached production when the paper's data was
// collected.
#pragma once

#include "src/backup/backup_store.h"
#include "src/core/cluster.h"
#include "src/engines/batching_engine.h"
#include "src/engines/brain_doctor_engine.h"
#include "src/engines/digest_engine.h"
#include "src/engines/lease_engine.h"
#include "src/engines/log_backup_engine.h"
#include "src/engines/observer_engine.h"
#include "src/engines/session_order_engine.h"
#include "src/engines/time_engine.h"
#include "src/engines/view_tracking_engine.h"

namespace delos {

struct StackConfig {
  bool view_tracking = true;
  bool brain_doctor = true;
  bool log_backup = false;   // requires backup_store
  bool session_order = false;
  bool batching = false;
  bool time = false;
  bool lease = false;
  // Digest-beacon divergence detection (DigestEngine, bottom of the middle
  // stack so its apply-side digest sees the prefix before this record; each
  // beacon opens its own group commit, so that prefix is the committed
  // state).
  bool digest = true;
  // Layer an ObserverEngine above every engine (incl. the BaseEngine).
  bool observers = false;

  BackupStore* backup_store = nullptr;
  uint64_t backup_segment_size = 64;
  size_t batch_max_entries = 64;
  int64_t lease_ttl_micros = 500'000;
  int64_t lease_guard_epsilon_micros = 50'000;
  int64_t eject_after_micros = 0;
  // ViewTracking heartbeat interval (0 = only piggyback on app proposals).
  int64_t view_heartbeat_micros = 0;
  // Digest beacon cadence: header every N proposals (0 = off). Idle
  // clusters cross-check only when a driver calls ProposeBeaconNow.
  uint64_t digest_beacon_every = 64;
  // Deploy the digest layer disabled (phase one of two-phase insertion): it
  // sits in the stack and forwards entries but checks no beacons until
  // EnableViaLog. The plane-overhead bench uses this to price enabling the
  // plane on a stack that already carries the layer.
  bool digest_start_enabled = true;
  Clock* clock = nullptr;
};

// The Figure 6 production configurations.
StackConfig DelosTableStackConfig(BackupStore* backup_store);
StackConfig ZelosStackConfig(BackupStore* backup_store);
StackConfig PassiveFollowerStackConfig();

// Adds the configured engines (bottom-up) to the server. Call inside a
// Cluster::StackBuilder before attaching the application.
void BuildStack(ClusterServer& server, const StackConfig& config);

}  // namespace delos
