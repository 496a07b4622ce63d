#include "src/engines/stacks.h"

namespace delos {

StackConfig DelosTableStackConfig(BackupStore* backup_store) {
  StackConfig config;
  config.view_tracking = true;
  config.brain_doctor = true;
  config.log_backup = backup_store != nullptr;
  config.backup_store = backup_store;
  return config;
}

StackConfig ZelosStackConfig(BackupStore* backup_store) {
  StackConfig config = DelosTableStackConfig(backup_store);
  config.session_order = true;
  config.batching = true;
  return config;
}

StackConfig PassiveFollowerStackConfig() {
  StackConfig config;
  config.view_tracking = false;  // not a durable first-class replica
  config.brain_doctor = true;
  return config;
}

void BuildStack(ClusterServer& server, const StackConfig& config) {
  const auto add_observer = [&](const std::string& label) {
    if (config.observers) {
      ObserverEngine::Options options;
      options.label = label;
      server.AddEngine<ObserverEngine>(options);
    }
  };

  add_observer("base");

  if (config.digest) {
    // Bottom of the middle stack: a beacon opens its own group commit, and
    // the digest runs before any other layer stages that record's writes, so
    // the committed checksum is exactly "state after the prefix" on every
    // replica.
    DigestEngine::Options options;
    options.server_id = server.id();
    options.beacon_every_n_proposals = config.digest_beacon_every;
    options.start_enabled = config.digest_start_enabled;
    server.AddEngine<DigestEngine>(options);
    add_observer("digest");
  }

  if (config.log_backup) {
    LogBackupEngine::Options options;
    options.server_id = server.id();
    options.backup_store = config.backup_store;
    options.log = server.base()->shared_log();
    options.segment_size = config.backup_segment_size;
    server.AddEngine<LogBackupEngine>(options);
    add_observer("logbackup");
  }

  if (config.brain_doctor) {
    BrainDoctorEngine::Options options;
    server.AddEngine<BrainDoctorEngine>(options);
    add_observer("braindoctor");
  }

  if (config.view_tracking) {
    ViewTrackingEngine::Options options;
    options.server_id = server.id();
    options.durable_position = [base = server.base()] { return base->durable_position(); };
    options.eject_after_micros = config.eject_after_micros;
    options.heartbeat_interval_micros = config.view_heartbeat_micros;
    options.clock = config.clock;
    server.AddEngine<ViewTrackingEngine>(options);
    add_observer("viewtracking");
  }

  if (config.time) {
    TimeEngine::Options options;
    options.server_id = server.id();
    options.clock = config.clock;
    server.AddEngine<TimeEngine>(options);
    add_observer("time");
  }

  if (config.session_order) {
    SessionOrderEngine::Options options;
    options.server_id = server.id();
    options.clock = config.clock;
    server.AddEngine<SessionOrderEngine>(options);
    add_observer("sessionordering");
  }

  if (config.lease) {
    LeaseEngine::Options options;
    options.server_id = server.id();
    options.lease_ttl_micros = config.lease_ttl_micros;
    options.guard_epsilon_micros = config.lease_guard_epsilon_micros;
    options.clock = config.clock;
    server.AddEngine<LeaseEngine>(options);
    add_observer("lease");
  }

  if (config.batching) {
    BatchingEngine::Options options;
    options.max_batch_entries = config.batch_max_entries;
    options.clock = config.clock;
    server.AddEngine<BatchingEngine>(options);
    add_observer("batching");
  }
}

}  // namespace delos
