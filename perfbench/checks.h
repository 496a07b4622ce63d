// Result checkers. Every op the benchmark issues is checked by one of
// these; each returns "" for a correct result and a reason otherwise, and
// every non-empty reason counts as a failed op.
//
// The reads go through the apps' public key helpers and decoders, the same
// way ZelosClient::GetData and TableClient::Get / IndexLookup serve them,
// so the time of ReadZnode / ReadRow / LookupOwner is the app's read cost.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/apps/delostable/table_db.h"
#include "src/localstore/localstore.h"

namespace perfbench {

// --- Zelos ---

struct ZnodeRead {
  bool found = false;
  int64_t version = 0;
  size_t data_bytes = 0;
};
ZnodeRead ReadZnode(const delos::ROTxn& snapshot, const std::string& path);

// A SetData must return a version above every version a SetData to the
// same znode had returned before this one was issued.
std::string CheckZelosWrite(int64_t returned_version, int64_t known_before_issue);
// A GetData must find the znode, at a version at least that of the newest
// SetData to it that completed before the read was issued.
std::string CheckZelosRead(const ZnodeRead& read, int64_t min_version);

// --- DelosTable: kv(k int64 pk, owner string indexed, v string) ---

inline constexpr char kTable[] = "kv";

std::optional<delos::table::Row> ReadRow(const delos::ROTxn& snapshot, int64_t pk);
std::vector<delos::table::Row> LookupOwner(const delos::ROTxn& snapshot, const std::string& owner);

// Get(k) must return row k.
std::string CheckTableGet(const std::optional<delos::table::Row>& row, int64_t pk);
// Every IndexLookup row must carry the queried owner.
std::string CheckIndexLookup(const std::vector<delos::table::Row>& rows, const std::string& owner);

// --- Replica convergence after catch-up ---

struct ReplicaState {
  delos::LogPos applied = 0;
  uint64_t checksum = 0;
  uint64_t digest_mismatches = 0;
};
// Two replicas at the same applied position must hold identical stores,
// and neither digest plane may have seen a mismatch.
std::string CheckConverged(const ReplicaState& a, const ReplicaState& b);

// Feeds every checker known-good and known-bad results; returns the number
// of checker verdicts that were wrong (0 = all checkers work).
int RunCheckerSelfTest();

}  // namespace perfbench
