#include "checks.h"

#include <cstdio>

#include "src/apps/zelos/zelos.h"

namespace perfbench {

using delos::table::Row;
using delos::table::Value;
using delos::zelos::ZelosApplicator;

ZnodeRead ReadZnode(const delos::ROTxn& snapshot, const std::string& path) {
  ZnodeRead read;
  const auto bytes = snapshot.Get(ZelosApplicator::NodeKey(path));
  if (!bytes.has_value()) {
    return read;
  }
  const auto record = ZelosApplicator::NodeRecord::Decode(*bytes);
  read.found = true;
  read.version = record.stat.version;
  read.data_bytes = record.data.size();
  return read;
}

std::string CheckZelosWrite(int64_t returned_version, int64_t known_before_issue) {
  if (returned_version <= known_before_issue) {
    return "SetData returned version " + std::to_string(returned_version) +
           ", but version " + std::to_string(known_before_issue) +
           " had completed before it was issued";
  }
  return "";
}

std::string CheckZelosRead(const ZnodeRead& read, int64_t min_version) {
  if (!read.found) {
    return "GetData found no node";
  }
  if (read.version < min_version) {
    return "GetData read version " + std::to_string(read.version) + " after version " +
           std::to_string(min_version) + " had completed";
  }
  return "";
}

std::optional<Row> ReadRow(const delos::ROTxn& snapshot, int64_t pk) {
  const auto bytes = snapshot.Get(delos::table::TableApplicator::RowKey(kTable, Value(pk)));
  if (!bytes.has_value()) {
    return std::nullopt;
  }
  delos::Deserializer de(*bytes);
  return delos::table::ReadRow(de);
}

std::vector<Row> LookupOwner(const delos::ROTxn& snapshot, const std::string& owner) {
  const std::string prefix = delos::table::TableApplicator::IndexPrefix(kTable, "owner", owner);
  std::vector<Row> rows;
  for (const auto& [index_key, unused] : snapshot.ScanPrefix(prefix)) {
    size_t offset = prefix.size();
    const Value pk = delos::table::DecodeOrdered(index_key, &offset);
    const auto bytes = snapshot.Get(delos::table::TableApplicator::RowKey(kTable, pk));
    if (bytes.has_value()) {
      delos::Deserializer de(*bytes);
      rows.push_back(delos::table::ReadRow(de));
    }
  }
  return rows;
}

std::string CheckTableGet(const std::optional<Row>& row, int64_t pk) {
  if (!row.has_value()) {
    return "Get(" + std::to_string(pk) + ") found no row";
  }
  const auto it = row->find("k");
  if (it == row->end() || it->second != Value(pk)) {
    return "Get(" + std::to_string(pk) + ") returned another row";
  }
  return "";
}

std::string CheckIndexLookup(const std::vector<Row>& rows, const std::string& owner) {
  for (const Row& row : rows) {
    const auto it = row.find("owner");
    if (it == row.end() || it->second != Value(owner)) {
      return "IndexLookup(" + owner + ") returned a row of another owner";
    }
  }
  return "";
}

std::string CheckConverged(const ReplicaState& a, const ReplicaState& b) {
  if (a.applied != b.applied) {
    return "replicas stopped at different positions " + std::to_string(a.applied) + " and " +
           std::to_string(b.applied);
  }
  if (a.checksum != b.checksum) {
    return "replica checksums differ at position " + std::to_string(a.applied);
  }
  if (a.digest_mismatches != 0 || b.digest_mismatches != 0) {
    return "digest plane reported a mismatch";
  }
  return "";
}

int RunCheckerSelfTest() {
  int wrong = 0;
  const auto expect = [&](const char* what, const std::string& verdict, bool should_fail) {
    const bool failed = !verdict.empty();
    if (failed != should_fail) {
      std::fprintf(stderr, "checker self-test: %s was %s\n", what,
                   failed ? "rejected" : "accepted");
      ++wrong;
    }
  };
  expect("fresh SetData", CheckZelosWrite(6, 5), false);
  expect("SetData that did not advance the version", CheckZelosWrite(5, 5), true);
  expect("current GetData", CheckZelosRead(ZnodeRead{true, 5, 100}, 5), false);
  expect("stale GetData", CheckZelosRead(ZnodeRead{true, 4, 100}, 5), true);
  expect("GetData of a missing znode", CheckZelosRead(ZnodeRead{}, 0), true);

  const Row row7 = {{"k", Value(int64_t{7})}, {"owner", Value(std::string("o1"))}};
  const Row row8 = {{"k", Value(int64_t{8})}, {"owner", Value(std::string("o2"))}};
  expect("Get of the right row", CheckTableGet(row7, 7), false);
  expect("Get of a missing row", CheckTableGet(std::nullopt, 7), true);
  expect("Get returning another row", CheckTableGet(row8, 7), true);
  expect("IndexLookup with matching owners", CheckIndexLookup({row7}, "o1"), false);
  expect("IndexLookup with a wrong-owner row", CheckIndexLookup({row7, row8}, "o1"), true);

  expect("converged replicas", CheckConverged({10, 42, 0}, {10, 42, 0}), false);
  expect("checksum mismatch", CheckConverged({10, 42, 0}, {10, 43, 0}), true);
  expect("digest mismatch", CheckConverged({10, 42, 1}, {10, 42, 0}), true);
  expect("positions differ", CheckConverged({10, 42, 0}, {11, 42, 0}), true);
  return wrong;
}

}  // namespace perfbench
