// BackupStore: the external blob store that log segments and LocalStore
// snapshots are uploaded to (the paper's backup service for Point-in-Time
// restore, §4.2). The one implementation is in memory; a durable store
// would implement the same three calls.
#pragma once

#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace delos {

class BackupStore {
 public:
  virtual ~BackupStore() = default;

  virtual void PutObject(const std::string& name, const std::string& bytes) = 0;
  virtual std::optional<std::string> GetObject(const std::string& name) const = 0;
  virtual std::vector<std::string> ListObjects(const std::string& prefix) const = 0;
};

class InMemoryBackupStore : public BackupStore {
 public:
  void PutObject(const std::string& name, const std::string& bytes) override;
  std::optional<std::string> GetObject(const std::string& name) const override;
  std::vector<std::string> ListObjects(const std::string& prefix) const override;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::string> objects_;
};

}  // namespace delos
