#include "src/backup/backup_store.h"

namespace delos {

void InMemoryBackupStore::PutObject(const std::string& name, const std::string& bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  objects_[name] = bytes;
}

std::optional<std::string> InMemoryBackupStore::GetObject(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = objects_.find(name);
  if (it == objects_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::vector<std::string> InMemoryBackupStore::ListObjects(const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  for (auto it = objects_.lower_bound(prefix); it != objects_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) {
      break;
    }
    names.push_back(it->first);
  }
  return names;
}

}  // namespace delos
