// Names the calling thread, so that /proc/<pid>/task/*/comm, top -H and
// debuggers tell the long-lived threads apart.
#pragma once

#include <pthread.h>

#include <string>
#include <string_view>

namespace delos {

// Linux keeps at most 15 bytes of a thread name; longer names are cut.
inline void SetCurrentThreadName(std::string_view name) {
  const std::string cut(name.substr(0, 15));
  pthread_setname_np(pthread_self(), cut.c_str());
}

}  // namespace delos
