#include "src/common/checksum.h"

#include <bit>
#include <cstring>

namespace delos {

uint64_t Fnv1a64(std::string_view data, uint64_t seed) {
  uint64_t hash = seed;
  for (const char c : data) {
    hash ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    hash *= 1099511628211ULL;
  }
  return hash;
}

namespace {

// Little-endian assembly of the next n (1..7) bytes, written out explicitly
// so the digest is identical on any platform.
inline uint64_t LoadLE(const char* data, size_t n) {
  uint64_t word = 0;
  for (size_t i = 0; i < n; ++i) {
    word |= static_cast<uint64_t>(static_cast<unsigned char>(data[i])) << (8 * i);
  }
  return word;
}

// The next 8 bytes as a little-endian word: one load. GCC at -O2 does not
// fold LoadLE's byte loop into a load even for n = 8, and the byte loop was
// most of the cost of hashing a checkpoint.
inline uint64_t LoadWordLE(const char* data) {
  uint64_t word;
  std::memcpy(&word, data, sizeof(word));
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  return word;
}

// FNV-style mixing over 8-byte words instead of bytes: one multiply per word
// is ~8x the throughput of the classic byte loop. The input length is folded
// in at the end so a short chunk and the same chunk zero-padded cannot
// collide (the word loop cannot tell "a" from "a\0" by itself). Only
// PairHash uses this — it sits on the store-checksum hot path (every commit,
// every digest-beacon fold); Fnv1a64 stays byte-wise for callers that want
// the classic digest.
inline uint64_t FnvWords(std::string_view data, uint64_t hash) {
  const char* p = data.data();
  size_t n = data.size();
  while (n >= 8) {
    hash = (hash ^ LoadWordLE(p)) * 1099511628211ULL;
    p += 8;
    n -= 8;
  }
  if (n > 0) {
    hash = (hash ^ LoadLE(p, n)) * 1099511628211ULL;
  }
  return (hash ^ data.size()) * 1099511628211ULL;
}

}  // namespace

uint64_t IncrementalChecksum::PairHash(std::string_view key, std::string_view value) {
  // Domain-separate key and value (each chunk folds its own length into the
  // chain) so that ("ab","c") and ("a","bc") hash differently.
  uint64_t h = FnvWords(key, 14695981039346656037ULL);
  h = (h ^ 0x1f) * 1099511628211ULL;  // separator
  h = FnvWords(value, h);
  // Avalanche (splitmix64 finalizer) so XOR-combining pair hashes does not
  // cancel structure shared between related pairs.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

}  // namespace delos
