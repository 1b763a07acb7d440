// 64-bit FNV-1a over a sequence of 64-bit words, each fed as its eight
// bytes, least significant first. Every replay trace hash in the runtime
// (fault schedule, governor transitions, scenario events) and the bench
// timeline hashes fold their records through this one helper, so equal
// record sequences hash equal wherever they are computed.
#pragma once

#include <cstdint>

namespace anole {

class Fnv1a {
 public:
  /// Folds the eight bytes of `value` into the hash.
  constexpr void mix(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xFFu;
      hash_ *= 0x100000001B3ULL;  // FNV prime
    }
  }

  constexpr std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;  // FNV offset basis
};

}  // namespace anole
