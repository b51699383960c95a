// Test helper: a labeling file that passes every CRC yet carries label bits
// no builder wrote. Shared by the tests that check how files, the wire and
// the level-graph store rebuild treat such labels.
#pragma once

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

#include "core/labeling.hpp"
#include "core/serialize.hpp"
#include "util/bitstream.hpp"
#include "util/crc32.hpp"

namespace fsdl::splice {

/// `scheme` with v's stored label bits replaced by `bits`, through a
/// save → splice → re-checksum → load round trip. Walks the v3 body layout
/// documented in core/serialize.hpp. The result carries no level-graph
/// store, as any loaded labeling.
inline ForbiddenSetLabeling with_label_bits(const ForbiddenSetLabeling& scheme,
                                            Vertex v, const BitWriter& bits) {
  std::stringstream saved;
  save_labeling(scheme, saved);
  const std::string file = saved.str();
  constexpr std::size_t kHeader = 4 + 4 + 8;  // magic, version, body_size
  const std::string body = file.substr(kHeader, file.size() - kHeader - 4);
  const auto u32_at = [&](std::size_t at) {
    std::uint32_t x;
    std::memcpy(&x, body.data() + at, sizeof x);
    return x;
  };
  const auto u64_at = [&](std::size_t at) {
    std::uint64_t x;
    std::memcpy(&x, body.data() + at, sizeof x);
    return x;
  };
  const auto append = [](std::string& out, const void* p, std::size_t n) {
    out.append(static_cast<const char*>(p), n);
  };
  // params 14 + levels/bits/codec 9 + partition 20, then n and stored.
  std::size_t at = 43 + 4;
  const std::uint32_t stored = u32_at(at);
  at += 4;
  std::string spliced = body.substr(0, at);
  for (std::uint32_t i = 0; i < stored; ++i) {
    const std::uint32_t vertex = u32_at(at);
    const std::size_t record = 4 + 8 + 8 + 8 * u64_at(at + 12);
    if (vertex != v) {
      spliced += body.substr(at, record);
    } else {
      const std::uint64_t bit_size = bits.bit_size();
      const std::uint64_t words = bits.words().size();
      append(spliced, &vertex, 4);
      append(spliced, &bit_size, 8);
      append(spliced, &words, 8);
      append(spliced, bits.words().data(), 8 * words);
    }
    at += record;
  }
  std::string out = file.substr(0, 8);
  const std::uint64_t body_size = spliced.size();
  const std::uint32_t crc = crc32(spliced.data(), spliced.size());
  append(out, &body_size, 8);
  out += spliced;
  append(out, &crc, 4);
  std::stringstream in(out);
  return load_labeling(in);
}

/// `label` re-encoded in `scheme`'s own format.
inline BitWriter encode_like(const ForbiddenSetLabeling& scheme,
                             const VertexLabel& label) {
  BitWriter bits;
  encode_label(label, scheme.vertex_bits(), bits, scheme.codec());
  return bits;
}

}  // namespace fsdl::splice
