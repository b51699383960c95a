// Wire form of a single vertex label — the payload of a GET_LABEL reply.
//
// The router tier splits every distance query into *fetch* (pull the raw
// label bits of s and t, and of any fault vertices it has not cached, from
// the shards that own them) and *decode* (read each label's bits straight
// into a single-label LevelGraphStore and run the forbidden-set decoder
// locally). For the fetch half to be
// self-describing, each blob carries the scheme description alongside the
// raw bits: a router can decode a label knowing nothing but the blob, and
// it can cross-check that every shard was cut from the *same* labeling
// (identical params / levels / codec / n) before ever combining labels
// from two shards into one answer. A router passes its fleet's n, so a
// blob claiming another n is refused before its bits are decoded.
//
// Blob layout (little-endian, fixed offsets, bounds-checked on decode):
//   version u8 (= 1)
//   epsilon f64, c u32, faithful_radii u8, all_pairs u8
//   top_level u32, vertex_bits u32, codec u8
//   total_n u32              — vertex count of the whole labeling
//   epoch u64                — serving snapshot epoch (informational;
//                              excluded from compatibility, see below)
//   vertex u32
//   bit_size u64, word_count u64, words u64[]
//
// The blob rides inside the response `text` field, so no response-codec
// change was needed; integrity comes from the frame CRC underneath.
#pragma once

#include <cstdint>
#include <string>

#include "core/label.hpp"
#include "core/labeling.hpp"
#include "core/level_store.hpp"
#include "core/params.hpp"
#include "util/types.hpp"

namespace fsdl::shard {

/// Scheme description carried by every wire label. Two labels may be
/// combined into one distance answer only if their metas are compatible.
struct WireLabelMeta {
  SchemeParams params;
  std::uint32_t top_level = 0;
  std::uint32_t vertex_bits = 1;
  LabelCodec codec = LabelCodec::kClassic;
  /// Vertex count of the whole labeling (not of one shard's slice).
  std::uint32_t total_n = 0;
  /// Snapshot epoch of the serving shard. Deliberately *not* part of
  /// compatible(): a restarted replica resets its epoch to 1 while serving
  /// byte-identical labels, and the labels of one scheme are position-
  /// independent — mixing epochs is safe as long as the scheme matches.
  std::uint64_t epoch = 0;

  /// Same decoding scheme (epoch excluded — see above).
  bool compatible(const WireLabelMeta& o) const noexcept {
    return params.epsilon == o.params.epsilon && params.c == o.params.c &&
           params.faithful_radii == o.params.faithful_radii &&
           params.lowest_level_all_pairs == o.params.lowest_level_all_pairs &&
           top_level == o.top_level && vertex_bits == o.vertex_bits &&
           codec == o.codec && total_n == o.total_n;
  }
};

/// A decoded GET_LABEL reply: the label as a single-label store.
struct WireLabel {
  WireLabelMeta meta;
  Vertex vertex = 0;
  LevelGraphStore store;

  LabelView label() const { return store.label(vertex); }
};

/// Serialize vertex v's raw label bits plus the scheme description.
/// Precondition: scheme.stores_label(v) — encoding an unowned slot would
/// ship an empty buffer the decoder cannot use.
std::string encode_wire_label(const ForbiddenSetLabeling& scheme, Vertex v,
                              std::uint64_t epoch);

/// Parse and decode a blob. A nonzero `expected_n` is the vertex count the
/// caller already knows (a router's fleet): a blob that reports another
/// total_n is refused before its label bits are read. Throws
/// std::runtime_error on any malformed input (truncation, version mismatch,
/// word count not covering bit_size, trailing bytes, a level range that is
/// not the scheme's or spans more than 64 levels, counts or
/// edge indices the label bits cannot back, a point id >= total_n, net
/// points out of order) and std::out_of_range on label bits that end
/// mid-field. The decoded store's size is O(label bits), whatever total_n.
WireLabel decode_wire_label(const std::string& blob, Vertex expected_n = 0);

}  // namespace fsdl::shard
