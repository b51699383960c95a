#include "shard/wire_label.hpp"

#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "shard/shard_store.hpp"

namespace fsdl::shard {
namespace {

constexpr std::uint8_t kWireLabelVersion = 1;

/// Most levels a wire label may span. Radii clamp at 2^30 and vertex ids
/// are u32, so no labeling needs more; the bound keeps a label that claims
/// millions of empty levels from costing a level table each.
constexpr std::uint32_t kMaxWireLevels = 64;

template <typename T>
void append_pod(std::string& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Bounds-checked reader mirroring the encoder; every length is validated
/// before memory is touched (the blob crossed a network).
class BlobReader {
 public:
  explicit BlobReader(const std::string& blob)
      : data_(blob.data()), size_(blob.size()) {}

  template <typename T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (size_ - pos_ < sizeof(T)) {
      throw std::runtime_error("wire label truncated");
    }
    T value{};
    std::memcpy(&value, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  std::vector<std::uint64_t> words(std::uint64_t num_words) {
    if (num_words > (size_ - pos_) / sizeof(std::uint64_t)) {
      throw std::runtime_error("wire label corrupt (word count exceeds blob)");
    }
    std::vector<std::uint64_t> out(static_cast<std::size_t>(num_words));
    std::memcpy(out.data(), data_ + pos_,
                static_cast<std::size_t>(num_words) * sizeof(std::uint64_t));
    pos_ += static_cast<std::size_t>(num_words) * sizeof(std::uint64_t);
    return out;
  }

  bool done() const noexcept { return pos_ == size_; }

 private:
  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string encode_wire_label(const ForbiddenSetLabeling& scheme, Vertex v,
                              std::uint64_t epoch) {
  const BitWriter& bits = ShardStore::raw_label(scheme, v);
  std::string out;
  out.reserve(64 + bits.words().size() * sizeof(std::uint64_t));
  append_pod(out, kWireLabelVersion);
  append_pod(out, scheme.params().epsilon);
  append_pod(out, static_cast<std::uint32_t>(scheme.params().c));
  append_pod(out, static_cast<std::uint8_t>(scheme.params().faithful_radii));
  append_pod(out,
             static_cast<std::uint8_t>(scheme.params().lowest_level_all_pairs));
  append_pod(out, static_cast<std::uint32_t>(scheme.top_level()));
  append_pod(out, static_cast<std::uint32_t>(scheme.vertex_bits()));
  append_pod(out, static_cast<std::uint8_t>(scheme.codec()));
  append_pod(out, static_cast<std::uint32_t>(scheme.num_vertices()));
  append_pod(out, epoch);
  append_pod(out, static_cast<std::uint32_t>(v));
  append_pod(out, static_cast<std::uint64_t>(bits.bit_size()));
  append_pod(out, static_cast<std::uint64_t>(bits.words().size()));
  out.append(reinterpret_cast<const char*>(bits.words().data()),
             bits.words().size() * sizeof(std::uint64_t));
  return out;
}

WireLabel decode_wire_label(const std::string& blob, Vertex expected_n) {
  BlobReader r(blob);
  const std::uint8_t version = r.pod<std::uint8_t>();
  if (version != kWireLabelVersion) {
    throw std::runtime_error("unsupported wire label version " +
                             std::to_string(version));
  }
  WireLabel out;
  out.meta.params.epsilon = r.pod<double>();
  out.meta.params.c = r.pod<std::uint32_t>();
  out.meta.params.faithful_radii = r.pod<std::uint8_t>() != 0;
  out.meta.params.lowest_level_all_pairs = r.pod<std::uint8_t>() != 0;
  out.meta.top_level = r.pod<std::uint32_t>();
  out.meta.vertex_bits = r.pod<std::uint32_t>();
  out.meta.codec = static_cast<LabelCodec>(r.pod<std::uint8_t>());
  out.meta.total_n = r.pod<std::uint32_t>();
  out.meta.epoch = r.pod<std::uint64_t>();
  out.vertex = r.pod<std::uint32_t>();
  if (out.meta.vertex_bits == 0 || out.meta.vertex_bits > 32) {
    throw std::runtime_error("wire label corrupt (vertex bits)");
  }
  if (out.vertex >= out.meta.total_n) {
    throw std::runtime_error("wire label corrupt (vertex out of range)");
  }
  if (expected_n != 0 && out.meta.total_n != expected_n) {
    throw std::runtime_error("wire label reports n=" +
                             std::to_string(out.meta.total_n) +
                             " but the fleet has n=" +
                             std::to_string(expected_n));
  }
  // Labels span levels c + 1 .. top_level.
  const std::uint64_t min_level = std::uint64_t{out.meta.params.c} + 1;
  if (min_level > out.meta.top_level ||
      out.meta.top_level - min_level >= kMaxWireLevels) {
    throw std::runtime_error("wire label corrupt (level range)");
  }
  const std::uint64_t bits = r.pod<std::uint64_t>();
  const std::uint64_t num_words = r.pod<std::uint64_t>();
  if (bits == 0 || num_words < bits / 64 + (bits % 64 != 0)) {
    throw std::runtime_error("wire label corrupt (bit count)");
  }
  const BitWriter buffer =
      BitWriter::from_words(r.words(num_words), static_cast<std::size_t>(bits));
  if (!r.done()) {
    throw std::runtime_error("wire label corrupt (trailing bytes)");
  }
  BitReader reader(buffer);
  out.store = LevelGraphStore::decode(
      reader, out.meta.vertex_bits, out.meta.codec, out.meta.total_n,
      static_cast<unsigned>(min_level), out.meta.top_level);
  if (!out.store.has_label(out.vertex)) {
    throw std::runtime_error(
        "wire label corrupt (decoded owner does not match tagged vertex)");
  }
  return out;
}

}  // namespace fsdl::shard
