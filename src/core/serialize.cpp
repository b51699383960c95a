#include "core/serialize.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/atomic_file.hpp"
#include "util/crc32.hpp"
#include "util/failpoint.hpp"

namespace fsdl {
namespace {

constexpr char kMagic[4] = {'F', 'S', 'D', 'L'};
constexpr std::uint32_t kVersion = 3;

/// Refuse to even try reading bodies above this; a corrupt/garbage size
/// field must not drive allocation. 1 TiB is far beyond any labeling this
/// code can build (DESIGN.md's scale table tops out in megabits).
constexpr std::uint64_t kMaxBodyBytes = 1ull << 40;

std::atomic<std::uint64_t> g_crc_failures{0};

template <typename T>
void append_pod(std::string& out, const T& value) {
  const char* p = reinterpret_cast<const char*>(&value);
  out.append(p, sizeof(T));
}

/// Bounds-checked reader over the in-memory body. Every read is validated
/// against the body size *before* touching memory, so corrupt or
/// adversarial length fields fail cleanly instead of over-reading.
class BodyReader {
 public:
  BodyReader(const char* data, std::size_t size) : data_(data), size_(size) {}

  template <typename T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (size_ - pos_ < sizeof(T)) {
      throw std::runtime_error("labeling file corrupt (truncated body)");
    }
    T value{};
    std::memcpy(&value, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  /// num_words u64 words, bounds-checked without u64 multiply overflow.
  std::vector<std::uint64_t> words(std::uint64_t num_words) {
    if (num_words > (size_ - pos_) / sizeof(std::uint64_t)) {
      throw std::runtime_error("labeling file corrupt (word count exceeds "
                               "file size)");
    }
    std::vector<std::uint64_t> out(static_cast<std::size_t>(num_words));
    std::memcpy(out.data(), data_ + pos_,
                static_cast<std::size_t>(num_words) * sizeof(std::uint64_t));
    pos_ += static_cast<std::size_t>(num_words) * sizeof(std::uint64_t);
    return out;
  }

  std::size_t remaining() const noexcept { return size_ - pos_; }
  bool done() const noexcept { return pos_ == size_; }

 private:
  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace

std::uint64_t labeling_crc_failures() noexcept {
  return g_crc_failures.load(std::memory_order_relaxed);
}

class SchemeSerializer {
 public:
  static void save(const ForbiddenSetLabeling& scheme, std::ostream& os) {
    // Serialize the body to memory first: the CRC covers exactly the bytes
    // between the size field and the trailer.
    if (FSDL_FAILPOINT("serialize.save.alloc")) throw std::bad_alloc();
    std::string body;
    append_pod(body, scheme.params_.epsilon);
    append_pod(body, static_cast<std::uint32_t>(scheme.params_.c));
    append_pod(body, static_cast<std::uint8_t>(scheme.params_.faithful_radii));
    append_pod(
        body, static_cast<std::uint8_t>(scheme.params_.lowest_level_all_pairs));
    append_pod(body, static_cast<std::uint32_t>(scheme.top_level_));
    append_pod(body, static_cast<std::uint32_t>(scheme.vertex_bits_));
    append_pod(body, static_cast<std::uint8_t>(scheme.codec_));
    // Partition identity inside the CRC-covered body (see header comment).
    append_pod(body, scheme.partition_.shard_id);
    append_pod(body, scheme.partition_.shard_count);
    append_pod(body, scheme.partition_.ring_seed);
    append_pod(body, scheme.partition_.ring_points);
    append_pod(body, static_cast<std::uint32_t>(scheme.labels_.size()));
    // Sparse, vertex-tagged records: a shard file stores only the labels it
    // owns. Empty buffers mark unowned slots (a built label is never empty
    // — the encoder always writes a header).
    std::uint32_t stored = 0;
    for (const BitWriter& label : scheme.labels_) {
      if (label.bit_size() > 0) ++stored;
    }
    append_pod(body, stored);
    for (std::uint32_t v = 0; v < scheme.labels_.size(); ++v) {
      const BitWriter& label = scheme.labels_[v];
      if (label.bit_size() == 0) continue;
      append_pod(body, v);
      append_pod(body, static_cast<std::uint64_t>(label.bit_size()));
      append_pod(body, static_cast<std::uint64_t>(label.words().size()));
      body.append(reinterpret_cast<const char*>(label.words().data()),
                  label.words().size() * sizeof(std::uint64_t));
    }

    os.write(kMagic, sizeof(kMagic));
    const std::uint32_t version = kVersion;
    os.write(reinterpret_cast<const char*>(&version), sizeof version);
    const std::uint64_t body_size = body.size();
    os.write(reinterpret_cast<const char*>(&body_size), sizeof body_size);
    os.write(body.data(), static_cast<std::streamsize>(body.size()));
    const std::uint32_t crc = crc32(body.data(), body.size());
    os.write(reinterpret_cast<const char*>(&crc), sizeof crc);
    if (!os) throw std::runtime_error("labeling write failed");
  }

  static ForbiddenSetLabeling load(std::istream& is) {
    char magic[4];
    is.read(magic, sizeof(magic));
    if (!is || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
      throw std::runtime_error("not a fsdl labeling file");
    }
    std::uint32_t version = 0;
    is.read(reinterpret_cast<char*>(&version), sizeof version);
    if (!is) throw std::runtime_error("labeling file truncated");
    if (version != kVersion) {
      throw std::runtime_error(
          "unsupported labeling file version " + std::to_string(version) +
          " (this build reads v" + std::to_string(kVersion) +
          "; rebuild the labels with `fsdl build`)");
    }
    std::uint64_t body_size = 0;
    is.read(reinterpret_cast<char*>(&body_size), sizeof body_size);
    if (!is) throw std::runtime_error("labeling file truncated");
    if (body_size > kMaxBodyBytes) {
      throw std::runtime_error("labeling file corrupt (implausible size)");
    }
    // Chunked read: a lying size field runs into EOF after the real bytes,
    // so memory use is bounded by the actual file size, not the claim.
    std::string body;
    constexpr std::size_t kChunk = 1u << 20;
    while (body.size() < body_size) {
      const auto hit = FSDL_FAILPOINT("serialize.load.read");
      if (hit.kind == failpoint::HitKind::kErrno) {
        // A disk error mid-read looks like a failed stream to the loader,
        // exactly as a real EIO surfaces through istream::read.
        is.setstate(std::ios::failbit);
        throw std::runtime_error("labeling file truncated");
      }
      const std::size_t want = static_cast<std::size_t>(std::min<std::uint64_t>(
          hit.clamp(kChunk), body_size - body.size()));
      const std::size_t old = body.size();
      if (FSDL_FAILPOINT("serialize.load.alloc")) throw std::bad_alloc();
      body.resize(old + want);
      is.read(body.data() + old, static_cast<std::streamsize>(want));
      if (!is) throw std::runtime_error("labeling file truncated");
    }
    std::uint32_t stored_crc = 0;
    is.read(reinterpret_cast<char*>(&stored_crc), sizeof stored_crc);
    if (!is) throw std::runtime_error("labeling file truncated");
    // Simulated bit rot: corrupt the trailer we just read so the *real*
    // CRC comparison below fires, counter and all.
    if (FSDL_FAILPOINT("serialize.load.crc")) stored_crc ^= 1u;
    if (crc32(body.data(), body.size()) != stored_crc) {
      g_crc_failures.fetch_add(1, std::memory_order_relaxed);
      throw LabelingCrcError(
          "labeling file rejected: CRC32 mismatch (file is corrupt; "
          "rebuild or re-copy it)");
    }

    BodyReader r(body.data(), body.size());
    ForbiddenSetLabeling scheme;
    scheme.params_.epsilon = r.pod<double>();
    scheme.params_.c = r.pod<std::uint32_t>();
    scheme.params_.faithful_radii = r.pod<std::uint8_t>() != 0;
    scheme.params_.lowest_level_all_pairs = r.pod<std::uint8_t>() != 0;
    scheme.top_level_ = r.pod<std::uint32_t>();
    scheme.vertex_bits_ = r.pod<std::uint32_t>();
    scheme.codec_ = static_cast<LabelCodec>(r.pod<std::uint8_t>());
    // Vertex ids are u32, so a label's fixed-width id field is 1..32 bits.
    if (scheme.vertex_bits_ == 0 || scheme.vertex_bits_ > 32) {
      throw std::runtime_error("labeling file corrupt (vertex bits)");
    }
    scheme.partition_.shard_id = r.pod<std::uint32_t>();
    scheme.partition_.shard_count = r.pod<std::uint32_t>();
    scheme.partition_.ring_seed = r.pod<std::uint64_t>();
    scheme.partition_.ring_points = r.pod<std::uint32_t>();
    if (scheme.partition_.shard_count == 0 ||
        scheme.partition_.shard_id >= scheme.partition_.shard_count) {
      throw std::runtime_error("labeling file corrupt (shard id " +
                               std::to_string(scheme.partition_.shard_id) +
                               " out of range for shard count " +
                               std::to_string(scheme.partition_.shard_count) +
                               ")");
    }
    const std::uint32_t n = r.pod<std::uint32_t>();
    const std::uint32_t stored = r.pod<std::uint32_t>();
    if (stored > n) {
      throw std::runtime_error(
          "labeling file corrupt (stored label count exceeds vertex count)");
    }
    if (!scheme.partition_.sharded() && stored != n) {
      throw std::runtime_error(
          "labeling file corrupt (unsharded file missing labels)");
    }
    // Each record costs at least 20 body bytes; reject counts the body
    // cannot back before reserving.
    if (stored > r.remaining() / 20) {
      throw std::runtime_error("labeling file corrupt (label count exceeds "
                               "file size)");
    }
    scheme.labels_.assign(n, BitWriter{});
    std::uint64_t prev = 0;  // strictly ascending: next vertex >= prev
    for (std::uint32_t i = 0; i < stored; ++i) {
      const std::uint32_t v = r.pod<std::uint32_t>();
      if (v >= n || (i > 0 && v <= prev)) {
        throw std::runtime_error(
            "labeling file corrupt (label records not ascending)");
      }
      prev = v;
      const std::uint64_t bits = r.pod<std::uint64_t>();
      const std::uint64_t num_words = r.pod<std::uint64_t>();
      // A stored record must hold actual label bits — empty means unowned
      // and those slots are simply absent from the file.
      if (bits == 0) {
        throw std::runtime_error("labeling file corrupt (empty label record)");
      }
      // bits/64 never overflows; num_words is bounds-checked against the
      // remaining body inside words().
      if (num_words < bits / 64 + (bits % 64 != 0)) {
        throw std::runtime_error("labeling file corrupt (word count)");
      }
      scheme.labels_[v] = BitWriter::from_words(
          r.words(num_words), static_cast<std::size_t>(bits));
    }
    if (!r.done()) {
      throw std::runtime_error("labeling file corrupt (trailing bytes)");
    }
    return scheme;
  }
};

void save_labeling(const ForbiddenSetLabeling& scheme, std::ostream& os) {
  SchemeSerializer::save(scheme, os);
}

ForbiddenSetLabeling load_labeling(std::istream& is) {
  return SchemeSerializer::load(is);
}

void save_labeling(const ForbiddenSetLabeling& scheme,
                   const std::string& path) {
  // Crash-safe: serialize to memory, then unique tmp + fsync + rename. A
  // process killed mid-save can leave a stale `path + ".tmp.*"` behind,
  // but the file at `path` is always either the previous complete labeling
  // or the new one — never missing and never truncated.
  std::ostringstream buffer(std::ios::binary);
  save_labeling(scheme, buffer);
  const std::string bytes = buffer.str();
  std::string error;
  if (!atomic_write_file(path, bytes.data(), bytes.size(), &error)) {
    throw std::runtime_error("labeling save failed: " + error);
  }
}

ForbiddenSetLabeling load_labeling(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (FSDL_FAILPOINT("serialize.load.open")) {
    is.setstate(std::ios::failbit);
  }
  if (!is) throw std::runtime_error("cannot open for read: " + path);
  return load_labeling(is);
}

}  // namespace fsdl
