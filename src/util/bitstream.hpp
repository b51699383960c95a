// Bit-granular serialization.
//
// Label length is the headline quantity of the paper (Lemma 2.5), so labels
// are serialized to an actual bit stream and their size reported in bits,
// rather than estimated from in-memory struct sizes.
//
// Encodings provided:
//   - fixed-width unsigned fields,
//   - Elias gamma (for small positive integers of unknown magnitude),
//   - unsigned varint-style gamma for values that may be zero.
//
// Reads are word-at-a-time. BitReader peeks a 64-bit window starting at the
// read position, with every bit at or past bit_size() masked to zero, so
// junk in the last word's tail never leaks into a value. A gamma code that
// fits the window (at most 64 bits: values below 2^32) costs one
// count-trailing-zeros plus one shift and mask; longer codes and codes that
// run past the end take the bit-by-bit path, which throws as before:
// std::out_of_range past the end, std::runtime_error ("gamma code
// corrupt") for 64 or more leading zeros, which no 64-bit value has.
// Values read are identical to a bit-by-bit reader's.
#pragma once

#include <bit>
#include <cstdint>
#include <cstddef>
#include <vector>

namespace fsdl {

/// Append-only bit buffer.
class BitWriter {
 public:
  /// Append the low `width` bits of `value` (LSB first). width in [0, 64].
  void write_bits(std::uint64_t value, unsigned width);

  /// Elias gamma code for value >= 1.
  void write_gamma(std::uint64_t value);

  /// Gamma code shifted to accept 0 (encodes value + 1).
  void write_gamma0(std::uint64_t value) { write_gamma(value + 1); }

  std::size_t bit_size() const noexcept { return bit_size_; }
  const std::vector<std::uint64_t>& words() const noexcept { return words_; }

  /// Drop slack capacity; call once a label is fully written.
  void shrink_to_fit() { words_.shrink_to_fit(); }

  /// Reconstitute a buffer from persisted words (scheme deserialization).
  /// Precondition: words.size() * 64 >= bit_size.
  static BitWriter from_words(std::vector<std::uint64_t> words,
                              std::size_t bit_size) {
    BitWriter w;
    w.words_ = std::move(words);
    w.bit_size_ = bit_size;
    return w;
  }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t bit_size_ = 0;
};

/// Sequential reader over a BitWriter's buffer. The writer must outlive
/// the reader and must not be appended to while it is read.
class BitReader {
 public:
  explicit BitReader(const BitWriter& writer) noexcept
      : words_(writer.words().data()),
        num_words_(writer.words().size()),
        bit_size_(writer.bit_size()) {}

  std::uint64_t read_bits(unsigned width) {
    if (width > 64) throw_bad_width();
    if (width > remaining()) throw_past_end();
    if (width == 0) return 0;
    const std::uint64_t x = window();
    pos_ += width;
    return width == 64 ? x : x & ((std::uint64_t{1} << width) - 1);
  }

  std::uint64_t read_gamma() {
    // A code with z leading zeros is 2z + 1 bits: the window holds it
    // whole when z <= 31 and the stop bit lies before bit_size().
    const std::uint64_t x = pos_ < bit_size_ ? window() : 0;
    const auto zeros = static_cast<unsigned>(std::countr_zero(x));
    const unsigned len = 2 * zeros + 1;
    if (zeros > 31 || len > remaining()) return read_gamma_slow();
    pos_ += len;
    return (std::uint64_t{1} << zeros) |
           ((x >> (zeros + 1)) & ((std::uint64_t{1} << zeros) - 1));
  }

  std::uint64_t read_gamma0() { return read_gamma() - 1; }

  std::size_t position() const noexcept { return pos_; }
  std::size_t remaining() const noexcept { return bit_size_ - pos_; }
  bool exhausted() const noexcept { return pos_ >= bit_size_; }

 private:
  /// The 64 bits starting at pos_, zero at and past bit_size_.
  /// Precondition: pos_ < bit_size_.
  std::uint64_t window() const noexcept {
    const std::size_t w = pos_ / 64;
    const unsigned offset = static_cast<unsigned>(pos_ % 64);
    std::uint64_t x = words_[w] >> offset;
    if (offset != 0 && w + 1 < num_words_) x |= words_[w + 1] << (64 - offset);
    const std::size_t avail = remaining();
    if (avail < 64) x &= (std::uint64_t{1} << avail) - 1;
    return x;
  }

  std::uint64_t read_gamma_slow();
  [[noreturn]] static void throw_bad_width();
  [[noreturn]] static void throw_past_end();

  const std::uint64_t* words_;
  std::size_t num_words_;
  std::size_t bit_size_;
  std::size_t pos_ = 0;
};

/// Number of bits needed to store values in [0, n), at least 1.
unsigned bits_for(std::uint64_t n) noexcept;

}  // namespace fsdl
