#include "util/bitstream.hpp"

#include <bit>
#include <stdexcept>

namespace fsdl {

void BitWriter::write_bits(std::uint64_t value, unsigned width) {
  if (width > 64) throw std::invalid_argument("BitWriter: width > 64");
  if (width == 0) return;
  if (width < 64) value &= (std::uint64_t{1} << width) - 1;

  const std::size_t word_index = bit_size_ / 64;
  const unsigned offset = static_cast<unsigned>(bit_size_ % 64);
  if (word_index >= words_.size()) words_.push_back(0);
  words_[word_index] |= value << offset;
  if (offset + width > 64) {
    words_.push_back(value >> (64 - offset));
  }
  bit_size_ += width;
}

void BitWriter::write_gamma(std::uint64_t value) {
  if (value == 0) throw std::invalid_argument("gamma code requires value >= 1");
  const unsigned len = 64 - static_cast<unsigned>(std::countl_zero(value));
  write_bits(0, len - 1);          // len-1 zeros
  write_bits(1, 1);                // stop bit
  write_bits(value, len - 1);      // remaining bits below the leading one
}

std::uint64_t BitReader::read_gamma_slow() {
  unsigned zeros = 0;
  while (read_bits(1) == 0) {
    ++zeros;
    if (zeros > 64) throw std::runtime_error("gamma code corrupt");
  }
  // No value below 2^64 has 64 leading zeros.
  if (zeros == 64) throw std::runtime_error("gamma code corrupt");
  const std::uint64_t low = zeros == 0 ? 0 : read_bits(zeros);
  return (std::uint64_t{1} << zeros) | low;
}

void BitReader::throw_bad_width() {
  throw std::invalid_argument("BitReader: width > 64");
}

void BitReader::throw_past_end() {
  throw std::out_of_range("BitReader: past end");
}

unsigned bits_for(std::uint64_t n) noexcept {
  if (n <= 2) return 1;
  return 64 - static_cast<unsigned>(std::countl_zero(n - 1));
}

}  // namespace fsdl
