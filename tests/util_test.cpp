#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/atomic_file.hpp"
#include "util/bitstream.hpp"
#include "util/crc32.hpp"
#include "util/jsonl.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace fsdl {
namespace {

TEST(BitStream, FixedWidthRoundTrip) {
  BitWriter w;
  w.write_bits(0b101, 3);
  w.write_bits(0, 1);
  w.write_bits(0xdeadbeefULL, 32);
  w.write_bits(~std::uint64_t{0}, 64);
  EXPECT_EQ(w.bit_size(), 3u + 1 + 32 + 64);

  BitReader r(w);
  EXPECT_EQ(r.read_bits(3), 0b101u);
  EXPECT_EQ(r.read_bits(1), 0u);
  EXPECT_EQ(r.read_bits(32), 0xdeadbeefULL);
  EXPECT_EQ(r.read_bits(64), ~std::uint64_t{0});
  EXPECT_TRUE(r.exhausted());
}

TEST(BitStream, ZeroWidthWritesNothing) {
  BitWriter w;
  w.write_bits(123, 0);
  EXPECT_EQ(w.bit_size(), 0u);
}

TEST(BitStream, MasksValueToWidth) {
  BitWriter w;
  w.write_bits(0xff, 4);  // only the low 4 bits should land
  BitReader r(w);
  EXPECT_EQ(r.read_bits(4), 0xfu);
}

TEST(BitStream, GammaRoundTripSmallValues) {
  BitWriter w;
  for (std::uint64_t v = 1; v <= 300; ++v) w.write_gamma(v);
  BitReader r(w);
  for (std::uint64_t v = 1; v <= 300; ++v) EXPECT_EQ(r.read_gamma(), v);
}

TEST(BitStream, GammaRejectsZero) {
  BitWriter w;
  EXPECT_THROW(w.write_gamma(0), std::invalid_argument);
}

TEST(BitStream, Gamma0HandlesZero) {
  BitWriter w;
  w.write_gamma0(0);
  w.write_gamma0(41);
  BitReader r(w);
  EXPECT_EQ(r.read_gamma0(), 0u);
  EXPECT_EQ(r.read_gamma0(), 41u);
}

TEST(BitStream, RandomizedMixedRoundTrip) {
  Rng rng(99);
  for (int iter = 0; iter < 50; ++iter) {
    BitWriter w;
    std::vector<std::pair<std::uint64_t, unsigned>> fixed;
    std::vector<std::uint64_t> gammas;
    for (int k = 0; k < 200; ++k) {
      if (rng.chance(0.5)) {
        const unsigned width = 1 + static_cast<unsigned>(rng.below(64));
        const std::uint64_t value =
            rng.next() & (width == 64 ? ~0ULL : (1ULL << width) - 1);
        fixed.emplace_back(value, width);
        gammas.push_back(0);  // placeholder for ordering
        w.write_bits(value, width);
      } else {
        const std::uint64_t value = 1 + rng.below(1 << 20);
        fixed.emplace_back(0, 0);
        gammas.push_back(value);
        w.write_gamma(value);
      }
    }
    BitReader r(w);
    for (std::size_t k = 0; k < fixed.size(); ++k) {
      if (fixed[k].second > 0) {
        EXPECT_EQ(r.read_bits(fixed[k].second), fixed[k].first);
      } else {
        EXPECT_EQ(r.read_gamma(), gammas[k]);
      }
    }
    EXPECT_TRUE(r.exhausted());
  }
}

TEST(BitStream, ReaderThrowsPastEnd) {
  BitWriter w;
  w.write_bits(1, 1);
  BitReader r(w);
  r.read_bits(1);
  EXPECT_THROW(r.read_bits(1), std::out_of_range);
}

/// Value v written as `pad` one-bits, then gamma(v), optionally followed
/// by a trailer; returns the buffer.
BitWriter padded_gamma(unsigned pad, std::uint64_t v, bool trailer) {
  BitWriter w;
  w.write_bits(~std::uint64_t{0}, pad);
  w.write_gamma(v);
  if (trailer) w.write_gamma(5);
  return w;
}

// Every code length, from 1 bit (value 1) to 127 bits (64-bit values),
// starting at every offset within a word: short codes take the one-window
// path, codes past 64 bits the bit-by-bit path, and both cross word
// boundaries. Without a trailer the code ends exactly at bit_size.
TEST(BitStream, GammaEveryLengthAtEveryWordOffset) {
  for (unsigned k = 0; k < 64; ++k) {
    const std::uint64_t lo = std::uint64_t{1} << k;
    const std::uint64_t hi = lo | (lo - 1);  // 2^(k+1) - 1
    for (const std::uint64_t v : {lo, hi}) {
      for (unsigned pad = 0; pad < 64; ++pad) {
        for (const bool trailer : {false, true}) {
          const BitWriter w = padded_gamma(pad, v, trailer);
          BitReader r(w);
          ASSERT_EQ(r.read_bits(pad), pad == 0 ? 0 : (~0ULL >> (64 - pad)));
          ASSERT_EQ(r.read_gamma(), v) << "k=" << k << " pad=" << pad;
          ASSERT_EQ(r.position(), pad + 2 * k + 1);
          if (trailer) {
            ASSERT_EQ(r.read_gamma(), 5u);
          }
          ASSERT_TRUE(r.exhausted());
          ASSERT_EQ(r.remaining(), 0u);
        }
      }
    }
  }
}

// Cutting the last bit off a code (it stays set in the word, past
// bit_size) must read as truncation, never as a shorter value.
TEST(BitStream, GammaTruncatedByBitSizeThrowsOutOfRange) {
  for (unsigned k = 1; k < 64; ++k) {
    for (unsigned pad : {0u, 1u, 31u, 63u}) {
      const std::uint64_t lo = std::uint64_t{1} << k;
      const std::uint64_t v = lo | (lo - 1);  // all ones: the cut bit is set
      const BitWriter full = padded_gamma(pad, v, false);
      const BitWriter cut =
          BitWriter::from_words(full.words(), full.bit_size() - 1);
      BitReader r(cut);
      r.read_bits(pad);
      EXPECT_THROW(r.read_gamma(), std::out_of_range)
          << "k=" << k << " pad=" << pad;
    }
  }
  // Zeros only, then the end: no stop bit ever arrives.
  BitWriter zeros;
  zeros.write_bits(0, 40);
  BitReader r(zeros);
  EXPECT_THROW(r.read_gamma(), std::out_of_range);
}

TEST(BitStream, GammaWithTooManyLeadingZerosIsCorrupt) {
  for (unsigned zeros : {64u, 65u}) {
    BitWriter w;
    w.write_bits(0, 64);
    w.write_bits(0, zeros - 64);
    w.write_bits(1, 1);
    w.write_bits(~std::uint64_t{0}, 64);
    BitReader r(w);
    EXPECT_THROW(r.read_gamma(), std::runtime_error) << "zeros=" << zeros;
  }
}

// Bits at or past bit_size are not part of the stream: a buffer whose last
// word (and an extra word) is filled with ones past the end must read
// exactly like the clean one, including where it runs out.
TEST(BitStream, JunkPastBitSizeIsIgnored) {
  Rng rng(4242);
  for (int iter = 0; iter < 200; ++iter) {
    BitWriter clean;
    std::vector<std::pair<std::uint64_t, unsigned>> fields;  // width 0: gamma
    const int count = 1 + static_cast<int>(rng.below(40));
    for (int k = 0; k < count; ++k) {
      if (rng.chance(0.3)) {
        const unsigned width = 1 + static_cast<unsigned>(rng.below(64));
        const std::uint64_t value = rng.next() >> (64 - width);
        clean.write_bits(value, width);
        fields.emplace_back(value, width);
      } else {
        const std::uint64_t value = (rng.next() >> rng.below(64)) | 1;
        clean.write_gamma(value);
        fields.emplace_back(value, 0);
      }
    }
    // Trailing zeros, so a junk one past the end would complete a code.
    const unsigned tail = static_cast<unsigned>(rng.below(8));
    clean.write_bits(0, tail);
    std::vector<std::uint64_t> words = clean.words();
    const unsigned used = clean.bit_size() % 64;
    if (used != 0) words.back() |= ~std::uint64_t{0} << used;
    words.push_back(~std::uint64_t{0});
    const BitWriter junk =
        BitWriter::from_words(std::move(words), clean.bit_size());

    BitReader a(clean), b(junk);
    for (const auto& [value, width] : fields) {
      if (width == 0) {
        ASSERT_EQ(a.read_gamma(), value);
        ASSERT_EQ(b.read_gamma(), value);
      } else {
        ASSERT_EQ(a.read_bits(width), value);
        ASSERT_EQ(b.read_bits(width), value);
      }
    }
    ASSERT_EQ(b.remaining(), tail);
    EXPECT_THROW(b.read_gamma(), std::out_of_range) << "tail=" << tail;
    EXPECT_THROW(a.read_gamma(), std::out_of_range) << "tail=" << tail;
  }
}

/// CRC-32 one bit at a time, straight from the reflected polynomial.
std::uint32_t bitwise_crc32(const std::uint8_t* p, std::size_t size,
                            std::uint32_t seed) {
  std::uint32_t c = ~seed;
  for (std::size_t k = 0; k < size; ++k) {
    c ^= p[k];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (c >> 1) ^ 0xEDB88320u : c >> 1;
    }
  }
  return ~c;
}

TEST(Crc32, KnownAnswers) {
  const char check[] = "123456789";
  EXPECT_EQ(crc32(check, 9), 0xCBF43926u);
  EXPECT_EQ(crc32(check, 0), 0u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
  EXPECT_EQ(crc32(nullptr, 0, 0x12345678u), 0x12345678u);
  // Incremental: any split continues the same running checksum.
  for (std::size_t cut = 0; cut <= 9; ++cut) {
    EXPECT_EQ(crc32(check + cut, 9 - cut, crc32(check, cut)), 0xCBF43926u)
        << "cut=" << cut;
  }
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthOffsetAndSeed) {
  for (std::uint64_t data_seed : {1u, 2u, 3u}) {
    Rng rng(data_seed);
    std::vector<std::uint8_t> buf(8 + 300);
    for (auto& byte : buf) byte = static_cast<std::uint8_t>(rng.next());
    for (std::uint32_t seed : {0u, 0xFFFFFFFFu,
                               static_cast<std::uint32_t>(rng.next())}) {
      for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t len = 0; len <= 300; ++len) {
          const std::uint8_t* p = buf.data() + offset;
          ASSERT_EQ(crc32(p, len, seed), bitwise_crc32(p, len, seed))
              << "len=" << len << " offset=" << offset << " seed=" << seed;
        }
      }
    }
  }
}

TEST(BitsFor, KnownValues) {
  EXPECT_EQ(bits_for(1), 1u);
  EXPECT_EQ(bits_for(2), 1u);
  EXPECT_EQ(bits_for(3), 2u);
  EXPECT_EQ(bits_for(4), 2u);
  EXPECT_EQ(bits_for(5), 3u);
  EXPECT_EQ(bits_for(256), 8u);
  EXPECT_EQ(bits_for(257), 9u);
}

TEST(Rng, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(2);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, SampleDistinctProducesDistinctInRange) {
  Rng rng(3);
  const auto sample = rng.sample_distinct(100, 30);
  ASSERT_EQ(sample.size(), 30u);
  std::vector<bool> seen(100, false);
  for (Vertex v : sample) {
    ASSERT_LT(v, 100u);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(Summary, OrderStatistics) {
  Summary s;
  for (int v : {5, 1, 9, 3, 7}) s.add(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 9.0);
  EXPECT_DOUBLE_EQ(s.percentile(20), 1.0);
}

TEST(Summary, EmptyThrows) {
  Summary s;
  EXPECT_THROW(s.min(), std::logic_error);
  EXPECT_THROW(s.mean(), std::logic_error);
  EXPECT_THROW(s.percentile(50), std::logic_error);
}

TEST(Summary, AddAfterQueryStillCorrect) {
  Summary s;
  s.add(2);
  EXPECT_DOUBLE_EQ(s.max(), 2.0);
  s.add(10);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
}

TEST(Histogram, ExactMomentsEstimatedPercentiles) {
  Histogram h(1.25);
  Summary exact;
  Rng rng(7);
  for (int k = 0; k < 5000; ++k) {
    const double x = 1.0 + 999.0 * rng.uniform();
    h.add(x);
    exact.add(x);
  }
  EXPECT_EQ(h.count(), 5000u);
  EXPECT_DOUBLE_EQ(h.min(), exact.min());
  EXPECT_DOUBLE_EQ(h.max(), exact.max());
  // Mean accumulates in stream order, Summary in sorted order: equal up to
  // floating-point associativity.
  EXPECT_NEAR(h.mean(), exact.mean(), 1e-9 * exact.mean());
  // Percentile estimates land within one bucket width (factor `growth`).
  for (double p : {10.0, 50.0, 90.0, 95.0, 99.0}) {
    const double est = h.percentile(p);
    const double ref = exact.percentile(p);
    EXPECT_GE(est, ref / 1.25) << "p=" << p;
    EXPECT_LE(est, ref * 1.25 * 1.05) << "p=" << p;
  }
}

TEST(Histogram, PercentileClampedToObservedRange) {
  Histogram h;
  h.add(3.0);
  h.add(5.0);
  EXPECT_DOUBLE_EQ(h.percentile(0), 3.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 5.0);
  EXPECT_GE(h.median(), 3.0);
  EXPECT_LE(h.median(), 5.0);
}

TEST(Histogram, HandlesZeroAndNegativeSamples) {
  Histogram h;
  h.add(0.0);
  h.add(-2.5);
  h.add(4.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), -2.5);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
  EXPECT_DOUBLE_EQ(h.sum(), 1.5);
  // Rank-1 and rank-2 samples sit in the underflow bucket -> exact min.
  EXPECT_DOUBLE_EQ(h.percentile(50), -2.5);
}

TEST(Histogram, MergeMatchesCombinedStream) {
  Histogram a(1.25), b(1.25), combined(1.25);
  Rng rng(11);
  for (int k = 0; k < 1000; ++k) {
    const double x = std::pow(10.0, 4.0 * rng.uniform());
    (k % 2 == 0 ? a : b).add(x);
    combined.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_DOUBLE_EQ(a.min(), combined.min());
  EXPECT_DOUBLE_EQ(a.max(), combined.max());
  EXPECT_DOUBLE_EQ(a.sum(), combined.sum());
  for (double p : {25.0, 50.0, 75.0, 99.0}) {
    EXPECT_DOUBLE_EQ(a.percentile(p), combined.percentile(p)) << "p=" << p;
  }
}

TEST(Histogram, MergeShiftedDistributions) {
  // Disjoint value ranges (three decades apart) force the merge to splice
  // bucket arrays with different offsets, not just add aligned slots.
  Histogram low(1.25), high(1.25), combined(1.25);
  Rng rng(13);
  for (int k = 0; k < 500; ++k) {
    const double a = 1.0 + 9.0 * rng.uniform();       // [1, 10)
    const double b = 1e4 * (1.0 + 9.0 * rng.uniform());  // [1e4, 1e5)
    low.add(a);
    high.add(b);
    combined.add(a);
    combined.add(b);
  }
  low.merge(high);
  EXPECT_EQ(low.count(), combined.count());
  EXPECT_DOUBLE_EQ(low.min(), combined.min());
  EXPECT_DOUBLE_EQ(low.max(), combined.max());
  // Summation order differs between the two accumulations.
  EXPECT_NEAR(low.sum(), combined.sum(), 1e-9 * combined.sum());
  for (double p : {10.0, 50.0, 90.0, 99.0}) {
    EXPECT_DOUBLE_EQ(low.percentile(p), combined.percentile(p)) << "p=" << p;
  }
  // p25 sits in the low cloud, p75 in the high cloud.
  EXPECT_LT(low.percentile(25), 11.0);
  EXPECT_GT(low.percentile(75), 9999.0);
}

TEST(Histogram, MergeEmptyEitherDirection) {
  Histogram filled(1.25), empty(1.25);
  for (double x : {1.0, 5.0, 80.0}) filled.add(x);

  Histogram a = filled;
  a.merge(empty);  // no-op
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.sum(), filled.sum());
  EXPECT_DOUBLE_EQ(a.percentile(50), filled.percentile(50));

  Histogram b(1.25);
  b.merge(filled);  // adopt everything
  EXPECT_EQ(b.count(), 3u);
  EXPECT_DOUBLE_EQ(b.min(), 1.0);
  EXPECT_DOUBLE_EQ(b.max(), 80.0);

  Histogram c(1.25);
  c.merge(empty);
  EXPECT_TRUE(c.empty());
}

TEST(Histogram, QuantileWithinDocumentedRelativeError) {
  // The class documents percentile error of one bucket width: the estimate
  // may be off from the exact order statistic by at most a factor of
  // `growth`. Check p50 and p99 against an exact Summary on the same
  // stream, for a coarse and a fine histogram.
  for (double growth : {1.5, 1.05}) {
    Histogram h(growth);
    Summary exact;
    Rng rng(17);
    for (int k = 0; k < 20000; ++k) {
      const double x = std::pow(10.0, 3.0 * rng.uniform());
      h.add(x);
      exact.add(x);
    }
    for (double p : {50.0, 99.0}) {
      const double est = h.percentile(p);
      const double ref = exact.percentile(p);
      EXPECT_LE(est, ref * growth * (1 + 1e-12))
          << "p=" << p << " growth=" << growth;
      EXPECT_GE(est, ref / growth * (1 - 1e-12))
          << "p=" << p << " growth=" << growth;
    }
  }
}

TEST(Histogram, BucketsSumToCountWithIncreasingUppers) {
  Histogram h(1.25);
  Rng rng(19);
  h.add(-3.0);  // underflow bucket
  h.add(0.0);
  for (int k = 0; k < 1000; ++k) {
    h.add(std::pow(10.0, 4.0 * rng.uniform()));
  }
  const auto buckets = h.buckets();
  ASSERT_FALSE(buckets.empty());
  EXPECT_DOUBLE_EQ(buckets.front().upper, 0.0);  // x <= 0 leads
  EXPECT_EQ(buckets.front().count, 2u);
  std::uint64_t total = 0;
  double prev_upper = -1.0;
  for (const auto& b : buckets) {
    EXPECT_GT(b.count, 0u) << "empty buckets must be skipped";
    EXPECT_GT(b.upper, prev_upper) << "uppers must increase";
    prev_upper = b.upper;
    total += b.count;
  }
  EXPECT_EQ(total, h.count());
  // Every sample is <= the top bucket's upper edge.
  EXPECT_GE(buckets.back().upper, h.max());

  EXPECT_TRUE(Histogram(1.25).buckets().empty());
}

TEST(Histogram, MergeRejectsMismatchedScales) {
  Histogram a(1.25), b(2.0);
  b.add(1.0);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(Histogram, AddNMatchesRepeatedAdd) {
  // add_n(x, n) is how FLEET_STATS reconstructs a shard's histogram from
  // its Prometheus buckets; it must be indistinguishable from n plain adds.
  Histogram bulk(1.25), loop(1.25);
  const struct { double x; std::uint64_t n; } samples[] = {
      {0.5, 3}, {12.0, 7}, {9000.0, 1}, {-1.0, 2}};
  for (const auto& s : samples) {
    bulk.add_n(s.x, s.n);
    for (std::uint64_t k = 0; k < s.n; ++k) loop.add(s.x);
  }
  EXPECT_EQ(bulk.count(), loop.count());
  EXPECT_DOUBLE_EQ(bulk.min(), loop.min());
  EXPECT_DOUBLE_EQ(bulk.max(), loop.max());
  EXPECT_DOUBLE_EQ(bulk.sum(), loop.sum());
  for (double p : {10.0, 50.0, 90.0}) {
    EXPECT_DOUBLE_EQ(bulk.percentile(p), loop.percentile(p)) << "p=" << p;
  }

  Histogram h(1.25);
  h.add_n(4.0, 0);  // zero-count add is a no-op
  EXPECT_TRUE(h.empty());
}

TEST(Histogram, EmptyThrowsAndResetClears) {
  Histogram h;
  EXPECT_THROW(h.min(), std::logic_error);
  EXPECT_THROW(h.percentile(50), std::logic_error);
  h.add(1.0);
  EXPECT_FALSE(h.empty());
  h.reset();
  EXPECT_TRUE(h.empty());
  EXPECT_THROW(h.mean(), std::logic_error);
}

TEST(Jsonl, WriterEmitsStableFlatObject) {
  JsonlWriter w;
  w.field("svc", "router")
      .field_u64("pid", 4242)
      .field_hex64("span", 0xdeadbeefULL)
      .field_hex128("trace", 0x0123456789abcdefULL, 0xfedcba9876543210ULL)
      .field_double("dur_us", 12.5);
  EXPECT_EQ(w.line(),
            "{\"svc\":\"router\",\"pid\":4242,"
            "\"span\":\"00000000deadbeef\","
            "\"trace\":\"0123456789abcdeffedcba9876543210\","
            "\"dur_us\":12.5}");
}

TEST(Jsonl, EscapeHandlesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(json_escape(std::string("nul\0byte", 8)), "nul\\u0000byte");
  EXPECT_EQ(json_escape("line\nbreak"), "line\\nbreak");
}

TEST(Jsonl, WriterParserRoundTripWithEscapes) {
  JsonlWriter w;
  w.field("name", "weird \"quoted\"\tvalue\\path").field_u64("n", 7);
  JsonlRecord rec;
  std::string error;
  ASSERT_TRUE(parse_jsonl(w.line(), rec, error)) << error;
  EXPECT_EQ(rec.get("name"), "weird \"quoted\"\tvalue\\path");
  EXPECT_EQ(rec.get("n"), "7");
  EXPECT_TRUE(rec.has("name"));
  EXPECT_FALSE(rec.has("absent"));
  EXPECT_EQ(rec.get("absent", "dflt"), "dflt");
}

TEST(Jsonl, ParserRejectsMalformedLines) {
  JsonlRecord rec;
  std::string error;
  EXPECT_FALSE(parse_jsonl("", rec, error));
  EXPECT_FALSE(parse_jsonl("not json", rec, error));
  EXPECT_FALSE(parse_jsonl("{\"a\":1", rec, error));  // truncated
  EXPECT_FALSE(parse_jsonl("{\"a\":{\"nested\":1}}", rec, error));
  EXPECT_FALSE(parse_jsonl("{\"a\":[1,2]}", rec, error));
  EXPECT_FALSE(parse_jsonl("{\"a\":1}trailing", rec, error));
}

TEST(Table, AlignedOutputContainsCells) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(42LL);
  t.row().cell("b").cell(3.14159, 2);
  std::ostringstream os;
  t.print(os, "demo");
  const std::string s = os.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_NE(s.find("3.14"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.row().cell(1LL).cell(2LL);
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

namespace {
std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}
}  // namespace

TEST(AtomicFile, WritesAndReplaces) {
  const std::string path = ::testing::TempDir() + "atomic_file_basic.txt";
  ASSERT_TRUE(atomic_write_file(path, "first"));
  EXPECT_EQ(slurp(path), "first");
  // Replacement is atomic: the new content fully supersedes the old.
  ASSERT_TRUE(atomic_write_file(path, "second, longer content"));
  EXPECT_EQ(slurp(path), "second, longer content");
  std::remove(path.c_str());
}

TEST(AtomicFile, FailedWriteLeavesTargetUntouched) {
  const std::string path =
      ::testing::TempDir() + "no_such_dir_zz/atomic_file.txt";
  std::string error;
  EXPECT_FALSE(atomic_write_file(path, "doomed", &error));
  EXPECT_NE(error, "");
  EXPECT_EQ(slurp(path), "");  // target never appeared
}

TEST(AtomicFile, LeftoverTmpFromACrashDoesNotShadowTheTarget) {
  // Simulate a crash mid-save from a previous process: a stale .tmp with
  // garbage sits next to the target. A fresh atomic write must succeed
  // and the garbage must not survive as the visible file.
  const std::string path = ::testing::TempDir() + "atomic_file_crash.txt";
  ASSERT_TRUE(atomic_write_file(path, "good old content"));
  {
    std::ofstream tmp(path + ".tmp", std::ios::binary);
    tmp << "torn half-written garb";
  }
  EXPECT_EQ(slurp(path), "good old content") << "tmp must not be visible";
  ASSERT_TRUE(atomic_write_file(path, "good new content"));
  EXPECT_EQ(slurp(path), "good new content");
  // Each writer uses its own mkstemp name, so the stale tmp was neither
  // reused nor renamed into place — two concurrent writers can never
  // publish each other's half-written bytes through a shared tmp inode.
  EXPECT_EQ(slurp(path + ".tmp"), "torn half-written garb");
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

}  // namespace
}  // namespace fsdl
