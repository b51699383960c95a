// libFuzzer harness for the labeling-file loader — the parser that faces
// bytes from disk (which rot, truncate, and tear). load_labeling must
// either return a structurally valid scheme or throw std::runtime_error;
// any crash, over-read, or unbounded allocation is a bug. The v2 format's
// CRC trailer means almost every mutation is rejected by the checksum, so
// the interesting paths are the pre-CRC header checks (magic, version,
// body size) — and mutants that fix up the CRC, which the fuzzer finds via
// the seed corpus containing a real, valid file. Every stored label of a
// file that loads is then decoded, so CRC-fixed mutants reach
// decode_label too: it must throw std::runtime_error (a count or index the
// bits cannot back) or std::out_of_range (bits ending mid-field), never
// over-read or over-allocate. The level-graph store is then rebuilt from
// those labels, as every serving path does, so mutants also reach
// LevelGraphStore::from_labeling and its induced-subgraph check.
//
// Build with -DFSDL_FUZZ=ON (clang only); run via fuzz/run_fuzzers.sh or
//   ./fuzz_serialize fuzz/corpus/serialize -max_total_time=60
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/level_store.hpp"
#include "core/serialize.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  std::stringstream ss(
      std::string(reinterpret_cast<const char*>(data), size));
  try {
    const auto scheme = fsdl::load_labeling(ss);
    // A file that loads must be structurally sound: the size accounting and
    // a save round-trip walk every label buffer the loader accepted.
    (void)scheme.total_bits();
    std::stringstream out;
    fsdl::save_labeling(scheme, out);
    for (fsdl::Vertex v = 0; v < scheme.num_vertices(); ++v) {
      if (scheme.stores_label(v)) (void)scheme.label(v);
    }
    (void)fsdl::LevelGraphStore::from_labeling(scheme).bytes();
  } catch (const std::runtime_error&) {
    // Expected for malformed input: a clean, typed rejection.
  } catch (const std::out_of_range&) {
    // A label whose bits end mid-field (BitReader past end).
  }
  return 0;
}
