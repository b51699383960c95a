// Sharded label store: partitioner determinism and balance, lossless
// split/merge through the v3 file format, the GET_LABEL wire-label blob,
// shard-aware server refusals, and the scatter-gather router end to end
// (in-process: real sockets on ephemeral ports, no fixed-port fixtures).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "core/oracle.hpp"
#include "core/serialize.hpp"
#include "graph/fault_view.hpp"
#include "graph/generators.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "shard/partition.hpp"
#include "shard/router.hpp"
#include "shard/shard_store.hpp"
#include "shard/wire_label.hpp"
#include "splice_label.hpp"
#include "util/failpoint.hpp"

namespace fsdl {
namespace {

using server::Opcode;
using server::Request;
using server::Response;
using server::Status;
using splice::with_label_bits;

ForbiddenSetLabeling build_grid_scheme() {
  const Graph g = make_grid2d(8, 8);
  return ForbiddenSetLabeling::build(g, SchemeParams::faithful(1.0));
}

TEST(Partitioner, IndependentInstancesAgreeOnOwnership) {
  // Two partitioners built from nothing but (K, seed, points) — the only
  // state two processes share — must assign every vertex identically.
  const shard::Partitioner a(4);
  const shard::Partitioner b(4);
  for (Vertex v = 0; v < 50000; ++v) {
    const std::uint32_t owner = a.owner(v);
    ASSERT_LT(owner, 4u);
    ASSERT_EQ(owner, b.owner(v)) << "v=" << v;
  }
}

TEST(Partitioner, DifferentSeedsProduceDifferentRings) {
  const shard::Partitioner a(4, shard::kDefaultRingSeed);
  const shard::Partitioner b(4, shard::kDefaultRingSeed ^ 0xabcdef);
  std::size_t moved = 0;
  for (Vertex v = 0; v < 10000; ++v) {
    if (a.owner(v) != b.owner(v)) ++moved;
  }
  EXPECT_GT(moved, 1000u);
}

TEST(Partitioner, BalanceWithinTwentyPercentOfMean) {
  // The ISSUE gate: 10^5 sequential ids over every shard count the tools
  // are expected to run at, max/mean ownership <= 1.2.
  constexpr Vertex kIds = 100000;
  for (const std::uint32_t shards : {2u, 3u, 4u, 8u, 16u}) {
    const shard::Partitioner part(shards);
    std::vector<std::size_t> owned(shards, 0);
    for (Vertex v = 0; v < kIds; ++v) ++owned[part.owner(v)];
    const std::size_t max_owned = *std::max_element(owned.begin(), owned.end());
    const double mean = static_cast<double>(kIds) / shards;
    EXPECT_LE(static_cast<double>(max_owned) / mean, 1.2)
        << "shards=" << shards << " max=" << max_owned;
  }
}

TEST(Partitioner, UnshardedOwnsEverythingAndRejectsZeroShards) {
  const shard::Partitioner solo(1);
  for (Vertex v = 0; v < 1000; ++v) EXPECT_EQ(solo.owner(v), 0u);
  EXPECT_THROW(shard::Partitioner(0), std::invalid_argument);
}

TEST(Partitioner, OwnershipAtVertexIdBoundaries) {
  // The ids where off-by-one bugs live: vertex 0, n-1, and one past the
  // end. The first two get a deterministic in-range owner and exactly the
  // owning piece holds their label bits after a split.
  const auto scheme = build_grid_scheme();
  const Vertex n = scheme.num_vertices();
  const auto pieces = shard::split_labeling(scheme, 2);
  const shard::Partitioner ring(pieces[0].partition());
  for (const Vertex v : {static_cast<Vertex>(0), static_cast<Vertex>(n - 1)}) {
    const std::uint32_t owner = ring.owner(v);
    ASSERT_LT(owner, 2u);
    EXPECT_EQ(pieces[owner].label_bits(v), scheme.label_bits(v)) << "v=" << v;
    EXPECT_EQ(pieces[1 - owner].label_bits(v), 0u) << "v=" << v;
  }

  // Ownership is a pure hash of the id — the ring knows no n, so owner(n)
  // is well-defined — but the serving layer must reject one-past-end: the
  // shard that would own id n refuses it instead of inventing a label.
  const std::uint32_t past_owner = ring.owner(n);
  ASSERT_LT(past_owner, 2u);
  auto serving = shard::split_labeling(scheme, 2);
  server::Server srv(std::move(serving[past_owner]), server::ServerOptions{});
  Request get;
  get.opcode = Opcode::kGetLabel;
  get.pairs.emplace_back(n, 0);
  const Response oob = srv.handle(get);
  EXPECT_EQ(oob.status, Status::kError);
  EXPECT_NE(oob.text.find("out of range"), std::string::npos) << oob.text;
}

TEST(ShardStore, SplitStoresExactlyTheOwnedLabels) {
  const auto scheme = build_grid_scheme();
  const auto pieces = shard::split_labeling(scheme, 3);
  ASSERT_EQ(pieces.size(), 3u);
  for (std::uint32_t s = 0; s < 3; ++s) {
    const shard::PartitionInfo part = pieces[s].partition();
    EXPECT_EQ(part.shard_id, s);
    EXPECT_EQ(part.shard_count, 3u);
    const shard::Partitioner ring(part);
    ASSERT_EQ(pieces[s].num_vertices(), scheme.num_vertices());
    for (Vertex v = 0; v < scheme.num_vertices(); ++v) {
      if (ring.owner(v) == s) {
        EXPECT_EQ(pieces[s].label_bits(v), scheme.label_bits(v)) << "v=" << v;
      } else {
        EXPECT_EQ(pieces[s].label_bits(v), 0u) << "v=" << v;
      }
    }
  }
}

TEST(ShardStore, SplitThenMergeIsByteIdentical) {
  // The reassembly gate: split, push every piece through the v3 serializer
  // (as the real pipeline does — separate files, separate processes), merge
  // the loaded pieces, and require the merged file to be byte-for-byte the
  // original unsharded file.
  const auto scheme = build_grid_scheme();
  std::stringstream original;
  save_labeling(scheme, original);

  std::vector<ForbiddenSetLabeling> reloaded;
  for (auto& piece : shard::split_labeling(scheme, 3)) {
    std::stringstream ss;
    save_labeling(piece, ss);
    reloaded.push_back(load_labeling(ss));
  }
  // Merge must not depend on shard order on the command line.
  std::rotate(reloaded.begin(), reloaded.begin() + 1, reloaded.end());
  const auto merged = shard::merge_labelings(reloaded);
  EXPECT_FALSE(merged.partition().sharded());

  std::stringstream reassembled;
  save_labeling(merged, reassembled);
  EXPECT_EQ(original.str(), reassembled.str());
}

TEST(ShardStore, MergeRejectsIncompleteOrMismatchedSets) {
  const auto scheme = build_grid_scheme();
  auto pieces = shard::split_labeling(scheme, 3);
  // Missing a shard.
  {
    std::vector<ForbiddenSetLabeling> two;
    two.push_back(pieces[0]);
    two.push_back(pieces[1]);
    EXPECT_THROW(shard::merge_labelings(two), std::invalid_argument);
  }
  // Duplicate shard.
  {
    std::vector<ForbiddenSetLabeling> dup;
    dup.push_back(pieces[0]);
    dup.push_back(pieces[1]);
    dup.push_back(pieces[1]);
    EXPECT_THROW(shard::merge_labelings(dup), std::invalid_argument);
  }
  // Pieces of splits under different rings.
  {
    auto other = shard::split_labeling(scheme, 3, shard::kDefaultRingSeed ^ 1);
    std::vector<ForbiddenSetLabeling> mixed;
    mixed.push_back(pieces[0]);
    mixed.push_back(other[1]);
    mixed.push_back(pieces[2]);
    EXPECT_THROW(shard::merge_labelings(mixed), std::invalid_argument);
  }
  // Splitting an already-sharded piece is refused.
  EXPECT_THROW(shard::split_labeling(pieces[0], 2), std::invalid_argument);
}

TEST(WireLabel, RoundTripCarriesSchemeAndLabel) {
  const auto scheme = build_grid_scheme();
  const std::string blob = shard::encode_wire_label(scheme, 17, 7);
  const shard::WireLabel wire = shard::decode_wire_label(blob);
  EXPECT_EQ(wire.vertex, 17u);
  EXPECT_EQ(wire.meta.epoch, 7u);
  EXPECT_EQ(wire.meta.total_n, scheme.num_vertices());
  EXPECT_EQ(wire.meta.top_level, scheme.top_level());
  EXPECT_EQ(wire.meta.vertex_bits, scheme.vertex_bits());
  EXPECT_DOUBLE_EQ(wire.meta.params.epsilon, scheme.params().epsilon);
  EXPECT_EQ(wire.label().owner(), 17u);

  // Compatibility ignores the epoch (replica restarts reset it) but not
  // the scheme: labels from different builds must never be combined.
  shard::WireLabel other = shard::decode_wire_label(blob);
  other.meta.epoch = 99;
  EXPECT_TRUE(wire.meta.compatible(other.meta));
  other.meta.params.epsilon *= 2;
  EXPECT_FALSE(wire.meta.compatible(other.meta));
}

/// v's real label with the first edge's b index pushed far past the
/// level's points, re-encoded in the scheme's own format.
BitWriter label_with_wild_edge(const ForbiddenSetLabeling& scheme, Vertex v) {
  VertexLabel l = scheme.label(v);
  for (LevelLabel& ll : l.levels) {
    if (!ll.edges.empty()) {
      ll.edges.front().b = 900000;
      break;
    }
  }
  BitWriter bits;
  encode_label(l, scheme.vertex_bits(), bits, scheme.codec());
  return bits;
}

TEST(WireLabel, RejectsCrcValidLabelsWithBadIndicesOrIds) {
  const auto scheme = build_grid_scheme();
  const auto wild = with_label_bits(scheme, 5, label_with_wild_edge(scheme, 5));
  EXPECT_THROW(wild.label(5), std::runtime_error);
  EXPECT_THROW(shard::decode_wire_label(shard::encode_wire_label(wild, 5, 1)),
               std::runtime_error);

  // A point id the vertex bits can hold but the labeling does not have:
  // n = 25 ids take 5 bits, so 31 fits the field and is still out of range.
  const auto small = ForbiddenSetLabeling::build(make_grid2d(5, 5),
                                                 SchemeParams::faithful(1.0));
  VertexLabel l = small.label(5);
  ASSERT_GT(l.levels.back().points.size(), 1u);
  l.levels.back().points.back() = 31;
  BitWriter bits;
  encode_label(l, small.vertex_bits(), bits, small.codec());
  const auto stray = with_label_bits(small, 5, bits);
  EXPECT_THROW(shard::decode_wire_label(shard::encode_wire_label(stray, 5, 1)),
               std::runtime_error);
}

/// `blob` with the u32 header field at byte `offset` set to `value`
/// (top_level at 15, total_n at 24; see shard/wire_label.hpp).
std::string with_u32_at(std::string blob, std::size_t offset,
                        std::uint32_t value) {
  std::memcpy(blob.data() + offset, &value, sizeof value);
  return blob;
}

constexpr std::size_t kTopLevelOffset = 1 + 8 + 4 + 1 + 1;
constexpr std::size_t kTotalNOffset = kTopLevelOffset + 4 + 4 + 1;

// A blob's header is not trusted for sizing: a claimed total_n of 2^32 - 1
// decodes into a store the size of the label (and a caller that knows n
// refuses it before reading the bits), and a level range beyond the
// scheme's cap is refused before any level is allocated.
TEST(WireLabel, ClaimedSizesDoNotDriveAllocation) {
  const auto scheme = build_grid_scheme();
  const std::string blob = shard::encode_wire_label(scheme, 17, 1);
  const std::string huge_n = with_u32_at(blob, kTotalNOffset, ~0u);
  const shard::WireLabel wire = shard::decode_wire_label(huge_n);
  EXPECT_EQ(wire.meta.total_n, ~0u);
  EXPECT_LT(wire.store.bytes(), 64u * 1024);
  EXPECT_EQ(wire.label().owner(), 17u);
  try {
    (void)shard::decode_wire_label(huge_n, scheme.num_vertices());
    ADD_FAILURE() << "a blob with another n was decoded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("reports n="), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(shard::decode_wire_label(blob, scheme.num_vertices()).vertex, 17u);

  for (const std::uint32_t top : {scheme.top_level() + 1, 1u << 30, ~0u}) {
    EXPECT_THROW(
        shard::decode_wire_label(with_u32_at(blob, kTopLevelOffset, top)),
        std::runtime_error)
        << "top_level=" << top;
  }
}

TEST(WireLabel, RejectsTruncationAndBitFlips) {
  const auto scheme = build_grid_scheme();
  const std::string blob = shard::encode_wire_label(scheme, 3, 1);
  for (std::size_t cut = 0; cut < blob.size(); cut += 7) {
    EXPECT_THROW(shard::decode_wire_label(blob.substr(0, cut)),
                 std::runtime_error)
        << "cut=" << cut;
  }
}

TEST(ShardedServer, RefusesUnownedAndOutOfRangeVertices) {
  const auto scheme = build_grid_scheme();
  const Vertex n = scheme.num_vertices();
  auto pieces = shard::split_labeling(scheme, 3);
  const shard::Partitioner ring(pieces[0].partition());
  server::Server srv(std::move(pieces[0]), server::ServerOptions{});

  // HEALTH names the partition.
  EXPECT_NE(srv.health_text().find("shard=0/3"), std::string::npos)
      << srv.health_text();

  Vertex owned = 0, unowned = 0;
  for (Vertex v = 0; v < n; ++v) {
    (ring.owner(v) == 0 ? owned : unowned) = v;
  }

  // A query touching a vertex this shard does not own is refused with the
  // owning shard named — never answered from a partial label set.
  Request dist;
  dist.opcode = Opcode::kDist;
  dist.pairs.emplace_back(owned, unowned);
  const Response refused = srv.handle(dist);
  EXPECT_EQ(refused.status, Status::kError);
  EXPECT_NE(refused.text.find("not on this shard"), std::string::npos)
      << refused.text;
  EXPECT_NE(refused.text.find("shard " +
                              std::to_string(ring.owner(unowned))),
            std::string::npos)
      << refused.text;

  // GET_LABEL: owned vertex served, unowned refused, v >= n refused.
  Request get;
  get.opcode = Opcode::kGetLabel;
  get.pairs.emplace_back(owned, 0);
  const Response served = srv.handle(get);
  ASSERT_EQ(served.status, Status::kOk);
  EXPECT_EQ(shard::decode_wire_label(served.text).vertex, owned);

  get.pairs[0].first = unowned;
  EXPECT_EQ(srv.handle(get).status, Status::kError);
  get.pairs[0].first = n;
  const Response oob = srv.handle(get);
  EXPECT_EQ(oob.status, Status::kError);
  EXPECT_NE(oob.text.find("out of range"), std::string::npos) << oob.text;
}

TEST(UnshardedServer, BoundsChecksVertexIds) {
  const auto scheme = build_grid_scheme();
  const Vertex n = scheme.num_vertices();
  server::Server srv(build_grid_scheme(), server::ServerOptions{});
  EXPECT_NE(srv.health_text().find("shard=0/1"), std::string::npos);
  Request dist;
  dist.opcode = Opcode::kDist;
  dist.pairs.emplace_back(0, n);  // t out of range
  const Response resp = srv.handle(dist);
  EXPECT_EQ(resp.status, Status::kError);
  EXPECT_NE(resp.text.find("out of range"), std::string::npos) << resp.text;
  (void)scheme;
}

class RouterFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    scheme_ = std::make_unique<ForbiddenSetLabeling>(build_grid_scheme());
    auto pieces = shard::split_labeling(*scheme_, 2);
    for (auto& piece : pieces) {
      server::ServerOptions opt;  // port 0: ephemeral
      opt.workers = 2;
      servers_.push_back(
          std::make_unique<server::Server>(std::move(piece), opt));
      servers_.back()->start();
    }
  }

  void TearDown() override {
    for (auto& s : servers_) s->stop();
  }

  shard::RouterOptions router_options() const {
    shard::RouterOptions opt;
    opt.transport.workers = 2;
    for (const auto& s : servers_) {
      opt.shards.push_back({server::Endpoint{"127.0.0.1", s->port()}});
    }
    return opt;
  }

  std::unique_ptr<ForbiddenSetLabeling> scheme_;
  std::vector<std::unique_ptr<server::Server>> servers_;
};

TEST_F(RouterFixture, AnswersExactlyLikeAMonolithicOracle) {
  shard::Router router(router_options());
  router.start();
  EXPECT_EQ(router.num_vertices(), scheme_->num_vertices());
  EXPECT_NE(router.health_text().find("shards=2"), std::string::npos);

  const ForbiddenSetOracle oracle(*scheme_);
  const Vertex n = scheme_->num_vertices();
  for (Vertex s = 0; s < n; s += 5) {
    for (Vertex t = 0; t < n; t += 7) {
      Request req;
      req.opcode = Opcode::kDist;
      req.pairs.emplace_back(s, t);
      const Response resp = router.handle(req);
      ASSERT_EQ(resp.status, Status::kOk) << resp.text;
      ASSERT_EQ(resp.distances.size(), 1u);
      EXPECT_EQ(resp.distances[0], oracle.distance(s, t, {}))
          << "s=" << s << " t=" << t;
    }
  }

  // Faulted batch through the prepared-fault-set path.
  Request batch;
  batch.opcode = Opcode::kBatch;
  batch.faults.add_vertex(27);
  batch.faults.add_edge(0, 1);
  for (Vertex s = 0; s < n; s += 9) batch.pairs.emplace_back(s, n - 1 - s);
  const Response resp = router.handle(batch);
  ASSERT_EQ(resp.status, Status::kOk) << resp.text;
  ASSERT_EQ(resp.distances.size(), batch.pairs.size());
  for (std::size_t i = 0; i < batch.pairs.size(); ++i) {
    EXPECT_EQ(resp.distances[i],
              oracle.distance(batch.pairs[i].first, batch.pairs[i].second,
                              batch.faults));
  }
  // Same fault set again: the prepared cache must hit.
  (void)router.handle(batch);
  EXPECT_GT(router.prepared_stats().hits, 0u);
  // The label LRU saw hits too (the second pass re-used every label).
  EXPECT_GT(router.metrics().label_cache(true), 0u);

  // Out-of-range and empty requests are refused at the router, not
  // scattered to the shards.
  Request bad;
  bad.opcode = Opcode::kDist;
  bad.pairs.emplace_back(n, 0);
  EXPECT_EQ(router.handle(bad).status, Status::kError);
  Request empty;
  empty.opcode = Opcode::kBatch;
  EXPECT_EQ(router.handle(empty).status, Status::kError);

  // RELOAD is refused: the router owns no labels.
  Request reload;
  reload.opcode = Opcode::kReload;
  EXPECT_EQ(router.handle(reload).status, Status::kError);
  router.stop();
}

// A fan-out thread that cannot be started must not take the router down:
// the groups whose threads did start are joined, the rest are fetched
// inline, and every answer is still exact. "every:2" fails the second
// spawn after the first thread is running; the bare spec fails the first.
TEST_F(RouterFixture, FanoutSpawnFailureFetchesInline) {
  const ForbiddenSetOracle oracle(*scheme_);
  const Vertex n = scheme_->num_vertices();
  for (const char* spec : {"router.fanout.spawn=errno:EAGAIN@every:2",
                           "router.fanout.spawn=errno:EAGAIN"}) {
    SCOPED_TRACE(spec);
    shard::Router router(router_options());  // cold label cache
    router.start();
    ASSERT_EQ(failpoint::arm(spec), "");
    Request batch;
    batch.opcode = Opcode::kBatch;
    batch.faults.add_vertex(27);
    batch.faults.add_edge(0, 1);
    for (Vertex s = 0; s < n; s += 9) batch.pairs.emplace_back(s, n - 1 - s);
    const Response resp = router.handle(batch);
    const std::uint64_t fires = failpoint::fires("router.fanout.spawn");
    failpoint::disarm_all();
    router.stop();
    EXPECT_GT(fires, 0u);
    ASSERT_EQ(resp.status, Status::kOk) << resp.text;
    ASSERT_EQ(resp.distances.size(), batch.pairs.size());
    for (std::size_t i = 0; i < batch.pairs.size(); ++i) {
      EXPECT_EQ(resp.distances[i],
                oracle.distance(batch.pairs[i].first, batch.pairs[i].second,
                                batch.faults));
    }
  }
}

TEST_F(RouterFixture, StartupRefusesAMiswiredFleet) {
  // Swap the two shard endpoint lists: each server then reports a shard id
  // that contradicts its position, and start() must throw.
  shard::RouterOptions swapped = router_options();
  std::swap(swapped.shards[0], swapped.shards[1]);
  shard::Router router(swapped);
  EXPECT_THROW(router.start(), std::runtime_error);

  // Wrong shard count: a 2-shard fleet behind a 1-shard router config.
  shard::RouterOptions short_fleet = router_options();
  short_fleet.shards.pop_back();
  shard::Router undersized(short_fleet);
  EXPECT_THROW(undersized.start(), std::runtime_error);
}

/// A shard server whose GET_LABEL reply for one vertex carries `blob`
/// instead of its own label: what a router sees from a shard serving a
/// CRC-valid but malformed label (a server refuses to load such a file, so
/// the bad blob is injected at the reply).
class BadLabelServer : public server::Server {
 public:
  BadLabelServer(ForbiddenSetLabeling piece, const server::ServerOptions& o,
                 Vertex bad, std::string blob)
      : Server(std::move(piece), o), bad_(bad), blob_(std::move(blob)) {}

  Response handle(const Request& req) override {
    Response resp = Server::handle(req);
    if (req.opcode == Opcode::kGetLabel && req.pairs.at(0).first == bad_) {
      resp.text = blob_;
    }
    return resp;
  }

 private:
  Vertex bad_;
  std::string blob_;
};

// A shard serving a CRC-valid but malformed label must cost the router
// one ERROR reply, not a crash, and the router keeps answering the rest.
// Two such labels: one with an edge index past its points, and one whose
// blob claims n = 2^32 - 1, refused before its bits are decoded.
TEST(ShardedRouter, MalformedShardLabelIsAnErrorReply) {
  const auto scheme = build_grid_scheme();
  const shard::Partitioner ring(shard::split_labeling(scheme, 2)[0].partition());
  Vertex bad = 0;
  while (ring.owner(bad) != 0) ++bad;
  const auto wild =
      with_label_bits(shard::split_labeling(scheme, 2)[0], bad,
                      label_with_wild_edge(scheme, bad));
  // A server refuses to load such a piece: its store rebuild decodes it.
  EXPECT_THROW(ForbiddenSetOracle{wild}, std::runtime_error);

  const std::pair<std::string, const char*> blobs[] = {
      {shard::encode_wire_label(wild, bad, 1), "malformed"},
      {with_u32_at(shard::encode_wire_label(scheme, bad, 1), kTotalNOffset,
                   ~0u),
       "reports n=4294967295 but the fleet has"}};
  const ForbiddenSetOracle oracle(scheme);
  for (const auto& [blob, why] : blobs) {
    SCOPED_TRACE(why);
    auto pieces = shard::split_labeling(scheme, 2);
    std::vector<std::unique_ptr<server::Server>> servers;
    shard::RouterOptions opt;
    opt.transport.workers = 2;
    for (std::uint32_t id = 0; id < pieces.size(); ++id) {
      server::ServerOptions sopt;
      sopt.workers = 2;
      servers.push_back(std::make_unique<BadLabelServer>(
          std::move(pieces[id]), sopt, id == 0 ? bad : kNoVertex, blob));
      servers.back()->start();
      opt.shards.push_back(
          {server::Endpoint{"127.0.0.1", servers.back()->port()}});
    }
    shard::Router router(opt);
    router.start();

    const Vertex good = bad == 0 ? 1 : 0;
    Request req;
    req.opcode = Opcode::kDist;
    req.pairs.emplace_back(bad, good);
    const Response refused = router.handle(req);
    EXPECT_EQ(refused.status, Status::kError);
    EXPECT_NE(refused.text.find(why), std::string::npos) << refused.text;

    const Vertex other = good + 1 == bad ? good + 2 : good + 1;
    req.pairs[0] = {good, other};
    const Response answered = router.handle(req);
    ASSERT_EQ(answered.status, Status::kOk) << answered.text;
    EXPECT_EQ(answered.distances[0], oracle.distance(good, other, {}));
    router.stop();
    for (auto& srv : servers) srv->stop();
  }
}

TEST(RouterOptionsValidation, RejectsEmptyTopology) {
  shard::RouterOptions none;
  EXPECT_THROW(shard::Router{none}, std::invalid_argument);
  shard::RouterOptions empty_inner;
  empty_inner.shards.push_back({});
  EXPECT_THROW(shard::Router{empty_inner}, std::invalid_argument);
}

}  // namespace
}  // namespace fsdl
