// Distributed-framework tests: sidecar routing and byte accounting in both
// delivery modes, the message codecs' truncation corpus, shadow nodes,
// worker phase mechanics — and the system's central invariant:
// S2's distributed verification produces results identical to the
// monolithic baseline for every partition scheme, worker count, and shard
// count (paper §5.3: "they output the same set of RIBs").
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/mono.h"
#include "core/s2.h"
#include "cp/route.h"
#include "dist/message.h"
#include "dist/sidecar.h"
#include "test_networks.h"
#include "topo/dcn.h"
#include "topo/fattree.h"
#include "util/status.h"

namespace s2::dist {
namespace {

TEST(SidecarFabricTest, RoutesByAssignmentAndCounts) {
  SidecarFabric fabric(2, {0, 0, 1});
  EXPECT_EQ(fabric.WorkerOf(2), 1u);
  Message message;
  message.to_node = 2;
  message.from_node = 0;
  message.payload = {1, 2, 3};
  fabric.Send(0, message);
  EXPECT_TRUE(fabric.HasPending());
  EXPECT_EQ(fabric.bytes_sent_by(0), message.WireBytes());
  EXPECT_EQ(fabric.messages_sent_by(0), 1u);
  EXPECT_TRUE(fabric.Drain(0).empty());  // addressed to worker 1
  auto delivered = fabric.Drain(1);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].to_node, 2u);
  EXPECT_FALSE(fabric.HasPending());
  fabric.ResetCounters();
  EXPECT_EQ(fabric.total_bytes(), 0u);
}

TEST(SidecarFabricTest, ConcurrentSendsAreCountedExactly) {
  SidecarFabric fabric(4, {0, 1, 2, 3});
  util::ThreadPool pool(4);
  constexpr int kPerWorker = 200;
  pool.ParallelFor(4, [&](size_t w) {
    for (int i = 0; i < kPerWorker; ++i) {
      Message message;
      message.to_node = static_cast<topo::NodeId>((w + 1) % 4);
      message.from_node = static_cast<topo::NodeId>(w);
      message.payload = {7};
      fabric.Send(static_cast<uint32_t>(w), std::move(message));
    }
  });
  size_t delivered = 0;
  for (uint32_t w = 0; w < 4; ++w) {
    EXPECT_EQ(fabric.messages_sent_by(w), size_t(kPerWorker));
    EXPECT_GE(fabric.max_queue_depth(w), size_t(kPerWorker));  // high-water
    delivered += fabric.Drain(w).size();
  }
  EXPECT_EQ(delivered, size_t(4 * kPerWorker));
}

// Regression for the direct-mode global queue lock: a sender holding one
// destination's queue must not block senders to other destinations. The
// send hook parks the first sender inside worker 0's critical section;
// under the old fabric-wide mutex the second send could not start and this
// test timed out. Deterministic: no schedule luck involved, the hook
// *guarantees* the overlap.
TEST(SidecarFabricTest, SendsToDistinctDestinationsDoNotSerialize) {
  SidecarFabric fabric(2, {0, 1});
  std::atomic<bool> parked{false}, release{false};
  fabric.set_send_hook([&](uint32_t dest) {
    if (dest != 0) return;
    parked.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::thread blocker([&] {
    Message message;
    message.to_node = 0;  // hosted by worker 0
    message.from_node = 1;
    message.payload = {1};
    fabric.Send(1, std::move(message));
  });
  while (!parked.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Worker 0's queue lock is held. A send to worker 1 must still finish.
  std::atomic<bool> other_done{false};
  std::thread other([&] {
    Message message;
    message.to_node = 1;  // hosted by worker 1
    message.from_node = 0;
    message.payload = {2};
    fabric.Send(0, std::move(message));
    other_done.store(true);
  });
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!other_done.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(other_done.load())
      << "send to an uncontended destination stalled behind another queue";

  release.store(true);
  blocker.join();
  other.join();
  fabric.set_send_hook(nullptr);
  EXPECT_EQ(fabric.Drain(0).size(), 1u);
  EXPECT_EQ(fabric.Drain(1).size(), 1u);
}

// Senders racing a concurrent drainer (chaos label: runs under TSan in
// CI). Every message is delivered exactly once and the atomic counters
// agree with the ground truth regardless of interleaving.
TEST(SidecarFabricTest, ConcurrentSendAndDrainConserveMessages) {
  constexpr uint32_t kWorkers = 3;
  constexpr int kPerSender = 500;
  SidecarFabric fabric(kWorkers, {0, 1, 2});
  std::atomic<int> senders_left{int(kWorkers)};
  std::vector<std::thread> senders;
  for (uint32_t w = 0; w < kWorkers; ++w) {
    senders.emplace_back([&, w] {
      for (int i = 0; i < kPerSender; ++i) {
        Message message;
        message.to_node = static_cast<topo::NodeId>((w + 1 + i) % kWorkers);
        message.from_node = static_cast<topo::NodeId>(w);
        message.payload = {static_cast<uint8_t>(i & 0xff)};
        fabric.Send(w, std::move(message));
      }
      senders_left.fetch_sub(1);
    });
  }
  size_t delivered = 0;
  while (senders_left.load() > 0 || fabric.HasPending()) {
    for (uint32_t w = 0; w < kWorkers; ++w) {
      delivered += fabric.Drain(w).size();
    }
  }
  for (std::thread& t : senders) t.join();
  EXPECT_EQ(delivered, size_t(kWorkers) * kPerSender);
  size_t counted = 0;
  for (uint32_t w = 0; w < kWorkers; ++w) {
    counted += fabric.messages_sent_by(w);
  }
  EXPECT_EQ(counted, size_t(kWorkers) * kPerSender);
  EXPECT_FALSE(fabric.HasPending());
}

// ------------------------------------------- reliable-mode stress (chaos)

// Each of `workers` pool threads ships `per_channel` messages to every
// other worker, concurrently; then the fabric is drained one round per
// worker until quiescent. Returns per (from, to) channel the payload
// sequence observed at `to`.
std::map<std::pair<uint32_t, uint32_t>, std::vector<uint32_t>>
StressReliableFabric(SidecarFabric& fabric, uint32_t workers,
                     uint32_t per_channel) {
  util::ThreadPool pool(workers);
  pool.ParallelFor(workers, [&](size_t w) {
    for (uint32_t i = 0; i < per_channel; ++i) {
      for (uint32_t to = 0; to < workers; ++to) {
        if (to == static_cast<uint32_t>(w)) continue;
        Message message;
        message.to_node = static_cast<topo::NodeId>(to);
        message.from_node = static_cast<topo::NodeId>(w);
        message.payload = {static_cast<uint8_t>(i & 0xff),
                           static_cast<uint8_t>(i >> 8)};
        fabric.Send(static_cast<uint32_t>(w), std::move(message));
      }
    }
  });
  std::map<std::pair<uint32_t, uint32_t>, std::vector<uint32_t>> seen;
  for (int round = 0; round < 2000; ++round) {
    for (uint32_t w = 0; w < workers; ++w) {
      for (const Message& m : fabric.Drain(w)) {
        seen[{m.from_node, w}].push_back(m.payload[0] |
                                         (uint32_t(m.payload[1]) << 8));
      }
    }
    if (!fabric.HasPending()) break;
  }
  return seen;
}

TEST(SidecarFabricStressTest, ReliableModeLosesAndDuplicatesNothing) {
  constexpr uint32_t kWorkers = 4, kPerChannel = 300;
  SidecarFabric fabric(kWorkers, {0, 1, 2, 3});
  fault::FaultPlan tuning;  // no injector: pure reliability envelope
  fabric.EnableReliableDelivery(tuning, nullptr, false);
  auto seen = StressReliableFabric(fabric, kWorkers, kPerChannel);
  EXPECT_FALSE(fabric.HasPending());
  ASSERT_EQ(seen.size(), size_t(kWorkers * (kWorkers - 1)));
  for (const auto& [channel, payloads] : seen) {
    ASSERT_EQ(payloads.size(), size_t(kPerChannel))
        << channel.first << "->" << channel.second;
    // Exactly once AND in the sender's order.
    for (uint32_t i = 0; i < kPerChannel; ++i) EXPECT_EQ(payloads[i], i);
  }
  EXPECT_EQ(fabric.transport_stats().dropped, 0u);
  EXPECT_EQ(fabric.transport_stats().retransmits, 0u);
  for (uint32_t w = 0; w < kWorkers; ++w) {
    EXPECT_GE(fabric.max_queue_depth(w), size_t(kPerChannel));
  }
}

TEST(SidecarFabricStressTest, SeededFaultsReplayDeterministically) {
  // Concurrent senders + a seeded injector: the fault schedule is a pure
  // hash of (seed, channel, seq, attempt), and each channel has a single
  // sending thread, so two runs deliver identical per-channel sequences
  // and identical transport stats no matter how threads interleave.
  auto run = [] {
    constexpr uint32_t kWorkers = 4, kPerChannel = 120;
    fault::FaultPlan plan;
    plan.seed = 77;
    plan.default_link.drop = 0.2;
    plan.default_link.duplicate = 0.1;
    plan.default_link.reorder = 0.1;
    plan.default_link.max_delay_rounds = 2;
    fault::FaultInjector injector(plan);
    SidecarFabric fabric(kWorkers, {0, 1, 2, 3});
    fabric.EnableReliableDelivery(plan, &injector, false);
    auto seen = StressReliableFabric(fabric, kWorkers, kPerChannel);
    EXPECT_FALSE(fabric.HasPending());
    for (const auto& [channel, payloads] : seen) {
      EXPECT_EQ(payloads.size(), size_t(kPerChannel));
      for (uint32_t i = 0; i < payloads.size(); ++i) {
        EXPECT_EQ(payloads[i], i);
      }
    }
    fault::ReliableTransport::Stats s = fabric.transport_stats();
    EXPECT_GT(s.dropped, 0u);
    EXPECT_GT(s.retransmits, 0u);
    return std::tuple(seen, s.data_frames, s.retransmits, s.acks,
                      s.wire_bytes, s.dropped, s.duplicated, s.delayed,
                      s.reordered, s.duplicates_suppressed, s.out_of_order);
  };
  EXPECT_EQ(run(), run());
}

// ------------------------------------------------ fabric semantics fixes

Message MakeMessage(topo::NodeId to, topo::NodeId from,
                    std::vector<uint8_t> payload) {
  Message message;
  message.to_node = to;
  message.from_node = from;
  message.payload = std::move(payload);
  return message;
}

TEST(SidecarFabricModeTest, ReliableHighWaterResetsWithCounters) {
  SidecarFabric fabric(2, {0, 1});
  fabric.EnableReliableDelivery(fault::FaultPlan{}, nullptr, false);
  fabric.Send(0, MakeMessage(1, 0, {1, 2, 3}));
  EXPECT_GE(fabric.max_queue_depth(1), 1u);
  fabric.Drain(1);
  EXPECT_GE(fabric.max_queue_depth(1), 1u);  // survives the drain
  fabric.ResetCounters();
  // Used to fail: ResetCounters cleared only the direct-mode marks while
  // the reliable envelope's high-water survived.
  EXPECT_EQ(fabric.max_queue_depth(1), 0u);
  EXPECT_EQ(fabric.total_bytes(), 0u);
}

TEST(SidecarFabricModeTest, EnableReliableDeliveryMigratesQueuedMessages) {
  SidecarFabric fabric(2, {0, 1});
  fabric.Send(0, MakeMessage(1, 0, {0x0A}));
  fabric.Send(0, MakeMessage(1, 0, {0x0B}));
  // Used to fail: switching modes stranded the two direct-mode queued
  // messages in the old queues forever.
  fabric.EnableReliableDelivery(fault::FaultPlan{}, nullptr, false);
  EXPECT_TRUE(fabric.HasPending());
  std::vector<Message> got = fabric.Drain(1);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].payload, (std::vector<uint8_t>{0x0A}));
  EXPECT_EQ(got[1].payload, (std::vector<uint8_t>{0x0B}));
  EXPECT_FALSE(fabric.HasPending());
}

// --------------------------------------------------- truncation corpus

// Every deserializer a fabric message passes through on a process-mode
// worker's control channel must throw util::WireFormatError on a frame
// truncated at every possible byte — and on length fields pointing past
// the end — never crash or mis-parse.
class TruncationCorpusTest : public ::testing::Test {
 protected:
  static std::vector<std::vector<uint8_t>> MessageCorpus() {
    std::vector<std::vector<uint8_t>> corpus;
    {
      Message message = MakeMessage(7, 3, {1, 2, 3, 4, 5});
      std::vector<uint8_t> bytes;
      EncodeMessage(message, bytes);
      corpus.push_back(std::move(bytes));
    }
    {
      // Route batch with the address-family byte in both encodings: a
      // v4-only section (compact, leads with kAfV4) and a mixed-family
      // section (generic, kAfV6 with per-entry family bytes).
      Message message = MakeMessage(3, 1, {});
      EncodeRouteBatch(
          {RouteSection{1, 3, RouteBatchUpdates(false)},
           RouteSection{5, 3, RouteBatchUpdates(true)}},
          message.payload);
      std::vector<uint8_t> bytes;
      EncodeMessage(message, bytes);
      corpus.push_back(std::move(bytes));
    }
    return corpus;
  }

  // A v4 announcement, plus a v6 one when `mixed`.
  static std::vector<cp::RouteUpdate> RouteBatchUpdates(bool mixed) {
    std::vector<cp::RouteUpdate> updates;
    cp::Route v4;
    v4.prefix = util::MustParsePrefix("10.1.0.0/24");
    v4.origin_node = 1;
    updates.push_back(cp::RouteUpdate{v4.prefix, false, v4});
    if (mixed) {
      cp::Route v6;
      v6.prefix = util::MustParsePrefix("2001:db8::/48");
      v6.origin_node = 2;
      updates.push_back(cp::RouteUpdate{v6.prefix, false, v6});
    }
    return updates;
  }
};

// A route-batch frame survives framing intact, its payload decodes with
// the address-family byte honored, and an unknown family value in the
// payload surfaces as util::WireFormatError after message decode — the
// exact path a corrupted sidecar frame would take.
TEST_F(TruncationCorpusTest, RouteBatchPayloadRejectsUnknownFamily) {
  cp::AttrPool pool;
  cp::Route v6;
  v6.prefix = util::MustParsePrefix("2001:db8::/48");
  v6.origin_node = 2;
  Message message = MakeMessage(3, 1, {});
  EncodeRouteBatch(
      {RouteSection{1, 3, {cp::RouteUpdate{v6.prefix, false, v6}}}},
      message.payload);
  std::vector<uint8_t> frame;
  EncodeMessage(message, frame);

  Message decoded = DecodeMessage(frame);
  std::vector<RouteSection> sections =
      DecodeRouteBatch(decoded.payload, pool);
  ASSERT_EQ(sections.size(), 1u);
  EXPECT_EQ(sections[0].from_node, 1u);
  EXPECT_EQ(sections[0].to_node, 3u);
  ASSERT_EQ(sections[0].updates.size(), 1u);
  EXPECT_EQ(sections[0].updates[0].route, v6);

  // Sweep every payload byte with an unknown-family value: decode must
  // error or stay sane, and the AF byte's offset must report it.
  int unknown_family = 0;
  for (size_t pos = 0; pos < decoded.payload.size(); ++pos) {
    Message corrupt = decoded;
    if (corrupt.payload[pos] == 0xEE) continue;
    corrupt.payload[pos] = 0xEE;
    try {
      DecodeRouteBatch(corrupt.payload, pool);
    } catch (const util::WireFormatError& e) {
      if (std::string(e.what()).find("unknown address family") !=
          std::string::npos) {
        ++unknown_family;
      }
    }
  }
  EXPECT_GE(unknown_family, 1);
}

TEST_F(TruncationCorpusTest, MessageTruncatedAtEveryByteThrows) {
  for (const std::vector<uint8_t>& frame : MessageCorpus()) {
    // The full frame decodes.
    EXPECT_NO_THROW(DecodeMessage(frame));
    for (size_t cut = 0; cut < frame.size(); ++cut) {
      std::vector<uint8_t> truncated(frame.begin(),
                                     frame.begin() + static_cast<ptrdiff_t>(cut));
      EXPECT_THROW(DecodeMessage(truncated), util::WireFormatError)
          << "cut at byte " << cut << " of " << frame.size();
    }
    // Trailing garbage is also malformed, not silently ignored.
    std::vector<uint8_t> padded = frame;
    padded.push_back(0);
    EXPECT_THROW(DecodeMessage(padded), util::WireFormatError);
  }
}

TEST_F(TruncationCorpusTest, LengthFieldsBeyondStreamThrow) {
  // A message whose payload length field claims more than remains.
  Message message = MakeMessage(1, 0, {1, 2, 3, 4});
  std::vector<uint8_t> bytes;
  EncodeMessage(message, bytes);
  // payload_len is the u32 right before the 4 payload bytes.
  size_t len_at = bytes.size() - 4 - 4;
  bytes[len_at] = 0xFF;
  bytes[len_at + 1] = 0xFF;
  EXPECT_THROW(DecodeMessage(bytes), util::WireFormatError);
}

TEST(DistResourceTest, PerWorkerBddTableOverflowIsAVerdict) {
  topo::FatTreeParams params;
  params.k = 4;
  auto net = testing::Parse(topo::MakeFatTree(params));
  ControllerOptions options;
  options.num_workers = 2;
  options.max_bdd_nodes = 64;  // absurdly small per-worker node table
  core::S2Verifier verifier(options);
  dp::Query query;
  query.header_space.dst = util::MustParsePrefix("10.0.0.0/8");
  query.sources = {0};
  query.destinations = {net.graph.FindByName("edge-1-0")};
  core::VerifyResult result = verifier.Verify(net, {query});
  EXPECT_EQ(result.status, core::RunStatus::kOutOfMemory);
  EXPECT_NE(result.failure_detail.find("bdd-node-table"),
            std::string::npos);
}

TEST(ShadowNodeTest, DeliversPerLocalNode) {
  ShadowNode shadow(7);
  cp::RouteUpdate update;
  update.prefix = util::MustParsePrefix("10.0.0.0/24");
  update.withdraw = true;
  shadow.Deliver(1, {update});
  shadow.Deliver(1, {update});  // appends
  EXPECT_TRUE(shadow.HasPending());
  EXPECT_EQ(shadow.TakeUpdatesFor(1).size(), 2u);
  EXPECT_TRUE(shadow.TakeUpdatesFor(1).empty());  // drained
  EXPECT_TRUE(shadow.TakeUpdatesFor(2).empty());  // never addressed
}

// ------------------------------------------------------- the invariant

dp::Query AllPairQuery(const config::ParsedNetwork& net) {
  dp::Query query;
  query.header_space.dst = util::MustParsePrefix("10.0.0.0/8");
  for (topo::NodeId id = 0; id < net.graph.size(); ++id) {
    if (net.graph.node(id).role == topo::Role::kEdge) {
      query.sources.push_back(id);
      query.destinations.push_back(id);
    }
  }
  return query;
}

struct Baseline {
  core::VerifyResult result;
  std::vector<std::map<util::IpPrefix, std::vector<cp::Route>>> ribs;
};

Baseline RunMono(const config::ParsedNetwork& net, const dp::Query& query) {
  Baseline baseline;
  core::MonoVerifier mono{core::MonoOptions{}};
  baseline.result = mono.Verify(net, {query});
  for (const auto& node : mono.last_engine()->nodes()) {
    baseline.ribs.push_back(node->bgp_routes());
  }
  return baseline;
}

using DistParams = std::tuple<uint32_t, topo::PartitionScheme, int>;

class DistEquivalenceTest : public ::testing::TestWithParam<DistParams> {};

TEST_P(DistEquivalenceTest, FatTreeMatchesMonoExactly) {
  auto [workers, scheme, shards] = GetParam();
  topo::FatTreeParams params;
  params.k = 4;
  auto net = testing::Parse(topo::MakeFatTree(params));
  dp::Query query = AllPairQuery(net);
  Baseline baseline = RunMono(net, query);

  ControllerOptions options;
  options.num_workers = workers;
  options.scheme = scheme;
  options.num_shards = shards;
  core::S2Verifier verifier(options);
  core::VerifyResult result = verifier.Verify(net, {query});
  ASSERT_TRUE(result.ok()) << result.failure_detail;

  // Identical property verdicts.
  ASSERT_EQ(result.queries.size(), 1u);
  EXPECT_EQ(result.queries[0].reachable_pairs,
            baseline.result.queries[0].reachable_pairs);
  EXPECT_EQ(result.queries[0].unreachable_pairs,
            baseline.result.queries[0].unreachable_pairs);
  EXPECT_EQ(result.queries[0].loop_free,
            baseline.result.queries[0].loop_free);
  EXPECT_EQ(result.queries[0].blackhole_finals > 0,
            baseline.result.queries[0].blackhole_finals > 0);
  EXPECT_EQ(result.total_best_routes, baseline.result.total_best_routes);

  // Identical RIBs, node by node (the §5.3 claim). Without sharding the
  // routes live in the worker nodes; with sharding they were spilled, so
  // compare through the workers' own retained/spilled state only in the
  // retained case.
  if (shards == 0) {
    Controller* controller = verifier.last_controller();
    for (size_t w = 0; w < controller->num_workers(); ++w) {
      Worker& worker = controller->worker(w);
      for (topo::NodeId id : worker.local_nodes()) {
        EXPECT_EQ(worker.node(id).bgp_routes(), baseline.ribs[id])
            << "node " << id;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, DistEquivalenceTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 7u),
                       ::testing::Values(topo::PartitionScheme::kMetisLike,
                                         topo::PartitionScheme::kRandom,
                                         topo::PartitionScheme::kExpert,
                                         topo::PartitionScheme::kImbalanced,
                                         topo::PartitionScheme::kCommHeavy),
                       ::testing::Values(0, 5)));

TEST(DistEquivalenceDcnTest, DcnMatchesMonoAcrossWorkers) {
  auto net = testing::Parse(topo::MakeDcn(topo::DcnParams{}));
  dp::Query query = AllPairQuery(net);
  Baseline baseline = RunMono(net, query);
  for (uint32_t workers : {1u, 3u, 6u}) {
    ControllerOptions options;
    options.num_workers = workers;
    options.num_shards = 4;
    core::S2Verifier verifier(options);
    core::VerifyResult result = verifier.Verify(net, {query});
    ASSERT_TRUE(result.ok()) << result.failure_detail;
    EXPECT_EQ(result.queries[0].reachable_pairs,
              baseline.result.queries[0].reachable_pairs);
    EXPECT_EQ(result.queries[0].unreachable_pairs,
              baseline.result.queries[0].unreachable_pairs);
    EXPECT_EQ(result.total_best_routes, baseline.result.total_best_routes);
  }
}

// A BGP session configured on one side only: the peer never pulls its
// updates. Across a worker boundary the receiving worker has no shadow
// for the sender, which used to fail the run; it must match the monolith.
TEST(DistEquivalenceTest, OneSidedSessionMatchesMono) {
  topo::FatTreeParams params;
  params.k = 4;
  const config::ParsedNetwork fattree =
      testing::Parse(topo::MakeFatTree(params));
  for (uint32_t workers : {2u, 4u}) {
    ControllerOptions options;
    options.num_workers = workers;
    // Drop node `a`'s statement for a peer on another worker; the peer
    // keeps its statement for `a` and exports to it every round.
    config::ParsedNetwork net = fattree;
    std::vector<uint32_t> assignment =
        topo::Partition(net.graph, workers, options.scheme, options.seed)
            .assignment;
    bool dropped = false;
    for (topo::NodeId a = 0; a < net.configs.size() && !dropped; ++a) {
      auto& neighbors = net.configs[a].bgp.neighbors;
      for (auto it = neighbors.begin(); it != neighbors.end(); ++it) {
        topo::NodeId b = net.FindByAddress(it->peer_address);
        if (b != topo::kInvalidNode && assignment[b] != assignment[a]) {
          neighbors.erase(it);
          dropped = true;
          break;
        }
      }
    }
    ASSERT_TRUE(dropped);
    core::MonoVerifier mono{core::MonoOptions{}};
    core::VerifyResult base = mono.Verify(net, {});
    ASSERT_TRUE(base.ok());
    core::S2Verifier verifier(options);
    core::VerifyResult result = verifier.Verify(net, {});
    ASSERT_TRUE(result.ok()) << result.failure_detail;
    EXPECT_EQ(result.total_best_routes, base.total_best_routes);
    Controller* controller = verifier.last_controller();
    for (size_t w = 0; w < controller->num_workers(); ++w) {
      Worker& worker = controller->worker(w);
      for (topo::NodeId id : worker.local_nodes()) {
        EXPECT_EQ(worker.node(id).bgp_routes(),
                  mono.last_engine()->node(id).bgp_routes())
            << "node " << id << ", " << workers << " workers";
      }
    }
  }
}

TEST(DistEquivalenceOspfTest, MixedProtocolsMatchMono) {
  // OSPF underlay + redistribution into BGP, run distributed: the CPO's
  // IGP-before-EGP sequencing must produce the monolithic fixed point.
  topo::Network net = testing::MakeChain(5);
  for (auto& intent : net.intents) intent.enable_ospf = true;
  net.intents[2].redistribute_ospf_into_bgp = true;
  net.intents[0].announced.clear();  // loopback reachable via OSPF only
  auto parsed = testing::Parse(net);

  core::MonoVerifier mono{core::MonoOptions{}};
  core::VerifyResult base = mono.Verify(parsed, {});
  ASSERT_TRUE(base.ok());

  ControllerOptions options;
  options.num_workers = 3;
  core::S2Verifier verifier(options);
  core::VerifyResult result = verifier.Verify(parsed, {});
  ASSERT_TRUE(result.ok()) << result.failure_detail;
  EXPECT_EQ(result.total_best_routes, base.total_best_routes);

  Controller* controller = verifier.last_controller();
  for (size_t w = 0; w < controller->num_workers(); ++w) {
    Worker& worker = controller->worker(w);
    for (topo::NodeId id : worker.local_nodes()) {
      EXPECT_EQ(worker.node(id).bgp_routes(),
                mono.last_engine()->node(id).bgp_routes());
      EXPECT_EQ(worker.node(id).ospf_routes(),
                mono.last_engine()->node(id).ospf_routes());
    }
  }
}

TEST(WorkerTest, LocalNodesFollowAssignment) {
  auto net = testing::Parse(testing::MakeChain(4));
  SidecarFabric fabric(2, {0, 1, 0, 1});
  Worker w0(0, net, &fabric, Worker::Options{});
  Worker w1(1, net, &fabric, Worker::Options{});
  EXPECT_EQ(w0.local_nodes(), (std::vector<topo::NodeId>{0, 2}));
  EXPECT_EQ(w1.local_nodes(), (std::vector<topo::NodeId>{1, 3}));
  EXPECT_TRUE(w0.IsLocal(2));
  EXPECT_FALSE(w0.IsLocal(1));
}

TEST(WorkerTest, PhasesExchangeAcrossTheFabric) {
  auto net = testing::Parse(testing::MakeChain(2));
  SidecarFabric fabric(2, {0, 1});
  Worker w0(0, net, &fabric, Worker::Options{});
  Worker w1(1, net, &fabric, Worker::Options{});
  w0.BeginBgp(nullptr);
  w1.BeginBgp(nullptr);
  // Round 1 phase A: both originate and ship through the sidecar.
  EXPECT_TRUE(w0.ComputeAndShip());
  EXPECT_TRUE(w1.ComputeAndShip());
  EXPECT_GT(fabric.bytes_sent_by(0), 0u);
  // Phase B: each drains and merges the remote exports.
  w0.Deliver();
  w1.Deliver();
  // Run to the fix point.
  for (int round = 0; round < 10; ++round) {
    bool any = w0.ComputeAndShip();
    any = w1.ComputeAndShip() || any;
    if (!any) break;
    w0.Deliver();
    w1.Deliver();
  }
  w0.RetainBgp();
  w1.RetainBgp();
  // Each node ends with all 4 prefixes (2 loopbacks + 2 /24s).
  EXPECT_EQ(w0.node(0).bgp_routes().size(), 4u);
  EXPECT_EQ(w1.node(1).bgp_routes().size(), 4u);
}

// A route batch is one message per destination worker per round, and a
// section that names a node the receiving worker neither shadows (from)
// nor hosts (to) is a wire-format error, not an out-of-range lookup.
TEST(WorkerTest, RouteBatchSectionsMustReachTheReceiver) {
  auto net = testing::Parse(testing::MakeChain(4));
  SidecarFabric fabric(2, {0, 1, 0, 1});
  Worker w0(0, net, &fabric, Worker::Options{});
  Worker w1(1, net, &fabric, Worker::Options{});
  w0.BeginBgp(nullptr);
  w1.BeginBgp(nullptr);
  // Nodes 0 and 2 both export to node 1 (node 2 also to node 3): one
  // message from worker 0 to worker 1.
  ASSERT_TRUE(w0.ComputeAndShip());
  EXPECT_EQ(fabric.messages_sent_by(0), 1u);
  w1.Deliver();

  // from_node 3 is local to worker 1, not one of its shadows; to_node 0
  // is not local; node 9 does not exist.
  for (auto [from, to] : std::vector<std::pair<topo::NodeId, topo::NodeId>>{
           {3, 1}, {0, 0}, {9, 1}, {0, 9}}) {
    Message message = MakeMessage(1, 0, {});
    EncodeRouteBatch({RouteSection{from, to, {}}}, message.payload);
    fabric.Send(0, std::move(message));
    EXPECT_THROW(w1.Deliver(), util::WireFormatError)
        << "from " << from << " to " << to;
  }
}

TEST(DistQueryTest, PathsStitchAcrossWorkers) {
  // Path-recording queries must produce the same concrete paths when the
  // path crosses worker boundaries (paths travel inside sidecar messages).
  topo::FatTreeParams params;
  params.k = 4;
  auto net = testing::Parse(topo::MakeFatTree(params));
  dp::Query query;
  query.header_space.dst = util::MustParsePrefix("10.1.0.0/24");
  query.sources = {net.graph.FindByName("edge-0-0")};
  query.destinations = {net.graph.FindByName("edge-1-0")};
  query.record_paths = true;

  core::MonoVerifier mono{core::MonoOptions{}};
  core::VerifyResult base = mono.Verify(net, {query});
  ASSERT_TRUE(base.ok());

  ControllerOptions options;
  options.num_workers = 4;
  options.scheme = topo::PartitionScheme::kRandom;  // cut many paths
  core::S2Verifier verifier(options);
  core::VerifyResult result = verifier.Verify(net, {query});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.queries[0].paths_recorded,
            base.queries[0].paths_recorded);
  EXPECT_EQ(result.queries[0].valleys.size(),
            base.queries[0].valleys.size());
  EXPECT_GT(result.queries[0].paths_recorded, 1u);
}

TEST(DistQueryTest, ConsecutiveQueriesDoNotLeakState) {
  topo::FatTreeParams params;
  params.k = 4;
  auto net = testing::Parse(topo::MakeFatTree(params));
  dp::Query q1 = AllPairQuery(net);
  dp::Query q2;  // narrow single-destination query
  q2.header_space.dst = util::MustParsePrefix("10.1.0.0/24");
  q2.sources = {net.graph.FindByName("edge-0-0")};
  q2.destinations = {net.graph.FindByName("edge-1-0")};

  ControllerOptions options;
  options.num_workers = 4;
  core::S2Verifier verifier(options);
  core::VerifyResult result = verifier.Verify(net, {q1, q2, q1});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.queries.size(), 3u);
  EXPECT_EQ(result.queries[0].reachable_pairs,
            result.queries[2].reachable_pairs);
  EXPECT_EQ(result.queries[1].reachable_pairs, 1u);
}

// ------------------------------------------------------ resource limits

TEST(DistResourceTest, PerWorkerBudgetOomIsAVerdict) {
  topo::FatTreeParams params;
  params.k = 4;
  auto net = testing::Parse(topo::MakeFatTree(params));
  ControllerOptions options;
  options.num_workers = 2;
  options.worker_memory_budget = 20'000;  // far too small
  core::S2Verifier verifier(options);
  core::VerifyResult result = verifier.Verify(net, {});
  EXPECT_EQ(result.status, core::RunStatus::kOutOfMemory);
  EXPECT_NE(result.failure_detail.find("worker-"), std::string::npos);
}

// The query-parallel path surfaces the same resource verdicts as the
// sequential engine: per-query domain charges land on the worker tracker.

TEST(DistResourceTest, QueryParallelDomainsRespectWorkerBudget) {
  topo::FatTreeParams params;
  params.k = 4;
  auto net = testing::Parse(topo::MakeFatTree(params));
  dp::Query query;
  query.header_space.dst = util::MustParsePrefix("10.0.0.0/8");
  query.sources = {net.graph.FindByName("edge-0-0")};
  query.destinations = {net.graph.FindByName("edge-1-0")};
  std::vector<dp::Query> queries = {query, query, query, query};

  // Measure the budget-free peak through the data-plane build, then rerun
  // with a budget just above it: the per-query rebuilt domains charge the
  // same worker trackers on top, so RunQueries must trip the budget.
  size_t build_peak = 0;
  {
    ControllerOptions options;
    options.num_workers = 2;
    Controller controller(net, options);
    controller.Setup();
    controller.RunControlPlane();
    controller.BuildDataPlanes();
    build_peak = controller.MaxWorkerPeakBytes();
  }
  ControllerOptions options;
  options.num_workers = 2;
  options.query_lanes = 4;
  options.worker_memory_budget = build_peak + 10'000;
  Controller controller(net, options);
  controller.Setup();
  controller.RunControlPlane();
  controller.BuildDataPlanes();
  EXPECT_THROW(controller.RunQueries(queries), util::SimulatedOom);
}

TEST(DistResourceTest, NonConvergenceIsTimeout) {
  topo::Network net = testing::MakeChain(2);
  auto p = util::MustParsePrefix("203.0.113.0/24");
  net.intents[0].cond_advs.push_back(topo::CondAdvIntent{p, p, false});
  auto parsed = testing::Parse(net);
  ControllerOptions options;
  options.num_workers = 2;
  options.max_rounds = 20;
  core::S2Verifier verifier(options);
  core::VerifyResult result = verifier.Verify(parsed, {});
  EXPECT_EQ(result.status, core::RunStatus::kTimeout);
}

TEST(DistResourceTest, MoreWorkersLowerPerWorkerPeak) {
  topo::FatTreeParams params;
  params.k = 6;
  auto net = testing::Parse(topo::MakeFatTree(params));
  size_t peak1 = 0, peak4 = 0;
  for (uint32_t workers : {1u, 4u}) {
    ControllerOptions options;
    options.num_workers = workers;
    core::S2Verifier verifier(options);
    auto result = verifier.Verify(net, {});
    ASSERT_TRUE(result.ok());
    (workers == 1 ? peak1 : peak4) = result.peak_memory_bytes;
  }
  EXPECT_LT(peak4, peak1);
  EXPECT_GT(peak4, peak1 / 8);  // but not absurdly low either
}

TEST(DistResourceTest, ShardingLowersPerWorkerPeak) {
  topo::FatTreeParams params;
  params.k = 6;
  auto net = testing::Parse(topo::MakeFatTree(params));
  size_t unsharded = 0, sharded = 0;
  for (int shards : {0, 10}) {
    ControllerOptions options;
    options.num_workers = 2;
    options.num_shards = shards;
    core::S2Verifier verifier(options);
    auto result = verifier.Verify(net, {});
    ASSERT_TRUE(result.ok());
    (shards == 0 ? unsharded : sharded) = result.peak_memory_bytes;
  }
  EXPECT_LT(sharded, unsharded);
}

TEST(DistCommTest, CrossWorkerTrafficIsSerializedBytes) {
  topo::FatTreeParams params;
  params.k = 4;
  auto net = testing::Parse(topo::MakeFatTree(params));
  ControllerOptions one, four;
  one.num_workers = 1;
  four.num_workers = 4;
  core::S2Verifier v1(one), v4(four);
  auto r1 = v1.Verify(net, {AllPairQuery(net)});
  auto r4 = v4.Verify(net, {AllPairQuery(net)});
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r4.ok());
  // A single worker only talks to the controller (final gathering); four
  // workers also ship routes and packets sideways.
  EXPECT_GT(r4.comm_bytes, r1.comm_bytes);
  EXPECT_GT(r4.control_plane.comm_bytes, 0u);
  EXPECT_GT(r4.dp_forward.comm_bytes, 0u);
  EXPECT_EQ(r1.control_plane.comm_bytes, 0u);
}

TEST(DistMetricsTest, ModeledTimeAndRoundsPopulated) {
  topo::FatTreeParams params;
  params.k = 4;
  auto net = testing::Parse(topo::MakeFatTree(params));
  ControllerOptions options;
  options.num_workers = 4;
  options.num_shards = 3;
  core::S2Verifier verifier(options);
  auto result = verifier.Verify(net, {AllPairQuery(net)});
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.control_plane.rounds, 0);
  EXPECT_GT(result.control_plane.modeled_seconds, 0.0);
  EXPECT_GT(result.dp_build.modeled_seconds, 0.0);
  EXPECT_GT(result.dp_forward.rounds, 0);
  EXPECT_GT(result.TotalWallSeconds(), 0.0);
  EXPECT_EQ(result.worker_peaks.size(), 4u);
}

}  // namespace
}  // namespace s2::dist
