// Tests for the network substrate: topology metrics, FIFO delivery,
// latency pricing, and loss-freedom under random traffic (property tests).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "net/network.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"

namespace {

using namespace abcl;
using net::Packet;
using net::Topology;
using net::TopologyKind;

// ------------------------------------------------------------ Topology -----

TEST(Topology, FactorizationIsNearSquare) {
  Topology t(TopologyKind::kTorus2D, 512);
  EXPECT_EQ(t.dim_x() * t.dim_y(), 512);
  EXPECT_EQ(t.dim_x(), 32);
  EXPECT_EQ(t.dim_y(), 16);
  Topology s(TopologyKind::kTorus2D, 64);
  EXPECT_EQ(s.dim_x(), 8);
  EXPECT_EQ(s.dim_y(), 8);
}

TEST(Topology, HopsZeroIffSame) {
  for (auto kind : {TopologyKind::kTorus2D, TopologyKind::kMesh2D,
                    TopologyKind::kFullyConnected}) {
    Topology t(kind, 16);
    for (int i = 0; i < 16; ++i) {
      for (int j = 0; j < 16; ++j) {
        EXPECT_EQ(t.hops(i, j) == 0, i == j);
      }
    }
  }
}

TEST(Topology, TorusWrapAroundShortens) {
  Topology t(TopologyKind::kTorus2D, 16);  // 4x4
  // Nodes 0 and 3 are 3 apart on a mesh row but 1 apart on the torus.
  EXPECT_EQ(t.hops(0, 3), 1);
  Topology m(TopologyKind::kMesh2D, 16);
  EXPECT_EQ(m.hops(0, 3), 3);
}

TEST(Topology, FullyConnectedAlwaysOneHop) {
  Topology t(TopologyKind::kFullyConnected, 10);
  for (int i = 0; i < 10; ++i) {
    for (int j = 0; j < 10; ++j) {
      if (i != j) {
        EXPECT_EQ(t.hops(i, j), 1);
      }
    }
  }
}

class TopologyProps
    : public ::testing::TestWithParam<std::tuple<TopologyKind, int>> {};

TEST_P(TopologyProps, HopsAreSymmetricAndBounded) {
  auto [kind, n] = GetParam();
  Topology t(kind, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      EXPECT_EQ(t.hops(i, j), t.hops(j, i));
      EXPECT_LE(t.hops(i, j), t.diameter());
      EXPECT_GE(t.hops(i, j), 0);
    }
  }
}

TEST_P(TopologyProps, TriangleInequality) {
  auto [kind, n] = GetParam();
  Topology t(kind, n);
  util::Xoshiro256 rng(5);
  for (int it = 0; it < 300; ++it) {
    int a = static_cast<int>(rng.below(n));
    int b = static_cast<int>(rng.below(n));
    int c = static_cast<int>(rng.below(n));
    EXPECT_LE(t.hops(a, c), t.hops(a, b) + t.hops(b, c));
  }
}

TEST_P(TopologyProps, NeighborsAreMutualAndOneHop) {
  auto [kind, n] = GetParam();
  Topology t(kind, n);
  for (int i = 0; i < n; ++i) {
    for (auto nb : t.neighbors(i)) {
      EXPECT_NE(nb, i);
      EXPECT_EQ(t.hops(i, nb), 1);
      if (kind != TopologyKind::kFullyConnected) {
        // mutual (fully-connected caps the list, so skip there)
        auto back = t.neighbors(nb);
        EXPECT_NE(std::find(back.begin(), back.end(), i), back.end());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TopologyProps,
    ::testing::Combine(::testing::Values(TopologyKind::kTorus2D,
                                         TopologyKind::kMesh2D,
                                         TopologyKind::kFullyConnected,
                                         TopologyKind::kRing),
                       ::testing::Values(1, 2, 6, 16, 31, 64)));

INSTANTIATE_TEST_SUITE_P(
    HypercubeShapes, TopologyProps,
    ::testing::Combine(::testing::Values(TopologyKind::kHypercube),
                       ::testing::Values(1, 2, 16, 64)));

TEST(Topology, RingWrapsBothWays) {
  Topology r(TopologyKind::kRing, 10);
  EXPECT_EQ(r.hops(0, 9), 1);
  EXPECT_EQ(r.hops(0, 5), 5);
  EXPECT_EQ(r.hops(2, 8), 4);
  EXPECT_EQ(r.diameter(), 5);
  auto nb = r.neighbors(0);
  ASSERT_EQ(nb.size(), 2u);
  EXPECT_EQ(nb[0], 1);
  EXPECT_EQ(nb[1], 9);
}

TEST(Topology, HypercubeHopsAreHammingDistance) {
  Topology h(TopologyKind::kHypercube, 16);
  EXPECT_EQ(h.hops(0b0000, 0b1111), 4);
  EXPECT_EQ(h.hops(0b0101, 0b0110), 2);
  EXPECT_EQ(h.diameter(), 4);
  EXPECT_EQ(h.neighbors(0).size(), 4u);
}

TEST(TopologyDeath, HypercubeRequiresPowerOfTwo) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH({ Topology h(TopologyKind::kHypercube, 12); }, "power-of-two");
}

// ------------------------------------------------------------- Network -----

net::Network make_net(int nodes, const sim::CostModel* cm) {
  return net::Network(Topology(TopologyKind::kTorus2D, nodes), cm);
}

Packet make_pkt(int src, int dst, sim::Instr t, net::Word tag = 0) {
  Packet p;
  p.handler = 0;
  p.src = src;
  p.dst = dst;
  p.send_time = t;
  p.push(tag);
  return p;
}

TEST(Network, LatencyPricing) {
  sim::CostModel cm = sim::CostModel::ap1000();
  auto net = make_net(16, &cm);
  net.send(make_pkt(0, 1, 100), net::AmCategory::kObjectMessage);
  Packet out;
  ASSERT_TRUE(net.poll(1, sim::kInstrInf, out));
  sim::Instr expected = 100 + cm.wire_latency + 1 * cm.per_hop +
                        static_cast<sim::Instr>(out.wire_words()) * cm.per_word;
  EXPECT_EQ(out.arrive_time, expected);
}

TEST(Network, PollRespectsArrivalTime) {
  sim::CostModel cm = sim::CostModel::ap1000();
  auto net = make_net(4, &cm);
  net.send(make_pkt(0, 1, 0), net::AmCategory::kObjectMessage);
  Packet out;
  EXPECT_FALSE(net.poll(1, 0, out));  // not arrived yet
  EXPECT_EQ(net.next_arrival(1), cm.wire_latency + cm.per_hop + 5 * cm.per_word);
  EXPECT_TRUE(net.poll(1, net.next_arrival(1), out));
  EXPECT_TRUE(net.idle());
}

TEST(Network, ChannelFifoEvenWithReorderedSendTimes) {
  // Two sends on the same channel where the second "catches up": arrival
  // times must stay nondecreasing in send order.
  sim::CostModel cm = sim::CostModel::zero();
  cm.wire_latency = 100;
  auto net = make_net(4, &cm);
  Packet a = make_pkt(0, 1, 0, 1);
  a.push(0);  // bigger payload -> would arrive later under per-word pricing
  net.send(std::move(a), net::AmCategory::kObjectMessage);
  net.send(make_pkt(0, 1, 1, 2), net::AmCategory::kObjectMessage);
  Packet out;
  ASSERT_TRUE(net.poll(1, sim::kInstrInf, out));
  EXPECT_EQ(out.at(0), 1u);
  ASSERT_TRUE(net.poll(1, sim::kInstrInf, out));
  EXPECT_EQ(out.at(0), 2u);
}

TEST(Network, LookaheadIsWireFloorPlusSendSetup) {
  // ap1000: the wire floor is wire_latency plus the 4 mandatory header
  // words, and every send pays send_setup (20 instr) before it stamps.
  sim::CostModel cm = sim::CostModel::ap1000();
  auto net = make_net(16, &cm);
  EXPECT_EQ(net.min_packet_latency(), cm.wire_latency + 4 * cm.per_word);
  EXPECT_EQ(cm.send_setup, 20u);
  EXPECT_EQ(net.lookahead(), net.min_packet_latency() + 20);

  // The free model: a 1-instr wire and no send setup.
  sim::CostModel zero = sim::CostModel::zero();
  EXPECT_EQ(make_net(16, &zero).lookahead(), 1u);

  // Free wire + free words (per-hop-only pricing): the wire floor clamps
  // up to 1, as the commit path clamps a zero priced latency, and
  // send_setup adds on top.
  sim::CostModel free_wire = sim::CostModel::zero();
  free_wire.wire_latency = 0;
  free_wire.per_word = 0;
  free_wire.per_hop = 1;
  free_wire.send_setup = 7;
  auto net0 = make_net(16, &free_wire);
  EXPECT_EQ(net0.min_packet_latency(), 1u);
  EXPECT_EQ(net0.lookahead(), 1u + 7);

  // An all-zero wire model is valid too: every priced latency clamps to 1,
  // so the lookahead is 1 + send_setup and a 0-hop self-send still takes
  // one instruction.
  sim::CostModel no_wire = sim::CostModel::ap1000();
  no_wire.wire_latency = 0;
  no_wire.per_hop = 0;
  no_wire.per_word = 0;
  auto net1 = make_net(16, &no_wire);
  EXPECT_EQ(net1.min_packet_latency(), 1u);
  EXPECT_EQ(net1.lookahead(), 1u + no_wire.send_setup);
  net1.send(make_pkt(3, 3, 50), net::AmCategory::kObjectMessage);
  Packet out;
  ASSERT_TRUE(net1.poll(3, sim::kInstrInf, out));
  EXPECT_EQ(out.arrive_time, 51u);
}

TEST(Network, InFlightCountsAndStats) {
  sim::CostModel cm = sim::CostModel::ap1000();
  auto net = make_net(4, &cm);
  for (int i = 0; i < 10; ++i) {
    net.send(make_pkt(0, 1, 0), net::AmCategory::kObjectMessage);
  }
  net.send(make_pkt(0, 2, 0), net::AmCategory::kCreateRequest);
  EXPECT_EQ(net.in_flight(), 11u);
  EXPECT_EQ(net.stats().packets, 11u);
  EXPECT_EQ(net.stats().per_category[0], 10u);
  EXPECT_EQ(net.stats().per_category[1], 1u);
  Packet out;
  while (net.poll(1, sim::kInstrInf, out)) {
  }
  EXPECT_EQ(net.in_flight(), 1u);
}

TEST(Network, OnDeliverableCallbackFires) {
  sim::CostModel cm = sim::CostModel::ap1000();
  std::vector<int> notified;
  net::Network net(Topology(TopologyKind::kTorus2D, 4), &cm,
                   [&](net::NodeId d) { notified.push_back(d); });
  net.send(make_pkt(0, 3, 0), net::AmCategory::kObjectMessage);
  net.send(make_pkt(1, 2, 0), net::AmCategory::kObjectMessage);
  ASSERT_EQ(notified.size(), 2u);
  EXPECT_EQ(notified[0], 3);
  EXPECT_EQ(notified[1], 2);
}

// Property: random traffic — every packet delivered exactly once, per
// channel in FIFO order, never before its send time + minimum latency.
class NetworkTraffic : public ::testing::TestWithParam<int> {};

TEST_P(NetworkTraffic, NoLossNoDupFifo) {
  const int nodes = GetParam();
  sim::CostModel cm = sim::CostModel::ap1000();
  auto net = make_net(nodes, &cm);
  util::Xoshiro256 rng(1234 + nodes);

  const int kPackets = 5000;
  std::map<std::pair<int, int>, std::uint64_t> next_tag_to_send;
  std::vector<std::uint64_t> sent_tag(kPackets);
  for (int i = 0; i < kPackets; ++i) {
    int src = static_cast<int>(rng.below(nodes));
    int dst = static_cast<int>(rng.below(nodes));
    auto& tag = next_tag_to_send[{src, dst}];
    Packet p = make_pkt(src, dst, rng.below(1000), tag++);
    net.send(std::move(p), net::AmCategory::kObjectMessage);
  }

  std::map<std::pair<int, int>, std::uint64_t> next_tag_expected;
  int received = 0;
  for (int d = 0; d < nodes; ++d) {
    Packet out;
    sim::Instr last_arrive = 0;
    while (net.poll(d, sim::kInstrInf, out)) {
      ++received;
      // Per-destination delivery in arrival order.
      EXPECT_GE(out.arrive_time, last_arrive);
      last_arrive = out.arrive_time;
      // Per-channel FIFO by tag.
      auto& expect_tag = next_tag_expected[{out.src, d}];
      EXPECT_EQ(out.at(0), expect_tag) << "src=" << out.src << " dst=" << d;
      ++expect_tag;
      // Causality: no packet arrives before send + min latency.
      EXPECT_GE(out.arrive_time, out.send_time + 1);
    }
  }
  EXPECT_EQ(received, kPackets);
  EXPECT_TRUE(net.idle());
}

INSTANTIATE_TEST_SUITE_P(Sizes, NetworkTraffic, ::testing::Values(2, 3, 16, 64));

// ------------------------------------------- Deterministic delivery order ---

TEST(Network, SameInstantArrivalsOrderedBySourceNotSendCallOrder) {
  // Fully connected: nodes 1 and 3 are both one hop from 2, so identical
  // packets sent at the same instant arrive at the same instant. The higher
  // source sends *first*, yet the lower source must be delivered first:
  // tiebreak is (arrive_time, src, seq) — simulated quantities, not host
  // call order.
  sim::CostModel cm = sim::CostModel::ap1000();
  net::Network net(Topology(TopologyKind::kFullyConnected, 4), &cm);
  net.send(make_pkt(3, 2, 0, /*tag=*/33), net::AmCategory::kObjectMessage);
  net.send(make_pkt(1, 2, 0, /*tag=*/11), net::AmCategory::kObjectMessage);
  Packet out;
  ASSERT_TRUE(net.poll(2, sim::kInstrInf, out));
  EXPECT_EQ(out.src, 1);
  EXPECT_EQ(out.at(0), 11u);
  ASSERT_TRUE(net.poll(2, sim::kInstrInf, out));
  EXPECT_EQ(out.src, 3);
}

TEST(Network, SeqNumbersArePerSource) {
  sim::CostModel cm = sim::CostModel::ap1000();
  auto net = make_net(4, &cm);
  net.send(make_pkt(0, 2, 0), net::AmCategory::kObjectMessage);
  net.send(make_pkt(1, 2, 0), net::AmCategory::kObjectMessage);
  net.send(make_pkt(0, 3, 0), net::AmCategory::kObjectMessage);
  std::map<int, std::vector<std::uint64_t>> seqs_by_src;
  Packet out;
  for (int d = 0; d < 4; ++d) {
    while (net.poll(d, sim::kInstrInf, out)) {
      seqs_by_src[out.src].push_back(out.seq);
    }
  }
  EXPECT_EQ(seqs_by_src[0], (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(seqs_by_src[1], (std::vector<std::uint64_t>{0}));
}

TEST(Network, MinPacketLatencyIsAPositiveLowerBound) {
  for (auto cm : {sim::CostModel::ap1000(), sim::CostModel::zero()}) {
    auto net = make_net(16, &cm);
    sim::Instr look = net.min_packet_latency();
    EXPECT_GT(look, 0u);
    // Empirically no packet beats the bound, including the 0-hop self-send.
    for (int dst = 0; dst < 16; ++dst) {
      net.send(make_pkt(0, dst, 0), net::AmCategory::kObjectMessage);
    }
    Packet out;
    for (int dst = 0; dst < 16; ++dst) {
      while (net.poll(dst, sim::kInstrInf, out)) {
        EXPECT_GE(out.arrive_time - out.send_time, look);
      }
    }
  }
}

// ------------------------------------------------------ Outbox + merging ---

TEST(Network, OutboxBuffersUntilFlush) {
  sim::CostModel cm = sim::CostModel::ap1000();
  auto net = make_net(4, &cm);
  net::Network::Outbox ob;
  net.set_outbox(0, &ob);
  ob.set_current_key(0);
  net.send(make_pkt(0, 1, cm.send_setup), net::AmCategory::kObjectMessage);
  EXPECT_EQ(ob.size(), 1u);
  EXPECT_EQ(net.in_flight(), 0u);
  EXPECT_EQ(net.next_arrival(1), sim::kInstrInf);  // nothing committed yet
  net::Network::Outbox* boxes[] = {&ob};
  net.flush_outboxes(boxes, 1);
  EXPECT_TRUE(ob.empty());
  EXPECT_EQ(net.in_flight(), 1u);
  Packet out;
  ASSERT_TRUE(net.poll(1, sim::kInstrInf, out));
  net.set_outbox(0, nullptr);
}

// A send path that stamps send_time before charging send_setup would let a
// packet beat the driver's lookahead; Debug builds stop it at the append.
TEST(NetworkDeathTest, OutboxAppendChecksTheSendFloor) {
#ifdef NDEBUG
  GTEST_SKIP() << "ABCL_DCHECK is compiled out";
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  sim::CostModel cm = sim::CostModel::ap1000();
  auto net = make_net(4, &cm);
  net::Network::Outbox ob;
  net.set_outbox(2, &ob);
  ob.set_current_key(100);
  EXPECT_DEATH(net.send(make_pkt(2, 1, 100 + cm.send_setup - 1),
                        net::AmCategory::kObjectMessage),
               "node 2 stamped send_time 119 below its quantum key 100");
  net.send(make_pkt(2, 1, 100 + cm.send_setup),
           net::AmCategory::kObjectMessage);
  EXPECT_EQ(ob.size(), 1u);
  net.set_outbox(2, nullptr);
#endif
}

TEST(Network, FlushCommitsInCanonicalKeySrcOrderAcrossOutboxes) {
  // Two outboxes holding interleaved quantum keys: after the flush, seqs and
  // channel floors must equal those of a direct-send network that issued the
  // same packets in ascending (key, src) order.
  sim::CostModel cm = sim::CostModel::ap1000();
  auto buffered = make_net(4, &cm);
  auto direct = make_net(4, &cm);

  net::Network::Outbox ob0, ob1;
  buffered.set_outbox(0, &ob0);
  buffered.set_outbox(1, &ob1);
  // Worker 0 runs node 0's quanta at keys 50 then 70; worker 1 runs node
  // 1's quantum at key 60. Host issue order is scrambled on purpose; each
  // send is stamped after its send_setup, as the runtime stamps it.
  const sim::Instr su = cm.send_setup;
  ob0.set_current_key(50);
  buffered.send(make_pkt(0, 2, 50 + su, 1), net::AmCategory::kObjectMessage);
  ob0.set_current_key(70);
  buffered.send(make_pkt(0, 2, 70 + su, 3), net::AmCategory::kObjectMessage);
  ob1.set_current_key(60);
  buffered.send(make_pkt(1, 2, 60 + su, 2), net::AmCategory::kObjectMessage);
  net::Network::Outbox* boxes[] = {&ob1, &ob0};  // order must not matter
  buffered.flush_outboxes(boxes, 2);

  direct.send(make_pkt(0, 2, 50 + su, 1), net::AmCategory::kObjectMessage);
  direct.send(make_pkt(1, 2, 60 + su, 2), net::AmCategory::kObjectMessage);
  direct.send(make_pkt(0, 2, 70 + su, 3), net::AmCategory::kObjectMessage);

  Packet a, b;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(buffered.poll(2, sim::kInstrInf, a));
    ASSERT_TRUE(direct.poll(2, sim::kInstrInf, b));
    EXPECT_EQ(a.src, b.src);
    EXPECT_EQ(a.seq, b.seq);
    EXPECT_EQ(a.arrive_time, b.arrive_time);
    EXPECT_EQ(a.at(0), b.at(0));
  }
  EXPECT_EQ(buffered.stats().packets, direct.stats().packets);
  EXPECT_EQ(buffered.stats().wire_latency_instr.mean(),
            direct.stats().wire_latency_instr.mean());
  EXPECT_EQ(buffered.stats().wire_latency_instr.variance(),
            direct.stats().wire_latency_instr.variance());
}

// One worker's outbox as the parallel driver fills it: the shard's nodes
// run one after another, each issuing sends at nondecreasing quantum keys,
// so the box holds per-source runs whose keys interleave across sources.
// Few distinct keys make equal keys across sources common, and several
// sends per (key, src) pin program order. After the flush, every
// destination must see exactly what a direct network sees when the same
// packets are issued in canonical order: ascending key, then src, then
// program order — built here by a triple loop, independent of the sort.
void check_canonical_flush(std::size_t nitems, bool in_order) {
  SCOPED_TRACE("items=" + std::to_string(nitems) +
               (in_order ? " in order" : " interleaved"));
  sim::CostModel cm = sim::CostModel::ap1000();
  auto buffered = make_net(8, &cm);
  auto direct = make_net(8, &cm);
  constexpr int kSrcs = 4;
  struct Sent {
    int src;
    int dst;
    sim::Instr key;
    net::Word tag;
  };
  std::vector<Sent> sent;
  util::Xoshiro256 rng(nitems * 131 + (in_order ? 7 : 0));
  sim::Instr key[kSrcs] = {};
  for (std::size_t i = 0; i < nitems; ++i) {
    int src = 0;
    if (in_order) {
      // Appends already canonical: one key step for all sources, ascending
      // src inside it.
      src = static_cast<int>(i % kSrcs);
      if (i > 0 && src == 0) key[0] += 10;
      key[src] = key[0];
    } else {
      // Shard order: source s issues its share before source s + 1.
      src = static_cast<int>(i * kSrcs / nitems);
      key[src] += 10 * static_cast<sim::Instr>(rng.below(2));
    }
    const int dst = 4 + static_cast<int>(rng.below(4));
    sent.push_back({src, dst, key[src], static_cast<net::Word>(i)});
  }

  net::Network::Outbox ob;
  for (int s = 0; s < kSrcs; ++s) buffered.set_outbox(s, &ob);
  for (const Sent& x : sent) {
    ob.set_current_key(x.key);
    buffered.send(make_pkt(x.src, x.dst, x.key + cm.send_setup, x.tag),
                  net::AmCategory::kObjectMessage);
  }
  ASSERT_EQ(ob.size(), nitems);
  net::Network::Outbox* boxes[] = {&ob};
  buffered.flush_outboxes(boxes, 1);
  for (int s = 0; s < kSrcs; ++s) buffered.set_outbox(s, nullptr);

  sim::Instr max_key = 0;
  for (const Sent& x : sent) max_key = std::max(max_key, x.key);
  for (sim::Instr k = 0; k <= max_key; k += 10) {
    for (int s = 0; s < kSrcs; ++s) {
      for (const Sent& x : sent) {
        if (x.key == k && x.src == s) {
          direct.send(make_pkt(x.src, x.dst, x.key + cm.send_setup, x.tag),
                      net::AmCategory::kObjectMessage);
        }
      }
    }
  }

  for (int dst = 4; dst < 8; ++dst) {
    Packet a, b;
    while (direct.poll(dst, sim::kInstrInf, b)) {
      ASSERT_TRUE(buffered.poll(dst, sim::kInstrInf, a));
      EXPECT_EQ(a.src, b.src);
      EXPECT_EQ(a.seq, b.seq);
      EXPECT_EQ(a.arrive_time, b.arrive_time);
      EXPECT_EQ(a.at(0), b.at(0));
    }
    EXPECT_FALSE(buffered.poll(dst, sim::kInstrInf, a));
  }
  EXPECT_EQ(buffered.stats().packets, direct.stats().packets);
  EXPECT_EQ(buffered.stats().wire_latency_instr.mean(),
            direct.stats().wire_latency_instr.mean());
  EXPECT_EQ(buffered.stats().wire_latency_instr.variance(),
            direct.stats().wire_latency_instr.variance());
}

TEST(Network, FlushOrderWhenAppendsInterleave) {
  for (std::size_t n : {std::size_t{2}, std::size_t{9}, std::size_t{16},
                        std::size_t{64}, std::size_t{500}}) {
    check_canonical_flush(n, /*in_order=*/false);
  }
}

TEST(Network, FlushOrderWhenAppendsArriveCanonical) {
  for (std::size_t n : {std::size_t{12}, std::size_t{200}}) {
    check_canonical_flush(n, /*in_order=*/true);
  }
}

TEST(NetworkStats, MergeMatchesCombinedAccumulation) {
  sim::CostModel cm = sim::CostModel::ap1000();
  auto whole = make_net(8, &cm);
  auto part_a = make_net(8, &cm);
  auto part_b = make_net(8, &cm);
  util::Xoshiro256 rng(99);
  for (int i = 0; i < 200; ++i) {
    int src = static_cast<int>(rng.below(8));
    int dst = static_cast<int>(rng.below(8));
    // Widely spaced send times: the per-channel FIFO clamp never engages, so
    // each packet's latency is independent of which network carried it.
    auto t = static_cast<sim::Instr>(i) * 1000;
    auto cat = static_cast<net::AmCategory>(rng.below(4));
    whole.send(make_pkt(src, dst, t), cat);
    (i % 2 == 0 ? part_a : part_b).send(make_pkt(src, dst, t), cat);
  }
  net::Network::Stats merged = part_a.stats();
  merged.merge(part_b.stats());
  EXPECT_EQ(merged.packets, whole.stats().packets);
  EXPECT_EQ(merged.payload_words, whole.stats().payload_words);
  EXPECT_EQ(merged.wire_words, whole.stats().wire_words);
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(merged.per_category[c], whole.stats().per_category[c]);
  }
  EXPECT_EQ(merged.wire_latency_instr.count(),
            whole.stats().wire_latency_instr.count());
  // Welford merge is algebraically exact; floating point makes it only
  // near-exact vs a straight-line accumulation.
  EXPECT_NEAR(merged.wire_latency_instr.mean(),
              whole.stats().wire_latency_instr.mean(), 1e-9);
  EXPECT_NEAR(merged.wire_latency_instr.variance(),
              whole.stats().wire_latency_instr.variance(), 1e-6);
  EXPECT_EQ(merged.wire_latency_instr.min(), whole.stats().wire_latency_instr.min());
  EXPECT_EQ(merged.wire_latency_instr.max(), whole.stats().wire_latency_instr.max());
}

}  // namespace
