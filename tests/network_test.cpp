// Tests for the message-passing layer: delivery, contention, startup
// costs, congestion recording and mailbox semantics.

#include <gtest/gtest.h>

#include "net/link_stats.hpp"
#include "net/mesh_topology.hpp"
#include "net/network.hpp"
#include "sim/task.hpp"

namespace diva::net {
namespace {

struct Fixture {
  explicit Fixture(int rows = 4, int cols = 4, CostModel cm = CostModel::gcel())
      : topo(rows, cols), stats(topo.numLinkSlots()), net(engine, topo, cm, stats) {}
  sim::Engine engine;
  MeshTopology topo;
  LinkStats stats;
  Network net;
};

TEST(Network, HandlerMayRegisterHandlersOnNewChannels) {
  Fixture f;
  bool rebound = false;
  int fresh = -1;
  f.net.setHandler(1, kFirstAppChannel, [&](Message&&) {
    // Mid-dispatch, rebind a channel already in use and open a brand-new
    // one: the new channel's port must not move the running handler.
    f.net.setHandler(2, kFirstAppChannel, [&](Message&&) { rebound = true; });
    f.net.setHandler(3, kFirstAppChannel + 100, [&](Message&& m) { fresh = m.as<int>(); });
    f.net.post(Message{1, 3, kFirstAppChannel + 100, 64, 7});
  });
  f.net.post(Message{0, 1, kFirstAppChannel, 64, 0});
  f.net.post(Message{0, 2, kFirstAppChannel, 64, 0});
  f.engine.run();
  EXPECT_TRUE(rebound);
  EXPECT_EQ(fresh, 7);
}

TEST(Network, RecvRejectsOutOfRangeNode) {
  Fixture f;  // 4x4: nodes 0..15
  EXPECT_THROW(
      { auto t = f.net.recv(16, kFirstAppChannel); (void)t; },
      support::CheckError);
}

TEST(Network, HandlerReceivesMessage) {
  Fixture f;
  int got = -1;
  double when = -1;
  f.net.setHandler(5, kFirstAppChannel, [&](Message&& m) {
    got = m.as<int>();
    when = f.engine.now();
  });
  f.net.post(Message{0, 5, kFirstAppChannel, 1000, 41});
  f.engine.run();
  EXPECT_EQ(got, 41);
  // Cost lower bound: send startup + (bytes/bw) per hop pipeline + recv.
  const CostModel cm;
  EXPECT_GE(when, cm.sendOverheadUs + 1032.0 / cm.bytesPerUs + cm.recvOverheadUs);
}

TEST(Network, LocalMessagesSkipTheWire) {
  Fixture f;
  bool got = false;
  f.net.setHandler(3, kFirstAppChannel, [&](Message&&) { got = true; });
  f.net.post(Message{3, 3, kFirstAppChannel, 4096, 0});
  f.engine.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(f.stats.totalMessages(), 0u) << "local message must not touch links";
  const CostModel cm;
  EXPECT_LE(f.engine.now(), cm.stateLookupUs)
      << "local delivery costs one state-machine step";
}

TEST(Network, CongestionRecordedPerHop) {
  Fixture f;
  f.net.setHandler(3, kFirstAppChannel, [](Message&&) {});
  // 0 → 3 in row 0: three East hops.
  f.net.post(Message{0, 3, kFirstAppChannel, 968, 0});
  f.engine.run();
  EXPECT_EQ(f.stats.totalMessages(), 3u);
  EXPECT_EQ(f.stats.congestionMessages(), 1u);
  EXPECT_EQ(f.stats.totalBytes(), 3u * 1000u);  // payload + 32B header
}

TEST(Network, ContendedLinkSerializes) {
  // Two large messages crossing the same link: the second one's delivery
  // is delayed by a full transmission time.
  Fixture f;
  double t1 = -1, t2 = -1;
  int arrivals = 0;
  f.net.setHandler(1, kFirstAppChannel, [&](Message&&) {
    (arrivals++ == 0 ? t1 : t2) = f.engine.now();
  });
  // Messages from node 0 to node 1 share link 0→1. Two different source
  // coroutine posts at the same time.
  f.net.post(Message{0, 1, kFirstAppChannel, 10000, 0});
  f.net.post(Message{0, 1, kFirstAppChannel, 10000, 0});
  f.engine.run();
  ASSERT_EQ(arrivals, 2);
  const CostModel cm;
  EXPECT_GE(t2 - t1, 10000.0 / cm.bytesPerUs) << "second transfer must queue";
}

TEST(Network, CutThroughPipelinesAcrossHops) {
  // A long path should add per-hop latency, not per-hop transmission
  // time (wormhole/cut-through, not store-and-forward).
  Fixture f(1, 16);
  double when = -1;
  f.net.setHandler(15, kFirstAppChannel, [&](Message&& ) { when = f.engine.now(); });
  f.net.post(Message{0, 15, kFirstAppChannel, 20000, 0});
  f.engine.run();
  const CostModel cm;
  const double stream = 20032.0 / cm.bytesPerUs;
  const double storeAndForward = cm.sendOverheadUs + 15 * stream;
  const double cutThrough = cm.sendOverheadUs + 14 * cm.hopLatencyUs + stream +
                            cm.recvOverheadUs;
  EXPECT_NEAR(when, cutThrough, 1.0);
  EXPECT_LT(when, storeAndForward / 2);
}

TEST(Network, MailboxRecvBlocksUntilArrival) {
  Fixture f;
  int got = 0;
  sim::spawn([](Fixture& fx, int& out) -> sim::Task<> {
    Message m = co_await fx.net.recv(7, kFirstAppChannel);
    out = m.as<int>();
  }(f, got));
  f.engine.scheduleAt(100.0, [&] {
    f.net.post(Message{0, 7, kFirstAppChannel, 10, 123});
  });
  f.engine.run();
  EXPECT_EQ(got, 123);
}

TEST(Network, MailboxPreservesFifoOrder) {
  Fixture f;
  std::vector<int> got;
  sim::spawn([](Fixture& fx, std::vector<int>& out) -> sim::Task<> {
    for (int i = 0; i < 3; ++i) {
      Message m = co_await fx.net.recv(7, kFirstAppChannel);
      out.push_back(m.as<int>());
    }
  }(f, got));
  for (int i = 0; i < 3; ++i) f.net.post(Message{0, 7, kFirstAppChannel, 10, i});
  f.engine.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2}));
}

TEST(Network, SendChargesSenderCpu) {
  Fixture f;
  f.net.setHandler(1, kFirstAppChannel, [](Message&&) {});
  double afterSend = -1;
  sim::spawn([](Fixture& fx, double& t) -> sim::Task<> {
    co_await fx.net.send(Message{0, 1, kFirstAppChannel, 0, 0});
    t = fx.engine.now();
  }(f, afterSend));
  f.engine.run();
  const CostModel cm;
  EXPECT_DOUBLE_EQ(afterSend, cm.sendOverheadUs);
}

TEST(Network, ComputeSerializesWithSends) {
  Fixture f;
  double done = -1;
  sim::spawn([](Fixture& fx, double& t) -> sim::Task<> {
    co_await fx.net.compute(0, 500.0);
    co_await fx.net.send(Message{0, 1, kFirstAppChannel, 0, 0});
    t = fx.engine.now();
  }(f, done));
  f.net.setHandler(1, kFirstAppChannel, [](Message&&) {});
  f.engine.run();
  const CostModel cm;
  EXPECT_DOUBLE_EQ(done, 500.0 + cm.sendOverheadUs);
}

TEST(Network, ReserveCpuAccumulatesWithoutBlocking) {
  Fixture f;
  f.net.reserveCpu(0, 100.0);
  f.net.reserveCpu(0, 100.0);
  EXPECT_DOUBLE_EQ(f.net.cpuFreeAt(0), 200.0);
  EXPECT_TRUE(f.engine.idle());
}

TEST(Network, ZeroOverheadCostModelDeliversAtWireTime) {
  // With sendOverheadUs == 0 / stateLookupUs == 0 and idle CPUs, the
  // injection and local dispatch events fall due at the posting instant:
  // the remote message pays only wire and hop costs, the local one
  // arrives at the posting instant, before any link crossing.
  CostModel cm;
  cm.sendOverheadUs = 0.0;
  cm.recvOverheadUs = 0.0;
  cm.stateLookupUs = 0.0;
  Fixture f(1, 4, cm);
  double remoteAt = -1, localAt = -1;
  int localHops = -1;
  f.net.setHandler(2, kFirstAppChannel, [&](Message&&) { remoteAt = f.engine.now(); });
  f.net.setHandler(0, kFirstAppChannel + 1, [&](Message&&) {
    localAt = f.engine.now();
    localHops = static_cast<int>(f.stats.totalMessages());
  });
  f.net.post(Message{0, 0, kFirstAppChannel + 1, 64, 0});
  f.net.post(Message{0, 2, kFirstAppChannel, 68, 0});  // 68 + 32 header = 100 B
  f.engine.run();
  // Local: delivered at t = 0, before any link crossing happened.
  EXPECT_DOUBLE_EQ(localAt, 0.0);
  EXPECT_EQ(localHops, 0);
  // Remote: two links at 100 µs stream each, cut-through after 5 µs hop
  // latency: head enters link 2 at t = 5, tail arrives 5 + 100.
  EXPECT_DOUBLE_EQ(remoteAt, 105.0);
  EXPECT_EQ(f.stats.totalMessages(), 2u);
}

TEST(Network, InlineFastPathsPreserveFifoWithDefaultCosts) {
  // A local post from a handler dispatches as a queued event, strictly
  // after the same-time events already queued (no inline delivery).
  Fixture f;
  std::vector<int> order;
  f.net.setHandler(3, kFirstAppChannel, [&](Message&&) {
    f.engine.scheduleAt(f.engine.now() + CostModel{}.stateLookupUs,
                        [&] { order.push_back(0); });
    f.net.post(Message{3, 3, kFirstAppChannel + 1, 8, 0});
  });
  f.net.setHandler(3, kFirstAppChannel + 1, [&](Message&&) { order.push_back(1); });
  f.net.post(Message{0, 3, kFirstAppChannel, 64, 0});
  f.engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(Network, BandwidthScalesDeliveryTime) {
  CostModel fast;
  fast.bytesPerUs = 10.0;
  Fixture slow(1, 2), quick(1, 2, fast);
  double tSlow = -1, tQuick = -1;
  slow.net.setHandler(1, kFirstAppChannel, [&](Message&&) { tSlow = slow.engine.now(); });
  quick.net.setHandler(1, kFirstAppChannel, [&](Message&&) { tQuick = quick.engine.now(); });
  slow.net.post(Message{0, 1, kFirstAppChannel, 100000, 0});
  quick.net.post(Message{0, 1, kFirstAppChannel, 100000, 0});
  slow.engine.run();
  quick.engine.run();
  EXPECT_GT(tSlow, tQuick * 5);
}

}  // namespace
}  // namespace diva::net
