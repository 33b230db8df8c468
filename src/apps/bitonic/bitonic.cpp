#include "apps/bitonic/bitonic.hpp"

#include <algorithm>
#include <bit>

#include "support/rng.hpp"

namespace diva::apps::bitonic {

namespace {

int log2int(int v) {
  DIVA_CHECK_MSG(std::has_single_bit(static_cast<unsigned>(v)),
                 "bitonic sorting needs a power-of-two processor count");
  return std::countr_zero(static_cast<unsigned>(v));
}

/// merge&split: keep the lower or upper half of merge(mine, partner).
std::vector<std::uint32_t> mergeSplit(const std::vector<std::uint32_t>& mine,
                                      const std::vector<std::uint32_t>& partner,
                                      bool keepLower) {
  const std::size_t m = mine.size();
  std::vector<std::uint32_t> out(m);
  if (keepLower) {
    std::size_t a = 0, b = 0;
    for (std::size_t i = 0; i < m; ++i)
      out[i] = (b >= m || (a < m && mine[a] <= partner[b])) ? mine[a++] : partner[b++];
  } else {
    std::size_t a = m, b = m;
    for (std::size_t i = m; i-- > 0;)
      out[i] = (b == 0 || (a > 0 && mine[a - 1] >= partner[b - 1])) ? mine[--a]
                                                                    : partner[--b];
  }
  return out;
}

/// Wire w keeps the lower outputs in step (i, j) iff its i-th bit is 0
/// XOR whether it is the lower wire of the pair.
bool keepsLower(int w, int partner, int phase) {
  const bool ascending = ((w >> phase) & 1) == 0;
  return (w < partner) == ascending;
}

double mergeCost(const net::CostModel& cm, int m) {
  return 2.0 * m * cm.keyOpUs;
}
double localSortCost(const net::CostModel& cm, int m) {
  return static_cast<double>(m) * std::bit_width(static_cast<unsigned>(m)) * cm.keyOpUs;
}

}  // namespace

std::vector<std::uint32_t> inputKeys(int numProcs, const Config& cfg) {
  std::vector<std::uint32_t> keys(static_cast<std::size_t>(numProcs) * cfg.keysPerProc);
  support::SplitMix64 rng(cfg.seed);
  for (auto& k : keys) k = static_cast<std::uint32_t>(rng.next());
  return keys;
}

// ---------------------------------------------------------------------------
// DIVA version
// ---------------------------------------------------------------------------

Result runDiva(Machine& m, Runtime& rt, const Config& cfg) {
  const int P = m.numProcs();
  const int logP = log2int(P);
  const int keys = cfg.keysPerProc;
  const auto order = net::canonicalLeafOrder(m.topo());
  const auto input = inputKeys(P, cfg);

  // One variable per wire, owned by the wire's processor (setup, free).
  std::vector<VarId> wireVar(static_cast<std::size_t>(P));
  for (int w = 0; w < P; ++w) {
    std::vector<std::uint32_t> block(input.begin() + static_cast<std::ptrdiff_t>(w) * keys,
                                     input.begin() + static_cast<std::ptrdiff_t>(w + 1) * keys);
    wireVar[w] = rt.createVarFree(order[w], makeVecValue(block));
  }

  auto program = [](Machine& mm, Runtime& r, int keysN, int logP_, int w, NodeId p,
                    std::vector<VarId>& vars) -> sim::Task<> {
    // Initial local sort.
    auto mine = valueAsVec<std::uint32_t>(*r.tryReadLocal(p, vars[w]));
    std::sort(mine.begin(), mine.end());
    r.chargeCompute(p, localSortCost(mm.net.cost(), keysN));
    co_await r.write(p, vars[w], makeVecValue(mine));
    co_await r.barrier(p);

    for (int phase = 1; phase <= logP_; ++phase) {
      for (int j = phase - 1; j >= 0; --j) {
        const int partner = w ^ (1 << j);
        const Value pv = co_await r.read(p, vars[partner]);
        mine = mergeSplit(mine, valueAsVec<std::uint32_t>(pv),
                          keepsLower(w, partner, phase));
        r.chargeCompute(p, mergeCost(mm.net.cost(), keysN));
        co_await r.barrier(p);  // everyone has read before anyone writes
        co_await r.write(p, vars[w], makeVecValue(mine));
        co_await r.barrier(p);
      }
    }
  };

  for (int w = 0; w < P; ++w) sim::spawn(program(m, rt, keys, logP, w, order[w], wireVar));

  Result res;
  res.timeUs = m.run();
  res.congestionBytes = m.stats.links.congestionBytes();
  res.congestionMessages = m.stats.links.congestionMessages();
  res.totalBytes = m.stats.links.totalBytes();
  res.totalMessages = m.stats.links.totalMessages();
  res.keys.reserve(static_cast<std::size_t>(P) * keys);
  for (int w = 0; w < P; ++w) {
    const auto block = valueAsVec<std::uint32_t>(rt.peek(wireVar[w]));
    res.keys.insert(res.keys.end(), block.begin(), block.end());
  }
  return res;
}

// ---------------------------------------------------------------------------
// Hand-optimized message passing
// ---------------------------------------------------------------------------

Result runHandOptimized(Machine& m, const Config& cfg) {
  const int P = m.numProcs();
  const int logP = log2int(P);
  const int keys = cfg.keysPerProc;
  const auto order = net::canonicalLeafOrder(m.topo());
  const auto input = inputKeys(P, cfg);

  std::vector<std::vector<std::uint32_t>> finals(static_cast<std::size_t>(P));

  auto program = [](Machine& mm, const Config& c, int logP_, int w,
                    const std::vector<NodeId>& ord,
                    const std::vector<std::uint32_t>& in,
                    std::vector<std::uint32_t>& final) -> sim::Task<> {
    const NodeId p = ord[w];
    const int keysN = c.keysPerProc;
    std::vector<std::uint32_t> mine(in.begin() + static_cast<std::ptrdiff_t>(w) * keysN,
                                    in.begin() + static_cast<std::ptrdiff_t>(w + 1) * keysN);
    std::sort(mine.begin(), mine.end());
    mm.net.reserveCpu(p, localSortCost(mm.net.cost(), keysN));
    mm.stats.addCompute(localSortCost(mm.net.cost(), keysN));

    int step = 0;
    for (int phase = 1; phase <= logP_; ++phase) {
      for (int j = phase - 1; j >= 0; --j, ++step) {
        const int partner = w ^ (1 << j);
        const net::Channel ch = net::kFirstAppChannel + static_cast<net::Channel>(step);
        net::Message out{p, ord[partner], ch,
                         static_cast<std::uint64_t>(keysN) * 4,
                         mine};
        co_await mm.net.send(std::move(out));
        net::Message inMsg = co_await mm.net.recv(p, ch);
        const auto theirs = inMsg.take<std::vector<std::uint32_t>>();
        mine = mergeSplit(mine, theirs, keepsLower(w, partner, phase));
        mm.net.reserveCpu(p, mergeCost(mm.net.cost(), keysN));
        mm.stats.addCompute(mergeCost(mm.net.cost(), keysN));
      }
    }
    co_await mm.net.compute(p, 0.0);
    final = std::move(mine);
  };

  for (int w = 0; w < P; ++w) sim::spawn(program(m, cfg, logP, w, order, input, finals[w]));

  Result res;
  res.timeUs = m.run();
  res.congestionBytes = m.stats.links.congestionBytes();
  res.congestionMessages = m.stats.links.congestionMessages();
  res.totalBytes = m.stats.links.totalBytes();
  res.totalMessages = m.stats.links.totalMessages();
  res.keys.reserve(static_cast<std::size_t>(P) * keys);
  for (auto& block : finals) res.keys.insert(res.keys.end(), block.begin(), block.end());
  return res;
}

}  // namespace diva::apps::bitonic
