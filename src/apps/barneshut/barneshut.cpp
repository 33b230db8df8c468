#include "apps/barneshut/barneshut.hpp"

#include <cmath>
#include <limits>
#include <tuple>

#include "apps/barneshut/plummer.hpp"

namespace diva::apps::barneshut {

const char* phaseName(int phase) {
  switch (phase) {
    case kTreeBuild: return "tree build";
    case kCenterOfMass: return "center of mass";
    case kPartition: return "costzones";
    case kForce: return "force computation";
    case kAdvance: return "advance";
    case kBoundingBox: return "bounding box";
    default: return "?";
  }
}

namespace {

struct RootInfo {
  VarId rootCell = kInvalidVar;
};

struct BBoxData {
  Vec3 lo{1e300, 1e300, 1e300};
  Vec3 hi{-1e300, -1e300, -1e300};
};

/// Cross-processor state of one run (the simulator-level container for
/// what would be per-node program state plus the variable id tables).
struct Shared {
  Config cfg;
  Machine* m = nullptr;
  Runtime* rt = nullptr;
  int P = 0;
  std::vector<NodeId> order;  ///< rank → processor (decomposition leaf order)

  VarId rootVar = kInvalidVar;
  VarId maxDepthVar = kInvalidVar;
  std::vector<VarId> depthVar;
  std::vector<VarId> bboxVar;
  VarId firstBody = kInvalidVar;
  int numBodies = 0;

  std::vector<std::vector<VarId>> owned;                      ///< bodies per rank
  std::vector<std::vector<std::pair<VarId, int>>> myCells;    ///< (cell, depth) per rank
  Cube cube;                                                  ///< next step's root cube
  sim::Time measureStart = 0;
  std::uint64_t cellsCreated = 0;

  bool isBody(VarId id) const { return id >= firstBody && id < firstBody + numBodies; }
  int bodyIndex(VarId id) const { return static_cast<int>(id - firstBody); }
};

/// Read helper with the non-suspending fast path for cache hits.
#define BH_READ(out, rtRef, p, id)                          \
  Value out##_owned;                                        \
  const Value* out##_ptr = (rtRef).tryReadLocal((p), (id)); \
  if (!out##_ptr) {                                         \
    out##_owned = co_await (rtRef).read((p), (id));         \
    out##_ptr = &out##_owned;                               \
  }                                                         \
  const Value& out = *out##_ptr;

sim::Task<> insertBody(Shared& sh, int rank, NodeId p, VarId rootCell, VarId bodyVar) {
  Runtime& rt = *sh.rt;
  BH_READ(bodyVal, rt, p, bodyVar);
  const BodyData bd = valueAs<BodyData>(bodyVal);

  VarId cur = rootCell;
  int depth = 0;
  for (;;) {
    DIVA_CHECK_MSG(depth < 128, "octree degenerated (coincident bodies?)");
    rt.chargeCompute(p, sh.m->net.cost().cellVisitUs);
    BH_READ(curVal, rt, p, cur);
    CellData c = valueAs<CellData>(curVal);
    const int oct = octantOf(bd.pos, c.center);
    const VarId slot = c.child[oct];
    if (slot != kInvalidVar && !sh.isBody(slot)) {
      // Cell pointers are immutable once set: descend without locking.
      cur = slot;
      ++depth;
      continue;
    }

    // The slot needs modification: lock, re-read (coherence guarantees a
    // fresh value after the lock), re-check.
    co_await rt.lock(p, cur);
    const Value lockedVal = co_await rt.read(p, cur);
    c = valueAs<CellData>(lockedVal);
    const VarId fresh = c.child[oct];
    if (fresh == kInvalidVar) {
      c.child[oct] = bodyVar;
      co_await rt.write(p, cur, makeValue(c));
      co_await rt.unlock(p, cur);
      co_return;
    }
    if (!sh.isBody(fresh)) {
      co_await rt.unlock(p, cur);
      cur = fresh;
      ++depth;
      continue;
    }

    // Octant already holds a body: grow a chain of cells until the two
    // bodies separate, then publish the chain's top under the lock.
    const Value otherVal = co_await rt.read(p, fresh);
    const BodyData ob = valueAs<BodyData>(otherVal);
    std::vector<std::tuple<Vec3, double, int>> chain;
    Vec3 center = octantCenter(c.center, c.halfSize, oct);
    double half = c.halfSize / 2;
    int d = depth + 1;
    for (;;) {
      DIVA_CHECK_MSG(d < 128, "octree degenerated (coincident bodies?)");
      chain.emplace_back(center, half, d);
      const int o1 = octantOf(ob.pos, center);
      const int o2 = octantOf(bd.pos, center);
      if (o1 != o2) break;
      center = octantCenter(center, half, o1);
      half /= 2;
      ++d;
    }
    VarId below = kInvalidVar;
    for (int i = static_cast<int>(chain.size()) - 1; i >= 0; --i) {
      CellData nc;
      nc.center = std::get<0>(chain[static_cast<std::size_t>(i)]);
      nc.halfSize = std::get<1>(chain[static_cast<std::size_t>(i)]);
      if (i == static_cast<int>(chain.size()) - 1) {
        nc.child[octantOf(ob.pos, nc.center)] = fresh;
        nc.child[octantOf(bd.pos, nc.center)] = bodyVar;
      } else {
        nc.child[octantOf(bd.pos, nc.center)] = below;
      }
      below = rt.createVar(p, makeValue(nc), /*withLock=*/true);
      ++sh.cellsCreated;
      sh.myCells[static_cast<std::size_t>(rank)].emplace_back(
          below, std::get<2>(chain[static_cast<std::size_t>(i)]));
    }
    c.child[oct] = below;
    co_await rt.write(p, cur, makeValue(c));
    co_await rt.unlock(p, cur);
    co_return;
  }
}

sim::Task<> computeCellMass(Shared& sh, NodeId p, VarId cellVar) {
  Runtime& rt = *sh.rt;
  BH_READ(cellVal, rt, p, cellVar);
  CellData c = valueAs<CellData>(cellVal);
  Vec3 weighted{};
  double mass = 0, work = 0;
  for (int oct = 0; oct < 8; ++oct) {
    const VarId slot = c.child[oct];
    if (slot == kInvalidVar) continue;
    if (sh.isBody(slot)) {
      BH_READ(bv, rt, p, slot);
      const BodyData b = valueAs<BodyData>(bv);
      weighted += b.pos * b.mass;
      mass += b.mass;
      c.childWork[oct] = b.work;
    } else {
      BH_READ(cv, rt, p, slot);
      const CellData ch = valueAs<CellData>(cv);
      weighted += ch.com * ch.mass;
      mass += ch.mass;
      c.childWork[oct] = ch.workSum;
    }
    work += c.childWork[oct];
    rt.chargeCompute(p, 6 * sh.m->net.cost().flopUs);
  }
  DIVA_CHECK(mass > 0);
  c.com = weighted * (1.0 / mass);
  c.mass = mass;
  c.workSum = work;
  co_await rt.write(p, cellVar, makeValue(c));
}

sim::Task<> costzones(Shared& sh, int rank, NodeId p, VarId rootCell,
                      std::vector<VarId>& out) {
  Runtime& rt = *sh.rt;
  BH_READ(rootVal, rt, p, rootCell);
  const double total = valueAs<CellData>(rootVal).workSum;
  const double lo =
      rank == 0 ? -std::numeric_limits<double>::infinity() : total * rank / sh.P;
  const double hi = rank == sh.P - 1 ? std::numeric_limits<double>::infinity()
                                     : total * (rank + 1) / sh.P;
  out.clear();
  struct Item {
    VarId cell;
    double base;
  };
  std::vector<Item> stack{{rootCell, 0.0}};
  while (!stack.empty()) {
    const Item it = stack.back();
    stack.pop_back();
    rt.chargeCompute(p, sh.m->net.cost().cellVisitUs);
    BH_READ(cv, rt, p, it.cell);
    const CellData c = valueAs<CellData>(cv);
    double base = it.base;
    for (int oct = 0; oct < 8; ++oct) {
      const VarId slot = c.child[oct];
      const double w = c.childWork[oct];
      if (slot == kInvalidVar) continue;
      if (sh.isBody(slot)) {
        const double mid = base + w / 2;
        if (lo <= mid && mid < hi) out.push_back(slot);
      } else if (base < hi && base + w > lo) {
        stack.push_back(Item{slot, base});
      }
      base += w;
    }
  }
}

sim::Task<> procMain(Shared& sh, int rank) {
  Machine& m = *sh.m;
  Runtime& rt = *sh.rt;
  const NodeId p = sh.order[static_cast<std::size_t>(rank)];
  const SimParams prm = sh.cfg.params;
  auto& myCells = sh.myCells[static_cast<std::size_t>(rank)];
  auto& owned = sh.owned[static_cast<std::size_t>(rank)];

  for (int step = 0; step < sh.cfg.steps; ++step) {
    co_await rt.barrier(p);
    // Last step's tree is dead: release its variables (free).
    for (const auto& [cell, depth] : myCells) rt.destroyVarFree(cell);
    myCells.clear();

    if (rank == 0) {
      if (step == sh.cfg.warmupSteps && step > 0) {
        m.stats.reset(m.engine.now());
        sh.measureStart = m.engine.now();
      }
      m.stats.setPhase(kTreeBuild, m.engine.now());
      CellData root;
      root.center = sh.cube.center;
      root.halfSize = sh.cube.halfSize;
      const VarId rc = rt.createVar(p, makeValue(root), /*withLock=*/true);
      ++sh.cellsCreated;
      myCells.emplace_back(rc, 0);
      co_await rt.write(p, sh.rootVar, makeValue(RootInfo{rc}));
    }
    co_await rt.barrier(p);

    // ---- Phase 1: load the bodies into the tree ----
    BH_READ(rootInfoVal, rt, p, sh.rootVar);
    const VarId rootCell = valueAs<RootInfo>(rootInfoVal).rootCell;
    for (const VarId b : owned) co_await insertBody(sh, rank, p, rootCell, b);
    co_await rt.barrier(p);

    // ---- Phase 2: upward pass (centres of mass) ----
    if (rank == 0) m.stats.setPhase(kCenterOfMass, m.engine.now());
    std::int64_t localDepth = 0;
    for (const auto& [cell, depth] : myCells)
      localDepth = std::max<std::int64_t>(localDepth, depth);
    co_await rt.write(p, sh.depthVar[static_cast<std::size_t>(rank)],
                      makeValue(localDepth));
    co_await rt.barrier(p);
    if (rank == 0) {
      std::int64_t maxDepth = 0;
      for (int r = 0; r < sh.P; ++r) {
        const Value dv = co_await rt.read(p, sh.depthVar[static_cast<std::size_t>(r)]);
        maxDepth = std::max(maxDepth, valueAs<std::int64_t>(dv));
      }
      co_await rt.write(p, sh.maxDepthVar, makeValue(maxDepth));
    }
    co_await rt.barrier(p);
    BH_READ(maxDepthVal, rt, p, sh.maxDepthVar);
    const std::int64_t maxDepth = valueAs<std::int64_t>(maxDepthVal);
    for (std::int64_t level = maxDepth; level >= 0; --level) {
      for (const auto& [cell, depth] : myCells)
        if (depth == level) co_await computeCellMass(sh, p, cell);
      co_await rt.barrier(p);
    }

    // ---- Phase 3: costzones partitioning ----
    if (rank == 0) m.stats.setPhase(kPartition, m.engine.now());
    co_await costzones(sh, rank, p, rootCell, owned);
    co_await rt.barrier(p);

    // ---- Phase 4: force computation ----
    if (rank == 0) m.stats.setPhase(kForce, m.engine.now());
    std::vector<BodyData> bodyState(owned.size());
    std::vector<Vec3> accs(owned.size());
    std::vector<double> works(owned.size());
    for (std::size_t bi = 0; bi < owned.size(); ++bi) {
      const VarId bv = owned[bi];
      BH_READ(bval, rt, p, bv);
      const BodyData bd = valueAs<BodyData>(bval);
      Vec3 acc{};
      double work = 0;
      std::vector<VarId> stack{rootCell};
      while (!stack.empty()) {
        const VarId id = stack.back();
        stack.pop_back();
        if (sh.isBody(id)) {
          if (id == bv) continue;
          BH_READ(ov, rt, p, id);
          const BodyData ob = valueAs<BodyData>(ov);
          acc += gravity(bd.pos, ob.pos, ob.mass, prm.eps);
          work += 1;
          rt.chargeCompute(p, m.net.cost().bodyForceUs);
          continue;
        }
        BH_READ(cv, rt, p, id);
        const CellData c = valueAs<CellData>(cv);
        rt.chargeCompute(p, m.net.cost().cellVisitUs);
        const double dist = (c.com - bd.pos).norm();
        if (2.0 * c.halfSize < prm.theta * dist) {
          acc += gravity(bd.pos, c.com, c.mass, prm.eps);
          work += 1;
          rt.chargeCompute(p, m.net.cost().bodyForceUs);
          continue;
        }
        for (int oct = 7; oct >= 0; --oct)
          if (c.child[oct] != kInvalidVar) stack.push_back(c.child[oct]);
      }
      bodyState[bi] = bd;
      accs[bi] = acc;
      works[bi] = work;
    }
    co_await rt.barrier(p);

    // ---- Phase 5: advance bodies ----
    if (rank == 0) m.stats.setPhase(kAdvance, m.engine.now());
    BBoxData box;
    for (std::size_t bi = 0; bi < owned.size(); ++bi) {
      BodyData& bd = bodyState[bi];
      bd.vel += accs[bi] * prm.dt;
      bd.pos += bd.vel * prm.dt;
      bd.work = works[bi];
      rt.chargeCompute(p, 12 * m.net.cost().flopUs);
      co_await rt.write(p, owned[bi], makeValue(bd));
      box.lo.x = std::min(box.lo.x, bd.pos.x);
      box.lo.y = std::min(box.lo.y, bd.pos.y);
      box.lo.z = std::min(box.lo.z, bd.pos.z);
      box.hi.x = std::max(box.hi.x, bd.pos.x);
      box.hi.y = std::max(box.hi.y, bd.pos.y);
      box.hi.z = std::max(box.hi.z, bd.pos.z);
    }
    co_await rt.barrier(p);

    // ---- Phase 6: new size of space ----
    if (rank == 0) m.stats.setPhase(kBoundingBox, m.engine.now());
    co_await rt.write(p, sh.bboxVar[static_cast<std::size_t>(rank)], makeValue(box));
    co_await rt.barrier(p);
    if (rank == 0) {
      Vec3 lo{1e300, 1e300, 1e300}, hi{-1e300, -1e300, -1e300};
      for (int r = 0; r < sh.P; ++r) {
        const Value bb = co_await rt.read(p, sh.bboxVar[static_cast<std::size_t>(r)]);
        const BBoxData d = valueAs<BBoxData>(bb);
        lo.x = std::min(lo.x, d.lo.x);
        lo.y = std::min(lo.y, d.lo.y);
        lo.z = std::min(lo.z, d.lo.z);
        hi.x = std::max(hi.x, d.hi.x);
        hi.y = std::max(hi.y, d.hi.y);
        hi.z = std::max(hi.z, d.hi.z);
      }
      sh.cube = combineCubes(lo, hi);
    }
    co_await rt.barrier(p);
  }
}

}  // namespace

Result run(Machine& m, Runtime& rt, const Config& cfg) {
  Shared sh;
  sh.cfg = cfg;
  sh.m = &m;
  sh.rt = &rt;
  sh.P = m.numProcs();
  sh.order = net::canonicalLeafOrder(m.topo());
  sh.numBodies = cfg.numBodies;
  sh.owned.resize(static_cast<std::size_t>(sh.P));
  sh.myCells.resize(static_cast<std::size_t>(sh.P));

  // Setup (unmeasured): service variables, then the body variables.
  sh.rootVar = rt.createVarFree(sh.order[0], makeValue(RootInfo{}));
  sh.maxDepthVar = rt.createVarFree(sh.order[0], makeValue<std::int64_t>(0));
  for (int r = 0; r < sh.P; ++r) {
    sh.depthVar.push_back(
        rt.createVarFree(sh.order[static_cast<std::size_t>(r)], makeValue<std::int64_t>(0)));
    sh.bboxVar.push_back(
        rt.createVarFree(sh.order[static_cast<std::size_t>(r)], makeValue(BBoxData{})));
  }

  const auto bodies = plummerModel(cfg.numBodies, cfg.seed);
  sh.cube = boundingCube(bodies);
  for (int b = 0; b < cfg.numBodies; ++b) {
    const int rank = static_cast<int>(static_cast<std::int64_t>(b) * sh.P / cfg.numBodies);
    const VarId v = rt.createVarFree(sh.order[static_cast<std::size_t>(rank)],
                                     makeValue(bodies[static_cast<std::size_t>(b)]));
    if (b == 0) sh.firstBody = v;
    sh.owned[static_cast<std::size_t>(rank)].push_back(v);
  }

  for (int rank = 0; rank < sh.P; ++rank) sim::spawn(procMain(sh, rank));
  const sim::Time end = m.run();

  Result res;
  res.timeUs = end - sh.measureStart;
  res.congestionMessages = m.stats.links.congestionMessages();
  res.congestionBytes = m.stats.links.congestionBytes();
  res.totalMessages = m.stats.links.totalMessages();
  res.totalBytes = m.stats.links.totalBytes();
  for (int ph = 0; ph < kNumPhases; ++ph) {
    res.phaseWallUs[static_cast<std::size_t>(ph)] = m.stats.wallUs(ph);
    res.phaseCongestionMessages[static_cast<std::size_t>(ph)] =
        m.stats.links.congestionMessages(ph);
    res.phaseCongestionBytes[static_cast<std::size_t>(ph)] =
        m.stats.links.congestionBytes(ph);
    res.phaseComputeUs[static_cast<std::size_t>(ph)] = m.stats.computeUs(ph);
  }
  res.cellsCreated = sh.cellsCreated;
  res.readHits = m.stats.ops.readHits;
  res.reads = m.stats.ops.reads;
  res.finalBodies.reserve(static_cast<std::size_t>(cfg.numBodies));
  for (int b = 0; b < cfg.numBodies; ++b)
    res.finalBodies.push_back(
        valueAs<BodyData>(rt.peek(sh.firstBody + static_cast<VarId>(b))));
  return res;
}

}  // namespace diva::apps::barneshut
