// Shutdown-leak proof, run under AddressSanitizer + LeakSanitizer (see
// tests/CMakeLists.txt): a Machine is destroyed while messages are still
// in flight — flights mid-route with spilled-capable route buffers,
// boxed local messages, queued mailbox payloads, pending coroutine
// resumptions and an oversized event capture. In the seed, the raw
// `new Message` / `new Flight` captures queued on the engine were simply
// dropped on teardown; the pooled design reclaims them, and LSan verifies
// there is nothing left at exit.

#include <array>
#include <cstdio>
#include <vector>

#include "diva/machine.hpp"

using namespace diva;
using diva::net::NodeId;

namespace {
struct Stop {};
}  // namespace

int main() {
  {
    Machine m(8, 8);
    const NodeId procs = static_cast<NodeId>(m.numProcs());

    // A few relaying handlers so traffic keeps regenerating until the stop.
    for (NodeId p = 0; p < procs; p += 2) {
      m.net.setHandler(p, net::kProtocolChannel, [&m, procs](net::Message&& msg) {
        const NodeId next = static_cast<NodeId>((msg.dst * 5 + 3) % procs);
        m.net.post(net::Message{msg.dst, next, net::kProtocolChannel, 1024,
                                std::vector<int>(32, msg.dst)});
      });
    }

    for (int i = 0; i < 48; ++i) {
      m.net.post(net::Message{static_cast<NodeId>(i % 64),
                              static_cast<NodeId>((i * 11 + 5) % 64),
                              net::kProtocolChannel, 4096,
                              std::vector<int>(128, i)});
    }
    // Local (src == dst) boxed message and a mailbox-bound message with no
    // handler, both owning heap payloads.
    m.net.post(net::Message{7, 7, net::kSyncChannel, 0, std::vector<int>(16, 7)});
    m.net.post(net::Message{1, 1, net::kFirstAppChannel, 0, std::vector<int>(16, 1)});

    // Oversized capture exercises EventFn's heap fallback while pending.
    std::array<std::uint64_t, 32> big{};
    m.engine.scheduleAt(1e12, [big] { (void)big; });

    // Run partway, then abandon the simulation mid-flight.
    m.engine.scheduleAt(1500.0, [] { throw Stop{}; });
    try {
      m.engine.run();
      std::fputs("expected the stop event to throw\n", stderr);
      return 1;
    } catch (const Stop&) {
    }
    if (m.engine.pendingEvents() == 0) {
      std::fputs("expected events to still be pending\n", stderr);
      return 1;
    }
  }
  std::puts("shutdown clean");
  return 0;
}
