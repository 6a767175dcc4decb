#include "routing/minimal.hpp"

namespace hxsp {

void MinimalAlgorithm::ports(const NetworkContext& ctx, const Packet& p,
                             SwitchId sw, std::vector<PortCand>& out) const {
  const Graph& g = *ctx.graph;
  // One anchored row serves the switch probe and every neighbour probe
  // (distances are symmetric); works for dense and computed providers.
  const DistRow row(*ctx.dist, p.dst_switch);
  const int d = row[sw];
  if (d == kUnreachable || d == 0) return;
  for (const AlivePort& ap : g.alive_ports(sw))
    if (row[ap.neighbor] == d - 1) out.push_back({ap.port, 0, false});
}

} // namespace hxsp
