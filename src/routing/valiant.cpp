#include "routing/valiant.hpp"

namespace hxsp {

void ValiantAlgorithm::on_inject(const NetworkContext& ctx, Packet& p,
                                 Rng& rng) const {
  p.valiant_mid = static_cast<SwitchId>(
      rng.next_below(static_cast<std::uint64_t>(ctx.graph->num_switches())));
  p.valiant_phase2 = p.valiant_mid == p.src_switch;
}

void ValiantAlgorithm::on_arrival(const NetworkContext&, Packet& p,
                                  SwitchId sw) const {
  if (!p.valiant_phase2 && sw == p.valiant_mid) p.valiant_phase2 = true;
}

void ValiantAlgorithm::ports(const NetworkContext& ctx, const Packet& p,
                             SwitchId sw, std::vector<PortCand>& out) const {
  const Graph& g = *ctx.graph;
  const SwitchId target = p.valiant_phase2 ? p.dst_switch : p.valiant_mid;
  // One anchored row serves the switch probe and every neighbour probe
  // (distances are symmetric); works for dense and computed providers.
  const DistRow row(*ctx.dist, target);
  const int d = row[sw];
  if (d == kUnreachable || d == 0) return;
  for (const AlivePort& ap : g.alive_ports(sw))
    if (row[ap.neighbor] == d - 1) out.push_back({ap.port, 0, false});
}

} // namespace hxsp
