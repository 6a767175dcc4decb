#include "routing/omnidimensional.hpp"

namespace hxsp {

int OmnidimensionalAlgorithm::budget(const NetworkContext& ctx) const {
  HXSP_CHECK_MSG(ctx.hyperx, "Omnidimensional requires a HyperX topology");
  return max_deroutes_ < 0 ? ctx.hyperx->dims() : max_deroutes_;
}

void OmnidimensionalAlgorithm::ports(const NetworkContext& ctx, const Packet& p,
                                     SwitchId sw,
                                     std::vector<PortCand>& out) const {
  const HyperX& hx = *ctx.hyperx;
  const Graph& g = *ctx.graph;
  const bool may_deroute = p.deroutes < budget(ctx);
  for (int dim = 0; dim < hx.dims(); ++dim) {
    const int own = hx.coord(sw, dim);
    const int tgt = hx.coord(p.dst_switch, dim);
    if (own == tgt) continue; // aligned dimensions are never left
    for (int a = 0; a < hx.side(dim); ++a) {
      if (a == own) continue;
      const bool minimal = a == tgt;
      if (!minimal && !may_deroute) continue;
      const Port q = hx.port_towards(sw, dim, a);
      if (!g.port_alive(sw, q)) continue;
      out.push_back({q, minimal ? 0 : deroute_penalty_, !minimal});
    }
  }
}

void OmnidimensionalAlgorithm::commit(const NetworkContext& ctx, Packet& p,
                                      SwitchId from, const PortCand& cand) const {
  const HyperX& hx = *ctx.hyperx;
  const int dim = hx.port_dim(from, cand.port);
  const SwitchId next = ctx.graph->port(from, cand.port).neighbor;
  if (hx.coord(next, dim) != hx.coord(p.dst_switch, dim)) {
    HXSP_DCHECK(p.deroutes < budget(ctx));
    ++p.deroutes;
  }
}

} // namespace hxsp
