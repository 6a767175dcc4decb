#pragma once
/// \file minimal.hpp
/// Minimal (shortest-path) routing over BFS distance tables.
///
/// "Very general routing algorithms, such as Minimal, keep working, only
/// requiring to run a BFS to recompute the routing tables" (paper §1).
/// Every alive neighbour one hop closer to the destination is a candidate
/// with no penalty — fully adaptive among minimal next hops.

#include "routing/mechanism.hpp"

namespace hxsp {

/// Table-based minimal routing; works on any topology, with or without
/// faults (distances already reflect the fault set).
class MinimalAlgorithm final : public RouteAlgorithm {
 public:
  std::string name() const override { return "minimal"; }

  void ports(const NetworkContext& ctx, const Packet& p, SwitchId sw,
             std::vector<PortCand>& out) const override;
};

} // namespace hxsp
