#pragma once
/// \file omnidimensional.hpp
/// Omnidimensional adaptive routing for HyperX (paper §3.1.1; the route
/// set used by DAL [1] and OmniWAR [24]).
///
/// At each hop a packet may move only through dimensions where its current
/// coordinate differs from the destination's. Within such a dimension the
/// aligning neighbour is a *minimal* candidate (P = 0) and every other
/// neighbour is a *deroute* (P = 64), allowed while the packet still has
/// non-minimal budget. The budget m is global across dimensions; the paper
/// uses m = n (always sufficient), giving routes of at most n + m hops.

#include "routing/mechanism.hpp"

namespace hxsp {

/// Omnidimensional route set (HyperX only).
class OmnidimensionalAlgorithm final : public RouteAlgorithm {
 public:
  /// \p max_deroutes is the global non-minimal budget m; negative means
  /// "use the number of dimensions" (the paper's m = n).
  /// \p deroute_penalty is P for non-minimal candidates (paper: 64 phits).
  explicit OmnidimensionalAlgorithm(int max_deroutes = -1,
                                    int deroute_penalty = 64)
      : max_deroutes_(max_deroutes), deroute_penalty_(deroute_penalty) {}

  std::string name() const override { return "omni"; }

  void ports(const NetworkContext& ctx, const Packet& p, SwitchId sw,
             std::vector<PortCand>& out) const override;

  void commit(const NetworkContext& ctx, Packet& p, SwitchId from,
              const PortCand& cand) const override;

  /// Effective deroute budget for a given topology.
  int budget(const NetworkContext& ctx) const;

 private:
  int max_deroutes_;
  int deroute_penalty_;
};

} // namespace hxsp
