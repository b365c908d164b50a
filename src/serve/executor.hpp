// Runs one batch of same-family queries through engine::run and slices the
// result back into per-lane outcomes, with per-lane coherency accounting
// taken by a coherency inspector. run_solo runs the plain single-lane
// program through the identical path with the identical liveness probe, so
// batched-vs-solo comparisons of both state and coherency-point counts are
// apples-to-apples.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "engine/run.hpp"
#include "serve/batched.hpp"

namespace lazygraph::serve {

/// One lane's slice of a batched run.
template <engine::VertexProgram P>
struct LaneOutcome {
  std::vector<typename P::VData> data;  // converged state, per global vertex
  /// Coherency points at which this lane still had pending work (a raised
  /// lane-masked msg/delta bit on any replica). The lane's dropout point:
  /// after `live_points` inspections it stopped contributing to exchanges.
  std::uint64_t live_points = 0;
};

/// Everything a batched (or solo — then lanes.size() == 1) run reports.
template <engine::VertexProgram P>
struct BatchOutcome {
  std::vector<LaneOutcome<P>> lanes;
  bool converged = false;
  std::uint64_t supersteps = 0;
  std::uint64_t coherency_points = 0;  // inspector firings for the run
  sim::SimMetrics metrics = {};
};

namespace detail {

template <std::size_t K, engine::VertexProgram P>
BatchOutcome<P> run_batched_width(const partition::DistributedGraph& dg,
                                  const std::vector<P>& progs,
                                  const engine::RunConfig& o,
                                  sim::Cluster& cluster) {
  BatchedProgram<P, K> bp;
  bp.width = progs.size();
  for (std::size_t i = 0; i < progs.size(); ++i) bp.lanes[i] = progs[i];

  std::array<std::uint64_t, K> live{};
  std::uint64_t points = 0;
  const auto r = engine::run(
      o, dg, bp, cluster,
      [&](std::uint64_t,
          const std::vector<engine::PartState<BatchedProgram<P, K>>>&
              states) {
        ++points;
        const auto pending = lanes_pending(states);
        for (std::size_t i = 0; i < K; ++i) live[i] += pending[i];
      });

  BatchOutcome<P> out;
  out.converged = r.converged;
  out.supersteps = r.supersteps;
  out.coherency_points = points;
  out.metrics = r.metrics;
  out.lanes.resize(progs.size());
  const vid_t n = static_cast<vid_t>(r.data.size());
  for (std::size_t i = 0; i < progs.size(); ++i) {
    out.lanes[i].live_points = live[i];
    out.lanes[i].data.resize(n);
    for (vid_t g = 0; g < n; ++g) out.lanes[i].data[g] = r.data[g][i];
  }
  return out;
}

}  // namespace detail

/// Runs `progs` (1..kMaxBatchLanes same-family lane programs) as one batched
/// engine run; the compiled lane width is the smallest of {1,2,4,8,16}
/// covering the batch, surplus lanes stay padding.
template <engine::VertexProgram P>
BatchOutcome<P> run_batched(const partition::DistributedGraph& dg,
                            const std::vector<P>& progs,
                            const engine::RunConfig& o,
                            sim::Cluster& cluster) {
  const std::size_t w = progs.size();
  if (w == 0 || w > kMaxBatchLanes) {
    throw std::invalid_argument("run_batched: batch width must be 1..16");
  }
  if (w <= 1) return detail::run_batched_width<1>(dg, progs, o, cluster);
  if (w <= 2) return detail::run_batched_width<2>(dg, progs, o, cluster);
  if (w <= 4) return detail::run_batched_width<4>(dg, progs, o, cluster);
  if (w <= 8) return detail::run_batched_width<8>(dg, progs, o, cluster);
  return detail::run_batched_width<16>(dg, progs, o, cluster);
}

/// Runs ONE query as the plain (unbatched) program with the same engine
/// construction and the same liveness probe — the solo baseline every lane
/// of a batched run must be bit-identical to.
template <engine::VertexProgram P>
BatchOutcome<P> run_solo(const partition::DistributedGraph& dg, const P& prog,
                         const engine::RunConfig& o, sim::Cluster& cluster) {
  std::uint64_t live = 0, points = 0;
  const auto r = engine::run(
      o, dg, prog, cluster,
      [&](std::uint64_t,
          const std::vector<engine::PartState<P>>& states) {
        ++points;
        if (any_pending(states)) ++live;
      });
  BatchOutcome<P> out;
  out.converged = r.converged;
  out.supersteps = r.supersteps;
  out.coherency_points = points;
  out.metrics = r.metrics;
  out.lanes.resize(1);
  out.lanes[0].data = r.data;
  out.lanes[0].live_points = live;
  return out;
}

}  // namespace lazygraph::serve
