// DetContext: per-entity ordering identity. Every event is keyed by (firing
// time, birth time, det tie); the tie packs the emitting entity's id with its
// private emission counter. Both evolve identically however a run is
// partitioned, so the total event order is the same for a serial run and
// for a sharded run at any shard count. Nodes own one context each; every
// Simulator owns an engine context (id kDetCtxMaxId) for events no node
// emits, which sort after every node's at the same (firing, birth) time.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace tcpdyn::sim {

struct DetContext {
  std::uint32_t id = 0;       // node id (< kDetCtxMaxId) or kDetCtxMaxId
  std::uint64_t emitted = 0;  // events emitted while this context was active
};

inline constexpr int kDetTieEmittedBits = 40;
inline constexpr std::uint32_t kDetCtxMaxId = (1u << 24) - 1;

// Draws the next tie value from `ctx`: entity id in the top 24 bits, the
// pre-bump emission counter in the low 40. (id, emitted) pairs are globally
// unique, so ties form a strict total order; a context that has used up its
// 2^40 ties throws rather than wrap into another context's.
inline std::uint64_t det_tie_next(DetContext& ctx) {
  if (ctx.emitted >> kDetTieEmittedBits != 0) [[unlikely]] {
    throw std::overflow_error("det-key context " + std::to_string(ctx.id) +
                              " emitted 2^40 events; its ties are exhausted");
  }
  return (static_cast<std::uint64_t>(ctx.id) << kDetTieEmittedBits) |
         ctx.emitted++;
}

// Reserves the next `n` ties of `ctx` at once: the ties `n` det_tie_next
// draws would return are first, first + 1, ..., first + n - 1, and the
// context moves on as they would move it. Throws det_tie_next's error when
// one of them would pass the 2^40 bound. Events keyed later from a
// reservation (Simulator::schedule_at_keyed) sort exactly where events
// drawn one by one would have.
inline std::uint64_t det_tie_reserve(DetContext& ctx, std::uint64_t n) {
  constexpr std::uint64_t kTies = std::uint64_t{1} << kDetTieEmittedBits;
  if (n > 0 && (ctx.emitted >= kTies || n > kTies - ctx.emitted))
      [[unlikely]] {
    DetContext spent{ctx.id, kTies};
    det_tie_next(spent);  // throws its error
  }
  const std::uint64_t first =
      (static_cast<std::uint64_t>(ctx.id) << kDetTieEmittedBits) |
      ctx.emitted;
  ctx.emitted += n;
  return first;
}

}  // namespace tcpdyn::sim
