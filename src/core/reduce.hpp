/// \file reduce.hpp
/// \brief Deterministic parallel sums (norms, entropies, expectations).
///
/// An OpenMP `+` reduction clause folds each thread's partial into the
/// shared variable in the order the threads arrive, so a floating-point
/// sum changes in its last bits with timing and with the team size.
/// ordered_sum() fixes the grouping instead: [0, count) is cut into
/// kReduceChunk-term chunks (a size that does not depend on the team),
/// each chunk is summed serially in index order, and the chunk partials
/// are combined serially in chunk order. Threads only decide who
/// computes a partial, never how the terms are grouped, so the result is
/// bit-identical at every OpenMP team size, from run to run, and between
/// any two callers that present the same terms (e.g. the same rank slice
/// read through different transports).
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace quasar {

/// Terms per reduction chunk. Part of the numerical contract: changing
/// it changes the last bits of every sum routed through ordered_sum().
inline constexpr std::int64_t kReduceChunk = 4096;

/// Sum of term(0) + ... + term(count - 1), grouped as described above.
/// The accumulator type is term's return type (Real or a complex
/// number; complex addition is componentwise, so the same guarantee
/// holds per component). term must be safe to call concurrently.
template <typename Term>
auto ordered_sum(std::int64_t count, const Term& term)
    -> std::decay_t<std::invoke_result_t<const Term&, std::int64_t>> {
  using T = std::decay_t<std::invoke_result_t<const Term&, std::int64_t>>;
  const std::int64_t chunks = (count + kReduceChunk - 1) / kReduceChunk;
  std::vector<T> partials(static_cast<std::size_t>(chunks));
#pragma omp parallel for schedule(static) if (chunks > 1)
  for (std::int64_t c = 0; c < chunks; ++c) {
    const std::int64_t end = std::min(count, (c + 1) * kReduceChunk);
    T partial{};
    for (std::int64_t i = c * kReduceChunk; i < end; ++i) partial += term(i);
    partials[static_cast<std::size_t>(c)] = partial;
  }
  T total{};
  for (const T& partial : partials) total += partial;
  return total;
}

}  // namespace quasar
