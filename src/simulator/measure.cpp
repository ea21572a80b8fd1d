#include "simulator/measure.hpp"

#include <algorithm>
#include <cmath>

#include "core/bits.hpp"
#include "core/reduce.hpp"
#include "obs/trace.hpp"

namespace quasar {

Real probability_of_one(const StateVector& state, int bit_location) {
  QUASAR_CHECK(bit_location >= 0 && bit_location < state.num_qubits(),
               "probability_of_one: bit-location out of range");
  const Index n = state.size();
  const Index mask = index_pow2(bit_location);
  const Amplitude* data = state.data();
  return ordered_sum(static_cast<std::int64_t>(n),
                     [data, mask](std::int64_t i) {
                       return (static_cast<Index>(i) & mask)
                                  ? std::norm(data[i])
                                  : 0.0;
                     });
}

Real entropy(const StateVector& state) {
  const Index n = state.size();
  const Amplitude* data = state.data();
  return ordered_sum(static_cast<std::int64_t>(n), [data](std::int64_t i) {
    const Real p = std::norm(data[i]);
    return p > 0.0 ? -(p * std::log(p)) : 0.0;
  });
}

Real porter_thomas_entropy(int num_qubits) {
  constexpr Real kEulerGamma = 0.5772156649015328606;
  return num_qubits * std::log(2.0) - 1.0 + kEulerGamma;
}

std::vector<Index> sample_outcomes(const StateVector& state, int count,
                                   Rng& rng) {
  QUASAR_CHECK(count >= 0, "sample count must be non-negative");
  QUASAR_OBS_SPAN("measure", "sample", "count",
                  static_cast<std::int64_t>(count));
  // Sorted uniforms + one cumulative pass: O(N + count log count).
  std::vector<Real> thresholds(count);
  for (auto& u : thresholds) u = rng.uniform_real();
  std::sort(thresholds.begin(), thresholds.end());

  std::vector<Index> outcomes;
  outcomes.reserve(count);
  Real cumulative = 0.0;
  std::size_t next = 0;
  const Index n = state.size();
  for (Index i = 0; i < n && next < thresholds.size(); ++i) {
    cumulative += state.probability(i);
    while (next < thresholds.size() && thresholds[next] < cumulative) {
      outcomes.push_back(i);
      ++next;
    }
  }
  // Rounding at the top end: assign leftovers to the last basis state.
  while (next++ < thresholds.size()) outcomes.push_back(n - 1);
  return outcomes;
}

int measure_qubit(StateVector& state, int bit_location, Rng& rng) {
  QUASAR_OBS_SPAN("measure", "measure_qubit");
  Real p1 = probability_of_one(state, bit_location);
  // A corrupted state (NaN/Inf amplitudes) must fail here with a message
  // naming the cause, not downstream as a baffling "zero probability".
  QUASAR_CHECK(std::isfinite(p1),
               "measure_qubit: probability is not finite (state contains "
               "NaN/Inf amplitudes?)");
  // Rounding can push the reduction marginally outside [0, 1]. After the
  // clamp, outcome 1 requires uniform_real() < p1 (so p1 > 0) and outcome
  // 0 requires uniform_real() >= p1 with draws in [0, 1) (so p1 < 1 and
  // keep = 1 - p1 > 0): the keep > 0 check below cannot trip spuriously
  // when p1 rounds to exactly 0 or 1 — only on a genuinely broken state.
  p1 = std::clamp(p1, 0.0, 1.0);
  const int outcome = rng.uniform_real() < p1 ? 1 : 0;
  const Real keep = outcome ? p1 : 1.0 - p1;
  QUASAR_CHECK(keep > 0.0, "measurement outcome has zero probability");
  const Real scale = 1.0 / std::sqrt(keep);
  const Index n = state.size();
  const Index mask = index_pow2(bit_location);
  Amplitude* data = state.data();
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i) {
    const bool is_one = (static_cast<Index>(i) & mask) != 0;
    if (is_one == (outcome == 1)) {
      data[i] *= scale;
    } else {
      data[i] = Amplitude{0.0, 0.0};
    }
  }
  return outcome;
}

Real porter_thomas_test(const StateVector& state,
                        const std::vector<Index>& samples) {
  QUASAR_CHECK(!samples.empty(), "porter_thomas_test needs samples");
  const Real n = static_cast<Real>(state.size());
  Real total = 0.0;
  for (Index s : samples) total += n * state.probability(s);
  return total / static_cast<Real>(samples.size());
}

}  // namespace quasar
