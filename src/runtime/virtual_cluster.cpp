#include "runtime/virtual_cluster.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>

#include "check/invariant.hpp"
#include "core/bits.hpp"
#include "core/error.hpp"
#include "core/reduce.hpp"
#include "kernels/permute.hpp"
#include "kernels/swap.hpp"
#include "obs/histogram.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"

namespace quasar {

VirtualCluster::VirtualCluster(int num_qubits, int num_local,
                               StorageOptions storage)
    : num_qubits_(num_qubits), num_local_(num_local),
      storage_(std::move(storage)) {
  QUASAR_CHECK(num_local >= 1 && num_local <= num_qubits,
               "VirtualCluster: num_local must be in [1, num_qubits]");
  QUASAR_CHECK(num_qubits - num_local <= 12,
               "VirtualCluster: at most 2^12 simulated ranks");
  QUASAR_CHECK(num_qubits - num_local <= num_local,
               "VirtualCluster: needs g <= l so a full swap is possible");
  buffers_.reserve(index_pow2(num_global()));
  for (Index r = 0; r < index_pow2(num_global()); ++r) {
    buffers_.emplace_back(local_size(), storage_);
  }
}

void VirtualCluster::init_fill(Amplitude value) {
  if (!segmented()) {
    for (auto& buffer : buffers_) {
      std::fill(buffer.data(), buffer.data() + buffer.size(), value);
    }
    return;
  }
  // Segmented slices: encode one constant segment and stamp it into
  // every slot directly — the full flat slice never exists in DRAM.
  oocore::SegmentScratch scratch;
  for (auto& buffer : buffers_) {
    buffer.discard_resident();
    oocore::SegmentStore* store = buffer.store();
    const AlignedVector<Amplitude> seg(store->segment_amps(), value);
    for (std::size_t s = 0; s < store->segment_count(); ++s) {
      store->write_segment(s, seg.data(), scratch);
    }
  }
}

void VirtualCluster::init_basis(Index index) {
  QUASAR_CHECK(index < index_pow2(num_qubits_), "basis index out of range");
  init_fill(Amplitude{0.0, 0.0});
  const Index rank = index >> num_local_;
  const Index offset = index & (local_size() - 1);
  if (!segmented()) {
    buffers_[rank].data()[offset] = 1.0;
    return;
  }
  oocore::SegmentStore* store = buffers_[rank].store();
  const Index seg_amps = store->segment_amps();
  oocore::SegmentScratch scratch;
  AlignedVector<Amplitude> seg(seg_amps, Amplitude{0.0, 0.0});
  seg[offset & (seg_amps - 1)] = 1.0;
  store->write_segment(static_cast<std::size_t>(offset / seg_amps),
                       seg.data(), scratch);
}

void VirtualCluster::init_uniform() {
  const double value = std::pow(2.0, -0.5 * num_qubits_);
  init_fill(Amplitude{value, 0.0});
}

void VirtualCluster::alltoall_swap(const std::vector<int>& global_locations) {
  // Classic pairing (Fig. 3): global_locations[i] <-> local slot l-q+i.
  std::vector<int> local_positions;
  for (std::size_t i = 0; i < global_locations.size(); ++i) {
    local_positions.push_back(num_local_ -
                              static_cast<int>(global_locations.size()) +
                              static_cast<int>(i));
  }
  alltoall_swap(global_locations, local_positions);
}

void VirtualCluster::alltoall_swap(const std::vector<int>& global_locations,
                                   const std::vector<int>& local_positions) {
  obs::ScopedSpan span("exchange", "alltoall");
  const int q = static_cast<int>(global_locations.size());
  QUASAR_CHECK(q >= 1 && q <= num_global(),
               "alltoall_swap: need 1..g global locations");
  QUASAR_CHECK(static_cast<int>(local_positions.size()) == q,
               "alltoall_swap: one local position per global location");
  for (int i = 0; i < q; ++i) {
    QUASAR_CHECK(global_locations[i] >= num_local_ &&
                     global_locations[i] < num_qubits_,
                 "alltoall_swap: location is not global");
    QUASAR_CHECK(i == 0 || global_locations[i] > global_locations[i - 1],
                 "alltoall_swap: locations must be ascending");
    QUASAR_CHECK(local_positions[i] >= 0 && local_positions[i] < num_local_,
                 "alltoall_swap: position is not local");
  }
  std::vector<int> sorted_locals = local_positions;
  std::sort(sorted_locals.begin(), sorted_locals.end());
  for (int i = 1; i < q; ++i) {
    QUASAR_CHECK(sorted_locals[i] > sorted_locals[i - 1],
                 "alltoall_swap: local positions must be distinct");
  }
  // The exchange is an involution moving amplitudes verbatim, so the
  // total norm is invariant up to reduction rounding; a lost or
  // duplicated orbit breaks it loudly.
  const bool validate_norm = check::enabled();
  const Real norm_before = validate_norm ? norm_squared() : 0.0;

  // The machine-index permutation swapping bit local_positions[i] with
  // bit global_locations[i] is an involution, so every amplitude has a
  // unique partner and the exchange runs fully in place: rank r (bits
  // `theirs` at the swapped global positions) trades its sub-indices with
  // local pattern `mine` against rank r' (pattern `mine`) holding local
  // pattern `theirs` — the block-cyclic picture of Fig. 3, generalized to
  // arbitrary local positions. Data moves through per-thread bounce
  // chunks bounded by StorageOptions::bounce_buffer_bytes in total.
  const int l = num_local_;
  const Index block = index_pow2(l - q);
  const int ranks = num_ranks();

  // Contiguous runs below the lowest swapped local bit.
  const int run_bits = sorted_locals.front();
  const Index run = index_pow2(run_bits);
  const Index num_runs = index_pow2(l - q - run_bits);
  const IndexExpander expander(sorted_locals);

  const int threads = omp_get_max_threads();
  Index chunk = run;
  const Index budget_amps = std::max<std::size_t>(
      std::size_t{1},
      storage_.bounce_buffer_bytes /
          (static_cast<std::size_t>(threads) * sizeof(Amplitude)));
  if (chunk > budget_amps) chunk = Index{1} << ilog2(budget_amps);
  const Index chunks_per_run = run / chunk;

  // One orbit per unordered pattern pair {mine, theirs}, mine < theirs:
  // base pointers already offset by the scattered pattern bits.
  struct Orbit {
    Amplitude* a;
    Amplitude* b;
  };
  std::vector<Orbit> orbits;
  for (int r = 0; r < ranks; ++r) {
    Index theirs = 0;
    for (int i = 0; i < q; ++i) {
      theirs |= static_cast<Index>(get_bit(static_cast<Index>(r),
                                           global_locations[i] - l))
                << i;
    }
    for (Index mine = 0; mine < theirs; ++mine) {
      Index partner = static_cast<Index>(r);
      for (int i = 0; i < q; ++i) {
        partner = set_bit(partner, global_locations[i] - l,
                          get_bit(mine, i));
      }
      Index off_mine = 0, off_theirs = 0;
      for (int i = 0; i < q; ++i) {
        off_mine |= static_cast<Index>(get_bit(mine, i))
                    << local_positions[i];
        off_theirs |= static_cast<Index>(get_bit(theirs, i))
                      << local_positions[i];
      }
      orbits.push_back(Orbit{buffers_[r].data() + off_mine,
                             buffers_[partner].data() + off_theirs});
    }
  }

  const std::int64_t num_orbits = static_cast<std::int64_t>(orbits.size());
  const std::int64_t tasks =
      static_cast<std::int64_t>(num_runs * chunks_per_run);
  // Hoisted so the per-chunk latency probe costs nothing (not even the
  // session load) in the untraced inner loop.
  const bool record_latency = obs::enabled();
#pragma omp parallel num_threads(threads)
  {
    AlignedVector<Amplitude> bounce(chunk);
#pragma omp for collapse(2) schedule(static)
    for (std::int64_t o = 0; o < num_orbits; ++o) {
      for (std::int64_t t = 0; t < tasks; ++t) {
        const Index run_idx = static_cast<Index>(t) / chunks_per_run;
        const Index coff = (static_cast<Index>(t) % chunks_per_run) * chunk;
        const Index base = expander.expand(run_idx << run_bits) + coff;
        Amplitude* pa = orbits[o].a + base;
        Amplitude* pb = orbits[o].b + base;
        const std::size_t bytes = chunk * sizeof(Amplitude);
        if (record_latency) {
          obs::ScopedLatency chunk_latency(obs::names::kCommExchangeChunkNs);
          std::memcpy(bounce.data(), pa, bytes);
          std::memcpy(pa, pb, bytes);
          std::memcpy(pb, bounce.data(), bytes);
        } else {
          std::memcpy(bounce.data(), pa, bytes);
          std::memcpy(pa, pb, bytes);
          std::memcpy(pb, bounce.data(), bytes);
        }
      }
    }
  }

  ++stats_.alltoalls;
  // Each rank keeps one of 2^q blocks and sends the rest — independent of
  // which local positions carry the exchange.
  const std::uint64_t sent = (local_size() - block) * kBytesPerAmplitude;
  stats_.bytes_sent_per_rank += sent;
  const std::uint64_t bounce_bytes =
      static_cast<std::uint64_t>(threads) * chunk * sizeof(Amplitude);
  if (bounce_bytes > stats_.peak_bounce_bytes) {
    stats_.peak_bounce_bytes = bounce_bytes;
  }
  span.set_arg("bytes_per_rank", static_cast<std::int64_t>(sent));
  obs::count(obs::names::kCommAlltoalls);
  obs::count(obs::names::kCommBytesSentPerRank, sent);
  obs::count_peak(obs::names::kCommPeakBounceBytes, bounce_bytes);

  if (validate_norm) {
    check::require_norm_preserved(norm_squared(), norm_before,
                                  check::norm_tolerance(num_qubits_, 1),
                                  "VirtualCluster::alltoall_swap");
  }
}

void VirtualCluster::local_permute(const std::vector<int>& perm,
                                   const std::vector<Amplitude>* rank_phase,
                                   const ApplyOptions& options) {
  const PermutePlan plan = plan_bit_permutation(num_local_, perm);
  bool any_phase = false;
  if (rank_phase != nullptr) {
    QUASAR_CHECK(static_cast<int>(rank_phase->size()) == num_ranks(),
                 "local_permute: one phase per rank");
    for (const Amplitude& p : *rank_phase) {
      any_phase |= p != Amplitude{1.0, 0.0};
    }
  }
  const bool validate_norm = check::enabled();
  if (validate_norm) {
    check::require_bijection(perm, num_local_,
                             "VirtualCluster::local_permute");
    if (rank_phase != nullptr) {
      // The caller does not say how many multiplications accumulated in
      // these phases; 4096 unit-modulus factors is a generous ceiling.
      check::require_unit_phases(*rank_phase, check::phase_tolerance(4096),
                                 "VirtualCluster::local_permute");
    }
  }
  if (plan.identity && !any_phase) return;
  const Real norm_before = validate_norm ? norm_squared() : 0.0;
  obs::ScopedSpan span("permute", "local_permute", "bytes",
                       static_cast<std::int64_t>(num_ranks()) *
                           static_cast<std::int64_t>(local_size()) *
                           static_cast<std::int64_t>(kBytesPerAmplitude));

  const int threads = options.num_threads > 0 ? options.num_threads
                                              : omp_get_max_threads();
  const std::size_t scratch_bytes = std::max<std::size_t>(
      sizeof(Amplitude),
      storage_.bounce_buffer_bytes / static_cast<std::size_t>(threads));
  for (int r = 0; r < num_ranks(); ++r) {
    const Amplitude phase =
        rank_phase != nullptr ? (*rank_phase)[r] : Amplitude{1.0, 0.0};
    detail::run_bit_permutation(buffers_[r].data(), plan, phase,
                                options.num_threads, scratch_bytes);
  }

  ++stats_.local_permutation_sweeps;
  stats_.local_permutation_bytes +=
      static_cast<std::uint64_t>(num_ranks()) * local_size() *
      kBytesPerAmplitude;
  obs::count(obs::names::kCommLocalPermutationSweeps);
  obs::count(obs::names::kCommLocalPermutationBytes,
             static_cast<std::uint64_t>(num_ranks()) * local_size() *
                 kBytesPerAmplitude);
  if (!plan.identity) {
    const std::uint64_t brick_bytes =
        index_pow2(plan.brick_bits) * sizeof(Amplitude);
    const std::uint64_t bounce_bytes =
        static_cast<std::uint64_t>(threads) *
        std::min<std::uint64_t>(scratch_bytes, brick_bytes);
    if (bounce_bytes > stats_.peak_bounce_bytes) {
      stats_.peak_bounce_bytes = bounce_bytes;
    }
    obs::count_peak(obs::names::kCommPeakBounceBytes, bounce_bytes);
  }

  if (validate_norm) {
    // A bit permutation moves amplitudes verbatim; the folded phases are
    // unit modulus. Either failing to be a bijection in the executed plan
    // or a non-unit phase shows up as norm drift.
    check::require_norm_preserved(norm_squared(), norm_before,
                                  check::norm_tolerance(num_qubits_, 2),
                                  "VirtualCluster::local_permute");
  }
}

void VirtualCluster::renumber_ranks(const std::vector<int>& perm) {
  QUASAR_OBS_SPAN("renumber", "renumber_ranks");
  const int g = num_global();
  QUASAR_CHECK(static_cast<int>(perm.size()) == g,
               "renumber_ranks: permutation must cover all global bits");
  if (check::enabled()) {
    check::require_bijection(perm, g, "VirtualCluster::renumber_ranks");
  }
  const int ranks = num_ranks();
  std::vector<RankStorage> next(ranks);
  for (int r = 0; r < ranks; ++r) {
    Index src = 0;
    for (int j = 0; j < g; ++j) {
      QUASAR_CHECK(perm[j] >= 0 && perm[j] < g, "renumber_ranks: bad perm");
      src |= static_cast<Index>(get_bit(static_cast<Index>(r), j))
             << perm[j];
    }
    // perm is a bijection, so each source buffer moves exactly once.
    next[static_cast<Index>(r)] = std::move(buffers_[src]);
  }
  buffers_ = std::move(next);
  ++stats_.rank_renumberings;
  obs::count(obs::names::kCommRankRenumberings);
}

void VirtualCluster::permute_ranks(const std::vector<Index>& source_of) {
  QUASAR_OBS_SPAN("renumber", "permute_ranks");
  const int ranks = num_ranks();
  QUASAR_CHECK(static_cast<int>(source_of.size()) == ranks,
               "permute_ranks: must cover every rank");
  std::vector<bool> used(ranks, false);
  for (Index src : source_of) {
    QUASAR_CHECK(src < static_cast<Index>(ranks) && !used[src],
                 "permute_ranks: not a bijection");
    used[src] = true;
  }
  std::vector<RankStorage> next(ranks);
  for (int r = 0; r < ranks; ++r) {
    next[r] = std::move(buffers_[source_of[r]]);
  }
  buffers_ = std::move(next);
  ++stats_.rank_renumberings;
  obs::count(obs::names::kCommRankRenumberings);
}

void VirtualCluster::local_swap(int p, int q, const ApplyOptions& options) {
  QUASAR_OBS_SPAN("permute", "local_swap");
  QUASAR_CHECK(p >= 0 && p < num_local_ && q >= 0 && q < num_local_,
               "local_swap: locations must be local");
  for (auto& buffer : buffers_) {
    apply_bit_swap(buffer.data(), num_local_, p, q, options.num_threads);
  }
  ++stats_.local_swap_sweeps;
  obs::count(obs::names::kCommLocalSwapSweeps);
}

void VirtualCluster::pairwise_global_gate(const GateMatrix& gate,
                                          int location,
                                          const ApplyOptions& options) {
  QUASAR_OBS_SPAN("exchange", "pairwise_gate");
  (void)options;
  QUASAR_CHECK(gate.num_qubits() == 1,
               "pairwise_global_gate expects a single-qubit gate");
  QUASAR_CHECK(location >= num_local_ && location < num_qubits_,
               "pairwise_global_gate: location must be global");
  const Index bit = index_pow2(location - num_local_);
  const Amplitude m00 = gate.at(0, 0), m01 = gate.at(0, 1);
  const Amplitude m10 = gate.at(1, 0), m11 = gate.at(1, 1);
  const Index half = local_size() / 2;

  for (Index r0 = 0; r0 < static_cast<Index>(num_ranks()); ++r0) {
    if (r0 & bit) continue;
    const Index r1 = r0 | bit;
    Amplitude* a = buffers_[r0].data();
    Amplitude* b = buffers_[r1].data();
    // In the scheme of [19], rank r0 computes the lower-half pairs and
    // rank r1 the upper half, after exchanging half the state vector
    // each way; the result is another half-exchange back. The net data
    // motion is 2 x half the local state per rank; the arithmetic below
    // is what both ranks jointly produce.
#pragma omp parallel for schedule(static)
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(2 * half); ++i) {
      const Amplitude va = a[i], vb = b[i];
      a[i] = m00 * va + m01 * vb;
      b[i] = m10 * va + m11 * vb;
    }
  }
  stats_.pairwise_exchanges += 2;
  stats_.bytes_sent_per_rank += 2 * half * kBytesPerAmplitude;
  obs::count(obs::names::kCommPairwiseExchanges, 2);
  obs::count(obs::names::kCommBytesSentPerRank, 2 * half * kBytesPerAmplitude);
}

Real VirtualCluster::norm_squared() const {
  Real total = 0.0;
  for (const auto& buffer : buffers_) {
    const Amplitude* data = buffer.data();
    total += ordered_sum(static_cast<std::int64_t>(buffer.size()),
                         [data](std::int64_t i) { return std::norm(data[i]); });
  }
  return total;
}

}  // namespace quasar
