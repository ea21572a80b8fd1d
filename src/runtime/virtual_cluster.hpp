/// \file virtual_cluster.hpp
/// \brief In-process stand-in for the MPI machine (see DESIGN.md §3).
///
/// Holds 2^g rank-local state-vector slices of 2^l amplitudes each and
/// implements the communication primitives of Sec. 3.4 bit-exactly:
///   - the (group) all-to-all that swaps q global qubits with the q
///     highest-order local qubits (Fig. 3);
///   - rank renumbering (global permutations, e.g. a CNOT on global
///     qubits, Sec. 3.5);
///   - per-rank local bit swaps (executed with the swap kernels);
///   - the baseline pairwise half-state exchange of [19]/[5].
/// Every primitive updates CommStats. A real MPI backend would implement
/// the same primitives SPMD-style behind the same call signatures.
#pragma once

#include <vector>

#include "core/aligned.hpp"
#include "core/bits.hpp"
#include "core/types.hpp"
#include "gates/matrix.hpp"
#include "kernels/apply.hpp"
#include "runtime/comm.hpp"
#include "runtime/rank_storage.hpp"

namespace quasar {

/// 2^g ranks, each owning 2^l amplitudes.
class VirtualCluster {
 public:
  /// \param num_qubits total qubits n; \param num_local local qubits l.
  /// g = n - l global qubits => 2^(n-l) ranks. `storage` selects DRAM or
  /// SSD-backed rank slices (Sec. 5 outlook).
  explicit VirtualCluster(int num_qubits, int num_local,
                          StorageOptions storage = {});

  int num_qubits() const noexcept { return num_qubits_; }
  int num_local() const noexcept { return num_local_; }
  int num_global() const noexcept { return num_qubits_ - num_local_; }
  int num_ranks() const {
    // checked: 2^g silently truncates through a bare static_cast once
    // g >= 31, and every rank loop bounds itself on this value.
    return checked_int(index_pow2(num_global()), "VirtualCluster rank count");
  }
  Index local_size() const noexcept { return index_pow2(num_local_); }

  /// Mutable access to one rank's slice. On segmented (kOocore) storage
  /// this materializes the slice into its disk-backed scratch first; the
  /// pipelined stage executor avoids these calls and streams segments
  /// instead (runtime/oocore_exec.cpp).
  Amplitude* rank_data(int rank) { return buffers_[rank].data(); }
  const Amplitude* rank_data(int rank) const { return buffers_[rank].data(); }
  /// Direct access to one rank's storage object (segment store,
  /// residency control). Used by the out-of-core executor and tests.
  RankStorage& rank_storage(int rank) { return buffers_[rank]; }
  const RankStorage& rank_storage(int rank) const { return buffers_[rank]; }
  /// True when slices live in segmented out-of-core storage.
  bool segmented() const noexcept {
    return storage_.medium == StorageMedium::kOocore;
  }
  /// Storage configuration in effect.
  const StorageOptions& storage() const noexcept { return storage_; }

  /// Initializes the distributed state to the basis state |index>.
  void init_basis(Index index);
  /// Initializes every amplitude to 2^(-n/2) (post-Hadamard-layer state).
  void init_uniform();

  /// Swaps the global bit-locations `global_locations` (all >= l, sorted
  /// ascending) with the highest |global_locations| local bit-locations,
  /// via one (group) all-to-all. Swapping all g globals is one world
  /// all-to-all. Executed in place with a bounded bounce buffer
  /// (StorageOptions::bounce_buffer_bytes): peak footprint is 1+epsilon
  /// times the state, never 2x.
  void alltoall_swap(const std::vector<int>& global_locations);

  /// Generalized form: swaps global_locations[i] with the arbitrary
  /// local bit-location local_positions[i] (pairwise, one group
  /// all-to-all). Lets a stage transition skip the parking swap chain:
  /// outgoing qubits are exchanged straight from wherever they sit.
  void alltoall_swap(const std::vector<int>& global_locations,
                     const std::vector<int>& local_positions);

  /// One fused local bit-permutation sweep over every rank (single pass,
  /// in place): location j afterwards holds what location perm[j] held.
  /// If `rank_phase` is non-null, rank r's amplitudes are additionally
  /// multiplied by (*rank_phase)[r] during the same pass — this is how
  /// deferred per-rank phases are flushed without a dedicated sweep.
  void local_permute(const std::vector<int>& perm,
                     const std::vector<Amplitude>* rank_phase = nullptr,
                     const ApplyOptions& options = {});

  /// Applies a permutation of the global bit-locations by renumbering
  /// ranks (zero data volume). perm maps global-bit j (0-based within the
  /// global bits) to the global bit whose value it takes: new rank bit j
  /// = old rank bit perm[j].
  void renumber_ranks(const std::vector<int>& perm);

  /// General rank renumbering: after the call, rank r holds what rank
  /// source_of[r] held. Must be a bijection. Used for global
  /// permutation gates (X/CNOT/SWAP on global qubits, Sec. 3.5) whose
  /// action is a rank permutation that need not be a bit permutation.
  void permute_ranks(const std::vector<Index>& source_of);

  /// Swaps two local bit-locations on every rank (kernel sweep).
  void local_swap(int p, int q, const ApplyOptions& options = {});

  /// Baseline [19] primitive: applies a dense single-qubit gate on global
  /// bit-location `location` using two pairwise half-state exchanges.
  void pairwise_global_gate(const GateMatrix& gate, int location,
                            const ApplyOptions& options = {});

  /// Total squared norm across ranks; same grouping (and bits) as
  /// Communicator::norm_squared.
  Real norm_squared() const;

  /// Communication counters.
  const CommStats& stats() const noexcept { return stats_; }
  CommStats& stats() noexcept { return stats_; }

 private:
  /// Constant fill of every slice; writes segment stores directly on
  /// kOocore so initialization never materializes the flat slices.
  void init_fill(Amplitude value);

  int num_qubits_;
  int num_local_;
  StorageOptions storage_;
  std::vector<RankStorage> buffers_;
  CommStats stats_;
};

}  // namespace quasar
