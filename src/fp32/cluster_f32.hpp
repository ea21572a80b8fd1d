/// \file cluster_f32.hpp
/// \brief fp32 transport seam: the cluster primitives behind
/// DistributedSimulatorF (DESIGN.md §12).
///
/// Single-precision twin of runtime/communicator.hpp. The simulator owns
/// the qubit mapping and the deferred per-rank phases (accumulated in
/// double, Sec. 3.5); the communicator owns the amplitude slices and the
/// communication counters. Two backends:
///
///  - VirtualCommunicatorF: in-process AlignedVector<AmplitudeF> slices
///    with the OpenMP in-place exchange (the code that used to live
///    inline in DistributedSimulatorF).
///  - ProcCommunicatorF: proc::ProcClusterT instantiated with fp32
///    traits — the same forked-rank wire protocol as the fp64 backend,
///    amplitudes travelling as 8-byte complex<float>.
///
/// QUASAR_TRANSPORT selects the backend, exactly as for fp64.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/bits.hpp"
#include "fp32/statevector_f32.hpp"
#include "gates/matrix.hpp"
#include "runtime/comm.hpp"
#include "runtime/communicator.hpp"

namespace quasar {

/// Abstract fp32 transport: 2^g ranks of 2^l AmplitudeF each. All
/// methods are collective, driven by the single root caller.
class CommunicatorF {
 public:
  virtual ~CommunicatorF() = default;

  virtual int num_qubits() const = 0;
  virtual int num_local() const = 0;
  virtual int num_ranks() const = 0;
  Index local_size() const { return index_pow2(num_local()); }

  /// True for backends whose ranks are separate OS processes.
  virtual bool multiprocess() const = 0;

  virtual void init_basis(Index index) = 0;
  virtual void init_uniform() = 0;

  /// In-place chunked exchange of global_locations[i] with local
  /// bit-location local_positions[i] (contract of
  /// VirtualCluster::alltoall_swap, fp32 amplitudes).
  virtual void alltoall_swap(const std::vector<int>& global_locations,
                             const std::vector<int>& local_positions) = 0;
  /// One fused local permutation sweep; `rank_phase` (indexed by logical
  /// rank, double precision) folds the deferred phases into the same
  /// pass, nullptr means no phases. The identity-and-no-phase case is a
  /// no-op on every backend.
  virtual void local_permute(const std::vector<int>& perm,
                             const std::vector<Amplitude>* rank_phase) = 0;
  /// Zero-volume renumbering: new logical rank r takes the slice that
  /// was logical source_of[r]. The caller permutes its deferred phases
  /// with the same table.
  virtual void permute_ranks(const std::vector<Index>& source_of) = 0;

  /// Applies the gate to every rank's slice (prepared once per sweep).
  virtual void apply_gate_all(const GateMatrix& matrix,
                              const std::vector<int>& local_locations) = 0;
  /// Applies a gate to one rank's slice (the conditional-gate path).
  virtual void apply_gate_rank(int rank, const GateMatrix& matrix,
                               const std::vector<int>& local_locations) = 0;

  /// Read access to logical rank `rank`'s slice (proc: root-side cached
  /// fetch, invalidated by mutating calls). Not stable across mutations.
  virtual const AmplitudeF* slice(int rank) = 0;
  /// Overwrites rank `rank`'s slice (checkpoint resume).
  virtual void write_slice(int rank, const AmplitudeF* data) = 0;

  /// Total squared norm, accumulated in double at the root over slice()
  /// by one fixed-chunk ordered_sum (core/reduce.hpp) per slice, slices
  /// in rank order: bit-identical across transports and team sizes.
  Real norm_squared();

  /// Communication counters (proc: per-rank counters reduced at root).
  virtual CommStats stats() = 0;

  /// Multi-process fault injection hook; false on in-process backends.
  virtual bool kill_rank_for_fault(std::size_t stage) {
    (void)stage;
    return false;
  }
};

/// Builds the requested fp32 backend. kProc caps the rank count at 16
/// forked processes and keeps slices in worker memory; `num_threads` and
/// `bounce_buffer_bytes` configure the virtual backend's sweeps and the
/// per-worker chunk bound respectively.
std::unique_ptr<CommunicatorF> make_communicator_f32(
    int num_qubits, int num_local, int num_threads,
    std::size_t bounce_buffer_bytes, TransportKind transport);

}  // namespace quasar
