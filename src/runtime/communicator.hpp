/// \file communicator.hpp
/// \brief Transport seam over the cluster primitives (DESIGN.md §12).
///
/// DistributedSimulator speaks to the machine exclusively through this
/// interface: the six primitives of Secs. 3.4/3.5 (two all-to-all forms,
/// the fused local permutation, the two rank renumberings, the baseline
/// pairwise exchange), gate application, state initialization, slice
/// access, and the CommStats reduction. Two backends implement it:
///
///  - VirtualCommunicator: the in-process VirtualCluster, unchanged
///    semantics — every rank slice lives in this process.
///  - ProcCommunicator (proc_transport.hpp): 2^g forked rank processes
///    wired over UNIX-domain sockets, each owning its 2^l-amplitude
///    slice. The root drives them in lockstep; data-plane exchanges run
///    directly between worker pairs with bounce-bounded chunks, so the
///    1+epsilon footprint guarantee survives the process split.
///
/// QUASAR_TRANSPORT=virtual|proc selects the backend at runtime.
/// Cross-transport bit parity (same seeds, identical amplitudes, sample
/// streams, and CommStats volumes) is enforced by the differential-fuzz
/// harness and tests/transport_test.cpp.
#pragma once

#include <memory>
#include <vector>

#include "gates/matrix.hpp"
#include "kernels/apply.hpp"
#include "runtime/comm.hpp"
#include "runtime/rank_storage.hpp"
#include "runtime/virtual_cluster.hpp"

namespace quasar {

/// Which transport backs the cluster primitives.
enum class TransportKind {
  kVirtual,  ///< in-process VirtualCluster (default)
  kProc,     ///< forked rank processes over UNIX-domain sockets
};

/// Strict QUASAR_TRANSPORT reader: "virtual" | "proc", unset keeps the
/// default. Anything else throws quasar::Error naming the token.
TransportKind transport_from_env(TransportKind fallback = TransportKind::kVirtual);

/// Abstract transport: 2^g ranks of 2^l amplitudes, addressed by logical
/// rank number. All methods are collective — the caller is the single
/// driver (root) and every rank participates.
class Communicator {
 public:
  virtual ~Communicator() = default;

  virtual int num_qubits() const = 0;
  virtual int num_local() const = 0;
  int num_global() const { return num_qubits() - num_local(); }
  virtual int num_ranks() const = 0;
  Index local_size() const { return index_pow2(num_local()); }

  /// True for backends whose ranks are separate OS processes.
  virtual bool multiprocess() const = 0;
  /// Storage configuration in effect.
  virtual const StorageOptions& storage() const = 0;

  virtual void init_basis(Index index) = 0;
  virtual void init_uniform() = 0;

  /// The six cluster primitives — signatures and arithmetic match
  /// VirtualCluster bit-for-bit (see virtual_cluster.hpp for contracts).
  virtual void alltoall_swap(const std::vector<int>& global_locations) = 0;
  virtual void alltoall_swap(const std::vector<int>& global_locations,
                             const std::vector<int>& local_positions) = 0;
  virtual void local_permute(const std::vector<int>& perm,
                             const std::vector<Amplitude>* rank_phase,
                             const ApplyOptions& options) = 0;
  virtual void renumber_ranks(const std::vector<int>& perm) = 0;
  virtual void permute_ranks(const std::vector<Index>& source_of) = 0;
  virtual void pairwise_global_gate(const GateMatrix& gate, int location,
                                    const ApplyOptions& options) = 0;

  /// Applies the same prepared gate to every rank's slice (the kCluster
  /// stage-item path: prepare once, sweep all ranks).
  virtual void apply_gate_all(const GateMatrix& matrix,
                              const std::vector<int>& local_locations,
                              const ApplyOptions& options) = 0;
  /// Applies a gate to one rank's slice (the conditional-gate path).
  virtual void apply_gate_rank(int rank, const GateMatrix& matrix,
                               const std::vector<int>& local_locations,
                               const ApplyOptions& options) = 0;

  /// Read access to rank `rank`'s full slice in logical-rank order.
  /// Virtual: a direct pointer. Proc: fetches the slice over the wire
  /// into a root-side cache (invalidated by any mutating call), so
  /// per-amplitude readers (gather, sampling, checkpointing) stay
  /// correct and amortized.
  virtual const Amplitude* slice(int rank) = 0;
  /// Overwrites rank `rank`'s slice (checkpoint resume).
  virtual void write_slice(int rank, const Amplitude* data) = 0;

  /// Total squared norm across ranks. Computed at the root over slice():
  /// one fixed-chunk ordered_sum (core/reduce.hpp) per slice, slices
  /// added in rank order. That grouping depends on neither the backend
  /// nor the OpenMP team size, so the result is bit-identical across
  /// transports, thread counts and runs.
  Real norm_squared();

  /// Communication counters. Virtual: the cluster's counters. Proc: the
  /// per-rank worker counters reduced at the root (volume fields are
  /// identical across ranks by construction; peak_bounce_bytes is the
  /// max, and depends on the per-backend chunking).
  virtual CommStats stats() = 0;

  /// The in-process cluster behind a virtual transport, or nullptr for
  /// multi-process backends. The out-of-core executor (which streams
  /// segment stores directly) and the Fig. 3 demo use this escape hatch.
  virtual VirtualCluster* local_cluster() { return nullptr; }

  /// Multi-process fault injection: sends a die order to one live rank
  /// process (chosen from `stage`), reaps it (exit 137), and tears the
  /// remaining ranks down cleanly. Returns false on single-process
  /// backends (the injector then just kills this process as before).
  virtual bool kill_rank_for_fault(std::size_t stage) {
    (void)stage;
    return false;
  }
};

/// In-process backend: owns a VirtualCluster and forwards verbatim.
class VirtualCommunicator final : public Communicator {
 public:
  VirtualCommunicator(int num_qubits, int num_local, StorageOptions storage);

  int num_qubits() const override { return cluster_.num_qubits(); }
  int num_local() const override { return cluster_.num_local(); }
  int num_ranks() const override { return cluster_.num_ranks(); }
  bool multiprocess() const override { return false; }
  const StorageOptions& storage() const override { return cluster_.storage(); }

  void init_basis(Index index) override { cluster_.init_basis(index); }
  void init_uniform() override { cluster_.init_uniform(); }

  void alltoall_swap(const std::vector<int>& global_locations) override {
    cluster_.alltoall_swap(global_locations);
  }
  void alltoall_swap(const std::vector<int>& global_locations,
                     const std::vector<int>& local_positions) override {
    cluster_.alltoall_swap(global_locations, local_positions);
  }
  void local_permute(const std::vector<int>& perm,
                     const std::vector<Amplitude>* rank_phase,
                     const ApplyOptions& options) override {
    cluster_.local_permute(perm, rank_phase, options);
  }
  void renumber_ranks(const std::vector<int>& perm) override {
    cluster_.renumber_ranks(perm);
  }
  void permute_ranks(const std::vector<Index>& source_of) override {
    cluster_.permute_ranks(source_of);
  }
  void pairwise_global_gate(const GateMatrix& gate, int location,
                            const ApplyOptions& options) override {
    cluster_.pairwise_global_gate(gate, location, options);
  }

  void apply_gate_all(const GateMatrix& matrix,
                      const std::vector<int>& local_locations,
                      const ApplyOptions& options) override;
  void apply_gate_rank(int rank, const GateMatrix& matrix,
                       const std::vector<int>& local_locations,
                       const ApplyOptions& options) override;

  const Amplitude* slice(int rank) override { return cluster_.rank_data(rank); }
  void write_slice(int rank, const Amplitude* data) override;

  CommStats stats() override { return cluster_.stats(); }
  VirtualCluster* local_cluster() override { return &cluster_; }

 private:
  VirtualCluster cluster_;
};

/// Builds the requested backend. kProc supports kMemory and kDisk rank
/// slices (each rank process creates its own per-rank-tagged backing
/// file), rejects kOocore (the segment-streaming executor is
/// virtual-transport-only), and caps the rank count at 16 processes.
/// `apply` is the gate-application configuration the proc workers use
/// (with num_threads forced to 1 — workers are strictly serial so the
/// fork is OpenMP-safe); the virtual backend ignores it and takes the
/// per-call options instead.
std::unique_ptr<Communicator> make_communicator(int num_qubits, int num_local,
                                                StorageOptions storage,
                                                const ApplyOptions& apply,
                                                TransportKind transport);

}  // namespace quasar
