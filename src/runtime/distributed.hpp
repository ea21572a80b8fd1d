/// \file distributed.hpp
/// \brief Multi-node simulator: schedule execution over a Communicator.
///
/// Implements the paper's preferred multi-node scheme (Sec. 3.4): keep a
/// stage's gates local, then perform a global-to-local swap realized as
/// local bit swaps + one (group) all-to-all + local bit swaps, plus the
/// Sec. 3.5 specializations (diagonal global gates applied in place as
/// rank-conditional phases/sub-gates, pure phases deferred and absorbed,
/// global permutations as rank renumbering).
///
/// All cluster traffic goes through the Communicator seam (DESIGN.md
/// §12): QUASAR_TRANSPORT=virtual runs the in-process VirtualCluster,
/// QUASAR_TRANSPORT=proc runs real forked rank processes over
/// UNIX-domain sockets. The simulator's own logic is transport-blind.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "circuit/circuit.hpp"
#include "ckpt/reader.hpp"
#include "ckpt/writer.hpp"
#include "core/rng.hpp"
#include "runtime/communicator.hpp"
#include "sched/schedule.hpp"
#include "simulator/statevector.hpp"

namespace quasar {

/// Checkpointing policy for one run (DESIGN.md §10). The writer snapshots
/// the full run state at stage boundaries; `first_stage` starts the
/// schedule mid-way (the value resume() returned); `rng` is the sampling
/// stream whose state rides along in every manifest so a resumed run's
/// sample draws are bit-identical; `snapshot_every` thins snapshots to
/// every k-th boundary (the final boundary is always snapshotted).
struct CheckpointedRun {
  ckpt::CheckpointWriter* writer = nullptr;
  std::size_t first_stage = 0;
  Rng* rng = nullptr;
  int snapshot_every = 1;
  /// Cooperative preemption/shutdown flag (DESIGN.md §13). When set and
  /// it reads true at a stage boundary, the run snapshots that boundary
  /// (unless it just did), drains the writer, and returns its cursor
  /// early instead of executing further stages. Point it at
  /// quasar::shutdown_flag() for SIGINT/SIGTERM draining, or at a
  /// per-job flag for job-server preemption.
  const std::atomic<bool>* stop = nullptr;
  /// Snapshot the final stage boundary even when snapshot_every does not
  /// land on it (the restart contract of DESIGN.md §10). The job server
  /// turns this off: a completed job's results are read from memory, so
  /// a final full-state write would be pure overhead.
  bool final_snapshot = true;
};

/// Distributed statevector simulator over 2^(n-l) ranks (virtual or real
/// processes, per the transport).
class DistributedSimulator {
 public:
  DistributedSimulator(int num_qubits, int num_local,
                       ApplyOptions options = {},
                       StorageOptions storage = {},
                       TransportKind transport = transport_from_env());

  int num_qubits() const noexcept { return comm_->num_qubits(); }
  int num_local() const noexcept { return comm_->num_local(); }
  int num_ranks() const noexcept { return comm_->num_ranks(); }
  Index local_size() const noexcept { return comm_->local_size(); }
  /// True when ranks are separate OS processes (QUASAR_TRANSPORT=proc).
  bool multiprocess() const noexcept { return comm_->multiprocess(); }

  /// State initialization (resets the current mapping to identity).
  void init_basis(Index index);
  void init_uniform();

  /// Executes `schedule` (built for the same qubit/local counts) of
  /// `circuit`. May be called repeatedly; the qubit mapping carries over.
  void run(const Circuit& circuit, const Schedule& schedule);

  /// Schedules `circuit` with `options` and executes it.
  void run(const Circuit& circuit, const ScheduleOptions& options);

  /// Executes `schedule` under a checkpointing policy: snapshots the run
  /// state through `ckpt.writer` at stage boundaries (after every
  /// `ckpt.snapshot_every`-th stage and, when `ckpt.final_snapshot`,
  /// always after the last), starting from stage `ckpt.first_stage` (0
  /// for a fresh run, the return value of resume() for a restarted one).
  /// If the writer's fault injector arms kill_stage:k, the process dies
  /// at the boundary *before* stage k executes, after draining any
  /// in-flight snapshot — so the newest on-disk generation is always a
  /// fully committed one. Under the proc transport the kill first lands
  /// in a real rank process (which exits 137) and the remaining ranks
  /// are torn down before the root dies.
  ///
  /// Returns the cursor (first unexecuted stage): stages.size() when the
  /// schedule completed, or the preemption boundary when `ckpt.stop`
  /// read true — in that case the boundary has been snapshotted and the
  /// writer drained, so a later resume() continues bit-identically.
  std::size_t run(const Circuit& circuit, const Schedule& schedule,
                  const CheckpointedRun& ckpt);

  /// Snapshots the current state (amplitude shards + mapping + deferred
  /// phases + RNG stream + norm) into `writer`'s staging buffer and hands
  /// it to the background thread. `cursor` is the index of the first
  /// stage NOT yet executed; `schedule_crc` ties the snapshot to one
  /// schedule (0 = unknown). Blocks only while a previous snapshot is
  /// still being written (double buffering, DESIGN.md §10). Under the
  /// proc transport the per-rank shards are fetched from the rank
  /// processes and reduced into the snapshot at the root.
  void checkpoint(ckpt::CheckpointWriter& writer, std::size_t cursor,
                  const Rng* rng, std::uint32_t schedule_crc) const;

  /// Adopts a verified snapshot: checks engine/geometry/schedule
  /// consistency (the manifest's schedule_crc against the canonical
  /// sched::schedule_digest of `circuit` + the schedule's options),
  /// mapping bijectivity, deferred-phase unit modulus, finiteness and
  /// norm agreement before overwriting any state, then installs the
  /// shards, mapping and phases. Restores `rng` from the manifest when
  /// both are present. Returns the schedule cursor (first stage to
  /// execute); throws check::ValidationError if the snapshot fails
  /// verification. These checks run unconditionally — a snapshot is
  /// untrusted input regardless of QUASAR_VALIDATE.
  std::size_t resume(const ckpt::LoadedSnapshot& snapshot,
                     const Circuit& circuit, const Schedule& schedule,
                     Rng* rng = nullptr);

  /// Reassembles the full state vector in program-qubit order, including
  /// deferred phases. Only for n small enough to hold twice.
  StateVector gather() const;

  /// Distributed reductions, computed at the root by fixed-chunk ordered
  /// sums (core/reduce.hpp) per slice, slices in rank order: bit-identical
  /// across QUASAR_TRANSPORT values and OpenMP team sizes.
  Real norm_squared() const { return comm().norm_squared(); }
  Real entropy() const;

  /// Amplitude of one program-order basis state (includes deferred
  /// phases). Under the proc transport this fetches (and caches) the
  /// owning rank's slice.
  Amplitude amplitude(Index program_index) const;
  /// |amplitude|^2 of one basis state.
  Real probability(Index program_index) const {
    return std::norm(amplitude(program_index));
  }

  /// Samples `count` program-order outcomes from |amplitude|^2 without
  /// reassembling the state. The scan runs in program order with the
  /// same accumulation as sample_outcomes() on a gathered state, so the
  /// outcome stream is bit-for-bit identical to the single-node path
  /// under the same seed (the cross-engine property the fuzz harness
  /// asserts). An MPI deployment would pay one ordered prefix-sum pass
  /// for this determinism.
  std::vector<Index> sample(int count, Rng& rng) const;

  /// Communication counters accumulated so far. Virtual transport: the
  /// cluster's counters. Proc transport: per-rank worker counters
  /// reduced at the root (volume fields agree across ranks).
  CommStats stats() const { return comm().stats(); }

  /// Current program-qubit -> bit-location mapping.
  const std::vector<int>& mapping() const { return mapping_; }

  /// Deferred per-rank phases (Sec. 3.5), one unit-modulus factor per
  /// rank. Snapshot/verification code reads these; run state is not
  /// complete without them.
  const std::vector<Amplitude>& pending_phases() const {
    return pending_phase_;
  }

  /// Read access to logical rank r's slice on any transport (fetched and
  /// cached over the wire under proc). Benchmarks, demos and digests use
  /// this instead of cluster().
  const Amplitude* rank_slice(int rank) const { return comm().slice(rank); }

  /// Re-arranges the distributed state so program qubit q sits at
  /// bit-location to[q]: at most one fused local permutation sweep, one
  /// group all-to-all (only if qubits cross the local/global boundary)
  /// and one rank renumbering. `to` must be a bijection on [0, n).
  void remap(const std::vector<int>& to);

  /// Underlying in-process cluster. Throws under multi-process
  /// transports — use rank_slice()/stats() for transport-agnostic reads.
  const VirtualCluster& cluster() const;

 private:
  /// comm_ is behaviorally const from the simulator's point of view in
  /// const methods (slice reads mutate only the root-side fetch cache),
  /// so const methods funnel through this accessor.
  Communicator& comm() const { return *comm_; }
  /// The in-process cluster behind the virtual transport; throws under
  /// proc. Only the out-of-core executor and cluster() use it.
  VirtualCluster& local_cluster() const;
  /// Re-arranges the distributed state from mapping `from` to `to`.
  void transition(const std::vector<int>& from, const std::vector<int>& to);
  /// QUASAR_VALIDATE guard body: mapping bijectivity, deferred-phase unit
  /// modulus, per-rank finiteness, and norm preservation vs `norm_before`
  /// with a tolerance derived from `ops` executed items.
  void validate_invariants(const char* site, Real norm_before,
                           std::size_t ops) const;
  void execute_stage(const Circuit& circuit, const Stage& stage);
  void apply_global_op(const GateOp& op, const Stage& stage);
  /// Out-of-core stage executor (runtime/oocore_exec.cpp, DESIGN.md §11):
  /// streams each rank's segmented slice through the async pipeline
  /// instead of materializing it, applying the stage's gate work
  /// segment-granularly. Bit-identical to execute_stage for lossless
  /// codecs (the differential fuzzer asserts this).
  void execute_stage_oocore(const Circuit& circuit, const Stage& stage);

  std::unique_ptr<Communicator> comm_;
  ApplyOptions options_;
  std::vector<int> mapping_;
  std::vector<Amplitude> pending_phase_;
};

}  // namespace quasar
