#include "runtime/distributed.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <numeric>
#include <utility>

#include "check/invariant.hpp"
#include "ckpt/crc32c.hpp"
#include "core/bits.hpp"
#include "core/error.hpp"
#include "core/reduce.hpp"
#include "obs/names.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "runtime/conditional.hpp"
#include "sched/digest.hpp"
#include "sched/schedule_io.hpp"

namespace quasar {
namespace {

/// Gate-sweep count the invariant tolerances assume after executing
/// stages [0, cursor): the same per-stage accounting run() uses.
std::size_t ops_through_stage(const Schedule& schedule, std::size_t cursor) {
  std::size_t ops = 3;
  for (std::size_t si = 0; si < cursor && si < schedule.stages.size(); ++si) {
    ops += schedule.stages[si].items.size() + 3;
  }
  return ops;
}

}  // namespace

DistributedSimulator::DistributedSimulator(int num_qubits, int num_local,
                                           ApplyOptions options,
                                           StorageOptions storage,
                                           TransportKind transport)
    : comm_(make_communicator(num_qubits, num_local, std::move(storage),
                              options, transport)),
      options_(options) {
  mapping_.resize(num_qubits);
  std::iota(mapping_.begin(), mapping_.end(), 0);
  pending_phase_.assign(comm_->num_ranks(), Amplitude{1.0, 0.0});
}

const VirtualCluster& DistributedSimulator::cluster() const {
  return local_cluster();
}

VirtualCluster& DistributedSimulator::local_cluster() const {
  VirtualCluster* local = comm().local_cluster();
  QUASAR_CHECK(local != nullptr,
               "cluster(): the active transport does not expose an "
               "in-process cluster (QUASAR_TRANSPORT=proc); use "
               "rank_slice()/stats() for transport-agnostic reads");
  return *local;
}

void DistributedSimulator::init_basis(Index index) {
  comm_->init_basis(index);
  std::iota(mapping_.begin(), mapping_.end(), 0);
  std::fill(pending_phase_.begin(), pending_phase_.end(),
            Amplitude{1.0, 0.0});
}

void DistributedSimulator::init_uniform() {
  comm_->init_uniform();
  std::iota(mapping_.begin(), mapping_.end(), 0);
  std::fill(pending_phase_.begin(), pending_phase_.end(),
            Amplitude{1.0, 0.0});
}

void DistributedSimulator::run(const Circuit& circuit,
                               const Schedule& schedule) {
  QUASAR_CHECK(schedule.num_qubits == num_qubits() &&
                   schedule.num_local == num_local(),
               "run: schedule was built for a different configuration");
  QUASAR_CHECK(schedule.options.build_matrices,
               "run: schedule lacks fused matrices "
               "(ScheduleOptions::build_matrices was false)");
  QUASAR_OBS_SPAN("run", "distributed_run", "stages",
                  static_cast<std::int64_t>(schedule.stages.size()));
  obs::ProgressRun progress(static_cast<int>(schedule.stages.size()));
  const bool validate = check::enabled();
  Real norm_before = 0.0;
  std::size_t ops_done = 0;
  if (validate) norm_before = comm_->norm_squared();
  for (std::size_t si = 0; si < schedule.stages.size(); ++si) {
    const Stage& stage = schedule.stages[si];
    QUASAR_OBS_SPAN("stage", "stage", "stage",
                    static_cast<std::int64_t>(si));
    transition(mapping_, stage.qubit_to_location);
    mapping_ = stage.qubit_to_location;
    execute_stage(circuit, stage);
    if (validate) {
      ops_done += stage.items.size() + 3;  // items + transition sweeps
      const std::string site =
          "DistributedSimulator::run stage " + std::to_string(si);
      validate_invariants(site.c_str(), norm_before, ops_done);
    }
    progress.stage_completed(static_cast<int>(si) + 1);
  }
}

std::size_t DistributedSimulator::run(const Circuit& circuit,
                                      const Schedule& schedule,
                                      const CheckpointedRun& ckpt_run) {
  QUASAR_CHECK(ckpt_run.writer != nullptr,
               "run: CheckpointedRun requires a writer");
  QUASAR_CHECK(ckpt_run.snapshot_every >= 1,
               "run: snapshot_every must be >= 1");
  QUASAR_CHECK(schedule.num_qubits == num_qubits() &&
                   schedule.num_local == num_local(),
               "run: schedule was built for a different configuration");
  QUASAR_CHECK(schedule.options.build_matrices,
               "run: schedule lacks fused matrices "
               "(ScheduleOptions::build_matrices was false)");
  QUASAR_CHECK(ckpt_run.first_stage <= schedule.stages.size(),
               "run: first_stage is beyond the end of the schedule");
  ckpt::CheckpointWriter& writer = *ckpt_run.writer;
  const std::uint32_t schedule_crc =
      sched::schedule_digest(circuit, schedule.options);
  const std::size_t num_stages = schedule.stages.size();
  QUASAR_OBS_SPAN("run", "distributed_run", "stages",
                  static_cast<std::int64_t>(num_stages));
  obs::ProgressRun progress(static_cast<int>(num_stages),
                            static_cast<int>(ckpt_run.first_stage));
  const bool validate = check::enabled();
  Real norm_before = 0.0;
  std::size_t ops_done = 0;
  if (validate) norm_before = comm_->norm_squared();
  const std::optional<int> kill_at = writer.fault().kill_stage();
  if (kill_at && comm_->multiprocess()) {
    // Under the proc transport a fault must land in a real rank process
    // first: the delegate kills one worker (exit 137) and tears down the
    // survivors before the injector takes the root down.
    writer.fault().set_kill_delegate([this](std::size_t stage) {
      comm_->kill_rank_for_fault(stage);
    });
  }
  // The newest boundary already on disk: the resumed-from snapshot for a
  // restarted run, none for a fresh one. Preemption snapshots only when
  // the stop boundary isn't covered yet.
  std::size_t last_snapshot = ckpt_run.first_stage > 0
                                  ? ckpt_run.first_stage
                                  : static_cast<std::size_t>(-1);
  for (std::size_t si = ckpt_run.first_stage; si < num_stages; ++si) {
    if (ckpt_run.stop != nullptr &&
        ckpt_run.stop->load(std::memory_order_acquire)) {
      // Preempted (job-server eviction or SIGINT/SIGTERM): persist this
      // boundary, drain the writer, and hand the cursor back so a
      // resume() continues bit-identically from here.
      if (last_snapshot != si) {
        checkpoint(writer, si, ckpt_run.rng, schedule_crc);
      }
      writer.wait_idle();
      return si;
    }
    if (kill_at && static_cast<std::size_t>(*kill_at) == si) {
      // Drain the in-flight snapshot first: the newest generation on disk
      // at the moment of "death" is then always a committed boundary, so
      // what a restart recovers is deterministic and testable.
      writer.wait_idle();
      writer.fault().kill(si);
    }
    const Stage& stage = schedule.stages[si];
    QUASAR_OBS_SPAN("stage", "stage", "stage",
                    static_cast<std::int64_t>(si));
    transition(mapping_, stage.qubit_to_location);
    mapping_ = stage.qubit_to_location;
    execute_stage(circuit, stage);
    if (validate) {
      ops_done += stage.items.size() + 3;  // items + transition sweeps
      const std::string site =
          "DistributedSimulator::run stage " + std::to_string(si);
      validate_invariants(site.c_str(), norm_before, ops_done);
    }
    if ((si + 1) % static_cast<std::size_t>(ckpt_run.snapshot_every) == 0 ||
        (si + 1 == num_stages && ckpt_run.final_snapshot)) {
      checkpoint(writer, si + 1, ckpt_run.rng, schedule_crc);
      last_snapshot = si + 1;
    }
    progress.stage_completed(static_cast<int>(si) + 1);
  }
  return num_stages;
}

void DistributedSimulator::checkpoint(ckpt::CheckpointWriter& writer,
                                      std::size_t cursor, const Rng* rng,
                                      std::uint32_t schedule_crc) const {
  // Charged to the "checkpoint" category as a child of the enclosing
  // stage span, so run_report() shows snapshot overhead per stage.
  QUASAR_OBS_SPAN("checkpoint", "snapshot_stage", "cursor",
                  static_cast<std::int64_t>(cursor));
  writer.wait_idle();
  ckpt::Snapshot& snap = writer.staging();
  ckpt::Manifest& m = snap.manifest;
  m.engine = "fp64";
  m.num_qubits = num_qubits();
  m.num_local = num_local();
  m.cursor = cursor;
  m.schedule_crc = schedule_crc;
  m.norm_squared = comm().norm_squared();
  m.mapping = mapping_;
  m.rng_state = rng != nullptr ? rng->serialize() : std::string();
  m.pending_phase.assign(pending_phase_.begin(), pending_phase_.end());
  m.shards.clear();
  const int ranks = comm().num_ranks();
  const std::size_t bytes =
      static_cast<std::size_t>(comm().local_size()) * sizeof(Amplitude);
  snap.shard_bytes.resize(ranks);
  for (int r = 0; r < ranks; ++r) {
    snap.shard_bytes[r].resize(bytes);
    std::memcpy(snap.shard_bytes[r].data(), comm().slice(r), bytes);
  }
  writer.commit();
}

std::size_t DistributedSimulator::resume(const ckpt::LoadedSnapshot& snapshot,
                                         const Circuit& circuit,
                                         const Schedule& schedule, Rng* rng) {
  QUASAR_OBS_SPAN("checkpoint", "resume");
  constexpr const char* kSite = "DistributedSimulator::resume";
  const ckpt::Manifest& m = snapshot.manifest;
  const auto fail = [&](const std::string& what) {
    throw check::ValidationError(std::string(kSite) + ": " + what);
  };
  if (m.engine != "fp64") {
    fail("snapshot engine is '" + m.engine + "', this simulator is fp64");
  }
  if (m.num_qubits != num_qubits() || m.num_local != num_local()) {
    fail("snapshot geometry " + std::to_string(m.num_qubits) + "q/" +
         std::to_string(m.num_local) + "l does not match simulator " +
         std::to_string(num_qubits()) + "q/" + std::to_string(num_local()) +
         "l");
  }
  if (m.cursor > schedule.stages.size()) {
    fail("cursor " + std::to_string(m.cursor) + " is beyond the " +
         std::to_string(schedule.stages.size()) + "-stage schedule");
  }
  if (m.schedule_crc != 0 &&
      m.schedule_crc != sched::schedule_digest(circuit, schedule.options)) {
    fail("snapshot was taken against a different circuit or scheduling "
         "options (schedule digest mismatch)");
  }
  // The snapshot is untrusted input: every invariant is verified before
  // any member is overwritten, unconditionally (not QUASAR_VALIDATE-gated).
  check::require_bijection(m.mapping, num_qubits(), kSite);
  if (m.cursor > 0 &&
      m.mapping != schedule.stages[m.cursor - 1].qubit_to_location) {
    fail("snapshot mapping does not match the stage " +
         std::to_string(m.cursor - 1) + " boundary mapping");
  }
  const std::size_t ops = ops_through_stage(schedule, m.cursor);
  check::require_unit_phases(m.pending_phase, check::phase_tolerance(ops),
                             kSite);
  const int ranks = comm_->num_ranks();
  if (static_cast<int>(m.pending_phase.size()) != ranks) {
    fail("snapshot carries " + std::to_string(m.pending_phase.size()) +
         " deferred phases for " + std::to_string(ranks) + " ranks");
  }
  if (static_cast<int>(snapshot.shard_bytes.size()) != ranks) {
    fail("snapshot carries " + std::to_string(snapshot.shard_bytes.size()) +
         " shards for " + std::to_string(ranks) + " ranks");
  }
  const Index count = comm_->local_size();
  const std::size_t bytes = static_cast<std::size_t>(count) *
                            sizeof(Amplitude);
  for (int r = 0; r < ranks; ++r) {
    if (snapshot.shard_bytes[r].size() != bytes) {
      fail("shard " + std::to_string(r) + " holds " +
           std::to_string(snapshot.shard_bytes[r].size()) +
           " bytes, expected " + std::to_string(bytes));
    }
  }
  Real norm = 0.0;
  for (int r = 0; r < ranks; ++r) {
    const auto* amps = reinterpret_cast<const std::complex<double>*>(
        snapshot.shard_bytes[r].data());
    check::require_finite(amps, count, kSite);
    norm += check::norm_squared(amps, count);
  }
  check::require_norm_preserved(norm, m.norm_squared,
                                check::norm_tolerance(num_qubits(), ops),
                                kSite);
  // Everything verified — install the state.
  for (int r = 0; r < ranks; ++r) {
    comm_->write_slice(r, reinterpret_cast<const Amplitude*>(
                              snapshot.shard_bytes[r].data()));
  }
  mapping_ = m.mapping;
  pending_phase_ = m.pending_phase;
  if (rng != nullptr && !m.rng_state.empty()) rng->restore(m.rng_state);
  obs::count(obs::names::kCkptResumes);
  return m.cursor;
}

void DistributedSimulator::validate_invariants(const char* site,
                                               Real norm_before,
                                               std::size_t ops) const {
  check::require_bijection(mapping_, num_qubits(), site);
  check::require_unit_phases(pending_phase_, check::phase_tolerance(ops),
                             site);
  for (int r = 0; r < comm().num_ranks(); ++r) {
    check::require_finite(comm().slice(r), comm().local_size(), site);
  }
  // A lossy shard codec truncates amplitudes to fp32 on every segment
  // round trip, so norm drift is bounded by the fp32 epsilon, not fp64.
  const Real eps = oocore::codec_lossless(comm().storage().codec)
                       ? check::kEps64
                       : check::kEps32;
  check::require_norm_preserved(comm().norm_squared(), norm_before,
                                check::norm_tolerance(num_qubits(), ops, eps),
                                site);
}

void DistributedSimulator::run(const Circuit& circuit,
                               const ScheduleOptions& options) {
  run(circuit, make_schedule(circuit, options));
}

void DistributedSimulator::execute_stage(const Circuit& circuit,
                                         const Stage& stage) {
  const VirtualCluster* local = comm_->local_cluster();
  if (local != nullptr && local->segmented()) {
    // Segmented storage: stream gate work through the async pipeline
    // instead of materializing flat slices (runtime/oocore_exec.cpp).
    execute_stage_oocore(circuit, stage);
    return;
  }
  for (const StageItem& item : stage.items) {
    if (item.kind == StageItem::Kind::kCluster) {
      const Cluster& cluster = stage.clusters[item.cluster];
      QUASAR_ASSERT(cluster.matrix.has_value());
      QUASAR_OBS_SPAN("gate_run", "cluster", "width",
                      static_cast<std::int64_t>(cluster.width()));
      comm_->apply_gate_all(*cluster.matrix, cluster.qubits, options_);
    } else {
      QUASAR_OBS_SPAN("gate_run", "global_op");
      apply_global_op(circuit.op(item.op), stage);
    }
  }
}

void DistributedSimulator::apply_global_op(const GateOp& op,
                                           const Stage& stage) {
  const int l = num_local();
  // Which gate-local qubits sit on global locations, and where the local
  // ones live.
  std::vector<bool> fixed(op.arity(), false);
  std::vector<int> global_bits;   // rank-bit positions, ascending gate order
  std::vector<int> local_locations;
  for (int j = 0; j < op.arity(); ++j) {
    const int loc = stage.location(op.qubits[j]);
    if (loc >= l) {
      fixed[j] = true;
      global_bits.push_back(loc - l);
    } else {
      local_locations.push_back(loc);
    }
  }
  QUASAR_ASSERT(!global_bits.empty());

  // A non-diagonal phased permutation entirely on global qubits (X, Y,
  // CNOT, SWAP): pure rank renumbering plus per-rank phases — zero data
  // volume (Sec. 3.5).
  if (!op.diagonal && local_locations.empty()) {
    const auto perm = op.matrix->phased_permutation();
    QUASAR_CHECK(perm.has_value(),
                 "apply_global_op: a dense all-global gate reached the "
                 "executor; the scheduler should have forced a swap");
    const int ranks = comm_->num_ranks();
    std::vector<Index> source_of(ranks);
    std::vector<Amplitude> next_phase(ranks);
    for (int r = 0; r < ranks; ++r) {
      Index col = 0;
      for (std::size_t j = 0; j < global_bits.size(); ++j) {
        col |= static_cast<Index>(
                   get_bit(static_cast<Index>(r), global_bits[j]))
               << j;
      }
      const Index row = perm->target[col];
      Index dest = static_cast<Index>(r);
      for (std::size_t j = 0; j < global_bits.size(); ++j) {
        dest = set_bit(dest, global_bits[j],
                       get_bit(row, static_cast<int>(j)));
      }
      source_of[dest] = static_cast<Index>(r);
      next_phase[dest] = pending_phase_[r] * perm->phase[col];
    }
    comm_->permute_ranks(source_of);
    pending_phase_ = std::move(next_phase);
    return;
  }

  // The conditioned sub-gate depends only on the rank's bits at
  // global_bits; cache per bit pattern.
  std::map<Index, ConditionalGate> cache;
  for (int r = 0; r < comm_->num_ranks(); ++r) {
    Index pattern = 0;
    for (std::size_t i = 0; i < global_bits.size(); ++i) {
      pattern |= static_cast<Index>(
                     get_bit(static_cast<Index>(r), global_bits[i]))
                 << i;
    }
    auto it = cache.find(pattern);
    if (it == cache.end()) {
      it = cache.emplace(pattern,
                         condition_gate(*op.matrix, fixed, pattern)).first;
    }
    const ConditionalGate& cond = it->second;
    if (cond.is_identity) continue;
    if (cond.matrix.num_qubits() == 0) {
      // Pure phase: deferred and absorbed at gather/analysis time
      // (Sec. 3.5: "a global phase, which can be absorbed").
      pending_phase_[r] *= cond.phase;
      continue;
    }
    comm_->apply_gate_rank(r, cond.matrix, local_locations, options_);
  }
}

void DistributedSimulator::remap(const std::vector<int>& to) {
  QUASAR_CHECK(static_cast<int>(to.size()) == num_qubits(),
               "remap: mapping must cover every qubit");
  std::vector<bool> used(to.size(), false);
  for (int loc : to) {
    QUASAR_CHECK(loc >= 0 && loc < num_qubits() && !used[loc],
                 "remap: mapping must be a bijection on bit-locations");
    used[loc] = true;
  }
  const bool validate = check::enabled();
  Real norm_before = 0.0;
  if (validate) norm_before = comm_->norm_squared();
  transition(mapping_, to);
  mapping_ = to;
  if (validate) {
    validate_invariants("DistributedSimulator::remap", norm_before, 3);
  }
}

void DistributedSimulator::transition(const std::vector<int>& from,
                                      const std::vector<int>& to) {
  if (from == to) return;
  const int n = num_qubits();
  const int l = num_local();
  std::vector<int> cur = from;
  std::vector<Qubit> at(n);  // location -> qubit
  for (Qubit q = 0; q < n; ++q) at[cur[q]] = q;

  // Qubits crossing the local/global boundary, paired index-for-index.
  std::vector<Qubit> incoming, outgoing;  // to-local / to-global
  for (Qubit q = 0; q < n; ++q) {
    const bool was_global = cur[q] >= l;
    const bool is_global = to[q] >= l;
    if (was_global && !is_global) incoming.push_back(q);
    if (!was_global && is_global) outgoing.push_back(q);
  }
  QUASAR_ASSERT(incoming.size() == outgoing.size());
  const int q_move = static_cast<int>(incoming.size());

  // 1. One fused local bit-permutation sweep. Every stay-local qubit
  // moves straight to its final location; outgoing qubit i parks at the
  // location its paired incoming qubit must end up in, so the exchange
  // below lands incoming qubits at their final spots directly. Both
  // target sets together cover [0, l) exactly (to restricted to
  // stay-local + incoming qubits is onto the local locations), so this
  // is a bijection. When an all-to-all follows, the deferred per-rank
  // phases are folded into the same sweep — amplitudes scale before any
  // of them changes rank, which is exactly what a separate flush did.
  std::vector<int> park_location(n, -1);  // outgoing qubit -> park slot
  for (int i = 0; i < q_move; ++i) {
    park_location[outgoing[i]] = to[incoming[i]];
  }
  std::vector<int> local_perm(l);
  for (Qubit q = 0; q < n; ++q) {
    if (cur[q] >= l) continue;
    const int target = to[q] < l ? to[q] : park_location[q];
    local_perm[target] = cur[q];
  }
  if (q_move > 0) {
    comm_->local_permute(local_perm, &pending_phase_, options_);
    std::fill(pending_phase_.begin(), pending_phase_.end(),
              Amplitude{1.0, 0.0});
  } else {
    comm_->local_permute(local_perm, nullptr, options_);
  }
  {
    std::vector<Qubit> prev_at(at.begin(), at.begin() + l);
    for (int j = 0; j < l; ++j) {
      at[j] = prev_at[local_perm[j]];
      cur[at[j]] = j;
    }
  }

  // 2. One (group) all-to-all pairing each incoming qubit's global
  // location with the local location it lands on (where its partner
  // outgoing qubit was just parked) — no parking swap chain.
  if (q_move > 0) {
    std::vector<std::pair<int, int>> pairs;  // (global loc, local loc)
    for (int i = 0; i < q_move; ++i) {
      pairs.emplace_back(cur[incoming[i]], to[incoming[i]]);
    }
    std::sort(pairs.begin(), pairs.end());
    std::vector<int> global_locations, local_positions;
    for (const auto& [gloc, lloc] : pairs) {
      global_locations.push_back(gloc);
      local_positions.push_back(lloc);
    }
    comm_->alltoall_swap(global_locations, local_positions);
    for (const auto& [gloc, lloc] : pairs) {
      const Qubit qg = at[gloc], ql = at[lloc];
      std::swap(at[gloc], at[lloc]);
      cur[qg] = lloc;
      cur[ql] = gloc;
    }
  }

  // 3. Global-global permutation = rank renumbering (zero volume).
  bool global_moves = false;
  for (Qubit q = 0; q < n; ++q) global_moves |= cur[q] != to[q];
  if (global_moves) {
    const int g = n - l;
    std::vector<int> perm(g);
    for (int j = 0; j < g; ++j) {
      const Qubit q = at[l + j];  // currently at global bit j
      perm[to[q] - l] = j;        // new rank bit (to[q]-l) = old bit j
    }
    bool identity = true;
    for (int j = 0; j < g; ++j) identity &= perm[j] == j;
    if (!identity) {
      comm_->renumber_ranks(perm);
      // The deferred per-rank phases move with their slices.
      std::vector<Amplitude> next_phase(pending_phase_.size());
      for (int r = 0; r < comm_->num_ranks(); ++r) {
        Index src = 0;
        for (int j = 0; j < g; ++j) {
          src |= static_cast<Index>(get_bit(static_cast<Index>(r), j))
                 << perm[j];
        }
        next_phase[r] = pending_phase_[src];
      }
      pending_phase_.swap(next_phase);
    }
  }
}

StateVector DistributedSimulator::gather() const {
  const int n = num_qubits();
  QUASAR_CHECK(n <= 28, "gather: state too large to reassemble");
  const int l = num_local();
  StateVector out(n);
  const Index local_mask = index_pow2(l) - 1;
  // Pin every slice once up front: under the proc transport slice()
  // fetches over the wire on first touch, and the returned pointers stay
  // valid until the next mutating collective.
  const int ranks = comm().num_ranks();
  std::vector<const Amplitude*> slices(ranks);
  for (int r = 0; r < ranks; ++r) slices[r] = comm().slice(r);
  for (Index p = 0; p < out.size(); ++p) {
    Index machine = 0;
    for (int q = 0; q < n; ++q) {
      machine |= static_cast<Index>(get_bit(p, q)) << mapping_[q];
    }
    const int rank = static_cast<int>(machine >> l);
    out[p] = slices[rank][machine & local_mask] * pending_phase_[rank];
  }
  return out;
}

Amplitude DistributedSimulator::amplitude(Index program_index) const {
  QUASAR_CHECK(program_index < index_pow2(num_qubits()),
               "amplitude: basis index out of range");
  const int l = num_local();
  Index machine = 0;
  for (int q = 0; q < num_qubits(); ++q) {
    machine |= static_cast<Index>(get_bit(program_index, q)) << mapping_[q];
  }
  const int rank = static_cast<int>(machine >> l);
  return comm().slice(rank)[machine & (comm().local_size() - 1)] *
         pending_phase_[rank];
}

std::vector<Index> DistributedSimulator::sample(int count, Rng& rng) const {
  QUASAR_CHECK(count >= 0, "sample count must be non-negative");
  QUASAR_OBS_SPAN("measure", "sample", "count",
                  static_cast<std::int64_t>(count));
  const int n = num_qubits();
  const int l = num_local();
  const Index local_mask = index_pow2(l) - 1;

  // Sorted uniforms resolved against one sequential cumulative scan in
  // PROGRAM order, accumulating std::norm(raw * pending_phase) — the
  // exact expression and summation order sample_outcomes() sees on the
  // gathered state. This makes distributed sampling bit-for-bit
  // reproducible against the single-node path under the same seed. The
  // previous implementation walked ranks in machine order with per-rank
  // partial masses; whenever the qubit mapping was not the identity its
  // traversal order (and its rounding) diverged from the gathered scan,
  // so identical seeds produced different outcome streams — exactly the
  // class of cross-engine bug the differential fuzzer flags.
  std::vector<Real> thresholds(count);
  for (auto& u : thresholds) u = rng.uniform_real();
  std::sort(thresholds.begin(), thresholds.end());

  const int ranks = comm().num_ranks();
  std::vector<const Amplitude*> slices(ranks);
  for (int r = 0; r < ranks; ++r) slices[r] = comm().slice(r);

  std::vector<Index> outcomes;
  outcomes.reserve(count);
  Real cumulative = 0.0;
  std::size_t next = 0;
  const Index size = index_pow2(n);
  for (Index p = 0; p < size && next < thresholds.size(); ++p) {
    Index machine = 0;
    for (int q = 0; q < n; ++q) {
      machine |= static_cast<Index>(get_bit(p, q)) << mapping_[q];
    }
    const int rank = static_cast<int>(machine >> l);
    cumulative += std::norm(slices[rank][machine & local_mask] *
                            pending_phase_[rank]);
    while (next < thresholds.size() && thresholds[next] < cumulative) {
      outcomes.push_back(p);
      ++next;
    }
  }
  // Rounding at the top end: leftovers land on the last program-order
  // basis state, mirroring sample_outcomes().
  while (next++ < thresholds.size()) outcomes.push_back(size - 1);
  return outcomes;
}

Real DistributedSimulator::entropy() const {
  QUASAR_OBS_SPAN("measure", "entropy");
  Real total = 0.0;
  const Index size = comm().local_size();
  for (int r = 0; r < comm().num_ranks(); ++r) {
    const Amplitude* data = comm().slice(r);
    // The "final reduction" of Sec. 4.2.2: fixed-chunk ordered sum per
    // slice, slices in rank order (bit-identical at any team size).
    total += ordered_sum(static_cast<std::int64_t>(size),
                         [data](std::int64_t i) {
                           const Real p = std::norm(data[i]);
                           return p > 0.0 ? -(p * std::log(p)) : 0.0;
                         });
  }
  return total;
}

}  // namespace quasar
