#include "fp32/distributed_f32.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <numeric>
#include <optional>
#include <utility>

#include "check/invariant.hpp"
#include "ckpt/crc32c.hpp"
#include "core/bits.hpp"
#include "core/error.hpp"
#include "core/reduce.hpp"
#include "obs/histogram.hpp"
#include "obs/names.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "runtime/conditional.hpp"
#include "sched/digest.hpp"
#include "sched/schedule_io.hpp"

namespace quasar {
namespace {

/// Gate-sweep count after executing stages [0, cursor) — run()'s own
/// per-stage accounting, reused for resume-time tolerances.
std::size_t ops_through_stage(const Schedule& schedule, std::size_t cursor) {
  std::size_t ops = 3;
  for (std::size_t si = 0; si < cursor && si < schedule.stages.size(); ++si) {
    ops += schedule.stages[si].items.size() + 3;
  }
  return ops;
}

}  // namespace

DistributedSimulatorF::DistributedSimulatorF(int num_qubits, int num_local,
                                             int num_threads,
                                             std::size_t bounce_buffer_bytes,
                                             TransportKind transport)
    : num_qubits_(num_qubits), num_local_(num_local) {
  QUASAR_CHECK(num_local >= 1 && num_local <= num_qubits,
               "DistributedSimulatorF: num_local must be in [1, n]");
  QUASAR_CHECK(num_qubits - num_local <= 12,
               "DistributedSimulatorF: at most 2^12 simulated ranks");
  QUASAR_CHECK(num_qubits - num_local <= num_local,
               "DistributedSimulatorF: needs g <= l");
  comm_ = make_communicator_f32(num_qubits, num_local, num_threads,
                                bounce_buffer_bytes, transport);
  pending_phase_.assign(num_ranks(), Amplitude{1.0, 0.0});
  mapping_.resize(num_qubits);
  std::iota(mapping_.begin(), mapping_.end(), 0);
}

void DistributedSimulatorF::init_basis(Index index) {
  QUASAR_CHECK(index < index_pow2(num_qubits_), "basis index out of range");
  comm_->init_basis(index);
  std::fill(pending_phase_.begin(), pending_phase_.end(),
            Amplitude{1.0, 0.0});
  std::iota(mapping_.begin(), mapping_.end(), 0);
}

void DistributedSimulatorF::init_uniform() {
  comm_->init_uniform();
  std::fill(pending_phase_.begin(), pending_phase_.end(),
            Amplitude{1.0, 0.0});
  std::iota(mapping_.begin(), mapping_.end(), 0);
}

void DistributedSimulatorF::run(const Circuit& circuit,
                                const Schedule& schedule) {
  QUASAR_CHECK(schedule.num_qubits == num_qubits_ &&
                   schedule.num_local == num_local_,
               "run: schedule was built for a different configuration");
  QUASAR_CHECK(schedule.options.build_matrices,
               "run: schedule lacks fused matrices");
  QUASAR_OBS_SPAN("run", "distributed_run_f32", "stages",
                  static_cast<std::int64_t>(schedule.stages.size()));
  obs::ProgressRun progress(static_cast<int>(schedule.stages.size()));
  const bool validate = check::enabled();
  Real norm_before = 0.0;
  std::size_t ops_done = 0;
  if (validate) norm_before = norm_squared();
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
          "DistributedSimulatorF::run stage " + std::to_string(si);
      validate_invariants(site.c_str(), norm_before, ops_done);
    }
    progress.stage_completed(static_cast<int>(si) + 1);
  }
}

void DistributedSimulatorF::execute_stage(const Circuit& circuit,
                                          const Stage& stage) {
  for (const StageItem& item : stage.items) {
    if (item.kind == StageItem::Kind::kCluster) {
      const Cluster& cluster = stage.clusters[item.cluster];
      QUASAR_OBS_SPAN("gate_run", "cluster", "width",
                      static_cast<std::int64_t>(cluster.width()));
      comm_->apply_gate_all(*cluster.matrix, cluster.qubits);
    } else {
      QUASAR_OBS_SPAN("gate_run", "global_op");
      apply_global_op(circuit.op(item.op), stage);
    }
  }
}

std::size_t DistributedSimulatorF::run(const Circuit& circuit,
                                       const Schedule& schedule,
                                       const CheckpointedRun& ckpt_run) {
  QUASAR_CHECK(ckpt_run.writer != nullptr,
               "run: CheckpointedRun requires a writer");
  QUASAR_CHECK(ckpt_run.snapshot_every >= 1,
               "run: snapshot_every must be >= 1");
  QUASAR_CHECK(schedule.num_qubits == num_qubits_ &&
                   schedule.num_local == num_local_,
               "run: schedule was built for a different configuration");
  QUASAR_CHECK(schedule.options.build_matrices,
               "run: schedule lacks fused matrices");
  QUASAR_CHECK(ckpt_run.first_stage <= schedule.stages.size(),
               "run: first_stage is beyond the end of the schedule");
  ckpt::CheckpointWriter& writer = *ckpt_run.writer;
  const std::uint32_t schedule_crc =
      sched::schedule_digest(circuit, schedule.options);
  const std::size_t num_stages = schedule.stages.size();
  QUASAR_OBS_SPAN("run", "distributed_run_f32", "stages",
                  static_cast<std::int64_t>(num_stages));
  obs::ProgressRun progress(static_cast<int>(num_stages),
                            static_cast<int>(ckpt_run.first_stage));
  const bool validate = check::enabled();
  Real norm_before = 0.0;
  std::size_t ops_done = 0;
  if (validate) norm_before = norm_squared();
  const std::optional<int> kill_at = writer.fault().kill_stage();
  if (kill_at && comm_->multiprocess()) {
    // Injected kills must land in a real rank process under the proc
    // transport (see DistributedSimulator::run).
    writer.fault().set_kill_delegate([this](std::size_t stage) {
      comm_->kill_rank_for_fault(stage);
    });
  }
  // Newest boundary already on disk (see DistributedSimulator::run).
  std::size_t last_snapshot = ckpt_run.first_stage > 0
                                  ? ckpt_run.first_stage
                                  : static_cast<std::size_t>(-1);
  for (std::size_t si = ckpt_run.first_stage; si < num_stages; ++si) {
    if (ckpt_run.stop != nullptr &&
        ckpt_run.stop->load(std::memory_order_acquire)) {
      if (last_snapshot != si) {
        checkpoint(writer, si, ckpt_run.rng, schedule_crc);
      }
      writer.wait_idle();
      return si;
    }
    if (kill_at && static_cast<std::size_t>(*kill_at) == si) {
      // Drain first so the newest on-disk generation at "death" is a
      // committed boundary (see DistributedSimulator::run).
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
          "DistributedSimulatorF::run stage " + std::to_string(si);
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

void DistributedSimulatorF::checkpoint(ckpt::CheckpointWriter& writer,
                                       std::size_t cursor, const Rng* rng,
                                       std::uint32_t schedule_crc) const {
  QUASAR_OBS_SPAN("checkpoint", "snapshot_stage", "cursor",
                  static_cast<std::int64_t>(cursor));
  writer.wait_idle();
  ckpt::Snapshot& snap = writer.staging();
  ckpt::Manifest& m = snap.manifest;
  m.engine = "fp32";
  m.num_qubits = num_qubits_;
  m.num_local = num_local_;
  m.cursor = cursor;
  m.schedule_crc = schedule_crc;
  m.norm_squared = norm_squared();
  m.mapping = mapping_;
  m.rng_state = rng != nullptr ? rng->serialize() : std::string();
  m.pending_phase.assign(pending_phase_.begin(), pending_phase_.end());
  m.shards.clear();
  const int ranks = num_ranks();
  const std::size_t bytes =
      static_cast<std::size_t>(local_size()) * sizeof(AmplitudeF);
  snap.shard_bytes.resize(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    snap.shard_bytes[r].resize(bytes);
    std::memcpy(snap.shard_bytes[r].data(), comm().slice(r), bytes);
  }
  writer.commit();
}

std::size_t DistributedSimulatorF::resume(
    const ckpt::LoadedSnapshot& snapshot, const Circuit& circuit,
    const Schedule& schedule, Rng* rng) {
  QUASAR_OBS_SPAN("checkpoint", "resume");
  constexpr const char* kSite = "DistributedSimulatorF::resume";
  const ckpt::Manifest& m = snapshot.manifest;
  const auto fail = [&](const std::string& what) {
    throw check::ValidationError(std::string(kSite) + ": " + what);
  };
  if (m.engine != "fp32") {
    fail("snapshot engine is '" + m.engine + "', this simulator is fp32");
  }
  if (m.num_qubits != num_qubits_ || m.num_local != num_local_) {
    fail("snapshot geometry " + std::to_string(m.num_qubits) + "q/" +
         std::to_string(m.num_local) + "l does not match simulator " +
         std::to_string(num_qubits_) + "q/" + std::to_string(num_local_) +
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
  check::require_bijection(m.mapping, num_qubits_, kSite);
  if (m.cursor > 0 &&
      m.mapping != schedule.stages[m.cursor - 1].qubit_to_location) {
    fail("snapshot mapping does not match the stage " +
         std::to_string(m.cursor - 1) + " boundary mapping");
  }
  const std::size_t ops = ops_through_stage(schedule, m.cursor);
  check::require_unit_phases(m.pending_phase, check::phase_tolerance(ops),
                             kSite);
  const int ranks = num_ranks();
  if (static_cast<int>(m.pending_phase.size()) != ranks) {
    fail("snapshot carries " + std::to_string(m.pending_phase.size()) +
         " deferred phases for " + std::to_string(ranks) + " ranks");
  }
  if (static_cast<int>(snapshot.shard_bytes.size()) != ranks) {
    fail("snapshot carries " + std::to_string(snapshot.shard_bytes.size()) +
         " shards for " + std::to_string(ranks) + " ranks");
  }
  const Index count = local_size();
  const std::size_t bytes =
      static_cast<std::size_t>(count) * sizeof(AmplitudeF);
  for (int r = 0; r < ranks; ++r) {
    if (snapshot.shard_bytes[r].size() != bytes) {
      fail("shard " + std::to_string(r) + " holds " +
           std::to_string(snapshot.shard_bytes[r].size()) +
           " bytes, expected " + std::to_string(bytes));
    }
  }
  Real norm = 0.0;
  for (int r = 0; r < ranks; ++r) {
    const auto* amps = reinterpret_cast<const std::complex<float>*>(
        snapshot.shard_bytes[r].data());
    check::require_finite(amps, count, kSite);
    norm += check::norm_squared(amps, count);
  }
  check::require_norm_preserved(
      norm, m.norm_squared,
      check::norm_tolerance(num_qubits_, ops, check::kEps32), kSite);
  for (int r = 0; r < ranks; ++r) {
    comm_->write_slice(r, reinterpret_cast<const AmplitudeF*>(
                              snapshot.shard_bytes[r].data()));
  }
  mapping_ = m.mapping;
  pending_phase_ = m.pending_phase;
  if (rng != nullptr && !m.rng_state.empty()) rng->restore(m.rng_state);
  obs::count(obs::names::kCkptResumes);
  return m.cursor;
}

void DistributedSimulatorF::validate_invariants(const char* site,
                                                Real norm_before,
                                                std::size_t ops) const {
  check::require_bijection(mapping_, num_qubits_, site);
  check::require_unit_phases(pending_phase_, check::phase_tolerance(ops),
                             site);
  for (int r = 0; r < num_ranks(); ++r) {
    check::require_finite(comm().slice(r), local_size(), site);
  }
  check::require_norm_preserved(
      norm_squared(), norm_before,
      check::norm_tolerance(num_qubits_, ops, check::kEps32), site);
}

void DistributedSimulatorF::apply_global_op(const GateOp& op,
                                            const Stage& stage) {
  const int l = num_local_;
  std::vector<bool> fixed(op.arity(), false);
  std::vector<int> global_bits, local_locations;
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

  if (!op.diagonal && local_locations.empty()) {
    // Rank renumbering for a global phased permutation (Sec. 3.5).
    const auto perm = op.matrix->phased_permutation();
    QUASAR_CHECK(perm.has_value(),
                 "apply_global_op: dense all-global gate in the executor");
    const int ranks = num_ranks();
    std::vector<Index> source_of(static_cast<std::size_t>(ranks));
    std::vector<Amplitude> next_phase(static_cast<std::size_t>(ranks));
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

  std::map<Index, ConditionalGate> cache;
  for (int r = 0; r < num_ranks(); ++r) {
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
      pending_phase_[r] *= cond.phase;
      continue;
    }
    comm_->apply_gate_rank(r, cond.matrix, local_locations);
  }
}

void DistributedSimulatorF::transition(const std::vector<int>& from,
                                       const std::vector<int>& to) {
  if (from == to) return;
  const int n = num_qubits_;
  const int l = num_local_;
  std::vector<int> cur = from;
  std::vector<Qubit> at(n);
  for (Qubit q = 0; q < n; ++q) at[cur[q]] = q;

  std::vector<Qubit> incoming, outgoing;  // paired index-for-index
  for (Qubit q = 0; q < n; ++q) {
    const bool was_global = cur[q] >= l;
    const bool is_global = to[q] >= l;
    if (was_global && !is_global) incoming.push_back(q);
    if (!was_global && is_global) outgoing.push_back(q);
  }
  const int q_move = static_cast<int>(incoming.size());

  // 1. One fused local sweep: stay-local qubits to their final spots,
  // outgoing qubit i parked where its paired incoming qubit lands;
  // deferred phases fold into the same pass when an all-to-all follows
  // (see the runtime transition for the full derivation).
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
  comm_->local_permute(local_perm, q_move > 0 ? &pending_phase_ : nullptr);
  if (q_move > 0) {
    std::fill(pending_phase_.begin(), pending_phase_.end(),
              Amplitude{1.0, 0.0});
  }
  {
    std::vector<Qubit> prev_at(at.begin(), at.begin() + l);
    for (int j = 0; j < l; ++j) {
      at[j] = prev_at[local_perm[j]];
      cur[at[j]] = j;
    }
  }

  // 2. One in-place all-to-all straight from/to the final locations.
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
      const Qubit q = at[l + j];
      perm[to[q] - l] = j;
    }
    bool identity = true;
    for (int j = 0; j < g; ++j) identity &= perm[j] == j;
    if (!identity) {
      const int ranks = num_ranks();
      std::vector<Index> source_of(static_cast<std::size_t>(ranks));
      std::vector<Amplitude> next_phase(static_cast<std::size_t>(ranks));
      for (int r = 0; r < ranks; ++r) {
        Index src = 0;
        for (int j = 0; j < g; ++j) {
          src |= static_cast<Index>(get_bit(static_cast<Index>(r), j))
                 << perm[j];
        }
        source_of[r] = src;
        next_phase[r] = pending_phase_[src];
      }
      comm_->permute_ranks(source_of);
      pending_phase_ = std::move(next_phase);
    }
  }
}

StateVectorF DistributedSimulatorF::gather() const {
  QUASAR_CHECK(num_qubits_ <= 28, "gather: state too large to reassemble");
  StateVectorF out(num_qubits_);
  const Index local_mask = local_size() - 1;
  const int ranks = num_ranks();
  std::vector<const AmplitudeF*> slices(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) slices[r] = comm().slice(r);
  for (Index p = 0; p < out.size(); ++p) {
    Index machine = 0;
    for (int q = 0; q < num_qubits_; ++q) {
      machine |= static_cast<Index>(get_bit(p, q)) << mapping_[q];
    }
    const int rank = static_cast<int>(machine >> num_local_);
    const AmplitudeF raw = slices[rank][machine & local_mask];
    const Amplitude phased =
        Amplitude{raw.real(), raw.imag()} * pending_phase_[rank];
    out[p] = AmplitudeF{static_cast<float>(phased.real()),
                        static_cast<float>(phased.imag())};
  }
  return out;
}

Real DistributedSimulatorF::entropy() const {
  QUASAR_OBS_SPAN("measure", "entropy");
  Real total = 0.0;
  const std::int64_t count = static_cast<std::int64_t>(local_size());
  for (int r = 0; r < num_ranks(); ++r) {
    const AmplitudeF* data = comm().slice(r);
    total += ordered_sum(count, [data](std::int64_t i) {
      const Real p = static_cast<Real>(data[i].real()) * data[i].real() +
                     static_cast<Real>(data[i].imag()) * data[i].imag();
      return p > 0.0 ? -(p * std::log(p)) : 0.0;
    });
  }
  return total;
}

}  // namespace quasar
