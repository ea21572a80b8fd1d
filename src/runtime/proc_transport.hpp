/// \file proc_transport.hpp
/// \brief Multi-process transport: forked rank processes over UNIX-domain
/// sockets (DESIGN.md §12).
///
/// The root process forks 2^g workers, one per rank slice. Each worker is
/// strictly serial (OpenMP pinned to one thread, so forking from the
/// OpenMP-using root is safe: the children never touch the inherited
/// thread pool) and owns its 2^l amplitudes in its own address space.
///
/// Wiring: one control socketpair root<->worker per slot, plus a full
/// mesh of data socketpairs between worker slots. The root drives every
/// collective in lockstep over the control plane ({op, len, payload}
/// frames, ack per worker); bulk amplitude motion for the all-to-all and
/// the pairwise baseline exchange runs directly worker-to-worker over the
/// data plane in bounce-bounded chunks, so the 1+epsilon footprint
/// guarantee of the in-place exchange survives the process split.
///
/// Rank renumbering (Sec. 3.5) is zero-volume here too: the root
/// broadcasts a relabel table and every worker adopts a new logical rank
/// number — no amplitude crosses a socket.
///
/// Determinism: workers run the identical kernels (permutation sweeps,
/// gate application) as the virtual transport; their arithmetic is
/// independent of thread count, so worker slices are bit-identical to
/// the corresponding VirtualCluster slices on the same machine. Root-side
/// reductions (norm, entropy, sampling, checkpoint digests) run over
/// fetched slices with the same code as the virtual transport; the
/// floating-point sums go through core/reduce.hpp's ordered_sum, whose
/// fixed-size chunks are combined in index order whatever the root's
/// OpenMP team size. That is what lets CI diff fingerprint/norm/entropy
/// lines exactly across QUASAR_TRANSPORT values and thread counts.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <sys/types.h>

#include "core/aligned.hpp"
#include "core/bits.hpp"
#include "core/error.hpp"
#include "core/types.hpp"
#include "gates/matrix.hpp"
#include "kernels/apply.hpp"
#include "kernels/permute.hpp"
#include "kernels/prepared_gate.hpp"
#include "obs/histogram.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"
#include "runtime/comm.hpp"
#include "runtime/communicator.hpp"
#include "runtime/rank_storage.hpp"

namespace quasar::proc {

/// Control/data plane opcodes.
enum class Op : std::uint32_t {
  kAck = 0,
  kInitBasis,
  kInitUniform,
  kAlltoall,
  kLocalPermute,
  kRelabel,
  kApplyGate,
  kPairwiseGate,
  kReadSlice,
  kWriteSlice,
  kStats,
  kDie,
  kShutdown,
};

/// Fixed 16-byte frame header preceding every payload. Same-host forked
/// processes share endianness, so fields travel in native byte order.
struct Frame {
  std::uint32_t op = 0;
  std::uint32_t pad = 0;
  std::uint64_t len = 0;
};

/// Blocking socket I/O looping over partial transfers and EINTR; send
/// uses MSG_NOSIGNAL so a dead peer surfaces as quasar::Error, not
/// SIGPIPE. recv_all treats EOF as an error ("rank process died").
void send_all(int fd, const void* data, std::size_t len);
void recv_all(int fd, void* data, std::size_t len);
void send_frame(int fd, Op op, const void* payload, std::size_t len);
Frame recv_frame(int fd);

/// Hard cap on forked rank processes (full data mesh = W*(W-1)/2
/// socketpairs; 16 ranks = 120 pairs).
constexpr int kMaxProcRanks = 16;

/// Serialization cursors over little POD payloads.
class PayloadWriter {
 public:
  template <typename T>
  void pod(const T& value) {
    raw(&value, sizeof(T));
  }
  void raw(const void* data, std::size_t len) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + len);
  }
  const std::uint8_t* data() const { return bytes_.data(); }
  std::size_t size() const { return bytes_.size(); }

 private:
  std::vector<std::uint8_t> bytes_;
};

class PayloadReader {
 public:
  PayloadReader(const std::uint8_t* data, std::size_t len)
      : p_(data), end_(data + len) {}
  template <typename T>
  T pod() {
    T value;
    raw(&value, sizeof(T));
    return value;
  }
  void raw(void* out, std::size_t len) {
    QUASAR_CHECK(static_cast<std::size_t>(end_ - p_) >= len,
                 "proc transport: truncated payload");
    std::memcpy(out, p_, len);
    p_ += len;
  }

 private:
  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

/// Fork/socket plumbing shared by the fp64 and fp32 proc backends.
/// Creates all socketpairs, forks `num_workers` children (each running
/// `worker_main`, which must never return), and gives the root per-slot
/// control descriptors plus pid bookkeeping, orderly shutdown, and the
/// fault-injection kill. Type-agnostic: amplitude format is the typed
/// layer's business.
class ProcessGroup {
 public:
  /// What a worker child inherits: its fixed process slot, the control
  /// socket to the root, and one data socket per peer slot (-1 for
  /// itself and out-of-range slots).
  struct WorkerEndpoints {
    int slot = 0;
    int control_fd = -1;
    std::array<int, kMaxProcRanks> data_fd{};
  };
  using WorkerMain = std::function<void(const WorkerEndpoints&)>;

  /// Forks the workers. In each child: PDEATHSIG=SIGKILL, OpenMP pinned
  /// to 1 thread, obs instrumentation disabled, scratch files tagged
  /// "r<slot>.", then worker_main(ep) — which must exit the process.
  ProcessGroup(int num_workers, const WorkerMain& worker_main);
  ~ProcessGroup();

  ProcessGroup(const ProcessGroup&) = delete;
  ProcessGroup& operator=(const ProcessGroup&) = delete;

  int num_workers() const { return num_workers_; }
  bool alive(int slot) const { return pid_[slot] > 0; }
  pid_t pid(int slot) const { return pid_[slot]; }
  int control_fd(int slot) const { return control_[slot]; }

  /// Sends one frame to every live worker.
  void broadcast(Op op, const void* payload, std::size_t len);
  void send(int slot, Op op, const void* payload, std::size_t len);
  /// Waits for a kAck frame from `slot`, returning its payload.
  std::vector<std::uint8_t> wait_ack(int slot);
  /// Collects one ack from every live worker, in slot order.
  void wait_acks();

  /// Fault injection: orders `slot` to _Exit(137) and reaps it,
  /// verifying the exit status. The caller then shuts the rest down.
  void kill_worker(int slot, std::size_t stage);

  /// Orderly teardown: best-effort kShutdown to every live worker, reap
  /// with a bounded wait, SIGKILL stragglers. Idempotent, never throws.
  void shutdown() noexcept;

 private:
  void reap(int slot, bool allow_kill) noexcept;

  int num_workers_ = 0;
  std::array<pid_t, kMaxProcRanks> pid_{};
  std::array<int, kMaxProcRanks> control_{};
};

/// Engine traits for the fp64 proc backend. The fp32 twin lives with the
/// fp32 engine (src/fp32/cluster_f32.cpp).
struct ProcTraits64 {
  using Amp = Amplitude;
  /// Worker-side slice storage: RankStorage, so QUASAR_STORAGE=disk rank
  /// slices work per process (with per-rank-tagged backing files).
  using Slice = RankStorage;
  static Slice make_slice(Index count, const StorageOptions& storage) {
    return Slice(count, storage);
  }
  static Amp* data(Slice& slice) { return slice.data(); }
  static void apply(Amp* state, int num_local, const GateMatrix& matrix,
                    const std::vector<int>& locations,
                    const ApplyOptions& options) {
    apply_gate(state, num_local, prepare_gate(matrix, locations), options);
  }
};

/// The worker side: one instance per forked child, executing control
/// frames until kShutdown/kDie. Mirrors VirtualCluster's arithmetic and
/// CommStats formulas exactly (the stats are rank-invariant model
/// numbers, so every worker computes identical volume fields and the
/// root reduction is a consistency check).
template <typename Traits>
class ProcWorker {
 public:
  using Amp = typename Traits::Amp;
  using Scalar = typename Amp::value_type;

  ProcWorker(int num_qubits, int num_local, const StorageOptions& storage,
             ApplyOptions apply, const ProcessGroup::WorkerEndpoints& ep)
      : n_(num_qubits), l_(num_local),
        num_ranks_(checked_int(index_pow2(n_ - l_), "proc rank count")),
        local_size_(index_pow2(l_)),
        bounce_bytes_(storage.bounce_buffer_bytes), apply_(apply), ep_(ep),
        logical_(ep.slot), slice_(Traits::make_slice(local_size_, storage)) {
    apply_.num_threads = 1;
    for (int i = 0; i < num_ranks_; ++i) slot_of_logical_[i] = i;
  }

  [[noreturn]] void run() {
    std::vector<std::uint8_t> payload;
    for (;;) {
      const Frame frame = recv_frame(ep_.control_fd);
      payload.resize(frame.len);
      if (frame.len > 0) recv_all(ep_.control_fd, payload.data(), frame.len);
      PayloadReader in(payload.data(), payload.size());
      switch (static_cast<Op>(frame.op)) {
        case Op::kInitBasis:
          do_init_basis(in);
          ack();
          break;
        case Op::kInitUniform:
          do_init_uniform(in);
          ack();
          break;
        case Op::kAlltoall:
          do_alltoall(in);
          ack();
          break;
        case Op::kLocalPermute:
          do_local_permute(in);
          ack();
          break;
        case Op::kRelabel:
          do_relabel(in);
          ack();
          break;
        case Op::kApplyGate:
          do_apply_gate(in);
          ack();
          break;
        case Op::kPairwiseGate:
          do_pairwise_gate(in);
          ack();
          break;
        case Op::kReadSlice:
          send_frame(ep_.control_fd, Op::kAck, data(),
                     static_cast<std::size_t>(local_size_) * sizeof(Amp));
          break;
        case Op::kWriteSlice:
          in.raw(data(), static_cast<std::size_t>(local_size_) * sizeof(Amp));
          ack();
          break;
        case Op::kStats:
          send_frame(ep_.control_fd, Op::kAck, &stats_, sizeof(stats_));
          break;
        case Op::kDie:
          std::_Exit(137);
        case Op::kShutdown:
          std::_Exit(0);
        default:
          std::_Exit(5);
      }
    }
  }

 private:
  Amp* data() { return Traits::data(slice_); }

  void ack() { send_frame(ep_.control_fd, Op::kAck, nullptr, 0); }

  int data_fd_to_logical(int peer_logical) const {
    return ep_.data_fd[static_cast<std::size_t>(
        slot_of_logical_[peer_logical])];
  }

  void do_init_basis(PayloadReader& in) {
    const Index index = in.pod<std::uint64_t>();
    Amp* d = data();
    std::fill(d, d + local_size_, Amp{});
    if (static_cast<int>(index >> l_) == logical_) {
      d[index & (local_size_ - 1)] = Amp(Scalar(1));
    }
  }

  void do_init_uniform(PayloadReader& in) {
    const double value = in.pod<double>();
    Amp* d = data();
    std::fill(d, d + local_size_, Amp(static_cast<Scalar>(value)));
  }

  void do_relabel(PayloadReader& in) {
    logical_ = in.pod<std::int32_t>();
    for (int r = 0; r < num_ranks_; ++r) {
      slot_of_logical_[r] = in.pod<std::int32_t>();
    }
    ++stats_.rank_renumberings;
  }

  /// Same orbit schedule as VirtualCluster::alltoall_swap, restricted to
  /// the orbits this logical rank participates in, walked in the global
  /// enumeration order. Per chunk the lower-enumeration side ("a", the
  /// rank whose bits spell `theirs`) sends first; the "b" side bounces
  /// through a chunk-sized buffer. Deadlock-free: both members of the
  /// globally earliest incomplete orbit are always positioned at it.
  void do_alltoall(PayloadReader& in) {
    const int q = in.pod<std::int32_t>();
    std::vector<int> globals(q), locals(q);
    for (int i = 0; i < q; ++i) globals[i] = in.pod<std::int32_t>();
    for (int i = 0; i < q; ++i) locals[i] = in.pod<std::int32_t>();
    const Index chunk = in.pod<std::uint64_t>();

    std::vector<int> sorted_locals = locals;
    std::sort(sorted_locals.begin(), sorted_locals.end());
    const int run_bits = sorted_locals.front();
    const Index run = index_pow2(run_bits);
    const Index num_runs = index_pow2(l_ - q - run_bits);
    const Index chunks_per_run = run / chunk;
    const IndexExpander expander(sorted_locals);
    if (bounce_.size() < chunk) bounce_.resize(chunk);
    Amp* d = data();
    const std::size_t bytes =
        static_cast<std::size_t>(chunk) * sizeof(Amp);

    for (int r = 0; r < num_ranks_; ++r) {
      Index theirs = 0;
      for (int i = 0; i < q; ++i) {
        theirs |= static_cast<Index>(
                      get_bit(static_cast<Index>(r), globals[i] - l_))
                  << i;
      }
      for (Index mine = 0; mine < theirs; ++mine) {
        Index partner = static_cast<Index>(r);
        for (int i = 0; i < q; ++i) {
          partner = set_bit(partner, globals[i] - l_, get_bit(mine, i));
        }
        const bool a_side = logical_ == r;
        const bool b_side = logical_ == static_cast<int>(partner);
        if (!a_side && !b_side) continue;
        Index off_mine = 0, off_theirs = 0;
        for (int i = 0; i < q; ++i) {
          off_mine |= static_cast<Index>(get_bit(mine, i)) << locals[i];
          off_theirs |= static_cast<Index>(get_bit(theirs, i)) << locals[i];
        }
        const int peer = a_side ? static_cast<int>(partner) : r;
        const int fd = data_fd_to_logical(peer);
        const Index my_off = a_side ? off_mine : off_theirs;
        const Index tasks = num_runs * chunks_per_run;
        for (Index t = 0; t < tasks; ++t) {
          const Index run_idx = t / chunks_per_run;
          const Index coff = (t % chunks_per_run) * chunk;
          const Index base = expander.expand(run_idx << run_bits) + coff;
          Amp* p = d + my_off + base;
          if (a_side) {
            send_all(fd, p, bytes);
            recv_all(fd, p, bytes);
          } else {
            recv_all(fd, bounce_.data(), bytes);
            send_all(fd, p, bytes);
            std::memcpy(p, bounce_.data(), bytes);
          }
        }
      }
    }

    const Index block = index_pow2(l_ - q);
    ++stats_.alltoalls;
    stats_.bytes_sent_per_rank +=
        static_cast<std::uint64_t>(local_size_ - block) * sizeof(Amp);
    const std::uint64_t bounce_b =
        static_cast<std::uint64_t>(chunk) * sizeof(Amp);
    if (bounce_b > stats_.peak_bounce_bytes) {
      stats_.peak_bounce_bytes = bounce_b;
    }
  }

  void do_local_permute(PayloadReader& in) {
    std::vector<int> perm(l_);
    for (int j = 0; j < l_; ++j) perm[j] = in.pod<std::int32_t>();
    const double re = in.pod<double>();
    const double im = in.pod<double>();
    const std::size_t scratch_bytes = in.pod<std::uint64_t>();
    const PermutePlan plan = plan_bit_permutation(l_, perm);
    const Amp phase(static_cast<Scalar>(re), static_cast<Scalar>(im));
    detail::run_bit_permutation(data(), plan, phase, 1, scratch_bytes);
    ++stats_.local_permutation_sweeps;
    stats_.local_permutation_bytes +=
        static_cast<std::uint64_t>(num_ranks_) * local_size_ * sizeof(Amp);
    if (!plan.identity) {
      const std::uint64_t brick_bytes =
          index_pow2(plan.brick_bits) * sizeof(Amp);
      const std::uint64_t bounce_b =
          std::min<std::uint64_t>(scratch_bytes, brick_bytes);
      if (bounce_b > stats_.peak_bounce_bytes) {
        stats_.peak_bounce_bytes = bounce_b;
      }
    }
  }

  void do_apply_gate(PayloadReader& in) {
    const int matrix_qubits = in.pod<std::uint32_t>();
    const Index dim = index_pow2(matrix_qubits);
    std::vector<Amplitude> entries(static_cast<std::size_t>(dim) * dim);
    in.raw(entries.data(), entries.size() * sizeof(Amplitude));
    const GateMatrix matrix(dim, std::move(entries));
    const int num_locations = in.pod<std::uint32_t>();
    std::vector<int> locations(num_locations);
    for (int i = 0; i < num_locations; ++i) {
      locations[i] = in.pod<std::int32_t>();
    }
    Traits::apply(data(), l_, matrix, locations, apply_);
  }

  /// Baseline pairwise exchange: the lower rank of the (r0, r1 = r0|bit)
  /// pair sends its original chunk first; each side then computes its
  /// row of the 2x2 gate with the same expression as VirtualCluster
  /// (a = m00*va + m01*vb on r0, b = m10*va + m11*vb on r1).
  void do_pairwise_gate(PayloadReader& in) {
    const int location = in.pod<std::int32_t>();
    std::complex<double> m[4];
    in.raw(m, sizeof(m));
    const Index chunk = in.pod<std::uint64_t>();
    const Index bit = index_pow2(location - l_);
    const Index half = local_size_ / 2;
    const Index total = 2 * half;
    const bool lo = (static_cast<Index>(logical_) & bit) == 0;
    const int peer = static_cast<int>(
        lo ? (static_cast<Index>(logical_) | bit)
           : (static_cast<Index>(logical_) & ~bit));
    const int fd = data_fd_to_logical(peer);
    const Amp m00(static_cast<Scalar>(m[0].real()),
                  static_cast<Scalar>(m[0].imag()));
    const Amp m01(static_cast<Scalar>(m[1].real()),
                  static_cast<Scalar>(m[1].imag()));
    const Amp m10(static_cast<Scalar>(m[2].real()),
                  static_cast<Scalar>(m[2].imag()));
    const Amp m11(static_cast<Scalar>(m[3].real()),
                  static_cast<Scalar>(m[3].imag()));
    if (bounce_.size() < chunk) bounce_.resize(chunk);
    Amp* d = data();
    for (Index off = 0; off < total; off += chunk) {
      const Index count = std::min(chunk, total - off);
      const std::size_t bytes =
          static_cast<std::size_t>(count) * sizeof(Amp);
      if (lo) {
        send_all(fd, d + off, bytes);
        recv_all(fd, bounce_.data(), bytes);
        for (Index i = 0; i < count; ++i) {
          const Amp va = d[off + i], vb = bounce_[i];
          d[off + i] = m00 * va + m01 * vb;
        }
      } else {
        recv_all(fd, bounce_.data(), bytes);
        send_all(fd, d + off, bytes);
        for (Index i = 0; i < count; ++i) {
          const Amp va = bounce_[i], vb = d[off + i];
          d[off + i] = m10 * va + m11 * vb;
        }
      }
    }
    stats_.pairwise_exchanges += 2;
    stats_.bytes_sent_per_rank +=
        static_cast<std::uint64_t>(2 * half) * sizeof(Amp);
  }

  int n_;
  int l_;
  int num_ranks_;
  Index local_size_;
  std::size_t bounce_bytes_;
  ApplyOptions apply_;
  ProcessGroup::WorkerEndpoints ep_;
  int logical_;
  std::array<int, kMaxProcRanks> slot_of_logical_{};
  typename Traits::Slice slice_;
  AlignedVector<Amp> bounce_;
  CommStats stats_;
};

/// The root side: geometry, the logical-rank relabel table, the slice
/// cache, and one method per collective. Shared between the fp64 and
/// fp32 proc backends via the engine traits.
template <typename Traits>
class ProcClusterT {
 public:
  using Amp = typename Traits::Amp;

  ProcClusterT(int num_qubits, int num_local, StorageOptions storage,
               const ApplyOptions& apply)
      : n_(num_qubits), l_(num_local), storage_(std::move(storage)) {
    QUASAR_CHECK(l_ >= 1 && l_ <= n_,
                 "proc transport: num_local must be in [1, num_qubits]");
    QUASAR_CHECK(n_ - l_ <= l_,
                 "proc transport: needs g <= l so a full swap is possible");
    const Index ranks = index_pow2(n_ - l_);
    QUASAR_CHECK(ranks <= static_cast<Index>(kMaxProcRanks),
                 "QUASAR_TRANSPORT=proc supports at most 16 rank processes "
                 "(g <= 4); use the virtual transport for wider geometries");
    num_ranks_ = checked_int(ranks, "proc rank count");
    local_size_ = index_pow2(l_);
    for (int r = 0; r < num_ranks_; ++r) {
      slot_of_logical_[r] = r;
      logical_of_slot_[r] = r;
    }
    cache_.resize(num_ranks_);
    fresh_.assign(num_ranks_, false);
    const int n = n_;
    const int l = l_;
    const StorageOptions worker_storage = storage_;
    group_ = std::make_unique<ProcessGroup>(
        num_ranks_,
        [n, l, worker_storage, apply](const ProcessGroup::WorkerEndpoints& ep) {
          ProcWorker<Traits> worker(n, l, worker_storage, apply, ep);
          worker.run();
        });
  }

  int num_qubits() const { return n_; }
  int num_local() const { return l_; }
  int num_ranks() const { return num_ranks_; }
  Index local_size() const { return local_size_; }
  const StorageOptions& storage() const { return storage_; }
  ProcessGroup& group() { return *group_; }

  void init_basis(Index index) {
    QUASAR_CHECK(index < index_pow2(n_), "basis index out of range");
    PayloadWriter out;
    out.pod<std::uint64_t>(index);
    collective(Op::kInitBasis, out);
  }

  void init_uniform() {
    PayloadWriter out;
    out.pod<double>(std::pow(2.0, -0.5 * n_));
    collective(Op::kInitUniform, out);
  }

  void alltoall_swap(const std::vector<int>& global_locations,
                     const std::vector<int>& local_positions) {
    obs::ScopedSpan span("exchange", "alltoall");
    const int q = static_cast<int>(global_locations.size());
    QUASAR_CHECK(q >= 1 && q <= n_ - l_,
                 "alltoall_swap: need 1..g global locations");
    QUASAR_CHECK(static_cast<int>(local_positions.size()) == q,
                 "alltoall_swap: one local position per global location");
    for (int i = 0; i < q; ++i) {
      QUASAR_CHECK(global_locations[i] >= l_ && global_locations[i] < n_,
                   "alltoall_swap: location is not global");
      QUASAR_CHECK(i == 0 || global_locations[i] > global_locations[i - 1],
                   "alltoall_swap: locations must be ascending");
      QUASAR_CHECK(local_positions[i] >= 0 && local_positions[i] < l_,
                   "alltoall_swap: position is not local");
    }
    std::vector<int> sorted_locals = local_positions;
    std::sort(sorted_locals.begin(), sorted_locals.end());
    for (int i = 1; i < q; ++i) {
      QUASAR_CHECK(sorted_locals[i] > sorted_locals[i - 1],
                   "alltoall_swap: local positions must be distinct");
    }
    // One serial bounce chunk per worker, bounded by the whole budget
    // (the worker is the only thread in its process).
    const Index run = index_pow2(sorted_locals.front());
    const Index budget_amps = std::max<std::size_t>(
        std::size_t{1}, storage_.bounce_buffer_bytes / sizeof(Amp));
    Index chunk = run;
    if (chunk > budget_amps) chunk = Index{1} << ilog2(budget_amps);

    PayloadWriter out;
    out.pod<std::int32_t>(q);
    for (int g : global_locations) out.pod<std::int32_t>(g);
    for (int p : local_positions) out.pod<std::int32_t>(p);
    out.pod<std::uint64_t>(chunk);
    collective(Op::kAlltoall, out);

    const Index block = index_pow2(l_ - q);
    const std::uint64_t sent =
        static_cast<std::uint64_t>(local_size_ - block) * sizeof(Amp);
    span.set_arg("bytes_per_rank", static_cast<std::int64_t>(sent));
    obs::count(obs::names::kCommAlltoalls);
    obs::count(obs::names::kCommBytesSentPerRank, sent);
    obs::count_peak(obs::names::kCommPeakBounceBytes,
                    static_cast<std::uint64_t>(chunk) * sizeof(Amp));
  }

  /// `phase_of_logical` is indexed by logical rank (empty = no phases);
  /// `any_phase` is the engine-specific "some phase is not exactly 1"
  /// predicate, computed by the caller so the identity-skip matches the
  /// virtual backend bit-for-bit.
  void local_permute(const std::vector<int>& perm,
                     const std::vector<std::complex<double>>& phase_of_logical,
                     bool any_phase) {
    const PermutePlan plan = plan_bit_permutation(l_, perm);
    if (plan.identity && !any_phase) return;
    obs::ScopedSpan span("permute", "local_permute", "bytes",
                         static_cast<std::int64_t>(num_ranks_) *
                             static_cast<std::int64_t>(local_size_) *
                             static_cast<std::int64_t>(sizeof(Amp)));
    const std::size_t scratch_bytes =
        std::max<std::size_t>(sizeof(Amp), storage_.bounce_buffer_bytes);
    for (int slot = 0; slot < num_ranks_; ++slot) {
      const int logical = logical_of_slot_[slot];
      const std::complex<double> phase =
          phase_of_logical.empty() ? std::complex<double>(1.0, 0.0)
                                   : phase_of_logical[logical];
      PayloadWriter out;
      for (int j : perm) out.pod<std::int32_t>(j);
      out.pod<double>(phase.real());
      out.pod<double>(phase.imag());
      out.pod<std::uint64_t>(scratch_bytes);
      group_->send(slot, Op::kLocalPermute, out.data(), out.size());
    }
    group_->wait_acks();
    invalidate_all();
    obs::count(obs::names::kCommLocalPermutationSweeps);
    obs::count(obs::names::kCommLocalPermutationBytes,
               static_cast<std::uint64_t>(num_ranks_) * local_size_ *
                   sizeof(Amp));
  }

  /// Zero-volume rank renumbering: new logical rank r is the worker that
  /// held logical source_of[r]. Broadcasts each worker's new logical
  /// number plus the full logical->slot table for data-plane addressing.
  void permute_ranks(const std::vector<Index>& source_of) {
    QUASAR_OBS_SPAN("renumber", "permute_ranks");
    QUASAR_CHECK(static_cast<int>(source_of.size()) == num_ranks_,
                 "permute_ranks: must cover every rank");
    std::vector<bool> used(num_ranks_, false);
    for (Index src : source_of) {
      QUASAR_CHECK(src < static_cast<Index>(num_ranks_) && !used[src],
                   "permute_ranks: not a bijection");
      used[src] = true;
    }
    std::array<int, kMaxProcRanks> next_slot_of_logical{};
    for (int r = 0; r < num_ranks_; ++r) {
      next_slot_of_logical[r] = slot_of_logical_[source_of[r]];
    }
    slot_of_logical_ = next_slot_of_logical;
    for (int r = 0; r < num_ranks_; ++r) {
      logical_of_slot_[slot_of_logical_[r]] = r;
    }
    std::vector<std::vector<Amp>> next_cache(num_ranks_);
    std::vector<bool> next_fresh(num_ranks_, false);
    for (int r = 0; r < num_ranks_; ++r) {
      next_cache[r] = std::move(cache_[source_of[r]]);
      next_fresh[r] = fresh_[source_of[r]];
    }
    cache_ = std::move(next_cache);
    fresh_ = std::move(next_fresh);
    for (int slot = 0; slot < num_ranks_; ++slot) {
      PayloadWriter out;
      out.pod<std::int32_t>(logical_of_slot_[slot]);
      for (int r = 0; r < num_ranks_; ++r) {
        out.pod<std::int32_t>(slot_of_logical_[r]);
      }
      group_->send(slot, Op::kRelabel, out.data(), out.size());
    }
    group_->wait_acks();
    obs::count(obs::names::kCommRankRenumberings);
  }

  void renumber_ranks(const std::vector<int>& perm) {
    const int g = n_ - l_;
    QUASAR_CHECK(static_cast<int>(perm.size()) == g,
                 "renumber_ranks: permutation must cover all global bits");
    std::vector<Index> source_of(num_ranks_);
    for (int r = 0; r < num_ranks_; ++r) {
      Index src = 0;
      for (int j = 0; j < g; ++j) {
        QUASAR_CHECK(perm[j] >= 0 && perm[j] < g, "renumber_ranks: bad perm");
        src |= static_cast<Index>(get_bit(static_cast<Index>(r), j))
               << perm[j];
      }
      source_of[r] = src;
    }
    permute_ranks(source_of);
  }

  void apply_gate_all(const GateMatrix& matrix,
                      const std::vector<int>& locations) {
    PayloadWriter out;
    write_gate(out, matrix, locations);
    collective(Op::kApplyGate, out);
  }

  void apply_gate_rank(int logical, const GateMatrix& matrix,
                       const std::vector<int>& locations) {
    PayloadWriter out;
    write_gate(out, matrix, locations);
    const int slot = slot_of_logical_[logical];
    group_->send(slot, Op::kApplyGate, out.data(), out.size());
    group_->wait_ack(slot);
    fresh_[logical] = false;
  }

  void pairwise_global_gate(const GateMatrix& gate, int location) {
    QUASAR_OBS_SPAN("exchange", "pairwise_gate");
    QUASAR_CHECK(gate.num_qubits() == 1,
                 "pairwise_global_gate expects a single-qubit gate");
    QUASAR_CHECK(location >= l_ && location < n_,
                 "pairwise_global_gate: location must be global");
    const Index budget_amps =
        std::min<Index>(local_size_,
                        std::max<std::size_t>(std::size_t{1},
                                              storage_.bounce_buffer_bytes /
                                                  sizeof(Amp)));
    PayloadWriter out;
    out.pod<std::int32_t>(location);
    const std::complex<double> m[4] = {
        std::complex<double>(gate.at(0, 0)), std::complex<double>(gate.at(0, 1)),
        std::complex<double>(gate.at(1, 0)), std::complex<double>(gate.at(1, 1))};
    out.raw(m, sizeof(m));
    out.pod<std::uint64_t>(budget_amps);
    collective(Op::kPairwiseGate, out);
    const Index half = local_size_ / 2;
    obs::count(obs::names::kCommPairwiseExchanges, 2);
    obs::count(obs::names::kCommBytesSentPerRank,
               static_cast<std::uint64_t>(2 * half) * sizeof(Amp));
  }

  /// Root-side cached fetch of logical rank r's slice.
  const Amp* slice(int logical) {
    if (!fresh_[logical]) {
      const int slot = slot_of_logical_[logical];
      group_->send(slot, Op::kReadSlice, nullptr, 0);
      std::vector<std::uint8_t> bytes = group_->wait_ack(slot);
      QUASAR_CHECK(bytes.size() ==
                       static_cast<std::size_t>(local_size_) * sizeof(Amp),
                   "proc transport: short slice read");
      cache_[logical].resize(static_cast<std::size_t>(local_size_));
      std::memcpy(cache_[logical].data(), bytes.data(), bytes.size());
      fresh_[logical] = true;
    }
    return cache_[logical].data();
  }

  void write_slice(int logical, const Amp* data) {
    const int slot = slot_of_logical_[logical];
    group_->send(slot, Op::kWriteSlice, data,
                 static_cast<std::size_t>(local_size_) * sizeof(Amp));
    group_->wait_ack(slot);
    fresh_[logical] = false;
  }

  /// Per-rank counters reduced at the root: field-wise max. The volume
  /// fields are identical across workers by construction (each computes
  /// the same rank-invariant formulas in lockstep), so the max is just
  /// the common value; peak_bounce_bytes is a genuine max.
  CommStats stats() {
    CommStats reduced;
    for (int slot = 0; slot < num_ranks_; ++slot) {
      if (!group_->alive(slot)) continue;
      group_->send(slot, Op::kStats, nullptr, 0);
      const std::vector<std::uint8_t> bytes = group_->wait_ack(slot);
      QUASAR_CHECK(bytes.size() == sizeof(CommStats),
                   "proc transport: bad stats payload");
      CommStats s;
      std::memcpy(&s, bytes.data(), sizeof(s));
      reduced.alltoalls = std::max(reduced.alltoalls, s.alltoalls);
      reduced.pairwise_exchanges =
          std::max(reduced.pairwise_exchanges, s.pairwise_exchanges);
      reduced.bytes_sent_per_rank =
          std::max(reduced.bytes_sent_per_rank, s.bytes_sent_per_rank);
      reduced.local_swap_sweeps =
          std::max(reduced.local_swap_sweeps, s.local_swap_sweeps);
      reduced.local_permutation_sweeps =
          std::max(reduced.local_permutation_sweeps, s.local_permutation_sweeps);
      reduced.local_permutation_bytes =
          std::max(reduced.local_permutation_bytes, s.local_permutation_bytes);
      reduced.peak_bounce_bytes =
          std::max(reduced.peak_bounce_bytes, s.peak_bounce_bytes);
      reduced.rank_renumberings =
          std::max(reduced.rank_renumberings, s.rank_renumberings);
    }
    return reduced;
  }

  /// Fault injection: kills the rank process that stage lands on (slot
  /// stage mod W), reaps it (exit 137), and shuts the survivors down.
  void kill_rank_for_fault(std::size_t stage) {
    const int victim = static_cast<int>(stage % static_cast<std::size_t>(
                                                    num_ranks_));
    group_->kill_worker(victim, stage);
    group_->shutdown();
  }

 private:
  void collective(Op op, const PayloadWriter& out) {
    group_->broadcast(op, out.data(), out.size());
    group_->wait_acks();
    invalidate_all();
  }

  void invalidate_all() { fresh_.assign(num_ranks_, false); }

  static void write_gate(PayloadWriter& out, const GateMatrix& matrix,
                         const std::vector<int>& locations) {
    out.pod<std::uint32_t>(static_cast<std::uint32_t>(matrix.num_qubits()));
    out.raw(matrix.data(), static_cast<std::size_t>(matrix.dim()) *
                               static_cast<std::size_t>(matrix.dim()) *
                               sizeof(Amplitude));
    out.pod<std::uint32_t>(static_cast<std::uint32_t>(locations.size()));
    for (int loc : locations) out.pod<std::int32_t>(loc);
  }

  int n_;
  int l_;
  int num_ranks_ = 0;
  Index local_size_ = 0;
  StorageOptions storage_;
  std::array<int, kMaxProcRanks> slot_of_logical_{};
  std::array<int, kMaxProcRanks> logical_of_slot_{};
  std::vector<std::vector<Amp>> cache_;
  std::vector<bool> fresh_;
  std::unique_ptr<ProcessGroup> group_;
};

}  // namespace quasar::proc

namespace quasar {

/// fp64 multi-process backend behind the Communicator seam.
class ProcCommunicator final : public Communicator {
 public:
  ProcCommunicator(int num_qubits, int num_local, StorageOptions storage,
                   const ApplyOptions& apply = {})
      : impl_(num_qubits, num_local, std::move(storage), apply) {}

  int num_qubits() const override { return impl_.num_qubits(); }
  int num_local() const override { return impl_.num_local(); }
  int num_ranks() const override { return impl_.num_ranks(); }
  bool multiprocess() const override { return true; }
  const StorageOptions& storage() const override { return impl_.storage(); }

  void init_basis(Index index) override { impl_.init_basis(index); }
  void init_uniform() override { impl_.init_uniform(); }

  void alltoall_swap(const std::vector<int>& global_locations) override {
    std::vector<int> local_positions;
    for (std::size_t i = 0; i < global_locations.size(); ++i) {
      local_positions.push_back(
          num_local() - static_cast<int>(global_locations.size()) +
          static_cast<int>(i));
    }
    impl_.alltoall_swap(global_locations, local_positions);
  }
  void alltoall_swap(const std::vector<int>& global_locations,
                     const std::vector<int>& local_positions) override {
    impl_.alltoall_swap(global_locations, local_positions);
  }
  void local_permute(const std::vector<int>& perm,
                     const std::vector<Amplitude>* rank_phase,
                     const ApplyOptions& options) override {
    (void)options;  // workers use construction-time options, serial
    std::vector<std::complex<double>> phases;
    bool any_phase = false;
    if (rank_phase != nullptr) {
      QUASAR_CHECK(static_cast<int>(rank_phase->size()) == num_ranks(),
                   "local_permute: one phase per rank");
      phases.assign(rank_phase->begin(), rank_phase->end());
      for (const Amplitude& p : *rank_phase) {
        any_phase |= p != Amplitude{1.0, 0.0};
      }
    }
    impl_.local_permute(perm, phases, any_phase);
  }
  void renumber_ranks(const std::vector<int>& perm) override {
    impl_.renumber_ranks(perm);
  }
  void permute_ranks(const std::vector<Index>& source_of) override {
    impl_.permute_ranks(source_of);
  }
  void pairwise_global_gate(const GateMatrix& gate, int location,
                            const ApplyOptions& options) override {
    (void)options;
    impl_.pairwise_global_gate(gate, location);
  }

  void apply_gate_all(const GateMatrix& matrix,
                      const std::vector<int>& local_locations,
                      const ApplyOptions& options) override {
    (void)options;
    impl_.apply_gate_all(matrix, local_locations);
  }
  void apply_gate_rank(int rank, const GateMatrix& matrix,
                       const std::vector<int>& local_locations,
                       const ApplyOptions& options) override {
    (void)options;
    impl_.apply_gate_rank(rank, matrix, local_locations);
  }

  const Amplitude* slice(int rank) override { return impl_.slice(rank); }
  void write_slice(int rank, const Amplitude* data) override {
    impl_.write_slice(rank, data);
  }

  CommStats stats() override { return impl_.stats(); }

  bool kill_rank_for_fault(std::size_t stage) override {
    impl_.kill_rank_for_fault(stage);
    return true;
  }

  /// Testing access to the process group (pids, liveness).
  proc::ProcessGroup& process_group() { return impl_.group(); }

 private:
  proc::ProcClusterT<proc::ProcTraits64> impl_;
};

}  // namespace quasar
