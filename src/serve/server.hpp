/// \file server.hpp
/// \brief The multi-tenant job server (DESIGN.md §13).
///
/// A JobServer owns one listening socket and three kinds of threads:
///
///   - the accept thread turns connections into connection threads;
///   - connection threads speak the line protocol (protocol.hpp): they
///     parse submissions, consult the schedule cache, price the job for
///     admission, enqueue it, and stream STATUS/RESULT back;
///   - a fixed worker pool executes jobs on the existing engines
///     (DistributedSimulator / DistributedSimulatorF, virtual or proc
///     transport), one job per worker at a time.
///
/// Scheduling work is deduplicated through a ScheduleCache keyed on the
/// canonical circuit+options key text (sched::schedule_key_text); the
/// matching digest is what QUEUED lines and checkpoint manifests show.
/// The pending queue orders interactive jobs before batch, then by
/// predicted seconds, then by id. When an interactive job arrives and
/// every worker is busy on batch work, one running batch job is
/// preempted: its per-job stop flag makes the engine checkpoint at the
/// next stage boundary and return its cursor; the job re-queues and
/// later resumes bit-identically from its own checkpoint directory
/// (the manifest's schedule digest guarantees it resumes against the
/// same circuit and options).
///
/// Observability is per job: each execution runs under its own
/// TraceSession (bound to the worker's OpenMP team via thread-scoped
/// sessions) and its own ProgressScope, so concurrent tenants get
/// independent traces, metrics and progress. Server-wide serve.*
/// counters (obs/names.hpp) land in whichever global session the
/// embedding process installed.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "circuit/circuit.hpp"
#include "obs/progress.hpp"
#include "serve/admission.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"

namespace quasar::serve {

struct ServeOptions {
  Endpoint endpoint;
  /// Worker pool size (concurrent jobs).
  int workers = 2;
  /// Schedule cache entries.
  std::size_t cache_capacity = 32;
  /// Auto-classified jobs predicted under this many seconds are
  /// interactive; everything else is batch (and preemptible).
  double interactive_threshold_s = 1.0;
  /// Per-job peak-memory budget (statevector + bounce buffer).
  std::uint64_t max_job_bytes = std::uint64_t{8} << 30;
  /// Max SUBMIT circuit-body bytes buffered per submission; anything
  /// larger is drained through END (keeping the channel aligned) and
  /// rejected with reason=body, so a client cannot exhaust server
  /// memory before admission runs.
  std::size_t max_body_bytes = std::size_t{8} << 20;
  /// Bounce-buffer budget handed to every engine instance.
  std::size_t bounce_buffer_bytes = std::size_t{16} << 20;
  /// Root for per-job checkpoint directories (preemption state).
  std::string scratch_dir = "/tmp/quasar-serve";
  /// When non-empty, per-job metrics/trace JSON artifacts are written
  /// here and their paths appended to the RESULT payload.
  std::string artifact_dir;
};

/// One submitted job. Shared between the connection thread that owns
/// the client socket and whichever worker executes it; `mutex`/`cv`
/// guard the mutable tail.
struct Job {
  Job(std::uint64_t job_id, JobSpec job_spec, Circuit job_circuit)
      : id(job_id), spec(std::move(job_spec)),
        circuit(std::move(job_circuit)) {}

  const std::uint64_t id;
  const JobSpec spec;
  const Circuit circuit;
  std::shared_ptr<const Schedule> schedule;
  std::uint32_t digest = 0;
  JobPrice price;
  bool cache_hit = false;
  std::string ckpt_dir;

  /// Cooperative preemption flag; the engine polls it at stage
  /// boundaries (CheckpointedRun::stop).
  std::atomic<bool> stop{false};

  enum class State { kQueued, kRunning, kPreempted, kDone, kError };

  std::mutex mutex;
  std::condition_variable cv;
  State state = State::kQueued;
  /// First unexecuted stage; > 0 after a preemption (resume point).
  std::size_t resume_cursor = 0;
  int preemptions = 0;
  obs::ProgressSnapshot progress;
  std::vector<std::string> result_lines;
  std::string error;
  /// Bumped under `mutex` with every published change to state,
  /// progress or error. The streamer waits on `cv` for it to move, so a
  /// notify that lands while it is busy writing is never lost.
  std::uint64_t updates = 0;
};

class JobServer {
 public:
  /// Upper bound on how long stop() waits for in-flight submissions to
  /// write their terminal reply; only a client that stopped reading its
  /// socket can hold a reply up that long.
  static constexpr std::chrono::seconds kStreamDrainTimeout{10};

  explicit JobServer(ServeOptions options);
  ~JobServer();
  JobServer(const JobServer&) = delete;
  JobServer& operator=(const JobServer&) = delete;

  /// Binds the endpoint and launches the accept thread and worker pool.
  void start();

  /// Graceful shutdown (idempotent): stops accepting, preempts running
  /// jobs at their next stage boundary (checkpoints committed, writers
  /// drained), fails queued jobs with "server shutting down", lets every
  /// in-flight submission write its terminal reply (bounded by
  /// kStreamDrainTimeout), then closes connections and joins every
  /// thread.
  void stop();

  /// Serves until `external_flag` (e.g. quasar::shutdown_flag()) or a
  /// client SHUTDOWN sets the exit condition, then stop()s.
  void run_until_shutdown(const std::atomic<bool>* external_flag);

  /// True once a client issued SHUTDOWN.
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }

  /// The resolved endpoint (tcp:...:0 gets its kernel-assigned port).
  Endpoint endpoint() const { return bound_; }

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t done = 0;
    std::uint64_t rejected = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t resumes = 0;
    ScheduleCache::Stats cache;
    std::size_t queued = 0;
    std::size_t running = 0;
    int workers = 0;
  };
  Stats stats() const;

 private:
  void accept_loop();
  void connection_loop(int fd);
  void handle_submit(LineChannel& channel,
                     const std::vector<std::string>& tokens);
  /// Counts the rejection and writes the one-line REJECTED reply.
  void reject(LineChannel& channel, const std::string& reason);
  /// Streams STATUS transitions until the job finishes, then the
  /// RESULT/DONE or ERROR section.
  void stream_job(LineChannel& channel, const std::shared_ptr<Job>& job);
  void worker_loop();
  /// Pops the best pending job: interactive first, then predicted
  /// seconds ascending, then id ascending. Blocks; null on shutdown.
  std::shared_ptr<Job> next_job();
  void enqueue(const std::shared_ptr<Job>& job, bool resumed);
  /// One execution attempt; re-queues the job when preempted.
  void execute(const std::shared_ptr<Job>& job);
  /// Runs the engine; true when the job completed. Result lines are
  /// staged in the job but kDone is only published by execute(), after
  /// the artifact lines are appended — streamers must not see a partial
  /// result list.
  template <typename Sim>
  bool run_attempt(Sim& sim, const std::shared_ptr<Job>& job);
  std::string stats_line() const;

  const ServeOptions options_;
  Endpoint bound_;
  /// Atomic: the accept thread reads it while stop() retires it.
  std::atomic<int> listen_fd_{-1};
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdown_requested_{false};

  ScheduleCache cache_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> done_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> preemptions_{0};
  std::atomic<std::uint64_t> resumes_{0};

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::vector<std::shared_ptr<Job>> pending_;
  std::vector<std::shared_ptr<Job>> active_;  // currently on a worker
  int idle_workers_ = 0;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  std::mutex connections_mutex_;
  std::vector<std::thread> connection_threads_;
  /// Submissions between enqueue and their terminal reply (guarded by
  /// connections_mutex_). stop() waits on streams_cv_ for this to reach
  /// zero before it shuts connections down.
  int streams_in_flight_ = 0;
  std::condition_variable streams_cv_;
  /// fds of live connections only: each connection thread deregisters
  /// its fd before closing it, so stop() never shutdown()s a kernel fd
  /// number that has been reused by someone else.
  std::vector<int> connection_fds_;
};

}  // namespace quasar::serve
