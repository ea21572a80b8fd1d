#include "serve/server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <type_traits>

#include "ckpt/reader.hpp"
#include "ckpt/writer.hpp"
#include "circuit/io.hpp"
#include "core/error.hpp"
#include "core/rng.hpp"
#include "fp32/distributed_f32.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "runtime/distributed.hpp"
#include "sched/digest.hpp"
#include "serve/fingerprint.hpp"

namespace quasar::serve {

namespace {

namespace fs = std::filesystem;

/// Wire messages are one line each; embedded newlines would desync the
/// protocol.
std::string one_line(std::string text) {
  for (char& c : text) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return text;
}

std::string format_seconds(double seconds) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", seconds);
  return buffer;
}

const char* state_token(Job::State state) {
  switch (state) {
    case Job::State::kQueued:
      return "queued";
    case Job::State::kRunning:
      return "running";
    case Job::State::kPreempted:
      return "preempted";
    case Job::State::kDone:
      return "done";
    case Job::State::kError:
      return "error";
  }
  return "unknown";
}

/// Wakes the job's streamer after a change made under job.mutex.
void publish(Job& job) {
  ++job.updates;
  job.cv.notify_all();
}

ScheduleOptions schedule_options_for(const JobSpec& spec, int num_local) {
  ScheduleOptions options;
  options.num_local = num_local;
  options.kmax = spec.kmax;
  options.specialization = spec.mode;
  return options;
}

}  // namespace

JobServer::JobServer(ServeOptions options)
    : options_(std::move(options)), cache_(options_.cache_capacity) {
  QUASAR_CHECK(options_.workers >= 1, "serve: workers must be >= 1");
}

JobServer::~JobServer() { stop(); }

void JobServer::start() {
  QUASAR_CHECK(!running_.load(), "serve: server already started");
  bound_ = options_.endpoint;
  const int listen_fd = listen_endpoint(bound_);
  if (bound_.kind == Endpoint::Kind::kTcp && bound_.port == 0) {
    bound_.port = bound_tcp_port(listen_fd);
  }
  listen_fd_.store(listen_fd, std::memory_order_release);
  running_.store(true);
  stopping_.store(false);
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    idle_workers_ = 0;
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  for (int w = 0; w < options_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void JobServer::stop() {
  if (!running_.exchange(false)) {
    return;
  }
  stopping_.store(true);

  // Unblock the accept thread; the fd is only closed after the join so
  // accept() never races a close-and-reuse of the descriptor number.
  const int listen_fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (listen_fd >= 0) {
    ::shutdown(listen_fd, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  if (listen_fd >= 0) {
    ::close(listen_fd);
  }

  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    // Running jobs checkpoint at their next stage boundary (the worker
    // sees stopping_ and finalizes them as shutdown-preempted); queued
    // jobs fail fast so their clients are not left hanging.
    for (const std::shared_ptr<Job>& job : active_) {
      job->stop.store(true, std::memory_order_release);
    }
    for (const std::shared_ptr<Job>& job : pending_) {
      std::lock_guard<std::mutex> job_lock(job->mutex);
      job->state = Job::State::kError;
      job->error = "server shutting down";
      publish(*job);
    }
    pending_.clear();
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();

  std::vector<std::thread> connections;
  {
    // Every job is terminal now (done, or failed/checkpointed by the
    // shutdown). Let each streamer write that reply before its socket
    // goes away, else the client sees a bare disconnect instead of the
    // error naming the kept checkpoint.
    std::unique_lock<std::mutex> lock(connections_mutex_);
    streams_cv_.wait_for(lock, kStreamDrainTimeout,
                         [this] { return streams_in_flight_ == 0; });
    for (const int fd : connection_fds_) {
      ::shutdown(fd, SHUT_RDWR);
    }
    connections.swap(connection_threads_);
  }
  for (std::thread& connection : connections) {
    if (connection.joinable()) connection.join();
  }
  {
    // Every joined thread deregistered itself; clear defensively so
    // nothing stale survives a start()/stop() cycle.
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connection_fds_.clear();
  }
  if (bound_.kind == Endpoint::Kind::kUnix) {
    ::unlink(bound_.path.c_str());
  }
}

void JobServer::run_until_shutdown(const std::atomic<bool>* external_flag) {
  while (running_.load(std::memory_order_acquire)) {
    if (shutdown_requested_.load(std::memory_order_acquire) ||
        (external_flag != nullptr &&
         external_flag->load(std::memory_order_acquire))) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  stop();
}

JobServer::Stats JobServer::stats() const {
  Stats s;
  s.submitted = submitted_.load();
  s.done = done_.load();
  s.rejected = rejected_.load();
  s.preemptions = preemptions_.load();
  s.resumes = resumes_.load();
  s.cache = cache_.stats();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    s.queued = pending_.size();
    s.running = active_.size();
  }
  s.workers = options_.workers;
  return s;
}

std::string JobServer::stats_line() const {
  const Stats s = stats();
  std::string line = "STATS";
  line += " submitted=" + std::to_string(s.submitted);
  line += " done=" + std::to_string(s.done);
  line += " rejected=" + std::to_string(s.rejected);
  line += " preemptions=" + std::to_string(s.preemptions);
  line += " resumes=" + std::to_string(s.resumes);
  line += " cache_hits=" + std::to_string(s.cache.hits);
  line += " cache_misses=" + std::to_string(s.cache.misses);
  line += " cache_entries=" + std::to_string(s.cache.entries);
  line += " cache_evictions=" + std::to_string(s.cache.evictions);
  line += " queued=" + std::to_string(s.queued);
  line += " running=" + std::to_string(s.running);
  line += " workers=" + std::to_string(s.workers);
  return line;
}

void JobServer::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd =
        ::accept(listen_fd_.load(std::memory_order_acquire), nullptr,
                 nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed (stop()) or fatal
    }
    std::lock_guard<std::mutex> lock(connections_mutex_);
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    connection_fds_.push_back(fd);
    connection_threads_.emplace_back([this, fd] { connection_loop(fd); });
  }
}

void JobServer::connection_loop(int fd) {
  LineChannel channel(fd);
  std::string line;
  while (channel.read_line(line)) {
    const std::vector<std::string> tokens = split_tokens(line);
    if (tokens.empty()) {
      continue;
    }
    const std::string& verb = tokens[0];
    if (verb == "PING") {
      if (!channel.write_line("PONG")) break;
    } else if (verb == "STATS") {
      if (!channel.write_line(stats_line())) break;
    } else if (verb == "SHUTDOWN") {
      // Flag first: a client that saw the ack must observe
      // shutdown_requested() == true.
      shutdown_requested_.store(true, std::memory_order_release);
      channel.write_line("OK shutting down");
      break;
    } else if (verb == "SUBMIT") {
      try {
        handle_submit(channel,
                      std::vector<std::string>(tokens.begin() + 1,
                                               tokens.end()));
      } catch (const std::exception& e) {
        rejected_.fetch_add(1);
        obs::count(obs::names::kServeRejected);
        if (!channel.write_line("ERROR msg=" + one_line(e.what()))) break;
      }
    } else {
      if (!channel.write_line("ERROR msg=unknown verb '" + one_line(verb) +
                              "'")) {
        break;
      }
    }
  }
  // Deregister before the channel's destructor closes the fd: the
  // kernel reuses descriptor numbers, so a stale entry would let
  // stop() shutdown() an unrelated fd.
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connection_fds_.erase(
        std::remove(connection_fds_.begin(), connection_fds_.end(), fd),
        connection_fds_.end());
  }
}

void JobServer::reject(LineChannel& channel, const std::string& reason) {
  rejected_.fetch_add(1);
  obs::count(obs::names::kServeRejected);
  channel.write_line("REJECTED " + one_line(reason));
}

void JobServer::handle_submit(LineChannel& channel,
                              const std::vector<std::string>& tokens) {
  // Parse the spec up front but report failures only after the body is
  // consumed: replying mid-body would make the client's remaining
  // circuit lines parse as verbs and desync the channel permanently.
  JobSpec spec;
  std::string spec_error;
  try {
    spec = JobSpec::parse(tokens);
  } catch (const std::exception& e) {
    spec_error = e.what();
  }

  std::string circuit_text;
  std::string line;
  bool saw_end = false;
  bool oversized = false;
  while (channel.read_line(line)) {
    if (line == "END") {
      saw_end = true;
      break;
    }
    if (!oversized &&
        circuit_text.size() + line.size() + 1 > options_.max_body_bytes) {
      // Stop buffering but keep draining to END so the channel stays
      // request/reply aligned; the submission is rejected below.
      oversized = true;
      circuit_text.clear();
      circuit_text.shrink_to_fit();
    }
    if (!oversized) {
      circuit_text += line;
      circuit_text += '\n';
    }
  }
  if (!saw_end) {
    throw Error("serve: connection closed before END terminated the circuit");
  }
  if (!spec_error.empty()) {
    throw Error(spec_error);
  }
  if (oversized) {
    reject(channel, "reason=body msg=circuit body exceeds the " +
                        std::to_string(options_.max_body_bytes) +
                        "-byte limit");
    return;
  }

  std::istringstream stream(circuit_text);
  Circuit circuit = read_circuit(stream);

  const int n = circuit.num_qubits();
  JobSpec resolved = spec;
  if (resolved.local < 0) {
    resolved.local = n - 2;  // four ranks by default
  }
  if (resolved.local < 1 || resolved.local >= n) {
    reject(channel,
           "reason=local msg=need 1 <= local < qubits, got local=" +
               std::to_string(resolved.local) +
               " qubits=" + std::to_string(n));
    return;
  }

  // Admission runs BEFORE scheduling and pricing: both walk the whole
  // circuit, peak_run_bytes saturates instead of wrapping, and the
  // pricing model's 2^g rank count is only evaluated on geometries
  // admission already bounded — untrusted input never reaches either.
  const std::uint64_t peak_bytes =
      peak_run_bytes(n, resolved.engine, options_.bounce_buffer_bytes);
  const std::string rejection =
      admission_error(circuit, resolved, peak_bytes, options_.max_job_bytes);
  if (!rejection.empty()) {
    reject(channel, rejection);
    return;
  }

  // Scheduling, deduplicated through the cache. The key is the FULL
  // canonical key text — a digest collision must not reuse a wrong
  // schedule — while counters and the QUEUED line show the digest.
  const ScheduleOptions schedule_options =
      schedule_options_for(resolved, resolved.local);
  const std::string key_text = sched::schedule_key_text(circuit,
                                                        schedule_options);
  std::shared_ptr<const Schedule> schedule = cache_.lookup(key_text);
  const bool cache_hit = schedule != nullptr;
  if (cache_hit) {
    obs::count(obs::names::kServeCacheHit);
  } else {
    obs::count(obs::names::kServeCacheMiss);
    QUASAR_OBS_SPAN("serve", "schedule");
    schedule = std::make_shared<const Schedule>(
        make_schedule(circuit, schedule_options));
    cache_.insert(key_text, schedule);
  }
  const std::uint32_t digest =
      sched::schedule_digest(circuit, schedule_options);

  const JobPrice price =
      price_job(circuit, *schedule, resolved, options_.bounce_buffer_bytes,
                options_.interactive_threshold_s);

  auto job = std::make_shared<Job>(next_id_.fetch_add(1), resolved,
                                   std::move(circuit));
  job->schedule = std::move(schedule);
  job->digest = digest;
  job->price = price;
  job->cache_hit = cache_hit;
  job->ckpt_dir =
      options_.scratch_dir + "/job-" + std::to_string(job->id);
  submitted_.fetch_add(1);
  obs::count(obs::names::kServeJobs);

  char digest_hex[16];
  std::snprintf(digest_hex, sizeof(digest_hex), "0x%08x", job->digest);
  std::string queued = "QUEUED id=" + std::to_string(job->id);
  queued += std::string(" digest=") + digest_hex;
  queued += std::string(" cache=") + (cache_hit ? "hit" : "miss");
  queued += std::string(" class=") +
            (price.interactive ? "interactive" : "batch");
  queued += " predicted_s=" + format_seconds(price.predicted_seconds);
  queued += " peak_bytes=" + std::to_string(price.peak_bytes);
  if (!channel.write_line(queued)) {
    return;  // client vanished before the job started; never enqueue
  }

  // Registered before enqueue, so stop() waits for this job's terminal
  // reply (a job enqueued during stop() fails at once with "server
  // shutting down").
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    ++streams_in_flight_;
  }
  enqueue(job, /*resumed=*/false);
  stream_job(channel, job);
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    --streams_in_flight_;
  }
  streams_cv_.notify_all();
}

void JobServer::stream_job(LineChannel& channel,
                           const std::shared_ptr<Job>& job) {
  Job::State last_state = Job::State::kQueued;
  int last_stage = -1;
  // Nothing seen yet: the first pass reports the current state at once.
  std::uint64_t seen = UINT64_MAX;
  while (true) {
    Job::State state;
    obs::ProgressSnapshot progress;
    std::vector<std::string> result_lines;
    std::string error;
    {
      std::unique_lock<std::mutex> lock(job->mutex);
      job->cv.wait(lock, [&] { return job->updates != seen; });
      seen = job->updates;
      state = job->state;
      progress = job->progress;
      if (state == Job::State::kDone) result_lines = job->result_lines;
      if (state == Job::State::kError) error = job->error;
    }
    if (state == Job::State::kDone) {
      channel.write_line("RESULT id=" + std::to_string(job->id));
      for (const std::string& result_line : result_lines) {
        channel.write_line(result_line);
      }
      channel.write_line("DONE id=" + std::to_string(job->id));
      return;
    }
    if (state == Job::State::kError) {
      channel.write_line("ERROR msg=" + one_line(error));
      return;
    }
    if (state != last_state || progress.stages_done != last_stage) {
      last_state = state;
      last_stage = progress.stages_done;
      std::string status = "STATUS id=" + std::to_string(job->id);
      status += std::string(" state=") + state_token(state);
      status += " stage=" + std::to_string(progress.stages_done) + "/" +
                std::to_string(progress.num_stages);
      status += " eta=" + format_seconds(progress.eta_s);
      if (!channel.write_line(status)) {
        // Client is gone; the job still runs to completion (results are
        // simply dropped), keeping worker state machines simple.
        return;
      }
    }
  }
}

void JobServer::enqueue(const std::shared_ptr<Job>& job, bool resumed) {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  if (stopping_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> job_lock(job->mutex);
    job->state = Job::State::kError;
    job->error = "server shutting down";
    publish(*job);
    return;
  }
  pending_.push_back(job);
  if (!resumed && job->price.interactive && idle_workers_ == 0) {
    // Every worker is busy: evict one running batch job so the
    // interactive tenant does not wait behind a long run. Stage
    // boundaries are the preemption points, so the latency bound is one
    // stage, not one job.
    for (const std::shared_ptr<Job>& victim : active_) {
      if (!victim->price.interactive &&
          !victim->stop.load(std::memory_order_acquire)) {
        victim->stop.store(true, std::memory_order_release);
        break;
      }
    }
  }
  queue_cv_.notify_all();
}

std::shared_ptr<Job> JobServer::next_job() {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  ++idle_workers_;
  queue_cv_.wait(lock, [this] {
    return stopping_.load(std::memory_order_acquire) || !pending_.empty();
  });
  --idle_workers_;
  if (stopping_.load(std::memory_order_acquire)) {
    return nullptr;
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < pending_.size(); ++i) {
    const Job& a = *pending_[i];
    const Job& b = *pending_[best];
    const bool better =
        a.price.interactive != b.price.interactive
            ? a.price.interactive
            : a.price.predicted_seconds != b.price.predicted_seconds
                  ? a.price.predicted_seconds < b.price.predicted_seconds
                  : a.id < b.id;
    if (better) best = i;
  }
  std::shared_ptr<Job> job = pending_[best];
  pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(best));
  active_.push_back(job);
  return job;
}

void JobServer::worker_loop() {
  while (true) {
    std::shared_ptr<Job> job = next_job();
    if (job == nullptr) {
      return;
    }
    execute(job);
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      for (std::size_t i = 0; i < active_.size(); ++i) {
        if (active_[i] == job) {
          active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
    }
    queue_cv_.notify_all();
  }
}

template <typename Sim>
bool JobServer::run_attempt(Sim& sim, const std::shared_ptr<Job>& job) {
  const Circuit& circuit = job->circuit;
  const Schedule& schedule = *job->schedule;
  Rng rng(job->spec.seed);

  std::size_t first_stage = 0;
  if (job->resume_cursor > 0) {
    ckpt::CheckpointReader reader(job->ckpt_dir);
    const auto snapshot = reader.load_latest();
    if (!snapshot.has_value()) {
      throw Error("serve: preempted job " + std::to_string(job->id) +
                  " has no loadable checkpoint in " + job->ckpt_dir);
    }
    first_stage = sim.resume(*snapshot, circuit, schedule, &rng);
    resumes_.fetch_add(1);
    obs::count(obs::names::kServeResumes);
  } else if (job->spec.uniform_init) {
    sim.init_uniform();
  } else {
    sim.init_basis(0);
  }

  ckpt::CheckpointOptions ckpt_options;
  ckpt_options.directory = job->ckpt_dir;
  ckpt::CheckpointWriter writer(ckpt_options);
  CheckpointedRun ckpt;
  ckpt.writer = &writer;
  ckpt.first_stage = first_stage;
  ckpt.rng = &rng;
  // No periodic snapshots and no final one: the checkpoint machinery
  // exists purely as the preemption mechanism here.
  ckpt.snapshot_every = INT_MAX;
  ckpt.final_snapshot = false;
  ckpt.stop = &job->stop;

  const int stall_ms = job->spec.stall_ms;
  obs::ProgressScope progress_scope(
      [job, stall_ms](const obs::ProgressSnapshot& snapshot) {
        {
          std::lock_guard<std::mutex> lock(job->mutex);
          job->progress = snapshot;
          publish(*job);
        }
        if (stall_ms > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
        }
      });

  const std::size_t cursor = sim.run(circuit, schedule, ckpt);
  writer.close();

  if (cursor < schedule.stages.size()) {
    // Preempted (or shutting down): the boundary snapshot is committed
    // and the writer drained, so the next attempt resumes bit-exactly.
    job->resume_cursor = cursor;
    job->stop.store(false, std::memory_order_release);
    preemptions_.fetch_add(1);
    obs::count(obs::names::kServePreemptions);
    {
      std::lock_guard<std::mutex> lock(job->mutex);
      job->state = Job::State::kPreempted;
      ++job->preemptions;
      publish(*job);
    }
    if (stopping_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(job->mutex);
      job->state = Job::State::kError;
      job->error = "preempted by shutdown; checkpoint kept in " +
                   job->ckpt_dir;
      publish(*job);
      return false;
    }
    enqueue(job, /*resumed=*/true);
    return false;
  }

  std::vector<std::string> lines;
  lines.push_back(format_fingerprint_line(state_fingerprint(sim)));
  lines.push_back(format_norm_line(sim.norm_squared()));
  lines.push_back(format_entropy_line(sim.entropy()));
  std::vector<Index> outcomes;
  if constexpr (std::is_same_v<Sim, DistributedSimulator>) {
    if (job->spec.samples > 0) {
      outcomes = sim.sample(job->spec.samples, rng);
    }
  }
  lines.push_back(format_samples_line(outcomes));

  {
    std::lock_guard<std::mutex> lock(job->mutex);
    job->result_lines = std::move(lines);
  }
  return true;
}

void JobServer::execute(const std::shared_ptr<Job>& job) {
  {
    std::lock_guard<std::mutex> lock(job->mutex);
    job->state = Job::State::kRunning;
    publish(*job);
  }

  // Per-job observability: a private session bound to this worker's
  // OpenMP team, so concurrent tenants' spans/counters never mix.
  obs::TraceSession session;
  obs::ThreadSessionScope session_scope(&session);
#pragma omp parallel
  { obs::set_thread_session(&session); }

  const int n = job->circuit.num_qubits();
  const int l = job->spec.local;
  bool finished = false;
  try {
    if (job->spec.engine == "fp32") {
      DistributedSimulatorF sim(n, l, 0, options_.bounce_buffer_bytes,
                                job->spec.transport);
      finished = run_attempt(sim, job);
    } else {
      StorageOptions storage;
      storage.bounce_buffer_bytes = options_.bounce_buffer_bytes;
      DistributedSimulator sim(n, l, ApplyOptions{}, storage,
                               job->spec.transport);
      finished = run_attempt(sim, job);
    }
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(job->mutex);
    job->state = Job::State::kError;
    job->error = e.what();
    publish(*job);
  }

#pragma omp parallel
  { obs::clear_thread_session(); }

  if (finished) {
    done_.fetch_add(1);
    std::vector<std::string> artifact_lines;
    if (!options_.artifact_dir.empty()) {
      try {
        fs::create_directories(options_.artifact_dir);
        const std::string base =
            options_.artifact_dir + "/job-" + std::to_string(job->id);
        obs::write_file(base + ".metrics.json", obs::metrics_json(session));
        obs::write_file(base + ".trace.json", obs::chrome_trace_json(session));
        artifact_lines.push_back("metrics " + base + ".metrics.json");
        artifact_lines.push_back("trace " + base + ".trace.json");
      } catch (const std::exception&) {
        // Artifacts are best-effort; the result lines stand on their own.
      }
    }
    {
      std::lock_guard<std::mutex> lock(job->mutex);
      for (std::string& artifact_line : artifact_lines) {
        job->result_lines.push_back(std::move(artifact_line));
      }
      job->state = Job::State::kDone;
      publish(*job);
    }
    std::error_code ec;
    fs::remove_all(job->ckpt_dir, ec);  // scratch; nothing to resume
  }
}

}  // namespace quasar::serve
