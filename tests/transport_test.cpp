/// Communicator seam tests (DESIGN.md §12): cross-transport bit parity
/// between the in-process virtual cluster and the forked multi-process
/// backend — gathered state, reductions, sample streams and CommStats
/// volume fields all agree exactly — plus the proc-only failure paths:
/// a SIGKILLed rank surfaces as quasar::Error and the remaining rank
/// processes are torn down (no zombies, no leaked pids), and a
/// fault-injected kill lands in a real rank process before the root dies
/// so kill/resume works across process boundaries.
#include <gtest/gtest.h>

#include <omp.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "ckpt/fault.hpp"
#include "fp32/distributed_f32.hpp"
#include "ckpt/reader.hpp"
#include "ckpt/writer.hpp"
#include "core/error.hpp"
#include "core/reduce.hpp"
#include "core/rng.hpp"
#include "gates/standard.hpp"
#include "runtime/communicator.hpp"
#include "runtime/distributed.hpp"
#include "runtime/proc_transport.hpp"
#include "sched/schedule.hpp"

namespace quasar {
namespace {

namespace fs = std::filesystem;

Circuit random_circuit(int n, int gates, std::uint64_t seed) {
  Rng rng(seed);
  Circuit c(n);
  for (int i = 0; i < gates; ++i) {
    const int choice = static_cast<int>(rng.uniform_int(6));
    const Qubit a = static_cast<Qubit>(rng.uniform_int(n));
    Qubit b = static_cast<Qubit>(rng.uniform_int(n));
    while (b == a) b = static_cast<Qubit>(rng.uniform_int(n));
    switch (choice) {
      case 0: c.h(a); break;
      case 1: c.t(a); break;
      case 2: c.sqrt_x(a); break;
      case 3: c.append_custom({a}, gates::random_su2(rng)); break;
      case 4: c.cz(a, b); break;
      case 5: c.cnot(a, b); break;
    }
  }
  return c;
}

std::string test_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("quasar_" + name);
  fs::remove_all(dir);
  return dir.string();
}

/// Volume fields must agree exactly across transports; peak_bounce_bytes
/// is chunking/thread-count dependent by design and deliberately not
/// compared.
void expect_stats_volume_equal(const CommStats& a, const CommStats& b) {
  EXPECT_EQ(a.alltoalls, b.alltoalls);
  EXPECT_EQ(a.pairwise_exchanges, b.pairwise_exchanges);
  EXPECT_EQ(a.bytes_sent_per_rank, b.bytes_sent_per_rank);
  EXPECT_EQ(a.local_swap_sweeps, b.local_swap_sweeps);
  EXPECT_EQ(a.local_permutation_sweeps, b.local_permutation_sweeps);
  EXPECT_EQ(a.local_permutation_bytes, b.local_permutation_bytes);
  EXPECT_EQ(a.rank_renumberings, b.rank_renumberings);
}

// ------------------------------------------------------- transport_from_env

TEST(TransportFromEnv, ParsesStrictly) {
  ::unsetenv("QUASAR_TRANSPORT");
  EXPECT_EQ(transport_from_env(), TransportKind::kVirtual);
  EXPECT_EQ(transport_from_env(TransportKind::kProc), TransportKind::kProc);
  ::setenv("QUASAR_TRANSPORT", "virtual", 1);
  EXPECT_EQ(transport_from_env(), TransportKind::kVirtual);
  ::setenv("QUASAR_TRANSPORT", "proc", 1);
  EXPECT_EQ(transport_from_env(), TransportKind::kProc);
  ::setenv("QUASAR_TRANSPORT", "mpi", 1);
  EXPECT_THROW(transport_from_env(), Error);
  ::setenv("QUASAR_TRANSPORT", "Proc", 1);
  EXPECT_THROW(transport_from_env(), Error);  // no case folding
  ::setenv("QUASAR_TRANSPORT", "", 1);
  EXPECT_EQ(transport_from_env(), TransportKind::kVirtual);
  ::unsetenv("QUASAR_TRANSPORT");
}

TEST(TransportFactory, ProcRejectsOocoreAndWideGeometries) {
  StorageOptions oocore;
  oocore.medium = StorageMedium::kOocore;
  EXPECT_THROW(
      make_communicator(8, 5, oocore, ApplyOptions{}, TransportKind::kProc),
      Error);
  // g = 5 would need 32 rank processes; the proc cap is 16.
  EXPECT_THROW(make_communicator(12, 6, StorageOptions{}, ApplyOptions{},
                                 TransportKind::kProc),
               Error);
}

// ---------------------------------------------------------- bit parity

using Param = std::tuple<int /*n*/, int /*l*/, int /*seed*/>;

class CrossTransportParity : public ::testing::TestWithParam<Param> {};

TEST_P(CrossTransportParity, StateSamplesAndStatsBitExact) {
  const auto [n, l, seed] = GetParam();
  if (n - l > l) {
    GTEST_SKIP() << "the global-to-local swap scheme requires g <= l";
  }
  if (n - l > 4) {
    GTEST_SKIP() << "proc transport caps at 16 rank processes";
  }
  const Circuit c = random_circuit(n, 10 * n, seed);
  ScheduleOptions o;
  o.num_local = l;
  o.kmax = std::min(3, l);
  const Schedule schedule = make_schedule(c, o);

  DistributedSimulator virt(n, l, ApplyOptions{}, StorageOptions{},
                            TransportKind::kVirtual);
  DistributedSimulator proc(n, l, ApplyOptions{}, StorageOptions{},
                            TransportKind::kProc);
  ASSERT_FALSE(virt.multiprocess());
  ASSERT_TRUE(proc.multiprocess());
  virt.init_uniform();
  proc.init_uniform();
  virt.run(c, schedule);
  proc.run(c, schedule);

  // Same amplitudes, bit for bit (workers run the identical kernels at
  // one thread; thread count never changes kernel arithmetic).
  const StateVector sv = virt.gather();
  const StateVector sp = proc.gather();
  ASSERT_EQ(sv.size(), sp.size());
  EXPECT_EQ(std::memcmp(sv.data(), sp.data(), sv.size() * sizeof(Amplitude)),
            0);

  // Root-side reductions run the same fixed-chunk ordered sum over the
  // same slices on both transports, and its grouping does not depend on
  // the OpenMP team size: exact equality, not tolerance.
  EXPECT_EQ(virt.norm_squared(), proc.norm_squared());
  EXPECT_EQ(virt.entropy(), proc.entropy());

  // Same seed => bit-identical outcome streams.
  Rng rng_v(2024), rng_p(2024);
  EXPECT_EQ(virt.sample(64, rng_v), proc.sample(64, rng_p));

  // Identical communication volume.
  expect_stats_volume_equal(virt.stats(), proc.stats());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CrossTransportParity,
    ::testing::Combine(::testing::Values(6, 8, 10),
                       ::testing::Values(4, 5, 6),
                       ::testing::Values(0, 1, 2)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_l" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

// The grid above compares transports at one team size, and its slices
// (<= 2^6 amplitudes) fit in a single reduction chunk. Here each slice
// spans several kReduceChunk chunks, so the chunk combine runs, and the
// root-side sums are re-evaluated at several OpenMP team sizes: the
// result may depend on neither the team size nor the transport.
TEST(DeterministicReduction, NormAndEntropyBitEqualAcrossTeamSizes) {
  const int n = 16, l = 14;
  ASSERT_GT(static_cast<std::int64_t>(index_pow2(l)), 2 * kReduceChunk);
  const Circuit c = random_circuit(n, 10 * n, 5);
  ScheduleOptions o;
  o.num_local = l;
  o.kmax = 3;
  const Schedule schedule = make_schedule(c, o);

  struct Sums {
    Real norm, entropy, norm_f32, entropy_f32;
  };
  const int saved = omp_get_max_threads();
  std::vector<Sums> reference;  // team size 1, per transport
  for (const TransportKind kind :
       {TransportKind::kVirtual, TransportKind::kProc}) {
    DistributedSimulator sim(n, l, ApplyOptions{}, StorageOptions{}, kind);
    DistributedSimulatorF sim_f32(n, l, 0, std::size_t{64} << 20, kind);
    sim.init_uniform();
    sim_f32.init_uniform();
    sim.run(c, schedule);
    sim_f32.run(c, schedule);
    for (const int team : {1, 2, 3, 4, 8}) {
      omp_set_num_threads(team);
      const Sums sums{sim.norm_squared(), sim.entropy(),
                      sim_f32.norm_squared(), sim_f32.entropy()};
      if (team == 1) reference.push_back(sums);
      const Sums& ref = reference.back();
      EXPECT_EQ(sums.norm, ref.norm) << "team " << team;
      EXPECT_EQ(sums.entropy, ref.entropy) << "team " << team;
      EXPECT_EQ(sums.norm_f32, ref.norm_f32) << "team " << team;
      EXPECT_EQ(sums.entropy_f32, ref.entropy_f32) << "team " << team;
    }
  }
  omp_set_num_threads(saved);
  ASSERT_EQ(reference.size(), 2u);
  EXPECT_EQ(reference[0].norm, reference[1].norm);
  EXPECT_EQ(reference[0].entropy, reference[1].entropy);
  EXPECT_EQ(reference[0].norm_f32, reference[1].norm_f32);
  EXPECT_EQ(reference[0].entropy_f32, reference[1].entropy_f32);
}

TEST(CrossTransportParity, PairwiseGlobalGateMatchesVirtual) {
  const int n = 8, l = 6;
  auto virt = make_communicator(n, l, StorageOptions{}, ApplyOptions{},
                                TransportKind::kVirtual);
  auto proc = make_communicator(n, l, StorageOptions{}, ApplyOptions{},
                                TransportKind::kProc);
  virt->init_uniform();
  proc->init_uniform();
  const GateMatrix h = gates::h();
  // Twice, on both global locations, so amplitudes leave the uniform
  // state and the exchange direction flips.
  for (const int loc : {l, l + 1, l}) {
    virt->pairwise_global_gate(h, loc, ApplyOptions{});
    proc->pairwise_global_gate(h, loc, ApplyOptions{});
  }
  const std::size_t bytes =
      static_cast<std::size_t>(virt->local_size()) * sizeof(Amplitude);
  for (int r = 0; r < virt->num_ranks(); ++r) {
    EXPECT_EQ(std::memcmp(virt->slice(r), proc->slice(r), bytes), 0)
        << "rank " << r;
  }
  expect_stats_volume_equal(virt->stats(), proc->stats());
}

TEST(CrossTransportParity, DiskBackedProcSlicesMatch) {
  const int n = 8, l = 6;
  StorageOptions disk;
  disk.medium = StorageMedium::kDisk;
  disk.directory = test_dir("proc_disk");
  fs::create_directories(disk.directory);
  const Circuit c = random_circuit(n, 40, 7);
  ScheduleOptions o;
  o.num_local = l;
  DistributedSimulator virt(n, l, ApplyOptions{}, StorageOptions{},
                            TransportKind::kVirtual);
  DistributedSimulator proc(n, l, ApplyOptions{}, disk,
                            TransportKind::kProc);
  virt.init_basis(0);
  proc.init_basis(0);
  const Schedule schedule = make_schedule(c, o);
  virt.run(c, schedule);
  proc.run(c, schedule);
  const StateVector sv = virt.gather();
  const StateVector sp = proc.gather();
  EXPECT_EQ(std::memcmp(sv.data(), sp.data(), sv.size() * sizeof(Amplitude)),
            0);
}

// ----------------------------------------------------- proc failure paths

TEST(ProcTransport, KilledRankSurfacesErrorAndLeavesNoZombies) {
  ProcCommunicator comm(8, 5, StorageOptions{});
  comm.init_uniform();
  proc::ProcessGroup& group = comm.process_group();
  std::vector<pid_t> pids;
  for (int s = 0; s < group.num_workers(); ++s) pids.push_back(group.pid(s));
  ASSERT_EQ(pids.size(), 8u);

  // A real SIGKILL, not the cooperative kDie path: the victim vanishes
  // mid-protocol and the next collective must fail loudly.
  ASSERT_EQ(::kill(pids[3], SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pids[3], &status, 0), pids[3]);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_THROW(comm.init_uniform(), Error);

  // Teardown must reap every remaining worker.
  group.shutdown();
  for (int s = 0; s < group.num_workers(); ++s) {
    EXPECT_FALSE(group.alive(s)) << "slot " << s;
  }
  for (const pid_t pid : pids) {
    // Reaped means waitpid says "no such child" (not a zombie entry).
    EXPECT_EQ(::waitpid(pid, &status, WNOHANG), -1) << "pid " << pid;
    EXPECT_EQ(errno, ECHILD) << "pid " << pid;
  }
}

TEST(ProcTransport, FaultKillLandsInRankProcess) {
  ProcCommunicator comm(7, 4, StorageOptions{});
  comm.init_uniform();
  proc::ProcessGroup& group = comm.process_group();
  const std::size_t stage = 5;  // victim = 5 mod 8
  const pid_t victim = group.pid(static_cast<int>(stage) % 8);
  EXPECT_TRUE(comm.kill_rank_for_fault(stage));
  // The victim really died (kill_worker checked exit status 137) and the
  // survivors were torn down with it.
  int status = 0;
  EXPECT_EQ(::waitpid(victim, &status, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
  for (int s = 0; s < group.num_workers(); ++s) {
    EXPECT_FALSE(group.alive(s)) << "slot " << s;
  }
}

TEST(ProcTransport, CheckpointKillResumeAcrossProcesses) {
  const int n = 9, l = 6;
  const Circuit c = random_circuit(n, 10 * n, 11);
  ScheduleOptions o;
  o.num_local = l;
  const Schedule schedule = make_schedule(c, o);
  ASSERT_GE(schedule.stages.size(), 3u);
  const std::size_t kill_at = schedule.stages.size() / 2;

  // Reference: uninterrupted proc run must match virtual bit for bit.
  DistributedSimulator clean(n, l, ApplyOptions{}, StorageOptions{},
                             TransportKind::kVirtual);
  clean.init_uniform();
  clean.run(c, schedule);
  const StateVector expected = clean.gather();
  Rng clean_rng(2024);
  const std::vector<Index> expected_samples = clean.sample(64, clean_rng);

  ckpt::CheckpointOptions opts;
  opts.directory = test_dir("proc_kill_resume");
  Rng rng(2024);
  {
    DistributedSimulator sim(n, l, ApplyOptions{}, StorageOptions{},
                             TransportKind::kProc);
    sim.init_uniform();
    ckpt::CheckpointWriter writer(opts);
    writer.fault().arm(
        {ckpt::FaultKind::kKillStage, static_cast<int>(kill_at)});
    writer.fault().set_kill_throws(true);  // gtest cannot survive _Exit
    CheckpointedRun ckpt_run;
    ckpt_run.writer = &writer;
    ckpt_run.rng = &rng;
    EXPECT_THROW(sim.run(c, schedule, ckpt_run), ckpt::SimulatedKill);
    // The delegate killed a real rank process and tore the rest down
    // before the injector "killed" the root, so the next collective
    // fails loudly.
    EXPECT_THROW(sim.init_basis(0), Error);
  }

  // Restart into fresh rank processes, everything from disk.
  const ckpt::CheckpointReader reader(opts.directory);
  const auto snap = reader.load_latest();
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->manifest.cursor, kill_at);
  DistributedSimulator resumed(n, l, ApplyOptions{}, StorageOptions{},
                               TransportKind::kProc);
  Rng resumed_rng(1);  // wrong seed on purpose; restore must fix it
  const std::size_t cursor = resumed.resume(*snap, c, schedule, &resumed_rng);
  EXPECT_EQ(cursor, kill_at);
  ckpt::CheckpointWriter writer2(opts);
  CheckpointedRun continue_run;
  continue_run.writer = &writer2;
  continue_run.first_stage = cursor;
  continue_run.rng = &resumed_rng;
  resumed.run(c, schedule, continue_run);
  writer2.close();

  const StateVector actual = resumed.gather();
  ASSERT_EQ(actual.size(), expected.size());
  EXPECT_EQ(std::memcmp(actual.data(), expected.data(),
                        sizeof(Amplitude) * expected.size()),
            0)
      << "proc resume diverged from the uninterrupted virtual run";
  EXPECT_EQ(resumed.sample(64, resumed_rng), expected_samples);
}

// ------------------------------------------------------------ fp32 seam

TEST(CrossTransportParityF32, StateAndStatsBitExact) {
  for (const auto& [n, l] : {std::pair{6, 4}, std::pair{8, 5},
                             std::pair{10, 6}}) {
    const Circuit c = random_circuit(n, 10 * n, 3);
    ScheduleOptions o;
    o.num_local = l;
    o.kmax = std::min(3, l);
    const Schedule schedule = make_schedule(c, o);

    DistributedSimulatorF virt(n, l, 0, std::size_t{64} << 20,
                               TransportKind::kVirtual);
    DistributedSimulatorF proc(n, l, 0, std::size_t{64} << 20,
                               TransportKind::kProc);
    ASSERT_FALSE(virt.multiprocess());
    ASSERT_TRUE(proc.multiprocess());
    virt.init_uniform();
    proc.init_uniform();
    virt.run(c, schedule);
    proc.run(c, schedule);

    const StateVectorF sv = virt.gather();
    const StateVectorF sp = proc.gather();
    ASSERT_EQ(sv.size(), sp.size());
    EXPECT_EQ(
        std::memcmp(sv.data(), sp.data(), sv.size() * sizeof(AmplitudeF)), 0)
        << "n=" << n << " l=" << l;
    EXPECT_EQ(virt.norm_squared(), proc.norm_squared());
    EXPECT_EQ(virt.entropy(), proc.entropy());
    expect_stats_volume_equal(virt.stats(), proc.stats());

    // Per-rank slices agree too (no phase folding hides a mismatch).
    const std::size_t bytes =
        static_cast<std::size_t>(virt.local_size()) * sizeof(AmplitudeF);
    for (int r = 0; r < virt.num_ranks(); ++r) {
      EXPECT_EQ(std::memcmp(virt.rank_slice(r), proc.rank_slice(r), bytes),
                0)
          << "n=" << n << " l=" << l << " rank " << r;
    }
  }
}

TEST(ProcTransportF32, CheckpointKillResumeAcrossProcesses) {
  const int n = 8, l = 5;
  const Circuit c = random_circuit(n, 10 * n, 13);
  ScheduleOptions o;
  o.num_local = l;
  const Schedule schedule = make_schedule(c, o);
  ASSERT_GE(schedule.stages.size(), 3u);
  const std::size_t kill_at = schedule.stages.size() / 2;

  DistributedSimulatorF clean(n, l, 0, std::size_t{64} << 20,
                              TransportKind::kVirtual);
  clean.init_uniform();
  clean.run(c, schedule);
  const StateVectorF expected = clean.gather();

  ckpt::CheckpointOptions opts;
  opts.directory = test_dir("proc_kill_resume_f32");
  {
    DistributedSimulatorF sim(n, l, 0, std::size_t{64} << 20,
                              TransportKind::kProc);
    sim.init_uniform();
    ckpt::CheckpointWriter writer(opts);
    writer.fault().arm(
        {ckpt::FaultKind::kKillStage, static_cast<int>(kill_at)});
    writer.fault().set_kill_throws(true);  // gtest cannot survive _Exit
    CheckpointedRun ckpt_run;
    ckpt_run.writer = &writer;
    EXPECT_THROW(sim.run(c, schedule, ckpt_run), ckpt::SimulatedKill);
    EXPECT_THROW(sim.init_basis(0), Error);  // rank processes are gone
  }

  const ckpt::CheckpointReader reader(opts.directory);
  const auto snap = reader.load_latest();
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->manifest.engine, "fp32");
  EXPECT_EQ(snap->manifest.cursor, kill_at);
  DistributedSimulatorF resumed(n, l, 0, std::size_t{64} << 20,
                                TransportKind::kProc);
  const std::size_t cursor = resumed.resume(*snap, c, schedule);
  EXPECT_EQ(cursor, kill_at);
  ckpt::CheckpointWriter writer2(opts);
  CheckpointedRun continue_run;
  continue_run.writer = &writer2;
  continue_run.first_stage = cursor;
  resumed.run(c, schedule, continue_run);
  writer2.close();

  const StateVectorF actual = resumed.gather();
  ASSERT_EQ(actual.size(), expected.size());
  EXPECT_EQ(std::memcmp(actual.data(), expected.data(),
                        sizeof(AmplitudeF) * expected.size()),
            0)
      << "fp32 proc resume diverged from the uninterrupted virtual run";
}

TEST(ProcTransport, ClusterAccessorThrows) {
  DistributedSimulator sim(6, 4, ApplyOptions{}, StorageOptions{},
                           TransportKind::kProc);
  EXPECT_THROW(sim.cluster(), Error);
  DistributedSimulator virt(6, 4);
  EXPECT_NO_THROW(virt.cluster());
}

}  // namespace
}  // namespace quasar
