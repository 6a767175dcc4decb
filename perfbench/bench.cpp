/// \file bench.cpp
/// The repository benchmark harness. It times calls into hxsp's public
/// entry points from the outside (Experiment, Network, ParallelSweep /
/// run_task, the manifest codec, ResultSink, make_workload and, in the
/// traced run, the topology, distance and escape builders) on four fixed
/// workloads, and checks every simulated result against computations kept
/// apart from the simulator.
///
/// Usage: hxsp_bench --workload NAME --seed N --seconds S --trace 0|1
///                   [--scale full|tiny] [--perturb none|bfs|packets]
///                   [--source ID]
///
/// --trace 0 repeats one identical simulation (or one identical sweep
/// grid) on freshly built objects until --seconds have passed, times a
/// fixed reference kernel after each repetition, and reports host time
/// as the median repetition in units of the median reference time;
/// nothing is attached to the engine. --trace 1 runs the traced pass instead: each layer is timed on
/// its own, with phase timers and telemetry attached where a metric needs
/// them. --scale tiny shrinks every workload to seconds for self-tests;
/// --perturb skews one expected value so the checks must fail. The last
/// line of stdout is one JSON object; the exit code is 1 when any check
/// failed. See README.md.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "harness/experiment.hpp"
#include "harness/grid.hpp"
#include "harness/sweep.hpp"
#include "harness/taskspec.hpp"
#include "metrics/resultsink.hpp"
#include "routing/factory.hpp"
#include "telemetry/capture.hpp"
#include "topology/computed_distance.hpp"
#include "topology/faults.hpp"
#include "util/jsonio.hpp"
#include "util/thread_pool.hpp"
#include "workload/run.hpp"

using namespace hxsp;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- command line -----------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string perturb = "none";
  std::string source = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "hxsp_bench: %s\nusage: hxsp_bench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--scale full|tiny] "
               "[--perturb none|bfs|packets] [--source ID]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string val;
    if (key.rfind("--", 0) != 0) usage("unexpected argument " + key);
    const std::size_t eq = key.find('=');
    if (eq != std::string::npos) {
      val = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else {
      if (i + 1 >= argc) usage("missing value for " + key);
      val = argv[++i];
    }
    try {
      if (key == "--workload") {
        a.workload = val;
        have_workload = true;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
      } else if (key == "--trace") {
        if (val != "0" && val != "1") usage("--trace must be 0 or 1");
        a.trace = val == "1";
      } else if (key == "--scale") {
        if (val != "full" && val != "tiny") usage("--scale must be full or tiny");
        a.tiny = val == "tiny";
      } else if (key == "--perturb") {
        if (val != "none" && val != "bfs" && val != "packets")
          usage("--perturb must be none, bfs or packets");
        a.perturb = val;
      } else if (key == "--source") {
        a.source = val;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

// Test hooks (--perturb): offsets added to one expected value, so a run
// whose program is right must report failed operations.
int g_bfs_offset = 0;
long g_packet_offset = 0;

// --- checks -----------------------------------------------------------------

/// Operations attempted and failed. An operation is one simulation, one
/// sweep task or one checked route; it fails when any of its checks fails.
struct Tally {
  long attempted = 0;
  long failed = 0;
  void record(const std::string& op, const std::vector<std::string>& errors) {
    ++attempted;
    if (errors.empty()) return;
    ++failed;
    for (const std::string& e : errors)
      std::fprintf(stderr, "check failed: %s: %s\n", op.c_str(), e.c_str());
  }
};

using Errors = std::vector<std::string>;

void expect(Errors& errs, bool ok, const std::string& what) {
  if (!ok) errs.push_back(what);
}

/// Hop distances from \p src over alive links: the harness's own BFS,
/// kept apart from Graph::bfs and every DistanceProvider.
std::vector<int> own_bfs(const Graph& g, SwitchId src) {
  std::vector<int> d(static_cast<std::size_t>(g.num_switches()), -1);
  std::vector<SwitchId> frontier{src};
  d[static_cast<std::size_t>(src)] = 0;
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const SwitchId s = frontier[head];
    for (const AlivePort& p : g.alive_ports(s)) {
      int& dn = d[static_cast<std::size_t>(p.neighbor)];
      if (dn >= 0) continue;
      dn = d[static_cast<std::size_t>(s)] + 1;
      frontier.push_back(p.neighbor);
    }
  }
  return d;
}

/// A fixed sample of distinct switch pairs, drawn from \p seed.
std::vector<std::pair<SwitchId, SwitchId>> sample_pairs(SwitchId n, int sources,
                                                        int per_source,
                                                        std::uint64_t seed) {
  Rng rng(seed ^ 0x5A3CE0F1D2B4A697ULL);
  std::vector<std::pair<SwitchId, SwitchId>> pairs;
  const auto un = static_cast<std::uint64_t>(n);
  for (int s = 0; s < sources; ++s) {
    const auto src = static_cast<SwitchId>(rng.next_below(un));
    for (int k = 0; k < per_source; ++k)
      pairs.emplace_back(
          src, static_cast<SwitchId>((static_cast<std::uint64_t>(src) + 1 +
                                      rng.next_below(un - 1)) % un));
  }
  return pairs;
}

/// Hop limit of a checked route walk. Far above any HyperX route here;
/// DistanceProvider::diameter() is not used for it because on a faulted
/// computed provider it sweeps a BFS from every switch.
constexpr int kMaxWalkHops = 64;

/// Compares the harness's BFS with DistanceProvider::at and with
/// Experiment::walk_route on a sample of pairs: the walk must take exactly
/// the BFS distance under minimal routing and at least that distance
/// under every other mechanism.
void check_routes(Experiment& e, std::uint64_t seed, Tally& tally) {
  const Graph& g = e.hyperx().graph();
  const bool minimal = e.spec().mechanism == "minimal";
  SwitchId last_src = -1;
  std::vector<int> d;
  for (const auto& [src, dst] : sample_pairs(g.num_switches(), 4, 8, seed)) {
    if (src != last_src) d = own_bfs(g, src);
    last_src = src;
    const int expected = d[static_cast<std::size_t>(dst)] + g_bfs_offset;
    Errors errs;
    expect(errs, d[static_cast<std::size_t>(dst)] > 0, "unreachable by BFS");
    const int provided = e.distances().at(src, dst);
    expect(errs, provided == expected,
           "distance provider says " + std::to_string(provided) +
               ", BFS says " + std::to_string(expected));
    const int hops = e.walk_route(src, dst, kMaxWalkHops);
    expect(errs, minimal ? hops == expected : hops >= expected,
           "walk_route took " + std::to_string(hops) + " hops, BFS distance " +
               std::to_string(expected));
    tally.record("route " + std::to_string(src) + "->" + std::to_string(dst),
                 errs);
  }
}

// --- one network simulation --------------------------------------------------

/// A single-network workload. Rate mode runs spec.warmup cycles and then a
/// measured window of spec.measure cycles at \p offered; all-to-all mode
/// releases the workload and runs until it drains.
struct NetCase {
  ExperimentSpec spec;
  double offered = 1.0;
  bool alltoall = false;
  WorkloadParams wl;
  Cycle drain_limit = 0;
  bool pooled = false;  ///< end-to-end repetitions attach the step pool
};

/// Simulated results of one repetition.
struct Outcome {
  std::int64_t packets = 0;  ///< delivered in the measured part
  double accepted = 0;       ///< phits/cycle/server
  double p99 = 0;            ///< cycles (message latency for all-to-all)
  std::string digest;        ///< every simulated result, for identity checks
};

struct Rep {
  double setup_s = 0;
  double wall_s = 0;
  Outcome out;
};

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::unique_ptr<WorkloadRun> build_workload(const NetCase& c, ServerId n) {
  Rng rng = Rng(c.spec.seed).fork(0xE1);
  std::vector<Message> msgs = make_workload(c.wl)->build(n, rng);
  validate_workload(msgs, n);
  return std::make_unique<WorkloadRun>(std::move(msgs));
}

void simulate(const NetCase& c, Network& net, WorkloadRun* run) {
  if (run) {
    net.begin_window();
    run->start(net);
    net.run_until_drained(c.drain_limit);
    net.end_window();
    return;
  }
  net.set_offered_load(c.offered);
  net.run_cycles(c.spec.warmup);
  net.begin_window();
  net.run_cycles(c.spec.measure);
  net.end_window();
}

Outcome net_outcome(const Network& net, const WorkloadRun* run) {
  const SimMetrics& m = net.metrics();
  ResultRow row;
  row.from_metrics(m);
  Outcome o;
  if (run) {
    o.packets = m.total_consumed_packets();
    o.accepted = static_cast<double>(o.packets) * net.cfg().packet_length /
                 (static_cast<double>(net.now()) * net.num_servers());
    std::vector<Cycle> lat = run->completed_latencies();
    std::sort(lat.begin(), lat.end());
    if (!lat.empty())
      o.p99 = static_cast<double>(lat[static_cast<std::size_t>(
          0.99 * static_cast<double>(lat.size() - 1))]);
  } else {
    o.packets = row.packets;
    o.accepted = row.accepted;
    o.p99 = static_cast<double>(row.p99_latency);
  }
  o.digest = std::to_string(net.now()) + ";" +
             std::to_string(m.total_generated_packets()) + ";" +
             std::to_string(m.total_consumed_packets()) + ";" +
             fmt_double(o.accepted) + ";" + fmt_double(o.p99) + ";" +
             fmt_double(row.avg_latency) + ";" + fmt_double(row.jain) + ";" +
             fmt_double(row.escape_frac) + ";" + fmt_double(row.forced_frac);
  return o;
}

/// Largest accepted load a window can show at \p offered: the offered
/// load plus six standard deviations of the Bernoulli injection process
/// over the window's server-cycles.
double accepted_ceiling(double offered, int packet_length, ServerId servers,
                        Cycle window) {
  const double q = offered / packet_length;
  const double trials = static_cast<double>(servers) * static_cast<double>(window);
  return offered + 6.0 * packet_length * std::sqrt(q * (1.0 - q) / trials);
}

/// Conservation, auditor and bounds checks of one finished network.
void check_net(const NetCase& c, const Network& net, const WorkloadRun* run,
               const Outcome& o, Errors& errs) {
  const SimMetrics& m = net.metrics();
  const std::int64_t created = m.total_generated_packets() + g_packet_offset;
  expect(errs, created == m.total_consumed_packets() + net.packets_in_system(),
         "packets not conserved: created " + std::to_string(created) +
             ", consumed " + std::to_string(m.total_consumed_packets()) +
             ", in flight " + std::to_string(net.packets_in_system()));
  expect(errs, net.dropped_packets() == 0,
         std::to_string(net.dropped_packets()) + " packets dropped");
  net.run_audit();  // aborts on any drift of the engine's own ledgers
  if (run) {
    const std::int64_t n = net.num_servers();
    const std::int64_t p = c.wl.msg_packets * c.wl.rounds;
    const std::int64_t expected = n * (n - 1) * p + g_packet_offset;
    expect(errs, run->complete(), "all-to-all did not drain");
    expect(errs, m.total_consumed_packets() == expected,
           "consumed " + std::to_string(m.total_consumed_packets()) +
               " packets, n(n-1)p = " + std::to_string(expected));
    const Cycle floor = (n - 1) * p * net.cfg().packet_length;
    expect(errs, net.now() >= floor,
           "completed in " + std::to_string(net.now()) +
               " cycles, below the injection floor " + std::to_string(floor));
    expect(errs, o.accepted > 0 && o.accepted <= 1.0,
           "accepted " + fmt_double(o.accepted) + " outside (0, 1]");
  } else {
    const double ceiling = accepted_ceiling(
        c.offered, net.cfg().packet_length, net.num_servers(), c.spec.measure);
    expect(errs, o.accepted > 0 && o.accepted <= ceiling,
           "accepted " + fmt_double(o.accepted) + " outside (0, " +
               fmt_double(ceiling) + "]");
  }
}

/// Everything a network repetition builds before its first cycle. Members
/// are destroyed in reverse order: the run and the network before the
/// Experiment they reference.
struct NetSetup {
  std::unique_ptr<Experiment> e;
  std::unique_ptr<Network> net;
  std::unique_ptr<WorkloadRun> run;
};

NetSetup net_setup(const NetCase& c, ThreadPool* pool) {
  NetSetup s;
  s.e = std::make_unique<Experiment>(c.spec);
  s.net = std::make_unique<Network>(s.e->context(), s.e->mechanism(),
                                    s.e->traffic(), c.spec.sim,
                                    c.spec.resolved_servers_per_switch(),
                                    c.spec.seed);
  s.net->set_step_pool(pool);
  if (c.alltoall) s.run = build_workload(c, s.net->num_servers());
  return s;
}

/// One repetition: build the Experiment and the Network (setup), simulate
/// (wall), then check outside the timed regions. \p ref is the digest
/// every repetition must reproduce (null for the first one).
Rep net_rep(const NetCase& c, ThreadPool* pool, Tally& tally,
            const std::string* ref, bool routes) {
  const double t0 = now_s();
  const NetSetup s = net_setup(c, pool);
  const double t1 = now_s();
  simulate(c, *s.net, s.run.get());
  const double t2 = now_s();

  Rep r{t1 - t0, t2 - t1, net_outcome(*s.net, s.run.get())};
  Errors errs;
  check_net(c, *s.net, s.run.get(), r.out, errs);
  if (ref)
    expect(errs, r.out.digest == *ref,
           "simulated results differ: " + r.out.digest + " vs " + *ref);
  tally.record(pool ? "pooled simulation" : "serial simulation", errs);
  if (routes) check_routes(*s.e, c.spec.seed, tally);
  return r;
}

// --- the sweep -----------------------------------------------------------------

/// A reduced Figure 6 grid: cumulative fault steps x SurePath variants x
/// patterns, each task a rate run at offered 1.0.
struct SweepCase {
  ExperimentSpec base;
  std::vector<int> fault_steps;
  std::vector<std::string> mechanisms;
  std::vector<std::string> patterns;
  int jobs = 1;
};

/// The first \p count links of fig06's cumulative random-fault sequence
/// for \p spec's topology, at fig06's default seed (1): the fault layout
/// is part of each workload's definition, and --seed varies only the
/// simulation's own random streams (traffic, allocation, routing).
std::vector<LinkId> fig06_faults(const ExperimentSpec& spec, int count) {
  const std::uint64_t fig06_seed = 1;
  HyperX scratch(spec.sides, spec.resolved_servers_per_switch());
  Rng frng(fig06_seed + 1000);
  std::vector<LinkId> seq = random_fault_sequence(scratch.graph(), frng);
  seq.resize(static_cast<std::size_t>(count));
  return seq;
}

std::vector<TaskSpec> build_grid(const SweepCase& c) {
  const std::vector<LinkId> seq = fig06_faults(c.base, c.fault_steps.back());
  TaskGrid grid("fig06_sweep");
  for (int faults : c.fault_steps)
    for (const std::string& mech : c.mechanisms)
      for (const std::string& pattern : c.patterns) {
        ExperimentSpec s = c.base;
        s.fault_links.assign(seq.begin(), seq.begin() + faults);
        s.mechanism = mech;
        s.pattern = pattern;
        TaskSpec task = TaskSpec::rate(s, 1.0);
        task.extra = "faults=" + std::to_string(faults);
        grid.add(std::move(task));
      }
  return grid.tasks();
}

void check_task(const TaskSpec& task, const ResultRow& row, Tally& tally) {
  Errors errs;
  const ExperimentSpec& s = task.spec;
  ServerId servers = s.resolved_servers_per_switch();
  for (int side : s.sides) servers *= side;
  const double ceiling = accepted_ceiling(task.offered, s.sim.packet_length,
                                          servers, s.measure);
  expect(errs, row.accepted > 0 && row.accepted <= ceiling,
         "accepted " + fmt_double(row.accepted) + " outside (0, " +
             fmt_double(ceiling) + "]");
  expect(errs, row.packets > 0, "no packet delivered");
  tally.record("task " + task.id, errs);
}

/// The grid as a user would hand it to the sweep: built, then round-tripped
/// through the manifest codec.
std::vector<TaskSpec> grid_setup(const SweepCase& c, std::vector<TaskSpec>* built) {
  std::vector<TaskSpec> tasks = build_grid(c);
  std::vector<TaskSpec> loaded = manifest_from_json(manifest_to_json(tasks));
  if (built) *built = std::move(tasks);
  return loaded;
}

/// One repetition of the whole grid: build it and round-trip it through
/// the manifest codec (setup), run it on the sweep and persist it through
/// a ResultSink (wall).
Rep sweep_rep(const SweepCase& c, ParallelSweep& sweep, Tally& tally,
              const std::string* ref, std::vector<TaskSpec>* tasks_out,
              std::vector<TaskResult>* results_out) {
  const double t0 = now_s();
  std::vector<TaskSpec> tasks;
  const std::vector<TaskSpec> loaded = grid_setup(c, &tasks);
  const double t1 = now_s();
  std::vector<TaskResult> results = sweep.run_tasks(loaded);
  ResultSink sink("fig06_sweep");
  for (std::size_t i = 0; i < loaded.size(); ++i) sink.add(loaded[i], results[i]);
  const std::string csv = sink.csv();
  const double t2 = now_s();

  Rep r{t1 - t0, t2 - t1, {}};
  r.out.digest = csv;
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    const ResultRow& row = *task_result_row(results[i]);
    check_task(loaded[i], row, tally);
    r.out.packets += row.packets;
    r.out.accepted += row.accepted / static_cast<double>(loaded.size());
    r.out.p99 += static_cast<double>(row.p99_latency) /
                 static_cast<double>(loaded.size());
  }
  Errors errs;
  expect(errs, loaded == tasks, "manifest round trip changed the grid");
  if (ref) expect(errs, csv == *ref, "sweep results differ between repetitions");
  tally.record("grid", errs);
  if (tasks_out) *tasks_out = loaded;
  if (results_out) *results_out = std::move(results);
  return r;
}

/// The grid's most faulted PolSP task as a single-network case.
NetCase representative(const SweepCase& c) {
  NetCase rep;
  rep.spec = build_grid(c).back().spec;
  rep.offered = 1.0;
  return rep;
}

// --- workload definitions ------------------------------------------------------

int pool_workers() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, std::min(4, hw));
}

NetCase sat16_faults(const Args& a) {
  NetCase c;
  ExperimentSpec& s = c.spec;
  const int side = a.tiny ? 4 : 16;
  s.sides = {side, side};
  s.servers_per_switch = side;
  s.mechanism = "polsp";
  s.pattern = "uniform";
  s.sim.num_vcs = 4;
  s.seed = a.seed;
  s.warmup = a.tiny ? 100 : 200;
  s.measure = a.tiny ? 200 : 400;
  s.fault_links = fig06_faults(s, a.tiny ? 2 : 100);
  return c;
}

SweepCase fig06_sweep(const Args& a) {
  SweepCase c;
  ExperimentSpec& s = c.base;
  const int side = a.tiny ? 4 : 8;
  s.sides = {side, side};
  s.servers_per_switch = side;
  s.sim.num_vcs = 4;
  s.seed = a.seed;
  s.warmup = a.tiny ? 100 : 300;
  s.measure = a.tiny ? 200 : 600;
  // fig06 at reduced scale: max(10, links * 100 / 3840) faults in steps.
  c.fault_steps = a.tiny ? std::vector<int>{0, 2} : std::vector<int>{0, 5, 11};
  c.mechanisms = {"omnisp", "polsp"};
  c.patterns = a.tiny ? std::vector<std::string>{"uniform"}
                      : std::vector<std::string>{"uniform", "rsp", "dcr"};
  c.jobs = pool_workers();
  return c;
}

NetCase big131k_min(const Args& a) {
  NetCase c;
  ExperimentSpec& s = c.spec;
  const int side = a.tiny ? 4 : 32;
  s.sides = {side, side, side};
  s.servers_per_switch = a.tiny ? 2 : 4;
  s.mechanism = "minimal";
  s.pattern = "uniform";
  // The lean buffers of hxsp_perf --grid=big.
  s.sim.packet_length = 4;
  s.sim.input_buffer_packets = 2;
  s.sim.output_buffer_packets = 1;
  s.sim.num_vcs = 2;
  s.sim.server_queue_packets = 2;
  s.seed = a.seed;
  s.warmup = 20;
  s.measure = a.tiny ? 40 : 60;
  for (LinkId l = 0; l < (a.tiny ? 4 : 16); ++l) s.fault_links.push_back(l);
  c.offered = a.tiny ? 0.3 : 0.03;
  c.pooled = true;
  return c;
}

NetCase alltoall_faults(const Args& a) {
  NetCase c;
  ExperimentSpec& s = c.spec;
  const int side = a.tiny ? 4 : 8;
  s.sides = {side, side};
  s.servers_per_switch = a.tiny ? 2 : side;
  s.mechanism = "polsp";
  s.pattern = "uniform";
  s.sim.num_vcs = 4;
  s.seed = a.seed;
  s.fault_links = fig06_faults(s, a.tiny ? 2 : 11);
  c.alltoall = true;
  c.wl.name = "alltoall";
  c.wl.msg_packets = 1;
  c.drain_limit = 2000000;
  return c;
}

// --- reference kernel ----------------------------------------------------------

/// A fixed piece of host work that no change to hxsp can alter: on each
/// thread, a walk of 2^20 dependent, data-driven reads over a shared 16 MiB
/// table with a branch on every value read, the pattern of the simulator's
/// own steps. It uses std::thread, not hxsp's pools. The end-to-end runs
/// time it after every repetition, on as many threads as the workload
/// simulates on, and express host time in units of its median: a shared
/// host whose speed drifts over minutes slows both alike (see README.md).
class RefKernel {
 public:
  explicit RefKernel(int threads) : threads_(threads), table_(kSize) {
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (std::uint32_t& v : table_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = static_cast<std::uint32_t>(x >> 32);
    }
  }

  /// Runs the walk once on every thread; returns the wall time until the
  /// last one ends.
  double run() {
    std::vector<std::uint32_t> out(static_cast<std::size_t>(threads_));
    const double t0 = now_s();
    std::vector<std::thread> others;
    for (int t = 1; t < threads_; ++t)
      others.emplace_back([this, &out, t] { out[static_cast<std::size_t>(t)] = walk(t); });
    out[0] = walk(0);
    for (std::thread& th : others) th.join();
    const double dt = now_s() - t0;
    for (std::uint32_t v : out) checksum_ += v;  // printed, so the walks stay
    return dt;
  }

  std::uint32_t checksum() const { return checksum_; }

 private:
  static constexpr std::uint32_t kSize = 1u << 22;
  static constexpr std::uint32_t kSteps = 1u << 20;

  std::uint32_t walk(int start) const {
    std::uint32_t idx = (static_cast<std::uint32_t>(start) * 0x9E3779B1u) & (kSize - 1);
    std::uint32_t acc = 0;
    for (std::uint32_t i = 0; i < kSteps; ++i) {
      const std::uint32_t v = table_[idx];
      if (v & 1u) acc += v;
      else acc ^= v >> 3;
      idx = (v + i + (acc & 7u)) & (kSize - 1);
    }
    return acc;
  }

  int threads_;
  std::vector<std::uint32_t> table_;
  std::uint32_t checksum_ = 0;
};

// --- runs --------------------------------------------------------------------

using Metrics = std::map<std::string, std::pair<double, std::string>>;

/// Repeats \p rep until \p seconds have passed (at least three times),
/// timing \p ref after each repetition into \p ref_s.
template <typename F>
std::vector<Rep> repeat(double seconds, RefKernel& ref, std::vector<double>& ref_s,
                        F rep) {
  std::vector<Rep> reps;
  const double start = now_s();
  while (reps.size() < 3 || now_s() - start < seconds) {
    reps.push_back(rep(reps.empty() ? nullptr : &reps.front().out.digest));
    ref_s.push_back(ref.run());
  }
  return reps;
}

/// Set-up times of \p reps, topped up with set-up-only repetitions of
/// \p setup until there are 31 or \p budget seconds are spent.
template <typename F>
std::vector<double> setup_times(const std::vector<Rep>& reps, double budget,
                                F setup) {
  std::vector<double> times;
  for (const Rep& r : reps) times.push_back(r.setup_s);
  const double start = now_s();
  while (times.size() < 31 && now_s() - start < budget) {
    const double t0 = now_s();
    const auto built = setup();  // destroyed after the clock is read
    times.push_back(now_s() - t0);
  }
  return times;
}

Metrics end_to_end(const std::vector<Rep>& reps, const std::vector<double>& ref_s,
                   const std::vector<double>& setups) {
  std::vector<double> wall;
  for (const Rep& r : reps) wall.push_back(r.wall_s);
  const Outcome& o = reps.front().out;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double wall_med = median(wall);
  const double ref_med = median(ref_s);
  const double wall_ref = wall_med / ref_med;
  std::fprintf(stderr, "%zu repetitions, wall_s median %.4f min %.4f max %.4f; "
               "ref_s median %.4f min %.4f max %.4f; wall_ref %.4f; "
               "%zu setups, setup_s median %.5f\n", reps.size(), wall_med,
               *std::min_element(wall.begin(), wall.end()),
               *std::max_element(wall.begin(), wall.end()), ref_med,
               *std::min_element(ref_s.begin(), ref_s.end()),
               *std::max_element(ref_s.begin(), ref_s.end()), wall_ref,
               setups.size(), median(setups));
  return {
      {"wall_ref", {wall_ref, "ref"}},
      {"setup_s", {median(setups), "s"}},
      {"peak_rss_mib", {static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB"}},
      {"host_ref_per_mpkt",
       {wall_ref * 1e6 / static_cast<double>(o.packets), "ref/Mpkt"}},
      {"accepted", {o.accepted, "phits/cyc/srv"}},
      {"latency_p99_cyc", {o.p99, "cycles"}},
  };
}

/// Every per-layer metric, in the order BENCHMARK.json lists them. A
/// metric whose layer a workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"topology.build_s", "s"},       {"topology.distance_s", "s"},
      {"core.escape_build_s", "s"},    {"sim.network_ctor_s", "s"},
      {"sim.events_s", "s"},           {"sim.generation_s", "s"},
      {"sim.alloc_s", "s"},            {"sim.link_s", "s"},
      {"sim.cycles", "cycles"},        {"sim.packets", "count"},
      {"routing.walk_route_us", "us"}, {"sim.serial_step_s", "s"},
      {"sim.pooled_step_s", "s"},      {"harness.task_p50_s", "s"},
      {"harness.parallel_eff", "ratio"}, {"harness.manifest_codec_s", "s"},
      {"metrics.sink_csv_s", "s"},     {"workload.build_s", "s"},
      {"workload.messages", "count"},  {"core.escape_hop_frac", "ratio"},
      {"routing.forced_hop_frac", "ratio"}, {"sim.credit_stalls", "count"},
      {"telemetry.on_wall_s", "s"},
  };
  return m;
}

using Layers = std::map<std::string, double>;

/// Simulates \p c once on a fresh Network over \p e with config \p cfg,
/// checks it, and returns the simulated part's wall time.
double timed_sim(const NetCase& c, Experiment& e, ThreadPool* pool,
                 const SimConfig& cfg, Tally& tally,
                 TelemetryCapture* cap = nullptr) {
  Network net(e.context(), e.mechanism(), e.traffic(), cfg,
              c.spec.resolved_servers_per_switch(), c.spec.seed);
  net.set_step_pool(pool);
  const std::unique_ptr<WorkloadRun> run =
      c.alltoall ? build_workload(c, net.num_servers()) : nullptr;
  const double t0 = now_s();
  simulate(c, net, run.get());
  const double dt = now_s() - t0;
  Errors errs;
  check_net(c, net, run.get(), net_outcome(net, run.get()), errs);
  tally.record("traced simulation", errs);
  if (cap) net.export_telemetry(*cap);
  return dt;
}

/// The traced pass of one network case: each set-up layer timed around its
/// own entry point, the step phases through Network::attach_phase_times,
/// then walk_route, serial vs pooled stepping and telemetry on.
void trace_net(const NetCase& c, ThreadPool& pool, Tally& tally, Layers& L) {
  const ExperimentSpec& s = c.spec;
  double t0 = now_s();
  HyperX hx(s.sides, s.resolved_servers_per_switch());
  apply_faults(hx.graph(), s.fault_links);
  L["topology.build_s"] = now_s() - t0;
  t0 = now_s();
  const std::unique_ptr<DistanceProvider> dist = make_distance_provider(hx);
  L["topology.distance_s"] = now_s() - t0;
  if (make_mechanism(s.mechanism)->needs_escape()) {
    EscapeUpDown::Config ecfg;
    ecfg.root = s.escape_root;
    ecfg.strict_phase = s.escape_strict_phase;
    ecfg.use_shortcuts = s.escape_shortcuts;
    ecfg.penalties = s.escape_penalties;
    t0 = now_s();
    const EscapeUpDown escape(hx.graph(), ecfg);
    L["core.escape_build_s"] = now_s() - t0;
  }

  Experiment e(s);
  ThreadPool* e2e_pool = c.pooled ? &pool : nullptr;
  {
    t0 = now_s();
    Network net(e.context(), e.mechanism(), e.traffic(), s.sim,
                s.resolved_servers_per_switch(), s.seed);
    L["sim.network_ctor_s"] = now_s() - t0;
    net.set_step_pool(e2e_pool);
    std::unique_ptr<WorkloadRun> run;
    if (c.alltoall) {
      t0 = now_s();
      run = build_workload(c, net.num_servers());
      L["workload.build_s"] = now_s() - t0;
      L["workload.messages"] = static_cast<double>(run->num_messages());
    }
    StepPhaseTimes pt(&now_s);
    net.attach_phase_times(&pt);
    simulate(c, net, run.get());
    net.attach_phase_times(nullptr);
    L["sim.events_s"] = pt.events;
    L["sim.generation_s"] = pt.generation;
    L["sim.alloc_s"] = pt.alloc;
    L["sim.link_s"] = pt.link;
    L["sim.cycles"] = static_cast<double>(net.now());
    L["sim.packets"] = static_cast<double>(net.metrics().total_consumed_packets());
    L["core.escape_hop_frac"] = net.metrics().escape_hop_fraction();
    L["routing.forced_hop_frac"] = net.metrics().forced_hop_fraction();
    Errors errs;
    check_net(c, net, run.get(), net_outcome(net, run.get()), errs);
    tally.record("traced simulation", errs);
  }

  const auto pairs = sample_pairs(hx.num_switches(), 16, 16, s.seed);
  t0 = now_s();
  for (const auto& [src, dst] : pairs) e.walk_route(src, dst, kMaxWalkHops);
  L["routing.walk_route_us"] =
      (now_s() - t0) * 1e6 / static_cast<double>(pairs.size());

  L["sim.serial_step_s"] = timed_sim(c, e, nullptr, s.sim, tally);
  L["sim.pooled_step_s"] = timed_sim(c, e, &pool, s.sim, tally);

  SimConfig observed = s.sim;
  observed.telemetry_window = 256;
  observed.trace_sample = 64;
  TelemetryCapture cap;
  L["telemetry.on_wall_s"] = timed_sim(c, e, e2e_pool, observed, tally, &cap);
  double stalls = 0;
  for (std::int64_t v : cap.router_credit_stalls) stalls += static_cast<double>(v);
  L["sim.credit_stalls"] = stalls;
}

/// The traced pass of the sweep: the grid's representative task through
/// trace_net, then the harness layers timed around their calls.
void trace_sweep(const SweepCase& c, ParallelSweep& sweep, ThreadPool& pool,
                 Tally& tally, Layers& L) {
  trace_net(representative(c), pool, tally, L);

  const std::vector<TaskSpec> tasks = build_grid(c);
  double t0 = now_s();
  const std::vector<TaskSpec> loaded =
      manifest_from_json(manifest_to_json(tasks));
  L["harness.manifest_codec_s"] = now_s() - t0;

  std::vector<double> task_s(loaded.size());
  t0 = now_s();
  const std::vector<TaskResult> results = sweep.map<TaskResult>(
      loaded.size(), [&](std::size_t i) {
        const double start = now_s();
        TaskResult r = run_task(loaded[i]);
        task_s[i] = now_s() - start;
        return r;
      });
  const double grid_wall = now_s() - t0;
  double busy = 0;
  for (double t : task_s) busy += t;
  L["harness.task_p50_s"] = median(task_s);
  L["harness.parallel_eff"] = busy / (sweep.workers() * grid_wall);

  t0 = now_s();
  ResultSink sink("fig06_sweep");
  for (std::size_t i = 0; i < loaded.size(); ++i) sink.add(loaded[i], results[i]);
  const std::string csv = sink.csv();
  L["metrics.sink_csv_s"] = now_s() - t0;
  for (std::size_t i = 0; i < loaded.size(); ++i)
    check_task(loaded[i], *task_result_row(results[i]), tally);
}

void print_provenance(const Args& a, int jobs, int step_threads) {
  JsonWriter w;
  w.begin_object();
  w.key("source").value(a.source);
  w.key("build_type").value(HXSP_BENCH_BUILD_TYPE);
  w.key("compiler").value(HXSP_BENCH_COMPILER);
  w.key("cpu").value(HXSP_BENCH_CPU);
  w.key("nproc").value(static_cast<int>(std::thread::hardware_concurrency()));
  w.key("workload").value(a.workload);
  w.key("scale").value(a.tiny ? "tiny" : "full");
  w.key("trace").value(a.trace);
  w.key("jobs").value(jobs);
  w.key("step_threads").value(step_threads);
  w.key("seed").value(a.seed);
  w.end_object();
  std::printf("provenance %s\n", w.str().c_str());
}

void print_result(const Tally& t, const Metrics& metrics) {
  JsonWriter w;
  w.begin_object();
  w.key("correct").value(t.failed == 0);
  w.key("attempted").value(static_cast<std::int64_t>(t.attempted));
  w.key("failed").value(static_cast<std::int64_t>(t.failed));
  w.key("metrics").begin_object();
  for (const auto& [name, vu] : metrics) {
    w.key(name).begin_object();
    w.key("value").value(vu.first);
    w.key("unit").value(vu.second);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
}

} // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  if (a.perturb == "bfs") g_bfs_offset = 1;
  if (a.perturb == "packets") g_packet_offset = 1;

  const bool is_sweep = a.workload == "fig06_sweep";
  NetCase net_case;
  SweepCase sweep_case;
  if (a.workload == "sat16_faults") net_case = sat16_faults(a);
  else if (a.workload == "big131k_min") net_case = big131k_min(a);
  else if (a.workload == "alltoall_faults") net_case = alltoall_faults(a);
  else if (is_sweep) sweep_case = fig06_sweep(a);
  else usage("unknown workload " + a.workload);

  const int workers = pool_workers();
  ThreadPool pool(workers);
  ParallelSweep sweep(is_sweep ? sweep_case.jobs : 1);
  print_provenance(a, is_sweep ? sweep_case.jobs : 1,
                   a.trace || net_case.pooled ? workers : 0);
  std::fflush(stdout);

  Tally tally;
  Metrics metrics;
  if (a.trace) {
    std::vector<Layers> passes;
    const double start = now_s();
    do {
      Layers L;
      for (const auto& [name, unit] : layer_metrics()) L[name] = 0.0;
      if (is_sweep) trace_sweep(sweep_case, sweep, pool, tally, L);
      else trace_net(net_case, pool, tally, L);
      passes.push_back(std::move(L));
    } while (now_s() - start < a.seconds);
    for (const auto& [name, unit] : layer_metrics()) {
      std::vector<double> v;
      for (const Layers& L : passes) v.push_back(L.at(name));
      metrics[name] = {median(v), unit};
    }
  } else if (is_sweep) {
    std::vector<TaskSpec> tasks;
    std::vector<TaskResult> results;
    RefKernel ref(sweep_case.jobs);
    std::vector<double> ref_s;
    const std::vector<Rep> reps = repeat(a.seconds, ref, ref_s, [&](const std::string* d) {
      return sweep_rep(sweep_case, sweep, tally, d, &tasks, &results);
    });
    metrics = end_to_end(reps, ref_s, setup_times(reps, 0.25 * a.seconds, [&] {
      return grid_setup(sweep_case, nullptr);
    }));
    std::fprintf(stderr, "reference checksum %08x\n", ref.checksum());
    // The serial reference (run_task, one job) must reproduce the parallel
    // rows exactly; the grid's representative task also runs once on a
    // Network the harness builds, for conservation and route checks.
    for (std::size_t i : {std::size_t{0}, tasks.size() - 1}) {
      Errors errs;
      expect(errs,
             ResultSink::csv_line(make_record(tasks[i], run_task(tasks[i]))) ==
                 ResultSink::csv_line(make_record(tasks[i], results[i])),
             "serial and parallel results differ");
      tally.record("serial reference " + tasks[i].id, errs);
    }
    net_rep(representative(sweep_case), nullptr, tally, nullptr, true);
  } else {
    ThreadPool* p = net_case.pooled ? &pool : nullptr;
    RefKernel ref(p ? workers : 1);
    std::vector<double> ref_s;
    const std::vector<Rep> reps = repeat(a.seconds, ref, ref_s, [&](const std::string* d) {
      return net_rep(net_case, p, tally, d, d == nullptr);
    });
    metrics = end_to_end(reps, ref_s, setup_times(reps, 0.25 * a.seconds, [&] {
      return net_setup(net_case, p);
    }));
    std::fprintf(stderr, "reference checksum %08x\n", ref.checksum());
    // Pooled stepping must reproduce serial stepping bit for bit.
    if (p) net_rep(net_case, nullptr, tally, &reps.front().out.digest, false);
  }

  print_result(tally, metrics);
  return tally.failed == 0 ? 0 : 1;
}
