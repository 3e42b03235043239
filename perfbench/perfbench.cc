// Copyright 2026 The LTAM Authors.
//
// ltam_perfbench: the repository's end-to-end benchmark. One process
// boots the real serving stack on loopback — AccessRuntime::Open, then
// ServiceServer::Start, always durable with 2 shards, pipelined sync
// and one I/O thread — and drives it with loadgen's open-loop RunLoad,
// which times every request from its scheduled arrival. Run through
// perfbench/run.py, which builds this binary first:
//
//   python3 perfbench/run.py --workload ingest_steady --seed 1
//       --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 turns on the
// program's telemetry registry, replays the same frames through each
// layer's public entry point, and prints the per-layer metrics. The
// last stdout line is one JSON object; any correctness mismatch exits
// nonzero without it. perfbench/README.md has the metric map.

#include <malloc.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/sharded_engine.h"
#include "loadgen/loadgen.h"
#include "perfbench.h"
#include "query/query_language.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "sim/graph_gen.h"
#include "sim/workload.h"
#include "telemetry/metrics.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace ltam {
namespace perfbench {
namespace {

constexpr int kExitError = 1;
constexpr int kExitUsage = 2;
constexpr int kExitIncorrect = 3;

// Generator-health limits for the fixed-rate phase. Above either, the
// phase measured the load generator rather than the program and is
// reported invalid (the numbers are still printed, flagged).
constexpr double kMaxLateSendRatio = 0.01;
constexpr double kMaxSchedLagMs = 50.0;

// An offered rate no run reaches: the saturation phase's schedule puts
// every arrival at time ~0, so each connection keeps its in-flight
// window full for the whole phase.
constexpr double kSaturationRate = 1e9;
constexpr size_t kSaturationInFlight = 64;
constexpr size_t kSaturationChunks = 11;
// Reads after ingest run in windows of this many (see PhaseReport).
constexpr uint64_t kReadWindowSize = 600;
// Every this-many-th statement of the query pool is re-checked after
// recovery.
constexpr size_t kRecoveredCheckStride = 8;
// Fixed-rate phases never let the window cap block the generator: a
// blocked send would be generator lag, not the program's latency.
constexpr size_t kFixedRateInFlight = 1024;
// Set-ups and recoveries per run; each metric is their median. A run
// sets up at least kMinSetups times and until kSetupSeconds have gone
// by, so a small world gets many samples and a large one few.
constexpr int kMinSetups = 7;
constexpr int kMaxSetups = 41;
constexpr double kSetupSeconds = 3.0;
constexpr int kRecoveries = 5;
// The fixed-rate phase runs in this many windows (see PhaseReport).
constexpr size_t kFixedRateWindows = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string commit = "unknown";
};

/// The world a workload serves, built from sim/ public functions.
enum class World {
  kTenant,       // kMultiTenant family: 4096 subjects, 8 buildings.
  kContact,      // kContactSweep family: 512 subjects, shared rooms.
  kLargePolicy,  // Campus 16 x 12 rooms, 2048 subjects, ~45 MB policy.
};

/// One served workload (BENCHMARK.json says why each exists). Rates are
/// events/second; phase lengths scale with --seconds.
struct Workload {
  const char* name;
  World world;
  double fixed_rate;
  double fixed_share;        // Share of --seconds in the fixed-rate phase.
  double sat_events_per_s;   // Saturation events per second of --seconds.
  uint32_t connections;      // Ingest connections = generator threads.
  size_t events_per_frame;
  double query_rate;         // Open-loop reads/s on their own connection.
  bool reads_with_ingest;    // Reads run beside the fixed-rate phase
                             // (else after all ingest).
  bool checkpoints;          // A client Checkpoint after each saturation
                             // chunk but the last.
  RetentionOptions retention;
};

RetentionOptions SoakRetention() {
  RetentionOptions r;
  r.horizon = 30;
  r.max_hot_events = 2048;
  r.compaction_fanin = 2;
  return r;
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"ingest_steady", World::kTenant, 10000, 0.4, 22500, 2, 8, 1000, false,
       false, RetentionOptions{}},
      {"read_mix", World::kContact, 5000, 0.5, 13500, 1, 16, 300, true, true,
       RetentionOptions{}},
      {"checkpoint_retention", World::kLargePolicy, 3000, 0.5, 13500, 1, 8,
       1000, false, true, SoakRetention()},
  };
  return kWorkloads;
}

// --- World building ----------------------------------------------------------

/// Latest event time in frames [from, to) of every stream.
Chronon MaxTime(const LoadScenario& s, size_t from, size_t to) {
  Chronon t = 0;
  for (const auto& stream : s.streams) {
    for (size_t f = from; f < std::min(to, stream.size()); ++f) {
      for (const AccessEvent& e : stream[f]) t = std::max(t, e.time);
    }
  }
  return t;
}

/// The query pool of a workload: one statement per subject at a seeded
/// time in [0, until]. On the contact world three in four are
/// cross-shard CONTACTS OF fan-outs over an eighth of that span: with a
/// half-and-half mix the median would sit on the edge between the cheap
/// and the expensive statements and jump between them run to run.
std::vector<std::string> QueryPool(const Workload& w,
                                   const std::vector<SubjectId>& subjects,
                                   Chronon until, uint64_t seed) {
  std::vector<std::string> pool;
  Rng rng(seed ^ 0x51ed'270b'2f7a'9c3dull);
  for (size_t i = 0; i < subjects.size(); ++i) {
    const long long t = static_cast<long long>(
        rng.Uniform(static_cast<uint64_t>(until) + 1));
    if (w.world == World::kContact && i % 4 != 0) {
      pool.push_back(StrFormat("CONTACTS OF u%zu DURING [%lld,%lld] MIN 1",
                               i, t, t + std::max<long long>(1, until / 8)));
    } else {
      pool.push_back(StrFormat("WHERE WAS u%zu AT %lld", i, t));
    }
  }
  return pool;
}

/// The large-policy world of checkpoint_retention: a campus of 16
/// buildings x 12 rooms, 2048 subjects, 2 authorizations per covered
/// (subject, room), coverage 0.7, windows that outlive the run, and a
/// soak-style exit-heavy stream per connection.
Result<LoadScenario> LargePolicyScenario(const Workload& w, uint64_t seed,
                                         size_t total_events) {
  LoadScenario s;
  s.family = ScenarioFamily::kSoak;
  s.engine.enforce_adjacency = false;
  s.engine.alert_on_denial = false;
  LTAM_ASSIGN_OR_RETURN(s.initial.graph, MakeCampusGraph(16, 12));
  s.subjects = GenerateSubjects(&s.initial.profiles, 2048);
  Rng rng(seed);
  AuthWorkloadOptions auth;
  auth.auths_per_location = 2;
  auth.coverage = 0.7;
  auth.horizon = 1;
  auth.min_len = 1'000'000;
  auth.max_len = 1'000'000;
  auth.max_slack = 250'000;
  auth.max_entries = 0;
  GenerateAuthorizations(s.initial.graph, s.subjects, auth, &rng,
                         &s.initial.auth_db);
  BatchWorkloadOptions mix;
  mix.batch_size = w.events_per_frame;
  mix.exit_fraction = 0.45;
  mix.observe_fraction = 0.05;
  mix.max_step = 3;
  for (uint32_t c = 0; c < w.connections; ++c) {
    std::vector<SubjectId> mine;
    for (size_t i = c; i < s.subjects.size(); i += w.connections) {
      mine.push_back(s.subjects[i]);
    }
    Rng stream_rng(seed + 0x9e37'79b9ull * (c + 1));
    s.streams.push_back(GenerateEventBatches(
        s.initial.graph, mine, total_events / w.connections, mix,
        &stream_rng));
  }
  return s;
}

Result<LoadScenario> BuildScenario(const Workload& w, uint64_t seed,
                                   size_t total_events) {
  if (w.world == World::kLargePolicy) {
    return LargePolicyScenario(w, seed, total_events);
  }
  ScenarioOptions o;
  o.streams = w.connections;
  o.total_events = total_events;
  o.events_per_frame = w.events_per_frame;
  o.seed = seed;
  if (w.world == World::kTenant) {
    o.subjects = 4096;
    o.tenants = 8;
    return GenerateLoadScenario(ScenarioFamily::kMultiTenant, o);
  }
  o.subjects = 512;
  return GenerateLoadScenario(ScenarioFamily::kContactSweep, o);
}

/// Moves frames [from, to) of every stream out of `s` into a scenario
/// RunLoad can drive; the frames left behind are empty. The served run
/// takes each window as it sends it, so no second copy of the stream is
/// resident while the server runs.
LoadScenario Take(LoadScenario* s, size_t from, size_t to) {
  LoadScenario p;
  p.family = s->family;
  p.engine = s->engine;
  p.subjects = s->subjects;
  p.burst_duty = s->burst_duty;
  p.burst_period_ms = s->burst_period_ms;
  for (auto& stream : s->streams) {
    const size_t a = std::min(from, stream.size());
    const size_t b = std::min(to, stream.size());
    for (size_t f = a; f < b; ++f) p.total_events += stream[f].size();
    p.streams.emplace_back(std::make_move_iterator(stream.begin() + a),
                           std::make_move_iterator(stream.begin() + b));
  }
  return p;
}

// --- Small helpers -----------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Sum of regular-file sizes under `dir` whose name passes `keep`.
template <typename Pred>
uint64_t DirBytes(const std::string& dir, Pred keep) {
  uint64_t total = 0;
  std::error_code ec;
  for (std::filesystem::recursive_directory_iterator it(dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    std::error_code size_ec;
    if (!it->is_regular_file(size_ec) || size_ec) continue;
    if (!keep(it->path().filename().string())) continue;
    const uint64_t size = it->file_size(size_ec);
    if (!size_ec) total += size;
  }
  return total;
}

uint64_t DirBytes(const std::string& dir) {
  return DirBytes(dir, [](const std::string&) { return true; });
}

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// Non-WAL files of a durable directory, name -> size: what a checkpoint
/// writes shows up as new or changed entries.
std::map<std::string, uint64_t> CheckpointFiles(const std::string& dir) {
  std::map<std::string, uint64_t> out;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (EndsWith(name, ".wal")) continue;
    std::error_code size_ec;
    const uint64_t size = it->file_size(size_ec);
    if (!size_ec) out[name] = size;
  }
  return out;
}

uint64_t BytesWritten(const std::map<std::string, uint64_t>& before,
                      const std::map<std::string, uint64_t>& after) {
  uint64_t total = 0;
  for (const auto& [name, size] : after) {
    auto it = before.find(name);
    if (it == before.end() || it->second != size) total += size;
  }
  return total;
}

/// Restarts VmHWM from the current resident set, after handing freed
/// heap back to the kernel, so the peak read later covers the served
/// phases and not the set-ups before them. False if the kernel refused.
bool ResetPeakRss() {
  ::malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool written = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && written;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

std::string FilesystemOf(const std::string& path) {
  struct statfs sfs;
  if (::statfs(path.c_str(), &sfs) != 0) return "unknown";
  switch (static_cast<unsigned long>(sfs.f_type)) {
    case 0xEF53:
      return "ext2/3/4";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x01021994:
      return "tmpfs";
    case 0x794C7630:
      return "overlayfs";
    case 0x6969:
      return "nfs";
    case 0x65735546:
      return "fuse";
    default:
      return StrFormat("0x%lx", static_cast<unsigned long>(sfs.f_type));
  }
}

const LatencyHistogram* FindHistogram(const MetricsSnapshot& snap,
                                      const std::string& name) {
  for (const auto& [n, h] : snap.histograms) {
    if (n == name) return &h;
  }
  return nullptr;
}

double HistP50Ms(const MetricsSnapshot& snap, const std::string& name) {
  const LatencyHistogram* h = FindHistogram(snap, name);
  return h == nullptr ? 0.0 : QuantileMs(*h, 0, 0.5);
}

uint64_t HistCount(const MetricsSnapshot& snap, const std::string& name) {
  const LatencyHistogram* h = FindHistogram(snap, name);
  return h == nullptr ? 0 : h->count();
}

uint64_t CounterValue(const MetricsSnapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

// --- The served stack --------------------------------------------------------

/// One booted server: its scenario, runtime and server.
struct Served {
  std::string dir;
  LoadScenario scenario;  // scenario.initial is moved into the runtime.
  double generate_s = 0;  // The world-generation part of the set-up.
  RuntimeOptions options;
  std::unique_ptr<MetricsRegistry> registry;
  std::unique_ptr<AccessRuntime> runtime;
  std::unique_ptr<ServiceServer> server;
  uint16_t port = 0;

  ~Served() { Teardown(); }

  void Teardown() {
    if (server != nullptr) server->Stop();
    server.reset();
    runtime.reset();
    if (!dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }
};

/// World generation + AccessRuntime::Open + ServiceServer::Start: the
/// set-up a deployment pays before it can serve. Returns seconds.
Result<double> Setup(const Workload& w, const Args& args, size_t total_events,
                     int index, bool traced, Served* out) {
  const Clock::time_point t0 = Clock::now();
  LTAM_ASSIGN_OR_RETURN(out->scenario,
                        BuildScenario(w, args.seed, total_events));
  out->generate_s = SecondsSince(t0);

  out->dir = args.work_dir + "/served-" + std::to_string(index);
  std::error_code ec;
  std::filesystem::remove_all(out->dir, ec);
  std::filesystem::create_directories(out->dir, ec);
  if (ec) return Status::IOError("cannot create " + out->dir);

  if (traced) out->registry = std::make_unique<MetricsRegistry>();
  RuntimeOptions& opt = out->options;
  opt.num_shards = 2;
  opt.durable_dir = out->dir;
  opt.durability.mode = SyncMode::kPipelined;
  opt.engine = out->scenario.engine;
  opt.max_batch_events = kMaxWireBatchEvents;
  opt.retention = w.retention;
  opt.metrics = out->registry.get();
  ServerOptions server_opt;
  server_opt.io_threads = 1;
  server_opt.metrics = out->registry.get();

  const Clock::time_point t1 = Clock::now();
  LTAM_ASSIGN_OR_RETURN(
      out->runtime, AccessRuntime::Open(std::move(out->scenario.initial), opt));
  out->server = std::make_unique<ServiceServer>(out->runtime.get(), server_opt);
  LTAM_RETURN_IF_ERROR(out->server->Start());
  out->port = out->server->bound_port();
  return out->generate_s + SecondsSince(t1);
}

/// Client-observed Checkpoint barriers, with the bytes each one wrote.
struct CheckpointSamples {
  std::vector<double> ms;
  uint64_t bytes_written = 0;
};

Status TimedCheckpoint(ServiceClient* client, const std::string& dir,
                       CheckpointSamples* out) {
  const std::map<std::string, uint64_t> before = CheckpointFiles(dir);
  const Clock::time_point t0 = Clock::now();
  LTAM_RETURN_IF_ERROR(client->Checkpoint());
  out->ms.push_back(static_cast<double>(NanosSince(t0)) / 1e6);
  out->bytes_written += BytesWritten(before, CheckpointFiles(dir));
  return Status::OK();
}

/// Open-loop reads on one dedicated connection: statement i is due at
/// schedule[i] and timed from then, so a slow answer delays (and
/// charges) the ones behind it.
Result<LatencyHistogram> QueryProbe(uint16_t port,
                                    const std::vector<std::string>& pool,
                                    size_t count, double rate, uint64_t seed) {
  LTAM_ASSIGN_OR_RETURN(std::unique_ptr<ServiceClient> client,
                        ServiceClient::Connect("127.0.0.1", port));
  const std::vector<uint64_t> schedule =
      BuildArrivalScheduleNs(count, rate, 1.0, 0, seed);
  LatencyHistogram h;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < count; ++i) {
    const uint64_t now = NanosSince(start);
    if (now < schedule[i]) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(schedule[i] - now));
    }
    LTAM_RETURN_IF_ERROR(client->Query(pool[i % pool.size()]).status());
    h.Record(NanosSince(start) - schedule[i]);
  }
  return h;
}

/// Rows sorted so fan-out order across shards cannot fail a comparison.
std::vector<std::vector<std::string>> SortedRows(const QueryResult& r) {
  std::vector<std::vector<std::string>> rows = r.rows;
  std::sort(rows.begin(), rows.end());
  return rows;
}

// --- The run -----------------------------------------------------------------

/// Sums the outcome counters of one RunLoad into `total`.
void AddTotals(const LoadReport& r, LoadReport* total) {
  total->frames_sent += r.frames_sent;
  total->events_sent += r.events_sent;
  total->events_admitted += r.events_admitted;
  total->grants += r.grants;
  total->denials += r.denials;
  total->alerts += r.alerts;
  total->quota_refused_frames += r.quota_refused_frames;
  total->quota_refused_events += r.quota_refused_events;
  total->late_sends += r.late_sends;
  total->max_sched_lag_ns = std::max(total->max_sched_lag_ns,
                                     r.max_sched_lag_ns);
  total->wall_seconds += r.wall_seconds;
  total->ingest_latency.Merge(r.ingest_latency);
}

/// The fixed-rate phase, measured in consecutive windows. Each latency
/// quantile is taken per window and the median over windows reported: a
/// slow spell of the host shorter than half the phase then moves a
/// minority of windows, not the result.
struct PhaseReport {
  LoadReport load;  // Totals over every window; latency merged.
  std::vector<LatencyHistogram> ingest_windows;
  std::vector<uint64_t> refused_windows;
  std::vector<double> wall_ms_windows;
  std::vector<LatencyHistogram> read_windows;
  uint64_t read_count = 0;
};

LoadGenOptions LoadOptions(const Served& s, uint32_t connections, double rate,
                           size_t in_flight, uint64_t schedule_seed) {
  LoadGenOptions o;
  o.port = s.port;
  o.rate = rate;
  o.connections = connections;
  o.max_in_flight = in_flight;
  o.schedule_seed = schedule_seed;
  return o;
}

/// Open-loop ingest of frames [from, to) of `scenario` (taken out of it)
/// at the workload's fixed rate and, on read_mix, its reads on a
/// connection and thread of their own. RunLoad would issue reads
/// synchronously from the ingest worker, so every frame due during a
/// read would wait for it; a separate reader keeps ingest latency free
/// of read latency.
Result<PhaseReport> FixedRatePhase(const Workload& w, const Served& s,
                                   LoadScenario* scenario, size_t from,
                                   size_t to,
                                   const std::vector<std::string>& pool,
                                   uint64_t schedule_seed) {
  PhaseReport out;
  const size_t frames = to - from;
  Status st = Status::OK();
  for (size_t c = 0; c < kFixedRateWindows && st.ok(); ++c) {
    const LoadScenario window =
        Take(scenario, from + frames * c / kFixedRateWindows,
             from + frames * (c + 1) / kFixedRateWindows);
    Status read_status = Status::OK();
    LatencyHistogram reads;
    std::thread reader;
    if (w.reads_with_ingest) {
      const uint64_t count = static_cast<uint64_t>(
          w.query_rate * static_cast<double>(window.total_events) /
          w.fixed_rate);
      out.read_count += count;
      reader = std::thread([&, count] {
        Result<LatencyHistogram> h = QueryProbe(
            s.port, pool, count, w.query_rate, schedule_seed + 100 + c);
        if (h.ok()) {
          reads = *h;
        } else {
          read_status = h.status();
        }
      });
    }
    Result<LoadReport> load = RunLoad(
        window, LoadOptions(s, w.connections, w.fixed_rate,
                            kFixedRateInFlight, schedule_seed + c));
    if (reader.joinable()) reader.join();
    if (!load.ok()) {
      st = load.status();
    } else if (!read_status.ok()) {
      st = read_status;
    } else {
      out.ingest_windows.push_back(load->ingest_latency);
      out.refused_windows.push_back(load->quota_refused_frames);
      out.wall_ms_windows.push_back(load->wall_seconds * 1e3);
      if (w.reads_with_ingest) out.read_windows.push_back(reads);
      AddTotals(*load, &out.load);
    }
  }
  if (!st.ok()) return st;
  return out;
}

/// Median over windows of each window's q-quantile (see PhaseReport).
double WindowedQuantileMs(const std::vector<LatencyHistogram>& windows,
                          const std::vector<uint64_t>& refused,
                          const std::vector<double>& wall_ms, double q) {
  std::vector<double> per_window;
  for (size_t i = 0; i < windows.size(); ++i) {
    per_window.push_back(QuantileMs(windows[i],
                                    i < refused.size() ? refused[i] : 0, q,
                                    i < wall_ms.size() ? wall_ms[i] : 0.0));
  }
  return Median(per_window);
}

void PrintSamples(const char* what, const std::vector<double>& samples) {
  std::string line;
  for (double v : samples) line += StrFormat(" %.4g", v);
  std::printf("%s:%s\n", what, line.c_str());
}

void PrintMetric(const std::string& name, double value,
                 const std::string& unit) {
  std::printf("metric %-34s %14.6f %s\n", name.c_str(), value, unit.c_str());
}

/// The result line. `correct` is always true: a run whose outputs are
/// wrong exits before it prints numbers.
void PrintResult(uint64_t attempted, uint64_t failed,
                 const MetricSet& metrics) {
  std::string json = StrFormat(
      "{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, vu] : metrics.values()) {
    json += StrFormat("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                      first ? "" : ", ", name.c_str(), vu.first,
                      vu.second.c_str());
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Run(const Args& args) {
  const Workload* found = nullptr;
  for (const Workload& w : Workloads()) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return kExitUsage;
  }
  const Workload& w = *found;
  const uint64_t schedule_seed = args.seed * 1'000'003ull + 17;
  const size_t fixed_events =
      static_cast<size_t>(w.fixed_rate * w.fixed_share * args.seconds);
  const size_t sat_events =
      static_cast<size_t>(w.sat_events_per_s * args.seconds);
  const size_t frames_per_stream_fixed =
      (fixed_events / w.connections + w.events_per_frame - 1) /
      w.events_per_frame;
  SpanLog spans(args.trace);
  auto fail = [](const Status& st) {
    std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
    return kExitError;
  };

  std::printf("perfbench workload=%s seed=%llu seconds=%.1f trace=%d\n",
              w.name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf(
      "context {\"commit\": \"%s\", \"workload\": \"%s\", "
      "\"workload_seed\": %llu, \"schedule_seed\": %llu, \"nproc\": %u, "
      "\"build_type\": \"%s\", \"durable_fs\": \"%s\", \"server\": "
      "\"durable, 2 shards, pipelined sync, 1 io thread, loopback\"}\n",
      args.commit.c_str(), w.name, static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(schedule_seed),
      std::thread::hardware_concurrency(), LTAM_PERFBENCH_BUILD_TYPE,
      FilesystemOf(args.work_dir).c_str());
  std::fflush(stdout);

  // Set-up, several times; the last one serves the run. The traced run
  // sets up twice: the first set-up instead serves an untraced
  // fixed-rate phase, the baseline of trace.overhead_ratio.
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  double untraced_p50_ms = 0.0;
  auto served_ptr = std::make_unique<Served>();
  const Clock::time_point setups_start = Clock::now();
  for (int k = 0;; ++k) {
    Served& served = *served_ptr;
    const int64_t span = spans.Begin("setup");
    Result<double> secs = Setup(w, args, fixed_events + sat_events, k,
                                args.trace && k == 1, &served);
    spans.End(span);
    if (!secs.ok()) return fail(secs.status());
    setup_s.push_back(*secs);
    generate_s.push_back(served.generate_s);
    const bool last =
        args.trace ? k == 1
                   : k + 1 == kMaxSetups ||
                         (k + 1 >= kMinSetups &&
                          SecondsSince(setups_start) >= kSetupSeconds);
    if (last) break;
    if (args.trace) {
      const std::vector<std::string> pool = QueryPool(
          w, served.scenario.subjects,
          MaxTime(served.scenario, 0, frames_per_stream_fixed), args.seed);
      Result<PhaseReport> r =
          FixedRatePhase(w, served, &served.scenario, 0,
                         frames_per_stream_fixed, pool, schedule_seed);
      if (!r.ok()) return fail(r.status());
      untraced_p50_ms = WindowedQuantileMs(
          r->ingest_windows, r->refused_windows, r->wall_ms_windows, 0.5);
    }
    served_ptr = std::make_unique<Served>();
  }
  Served& served = *served_ptr;
  PrintSamples("setups [s]", setup_s);
  PrintSamples("  of which world generation [s]", generate_s);
  if (!ResetPeakRss()) {
    std::printf("note: /proc/self/clear_refs refused; rss_peak_mb includes "
                "the set-ups\n");
  }

  constexpr size_t kAllFrames = static_cast<size_t>(-1);
  const Chronon end_time = MaxTime(served.scenario, 0, kAllFrames);
  // Reads beside ingest ask about the history the phase writes; reads
  // after ingest about all of it.
  const std::vector<std::string> pool = QueryPool(
      w, served.scenario.subjects,
      w.reads_with_ingest ? MaxTime(served.scenario, 0, frames_per_stream_fixed)
                          : end_time,
      args.seed);

  // Phase 2 (phase 1 is set-up): fixed-rate open-loop ingest, with the
  // reads of read_mix beside it.
  const int64_t fixed_span = spans.Begin("phase.fixed_rate");
  Result<PhaseReport> fixed_r =
      FixedRatePhase(w, served, &served.scenario, 0, frames_per_stream_fixed,
                     pool, schedule_seed);
  spans.End(fixed_span);
  if (!fixed_r.ok()) return fail(fixed_r.status());
  const LoadReport& fl = fixed_r->load;
  const uint64_t fixed_arrivals = fl.frames_sent;
  const double late_ratio =
      fixed_arrivals == 0 ? 0.0
                          : static_cast<double>(fl.late_sends) / fixed_arrivals;
  const double lag_max_ms = static_cast<double>(fl.max_sched_lag_ns) / 1e6;
  const bool valid =
      late_ratio <= kMaxLateSendRatio && lag_max_ms <= kMaxSchedLagMs;
  std::printf(
      "phase fixed_rate: %.0f ev/s offered, %.0f achieved, %llu frames, "
      "%llu reads, late_send_ratio=%.4f "
      "sched_lag_max=%.2fms -> %s\n",
      w.fixed_rate,
      fl.wall_seconds > 0 ? static_cast<double>(fl.events_sent) /
                                fl.wall_seconds
                          : 0.0,
      static_cast<unsigned long long>(fl.frames_sent),
      static_cast<unsigned long long>(fixed_r->read_count), late_ratio,
      lag_max_ms,
      valid ? "valid" : "INVALID (generator lag: the run measured the "
                        "load generator, not the program)");
  {
    std::vector<double> window_p50;
    for (size_t i = 0; i < fixed_r->ingest_windows.size(); ++i) {
      window_p50.push_back(QuantileMs(fixed_r->ingest_windows[i],
                                      fixed_r->refused_windows[i], 0.5,
                                      fixed_r->wall_ms_windows[i]));
    }
    PrintSamples("fixed_rate windows p50 [ms]", window_p50);
  }

  Result<MetricsSnapshot> scrape_fixed = MetricsSnapshot{};
  std::unique_ptr<ServiceClient> control;
  {
    Result<std::unique_ptr<ServiceClient>> c =
        ServiceClient::Connect("127.0.0.1", served.port);
    if (!c.ok()) return fail(c.status());
    control = std::move(c).ValueOrDie();
  }
  if (args.trace) {
    scrape_fixed = control->Metrics();
    if (!scrape_fixed.ok()) return fail(scrape_fixed.status());
  }

  // Phase 3: saturation — far more offered load than capacity, each
  // connection's in-flight window kept full. Run as equal chunks and
  // report the median chunk throughput, so one stall of the host does
  // not decide the number. Where the workload checkpoints, a client
  // Checkpoint barrier follows every chunk but the last: each one
  // persists the chunk it follows, and the last chunk is the WAL tail
  // recovery replays. Elsewhere recovery replays the whole WAL.
  CheckpointSamples checkpoints;
  const CoalescerStats before_sat = served.server->coalescer_stats();
  const int64_t sat_span = spans.Begin("phase.saturation");
  LoadReport sat_total;
  std::vector<double> chunk_eps;
  const size_t stream_frames =
      served.scenario.streams.empty() ? 0 : served.scenario.streams[0].size();
  const size_t sat_frames = stream_frames > frames_per_stream_fixed
                                ? stream_frames - frames_per_stream_fixed
                                : 0;
  for (size_t c = 0; c < kSaturationChunks; ++c) {
    const LoadScenario chunk = Take(
        &served.scenario,
        frames_per_stream_fixed + sat_frames * c / kSaturationChunks,
        frames_per_stream_fixed + sat_frames * (c + 1) / kSaturationChunks);
    const int64_t span = spans.Begin("saturation.chunk", sat_span);
    Result<LoadReport> r = RunLoad(
        chunk, LoadOptions(served, w.connections, kSaturationRate,
                           kSaturationInFlight, schedule_seed + 1 + c));
    spans.End(span);
    if (!r.ok()) return fail(r.status());
    if (w.checkpoints && c + 1 < kSaturationChunks) {
      const int64_t ckpt = spans.Begin("checkpoint", sat_span);
      Status st = TimedCheckpoint(control.get(), served.dir, &checkpoints);
      spans.End(ckpt);
      if (!st.ok()) return fail(st);
    }
    chunk_eps.push_back(r->wall_seconds > 0 ? static_cast<double>(
                                                  r->events_admitted) /
                                                  r->wall_seconds
                                            : 0.0);
    AddTotals(*r, &sat_total);
  }
  spans.End(sat_span);
  const LoadReport* sat_r = &sat_total;
  PrintSamples("checkpoints [ms]", checkpoints.ms);
  const CoalescerStats after_sat = served.server->coalescer_stats();
  const double sat_eps = Median(chunk_eps);
  const size_t sat_merges =
      after_sat.merged_batches - before_sat.merged_batches;
  const size_t merged_batch_events =
      sat_merges == 0
          ? w.events_per_frame
          : (after_sat.merged_events - before_sat.merged_events) / sat_merges;
  std::string chunks;
  for (double e : chunk_eps) chunks += StrFormat(" %.0f", e);
  std::printf("phase saturation: %llu events in %.3fs, chunks [ev/s]:%s -> "
              "median %.0f ev/s, %.1f events per merged batch\n",
              static_cast<unsigned long long>(sat_r->events_admitted),
              sat_r->wall_seconds, chunks.c_str(), sat_eps,
              static_cast<double>(merged_batch_events));

  // Phase 4 (reads not beside ingest): open-loop reads after ingest.
  std::vector<LatencyHistogram> read_windows = fixed_r->read_windows;
  uint64_t queries = fixed_r->read_count;
  if (!w.reads_with_ingest) {
    const uint64_t total =
        static_cast<uint64_t>(w.query_rate * 0.2 * args.seconds);
    const uint64_t windows = std::max<uint64_t>(1, total / kReadWindowSize);
    const uint64_t per_window = total / windows;
    const int64_t span = spans.Begin("phase.reads");
    for (size_t c = 0; c < windows; ++c) {
      Result<LatencyHistogram> h =
          QueryProbe(served.port, pool, per_window, w.query_rate,
                     schedule_seed + 200 + c);
      if (!h.ok()) return fail(h.status());
      read_windows.push_back(*h);
      queries += per_window;
    }
    spans.End(span);
  }
  LatencyHistogram query_latency;
  for (const LatencyHistogram& h : read_windows) query_latency.Merge(h);
  // Serving is over: the peak since the set-ups is the server's, plus
  // the harness's unsent frames and latency histograms.
  const double rss_peak_mb = PeakRssMb();

  Result<MetricsSnapshot> scrape_end = MetricsSnapshot{};
  if (args.trace) {
    scrape_end = control->Metrics();
    if (!scrape_end.ok()) return fail(scrape_end.status());
  }
  control.reset();
  const CoalescerStats coalescer = served.server->coalescer_stats();
  served.server->Stop();

  // --- Correctness: wire totals vs the sequential reference ----------------
  const uint64_t grants = fl.grants + sat_r->grants;
  const uint64_t denials = fl.denials + sat_r->denials;
  const uint64_t alerts = fl.alerts + sat_r->alerts;
  const uint64_t refused_frames =
      fl.quota_refused_frames + sat_r->quota_refused_frames;
  bool correct = true;
  auto mismatch = [&correct](const std::string& what) {
    std::fprintf(stderr, "perfbench: correctness mismatch: %s\n",
                 what.c_str());
    correct = false;
  };

  // The reference is the same world and frames generated again from the
  // seed, so no copy of them was resident while the server ran.
  Result<LoadScenario> generated =
      BuildScenario(w, args.seed, fixed_events + sat_events);
  if (!generated.ok()) return fail(generated.status());
  const SystemState& reference = generated->initial;
  const EngineOptions& engine_options = generated->engine;
  std::vector<std::vector<AccessEvent>> frames = FlattenScenarioFrames(
      Take(&*generated, 0, frames_per_stream_fixed));
  {
    std::vector<std::vector<AccessEvent>> tail = FlattenScenarioFrames(
        Take(&*generated, frames_per_stream_fixed, kAllFrames));
    frames.insert(frames.end(), std::make_move_iterator(tail.begin()),
                  std::make_move_iterator(tail.end()));
  }

  double decide_ns_per_event = 0.0;
  SequentialReplay replay;
  {
    AuthorizationDatabase auth = reference.auth_db;
    const int64_t span = spans.Begin("replay.core");
    const Clock::time_point t0 = Clock::now();
    replay = ReplayBatchesSequential(reference.graph, &auth,
                                     reference.profiles, frames,
                                     engine_options);
    decide_ns_per_event = static_cast<double>(NanosSince(t0)) /
                          std::max<size_t>(1, replay.events);
    spans.End(span);
  }
  uint64_t ref_grants = 0;
  for (const Decision& d : replay.decisions) ref_grants += d.granted ? 1 : 0;
  if (replay.events != fl.events_sent + sat_r->events_sent) {
    mismatch(StrFormat("%zu events replayed but %llu sent", replay.events,
                       static_cast<unsigned long long>(fl.events_sent +
                                                       sat_r->events_sent)));
  }
  if (refused_frames > 0) {
    mismatch(StrFormat("%llu frames were refused, so the served stream is "
                       "not the replayed one",
                       static_cast<unsigned long long>(refused_frames)));
  }
  if (grants != ref_grants || denials != replay.events - ref_grants ||
      alerts != replay.alerts.size()) {
    mismatch(StrFormat(
        "wire grant/deny/alert %llu/%llu/%llu vs sequential %llu/%llu/%zu",
        static_cast<unsigned long long>(grants),
        static_cast<unsigned long long>(denials),
        static_cast<unsigned long long>(alerts),
        static_cast<unsigned long long>(ref_grants),
        static_cast<unsigned long long>(replay.events - ref_grants),
        replay.alerts.size()));
  }

  // Query answers: the runtime's QueryEngine vs one over the sequential
  // replay's movements. With retention, only the retained window is
  // equivalence-guaranteed, so the pool is re-timed into it.
  std::vector<std::string> check_pool = pool;
  if (w.retention.horizon > 0) {
    check_pool.clear();
    const Chronon from = std::max<Chronon>(0, end_time - w.retention.horizon);
    for (size_t i = 0; i < served.scenario.subjects.size(); ++i) {
      check_pool.push_back(StrFormat(
          "WHERE WAS u%zu AT %lld", i,
          static_cast<long long>(from + static_cast<Chronon>(i) %
                                            (end_time - from + 1))));
    }
  }
  MovementDatabase ref_movements;
  AuthorizationDatabase ref_auth = reference.auth_db;
  {
    AccessControlEngine engine(&reference.graph, &ref_auth, &ref_movements,
                               &reference.profiles, engine_options);
    for (const auto& f : frames) {
      for (const AccessEvent& e : f) ApplyAccessEvent(&engine, e);
    }
  }
  const QueryEngine ref_engine(&reference.graph, &ref_auth, &ref_movements,
                               &reference.profiles);
  const QueryInterpreter ref(&ref_engine, &reference.graph,
                             &reference.profiles, &ref_movements, &ref_auth);
  // Runs every `stride`-th statement of the check pool against `rt`;
  // `inproc` (optional) times each in-process answer.
  uint64_t rows = 0;
  auto check_queries = [&](const AccessRuntime& rt, const char* label,
                           size_t stride, LatencyHistogram* inproc) {
    const QueryInterpreter live(&rt.query(), &rt.graph(), &rt.profiles(),
                                &rt.movements(), &rt.auth_db());
    for (size_t i = 0; i < check_pool.size(); i += stride) {
      const std::string& q = check_pool[i];
      const Clock::time_point t0 = Clock::now();
      Result<QueryResult> got = live.Run(q);
      if (inproc != nullptr) inproc->Record(NanosSince(t0));
      Result<QueryResult> want = ref.Run(q);
      if (!got.ok() || !want.ok()) {
        mismatch(std::string(label) + " query '" + q + "' failed: " +
                 (got.ok() ? want.status() : got.status()).ToString());
        return;
      }
      if (inproc != nullptr) rows += got->rows.size();
      if (got->columns != want->columns ||
          SortedRows(*got) != SortedRows(*want)) {
        mismatch(std::string(label) + " query '" + q +
                 "' answered differently than the sequential reference");
        return;
      }
    }
  };
  LatencyHistogram inproc;
  {
    const int64_t span = spans.Begin("replay.query");
    check_queries(*served.runtime, "live", 1, &inproc);
    spans.End(span);
  }
  if (!correct) return kExitIncorrect;

  // --- Storage state as the run left it, then recovery ---------------------
  const RuntimeStats stats = served.runtime->Stats();
  const double auth_hit_ratio =
      static_cast<double>(served.runtime->auth_db().cache_hits()) /
      std::max<uint64_t>(1, served.runtime->auth_db().cache_hits() +
                                served.runtime->auth_db().cache_misses());
  served.server.reset();
  served.runtime.reset();
  const uint64_t disk_bytes = DirBytes(served.dir);
  const uint64_t wal_bytes = DirBytes(
      served.dir, [](const std::string& n) { return EndsWith(n, ".wal"); });
  const uint64_t snapshot_bytes = DirBytes(
      served.dir, [](const std::string& n) { return EndsWith(n, ".snap"); });
  const uint64_t events_admitted = fl.events_admitted + sat_r->events_admitted;

  RuntimeOptions recover_opt = served.options;
  recover_opt.metrics = nullptr;
  recover_opt.durability.metrics = nullptr;
  std::vector<double> recovery_s;
  for (int r = 0; r < kRecoveries; ++r) {
    const int64_t span = spans.Begin("recovery");
    const Clock::time_point t0 = Clock::now();
    // The directory's committed state wins over this empty world.
    SystemState empty;
    Result<std::unique_ptr<AccessRuntime>> rt =
        AccessRuntime::Open(std::move(empty), recover_opt);
    recovery_s.push_back(SecondsSince(t0));
    spans.End(span);
    if (!rt.ok()) return fail(rt.status());
    // Acknowledged events must be readable after the restart; a sample
    // of the pool checks that without doubling the check's cost.
    if (r == 0) {
      check_queries(**rt, "recovered", kRecoveredCheckStride, nullptr);
    }
    if (!correct) return kExitIncorrect;
  }

  PrintSamples("recoveries [s]", recovery_s);

  // --- Traced run: the replay ladder ---------------------------------------
  LadderResult ladder;
  if (args.trace) {
    LadderInput in;
    in.world = &reference;
    in.runtime_options = served.options;
    in.frames = &frames;
    in.merged_batch_events = merged_batch_events;
    in.scratch_dir = args.work_dir;
    Result<LadderResult> l = RunLadder(in, &spans);
    if (!l.ok()) return fail(l.status());
    ladder = *l;
  }

  // --- Metrics ---------------------------------------------------------------
  // A failed read or checkpoint aborts the run, so only refusals remain
  // to count here (and those already failed the correctness check).
  const uint64_t attempted = fl.frames_sent + sat_r->frames_sent + queries +
                             checkpoints.ms.size();
  const uint64_t failed = refused_frames;

  // The gated end-to-end metrics (BENCHMARK.json) and, printed beside
  // them, checkpoint and recovery time, the tail percentiles and the
  // failure ratio. Those are not gated: on a shared VM their run-to-run
  // spread was wider than the largest bound a gate may have (README.md).
  MetricSet e2e;
  e2e.Add("setup_s", Median(setup_s), "s");
  e2e.Add("ingest_p50_ms",
          WindowedQuantileMs(fixed_r->ingest_windows,
                             fixed_r->refused_windows,
                             fixed_r->wall_ms_windows, 0.5),
          "ms");
  e2e.Add("ingest_sat_eps", sat_eps, "events/s");
  e2e.Add("query_p50_ms", WindowedQuantileMs(read_windows, {}, {}, 0.5),
          "ms");
  e2e.Add("rss_peak_mb", rss_peak_mb, "MB");
  e2e.Add("disk_bytes_per_event",
          static_cast<double>(disk_bytes) /
              std::max<uint64_t>(1, events_admitted),
          "B");
  MetricSet printed;
  if (!checkpoints.ms.empty()) {
    printed.Add("checkpoint_p50_ms", Median(checkpoints.ms), "ms");
  }
  printed.Add("recovery_s", Median(recovery_s), "s");
  for (const double q : {0.90, 0.99}) {
    printed.Add(StrFormat("ingest_p%.0f_ms", q * 100),
                WindowedQuantileMs(fixed_r->ingest_windows,
                                   fixed_r->refused_windows,
                                   fixed_r->wall_ms_windows, q),
                "ms");
    printed.Add(StrFormat("query_p%.0f_ms", q * 100),
                WindowedQuantileMs(read_windows, {}, {}, q), "ms");
  }
  printed.Add("ops_failed_ratio",
              static_cast<double>(failed) / std::max<uint64_t>(1, attempted),
              "ratio");

  std::printf("samples: ingest=%llu (+%llu refused, %zu windows) "
              "queries=%llu (%zu windows) checkpoints=%zu setups=%zu "
              "recoveries=%zu saturation_chunks=%zu\n",
              static_cast<unsigned long long>(fl.ingest_latency.count()),
              static_cast<unsigned long long>(fl.quota_refused_frames),
              fixed_r->ingest_windows.size(),
              static_cast<unsigned long long>(query_latency.count()),
              read_windows.size(), checkpoints.ms.size(), setup_s.size(),
              recovery_s.size(), chunk_eps.size());
  std::printf("ops: attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (const MetricSet* set : {&e2e, &printed}) {
    for (const auto& [name, vu] : set->values()) {
      PrintMetric(name, vu.first, vu.second);
    }
  }

  if (!args.trace) {
    PrintResult(attempted, failed, e2e);
    return 0;
  }

  const MetricsSnapshot& a = *scrape_fixed;
  const MetricsSnapshot& b = *scrape_end;
  const double traced_p50_ms =
      WindowedQuantileMs(fixed_r->ingest_windows, fixed_r->refused_windows,
                         fixed_r->wall_ms_windows, 0.5);
  const LatencyHistogram* server_e2e = FindHistogram(a, "ingest.e2e");
  const double client_sum = static_cast<double>(fl.ingest_latency.sum());
  const double e2e_ns = sat_eps > 0 ? 1e9 / sat_eps : 0.0;
  const double core = decide_ns_per_event;
  const double engine = ladder.evaluate_ns_per_event - core;
  const double runtime = ladder.apply_mem_ns_per_event -
                         ladder.evaluate_ns_per_event;
  const double durable = ladder.apply_durable_ns_per_event -
                         ladder.apply_mem_ns_per_event;
  const double wire =
      ladder.wire_encode_ns_per_event + ladder.wire_decode_ns_per_event;
  const double explained = core + engine + runtime + durable + wire;
  std::printf(
      "ladder (ns/event, self): core=%.1f engine=%.1f runtime=%.1f "
      "durable=%.1f wire=%.1f sum=%.1f | end-to-end at saturation=%.1f "
      "residual=%.1f\n",
      core, engine, runtime, durable, wire, explained, e2e_ns,
      e2e_ns - explained);

  MetricSet layer;
  layer.Add("core.decide_ns_per_event", core, "ns");
  layer.Add("core.auth_cache_hit_ratio", auth_hit_ratio, "ratio");
  layer.Add("core.grant_ratio",
            static_cast<double>(ref_grants) /
                std::max<size_t>(1, replay.events),
            "ratio");
  layer.Add("core.alerts", static_cast<double>(replay.alerts.size()),
            "count");
  layer.Add("engine.evaluate_ns_per_event", ladder.evaluate_ns_per_event,
            "ns");
  layer.Add("engine.dispatch_ratio",
            core > 0 ? ladder.evaluate_ns_per_event / core : 0.0, "ratio");
  layer.Add("engine.shard_skew", ladder.shard_skew, "ratio");
  layer.Add("runtime.apply_ns_per_event", ladder.apply_mem_ns_per_event,
            "ns");
  layer.Add("runtime.apply_durable_ns_per_event",
            ladder.apply_durable_ns_per_event, "ns");
  layer.Add("runtime.apply_batch_p50_ms", HistP50Ms(a, "runtime.apply_batch"),
            "ms");
  layer.Add("runtime.checkpoint_p50_ms", HistP50Ms(b, "runtime.checkpoint"),
            "ms");
  layer.Add("storage.wal_sync_count",
            static_cast<double>(HistCount(b, "wal.sync")), "count");
  layer.Add("storage.wal_sync_p50_ms", HistP50Ms(b, "wal.sync"), "ms");
  layer.Add("storage.fsync_wait_p50_ms", HistP50Ms(b, "ingest.fsync_wait"),
            "ms");
  layer.Add("storage.wal_bytes_per_event",
            static_cast<double>(wal_bytes) /
                std::max<size_t>(1, stats.wal_events),
            "B");
  layer.Add("storage.recovery_replayed_events",
            static_cast<double>(stats.wal_events), "count");
  layer.Add("storage.snapshot_bytes", static_cast<double>(snapshot_bytes),
            "B");
  layer.Add("storage.checkpoint_bytes_written",
            checkpoints.ms.empty()
                ? 0.0
                : static_cast<double>(checkpoints.bytes_written) /
                      checkpoints.ms.size(),
            "B");
  layer.Add("storage.dirty_segments",
            static_cast<double>(stats.checkpoint_dirty_segments), "count");
  layer.Add("storage.cold_segments", static_cast<double>(stats.cold_segments),
            "count");
  layer.Add("storage.cold_bytes", static_cast<double>(stats.cold_bytes), "B");
  layer.Add("storage.compaction_runs",
            static_cast<double>(stats.compaction_runs), "count");
  layer.Add("storage.dropped_events",
            static_cast<double>(stats.dropped_events), "count");
  layer.Add("storage.durable_lag_max",
            static_cast<double>(ladder.durable_lag_max), "records");
  layer.Add("service.queue_wait_p50_ms", HistP50Ms(a, "ingest.queue_wait"),
            "ms");
  layer.Add("service.apply_p50_ms", HistP50Ms(a, "ingest.apply"), "ms");
  layer.Add("service.e2e_p50_ms", HistP50Ms(a, "ingest.e2e"), "ms");
  layer.Add("service.unattributed_share",
            server_e2e == nullptr || client_sum <= 0
                ? 0.0
                : 1.0 - static_cast<double>(server_e2e->sum()) / client_sum,
            "ratio");
  layer.Add("service.frames_per_merge",
            static_cast<double>(coalescer.merged_frames) /
                std::max<size_t>(1, coalescer.merged_batches),
            "frames");
  layer.Add("service.wire_encode_ns_per_event",
            ladder.wire_encode_ns_per_event, "ns");
  layer.Add("service.wire_decode_ns_per_event",
            ladder.wire_decode_ns_per_event, "ns");
  layer.Add("service.quota_refusals",
            static_cast<double>(CounterValue(b, "ingest.quota_refusals")),
            "count");
  layer.Add("query.run_p50_ms", HistP50Ms(b, "query.run"), "ms");
  layer.Add("query.inproc_p50_ms", QuantileMs(inproc, 0, 0.5), "ms");
  layer.Add("query.rows_per_query",
            static_cast<double>(rows) /
                std::max<size_t>(1, check_pool.size()),
            "rows");
  layer.Add("loadgen.late_send_ratio", late_ratio, "ratio");
  layer.Add("loadgen.sched_lag_max_ms", lag_max_ms, "ms");
  layer.Add("trace.overhead_ratio",
            untraced_p50_ms > 0 ? traced_p50_ms / untraced_p50_ms : 0.0,
            "ratio");
  layer.Add("ladder.e2e_ns_per_event", e2e_ns, "ns");
  layer.Add("ladder.residual_ns_per_event", e2e_ns - explained, "ns");
  for (const auto& [name, vu] : layer.values()) {
    PrintMetric(name, vu.first, vu.second);
  }

  const std::string span_path =
      StrFormat("%s/spans-%s-seed%llu.tsv", args.work_dir.c_str(), w.name,
                static_cast<unsigned long long>(args.seed));
  Status written = spans.WriteTsv(span_path);
  if (!written.ok()) return fail(written);
  std::printf("spans: %s\n", span_path.c_str());
  PrintResult(attempted, failed, layer);
  return 0;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return kExitUsage;
    }
  }
  if (argc % 2 != 1 || args.workload.empty() || args.work_dir.empty() ||
      args.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: ltam_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--commit SHA]\n");
    return kExitUsage;
  }
  SetLogLevel(LogLevel::kWarning);
  return Run(args);
}

}  // namespace
}  // namespace perfbench
}  // namespace ltam

int main(int argc, char** argv) { return ltam::perfbench::Main(argc, argv); }
