// Copyright 2026 The LTAM Authors.
// Shared pieces of the served-workload benchmark (perfbench.cc drives
// the served run; ladder.cc replays the same frames layer by layer).

#ifndef LTAM_PERFBENCH_PERFBENCH_H_
#define LTAM_PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "engine/access_control_engine.h"
#include "engine/events.h"
#include "runtime/access_runtime.h"
#include "storage/snapshot.h"
#include "telemetry/latency_histogram.h"
#include "util/status.h"

namespace ltam {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t NanosSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

inline double SecondsSince(Clock::time_point start) {
  return static_cast<double>(NanosSince(start)) / 1e9;
}

/// Spans recorded by the benchmark around its calls into each layer
/// (nothing inside src/ is instrumented for this). Kept in memory and
/// written out once, when the run ends. Disabled spans cost one branch.
class SpanLog {
 public:
  struct Span {
    std::string name;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    int64_t parent = -1;  // Index of the causing span; -1 = root.
    int64_t frame = -1;   // Replayed batch index; -1 = not per-frame.
  };

  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Opens a span and returns its id (-1 when disabled).
  int64_t Begin(std::string name, int64_t parent = -1, int64_t frame = -1);
  void End(int64_t id);

  /// One TSV line per span: id, parent, frame, name, start_ns, end_ns,
  /// self_ns.
  Status WriteTsv(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Metrics in print order: name -> (value, unit).
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    values_.push_back({name, {value, unit}});
  }
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  values() const {
    return values_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> values_;
};

/// Quantile of `h` in milliseconds, as LatencyHistogram::Quantile reads
/// it (upper bound of the holding 1/64-octave bucket). `missing` samples
/// count as +infinity — refused or failed requests miss every latency
/// limit — and a rank that lands among them reads as `missing_ms`. 0
/// when there are no samples at all.
double QuantileMs(const LatencyHistogram& h, uint64_t missing, double q,
                  double missing_ms = 0.0);

/// What the served run hands the replay ladder.
struct LadderInput {
  /// The world exactly as the server booted it (generated again from
  /// the seed).
  const SystemState* world = nullptr;
  /// The runtime options the server ran with (durable_dir is replaced).
  RuntimeOptions runtime_options;
  /// Every frame the served run applied, in FlattenScenarioFrames order
  /// per phase, phases concatenated.
  const std::vector<std::vector<AccessEvent>>* frames = nullptr;
  /// Mean events per merged ApplyBatch the coalescer issued in the
  /// saturation phase: the replay batch size.
  size_t merged_batch_events = 0;
  /// Scratch directory for the durable replay (created, then removed).
  std::string scratch_dir;
};

/// Per-event costs of each layer's public entry point on the same
/// frames, cumulative: engine includes core, runtime includes engine.
struct LadderResult {
  double evaluate_ns_per_event = 0.0;  // ShardedDecisionEngine, 2 shards.
  double shard_skew = 0.0;             // max / mean events per shard.
  double apply_mem_ns_per_event = 0.0;      // AccessRuntime, in memory.
  double apply_durable_ns_per_event = 0.0;  // AccessRuntime, durable.
  uint64_t durable_lag_max = 0;        // applied - durable, worst batch.
  double wire_encode_ns_per_event = 0.0;
  double wire_decode_ns_per_event = 0.0;
};

/// Replays input.frames through each layer, recording one span per
/// layer and one child span per replayed batch.
Result<LadderResult> RunLadder(const LadderInput& input, SpanLog* spans);

}  // namespace perfbench
}  // namespace ltam

#endif  // LTAM_PERFBENCH_PERFBENCH_H_
