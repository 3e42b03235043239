// Copyright 2026 The LTAM Authors.
// The replay ladder of the traced run: the served run's frames go
// through each layer's public entry point on their own — sequential
// engine, sharded engine, runtime in memory, runtime durable, wire
// codec — so per-event self costs can be read off as differences.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "engine/sharded_engine.h"
#include "perfbench.h"
#include "service/protocol.h"

namespace ltam {
namespace perfbench {

int64_t SpanLog::Begin(std::string name, int64_t parent, int64_t frame) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::move(name);
  s.start_ns = NanosSince(origin_);
  s.parent = parent;
  s.frame = frame;
  spans_.push_back(std::move(s));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanLog::End(int64_t id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns = NanosSince(origin_);
}

Status SpanLog::WriteTsv(const std::string& path) const {
  // Self time = duration minus the part direct children cover. Children
  // of one span run sequentially here (one control thread), so what
  // they cover is their summed duration.
  std::vector<uint64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      covered[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write " + path);
  std::fprintf(f, "id\tparent\tframe\tname\tstart_ns\tend_ns\tself_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const uint64_t duration = s.end_ns - s.start_ns;
    std::fprintf(f, "%zu\t%lld\t%lld\t%s\t%llu\t%llu\t%llu\n", i,
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.frame), s.name.c_str(),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(
                     duration > covered[i] ? duration - covered[i] : 0));
  }
  if (std::fclose(f) != 0) return Status::IOError("cannot close " + path);
  return Status::OK();
}

double QuantileMs(const LatencyHistogram& h, uint64_t missing, double q,
                  double missing_ms) {
  const uint64_t total = h.count() + missing;
  if (total == 0) return 0.0;
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(total))));
  if (rank > h.count()) return missing_ms;
  // The rank-th smallest recorded sample: a quantile whose ceil(q * count)
  // is exactly `rank`.
  const double within = (static_cast<double>(rank) - 0.5) /
                        static_cast<double>(h.count());
  return static_cast<double>(h.Quantile(within)) / 1e6;
}

namespace {

/// Concatenates consecutive frames into batches of at least
/// `target_events` — the merged batch the coalescer would have built.
std::vector<std::vector<AccessEvent>> GroupFrames(
    const std::vector<std::vector<AccessEvent>>& frames,
    size_t target_events) {
  std::vector<std::vector<AccessEvent>> out;
  std::vector<AccessEvent> cur;
  for (const auto& f : frames) {
    cur.insert(cur.end(), f.begin(), f.end());
    if (cur.size() >= target_events) {
      out.push_back(std::move(cur));
      cur.clear();
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

bool SameDecisions(const std::vector<Decision>& a,
                   const std::vector<Decision>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].granted != b[i].granted || a[i].auth != b[i].auth ||
        a[i].reason != b[i].reason) {
      return false;
    }
  }
  return true;
}

double NsPerEvent(uint64_t ns, size_t events) {
  return events == 0 ? 0.0
                     : static_cast<double>(ns) / static_cast<double>(events);
}

}  // namespace

Result<LadderResult> RunLadder(const LadderInput& input, SpanLog* spans) {
  LadderResult out;
  const std::vector<std::vector<AccessEvent>> batches = GroupFrames(
      *input.frames, std::max<size_t>(1, input.merged_batch_events));
  size_t events = 0;
  for (const auto& b : batches) events += b.size();
  const uint32_t shards =
      std::max<uint32_t>(1, input.runtime_options.num_shards);

  // engine: ShardedDecisionEngine::EvaluateBatch over a fresh ledger.
  std::vector<std::vector<Decision>> decisions;
  decisions.reserve(batches.size());
  {
    AuthorizationDatabase auth = input.world->auth_db;
    ShardedEngineOptions opt;
    opt.num_shards = shards;
    opt.engine = input.runtime_options.engine;
    ShardedDecisionEngine engine(&input.world->graph, &auth,
                                 &input.world->profiles, opt);
    double skew_sum = 0.0;
    const int64_t layer = spans->Begin("replay.engine");
    uint64_t busy = 0;
    for (size_t i = 0; i < batches.size(); ++i) {
      const std::vector<AccessEvent>& b = batches[i];
      const int64_t id = spans->Begin("engine.evaluate_batch", layer,
                                      static_cast<int64_t>(i));
      const Clock::time_point b0 = Clock::now();
      decisions.push_back(
          engine.EvaluateBatch(Span<const AccessEvent>(b.data(), b.size())));
      busy += NanosSince(b0);
      spans->End(id);
      std::vector<size_t> per_shard(shards, 0);
      for (const AccessEvent& e : b) {
        ++per_shard[ShardedDecisionEngine::ShardOfSubject(e.subject, shards)];
      }
      const double mean = static_cast<double>(b.size()) / shards;
      skew_sum += static_cast<double>(
                      *std::max_element(per_shard.begin(), per_shard.end())) /
                  mean;
    }
    spans->End(layer);
    out.evaluate_ns_per_event = NsPerEvent(busy, events);
    out.shard_skew = batches.empty() ? 0.0 : skew_sum / batches.size();
  }

  // runtime: AccessRuntime::ApplyBatch, in memory then durable, with the
  // served run's shard count, engine and retention options.
  for (const bool durable : {false, true}) {
    RuntimeOptions opt = input.runtime_options;
    opt.metrics = nullptr;
    opt.durability.metrics = nullptr;
    std::string dir;
    if (durable) {
      dir = input.scratch_dir + "/replay-durable";
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
      std::filesystem::create_directories(dir, ec);
      if (ec) return Status::IOError("cannot create " + dir);
      opt.durable_dir = dir;
    } else {
      opt.durable_dir.reset();
      opt.retention = RetentionOptions{};
    }
    LTAM_ASSIGN_OR_RETURN(std::unique_ptr<AccessRuntime> rt,
                          AccessRuntime::Open(*input.world, opt));
    const int64_t layer =
        spans->Begin(durable ? "replay.runtime_durable" : "replay.runtime");
    uint64_t busy = 0;
    for (size_t i = 0; i < batches.size(); ++i) {
      const std::vector<AccessEvent>& b = batches[i];
      const int64_t id = spans->Begin("runtime.apply_batch", layer,
                                      static_cast<int64_t>(i));
      const Clock::time_point b0 = Clock::now();
      LTAM_ASSIGN_OR_RETURN(
          BatchResult r,
          rt->ApplyBatch(Span<const AccessEvent>(b.data(), b.size())));
      busy += NanosSince(b0);
      spans->End(id);
      if (!r.durability.ok()) return r.durability;
      if (!SameDecisions(r.decisions, decisions[i])) {
        return Status::Internal(
            "runtime replay decisions differ from the sharded engine's");
      }
      out.durable_lag_max =
          std::max(out.durable_lag_max,
                   r.watermark.applied - r.watermark.durable);
    }
    if (durable) {
      // The durable layer's cost includes getting the tail on disk.
      const int64_t id = spans->Begin("runtime.wait_durable", layer);
      const Clock::time_point w0 = Clock::now();
      LTAM_RETURN_IF_ERROR(rt->WaitDurable());
      busy += NanosSince(w0);
      spans->End(id);
    }
    spans->End(layer);
    rt.reset();
    if (durable) {
      out.apply_durable_ns_per_event = NsPerEvent(busy, events);
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    } else {
      out.apply_mem_ns_per_event = NsPerEvent(busy, events);
    }
  }

  // wire: the ApplyBatch request and BatchResult response codecs, both
  // directions, on the same batches and their decisions.
  {
    const int64_t layer = spans->Begin("replay.wire");
    uint64_t encode = 0;
    uint64_t decode = 0;
    for (size_t i = 0; i < batches.size(); ++i) {
      const std::vector<AccessEvent>& b = batches[i];
      const int64_t id =
          spans->Begin("wire.codec", layer, static_cast<int64_t>(i));
      WireBatchResult result;
      result.decisions = decisions[i];
      Clock::time_point t0 = Clock::now();
      const std::string request =
          EncodeApplyBatchRequest(Span<const AccessEvent>(b.data(), b.size()));
      const std::string response = EncodeBatchResult(result);
      encode += NanosSince(t0);
      t0 = Clock::now();
      Result<std::vector<AccessEvent>> req = DecodeApplyBatchRequest(request);
      Result<WireBatchResult> resp = DecodeBatchResult(response);
      decode += NanosSince(t0);
      spans->End(id);
      if (!req.ok()) return req.status();
      if (!resp.ok()) return resp.status();
      if (req->size() != b.size() ||
          resp->decisions.size() != result.decisions.size()) {
        return Status::Internal("wire codec round trip lost events");
      }
    }
    spans->End(layer);
    out.wire_encode_ns_per_event = NsPerEvent(encode, events);
    out.wire_decode_ns_per_event = NsPerEvent(decode, events);
  }
  return out;
}

}  // namespace perfbench
}  // namespace ltam
