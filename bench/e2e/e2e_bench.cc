// e2e_bench — the end-to-end benchmark of cbix. Generated inputs go
// through the public API to ranked matches, the way a user drives it:
//
//   image path    DecodePnm -> FeatureExtractor::Extract ->
//                 ServingEngine::Search
//   bulk load     CbirEngine::AddImagesParallel | AddFeatureVector ->
//                 Save -> ServingEngine::Create + Load
//   ingest        ServingEngine::Insert between Search calls
//
// Usage:
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//             --scratch DIR
//
// Prints one JSON document on stdout: run metadata, correctness checks,
// raw timing series and scalar values. bench/e2e/run.py turns it into
// the named metrics of BENCHMARK.json (percentiles, medians): this
// file measures, run.py summarizes. README.md explains the workloads
// and every metric. Exits 1 when a correctness check fails, 2 on a
// usage or set-up error.
//
// Inputs: each workload's collection (corpus images, preloaded rows)
// and its evaluation queries are fixed; --seed draws the traffic (the
// timed queries and the inserted rows). Timings come from the traffic;
// distance evaluations and retrieval quality from the evaluation
// queries, so they move only when the code does.
//
// Per-layer numbers come from the production instruments: the span
// tree of sampled calls (SearchOptions::trace_every_n -> ServeReply::
// trace) and the MetricsRegistry handed in through ServingOptions::
// metrics. The benchmark times only the public calls no span covers:
// decode, extract, Insert and Load.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/retrieval_metrics.h"
#include "core/serving.h"
#include "corpus/corpus.h"
#include "features/extractor.h"
#include "image/pnm_codec.h"
#include "index/linear_scan.h"
#include "index/query_block.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "simd/dispatch.h"
#include "util/feature_matrix.h"
#include "util/random.h"
#include "util/row_view.h"
#include "util/thread_pool.h"
#include "util/timer.h"

#ifndef CBIX_E2E_BUILD_TYPE
#define CBIX_E2E_BUILD_TYPE "unknown"
#endif

namespace cbix::e2e {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kK = 10;
/// Seeds the collections and the evaluation queries (not --seed).
constexpr uint64_t kCollectionSeed = 1994;
/// setup_s is the median of at least this many complete set-ups per
/// run, and of as many as fill kMinSetupSeconds: the cheapest set-ups
/// (tens of ms, mostly parallel shard builds) vary the most.
constexpr size_t kSetupReps = 5;
constexpr double kMinSetupSeconds = 1.0;
/// Timed requests per run, at least: a p99 needs ten samples beyond
/// it. A run lasts until its timed requests have taken --seconds in all
/// or until this many, whichever is later.
constexpr size_t kMinRequests = 1000;
/// Untimed requests before the clock starts (caches, lazy set-up).
constexpr size_t kWarmupRequests = 32;
/// A run that cannot reach its minimum number of requests within this
/// many times --seconds (10 s at least) fails instead of reporting a
/// percentile it does not support.
constexpr double kMaxRunFactor = 6.0;
/// In the traced run every other Search call carries a span tree; the
/// calls between them are the untraced baseline of the overhead.
constexpr size_t kTraceEveryN = 2;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// The CPUs this process may run on, as it started (before the timed
/// phase pins its threads).
const cpu_set_t& AllowedCpus() {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) {
      const unsigned n = std::max(1u, std::thread::hardware_concurrency());
      for (unsigned c = 0; c < n && c < CPU_SETSIZE; ++c) CPU_SET(c, &set);
    }
    return set;
  }();
  return allowed;
}

size_t OnlineCpus() {
  return static_cast<size_t>(std::max(1, CPU_COUNT(&AllowedCpus())));
}

/// Workers of set-up (extraction, shard builds), input generation and
/// the oracles: min(4, nproc).
size_t SetupThreads() { return std::min<size_t>(4, OnlineCpus()); }

/// Binds the calling thread, and every thread it starts from then on,
/// to `cpu`.
void PinThread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    std::fprintf(stderr, "e2e_bench: cannot bind a thread to CPU %d\n", cpu);
  }
}

/// Lets the calling thread run on every CPU of AllowedCpus() again.
void UnpinThread() {
  if (sched_setaffinity(0, sizeof(cpu_set_t), &AllowedCpus()) != 0) {
    std::fprintf(stderr, "e2e_bench: cannot unbind a thread\n");
  }
}

/// The allowed CPU after `cpu` (`cpu` itself when it is the only one).
int NextCpu(int cpu) {
  for (int step = 1; step <= CPU_SETSIZE; ++step) {
    const int c = (cpu + step) % CPU_SETSIZE;
    if (CPU_ISSET(c, &AllowedCpus())) return c;
  }
  return cpu;
}

/// Search workers of the engine while it is timed. Every Search call
/// starts a pool of this many and joins it; one worker runs the shards
/// in turn. On a shared 4-vCPU virtual machine (Intel Xeon), work split
/// across two or four workers was the noisiest thing the host did: over
/// eight to ten runs of one workload the median latency spread by
/// 16-33% with two or four workers and by 5-10% with one.
constexpr size_t kSearchThreads = 1;

/// While the clock runs, the client thread is bound to one CPU at a time
/// and moves to the next allowed CPU every kRotateMs. The threads a call
/// starts (the engine's search worker, a merge's build worker) inherit
/// that CPU, so no call hands work across CPUs, and every CPU serves an
/// equal share of every second. On the shared virtual machine above, one
/// 16-query call took either about 2.8 ms or about 5 ms, depending on
/// which CPU ran it and when: bound to one CPU for a whole run, the
/// run's throughput spread by 25-53% over eight runs; left to the
/// scheduler, by 13-14%, with a cross-CPU hand-off on every call;
/// rotating, by 5-14%. The share of slow stretches still drifts over
/// minutes, which is why the end-to-end latency is a low percentile
/// (run.py), the latency of a request the host left alone.
constexpr double kRotateMs = 50.0;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "e2e_bench: %s\n", what.c_str());
  std::exit(2);
}

void DieIf(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

/// Peak resident memory of this process image, from VmHWM in
/// /proc/self/status. Not getrusage's ru_maxrss: that survives execve,
/// so it also holds the peak of whatever process spawned this one.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) Die("cannot open /proc/self/status");
  char line[256];
  double kib = -1.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  if (kib < 0.0) Die("no VmHWM in /proc/self/status");
  return kib / 1024.0;
}

/// Total length of the union of [begin, end) intervals.
double UnionMs(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double cur_begin = 0.0;
  double cur_end = 0.0;
  bool open = false;
  for (const auto& [begin, end] : intervals) {
    if (open && begin <= cur_end) {
      cur_end = std::max(cur_end, end);
      continue;
    }
    if (open) total += cur_end - cur_begin;
    cur_begin = begin;
    cur_end = end;
    open = true;
  }
  if (open) total += cur_end - cur_begin;
  return total;
}

/// Runs fn(i) for i in [0, n) on a pool of SetupThreads() workers.
template <typename Fn>
void ParallelFor(size_t n, const Fn& fn, const std::string& what) {
  ThreadPool pool(SetupThreads());
  DieIf(pool.ParallelFor(n, fn), what);
}

// ---------------------------------------------------------------------------
// What one run reports.

/// Rows of the traced critical-path table. They tile each traced
/// request: the benchmark's stage timers, the part of its outer timer
/// no span covers, the root span's time not covered by its children,
/// the engine span split around the last shard to finish, and the
/// delta scan. Their sum is the request's measured wall time.
enum PathRow {
  kPathDecode,
  kPathExtract,
  kPathClientGap,
  kPathServingSelf,
  kPathQueueWait,
  kPathShard,
  kPathEngineSelf,
  kPathDelta,
  kPathRows,
};
constexpr const char* kPathRowNames[kPathRows] = {
    "image.decode",         "features.extract",
    "client.gap",           "serving.self",
    "engine.queue_wait",    "shard.last_to_finish",
    "engine.self_after_join", "serving.delta",
};

struct Report {
  std::vector<std::pair<std::string, std::string>> failures;
  std::vector<std::string> passed;
  std::map<std::string, std::vector<double>> series;
  std::map<std::string, double> values;
  std::map<std::string, double> meta;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  double path_ms[kPathRows] = {};
  double path_wall_ms = 0.0;
  size_t path_requests = 0;

  void Check(const std::string& name, bool ok, const std::string& detail) {
    if (ok) {
      passed.push_back(name);
    } else {
      failures.emplace_back(name, detail);
    }
  }
};

/// Totals of the timed Search calls.
struct SearchTotals {
  uint64_t calls = 0;
  uint64_t queries = 0;
  SearchStats stats;
  /// Delta-scan evaluations inside `stats`: the serving layer adds
  /// them to a reply's stats, but only the sealed engine records into
  /// cbix.engine.distance_evals.
  uint64_t delta_evals = 0;
  /// Sums over sampled calls for the ratio-of-totals metrics.
  double root_ms = 0.0;
  double delta_ms = 0.0;
  double shard_ms = 0.0;
  double shard_evals = 0.0;
};

/// Folds one sampled call's span tree into the per-layer series and
/// the critical-path table. `wall_ms` is the request's latency as the
/// benchmark timed it, `decode_ms`/`extract_ms` the stages it timed
/// before Search (zero for vector requests).
void RecordTrace(const QueryTrace& trace, double wall_ms, double decode_ms,
                 double extract_ms, Report* r, SearchTotals* t) {
  const TraceSpan& root = trace.root();
  const TraceSpan* knn = nullptr;
  const TraceSpan* delta = nullptr;
  std::vector<std::pair<double, double>> children;
  for (const TraceSpan& c : root.children) {
    children.emplace_back(c.start_ms, c.start_ms + c.duration_ms);
    if (c.name == "engine.knn_batch") knn = &c;
    if (c.name == "serve.delta") delta = &c;
  }
  const double serving_self = root.duration_ms - UnionMs(children);
  const double gap = wall_ms - decode_ms - extract_ms - root.duration_ms;
  r->series["serving.self_ms"].push_back(serving_self);
  r->series["client.gap_ms"].push_back(gap);
  r->series["serving.delta_rows"].push_back(
      delta != nullptr ? delta->Attr("rows") : 0.0);
  t->root_ms += root.duration_ms;

  double* path = r->path_ms;
  path[kPathDecode] += decode_ms;
  path[kPathExtract] += extract_ms;
  path[kPathClientGap] += gap;
  path[kPathServingSelf] += serving_self;
  r->path_wall_ms += wall_ms;
  ++r->path_requests;
  if (delta != nullptr) {
    path[kPathDelta] += delta->duration_ms;
    t->delta_ms += delta->duration_ms;
  }
  if (knn == nullptr || knn->children.empty()) return;

  std::vector<std::pair<double, double>> shards;
  const TraceSpan* last = &knn->children.front();
  double wait_sum = 0.0;
  double dur_sum = 0.0;
  double dur_max = 0.0;
  for (const TraceSpan& s : knn->children) {
    shards.emplace_back(s.start_ms, s.start_ms + s.duration_ms);
    if (s.start_ms + s.duration_ms > last->start_ms + last->duration_ms) {
      last = &s;
    }
    wait_sum += s.start_ms - knn->start_ms;
    dur_sum += s.duration_ms;
    dur_max = std::max(dur_max, s.duration_ms);
    r->series["index.shard_ms"].push_back(s.duration_ms);
    t->shard_evals += s.Attr("distance_evals") + s.Attr("rerank_evals");
  }
  const double n = static_cast<double>(knn->children.size());
  const double last_end = last->start_ms + last->duration_ms;
  t->shard_ms += dur_sum;
  r->series["engine.knn_batch_ms"].push_back(knn->duration_ms);
  r->series["engine.self_ms"].push_back(knn->duration_ms - UnionMs(shards));
  r->series["engine.queue_wait_ms"].push_back(wait_sum / n);
  r->series["engine.shard_skew"].push_back(
      dur_sum > 0.0 ? dur_max / (dur_sum / n) : 1.0);
  path[kPathQueueWait] += last->start_ms - knn->start_ms;
  path[kPathShard] += last->duration_ms;
  path[kPathEngineSelf] += knn->start_ms + knn->duration_ms - last_end;
}

/// Accounts one timed Search call: failure or degradation, stats
/// totals, the benchmark's timer around Search (split by sampled or
/// not), and the span tree when the call was sampled. Returns the
/// number of queries it answered (0 when it failed or degraded).
size_t RecordCall(const Result<ServeReply>& reply, double search_ms,
                  double wall_ms, double decode_ms, double extract_ms,
                  Report* r, SearchTotals* t) {
  ++t->calls;
  ++r->attempted;
  r->series["serving.search_ms"].push_back(search_ms);
  if (!reply.ok() || reply->degraded) {
    ++r->failed;
    return 0;
  }
  for (const SearchStats& s : reply->stats) t->stats += s;
  t->queries += reply->stats.size();
  if (reply->trace != nullptr) {
    r->series["serving.search_ms_traced"].push_back(search_ms);
    RecordTrace(*reply->trace, wall_ms, decode_ms, extract_ms, r, t);
  } else {
    r->series["serving.search_ms_untraced"].push_back(search_ms);
  }
  return reply->stats.size();
}

/// Engine counters from the production registry.
struct RegistryCounts {
  uint64_t batches = 0;
  uint64_t work_items = 0;
  uint64_t failures = 0;
  uint64_t retries = 0;
  uint64_t evals = 0;

  static RegistryCounts Read(MetricsRegistry& m) {
    RegistryCounts c;
    c.batches = m.GetCounter("cbix.engine.batches")->value();
    c.work_items = m.GetCounter("cbix.engine.work_items")->value();
    c.failures = m.GetCounter("cbix.engine.work_item_failures")->value();
    c.retries = m.GetCounter("cbix.engine.retry_attempts")->value();
    c.evals = m.GetCounter("cbix.engine.distance_evals")->value() +
              m.GetCounter("cbix.engine.rerank_evals")->value();
    return c;
  }
};

/// Records the values of the timed phase: the registry deltas between
/// `before` and `after`, the stats and span totals. `corpus_size` is
/// the rows a query searched (their mean when the collection grew).
/// Checks that the registry and the replies agree on the work done (one
/// source of truth).
void RecordTimedPhase(const RegistryCounts& before,
                      const RegistryCounts& after, const SearchTotals& t,
                      double corpus_size, Report* r) {
  const double batches = static_cast<double>(after.batches - before.batches);
  const double q = std::max<double>(1.0, static_cast<double>(t.queries));
  const SearchStats& s = t.stats;
  const double evals = static_cast<double>(s.distance_evals + s.rerank_evals);
  auto& v = r->values;
  v["engine.work_items_per_call"] =
      batches > 0 ? static_cast<double>(after.work_items - before.work_items) /
                        batches
                  : 0.0;
  v["engine.retries"] = static_cast<double>(after.retries - before.retries);
  v["engine.work_item_failures"] =
      static_cast<double>(after.failures - before.failures);
  v["index.distance_evals_per_query"] =
      static_cast<double>(s.distance_evals) / q;
  v["index.evals_fraction"] = evals / q / std::max(1.0, corpus_size);
  v["index.nodes_visited_per_query"] = static_cast<double>(s.nodes_visited) / q;
  v["index.leaves_visited_per_query"] =
      static_cast<double>(s.leaves_visited) / q;
  v["index.ef_survivors_per_query"] = static_cast<double>(s.ef_survivors) / q;
  v["quant.rerank_evals_per_query"] = static_cast<double>(s.rerank_evals) / q;
  v["quant.rerank_share"] =
      evals > 0 ? static_cast<double>(s.rerank_evals) / evals : 0.0;
  v["distance.ns_per_eval"] =
      t.shard_evals > 0 ? t.shard_ms * 1e6 / t.shard_evals : 0.0;
  v["serving.delta_share"] = t.root_ms > 0 ? t.delta_ms / t.root_ms : 0.0;

  const uint64_t sealed_evals =
      s.distance_evals + s.rerank_evals - t.delta_evals;
  r->Check("registry_evals_match_replies",
           after.evals - before.evals == sealed_evals,
           "cbix.engine distance+rerank evals grew by " +
               std::to_string(after.evals - before.evals) +
               ", replies report " + std::to_string(sealed_evals) +
               " outside the delta scan");
  r->Check("registry_batches_match_calls",
           after.batches - before.batches == t.calls,
           "cbix.engine.batches grew by " +
               std::to_string(after.batches - before.batches) + " over " +
               std::to_string(t.calls) + " Search calls");
}

// ---------------------------------------------------------------------------
// Inputs.

/// Vectors with the label (cluster) each was drawn from.
struct LabeledRows {
  std::shared_ptr<FeatureMatrix> rows;
  std::vector<int32_t> labels;
};

struct ClusterShape {
  size_t dim = 0;
  size_t clusters = 0;
  double sigma = 0.0;        ///< per-dimension spread of a cluster
  double query_sigma = 0.0;  ///< noise added to a row to make a query
};

/// Clustered Gaussian rows (the shape of corpus/vector_workload.h's
/// kClustered) labelled with their cluster. The centres depend only on
/// the shape, so rows drawn with any seed share one distribution.
LabeledRows ClusteredRows(const ClusterShape& shape, size_t count,
                          uint64_t seed) {
  Rng centre_rng(kCollectionSeed + shape.dim * 1009 + shape.clusters);
  std::vector<Vec> centres(shape.clusters, Vec(shape.dim));
  for (Vec& c : centres) {
    for (float& x : c) x = static_cast<float>(centre_rng.Uniform(0.15, 0.85));
  }
  LabeledRows out;
  out.rows = std::make_shared<FeatureMatrix>(shape.dim);
  out.rows->Reserve(count);
  out.labels.reserve(count);
  Rng rng(seed);
  Vec v(shape.dim);
  for (size_t i = 0; i < count; ++i) {
    const size_t c = rng.NextBelow(shape.clusters);
    for (size_t j = 0; j < shape.dim; ++j) {
      v[j] = static_cast<float>(centres[c][j] + rng.Gaussian(0.0, shape.sigma));
    }
    out.rows->AppendRow(v);
    out.labels.push_back(static_cast<int32_t>(c));
  }
  return out;
}

/// Query-by-example vectors: a random row plus Gaussian noise, labelled
/// (when `labels` is non-null) with that row's cluster. Every query is
/// distinct.
void PerturbedQueries(const LabeledRows& data, double sigma, size_t count,
                      uint64_t seed, std::vector<Vec>* queries,
                      std::vector<int32_t>* labels) {
  Rng rng(seed);
  for (size_t i = 0; i < count; ++i) {
    const size_t id = rng.NextBelow(data.rows->count());
    Vec q = data.rows->RowVec(id);
    for (float& x : q) x += static_cast<float>(rng.Gaussian(0.0, sigma));
    queries->push_back(std::move(q));
    if (labels != nullptr) labels->push_back(data.labels[id]);
  }
}

/// `prefix` followed by the decimal `i` (a row's name).
std::string RowName(char prefix, size_t i) {
  std::string name(1, prefix);
  name += std::to_string(i);
  return name;
}

/// The bulk-load path of a vector collection: every row through
/// CbirEngine::AddFeatureVector, ids in row order.
Status AddRows(const LabeledRows& data, CbirEngine& engine) {
  for (size_t i = 0; i < data.rows->count(); ++i) {
    CBIX_RETURN_IF_ERROR(engine
                             .AddFeatureVector(data.rows->RowVec(i),
                                               RowName('v', i), data.labels[i])
                             .status());
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Evaluation: cost and quality on the fixed evaluation queries.

/// Exact k-NN by an unsharded linear scan over `rows` (ids = row
/// order), run in tiles on a pool.
std::vector<std::vector<Neighbor>> OracleKnn(
    const std::shared_ptr<FeatureMatrix>& rows, MetricKind metric,
    const std::vector<Vec>& queries, size_t k) {
  LinearScanIndex scan(MakeMetric(metric));
  DieIf(scan.BuildFromRows(RowView(rows)), "oracle build");
  std::vector<std::vector<Neighbor>> out(queries.size());
  if (queries.empty()) return out;
  const QueryBlock block = QueryBlock::Pack(queries);
  std::vector<SearchStats> stats(queries.size());
  constexpr size_t kTile = 16;
  ParallelFor(
      (queries.size() + kTile - 1) / kTile,
      [&](size_t t) {
        const size_t begin = t * kTile;
        const size_t count = std::min(kTile, queries.size() - begin);
        scan.SearchBatch(block.Tile(begin, count), k, out.data() + begin,
                         stats.data() + begin);
      },
      "oracle scan");
  return out;
}

/// Searches the evaluation queries in calls of `batch` (untraced) and
/// records what they cost and how good the answers are:
///   distance_evals_per_query  (distance + rerank evals) per query
///   p_at_10, map_at_10        P@10 and AP@10 (core/retrieval_metrics.h);
///                             an answer is relevant when it shares the
///                             query's label
///   recall_at_10              against an exact linear-scan oracle over
///                             `rows` (ids = row order)
/// and checks them: an exact engine must equal the oracle bit for bit,
/// an approximate one must report the exact distance of every id.
void Evaluate(const ServingEngine& serve, const std::vector<Vec>& queries,
              const std::vector<int32_t>& labels, size_t batch,
              const std::shared_ptr<FeatureMatrix>& rows, MetricKind metric,
              bool exact, Report* r) {
  std::vector<std::vector<ServingEngine::Match>> answers;
  uint64_t evals = 0;
  for (size_t begin = 0; begin < queries.size(); begin += batch) {
    const size_t end = std::min(queries.size(), begin + batch);
    const std::vector<Vec> call(queries.begin() + begin,
                                queries.begin() + end);
    auto reply = serve.Search(call, kK);
    DieIf(reply.status(), "evaluation search");
    for (const SearchStats& s : reply->stats) {
      evals += s.distance_evals + s.rerank_evals;
    }
    for (auto& res : reply->results) answers.push_back(std::move(res));
  }
  const double n = static_cast<double>(std::max<size_t>(1, queries.size()));
  r->values["distance_evals_per_query"] = static_cast<double>(evals) / n;

  double p = 0.0;
  double ap = 0.0;
  for (size_t i = 0; i < answers.size(); ++i) {
    std::vector<int32_t> got;
    for (const auto& m : answers[i]) got.push_back(m.label);
    p += PrecisionAtK(got, labels[i], kK);
    ap += AveragePrecision(got, labels[i], kK);
  }
  r->values["p_at_10"] = p / n;
  r->values["map_at_10"] = ap / n;

  const auto oracle = OracleKnn(rows, metric, queries, kK);
  double hits = 0.0;
  double wanted = 0.0;
  size_t mismatches = 0;
  for (size_t i = 0; i < answers.size(); ++i) {
    const auto& got = answers[i];
    const std::vector<Neighbor>& want = oracle[i];
    bool same = got.size() == want.size();
    for (size_t j = 0; j < want.size(); ++j) {
      hits += std::any_of(got.begin(), got.end(), [&](const auto& m) {
        return m.id == want[j].id;
      });
      same = same && got[j].id == want[j].id &&
             got[j].distance == want[j].distance;
    }
    wanted += static_cast<double>(want.size());
    mismatches += same ? 0 : 1;
  }
  r->values["recall_at_10"] = wanted > 0 ? hits / wanted : 0.0;
  if (exact) {
    r->Check("exact_equals_linear_scan_oracle", mismatches == 0,
             std::to_string(mismatches) + " of " +
                 std::to_string(answers.size()) +
                 " queries differ from the oracle in ids or distances");
    return;
  }
  // Approximate WHICH ids, exact WHAT distance: every returned id
  // carries the linear scan's distance for that id.
  constexpr size_t kDistanceChecks = 16;
  const std::vector<Vec> probe(
      queries.begin(),
      queries.begin() + std::min(kDistanceChecks, queries.size()));
  const auto full = OracleKnn(rows, metric, probe, rows->count());
  size_t wrong = 0;
  std::vector<double> by_id(rows->count());
  for (size_t i = 0; i < probe.size(); ++i) {
    for (const Neighbor& nb : full[i]) by_id[nb.id] = nb.distance;
    for (const auto& m : answers[i]) wrong += m.distance != by_id[m.id];
  }
  r->Check("approximate_ids_carry_exact_distances", wrong == 0,
           std::to_string(wrong) +
               " returned distances differ from the exact distance");
}

// ---------------------------------------------------------------------------
// Set-up and the closed loop.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".";
};

std::string EnginePath(const Args& a) {
  return a.scratch + "/" + a.workload + ".cbix";
}

/// Runs the user's bulk-load path kSetupReps times, and again until the
/// repetitions took kMinSetupSeconds, and keeps the last engine:
/// `populate` fills a CbirEngine (extraction and add), which is saved;
/// a fresh ServingEngine, recording into its own registry, is created
/// and loads the file. Records setup_s and serving.load_s per
/// repetition. `inspect` sees the first populated engine, untimed.
template <typename Populate, typename Inspect>
std::unique_ptr<ServingEngine> SetUp(const FeatureExtractor& extractor,
                                     const ServingOptions& options,
                                     const std::string& path, Report* r,
                                     const Populate& populate,
                                     const Inspect& inspect) {
  std::unique_ptr<ServingEngine> serve;
  double total_s = 0.0;
  for (size_t rep = 0; rep < kSetupReps || total_s < kMinSetupSeconds;
       ++rep) {
    serve.reset();  // one engine resident at a time
    double build_s = 0.0;
    {
      const Timer build_timer;
      CbirEngine engine(extractor, options.engine);
      DieIf(populate(engine), "populate");
      DieIf(engine.Save(path), "save");
      build_s = build_timer.ElapsedSeconds();
      if (rep == 0) inspect(engine);
    }
    ServingOptions rep_options = options;
    rep_options.metrics = std::make_shared<MetricsRegistry>();
    const Timer create_timer;
    auto created = ServingEngine::Create(extractor, rep_options);
    DieIf(created.status(), "create");
    serve = std::move(created).value();
    const Timer load_timer;
    DieIf(serve->Load(path), "load");
    r->series["serving.load_s"].push_back(load_timer.ElapsedSeconds());
    const double setup_s = build_s + create_timer.ElapsedSeconds();
    r->series["setup_s"].push_back(setup_s);
    total_s += setup_s;
    std::remove(path.c_str());
  }
  return serve;
}

/// Timed Search calls a run makes at least: kMinRequests, and in the
/// traced run as many sampled ones.
size_t MinCalls(bool trace) {
  return kMinRequests * (trace ? kTraceEveryN : 1);
}

/// Runs `request(i, timed)` for i = 0, 1, ...: kWarmupRequests untimed,
/// then timed until the timed requests have taken `seconds` and at
/// least `min_requests` of them completed. `between(i)` runs before
/// request i, off the clock (a workload's reset between epochs);
/// `on_start` runs just before the clock starts. A request returns the
/// number of operations it completed (queries answered, rows inserted).
/// The clock is the sum of the timed requests' durations, and client.qps
/// is their operations over it. The client moves across the CPUs as
/// kRotateMs describes.
template <typename Between, typename Request, typename OnStart>
void ClosedLoop(double seconds, size_t min_requests, const Between& between,
                const Request& request, const OnStart& on_start, Report* r) {
  int cpu = std::max(0, sched_getcpu());
  PinThread(cpu);
  for (size_t i = 0; i < kWarmupRequests; ++i) {
    between(i);
    request(i, false);
  }
  on_start();
  const auto start = Clock::now();
  auto switched = start;
  double busy_s = 0.0;
  double ops = 0.0;
  for (size_t done = 0; busy_s < seconds || done < min_requests; ++done) {
    const auto now = Clock::now();
    const double elapsed_s = MsBetween(start, now) / 1e3;
    if (elapsed_s >= std::max(seconds, 10.0) * kMaxRunFactor) {
      Die("only " + std::to_string(done) + " requests in " +
          std::to_string(elapsed_s) + " s; the run needs " +
          std::to_string(min_requests));
    }
    if (MsBetween(switched, now) >= kRotateMs) {
      cpu = NextCpu(cpu);
      PinThread(cpu);
      switched = now;
    }
    between(kWarmupRequests + done);
    const auto t0 = Clock::now();
    ops += static_cast<double>(request(kWarmupRequests + done, true));
    busy_s += MsBetween(t0, Clock::now()) / 1e3;
  }
  UnpinThread();
  r->values["client.qps"] = ops / busy_s;
}

/// No work between requests.
void NoReset(size_t) {}

/// Search options of every timed call: a span tree on every other call
/// in the traced run, none otherwise.
SearchOptions TimedSearchOptions(bool trace) {
  SearchOptions o;
  o.trace_every_n = trace ? kTraceEveryN : 0;
  return o;
}

/// Traffic pool size: enough distinct requests for `seconds` at
/// `rate_cap` requests per second (and for `min_requests`); a faster
/// host wraps around and reuses requests.
size_t PoolSize(double seconds, double rate_cap, size_t min_requests) {
  return kWarmupRequests +
         std::max(min_requests, static_cast<size_t>(seconds * rate_cap));
}

// ---------------------------------------------------------------------------
// Workloads.

/// qbe_image — the paper's user path: an unseen, distorted image in,
/// ten ranked corpus images out. Extraction dominates a request and the
/// index fits in cache.
void RunQbeImage(const Args& args, Report* r) {
  constexpr int kClasses = 40;
  constexpr int kPerClass = 50;
  constexpr int kUnseenPerClass = 10;
  constexpr int kImageSize = 64;
  constexpr float kSeverity = 0.5f;
  constexpr size_t kAsIsChecks = 16;

  // Instances of the 40 fixed classes: 0..49 form the corpus, the next
  // ten are distorted into the evaluation queries, and --seed picks
  // another ten per class, far from both, for the timed traffic.
  CorpusSpec spec;
  spec.num_classes = kClasses;
  spec.images_per_class = kPerClass;
  spec.width = kImageSize;
  spec.height = kImageSize;
  spec.seed = kCollectionSeed;
  const CorpusGenerator gen(spec);
  const int traffic_first =
      1000 + static_cast<int>(Rng(args.seed).NextBelow(1u << 20)) * 16;
  const size_t corpus_size = static_cast<size_t>(kClasses) * kPerClass;
  const size_t unseen_size = static_cast<size_t>(kClasses) * kUnseenPerClass;
  std::vector<LabeledImage> corpus(corpus_size);
  std::vector<LabeledImage> eval_base(unseen_size);
  std::vector<LabeledImage> traffic_base(unseen_size);
  ParallelFor(
      corpus_size + 2 * unseen_size,
      [&](size_t i) {
        if (i < corpus_size) {
          corpus[i] = gen.MakeInstance(static_cast<int>(i) / kPerClass,
                                       static_cast<int>(i) % kPerClass);
          return;
        }
        const size_t j = (i - corpus_size) % unseen_size;
        const bool eval = i < corpus_size + unseen_size;
        const int inst = (eval ? kPerClass : traffic_first) +
                         static_cast<int>(j) % kUnseenPerClass;
        (eval ? eval_base : traffic_base)[j] =
            gen.MakeInstance(static_cast<int>(j) / kUnseenPerClass, inst);
      },
      "corpus generation");

  // A query: a random base image under a random distortion, PNM-encoded,
  // labelled with the base's class.
  auto make_queries = [&](const std::vector<LabeledImage>& base, size_t n,
                          uint64_t seed,
                          std::vector<std::vector<uint8_t>>* pnm,
                          std::vector<int32_t>* labels) {
    pnm->resize(n);
    if (labels != nullptr) labels->resize(n);
    ParallelFor(
        n,
        [&](size_t i) {
          Rng rng(seed * 0x9E3779B97F4A7C15ULL + i);
          const LabeledImage& img = base[rng.NextBelow(base.size())];
          const Distortion d = RandomDistortion(&rng, kSeverity);
          auto bytes = EncodePnm(ApplyDistortion(img.image, d, rng.Next()));
          if (!bytes.ok()) Die("encode: " + bytes.status().ToString());
          (*pnm)[i] = std::move(bytes).value();
          if (labels != nullptr) (*labels)[i] = img.class_id;
        },
        "query generation");
  };
  const size_t pool_size =
      PoolSize(args.seconds, 600.0, MinCalls(args.trace));
  std::vector<std::vector<uint8_t>> traffic;
  make_queries(traffic_base, pool_size, args.seed, &traffic, nullptr);

  const FeatureExtractor extractor = MakeDefaultExtractor(kImageSize);
  ServingOptions options;  // engine defaults: VP-tree, L1, one shard
  options.search_threads = kSearchThreads;
  auto corpus_features = std::make_shared<FeatureMatrix>();
  std::unique_ptr<ServingEngine> serve = SetUp(
      extractor, options, EnginePath(args), r,
      [&](CbirEngine& engine) -> Status {
        std::vector<CbirEngine::BatchItem> batch;
        batch.reserve(corpus.size());
        for (const LabeledImage& img : corpus) {
          batch.push_back({img.image, img.name, img.class_id});
        }
        return engine.AddImagesParallel(std::move(batch), SetupThreads())
            .status();
      },
      [&](const CbirEngine& engine) {
        *corpus_features = engine.store().matrix();
      });
  r->meta["corpus_size"] = static_cast<double>(corpus_size);
  r->meta["feature_dim"] = static_cast<double>(extractor.dim());
  r->meta["threads.search_pool"] = static_cast<double>(kSearchThreads);
  r->meta["threads.setup_extraction"] = static_cast<double>(SetupThreads());

  const SearchOptions search = TimedSearchOptions(args.trace);
  MetricsRegistry& metrics = *serve->metrics();
  RegistryCounts before;
  SearchTotals totals;
  double decode_sum = 0.0;
  double extract_sum = 0.0;
  double wall_sum = 0.0;
  std::vector<Vec> one(1);
  std::vector<double>& latency = r->series["latency_ms"];
  ClosedLoop(
      args.seconds, MinCalls(args.trace), NoReset,
      [&](size_t i, bool timed) -> size_t {
        const auto t0 = Clock::now();
        auto image = DecodePnm(traffic[i % pool_size]);
        const auto t1 = Clock::now();
        if (!image.ok()) Die("decode: " + image.status().ToString());
        one[0] = extractor.Extract(*image);
        const auto t2 = Clock::now();
        const Result<ServeReply> reply = serve->Search(one, kK, search);
        const auto t3 = Clock::now();
        if (!timed) return 0;
        const double wall = MsBetween(t0, t3);
        latency.push_back(wall);
        decode_sum += MsBetween(t0, t1);
        extract_sum += MsBetween(t1, t2);
        wall_sum += wall;
        return RecordCall(reply, MsBetween(t2, t3), wall, MsBetween(t0, t1),
                          MsBetween(t1, t2), r, &totals);
      },
      [&] { before = RegistryCounts::Read(metrics); }, r);
  RecordTimedPhase(before, RegistryCounts::Read(metrics), totals, corpus_size,
                   r);
  r->values["image.decode_share"] = decode_sum / wall_sum;
  r->values["features.extract_share"] = extract_sum / wall_sum;

  // Evaluation: the same path, decode -> extract -> Search, one image
  // per call (extraction runs on a pool: it is not timed here).
  std::vector<std::vector<uint8_t>> eval_pnm;
  std::vector<int32_t> eval_labels;
  make_queries(eval_base, unseen_size, kCollectionSeed, &eval_pnm,
               &eval_labels);
  std::vector<Vec> eval_features(eval_pnm.size());
  ParallelFor(
      eval_pnm.size(),
      [&](size_t i) {
        auto image = DecodePnm(eval_pnm[i]);
        if (!image.ok()) Die("decode: " + image.status().ToString());
        eval_features[i] = extractor.Extract(*image);
      },
      "evaluation extraction");
  Evaluate(*serve, eval_features, eval_labels, 1, corpus_features,
           MetricKind::kL1, /*exact=*/true, r);

  // Corpus images queried as they are come back first, at distance 0.
  size_t self_hits = 0;
  for (size_t j = 0; j < kAsIsChecks; ++j) {
    const size_t id = j * (corpus_size / kAsIsChecks);
    auto bytes = EncodePnm(corpus[id].image);
    DieIf(bytes.status(), "encode");
    auto image = DecodePnm(*bytes);
    DieIf(image.status(), "decode");
    const auto reply = serve->Search({extractor.Extract(*image)}, kK);
    self_hits += reply.ok() && !reply->results[0].empty() &&
                 reply->results[0][0].id == id &&
                 reply->results[0][0].distance == 0.0;
  }
  r->Check("corpus_images_find_themselves", self_hits == kAsIsChecks,
           std::to_string(kAsIsChecks - self_hits) + " of " +
               std::to_string(kAsIsChecks) +
               " corpus images did not come back first at distance 0");
}

/// Shape of a read-only vector workload.
struct VectorSpec {
  size_t count = 0;
  ClusterShape shape;
  size_t batch = 1;  ///< queries per Search call
  EngineConfig engine;
  bool exact = true;
  size_t eval_queries = 0;
  double calls_per_second_cap = 0.0;  ///< sizes the traffic pool
};

/// knn_exact_batch and knn_approx_single: a bulk-loaded collection of
/// clustered vectors, one client issuing `batch`-query Search calls.
/// Extraction is bypassed; traversal and kernels are the request.
void RunVectorSearch(const Args& args, const VectorSpec& spec, Report* r) {
  const LabeledRows data = ClusteredRows(spec.shape, spec.count,
                                         kCollectionSeed);
  const size_t calls = PoolSize(args.seconds, spec.calls_per_second_cap,
                                MinCalls(args.trace));
  std::vector<Vec> traffic;
  PerturbedQueries(data, spec.shape.query_sigma, calls * spec.batch,
                   args.seed, &traffic, nullptr);

  ServingOptions options;
  options.engine = spec.engine;
  options.engine.shard_build_threads = SetupThreads();
  options.search_threads = kSearchThreads;
  std::unique_ptr<ServingEngine> serve = SetUp(
      FeatureExtractor(), options, EnginePath(args), r,
      [&](CbirEngine& engine) { return AddRows(data, engine); },
      [](const CbirEngine&) {});
  r->meta["corpus_size"] = static_cast<double>(spec.count);
  r->meta["feature_dim"] = static_cast<double>(spec.shape.dim);
  r->meta["queries_per_call"] = static_cast<double>(spec.batch);
  r->meta["shards"] = static_cast<double>(spec.engine.shards);
  r->meta["threads.search_pool"] = static_cast<double>(kSearchThreads);
  r->meta["threads.shard_build"] = static_cast<double>(SetupThreads());

  const SearchOptions search = TimedSearchOptions(args.trace);
  MetricsRegistry& metrics = *serve->metrics();
  RegistryCounts before;
  SearchTotals totals;
  std::vector<Vec> batch(spec.batch);
  std::vector<double>& latency = r->series["latency_ms"];
  ClosedLoop(
      args.seconds, MinCalls(args.trace), NoReset,
      [&](size_t i, bool timed) -> size_t {
        const size_t first = (i % calls) * spec.batch;
        for (size_t j = 0; j < spec.batch; ++j) batch[j] = traffic[first + j];
        const auto t0 = Clock::now();
        const Result<ServeReply> reply = serve->Search(batch, kK, search);
        const auto t1 = Clock::now();
        if (!timed) return 0;
        const double wall = MsBetween(t0, t1);
        latency.push_back(wall);
        return RecordCall(reply, wall, wall, 0.0, 0.0, r, &totals);
      },
      [&] { before = RegistryCounts::Read(metrics); }, r);
  RecordTimedPhase(before, RegistryCounts::Read(metrics), totals, spec.count,
                   r);

  std::vector<Vec> eval;
  std::vector<int32_t> eval_labels;
  PerturbedQueries(data, spec.shape.query_sigma, spec.eval_queries,
                   ~kCollectionSeed, &eval, &eval_labels);
  Evaluate(*serve, eval, eval_labels, spec.batch, data.rows,
           spec.engine.metric, spec.exact, r);
}

/// ingest_mixed — writes between reads. A request is one merge period:
/// kMergeThreshold rows inserted one at a time, with one kReadBatch-query
/// Search call after every kInsertsPerRead of them. The last insert of a
/// request merges the delta into a rebuilt sealed engine inside its
/// Insert call, so every request holds exactly one merge. An epoch is
/// kEpochRequests requests into the preloaded collection; between
/// epochs, off the clock, the engine loads the preload again, so every
/// epoch does the same work however fast the host runs. client.qps
/// counts rows inserted plus queries answered.
void RunIngestMixed(const Args& args, Report* r) {
  // The shape of knn_exact_batch's rows, and half as many preloaded: a
  // merge rebuilds the whole engine, and a request must hold one merge
  // and still take a few ms, so that a run has the 1,000 requests a p99
  // needs.
  constexpr size_t kPreload = 4096;
  constexpr ClusterShape kShape{8, 256, 0.05, 0.02};
  constexpr size_t kReadBatch = 16;
  constexpr size_t kInsertsPerRead = 16;
  constexpr size_t kMergeThreshold = 64;
  constexpr size_t kReadsPerRequest = kMergeThreshold / kInsertsPerRead;
  constexpr size_t kEpochRequests = 16;
  constexpr size_t kEpochInserts = kEpochRequests * kMergeThreshold;
  constexpr size_t kEvalQueries = 256;
  constexpr size_t kFoundChecks = 256;
  // A merge builds on one worker, which the client waits for.
  constexpr size_t kMergeBuildThreads = 1;

  const LabeledRows preload = ClusteredRows(kShape, kPreload, kCollectionSeed);
  const LabeledRows fresh = ClusteredRows(kShape, kEpochInserts, args.seed);
  const size_t read_calls = PoolSize(args.seconds, 1200.0,
                                     kMinRequests * kReadsPerRequest);
  std::vector<Vec> reads;
  PerturbedQueries(preload, kShape.query_sigma, read_calls * kReadBatch,
                   args.seed, &reads, nullptr);

  ServingOptions options;
  options.engine.metric = MetricKind::kL2;
  options.engine.shards = 4;
  options.engine.shard_build_threads = kMergeBuildThreads;
  options.search_threads = kSearchThreads;
  options.delta_merge_threshold = kMergeThreshold;
  std::unique_ptr<ServingEngine> serve = SetUp(
      FeatureExtractor(), options, EnginePath(args), r,
      [&](CbirEngine& engine) { return AddRows(preload, engine); },
      [](const CbirEngine&) {});
  // The preload each epoch starts from.
  const std::string epoch_path = EnginePath(args) + ".preload";
  DieIf(serve->Save(epoch_path), "save preload");
  r->meta["corpus_size"] = static_cast<double>(kPreload);
  r->meta["feature_dim"] = static_cast<double>(kShape.dim);
  r->meta["epoch_inserts"] = static_cast<double>(kEpochInserts);
  r->meta["inserts_per_request"] = static_cast<double>(kMergeThreshold);
  r->meta["queries_per_call"] = static_cast<double>(kReadBatch);
  r->meta["shards"] = 4.0;
  r->meta["threads.search_pool"] = static_cast<double>(kSearchThreads);
  r->meta["threads.shard_build"] = static_cast<double>(kMergeBuildThreads);

  // Inserts one row of the epoch; returns its latency, negative when
  // the insert failed or was given another id than the next one.
  auto insert = [&](size_t j) {
    const auto t0 = Clock::now();
    const Result<uint32_t> id =
        serve->Insert(fresh.rows->RowVec(j), RowName('n', j), fresh.labels[j]);
    const double ms = MsBetween(t0, Clock::now());
    return id.ok() && *id == kPreload + j ? ms : -1.0;
  };

  const SearchOptions search = TimedSearchOptions(args.trace);
  MetricsRegistry& metrics = *serve->metrics();
  RegistryCounts before;
  SearchTotals totals;
  uint64_t merges_before = 0;
  double merge_ms = 0.0;
  double timed_ms = 0.0;
  double rows_seen = 0.0;  // summed over the reads
  size_t reads_done = 0;
  size_t epochs = 1;
  std::vector<Vec> batch(kReadBatch);
  std::vector<double>& latency = r->series["latency_ms"];
  // Each request holds kReadsPerRequest Search calls, so kMinRequests
  // requests also give the traced run its sampled calls.
  ClosedLoop(
      args.seconds, kMinRequests,
      [&](size_t i) {
        if (i > 0 && i % kEpochRequests == 0) {
          DieIf(serve->Load(epoch_path), "epoch reload");
          ++epochs;
        }
      },
      [&](size_t i, bool timed) -> size_t {
        const size_t first_row = i % kEpochRequests * kMergeThreshold;
        size_t ops = 0;
        const auto t0 = Clock::now();
        for (size_t read = 0; read < kReadsPerRequest; ++read) {
          for (size_t j = 0; j < kInsertsPerRead; ++j) {
            const uint64_t merges = serve->merges();
            const double ms = insert(first_row + read * kInsertsPerRead + j);
            if (!timed) continue;
            ++r->attempted;
            if (ms < 0.0) {
              ++r->failed;
              continue;
            }
            if (serve->merges() != merges) merge_ms += ms;
            ++ops;
          }
          const size_t first =
              (i * kReadsPerRequest + read) % read_calls * kReadBatch;
          for (size_t j = 0; j < kReadBatch; ++j) batch[j] = reads[first + j];
          const ServingEngine::SnapshotInfo info = serve->snapshot_info();
          const auto s0 = Clock::now();
          const Result<ServeReply> reply = serve->Search(batch, kK, search);
          const double ms = MsBetween(s0, Clock::now());
          if (!timed) continue;
          const size_t answered =
              RecordCall(reply, ms, ms, 0.0, 0.0, r, &totals);
          if (answered > 0) {
            totals.delta_evals += info.delta_count * kReadBatch;
            rows_seen += static_cast<double>(info.total());
            ++reads_done;
          }
          ops += answered;
        }
        if (!timed) return 0;
        const double ms = MsBetween(t0, Clock::now());
        latency.push_back(ms);
        timed_ms += ms;
        return ops;
      },
      [&] {
        before = RegistryCounts::Read(metrics);
        merges_before = serve->merges();
      },
      r);

  RecordTimedPhase(before, RegistryCounts::Read(metrics), totals,
                   rows_seen / static_cast<double>(
                                   std::max<size_t>(1, reads_done)),
                   r);
  r->values["serving.merges"] =
      static_cast<double>(serve->merges() - merges_before);
  r->values["serving.merge_stall_share"] = merge_ms / timed_ms;
  r->meta["epochs"] = static_cast<double>(epochs);

  // Off the clock, one whole epoch again from the preload, without
  // reads: the state the checks and the evaluation see is then the
  // seed's alone. After Flush every inserted row is searchable and the
  // engine answers exactly as one linear scan over all rows would.
  DieIf(serve->Load(epoch_path), "reload");
  std::remove(epoch_path.c_str());
  size_t replay_failed = 0;
  for (size_t j = 0; j < kEpochInserts; ++j) replay_failed += insert(j) < 0.0;
  DieIf(serve->Flush(), "flush");
  r->Check("inserts_get_the_next_ids", replay_failed == 0,
           std::to_string(replay_failed) + " of " +
               std::to_string(kEpochInserts) +
               " inserts failed or got another id than the next one");
  r->Check("size_after_flush", serve->size() == kPreload + kEpochInserts,
           "size() is " + std::to_string(serve->size()) + ", expected " +
               std::to_string(kPreload + kEpochInserts));
  Rng pick(args.seed);
  const std::vector<size_t> sampled =
      pick.SampleWithoutReplacement(kEpochInserts, kFoundChecks);
  size_t found = 0;
  for (size_t begin = 0; begin < sampled.size(); begin += kReadBatch) {
    std::vector<Vec> probe;
    for (size_t i = begin; i < std::min(sampled.size(), begin + kReadBatch);
         ++i) {
      probe.push_back(fresh.rows->RowVec(sampled[i]));
    }
    const auto reply = serve->Search(probe, kK);
    for (size_t i = 0; reply.ok() && i < probe.size(); ++i) {
      const auto& res = reply->results[i];
      found += !res.empty() && res[0].id == kPreload + sampled[begin + i] &&
               res[0].distance == 0.0;
    }
  }
  r->Check("inserted_rows_found_at_distance_0", found == sampled.size(),
           std::to_string(sampled.size() - found) + " of " +
               std::to_string(sampled.size()) +
               " sampled inserted rows were not found at distance 0");

  auto all_rows = std::make_shared<FeatureMatrix>(*preload.rows);
  for (size_t j = 0; j < kEpochInserts; ++j) {
    all_rows->AppendRow(fresh.rows->RowVec(j));
  }
  std::vector<Vec> eval;
  std::vector<int32_t> eval_labels;
  PerturbedQueries(preload, kShape.query_sigma, kEvalQueries,
                   ~kCollectionSeed, &eval, &eval_labels);
  Evaluate(*serve, eval, eval_labels, kReadBatch, all_rows, MetricKind::kL2,
           /*exact=*/true, r);
}

// ---------------------------------------------------------------------------
// Output.

void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

/// Every digit a double has (%.17g); non-finite values become null.
void AppendJsonNumber(double v, std::string* out) {
  if (!std::isfinite(v)) {
    out->append("null");
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
}

template <typename Map, typename Append>
void AppendJsonObject(const Map& map, const Append& append_value,
                      std::string* out) {
  out->push_back('{');
  bool first = true;
  for (const auto& [key, value] : map) {
    if (!first) out->push_back(',');
    first = false;
    AppendJsonString(key, out);
    out->push_back(':');
    append_value(value, out);
  }
  out->push_back('}');
}

std::string ReportJson(const Args& args, const Report& r) {
  std::string out = "{\"workload\":";
  AppendJsonString(args.workload, &out);
  out += ",\"build_type\":";
  AppendJsonString(CBIX_E2E_BUILD_TYPE, &out);
  out += ",\"simd_tier\":";
  AppendJsonString(simd::TierName(simd::ActiveTier()), &out);
  out += ",\"seed\":" + std::to_string(args.seed);
  out += ",\"trace\":";
  out += args.trace ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(r.attempted);
  out += ",\"failed\":" + std::to_string(r.failed);
  out += ",\"meta\":";
  AppendJsonObject(r.meta, AppendJsonNumber, &out);
  out += ",\"values\":";
  AppendJsonObject(r.values, AppendJsonNumber, &out);
  out += ",\"series\":";
  AppendJsonObject(
      r.series,
      [](const std::vector<double>& xs, std::string* o) {
        o->push_back('[');
        for (size_t i = 0; i < xs.size(); ++i) {
          if (i > 0) o->push_back(',');
          AppendJsonNumber(xs[i], o);
        }
        o->push_back(']');
      },
      &out);
  out += ",\"passed\":[";
  for (size_t i = 0; i < r.passed.size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendJsonString(r.passed[i], &out);
  }
  out += "],\"failures\":";
  const std::map<std::string, std::string> failures(r.failures.begin(),
                                                    r.failures.end());
  AppendJsonObject(failures, AppendJsonString, &out);
  out += ",\"critical_path\":{\"requests\":" + std::to_string(r.path_requests);
  out += ",\"wall_ms\":";
  AppendJsonNumber(r.path_wall_ms, &out);
  out += ",\"rows\":[";
  for (int row = 0; row < kPathRows; ++row) {
    if (row > 0) out.push_back(',');
    out.push_back('[');
    AppendJsonString(kPathRowNames[row], &out);
    out.push_back(',');
    AppendJsonNumber(r.path_ms[row], &out);
    out.push_back(']');
  }
  out += "]}}";
  return out;
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--scratch") {
      a.scratch = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (!(a.seconds > 0.0)) Die("--seconds must be positive");
  return a;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  AllowedCpus();  // the mask as started, before any thread is pinned
  if (std::string(CBIX_E2E_BUILD_TYPE) != "Release") {
    Die(std::string("refusing to measure a '") + CBIX_E2E_BUILD_TYPE +
        "' build; configure with -DCMAKE_BUILD_TYPE=Release");
  }
  Report r;
  // Layers only some workloads exercise read 0 on the others.
  r.values["image.decode_share"] = 0.0;
  r.values["features.extract_share"] = 0.0;
  r.values["serving.merges"] = 0.0;
  r.values["serving.merge_stall_share"] = 0.0;
  if (args.workload == "qbe_image") {
    RunQbeImage(args, &r);
  } else if (args.workload == "knn_exact_batch") {
    VectorSpec spec;
    spec.count = 8192;
    spec.shape = {8, 256, 0.05, 0.02};
    spec.batch = 16;
    spec.engine.metric = MetricKind::kL2;
    spec.engine.shards = 4;
    spec.exact = true;
    spec.eval_queries = 256;
    spec.calls_per_second_cap = 1000.0;
    RunVectorSearch(args, spec, &r);
  } else if (args.workload == "knn_approx_single") {
    // Two broad clusters: dense enough that the ef = 16 beam misses
    // some true neighbours, so recall sits below 1 and can move.
    VectorSpec spec;
    spec.count = 4096;
    spec.shape = {32, 2, 0.1, 0.1};
    spec.batch = 1;
    spec.engine.index_kind = IndexKind::kHnsw;
    spec.engine.metric = MetricKind::kL2;
    spec.engine.quantization = QuantizationKind::kInt8;
    spec.engine.hnsw_m = 16;
    spec.engine.hnsw_ef_search = 16;
    spec.engine.shards = 4;
    spec.exact = false;
    spec.eval_queries = 2000;
    spec.calls_per_second_cap = 12000.0;
    RunVectorSearch(args, spec, &r);
  } else if (args.workload == "ingest_mixed") {
    RunIngestMixed(args, &r);
  } else {
    Die("unknown workload '" + args.workload + "'");
  }
  r.values["peak_rss_mb"] = PeakRssMb();
  r.meta["nproc"] = static_cast<double>(OnlineCpus());
  r.meta["threads.client"] = 1.0;
  r.meta["seconds"] = args.seconds;
  r.meta["timed_requests"] = static_cast<double>(r.series["latency_ms"].size());
  const std::string json = ReportJson(args, r);
  std::fwrite(json.data(), 1, json.size(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
  for (const auto& [name, detail] : r.failures) {
    std::fprintf(stderr, "e2e_bench: check %s failed: %s\n", name.c_str(),
                 detail.c_str());
  }
  return r.failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace cbix::e2e

int main(int argc, char** argv) { return cbix::e2e::Main(argc, argv); }
