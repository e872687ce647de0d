// Repo benchmark runner: runs one workload through the public API and prints
// its metrics as one JSON object on the last line of stdout.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    [--spans-out PATH]
//
// One process is one run: the workload's set-up is done kSetups times
// (graph generation, partitioning, Engine construction; the median is
// setup_s), then one untimed warm-up job, then a closed loop of one client
// that starts the next job only after the previous one finished, until S
// seconds have passed. Every job's output is checked against the sequential
// oracle in graph/analysis.hpp, outside the timed interval.
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
// and traced jobs: the traced ones record spans around every call into the
// program's public functions (and switch on the program's own runtime/trace
// spans and counters), and yield the per-layer metrics. The spans are kept
// in memory and written to --spans-out when the run ends. See README.md.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "algos/bc.hpp"
#include "algos/pagerank.hpp"
#include "algos/sssp.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "harness/bench_report.hpp"
#include "harness/experiment.hpp"
#include "partition/quality.hpp"
#include "runtime/trace.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

using namespace pregel;
using namespace pregel::algos;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetups = 3;          ///< set-ups per run; setup_s is their median
constexpr std::size_t kMinJobs = 3; ///< measured jobs per run (per kind when traced)
/// The oracle is repeated until this much time has passed and timed per call.
constexpr double kOracleSeconds = 0.2;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---- outside-in spans ---------------------------------------------------------

/// Spans the benchmark records around its own calls into the program. Kept
/// in memory; written out once when the run ends. Off = no recording.
class SpanLog {
 public:
  static constexpr std::int64_t kNone = -1;

  struct Span {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int64_t parent = kNone;
    std::int64_t job = kNone;  ///< spans of one job share its id
  };

  void set_enabled(bool on) { on_ = on; }

  std::int64_t open(std::string name, std::int64_t job) {
    if (!on_) return kNone;
    const std::int64_t parent = stack_.empty() ? kNone : stack_.back();
    spans_.push_back({std::move(name), now_ns(), 0, parent, job});
    stack_.push_back(static_cast<std::int64_t>(spans_.size() - 1));
    return stack_.back();
  }
  void close(std::int64_t id) {
    if (id == kNone) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span: duration minus the time its direct children cover.
  std::vector<std::uint64_t> self_ns() const {
    std::vector<std::uint64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    for (const Span& s : spans_)
      if (s.parent != kNone) self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
    return self;
  }

  /// Writes the spans, plus the program's own runtime/trace span and
  /// counter totals over the traced jobs.
  void write(std::ostream& out, const std::map<std::string, double>& program_spans,
             const std::map<std::string, double>& program_counters) const {
    const auto self = self_ns();
    JsonWriter w(out);
    w.begin_object();
    w.key("schema").value("perfbench-spans-v1");
    w.key("program_span_s").begin_object();
    for (const auto& [name, secs] : program_spans) w.key(name).value(secs);
    w.end_object();
    w.key("program_counters").begin_object();
    for (const auto& [name, total] : program_counters) w.key(name).value(total);
    w.end_object();
    w.key("spans").begin_array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      w.begin_object();
      w.key("id").value(static_cast<std::uint64_t>(i));
      w.key("name").value(s.name);
      w.key("start_ns").value(s.start_ns);
      w.key("end_ns").value(s.end_ns);
      w.key("self_ns").value(self[i]);
      w.key("parent").value(s.parent);
      w.key("job").value(s.job);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    out << "\n";
  }

 private:
  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count());
  }

  bool on_ = false;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, std::int64_t job = SpanLog::kNone)
      : log_(log), id_(log.open(std::move(name), job)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::int64_t id_;
};

// ---- the program's own runtime/trace spans ------------------------------------

/// Host totals per span name of the program's runtime/trace events recorded
/// since the tracer was last configured. The tracer exposes its events only
/// through the Chrome exporter, which writes one event object per line.
std::map<std::string, double> program_span_totals() {
  std::ostringstream buf;
  trace::Tracer::instance().write_chrome_trace(buf);
  std::map<std::string, double> totals;
  std::istringstream lines(buf.str());
  std::string line;
  constexpr std::string_view kName = "{\"name\":\"";
  constexpr std::string_view kDur = "\"dur\":";
  while (std::getline(lines, line)) {
    if (line.rfind(kName, 0) != 0 || line.find("\"ph\":\"X\",\"pid\":1,") == std::string::npos)
      continue;
    const std::size_t name_end = line.find('"', kName.size());
    const std::size_t dur = line.find(kDur);
    if (name_end == std::string::npos || dur == std::string::npos) continue;
    const double us = std::strtod(line.c_str() + dur + kDur.size(), nullptr);
    totals[line.substr(kName.size(), name_end - kName.size())] += us * 1e-6;
  }
  return totals;
}

void set_program_trace(bool on) {
  trace::TraceConfig cfg;
  cfg.spans = on;
  cfg.counters = on;
  cfg.process_name = "perfbench";
  trace::Tracer::instance().configure(cfg);
}

// ---- metrics -------------------------------------------------------------------

/// Bitwise equality of two runs' final values. Only the PageRank workloads
/// cross-check lane counts, and their values are trivially copyable.
template <class V>
bool same_values(const std::vector<V>& a, const std::vector<V>& b) {
  static_assert(std::is_trivially_copyable_v<V>);
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(V)) == 0);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Modeled outcome of a job that must repeat bit for bit across jobs of a
/// run and across lane counts.
struct ModeledDigest {
  double total_time = 0.0;
  double cost_usd = 0.0;
  std::uint64_t supersteps = 0;
  std::uint64_t messages = 0;
  bool operator==(const ModeledDigest&) const = default;
};

ModeledDigest digest_of(const JobMetrics& m) {
  return {m.total_time, m.cost_usd, m.total_supersteps(), m.total_messages()};
}

struct JobTimes {
  double job_s;     ///< start to finish
  /// One oracle call: the mean of the calls made right before and right
  /// after the job, which bracket it in time.
  double oracle_s;
};

/// What one traced job measured, keyed by per-layer metric name.
struct JobTrace {
  double job_s = 0.0;
  std::map<std::string, double> values;  ///< per-layer sums (seconds or counts)
  std::vector<double> step_s;             ///< every advance call
  std::map<std::string, double> program;  ///< runtime/trace span totals
};

// ---- workloads -----------------------------------------------------------------

template <class Program>
struct Workload {
  std::uint32_t lanes = 1;
  std::function<Graph()> generate;
  std::function<Partitioning(const Graph&)> partition;
  ClusterConfig cluster;
  Program program;
  /// Fresh options per job: swath sizers and initiation policies are stateful.
  std::function<JobOptions(const Graph&)> options;
  /// Computes the reference once and returns a checker giving "" when a
  /// job's values match it.
  std::function<std::function<std::string(const JobResult<Program>&)>(const Graph&,
                                                                      const JobOptions&)>
      oracle;
  /// Also run one untimed job at this lane count and require modeled
  /// metrics and values identical to the measured lane count (0 = skip).
  std::uint32_t crosscheck_lanes = 0;
};

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

struct RunResult {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t job_samples = 0;  ///< measured jobs (traced ones included)
  double job_s = 0.0;             ///< median host seconds of the untraced jobs
  double oracle_s = 0.0;          ///< median host seconds of one oracle call
  std::vector<std::string> errors;
};

template <class Program>
RunResult run_workload(const Workload<Program>& wl, const RunArgs& args) {
  RunResult out;
  SpanLog spans;
  spans.set_enabled(args.trace);

  // Set-up, kSetups times; the last one is kept.
  std::unique_ptr<Engine<Program>> engine;
  std::unique_ptr<Partitioning> parts;
  std::unique_ptr<Graph> graph;
  std::vector<double> setup_s, generate_s, partition_s, build_s;
  for (int k = 0; k < kSetups; ++k) {
    engine.reset();
    parts.reset();
    graph.reset();
    const auto t0 = Clock::now();
    ScopedSpan setup(spans, "setup");
    {
      ScopedSpan s(spans, "graph.generate");
      graph = std::make_unique<Graph>(wl.generate());
    }
    const auto t1 = Clock::now();
    {
      ScopedSpan s(spans, "partition.partition");
      parts = std::make_unique<Partitioning>(wl.partition(*graph));
    }
    const auto t2 = Clock::now();
    {
      ScopedSpan s(spans, "core.build");
      engine = std::make_unique<Engine<Program>>(*graph, wl.program, wl.cluster, *parts);
    }
    const auto t3 = Clock::now();
    setup_s.push_back(std::chrono::duration<double>(t3 - t0).count());
    generate_s.push_back(std::chrono::duration<double>(t1 - t0).count());
    partition_s.push_back(std::chrono::duration<double>(t2 - t1).count());
    build_s.push_back(std::chrono::duration<double>(t3 - t2).count());
  }
  const Graph& g = *graph;

  std::int64_t next_job = 0;
  std::optional<ModeledDigest> expected;
  std::map<std::string, double> program_spans, program_counters;  // traced-job totals
  double last_oracle_s = 0.0;  // per-call time of the previous job's oracle

  // One job: start -> advance* -> finish, timed; then, untimed, the oracle
  // recomputes the reference right away and checks the job's output.
  // Returns the host seconds of both, or nothing when the job failed or was
  // wrong.
  auto run_job = [&](std::uint32_t lanes, bool traced, JobTrace* jt,
                     JobResult<Program>* keep) -> std::optional<JobTimes> {
    JobOptions opts = wl.options(g);
    opts.parallelism = lanes;
    const std::int64_t id = next_job++;
    spans.set_enabled(traced);
    if (traced) set_program_trace(true);
    JobResult<Program> r;
    std::string error;
    const auto t0 = Clock::now();
    try {
      ScopedSpan job(spans, "job", id);
      bool started = false;
      {
        const auto s0 = Clock::now();
        ScopedSpan s(spans, "core.start", id);
        started = engine->start(opts, r);
        if (jt) jt->values["core.start_s"] += seconds_since(s0);
      }
      while (started) {
        const std::size_t steps = r.metrics.supersteps.size();
        const std::uint32_t gens = r.metrics.checkpoint_bases + r.metrics.checkpoint_deltas;
        const std::uint32_t failures = r.metrics.worker_failures;
        const std::uint64_t swaths = r.swaths_initiated;
        const auto s0 = Clock::now();
        typename Engine<Program>::StepStatus status;
        {
          ScopedSpan s(spans, "core.advance", id);
          status = engine->advance(r);
        }
        const double dt = seconds_since(s0);
        if (jt) {
          jt->step_s.push_back(dt);
          if (r.metrics.supersteps.size() > steps)
            jt->values[r.metrics.supersteps.back().pull_mode ? "core.pull_step_s"
                                                              : "core.push_step_s"] += dt;
          if (r.swaths_initiated > swaths) jt->values["core.swath_step_s"] += dt;
          if (r.metrics.checkpoint_bases + r.metrics.checkpoint_deltas > gens) {
            jt->values["cloud.ckpt_step_s"] += dt;
            jt->values["cloud.ckpt_step_count"] += 1.0;
          }
          if (r.metrics.worker_failures > failures) jt->values["cloud.recover_step_s"] += dt;
        }
        if (status == Engine<Program>::StepStatus::kDone) break;
      }
      {
        const auto s0 = Clock::now();
        ScopedSpan s(spans, "core.finish", id);
        engine->finish(r);
        if (jt) jt->values["core.finish_s"] += seconds_since(s0);
      }
    } catch (const JobFailure& e) {
      error = std::string("JobFailure: ") + e.what();
    }
    const double job_s = seconds_since(t0);
    if (traced) {
      jt->program = program_span_totals();
      for (const auto& [name, secs] : jt->program) program_spans[name] += secs;
      for (const auto& [name, total] : trace::Tracer::instance().counter_totals())
        program_counters[name] += static_cast<double>(total);
      set_program_trace(false);
    }
    spans.set_enabled(args.trace);
    if (jt) {
      jt->job_s = job_s;
      // Steal counts are host-scheduling artifacts: they vary run to run.
      jt->values["util.work_steals"] = static_cast<double>(r.metrics.work_steals);
      jt->values["util.stolen_chunks"] = static_cast<double>(r.metrics.stolen_chunks);
    }

    ++out.attempted;
    if (error.empty() && r.failed) error = "job failed: " + r.failure_reason;
    double oracle_s = 0.0;
    if (error.empty()) {
      ScopedSpan s(spans, "oracle", id);
      const auto o0 = Clock::now();
      std::function<std::string(const JobResult<Program>&)> check;
      int calls = 0;
      do {
        check = wl.oracle(g, opts);
        ++calls;
      } while (seconds_since(o0) < kOracleSeconds);
      oracle_s = seconds_since(o0) / calls;
      error = check(r);
    }
    if (error.empty()) {
      const ModeledDigest d = digest_of(r.metrics);
      if (!expected) {
        expected = d;
      } else if (!(d == *expected)) {
        error = "modeled metrics differ from the first job of the run";
      }
    }
    if (!error.empty()) {
      ++out.failed;
      out.errors.push_back("job " + std::to_string(id) + " (" + std::to_string(lanes) +
                           " lanes): " + error);
      return std::nullopt;
    }
    if (keep) *keep = std::move(r);
    const double before = last_oracle_s > 0.0 ? last_oracle_s : oracle_s;
    last_oracle_s = oracle_s;
    return JobTimes{job_s, 0.5 * (before + oracle_s)};
  };

  // Warm-up: untimed, but checked and counted.
  JobResult<Program> warm;
  const bool warm_ok = run_job(wl.lanes, false, nullptr, &warm).has_value();
  if constexpr (std::is_trivially_copyable_v<typename Program::VertexValue>) {
    JobResult<Program> other;
    if (wl.crosscheck_lanes > 0 &&
        run_job(wl.crosscheck_lanes, false, nullptr, &other) && warm_ok &&
        !same_values(other.values, warm.values)) {
      ++out.failed;
      out.errors.push_back("values differ between " + std::to_string(wl.lanes) + " and " +
                           std::to_string(wl.crosscheck_lanes) + " lanes");
    }
  }

  // Closed loop, one client. Traced runs alternate untraced and traced jobs
  // so both see the same machine state; the ratio is the tracing overhead.
  std::vector<double> plain_s, oracle_s, vs_oracle;
  std::vector<JobTrace> traced;
  const auto t_loop = Clock::now();
  for (std::size_t i = 0; out.failed == 0; ++i) {
    const std::size_t per_kind =
        args.trace ? std::min(plain_s.size(), traced.size()) : plain_s.size();
    if (per_kind >= kMinJobs && seconds_since(t_loop) >= args.seconds) break;
    if (args.trace && i % 2 == 1) {
      JobTrace jt;
      if (run_job(wl.lanes, true, &jt, nullptr)) traced.push_back(std::move(jt));
    } else if (const auto t = run_job(wl.lanes, false, nullptr, nullptr)) {
      plain_s.push_back(t->job_s);
      oracle_s.push_back(t->oracle_s);
      vs_oracle.push_back(t->job_s / t->oracle_s);
    }
  }

  if (!args.spans_out.empty()) {
    std::ofstream f(args.spans_out);
    if (f) spans.write(f, program_spans, program_counters);
  }
  out.job_samples = plain_s.size() + traced.size();
  out.job_s = median(plain_s);
  out.oracle_s = median(oracle_s);

  auto add = [&](std::string name, double value, std::string unit) {
    out.metrics.push_back({std::move(name), value, std::move(unit)});
  };
  const JobMetrics& m = warm.metrics;
  if (!args.trace) {
    add("setup_s", median(setup_s), "s");
    add("job_vs_oracle", median(vs_oracle), "ratio");
    add("peak_rss_mb", peak_rss_mib(), "MiB");
    add("modeled_time_s", m.total_time, "s");
    add("modeled_cost_usd", m.cost_usd, "usd");
    add("jobs_ok_share",
        static_cast<double>(out.attempted - out.failed) / static_cast<double>(out.attempted),
        "share");
    return out;
  }

  // Per-layer metrics. Host times are medians over the traced jobs; modeled
  // quantities are exact and come from the warm-up job. After a failed job
  // the run stops early and these may be partial; the run is then incorrect.
  auto traced_median = [&](auto&& of) {
    std::vector<double> v;
    for (const JobTrace& jt : traced) v.push_back(of(jt));
    return median(std::move(v));
  };
  auto value = [&](const std::string& key) {
    return traced_median([&](const JobTrace& jt) {
      const auto it = jt.values.find(key);
      return it == jt.values.end() ? 0.0 : it->second;
    });
  };
  // Program spans by name; a trailing '*' matches a prefix.
  auto program_s = [&](std::string_view pattern) {
    const bool prefix = pattern.back() == '*';
    if (prefix) pattern.remove_suffix(1);
    return traced_median([&](const JobTrace& jt) {
      double s = 0.0;
      for (const auto& [name, secs] : jt.program)
        if (prefix ? name.rfind(pattern, 0) == 0 : name == pattern) s += secs;
      return s;
    });
  };
  std::vector<double> all_steps;
  for (const JobTrace& jt : traced)
    all_steps.insert(all_steps.end(), jt.step_s.begin(), jt.step_s.end());
  const double traced_job_s = traced_median([](const JobTrace& jt) { return jt.job_s; });
  const auto self = spans.self_ns();
  std::vector<double> job_self_s;
  for (std::size_t i = 0; i < spans.spans().size(); ++i)
    if (spans.spans()[i].name == "job") job_self_s.push_back(static_cast<double>(self[i]) * 1e-9);

  double compute_s = 0.0, network_s = 0.0, vertices = 0.0;
  for (const auto& sm : m.supersteps) {
    vertices += static_cast<double>(sm.active_vertices);
    for (const auto& w : sm.workers) {
      compute_s += w.compute_time;
      network_s += w.network_time;
    }
  }
  const double executed = static_cast<double>(m.total_supersteps());
  const auto count = [](auto v) { return static_cast<double>(v); };

  add("graph.generate_s", median(generate_s), "s");
  add("partition.partition_s", median(partition_s), "s");
  add("partition.remote_arc_frac", evaluate_partition(g, *parts).remote_edge_fraction, "share");
  add("core.build_s", median(build_s), "s");
  add("core.start_s", value("core.start_s"), "s");
  add("core.finish_s", value("core.finish_s"), "s");
  add("core.step_count", traced_median([&](const JobTrace& jt) { return count(jt.step_s.size()); }),
      "count");
  add("core.step_p50_ms", percentile(all_steps, 0.50) * 1e3, "ms");
  add("core.step_p99_ms", percentile(all_steps, 0.99) * 1e3, "ms");
  add("core.push_step_s", value("core.push_step_s"), "s");
  add("core.pull_step_s", value("core.pull_step_s"), "s");
  add("core.swath_step_s", value("core.swath_step_s"), "s");
  add("core.msgs_per_host_s",
      traced_job_s > 0.0 ? count(m.total_messages()) / traced_job_s : 0.0, "1/s");
  add("core.supersteps", executed, "count");
  add("core.messages", count(m.total_messages()), "count");
  add("core.vertices_computed", vertices, "count");
  add("core.pull_supersteps", count(m.pull_supersteps), "count");
  add("core.swaths", count(warm.swaths_initiated), "count");
  add("core.useful_step_ratio",
      executed > 0.0 ? (executed - count(m.replayed_supersteps)) / executed : 1.0, "share");
  add("util.work_steals", value("util.work_steals"), "count");
  add("util.stolen_chunks", value("util.stolen_chunks"), "count");
  add("cloud.ckpt_step_s", value("cloud.ckpt_step_s"), "s");
  add("cloud.ckpt_step_count", value("cloud.ckpt_step_count"), "count");
  add("cloud.recover_step_s", value("cloud.recover_step_s"), "s");
  add("cloud.ckpt_bases", count(m.checkpoint_bases), "count");
  add("cloud.ckpt_deltas", count(m.checkpoint_deltas), "count");
  add("cloud.ckpt_base_bytes", count(m.checkpoint_base_bytes), "B");
  add("cloud.ckpt_delta_bytes", count(m.checkpoint_delta_bytes), "B");
  add("cloud.faults_injected", count(m.faults_injected), "count");
  add("cloud.faults_masked_ratio",
      m.faults_injected > 0 ? count(m.faults_masked) / count(m.faults_injected) : 1.0, "share");
  add("cloud.retries", count(m.retries_attempted), "count");
  add("cloud.ckpt_fallbacks", count(m.checkpoint_fallbacks), "count");
  add("runtime.governor_vetoes", count(m.governor_vetoes), "count");
  add("runtime.governor_clamps", count(m.governor_swath_clamps), "count");
  add("runtime.governor_spill_bytes", count(m.governor_spill_bytes), "B");
  add("runtime.governor_sheds", count(m.governor_sheds), "count");
  add("runtime.modeled_compute_s", compute_s, "s");
  add("runtime.modeled_network_s", network_s, "s");
  add("runtime.modeled_barrier_wait_s", m.total_barrier_wait(), "s");
  add("runtime.modeled_utilization", m.utilization(), "share");
  add("runtime.modeled_checkpoint_s", m.checkpoint_time, "s");
  add("runtime.modeled_recovery_s", m.recovery_time, "s");
  add("runtime.modeled_peak_worker_mb", count(m.peak_worker_memory()) / (1024.0 * 1024.0), "MiB");
  add("trace.engine.superstep_s", program_s("engine.superstep"), "s");
  add("trace.engine.compute_s", program_s("engine.compute"), "s");
  add("trace.engine.merge_s", program_s("engine.merge"), "s");
  add("trace.engine.barrier_s", program_s("engine.barrier"), "s");
  add("trace.engine.control_s", program_s("engine.control.*"), "s");
  add("trace.engine.checkpoint_s", program_s("engine.checkpoint"), "s");
  add("trace.engine.recover_s", program_s("engine.recover.*"), "s");
  add("bench.job_self_s", median(job_self_s), "s");
  add("bench.traced_job_s", traced_job_s, "s");
  add("bench.job_s", out.job_s, "s");
  add("bench.oracle_s", out.oracle_s, "s");
  add("bench.trace_overhead", out.job_s > 0.0 ? traced_job_s / out.job_s : 0.0, "ratio");
  add("bench.job_samples", count(out.job_samples), "count");
  return out;
}

// ---- workload definitions -----------------------------------------------------

/// Per-purpose seeds derived from the run seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) { return mix64(seed * 0x9E37u + salt); }

harness::ExperimentEnv pinned_env(std::uint64_t seed) {
  harness::ExperimentEnv e;  // built here, never read from the environment
  e.scale_div = 10;
  e.seed = seed;
  return e;
}

std::string compare_pagerank(const std::vector<double>& ref,
                             const JobResult<PageRankProgram>& r) {
  for (std::size_t v = 0; v < ref.size(); ++v)
    if (!(std::abs(r.values[v].rank - ref[v]) <= 1e-12))
      return "pagerank differs from reference_pagerank at vertex " + std::to_string(v);
  return {};
}

Workload<PageRankProgram> pagerank_workload(std::uint64_t seed, std::uint32_t lanes,
                                            std::uint32_t crosscheck_lanes) {
  Workload<PageRankProgram> wl;
  wl.lanes = lanes;
  wl.crosscheck_lanes = crosscheck_lanes;
  const std::uint64_t graph_seed = derive(seed, 1);
  wl.generate = [graph_seed] { return dataset_analog("WG", 10, graph_seed); };
  wl.partition = [](const Graph& g) { return HashPartitioner{}.partition(g, 16); };
  wl.cluster = harness::make_cluster(pinned_env(seed), 16, 8);
  wl.program = {30, 0.85};
  wl.options = [](const Graph&) {
    JobOptions o;
    o.start_all_vertices = true;
    return o;
  };
  wl.oracle = [](const Graph& g, const JobOptions&) {
    auto ref = std::make_shared<std::vector<double>>(reference_pagerank(g, 30, 0.85));
    return [ref](const JobResult<PageRankProgram>& r) { return compare_pagerank(*ref, r); };
  };
  return wl;
}

Workload<BcProgram> bc_workload(std::uint64_t seed, std::uint32_t lanes) {
  Workload<BcProgram> wl;
  wl.lanes = lanes;
  const std::uint64_t graph_seed = derive(seed, 2);
  const std::uint64_t root_seed = derive(seed, 3);
  wl.generate = [graph_seed] { return dataset_analog("CP", 10, graph_seed); };
  wl.partition = [](const Graph& g) { return harness::make_partitioner("metis", 1)->partition(g, 8); };
  wl.cluster = harness::make_cluster(pinned_env(seed), 8, 8);
  const Bytes target = harness::memory_target(wl.cluster.vm);
  wl.options = [root_seed, target](const Graph& g) {
    JobOptions o;
    o.roots = harness::pick_roots(g, 24, root_seed);
    o.swath = SwathPolicy::make(std::make_shared<AdaptiveSwathSizer>(4),
                                std::make_shared<DynamicPeakInitiation>(), target);
    o.governor = harness::default_governor();
    o.fail_on_vm_restart = false;
    return o;
  };
  wl.oracle = [](const Graph& g, const JobOptions& o) {
    auto ref = std::make_shared<std::vector<double>>(reference_betweenness(g, o.roots));
    return [ref](const JobResult<BcProgram>& r) -> std::string {
      for (std::size_t v = 0; v < ref->size(); ++v) {
        const double want = (*ref)[v];
        if (!(std::abs(r.values[v].bc_score - want) <= 1e-6 * std::max(1.0, std::abs(want))))
          return "betweenness differs from reference_betweenness at vertex " + std::to_string(v);
      }
      return {};
    };
  };
  return wl;
}

Workload<SsspProgram> sssp_workload(std::uint64_t seed, std::uint32_t lanes) {
  Workload<SsspProgram> wl;
  wl.lanes = lanes;
  wl.generate = [] { return grid_graph(400, 400); };
  wl.partition = [](const Graph& g) { return HashPartitioner{}.partition(g, 16); };
  ClusterConfig c = harness::make_cluster(pinned_env(seed), 16, 8);
  c.checkpoint_interval = 2;
  c.ckpt.delta_enabled = true;
  c.recovery_mode = RecoveryMode::kFullRollback;
  c.faults.queue_op_failure_rate = 0.01;
  c.faults.blob_read_failure_rate = 0.01;
  c.faults.blob_write_failure_rate = 0.01;
  c.faults.queue_seed = derive(seed, 10);
  c.faults.blob_seed = derive(seed, 11);
  // Three worker failures, one in each third of the ~800-superstep wave, and
  // three torn checkpoint writes, one in each third of the ~400 rounds. A
  // torn manifest loses only its own round, so a restore replays at most one
  // more round. Rate-drawn tears were tried first: a tear that poisons a
  // delta chain can push a restore back to superstep 0, which doubled the
  // work of some seeds and made the workload's cost depend on the seed.
  Xoshiro256 rng(derive(seed, 13));
  for (std::uint64_t third = 0; third < 3; ++third) {
    c.scheduled_failures.emplace_back(50 + 250 * third + rng.next_below(200),
                                      static_cast<std::uint32_t>(rng.next_below(8)));
    c.ckpt.scheduled_manifest_tears.push_back(20 + 130 * third + rng.next_below(100));
  }
  wl.cluster = std::move(c);
  wl.options = [](const Graph&) {
    JobOptions o;
    o.roots = {0};
    return o;
  };
  wl.oracle = [](const Graph& g, const JobOptions&) {
    auto ref = std::make_shared<std::vector<std::uint32_t>>(bfs_distances(g, 0));
    return [ref](const JobResult<SsspProgram>& r) -> std::string {
      for (std::size_t v = 0; v < ref->size(); ++v)
        if (r.values[v].distance != (*ref)[v])
          return "distance differs from bfs_distances at vertex " + std::to_string(v);
      return {};
    };
  };
  return wl;
}

int usage(const char* why) {
  std::cerr << "perfbench_runner: " << why
            << "\nusage: perfbench_runner --workload "
               "pagerank-dense|pagerank-serial|bc-swath|sssp-grid-ckpt --seed N "
               "--seconds S --trace 0|1 [--spans-out PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") args.workload = val;
    else if (key == "--seed") args.seed = std::strtoull(val, nullptr, 10);
    else if (key == "--seconds") args.seconds = std::strtod(val, nullptr);
    else if (key == "--trace") args.trace = std::string_view(val) == "1";
    else if (key == "--spans-out") args.spans_out = val;
    else return usage("unknown argument");
  }
  if (argc % 2 == 0) return usage("arguments come in --key value pairs");

  // Lane counts are explicit and never exceed the machine's hardware threads.
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const std::uint32_t lanes = std::min(4u, nproc);

  RunResult res;
  if (args.workload == "pagerank-dense")
    res = run_workload(pagerank_workload(args.seed, lanes, 0), args);
  else if (args.workload == "pagerank-serial")
    res = run_workload(pagerank_workload(args.seed, 1, lanes), args);
  else if (args.workload == "bc-swath")
    res = run_workload(bc_workload(args.seed, lanes), args);
  else if (args.workload == "sssp-grid-ckpt")
    res = run_workload(sssp_workload(args.seed, lanes), args);
  else
    return usage("unknown workload");

  for (const std::string& e : res.errors) std::cerr << "perfbench: " << e << "\n";
  std::ostringstream line;
  JsonWriter w(line);
  w.begin_object();
  w.key("workload").value(args.workload);
  w.key("seed").value(args.seed);
  w.key("git_sha").value(harness::build_git_sha());
  w.key("build_type").value(harness::build_type());
  w.key("nproc").value(static_cast<std::uint64_t>(nproc));
  w.key("lanes").value(static_cast<std::uint64_t>(
      args.workload == "pagerank-serial" ? 1u : lanes));
  w.key("correct").value(res.failed == 0 && !res.metrics.empty());
  w.key("attempted").value(res.attempted);
  w.key("failed").value(res.failed);
  w.key("job_samples").value(res.job_samples);
  w.key("job_s").value(res.job_s);
  w.key("oracle_s").value(res.oracle_s);
  w.key("metrics").begin_object();
  for (const Metric& m : res.metrics) {
    w.key(m.name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::cout << line.str() << std::endl;
  return res.failed == 0 ? 0 : 1;
}
