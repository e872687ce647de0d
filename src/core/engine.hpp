// The Pregel++ BSP engine: a deterministic virtual-time simulation of the
// paper's Pregel.NET architecture (§III).
//
// One Engine instance hosts `num_partitions` graph partitions. Each
// superstep it (1) drains every active vertex's inbox through the user
// program's compute(), (2) routes emitted messages — in-memory to vertices
// whose partition lives on the same worker VM, "bulk" serialized transfer to
// remote VMs, (3) meters per-VM compute/serialization/network/memory through
// the cloud CostModel, and (4) runs the barrier: master compute, swath
// scheduling, elastic scaling, halt detection.
//
// Every superstep takes one path: compute, then route, then barrier. The
// unit of compute is a frontier-bag chunk: each partition's active list is
// packed into a splittable bag (src/util/bag.hpp) whose grain-sized leaves
// become chunks. Chunks never touch shared engine state: every side effect
// (emissions, activations, wakes, aggregate contributions, counters) is
// staged in per-chunk scratch, and a deterministic merge — one task per
// destination partition, ordered by (sender rank, emission order) within
// each — applies routing, combining, activation, and cost counters.
// JobOptions::parallelism only decides who runs the chunks and merges: at
// 1 the calling thread runs them in order; above 1 a persistent host thread
// pool runs them, and lanes steal chunks from each other when a skewed
// frontier leaves some lanes dry. Results and modeled times are therefore
// bit-identical at any thread count and any steal schedule; only host
// wall-clock changes. Program::compute must be thread-safe
// (const/stateless, as the contract below already implies).
//
// Programs that declare `kDirectionOptimized` additionally get Beamer-style
// direction optimization: when the modeled frontier is dense, a broadcast
// superstep runs in "pull" mode — send_to_all_neighbors captures one
// broadcast record per sender instead of materializing a staged message per
// out-edge, and each destination partition synthesizes its inbox by merging
// its in-neighbors' broadcasts (rank order) with any pointwise sends. The
// synthesized stream is the push stream, message for message, so the switch
// is invisible to results and metrics; the decision itself uses modeled
// density only and is part of the bit-identity contract.
//
// All computation on vertex values is real; only *time* and *memory* are
// modeled. Virtual time per superstep is
//     max over VMs (compute + network, each x tenancy noise x thrash penalty)
//     + barrier overhead(worker count),
// which is exactly the BSP execution model the paper analyzes: "the time
// taken in a superstep is determined by the slowest worker in that
// superstep".
//
// Program requirements (static duck typing, checked by concept + constexpr):
//   struct MyProgram {
//     using VertexValue = ...;   // default-constructible per-vertex state
//     using MessageValue = ...;  // message payload
//     template <class Ctx>
//     void compute(Ctx& ctx, VertexValue& value,
//                  std::span<const MessageValue> messages) const;
//     // optional:
//     static Bytes message_payload_bytes(const MessageValue&);
//     static std::uint64_t combine_key(const MessageValue&);
//     static void combine(MessageValue& acc, const MessageValue& in);
//     static MessageValue seed_message(VertexId root);   // root algorithms
//     template <class MCtx> void master_compute(MCtx& master) const;
//     std::int64_t vertex_state_bytes() const;  // resident per-vertex bytes
//   };
//
// Subgraph-centric programs (GoFFish / Giraph++-style; see docs/SUBGRAPH.md)
// declare `static constexpr bool kSubgraphModel = true;` and replace
// per-vertex compute() with a per-partition hook:
//   template <class Ctx> void compute_subgraph(Ctx& ctx) const;
// The engine then hands each partition ONE SubgraphContext per superstep —
// full local adjacency view, per-vertex boundary inboxes, a staged boundary
// outbox, and the shared aggregator — and the program runs a sequential
// algorithm to local convergence before the barrier. Everything around
// compute is unchanged: barriers, fault injection, checkpointing (the delta
// write barrier via state_unchanged_all/mark_changed), migration, the
// memory governor, and the scheduler all drive subgraph jobs exactly as
// vertex jobs. Boundary sends are tagged with the sender's immutable rank
// and merged in canonical (rank, emission) order through the same staged-
// outbox/serial-merge discipline, so results stay bit-identical at any
// parallelism. Internal sequential work is charged via
// ctx.charge_local_work() (CostParams::cycles_per_subgraph_op), keeping the
// barrier's active-vertex audit exact.
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cloud/ckpt_store.hpp"
#include "cloud/cost_model.hpp"
#include "cloud/faults.hpp"
#include "cloud/manager.hpp"
#include "cloud/migration.hpp"
#include "cloud/network.hpp"
#include "cloud/queue.hpp"
#include "core/aggregates.hpp"
#include "core/config.hpp"
#include "graph/graph.hpp"
#include "partition/partitioner.hpp"
#include "partition/rebalance.hpp"
#include "runtime/metrics.hpp"
#include "runtime/trace.hpp"
#include "util/bag.hpp"
#include "util/buffers.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace pregel {

template <typename P>
concept VertexProgramT = requires {
  typename P::VertexValue;
  typename P::MessageValue;
} && std::default_initializable<typename P::VertexValue>;

template <VertexProgramT Program>
class Engine;

/// Typed job outcome: the common report plus final vertex values by id.
template <VertexProgramT Program>
struct JobResult : JobReport {
  std::vector<typename Program::VertexValue> values;
};

/// Handed to Program::compute for each active vertex. Every callback stages
/// its effect in the scratch of the frontier chunk the vertex computes in;
/// the merge after the compute barrier applies it.
template <VertexProgramT Program>
class VertexContext {
 public:
  using MessageValue = typename Program::MessageValue;

  VertexId vertex_id() const noexcept { return vertex_; }
  std::uint64_t superstep() const noexcept { return engine_->superstep_; }
  std::span<const VertexId> out_neighbors() const {
    return engine_->graph_->out_neighbors(vertex_);
  }
  std::uint32_t out_degree() const { return engine_->graph_->out_degree(vertex_); }
  VertexId num_graph_vertices() const noexcept { return engine_->graph_->num_vertices(); }

  /// Emit a message for delivery at the start of the next superstep.
  void send(VertexId target, MessageValue message) {
    engine_->route(target, std::move(message), chunk_);
  }
  void send_to_all_neighbors(const MessageValue& message) {
    engine_->broadcast(vertex_, message, chunk_);
  }

  /// Stay active next superstep even without incoming messages
  /// (by default a vertex votes to halt when compute returns).
  void remain_active() { scratch().activations.push_back(local_); }
  /// Request activation at an absolute future superstep (used by phase-
  /// structured algorithms such as the BC backward sweep).
  void wake_at(std::uint64_t superstep) {
    PREGEL_CHECK_MSG(superstep > engine_->superstep_,
                     "wake_at: superstep must be in the future");
    scratch().wakes.emplace_back(superstep, local_);
  }

  /// Contribute to a sum-aggregate readable by the master at this barrier
  /// and by all vertices next superstep. Logged with the vertex's rank and
  /// replayed at the barrier in serial summation order.
  void aggregate(std::uint64_t key, double value) {
    auto& cs = scratch();
    cs.aggs.push_back({cs.computing_rank, key, value});
  }
  /// Read a master-broadcast global (or last superstep's aggregate).
  double global(std::uint64_t key, double fallback = 0.0) const {
    return engine_->globals_.get(key, fallback);
  }
  bool has_global(std::uint64_t key) const { return engine_->globals_.contains(key); }

  /// Account algorithm state growth/shrink at this vertex (modeled bytes;
  /// feeds the worker memory meter and thus the swath heuristics).
  void charge_state_bytes(std::int64_t delta) {
    engine_->charge_state(partition_, local_, delta, chunk_);
  }

  /// Declare a traversal root complete (root-scheduled algorithms).
  void mark_root_done(VertexId root) {
    auto& cs = scratch();
    cs.roots.push_back({cs.computing_rank, root});
  }

  /// Write-barrier claim for delta checkpoints: this compute left the vertex
  /// value bit-identical (a relaxation that didn't improve the distance, a
  /// converged PageRank update below tolerance), so the next delta leg need
  /// not carry it. Delta legs hold real content, so a false claim restores a
  /// stale value; Debug builds audit the claim bytewise for trivially
  /// copyable values. A program that never calls it gets every computed
  /// vertex in the delta, the conservative default.
  void state_unchanged() noexcept { mutated_ = false; }

 private:
  friend class Engine<Program>;
  VertexContext(Engine<Program>* engine, std::uint32_t partition, std::uint32_t local,
                VertexId vertex, std::size_t chunk)
      : engine_(engine), partition_(partition), local_(local), vertex_(vertex),
        chunk_(chunk) {}

  auto& scratch() const { return engine_->chunk_scratch_[chunk_]; }

  Engine<Program>* engine_;
  std::uint32_t partition_;
  std::uint32_t local_;
  VertexId vertex_;
  std::size_t chunk_;
  bool mutated_ = true;
};

/// Handed to Program::compute_subgraph once per partition per superstep
/// (subgraph-centric programs only; docs/SUBGRAPH.md). The context exposes
/// the partition's full local view — vertex list, values, adjacency through
/// the shared graph, per-vertex inboxes of boundary messages, this
/// superstep's frontier — plus a staged boundary outbox and the shared
/// aggregator. All emissions are staged into the partition's chunk scratch
/// and merged in canonical order after the compute barrier, so results are
/// bit-identical at any parallelism and across migrations.
template <VertexProgramT Program>
class SubgraphContext {
 public:
  using MessageValue = typename Program::MessageValue;
  using VertexValue = typename Program::VertexValue;

  // ---- partition view ------------------------------------------------------

  std::uint32_t partition() const noexcept { return partition_; }
  std::uint64_t superstep() const noexcept { return engine_->superstep_; }
  VertexId num_graph_vertices() const noexcept { return engine_->graph_->num_vertices(); }

  /// Global ids of this partition's vertices, ascending. Local index ==
  /// position in this span.
  std::span<const VertexId> vertices() const {
    return engine_->parts_[partition_].vertices;
  }
  std::uint32_t num_vertices() const {
    return static_cast<std::uint32_t>(engine_->parts_[partition_].vertices.size());
  }
  VertexId vertex_at(std::uint32_t local) const {
    return engine_->parts_[partition_].vertices[local];
  }
  bool is_local(VertexId v) const { return engine_->part_of_[v] == partition_; }
  /// Local index of a vertex currently homed in this partition.
  std::uint32_t local_of(VertexId v) const { return engine_->local_of_[v]; }
  VertexValue& value(std::uint32_t local) {
    return engine_->parts_[partition_].values[local];
  }
  const VertexValue& value(std::uint32_t local) const {
    return engine_->parts_[partition_].values[local];
  }

  /// Full adjacency of any vertex (local or boundary remote endpoint).
  std::span<const VertexId> out_neighbors(VertexId v) const {
    return engine_->graph_->out_neighbors(v);
  }
  std::uint32_t out_degree(VertexId v) const { return engine_->graph_->out_degree(v); }

  /// Immutable per-run serial rank of a vertex (partition-major over the
  /// initial assignment). Boundary messages arrive in ascending sender rank;
  /// order-sensitive reductions key on it for bit-identity.
  std::uint32_t rank_of(VertexId v) const { return engine_->rank_of_[v]; }

  // ---- frontier and inboxes ------------------------------------------------

  /// Locals active this superstep (deterministically sorted). Every local
  /// with a non-empty inbox is in here.
  std::span<const std::uint32_t> active_locals() const {
    return engine_->parts_[partition_].active_cur;
  }
  /// Boundary/seed messages delivered to a local vertex this superstep, in
  /// ascending sender-rank order.
  std::span<const MessageValue> messages(std::uint32_t local) const {
    return engine_->parts_[partition_].inbox_cur[local];
  }

  // ---- boundary outbox and activation -------------------------------------

  /// Emit a boundary message on behalf of local vertex `from` for delivery
  /// at the start of the next superstep (any target, though subgraph
  /// programs typically send only across the cut — internal updates are
  /// applied in place).
  void send(VertexId from, VertexId target, MessageValue message) {
    PREGEL_DCHECK(target < engine_->graph_->num_vertices());
    auto& cs = engine_->chunk_scratch_[partition_];
    const std::uint32_t tp = engine_->part_of_[target];
    const std::uint32_t tl = engine_->local_of_[target];
    cs.out[tp].push_back(typename Engine<Program>::StagedMessage{
        tl, engine_->rank_of_[from],
        static_cast<std::uint8_t>(engine_->placement_[engine_->orig_part_[from]]),
        cs.emit_seq++, std::move(message)});
  }

  /// Keep a local vertex active next superstep without sending it a message.
  void remain_active(std::uint32_t local) {
    engine_->chunk_scratch_[partition_].activations.push_back(local);
  }
  /// Request activation of a local vertex at an absolute future superstep.
  void wake_at(std::uint32_t local, std::uint64_t superstep) {
    engine_->chunk_scratch_[partition_].wakes.push_back({superstep, local});
  }

  // ---- aggregation / globals ----------------------------------------------

  /// Contribute to a sum-aggregate on behalf of local vertex `as` (the rank
  /// tag keeps barrier replay order migration-invariant).
  void aggregate(VertexId as, std::uint64_t key, double value) {
    engine_->chunk_scratch_[partition_].aggs.push_back(
        {engine_->rank_of_[as], key, value});
  }
  double global(std::uint64_t key, double fallback = 0.0) const {
    return engine_->globals_.get(key, fallback);
  }
  bool has_global(std::uint64_t key) const { return engine_->globals_.contains(key); }

  // ---- accounting ----------------------------------------------------------

  /// Charge `ops` units of internal sequential work (one relaxation, one
  /// union-find step, one rank update). Priced at
  /// CostParams::cycles_per_subgraph_op — far below a full vertex dispatch,
  /// which is the subgraph model's whole bet.
  void charge_local_work(std::uint64_t ops) {
    engine_->chunk_scratch_[partition_].load.subgraph_ops += ops;
  }
  /// Account algorithm state growth/shrink at a local vertex (modeled bytes).
  void charge_state_bytes(std::uint32_t local, std::int64_t delta) {
    engine_->charge_state(partition_, local, delta, partition_);
  }
  /// Declare a traversal root complete (root-scheduled algorithms).
  void mark_root_done(VertexId root) {
    engine_->chunk_scratch_[partition_].roots.push_back(
        {engine_->rank_of_[root], root});
  }

  // ---- delta-checkpoint write barrier -------------------------------------

  /// Opt in to precise dirty tracking for this call: only locals passed to
  /// mark_changed() afterwards enter the next delta leg. Without this call
  /// every local of the partition is conservatively marked dirty.
  void state_unchanged_all() noexcept { unchanged_all_ = true; }
  void mark_changed(std::uint32_t local) { changed_.push_back(local); }

 private:
  friend class Engine<Program>;
  SubgraphContext(Engine<Program>* engine, std::uint32_t partition)
      : engine_(engine), partition_(partition) {}

  Engine<Program>* engine_;
  std::uint32_t partition_;
  bool unchanged_all_ = false;
  std::vector<std::uint32_t> changed_;
};

/// Handed to Program::master_compute at each barrier (GPS-style master task).
template <VertexProgramT Program>
class MasterContext {
 public:
  std::uint64_t superstep() const noexcept { return engine_->superstep_; }
  const Aggregates& aggregates() const noexcept { return engine_->agg_cur_; }
  Globals& globals() noexcept { return engine_->globals_next_; }
  /// Roots initiated and not yet completed, in initiation order. The
  /// reference is invalidated by mark_root_done (collect first, then mark).
  const std::vector<VertexId>& active_roots() const {
    return engine_->active_roots();
  }
  void mark_root_done(VertexId root) { engine_->mark_root_done(root); }
  void request_halt() { engine_->halt_requested_ = true; }
  std::uint64_t active_vertices() const noexcept { return engine_->last_active_vertices_; }
  VertexId num_graph_vertices() const noexcept { return engine_->graph_->num_vertices(); }

 private:
  friend class Engine<Program>;
  explicit MasterContext(Engine<Program>* engine) : engine_(engine) {}
  Engine<Program>* engine_;
};

template <VertexProgramT Program>
class Engine {
 public:
  using V = typename Program::VertexValue;
  using M = typename Program::MessageValue;

  /// The graph and partitioning must outlive the engine.
  Engine(const Graph& graph, Program program, ClusterConfig cluster,
         const Partitioning& partitioning)
      : graph_(&graph),
        program_(std::move(program)),
        cluster_(std::move(cluster)),
        cost_(cluster_.cost),
        noise_(cluster_.tenancy_sigma, cluster_.noise_seed),
        faults_(cluster_.faults) {
    cluster_.retry.validate();
    PREGEL_CHECK_MSG(cluster_.num_partitions >= 1, "Engine: need >= 1 partition");
    PREGEL_CHECK_MSG(
        cluster_.initial_workers >= 1 && cluster_.initial_workers <= cluster_.num_partitions,
        "Engine: initial_workers must be in [1, num_partitions]");
    PREGEL_CHECK_MSG(partitioning.num_vertices() == graph.num_vertices(),
                     "Engine: partitioning does not match graph");
    PREGEL_CHECK_MSG(partitioning.num_parts() == cluster_.num_partitions,
                     "Engine: partitioning has wrong number of parts");
    initial_assignment_ = partitioning.assignment();
    build_partitions(initial_assignment_);
  }

  JobResult<Program> run(const JobOptions& opts) {
    trace::Span job_span("engine.run", "engine");
    JobResult<Program> result;
    if (start(opts, result)) {
      while (advance(result) == StepStatus::kRunning) {
      }
    }
    finish(result);
    return result;
  }

  // ---- re-entrant (scheduled-slice) execution -------------------------------
  //
  // `start` + repeated `advance` + `finish` is exactly `run`, sliced at
  // superstep granularity so a multi-job scheduler (src/sched/) can
  // interleave many engines over a shared VM pool. Nothing engine-visible
  // happens between slices: pausing, preempting, and resuming a job leave
  // every value, modeled time, and metric bit-identical to the solo run.

  /// One `advance` outcome: the job wants another slice, or it is finished
  /// (halted, failed, or out of supersteps) and only `finish` remains.
  enum class StepStatus { kRunning, kDone };

  /// Begin a run: validate, reset state, simulate setup, and perform the
  /// pre-superstep-0 barrier (initial activation / first swath / implicit
  /// snapshot). Returns false when the job dies during setup — the caller
  /// should skip straight to finish().
  bool start(const JobOptions& opts, JobResult<Program>& result) {
    validate(opts);
    reset_run_state(opts);

    result.metrics.recovery_mode =
        cluster_.checkpoint_interval > 0 ? to_string(cluster_.recovery_mode) : "none";
    if (!simulate_setup(result)) return false;

    // Barrier before superstep 0: activate all vertices (PageRank-style) or
    // inject the first swath of roots.
    if (opts.start_all_vertices) {
      for (std::uint32_t p = 0; p < parts_.size(); ++p)
        for (std::uint32_t l = 0; l < parts_[p].vertices.size(); ++l)
          activate_local(p, l);
    } else {
      // The governor's rewind anchor must precede the first initiation:
      // only then can rungs 2-3 park roots of the startup swath or replay it
      // under a halved size cap (a restore re-initiates, clamped, below).
      if (governor_.enabled()) take_snapshot(0);
      maybe_initiate_swath(/*at_startup=*/true, result);
    }

    // With fault tolerance on, the initial state is implicitly recoverable
    // (the input graph lives in blob storage): a failure before the first
    // periodic checkpoint restarts from superstep 0 instead of losing the
    // job. No upload is charged — nothing new needs writing.
    if ((cluster_.checkpoint_interval > 0 || governor_.enabled()) &&
        !ckpt_.has_checkpoint())
      take_snapshot(0);
    return true;
  }

  /// Execute one superstep attempt (or one recovery/rewind replay step).
  /// Exactly one iteration of the classic run loop; kDone means the loop
  /// would have exited — call finish() to collect the result.
  StepStatus advance(JobResult<Program>& result) {
    if (result.failed) return StepStatus::kDone;
    if (!(superstep_ < opts_.max_supersteps && executed_++ < 4 * opts_.max_supersteps))
      return StepStatus::kDone;
    prepare_superstep();
    if (!any_activity()) return StepStatus::kDone;

    // Control plane, exactly as §III describes: the manager posts one
    // superstep token per worker to the "step" queue; each worker dequeues
    // its token, computes, then checks in through the "barrier" queue with
    // its active-vertex count, which the manager drains to decide halting.
    // Every queue op runs under the retry policy: transient failures are
    // masked at backoff cost, an exhausted budget kills the worker.
    control_superstep_begin(result);

    SuperstepMetrics sm = execute_superstep();
    const bool restarted = finalize_timing(sm, result);
    control_superstep_end(sm, result);
    settle_control_latency(sm, result);
    if (confined_replay_active()) result.metrics.confined_replay_time += sm.span;
    result.metrics.supersteps.push_back(std::move(sm));
    if (restarted) return StepStatus::kDone;

    // Worker failure (fault-injection model): a worker missing the barrier
    // — VM death, spot preemption, a control op past its retry budget, or
    // a whole availability zone going dark — is detected by the job
    // manager. With a checkpoint we roll back (confined to the lost
    // partitions when so configured) and replay; without one the job is
    // lost (Pregel without fault tolerance).
    const FailureEvent event = collect_failures(result);
    if (!event.dead.empty()) {
      result.metrics.worker_failures += static_cast<std::uint32_t>(event.dead.size());
      // One assessment serves every recovery path: is anything restorable
      // at all, and which generation will the restore walk land on?
      RecoveryAssessment assessment = assess_recovery(event, result);
      if (!assessment.plan) {
        result.failed = true;
        result.failure_reason = failure_description(event) + " at superstep " +
                                std::to_string(superstep_) + " " + assessment.reason;
        return StepStatus::kDone;
      }
      if (cluster_.recovery_mode == RecoveryMode::kConfined && !confined_replay_active())
        recover_confined(result, event.dead, *assessment.plan);
      else
        recover_from_checkpoint(result, *assessment.plan);
      return StepStatus::kRunning;  // re-execute from the restored superstep
    }

    // Memory-pressure governor, rungs 2-3: at the barrier, decide whether
    // this superstep's pressure warrants parking roots (shed) or a
    // governed-OOM restore. Both rewind to the snapshot and re-execute.
    const GovernorVerdict verdict = governor_step(result);
    if (verdict == GovernorVerdict::kRewound) return StepStatus::kRunning;
    if (verdict == GovernorVerdict::kFailed) return StepStatus::kDone;

    run_barrier(result);
    maybe_checkpoint(result);
    maybe_scrub(result);
    if (halt_requested_) return StepStatus::kDone;
    ++superstep_;
    if (!replay_lost_vms_.empty() && superstep_ > confined_replay_until_)
      replay_lost_vms_.clear();
    return StepStatus::kRunning;
  }

  /// Collect the final values and cost totals into `result`. Idempotent;
  /// the classic run() calls it once after the loop drains.
  void finish(JobResult<Program>& result) { collect(result); }

  // ---- pool-facing accessors (read-only; consulted between slices) ---------

  /// VMs this job currently holds (the scheduler polls this after each slice
  /// to reclaim capacity the scale-in rung returned).
  std::uint32_t current_workers() const noexcept { return workers_now_; }
  std::uint64_t current_superstep() const noexcept { return superstep_; }
  /// Modeled spend so far (admission-control budget enforcement).
  Usd cost_so_far() const { return meter_.total_usd(); }
  Seconds vm_seconds_so_far() const { return meter_.total_vm_seconds(); }
  /// Manifest a scheduler persists via cloud::JobManager when preempting
  /// this job between slices; resuming later needs nothing else, because the
  /// engine object itself retains the (deterministic) in-memory state.
  cloud::ManagerManifest preemption_manifest() const { return current_manifest(); }

 private:
  friend class VertexContext<Program>;
  friend class SubgraphContext<Program>;
  friend class MasterContext<Program>;

  // ---- static program-trait helpers --------------------------------------

  static Bytes payload_bytes(const M& m) {
    if constexpr (requires(const M& x) {
                    { Program::message_payload_bytes(x) } -> std::convertible_to<Bytes>;
                  }) {
      return Program::message_payload_bytes(m);
    } else {
      return sizeof(M);
    }
  }

  static constexpr bool has_combiner() {
    return requires(M& a, const M& b) {
      { Program::combine_key(b) } -> std::convertible_to<std::uint64_t>;
      Program::combine(a, b);
    };
  }

  /// Spill relief is offered to the swath sizers only while the modeled
  /// blob round-trip stays below this fraction of a superstep span —
  /// spilling that dominates the superstep is not relief, it is thrash.
  static constexpr double kSpillCheapFraction = 0.25;

  // ---- per-partition state ------------------------------------------------

  struct PartitionState {
    std::vector<VertexId> vertices;  ///< global ids, ascending
    std::vector<V> values;           ///< by local index
    std::vector<std::vector<M>> inbox_cur, inbox_next;
    /// Source VM of each buffered message, maintained only while a combiner
    /// is active: a Pregel combiner is sender-side, so only messages that
    /// left the same worker may merge.
    std::vector<std::vector<std::uint8_t>> inbox_cur_src, inbox_next_src;
    Bytes inbox_cur_bytes = 0, inbox_next_bytes = 0;
    std::vector<std::uint32_t> active_cur, active_next;
    std::vector<bool> in_active_next;
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> wakes;
    std::int64_t state_bytes = 0;
    /// Per-vertex breakdown of state_bytes, maintained only when migration
    /// is possible this run — a moving vertex must carry its exact modeled
    /// state so both partitions' totals stay right.
    std::vector<std::int64_t> state_bytes_v;
    /// Delta-checkpoint dirty tracking, maintained only when the run writes
    /// delta generations: which locals mutated their value/state since the
    /// last *published* checkpoint (computed, minus computes the program
    /// declared write-free via ctx.state_unchanged()). Cleared on
    /// successful publish only, so a torn-manifest round leaves the next
    /// delta relative to the last generation a restore could actually
    /// read. A restore clears it too: the restored state *is* that
    /// generation, so the replay re-dirties and re-publishes identically.
    std::vector<std::uint8_t> dirty;
    Bytes graph_bytes = 0;
    Bytes outbuf_bytes = 0;  ///< serialized remote sends buffered this superstep
    cloud::WorkerLoad load;  ///< raw counters, reset each superstep
  };

  /// One emission captured during staged compute, pending the deterministic
  /// merge (destination partition is the scratch row index; emission order
  /// is the vector order). rank is the sender's immutable global serial
  /// rank, the key merge_by_rank orders delivery by at any placement;
  /// combine_src is the sender-side combining domain captured at emission
  /// time; seq numbers the sender's emissions within its compute() call so
  /// a pull-mode merge can interleave broadcast and pointwise emissions
  /// exactly as push would.
  struct StagedMessage {
    std::uint32_t target_local;
    std::uint32_t rank;
    std::uint8_t combine_src;
    std::uint32_t seq;
    M message;
  };

  /// Aggregate contribution / root completion captured during staged
  /// compute; `rank` is the emitting vertex's serial rank, the key the
  /// barrier replay merges by.
  struct StagedAgg {
    std::uint32_t rank;
    std::uint64_t key;
    double value;
  };
  struct StagedRootDone {
    std::uint32_t rank;
    VertexId root;
  };

  /// Source-side counters a destination's merge accumulates on behalf of a
  /// source partition; folded back (order-free integer sums) after the merge
  /// barrier.
  struct SendScratch {
    cloud::WorkerLoad load;
    Bytes outbuf_bytes = 0;
  };

  /// A source partition's place in merge_by_rank: its head's chunk, entry
  /// and rank, and its chunk range's end (chunk == end once drained).
  struct MergeCursor {
    std::uint32_t chunk;
    std::uint32_t end;
    std::uint32_t head;
    std::size_t pos;
  };

  /// One unit of stealable work: a leaf of a partition's frontier bag.
  struct ChunkRef {
    std::uint32_t partition;
    std::uint32_t leaf;  ///< leaf index within frontier_bags_[partition]
  };

  /// Everything a chunk's compute produces, staged thread-locally and folded
  /// back in deterministic (partition-major, leaf-order) sequence after the
  /// compute barrier. Chunks of the same partition never run concurrently
  /// with that partition's merge, so nothing here needs synchronization.
  struct ChunkScratch {
    /// By destination partition. Merges clear rows without shrinking them:
    /// there are chunks x partitions rows, refilled every superstep, and
    /// reallocating them each time costs host time and heap fragmentation.
    std::vector<std::vector<StagedMessage>> out;
    std::vector<StagedAgg> aggs;
    std::vector<StagedRootDone> roots;
    std::vector<std::uint32_t> activations;  ///< locals of this chunk's partition
    std::vector<std::pair<std::uint64_t, std::uint32_t>> wakes;  ///< (at, local)
    std::vector<VertexId> broadcasters;  ///< senders with pull-mode records
    cloud::WorkerLoad load;
    Bytes drained_bytes = 0;
    std::int64_t state_delta = 0;
    /// Rank / combiner source / emission counter of the vertex currently in
    /// compute() — reset per vertex so route() can tag emissions cheaply.
    std::uint32_t computing_rank = 0;
    std::uint8_t computing_src = 0;
    std::uint32_t emit_seq = 0;
  };

  /// (Re)build partition state from the run's initial assignment. Also
  /// derives the immutable per-run serial order: rank_of_[v] numbers every
  /// vertex in the order an unmigrated superstep visits it (partition-major,
  /// ascending within each partition). Message delivery happens exactly in
  /// sender-rank order, migrated or not, which keeps results bit-identical
  /// across migrations.
  void build_partitions(const std::vector<PartitionId>& assignment) {
    const VertexId n = graph_->num_vertices();
    part_of_.resize(n);
    local_of_.resize(n);
    parts_.assign(cluster_.num_partitions, {});
    for (VertexId v = 0; v < n; ++v) {
      const PartitionId p = assignment[v];
      part_of_[v] = p;
      local_of_[v] = static_cast<std::uint32_t>(parts_[p].vertices.size());
      parts_[p].vertices.push_back(v);
    }
    for (auto& ps : parts_) {
      const std::size_t pn = ps.vertices.size();
      ps.values.resize(pn);
      ps.inbox_cur.resize(pn);
      ps.inbox_next.resize(pn);
      ps.inbox_cur_src.resize(pn);
      ps.inbox_next_src.resize(pn);
      ps.in_active_next.assign(pn, false);
      EdgeIndex arcs = 0;
      for (VertexId v : ps.vertices) arcs += graph_->out_degree(v);
      // Managed-runtime partition footprint: ~64 B per vertex object and
      // ~8 B per adjacency entry.
      ps.graph_bytes = static_cast<Bytes>(pn) * 64 + arcs * 8;
    }
    orig_part_ = part_of_;
    rank_of_.resize(n);
    std::uint32_t r = 0;
    for (const auto& ps : parts_)
      for (const VertexId v : ps.vertices) rank_of_[v] = r++;
    pull_index_built_ = false;  // rank order changed; rebuild lazily
  }

  Bytes partition_graph_bytes(const std::vector<VertexId>& vertices) const {
    EdgeIndex arcs = 0;
    for (VertexId v : vertices) arcs += graph_->out_degree(v);
    return static_cast<Bytes>(vertices.size()) * 64 + arcs * 8;
  }

  // ---- run lifecycle -------------------------------------------------------

  void validate(const JobOptions& opts) const {
    opts.governor.validate();
    PREGEL_CHECK_MSG(!(opts.start_all_vertices && !opts.roots.empty()),
                     "JobOptions: start_all_vertices excludes explicit roots");
    if (!opts.roots.empty()) {
      if constexpr (!requires(VertexId r) {
                      { Program::seed_message(r) } -> std::convertible_to<M>;
                    }) {
        PREGEL_CHECK_MSG(false, "JobOptions: program lacks seed_message but roots given");
      }
      for (VertexId r : opts.roots)
        PREGEL_CHECK_MSG(r < graph_->num_vertices(), "JobOptions: root out of range");
      PREGEL_CHECK_MSG(opts.swath.sizer && opts.swath.initiation,
                       "JobOptions: swath policy incomplete");
    }
  }

  void reset_run_state(const JobOptions& opts) {
    // A previous run's migrations rewired the vertex->partition map; every
    // run starts from the pristine build-time assignment.
    if (parts_dirty_) {
      build_partitions(initial_assignment_);
      parts_dirty_ = false;
    }
    migrated_ = false;
    migration_possible_ =
        cluster_.migration.enabled() ||
        (opts.governor.enabled && opts.governor.scale_out_enabled);
    opts_ = opts;
    opts_combine_ = opts.use_combiner;
    last_messages_sent_ = 0;
    roots_completed_ = 0;
    ckpt_.configure(cluster_.ckpt, static_cast<std::uint32_t>(parts_.size()));
    track_dirty_ = cluster_.checkpoint_interval > 0 && cluster_.ckpt.delta_enabled;
    barriers_since_scrub_ = 0;
    scheduled_failures_ = cluster_.scheduled_failures;
    scheduled_zone_outages_ = cluster_.scheduled_zone_outages;
    failure_epoch_ = 0;
    superstep_ = 0;
    halt_requested_ = false;
    pending_roots_ = opts.roots;
    next_root_ = 0;
    outstanding_roots_.clear();
    outstanding_index_.clear();
    root_tombstones_ = 0;
    swath_index_ = 0;
    last_swath_size_ = 0;
    supersteps_since_initiation_ = 0;
    peak_memory_since_initiation_ = 0;
    last_active_vertices_ = 0;
    workers_now_ = cluster_.initial_workers;
    workers_changed_ = false;
    executed_ = 0;
    scale_in_quiet_ = 0;
    scale_in_cooldown_ = 0;
    // Each run bills from zero: JobMetrics::cost_usd is this job's spend, not
    // a lifetime total for the engine (reuse would silently double-charge).
    meter_.reset();
    agg_cur_.clear();
    globals_ = Globals{};
    globals_next_ = Globals{};
    for (auto& ps : parts_) {
      std::fill(ps.values.begin(), ps.values.end(), V{});
      for (auto& ib : ps.inbox_cur) ib.clear();
      for (auto& ib : ps.inbox_next) ib.clear();
      for (auto& sb : ps.inbox_cur_src) sb.clear();
      for (auto& sb : ps.inbox_next_src) sb.clear();
      ps.inbox_cur_bytes = ps.inbox_next_bytes = 0;
      ps.active_cur.clear();
      ps.active_next.clear();
      std::fill(ps.in_active_next.begin(), ps.in_active_next.end(), false);
      ps.wakes.clear();
      ps.state_bytes = 0;
      if (migration_possible_)
        ps.state_bytes_v.assign(ps.vertices.size(), 0);
      else
        ps.state_bytes_v.clear();
      ps.outbuf_bytes = 0;
      ps.load = {};
      if (track_dirty_)
        ps.dirty.assign(ps.vertices.size(), 0);
      else
        ps.dirty.clear();
    }
    reset_placement_to_modulo();
    pending_placement_cost_ = 0.0;
    virtual_now_us_ = 0.0;
    recompute_baseline_memory();
    governor_.reset(opts.governor, opts.swath.memory_target);
    governor_breach_ = false;
    last_unspilled_peak_ = 0;
    last_post_spill_peak_ = 0;
    peak_spillable_since_initiation_ = 0;
    last_superstep_span_ = 0.0;

    // Host-parallelism: resolve the lane count and the frontier-bag grain.
    // The pool persists across runs when the resolved width is unchanged.
    // One lane runs every chunk and merge on the calling thread, no pool.
    const std::uint32_t requested =
        opts.parallelism == 0 ? ThreadPool::hardware_threads() : opts.parallelism;
    const std::uint32_t lanes = std::min<std::uint32_t>(
        std::max<std::uint32_t>(requested, 1), static_cast<std::uint32_t>(parts_.size()));
    if (lanes > 1) {
      if (!pool_ || pool_->size() != lanes) pool_ = std::make_unique<ThreadPool>(lanes);
    } else {
      pool_.reset();
    }
    grain_ = opts.frontier_grain == 0 ? Bag::kDefaultGrain : opts.frontier_grain;
    frontier_bags_.assign(parts_.size(), Bag(grain_));
    chunks_.clear();
    part_chunk_range_.assign(parts_.size(), {0, 0});
    direction_enabled_ =
        direction_capable() && opts.direction.mode != DirectionOptions::Mode::kOff;
    pull_mode_ = pull_this_step_ = last_pull_mode_ = false;
    last_steals_ = {};
    if (direction_enabled_)
      broadcast_store_.assign(graph_->num_vertices(), {});
    else
      broadcast_store_.clear();
    send_scratch_.assign(parts_.size() * parts_.size(), {});
    merge_cursors_.assign((parts_.size() + 1) * parts_.size(), {});

    faults_ = cloud::FaultInjector(cluster_.faults);
    pending_retry_latency_ = 0.0;
    control_failed_vm_.reset();
    replay_lost_vms_.clear();
    confined_replay_until_ = 0;
    manager_ = cloud::JobManager{};
    location_version_ = 0;
    zones_ = cloud::ZoneMap{std::max<std::uint32_t>(cluster_.availability_zones, 1)};
    // The manifest a standby would resume from if the primary died before
    // the first barrier: superstep 0, epoch 0, pristine aggregates.
    manager_.persist(current_manifest());
    log_outboxes_ = cluster_.recovery_mode == RecoveryMode::kConfined &&
                    cluster_.checkpoint_interval > 0;
    outbox_log_cur_.clear();
    vm_straggler_counts_.assign(workers_now_, 0);
  }

  /// Returns false when the job dies during setup (graph blob unreadable
  /// past the retry budget).
  bool simulate_setup(JobResult<Program>& result) {
    trace::Span span("engine.setup", "engine");
    // Workers download the graph file from blob storage in parallel, load
    // their partitions, and the manager broadcasts the worker topology
    // (§III: "Workers report back ... so the manager can build a mapping").
    const auto read = control_op(cloud::FaultKind::kBlobRead, result);
    const Bytes graph_file = graph_->memory_footprint();
    const Seconds download = cost_.transfer_time(graph_file, cluster_.vm);
    const Seconds topology = 2.0 * cost_.params().queue_op_latency +
                             cost_.params().connection_setup_per_peer * (workers_now_ - 1);
    result.metrics.setup_time = download + topology + read.extra_latency;
    result.metrics.total_time += result.metrics.setup_time;
    meter_.charge(cluster_.vm, workers_now_, result.metrics.setup_time);
    virtual_now_us_ = result.metrics.total_time * 1e6;
    if (trace::spans_on())
      trace::Tracer::instance().virtual_complete(
          "setup (graph download + topology)", "modeled", 0, 0.0,
          result.metrics.setup_time * 1e6);
    if (!read.success) {
      result.failed = true;
      result.failure_reason = "graph blob unreadable after " +
                              std::to_string(read.attempts) + " attempts during setup";
      return false;
    }
    return true;
  }

  /// Worker VM hosting partition p (placement table; default p mod workers).
  std::uint32_t vm_of(std::uint32_t partition) const noexcept {
    return placement_[partition];
  }

  void reset_placement_to_modulo() {
    placement_.resize(parts_.size());
    for (std::uint32_t p = 0; p < placement_.size(); ++p) placement_[p] = p % workers_now_;
    ++location_version_;
  }

  /// Per-worker resident floor (the graph bytes of the partitions each VM
  /// hosts) feeding the sizers' headroom math. Placement-sensitive: it must
  /// be re-derived whenever the partition->VM mapping changes, or the sizers
  /// extrapolate against a stale baseline.
  void recompute_baseline_memory() {
    baseline_memory_ = 0;
    for (std::uint32_t w = 0; w < workers_now_; ++w)
      baseline_memory_ = std::max(baseline_memory_, vm_graph_bytes(w));
  }

  Bytes vm_graph_bytes(std::uint32_t vm) const {
    Bytes total = 0;
    for (std::uint32_t p = 0; p < parts_.size(); ++p)
      if (placement_[p] == vm) total += parts_[p].graph_bytes;
    return total;
  }

  Bytes partition_resident_bytes(const PartitionState& ps) const {
    return ps.graph_bytes + static_cast<Bytes>(std::max<std::int64_t>(ps.state_bytes, 0)) +
           ps.inbox_cur_bytes + ps.inbox_next_bytes;
  }

  void prepare_superstep() {
    for (auto& ps : parts_) {
      ps.inbox_cur.swap(ps.inbox_next);
      ps.inbox_cur_src.swap(ps.inbox_next_src);
      ps.inbox_cur_bytes = ps.inbox_next_bytes;
      ps.inbox_next_bytes = 0;
      ps.active_cur = std::move(ps.active_next);
      ps.active_next.clear();
      // The dedupe flags are still set for active_cur's members; reuse them
      // to merge this superstep's wakes in O(actives + wakes), then clear.
      if (auto it = ps.wakes.find(superstep_); it != ps.wakes.end()) {
        for (std::uint32_t l : it->second) {
          if (!ps.in_active_next[l]) {
            ps.in_active_next[l] = true;
            ps.active_cur.push_back(l);
          }
        }
        ps.wakes.erase(it);
      }
      for (std::uint32_t l : ps.active_cur) ps.in_active_next[l] = false;
      if (migrated_) {
        // After a migration, local index order no longer equals serial-visit
        // order; compute must walk actives in immutable-rank order so staged
        // emissions come out rank-sorted per outbox row.
        std::sort(ps.active_cur.begin(), ps.active_cur.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                    return rank_of_[ps.vertices[a]] < rank_of_[ps.vertices[b]];
                  });
      } else {
        std::sort(ps.active_cur.begin(), ps.active_cur.end());
      }
      ps.load = {};
      ps.outbuf_bytes = 0;
      // Delta-checkpoint dirty tracking: a migration rebuilt the partition
      // under us -> everything is dirty until the forced re-base publishes.
      // Ordinary dirtying happens after each compute (see compute_chunk /
      // compute_subgraph_partition): the vertex rides the next delta leg
      // unless its program declared the call a write-free no-op via
      // ctx.state_unchanged() (subgraph programs: state_unchanged_all).
      if (track_dirty_ && ps.dirty.size() != ps.vertices.size())
        ps.dirty.assign(ps.vertices.size(), 1);
    }
    // Confined recovery keeps a per-superstep log of remote outbox bytes
    // (src partition x dst partition). Only the current superstep's row is
    // materialized: replayed supersteps regenerate their row determin-
    // istically before the re-delivery cost is read from it.
    if (log_outboxes_) outbox_log_cur_.assign(parts_.size() * parts_.size(), 0);
  }

  bool any_activity() const {
    // Pending future wakes keep the job alive even through idle supersteps
    // (e.g. the gap between a BC vertex's discovery and its successor
    // census).
    for (const auto& ps : parts_)
      if (!ps.active_cur.empty() || !ps.wakes.empty()) return true;
    return false;
  }

  /// Enumerate this superstep's chunks partition-major, so "chunk index
  /// order" is exactly serial visit order, and reset their scratch slots.
  /// Slots are reused across supersteps and runs (cleared, not reallocated).
  /// Vertex programs pack each partition's sorted active list into its
  /// frontier bag and take the bag's leaves as chunks. Subgraph programs get
  /// one chunk per partition (chunk index == partition index): the partition
  /// is the indivisible unit of subgraph work.
  void build_chunks() {
    chunks_.clear();
    const std::size_t n = parts_.size();
    for (std::uint32_t p = 0; p < n; ++p) {
      const std::uint32_t first = static_cast<std::uint32_t>(chunks_.size());
      if constexpr (subgraph_model()) {
        chunks_.push_back(ChunkRef{p, 0});
      } else {
        Bag& bag = frontier_bags_[p];
        bag.assign(std::span<const std::uint32_t>(parts_[p].active_cur));
        for (std::size_t leaf = 0; leaf < bag.num_leaves(); ++leaf)
          chunks_.push_back(ChunkRef{p, static_cast<std::uint32_t>(leaf)});
      }
      part_chunk_range_[p] = {first, static_cast<std::uint32_t>(chunks_.size())};
    }
    if (chunk_scratch_.size() < chunks_.size()) chunk_scratch_.resize(chunks_.size());
    for (std::size_t c = 0; c < chunks_.size(); ++c) {
      ChunkScratch& cs = chunk_scratch_[c];
      cs.out.resize(n);
      cs.load = {};
      cs.drained_bytes = 0;
      cs.state_delta = 0;
      cs.emit_seq = 0;
    }
  }

  /// The raw bytes of a trivially copyable vertex value (an empty array
  /// otherwise). Debug builds compare them across a compute that claimed to
  /// be write-free, because the claim keeps the vertex out of delta legs.
  static auto value_bytes(const V& v) {
    if constexpr (std::is_trivially_copyable_v<V>) {
      std::array<std::byte, sizeof(V)> bytes;
      std::memcpy(bytes.data(), &v, sizeof(V));
      return bytes;
    } else {
      return std::array<std::byte, 0>{};
    }
  }

  /// Drain one frontier chunk through compute(), staging every side effect
  /// in the chunk's scratch. Chunks touch only their own scratch, their own
  /// vertices' inboxes/values (disjoint: a vertex is in exactly one leaf),
  /// and per-vertex state_bytes_v slots — so any lane may run any chunk.
  void compute_chunk(std::size_t c) {
    const ChunkRef ref = chunks_[c];
    PartitionState& ps = parts_[ref.partition];
    ChunkScratch& cs = chunk_scratch_[c];
    for (std::uint32_t l : frontier_bags_[ref.partition].leaf(ref.leaf)) {
      // Tag emissions with the sender's immutable rank and its combining
      // domain. The domain is the VM of the vertex's *original* partition:
      // identical to vm_of(p) while unmigrated, and invariant under
      // migration so combiner groupings never change with the plan.
      cs.computing_rank = rank_of_[ps.vertices[l]];
      cs.computing_src = static_cast<std::uint8_t>(placement_[orig_part_[ps.vertices[l]]]);
      cs.emit_seq = 0;
      VertexContext<Program> ctx(this, ref.partition, l, ps.vertices[l], c);
      std::vector<M>& box = ps.inbox_cur[l];
      if constexpr (has_combiner()) {
        if (opts_combine_) PREGEL_DCHECK(ps.inbox_cur_src[l].size() == box.size());
      }
      ++cs.load.vertices_computed;
      cs.load.messages_processed += box.size();
#ifndef NDEBUG
      const auto before = value_bytes(ps.values[l]);
#endif
      program_.compute(ctx, ps.values[l], std::span<const M>(box));
      PREGEL_DCHECK(ctx.mutated_ || value_bytes(ps.values[l]) == before);
      // Safe unstaged: dirty is per-vertex and a vertex lives in exactly
      // one chunk, so concurrent chunks write disjoint bytes.
      if (track_dirty_ && ctx.mutated_) ps.dirty[l] = 1;
      for (const M& m : box) cs.drained_bytes += cost_.buffered_bytes(payload_bytes(m));
      shrink_after_drain(box);
      if (opts_combine_) shrink_after_drain(ps.inbox_cur_src[l]);
    }
  }

  /// Activations and wakes staged by partition q's own chunks, applied by
  /// q's merge task (single-threaded per destination) in chunk order. Both
  /// are order-insensitive — activation dedupes through the bitmap and the
  /// active list is sorted next superstep; wakes are merged through the same
  /// bitmap when their superstep arrives — but chunk order keeps the raw
  /// vectors deterministic anyway.
  void apply_chunk_side_effects(std::uint32_t q) {
    const auto [first, last] = part_chunk_range_[q];
    for (std::uint32_t c = first; c < last; ++c) {
      ChunkScratch& cs = chunk_scratch_[c];
      for (std::uint32_t l : cs.activations) activate_local(q, l);
      cs.activations.clear();
      for (const auto& [at, l] : cs.wakes) parts_[q].wakes[at].push_back(l);
      cs.wakes.clear();
    }
  }

  /// Apply every staged message addressed to partition q (plus q's own
  /// staged activations/wakes). Push delivers the staged rows in ascending
  /// sender rank through merge_by_rank, whoever ran the chunks and wherever
  /// the senders live now, so inbox contents (and combiner merges) are
  /// bit-identical at any lane count and after any migration. Source-side
  /// counters go to this destination's scratch row: another merge thread
  /// may own the source partitions.
  void merge_destination(std::uint32_t q) {
    trace::Span span("engine.merge", "superstep", "part", q);
    apply_chunk_side_effects(q);
    if (pull_this_step_) {
      merge_destination_pull(q);
      return;
    }
    const std::size_t n = parts_.size();
    merge_by_rank(
        q,
        [this, q](std::uint32_t c) -> std::vector<StagedMessage>& {
          return chunk_scratch_[c].out[q];
        },
        [this, q, n](std::uint32_t src, std::span<StagedMessage> run) {
          SendScratch& acc = send_scratch_[q * n + src];
          for (StagedMessage& s : run)
            deliver(src, q, s.target_local, std::move(s.message), acc.load, acc.outbuf_bytes,
                    s.combine_src);
        });
  }

  /// The one K-way merge by emitter rank: consume every source partition's
  /// chunk logs (`log_of(chunk)`, entries carrying `.rank`) in (rank, source
  /// partition) order, calling `on_run(src, span)` once per contiguous run
  /// and clearing each drained log. A source's logs are rank-sorted (actives
  /// compute in rank order, chunks follow leaf order, subgraph rows are
  /// sorted), so the first source drains everything ordered before the
  /// runner-up's head in one run. Ranks tie across sources only for subgraph
  /// aggregates and root completions, tagged with the vertex they name.
  /// Unmigrated, each source drains whole. `row` picks this merge's cursors
  /// in merge_cursors_. The callables are taken by value: a local closure
  /// cannot alias `on_run`'s stores, so its captures stay in registers.
  template <class LogOf, class OnRun>
  void merge_by_rank(std::uint32_t row, LogOf log_of, OnRun on_run) {
    const auto n = static_cast<std::uint32_t>(parts_.size());
    MergeCursor* cur = merge_cursors_.data() + std::size_t{row} * n;
    for (std::uint32_t src = 0; src < n; ++src) {
      MergeCursor& c = cur[src] = {part_chunk_range_[src].first, part_chunk_range_[src].second, 0, 0};
      while (c.chunk < c.end && log_of(c.chunk).empty()) ++c.chunk;
      if (c.chunk < c.end) c.head = log_of(c.chunk).front().rank;
    }
    for (;;) {
      std::uint32_t best = n;
      std::uint32_t next = n;
      for (std::uint32_t src = 0; src < n; ++src) {
        if (cur[src].chunk == cur[src].end) continue;
        if (best == n || cur[src].head < cur[best].head) {
          next = best;
          best = src;
        } else if (next == n || cur[src].head < cur[next].head) {
          next = src;
        }
      }
      if (best == n) break;
      // Entries ordered before the runner-up's head: ranks below it, or equal
      // to it when the best source has the lower index. Always takes the
      // best source's head.
      const std::uint64_t limit = next == n ? std::uint64_t{1} << 32
                                            : std::uint64_t{cur[next].head} + (best < next);
      // Test the source's last entry once, not every row's: touching each
      // row's tail costs a cache miss per row on the unmigrated hot path.
      MergeCursor& c = cur[best];
      std::uint32_t last = c.end - 1;
      while (log_of(last).empty()) --last;  // stops at c.chunk, which is live
      const bool whole = log_of(last).back().rank < limit;
      for (; c.chunk < c.end; ++c.chunk, c.pos = 0) {
        auto& log = log_of(c.chunk);
        const auto first = log.begin() + static_cast<std::ptrdiff_t>(c.pos);
        const auto stop =
            whole || log.empty() || log.back().rank < limit
                ? log.end()
                : std::partition_point(first, log.end(),
                                       [limit](const auto& e) { return e.rank < limit; });
        if (stop != first) on_run(best, std::span(first, stop));
        if (stop != log.end()) {
          c.pos = static_cast<std::size_t>(stop - log.begin());
          c.head = stop->rank;
          break;
        }
        log.clear();
      }
    }
  }

  /// Pull-mode merge for destination q: synthesize the push message stream
  /// per target from (a) pointwise staged sends and (b) the in-neighbors'
  /// broadcast records, merged by (sender rank, emission seq). Only the
  /// per-target relative order is observable downstream (inbox contents,
  /// combiner scans; all cross-target effects are order-free sums or
  /// deduped sets), and within one sender the emissions to a given target
  /// appear in call order under both schemes — so the synthesized stream
  /// matches push message for message. Parallel edges: a broadcast record
  /// is delivered once per adjacent duplicate in the in-neighbor list
  /// (record-major, exactly the per-target order the push loop produces).
  void merge_destination_pull(std::uint32_t q) {
    const std::size_t n = parts_.size();
    struct Pending {
      std::uint32_t target_local;
      std::uint32_t rank;
      std::uint32_t seq;
      std::uint32_t src_part;
      std::uint8_t combine_src;
      M message;
    };
    std::vector<Pending> pending;
    for (std::uint32_t src = 0; src < n; ++src) {
      const auto [first, last] = part_chunk_range_[src];
      for (std::uint32_t c = first; c < last; ++c) {
        std::vector<StagedMessage>& row = chunk_scratch_[c].out[q];
        for (StagedMessage& s : row)
          pending.push_back(
              Pending{s.target_local, s.rank, s.seq, src, s.combine_src,
                      std::move(s.message)});
        row.clear();
      }
    }
    // (target, rank, seq) is unique — one sender emits each seq once — so
    // the sort is a total order and lane scheduling cannot perturb it.
    std::sort(pending.begin(), pending.end(), [](const Pending& a, const Pending& b) {
      return std::tie(a.target_local, a.rank, a.seq) <
             std::tie(b.target_local, b.rank, b.seq);
    });

    PartitionState& dst = parts_[q];
    std::size_t pi = 0;
    for (std::uint32_t u = 0; u < dst.vertices.size(); ++u) {
      std::size_t pe = pi;
      while (pe < pending.size() && pending[pe].target_local == u) ++pe;
      const VertexId gu = dst.vertices[u];
      std::size_t ei = pull_off_[gu];
      const std::size_t ie = pull_off_[gu + 1];
      std::size_t ri = 0;  // record index within the current broadcast group
      const auto skip_silent = [&] {
        while (ei < ie && broadcast_store_[pull_src_[ei]].empty()) {
          const VertexId w = pull_src_[ei];
          do ++ei;
          while (ei < ie && pull_src_[ei] == w);
        }
      };
      skip_silent();
      while (pi < pe || ei < ie) {
        bool take_pending;
        if (pi >= pe) {
          take_pending = false;
        } else if (ei >= ie) {
          take_pending = true;
        } else {
          const VertexId w = pull_src_[ei];
          take_pending = std::pair(pending[pi].rank, pending[pi].seq) <
                         std::pair(rank_of_[w], broadcast_store_[w][ri].first);
        }
        if (take_pending) {
          Pending& s = pending[pi++];
          SendScratch& acc = send_scratch_[q * n + s.src_part];
          deliver(s.src_part, q, u, std::move(s.message), acc.load, acc.outbuf_bytes,
                  s.combine_src);
        } else {
          const VertexId w = pull_src_[ei];
          const auto& recs = broadcast_store_[w];
          std::size_t k = 1;  // parallel-edge multiplicity (duplicates adjacent)
          while (ei + k < ie && pull_src_[ei + k] == w) ++k;
          const std::uint32_t sp = part_of_[w];
          SendScratch& acc = send_scratch_[q * n + sp];
          const std::uint8_t csrc = static_cast<std::uint8_t>(placement_[orig_part_[w]]);
          for (std::size_t j = 0; j < k; ++j)
            deliver(sp, q, u, M(recs[ri].second), acc.load, acc.outbuf_bytes, csrc);
          if (++ri >= recs.size()) {
            ei += k;
            ri = 0;
            skip_silent();
          }
        }
      }
      pi = pe;
    }
  }

  /// Run `f(p)` for every partition index — on the pool when one exists,
  /// in index order on the calling thread otherwise.
  template <class F>
  void for_each_partition(F&& f) {
    if (pool_)
      pool_->parallel_for(parts_.size(), std::forward<F>(f));
    else
      for (std::size_t i = 0; i < parts_.size(); ++i) f(i);
  }

  /// Drop this superstep's pull-mode broadcast records, releasing large
  /// stores under the same drain-shrink policy as the inboxes.
  void clear_broadcast_records() {
    for (std::size_t c = 0; c < chunks_.size(); ++c) {
      ChunkScratch& cs = chunk_scratch_[c];
      for (const VertexId v : cs.broadcasters) shrink_after_drain(broadcast_store_[v]);
      cs.broadcasters.clear();
    }
  }

  // ---- subgraph-centric compute (docs/SUBGRAPH.md) ------------------------

  /// Hand one whole partition to the program, then establish the canonical
  /// outbox order: every staged row sorted by (sender rank, emission seq).
  /// seq is unique per chunk, so the sort is a total order independent of
  /// emission interleaving. merge_by_rank needs rank-sorted source streams
  /// and the program emits in its own order, so these sorts stay; the merge
  /// then delivers every inbox in ascending sender rank — subgraph delivery
  /// order is migration-invariant.
  void compute_subgraph_partition(std::uint32_t p) {
    PartitionState& ps = parts_[p];
    if (ps.active_cur.empty()) return;
    ChunkScratch& cs = chunk_scratch_[p];
    cs.load.vertices_computed += ps.active_cur.size();
    for (const std::uint32_t l : ps.active_cur)
      cs.load.messages_processed += ps.inbox_cur[l].size();

    SubgraphContext<Program> ctx(this, p);
#ifndef NDEBUG
    std::vector<decltype(value_bytes(ps.values[0]))> before;
    for (const V& v : ps.values) before.push_back(value_bytes(v));
#endif
    program_.compute_subgraph(ctx);
#ifndef NDEBUG
    if (ctx.unchanged_all_) {
      std::vector<bool> claimed(ps.values.size(), true);
      for (const std::uint32_t l : ctx.changed_) claimed[l] = false;
      for (std::uint32_t l = 0; l < ps.values.size(); ++l)
        PREGEL_DCHECK(!claimed[l] || value_bytes(ps.values[l]) == before[l]);
    }
#endif

    if (track_dirty_) {
      if (ctx.unchanged_all_) {
        for (const std::uint32_t l : ctx.changed_) ps.dirty[l] = 1;
      } else {
        // Conservative default: compute_subgraph may write any local through
        // ctx.value(l), not only the frontier's (Gauss-Seidel sweeps rewrite
        // every rank when a boundary delta wakes a few locals).
        std::fill(ps.dirty.begin(), ps.dirty.end(), 1);
      }
    }

    // Drain the frontier's inboxes (every non-empty inbox belongs to an
    // active local — delivery activates its target).
    for (const std::uint32_t l : ps.active_cur) {
      auto& box = ps.inbox_cur[l];
      for (const M& m : box) cs.drained_bytes += cost_.buffered_bytes(payload_bytes(m));
      shrink_after_drain(box);
      if (opts_combine_) shrink_after_drain(ps.inbox_cur_src[l]);
    }

    for (auto& row : cs.out)
      std::sort(row.begin(), row.end(),
                [](const StagedMessage& a, const StagedMessage& b) {
                  return a.rank != b.rank ? a.rank < b.rank : a.seq < b.seq;
                });
    std::stable_sort(cs.aggs.begin(), cs.aggs.end(),
                     [](const StagedAgg& a, const StagedAgg& b) { return a.rank < b.rank; });
    std::stable_sort(
        cs.roots.begin(), cs.roots.end(),
        [](const StagedRootDone& a, const StagedRootDone& b) { return a.rank < b.rank; });
  }

  /// Replay the aggregate / root-completion logs in the exact serial order
  /// (ascending emitter rank) through merge_by_rank. The two streams are
  /// replayed independently — an aggregate sum is order-sensitive only
  /// against other aggregate contributions, and root completions only
  /// against each other.
  void replay_staged_logs() {
    const auto row = static_cast<std::uint32_t>(parts_.size());
    merge_by_rank(
        row,
        [this](std::uint32_t c) -> std::vector<StagedAgg>& { return chunk_scratch_[c].aggs; },
        [this](std::uint32_t, std::span<StagedAgg> run) {
          for (const StagedAgg& a : run) agg_cur_.add(a.key, a.value);
        });
    merge_by_rank(
        row,
        [this](std::uint32_t c) -> std::vector<StagedRootDone>& {
          return chunk_scratch_[c].roots;
        },
        [this](std::uint32_t, std::span<StagedRootDone> run) {
          for (const StagedRootDone& r : run) mark_root_done(r.root);
        });
  }

  /// Whether the program opted into direction optimization
  /// (`static constexpr bool kDirectionOptimized = true;`).
  static constexpr bool direction_capable() {
    if constexpr (requires { Program::kDirectionOptimized; })
      return static_cast<bool>(Program::kDirectionOptimized);
    else
      return false;
  }

  /// Whether the program is subgraph-centric
  /// (`static constexpr bool kSubgraphModel = true;` + compute_subgraph()).
  /// The if-constexpr dispatch in execute_superstep() means vertex-path
  /// members that call program_.compute never instantiate for subgraph
  /// programs, and compute_subgraph is never required of vertex programs.
  static constexpr bool subgraph_model() {
    if constexpr (requires { Program::kSubgraphModel; })
      return static_cast<bool>(Program::kSubgraphModel);
    else
      return false;
  }

  /// Beamer-style push/pull decision from modeled frontier density only —
  /// active-vertex counts and out-degrees, never thread counts or host
  /// clocks — with hysteresis so the engine does not flap around the
  /// threshold: enter pull when frontier out-arcs exceed total arcs / 15,
  /// return to push when frontier vertices drop below total vertices / 24
  /// (Beamer's alpha and beta). Part of the bit-identity contract.
  void decide_direction() {
    constexpr double kAlpha = 15.0;
    constexpr double kBeta = 24.0;
    if (opts_.direction.mode == DirectionOptions::Mode::kAlways) {
      pull_mode_ = pull_this_step_ = true;
      return;
    }
    std::uint64_t frontier_v = 0;
    std::uint64_t frontier_arcs = 0;
    for (const PartitionState& ps : parts_) {
      frontier_v += ps.active_cur.size();
      for (std::uint32_t l : ps.active_cur)
        frontier_arcs += graph_->out_degree(ps.vertices[l]);
    }
    if (!pull_mode_) {
      if (static_cast<double>(frontier_arcs) >
          static_cast<double>(graph_->num_arcs()) / kAlpha)
        pull_mode_ = true;
    } else {
      if (static_cast<double>(frontier_v) <
          static_cast<double>(graph_->num_vertices()) / kBeta)
        pull_mode_ = false;
    }
    pull_this_step_ = pull_mode_;
  }

  /// Global in-edge CSR (pull_off_ / pull_src_) with every target's
  /// in-neighbor list sorted by sender rank: filling in ascending-rank
  /// sender order makes each per-target slice rank-sorted for free
  /// (parallel edges stay adjacent). Built lazily on the first pull
  /// superstep; invalidated whenever build_partitions re-derives ranks.
  void build_pull_index() {
    const VertexId n = graph_->num_vertices();
    std::vector<VertexId> by_rank(n);
    for (VertexId v = 0; v < n; ++v) by_rank[rank_of_[v]] = v;
    pull_off_.assign(static_cast<std::size_t>(n) + 1, 0);
    for (VertexId v = 0; v < n; ++v)
      for (VertexId u : graph_->out_neighbors(v)) ++pull_off_[static_cast<std::size_t>(u) + 1];
    for (std::size_t i = 1; i <= n; ++i) pull_off_[i] += pull_off_[i - 1];
    pull_src_.resize(graph_->num_arcs());
    std::vector<std::size_t> fill(pull_off_.begin(), pull_off_.end() - 1);
    for (std::uint32_t r = 0; r < n; ++r) {
      const VertexId w = by_rank[r];
      for (VertexId u : graph_->out_neighbors(w)) pull_src_[fill[u]++] = w;
    }
    pull_index_built_ = true;
  }

  /// One superstep: compute, then route. Two barriers: (1) every chunk
  /// computes with all side effects staged in its scratch — on the pool,
  /// lanes start on their home partitions' chunk queues and steal from the
  /// heaviest remaining queue when they run dry; (2) every destination
  /// partition applies its staged messages single-threaded in deterministic
  /// merge order. Chunk-indexed counters then fold back serially in chunk
  /// (= serial visit) order, and aggregate / root logs replay in serial
  /// order. Which lane drained which chunk is thereby unobservable outside
  /// wall clock and the steal counters.
  SuperstepMetrics execute_superstep() {
    trace::Span span("engine.superstep", "superstep", "superstep", superstep_);
    agg_cur_.clear();
    last_steals_ = {};
    pull_this_step_ = false;
    if (direction_enabled_) {
      decide_direction();
      if (pull_this_step_ && !pull_index_built_) build_pull_index();
    }

    const std::size_t n = parts_.size();
    build_chunks();
    const auto compute = [this](std::size_t c) {
      if constexpr (subgraph_model())
        compute_subgraph_partition(chunks_[c].partition);
      else
        compute_chunk(c);
    };
    {
      trace::Span compute_span("engine.compute", "superstep", "superstep", superstep_);
      if (pool_ && chunks_.size() > 1) {
        std::vector<std::vector<std::size_t>> queues(pool_->size());
        for (std::size_t c = 0; c < chunks_.size(); ++c)
          queues[chunks_[c].partition % pool_->size()].push_back(c);
        last_steals_ = pool_->parallel_steal(std::move(queues), compute);
      } else {
        for (std::size_t c = 0; c < chunks_.size(); ++c) compute(c);
      }
    }

    // Fold chunk-local partition counters back in chunk order: integer sums
    // plus the clamped inbox drain.
    for (std::uint32_t p = 0; p < n; ++p) {
      PartitionState& ps = parts_[p];
      const auto [first, last] = part_chunk_range_[p];
      for (std::uint32_t c = first; c < last; ++c) {
        ChunkScratch& cs = chunk_scratch_[c];
        ps.load.vertices_computed += cs.load.vertices_computed;
        ps.load.messages_processed += cs.load.messages_processed;
        ps.load.subgraph_ops += cs.load.subgraph_ops;
        ps.inbox_cur_bytes -= std::min(ps.inbox_cur_bytes, cs.drained_bytes);
        ps.state_bytes += cs.state_delta;
      }
    }

    for_each_partition([this](std::size_t q) {
      merge_destination(static_cast<std::uint32_t>(q));
    });

    // Fold the per-(destination x source) send counters back into their
    // source partitions (integer sums — order-free), then replay the
    // deterministic logs in serial order.
    for (std::uint32_t p = 0; p < n; ++p) {
      PartitionState& ps = parts_[p];
      for (std::uint32_t q = 0; q < n; ++q) {
        SendScratch& acc = send_scratch_[q * n + p];
        ps.load.messages_sent_local += acc.load.messages_sent_local;
        ps.load.messages_sent_remote += acc.load.messages_sent_remote;
        ps.load.bytes_sent_remote += acc.load.bytes_sent_remote;
        ps.outbuf_bytes += acc.outbuf_bytes;
        acc = {};
      }
    }
    replay_staged_logs();
    if (pull_this_step_) clear_broadcast_records();

    std::uint64_t active_total = 0;
    for (const PartitionState& ps : parts_) active_total += ps.active_cur.size();
    last_active_vertices_ = active_total;

    SuperstepMetrics sm;
    sm.superstep = superstep_;
    sm.active_workers = workers_now_;
    sm.active_vertices = active_total;
    sm.active_roots = outstanding_count();
    sm.pull_mode = pull_this_step_;
    sm.steals = last_steals_.steals;
    sm.stolen_chunks = last_steals_.stolen_items;
    return sm;
  }

  /// Compute per-VM loads and modeled times; returns true when a VM restart
  /// terminated the job.
  bool finalize_timing(SuperstepMetrics& sm, JobResult<Program>& result) {
    const std::uint32_t w = workers_now_;
    sm.workers.assign(w, {});
    std::vector<cloud::WorkerLoad> vm_load(w);

    for (std::uint32_t p = 0; p < parts_.size(); ++p) {
      const PartitionState& ps = parts_[p];
      cloud::WorkerLoad& L = vm_load[vm_of(p)];
      L.vertices_computed += ps.load.vertices_computed;
      L.messages_processed += ps.load.messages_processed;
      L.messages_sent_local += ps.load.messages_sent_local;
      L.messages_sent_remote += ps.load.messages_sent_remote;
      L.bytes_sent_remote += ps.load.bytes_sent_remote;
      L.bytes_received_remote += ps.load.bytes_received_remote;
      L.subgraph_ops += ps.load.subgraph_ops;
      // Peak resident: partition graph + algorithm state + undrained inbox
      // snapshot + next-superstep buffers + serialized outgoing.
      L.memory_peak += ps.graph_bytes +
                       static_cast<Bytes>(std::max<std::int64_t>(ps.state_bytes, 0)) +
                       ps.inbox_cur_bytes + ps.inbox_next_bytes + ps.outbuf_bytes;
    }

    Bytes unspilled_peak = 0;
    for (std::uint32_t i = 0; i < w; ++i)
      unspilled_peak = std::max(unspilled_peak, vm_load[i].memory_peak);
    last_unspilled_peak_ = unspilled_peak;

    // Governor rung 2a: above the hard watermark, spill the coldest message
    // buffers to blob storage until the resident peak falls back to the soft
    // watermark (or the spillable bytes run out). The spilled bytes leave
    // the resident footprint before the restart check; the round-trip blob
    // I/O is charged to the worker's network time below.
    std::vector<Bytes> vm_spill;
    if (governor_.enabled()) {
      vm_spill.assign(w, 0);
      std::vector<Bytes> vm_spillable(w, 0);
      for (std::uint32_t p = 0; p < parts_.size(); ++p) {
        const PartitionState& ps = parts_[p];
        vm_spillable[vm_of(p)] += ps.inbox_cur_bytes + ps.inbox_next_bytes + ps.outbuf_bytes;
      }
      // Track how much of the swath's peak superstep was spillable message
      // buffer: the sizers discount it from the footprint when spilling is
      // priced cheaper than shrinking the swath (spill-aware sizing).
      if (unspilled_peak >= peak_memory_since_initiation_) {
        for (std::uint32_t i = 0; i < w; ++i) {
          if (vm_load[i].memory_peak == unspilled_peak) {
            peak_spillable_since_initiation_ = vm_spillable[i];
            break;
          }
        }
      }
      for (std::uint32_t i = 0; i < w; ++i) {
        const Bytes spill = governor_.spill_amount(vm_load[i].memory_peak, vm_spillable[i]);
        if (spill == 0) continue;
        vm_spill[i] = spill;
        vm_load[i].memory_peak -= spill;
        ++result.metrics.governor_spills;
        result.metrics.governor_spill_bytes += spill;
        trace::add("engine.governor.spills", 1);
      }
    }

    Bytes post_spill_peak = 0;
    Seconds slowest = 0.0;
    bool restart = false;
    const bool replaying = confined_replay_active();
    std::vector<Seconds> raw_compute(w), raw_network(w);
    std::vector<double> factors(w);
    for (std::uint32_t i = 0; i < w; ++i) {
      WorkerStepMetrics& wm = sm.workers[i];
      const cloud::WorkerLoad& L = vm_load[i];
      wm.vertices_computed = L.vertices_computed;
      wm.messages_processed = L.messages_processed;
      wm.messages_sent_local = L.messages_sent_local;
      wm.messages_sent_remote = L.messages_sent_remote;
      wm.bytes_sent_remote = L.bytes_sent_remote;
      wm.bytes_received_remote = L.bytes_received_remote;
      wm.subgraph_ops = L.subgraph_ops;
      wm.memory_peak = L.memory_peak;

      // Continuous multi-tenancy jitter times episodic straggler slowdowns.
      const double jitter = noise_.factor(i, superstep_) * faults_.straggler_factor(i, superstep_);
      factors[i] = jitter;
      raw_compute[i] = cost_.compute_time(L, cluster_.vm);
      raw_network[i] = cost_.network_time(L, cluster_.vm, w - 1);
      if (replaying && !replay_lost(i)) {
        // Confined replay: healthy workers keep their state and only
        // re-deliver the logged outbox bytes addressed to lost partitions;
        // the load counters above still describe the logical superstep.
        cloud::WorkerLoad redeliver;
        redeliver.bytes_sent_remote = redelivery_bytes(i);
        wm.compute_time = 0.0;
        wm.network_time = cost_.network_time(redeliver, cluster_.vm, 1) * jitter;
      } else {
        wm.compute_time = raw_compute[i] * jitter;
        wm.network_time = raw_network[i] * jitter;
      }
      if (!vm_spill.empty() && vm_spill[i] > 0) {
        wm.spilled_bytes = vm_spill[i];
        const Seconds spill_t = cost_.spill_transfer_time(vm_spill[i], cluster_.vm);
        wm.network_time += spill_t;
        result.metrics.governor_spill_time += spill_t;
      }
      slowest = std::max(slowest, wm.busy_time());
      post_spill_peak = std::max(post_spill_peak, L.memory_peak);

      if (cost_.triggers_restart(L.memory_peak, cluster_.vm)) restart = true;
    }
    last_post_spill_peak_ = post_spill_peak;

    // Barrier straggler timeout: a worker running past k x the median busy
    // time is declared slow; the least-loaded VM speculatively re-executes
    // its partitions from the point of declaration (only applied when that
    // actually beats waiting the straggler out).
    if (cluster_.straggler_timeout_factor > 1.0 && w >= 3 && !replaying) {
      std::vector<Seconds> busy(w);
      std::uint32_t worst = 0;
      for (std::uint32_t i = 0; i < w; ++i) {
        busy[i] = sm.workers[i].busy_time();
        if (busy[i] > busy[worst]) worst = i;
      }
      std::uint32_t best = worst == 0 ? 1 : 0;
      for (std::uint32_t i = 0; i < w; ++i)
        if (i != worst && busy[i] < busy[best]) best = i;
      // True median (even counts average the two middle samples): the old
      // upper-median made the timeout threshold jump discontinuously between
      // odd and even worker counts.
      const Seconds median = median_of(busy);
      const Seconds timeout = cluster_.straggler_timeout_factor * median;
      if (median > 0.0 && busy[worst] > timeout) {
        const Seconds reexec_compute = raw_compute[worst] * factors[best];
        const Seconds reexec_network = raw_network[worst] * factors[best];
        Seconds others = 0.0;
        for (std::uint32_t i = 0; i < w; ++i)
          if (i != worst) others = std::max(others, busy[i]);
        const Seconds candidate =
            std::max(timeout + reexec_compute + reexec_network, others);
        if (candidate < busy[worst]) {
          // The straggler's attempt is abandoned at the timeout; its work
          // reruns on the healthiest VM, which gates the barrier instead.
          const double scale = timeout / busy[worst];
          sm.workers[worst].compute_time *= scale;
          sm.workers[worst].network_time *= scale;
          sm.workers[best].compute_time += reexec_compute;
          sm.workers[best].network_time += reexec_network;
          slowest = candidate;
          ++result.metrics.straggler_reexecutions;
          if (worst < vm_straggler_counts_.size()) ++vm_straggler_counts_[worst];
        }
      }
    }

    sm.barrier_overhead = cost_.barrier_time(w);
    sm.span = slowest + sm.barrier_overhead;
    if (workers_changed_) {
      sm.span += cluster_.scale_event_cost;
      workers_changed_ = false;
    }
    if (pending_placement_cost_ > 0.0) {
      sm.span += pending_placement_cost_;
      pending_placement_cost_ = 0.0;
    }
    for (auto& wm : sm.workers) wm.barrier_wait = sm.span - wm.busy_time();

    result.metrics.total_time += sm.span;
    meter_.charge(cluster_.vm, w, sm.span);
    // Sizers see the pre-spill peak: spilling hides pressure from the
    // resident footprint, not from the controllers that must shrink it.
    // (Identical to sm.max_worker_memory() when the governor is off.)
    peak_memory_since_initiation_ =
        std::max(peak_memory_since_initiation_, last_unspilled_peak_);
    last_messages_sent_ = sm.messages_sent_total();
    last_superstep_span_ = sm.span;
    result.metrics.work_steals += sm.steals;
    result.metrics.stolen_chunks += sm.stolen_chunks;
    if (sm.pull_mode) ++result.metrics.pull_supersteps;
    if (sm.pull_mode != last_pull_mode_) ++result.metrics.direction_switches;
    last_pull_mode_ = sm.pull_mode;
    trace_superstep(sm, result.metrics.total_time);

    if (restart) {
      if (governor_.enabled() && ckpt_.has_checkpoint()) {
        // Rung 3 trigger: the thrashed VM would be restarted by the fabric.
        // Flag the breach for the governor ladder at this barrier instead of
        // killing the job (fail_on_vm_restart is deliberately bypassed).
        governor_breach_ = true;
        return false;
      }
      Bytes worst = 0;
      std::uint32_t worst_vm = 0;
      for (std::uint32_t i = 0; i < w; ++i)
        if (vm_load[i].memory_peak > worst) {
          worst = vm_load[i].memory_peak;
          worst_vm = i;
        }
      if (opts_.fail_on_vm_restart)
        throw JobFailure(superstep_, worst_vm, worst, cluster_.vm.ram);
      result.failed = true;
      result.failure_reason =
          JobFailure(superstep_, worst_vm, worst, cluster_.vm.ram).what();
      return true;
    }
    return false;
  }

  /// Observability hook, called once per superstep after its modeled timing
  /// is final. Rolls the superstep's totals into the perf-counter registry
  /// and draws the modeled cluster on the virtual trace track: one busy span
  /// and one barrier-wait span per worker VM in simulated time (the paper's
  /// Figures 9/12 view), plus counter tracks for message traffic, active
  /// vertices, and peak memory. Pure observation — reads the finished
  /// metrics, writes only trace buffers, so results are unchanged whether
  /// tracing is on or off.
  void trace_superstep(const SuperstepMetrics& sm, Seconds total_time_after) {
    trace::Tracer& t = trace::Tracer::instance();
    virtual_now_us_ = total_time_after * 1e6;
    if (t.counters_on()) {
      std::uint64_t local = 0, remote = 0, bytes = 0, vertices = 0;
      for (const WorkerStepMetrics& wm : sm.workers) {
        local += wm.messages_sent_local;
        remote += wm.messages_sent_remote;
        bytes += wm.bytes_sent_remote;
        vertices += wm.vertices_computed;
      }
      t.counter("engine.supersteps").add(1);
      t.counter("engine.messages.local").add(local);
      t.counter("engine.messages.remote").add(remote);
      t.counter("engine.bytes.remote").add(bytes);
      t.counter("engine.vertices.computed").add(vertices);
      if (sm.steals > 0) t.counter("engine.steals").add(sm.steals);
      if (sm.pull_mode) t.counter("engine.pull.supersteps").add(1);
    }
    if (!t.spans_on()) return;
    const double end_us = total_time_after * 1e6;
    const double start_us = end_us - sm.span * 1e6;
    for (std::uint32_t w = 0; w < sm.workers.size(); ++w) {
      const WorkerStepMetrics& wm = sm.workers[w];
      t.name_virtual_track(w, "worker VM " + std::to_string(w));
      const double busy_us = wm.busy_time() * 1e6;
      std::string args =
          "{\"superstep\":" + std::to_string(sm.superstep) +
          ",\"vertices\":" + std::to_string(wm.vertices_computed) +
          ",\"messages_sent\":" + std::to_string(wm.messages_sent_total()) +
          ",\"memory_peak\":" + std::to_string(wm.memory_peak) + "}";
      t.virtual_complete("compute+network", "modeled", w, start_us, busy_us,
                         std::move(args));
      if (wm.barrier_wait > 0.0)
        t.virtual_complete("barrier wait", "modeled", w, start_us + busy_us,
                           wm.barrier_wait * 1e6);
    }
    t.virtual_counter("messages per superstep", start_us,
                      static_cast<double>(sm.messages_sent_total()));
    t.virtual_counter("active vertices", start_us,
                      static_cast<double>(sm.active_vertices));
    t.virtual_counter("max worker memory", start_us,
                      static_cast<double>(sm.max_worker_memory()));
  }

  void run_barrier(JobResult<Program>& result) {
    trace::Span span("engine.barrier", "superstep", "superstep", superstep_);
    // 1. Master compute (aggregates from this superstep -> globals for next).
    if constexpr (requires(Program & pr, MasterContext<Program> & mc) {
                    pr.master_compute(mc);
                  }) {
      MasterContext<Program> mc(this);
      program_.master_compute(mc);
    }
    globals_ = std::move(globals_next_);
    globals_next_ = Globals{};

    // 2. Swath scheduling.
    ++supersteps_since_initiation_;
    maybe_initiate_swath(/*at_startup=*/false, result);
    result.roots_completed = roots_completed_;
    result.swaths_initiated = swath_index_;

    // 3. Elastic scaling decision for the next superstep.
    if (cluster_.scaling) {
      cloud::ScalingSignals sig;
      sig.superstep = superstep_;
      sig.active_vertices = last_active_vertices_;
      sig.total_vertices = graph_->num_vertices();
      sig.messages_sent = result.metrics.supersteps.back().messages_sent_total();
      sig.max_worker_memory = result.metrics.supersteps.back().max_worker_memory();
      sig.current_workers = workers_now_;
      const std::uint32_t decided = std::clamp<std::uint32_t>(
          cluster_.scaling->decide(sig), 1, cluster_.num_partitions);
      if (decided != workers_now_) {
        if (trace::spans_on()) {
          const std::string args = "{\"superstep\":" + std::to_string(superstep_) +
                                   ",\"from\":" + std::to_string(workers_now_) +
                                   ",\"to\":" + std::to_string(decided) + "}";
          trace_decision("scale.decision", "cloud", args);
        }
        trace::add("engine.scale_events", 1);
        const std::vector<std::uint32_t> old_placement = placement_;
        workers_now_ = decided;
        workers_changed_ = true;
        // New VM set: fall back to the default layout; the placement policy
        // (if any) refines it below with fresh load data. Straggler history
        // is per-VM-identity and does not survive the re-provisioning.
        reset_placement_to_modulo();
        vm_straggler_counts_.assign(workers_now_, 0);
        recompute_baseline_memory();
        if (cluster_.migration.enabled()) {
          // With the migration subsystem wired, the scale event's partition
          // redistribution rides the modeled transfer planes (every byte
          // charged) instead of being folded into scale_event_cost, and the
          // planner may additionally rebalance vertices onto the new layout.
          charge_partition_redistribution(old_placement, result);
          if (cluster_.migration.on_scaling) plan_and_migrate(result, "scale");
        }
      }
    }

    // 4. Dynamic partition placement (overdecomposition rebalancing).
    if (cluster_.placement) {
      cloud::PlacementSignals sig;
      sig.superstep = superstep_;
      sig.workers = workers_now_;
      sig.placement = placement_;
      sig.vm_stragglers = vm_straggler_counts_;
      sig.zones = zones_.zones;
      if (zones_.zones > 1) {
        sig.vm_zone.resize(workers_now_);
        for (std::uint32_t v = 0; v < workers_now_; ++v) sig.vm_zone[v] = zones_.zone_of(v);
      }
      sig.partition_load.reserve(parts_.size());
      sig.partition_bytes.reserve(parts_.size());
      for (const auto& ps : parts_) {
        sig.partition_load.push_back(
            static_cast<double>(ps.load.messages_processed + ps.load.messages_sent_local +
                                ps.load.messages_sent_remote + ps.load.vertices_computed));
        sig.partition_bytes.push_back(partition_resident_bytes(ps));
      }
      std::vector<std::uint32_t> next = cluster_.placement->place(sig);
      PREGEL_CHECK_MSG(next.size() == parts_.size(),
                       "PlacementPolicy returned wrong-sized placement");
      // Migration cost: each destination VM downloads the partitions that
      // move to it; transfers overlap, so the slowest VM bounds the stall.
      std::vector<Bytes> incoming(workers_now_, 0);
      bool moved = false;
      for (std::uint32_t p = 0; p < next.size(); ++p) {
        PREGEL_CHECK_MSG(next[p] < workers_now_, "PlacementPolicy target out of range");
        if (next[p] != placement_[p]) {
          moved = true;
          incoming[next[p]] += sig.partition_bytes[p];
        }
      }
      if (moved) {
        Bytes worst = 0;
        for (Bytes b : incoming) worst = std::max(worst, b);
        pending_placement_cost_ = cost_.transfer_time(worst, cluster_.vm) +
                                  cost_.params().queue_op_latency;
        placement_ = std::move(next);
        ++location_version_;
        recompute_baseline_memory();
      }
    }

    // 5. Periodic activity-aware vertex rebalancing (the live-migration
    // subsystem's steady-state trigger; scaling events trigger it above).
    if (cluster_.migration.enabled() && cluster_.migration.period > 0 &&
        (superstep_ + 1) % cluster_.migration.period == 0) {
      plan_and_migrate(result, "periodic");
    }

    // 6. Frontier-collapse scale-in: retire an idle VM and return its
    // capacity (to the pool, under a scheduler; to the bill, solo).
    maybe_scale_in(result);
  }

  /// Scale-in rung: when the active frontier has stayed below the density
  /// threshold for `patience` consecutive barriers — and no pending swath
  /// roots could regrow it — retire one VM and re-home its partitions over
  /// the modeled transfer planes. The trigger reads modeled job-own state
  /// only, so a solo run and a scheduled run retire at the same barriers
  /// (bit-identity), and a scheduler polling current_workers() between
  /// slices reclaims the freed VM for queued jobs.
  void maybe_scale_in(JobResult<Program>& result) {
    const ScaleInOptions& si = cluster_.scale_in;
    if (!si.enabled) return;
    if (scale_in_cooldown_ > 0) --scale_in_cooldown_;
    const double density =
        graph_->num_vertices() == 0
            ? 0.0
            : static_cast<double>(last_active_vertices_) /
                  static_cast<double>(graph_->num_vertices());
    const bool roots_pending = next_root_ < pending_roots_.size();
    if (density >= si.density_threshold || roots_pending) {
      scale_in_quiet_ = 0;
      return;
    }
    ++scale_in_quiet_;
    if (scale_in_quiet_ < si.patience || scale_in_cooldown_ > 0) return;
    if (workers_now_ <= std::max<std::uint32_t>(si.min_workers, 1)) return;

    trace::Span span("engine.scale_in", "cloud", "superstep", superstep_);
    const std::vector<std::uint32_t> old_placement = placement_;
    workers_now_ -= 1;
    workers_changed_ = true;  // next superstep's span absorbs scale_event_cost
    reset_placement_to_modulo();
    vm_straggler_counts_.assign(workers_now_, 0);
    recompute_baseline_memory();
    charge_partition_redistribution(old_placement, result);
    if (cluster_.migration.enabled() && cluster_.migration.on_scaling)
      plan_and_migrate(result, "scale-in");
    ++result.metrics.scale_ins;
    scale_in_quiet_ = 0;
    scale_in_cooldown_ = si.cooldown;
    trace::add("engine.scale_ins", 1);
    if (trace::spans_on()) {
      const std::string args = "{\"superstep\":" + std::to_string(superstep_) +
                               ",\"workers\":" + std::to_string(workers_now_) + "}";
      trace_decision("scale.in", "cloud", args);
    }
  }

  void maybe_initiate_swath(bool at_startup, JobResult<Program>& result) {
    if (opts_.roots.empty() || next_root_ >= pending_roots_.size()) return;

    if (!at_startup) {
      InitiationSignals sig;
      sig.superstep = superstep_;
      sig.supersteps_since_initiation = supersteps_since_initiation_;
      sig.messages_sent = last_messages_sent_;
      sig.active_roots = outstanding_count();
      sig.max_worker_memory = peak_memory_since_initiation_;
      sig.memory_target = opts_.swath.memory_target;
      if (!opts_.swath.initiation->should_initiate(sig)) return;
      // Governor rung 1: while the observed pressure sits at or above the
      // soft watermark, initiations the policy would allow are vetoed. Only
      // defers while in-flight work can drain the pressure — with nothing
      // outstanding (or no coming activity) a veto would stall the job with
      // roots still pending.
      if (governor_.veto_initiation() && outstanding_count() > 0 && any_pending_activity()) {
        ++result.metrics.governor_vetoes;
        trace::add("engine.governor.vetoes", 1);
        if (trace::spans_on()) {
          const std::string args =
              "{\"superstep\":" + std::to_string(superstep_) +
              ",\"pressure\":" + std::to_string(governor_.last_pressure()) +
              ",\"active_roots\":" + std::to_string(outstanding_count()) + "}";
          trace_decision("governor.veto", "governor", args);
        }
        return;
      }
    }

    SwathSizeSignals ss;
    ss.swath_index = swath_index_;
    ss.last_swath_size = last_swath_size_;
    ss.peak_memory_last_swath = peak_memory_since_initiation_;
    ss.baseline_memory = baseline_memory_;
    ss.memory_target = opts_.swath.memory_target;
    ss.roots_remaining = static_cast<std::uint32_t>(pending_roots_.size() - next_root_);
    // Spill-aware sizing: when the governor can spill message buffers and
    // the modeled round-trip is cheap next to a superstep, the sizers may
    // discount the spillable fraction of the peak instead of shrinking the
    // swath to fit it all in RAM.
    ss.peak_spillable_last_swath = peak_spillable_since_initiation_;
    ss.spill_relief_available =
        governor_.enabled() && opts_.governor.spill_enabled &&
        peak_spillable_since_initiation_ > 0 &&
        cost_.spill_transfer_time(peak_spillable_since_initiation_, cluster_.vm) <
            kSpillCheapFraction * last_superstep_span_;
    std::uint32_t size = opts_.swath.sizer->next_size(ss);
    if (governor_.enabled()) {
      // Rung 1b: clamp the sizer's proposal to the governed headroom (and to
      // the halved cap after any governed-OOM episode).
      const std::uint32_t clamped = governor_.clamp_swath_size(size);
      if (clamped < size) {
        ++result.metrics.governor_swath_clamps;
        trace::add("engine.governor.clamps", 1);
        if (trace::spans_on()) {
          const std::string args = "{\"superstep\":" + std::to_string(superstep_) +
                                   ",\"proposed\":" + std::to_string(size) +
                                   ",\"clamped\":" + std::to_string(clamped) + "}";
          trace_decision("governor.clamp", "governor", args);
        }
        size = clamped;
      }
    }
    size = std::min<std::uint32_t>(std::max<std::uint32_t>(size, 1), ss.roots_remaining);

    for (std::uint32_t i = 0; i < size; ++i) {
      const VertexId root = pending_roots_[next_root_++];
      inject_seed(root);
      outstanding_roots_.push_back(root);
      outstanding_index_.try_emplace(root, outstanding_roots_.size() - 1);
    }
    ++swath_index_;
    last_swath_size_ = size;
    if (trace::spans_on()) {
      // The initiation instant carries the heuristic's input vector, so a
      // trace shows *why* this swath launched, not just when.
      const std::string args =
          "{\"superstep\":" + std::to_string(superstep_) +
          std::string(at_startup ? ",\"at_startup\":true" : ",\"at_startup\":false") +
          ",\"swath_index\":" + std::to_string(swath_index_ - 1) +
          ",\"size\":" + std::to_string(size) +
          ",\"roots_remaining\":" +
          std::to_string(pending_roots_.size() - next_root_) +
          ",\"supersteps_since_initiation\":" +
          std::to_string(supersteps_since_initiation_) +
          ",\"messages_last_superstep\":" + std::to_string(last_messages_sent_) +
          ",\"peak_memory_last_swath\":" +
          std::to_string(peak_memory_since_initiation_) +
          ",\"baseline_memory\":" + std::to_string(baseline_memory_) +
          ",\"memory_target\":" + std::to_string(opts_.swath.memory_target) + "}";
      trace_decision("swath.initiate", "swath", args);
    }
    trace::add("engine.swaths", 1);
    supersteps_since_initiation_ = 0;
    peak_memory_since_initiation_ = 0;
    peak_spillable_since_initiation_ = 0;
    opts_.swath.initiation->on_initiated();
  }

  // ---- fault tolerance -----------------------------------------------------

  /// One partition's share of a checkpoint generation. A base leg holds
  /// every local's value (and state_bytes_v slot, when those are kept); a
  /// delta leg holds only the locals dirtied since the previous published
  /// generation. Both carry the O(frontier) state that replaces the
  /// partition's on restore: the frontier lists, the undelivered inbox rows
  /// of active_next members (delivery always activates its target, so no
  /// other row holds a message), the scheduled wakes and the counters.
  /// inbox_cur is empty at every barrier — compute drains every box it
  /// reads — so it is never stored.
  struct PartitionLeg {
    /// Base legs of runs that can migrate: the partition's membership
    /// (immutable, and so not stored, when nothing can move).
    std::vector<VertexId> vertices;
    /// Delta legs: the dirty locals, ascending. values and state_bytes_v
    /// follow this list in a delta leg and the partition's locals in a base.
    std::vector<std::uint32_t> locals;
    std::vector<V> values;
    std::vector<std::int64_t> state_bytes_v;
    std::vector<std::uint32_t> active_cur, active_next;
    /// One row per active_next entry.
    std::vector<std::vector<M>> inbox_next;
    std::vector<std::vector<std::uint8_t>> inbox_next_src;
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> wakes;
    Bytes inbox_cur_bytes = 0, inbox_next_bytes = 0;
    std::int64_t state_bytes = 0;
    Bytes graph_bytes = 0;
    Bytes outbuf_bytes = 0;
    cloud::WorkerLoad load;
  };

  /// The state one checkpoint generation holds: a leg per partition plus
  /// master-side scheduling state. Deliberately excludes policy-object
  /// internals (the job manager survives worker failures) and metrics (an
  /// execution log, not job state). A restore replays a restore set — the
  /// base's values, then each delta's in order — and takes the frontier and
  /// master state from its newest member.
  struct Snapshot final : cloud::CkptPayload {
    std::vector<PartitionLeg> parts;
    std::uint64_t superstep;
    Globals globals;
    std::vector<VertexId> pending_roots;
    std::size_t next_root;
    std::vector<VertexId> outstanding_roots;
    std::uint64_t roots_completed;
    std::uint32_t swath_index;
    std::uint32_t last_swath_size;
    std::uint64_t supersteps_since_initiation;
    Bytes peak_memory_since_initiation;
    std::uint64_t last_messages_sent;
    /// Vertex location tables — only captured by base generations of runs
    /// where migration is possible (empty otherwise): a restore must rewind
    /// any moves applied after the checkpoint. A move forces the next
    /// generation to be a base, so every delta shares its base's tables.
    std::vector<PartitionId> part_of;
    std::vector<std::uint32_t> local_of;
    bool migrated = false;
  };

  /// Modeled size of one worker's full checkpoint: the full legs of the
  /// partitions it hosts (the graph itself stays in blob storage).
  Bytes checkpoint_bytes(std::uint32_t vm) const {
    Bytes total = 0;
    for (std::uint32_t p = 0; p < parts_.size(); ++p)
      if (vm_of(p) == vm) total += full_leg_bytes(p);
    return total;
  }

  // ---- transient faults and retries ----------------------------------------

  /// Run one control-plane storage op under the retry policy and record it
  /// in the job metrics. With all fault rates at zero this is free: no
  /// draws, no latency, no metric changes.
  cloud::RetryOutcome control_op(cloud::FaultKind kind, JobResult<Program>& result) {
    const auto out = faults_.attempt(kind, cluster_.retry, cost_.params().queue_op_latency);
    result.metrics.faults_injected += out.faults;
    if (out.success) result.metrics.faults_masked += out.faults;
    result.metrics.retries_attempted += out.attempts - 1;
    result.metrics.retry_latency += out.extra_latency;
    if (kind == cloud::FaultKind::kQueueOp)
      result.metrics.queue_corruptions += out.corruptions;
    else
      result.metrics.blob_corruptions += out.corruptions;
    if (trace::counters_on()) {
      trace::Tracer& t = trace::Tracer::instance();
      if (out.faults > 0) t.counter("engine.faults.injected").add(out.faults);
      if (out.attempts > 1) t.counter("engine.retries").add(out.attempts - 1);
      if (out.corruptions > 0)
        t.counter(kind == cloud::FaultKind::kQueueOp ? "engine.queue.corruptions"
                                                     : "engine.blob.corruptions")
            .add(out.corruptions);
    }
    return out;
  }

  /// Control op attributed to worker `vm`: masked latency extends this
  /// superstep's barrier; an exhausted retry budget marks the worker dead
  /// (detected at the barrier like any other failure). The simulated queue
  /// state stays consistent either way.
  void guarded_control_op(cloud::FaultKind kind, std::uint32_t vm,
                          JobResult<Program>& result) {
    const auto out = control_op(kind, result);
    pending_retry_latency_ += out.extra_latency;
    if (!out.success && !control_failed_vm_) control_failed_vm_ = vm;
  }

  /// Fold the superstep's accumulated retry latency into its span: every
  /// worker sits at the barrier while the slow op backs off and retries.
  void settle_control_latency(SuperstepMetrics& sm, JobResult<Program>& result) {
    if (pending_retry_latency_ <= 0.0) return;
    sm.span += pending_retry_latency_;
    sm.barrier_overhead += pending_retry_latency_;
    for (auto& wm : sm.workers) wm.barrier_wait += pending_retry_latency_;
    result.metrics.total_time += pending_retry_latency_;
    meter_.charge(cluster_.vm, workers_now_, pending_retry_latency_);
    pending_retry_latency_ = 0.0;
  }

  // ---- control plane (simulated Azure queues) -------------------------------

  /// The manifest a standby manager resumes from: last completed superstep,
  /// fencing epoch, location-table version, aggregator state (sorted so the
  /// serialization is canonical).
  cloud::ManagerManifest current_manifest() const {
    cloud::ManagerManifest m;
    m.superstep = superstep_;
    m.epoch = manager_.epoch();
    m.location_version = location_version_;
    m.ckpt_generation = ckpt_.newest_seq();
    m.aggregators.assign(globals_.items().begin(), globals_.items().end());
    std::sort(m.aggregators.begin(), m.aggregators.end());
    return m;
  }

  void control_superstep_begin(JobResult<Program>& result) {
    trace::Span span("engine.control.step-queue", "cloud", "superstep", superstep_);
    // Persist the manifest before posting tokens: it captures exactly the
    // state this superstep runs under (post-master-compute aggregates, the
    // current location-table version, the current epoch), so a standby that
    // takes over at this superstep's barrier resumes bit-identically.
    manager_.persist(current_manifest());
    auto& step = queues_.queue("step");
    const std::uint64_t epoch = manager_.epoch();
    for (std::uint32_t w = 0; w < workers_now_; ++w) {
      guarded_control_op(cloud::FaultKind::kQueueOp, w, result);
      step.put(cloud::make_step_token(superstep_, epoch));
    }
    for (std::uint32_t w = 0; w < workers_now_; ++w) {
      guarded_control_op(cloud::FaultKind::kQueueOp, w, result);
      const auto token = step.get();
      PREGEL_DCHECK(token.has_value());
      PREGEL_CHECK_MSG(cloud::verify_queue_message(*token),
                       "step-queue message failed CRC32C verification");
      // The worker learns the fencing epoch from the token and echoes it in
      // its barrier check-in; a token from a dead manager's epoch would be
      // refused here.
      const auto parsed = cloud::parse_step_token(token->body);
      PREGEL_CHECK_MSG(parsed.has_value(), "malformed step token: '" + token->body + "'");
      PREGEL_DCHECK(parsed->superstep == superstep_ && parsed->epoch == epoch);
      guarded_control_op(cloud::FaultKind::kQueueOp, w, result);
      step.remove(token->id);
    }
  }

  /// The manager was preempted mid-superstep: the standby waits out the
  /// lease, downloads and CRC-verifies the manifest (a blob read under the
  /// retry policy), restores its state from it, and bumps the fencing epoch
  /// for every subsequent superstep. The whole cluster sits at the barrier
  /// for the duration, so the latency folds into barrier overhead via
  /// pending_retry_latency_.
  void manager_failover(JobResult<Program>& result) {
    trace::Span span("engine.manager.failover", "recovery", "superstep", superstep_);
    manager_.preempt();
    const auto read = control_op(cloud::FaultKind::kBlobRead, result);
    Seconds t = cluster_.manager_lease_timeout + cluster_.manager_takeover_time +
                read.extra_latency;
    if (!read.success) t += cluster_.retry.op_deadline;
    const cloud::ManagerManifest manifest = manager_.failover();
    PREGEL_CHECK_MSG(manifest.superstep == superstep_,
                     "manager manifest superstep failed to round-trip");
    PREGEL_DCHECK(manifest.location_version == location_version_);
    // Resume the aggregator state from the manifest — by construction equal
    // to what the primary held, so results stay bit-identical; going through
    // the blob exercises the serialization for real.
    Globals restored;
    for (const auto& [key, value] : manifest.aggregators) restored.set(key, value);
    globals_ = restored;
    pending_retry_latency_ += t;
    ++result.metrics.manager_failovers;
    result.metrics.manager_failover_time += t;
    trace::add("engine.manager.failovers", 1);
  }

  void control_superstep_end(const SuperstepMetrics& sm, JobResult<Program>& result) {
    trace::Span span("engine.control.barrier-queue", "cloud", "superstep", superstep_);
    auto& barrier = queues_.queue("barrier");
    // Check-ins carry sender identity and the fencing epoch the worker
    // learned from its step token; the drain below is idempotent against
    // redelivery and fences anything from an older epoch.
    const std::uint64_t barrier_epoch = manager_.epoch();
    for (std::uint32_t w = 0; w < sm.workers.size(); ++w) {
      guarded_control_op(cloud::FaultKind::kQueueOp, w, result);
      barrier.put(cloud::make_checkin(w, barrier_epoch, sm.workers[w].vertices_computed));
    }

    // The primary removes a check-in only after recording it, so a primary
    // preempted mid-drain leaves every message visible (or redelivered) for
    // the standby, which drains this barrier under the epoch the workers
    // used and fences only from the next superstep on.
    if (faults_.manager_preempted(superstep_, barrier_epoch)) manager_failover(result);

    const auto stats = cloud::drain_barrier(
        barrier, workers_now_, barrier_epoch,
        [&](std::uint32_t vm) { guarded_control_op(cloud::FaultKind::kQueueOp, vm, result); },
        [&]() { return faults_.next_duplicate(); });
    result.metrics.barrier_duplicates += stats.duplicates;
    result.metrics.barrier_fenced += stats.fenced;
    // Ops beyond the W-message happy path (redelivered, fenced, malformed)
    // are extra serialized poll rounds the fixed barrier-time formula does
    // not cover; each costs its base queue latency at the barrier.
    const std::uint64_t extra_reads = stats.duplicates + stats.fenced + stats.malformed;
    if (extra_reads > 0)
      pending_retry_latency_ +=
          static_cast<double>(extra_reads) * cost_.params().queue_op_latency;
    if (trace::counters_on() && stats.duplicates > 0)
      trace::add("engine.barrier.duplicates", stats.duplicates);
    if (!stats.missing.empty()) {
      // A worker that never checked in: indistinguishable from a slow one
      // until the detection timeout lapses. Charge the wait and let the
      // failure path at the barrier handle the (first) dead worker — the
      // old behavior here was an assertion failure.
      ++result.metrics.barrier_detection_timeouts;
      pending_retry_latency_ += cluster_.failure_detection_time;
      if (!control_failed_vm_) control_failed_vm_ = stats.missing.front();
    } else {
      PREGEL_DCHECK(stats.active_total == sm.active_vertices);
    }

    result.metrics.control_queue_ops = queues_.total_ops();
  }

  /// Capture a generation's state for the checkpoint store: a base when
  /// `dirty` is empty, otherwise a delta holding each partition's listed
  /// locals (dirty_locals()).
  std::shared_ptr<Snapshot> make_snapshot(std::uint64_t resume_superstep,
                                          std::vector<std::vector<std::uint32_t>> dirty = {}) {
    compact_outstanding_roots();  // snapshot a tombstone-free root list
    const bool base = dirty.empty();
    auto s = std::make_shared<Snapshot>();
    s->parts.resize(parts_.size());
    for (std::uint32_t p = 0; p < parts_.size(); ++p) {
      const PartitionState& ps = parts_[p];
      PartitionLeg& leg = s->parts[p];
      if (base) {
        if (migration_possible_) leg.vertices = ps.vertices;
        leg.values = ps.values;
        leg.state_bytes_v = ps.state_bytes_v;
      } else {
        leg.locals = std::move(dirty[p]);
        leg.values.reserve(leg.locals.size());
        for (const std::uint32_t l : leg.locals) leg.values.push_back(ps.values[l]);
        if (!ps.state_bytes_v.empty()) {
          leg.state_bytes_v.reserve(leg.locals.size());
          for (const std::uint32_t l : leg.locals)
            leg.state_bytes_v.push_back(ps.state_bytes_v[l]);
        }
      }
#ifndef NDEBUG
      for (std::uint32_t l = 0; l < ps.vertices.size(); ++l)
        PREGEL_DCHECK(ps.inbox_cur[l].empty() &&
                      (ps.in_active_next[l] || ps.inbox_next[l].empty()));
#endif
      leg.active_cur = ps.active_cur;
      leg.active_next = ps.active_next;
      leg.inbox_next.reserve(ps.active_next.size());
      leg.inbox_next_src.reserve(ps.active_next.size());
      for (const std::uint32_t l : ps.active_next) {
        leg.inbox_next.push_back(ps.inbox_next[l]);
        leg.inbox_next_src.push_back(ps.inbox_next_src[l]);
      }
      leg.wakes = ps.wakes;
      leg.inbox_cur_bytes = ps.inbox_cur_bytes;
      leg.inbox_next_bytes = ps.inbox_next_bytes;
      leg.state_bytes = ps.state_bytes;
      leg.graph_bytes = ps.graph_bytes;
      leg.outbuf_bytes = ps.outbuf_bytes;
      leg.load = ps.load;
    }
    s->superstep = resume_superstep;
    s->globals = globals_;
    s->pending_roots = pending_roots_;
    s->next_root = next_root_;
    s->outstanding_roots = outstanding_roots_;
    s->roots_completed = roots_completed_;
    s->swath_index = swath_index_;
    s->last_swath_size = last_swath_size_;
    s->supersteps_since_initiation = supersteps_since_initiation_;
    s->peak_memory_since_initiation = peak_memory_since_initiation_;
    s->last_messages_sent = last_messages_sent_;
    if (base && migration_possible_) {
      s->part_of = part_of_;
      s->local_of = local_of_;
      s->migrated = migrated_;
    }
    return s;
  }

  /// Generation-0 seeding (start(), governor anchor): the superstep-0 state
  /// is implicitly recoverable — the input graph lives in blob storage — so
  /// nothing is uploaded or charged. No-op once a generation 0 exists.
  void take_snapshot(std::uint64_t resume_superstep) {
    ckpt_.seed_initial(make_snapshot(resume_superstep));
  }

  /// The newest generation's snapshot (nullptr only when the store is
  /// empty, i.e. fault tolerance and the governor are both off this run).
  /// Its master-side state is what a rewind to it resumes with.
  const Snapshot* newest_snapshot() const {
    return dynamic_cast<const Snapshot*>(ckpt_.newest_payload());
  }
  Snapshot* newest_snapshot_mut() {
    return dynamic_cast<Snapshot*>(ckpt_.newest_payload());
  }

  /// Full data-leg size of one partition: algorithm state + buffered
  /// messages + per-vertex values (the per-partition term of the legacy
  /// checkpoint_bytes model, so base generations cost what full snapshots
  /// always did).
  Bytes full_leg_bytes(std::uint32_t p) const {
    const PartitionState& ps = parts_[p];
    return static_cast<Bytes>(std::max<std::int64_t>(ps.state_bytes, 0)) +
           ps.inbox_cur_bytes + ps.inbox_next_bytes +
           static_cast<Bytes>(ps.vertices.size()) * sizeof(V);
  }

  /// Delta data-leg size: only the `dirty` locals (dirty_locals()) carry
  /// their value + state, and only the undelivered inbox (inbox_next) rides
  /// along — the consumed inbox_cur is re-derived by replay, which is where
  /// stationary-frontier algorithms like PageRank get their reduction.
  /// Capped at the full leg (a delta is never worth writing bigger than its
  /// base).
  Bytes delta_leg_bytes(std::uint32_t p, std::span<const std::uint32_t> dirty) const {
    const PartitionState& ps = parts_[p];
    const std::uint64_t dirty_count = dirty.size();
    Bytes dirty_state = 0;
    if (!ps.state_bytes_v.empty()) {
      for (const std::uint32_t l : dirty)
        dirty_state += static_cast<Bytes>(std::max<std::int64_t>(ps.state_bytes_v[l], 0));
    } else if (!ps.vertices.empty()) {
      // No per-vertex breakdown this run: prorate the partition total by the
      // dirty share (pure integer function of modeled state — deterministic).
      dirty_state = static_cast<Bytes>(std::max<std::int64_t>(ps.state_bytes, 0)) *
                    dirty_count / ps.vertices.size();
    }
    const Bytes d = dirty_state + dirty_count * sizeof(V) + ps.inbox_next_bytes;
    return std::min(d, full_leg_bytes(p));
  }

  /// Each partition's locals dirtied since the last published generation,
  /// ascending: one pass per delta round, whose lists both size the legs
  /// and become their content. Every bitmap is sized here: only a migration
  /// leaves one unsized, and a migration forces the next generation to be
  /// a base.
  std::vector<std::vector<std::uint32_t>> dirty_locals() const {
    std::vector<std::vector<std::uint32_t>> dirty(parts_.size());
    for (std::uint32_t p = 0; p < parts_.size(); ++p) {
      const std::vector<std::uint8_t>& flags = parts_[p].dirty;
      PREGEL_DCHECK(flags.size() == parts_[p].vertices.size());
      for (std::uint32_t l = 0; l < flags.size(); ++l)
        if (flags[l]) dirty[p].push_back(l);
    }
    return dirty;
  }

  /// Successful publish: the next delta is relative to *this* generation.
  void clear_dirty() {
    if (!track_dirty_) return;
    for (auto& ps : parts_) std::fill(ps.dirty.begin(), ps.dirty.end(), 0);
  }

  void maybe_checkpoint(JobResult<Program>& result) {
    if (cluster_.checkpoint_interval == 0) return;
    if ((superstep_ + 1) % cluster_.checkpoint_interval != 0) return;
    trace::Span span("engine.checkpoint", "recovery", "superstep", superstep_);

    // Workers upload in parallel; the slowest (including its blob-write
    // retries) bounds the barrier extension. A worker that exhausts its
    // retry budget abandons the round: the previous checkpoint stays in
    // force, and only the wasted retry latency is charged.
    Seconds retry_extra = 0.0;
    bool uploaded = true;
    for (std::uint32_t w = 0; w < workers_now_; ++w) {
      const auto up = control_op(cloud::FaultKind::kBlobWrite, result);
      retry_extra = std::max(retry_extra, up.extra_latency);
      uploaded = uploaded && up.success;
    }

    Seconds t = retry_extra;
    if (uploaded) {
      // Stage this round's data legs (full base or dirty-sized delta) and
      // run the two-phase publish: legs, then the chain-hashed manifest.
      const bool base = ckpt_.next_is_base(location_version_);
      std::vector<std::vector<std::uint32_t>> dirty;
      if (!base) dirty = dirty_locals();
      std::vector<Bytes> leg_bytes(parts_.size());
      std::vector<std::uint32_t> home_vm(parts_.size()), home_zone(parts_.size());
      for (std::uint32_t p = 0; p < parts_.size(); ++p) {
        leg_bytes[p] = base ? full_leg_bytes(p) : delta_leg_bytes(p, dirty[p]);
        home_vm[p] = vm_of(p);
        home_zone[p] = zones_.zone_of(vm_of(p));
      }
      const cloud::CkptWriteOutcome out = ckpt_.write_generation(
          superstep_ + 1, location_version_, leg_bytes, home_vm, home_zone,
          zones_.zones, faults_);
      result.metrics.checkpoint_torn_legs += out.torn_legs;

      // The slowest worker's leg uploads bound the barrier extension; the
      // manifest publish is one more control op. Legs transfer whether or
      // not the manifest lands — a torn manifest wastes the round's bytes.
      Bytes biggest = 0;
      std::vector<Bytes> vm_bytes(workers_now_, 0);
      for (std::uint32_t p = 0; p < parts_.size(); ++p) vm_bytes[vm_of(p)] += leg_bytes[p];
      for (const Bytes b : vm_bytes) biggest = std::max(biggest, b);
      t += cost_.transfer_time(biggest, cluster_.vm) + cost_.params().queue_op_latency;

      if (out.published) {
        PREGEL_DCHECK(out.is_base == base);
        ckpt_.attach_payload(make_snapshot(superstep_ + 1, std::move(dirty)));
        clear_dirty();
        ++result.metrics.checkpoints_written;
        if (out.is_base) {
          ++result.metrics.checkpoint_bases;
          result.metrics.checkpoint_base_bytes += out.bytes_written;
        } else {
          ++result.metrics.checkpoint_deltas;
          result.metrics.checkpoint_delta_bytes += out.bytes_written;
        }
        trace::add("engine.checkpoints", 1);
        trace::add(out.is_base ? "engine.checkpoint.base.bytes"
                               : "engine.checkpoint.delta.bytes",
                   out.bytes_written);
        // Retention GC rode along with the publish: price its blob deletes
        // as control ops folded into the checkpoint charge.
        if (out.gc_delete_ops > 0) {
          result.metrics.ckpt_gc_generations += out.gc_generations;
          result.metrics.ckpt_gc_delete_ops += out.gc_delete_ops;
          t += static_cast<double>(out.gc_delete_ops) * cost_.params().queue_op_latency;
          trace::add("engine.checkpoint.gc", out.gc_generations);
        }
        if (cluster_.availability_zones > 1 &&
            cluster_.replicate_checkpoints_across_zones) {
          // Cross-zone replica: each worker writes a second copy to a blob
          // homed in another zone, so a whole-zone outage cannot take a
          // checkpoint down with every VM that could restore it. The replica
          // upload is serialized after the primary ack, so the barrier pays
          // one more transfer of the biggest checkpoint (plus its retries).
          Seconds replica_extra = 0.0;
          bool replicated = true;
          for (std::uint32_t w = 0; w < workers_now_; ++w) {
            const auto rep = control_op(cloud::FaultKind::kBlobWrite, result);
            replica_extra = std::max(replica_extra, rep.extra_latency);
            replicated = replicated && rep.success;
          }
          t += replica_extra;
          if (replicated && ckpt_.complete_replica_round(faults_)) {
            t += cost_.transfer_time(biggest, cluster_.vm);
            result.metrics.checkpoint_replicas_written += workers_now_;
            trace::add("engine.checkpoint.replicas", workers_now_);
          } else {
            // Replica round abandoned: the primary generation published
            // fine, so this is not a checkpoint failure — it only thins the
            // zone-outage safety margin.
            ++result.metrics.checkpoint_replica_failures;
            trace::add("engine.checkpoint.replica_failures", 1);
          }
        }
      } else {
        // Torn manifest: the whole round is lost, the previous generation
        // stays newest, and the dirty sets keep accumulating toward it.
        ++result.metrics.checkpoint_failures;
        ++result.metrics.checkpoint_torn_manifests;
        trace::add("engine.checkpoint.torn_manifests", 1);
      }
    } else {
      ++result.metrics.checkpoint_failures;
    }
    if (t > 0.0) {
      result.metrics.checkpoint_time += t;
      result.metrics.total_time += t;
      meter_.charge(cluster_.vm, workers_now_, t);
    }
  }

  /// Modeled background scrub between barriers: every scrub_period
  /// barriers, re-verify all retained checkpoint copies and re-replicate
  /// rotted or torn ones from a surviving copy, charging the repair
  /// transfers in modeled time.
  void maybe_scrub(JobResult<Program>& result) {
    if (cluster_.ckpt.scrub_period == 0 || cluster_.checkpoint_interval == 0) return;
    if (++barriers_since_scrub_ < cluster_.ckpt.scrub_period) return;
    barriers_since_scrub_ = 0;
    const cloud::CkptScrubOutcome out = ckpt_.scrub(faults_);
    ++result.metrics.scrub_passes;
    result.metrics.scrub_copies_verified += out.copies_verified;
    const std::uint32_t repairs = out.repairs + out.manifest_repairs;
    result.metrics.scrub_repairs += repairs;
    if (repairs == 0) return;
    trace::add("engine.scrub.repairs", repairs);
    const Seconds t = cost_.transfer_time(out.repaired_bytes, cluster_.vm) +
                      static_cast<double>(repairs) * cost_.params().queue_op_latency;
    result.metrics.scrub_time += t;
    result.metrics.total_time += t;
    meter_.charge(cluster_.vm, workers_now_, t);
  }

  /// One barrier's worth of worker deaths: the lost VMs (sorted, unique)
  /// and, when they fell together, the availability zone that took them.
  struct FailureEvent {
    std::vector<std::uint32_t> dead;
    std::optional<std::uint32_t> zone;
  };

  std::string failure_description(const FailureEvent& event) const {
    if (event.zone)
      return "availability zone " + std::to_string(*event.zone) + " outage (" +
             std::to_string(event.dead.size()) + " worker VMs)";
    return "worker VM " + std::to_string(event.dead.front()) + " failed";
  }

  /// All VMs lost at this barrier: a control op past its retry budget, the
  /// single-VM failure classes, then correlated zone outages (every VM in
  /// the drawn zone at once).
  FailureEvent collect_failures(JobResult<Program>& result) {
    FailureEvent event;
    if (control_failed_vm_) {
      event.dead.push_back(*control_failed_vm_);
      control_failed_vm_.reset();
    }
    if (event.dead.empty()) {
      if (const auto vm = failure_strikes()) event.dead.push_back(*vm);
    }
    if (cluster_.availability_zones > 1 && !event.zone) {
      // Deterministic crash-point hook: an explicitly scheduled zone outage
      // fires once, exactly like a drawn one.
      for (auto it = scheduled_zone_outages_.begin(); it != scheduled_zone_outages_.end();
           ++it) {
        if (it->first != superstep_ || it->second >= zones_.zones) continue;
        event.zone = it->second;
        scheduled_zone_outages_.erase(it);
        ++result.metrics.zone_outages;
        trace::add("engine.zone.outages", 1);
        for (std::uint32_t vm : zones_.vms_in_zone(*event.zone, workers_now_))
          event.dead.push_back(vm);
        break;
      }
    }
    if (cluster_.availability_zones > 1 && !event.zone &&
        faults_.plan().zone_outage_rate > 0.0) {
      for (std::uint32_t z = 0; z < zones_.zones; ++z) {
        if (!faults_.zone_outage(z, superstep_, failure_epoch_)) continue;
        event.zone = z;
        ++result.metrics.zone_outages;
        trace::add("engine.zone.outages", 1);
        for (std::uint32_t vm : zones_.vms_in_zone(z, workers_now_))
          event.dead.push_back(vm);
        break;  // one domain per barrier is correlation enough
      }
    }
    std::sort(event.dead.begin(), event.dead.end());
    event.dead.erase(std::unique(event.dead.begin(), event.dead.end()), event.dead.end());
    return event;
  }

  /// Worker death check at the barrier: explicitly scheduled failures,
  /// probabilistic VM failures, then spot-style preemptions. Returns the
  /// dead VM, or nullopt when everyone checked in.
  std::optional<std::uint32_t> failure_strikes() {
    for (auto it = scheduled_failures_.begin(); it != scheduled_failures_.end(); ++it) {
      if (it->first == superstep_ && it->second < workers_now_) {
        const std::uint32_t vm = it->second;
        scheduled_failures_.erase(it);
        return vm;
      }
    }
    if (cluster_.failure_rate > 0.0) {
      for (std::uint32_t w = 0; w < workers_now_; ++w) {
        // Keyed by the failure epoch so a replayed superstep redraws.
        const std::uint64_t key = mix64(cluster_.failure_seed ^ (superstep_ * 131) ^
                                        (static_cast<std::uint64_t>(w) << 32) ^
                                        (failure_epoch_ * 0x9E3779B9ULL));
        if (static_cast<double>(key >> 11) * 0x1.0p-53 < cluster_.failure_rate) return w;
      }
    }
    for (std::uint32_t w = 0; w < workers_now_; ++w)
      if (faults_.vm_preempted(w, superstep_, failure_epoch_)) return w;
    return std::nullopt;
  }

  bool confined_replay_active() const noexcept { return !replay_lost_vms_.empty(); }

  /// Is `vm` one of the VMs a confined replay is recomputing?
  bool replay_lost(std::uint32_t vm) const noexcept {
    return std::find(replay_lost_vms_.begin(), replay_lost_vms_.end(), vm) !=
           replay_lost_vms_.end();
  }

  /// Remote bytes partitions on `vm` sent to partitions on any lost VM this
  /// superstep (the logged outbox a healthy worker re-delivers in replay).
  Bytes redelivery_bytes(std::uint32_t vm) const {
    if (outbox_log_cur_.empty()) return 0;
    const std::size_t n = parts_.size();
    Bytes total = 0;
    for (std::size_t p = 0; p < n; ++p) {
      if (placement_[p] != vm) continue;
      for (std::size_t q = 0; q < n; ++q)
        if (replay_lost(placement_[q])) total += outbox_log_cur_[p * n + q];
    }
    return total;
  }

  /// Rebuild every partition from a restore set (base first): the base's
  /// values, each delta's dirty locals in order, then the newest member's
  /// frontier and master-side state. Inbox rows outside that frontier are
  /// drained — a failed superstep may have left messages anywhere.
  void restore_snapshot_state(const cloud::CkptRestoreSet& set) {
    std::vector<const Snapshot*> gens;
    gens.reserve(set.size());
    for (const auto& payload : set) gens.push_back(&dynamic_cast<const Snapshot&>(*payload));
    const Snapshot& base = *gens.front();
    const Snapshot& s = *gens.back();
    for (std::uint32_t p = 0; p < parts_.size(); ++p) {
      PartitionState& ps = parts_[p];
      const PartitionLeg& b = base.parts[p];
      if (!base.part_of.empty()) ps.vertices = b.vertices;
      ps.values = b.values;
      ps.state_bytes_v = b.state_bytes_v;
      for (std::size_t g = 1; g < gens.size(); ++g) {
        const PartitionLeg& d = gens[g]->parts[p];
        for (std::size_t i = 0; i < d.locals.size(); ++i) {
          ps.values[d.locals[i]] = d.values[i];
          if (!d.state_bytes_v.empty()) ps.state_bytes_v[d.locals[i]] = d.state_bytes_v[i];
        }
      }

      const PartitionLeg& f = s.parts[p];
      const std::size_t n = ps.vertices.size();
      ps.inbox_cur.resize(n);
      ps.inbox_next.resize(n);
      ps.inbox_cur_src.resize(n);
      ps.inbox_next_src.resize(n);
      for (std::size_t l = 0; l < n; ++l) {
        shrink_after_drain(ps.inbox_cur[l]);
        shrink_after_drain(ps.inbox_next[l]);
        shrink_after_drain(ps.inbox_cur_src[l]);
        shrink_after_drain(ps.inbox_next_src[l]);
      }
      ps.in_active_next.assign(n, false);
      for (std::size_t i = 0; i < f.active_next.size(); ++i) {
        const std::uint32_t l = f.active_next[i];
        ps.in_active_next[l] = true;
        ps.inbox_next[l] = f.inbox_next[i];
        ps.inbox_next_src[l] = f.inbox_next_src[i];
      }
      ps.active_cur = f.active_cur;
      ps.active_next = f.active_next;
      ps.wakes = f.wakes;
      ps.inbox_cur_bytes = f.inbox_cur_bytes;
      ps.inbox_next_bytes = f.inbox_next_bytes;
      ps.state_bytes = f.state_bytes;
      ps.graph_bytes = f.graph_bytes;
      ps.outbuf_bytes = f.outbuf_bytes;
      ps.load = f.load;
      if (track_dirty_)
        ps.dirty.assign(n, 0);
      else
        ps.dirty.clear();
    }
    globals_ = s.globals;
    globals_next_ = Globals{};
    pending_roots_ = s.pending_roots;
    next_root_ = s.next_root;
    outstanding_roots_ = s.outstanding_roots;
    root_tombstones_ = 0;
    rebuild_root_index();
    roots_completed_ = s.roots_completed;
    swath_index_ = s.swath_index;
    last_swath_size_ = s.last_swath_size;
    supersteps_since_initiation_ = s.supersteps_since_initiation;
    peak_memory_since_initiation_ = s.peak_memory_since_initiation;
    last_messages_sent_ = s.last_messages_sent;
    superstep_ = s.superstep;
    if (!base.part_of.empty()) {
      // Rewind any vertex moves applied after the checkpoint: the location
      // tables must match the restored partition state exactly.
      part_of_ = base.part_of;
      local_of_ = base.local_of;
      migrated_ = base.migrated;
      parts_dirty_ = parts_dirty_ || base.migrated;
      ++location_version_;  // the location tables just changed under everyone
      recompute_baseline_memory();
    }
    peak_spillable_since_initiation_ = 0;
    // The direction hysteresis restarts from push after any rollback so the
    // replayed supersteps re-derive the same switch sequence the original
    // execution did (the state at checkpoint time is itself a pure function
    // of the replayed frontier densities).
    pull_mode_ = false;
  }

  /// Satellite of every recovery path: is anything restorable after this
  /// failure event, and which generation will the restore walk land on? One
  /// place answers for the zone-loss gate, full rollback, and confined
  /// recovery alike; the returned plan carries the chosen generation, its
  /// fallback depth, and per-partition download bytes.
  struct RecoveryAssessment {
    std::optional<cloud::CkptRestorePlan> plan;
    std::string reason;  ///< unrecoverable-why, appended to the failure text
  };

  RecoveryAssessment assess_recovery(const FailureEvent& event,
                                     JobResult<Program>& result) {
    RecoveryAssessment a;
    if (!ckpt_.has_checkpoint()) {
      a.reason = "with no checkpoint to recover from";
      return a;
    }
    if (event.zone && cluster_.availability_zones > 1 &&
        !cluster_.replicate_checkpoints_across_zones) {
      // The lost zone took the checkpoint blobs homed in it down with the
      // VMs that wrote them: without cross-zone replicas there is nothing
      // left to restore from.
      a.reason = "lost its checkpoints: no cross-zone replicas configured";
      return a;
    }
    const std::optional<std::uint32_t> lost_zone =
        cluster_.availability_zones > 1 ? event.zone : std::nullopt;
    a.plan = ckpt_.plan_restore(lost_zone, faults_);
    if (!a.plan) {
      a.reason = "with no checkpoint to recover from";
      return a;
    }
    result.metrics.checkpoint_corrupt_legs += a.plan->corrupt_legs;
    result.metrics.checkpoint_corrupt_manifests += a.plan->corrupt_manifests;
    result.metrics.checkpoint_replica_reads += a.plan->replica_reads;
    if (a.plan->fallback_depth > 0) {
      ++result.metrics.checkpoint_fallbacks;
      result.metrics.checkpoint_fallback_depth_max = std::max(
          result.metrics.checkpoint_fallback_depth_max, a.plan->fallback_depth);
      trace::add("engine.checkpoint.fallbacks", 1);
    }
    return a;
  }

  /// Restore-transfer size for `vm` under `plan`: the restore set's leg
  /// bytes for the partitions it hosts. A generation-0 (initial) plan has
  /// no legs — the worker re-derives state from the graph blob, priced at
  /// the legacy full-checkpoint size exactly as the pre-store engine did.
  Bytes plan_restore_bytes(const cloud::CkptRestorePlan& plan, std::uint32_t vm) const {
    if (plan.initial) return checkpoint_bytes(vm);
    Bytes total = 0;
    for (std::uint32_t p = 0; p < parts_.size(); ++p)
      if (vm_of(p) == vm && p < plan.partition_bytes.size())
        total += plan.partition_bytes[p];
    return total;
  }

  /// The state rollback both recovery flavors share: replay the plan's
  /// restore set and truncate the now-stale newer generations (the replay
  /// deterministically re-writes those rounds).
  void apply_restore_plan(const cloud::CkptRestorePlan& plan) {
    restore_snapshot_state(plan.payloads);
    ckpt_.truncate_after(plan.seq);
  }

  void recover_from_checkpoint(JobResult<Program>& result,
                               const cloud::CkptRestorePlan& plan) {
    trace::Span span("engine.recover.full", "recovery", "superstep", superstep_);
    trace::add("engine.recoveries", 1);
    result.metrics.replayed_supersteps += superstep_ + 1 - plan.resume_superstep;
    ++failure_epoch_;
    // A failure during an active confined replay falls back to the full
    // Pregel rollback: every partition reloads, so the replay-in-progress
    // bookkeeping is void.
    replay_lost_vms_.clear();

    // Detection (missed heartbeats), replacement VM, checkpoint download by
    // every worker (they all roll back, per the Pregel recovery model); the
    // blob reads run under the retry policy.
    Bytes biggest = 0;
    for (std::uint32_t w = 0; w < workers_now_; ++w)
      biggest = std::max(biggest, plan_restore_bytes(plan, w));
    const auto read = control_op(cloud::FaultKind::kBlobRead, result);
    Seconds t = cluster_.failure_detection_time + cluster_.vm_reacquisition_time +
                cost_.transfer_time(biggest, cluster_.vm) + read.extra_latency;
    // Recovery reads retry until they succeed; model anything beyond the
    // per-op budget as one extra deadline of stalling.
    if (!read.success) t += cluster_.retry.op_deadline;
    result.metrics.recovery_time += t;
    result.metrics.total_time += t;
    meter_.charge(cluster_.vm, workers_now_, t);

    apply_restore_plan(plan);
    reinitiate_after_restore(result);
  }

  /// Confined recovery: only the dead VMs' partitions reload the checkpoint
  /// and recompute (one VM for a lone failure; a whole domain after a zone
  /// outage). State restoration rewinds everything (the simulator re-derives
  /// healthy partitions' identical state while replaying), but replay
  /// supersteps are costed confined: healthy workers only re-deliver logged
  /// outbox bytes, and only the replacement VMs download checkpoint data —
  /// in parallel, so the largest lost checkpoint bounds the stall.
  void recover_confined(JobResult<Program>& result, const std::vector<std::uint32_t>& dead,
                        const cloud::CkptRestorePlan& plan) {
    trace::Span span("engine.recover.confined", "recovery", "vms", dead.size());
    trace::add("engine.recoveries", 1);
    result.metrics.replayed_supersteps += superstep_ + 1 - plan.resume_superstep;
    ++failure_epoch_;

    const auto read = control_op(cloud::FaultKind::kBlobRead, result);
    Bytes biggest_lost = 0;
    for (const std::uint32_t vm : dead)
      biggest_lost = std::max(biggest_lost, plan_restore_bytes(plan, vm));
    Seconds t = cluster_.failure_detection_time + cluster_.vm_reacquisition_time +
                cost_.transfer_time(biggest_lost, cluster_.vm) + read.extra_latency;
    if (!read.success) t += cluster_.retry.op_deadline;
    result.metrics.recovery_time += t;
    result.metrics.total_time += t;
    meter_.charge(cluster_.vm, workers_now_, t);

    confined_replay_until_ = superstep_;
    replay_lost_vms_ = dead;
    apply_restore_plan(plan);
    reinitiate_after_restore(result);
  }

  // ---- memory-pressure governor (graceful degradation ladder) --------------

  /// A restore to the governor's pre-initiation anchor leaves nothing in
  /// flight; the replay must re-initiate immediately (now under the
  /// governor's clamp and cap) or the run loop would see no activity and end
  /// with roots still pending.
  void reinitiate_after_restore(JobResult<Program>& result) {
    if (opts_.start_all_vertices) return;
    if (outstanding_count() > 0 || any_pending_activity()) return;
    if (next_root_ >= pending_roots_.size()) return;
    maybe_initiate_swath(/*at_startup=*/true, result);
  }

  /// Will the coming superstep do any work? Runs at the barrier, before
  /// prepare_superstep swaps active_next in, so it inspects next-superstep
  /// state where any_activity() inspects the current one. Future wakes count:
  /// the engine idles through the gap on its own.
  bool any_pending_activity() const {
    for (const PartitionState& ps : parts_)
      if (!ps.active_next.empty() || !ps.wakes.empty()) return true;
    return false;
  }

  /// Roots initiated since the snapshot and still in flight — exactly the
  /// ones a shed can park, because rewinding to the snapshot un-initiates
  /// them without touching any completed root's recorded result.
  std::uint32_t parkable_root_count() const {
    const Snapshot* snap = newest_snapshot();
    if (!snap) return 0;
    std::uint32_t n = 0;
    for (std::size_t i = snap->next_root; i < next_root_; ++i)
      if (outstanding_index_.contains(pending_roots_[i])) ++n;
    return n;
  }

  enum class GovernorVerdict { kProceed, kRewound, kFailed };

  /// Barrier-time governor consultation: feed it this superstep's pressure
  /// observation and apply the action it picks. Free when disabled.
  GovernorVerdict governor_step(JobResult<Program>& result) {
    if (!governor_.enabled()) return GovernorVerdict::kProceed;
    const bool breach = governor_breach_;
    governor_breach_ = false;
    MemGovernor::Observation obs;
    obs.unspilled_peak = last_unspilled_peak_;
    obs.post_spill_peak = last_post_spill_peak_;
    obs.baseline = baseline_memory_;
    obs.active_roots = outstanding_count();
    obs.parkable_roots = parkable_root_count();
    obs.restart_breach = breach;
    // Scale-out rung inputs: the governor only prefers growing the cluster
    // over a shed rewind when migration is wired, a spare VM slot exists,
    // and the modeled transfer is strictly cheaper than the rewind.
    obs.can_scale_out = migration_possible_ && workers_now_ < cluster_.num_partitions;
    if (obs.can_scale_out && opts_.governor.scale_out_enabled) {
      Bytes biggest = 0;
      for (std::uint32_t i = 0; i < workers_now_; ++i)
        biggest = std::max(biggest, checkpoint_bytes(i));
      const std::uint64_t replayed =
          ckpt_.has_checkpoint() ? superstep_ + 1 - newest_snapshot()->superstep : 0;
      obs.shed_cost_estimate = cost_.transfer_time(biggest, cluster_.vm) +
                               cost_.params().queue_op_latency +
                               static_cast<double>(replayed) * last_superstep_span_;
      Bytes moved = 0;
      const std::uint32_t grown = workers_now_ + 1;
      for (std::uint32_t p = 0; p < parts_.size(); ++p)
        if (placement_[p] != p % grown) moved += partition_resident_bytes(parts_[p]);
      obs.scale_out_cost_estimate = cluster_.scale_event_cost +
                                    cost_.transfer_time(moved, cluster_.vm) +
                                    cost_.params().queue_op_latency;
    }
    switch (governor_.observe(obs)) {
      case MemGovernor::Action::kNone:
        return GovernorVerdict::kProceed;
      case MemGovernor::Action::kShed:
        shed_newest_roots(result);
        return GovernorVerdict::kRewound;
      case MemGovernor::Action::kScaleOut:
        governor_scale_out(result);
        return GovernorVerdict::kProceed;
      case MemGovernor::Action::kEscalate:
        governed_oom_restore(result);
        return GovernorVerdict::kRewound;
      case MemGovernor::Action::kGiveUp:
        result.failed = true;
        result.failure_reason =
            "governed OOM: memory pressure persisted after " +
            std::to_string(governor_.sheds()) + " sheds and " +
            std::to_string(governor_.escalations()) +
            " governed restores at superstep " + std::to_string(superstep_);
        return GovernorVerdict::kFailed;
    }
    return GovernorVerdict::kProceed;
  }

  /// Rung 2b: rewind to the snapshot, but re-queue the newest in-flight
  /// roots at the BACK of the pending list so the replay resumes with a
  /// lighter swath; parked roots re-initiate in later swaths. A proactive
  /// rollback the manager orders at the barrier: no failure detection or VM
  /// reacquisition, just the checkpoint download under the retry policy.
  void shed_newest_roots(JobResult<Program>& result) {
    trace::Span span("engine.governor.shed", "recovery", "superstep", superstep_);
    const Snapshot& s = *newest_snapshot();
    std::vector<VertexId> parkable;
    for (std::size_t i = s.next_root; i < next_root_; ++i) {
      const VertexId r = pending_roots_[i];
      if (outstanding_index_.contains(r)) parkable.push_back(r);
    }
    const std::uint32_t k =
        governor_.park_count(static_cast<std::uint32_t>(parkable.size()));
    PREGEL_DCHECK(k >= 1 && k <= parkable.size());
    const std::unordered_set<VertexId> parked(parkable.end() - k, parkable.end());

    result.metrics.replayed_supersteps += superstep_ + 1 - s.superstep;
    Bytes biggest = 0;
    for (std::uint32_t i = 0; i < workers_now_; ++i)
      biggest = std::max(biggest, checkpoint_bytes(i));
    const auto read = control_op(cloud::FaultKind::kBlobRead, result);
    Seconds t = cost_.transfer_time(biggest, cluster_.vm) +
                cost_.params().queue_op_latency + read.extra_latency;
    if (!read.success) t += cluster_.retry.op_deadline;
    result.metrics.governor_shed_time += t;
    result.metrics.total_time += t;
    meter_.charge(cluster_.vm, workers_now_, t);

    restore_snapshot_state(ckpt_.newest_restore_set());
    // Park: move the shed roots behind every other pending root, preserving
    // relative order. The snapshot's own pending list is updated too — a
    // later failure rollback must not silently undo the parking.
    std::stable_partition(
        pending_roots_.begin() + static_cast<std::ptrdiff_t>(next_root_),
        pending_roots_.end(), [&](VertexId r) { return !parked.contains(r); });
    newest_snapshot_mut()->pending_roots = pending_roots_;
    governor_.on_shed();
    ++result.metrics.governor_sheds;
    result.metrics.governor_roots_parked += k;
    trace::add("engine.governor.sheds", 1);
    if (trace::spans_on()) {
      const std::string args = "{\"superstep\":" + std::to_string(superstep_) +
                               ",\"roots_parked\":" + std::to_string(k) +
                               ",\"resume_superstep\":" + std::to_string(s.superstep) + "}";
      trace_decision("governor.shed", "governor", args);
    }
    reinitiate_after_restore(result);
  }

  /// Rung 3: governed-OOM episode. The pressure breached the restart
  /// threshold and shedding is exhausted (or impossible): the thrashed VM is
  /// restarted by the fabric, everyone reloads the checkpoint, and the
  /// governor halves its swath-size cap so the replay cannot re-offend.
  /// Recorded as an episode in the metrics, not a job failure.
  void governed_oom_restore(JobResult<Program>& result) {
    trace::Span span("engine.governor.escalate", "recovery", "superstep", superstep_);
    const Snapshot& s = *newest_snapshot();
    result.metrics.replayed_supersteps += superstep_ + 1 - s.superstep;
    ++failure_epoch_;
    replay_lost_vms_.clear();
    const std::uint32_t offending = last_swath_size_;

    Bytes biggest = 0;
    for (std::uint32_t i = 0; i < workers_now_; ++i)
      biggest = std::max(biggest, checkpoint_bytes(i));
    const auto read = control_op(cloud::FaultKind::kBlobRead, result);
    Seconds t = cluster_.failure_detection_time + cluster_.vm_reacquisition_time +
                cost_.transfer_time(biggest, cluster_.vm) + read.extra_latency;
    if (!read.success) t += cluster_.retry.op_deadline;
    result.metrics.recovery_time += t;
    result.metrics.total_time += t;
    meter_.charge(cluster_.vm, workers_now_, t);

    restore_snapshot_state(ckpt_.newest_restore_set());
    governor_.on_escalated(offending);
    ++result.metrics.governed_oom_episodes;
    trace::add("engine.governor.escalations", 1);
    if (trace::spans_on()) {
      const std::string args = "{\"superstep\":" + std::to_string(superstep_) +
                               ",\"offending_swath_size\":" + std::to_string(offending) +
                               ",\"new_swath_cap\":" + std::to_string(governor_.swath_cap()) +
                               ",\"resume_superstep\":" + std::to_string(s.superstep) + "}";
      trace_decision("governor.escalate", "governor", args);
    }
    reinitiate_after_restore(result);
  }

  // ---- live vertex migration (docs/ELASTICITY.md) --------------------------

  /// Max-over-mean imbalance of next-superstep active vertices across the
  /// current VM set — the quantity activity-aware rebalancing minimizes and
  /// `rebalance_gain` reports the reduction of.
  double active_next_imbalance() const {
    if (workers_now_ <= 1) return 0.0;
    std::vector<std::uint64_t> counts(workers_now_, 0);
    std::uint64_t total = 0;
    for (std::uint32_t p = 0; p < parts_.size(); ++p) {
      counts[vm_of(p)] += parts_[p].active_next.size();
      total += parts_[p].active_next.size();
    }
    if (total == 0) return 0.0;
    const double mean = static_cast<double>(total) / workers_now_;
    std::uint64_t mx = 0;
    for (const std::uint64_t c : counts) mx = std::max(mx, c);
    return static_cast<double>(mx) / mean;
  }

  /// Consult the installed planner with the coming superstep's activity and
  /// apply whatever plan it returns. Runs at barriers only (periodic
  /// trigger, scaling events, governor scale-out); `why` labels the trace.
  void plan_and_migrate(JobResult<Program>& result, const char* why) {
    if (!cluster_.migration.enabled()) return;
    RebalanceSignals sig;
    sig.graph = graph_;
    sig.part_of = &part_of_;
    sig.placement = &placement_;
    sig.workers = workers_now_;
    sig.superstep = superstep_;
    sig.location_version = location_version_;
    sig.active.resize(parts_.size());
    for (std::uint32_t p = 0; p < parts_.size(); ++p) {
      const PartitionState& ps = parts_[p];
      auto& out = sig.active[p];
      out.reserve(ps.active_next.size());
      for (const std::uint32_t l : ps.active_next) out.push_back(ps.vertices[l]);
      std::sort(out.begin(), out.end());
    }
    const MigrationPlan plan = cluster_.migration.planner->plan(sig);
    if (plan.empty()) return;
    apply_migration_plan(plan, result, why);
  }

  /// Execute a migration plan: price every move, run the transfers through
  /// the modeled queue/blob planes, and — if no leg exhausted its retry
  /// budget — rebuild the affected partitions around the new membership.
  /// Atomic abort: a failed transfer leaves every vertex where it was and
  /// charges only the wasted retry latency. Results stay bit-identical
  /// either way (see docs/ELASTICITY.md for the rank-order argument).
  bool apply_migration_plan(const MigrationPlan& plan, JobResult<Program>& result,
                            const char* why) {
    trace::Span span("engine.migration", "migration", "superstep", superstep_);
    struct Pending {
      VertexId v;
      PartitionId from, to;
      Bytes bytes;
    };
    std::vector<Pending> moves;
    moves.reserve(plan.moves.size());
    for (const VertexMove& mv : plan.moves) {
      PREGEL_CHECK_MSG(mv.vertex < graph_->num_vertices(),
                       "migration plan names an unknown vertex");
      PREGEL_CHECK_MSG(part_of_[mv.vertex] == mv.from,
                       "migration plan is stale: vertex no longer in 'from'");
      PREGEL_CHECK_MSG(mv.to < parts_.size() && mv.to != mv.from,
                       "migration plan targets an invalid partition");
      const PartitionState& ps = parts_[mv.from];
      const std::uint32_t l = local_of_[mv.vertex];
      // What physically moves: the vertex object + adjacency (the managed-
      // runtime footprint build_partitions models), its value, its exact
      // modeled algorithm state, and any buffered inbox messages.
      Bytes b = 64 + static_cast<Bytes>(graph_->out_degree(mv.vertex)) * 8 + sizeof(V);
      if (!ps.state_bytes_v.empty())
        b += static_cast<Bytes>(std::max<std::int64_t>(ps.state_bytes_v[l], 0));
      for (const M& m : ps.inbox_cur[l]) b += cost_.buffered_bytes(payload_bytes(m));
      for (const M& m : ps.inbox_next[l]) b += cost_.buffered_bytes(payload_bytes(m));
      moves.push_back({mv.vertex, mv.from, mv.to, b});
    }

    // Cross-VM transfer manifest, summed per (donor, receiver) VM pair;
    // moves between partitions co-located on one VM are free.
    std::vector<cloud::MigrationTransfer> transfers;
    for (const Pending& m : moves) {
      const std::uint32_t fv = vm_of(m.from), tv = vm_of(m.to);
      if (fv == tv) continue;
      auto it = std::find_if(transfers.begin(), transfers.end(), [&](const auto& t) {
        return t.from_vm == fv && t.to_vm == tv;
      });
      if (it == transfers.end())
        transfers.push_back({fv, tv, m.bytes, 1});
      else {
        it->bytes += m.bytes;
        ++it->vertices;
      }
    }

    cloud::MigrationExecutor exec(
        cost_, cluster_.vm, queues_,
        [this, &result](cloud::FaultKind k) { return control_op(k, result); });
    const cloud::MigrationOutcome out =
        exec.execute(std::span<const cloud::MigrationTransfer>(transfers), superstep_);
    // Migration stalls the barrier it runs at; charged immediately (not via
    // pending_placement_cost_) so per-superstep spans — the imbalance bench's
    // signal — stay clean of one-off transfer costs.
    if (out.stall > 0.0) {
      result.metrics.total_time += out.stall;
      result.metrics.migration_time += out.stall;
      meter_.charge(cluster_.vm, workers_now_, out.stall);
    }
    if (out.aborted) return false;

    const double imbalance_before = active_next_imbalance();
    rebuild_partitions_for_moves(moves);
    const double imbalance_after = active_next_imbalance();

    migrated_ = true;
    parts_dirty_ = true;
    ++location_version_;
    recompute_baseline_memory();
    ++result.metrics.migrations;
    result.metrics.migrated_vertices += plan.moves.size();
    result.metrics.migrated_bytes += out.bytes_moved;
    result.metrics.rebalance_gain += imbalance_before - imbalance_after;
    if (trace::spans_on()) {
      const std::string args = "{\"superstep\":" + std::to_string(superstep_) +
                               ",\"why\":\"" + why + "\"" +
                               ",\"vertices\":" + std::to_string(plan.moves.size()) +
                               ",\"bytes\":" + std::to_string(out.bytes_moved) + "}";
      trace_decision("migration.apply", "migration", args);
    }
    return true;
  }

  /// Rebuild every partition a move touches around its new membership. Each
  /// vertex carries its value, inboxes (and combiner source tags), modeled
  /// state bytes, pending activation, and scheduled wakes; partition vertex
  /// lists stay ascending by global id and part_of_/local_of_ are updated.
  template <class PendingVec>
  void rebuild_partitions_for_moves(const PendingVec& moves) {
    std::unordered_map<VertexId, PartitionId> dest;
    std::vector<PartitionId> affected;
    for (const auto& m : moves) {
      dest[m.v] = m.to;
      affected.push_back(m.from);
      affected.push_back(m.to);
    }
    std::sort(affected.begin(), affected.end());
    affected.erase(std::unique(affected.begin(), affected.end()), affected.end());

    std::unordered_map<PartitionId, PartitionState> old;
    for (const PartitionId p : affected) old[p] = std::move(parts_[p]);

    // New membership per affected partition (ascending by global id).
    for (const PartitionId p : affected) {
      std::vector<VertexId> nv;
      nv.reserve(old[p].vertices.size());
      for (const VertexId v : old[p].vertices) {
        const auto it = dest.find(v);
        if (it == dest.end() || it->second == p) nv.push_back(v);
      }
      for (const auto& m : moves)
        if (m.to == p) nv.push_back(m.v);
      std::sort(nv.begin(), nv.end());

      PartitionState ns;
      const std::size_t pn = nv.size();
      ns.vertices = std::move(nv);
      ns.values.resize(pn);
      ns.inbox_cur.resize(pn);
      ns.inbox_next.resize(pn);
      ns.inbox_cur_src.resize(pn);
      ns.inbox_next_src.resize(pn);
      ns.in_active_next.assign(pn, false);
      ns.state_bytes_v.assign(pn, 0);
      ns.graph_bytes = partition_graph_bytes(ns.vertices);
      parts_[p] = std::move(ns);
    }

    // Pull every vertex's state from wherever it lived before. part_of_ and
    // local_of_ still hold the OLD locations until the loop below finishes.
    for (const PartitionId p : affected) {
      PartitionState& ns = parts_[p];
      for (std::uint32_t nl = 0; nl < ns.vertices.size(); ++nl) {
        const VertexId v = ns.vertices[nl];
        PartitionState& os = old.at(part_of_[v]);
        const std::uint32_t ol = local_of_[v];
        ns.values[nl] = std::move(os.values[ol]);
        ns.inbox_cur[nl] = std::move(os.inbox_cur[ol]);
        ns.inbox_next[nl] = std::move(os.inbox_next[ol]);
        ns.inbox_cur_src[nl] = std::move(os.inbox_cur_src[ol]);
        ns.inbox_next_src[nl] = std::move(os.inbox_next_src[ol]);
        if (!os.state_bytes_v.empty()) ns.state_bytes_v[nl] = os.state_bytes_v[ol];
        ns.state_bytes += ns.state_bytes_v[nl];
        for (const M& m : ns.inbox_cur[nl])
          ns.inbox_cur_bytes += cost_.buffered_bytes(payload_bytes(m));
        for (const M& m : ns.inbox_next[nl])
          ns.inbox_next_bytes += cost_.buffered_bytes(payload_bytes(m));
        if (os.in_active_next[ol]) {
          ns.in_active_next[nl] = true;
          ns.active_next.push_back(nl);
        }
      }
    }

    // Re-home scheduled wakes (locals are remapped; list order within a wake
    // step is irrelevant — prepare_superstep sorts the merged actives).
    for (const PartitionId p : affected) {
      for (const auto& [at, locals] : old.at(p).wakes) {
        for (const std::uint32_t ol : locals) {
          const VertexId v = old.at(p).vertices[ol];
          const PartitionId np = dest.contains(v) ? dest.at(v) : p;
          PartitionState& ns = parts_[np];
          const auto it = std::lower_bound(ns.vertices.begin(), ns.vertices.end(), v);
          ns.wakes[at].push_back(
              static_cast<std::uint32_t>(it - ns.vertices.begin()));
        }
      }
    }

    // Finally flip the location tables to the new layout.
    for (const PartitionId p : affected) {
      const PartitionState& ns = parts_[p];
      for (std::uint32_t nl = 0; nl < ns.vertices.size(); ++nl) {
        part_of_[ns.vertices[nl]] = p;
        local_of_[ns.vertices[nl]] = nl;
      }
    }
  }

  /// Physically redistribute partitions after the VM set changed: every
  /// partition whose placement moved rides the modeled transfer planes from
  /// its old VM to its new one. Proceeds even if a leg aborts — the
  /// placement tables already changed, so the cluster must converge; the
  /// wasted retry latency is still charged.
  void charge_partition_redistribution(const std::vector<std::uint32_t>& old_placement,
                                       JobResult<Program>& result) {
    std::vector<cloud::MigrationTransfer> transfers;
    std::uint64_t vertices = 0;
    for (std::uint32_t p = 0; p < parts_.size(); ++p) {
      if (p >= old_placement.size() || old_placement[p] == placement_[p]) continue;
      transfers.push_back({old_placement[p], placement_[p],
                           partition_resident_bytes(parts_[p]),
                           static_cast<std::uint64_t>(parts_[p].vertices.size())});
      vertices += parts_[p].vertices.size();
    }
    if (transfers.empty()) return;
    cloud::MigrationExecutor exec(
        cost_, cluster_.vm, queues_,
        [this, &result](cloud::FaultKind k) { return control_op(k, result); });
    const cloud::MigrationOutcome out =
        exec.execute(std::span<const cloud::MigrationTransfer>(transfers), superstep_);
    if (out.stall > 0.0) {
      result.metrics.total_time += out.stall;
      result.metrics.migration_time += out.stall;
      meter_.charge(cluster_.vm, workers_now_, out.stall);
    }
    if (!out.aborted) {
      ++result.metrics.migrations;
      result.metrics.migrated_vertices += vertices;
      result.metrics.migrated_bytes += out.bytes_moved;
    }
  }

  /// Governor scale-out rung: grow the cluster by one VM and spread the
  /// partitions over it — pressure relief without a checkpoint rewind.
  /// Chosen by the governor only when the modeled transfer is strictly
  /// cheaper than the shed it replaces.
  void governor_scale_out(JobResult<Program>& result) {
    trace::Span span("engine.governor.scale_out", "governor", "superstep", superstep_);
    const std::vector<std::uint32_t> old_placement = placement_;
    workers_now_ += 1;
    workers_changed_ = true;  // next superstep's span absorbs scale_event_cost
    reset_placement_to_modulo();
    vm_straggler_counts_.assign(workers_now_, 0);
    recompute_baseline_memory();
    charge_partition_redistribution(old_placement, result);
    if (cluster_.migration.enabled() && cluster_.migration.on_scaling)
      plan_and_migrate(result, "governor-scale-out");
    governor_.on_scale_out();
    ++result.metrics.governor_scale_outs;
    trace::add("engine.governor.scale_outs", 1);
    if (trace::spans_on()) {
      const std::string args = "{\"superstep\":" + std::to_string(superstep_) +
                               ",\"workers\":" + std::to_string(workers_now_) + "}";
      trace_decision("governor.scale_out", "governor", args);
    }
  }

  /// Manager-injected seeds carry this sentinel in the combiner source
  /// array: no worker VM id ever equals it (the sender-side combining model
  /// already keys sources by uint8_t VM id), so worker messages never merge
  /// into a seed and vice versa.
  static constexpr std::uint8_t kSeedSource = 0xFF;

  void inject_seed(VertexId root) {
    if constexpr (requires(VertexId r) {
                    { Program::seed_message(r) } -> std::convertible_to<M>;
                  }) {
      M seed = Program::seed_message(root);
      const std::uint32_t p = part_of_[root];
      const std::uint32_t l = local_of_[root];
      PartitionState& ps = parts_[p];
      ps.inbox_next_bytes += cost_.buffered_bytes(payload_bytes(seed));
      ps.inbox_next[l].push_back(std::move(seed));
      // Keep the combiner source array in lockstep with the inbox: a seed
      // appended without a source entry leaves the arrays desynced, and any
      // later combiner scan of this inbox would read srcs[i] past its end.
      if constexpr (has_combiner()) {
        if (opts_combine_) ps.inbox_next_src[l].push_back(kSeedSource);
      }
      activate_local(p, l);
    }
  }

  // ---- context callbacks ---------------------------------------------------

  /// Capture an emission in the computing chunk's scratch row for the
  /// destination partition; the deterministic merge delivers it after the
  /// compute barrier. No shared state is touched here.
  void route(VertexId target, M message, std::size_t chunk) {
    PREGEL_DCHECK(target < graph_->num_vertices());
    ChunkScratch& cs = chunk_scratch_[chunk];
    cs.out[part_of_[target]].push_back(StagedMessage{
        local_of_[target], cs.computing_rank, cs.computing_src, cs.emit_seq++,
        std::move(message)});
  }

  /// send_to_all_neighbors: in pull mode capture one broadcast record
  /// instead of materializing a staged message per out-edge; the merge
  /// synthesizes the per-edge stream on the destination side. Otherwise
  /// expand to per-edge routes.
  void broadcast(VertexId v, const M& message, std::size_t chunk) {
    if (pull_this_step_) {
      ChunkScratch& cs = chunk_scratch_[chunk];
      auto& recs = broadcast_store_[v];
      if (recs.empty()) cs.broadcasters.push_back(v);
      recs.emplace_back(cs.emit_seq++, message);
      return;
    }
    for (VertexId u : graph_->out_neighbors(v)) route(u, M(message), chunk);
  }

  /// Deliver one staged message into partition `tp`'s next inbox: combiner
  /// merge, send/receive accounting, activation. Only the destination
  /// merges call this. Source-side counters go through the
  /// `src_load`/`src_outbuf` out-params because a merge task cannot write
  /// the source partition directly. `combine_src` is the sender-side combining
  /// domain: the VM the sender's *home* partition is placed on, captured at
  /// emission time so a migrated sender keeps combining into the same bucket
  /// it would have unmigrated (bit-identity of combined message streams).
  void deliver(std::uint32_t from_partition, std::uint32_t tp, std::uint32_t tl, M&& message,
               cloud::WorkerLoad& src_load, Bytes& src_outbuf, std::uint8_t combine_src) {
    PartitionState& dst = parts_[tp];
    const Bytes payload = payload_bytes(message);
    const bool remote =
        vm_of(from_partition) != vm_of(tp);

    // Combiner (when enabled): merge into an already-buffered message with
    // the same combine key. Modeled as sender-side combining — a combined
    // message adds no transfer bytes and no buffer growth, which is the
    // benefit Pregel combiners exist to provide.
    if constexpr (has_combiner()) {
      if (opts_combine_) {
        const std::uint64_t key = Program::combine_key(message);
        const std::uint8_t src_vm = combine_src;
        auto& box = dst.inbox_next[tl];
        auto& srcs = dst.inbox_next_src[tl];
        PREGEL_DCHECK(box.size() == srcs.size());
        for (std::size_t i = 0; i < box.size(); ++i) {
          if (srcs[i] == src_vm && Program::combine_key(box[i]) == key) {
            Program::combine(box[i], message);
            return;
          }
        }
        srcs.push_back(src_vm);
        // fall through to the normal (uncombined) accounting below
      }
    }

    if (remote) {
      ++src_load.messages_sent_remote;
      const Bytes wire = cost_.wire_bytes(payload);
      src_load.bytes_sent_remote += wire;
      src_outbuf += wire;
      dst.load.bytes_received_remote += wire;
      if (log_outboxes_)
        outbox_log_cur_[from_partition * parts_.size() + tp] += wire;
    } else {
      ++src_load.messages_sent_local;
    }
    dst.inbox_next_bytes += cost_.buffered_bytes(payload);
    dst.inbox_next[tl].push_back(std::move(message));
    activate_local(tp, tl);
  }

  void activate_local(std::uint32_t partition, std::uint32_t local) {
    PartitionState& ps = parts_[partition];
    if (!ps.in_active_next[local]) {
      ps.in_active_next[local] = true;
      ps.active_next.push_back(local);
    }
  }

  /// Account a compute's state growth/shrink: the partition total is staged
  /// per chunk; per-vertex slots are disjoint across chunks (a vertex
  /// computes in exactly one chunk), so they are written directly.
  void charge_state(std::uint32_t partition, std::uint32_t local, std::int64_t delta,
                    std::size_t chunk) {
    chunk_scratch_[chunk].state_delta += delta;
    std::vector<std::int64_t>& per_vertex = parts_[partition].state_bytes_v;
    if (!per_vertex.empty()) per_vertex[local] += delta;
  }

  /// O(1) amortized root completion: tombstone the entry, drop its index
  /// record, and compact when tombstones reach half the array. Initiation
  /// order of the survivors is preserved throughout.
  void mark_root_done(VertexId root) {
    std::size_t pos;
    if (auto it = outstanding_index_.find(root); it != outstanding_index_.end()) {
      pos = it->second;
      outstanding_index_.erase(it);
    } else {
      // Not indexed: either never outstanding, or a duplicate initiation of
      // a root whose first occurrence was already completed. The original
      // linear-scan semantics (erase the earliest live occurrence) apply.
      auto lin = std::find(outstanding_roots_.begin(), outstanding_roots_.end(), root);
      if (lin == outstanding_roots_.end()) return;
      pos = static_cast<std::size_t>(lin - outstanding_roots_.begin());
    }
    outstanding_roots_[pos] = kInvalidVertex;
    ++root_tombstones_;
    ++roots_completed_;
    if (root_tombstones_ * 2 > outstanding_roots_.size()) compact_outstanding_roots();
  }

  /// Roots initiated and not yet completed, in initiation order.
  const std::vector<VertexId>& active_roots() {
    compact_outstanding_roots();
    return outstanding_roots_;
  }

  /// Log one engine decision on both trace clocks: a host-time instant and
  /// a modeled-time instant at virtual_now_us_, carrying the same args.
  void trace_decision(const char* name, const char* cat, const std::string& args) {
    trace::Tracer& tr = trace::Tracer::instance();
    tr.instant(name, cat, args);
    tr.virtual_instant(name, cat, virtual_now_us_, args);
  }

  std::size_t outstanding_count() const noexcept {
    return outstanding_roots_.size() - root_tombstones_;
  }

  void compact_outstanding_roots() {
    if (root_tombstones_ == 0) return;
    std::erase(outstanding_roots_, kInvalidVertex);
    root_tombstones_ = 0;
    rebuild_root_index();
  }

  /// try_emplace keeps the first occurrence of a duplicate root indexed,
  /// matching what a linear scan would find.
  void rebuild_root_index() {
    outstanding_index_.clear();
    for (std::size_t i = 0; i < outstanding_roots_.size(); ++i)
      outstanding_index_.try_emplace(outstanding_roots_[i], i);
  }

  void collect(JobResult<Program>& result) {
    result.values.resize(graph_->num_vertices());
    for (const auto& ps : parts_)
      for (std::uint32_t l = 0; l < ps.vertices.size(); ++l)
        result.values[ps.vertices[l]] = ps.values[l];
    result.metrics.cost_usd = meter_.total_usd();
    result.metrics.vm_seconds = meter_.total_vm_seconds();
    result.roots_completed = roots_completed_;
    result.swaths_initiated = swath_index_;
  }

  // ---- data ----------------------------------------------------------------

  const Graph* graph_;
  Program program_;
  ClusterConfig cluster_;
  cloud::CostModel cost_;
  cloud::TenancyNoise noise_;
  cloud::CostMeter meter_;
  cloud::QueueService queues_;

  std::vector<PartitionState> parts_;
  std::vector<PartitionId> part_of_;
  std::vector<std::uint32_t> local_of_;

  // -- live vertex migration (docs/ELASTICITY.md) ---------------------------
  /// The run's initial vertex->partition assignment; a prior run's
  /// migrations are undone from this before the next run starts.
  std::vector<PartitionId> initial_assignment_;
  /// Home partition per vertex (build-time assignment) — immutable per run
  /// even as part_of_ changes, so combiner domains stay stable.
  std::vector<PartitionId> orig_part_;
  /// Immutable global serial rank per vertex (partition-major, ascending
  /// within partition) — the key merge_by_rank orders by.
  std::vector<std::uint32_t> rank_of_;
  /// This run could migrate (planner installed or governor scale-out armed):
  /// keep per-vertex state bytes and always stage emissions.
  bool migration_possible_ = false;
  /// At least one migration has been applied this run: prepare_superstep
  /// sorts actives by rank instead of by local index.
  bool migrated_ = false;
  /// parts_ no longer match initial_assignment_; rebuild on next run.
  bool parts_dirty_ = false;

  JobOptions opts_;
  bool opts_combine_ = false;
  std::uint64_t superstep_ = 0;
  bool halt_requested_ = false;
  std::uint32_t workers_now_ = 1;
  bool workers_changed_ = false;
  /// Superstep attempts this run (includes recovery/rewind replays); the
  /// 4x max_supersteps runaway guard the classic loop applied, kept as a
  /// member so a scheduler can slice the run across advance() calls.
  std::uint64_t executed_ = 0;
  /// Scale-in debounce: consecutive quiet (below-threshold) barriers, and
  /// barriers left before the next retirement is considered.
  std::uint32_t scale_in_quiet_ = 0;
  std::uint32_t scale_in_cooldown_ = 0;

  Aggregates agg_cur_;
  Globals globals_, globals_next_;

  std::vector<VertexId> pending_roots_;
  std::size_t next_root_ = 0;
  /// Outstanding roots in initiation order; completed entries are tombstoned
  /// with kInvalidVertex and compacted when they reach half the array.
  std::vector<VertexId> outstanding_roots_;
  /// root -> position in outstanding_roots_ (first occurrence; live entries only).
  std::unordered_map<VertexId, std::size_t> outstanding_index_;
  std::size_t root_tombstones_ = 0;
  std::uint64_t roots_completed_ = 0;
  std::uint32_t swath_index_ = 0;
  std::uint32_t last_swath_size_ = 0;
  std::uint64_t supersteps_since_initiation_ = 0;
  Bytes peak_memory_since_initiation_ = 0;
  Bytes baseline_memory_ = 0;
  std::uint64_t last_active_vertices_ = 0;
  std::uint64_t last_messages_sent_ = 0;

  /// Generational checkpoint store: generation 0 (the input graph) plus
  /// every published base/delta generation, each holding its Snapshot (the
  /// legs' real content). See src/cloud/ckpt_store.hpp and docs/FAULTS.md.
  cloud::CkptStore ckpt_;
  /// Delta sizing active this run (checkpointing on + delta mode on).
  bool track_dirty_ = false;
  /// Barriers since the last background scrub pass (CkptOptions::scrub_period).
  std::uint32_t barriers_since_scrub_ = 0;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> scheduled_failures_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> scheduled_zone_outages_;
  std::uint64_t failure_epoch_ = 0;

  /// Memory-pressure governor state: the ladder itself plus this superstep's
  /// observation inputs (pre-spill peak, post-spill peak, restart breach).
  MemGovernor governor_;
  bool governor_breach_ = false;
  Bytes last_unspilled_peak_ = 0;
  Bytes last_post_spill_peak_ = 0;
  /// Spillable bytes (message buffers) on the peak VM at the swath's peak
  /// superstep — feeds the sizers' spill-relief discount.
  Bytes peak_spillable_since_initiation_ = 0;
  /// Span of the most recent superstep; prices shed-vs-scale-out replay.
  Seconds last_superstep_span_ = 0.0;

  cloud::FaultInjector faults_;
  Seconds pending_retry_latency_ = 0.0;
  /// First worker whose control op exhausted the retry budget this superstep.
  std::optional<std::uint32_t> control_failed_vm_;
  /// Confined replay in progress: the VMs whose partitions are recomputing
  /// (one for a lone failure, a whole domain after a zone outage), and the
  /// superstep at which replay catches up to the failure point.
  std::vector<std::uint32_t> replay_lost_vms_;
  std::uint64_t confined_replay_until_ = 0;
  /// Job-manager replica pair: fencing epoch, CRC-verified manifest,
  /// failover state machine (see src/cloud/manager.hpp).
  cloud::JobManager manager_;
  /// Version of the partition/vertex location tables, bumped on every
  /// placement change or migration; persisted in the manager manifest so a
  /// standby can tell whether its routing state is stale.
  std::uint64_t location_version_ = 0;
  /// Availability-zone labeling of the worker fleet (1 zone = off).
  cloud::ZoneMap zones_;
  bool log_outboxes_ = false;
  /// Remote outbox bytes this superstep, indexed [src_partition][dst_partition].
  std::vector<Bytes> outbox_log_cur_;
  std::vector<std::uint32_t> vm_straggler_counts_;

  std::vector<std::uint32_t> placement_;
  Seconds pending_placement_cost_ = 0.0;

  /// Modeled-clock cursor (microseconds of simulated time elapsed so far),
  /// used only to place trace events on the virtual cluster track. Purely
  /// observational; never read by the simulation itself.
  double virtual_now_us_ = 0.0;

  // -- host parallelism (wall-clock only; no effect on results or model) ----
  std::unique_ptr<ThreadPool> pool_;  ///< null at one lane
  std::uint32_t grain_ = Bag::kDefaultGrain;  ///< frontier-bag leaf size
  /// One bag per partition, repacked from active_cur each superstep; its
  /// leaves are the stealable chunks.
  std::vector<Bag> frontier_bags_;
  std::vector<ChunkRef> chunks_;  ///< partition-major; index = serial order
  /// [first, last) chunk indices of each partition's leaves.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> part_chunk_range_;
  std::vector<ChunkScratch> chunk_scratch_;           ///< by chunk index
  std::vector<SendScratch> send_scratch_;             ///< [dst * P + src]
  std::vector<MergeCursor> merge_cursors_;  ///< [row * P + src]; row q merges into q, row P replays
  ThreadPool::StealOutcome last_steals_{};            ///< this superstep's steals

  // -- direction optimization (push/pull; see header comment) ---------------
  bool direction_enabled_ = false;  ///< program capable && mode != kOff
  bool pull_mode_ = false;          ///< hysteresis state of the heuristic
  bool pull_this_step_ = false;     ///< decision for the running superstep
  bool last_pull_mode_ = false;     ///< previous superstep, for switch count
  /// Pull-mode broadcast capture: per sender, (emission seq, payload) in
  /// call order. Sized once per run when direction is enabled.
  std::vector<std::vector<std::pair<std::uint32_t, M>>> broadcast_store_;
  /// Global in-edge CSR with per-target lists rank-sorted (lazily built).
  std::vector<std::size_t> pull_off_;
  std::vector<VertexId> pull_src_;
  bool pull_index_built_ = false;
};

}  // namespace pregel
