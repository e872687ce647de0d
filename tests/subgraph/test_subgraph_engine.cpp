// Subgraph mode under the full engine substrate (docs/SUBGRAPH.md): the
// per-partition compute unit rides the same barriers, so checkpointing
// (including delta chains driven by mark_changed), fault recovery, live
// migration — reactive and meta-graph-predictive — and the scheduler all
// apply unchanged, and none of them may alter results.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "algos/sssp.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "partition/meta_graph.hpp"
#include "partition/partitioner.hpp"
#include "partition/rebalance.hpp"
#include "sched/scheduler.hpp"
#include "subgraph/components.hpp"
#include "subgraph/pagerank.hpp"
#include "subgraph/sssp.hpp"

namespace pregel {
namespace {

using subgraph::ComponentsSubgraphProgram;
using subgraph::PageRankSubgraphProgram;
using subgraph::SsspSubgraphProgram;

ClusterConfig eight_partitions_four_vms() {
  ClusterConfig c;
  c.num_partitions = 8;
  c.initial_workers = 4;
  return c;
}

// Delta checkpointing is on by default with an interval; the subgraph dirty
// contract (state_unchanged_all + mark_changed) feeds the same dirty bitmap
// the vertex path uses, so rollback must reproduce exact distances.
TEST(SubgraphEngine, CheckpointRecoveryReproducesSsspDistances) {
  const Graph g = watts_strogatz(400, 6, 0.2, 9);
  const ClusterConfig clean_cfg = eight_partitions_four_vms();
  const auto parts = HashPartitioner{}.partition(g, clean_cfg.num_partitions);
  const auto clean = subgraph::run_sssp_subgraph(g, clean_cfg, parts, 0);
  ASSERT_FALSE(clean.failed);

  ClusterConfig faulty = clean_cfg;
  faulty.checkpoint_interval = 2;
  faulty.scheduled_failures = {{3, 1}};
  Engine<SsspSubgraphProgram> e(g, {}, faulty, parts);
  JobOptions o;
  o.roots = {0};
  const auto r = e.run(o);
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.metrics.worker_failures, 1u);
  EXPECT_GT(r.metrics.checkpoints_written, 0u);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(r.values[v].distance, clean.values[v].distance) << "vertex " << v;
}

// PageRank's doubles are the sharpest probe: a rollback that replays the
// boundary exchange in a different order would shift low bits immediately.
TEST(SubgraphEngine, CheckpointRecoveryBitIdenticalPageRank) {
  const Graph g = barabasi_albert(300, 3, 5);
  const ClusterConfig clean_cfg = eight_partitions_four_vms();
  const auto parts = HashPartitioner{}.partition(g, clean_cfg.num_partitions);
  const auto clean = subgraph::run_pagerank_subgraph(g, clean_cfg, parts, 25);
  ASSERT_FALSE(clean.failed);

  ClusterConfig faulty = clean_cfg;
  faulty.checkpoint_interval = 4;
  faulty.scheduled_failures = {{7, 0}, {15, 2}};
  Engine<PageRankSubgraphProgram> e(g, [] {
    PageRankSubgraphProgram p;
    p.iterations = 25;
    return p;
  }(), faulty, parts);
  JobOptions o;
  o.start_all_vertices = true;
  const auto r = e.run(o);
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.metrics.worker_failures, 2u);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(r.values[v].rank, clean.values[v].rank) << "vertex " << v;
}

// Gauss-Seidel sweeps rewrite every local's rank even when a boundary delta
// woke only a few locals, and the program never narrows its write set with
// state_unchanged_all(). Delta checkpoints must therefore treat the whole
// partition as dirty, or a rollback through a delta leg restores stale
// ranks for the locals the frontier missed.
TEST(SubgraphEngine, DeltaRecoveryBitIdenticalGaussSeidelPageRank) {
  const Graph g = watts_strogatz(400, 6, 0.2, 9);
  const ClusterConfig clean_cfg = eight_partitions_four_vms();
  const auto parts = HashPartitioner{}.partition(g, clean_cfg.num_partitions);
  PageRankSubgraphProgram gs;
  gs.mode = PageRankSubgraphProgram::Mode::kGaussSeidel;
  gs.tolerance = 1e-7;
  JobOptions o;
  o.start_all_vertices = true;
  const auto clean = Engine<PageRankSubgraphProgram>(g, gs, clean_cfg, parts).run(o);
  ASSERT_FALSE(clean.failed);
  // The failure lands after several partly active supersteps, so the
  // restore set's delta legs were written while only part of each woken
  // partition was on the frontier.
  constexpr std::uint64_t kFailAt = 45;
  ASSERT_GT(clean.metrics.supersteps.size(), kFailAt);
  for (std::uint64_t s = kFailAt - 8; s <= kFailAt; ++s) {
    const std::uint64_t active = clean.metrics.supersteps[s].active_vertices;
    ASSERT_GT(active, 0u) << "superstep " << s;
    ASSERT_LT(active, g.num_vertices()) << "superstep " << s;
  }

  ClusterConfig faulty = clean_cfg;
  faulty.checkpoint_interval = 2;
  faulty.ckpt.delta_enabled = true;
  faulty.scheduled_failures = {{kFailAt, 1}};
  const auto r = Engine<PageRankSubgraphProgram>(g, gs, faulty, parts).run(o);
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.metrics.worker_failures, 1u);
  EXPECT_GT(r.metrics.checkpoint_deltas, 0u);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(r.values[v].rank, clean.values[v].rank) << "vertex " << v;
    ASSERT_EQ(r.values[v].remote_sum, clean.values[v].remote_sum) << "vertex " << v;
    ASSERT_EQ(r.values[v].last_share, clean.values[v].last_share) << "vertex " << v;
  }
}

ClusterConfig with_forced_migration(ClusterConfig c,
                                    std::shared_ptr<MigrationPlanner> planner,
                                    std::uint64_t period = 2) {
  c.migration.planner = std::move(planner);
  c.migration.period = period;
  return c;
}

// Migration changes WHERE partitions compute, never WHAT: after a re-base
// the inbox merge switches to the rank-ordered path, which the canonical
// (sender rank, emit seq) outbox sort makes identical to the unmigrated
// partition-major concatenation.
TEST(SubgraphEngine, ReactiveMigrationPreservesValues) {
  const Graph g = watts_strogatz(500, 6, 0.2, 43);
  const ClusterConfig base_cfg = eight_partitions_four_vms();
  const auto parts = HashPartitioner{}.partition(g, base_cfg.num_partitions);
  const auto base = subgraph::run_components_subgraph(g, base_cfg, parts);
  ASSERT_FALSE(base.failed);

  const ClusterConfig migr_cfg = with_forced_migration(
      base_cfg, std::make_shared<ActivityGreedyPlanner>(/*tolerance=*/0.05));
  Engine<ComponentsSubgraphProgram> e(g, {}, migr_cfg, parts);
  JobOptions o;
  o.start_all_vertices = true;
  const auto r = e.run(o);
  ASSERT_FALSE(r.failed);
  EXPECT_GT(r.metrics.migrated_vertices, 0u);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(r.values[v].label, base.values[v].label) << "vertex " << v;
}

// The meta-graph planner proposes moves *ahead* of the frontier wave; like
// every planner it must leave the logical execution untouched, and its
// cached meta-graph must have been (re)built along the way.
TEST(SubgraphEngine, MetaGraphPlannerPreservesValuesAndRebuilds) {
  const Graph g = grid_graph(20, 25);
  const ClusterConfig base_cfg = eight_partitions_four_vms();
  const auto parts = HashPartitioner{}.partition(g, base_cfg.num_partitions);
  const auto base = subgraph::run_sssp_subgraph(g, base_cfg, parts, 0);
  ASSERT_FALSE(base.failed);

  auto planner = std::make_shared<MetaGraphPlanner>(/*tolerance=*/0.05);
  const ClusterConfig migr_cfg = with_forced_migration(base_cfg, planner);
  Engine<SsspSubgraphProgram> e(g, {}, migr_cfg, parts);
  JobOptions o;
  o.roots = {0};
  const auto r = e.run(o);
  ASSERT_FALSE(r.failed);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(r.values[v].distance, base.values[v].distance) << "vertex " << v;
  EXPECT_GE(planner->rebuilds(), 1u);
  EXPECT_EQ(planner->name(), "meta-graph");
}

// The vertex engine under the same predictive planner: meta-graph planning
// is not subgraph-only, it rides RebalanceSignals like any other planner.
TEST(SubgraphEngine, MetaGraphPlannerWorksOnVertexEngineToo) {
  const Graph g = watts_strogatz(400, 6, 0.2, 9);
  const ClusterConfig base_cfg = eight_partitions_four_vms();
  const auto parts = HashPartitioner{}.partition(g, base_cfg.num_partitions);
  const auto base = algos::run_sssp(g, base_cfg, parts, 0);
  ASSERT_FALSE(base.failed);

  const ClusterConfig migr_cfg =
      with_forced_migration(base_cfg, std::make_shared<MetaGraphPlanner>(0.05));
  Engine<algos::SsspProgram> e(g, {}, migr_cfg, parts);
  JobOptions o;
  o.roots = {0};
  const auto r = e.run(o);
  ASSERT_FALSE(r.failed);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(r.values[v].distance, base.values[v].distance) << "vertex " << v;
}

// Subgraph jobs are ordinary ScheduledJobs: sliced onto a contended pool,
// they must produce the same values as a dedicated solo run.
TEST(SubgraphEngine, SchedulerSlicedRunMatchesSoloRun) {
  const Graph g = erdos_renyi(400, 900, 47);
  ClusterConfig c;
  c.num_partitions = 4;
  c.initial_workers = 2;
  const auto parts = HashPartitioner{}.partition(g, c.num_partitions);
  const auto solo = subgraph::run_sssp_subgraph(g, c, parts, 0);
  ASSERT_FALSE(solo.failed);

  sched::SchedulerOptions so;
  so.pool_vms = 4;
  sched::JobScheduler scheduler(so);
  JobOptions o;
  o.roots = {0};
  auto job = std::make_unique<sched::TypedJob<SsspSubgraphProgram>>(
      g, SsspSubgraphProgram{}, c, parts, o);
  auto* typed = job.get();
  const auto id = scheduler.submit(sched::JobSpec{.name = "subgraph-sssp"},
                                   std::move(job));
  scheduler.run_all();
  ASSERT_FALSE(scheduler.report(id).failed);
  const auto& vals = typed->result().values;
  ASSERT_EQ(vals.size(), solo.values.size());
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(vals[v].distance, solo.values[v].distance) << "vertex " << v;
}

}  // namespace
}  // namespace pregel
