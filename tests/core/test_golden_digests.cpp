// Golden behaviour digests: an absolute record of what the engine computes.
//
// Every other determinism check in this suite is relative — one lane count
// against another, a faulted run against a clean one — so a change that
// moves both sides of a comparison at once slips through. The table below
// pins, per cell of the matrix
//   {PageRank, PageRank+combiner, SSSP, Components, swath BC, APSP,
//    subgraph SSSP, subgraph Components, subgraph Gauss-Seidel PageRank}
//     x {hash, metis-like} x {fault-free, faulted}
// plus subgraph Jacobi PageRank and Components on the small-world graph
// (fault-free, metis-like), three CRC-32C digests:
//   values   — the final vertex values, field by field;
//   metrics  — the per-superstep and per-worker metric record;
//   counters — the job-level JobResult counters.
// "Faulted" means checkpoints every 2 supersteps with delta generations, one
// scheduled worker failure with full rollback, and migration forced every
// fifth barrier. Each cell runs at 1 and at 4 lanes and both runs must match
// the same row: host parallelism is a wall-clock setting only.
//
// Fields are hashed one by one, never as raw struct bytes (padding is not
// part of the behaviour). Work-stealing counters are excluded because they
// depend on the OS scheduler.
//
// On a mismatch the test prints the replacement row. Updating the table is
// a deliberate act: paste the row and explain the behaviour change.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "algos/apsp.hpp"
#include "algos/bc.hpp"
#include "algos/components.hpp"
#include "algos/pagerank.hpp"
#include "algos/sssp.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "partition/multilevel.hpp"
#include "partition/partitioner.hpp"
#include "partition/rebalance.hpp"
#include "subgraph/components.hpp"
#include "subgraph/pagerank.hpp"
#include "subgraph/sssp.hpp"
#include "util/crc32c.hpp"

namespace pregel {
namespace {

struct GoldenRow {
  const char* cell;
  std::uint32_t values;
  std::uint32_t metrics;
  std::uint32_t counters;
};

// clang-format off
constexpr GoldenRow kGolden[] = {
    {"pagerank/hash/fault-free", 0x5EE6AD56u, 0xFCE9F55Eu, 0x3293777Eu},
    {"pagerank/hash/faulted", 0x5EE6AD56u, 0xDCD37FF2u, 0xCB529D05u},
    {"pagerank/metis/fault-free", 0x19FF6A24u, 0x848FEF63u, 0xE1620CA9u},
    {"pagerank/metis/faulted", 0x19FF6A24u, 0x822C9C5Bu, 0xB85B7184u},
    {"pagerank-combiner/hash/fault-free", 0xA821F1BEu, 0xAB2521BAu, 0x336E35A3u},
    {"pagerank-combiner/hash/faulted", 0xA821F1BEu, 0x887915B8u, 0xFA074489u},
    {"pagerank-combiner/metis/fault-free", 0xCBACDC33u, 0xB4DD9008u, 0xB3E5166Eu},
    {"pagerank-combiner/metis/faulted", 0xCBACDC33u, 0xCBB8FC53u, 0x81178251u},
    {"sssp/hash/fault-free", 0x16D74428u, 0xD76F27F4u, 0x39BCC299u},
    {"sssp/hash/faulted", 0x16D74428u, 0x7A7C715Du, 0x301607B0u},
    {"sssp/metis/fault-free", 0x16D74428u, 0xB091140Bu, 0x4A99C962u},
    {"sssp/metis/faulted", 0x16D74428u, 0x98EE7436u, 0x3964C7B6u},
    {"components/hash/fault-free", 0x84C9A92Eu, 0x9F3FDC97u, 0x6C6CDE63u},
    {"components/hash/faulted", 0x84C9A92Eu, 0xAF3C2630u, 0x1008BCE2u},
    {"components/metis/fault-free", 0x84C9A92Eu, 0x9C1A7844u, 0x5FFE21A3u},
    {"components/metis/faulted", 0x84C9A92Eu, 0xC827FEE2u, 0xBA6AE9FFu},
    {"bc/hash/fault-free", 0x7F2D0B64u, 0xAD991641u, 0xEA010CA6u},
    {"bc/hash/faulted", 0x7F2D0B64u, 0x0E7BC298u, 0xF8136364u},
    {"bc/metis/fault-free", 0x8A8E94FCu, 0xF88B88BBu, 0x2318572Au},
    {"bc/metis/faulted", 0x8A8E94FCu, 0x55E56268u, 0x0965C4D7u},
    {"apsp/hash/fault-free", 0x530BB6CDu, 0x2ED2F936u, 0x465DD8D3u},
    {"apsp/hash/faulted", 0x530BB6CDu, 0x72D13B2Cu, 0x052BED73u},
    {"apsp/metis/fault-free", 0x3D46E4E6u, 0x4AA06DC5u, 0x5C01D9A4u},
    {"apsp/metis/faulted", 0x3D46E4E6u, 0x4381547Eu, 0x9E3BA09Au},
    {"subgraph-sssp/metis/fault-free", 0x04C731B7u, 0xEA99F8AAu, 0xE23EE38Cu},
    {"subgraph-components/metis/fault-free", 0x5B2CE511u, 0xA1195521u, 0x7D8B3F85u},
    {"subgraph-pagerank/metis/fault-free", 0xADADD99Cu, 0x18FD2BB2u, 0x79AB7F99u},
    {"subgraph-sssp/hash/fault-free", 0x04C731B7u, 0xDD15E5DEu, 0xD936186Bu},
    {"subgraph-sssp/hash/faulted", 0x04C731B7u, 0xA8ED0BC8u, 0x91BE3C46u},
    {"subgraph-sssp/metis/faulted", 0x04C731B7u, 0x64445C20u, 0xB0E24094u},
    {"subgraph-components-strip/hash/fault-free", 0x5B2CE511u, 0x21BA6583u, 0x93325158u},
    {"subgraph-components-strip/hash/faulted", 0x5B2CE511u, 0xB20EFC3Du, 0xF2031204u},
    {"subgraph-components-strip/metis/fault-free", 0x5B2CE511u, 0xE38890D4u, 0x1079C81Au},
    {"subgraph-components-strip/metis/faulted", 0x5B2CE511u, 0x0A91337Eu, 0x453583C9u},
    {"subgraph-pagerank-gs/hash/fault-free", 0x7FD92065u, 0x56ECCDA4u, 0xE4B3313Du},
    {"subgraph-pagerank-gs/hash/faulted", 0x15A0A91Fu, 0x5A2D5D3Cu, 0xE1E4F12Cu},
    {"subgraph-pagerank-gs/metis/fault-free", 0xA493AFAAu, 0x9E659117u, 0x1CC4CE6Fu},
    {"subgraph-pagerank-gs/metis/faulted", 0x6A511579u, 0xC41DD9FBu, 0x5BB8AD70u},
};
// clang-format on

/// Running CRC-32C over named scalar fields.
class Digest {
 public:
  template <class T>
    requires std::is_arithmetic_v<T>
  void add(T x) {
    crc_ = util::crc32c_update(crc_, std::as_bytes(std::span<const T, 1>(&x, 1)));
  }
  std::uint32_t value() const noexcept { return crc_; }

 private:
  std::uint32_t crc_ = 0;
};

struct Digests {
  std::uint32_t values = 0;
  std::uint32_t metrics = 0;
  std::uint32_t counters = 0;
};

std::uint32_t metrics_digest(const JobMetrics& m) {
  Digest d;
  d.add(m.supersteps.size());
  for (const SuperstepMetrics& s : m.supersteps) {
    d.add(s.superstep);
    d.add(s.active_workers);
    d.add(s.active_vertices);
    d.add(s.active_roots);
    d.add(s.span);
    d.add(s.barrier_overhead);
    d.add(s.pull_mode);
    d.add(s.workers.size());
    for (const WorkerStepMetrics& w : s.workers) {
      d.add(w.vertices_computed);
      d.add(w.messages_processed);
      d.add(w.messages_sent_local);
      d.add(w.messages_sent_remote);
      d.add(w.subgraph_ops);
      d.add(w.bytes_sent_remote);
      d.add(w.bytes_received_remote);
      d.add(w.memory_peak);
      d.add(w.spilled_bytes);
      d.add(w.compute_time);
      d.add(w.network_time);
      d.add(w.barrier_wait);
    }
  }
  return d.value();
}

std::uint32_t counters_digest(const JobReport& r) {
  const JobMetrics& m = r.metrics;
  Digest d;
  d.add(r.failed);
  d.add(r.roots_completed);
  d.add(r.swaths_initiated);
  d.add(m.total_time);
  d.add(m.setup_time);
  d.add(m.cost_usd);
  d.add(m.vm_seconds);
  d.add(m.checkpoints_written);
  d.add(m.checkpoint_time);
  d.add(m.worker_failures);
  d.add(m.recovery_time);
  d.add(m.replayed_supersteps);
  d.add(m.checkpoint_bases);
  d.add(m.checkpoint_deltas);
  d.add(m.checkpoint_base_bytes);
  d.add(m.checkpoint_delta_bytes);
  d.add(m.control_queue_ops);
  d.add(m.pull_supersteps);
  d.add(m.direction_switches);
  d.add(m.migrations);
  d.add(m.migrated_vertices);
  d.add(m.migrated_bytes);
  d.add(m.migration_time);
  d.add(m.rebalance_gain);
  return d.value();
}

// ---- vertex values, one hasher per program ----------------------------------

void hash_value(Digest& d, const algos::PageRankProgram::VertexValue& v) { d.add(v.rank); }
void hash_value(Digest& d, const algos::SsspProgram::VertexValue& v) { d.add(v.distance); }
void hash_value(Digest& d, const algos::ComponentsProgram::VertexValue& v) {
  d.add(v.label);
}
void hash_value(Digest& d, const algos::BcProgram::VertexValue& v) {
  d.add(v.bc_score);
  d.add(v.bc_comp);
  d.add(v.entries.size());
}
void hash_value(Digest& d, const algos::ApspProgram::VertexValue& v) {
  d.add(v.dist.size());
  for (const auto& [root, dist] : v.dist) {
    d.add(root);
    d.add(dist);
  }
}
void hash_value(Digest& d, const subgraph::PageRankSubgraphProgram::VertexValue& v) {
  d.add(v.rank);
  d.add(v.remote_sum);
  d.add(v.last_share);
}
void hash_value(Digest& d, const subgraph::SsspSubgraphProgram::VertexValue& v) {
  d.add(v.distance);
}
void hash_value(Digest& d, const subgraph::ComponentsSubgraphProgram::VertexValue& v) {
  d.add(v.label);
}

template <class Program>
Digests digests_of(const JobResult<Program>& r) {
  Digest values;
  values.add(r.values.size());
  for (const auto& v : r.values) hash_value(values, v);
  return {values.value(), metrics_digest(r.metrics), counters_digest(r)};
}

// ---- the matrix axes --------------------------------------------------------

enum class Parts { kHash, kMetis };
enum class Scenario { kFaultFree, kFaulted };

const char* name_of(Parts p) { return p == Parts::kHash ? "hash" : "metis"; }
const char* name_of(Scenario s) {
  return s == Scenario::kFaultFree ? "fault-free" : "faulted";
}

/// Eight partitions on four VMs: two partitions per VM, so every run has
/// both local and remote traffic.
ClusterConfig base_cluster() {
  ClusterConfig c;
  c.num_partitions = 8;
  c.initial_workers = 4;
  return c;
}

/// Forced migration: every call moves the four highest-id next-active
/// vertices of the busiest partition to the following partition. Unlike the
/// balancing planners it fires on well-balanced and well-cut runs too, which
/// is the point here — every faulted cell must take the post-migration
/// rank-merge paths.
class RotatingPlanner final : public MigrationPlanner {
 public:
  MigrationPlan plan(const RebalanceSignals& s) override {
    MigrationPlan plan;
    std::size_t busiest = 0;
    for (std::size_t p = 1; p < s.active.size(); ++p)
      if (s.active[p].size() > s.active[busiest].size()) busiest = p;
    const auto& act = s.active[busiest];
    const auto to = static_cast<PartitionId>((busiest + 1) % s.active.size());
    for (std::size_t i = 0; i < std::min<std::size_t>(4, act.size()); ++i)
      plan.moves.push_back({act[act.size() - 1 - i], static_cast<PartitionId>(busiest), to});
    return plan;
  }
  std::string name() const override { return "rotating"; }
};

ClusterConfig cluster_for(Scenario s) {
  ClusterConfig c = base_cluster();
  if (s == Scenario::kFaulted) {
    c.checkpoint_interval = 2;
    c.ckpt.delta_enabled = true;
    c.scheduled_failures = {{4, 1}};
    c.migration.planner = std::make_shared<RotatingPlanner>();
    c.migration.period = 5;
  }
  return c;
}

Partitioning partition(const Graph& g, Parts p) {
  if (p == Parts::kHash) return HashPartitioner{}.partition(g, base_cluster().num_partitions);
  return MultilevelPartitioner{}.partition(g, base_cluster().num_partitions);
}

std::string format_row(const std::string& cell, const Digests& d) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "    {\"%s\", 0x%08Xu, 0x%08Xu, 0x%08Xu},", cell.c_str(),
                d.values, d.metrics, d.counters);
  return buf;
}

void expect_golden(const std::string& cell, std::uint32_t lanes, const Digests& d) {
  const GoldenRow* row = nullptr;
  for (const GoldenRow& g : kGolden)
    if (cell == g.cell) row = &g;
  const bool match = row != nullptr && row->values == d.values &&
                     row->metrics == d.metrics && row->counters == d.counters;
  EXPECT_TRUE(match) << "golden digest mismatch for " << cell << " at " << lanes
                     << " lanes; replacement row:\n"
                     << format_row(cell, d);
}

/// Run one cell at 1 and 4 lanes; both must match the cell's golden row.
template <class Program>
void check_cell(const std::string& cell, const Graph& g, const Partitioning& parts,
                const Program& program, const ClusterConfig& cluster, JobOptions opts,
                bool faulted) {
  for (const std::uint32_t lanes : {1u, 4u}) {
    opts.parallelism = lanes;
    Engine<Program> e(g, program, cluster, parts);
    const JobResult<Program> r = e.run(opts);
    ASSERT_FALSE(r.failed) << cell << ": " << r.failure_reason;
    if (faulted) {
      // The faulted scenario must actually exercise what it names.
      EXPECT_EQ(r.metrics.worker_failures, 1u) << cell;
      EXPECT_GT(r.metrics.checkpoint_deltas, 0u) << cell;
      EXPECT_GT(r.metrics.migrations, 0u) << cell;
    }
    expect_golden(cell, lanes, digests_of(r));
  }
}

/// Every (partitioner, scenario) cell of one vertex-centric program.
template <class Program>
void check_program(const std::string& name, const Graph& g, const Program& program,
                   const JobOptions& opts) {
  for (const Parts p : {Parts::kHash, Parts::kMetis}) {
    const Partitioning parts = partition(g, p);
    for (const Scenario s : {Scenario::kFaultFree, Scenario::kFaulted}) {
      const std::string cell = name + "/" + name_of(p) + "/" + name_of(s);
      check_cell(cell, g, parts, program, cluster_for(s), opts, s == Scenario::kFaulted);
    }
  }
}

JobOptions all_active(bool combiner = false) {
  JobOptions o;
  o.start_all_vertices = true;
  o.use_combiner = combiner;
  return o;
}

JobOptions rooted(std::vector<VertexId> roots, std::uint32_t swath_size) {
  JobOptions o;
  o.roots = std::move(roots);
  o.swath = SwathPolicy::make(std::make_shared<StaticSwathSizer>(swath_size),
                              std::make_shared<StaticNInitiation>(2), 0);
  return o;
}

// Erdos-Renyi leaves dangling vertices, so PageRank's dangling-mass
// aggregate (an order-sensitive double sum) is exercised every superstep.
TEST(GoldenDigest, PageRank) {
  const Graph g = erdos_renyi(300, 900, 47);
  check_program("pagerank", g, algos::PageRankProgram{20, 0.85}, all_active());
}

TEST(GoldenDigest, PageRankCombiner) {
  const Graph g = erdos_renyi(300, 900, 47);
  check_program("pagerank-combiner", g, algos::PageRankProgram{20, 0.85},
                all_active(/*combiner=*/true));
}

// A grid keeps the SSSP wavefront thin for ~30 supersteps: long enough for
// several checkpoint rounds, the failure, and repeated migrations.
TEST(GoldenDigest, Sssp) {
  const Graph g = grid_graph(15, 20);
  JobOptions o;
  o.roots = {0};
  check_program("sssp", g, algos::SsspProgram{}, o);
}

// All vertices start active, so the direction heuristic runs pull supersteps.
TEST(GoldenDigest, Components) {
  const Graph g = watts_strogatz(300, 6, 0.2, 43);
  check_program("components", g, algos::ComponentsProgram{}, all_active());
}

TEST(GoldenDigest, BcSwath) {
  const Graph g = barabasi_albert(300, 3, 59);
  std::vector<VertexId> roots;
  for (VertexId r = 0; r < 12; ++r) roots.push_back(r * 23 % 300);
  check_program("bc", g, algos::BcProgram{}, rooted(roots, 4));
}

TEST(GoldenDigest, Apsp) {
  const Graph g = barabasi_albert(250, 2, 13);
  std::vector<VertexId> roots;
  for (VertexId r = 0; r < 8; ++r) roots.push_back(r * 31 % 250);
  check_program("apsp", g, algos::ApspProgram{}, rooted(roots, 4));
}

TEST(GoldenDigest, SubgraphPrograms) {
  const Graph g = watts_strogatz(400, 6, 0.2, 9);
  const Partitioning metis = partition(g, Parts::kMetis);
  JobOptions rooted_at_0;
  rooted_at_0.roots = {0};
  check_program("subgraph-sssp", g, subgraph::SsspSubgraphProgram{}, rooted_at_0);
  check_cell("subgraph-components/metis/fault-free", g, metis,
             subgraph::ComponentsSubgraphProgram{}, base_cluster(), all_active(), false);
  // Metis-like cuts the small-world graph so well that components converge
  // before the scheduled failure; a long strip keeps the labels travelling.
  check_program("subgraph-components-strip", grid_graph(8, 50),
                subgraph::ComponentsSubgraphProgram{}, all_active());
  subgraph::PageRankSubgraphProgram pr;
  pr.iterations = 20;
  check_cell("subgraph-pagerank/metis/fault-free", g, metis, pr, base_cluster(), all_active(),
             false);
  // Gauss-Seidel with a finite tolerance: a converged partition is woken
  // again only at the locals a boundary delta reaches, yet its sweeps
  // rewrite every local's rank.
  subgraph::PageRankSubgraphProgram gs;
  gs.mode = subgraph::PageRankSubgraphProgram::Mode::kGaussSeidel;
  gs.tolerance = 1e-5;
  check_program("subgraph-pagerank-gs", g, gs, all_active());
}

}  // namespace
}  // namespace pregel
