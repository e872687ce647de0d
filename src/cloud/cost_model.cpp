#include "cloud/cost_model.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace pregel::cloud {

CostModel::CostModel(CostParams params) : params_(params) {
  PREGEL_CHECK_MSG(params_.network_efficiency > 0.0 && params_.network_efficiency <= 1.0,
                   "CostModel: network_efficiency in (0,1]");
  PREGEL_CHECK_MSG(params_.vm_restart_threshold > 1.0,
                   "CostModel: restart threshold must exceed 1.0");
  PREGEL_CHECK_MSG(params_.vm_thrash_slope >= 0.0, "CostModel: thrash slope >= 0");
}

double CostModel::thrash_penalty(Bytes mem, const VmSpec& vm) const noexcept {
  if (mem <= vm.ram || vm.ram == 0) return 1.0;
  const double over =
      static_cast<double>(mem) / static_cast<double>(vm.ram) - 1.0;
  return 1.0 + params_.vm_thrash_slope * over;
}

bool CostModel::triggers_restart(Bytes mem, const VmSpec& vm) const noexcept {
  if (vm.ram == 0) return false;
  return static_cast<double>(mem) >=
         params_.vm_restart_threshold * static_cast<double>(vm.ram);
}

Seconds CostModel::compute_time(const WorkerLoad& load, const VmSpec& vm) const noexcept {
  const double cycles =
      static_cast<double>(load.vertices_computed) * params_.cycles_per_vertex_op +
      static_cast<double>(load.messages_processed) * params_.cycles_per_message_processed +
      static_cast<double>(load.messages_sent_local + load.messages_sent_remote) *
          params_.cycles_per_message_sent +
      static_cast<double>(load.subgraph_ops) * params_.cycles_per_subgraph_op;
  const double hz = vm.clock_ghz * 1e9 * std::max(1u, vm.cores);
  return cycles / hz * thrash_penalty(load.memory_peak, vm);
}

Seconds CostModel::network_time(const WorkerLoad& load, const VmSpec& vm,
                                std::uint32_t peers) const noexcept {
  const Seconds transfer =
      vm.network_bps > 0.0
          ? transfer_time(std::max(load.bytes_sent_remote, load.bytes_received_remote), vm)
          : 0.0;
  const Seconds setup = params_.connection_setup_per_peer * peers;
  return transfer * thrash_penalty(load.memory_peak, vm) + setup;
}

Seconds CostModel::barrier_time(std::uint32_t workers) const noexcept {
  // Each worker dequeues a step token and enqueues a barrier message; the
  // manager drains one barrier message per worker before opening the next
  // superstep. Queue ops overlap across workers, so latency counts once,
  // while manager processing is serial in the worker count.
  return 2.0 * params_.queue_op_latency + params_.barrier_per_worker * workers;
}

Seconds CostModel::spill_transfer_time(Bytes bytes, const VmSpec& vm) const noexcept {
  if (bytes == 0) return 0.0;
  const Seconds one_way = vm.network_bps > 0.0 ? transfer_time(bytes, vm) : 0.0;
  return 2.0 * one_way;  // spill out now + read back when the pressure clears
}

}  // namespace pregel::cloud
