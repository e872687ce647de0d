#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cloud/cost_model.hpp"
#include "cloud/elasticity.hpp"
#include "cloud/faults.hpp"
#include "cloud/network.hpp"
#include "cloud/queue.hpp"
#include "cloud/vm.hpp"

namespace pregel::cloud {
namespace {

TEST(VmCatalog, AzureLargeSpecsMatchPaper) {
  const VmSpec vm = azure_large_2012();
  EXPECT_EQ(vm.cores, 4u);
  EXPECT_DOUBLE_EQ(vm.clock_ghz, 1.6);
  EXPECT_EQ(vm.ram, 7_GiB);
  EXPECT_DOUBLE_EQ(vm.network_bps, mbps(400));
  EXPECT_DOUBLE_EQ(vm.price_per_hour, 0.48);
}

TEST(VmCatalog, SmallIsQuarterOfLarge) {
  const VmSpec s = azure_small_2012();
  const VmSpec l = azure_large_2012();
  EXPECT_EQ(s.cores * 4, l.cores);
  EXPECT_DOUBLE_EQ(s.network_bps * 4, l.network_bps);
  EXPECT_DOUBLE_EQ(s.price_per_hour * 4, l.price_per_hour);
  EXPECT_EQ(s.ram * 4, l.ram);
}

TEST(VmCatalog, ScaledRam) {
  const VmSpec vm = with_scaled_ram(azure_large_2012(), 0.1);
  EXPECT_EQ(vm.ram, static_cast<Bytes>(static_cast<double>(7_GiB) * 0.1));
  EXPECT_EQ(vm.cores, 4u);  // only RAM changes
  EXPECT_THROW(with_scaled_ram(azure_large_2012(), 0.0), std::logic_error);
}

TEST(CostMeter, ProRataPerSecond) {
  CostMeter m;
  m.charge(azure_large_2012(), 8, 3600.0);
  EXPECT_NEAR(m.total_usd(), 8 * 0.48, 1e-9);
  EXPECT_DOUBLE_EQ(m.total_vm_seconds(), 8 * 3600.0);
  m.charge(azure_large_2012(), 4, 1800.0);
  EXPECT_NEAR(m.total_usd(), 8 * 0.48 + 4 * 0.24, 1e-9);
  m.reset();
  EXPECT_DOUBLE_EQ(m.total_usd(), 0.0);
}

TEST(CostMeter, RejectsNegativeDuration) {
  CostMeter m;
  EXPECT_THROW(m.charge(azure_large_2012(), 1, -1.0), std::logic_error);
}

TEST(CostModel, ValidatesParams) {
  CostParams p;
  p.network_efficiency = 0.0;
  EXPECT_THROW(CostModel{p}, std::logic_error);
  p = {};
  p.vm_restart_threshold = 1.0;
  EXPECT_THROW(CostModel{p}, std::logic_error);
}

TEST(CostModel, NoThrashWithinRam) {
  const CostModel m;
  const VmSpec vm = azure_large_2012();
  EXPECT_DOUBLE_EQ(m.thrash_penalty(vm.ram, vm), 1.0);
  EXPECT_DOUBLE_EQ(m.thrash_penalty(1_GiB, vm), 1.0);
}

TEST(CostModel, ThrashGrowsLinearlyWithOverflow) {
  CostParams p;
  p.vm_thrash_slope = 10.0;
  const CostModel m{p};
  const VmSpec vm = azure_large_2012();
  const auto mem10 = static_cast<Bytes>(static_cast<double>(vm.ram) * 1.1);
  EXPECT_NEAR(m.thrash_penalty(mem10, vm), 2.0, 0.01);  // 1 + 10*0.1
  const auto mem20 = static_cast<Bytes>(static_cast<double>(vm.ram) * 1.2);
  EXPECT_NEAR(m.thrash_penalty(mem20, vm), 3.0, 0.01);
}

TEST(CostModel, RestartThreshold) {
  const CostModel m;  // default threshold 1.5
  const VmSpec vm = azure_large_2012();
  EXPECT_FALSE(m.triggers_restart(vm.ram, vm));
  EXPECT_FALSE(
      m.triggers_restart(static_cast<Bytes>(static_cast<double>(vm.ram) * 1.49), vm));
  EXPECT_TRUE(
      m.triggers_restart(static_cast<Bytes>(static_cast<double>(vm.ram) * 1.5), vm));
}

TEST(CostModel, ComputeTimeScalesWithWork) {
  const CostModel m;
  const VmSpec vm = azure_large_2012();
  WorkerLoad a;
  a.vertices_computed = 1000;
  a.messages_processed = 1000;
  WorkerLoad b = a;
  b.vertices_computed = 2000;
  b.messages_processed = 2000;
  EXPECT_NEAR(m.compute_time(b, vm), 2.0 * m.compute_time(a, vm), 1e-12);
}

TEST(CostModel, ComputeTimeScalesInverseWithCores) {
  const CostModel m;
  VmSpec vm = azure_large_2012();
  WorkerLoad load;
  load.vertices_computed = 100000;
  const Seconds t4 = m.compute_time(load, vm);
  vm.cores = 1;
  EXPECT_NEAR(m.compute_time(load, vm), 4.0 * t4, 1e-12);
}

TEST(CostModel, NetworkTimeBoundByMaxDirection) {
  const CostModel m;
  const VmSpec vm = azure_large_2012();
  WorkerLoad load;
  load.bytes_sent_remote = 35_MiB;  // 400Mbps*0.7 = 35 MB/s effective
  load.bytes_received_remote = 1_MiB;
  const Seconds t = m.network_time(load, vm, 0);
  EXPECT_NEAR(t, static_cast<double>(35_MiB) / (400e6 * 0.7 / 8.0), 1e-6);
}

TEST(CostModel, NetworkSetupGrowsWithPeers) {
  const CostModel m;
  const VmSpec vm = azure_large_2012();
  WorkerLoad load;
  const Seconds t7 = m.network_time(load, vm, 7);
  const Seconds t3 = m.network_time(load, vm, 3);
  EXPECT_NEAR(t7 - t3, 4.0 * m.params().connection_setup_per_peer, 1e-12);
}

TEST(CostModel, BarrierGrowsWithWorkers) {
  const CostModel m;
  EXPECT_GT(m.barrier_time(8), m.barrier_time(4));
  const Seconds diff = m.barrier_time(8) - m.barrier_time(4);
  EXPECT_NEAR(diff, 4.0 * m.params().barrier_per_worker, 1e-12);
}

TEST(CostModel, WireAndBufferedBytes) {
  const CostModel m;
  EXPECT_EQ(m.wire_bytes(20), 20 + m.params().message_envelope_bytes);
  EXPECT_EQ(m.buffered_bytes(20), 20 + m.params().message_object_overhead_bytes);
  EXPECT_GT(m.buffered_bytes(20), m.wire_bytes(20));  // memory > wire, by design
}

TEST(CostModel, TransferTimeIsOneWayAtEffectiveBandwidth) {
  const CostModel m;
  const VmSpec vm = azure_large_2012();
  EXPECT_EQ(m.transfer_time(0, vm), 0.0);
  const double bw_Bps = vm.network_bps * m.params().network_efficiency / 8.0;
  EXPECT_EQ(m.transfer_time(50_MiB, vm), static_cast<double>(50_MiB) / bw_Bps);
  EXPECT_EQ(m.spill_transfer_time(50_MiB, vm), 2.0 * m.transfer_time(50_MiB, vm));
}

TEST(TenancyNoise, ZeroSigmaIsExactlyOne) {
  const TenancyNoise n(0.0, 7);
  for (std::uint32_t w = 0; w < 4; ++w)
    for (std::uint64_t s = 0; s < 10; ++s) EXPECT_DOUBLE_EQ(n.factor(w, s), 1.0);
}

TEST(TenancyNoise, DeterministicAndOrderIndependent) {
  const TenancyNoise n(0.2, 99);
  const double a = n.factor(3, 17);
  (void)n.factor(1, 2);
  (void)n.factor(5, 5);
  EXPECT_DOUBLE_EQ(n.factor(3, 17), a);
}

TEST(TenancyNoise, FactorsAtLeastOne) {
  const TenancyNoise n(0.3, 5);
  for (std::uint32_t w = 0; w < 8; ++w)
    for (std::uint64_t s = 0; s < 50; ++s) EXPECT_GE(n.factor(w, s), 1.0);
}

TEST(TenancyNoise, RejectsNegativeSigma) {
  EXPECT_THROW(TenancyNoise(-0.1, 1), std::logic_error);
}

TEST(AzureQueue, FifoOrder) {
  AzureQueue q;
  q.put("a");
  q.put("b");
  auto m1 = q.get();
  auto m2 = q.get();
  ASSERT_TRUE(m1 && m2);
  EXPECT_EQ(m1->body, "a");
  EXPECT_EQ(m2->body, "b");
}

TEST(AzureQueue, EmptyGetReturnsNullopt) {
  AzureQueue q;
  EXPECT_FALSE(q.get().has_value());
}

TEST(AzureQueue, AtLeastOnceVisibility) {
  AzureQueue q;
  q.put("job");
  auto m = q.get();
  ASSERT_TRUE(m);
  EXPECT_EQ(q.visible_count(), 0u);
  EXPECT_EQ(q.inflight_count(), 1u);
  q.release(m->id);  // consumer "crashed": message reappears
  EXPECT_EQ(q.visible_count(), 1u);
  auto again = q.get();
  ASSERT_TRUE(again);
  EXPECT_EQ(again->body, "job");
  q.remove(again->id);
  EXPECT_EQ(q.inflight_count(), 0u);
}

TEST(AzureQueue, RemoveUnknownThrows) {
  AzureQueue q;
  EXPECT_THROW(q.remove(42), std::logic_error);
  EXPECT_THROW(q.release(42), std::logic_error);
}

TEST(AzureQueue, ReleasedMessageRedeliveredBeforeNewer) {
  // A crashed consumer's message must come back ahead of messages enqueued
  // after it (visibility-timeout expiry restores queue position, it does not
  // requeue at the tail).
  AzureQueue q;
  q.put("first");
  q.put("second");
  auto m = q.get();
  ASSERT_TRUE(m);
  EXPECT_EQ(m->body, "first");
  q.put("third");
  q.release(m->id);
  auto r1 = q.get();
  auto r2 = q.get();
  auto r3 = q.get();
  ASSERT_TRUE(r1 && r2 && r3);
  EXPECT_EQ(r1->body, "first");
  EXPECT_EQ(r2->body, "second");
  EXPECT_EQ(r3->body, "third");
  EXPECT_FALSE(q.get().has_value());
  // Redelivered under the same id: remove() still acknowledges it.
  EXPECT_EQ(r1->id, m->id);
  q.remove(r1->id);
  q.remove(r2->id);
  q.remove(r3->id);
  EXPECT_EQ(q.inflight_count(), 0u);
}

TEST(AzureQueue, ReleaseThenRemoveRequiresRedelivery) {
  AzureQueue q;
  q.put("job");
  auto m = q.get();
  ASSERT_TRUE(m);
  q.release(m->id);
  // Once released the message is no longer in flight; acknowledging it
  // without re-getting it is the double-accounting bug Azure forbids.
  EXPECT_THROW(q.remove(m->id), std::logic_error);
  EXPECT_EQ(q.visible_count(), 1u);
}

TEST(ParsePrefixedCount, AcceptsWellFormed) {
  EXPECT_EQ(parse_prefixed_count("active:42", "active:"), 42u);
  EXPECT_EQ(parse_prefixed_count("active:0", "active:"), 0u);
  EXPECT_EQ(parse_prefixed_count("superstep:18446744073709551615", "superstep:"),
            18446744073709551615ull);
}

TEST(ParsePrefixedCount, RejectsMalformed) {
  EXPECT_FALSE(parse_prefixed_count("active:", "active:").has_value());       // no digits
  EXPECT_FALSE(parse_prefixed_count("active:12x", "active:").has_value());    // trailing junk
  EXPECT_FALSE(parse_prefixed_count("active:-3", "active:").has_value());     // negative
  EXPECT_FALSE(parse_prefixed_count("activ:12", "active:").has_value());      // wrong prefix
  EXPECT_FALSE(parse_prefixed_count("active12", "active:").has_value());      // no separator
  EXPECT_FALSE(parse_prefixed_count("", "active:").has_value());
  EXPECT_FALSE(parse_prefixed_count("act", "active:").has_value());           // shorter than prefix
  EXPECT_FALSE(
      parse_prefixed_count("active:18446744073709551616", "active:").has_value());  // overflow
}

// The hot-path bugfix sweep: the old strtoull-style parser accepted
// non-canonical spellings, so two queue bodies could decode to the same count
// while comparing unequal as strings. Canonical now means: digits only, no
// sign, no whitespace, no leading zeros (except "0" itself).
TEST(ParsePrefixedCount, RejectsNonCanonicalSpellings) {
  EXPECT_FALSE(parse_prefixed_count("active:01", "active:").has_value());
  EXPECT_FALSE(parse_prefixed_count("active:007", "active:").has_value());
  EXPECT_FALSE(parse_prefixed_count("active:00", "active:").has_value());
  EXPECT_FALSE(parse_prefixed_count("active:+1", "active:").has_value());
  EXPECT_FALSE(parse_prefixed_count("active: 1", "active:").has_value());
  EXPECT_FALSE(parse_prefixed_count("active:1 ", "active:").has_value());
  EXPECT_FALSE(parse_prefixed_count("active:\t9", "active:").has_value());
  EXPECT_FALSE(parse_prefixed_count("active:0x1f", "active:").has_value());
  // Digit floods far past 20 digits must fail cleanly, not wrap.
  EXPECT_FALSE(
      parse_prefixed_count("active:999999999999999999999999999999", "active:").has_value());
  // Embedded NUL: the string continues after the terminator byte.
  EXPECT_FALSE(
      parse_prefixed_count(std::string("active:1\0""2", 10), "active:").has_value());
}

// Round-trip property over adversarial magnitudes: every canonical encoding
// parses back to itself, including both sides of each power-of-ten boundary
// and the uint64 edge.
TEST(ParsePrefixedCount, RoundTripsCanonicalEncodings) {
  std::vector<std::uint64_t> samples{0, 1, 9, 10, 11, 4294967295ull, 4294967296ull,
                                     18446744073709551614ull, 18446744073709551615ull};
  for (std::uint64_t p10 = 1; p10 < 10000000000000000000ull; p10 *= 10) {
    samples.push_back(p10 - 1);
    samples.push_back(p10);
    samples.push_back(p10 + 1);
  }
  for (const std::uint64_t v : samples) {
    const std::string body = "superstep:" + std::to_string(v);
    const auto parsed = parse_prefixed_count(body, "superstep:");
    ASSERT_TRUE(parsed.has_value()) << body;
    EXPECT_EQ(*parsed, v) << body;
  }
}

TEST(FaultPlan, ValidatesRates) {
  FaultPlan p;
  p.queue_op_failure_rate = 1.0;
  EXPECT_THROW(p.validate(), std::logic_error);
  p = {};
  p.vm_preemption_rate = -0.1;
  EXPECT_THROW(p.validate(), std::logic_error);
  p = {};
  p.straggler_slowdown = 0.5;
  EXPECT_THROW(p.validate(), std::logic_error);
  p = {};
  EXPECT_NO_THROW(p.validate());
}

TEST(RetryPolicy, ValidatesBounds) {
  RetryPolicy r;
  r.max_attempts = 0;
  EXPECT_THROW(r.validate(), std::logic_error);
  r = {};
  r.max_backoff = r.base_backoff / 2;
  EXPECT_THROW(r.validate(), std::logic_error);
  r = {};
  r.op_deadline = 0.0;
  EXPECT_THROW(r.validate(), std::logic_error);
  r = {};
  EXPECT_NO_THROW(r.validate());
}

TEST(FaultInjector, ZeroRateAttemptIsFree) {
  FaultInjector inj{FaultPlan{}};
  const RetryPolicy retry;
  for (int i = 0; i < 100; ++i) {
    const auto out = inj.attempt(FaultKind::kQueueOp, retry, 0.03);
    EXPECT_TRUE(out.success);
    EXPECT_EQ(out.attempts, 1u);
    EXPECT_EQ(out.faults, 0u);
    EXPECT_DOUBLE_EQ(out.extra_latency, 0.0);
  }
  // No RNG state consumed: the zero-rate path must not shift later draws.
  EXPECT_EQ(inj.draws(FaultKind::kQueueOp), 0u);
}

TEST(FaultInjector, DeterministicAcrossInstances) {
  FaultPlan p;
  p.queue_op_failure_rate = 0.3;
  p.blob_read_failure_rate = 0.2;
  FaultInjector a{p}, b{p};
  const RetryPolicy retry;
  for (int i = 0; i < 200; ++i) {
    const auto oa = a.attempt(FaultKind::kQueueOp, retry, 0.03);
    const auto ob = b.attempt(FaultKind::kQueueOp, retry, 0.03);
    EXPECT_EQ(oa.success, ob.success);
    EXPECT_EQ(oa.attempts, ob.attempts);
    EXPECT_DOUBLE_EQ(oa.extra_latency, ob.extra_latency);
  }
  EXPECT_EQ(a.draws(FaultKind::kQueueOp), b.draws(FaultKind::kQueueOp));
  // Kinds draw from independent streams: interleaving blob reads into `a`
  // only must not disturb subsequent queue draws.
  (void)a.attempt(FaultKind::kBlobRead, retry, 0.05);
  const auto oa = a.attempt(FaultKind::kQueueOp, retry, 0.03);
  const auto ob = b.attempt(FaultKind::kQueueOp, retry, 0.03);
  EXPECT_EQ(oa.attempts, ob.attempts);
  EXPECT_DOUBLE_EQ(oa.extra_latency, ob.extra_latency);
}

TEST(FaultInjector, RetriesMaskTransientFaults) {
  FaultPlan p;
  p.queue_op_failure_rate = 0.4;
  FaultInjector inj{p};
  RetryPolicy retry;
  retry.max_attempts = 10;
  std::uint64_t masked = 0, total_faults = 0;
  for (int i = 0; i < 500; ++i) {
    const auto out = inj.attempt(FaultKind::kQueueOp, retry, 0.03);
    EXPECT_TRUE(out.success);  // 0.4^10 residual: practically always masked
    total_faults += out.faults;
    if (out.faults > 0) {
      ++masked;
      EXPECT_GT(out.attempts, 1u);
      EXPECT_GT(out.extra_latency, 0.0);
    }
  }
  EXPECT_GT(masked, 100u);  // ~40% of ops should need at least one retry
  EXPECT_GT(total_faults, masked);
}

TEST(FaultInjector, ExhaustedRetriesFail) {
  FaultPlan p;
  p.queue_op_failure_rate = 0.999;
  FaultInjector inj{p};
  RetryPolicy retry;
  retry.max_attempts = 3;
  bool saw_failure = false;
  for (int i = 0; i < 50 && !saw_failure; ++i) {
    const auto out = inj.attempt(FaultKind::kQueueOp, retry, 0.03);
    if (!out.success) {
      saw_failure = true;
      EXPECT_EQ(out.attempts, retry.max_attempts);
      EXPECT_EQ(out.faults, retry.max_attempts);
      // 3 failed calls + 2 backoff sleeps >= 3 * latency + 2 * base.
      EXPECT_GE(out.extra_latency, 3 * 0.03 + 2 * retry.base_backoff);
    }
  }
  EXPECT_TRUE(saw_failure);
}

TEST(FaultInjector, BackoffRespectsDeadline) {
  FaultPlan p;
  p.blob_write_failure_rate = 0.999;
  FaultInjector inj{p};
  RetryPolicy retry;
  retry.max_attempts = 100;
  retry.base_backoff = 1.0;
  retry.max_backoff = 10.0;
  retry.op_deadline = 5.0;
  const auto out = inj.attempt(FaultKind::kBlobWrite, retry, 0.05);
  EXPECT_FALSE(out.success);
  // Abandoned soon after crossing the deadline, not after 100 attempts.
  EXPECT_LT(out.attempts, 100u);
  EXPECT_LE(out.extra_latency, retry.op_deadline + retry.max_backoff + 0.05);
}

TEST(FaultInjector, PreemptionDeterministicAndEpochKeyed) {
  FaultPlan p;
  p.vm_preemption_rate = 0.2;
  const FaultInjector inj{p};
  bool any = false, epoch_differs = false;
  for (std::uint32_t vm = 0; vm < 8; ++vm) {
    for (std::uint64_t s = 0; s < 50; ++s) {
      const bool hit = inj.vm_preempted(vm, s, 0);
      EXPECT_EQ(inj.vm_preempted(vm, s, 0), hit);  // pure function
      any = any || hit;
      if (hit != inj.vm_preempted(vm, s, 1)) epoch_differs = true;
    }
  }
  EXPECT_TRUE(any);
  // A replayed superstep redraws under the new epoch — otherwise a preempted
  // VM would be preempted forever at the same superstep.
  EXPECT_TRUE(epoch_differs);
  EXPECT_FALSE(FaultInjector{FaultPlan{}}.vm_preempted(0, 0, 0));
}

TEST(FaultInjector, StragglerFactorIsRateGated) {
  FaultPlan p;
  p.straggler_rate = 0.25;
  p.straggler_slowdown = 6.0;
  const FaultInjector inj{p};
  int slow = 0, fast = 0;
  for (std::uint32_t vm = 0; vm < 8; ++vm) {
    for (std::uint64_t s = 0; s < 100; ++s) {
      const double f = inj.straggler_factor(vm, s);
      EXPECT_DOUBLE_EQ(inj.straggler_factor(vm, s), f);
      if (f == 6.0)
        ++slow;
      else if (f == 1.0)
        ++fast;
      else
        FAIL() << "factor must be 1 or the configured slowdown, got " << f;
    }
  }
  EXPECT_GT(slow, 100);  // ~200 of 800 draws
  EXPECT_GT(fast, 400);
  EXPECT_DOUBLE_EQ(FaultInjector{FaultPlan{}}.straggler_factor(3, 7), 1.0);
}

TEST(QueueService, NamedQueuesIndependent) {
  QueueService s;
  s.queue("step").put("token");
  EXPECT_TRUE(s.has_queue("step"));
  EXPECT_FALSE(s.has_queue("barrier"));
  EXPECT_EQ(s.queue("barrier").visible_count(), 0u);
  EXPECT_EQ(s.queue("step").visible_count(), 1u);
  EXPECT_GE(s.total_ops(), 1u);
}

TEST(FixedScaling, AlwaysSame) {
  FixedScaling p(8);
  EXPECT_EQ(p.decide({}), 8u);
  EXPECT_EQ(p.name(), "fixed-8");
}

TEST(ActiveVertexScaling, ThresholdBehavior) {
  ActiveVertexScaling p(4, 8, 0.5);
  ScalingSignals s;
  s.total_vertices = 100;
  s.active_vertices = 60;
  EXPECT_EQ(p.decide(s), 8u);
  s.active_vertices = 50;
  EXPECT_EQ(p.decide(s), 8u);  // at threshold -> high
  s.active_vertices = 49;
  EXPECT_EQ(p.decide(s), 4u);
  s.total_vertices = 0;
  EXPECT_EQ(p.decide(s), 4u);  // no work signal -> low
}

TEST(ActiveVertexScaling, ValidatesArguments) {
  EXPECT_THROW(ActiveVertexScaling(0, 8), std::logic_error);
  EXPECT_THROW(ActiveVertexScaling(8, 4), std::logic_error);
  EXPECT_THROW(ActiveVertexScaling(4, 8, 1.5), std::logic_error);
}

TEST(OracleScaling, PicksFasterConfigPerSuperstep) {
  OracleScaling p(4, 8, {1.0, 5.0, 1.0}, {2.0, 2.0, 2.0});
  ScalingSignals s;
  s.superstep = 0;  // deciding for superstep 1: high (2.0 < 5.0)
  EXPECT_EQ(p.decide(s), 8u);
  s.superstep = 1;  // deciding for superstep 2: low (1.0 < 2.0)
  EXPECT_EQ(p.decide(s), 4u);
  s.superstep = 5;  // past the recording: low
  EXPECT_EQ(p.decide(s), 4u);
}

TEST(OracleScaling, RejectsMismatchedRecordings) {
  EXPECT_THROW(OracleScaling(4, 8, {1.0}, {1.0, 2.0}), std::logic_error);
}

}  // namespace
}  // namespace pregel::cloud
