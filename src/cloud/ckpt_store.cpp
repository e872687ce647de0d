#include "cloud/ckpt_store.hpp"

#include <algorithm>
#include <cstdio>
#include <span>
#include <stdexcept>

#include "util/crc32c.hpp"
#include "util/rng.hpp"

namespace pregel::cloud {

namespace {

std::uint32_t text_crc(const std::string& body) noexcept {
  return util::crc32c(std::as_bytes(std::span(body.data(), body.size())));
}

/// Sentinel partition id for manifest-rot draws (out of any leg's range).
constexpr std::uint32_t kManifestPartition = 0xFFFFFFFFu;
/// Copy ids: 0 = primary leg, 1 = replica leg, 2 = manifest.
constexpr std::uint32_t kManifestCopy = 2;

}  // namespace

void CkptOptions::validate() const {
  if (max_chain_length == 0)
    throw std::logic_error("CkptOptions: max_chain_length must be >= 1");
  if (retained_generations == 0)
    throw std::logic_error("CkptOptions: retained_generations must be >= 1");
}

Bytes CkptGeneration::total_bytes() const noexcept {
  Bytes total = 0;
  for (const CkptLeg& leg : legs) total += leg.bytes;
  return total;
}

std::string CkptGeneration::manifest_text() const {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "pregel-ckpt-manifest-v1 seq=%llu resume=%llu base=%u locv=%llu "
                "parent=%016llx legs=%zu\n",
                static_cast<unsigned long long>(seq),
                static_cast<unsigned long long>(resume_superstep),
                is_base ? 1u : 0u, static_cast<unsigned long long>(location_version),
                static_cast<unsigned long long>(chain_hash), legs.size());
  std::string body = buf;
  for (const CkptLeg& leg : legs) {
    std::snprintf(buf, sizeof buf, "%u %llu %u %u %u\n", leg.partition,
                  static_cast<unsigned long long>(leg.bytes), leg.home_vm,
                  leg.home_zone, leg.replica_zone);
    body += buf;
  }
  return body + "crc=" + std::to_string(text_crc(body)) + "\n";
}

void CkptStore::configure(const CkptOptions& opts, std::uint32_t partitions) {
  opts.validate();
  opts_ = opts;
  partitions_ = partitions;
  reset();
}

void CkptStore::reset() {
  chain_.clear();
  next_seq_ = 1;
  rounds_ = 0;
  deltas_since_base_ = 0;
}

void CkptStore::seed_initial(std::shared_ptr<CkptPayload> payload) {
  if (!chain_.empty() && chain_.front().seq == 0) return;
  CkptGeneration gen;
  gen.seq = 0;
  gen.resume_superstep = 0;
  gen.is_base = true;
  gen.payload = std::move(payload);
  chain_.insert(chain_.begin(), std::move(gen));
}

bool CkptStore::next_is_base(std::uint64_t location_version) const noexcept {
  if (!opts_.delta_enabled) return true;
  // Find the newest uploaded generation (gen 0 is the input graph, not a
  // delta parent): none yet -> the first upload is the base of the chain.
  if (chain_.empty() || chain_.back().seq == 0) return true;
  const CkptGeneration& newest = chain_.back();
  if (newest.location_version != location_version) return true;  // re-base after moves
  return deltas_since_base_ >= opts_.max_chain_length;
}

bool CkptStore::leg_scheduled(
    const std::vector<std::pair<std::uint64_t, std::uint32_t>>& sched,
    std::uint64_t key, std::uint32_t partition) const noexcept {
  for (const auto& [k, p] : sched)
    if (k == key && p == partition) return true;
  return false;
}

bool CkptStore::seq_scheduled(const std::vector<std::uint64_t>& sched,
                              std::uint64_t key) const noexcept {
  return std::find(sched.begin(), sched.end(), key) != sched.end();
}

CkptWriteOutcome CkptStore::write_generation(
    std::uint64_t resume_superstep, std::uint64_t location_version,
    const std::vector<Bytes>& leg_bytes, const std::vector<std::uint32_t>& home_vm,
    const std::vector<std::uint32_t>& home_zone, std::uint32_t zones,
    FaultInjector& faults) {
  const std::uint64_t round = rounds_++;
  CkptWriteOutcome out;
  out.is_base = next_is_base(location_version);

  CkptGeneration gen;
  gen.seq = next_seq_++;  // serials are never reused, even for lost rounds
  gen.resume_superstep = resume_superstep;
  gen.is_base = out.is_base;
  gen.location_version = location_version;
  gen.legs.reserve(partitions_);
  for (std::uint32_t p = 0; p < partitions_; ++p) {
    CkptLeg leg;
    leg.partition = p;
    leg.bytes = p < leg_bytes.size() ? leg_bytes[p] : 0;
    leg.home_vm = p < home_vm.size() ? home_vm[p] : 0;
    leg.home_zone = p < home_zone.size() ? home_zone[p] : 0;
    leg.replica_zone = zones > 1 ? (leg.home_zone + 1) % zones : leg.home_zone;
    // Phase one: the data leg upload. A torn ack is invisible now — the
    // client-side CRC goes into the manifest and the mismatch surfaces at
    // the next read of this blob.
    leg.torn = leg_scheduled(opts_.scheduled_leg_tears, round, p) || faults.next_ckpt_torn();
    if (leg.torn) ++out.torn_legs;
    out.bytes_written += leg.bytes;
    gen.legs.push_back(leg);
  }

  // Phase two: the manifest publish — the single atomic step that makes the
  // generation visible. A torn manifest loses the whole round: the previous
  // manifest stays the newest readable one and no half-written generation
  // can ever be observed.
  out.manifest_torn =
      seq_scheduled(opts_.scheduled_manifest_tears, round) || faults.next_ckpt_torn();
  if (out.manifest_torn) return out;

  const std::uint64_t parent_hash = chain_.empty() ? 0 : chain_.back().chain_hash;
  gen.chain_hash =
      mix64(parent_hash ^ (0x9E3779B97F4A7C15ULL *
                           (1 + static_cast<std::uint64_t>(text_crc(gen.manifest_text())))));
  deltas_since_base_ = gen.is_base ? 0 : deltas_since_base_ + 1;
  chain_.push_back(std::move(gen));
  out.published = true;

  // Retention GC: keep the newest `retained_generations` uploaded
  // generations plus everything their restore sets still need (the shared
  // base and intermediate deltas), plus the incorruptible generation 0.
  std::size_t first_real = 0;
  while (first_real < chain_.size() && chain_[first_real].seq == 0) ++first_real;
  const std::size_t real = chain_.size() - first_real;
  if (real > opts_.retained_generations) {
    const std::size_t oldest_kept = chain_.size() - opts_.retained_generations;
    const std::size_t needed_from = restore_set(oldest_kept).front();
    for (std::size_t i = first_real; i < needed_from; ++i) {
      ++out.gc_generations;
      out.gc_delete_ops += chain_[i].legs.size() + 1;  // legs + manifest
      if (chain_[i].replicated) out.gc_delete_ops += chain_[i].legs.size();
    }
    if (needed_from > first_real)
      chain_.erase(chain_.begin() + static_cast<std::ptrdiff_t>(first_real),
                   chain_.begin() + static_cast<std::ptrdiff_t>(needed_from));
  }
  return out;
}

void CkptStore::attach_payload(std::shared_ptr<CkptPayload> payload) {
  if (!chain_.empty()) chain_.back().payload = std::move(payload);
}

bool CkptStore::complete_replica_round(FaultInjector& faults) {
  if (chain_.empty() || chain_.back().seq == 0) return false;
  if (seq_scheduled(opts_.scheduled_replica_failures, rounds_ - 1)) return false;
  CkptGeneration& gen = chain_.back();
  for (CkptLeg& leg : gen.legs) leg.replica_torn = faults.next_ckpt_torn();
  gen.replicated = true;
  return true;
}

bool CkptStore::copy_ok(const CkptGeneration& gen, CkptLeg& leg, std::uint32_t copy,
                        FaultInjector& faults) const {
  if (copy == 0) {
    if (leg.torn || leg.rotted) return false;
    if ((leg.repairs == 0 &&
         leg_scheduled(opts_.scheduled_leg_rot, gen.seq, leg.partition)) ||
        faults.ckpt_rot(gen.seq, leg.partition, 0, leg.repairs)) {
      leg.rotted = true;
      return false;
    }
    return true;
  }
  if (leg.replica_torn || leg.replica_rotted) return false;
  if (faults.ckpt_rot(gen.seq, leg.partition, 1, leg.replica_repairs)) {
    leg.replica_rotted = true;
    return false;
  }
  return true;
}

std::vector<std::size_t> CkptStore::restore_set(std::size_t i) const {
  std::vector<std::size_t> members;
  std::size_t j = i;
  while (true) {
    members.push_back(j);
    if (chain_[j].is_base || j == 0) break;
    --j;
  }
  std::reverse(members.begin(), members.end());
  return members;
}

CkptRestoreSet CkptStore::restore_payloads(const std::vector<std::size_t>& members) const {
  CkptRestoreSet set;
  set.reserve(members.size());
  for (const std::size_t mi : members) set.push_back(chain_[mi].payload);
  return set;
}

CkptRestoreSet CkptStore::newest_restore_set() const {
  if (chain_.empty()) return {};
  return restore_payloads(restore_set(chain_.size() - 1));
}

std::optional<CkptRestorePlan> CkptStore::plan_restore(
    std::optional<std::uint32_t> lost_zone, FaultInjector& faults) {
  if (chain_.empty()) return std::nullopt;
  CkptRestorePlan plan;
  plan.partition_bytes.assign(partitions_, 0);

  for (std::size_t c = chain_.size(); c-- > 0;) {
    const std::vector<std::size_t> members = restore_set(c);
    bool ok = true;
    std::uint32_t replica_reads = 0;
    for (const std::size_t mi : members) {
      CkptGeneration& gen = chain_[mi];
      if (gen.seq != 0) {
        // Chain-hash verification of the member's manifest: a rotted
        // manifest fails for itself and every descendant whose chain
        // includes it.
        if (!gen.manifest_rotted &&
            ((gen.manifest_repairs == 0 &&
              seq_scheduled(opts_.scheduled_manifest_rot, gen.seq)) ||
             faults.ckpt_rot(gen.seq, kManifestPartition, kManifestCopy,
                             gen.manifest_repairs)))
          gen.manifest_rotted = true;
        if (gen.manifest_rotted) {
          ++plan.corrupt_manifests;
          ok = false;
          break;
        }
      }
      for (CkptLeg& leg : gen.legs) {
        const bool primary_here = !lost_zone || leg.home_zone != *lost_zone;
        const bool primary_good = copy_ok(gen, leg, 0, faults);
        if (primary_here && primary_good) continue;
        const bool replica_here =
            gen.replicated && (!lost_zone || leg.replica_zone != *lost_zone);
        if (replica_here && copy_ok(gen, leg, 1, faults)) {
          ++replica_reads;
          continue;
        }
        if (!primary_good || (replica_here && gen.replicated)) ++plan.corrupt_legs;
        ok = false;
        break;
      }
      if (!ok) break;
    }
    if (!ok) continue;

    const CkptGeneration& chosen = chain_[c];
    plan.seq = chosen.seq;
    plan.resume_superstep = chosen.resume_superstep;
    plan.fallback_depth = static_cast<std::uint32_t>(chain_.size() - 1 - c);
    plan.replica_reads = replica_reads;
    plan.initial = chosen.seq == 0;
    plan.payloads = restore_payloads(members);
    for (const std::size_t mi : members)
      for (const CkptLeg& leg : chain_[mi].legs)
        plan.partition_bytes[leg.partition] += leg.bytes;
    return plan;
  }
  return std::nullopt;  // unreachable once generation 0 is seeded
}

void CkptStore::truncate_after(std::uint64_t seq) {
  while (!chain_.empty() && chain_.back().seq > seq) chain_.pop_back();
  // Recompute the delta run length so re-basing stays on schedule while the
  // replay re-writes the truncated rounds.
  deltas_since_base_ = 0;
  for (std::size_t i = chain_.size(); i-- > 0;) {
    if (chain_[i].seq == 0 || chain_[i].is_base) break;
    ++deltas_since_base_;
  }
}

CkptScrubOutcome CkptStore::scrub(FaultInjector& faults) {
  CkptScrubOutcome out;
  for (CkptGeneration& gen : chain_) {
    if (gen.seq == 0) continue;
    if (!gen.manifest_rotted &&
        ((gen.manifest_repairs == 0 && seq_scheduled(opts_.scheduled_manifest_rot, gen.seq)) ||
         faults.ckpt_rot(gen.seq, kManifestPartition, kManifestCopy, gen.manifest_repairs)))
      gen.manifest_rotted = true;
    ++out.copies_verified;
    if (gen.manifest_rotted) {
      gen.manifest_rotted = false;  // rewritten from the in-memory truth
      ++gen.manifest_repairs;
      ++out.manifest_repairs;
    }
    for (CkptLeg& leg : gen.legs) {
      ++out.copies_verified;
      if (!copy_ok(gen, leg, 0, faults)) {
        leg.torn = false;
        leg.rotted = false;
        ++leg.repairs;
        ++out.repairs;
        out.repaired_bytes += leg.bytes;
      }
      if (gen.replicated) {
        ++out.copies_verified;
        if (!copy_ok(gen, leg, 1, faults)) {
          leg.replica_torn = false;
          leg.replica_rotted = false;
          ++leg.replica_repairs;
          ++out.repairs;
          out.repaired_bytes += leg.bytes;
        }
      }
    }
  }
  return out;
}

}  // namespace pregel::cloud
