#include "cluster/node.hpp"

#include <algorithm>
#include <bit>

#include "classad/parser.hpp"
#include "common/check.hpp"
#include "condor/ads.hpp"

namespace phisched::cluster {

Node::Node(Simulator& sim, NodeId id, NodeConfig config, Rng rng)
    : sim_(sim), id_(id), config_(std::move(config)) {
  if (!config_.devices.empty()) {
    config_.hw.phi_devices = static_cast<int>(config_.devices.size());
  }
  PHISCHED_REQUIRE(config_.hw.phi_devices > 0, "Node: need at least one device");
  PHISCHED_REQUIRE(config_.hw.slots > 0, "Node: need at least one slot");
  config_.device.hw = config_.hw.phi;

  std::vector<phi::Device*> raw;
  for (DeviceId d = 0; d < config_.hw.phi_devices; ++d) {
    phi::DeviceConfig dc = config_.device;
    if (!config_.devices.empty()) {
      const auto& cap = config_.devices[static_cast<std::size_t>(d)];
      dc.hw = cap.hw;
      dc.capability = cap;
      dc.pcie.bandwidth_mib_s = cap.link_bandwidth_mib_s;
    }
    auto dev = std::make_unique<phi::Device>(
        sim_, dc, rng.child("device" + std::to_string(d)),
        "mic" + std::to_string(d) + "@" + condor::machine_name(id_));
    raw.push_back(dev.get());
    devices_.push_back(std::move(dev));
  }
  if (config_.pcie_switch.enabled) {
    PHISCHED_REQUIRE(config_.device.pcie.contention,
                     "Node: pcie_switch requires pcie contention enabled");
    pcie_switch_ = std::make_unique<phi::PcieSwitch>(
        sim_, config_.pcie_switch,
        "pcie_switch@" + condor::machine_name(id_));
    for (phi::Device* dev : raw) pcie_switch_->add_link(dev->pcie_link());
  }
  middleware_ =
      std::make_unique<cosmic::NodeMiddleware>(sim_, raw, config_.middleware);
}

phi::Device& Node::device(DeviceId d) {
  PHISCHED_REQUIRE(d >= 0 && static_cast<std::size_t>(d) < devices_.size(),
                   "Node: bad device id");
  return *devices_[static_cast<std::size_t>(d)];
}

const phi::Device& Node::device(DeviceId d) const {
  PHISCHED_REQUIRE(d >= 0 && static_cast<std::size_t>(d) < devices_.size(),
                   "Node: bad device id");
  return *devices_[static_cast<std::size_t>(d)];
}

void Node::claim_slot() {
  PHISCHED_REQUIRE(free_slots() > 0, "Node: no free slots");
  ++busy_slots_;
}

void Node::release_slot() {
  PHISCHED_REQUIRE(busy_slots_ > 0, "Node: releasing an unclaimed slot");
  --busy_slots_;
}

int Node::free_exclusive_devices() const {
  int n = 0;
  for (DeviceId d = 0; d < device_count(); ++d) {
    if (middleware_->jobs_on_device(d) == 0) ++n;
  }
  return n;
}

std::optional<DeviceId> Node::pick_exclusive_device() const {
  for (DeviceId d = 0; d < device_count(); ++d) {
    if (middleware_->jobs_on_device(d) == 0) return d;
  }
  return std::nullopt;
}

void Node::ad_key(std::vector<std::int64_t>& key) const {
  key.clear();
  key.push_back(free_slots());
  for (DeviceId d = 0; d < device_count(); ++d) {
    key.push_back(middleware_->jobs_on_device(d) == 0 ? 1 : 0);
    key.push_back(middleware_->unreserved_memory(d));
    key.push_back(middleware_->unreserved_threads(d));
    if (device(d).mem_bw_budget() >= 0.0) {
      key.push_back(
          std::bit_cast<std::int64_t>(middleware_->unreserved_bandwidth(d)));
    }
  }
}

std::shared_ptr<const classad::ClassAd> Node::shared_machine_ad() const {
  ad_key(scratch_key_);
  if (ad_ == nullptr || scratch_key_ != ad_key_) {
    ad_ = std::make_shared<const classad::ClassAd>(build_machine_ad());
    ad_key_.swap(scratch_key_);
  }
  // A cached ad must equal a fresh build: an advertised input missing
  // from ad_key() would serve stale state.
  PHISCHED_DCHECK(ad_->to_string() == build_machine_ad().to_string(),
                  "Node ", id_, ": memoized machine ad is stale");
  return ad_;
}

classad::ClassAd Node::build_machine_ad() const {
  classad::ClassAd ad;
  ad.insert_string(condor::kAttrName, condor::machine_name(id_));
  ad.insert_integer(condor::kAttrTotalSlots, total_slots());
  ad.insert_integer(condor::kAttrFreeSlots, free_slots());
  ad.insert_integer(condor::kAttrPhiDevices, device_count());
  // Node-level geometry is the max over the fleet so existing
  // Requirements stay satisfiable on mixed nodes; per-device attributes
  // below carry the exact per-card numbers.
  ThreadCount max_hw_threads = 0;
  MiB max_usable = 0;
  std::vector<phi::DeviceCapability> caps;
  for (DeviceId d = 0; d < device_count(); ++d) {
    const phi::DeviceCapability& cap = device(d).capability();
    max_hw_threads = std::max(max_hw_threads, cap.hw.hw_threads());
    max_usable = std::max(max_usable, cap.hw.usable_memory_mib());
    caps.push_back(cap);
  }
  ad.insert_integer(condor::kAttrPhiHwThreads, max_hw_threads);
  ad.insert_integer(condor::kAttrPhiTotalMemory, max_usable);
  ad.insert_string(condor::kAttrPhiGenerations,
                   phi::device_spec_to_string(caps));
  ad.insert_integer(condor::kAttrPhiFreeDevices, free_exclusive_devices());

  MiB best_free = 0;
  for (DeviceId d = 0; d < device_count(); ++d) {
    const MiB free = middleware_->unreserved_memory(d);
    best_free = std::max(best_free, free);
    ad.insert_integer(condor::per_device_memory_attr(d), free);
    // May go negative when declared threads stack beyond the hardware
    // budget; schedulers need the raw value to account residents.
    ad.insert_integer(condor::per_device_threads_attr(d),
                      middleware_->unreserved_threads(d));
    const phi::DeviceCapability& cap = caps[static_cast<std::size_t>(d)];
    ad.insert_string(condor::per_device_generation_attr(d), cap.generation);
    ad.insert_integer(condor::per_device_hw_threads_attr(d),
                      cap.hw.hw_threads());
    ad.insert_integer(condor::per_device_total_memory_attr(d),
                      cap.hw.usable_memory_mib());
    ad.insert_real(condor::per_device_link_bw_attr(d),
                   cap.link_bandwidth_mib_s);
    ad.insert_real(condor::per_device_mem_bw_attr(d), cap.mem_bandwidth_mib_s);
    // Published raw (possibly negative under oversubscription) whenever
    // the contention model is on; absent when it is off.
    if (device(d).mem_bw_budget() >= 0.0) {
      ad.insert_real(condor::per_device_free_bw_attr(d),
                     middleware_->unreserved_bandwidth(d));
    }
  }
  ad.insert_integer(condor::kAttrPhiFreeMemory, best_free);
  // Parsed once; every machine ad shares the tree.
  static const classad::ExprPtr kRequirements =
      classad::parse("MY.FreeSlots >= 1");
  ad.insert(condor::kAttrRequirements, kRequirements);
  return ad;
}

}  // namespace phisched::cluster
