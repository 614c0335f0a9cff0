#include "core/addon.hpp"

#include <algorithm>

#include "classad/parser.hpp"
#include "common/check.hpp"

namespace phisched::core {

namespace {

/// One pending job's declared requirements, from the schedd's cache.
PendingJobView job_view(const condor::JobRecord& rec) {
  const condor::JobRequests& r = rec.requests();
  PendingJobView v;
  v.id = rec.id;
  v.mem_req_mib = r.memory_mib;
  v.threads_req = r.threads;
  v.devices_req = r.devices;
  v.bw_req = r.bandwidth;
  return v;
}

}  // namespace

SharingAwareScheduler::SharingAwareScheduler(
    condor::Schedd& schedd, condor::Collector& collector,
    std::unique_ptr<AssignmentPolicy> policy, AddonConfig config)
    : schedd_(schedd),
      collector_(collector),
      policy_(std::move(policy)),
      config_(config) {
  PHISCHED_REQUIRE(policy_ != nullptr, "SharingAwareScheduler: null policy");
}

const SharingAwareScheduler::DeviceAttrs& SharingAwareScheduler::device_attrs(
    DeviceId d) {
  const auto i = static_cast<std::size_t>(d);
  while (device_attrs_.size() <= i) {
    const auto next = static_cast<DeviceId>(device_attrs_.size());
    device_attrs_.push_back(DeviceAttrs{
        condor::per_device_memory_attr(next),
        condor::per_device_hw_threads_attr(next),
        condor::per_device_free_bw_attr(next),
        condor::per_device_threads_attr(next)});
  }
  return device_attrs_[i];
}

std::vector<DeviceView> SharingAwareScheduler::device_views(
    const std::vector<const condor::JobRecord*>& pinned_pending) {
  std::vector<DeviceView> views;
  // The collector's shared ads, read in place.
  for (const auto& [node, shared] : collector_.machine_ads()) {
    const classad::ClassAd& ad = *shared;
    const auto device_count =
        ad.eval_integer(condor::kAttrPhiDevices).value_or(0);
    const auto node_hw_threads = static_cast<ThreadCount>(
        ad.eval_integer(condor::kAttrPhiHwThreads).value_or(240));
    for (DeviceId d = 0; d < device_count; ++d) {
      const DeviceAttrs& attrs = device_attrs(d);
      DeviceView v;
      v.addr = DeviceAddress{node, d};
      v.free_memory_mib = ad.eval_integer(attrs.memory).value_or(0);
      // Heterogeneous fleets advertise each card's geometry; homogeneous
      // ads carry the same value at both levels, so the fallback is the
      // legacy behaviour exactly.
      const auto hw_threads = static_cast<ThreadCount>(
          ad.eval_integer(attrs.hw_threads).value_or(node_hw_threads));
      v.hw_threads = hw_threads;
      if (config_.bandwidth_aware) {
        // Absent (contention model off) means unconstrained (-1).
        v.bw_budget = ad.eval_real(attrs.free_bw).value_or(-1.0);
      }
      if (config_.deduct_resident_threads) {
        // PhiFreeThreads = hw - resident declared threads (may be
        // negative when packs have stacked up).
        const auto free_threads = static_cast<ThreadCount>(
            ad.eval_integer(attrs.threads).value_or(hw_threads));
        const ThreadCount resident = hw_threads - free_threads;
        const auto budget = static_cast<ThreadCount>(
            static_cast<double>(hw_threads) * config_.thread_overcommit) -
                            resident;
        v.thread_budget = std::max<ThreadCount>(0, budget);
      } else {
        v.thread_budget = hw_threads;
      }
      views.push_back(v);
    }
  }

  // In-flight pins: pinned jobs not yet dispatched still consume capacity.
  for (const condor::JobRecord* rec : pinned_pending) {
    const auto pin = pins_.find(rec->id);
    PHISCHED_CHECK(pin != pins_.end(), "pinned_pending without a pin");
    const PendingJobView jv = job_view(*rec);
    if (pin->second.device >= 0) {
      for (DeviceView& v : views) {
        if (v.addr == pin->second) {
          v.free_memory_mib =
              std::max<MiB>(0, v.free_memory_mib - jv.mem_req_mib);
          if (config_.deduct_resident_threads) {
            v.thread_budget =
                std::max<ThreadCount>(0, v.thread_budget - jv.threads_req);
          }
          if (v.bw_budget >= 0.0) {
            v.bw_budget = std::max(0.0, v.bw_budget - jv.bw_req);
          }
          break;
        }
      }
    } else {
      // Node-level gang pin: charge the devices_req most-free devices of
      // that node (COSMIC will pick some such set at admission).
      std::vector<DeviceView*> node_views;
      for (DeviceView& v : views) {
        if (v.addr.node == pin->second.node) node_views.push_back(&v);
      }
      std::stable_sort(node_views.begin(), node_views.end(),
                       [](const DeviceView* a, const DeviceView* b) {
                         return a->free_memory_mib > b->free_memory_mib;
                       });
      const auto k = std::min<std::size_t>(
          node_views.size(), static_cast<std::size_t>(jv.devices_req));
      for (std::size_t i = 0; i < k; ++i) {
        node_views[i]->free_memory_mib =
            std::max<MiB>(0, node_views[i]->free_memory_mib - jv.mem_req_mib);
      }
    }
  }
  return views;
}

const classad::ExprPtr& SharingAwareScheduler::pinned_requirements(
    NodeId node) {
  const auto i = static_cast<std::size_t>(node);
  if (i >= pinned_requirements_.size()) pinned_requirements_.resize(i + 1);
  classad::ExprPtr& tree = pinned_requirements_[i];
  if (tree == nullptr) tree = classad::parse(condor::pinned_requirements(node));
  return tree;
}

void SharingAwareScheduler::pre_cycle() {
  ++stats_.runs;

  const std::vector<JobId> pending_ids = schedd_.pending();

  // Keep pins only for jobs still pending AND whose ad still carries our
  // edit; everything else has dispatched (its reservation now shows in
  // the machine ads), finished, or was requeued with a fresh ad (a
  // retried job must be re-packed from scratch).
  std::map<JobId, DeviceAddress> live_pins;
  std::vector<const condor::JobRecord*> pinned_pending;
  std::vector<PendingJobView> unpinned;
  for (JobId id : pending_ids) {
    const condor::JobRecord& rec = schedd_.record(id);
    auto it = pins_.find(id);
    if (it != pins_.end() && rec.ad.has(condor::kAttrPinnedNode)) {
      live_pins.emplace(id, it->second);
      pinned_pending.push_back(&rec);
    } else {
      unpinned.push_back(job_view(rec));
    }
  }
  pins_ = std::move(live_pins);

  if (unpinned.empty()) return;

  if (config_.duration_oracle) {
    for (PendingJobView& view : unpinned) {
      view.expected_duration = config_.duration_oracle(view.id);
    }
  }

  std::vector<DeviceView> views = device_views(pinned_pending);

  auto publish_pin = [&](JobId job, NodeId node,
                         std::optional<DeviceId> device) {
    schedd_.qedit(job, condor::kAttrRequirements, pinned_requirements(node));
    schedd_.qedit(job, condor::kAttrPinnedNode,
                  classad::make_literal(
                      classad::Value::string(condor::machine_name(node))));
    if (device.has_value()) {
      schedd_.qedit(job, condor::kAttrPinnedDevice,
                    classad::make_literal(classad::Value::integer(*device)));
    }
    pins_.emplace(job, DeviceAddress{node, device.value_or(-1)});
    ++stats_.pins;
  };

  // Gang pre-pass: multi-device jobs need `devices_req` coprocessors on
  // ONE node simultaneously; place them first-fit on the node with
  // enough per-device headroom, then let the per-device policy pack the
  // single-device jobs into what remains. COSMIC chooses the concrete
  // gang members at admission.
  std::vector<PendingJobView> singles;
  for (const PendingJobView& job : unpinned) {
    if (job.devices_req <= 1) {
      singles.push_back(job);
      continue;
    }
    // Group device views by node and count fitting devices.
    std::map<NodeId, std::vector<DeviceView*>> by_node;
    for (DeviceView& v : views) by_node[v.addr.node].push_back(&v);
    bool placed = false;
    for (auto& [node, node_views] : by_node) {
      std::stable_sort(node_views.begin(), node_views.end(),
                       [](const DeviceView* a, const DeviceView* b) {
                         return a->free_memory_mib > b->free_memory_mib;
                       });
      if (node_views.size() < static_cast<std::size_t>(job.devices_req) ||
          node_views[static_cast<std::size_t>(job.devices_req) - 1]
                  ->free_memory_mib < job.mem_req_mib) {
        continue;
      }
      for (int k = 0; k < job.devices_req; ++k) {
        node_views[static_cast<std::size_t>(k)]->free_memory_mib -=
            job.mem_req_mib;
      }
      publish_pin(job.id, node, std::nullopt);
      placed = true;
      break;
    }
    (void)placed;  // unplaced gangs simply wait for a later cycle
  }

  const std::vector<Assignment> assignments = policy_->assign(singles, views);

  // Publish decisions through qedit only — the transparent integration.
  for (const Assignment& a : assignments) {
    publish_pin(a.job, a.device.node, a.device.device);
  }
}

}  // namespace phisched::core
