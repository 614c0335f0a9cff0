#include "condor/ads.hpp"

#include "classad/parser.hpp"

namespace phisched::condor {

std::string per_device_memory_attr(DeviceId d) {
  return "PhiFreeMemory" + std::to_string(d);
}

std::string per_device_threads_attr(DeviceId d) {
  return "PhiFreeThreads" + std::to_string(d);
}

std::string per_device_generation_attr(DeviceId d) {
  return "PhiGeneration" + std::to_string(d);
}

std::string per_device_hw_threads_attr(DeviceId d) {
  return "PhiHwThreads" + std::to_string(d);
}

std::string per_device_total_memory_attr(DeviceId d) {
  return "PhiTotalMemory" + std::to_string(d);
}

std::string per_device_link_bw_attr(DeviceId d) {
  return "PhiLinkBandwidth" + std::to_string(d);
}

std::string per_device_mem_bw_attr(DeviceId d) {
  return "PhiMemBandwidth" + std::to_string(d);
}

std::string per_device_free_bw_attr(DeviceId d) {
  return "PhiFreeBandwidth" + std::to_string(d);
}

std::string machine_name(NodeId node) {
  return "node" + std::to_string(node);
}

std::string exclusive_requirements() {
  return "TARGET.PhiFreeDevices >= MY.RequestPhiDevices && "
         "TARGET.FreeSlots >= 1";
}

std::string sharing_requirements() {
  return "TARGET.PhiFreeMemory >= MY.RequestPhiMemory && "
         "TARGET.FreeSlots >= 1";
}

std::string arbitrary_requirements() { return "TARGET.FreeSlots >= 1"; }

std::string pinned_requirements(NodeId node) {
  return "TARGET.Name == \"" + machine_name(node) + "\" && " +
         sharing_requirements();
}

classad::ClassAd make_job_ad(const workload::JobSpec& job,
                             const std::string& requirements) {
  return make_job_ad(job, classad::parse(requirements));
}

classad::ClassAd make_job_ad(const workload::JobSpec& job,
                             classad::ExprPtr requirements) {
  classad::ClassAd ad;
  ad.insert_integer(kAttrJobId, static_cast<std::int64_t>(job.id));
  ad.insert_integer(kAttrRequestPhiMemory, job.mem_req_mib);
  ad.insert_integer(kAttrRequestPhiThreads, job.threads_req);
  ad.insert_integer(kAttrRequestPhiDevices, job.devices_req);
  if (job.mem_bw_mib_s > 0.0) {
    ad.insert_real(kAttrRequestPhiMemBandwidth, job.mem_bw_mib_s);
  }
  ad.insert(kAttrRequirements, std::move(requirements));
  return ad;
}

}  // namespace phisched::condor
