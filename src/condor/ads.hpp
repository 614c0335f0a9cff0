// ClassAd attribute conventions used by the mini-Condor pool.
//
// Machine (node) ads carry, in addition to identity, the Xeon Phi
// resources the paper has nodes advertise through micinfo (Section IV-D1):
// device count, free card memory, and free devices. Job ads carry the two
// user-declared requirements (memory, threads) plus the Requirements
// expression that gates matchmaking.
#pragma once

#include <string>

#include "classad/classad.hpp"
#include "common/types.hpp"
#include "workload/jobspec.hpp"

namespace phisched::condor {

// --- machine-ad attributes ---------------------------------------------------
inline constexpr const char* kAttrName = "Name";
inline constexpr const char* kAttrFreeSlots = "FreeSlots";
inline constexpr const char* kAttrTotalSlots = "TotalSlots";
inline constexpr const char* kAttrPhiDevices = "PhiDevices";
/// Largest unreserved memory over the node's devices (MiB).
inline constexpr const char* kAttrPhiFreeMemory = "PhiFreeMemory";
/// Devices with no resident job (exclusive-mode capacity).
inline constexpr const char* kAttrPhiFreeDevices = "PhiFreeDevices";
/// Hardware threads per device (240 on the paper's cards).
inline constexpr const char* kAttrPhiHwThreads = "PhiHwThreads";
/// Usable card memory per device (MiB) — the capacity the occupancy
/// thresholds of the batched strategy are fractions of.
inline constexpr const char* kAttrPhiTotalMemory = "PhiTotalMemory";
/// Run-length device spec of the node's fleet ("2x5110P+2x7120P");
/// "5110P" repeated per card on the homogeneous default.
inline constexpr const char* kAttrPhiGenerations = "PhiGenerations";
/// Per-device unreserved memory: PhiFreeMemory0, PhiFreeMemory1, ...
[[nodiscard]] std::string per_device_memory_attr(DeviceId d);
/// Per-device unreserved (declared) threads: PhiFreeThreads0, ...
[[nodiscard]] std::string per_device_threads_attr(DeviceId d);
/// Per-device generation name: PhiGeneration0 = "5110P", ...
[[nodiscard]] std::string per_device_generation_attr(DeviceId d);
/// Per-device hardware threads: PhiHwThreads0, ... (may differ per card
/// on heterogeneous nodes; the node-level PhiHwThreads is the max).
[[nodiscard]] std::string per_device_hw_threads_attr(DeviceId d);
/// Per-device usable memory (MiB): PhiTotalMemory0, ...
[[nodiscard]] std::string per_device_total_memory_attr(DeviceId d);
/// Per-device PCIe link bandwidth (MiB/s): PhiLinkBandwidth0, ...
[[nodiscard]] std::string per_device_link_bw_attr(DeviceId d);
/// Per-device aggregate memory bandwidth (MiB/s): PhiMemBandwidth0, ...
[[nodiscard]] std::string per_device_mem_bw_attr(DeviceId d);
/// Per-device unreserved bandwidth budget (MiB/s): PhiFreeBandwidth0, ...
/// Published only when the bandwidth-contention model is on.
[[nodiscard]] std::string per_device_free_bw_attr(DeviceId d);

// --- job-ad attributes --------------------------------------------------------
inline constexpr const char* kAttrJobId = "JobId";
inline constexpr const char* kAttrRequestPhiMemory = "RequestPhiMemory";
inline constexpr const char* kAttrRequestPhiThreads = "RequestPhiThreads";
inline constexpr const char* kAttrRequestPhiDevices = "RequestPhiDevices";
/// Declared memory-bandwidth share (MiB/s); present only when the job
/// declared one, so two-number paper jobs keep byte-identical ads.
inline constexpr const char* kAttrRequestPhiMemBandwidth =
    "RequestPhiMemBandwidth";
inline constexpr const char* kAttrRequirements = "Requirements";
/// Set by the sharing-aware add-on: device index the job must use.
inline constexpr const char* kAttrPinnedDevice = "PinnedDevice";
/// Set by the add-on on every pin (single-device and gang): the chosen
/// node's name. Marks the ad as carrying a live scheduling decision.
inline constexpr const char* kAttrPinnedNode = "PinnedNode";
/// Optional job priority (higher first; default 0). Jobs of equal
/// priority keep FIFO order, as in Condor.
inline constexpr const char* kAttrJobPrio = "JobPrio";

/// Canonical machine name for a node ("node0", "node1", ...).
[[nodiscard]] std::string machine_name(NodeId node);

/// Requirements for the exclusive-allocation policy (MC): the job needs a
/// whole free coprocessor.
[[nodiscard]] std::string exclusive_requirements();

/// Requirements for sharing configurations where a cluster-level scheduler
/// verifies capacity (the add-on's pinned jobs): the advertised free card
/// memory must cover the declaration.
[[nodiscard]] std::string sharing_requirements();

/// Requirements for plain Condor+COSMIC sharing (MCC): any node with a
/// free slot. The paper: "jobs are packed arbitrarily to Xeon Phi
/// coprocessors and COSMIC prevents them from oversubscribing memory and
/// threads" — the cluster level does not consider coprocessor capacity.
[[nodiscard]] std::string arbitrary_requirements();

/// Requirements pinning a job to one node (the add-on's qedit), keeping
/// the memory guard.
[[nodiscard]] std::string pinned_requirements(NodeId node);

/// Builds a job ad from a JobSpec with the given Requirements source.
[[nodiscard]] classad::ClassAd make_job_ad(const workload::JobSpec& job,
                                           const std::string& requirements);

/// Same, sharing an already parsed Requirements tree: jobs built from one
/// tree skip the parse and group into one autocluster cheaply.
[[nodiscard]] classad::ClassAd make_job_ad(const workload::JobSpec& job,
                                           classad::ExprPtr requirements);

}  // namespace phisched::condor
