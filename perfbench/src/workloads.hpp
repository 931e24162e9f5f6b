#pragma once
/// \file workloads.hpp
/// The four benchmark workloads. Each runs closed-loop for
/// Options::seconds, checks its outputs, and fills a Report: the
/// end-to-end metrics when untraced, the per-layer metrics when traced.

#include <string>

#include "common.hpp"

namespace perfbench {

/// campaign-gauss / campaign-rand: run_campaign in target-count mode.
[[nodiscard]] Report run_campaign_workload(const Options& options,
                                           const std::string& strategy,
                                           std::size_t dim);

/// fleet-sim: SimFleet with the durable coordinator on SimDisk.
[[nodiscard]] Report run_fleet_workload(const Options& options);

/// serve-mmap: MappedModel::predict_batch over a seeded query corpus.
[[nodiscard]] Report run_serve_workload(const Options& options);

}  // namespace perfbench
