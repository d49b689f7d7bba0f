// Copyright 2026 The pkgstream Authors.
// Isolated replays of single layers of the injector side, for the ledger:
// each call times one layer alone on the workload's own keys and returns
// the median ns per key over a few repetitions.
#ifndef PKGSTREAM_PERFBENCH_LAYERS_H_
#define PKGSTREAM_PERFBENCH_LAYERS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "partition/factory.h"

namespace perfbench {

/// HashFamily::BucketBatch over `keys`, all `d` members per key.
double HashNsPerKey(const std::vector<pkgstream::Key>& keys, uint32_t d,
                    uint32_t workers);

/// Partitioner::RouteBatch over `keys` on a fresh replica of `config`,
/// in batches of the benchmark's inject size.
double RouteNsPerMsg(const pkgstream::partition::PartitionerConfig& config,
                     const std::vector<pkgstream::Key>& keys);

/// Two pinned threads moving `messages` ring slots ({engine::Message, bool},
/// the engine's slot layout) through `rings` SpscRings of the engine's
/// default capacity: the producer publishes emit-batch-sized groups round
/// robin, the consumer sweeps the rings in pop batches.
double RingNsPerMsg(size_t rings, uint64_t messages);

}  // namespace perfbench

#endif  // PKGSTREAM_PERFBENCH_LAYERS_H_
