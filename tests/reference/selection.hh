/**
 * @file
 * The paper's 30-configuration exploration assembled from the
 * reference oracles: map-walk features projected with on-the-fly
 * coefficients (reference/features.hh) and plain Lloyd clustering
 * (reference/kmeans.hh). Interval construction and SPI projection
 * are shared with production. core::exploreConfigs must reproduce it
 * bit for bit.
 */

#ifndef GT_REFERENCE_SELECTION_HH
#define GT_REFERENCE_SELECTION_HH

#include "core/explorer.hh"

namespace gt::reference
{

/** Same contract as core::exploreConfigs, with the 30
 * configurations evaluated one after another. */
core::Exploration
exploreConfigs(const core::TraceDatabase &db,
               const core::simpoint::ClusterOptions &options = {},
               uint64_t target_instrs = 0);

} // namespace gt::reference

#endif // GT_REFERENCE_SELECTION_HH
