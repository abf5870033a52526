/**
 * @file
 * Map-walk feature extraction: the bitwise oracle for
 * core::FeatureEngine.
 *
 * The original extraction path: every interval re-walks its dispatch
 * profiles into an ordered std::map, and projection derives each
 * coefficient on the fly. The engine's columnar lowering, memoized
 * projection table and direct projection must match it bit for bit
 * (tests/test_feature_engine.cc).
 */

#ifndef GT_REFERENCE_FEATURES_HH
#define GT_REFERENCE_FEATURES_HH

#include "core/simpoint.hh"

namespace gt::reference
{

/** Walk @p interval's dispatch profiles into an ordered map and
 * return its (unnormalized) @p kind vector. */
core::FeatureVector extractFeaturesMap(const core::TraceDatabase &db,
                                       const core::Interval &interval,
                                       core::FeatureKind kind);

/** Normalized map-walk vectors of every interval. */
std::vector<core::FeatureVector>
extractAllMap(const core::TraceDatabase &db,
              const std::vector<core::Interval> &intervals,
              core::FeatureKind kind);

/** Map-walk vectors, normalized and projected with on-the-fly
 * coefficients. */
std::vector<core::simpoint::Point>
projectAllMap(const core::TraceDatabase &db,
              const std::vector<core::Interval> &intervals,
              core::FeatureKind kind);

} // namespace gt::reference

#endif // GT_REFERENCE_FEATURES_HH
