#include "reference/selection.hh"

#include "reference/features.hh"
#include "reference/kmeans.hh"

namespace gt::reference
{

core::Exploration
exploreConfigs(const core::TraceDatabase &db,
               const core::simpoint::ClusterOptions &options,
               uint64_t target_instrs)
{
    core::Exploration ex;
    for (int s = 0; s < core::numIntervalSchemes; ++s) {
        for (int f = 0; f < core::numFeatureKinds; ++f) {
            core::SubsetSelection sel;
            sel.scheme = (core::IntervalScheme)s;
            sel.feature = (core::FeatureKind)f;
            sel.intervals =
                core::buildIntervals(db, sel.scheme, target_instrs);

            std::vector<double> weights;
            for (const core::Interval &iv : sel.intervals)
                weights.push_back(
                    std::max<double>(1.0, (double)iv.instrs));
            core::simpoint::Clustering clustering = lloydClusterPoints(
                projectAllMap(db, sel.intervals, sel.feature), weights,
                options);

            sel.selected = clustering.representative;
            sel.ratios = clustering.weight;
            sel.clusterStats = clustering.stats;
            sel.totalInstrs = db.totalInstrs();
            for (uint64_t idx : sel.selected)
                sel.selectedInstrs += sel.intervals[idx].instrs;

            core::ConfigResult r;
            r.errorPct = core::selectionErrorPct(db, sel);
            r.selection = std::move(sel);
            ex.results.push_back(std::move(r));
        }
    }
    return ex;
}

} // namespace gt::reference
