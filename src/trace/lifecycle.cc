#include "trace/lifecycle.hh"

#include <algorithm>

#include "common/log.hh"

namespace bigtiny::trace
{

uint64_t
LatencyHist::percentile(uint64_t num, uint64_t den) const
{
    if (!count)
        return 0;
    uint64_t rank = (count * num + den - 1) / den;
    if (!rank)
        rank = 1;
    if (rank > count)
        rank = count;
    uint64_t cum = 0;
    for (int b = 0; b < numBuckets; ++b) {
        cum += buckets[b];
        if (cum >= rank)
            return std::min(bucketHi(b), maxV);
    }
    return maxV;
}

LifecycleTracker::LifecycleTracker(int num_clusters)
    : numCl(num_clusters),
      heatmap(static_cast<size_t>(num_clusters) * num_clusters, 0)
{
    panic_if(num_clusters < 1, "LifecycleTracker with %d clusters",
             num_clusters);
}

void
LifecycleTracker::onFinish(uint64_t task, Cycle now)
{
    TaskRec *r = rec(task);
    if (!r)
        return;
    if (r->enqueued != noCycle)
        sojournH.add(now - r->enqueued);
    execH.add(now - r->started);
}

void
LifecycleTracker::onSteal(int src, int dst)
{
    ++heatmap[static_cast<size_t>(src) * numCl + dst];
    if (src == dst)
        ++localSteals;
    else
        ++remoteSteals;
}

} // namespace bigtiny::trace
