#include "core/permute.hpp"

#include <algorithm>
#include <cassert>

namespace igcn {

std::vector<NodeId>
islandizationOrder(const IslandizationResult &isl)
{
    const NodeId n = static_cast<NodeId>(isl.role.size());
    std::vector<NodeId> order;
    order.reserve(n);

    // Hubs grouped by detection round.
    std::vector<std::vector<NodeId>> hubs_by_round(isl.numRounds + 1);
    for (NodeId v = 0; v < n; ++v)
        if (isl.role[v] == NodeRole::Hub)
            hubs_by_round[isl.hubRound[v]].push_back(v);

    // Islands grouped by discovery round, discovery order preserved.
    std::vector<std::vector<size_t>> islands_by_round(isl.numRounds + 1);
    for (size_t i = 0; i < isl.islands.size(); ++i)
        islands_by_round[isl.islands[i].round].push_back(i);

    for (int r = 1; r <= isl.numRounds; ++r) {
        for (NodeId h : hubs_by_round[r])
            order.push_back(h);
        for (size_t i : islands_by_round[r])
            for (NodeId v : isl.islands[i].nodes)
                order.push_back(v);
    }
    assert(order.size() == n);

    std::vector<NodeId> perm(n);
    for (NodeId pos = 0; pos < n; ++pos)
        perm[order[pos]] = pos;
    return perm;
}

std::vector<double>
renderDensityGrid(const CsrGraph &g, const std::vector<NodeId> &perm,
                  int grid_size)
{
    std::vector<double> grid(static_cast<size_t>(grid_size) * grid_size,
                             0.0);
    const double scale = static_cast<double>(grid_size) / g.numNodes();
    for (NodeId u = 0; u < g.numNodes(); ++u) {
        int gr = std::min(grid_size - 1,
                          static_cast<int>(perm[u] * scale));
        for (NodeId v : g.neighbors(u)) {
            int gc = std::min(grid_size - 1,
                              static_cast<int>(perm[v] * scale));
            grid[static_cast<size_t>(gr) * grid_size + gc] += 1.0;
        }
    }
    double max_v = 0.0;
    for (double v : grid)
        max_v = std::max(max_v, v);
    if (max_v > 0.0)
        for (double &v : grid)
            v /= max_v;
    return grid;
}

std::string
asciiDensityPlot(const std::vector<double> &grid, int grid_size)
{
    static const char shades[] = {' ', '.', ':', '*', '#'};
    std::string out;
    out.reserve(static_cast<size_t>(grid_size) * (grid_size + 1));
    for (int r = 0; r < grid_size; ++r) {
        for (int c = 0; c < grid_size; ++c) {
            // Serial plotting code, not a kernel reduction.
            // igcn-lint: allow(no-mixed-accumulation)
            double v = grid[static_cast<size_t>(r) * grid_size + c];
            int level = v <= 0.0 ? 0
                      : v < 0.02 ? 1
                      : v < 0.10 ? 2
                      : v < 0.40 ? 3 : 4;
            out.push_back(shades[level]);
        }
        out.push_back('\n');
    }
    return out;
}

ClusterCoverage
classifyCoverage(const CsrGraph &g, const IslandizationResult &isl)
{
    ClusterCoverage cov;
    for (NodeId u = 0; u < g.numNodes(); ++u) {
        const bool u_hub = isl.role[u] == NodeRole::Hub;
        for (NodeId v : g.neighbors(u)) {
            cov.total++;
            const bool v_hub = isl.role[v] == NodeRole::Hub;
            if (u_hub || v_hub) {
                cov.inHubLShape++;
            } else if (isl.islandOf[u] == isl.islandOf[v]) {
                cov.inIslandBlock++;
            } else {
                cov.outliers++;
            }
        }
    }
    return cov;
}

} // namespace igcn
