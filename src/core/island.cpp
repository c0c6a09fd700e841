#include "core/island.hpp"

namespace igcn {

void
IslandTable::append(std::span<const NodeId> nodes,
                    std::span<const NodeId> hubs, int round,
                    EdgeId edges_scanned)
{
    memberIdx.insert(memberIdx.end(), nodes.begin(), nodes.end());
    memberPtr.push_back(memberIdx.size());
    hubIdx.insert(hubIdx.end(), hubs.begin(), hubs.end());
    hubPtr.push_back(hubIdx.size());
    rounds.push_back(round);
    scanned.push_back(edges_scanned);
}

void
IslandTable::appendIslands(const IslandTable &src, size_t first,
                           size_t last)
{
    if (first >= last)
        return;
    // One run of offsets, rebased from src's position to ours.
    const auto copyRun = [first, last](const std::vector<EdgeId> &ptr,
                                       const std::vector<NodeId> &idx,
                                       std::vector<EdgeId> &out_ptr,
                                       std::vector<NodeId> &out_idx) {
        const EdgeId from = ptr[first];
        const EdgeId base = out_idx.size();
        out_idx.insert(out_idx.end(), idx.data() + from,
                       idx.data() + ptr[last]);
        for (size_t i = first + 1; i <= last; ++i)
            out_ptr.push_back(ptr[i] - from + base);
    };
    copyRun(src.memberPtr, src.memberIdx, memberPtr, memberIdx);
    copyRun(src.hubPtr, src.hubIdx, hubPtr, hubIdx);
    rounds.insert(rounds.end(), src.rounds.begin() + first,
                  src.rounds.begin() + last);
    scanned.insert(scanned.end(), src.scanned.begin() + first,
                   src.scanned.begin() + last);
}

void
IslandTable::reserve(size_t islands, size_t members, size_t hub_entries)
{
    memberPtr.reserve(islands + 1);
    memberIdx.reserve(members);
    hubPtr.reserve(islands + 1);
    hubIdx.reserve(hub_entries);
    rounds.reserve(islands);
    scanned.reserve(islands);
}

} // namespace igcn
