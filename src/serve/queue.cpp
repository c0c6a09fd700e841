#include "serve/queue.hpp"

#include <algorithm>

namespace igcn::serve {

void
RequestQueue::push(Request r)
{
    {
        MutexLock lock(mutex);
        items.push_back(std::move(r));
    }
    cv.notify_all();
}

void
RequestQueue::close()
{
    {
        MutexLock lock(mutex);
        isClosed = true;
    }
    cv.notify_all();
}

bool
RequestQueue::tryPop(Request &out)
{
    MutexLock lock(mutex);
    if (items.empty())
        return false;
    out = std::move(items.front());
    items.pop_front();
    return true;
}

bool
RequestQueue::popHead(Request &out)
{
    MutexLock lock(mutex);
    while (items.empty() && !isClosed)
        cv.wait(mutex);
    if (items.empty())
        return false;
    out = std::move(items.front());
    items.pop_front();
    return true;
}

// ------------------------------------------------------------ EdfQueue

EdfQueue::Key
EdfQueue::keyOf(const Request &r, uint64_t)
{
    return Key{r.deadlineUs == 0 ? ~uint64_t{0} : r.deadlineUs,
               static_cast<uint8_t>(r.priority), r.arrivalUs, r.id};
}

bool
EdfQueue::eligible(const Entry &e, uint64_t applied_seq,
                   uint32_t staleness_bound)
{
    const uint64_t k = e.req.freshness == Freshness::Strict
        ? 0
        : staleness_bound;
    return e.requiredSeq <= applied_seq + k;
}

void
EdfQueue::add(Request r, uint64_t required_seq)
{
    const Key key = keyOf(r, required_seq);
    pool.emplace(key, Entry{std::move(r), required_seq});
}

uint64_t
EdfQueue::earliestArrivalUs() const
{
    uint64_t earliest = ~uint64_t{0};
    for (const auto &[key, e] : pool)
        earliest = std::min(earliest, e.req.arrivalUs);
    return earliest;
}

uint64_t
EdfQueue::minRequiredSeq() const
{
    uint64_t least = ~uint64_t{0};
    for (const auto &[key, e] : pool)
        least = std::min(least, e.requiredSeq);
    return least;
}

bool
EdfQueue::popEligible(uint64_t applied_seq, uint32_t staleness_bound,
                      Entry &out)
{
    for (auto it = pool.begin(); it != pool.end(); ++it) {
        if (eligible(it->second, applied_seq, staleness_bound)) {
            out = std::move(it->second);
            pool.erase(it);
            return true;
        }
    }
    return false;
}

std::vector<EdfQueue::Dropped>
EdfQueue::dropExpired(uint64_t now_us, uint64_t applied_seq,
                      uint32_t staleness_bound)
{
    // Keys order by deadline first (none = UINT64_MAX), so the
    // expired entries are exactly the pool's prefix.
    std::vector<Dropped> dropped;
    auto it = pool.begin();
    for (; it != pool.end() && it->first.deadline < now_us; ++it) {
        const ServeError why =
            eligible(it->second, applied_seq, staleness_bound)
                ? ServeError::Expired
                : ServeError::ShedStale;
        dropped.push_back({std::move(it->second), why});
    }
    pool.erase(pool.begin(), it);
    return dropped;
}

} // namespace igcn::serve
