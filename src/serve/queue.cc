#include "serve/queue.h"

#include <algorithm>

#include "common/error.h"

namespace crophe::serve {

Policy
policyByName(const std::string &name)
{
    if (name == "fifo")
        return Policy::Fifo;
    if (name == "edf")
        return Policy::Edf;
    if (name == "wfq")
        return Policy::Wfq;
    throw RecoverableError("unknown queue policy '" + name +
                           "' (expected fifo, edf, or wfq)");
}

RequestQueue::RequestQueue(Policy policy, std::vector<double> tenantWeights)
    : policy_(policy), weights_(std::move(tenantWeights))
{
    for (double &w : weights_)
        if (!(w > 0.0))
            w = 1.0;
    finishTag_.assign(weights_.size(), 0.0);
}

void
RequestQueue::push(const Request &req, u64 batchKey, double serviceEstimate,
                   double now)
{
    Item it;
    it.req = req;
    it.batchKey = batchKey;
    it.est = serviceEstimate;
    it.seq = seq_++;
    switch (policy_) {
    case Policy::Fifo:
        it.prio = req.arrival;
        break;
    case Policy::Edf:
        it.prio = req.deadline;
        break;
    case Policy::Wfq: {
        // Start-time fair queueing with the real clock as virtual time.
        double start = std::max(now, finishTag_[req.tenant]);
        double finish = start + serviceEstimate / weights_[req.tenant];
        finishTag_[req.tenant] = finish;
        it.prio = finish;
        break;
    }
    }
    items_.insert(std::upper_bound(items_.begin(), items_.end(), it),
                  std::move(it));
    backlog_ += serviceEstimate;
}

std::vector<Request>
RequestQueue::popBatch(u64 maxBatch)
{
    std::vector<Request> batch;
    if (items_.empty())
        return batch;
    if (maxBatch == 0)
        maxBatch = 1;
    const u64 key = items_.front().batchKey;
    std::vector<Item> keep;
    keep.reserve(items_.size());
    for (auto &it : items_) {
        if (batch.size() < maxBatch && it.batchKey == key) {
            backlog_ -= it.est;
            batch.push_back(it.req);
        } else {
            keep.push_back(std::move(it));
        }
    }
    items_ = std::move(keep);
    return batch;
}

}  // namespace crophe::serve
