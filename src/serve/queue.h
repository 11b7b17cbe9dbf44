#ifndef CROPHE_SERVE_QUEUE_H_
#define CROPHE_SERVE_QUEUE_H_

/**
 * @file
 * The SLA-aware dispatch queue. Three orderings:
 *
 *   fifo — arrival order;
 *   edf  — earliest deadline first;
 *   wfq  — start-time fair queueing: each request is tagged with
 *          finish = max(now, tenant's last finish tag) + service/weight,
 *          and the smallest tag dispatches first, giving each tenant a
 *          weight-proportional share under contention.
 *
 * popBatch() takes the head by policy, then greedily fills the batch
 * with queued requests sharing the head's batching key (the catalog
 * template content hash — same graph, same schedule), in policy order.
 * All ties break on insertion sequence, so the order is total and the
 * queue is deterministic.
 */

#include <string>
#include <vector>

#include "serve/request.h"

namespace crophe::serve {

/** Queue ordering policy. */
enum class Policy : u8
{
    Fifo,
    Edf,
    Wfq,
};

/** Lookup by name (fifo/edf/wfq); throws RecoverableError. */
Policy policyByName(const std::string &name);

/** Deterministic priority queue with same-template batch extraction. */
class RequestQueue
{
  public:
    RequestQueue(Policy policy, std::vector<double> tenantWeights);

    /**
     * Enqueue @p req with batching key @p batchKey and estimated service
     * time @p serviceEstimate at virtual time @p now (WFQ virtual
     * clock).
     */
    void push(const Request &req, u64 batchKey, double serviceEstimate,
              double now);

    bool empty() const { return items_.empty(); }
    std::size_t depth() const { return items_.size(); }
    /** Σ service estimates of everything queued. */
    double backlogSeconds() const { return backlog_; }

    /**
     * Pop the policy head plus up to @p maxBatch - 1 queued requests
     * with the same batching key, in policy order. Empty when the queue
     * is empty.
     */
    std::vector<Request> popBatch(u64 maxBatch);

  private:
    struct Item
    {
        Request req;
        u64 batchKey;
        double prio;
        double est;
        u64 seq;

        bool operator<(const Item &o) const
        {
            if (prio != o.prio)
                return prio < o.prio;
            return seq < o.seq;
        }
    };

    Policy policy_;
    std::vector<double> weights_;
    /** WFQ per-tenant last finish tag. */
    std::vector<double> finishTag_;
    std::vector<Item> items_;  ///< sorted by (prio, seq)
    u64 seq_ = 0;
    double backlog_ = 0.0;
};

}  // namespace crophe::serve

#endif  // CROPHE_SERVE_QUEUE_H_
