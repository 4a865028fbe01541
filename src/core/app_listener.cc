#include "core/app_listener.h"

#include "core/replication.h"
#include "util/logging.h"

namespace potluck {

namespace {

/** Executing app for a peer-originated request: the replica prefix
 * marks the entry/lookup as federation traffic, so the receiving
 * node's own coordinator never forwards it again. */
std::string
peerApp(const Request &request)
{
    return std::string(kReplicaAppPrefix) +
           (request.origin.empty() ? "peer" : request.origin);
}

} // namespace

AppListener::AppListener(PotluckService &service, size_t threads)
    : service_(service), pool_(threads)
{
}

Reply
AppListener::handle(const Request &request)
{
    try {
        return execute(request);
    } catch (const FatalError &e) {
        Reply reply;
        reply.type = request.type;
        reply.ok = false;
        reply.error = e.what();
        return reply;
    }
}

void
AppListener::setClusterStatusProvider(std::function<ClusterStatus()> provider)
{
    cluster_provider_ = std::move(provider);
}

void
AppListener::setClusterStatsProvider(
    std::function<std::vector<NodeStatsSection>(uint8_t)> provider)
{
    cluster_stats_provider_ = std::move(provider);
}

std::future<Reply>
AppListener::submit(Request request)
{
    return pool_.submit(
        [this, request = std::move(request)]() { return handle(request); });
}

Reply
AppListener::execute(const Request &request)
{
    Reply reply;
    reply.type = request.type;
    switch (request.type) {
      case RequestType::RegisterApp: {
        service_.registerApp(request.app);
        reply.ok = true;
        break;
      }
      case RequestType::RegisterKeyType: {
        KeyTypeConfig cfg;
        cfg.name = request.key_type;
        cfg.metric = request.metric;
        cfg.index_kind = request.index_kind;
        service_.registerKeyType(request.function, cfg);
        reply.ok = true;
        break;
      }
      case RequestType::Lookup: {
        LookupResult result = service_.lookup(request.app, request.function,
                                              request.key_type, request.key);
        reply.ok = true;
        reply.hit = result.hit;
        reply.dropped = result.dropped;
        reply.value = result.value;
        reply.entry_id = result.id;
        break;
      }
      case RequestType::LookupBatch: {
        // The batched service entry point amortizes slot resolution,
        // dropout bookkeeping and domain locking across the batch —
        // the reply values are shared_ptrs into cache storage, so no
        // payload bytes are copied until the transport marshals them.
        std::vector<LookupResult> batch = service_.lookupBatch(
            request.app, request.function, request.key_type,
            request.batchKeys());
        reply.batch_lookups.reserve(batch.size());
        for (LookupResult &result : batch) {
            BatchLookupItem item;
            item.hit = result.hit;
            item.dropped = result.dropped;
            item.value = std::move(result.value);
            item.id = result.id;
            reply.batch_lookups.push_back(std::move(item));
        }
        reply.ok = true;
        break;
      }
      case RequestType::PutBatch: {
        PutOptions options;
        options.app = request.app;
        options.ttl_us = request.ttl_us;
        options.compute_overhead_us = request.compute_overhead_us;
        reply.batch_entry_ids.reserve(request.batch_puts.size());
        for (const BatchPutItem &item : request.batch_puts) {
            reply.batch_entry_ids.push_back(
                service_.put(request.function, request.key_type, item.key,
                             item.value, options));
        }
        reply.ok = true;
        break;
      }
      case RequestType::Put: {
        PutOptions options;
        options.app = request.app;
        options.ttl_us = request.ttl_us;
        options.compute_overhead_us = request.compute_overhead_us;
        reply.entry_id = service_.put(request.function, request.key_type,
                                      request.key, request.value, options);
        reply.ok = true;
        break;
      }
      case RequestType::Stats: {
        reply.stats = service_.stats();
        reply.num_entries = service_.numEntries();
        reply.total_bytes = service_.totalBytes();
        reply.ok = true;
        break;
      }
      case RequestType::Metrics: {
        // Derived gauges (uptime, heat top-k) refresh lazily, right
        // before a snapshot leaves the process.
        service_.publishObservability();
        reply.snapshot = service_.metrics().snapshot();
        reply.stats = service_.stats();
        reply.num_entries = service_.numEntries();
        reply.total_bytes = service_.totalBytes();
        reply.ok = true;
        break;
      }
      case RequestType::PeerLookup: {
        if (request.hops > 1) {
            reply.error = "peer hop limit exceeded";
            break;
        }
        LookupResult result = service_.lookup(
            peerApp(request), request.function, request.key_type,
            request.key);
        reply.ok = true;
        reply.hit = result.hit;
        reply.dropped = result.dropped;
        reply.value = result.value;
        reply.entry_id = result.id;
        break;
      }
      case RequestType::PeerPut: {
        if (request.hops > 1) {
            reply.error = "peer hop limit exceeded";
            break;
        }
        // Create the slot on demand; a conflicting existing
        // registration wins (this node knows its own index needs).
        KeyTypeConfig cfg;
        cfg.name = request.key_type;
        try {
            service_.registerKeyType(request.function, cfg);
        } catch (const FatalError &) {
        }
        PutOptions options;
        options.app = peerApp(request);
        options.ttl_us = request.ttl_us;
        options.compute_overhead_us = request.compute_overhead_us;
        reply.entry_id = service_.put(request.function, request.key_type,
                                      request.key, request.value, options);
        reply.ok = true;
        break;
      }
      case RequestType::PeerFetch: {
        if (request.hops > 1) {
            reply.error = "peer hop limit exceeded";
            break;
        }
        // A repair read is just a lookup under the replica app: it may
        // itself be served from this node's cold tier (promoting the
        // frame verifies its CRC, so a rotten replica never answers).
        LookupResult result = service_.lookup(
            peerApp(request), request.function, request.key_type,
            request.key);
        reply.ok = true;
        reply.hit = result.hit;
        reply.dropped = result.dropped;
        reply.value = result.value;
        reply.entry_id = result.id;
        break;
      }
      case RequestType::Scrub: {
        reply.num_entries = service_.scrubColdTier();
        reply.ok = true;
        break;
      }
      case RequestType::Peers: {
        if (cluster_provider_)
            reply.cluster = cluster_provider_();
        reply.ok = true;
        break;
      }
      case RequestType::ClusterStats: {
        if (request.hops > 1) {
            reply.error = "peer hop limit exceeded";
            break;
        }
        if (cluster_stats_provider_) {
            reply.node_stats = cluster_stats_provider_(request.hops);
        } else {
            // No coordinator: answer with this node alone so the verb
            // works (and merges trivially) on a standalone daemon.
            service_.publishObservability();
            NodeStatsSection self;
            self.node = "local";
            self.ok = true;
            self.snapshot = service_.metrics().snapshot();
            reply.node_stats.push_back(std::move(self));
        }
        reply.ok = true;
        break;
      }
      case RequestType::Trace: {
        // An absent recorder is not an error: the dump is just empty.
        if (obs::FlightRecorder *recorder = service_.recorder())
            reply.trace_records = recorder->snapshot();
        reply.ok = true;
        break;
      }
      default:
        reply.ok = false;
        reply.error = "unknown request type";
        break;
    }
    return reply;
}

} // namespace potluck
