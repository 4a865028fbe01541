/**
 * @file
 * Tests for the src/cluster federation tier (DESIGN.md §11): the
 * consistent-hash PeerRing, the federation wire verbs, the
 * ClusterCoordinator's miss forwarding and async put replication, and
 * the 3-daemon socket federation including peer death and recovery.
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "cluster/coordinator.h"
#include "cluster/peer_ring.h"
#include "core/app_listener.h"
#include "core/replication.h"
#include "ipc/client.h"
#include "ipc/fault_injection.h"
#include "ipc/message.h"
#include "ipc/server.h"
#include "obs/trace_export.h"
#include "store/tiered_store.h"

namespace potluck {
namespace {

using cluster::ClusterConfig;
using cluster::ClusterCoordinator;
using cluster::PeerRing;

std::string
tempSocketPath(const char *tag)
{
    static std::atomic<int> counter{0};
    return (std::filesystem::temp_directory_path() /
            ("potluck_cluster_" + std::string(tag) + "_" +
             std::to_string(::getpid()) + "_" +
             std::to_string(counter++) + ".sock"))
        .string();
}

PotluckConfig
quietConfig()
{
    PotluckConfig cfg;
    cfg.dropout_probability = 0.0;
    cfg.warmup_entries = 0;
    return cfg;
}

/** Link policy for tests that kill peers: fail fast, probe fast. */
RetryPolicy
snappyLinkPolicy()
{
    RetryPolicy policy = cluster::defaultLinkPolicy();
    policy.max_attempts = 1;
    policy.request_deadline_ms = 500;
    policy.breaker_failure_threshold = 1;
    policy.breaker_open_ms = 200;
    return policy;
}

// ------------------------------------------------------------- PeerRing

TEST(PeerRingTest, OwnershipIgnoresLocalMemberOrder)
{
    // Every node lists ITSELF first, so two nodes see the same members
    // in different orders; they must still agree on every owner.
    PeerRing a({"/tmp/n1", "/tmp/n2", "/tmp/n3"});
    PeerRing b({"/tmp/n3", "/tmp/n1", "/tmp/n2"});
    for (int i = 0; i < 200; ++i) {
        std::string fn = "fn" + std::to_string(i);
        EXPECT_EQ(a.member(a.ownerOf(fn, "vec")),
                  b.member(b.ownerOf(fn, "vec")))
            << fn;
    }
}

TEST(PeerRingTest, VirtualNodesSpreadSlotsAcrossMembers)
{
    PeerRing ring({"/tmp/n1", "/tmp/n2", "/tmp/n3"}, 64);
    std::map<size_t, int> owned;
    const int kSlots = 300;
    for (int i = 0; i < kSlots; ++i)
        owned[ring.ownerOf("fn" + std::to_string(i), "vec")]++;
    ASSERT_EQ(owned.size(), 3u) << "some member owns nothing";
    for (const auto &[member, count] : owned)
        EXPECT_GT(count, kSlots / 10)
            << "member " << member << " owns a degenerate share";
}

TEST(PeerRingTest, RingOrderStartsAtOwnerAndCoversEveryMemberOnce)
{
    PeerRing ring({"/tmp/n1", "/tmp/n2", "/tmp/n3", "/tmp/n4"});
    for (int i = 0; i < 50; ++i) {
        std::string fn = "fn" + std::to_string(i);
        std::vector<size_t> order = ring.ringOrder(fn, "vec");
        ASSERT_EQ(order.size(), 4u);
        EXPECT_EQ(order[0], ring.ownerOf(fn, "vec"));
        std::vector<size_t> sorted = order;
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(sorted, (std::vector<size_t>{0, 1, 2, 3}));
    }
}

TEST(PeerRingTest, SlotHashSeparatesFunctionAndKeyType)
{
    // The 0-byte separator keeps ("ab", "c") distinct from ("a", "bc").
    EXPECT_NE(PeerRing::slotHash("ab", "c"), PeerRing::slotHash("a", "bc"));
    EXPECT_NE(PeerRing::slotHash("f", "vec"), PeerRing::slotHash("f", "img"));
    EXPECT_EQ(PeerRing::slotHash("f", "vec"), PeerRing::slotHash("f", "vec"));
}

TEST(PeerRingTest, SingleMemberOwnsEverything)
{
    PeerRing ring({"/tmp/solo"});
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(ring.ownerOf("fn" + std::to_string(i), "vec"), 0u);
}

// ----------------------------------------------------------- wire codec

TEST(ClusterCodec, FederationEnvelopeRoundTrips)
{
    Request request;
    request.type = RequestType::PeerLookup;
    request.function = "f";
    request.key_type = "vec";
    request.key = FeatureVector({1.0f, 2.0f});
    request.origin = "node_a";
    request.hops = 1;
    Request decoded = decodeRequest(encodeRequest(request));
    EXPECT_EQ(decoded.type, RequestType::PeerLookup);
    EXPECT_EQ(decoded.origin, "node_a");
    EXPECT_EQ(decoded.hops, 1);
}

TEST(ClusterCodec, EnvelopeDefaultsAreEmpty)
{
    Request request;
    request.type = RequestType::Lookup;
    Request decoded = decodeRequest(encodeRequest(request));
    EXPECT_TRUE(decoded.origin.empty());
    EXPECT_EQ(decoded.hops, 0);
}

TEST(ClusterCodec, ClusterStatusRoundTrips)
{
    Reply reply;
    reply.type = RequestType::Peers;
    reply.ok = true;
    reply.cluster.enabled = true;
    reply.cluster.self_tag = "n1";
    reply.cluster.replica_queue_depth = 7;
    reply.cluster.replica_dropped = 3;
    PeerStatus p;
    p.tag = "/tmp/n2.sock";
    p.endpoint = "/tmp/n2.sock";
    p.state = 2;
    p.forwarded_puts = 11;
    p.remote_hits = 5;
    p.errors = 2;
    reply.cluster.peers.push_back(p);

    Reply decoded = decodeReply(encodeReply(reply));
    EXPECT_TRUE(decoded.cluster.enabled);
    EXPECT_EQ(decoded.cluster.self_tag, "n1");
    EXPECT_EQ(decoded.cluster.replica_queue_depth, 7u);
    EXPECT_EQ(decoded.cluster.replica_dropped, 3u);
    ASSERT_EQ(decoded.cluster.peers.size(), 1u);
    EXPECT_EQ(decoded.cluster.peers[0].tag, "/tmp/n2.sock");
    EXPECT_EQ(decoded.cluster.peers[0].state, 2);
    EXPECT_EQ(decoded.cluster.peers[0].forwarded_puts, 11u);
    EXPECT_EQ(decoded.cluster.peers[0].remote_hits, 5u);
    EXPECT_EQ(decoded.cluster.peers[0].errors, 2u);
}

// ------------------------------------------------------ listener verbs

TEST(ClusterVerbs, PeerPutAndPeerLookupExecuteAsReplicaApp)
{
    PotluckService service(quietConfig());
    AppListener listener(service, 1);

    Request put;
    put.type = RequestType::PeerPut;
    put.function = "f";
    put.key_type = "vec";
    put.key = FeatureVector({1.0f});
    put.value = encodeInt(42);
    put.origin = "node_a";
    put.hops = 1;
    Reply pr = listener.handle(put);
    EXPECT_TRUE(pr.ok) << pr.error;

    Request lookup;
    lookup.type = RequestType::PeerLookup;
    lookup.function = "f";
    lookup.key_type = "vec";
    lookup.key = FeatureVector({1.0f});
    lookup.origin = "node_b";
    lookup.hops = 1;
    Reply lr = listener.handle(lookup);
    EXPECT_TRUE(lr.ok) << lr.error;
    EXPECT_TRUE(lr.hit);
    EXPECT_EQ(decodeInt(lr.value), 42);
}

TEST(ClusterVerbs, HopLimitRejectsForwardedForwards)
{
    PotluckService service(quietConfig());
    AppListener listener(service, 1);
    for (RequestType type : {RequestType::PeerLookup, RequestType::PeerPut}) {
        Request request;
        request.type = type;
        request.function = "f";
        request.key_type = "vec";
        request.key = FeatureVector({1.0f});
        request.value = encodeInt(1);
        request.origin = "node_a";
        request.hops = 2;
        Reply reply = listener.handle(request);
        EXPECT_FALSE(reply.ok);
        EXPECT_NE(reply.error.find("hop"), std::string::npos) << reply.error;
    }
}

TEST(ClusterVerbs, PeersVerbReportsDisabledWithoutProvider)
{
    PotluckService service(quietConfig());
    AppListener listener(service, 1);
    Request request;
    request.type = RequestType::Peers;
    Reply reply = listener.handle(request);
    EXPECT_TRUE(reply.ok);
    EXPECT_FALSE(reply.cluster.enabled);
}

// --------------------------------------------------- coordinator (local)

/** Pick a function whose slot the coordinator does NOT own. */
std::string
functionOwnedByPeer(ClusterCoordinator &coordinator)
{
    for (int i = 0; i < 256; ++i) {
        std::string fn = "fn" + std::to_string(i);
        if (coordinator.ownerEndpoint(fn, "vec") !=
            coordinator.config().self_endpoint)
            return fn;
    }
    ADD_FAILURE() << "no peer-owned slot in 256 candidates";
    return "fn0";
}

/** Pick a function whose slot the coordinator owns itself. */
std::string
functionOwnedBySelf(ClusterCoordinator &coordinator)
{
    for (int i = 0; i < 256; ++i) {
        std::string fn = "fn" + std::to_string(i);
        if (coordinator.ownerEndpoint(fn, "vec") ==
            coordinator.config().self_endpoint)
            return fn;
    }
    ADD_FAILURE() << "no self-owned slot in 256 candidates";
    return "fn0";
}

TEST(CoordinatorTest, RemoteMissForwardsHitsAndSeedsLocally)
{
    PotluckService a(quietConfig());
    PotluckService b(quietConfig());
    ClusterConfig cfg;
    cfg.self_tag = "a";
    cfg.self_endpoint = "node_a";
    ClusterCoordinator coordinator(a, cfg);
    coordinator.addLocalPeer("node_b", b);
    coordinator.install();

    std::string fn = functionOwnedByPeer(coordinator);
    a.registerKeyType(fn, {"vec", Metric::L2, IndexKind::Linear});
    b.registerKeyType(fn, {"vec", Metric::L2, IndexKind::Linear});
    PutOptions opts;
    opts.app = "producer";
    b.put(fn, "vec", FeatureVector({1.0f}), encodeInt(7), opts);

    LookupResult r = a.lookup("consumer", fn, "vec", FeatureVector({1.0f}));
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(decodeInt(r.value), 7);
    EXPECT_EQ(a.metrics().counter("cluster.remote_hit").value(), 1u);

    // The hit was seeded locally (tagged replica:), so the second
    // lookup never leaves the node.
    LookupResult r2 = a.lookup("consumer", fn, "vec", FeatureVector({1.0f}));
    EXPECT_TRUE(r2.hit);
    EXPECT_EQ(a.metrics().counter("cluster.remote_hit").value(), 1u);
}

TEST(CoordinatorTest, SelfOwnedMissIsAuthoritative)
{
    PotluckService a(quietConfig());
    PotluckService b(quietConfig());
    ClusterConfig cfg;
    cfg.self_tag = "a";
    cfg.self_endpoint = "node_a";
    ClusterCoordinator coordinator(a, cfg);
    coordinator.addLocalPeer("node_b", b);
    coordinator.install();

    std::string fn = functionOwnedBySelf(coordinator);
    a.registerKeyType(fn, {"vec", Metric::L2, IndexKind::Linear});
    b.registerKeyType(fn, {"vec", Metric::L2, IndexKind::Linear});
    PutOptions opts;
    opts.app = "producer";
    b.put(fn, "vec", FeatureVector({1.0f}), encodeInt(7), opts);

    LookupResult r = a.lookup("consumer", fn, "vec", FeatureVector({1.0f}));
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(a.metrics().counter("cluster.remote_hit").value(), 0u);
    EXPECT_EQ(a.metrics().counter("cluster.remote_miss").value(), 0u);
}

TEST(CoordinatorTest, ClusterStatsFansOutAndTagsSections)
{
    PotluckService a(quietConfig());
    PotluckService b(quietConfig());
    ClusterConfig cfg;
    cfg.self_tag = "node_a";
    cfg.self_endpoint = "node_a";
    ClusterCoordinator coordinator(a, cfg);
    coordinator.addLocalPeer("node_b", b);
    coordinator.install();

    // Distinguishable traffic on each node.
    a.registerKeyType("fn_a", {"vec", Metric::L2, IndexKind::Linear});
    b.registerKeyType("fn_b", {"vec", Metric::L2, IndexKind::Linear});
    PutOptions opts;
    opts.app = "producer";
    a.put("fn_a", "vec", FeatureVector({1.0f}), encodeInt(1), opts);
    b.put("fn_b", "vec", FeatureVector({2.0f}), encodeInt(2), opts);
    coordinator.drain();

    std::vector<NodeStatsSection> sections = coordinator.clusterStats(0);
    ASSERT_EQ(sections.size(), 2u);
    EXPECT_EQ(sections[0].node, "node_a");
    EXPECT_TRUE(sections[0].ok);
    EXPECT_EQ(sections[1].node, "node_b");
    EXPECT_TRUE(sections[1].ok);
    // Each section carries ITS node's counters, not a blend.
    EXPECT_GE(sections[0].snapshot.counterValue("fn.fn_a.lookups"), 0u);
    EXPECT_GE(sections[0].snapshot.counterValue("service.puts"), 1u);
    EXPECT_GE(sections[1].snapshot.counterValue("service.puts"), 1u);
    bool b_has_fn_b = false, a_has_fn_b = false;
    for (const auto &c : sections[1].snapshot.counters)
        b_has_fn_b = b_has_fn_b || c.name == "fn.fn_b.lookups";
    for (const auto &c : sections[0].snapshot.counters)
        a_has_fn_b = a_has_fn_b || c.name == "fn.fn_b.lookups";
    EXPECT_TRUE(b_has_fn_b);
    EXPECT_FALSE(a_has_fn_b);
    // publishObservability ran on both nodes before snapshotting.
    bool a_uptime = false, b_uptime = false;
    for (const auto &g : sections[0].snapshot.gauges)
        a_uptime = a_uptime || g.name == "service.uptime_seconds";
    for (const auto &g : sections[1].snapshot.gauges)
        b_uptime = b_uptime || g.name == "service.uptime_seconds";
    EXPECT_TRUE(a_uptime);
    EXPECT_TRUE(b_uptime);

    // A peer-originated query (hops = 1) must NOT fan out again.
    std::vector<NodeStatsSection> local_only = coordinator.clusterStats(1);
    ASSERT_EQ(local_only.size(), 1u);
    EXPECT_EQ(local_only[0].node, "node_a");
}

TEST(CoordinatorTest, AsyncPutReplicationReachesRingSuccessor)
{
    PotluckService a(quietConfig());
    PotluckService b(quietConfig());
    ClusterConfig cfg;
    cfg.self_tag = "a";
    cfg.self_endpoint = "node_a";
    cfg.forward_misses = false;
    ClusterCoordinator coordinator(a, cfg);
    coordinator.addLocalPeer("node_b", b);
    coordinator.install();

    a.registerKeyType("f", {"vec", Metric::L2, IndexKind::Linear});
    PutOptions opts;
    opts.app = "producer";
    a.put("f", "vec", FeatureVector({2.0f}), encodeInt(9), opts);
    coordinator.drain();

    // The peer's slot was created on demand; the replica is queryable.
    LookupResult r = b.lookup("reader", "f", "vec", FeatureVector({2.0f}));
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(decodeInt(r.value), 9);
    EXPECT_EQ(a.metrics().counter("cluster.forwarded_puts").value(), 1u);
}

TEST(CoordinatorTest, ReplicaWritesLandInTheReplicasTieredStore)
{
    // A replica daemon running with --store-dir must write replicated
    // puts through to its disk tier like any local put — otherwise a
    // crashed replica restarts cold exactly when the mesh needs it.
    std::string store_dir =
        (std::filesystem::temp_directory_path() /
         ("potluck_cluster_store_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(store_dir);

    PotluckService a(quietConfig());
    PotluckService b(quietConfig());
    store::StoreConfig scfg;
    scfg.dir = store_dir;
    scfg.maintenance_interval_ms = 0;
    store::TieredStore store(scfg);
    store.attach(b);

    ClusterConfig cfg;
    cfg.self_tag = "a";
    cfg.self_endpoint = "node_a";
    cfg.forward_misses = false;
    ClusterCoordinator coordinator(a, cfg);
    coordinator.addLocalPeer("node_b", b);
    coordinator.install();

    a.registerKeyType("f", {"vec", Metric::L2, IndexKind::Linear});
    PutOptions opts;
    opts.app = "producer";
    a.put("f", "vec", FeatureVector({2.0f}), encodeInt(9), opts);
    coordinator.drain();

    EXPECT_TRUE(b.lookup("reader", "f", "vec", FeatureVector({2.0f})).hit);
    EXPECT_EQ(store.trackedRecords(), 1u);
    EXPECT_EQ(b.metrics().counter("store.admits").value(), 1u);

    store.close();
    std::filesystem::remove_all(store_dir);
}

TEST(CoordinatorTest, ReplicaEventsAreNotReplicatedAgain)
{
    // a -> b and b -> a coordinators: a put on a must reach b exactly
    // once and never echo back (the two-layer loop prevention).
    PotluckService a(quietConfig());
    PotluckService b(quietConfig());
    ClusterConfig cfg_a;
    cfg_a.self_tag = "a";
    cfg_a.self_endpoint = "node_a";
    cfg_a.forward_misses = false;
    ClusterConfig cfg_b = cfg_a;
    cfg_b.self_tag = "b";
    cfg_b.self_endpoint = "node_b";
    ClusterCoordinator ca(a, cfg_a);
    ClusterCoordinator cb(b, cfg_b);
    ca.addLocalPeer("node_b", b);
    cb.addLocalPeer("node_a", a);
    ca.install();
    cb.install();

    a.registerKeyType("f", {"vec", Metric::L2, IndexKind::Linear});
    PutOptions opts;
    opts.app = "producer";
    a.put("f", "vec", FeatureVector({3.0f}), encodeInt(1), opts);
    ca.drain();
    cb.drain();

    EXPECT_EQ(a.metrics().counter("cluster.forwarded_puts").value(), 1u);
    EXPECT_EQ(b.metrics().counter("cluster.forwarded_puts").value(), 0u);
    EXPECT_EQ(a.stats().puts, 1u);
    EXPECT_EQ(b.stats().puts, 1u);
}

TEST(CoordinatorTest, DropOldestWhenReplicaQueueOverflows)
{
    PotluckService a(quietConfig());
    PotluckService b(quietConfig());
    ClusterConfig cfg;
    cfg.self_tag = "a";
    cfg.self_endpoint = "node_a";
    cfg.forward_misses = false;
    cfg.replica_queue_capacity = 4;
    cfg.worker_threads = 1;
    ClusterCoordinator coordinator(a, cfg);

    // Flood the queue directly (no workers racing: events enqueue
    // faster than the single worker drains a slow in-process peer).
    coordinator.addLocalPeer("node_b", b);
    coordinator.install();
    a.registerKeyType("f", {"vec", Metric::L2, IndexKind::Linear});
    PutOptions opts;
    opts.app = "producer";
    for (int i = 0; i < 200; ++i)
        a.put("f", "vec", FeatureVector({static_cast<float>(i)}),
              encodeInt(i), opts);
    coordinator.drain();

    uint64_t dropped =
        a.metrics().counter("cluster.replica_dropped").value();
    uint64_t delivered = b.stats().puts;
    // Every event was either delivered or counted as shed.
    EXPECT_EQ(dropped + delivered, 200u);
    EXPECT_EQ(a.metrics().counter("cluster.forwarded_puts").value(), 200u);
}

TEST(CoordinatorTest, LoopbackReplicationBridgePreservesLegacyApi)
{
    // connectReplication is now a synchronous loopback coordinator;
    // the original put-then-immediate-lookup contract must hold.
    PotluckService a(quietConfig());
    PotluckService b(quietConfig());
    connectReplication(a, b, "phone");
    a.registerKeyType("f", {"vec", Metric::L2, IndexKind::Linear});
    PutOptions opts;
    opts.app = "producer";
    a.put("f", "vec", FeatureVector({1.0f}), encodeInt(5), opts);
    LookupResult r = b.lookup("reader", "f", "vec", FeatureVector({1.0f}));
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(decodeInt(r.value), 5);
}

// ------------------------------------------------ socket federation

/** An in-process "daemon": service + coordinator + socket server. */
struct FedNode
{
    std::unique_ptr<PotluckService> service;
    std::unique_ptr<ClusterCoordinator> coordinator;
    std::unique_ptr<PotluckServer> server;

    FedNode(const std::string &sock, const std::vector<std::string> &peers,
            const std::string &tag)
    {
        service = std::make_unique<PotluckService>(quietConfig());
        ClusterConfig cfg;
        cfg.self_tag = tag;
        cfg.self_endpoint = sock;
        cfg.peer_sockets = peers;
        cfg.link_policy = snappyLinkPolicy();
        cfg.worker_threads = 1;
        coordinator = std::make_unique<ClusterCoordinator>(*service, cfg);
        coordinator->install();
        server = std::make_unique<PotluckServer>(*service, sock);
        server->listener().setClusterStatusProvider(
            [c = coordinator.get()] { return c->status(); });
    }
};

class ThreeDaemonTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        socks_ = {tempSocketPath("n1"), tempSocketPath("n2"),
                  tempSocketPath("n3")};
        for (size_t i = 0; i < 3; ++i)
            nodes_.push_back(bootNode(i));
        // The mesh boots sequentially, so earlier nodes' links to
        // later peers start with an open breaker (threshold 1). Let
        // the cooldown pass: the first real use is then a successful
        // half-open probe — exactly the production recovery path.
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }

    std::unique_ptr<FedNode>
    bootNode(size_t i)
    {
        std::vector<std::string> peers;
        for (size_t j = 0; j < 3; ++j)
            if (j != i)
                peers.push_back(socks_[j]);
        return std::make_unique<FedNode>(socks_[i], peers,
                                         "n" + std::to_string(i + 1));
    }

    /** Node index owning `fn`, by node 0's ring (all rings agree). */
    size_t
    ownerIndex(const std::string &fn)
    {
        const std::string &owner =
            nodes_[0]->coordinator->ownerEndpoint(fn, "vec");
        for (size_t i = 0; i < 3; ++i)
            if (socks_[i] == owner)
                return i;
        ADD_FAILURE() << "owner endpoint not a cluster member";
        return 0;
    }

    /** A function owned by node `want`, for ring-targeted traffic. */
    std::string
    functionOwnedBy(size_t want)
    {
        for (int i = 0; i < 256; ++i) {
            std::string fn = "fed_fn" + std::to_string(i);
            if (ownerIndex(fn) == want)
                return fn;
        }
        ADD_FAILURE() << "no slot owned by node " << want;
        return "fed_fn0";
    }

    std::vector<std::string> socks_;
    std::vector<std::unique_ptr<FedNode>> nodes_;
};

TEST_F(ThreeDaemonTest, MissOnOneNodeHitsViaTheOwner)
{
    // Produce on node 2 a result whose slot node 3 owns: the replica
    // lands on node 3, and node 1 — which has never seen the entry —
    // must resolve its miss through node 3.
    std::string fn = functionOwnedBy(2);
    PotluckClient producer("producer", socks_[1]);
    producer.registerFunction(fn, "vec", Metric::L2, IndexKind::Linear);
    producer.put(fn, "vec", FeatureVector({1.0f}), encodeInt(77));
    nodes_[1]->coordinator->drain();

    PotluckClient consumer("consumer", socks_[0]);
    consumer.registerFunction(fn, "vec", Metric::L2, IndexKind::Linear);
    LookupResult r = consumer.lookup(fn, "vec", FeatureVector({1.0f}));
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(decodeInt(r.value), 77);
    EXPECT_GE(nodes_[0]
                  ->service->metrics()
                  .counter("cluster.remote_hit")
                  .value(),
              1u);

    // The kPeers verb surfaces the per-peer tallies over the wire.
    ClusterStatus st = consumer.fetchPeers();
    EXPECT_TRUE(st.enabled);
    EXPECT_EQ(st.self_tag, "n1");
    ASSERT_EQ(st.peers.size(), 2u);
    uint64_t hits = 0;
    for (const PeerStatus &p : st.peers)
        hits += p.remote_hits;
    EXPECT_GE(hits, 1u);
}

TEST_F(ThreeDaemonTest, DeadPeerDegradesToLocalOnlyService)
{
    std::string fn = functionOwnedBy(1);
    PotluckClient client("app", socks_[0]);
    client.registerFunction(fn, "vec", Metric::L2, IndexKind::Linear);

    nodes_[1].reset(); // kill the owner

    // Misses on the dead owner's slots degrade to plain local misses —
    // no exception reaches the application.
    LookupResult r1 = client.lookup(fn, "vec", FeatureVector({1.0f}));
    EXPECT_FALSE(r1.hit);
    LookupResult r2 = client.lookup(fn, "vec", FeatureVector({1.0f}));
    EXPECT_FALSE(r2.hit);

    // The breaker (threshold 1) has opened: the link reads degraded.
    ClusterStatus st = client.fetchPeers();
    bool saw_open = false;
    for (const PeerStatus &p : st.peers)
        if (p.endpoint == socks_[1])
            saw_open = p.state == 2;
    EXPECT_TRUE(saw_open);

    // Local service still works end to end: put + exact-match lookup.
    client.put(fn, "vec", FeatureVector({5.0f}), encodeInt(5));
    LookupResult r3 = client.lookup(fn, "vec", FeatureVector({5.0f}));
    EXPECT_TRUE(r3.hit);
}

TEST_F(ThreeDaemonTest, RestartedPeerIsReattachedByHalfOpenProbe)
{
    std::string fn = functionOwnedBy(1);
    PotluckClient client("app", socks_[0]);
    client.registerFunction(fn, "vec", Metric::L2, IndexKind::Linear);

    nodes_[1].reset();
    client.lookup(fn, "vec", FeatureVector({1.0f})); // opens the breaker

    nodes_[1] = bootNode(1);
    // Past the breaker cooldown the next forwarded miss is the
    // half-open probe; it succeeds and closes the breaker.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    client.lookup(fn, "vec", FeatureVector({1.0f}));

    ClusterStatus st = client.fetchPeers();
    for (const PeerStatus &p : st.peers) {
        if (p.endpoint == socks_[1]) {
            EXPECT_EQ(p.state, 0) << "peer did not recover";
        }
    }

    // Remote hits flow again: seed the restarted owner, look up here.
    PotluckClient producer("producer", socks_[1]);
    producer.registerFunction(fn, "vec", Metric::L2, IndexKind::Linear);
    producer.put(fn, "vec", FeatureVector({9.0f}), encodeInt(9));
    LookupResult r = client.lookup(fn, "vec", FeatureVector({9.0f}));
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(decodeInt(r.value), 9);
}

// ------------------------------- PutEvent observer re-entrancy audit

TEST(ObserverReentrancy, ObserversMayReenterShardedParallelService)
{
    // Regression lock-order audit (DESIGN.md §10): put observers are
    // delivered on the putting thread AFTER every service lock is
    // released, so an observer may re-enter lookup()/put() — that is
    // exactly what the cluster hooks do. Hammer a 4-shard service with
    // parallel fanout while the observer re-enters both paths.
    PotluckConfig cfg = quietConfig();
    cfg.num_shards = 4;
    cfg.parallel_fanout = true;
    PotluckService service(cfg);
    service.registerKeyType("fa", {"vec", Metric::L2, IndexKind::KdTree});
    service.registerKeyType("fb", {"vec", Metric::L2, IndexKind::KdTree});

    std::atomic<int> reentered{0};
    service.addPutObserver([&](const PotluckService::PutEvent &event) {
        if (event.app.rfind(kReplicaAppPrefix, 0) == 0)
            return; // our own re-entrant put below
        service.lookup("observer", event.function, event.key_type,
                       event.key);
        PutOptions opts;
        opts.app = std::string(kReplicaAppPrefix) + "observer";
        const char *other = event.function == "fa" ? "fb" : "fa";
        service.put(other, event.key_type, event.key, encodeInt(0), opts);
        reentered.fetch_add(1, std::memory_order_relaxed);
    });

    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            PutOptions opts;
            opts.app = "app" + std::to_string(t);
            for (int i = 0; i < 100; ++i) {
                FeatureVector key(
                    {static_cast<float>(t), static_cast<float>(i)});
                service.put(i % 2 ? "fa" : "fb", "vec", key, encodeInt(i),
                            opts);
                service.lookup(opts.app, "fa", "vec", key);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(reentered.load(), 400);
}

// ----------------------------------------------------- fault injection

#ifdef POTLUCK_FAULT_INJECTION

TEST(ClusterFaultTest, DroppedPeerFramesOpenBreakerWithoutPoisoningTrace)
{
    // The owner is reachable but every frame to it vanishes: forwarded
    // lookups eat the deadline, the link breaker flips the peer to
    // degraded, and the local flight recorder keeps producing a
    // well-formed dump (no half-written spans from the failed hops).
    std::string sock = tempSocketPath("faulty_owner");
    PotluckService owner_service(quietConfig());
    PotluckServer owner(owner_service, sock);

    PotluckConfig cfg = quietConfig();
    PotluckService local(cfg);
    ClusterConfig ccfg;
    ccfg.self_tag = "local";
    ccfg.self_endpoint = "local_node";
    ccfg.peer_sockets = {sock};
    ccfg.link_policy = snappyLinkPolicy();
    ccfg.link_policy.request_deadline_ms = 50;
    ClusterCoordinator coordinator(local, ccfg);
    coordinator.install();

    std::string fn = functionOwnedByPeer(coordinator);
    local.registerKeyType(fn, {"vec", Metric::L2, IndexKind::Linear});

    FaultInjector::Config fcfg;
    fcfg.seed = 7;
    fcfg.drop_frame = 1.0;
    FaultInjector injector(fcfg);
    FaultInjector::install(&injector);

    for (int i = 0; i < 3; ++i) {
        LookupResult r =
            local.lookup("app", fn, "vec", FeatureVector({1.0f}));
        EXPECT_FALSE(r.hit); // degraded to a local miss, never a throw
    }
    FaultInjector::install(nullptr);
    EXPECT_GT(injector.counts().dropped, 0u);

    ClusterStatus st = coordinator.status();
    ASSERT_EQ(st.peers.size(), 1u);
    EXPECT_EQ(st.peers[0].state, 2) << "breaker did not open";
    EXPECT_GE(local.metrics().counter("cluster.remote_miss").value(), 3u);

    // The recorder survived the faulted hops: the dump is parseable
    // and the breaker transition was journaled as a decision event.
    ASSERT_NE(local.recorder(), nullptr);
    std::string json = obs::toChromeTrace(local.recorder()->snapshot());
    EXPECT_NE(json.find("traceEvents"), std::string::npos);
    EXPECT_NE(json.find("peer.state_change"), std::string::npos);

    // Recovery: with faults cleared, the cooldown elapses and the
    // half-open probe re-attaches the peer.
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    local.lookup("app", fn, "vec", FeatureVector({1.0f}));
    EXPECT_EQ(coordinator.status().peers[0].state, 0);
}

#endif // POTLUCK_FAULT_INJECTION

} // namespace
} // namespace potluck
