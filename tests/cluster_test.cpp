// Tests for the scale-out serving topology (src/serve/cluster, DESIGN.md
// §15): a front that routes requests by stable model hash to `nofis_cli
// serve` worker processes.
//
// The load-bearing case is TwoWorkersServeSingleWorkerBytes: the cluster
// must serve exactly the bytes a single worker would — routing a model's
// traffic to one worker preserves the per-worker bitwise determinism
// contract. Model names matter here: FNV-1a("toy3") is even and
// FNV-1a("toy2") is odd, so at two workers the fixture's models land on
// different workers (pinned by ClusterRouting.StableBalancedAndPinned).
//
// These tests spawn the real nofis_cli binary (found next to the test
// tree); they skip when it has not been built.

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "flow/serialize.hpp"
#include "rng/engine.hpp"
#include "serve/cluster/cluster.hpp"
#include "serve/protocol.hpp"
#include "serve/tcp_client.hpp"

namespace {

using namespace nofis;
using serve::ErrorCode;
using serve::Op;
using serve::Request;
using serve::Response;
using serve::cluster::Cluster;
using serve::cluster::ClusterConfig;
using serve::cluster::route_worker;

std::string cli_path() {
    std::error_code ec;
    const auto self = std::filesystem::read_symlink("/proc/self/exe", ec);
    if (ec) return "";
    const auto cli = self.parent_path().parent_path() / "apps" / "nofis_cli";
    return std::filesystem::exists(cli) ? cli.string() : "";
}

flow::CouplingStack make_stack(std::size_t dim, std::uint64_t seed) {
    flow::StackConfig cfg;
    cfg.dim = dim;
    cfg.num_blocks = 2;
    cfg.layers_per_block = 2;
    cfg.hidden = {8};
    rng::Engine eng(seed);
    return flow::CouplingStack(cfg, eng);
}

/// Fresh inits are identity maps (zeroed coupling output layers), so a
/// reload test needs weights that visibly change the served bytes.
flow::CouplingStack make_perturbed_stack(std::size_t dim,
                                         std::uint64_t seed) {
    auto stack = make_stack(dim, seed);
    auto snap = flow::snapshot_params(stack);
    for (std::size_t i = 0; i < snap.size(); ++i)
        for (std::size_t r = 0; r < snap[i].rows(); ++r)
            for (std::size_t c = 0; c < snap[i].cols(); ++c)
                snap[i](r, c) += 0.01 * static_cast<double>(
                                            (i + r + c + seed % 13) % 7 + 1);
    flow::restore_params(stack, snap);
    return stack;
}

Request sample_req(std::uint64_t id, const std::string& model,
                   std::uint64_t seed, std::size_t n) {
    Request req;
    req.id = id;
    req.op = Op::kSample;
    req.model = model;
    req.seed = seed;
    req.n = n;
    return req;
}

class ClusterFixture : public ::testing::Test {
protected:
    void SetUp() override {
        cli_ = cli_path();
        if (cli_.empty())
            GTEST_SKIP() << "nofis_cli not built next to the test tree";
        dir_ = ::testing::TempDir() + "nofis_cluster_" +
               std::to_string(::getpid()) + "_" +
               ::testing::UnitTest::GetInstance()->current_test_info()->name();
        std::filesystem::create_directories(dir_);
        flow::save_stack(make_stack(3, 101), dir_ + "/toy3.nofisflow");
        flow::save_stack(make_stack(2, 202), dir_ + "/toy2.nofisflow");
    }
    void TearDown() override {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    ClusterConfig config(std::size_t workers) const {
        ClusterConfig cfg;
        cfg.workers = workers;
        cfg.worker.command = {cli_};
        cfg.worker.model_dir = dir_;
        cfg.worker.threads = 1;  // single-core CI friendliness
        return cfg;
    }

    std::string cli_;
    std::string dir_;
};

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

TEST(ClusterRouting, StableBalancedAndPinned) {
    for (const char* name : {"toy3", "toy2", "a", "", "some/model"}) {
        EXPECT_EQ(route_worker(name, 1), 0u);
        for (const std::size_t w : {2u, 3u, 4u, 7u}) {
            const std::size_t first = route_worker(name, w);
            EXPECT_LT(first, w);
            EXPECT_EQ(route_worker(name, w), first) << "unstable hash";
        }
    }
    // Pin the fixture models to distinct workers at N=2. Changing the hash
    // function silently re-shards every deployment's disk caches — if this
    // fails, that is a breaking change to call out, not a test to update.
    EXPECT_EQ(route_worker("toy3", 2), 0u);
    EXPECT_EQ(route_worker("toy2", 2), 1u);
}

// ---------------------------------------------------------------------------
// Byte identity across worker counts (the acceptance criterion)
// ---------------------------------------------------------------------------

TEST_F(ClusterFixture, TwoWorkersServeSingleWorkerBytes) {
    std::vector<std::string> lines;
    std::uint64_t id = 1;
    for (std::uint64_t seed : {11u, 22u, 33u})
        lines.push_back(sample_req(id++, "toy3", seed, 2).encode());
    for (std::uint64_t seed : {44u, 55u})
        lines.push_back(sample_req(id++, "toy2", seed, 3).encode());

    std::vector<std::vector<std::string>> served;
    for (const std::size_t workers : {1u, 2u}) {
        Cluster cluster(config(workers));
        serve::TcpClient client("127.0.0.1", cluster.port());
        std::vector<std::string> responses;
        for (const auto& line : lines) {
            responses.push_back(client.call_raw(line));
            EXPECT_TRUE(Response::decode(responses.back()).ok);
        }
        served.push_back(std::move(responses));
        cluster.shutdown();
    }
    EXPECT_EQ(served[0], served[1]);
}

// ---------------------------------------------------------------------------
// Front admin plane
// ---------------------------------------------------------------------------

TEST_F(ClusterFixture, FrontAnswersPingAndForwardsListModels) {
    Cluster cluster(config(2));
    serve::TcpClient client("127.0.0.1", cluster.port());

    Request ping;
    ping.op = Op::kPing;
    ping.id = 3;
    const Response pong = client.call(ping);
    ASSERT_TRUE(pong.ok);
    EXPECT_EQ(pong.id, 3u);
    const util::Json* workers = pong.result.find("workers");
    ASSERT_NE(workers, nullptr);
    EXPECT_EQ(workers->as_u64(), 2u);

    Request list;
    list.op = Op::kListModels;
    list.id = 4;
    const std::string raw = client.call_raw(list.encode());
    EXPECT_TRUE(Response::decode(raw).ok);
    EXPECT_NE(raw.find("toy3"), std::string::npos);
    EXPECT_NE(raw.find("toy2"), std::string::npos);
    cluster.shutdown();
}

TEST_F(ClusterFixture, DrainResumeRoundTrip) {
    Cluster cluster(config(2));
    serve::TcpClient client("127.0.0.1", cluster.port());

    Request drain;
    drain.op = Op::kDrain;
    drain.worker = 0;
    drain.id = 1;
    const Response drained = client.call(drain);
    ASSERT_TRUE(drained.ok) << drained.error_message;

    // toy2 lives on worker 1 and keeps serving while worker 0 is drained.
    const Response other =
        Response::decode(client.call_raw(sample_req(2, "toy2", 5, 1).encode()));
    EXPECT_TRUE(other.ok);

    Request resume;
    resume.op = Op::kResume;
    resume.worker = 0;
    resume.id = 3;
    ASSERT_TRUE(client.call(resume).ok);

    const Response back =
        Response::decode(client.call_raw(sample_req(4, "toy3", 5, 1).encode()));
    EXPECT_TRUE(back.ok) << back.error_message;
    cluster.shutdown();
}

TEST_F(ClusterFixture, ReloadSwapsWeightsWithZeroFailedRequests) {
    Cluster cluster(config(2));
    serve::TcpClient client("127.0.0.1", cluster.port());

    const std::string line = sample_req(1, "toy3", 7, 2).encode();
    const std::string before = client.call_raw(line);
    ASSERT_TRUE(Response::decode(before).ok);

    flow::save_stack(make_perturbed_stack(3, 999), dir_ + "/toy3.nofisflow");
    Request reload;
    reload.op = Op::kReload;
    reload.model = "toy3";
    reload.id = 2;
    const Response ack = client.call(reload);
    ASSERT_TRUE(ack.ok) << ack.error_message;

    const std::string after = client.call_raw(line);
    ASSERT_TRUE(Response::decode(after).ok);
    EXPECT_NE(before, after) << "reload did not swap to the new weights";
    cluster.shutdown();
}

// ---------------------------------------------------------------------------
// Worker failure: structured errors, then recovery
// ---------------------------------------------------------------------------

TEST_F(ClusterFixture, KilledWorkerYieldsStructuredErrorThenRespawns) {
    Cluster cluster(config(2));
    serve::TcpClient client("127.0.0.1", cluster.port());

    // toy3's worker (0) dies hard mid-conversation.
    const pid_t victim = cluster.worker_pid(0);
    ASSERT_GT(victim, 0);
    ASSERT_EQ(::kill(victim, SIGKILL), 0);

    // Every attempt must return promptly — either the structured
    // worker_unavailable while the slot respawns, or success once it has.
    bool recovered = false;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    std::uint64_t id = 1;
    while (std::chrono::steady_clock::now() < deadline) {
        const Response res = Response::decode(
            client.call_raw(sample_req(id++, "toy3", 5, 1).encode()));
        if (res.ok) {
            recovered = true;
            break;
        }
        EXPECT_EQ(res.error_code, ErrorCode::kWorkerUnavailable)
            << res.error_message;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_TRUE(recovered) << "worker 0 never came back";
    EXPECT_GE(cluster.worker_restarts(0), 1u);
    EXPECT_NE(cluster.worker_pid(0), victim);

    // The untouched worker served throughout.
    const Response other =
        Response::decode(client.call_raw(sample_req(id, "toy2", 5, 1).encode()));
    EXPECT_TRUE(other.ok);
    cluster.shutdown();
}

// ---------------------------------------------------------------------------
// Shutdown + metrics aggregation
// ---------------------------------------------------------------------------

TEST_F(ClusterFixture, ShutdownOpStopsTheFront) {
    Cluster cluster(config(1));
    serve::TcpClient client("127.0.0.1", cluster.port());
    Request down;
    down.op = Op::kShutdown;
    down.id = 1;
    const Response ack = client.call(down);
    EXPECT_TRUE(ack.ok);
    cluster.wait();  // returns because the shutdown op signalled it
    cluster.shutdown();
}

TEST_F(ClusterFixture, AggregatedMetricsCoverEveryWorker) {
    ClusterConfig cfg = config(2);
    cfg.metrics_out = dir_ + "/fleet.json";
    Cluster cluster(cfg);
    {
        serve::TcpClient client("127.0.0.1", cluster.port());
        for (std::uint64_t id = 1; id <= 4; ++id) {
            const std::string model = id % 2 == 0 ? "toy2" : "toy3";
            EXPECT_TRUE(Response::decode(
                            client.call_raw(
                                sample_req(id, model, id, 1).encode()))
                            .ok);
        }
    }
    cluster.shutdown();  // workers write their records on exit
    ASSERT_TRUE(cluster.write_metrics(cfg.metrics_out));

    std::ifstream in(cfg.metrics_out);
    std::stringstream buf;
    buf << in.rdbuf();
    const util::Json doc = util::Json::parse(buf.str());
    EXPECT_EQ(doc.find("schema")->as_string(), "nofis-cluster-metrics-v1");
    EXPECT_EQ(doc.find("workers")->as_u64(), 2u);
    const util::Json* per_worker = doc.find("per_worker");
    ASSERT_NE(per_worker, nullptr);
    ASSERT_EQ(per_worker->size(), 2u);
    for (std::size_t i = 0; i < per_worker->size(); ++i)
        EXPECT_TRUE(per_worker->at(i).find("record")->is_object()) << i;
    // Both workers took traffic, and the fleet totals add their counters.
    const util::Json* fleet = doc.find("fleet");
    ASSERT_NE(fleet, nullptr);
    const util::Json* counters = fleet->find("counters");
    ASSERT_NE(counters, nullptr);
    std::uint64_t fleet_requests = 0;
    for (const auto& [name, value] : counters->members())
        if (name == "serve.requests") fleet_requests = value.as_u64();
    EXPECT_EQ(fleet_requests, 4u);
}

}  // namespace
