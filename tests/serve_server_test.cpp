/// End-to-end tests for the serving layer over real loopback TCP:
/// bit-exactness against the offline engine, micro-batch coalescing and
/// the one-write-per-connection-per-batch flush (pipelined bursts,
/// interleaved connections, a peer vanishing mid-batch), hot-swap under
/// load (version-tagged verification), protocol abuse (truncated /
/// oversized / unknown frames, width mismatches, client disconnects),
/// observability counters, the zero-steady-state-allocation property
/// of the request pool, pipelined bursts around the reactor's 64 KiB
/// receive buffer, and ServeClient's buffered reads against a hand-driven
/// socket (burst splitting, byte-at-a-time reassembly, bad lengths, the
/// one-deadline timeout, moves, reconnects, and one thread sending while
/// another reads).

#include "pnm/serve/server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "pnm/core/model_io.hpp"
#include "pnm/core/quantize.hpp"
#include "pnm/serve/client.hpp"
#include "pnm/util/build_info.hpp"
#include "pnm/util/fileio.hpp"
#include "pnm/util/rng.hpp"
#include "pnm/util/socket.hpp"

namespace pnm::serve {
namespace {

QuantizedMlp make_model(std::uint64_t seed, std::vector<std::size_t> topology = {6, 5, 3}) {
  Rng rng(seed);
  const Mlp net(topology, rng);
  return QuantizedMlp::from_float(net, QuantSpec::uniform(topology.size() - 1, 5, 4));
}

std::vector<std::vector<double>> make_samples(std::size_t n, std::size_t n_features,
                                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> samples(n);
  for (auto& s : samples) {
    s.resize(n_features);
    for (auto& v : s) v = rng.uniform();
  }
  return samples;
}

std::size_t offline_predict(const QuantizedMlp& model, const std::vector<double>& x,
                            InferScratch& scratch) {
  std::vector<std::int64_t> xq;
  quantize_input_into(x, model.input_bits(), xq);
  return model.predict_quantized_into(xq, scratch);
}

/// Polls server stats until `pred` holds or ~2s elapse (counters are
/// bumped by the IO/worker threads, so tests wait instead of racing).
/// Sanitizer builds get proportionally more patience.
template <typename Pred>
bool wait_for_stats(const Server& server, Pred pred) {
  for (int i = 0; i < 200 * pnm::build_info::timing_multiplier(); ++i) {
    if (pred(server.stats())) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

/// A design wide enough that a pipelined burst on its route keeps a
/// worker busy for tens of milliseconds.
QuantizedMlp make_wide_model() { return make_model(99, {6, 1024, 1024, 3}); }
constexpr std::size_t kWideBurst = 64;

/// A registry serving `model` as the default route plus the wide design
/// as "wide".
std::shared_ptr<ModelRegistry> make_registry_with_wide(QuantizedMlp model) {
  auto registry = std::make_shared<ModelRegistry>();
  EXPECT_TRUE(registry->register_model("default", {std::move(model), 0, "", ""}, nullptr));
  EXPECT_TRUE(registry->register_model("wide", {make_wide_model(), 0, "", ""}, nullptr));
  return registry;
}

/// Occupies the only worker of a `worker_threads = 1` server with a
/// pipelined burst on the wide route.  Requests admitted behind the burst
/// wait in the queue meanwhile, which gives a vanishing client's hangup
/// time to reach the reactor before the worker gets to its requests —
/// a margin of compute time, not a deadline the batcher waits out.
void occupy_worker(ServeClient& blocker) {
  const auto samples = make_samples(kWideBurst, 6, 97);
  for (std::size_t i = 0; i < kWideBurst; ++i) {
    ASSERT_TRUE(blocker.send_predict_v2(static_cast<std::uint32_t>(i), "wide", samples[i]));
  }
}

/// Reads the burst's answers: every id once, bit-exact for the wide design.
void expect_burst_answered(ServeClient& blocker) {
  const auto samples = make_samples(kWideBurst, 6, 97);
  const QuantizedMlp wide = make_wide_model();
  InferScratch scratch;
  std::vector<int> seen(kWideBurst, 0);
  PredictResponse resp;
  for (std::size_t i = 0; i < kWideBurst; ++i) {
    ASSERT_TRUE(blocker.read_predict(resp, 20000 * pnm::build_info::timing_multiplier()));
    ASSERT_LT(resp.id, kWideBurst);
    ++seen[resp.id];
    EXPECT_EQ(resp.predicted_class, offline_predict(wide, samples[resp.id], scratch));
  }
  for (std::size_t i = 0; i < kWideBurst; ++i) EXPECT_EQ(seen[i], 1) << "id " << i;
}

/// The accounting identities every quiescent snapshot must satisfy.
void expect_balanced(const MetricsSnapshot& s) {
  std::uint64_t batches = 0;
  std::uint64_t responses = 0;
  for (std::size_t b = 1; b < s.batch_size_hist.size(); ++b) {
    batches += s.batch_size_hist[b];
    responses += s.batch_size_hist[b] * b;
  }
  EXPECT_EQ(batches, s.batches_total);
  EXPECT_EQ(responses, s.responses_total);
  EXPECT_EQ(s.batches_departed_idle + s.batches_departed_full +
                s.batches_departed_deadline + s.batches_departed_drain,
            s.batches_total);
  EXPECT_EQ(s.requests_total, s.responses_total);
  std::uint64_t by_model = s.predict_errors;
  for (const ModelStats& m : s.models) by_model += m.responses;
  EXPECT_EQ(by_model, s.responses_total);
  EXPECT_LE(s.dropped_responses, s.responses_total);
  EXPECT_EQ(s.queue_depth, 0U);
}

TEST(ServeServer, ServesBitExactPredictions) {
  Server server({}, {make_model(1), 0, "", ""});
  server.start();

  const auto samples = make_samples(60, 6, 11);
  const QuantizedMlp reference = make_model(1);
  InferScratch scratch;

  ServeClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  for (std::size_t i = 0; i < samples.size(); ++i) {
    ASSERT_TRUE(client.send_predict(static_cast<std::uint32_t>(i), samples[i]));
    PredictResponse resp;
    ASSERT_TRUE(client.read_predict(resp));
    EXPECT_EQ(resp.id, i);
    EXPECT_EQ(resp.model_version, 1U);
    EXPECT_EQ(resp.predicted_class, offline_predict(reference, samples[i], scratch));
  }

  // The worker bumps responses_total *after* writing the response, so
  // the client can hold response N while the counter still reads N-1 —
  // poll instead of snapshotting (sanitizer builds widen that window).
  EXPECT_TRUE(wait_for_stats(server, [&](const MetricsSnapshot& s) {
    return s.requests_total == samples.size() && s.responses_total == samples.size();
  }));
  EXPECT_EQ(server.stats().model_version, 1U);
  server.stop();
}

TEST(ServeServer, ObservabilityCountersAreConsistent) {
  ServeConfig config;
  config.batch_max = 8;
  config.batch_deadline_us = 2000;
  Server server(config, {make_model(2), 0, "", ""});
  server.start();

  const auto samples = make_samples(40, 6, 12);
  ServeClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  // Pipeline everything, then collect: gives the batcher a chance to
  // coalesce (the exact batch sizes are timing-dependent; the accounting
  // identities below are not).
  for (std::size_t i = 0; i < samples.size(); ++i) {
    ASSERT_TRUE(client.send_predict(static_cast<std::uint32_t>(i), samples[i]));
  }
  PredictResponse resp;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    ASSERT_TRUE(client.read_predict(resp));
  }

  // Counters land after the response write — poll until they settle
  // before snapshotting for the accounting identities.
  ASSERT_TRUE(wait_for_stats(server, [&](const MetricsSnapshot& s) {
    return s.responses_total == samples.size();
  }));
  const MetricsSnapshot stats = server.stats();
  EXPECT_EQ(stats.responses_total, samples.size());
  ASSERT_EQ(stats.batch_size_hist.size(), config.batch_max + 1);
  std::uint64_t batches = 0;
  std::uint64_t responses = 0;
  for (std::size_t s = 1; s < stats.batch_size_hist.size(); ++s) {
    batches += stats.batch_size_hist[s];
    responses += stats.batch_size_hist[s] * s;
  }
  EXPECT_EQ(batches, stats.batches_total);      // histogram covers every batch
  EXPECT_EQ(responses, stats.responses_total);  // ...and every response
  EXPECT_EQ(stats.batches_departed_idle + stats.batches_departed_full +
                stats.batches_departed_deadline + stats.batches_departed_drain,
            stats.batches_total);  // every batch left by exactly one rule
  EXPECT_GE(stats.mean_batch_size(), 1.0);
  EXPECT_GT(stats.latency_percentile_us(50), 0.0);
  EXPECT_GE(stats.latency_percentile_us(99), stats.latency_percentile_us(50));
  EXPECT_EQ(stats.queue_depth, 0U);  // drained

  // The same numbers over the admin endpoint.
  std::string json;
  ASSERT_TRUE(client.stats(json));
  EXPECT_NE(json.find("\"requests_total\": 40"), std::string::npos);
  EXPECT_NE(json.find("\"latency_p50_us\":"), std::string::npos);
  EXPECT_NE(json.find("\"batch_size_hist\":"), std::string::npos);
  EXPECT_NE(json.find("\"queue_depth\":"), std::string::npos);
  for (const char* key : {"idle", "full", "deadline", "drain"}) {
    EXPECT_NE(json.find(std::string("\"batches_departed_") + key + "\":"), std::string::npos)
        << key;
  }
  server.stop();
}

TEST(ServeServer, HotSwapUnderLoadIsBitExactAndLossless) {
  const QuantizedMlp model_a = make_model(3);
  const QuantizedMlp model_b = make_model(4);
  const std::string path_a = ::testing::TempDir() + "pnm_serve_swap_a.pnm";
  const std::string path_b = ::testing::TempDir() + "pnm_serve_swap_b.pnm";
  ASSERT_TRUE(save_quantized_mlp(model_a, path_a, "a"));
  ASSERT_TRUE(save_quantized_mlp(model_b, path_b, "b"));

  ServeConfig config;
  config.worker_threads = 2;
  Server server(config, {make_model(3), 0, path_a, ""});
  server.start();

  const auto samples = make_samples(32, 6, 13);
  LoadGenConfig load;
  load.port = server.port();
  load.rate = 3000.0;
  load.total_requests = 360;
  load.samples = &samples;
  load.swaps[100] = path_b;  // version 2
  load.swaps[220] = path_a;  // version 3
  load.verify[1] = &model_a;
  load.verify[2] = &model_b;
  load.verify[3] = &model_a;

  const LoadGenReport report = run_load(load);
  EXPECT_TRUE(report.ok()) << "sent=" << report.sent << " received=" << report.received
                           << " mismatches=" << report.mismatches
                           << " unknown=" << report.unknown_version
                           << " send_failures=" << report.send_failures
                           << " swap_failures=" << report.swap_failures;
  EXPECT_EQ(report.received, load.total_requests);
  EXPECT_GE(report.responses_by_version.size(), 2U);  // the swap landed mid-stream

  const MetricsSnapshot stats = server.stats();
  EXPECT_EQ(stats.swaps_ok, 2U);
  EXPECT_EQ(stats.model_version, 3U);
  EXPECT_EQ(stats.model_path, path_a);
  server.stop();
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(ServeServer, SwapToCorruptFileIsRejectedAndKeepsServing) {
  const std::string bad_path = ::testing::TempDir() + "pnm_serve_swap_bad.pnm";
  ASSERT_TRUE(write_text_file_atomic(bad_path, "pnm-model v1\nname x\ngarbage\n"));

  Server server({}, {make_model(5), 0, "", ""});
  server.start();

  ServeClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  std::string message;
  EXPECT_FALSE(client.swap(bad_path, message));
  EXPECT_FALSE(message.empty());
  EXPECT_FALSE(client.swap(::testing::TempDir() + "pnm_serve_no_such_file.pnm", message));

  const MetricsSnapshot stats = server.stats();
  EXPECT_EQ(stats.swaps_failed, 2U);
  EXPECT_EQ(stats.swaps_ok, 0U);
  EXPECT_EQ(stats.model_version, 1U);  // old design kept serving

  // ...and it really does keep serving, bit-exactly.
  const auto samples = make_samples(5, 6, 14);
  const QuantizedMlp reference = make_model(5);
  InferScratch scratch;
  PredictResponse resp;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    ASSERT_TRUE(client.send_predict(static_cast<std::uint32_t>(i), samples[i]));
    ASSERT_TRUE(client.read_predict(resp));
    EXPECT_EQ(resp.model_version, 1U);
    EXPECT_EQ(resp.predicted_class, offline_predict(reference, samples[i], scratch));
  }
  server.stop();
  std::remove(bad_path.c_str());
}

TEST(ServeServer, TruncatedFrameIsCountedOnDisconnect) {
  Server server({}, {make_model(6), 0, "", ""});
  server.start();

  {
    ServeClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    std::vector<std::uint8_t> frame;
    encode_predict(frame, 1, std::vector<double>{0.1, 0.2, 0.3, 0.4, 0.5, 0.6});
    ASSERT_TRUE(client.send_raw(frame.data(), frame.size() - 3));  // cut short
    client.close();  // disconnect mid-frame
  }
  EXPECT_TRUE(wait_for_stats(
      server, [](const MetricsSnapshot& s) { return s.truncated_frames == 1; }));

  // The server shrugs it off: a fresh client is served normally.
  ServeClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  const auto samples = make_samples(1, 6, 15);
  ASSERT_TRUE(client.send_predict(0, samples[0]));
  PredictResponse resp;
  EXPECT_TRUE(client.read_predict(resp));
  server.stop();
}

TEST(ServeServer, OversizedFrameGetsErrorAndDisconnect) {
  ServeConfig config;
  config.max_frame_bytes = 1 << 10;
  Server server(config, {make_model(7), 0, "", ""});
  server.start();

  ServeClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  std::vector<std::uint8_t> header;
  append_u32(header, 1 << 20);  // over the 1 KiB cap
  ASSERT_TRUE(client.send_raw(header.data(), header.size()));

  ClientFrame frame;
  ASSERT_TRUE(client.read_frame(frame));
  EXPECT_EQ(frame.type, FrameType::kError);
  // Server closes the connection after the error frame.
  EXPECT_FALSE(client.read_frame(frame, 2000));
  EXPECT_TRUE(wait_for_stats(
      server, [](const MetricsSnapshot& s) { return s.oversized_rejected == 1; }));
  server.stop();
}

TEST(ServeServer, UnknownFrameTypeGetsErrorAndDisconnect) {
  Server server({}, {make_model(8), 0, "", ""});
  server.start();

  ServeClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  std::vector<std::uint8_t> raw;
  append_u32(raw, 3);
  raw.push_back(99);  // no such FrameType
  raw.push_back(0);
  raw.push_back(0);
  ASSERT_TRUE(client.send_raw(raw.data(), raw.size()));

  ClientFrame frame;
  ASSERT_TRUE(client.read_frame(frame));
  EXPECT_EQ(frame.type, FrameType::kError);
  EXPECT_TRUE(wait_for_stats(
      server, [](const MetricsSnapshot& s) { return s.protocol_errors >= 1; }));
  server.stop();
}

TEST(ServeServer, FramesBehindAMalformedPredictAreNotServed) {
  Server server({}, {make_model(9), 0, "", ""});
  server.start();

  // One write: a kPredict frame too short to hold an id and a count,
  // then five valid predicts.  The connection is refused at the first
  // frame; the five behind it must be neither admitted nor counted as a
  // truncated frame.
  std::vector<std::uint8_t> raw;
  append_u32(raw, 3);
  raw.push_back(static_cast<std::uint8_t>(FrameType::kPredict));
  raw.push_back(0);
  raw.push_back(0);
  const auto samples = make_samples(5, 6, 19);
  for (std::uint32_t i = 0; i < 5; ++i) encode_predict(raw, i, samples[i]);

  ServeClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  ASSERT_TRUE(client.send_raw(raw.data(), raw.size()));
  ClientFrame frame;
  ASSERT_TRUE(client.read_frame(frame));
  EXPECT_EQ(frame.type, FrameType::kError);
  EXPECT_FALSE(client.read_frame(frame, 2000));  // then the server closes
  ASSERT_TRUE(wait_for_stats(
      server, [](const MetricsSnapshot& s) { return s.connections_closed == 1; }));

  const MetricsSnapshot stats = server.stats();
  EXPECT_EQ(stats.protocol_errors, 1U);
  EXPECT_EQ(stats.requests_total, 0U);
  EXPECT_EQ(stats.responses_total, 0U);
  EXPECT_EQ(stats.dropped_responses, 0U);
  EXPECT_EQ(stats.truncated_frames, 0U);
  server.stop();
}

TEST(ServeServer, FeatureWidthMismatchIsAnErrorNotACrash) {
  Server server({}, {make_model(9), 0, "", ""});  // expects 6 features
  server.start();

  ServeClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  ASSERT_TRUE(client.send_predict(0, std::vector<double>{0.5, 0.5}));  // 2 != 6
  ClientFrame frame;
  ASSERT_TRUE(client.read_frame(frame));
  EXPECT_EQ(frame.type, FrameType::kError);
  EXPECT_TRUE(wait_for_stats(
      server, [](const MetricsSnapshot& s) { return s.predict_errors == 1; }));

  // The connection survives a width mismatch (it is a request-level
  // error, not a framing violation) — the next valid request is served.
  const auto samples = make_samples(1, 6, 16);
  ASSERT_TRUE(client.send_predict(1, samples[0]));
  PredictResponse resp;
  EXPECT_TRUE(client.read_predict(resp));
  server.stop();
}

TEST(ServeServer, ClientDisconnectMidFlightLeavesServerHealthy) {
  ServeConfig config;
  config.worker_threads = 1;  // the wide burst below holds it
  Server server(config, make_registry_with_wide(make_model(10)));
  server.start();

  ServeClient blocker;
  ASSERT_TRUE(blocker.connect("127.0.0.1", server.port()));
  occupy_worker(blocker);

  const auto samples = make_samples(8, 6, 17);
  {
    ServeClient doomed;
    ASSERT_TRUE(doomed.connect("127.0.0.1", server.port()));
    for (std::size_t i = 0; i < samples.size(); ++i) {
      ASSERT_TRUE(doomed.send_predict(static_cast<std::uint32_t>(i), samples[i]));
    }
    doomed.close();  // normally gone before the busy worker reaches its batch
  }
  // All admitted requests are still processed (responses may be dropped,
  // never wedged).
  expect_burst_answered(blocker);
  EXPECT_TRUE(wait_for_stats(server, [&](const MetricsSnapshot& s) {
    return s.responses_total == kWideBurst + samples.size();
  }));

  ServeClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  ASSERT_TRUE(client.send_predict(0, samples[0]));
  PredictResponse resp;
  EXPECT_TRUE(client.read_predict(resp));
  server.stop();
}

TEST(ServeServer, PipelinedBurstsAreAnsweredExactlyOnceAndBitExact) {
  Server server({}, {make_model(14), 0, "", ""});
  server.start();
  const QuantizedMlp reference = make_model(14);
  InferScratch scratch;
  PredictResponse resp;

  // One connection, 40 requests in flight at once: the worker answers a
  // whole batch per write, and every id still comes back exactly once.
  const auto burst = make_samples(40, 6, 19);
  ServeClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  for (std::size_t i = 0; i < burst.size(); ++i) {
    ASSERT_TRUE(client.send_predict(static_cast<std::uint32_t>(i), burst[i]));
  }
  std::vector<int> seen(burst.size(), 0);
  for (std::size_t i = 0; i < burst.size(); ++i) {
    ASSERT_TRUE(client.read_predict(resp));
    ASSERT_LT(resp.id, burst.size());
    ++seen[resp.id];
    EXPECT_EQ(resp.predicted_class, offline_predict(reference, burst[resp.id], scratch));
  }
  for (std::size_t i = 0; i < burst.size(); ++i) EXPECT_EQ(seen[i], 1) << "id " << i;

  // Two connections interleaved request by request share batches; each
  // outbox carries only its own connection's answers.
  constexpr std::size_t kPer = 20;
  const auto samples_a = make_samples(kPer, 6, 20);
  const auto samples_b = make_samples(kPer, 6, 21);
  ServeClient a;
  ServeClient b;
  ASSERT_TRUE(a.connect("127.0.0.1", server.port()));
  ASSERT_TRUE(b.connect("127.0.0.1", server.port()));
  for (std::size_t i = 0; i < kPer; ++i) {
    ASSERT_TRUE(a.send_predict(static_cast<std::uint32_t>(100 + i), samples_a[i]));
    ASSERT_TRUE(b.send_predict(static_cast<std::uint32_t>(200 + i), samples_b[i]));
  }
  const auto collect = [&](ServeClient& c, std::uint32_t base,
                           const std::vector<std::vector<double>>& samples) {
    std::vector<int> got(kPer, 0);
    for (std::size_t i = 0; i < kPer; ++i) {
      ASSERT_TRUE(c.read_predict(resp));
      ASSERT_GE(resp.id, base);
      ASSERT_LT(resp.id, base + kPer);
      ++got[resp.id - base];
      EXPECT_EQ(resp.predicted_class,
                offline_predict(reference, samples[resp.id - base], scratch));
    }
    for (std::size_t i = 0; i < kPer; ++i) EXPECT_EQ(got[i], 1) << "id " << base + i;
  };
  collect(a, 100, samples_a);
  collect(b, 200, samples_b);

  const std::size_t total = burst.size() + 2 * kPer;
  ASSERT_TRUE(wait_for_stats(server, [&](const MetricsSnapshot& s) {
    return s.responses_total == total;
  }));
  const MetricsSnapshot stats = server.stats();
  expect_balanced(stats);
  EXPECT_EQ(stats.requests_total, total);
  EXPECT_EQ(stats.dropped_responses, 0U);
  server.stop();
}

TEST(ServeServer, PeerVanishingMidBatchDropsEveryFrameOfItsOutbox) {
  ServeConfig config;
  config.worker_threads = 1;
  Server server(config, make_registry_with_wide(make_model(15)));
  server.start();

  ServeClient blocker;
  ASSERT_TRUE(blocker.connect("127.0.0.1", server.port()));
  occupy_worker(blocker);

  // The doomed peer's 40 requests queue behind the wide burst; it is gone
  // (and the reactor has marked it closed) before the worker gets to them,
  // so each flush to it fails and drops every frame it carried.
  const auto samples = make_samples(40, 6, 22);
  {
    ServeClient doomed;
    ASSERT_TRUE(doomed.connect("127.0.0.1", server.port()));
    for (std::size_t i = 0; i < samples.size(); ++i) {
      ASSERT_TRUE(doomed.send_predict(static_cast<std::uint32_t>(i), samples[i]));
    }
  }
  ASSERT_TRUE(wait_for_stats(
      server, [](const MetricsSnapshot& s) { return s.connections_closed == 1; }));

  expect_burst_answered(blocker);
  const std::size_t total = kWideBurst + samples.size();
  ASSERT_TRUE(wait_for_stats(server, [&](const MetricsSnapshot& s) {
    return s.responses_total == total;
  }));
  const MetricsSnapshot stats = server.stats();
  expect_balanced(stats);
  EXPECT_EQ(stats.requests_total, total);
  EXPECT_EQ(stats.dropped_responses, samples.size());  // one per doomed frame
  ASSERT_EQ(stats.models.size(), 2U);
  EXPECT_EQ(stats.models[0].responses, samples.size());
  EXPECT_EQ(stats.models[1].responses, kWideBurst);
  server.stop();
}

TEST(ServeServer, RequestPoolStopsGrowingAtSteadyState) {
  Server server({}, {make_model(12), 0, "", ""});
  server.start();

  const auto samples = make_samples(4, 6, 18);
  ServeClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  PredictResponse resp;

  // Warm-up: one strictly sequential pass sizes the pool.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client.send_predict(static_cast<std::uint32_t>(i), samples[i % 4]));
    ASSERT_TRUE(client.read_predict(resp));
  }
  const std::size_t warm = server.request_pool_created();
  EXPECT_GE(warm, 1U);

  // Steady state: the pool is bounded by peak concurrent demand, not by
  // request count.  With one synchronous client that demand is 1 live
  // request plus up to one straggling release per worker (a worker
  // releases *after* writing the response, so the IO thread's next
  // acquire can overtake it) — so 200 more requests may lawfully grow
  // the pool to that bound, and not one object past it.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(client.send_predict(static_cast<std::uint32_t>(i), samples[i % 4]));
    ASSERT_TRUE(client.read_predict(resp));
  }
  EXPECT_LE(server.request_pool_created(), 1 + ServeConfig{}.worker_threads);
  server.stop();
}

TEST(ServeServer, StartStopIsIdempotent) {
  Server server({}, {make_model(13), 0, "", ""});
  server.start();
  const std::uint16_t port = server.port();
  EXPECT_NE(port, 0);
  server.stop();
  server.stop();  // idempotent

  // A stopped server's port no longer accepts.
  ServeClient client;
  EXPECT_FALSE(client.connect("127.0.0.1", port, 2));
}

// ---- reactor: pipelined bursts around the 64 KiB receive buffer --------

/// Size of the reactor's receive buffer (`rx` in Server::io_loop): a read
/// that fills it is not a short read, so the reactor reads again.
constexpr std::size_t kReactorRx = 64 * 1024;

/// Sends exactly `total_bytes` of pipelined predict frames in one write —
/// v1 frames (61 bytes for 6 features) and v2 frames on the default route
/// (62 bytes) mixed to hit the size — then checks that every request is
/// answered once, bit-exact, and that the server's accounting balances.
void expect_burst_of_bytes_served(std::size_t total_bytes, std::uint64_t seed) {
  Server server({}, {make_model(seed), 0, "", ""});
  server.start();
  const QuantizedMlp reference = make_model(seed);

  constexpr std::size_t kV1 = 61;
  std::size_t count = (total_bytes + kV1) / (kV1 + 1);  // ceil(total / 62)
  const std::size_t v2_frames = total_bytes - kV1 * count;
  ASSERT_LE(v2_frames, count);
  const auto samples = make_samples(count, 6, seed + 100);
  std::vector<std::uint8_t> burst;
  for (std::size_t i = 0; i < count; ++i) {
    const auto id = static_cast<std::uint32_t>(i);
    if (i < v2_frames) {
      encode_predict_v2(burst, id, "", samples[i]);
    } else {
      encode_predict(burst, id, samples[i]);
    }
  }
  ASSERT_EQ(burst.size(), total_bytes);

  ServeClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  ASSERT_TRUE(client.send_raw(burst.data(), burst.size()));
  InferScratch scratch;
  PredictResponse resp;
  std::vector<int> seen(count, 0);
  for (std::size_t i = 0; i < count; ++i) {
    ASSERT_TRUE(client.read_predict(resp)) << "response " << i << " of " << count;
    ASSERT_LT(resp.id, count);
    ++seen[resp.id];
    EXPECT_EQ(resp.predicted_class, offline_predict(reference, samples[resp.id], scratch));
  }
  for (std::size_t i = 0; i < count; ++i) EXPECT_EQ(seen[i], 1) << "id " << i;

  ASSERT_TRUE(wait_for_stats(server, [&](const MetricsSnapshot& s) {
    return s.responses_total == count;
  }));
  const MetricsSnapshot stats = server.stats();
  expect_balanced(stats);
  EXPECT_EQ(stats.requests_total, count);
  EXPECT_EQ(stats.protocol_errors, 0U);
  EXPECT_EQ(stats.dropped_responses, 0U);
  server.stop();
}

TEST(ServeServer, BurstOfExactlyTheReceiveBufferIsAnsweredBitExact) {
  expect_burst_of_bytes_served(kReactorRx, 31);
}

TEST(ServeServer, BurstStraddlingTheReceiveBufferIsAnsweredBitExact) {
  expect_burst_of_bytes_served(kReactorRx + 100, 32);
  expect_burst_of_bytes_served(2 * kReactorRx + 7, 33);
}

// ---- ServeClient against a hand-driven socket ---------------------------

/// A raw listening socket standing in for a server, so a test controls
/// exactly which bytes reach the client and how they are split.
class FakeServer {
 public:
  FakeServer() : listen_fd_(tcp_listen(0)) {}
  ~FakeServer() {
    close_peer();
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }
  FakeServer(const FakeServer&) = delete;
  FakeServer& operator=(const FakeServer&) = delete;

  [[nodiscard]] std::uint16_t port() const { return tcp_local_port(listen_fd_); }

  /// Accepts the client's connection, replacing any earlier one.
  bool accept() {
    close_peer();
    for (int i = 0; i < 1000 && peer_fd_ < 0; ++i) {
      peer_fd_ = tcp_accept(listen_fd_);
      if (peer_fd_ < 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return peer_fd_ >= 0;
  }

  /// Writes `bytes` in one send call sequence.
  bool write(const std::vector<std::uint8_t>& bytes) {
    return send_all(peer_fd_, bytes.data(), bytes.size());
  }

  void close_peer() {
    if (peer_fd_ >= 0) ::close(peer_fd_);
    peer_fd_ = -1;
  }

 private:
  int listen_fd_;
  int peer_fd_ = -1;
};

/// A connected (client, fake server) pair.
struct ClientPair {
  FakeServer server;
  ServeClient client;

  ClientPair() {
    EXPECT_TRUE(client.connect("127.0.0.1", server.port()));
    EXPECT_TRUE(server.accept());
  }
};

std::vector<std::uint8_t> predict_resp_frames(std::uint32_t first, std::uint32_t n) {
  std::vector<std::uint8_t> bytes;
  for (std::uint32_t id = first; id < first + n; ++id) encode_predict_resp(bytes, id, 1, id % 3);
  return bytes;
}

void expect_resp(ServeClient& client, std::uint32_t id, int timeout_ms = 5000) {
  PredictResponse resp;
  ASSERT_TRUE(client.read_predict(resp, timeout_ms)) << "id " << id;
  EXPECT_EQ(resp.id, id);
  EXPECT_EQ(resp.model_version, 1U);
  EXPECT_EQ(resp.predicted_class, id % 3);
}

TEST(ServeClient, FramesSentInOneWriteComeBackInOrder) {
  ClientPair pair;
  std::vector<std::uint8_t> bytes = predict_resp_frames(0, 50);
  encode_swap_resp(bytes, true, "model default version 2");
  ASSERT_TRUE(pair.server.write(bytes));
  for (std::uint32_t id = 0; id < 50; ++id) expect_resp(pair.client, id);
  ClientFrame frame;
  ASSERT_TRUE(pair.client.read_frame(frame));
  EXPECT_EQ(frame.type, FrameType::kSwapResp);
  bool ok = false;
  std::string message;
  ASSERT_TRUE(decode_swap_resp(frame.payload, ok, message));
  EXPECT_TRUE(ok);
  EXPECT_EQ(message, "model default version 2");
}

TEST(ServeClient, FrameSentOneBytePerWriteReassembles) {
  ClientPair pair;
  const std::vector<std::uint8_t> bytes = predict_resp_frames(7, 2);
  std::thread trickle([&] {
    for (const std::uint8_t b : bytes) {
      ASSERT_TRUE(pair.server.write({b}));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  expect_resp(pair.client, 7);
  expect_resp(pair.client, 8);
  trickle.join();
}

TEST(ServeClient, BadFrameLengthsFailAndLaterReadsKeepFailing) {
  for (const std::uint32_t len : {std::uint32_t{0},
                                  static_cast<std::uint32_t>(kDefaultMaxFrameBytes + 1)}) {
    ClientPair pair;
    std::vector<std::uint8_t> bytes;
    append_u32(bytes, len);
    bytes.push_back(static_cast<std::uint8_t>(FrameType::kPredictResp));
    // A well-formed frame after the bad length must not resynchronize.
    const std::vector<std::uint8_t> good = predict_resp_frames(1, 1);
    bytes.insert(bytes.end(), good.begin(), good.end());
    ASSERT_TRUE(pair.server.write(bytes));
    ClientFrame frame;
    EXPECT_FALSE(pair.client.read_frame(frame, 2000)) << "length " << len;
    EXPECT_FALSE(pair.client.read_frame(frame, 200)) << "length " << len;
    PredictResponse resp;
    EXPECT_FALSE(pair.client.read_predict(resp, 200)) << "length " << len;
  }
}

TEST(ServeClient, PartialFrameThenSilenceFailsAfterOneTimeout) {
  // The length arrives late in the call and part of the body with it; the
  // rest never comes.  One deadline covers the whole read, so the call
  // fails at the timeout, not at the length's arrival plus a second one.
  constexpr int kTimeoutMs = 400;
  ClientPair pair;
  const std::vector<std::uint8_t> frame = predict_resp_frames(3, 1);
  std::thread late([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(kTimeoutMs * 3 / 4));
    ASSERT_TRUE(pair.server.write({frame.begin(), frame.begin() + 9}));
  });
  const auto start = std::chrono::steady_clock::now();
  PredictResponse resp;
  EXPECT_FALSE(pair.client.read_predict(resp, kTimeoutMs));
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  late.join();
  EXPECT_GE(waited, kTimeoutMs);
  EXPECT_LT(waited, kTimeoutMs * 3 / 2);
}

TEST(ServeClient, MovedToClientReturnsFramesBufferedBeforeTheMove) {
  ClientPair pair;
  ASSERT_TRUE(pair.server.write(predict_resp_frames(0, 3)));
  expect_resp(pair.client, 0);  // one recv takes in all three frames
  pair.server.close_peer();     // nothing more can arrive

  ServeClient moved(std::move(pair.client));
  // A moved-from client is specified as closed and empty.
  EXPECT_FALSE(pair.client.connected());  // NOLINT(bugprone-use-after-move)
  ClientFrame frame;
  EXPECT_FALSE(pair.client.read_frame(frame, 100));  // NOLINT(bugprone-use-after-move)
  expect_resp(moved, 1);
  ServeClient assigned;
  assigned = std::move(moved);
  expect_resp(assigned, 2);
  EXPECT_FALSE(assigned.read_frame(frame, 1000));  // the peer closed
}

TEST(ServeClient, ReconnectDiscardsBytesOfTheOldConnection) {
  ClientPair pair;
  ASSERT_TRUE(pair.server.write(predict_resp_frames(0, 2)));
  expect_resp(pair.client, 0);  // frame 1 is now buffered
  pair.client.close();
  ASSERT_TRUE(pair.client.connect("127.0.0.1", pair.server.port()));
  ASSERT_TRUE(pair.server.accept());
  ASSERT_TRUE(pair.server.write(predict_resp_frames(40, 1)));
  expect_resp(pair.client, 40);
}

TEST(ServeClient, OneThreadSendsWhileAnotherReads) {
  Server server({}, {make_model(34), 0, "", ""});
  server.start();
  const QuantizedMlp reference = make_model(34);
  constexpr std::size_t kRequests = 400;
  const auto samples = make_samples(kRequests, 6, 35);

  ServeClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  std::thread sender([&] {
    for (std::size_t i = 0; i < kRequests; ++i) {
      const auto id = static_cast<std::uint32_t>(i);
      const bool ok = i % 2 == 0 ? client.send_predict(id, samples[i])
                                 : client.send_predict_v2(id, "", samples[i]);
      ASSERT_TRUE(ok) << "request " << i;
    }
  });
  InferScratch scratch;
  PredictResponse resp;
  std::vector<int> seen(kRequests, 0);
  for (std::size_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(client.read_predict(resp, 20000 * pnm::build_info::timing_multiplier()));
    ASSERT_LT(resp.id, kRequests);
    ++seen[resp.id];
    EXPECT_EQ(resp.predicted_class, offline_predict(reference, samples[resp.id], scratch));
  }
  sender.join();
  for (std::size_t i = 0; i < kRequests; ++i) EXPECT_EQ(seen[i], 1) << "id " << i;
  server.stop();
}

}  // namespace
}  // namespace pnm::serve
