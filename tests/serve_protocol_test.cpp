/// Tests for the serve wire protocol: encoder/decoder round trips,
/// little-endian layout, and FrameReader's handling of fragmentation,
/// coalescing, and hostile framing (zero-length, oversized, truncated),
/// through both feed() and the pull-style next() with in-place receives.

#include "pnm/serve/protocol.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace pnm::serve {
namespace {

/// Feeds `bytes` to a reader `step` bytes at a time, collecting frames.
struct Collected {
  std::vector<FrameType> types;
  std::vector<std::vector<std::uint8_t>> payloads;
};

bool feed_in_steps(FrameReader& reader, const std::vector<std::uint8_t>& bytes,
                   std::size_t step, Collected& out) {
  for (std::size_t off = 0; off < bytes.size(); off += step) {
    const std::size_t n = std::min(step, bytes.size() - off);
    const bool ok = reader.feed(bytes.data() + off, n,
                                [&](FrameType type, std::span<const std::uint8_t> payload) {
                                  out.types.push_back(type);
                                  out.payloads.emplace_back(payload.begin(), payload.end());
                                });
    if (!ok) return false;
  }
  return true;
}

TEST(Protocol, PredictRoundTrip) {
  std::vector<std::uint8_t> frame;
  const std::vector<double> features = {0.0, 0.25, 0.999, 1.0, 1e-9};
  encode_predict(frame, 0xDEADBEEF, features);

  // Layout: u32 len | u8 type | u32 id | u32 n | n x f64.
  ASSERT_EQ(frame.size(), 4U + 1U + 4U + 4U + features.size() * 8U);
  EXPECT_EQ(read_u32(frame.data()), frame.size() - 4);
  EXPECT_EQ(frame[4], static_cast<std::uint8_t>(FrameType::kPredict));

  std::uint32_t id = 0;
  std::vector<double> back;
  ASSERT_TRUE(decode_predict({frame.data() + 5, frame.size() - 5}, id, back));
  EXPECT_EQ(id, 0xDEADBEEFU);
  ASSERT_EQ(back.size(), features.size());
  for (std::size_t i = 0; i < features.size(); ++i) {
    EXPECT_EQ(back[i], features[i]);  // IEEE-754 bit pattern, exact
  }
}

TEST(Protocol, PredictRespRoundTrip) {
  std::vector<std::uint8_t> frame;
  encode_predict_resp(frame, 7, 3, 2);
  PredictResponse resp;
  ASSERT_TRUE(decode_predict_resp({frame.data() + 5, frame.size() - 5}, resp));
  EXPECT_EQ(resp.id, 7U);
  EXPECT_EQ(resp.model_version, 3U);
  EXPECT_EQ(resp.predicted_class, 2U);

  // Wrong payload size is rejected.
  EXPECT_FALSE(decode_predict_resp({frame.data() + 5, frame.size() - 6}, resp));
}

TEST(Protocol, SwapRespRoundTrip) {
  std::vector<std::uint8_t> frame;
  encode_swap_resp(frame, true, "version 4");
  bool ok = false;
  std::string message;
  ASSERT_TRUE(decode_swap_resp({frame.data() + 5, frame.size() - 5}, ok, message));
  EXPECT_TRUE(ok);
  EXPECT_EQ(message, "version 4");

  frame.clear();
  encode_swap_resp(frame, false, "pnm-model: bad header");
  ASSERT_TRUE(decode_swap_resp({frame.data() + 5, frame.size() - 5}, ok, message));
  EXPECT_FALSE(ok);
  EXPECT_EQ(message, "pnm-model: bad header");

  EXPECT_FALSE(decode_swap_resp({}, ok, message));
}

TEST(Protocol, DecodePredictRejectsMalformedPayloads) {
  std::vector<std::uint8_t> frame;
  encode_predict(frame, 1, std::vector<double>{0.5, 0.5});
  std::uint32_t id = 0;
  std::vector<double> features;

  // Truncated payload (count disagrees with byte length).
  EXPECT_FALSE(decode_predict({frame.data() + 5, frame.size() - 5 - 8}, id, features));
  // Declared count too large for the payload.
  std::vector<std::uint8_t> lying(frame.begin() + 5, frame.end());
  lying[4] = 200;  // n_features LE byte 0
  EXPECT_FALSE(decode_predict(lying, id, features));
  // Payload shorter than the fixed header.
  EXPECT_FALSE(decode_predict({frame.data() + 5, std::size_t{7}}, id, features));
}

TEST(Protocol, PredictV2RoundTrip) {
  std::vector<std::uint8_t> frame;
  const std::vector<double> features = {0.5, 0.125, 1.0};
  encode_predict_v2(frame, 41, "beta", features);

  // Layout: u32 len | u8 type | u32 id | u8 name_len | name | u32 n | n x f64.
  ASSERT_EQ(frame.size(), 4U + 1U + 4U + 1U + 4U + 4U + features.size() * 8U);
  EXPECT_EQ(frame[4], static_cast<std::uint8_t>(FrameType::kPredictV2));

  std::uint32_t id = 0;
  std::string name;
  std::vector<double> back;
  ASSERT_TRUE(decode_predict_v2({frame.data() + 5, frame.size() - 5}, id, name, back));
  EXPECT_EQ(id, 41U);
  EXPECT_EQ(name, "beta");
  ASSERT_EQ(back.size(), features.size());
  for (std::size_t i = 0; i < features.size(); ++i) {
    EXPECT_EQ(back[i], features[i]);  // IEEE-754 bit pattern, exact
  }

  // An empty name is legal (routes to the default model)...
  frame.clear();
  encode_predict_v2(frame, 7, "", features);
  ASSERT_TRUE(decode_predict_v2({frame.data() + 5, frame.size() - 5}, id, name, back));
  EXPECT_TRUE(name.empty());
  // ...and a name beyond the u8 length field is refused at encode time.
  EXPECT_THROW(encode_predict_v2(frame, 7, std::string(kMaxModelName + 1, 'x'), features),
               std::invalid_argument);
}

TEST(Protocol, DecodePredictV2RejectsMalformedPayloads) {
  std::vector<std::uint8_t> frame;
  encode_predict_v2(frame, 1, "m", std::vector<double>{0.5, 0.5});
  std::uint32_t id = 0;
  std::string name;
  std::vector<double> features;

  // Truncated payload (count disagrees with byte length).
  EXPECT_FALSE(
      decode_predict_v2({frame.data() + 5, frame.size() - 5 - 8}, id, name, features));
  // Name length pointing past the payload end.
  std::vector<std::uint8_t> lying(frame.begin() + 5, frame.end());
  lying[4] = 255;  // name_len
  EXPECT_FALSE(decode_predict_v2(lying, id, name, features));
  // Declared feature count too large for the payload.
  lying.assign(frame.begin() + 5, frame.end());
  lying[6] = 200;  // n_features LE byte 0 (after id + name_len + 1-byte name)
  EXPECT_FALSE(decode_predict_v2(lying, id, name, features));
  // Payload shorter than the fixed header.
  EXPECT_FALSE(decode_predict_v2({frame.data() + 5, std::size_t{4}}, id, name, features));
}

TEST(Protocol, SwapV2RoundTrip) {
  std::vector<std::uint8_t> frame;
  encode_swap_req_v2(frame, "beta", "/tmp/next.pnm");
  EXPECT_EQ(frame[4], static_cast<std::uint8_t>(FrameType::kSwapV2));
  std::string name;
  std::string path;
  ASSERT_TRUE(decode_swap_v2({frame.data() + 5, frame.size() - 5}, name, path));
  EXPECT_EQ(name, "beta");
  EXPECT_EQ(path, "/tmp/next.pnm");

  // Name length overrunning the payload is refused.
  std::vector<std::uint8_t> lying(frame.begin() + 5, frame.end());
  lying[0] = 255;
  EXPECT_FALSE(decode_swap_v2(lying, name, path));
  EXPECT_FALSE(decode_swap_v2({}, name, path));
}

TEST(Protocol, ErrorV2RoundTrip) {
  std::vector<std::uint8_t> frame;
  encode_error_v2(frame, ErrorCode::kUnknownModel, "unknown model: gamma");
  EXPECT_EQ(frame[4], static_cast<std::uint8_t>(FrameType::kErrorV2));
  ErrorCode code = ErrorCode::kMalformedFrame;
  std::string message;
  ASSERT_TRUE(decode_error_v2({frame.data() + 5, frame.size() - 5}, code, message));
  EXPECT_EQ(code, ErrorCode::kUnknownModel);
  EXPECT_EQ(message, "unknown model: gamma");
  EXPECT_FALSE(decode_error_v2({}, code, message));
}

TEST(FrameReader, ReassemblesAcrossArbitraryFragmentation) {
  // Three different frames back to back.
  std::vector<std::uint8_t> stream;
  encode_predict(stream, 1, std::vector<double>{0.1, 0.9});
  encode_stats_req(stream);
  encode_swap_req(stream, "/tmp/next-model.pnm");

  for (const std::size_t step : {std::size_t{1}, std::size_t{3}, std::size_t{7}, stream.size()}) {
    FrameReader reader;
    Collected got;
    ASSERT_TRUE(feed_in_steps(reader, stream, step, got)) << "step " << step;
    ASSERT_EQ(got.types.size(), 3U) << "step " << step;
    EXPECT_EQ(got.types[0], FrameType::kPredict);
    EXPECT_EQ(got.types[1], FrameType::kStats);
    EXPECT_EQ(got.types[2], FrameType::kSwap);
    const std::string path(got.payloads[2].begin(), got.payloads[2].end());
    EXPECT_EQ(path, "/tmp/next-model.pnm");
    EXPECT_FALSE(reader.mid_frame());
  }
}

TEST(FrameReader, DetectsTruncatedFrameAtClose) {
  std::vector<std::uint8_t> frame;
  encode_predict(frame, 1, std::vector<double>{0.5});
  FrameReader reader;
  Collected got;
  // Deliver all but the last byte: no frame fires, reader is mid-frame.
  ASSERT_TRUE(feed_in_steps(reader, {frame.begin(), frame.end() - 1}, 4, got));
  EXPECT_TRUE(got.types.empty());
  EXPECT_TRUE(reader.mid_frame());
}

TEST(FrameReader, ZeroLengthFramePoisons) {
  const std::vector<std::uint8_t> zero = {0, 0, 0, 0};
  FrameReader reader;
  Collected got;
  EXPECT_FALSE(feed_in_steps(reader, zero, 4, got));
  EXPECT_TRUE(got.types.empty());
  // Poisoned: even valid bytes are refused afterwards.
  std::vector<std::uint8_t> fine;
  encode_stats_req(fine);
  EXPECT_FALSE(feed_in_steps(reader, fine, fine.size(), got));
}

TEST(FrameReader, OversizedFramePoisonsBeforeBuffering) {
  std::vector<std::uint8_t> huge;
  append_u32(huge, 1 << 30);  // 1 GiB declared; only the header is sent
  FrameReader reader(1 << 10);
  Collected got;
  EXPECT_FALSE(feed_in_steps(reader, huge, 4, got));
  EXPECT_TRUE(got.types.empty());
}

TEST(FrameReader, RespectsCustomCap) {
  std::vector<std::uint8_t> frame;
  encode_swap_req(frame, std::string(64, 'x'));
  {
    FrameReader small(16);
    Collected got;
    EXPECT_FALSE(feed_in_steps(small, frame, frame.size(), got));
  }
  {
    FrameReader big(1 << 10);
    Collected got;
    EXPECT_TRUE(feed_in_steps(big, frame, frame.size(), got));
    ASSERT_EQ(got.types.size(), 1U);
  }
}

TEST(FrameReader, NextPullsEveryFrameOfOneChunkThenNeedsMore) {
  std::vector<std::uint8_t> stream;
  for (std::uint32_t id = 0; id < 5; ++id) encode_predict_resp(stream, id, 2, id + 10);
  encode_stats_req(stream);
  FrameReader reader;
  reader.append(stream.data(), stream.size() - 1);  // the stats frame is cut short
  FrameReader::Frame frame;
  for (std::uint32_t id = 0; id < 5; ++id) {
    ASSERT_EQ(reader.next(frame), FrameReader::Status::kFrame);
    EXPECT_EQ(frame.type, FrameType::kPredictResp);
    PredictResponse resp;
    ASSERT_TRUE(decode_predict_resp(frame.payload, resp));
    EXPECT_EQ(resp.id, id);
    EXPECT_EQ(resp.predicted_class, id + 10);
  }
  EXPECT_EQ(reader.next(frame), FrameReader::Status::kNeedMore);
  EXPECT_TRUE(reader.mid_frame());
  reader.append(&stream.back(), 1);
  ASSERT_EQ(reader.next(frame), FrameReader::Status::kFrame);
  EXPECT_EQ(frame.type, FrameType::kStats);
  EXPECT_TRUE(frame.payload.empty());
  EXPECT_EQ(reader.next(frame), FrameReader::Status::kNeedMore);
  EXPECT_FALSE(reader.mid_frame());
}

TEST(FrameReader, InPlaceReceivesMatchFeed) {
  // The recv-style path (prepare + commit into the reader's own buffer)
  // must cut the stream into exactly the frames feed() does, including
  // when a partial frame has to slide to the front of the buffer.
  std::vector<std::uint8_t> stream;
  for (std::uint32_t id = 0; id < 40; ++id) {
    encode_predict(stream, id, std::vector<double>(id % 7, 0.25));
    encode_swap_resp(stream, id % 2 == 0, std::string(id, 'm'));
  }
  for (const std::size_t step : {std::size_t{1}, std::size_t{5}, std::size_t{64}, std::size_t{333}}) {
    FrameReader fed;
    Collected want;
    ASSERT_TRUE(feed_in_steps(fed, stream, step, want));
    ASSERT_EQ(want.types.size(), 80U);

    FrameReader pulled;
    Collected got;
    FrameReader::Frame frame;
    for (std::size_t off = 0; off < stream.size();) {
      const std::span<std::uint8_t> space = pulled.prepare(16);
      ASSERT_GE(space.size(), 16U);
      const std::size_t take = std::min({step, stream.size() - off, space.size()});
      std::copy_n(stream.begin() + static_cast<std::ptrdiff_t>(off), take, space.begin());
      pulled.commit(take);
      off += take;
      while (pulled.next(frame) == FrameReader::Status::kFrame) {
        got.types.push_back(frame.type);
        got.payloads.emplace_back(frame.payload.begin(), frame.payload.end());
      }
    }
    EXPECT_EQ(got.types, want.types) << "step " << step;
    EXPECT_EQ(got.payloads, want.payloads) << "step " << step;
    EXPECT_FALSE(pulled.mid_frame());
  }
}

TEST(FrameReader, PoisonIsStickyUntilReset) {
  std::vector<std::uint8_t> bad;
  append_u32(bad, 0);
  std::vector<std::uint8_t> fine;
  encode_stats_req(fine);
  FrameReader reader;
  reader.append(fine.data(), fine.size());
  reader.append(bad.data(), bad.size());
  FrameReader::Frame frame;
  ASSERT_EQ(reader.next(frame), FrameReader::Status::kFrame);  // frames before it still count
  EXPECT_EQ(reader.next(frame), FrameReader::Status::kPoisoned);
  reader.append(fine.data(), fine.size());
  EXPECT_EQ(reader.next(frame), FrameReader::Status::kPoisoned);
  EXPECT_FALSE(reader.mid_frame());  // the buffered bytes were discarded

  reader.reset();  // a new stream starts clean
  reader.append(fine.data(), fine.size());
  ASSERT_EQ(reader.next(frame), FrameReader::Status::kFrame);
  EXPECT_EQ(frame.type, FrameType::kStats);
}

}  // namespace
}  // namespace pnm::serve
