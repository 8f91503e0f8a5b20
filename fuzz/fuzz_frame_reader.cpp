/// Fuzz target: serve::FrameReader (feed and the pull-style next) + the
/// payload decoders.
///
/// Structure-aware split: the first input byte seeds a deterministic
/// chunker, so one corpus entry exercises many fragmentation patterns of
/// the same byte stream across mutations (reassembly joins are where
/// incremental parsers break).  Every completed frame is pushed through
/// the real payload decoders, and two invariants are enforced with
/// abort(): a poisoned reader must stay poisoned, and a dispatched
/// payload must never exceed the frame cap.  A second reader receives the
/// same chunks in place (prepare + commit) and drains them with next();
/// any difference from feed() in the frames or in when the stream is
/// poisoned is also an abort().

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "pnm/serve/protocol.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  if (size == 0) return 0;
  const std::uint8_t chunk_seed = data[0];
  ++data;
  --size;

  constexpr std::size_t kCap = 1 << 16;
  pnm::serve::FrameReader reader(kCap);

  std::uint32_t id = 0;
  std::vector<double> features;
  pnm::serve::PredictResponse resp;
  bool ok_flag = false;
  std::string message;

  const auto handler = [&](pnm::serve::FrameType type,
                           std::span<const std::uint8_t> payload) {
    if (payload.size() >= kCap) abort();  // cap must bound every dispatch
    switch (type) {
      case pnm::serve::FrameType::kPredict:
        (void)pnm::serve::decode_predict(payload, id, features);
        break;
      case pnm::serve::FrameType::kPredictResp:
        (void)pnm::serve::decode_predict_resp(payload, resp);
        break;
      case pnm::serve::FrameType::kSwapResp:
        (void)pnm::serve::decode_swap_resp(payload, ok_flag, message);
        break;
      default:
        break;  // kStats/kSwap/kError payloads are free-form bytes
    }
  };

  // A second reader takes the same chunks through the pull path: received
  // in place (prepare + commit) and drained with next().  Both must cut
  // the stream into the same frames and poison at the same chunk.
  pnm::serve::FrameReader puller(kCap);
  std::vector<std::vector<std::uint8_t>> fed_frames;
  std::vector<std::vector<std::uint8_t>> pulled_frames;
  const auto record = [&](std::vector<std::vector<std::uint8_t>>& out,
                          pnm::serve::FrameType type, std::span<const std::uint8_t> payload) {
    std::vector<std::uint8_t> frame{static_cast<std::uint8_t>(type)};
    frame.insert(frame.end(), payload.begin(), payload.end());
    out.push_back(std::move(frame));
  };

  std::uint64_t rng = (static_cast<std::uint64_t>(chunk_seed) << 1) | 1;
  std::size_t pos = 0;
  bool alive = true;
  while (pos < size && alive) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    const std::size_t chunk = std::min<std::size_t>(1 + (rng >> 33) % 37, size - pos);
    alive = reader.feed(data + pos, chunk,
                        [&](pnm::serve::FrameType type, std::span<const std::uint8_t> payload) {
                          handler(type, payload);
                          record(fed_frames, type, payload);
                        });

    const std::span<std::uint8_t> space = puller.prepare(chunk);
    std::memcpy(space.data(), data + pos, chunk);
    puller.commit(chunk);
    pnm::serve::FrameReader::Frame frame;
    pnm::serve::FrameReader::Status status = pnm::serve::FrameReader::Status::kNeedMore;
    while ((status = puller.next(frame)) == pnm::serve::FrameReader::Status::kFrame) {
      record(pulled_frames, frame.type, frame.payload);
    }
    const bool pulled_alive = status != pnm::serve::FrameReader::Status::kPoisoned;
    if (pulled_alive != alive || pulled_frames != fed_frames) abort();
    if (puller.mid_frame() != reader.mid_frame()) abort();
    pos += chunk;
  }
  (void)reader.mid_frame();
  if (!alive && reader.feed(data, size, handler)) abort();  // poison is sticky
  return 0;
}
