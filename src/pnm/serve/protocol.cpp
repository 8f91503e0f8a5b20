#include "pnm/serve/protocol.hpp"

#include <cstring>
#include <stdexcept>

namespace pnm::serve {

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 24) & 0xff));
}

void append_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>((bits >> (8 * i)) & 0xff));
  }
}

std::uint32_t read_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

double read_f64(const std::uint8_t* p) {
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) bits |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

namespace {

/// Appends the frame header (length + type) for a payload of `n` bytes.
void append_header(std::vector<std::uint8_t>& out, FrameType type, std::size_t n) {
  append_u32(out, static_cast<std::uint32_t>(n + 1));  // +1 for the type byte
  out.push_back(static_cast<std::uint8_t>(type));
}

}  // namespace

void encode_predict(std::vector<std::uint8_t>& out, std::uint32_t id,
                    std::span<const double> features) {
  append_header(out, FrameType::kPredict, 8 + features.size() * 8);
  append_u32(out, id);
  append_u32(out, static_cast<std::uint32_t>(features.size()));
  for (const double f : features) append_f64(out, f);
}

void encode_predict_v2(std::vector<std::uint8_t>& out, std::uint32_t id,
                       const std::string& model_name, std::span<const double> features) {
  if (model_name.size() > kMaxModelName) {
    throw std::invalid_argument("encode_predict_v2: model name too long");
  }
  append_header(out, FrameType::kPredictV2, 4 + 1 + model_name.size() + 4 + features.size() * 8);
  append_u32(out, id);
  out.push_back(static_cast<std::uint8_t>(model_name.size()));
  out.insert(out.end(), model_name.begin(), model_name.end());
  append_u32(out, static_cast<std::uint32_t>(features.size()));
  for (const double f : features) append_f64(out, f);
}

void encode_predict_resp(std::vector<std::uint8_t>& out, std::uint32_t id,
                         std::uint32_t model_version, std::uint32_t predicted_class) {
  append_header(out, FrameType::kPredictResp, 12);
  append_u32(out, id);
  append_u32(out, model_version);
  append_u32(out, predicted_class);
}

void encode_stats_req(std::vector<std::uint8_t>& out) {
  append_header(out, FrameType::kStats, 0);
}

void encode_swap_req(std::vector<std::uint8_t>& out, const std::string& model_path) {
  append_header(out, FrameType::kSwap, model_path.size());
  out.insert(out.end(), model_path.begin(), model_path.end());
}

void encode_swap_req_v2(std::vector<std::uint8_t>& out, const std::string& model_name,
                        const std::string& model_path) {
  if (model_name.size() > kMaxModelName) {
    throw std::invalid_argument("encode_swap_req_v2: model name too long");
  }
  append_header(out, FrameType::kSwapV2, 1 + model_name.size() + model_path.size());
  out.push_back(static_cast<std::uint8_t>(model_name.size()));
  out.insert(out.end(), model_name.begin(), model_name.end());
  out.insert(out.end(), model_path.begin(), model_path.end());
}

void encode_payload_frame(std::vector<std::uint8_t>& out, FrameType type,
                          std::span<const std::uint8_t> payload) {
  append_header(out, type, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
}

void encode_swap_resp(std::vector<std::uint8_t>& out, bool ok, const std::string& message) {
  append_header(out, FrameType::kSwapResp, 1 + message.size());
  out.push_back(ok ? 1 : 0);
  out.insert(out.end(), message.begin(), message.end());
}

void encode_error(std::vector<std::uint8_t>& out, const std::string& message) {
  append_header(out, FrameType::kError, message.size());
  out.insert(out.end(), message.begin(), message.end());
}

void encode_error_v2(std::vector<std::uint8_t>& out, ErrorCode code,
                     const std::string& message) {
  append_header(out, FrameType::kErrorV2, 1 + message.size());
  out.push_back(static_cast<std::uint8_t>(code));
  out.insert(out.end(), message.begin(), message.end());
}

bool decode_predict(std::span<const std::uint8_t> payload, std::uint32_t& id,
                    std::vector<double>& features) {
  if (payload.size() < 8) return false;
  id = read_u32(payload.data());
  const std::uint32_t n = read_u32(payload.data() + 4);
  if (n > kMaxFeatures) return false;
  if (payload.size() != 8 + static_cast<std::size_t>(n) * 8) return false;
  features.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    features[i] = read_f64(payload.data() + 8 + static_cast<std::size_t>(i) * 8);
  }
  return true;
}

bool decode_predict_v2(std::span<const std::uint8_t> payload, std::uint32_t& id,
                       std::string& model_name, std::vector<double>& features) {
  if (payload.size() < 5) return false;
  id = read_u32(payload.data());
  const std::size_t name_len = payload[4];
  if (payload.size() < 5 + name_len + 4) return false;
  model_name.assign(reinterpret_cast<const char*>(payload.data() + 5), name_len);
  const std::uint32_t n = read_u32(payload.data() + 5 + name_len);
  if (n > kMaxFeatures) return false;
  if (payload.size() != 5 + name_len + 4 + static_cast<std::size_t>(n) * 8) return false;
  features.resize(n);
  const std::uint8_t* base = payload.data() + 5 + name_len + 4;
  for (std::uint32_t i = 0; i < n; ++i) {
    features[i] = read_f64(base + static_cast<std::size_t>(i) * 8);
  }
  return true;
}

bool decode_swap_v2(std::span<const std::uint8_t> payload, std::string& model_name,
                    std::string& model_path) {
  if (payload.empty()) return false;
  const std::size_t name_len = payload[0];
  if (payload.size() < 1 + name_len) return false;
  model_name.assign(reinterpret_cast<const char*>(payload.data() + 1), name_len);
  model_path.assign(reinterpret_cast<const char*>(payload.data() + 1 + name_len),
                    payload.size() - 1 - name_len);
  return true;
}

bool decode_error_v2(std::span<const std::uint8_t> payload, ErrorCode& code,
                     std::string& message) {
  if (payload.empty()) return false;
  code = static_cast<ErrorCode>(payload[0]);
  message.assign(payload.begin() + 1, payload.end());
  return true;
}

bool decode_predict_resp(std::span<const std::uint8_t> payload, PredictResponse& out) {
  if (payload.size() != 12) return false;
  out.id = read_u32(payload.data());
  out.model_version = read_u32(payload.data() + 4);
  out.predicted_class = read_u32(payload.data() + 8);
  return true;
}

bool decode_swap_resp(std::span<const std::uint8_t> payload, bool& ok, std::string& message) {
  if (payload.empty()) return false;
  ok = payload[0] != 0;
  message.assign(payload.begin() + 1, payload.end());
  return true;
}

FrameReader::Status FrameReader::next(Frame& out) {
  if (poisoned_) return Status::kPoisoned;
  const std::size_t avail = tail_ - head_;
  if (avail < 4) return Status::kNeedMore;
  const std::uint32_t len = read_u32(buf_.data() + head_);
  if (len == 0 || len > max_frame_bytes_) {
    poisoned_ = true;
    head_ = tail_ = 0;
    return Status::kPoisoned;
  }
  if (avail - 4 < len) return Status::kNeedMore;
  out.type = static_cast<FrameType>(buf_[head_ + 4]);
  out.payload = std::span<const std::uint8_t>(buf_.data() + head_ + 5, len - 1);
  head_ += 4 + static_cast<std::size_t>(len);
  if (head_ == tail_) head_ = tail_ = 0;  // the span stays valid: no bytes move
  return Status::kFrame;
}

std::span<std::uint8_t> FrameReader::prepare(std::size_t min_bytes) {
  if (buf_.size() - tail_ < min_bytes && head_ > 0) {
    // Slide the partial frame to the front before growing.
    std::memmove(buf_.data(), buf_.data() + head_, tail_ - head_);
    tail_ -= head_;
    head_ = 0;
  }
  if (buf_.size() - tail_ < min_bytes) buf_.resize(tail_ + min_bytes);
  return std::span<std::uint8_t>(buf_.data() + tail_, buf_.size() - tail_);
}

void FrameReader::commit(std::size_t n) {
  if (!poisoned_) tail_ += n;
}

void FrameReader::append(const std::uint8_t* data, std::size_t n) {
  if (poisoned_ || n == 0) return;
  std::memcpy(prepare(n).data(), data, n);
  commit(n);
}

bool FrameReader::feed(const std::uint8_t* data, std::size_t n, const FrameHandler& on_frame) {
  append(data, n);
  Frame frame;
  for (;;) {
    switch (next(frame)) {
      case Status::kFrame:
        on_frame(frame.type, frame.payload);
        break;
      case Status::kNeedMore:
        return true;
      case Status::kPoisoned:
        return false;
    }
  }
}

void FrameReader::reset() {
  head_ = tail_ = 0;
  poisoned_ = false;
}

}  // namespace pnm::serve
