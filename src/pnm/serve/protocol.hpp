#ifndef PNM_SERVE_PROTOCOL_HPP
#define PNM_SERVE_PROTOCOL_HPP

/// \file protocol.hpp
/// \brief The serve wire protocol: length-prefixed frames over TCP.
///
/// Every message in either direction is one frame:
///
///     u32 length   | bytes that follow (type byte + payload); [1, max]
///     u8  type     | FrameType
///     ...payload   | type-specific, little-endian, packed
///
/// Request payloads (protocol v1 — route to the server's default model):
///   kPredict:  u32 request-id, u32 n_features, n_features x f64 (IEEE-754
///              bits) — features min-max scaled to [0, 1]; the server
///              quantizes with the live model's input_bits, exactly like
///              the offline QuantizedDataset encoder.
///   kStats:    empty — admin: metrics snapshot.
///   kSwap:     UTF-8 path of a pnm-model file — admin: hot-swap the
///              default model.
///
/// Request payloads (protocol v2 — name a model in the registry; an empty
/// name means the default model, so v2 is a strict superset of v1):
///   kPredictV2: u32 request-id, u8 name-length, name bytes (UTF-8,
///               <= kMaxModelName), u32 n_features, n_features x f64.
///   kSwapV2:    u8 name-length, name bytes, then the UTF-8 model-file
///               path — admin: hot-swap exactly that model (other models'
///               versions are untouched).
///
/// Response payloads:
///   kPredictResp: u32 request-id (echoed), u32 model-version, u32 class.
///                 The version tag is what makes hot-swap verifiable: a
///                 client can check every response bit-exactly against the
///                 offline prediction of the *specific* design that served
///                 it, so a misrouted or torn swap is machine-detectable.
///                 Versions are per model name — the (requested model,
///                 version) pair identifies one immutable design.
///   kStatsResp:   UTF-8 JSON document (see ServeMetrics::to_json).
///   kSwapResp:    u8 ok, then a UTF-8 message (new version or the load
///                 error; on failure the old model keeps serving).
///   kError:       UTF-8 message; the server closes the connection after
///                 sending it (protocol violations are not recoverable
///                 mid-stream — framing may be lost).
///   kErrorV2:     u8 ErrorCode, then a UTF-8 message.  Sent for
///                 *request-level* failures of v2 requests (unknown model
///                 name, feature-width mismatch): the connection stays up
///                 and the next valid request is served normally.
///
/// Integers are little-endian; doubles are their IEEE-754 bit pattern,
/// little-endian.  The decoder never trusts the peer: lengths are bounded
/// before buffering, counts are cross-checked against the frame length,
/// and any violation is surfaced as a typed error, not a crash.

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace pnm::serve {

/// Frame type tags (first payload byte).
enum class FrameType : std::uint8_t {
  kPredict = 1,
  kPredictResp = 2,
  kStats = 3,
  kStatsResp = 4,
  kSwap = 5,
  kSwapResp = 6,
  kError = 7,
  kPredictV2 = 8,  ///< predict with an explicit model name
  kSwapV2 = 9,     ///< hot-swap a named model
  kErrorV2 = 10,   ///< typed request-level error (connection survives)
};

/// Machine-readable reason codes for kErrorV2 frames.
enum class ErrorCode : std::uint8_t {
  kMalformedFrame = 1,  ///< payload failed structural validation
  kUnknownModel = 2,    ///< model name not in the registry
  kWidthMismatch = 3,   ///< feature count != the serving model's input size
};

/// Default cap on one frame's post-length bytes.  Predict frames are tiny
/// (a few hundred bytes for printed-MLP feature counts); 1 MiB leaves
/// headroom without letting a client balloon server memory.
constexpr std::size_t kDefaultMaxFrameBytes = 1 << 20;

/// Hard cap on kPredict feature counts (sanity bound, far above any
/// printed classifier).
constexpr std::size_t kMaxFeatures = 1 << 14;

/// Cap on model-name length in v2 frames (fits the u8 length field).
constexpr std::size_t kMaxModelName = 255;

// ---- little-endian primitives ------------------------------------------

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v);
void append_f64(std::vector<std::uint8_t>& out, double v);
std::uint32_t read_u32(const std::uint8_t* p);
double read_f64(const std::uint8_t* p);

// ---- frame encoders (append one complete frame to `out`) ---------------

/// kPredict frame.
void encode_predict(std::vector<std::uint8_t>& out, std::uint32_t id,
                    std::span<const double> features);
/// kPredictV2 frame (named model; "" = default).
/// \throws std::invalid_argument  when `model_name` exceeds kMaxModelName.
void encode_predict_v2(std::vector<std::uint8_t>& out, std::uint32_t id,
                       const std::string& model_name, std::span<const double> features);
/// kPredictResp frame.
void encode_predict_resp(std::vector<std::uint8_t>& out, std::uint32_t id,
                         std::uint32_t model_version, std::uint32_t predicted_class);
/// kStats request frame.
void encode_stats_req(std::vector<std::uint8_t>& out);
/// kSwap request frame.
void encode_swap_req(std::vector<std::uint8_t>& out, const std::string& model_path);
/// kSwapV2 request frame (named model; "" = default).
/// \throws std::invalid_argument  when `model_name` exceeds kMaxModelName.
void encode_swap_req_v2(std::vector<std::uint8_t>& out, const std::string& model_name,
                        const std::string& model_path);
/// kStatsResp / kSwapResp / kError frame with a raw byte payload.
void encode_payload_frame(std::vector<std::uint8_t>& out, FrameType type,
                          std::span<const std::uint8_t> payload);
/// kSwapResp frame.
void encode_swap_resp(std::vector<std::uint8_t>& out, bool ok, const std::string& message);
/// kError frame.
void encode_error(std::vector<std::uint8_t>& out, const std::string& message);
/// kErrorV2 frame.
void encode_error_v2(std::vector<std::uint8_t>& out, ErrorCode code,
                     const std::string& message);

// ---- payload decoders ---------------------------------------------------

/// Decodes a kPredict payload (bytes after the type tag) into `id` and
/// `features` (reused, resized).  False when the declared feature count
/// disagrees with the payload size or exceeds kMaxFeatures.
bool decode_predict(std::span<const std::uint8_t> payload, std::uint32_t& id,
                    std::vector<double>& features);

/// Decodes a kPredictV2 payload into `id`, `model_name` (reused), and
/// `features` (reused, resized).  False when the name length overruns the
/// payload or the feature count disagrees with the remaining size.
bool decode_predict_v2(std::span<const std::uint8_t> payload, std::uint32_t& id,
                       std::string& model_name, std::vector<double>& features);

/// Decodes a kSwapV2 payload into `model_name` and `model_path`.  False
/// when the name length overruns the payload.
bool decode_swap_v2(std::span<const std::uint8_t> payload, std::string& model_name,
                    std::string& model_path);

/// Decodes a kErrorV2 payload.  False on an empty payload.
bool decode_error_v2(std::span<const std::uint8_t> payload, ErrorCode& code,
                     std::string& message);

/// Decoded kPredictResp payload.
struct PredictResponse {
  std::uint32_t id = 0;
  std::uint32_t model_version = 0;
  std::uint32_t predicted_class = 0;
};

/// Decodes a kPredictResp payload.  False on size mismatch.
bool decode_predict_resp(std::span<const std::uint8_t> payload, PredictResponse& out);

/// Decodes a kSwapResp payload.  False on empty payload.
bool decode_swap_resp(std::span<const std::uint8_t> payload, bool& ok, std::string& message);

// ---- incremental frame reassembly ---------------------------------------

/// Reassembles frames from an arbitrary byte stream — the one framing
/// rule both ends of a serve connection share.  Bytes go in by copy
/// (append) or straight from recv(2) into the reader's own buffer
/// (prepare + commit); next() pulls one complete frame at a time, so a
/// single recv of a pipelined burst yields every frame in it.  A frame
/// whose declared length is 0 or exceeds the cap poisons the reader
/// (framing is unrecoverable): next() reports kPoisoned from then on, the
/// buffered bytes are discarded, and later bytes are ignored.
class FrameReader {
 public:
  using FrameHandler = std::function<void(FrameType, std::span<const std::uint8_t>)>;

  /// Outcome of one next() call.
  enum class Status : std::uint8_t {
    kFrame,     ///< a complete frame was returned
    kNeedMore,  ///< no complete frame is buffered yet
    kPoisoned,  ///< framing violation; the stream must be dropped
  };

  /// One complete frame.  `payload` (the bytes after the type tag) views
  /// the reader's buffer: valid until the next append, prepare, or reset.
  struct Frame {
    FrameType type = FrameType::kError;
    std::span<const std::uint8_t> payload;
  };

  /// \param max_frame_bytes  cap on one frame's post-length byte count.
  explicit FrameReader(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Pulls the next complete frame out of the buffered bytes.  The length
  /// is checked as soon as its 4 bytes are buffered, before any body is.
  Status next(Frame& out);

  /// Buffers a copy of `n` received bytes (dropped once poisoned).
  void append(const std::uint8_t* data, std::size_t n);

  /// Writable space of at least `min_bytes` after the buffered bytes, for
  /// recv(2) to fill in place; report the bytes written with commit().
  /// Invalidates payload spans returned earlier.
  std::span<std::uint8_t> prepare(std::size_t min_bytes);

  /// Marks `n` bytes of the last prepare() span as received.
  void commit(std::size_t n);

  /// Consumes `n` raw bytes, dispatching every completed frame: append()
  /// and then next() until it needs more bytes.
  ///
  /// \param data      received bytes.
  /// \param n         byte count.
  /// \param on_frame  called with (type, payload-after-type) per frame.
  /// \return false on a framing violation (reader is poisoned).
  bool feed(const std::uint8_t* data, std::size_t n, const FrameHandler& on_frame);

  /// Whether a partially-received frame is pending — at connection close
  /// this distinguishes a clean disconnect from a truncated frame.
  [[nodiscard]] bool mid_frame() const { return head_ != tail_; }

  /// Empties the reader and clears poisoning: the start of a new stream.
  void reset();

 private:
  std::size_t max_frame_bytes_;
  std::vector<std::uint8_t> buf_;  ///< size() is the capacity in use
  std::size_t head_ = 0;           ///< first unread byte
  std::size_t tail_ = 0;           ///< one past the last received byte
  bool poisoned_ = false;
};

}  // namespace pnm::serve

#endif  // PNM_SERVE_PROTOCOL_HPP
