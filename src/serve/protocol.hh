/**
 * @file
 * Wire protocol of the champion-serving inference server.
 *
 * Framing: each message is a 4-byte little-endian payload length
 * followed by that many payload bytes. Lengths above kMaxFrameBytes
 * are rejected before any allocation, so a corrupt or hostile peer
 * cannot make the server buffer an arbitrary amount.
 *
 * Payloads are little-endian binary. Doubles travel as their IEEE-754
 * bit patterns (not decimal text), so an observation round-trips
 * bit-exactly — the precondition for the serving determinism contract
 * (same champion fingerprint + same observation bytes => bit-identical
 * action bytes, regardless of batching).
 *
 * Request:  u32 kind (kInferKind) | u64 requestId | u64 fingerprint |
 *           u32 numObs | numObs x u64 (double bits)
 * Response: u32 status | u64 requestId | u32 numActions |
 *           numActions x u64 (double bits) | u32 msgLen | msg bytes
 *
 * Encode/decode are pure functions over byte strings; the socket layer
 * only moves frames. Malformed payloads decode to an error Status —
 * never a crash — because the bytes come off the network.
 */

#ifndef E3_SERVE_PROTOCOL_HH
#define E3_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hh"

namespace e3::serve {

/** Hard ceiling on one frame's payload size. */
inline constexpr uint32_t kMaxFrameBytes = 1u << 20;

/** The only request kind so far: run one inference. */
inline constexpr uint32_t kInferKind = 1;

/** Response status codes (stable wire values). */
enum class StatusCode : uint32_t
{
    Ok = 0,
    /**
     * Retriable refusal under load. This server queues nothing and
     * never sends it; the value stays reserved on the wire.
     */
    Overloaded = 1,
    /** No loaded champion has the requested fingerprint. */
    UnknownChampion = 2,
    /** Malformed request (bad kind, wrong observation arity). */
    BadRequest = 3,
    /** Server is shutting down; not retriable on this connection. */
    Draining = 4,
};

/** "ok" / "overloaded" / ... for logs and bench output. */
std::string statusCodeName(StatusCode code);

/** One observation -> action request. */
struct InferRequest
{
    uint64_t requestId = 0;
    uint64_t fingerprint = 0; ///< champion identity (manifest hash)
    std::vector<double> observation;
};

/** The server's answer. */
struct InferResponse
{
    StatusCode status = StatusCode::Ok;
    uint64_t requestId = 0;
    std::vector<double> action; ///< empty unless status == Ok
    std::string message;        ///< diagnostic for non-Ok statuses
};

/** Serialize a request payload (no frame header). */
std::string encodeRequest(const InferRequest &request);

/** Parse a request payload; malformed bytes are an error. */
Result<InferRequest> decodeRequest(const std::string &payload);

/** Serialize a response payload (no frame header). */
std::string encodeResponse(const InferResponse &response);

/** Parse a response payload; malformed bytes are an error. */
Result<InferResponse> decodeResponse(const std::string &payload);

/** Prefix @p payload with its length header. */
std::string frame(const std::string &payload);

/**
 * Incremental frame reassembly for a byte stream. feed() appends
 * received bytes; next() pops the earliest complete payload. An
 * oversized length header poisons the stream (error on next()), since
 * resynchronizing inside a byte stream is not possible.
 */
class FrameReader
{
  public:
    /** Append bytes received from the peer. */
    void feed(const char *data, size_t size);

    /**
     * Pop one complete payload into @p payload.
     * @return true if a full frame was available; false if more bytes
     *         are needed; an error if the stream is poisoned by an
     *         oversized or malformed length header.
     */
    Result<bool> next(std::string &payload);

    /** Bytes buffered but not yet consumed. */
    size_t pending() const { return buffer_.size(); }

  private:
    std::string buffer_;
    bool poisoned_ = false;
    std::string poisonReason_;
};

} // namespace e3::serve

#endif // E3_SERVE_PROTOCOL_HH
