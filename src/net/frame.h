#ifndef HOTMAN_NET_FRAME_H_
#define HOTMAN_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "common/status.h"
#include "net/message.h"

namespace hotman::net {

/// Wire framing for net::Message over a byte stream (see DESIGN.md "net"):
///
///   u32-LE payload_len | payload (one BSON document)
///
/// The payload is the envelope {"f": from, "t": to, "y": type, "s": sent_at,
/// "b": body}, encoded with bson::codec — the same hardened codec the
/// storage layer uses, so a hostile or corrupt peer cannot take the process
/// past a clean Status::Corruption.

/// Bytes of the length prefix preceding every frame.
inline constexpr std::size_t kFrameHeaderBytes = 4;

/// Frames whose declared payload exceeds this are rejected as corrupt
/// (protects the reader from a 4 GiB allocation off four hostile bytes).
/// Generous versus the ~16 MiB BSON document limit minus record sizes here.
inline constexpr std::size_t kDefaultMaxFrameBytes = 8u * 1024 * 1024;

/// Writable bytes a socket reader asks FrameReader::PrepareWrite for before
/// each recv(): the floor of one read, not a cap (see PrepareWrite).
inline constexpr std::size_t kReadChunkBytes = 64u * 1024;

/// Appends the framed encoding of `msg` to `*out`.
void EncodeFrame(const Message& msg, std::string* out);

/// Decodes a frame payload (the bytes after the length prefix) into `*msg`.
/// Corruption when the bytes are not a valid envelope ("f"/"t"/"y" string
/// fields required; "s" int and "b" document optional, defaulting to 0 and
/// empty).
Status DecodeEnvelope(std::string_view payload, Message* msg);

/// Incremental frame reader: feed it whatever byte chunks the socket
/// produces (partial headers, partial payloads, many frames at once) and
/// pull complete messages out. Corruption is sticky — a stream that framed
/// garbage cannot be resynchronized, so the connection must be dropped.
///
/// A socket reads straight into the reader's buffer: PrepareWrite(n) hands
/// out at least n writable bytes, recv() fills some of them and
/// CommitWrite(k) makes those k visible to Next(). The buffer tracks size
/// and capacity apart, so preparing space never zero-fills it, and it keeps
/// its high-water capacity for the frames that follow.
class FrameReader {
 public:
  explicit FrameReader(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Appends raw bytes received from the stream (a copy; sockets use
  /// PrepareWrite/CommitWrite instead).
  void Append(std::string_view data);

  /// Returns writable space of at least `n` bytes after the buffered ones —
  /// more when the capacity allows, and room for the rest of a frame whose
  /// header has already arrived. Valid until the next non-const call.
  std::span<char> PrepareWrite(std::size_t n);

  /// Makes the first `k` bytes of the last PrepareWrite span readable.
  /// Ignored once the stream is corrupt.
  void CommitWrite(std::size_t k);

  /// Extracts the next complete message. OK with *complete=true on success;
  /// OK with *complete=false when more bytes are needed; Corruption (sticky)
  /// on an oversized length prefix or an undecodable envelope.
  Status Next(Message* msg, bool* complete);

  /// Bytes buffered but not yet consumed (tests; backpressure accounting).
  std::size_t buffered_bytes() const { return size_ - pos_; }

  /// Bytes the buffer can hold without growing (tests).
  std::size_t capacity() const { return capacity_; }

 private:
  std::size_t max_frame_bytes_;
  std::unique_ptr<char[]> buf_;
  std::size_t capacity_ = 0;
  std::size_t size_ = 0;  // bytes written into buf_
  std::size_t pos_ = 0;   // consumed prefix of buf_, compacted lazily
  Status error_;          // sticky once set
};

}  // namespace hotman::net

#endif  // HOTMAN_NET_FRAME_H_
