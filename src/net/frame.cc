#include "net/frame.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "bson/codec.h"

namespace hotman::net {

namespace {

constexpr char kFrom[] = "f";
constexpr char kTo[] = "t";
constexpr char kType[] = "y";
constexpr char kSentAt[] = "s";
constexpr char kBody[] = "b";

std::uint32_t ReadU32Le(const char* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

void WriteU32Le(std::uint32_t v, char* p) {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  std::memcpy(p, &v, sizeof(v));
}

}  // namespace

void EncodeFrame(const Message& msg, std::string* out) {
  bson::Document envelope;
  envelope.Append(kFrom, msg.from);
  envelope.Append(kTo, msg.to);
  envelope.Append(kType, msg.type);
  envelope.Append(kSentAt, static_cast<std::int64_t>(msg.sent_at));
  envelope.Append(kBody, msg.body);

  const std::size_t header_at = out->size();
  out->append(kFrameHeaderBytes, '\0');
  bson::Encode(envelope, out);
  const std::size_t payload_len = out->size() - header_at - kFrameHeaderBytes;
  WriteU32Le(static_cast<std::uint32_t>(payload_len), out->data() + header_at);
}

Status DecodeEnvelope(std::string_view payload, Message* msg) {
  bson::Document envelope;
  HOTMAN_RETURN_IF_ERROR(bson::Decode(payload, &envelope));

  const bson::Value* from = envelope.Get(kFrom);
  const bson::Value* to = envelope.Get(kTo);
  const bson::Value* type = envelope.Get(kType);
  if (from == nullptr || !from->is_string() || to == nullptr ||
      !to->is_string() || type == nullptr || !type->is_string()) {
    return Status::Corruption("frame envelope missing f/t/y string fields");
  }
  msg->from = from->as_string();
  msg->to = to->as_string();
  msg->type = type->as_string();

  msg->sent_at = 0;
  if (const bson::Value* sent = envelope.Get(kSentAt); sent != nullptr) {
    if (!sent->is_number()) {
      return Status::Corruption("frame envelope s field is not numeric");
    }
    msg->sent_at = sent->NumberAsInt64();
  }

  msg->body = bson::Document();
  if (const bson::Value* body = envelope.Get(kBody); body != nullptr) {
    if (!body->is_document()) {
      return Status::Corruption("frame envelope b field is not a document");
    }
    msg->body = body->as_document();
  }
  return Status::OK();
}

void FrameReader::Append(std::string_view data) {
  // Nothing to copy, or the stream is dead and buffers no more.
  if (data.empty() || !error_.ok()) return;
  const std::span<char> space = PrepareWrite(data.size());
  std::memcpy(space.data(), data.data(), data.size());
  CommitWrite(data.size());
}

std::span<char> FrameReader::PrepareWrite(std::size_t n) {
  if (!error_.ok()) size_ = pos_ = 0;  // dead stream: scratch space only
  const std::size_t live = size_ - pos_;
  // Once the next frame's header is in, make room for all of it, so a large
  // frame is read in as few recv() calls as the socket allows and the
  // buffer grows once instead of doubling its way up.
  if (live >= kFrameHeaderBytes) {
    const std::size_t frame = kFrameHeaderBytes + ReadU32Le(buf_.get() + pos_);
    if (frame <= kFrameHeaderBytes + max_frame_bytes_ && frame > live) {
      n = std::max(n, frame - live);
    }
  }
  if (capacity_ - size_ >= n) return {buf_.get() + size_, capacity_ - size_};
  if (capacity_ - live >= n) {
    // Slide the unread bytes to the front. Off a socket that is one partial
    // frame, and the hint above left room for all of it: it moves once.
    std::memmove(buf_.get(), buf_.get() + pos_, live);
  } else {
    const std::size_t grown = std::max(live + n, capacity_ * 2);
    auto bigger = std::make_unique_for_overwrite<char[]>(grown);
    if (live > 0) std::memcpy(bigger.get(), buf_.get() + pos_, live);
    buf_ = std::move(bigger);
    capacity_ = grown;
  }
  pos_ = 0;
  size_ = live;
  return {buf_.get() + size_, capacity_ - size_};
}

void FrameReader::CommitWrite(std::size_t k) {
  if (!error_.ok()) return;
  size_ += std::min(k, capacity_ - size_);
}

Status FrameReader::Next(Message* msg, bool* complete) {
  *complete = false;
  if (!error_.ok()) return error_;
  if (size_ - pos_ < kFrameHeaderBytes) return Status::OK();
  const std::uint32_t payload_len = ReadU32Le(buf_.get() + pos_);
  if (payload_len > max_frame_bytes_) {
    error_ = Status::Corruption("frame length exceeds maximum");
    return error_;
  }
  if (size_ - pos_ - kFrameHeaderBytes < payload_len) return Status::OK();
  const std::string_view payload(buf_.get() + pos_ + kFrameHeaderBytes,
                                 payload_len);
  Status st = DecodeEnvelope(payload, msg);
  if (!st.ok()) {
    error_ = st;
    return error_;
  }
  pos_ += kFrameHeaderBytes + payload_len;
  if (pos_ == size_) pos_ = size_ = 0;  // keep the capacity
  *complete = true;
  return Status::OK();
}

}  // namespace hotman::net
