// Frame codec tests, including the robustness properties the transport
// depends on: arbitrarily split partial reads reassemble exactly, and
// truncated / oversized / garbage frames surface as clean Status errors
// (sticky Corruption), never as crashes or hangs.

#include "net/frame.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bson/codec.h"
#include "bson/document.h"
#include "common/random.h"
#include "net/client_proto.h"

namespace hotman::net {
namespace {

void AppendU32Le(std::string* out, std::uint32_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

Message MakeMessage(int i) {
  Message msg;
  msg.from = "db" + std::to_string(i % 5) + ":19870";
  msg.to = "db" + std::to_string((i + 1) % 5) + ":19870";
  msg.type = (i % 2) == 0 ? "put_replica" : "gossip_syn";
  msg.sent_at = 1000 * i;
  msg.body.Append("req", bson::Value(static_cast<std::int64_t>(i)));
  msg.body.Append("key", bson::Value(std::string(i % 37, 'k')));
  return msg;
}

void ExpectEqual(const Message& a, const Message& b) {
  EXPECT_EQ(a.from, b.from);
  EXPECT_EQ(a.to, b.to);
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.sent_at, b.sent_at);
  ASSERT_NE(b.body.Get("req"), nullptr);
  EXPECT_EQ(a.body.Get("req")->as_int64(), b.body.Get("req")->as_int64());
}

TEST(FrameCodecTest, RoundTripSingleFrame) {
  const Message in = MakeMessage(7);
  std::string wire;
  EncodeFrame(in, &wire);
  ASSERT_GT(wire.size(), kFrameHeaderBytes);

  FrameReader reader;
  reader.Append(wire);
  Message out;
  bool complete = false;
  ASSERT_TRUE(reader.Next(&out, &complete).ok());
  ASSERT_TRUE(complete);
  ExpectEqual(in, out);
  EXPECT_EQ(reader.buffered_bytes(), 0u);
}

TEST(FrameCodecTest, EmptyBodyAndMissingOptionalFields) {
  Message in;
  in.from = "a";
  in.to = "b";
  in.type = "ping";
  std::string wire;
  EncodeFrame(in, &wire);
  FrameReader reader;
  reader.Append(wire);
  Message out;
  bool complete = false;
  ASSERT_TRUE(reader.Next(&out, &complete).ok());
  ASSERT_TRUE(complete);
  EXPECT_EQ(out.from, "a");
  EXPECT_EQ(out.sent_at, 0);
}

TEST(FrameCodecTest, ManyFramesSplitAtEveryChunkSize) {
  // Property: however the stream is sliced, the reader yields the same
  // message sequence. Chunk sizes 1..17 cover header splits, payload
  // splits and multi-frame chunks.
  std::string wire;
  std::vector<Message> inputs;
  for (int i = 0; i < 20; ++i) {
    inputs.push_back(MakeMessage(i));
    EncodeFrame(inputs.back(), &wire);
  }
  for (std::size_t chunk = 1; chunk <= 17; ++chunk) {
    FrameReader reader;
    std::vector<Message> outputs;
    for (std::size_t off = 0; off < wire.size(); off += chunk) {
      reader.Append(std::string_view(wire).substr(off, chunk));
      while (true) {
        Message msg;
        bool complete = false;
        ASSERT_TRUE(reader.Next(&msg, &complete).ok());
        if (!complete) break;
        outputs.push_back(std::move(msg));
      }
    }
    ASSERT_EQ(outputs.size(), inputs.size()) << "chunk=" << chunk;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      ExpectEqual(inputs[i], outputs[i]);
    }
    EXPECT_EQ(reader.buffered_bytes(), 0u);
  }
}

TEST(FrameCodecTest, RandomizedSplitsRoundTrip) {
  Rng rng(0xf4a3e);
  std::string wire;
  std::vector<Message> inputs;
  for (int i = 0; i < 50; ++i) {
    inputs.push_back(MakeMessage(i));
    EncodeFrame(inputs.back(), &wire);
  }
  for (int trial = 0; trial < 20; ++trial) {
    FrameReader reader;
    std::size_t delivered = 0;
    std::size_t off = 0;
    while (off < wire.size()) {
      const std::size_t chunk = 1 + rng.Uniform(64);
      reader.Append(std::string_view(wire).substr(off, chunk));
      off += chunk;
      while (true) {
        Message msg;
        bool complete = false;
        ASSERT_TRUE(reader.Next(&msg, &complete).ok());
        if (!complete) break;
        ExpectEqual(inputs[delivered], msg);
        ++delivered;
      }
    }
    EXPECT_EQ(delivered, inputs.size());
  }
}

TEST(FrameCodecTest, TruncatedFrameIsIncompleteNotError) {
  std::string wire;
  EncodeFrame(MakeMessage(3), &wire);
  FrameReader reader;
  reader.Append(std::string_view(wire).substr(0, wire.size() - 1));
  Message msg;
  bool complete = true;
  ASSERT_TRUE(reader.Next(&msg, &complete).ok());
  EXPECT_FALSE(complete);  // waiting for the last byte, not an error
  reader.Append(std::string_view(wire).substr(wire.size() - 1));
  ASSERT_TRUE(reader.Next(&msg, &complete).ok());
  EXPECT_TRUE(complete);
}

TEST(FrameCodecTest, OversizedLengthPrefixIsStickyCorruption) {
  FrameReader reader(/*max_frame_bytes=*/1024);
  // 16 MiB declared in a reader capped at 1 KiB: reject before buffering.
  std::string wire;
  AppendU32Le(&wire, 16u * 1024 * 1024);
  reader.Append(wire);
  Message msg;
  bool complete = false;
  Status s = reader.Next(&msg, &complete);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  // Sticky: even after more (valid-looking) bytes, the stream stays dead.
  std::string good;
  EncodeFrame(MakeMessage(1), &good);
  reader.Append(good);
  EXPECT_TRUE(reader.Next(&msg, &complete).IsCorruption());
}

TEST(FrameCodecTest, GarbagePayloadIsCorruption) {
  // Well-formed length prefix, garbage payload: the BSON decode fails with
  // Corruption instead of crashing.
  std::string wire;
  AppendU32Le(&wire, 64);
  for (int i = 0; i < 64; ++i) wire.push_back(static_cast<char>(0xa5 ^ i));
  FrameReader reader;
  reader.Append(wire);
  Message msg;
  bool complete = false;
  EXPECT_TRUE(reader.Next(&msg, &complete).IsCorruption());
}

TEST(FrameCodecTest, EnvelopeMissingRequiredFieldIsCorruption) {
  // A valid BSON document that is not a valid envelope ("f"/"t"/"y"
  // required) must also fail cleanly.
  bson::Document doc;
  doc.Append("f", bson::Value(std::string("a")));  // no "t", no "y"
  std::string payload;
  bson::Encode(doc, &payload);
  std::string wire;
  AppendU32Le(&wire, static_cast<std::uint32_t>(payload.size()));
  wire += payload;
  FrameReader reader;
  reader.Append(wire);
  Message msg;
  bool complete = false;
  EXPECT_TRUE(reader.Next(&msg, &complete).IsCorruption());
}

TEST(FrameCodecTest, FlippedBytesNeverCrash) {
  // Fuzz-lite: flip one byte at every offset of a valid two-frame stream;
  // the reader must always return OK or Corruption, never crash. (Flips in
  // the body bytes may still decode — BSON cannot detect every mutation —
  // but header/envelope flips must not take the process down.)
  std::string wire;
  EncodeFrame(MakeMessage(1), &wire);
  EncodeFrame(MakeMessage(2), &wire);
  for (std::size_t flip = 0; flip < wire.size(); ++flip) {
    std::string mutated = wire;
    mutated[flip] = static_cast<char>(mutated[flip] ^ 0x40);
    FrameReader reader;
    reader.Append(mutated);
    while (true) {
      Message msg;
      bool complete = false;
      Status s = reader.Next(&msg, &complete);
      if (!s.ok()) {
        EXPECT_TRUE(s.IsCorruption()) << "flip=" << flip << " " << s.ToString();
        break;
      }
      if (!complete) break;
    }
  }
}

TEST(FrameCodecTest, DecodeEnvelopeRejectsTrailingGarbage) {
  Message in = MakeMessage(4);
  std::string wire;
  EncodeFrame(in, &wire);
  std::string payload = wire.substr(kFrameHeaderBytes);
  Message out;
  ASSERT_TRUE(DecodeEnvelope(payload, &out).ok());
  payload += "extra";
  EXPECT_FALSE(DecodeEnvelope(payload, &out).ok());
}

TEST(ClientProtoTest, PutValueSharesTheFrameBuffer) {
  // Off the wire: the decoded put's value is the frame document's own val
  // buffer, so a node hands it to the coordinator without a copy.
  Message in;
  in.from = "client";
  in.to = "db1:19870";
  in.type = kMsgClientPut;
  in.body = EncodeClientPut({7, "key", Bytes(4096, 'p')});
  std::string wire;
  EncodeFrame(in, &wire);
  FrameReader reader;
  reader.Append(wire);
  Message out;
  bool complete = false;
  ASSERT_TRUE(reader.Next(&out, &complete).ok());
  ASSERT_TRUE(complete);
  auto put = DecodeClientPut(out.body);
  ASSERT_TRUE(put.ok()) << put.status().ToString();
  EXPECT_EQ(put->req, 7u);
  EXPECT_EQ(put->value.data(), Bytes(4096, 'p'));
  EXPECT_EQ(put->value.shared().get(),
            out.body.Get("val")->as_binary().shared().get());
}

TEST(ClientProtoTest, GetAckEncodesTheValueBufferItHolds) {
  ClientGetAckMsg ack;
  ack.req = 3;
  ack.ok = true;
  ack.found = true;
  ack.value = Bytes(4096, 'g');
  const bson::Document doc = EncodeClientGetAck(ack);
  EXPECT_EQ(doc.Get("val")->as_binary().shared().get(), ack.value.shared().get());
  auto decoded = DecodeClientGetAck(doc);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->value.shared().get(), ack.value.shared().get());
}

}  // namespace
}  // namespace hotman::net
