#include "net/remote_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace hotman::net {

namespace {

Micros NowMicros() { return SystemClock::Default()->NowMicros(); }

int PollOne(int fd, short events, Micros deadline) {
  const Micros now = NowMicros();
  const Micros left = deadline > now ? deadline - now : 0;
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = events;
  pfd.revents = 0;
  // Round up so a sub-millisecond budget still polls once.
  const int timeout_ms = static_cast<int>((left + kMicrosPerMilli - 1) / kMicrosPerMilli);
  return ::poll(&pfd, 1, timeout_ms);
}

}  // namespace

RemoteClient::RemoteClient(RemoteClientConfig config)
    : config_(std::move(config)), reader_(config_.max_frame_bytes) {}

RemoteClient::~RemoteClient() { Close(); }

Status RemoteClient::Connect() {
  if (fd_ >= 0) return Status::OK();
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad host (numeric IPv4 expected): " +
                                   config_.host);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::IOError("socket: " + std::string(std::strerror(errno)));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const Micros deadline = NowMicros() + config_.connect_timeout;
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      ::close(fd);
      return Status::NotConnected("connect: " + std::string(std::strerror(errno)));
    }
    if (PollOne(fd, POLLOUT, deadline) <= 0) {
      ::close(fd);
      return Status::Timeout("connect timed out: " + config_.host);
    }
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      ::close(fd);
      return Status::NotConnected("connect: " + std::string(std::strerror(err)));
    }
  }
  fd_ = fd;
  reader_ = FrameReader(config_.max_frame_bytes);
  return Status::OK();
}

void RemoteClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status RemoteClient::SendFrame(const Message& msg) {
  std::string wire;
  EncodeFrame(msg, &wire);
  std::size_t off = 0;
  const Micros deadline = NowMicros() + config_.op_timeout;
  while (off < wire.size()) {
    const ssize_t n =
        ::send(fd_, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (PollOne(fd_, POLLOUT, deadline) <= 0) {
        return Status::Timeout("send stalled");
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::NotConnected("send: " + std::string(std::strerror(errno)));
  }
  return Status::OK();
}

Result<Message> RemoteClient::WaitForAck(const char* ack_type,
                                         std::uint64_t req, Micros deadline) {
  char buf[65536];
  while (true) {
    // Drain whatever is already buffered before touching the socket.
    while (true) {
      Message msg;
      bool complete = false;
      HOTMAN_RETURN_IF_ERROR(reader_.Next(&msg, &complete));
      if (!complete) break;
      if (msg.type != ack_type) continue;
      const bson::Value* v = msg.body.Get("req");
      if (v == nullptr || !v->is_number()) continue;
      if (static_cast<std::uint64_t>(v->NumberAsInt64()) != req) continue;
      return msg;
    }
    if (NowMicros() >= deadline) return Status::Timeout("no ack from server");
    const int ready = PollOne(fd_, POLLIN, deadline);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return Status::Timeout("no ack from server");
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      reader_.Append(std::string_view(buf, static_cast<std::size_t>(n)));
      continue;
    }
    if (n == 0) return Status::NotConnected("server closed connection");
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    return Status::NotConnected("recv: " + std::string(std::strerror(errno)));
  }
}

Result<Message> RemoteClient::Call(const std::string& server,
                                   const char* req_type, const char* ack_type,
                                   std::uint64_t req,
                                   const bson::Document& body) {
  Status last = Status::NotConnected("never attempted");
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (fd_ < 0) {
      last = Connect();
      if (!last.ok()) continue;
    }
    Message msg;
    msg.from = config_.name;
    msg.to = server;
    msg.type = req_type;
    msg.body = body;
    msg.sent_at = NowMicros();
    last = SendFrame(msg);
    if (!last.ok()) {
      Close();
      continue;  // redial once; writes are idempotent (LWW)
    }
    auto reply = WaitForAck(ack_type, req, NowMicros() + config_.op_timeout);
    if (reply.ok()) return reply;
    // A timeout leaves the request possibly in flight; surface it rather
    // than blind-resending. Connection errors redial once.
    if (reply.status().IsTimeout()) return reply.status();
    last = reply.status();
    Close();
  }
  return last;
}

Status RemoteClient::Put(const std::string& server, const std::string& key,
                         Bytes value) {
  ClientPutMsg put;
  put.req = next_req_++;
  put.key = key;
  put.value = std::move(value);
  auto reply = Call(server, kMsgClientPut, kMsgClientPutAck, put.req,
                    EncodeClientPut(put));
  if (!reply.ok()) return reply.status();
  auto ack = DecodeClientAck(reply->body);
  if (!ack.ok()) return ack.status();
  if (!ack->ok) return Status::QuorumFailed(ack->error);
  return Status::OK();
}

Result<Bytes> RemoteClient::Get(const std::string& server,
                                const std::string& key) {
  ClientGetMsg get;
  get.req = next_req_++;
  get.key = key;
  auto reply = Call(server, kMsgClientGet, kMsgClientGetAck, get.req,
                    EncodeClientGet(get));
  if (!reply.ok()) return reply.status();
  auto ack = DecodeClientGetAck(reply->body);
  if (!ack.ok()) return ack.status();
  if (!ack->ok) return Status::QuorumFailed(ack->error);
  if (!ack->found) return Status::NotFound("key not found: " + key);
  return ack->value.data();  // the caller gets its own Bytes
}

Status RemoteClient::Delete(const std::string& server, const std::string& key) {
  ClientGetMsg del;
  del.req = next_req_++;
  del.key = key;
  auto reply = Call(server, kMsgClientDelete, kMsgClientDeleteAck, del.req,
                    EncodeClientGet(del));
  if (!reply.ok()) return reply.status();
  auto ack = DecodeClientAck(reply->body);
  if (!ack.ok()) return ack.status();
  if (!ack->ok) return Status::QuorumFailed(ack->error);
  return Status::OK();
}

Status RemoteClient::Join(const std::string& server, const std::string& node,
                          std::int64_t vnodes, double capacity) {
  ClientJoinMsg join;
  join.req = next_req_++;
  join.node = node;
  join.vnodes = vnodes;
  join.capacity = capacity;
  auto reply = Call(server, kMsgClientJoin, kMsgClientJoinAck, join.req,
                    EncodeClientJoin(join));
  if (!reply.ok()) return reply.status();
  auto ack = DecodeClientAck(reply->body);
  if (!ack.ok()) return ack.status();
  if (!ack->ok) return Status::InvalidArgument(ack->error);
  return Status::OK();
}

Status RemoteClient::Decommission(const std::string& server) {
  ClientGetMsg dec;
  dec.req = next_req_++;
  auto reply = Call(server, kMsgClientDecommission, kMsgClientDecommissionAck,
                    dec.req, EncodeClientGet(dec));
  if (!reply.ok()) return reply.status();
  auto ack = DecodeClientAck(reply->body);
  if (!ack.ok()) return ack.status();
  if (!ack->ok) return Status::InvalidArgument(ack->error);
  return Status::OK();
}

Result<std::string> RemoteClient::RebalanceStatus(const std::string& server) {
  ClientGetMsg status;
  status.req = next_req_++;
  auto reply = Call(server, kMsgClientRebalanceStatus,
                    kMsgClientRebalanceStatusAck, status.req,
                    EncodeClientGet(status));
  if (!reply.ok()) return reply.status();
  auto ack = DecodeClientStatsAck(reply->body);
  if (!ack.ok()) return ack.status();
  return std::move(ack->json);
}

Result<std::string> RemoteClient::Stats(const std::string& server) {
  ClientGetMsg stats;
  stats.req = next_req_++;
  auto reply = Call(server, kMsgClientStats, kMsgClientStatsAck, stats.req,
                    EncodeClientGet(stats));
  if (!reply.ok()) return reply.status();
  auto ack = DecodeClientStatsAck(reply->body);
  if (!ack.ok()) return ack.status();
  return std::move(ack->json);
}

}  // namespace hotman::net
