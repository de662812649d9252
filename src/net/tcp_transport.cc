#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <span>
#include <utility>

#include "bson/codec.h"
#include "common/logging.h"

namespace hotman::net {

namespace {

constexpr int kMaxEpollEvents = 64;
constexpr Micros kHousekeepingPeriod = 200 * kMicrosPerMilli;

void SetNoDelay(int fd) {
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

TcpTransport::TcpTransport(TcpTransportConfig config)
    : config_(std::move(config)), clock_(SystemClock::Default()) {
  for (const auto& [name, addr] : config_.peers) {
    peers_[name].addr = addr;
  }
}

TcpTransport::~TcpTransport() { Stop(); }

bool TcpTransport::OnLoopThread() const {
  return loop_thread_.get_id() == std::this_thread::get_id();
}

Status TcpTransport::Start() {
  if (running_.load()) return Status::AlreadyExists("transport already started");

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Status::IOError("epoll_create1 failed");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    return Status::IOError("eventfd failed");
  }
  epoll_event wake_ev{};
  wake_ev.events = EPOLLIN;
  wake_ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &wake_ev);

  if (config_.listen_port >= 0) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
      Stop();
      return Status::IOError("listen socket failed");
    }
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(config_.listen_port));
    if (::inet_pton(AF_INET, config_.listen_host.c_str(), &addr.sin_addr) != 1) {
      Stop();
      return Status::InvalidArgument("listen_host must be a numeric IPv4 address");
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 128) != 0) {
      Stop();
      return Status::IOError(std::string("bind/listen failed: ") + std::strerror(errno));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    listen_port_ = ntohs(bound.sin_port);
    if (!endpoints_.empty()) ArmListener();
  }

  // Arm the periodic housekeeping timer before the loop thread exists; no
  // concurrency yet, so inserting directly is safe.
  const TimerId hk = next_timer_.fetch_add(1);
  ScheduleOnLoop(hk, kHousekeepingPeriod, [this] { Housekeeping(); });

  running_.store(true);
  {
    MutexLock lock(&ops_mu_);
    loop_state_ = LoopState::kRunning;
  }
  loop_thread_ = std::thread([this] { LoopMain(); });
  return Status::OK();
}

void TcpTransport::Stop() {
  {
    // From here on Post() drops (and counts) instead of enqueueing: the
    // loop below is about to stop draining, so an enqueue could never run.
    MutexLock lock(&ops_mu_);
    if (loop_state_ == LoopState::kRunning) loop_state_ = LoopState::kStopping;
  }
  if (loop_thread_.joinable()) {
    running_.store(false);
    const std::uint64_t one = 1;
    (void)!::write(wake_fd_, &one, sizeof(one));
    loop_thread_.join();
  }
  running_.store(false);
  // The loop thread is gone (or never existed); tear down on this thread.
  for (auto& [fd, conn] : conns_) {
    ::close(fd);
    if (conn->established) {
      MutexLock lock(&stats_mu_);
      ++stats_.connections_closed;
      --stats_.connections_open;
    }
  }
  conns_.clear();
  conns_by_peer_.clear();
  flush_list_.clear();
  timers_.clear();
  timer_deadline_.clear();
  {
    MutexLock lock(&ops_mu_);
    if (!pending_ops_.empty()) {
      // Ops the loop never got to drain: dropped, but accounted for.
      MutexLock stats_lock(&stats_mu_);
      stats_.posts_dropped_stopped += pending_ops_.size();
      pending_ops_.clear();
    }
    loop_state_ = LoopState::kIdle;
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  listen_fd_ = wake_fd_ = epoll_fd_ = -1;
  listener_armed_ = false;
}

void TcpTransport::AddOrUpdatePeer(const std::string& name, TcpPeer peer) {
  Post([this, name, peer] {
    PeerState& state = peers_[name];
    state.addr = peer;
    state.backoff = 0;
    state.next_attempt_at = 0;
  });
}

void TcpTransport::Post(std::function<void()> fn) {
  if (OnLoopThread()) {
    fn();
    return;
  }
  {
    MutexLock lock(&ops_mu_);
    switch (loop_state_) {
      case LoopState::kRunning:
        pending_ops_.push_back(std::move(fn));
        // Woken under the lock: Stop() leaves kRunning under it before it
        // closes wake_fd_, so this write cannot race the close.
        Wake();
        return;
      case LoopState::kStopping: {
        // Racing Stop(): the loop will never drain again, and running the
        // closure here would race the dying loop thread. Drop + count.
        MutexLock stats_lock(&stats_mu_);
        ++stats_.posts_dropped_stopped;
        return;
      }
      case LoopState::kIdle:
        break;  // run inline below, outside the lock
    }
  }
  // The loop does not exist (setup/teardown, single-threaded by contract).
  fn();
}

void TcpTransport::Wake() {
  const std::uint64_t one = 1;
  (void)!::write(wake_fd_, &one, sizeof(one));
}

void TcpTransport::RegisterEndpoint(const std::string& name, Handler handler) {
  Post([this, name, handler = std::move(handler)]() mutable {
    endpoints_[name] = std::move(handler);
    ArmListener();
  });
}

void TcpTransport::ArmListener() {
  if (listen_fd_ < 0 || listener_armed_) return;
  epoll_event lev{};
  lev.events = EPOLLIN;
  lev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &lev);
  listener_armed_ = true;
}

void TcpTransport::UnregisterEndpoint(const std::string& name) {
  Post([this, name] { endpoints_.erase(name); });
}

void TcpTransport::Send(Message msg) {
  Post([this, msg = std::move(msg)]() mutable { SendOnLoop(std::move(msg)); });
}

TimerId TcpTransport::ScheduleTimer(Micros delay, std::function<void()> fn) {
  const TimerId id = next_timer_.fetch_add(1);
  Post([this, id, delay, fn = std::move(fn)]() mutable {
    ScheduleOnLoop(id, delay, std::move(fn));
  });
  return id;
}

TimerId TcpTransport::ScheduleOnLoop(TimerId id, Micros delay,
                                     std::function<void()> fn) {
  const Micros deadline = NowMicros() + std::max<Micros>(delay, 0);
  timers_.emplace(std::make_pair(deadline, id), std::move(fn));
  timer_deadline_.emplace(id, deadline);
  return id;
}

bool TcpTransport::CancelTimer(TimerId id) {
  if (!running_.load() || OnLoopThread()) {
    auto it = timer_deadline_.find(id);
    if (it == timer_deadline_.end()) return false;
    timers_.erase(std::make_pair(it->second, id));
    timer_deadline_.erase(it);
    return true;
  }
  // Cross-thread cancellation is best-effort: the timer may fire before the
  // op reaches the loop. Loop-resident components (the only schedulers in
  // practice) always take the exact path above.
  Post([this, id] {
    auto it = timer_deadline_.find(id);
    if (it == timer_deadline_.end()) return;
    timers_.erase(std::make_pair(it->second, id));
    timer_deadline_.erase(it);
  });
  return true;
}

void TcpTransport::LoopMain() {
  epoll_event events[kMaxEpollEvents];
  while (running_.load()) {
    const int timeout_ms = NextTimerDelayMillis();
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEpollEvents, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      HOTMAN_LOG(kError) << "epoll_wait failed: " << std::strerror(errno);
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drained = 0;
        (void)!::read(wake_fd_, &drained, sizeof(drained));
      } else if (fd == listen_fd_) {
        HandleListenReady();
      } else {
        HandleConnEvent(fd, events[i].events);
      }
    }
    ProcessOps();
    RunDueTimers();
    FlushListed();
  }
}

void TcpTransport::ProcessOps() {
  std::vector<std::function<void()>> ops;
  {
    MutexLock lock(&ops_mu_);
    ops.swap(pending_ops_);
  }
  for (auto& op : ops) op();
}

void TcpTransport::RunDueTimers() {
  const Micros now = NowMicros();
  while (!timers_.empty() && timers_.begin()->first.first <= now) {
    auto it = timers_.begin();
    const TimerId id = it->first.second;
    std::function<void()> fn = std::move(it->second);
    timers_.erase(it);
    timer_deadline_.erase(id);
    fn();
  }
}

int TcpTransport::NextTimerDelayMillis() const {
  if (timers_.empty()) return 1000;
  const Micros now = clock_->NowMicros();
  const Micros next = timers_.begin()->first.first;
  if (next <= now) return 0;
  const Micros diff = next - now;
  return static_cast<int>(
      std::min<Micros>((diff + kMicrosPerMilli - 1) / kMicrosPerMilli, 1000));
}

void TcpTransport::HandleListenReady() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      HOTMAN_LOG(kWarn) << "accept failed: " << std::strerror(errno);
      return;
    }
    SetNoDelay(fd);
    auto conn = std::make_unique<Conn>(config_.max_frame_bytes);
    conn->fd = fd;
    conn->inbound = true;
    conn->established = true;
    conn->last_read_at = conn->last_write_progress = NowMicros();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    conns_.emplace(fd, std::move(conn));
    {
      MutexLock lock(&stats_mu_);
      ++stats_.connections_accepted;
      ++stats_.connections_open;
    }
  }
}

void TcpTransport::HandleConnEvent(int fd, std::uint32_t events) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;  // closed earlier in this batch
  Conn* conn = it->second.get();
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    if (conn->connecting) {
      FinishConnect(conn);  // reads SO_ERROR, fails with backoff
    } else {
      CloseConn(conn, /*failed=*/false, "peer hung up");
    }
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    HandleWritable(conn);
    if (conns_.find(fd) == conns_.end()) return;  // closed while writing
  }
  if ((events & EPOLLIN) != 0) {
    HandleReadable(conn);
  }
}

void TcpTransport::FinishConnect(Conn* conn) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(conn->fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
    err = errno;
  }
  if (err != 0) {
    HOTMAN_LOG(kWarn) << "connect to " << conn->name
                      << " failed: " << std::strerror(err);
    CloseConn(conn, /*failed=*/true, "connect failed");
    return;
  }
  conn->connecting = false;
  conn->established = true;
  conn->last_read_at = conn->last_write_progress = NowMicros();
  if (auto pit = peers_.find(conn->name); pit != peers_.end()) {
    pit->second.backoff = 0;
    pit->second.next_attempt_at = 0;
  }
  {
    MutexLock lock(&stats_mu_);
    ++stats_.connections_opened;
    ++stats_.connections_open;
  }
  UpdateEpoll(conn);
}

void TcpTransport::HandleWritable(Conn* conn) {
  if (conn->connecting) {
    const int fd = conn->fd;
    FinishConnect(conn);  // may destroy conn on failure
    if (conns_.find(fd) == conns_.end()) return;
  }
  Flush(conn);
}

void TcpTransport::Flush(Conn* conn) {
  std::uint64_t syscalls = 0;
  bool failed = false;
  bool progressed = false;
  while (conn->outbuf_off < conn->outbuf.size()) {
    ++syscalls;
    const ssize_t n =
        ::send(conn->fd, conn->outbuf.data() + conn->outbuf_off,
               conn->outbuf.size() - conn->outbuf_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn->outbuf_off += static_cast<std::size_t>(n);
      progressed = true;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    failed = true;
    break;
  }
  if (syscalls > 0) {
    MutexLock lock(&stats_mu_);
    stats_.write_syscalls += syscalls;
  }
  if (failed) {
    CloseConn(conn, /*failed=*/false, "write error");
    return;
  }
  if (progressed) conn->last_write_progress = NowMicros();
  if (conn->outbuf_off >= conn->outbuf.size()) {
    conn->outbuf.clear();  // keeps the capacity for the next burst
    conn->outbuf_off = 0;
  }
  UpdateEpoll(conn);
}

void TcpTransport::FlushListed() {
  for (const int fd : flush_list_) {
    auto it = conns_.find(fd);
    // Closed since it was listed, or the fd now belongs to a newer
    // connection that is listed on its own (or has nothing queued).
    if (it == conns_.end() || !it->second->flush_listed) continue;
    it->second->flush_listed = false;
    Flush(it->second.get());  // closes only its own connection
  }
  flush_list_.clear();
}

void TcpTransport::HandleReadable(Conn* conn) {
  while (true) {
    // recv() straight into the reader's buffer: no bounce copy.
    const std::span<char> space = conn->reader.PrepareWrite(kReadChunkBytes);
    const ssize_t n = ::recv(conn->fd, space.data(), space.size(), 0);
    if (n == 0) {
      CloseConn(conn, /*failed=*/false, "peer closed");
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      CloseConn(conn, /*failed=*/false, "read error");
      return;
    }
    conn->reader.CommitWrite(static_cast<std::size_t>(n));
    conn->last_read_at = NowMicros();
    if (!DeliverFrames(conn)) return;
    // A short read drained the socket; level-triggered epoll reports any
    // bytes that arrive later.
    if (static_cast<std::size_t>(n) < space.size()) return;
  }
}

bool TcpTransport::DeliverFrames(Conn* conn) {
  const int fd = conn->fd;
  while (true) {
    Message msg;
    bool complete = false;
    const std::size_t before = conn->reader.buffered_bytes();
    const Status st = conn->reader.Next(&msg, &complete);
    if (!st.ok()) {
      HOTMAN_LOG(kWarn) << "corrupt frame from fd " << conn->fd << ": "
                        << st.ToString();
      CloseConn(conn, /*failed=*/false, "corrupt frame");
      return false;
    }
    if (!complete) return true;
    const std::size_t wire_bytes = before - conn->reader.buffered_bytes();
    if (conn->name.empty() && !msg.from.empty()) {
      // Inbound connections announce their identity with their first frame;
      // replies to that peer route back over this connection.
      conn->name = msg.from;
      conns_by_peer_.emplace(conn->name, conn);
    }
    DeliverLocally(msg, wire_bytes);
    if (conns_.find(fd) == conns_.end()) return false;  // handler closed us
  }
}

void TcpTransport::DeliverLocally(const Message& msg, std::size_t wire_bytes) {
  auto it = endpoints_.find(msg.to);
  if (it == endpoints_.end()) {
    MutexLock lock(&stats_mu_);
    ++stats_.frames_dropped;
    ++stats_.dropped_no_endpoint;
    return;
  }
  {
    MutexLock lock(&stats_mu_);
    ++stats_.frames_delivered;
    stats_.bytes_delivered += wire_bytes;
    const Micros latency = std::max<Micros>(NowMicros() - msg.sent_at, 0);
    stats_.latency_by_type[msg.type].Record(latency);
  }
  it->second(msg);
}

void TcpTransport::SendOnLoop(Message msg) {
  msg.sent_at = NowMicros();
  if (endpoints_.count(msg.to) > 0) {
    // Loopback to a local endpoint (a coordinator replicating to itself):
    // no socket, but the accounting and the deferred delivery match the
    // remote path.
    const std::size_t approx_bytes = kFrameHeaderBytes + bson::EncodedSize(msg.body);
    {
      MutexLock lock(&stats_mu_);
      ++stats_.frames_sent;
      stats_.bytes_sent += approx_bytes;
    }
    const TimerId id = next_timer_.fetch_add(1);
    ScheduleOnLoop(id, 0, [this, approx_bytes, msg = std::move(msg)] {
      DeliverLocally(msg, approx_bytes);
    });
    return;
  }
  if (epoll_fd_ < 0) {
    MutexLock lock(&stats_mu_);
    ++stats_.frames_dropped;
    ++stats_.dropped_not_connected;
    return;
  }
  Conn* conn = nullptr;
  if (auto cit = conns_by_peer_.find(msg.to); cit != conns_by_peer_.end()) {
    conn = cit->second;
  }
  if (conn == nullptr) {
    auto pit = peers_.find(msg.to);
    if (pit == peers_.end()) {
      MutexLock lock(&stats_mu_);
      ++stats_.frames_dropped;
      ++stats_.dropped_no_endpoint;
      return;
    }
    if (NowMicros() < pit->second.next_attempt_at) {
      MutexLock lock(&stats_mu_);
      ++stats_.frames_dropped;
      ++stats_.dropped_not_connected;
      return;
    }
    conn = ConnectTo(msg.to, &pit->second);
    if (conn == nullptr) {
      MutexLock lock(&stats_mu_);
      ++stats_.frames_dropped;
      ++stats_.dropped_not_connected;
      return;
    }
  }
  // Compact the consumed prefix before growing (bounded by the watermark).
  if (conn->outbuf_off > 0 && conn->outbuf_off * 2 > conn->outbuf.size()) {
    conn->outbuf.erase(0, conn->outbuf_off);
    conn->outbuf_off = 0;
  }
  // Encode straight into the connection's buffer. A frame that would cross
  // the watermark is rolled back whole, so no partial frame is ever queued.
  const std::size_t old_size = conn->outbuf.size();
  const std::size_t queued = old_size - conn->outbuf_off;
  EncodeFrame(msg, &conn->outbuf);
  const std::size_t frame_bytes = conn->outbuf.size() - old_size;
  if (queued + frame_bytes > config_.max_outbound_queue_bytes) {
    conn->outbuf.resize(old_size);
    MutexLock lock(&stats_mu_);
    ++stats_.frames_dropped;
    ++stats_.dropped_backpressure;
    return;
  }
  // Bytes landing in an empty buffer start the stall clock: an idle link's
  // last send() is no measure of how long this frame has waited.
  if (queued == 0) conn->last_write_progress = msg.sent_at;
  {
    MutexLock lock(&stats_mu_);
    ++stats_.frames_sent;
    stats_.bytes_sent += frame_bytes;
  }
  // Under backpressure (EPOLLOUT armed, which includes a connect in
  // flight) the writable event flushes; otherwise the end of this turn does.
  if (!conn->epollout_armed && !conn->flush_listed) {
    conn->flush_listed = true;
    flush_list_.push_back(conn->fd);
  }
}

TcpTransport::Conn* TcpTransport::ConnectTo(const std::string& name,
                                            PeerState* peer) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return nullptr;
  SetNoDelay(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(peer->addr.port);
  if (::inet_pton(AF_INET, peer->addr.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    HOTMAN_LOG(kWarn) << "peer " << name << " has non-numeric host "
                      << peer->addr.host;
    return nullptr;
  }
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    peer->backoff = std::clamp<Micros>(peer->backoff * 2,
                                       config_.reconnect_backoff_min,
                                       config_.reconnect_backoff_max);
    peer->next_attempt_at = NowMicros() + peer->backoff;
    MutexLock lock(&stats_mu_);
    ++stats_.connections_failed;
    return nullptr;
  }
  auto owned = std::make_unique<Conn>(config_.max_frame_bytes);
  Conn* conn = owned.get();
  conn->fd = fd;
  conn->name = name;
  conn->connecting = (rc != 0);
  conn->established = (rc == 0);
  conn->connect_started = NowMicros();
  conn->last_read_at = conn->last_write_progress = conn->connect_started;
  // EPOLLOUT reports the end of a connect in flight; frames queued before
  // then leave on that event.
  conn->epollout_armed = conn->connecting;
  epoll_event ev{};
  ev.events = EPOLLIN | (conn->connecting ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  conns_.emplace(fd, std::move(owned));
  conns_by_peer_[name] = conn;
  if (conn->established) {
    peer->backoff = 0;
    peer->next_attempt_at = 0;
    MutexLock lock(&stats_mu_);
    ++stats_.connections_opened;
    ++stats_.connections_open;
  }
  return conn;
}

void TcpTransport::CloseConn(Conn* conn, bool failed, const char* why) {
  HOTMAN_LOG(kDebug) << "closing connection fd " << conn->fd << " ("
                     << (conn->name.empty() ? "?" : conn->name) << "): " << why;
  if (!conn->name.empty()) {
    if (auto it = conns_by_peer_.find(conn->name);
        it != conns_by_peer_.end() && it->second == conn) {
      conns_by_peer_.erase(it);
    }
    if (failed) {
      if (auto pit = peers_.find(conn->name); pit != peers_.end()) {
        pit->second.backoff = std::clamp<Micros>(
            pit->second.backoff * 2, config_.reconnect_backoff_min,
            config_.reconnect_backoff_max);
        pit->second.next_attempt_at = NowMicros() + pit->second.backoff;
      }
    }
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  {
    MutexLock lock(&stats_mu_);
    if (failed) {
      ++stats_.connections_failed;
    } else {
      ++stats_.connections_closed;
    }
    if (conn->established) --stats_.connections_open;
  }
  conns_.erase(conn->fd);  // destroys conn
}

void TcpTransport::UpdateEpoll(Conn* conn) {
  const bool want_out =
      conn->connecting || conn->outbuf_off < conn->outbuf.size();
  if (want_out == conn->epollout_armed) return;  // interest set unchanged
  conn->epollout_armed = want_out;
  epoll_event ev{};
  ev.events = EPOLLIN | (want_out ? EPOLLOUT : 0u);
  ev.data.fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  if (want_out) {
    MutexLock lock(&stats_mu_);
    ++stats_.epollout_arms;
  }
}

void TcpTransport::Housekeeping() {
  const Micros now = NowMicros();
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) fds.push_back(fd);
  for (int fd : fds) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    Conn* conn = it->second.get();
    if (conn->connecting &&
        now - conn->connect_started > config_.connect_timeout) {
      CloseConn(conn, /*failed=*/true, "connect timeout");
      continue;
    }
    // A stall is judged only under backpressure: bytes queued this turn
    // have not had their flush yet, whatever the clock says.
    if (conn->established && conn->epollout_armed &&
        now - conn->last_write_progress > config_.write_stall_timeout) {
      CloseConn(conn, /*failed=*/false, "write stalled");
      continue;
    }
    if (config_.read_idle_timeout > 0 && conn->established &&
        now - conn->last_read_at > config_.read_idle_timeout) {
      CloseConn(conn, /*failed=*/false, "read idle");
      continue;
    }
  }
  const TimerId id = next_timer_.fetch_add(1);
  ScheduleOnLoop(id, kHousekeepingPeriod, [this] { Housekeeping(); });
}

void TcpTransport::ExportStats(metrics::Registry* registry) const {
  MutexLock lock(&stats_mu_);
  registry->counter("net.frames_sent")->Increment(stats_.frames_sent);
  registry->counter("net.frames_delivered")->Increment(stats_.frames_delivered);
  registry->counter("net.frames_dropped")->Increment(stats_.frames_dropped);
  registry->counter("net.bytes_sent")->Increment(stats_.bytes_sent);
  registry->counter("net.bytes_delivered")->Increment(stats_.bytes_delivered);
  registry->counter("net.dropped_no_endpoint")
      ->Increment(stats_.dropped_no_endpoint);
  registry->counter("net.dropped_not_connected")
      ->Increment(stats_.dropped_not_connected);
  registry->counter("net.dropped_backpressure")
      ->Increment(stats_.dropped_backpressure);
  registry->counter("net.connections_opened")
      ->Increment(stats_.connections_opened);
  registry->counter("net.connections_accepted")
      ->Increment(stats_.connections_accepted);
  registry->counter("net.connections_failed")
      ->Increment(stats_.connections_failed);
  registry->counter("net.connections_closed")
      ->Increment(stats_.connections_closed);
  registry->counter("net.posts_dropped_stopped")
      ->Increment(stats_.posts_dropped_stopped);
  registry->counter("net.write_syscalls")->Increment(stats_.write_syscalls);
  registry->counter("net.epollout_arms")->Increment(stats_.epollout_arms);
  registry->gauge("net.connections_open")->Set(stats_.connections_open);
  for (const auto& [type, hist] : stats_.latency_by_type) {
    registry->histogram("net.frame_latency." + type)->MergeFrom(hist);
  }
}

}  // namespace hotman::net
