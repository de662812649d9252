#ifndef HOTMAN_NET_TCP_TRANSPORT_H_
#define HOTMAN_NET_TCP_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/status.h"
#include "net/frame.h"
#include "net/transport.h"

namespace hotman::net {

/// Address of a named peer.
struct TcpPeer {
  std::string host;
  std::uint16_t port = 0;
};

/// Knobs of the real transport. Defaults suit a loopback cluster; the
/// timeouts exist so a wedged peer costs a bounded amount of memory and
/// time, never a hang.
struct TcpTransportConfig {
  std::string listen_host = "127.0.0.1";
  /// Port to accept on; 0 picks an ephemeral port (see listen_port()),
  /// -1 disables the listener (pure client transport).
  int listen_port = 0;
  /// Known peer addresses by endpoint name. Peers not listed can still
  /// reach us inbound (their name is learned from their first frame) and
  /// receive replies over that connection.
  std::map<std::string, TcpPeer> peers;

  Micros connect_timeout = 2 * kMicrosPerSecond;
  /// Close a connection whose outbound buffer has made no progress for
  /// this long (peer stopped reading).
  Micros write_stall_timeout = 5 * kMicrosPerSecond;
  /// Close a connection with no inbound bytes for this long; 0 disables
  /// (idle cluster links are legitimate between gossip rounds).
  Micros read_idle_timeout = 0;
  Micros reconnect_backoff_min = 50 * kMicrosPerMilli;
  Micros reconnect_backoff_max = 2 * kMicrosPerSecond;

  /// Per-connection outbound high watermark: frames that would push the
  /// buffered bytes past this are dropped and counted (backpressure policy;
  /// the replication layer's quorums own reliability, so shedding beats
  /// unbounded buffering).
  std::size_t max_outbound_queue_bytes = 4u * 1024 * 1024;
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
};

/// Real asynchronous transport: an epoll event loop on a dedicated thread,
/// length-prefixed BSON frames (net/frame.h), lazy connections with
/// reconnect-backoff, bounded outbound queues, and the same best-effort
/// drop semantics as the simulator — the cluster layer cannot tell them
/// apart, which is the point.
///
/// Threading: endpoint handlers and timers fire exclusively on the loop
/// thread, preserving the single-threaded discipline StorageNode/Gossiper
/// assume. The public surface (Send, ScheduleTimer, Post, ExportStats, ...)
/// is safe to call from any thread; calls from foreign threads are handed
/// to the loop via an eventfd-signalled op queue.
class TcpTransport : public Transport {
 public:
  explicit TcpTransport(TcpTransportConfig config);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Binds the listener (unless disabled) and starts the loop thread.
  /// Connections are accepted only once the first endpoint is registered:
  /// before that no inbound frame could be delivered, so peers that dial
  /// early wait in the kernel's accept queue (their connect() succeeds)
  /// instead of having their first frames read and dropped.
  Status Start();

  /// Graceful shutdown: wakes the loop, closes every connection, joins the
  /// thread. Idempotent; afterwards Send/ScheduleTimer are no-ops.
  void Stop();

  /// Actual bound port (resolves listen_port = 0). Valid after Start().
  std::uint16_t listen_port() const { return listen_port_; }

  /// Adds or replaces a peer address (membership change). Thread-safe.
  void AddOrUpdatePeer(const std::string& name, TcpPeer peer);

  /// Runs `fn` on the loop thread (setup of loop-owned components, e.g. the
  /// daemon constructing its StorageNode). Runs inline when already on the
  /// loop thread, or when the loop has never started / has fully stopped
  /// (single-threaded setup/teardown contract). A post that races Stop() is
  /// dropped and counted (net.posts_dropped_stopped) — never silently lost
  /// and never run concurrently with the dying loop.
  void Post(std::function<void()> fn);

  // Transport surface.
  void RegisterEndpoint(const std::string& name, Handler handler) override;
  void UnregisterEndpoint(const std::string& name) override;
  void Send(Message msg) override;
  void ExportStats(metrics::Registry* registry) const override;

  // Executor surface. Time is the process steady clock — comparable across
  // the processes of a loopback cluster, which is what makes the per-type
  // frame latency histograms meaningful.
  TimerId ScheduleTimer(Micros delay, std::function<void()> fn) override;
  bool CancelTimer(TimerId id) override;
  Micros NowMicros() const override { return clock_->NowMicros(); }
  const Clock* clock() const override { return clock_; }

 private:
  /// One TCP connection (inbound or outbound). Loop-thread-only.
  struct Conn {
    explicit Conn(std::size_t max_frame_bytes) : reader(max_frame_bytes) {}

    int fd = -1;
    std::string name;          ///< peer endpoint name; learned from the
                               ///< first frame on inbound connections
    bool inbound = false;
    bool connecting = false;   ///< non-blocking connect() still in flight
    bool established = false;
    bool epollout_armed = false;  ///< EPOLLOUT is in the epoll interest set
    bool flush_listed = false;    ///< on flush_list_ for this loop turn
    FrameReader reader;
    std::string outbuf;        ///< pending wire bytes (bounded)
    std::size_t outbuf_off = 0;
    Micros connect_started = 0;
    Micros last_read_at = 0;
    /// Stall clock: stamped when bytes land in an empty outbuf and on every
    /// send() that makes progress.
    Micros last_write_progress = 0;
  };

  /// Reconnect state of a named, addressable peer. Loop-thread-only.
  struct PeerState {
    TcpPeer addr;
    Micros backoff = 0;
    Micros next_attempt_at = 0;
  };

  // --- loop-thread-only internals (no locking needed) ---
  void LoopMain();
  void ProcessOps();
  void RunDueTimers();
  int NextTimerDelayMillis() const;
  void HandleListenReady();
  void HandleConnEvent(int fd, std::uint32_t events);
  void HandleReadable(Conn* conn);
  /// Decodes and delivers every complete frame buffered on `conn`. False
  /// when the connection was closed meanwhile (corrupt frame, or a handler).
  bool DeliverFrames(Conn* conn);
  void HandleWritable(Conn* conn);
  /// Writes `conn`'s outbuf until it is empty or the socket would block,
  /// then arms or disarms EPOLLOUT to match. May close `conn`.
  void Flush(Conn* conn);
  /// Flushes every connection SendOnLoop listed during this loop turn.
  void FlushListed();
  void FinishConnect(Conn* conn);
  /// Starts accepting on the listener (idempotent; no-op without one).
  void ArmListener();
  void DeliverLocally(const Message& msg, std::size_t wire_bytes);
  void SendOnLoop(Message msg);
  Conn* ConnectTo(const std::string& name, PeerState* peer);
  void CloseConn(Conn* conn, bool failed, const char* why);
  void UpdateEpoll(Conn* conn);
  void Housekeeping();

  TimerId ScheduleOnLoop(TimerId id, Micros delay, std::function<void()> fn);
  bool OnLoopThread() const;
  /// Interrupts the loop's epoll wait (a Post from another thread).
  void Wake();

  TcpTransportConfig config_;
  const Clock* clock_;

  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> next_timer_{1};
  std::thread loop_thread_;
  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  bool listener_armed_ = false;  ///< listen_fd_ is in the epoll set
  int wake_fd_ = -1;
  std::uint16_t listen_port_ = 0;

  // Loop-thread state. Touched before Start()/after Stop() only by the
  // single setup/teardown thread.
  std::map<std::string, Handler> endpoints_;
  std::map<std::string, PeerState> peers_;
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;           // by fd
  std::unordered_map<std::string, Conn*> conns_by_peer_;
  /// Connections with frames queued this turn, by fd; flushed once at the
  /// end of the turn so a burst of frames leaves in one send() batch.
  std::vector<int> flush_list_;
  std::map<std::pair<Micros, TimerId>, std::function<void()>> timers_;
  std::unordered_map<TimerId, Micros> timer_deadline_;

  // Lock order: ops_mu_ before stats_mu_ (a posted op may record stats while
  // draining, but stats export never re-enters the op queue).
  mutable Mutex ops_mu_ HOTMAN_ACQUIRED_BEFORE(stats_mu_);
  std::vector<std::function<void()>> pending_ops_ HOTMAN_GUARDED_BY(ops_mu_);
  /// Lifecycle from the op queue's point of view. kRunning: enqueue + wake.
  /// kStopping: the loop will never drain again — drop and count.
  /// kIdle (never started / fully stopped): run inline, the historical
  /// single-threaded setup/teardown contract.
  enum class LoopState { kIdle, kRunning, kStopping };
  LoopState loop_state_ HOTMAN_GUARDED_BY(ops_mu_) = LoopState::kIdle;

  // Counters/histograms live behind their own lock because ExportStats may
  // run off-loop (the daemon's stats endpoint) while the loop records.
  struct Stats {
    std::uint64_t frames_sent = 0;
    std::uint64_t frames_delivered = 0;
    std::uint64_t frames_dropped = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_delivered = 0;
    std::uint64_t dropped_no_endpoint = 0;
    std::uint64_t dropped_not_connected = 0;
    std::uint64_t dropped_backpressure = 0;
    std::uint64_t connections_opened = 0;
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_failed = 0;
    std::uint64_t connections_closed = 0;
    std::uint64_t posts_dropped_stopped = 0;
    std::uint64_t write_syscalls = 0;  ///< send() calls on connections
    std::uint64_t epollout_arms = 0;   ///< EPOLLOUT armed for backpressure
    std::int64_t connections_open = 0;
    std::map<std::string, metrics::Histogram> latency_by_type;
  };
  mutable Mutex stats_mu_ HOTMAN_ACQUIRED_AFTER(ops_mu_);
  Stats stats_ HOTMAN_GUARDED_BY(stats_mu_);
};

}  // namespace hotman::net

#endif  // HOTMAN_NET_TCP_TRANSPORT_H_
