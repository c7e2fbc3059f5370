//===- runtime/Server.h - Sharded epoll streaming-session server -*-C++-*-===//
///
/// \file
/// Third layer of the serving runtime: many named StreamSessions served
/// concurrently over Unix-domain and/or TCP sockets.  The wire protocol
/// is length-prefixed frames (little-endian u32 payload length, then the
/// payload); the first payload byte is the opcode:
///
///   requests                               responses
///   'O'  open:   name \n backend \n spec   'k' name        | 'e' name msg
///   'F'  feed:   name \n chunk-bytes       'k' name output | 'e' name msg
///   'E'  finish: name                      'k' name output | 'e' name msg
///   'C'  close:  name (discard session)    'k' name        | 'e' name msg
///   'S'  stats (counters dump)             'k' \n stats-text
///   'M'  metrics (Prometheus text)         'k' \n prometheus-text
///   'Q'  shutdown (graceful drain)         'k' \n
///
/// where `backend` is "vm", "fastpath" or "native", `spec` is
/// PipelineSpec::parse input, and every response payload is status byte +
/// name + '\n' + body (responses are self-identifying, so a client may
/// pipeline requests; replies stay ordered per session).
///
/// Execution model (see DESIGN.md "Serving transport"): N *shards*, each
/// one thread owning one edge-triggered epoll instance.  A connection is
/// owned by exactly one shard for its whole life — only that shard reads,
/// writes or closes its descriptor, so the hot path (in-place frame parse
/// from the connection's InputSlab → StreamSession::feed → vectored
/// writev reply) takes no locks at all.  TCP accepts use one
/// SO_REUSEPORT listener per shard (kernel-balanced); Unix sockets — and
/// TCP where SO_REUSEPORT is unavailable — fall back to a single
/// listener on shard 0 that hands accepted fds to shards round-robin
/// through their mailboxes (an eventfd-woken closure queue, the only
/// cross-shard channel).  A session is pinned to the shard whose
/// connection opened it; the rare frame arriving on another shard's
/// connection is forwarded through the home shard's mailbox and its
/// reply routed back the same way, preserving per-session order.
///
/// Backpressure: replies queue on the connection's bounded OutQueue;
/// while the backlog is above a high-watermark the shard stops reading
/// that connection (the kernel socket buffer then fills and the client
/// stalls — end-to-end backpressure without threads blocking).  Past the
/// hard cap the connection is doomed: queued frames count into
/// frames_dropped and every session awaiting one of them is discarded —
/// the client cannot know which replies it missed.
///
/// Lifecycle: signalStop() (async-signal-safe, also the SIGTERM/SIGINT
/// path of efc-serve and the 'Q' frame) begins a graceful drain — every
/// shard closes its listeners, takes a final read of each connection's
/// socket, executes the frames already buffered, flushes replies, then
/// closes; a drain deadline bounds how long slow clients can hold the
/// exit.  Idle sessions are reaped: a session untouched for IdleMs
/// (EFC_SESSION_IDLE_MS) is evicted so abandoned clients cannot pin
/// StreamSession memory forever.
///
//===----------------------------------------------------------------------===//

#ifndef EFC_RUNTIME_SERVER_H
#define EFC_RUNTIME_SERVER_H

#include "runtime/NetBuffers.h"
#include "runtime/PipelineCache.h"
#include "runtime/StreamSession.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace efc::runtime {

/// Frame helpers for blocking client sockets (tools/efc-serve, tests).
/// Both return false on EOF or error; frames above ~64 MB are rejected.
/// The server side never uses these — it parses in place (NetBuffers.h).
bool sendFrame(int Fd, std::string_view Payload);
bool recvFrame(int Fd, std::string &Payload);

struct ServerOptions {
  std::string SocketPath;    ///< Unix listener path (empty: none)
  bool Tcp = false;          ///< enable the TCP listener(s)
  uint16_t TcpPort = 0;      ///< TCP port (0: kernel-assigned, see tcpPort())
  std::string TcpHost = "0.0.0.0"; ///< TCP bind address
  unsigned Shards = 1;       ///< event-loop shard count
  size_t CacheCapacity = 32; ///< PipelineCache entries
  /// Reply-backlog hard cap per connection; past it the connection is
  /// doomed (frames_dropped).  Reads pause at half this watermark.
  size_t MaxConnBacklog = 64u << 20;
  /// Idle-session eviction threshold; 0 disables.  The constructor
  /// falls back to EFC_SESSION_IDLE_MS when left at 0.
  uint64_t IdleMs = 0;
  uint64_t DrainMs = 5000; ///< graceful-shutdown drain deadline
};

class Server {
public:
  explicit Server(ServerOptions Opts);
  ~Server();

  /// Binds the listeners and spawns the shard threads.
  bool start(std::string *Err = nullptr);
  /// Requests a graceful drain.  Async-signal-safe after start() —
  /// it only writes one byte to the stop pipe — so efc-serve calls it
  /// straight from its SIGTERM/SIGINT handler.
  void signalStop();
  /// Joins every shard; returns once the server is fully down.
  void wait();
  /// signalStop() + wait().
  void stop();

  /// Counters dump served for 'S' frames (also usable in-process).
  std::string statsText() const;

  /// Effective TCP port (resolves port 0 after start()).
  uint16_t tcpPort() const { return BoundTcpPort; }
  /// True when TCP accepts are kernel-balanced via SO_REUSEPORT; false
  /// when the single-listener fd-handoff fallback is in effect.
  bool tcpReusePort() const { return TcpReusePort; }

  const ServerOptions &options() const { return Opts; }

private:
  struct Shard;

  /// One shard-owned connection.  Every field below is touched only by
  /// the owner shard's thread (the fd-reuse hazard the old worker-pool
  /// server guarded with Conn::WriteMu is gone by construction: no other
  /// thread can ever write to or close this descriptor).  Cross-shard
  /// code sees a Conn only through shared_ptr + the Closed flag.
  struct Conn {
    int Fd = -1;
    unsigned Owner = 0; ///< owning shard index
    InputSlab In;
    OutQueue Out;
    bool WantWrite = false;  ///< EPOLLOUT armed (flush blocked)
    bool ReadPaused = false; ///< backlog above watermark: EPOLLIN parked
    bool PeerEof = false;    ///< read side done; close after flush
    bool Closed = false;
    uint64_t CrossPending = 0; ///< forwarded frames awaiting replies
  };
  using ConnPtr = std::shared_ptr<Conn>;

  /// A session living on its home shard.  No queue and no Running flag:
  /// execution is inline on the shard thread, so per-session FIFO order
  /// is the event order itself.
  struct Session {
    std::string Name;
    uint64_t Gen = 0; ///< global epoch — guards stale cross-shard dooms
    std::optional<StreamSession> Stream;
    uint64_t LastActiveMs = 0; ///< steady-clock ms of last frame
  };

  /// Per-shard counters: plain atomics so statsText()/metrics can read
  /// them from any thread while the owner increments lock-free.
  struct ShardCounters {
    std::atomic<uint64_t> Accepts{0};
    std::atomic<uint64_t> Wakeups{0};
    std::atomic<uint64_t> FramesIn{0};
    std::atomic<uint64_t> Replies{0};
    std::atomic<uint64_t> Errors{0};
    std::atomic<uint64_t> Rejected{0};
    std::atomic<uint64_t> FramesDropped{0};
    std::atomic<uint64_t> BytesIn{0};
    std::atomic<uint64_t> BytesOut{0};
    std::atomic<uint64_t> SessionsOpened{0};
    std::atomic<uint64_t> SessionsEvicted{0};
    std::atomic<uint64_t> CrossForwards{0};
    std::atomic<int64_t> ConnsLive{0};
    std::atomic<int64_t> SessionsLive{0};
    std::atomic<int64_t> BacklogBytes{0};
    std::atomic<uint64_t> FastRuns{0};
    std::atomic<uint64_t> FastRunElements{0};
    std::atomic<uint64_t> FastWideElements{0};
    std::atomic<uint64_t> FastTableElements{0};
    std::atomic<uint64_t> FastProgramElements{0};
    std::atomic<uint64_t> FastBytecodeElements{0};
  };

  struct Shard {
    unsigned Id = 0;
    int Ep = -1;         ///< epoll instance
    int WakeFd = -1;     ///< eventfd: mailbox signal
    int TcpListen = -1;  ///< per-shard SO_REUSEPORT listener (-1: none)
    std::thread Thr;
    std::mutex MailMu;
    std::vector<std::function<void()>> Mail;
    std::unordered_map<int, ConnPtr> Conns; ///< by fd, shard-owned
    std::unordered_map<std::string, std::unique_ptr<Session>> Sessions;
    /// Connections whose reads were parked by backpressure and whose
    /// backlog has since drained; resumed iteratively at the loop top
    /// (never recursively from inside a flush).
    std::vector<ConnPtr> Resume;
    ShardCounters Ct;
    bool Draining = false;
    uint64_t DrainByMs = 0; ///< steady ms deadline once draining
    uint64_t LastReapMs = 0;
    // Per-shard registry mirrors (label shard="N"), bound in start().
    metrics::Counter *MAccepts = nullptr;
    metrics::Counter *MWakeups = nullptr;
    metrics::Gauge *MBacklog = nullptr;
    metrics::Gauge *MQueueDepth = nullptr;
  };

  void shardLoop(Shard &S);
  void drainMail(Shard &S);
  void acceptReady(Shard &S, int ListenFd, bool Tcp);
  void adoptConn(Shard &S, int Fd);
  void handleConn(Shard &S, const ConnPtr &C, uint32_t Events);
  void readAndExecute(Shard &S, const ConnPtr &C);
  /// Parses every complete frame in C->In and executes it.  Returns
  /// false when the connection must die (oversized frame).
  bool parseFrames(Shard &S, const ConnPtr &C);
  void execute(Shard &S, const ConnPtr &C, std::string_view Frame);
  void executeSessionOp(Shard &S, const ConnPtr &C, char Op,
                        std::string_view Name, std::string_view Body,
                        Session &Sess);
  void openSession(Shard &S, const ConnPtr &C, std::string_view Name,
                   std::string_view Body);
  /// Queues a reply on C (routing through C's owner shard when this is
  /// not it) and flushes opportunistically.
  void reply(Shard &S, const ConnPtr &C, char Status, std::string_view Name,
             std::string &&Body, std::string_view SessTag);
  void queueOnOwner(Shard &Owner, const ConnPtr &C, char Status,
                    std::string_view Name, std::string &&Body,
                    std::string_view SessTag);
  /// Flushes C's out-queue; arms/disarms EPOLLOUT, pauses/resumes reads
  /// around the backlog watermarks, dooms on error or cap overflow.
  void flushConn(Shard &S, const ConnPtr &C);
  void closeConn(Shard &S, const ConnPtr &C, bool CountBacklogDropped);
  /// Removes the session (home shard only), folding its telemetry.
  void eraseSession(Shard &S, const std::string &Name);
  /// Dooms a session wherever it lives; \p Gen guards against a stale
  /// doom erasing a newer same-named session.
  void doomSessionByName(const std::string &Name, uint64_t Gen);
  void beginDrain(Shard &S);
  void reapIdle(Shard &S, uint64_t NowMs);
  void updateEpoll(Shard &S, const ConnPtr &C);
  void post(unsigned ShardId, std::function<void()> Fn);

  ServerOptions Opts;
  PipelineCache Cache;
  std::vector<std::unique_ptr<Shard>> Shards;

  /// Global session index: name → (home shard, generation).  Touched on
  /// open/close/evict and on shard-local lookup misses — never on the
  /// same-shard feed path.
  struct Home {
    unsigned ShardId;
    uint64_t Gen;
  };
  mutable std::mutex IndexMu;
  std::unordered_map<std::string, Home> SessionIndex;
  std::atomic<uint64_t> GenCounter{1};

  int UnixListenFd = -1; ///< shard 0-owned (fd handoff)
  int TcpListenFd = -1;  ///< fallback single TCP listener (shard 0)
  uint16_t BoundTcpPort = 0;
  bool TcpReusePort = false;
  int StopPipe[2] = {-1, -1};
  std::atomic<unsigned> RoundRobin{0};
  std::atomic<bool> StopRequested{false};
  /// Live connections across all shards; a draining shard may only exit
  /// once this hits zero (or its deadline passes) — while any connection
  /// lives anywhere, cross-shard forwards can still target this shard.
  std::atomic<int64_t> TotalConns{0};
  bool Started = false;
};

} // namespace efc::runtime

#endif // EFC_RUNTIME_SERVER_H
