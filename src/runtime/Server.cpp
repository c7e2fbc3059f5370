//===- runtime/Server.cpp - Sharded epoll event-loop server ---------------===//

#include "runtime/Server.h"

#include "support/EnvParse.h"
#include "support/Metrics.h"
#include "support/Stopwatch.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace efc;
using namespace efc::runtime;

namespace {

constexpr size_t MaxFrame = 64u << 20;
constexpr size_t ReadChunk = 64u << 10;

uint64_t steadyMs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

/// Registry mirrors of the aggregate server counters plus serving-path
/// distributions (per-shard families are bound per shard in start()).
struct ServerMetrics {
  metrics::Counter &SessionsOpened;
  metrics::Counter &SessionsEvicted;
  metrics::Counter &FramesIn;
  metrics::Counter &Replies;
  metrics::Counter &Errors;
  metrics::Counter &Rejected;
  metrics::Counter &FramesDropped;
  metrics::Counter &BytesIn;
  metrics::Counter &BytesOut;
  metrics::Counter &CrossForwards;
  metrics::Gauge &QueueDepth;
  metrics::Histogram &FeedLatency;
  metrics::Histogram &FeedBytes;
  static ServerMetrics &get() {
    auto &R = metrics::Registry::instance();
    static ServerMetrics M{
        R.counter("efc_server_sessions_opened_total", "Sessions opened"),
        R.counter("efc_server_sessions_evicted_total",
                  "Sessions reaped by the idle-eviction sweep"),
        R.counter("efc_server_frames_in_total", "Request frames received"),
        R.counter("efc_server_replies_total", "Response frames sent"),
        R.counter("efc_server_errors_total", "Error responses sent"),
        R.counter("efc_server_rejected_total",
                  "Streams rejected by a pipeline"),
        R.counter("efc_server_frames_dropped_total",
                  "Responses lost to dead or over-backlog connections"),
        R.counter("efc_server_bytes_in_total", "Session input bytes fed"),
        R.counter("efc_server_bytes_out_total",
                  "Session output bytes produced"),
        R.counter("efc_server_cross_shard_forwards_total",
                  "Frames forwarded to a session's home shard"),
        R.gauge("efc_server_queue_depth",
                "Reply frames queued across all connections"),
        R.histogram("efc_server_feed_latency_seconds",
                    "Per-frame feed execution time",
                    {1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 0.01, 0.03, 0.1,
                     0.3, 1.0, 3.0}),
        R.histogram("efc_server_feed_bytes", "Feed frame payload size",
                    {64, 256, 1024, 4096, 16384, 65536, 262144, 1048576})};
    return M;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Blocking-client framing (tools/efc-serve, tests)
//===----------------------------------------------------------------------===//

namespace {

bool writeAll(int Fd, const void *Data, size_t N) {
  const char *P = static_cast<const char *>(Data);
  while (N) {
    // MSG_NOSIGNAL: a peer that closed mid-response must surface as EPIPE,
    // not kill the process (in-process embedders included).
    ssize_t W = ::send(Fd, P, N, MSG_NOSIGNAL);
    if (W <= 0) {
      if (W < 0 && errno == EINTR)
        continue;
      return false;
    }
    P += W;
    N -= size_t(W);
  }
  return true;
}

bool readAll(int Fd, void *Data, size_t N) {
  char *P = static_cast<char *>(Data);
  while (N) {
    ssize_t R = ::read(Fd, P, N);
    if (R <= 0) {
      if (R < 0 && errno == EINTR)
        continue;
      return false;
    }
    P += R;
    N -= size_t(R);
  }
  return true;
}

} // namespace

bool efc::runtime::sendFrame(int Fd, std::string_view Payload) {
  if (Payload.size() > MaxFrame)
    return false;
  unsigned char Hdr[4];
  uint32_t N = uint32_t(Payload.size());
  Hdr[0] = N & 0xFF;
  Hdr[1] = (N >> 8) & 0xFF;
  Hdr[2] = (N >> 16) & 0xFF;
  Hdr[3] = (N >> 24) & 0xFF;
  return writeAll(Fd, Hdr, 4) && writeAll(Fd, Payload.data(), Payload.size());
}

bool efc::runtime::recvFrame(int Fd, std::string &Payload) {
  unsigned char Hdr[4];
  if (!readAll(Fd, Hdr, 4))
    return false;
  uint32_t N = uint32_t(Hdr[0]) | (uint32_t(Hdr[1]) << 8) |
               (uint32_t(Hdr[2]) << 16) | (uint32_t(Hdr[3]) << 24);
  if (N > MaxFrame)
    return false;
  Payload.resize(N);
  return N == 0 || readAll(Fd, Payload.data(), N);
}

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

Server::Server(ServerOptions O)
    : Opts(std::move(O)), Cache(Opts.CacheCapacity) {
  if (Opts.Shards == 0)
    Opts.Shards = 1;
  if (Opts.MaxConnBacklog < (1u << 16))
    Opts.MaxConnBacklog = 1u << 16;
  if (Opts.IdleMs == 0)
    Opts.IdleMs = env::u64("EFC_SESSION_IDLE_MS", Opts.IdleMs);
  Opts.DrainMs = env::u64("EFC_DRAIN_MS", Opts.DrainMs);
}

Server::~Server() { stop(); }

bool Server::start(std::string *Err) {
  auto Fail = [&](const std::string &M) {
    if (Err)
      *Err = M + ": " + strerror(errno);
    for (auto &S : Shards) {
      if (S->Ep >= 0)
        ::close(S->Ep);
      if (S->WakeFd >= 0)
        ::close(S->WakeFd);
      if (S->TcpListen >= 0)
        ::close(S->TcpListen);
    }
    Shards.clear();
    if (UnixListenFd >= 0) {
      ::close(UnixListenFd);
      UnixListenFd = -1;
      ::unlink(Opts.SocketPath.c_str());
    }
    if (TcpListenFd >= 0) {
      ::close(TcpListenFd);
      TcpListenFd = -1;
    }
    for (int I = 0; I < 2; ++I)
      if (StopPipe[I] >= 0) {
        ::close(StopPipe[I]);
        StopPipe[I] = -1;
      }
    return false;
  };

  if (Opts.SocketPath.empty() && !Opts.Tcp) {
    if (Err)
      *Err = "no listener configured (need a socket path or TCP)";
    return false;
  }

  for (unsigned I = 0; I < Opts.Shards; ++I) {
    Shards.push_back(std::make_unique<Shard>());
    Shards.back()->Id = I;
  }

  // Unix listener: single socket owned by shard 0, accepted fds handed
  // to shards round-robin (Unix sockets have no SO_REUSEPORT balancing).
  if (!Opts.SocketPath.empty()) {
    if (Opts.SocketPath.size() >= sizeof(sockaddr_un{}.sun_path))
      return Fail("socket path too long");
    UnixListenFd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (UnixListenFd < 0)
      return Fail("socket");
    ::unlink(Opts.SocketPath.c_str());
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    strncpy(Addr.sun_path, Opts.SocketPath.c_str(),
            sizeof(Addr.sun_path) - 1);
    if (::bind(UnixListenFd, reinterpret_cast<sockaddr *>(&Addr),
               sizeof(Addr)) != 0)
      return Fail("bind " + Opts.SocketPath);
    if (::listen(UnixListenFd, 1024) != 0)
      return Fail("listen");
  }

  // TCP listeners: one SO_REUSEPORT socket per shard so the kernel
  // balances accepts with no handoff at all; when SO_REUSEPORT is
  // unavailable, one listener on shard 0 hands fds off round-robin.
  if (Opts.Tcp) {
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(Opts.TcpPort);
    if (::inet_pton(AF_INET, Opts.TcpHost.c_str(), &Addr.sin_addr) != 1)
      Addr.sin_addr.s_addr = INADDR_ANY;
    auto makeListener = [&](bool ReusePort) -> int {
      int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
      if (Fd < 0)
        return -1;
      int One = 1;
      ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
      if (ReusePort &&
          ::setsockopt(Fd, SOL_SOCKET, SO_REUSEPORT, &One, sizeof(One)) !=
              0) {
        ::close(Fd);
        return -1;
      }
      if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
              0 ||
          ::listen(Fd, 1024) != 0) {
        ::close(Fd);
        return -1;
      }
      return Fd;
    };
    TcpReusePort = true;
    for (unsigned I = 0; I < Opts.Shards && TcpReusePort; ++I) {
      int Fd = makeListener(/*ReusePort=*/true);
      if (Fd < 0) {
        TcpReusePort = false;
        break;
      }
      Shards[I]->TcpListen = Fd;
      if (I == 0) {
        // Resolve an ephemeral port so the remaining shards bind it too.
        sockaddr_in Bound{};
        socklen_t Len = sizeof(Bound);
        if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&Bound), &Len) ==
            0) {
          BoundTcpPort = ntohs(Bound.sin_port);
          Addr.sin_port = Bound.sin_port;
        }
      }
    }
    if (!TcpReusePort) {
      for (auto &S : Shards)
        if (S->TcpListen >= 0) {
          ::close(S->TcpListen);
          S->TcpListen = -1;
        }
      TcpListenFd = makeListener(/*ReusePort=*/false);
      if (TcpListenFd < 0)
        return Fail("tcp listen " + Opts.TcpHost);
      sockaddr_in Bound{};
      socklen_t Len = sizeof(Bound);
      if (::getsockname(TcpListenFd, reinterpret_cast<sockaddr *>(&Bound),
                        &Len) == 0)
        BoundTcpPort = ntohs(Bound.sin_port);
    }
  }

  // O_NONBLOCK on the write end keeps signalStop() safe from a signal
  // handler even if the pipe were somehow full: the write fails instead
  // of blocking inside a handler.
  if (::pipe2(StopPipe, O_NONBLOCK) != 0)
    return Fail("pipe");

  auto &R = metrics::Registry::instance();
  for (auto &SP : Shards) {
    Shard &S = *SP;
    S.Ep = ::epoll_create1(EPOLL_CLOEXEC);
    if (S.Ep < 0)
      return Fail("epoll_create1");
    S.WakeFd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (S.WakeFd < 0)
      return Fail("eventfd");
    auto Add = [&](int Fd, uint32_t Ev) {
      epoll_event E{};
      E.events = Ev;
      E.data.fd = Fd;
      return ::epoll_ctl(S.Ep, EPOLL_CTL_ADD, Fd, &E) == 0;
    };
    // Level-triggered wake + stop fds: the eventfd is read to clear on
    // each wake; the stop pipe is never read — it stays readable, and
    // beginDrain() deregisters it so the drain loop is not spun.
    if (!Add(S.WakeFd, EPOLLIN) || !Add(StopPipe[0], EPOLLIN))
      return Fail("epoll_ctl");
    if (S.TcpListen >= 0 && !Add(S.TcpListen, EPOLLIN | EPOLLET))
      return Fail("epoll_ctl tcp listener");
    if (S.Id == 0 && UnixListenFd >= 0 &&
        !Add(UnixListenFd, EPOLLIN | EPOLLET))
      return Fail("epoll_ctl unix listener");
    if (S.Id == 0 && TcpListenFd >= 0 &&
        !Add(TcpListenFd, EPOLLIN | EPOLLET))
      return Fail("epoll_ctl tcp listener");

    std::string L = "shard=\"" + std::to_string(S.Id) + "\"";
    S.MAccepts =
        &R.counter("efc_server_accepts_total", "Connections accepted", L);
    S.MWakeups = &R.counter("efc_server_epoll_wakeups_total",
                            "epoll_wait returns", L);
    S.MBacklog = &R.gauge("efc_server_out_backlog_bytes",
                          "Reply bytes queued on this shard's connections",
                          L);
    S.MQueueDepth = &R.gauge("efc_server_queue_depth",
                             "Reply frames queued on this shard", L);
  }

  for (auto &SP : Shards)
    SP->Thr = std::thread([this, S = SP.get()] { shardLoop(*S); });
  Started = true;
  return true;
}

void Server::signalStop() {
  StopRequested.store(true, std::memory_order_relaxed);
  if (StopPipe[1] >= 0) {
    ssize_t W;
    do {
      W = ::write(StopPipe[1], "x", 1);
    } while (W < 0 && errno == EINTR);
  }
}

void Server::wait() {
  for (auto &SP : Shards)
    if (SP->Thr.joinable())
      SP->Thr.join();
  for (auto &SP : Shards) {
    if (SP->Ep >= 0) {
      ::close(SP->Ep);
      SP->Ep = -1;
    }
    if (SP->WakeFd >= 0) {
      ::close(SP->WakeFd);
      SP->WakeFd = -1;
    }
    if (SP->TcpListen >= 0) {
      ::close(SP->TcpListen);
      SP->TcpListen = -1;
    }
  }
  if (UnixListenFd >= 0) {
    ::close(UnixListenFd);
    UnixListenFd = -1;
    ::unlink(Opts.SocketPath.c_str());
  }
  if (TcpListenFd >= 0) {
    ::close(TcpListenFd);
    TcpListenFd = -1;
  }
  for (int I = 0; I < 2; ++I)
    if (StopPipe[I] >= 0) {
      ::close(StopPipe[I]);
      StopPipe[I] = -1;
    }
}

void Server::stop() {
  signalStop();
  wait();
}

void Server::post(unsigned ShardId, std::function<void()> Fn) {
  Shard &S = *Shards[ShardId];
  {
    std::lock_guard<std::mutex> L(S.MailMu);
    S.Mail.push_back(std::move(Fn));
  }
  uint64_t One = 1;
  ssize_t W;
  do {
    W = ::write(S.WakeFd, &One, sizeof(One));
  } while (W < 0 && errno == EINTR);
}

void Server::drainMail(Shard &S) {
  std::vector<std::function<void()>> Batch;
  {
    std::lock_guard<std::mutex> L(S.MailMu);
    Batch.swap(S.Mail);
  }
  for (auto &Fn : Batch)
    Fn();
}

//===----------------------------------------------------------------------===//
// Shard event loop
//===----------------------------------------------------------------------===//

void Server::shardLoop(Shard &S) {
  epoll_event Events[128];
  for (;;) {
    drainMail(S);

    // Resume reads parked by backpressure — iteratively, so a flush
    // that frees the backlog never recurses back into the read path.
    while (!S.Resume.empty()) {
      ConnPtr C = std::move(S.Resume.back());
      S.Resume.pop_back();
      if (C->Closed || !C->ReadPaused)
        continue;
      if (C->Out.bytes() >= Opts.MaxConnBacklog / 2)
        continue; // still above watermark; EPOLLOUT will requeue
      C->ReadPaused = false;
      updateEpoll(S, C);
      if (!S.Draining)
        readAndExecute(S, C);
    }

    uint64_t Now = steadyMs();
    if (S.Draining) {
      // Close every connection with nothing left to deliver; force the
      // rest once the deadline passes.  Exit only when no connection
      // lives anywhere — while one does, forwards can still arrive.
      std::vector<ConnPtr> Open;
      Open.reserve(S.Conns.size());
      for (auto &[Fd, C] : S.Conns)
        Open.push_back(C);
      for (auto &C : Open)
        if (Now >= S.DrainByMs || (C->Out.empty() && C->CrossPending == 0))
          closeConn(S, C, /*CountBacklogDropped=*/Now >= S.DrainByMs);
      if (S.Conns.empty() &&
          (TotalConns.load(std::memory_order_acquire) == 0 ||
           Now >= S.DrainByMs))
        break;
    }
    if (Opts.IdleMs && !S.Draining &&
        Now - S.LastReapMs >= std::max<uint64_t>(Opts.IdleMs / 4, 10)) {
      S.LastReapMs = Now;
      reapIdle(S, Now);
    }

    int TimeoutMs = S.Draining ? 20
                    : Opts.IdleMs
                        ? int(std::clamp<uint64_t>(Opts.IdleMs / 4, 10, 200))
                        : 200;
    int N = ::epoll_wait(S.Ep, Events, 128, TimeoutMs);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    S.Ct.Wakeups.fetch_add(1, std::memory_order_relaxed);
    S.MWakeups->inc();
    for (int I = 0; I < N; ++I) {
      int Fd = Events[I].data.fd;
      uint32_t Ev = Events[I].events;
      if (Fd == S.WakeFd) {
        uint64_t Junk;
        while (::read(S.WakeFd, &Junk, sizeof(Junk)) > 0) {
        }
        continue; // mail drained at loop top
      }
      if (Fd == StopPipe[0]) {
        beginDrain(S);
        continue;
      }
      if (Fd == S.TcpListen) {
        acceptReady(S, Fd, /*Tcp=*/true);
        continue;
      }
      if (S.Id == 0 && Fd == UnixListenFd) {
        acceptReady(S, Fd, /*Tcp=*/false);
        continue;
      }
      if (S.Id == 0 && Fd == TcpListenFd) {
        acceptReady(S, Fd, /*Tcp=*/true);
        continue;
      }
      auto It = S.Conns.find(Fd);
      if (It == S.Conns.end())
        continue; // closed earlier in this batch's mail
      // Copy out of the map: closeConn erases the map entry, which would
      // otherwise destroy the very shared_ptr handleConn holds.
      ConnPtr C = It->second;
      handleConn(S, C, Ev);
    }
  }

  // Shard teardown: surviving connections and sessions die with it.
  std::vector<ConnPtr> Leftover;
  for (auto &[Fd, C] : S.Conns)
    Leftover.push_back(C);
  for (auto &C : Leftover)
    closeConn(S, C, /*CountBacklogDropped=*/true);
  std::vector<std::string> Names;
  for (auto &[Name, Sess] : S.Sessions)
    Names.push_back(Name);
  for (auto &Name : Names)
    eraseSession(S, Name);
}

void Server::beginDrain(Shard &S) {
  if (S.Draining)
    return;
  S.Draining = true;
  S.DrainByMs = steadyMs() + Opts.DrainMs;
  ::epoll_ctl(S.Ep, EPOLL_CTL_DEL, StopPipe[0], nullptr);
  if (S.TcpListen >= 0) {
    ::close(S.TcpListen);
    S.TcpListen = -1;
  }
  if (S.Id == 0) {
    if (UnixListenFd >= 0) {
      ::epoll_ctl(S.Ep, EPOLL_CTL_DEL, UnixListenFd, nullptr);
      ::close(UnixListenFd);
      UnixListenFd = -1;
      ::unlink(Opts.SocketPath.c_str());
    }
    if (TcpListenFd >= 0) {
      ::epoll_ctl(S.Ep, EPOLL_CTL_DEL, TcpListenFd, nullptr);
      ::close(TcpListenFd);
      TcpListenFd = -1;
    }
  }
  // Final read: everything the kernel already buffered for us counts as
  // in-flight and is executed before the connection closes — the old
  // server lost these frames on its stop path.
  std::vector<ConnPtr> Open;
  Open.reserve(S.Conns.size());
  for (auto &[Fd, C] : S.Conns)
    Open.push_back(C);
  for (auto &C : Open) {
    if (C->Closed)
      continue;
    if (C->ReadPaused) {
      C->ReadPaused = false;
      updateEpoll(S, C);
    }
    readAndExecute(S, C);
    if (!C->Closed)
      flushConn(S, C);
  }
}

void Server::reapIdle(Shard &S, uint64_t NowMs) {
  std::vector<std::string> Stale;
  for (auto &[Name, Sess] : S.Sessions)
    if (NowMs - Sess->LastActiveMs >= Opts.IdleMs)
      Stale.push_back(Name);
  for (auto &Name : Stale) {
    eraseSession(S, Name);
    S.Ct.SessionsEvicted.fetch_add(1, std::memory_order_relaxed);
    ServerMetrics::get().SessionsEvicted.inc();
  }
}

//===----------------------------------------------------------------------===//
// Accept & connection ownership
//===----------------------------------------------------------------------===//

void Server::acceptReady(Shard &S, int ListenFd, bool Tcp) {
  for (;;) {
    int Fd = ::accept4(ListenFd, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      break; // EAGAIN or a transient accept error: wait for next edge
    }
    if (Tcp) {
      int One = 1;
      ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    }
    // Per-shard SO_REUSEPORT listeners adopt locally; the single-listener
    // paths (Unix socket, no-REUSEPORT TCP) hand off round-robin.
    if (ListenFd == S.TcpListen) {
      adoptConn(S, Fd);
      continue;
    }
    unsigned Target =
        RoundRobin.fetch_add(1, std::memory_order_relaxed) % Shards.size();
    if (Target == S.Id)
      adoptConn(S, Fd);
    else
      post(Target, [this, Target, Fd] {
        Shard &T = *Shards[Target];
        if (T.Draining)
          ::close(Fd);
        else
          adoptConn(T, Fd);
      });
  }
}

void Server::adoptConn(Shard &S, int Fd) {
  auto C = std::make_shared<Conn>();
  C->Fd = Fd;
  C->Owner = S.Id;
  epoll_event E{};
  E.events = EPOLLIN | EPOLLRDHUP | EPOLLET;
  E.data.fd = Fd;
  if (::epoll_ctl(S.Ep, EPOLL_CTL_ADD, Fd, &E) != 0) {
    ::close(Fd);
    return;
  }
  S.Conns.emplace(Fd, C);
  S.Ct.Accepts.fetch_add(1, std::memory_order_relaxed);
  S.MAccepts->inc();
  S.Ct.ConnsLive.fetch_add(1, std::memory_order_relaxed);
  TotalConns.fetch_add(1, std::memory_order_acq_rel);
}

void Server::updateEpoll(Shard &S, const ConnPtr &C) {
  epoll_event E{};
  E.events = EPOLLET | (C->ReadPaused ? 0u : (EPOLLIN | EPOLLRDHUP)) |
             (C->WantWrite ? uint32_t(EPOLLOUT) : 0u);
  E.data.fd = C->Fd;
  ::epoll_ctl(S.Ep, EPOLL_CTL_MOD, C->Fd, &E);
}

void Server::handleConn(Shard &S, const ConnPtr &C, uint32_t Events) {
  if (C->Closed)
    return;
  if (Events & EPOLLOUT) {
    C->WantWrite = false; // rearmed by flushConn if still blocked
    flushConn(S, C);
    if (C->Closed)
      return;
  }
  if (Events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) {
    if (S.Draining) {
      // No new input during drain; but a HUP with nothing left queued
      // means the peer is gone entirely.
      if ((Events & (EPOLLHUP | EPOLLERR)) && C->Out.empty())
        closeConn(S, C, false);
      return;
    }
    readAndExecute(S, C);
  }
}

void Server::readAndExecute(Shard &S, const ConnPtr &C) {
  for (;;) {
    C->In.reserveWritable(ReadChunk);
    ssize_t N = ::read(C->Fd, C->In.writePtr(), C->In.writable());
    if (N > 0) {
      C->In.commit(size_t(N));
      if (!parseFrames(S, C))
        return; // protocol error: connection already doomed
      if (C->Closed || C->ReadPaused)
        return;
      continue;
    }
    if (N == 0) {
      C->PeerEof = true;
      break;
    }
    if (errno == EINTR)
      continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      break;
    closeConn(S, C, /*CountBacklogDropped=*/true);
    return;
  }
  if (C->PeerEof && C->Out.empty() && C->CrossPending == 0)
    closeConn(S, C, false);
}

bool Server::parseFrames(Shard &S, const ConnPtr &C) {
  for (;;) {
    std::string_view Frame;
    switch (C->In.nextFrame(MaxFrame, &Frame)) {
    case InputSlab::ParseResult::NeedMore:
      return true;
    case InputSlab::ParseResult::TooLarge:
      // The stream cannot be re-synchronized past a bogus length; say
      // why, then tear the connection down.
      reply(S, C, 'e', "", "frame exceeds 64 MB limit", "");
      closeConn(S, C, /*CountBacklogDropped=*/false);
      return false;
    case InputSlab::ParseResult::Frame: {
      size_t Len = Frame.size();
      execute(S, C, Frame);
      C->In.consumeFrame(Len);
      if (C->Closed)
        return true;
      break;
    }
    }
  }
}

//===----------------------------------------------------------------------===//
// Frame execution
//===----------------------------------------------------------------------===//

void Server::execute(Shard &S, const ConnPtr &C, std::string_view Frame) {
  if (Frame.empty())
    return;
  S.Ct.FramesIn.fetch_add(1, std::memory_order_relaxed);
  ServerMetrics::get().FramesIn.inc();
  char Op = Frame[0];
  if (Op == 'S') {
    reply(S, C, 'k', "", statsText(), "");
    return;
  }
  if (Op == 'M') {
    reply(S, C, 'k', "", metrics::Registry::instance().renderPrometheus(),
          "");
    return;
  }
  if (Op == 'Q') {
    reply(S, C, 'k', "", "", "");
    signalStop();
    return;
  }
  if (Op != 'O' && Op != 'F' && Op != 'E' && Op != 'C') {
    reply(S, C, 'e', "", "unknown opcode", "");
    return;
  }
  size_t Nl = Frame.find('\n', 1);
  std::string_view Name = Nl == std::string_view::npos
                              ? Frame.substr(1)
                              : Frame.substr(1, Nl - 1);
  std::string_view Body =
      Nl == std::string_view::npos ? std::string_view() : Frame.substr(Nl + 1);
  if (Name.empty()) {
    reply(S, C, 'e', "", "missing session name", "");
    return;
  }
  if (Op == 'O') {
    openSession(S, C, Name, Body);
    return;
  }

  std::string NameS(Name);
  auto It = S.Sessions.find(NameS);
  if (It != S.Sessions.end()) {
    executeSessionOp(S, C, Op, Name, Body, *It->second);
    return;
  }
  // Not homed here: route through the session's home shard.  This is
  // the slow path — a client that opens and feeds on one connection
  // never takes it.
  unsigned HomeShard = 0;
  bool Found = false;
  {
    std::lock_guard<std::mutex> L(IndexMu);
    auto HIt = SessionIndex.find(NameS);
    if (HIt != SessionIndex.end()) {
      HomeShard = HIt->second.ShardId;
      Found = true;
    }
  }
  if (!Found || HomeShard == S.Id) {
    reply(S, C, 'e', Name, "no such session", "");
    return;
  }
  C->CrossPending++;
  S.Ct.CrossForwards.fetch_add(1, std::memory_order_relaxed);
  ServerMetrics::get().CrossForwards.inc();
  post(HomeShard,
       [this, HomeShard, Op, NameS = std::move(NameS),
        BodyS = std::string(Body), C] {
         Shard &H = *Shards[HomeShard];
         auto SIt = H.Sessions.find(NameS);
         if (SIt == H.Sessions.end()) {
           reply(H, C, 'e', NameS, "no such session", "");
           return;
         }
         executeSessionOp(H, C, Op, NameS, BodyS, *SIt->second);
       });
}

void Server::openSession(Shard &S, const ConnPtr &C, std::string_view Name,
                         std::string_view Body) {
  std::string NameS(Name);
  uint64_t Gen = GenCounter.fetch_add(1, std::memory_order_relaxed);
  bool Claimed;
  {
    std::lock_guard<std::mutex> L(IndexMu);
    Claimed = SessionIndex.try_emplace(NameS, Home{S.Id, Gen}).second;
  }
  if (!Claimed) {
    // Unlocked before the reply: reply may flush.
    reply(S, C, 'e', Name, "session already open", "");
    return;
  }
  {
    auto Unclaim = [&] {
      std::lock_guard<std::mutex> L(IndexMu);
      auto It = SessionIndex.find(NameS);
      if (It != SessionIndex.end() && It->second.Gen == Gen)
        SessionIndex.erase(It);
    };
    // Body: backend line, then the spec text.
    size_t Nl = Body.find('\n');
    std::string BackendStr(Nl == std::string_view::npos ? Body
                                                        : Body.substr(0, Nl));
    std::string SpecText(Nl == std::string_view::npos ? std::string_view()
                                                      : Body.substr(Nl + 1));
    // EFC_BACKEND overrides every OPEN's requested backend — operator
    // escape hatch for A/B measurement and for forcing plain bytecode if
    // the fast path ever misbehaves in production.
    if (const char *Forced = getenv("EFC_BACKEND"))
      BackendStr = Forced;
    StreamSession::Backend B;
    if (BackendStr == "vm")
      B = StreamSession::Backend::Vm;
    else if (BackendStr == "fastpath")
      B = StreamSession::Backend::Fast;
    else if (BackendStr == "native")
      B = StreamSession::Backend::Native;
    else {
      Unclaim();
      reply(S, C, 'e', Name, "unknown backend '" + BackendStr + "'", "");
      return;
    }
    std::string Err;
    auto Spec = PipelineSpec::parse(SpecText, &Err);
    if (!Spec) {
      Unclaim();
      reply(S, C, 'e', Name, std::move(Err), "");
      return;
    }
    // The build runs inline on the shard (single-flight through the
    // shared cache, so N shards opening one spec still fuse once).  A
    // cold native build can stall this shard's loop for its duration —
    // the documented tradeoff for a lock-free hot path; warm opens are
    // a hash lookup.
    auto P = Cache.get(*Spec, B == StreamSession::Backend::Native, &Err);
    if (!P) {
      Unclaim();
      reply(S, C, 'e', Name, std::move(Err), "");
      return;
    }
    auto St = StreamSession::open(std::move(P), B, &Err);
    if (!St) {
      Unclaim();
      reply(S, C, 'e', Name, std::move(Err), "");
      return;
    }
    auto Sess = std::make_unique<Session>();
    Sess->Name = NameS;
    Sess->Gen = Gen;
    Sess->Stream.emplace(std::move(*St));
    Sess->LastActiveMs = steadyMs();
    S.Sessions.emplace(NameS, std::move(Sess));
    S.Ct.SessionsOpened.fetch_add(1, std::memory_order_relaxed);
    S.Ct.SessionsLive.fetch_add(1, std::memory_order_relaxed);
    ServerMetrics::get().SessionsOpened.inc();
    reply(S, C, 'k', Name, "", NameS);
  }
}

void Server::executeSessionOp(Shard &S, const ConnPtr &C, char Op,
                              std::string_view Name, std::string_view Body,
                              Session &Sess) {
  Sess.LastActiveMs = steadyMs();
  ServerMetrics &M = ServerMetrics::get();
  switch (Op) {
  case 'F': {
    if (!Sess.Stream) {
      reply(S, C, 'e', Name, "session not open", "");
      return;
    }
    Stopwatch Timer;
    // Zero-copy: Body views the connection's input slab (or the
    // forwarded copy); the session consumes it in place.
    bool Ok = Sess.Stream->feed(Body.data(), Body.size());
    std::string Out = Sess.Stream->takeOutput();
    M.FeedLatency.observe(Timer.seconds());
    M.FeedBytes.observe(double(Body.size()));
    M.BytesIn.inc(Body.size());
    M.BytesOut.inc(Out.size());
    S.Ct.BytesIn.fetch_add(Body.size(), std::memory_order_relaxed);
    S.Ct.BytesOut.fetch_add(Out.size(), std::memory_order_relaxed);
    if (!Ok) {
      S.Ct.Rejected.fetch_add(1, std::memory_order_relaxed);
      M.Rejected.inc();
      eraseSession(S, Sess.Name);
      reply(S, C, 'e', Name, "input rejected by the pipeline", "");
      return;
    }
    reply(S, C, 'k', Name, std::move(Out), Name);
    return;
  }
  case 'E': {
    if (!Sess.Stream) {
      eraseSession(S, Sess.Name);
      reply(S, C, 'e', Name, "session not open", "");
      return;
    }
    bool Ok = Sess.Stream->finish();
    std::string Out = Sess.Stream->takeOutput();
    M.BytesOut.inc(Out.size());
    S.Ct.BytesOut.fetch_add(Out.size(), std::memory_order_relaxed);
    if (!Ok) {
      S.Ct.Rejected.fetch_add(1, std::memory_order_relaxed);
      M.Rejected.inc();
    }
    eraseSession(S, Sess.Name);
    if (!Ok)
      reply(S, C, 'e', Name, "stream rejected by the finalizer", "");
    else
      reply(S, C, 'k', Name, std::move(Out), Name);
    return;
  }
  case 'C':
    eraseSession(S, Sess.Name);
    reply(S, C, 'k', Name, "", "");
    return;
  default:
    reply(S, C, 'e', Name, "bad opcode", "");
    return;
  }
}

void Server::eraseSession(Shard &S, const std::string &Name) {
  auto It = S.Sessions.find(Name);
  if (It == S.Sessions.end())
    return;
  Session &Sess = *It->second;
  if (Sess.Stream) {
    // Fold the session's execution ledger into the shard totals exactly
    // once, at end of life (home-shard-ordered, so the stream is
    // quiescent here).
    S.Ct.FastRuns.fetch_add(Sess.Stream->fastRuns(),
                            std::memory_order_relaxed);
    S.Ct.FastRunElements.fetch_add(Sess.Stream->fastRunElements(),
                                   std::memory_order_relaxed);
    S.Ct.FastWideElements.fetch_add(Sess.Stream->fastWideElements(),
                                    std::memory_order_relaxed);
    S.Ct.FastTableElements.fetch_add(Sess.Stream->fastTableElements(),
                                     std::memory_order_relaxed);
    S.Ct.FastProgramElements.fetch_add(Sess.Stream->fastProgramElements(),
                                       std::memory_order_relaxed);
    S.Ct.FastBytecodeElements.fetch_add(Sess.Stream->fastBytecodeElements(),
                                        std::memory_order_relaxed);
  }
  uint64_t Gen = Sess.Gen;
  // Copy before the erase: callers routinely pass the session's own Name
  // member, which dies with the map entry.
  std::string Key(Name);
  S.Sessions.erase(It);
  S.Ct.SessionsLive.fetch_sub(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> L(IndexMu);
  auto HIt = SessionIndex.find(Key);
  if (HIt != SessionIndex.end() && HIt->second.Gen == Gen)
    SessionIndex.erase(HIt);
}

void Server::doomSessionByName(const std::string &Name, uint64_t Gen) {
  unsigned HomeShard = 0;
  uint64_t HomeGen = 0;
  {
    std::lock_guard<std::mutex> L(IndexMu);
    auto It = SessionIndex.find(Name);
    if (It == SessionIndex.end())
      return;
    if (Gen != 0 && It->second.Gen != Gen)
      return; // the name was reopened; the new epoch is healthy
    HomeShard = It->second.ShardId;
    HomeGen = It->second.Gen;
  }
  post(HomeShard, [this, HomeShard, Name, HomeGen] {
    Shard &H = *Shards[HomeShard];
    auto It = H.Sessions.find(Name);
    if (It != H.Sessions.end() && It->second->Gen == HomeGen)
      eraseSession(H, Name);
  });
}

//===----------------------------------------------------------------------===//
// Replies, flushing, backpressure
//===----------------------------------------------------------------------===//

void Server::reply(Shard &S, const ConnPtr &C, char Status,
                   std::string_view Name, std::string &&Body,
                   std::string_view SessTag) {
  if (C->Owner == S.Id) {
    if (C->Closed) {
      S.Ct.FramesDropped.fetch_add(1, std::memory_order_relaxed);
      ServerMetrics::get().FramesDropped.inc();
      if (!SessTag.empty())
        doomSessionByName(std::string(SessTag), 0);
      return;
    }
    size_t BytesBefore = C->Out.bytes();
    C->Out.push(Status, Name, std::move(Body), SessTag);
    S.Ct.Replies.fetch_add(1, std::memory_order_relaxed);
    ServerMetrics::get().Replies.inc();
    if (Status == 'e') {
      S.Ct.Errors.fetch_add(1, std::memory_order_relaxed);
      ServerMetrics::get().Errors.inc();
    }
    int64_t Delta = int64_t(C->Out.bytes()) - int64_t(BytesBefore);
    S.Ct.BacklogBytes.fetch_add(Delta, std::memory_order_relaxed);
    S.MBacklog->add(Delta);
    ServerMetrics::get().QueueDepth.add(1);
    S.MQueueDepth->add(1);
    flushConn(S, C);
    return;
  }
  // Cross-shard: hop to the owner, which is the only thread allowed to
  // touch this connection's queue or descriptor.
  queueOnOwner(*Shards[C->Owner], C, Status, Name, std::move(Body), SessTag);
}

void Server::queueOnOwner(Shard &Owner, const ConnPtr &C, char Status,
                          std::string_view Name, std::string &&Body,
                          std::string_view SessTag) {
  post(Owner.Id, [this, OwnerId = Owner.Id, C, Status,
                  NameS = std::string(Name), BodyS = std::move(Body),
                  TagS = std::string(SessTag)]() mutable {
    Shard &O = *Shards[OwnerId];
    if (C->CrossPending)
      C->CrossPending--;
    if (C->Closed) {
      O.Ct.FramesDropped.fetch_add(1, std::memory_order_relaxed);
      ServerMetrics::get().FramesDropped.inc();
      if (!TagS.empty())
        doomSessionByName(TagS, 0);
      return;
    }
    size_t BytesBefore = C->Out.bytes();
    C->Out.push(Status, NameS, std::move(BodyS), TagS);
    O.Ct.Replies.fetch_add(1, std::memory_order_relaxed);
    ServerMetrics::get().Replies.inc();
    if (Status == 'e') {
      O.Ct.Errors.fetch_add(1, std::memory_order_relaxed);
      ServerMetrics::get().Errors.inc();
    }
    int64_t Delta = int64_t(C->Out.bytes()) - int64_t(BytesBefore);
    O.Ct.BacklogBytes.fetch_add(Delta, std::memory_order_relaxed);
    O.MBacklog->add(Delta);
    ServerMetrics::get().QueueDepth.add(1);
    O.MQueueDepth->add(1);
    flushConn(O, C);
  });
}

void Server::flushConn(Shard &S, const ConnPtr &C) {
  if (C->Closed)
    return;
  size_t BytesBefore = C->Out.bytes();
  size_t FramesBefore = C->Out.frames();
  uint64_t Wrote = 0;
  OutQueue::FlushResult R = C->Out.flush(C->Fd, &Wrote);
  int64_t ByteDelta = int64_t(C->Out.bytes()) - int64_t(BytesBefore);
  int64_t FrameDelta = int64_t(C->Out.frames()) - int64_t(FramesBefore);
  S.Ct.BacklogBytes.fetch_add(ByteDelta, std::memory_order_relaxed);
  S.MBacklog->add(ByteDelta);
  ServerMetrics::get().QueueDepth.add(FrameDelta);
  S.MQueueDepth->add(FrameDelta);

  switch (R) {
  case OutQueue::FlushResult::Drained:
    if (C->WantWrite) {
      C->WantWrite = false;
      updateEpoll(S, C);
    }
    if (C->PeerEof && C->CrossPending == 0) {
      closeConn(S, C, false);
      return;
    }
    if (C->ReadPaused && !S.Draining)
      S.Resume.push_back(C);
    return;
  case OutQueue::FlushResult::Blocked:
    if (!C->WantWrite) {
      C->WantWrite = true;
      updateEpoll(S, C);
    }
    if (C->Out.bytes() > Opts.MaxConnBacklog) {
      // A client this far behind is dead weight: every queued reply is
      // undeliverable within bounded memory.  Doom it (and the sessions
      // whose replies it holds) rather than buffer without bound.
      closeConn(S, C, /*CountBacklogDropped=*/true);
      return;
    }
    if (!C->ReadPaused && C->Out.bytes() >= Opts.MaxConnBacklog / 2) {
      C->ReadPaused = true;
      updateEpoll(S, C);
    }
    return;
  case OutQueue::FlushResult::Error:
    closeConn(S, C, /*CountBacklogDropped=*/true);
    return;
  }
}

void Server::closeConn(Shard &S, const ConnPtr &C, bool CountBacklogDropped) {
  if (C->Closed)
    return;
  C->Closed = true;
  std::vector<std::string> Lost;
  size_t QueuedBytes = C->Out.bytes();
  size_t QueuedFrames = C->Out.frames();
  size_t Dropped = C->Out.dropAll(&Lost);
  S.Ct.BacklogBytes.fetch_sub(int64_t(QueuedBytes),
                              std::memory_order_relaxed);
  S.MBacklog->sub(int64_t(QueuedBytes));
  ServerMetrics::get().QueueDepth.sub(int64_t(QueuedFrames));
  S.MQueueDepth->sub(int64_t(QueuedFrames));
  if (CountBacklogDropped && Dropped) {
    S.Ct.FramesDropped.fetch_add(Dropped, std::memory_order_relaxed);
    ServerMetrics::get().FramesDropped.inc(Dropped);
  }
  // Undelivered replies: those sessions lost output the client can
  // never recover; discard them so they cannot serve a stream with a
  // silent hole in it.
  for (auto &Name : Lost)
    doomSessionByName(Name, 0);
  ::close(C->Fd); // shard-owned: no other thread can race this close
  S.Conns.erase(C->Fd);
  C->Fd = -1;
  S.Ct.ConnsLive.fetch_sub(1, std::memory_order_relaxed);
  TotalConns.fetch_sub(1, std::memory_order_acq_rel);
}

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

std::string Server::statsText() const {
  PipelineCache::Stats CS = Cache.stats();
  uint64_t Opened = 0, FramesIn = 0, Replies = 0, Errors = 0, Rejected = 0,
           Dropped = 0, BytesIn = 0, BytesOut = 0, Evicted = 0, Cross = 0,
           Accepts = 0, FastRuns = 0, FastRunElems = 0, FastWide = 0,
           FastTable = 0, FastProgram = 0, FastBytecode = 0;
  int64_t Live = 0, Conns = 0;
  std::string PerShard;
  for (const auto &SP : Shards) {
    const ShardCounters &Ct = SP->Ct;
    Opened += Ct.SessionsOpened.load(std::memory_order_relaxed);
    FramesIn += Ct.FramesIn.load(std::memory_order_relaxed);
    Replies += Ct.Replies.load(std::memory_order_relaxed);
    Errors += Ct.Errors.load(std::memory_order_relaxed);
    Rejected += Ct.Rejected.load(std::memory_order_relaxed);
    Dropped += Ct.FramesDropped.load(std::memory_order_relaxed);
    BytesIn += Ct.BytesIn.load(std::memory_order_relaxed);
    BytesOut += Ct.BytesOut.load(std::memory_order_relaxed);
    Evicted += Ct.SessionsEvicted.load(std::memory_order_relaxed);
    Cross += Ct.CrossForwards.load(std::memory_order_relaxed);
    Accepts += Ct.Accepts.load(std::memory_order_relaxed);
    FastRuns += Ct.FastRuns.load(std::memory_order_relaxed);
    FastRunElems += Ct.FastRunElements.load(std::memory_order_relaxed);
    FastWide += Ct.FastWideElements.load(std::memory_order_relaxed);
    FastTable += Ct.FastTableElements.load(std::memory_order_relaxed);
    FastProgram += Ct.FastProgramElements.load(std::memory_order_relaxed);
    FastBytecode += Ct.FastBytecodeElements.load(std::memory_order_relaxed);
    Live += Ct.SessionsLive.load(std::memory_order_relaxed);
    Conns += Ct.ConnsLive.load(std::memory_order_relaxed);
    char SBuf[192];
    snprintf(SBuf, sizeof(SBuf),
             "\nshard%u: accepts=%llu wakeups=%llu frames=%llu conns=%lld "
             "sessions=%lld backlog_bytes=%lld forwards=%llu",
             SP->Id,
             (unsigned long long)Ct.Accepts.load(std::memory_order_relaxed),
             (unsigned long long)Ct.Wakeups.load(std::memory_order_relaxed),
             (unsigned long long)Ct.FramesIn.load(std::memory_order_relaxed),
             (long long)Ct.ConnsLive.load(std::memory_order_relaxed),
             (long long)Ct.SessionsLive.load(std::memory_order_relaxed),
             (long long)Ct.BacklogBytes.load(std::memory_order_relaxed),
             (unsigned long long)
                 Ct.CrossForwards.load(std::memory_order_relaxed));
    PerShard += SBuf;
  }

  char Buf[800];
  snprintf(Buf, sizeof(Buf),
           "sessions_opened=%llu sessions_active=%lld frames_in=%llu "
           "replies=%llu errors=%llu rejected=%llu frames_dropped=%llu "
           "evicted=%llu cross_forwards=%llu accepts=%llu conns=%lld "
           "bytes_in=%llu "
           "bytes_out=%llu fast_runs=%llu fast_run_elems=%llu "
           "fast_wide_elems=%llu fast_table_elems=%llu "
           "fast_program_elems=%llu fast_bytecode_elems=%llu "
           "shards=%u backlog_cap=%zu tcp=%s",
           (unsigned long long)Opened, (long long)Live,
           (unsigned long long)FramesIn, (unsigned long long)Replies,
           (unsigned long long)Errors, (unsigned long long)Rejected,
           (unsigned long long)Dropped, (unsigned long long)Evicted,
           (unsigned long long)Cross, (unsigned long long)Accepts,
           (long long)Conns, (unsigned long long)BytesIn,
           (unsigned long long)BytesOut, (unsigned long long)FastRuns,
           (unsigned long long)FastRunElems, (unsigned long long)FastWide,
           (unsigned long long)FastTable, (unsigned long long)FastProgram,
           (unsigned long long)FastBytecode, Opts.Shards,
           Opts.MaxConnBacklog,
           !Opts.Tcp          ? "off"
           : TcpReusePort     ? "reuseport"
                              : "handoff");
  return std::string(Buf) + PerShard + "\ncache: " + CS.str() + "\n";
}
