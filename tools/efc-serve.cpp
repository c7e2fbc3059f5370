//===- tools/efc-serve.cpp - Streaming transducer server ------------------===//
//
// The serving half of the runtime subsystem: a sharded epoll server
// hosting many named StreamSessions over Unix-domain and/or TCP sockets,
// with all pipeline builds deduplicated through the PipelineCache (see
// runtime/Server.h for the frame protocol and DESIGN.md "Serving
// transport" for the shard model).  The same binary is also the client,
// so a shell pipeline can exercise the server end to end:
//
//   efc-serve --socket /tmp/efc.sock --shards 4 --tcp 7333 &
//   efc-serve --socket /tmp/efc.sock --open s1 --backend native
//             --regex '(?:(?:[^,]*,){1}(?<v>[0-9]+),[^,]*)' --agg max
//   efc-serve --socket /tmp/efc.sock --feed s1 --file data.csv --chunk 7
//   efc-serve --socket /tmp/efc.sock --finish s1
//   efc-serve --tcp 7333 --stats        # same ops over TCP
//   efc-serve --socket /tmp/efc.sock --shutdown
//
// --run NAME is the one-shot convenience: open + feed + finish.
// Feed output bytes go to stdout; diagnostics to stderr.
//
// SIGTERM/SIGINT trigger the same graceful drain as --shutdown: stop
// accepting, execute the frames already received, flush replies (bounded
// by --drain-ms), then exit 0.
//
//===----------------------------------------------------------------------===//

#include "runtime/Server.h"
#include "support/EnvParse.h"

#include <arpa/inet.h>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sstream>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace efc;
using namespace efc::runtime;

namespace {

int usage(const char *Msg = nullptr) {
  if (Msg)
    fprintf(stderr, "efc-serve: %s\n", Msg);
  fprintf(stderr,
          "usage: efc-serve [--socket PATH] [--tcp PORT [--host ADDR]]\n"
          "                 [--shards N] [--cache N] [--idle-ms MS] "
          "[--drain-ms MS]\n"
          "       efc-serve <endpoint> --open NAME (--regex P | --xpath "
          "Q)\n"
          "                 [--agg max|min|avg|none] [--format "
          "decimal|lines|sql]\n"
          "                 [--backend vm|fastpath|native] [--rbbe] "
          "[--minimize]\n"
          "       efc-serve <endpoint> --feed NAME --file F [--chunk N]\n"
          "       efc-serve <endpoint> --finish NAME\n"
          "       efc-serve <endpoint> --close NAME\n"
          "       efc-serve <endpoint> --run NAME (--regex|--xpath ...) "
          "--file F [--chunk N]\n"
          "       efc-serve <endpoint> --stats | --metrics | --shutdown\n"
          "where <endpoint> is --socket PATH or --tcp PORT [--host ADDR].\n"
          "--threads is accepted as an alias for --shards.\n");
  return 2;
}

int connectUnix(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

int connectTcp(const std::string &Host, uint16_t Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  // A server bound to the wildcard is reached via loopback.
  const char *Target = Host == "0.0.0.0" ? "127.0.0.1" : Host.c_str();
  if (::inet_pton(AF_INET, Target, &Addr.sin_addr) != 1 ||
      ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
          0) {
    ::close(Fd);
    return -1;
  }
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  return Fd;
}

/// Sends one request and reads its response.  Returns false on transport
/// failure; *Ok reflects the response status, *Body its payload.
bool roundTrip(int Fd, const std::string &Req, bool *Ok, std::string *Body) {
  if (!sendFrame(Fd, Req))
    return false;
  std::string Resp;
  if (!recvFrame(Fd, Resp) || Resp.empty())
    return false;
  *Ok = Resp[0] == 'k';
  size_t Nl = Resp.find('\n');
  *Body = Nl == std::string::npos ? std::string() : Resp.substr(Nl + 1);
  return true;
}

/// Runs one request/response against the server; prints the body to
/// stdout ('k') or stderr ('e').
int simpleRequest(int Fd, const std::string &Req, bool BodyToStdout = true) {
  bool Ok = false;
  std::string Body;
  if (!roundTrip(Fd, Req, &Ok, &Body)) {
    fprintf(stderr, "efc-serve: connection lost\n");
    return 1;
  }
  if (!Ok) {
    fprintf(stderr, "efc-serve: %s\n", Body.c_str());
    return 1;
  }
  if (BodyToStdout && !Body.empty())
    fwrite(Body.data(), 1, Body.size(), stdout);
  return 0;
}

/// Streams \p Data in \p Chunk -byte frames, lockstep request/response so
/// server backpressure propagates naturally; output bytes to stdout.
int feedChunks(int Fd, const std::string &Name, const std::string &Data,
               size_t Chunk) {
  if (Chunk == 0)
    Chunk = 4096;
  for (size_t I = 0; I < Data.size() || (I == 0 && Data.empty());
       I += Chunk) {
    std::string Req = "F" + Name + "\n" + Data.substr(I, Chunk);
    if (int Rc = simpleRequest(Fd, Req))
      return Rc;
    if (Data.empty())
      break;
  }
  return 0;
}

Server *ActiveServer = nullptr;

void onStopSignal(int) {
  // signalStop only writes one byte to the stop pipe: async-signal-safe.
  if (ActiveServer)
    ActiveServer->signalStop();
}

} // namespace

int main(int argc, char **argv) {
  std::string Socket, Open, Feed, Finish, Close, Run, File;
  std::string Regex, XPath, Agg = "none", Format = "lines",
              Backend = "fastpath";
  std::string Host = "0.0.0.0";
  unsigned Shards = 1;
  int TcpPort = -1; // -1: no TCP
  size_t CacheCap = 32, Chunk = 4096;
  uint64_t IdleMs = 0, DrainMs = 5000;
  bool Stats = false, Metrics = false, Shutdown = false, DoRbbe = false,
       DoMinimize = false;

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    auto NeedVal = [&](std::string &Dst) {
      const char *V = Next();
      if (V)
        Dst = V;
      return V != nullptr;
    };
    if (A == "--socket") {
      if (!NeedVal(Socket))
        return usage("--socket needs a path");
    } else if (A == "--open") {
      if (!NeedVal(Open))
        return usage("--open needs a name");
    } else if (A == "--feed") {
      if (!NeedVal(Feed))
        return usage("--feed needs a name");
    } else if (A == "--finish") {
      if (!NeedVal(Finish))
        return usage("--finish needs a name");
    } else if (A == "--close") {
      if (!NeedVal(Close))
        return usage("--close needs a name");
    } else if (A == "--run") {
      if (!NeedVal(Run))
        return usage("--run needs a name");
    } else if (A == "--file") {
      if (!NeedVal(File))
        return usage("--file needs a path");
    } else if (A == "--regex") {
      if (!NeedVal(Regex))
        return usage("--regex needs a pattern");
    } else if (A == "--xpath") {
      if (!NeedVal(XPath))
        return usage("--xpath needs a query");
    } else if (A == "--agg") {
      if (!NeedVal(Agg))
        return usage("--agg needs a kind");
    } else if (A == "--format") {
      if (!NeedVal(Format))
        return usage("--format needs a kind");
    } else if (A == "--backend") {
      if (!NeedVal(Backend))
        return usage("--backend needs vm|fastpath|native");
    } else if (A == "--shards" || A == "--threads") {
      const char *V = Next();
      if (!V)
        return usage("--shards needs a count");
      uint64_t N = 0;
      if (!env::parseU64(V, N) || N == 0 || N > 1024)
        return usage("--shards needs a count in [1, 1024]");
      Shards = unsigned(N);
    } else if (A == "--tcp") {
      const char *V = Next();
      if (!V)
        return usage("--tcp needs a port (0 = kernel-assigned)");
      uint64_t N = 0;
      if (!env::parseU64(V, N) || N > 65535)
        return usage("--tcp needs a port in [0, 65535]");
      TcpPort = int(N);
    } else if (A == "--host") {
      if (!NeedVal(Host))
        return usage("--host needs an address");
    } else if (A == "--idle-ms") {
      const char *V = Next();
      if (!V)
        return usage("--idle-ms needs a duration");
      if (!env::parseU64(V, IdleMs))
        return usage("--idle-ms needs a duration in milliseconds");
    } else if (A == "--drain-ms") {
      const char *V = Next();
      if (!V)
        return usage("--drain-ms needs a duration");
      if (!env::parseU64(V, DrainMs))
        return usage("--drain-ms needs a duration in milliseconds");
    } else if (A == "--queue") {
      // Accepted for compatibility with the PR 2 worker-pool server;
      // backpressure is now byte-bounded per connection (see
      // ServerOptions::MaxConnBacklog), so the value is ignored.
      if (!Next())
        return usage("--queue needs a bound");
    } else if (A == "--cache") {
      const char *V = Next();
      if (!V)
        return usage("--cache needs a capacity");
      uint64_t N = 0;
      if (!env::parseU64(V, N) || N == 0)
        return usage("--cache needs a positive capacity");
      CacheCap = size_t(N);
    } else if (A == "--chunk") {
      const char *V = Next();
      if (!V)
        return usage("--chunk needs a byte count");
      uint64_t N = 0;
      if (!env::parseU64(V, N) || N == 0)
        return usage("--chunk needs a positive byte count");
      Chunk = size_t(N);
    } else if (A == "--rbbe") {
      DoRbbe = true;
    } else if (A == "--minimize") {
      DoMinimize = true;
    } else if (A == "--stats") {
      Stats = true;
    } else if (A == "--metrics") {
      Metrics = true;
    } else if (A == "--shutdown") {
      Shutdown = true;
    } else {
      return usage(("unknown option '" + A + "'").c_str());
    }
  }
  if (Socket.empty() && TcpPort < 0)
    return usage("--socket or --tcp is required");

  bool ClientMode = !Open.empty() || !Feed.empty() || !Finish.empty() ||
                    !Close.empty() || !Run.empty() || Stats || Metrics ||
                    Shutdown;

  if (!ClientMode) {
    // Serve.
    ServerOptions O;
    O.SocketPath = Socket;
    O.Tcp = TcpPort >= 0;
    O.TcpPort = uint16_t(TcpPort < 0 ? 0 : TcpPort);
    O.TcpHost = Host;
    O.Shards = Shards;
    O.CacheCapacity = CacheCap;
    O.IdleMs = IdleMs;
    O.DrainMs = DrainMs;
    Server S(O);
    std::string Err;
    if (!S.start(&Err)) {
      fprintf(stderr, "efc-serve: %s\n", Err.c_str());
      return 1;
    }
    signal(SIGPIPE, SIG_IGN);
    ActiveServer = &S;
    struct sigaction Sa{};
    Sa.sa_handler = onStopSignal;
    sigaction(SIGTERM, &Sa, nullptr);
    sigaction(SIGINT, &Sa, nullptr);
    std::string Where;
    if (!Socket.empty())
      Where = Socket;
    if (O.Tcp) {
      if (!Where.empty())
        Where += " and ";
      Where += Host + ":" + std::to_string(S.tcpPort()) +
               (S.tcpReusePort() ? " (reuseport)" : " (fd handoff)");
    }
    fprintf(stderr, "efc-serve: listening on %s (%u shard%s)\n",
            Where.c_str(), Shards, Shards == 1 ? "" : "s");
    S.wait(); // until --shutdown / SIGTERM / SIGINT completes the drain
    ActiveServer = nullptr;
    fprintf(stderr, "efc-serve: shut down\n%s", S.statsText().c_str());
    return 0;
  }

  int Fd = Socket.empty() ? connectTcp(Host, uint16_t(TcpPort))
                          : connectUnix(Socket);
  if (Fd < 0) {
    fprintf(stderr, "efc-serve: cannot connect to %s\n",
            Socket.empty()
                ? (Host + ":" + std::to_string(TcpPort)).c_str()
                : Socket.c_str());
    return 1;
  }
  int Rc = 0;

  auto openSession = [&](const std::string &Name) {
    if (Regex.empty() == XPath.empty()) {
      Rc = usage("--open/--run needs exactly one of --regex / --xpath");
      return false;
    }
    PipelineSpec Spec;
    Spec.Kind = Regex.empty() ? PipelineSpec::Frontend::XPath
                              : PipelineSpec::Frontend::Regex;
    Spec.Pattern = Regex.empty() ? XPath : Regex;
    Spec.Agg = Agg;
    Spec.Format = Format;
    Spec.Rbbe = DoRbbe;
    Spec.Minimize = DoMinimize;
    std::string Req = "O" + Name + "\n" + Backend + "\n" + Spec.canonical();
    Rc = simpleRequest(Fd, Req);
    return Rc == 0;
  };

  auto readInput = [&](std::string &Data) {
    if (File.empty() || File == "-") {
      std::ostringstream Buf;
      Buf << std::cin.rdbuf();
      Data = Buf.str();
      return true;
    }
    std::ifstream F(File, std::ios::binary);
    if (!F) {
      fprintf(stderr, "efc-serve: cannot read %s\n", File.c_str());
      return false;
    }
    std::ostringstream Buf;
    Buf << F.rdbuf();
    Data = Buf.str();
    return true;
  };

  if (!Run.empty()) {
    std::string Data;
    if (openSession(Run) && readInput(Data)) {
      Rc = feedChunks(Fd, Run, Data, Chunk);
      if (Rc == 0)
        Rc = simpleRequest(Fd, "E" + Run);
    } else if (Rc == 0) {
      Rc = 1;
    }
  } else {
    if (!Open.empty())
      (void)openSession(Open);
    if (Rc == 0 && !Feed.empty()) {
      std::string Data;
      Rc = readInput(Data) ? feedChunks(Fd, Feed, Data, Chunk) : 1;
    }
    if (Rc == 0 && !Finish.empty())
      Rc = simpleRequest(Fd, "E" + Finish);
    if (Rc == 0 && !Close.empty())
      Rc = simpleRequest(Fd, "C" + Close);
    if (Rc == 0 && Stats)
      Rc = simpleRequest(Fd, "S");
    if (Rc == 0 && Metrics)
      Rc = simpleRequest(Fd, "M");
    if (Rc == 0 && Shutdown)
      Rc = simpleRequest(Fd, "Q");
  }
  ::close(Fd);
  return Rc;
}
