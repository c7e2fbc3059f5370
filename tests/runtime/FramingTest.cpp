//===- tests/runtime/FramingTest.cpp - Sharded server transport -----------===//
//
// The transport layer of the sharded epoll server: in-place frame
// parsing under torn input (every byte split), oversized-length
// rejection, the vectored reply queue, 100+ interleaved connections on
// one shard, cross-shard session forwarding, graceful drain, idle
// eviction, and a frame-bytes fuzzer (EFC_FUZZ_SEED).
//
//===----------------------------------------------------------------------===//

#include "runtime/NetBuffers.h"
#include "runtime/Server.h"
#include "support/Stopwatch.h"

#include "common/FuzzSeed.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

using namespace efc;
using namespace efc::runtime;

namespace {

const char *CsvMaxSpec = "frontend=regex\n"
                         "pattern=(?:(?:[^,\\n]*,){1}(?<v>\\d+),[^\\n]*\\n)*\n"
                         "agg=max\n"
                         "format=decimal\n";

int connectTo(const std::string &Path) {
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

struct Reply {
  bool Ok = false;
  std::string Name;
  std::string Body;
};

bool readReply(int Fd, Reply &R) {
  std::string Resp;
  if (!recvFrame(Fd, Resp) || Resp.empty())
    return false;
  R.Ok = Resp[0] == 'k';
  size_t Nl = Resp.find('\n');
  R.Name =
      Resp.substr(1, Nl == std::string::npos ? std::string::npos : Nl - 1);
  R.Body = Nl == std::string::npos ? std::string() : Resp.substr(Nl + 1);
  return true;
}

bool roundTrip(int Fd, const std::string &Req, Reply &R) {
  return sendFrame(Fd, Req) && readReply(Fd, R);
}

/// The raw wire bytes of one request frame.
std::string wireBytes(const std::string &Payload) {
  std::string W;
  uint32_t N = uint32_t(Payload.size());
  W.push_back(char(N & 0xFF));
  W.push_back(char((N >> 8) & 0xFF));
  W.push_back(char((N >> 16) & 0xFF));
  W.push_back(char((N >> 24) & 0xFF));
  W += Payload;
  return W;
}

bool writeExact(int Fd, const char *P, size_t N) {
  while (N) {
    ssize_t W = ::send(Fd, P, N, MSG_NOSIGNAL);
    if (W <= 0)
      return false;
    P += W;
    N -= size_t(W);
  }
  return true;
}

/// Owns a temp-socket server for one test.
struct TestServer {
  explicit TestServer(unsigned Shards, uint64_t IdleMs = 0) {
    Sock = ::testing::TempDir() + "/efc_frm_" +
           std::to_string(uint64_t(getpid())) + "_" +
           std::to_string(++Instances) + ".sock";
    ServerOptions O;
    O.SocketPath = Sock;
    O.Shards = Shards;
    O.CacheCapacity = 8;
    O.IdleMs = IdleMs;
    Srv = std::make_unique<Server>(O);
  }
  ~TestServer() {
    if (Srv)
      Srv->stop();
    ::unlink(Sock.c_str());
  }
  bool start(std::string *Err) { return Srv->start(Err); }

  static unsigned Instances;
  std::string Sock;
  std::unique_ptr<Server> Srv;
};
unsigned TestServer::Instances = 0;

//===----------------------------------------------------------------------===//
// InputSlab: torn frames at every byte, in place
//===----------------------------------------------------------------------===//

TEST(InputSlab, TornAtEveryByteStaysBuffered) {
  const std::string Payload = "Fs\nhello world";
  const std::string Wire = wireBytes(Payload);
  // Split the frame at every byte position: everything before the last
  // byte must parse as NeedMore, never as a frame or an error.
  for (size_t Split = 0; Split < Wire.size(); ++Split) {
    InputSlab In;
    In.reserveWritable(Wire.size());
    memcpy(In.writePtr(), Wire.data(), Split);
    In.commit(Split);
    std::string_view F;
    EXPECT_EQ(In.nextFrame(64u << 20, &F), InputSlab::ParseResult::NeedMore)
        << "split at byte " << Split;
    In.reserveWritable(Wire.size() - Split);
    memcpy(In.writePtr(), Wire.data() + Split, Wire.size() - Split);
    In.commit(Wire.size() - Split);
    ASSERT_EQ(In.nextFrame(64u << 20, &F), InputSlab::ParseResult::Frame)
        << "split at byte " << Split;
    EXPECT_EQ(F, Payload);
    In.consumeFrame(F.size());
    EXPECT_EQ(In.pending(), 0u);
  }
}

TEST(InputSlab, SingleByteCommitsAcrossManyFrames) {
  // Three frames delivered one byte at a time — the pathological chunking
  // the old recvFrame loop handled with blocking reads.
  std::vector<std::string> Payloads = {"Fa\nx", "", std::string(257, 'z')};
  std::string Wire;
  for (auto &P : Payloads)
    Wire += wireBytes(P);
  InputSlab In;
  size_t Got = 0;
  for (char Ch : Wire) {
    In.reserveWritable(1);
    *In.writePtr() = Ch;
    In.commit(1);
    std::string_view F;
    while (In.nextFrame(64u << 20, &F) == InputSlab::ParseResult::Frame) {
      ASSERT_LT(Got, Payloads.size());
      EXPECT_EQ(F, Payloads[Got]);
      In.consumeFrame(F.size());
      ++Got;
    }
  }
  EXPECT_EQ(Got, Payloads.size());
  EXPECT_EQ(In.pending(), 0u);
}

TEST(InputSlab, CompactionPreservesTornFrame) {
  // Parse one frame, leave a torn second frame buffered, then force a
  // compaction (reserve beyond capacity): the remainder must survive the
  // memmove intact.
  std::string A = wireBytes("Fa\nfirst");
  std::string B = wireBytes(std::string(9000, 'q')); // bigger than the slab
  InputSlab In;
  In.reserveWritable(A.size() + 10);
  memcpy(In.writePtr(), A.data(), A.size());
  In.commit(A.size());
  size_t TornLen = std::min<size_t>(10, B.size());
  In.reserveWritable(TornLen);
  memcpy(In.writePtr(), B.data(), TornLen);
  In.commit(TornLen);

  std::string_view F;
  ASSERT_EQ(In.nextFrame(64u << 20, &F), InputSlab::ParseResult::Frame);
  EXPECT_EQ(F, "Fa\nfirst");
  In.consumeFrame(F.size());

  // Now demand room for the rest of B: Head > 0, so this compacts.
  In.reserveWritable(B.size() - TornLen);
  memcpy(In.writePtr(), B.data() + TornLen, B.size() - TornLen);
  In.commit(B.size() - TornLen);
  ASSERT_EQ(In.nextFrame(64u << 20, &F), InputSlab::ParseResult::Frame);
  EXPECT_EQ(F, std::string(9000, 'q'));
}

TEST(InputSlab, OversizedLengthIsUnrecoverable) {
  InputSlab In;
  std::string Wire = wireBytes("x");
  Wire[3] = char(0x7F); // length now ~2 GB
  In.reserveWritable(Wire.size());
  memcpy(In.writePtr(), Wire.data(), Wire.size());
  In.commit(Wire.size());
  std::string_view F;
  EXPECT_EQ(In.nextFrame(64u << 20, &F), InputSlab::ParseResult::TooLarge);
}

//===----------------------------------------------------------------------===//
// OutQueue: gathering flush and doomed-session accounting
//===----------------------------------------------------------------------===//

TEST(OutQueue, GatheredFlushMatchesBlockingFraming) {
  int Sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sp), 0);
  OutQueue Q;
  Q.push('k', "s1", std::string("body-one"), "s1");
  Q.push('e', "s2", std::string(), "s2");
  Q.push('k', "", std::string("stats"), "");
  EXPECT_EQ(Q.frames(), 3u);
  uint64_t Wrote = 0;
  ASSERT_EQ(Q.flush(Sp[0], &Wrote), OutQueue::FlushResult::Drained);
  EXPECT_TRUE(Q.empty());
  EXPECT_EQ(Q.bytes(), 0u);
  // The peer must see exactly the frames the blocking recvFrame helper
  // understands: one writev path, one blocking path, same wire format.
  std::string R1, R2, R3;
  ASSERT_TRUE(recvFrame(Sp[1], R1));
  ASSERT_TRUE(recvFrame(Sp[1], R2));
  ASSERT_TRUE(recvFrame(Sp[1], R3));
  EXPECT_EQ(R1, "ks1\nbody-one");
  EXPECT_EQ(R2, "es2\n");
  EXPECT_EQ(R3, "k\nstats");
  EXPECT_EQ(Wrote, uint64_t(4 + R1.size() + 4 + R2.size() + 4 + R3.size()));
  ::close(Sp[0]);
  ::close(Sp[1]);
}

TEST(OutQueue, BlockedFlushResumesMidFrame) {
  int Sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sp), 0);
  int Small = 4096;
  ASSERT_EQ(::setsockopt(Sp[0], SOL_SOCKET, SO_SNDBUF, &Small,
                         sizeof(Small)),
            0);
  fcntl(Sp[0], F_SETFL, O_NONBLOCK);
  OutQueue Q;
  std::string Big(1u << 20, 'b');
  std::string Expect = Big;
  Q.push('k', "big", std::move(Big), "big");
  // Flush → Blocked with a partially-written frame; drain the reader and
  // keep flushing until the whole megabyte crossed, split mid-frame many
  // times.
  std::string Got;
  char Buf[8192];
  for (int Rounds = 0; Rounds < 100000 && !Q.empty(); ++Rounds) {
    OutQueue::FlushResult R = Q.flush(Sp[0]);
    ASSERT_NE(R, OutQueue::FlushResult::Error);
    ssize_t N;
    while ((N = ::recv(Sp[1], Buf, sizeof(Buf), MSG_DONTWAIT)) > 0)
      Got.append(Buf, size_t(N));
  }
  EXPECT_TRUE(Q.empty());
  ssize_t N;
  while ((N = ::recv(Sp[1], Buf, sizeof(Buf), MSG_DONTWAIT)) > 0)
    Got.append(Buf, size_t(N));
  ASSERT_GE(Got.size(), 4u);
  // Strip the frame header and status line, compare the body.
  size_t Nl = Got.find('\n', 4);
  ASSERT_NE(Nl, std::string::npos);
  EXPECT_EQ(Got.substr(Nl + 1), Expect);
  ::close(Sp[0]);
  ::close(Sp[1]);
}

TEST(OutQueue, DropAllReportsEachLostSessionOnce) {
  OutQueue Q;
  Q.push('k', "a", std::string("x"), "a");
  Q.push('k', "a", std::string("y"), "a");
  Q.push('k', "b", std::string("z"), "b");
  Q.push('k', "", std::string("stats"), ""); // no session tag
  std::vector<std::string> Lost;
  EXPECT_EQ(Q.dropAll(&Lost), 4u);
  EXPECT_EQ(Lost, (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(Q.empty());
  EXPECT_EQ(Q.bytes(), 0u);
}

//===----------------------------------------------------------------------===//
// Server: torn and malformed framing over the socket
//===----------------------------------------------------------------------===//

TEST(ServeTransport, TornFeedFramesSplitAtEveryByte) {
  TestServer T(1);
  std::string Err;
  ASSERT_TRUE(T.start(&Err)) << Err;
  int Fd = connectTo(T.Sock);
  ASSERT_GE(Fd, 0);
  Reply R;
  ASSERT_TRUE(roundTrip(Fd, std::string("Ot\nvm\n") + CsvMaxSpec, R));
  ASSERT_TRUE(R.Ok) << R.Body;
  // Each row rides in a frame written in two halves, the cut advancing
  // one byte per row so every header and payload split hits the wire.
  std::string Out;
  int Max = 0;
  for (int I = 0; I < 24; ++I) {
    int V = 100 + I;
    Max = std::max(Max, V);
    std::string Wire = wireBytes("Ft\na," + std::to_string(V) + ",x\n");
    size_t Split = size_t(I) % Wire.size();
    ASSERT_TRUE(writeExact(Fd, Wire.data(), Split));
    // A micro-pause makes the kernel likely to deliver two reads; the
    // InputSlab suite covers every split deterministically regardless.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_TRUE(writeExact(Fd, Wire.data() + Split, Wire.size() - Split));
    ASSERT_TRUE(readReply(Fd, R));
    ASSERT_TRUE(R.Ok) << R.Body;
    Out += R.Body;
  }
  ASSERT_TRUE(roundTrip(Fd, "Et", R));
  ASSERT_TRUE(R.Ok) << R.Body;
  Out += R.Body;
  EXPECT_EQ(Out, std::to_string(Max));
  ::close(Fd);
}

TEST(ServeTransport, OversizedFrameGetsErrorThenClose) {
  TestServer T(1);
  std::string Err;
  ASSERT_TRUE(T.start(&Err)) << Err;
  int Fd = connectTo(T.Sock);
  ASSERT_GE(Fd, 0);
  // A header declaring a 1 GB payload: the server cannot resync past it,
  // so it must say why and hang up.
  unsigned char Hdr[4] = {0, 0, 0, 0x40};
  ASSERT_TRUE(writeExact(Fd, reinterpret_cast<char *>(Hdr), 4));
  Reply R;
  ASSERT_TRUE(readReply(Fd, R));
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Body.find("exceeds"), std::string::npos) << R.Body;
  std::string Rest;
  EXPECT_FALSE(recvFrame(Fd, Rest)) << "connection must be closed";
  ::close(Fd);
}

TEST(ServeTransport, InterleavedFramesFromOverHundredConnsOneShard) {
  TestServer T(1);
  std::string Err;
  ASSERT_TRUE(T.start(&Err)) << Err;
  constexpr int N = 112;
  std::vector<int> Fds(N);
  for (int K = 0; K < N; ++K) {
    Fds[K] = connectTo(T.Sock);
    ASSERT_GE(Fds[K], 0) << "conn " << K;
  }
  Reply R;
  // Open N sessions, one per connection.
  for (int K = 0; K < N; ++K) {
    ASSERT_TRUE(roundTrip(Fds[K],
                          "Ow" + std::to_string(K) + "\nvm\n" + CsvMaxSpec,
                          R));
    ASSERT_TRUE(R.Ok) << R.Body;
  }
  // Pipeline one feed frame on every connection before reading any
  // reply: the single shard sees frames from all 112 connections
  // interleaved in whatever order epoll reports them.
  for (int Round = 0; Round < 3; ++Round) {
    for (int K = 0; K < N; ++K)
      ASSERT_TRUE(sendFrame(Fds[K], "Fw" + std::to_string(K) + "\na," +
                                        std::to_string(1000 * Round + K) +
                                        ",x\n"));
    for (int K = 0; K < N; ++K) {
      ASSERT_TRUE(readReply(Fds[K], R));
      ASSERT_TRUE(R.Ok) << R.Body;
      EXPECT_EQ(R.Name, "w" + std::to_string(K))
          << "reply routed to the wrong connection";
    }
  }
  for (int K = 0; K < N; ++K) {
    ASSERT_TRUE(roundTrip(Fds[K], "Ew" + std::to_string(K), R));
    ASSERT_TRUE(R.Ok) << R.Body;
    EXPECT_EQ(R.Body, std::to_string(2000 + K)) << "session w" << K;
    ::close(Fds[K]);
  }
  EXPECT_NE(T.Srv->statsText().find("frames_dropped=0"), std::string::npos)
      << "no frame may be lost: " << T.Srv->statsText();
}

TEST(ServeTransport, CrossShardSessionForwarding) {
  TestServer T(2);
  std::string Err;
  ASSERT_TRUE(T.start(&Err)) << Err;
  // Unix accepts hand off round-robin: the first connection lands on
  // shard 0, the second on shard 1 — so B's frames for A's session must
  // cross shards.  A closes right after the open reply, as each separate
  // `efc-serve --open` / `--feed` / `--finish` invocation does: the
  // session must outlive the connection that opened it.
  int A = connectTo(T.Sock);
  ASSERT_GE(A, 0);
  int B = connectTo(T.Sock);
  ASSERT_GE(B, 0);
  Reply R;
  ASSERT_TRUE(roundTrip(A, std::string("Oxs\nvm\n") + CsvMaxSpec, R));
  ASSERT_TRUE(R.Ok) << R.Body;
  ::close(A);
  // Feed only once the server has seen A go, so the feed cannot race
  // ahead of the close.
  bool AGone = false;
  for (int I = 0; I < 300 && !AGone; ++I) {
    AGone = T.Srv->statsText().find(" conns=1 bytes_in=") !=
            std::string::npos;
    if (!AGone)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(AGone) << T.Srv->statsText();
  ASSERT_TRUE(roundTrip(B, "Fxs\na,41,x\n", R));
  ASSERT_TRUE(R.Ok) << "cross-shard feed failed: " << R.Body;
  ASSERT_TRUE(roundTrip(B, "Fxs\na,7,x\n", R));
  ASSERT_TRUE(R.Ok) << R.Body;
  ASSERT_TRUE(roundTrip(B, "Exs", R));
  ASSERT_TRUE(R.Ok) << R.Body;
  EXPECT_EQ(R.Body, "41");
  std::string Stats = T.Srv->statsText();
  EXPECT_EQ(Stats.find("cross_forwards=0 "), std::string::npos)
      << "expected forwarded frames in: " << Stats;
  ::close(B);
}

//===----------------------------------------------------------------------===//
// Graceful drain and idle eviction
//===----------------------------------------------------------------------===//

TEST(ServeTransport, GracefulDrainDeliversBufferedReplies) {
  TestServer T(1);
  std::string Err;
  ASSERT_TRUE(T.start(&Err)) << Err;
  int Fd = connectTo(T.Sock);
  ASSERT_GE(Fd, 0);
  Reply R;
  ASSERT_TRUE(roundTrip(Fd, std::string("Og\nvm\n") + CsvMaxSpec, R));
  ASSERT_TRUE(R.Ok) << R.Body;
  // Pipeline 20 feeds and the finish without reading, then request the
  // drain: every reply must still arrive (the old server's stop path
  // dropped whatever its acceptor had not yet read).
  constexpr int Feeds = 20;
  for (int I = 0; I < Feeds; ++I)
    ASSERT_TRUE(
        sendFrame(Fd, "Fg\na," + std::to_string(50 + I) + ",x\n"));
  ASSERT_TRUE(sendFrame(Fd, "Eg"));
  T.Srv->signalStop();
  std::string Out;
  for (int I = 0; I < Feeds + 1; ++I) {
    ASSERT_TRUE(readReply(Fd, R)) << "reply " << I << " lost in drain";
    ASSERT_TRUE(R.Ok) << R.Body;
    Out += R.Body;
  }
  EXPECT_EQ(Out, std::to_string(50 + Feeds - 1));
  std::string Rest;
  EXPECT_FALSE(recvFrame(Fd, Rest)) << "drained server must close";
  ::close(Fd);
  T.Srv->wait(); // must return promptly now that the drain completed
}

TEST(ServeTransport, IdleSessionsAreReaped) {
  TestServer T(1, /*IdleMs=*/60);
  std::string Err;
  ASSERT_TRUE(T.start(&Err)) << Err;
  int Fd = connectTo(T.Sock);
  ASSERT_GE(Fd, 0);
  Reply R;
  ASSERT_TRUE(roundTrip(Fd, std::string("Oidle\nvm\n") + CsvMaxSpec, R));
  ASSERT_TRUE(R.Ok) << R.Body;
  // Touch nothing and poll the public counter until the reaper fires.
  bool Evicted = false;
  for (int I = 0; I < 300 && !Evicted; ++I) {
    Evicted =
        T.Srv->statsText().find("evicted=0 ") == std::string::npos;
    if (!Evicted)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(Evicted) << T.Srv->statsText();
  ASSERT_TRUE(roundTrip(Fd, "Fidle\na,1,x\n", R));
  EXPECT_FALSE(R.Ok) << "evicted session must be gone";
  // The name is free again after eviction.
  ASSERT_TRUE(roundTrip(Fd, std::string("Oidle\nvm\n") + CsvMaxSpec, R));
  EXPECT_TRUE(R.Ok) << R.Body;
  ::close(Fd);
}

//===----------------------------------------------------------------------===//
// Frame-bytes fuzzer (fuzz label re-runs this; EFC_FUZZ_SEED overrides)
//===----------------------------------------------------------------------===//

TEST(FrameFuzz, RandomWireBytesNeverWedgeTheServer) {
  const uint64_t Seed = efc::testing::fuzzSeed(0x5eedf8a3);
  SplitMix64 Rng(Seed);
  TestServer T(2);
  std::string Err;
  ASSERT_TRUE(T.start(&Err)) << Err << efc::testing::seedNote(Seed);
  for (int Round = 0; Round < 60; ++Round) {
    int Fd = connectTo(T.Sock);
    ASSERT_GE(Fd, 0) << efc::testing::seedNote(Seed);
    unsigned Mode = unsigned(Rng.next() % 3);
    if (Mode == 0) {
      // Raw garbage: random bytes, random length, random cut-off.
      std::string Junk;
      size_t N = 1 + Rng.next() % 64;
      for (size_t I = 0; I < N; ++I)
        Junk.push_back(char(Rng.next() & 0xFF));
      writeExact(Fd, Junk.data(), Junk.size());
    } else if (Mode == 1) {
      // Valid header, random payload (random opcode, random name bytes):
      // must produce error replies, never a crash or a hang.
      std::string Payload;
      size_t N = Rng.next() % 48;
      for (size_t I = 0; I < N; ++I)
        Payload.push_back(char(Rng.next() & 0xFF));
      std::string Wire = wireBytes(Payload);
      writeExact(Fd, Wire.data(), Wire.size());
    } else {
      // Torn valid frame: write a prefix of a real request, then hang up
      // mid-frame.
      std::string Wire =
          wireBytes(std::string("Ofz\nvm\n") + CsvMaxSpec);
      size_t Cut = 1 + Rng.next() % (Wire.size() - 1);
      writeExact(Fd, Wire.data(), Cut);
    }
    ::close(Fd);
  }
  // After the storm, a well-formed client still gets exact answers.
  int Fd = connectTo(T.Sock);
  ASSERT_GE(Fd, 0) << efc::testing::seedNote(Seed);
  Reply R;
  ASSERT_TRUE(roundTrip(Fd, std::string("Osane\nvm\n") + CsvMaxSpec, R))
      << efc::testing::seedNote(Seed);
  ASSERT_TRUE(R.Ok) << R.Body << efc::testing::seedNote(Seed);
  ASSERT_TRUE(roundTrip(Fd, "Fsane\na,77,x\n", R));
  ASSERT_TRUE(R.Ok) << R.Body;
  ASSERT_TRUE(roundTrip(Fd, "Esane", R));
  ASSERT_TRUE(R.Ok) << R.Body;
  EXPECT_EQ(R.Body, "77") << efc::testing::seedNote(Seed);
  ::close(Fd);
}

} // namespace
