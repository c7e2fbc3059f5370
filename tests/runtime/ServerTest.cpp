//===- tests/runtime/ServerTest.cpp - efc-serve server layer --------------===//
//
// In-process Server over a temp Unix socket: frame protocol round-trips,
// chunked feeding (the CI smoke scenario), error paths, cache sharing
// across sessions, concurrent clients, and clean shutdown.
//
//===----------------------------------------------------------------------===//

#include "runtime/Server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
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

bool roundTrip(int Fd, const std::string &Req, Reply &R) {
  if (!sendFrame(Fd, Req))
    return false;
  std::string Resp;
  if (!recvFrame(Fd, Resp) || Resp.empty())
    return false;
  R.Ok = Resp[0] == 'k';
  size_t Nl = Resp.find('\n');
  R.Name = Resp.substr(1, Nl == std::string::npos ? std::string::npos
                                                  : Nl - 1);
  R.Body = Nl == std::string::npos ? std::string() : Resp.substr(Nl + 1);
  return true;
}

class ServerTest : public ::testing::Test {
protected:
  void SetUp() override {
    Sock = ::testing::TempDir() + "/efc_srv_" +
           std::to_string(uint64_t(getpid())) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           ".sock";
    ServerOptions O;
    O.SocketPath = Sock;
    // Two shards so the suite exercises the round-robin fd handoff and
    // cross-shard session forwarding, not just the 1-shard fast path.
    O.Shards = 2;
    O.CacheCapacity = 8;
    Srv = std::make_unique<Server>(O);
    std::string Err;
    ASSERT_TRUE(Srv->start(&Err)) << Err;
  }
  void TearDown() override {
    if (Srv)
      Srv->stop();
    ::unlink(Sock.c_str());
  }

  std::string Sock;
  std::unique_ptr<Server> Srv;
};

TEST_F(ServerTest, OpenFeedFinishInSevenByteChunks) {
  int Fd = connectTo(Sock);
  ASSERT_GE(Fd, 0);
  Reply R;
  ASSERT_TRUE(roundTrip(Fd, std::string("Os1\nvm\n") + CsvMaxSpec, R));
  EXPECT_TRUE(R.Ok) << R.Body;
  EXPECT_EQ(R.Name, "s1");

  std::string In = "a,17,x\nb,99,y\nc,40,z\n";
  std::string Out;
  for (size_t I = 0; I < In.size(); I += 7) {
    ASSERT_TRUE(roundTrip(Fd, "Fs1\n" + In.substr(I, 7), R));
    ASSERT_TRUE(R.Ok) << R.Body;
    Out += R.Body;
  }
  ASSERT_TRUE(roundTrip(Fd, "Es1", R));
  EXPECT_TRUE(R.Ok) << R.Body;
  Out += R.Body;
  EXPECT_EQ(Out, "99");
  ::close(Fd);
}

TEST_F(ServerTest, ErrorPaths) {
  int Fd = connectTo(Sock);
  ASSERT_GE(Fd, 0);
  Reply R;
  // Feed to a session that was never opened.
  ASSERT_TRUE(roundTrip(Fd, "Fnope\nabc", R));
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Name, "nope");
  // Open with a bad spec.
  ASSERT_TRUE(roundTrip(Fd, "Obad\nvm\nfrontend=wat\npattern=x\n", R));
  EXPECT_FALSE(R.Ok);
  // Open with a bad backend keyword.
  ASSERT_TRUE(
      roundTrip(Fd, std::string("Obad2\nquantum\n") + CsvMaxSpec, R));
  EXPECT_FALSE(R.Ok);
  // Duplicate open.
  ASSERT_TRUE(roundTrip(Fd, std::string("Odup\nvm\n") + CsvMaxSpec, R));
  EXPECT_TRUE(R.Ok) << R.Body;
  ASSERT_TRUE(roundTrip(Fd, std::string("Odup\nvm\n") + CsvMaxSpec, R));
  EXPECT_FALSE(R.Ok) << "second open of one name must fail";
  // After finish, the session is gone.  (Feed a row first: max over an
  // empty stream rejects at the finalizer.)
  ASSERT_TRUE(roundTrip(Fd, "Fdup\na,5,x\n", R));
  EXPECT_TRUE(R.Ok) << R.Body;
  ASSERT_TRUE(roundTrip(Fd, "Edup", R));
  EXPECT_TRUE(R.Ok);
  ASSERT_TRUE(roundTrip(Fd, "Fdup\nxyz", R));
  EXPECT_FALSE(R.Ok);
  // Rejected input (0xFF is not UTF-8) surfaces as an error reply.
  ASSERT_TRUE(roundTrip(Fd, std::string("Orej\nvm\n") + CsvMaxSpec, R));
  ASSERT_TRUE(R.Ok);
  ASSERT_TRUE(roundTrip(Fd, std::string("Frej\n\xff"), R));
  EXPECT_FALSE(R.Ok);
  ::close(Fd);
}

TEST_F(ServerTest, CloseDiscardsSession) {
  int Fd = connectTo(Sock);
  ASSERT_GE(Fd, 0);
  Reply R;
  ASSERT_TRUE(roundTrip(Fd, std::string("Oc1\nvm\n") + CsvMaxSpec, R));
  ASSERT_TRUE(R.Ok);
  ASSERT_TRUE(roundTrip(Fd, "Cc1", R));
  EXPECT_TRUE(R.Ok);
  ASSERT_TRUE(roundTrip(Fd, "Fc1\nabc", R));
  EXPECT_FALSE(R.Ok) << "closed session must be gone";
  // The name is reusable after close.
  ASSERT_TRUE(roundTrip(Fd, std::string("Oc1\nvm\n") + CsvMaxSpec, R));
  EXPECT_TRUE(R.Ok);
  ::close(Fd);
}

TEST_F(ServerTest, SessionsShareThePipelineCache) {
  int Fd = connectTo(Sock);
  ASSERT_GE(Fd, 0);
  Reply R;
  ASSERT_TRUE(roundTrip(Fd, std::string("Oa\nvm\n") + CsvMaxSpec, R));
  ASSERT_TRUE(R.Ok) << R.Body;
  ASSERT_TRUE(roundTrip(Fd, std::string("Ob\nvm\n") + CsvMaxSpec, R));
  ASSERT_TRUE(R.Ok) << R.Body;
  ASSERT_TRUE(roundTrip(Fd, "S", R));
  ASSERT_TRUE(R.Ok);
  EXPECT_NE(R.Body.find("sessions_opened=2"), std::string::npos) << R.Body;
  EXPECT_NE(R.Body.find("builds=1"), std::string::npos)
      << "same spec must fuse once: " << R.Body;
  EXPECT_NE(R.Body.find("cache: "), std::string::npos);
  ::close(Fd);
}

TEST_F(ServerTest, ConcurrentClientsInterleave) {
  constexpr int N = 4;
  std::vector<std::thread> Ts;
  std::vector<std::string> Outs(N);
  for (int K = 0; K < N; ++K)
    Ts.emplace_back([&, K] {
      int Fd = connectTo(Sock);
      ASSERT_GE(Fd, 0);
      Reply R;
      std::string Name = "w" + std::to_string(K);
      ASSERT_TRUE(
          roundTrip(Fd, "O" + Name + "\nvm\n" + CsvMaxSpec, R));
      ASSERT_TRUE(R.Ok) << R.Body;
      // Each client streams a different max; 1-byte chunks maximize
      // interleaving across the worker pool.
      std::string In = "a," + std::to_string(10 + K) + ",x\n";
      for (char Ch : In) {
        ASSERT_TRUE(roundTrip(Fd, "F" + Name + "\n" + std::string(1, Ch), R));
        ASSERT_TRUE(R.Ok) << R.Body;
        Outs[K] += R.Body;
      }
      ASSERT_TRUE(roundTrip(Fd, "E" + Name, R));
      ASSERT_TRUE(R.Ok) << R.Body;
      Outs[K] += R.Body;
      ::close(Fd);
    });
  for (auto &T : Ts)
    T.join();
  for (int K = 0; K < N; ++K)
    EXPECT_EQ(Outs[K], std::to_string(10 + K));
}

TEST_F(ServerTest, MetricsFrameCoversEveryFamily) {
  int Fd = connectTo(Sock);
  ASSERT_GE(Fd, 0);
  Reply R;
  // Drive one session end to end so the serving families have data;
  // rbbe=1 opts into the pass the serving default leaves out.
  ASSERT_TRUE(
      roundTrip(Fd, std::string("Om1\nvm\n") + CsvMaxSpec + "rbbe=1\n", R));
  ASSERT_TRUE(R.Ok) << R.Body;
  ASSERT_TRUE(roundTrip(Fd, "Fm1\na,31,x\n", R));
  ASSERT_TRUE(R.Ok) << R.Body;
  ASSERT_TRUE(roundTrip(Fd, "Em1", R));
  ASSERT_TRUE(R.Ok) << R.Body;

  ASSERT_TRUE(roundTrip(Fd, "M", R));
  ASSERT_TRUE(R.Ok);
  // One dump must cover every subsystem the observability layer spans:
  // solver, fusion, RBBE, cache, fast path, streaming and the server.
  for (const char *Family :
       {"efc_solver_checks_total", "efc_fusion_runs_total",
        "efc_rbbe_runs_total", "efc_cache_misses_total",
        "efc_fastpath_plan_table_states_total", "efc_stream_bytes_in_total",
        "efc_server_frames_in_total", "efc_server_feed_latency_seconds",
        "efc_server_queue_depth"})
    EXPECT_NE(R.Body.find(Family), std::string::npos)
        << "family missing from 'M' dump: " << Family;
  // Exposition syntax, not just substrings: HELP/TYPE headers and a
  // labeled per-backend series.
  EXPECT_NE(R.Body.find("# TYPE efc_server_feed_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(R.Body.find("efc_stream_bytes_in_total{backend=\"vm\"}"),
            std::string::npos);
  ::close(Fd);
}

// A client that vanishes mid-stream: the server must count the replies it
// could not deliver and doom the session instead of silently dropping
// output on the floor.
TEST_F(ServerTest, DeadClientCountsDroppedFrames) {
  int Fd = connectTo(Sock);
  ASSERT_GE(Fd, 0);
  Reply R;
  // An echoing pipeline (no aggregate) makes every feed reply carry the
  // matched bytes back, so the reply volume tracks the input volume.
  const char *EchoSpec = "frontend=regex\n"
                         "pattern=(?<v>\\d+)\n"
                         "agg=none\n"
                         "format=lines\n";
  ASSERT_TRUE(roundTrip(Fd, std::string("Od1\nvm\n") + EchoSpec, R));
  ASSERT_TRUE(R.Ok) << R.Body;
  // Pipeline ~2 MB of digit rows without ever reading a reply, then
  // vanish: the echoed replies overflow the socket buffer, the rest
  // queue on the connection, and the close turns them into
  // undeliverable frames.
  std::string Row;
  while (Row.size() < 4096)
    Row += "1234567890\n";
  for (int I = 0; I < 512; ++I)
    if (!sendFrame(Fd, "Fd1\n" + Row))
      break;
  ::close(Fd);

  // The shard notices the dead peer on its next flush; poll the public
  // counter rather than sleeping blind.
  bool Dropped = false;
  for (int I = 0; I < 500 && !Dropped; ++I) {
    Dropped = Srv->statsText().find("frames_dropped=0") == std::string::npos;
    if (!Dropped)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(Dropped) << Srv->statsText();

  // The server itself stays healthy for other clients.
  int Fd2 = connectTo(Sock);
  ASSERT_GE(Fd2, 0);
  ASSERT_TRUE(roundTrip(Fd2, std::string("Od2\nvm\n") + CsvMaxSpec, R));
  EXPECT_TRUE(R.Ok) << R.Body;
  ::close(Fd2);
}

TEST_F(ServerTest, ShutdownFrameStopsTheServer) {
  int Fd = connectTo(Sock);
  ASSERT_GE(Fd, 0);
  Reply R;
  ASSERT_TRUE(roundTrip(Fd, "Q", R));
  EXPECT_TRUE(R.Ok);
  ::close(Fd);
  Srv->wait(); // must return (and not hang) after a 'Q' frame
  Srv.reset();
}

TEST(ServerStandalone, StartFailsOnBadPath) {
  ServerOptions O;
  O.SocketPath = "/nonexistent-dir-efc/x.sock";
  Server S(O);
  std::string Err;
  EXPECT_FALSE(S.start(&Err));
  EXPECT_FALSE(Err.empty());
}

} // namespace
