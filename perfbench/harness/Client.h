//===- perfbench/harness/Client.h - Wire-protocol load client ----*- C++ -*-===//
///
/// \file
/// A single-threaded, nonblocking client for the server's framed wire
/// protocol (runtime/Server.h): several connections pumped by one
/// ppoll() loop.  Requests are pipelined; replies arrive in order per
/// connection and are matched to the request queue of that connection.
///
/// Open-loop callers call send() when a request is due and pump() in
/// between; the client never waits for a reply before sending.
///
//===----------------------------------------------------------------------===//

#ifndef EFC_PERFBENCH_CLIENT_H
#define EFC_PERFBENCH_CLIENT_H

#include "Bench.h"

#include "runtime/NetBuffers.h"

#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace pb {

/// One outstanding request.
struct Pending {
  uint32_t Op = 0;  ///< caller's index of the operation
  Clock::time_point Due; ///< when it was due (open-loop schedule)
};

struct Reply {
  unsigned Conn;
  Pending Req;
  char Status; ///< 'k' or 'e'
  std::string_view Name, Body;
  Clock::time_point At;
};

class WireClient {
public:
  WireClient() = default;
  ~WireClient();
  WireClient(const WireClient &) = delete;
  WireClient &operator=(const WireClient &) = delete;

  /// Opens \p N connections to the Unix socket \p Path.
  bool connect(const std::string &Path, unsigned N, std::string *Err);

  /// Queues one request frame (\p Payload is opcode + body) on \p Conn and
  /// writes as much as the socket takes.
  bool send(unsigned Conn, std::string_view Payload, Pending P,
            std::string *Err);

  /// Waits until a socket is ready or \p Until passes, flushes pending
  /// writes, and hands every complete reply to \p OnReply.  False on a
  /// socket error or a reply nobody asked for.
  bool pump(Clock::time_point Until,
            const std::function<void(const Reply &)> &OnReply,
            std::string *Err);

  /// Sends one request and pumps until its reply; returns the body copy.
  bool call(unsigned Conn, std::string_view Payload, char *Status,
            std::string *Body, std::string *Err);

  size_t outstanding() const;
  size_t outstanding(unsigned Conn) const { return Conns[Conn].Pend.size(); }

private:
  struct Conn {
    int Fd = -1;
    std::string Out;
    size_t OutOff = 0;
    efc::runtime::InputSlab In;
    std::deque<Pending> Pend;
  };
  bool flush(Conn &C, std::string *Err);
  bool readReplies(unsigned Idx, const std::function<void(const Reply &)> &,
                   std::string *Err);

  std::vector<Conn> Conns;
};

/// Sum of every ` key=<number>` field of an 'S' stats reply body.
double statField(std::string_view Text, std::string_view Key);
/// Sum over the label variants of metric \p Name in an 'M' reply body
/// (Prometheus text exposition).
double promValue(std::string_view Text, std::string_view Name);

} // namespace pb

#endif // EFC_PERFBENCH_CLIENT_H
