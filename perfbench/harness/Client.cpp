//===- perfbench/harness/Client.cpp ----------------------------------------===//

#include "Client.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace pb {

WireClient::~WireClient() {
  for (Conn &C : Conns)
    if (C.Fd >= 0)
      ::close(C.Fd);
}

bool WireClient::connect(const std::string &Path, unsigned N,
                         std::string *Err) {
  for (unsigned I = 0; I < N; ++I) {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
    if (Fd < 0 ||
        ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr))) {
      *Err = "connect " + Path + ": " + strerror(errno);
      if (Fd >= 0)
        ::close(Fd);
      return false;
    }
    fcntl(Fd, F_SETFL, fcntl(Fd, F_GETFL, 0) | O_NONBLOCK);
    Conns.emplace_back();
    Conns.back().Fd = Fd;
  }
  return true;
}

bool WireClient::flush(Conn &C, std::string *Err) {
  while (C.OutOff < C.Out.size()) {
    ssize_t W = ::send(C.Fd, C.Out.data() + C.OutOff, C.Out.size() - C.OutOff,
                       MSG_NOSIGNAL);
    if (W < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        return true;
      if (errno == EINTR)
        continue;
      *Err = std::string("send: ") + strerror(errno);
      return false;
    }
    C.OutOff += size_t(W);
  }
  C.Out.clear();
  C.OutOff = 0;
  return true;
}

bool WireClient::send(unsigned Idx, std::string_view Payload, Pending P,
                      std::string *Err) {
  Conn &C = Conns[Idx];
  uint32_t N = uint32_t(Payload.size());
  char Hdr[4] = {char(N & 0xFF), char((N >> 8) & 0xFF),
                 char((N >> 16) & 0xFF), char((N >> 24) & 0xFF)};
  C.Out.append(Hdr, 4);
  C.Out.append(Payload.data(), Payload.size());
  C.Pend.push_back(P);
  return flush(C, Err);
}

bool WireClient::readReplies(unsigned Idx,
                             const std::function<void(const Reply &)> &OnReply,
                             std::string *Err) {
  Conn &C = Conns[Idx];
  for (;;) {
    C.In.reserveWritable(64u << 10);
    ssize_t R = ::recv(C.Fd, C.In.writePtr(), C.In.writable(), 0);
    if (R < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        return true;
      if (errno == EINTR)
        continue;
      *Err = std::string("recv: ") + strerror(errno);
      return false;
    }
    if (R == 0) {
      *Err = "server closed a connection with " +
             std::to_string(C.Pend.size()) + " replies outstanding";
      return false;
    }
    C.In.commit(size_t(R));
    Clock::time_point At = Clock::now();
    for (;;) {
      std::string_view F;
      auto PR = C.In.nextFrame(64u << 20, &F);
      if (PR == efc::runtime::InputSlab::ParseResult::NeedMore)
        break;
      if (PR != efc::runtime::InputSlab::ParseResult::Frame || F.empty()) {
        *Err = "malformed reply frame";
        return false;
      }
      if (C.Pend.empty()) {
        *Err = "reply with no request outstanding";
        return false;
      }
      size_t Nl = F.find('\n');
      Reply Rp{Idx,
               C.Pend.front(),
               F[0],
               F.substr(1, Nl == std::string_view::npos ? F.size() - 1
                                                        : Nl - 1),
               Nl == std::string_view::npos ? std::string_view()
                                            : F.substr(Nl + 1),
               At};
      C.Pend.pop_front();
      OnReply(Rp);
      C.In.consumeFrame(F.size());
    }
  }
}

bool WireClient::pump(Clock::time_point Until,
                      const std::function<void(const Reply &)> &OnReply,
                      std::string *Err) {
  std::vector<pollfd> Pfds(Conns.size());
  for (size_t I = 0; I < Conns.size(); ++I)
    Pfds[I] = {Conns[I].Fd,
               short(POLLIN | (Conns[I].OutOff < Conns[I].Out.size()
                                   ? POLLOUT
                                   : 0)),
               0};
  auto Wait = std::chrono::duration_cast<std::chrono::nanoseconds>(
      Until - Clock::now());
  if (Wait.count() < 0)
    Wait = std::chrono::nanoseconds(0);
  timespec Ts{time_t(Wait.count() / 1000000000),
              long(Wait.count() % 1000000000)};
  int N = ::ppoll(Pfds.data(), nfds_t(Pfds.size()), &Ts, nullptr);
  if (N < 0 && errno != EINTR) {
    *Err = std::string("poll: ") + strerror(errno);
    return false;
  }
  for (size_t I = 0; N > 0 && I < Conns.size(); ++I) {
    if ((Pfds[I].revents & POLLOUT) && !flush(Conns[I], Err))
      return false;
    if ((Pfds[I].revents & (POLLIN | POLLERR | POLLHUP)) &&
        !readReplies(unsigned(I), OnReply, Err))
      return false;
  }
  return true;
}

bool WireClient::call(unsigned Idx, std::string_view Payload, char *Status,
                      std::string *Body, std::string *Err) {
  if (!send(Idx, Payload, Pending{UINT32_MAX, Clock::now()}, Err))
    return false;
  bool Got = false;
  Clock::time_point Deadline = Clock::now() + std::chrono::seconds(120);
  while (!Got) {
    if (Clock::now() > Deadline) {
      *Err = "no reply within 120 s";
      return false;
    }
    if (!pump(Clock::now() + std::chrono::milliseconds(100),
              [&](const Reply &R) {
                if (R.Conn == Idx && R.Req.Op == UINT32_MAX) {
                  Got = true;
                  *Status = R.Status;
                  Body->assign(R.Body);
                }
              },
              Err))
      return false;
  }
  return true;
}

double statField(std::string_view Text, std::string_view Key) {
  double Sum = 0;
  std::string Pat = std::string(Key) + "=";
  for (size_t At = Text.find(Pat); At != std::string_view::npos;
       At = Text.find(Pat, At + 1)) {
    if (At && Text[At - 1] != ' ' && Text[At - 1] != '\n')
      continue;
    Sum += strtod(std::string(Text.substr(At + Pat.size(), 32)).c_str(),
                  nullptr);
  }
  return Sum;
}

double promValue(std::string_view Text, std::string_view Name) {
  double Sum = 0;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    std::string_view Line =
        Text.substr(Pos, Eol == std::string_view::npos ? Eol : Eol - Pos);
    Pos = Eol == std::string_view::npos ? Text.size() : Eol + 1;
    if (Line.substr(0, Name.size()) != Name || Line.size() <= Name.size())
      continue;
    char Next = Line[Name.size()];
    if (Next != ' ' && Next != '{')
      continue;
    size_t Sp = Line.rfind(' ');
    Sum += strtod(std::string(Line.substr(Sp + 1)).c_str(), nullptr);
  }
  return Sum;
}

size_t WireClient::outstanding() const {
  size_t N = 0;
  for (const Conn &C : Conns)
    N += C.Pend.size();
  return N;
}

} // namespace pb
