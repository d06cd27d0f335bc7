// Timing decorator around the public RpcTransport interface, used by the
// traced run of the node workloads. It is handed to PGridNode in place of the
// bare TcpTransport: every Call becomes a "net.tcp_transport.call" span and
// every served request a "net.node.serve.<type>" span around the node's
// handler, so a span's self time is the work of that layer alone (a served
// publish that fans out to buddies has its outgoing calls as children). It
// also keeps a bounded sample of the frames it saw, which the wire-codec
// metric re-encodes offline.

#pragma once

#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "net/protocol.h"
#include "net/transport.h"
#include "tracer.h"

namespace perfbench {

class TimedTransport : public pgrid::net::RpcTransport {
 public:
  explicit TimedTransport(pgrid::net::RpcTransport* inner) : inner_(inner) {}

  pgrid::Status Serve(const std::string& address, Handler handler) override {
    return inner_->Serve(address, [this, handler = std::move(handler)](
                                      const std::string& from, const std::string& request) {
      std::string response;
      {
        ScopedSpan span(ServeSpanName(request));
        response = handler(from, request);
      }
      Keep(request, response);
      return response;
    });
  }

  void StopServing(const std::string& address) override { inner_->StopServing(address); }

  pgrid::Result<std::string> Call(const std::string& to, const std::string& from,
                                  const std::string& request) override {
    ScopedSpan span("net.tcp_transport.call");
    return inner_->Call(to, from, request);
  }

  /// Request and response frames seen by served handlers (bounded sample).
  std::vector<std::string> TakeFrames() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(frames_);
  }

  static const char* ServeSpanName(const std::string& request) {
    if (request.empty()) return "net.node.serve.other";
    switch (static_cast<pgrid::net::MsgType>(request[0])) {
      case pgrid::net::MsgType::kQueryReq:
        return "net.node.serve.query";
      case pgrid::net::MsgType::kPublishReq:
        return "net.node.serve.publish";
      case pgrid::net::MsgType::kEntryPushReq:
        return "net.node.serve.entry_push";
      case pgrid::net::MsgType::kExchangeReq:
        return "net.node.serve.exchange";
      case pgrid::net::MsgType::kCommitReq:
        return "net.node.serve.commit";
      default:
        return "net.node.serve.other";
    }
  }

 private:
  static constexpr size_t kMaxFrames = 40'000;

  void Keep(const std::string& request, const std::string& response) {
    std::lock_guard<std::mutex> lock(mu_);
    if (frames_.size() + 2 > kMaxFrames) return;
    frames_.push_back(request);
    frames_.push_back(response);
  }

  pgrid::net::RpcTransport* inner_;
  std::mutex mu_;
  std::vector<std::string> frames_;
};

}  // namespace perfbench
