// Transport decorators for client tests: one that rewrites the answers of
// one message type (a server reporting values of its own choosing), and one
// that counts the calls a client makes. Both are for single-threaded tests.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <utility>

#include "net/wire.hpp"

namespace tc::test {

/// Passes every call to `inner`, then rewrites each successful answer of
/// message type `type` with `rewrite` (none: answers pass unchanged).
template <class Response>
class RewritingTransport final : public net::Transport {
 public:
  RewritingTransport(std::shared_ptr<net::Transport> inner,
                     net::MessageType type,
                     std::function<void(Response&)> rewrite = nullptr)
      : inner_(std::move(inner)), type_(type), rewrite_(std::move(rewrite)) {}

  void set_rewrite(std::function<void(Response&)> rewrite) {
    rewrite_ = std::move(rewrite);
  }

  net::PendingCall AsyncCall(net::MessageType type, BytesView body,
                             net::CallCallback on_done = nullptr) override {
    Result<Bytes> result = inner_->Call(type, body);
    if (type == type_ && rewrite_ && result.ok()) {
      auto resp = Response::Decode(*result);
      if (resp.ok()) {
        rewrite_(*resp);
        result = resp->Encode();
      }
    }
    net::CallCompleter completer(std::move(on_done));
    completer.Complete(std::move(result));
    return completer.pending();
  }

 private:
  std::shared_ptr<net::Transport> inner_;
  net::MessageType type_;
  std::function<void(Response&)> rewrite_;
};

/// Passes every call to `inner` and counts it by message type.
class CountingTransport final : public net::Transport {
 public:
  explicit CountingTransport(std::shared_ptr<net::Transport> inner)
      : inner_(std::move(inner)) {}

  net::PendingCall AsyncCall(net::MessageType type, BytesView body,
                             net::CallCallback on_done = nullptr) override {
    ++calls_[type];
    return inner_->AsyncCall(type, body, std::move(on_done));
  }

  uint64_t calls() const {
    uint64_t total = 0;
    for (const auto& [type, n] : calls_) total += n;
    return total;
  }
  uint64_t calls(net::MessageType type) const {
    auto it = calls_.find(type);
    return it == calls_.end() ? 0 : it->second;
  }
  void Reset() { calls_.clear(); }

 private:
  std::shared_ptr<net::Transport> inner_;
  std::map<net::MessageType, uint64_t> calls_;
};

}  // namespace tc::test
