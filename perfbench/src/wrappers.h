// Layer wrappers for the traced chain-lan fixture: a Transport that records
// transport.send around every send and transport.deliver around every
// receiver invocation, and a Codec that records serde.encode/serde.decode
// around the binary codec. Both forward everything else untouched.
#pragma once

#include "serde/codec.h"
#include "serde/io.h"
#include "trace.h"
#include "transport/transport.h"

namespace perfbench {

class TracingTransport final : public srpc::Transport {
 public:
  explicit TracingTransport(srpc::Transport& inner) : inner_(inner) {}

  const srpc::Address& address() const override { return inner_.address(); }

  bool send(const srpc::Address& dst, srpc::Bytes payload) override {
    trace::Scope span(trace::kTransportSend, 0);
    span.set_bytes(payload.size());
    return inner_.send(dst, std::move(payload));
  }

  void set_receiver(Receiver receiver) override {
    if (!receiver) {
      inner_.set_receiver(nullptr);
      return;
    }
    inner_.set_receiver([receiver = std::move(receiver)](
                            const srpc::Address& src, srpc::Bytes payload) {
      trace::Scope span(trace::kTransportDeliver, 0);
      span.set_bytes(payload.size());
      receiver(src, std::move(payload));
    });
  }

  void quiesce() override { inner_.quiesce(); }

 private:
  srpc::Transport& inner_;
};

class TimingCodec final : public srpc::Codec {
 public:
  using Codec::decode;
  using Codec::encode;

  void encode(const srpc::Value& v, srpc::Bytes& out) const override {
    trace::Scope span(trace::kSerdeEncode, 0);
    const std::size_t before = out.size();
    srpc::binary_codec().encode(v, out);
    span.set_bytes(out.size() - before);
  }

  srpc::Value decode(srpc::Reader& in) const override {
    trace::Scope span(trace::kSerdeDecode, 0);
    const std::size_t before = in.remaining();
    srpc::Value v = srpc::binary_codec().decode(in);
    span.set_bytes(before - in.remaining());
    return v;
  }

  std::string name() const override { return "binary+timing"; }
};

}  // namespace perfbench
