#include "rpc/messages.hpp"

namespace sdmmon::rpc {

namespace {

using util::ByteReader;
using util::ByteWriter;
using util::DecodeError;

/// Every decoder ends here: trailing bytes after a well-formed payload
/// mean the sender and receiver disagree about the schema.
void expect_done(const ByteReader& reader, const char* what) {
  if (!reader.done()) {
    throw DecodeError(std::string("rpc payload: trailing bytes after ") +
                      what);
  }
}

void check_cap(std::size_t size, std::size_t cap, const char* what) {
  if (size > cap) {
    throw DecodeError(std::string("rpc payload: ") + what + " exceeds cap");
  }
}

}  // namespace

// ---- Hello ----------------------------------------------------------

util::Bytes HelloPayload::encode() const {
  ByteWriter w;
  w.str(device_name);
  w.blob(challenge);
  return w.take();
}

HelloPayload HelloPayload::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  HelloPayload p;
  p.device_name = r.str();
  check_cap(p.device_name.size(), kMaxNameBytes, "device name");
  p.challenge = r.blob();
  check_cap(p.challenge.size(), kMaxChallengeBytes, "challenge");
  if (p.challenge.empty()) {
    throw DecodeError("rpc payload: empty challenge");
  }
  expect_done(r, "hello");
  return p;
}

// ---- Auth -----------------------------------------------------------

util::Bytes AuthPayload::encode() const {
  ByteWriter w;
  w.blob(cert);
  w.blob(signature);
  w.u64(now);
  return w.take();
}

AuthPayload AuthPayload::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  AuthPayload p;
  p.cert = r.blob();
  check_cap(p.cert.size(), kMaxCertBytes, "certificate");
  p.signature = r.blob();
  check_cap(p.signature.size(), kMaxSignatureBytes, "signature");
  p.now = r.u64();
  expect_done(r, "auth");
  return p;
}

util::Bytes AuthResultPayload::encode() const {
  ByteWriter w;
  w.u8(ok ? 1 : 0);
  w.str(detail);
  return w.take();
}

AuthResultPayload AuthResultPayload::decode(
    std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  AuthResultPayload p;
  const std::uint8_t ok = r.u8();
  if (ok > 1) throw DecodeError("rpc payload: auth-result ok not boolean");
  p.ok = ok == 1;
  p.detail = r.str();
  check_cap(p.detail.size(), kMaxDetailBytes, "detail");
  expect_done(r, "auth-result");
  return p;
}

// ---- Install --------------------------------------------------------

util::Bytes InstallPayload::encode() const {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(purpose));
  w.u64(now);
  w.blob(package);
  return w.take();
}

InstallPayload InstallPayload::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  InstallPayload p;
  const std::uint8_t purpose = r.u8();
  if (purpose > static_cast<std::uint8_t>(InstallPurpose::Rotate)) {
    throw DecodeError("rpc payload: unknown install purpose");
  }
  p.purpose = static_cast<InstallPurpose>(purpose);
  p.now = r.u64();
  p.package = r.blob();
  expect_done(r, "install");
  return p;
}

util::Bytes InstallResultPayload::encode() const {
  ByteWriter w;
  w.u8(install_status);
  return w.take();
}

InstallResultPayload InstallResultPayload::decode(
    std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  InstallResultPayload p;
  p.install_status = r.u8();
  expect_done(r, "install-result");
  return p;
}

// ---- Journal --------------------------------------------------------

util::Bytes GetJournalPayload::encode() const {
  ByteWriter w;
  w.u64(cursor);
  return w.take();
}

GetJournalPayload GetJournalPayload::decode(
    std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  GetJournalPayload p;
  p.cursor = r.u64();
  expect_done(r, "get-journal");
  return p;
}

util::Bytes JournalPayload::encode() const {
  ByteWriter w;
  w.u64(next_cursor);
  w.u64(dropped);
  w.u32(static_cast<std::uint32_t>(events.size()));
  for (const obs::Event& event : events) {
    w.u8(static_cast<std::uint8_t>(event.kind));
    w.u64(event.cycle);
    w.u32(event.core);
    w.u32(event.device);
    w.u64(event.arg);
  }
  return w.take();
}

JournalPayload JournalPayload::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  JournalPayload p;
  p.next_cursor = r.u64();
  p.dropped = r.u64();
  const std::uint32_t count = r.u32();
  check_cap(count, kMaxJournalEvents, "journal event count");
  p.events.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    obs::Event event;
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(obs::kLastEventKind)) {
      throw DecodeError("rpc payload: unknown journal event kind");
    }
    event.kind = static_cast<obs::EventKind>(kind);
    event.cycle = r.u64();
    event.core = r.u32();
    event.device = r.u32();
    event.arg = r.u64();
    p.events.push_back(event);
  }
  expect_done(r, "journal");
  return p;
}

// ---- Metrics --------------------------------------------------------

util::Bytes MetricsPayload::encode() const {
  ByteWriter w;
  w.str(json);
  return w.take();
}

MetricsPayload MetricsPayload::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  MetricsPayload p;
  p.json = r.str();
  expect_done(r, "metrics");
  return p;
}

// ---- Ping / Pong ----------------------------------------------------

util::Bytes PingPayload::encode() const {
  ByteWriter w;
  w.u64(nonce);
  return w.take();
}

PingPayload PingPayload::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  PingPayload p;
  p.nonce = r.u64();
  expect_done(r, "ping");
  return p;
}

util::Bytes PongPayload::encode() const {
  ByteWriter w;
  w.u64(nonce);
  w.u64(packets);
  w.u64(sessions);
  return w.take();
}

PongPayload PongPayload::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  PongPayload p;
  p.nonce = r.u64();
  p.packets = r.u64();
  p.sessions = r.u64();
  expect_done(r, "pong");
  return p;
}

// ---- Error ----------------------------------------------------------

const char* rpc_error_code_name(RpcErrorCode code) {
  switch (code) {
    case RpcErrorCode::BadRequest: return "bad-request";
    case RpcErrorCode::NotAuthorized: return "not-authorized";
    case RpcErrorCode::TooManySessions: return "too-many-sessions";
    case RpcErrorCode::Draining: return "draining";
    case RpcErrorCode::Internal: return "internal";
  }
  return "?";
}

util::Bytes ErrorPayload::encode() const {
  ByteWriter w;
  w.u16(static_cast<std::uint16_t>(code));
  w.str(message);
  return w.take();
}

ErrorPayload ErrorPayload::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  ErrorPayload p;
  const std::uint16_t code = r.u16();
  if (code < static_cast<std::uint16_t>(RpcErrorCode::BadRequest) ||
      code > static_cast<std::uint16_t>(RpcErrorCode::Internal)) {
    throw DecodeError("rpc payload: unknown error code");
  }
  p.code = static_cast<RpcErrorCode>(code);
  p.message = r.str();
  check_cap(p.message.size(), kMaxDetailBytes, "error message");
  expect_done(r, "error");
  return p;
}

}  // namespace sdmmon::rpc
