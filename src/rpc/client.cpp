#include "rpc/client.hpp"

#include <array>

namespace sdmmon::rpc {

std::optional<RpcClient> RpcClient::connect(std::uint16_t port) {
  std::optional<TcpStream> stream = TcpStream::connect(port);
  if (!stream) return std::nullopt;
  RpcClient client;
  client.stream_ = std::move(*stream);
  client.connected_ = true;

  // The server speaks first: Hello (greeting + challenge) or Error
  // (session cap). Anything else is a protocol violation.
  Frame frame;
  if (client.read_response(0, frame) != 1) return std::nullopt;
  if (frame.type != MsgType::Hello) return std::nullopt;
  try {
    HelloPayload hello = HelloPayload::decode(frame.payload);
    client.device_name_ = std::move(hello.device_name);
    client.challenge_ = std::move(hello.challenge);
  } catch (const util::DecodeError&) {
    return std::nullopt;
  }
  return client;
}

util::Bytes RpcClient::auth_message() const {
  util::Bytes message = challenge_;
  message.insert(message.end(), device_name_.begin(), device_name_.end());
  return message;
}

void RpcClient::fail(const std::string& why) {
  last_error_ = why;
  connected_ = false;
  stream_.shutdown_both();
}

bool RpcClient::send_raw(const util::Bytes& frame_bytes) {
  if (!connected_) return false;
  if (!stream_.send_all(frame_bytes)) {
    fail("send failed");
    return false;
  }
  return true;
}

int RpcClient::read_response(std::uint64_t request_id, Frame& out) {
  std::array<std::uint8_t, 4096> buf;
  while (true) {
    FrameDecoder::Status status = decoder_.poll(out);
    if (status == FrameDecoder::Status::Ready) {
      // Discard stale frames: a response to a request id we stopped
      // waiting for (e.g. it arrived after a timeout-triggered retry
      // whose dedup replay we already consumed).
      if (out.request_id != request_id) continue;
      return 1;
    }
    if (status == FrameDecoder::Status::Failed) {
      fail(std::string("frame decode: ") +
           frame_error_name(decoder_.error()));
      return 0;
    }
    int n = stream_.recv_some(buf);
    if (n == -2) return -1;  // timeout; caller may retry the same id
    if (n <= 0) {
      fail(n == 0 ? "connection closed" : "recv failed");
      return 0;
    }
    decoder_.feed(std::span<const std::uint8_t>(
        buf.data(), static_cast<std::size_t>(n)));
  }
}

bool RpcClient::call(MsgType type, const util::Bytes& payload,
                     MsgType expect, Frame& response) {
  const std::uint64_t id = next_request_id_++;
  if (!send_raw(encode_frame({type, id, payload}))) return false;
  if (read_response(id, response) != 1) {
    if (connected_) fail("timed out waiting for response");
    return false;
  }
  if (response.type == MsgType::Error) {
    try {
      ErrorPayload err = ErrorPayload::decode(response.payload);
      last_error_ = std::string(rpc_error_code_name(err.code)) + ": " +
                    err.message;
    } catch (const util::DecodeError&) {
      last_error_ = "server error (unreadable detail)";
    }
    return false;
  }
  if (response.type != expect) {
    fail(std::string("unexpected response type ") +
         msg_type_name(response.type));
    return false;
  }
  return true;
}

bool RpcClient::authenticate(const util::Bytes& cert,
                             const util::Bytes& signature,
                             std::uint64_t now, std::string* detail) {
  AuthPayload auth;
  auth.cert = cert;
  auth.signature = signature;
  auth.now = now;
  Frame response;
  if (!call(MsgType::Auth, auth.encode(), MsgType::AuthResult, response)) {
    if (detail != nullptr) *detail = last_error_;
    return false;
  }
  try {
    AuthResultPayload result = AuthResultPayload::decode(response.payload);
    if (detail != nullptr) *detail = result.detail;
    if (!result.ok) last_error_ = "auth rejected: " + result.detail;
    return result.ok;
  } catch (const util::DecodeError&) {
    fail("malformed AuthResult");
    if (detail != nullptr) *detail = last_error_;
    return false;
  }
}

std::optional<std::uint8_t> RpcClient::install(InstallPurpose purpose,
                                               const util::Bytes& package,
                                               std::uint64_t now) {
  InstallPayload payload;
  payload.purpose = purpose;
  payload.now = now;
  payload.package = package;
  Frame response;
  if (!call(MsgType::Install, payload.encode(), MsgType::InstallResult,
            response)) {
    return std::nullopt;
  }
  try {
    return InstallResultPayload::decode(response.payload).install_status;
  } catch (const util::DecodeError&) {
    fail("malformed InstallResult");
    return std::nullopt;
  }
}

RpcClient::InstallRetryResult RpcClient::install_with_retry(
    InstallPurpose purpose, const util::Bytes& package, std::uint64_t now,
    std::size_t max_attempts, std::uint32_t attempt_timeout_ms) {
  InstallRetryResult result;
  InstallPayload payload;
  payload.purpose = purpose;
  payload.now = now;
  payload.package = package;
  // ONE request id for every attempt: the retries are re-sends, and the
  // server's dedup cache answers them without re-executing the install.
  const std::uint64_t id = next_request_id_++;
  const util::Bytes frame_bytes =
      encode_frame({MsgType::Install, id, payload.encode()});
  stream_.set_recv_timeout_ms(attempt_timeout_ms);
  for (std::size_t attempt = 0; attempt < max_attempts && connected_;
       ++attempt) {
    ++result.attempts;
    if (!send_raw(frame_bytes)) break;
    Frame response;
    int rc = read_response(id, response);
    if (rc == -1) continue;  // timed out: re-send the same id
    if (rc != 1) break;
    if (response.type != MsgType::InstallResult) break;
    try {
      result.install_status =
          InstallResultPayload::decode(response.payload).install_status;
      result.delivered = true;
    } catch (const util::DecodeError&) {
      fail("malformed InstallResult");
    }
    break;
  }
  stream_.set_recv_timeout_ms(0);
  return result;
}

std::optional<std::string> RpcClient::metrics() {
  Frame response;
  if (!call(MsgType::GetMetrics, {}, MsgType::Metrics, response)) {
    return std::nullopt;
  }
  try {
    return MetricsPayload::decode(response.payload).json;
  } catch (const util::DecodeError&) {
    fail("malformed Metrics");
    return std::nullopt;
  }
}

std::optional<JournalPayload> RpcClient::journal(std::uint64_t cursor) {
  GetJournalPayload get;
  get.cursor = cursor;
  Frame response;
  if (!call(MsgType::GetJournal, get.encode(), MsgType::Journal, response)) {
    return std::nullopt;
  }
  try {
    return JournalPayload::decode(response.payload);
  } catch (const util::DecodeError&) {
    fail("malformed Journal");
    return std::nullopt;
  }
}

std::optional<PongPayload> RpcClient::ping(std::uint64_t nonce) {
  PingPayload ping;
  ping.nonce = nonce;
  Frame response;
  if (!call(MsgType::Ping, ping.encode(), MsgType::Pong, response)) {
    return std::nullopt;
  }
  try {
    return PongPayload::decode(response.payload);
  } catch (const util::DecodeError&) {
    fail("malformed Pong");
    return std::nullopt;
  }
}

bool RpcClient::goodbye() {
  Frame response;
  bool ok = call(MsgType::Goodbye, {}, MsgType::GoodbyeAck, response);
  connected_ = false;
  return ok;
}

void SocketChannel::add_endpoint(const std::string& device_name,
                                 std::uint16_t port) {
  endpoints_[device_name] = port;
  clients_.erase(device_name);  // stale session for a re-registered port
}

RpcClient* SocketChannel::client_for(const std::string& device_name) {
  auto it = clients_.find(device_name);
  return it == clients_.end() ? nullptr : it->second.get();
}

void SocketChannel::disconnect_all() {
  for (auto& [name, client] : clients_) {
    if (client->connected()) client->goodbye();
  }
  clients_.clear();
}

RpcClient* SocketChannel::ensure_client(const std::string& device_name,
                                        std::uint64_t now) {
  if (RpcClient* existing = client_for(device_name)) {
    if (existing->connected()) return existing;
    clients_.erase(device_name);  // dead session: reconnect below
  }
  auto it = endpoints_.find(device_name);
  if (it == endpoints_.end()) return nullptr;  // not routed: unreachable
  std::optional<RpcClient> client = RpcClient::connect(it->second);
  if (!client) return nullptr;
  if (!client->authenticate(op_.certificate().serialize(),
                            op_.sign(client->auth_message()), now)) {
    return nullptr;
  }
  auto owned = std::make_unique<RpcClient>(std::move(*client));
  RpcClient* raw = owned.get();
  clients_[device_name] = std::move(owned);
  return raw;
}

protocol::ChannelResult SocketChannel::send_install(
    protocol::NetworkProcessorDevice& device,
    const protocol::WirePackage& wire, std::uint64_t now) {
  // Mirror LossyChannel::send_install decision-for-decision so a shared
  // seeded injector produces the same campaign over either transport.
  if (faults_ != nullptr && faults_->drop_message()) {
    return {protocol::ChannelStatus::RequestLost, {}};
  }

  util::Bytes bytes = wire.serialize();
  std::uint64_t device_now = now;
  if (faults_ != nullptr) {
    faults_->maybe_corrupt(bytes);
    faults_->maybe_truncate(bytes);
    device_now = faults_->skew_clock(now + faults_->delay_message());
  }

  RpcClient* client = ensure_client(device.name(), now);
  if (client == nullptr) {
    // Device unreachable over the real transport -- the operator sees
    // the same thing a vanished request looks like.
    return {protocol::ChannelStatus::RequestLost, {}};
  }
  std::optional<std::uint8_t> status =
      client->install(purpose_, bytes, device_now);
  if (!status) {
    clients_.erase(device.name());
    return {protocol::ChannelStatus::RequestLost, {}};
  }

  protocol::ChannelResult result{
      protocol::ChannelStatus::Delivered,
      static_cast<protocol::InstallStatus>(*status)};
  if (faults_ != nullptr && faults_->drop_message()) {
    // The reply arrived over TCP but the modeled reply path lost it: the
    // operator-side campaign must behave as if it never saw the verdict.
    result.status = protocol::ChannelStatus::ReplyLost;
  }
  return result;
}

}  // namespace sdmmon::rpc
