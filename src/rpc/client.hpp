// Operator-side RPC client: a typed, blocking wrapper over one framed
// TCP session (connect -> Hello/challenge -> Auth -> verbs), plus
// SocketChannel, which plugs the socket transport underneath the
// existing FleetOperator campaigns.
//
// SocketChannel deliberately consumes an injected FaultInjector's
// decisions in EXACTLY the order LossyChannel does (request drop ->
// corrupt -> truncate -> delay -> clock skew -> reply drop), so a
// campaign driven over sockets with a given seed observes the same
// fault sequence as the in-process model -- that equality is what the
// differential test pins.
#ifndef SDMMON_RPC_CLIENT_HPP
#define SDMMON_RPC_CLIENT_HPP

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "rpc/messages.hpp"
#include "rpc/socket.hpp"
#include "rpc/wire.hpp"
#include "sdmmon/channel.hpp"
#include "util/fault.hpp"

namespace sdmmon::rpc {

class RpcClient {
 public:
  /// Connect to 127.0.0.1:port and consume the server's Hello (device
  /// name + auth challenge). nullopt on refusal (including a server at
  /// session capacity) or a malformed greeting.
  static std::optional<RpcClient> connect(std::uint16_t port);

  RpcClient(RpcClient&&) = default;
  RpcClient& operator=(RpcClient&&) = default;

  const std::string& device_name() const { return device_name_; }
  const util::Bytes& challenge() const { return challenge_; }

  /// The exact bytes the server expects signed: challenge || device_name.
  util::Bytes auth_message() const;

  /// Present a serialized operator certificate plus a signature over
  /// auth_message(). `now` is the operator's clock, used by the server
  /// for certificate validity. False on rejection (detail explains why;
  /// the server closes the session after a failed auth).
  bool authenticate(const util::Bytes& cert, const util::Bytes& signature,
                    std::uint64_t now, std::string* detail = nullptr);

  /// One install exchange; returns the device's InstallStatus as a raw
  /// byte, or nullopt when the transport failed / the server refused.
  std::optional<std::uint8_t> install(InstallPurpose purpose,
                                      const util::Bytes& package,
                                      std::uint64_t now);

  struct InstallRetryResult {
    bool delivered = false;
    std::uint8_t install_status = 0;
    std::size_t attempts = 0;
  };

  /// Install with idempotent retry: every attempt re-sends the SAME
  /// request id, so a reply lost in transit is answered from the
  /// server's dedup cache instead of re-executing the install. This is
  /// the socket-transport fix for the partial-delivery edge where the
  /// in-process model's blind retry installs twice.
  InstallRetryResult install_with_retry(InstallPurpose purpose,
                                        const util::Bytes& package,
                                        std::uint64_t now,
                                        std::size_t max_attempts = 4,
                                        std::uint32_t attempt_timeout_ms =
                                            1000);

  /// Full metrics snapshot (snapshot_json document) from the device.
  std::optional<std::string> metrics();

  /// Journal events at or after `cursor`; advance cursor to next_cursor
  /// and poll again to stream.
  std::optional<JournalPayload> journal(std::uint64_t cursor);

  /// Liveness probe (allowed pre-auth). Echoes `nonce`.
  std::optional<PongPayload> ping(std::uint64_t nonce);

  /// Polite close: Goodbye -> GoodbyeAck. The session is unusable after.
  bool goodbye();

  bool connected() const { return connected_; }
  const std::string& last_error() const { return last_error_; }

 private:
  RpcClient() = default;

  /// Send one request frame and wait for `expect` (or Error) with the
  /// same request id; stale frames with other ids are discarded.
  bool call(MsgType type, const util::Bytes& payload, MsgType expect,
            Frame& response);
  /// Wait for a frame with `request_id`; -1 timeout, 0 fail, 1 ok.
  int read_response(std::uint64_t request_id, Frame& out);
  bool send_raw(const util::Bytes& frame_bytes);
  void fail(const std::string& why);

  TcpStream stream_;
  FrameDecoder decoder_;
  std::string device_name_;
  util::Bytes challenge_;
  std::uint64_t next_request_id_ = 1;
  bool connected_ = false;
  std::string last_error_;
};

/// A protocol::Channel that carries install exchanges over RPC sessions
/// -- FleetOperator campaigns run unchanged on top. Devices are routed
/// by name to registered ports; sessions are established (and
/// authenticated with the operator's certificate + key) lazily on first
/// use and reused across the campaign.
class SocketChannel : public protocol::Channel {
 public:
  /// `faults` (borrowed, optional) injects the LossyChannel fault model
  /// on top of the socket transport -- same decisions, same order, same
  /// seed => same campaign outcome as the in-process LossyChannel.
  explicit SocketChannel(protocol::NetworkOperator& op,
                         util::FaultInjector* faults = nullptr)
      : op_(op), faults_(faults) {}

  /// Route installs for `device_name` to a server on `port`.
  void add_endpoint(const std::string& device_name, std::uint16_t port);

  /// Tag subsequent installs for the rpc.installs vs rpc.rotations
  /// counters (metrics only; the wire package is identical).
  void set_purpose(InstallPurpose purpose) { purpose_ = purpose; }

  protocol::ChannelResult send_install(
      protocol::NetworkProcessorDevice& device,
      const protocol::WirePackage& wire, std::uint64_t now) override;

  /// The live authenticated session for a device (nullptr when none has
  /// been established yet); lets tests poke metrics/journal mid-campaign.
  RpcClient* client_for(const std::string& device_name);

  /// Drop every cached session (they Goodbye politely when possible).
  void disconnect_all();

 private:
  /// Lazily connect + authenticate; nullptr when unreachable/refused.
  RpcClient* ensure_client(const std::string& device_name,
                           std::uint64_t now);

  protocol::NetworkOperator& op_;
  util::FaultInjector* faults_;
  InstallPurpose purpose_ = InstallPurpose::Deploy;
  std::map<std::string, std::uint16_t> endpoints_;
  std::map<std::string, std::unique_ptr<RpcClient>> clients_;
};

}  // namespace sdmmon::rpc

#endif  // SDMMON_RPC_CLIENT_HPP
