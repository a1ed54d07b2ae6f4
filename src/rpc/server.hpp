// Device-side control-plane server: a long-running concurrent TCP server
// that fronts one NetworkProcessorDevice's control processor, speaking
// the framed wire protocol (rpc/wire.hpp + rpc/messages.hpp) so many
// operator sessions can install, rotate parameters, pull metrics
// snapshots, and stream journal events over real sockets while the
// MPSoC keeps serving packet load.
//
// Design:
//  * Thread-per-connection. Control-plane traffic is a handful of
//    operator consoles, not a packet path; a blocking thread per session
//    is simpler to prove correct (TSan runs the torture suite) than an
//    epoll state machine, and the session cap bounds the thread count.
//  * One DeviceHost serializes every control action against the device
//    and every pumped packet batch -- NetworkProcessorDevice was built
//    single-threaded and stays that way; the mutex is the explicit
//    device-ownership boundary. Metrics snapshots bypass the device lock
//    entirely (the obs Registry is already thread-safe), so monitoring
//    never waits behind a multi-second install.
//  * Session auth rides the existing chain of trust: the server issues a
//    fresh challenge per session, the client signs it with the operator
//    key, and the server verifies the operator certificate against the
//    manufacturer root -- the same root the device uses to accept
//    install packages. No new key material, no new trust assumptions.
//  * Per-session request-id dedup: the server caches the response to the
//    last request id and replays it verbatim when the same id arrives
//    again. An operator that timed out waiting for a reply retries the
//    SAME id and gets the cached verdict instead of triggering a
//    duplicate install -- the partial-delivery edge the in-process
//    LossyChannel model hides (reply lost => blind re-send) and a real
//    socket transport exposes.
//  * Graceful drain: stop() closes the listener, wakes every blocked
//    session read, lets in-flight requests complete and flush their
//    responses, and joins all threads before returning.
#ifndef SDMMON_RPC_SERVER_HPP
#define SDMMON_RPC_SERVER_HPP

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "crypto/drbg.hpp"
#include "obs/obs.hpp"
#include "rpc/messages.hpp"
#include "rpc/socket.hpp"
#include "rpc/wire.hpp"
#include "sdmmon/entities.hpp"
#include "sdmmon/workload.hpp"
#include "util/fault.hpp"

namespace sdmmon::rpc {

/// Serialized ownership of one NetworkProcessorDevice shared between RPC
/// session threads (installs) and a data-plane load generator (packet
/// pumping). The registry is attached to the device's MPSoC at
/// construction, so np.* engine metrics and rpc.* server metrics land in
/// one snapshot_json() document.
class DeviceHost {
 public:
  DeviceHost(protocol::NetworkProcessorDevice& device,
             obs::Registry& registry);

  const std::string& device_name() const { return name_; }
  obs::Registry& registry() { return registry_; }

  /// Control-plane install (serialized wire bytes), under the device lock.
  protocol::InstallStatus install_bytes(std::span<const std::uint8_t> bytes,
                                        std::uint64_t now);

  /// Pump a batch of workload items through the device under ONE lock
  /// acquisition -- the load generator's path. Batching keeps lock
  /// traffic off the per-packet path while still letting control
  /// requests interleave between batches. Returns items processed.
  std::size_t pump(std::span<const protocol::WorkItem> items);

  /// Packets processed via this host (pump).
  std::uint64_t packets() const {
    return packets_.load(std::memory_order_relaxed);
  }

  /// Metrics snapshot; does NOT take the device lock (Registry is
  /// thread-safe), so monitoring stays responsive during installs.
  std::string metrics_json() const { return registry_.snapshot_json(); }

  /// Journal events at or after `cursor` (an EventJournal::recorded()
  /// value), at most kMaxJournalEvents per poll.
  JournalPayload journal_since(std::uint64_t cursor) const;

 private:
  mutable std::mutex mu_;
  protocol::NetworkProcessorDevice& device_;
  obs::Registry& registry_;
  std::string name_;
  std::atomic<std::uint64_t> packets_{0};
};

struct ServerOptions {
  /// 0 = ephemeral port; read the bound one back via RpcServer::port().
  std::uint16_t port = 0;
  /// Hard cap on concurrent sessions; further connections are refused
  /// with a TooManySessions error frame and closed.
  std::size_t max_sessions = 32;
  /// Seed for per-session auth challenges (deterministic for tests).
  std::string challenge_seed = "rpc-challenge";
  /// Reply-path fault injection (borrowed): when set, every response
  /// frame consults drop_message() and a dropped reply is simply never
  /// written -- the request WAS executed. This models "frame delivered,
  /// response lost", the case request-id dedup exists for; tests and the
  /// torture bench wire a seeded injector here.
  util::FaultInjector* reply_faults = nullptr;
};

/// Cached rpc.* metric handles. Always recorded: every server has a
/// registry, and the control plane is a cold path.
struct RpcObs {
  obs::Counter* sessions_opened = nullptr;
  obs::Gauge* sessions_active = nullptr;
  obs::Counter* sessions_refused = nullptr;
  obs::Counter* auth_failures = nullptr;
  obs::Counter* requests = nullptr;
  obs::Counter* errors = nullptr;
  obs::Counter* frames_rejected = nullptr;
  obs::Counter* dedup_replays = nullptr;
  obs::Counter* installs = nullptr;
  obs::Counter* rotations = nullptr;
  obs::Counter* bytes_in = nullptr;
  obs::Counter* bytes_out = nullptr;
  obs::Histogram* request_ns = nullptr;
  obs::EventJournal* journal = nullptr;

  static RpcObs create(obs::Registry& registry);
};

class RpcServer {
 public:
  RpcServer(DeviceHost& host, crypto::RsaPublicKey manufacturer_root,
            ServerOptions options = {});
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Bind, listen, and spawn the accept loop. False if the port could
  /// not be bound.
  bool start();

  bool running() const { return running_.load(std::memory_order_acquire); }
  std::uint16_t port() const { return port_; }

  /// Graceful drain: refuse new connections, wake blocked session reads,
  /// finish in-flight requests (responses are flushed), join every
  /// thread. Idempotent.
  void stop();

  /// Sessions accepted over the server's lifetime.
  std::uint64_t sessions_served() const {
    return sessions_served_.load(std::memory_order_relaxed);
  }

 private:
  struct Session {
    std::uint64_t id = 0;
    TcpStream stream;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void session_loop(Session& session);
  void reap_finished_locked();

  /// False when the response was suppressed by reply_faults (the caller
  /// must still treat the request as executed) or the write failed.
  bool send_frame(Session& session, MsgType type, std::uint64_t request_id,
                  const util::Bytes& payload, util::Bytes* cache);
  void send_error(Session& session, std::uint64_t request_id,
                  RpcErrorCode code, const std::string& message);

  DeviceHost& host_;
  crypto::RsaPublicKey root_;
  ServerOptions options_;
  RpcObs obs_;

  TcpListener listener_;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};

  std::mutex sessions_mu_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::atomic<std::uint64_t> sessions_served_{0};
  std::atomic<std::uint64_t> next_session_id_{1};

  std::mutex challenge_mu_;
  crypto::Drbg challenge_drbg_;

  std::mutex reply_faults_mu_;  // FaultInjector is not thread-safe
};

}  // namespace sdmmon::rpc

#endif  // SDMMON_RPC_SERVER_HPP
