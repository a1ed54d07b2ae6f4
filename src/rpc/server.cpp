#include "rpc/server.hpp"

#include <array>
#include <chrono>

#include "crypto/cert.hpp"
#include "obs/names.hpp"
#include "util/log.hpp"

namespace sdmmon::rpc {

DeviceHost::DeviceHost(protocol::NetworkProcessorDevice& device,
                       obs::Registry& registry)
    : device_(device), registry_(registry), name_(device.name()) {
  // One registry carries both the engine's np.* metrics and the server's
  // rpc.* metrics, so a single snapshot_json() answers "what is this
  // device doing" end to end.
  device_.mpsoc().enable_obs(registry_);
}

protocol::InstallStatus DeviceHost::install_bytes(
    std::span<const std::uint8_t> bytes, std::uint64_t now) {
  std::lock_guard<std::mutex> lock(mu_);
  return device_.install_bytes(bytes, now);
}

std::size_t DeviceHost::pump(std::span<const protocol::WorkItem> items) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const protocol::WorkItem& item : items) {
    device_.process_packet(item.packet, item.flow_key);
  }
  packets_.fetch_add(items.size(), std::memory_order_relaxed);
  return items.size();
}

JournalPayload DeviceHost::journal_since(std::uint64_t cursor) const {
  JournalPayload out;
  std::uint64_t recorded = 0;
  std::vector<obs::Event> events =
      registry_.journal().events_and_recorded(recorded);
  const std::uint64_t first = recorded - events.size();
  out.next_cursor = recorded;
  if (cursor >= recorded) {
    out.next_cursor = recorded;
    return out;  // nothing new
  }
  std::uint64_t start = cursor;
  if (cursor < first) {
    out.dropped = first - cursor;  // evicted before the client polled
    start = first;
  }
  const std::size_t offset = static_cast<std::size_t>(start - first);
  const std::size_t count =
      std::min(events.size() - offset, kMaxJournalEvents);
  out.events.assign(events.begin() + static_cast<std::ptrdiff_t>(offset),
                    events.begin() +
                        static_cast<std::ptrdiff_t>(offset + count));
  out.next_cursor = start + count;
  return out;
}

RpcObs RpcObs::create(obs::Registry& registry) {
  RpcObs obs;
  obs.sessions_opened = &registry.counter(obs::names::kRpcSessionsOpened);
  obs.sessions_active = &registry.gauge(obs::names::kRpcSessionsActive);
  obs.sessions_refused =
      &registry.counter(obs::names::kRpcSessionsRefused);
  obs.auth_failures = &registry.counter(obs::names::kRpcAuthFailures);
  obs.requests = &registry.counter(obs::names::kRpcRequests);
  obs.errors = &registry.counter(obs::names::kRpcErrors);
  obs.frames_rejected = &registry.counter(obs::names::kRpcFramesRejected);
  obs.dedup_replays = &registry.counter(obs::names::kRpcDedupReplays);
  obs.installs = &registry.counter(obs::names::kRpcInstalls);
  obs.rotations = &registry.counter(obs::names::kRpcRotations);
  obs.bytes_in = &registry.counter(obs::names::kRpcBytesIn);
  obs.bytes_out = &registry.counter(obs::names::kRpcBytesOut);
  obs.request_ns = &registry.histogram(obs::names::kRpcRequestNs,
                                       obs::latency_ns_buckets());
  obs.journal = &registry.journal();
  return obs;
}

RpcServer::RpcServer(DeviceHost& host, crypto::RsaPublicKey manufacturer_root,
                     ServerOptions options)
    : host_(host),
      root_(std::move(manufacturer_root)),
      options_(std::move(options)),
      obs_(RpcObs::create(host.registry())),
      challenge_drbg_(options_.challenge_seed) {}

RpcServer::~RpcServer() { stop(); }

bool RpcServer::start() {
  if (running_.load(std::memory_order_acquire)) return true;
  auto listener = TcpListener::listen(options_.port);
  if (!listener) return false;
  listener_ = std::move(*listener);
  port_ = listener_.port();
  draining_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
  util::log_info("rpc: serving device '", host_.device_name(), "' on 127.0.0.1:",
                 port_);
  return true;
}

void RpcServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  draining_.store(true, std::memory_order_release);
  // Refuse new connections, then wake every blocked session read. Session
  // threads finish the request they are executing (responses flush: only
  // the read side is shut down) and exit their loops.
  listener_.shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (auto& session : sessions_) session->stream.shutdown_read();
  for (auto& session : sessions_) {
    if (session->thread.joinable()) session->thread.join();
  }
  sessions_.clear();
}

void RpcServer::reap_finished_locked() {
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

void RpcServer::accept_loop() {
  while (!draining_.load(std::memory_order_acquire)) {
    std::optional<TcpStream> stream = listener_.accept();
    if (!stream) break;  // listener shut down (stop()) or fatal error
    std::lock_guard<std::mutex> lock(sessions_mu_);
    reap_finished_locked();
    if (draining_.load(std::memory_order_acquire)) break;
    if (sessions_.size() >= options_.max_sessions) {
      obs_.sessions_refused->add(1);
      ErrorPayload err{RpcErrorCode::TooManySessions,
                       "server at session capacity"};
      stream->send_all(
          encode_frame({MsgType::Error, 0, err.encode()}));
      continue;  // stream destructor closes the refused connection
    }
    auto session = std::make_unique<Session>();
    session->id = next_session_id_.fetch_add(1, std::memory_order_relaxed);
    session->stream = std::move(*stream);
    Session* raw = session.get();
    sessions_served_.fetch_add(1, std::memory_order_relaxed);
    session->thread = std::thread([this, raw] { session_loop(*raw); });
    sessions_.push_back(std::move(session));
  }
}

bool RpcServer::send_frame(Session& session, MsgType type,
                           std::uint64_t request_id,
                           const util::Bytes& payload, util::Bytes* cache) {
  util::Bytes bytes = encode_frame({type, request_id, payload});
  // The dedup cache is filled BEFORE the reply-fault decision: a reply
  // that never reached the wire must still be replayable, because the
  // request it answers was executed.
  if (cache != nullptr) *cache = bytes;
  if (options_.reply_faults != nullptr) {
    std::lock_guard<std::mutex> lock(reply_faults_mu_);
    if (options_.reply_faults->drop_message()) return false;
  }
  if (!session.stream.send_all(bytes)) return false;
  obs_.bytes_out->add(bytes.size());
  return true;
}

void RpcServer::send_error(Session& session, std::uint64_t request_id,
                           RpcErrorCode code, const std::string& message) {
  obs_.errors->add(1);
  obs_.journal->record({obs::EventKind::RpcRejected, obs_.requests->value(),
                        obs::kAllCores,
                        static_cast<std::uint32_t>(session.id),
                        static_cast<std::uint64_t>(code)});
  ErrorPayload err{code, message};
  send_frame(session, MsgType::Error, request_id, err.encode(), nullptr);
}

void RpcServer::session_loop(Session& session) {
  obs_.sessions_opened->add(1);
  obs_.sessions_active->add(1);
  obs_.journal->record({obs::EventKind::RpcSessionOpened,
                        obs_.requests->value(), obs::kAllCores,
                        static_cast<std::uint32_t>(session.id), 0});

  // Greeting + per-session auth challenge. The challenge binds the Auth
  // signature to this session (fresh nonce) and this device (name mixed
  // into the signed message).
  HelloPayload hello;
  hello.device_name = host_.device_name();
  {
    std::lock_guard<std::mutex> lock(challenge_mu_);
    hello.challenge = challenge_drbg_.bytes(32);
  }
  bool alive =
      session.stream.send_all(encode_frame({MsgType::Hello, 0, hello.encode()}));

  FrameDecoder decoder;
  std::array<std::uint8_t, 4096> buf;
  bool authed = false;
  std::uint64_t requests_served = 0;
  // Per-session request-id dedup: last response frame, replayed verbatim
  // when the operator retries the same request id after a lost reply.
  std::uint64_t last_id = 0;
  util::Bytes last_response;
  bool have_last = false;

  while (alive) {
    Frame frame;
    FrameDecoder::Status status = decoder.poll(frame);
    if (status == FrameDecoder::Status::NeedMore) {
      int n = session.stream.recv_some(buf);
      if (n <= 0) break;  // EOF, drain wake-up, timeout, or error
      obs_.bytes_in->add(static_cast<std::uint64_t>(n));
      decoder.feed(std::span<const std::uint8_t>(buf.data(),
                                                 static_cast<std::size_t>(n)));
      continue;
    }
    if (status == FrameDecoder::Status::Failed) {
      // Framing damage is unrecoverable on a stream: log, count, drop the
      // connection. The operator's retry logic reconnects.
      obs_.frames_rejected->add(1);
      obs_.journal->record(
          {obs::EventKind::RpcRejected, obs_.requests->value(),
           obs::kAllCores, static_cast<std::uint32_t>(session.id),
           100 + static_cast<std::uint64_t>(decoder.error())});
      break;
    }

    obs_.requests->add(1);
    ++requests_served;
    const auto t0 = std::chrono::steady_clock::now();

    if (have_last && frame.request_id == last_id) {
      // Idempotent retry: the operator never saw our reply and re-sent
      // the same request id. Replay the cached response; do NOT execute
      // the request again (a duplicate install would burn a sequence
      // number and pointlessly re-image the cores).
      obs_.dedup_replays->add(1);
      bool drop = false;
      if (options_.reply_faults != nullptr) {
        std::lock_guard<std::mutex> lock(reply_faults_mu_);
        drop = options_.reply_faults->drop_message();
      }
      if (!drop && session.stream.send_all(last_response)) {
        obs_.bytes_out->add(last_response.size());
      }
      continue;
    }

    try {
      switch (frame.type) {
        case MsgType::Auth: {
          AuthPayload auth = AuthPayload::decode(frame.payload);
          AuthResultPayload result;
          try {
            crypto::Certificate cert =
                crypto::Certificate::deserialize(auth.cert);
            crypto::CertStatus cert_status = crypto::verify_certificate(
                cert, root_, auth.now, crypto::CertRole::NetworkOperator);
            if (cert_status != crypto::CertStatus::Ok) {
              result.detail = std::string("certificate ") +
                              crypto::cert_status_name(cert_status);
            } else {
              util::Bytes message = hello.challenge;
              message.insert(message.end(), hello.device_name.begin(),
                             hello.device_name.end());
              if (!crypto::rsa_verify(cert.subject_key, message,
                                      auth.signature)) {
                result.detail = "bad challenge signature";
              } else {
                result.ok = true;
              }
            }
          } catch (const util::DecodeError&) {
            result.detail = "bad certificate encoding";
          }
          if (!result.ok) {
            obs_.auth_failures->add(1);
            obs_.journal->record(
                {obs::EventKind::RpcRejected, obs_.requests->value(),
                 obs::kAllCores, static_cast<std::uint32_t>(session.id),
                 static_cast<std::uint64_t>(RpcErrorCode::NotAuthorized)});
          }
          authed = result.ok;
          send_frame(session, MsgType::AuthResult, frame.request_id,
                     result.encode(), nullptr);
          // A failed auth closes the session: the peer holds no
          // credentials worth keeping a thread parked for.
          if (!result.ok) alive = false;
          break;
        }
        case MsgType::Install: {
          if (!authed) {
            send_error(session, frame.request_id,
                       RpcErrorCode::NotAuthorized,
                       "install requires an authenticated session");
            break;
          }
          InstallPayload install = InstallPayload::decode(frame.payload);
          if (install.purpose == InstallPurpose::Rotate) {
            obs_.rotations->add(1);
          } else {
            obs_.installs->add(1);
          }
          InstallResultPayload result;
          result.install_status = static_cast<std::uint8_t>(
              host_.install_bytes(install.package, install.now));
          last_id = frame.request_id;
          have_last = true;
          send_frame(session, MsgType::InstallResult, frame.request_id,
                     result.encode(), &last_response);
          break;
        }
        case MsgType::GetMetrics: {
          if (!authed) {
            send_error(session, frame.request_id,
                       RpcErrorCode::NotAuthorized,
                       "metrics require an authenticated session");
            break;
          }
          MetricsPayload metrics;
          metrics.json = host_.metrics_json();
          last_id = frame.request_id;
          have_last = true;
          send_frame(session, MsgType::Metrics, frame.request_id,
                     metrics.encode(), &last_response);
          break;
        }
        case MsgType::GetJournal: {
          if (!authed) {
            send_error(session, frame.request_id,
                       RpcErrorCode::NotAuthorized,
                       "journal requires an authenticated session");
            break;
          }
          GetJournalPayload get = GetJournalPayload::decode(frame.payload);
          JournalPayload journal = host_.journal_since(get.cursor);
          last_id = frame.request_id;
          have_last = true;
          send_frame(session, MsgType::Journal, frame.request_id,
                     journal.encode(), &last_response);
          break;
        }
        case MsgType::Ping: {
          PingPayload ping = PingPayload::decode(frame.payload);
          PongPayload pong;
          pong.nonce = ping.nonce;
          pong.packets = host_.packets();
          pong.sessions = static_cast<std::uint64_t>(
              std::max<std::int64_t>(0, obs_.sessions_active->value()));
          send_frame(session, MsgType::Pong, frame.request_id,
                     pong.encode(), nullptr);
          break;
        }
        case MsgType::Goodbye: {
          send_frame(session, MsgType::GoodbyeAck, frame.request_id, {},
                     nullptr);
          alive = false;
          break;
        }
        default:
          // Server-to-client types arriving at the server are a protocol
          // violation, answered (not crashed on) and survivable.
          send_error(session, frame.request_id, RpcErrorCode::BadRequest,
                     std::string("unexpected frame type ") +
                         msg_type_name(frame.type));
          break;
      }
    } catch (const util::DecodeError& e) {
      // CRC-valid frame with a malformed payload: schema mismatch or an
      // attacker probing the codec. Typed refusal, session survives.
      send_error(session, frame.request_id, RpcErrorCode::BadRequest,
                 e.what());
    }

    const auto t1 = std::chrono::steady_clock::now();
    obs_.request_ns->record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
  }

  decoder.finish();
  // Signal closure to the peer now -- the descriptor itself is released
  // later by the owner (reap/stop), so this cannot race a blocked read.
  session.stream.shutdown_both();
  obs_.sessions_active->add(-1);
  obs_.journal->record({obs::EventKind::RpcSessionClosed,
                        obs_.requests->value(), obs::kAllCores,
                        static_cast<std::uint32_t>(session.id),
                        requests_served});
  session.done.store(true, std::memory_order_release);
}

}  // namespace sdmmon::rpc
