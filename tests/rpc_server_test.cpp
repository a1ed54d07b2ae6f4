// Concurrency torture + behavioral suite for the RPC control-plane
// server (labeled `parallel` so the TSan CI job runs it): N operator
// threads race installs, rotations, metric pulls, journal polls, and
// pings against one device while a load generator keeps the MPSoC under
// packet traffic; plus session isolation, auth gating, per-session
// request-id dedup, malformed-frame teardown, the session cap, and
// graceful drain.
#include "rpc/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "rpc/client.hpp"
#include "sdmmon/workload.hpp"
#include "support/rpc_world.hpp"

namespace sdmmon::rpc {
namespace {

using testsupport::kTestNow;
using testsupport::RpcWorld;

std::uint64_t counter_value(obs::Registry& registry, const char* name) {
  return registry.counter(name).value();
}

TEST(RpcServer, StartServeStopIsClean) {
  RpcWorld world("basic");
  ASSERT_TRUE(world.server.start());
  ASSERT_NE(world.server.port(), 0);

  auto client = world.connect_authed();
  ASSERT_TRUE(client.has_value());
  EXPECT_EQ(client->device_name(), world.device->name());

  auto status = client->install(InstallPurpose::Deploy,
                                world.package_bytes(), kTestNow);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(static_cast<protocol::InstallStatus>(*status),
            protocol::InstallStatus::Ok);

  auto metrics = client->metrics();
  ASSERT_TRUE(metrics.has_value());
  EXPECT_NE(metrics->find("rpc.requests"), std::string::npos);

  EXPECT_TRUE(client->goodbye());
  world.server.stop();
  EXPECT_FALSE(world.server.running());
  // Idempotent.
  world.server.stop();
}

TEST(RpcServer, UnauthenticatedVerbsAreGated) {
  RpcWorld world("gate");
  ASSERT_TRUE(world.server.start());

  auto client = world.connect();
  ASSERT_TRUE(client.has_value());

  // Ping is allowed pre-auth; install and metrics are not.
  EXPECT_TRUE(client->ping(1).has_value());
  EXPECT_FALSE(
      client->install(InstallPurpose::Deploy, world.package_bytes(), kTestNow)
          .has_value());
  EXPECT_NE(client->last_error().find("not-authorized"), std::string::npos)
      << client->last_error();
  EXPECT_FALSE(client->metrics().has_value());
  // The session survives refusals: ping still answers.
  EXPECT_TRUE(client->ping(2).has_value());

  EXPECT_EQ(counter_value(world.registry, obs::names::kRpcErrors), 2u);
}

TEST(RpcServer, BadCredentialsAreRejectedAndSessionClosed) {
  RpcWorld world("badauth");
  ASSERT_TRUE(world.server.start());

  // A second operator with a certificate from a DIFFERENT manufacturer:
  // the chain does not reach this device's root.
  protocol::Manufacturer other_mfg("other-m", testsupport::kTestKeyBits,
                                   crypto::Drbg("other-mfg"));
  protocol::NetworkOperator other_op("other-o", testsupport::kTestKeyBits,
                                     crypto::Drbg("other-op"));
  other_op.accept_certificate(other_mfg.certify_operator(
      other_op.name(), other_op.public_key(), 0, kTestNow + 1000));

  {
    auto client = world.connect();
    ASSERT_TRUE(client.has_value());
    std::string detail;
    EXPECT_FALSE(client->authenticate(
        other_op.certificate().serialize(),
        other_op.sign(client->auth_message()), kTestNow, &detail));
    EXPECT_NE(detail.find("certificate"), std::string::npos) << detail;
  }
  {
    // Right certificate, wrong signer: the challenge signature must come
    // from the certified key.
    auto client = world.connect();
    ASSERT_TRUE(client.has_value());
    std::string detail;
    EXPECT_FALSE(client->authenticate(
        world.op.certificate().serialize(),
        other_op.sign(client->auth_message()), kTestNow, &detail));
    EXPECT_NE(detail.find("signature"), std::string::npos) << detail;
  }
  {
    // Expired operator clock: validity is checked at the presented time.
    auto client = world.connect();
    ASSERT_TRUE(client.has_value());
    EXPECT_FALSE(client->authenticate(world.op.certificate().serialize(),
                                      world.op.sign(client->auth_message()),
                                      kTestNow + 2'000'000));
  }
  EXPECT_EQ(counter_value(world.registry, obs::names::kRpcAuthFailures), 3u);
}

TEST(RpcServer, RequestIdDedupReplaysInsteadOfReinstalling) {
  RpcWorld world("dedup");
  ASSERT_TRUE(world.server.start());

  auto client = world.connect_authed();
  ASSERT_TRUE(client.has_value());
  const std::size_t audit_before = world.device->audit_log().size();

  // Hand-send the same Install frame twice (one request id): the second
  // must be answered from the dedup cache, not re-executed -- the audit
  // log grows by exactly ONE attempt and the replies are byte-identical.
  util::Bytes package = world.package_bytes();
  InstallPayload payload;
  payload.purpose = InstallPurpose::Deploy;
  payload.now = kTestNow;
  payload.package = package;
  const std::uint64_t id = 777;

  // Borrow the client's socket via install()? No -- drive the dedup path
  // through install_with_retry semantics instead: a raw re-send.
  // RpcClient does not expose raw sends, so open a raw stream.
  auto stream = TcpStream::connect(world.server.port());
  ASSERT_TRUE(stream.has_value());
  FrameDecoder decoder;
  std::array<std::uint8_t, 4096> buf;
  auto read_frame = [&](Frame& out) {
    while (true) {
      if (decoder.poll(out) == FrameDecoder::Status::Ready) return true;
      if (decoder.failed()) return false;
      int n = stream->recv_some(buf);
      if (n <= 0) return false;
      decoder.feed(std::span<const std::uint8_t>(
          buf.data(), static_cast<std::size_t>(n)));
    }
  };
  Frame frame;
  ASSERT_TRUE(read_frame(frame));  // Hello
  ASSERT_EQ(frame.type, MsgType::Hello);
  HelloPayload hello = HelloPayload::decode(frame.payload);
  util::Bytes to_sign = hello.challenge;
  to_sign.insert(to_sign.end(), hello.device_name.begin(),
                 hello.device_name.end());
  AuthPayload auth;
  auth.cert = world.op.certificate().serialize();
  auth.signature = world.op.sign(to_sign);
  auth.now = kTestNow;
  ASSERT_TRUE(
      stream->send_all(encode_frame({MsgType::Auth, 1, auth.encode()})));
  ASSERT_TRUE(read_frame(frame));
  ASSERT_EQ(frame.type, MsgType::AuthResult);
  ASSERT_TRUE(AuthResultPayload::decode(frame.payload).ok);

  const util::Bytes install_frame =
      encode_frame({MsgType::Install, id, payload.encode()});
  ASSERT_TRUE(stream->send_all(install_frame));
  Frame first;
  ASSERT_TRUE(read_frame(first));
  ASSERT_EQ(first.type, MsgType::InstallResult);
  EXPECT_EQ(InstallResultPayload::decode(first.payload).install_status,
            static_cast<std::uint8_t>(protocol::InstallStatus::Ok));

  ASSERT_TRUE(stream->send_all(install_frame));  // duplicate, same id
  Frame second;
  ASSERT_TRUE(read_frame(second));
  EXPECT_EQ(second.type, first.type);
  EXPECT_EQ(second.request_id, first.request_id);
  EXPECT_EQ(second.payload, first.payload);

  EXPECT_EQ(world.device->audit_log().size(), audit_before + 1)
      << "duplicate request id must NOT re-execute the install";
  EXPECT_EQ(counter_value(world.registry, obs::names::kRpcDedupReplays), 1u);
}

TEST(RpcServer, LostReplyIsHealedByIdempotentRetry) {
  // Server-side reply-fault injection: the request executes but the
  // response never hits the wire. install_with_retry re-sends the SAME
  // request id until a (replayed) verdict arrives -- exactly one install
  // on the device no matter how many attempts the client needed.
  util::FaultProfile profile;
  profile.seed = 0x1D;
  profile.drop_rate = 0.5;
  util::FaultInjector reply_faults(profile);
  ServerOptions options;
  options.reply_faults = &reply_faults;
  RpcWorld world("replyloss", 2, options);
  ASSERT_TRUE(world.server.start());

  auto client = world.connect_authed();
  ASSERT_TRUE(client.has_value());
  const std::size_t audit_before = world.device->audit_log().size();

  auto result = client->install_with_retry(
      InstallPurpose::Deploy, world.package_bytes(), kTestNow,
      /*max_attempts=*/12, /*attempt_timeout_ms=*/200);
  ASSERT_TRUE(result.delivered)
      << "12 tries at drop_rate 0.5 must surface a verdict";
  EXPECT_EQ(static_cast<protocol::InstallStatus>(result.install_status),
            protocol::InstallStatus::Ok);
  EXPECT_EQ(world.device->audit_log().size(), audit_before + 1)
      << "retries with one request id must install exactly once";
  if (result.attempts > 1) {
    EXPECT_GE(counter_value(world.registry, obs::names::kRpcDedupReplays),
              result.attempts - 1);
  }
}

TEST(RpcServer, MalformedFramesTearDownOnlyThatSession) {
  RpcWorld world("malformed");
  ASSERT_TRUE(world.server.start());

  auto good = world.connect_authed();
  ASSERT_TRUE(good.has_value());

  // A peer that speaks garbage: its session dies with a typed rejection;
  // the healthy session is untouched.
  auto bad = TcpStream::connect(world.server.port());
  ASSERT_TRUE(bad.has_value());
  util::Bytes junk(64, 0xAB);
  ASSERT_TRUE(bad->send_all(junk));
  std::array<std::uint8_t, 256> buf;
  // Drain until EOF: the server tears the connection down.
  while (true) {
    int n = bad->recv_some(buf);
    if (n <= 0) break;
  }

  EXPECT_TRUE(good->ping(3).has_value());
  auto status = good->install(InstallPurpose::Deploy, world.package_bytes(),
                              kTestNow);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(static_cast<protocol::InstallStatus>(*status),
            protocol::InstallStatus::Ok);
  EXPECT_GE(counter_value(world.registry, obs::names::kRpcFramesRejected),
            1u);
}

TEST(RpcServer, SessionCapRefusesThenRecovers) {
  ServerOptions options;
  options.max_sessions = 2;
  RpcWorld world("cap", 2, options);
  ASSERT_TRUE(world.server.start());

  auto a = world.connect();
  auto b = world.connect();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());

  // Third connection: refused with a TooManySessions error frame, which
  // RpcClient::connect surfaces as nullopt.
  auto c = world.connect();
  EXPECT_FALSE(c.has_value());
  EXPECT_GE(counter_value(world.registry, obs::names::kRpcSessionsRefused),
            1u);

  // Free a slot; finished sessions are reaped on the next accept, so a
  // couple of attempts may be needed.
  ASSERT_TRUE(a->goodbye());
  std::optional<RpcClient> d;
  for (int attempt = 0; attempt < 50 && !d; ++attempt) {
    d = world.connect();
    if (!d) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(d.has_value()) << "slot must reopen after goodbye";
}

TEST(RpcServer, GracefulDrainWakesIdleSessionsAndJoins) {
  RpcWorld world("drain");
  ASSERT_TRUE(world.server.start());

  std::vector<RpcClient> clients;
  for (int i = 0; i < 4; ++i) {
    auto client = world.connect_authed();
    ASSERT_TRUE(client.has_value());
    clients.push_back(std::move(*client));
  }
  EXPECT_EQ(world.registry.gauge(obs::names::kRpcSessionsActive).value(), 4);

  // A worker hammering metrics while the server drains: every response it
  // does get must be well-formed; eventually the session reports closed.
  std::atomic<int> successes{0};
  std::thread worker([&] {
    while (clients[0].connected()) {
      auto metrics = clients[0].metrics();
      if (!metrics) break;
      ++successes;
    }
  });
  while (successes.load() < 3) std::this_thread::yield();
  world.server.stop();  // blocks until every session thread is joined
  worker.join();
  EXPECT_GE(successes.load(), 3);
  EXPECT_EQ(world.registry.gauge(obs::names::kRpcSessionsActive).value(), 0);
  EXPECT_EQ(world.server.sessions_served(), 4u);

  // New connections are refused after stop.
  EXPECT_FALSE(world.connect().has_value());
}

// The headline torture: 8 operator threads race installs, rotations,
// metric pulls, journal polls, and pings against one device while a
// pump thread keeps packet load flowing. TSan checks the locking story;
// the assertions check request/response integrity per session.
TEST(RpcServer, ConcurrentOperatorsUnderPacketLoad) {
  constexpr std::size_t kOperators = 8;
  constexpr int kOpsPerOperator = 10;

  ServerOptions options;
  options.max_sessions = kOperators + 2;
  RpcWorld world("torture", 2, options);
  ASSERT_TRUE(world.server.start());

  // Seed an initial app so pumped packets execute monitored code.
  ASSERT_EQ(world.host.install_bytes(world.package_bytes(), kTestNow),
            protocol::InstallStatus::Ok);

  // Packages are minted on the main thread (the operator object is not
  // thread-safe); workers only move bytes. Two per worker: one deploy,
  // one rotation.
  std::vector<std::vector<util::Bytes>> packages(kOperators);
  for (auto& per_worker : packages) {
    per_worker.push_back(world.package_bytes());
    per_worker.push_back(world.package_bytes());
  }

  std::atomic<bool> stop_pump{false};
  std::thread pump([&] {
    protocol::MixedWorkloadConfig config;
    config.seed = 0x70AD;
    protocol::MixedWorkload workload(config);
    std::uint64_t index = 0;
    while (!stop_pump.load(std::memory_order_acquire)) {
      auto batch = workload.generate(index, 64);
      world.host.pump(batch);
      index += batch.size();
    }
  });

  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> installs_delivered{0};
  std::atomic<std::uint64_t> installs_ok{0};
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kOperators; ++w) {
    workers.emplace_back([&, w] {
      auto client = world.connect_authed();
      if (!client) {
        ++failures;
        return;
      }
      for (int op_i = 0; op_i < kOpsPerOperator; ++op_i) {
        switch ((op_i + static_cast<int>(w)) % 5) {
          case 0:
          case 1: {
            // Concurrent installs race for the device's sequence check:
            // a package sealed earlier can lose to one sealed later
            // (ReplayRejected). Both verdicts are correct; silence or a
            // malformed reply is not.
            auto status = client->install(
                op_i % 2 == 0 ? InstallPurpose::Deploy
                              : InstallPurpose::Rotate,
                packages[w][op_i % 2], kTestNow);
            if (!status) {
              ++failures;
              break;
            }
            ++installs_delivered;
            auto verdict = static_cast<protocol::InstallStatus>(*status);
            if (verdict == protocol::InstallStatus::Ok) ++installs_ok;
            if (verdict != protocol::InstallStatus::Ok &&
                verdict != protocol::InstallStatus::ReplayRejected) {
              ++failures;
            }
            break;
          }
          case 2: {
            auto metrics = client->metrics();
            if (!metrics ||
                metrics->find("rpc.requests") == std::string::npos) {
              ++failures;
            }
            break;
          }
          case 3: {
            auto journal = client->journal(0);
            if (!journal) ++failures;
            break;
          }
          case 4: {
            // The echoed nonce is the request/response-matching check:
            // a cross-wired response would carry another nonce.
            const std::uint64_t nonce = (w << 16) | op_i;
            auto pong = client->ping(nonce);
            if (!pong || pong->nonce != nonce) ++failures;
            break;
          }
        }
      }
      if (!client->goodbye()) ++failures;
    });
  }
  for (auto& t : workers) t.join();
  stop_pump.store(true, std::memory_order_release);
  pump.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(installs_ok.load(), 1u);
  EXPECT_GE(world.server.sessions_served(), kOperators);
  // Every delivered install left an audit entry: the +1 is the seed
  // install above.
  EXPECT_EQ(world.device->audit_log().size(), installs_delivered.load() + 1);
  EXPECT_GE(world.host.packets(), 64u);

  world.server.stop();
  EXPECT_EQ(world.registry.gauge(obs::names::kRpcSessionsActive).value(), 0);
}

TEST(RpcServer, JournalStreamingSeesEventsInOrder) {
  RpcWorld world("journal");
  ASSERT_TRUE(world.server.start());

  auto client = world.connect_authed();
  ASSERT_TRUE(client.has_value());

  // Generate journal traffic: a few installs (Install events from the
  // engine) plus the rpc session events themselves.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client
                    ->install(InstallPurpose::Deploy, world.package_bytes(),
                              kTestNow)
                    .has_value());
  }

  std::uint64_t cursor = 0;
  std::vector<obs::Event> streamed;
  for (int poll = 0; poll < 10; ++poll) {
    auto page = client->journal(cursor);
    ASSERT_TRUE(page.has_value());
    EXPECT_EQ(page->dropped, 0u);
    ASSERT_GE(page->next_cursor, cursor);
    streamed.insert(streamed.end(), page->events.begin(),
                    page->events.end());
    if (page->next_cursor == cursor) break;
    cursor = page->next_cursor;
  }
  // The stream must contain the session-open and the three installs.
  std::size_t installs = 0, opens = 0;
  for (const obs::Event& e : streamed) {
    if (e.kind == obs::EventKind::Install) ++installs;
    if (e.kind == obs::EventKind::RpcSessionOpened) ++opens;
  }
#if SDMMON_OBS_ENABLED
  // Engine Install events are instrumentation; SDMMON_OBS=OFF compiles
  // them out. The RPC session events are journaled either way.
  EXPECT_GE(installs, 3u);
#else
  (void)installs;
#endif
  EXPECT_GE(opens, 1u);
  // And match the registry's own view of history.
  EXPECT_EQ(cursor, world.registry.journal().recorded());
}

}  // namespace
}  // namespace sdmmon::rpc
