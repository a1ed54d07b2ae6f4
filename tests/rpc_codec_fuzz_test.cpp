// Wire-codec fuzz suite (satellite of the RPC control-plane PR): every
// message type round-trips bit-exactly; mutated frames -- bit flips,
// truncations, length-field lies, oversized payloads, garbage -- always
// yield a *typed* FrameError or DecodeError, never a crash, hang, or
// over-read. CI runs this binary under ASan/UBSan, so "never over-reads"
// is machine-checked, not asserted by inspection.
#include <gtest/gtest.h>

#include "rpc/messages.hpp"
#include "rpc/wire.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace sdmmon::rpc {
namespace {

// Feed `bytes` to `decoder` in random-sized chunks and drain every frame.
// Returns the decoded frames; stops on decoder failure.
std::vector<Frame> drain_chunked(FrameDecoder& decoder,
                                 const util::Bytes& bytes, util::Rng& rng) {
  std::vector<Frame> frames;
  std::size_t offset = 0;
  while (offset < bytes.size() && !decoder.failed()) {
    const std::size_t chunk =
        std::min<std::size_t>(rng.range(1, 97), bytes.size() - offset);
    decoder.feed(std::span<const std::uint8_t>(bytes.data() + offset, chunk));
    offset += chunk;
    Frame frame;
    while (decoder.poll(frame) == FrameDecoder::Status::Ready) {
      frames.push_back(frame);
    }
  }
  return frames;
}

util::Bytes random_bytes(util::Rng& rng, std::size_t n) {
  util::Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u32());
  return out;
}

/// One representative, fully-populated payload per message type.
std::vector<Frame> sample_frames() {
  util::Rng rng(0xC0DEC);
  std::vector<Frame> frames;

  HelloPayload hello;
  hello.device_name = "np-fuzz-0";
  hello.challenge = random_bytes(rng, 32);
  frames.push_back({MsgType::Hello, 0, hello.encode()});

  AuthPayload auth;
  auth.cert = random_bytes(rng, 700);  // shaped like a serialized cert
  auth.signature = random_bytes(rng, 128);
  auth.now = 1'750'000'000;
  frames.push_back({MsgType::Auth, 1, auth.encode()});

  AuthResultPayload auth_result;
  auth_result.ok = false;
  auth_result.detail = "certificate expired";
  frames.push_back({MsgType::AuthResult, 1, auth_result.encode()});

  InstallPayload install;
  install.purpose = InstallPurpose::Rotate;
  install.now = 1'750'000'123;
  install.package = random_bytes(rng, 4096);
  frames.push_back({MsgType::Install, 2, install.encode()});

  InstallResultPayload install_result;
  install_result.install_status = 3;
  frames.push_back({MsgType::InstallResult, 2, install_result.encode()});

  frames.push_back({MsgType::GetMetrics, 3, {}});

  MetricsPayload metrics;
  metrics.json = R"({"counters":{"rpc.requests":17},"events":[]})";
  frames.push_back({MsgType::Metrics, 3, metrics.encode()});

  GetJournalPayload get_journal;
  get_journal.cursor = 12345;
  frames.push_back({MsgType::GetJournal, 4, get_journal.encode()});

  JournalPayload journal;
  journal.next_cursor = 12400;
  journal.dropped = 7;
  for (int i = 0; i < 20; ++i) {
    journal.events.push_back({obs::EventKind::AttackDetected,
                              static_cast<std::uint64_t>(1000 + i),
                              static_cast<std::uint32_t>(i % 4), 0,
                              static_cast<std::uint64_t>(i)});
  }
  frames.push_back({MsgType::Journal, 4, journal.encode()});

  PingPayload ping;
  ping.nonce = 0xDEADBEEF;
  frames.push_back({MsgType::Ping, 5, ping.encode()});

  PongPayload pong;
  pong.nonce = 0xDEADBEEF;
  pong.packets = 1u << 20;
  pong.sessions = 8;
  frames.push_back({MsgType::Pong, 5, pong.encode()});

  frames.push_back({MsgType::Goodbye, 6, {}});
  frames.push_back({MsgType::GoodbyeAck, 6, {}});

  ErrorPayload error;
  error.code = RpcErrorCode::NotAuthorized;
  error.message = "install requires an authenticated session";
  frames.push_back({MsgType::Error, 7, error.encode()});

  return frames;
}

bool frames_equal(const Frame& a, const Frame& b) {
  return a.type == b.type && a.request_id == b.request_id &&
         a.payload == b.payload;
}

TEST(RpcCodecFuzz, RoundTripEveryMessageType) {
  util::Rng rng(0x11);
  const std::vector<Frame> frames = sample_frames();
  ASSERT_EQ(frames.size(), static_cast<std::size_t>(kMaxMsgType));

  // One stream carrying all types, random chunking.
  util::Bytes stream;
  for (const Frame& f : frames) {
    util::Bytes encoded = encode_frame(f);
    stream.insert(stream.end(), encoded.begin(), encoded.end());
  }
  FrameDecoder decoder;
  std::vector<Frame> decoded = drain_chunked(decoder, stream, rng);
  decoder.finish();
  EXPECT_FALSE(decoder.failed());
  ASSERT_EQ(decoded.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_TRUE(frames_equal(decoded[i], frames[i])) << "frame " << i;
  }
}

TEST(RpcCodecFuzz, TypedPayloadsRoundTrip) {
  // Re-decode each sample payload through its typed codec and re-encode:
  // byte-identical both directions.
  for (const Frame& f : sample_frames()) {
    util::Bytes reencoded;
    switch (f.type) {
      case MsgType::Hello:
        reencoded = HelloPayload::decode(f.payload).encode();
        break;
      case MsgType::Auth:
        reencoded = AuthPayload::decode(f.payload).encode();
        break;
      case MsgType::AuthResult:
        reencoded = AuthResultPayload::decode(f.payload).encode();
        break;
      case MsgType::Install:
        reencoded = InstallPayload::decode(f.payload).encode();
        break;
      case MsgType::InstallResult:
        reencoded = InstallResultPayload::decode(f.payload).encode();
        break;
      case MsgType::GetJournal:
        reencoded = GetJournalPayload::decode(f.payload).encode();
        break;
      case MsgType::Journal:
        reencoded = JournalPayload::decode(f.payload).encode();
        break;
      case MsgType::Metrics:
        reencoded = MetricsPayload::decode(f.payload).encode();
        break;
      case MsgType::Ping:
        reencoded = PingPayload::decode(f.payload).encode();
        break;
      case MsgType::Pong:
        reencoded = PongPayload::decode(f.payload).encode();
        break;
      case MsgType::Error:
        reencoded = ErrorPayload::decode(f.payload).encode();
        break;
      case MsgType::GetMetrics:
      case MsgType::Goodbye:
      case MsgType::GoodbyeAck:
        continue;  // empty payloads
    }
    EXPECT_EQ(reencoded, f.payload)
        << "payload round-trip for " << msg_type_name(f.type);
  }
}

// The journal's EventKind values are wire codes: each is pinned, crosses
// the Journal payload as itself, and anything past the last one is a
// typed decode error.
TEST(RpcCodecFuzz, JournalEventKindCodesArePinned) {
  using obs::EventKind;
  const std::pair<EventKind, std::uint8_t> codes[] = {
      {EventKind::Install, 0},          {EventKind::Reinstall, 1},
      {EventKind::Quarantine, 2},       {EventKind::Release, 3},
      {EventKind::AttackDetected, 4},   {EventKind::Trap, 5},
      {EventKind::CampaignFailure, 6},  {EventKind::RolloutWave, 7},
      {EventKind::RolloutHalt, 8},      {EventKind::RolloutRollback, 9},
      {EventKind::RpcSessionOpened, 10}, {EventKind::RpcSessionClosed, 11},
      {EventKind::RpcRejected, 12},
  };
  EXPECT_EQ(static_cast<std::uint8_t>(obs::kLastEventKind), 12);
  // Layout: next_cursor u64, dropped u64, count u32, then per event the
  // kind byte first.
  constexpr std::size_t kFirstKindByte = 8 + 8 + 4;
  for (const auto& [kind, code] : codes) {
    SCOPED_TRACE(obs::event_kind_name(kind));
    EXPECT_EQ(static_cast<std::uint8_t>(kind), code);
    JournalPayload journal;
    journal.events.push_back({kind, 1, 2, 3, 4});
    util::Bytes bytes = journal.encode();
    ASSERT_GT(bytes.size(), kFirstKindByte);
    EXPECT_EQ(bytes[kFirstKindByte], code);
    const JournalPayload decoded = JournalPayload::decode(bytes);
    ASSERT_EQ(decoded.events.size(), 1u);
    EXPECT_EQ(decoded.events[0], journal.events[0]);
    if (kind == obs::kLastEventKind) {
      bytes[kFirstKindByte] = static_cast<std::uint8_t>(code + 1);
      EXPECT_THROW((void)JournalPayload::decode(bytes), util::DecodeError);
    }
  }
}

TEST(RpcCodecFuzz, HeaderFieldViolationsAreTyped) {
  const util::Bytes good = encode_frame({MsgType::Ping, 9, {}});

  struct Case {
    std::size_t offset;
    std::uint8_t value;
    FrameError expected;
  };
  const Case cases[] = {
      {0, 0x00, FrameError::BadMagic},     // magic byte
      {4, 0x7F, FrameError::BadVersion},   // version
      {6, 0x01, FrameError::BadReserved},  // reserved hi byte
      {7, 0xFF, FrameError::BadReserved},  // reserved lo byte
      {5, 0x00, FrameError::BadType},      // type 0
      {5, kMaxMsgType + 1, FrameError::BadType},
      {5, 0xFF, FrameError::BadType},
  };
  for (const Case& c : cases) {
    util::Bytes bad = good;
    bad[c.offset] = c.value;
    FrameDecoder decoder;
    decoder.feed(bad);
    Frame out;
    EXPECT_EQ(decoder.poll(out), FrameDecoder::Status::Failed);
    EXPECT_EQ(decoder.error(), c.expected)
        << "offset " << c.offset << " value " << int(c.value);
    // Latched: more bytes do not resurrect the stream.
    decoder.feed(good);
    EXPECT_EQ(decoder.poll(out), FrameDecoder::Status::Failed);
    EXPECT_EQ(decoder.error(), c.expected);
  }
}

TEST(RpcCodecFuzz, LengthFieldLieIsRejectedBeforeBuffering) {
  // A header claiming a 4 GiB payload must be rejected from the header
  // alone -- the decoder may not wait for (or allocate) the claimed size.
  util::Bytes frame = encode_frame({MsgType::Install, 1, util::Bytes(64)});
  frame[16] = 0xFF;  // payload_len := 0xFFFFFFxx
  frame[17] = 0xFF;
  frame[18] = 0xFF;
  FrameDecoder decoder;
  decoder.feed(std::span<const std::uint8_t>(frame.data(), kHeaderBytes));
  Frame out;
  EXPECT_EQ(decoder.poll(out), FrameDecoder::Status::Failed);
  EXPECT_EQ(decoder.error(), FrameError::Oversized);
  EXPECT_LE(decoder.buffered(), kHeaderBytes);

  // Sender side enforces the same cap.
  Frame oversized{MsgType::Install, 1, util::Bytes(kMaxPayloadBytes + 1)};
  EXPECT_THROW(encode_frame(oversized), std::length_error);
}

TEST(RpcCodecFuzz, CrcCatchesBitDamage) {
  util::Rng rng(0x22);
  const util::Bytes good =
      encode_frame({MsgType::Metrics, 3, random_bytes(rng, 256)});
  for (int i = 0; i < 200; ++i) {
    util::Bytes bad = good;
    // Flip one random bit anywhere in payload or CRC (header bits often
    // hit the field validators first, which is fine too).
    const std::size_t bit = rng.below(bad.size() * 8);
    bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    FrameDecoder decoder;
    decoder.feed(bad);
    Frame out;
    FrameDecoder::Status status = decoder.poll(out);
    if (status == FrameDecoder::Status::NeedMore) {
      // The flip grew the length field: the decoder legitimately waits
      // for the claimed bytes -- end-of-stream must then expose it.
      decoder.finish();
      status = decoder.poll(out);
    }
    EXPECT_EQ(status, FrameDecoder::Status::Failed) << "bit " << bit;
  }
}

TEST(RpcCodecFuzz, TruncatedStreamIsTyped) {
  const util::Bytes good = encode_frame({MsgType::Goodbye, 4, {}});
  for (std::size_t keep = 1; keep < good.size(); ++keep) {
    FrameDecoder decoder;
    decoder.feed(std::span<const std::uint8_t>(good.data(), keep));
    Frame out;
    EXPECT_EQ(decoder.poll(out), FrameDecoder::Status::NeedMore);
    decoder.finish();
    EXPECT_EQ(decoder.poll(out), FrameDecoder::Status::Failed);
    EXPECT_EQ(decoder.error(), FrameError::Truncated) << "keep " << keep;
  }
}

// The bulk fuzz loop: >= 6000 mutated frames through the frame decoder.
// Every outcome must be one of (a) clean decode of an unmutated survivor,
// (b) a typed FrameError; and the decoder must never buffer unboundedly.
TEST(RpcCodecFuzz, MutatedFramesNeverCrashTheDecoder) {
  util::FaultProfile profile;
  profile.seed = 0xF0220;
  util::FaultInjector faults(profile);
  util::Rng& rng = faults.rng();
  const std::vector<Frame> pool = sample_frames();

  int typed_failures = 0;
  int clean_decodes = 0;
  constexpr int kIterations = 6000;
  for (int i = 0; i < kIterations; ++i) {
    util::Bytes bytes = encode_frame(pool[rng.below(pool.size())]);
    // Mutation menu: bit flips, truncation, length-field rewrite (with
    // the CRC left stale or patched), random suffix garbage, and an
    // unmutated control so the clean-decode path is provably exercised.
    switch (rng.below(6)) {
      case 0:
        faults.flip_bits(bytes, static_cast<std::uint32_t>(rng.range(1, 8)));
        break;
      case 1:
        faults.truncate(bytes);
        break;
      case 2: {  // length-field lie, CRC left stale
        for (int b = 0; b < 4; ++b) {
          bytes[16 + b] = static_cast<std::uint8_t>(rng.next_u32());
        }
        break;
      }
      case 3: {  // length-field lie with a *recomputed* CRC: the frame is
                 // internally consistent, so only the cap/size checks can
                 // reject it
        for (int b = 0; b < 4; ++b) {
          bytes[16 + b] = static_cast<std::uint8_t>(rng.next_u32());
        }
        const std::uint32_t crc = crc32(std::span<const std::uint8_t>(
            bytes.data(), bytes.size() - kTrailerBytes));
        util::store_be32(crc, bytes.data() + bytes.size() - kTrailerBytes);
        break;
      }
      case 4: {  // append garbage after the valid frame
        util::Bytes junk = random_bytes(rng, rng.range(1, 64));
        bytes.insert(bytes.end(), junk.begin(), junk.end());
        break;
      }
      case 5:  // control: unmutated
        break;
    }

    FrameDecoder decoder;
    std::vector<Frame> decoded = drain_chunked(decoder, bytes, rng);
    decoder.finish();
    Frame out;
    decoder.poll(out);  // surface a Truncated latch, if any
    if (decoder.failed()) {
      ++typed_failures;
      EXPECT_NE(frame_error_name(decoder.error()), std::string("?"));
    } else {
      ++clean_decodes;
      ASSERT_LE(decoded.size(), 2u);
      for (const Frame& f : decoded) {
        EXPECT_LE(f.payload.size(), kMaxPayloadBytes);
      }
    }
    EXPECT_LE(decoder.buffered(),
              kHeaderBytes + kMaxPayloadBytes + kTrailerBytes);
  }
  // The menu is overwhelmingly destructive; both buckets must be hit.
  EXPECT_GT(typed_failures, kIterations / 2);
  EXPECT_GT(clean_decodes, 0);
}

// >= 5000 mutated payloads through every typed decoder: the only allowed
// outcomes are a successful decode or util::DecodeError.
TEST(RpcCodecFuzz, MutatedPayloadsOnlyThrowDecodeError) {
  util::FaultProfile profile;
  profile.seed = 0xF0221;
  util::FaultInjector faults(profile);
  util::Rng& rng = faults.rng();
  const std::vector<Frame> pool = sample_frames();

  auto decode_typed = [](MsgType type, const util::Bytes& payload) {
    switch (type) {
      case MsgType::Hello: (void)HelloPayload::decode(payload); break;
      case MsgType::Auth: (void)AuthPayload::decode(payload); break;
      case MsgType::AuthResult:
        (void)AuthResultPayload::decode(payload);
        break;
      case MsgType::Install: (void)InstallPayload::decode(payload); break;
      case MsgType::InstallResult:
        (void)InstallResultPayload::decode(payload);
        break;
      case MsgType::GetJournal:
        (void)GetJournalPayload::decode(payload);
        break;
      case MsgType::Journal: (void)JournalPayload::decode(payload); break;
      case MsgType::Metrics: (void)MetricsPayload::decode(payload); break;
      case MsgType::Ping: (void)PingPayload::decode(payload); break;
      case MsgType::Pong: (void)PongPayload::decode(payload); break;
      case MsgType::Error: (void)ErrorPayload::decode(payload); break;
      case MsgType::GetMetrics:
      case MsgType::Goodbye:
      case MsgType::GoodbyeAck:
        break;
    }
  };

  int decode_errors = 0;
  constexpr int kIterations = 5000;
  for (int i = 0; i < kIterations; ++i) {
    const Frame& sample = pool[rng.below(pool.size())];
    util::Bytes payload;
    switch (rng.below(4)) {
      case 0:
        payload = sample.payload;
        faults.flip_bits(payload,
                         static_cast<std::uint32_t>(rng.range(1, 16)));
        break;
      case 1:
        payload = sample.payload;
        faults.truncate(payload);
        break;
      case 2:  // pure garbage
        payload = random_bytes(rng, rng.below(512));
        break;
      case 3: {  // garbage appended: trailing bytes must be rejected
        payload = sample.payload;
        util::Bytes junk = random_bytes(rng, rng.range(1, 32));
        payload.insert(payload.end(), junk.begin(), junk.end());
        break;
      }
    }
    try {
      decode_typed(sample.type, payload);
    } catch (const util::DecodeError&) {
      ++decode_errors;  // the one permitted failure mode
    }
    // Any other exception type escapes and fails the test; memory errors
    // are caught by the sanitizer jobs.
  }
  EXPECT_GT(decode_errors, kIterations / 2);
}

TEST(RpcCodecFuzz, ByteAtATimeDeliveryDecodesEverything) {
  const std::vector<Frame> frames = sample_frames();
  util::Bytes stream;
  for (const Frame& f : frames) {
    util::Bytes encoded = encode_frame(f);
    stream.insert(stream.end(), encoded.begin(), encoded.end());
  }
  FrameDecoder decoder;
  std::vector<Frame> decoded;
  Frame out;
  for (std::uint8_t byte : stream) {
    decoder.feed(std::span<const std::uint8_t>(&byte, 1));
    while (decoder.poll(out) == FrameDecoder::Status::Ready) {
      decoded.push_back(out);
    }
  }
  ASSERT_FALSE(decoder.failed());
  ASSERT_EQ(decoded.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_TRUE(frames_equal(decoded[i], frames[i]));
  }
  EXPECT_EQ(decoder.frames_decoded(), frames.size());
}

}  // namespace
}  // namespace sdmmon::rpc
