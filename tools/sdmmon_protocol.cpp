// sdmmon-protocol: drive the three-entity install protocol with real key
// and package files, one step per invocation -- the paper's Figure 3 as a
// command-line workflow.
//
//   sdmmon-protocol keygen  --seed S --bits 2048 --priv m.key --pub m.pub
//   sdmmon-protocol certify --issuer-priv m.key --issuer-name acme
//       --subject-pub op.pub --subject-name noc --not-after 2000000000
//       --out op.cert
//   sdmmon-protocol package --operator-priv op.key --cert op.cert
//       --device-pub dev.pub --image prog.img --seq 1 --seed X --out pkg.bin
//   sdmmon-protocol install --device-priv dev.key --root-pub m.pub
//       --pkg pkg.bin [--now T]
#include <cstdio>
#include <memory>

#include "crypto/cert.hpp"
#include "monitor/analysis.hpp"
#include "sdmmon/package.hpp"
#include "tool_util.hpp"

namespace {

using namespace sdmmon;
using sdmmon::tools::Args;

int cmd_keygen(const Args& args) {
  crypto::Drbg drbg(args.get("seed"));
  const std::size_t bits = std::stoul(args.get_or("bits", "2048"));
  std::printf("generating RSA-%zu keypair...\n", bits);
  crypto::RsaKeyPair kp = crypto::rsa_generate(bits, drbg);
  tools::write_file(args.get("priv"), kp.priv.serialize());
  tools::write_file(args.get("pub"), kp.pub.serialize());
  std::printf("fingerprint %s\n",
              util::to_hex(kp.pub.fingerprint()).substr(0, 16).c_str());
  return 0;
}

int cmd_certify(const Args& args) {
  auto issuer_priv =
      crypto::RsaPrivateKey::deserialize(tools::read_file(args.get("issuer-priv")));
  auto subject_pub =
      crypto::RsaPublicKey::deserialize(tools::read_file(args.get("subject-pub")));
  const std::uint64_t not_before =
      std::stoull(args.get_or("not-before", "0"));
  const std::uint64_t not_after =
      std::stoull(args.get_or("not-after", "4000000000"));
  crypto::Certificate cert = crypto::issue_certificate(
      args.get("subject-name"), crypto::CertRole::NetworkOperator,
      std::stoull(args.get_or("serial", "1")), not_before, not_after,
      subject_pub, args.get("issuer-name"), issuer_priv);
  tools::write_file(args.get("out"), cert.serialize());
  std::printf("certified '%s' by '%s' (serial %llu)\n",
              cert.subject.c_str(), cert.issuer.c_str(),
              (unsigned long long)cert.serial);
  return 0;
}

int cmd_package(const Args& args) {
  auto op_priv = crypto::RsaPrivateKey::deserialize(
      tools::read_file(args.get("operator-priv")));
  auto cert =
      crypto::Certificate::deserialize(tools::read_file(args.get("cert")));
  auto device_pub = crypto::RsaPublicKey::deserialize(
      tools::read_file(args.get("device-pub")));
  isa::Program binary =
      isa::Program::deserialize(tools::read_file(args.get("image")));

  crypto::Drbg drbg(args.get("seed"));
  protocol::PackagePayload payload;
  payload.binary = binary;
  payload.hash_param = drbg.next_u32();
  monitor::MerkleTreeHash hash(payload.hash_param);
  payload.graph = monitor::extract_graph(binary, hash);
  payload.sequence = std::stoull(args.get_or("seq", "1"));
  payload.pad_bytes = static_cast<std::uint32_t>(
      std::stoul(args.get_or("pad", "0")));

  protocol::WirePackage wire =
      protocol::seal_package(payload, op_priv, cert, device_pub, drbg);
  util::Bytes bytes = wire.serialize();
  tools::write_file(args.get("out"), bytes);
  std::printf("sealed '%s' for device: %zu bytes, seq %llu, graph %zu bits\n",
              binary.name.c_str(), bytes.size(),
              (unsigned long long)payload.sequence,
              payload.graph.size_bits());
  return 0;
}

int cmd_install(const Args& args) {
  auto device_priv = crypto::RsaPrivateKey::deserialize(
      tools::read_file(args.get("device-priv")));
  auto root_pub =
      crypto::RsaPublicKey::deserialize(tools::read_file(args.get("root-pub")));
  auto wire =
      protocol::WirePackage::deserialize(tools::read_file(args.get("pkg")));
  const std::uint64_t now = std::stoull(args.get_or("now", "1700000000"));

  crypto::CertStatus cert_status =
      crypto::verify_certificate(wire.operator_cert, root_pub, now,
                                 crypto::CertRole::NetworkOperator);
  if (cert_status != crypto::CertStatus::Ok) {
    std::printf("REJECTED: certificate %s\n",
                crypto::cert_status_name(cert_status));
    return 1;
  }
  protocol::OpenResult opened = protocol::open_package(
      wire, device_priv, wire.operator_cert.subject_key);
  if (opened.status != protocol::OpenStatus::Ok) {
    std::printf("REJECTED: package %s\n",
                protocol::open_status_name(opened.status));
    return 1;
  }
  std::printf("ACCEPTED: '%s' seq %llu, %zu instructions, graph %zu bits,"
              " hash param 0x%08x\n",
              opened.payload->binary.name.c_str(),
              (unsigned long long)opened.payload->sequence,
              opened.payload->binary.text.size(),
              opened.payload->graph.size_bits(), opened.payload->hash_param);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Args args = Args::parse(argc, argv);
    if (args.positional.empty()) {
      std::fprintf(stderr,
                   "usage: sdmmon-protocol <keygen|certify|package|install>"
                   " [flags]\n");
      return 2;
    }
    const std::string& cmd = args.positional[0];
    if (cmd == "keygen") return cmd_keygen(args);
    if (cmd == "certify") return cmd_certify(args);
    if (cmd == "package") return cmd_package(args);
    if (cmd == "install") return cmd_install(args);
    std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sdmmon-protocol: %s\n", e.what());
    return 1;
  }
}
