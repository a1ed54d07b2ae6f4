#include "sdmmon/entities.hpp"

#include "monitor/analysis.hpp"
#include "util/log.hpp"

namespace sdmmon::protocol {

Manufacturer::Manufacturer(const std::string& name, std::size_t key_bits,
                           crypto::Drbg drbg)
    : name_(name),
      key_bits_(key_bits),
      drbg_(std::move(drbg)),
      keys_(crypto::rsa_generate(key_bits, drbg_)) {}

crypto::Certificate Manufacturer::certify_operator(
    const std::string& operator_name, const crypto::RsaPublicKey& operator_key,
    std::uint64_t valid_from, std::uint64_t valid_to) {
  return crypto::issue_certificate(operator_name,
                                   crypto::CertRole::NetworkOperator,
                                   next_serial_++, valid_from, valid_to,
                                   operator_key, name_, keys_.priv);
}

std::unique_ptr<NetworkProcessorDevice> Manufacturer::provision_device(
    const std::string& device_name, std::size_t num_cores,
    np::RecoveryConfig recovery) {
  crypto::Drbg device_drbg = drbg_.fork("device/" + device_name);
  crypto::RsaKeyPair device_keys = crypto::rsa_generate(key_bits_, device_drbg);
  return std::make_unique<NetworkProcessorDevice>(device_name, device_keys,
                                                  keys_.pub, num_cores,
                                                  recovery);
}

NetworkOperator::NetworkOperator(const std::string& name, std::size_t key_bits,
                                 crypto::Drbg drbg)
    : name_(name),
      drbg_(std::move(drbg)),
      keys_(crypto::rsa_generate(key_bits, drbg_)) {}

WirePackage NetworkOperator::program_device(
    const isa::Program& binary, const crypto::RsaPublicKey& device_pub,
    std::uint32_t pad_bytes) {
  PackagePayload payload;
  payload.binary = binary;
  payload.hash_param = drbg_.next_u32();  // fresh per package (SR2)
  last_hash_param_ = payload.hash_param;
  monitor::MerkleTreeHash hash(payload.hash_param);
  payload.graph = monitor::extract_graph(binary, hash);
  payload.sequence = ++sequence_;
  payload.pad_bytes = pad_bytes;
  return seal_package(payload, keys_.priv, cert_, device_pub, drbg_);
}

util::Bytes NetworkOperator::sign(
    std::span<const std::uint8_t> message) const {
  return crypto::rsa_sign(keys_.priv, message);
}

const char* install_status_name(InstallStatus status) {
  switch (status) {
    case InstallStatus::Ok: return "ok";
    case InstallStatus::BadCertificate: return "bad-certificate";
    case InstallStatus::WrongDevice: return "wrong-device";
    case InstallStatus::CorruptPackage: return "corrupt-package";
    case InstallStatus::BadSignature: return "bad-signature";
    case InstallStatus::ReplayRejected: return "replay-rejected";
    case InstallStatus::GraphMismatch: return "graph-mismatch";
    case InstallStatus::StageFailed: return "stage-failed";
  }
  return "?";
}

bool install_status_permanent(InstallStatus status) {
  switch (status) {
    case InstallStatus::BadCertificate:
    case InstallStatus::WrongDevice:
    case InstallStatus::BadSignature:
    case InstallStatus::GraphMismatch:
      return true;
    case InstallStatus::Ok:
    case InstallStatus::CorruptPackage:  // usually in-flight damage
    case InstallStatus::ReplayRejected:  // stale state; re-seal fixes it
    case InstallStatus::StageFailed:
      return false;
  }
  return false;
}

NetworkProcessorDevice::NetworkProcessorDevice(
    std::string name, crypto::RsaKeyPair device_keys,
    crypto::RsaPublicKey manufacturer_key, std::size_t num_cores,
    np::RecoveryConfig recovery)
    : name_(std::move(name)),
      keys_(std::move(device_keys)),
      manufacturer_key_(std::move(manufacturer_key)),
      soc_(num_cores, np::DispatchPolicy::RoundRobin, recovery) {}

InstallStatus NetworkProcessorDevice::install(const WirePackage& wire,
                                              std::uint64_t now) {
  last_time_ = now;
  InstallStatus status;
  try {
    status = install_impl(wire, now);
  } catch (const std::exception&) {
    // A payload that passed every cryptographic check can still fail to
    // stage (e.g. its binary does not fit the memory map). The MPSoC
    // validates before committing, so the cores still run the previous
    // configuration; restore the device-level bookkeeping to match.
    status = InstallStatus::StageFailed;
    auto it = store_.find(app_name_);
    if (installed_ && it != store_.end()) activate(it->second);
  }
  return record_install(status, now);
}

InstallStatus NetworkProcessorDevice::install_bytes(
    std::span<const std::uint8_t> wire_bytes, std::uint64_t now) {
  WirePackage wire;
  try {
    wire = WirePackage::deserialize(wire_bytes);
  } catch (const std::exception&) {
    last_time_ = now;
    return record_install(InstallStatus::CorruptPackage, now);
  }
  return install(wire, now);
}

InstallStatus NetworkProcessorDevice::record_install(InstallStatus status,
                                                     std::uint64_t now) {
  last_install_status_ = status;
  install_attempted_ = true;
  AuditEvent event;
  event.kind = AuditEvent::Kind::InstallAttempt;
  event.time = now;
  event.status = status;
  event.detail = status == InstallStatus::Ok
                     ? app_name_
                     : std::string(install_status_name(status));
  audit_.push_back(std::move(event));
  return status;
}

InstallStatus NetworkProcessorDevice::install_impl(const WirePackage& wire,
                                                   std::uint64_t now) {
  // Step 1: certificate chain to the manufacturer root of trust.
  crypto::CertStatus cert_status = crypto::verify_certificate(
      wire.operator_cert, manufacturer_key_, now,
      crypto::CertRole::NetworkOperator);
  if (cert_status != crypto::CertStatus::Ok) {
    util::log_info("device ", name_, ": certificate rejected (",
                   crypto::cert_status_name(cert_status), ")");
    return InstallStatus::BadCertificate;
  }

  // Steps 2-4: unwrap K_sym, decrypt, verify operator signature.
  OpenResult opened =
      open_package(wire, keys_.priv, wire.operator_cert.subject_key);
  switch (opened.status) {
    case OpenStatus::Ok:
      break;
    case OpenStatus::WrongDevice:
      return InstallStatus::WrongDevice;
    case OpenStatus::CorruptCiphertext:
    case OpenStatus::Malformed:
      return InstallStatus::CorruptPackage;
    case OpenStatus::BadSignature:
      return InstallStatus::BadSignature;
  }
  PackagePayload& payload = *opened.payload;

  // Step 5: freshness.
  if (payload.sequence <= last_sequence_) {
    return InstallStatus::ReplayRejected;
  }

  monitor::MerkleTreeHash hash(payload.hash_param);
  if (verify_graph_) {
    // The graph must be exactly what offline analysis yields for this
    // binary under this parameter; otherwise an insider could ship a graph
    // that whitelists malicious code for a benign-looking binary.
    monitor::MonitoringGraph expected =
        monitor::extract_graph(payload.binary, hash);
    if (!(expected == payload.graph)) {
      return InstallStatus::GraphMismatch;
    }
  }

  // The wire format carries the graph uncompiled and the text raw (they
  // are what the operator signed); compile the graph and predecode the
  // text exactly once, now that every cryptographic check has passed.
  // The store and all cores share the immutable artifacts. A malformed
  // graph throws here; a binary that does not fit the memory map throws
  // from install_all's staging check in activate(), before any core is
  // touched -- install() turns either into StageFailed.
  np::InstallArtifacts artifacts{
      monitor::CompiledGraph::compile(std::move(payload.graph)),
      np::CompiledProgram::compile(payload.binary, hash)};
  StoredApp app{std::move(payload.binary), std::move(artifacts),
                payload.hash_param};
  activate(app);
  last_sequence_ = payload.sequence;
  store_[app_name_] = std::move(app);
  util::log_info("device ", name_, ": installed '", app_name_, "' (seq ",
                 payload.sequence, ")");
  return InstallStatus::Ok;
}

void NetworkProcessorDevice::activate(const StoredApp& app) {
  soc_.install_all(app.binary, app.artifacts,
                   monitor::MerkleTreeHash(app.hash_param));
  installed_ = true;
  app_name_ = app.binary.name;
}

bool NetworkProcessorDevice::switch_to(const std::string& app_name) {
  auto it = store_.find(app_name);
  if (it == store_.end()) return false;
  activate(it->second);
  audit_.push_back({AuditEvent::Kind::FastSwitch, last_time_,
                    app_name + " (all cores)", InstallStatus::Ok});
  util::log_info("device ", name_, ": fast-switched to '", app_name, "'");
  return true;
}

bool NetworkProcessorDevice::switch_core_to(std::size_t core_index,
                                            const std::string& app_name) {
  auto it = store_.find(app_name);
  if (it == store_.end() || core_index >= soc_.num_cores()) return false;
  const StoredApp& app = it->second;
  soc_.install(core_index, app.binary, app.artifacts,
               std::make_unique<monitor::MerkleTreeHash>(app.hash_param));
  audit_.push_back({AuditEvent::Kind::FastSwitch, last_time_,
                    app_name + " (core " + std::to_string(core_index) + ")",
                    InstallStatus::Ok});
  return true;
}

std::vector<std::string> NetworkProcessorDevice::stored_apps() const {
  std::vector<std::string> names;
  names.reserve(store_.size());
  for (const auto& [name, app] : store_) names.push_back(name);
  return names;
}

std::size_t NetworkProcessorDevice::store_bytes() const {
  std::size_t total = 0;
  for (const auto& [name, app] : store_) {
    total += app.binary.text_bytes() + app.binary.data.size() +
             (app.artifacts.graph->source().size_bits() + 7) / 8 +
             app.artifacts.code->footprint_bytes();
  }
  return total;
}

}  // namespace sdmmon::protocol
