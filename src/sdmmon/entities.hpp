// The three entities of the SDMMon security model (paper Section 2.2 and
// Figure 3): network processor manufacturer, network operator, and the NP
// device. Key management follows the paper exactly:
//  * at manufacturing time the device gets its own keypair (K_R) and the
//    manufacturer's public key (K_M+) as root of trust;
//  * at installation time the manufacturer certifies the operator's
//    public key;
//  * at programming time the operator seals (binary, graph, hash param)
//    to the device; the device verifies the chain and installs.
#ifndef SDMMON_SDMMON_ENTITIES_HPP
#define SDMMON_SDMMON_ENTITIES_HPP

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "np/mpsoc.hpp"
#include "sdmmon/package.hpp"

namespace sdmmon::protocol {

class NetworkProcessorDevice;

/// Produces devices and certifies operators; holds the root keypair.
class Manufacturer {
 public:
  /// `key_bits` applies to the manufacturer's own keypair and to every
  /// device it provisions (the prototype used RSA-2048).
  Manufacturer(const std::string& name, std::size_t key_bits,
               crypto::Drbg drbg);

  const std::string& name() const { return name_; }
  const crypto::RsaPublicKey& public_key() const { return keys_.pub; }

  /// Issue the operator certificate (paper: "at installation time").
  crypto::Certificate certify_operator(const std::string& operator_name,
                                       const crypto::RsaPublicKey& operator_key,
                                       std::uint64_t valid_from,
                                       std::uint64_t valid_to);

  /// Provision a new device: generate K_R, install K_M+ as root of trust.
  /// `recovery` selects the device's attack-recovery policy.
  std::unique_ptr<NetworkProcessorDevice> provision_device(
      const std::string& device_name, std::size_t num_cores,
      np::RecoveryConfig recovery = {});

 private:
  std::string name_;
  std::size_t key_bits_;
  crypto::Drbg drbg_;
  crypto::RsaKeyPair keys_;
  std::uint64_t next_serial_ = 1;
};

/// Programs devices: extracts monitoring graphs, picks per-router hash
/// parameters, signs and seals install packages.
class NetworkOperator {
 public:
  NetworkOperator(const std::string& name, std::size_t key_bits,
                  crypto::Drbg drbg);

  const std::string& name() const { return name_; }
  const crypto::RsaPublicKey& public_key() const { return keys_.pub; }

  /// Store the certificate received from the manufacturer.
  void accept_certificate(crypto::Certificate cert) {
    cert_ = std::move(cert);
  }
  const crypto::Certificate& certificate() const { return cert_; }

  /// Build a sealed package for `device_pub`: choose a random 32-bit hash
  /// parameter, run offline analysis, sign, encrypt. Each call draws a
  /// fresh parameter -- the diversity mechanism of SR2.
  WirePackage program_device(const isa::Program& binary,
                             const crypto::RsaPublicKey& device_pub,
                             std::uint32_t pad_bytes = 0);

  /// The hash parameter chosen for the most recent package (tests only;
  /// a real operator keeps this secret per SR3).
  std::uint32_t last_hash_param() const { return last_hash_param_; }

  /// Sign an arbitrary message with the operator key -- used by the RPC
  /// control-plane client to answer per-session auth challenges with the
  /// same key the operator's certificate vouches for.
  util::Bytes sign(std::span<const std::uint8_t> message) const;

 private:
  std::string name_;
  crypto::Drbg drbg_;
  crypto::RsaKeyPair keys_;
  crypto::Certificate cert_;
  std::uint64_t sequence_ = 0;
  std::uint32_t last_hash_param_ = 0;
};

/// Outcome of a device-side installation attempt.
enum class InstallStatus : std::uint8_t {
  Ok,
  BadCertificate,   // chain to manufacturer failed / wrong role / expired
  WrongDevice,      // K_sym not sealed to this device (SR4)
  CorruptPackage,   // ciphertext or structure damaged
  BadSignature,     // operator signature invalid (SR1)
  ReplayRejected,   // sequence number not fresh
  GraphMismatch,    // monitoring graph does not match binary + parameter
  StageFailed,      // payload verified but could not be staged on the
                    // cores (e.g. binary exceeds the memory map); the
                    // previous configuration was kept running
};

const char* install_status_name(InstallStatus status);

/// True for rejections that retrying the same campaign cannot fix (bad
/// keys, certificates, signatures, or graphs); false for damage a lossy
/// channel can inflict on an otherwise-good package.
bool install_status_permanent(InstallStatus status);

/// One entry of the device's tamper-evident operations log. Every install
/// attempt (accepted or rejected, with its rejection reason) and every
/// fast switch is recorded -- the audit trail a network operator needs to
/// investigate attempted compromises of the reprogramming path.
struct AuditEvent {
  enum class Kind : std::uint8_t { InstallAttempt, FastSwitch };
  Kind kind = Kind::InstallAttempt;
  std::uint64_t time = 0;          // install: protocol time; switch: last seen
  std::string detail;              // app name or rejection reason
  InstallStatus status = InstallStatus::Ok;
};

/// A router's NP subsystem: control processor state (keys) + MPSoC.
class NetworkProcessorDevice {
 public:
  /// `recovery` configures the MPSoC's attack-recovery policy (default:
  /// the paper-baseline ResetAndContinue); fleet deployments that want a
  /// misbehaving device to quarantine itself pass QuarantineAfterK.
  NetworkProcessorDevice(std::string name, crypto::RsaKeyPair device_keys,
                         crypto::RsaPublicKey manufacturer_key,
                         std::size_t num_cores,
                         np::RecoveryConfig recovery = {});

  const std::string& name() const { return name_; }
  const crypto::RsaPublicKey& public_key() const { return keys_.pub; }

  /// The device-internal private key. A real router never exports K_R-;
  /// exposed here only so the instrumented timing pipeline
  /// (sdmmon/timed_install.hpp) can replay the install steps it measures.
  const crypto::RsaPrivateKey& private_key_for_instrumentation() const {
    return keys_.priv;
  }

  /// Full verify-decrypt-install pipeline (paper Table 2's steps 2-5).
  /// On success the binary+graph+hash are installed on every core and the
  /// application is retained in the on-device store for fast switching.
  /// Atomic: any failure -- including a mid-pipeline exception while
  /// staging the new configuration -- leaves the previously-installed
  /// application running on every core.
  InstallStatus install(const WirePackage& wire, std::uint64_t now);

  /// What a device actually receives from the network: serialized wire
  /// bytes, possibly damaged in flight. Parses and then runs the full
  /// install pipeline; structural damage reports CorruptPackage instead
  /// of surfacing a decode exception.
  InstallStatus install_bytes(std::span<const std::uint8_t> wire_bytes,
                              std::uint64_t now);

  /// Result of the most recent install attempt (Ok before any attempt).
  InstallStatus last_install_status() const { return last_install_status_; }
  bool last_install_ok() const {
    return last_install_status_ == InstallStatus::Ok;
  }
  bool install_attempted() const { return install_attempted_; }

  /// Fast application switch (paper Sec 4.2: "switching between
  /// applications already installed ... can be done quickly ... by keeping
  /// multiple binaries and graphs in memory"). No cryptography: the stored
  /// app was already authenticated at install time. Returns false if the
  /// name is not in the store.
  bool switch_to(const std::string& app_name);

  /// Per-core fast switch (heterogeneous workload mapping): activate a
  /// stored app on one core only. Returns false for unknown app/core.
  bool switch_core_to(std::size_t core_index, const std::string& app_name);

  /// Names of authenticated applications held in device memory.
  std::vector<std::string> stored_apps() const;

  /// The shared install artifacts of a stored application (nullptr when
  /// the name is not in the store).
  const np::InstallArtifacts* stored_artifacts(
      const std::string& app_name) const;

  /// Total device memory consumed by the store (binaries, graphs and the
  /// compiled artifacts), for capacity planning.
  std::size_t store_bytes() const;

  /// Operations log (install attempts incl. rejections, fast switches).
  const std::vector<AuditEvent>& audit_log() const { return audit_; }

  bool has_application() const { return installed_; }
  const std::string& application_name() const { return app_name_; }

  np::Mpsoc& mpsoc() { return soc_; }
  const np::Mpsoc& mpsoc() const { return soc_; }

  np::PacketResult process_packet(std::span<const std::uint8_t> packet,
                                  std::uint32_t flow_key = 0) {
    return soc_.process_packet(packet, flow_key);
  }

 private:
  /// An authenticated application retained for fast switching. The
  /// monitoring graph is kept in compiled form, the binary's text in
  /// predecoded form, and the monitor's walk through its superblocks
  /// summarised: all were derived from the verified package at install
  /// time exactly once, and the immutable artifacts are shared by the
  /// store and every core the app is activated on -- a fast switch is
  /// pointer swaps, never a recompilation, re-decode or re-summary.
  struct StoredApp {
    isa::Program binary;
    np::InstallArtifacts artifacts;
    std::uint32_t hash_param = 0;
  };

  void activate(const StoredApp& app);
  InstallStatus install_impl(const WirePackage& wire, std::uint64_t now);
  InstallStatus record_install(InstallStatus status, std::uint64_t now);

  std::string name_;
  crypto::RsaKeyPair keys_;
  crypto::RsaPublicKey manufacturer_key_;
  np::Mpsoc soc_;
  bool installed_ = false;
  std::string app_name_;
  InstallStatus last_install_status_ = InstallStatus::Ok;
  bool install_attempted_ = false;
  std::uint64_t last_sequence_ = 0;
  std::uint64_t last_time_ = 0;
  std::map<std::string, StoredApp> store_;
  std::vector<AuditEvent> audit_;
};

}  // namespace sdmmon::protocol

#endif  // SDMMON_SDMMON_ENTITIES_HPP
