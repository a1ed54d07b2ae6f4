// Writes the benchmark's fixed RSA-2048 test keys (manufacturer, operator,
// device) as hex-encoded RsaPrivateKey::serialize() bytes. The keys are
// committed so the benchmark never pays for key generation; rerun only to
// replace them:
//   cmake --build .bench_build --target perfbench_keygen
//   .bench_build/perfbench_keygen perfbench/keys
// These keys are public test material, never for a real deployment.
#include <cstdio>
#include <fstream>
#include <string>

#include "crypto/rsa.hpp"
#include "util/bytes.hpp"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <keys-dir>\n", argv[0]);
    return 2;
  }
  for (const char* role : {"manufacturer", "operator", "device"}) {
    sdmmon::crypto::Drbg drbg(std::string("perfbench-test-key/") + role);
    const sdmmon::crypto::RsaKeyPair keys =
        sdmmon::crypto::rsa_generate(2048, drbg);
    const std::string path = std::string(argv[1]) + "/" + role + ".key";
    std::ofstream out(path);
    out << sdmmon::util::to_hex(keys.priv.serialize()) << "\n";
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
  }
  return 0;
}
