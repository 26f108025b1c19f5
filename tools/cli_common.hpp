// Shared helpers for the command-line tools: a tiny flag parser and the
// client-side key-state files (TimeCrypt keeps all key material client-side,
// so a usable CLI must persist it between invocations).
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/io.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/rand.hpp"
#include "crypto/sealed_box.hpp"
#include "net/messages.hpp"

namespace tc::tools {

/// "--flag value" and "--flag" (boolean) parser. Positional args (the
/// command word) come back in order.
class Flags {
 public:
  Flags(int argc, char** argv, std::initializer_list<const char*> bool_flags) {
    std::vector<std::string> booleans(bool_flags.begin(), bool_flags.end());
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        std::string name = arg.substr(2);
        bool is_bool =
            std::find(booleans.begin(), booleans.end(), name) != booleans.end();
        if (!is_bool && i + 1 < argc) {
          values_[name] = argv[++i];
        } else {
          values_[name] = "1";
        }
      } else {
        positional_.push_back(std::move(arg));
      }
    }
  }

  std::string Get(const std::string& name, std::string def = "") const {
    auto it = values_.find(name);
    return it == values_.end() ? def : it->second;
  }

  int64_t GetInt(const std::string& name, int64_t def) const {
    auto it = values_.find(name);
    return it == values_.end() ? def : std::strtoll(it->second.c_str(),
                                                    nullptr, 10);
  }

  /// Full-range uint64 (stream uuids are random 64-bit values; strtoll
  /// would clamp anything above INT64_MAX).
  uint64_t GetUint(const std::string& name, uint64_t def) const {
    auto it = values_.find(name);
    return it == values_.end() ? def : std::strtoull(it->second.c_str(),
                                                     nullptr, 10);
  }

  bool Has(const std::string& name) const { return values_.contains(name); }

  const std::vector<std::string>& positional() const { return positional_; }

  /// Every --flag the user actually passed (for unknown-flag validation:
  /// a typo like --replcias must be a usage error, not a silent default).
  std::vector<std::string> Names() const {
    std::vector<std::string> names;
    names.reserve(values_.size());
    for (const auto& [name, value] : values_) names.push_back(name);
    return names;
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// Strict integer flag: absent → default; present but non-numeric (or out
/// of range) → usage error. `Flags::GetInt` silently maps garbage to 0,
/// which is exactly how "--replicas two" used to mean "no replication".
inline int64_t RequireInt(const Flags& flags, const std::string& name,
                          int64_t def) {
  if (!flags.Has(name)) return def;
  std::string value = flags.Get(name);
  errno = 0;
  char* end = nullptr;
  long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || end == value.c_str() || *end != '\0' ||
      errno == ERANGE) {
    std::fprintf(stderr, "error: --%s expects an integer, got '%s'\n",
                 name.c_str(), value.c_str());
    std::exit(1);
  }
  return parsed;
}

/// On-disk producer state for one stream: uuid + master seed + config.
struct StreamState {
  uint64_t uuid = 0;
  crypto::Key128 master_seed{};
  net::StreamConfig config;
};

inline std::filesystem::path StreamStatePath(const std::string& state_dir,
                                             uint64_t uuid) {
  return std::filesystem::path(state_dir) /
         ("stream-" + std::to_string(uuid) + ".key");
}

inline Status SaveStreamState(const std::string& state_dir,
                              const StreamState& s) {
  std::error_code ec;
  std::filesystem::create_directories(state_dir, ec);
  BinaryWriter w;
  w.PutU64(s.uuid);
  w.PutRaw(s.master_seed);
  w.PutRaw(s.config.Encode());
  std::ofstream out(StreamStatePath(state_dir, s.uuid), std::ios::binary);
  if (!out) return Unavailable("cannot write stream state file");
  out.write(reinterpret_cast<const char*>(w.data().data()),
            static_cast<std::streamsize>(w.size()));
  return out ? Status::Ok() : Unavailable("stream state write failed");
}

inline Result<StreamState> LoadStreamState(const std::string& state_dir,
                                           uint64_t uuid) {
  std::ifstream in(StreamStatePath(state_dir, uuid), std::ios::binary);
  if (!in) {
    return NotFound("no local key state for stream " + std::to_string(uuid) +
                    " (created on another machine?)");
  }
  Bytes data((std::istreambuf_iterator<char>(in)),
             std::istreambuf_iterator<char>());
  BinaryReader r(data);
  StreamState s;
  TC_ASSIGN_OR_RETURN(s.uuid, r.GetU64());
  TC_ASSIGN_OR_RETURN(BytesView seed, r.GetRaw(s.master_seed.size()));
  std::copy(seed.begin(), seed.end(), s.master_seed.begin());
  TC_ASSIGN_OR_RETURN(BytesView config, r.GetRaw(r.remaining()));
  TC_ASSIGN_OR_RETURN(s.config, net::StreamConfig::Decode(config));
  return s;
}

/// Consumer identity (X25519 keypair) persisted in the state dir.
inline Result<crypto::BoxKeyPair> LoadOrCreateIdentity(
    const std::string& state_dir, bool create) {
  auto path = std::filesystem::path(state_dir) / "identity.key";
  std::ifstream in(path, std::ios::binary);
  if (in) {
    Bytes data((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());
    BinaryReader r(data);
    crypto::BoxKeyPair kp;
    TC_ASSIGN_OR_RETURN(kp.public_key, r.GetBytes());
    TC_ASSIGN_OR_RETURN(kp.secret_key, r.GetBytes());
    return kp;
  }
  if (!create) return NotFound("no identity; run `tccli keygen` first");
  std::error_code ec;
  std::filesystem::create_directories(state_dir, ec);
  crypto::BoxKeyPair kp = crypto::GenerateBoxKeyPair();
  BinaryWriter w;
  w.PutBytes(kp.public_key);
  w.PutBytes(kp.secret_key);
  std::ofstream out(path, std::ios::binary);
  if (!out) return Unavailable("cannot write identity file");
  out.write(reinterpret_cast<const char*>(w.data().data()),
            static_cast<std::streamsize>(w.size()));
  return kp;
}

/// Owner signing identity (Ed25519) persisted in the state dir — the same
/// keypair must sign every attestation of a stream, across invocations.
inline Result<crypto::SigningKeyPair> LoadOrCreateSigning(
    const std::string& state_dir) {
  auto path = std::filesystem::path(state_dir) / "signing.key";
  std::ifstream in(path, std::ios::binary);
  if (in) {
    Bytes data((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());
    BinaryReader r(data);
    crypto::SigningKeyPair kp;
    TC_ASSIGN_OR_RETURN(kp.public_key, r.GetBytes());
    TC_ASSIGN_OR_RETURN(kp.secret_key, r.GetBytes());
    return kp;
  }
  std::error_code ec;
  std::filesystem::create_directories(state_dir, ec);
  crypto::SigningKeyPair kp = crypto::GenerateSigningKeyPair();
  BinaryWriter w;
  w.PutBytes(kp.public_key);
  w.PutBytes(kp.secret_key);
  std::ofstream out(path, std::ios::binary);
  if (!out) return Unavailable("cannot write signing key file");
  out.write(reinterpret_cast<const char*>(w.data().data()),
            static_cast<std::streamsize>(w.size()));
  return kp;
}

[[noreturn]] inline void Die(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  std::exit(1);
}

inline void CheckOk(const Status& status) {
  if (!status.ok()) Die(status);
}

}  // namespace tc::tools
