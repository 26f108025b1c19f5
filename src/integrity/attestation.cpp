#include "integrity/attestation.hpp"

namespace tc::integrity {

namespace {
constexpr size_t kMaxAuditPathLen = 64;  // a 2^64-leaf tree is depth <= 64
}

Hash ChunkWitness(uint64_t uuid, uint64_t chunk_index, BytesView digest_blob,
                  BytesView payload) {
  BinaryWriter w(digest_blob.size() + payload.size() + 24);
  w.PutU64(uuid);
  w.PutU64(chunk_index);
  w.PutBytes(digest_blob);
  w.PutBytes(payload);
  return LeafHash(w.data());
}

Bytes Attestation::SignedBytes() const {
  BinaryWriter w(8 + 8 + sizeof(Hash));
  w.PutU64(uuid);
  w.PutU64(size);
  w.PutRaw(root);
  return std::move(w).Take();
}

Bytes Attestation::Encode() const {
  BinaryWriter w;
  w.PutU64(uuid);
  w.PutU64(size);
  w.PutRaw(root);
  w.PutBytes(signature);
  return std::move(w).Take();
}

Result<Attestation> Attestation::Decode(BytesView in) {
  BinaryReader r(in);
  Attestation a;
  TC_ASSIGN_OR_RETURN(a.uuid, r.GetU64());
  TC_ASSIGN_OR_RETURN(a.size, r.GetU64());
  TC_ASSIGN_OR_RETURN(BytesView root, r.GetRaw(sizeof(Hash)));
  std::copy(root.begin(), root.end(), a.root.begin());
  TC_ASSIGN_OR_RETURN(a.signature, r.GetBytes());
  return a;
}

Status Attestation::Verify(BytesView owner_public) const {
  return crypto::VerifySignature(owner_public, SignedBytes(), signature);
}

Status StreamAttestor::Add(uint64_t index, BytesView digest_blob,
                           BytesView payload) {
  if (index != tree_.size()) {
    return FailedPrecondition("witnesses must arrive in order");
  }
  tree_.Append(ChunkWitness(uuid_, index, digest_blob, payload));
  return Status::Ok();
}

Result<Attestation> StreamAttestor::Attest() const {
  return AttestPrefix(tree_.size());
}

Result<Attestation> StreamAttestor::AttestPrefix(uint64_t size) const {
  Attestation a;
  a.uuid = uuid_;
  a.size = size;
  TC_ASSIGN_OR_RETURN(a.root, tree_.RootAt(size));
  TC_ASSIGN_OR_RETURN(a.signature,
                      crypto::SignMessage(keys_.secret_key, a.SignedBytes()));
  return a;
}

Status VerifyChunk(const Attestation& attestation, BytesView owner_public,
                   uint64_t chunk_index, BytesView digest_blob,
                   BytesView payload, const AuditPath& path) {
  TC_RETURN_IF_ERROR(attestation.Verify(owner_public));
  return VerifyChunkPath(attestation, chunk_index, digest_blob, payload, path);
}

Status VerifyChunkPath(const Attestation& verified, uint64_t chunk_index,
                       BytesView digest_blob, BytesView payload,
                       const AuditPath& path) {
  if (chunk_index >= verified.size) {
    return OutOfRange("chunk is beyond the attested prefix");
  }
  Hash witness =
      ChunkWitness(verified.uuid, chunk_index, digest_blob, payload);
  return VerifyAuditPath(verified.root, witness, path);
}

void EncodeAuditPath(BinaryWriter& w, const AuditPath& path) {
  w.PutVar(path.siblings.size());
  for (size_t i = 0; i < path.siblings.size(); ++i) {
    w.PutU8(path.left_sibling[i] ? 1 : 0);
    w.PutRaw(path.siblings[i]);
  }
}

Result<AuditPath> DecodeAuditPath(BinaryReader& r) {
  TC_ASSIGN_OR_RETURN(uint64_t n, r.GetVar());
  if (n > kMaxAuditPathLen) return DataLoss("implausible audit path length");
  AuditPath path;
  path.siblings.reserve(n);
  path.left_sibling.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    TC_ASSIGN_OR_RETURN(uint8_t left, r.GetU8());
    TC_ASSIGN_OR_RETURN(BytesView h, r.GetRaw(sizeof(Hash)));
    Hash hash;
    std::copy(h.begin(), h.end(), hash.begin());
    path.siblings.push_back(hash);
    path.left_sibling.push_back(left != 0);
  }
  return path;
}

}  // namespace tc::integrity
