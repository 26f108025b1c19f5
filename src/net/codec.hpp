// Field-list wire codec. Every message struct names its fields once, in
// wire order, in a visitor template:
//
//   template <class V> void Fields(V& v) { v(uuid, range, Var{count}); }
//
// and the visitors below derive the exact encoded size, the encoding, and a
// bounded decoding from that one list. Field kinds (little-endian):
//
//   uint8_t / uint32_t / uint64_t / int64_t   fixed width
//   enum                                       its underlying integer
//   bool                                       u8 0/1 (nonzero decodes true)
//   Var{x}                                     varint of a uint64_t
//   Bytes, std::string                         varint length + raw bytes
//   TimeRange                                  i64 start, i64 end
//   index::DigestSchema                        varint length + Serialize()
//   std::vector<T>                             varint count + each element
//   std::pair<A, B>                            A then B
//   a struct with Fields()                     its fields, then Validate()
//
// Decoding bounds every vector count by the remaining input before it
// reserves, and runs a struct's optional `Status Validate() const` as soon
// as its fields are read. Encoding never validates.
#pragma once

#include <concepts>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/io.hpp"
#include "common/time.hpp"
#include "index/digest.hpp"

namespace tc::net {

/// Marks a uint64_t field as a varint on the wire.
struct Var {
  uint64_t& value;
};

namespace codec {

template <class T>
inline constexpr bool kIsVector = false;
template <class T>
inline constexpr bool kIsVector<std::vector<T>> = true;
template <class T>
inline constexpr bool kIsPair = false;
template <class A, class B>
inline constexpr bool kIsPair<std::pair<A, B>> = true;

template <class T>
concept Validated = requires(const T& t) {
  { t.Validate() } -> std::same_as<Status>;
};

/// Encoders read through Fields(), which is non-const so that one list also
/// serves the decoder; they never write to the message.
template <class T>
T& Mutable(const T& msg) {
  return const_cast<T&>(msg);
}

constexpr size_t VarSize(uint64_t v) {
  size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

/// Sizing pass: the exact encoded length, so Encode allocates once.
class Sizer {
 public:
  template <class... F>
  void operator()(const F&... fields) {
    (Add(fields), ...);
  }

  template <class T>
  void Add(const T& f) {
    if constexpr (std::is_same_v<T, Var>) {
      size += VarSize(f.value);
    } else if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
      size += sizeof(T);
    } else if constexpr (std::is_same_v<T, Bytes> ||
                         std::is_same_v<T, std::string>) {
      size += VarSize(f.size()) + f.size();
    } else if constexpr (std::is_same_v<T, TimeRange>) {
      size += 16;
    } else if constexpr (std::is_same_v<T, index::DigestSchema>) {
      Bytes blob;
      f.Serialize(blob);
      size += VarSize(blob.size()) + blob.size();
    } else if constexpr (kIsVector<T>) {
      size += VarSize(f.size());
      for (const auto& e : f) Add(e);
    } else if constexpr (kIsPair<T>) {
      Add(f.first);
      Add(f.second);
    } else {
      Mutable(f).Fields(*this);
    }
  }

  size_t size = 0;
};

class Writer {
 public:
  explicit Writer(BinaryWriter& w) : w_(w) {}

  template <class... F>
  void operator()(const F&... fields) {
    (Put(fields), ...);
  }

  template <class T>
  void Put(const T& f) {
    if constexpr (std::is_same_v<T, Var>) {
      w_.PutVar(f.value);
    } else if constexpr (std::is_same_v<T, bool>) {
      w_.PutU8(f ? 1 : 0);
    } else if constexpr (std::is_enum_v<T>) {
      Put(static_cast<std::underlying_type_t<T>>(f));
    } else if constexpr (std::is_integral_v<T>) {
      static_assert(sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8);
      if constexpr (sizeof(T) == 1) w_.PutU8(static_cast<uint8_t>(f));
      if constexpr (sizeof(T) == 4) w_.PutU32(static_cast<uint32_t>(f));
      if constexpr (sizeof(T) == 8) w_.PutU64(static_cast<uint64_t>(f));
    } else if constexpr (std::is_same_v<T, Bytes>) {
      w_.PutBytes(f);
    } else if constexpr (std::is_same_v<T, std::string>) {
      w_.PutString(f);
    } else if constexpr (std::is_same_v<T, TimeRange>) {
      w_.PutI64(f.start);
      w_.PutI64(f.end);
    } else if constexpr (std::is_same_v<T, index::DigestSchema>) {
      Bytes blob;
      f.Serialize(blob);
      w_.PutBytes(blob);
    } else if constexpr (kIsVector<T>) {
      w_.PutVar(f.size());
      for (const auto& e : f) Put(e);
    } else if constexpr (kIsPair<T>) {
      Put(f.first);
      Put(f.second);
    } else {
      Mutable(f).Fields(*this);
    }
  }

 private:
  BinaryWriter& w_;
};

/// Decoding pass. The first failure sticks: later fields are skipped and
/// status() reports it.
class Reader {
 public:
  explicit Reader(BytesView in) : r_(in) {}

  template <class... F>
  void operator()(F&&... fields) {
    (Get(fields) && ...);
  }

  template <class T>
  bool Get(T& f) {
    if (!status_.ok()) return false;
    if constexpr (std::is_same_v<T, Var>) {
      return Take(r_.GetVar(), f.value);
    } else if constexpr (std::is_same_v<T, bool>) {
      uint8_t byte = 0;
      if (!Get(byte)) return false;
      f = byte != 0;
      return true;
    } else if constexpr (std::is_enum_v<T>) {
      std::underlying_type_t<T> raw{};
      if (!Get(raw)) return false;
      f = static_cast<T>(raw);
      return true;
    } else if constexpr (std::is_integral_v<T>) {
      static_assert(sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8);
      if constexpr (sizeof(T) == 1) return Take(r_.GetU8(), f);
      if constexpr (sizeof(T) == 4) return Take(r_.GetU32(), f);
      if constexpr (sizeof(T) == 8) return Take(r_.GetU64(), f);
    } else if constexpr (std::is_same_v<T, Bytes>) {
      return Take(r_.GetBytes(), f);
    } else if constexpr (std::is_same_v<T, std::string>) {
      return Take(r_.GetString(), f);
    } else if constexpr (std::is_same_v<T, TimeRange>) {
      return Get(f.start) && Get(f.end);
    } else if constexpr (std::is_same_v<T, index::DigestSchema>) {
      Bytes blob;
      if (!Get(blob)) return false;
      size_t pos = 0;
      return Take(index::DigestSchema::Deserialize(blob, pos), f);
    } else if constexpr (kIsVector<T>) {
      uint64_t count = 0;
      if (!Take(r_.GetVar(), count)) return false;
      // Every element consumes at least one input byte, so a count beyond
      // the remaining bytes is an allocation bomb, not a message.
      if (count > r_.remaining()) {
        status_ = DataLoss("element count exceeds input");
        return false;
      }
      f.reserve(static_cast<size_t>(count));
      for (uint64_t i = 0; i < count; ++i) {
        if (!Get(f.emplace_back())) return false;
      }
      return true;
    } else if constexpr (kIsPair<T>) {
      return Get(f.first) && Get(f.second);
    } else {
      f.Fields(*this);
      if constexpr (Validated<T>) {
        if (status_.ok()) status_ = f.Validate();
      }
      return status_.ok();
    }
  }

  const Status& status() const { return status_; }

 private:
  template <class T, class U>
  bool Take(Result<U> r, T& out) {
    if (!r.ok()) {
      status_ = r.status();
      return false;
    }
    out = static_cast<T>(std::move(*r));
    return true;
  }

  BinaryReader r_;
  Status status_ = Status::Ok();
};

template <class T>
Bytes Encode(const T& msg) {
  Sizer sizer;
  sizer.Add(msg);
  BinaryWriter w(sizer.size);
  Writer(w).Put(msg);
  return std::move(w).Take();
}

template <class T>
Result<T> Decode(BytesView in) {
  T msg;
  Reader reader(in);
  if (!reader.Get(msg)) return reader.status();
  return msg;
}

}  // namespace codec
}  // namespace tc::net

/// The Encode()/Decode() pair of a wire message, derived from its Fields().
#define TC_WIRE_MESSAGE(Type)                                          \
  ::tc::Bytes Encode() const { return ::tc::net::codec::Encode(*this); } \
  static ::tc::Result<Type> Decode(::tc::BytesView in) {                 \
    return ::tc::net::codec::Decode<Type>(in);                           \
  }
