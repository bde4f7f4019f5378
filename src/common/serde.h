// Binary serialization of the library's value types.
//
// Used by the checkpoint facility (engine/checkpoint.h) that backs the
// query-jumpstart application (Sec. II-4: "seed query state using checkpoint
// information stored on disk"), and usable as a wire format for shipping
// stream elements between processes.
//
// Format: little-endian, length-prefixed, no alignment.  Integers are
// varint-free fixed width (simplicity over compactness).  Every Decode
// validates bounds and returns a Status instead of crashing on corrupt
// input.

#ifndef LMERGE_COMMON_SERDE_H_
#define LMERGE_COMMON_SERDE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/row.h"
#include "common/status.h"
#include "common/timestamp.h"
#include "common/value.h"
#include "container/hash_table.h"

namespace lmerge {

class RowPoolEncoder;
class RowPoolDecoder;

// Sentinel id on the wire for a row written inline after the reference
// (rows without a rep identity — the empty row — cannot be pooled).
inline constexpr uint32_t kInlineRowRef = 0xffffffffu;

// An append-only byte buffer with typed writers.
class Encoder {
 public:
  // Pre-size for `n` more bytes of writes (an estimate is fine; the buffer
  // still grows as needed).
  void Reserve(size_t n) { bytes_.reserve(bytes_.size() + n); }

  void WriteU8(uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI64(int64_t v) { WriteU64(static_cast<uint64_t>(v)); }
  void WriteDouble(double v);
  void WriteString(const std::string& s);

  void WriteValue(const Value& value);
  void WriteRow(const Row& row);

  // Pooled row references (common/checkpoint.h): WriteRowRef emits a u32
  // — the row's pool id, or kInlineRowRef followed by the row inline when
  // it has no rep identity.  Each distinct rep is then serialized exactly
  // once, in the pool section, no matter how many index entries reference
  // it.  A pool must be attached.
  void set_row_pool(RowPoolEncoder* pool) { row_pool_ = pool; }
  void WriteRowRef(const Row& row);

  const std::string& bytes() const { return bytes_; }
  std::string TakeBytes() { return std::move(bytes_); }

 private:
  std::string bytes_;
  RowPoolEncoder* row_pool_ = nullptr;
};

// A bounds-checked reader over a byte span.
class Decoder {
 public:
  explicit Decoder(const std::string& bytes) : bytes_(bytes) {}
  // The decoder only borrows the buffer; a temporary would dangle.
  explicit Decoder(std::string&&) = delete;

  Status ReadU8(uint8_t* v);
  Status ReadU32(uint32_t* v);
  Status ReadU64(uint64_t* v);
  Status ReadI64(int64_t* v) {
    return ReadU64(reinterpret_cast<uint64_t*>(v));
  }
  Status ReadDouble(double* v);
  Status ReadString(std::string* s);

  Status ReadValue(Value* value);
  Status ReadRow(Row* row);

  // Counterpart of Encoder::WriteRowRef: resolves u32 references against
  // the attached pool (kInlineRowRef reads the row inline).
  void set_row_pool(const RowPoolDecoder* pool) { row_pool_ = pool; }
  Status ReadRowRef(Row* row);

  bool AtEnd() const { return offset_ == bytes_.size(); }
  size_t remaining() const { return bytes_.size() - offset_; }

 private:
  Status Need(size_t n);

  const std::string& bytes_;
  size_t offset_ = 0;
  const RowPoolDecoder* row_pool_ = nullptr;
};

// Deduplicating row pool for WriteRowRef.  Intern() keys on the rep
// identity (pointer equality, like the payload ledger) and holds a Row
// handle per entry so reps stay alive until the pool is encoded.
class RowPoolEncoder {
 public:
  // Returns the pool id for `row`, interning it on first sight.  The row
  // must have a rep identity (callers route identity-less rows inline).
  uint32_t Intern(const Row& row);

  int64_t entries() const { return static_cast<int64_t>(rows_.size()); }

  // The pool section: u32 entry count, then each row inline in id order.
  void EncodeTo(Encoder* encoder) const;

 private:
  HashTable<const void*, uint32_t, PointerIdentityHash> ids_;
  std::vector<Row> rows_;
};

class RowPoolDecoder {
 public:
  // Parses a pool section as written by RowPoolEncoder::EncodeTo.
  Status DecodeFrom(Decoder* decoder);

  // Resolves a pool id from a row reference; fails on out-of-range ids.
  Status Resolve(uint32_t id, Row* row) const;

  int64_t entries() const { return static_cast<int64_t>(rows_.size()); }

 private:
  std::vector<Row> rows_;
};

}  // namespace lmerge

#endif  // LMERGE_COMMON_SERDE_H_
