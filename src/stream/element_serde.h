// Binary serialization of stream elements and sequences — the wire format
// for checkpoints and for shipping physical streams between processes.
//
// Two encodings exist for sequences:
//  - Inline (EncodeSequence): every element carries its full payload.  Used
//    by tape files and by publishers' ELEMENTS frames.
//  - Dictionary-coded (EncodeSequenceDict): element payloads are replaced by
//    4-byte ids into a session-scoped payload dictionary, built up by
//    PAYLOAD_DEF messages.  Redundant publishers re-send the same payloads
//    constantly (that is the paper's whole setting), so after warm-up the
//    per-element wire cost drops from the full row to one u32.  The id
//    space is per (session, direction); kInlinePayloadId escapes to an
//    inline row when the dictionary is full or the payload is empty.

#ifndef LMERGE_STREAM_ELEMENT_SERDE_H_
#define LMERGE_STREAM_ELEMENT_SERDE_H_

#include <utility>
#include <vector>

#include "common/payload_ledger.h"
#include "common/serde.h"
#include "container/hash_table.h"
#include "stream/element.h"

namespace lmerge {

void EncodeElement(const StreamElement& element, Encoder* encoder);
Status DecodeElement(Decoder* decoder, StreamElement* element);

// Length-prefixed sequence.
void EncodeSequence(const ElementSequence& elements, Encoder* encoder);
Status DecodeSequence(Decoder* decoder, ElementSequence* elements);

// Convenience round-trip helpers.
std::string SerializeSequence(const ElementSequence& elements);
Status DeserializeSequence(const std::string& bytes,
                           ElementSequence* elements);

// --- Payload dictionary ---

// Sentinel id meaning "no dictionary entry; a full row follows inline".
inline constexpr uint32_t kInlinePayloadId = 0xffffffffu;
// Default cap on dictionary entries per session direction; bounds the
// decoder's memory against a hostile or miscoded peer.
inline constexpr uint32_t kDefaultPayloadDictCapacity = 1u << 16;

// Sender side: maps payload identity -> id.  Entries pin a Row handle so
// the rep stays live (its address stays valid as a key) for the session's
// lifetime.  Identity-keyed lookup means interned payloads dedup across
// every element that shares the rep — no content hashing on the hot path.
class PayloadDictEncoder {
 public:
  explicit PayloadDictEncoder(
      uint32_t capacity = kDefaultPayloadDictCapacity)
      : capacity_(capacity) {}

  // Returns the id under which `payload` is (now) defined, assigning the
  // next free id on first sight, or kInlinePayloadId when the payload is
  // empty or the dictionary is full.  When a new id is assigned, the pair
  // is appended to *new_defs: the caller must ship each as a PAYLOAD_DEF
  // before the message that references it.
  uint32_t Intern(const Row& payload,
                  std::vector<std::pair<uint32_t, Row>>* new_defs);

  int64_t entries() const { return static_cast<int64_t>(pinned_.size()); }

 private:
  uint32_t capacity_;
  HashTable<const void*, uint32_t, PayloadIdentityHash> ids_;
  std::vector<Row> pinned_;  // index == id
};

// Receiver side: id -> Row.  Both failure modes — defining an id twice and
// referencing an undefined id — are protocol violations surfaced as Status.
class PayloadDictDecoder {
 public:
  explicit PayloadDictDecoder(
      uint32_t capacity = kDefaultPayloadDictCapacity)
      : capacity_(capacity) {}

  Status Define(uint32_t id, Row payload);
  Status Resolve(uint32_t id, Row* payload) const;

  int64_t entries() const { return rows_.size(); }

 private:
  struct IdHash {
    uint64_t operator()(uint32_t id) const {
      return Mix64(static_cast<uint64_t>(id));
    }
  };

  uint32_t capacity_;
  HashTable<uint32_t, Row, IdHash> rows_;
};

// PAYLOAD_DEF payload: u32 id, then the row inline.
void EncodePayloadDef(uint32_t id, const Row& payload, Encoder* encoder);
Status DecodePayloadDef(Decoder* decoder, uint32_t* id, Row* payload);

// Dictionary-coded element: like EncodeElement but insert/adjust payloads
// are written as a u32 id (kInlinePayloadId + inline row as the escape).
void EncodeElementDict(const StreamElement& element, PayloadDictEncoder* dict,
                       std::vector<std::pair<uint32_t, Row>>* new_defs,
                       Encoder* encoder);
Status DecodeElementDict(Decoder* decoder, const PayloadDictDecoder& dict,
                         StreamElement* element);

// Dictionary-coded sequence (ELEMENTS_DICT payload).
void EncodeSequenceDict(const ElementSequence& elements,
                        PayloadDictEncoder* dict,
                        std::vector<std::pair<uint32_t, Row>>* new_defs,
                        Encoder* encoder);
Status DecodeSequenceDict(Decoder* decoder, const PayloadDictDecoder& dict,
                          ElementSequence* elements);

}  // namespace lmerge

#endif  // LMERGE_STREAM_ELEMENT_SERDE_H_
