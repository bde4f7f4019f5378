#include "stream/element_serde.h"

#include "obs/metrics.h"

namespace lmerge {

void EncodeElement(const StreamElement& element, Encoder* encoder) {
  encoder->WriteU8(static_cast<uint8_t>(element.kind()));
  switch (element.kind()) {
    case ElementKind::kInsert:
      encoder->WriteRow(element.payload());
      encoder->WriteI64(element.vs());
      encoder->WriteI64(element.ve());
      break;
    case ElementKind::kAdjust:
      encoder->WriteRow(element.payload());
      encoder->WriteI64(element.vs());
      encoder->WriteI64(element.v_old());
      encoder->WriteI64(element.ve());
      break;
    case ElementKind::kStable:
      encoder->WriteI64(element.stable_time());
      break;
  }
}

Status DecodeElement(Decoder* decoder, StreamElement* element) {
  uint8_t tag = 0;
  Status status = decoder->ReadU8(&tag);
  if (!status.ok()) return status;
  switch (static_cast<ElementKind>(tag)) {
    case ElementKind::kInsert: {
      Row payload;
      int64_t vs = 0;
      int64_t ve = 0;
      if (!(status = decoder->ReadRow(&payload)).ok()) return status;
      if (!(status = decoder->ReadI64(&vs)).ok()) return status;
      if (!(status = decoder->ReadI64(&ve)).ok()) return status;
      *element = StreamElement::Insert(std::move(payload), vs, ve);
      return Status::Ok();
    }
    case ElementKind::kAdjust: {
      Row payload;
      int64_t vs = 0;
      int64_t v_old = 0;
      int64_t ve = 0;
      if (!(status = decoder->ReadRow(&payload)).ok()) return status;
      if (!(status = decoder->ReadI64(&vs)).ok()) return status;
      if (!(status = decoder->ReadI64(&v_old)).ok()) return status;
      if (!(status = decoder->ReadI64(&ve)).ok()) return status;
      *element = StreamElement::Adjust(std::move(payload), vs, v_old, ve);
      return Status::Ok();
    }
    case ElementKind::kStable: {
      int64_t t = 0;
      if (!(status = decoder->ReadI64(&t)).ok()) return status;
      *element = StreamElement::Stable(t);
      return Status::Ok();
    }
  }
  return Status::InvalidArgument("unknown element tag " +
                                 std::to_string(tag));
}

void EncodeSequence(const ElementSequence& elements, Encoder* encoder) {
  // Floor estimate (tag + three i64 per element, payload excluded): large
  // batches reach their final buffer size in O(1) reallocations instead of
  // O(log n) doubling steps from empty.
  encoder->Reserve(4 + elements.size() * 25);
  encoder->WriteU32(static_cast<uint32_t>(elements.size()));
  for (const StreamElement& e : elements) EncodeElement(e, encoder);
}

Status DecodeSequence(Decoder* decoder, ElementSequence* elements) {
  uint32_t count = 0;
  Status status = decoder->ReadU32(&count);
  if (!status.ok()) return status;
  if (count > decoder->remaining()) {
    return Status::InvalidArgument("sequence length exceeds buffer");
  }
  elements->clear();
  elements->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    StreamElement element;
    status = DecodeElement(decoder, &element);
    if (!status.ok()) return status;
    elements->push_back(std::move(element));
  }
  return Status::Ok();
}

uint32_t PayloadDictEncoder::Intern(
    const Row& payload, std::vector<std::pair<uint32_t, Row>>* new_defs) {
  // Process-wide dictionary hit-rate instruments; the hit rate is what
  // tells an operator whether payload dictionary coding is earning its keep.
  static obs::Counter* const lookups =
      obs::MetricsRegistry::Global().GetCounter("net.dict.lookups");
  static obs::Counter* const hits =
      obs::MetricsRegistry::Global().GetCounter("net.dict.hits");
  if (payload.identity() == nullptr) return kInlinePayloadId;  // empty row
  lookups->Increment();
  auto [slot, inserted] = ids_.Insert(payload.identity(), 0);
  if (!inserted) {
    hits->Increment();
    return *slot;
  }
  if (pinned_.size() >= capacity_) {
    // Dictionary full: fall back to inline forever for this payload.  The
    // placeholder slot is removed so the table does not grow unboundedly
    // with never-coded identities.
    ids_.Erase(payload.identity());
    return kInlinePayloadId;
  }
  const uint32_t id = static_cast<uint32_t>(pinned_.size());
  *slot = id;
  pinned_.push_back(payload);  // pin the rep: identity stays valid
  new_defs->emplace_back(id, payload);
  return id;
}

Status PayloadDictDecoder::Define(uint32_t id, Row payload) {
  if (id == kInlinePayloadId) {
    return Status::InvalidArgument("payload def with reserved inline id");
  }
  if (rows_.size() >= static_cast<int64_t>(capacity_)) {
    return Status::InvalidArgument("payload dictionary over capacity");
  }
  auto [slot, inserted] = rows_.Insert(id, Row());
  if (!inserted) {
    return Status::InvalidArgument("duplicate payload def for id " +
                                   std::to_string(id));
  }
  *slot = std::move(payload);
  return Status::Ok();
}

Status PayloadDictDecoder::Resolve(uint32_t id, Row* payload) const {
  const Row* found = rows_.Find(id);
  if (found == nullptr) {
    return Status::InvalidArgument("undefined payload id " +
                                   std::to_string(id));
  }
  *payload = *found;
  return Status::Ok();
}

void EncodePayloadDef(uint32_t id, const Row& payload, Encoder* encoder) {
  encoder->WriteU32(id);
  encoder->WriteRow(payload);
}

Status DecodePayloadDef(Decoder* decoder, uint32_t* id, Row* payload) {
  Status status = decoder->ReadU32(id);
  if (!status.ok()) return status;
  return decoder->ReadRow(payload);
}

namespace {

// Writes the payload reference for one insert/adjust element: a dictionary
// id, or the inline sentinel followed by the full row.
void EncodePayloadRef(const Row& payload, PayloadDictEncoder* dict,
                      std::vector<std::pair<uint32_t, Row>>* new_defs,
                      Encoder* encoder) {
  const uint32_t id = dict->Intern(payload, new_defs);
  encoder->WriteU32(id);
  if (id == kInlinePayloadId) encoder->WriteRow(payload);
}

Status DecodePayloadRef(Decoder* decoder, const PayloadDictDecoder& dict,
                        Row* payload) {
  uint32_t id = 0;
  Status status = decoder->ReadU32(&id);
  if (!status.ok()) return status;
  if (id == kInlinePayloadId) return decoder->ReadRow(payload);
  return dict.Resolve(id, payload);
}

}  // namespace

void EncodeElementDict(const StreamElement& element, PayloadDictEncoder* dict,
                       std::vector<std::pair<uint32_t, Row>>* new_defs,
                       Encoder* encoder) {
  encoder->WriteU8(static_cast<uint8_t>(element.kind()));
  switch (element.kind()) {
    case ElementKind::kInsert:
      EncodePayloadRef(element.payload(), dict, new_defs, encoder);
      encoder->WriteI64(element.vs());
      encoder->WriteI64(element.ve());
      break;
    case ElementKind::kAdjust:
      EncodePayloadRef(element.payload(), dict, new_defs, encoder);
      encoder->WriteI64(element.vs());
      encoder->WriteI64(element.v_old());
      encoder->WriteI64(element.ve());
      break;
    case ElementKind::kStable:
      encoder->WriteI64(element.stable_time());
      break;
  }
}

Status DecodeElementDict(Decoder* decoder, const PayloadDictDecoder& dict,
                         StreamElement* element) {
  uint8_t tag = 0;
  Status status = decoder->ReadU8(&tag);
  if (!status.ok()) return status;
  switch (static_cast<ElementKind>(tag)) {
    case ElementKind::kInsert: {
      Row payload;
      int64_t vs = 0;
      int64_t ve = 0;
      if (!(status = DecodePayloadRef(decoder, dict, &payload)).ok()) {
        return status;
      }
      if (!(status = decoder->ReadI64(&vs)).ok()) return status;
      if (!(status = decoder->ReadI64(&ve)).ok()) return status;
      *element = StreamElement::Insert(std::move(payload), vs, ve);
      return Status::Ok();
    }
    case ElementKind::kAdjust: {
      Row payload;
      int64_t vs = 0;
      int64_t v_old = 0;
      int64_t ve = 0;
      if (!(status = DecodePayloadRef(decoder, dict, &payload)).ok()) {
        return status;
      }
      if (!(status = decoder->ReadI64(&vs)).ok()) return status;
      if (!(status = decoder->ReadI64(&v_old)).ok()) return status;
      if (!(status = decoder->ReadI64(&ve)).ok()) return status;
      *element = StreamElement::Adjust(std::move(payload), vs, v_old, ve);
      return Status::Ok();
    }
    case ElementKind::kStable: {
      int64_t t = 0;
      if (!(status = decoder->ReadI64(&t)).ok()) return status;
      *element = StreamElement::Stable(t);
      return Status::Ok();
    }
  }
  return Status::InvalidArgument("unknown element tag " +
                                 std::to_string(tag));
}

void EncodeSequenceDict(const ElementSequence& elements,
                        PayloadDictEncoder* dict,
                        std::vector<std::pair<uint32_t, Row>>* new_defs,
                        Encoder* encoder) {
  // Floor estimate: tag + id + two i64 per element.
  encoder->Reserve(4 + elements.size() * 21);
  encoder->WriteU32(static_cast<uint32_t>(elements.size()));
  for (const StreamElement& e : elements) {
    EncodeElementDict(e, dict, new_defs, encoder);
  }
}

Status DecodeSequenceDict(Decoder* decoder, const PayloadDictDecoder& dict,
                          ElementSequence* elements) {
  uint32_t count = 0;
  Status status = decoder->ReadU32(&count);
  if (!status.ok()) return status;
  if (count > decoder->remaining()) {
    return Status::InvalidArgument("sequence length exceeds buffer");
  }
  elements->clear();
  elements->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    StreamElement element;
    status = DecodeElementDict(decoder, dict, &element);
    if (!status.ok()) return status;
    elements->push_back(std::move(element));
  }
  return Status::Ok();
}

std::string SerializeSequence(const ElementSequence& elements) {
  Encoder encoder;
  EncodeSequence(elements, &encoder);
  return encoder.TakeBytes();
}

Status DeserializeSequence(const std::string& bytes,
                           ElementSequence* elements) {
  Decoder decoder(bytes);
  Status status = DecodeSequence(&decoder, elements);
  if (!status.ok()) return status;
  if (!decoder.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after sequence");
  }
  return Status::Ok();
}

}  // namespace lmerge
