#include "common/serde.h"

#include <cstring>

#include "common/check.h"

namespace lmerge {

void Encoder::WriteU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void Encoder::WriteU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void Encoder::WriteDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  WriteU64(bits);
}

void Encoder::WriteString(const std::string& s) {
  WriteU32(static_cast<uint32_t>(s.size()));
  bytes_.append(s);
}

void Encoder::WriteValue(const Value& value) {
  WriteU8(static_cast<uint8_t>(value.type()));
  switch (value.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      WriteU8(value.AsBool() ? 1 : 0);
      break;
    case ValueType::kInt64:
      WriteI64(value.AsInt64());
      break;
    case ValueType::kDouble:
      WriteDouble(value.AsDouble());
      break;
    case ValueType::kString:
      WriteString(value.AsString());
      break;
  }
}

void Encoder::WriteRow(const Row& row) {
  WriteU32(static_cast<uint32_t>(row.field_count()));
  for (int64_t i = 0; i < row.field_count(); ++i) WriteValue(row.field(i));
}

Status Decoder::Need(size_t n) {
  if (offset_ + n > bytes_.size()) {
    return Status::OutOfRange("decode past end of buffer");
  }
  return Status::Ok();
}

Status Decoder::ReadU8(uint8_t* v) {
  Status status = Need(1);
  if (!status.ok()) return status;
  *v = static_cast<uint8_t>(bytes_[offset_++]);
  return Status::Ok();
}

Status Decoder::ReadU32(uint32_t* v) {
  Status status = Need(4);
  if (!status.ok()) return status;
  *v = 0;
  for (int i = 0; i < 4; ++i) {
    *v |= static_cast<uint32_t>(static_cast<unsigned char>(
              bytes_[offset_++]))
          << (8 * i);
  }
  return Status::Ok();
}

Status Decoder::ReadU64(uint64_t* v) {
  Status status = Need(8);
  if (!status.ok()) return status;
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= static_cast<uint64_t>(static_cast<unsigned char>(
              bytes_[offset_++]))
          << (8 * i);
  }
  return Status::Ok();
}

Status Decoder::ReadDouble(double* v) {
  uint64_t bits = 0;
  Status status = ReadU64(&bits);
  if (!status.ok()) return status;
  std::memcpy(v, &bits, sizeof(*v));
  return Status::Ok();
}

Status Decoder::ReadString(std::string* s) {
  uint32_t len = 0;
  Status status = ReadU32(&len);
  if (!status.ok()) return status;
  status = Need(len);
  if (!status.ok()) return status;
  s->assign(bytes_, offset_, len);
  offset_ += len;
  return Status::Ok();
}

Status Decoder::ReadValue(Value* value) {
  uint8_t tag = 0;
  Status status = ReadU8(&tag);
  if (!status.ok()) return status;
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      *value = Value::Null();
      return Status::Ok();
    case ValueType::kBool: {
      uint8_t b = 0;
      status = ReadU8(&b);
      if (!status.ok()) return status;
      *value = Value(b != 0);
      return Status::Ok();
    }
    case ValueType::kInt64: {
      int64_t v = 0;
      status = ReadI64(&v);
      if (!status.ok()) return status;
      *value = Value(v);
      return Status::Ok();
    }
    case ValueType::kDouble: {
      double v = 0;
      status = ReadDouble(&v);
      if (!status.ok()) return status;
      *value = Value(v);
      return Status::Ok();
    }
    case ValueType::kString: {
      std::string s;
      status = ReadString(&s);
      if (!status.ok()) return status;
      *value = Value(std::move(s));
      return Status::Ok();
    }
  }
  return Status::InvalidArgument("unknown value tag " + std::to_string(tag));
}

void Encoder::WriteRowRef(const Row& row) {
  LM_DCHECK(row_pool_ != nullptr);
  if (row.identity() == nullptr) {
    WriteU32(kInlineRowRef);
    WriteRow(row);
    return;
  }
  WriteU32(row_pool_->Intern(row));
}

Status Decoder::ReadRowRef(Row* row) {
  LM_DCHECK(row_pool_ != nullptr);
  uint32_t id = 0;
  Status status = ReadU32(&id);
  if (!status.ok()) return status;
  if (id == kInlineRowRef) return ReadRow(row);
  return row_pool_->Resolve(id, row);
}

uint32_t RowPoolEncoder::Intern(const Row& row) {
  LM_DCHECK(row.identity() != nullptr);
  const auto [id, inserted] =
      ids_.Insert(row.identity(), static_cast<uint32_t>(rows_.size()));
  if (inserted) rows_.push_back(row);
  return *id;
}

void RowPoolEncoder::EncodeTo(Encoder* encoder) const {
  encoder->WriteU32(static_cast<uint32_t>(rows_.size()));
  for (const Row& row : rows_) encoder->WriteRow(row);
}

Status RowPoolDecoder::DecodeFrom(Decoder* decoder) {
  uint32_t count = 0;
  Status status = decoder->ReadU32(&count);
  if (!status.ok()) return status;
  // Each pooled row takes at least its 4-byte field count; reject counts
  // the buffer cannot hold (hostile-input bound).
  if (count > decoder->remaining() / 4 + 1) {
    return Status::InvalidArgument("row pool count exceeds buffer");
  }
  rows_.clear();
  rows_.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Row row;
    status = decoder->ReadRow(&row);
    if (!status.ok()) return status;
    rows_.push_back(std::move(row));
  }
  return Status::Ok();
}

Status RowPoolDecoder::Resolve(uint32_t id, Row* row) const {
  if (id >= rows_.size()) {
    return Status::InvalidArgument("row pool reference " + std::to_string(id) +
                                   " out of range");
  }
  *row = rows_[id];
  return Status::Ok();
}

Status Decoder::ReadRow(Row* row) {
  uint32_t count = 0;
  Status status = ReadU32(&count);
  if (!status.ok()) return status;
  if (count > remaining()) {  // each field takes at least one byte
    return Status::InvalidArgument("row field count exceeds buffer");
  }
  std::vector<Value> fields;
  fields.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Value value;
    status = ReadValue(&value);
    if (!status.ok()) return status;
    fields.push_back(std::move(value));
  }
  *row = Row(std::move(fields));
  return Status::Ok();
}

}  // namespace lmerge
