#include "ayd/engine/record.hpp"

#include "ayd/util/error.hpp"

namespace ayd::engine {

Value& Record::slot(std::string key) {
  for (auto& [k, v] : fields_) {
    if (k == key) return v;
  }
  fields_.emplace_back(std::move(key), Value{});
  return fields_.back().second;
}

void Record::set(std::string key, double value) {
  Value& v = slot(std::move(key));
  v.kind = Value::Kind::kNumber;
  v.number = value;
  v.text.clear();
}

void Record::set(std::string key, std::string text) {
  Value& v = slot(std::move(key));
  v.kind = Value::Kind::kText;
  v.number = 0.0;
  v.text = std::move(text);
}

const Value* Record::find(std::string_view key) const {
  for (const auto& [k, v] : fields_) {
    if (k == key) return &v;
  }
  return nullptr;
}

double Record::num(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr || v->kind != Value::Kind::kNumber) {
    throw util::InvalidArgument("record has no numeric field '" +
                                std::string(key) + "'");
  }
  return v->number;
}

const std::string& Record::text(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr || v->kind != Value::Kind::kText) {
    throw util::InvalidArgument("record has no text field '" +
                                std::string(key) + "'");
  }
  return v->text;
}

}  // namespace ayd::engine
