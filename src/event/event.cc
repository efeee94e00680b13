// Copyright 2026 The PLDP Authors.

#include "event/event.h"

#include <utility>

#include "common/strings.h"

namespace pldp {

Event::Event(const Event& other)
    : type_(other.type_),
      timestamp_(other.timestamp_),
      stream_(other.stream_),
      attr_count_(other.attr_count_),
      inline_(other.inline_),
      spill_(other.spill_ == nullptr
                 ? nullptr
                 : std::make_unique<std::vector<Attr>>(*other.spill_)) {}

Event& Event::operator=(const Event& other) {
  if (this == &other) return *this;
  type_ = other.type_;
  timestamp_ = other.timestamp_;
  stream_ = other.stream_;
  attr_count_ = other.attr_count_;
  inline_ = other.inline_;
  if (other.spill_ == nullptr) {
    spill_ = nullptr;
  } else if (spill_ != nullptr) {
    // Reuse the destination's vector (and its capacity) — steady-state
    // copies of spilled events into recycled slots stay allocation-free.
    *spill_ = *other.spill_;
  } else {
    spill_ = std::make_unique<std::vector<Attr>>(*other.spill_);
  }
  return *this;
}

Event::Event(Event&& other) noexcept
    : type_(other.type_),
      timestamp_(other.timestamp_),
      stream_(other.stream_),
      attr_count_(other.attr_count_),
      inline_(std::move(other.inline_)),
      spill_(std::move(other.spill_)) {
  other.attr_count_ = 0;
}

Event& Event::operator=(Event&& other) noexcept {
  if (this == &other) return *this;
  type_ = other.type_;
  timestamp_ = other.timestamp_;
  stream_ = other.stream_;
  attr_count_ = other.attr_count_;
  inline_ = std::move(other.inline_);
  spill_ = std::move(other.spill_);
  other.attr_count_ = 0;
  return *this;
}

void Event::SetAttribute(AttrId id, Value value) {
  if (id == kInvalidAttrId) return;  // table full; nothing sane to key by
  Attr* attrs = attrs_data();
  for (uint32_t i = 0; i < attr_count_; ++i) {
    if (attrs[i].id == id) {
      attrs[i].value = std::move(value);
      return;
    }
  }
  if (spill_ != nullptr) {
    spill_->push_back(Attr{id, std::move(value)});
    ++attr_count_;
    return;
  }
  if (attr_count_ < kInlineAttrCapacity) {
    inline_[attr_count_] = Attr{id, std::move(value)};
    ++attr_count_;
    return;
  }
  // Inline buffer full: spill everything (the rare, documented slow path).
  spill_ = std::make_unique<std::vector<Attr>>();
  spill_->reserve(attr_count_ + 1);
  for (uint32_t i = 0; i < attr_count_; ++i) {
    spill_->push_back(std::move(inline_[i]));
    inline_[i] = Attr{};
  }
  spill_->push_back(Attr{id, std::move(value)});
  ++attr_count_;
}

void Event::SetAttribute(std::string_view name, Value value) {
  SetAttribute(AttrNames().Intern(name), std::move(value));
}

const Value* Event::FindAttribute(AttrId id) const {
  const Attr* attrs = attrs_data();
  for (uint32_t i = 0; i < attr_count_; ++i) {
    if (attrs[i].id == id) return &attrs[i].value;
  }
  return nullptr;
}

const Value* Event::FindAttribute(std::string_view name) const {
  const AttrId id = AttrNames().Find(name);
  return id == kInvalidAttrId ? nullptr : FindAttribute(id);
}

std::optional<Value> Event::GetAttribute(std::string_view name) const {
  const Value* v = FindAttribute(name);
  if (v == nullptr) return std::nullopt;
  return *v;
}

bool Event::operator==(const Event& other) const {
  if (type_ != other.type_ || timestamp_ != other.timestamp_ ||
      stream_ != other.stream_ || attr_count_ != other.attr_count_) {
    return false;
  }
  const Attr* mine = attrs_data();
  const Attr* theirs = other.attrs_data();
  for (uint32_t i = 0; i < attr_count_; ++i) {
    if (!(mine[i] == theirs[i])) return false;
  }
  return true;
}

std::string Event::ToString(const EventTypeRegistry* registry) const {
  std::string name;
  if (registry != nullptr) {
    auto n = registry->Name(type_);
    name = n.ok() ? n.value() : ("type" + std::to_string(type_));
  } else {
    name = "type" + std::to_string(type_);
  }
  std::string out = StrFormat("%s@%lld", name.c_str(),
                              static_cast<long long>(timestamp_));
  if (attr_count_ > 0) {
    out.push_back('{');
    for (uint32_t i = 0; i < attr_count_; ++i) {
      if (i > 0) out.push_back(',');
      const std::string_view attr_name = attribute_name(i);
      if (attr_name.empty()) {
        out += "attr" + std::to_string(attribute(i).id);
      } else {
        out.append(attr_name.data(), attr_name.size());
      }
      out.push_back('=');
      out += attribute(i).value.ToString();
    }
    out.push_back('}');
  }
  return out;
}

}  // namespace pldp
